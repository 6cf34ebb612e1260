"""bnecert: compute and certify epsilon-equilibria of two-player
Bayesian games with continuous types on [0, 1]^2 and finite actions.

Pipeline: parse the game (expr, model), discretize the type space
(discretize), solve the finite game (solver), lift to step-function
distributional strategies, and verify the epsilon-equilibrium condition
of the infinite game by quadrature (certify).  The driver chains the
levels; the cli exposes everything on the command line.
"""

from .certify import Certificate, br_value_infinite, certify, profile_value
from .discretize import (
    BehavioralProfile,
    FiniteGame,
    StepStrategy,
    build_finite,
    lift,
)
from .driver import RunConfig, RunReport, convergence_diagnostic, run
from .expr import Expr, evaluate, parse
from .model import (
    GameSpec,
    InfiniteGame,
    conditional,
    load_game,
    load_game_file,
    marginal,
)
from .solver import (
    SolverResult,
    check_prop1,
    ck_objective,
    default_alphas,
    finite_best_response,
    finite_gap,
    solve_enum,
    solve_fp,
    solve_lp,
)

__all__ = [
    "BehavioralProfile",
    "Certificate",
    "Expr",
    "FiniteGame",
    "GameSpec",
    "InfiniteGame",
    "RunConfig",
    "RunReport",
    "SolverResult",
    "StepStrategy",
    "br_value_infinite",
    "build_finite",
    "certify",
    "check_prop1",
    "ck_objective",
    "conditional",
    "convergence_diagnostic",
    "default_alphas",
    "evaluate",
    "finite_best_response",
    "finite_gap",
    "lift",
    "load_game",
    "load_game_file",
    "marginal",
    "parse",
    "profile_value",
    "run",
    "solve_enum",
    "solve_fp",
    "solve_lp",
]

__version__ = "0.1.0"

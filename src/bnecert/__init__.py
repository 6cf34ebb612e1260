"""bnecert: compute and certify epsilon-equilibria of two-player
Bayesian games with continuous types on [0, 1]^2 and finite actions.

Pipeline: parse the game (expr, model), discretize the type space
(discretize), solve the finite game (solver), lift to step-function
distributional strategies, and verify the epsilon-equilibrium condition
of the infinite game by quadrature (certificate).  The driver chains the
levels; the cli exposes everything on the command line.
"""

from .certificate import certify
from .discretize import BehavioralProfile, FiniteGame, build_finite, lift
from .driver import RunConfig, convergence_diagnostic, run
from .expr import parse
from .model import GameSpec, load_game, load_game_file, marginal
from .prop1 import check_prop1, default_alphas
from .solver import solve_fp, solve_lp

__all__ = [
    "BehavioralProfile",
    "FiniteGame",
    "GameSpec",
    "RunConfig",
    "build_finite",
    "certify",
    "check_prop1",
    "convergence_diagnostic",
    "default_alphas",
    "lift",
    "load_game",
    "load_game_file",
    "marginal",
    "parse",
    "run",
    "solve_fp",
    "solve_lp",
]

__version__ = "0.1.0"

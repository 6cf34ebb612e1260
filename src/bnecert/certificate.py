"""Verification of candidate strategy pairs against the infinite game.

A lifted profile is purely atomic, so its own value is an exact double
sum.  The best deviation value reduces to integrating the pointwise
maximum over own actions of the atomic opponent sum; that integrand is
piecewise smooth with kinks where the argmax switches, so quadrature
panels are pre-split at every opponent atom and refined adaptively.
Each opponent sum is one np.vecdot over the atoms and actions of nonzero
mass, of payoffs from numpy's ufuncs (within 1 ulp of the C library's).

Acceptance is conservative: a certificate only passes if the measured
gap plus the a-posteriori quadrature bound stays within epsilon.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass

import numpy as np

from .quadrature import integrate

QUAD_TOL_FLOOR = 1e-9


@dataclass(frozen=True)
class Certificate:
    level: int
    epsilon_requested: float
    gap1: float
    gap2: float
    quad_error1: float
    quad_error2: float
    value1: float
    value2: float
    certified: bool
    wall_time: float

    def to_dict(self):
        return asdict(self)


def profile_value(g, F, G):
    """Exact ex-ante values (player 1's, player 2's) of an atomic strategy
    pair (no quadrature), from one pass over both payoff tables."""
    tables = g.tables(F.atom_points[:, None], G.atom_points[None, :])
    return tuple(float(np.einsum("ix,jy,xyij->", F.atom_masses(),
                                 G.atom_masses(), payoff))
                 for payoff in tables)


def best_deviation_integrand(g, player, opponent):
    """theta -> max over own actions of the atomic opponent sum, for a
    1-D array of theta; each sum is one dot product over the atoms and
    actions of nonzero mass, so 0 * inf never arises."""
    masses = opponent.atom_masses()
    pts = opponent.atom_points
    keep = masses != 0.0

    def payoff(theta):
        """Payoffs indexed [own action, theta, atom, opponent action]."""
        if player == 1:
            return g.payoff(1, theta, pts).transpose(0, 2, 3, 1)
        return g.payoff(2, pts, theta).transpose(1, 2, 3, 0)

    def psi(theta):
        acc = np.vecdot(payoff(theta[:, None])[..., keep], masses[keep])
        # nan never beats another action
        return np.where(np.isnan(acc), -np.inf, acc).max(axis=0)

    return psi


def check_tolerances(epsilon):
    """ValueError unless epsilon is a positive, finite real number.  numpy
    floats count; bools do not."""
    if (isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real)
            or not 0.0 < epsilon < math.inf):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


def br_value_infinite(g, player, opponent, quad_tol=1e-7):
    """Value of the best pure deviation against an atomic opponent.

    Returns (value, error_bound) from adaptive Simpson quadrature with
    mandatory panel splits at the opponent's atom abscissae.
    """
    if not quad_tol > 0.0:
        raise ValueError("quad_tol must be positive")
    psi = best_deviation_integrand(g, player, opponent)
    presplit = opponent.atom_points[:-1]
    return integrate(psi, 0.0, 1.0, quad_tol, presplit=presplit)


def certify(g, F, G, epsilon):
    """Check the epsilon-equilibrium condition of the infinite game for
    player 1's strategy F and player 2's G, over the game's labels.  The
    quadrature tolerance is epsilon / 100, floored at QUAD_TOL_FLOOR."""
    check_tolerances(epsilon)
    for player, strat, actions in ((1, F, g.actions1), (2, G, g.actions2)):
        if strat.actions != actions:
            raise ValueError(f"player {player}'s strategy has actions "
                             f"{strat.actions}, but the game gives player "
                             f"{player} {actions}")
    quad_tol = max(epsilon / 100.0, QUAD_TOL_FLOOR)

    start = time.perf_counter()
    value1, value2 = profile_value(g, F, G)
    br1, err1 = br_value_infinite(g, 1, G, quad_tol)
    br2, err2 = br_value_infinite(g, 2, F, quad_tol)
    gap1 = br1 - value1
    gap2 = br2 - value2
    certified = (gap1 + err1 <= epsilon) and (gap2 + err2 <= epsilon)
    return Certificate(
        level=F.n,
        epsilon_requested=float(epsilon),
        gap1=float(gap1),
        gap2=float(gap2),
        quad_error1=float(err1),
        quad_error2=float(err2),
        value1=float(value1),
        value2=float(value2),
        certified=bool(certified),
        wall_time=time.perf_counter() - start,
    )

"""Verification of candidate strategy pairs against the infinite game.

A lifted profile is purely atomic, so its own value is an exact double
sum.  The best deviation value reduces to integrating the pointwise
maximum over own actions of the atomic opponent sum; that integrand is
piecewise smooth with kinks where the argmax switches, so quadrature
panels are pre-split at every opponent atom and refined adaptively.

Acceptance is conservative: a certificate only passes if the measured
gap plus the a-posteriori quadrature bound stays within epsilon.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .quadrature import integrate, sequential_sum

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


def profile_value(g, F, G, player):
    """Exact ex-ante value of an atomic strategy pair (no quadrature)."""
    payoff = g.payoff(player, F.atom_points[:, None], G.atom_points[None, :])
    return float(np.einsum("ix,jy,xyij->", F.atom_masses(), G.atom_masses(),
                           payoff))


def best_deviation_integrand(g, player, opponent):
    """theta -> max over own actions of the atomic opponent sum, for a
    1-D array of theta; each sum is rounded term by term in (atom, action)
    order, skipping zero masses, whatever the batch."""
    masses = opponent.atom_masses()
    pts = opponent.atom_points
    keep = masses != 0.0

    def payoff(theta):
        """Payoffs indexed [own action, theta, atom, opponent action]."""
        if player == 1:
            return g.payoff(1, theta, pts).transpose(0, 2, 3, 1)
        return g.payoff(2, pts, theta).transpose(1, 2, 3, 0)

    def psi(theta):
        with np.errstate(invalid="ignore"):  # 0 * inf, dropped by keep
            terms = np.where(keep, masses * payoff(theta[:, None]), 0.0)
        acc = sequential_sum(terms.reshape(*terms.shape[:2], -1))
        # nan never beats the running best, which starts at -inf
        return np.where(np.isnan(acc), -np.inf, acc).max(axis=0)

    return psi


def br_value_infinite(g, player, opponent, quad_tol=1e-7):
    """Value of the best pure deviation against an atomic opponent.

    Returns (value, error_bound) from adaptive Simpson quadrature with
    mandatory panel splits at the opponent's atom abscissae.
    """
    if quad_tol <= 0.0:
        raise ValueError("quad_tol must be positive")
    psi = best_deviation_integrand(g, player, opponent)
    presplit = opponent.atom_points[:-1]
    return integrate(psi, 0.0, 1.0, quad_tol, presplit=presplit)


def certify(g, F, G, epsilon, quad_tol=None):
    """Check the epsilon-equilibrium condition of the infinite game."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if quad_tol is None:
        quad_tol = epsilon / 100.0
    quad_tol = max(min(quad_tol, epsilon / 10.0), QUAD_TOL_FLOOR)

    start = time.perf_counter()
    value1 = profile_value(g, F, G, 1)
    value2 = profile_value(g, F, G, 2)
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

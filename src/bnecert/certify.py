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
from dataclasses import dataclass

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
        return {
            "level": self.level,
            "epsilon_requested": self.epsilon_requested,
            "gap1": self.gap1,
            "gap2": self.gap2,
            "quad_error1": self.quad_error1,
            "quad_error2": self.quad_error2,
            "value1": self.value1,
            "value2": self.value2,
            "certified": self.certified,
            "wall_time": self.wall_time,
        }


def _payoff_fn(g, player):
    return g.u if player == 1 else g.v


def profile_value(g, F, G, player):
    """Exact ex-ante value of an atomic strategy pair (no quadrature)."""
    payoff = _payoff_fn(g, player)
    mf = F.atom_masses()
    mg = G.atom_masses()
    pts1 = F.atom_points
    pts2 = G.atom_points
    total = 0.0
    for x in range(len(F.actions)):
        for y in range(len(G.actions)):
            for i, t1 in enumerate(pts1):
                if mf[i, x] == 0.0:
                    continue
                for j, t2 in enumerate(pts2):
                    if mg[j, y] == 0.0:
                        continue
                    total += mf[i, x] * mg[j, y] * payoff(x, y, t1, t2)
    return total


def best_deviation_integrand(g, player, opponent):
    """theta -> max over own actions of the atomic opponent sum."""
    payoff = _payoff_fn(g, player)
    masses = opponent.atom_masses()
    pts = opponent.atom_points
    own_count = g.L if player == 1 else g.H
    opp_count = len(opponent.actions)

    def psi(theta):
        best = -np.inf
        for a in range(own_count):
            acc = 0.0
            for j, t in enumerate(pts):
                for o in range(opp_count):
                    m = masses[j, o]
                    if m == 0.0:
                        continue
                    if player == 1:
                        acc += m * payoff(a, o, theta, t)
                    else:
                        acc += m * payoff(o, a, t, theta)
            if acc > best:
                best = acc
        return best

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

"""Verification of candidate strategy pairs against the infinite game.

Both sides of a gap read interim_values, each own action's value against
the atomic opponent: one np.vecdot over the opponent's atoms and actions
of nonzero mass, of payoffs from numpy's ufuncs (within 1 ulp of the C
library's).  The best deviation integrates its max over own actions,
pre-splitting panels at the opponent's atoms (where the integrand may
kink) and refining adaptively.  The candidate's value sums it exactly
over its own atoms, at the right ends of its cells, read from the
integrand's first call, which takes the panel ends first.  The sides
differ only in the own type, summed for one and integrated for the
other: that is the gap's O(1/n) bias.  A certificate passes only if the
gap plus the a-posteriori quadrature bound stays within epsilon.

F and G must share a level: a certificate reports one.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass

import numpy as np

from .quadrature import integrate


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


def interim_values(g, player, opponent):
    """theta -> the (own actions, theta) array of interim values against
    the atomic opponent, for a 1-D array of theta; each is one dot product
    over the atoms and actions of nonzero mass, so 0 * inf never arises.
    A player other than 1 or 2 is a ValueError when the values are read."""
    masses = opponent.atom_masses()
    pts = opponent.atom_points
    keep = masses != 0.0

    def values(theta):
        # payoffs indexed [own action, theta, atom, opponent action]
        if player == 1:
            payoff = g.payoff(player, theta[:, None], pts).transpose(0, 2, 3, 1)
        else:
            payoff = g.payoff(player, pts, theta[:, None]).transpose(1, 2, 3, 0)
        return np.vecdot(payoff[..., keep], masses[keep])

    return values


def check_tolerances(epsilon):
    """ValueError unless epsilon and its hundredth, certify's quadrature
    tolerance, are positive, finite real numbers.  numpy floats count;
    bools do not."""
    if (isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real)
            or not 0.0 < epsilon / 100.0 < math.inf):
        raise ValueError(f"epsilon must be positive and finite, and so must "
                         f"epsilon / 100, the quadrature tolerance; got "
                         f"{epsilon}")


def br_value_infinite(g, player, opponent, quad_tol):
    """Value of the best pure deviation against an atomic opponent.

    Returns (value, error_bound, interim): value and error_bound from
    adaptive Simpson quadrature of the max over own actions of
    interim_values, with mandatory panel splits at the opponent's atom
    abscissae, and interim the interim_values at the partition 0, 1/n,
    ..., 1, read from the first call of the integrand, whose abscissae
    start with it.
    """
    values = interim_values(g, player, opponent)
    first = []

    def psi(theta):  # a nan value makes the estimate, so certify, fail
        acc = values(theta)
        if not first:
            first.append(acc[:, :opponent.n + 1])
        return acc.max(axis=0)

    value, error_bound = integrate(psi, 0.0, 1.0, quad_tol,
                                   presplit=opponent.atom_points[:-1])
    return value, error_bound, first[0]


def certify(g, F, G, epsilon):
    """Check the epsilon-equilibrium condition of the infinite game for
    player 1's strategy F and player 2's G, over the game's labels; F and
    G must share a level.  Each player's integral runs to epsilon / 100,
    which the quadrature floors near rounding of that player's integrand."""
    check_tolerances(epsilon)
    for player, strat, actions in ((1, F, g.actions1), (2, G, g.actions2)):
        if strat.actions != actions:
            raise ValueError(f"player {player}'s strategy has actions "
                             f"{strat.actions}, but the game gives player "
                             f"{player} {actions}")
    if F.n != G.n:
        raise ValueError(f"player 1's strategy is of level {F.n} and "
                         f"player 2's of level {G.n}; they must share one")
    quad_tol = epsilon / 100.0

    start = time.perf_counter()
    values, gaps, errors = [], [], []
    for player, own, opponent in ((1, F, G), (2, G, F)):
        br, err, interim = br_value_infinite(g, player, opponent, quad_tol)
        # own atoms 1/n, ..., 1: the opponent's level is the own one
        values.append(float(np.vecdot(own.atom_masses().ravel(),
                                      interim[:, 1:].T.ravel())))
        gaps.append(br - values[-1])
        errors.append(err)
    return Certificate(
        level=F.n,
        epsilon_requested=float(epsilon),
        gap1=gaps[0],
        gap2=gaps[1],
        quad_error1=errors[0],
        quad_error2=errors[1],
        value1=values[0],
        value2=values[1],
        certified=all(gap + err <= epsilon
                      for gap, err in zip(gaps, errors)),
        wall_time=time.perf_counter() - start,
    )

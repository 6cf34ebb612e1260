"""Verification of candidate strategy pairs against the infinite game.

Both sides of a gap read interim_values, each own action's value against
the atomic opponent: one np.vecdot over the opponent's atoms and actions
of nonzero mass, of payoffs from numpy's ufuncs (within 1 ulp of the C
library's).  Both players' best deviations are one integrate_many call:
integrand k, player k + 1's max over own actions, is split first at the
level's edges 0, 1/n, ..., 1 (the opponent's atoms, where it may kink)
and refined adaptively, as alone.  An error is the first that refinement
meets.  Each candidate's value sums the same values exactly over its own
atoms, at the right ends of its cells, read from its integrand's first
call, which takes those edges first.  The sides differ only in the own
type, summed for one and integrated for the other: that is the gap's
O(1/n) bias.  A certificate passes only if the gap plus the a-posteriori
quadrature bound stays within epsilon.

F and G must share a level: a certificate reports one.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass

import numpy as np

from .quadrature import integrate_many


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
    bools do not, nor does an int too large for a float."""
    got = epsilon
    try:
        ok = (not isinstance(epsilon, bool)
              and isinstance(epsilon, numbers.Real)
              and 0.0 < epsilon / 100.0 < math.inf)
    except OverflowError:  # its digits may pass int's str limit
        ok, got = False, "a number too large for a float"
    if not ok:
        raise ValueError(f"epsilon must be positive and finite, and so must "
                         f"epsilon / 100, the quadrature tolerance; got "
                         f"{got}")


def certify(g, F, G, epsilon):
    """Check the epsilon-equilibrium condition of the infinite game for
    player 1's strategy F and player 2's G, over the game's labels; F and
    G must share a level.  Both players' deviations are integrated in one
    call, each to epsilon / 100, which the quadrature floors near rounding
    of that player's integrand."""
    check_tolerances(epsilon)
    for player, strat, actions in ((1, F, g.actions1), (2, G, g.actions2)):
        if strat.actions != actions:
            raise ValueError(f"player {player}'s strategy has actions "
                             f"{strat.actions}, but the game gives player "
                             f"{player} {actions}")
    if F.n != G.n:
        raise ValueError(f"player 1's strategy is of level {F.n} and "
                         f"player 2's of level {G.n}; they must share one")

    start = time.perf_counter()
    sides = interim_values(g, 1, G), interim_values(g, 2, F)
    first = [None, None]  # each side's first values, at 0, 1/n, ..., 1

    def psi(theta, k):  # a nan value makes the estimate, so certify, fail
        out = np.empty(theta.size)
        for side, values in enumerate(sides):
            mine = k == side
            if mine.any():
                acc = values(theta[mine])
                if first[side] is None:
                    first[side] = acc[:, :F.n + 1]
                out[mine] = acc.max(axis=0)
        return out

    # the level's edges, F's atoms and G's, split both sides' panels
    brs, errors = integrate_many(psi, 2, epsilon / 100.0,
                                 np.append(0.0, F.atom_points))
    # own atoms 1/n, ..., 1
    values = [float(np.vecdot(own.atom_masses().ravel(),
                              interim[:, 1:].T.ravel()))
              for own, interim in zip((F, G), first)]
    gaps = [br - value for br, value in zip(brs.tolist(), values)]
    errors = errors.tolist()
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

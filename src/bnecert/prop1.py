"""The multiplier condition, under which the slack LP solves a level
game: its check (check_prop1) and the LP's weights (default_alphas)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import level_grid
from .errors import Prop1Violation


@dataclass(frozen=True)
class Prop1Result:
    """Outcome of the linearizability check.

    kind is 'zero_sum' (raw utilities sum to one constant, of any size),
    'user' (supplied multipliers verified), or 'none'.
    """

    kind: str

    @property
    def linearizable(self):
        return self.kind != "none"


# points per type axis of check_prop1's grid
PROP1_GRID = 21


def _largest(a, b):
    """The largest finite |a| + |b| of two tables, 0 if there is none."""
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(a) + np.abs(b)
    return size[np.isfinite(size)].max(initial=0.0)


def _mismatch(lhs, rhs, tol):
    """Where |lhs - rhs| exceeds tol, or |lhs| + |rhs| is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (~np.isfinite(np.abs(lhs) + np.abs(rhs))
                | ~(np.abs(lhs - rhs) <= tol))


def _multiplier(g, player, pts, where):
    """m1 or m2 at the unit types pts; a Prop1Violation naming the first
    type where it is not positive and finite, called the `where` type."""
    m = g.multiplier(player, pts)
    bad = np.flatnonzero(~((m > 0.0) & (m < np.inf)))
    if bad.size:
        theta = g.spec_types(pts, pts)[player - 1][bad[0]]
        raise Prop1Violation(f"m{player} is {m[bad[0]]} at the {where}type "
                             f"{theta}; it must be positive and finite")
    return m


def check_prop1(g):
    """Detect whether the slack program's bilinear terms are constant.

    Checks the raw utilities, not weighted by the prior, on a PROP1_GRID x
    PROP1_GRID type grid: constant-sum detection first, then verification
    of user-supplied multipliers m1, m2, to a share of each table's largest
    finite |lhs| + |rhs|: no unit and no constant added to one player's
    utilities sways the verdict, and a point whose sum is not finite fails.
    """
    pts = np.linspace(0.0, 1.0, PROP1_GRID)
    u, v = g.tables(pts[:, None], pts[None, :], assimilated=False)
    # constant-sum pass: u against (u + v at the first grid point) - v, to
    # 1e-9 of |u| + |rhs| plus 8 eps of |u| + |v|, the addends' rounding
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = (u[0, 0, 0, 0] + v[0, 0, 0, 0]) - v
    tol = 1e-9 * _largest(u, rhs) + 8 * np.finfo(float).eps * _largest(u, v)
    if not np.any(_mismatch(u, rhs, tol)):
        return Prop1Result(kind="zero_sum")

    if g.spec.m1 is not None:  # then m2 is too
        m1, m2 = (_multiplier(g, player, pts, "") for player in (1, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = m2 * u
            rhs = -m1[:, None] * v
        bad = _mismatch(lhs, rhs, 1e-6 * _largest(lhs, rhs))
        if np.any(bad):
            x, y, i, j = np.argwhere(bad)[0]
            t1, t2 = g.spec_types(pts[i], pts[j])
            raise Prop1Violation(
                f"identity fails at actions ({x}, {y}), "
                f"types ({t1}, {t2}): "
                f"{lhs[x, y, i, j]} vs {rhs[x, y, i, j]}"
            )
        return Prop1Result(kind="user")
    return Prop1Result(kind="none")


def default_alphas(fg, g, prop1):
    """Per-type objective weights (1/n) / m: m is the multiplier at the
    level's types when the multipliers are known, otherwise 1."""
    n = fg.n
    grid = level_grid(n)
    # check_prop1 saw the multipliers on its own grid only
    ms = ((_multiplier(g, player, grid, f"level-{n} ") for player in (1, 2))
          if prop1.kind == "user" else (np.ones(n), np.ones(n)))
    return tuple((1.0 / n) / m for m in ms)

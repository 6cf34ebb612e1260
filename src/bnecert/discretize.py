"""Level-n finite games and step-function distributional strategies.

The level-n game samples the prior-assimilated payoffs at the grid
{1/n, ..., n/n} (zero excluded) and carries an implicit uniform 1/n^2
prior over joint types.  A finite-game behavioral profile lifts to one
non-decreasing right-continuous step function per action,

    F_a(theta) = (1/n) * sum_{i/n <= theta} weights[i - 1, a],

with an atom of mass weights[i, a] / n at theta = (i + 1) / n, n being
the row count of StepStrategy(actions, weights).  level_grid(n) defines
those types once; StepStrategy.values counts the atoms at or below theta
by searchsorted on it, so grid points are exact.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonFinite

def check_count(name, value):
    """ValueError unless value is an integer >= 1.  numpy integers count;
    bools and floats do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def check_player(player):
    """ValueError unless player is 1 or 2, an integer as in check_count."""
    if (isinstance(player, bool) or not isinstance(player, numbers.Integral)
            or player not in (1, 2)):
        raise ValueError(f"player must be 1 or 2, got {player!r}")


def _check_rows(name, m):
    """ValueError unless m is 2-D with finite, nonnegative entries and
    rows that sum to 1 within 1e-12: per-type action distributions."""
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D")
    if m.shape[0] == 0:
        raise ValueError(f"{name} has no rows")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has entries that are not finite")
    if np.any(m < 0.0):
        raise ValueError(f"{name} has negative entries")
    if np.max(np.abs(m.sum(axis=1) - 1.0)) > 1e-12:
        raise ValueError(f"rows of {name} must sum to 1")


def level_grid(n):
    """The level-n types 1/n, ..., n/n (zero excluded)."""
    return np.arange(1, n + 1) / n


@dataclass(frozen=True)
class FiniteGame:
    """Level-n discretized game with payoff tensors of shape (L, H, n, n).

    M1 and M2 are the payoff matrices of its agent-form game, built once
    per game: M1 has rows (i, x) and columns (j, y), M1[i*L + x, j*H + y]
    = U[x, y, i, j]; M2 has rows (j, y) and columns (i, x).
    """

    n: int
    actions1: tuple[str, ...]
    actions2: tuple[str, ...]
    U: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_count("n", self.n)
        shape = (self.L, self.H, self.n, self.n)
        if np.shape(self.U) != shape or np.shape(self.V) != shape:
            raise ValueError(f"U and V must have shape {shape}, got "
                             f"{np.shape(self.U)} and {np.shape(self.V)}")

    @property
    def L(self):
        return len(self.actions1)

    @property
    def H(self):
        return len(self.actions2)

    @cached_property
    def M1(self):
        return self.U.transpose(2, 0, 3, 1).reshape(self.n * self.L, -1)

    @cached_property
    def M2(self):
        return self.V.transpose(3, 1, 2, 0).reshape(self.n * self.H, -1)


@dataclass(frozen=True)
class BehavioralProfile:
    """Per-type action distributions: s is (n, L), t is (n, H)."""

    s: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        _check_rows("s", self.s)
        _check_rows("t", self.t)
        if self.s.shape[0] != self.t.shape[0]:
            raise ValueError("s and t must have the same number of types")


@dataclass(frozen=True)
class StepStrategy:
    """Distributional-form strategy: per-action step CDFs on the 1/n grid."""

    actions: tuple[str, ...]
    weights: np.ndarray = field(repr=False)  # (n, A), row-stochastic

    def __post_init__(self):
        _check_rows("weights", self.weights)
        if self.weights.shape[1] != len(self.actions):
            raise ValueError("weights must have one column per action")

    @property
    def n(self):
        return self.weights.shape[0]

    def values(self, theta):
        """All F_a(theta): the exact partial sum over the atoms at or
        below theta, so right-continuous and all 0 below 1/n.  An array
        theta gives one row each."""
        k = np.searchsorted(self.atom_points, theta, side="right")
        # cumulative masses; cum[k, a] = sum of first k rows
        cum = np.vstack([np.zeros(len(self.actions)),
                         np.cumsum(self.weights, axis=0)])
        return cum[k] / self.n

    @property
    def atom_points(self):
        return level_grid(self.n)

    def atom_masses(self):
        """(n, A) array of atom masses weights / n."""
        return self.weights / self.n

    def serialize(self, player):
        masses = self.atom_masses()
        atoms = [{"theta": theta, "action": action, "mass": masses[i, a]}
                 for i, theta in enumerate(self.atom_points)
                 for a, action in enumerate(self.actions)]
        return {"player": player, "level": self.n, "atoms": atoms}


def build_finite(g, n):
    """Sample the assimilated payoffs of g at the level-n grid."""
    check_count("n", n)
    n = int(n)
    grid = level_grid(n)
    U, V = g.tables(grid[:, None], grid[None, :])
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
        raise NonFinite("payoff tensor contains NaN/inf")
    return FiniteGame(n=n, actions1=g.actions1, actions2=g.actions2, U=U, V=V)


def lift(profile, player, actions):
    """Lift one side of a finite-game profile to a StepStrategy: that
    player's rows, labelled with that player's actions."""
    check_player(player)
    weights = profile.s if player == 1 else profile.t
    return StepStrategy(tuple(actions), np.array(weights, dtype=float))

"""Level-n finite games and step-function distributional strategies.

The level-n game samples the prior-assimilated payoffs at the grid
{1/n, ..., n/n} (zero excluded) and carries an implicit uniform 1/n^2
prior over joint types.  A finite-game behavioral profile lifts to one
non-decreasing right-continuous step function per action,

    F_a(theta) = (1/n) * sum_{i <= floor(n * theta)} weights[i - 1, a],

with an atom of mass weights[i, a] / n at theta = (i + 1) / n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFinite, UnknownAction

# floor(n * theta) with an upward nudge so representable grid points k/n
# land exactly on k despite binary rounding of k/n
_FLOOR_NUDGE = 1e-12


def grid_floor(n, theta):
    return int(np.floor(n * theta + _FLOOR_NUDGE))


@dataclass(frozen=True)
class FiniteGame:
    """Level-n discretized game with payoff tensors of shape (L, H, n, n)."""

    n: int
    actions1: tuple[str, ...]
    actions2: tuple[str, ...]
    U: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)

    @property
    def L(self):
        return len(self.actions1)

    @property
    def H(self):
        return len(self.actions2)

    @property
    def grid(self):
        return np.arange(1, self.n + 1) / self.n


@dataclass(frozen=True)
class BehavioralProfile:
    """Per-type action distributions: s is (n, L), t is (n, H)."""

    s: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        for name, m in (("s", self.s), ("t", self.t)):
            if m.ndim != 2:
                raise ValueError(f"{name} must be 2-D")
            if np.any(m < 0.0):
                raise ValueError(f"{name} has negative entries")
            if np.max(np.abs(m.sum(axis=1) - 1.0)) > 1e-12:
                raise ValueError(f"rows of {name} must sum to 1")
        if self.s.shape[0] != self.t.shape[0]:
            raise ValueError("s and t must have the same number of types")

    @property
    def n(self):
        return self.s.shape[0]

    @classmethod
    def uniform(cls, n, L, H):
        return cls(np.full((n, L), 1.0 / L), np.full((n, H), 1.0 / H))


@dataclass(frozen=True)
class StepStrategy:
    """Distributional-form strategy: per-action step CDFs on the 1/n grid."""

    n: int
    actions: tuple[str, ...]
    weights: np.ndarray = field(repr=False)  # (n, A), row-stochastic

    def __post_init__(self):
        if self.weights.shape != (self.n, len(self.actions)):
            raise ValueError("weights must have shape (n, len(actions))")
        # cumulative masses; cum[k, a] = sum of first k rows
        cum = np.vstack(
            [np.zeros(len(self.actions)), np.cumsum(self.weights, axis=0)]
        )
        object.__setattr__(self, "_cum", cum)

    def index(self, action):
        try:
            return self.actions.index(action)
        except ValueError:
            raise UnknownAction(f"no action {action!r}") from None

    def value(self, action, theta):
        """F_a(theta); exact partial-sum evaluation, right-continuous."""
        a = self.index(action)
        k = min(grid_floor(self.n, theta), self.n)
        return self._cum[k, a] / self.n

    def values(self, theta):
        """Vector of all F_a(theta)."""
        return self.at_index(min(grid_floor(self.n, theta), self.n))

    def at_index(self, k):
        """All F_a on [k/n, (k+1)/n); an index array gives one row each."""
        return self._cum[k] / self.n

    @property
    def atom_points(self):
        return np.arange(1, self.n + 1) / self.n

    def atom_masses(self):
        """(n, A) array of atom masses weights / n."""
        return self.weights / self.n

    def serialize(self, player):
        atoms = []
        for i, theta in enumerate(self.atom_points):
            for a, action in enumerate(self.actions):
                atoms.append(
                    {"theta": theta, "action": action,
                     "mass": self.weights[i, a] / self.n}
                )
        return {"player": player, "level": self.n, "atoms": atoms}


def build_finite(g, n):
    """Sample the assimilated payoffs of g at the level-n grid."""
    if n < 1:
        raise ValueError("n must be >= 1")
    grid = np.arange(1, n + 1) / n
    U = g.payoff(1, grid[:, None], grid[None, :])
    V = g.payoff(2, grid[:, None], grid[None, :])
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
        raise NonFinite("payoff tensor contains NaN/inf")
    return FiniteGame(n=n, actions1=g.actions1, actions2=g.actions2, U=U, V=V)


def lift(profile, player, actions=None):
    """Lift one side of a finite-game profile to a StepStrategy."""
    weights = profile.s if player == 1 else profile.t
    if actions is None:
        actions = tuple(f"a{k}" for k in range(weights.shape[1]))
    return StepStrategy(n=profile.n, actions=tuple(actions),
                        weights=np.array(weights, dtype=float))

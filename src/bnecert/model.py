"""Continuous-type Bayesian game: loading, validation, normalization.

A game is given by two finite action sets, one utility expression per
action pair and player, and a joint prior density over the unit square.
Loading auto-normalizes the prior, applies a uniform nonnegativity shift
to each player's utilities, folds the prior into the payoffs
(u = b * u_bar), and sanity-checks everything on a dense grid.

Declared type ranges [a, b] are rescaled affinely onto [0, 1]; the
constant Jacobian is absorbed by the prior normalization.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import expr as exprmod
from .errors import NegativePrior, NonFinite, ZeroMarginal
from .expr import Expr
from .quadrature import integrate, integrate2d

SHIFT_MARGIN = 1e-9


def _variables_of(e):
    if isinstance(e, exprmod.Var):
        return {e.name}
    if isinstance(e, exprmod.Neg):
        return _variables_of(e.arg)
    if isinstance(e, exprmod.BinOp):
        return _variables_of(e.left) | _variables_of(e.right)
    if isinstance(e, exprmod.Call):
        out = set()
        for a in e.args:
            out |= _variables_of(a)
        return out
    return set()


def _shift(table, t1, t2):
    """Nonnegativity shift of a utility table, checked finite at types
    t1 x t2 (one axis each)."""
    lo = math.inf
    for e in itertools.chain.from_iterable(table):
        vals = e.eval(t1[:, None], t2[None, :])
        bad = ~np.isfinite(vals)
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise NonFinite(f"utility {e} is not finite at ({t1[i]}, {t2[j]})")
        lo = min(lo, float(vals.min()))
    return max(0.0, -lo) + SHIFT_MARGIN


@dataclass(frozen=True)
class GameSpec:
    """Parsed but not yet validated game description."""

    actions1: tuple[str, ...]
    actions2: tuple[str, ...]
    u_raw: tuple[tuple[Expr, ...], ...]  # [x][y]
    v_raw: tuple[tuple[Expr, ...], ...]
    prior: Expr
    m1: Expr | None = None
    m2: Expr | None = None
    type_range1: tuple[float, float] = (0.0, 1.0)
    type_range2: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if len(set(self.actions1)) != len(self.actions1):
            raise ValueError("duplicate action labels for player 1")
        if len(set(self.actions2)) != len(self.actions2):
            raise ValueError("duplicate action labels for player 2")
        if not self.actions1 or not self.actions2:
            raise ValueError("each player needs at least one action")
        L, H = len(self.actions1), len(self.actions2)
        for name, table in (("u", self.u_raw), ("v", self.v_raw)):
            if len(table) != L or any(len(row) != H for row in table):
                raise ValueError(f"{name} must be a {L}x{H} expression table")
        for name, m in (("m1", self.m1), ("m2", self.m2)):
            var = "theta1" if name == "m1" else "theta2"
            if m is not None and not _variables_of(m) <= {var}:
                raise ValueError(f"{name} may only reference {var}")
        for name, rng in (("type_range1", self.type_range1),
                          ("type_range2", self.type_range2)):
            if not rng[1] > rng[0]:
                raise ValueError(f"{name} must be an increasing interval")

    @classmethod
    def from_dict(cls, d):
        def table(rows):
            return tuple(tuple(exprmod.parse(s) for s in row) for row in rows)

        return cls(
            actions1=tuple(d["actions1"]),
            actions2=tuple(d["actions2"]),
            u_raw=table(d["u"]),
            v_raw=table(d["v"]),
            prior=exprmod.parse(d["prior"]),
            m1=exprmod.parse(d["m1"]) if "m1" in d else None,
            m2=exprmod.parse(d["m2"]) if "m2" in d else None,
            type_range1=tuple(d.get("type_range1", (0.0, 1.0))),
            type_range2=tuple(d.get("type_range2", (0.0, 1.0))),
        )

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class InfiniteGame:
    """Validated, normalized continuous-type game over [0, 1]^2."""

    spec: GameSpec
    shift1: float
    shift2: float
    prior_norm: float

    @property
    def L(self):
        return len(self.spec.actions1)

    @property
    def H(self):
        return len(self.spec.actions2)

    @property
    def actions1(self):
        return self.spec.actions1

    @property
    def actions2(self):
        return self.spec.actions2

    def _map(self, theta1, theta2):
        a1, b1 = self.spec.type_range1
        a2, b2 = self.spec.type_range2
        return a1 + (b1 - a1) * theta1, a2 + (b2 - a2) * theta2

    def prior(self, theta1, theta2):
        """Normalized joint density at unit-square coordinates."""
        t1, t2 = self._map(theta1, theta2)
        return self.spec.prior.eval(t1, t2) / self.prior_norm

    def raw(self, player, theta1, theta2):
        """One player's utilities before the nonnegativity shift, at types
        that broadcast to some shape: an (L, H, *shape) array."""
        t1, t2 = self._map(theta1, theta2)
        table = self.spec.u_raw if player == 1 else self.spec.v_raw
        return np.array([[e.eval(t1, t2) for e in row] for row in table])

    def payoff(self, player, theta1, theta2):
        """Prior-assimilated payoffs b * (raw + shift): (L, H, *shape)."""
        shift = self.shift1 if player == 1 else self.shift2
        return self.prior(theta1, theta2) * (self.raw(player, theta1, theta2)
                                             + shift)

    def multiplier(self, player, theta):
        """m1(theta1) or m2(theta2) at unit-square types; None if absent."""
        m = self.spec.m1 if player == 1 else self.spec.m2
        if m is None:
            return None
        t1, t2 = self._map(theta, theta)
        return m.eval(t1, 0.0) if player == 1 else m.eval(0.0, t2)


def marginal(g, player, theta, quad_tol=1e-9):
    """Marginal density of one player's type under the normalized prior."""
    if player == 1:
        f = lambda t: g.prior(theta, t)
    else:
        f = lambda t: g.prior(t, theta)
    value, _ = integrate(f, 0.0, 1.0, quad_tol)
    return value


def conditional(g, player, theta_other, theta_own, quad_tol=1e-9):
    """Conditional density of the opponent's type given one's own."""
    denom = marginal(g, player, theta_own, quad_tol)
    if denom <= 0.0:
        raise ZeroMarginal(
            f"marginal of player {player} at theta={theta_own} is {denom}"
        )
    if player == 1:
        joint = g.prior(theta_own, theta_other)
    else:
        joint = g.prior(theta_other, theta_own)
    return joint / denom


def load_game(spec, grid_check=101):
    """Validate a GameSpec and build the normalized InfiniteGame.

    grid_check is the per-axis size of the validation grid (odd, >= 11).
    """
    if grid_check < 11 or grid_check % 2 == 0:
        raise ValueError("grid_check must be odd and >= 11")
    grid = np.linspace(0.0, 1.0, grid_check)
    a1, b1 = spec.type_range1
    a2, b2 = spec.type_range2
    g1 = a1 + (b1 - a1) * grid
    g2 = a2 + (b2 - a2) * grid

    # prior checks on the raw (unnormalized) density
    prior_vals = spec.prior.eval(g1[:, None], g2[None, :])
    if not np.all(np.isfinite(prior_vals)):
        raise NonFinite("prior evaluates to NaN/inf on the validation grid")
    if np.any(prior_vals < 0.0):
        idx = np.argwhere(prior_vals < 0.0)[0]
        raise NegativePrior(
            f"prior is negative at theta=({grid[idx[0]]}, {grid[idx[1]]})"
        )

    # normalization constant over the unit square (Jacobian absorbed)
    raw_prior = lambda t1, t2: spec.prior.eval(
        a1 + (b1 - a1) * t1, a2 + (b2 - a2) * t2
    )
    norm, _ = integrate2d(raw_prior, 1e-9)
    if not (math.isfinite(norm) and norm > 0.0):
        raise ZeroMarginal(f"prior integrates to {norm}; must be positive")

    game = InfiniteGame(
        spec=spec,
        shift1=_shift(spec.u_raw, g1, g2),
        shift2=_shift(spec.v_raw, g1, g2),
        prior_norm=norm,
    )

    # marginal positivity along every grid line
    for player, gridline in ((1, grid), (2, grid)):
        for theta in gridline:
            mv = marginal(game, player, theta, quad_tol=1e-7)
            if mv <= 0.0:
                raise ZeroMarginal(
                    f"marginal of player {player} at theta={theta} is {mv}"
                )
    return game


def load_game_file(path, grid_check=101):
    return load_game(GameSpec.from_file(path), grid_check=grid_check)

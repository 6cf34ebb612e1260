"""Continuous-type Bayesian game: loading, validation, normalization.

A game is given by two finite action sets, one utility expression per
action pair and player, and a joint prior density over the unit square.
Loading compiles the prior, every utility cell and the multipliers into
one expression Program, checks the prior and the utilities in one pass
over a dense grid, auto-normalizes the prior and folds it into the
payoffs (u = b * u_bar).  Every later evaluation of the game runs the
steps of that program which its outputs need, so a subexpression shared
by several cells is evaluated once.

Declared type ranges [a, b] are rescaled affinely onto [0, 1]; the
constant Jacobian is absorbed by the prior normalization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import expr as exprmod
from .discretize import check_count, check_player
from .errors import ExprSyntaxError, NegativePrior, NonFinite, ZeroMarginal
from .expr import Program
from .quadrature import integrate_many


def _variables_of(code):
    return {ins[1] for ins in code if ins[0] == "var"}


_ARRAY = (list, tuple)  # a JSON array, or a tuple in a spec built in code


def _strings(x):
    return isinstance(x, _ARRAY) and all(isinstance(s, str) for s in x)


def _finite(v):  # whether the number v converts to a finite float
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def _finite_pair(x):
    return isinstance(x, _ARRAY) and len(x) == 2 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and _finite(v) for v in x)


def _parse(text, where):
    """Parse one expression of a spec; a syntax error names where it is."""
    try:
        return exprmod.parse(text)
    except ExprSyntaxError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def _compile(spec):
    """One program over the prior, then u's cells and v's, row by row,
    then m1 and m2 when given."""
    codes, names = [spec.prior], ["prior"]
    for name, table in (("u", spec.u_raw), ("v", spec.v_raw)):
        for x, row in enumerate(table):
            for y, code in enumerate(row):
                codes.append(code)
                names.append(f"{name}[{x}][{y}]")
    if spec.m1 is not None:  # then m2 is too
        codes += [spec.m1, spec.m2]
        names += ["m1", "m2"]
    return Program(codes, names)


def _check_grid(g, t1, t2):
    """Check g's raw prior and utility cells at types t1 x t2 (one axis
    each) in one program pass; return the prior's largest value there.
    Raises the first error in this order: the prior's (a DomainError, or
    NonFinite, or NegativePrior naming the point); then each cell's, u's
    then v's, row by row (a DomainError, or NonFinite naming the point);
    then ZeroMarginal for a grid line with no positive prior value,
    player 1's lines first.
    """
    program, outputs = g.program, range(1 + 2 * g.L * g.H)
    values = program.stream(t1[:, None], t2[None, :], outputs)
    with np.errstate(all="ignore"):
        b = next(values)
        if not math.isfinite(b.max()):
            raise NonFinite("prior evaluates to NaN/inf on the "
                            "validation grid")
        if b.min() < 0.0:
            i, j = np.argwhere(b < 0.0)[0]
            raise NegativePrior(f"prior is negative at theta=({t1[i]}, "
                                f"{t2[j]})")
        for k, vals in zip(outputs[1:], values):
            if not np.isfinite(vals).all():
                i, j = np.argwhere(~np.isfinite(vals))[0]
                raise NonFinite(f"{program.names[k]}: utility is not "
                                f"finite at ({t1[i]}, {t2[j]})")
    for player, thetas, tops in ((1, t1, b.max(axis=1)),
                                 (2, t2, b.max(axis=0))):
        bad = np.flatnonzero(tops == 0.0)
        if bad.size:
            raise ZeroMarginal(f"marginal of player {player} at theta="
                               f"{thetas[bad[0]]} is 0.0")
    return b.max()


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Parsed but not yet validated game description: each expression is
    held as its postorder code (see expr.parse).  Specs compare by
    identity and print without their expressions, whose code is as long
    as their text."""

    actions1: tuple[str, ...]
    actions2: tuple[str, ...]
    u_raw: tuple[tuple[tuple, ...], ...] = field(repr=False)  # [x][y]
    v_raw: tuple[tuple[tuple, ...], ...] = field(repr=False)
    prior: tuple = field(repr=False)
    m1: tuple | None = field(default=None, repr=False)
    m2: tuple | None = field(default=None, repr=False)
    type_range1: tuple[float, float] = (0.0, 1.0)
    type_range2: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        for player, labels in ((1, self.actions1), (2, self.actions2)):
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate action labels for player {player}")
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
        if (self.m1 is None) != (self.m2 is None):
            given, missing = (("m1", "m2") if self.m2 is None
                              else ("m2", "m1"))
            raise ValueError(f"{given} is given without {missing}; the "
                             f"multipliers come as a pair")
        for name, r in (("type_range1", self.type_range1),
                        ("type_range2", self.type_range2)):
            if not (_finite_pair(r) and 0 < r[1] - r[0] < math.inf):
                raise ValueError(f"{name} must be an increasing interval "
                                 f"of finite width")

    @classmethod
    def from_dict(cls, d):
        """Spec from its JSON object; a missing, mistyped or unknown field
        raises a ValueError that names it."""
        if not isinstance(d, dict):
            raise ValueError("a game spec must be a JSON object")
        unknown = set(d) - {"actions1", "actions2", "u", "v", "prior", "m1",
                            "m2", "type_range1", "type_range2"}
        if unknown:
            raise ValueError("spec has unknown fields: " + ", ".join(
                map(repr, sorted(unknown, key=str))))

        def field(name, what, ok, default=None):
            if name not in d and default is None:
                raise ValueError(f"spec has no {name!r} field")
            value = d.get(name, default)
            if not ok(value):
                try:
                    shown = repr(value)
                except ValueError:  # an int past Python's digit limit
                    shown = "a number too long to print"
                raise ValueError(f"{name} must be {what}, got {shown}")
            return value

        def expr(name):
            return _parse(field(name, "an expression string",
                                lambda x: isinstance(x, str)), name)

        def table(name):
            rows = field(name, "a list of rows of expression strings",
                         lambda t: isinstance(t, _ARRAY)
                         and all(map(_strings, t)))
            return tuple(tuple(_parse(text, f"{name}[{x}][{y}]")
                               for y, text in enumerate(row))
                         for x, row in enumerate(rows))

        def type_range(name):
            return tuple(field(name, "two finite numbers", _finite_pair,
                               (0.0, 1.0)))

        return cls(
            actions1=tuple(field("actions1", "a list of strings", _strings)),
            actions2=tuple(field("actions2", "a list of strings", _strings)),
            u_raw=table("u"),
            v_raw=table("v"),
            prior=expr("prior"),
            m1=expr("m1") if "m1" in d else None,
            m2=expr("m2") if "m2" in d else None,
            type_range1=type_range("type_range1"),
            type_range2=type_range("type_range2"),
        )


@dataclass(frozen=True)
class InfiniteGame:
    """Validated, normalized continuous-type game over [0, 1]^2.

    program evaluates the prior (output 0), then u's cells and v's, row
    by row, then m1 and m2 when given; each accessor runs only the steps
    its outputs need.
    """

    spec: GameSpec
    prior_norm: float
    program: Program = field(repr=False, compare=False)

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

    def spec_types(self, theta1, theta2):
        """Unit-square types theta1, theta2 in the spec's coordinates."""
        a1, b1 = self.spec.type_range1
        a2, b2 = self.spec.type_range2
        return a1 + (b1 - a1) * theta1, a2 + (b2 - a2) * theta2

    def prior(self, theta1, theta2):
        """Normalized joint density at unit-square coordinates."""
        t1, t2 = self.spec_types(theta1, theta2)
        return self.program.run(t1, t2, (0,))[0] / self.prior_norm

    def tables(self, theta1, theta2, players=(1, 2), assimilated=True):
        """Each listed player's utilities at types that broadcast to some
        shape, an (L, H, *shape) view each of one buffer, from one program
        pass: the prior-assimilated payoffs b * raw, or with assimilated
        False the raw utilities."""
        size = self.L * self.H
        outputs = [0] if assimilated else []
        for player in players:
            check_player(player)
            start = 1 if player == 1 else 1 + size
            outputs.extend(range(start, start + size))
        t1, t2 = self.spec_types(theta1, theta2)
        shape = np.broadcast(t1, t2).shape
        # cell by cell into one buffer, so one cell is alive at a time
        raw = np.empty((len(players) * size, *shape))
        values = self.program.stream(t1, t2, outputs)
        if assimilated:
            with np.errstate(all="ignore"):
                b = next(values)
            b = b / self.prior_norm
        with np.errstate(all="ignore"):
            for i, value in enumerate(values):
                raw[i] = value
            if assimilated:  # b * raw, in place
                np.multiply(b, raw, out=raw)
        return list(raw.reshape(len(players), self.L, self.H, *shape))

    def payoff(self, player, theta1, theta2):
        """Prior-assimilated payoffs b * raw: (L, H, *shape)."""
        return self.tables(theta1, theta2, (player,))[0]

    def multiplier(self, player, theta):
        """m1(theta1) or m2(theta2) at unit-square types; None if absent."""
        check_player(player)
        if self.spec.m1 is None:
            return None
        t1, t2 = self.spec_types(theta, theta)
        args = (t1, 0.0) if player == 1 else (0.0, t2)
        return self.program.run(*args, (2 * self.L * self.H + player,))[0]


def marginal(g, player, theta, quad_tol=1e-9):
    """Marginal density of one player's type under the normalized prior;
    a 1-D array of types gives one density each, from one batched pass."""
    check_player(player)
    thetas = np.atleast_1d(theta)
    if player == 1:
        f = lambda t, k: g.prior(thetas[k], t)
    else:
        f = lambda t, k: g.prior(t, thetas[k])
    values, _ = integrate_many(f, thetas.size, quad_tol)
    return values if np.ndim(theta) else float(values[0])


def load_game(spec, grid_check=101):
    """Validate a GameSpec and build the normalized InfiniteGame.

    grid_check is the per-axis size of the validation grid (odd, >= 11).
    The grid pass's errors come before the normalization's.
    """
    check_count("grid_check", grid_check)
    if grid_check < 11 or grid_check % 2 == 0:
        raise ValueError("grid_check must be odd and >= 11")
    grid = np.linspace(0.0, 1.0, grid_check)
    # the norm stands in until the grid pass gives the prior's size
    game = InfiniteGame(spec=spec, prior_norm=1.0, program=_compile(spec))
    top = _check_grid(game, *game.spec_types(grid, grid))

    # normalization constant over the unit square (Jacobian absorbed), of
    # the prior over the power of two at or below its largest grid value,
    # which is exact and keeps the tolerances from under- or overflowing:
    # the marginal of player 1 to 1e-9 / 4 of that value, integrated to
    # 1e-9 / 2 of it
    game = replace(game, prior_norm=math.ldexp(1.0, math.frexp(top)[1] - 1))
    tol = 5e-10 * (top / game.prior_norm)
    f = lambda t, k: marginal(game, 1, t, tol / 2)
    norm = float(integrate_many(f, 1, tol)[0][0]) * game.prior_norm
    if not (math.isfinite(norm) and norm > 0.0):
        raise ZeroMarginal(f"prior integrates to {norm}; must be positive")
    return replace(game, prior_norm=norm)


def load_game_file(path):
    """load_game on the spec in the JSON file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # malformed JSON, or an over-long int
            raise ValueError(f"{path}: {exc}") from None
    return load_game(GameSpec.from_dict(doc))

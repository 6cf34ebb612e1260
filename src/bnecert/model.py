"""Continuous-type Bayesian game: loading, validation, normalization.

A GameSpec holds a game as written: two finite action sets, one utility
expression per action pair and player and a joint prior density over the
unit square, each as its text.  Loading parses them, with the
multipliers, into one expression Program, checks the prior and the
utilities in one pass over a dense grid, auto-normalizes the prior and
folds it into the payoffs (u = b * u_bar).  Every later evaluation of the
game runs the steps of that program which its outputs need, so a
subexpression shared by several cells is evaluated once.

Declared type ranges [a, b] are rescaled affinely onto [0, 1]; the
constant Jacobian is absorbed by the prior normalization.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .discretize import check_count, check_player
from .errors import ExprSyntaxError, NegativePrior, NonFinite, ZeroMarginal
from .expr import Program, parse
from .quadrature import integrate_many


_ARRAY = (list, tuple)  # a JSON array, or a tuple in a spec built in code


def _strings(x):
    return isinstance(x, _ARRAY) and all(isinstance(s, str) for s in x)


def _finite_pair(x):
    try:
        return isinstance(x, _ARRAY) and len(x) == 2 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v) for v in x)
    except OverflowError:  # an int too large for a float
        return False


_LABELS = "a list of strings", _strings
_TABLE = ("a list of rows of expression strings",
          lambda t: isinstance(t, _ARRAY) and all(map(_strings, t)))
_TEXT = "an expression string", lambda x: isinstance(x, str)
_RANGE = "two finite numbers", _finite_pair

# each GameSpec field's rule, in schema order: what its value must be, and
# whether a value is that
_RULES = {"actions1": _LABELS, "actions2": _LABELS, "u": _TABLE, "v": _TABLE,
          "prior": _TEXT, "m1": _TEXT, "m2": _TEXT, "type_range1": _RANGE,
          "type_range2": _RANGE}


def _shown(value, form=repr):  # value as an error message shows it
    try:
        return form(value)
    except ValueError:  # an int past Python's digit limit
        return "a number too long to print"


def _mistyped(name, value):
    return ValueError(f"{name} must be {_RULES[name][0]}, got {_shown(value)}")


def _tuples(x):
    """x with every list in it a tuple."""
    return tuple(map(_tuples, x)) if isinstance(x, _ARRAY) else x


def _compile(spec):
    """Parse the spec's expressions into one program: the prior, then u's
    cells and v's, row by row, then m1 and m2 when given.  A syntax error
    names its field, and so does a multiplier that reads the other
    player's type."""
    texts = [("prior", spec.prior)]
    for name, table in (("u", spec.u), ("v", spec.v)):
        texts += [(f"{name}[{x}][{y}]", text) for x, row in enumerate(table)
                  for y, text in enumerate(row)]
    if spec.m1 is not None:  # then m2 is too
        texts += [("m1", spec.m1), ("m2", spec.m2)]
    codes = []
    for where, text in texts:
        try:
            codes.append(parse(text))
        except ExprSyntaxError as exc:
            exc.args = (f"{where}: {exc}",)
            raise
        own = {"m1": "theta1", "m2": "theta2"}.get(where)
        if own and any(ins[0] == "var" and ins[1] != own for ins in codes[-1]):
            raise ValueError(f"{where} may only reference {own}")
    return Program(codes, [where for where, _ in texts])


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
    """A game as written: the JSON schema's fields, each expression as its
    text, which load_game parses.  A spec from a file, one built in code
    and a dataclasses.replace copy meet the same rules (_RULES, then the
    structural checks); lists are held as tuples and an absent multiplier
    is None.  Specs compare by identity and print without their
    expressions, which can be long."""

    actions1: tuple[str, ...]
    actions2: tuple[str, ...]
    u: tuple[tuple[str, ...], ...] = field(repr=False)  # [x][y]
    v: tuple[tuple[str, ...], ...] = field(repr=False)
    prior: str = field(repr=False)
    m1: str | None = field(default=None, repr=False)
    m2: str | None = field(default=None, repr=False)
    type_range1: tuple[float, float] = (0.0, 1.0)
    type_range2: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        for name, (_, ok) in _RULES.items():
            value = getattr(self, name)
            if not (ok(value) or value is None and name in ("m1", "m2")):
                raise _mistyped(name, value)
            object.__setattr__(self, name, _tuples(value))
        for player, labels in ((1, self.actions1), (2, self.actions2)):
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate action labels for player {player}")
        if not self.actions1 or not self.actions2:
            raise ValueError("each player needs at least one action")
        L, H = len(self.actions1), len(self.actions2)
        for name, table in (("u", self.u), ("v", self.v)):
            if len(table) != L or any(len(row) != H for row in table):
                raise ValueError(f"{name} must be a {L}x{H} expression table")
        if (self.m1 is None) != (self.m2 is None):
            given, missing = (("m1", "m2") if self.m2 is None
                              else ("m2", "m1"))
            raise ValueError(f"{given} is given without {missing}; the "
                             f"multipliers come as a pair")
        for name in ("type_range1", "type_range2"):
            a, b = map(float, getattr(self, name))
            if not 0 < b - a < math.inf:
                raise ValueError(f"{name} must be an increasing interval "
                                 f"of finite width")

    @classmethod
    def from_dict(cls, d):
        """Spec from its JSON object; a missing, mistyped or unknown field
        raises a ValueError that names it."""
        if not isinstance(d, dict):
            raise ValueError("a game spec must be a JSON object")
        unknown = set(d) - _RULES.keys()
        if unknown:
            raise ValueError("spec has unknown fields: " + ", ".join(
                map(_shown, sorted(unknown, key=lambda k: _shown(k, str)))))
        for f in fields(cls):
            if f.name not in d and f.default is MISSING:
                raise ValueError(f"spec has no {f.name!r} field")
            # JSON leaves an absent multiplier out: a null one is mistyped
            if f.default is None and f.name in d and d[f.name] is None:
                raise _mistyped(f.name, None)
        return cls(**d)


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
        return (a1 + (b1 - a1) * np.asarray(theta1, float),
                a2 + (b2 - a2) * np.asarray(theta2, float))

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
    """Parse and validate a GameSpec and build the normalized InfiniteGame.

    grid_check is the per-axis size of the validation grid (odd, >= 11).
    Syntax errors come first, then the grid pass's, then the normalization's.
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

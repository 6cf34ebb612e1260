"""Workloads, level ops, passes and in-memory tracing for the benchmark.

The unit of work is the level op: what `bnecert certify --level n` does
in process.  It calls the public functions in order: build_finite, then
solve_lp (with default_alphas) when check_prop1 finds the multiplier
condition, otherwise solve_fp (best iterate on NoConvergence, as
`driver.run` does), then lift and certify.  A pass runs, for each game, its
setup (spec parse, load_game, check_prop1), then its level ladder, then
convergence_diagnostic over the levels that solved.

Spans are recorded by this file around each call into a layer; the
program itself is not instrumented.  Between the items of a pass (a
game's setup, a level op, a game's diagnostic) the pass times reference(),
a fixed piece of work that tracks the machine's speed.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import bnecert as bc
from bnecert.errors import NoConvergence

import games

EPSILON = 1e-3
FP_MAX_ITERS = 2000
LP_GAP_LIMIT = 1e-8
DEMO_DIR = Path(__file__).resolve().parent.parent / "demos" / "specs"
DEMO_SPECS = ("zero_sum_match", "matching_pennies", "linear_prior_multipliers")

# Parts of a level op that are timed one by one; lift is timed with
# certify, the only stage that uses its result.
OP_PARTS = ("build", "solve", "certify")

# Layer spans, in the order a level op enters them.  Their per-pass sums
# are per-layer metrics; the rest of a pass is bench.glue_s.
SPANS = (
    "model.load_s",
    "solver.prop1_s",
    "discretize.build_s",
    "solver.lp_s",
    "solver.fp_s",
    "discretize.lift_s",
    "certify.s",
    "driver.diagnostic_s",
)


@dataclass(frozen=True)
class GameInput:
    name: str
    spec: dict
    levels: tuple[int, ...]


def _generated(seed, family_shapes, levels):
    return [GameInput(f"{family}-{L}x{H}-{index}",
                      games.game_spec(seed, index, family, L, H), levels)
            for index, (family, L, H) in enumerate(family_shapes)]


def _demo(name, levels):
    with open(DEMO_DIR / f"{name}.json", encoding="utf-8") as fh:
        return GameInput(name, json.load(fh), levels)


def lp_ladder(seed):
    """Demo specs at n=40..56 plus two small constant-sum games: LP-bound.

    The generated games stop at n=8: at n=16 the simplex spends from 0.1 s
    to over a minute on them before it fails, which on some seeds would
    put a run past its time limit.  There are two of them, the smallest
    shapes, because their load_game setup would otherwise take a third of
    a pass from the simplex.
    """
    ladder = (40, 48, 56)
    shapes = [("constant_sum", 2, 2), ("constant_sum", 2, 3)]
    return ([_demo(name, ladder) for name in DEMO_SPECS]
            + _generated(seed, shapes, (8,)))


def fp_fine(seed):
    """Two general-sum games on fine grids: expression-evaluation bound."""
    shapes = [("general_sum", 2, 2), ("general_sum", 2, 3)]
    return _generated(seed, shapes, (40, 56))


def many_small(seed):
    """Six small games on coarse grids: setup and per-call bound.

    Two general-sum games per constant-sum one: the 2000-iteration fp ops
    then hold the median level op, which with equal halves would fall in
    the gap between them and the far cheaper lp ops.
    """
    shapes = [("constant_sum", 2, 2), ("general_sum", 2, 2),
              ("general_sum", 2, 3), ("constant_sum", 3, 3),
              ("general_sum", 2, 3), ("general_sum", 3, 3)]
    return _generated(seed, shapes, (2, 4, 8))


WORKLOADS = {
    "lp-ladder": lp_ladder,
    "fp-fine": fp_fine,
    "many-small": many_small,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None


class Tracer:
    """Records spans in memory; a disabled tracer records nothing."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent,
                               self.op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()


@dataclass
class OpRecord:
    game: str
    n: int
    backend: str
    wall_s: float = math.nan
    error: str | None = None
    error_stage: str | None = None
    check: str | None = None
    entries: int = 0
    iterations: int | None = None
    converged: bool | None = None
    finite_gap1: float | None = None
    finite_gap2: float | None = None
    certificate: dict | None = None

    @property
    def failed(self):
        return self.error is not None or self.check is not None

    def fingerprint(self):
        cert = self.certificate or {}
        return {
            "game": self.game, "n": self.n, "backend": self.backend,
            "iterations": self.iterations,
            "finite_gap1": self.finite_gap1, "finite_gap2": self.finite_gap2,
            "gap1": cert.get("gap1"), "gap2": cert.get("gap2"),
            "quad_error1": cert.get("quad_error1"),
            "quad_error2": cert.get("quad_error2"),
            "certified": cert.get("certified"),
            "error": self.error, "error_stage": self.error_stage,
            "check": self.check,
        }


def check_outputs(rec, epsilon):
    """Reason the outputs of a completed op are wrong, or None.

    The certified-flag check repeats the formula certify uses, so it only
    guards against the flag and the fields drifting apart.
    """
    cert = rec.certificate
    if cert["level"] != rec.n or cert["epsilon_requested"] != epsilon:
        return "certificate is for another level or epsilon"
    numbers = [rec.finite_gap1, rec.finite_gap2, cert["gap1"], cert["gap2"],
               cert["quad_error1"], cert["quad_error2"], cert["value1"],
               cert["value2"]]
    if not all(math.isfinite(x) for x in numbers):
        return "non-finite number in the result"
    worst_gap = max(rec.finite_gap1, rec.finite_gap2)
    if rec.backend == "lp" and worst_gap > LP_GAP_LIMIT:
        return f"lp finite gap above {LP_GAP_LIMIT}"
    expected = (cert["gap1"] + cert["quad_error1"] <= epsilon
                and cert["gap2"] + cert["quad_error2"] <= epsilon)
    if cert["certified"] != expected:
        return "certified flag disagrees with gaps and errors"
    return None


def level_op(g, prop1, name, n, tracer, solved, lap=None):
    """One level op.  Never raises: failures are recorded on the op.

    The op is timed in OP_PARTS.  After each part, `lap(part, seconds)` is
    called, for a part that a failure skipped too; the time `lap` takes
    is not the op's.
    """
    backend = "lp" if prop1.linearizable else "fp"
    rec = OpRecord(game=name, n=n, backend=backend,
                   entries=2 * g.L * g.H * n * n)
    tracer.op = f"{name}@{n}"
    part_s = {}
    start = time.perf_counter()

    def done(part):
        nonlocal start
        part_s[part] = time.perf_counter() - start
        if lap is not None:
            lap(part, part_s[part])
        start = time.perf_counter()

    stage = "build"
    try:
        with tracer.span("discretize.build_s"):
            fg = bc.build_finite(g, n)
        done("build")
        stage = "solve"
        if backend == "lp":
            with tracer.span("solver.lp_s"):
                alpha1, alpha2 = bc.default_alphas(fg, g, prop1)
                result = bc.solve_lp(fg, alpha1, alpha2)
        else:
            with tracer.span("solver.fp_s"):
                try:
                    result = bc.solve_fp(fg, max_iters=FP_MAX_ITERS,
                                         target_gap=EPSILON / 10.0)
                    rec.converged = True
                except NoConvergence as exc:
                    result = exc.result
                    rec.converged = False
        rec.iterations = result.iterations
        rec.finite_gap1 = result.finite_gap1
        rec.finite_gap2 = result.finite_gap2
        done("solve")
        stage = "lift"
        with tracer.span("discretize.lift_s"):
            F = bc.lift(result.profile, 1, actions=g.actions1)
            G = bc.lift(result.profile, 2, actions=g.actions2)
        stage = "certify"
        with tracer.span("certify.s"):
            cert = bc.certify(g, F, G, EPSILON)
        done("certify")
        rec.certificate = cert.to_dict()
        rec.check = check_outputs(rec, EPSILON)
        if rec.check is None:
            solved.append((n, F, G))
    except Exception as exc:  # every failure is recorded against its op
        rec.error = f"{type(exc).__name__}: {exc}"
        rec.error_stage = stage
        for part in OP_PARTS[len(part_s):]:
            done(part)
    rec.wall_s = sum(part_s.values())
    tracer.op = None
    return rec


class _Node:
    """Node of a small expression tree, evaluated by walking it."""

    __slots__ = ("op", "a", "b")

    def __init__(self, op, a=None, b=None):
        self.op = op
        self.a = a
        self.b = b

    def eval(self, x, y):
        op = self.op
        if op == "x":
            return x
        if op == "y":
            return y
        if op == "+":
            return self.a.eval(x, y) + self.b.eval(x, y)
        if op == "*":
            return self.a.eval(x, y) * self.b.eval(x, y)
        if op == "sqrt":
            return math.sqrt(self.a.eval(x, y))
        if op == "min":
            return min(self.a.eval(x, y), self.b.eval(x, y))
        return self.a  # a constant


_X, _Y = _Node("x"), _Node("y")
# 0.5*sqrt(x) + min(x*y, y + 0.25)
_TREE = _Node("+", _Node("*", _Node("c", 0.5), _Node("sqrt", _X)),
              _Node("min", _Node("*", _X, _Y),
                    _Node("+", _Y, _Node("c", 0.25))))


def reference():
    """A fixed piece of work that calls no bnecert code: walking a small
    expression tree over a grid, the kind of scalar Python work Expr.eval
    does.  Timed between the items of a pass, it tracks the machine's
    speed; a tight arithmetic loop tracked the program's code worse, as
    it slows more than the program when the machine is busy."""
    return sum(_TREE.eval(i / 900.0, j / 4.0)
               for i in range(900) for j in range(4))


@dataclass
class PassResult:
    wall_s: float
    ops: list[OpRecord] = field(default_factory=list)
    # (kind, op, seconds) of each game's setup, the OP_PARTS of its level
    # ops and its diagnostic, in the order the pass ran them; kind is
    # "setup", "diagnostic" or the part's name, and op the index in ops of
    # the level op a part belongs to, else None
    items: list[tuple[str, int | None, float]] = field(default_factory=list)
    # times of reference(), before the first item and after each item
    reference_s: list[float] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)

    def time_reference(self):
        t0 = time.perf_counter()
        reference()
        self.reference_s.append(time.perf_counter() - t0)

    def add(self, kind, seconds, op=None):
        self.items.append((kind, op, seconds))
        self.time_reference()


def run_pass(inputs, traced):
    """Run every game of a workload once; never raises.  The reference
    runs between items and between the parts of a level op, outside every
    item time and span."""
    tracer = Tracer(traced)
    result = PassResult(wall_s=math.nan)
    start = time.perf_counter()
    result.time_reference()
    for game in inputs:
        tracer.op = game.name
        t0 = time.perf_counter()
        try:
            with tracer.span("model.load_s"):
                g = bc.load_game(bc.GameSpec.from_dict(game.spec))
            with tracer.span("solver.prop1_s"):
                prop1 = bc.check_prop1(g)
        except Exception as exc:  # the game's level ops all fail
            result.add("setup", time.perf_counter() - t0)
            for n in game.levels:
                for part in OP_PARTS:
                    result.add(part, 0.0, op=len(result.ops))
                result.ops.append(
                    OpRecord(game=game.name, n=n, backend="none", wall_s=0.0,
                             error=f"{type(exc).__name__}: {exc}",
                             error_stage="setup"))
            result.add("diagnostic", 0.0)
            continue
        result.add("setup", time.perf_counter() - t0)
        solved = []
        for n in game.levels:
            index = len(result.ops)
            result.ops.append(level_op(
                g, prop1, game.name, n, tracer, solved,
                lap=lambda part, t: result.add(part, t, op=index)))
        tracer.op = game.name
        t0 = time.perf_counter()
        with tracer.span("driver.diagnostic_s"):
            bc.convergence_diagnostic(solved)
        result.add("diagnostic", time.perf_counter() - t0)
    result.wall_s = time.perf_counter() - start
    result.spans = tracer.spans
    return result


def warm_up():
    """One lp and one fp level op on tiny games, so first-call costs stay
    out of the timed passes."""
    for family in games.FAMILIES:
        spec = games.game_spec(0, 0, family, 2, 2)
        g = bc.load_game(bc.GameSpec.from_dict(spec), grid_check=11)
        level_op(g, bc.check_prop1(g), "warm-up", 2, Tracer(False), [])

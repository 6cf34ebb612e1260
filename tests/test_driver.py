"""Certification loop: schedules, reports, diagnostics, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnecert as bc
from bnecert import cli, solver
from bnecert.discretize import StepStrategy
from bnecert.driver import schedule_levels, sup_distance

from conftest import (
    SINGULAR_DUALS_LP,
    from_start,
    generated_constant_sum_game,
    make_game,
    random_poly_game,
    solve_default_lp,
    strip_wall_time,
    zero_sum_match_game,
)


def test_schedule_doubling():
    assert schedule_levels(32) == [1, 2, 4, 8, 16, 32]
    # the cap is the last level even when it is not a power of two
    assert schedule_levels(20) == [1, 2, 4, 8, 16, 20]
    assert schedule_levels(3) == [1, 2, 3]
    assert schedule_levels(1) == [1]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6))
def test_schedule_doubles_up_to_the_cap(max_level):
    levels = schedule_levels(max_level)
    assert levels[0] == 1 and levels[-1] == max_level
    for a, b in zip(levels, levels[1:]):
        assert a & (a - 1) == 0  # a power of two
        assert a < b <= 2 * a  # so no power of two below the cap is skipped


def test_run_visits_the_schedule_up_to_the_first_certified_level():
    g = zero_sum_match_game()
    # certified at 4 of [1, 2, 4, 8, 16, 20]; exhausted at 20 and at 3
    for epsilon, max_level, certified_level in ((0.05, 20, 4),
                                                (1e-6, 20, None),
                                                (0.05, 3, None)):
        report = bc.run(g, bc.RunConfig(epsilon=epsilon, max_level=max_level))
        assert report.certified_level == certified_level
        levels = schedule_levels(max_level)
        stop = levels.index(certified_level or max_level)
        assert [r["n"] for r in report.levels] == levels[:stop + 1]


def test_run_config_validation():
    with pytest.raises(ValueError):
        bc.RunConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        bc.RunConfig(epsilon=0.1, max_level=0)
    for schedule in ("geometric", "linear"):
        with pytest.raises(ValueError, match="levels always double"):
            bc.RunConfig(epsilon=0.1, schedule=schedule)
    for fields in ({"epsilon": float("nan")}, {"epsilon": float("inf")},
                   {"epsilon": -0.1}, {"epsilon": 0.1, "max_level": -1}):
        with pytest.raises(ValueError):
            bc.RunConfig(**fields)


@pytest.mark.parametrize("fields, message", [
    ({"max_level": 2.0}, "max_level must be an integer, got 2.0"),
    ({"max_level": 0.5}, "max_level must be an integer, got 0.5"),
    ({"max_level": None}, "max_level must be an integer, got None"),
    ({"max_level": 2.5}, "max_level must be an integer, got 2.5"),
    ({"max_level": 2.5, "schedule": "doubling"},
     "max_level must be an integer, got 2.5"),
    ({"max_level": True}, "max_level must be an integer, got True"),
    ({"max_level": "2"}, "max_level must be an integer, got '2'"),
])
def test_run_config_rejects_counts_that_are_not_integers(fields, message):
    # before, these passed validation and run then raised an untyped
    # TypeError, or (doubling) ran silently
    with pytest.raises(ValueError) as exc:
        bc.RunConfig(epsilon=0.01, **fields)
    assert str(exc.value) == message


def test_run_config_accepts_numpy_integer_counts():
    # general-sum, and neither player's payoff depends on their own
    # action, so fp's first iterate is an equilibrium
    g = make_game([["1", "2"], ["1", "2"]], [["1", "1"], ["2", "2"]])
    for max_level in (np.int64(2), np.int32(2)):
        cfg = bc.RunConfig(epsilon=0.01, max_level=max_level)
        assert type(cfg.max_level) is int
        report = bc.run(g, cfg)
        assert report.status == "certified"
        assert report.levels[0]["backend"] == "fp"
        assert report.levels[0]["solver_iterations"] == 1
        # stored as an int, so the report serializes
        assert json.loads(report.to_json())["config"]["max_level"] == 2


def test_run_config_stores_a_numpy_epsilon_as_a_float():
    # before, a float32 epsilon ran every level and then to_json raised
    # TypeError: Object of type float32 is not JSON serializable
    g = make_game([["1", "2"], ["1", "2"]], [["1", "1"], ["2", "2"]])
    for epsilon in (np.float32(0.05), np.float64(0.05)):
        cfg = bc.RunConfig(epsilon=epsilon, max_level=2)
        assert type(cfg.epsilon) is float
        assert cfg.epsilon == float(epsilon)
        report = bc.run(g, cfg)
        assert report.status == "certified"
        doc = json.loads(report.to_json())
        assert doc["config"]["epsilon"] == float(epsilon)


@pytest.mark.parametrize("epsilon", [True, np.True_, "0.1", None])
def test_epsilon_that_is_not_a_real_number_is_rejected(epsilon):
    # before, True passed as epsilon = 1.0, in RunConfig and in certify
    with pytest.raises(ValueError, match="epsilon must be positive"):
        bc.RunConfig(epsilon=epsilon)
    g = zero_sum_match_game()
    profile = bc.BehavioralProfile(np.array([[1.0, 0.0]]),
                                   np.array([[1.0, 0.0]]))
    F = bc.lift(profile, 1, g.actions1)
    G = bc.lift(profile, 2, g.actions2)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        bc.certify(g, F, G, epsilon)


@pytest.mark.parametrize("epsilon", [5e-324, 1e-322])
def test_an_epsilon_whose_hundredth_underflows_is_rejected(epsilon):
    # before, run certified each level to a tolerance of 0, which the
    # quadrature rejects, and reported "exhausted"
    with pytest.raises(ValueError, match="epsilon / 100, the quadrature"):
        bc.RunConfig(epsilon=epsilon)


@pytest.mark.parametrize("epsilon", [10 ** 400, -10 ** 400, 10 ** 5000,
                                     -10 ** 5000],
                         ids=["1e400", "-1e400", "1e5000", "-1e5000"])
def test_an_int_epsilon_too_large_for_a_float_is_rejected(epsilon):
    # before, epsilon / 100 raised OverflowError; past int's 4300-digit str
    # limit, formatting the message raised Python's own ValueError
    with pytest.raises(ValueError,
                       match="^epsilon must be positive and finite"):
        bc.RunConfig(epsilon=epsilon)


def test_run_config_has_no_backend():
    # the game picks its solver, epsilon sets the quadrature tolerance and
    # fp's budget is fixed, so there is nothing else to set
    assert [f.name for f in dataclasses.fields(bc.RunConfig)] == [
        "epsilon", "max_level", "schedule"]
    for removed in ({"backend": "fp"}, {"quad_tol": 1e-7},
                    {"fp_max_iters": 50}):
        with pytest.raises(TypeError):
            bc.RunConfig(epsilon=0.1, **removed)


@st.composite
def games_of_each_kind(draw):
    """(kind, spec) of a game with 1 to 3 actions per player: constant-sum
    with u + v = 0.5, 1e8 or 1e10, general-sum, or one whose v is
    -(m2/m1) u with multipliers m1, m2 in the spec.  A poisoned game's
    payoffs take the log of 0 at the level-3 type 1/3, which no
    validation grid meets, so level 3 fails."""
    kind = draw(st.sampled_from(["constant", "general", "multipliers"]))
    poison = " + 0*log(abs(theta1 - 1/3))" * draw(st.booleans())
    L, H = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def table():
        def cell():
            a, b, c = (draw(st.integers(-9, 9)) / 8 for _ in range(3))
            return f"{a} + {b}*theta1 + {c}*theta1*theta2{poison}"
        return [[cell() for _ in range(H)] for _ in range(L)]

    u, extra = table(), {}
    if kind == "constant":
        total = draw(st.sampled_from([0.5, 1e8, 1e10]))
        v = [[f"{total!r} - ({e})" for e in row] for row in u]
    elif kind == "general":
        v = table()
    else:
        extra = {"m1": f"1 + {draw(st.integers(0, 3))}*theta1",
                 "m2": f"1 + {draw(st.integers(0, 3))}*theta2"}
        v = [[f"-({extra['m2']})*({e})/({extra['m1']})" for e in row]
             for row in u]
    return kind, {"actions1": [f"x{i + 1}" for i in range(L)],
                  "actions2": [f"y{j + 1}" for j in range(H)],
                  "u": u, "v": v, "prior": "1", **extra}


@settings(max_examples=60, deadline=None)
@given(games_of_each_kind())
def test_backend_follows_the_game(drawn):
    # a constant of 1e8 or more in v used to read as general-sum, since
    # evaluating v rounds by more than 1e-9 of |u|
    kind, doc = drawn
    g = bc.load_game(bc.GameSpec.from_dict(doc), grid_check=11)
    prop1 = bc.check_prop1(g)
    if kind == "constant":
        assert prop1.kind == "zero_sum"
    elif kind == "multipliers":
        assert prop1.linearizable
    want = "lp" if prop1.linearizable else "fp"
    report = bc.run(g, bc.RunConfig(epsilon=1e-9, max_level=3))
    # every level, failed or not, names the solver the game picks
    assert report.levels
    assert [r["backend"] for r in report.levels] == [want] * len(report.levels)
    for record in report.levels:
        if want == "lp" and record["error"] is None:
            fg = bc.build_finite(g, record["n"])
            scale = max(np.abs(fg.U).max(), np.abs(fg.V).max())
            for gap in (record["finite_gap1"], record["finite_gap2"]):
                assert abs(gap) <= 1e-9 * scale, (record["n"], gap, scale)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "game.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["solve", path, "--level", "1"]) == 0
    assert json.loads(out.getvalue())["backend"] == want


def test_constant_game_certified_at_level_one():
    g = make_game([["1", "1"], ["1", "1"]], [["1", "1"], ["1", "1"]])
    report = bc.run(g, bc.RunConfig(epsilon=0.01))
    assert report.status == "certified"
    assert report.certified_level == 1
    assert len(report.levels) == 1
    assert report.levels[0]["certificate"]["certified"] is True
    assert report.strategies["player1"]["level"] == 1


def test_a_constant_in_the_sum_does_not_change_the_certified_level():
    # with u + v = 1e8, check_prop1 read the game as general-sum: fp
    # missed its target at every level and the run ended exhausted
    u = [["1 + 0.3*theta1", "0.2*theta2"], ["0.1", "1 - 0.2*theta1*theta2"]]
    cfg = bc.RunConfig(epsilon=1e-3, max_level=64)
    reports = [bc.run(make_game(u, [[f"{total!r} - ({e})" for e in row]
                                    for row in u]), cfg)
               for total in (0.0, 1e8)]
    for report in reports:
        assert report.status == "certified"
        assert [r["backend"] for r in report.levels] == ["lp"] * 5
    assert reports[0].certified_level == reports[1].certified_level == 16


def test_zero_sum_certified_within_the_cap():
    g = zero_sum_match_game()
    cfg = bc.RunConfig(epsilon=0.05, max_level=8)
    report = bc.run(g, cfg)
    assert report.status == "certified"
    assert report.certified_level is not None
    assert report.certified_level <= 8
    assert report.levels[-1]["backend"] == "lp"
    # run never visits more levels than the schedule allows
    assert len(report.levels) <= 8


def test_unreachable_epsilon_exhausts():
    rng = np.random.default_rng(4)
    # decreasing-in-own-type utilities keep the deviation gaps positive,
    # so a 1e-9 tolerance is genuinely unreachable at low levels
    g = random_poly_game(rng, decreasing=True)
    cfg = bc.RunConfig(epsilon=1e-9, max_level=2)
    report = bc.run(g, cfg)
    assert report.status == "exhausted"
    assert report.certified_level is None
    assert len(report.levels) == 2
    for record in report.levels:
        assert record["certificate"]["certified"] is False
        assert np.isfinite(record["certificate"]["gap1"])
    assert report.strategies is not None  # best attempt still reported


def test_all_levels_failed():
    # payoffs of 1.5e308 overflow: fp solves the game (it is not
    # constant-sum), certify's Simpson sums overflow at levels 1 and 2 and
    # fp's gaps at level 3, so every level errors out; the report still
    # says why, level by level
    u = [["1.5e308*theta1", "0"], ["0", "1.5e308*theta2"]]
    v = [["0", "1.5e308*theta2"], ["1.5e308*theta1", "0"]]
    report = bc.run(make_game(u, v), bc.RunConfig(epsilon=0.5, max_level=3))
    assert report.status == "failed"
    assert report.certified_level is None
    assert report.strategies is None
    assert report.diagnostics == [] and report.level_strategies == []
    assert [r["backend"] for r in report.levels] == ["fp"] * 3
    assert {r["n"]: r["error"] for r in report.levels} == {
        1: "NonFinite: Simpson estimates on [0.0, 1.0] of integrand 0 "
           "are not finite",
        2: "NonFinite: Simpson estimates on [0.0, 0.5] of integrand 0 "
           "are not finite",
        3: "NonFinite: fictitious play gap is not finite at iteration 1",
    }
    for record in report.levels:
        assert "certificate" not in record
    assert report.to_dict()["status"] == "failed"


def test_sup_distance_identical_and_refined():
    pure1 = bc.BehavioralProfile(np.array([[1.0, 0.0]]),
                                 np.array([[1.0, 0.0]]))
    pure2 = bc.BehavioralProfile(np.tile([1.0, 0.0], (2, 1)),
                                 np.tile([1.0, 0.0], (2, 1)))
    F1 = bc.lift(pure1, 1, ("x1", "x2"))
    F2 = bc.lift(pure2, 1, ("x1", "x2"))
    assert sup_distance(F1, F1) == 0.0
    assert sup_distance(F1, F2) == pytest.approx(0.5, abs=1e-12)


def grid_sup_distance(A, B, points=1001):
    """Oracle: max of |F_A - F_B| sampled on a uniform theta grid."""
    return max(float(np.max(np.abs(A.values(t) - B.values(t))))
               for t in np.linspace(0.0, 1.0, points))


def test_sup_distance_sees_steps_between_grid_points():
    # the CDFs differ only on [1/3000, 2/3000), which holds no point of
    # a 1001-point grid
    n = 3000
    wa = np.tile([1.0, 0.0], (n, 1))
    wb = wa.copy()
    wa[1] = wb[0] = [0.0, 1.0]
    A = StepStrategy(actions=("x1", "x2"), weights=wa)
    B = StepStrategy(actions=("x1", "x2"), weights=wb)
    assert sup_distance(A, B) == pytest.approx(1.0 / n, abs=1e-15)
    assert grid_sup_distance(A, B) == 0.0


@st.composite
def step_strategies(draw):
    n = draw(st.integers(1, 32))
    raw = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=2,
                                 max_size=2), min_size=n, max_size=n))
    w = np.array(raw) + 1e-3
    return StepStrategy(actions=("x1", "x2"),
                        weights=w / w.sum(axis=1, keepdims=True))


@settings(max_examples=60, deadline=None)
@given(step_strategies(), step_strategies())
def test_sup_distance_matches_dense_grid_up_to_level_32(A, B):
    # for n <= 32 every piece of the union grid is wider than 1/1000,
    # so the 1001-point grid samples each piece at least once
    assert sup_distance(A, B) == grid_sup_distance(A, B)


def test_run_records_simplex_failure_against_its_level(monkeypatch):
    real_simplex = solver.simplex
    calls = []

    def singular_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            return from_start(real_simplex, *SINGULAR_DUALS_LP)
        return real_simplex(*args, **kwargs)

    monkeypatch.setattr("bnecert.solver.simplex", singular_once)
    g = zero_sum_match_game()
    report = bc.run(g, bc.RunConfig(epsilon=0.05, max_level=4))
    first = report.levels[0]
    assert first["n"] == 1
    assert first["error"].startswith("SimplexStall: singular basis")
    assert all(r["error"] is None for r in report.levels[1:])
    assert len(report.levels) >= 2


def test_run_records_fp_overflow_against_its_level():
    # player 1's first action earns 2.9e307 against anything: summed over
    # the n opponent types, its action values overflow from n = 7 on, while
    # the quadrature in certify (at most 6x the payoff) stays finite.
    # Player 2's y1 pays 1/2 - theta2: its certificate gap is 0.0625 or
    # more at levels 1, 2 and 4, so no level certifies and ends the run
    g = make_game([["2.9e307", "2.9e307"], ["0", "0"]],
                  [["0.5 - theta2", "0"], ["0", "1"]])
    report = bc.run(g, bc.RunConfig(epsilon=1e-3, max_level=16))
    assert report.status == "exhausted"
    errors = {r["n"]: r["error"] for r in report.levels}
    assert errors == {
        1: None, 2: None, 4: None,
        8: "NonFinite: fictitious play gap is not finite at iteration 1",
        16: "NonFinite: fictitious play gap is not finite at iteration 1",
    }


def test_run_records_lp_overflow_against_its_level():
    """Constant-sum games whose u cells are scaled by 5e307: the level
    payoffs, the LP's action values or certify's quadrature overflow.
    run catches only typed errors, so under warnings-as-errors each level
    either solves, with finite gaps, or records one; no RuntimeWarning
    leaves it."""
    for seed in (1, 2, 3):
        for size in (2, 3):
            g = generated_constant_sum_game(seed, size, size, scale="5e+307")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = bc.run(g, bc.RunConfig(epsilon=0.1, max_level=8))
            assert report.levels
            for record in report.levels:
                if record["error"] is None:
                    assert math.isfinite(record["finite_gap1"])
                    assert math.isfinite(record["finite_gap2"])


def test_run_records_quadrature_overflow_against_its_level():
    # player 1's x1 earns 4e307 against y2, which player 2 plays above
    # theta2 = 0.7: at level 1 every type plays y2 and certify's Simpson
    # sums (6x the payoff) overflow; from level 2 on half the types do.
    # Below 0.7 player 2's y1 pays 0.7 - theta2: its certificate gap is
    # 0.08 or more at levels 2 and 4, so neither certifies and ends the run
    g = make_game([["0", "4e307"], ["0", "0"]],
                  [["0.7 - theta2", "0"], ["0.7 - theta2", "0"]])
    report = bc.run(g, bc.RunConfig(epsilon=1e-3, max_level=4))
    errors = {r["n"]: r["error"] for r in report.levels}
    assert errors == {
        1: "NonFinite: Simpson estimates on [0.0, 1.0] of integrand 0 "
           "are not finite",
        2: None, 4: None,
    }


def test_convergence_diagnostic_structure():
    g = zero_sum_match_game()
    cfg = bc.RunConfig(epsilon=1e-6, max_level=4)
    report = bc.run(g, cfg)  # epsilon far too small: all levels solved
    assert report.status == "exhausted"
    solved = [r for r in report.levels if r.get("error") is None]
    assert len(report.diagnostics) == len(solved) - 1
    for entry in report.diagnostics:
        assert entry["level_a"] < entry["level_b"]
        assert 0.0 <= entry["sup_distance1"] <= 1.0
        assert 0.0 <= entry["sup_distance2"] <= 1.0


def test_convergence_diagnostic_levels_8_16_32():
    # weak-convergence proxy on a smooth zero-sum game; logged, not
    # asserted -- convergence is only guaranteed along a subsequence
    g = zero_sum_match_game()
    strategies = []
    for n in (8, 16, 32):
        res = solve_default_lp(bc.build_finite(g, n), g)
        strategies.append((n, bc.lift(res.profile, 1, g.actions1),
                           bc.lift(res.profile, 2, g.actions2)))
    table = bc.convergence_diagnostic(strategies)
    assert [e["level_a"] for e in table] == [8, 16]
    for entry in table:
        assert np.isfinite(entry["sup_distance1"])


def test_report_determinism():
    g = zero_sum_match_game()
    cfg = bc.RunConfig(epsilon=0.05, max_level=8)
    a = strip_wall_time(bc.run(g, cfg).to_dict())
    b = strip_wall_time(bc.run(g, cfg).to_dict())
    import json
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_serialization_round_trip():
    import json
    g = zero_sum_match_game()
    report = bc.run(g, bc.RunConfig(epsilon=0.05, max_level=4))
    doc = json.loads(report.to_json())
    assert doc["status"] == "certified"
    assert set(doc["config"]) == {"epsilon", "max_level", "schedule"}
    atoms = doc["strategies"]["player1"]["atoms"]
    assert sum(a["mass"] for a in atoms) == pytest.approx(1.0, abs=1e-9)

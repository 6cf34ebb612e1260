"""Finite-game solvers: best responses, gaps, LP, fictitious play, and
the enumeration oracle they are checked against."""

import collections
import itertools
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnecert as bc
from bnecert.discretize import FiniteGame, level_grid
from bnecert.errors import (
    BnecertError,
    DomainError,
    Infeasible,
    NoConvergence,
    NonFinite,
    Prop1Violation,
    SimplexStall,
    UnboundedObjective,
)
from bnecert.prop1 import check_prop1, default_alphas
from bnecert.solver import (
    _FP_BLOCK,
    _pivot,
    _solve_block,
    action_values,
    ck_objective,
    finite_gap,
    simplex,
    solve_fp,
    solve_lp,
)

from conftest import (
    SINGULAR_DUALS_LP,
    EquilibriumNotFound,
    TooLarge,
    _bench_games,
    _rebuild as oracle_rebuild,
    ex_ante_value,
    exact_solve_fp,
    from_start,
    generated_constant_sum_game,
    generated_general_sum_game,
    make_game,
    negate_table,
    oracle_action_values,
    oracle_finite_best_response,
    oracle_finite_gap,
    oracle_simplex,
    oracle_solve_enum,
    oracle_solve_fp,
    random_poly,
    random_poly_game,
    random_profile,
    solve_default_lp,
    src_env,
    start_tableau,
    uniform_profile,
)

ROOT = Path(__file__).resolve().parent.parent
DEMO_SPECS = sorted((ROOT / "demos" / "specs").glob("*.json"))


def identity_finite_game():
    """n = 1 game whose per-action-pair payoff matrix is the identity."""
    U = np.zeros((2, 2, 1, 1))
    U[0, 0, 0, 0] = 1.0
    U[1, 1, 0, 0] = 1.0
    return FiniteGame(n=1, actions1=("x1", "x2"), actions2=("y1", "y2"),
                      U=U, V=U.copy())


# ---------------------------------------------------------------------------
# best responses and gaps

def test_best_response_indifference_tie():
    fg = identity_finite_game()
    pure, value = oracle_finite_best_response(fg, 1,
                                              np.array([[0.5, 0.5]]))
    assert np.array_equal(pure, [[1.0, 0.0]])  # tie -> lowest index
    assert value == pytest.approx(0.5, abs=1e-15)


def test_best_response_pure_opponent():
    fg = identity_finite_game()
    pure, value = oracle_finite_best_response(fg, 1,
                                              np.array([[1.0, 0.0]]))
    assert np.array_equal(pure, [[1.0, 0.0]])
    assert value == pytest.approx(1.0, abs=1e-15)


def test_best_response_n2_match_game(zero_sum_match):
    fg = bc.build_finite(zero_sum_match, 2)
    t = np.array([[1.0, 0.0], [1.0, 0.0]])  # opponent always y1
    pure, value = oracle_finite_best_response(fg, 1, t)
    assert np.array_equal(pure, [[1.0, 0.0], [1.0, 0.0]])
    # brute-force reference sum over every (i, j) grid cell
    want = sum(0.25 * fg.U[0, 0, i, j] for i in range(2) for j in range(2))
    assert value == pytest.approx(want, abs=1e-14)


def test_finite_gap_single_action():
    g = make_game([["theta1"]], [["theta2"]])
    fg = bc.build_finite(g, 3)
    uniform = uniform_profile(3, 1, 1)
    gaps = finite_gap(fg, uniform.s, uniform.t)
    assert gaps == (0.0, 0.0)


def test_finite_gap_matching_pennies(matching_pennies):
    fg = bc.build_finite(matching_pennies, 1)
    uniform = uniform_profile(1, 2, 2)
    gap1, gap2 = finite_gap(fg, uniform.s, uniform.t)
    assert abs(gap1) <= 1e-12 and abs(gap2) <= 1e-12

    lopsided = bc.BehavioralProfile(np.array([[1.0, 0.0]]),
                                    np.array([[0.5, 0.5]]))
    gap1, gap2 = finite_gap(fg, lopsided.s, lopsided.t)
    assert gap1 == pytest.approx(0.0, abs=1e-12)
    assert gap2 == pytest.approx(0.5, abs=1e-8)


def test_gap_nonnegativity_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = random_poly_game(rng)
        n = int(rng.integers(1, 6))
        fg = bc.build_finite(g, n)
        profile = random_profile(rng, n, 2, 2)
        gap1, gap2 = finite_gap(fg, profile.s, profile.t)
        assert gap1 >= -1e-10 and gap2 >= -1e-10


def test_scaling_invariance_of_argmax():
    rng = np.random.default_rng(9)
    g = random_poly_game(rng)
    fg = bc.build_finite(g, 4)
    t = random_profile(rng, 4, 2, 2).t
    base, _ = oracle_finite_best_response(fg, 1, t)
    for lam in (0.5, 3.0, 100.0):
        scaled = FiniteGame(n=4, actions1=fg.actions1, actions2=fg.actions2,
                            U=fg.U * lam, V=fg.V)
        pure, _ = oracle_finite_best_response(scaled, 1, t)
        assert np.array_equal(pure, base)


# ---------------------------------------------------------------------------
# linearizability detection

def test_prop1_constant_sum(matching_pennies):
    res = check_prop1(matching_pennies)
    assert res.kind == "zero_sum"


def test_prop1_zero_sum(zero_sum_match):
    res = check_prop1(zero_sum_match)
    assert res.kind == "zero_sum"
    assert res.linearizable


def test_prop1_overflowing_sum_is_not_constant():
    # u + v overflows to inf on the grid, and an inf sum is not a constant
    # one: the lp would fail at every level
    g = make_game([["1e308 + 1e307*theta1", "1e308"], ["1e308", "1e308"]],
                  [["1e308", "1e308"], ["1e308", "1e308"]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_prop1(g).kind == "none"
        report = bc.run(g, bc.RunConfig(epsilon=0.1, max_level=4))
    # every level runs fp and ends in a typed error or a solve
    assert [r["n"] for r in report.levels] == [1, 2, 4]
    assert [r["backend"] for r in report.levels] == ["fp"] * 3
    for record in report.levels:
        error = record["error"]
        assert error is None or error.startswith("NonFinite: "), error


def test_prop1_not_detected():
    g = make_game([["theta1"]], [["theta2"]])
    res = check_prop1(g)
    assert res.kind == "none"
    assert not res.linearizable


def test_prop1_negated_utilities_with_unit_multipliers():
    # v = -u with m1 = m2 = 1 satisfies both detections; the constant-sum
    # pass runs first, and either way the game is linearizable
    u = [["theta1*theta2"]]
    g = make_game(u, [["-(theta1*theta2)"]], m1="1", m2="1")
    assert check_prop1(g).linearizable


def test_prop1_user_multipliers():
    u = [["theta1*theta2 + 1"]]
    v = [["-(1+theta2)*(theta1*theta2 + 1)/(1+theta1)"]]
    g = make_game(u, v, m1="1+theta1", m2="1+theta2")
    res = check_prop1(g)
    assert res.kind == "user"

    alpha1, alpha2 = default_alphas(bc.build_finite(g, 2), g, res)
    assert alpha1 == pytest.approx([0.5 / 1.5, 0.5 / 2.0], abs=1e-12)
    assert alpha2 == pytest.approx([0.5 / 1.5, 0.5 / 2.0], abs=1e-12)
    # the weights are (1/n) / m at the level's types, to the byte
    for n in range(1, 65):
        alphas = default_alphas(bc.build_finite(g, n), g, res)
        for player, alpha in zip((1, 2), alphas):
            m = g.multiplier(player, level_grid(n))
            assert alpha.tobytes() == ((1.0 / n) / m).tobytes()


def test_constant_sum_alphas_are_uniform_and_read_no_multiplier():
    # m1 vanishes at the level type 1/2 and is negative below it, so
    # weights read from it would raise Prop1Violation at every n > 1
    u = [["theta1*theta2", "theta1"], ["0", "theta2"]]
    v = [["2 - theta1*theta2", "2 - theta1"], ["2", "2 - theta2"]]
    g = make_game(u, v, m1="theta1 - 0.5", m2="1")
    prop1 = check_prop1(g)
    assert prop1.kind == "zero_sum"
    assert g.multiplier(1, level_grid(2))[0] == 0.0
    for n in range(1, 65):
        alphas = default_alphas(bc.build_finite(g, n), g, prop1)
        assert len(alphas) == 2
        for alpha in alphas:
            assert alpha.tobytes() == np.full(n, 1.0 / n).tobytes()


def test_alphas_need_multipliers_positive_at_every_level_type():
    # check_prop1's 21-point grid misses 1/3, where m1 is zero; the lp
    # used to run with an infinite alpha there, and a ValueError from
    # solve_lp would end a run instead of failing one level
    u = [["abs(theta1 - 1/3) * theta2", "0"],
         ["0", "abs(theta1 - 1/3) * (1 - theta2)"]]
    v = [["-(1 + theta2) * theta2", "0"],
         ["0", "-(1 + theta2) * (1 - theta2)"]]
    g = make_game(u, v, m1="abs(theta1 - 1/3)", m2="1 + theta2")
    prop1 = check_prop1(g)
    assert prop1.kind == "user"
    default_alphas(bc.build_finite(g, 2), g, prop1)
    with pytest.raises(Prop1Violation) as info:
        default_alphas(bc.build_finite(g, 3), g, prop1)
    assert str(info.value) == ("m1 is 0.0 at the level-3 type "
                               "0.3333333333333333; it must be positive "
                               "and finite")
    with pytest.raises(Prop1Violation):
        bc.driver.certify_level(g, 3, prop1, 0.05)


@pytest.mark.parametrize("m1, m2, message", [
    ("log(theta1 - 0.5)", "1", "m1: log of non-positive value -0.5"),
    ("1", "sqrt(theta2 - 0.5)", "m2: sqrt of negative value -0.5"),
], ids=["m1", "m2"])
def test_a_multiplier_domain_error_names_its_field(m1, m2, message):
    g = make_game([["1 + theta1", "0"], ["0", "1"]],
                  [["0", "1"], ["theta2", "0"]], m1=m1, m2=m2)
    with pytest.raises(DomainError) as info:
        check_prop1(g)
    assert str(info.value) == message


def test_prop1_identity_that_overflows_is_not_verified():
    # m2 * u = 10 u and -m1 * v = 50 u differ, but both overflow where
    # u = 1e308; inf - inf is nan, and a nan or inf side used to pass
    u = [["1e308*theta1", "1e308"], ["0", "1e308*theta2"]]
    v = [["-0.5e308*theta1", "-0.5e308"], ["0", "-0.5e308*theta2"]]
    g = make_game(u, v, m1="100", m2="10")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Prop1Violation) as info:
            check_prop1(g)
    assert str(info.value) == ("identity fails at actions (0, 0), types "
                               "(0.05, 0.0): 5e+307 vs inf")


def prop1_verdict(u, v, scale, multipliers):
    """check_prop1's kind for the tables u and v times scale, or
    "Prop1Violation"; multipliers is (m1, m2) as numbers, or None."""
    def scaled(table):
        return [[f"{scale!r}*({e})" for e in row] for row in table]
    extra = {} if multipliers is None else dict(
        m1=repr(multipliers[0]), m2=repr(multipliers[1]))
    try:
        return check_prop1(make_game(scaled(u), scaled(v), **extra)).kind
    except Prop1Violation:
        return "Prop1Violation"


SIN = "sin(3*theta1*theta2)"


@pytest.mark.parametrize("u, v, multipliers", [
    # constant-sum, with payoffs of 1e8 at the largest scale
    ([[SIN, "0"], ["0", SIN]],
     [[f"0.3 - {SIN}", "0.3"], ["0.3", f"0.3 - {SIN}"]], None),
    # general-sum, with u + v within 2e-10 at the smallest scale
    ([["theta1", "0"], ["0", "1 - theta1"]],
     [["theta2", "0"], ["0", "theta1*theta2"]], None),
    ([["theta1", "0"], ["0", "1 - theta1"]],
     [["theta2", "0"], ["0", "theta1*theta2"]], (1.0, 1.0)),
    # 2u = -v: the identity holds with m2 = 2 m1
    ([["theta1*theta2", "theta1"], ["1", "theta2"]],
     [["-2*theta1*theta2", "-2*theta1"], ["-2", "-2*theta2"]], (1.0, 2.0)),
], ids=["constant_sum", "general_sum", "general_sum_unit_m", "user"])
def test_prop1_verdict_does_not_depend_on_units(u, v, multipliers):
    want = prop1_verdict(u, v, 1.0, multipliers)
    assert want in ("zero_sum", "none", "Prop1Violation", "user")
    for scale in (1e-10, 1.0, 1e8):
        for c in (1e-7, 1.0, 1e3) if multipliers else (None,):
            m = multipliers and (c * multipliers[0], c * multipliers[1])
            assert prop1_verdict(u, v, scale, m) == want, (scale, m)


MATCH = [["theta1*theta2", "0"], ["0", "theta1*theta2"]]


@pytest.mark.parametrize("shift", [1e8, 1e10, 1e12])
def test_prop1_verdict_does_not_depend_on_a_constant_in_v(shift):
    # zero_sum_match with shift added to v: evaluating v rounds it by up
    # to shift * eps / 2, which 1e-9 of |u| + |rhs| missed from 1e8 up;
    # a departure of 1e-3 * theta1 stays visible up to 1e10
    def verdict(extra):
        v = [[f"-({e}) + {shift!r}{extra}" for e in row] for row in MATCH]
        return check_prop1(make_game(MATCH, v)).kind
    assert verdict("") == "zero_sum"
    if shift <= 1e10:
        assert verdict(" + 1e-3*theta1") == "none"


@pytest.mark.parametrize("m1, message", [
    ("theta1 - 0.5", "m1 is -0.5 at the type 0.0"),
    # inf - inf from theta1 = 0.75, the first grid type where exp overflows
    ("1 + (exp(1000*theta1) - exp(1000*theta1))",
     "m1 is nan at the type 0.75"),
], ids=["negative", "nan"])
def test_prop1_multipliers_must_be_positive_and_finite(m1, message):
    g = make_game([["theta1", "0"], ["0", "1"]],
                  [["theta2", "0"], ["0", "0"]], m1=m1, m2="1")
    with pytest.raises(Prop1Violation) as info:
        check_prop1(g)
    assert str(info.value) == f"{message}; it must be positive and finite"


def test_prop1_violation():
    u = [["theta1*theta2 + 1"]]
    v = [["-(1+theta2)*(theta1*theta2 + 1)/(1+theta1)"]]
    g = make_game(u, v, m1="1", m2="1+theta2")
    with pytest.raises(Prop1Violation):
        check_prop1(g)


RANGES = {"type_range1": [2, 3], "type_range2": [10, 20]}


def test_prop1_violation_names_types_in_spec_coordinates():
    # the failing point is the unit-square corner (0, 0)
    g = make_game([["theta1"]], [["-2*theta1"]], m1="1", m2="1", **RANGES)
    with pytest.raises(Prop1Violation) as info:
        check_prop1(g)
    assert str(info.value) == ("identity fails at actions (0, 0), types "
                               "(2.0, 10.0): 2.0 vs 4.0")


def test_alphas_name_the_level_type_in_spec_coordinates():
    # m1 is zero at the spec type 2.125, the level-8 type 1/8, which
    # check_prop1's 21-point grid misses
    u = [["abs(theta1-2.125)*theta2", "0"], ["0", "abs(theta1-2.125)"]]
    v = [["-theta2", "0"], ["0", "-1"]]
    g = make_game(u, v, m1="abs(theta1 - 2.125)", m2="1", **RANGES)
    prop1 = check_prop1(g)
    assert prop1.kind == "user"
    with pytest.raises(Prop1Violation) as info:
        default_alphas(bc.build_finite(g, 8), g, prop1)
    assert str(info.value) == ("m1 is 0.0 at the level-8 type 2.125; it "
                               "must be positive and finite")


# ---------------------------------------------------------------------------
# simplex core

def test_simplex_bounded_ub():
    # min -x s.t. x + s1 = 3, y + s2 = 1, from the slacks
    x, _, _ = from_start(simplex, np.array([-1.0, 0.0, 0.0, 0.0]),
                         np.array([[1.0, 0.0, 1.0, 0.0],
                                   [0.0, 1.0, 0.0, 1.0]]),
                         np.array([3.0, 1.0]), [2, 3])
    assert x[0] == pytest.approx(3.0, abs=1e-12)


def test_simplex_equality():
    # min x + y s.t. x + y = 2, x - y = 0
    x, _, _ = from_start(simplex, np.array([1.0, 1.0]),
                         np.array([[1.0, 1.0], [1.0, -1.0]]),
                         np.array([2.0, 0.0]), [0, 1])
    assert x == pytest.approx([1.0, 1.0], abs=1e-10)


def test_simplex_infeasible():
    with pytest.raises(Infeasible):
        from_start(simplex, np.array([0.0]), np.array([[1.0]]),
                   np.array([-1.0]), [0])


def test_simplex_unbounded():
    # min -x s.t. y + s = 1, from the slack
    with pytest.raises(UnboundedObjective):
        from_start(simplex, np.array([-1.0, 0.0, 0.0]),
                   np.array([[0.0, 1.0, 1.0]]), np.array([1.0]), [2])


def test_simplex_does_not_cycle_on_beales_lp():
    """Beale's LP cycles under the most-negative rule with the lowest-index
    tie-breaks: every pivot from the start basis is degenerate, and six of
    them return to it.  Bland's rule after a degenerate pivot breaks the
    cycle, and the optimum is -5/4."""
    c = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
    A = np.array([[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                  [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
    b = np.array([0.0, 0.0, 1.0])
    x, y, pivots = from_start(simplex, c, A, b, [0, 1, 2])
    assert c @ x == pytest.approx(-1.25, abs=1e-12)
    assert b @ y == pytest.approx(-1.25, abs=1e-12)
    assert pivots == 6


def test_the_slack_lp_prices_by_the_most_negative_reduced_cost(
        monkeypatch):
    """linear_prior_multipliers' slack LP at n = 56, started as the block
    once started it, each opponent type at action 0 and z[i] in the row
    of type i's best reply to those: 384 pivots when every entering
    column is the first negative one, and 46 under the most-negative
    rule.  From _solve_block's own start it takes 2, too few to tell the
    rules apart."""
    g = bc.load_game_file(ROOT / "demos" / "specs"
                          / "linear_prior_multipliers.json")
    fg = bc.build_finite(g, 56)
    lp = _action_0_start(fg, _slack_lp(monkeypatch, fg, *default_alphas(
        fg, g, check_prop1(g))))
    assert from_start(simplex, *lp)[2] <= 96


def _captured_lps(monkeypatch, call):
    """The LP of each simplex call that call() makes: (c, A, b, start
    tableau, start basis).  Each simplex call returns the uniform rows
    and zero duals, so that call() runs to its end and every call is
    seen."""
    calls = []

    def capture(c, A, b, T, *, basis):
        calls.append((c, A, b, T, basis))
        sums = A[b == 1.0]  # the sum-to-one rows
        return sums.T @ (1.0 / sums.sum(axis=1)), np.zeros(len(A)), 0

    with monkeypatch.context() as patch:
        patch.setattr("bnecert.solver.simplex", capture)
        call()
    return calls


def _slack_lp(monkeypatch, fg, alpha1=None, alpha2=None):
    """The LP of solve_lp's one simplex call, player 1's block."""
    calls = _captured_lps(monkeypatch, lambda: solve_lp(fg, alpha1, alpha2))
    assert len(calls) == 1
    return calls[0]


def _action_0_start(fg, lp):
    """Player 1's captured slack LP lp as (c, A, b, basis), from the start
    the block once took: each opponent type at action 0, z[i] in the row
    of type i's best reply to those, and every other row's slack."""
    c, A, b, _, _ = lp
    n, rows, cols = fg.n, fg.n * fg.L, fg.n * fg.H
    first = np.arange(0, cols, fg.H)
    best = A[:rows, first].sum(axis=1).reshape(n, fg.L).argmax(axis=1)
    basis = np.concatenate([cols + n + np.arange(rows), first])
    basis[np.arange(n) * fg.L + best] = cols + np.arange(n)
    return c, A, b, basis


def _player2_block(fg, alpha2):
    """Player 2's block of the slack LP, built entry by entry.  solve_lp
    reads player 1's strategy from the duals of player 1's block instead
    of solving this one, but the simplex must solve it as well."""
    c, A, b, basis = _loop_built_block(fg, 2, alpha2)
    return c, A, b, np.array(basis)


def _simplex_outcome(solver, lp):
    """(x bytes, y bytes, pivots), or the exception's type and message.
    lp is (c, A, b, basis), started from start_tableau, or a captured
    (c, A, b, T, basis), whose start tableau T each solver pivots from a
    copy of."""
    *data, basis = lp
    try:
        if len(data) == 3:
            x, y, pivots = from_start(solver, *data, basis)
        else:
            *data, T = data
            x, y, pivots = solver(*data, T.copy(order="F"), basis=basis)
    except BnecertError as exc:
        return type(exc), str(exc)
    return x.tobytes(), y.tobytes(), pivots


def _random_lp(rng):
    """Small LP and start basis, coefficients rounded to 0-2 decimals so
    that ties and degenerate vertices occur.  Half have b_ub >= 0, no
    equality rows and the all-slack start.  The rest start from a random
    basis, for which three in five are feasible by construction (b is
    made from a point whose nonzeros are basic, some of them 0)."""
    nvar = int(rng.integers(1, 7))
    m_ub, m_eq = int(rng.integers(0, 6)), int(rng.integers(0, 4))
    decimals = int(rng.integers(0, 3))

    def draw(lo, hi, *shape):
        return np.round(rng.uniform(lo, hi, shape), decimals)

    c, A_ub = draw(-1, 3, nvar), draw(-3, 3, m_ub, nvar)
    if rng.random() < 0.5:
        b_ub = draw(0, 3, m_ub) * (rng.random(m_ub) < 0.7)
        return c, A_ub, b_ub, None, None, nvar + np.arange(m_ub)
    A_eq = draw(-3, 3, m_eq, nvar)
    m, ncols = m_ub + m_eq, nvar + m_ub
    basis = rng.choice(ncols, m, replace=m > ncols)
    if rng.random() < 0.4:
        return c, A_ub, draw(-3, 3, m_ub), A_eq, draw(-3, 3, m_eq), basis
    x = np.zeros(ncols)
    x[basis] = rng.integers(0, 3, m)
    return (c, A_ub, A_ub @ x[:nvar] + x[nvar:], A_eq, A_eq @ x[:nvar],
            basis)


def _standard_form(c, A_ub, b_ub, A_eq, b_eq, basis):
    """The LP min c @ x s.t. A_ub x <= b_ub, A_eq x = b_eq, x >= 0 as
    simplex takes it: (c, A, b, basis) over x, then one slack column per
    row of A_ub, whose rows come first."""
    if A_eq is None:
        A_eq, b_eq = np.zeros((0, c.size)), np.zeros(0)
    m_ub = len(A_ub)
    A = np.block([[A_ub, np.eye(m_ub)],
                  [A_eq, np.zeros((len(A_eq), m_ub))]])
    return (np.concatenate([c, np.zeros(m_ub)]), A,
            np.concatenate([b_ub, b_eq]), basis)


def test_simplex_takes_the_oracle_pivots_on_2000_random_lps():
    rng = np.random.default_rng(2024)
    outcomes = collections.Counter()
    for _ in range(2000):
        lp = _standard_form(*_random_lp(rng))
        got = _simplex_outcome(simplex, lp)
        assert got == _simplex_outcome(oracle_simplex, lp)
        outcomes[got[0] if isinstance(got[0], type) else "optimal"] += 1
    assert outcomes["optimal"] > 1000
    assert outcomes[Infeasible] > 100 and outcomes[UnboundedObjective] > 100
    assert outcomes[SimplexStall] > 100


def test_pivot_result_does_not_depend_on_the_tableau_layout():
    """_pivot gives the bytes of a C-ordered tableau on a Fortran-ordered
    one and on a strided view, zeros (and their signs) included."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        m, k = rng.integers(2, 9, 2)
        data = rng.normal(size=(m, k)) * (rng.random((m, k)) < 0.6)
        row, col = rng.integers(m), rng.integers(k)
        data[row, col] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        want, want_basis = data.copy(), np.zeros(m, dtype=np.intp)
        _pivot(want, want_basis, row, col)
        strided = np.zeros((2 * m, 3 * k))[::2, ::3]
        strided[...] = data
        for T in (np.asfortranarray(data), strided):
            basis = np.zeros(m, dtype=np.intp)
            _pivot(T, basis, row, col)
            assert np.ascontiguousarray(T).tobytes() == want.tobytes()
            assert basis.tolist() == want_basis.tolist()


def test_simplex_duals_are_optimal_on_the_random_lps():
    """On the optimal LPs of the 2000, b @ y = c @ x (strong duality) and
    no reduced cost c - A^T y, slack columns included, is below -1e-9."""
    rng = np.random.default_rng(2024)
    optimal = 0
    for _ in range(2000):
        c, A, b, basis = _standard_form(*_random_lp(rng))
        try:
            x, y, _ = from_start(simplex, c, A, b, basis)
        except BnecertError:
            continue
        assert abs(b @ y - c @ x) <= 1e-9
        assert (c - A.T @ y).min(initial=0.0) >= -1e-9
        optimal += 1
    assert optimal > 1000


@pytest.mark.parametrize("path", DEMO_SPECS, ids=[p.stem for p in DEMO_SPECS])
def test_simplex_takes_the_oracle_pivots_on_demo_slack_lps(path,
                                                          monkeypatch):
    g = bc.load_game_file(path)
    prop1 = check_prop1(g)
    for n in range(1, 13):
        fg = bc.build_finite(g, n)
        alpha1, alpha2 = default_alphas(fg, g, prop1)
        for lp in (_slack_lp(monkeypatch, fg, alpha1, alpha2),
                   _player2_block(fg, alpha2)):
            got = _simplex_outcome(simplex, lp)
            assert got == _simplex_outcome(oracle_simplex, lp)


@pytest.mark.parametrize("path", DEMO_SPECS, ids=[p.stem for p in DEMO_SPECS])
def test_simplex_takes_the_oracle_pivots_at_bench_sizes(path, monkeypatch):
    """Levels the lp-ladder bench solves: dozens of rebuilds per block."""
    g = bc.load_game_file(path)
    prop1 = check_prop1(g)
    for n in (40, 48, 56):
        fg = bc.build_finite(g, n)
        alpha1, alpha2 = default_alphas(fg, g, prop1)
        for lp in (_slack_lp(monkeypatch, fg, alpha1, alpha2),
                   _player2_block(fg, alpha2)):
            got = _simplex_outcome(simplex, lp)
            assert got == _simplex_outcome(oracle_simplex, lp)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3)],
                         ids=["2x2", "2x3", "3x3"])
def test_simplex_takes_the_oracle_pivots_on_generated_games_to_n_32(
        shape, monkeypatch):
    """Generated constant-sum games at the levels a larger lp-ladder
    would solve, where a rebuild has the most basic columns to skip."""
    for seed in (1, 2, 3):
        g = generated_constant_sum_game(seed, *shape)
        for n in (16, 32):
            fg = bc.build_finite(g, n)
            lp = _slack_lp(monkeypatch, fg, *default_alphas(fg, g,
                                                            check_prop1(g)))
            got = _simplex_outcome(simplex, lp)
            assert got == _simplex_outcome(oracle_simplex, lp)


@pytest.mark.parametrize("path", DEMO_SPECS, ids=[p.stem for p in DEMO_SPECS])
def test_a_rebuild_solves_the_nonbasic_columns_to_the_bits_of_a_full_solve(
        path, monkeypatch):
    """Every periodic rebuild of the demo LPs at n = 40..96 against the
    oracle's rebuild, which solves B^-1 A for every column: the nonbasic
    columns, their reduced costs, x_B and the objective are the same
    bits, because gesv solves each right-hand column on its own, and each
    basic column is the exact unit vector of its row with reduced cost
    exactly 0.  The starts are built before the count begins."""
    rebuild = bc.solver._rebuild
    calls = []

    def compare(T, A, b, costvec, basis):
        ok = rebuild(T, A, b, costvec, basis)
        full = np.zeros_like(T)
        assert oracle_rebuild(full, A, b, costvec, basis) == ok
        if ok:
            m = A.shape[0]
            rest = np.setdiff1d(np.arange(costvec.size), basis)
            assert T[:, rest].tobytes() == full[:, rest].tobytes()
            assert T[:, -1].tobytes() == full[:, -1].tobytes()
            assert (T[:m, basis] == np.eye(m)).all()
            assert (T[-1, basis] == 0.0).all()
        calls.append(ok)
        return ok

    g = bc.load_game_file(path)
    prop1 = check_prop1(g)
    for n in range(40, 97, 8):
        fg = bc.build_finite(g, n)
        alpha1, alpha2 = default_alphas(fg, g, prop1)
        lp1 = _slack_lp(monkeypatch, fg, alpha1, alpha2)
        lps = [lp1]
        for c, A, b, basis in (_player2_block(fg, alpha2),
                               _action_0_start(fg, lp1)):
            lps.append((c, A, b, start_tableau(c, A, b, basis), basis))
        with monkeypatch.context() as patch:
            patch.setattr("bnecert.solver._rebuild", compare)
            for lp in lps:
                _simplex_outcome(simplex, lp)
    # the blocks' own starts leave linear_prior_multipliers in at most 2
    # pivots, so its 7 rebuilds come from the action-0 starts (32 to 78
    # pivots); the other specs take n pivots a block, and rebuild 33 times
    assert len(calls) >= 7 and all(calls)


def _check_closed_form_start(lp, alpha):
    """The start tableau T of a captured slack LP, whose block took the
    weights alpha, is column-major and within 1e-15 of _rebuild's for its
    basis, once the cost row of both is divided by the power of two that
    the block scales alpha by (exact); its basic columns are the exact
    unit vectors of their rows with reduced cost 0.0, and x_B >= 0."""
    c, A, b, T, basis = lp
    m = len(A)
    scale = math.ldexp(1.0, -math.frexp(alpha.max())[1])
    assert np.array_equal(c[c != 0.0], alpha * scale)  # z's costs
    assert T.flags.f_contiguous
    got, want = T.copy(), start_tableau(c, A, b, basis)
    got[-1] /= scale
    want[-1] /= scale
    assert np.abs(got - want).max() <= 1e-15
    want = np.eye(m + 1, m)
    assert np.ascontiguousarray(T[:, basis]).tobytes() == want.tobytes()
    assert T[:m, -1].min() >= 0.0


@pytest.mark.parametrize("path", DEMO_SPECS, ids=[p.stem for p in DEMO_SPECS])
def test_the_closed_form_start_is_the_rebuilt_start_on_demo_specs(
        path, monkeypatch):
    g = bc.load_game_file(path)
    prop1 = check_prop1(g)
    for n in range(1, 65):
        fg = bc.build_finite(g, n)
        alpha1, alpha2 = default_alphas(fg, g, prop1)
        lps = _captured_lps(monkeypatch, lambda: (
            _solve_block(fg.M1, fg.L, alpha1),
            _solve_block(fg.M2, fg.H, alpha2)))
        for lp, alpha in zip(lps, (alpha1, alpha2), strict=True):
            _check_closed_form_start(lp, alpha)


def test_the_closed_form_start_is_the_rebuilt_start_on_generated_games(
        zero_sum_match, monkeypatch):
    """Generated constant-sum games, zero_sum_match with payoffs shifted
    below 0, and a general-sum game with a -0.0 payoff, each block under
    uneven weights."""
    rng = np.random.default_rng(40)
    games = [bc.build_finite(generated_constant_sum_game(seed, *shape), n)
             for shape in ((2, 2), (2, 3), (3, 3)) for seed in (1, 2, 3)
             for n in (1, 2, 5, 8, 16, 32)]
    for n in (3, 8, 16):
        fg = bc.build_finite(zero_sum_match, n)
        games.append(FiniteGame(n, fg.actions1, fg.actions2, fg.U - 3.0,
                                fg.V + 3.0))
        assert games[-1].U.min() < 0.0
    U, V = 4.0 * rng.random((3, 2, 4, 4)) - 1.0, rng.random((3, 2, 4, 4))
    V[0, 1, :, 3] = -0.0
    games.append(FiniteGame(4, ("x1", "x2", "x3"), ("y1", "y2"), U, V))
    for fg in games:
        # default_alphas' scale: weights of 1/n, over a multiplier
        alpha1, alpha2 = (rng.random((2, fg.n)) + 0.5) / fg.n
        lps = _captured_lps(monkeypatch, lambda: (
            _solve_block(fg.M1, fg.L, alpha1),
            _solve_block(fg.M2, fg.H, alpha2)))
        for lp, alpha in zip(lps, (alpha1, alpha2), strict=True):
            _check_closed_form_start(lp, alpha)


@pytest.mark.parametrize("name, levels", [
    ("matching_pennies", range(2, 65, 2)),
    ("zero_sum_match", (8, 16, 32, 64)),
])
def test_matching_games_start_at_their_optimum(name, levels, request,
                                               monkeypatch):
    """Every action ties in both of the start's choices, and the spread
    start's pure pair is a saddle point of the level game: each block
    takes 0 pivots, where the lowest-index start, every type at action 0,
    took n.  The tied starts are still the rebuilt start of their basis,
    with x_B >= 0 and exact unit basic columns."""
    g = request.getfixturevalue(name)
    prop1 = check_prop1(g)
    for n in levels:
        fg = bc.build_finite(g, n)
        alpha1, alpha2 = default_alphas(fg, g, prop1)
        res = solve_lp(fg, alpha1, alpha2)
        assert res.iterations == 0, n
        assert max(res.finite_gap1, res.finite_gap2) <= 1e-15, n
        assert _solve_block(fg.M2, fg.H, alpha2)[2] == 0, n
        lps = _captured_lps(monkeypatch, lambda: (
            _solve_block(fg.M1, fg.L, alpha1),
            _solve_block(fg.M2, fg.H, alpha2)))
        for lp, alpha in zip(lps, (alpha1, alpha2), strict=True):
            _check_closed_form_start(lp, alpha)
            assert _start_ties(lp, n) == (n, n)


def _start_ties(lp, n):
    """Checks that the start basis of a captured slack LP takes
    _loop_spread's picks, which are tied-best entries only, of the values
    _solve_block sums: for each opponent type, each action's
    alpha-weighted payoff against uniform own play, the least picked; for
    each own type, z's row at an action of best value against those.
    Returns how many opponent types and how many own types tie there."""
    c, A, _, _, basis = lp
    cols = np.flatnonzero(c)[0]  # z's columns follow sigma's
    rows = len(A) - n
    P, alpha = A[:rows, :cols], c[cols:cols + n]
    weighted = (alpha[:, None] * P.reshape(n, -1, cols).sum(axis=1)).sum(
        axis=0).reshape(n, -1)
    first = basis[rows:]
    width, opp = rows // n, cols // n
    assert first.tolist() == [j * opp + y for j, y in enumerate(
        _loop_spread(weighted.tolist(), min))]
    value = np.vecdot(P[:, first], np.ones(n)).reshape(n, width)
    zrow = [basis.tolist().index(cols + i) for i in range(n)]
    assert zrow == [i * width + x for i, x in enumerate(
        _loop_spread(value.tolist(), max))]
    least = weighted.min(axis=1, keepdims=True)
    top = value.max(axis=1, keepdims=True)
    return (int(((weighted == least).sum(axis=1) > 1).sum()),
            int(((value == top).sum(axis=1) > 1).sum()))


@st.composite
def tied_constant_sum_games(draw):
    """Constant-sum games with many exact ties in the start's choices, at
    a level n: u = w1(theta1) w2(theta2) [x = y] with positive polynomial
    weights and v = -u; a generated constant-sum game with one of player
    2's actions duplicated; or constant payoffs."""
    kind = draw(st.sampled_from(["matching", "duplicated", "constant"]))
    n = draw(st.integers(1, 12))
    if kind == "matching":
        size = draw(st.integers(2, 3))
        coefficient = st.integers(1, 8).map(lambda q: q / 4)

        def weight(var):
            return " + ".join(f"{draw(coefficient)}*{var}^{power}"
                              for power in range(draw(st.integers(1, 3))))

        w = f"({weight('theta1')})*({weight('theta2')})"
        u = [[w if x == y else "0" for y in range(size)]
             for x in range(size)]
        return kind, make_game(u, negate_table(u)), n
    if kind == "duplicated":
        L, H = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
        spec = _bench_games().game_spec(draw(st.integers(1, 50)), 0,
                                        "constant_sum", L, H)
        y = draw(st.integers(0, H - 1))
        for table in ("u", "v"):
            spec[table] = [[*row, row[y]] for row in spec[table]]
        spec["actions2"] = [*spec["actions2"], "copy"]
        return kind, bc.load_game(bc.GameSpec.from_dict(spec)), n
    L, H = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    level = st.integers(-8, 8).map(lambda q: str(q / 4))
    u, v = draw(level), draw(level)
    return kind, make_game([[u] * H] * L, [[v] * H] * L), n


@settings(max_examples=80, deadline=None)
@given(case=tied_constant_sum_games())
def test_tied_starts_are_sound_on_constant_sum_games(case):
    """Each block's start is its rebuilt start with x_B >= 0 and takes
    the spread picks, tied-best columns only, and solve_lp reaches finite
    gaps of at most 1e-12.  The constant games tie at every opponent type
    in both blocks, and the matching games in player 1's."""
    kind, g, n = case
    fg = bc.build_finite(g, n)
    prop1 = check_prop1(g)
    assert prop1.kind == "zero_sum"
    alpha1, alpha2 = default_alphas(fg, g, prop1)
    with pytest.MonkeyPatch.context() as monkeypatch:
        lps = _captured_lps(monkeypatch, lambda: (
            _solve_block(fg.M1, fg.L, alpha1),
            _solve_block(fg.M2, fg.H, alpha2)))
    for player, lp, alpha in zip((1, 2), lps, (alpha1, alpha2),
                                 strict=True):
        _check_closed_form_start(lp, alpha)
        opponent_ties, _ = _start_ties(lp, n)
        # player 2's block shifts the matching payoffs, -u, by max u, and
        # its sums of shifted cells may round apart
        if kind == "constant" or (kind == "matching" and player == 1):
            assert opponent_ties == n
    res = solve_lp(fg, alpha1, alpha2)
    assert max(res.finite_gap1, res.finite_gap2) <= 1e-12


def test_the_lp_does_not_depend_on_the_multipliers_units():
    """linear_prior_multipliers with both multipliers times a common
    scale, which keeps m2 u = -m1 v: at every level to 24 the LP solves
    to finite gaps of at most 1e-12 in the same pivots as at scale 1.
    Unscaled, weights (1/n) / m near 1e-9 would leave every reduced cost
    above -_TOL, and the simplex at its start basis."""
    with open(ROOT / "demos" / "specs" / "linear_prior_multipliers.json",
              encoding="utf-8") as fh:
        doc = json.load(fh)
    pivots = {}
    for scale in ("1", "1e-8", "1e4", "1e8", "1e12"):
        g = bc.load_game(bc.GameSpec.from_dict(dict(
            doc, m1=f"{scale} * ({doc['m1']})",
            m2=f"{scale} * ({doc['m2']})")))
        prop1 = check_prop1(g)
        assert prop1.kind == "user"
        for n in range(1, 25):
            fg = bc.build_finite(g, n)
            res = solve_lp(fg, *default_alphas(fg, g, prop1))
            assert max(res.finite_gap1, res.finite_gap2) <= 1e-12, (scale,
                                                                     n)
            assert pivots.setdefault(n, res.iterations) == res.iterations


def test_the_423_lp_sweep_solves_every_lp_within_2429_pivots():
    """README's sweep: the demo specs at n = 1..64 and generated
    constant-sum 2x2, 2x3 and 3x3 games at seeds 1-7 and n = 2..12.
    None fails, every finite gap is at most 8.9e-16, and the pivots total
    at most 2 429 (5 169 from the lowest-index start, 8 376 from the
    former action-0 start).  Two gaps pass the lowest-index start's
    4.5e-16, both of matching_pennies at odd n, where no pure start is
    optimal and about n/2 pivots follow: 5.0e-16 at n = 59 and 8.9e-16
    at n = 63.  The final duals leave one of player 1's types at 0.5 +-
    5e-14 there."""
    games = [(bc.load_game_file(path), range(1, 65)) for path in DEMO_SPECS]
    games += [(generated_constant_sum_game(seed, *shape), range(2, 13))
              for shape in ((2, 2), (2, 3), (3, 3)) for seed in range(1, 8)]
    count = pivots = 0
    for g, levels in games:
        prop1 = check_prop1(g)
        for n in levels:
            fg = bc.build_finite(g, n)
            res = solve_lp(fg, *default_alphas(fg, g, prop1))
            assert max(res.finite_gap1, res.finite_gap2) <= 8.9e-16, n
            pivots += res.iterations
            count += 1
    assert count == 423 and pivots <= 2429


def test_an_lp_with_no_nonbasic_column_solves_in_0_pivots():
    """As many columns as rows: the start's rebuild solves a right-hand
    side of 0 columns.  The first LP of
    test_a_singular_start_basis_stalls_before_any_pivot is square too:
    numpy raises LinAlgError on a singular B with 0 right-hand columns,
    so start_tableau still refuses that start."""
    x, y, pivots = from_start(simplex, np.array([1.0, 1.0]),
                              np.diag([1.0, 2.0]), np.array([1.0, 1.0]),
                              [0, 1])
    assert x.tolist() == [1.0, 0.5] and y.tolist() == [1.0, 0.5]
    assert pivots == 0


def test_the_final_tableau_stays_within_1e_12_of_its_rebuild(monkeypatch):
    """The periodic refactorization holds the pivots' drift down: without
    it this 3 x 3 game's tableau ends about 2.5e-11 from a fresh rebuild
    of its final basis at n = 24, and 1.1e-9 at n = 48."""
    lps, tableaus = [], []

    def capture_lp(c, A, b, T, *, basis):
        lps.append((c, A, b))
        return simplex(c, A, b, T, basis=basis)

    def capture_pivot(T, basis, row, col):
        tableaus.append((T, basis))  # both change in place
        _pivot(T, basis, row, col)

    g = generated_constant_sum_game(3, 3, 3)
    monkeypatch.setattr("bnecert.solver.simplex", capture_lp)
    monkeypatch.setattr("bnecert.solver._pivot", capture_pivot)
    solve_default_lp(bc.build_finite(g, 24), g)
    assert len(lps) == 1 and tableaus
    (c, A, b), (T, basis) = lps[0], tableaus[-1]
    rebuilt = np.zeros_like(T)
    assert bc.solver._rebuild(rebuilt, A, b, c, basis)
    assert np.max(np.abs(T - rebuilt)) <= 1e-12


@pytest.mark.parametrize("path", DEMO_SPECS, ids=[p.stem for p in DEMO_SPECS])
def test_the_duals_of_player_1s_block_solve_player_2s_block(path):
    """Player 2's block minimizes w2 @ z2, w2 its scaled alpha2, subject
    to z2[j] >= each of type j's rows of its scaled, shifted M2 / n @
    sigma1.  At solve_lp's s, read from the duals of player 1's block,
    that objective is the optimum the oracle reaches on player 2's
    block."""
    g = bc.load_game_file(path)
    prop1 = check_prop1(g)
    for n in range(1, 7):
        fg = bc.build_finite(g, n)
        alpha1, alpha2 = default_alphas(fg, g, prop1)
        s = solve_lp(fg, alpha1, alpha2).profile.s
        c, A, b, basis = _player2_block(fg, alpha2)
        x, _, _ = from_start(oracle_simplex, c, A, b, basis)
        z2 = (A[:n * fg.H, :n * fg.L] @ s.ravel()).reshape(n, fg.H).max(
            axis=1)
        w2 = c[n * fg.L:n * fg.L + n]
        assert abs(w2 @ z2 - c @ x) <= 1e-9, n


@pytest.mark.parametrize("path", DEMO_SPECS, ids=[p.stem for p in DEMO_SPECS])
def test_lp_solves_the_demo_specs_at_bench_sizes(path):
    g = bc.load_game_file(path)
    prop1 = check_prop1(g)
    for n in (40, 48, 56):
        fg = bc.build_finite(g, n)
        res = solve_lp(fg, *default_alphas(fg, g, prop1))
        assert res.finite_gap1 <= 1e-8 and res.finite_gap2 <= 1e-8


def _block2_objective(fg, alpha2, s):
    """Player 2's block objective at s, unscaled: alpha2 @ z2, z2[j] the
    largest of type j's rows of M2 / n @ s."""
    q = (fg.M2 @ s.ravel()).reshape(fg.n, fg.H).max(axis=1) / fg.n
    return float(alpha2 @ q)


@pytest.mark.parametrize("path", DEMO_SPECS, ids=[p.stem for p in DEMO_SPECS])
def test_lp_solves_the_demo_specs_at_every_level_to_64(path):
    g = bc.load_game_file(path)
    prop1 = check_prop1(g)
    for n in range(1, 65):
        fg = bc.build_finite(g, n)
        alpha1, alpha2 = default_alphas(fg, g, prop1)
        res = solve_lp(fg, alpha1, alpha2)
        assert max(res.finite_gap1, res.finite_gap2) <= 1e-8, n
        # s, from player 1's duals, attains player 2's block optimum.  Not
        # the same s: zero_sum_match has mirror-image equilibria, and the
        # two solves may stop at mirrored vertices
        s = _solve_block(fg.M2, fg.H, alpha2)[0]
        assert abs(_block2_objective(fg, alpha2, res.profile.s)
                   - _block2_objective(fg, alpha2, s)) <= 1e-12, n


def test_lp_solves_generated_3x3_constant_sum_games():
    for seed in range(1, 8):
        g = generated_constant_sum_game(seed, 3, 3)
        for n in range(8, 13):
            fg = bc.build_finite(g, n)
            res = solve_default_lp(fg, g)
            assert max(res.finite_gap1, res.finite_gap2) <= 1e-8, (seed, n)
            s = _solve_block(fg.M2, fg.H, np.full(n, 1.0 / n))[0]
            assert np.abs(res.profile.s - s).max() <= 1e-12, (seed, n)


@pytest.mark.parametrize("size", [2, 3])
def test_lp_solves_games_with_payoffs_near_1e300(size):
    """The simplex's tolerances are absolute, so each block scales its
    payoffs first; the gaps scale with the payoffs."""
    for seed in range(1, 8):
        g = generated_constant_sum_game(seed, size, size, scale="1e+300")
        for n in range(1, 9):
            fg = bc.build_finite(g, n)
            res = solve_default_lp(fg, g)
            largest = max(np.abs(fg.M1).max(), np.abs(fg.M2).max())
            assert max(res.finite_gap1, res.finite_gap2) <= 1e-8 * largest, \
                (seed, n)


@pytest.mark.parametrize("c", [0.5, 3.0])
def test_lp_solves_level_games_with_negative_payoffs(zero_sum_match, c):
    """With payoffs below 0 the slack LP's bound z >= 0 would bind and
    leave a profile that is not an equilibrium, had the block not shifted
    them first."""
    for n in (4, 8, 16):
        fg = bc.build_finite(zero_sum_match, n)
        shifted = FiniteGame(n, fg.actions1, fg.actions2, fg.U - c, fg.V + c)
        assert shifted.U.min() < 0.0
        res = solve_default_lp(shifted, zero_sum_match)
        assert max(res.finite_gap1, res.finite_gap2) <= 1e-8, n


def test_lp_gives_action_0_to_a_type_whose_duals_sum_to_0(monkeypatch):
    """Type 0 of player 1 gets the minimum payoff, 0, whatever it plays,
    so its duals add nothing to the dual objective of player 1's block,
    and zeroing them leaves another optimal dual, with which type 0 plays
    action 0.  With the simplex's duals and with the zeroed ones, each
    row sums to 1 and the profile is an equilibrium."""
    n, L, H = 3, 2, 3
    U = np.round(np.random.default_rng(5).random((L, H, n, n)), 1)
    U[:, :, 0, :] = 0.0
    fg = FiniteGame(n, ("x1", "x2"), ("y1", "y2", "y3"), U, -U)
    real_simplex = simplex

    def zeroed(*args, basis):
        x, y, pivots = real_simplex(*args, basis=basis)
        y[:L] = 0.0  # type 0's rows of M1
        return x, y, pivots

    for patched in (False, True):
        with monkeypatch.context() as patch:
            if patched:
                patch.setattr("bnecert.solver.simplex", zeroed)
            # default_alphas' weights for a constant-sum game
            res = solve_lp(fg, np.full(n, 1.0 / n), np.full(n, 1.0 / n))
        for rows in (res.profile.s, res.profile.t):
            assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12
        assert max(res.finite_gap1, res.finite_gap2) <= 1e-8
        if patched:
            assert res.profile.s[0].tolist() == [1.0, 0.0]


@pytest.mark.parametrize("solver", [simplex, oracle_simplex],
                         ids=["simplex", "oracle"])
def test_a_singular_start_basis_stalls_before_any_pivot(solver,
                                                        monkeypatch):
    """Neither solver factors its start: the slack block writes its own
    start tableau, and every other test LP starts from start_tableau,
    which refuses a singular basis before the solver is called."""
    pivots = []
    monkeypatch.setitem(solver.__globals__, "_pivot",
                        lambda *args: pivots.append(args))
    with pytest.raises(SimplexStall, match="^singular start basis$"):
        # x and y basic in the rows of x + y = 2 and 2x + 2y = 4
        from_start(solver, np.array([1.0, -1.0]),
                   np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([2.0, 4.0]),
                   [0, 1])
    with pytest.raises(SimplexStall, match="^singular start basis$"):
        # x basic in both rows: LU's rounding leaves this basis matrix a
        # nonzero last pivot, but not that of its transpose
        from_start(solver, np.array([0.42]), np.array([[0.31], [-1.99]]),
                   np.array([0.0, 0.0]), [0, 0])
    assert pivots == []


@pytest.mark.parametrize("solver", [simplex, oracle_simplex],
                         ids=["simplex", "oracle"])
def test_an_infeasible_start_basis_raises_before_any_pivot(solver,
                                                           monkeypatch):
    pivots = []
    monkeypatch.setitem(solver.__globals__, "_pivot",
                        lambda *args: pivots.append(args))
    # min x + y s.t. x + s = 1, x + y = 2 is feasible, but with s basic
    # in the first row and x in the second, x = 2 and s = -1: only a
    # phase 1 could repair that start
    with pytest.raises(Infeasible, match="^the start basis is infeasible: "
                       r"column 2, basic in row 0, is -1\.0$"):
        from_start(solver, np.array([1.0, 1.0, 0.0]),
                   np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
                   np.array([1.0, 2.0]), [2, 0])
    assert pivots == []


# ---------------------------------------------------------------------------
# LP backend

def test_lp_matching_pennies_uniform(matching_pennies):
    for n in (1, 3):
        fg = bc.build_finite(matching_pennies, n)
        res = solve_default_lp(fg, matching_pennies)
        assert res.backend == "lp"
        assert res.finite_gap1 <= 1e-8 and res.finite_gap2 <= 1e-8
        # with type-independent payoffs only the aggregate mixture is
        # pinned down; it must be the unique 50/50 equilibrium mixture
        assert np.allclose(res.profile.s.mean(axis=0), 0.5, atol=1e-7)
        assert np.allclose(res.profile.t.mean(axis=0), 0.5, atol=1e-7)


def test_lp_single_action():
    g = make_game([["theta1"]], [["-theta1"]])
    res = solve_default_lp(bc.build_finite(g, 2), g)
    assert res.finite_gap1 == 0.0 and res.finite_gap2 == 0.0


def test_lp_cross_checked_against_enum(zero_sum_match):
    fg = bc.build_finite(zero_sum_match, 2)
    lp = solve_default_lp(fg, zero_sum_match)
    enum = oracle_solve_enum(fg)
    assert lp.finite_gap1 <= 1e-8 and lp.finite_gap2 <= 1e-8
    assert abs(ex_ante_value(fg, lp.profile, 1)
               - ex_ante_value(fg, enum.profile, 1)) <= 1e-8


def test_lp_backend_value_agreement(matching_pennies, zero_sum_match):
    # zero-sum equilibrium value is unique across backends
    for g in (matching_pennies, zero_sum_match):
        for n in (1, 2, 4):
            fg = bc.build_finite(g, n)
            lp = solve_default_lp(fg, g)
            try:
                fp = solve_fp(fg, max_iters=4000, target_gap=1e-6)
            except NoConvergence as exc:
                fp = exc.result
            if max(fp.finite_gap1, fp.finite_gap2) <= 1e-6:
                assert abs(ex_ante_value(fg, lp.profile, 1)
                           - ex_ante_value(fg, fp.profile, 1)) <= 1e-5


def test_lp_moderate_level(zero_sum_match):
    fg = bc.build_finite(zero_sum_match, 16)
    res = solve_default_lp(fg, zero_sum_match)
    assert res.finite_gap1 <= 1e-8 and res.finite_gap2 <= 1e-8


def test_lp_rejects_bad_alphas(matching_pennies):
    fg = bc.build_finite(matching_pennies, 1)
    with pytest.raises(ValueError, match="^alpha1 must be 1 positive"):
        solve_lp(fg, np.array([0.0]), np.array([1.0]))


def test_lp_rejects_alphas_not_finite_or_not_one_per_type(zero_sum_match):
    # NaN alphas used to return a "solution" with objective nan, and a
    # wrong length failed with numpy's broadcast error
    fg = bc.build_finite(zero_sum_match, 4)
    good = np.full(4, 0.25)
    for bad in (np.full(4, np.nan), np.array([0.25, np.inf, 0.25, 0.25]),
                np.full(3, 0.25), np.full((4, 1), 0.25), 0.25):
        for name, alphas in (("alpha1", (bad, good)),
                             ("alpha2", (good, bad))):
            with pytest.raises(ValueError, match=f"^{name} must be 4 "):
                solve_lp(fg, *alphas)


def test_lp_overflow_is_a_nonfinite_error(zero_sum_match):
    """Overflow in the LP is a typed error, not a RuntimeWarning.  The
    block scales the alphas, so alphas near the float limit no longer
    overflow the simplex, but they can overflow the objective; payoffs
    near it overflow the action values of the finite gaps."""
    fg = bc.build_finite(zero_sum_match, 8)
    with pytest.raises(NonFinite, match="^the LP profile's objective is "):
        solve_lp(fg, np.full(8, 1.7e308), np.full(8, 1.7e308))
    fg = bc.build_finite(zero_sum_match, 6)
    res = solve_lp(fg, np.full(6, 1e308), np.full(6, 1e308))
    assert max(res.finite_gap1, res.finite_gap2) <= 1e-16
    assert math.isfinite(res.objective)
    g = generated_constant_sum_game(1, 2, 2, "5e+307")
    with pytest.raises(NonFinite, match="^the LP profile's finite gaps "):
        solve_default_lp(bc.build_finite(g, 8), g)


@pytest.mark.parametrize("solver", [simplex, oracle_simplex],
                         ids=["simplex", "oracle"])
def test_simplex_overflow_is_a_nonfinite_error(solver):
    """Costs near the float limit overflow a reduced cost of the start
    tableau, which the rebuild that builds it and the solver that takes
    it each reject, or the duals that a tiny basis matrix divides them
    by.  The caller masks the warnings, as solve_lp does."""
    c = np.array([-1.7e308, 1.7e308])
    A, b = np.array([[1.0, 1.0]]), np.array([1.0])
    with np.errstate(over="ignore"):
        with pytest.raises(NonFinite, match="^the simplex tableau is not "):
            from_start(solver, c, A, b, [0])
        T = start_tableau(np.zeros(2), A, b, [0])
        T[-1, 1] = c[1] - c[0]  # the reduced cost the rebuild overflowed
        with pytest.raises(NonFinite, match="^the simplex tableau is not "):
            solver(c, A, b, T, basis=[0])
        with pytest.raises(NonFinite, match="^the simplex duals are not "):
            from_start(solver, np.array([1e308]), np.array([[1e-10]]),
                       np.array([1e-10]), [0])


@pytest.mark.parametrize("solver", [simplex, oracle_simplex],
                         ids=["simplex", "oracle"])
def test_a_singular_final_basis_is_a_stall(solver):
    with pytest.raises(SimplexStall,
                       match="^singular basis matrix: Singular matrix$"):
        from_start(solver, *SINGULAR_DUALS_LP)


def test_lp_singular_basis_is_a_toolkit_error(matching_pennies,
                                              monkeypatch):
    real_simplex = simplex

    def singular(*args, **kwargs):
        return from_start(real_simplex, *SINGULAR_DUALS_LP)

    monkeypatch.setattr("bnecert.solver.simplex", singular)
    fg = bc.build_finite(matching_pennies, 2)
    with pytest.raises(BnecertError) as info:
        solve_default_lp(fg, matching_pennies)
    assert isinstance(info.value, SimplexStall)
    assert "singular basis" in str(info.value)


def _loop_built_block(fg, player, alpha):
    """c, A, b and the start basis of one player's block of the slack LP,
    entry by entry: columns are the opponent's sigma, then the own z,
    then one slack per own row.  The payoffs are scaled by a power of two
    to a largest magnitude in [1/2, 1) and shifted by -min(0, min), and
    alpha by a power of two to a largest entry in [1/2, 1)."""
    n, L, H = fg.n, fg.L, fg.H
    alpha_exponent = math.frexp(max(alpha))[1]
    alpha = [math.ldexp(a, -alpha_exponent) for a in alpha]
    own, opp = (L, H) if player == 1 else (H, L)

    def payoff(i, x, j, y):
        return fg.U[x, y, i, j] if player == 1 else fg.V[y, x, j, i]

    cells = list(itertools.product(range(n), range(own), range(n),
                                   range(opp)))
    exponent = math.frexp(max(abs(payoff(*cell)) for cell in cells))[1]
    low = min(0.0, min(math.ldexp(payoff(*cell), -exponent)
                       for cell in cells))
    rows, z, slack = n * own, n * opp, n * opp + n
    A = np.zeros((rows + n, slack + rows))
    for i, x, j, y in cells:
        A[i * own + x, j * opp + y] = (
            math.ldexp(payoff(i, x, j, y), -exponent) - low) / n
    for r in range(rows):
        A[r, z + r // own] = -1.0
        A[r, slack + r] = 1.0
    for j in range(n):
        A[rows + j, j * opp: (j + 1) * opp] = 1.0
    c = np.zeros(slack + rows)
    b = np.zeros(rows + n)
    for i in range(n):
        c[z + i] = alpha[i]
        b[rows + i] = 1.0
    # each row's slack, and in each sum-to-one row the opponent type's
    # action of least alpha-weighted payoff against uniform own play;
    # then z[i] in the row of i's best reply to those; exact ties spread
    basis = [slack + r for r in range(rows)]
    weighted = [[sum(alpha[i] * sum(A[i * own + x, j * opp + y]
                                    for x in range(own))
                     for i in range(n))
                 for y in range(opp)]
                for j in range(n)]
    for j, y in enumerate(_loop_spread(weighted, min)):
        basis.append(j * opp + y)
    values = [[sum(A[i * own + x, basis[rows + j]] for j in range(n))
               for x in range(own)]
              for i in range(n)]
    for i, x in enumerate(_loop_spread(values, max)):
        basis[i * own + x] = z + i
    return c, A, b, basis


def _loop_spread(table, best):
    """Each row's first index of its best value; the rows where several
    entries tie exactly at it, sorted by that value, largest first and in
    row order among equals, take turns, the k-th taking entry k of the
    snake order 0, 1, ..., c - 1, c - 1, ..., 1, 0, 0, ... of its c tied
    entries."""
    picks, tied = [], []
    for row in table:
        top = best(row)
        ties = [index for index, value in enumerate(row) if value == top]
        picks.append(ties[0])
        if len(ties) > 1:
            tied.append((top, len(picks) - 1, ties))
    tied.sort(key=lambda item: item[0], reverse=True)  # stable
    for k, (_, r, ties) in enumerate(tied):
        k %= 2 * len(ties)
        picks[r] = ties[k] if k < len(ties) else ties[2 * len(ties) - 1 - k]
    return picks


def _check_loop_build(monkeypatch, fg, alpha1, alpha2):
    """Both blocks' c, A, b and start basis, as solve_lp and _solve_block
    build them, against _loop_built_block's, byte for byte.  Returns the
    captured blocks."""
    blocks = [_slack_lp(monkeypatch, fg, alpha1, alpha2),
              *_captured_lps(monkeypatch,
                             lambda: _solve_block(fg.M2, fg.H, alpha2))]
    for player, alpha, lp in ((1, alpha1, blocks[0]),
                              (2, alpha2, blocks[1])):
        *arrays, _, basis = lp
        *want_arrays, want_basis = _loop_built_block(fg, player, alpha)
        for got, want in zip(arrays, want_arrays):  # c, A and b
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert basis.tolist() == want_basis
    return blocks


@pytest.mark.parametrize("name", ["matching_pennies", "zero_sum_match"])
def test_tied_lp_starts_byte_identical_to_loop_build(name, monkeypatch):
    """Matching games at n = 8, where every opponent action ties in the
    start's first choice and the own actions tie in the second: the
    spread start, not the lowest index, in both blocks."""
    g = bc.load_game_file(ROOT / "demos" / "specs" / f"{name}.json")
    fg = bc.build_finite(g, 8)
    blocks = _check_loop_build(monkeypatch, fg,
                               *default_alphas(fg, g, check_prop1(g)))
    # both actions appear among the sum rows' basic sigma columns and
    # among z's rows; z's 8 columns follow sigma's 16
    for lp in blocks:
        start = lp[4].tolist()
        assert {col % 2 for col in start[-8:]} == {0, 1}
        z_rows = [start.index(16 + i) for i in range(8)]
        assert {row % 2 for row in z_rows} == {0, 1}


def test_lp_constraints_byte_identical_to_loop_build(monkeypatch):
    rng = np.random.default_rng(12)
    n, L, H = 4, 3, 2
    # U is scaled and shifted (its magnitudes reach 3), V neither
    U, V = 4.0 * rng.random((L, H, n, n)) - 1.0, rng.random((L, H, n, n))
    U[1, 0, 2] = 0.0
    V[0, 1, :, 3] = -0.0  # the sign of zero must reach the LP as well
    fg = FiniteGame(n, ("x1", "x2", "x3"), ("y1", "y2"), U, V)
    alpha1, alpha2 = rng.random(n) + 0.5, rng.random(n) + 0.5
    blocks = _check_loop_build(monkeypatch, fg, alpha1, alpha2)
    # the -0.0 entries of V are in player 2's block, rows j = 3, y = 1
    assert np.signbit(blocks[1][1][3 * H + 1, :n * L:L]).all()
    # the types' best replies in player 1's start differ, so the loop
    # checks a choice, not a constant
    z_rows = [blocks[0][4].tolist().index(n * H + i) for i in range(n)]
    assert len({row % L for row in z_rows}) > 1
    # and so do the opponent types' start actions, the last n basics
    assert len({col % H for col in blocks[0][4][-n:].tolist()}) > 1


# ---------------------------------------------------------------------------
# fictitious play

def test_fp_single_action():
    g = make_game([["theta1"]], [["theta2"]])
    res = solve_fp(bc.build_finite(g, 2), max_iters=10, target_gap=1e-9)
    assert res.iterations == 1
    assert res.finite_gap1 == 0.0 and res.finite_gap2 == 0.0


def test_fp_matching_pennies(matching_pennies):
    fg = bc.build_finite(matching_pennies, 1)
    res = solve_fp(fg, max_iters=10 ** 4, target_gap=0.01)
    assert max(res.finite_gap1, res.finite_gap2) <= 0.01
    # closed-form equilibrium value 0.5
    assert ex_ante_value(fg, res.profile, 1) == pytest.approx(0.5, abs=0.02)


def test_fp_coordination(coordination):
    fg = bc.build_finite(coordination, 1)
    res = solve_fp(fg, max_iters=10 ** 4, target_gap=1e-3)
    assert max(res.finite_gap1, res.finite_gap2) <= 1e-3
    # converges toward the pure equilibrium that enumeration confirms
    enum = oracle_solve_enum(fg)
    assert np.argmax(res.profile.s[0]) == np.argmax(enum.profile.s[0])


def test_fp_raises_nonfinite_when_action_values_overflow():
    # player 1's x1 earns C per unit of y2 over two opponent types: C at
    # the uniform start, 1.5 C once player 2 has moved toward y2, which
    # it prefers, so the first gaps are finite and the second are not
    C = 1.5e308
    U, V = np.zeros((2, 2, 2, 2)), np.zeros((2, 2, 2, 2))
    U[0, 1] = C
    V[:, 1] = 1.0
    fg = FiniteGame(2, ("x1", "x2"), ("y1", "y2"), U, V)
    with pytest.raises(NonFinite, match="at iteration 2$"):
        solve_fp(fg, max_iters=100, target_gap=1e-9)


def _is_pure(profile):
    return all(np.isin(rows, (0.0, 1.0)).all()
               for rows in (profile.s, profile.t))


def test_fp_no_convergence_carries_best():
    # matching pennies with type-dependent stakes: no pure equilibrium,
    # so no purified iterate ends the run early
    g = make_game([["1 + theta1", "0"], ["0", "1"]],
                  [["0", "1 + theta2"], ["1", "0"]])
    fg = bc.build_finite(g, 2)
    # enumeration tries every pure profile before any mixed one
    assert not _is_pure(oracle_solve_enum(fg).profile)
    with pytest.raises(NoConvergence) as exc:
        solve_fp(fg, max_iters=30, target_gap=1e-9)
    best = exc.value.result
    assert best.backend == "fp"
    assert np.isfinite(best.finite_gap1) and np.isfinite(best.finite_gap2)


def test_fp_hits_play_a_best_response_at_every_type():
    """On small games with a pure equilibrium (enumeration tries every
    pure profile before any mixed one), fp stops at a pure profile in
    which each type's action attains its row maximum of the action
    values."""
    rng = np.random.default_rng(67)
    hits = 0
    for L, H in ((2, 2), (2, 3), (3, 3)):
        for _ in range(6):
            u, v = ([[random_poly(rng) for _ in range(H)] for _ in range(L)]
                    for _ in range(2))
            g = make_game(u, v)
            for n in (1, 2, 3, 4):
                fg = bc.build_finite(g, n)
                try:
                    if not _is_pure(oracle_solve_enum(fg).profile):
                        continue
                except EquilibriumNotFound:
                    continue
                res = solve_fp(fg, max_iters=300, target_gap=1e-12)
                assert _is_pure(res.profile)
                for player, own, opp in ((1, res.profile.s, res.profile.t),
                                         (2, res.profile.t, res.profile.s)):
                    q = action_values(fg, player, opp)
                    assert np.all(q[own == 1.0] == q.max(axis=1))
                hits += 1
    assert hits >= 40


def test_fp_purifies_a_tie_to_the_lowest_index():
    """Actions 0 and 1 are copies that beat the rest, so at iteration 1
    the uniform start ties them at every type: its purification plays
    action 0 everywhere, an exact equilibrium."""
    rng = np.random.default_rng(71)
    for n in (1, 5, 40):
        for L, H in ((3, 3), (4, 3)):
            fg = _duplicated_actions_game(rng, n, L, H)
            res = solve_fp(fg, max_iters=2000, target_gap=1e-12)
            assert res.iterations == 1
            assert np.all(res.profile.s[:, 0] == 1.0)
            assert np.all(res.profile.t[:, 0] == 1.0)
            assert (res.finite_gap1, res.finite_gap2) == finite_gap(
                fg, res.profile.s, res.profile.t)


def _fp_outcome(solver, fg, target_gap, max_iters=300):
    try:
        res = solver(fg, max_iters=max_iters, target_gap=target_gap)
        converged = True
    except NoConvergence as exc:
        res, converged = exc.result, False
    return (converged, res.iterations, res.finite_gap1, res.finite_gap2,
            res.profile.s.tobytes(), res.profile.t.tobytes())


def test_fp_and_gaps_equal_the_oracle_bit_for_bit():
    rng = np.random.default_rng(31)
    # x1 = x2 and y2 = y3 as actions, so their values tie exactly and the
    # best responses must break the ties the same way
    u = [["theta1", "0", "0"], ["theta1", "0", "0"],
         ["0", "theta2", "theta2"]]
    v = [["0", "1", "1"], ["0", "1", "1"], ["theta1", "0", "0"]]
    games = [make_game(u, v)]
    for L, H in ((2, 2), (2, 3), (3, 2), (3, 3)):
        u, v = ([[random_poly(rng) for _ in range(H)] for _ in range(L)]
                for _ in range(2))
        games.append(make_game(u, v))
    converged = set()
    for g in games:
        for n in (1, 3, 5):
            fg = bc.build_finite(g, n)
            profile = random_profile(rng, n, fg.L, fg.H)
            assert (finite_gap(fg, profile.s, profile.t)
                    == oracle_finite_gap(fg, profile))
            for target in (1e-2, 1e-9):
                got = _fp_outcome(solve_fp, fg, target)
                assert got == _fp_outcome(oracle_solve_fp, fg, target)
                converged.add(got[0])
    assert converged == {True, False}


def test_fp_equals_the_oracle_over_full_runs_at_bench_sizes():
    """The fused loop over 2000 iterations at the bench's level sizes:
    1e-3 is reached mid-run, by the mixed iterate or a purified one, and
    1e-9 is hit by a purified iterate or missed after the full 2000, with
    plain fictitious play's bits."""
    rng = np.random.default_rng(61)
    kinds = collections.Counter()
    for L, H in ((2, 2), (2, 3), (3, 3)):
        u, v = ([[random_poly(rng) for _ in range(H)] for _ in range(L)]
                for _ in range(2))
        g = make_game(u, v)
        for n in (8, 40, 56):
            fg = bc.build_finite(g, n)
            for target in (1e-3, 1e-9):
                got = _fp_bits(solve_fp, fg, target, 2000)
                assert got == _fp_bits(oracle_solve_fp, fg, target, 2000)
                kind = _check_against_plain_fp(fg, got, target, 2000)
                kinds[kind, target] += 1
                if target == 1e-3:
                    assert got[0] is True and got[1] < 2000
                else:
                    assert kind != "mixed"
    assert set(kinds) == {("pure", 1e-3), ("mixed", 1e-3), ("pure", 1e-9),
                          ("missed", 1e-9)}


def _duplicated_actions_game(rng, n, L, H):
    """Random payoffs where actions 0 and 1 of each player are copies of
    each other and beat every other action."""
    U, V = rng.random((L, H, n, n)), rng.random((L, H, n, n))
    U[:2] = U[0] + 1.0
    V[:, :2] = V[:, :1] + 1.0
    return FiniteGame(n, tuple(f"x{x}" for x in range(L)),
                      tuple(f"y{y}" for y in range(H)), U, V)


def test_duplicated_actions_tie_exactly_at_every_level():
    # a blocked matrix-vector kernel (BLAS gemv, numpy's @) rounds some
    # rows apart from identical ones, e.g. at n = 6 with three actions
    rng = np.random.default_rng(41)
    for n in range(1, 65):
        for L, H in ((2, 3), (3, 2), (3, 3), (4, 3)):
            fg = _duplicated_actions_game(rng, n, L, H)
            profile = random_profile(rng, n, L, H)
            for player, rows in ((1, profile.t), (2, profile.s)):
                q = action_values(fg, player, rows)
                assert q[:, 0].tobytes() == q[:, 1].tobytes()
                pure, _ = oracle_finite_best_response(fg, player, rows)
                assert np.all(pure[:, 0] == 1.0)


def test_fp_takes_the_einsum_oracle_trajectories():
    """Where no two distinct payoff rows tie in real arithmetic, rounding
    never decides a best response, so fp takes the einsum's iterates."""
    rng = np.random.default_rng(43)
    # x1 = x2 and y2 = y3 as actions: their values tie exactly
    u, v = ([[random_poly(rng) for _ in range(3)] for _ in range(2)]
            for _ in range(2))
    u[1] = u[0]
    v = [[row[0], row[1], row[1]] for row in v]
    games = [make_game(u, v)]
    for L, H in ((2, 2), (2, 3), (3, 3)):
        u, v = ([[random_poly(rng) for _ in range(H)] for _ in range(L)]
                for _ in range(2))
        games.append(make_game(u, v))
    converged = set()
    for g in games:
        for n in (*range(1, 9), 40, 56):
            fg = bc.build_finite(g, n)
            for target in (1e-2, 1e-9):
                got = _fp_outcome(solve_fp, fg, target)
                want = _fp_outcome(
                    lambda fg, **kw: oracle_solve_fp(
                        fg, values=oracle_action_values, **kw),
                    fg, target)
                # gaps may differ in rounding; the iterates may not
                assert got[:2] + got[4:] == want[:2] + want[4:]
                converged.add(got[0])
    assert converged == {True, False}


def test_action_values_within_the_dot_product_bound_of_einsum():
    rng = np.random.default_rng(47)
    u = 2.0 ** -53
    for n in (1, 2, 5, 16, 33, 56, 96):
        for L, H in ((2, 2), (2, 3), (3, 3), (4, 3)):
            U = rng.random((L, H, n, n)) * 10.0 ** rng.integers(-3, 4)
            V = rng.random((L, H, n, n)) - 0.5
            fg = FiniteGame(n, ("x",) * L, ("y",) * H, U, V)
            profile = random_profile(rng, n, L, H)
            for player, rows, M, terms in ((1, profile.t, fg.M1, n * H),
                                           (2, profile.s, fg.M2, n * L)):
                got = action_values(fg, player, rows)
                want = oracle_action_values(fg, player, rows)
                # either result is within gamma_{k+1} * sum |m * x| * scale
                # of the exact one: k products and sums, then the scaling
                gamma = (terms + 1) * u / (1.0 - (terms + 1) * u)
                size = (np.abs(M) @ np.abs(rows.ravel())).reshape(got.shape)
                bound = 2.0 * gamma * size / n ** 2
                assert np.all(np.abs(got - want) <= bound)


def test_fp_reports_the_gaps_of_its_profile():
    rng = np.random.default_rng(53)
    for L, H in ((2, 2), (2, 3), (3, 3)):
        u, v = ([[random_poly(rng) for _ in range(H)] for _ in range(L)]
                for _ in range(2))
        g = make_game(u, v)
        for n in (1, 4, 9, 24):
            fg = bc.build_finite(g, n)
            for target in (1e-2, 1e-9):
                try:
                    res = solve_fp(fg, max_iters=200, target_gap=target)
                except NoConvergence as exc:
                    res = exc.result
                gaps = finite_gap(fg, res.profile.s, res.profile.t)
                assert (res.finite_gap1, res.finite_gap2) == gaps


def _fp_bits(solver, fg, target_gap, max_iters):
    """_fp_outcome with the gaps as bits, or the NonFinite message."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = _fp_outcome(solver, fg, target_gap, max_iters)
    except NonFinite as exc:
        return "NonFinite", str(exc)
    return (*out[:2], out[2].hex(), out[3].hex(), *out[4:])


def _plain_fp(fg, **kw):
    """Fictitious play without the purified check: the old trajectory."""
    return oracle_solve_fp(fg, purify=False, **kw)


def _check_against_plain_fp(fg, got, target_gap, max_iters):
    """The kind of the _fp_bits outcome got, after checking it: "pure" for
    a purified hit, which is pure, within target_gap and earlier than
    plain fictitious play stops, if it does; otherwise plain fictitious
    play's outcome, bit for bit: "mixed" when that reached target_gap,
    "missed" when not, and "nonfinite" when it raised NonFinite."""
    plain = _fp_bits(_plain_fp, fg, target_gap, max_iters)
    if got == plain:
        return {True: "mixed", False: "missed"}.get(got[0], "nonfinite")
    assert got[0] is True and got[1] <= max_iters
    assert max(float.fromhex(got[2]), float.fromhex(got[3])) <= target_gap
    for rows in got[4:]:
        assert np.isin(np.frombuffer(rows), (0.0, 1.0)).all()
    if plain[0] is True:
        assert got[1] < plain[1]
    return "pure"


@st.composite
def fp_games(draw):
    """Random finite games: general-sum, constant-sum (whose fp runs are
    long and switch often), constant-sum with each player's last action a
    copy of its first (exact ties) or on a quarter grid (ties between
    distinct actions), and games whose action values overflow once
    enough weight has moved onto one opponent action."""
    L = draw(st.integers(1, 3))
    H = draw(st.integers(1, 3))
    n = draw(st.integers(1, 20))
    kind = draw(st.sampled_from(["general", "constant", "duplicated",
                                 "quarter", "overflow"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    U, V = rng.random((L, H, n, n)), rng.random((L, H, n, n))
    if kind == "duplicated":
        U[-1] = U[0]
        U[:, -1] = U[:, 0]
    elif kind == "quarter":
        U = np.floor(4.0 * U) / 4.0
    elif kind == "overflow":
        # player 2 prefers y, and x's values against it overflow once
        # more than a share f of player 2's weight is on y
        x, y = rng.integers(L), rng.integers(H)
        f = 1.0 - 10.0 ** rng.uniform(-3.0, -0.5)
        V[:, y] += 1.0
        U[x, y] = np.finfo(float).max / max(1.0, n * f)
    if kind in ("constant", "duplicated", "quarter"):
        V = 1.0 - U
    return FiniteGame(n, tuple(f"x{x}" for x in range(L)),
                      tuple(f"y{y}" for y in range(H)), U, V)


@settings(max_examples=150, deadline=None)
@given(fg=fp_games(),
       max_iters=st.sampled_from([1, _FP_BLOCK - 1, _FP_BLOCK,
                                  _FP_BLOCK + 1, 2 * _FP_BLOCK + 1, 300]),
       reach=st.one_of(st.none(), st.just("exact"), st.floats(0.0, 1.0)))
def test_fp_equals_the_oracle_over_random_games(fg, max_iters, reach):
    """Blocks end where a best response changes, where the target is
    reached and at max_iters; each must leave the oracle's trajectory,
    and a purified iterate must hit where the oracle's does.
    reach=None misses the target, and "exact" aims at a gap of 0;
    otherwise the target is the oracle's best gap over the first reach *
    max_iters iterations, so the run stops there or earlier.  A run that
    no purified iterate ends gives plain fictitious play's bits."""
    target = 0.0 if reach == "exact" else -1.0
    if reach not in (None, "exact"):
        first = _fp_bits(oracle_solve_fp, fg, -1.0,
                         max(1, round(reach * max_iters)))
        if first[0] != "NonFinite":
            target = max(float.fromhex(first[2]), float.fromhex(first[3]))
    got = _fp_bits(solve_fp, fg, target, max_iters)
    assert got == _fp_bits(oracle_solve_fp, fg, target, max_iters)
    _check_against_plain_fp(fg, got, target, max_iters)


def _plain_trajectory(fg, max_iters):
    """The oracle's fictitious play iterates (s, t, br1, br2) for k = 1 to
    max_iters: iteration k's rows are (counts + 1/L) / k, br1 and br2
    their best responses as one-hot rows."""
    c1, c2 = np.zeros((fg.n, fg.L)), np.zeros((fg.n, fg.H))
    for k in range(1, max_iters + 1):
        s = (c1 + 1.0 / fg.L) / k
        t = (c2 + 1.0 / fg.H) / k
        br1, _ = oracle_finite_best_response(fg, 1, t)
        br2, _ = oracle_finite_best_response(fg, 2, s)
        yield s, t, br1, br2
        c1 += br1
        c2 += br2


def _best_response_switches(fg, max_iters):
    """The iterations at which the oracle's best responses change, on the
    oracle's trajectory."""
    pures = [br1.tobytes() + br2.tobytes()
             for _, _, br1, br2 in _plain_trajectory(fg, max_iters)]
    return [k for k in range(2, max_iters + 1) if pures[k - 1] != pures[k - 2]]


def test_fp_equals_the_oracle_where_best_responses_switch_in_blocks():
    """A bench-size 3x3 game at n=40 whose best responses change about
    every 8 iterations, some of them after more than 2 * _FP_BLOCK
    unchanged ones, where fp's blocks have their full length: 1e-3 is
    reached mid-run, 1e-9 is missed after the full 2000."""
    rng = np.random.default_rng(72)
    u, v = ([[random_poly(rng) for _ in range(3)] for _ in range(3)]
            for _ in range(2))
    fg = bc.build_finite(make_game(u, v), 40)
    switches = _best_response_switches(fg, 2000)
    runs = np.diff([1, *switches])
    assert len(switches) > 200 and np.sum(runs > 2 * _FP_BLOCK) >= 3
    for target in (1e-3, 1e-9):
        got = _fp_bits(solve_fp, fg, target, 2000)
        assert got == _fp_bits(oracle_solve_fp, fg, target, 2000)
        assert got[0] == (target == 1e-3)
        # no purified iterate hits
        assert _check_against_plain_fp(fg, got, target, 2000) != "pure"


def _wrong_predictor(kind, rng):
    """A stand-in for solver._predict_aims whose aims are wrong: "shift"
    moves one agent in every run of equal predicted aims to its next
    action, "late" adds a run of such aims from halfway through the block,
    and "random" aims each step at random actions."""
    predict = bc.solver._predict_aims

    def wrong(fg, offsets, owner, W, slopes, aimed):
        slopes = predict(fg, offsets, owner, W, slopes, aimed)
        widths = np.bincount(owner)  # the actions of each agent
        size = len(aimed)

        def shifted(aim):
            aim, i = aim.copy(), rng.integers(aim.size)
            aim[i] = offsets[i] + (aim[i] - offsets[i] + 1) % widths[i]
            return aim

        firsts = np.flatnonzero(
            np.append(True, (aimed[1:] != aimed[:-1]).any(axis=1)))
        runs = list(zip(firsts, [*firsts[1:], size]))  # of equal aims
        if kind == "shift":
            for j, end in runs:
                aimed[j:end] = shifted(aimed[j])
        elif kind == "late":
            half = size // 2
            end = next(end for _, end in runs if end > half)
            aimed[half:end] = shifted(aimed[half])
        else:
            aimed[:] = offsets + rng.integers(widths, size=aimed.shape)
        wrong.calls += 1
        return slopes

    wrong.calls = 0
    return wrong


@settings(max_examples=60, deadline=None)
@given(fg=fp_games(), kind=st.sampled_from(["shift", "late", "random"]),
       seed=st.integers(0, 2 ** 32 - 1), target=st.sampled_from([-1.0, 1e-3]))
def test_fp_equals_the_oracle_whatever_the_predicted_aims(fg, kind, seed,
                                                          target):
    """Every step of a block is checked, so aims that the predictor gets
    wrong end blocks early but leave the oracle's bits."""
    wrong = _wrong_predictor(kind, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bc.solver, "_predict_aims", wrong)
        got = _fp_bits(solve_fp, fg, target, 300)
    assert got == _fp_bits(oracle_solve_fp, fg, target, 300)


def test_fp_with_wrong_aims_on_a_game_that_switches_often():
    """The 3x3 game of the block test, at n = 8 over 600 iterations,
    where blocks predict often: with every kind of wrong aim, fp keeps
    the oracle's bits."""
    rng = np.random.default_rng(72)
    u, v = ([[random_poly(rng) for _ in range(3)] for _ in range(3)]
            for _ in range(2))
    fg = bc.build_finite(make_game(u, v), 8)
    want = _fp_bits(oracle_solve_fp, fg, 1e-9, 600)
    for kind in ("shift", "late", "random"):
        wrong = _wrong_predictor(kind, np.random.default_rng(5))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bc.solver, "_predict_aims", wrong)
            assert _fp_bits(solve_fp, fg, 1e-9, 600) == want
        assert wrong.calls > 10


def test_fp_blocks_run_through_predicted_switches(monkeypatch):
    """On the bench generator's general_sum-2x2-1 (seed 1) at n = 8, a
    2000-iteration run took 121 blocks when every best-response change
    ended one; blocks that run through predicted switches take at most
    half as many.  A block makes one np.vecdot per player into its
    buffer of action values."""
    fg = bc.build_finite(generated_general_sum_game(1, 1, 2, 2), 8)
    vecdot, calls = np.vecdot, []

    def counting(*args, **kwargs):
        calls.append("out" in kwargs)
        return vecdot(*args, **kwargs)

    monkeypatch.setattr(np, "vecdot", counting)
    with pytest.raises(NoConvergence):
        solve_fp(fg, max_iters=2000, target_gap=1e-4)
    assert sum(calls) // 2 <= 121 // 2


@pytest.mark.parametrize("kind", [None, "late"])
def test_fp_block_at_iteration_k_runs_min_of_64_k_and_the_iterations_left(
        kind, monkeypatch):
    """On the game of the block test, the block that starts at iteration
    k runs min(_FP_BLOCK, k, max_iters - k + 1) steps, read from the
    leading size of its np.vecdot(..., out=) calls.  A block whose aim is
    wrong at step last has exact rows through step last only, and the
    next block starts at k + last + 1, under the same rule; "late" wrong
    aims end many blocks that way."""
    fg = bc.build_finite(generated_general_sum_game(1, 1, 2, 2), 8)
    max_iters = 2000
    plain = np.array([np.concatenate([s.ravel(), t.ravel()])
                      for s, t, _, _ in _plain_trajectory(fg, max_iters)])
    vecdot, opponent_rows = np.vecdot, []

    def recording(*args, **kwargs):
        if "out" in kwargs:
            opponent_rows.append(args[1][:, 0].copy())
        return vecdot(*args, **kwargs)

    monkeypatch.setattr(np, "vecdot", recording)
    if kind is not None:
        monkeypatch.setattr(bc.solver, "_predict_aims",
                            _wrong_predictor(kind, np.random.default_rng(3)))
    with pytest.raises(NoConvergence):
        solve_fp(fg, max_iters=max_iters, target_gap=1e-4)
    k, early = 1, 0
    # player 1's values take t's rows, player 2's take s's
    for t, s in zip(opponent_rows[::2], opponent_rows[1::2]):
        size = len(s)
        assert size == min(_FP_BLOCK, k, max_iters - k + 1)
        left = ~(np.hstack([s, t]) == plain[k - 1:k - 1 + size]).all(axis=1)
        assert not left[0]
        last = int(left.argmax()) - 1 if left.any() else size - 1
        early += last < size - 1
        k += last + 1
    assert k == max_iters + 1
    assert early > 10 if kind == "late" else early == 0


def test_fp_stops_where_exact_rational_fp_stops():
    """On the bench generator's general-sum games at n <= 4, fp and its
    oracle stop at the iteration, and on the profile, of fictitious play
    in exact rational arithmetic, wherever no best response on the exact
    trajectory ties two action values: there floating point decides the
    tie by rounding.  The counts make purification ties exact; the
    running average rounded them apart, and (1, 5, 3x3) at n = 2 stopped
    at 12 instead of 11, (3, 5, 3x3) at n = 4 at 4 instead of 3 and
    (2, 2, 2x3) at n = 2 at 5 instead of 6."""
    games = [((seed, index, L, H), generated_general_sum_game(seed, index,
                                                             L, H))
             for seed in (1, 2, 3)
             for index, L, H in ((1, 2, 2), (2, 2, 3), (4, 2, 3), (5, 3, 3))]
    # x1 = x2: their values tie at every best response, so every run is
    # skipped
    u = [["theta1", "0", "0"], ["theta1", "0", "0"],
         ["0", "theta2", "theta2"]]
    v = [["0", "1", "1"], ["0", "1", "1"], ["theta1", "0", "0"]]
    games.append(("ties", make_game(u, v)))
    compared, skipped = set(), set()
    for name, g in games:
        for n in (1, 2, 3, 4):
            fg = bc.build_finite(g, n)
            stop, s, t, tied = exact_solve_fp(fg, 250, 1e-4)
            if tied:
                skipped.add((name, n))
                continue
            for solver in (solve_fp, oracle_solve_fp):
                try:
                    res = solver(fg, max_iters=250, target_gap=1e-4)
                except NoConvergence:
                    assert stop is None, (name, n, solver)
                    continue
                assert res.iterations == stop, (name, n, solver)
                for got, want in ((res.profile.s, s), (res.profile.t, t)):
                    assert np.allclose(got, want.astype(float), rtol=1e-13,
                                       atol=0.0), (name, n, solver)
            compared.add((name, n))
    assert {((1, 5, 3, 3), 2), ((3, 5, 3, 3), 4),
            ((2, 2, 2, 3), 2)} <= compared
    assert len(compared) == 48
    assert skipped == {("ties", n) for n in (1, 2, 3, 4)}


@pytest.mark.parametrize("target_gap", [math.nan, np.float64(math.nan),
                                        "1e-4", None, 1e-4 + 0j])
def test_fp_rejects_a_target_gap_that_is_nan_or_not_real(target_gap):
    # no gap is <= nan: without the check, a nan target ran the whole
    # budget and raised NoConvergence as if the run had missed
    g = make_game([["theta1", "0"], ["0", "theta2"]],
                  [["0", "theta2"], ["theta1", "0"]])
    fg = bc.build_finite(g, 4)
    with pytest.raises(ValueError, match="^target_gap must be a real"):
        solve_fp(fg, max_iters=2000, target_gap=target_gap)


def test_fp_accepts_an_infinite_target_gap():
    # a negative one turns hits off (test_fp_accepts_numpy_integer_max_iters)
    fg = identity_finite_game()
    for target in (math.inf, np.float64(math.inf)):
        assert solve_fp(fg, max_iters=3, target_gap=target).iterations == 1


@pytest.mark.parametrize("max_iters", [2.5, 2.0, True, "3", None])
def test_fp_rejects_a_max_iters_that_is_not_an_integer(max_iters):
    fg = identity_finite_game()
    with pytest.raises(ValueError, match="^max_iters must be an integer"):
        solve_fp(fg, max_iters=max_iters, target_gap=1e-6)


def test_fp_accepts_numpy_integer_max_iters():
    fg = identity_finite_game()
    for max_iters in (np.int64(3), np.int32(3), np.intp(3)):
        with pytest.raises(NoConvergence) as exc:
            solve_fp(fg, max_iters=max_iters, target_gap=-1.0)
        assert exc.value.result.iterations >= 1
    with pytest.raises(ValueError, match="^max_iters must be >= 1$"):
        solve_fp(fg, max_iters=np.int64(0), target_gap=1e-6)


def test_fp_does_not_depend_on_the_blas_thread_count():
    """The simplex's refactorizations may round with the BLAS thread
    count; fp's trajectory must not depend on it."""
    code = (
        "import hashlib, numpy as np; "
        "from bnecert import FiniteGame, solve_fp; "
        "from bnecert.errors import NoConvergence\n"
        "rng = np.random.default_rng(59)\n"
        "U, V = rng.random((2, 3, 56, 56)), rng.random((2, 3, 56, 56))\n"
        "fg = FiniteGame(56, ('x1', 'x2'), ('y1', 'y2', 'y3'), U, V)\n"
        "try:\n"
        "    res = solve_fp(fg, max_iters=500, target_gap=1e-9)\n"
        "except NoConvergence as exc:\n"
        "    res = exc.result\n"
        "p = res.profile\n"
        "print(res.iterations, res.finite_gap1.hex(), res.finite_gap2.hex(),"
        " hashlib.sha256(p.s.tobytes() + p.t.tobytes()).hexdigest())\n"
    )
    env = src_env()
    outputs = []
    for threads in ("1", None):
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# enumeration oracle (conftest), pinned to known answers

def test_enum_coordination(coordination):
    res = oracle_solve_enum(bc.build_finite(coordination, 1))
    assert np.array_equal(res.profile.s, [[1.0, 0.0]])
    assert np.array_equal(res.profile.t, [[1.0, 0.0]])
    assert res.finite_gap1 == 0.0 and res.finite_gap2 == 0.0


def test_enum_matching_pennies_mixed(matching_pennies):
    res = oracle_solve_enum(bc.build_finite(matching_pennies, 1))
    assert np.allclose(res.profile.s, 0.5, atol=1e-9)
    assert np.allclose(res.profile.t, 0.5, atol=1e-9)
    assert max(res.finite_gap1, res.finite_gap2) <= 1e-10


def test_enum_guard(zero_sum_match):
    fg = bc.build_finite(zero_sum_match, 11)  # 2^11 * 2^11 > 1e6
    with pytest.raises(TooLarge):
        oracle_solve_enum(fg)


def test_enum_without_an_equilibrium_it_can_find(matching_pennies):
    # no pure equilibrium at n = 3, and supports are enumerated only to n = 2
    with pytest.raises(EquilibriumNotFound):
        oracle_solve_enum(bc.build_finite(matching_pennies, 3))


# ---------------------------------------------------------------------------
# the slack-program objective identity

def _assert_ck_identity(fg, profile):
    n = fg.n
    alpha1 = np.full(n, 1.0 / n)
    alpha2 = np.full(n, 1.0 / n)
    obj = ck_objective(fg, profile.s, profile.t, alpha1, alpha2)
    # independent regret computation in interim units
    q1 = action_values(fg, 1, profile.t) * n
    q2 = action_values(fg, 2, profile.s) * n
    regret1 = q1.max(axis=1) - (profile.s * q1).sum(axis=1)
    regret2 = q2.max(axis=1) - (profile.t * q2).sum(axis=1)
    want = -(alpha1 * regret1).sum() - (alpha2 * regret2).sum()
    assert abs(obj - want) <= 1e-10
    assert obj <= 1e-10
    gap1, gap2 = finite_gap(fg, profile.s, profile.t)
    if obj >= -1e-10:
        assert gap1 <= 1e-9 and gap2 <= 1e-9
    if max(gap1, gap2) > 1e-9:
        assert obj < -1e-10


def test_ck_identity_at_solver_outputs(matching_pennies, zero_sum_match):
    rng = np.random.default_rng(21)
    for g in (matching_pennies, zero_sum_match):
        for n in (1, 2, 4):
            fg = bc.build_finite(g, n)
            _assert_ck_identity(fg, solve_default_lp(fg, g).profile)
            _assert_ck_identity(fg, random_profile(rng, n, 2, 2))
    fg = bc.build_finite(matching_pennies, 1)
    try:
        fp = solve_fp(fg, max_iters=200, target_gap=1e-9)
    except NoConvergence as exc:
        fp = exc.result
    _assert_ck_identity(fg, fp.profile)

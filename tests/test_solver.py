"""Finite-game solvers: best responses, gaps, LP, fictitious play, oracle."""

import numpy as np
import pytest

import bnecert as bc
from bnecert.discretize import FiniteGame
from bnecert.errors import (
    BnecertError,
    Infeasible,
    NoConvergence,
    Prop1Violation,
    SimplexStall,
    TooLarge,
    UnboundedObjective,
)
from bnecert.solver import (
    action_values,
    check_prop1,
    ck_objective,
    default_alphas,
    finite_best_response,
    finite_gap,
    simplex,
    solve_enum,
    solve_fp,
    solve_lp,
)

from conftest import (
    ex_ante_value,
    make_game,
    random_poly_game,
    random_profile,
)


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
    pure, value = finite_best_response(fg, 1, np.array([[0.5, 0.5]]))
    assert np.array_equal(pure, [[1.0, 0.0]])  # tie -> lowest index
    assert value == pytest.approx(0.5, abs=1e-15)


def test_best_response_pure_opponent():
    fg = identity_finite_game()
    pure, value = finite_best_response(fg, 1, np.array([[1.0, 0.0]]))
    assert np.array_equal(pure, [[1.0, 0.0]])
    assert value == pytest.approx(1.0, abs=1e-15)


def test_best_response_n2_match_game(zero_sum_match):
    fg = bc.build_finite(zero_sum_match, 2)
    t = np.array([[1.0, 0.0], [1.0, 0.0]])  # opponent always y1
    pure, value = finite_best_response(fg, 1, t)
    assert np.array_equal(pure, [[1.0, 0.0], [1.0, 0.0]])
    # brute-force reference sum over every (i, j) grid cell
    want = sum(0.25 * fg.U[0, 0, i, j] for i in range(2) for j in range(2))
    assert value == pytest.approx(want, abs=1e-14)


def test_finite_gap_single_action():
    g = make_game([["theta1"]], [["theta2"]])
    fg = bc.build_finite(g, 3)
    gaps = finite_gap(fg, bc.BehavioralProfile.uniform(3, 1, 1))
    assert gaps == (0.0, 0.0)


def test_finite_gap_matching_pennies(matching_pennies):
    fg = bc.build_finite(matching_pennies, 1)
    uniform = bc.BehavioralProfile.uniform(1, 2, 2)
    gap1, gap2 = finite_gap(fg, uniform)
    assert abs(gap1) <= 1e-12 and abs(gap2) <= 1e-12

    lopsided = bc.BehavioralProfile(np.array([[1.0, 0.0]]),
                                    np.array([[0.5, 0.5]]))
    gap1, gap2 = finite_gap(fg, lopsided)
    assert gap1 == pytest.approx(0.0, abs=1e-12)
    assert gap2 == pytest.approx(0.5, abs=1e-8)


def test_gap_nonnegativity_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = random_poly_game(rng)
        n = int(rng.integers(1, 6))
        fg = bc.build_finite(g, n)
        profile = random_profile(rng, n, 2, 2)
        gap1, gap2 = finite_gap(fg, profile)
        assert gap1 >= -1e-10 and gap2 >= -1e-10


def test_scaling_invariance_of_argmax():
    rng = np.random.default_rng(9)
    g = random_poly_game(rng)
    fg = bc.build_finite(g, 4)
    t = random_profile(rng, 4, 2, 2).t
    base, _ = finite_best_response(fg, 1, t)
    for lam in (0.5, 3.0, 100.0):
        scaled = FiniteGame(n=4, actions1=fg.actions1, actions2=fg.actions2,
                            U=fg.U * lam, V=fg.V)
        pure, _ = finite_best_response(scaled, 1, t)
        assert np.array_equal(pure, base)


# ---------------------------------------------------------------------------
# linearizability detection

def test_prop1_constant_sum(matching_pennies):
    res = check_prop1(matching_pennies)
    assert res.kind == "zero_sum"
    assert res.c == pytest.approx(1.0, abs=1e-12)


def test_prop1_zero_sum(zero_sum_match):
    res = check_prop1(zero_sum_match)
    assert res.kind == "zero_sum"
    assert res.c == pytest.approx(0.0, abs=1e-12)
    assert res.linearizable


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


def test_prop1_violation():
    u = [["theta1*theta2 + 1"]]
    v = [["-(1+theta2)*(theta1*theta2 + 1)/(1+theta1)"]]
    g = make_game(u, v, m1="1", m2="1+theta2")
    with pytest.raises(Prop1Violation):
        check_prop1(g)


# ---------------------------------------------------------------------------
# simplex core

def test_simplex_bounded_ub():
    x, _ = simplex(np.array([-1.0, 0.0]),
                   A_ub=[[1.0, 0.0], [0.0, 1.0]], b_ub=[3.0, 1.0])
    assert x[0] == pytest.approx(3.0, abs=1e-12)


def test_simplex_equality():
    # min x + y s.t. x + y = 2, x - y = 0
    x, _ = simplex(np.array([1.0, 1.0]),
                   A_eq=[[1.0, 1.0], [1.0, -1.0]], b_eq=[2.0, 0.0])
    assert x == pytest.approx([1.0, 1.0], abs=1e-10)


def test_simplex_infeasible():
    with pytest.raises(Infeasible):
        simplex(np.array([0.0]), A_eq=[[1.0]], b_eq=[-1.0])


def test_simplex_unbounded():
    with pytest.raises(UnboundedObjective):
        simplex(np.array([-1.0, 0.0]), A_ub=[[0.0, 1.0]], b_ub=[1.0])


# ---------------------------------------------------------------------------
# LP backend

def test_lp_matching_pennies_uniform(matching_pennies):
    for n in (1, 3):
        fg = bc.build_finite(matching_pennies, n)
        res = solve_lp(fg)
        assert res.backend == "lp"
        assert res.finite_gap1 <= 1e-8 and res.finite_gap2 <= 1e-8
        # with type-independent payoffs only the aggregate mixture is
        # pinned down; it must be the unique 50/50 equilibrium mixture
        assert np.allclose(res.profile.s.mean(axis=0), 0.5, atol=1e-7)
        assert np.allclose(res.profile.t.mean(axis=0), 0.5, atol=1e-7)


def test_lp_single_action():
    g = make_game([["theta1"]], [["-theta1"]])
    res = solve_lp(bc.build_finite(g, 2))
    assert res.finite_gap1 == 0.0 and res.finite_gap2 == 0.0


def test_lp_cross_checked_against_enum(zero_sum_match):
    fg = bc.build_finite(zero_sum_match, 2)
    lp = solve_lp(fg)
    enum = solve_enum(fg)
    assert lp.finite_gap1 <= 1e-8 and lp.finite_gap2 <= 1e-8
    assert abs(ex_ante_value(fg, lp.profile, 1)
               - ex_ante_value(fg, enum.profile, 1)) <= 1e-8


def test_lp_backend_value_agreement(matching_pennies, zero_sum_match):
    # zero-sum equilibrium value is unique across backends
    for g in (matching_pennies, zero_sum_match):
        for n in (1, 2, 4):
            fg = bc.build_finite(g, n)
            lp = solve_lp(fg)
            try:
                fp = solve_fp(fg, max_iters=4000, target_gap=1e-6)
            except NoConvergence as exc:
                fp = exc.result
            if max(fp.finite_gap1, fp.finite_gap2) <= 1e-6:
                assert abs(ex_ante_value(fg, lp.profile, 1)
                           - ex_ante_value(fg, fp.profile, 1)) <= 1e-5


def test_lp_moderate_level(zero_sum_match):
    fg = bc.build_finite(zero_sum_match, 16)
    res = solve_lp(fg)
    assert res.finite_gap1 <= 1e-8 and res.finite_gap2 <= 1e-8


def test_lp_rejects_bad_alphas(matching_pennies):
    fg = bc.build_finite(matching_pennies, 1)
    with pytest.raises(ValueError):
        solve_lp(fg, np.array([0.0]), np.array([1.0]))


def test_lp_singular_basis_is_a_toolkit_error(matching_pennies, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("bnecert.solver.simplex", singular)
    fg = bc.build_finite(matching_pennies, 2)
    with pytest.raises(BnecertError) as info:
        solve_lp(fg)
    assert isinstance(info.value, SimplexStall)
    assert "singular basis" in str(info.value)


def _loop_built_constraints(fg):
    """A_ub and A_eq of the slack LP, entry by entry."""
    n, L, H = fg.n, fg.L, fg.H
    N1, N2 = n * L, n * H
    nvar = N1 + N2 + 2 * n
    A_ub = np.zeros((N1 + N2, nvar))
    for i in range(n):
        for x in range(L):
            r = i * L + x
            for j in range(n):
                for y in range(H):
                    A_ub[r, N1 + j * H + y] = fg.U[x, y, i, j] / n
            A_ub[r, N1 + N2 + i] = -1.0
    for j in range(n):
        for y in range(H):
            r = N1 + j * H + y
            for i in range(n):
                for x in range(L):
                    A_ub[r, i * L + x] = fg.V[x, y, i, j] / n
            A_ub[r, N1 + N2 + n + j] = -1.0
    A_eq = np.zeros((2 * n, nvar))
    for i in range(n):
        A_eq[i, i * L: (i + 1) * L] = 1.0
    for j in range(n):
        A_eq[n + j, N1 + j * H: N1 + (j + 1) * H] = 1.0
    return A_ub, A_eq


def test_lp_constraints_byte_identical_to_loop_build(monkeypatch):
    class Captured(Exception):
        pass

    def capture(*args):
        raise Captured(args)

    monkeypatch.setattr("bnecert.solver.simplex", capture)
    rng = np.random.default_rng(12)
    n, L, H = 4, 3, 2
    U, V = rng.random((L, H, n, n)), rng.random((L, H, n, n))
    U[1, 0, 2] = 0.0
    V[0, 1, :, 3] = -0.0  # the sign of zero must reach the LP as well
    fg = FiniteGame(n, ("x1", "x2", "x3"), ("y1", "y2"), U, V)
    with pytest.raises(Captured) as info:
        solve_lp(fg)
    _, A_ub, b_ub, A_eq, b_eq = info.value.args[0]
    want_ub, want_eq = _loop_built_constraints(fg)
    assert A_ub.tobytes() == want_ub.tobytes()
    assert A_eq.tobytes() == want_eq.tobytes()
    assert b_ub.tobytes() == np.zeros(n * (L + H)).tobytes()
    assert b_eq.tobytes() == np.ones(2 * n).tobytes()


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
    # closed-form equilibrium value 0.5 (plus the 1e-9 shift)
    assert ex_ante_value(fg, res.profile, 1) == pytest.approx(0.5, abs=0.02)


def test_fp_coordination(coordination):
    fg = bc.build_finite(coordination, 1)
    res = solve_fp(fg, max_iters=10 ** 4, target_gap=1e-3)
    assert max(res.finite_gap1, res.finite_gap2) <= 1e-3
    # converges toward the pure equilibrium that enumeration confirms
    enum = solve_enum(fg)
    assert np.argmax(res.profile.s[0]) == np.argmax(enum.profile.s[0])


def test_fp_no_convergence_carries_best():
    rng = np.random.default_rng(0)
    fg = bc.build_finite(random_poly_game(rng), 2)
    with pytest.raises(NoConvergence) as exc:
        solve_fp(fg, max_iters=30, target_gap=1e-9)
    best = exc.value.result
    assert best.backend == "fp"
    assert np.isfinite(best.finite_gap1) and np.isfinite(best.finite_gap2)


# ---------------------------------------------------------------------------
# enumeration oracle

def test_enum_coordination(coordination):
    res = solve_enum(bc.build_finite(coordination, 1))
    assert np.array_equal(res.profile.s, [[1.0, 0.0]])
    assert np.array_equal(res.profile.t, [[1.0, 0.0]])
    assert res.finite_gap1 == 0.0 and res.finite_gap2 == 0.0


def test_enum_matching_pennies_mixed(matching_pennies):
    res = solve_enum(bc.build_finite(matching_pennies, 1))
    assert np.allclose(res.profile.s, 0.5, atol=1e-9)
    assert np.allclose(res.profile.t, 0.5, atol=1e-9)
    assert max(res.finite_gap1, res.finite_gap2) <= 1e-10


def test_enum_guard(zero_sum_match):
    fg = bc.build_finite(zero_sum_match, 11)  # 2^11 * 2^11 > 1e6
    with pytest.raises(TooLarge):
        solve_enum(fg)


# ---------------------------------------------------------------------------
# the slack-program objective identity

def _assert_ck_identity(fg, profile):
    n = fg.n
    alpha1 = np.full(n, 1.0 / n)
    alpha2 = np.full(n, 1.0 / n)
    obj = ck_objective(fg, profile, alpha1, alpha2)
    # independent regret computation in interim units
    q1 = action_values(fg, 1, profile.t) * n
    q2 = action_values(fg, 2, profile.s) * n
    regret1 = q1.max(axis=1) - (profile.s * q1).sum(axis=1)
    regret2 = q2.max(axis=1) - (profile.t * q2).sum(axis=1)
    want = -(alpha1 * regret1).sum() - (alpha2 * regret2).sum()
    assert abs(obj - want) <= 1e-10
    assert obj <= 1e-10
    gap1, gap2 = finite_gap(fg, profile)
    if obj >= -1e-10:
        assert gap1 <= 1e-9 and gap2 <= 1e-9
    if max(gap1, gap2) > 1e-9:
        assert obj < -1e-10


def test_ck_identity_at_solver_outputs(matching_pennies, zero_sum_match):
    rng = np.random.default_rng(21)
    for g in (matching_pennies, zero_sum_match):
        for n in (1, 2, 4):
            fg = bc.build_finite(g, n)
            _assert_ck_identity(fg, solve_lp(fg).profile)
            _assert_ck_identity(fg, random_profile(rng, n, 2, 2))
    fg = bc.build_finite(matching_pennies, 1)
    try:
        fp = solve_fp(fg, max_iters=200, target_gap=1e-9)
    except NoConvergence as exc:
        fp = exc.result
    _assert_ck_identity(fg, fp.profile)

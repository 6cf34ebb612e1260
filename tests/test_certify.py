"""Certification against the continuous game: values, deviations, gaps."""

import numpy as np
import pytest

import bnecert as bc
from bnecert.certify import best_deviation_integrand
from bnecert.solver import solve_lp

from conftest import (
    make_game,
    matching_pennies_game,
    naive_profile_value,
    oracle_payoff,
    random_poly,
    random_poly_game,
    random_profile,
    riemann_br_value,
    zero_sum_match_game,
)


def pure_step(n, actions, index):
    weights = np.zeros((n, len(actions)))
    weights[:, index] = 1.0
    return bc.StepStrategy(n=n, actions=tuple(actions), weights=weights)


# ---------------------------------------------------------------------------
# profile values

def test_profile_value_single_atom():
    g = make_game([["theta1*theta2"]], [["0"]])
    F = pure_step(1, ("x1",), 0)
    G = pure_step(1, ("y1",), 0)
    assert bc.profile_value(g, F, G, 1) == pytest.approx(1.0, abs=1e-8)


def test_profile_value_constant_times_prior():
    g = make_game([["3"]], [["0"]], prior="theta1+theta2")
    n = 2
    F = pure_step(n, ("x1",), 0)
    G = pure_step(n, ("y1",), 0)
    atoms = (np.arange(n) + 1.0) / n
    avg_b = np.mean([[g.prior(t1, t2) for t2 in atoms] for t1 in atoms])
    assert bc.profile_value(g, F, G, 1) == pytest.approx(3.0 * avg_b,
                                                        abs=1e-8)


def test_profile_value_matches_naive_loop():
    rng = np.random.default_rng(13)
    g = zero_sum_match_game()
    for n in (1, 2, 4):
        profile = random_profile(rng, n, 2, 2)
        F = bc.lift(profile, 1, g.actions1)
        G = bc.lift(profile, 2, g.actions2)
        for player in (1, 2):
            got = bc.profile_value(g, F, G, player)
            want = naive_profile_value(g, F, G, player)
            assert got == pytest.approx(want, abs=1e-13)


def test_profile_value_ignores_zero_mass_actions():
    two = make_game([["theta1*theta2", "5"], ["5", "5"]],
                    [["0", "0"], ["0", "0"]])
    one = make_game([["theta1*theta2"]], [["0"]])
    F2 = pure_step(2, two.actions1, 0)  # zero mass on x2 throughout
    G2 = pure_step(2, two.actions2, 0)
    F1 = pure_step(2, ("x1",), 0)
    G1 = pure_step(2, ("y1",), 0)
    assert bc.profile_value(two, F2, G2, 1) == pytest.approx(
        bc.profile_value(one, F1, G1, 1), abs=1e-12)


# ---------------------------------------------------------------------------
# best-deviation values

def test_br_value_analytic_tent():
    g = make_game([["theta1*theta2", "0"], ["1-theta1", "0"]],
                  [["0", "0"], ["0", "0"]])
    G = pure_step(1, g.actions2, 0)  # single atom at theta2 = 1 on y1
    value, err = bc.br_value_infinite(g, 1, G, quad_tol=1e-8)
    assert err <= 1e-8
    assert value == pytest.approx(0.75, abs=1e-8)


def test_br_value_analytic_single_action():
    g = make_game([["theta1*theta2"]], [["0"]])
    G = pure_step(2, ("y1",), 0)  # atoms 0.5 and 1.0, mass 1/2 each
    value, err = bc.br_value_infinite(g, 1, G, quad_tol=1e-8)
    assert value == pytest.approx(0.375, abs=1e-8)
    assert err <= 1e-8


def test_br_value_against_riemann_oracle_20_games():
    rng = np.random.default_rng(29)
    quad_tol = 1e-7
    for k in range(20):
        g = random_poly_game(rng)
        n = (1, 2, 4)[k % 3]
        profile = random_profile(rng, n, 2, 2)
        for player, opponent_side in ((1, 2), (2, 1)):
            opponent = bc.lift(profile, opponent_side,
                               g.actions2 if player == 1 else g.actions1)
            got, err = bc.br_value_infinite(g, player, opponent, quad_tol)
            want = riemann_br_value(g, player, opponent)
            assert abs(got - want) <= max(quad_tol, 1e-6)
            assert err <= quad_tol


def _scalar_psi(g, player, opponent, theta):
    """Best-deviation integrand at one type, looping over actions and atoms."""
    masses = opponent.atom_masses()
    best = -np.inf
    for a in range(g.L if player == 1 else g.H):
        acc = 0.0
        for j, t in enumerate(opponent.atom_points):
            for o in range(len(opponent.actions)):
                m = masses[j, o]
                if m == 0.0:
                    continue
                if player == 1:
                    acc += m * oracle_payoff(g, 1, a, o, theta, t)
                else:
                    acc += m * oracle_payoff(g, 2, o, a, t, theta)
        if acc > best:
            best = acc
    return best


def test_best_deviation_integrand_equals_scalar_loop_bit_for_bit():
    rng = np.random.default_rng(21)
    g = make_game(
        [["exp(theta1 - theta2)", "sin(3*theta1*theta2)", "theta1^1.5"],
         ["log(1 + theta2)", "min(theta1, theta2)", "sqrt(theta2)"]],
        [["cos(theta1)", "theta2^0.7", "abs(theta1 - theta2)"],
         ["theta1*theta2", "exp(-theta2)", "max(theta1, 0.5)"]],
        prior="1 + theta1^0.5 * theta2")
    for n in (1, 3, 8):
        s, t = rng.random((n, 2)), rng.random((n, 3))
        s[0], t[-1] = (1.0, 0.0), (0.0, 0.0, 1.0)  # zero masses
        profile = bc.BehavioralProfile(s / s.sum(axis=1, keepdims=True),
                                       t / t.sum(axis=1, keepdims=True))
        F = bc.lift(profile, 1, g.actions1)
        G = bc.lift(profile, 2, g.actions2)
        theta = np.concatenate((rng.random(20), F.atom_points, [0.0]))
        for player, opponent in ((1, G), (2, F)):
            got = best_deviation_integrand(g, player, opponent)(theta)
            want = [_scalar_psi(g, player, opponent, x) for x in theta]
            assert got.tolist() == want


def test_best_deviation_ignores_zero_mass_actions_where_payoff_overflows():
    # finite on the validation grid, inf at theta1 = 0.5501
    g = make_game([["exp(1/abs(theta1 - 0.55))", "1"]], [["0", "0"]],
                  grid_check=11)
    profile = bc.BehavioralProfile(np.ones((3, 1)),
                                   np.tile([0.0, 1.0], (3, 1)))
    G = bc.lift(profile, 2, g.actions2)
    assert g.payoff(1, 0.5501, 0.5)[0, 0] == np.inf
    psi = best_deviation_integrand(g, 1, G)
    assert psi(np.array([0.1, 0.5501])) == pytest.approx([1.0, 1.0])


def test_br_value_rejects_bad_tol():
    g = make_game([["1"]], [["1"]])
    with pytest.raises(ValueError):
        bc.br_value_infinite(g, 1, pure_step(1, ("y1",), 0), quad_tol=0.0)


# ---------------------------------------------------------------------------
# certificates

def test_certify_single_action_game():
    g = make_game([["theta1*theta2"]], [["theta1+theta2"]])
    F = pure_step(3, ("x1",), 0)
    G = pure_step(3, ("y1",), 0)
    cert = bc.certify(g, F, G, epsilon=1e-4, quad_tol=1e-6)
    # no deviation can improve on the only action, so neither gap is
    # positive; the atomic candidate value sits above the Lebesgue
    # integral of the same action by an O(1/n) sampling bias, which is
    # why the gaps come out negative rather than zero
    assert cert.certified
    assert cert.gap1 <= cert.quad_error1 + 1e-10
    assert cert.gap2 <= cert.quad_error2 + 1e-10
    for player, opp in ((1, G), (2, F)):
        gap = cert.gap1 if player == 1 else cert.gap2
        oracle = riemann_br_value(g, player, opp) \
            - bc.profile_value(g, F, G, player)
        assert abs(gap - oracle) <= 1e-6


def test_certify_constant_utilities():
    g = make_game([["1", "1"], ["1", "1"]], [["1", "1"], ["1", "1"]])
    rng = np.random.default_rng(2)
    profile = random_profile(rng, 4, 2, 2)
    cert = bc.certify(g, bc.lift(profile, 1, g.actions1),
                      bc.lift(profile, 2, g.actions2), epsilon=1e-6)
    assert cert.certified
    assert abs(cert.gap1) <= 1e-9 and abs(cert.gap2) <= 1e-9


def test_certify_zero_sum_via_lp():
    g = zero_sum_match_game()
    fg = bc.build_finite(g, 16)
    res = solve_lp(fg)
    F = bc.lift(res.profile, 1, g.actions1)
    G = bc.lift(res.profile, 2, g.actions2)
    cert = bc.certify(g, F, G, epsilon=0.05, quad_tol=1e-7)
    assert cert.certified
    assert cert.level == 16
    # cross-check both gaps against the independent Riemann oracle
    for player, opp in ((1, G), (2, F)):
        gap = cert.gap1 if player == 1 else cert.gap2
        oracle_gap = riemann_br_value(g, player, opp) \
            - bc.profile_value(g, F, G, player)
        assert abs(gap - oracle_gap) <= 1e-6


def test_certify_rejects_bad_epsilon():
    g = make_game([["1"]], [["1"]])
    F = pure_step(1, ("x1",), 0)
    G = pure_step(1, ("y1",), 0)
    with pytest.raises(ValueError):
        bc.certify(g, F, G, epsilon=0.0)


def test_gap_nonnegativity_up_to_quadrature_error():
    # holds whenever the atomic candidate value cannot exceed the
    # Lebesgue deviation value: type-independent payoffs make the two
    # strategy classes coincide in value
    rng = np.random.default_rng(31)
    g = matching_pennies_game()
    for n in (1, 2, 5):
        profile = random_profile(rng, n, 2, 2)
        cert = bc.certify(g, bc.lift(profile, 1, g.actions1),
                          bc.lift(profile, 2, g.actions2), epsilon=1.0)
        assert cert.gap1 + cert.quad_error1 + 1e-10 >= 0.0
        assert cert.gap2 + cert.quad_error2 + 1e-10 >= 0.0


def test_shrinking_quad_tol_is_conservative():
    g = zero_sum_match_game()
    fg = bc.build_finite(g, 8)
    res = solve_lp(fg)
    F = bc.lift(res.profile, 1, g.actions1)
    G = bc.lift(res.profile, 2, g.actions2)
    loose = bc.certify(g, F, G, epsilon=0.05, quad_tol=1e-3)
    tight = bc.certify(g, F, G, epsilon=0.05, quad_tol=1e-8)
    assert loose.certified and tight.certified
    assert tight.quad_error1 <= loose.quad_error1 + 1e-12
    # the measured gaps agree within the looser error bound
    assert abs(tight.gap1 - loose.gap1) <= loose.quad_error1 + 1e-10


def test_prior_scaling_invariance():
    u = [["theta1*theta2", "0"], ["0", "theta1*theta2"]]
    v = [[f"-({e})" for e in row] for row in u]
    base = make_game(u, v, prior="theta1+theta2")
    scaled = make_game(u, v, prior="7*(theta1+theta2)")
    fg = bc.build_finite(base, 4)
    res = solve_lp(fg)
    certs = []
    for g in (base, scaled):
        F = bc.lift(res.profile, 1, g.actions1)
        G = bc.lift(res.profile, 2, g.actions2)
        certs.append(bc.certify(g, F, G, epsilon=0.05, quad_tol=1e-7))
    a, b = certs
    assert a.certified == b.certified
    for x, y in ((a.value1, b.value1), (a.value2, b.value2),
                 (a.gap1, b.gap1), (a.gap2, b.gap2)):
        assert abs(x - y) <= 1e-12 * max(1.0, abs(x)) + 2e-7

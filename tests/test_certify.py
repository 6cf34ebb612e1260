"""Certification against the continuous game: values, deviations, gaps."""

import importlib.util

import numpy as np
import pytest

import bnecert as bc
from bnecert.certificate import interim_values
from bnecert.discretize import StepStrategy
from bnecert.errors import NoConvergence
from bnecert.solver import solve_fp

from conftest import (
    ROOT,
    ex_ante_value,
    generated_general_sum_game,
    make_game,
    matching_pennies_game,
    naive_profile_value,
    oracle_certify,
    oracle_payoff,
    random_poly,
    random_poly_game,
    random_profile,
    riemann_br_value,
    solve_default_lp,
    zero_sum_match_game,
)


def pure_step(n, actions, index):
    weights = np.zeros((n, len(actions)))
    weights[:, index] = 1.0
    return StepStrategy(actions=tuple(actions), weights=weights)


def lp_profile(g, n):
    """The LP profile of g's level-n game."""
    return solve_default_lp(bc.build_finite(g, n), g).profile


def deviation(cert, player):
    """(best deviation value, error bound) of a player, read off the
    certificate as gap + candidate value."""
    if player == 1:
        return cert.gap1 + cert.value1, cert.quad_error1
    return cert.gap2 + cert.value2, cert.quad_error2


def profile_values(g, F, G):
    """The candidate's ex-ante values (player 1's, player 2's), as the
    certificate reports them."""
    cert = bc.certify(g, F, G, epsilon=1.0)
    return cert.value1, cert.value2


# ---------------------------------------------------------------------------
# profile values

def test_profile_value_single_atom():
    g = make_game([["theta1*theta2"]], [["0"]])
    F = pure_step(1, ("x1",), 0)
    G = pure_step(1, ("y1",), 0)
    assert profile_values(g, F, G)[0] == pytest.approx(1.0, abs=1e-8)


def test_profile_value_constant_times_prior():
    g = make_game([["3"]], [["0"]], prior="theta1+theta2")
    n = 2
    F = pure_step(n, ("x1",), 0)
    G = pure_step(n, ("y1",), 0)
    atoms = (np.arange(n) + 1.0) / n
    avg_b = np.mean([[g.prior(t1, t2) for t2 in atoms] for t1 in atoms])
    assert profile_values(g, F, G)[0] == pytest.approx(3.0 * avg_b,
                                                      abs=1e-8)


def test_profile_value_matches_naive_loop():
    rng = np.random.default_rng(13)
    g = zero_sum_match_game()
    for n in (1, 2, 4):
        profile = random_profile(rng, n, 2, 2)
        F = bc.lift(profile, 1, g.actions1)
        G = bc.lift(profile, 2, g.actions2)
        for player in (1, 2):
            got = profile_values(g, F, G)[player - 1]
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
    assert profile_values(two, F2, G2)[0] == pytest.approx(
        profile_values(one, F1, G1)[0], abs=1e-12)


def test_certificate_values_equal_the_finite_ex_ante_values():
    # the certificate's candidate value is the level game's ex-ante value
    # of the same profile: both sum the same payoffs at the atoms
    specs = ROOT / "demos" / "specs"
    games = [bc.load_game_file(specs / name) for name in (
        "zero_sum_match.json", "matching_pennies.json",
        "linear_prior_multipliers.json")]
    games += [generated_general_sum_game(1, 1, 2, 2),
              generated_general_sum_game(2, 0, 2, 3)]
    checked = 0
    for g in games:
        linearizable = bc.check_prop1(g).linearizable
        # at n = 129 the first call holds 2 (4 n + 1) > FETCH_POINTS
        # abscissae and takes only the middles
        for n in (1, 2, 3, 8, 16, 129):
            fg = bc.build_finite(g, n)
            try:
                profiles = [solve_fp(fg, max_iters=200,
                                     target_gap=1e-6).profile]
            except NoConvergence as exc:
                profiles = [exc.result.profile]
            if linearizable:
                profiles.append(solve_default_lp(fg, g).profile)
            for profile in profiles:
                cert = bc.certify(g, bc.lift(profile, 1, g.actions1),
                                  bc.lift(profile, 2, g.actions2), 1.0)
                for player, value in ((1, cert.value1), (2, cert.value2)):
                    want = ex_ante_value(fg, profile, player)
                    assert abs(value - want) <= 1e-12 * max(1.0, abs(want))
                    checked += 1
    assert checked == 2 * 6 * (3 * 2 + 2)


# ---------------------------------------------------------------------------
# best-deviation values

# certify integrates each player's deviation to epsilon / 100

def test_br_value_analytic_tent():
    g = make_game([["theta1*theta2", "0"], ["1-theta1", "0"]],
                  [["0", "0"], ["0", "0"]])
    F = pure_step(1, g.actions1, 0)
    G = pure_step(1, g.actions2, 0)  # single atom at theta2 = 1 on y1
    value, err = deviation(bc.certify(g, F, G, epsilon=1e-6), 1)
    assert err <= 1e-8
    assert value == pytest.approx(0.75, abs=1e-8)


def test_br_value_analytic_single_action():
    g = make_game([["theta1*theta2"]], [["0"]])
    F = pure_step(2, ("x1",), 0)
    G = pure_step(2, ("y1",), 0)  # atoms 0.5 and 1.0, mass 1/2 each
    value, err = deviation(bc.certify(g, F, G, epsilon=1e-6), 1)
    assert value == pytest.approx(0.375, abs=1e-8)
    assert err <= 1e-8


def test_br_value_against_riemann_oracle_20_games():
    rng = np.random.default_rng(29)
    epsilon = 1e-5
    quad_tol = epsilon / 100.0
    for k in range(20):
        g = random_poly_game(rng)
        n = (1, 2, 4)[k % 3]
        profile = random_profile(rng, n, 2, 2)
        F = bc.lift(profile, 1, g.actions1)
        G = bc.lift(profile, 2, g.actions2)
        cert = bc.certify(g, F, G, epsilon)
        for player, opponent in ((1, G), (2, F)):
            got, err = deviation(cert, player)
            want = riemann_br_value(g, player, opponent)
            assert abs(got - want) <= max(quad_tol, 1e-6)
            assert err <= quad_tol


def _scalar_sums(g, player, opponent, theta):
    """Per own action at one type: the atomic opponent sum, rounded term by
    term in (atom, action) order with zero masses skipped, the sum of the
    terms' magnitudes and the number of terms."""
    masses = opponent.atom_masses()
    sums = []
    for a in range(g.L if player == 1 else g.H):
        acc = size = 0.0
        count = 0
        for j, t in enumerate(opponent.atom_points):
            for o in range(len(opponent.actions)):
                m = masses[j, o]
                if m == 0.0:
                    continue
                if player == 1:
                    term = m * oracle_payoff(g, 1, a, o, theta, t)
                else:
                    term = m * oracle_payoff(g, 2, o, a, t, theta)
                acc += term
                size += abs(term)
                count += 1
        sums.append((acc, size, count))
    return sums


def test_interim_values_within_the_dot_bound_of_scalar_loop():
    rng = np.random.default_rng(21)
    u = 2.0 ** -53
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
            got = interim_values(g, player, opponent)(theta)
            assert got.shape == (len(g.actions1 if player == 1
                                     else g.actions2), theta.size)
            for x, values in zip(theta, got.T):
                sums = _scalar_sums(g, player, opponent, x)
                # a dot product of k terms is within gamma_k * sum |term|
                # of the exact one, however it is summed, so each own
                # action's value is (and so is their max, the deviation
                # integrand)
                for value, (acc, size, k) in zip(values, sums):
                    assert abs(value - acc) <= 2.0 * k * u / (1.0 - k * u) \
                        * size


def test_best_deviation_ignores_zero_mass_actions_where_payoff_overflows():
    # finite on the validation grid, inf at theta1 = 0.5501
    g = make_game([["exp(1/abs(theta1 - 0.55))", "1"]], [["0", "0"]],
                  grid_check=11)
    profile = bc.BehavioralProfile(np.ones((3, 1)),
                                   np.tile([0.0, 1.0], (3, 1)))
    F = bc.lift(profile, 1, g.actions1)
    G = bc.lift(profile, 2, g.actions2)
    assert g.payoff(1, 0.5501, 0.5)[0, 0] == np.inf
    values = interim_values(g, 1, G)
    assert values(np.array([0.1, 0.5501])) == pytest.approx(np.ones((1, 2)))
    cert = bc.certify(g, F, G, epsilon=1e-7)
    # the deviation's value is the payoff 1 under a uniform prior
    assert cert.gap1 == 1.0 - cert.value1
    assert cert.quad_error1 <= 1e-9


# ---------------------------------------------------------------------------
# certificates

def test_certify_single_action_game():
    g = make_game([["theta1*theta2"]], [["theta1+theta2"]])
    F = pure_step(3, ("x1",), 0)
    G = pure_step(3, ("y1",), 0)
    cert = bc.certify(g, F, G, epsilon=1e-4)
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
            - naive_profile_value(g, F, G, player)
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
    profile = lp_profile(g, 16)
    F = bc.lift(profile, 1, g.actions1)
    G = bc.lift(profile, 2, g.actions2)
    cert = bc.certify(g, F, G, epsilon=0.05)
    assert cert.certified
    assert cert.level == 16
    # cross-check both gaps against the independent Riemann oracle
    for player, opp in ((1, G), (2, F)):
        gap = cert.gap1 if player == 1 else cert.gap2
        oracle_gap = riemann_br_value(g, player, opp) \
            - naive_profile_value(g, F, G, player)
        assert abs(gap - oracle_gap) <= 1e-6


@pytest.mark.parametrize("n", [2, 8])
def test_gaps_of_a_game_with_negative_utilities_match_the_oracle(n):
    """A general-sum game whose utilities go negative: both gaps equal
    the Riemann deviation value minus the naive candidate value, both on
    prior x utility, within criterion 6's tolerance and the quadrature
    error.  A per-game offset on the payoffs moved gap1 by 0.18 at n = 2."""
    g = generated_general_sum_game(1, 1, 2, 2)
    grid = np.linspace(0.0, 1.0, 11)
    raw = g.tables(grid[:, None], grid[None, :], assimilated=False)
    assert min(table.min() for table in raw) < 0.0
    _, _, F, G, cert = bc.driver.certify_level(g, n, bc.check_prop1(g), 1e-3)
    for player, opp in ((1, G), (2, F)):
        gap, err = ((cert.gap1, cert.quad_error1) if player == 1
                    else (cert.gap2, cert.quad_error2))
        oracle_gap = riemann_br_value(g, player, opp) \
            - naive_profile_value(g, F, G, player)
        assert abs(gap - oracle_gap) <= 1e-6 + err


def test_certify_rejects_strategies_of_the_other_player():
    # with F and G swapped, level 4 of the match game used to certify
    # (gaps -0.039 and 0.039), and a 2x3 game failed inside einsum
    g = zero_sum_match_game()
    profile = lp_profile(g, 4)
    F = bc.lift(profile, 1, g.actions1)
    G = bc.lift(profile, 2, g.actions2)
    with pytest.raises(ValueError) as info:
        bc.certify(g, G, F, epsilon=0.05)
    assert str(info.value) == ("player 1's strategy has actions ('y1', "
                               "'y2'), but the game gives player 1 ('x1', "
                               "'x2')")
    wide = make_game([["theta1", "0", "1"], ["0", "theta2", "0"]],
                     [["0", "1", "theta1"], ["theta2", "0", "1"]])
    F = pure_step(2, wide.actions1, 0)
    G = pure_step(2, wide.actions2, 0)
    with pytest.raises(ValueError, match="player 1's strategy"):
        bc.certify(wide, G, F, epsilon=0.05)
    with pytest.raises(ValueError, match="player 2's strategy"):
        bc.certify(wide, F, pure_step(2, ("y1", "y3", "y2"), 0), 0.05)


def test_certify_rejects_strategies_of_two_levels():
    g = zero_sum_match_game()
    F = bc.lift(lp_profile(g, 4), 1, g.actions1)
    G = bc.lift(lp_profile(g, 2), 2, g.actions2)
    with pytest.raises(ValueError) as info:
        bc.certify(g, F, G, epsilon=0.05)
    assert str(info.value) == ("player 1's strategy is of level 4 and "
                               "player 2's of level 2; they must share one")


def test_certify_rejects_bad_epsilon():
    g = make_game([["1"]], [["1"]])
    F = pure_step(1, ("x1",), 0)
    G = pure_step(1, ("y1",), 0)
    with pytest.raises(ValueError):
        bc.certify(g, F, G, epsilon=0.0)
    for epsilon in (-1e-3, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            bc.certify(g, F, G, epsilon)
    # its hundredth, the quadrature tolerance, underflows to 0
    with pytest.raises(ValueError, match="epsilon / 100, the quadrature"):
        bc.certify(g, F, G, 5e-324)
    # an int too large for a float: epsilon / 100 raised OverflowError,
    # and past int's 4300-digit str limit, the message's formatting raised
    for epsilon in (10 ** 400, 10 ** 5000):
        with pytest.raises(ValueError,
                           match="^epsilon must be positive and finite"):
            bc.certify(g, F, G, epsilon)


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
    profile = lp_profile(g, 8)
    F = bc.lift(profile, 1, g.actions1)
    G = bc.lift(profile, 2, g.actions2)
    values = profile_values(g, F, G)
    loose, tight = (bc.certify(g, F, G, epsilon) for epsilon in (0.1, 1e-6))
    for player in (1, 2):
        (loose_br, loose_err), (tight_br, tight_err) = (
            deviation(cert, player) for cert in (loose, tight))
        # both pass the epsilon = 0.05 test that certify applies
        for br, err in ((loose_br, loose_err), (tight_br, tight_err)):
            assert br - values[player - 1] + err <= 0.05
        assert tight_err <= loose_err + 1e-12
        # the deviation values agree within the looser error bound
        assert abs(tight_br - loose_br) <= loose_err + 1e-10


def test_prior_scaling_invariance():
    u = [["theta1*theta2", "0"], ["0", "theta1*theta2"]]
    v = [[f"-({e})" for e in row] for row in u]
    base = make_game(u, v, prior="theta1+theta2")
    scaled = make_game(u, v, prior="7*(theta1+theta2)")
    profile = lp_profile(base, 4)
    certs = []
    for g in (base, scaled):
        F = bc.lift(profile, 1, g.actions1)
        G = bc.lift(profile, 2, g.actions2)
        certs.append(bc.certify(g, F, G, epsilon=0.05))
    a, b = certs
    assert a.certified == b.certified
    for x, y in ((a.value1, b.value1), (a.value2, b.value2),
                 (a.gap1, b.gap1), (a.gap2, b.gap2)):
        assert abs(x - y) <= 1e-12 * max(1.0, abs(x)) + 2e-7


# ---------------------------------------------------------------------------
# certify against the player-by-player oracle


@pytest.fixture(scope="module")
def certify_games():
    return [bc.load_game_file(ROOT / "demos" / "specs" / f"{name}.json")
            for name in ("linear_prior_multipliers", "matching_pennies",
                         "zero_sum_match")] + [
        generated_general_sum_game(1, 1, 2, 2),
        generated_general_sum_game(2, 2, 2, 3)]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_certify_equals_certifying_player_by_player(certify_games, n):
    """The pass schedule gives the bytes of one plain integral per
    player."""
    rng = np.random.default_rng(n)
    for g in certify_games:
        profile = random_profile(rng, n, g.L, g.H)
        F = bc.lift(profile, 1, g.actions1)
        G = bc.lift(profile, 2, g.actions2)
        for epsilon in (1e-3, 1e-6):
            cert = bc.certify(g, F, G, epsilon)
            got = (cert.gap1, cert.gap2, cert.quad_error1,
                   cert.quad_error2, cert.value1, cert.value2)
            want = oracle_certify(g, F, G, epsilon)
            assert np.array(got).tobytes() == np.array(want).tobytes()


def test_when_both_players_fail_the_shallower_failure_is_raised():
    # inf near 0.35 for player 1 and near 0.55 for player 2: player 2's
    # overflow shows at a shallower depth, and certify refines both
    # players in one loop, so it raises player 2's error, on integrand 1
    g = make_game([["exp(1/abs(theta1 - 0.35))"]],
                  [["exp(1/abs(theta2 - 0.55))"]], grid_check=11)
    F = pure_step(2, g.actions1, 0)
    G = pure_step(2, g.actions2, 0)
    with pytest.raises(bc.errors.NonFinite) as got:
        bc.certify(g, F, G, 1e-3)
    assert str(got.value) == ("Simpson estimates on [0.546875, 0.5625] of "
                              "integrand 1 are not finite")
    # player by player, player 1's deeper failure comes first
    with pytest.raises(bc.errors.NonFinite) as first:
        oracle_certify(g, F, G, 1e-3)
    assert "integrand 0" in str(first.value)


def test_a_nan_action_value_is_nonfinite_as_in_build_finite():
    # u_b is nan on (0.3713, 0.3787), which the 101-point validation grid
    # misses; a nan value used to lose the max over own actions silently
    E = "exp(0.01/((theta1 - 0.375)^2 + 1e-300))"
    g = make_game([["0"], [f"-1 + ({E} - {E})"]], [["0"], ["0"]],
                  actions1=("a", "b"), actions2=("c",), grid_check=101)
    with pytest.raises(bc.errors.NonFinite):
        bc.build_finite(g, 8)  # its type 3/8 lies in the interval
    # 0.375 is a quarter point of the first integrand call at level 2
    F = pure_step(2, g.actions1, 0)
    G = pure_step(2, g.actions2, 0)
    with pytest.raises(bc.errors.NonFinite) as want:
        oracle_certify(g, F, G, 1e-3)
    with pytest.raises(bc.errors.NonFinite) as got:
        bc.certify(g, F, G, 1e-3)
    assert str(got.value) == str(want.value)


def test_certificate_module_beside_the_certify_function():
    # a bnecert.certify submodule would be shadowed by the function, and
    # its other names unreachable as bnecert.certify.<name>
    module = importlib.import_module("bnecert.certificate")
    assert module.interim_values is interim_values
    assert callable(bc.certify) and bc.certify is module.certify
    assert importlib.util.find_spec("bnecert.certify") is None

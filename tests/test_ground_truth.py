"""Ground truth from outside the code: the 2x2 threshold game with a
uniform prior (conftest.threshold_game), whose unique BNE and whose
step profiles' exact regrets have closed forms, and games whose prior
and utilities are polynomials, whose step profiles' exact regrets come
from antiderivatives (conftest.exact_step_regret)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bnecert as bc
from bnecert.driver import certify_level
from bnecert.errors import NoConvergence

from conftest import (
    _bench_games,
    exact_step_regret,
    polynomial_game_specs,
    random_profile,
    riemann_step_regret,
    riemann_step_regret_error,
    threshold_bne,
    threshold_game,
    threshold_spec,
    threshold_step_regret,
)

# k and m away from 0 and 1, where fp's 2000 iterations still settle
weights = st.floats(0.05, 0.95)

# a general-sum entry game, which fp solves; at level 1 and epsilon 0.05 it
# certifies, though its exact step regrets are 0.467 and 0.108
ENTRY_SPEC = {"actions1": ["enter", "stay"], "actions2": ["fight", "yield"],
              "u": [["theta1 - 1", "1 + theta1"], ["0", "0"]],
              "v": [["theta2 - 0.5", "0"], ["1", "1"]],
              "prior": "1 + theta1*theta2"}


@settings(max_examples=20, deadline=None)
@given(k=weights, m=weights, n=st.integers(1, 16),
       seed=st.integers(0, 2 ** 32 - 1))
def test_closed_form_step_regret_agrees_with_a_riemann_sum(k, m, n, seed):
    profile = random_profile(np.random.default_rng(seed), n, 2, 2)
    exact = threshold_step_regret(k, m, profile)
    riemann = riemann_step_regret(threshold_game(k, m), profile)
    # the only error left is the kink of the best deviation: O(1/1000^2)
    assert np.allclose(exact, riemann, rtol=0.0, atol=1e-6)
    assert min(exact) >= -1e-15


def test_riemann_step_regret_weights_by_the_prior():
    """Regret under (u, v, prior p) equals regret under (u p / Z, v p / Z,
    prior 1), Z the integral of p, up to rounding; and the prior moves
    it."""
    spec = _bench_games().game_spec(17, 1, "general_sum", 2, 3)
    prior, norm = "1 + 2*theta1 + 0.5*theta2", 2.25

    def game(table_scale, game_prior):
        doc = dict(spec, prior=game_prior)
        for name in ("u", "v"):
            doc[name] = [[f"({e}){table_scale}" for e in row]
                         for row in spec[name]]
        return bc.load_game(bc.GameSpec.from_dict(doc))

    weighted = game("", prior)
    folded = game(f"*({prior})/{norm!r}", "1")
    uniform = game("", "1")
    rng = np.random.default_rng(79)
    moved = 0.0
    for n in (1, 3, 8):
        for _ in range(3):
            profile = random_profile(rng, n, 2, 3)
            regret = riemann_step_regret(weighted, profile)
            assert np.allclose(regret, riemann_step_regret(folded, profile),
                               rtol=0.0, atol=1e-12)
            moved = max(moved, *np.abs(np.subtract(
                regret, riemann_step_regret(uniform, profile))))
    assert moved > 1e-2


def test_closed_form_step_regret_of_pure_profiles():
    k, m = 0.5, 0.25
    for n in (1, 3, 8):
        # everyone plays B: c = 0, so A at every type is worth 1/2
        all_b = bc.BehavioralProfile(np.tile([0.0, 1.0], (n, 1)),
                                     np.tile([0.0, 1.0], (n, 1)))
        assert threshold_step_regret(k, m, all_b) == (0.5, 0.5)
        # everyone plays A: c = k, and the types below k lose k^2 / 2 in
        # all by not playing B
        all_a = bc.BehavioralProfile(np.tile([1.0, 0.0], (n, 1)),
                                     np.tile([1.0, 0.0], (n, 1)))
        assert np.allclose(threshold_step_regret(k, m, all_a),
                           (k ** 2 / 2, m ** 2 / 2), rtol=0.0, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(k=weights, m=weights, n=st.integers(1, 64))
def test_fp_finite_threshold_converges_to_the_bne_threshold(k, m, n):
    """An exact level-n equilibrium puts each threshold within 1/n of k
    (resp. m) times the opponent's A mass, so its error is at most
    (1 + k) / ((1 - k m) n).  fp's best iterate after 2000 iterations
    stayed within 0.94 of that over 400 random (k, m, n) with n <= 64 and
    at the corners k, m in {0.05, 0.5, 0.9, 0.95}; the test allows 1.25."""
    fg = bc.build_finite(threshold_game(k, m), n)
    try:
        profile = bc.solve_fp(fg, max_iters=2000, target_gap=1e-6).profile
    except NoConvergence as exc:
        profile = exc.result.profile
    tau1, tau2 = threshold_bne(k, m)
    # the finite threshold: the mass of types that play B
    assert abs(profile.s[:, 1].mean() - tau1) <= 1.25 * (1 + k) / (
        (1 - k * m) * n)
    assert abs(profile.t[:, 1].mean() - tau2) <= 1.25 * (1 + m) / (
        (1 - k * m) * n)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the certificate judges the profile's atoms at i/n, "
    "not the step strategy; at k = m = 1/2 level 1 certifies 1e-3 "
    "against an exact step regret of 0.125"))
@settings(max_examples=30, deadline=None)
@example(k=0.5, m=0.5, n=1, epsilon=1e-3)
@given(k=weights, m=weights, n=st.integers(1, 16),
       epsilon=st.floats(1e-4, 0.1))
def test_certified_implies_the_step_regret_is_within_epsilon(k, m, n,
                                                             epsilon):
    """`certified` is a statement about the continuous game: the step
    strategy (types in ((i-1)/n, i/n] play row i) is an epsilon-BNE."""
    g = threshold_game(k, m)
    result, _, _, _, cert = certify_level(g, n, bc.check_prop1(g), epsilon)
    if cert.certified:
        assert max(threshold_step_regret(k, m, result.profile)) <= epsilon


@settings(max_examples=30, deadline=None)
@given(k=weights, m=weights, n=st.integers(1, 16),
       seed=st.integers(0, 2 ** 32 - 1))
def test_exact_polynomial_regret_reproduces_the_closed_form(k, m, n, seed):
    profile = random_profile(np.random.default_rng(seed), n, 2, 2)
    exact = exact_step_regret(threshold_game(k, m), profile)
    assert np.allclose(exact, threshold_step_regret(k, m, profile),
                       rtol=0.0, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(spec=polynomial_game_specs(), n=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_exact_polynomial_regret_agrees_with_a_riemann_sum(spec, n, seed):
    """Within the midpoint sums' error bound, which is itself small."""
    g = bc.load_game(bc.GameSpec.from_dict(spec), grid_check=21)
    profile = random_profile(np.random.default_rng(seed), n, g.L, g.H)
    exact = exact_step_regret(g, profile)
    riemann = riemann_step_regret(g, profile)
    bound = riemann_step_regret_error(g, profile)
    assert max(bound) < 1e-3
    for e, r, b in zip(exact, riemann, bound):
        assert abs(e - r) <= b
    assert min(exact) >= -1e-14


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the certificate judges the profile's atoms at i/n, "
    "not the step strategy; at k = m = 1/2 level 1 certifies 1e-3 "
    "against an exact step regret of 0.125"))
@settings(max_examples=30, deadline=None)
@example(spec=threshold_spec(0.5, 0.5), n=1, epsilon=1e-3)
@example(spec=ENTRY_SPEC, n=1, epsilon=0.05)
@given(spec=polynomial_game_specs(), n=st.integers(1, 8),
       epsilon=st.floats(1e-6, 0.1))
def test_certified_implies_the_exact_step_regret_is_within_epsilon(
        spec, n, epsilon):
    """As the threshold property above, over random polynomial games."""
    g = bc.load_game(bc.GameSpec.from_dict(spec), grid_check=21)
    result, _, _, _, cert = certify_level(g, n, bc.check_prop1(g), epsilon)
    if cert.certified:
        assert max(exact_step_regret(g, result.profile)) <= epsilon

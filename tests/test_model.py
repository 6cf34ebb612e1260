"""Game loading: validation, normalization, marginals, assimilation."""

import numpy as np
import pytest

import bnecert as bc
from bnecert.errors import NegativePrior, NonFinite
from bnecert.quadrature import integrate

from conftest import make_game


def test_uniform_prior_product_utility():
    g = make_game([["theta1*theta2"]], [["0"]], prior="1")
    assert g.prior_norm == pytest.approx(1.0, abs=1e-9)
    assert g.shift1 == pytest.approx(1e-9, abs=1e-15)
    assert g.payoff(1, 0.5, 0.5)[0, 0] == pytest.approx(0.25, abs=1e-8)


def test_linear_prior_normalizes_to_one():
    g = make_game([["1"]], [["0"]], prior="theta1+theta2")
    assert g.prior_norm == pytest.approx(1.0, abs=1e-8)


def test_negative_prior_rejected():
    with pytest.raises(NegativePrior):
        make_game([["1"]], [["1"]], prior="theta1-0.5")


def test_nonfinite_utility_rejected():
    with pytest.raises(NonFinite):
        make_game([["exp(700)*exp(700)"]], [["0"]])


@pytest.mark.parametrize("utility", ["exp(1000*theta1)", "10^400"])
def test_overflowing_utility_rejected(utility):
    with pytest.raises(NonFinite):
        make_game([[utility]], [["0"]])


def test_unnormalized_prior_constant_recorded():
    g = make_game([["1"]], [["0"]], prior="7")
    assert g.prior_norm == pytest.approx(7.0, abs=1e-8)
    assert g.prior(0.3, 0.9) == pytest.approx(1.0, abs=1e-12)


def test_grid_check_validation():
    spec = bc.GameSpec.from_dict(
        {"actions1": ["x"], "actions2": ["y"], "u": [["1"]], "v": [["1"]],
         "prior": "1"})
    with pytest.raises(ValueError):
        bc.load_game(spec, grid_check=10)
    with pytest.raises(ValueError):
        bc.load_game(spec, grid_check=9)


def test_spec_validation_errors():
    base = {"actions1": ["x1", "x2"], "actions2": ["y1"],
            "u": [["1"], ["1"]], "v": [["1"], ["1"]], "prior": "1"}
    with pytest.raises(ValueError):
        bc.GameSpec.from_dict({**base, "actions1": ["x", "x"],
                               "u": [["1"], ["1"]], "v": [["1"], ["1"]]})
    with pytest.raises(ValueError):
        bc.GameSpec.from_dict({**base, "u": [["1"]]})
    with pytest.raises(ValueError):
        bc.GameSpec.from_dict({**base, "m1": "theta2"})
    with pytest.raises(ValueError):
        bc.GameSpec.from_dict({**base, "type_range1": [1.0, 0.0]})


def test_marginal_examples():
    uniform = make_game([["1"]], [["0"]], prior="1")
    assert bc.marginal(uniform, 1, 0.37) == pytest.approx(1.0, abs=1e-9)

    linear = make_game([["1"]], [["0"]], prior="theta1+theta2")
    assert bc.marginal(linear, 1, 0.5) == pytest.approx(1.0, abs=1e-8)
    assert bc.marginal(linear, 1, 0.0) == pytest.approx(0.5, abs=1e-8)


def test_conditional_examples():
    uniform = make_game([["1"]], [["0"]], prior="1")
    assert bc.conditional(uniform, 1, 0.8, 0.2) == pytest.approx(1.0,
                                                                 abs=1e-9)
    linear = make_game([["1"]], [["0"]], prior="theta1+theta2")
    assert bc.conditional(linear, 1, 0.5, 0.5) == pytest.approx(1.0,
                                                               abs=1e-8)
    assert bc.conditional(linear, 1, 1.0, 0.0) == pytest.approx(2.0,
                                                                abs=1e-8)


def test_conditional_normalization():
    g = make_game([["1"]], [["0"]], prior="theta1+theta2")
    quad_tol = 1e-9
    for theta_own in np.linspace(0.0, 1.0, 11):
        total, _ = integrate(
            lambda t: bc.conditional(g, 1, t, theta_own, quad_tol),
            0.0, 1.0, quad_tol,
        )
        assert abs(total - 1.0) <= 2 * quad_tol + 1e-7


def test_assimilation_consistency_441_points():
    g = make_game([["theta1*theta2 - 0.3"]], [["theta2"]],
                  prior="theta1+theta2")
    grid = np.linspace(0.0, 1.0, 21)
    t1, t2 = grid[:, None], grid[None, :]
    want = g.prior(t1, t2) * (g.raw(1, t1, t2)[0, 0] + g.shift1)
    got = g.payoff(1, t1, t2)[0, 0]
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_shift_invariance_of_best_response_argmax():
    rng = np.random.default_rng(3)
    u = [["theta1*theta2", "1-theta1"], ["theta2", "theta1"]]
    games = [
        make_game([[f"({e})+{c}" for e in row] for row in u],
                  [["0", "0"], ["0", "0"]])
        for c in (0, 1, 100)
    ]
    n = 4
    finites = [bc.build_finite(g, n) for g in games]
    for _ in range(10):
        t = rng.random((n, 2))
        t /= t.sum(axis=1, keepdims=True)
        choices = [np.argmax(
            np.einsum("xyij,jy->ix", fg.U, t), axis=1) for fg in finites]
        for other in choices[1:]:
            assert np.array_equal(choices[0], other)


def test_type_range_rescaling():
    # density theta1 + 1 on [0, 2] maps to 2*theta + 1 on the unit square
    g = make_game([["theta1"]], [["0"]], prior="theta1+1",
                  type_range1=[0.0, 2.0])
    assert g.prior_norm == pytest.approx(2.0, abs=1e-8)
    assert g.prior(0.5, 0.3) == pytest.approx(1.0, abs=1e-9)  # (1+1)/2
    assert g.raw(1, 0.5, 0.0)[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_load_game_file_round_trip(tmp_path):
    import json

    doc = {"actions1": ["x1"], "actions2": ["y1"],
           "u": [["theta1"]], "v": [["theta2"]], "prior": "1"}
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    g = bc.load_game_file(str(path), grid_check=21)
    assert g.actions1 == ("x1",)
    assert g.raw(1, 0.25, 0.9)[0, 0] == 0.25

"""Discretization and step-strategy lifting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnecert as bc
from bnecert.discretize import StepStrategy

from conftest import (
    make_game,
    matching_pennies_game,
    random_profile,
    uniform_profile,
)


def atoms_counted(n, theta):
    """The number of atoms at or below theta that values counts for a
    level-n one-action strategy, whose atoms each have mass 1/n."""
    F = StepStrategy(actions=("x",), weights=np.ones((n, 1)))
    return np.rint(F.values(theta)[..., 0] * n).astype(int)


def test_values_count_the_atoms_at_or_below_theta():
    # 0.3 * 10 rounds to 2.9999999999999996, yet 0.3 is the atom 3/10
    assert atoms_counted(10, 0.3) == 3
    for n in (1, 2, 3, 7, 10, 32):
        for k in range(n + 1):
            assert atoms_counted(n, k / n) == k
    assert atoms_counted(4, 0.26) == 1
    assert atoms_counted(4, 0.0) == 0


@pytest.mark.parametrize("n", [50_000, 100_000])
def test_values_count_every_atom_at_fine_levels(n):
    # a floor of n * theta nudged by 1e-12 misses 1337 and 4012 of them
    k = np.arange(n + 1)
    assert np.array_equal(atoms_counted(n, k / n), k)


def test_build_finite_product_utility_n2():
    g = make_game([["theta1*theta2"]], [["0"]])
    fg = bc.build_finite(g, 2)
    expected = np.array([[0.25, 0.5], [0.5, 1.0]])
    assert np.allclose(fg.U[0, 0], expected, atol=1e-8)


def test_build_finite_constant_n3():
    g = make_game([["1"]], [["1"]])
    fg = bc.build_finite(g, 3)
    assert np.allclose(fg.U[0, 0], np.ones((3, 3)), atol=1e-8)
    assert np.allclose(fg.V[0, 0], np.ones((3, 3)), atol=1e-8)


def test_build_finite_n1_single_entry():
    g = make_game([["theta1*theta2"]], [["0"]])
    fg = bc.build_finite(g, 1)
    assert fg.U.shape == (1, 1, 1, 1)
    assert fg.U[0, 0, 0, 0] == g.payoff(1, 1.0, 1.0)[0, 0]


def test_build_finite_rejects_bad_level():
    g = make_game([["1"]], [["1"]])
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        bc.build_finite(g, 0)


@pytest.mark.parametrize("n, message", [
    (2.5, "n must be an integer, got 2.5"),
    (True, "n must be an integer, got True"),
])
def test_build_finite_rejects_levels_that_are_not_counts(n, message):
    g = make_game([["theta1"]], [["theta2"]])
    with pytest.raises(ValueError) as exc:
        bc.build_finite(g, n)
    assert str(exc.value) == message


def test_build_finite_accepts_numpy_integer_levels():
    g = make_game([["theta1*theta2"]], [["0"]])
    fg = bc.build_finite(g, np.int64(2))
    assert type(fg.n) is int and fg.n == 2
    assert np.array_equal(fg.U, bc.build_finite(g, 2).U)


def test_finite_game_rejects_payoffs_of_the_wrong_shape():
    """A transposed V, or tensors of another level than n, would build
    agent-form matrices of the expected shape over scrambled payoffs."""
    fg = bc.build_finite(make_game([["theta1", "1", "0"], ["0", "1", "2"]],
                                   [["theta2", "0", "1"], ["1", "0", "2"]]), 3)
    U, V = fg.U, fg.V  # (2, 3, 3, 3)
    with pytest.raises(ValueError) as exc:
        bc.FiniteGame(3, fg.actions1, fg.actions2, U, V.transpose(1, 0, 2, 3))
    assert str(exc.value) == ("U and V must have shape (2, 3, 3, 3), got "
                              "(2, 3, 3, 3) and (3, 2, 3, 3)")
    with pytest.raises(ValueError, match=r"\(2, 3, 2, 2\), got "
                                         r"\(2, 3, 3, 3\) and \(2, 3, 3, 3\)"):
        bc.FiniteGame(2, fg.actions1, fg.actions2, U, V)
    with pytest.raises(ValueError, match="^n must be an integer, got 3.0$"):
        bc.FiniteGame(3.0, fg.actions1, fg.actions2, U, V)
    assert bc.FiniteGame(3, fg.actions1, fg.actions2, U, V).M2.shape == (9, 6)


def test_lift_pure_per_type():
    profile = bc.BehavioralProfile(
        s=np.array([[1.0, 0.0], [0.0, 1.0]]),
        t=np.array([[1.0, 0.0], [1.0, 0.0]]),
    )
    F = bc.lift(profile, 1, actions=("x1", "x2"))
    assert F.values(0.49)[0] == 0.0
    assert F.values(0.5)[0] == 0.5
    assert F.values(1.0)[0] == 0.5
    assert F.values(1.0)[1] == 0.5


def test_lift_uniform_rows():
    for L in (2, 3, 4):
        profile = uniform_profile(4, L, 2)
        F = bc.lift(profile, 1, [f"x{k}" for k in range(L)])
        for k in range(len(F.actions)):
            assert F.values(1.0)[k] == pytest.approx(1.0 / L, abs=1e-15)


def test_lift_single_type_mixture():
    profile = bc.BehavioralProfile(
        s=np.array([[0.3, 0.7]]), t=np.array([[1.0]])
    )
    F = bc.lift(profile, 1, actions=("x1", "x2"))
    assert F.values(0.999)[0] == 0.0
    assert F.values(1.0)[0] == pytest.approx(0.3, abs=1e-15)


def test_eval_step_examples():
    profile = uniform_profile(4, 2, 2)
    F = bc.lift(profile, 1, actions=("x1", "x2"))
    for k in range(2):
        assert F.values(0.0)[k] == 0.0
        assert F.values(1.0)[k] == 0.5

    pure = bc.BehavioralProfile(
        s=np.tile([1.0, 0.0], (4, 1)), t=np.tile([1.0, 0.0], (4, 1))
    )
    Fp = bc.lift(pure, 1, actions=("x1", "x2"))
    assert Fp.values(0.26)[0] == 0.25


@pytest.mark.parametrize("theta, want", [
    (-0.5, [0.0, 0.0]),
    (-1e-13, [0.0, 0.0]),
    (0.0, [0.0, 0.0]),
    (1.5, [0.4375, 0.5625]),
])
def test_step_cdf_outside_the_grid(theta, want):
    weights = np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [0.25, 0.75]])
    F = bc.lift(bc.BehavioralProfile(weights, weights), 1, ("x1", "x2"))
    # a negative floor index used to read _cum from its end: F(-0.5) was
    # [0.375, 0.375]
    assert F.values(theta).tolist() == want
    # an array of types, as the curve files use, takes the same lookup
    assert F.values(np.array([theta, 0.5]))[0].tolist() == want


def test_default_action_labels():
    # there are none: labels a0, a1, ... would never be the game's, and
    # certify rejects a strategy labelled otherwise than the game
    profile = uniform_profile(2, 3, 2)
    with pytest.raises(TypeError):
        bc.lift(profile, 1)
    F = bc.lift(profile, 1, ["x1", "x2", "x3"])
    assert F.actions == ("x1", "x2", "x3")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_behavioral_profile_rejects_entries_that_are_not_finite(bad):
    # a NaN row passed both the sign and the row-sum check
    with pytest.raises(ValueError, match="s has entries that are not"):
        bc.BehavioralProfile(np.array([[bad, bad]]), np.array([[1.0]]))
    with pytest.raises(ValueError, match="t has entries that are not"):
        bc.BehavioralProfile(np.array([[1.0]]), np.array([[0.5, bad]]))


def test_behavioral_profile_validation():
    with pytest.raises(ValueError):
        bc.BehavioralProfile(np.array([[0.5, 0.6]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        bc.BehavioralProfile(np.array([[-0.1, 1.1]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        bc.BehavioralProfile(np.array([[1.0]]), np.array([[1.0], [1.0]]))


@pytest.mark.parametrize("fill, message", [
    (0.0, "^rows of weights must sum to 1$"),
    (5.0, "^rows of weights must sum to 1$"),
    (np.nan, "^weights has entries that are not finite$"),
    (-0.5, "^weights has negative entries$"),
])
def test_step_strategy_weights_must_be_a_strategy(fill, message):
    # certify took all-zero weights on matching pennies at n = 4 as an
    # equilibrium with gaps 0 and 0, and weights of 5.0 with gaps -45
    g = matching_pennies_game()
    for actions in (g.actions1, g.actions2):
        with pytest.raises(ValueError, match=message):
            StepStrategy(actions=actions, weights=np.full((4, 2), fill))


def test_an_empty_profile_is_named():
    # numpy's max over no rows raised "zero-size array to reduction ..."
    with pytest.raises(ValueError, match="^s has no rows$"):
        bc.BehavioralProfile(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="^weights has no rows$"):
        StepStrategy(("a",), np.zeros((0, 1)))


def test_step_strategy_weights_have_one_column_per_action():
    # the level is the row count, so only the columns are checked
    # against the labels
    with pytest.raises(ValueError,
                       match="^weights must have one column per action$"):
        StepStrategy(("a", "b"), np.ones((3, 1)))
    assert StepStrategy(("a",), np.ones((3, 1))).n == 3


def test_step_strategy_takes_rows_that_sum_to_1_within_1e_12():
    weights = np.array([[0.5, 0.5 + 5e-13], [1.0 - 5e-13, 0.0]])
    F = StepStrategy(actions=("x1", "x2"), weights=weights)
    assert F.values(1.0) == pytest.approx([0.75, 0.25], abs=1e-12)
    with pytest.raises(ValueError, match="^rows of weights must sum to 1$"):
        StepStrategy(actions=("x1", "x2"), weights=weights * 1.001)


def test_serialize_atoms():
    profile = bc.BehavioralProfile(
        s=np.array([[0.25, 0.75], [1.0, 0.0]]), t=np.array([[1.0], [1.0]])
    )
    F = bc.lift(profile, 1, actions=("x1", "x2"))
    doc = F.serialize(1)
    assert doc["player"] == 1 and doc["level"] == 2
    masses = {(a["theta"], a["action"]): a["mass"] for a in doc["atoms"]}
    assert masses[(0.5, "x1")] == 0.125
    assert masses[(1.0, "x2")] == 0.0
    assert sum(masses.values()) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# property tests

@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 32), seed=st.integers(0, 2 ** 31), L=st.integers(1, 4))
def test_step_strategy_invariants(n, seed, L):
    rng = np.random.default_rng(seed)
    profile = random_profile(rng, n, L, 2)
    F = bc.lift(profile, 1, [f"x{k}" for k in range(L)])
    # F(0) = 0
    assert np.all(F.values(0.0) == 0.0)
    # non-decreasing and right-continuous on a dense probe grid
    probes = np.concatenate([F.atom_points, F.atom_points - 0.5 / n,
                             [0.0, 1.0 - 0.25 / n]])
    probes = np.unique(np.clip(probes, 0.0, 1.0))
    prev = np.zeros(L)
    for theta in probes:
        cur = F.values(theta)
        assert np.all(cur >= prev - 1e-15)
        prev = cur
    for k in range(1, n + 1):
        at = F.values(k / n)
        just_right = F.values(min(k / n + 0.4 / n, 1.0))
        if k < n:
            assert np.allclose(at, just_right, atol=0.0)  # flat after atom
        # grid-sum identity
        assert abs(at.sum() - k / n) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 16), seed=st.integers(0, 2 ** 31))
def test_monotone_refinement_consistency(n, seed):
    rng = np.random.default_rng(seed)
    # a per-type pure policy constant on each interval ((i-1)/n, i/n]
    policy = rng.integers(0, 2, size=n)

    def rows(level):
        out = np.zeros((level, 2))
        for i in range(level):
            theta = (i + 1) / level
            idx = min(int(np.floor(n * (theta - 0.5 / level))), n - 1)
            out[i, policy[idx]] = 1.0
        return out

    actions = ("x1", "x2")
    F_n = bc.lift(bc.BehavioralProfile(rows(n), rows(n)), 1, actions)
    F_2n = bc.lift(bc.BehavioralProfile(rows(2 * n), rows(2 * n)), 1,
                   actions)
    for k in range(n + 1):
        assert np.allclose(F_n.values(k / n), F_2n.values(k / n), atol=1e-12)

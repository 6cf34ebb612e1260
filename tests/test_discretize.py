"""Discretization and step-strategy lifting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnecert as bc
from bnecert.discretize import grid_floor
from bnecert.errors import UnknownAction

from conftest import make_game, random_profile


def test_grid_floor_nudge():
    # 0.3 * 10 rounds to 2.9999999999999996; the nudge must land on 3
    assert grid_floor(10, 0.3) == 3
    for n in (1, 2, 3, 7, 10, 32):
        for k in range(n + 1):
            assert grid_floor(n, k / n) == k
    assert grid_floor(4, 0.26) == 1
    assert grid_floor(4, 0.0) == 0


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
    with pytest.raises(ValueError):
        bc.build_finite(g, 0)


def test_lift_pure_per_type():
    profile = bc.BehavioralProfile(
        s=np.array([[1.0, 0.0], [0.0, 1.0]]),
        t=np.array([[1.0, 0.0], [1.0, 0.0]]),
    )
    F = bc.lift(profile, 1, actions=("x1", "x2"))
    assert F.value("x1", 0.49) == 0.0
    assert F.value("x1", 0.5) == 0.5
    assert F.value("x1", 1.0) == 0.5
    assert F.value("x2", 1.0) == 0.5


def test_lift_uniform_rows():
    for L in (2, 3, 4):
        profile = bc.BehavioralProfile.uniform(4, L, 2)
        F = bc.lift(profile, 1)
        for a in F.actions:
            assert F.value(a, 1.0) == pytest.approx(1.0 / L, abs=1e-15)


def test_lift_single_type_mixture():
    profile = bc.BehavioralProfile(
        s=np.array([[0.3, 0.7]]), t=np.array([[1.0]])
    )
    F = bc.lift(profile, 1, actions=("x1", "x2"))
    assert F.value("x1", 0.999) == 0.0
    assert F.value("x1", 1.0) == pytest.approx(0.3, abs=1e-15)


def test_eval_step_examples():
    profile = bc.BehavioralProfile.uniform(4, 2, 2)
    F = bc.lift(profile, 1, actions=("x1", "x2"))
    for a in ("x1", "x2"):
        assert F.value(a, 0.0) == 0.0
        assert F.value(a, 1.0) == 0.5

    pure = bc.BehavioralProfile(
        s=np.tile([1.0, 0.0], (4, 1)), t=np.tile([1.0, 0.0], (4, 1))
    )
    Fp = bc.lift(pure, 1, actions=("x1", "x2"))
    assert Fp.value("x1", 0.26) == 0.25


def test_unknown_action():
    F = bc.lift(bc.BehavioralProfile.uniform(2, 2, 2), 1)
    with pytest.raises(UnknownAction):
        F.value("nope", 0.5)


def test_default_action_labels():
    F = bc.lift(bc.BehavioralProfile.uniform(2, 3, 2), 1)
    assert F.actions == ("a0", "a1", "a2")


def test_behavioral_profile_validation():
    with pytest.raises(ValueError):
        bc.BehavioralProfile(np.array([[0.5, 0.6]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        bc.BehavioralProfile(np.array([[-0.1, 1.1]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        bc.BehavioralProfile(np.array([[1.0]]), np.array([[1.0], [1.0]]))


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
    F = bc.lift(profile, 1)
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
            idx = min(grid_floor(n, theta - 0.5 / level), n - 1)
            out[i, policy[idx]] = 1.0
        return out

    F_n = bc.lift(bc.BehavioralProfile(rows(n), rows(n)), 1)
    F_2n = bc.lift(bc.BehavioralProfile(rows(2 * n), rows(2 * n)), 1)
    for k in range(n + 1):
        assert np.allclose(F_n.values(k / n), F_2n.values(k / n), atol=1e-12)

"""Metamorphic properties: a change of units changes no verdict.

Scaling u and v by 2^k, and epsilon with them, must scale every number of
a level's certificate by 2^k and leave the check_prop1 kind, the solved
profile and the verdict as they are.  Scaling the prior by 2^k, or player
1's type range by 2^j, must change no certificate at all: loading
normalizes the one away, and the other only relabels the types.  These
factors are powers of two, so every scaled number is exact and the tests
compare bits.  Two repros scale by 1e-8, which no float scales exactly,
and compare within a tolerance.  A constant added to v must leave player
1's certificate as it is, bit for bit, swapping the players must swap
every certificate number, and reversing one player's actions must permute
the certified profile's columns and change no certificate number beyond
rounding.  So must an affine map of one player's type range whose offset
and factor are not powers of two, with every expression composed with
its inverse.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bnecert as bc
from bnecert.discretize import BehavioralProfile, lift
from bnecert.driver import certify_level, solve_level

from conftest import ROOT, random_poly_doc

NUMBERS = ("gap1", "gap2", "quad_error1", "quad_error2", "value1", "value2")
# the 2x2 constant-sum game whose quadrature error depended on its units
PAYOFFS = [["sin(3*theta1)*exp(theta2) - theta2", "cos(2*theta1*theta2)"],
           ["exp(-theta1) * theta2", "0.3*sqrt(theta1 + theta2)"]]
# a prior that Simpson's rule does not integrate exactly
WAVY_PRIOR = "exp(sin(5*theta1*theta2)) + theta1"


def demo(name):
    path = ROOT / "demos" / "specs" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


games = st.one_of(
    st.sampled_from(["zero_sum_match", "matching_pennies",
                     "linear_prior_multipliers"]).map(demo),
    st.integers(0, 2 ** 32 - 1).map(
        lambda seed: random_poly_doc(np.random.default_rng(seed))))


def rewritten(doc, change, fields):
    """doc with each expression text e of the named fields as change(e)."""
    out = dict(doc)
    for name in fields:
        value = doc[name]
        out[name] = (change(value) if isinstance(value, str)
                     else [[change(e) for e in row] for row in value])
    return out


def scaled(doc, factor, fields):
    """doc with each expression of the named fields times factor."""
    return rewritten(doc, lambda e: f"{factor!r} * ({e})", fields)


def level(doc, n, epsilon):
    """(check_prop1 kind, solver result, certificate) of level n."""
    g = bc.load_game(bc.GameSpec.from_dict(doc))
    prop1 = bc.check_prop1(g)
    result, _, _, _, cert = certify_level(g, n, prop1, epsilon)
    return prop1.kind, result, cert


def profile_bytes(result):
    return result.profile.s.tobytes(), result.profile.t.tobytes()


def constant_sum_doc(scale=1.0, prior="1 + theta1", prior_scale=None):
    """The 2x2 constant-sum game of PAYOFFS, times scale, v = -u."""
    if prior_scale is not None:
        prior = f"{prior_scale!r} * ({prior})"
    return {"actions1": ["a", "b"], "actions2": ["c", "d"],
            "u": [[f"{scale!r} * ({e})" for e in row] for row in PAYOFFS],
            "v": [[f"-{scale!r} * ({e})" for e in row] for row in PAYOFFS],
            "prior": prior}


@settings(max_examples=50, deadline=None)
@given(doc=games, n=st.integers(1, 8), k=st.integers(-40, 40),
       epsilon=st.sampled_from([1e-2, 1e-3]))
# with u and v times 2^-27, gap2 moved in its fourth digit while certify's
# quadrature floor was an absolute 1e-9
@example(doc=demo("linear_prior_multipliers"), n=8, k=-27, epsilon=1e-2)
def test_payoff_units_scale_every_certificate_number(doc, n, k, epsilon):
    kind, result, cert = level(doc, n, epsilon)
    factor = 2.0 ** k
    kind_k, result_k, cert_k = level(scaled(doc, factor, ("u", "v")), n,
                                     epsilon * factor)
    assert kind_k == kind
    assert profile_bytes(result_k) == profile_bytes(result)
    assert cert_k.certified == cert.certified
    for name in NUMBERS:
        want = math.ldexp(getattr(cert, name), k)
        assert getattr(cert_k, name) == want, name


@settings(max_examples=50, deadline=None)
@given(doc=games, prior=st.sampled_from(["1", "1 + theta1*theta2",
                                         WAVY_PRIOR]),
       n=st.integers(1, 8), k=st.integers(-40, 10))
# its norm read 0.47% low when the normalization was to an absolute 5e-10
@example(doc=demo("zero_sum_match"), prior=WAVY_PRIOR, n=4, k=-40)
# prior x payoff overflowed certify's floor while that was one scale for
# the game: quad_error1 read 3.34e6 against 9.73 at the unit prior
@example(doc=constant_sum_doc(2.0 ** 34), prior="1 + theta1", n=4, k=990)
def test_prior_units_change_no_certificate(doc, prior, n, k):
    doc = dict(doc, prior=prior)
    _, result, cert = level(doc, n, 1e-3)
    _, result_k, cert_k = level(scaled(doc, 2.0 ** k, ("prior",)), n, 1e-3)
    assert profile_bytes(result_k) == profile_bytes(result)
    want = cert.to_dict()
    got = cert_k.to_dict()
    del want["wall_time"], got["wall_time"]
    assert got == want


def test_small_payoffs_keep_their_quadrature_error():
    # times 1e-8, the error read 1.88e-2 of the payoffs, against 2.47e-6
    # at unit scale
    scale = 1e-8
    _, _, cert = level(constant_sum_doc(scale), 1, 2e-3 * scale)
    assert 2.47e-6 / 2 <= cert.quad_error1 / scale <= 2.47e-6 * 2


def test_a_small_prior_normalizes_to_its_unit_norm():
    # times 1e-8, the norm read 0.47% low, and so did every payoff
    unit = constant_sum_doc(prior=WAVY_PRIOR)
    small = constant_sum_doc(prior=WAVY_PRIOR, prior_scale=1e-8)
    norms = [bc.load_game(bc.GameSpec.from_dict(doc)).prior_norm
             for doc in (unit, small)]
    assert math.isclose(norms[1] / 1e-8, norms[0], rel_tol=1e-12)
    (_, _, cert), (_, _, cert_small) = (level(doc, 4, 1e-3)
                                        for doc in (unit, small))
    for name in ("gap1", "gap2"):
        assert math.isclose(getattr(cert_small, name), getattr(cert, name),
                            rel_tol=1e-9), name


@pytest.mark.parametrize("C", [1e4, 1e8, 1e10])
def test_a_constant_in_v_leaves_player_1s_certificate_alone(C):
    # when certify's floor was one scale for the game, C = 1e8 moved gap1
    # from 0x1.2ca15bc86201fp-1 to 0x1.15fa97fac5f29p-1, and quad_error1
    # from 2.47e-6 to 1.88e-2
    doc = constant_sum_doc()
    kind, result, cert = level(doc, 1, 2e-3)
    shifted = dict(doc, v=[[f"{C!r} - ({e})" for e in row] for row in PAYOFFS])
    kind_c, result_c, cert_c = level(shifted, 1, 2e-3)
    assert kind == kind_c == "zero_sum"
    assert profile_bytes(result_c) == profile_bytes(result)
    for name in ("gap1", "quad_error1", "value1"):
        assert getattr(cert_c, name) == getattr(cert, name), name
    # player 2's values are C minus player 1's, rounded at C's size
    assert abs(cert_c.gap2 - cert.gap2) <= 4 * math.ulp(C)


@pytest.mark.parametrize("j", [-3, 1, 5])
@pytest.mark.parametrize("name", ["zero_sum_match", "matching_pennies",
                                  "linear_prior_multipliers"])
def test_a_type_range_of_a_power_of_two_only_relabels(name, j):
    # player 1's types on [0, 2^j], and theta1 * 2^-j for theta1 in every
    # expression: both maps are exact
    doc = demo(name)
    fields = [f for f in ("u", "v", "prior", "m1") if f in doc]
    relabelled = rewritten(
        doc, lambda e: e.replace("theta1", f"(theta1 * {2.0 ** -j!r})"),
        fields)
    docs = doc, dict(relabelled, type_range1=[0.0, 2.0 ** j])
    norms = [bc.load_game(bc.GameSpec.from_dict(d)).prior_norm for d in docs]
    assert norms[1] == norms[0]
    (kind, result, cert), (kind_j, result_j, cert_j) = (level(d, 8, 1e-3)
                                                        for d in docs)
    assert kind_j == kind
    assert profile_bytes(result_j) == profile_bytes(result)
    want, got = cert.to_dict(), cert_j.to_dict()
    del want["wall_time"], got["wall_time"]
    assert got == want


def swapped(doc):
    """doc with the players exchanged: theta1 <-> theta2 in every
    expression, u[x][y] <-> v[y][x], and each player's actions,
    multiplier and type range as the other's."""
    def swap(e):
        return re.sub(r"theta([12])", lambda m: f"theta{3 - int(m[1])}", e)

    def table(rows):  # transposed, with the types swapped
        return [[swap(e) for e in column] for column in zip(*rows)]

    out = {"actions1": doc["actions2"], "actions2": doc["actions1"],
           "u": table(doc["v"]), "v": table(doc["u"]),
           "prior": swap(doc["prior"])}
    if "m1" in doc:  # then m2 is too
        out["m1"], out["m2"] = swap(doc["m2"]), swap(doc["m1"])
    for name, other in (("type_range1", "type_range2"),
                        ("type_range2", "type_range1")):
        if name in doc:
            out[other] = doc[name]
    return out


def mirrored(name):
    """The certificate field of the other player: gap1 <-> gap2, ..."""
    return name[:-1] + ("2" if name[-1] == "1" else "1")


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("source", ["zero_sum_match", "matching_pennies",
                                    "linear_prior_multipliers",
                                    0, 1, 2, 3, 4, 5])
def test_swapping_the_players_swaps_every_certificate_number(source, n):
    # certify integrates both players in one call, so this also checks
    # that its integrand keeps the two players apart
    doc = (demo(source) if isinstance(source, str)
           else random_poly_doc(np.random.default_rng(source)))
    g, gs = (bc.load_game(bc.GameSpec.from_dict(d))
             for d in (doc, swapped(doc)))
    prop1, prop1_s = bc.check_prop1(g), bc.check_prop1(gs)
    assert prop1_s.kind == prop1.kind
    result, _, F, G, cert = certify_level(g, n, prop1, 1e-3)
    cert_s = bc.certify(gs, G, F, 1e-3)
    assert cert_s.certified == cert.certified
    got = [getattr(cert_s, mirrored(name)) for name in NUMBERS]
    want = [getattr(cert, name) for name in NUMBERS]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    result_s, _ = solve_level(gs, n, prop1_s, 1e-3)
    if prop1.linearizable:  # the LP may reach another optimal vertex
        assert max(result_s.finite_gap1, result_s.finite_gap2) <= 1e-12
    else:  # fictitious play mirrors its steps
        assert profile_bytes(result_s) == profile_bytes(result)[::-1]


def permuted(doc, player):
    """doc with player's actions in reverse order: its labels, and the
    rows (player 1) or columns (player 2) of u and v."""
    out = dict(doc)
    if player == 1:
        out["actions1"] = doc["actions1"][::-1]
        out["u"], out["v"] = doc["u"][::-1], doc["v"][::-1]
    else:
        out["actions2"] = doc["actions2"][::-1]
        out["u"], out["v"] = ([row[::-1] for row in doc[name]]
                              for name in ("u", "v"))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("player", [1, 2])
@pytest.mark.parametrize("source", ["zero_sum_match", "matching_pennies",
                                    "linear_prior_multipliers", 0, 1, 2])
def test_reversing_a_players_actions_permutes_the_profile(source, player, n):
    epsilon = 1e-3
    doc = (demo(source) if isinstance(source, str)
           else random_poly_doc(np.random.default_rng(source)))
    g, gp = (bc.load_game(bc.GameSpec.from_dict(d))
             for d in (doc, permuted(doc, player)))
    prop1, prop1_p = bc.check_prop1(g), bc.check_prop1(gp)
    assert prop1_p.kind == prop1.kind
    result, _, _, _, cert = certify_level(g, n, prop1, epsilon)
    # the same profile, the player's columns reversed with the actions;
    # certify sums the actions in another order, so it may round apart
    s, t = result.profile.s, result.profile.t
    if player == 1:
        s = s[:, ::-1]
    else:
        t = t[:, ::-1]
    profile = BehavioralProfile(s, t)
    cert_p = bc.certify(gp, lift(profile, 1, gp.actions1),
                        lift(profile, 2, gp.actions2), epsilon)
    for name in NUMBERS:
        assert abs(getattr(cert_p, name) - getattr(cert, name)) <= 1e-12, name
    margins = [abs(getattr(cert, f"gap{i}") + getattr(cert, f"quad_error{i}")
                   - epsilon) for i in (1, 2)]
    if min(margins) > 1e-9:
        assert cert_p.certified == cert.certified
    result_p, _ = solve_level(gp, n, prop1_p, epsilon)
    target = 1e-12 if prop1.linearizable else epsilon / 10.0
    assert max(result_p.finite_gap1, result_p.finite_gap2) <= target
    # the LP may reach another optimal vertex, and fictitious play breaks
    # an exact tie toward the lowest index, which the reversal moves;
    # these fictitious play games meet no exact tie, so only their rows
    # are the permuted rows, bit for bit
    if not prop1.linearizable:
        assert profile_bytes(result_p) == (s.tobytes(), t.tobytes())


def mapped(doc, player, c, d):
    """doc with player's type range mapped by theta -> c + d theta, and
    (theta - c) / d for that player's type in every expression."""
    var = f"theta{player}"
    fields = [f for f in ("u", "v", "prior", "m1", "m2") if f in doc]
    out = rewritten(doc, lambda e: re.sub(
        rf"\b{var}\b", f"(({var} - ({c!r})) / {d!r})", e), fields)
    a, b = doc.get(f"type_range{player}", [0.0, 1.0])
    out[f"type_range{player}"] = [c + d * a, c + d * b]
    return out


@pytest.mark.parametrize("c, d", [(0.3, 1.7), (-2.5, 0.1), (1e3, 3.0)])
@pytest.mark.parametrize("player", [1, 2])
@pytest.mark.parametrize("source", ["zero_sum_match", "matching_pennies",
                                    "linear_prior_multipliers", 0, 1, 2])
def test_an_affine_type_range_only_relabels(source, player, c, d):
    # neither c nor d is a power of two, so the relabelled types round
    # apart from the original ones, and the numbers agree to rounding
    epsilon = 1e-3
    doc = (demo(source) if isinstance(source, str)
           else random_poly_doc(np.random.default_rng(source)))
    g, gm = (bc.load_game(bc.GameSpec.from_dict(x))
             for x in (doc, mapped(doc, player, c, d)))
    prop1, prop1_m = bc.check_prop1(g), bc.check_prop1(gm)
    assert prop1_m.kind == prop1.kind
    target = 1e-12 if prop1.linearizable else epsilon / 10.0
    for n in (1, 2, 3, 5, 8):
        _, _, F, G, cert = certify_level(g, n, prop1, epsilon)
        cert_m = bc.certify(gm, F, G, epsilon)
        for name in NUMBERS:
            want = getattr(cert, name)
            assert abs(getattr(cert_m, name) - want) \
                <= 1e-9 * max(1.0, abs(want)), (n, name)
        margins = [abs(getattr(cert, f"gap{i}")
                       + getattr(cert, f"quad_error{i}") - epsilon)
                   for i in (1, 2)]
        if min(margins) > 1e-6:
            assert cert_m.certified == cert.certified, n
        # the LP may reach another optimal vertex, so only the mapped
        # game's own gaps are checked
        result_m, _ = solve_level(gm, n, prop1_m, epsilon)
        assert max(result_m.finite_gap1, result_m.finite_gap2) <= target, n

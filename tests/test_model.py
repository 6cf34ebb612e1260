"""Game loading: validation, normalization, marginals, assimilation."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bnecert as bc
from bnecert.errors import (
    DomainError,
    ExprSyntaxError,
    NegativePrior,
    NonFinite,
    UnknownIdentifier,
    ZeroMarginal,
)
from bnecert.expr import Program

from conftest import ROOT, make_game


def test_uniform_prior_product_utility():
    g = make_game([["theta1*theta2"]], [["0"]], prior="1")
    assert g.prior_norm == pytest.approx(1.0, abs=1e-9)
    # the payoff is prior x utility, with no offset
    assert g.payoff(1, 0.5, 0.5)[0, 0] == g.prior(0.5, 0.5) * 0.25


def test_linear_prior_normalizes_to_one():
    g = make_game([["1"]], [["0"]], prior="theta1+theta2")
    assert g.prior_norm == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("prior, norm", [
    # theta1*theta2 itself has a zero marginal at theta = 0
    ("1 + theta1*theta2", 1.25),
    # sum_k 1/((k+1) (k+1)!) -- series for the double integral of e^(xy)
    ("exp(theta1*theta2)", sum(1.0 / ((k + 1) * math.factorial(k + 1))
                               for k in range(25))),
], ids=["one_plus_product", "exp_product"])
def test_prior_norm_is_the_integral_over_the_unit_square(prior, norm):
    g = make_game([["1"]], [["0"]], prior=prior)
    assert abs(g.prior_norm - norm) <= 1e-8


def test_negative_prior_rejected():
    with pytest.raises(NegativePrior) as info:
        make_game([["1"]], [["1"]], prior="theta1-0.5")
    assert str(info.value) == "prior is negative at theta=(0.0, 0.0)"


def test_nonfinite_utility_rejected():
    with pytest.raises(NonFinite):
        make_game([["exp(700)*exp(700)"]], [["0"]])


@pytest.mark.parametrize("utility", ["exp(1000*theta1)", "10^400"])
def test_overflowing_utility_rejected(utility):
    with pytest.raises(NonFinite):
        make_game([[utility]], [["0"]])


@pytest.mark.parametrize("u, v, message", [
    ([["1", "0"], ["exp(1000*theta1)", "0"]], [["0", "0"], ["0", "0"]],
     "u[1][0]: utility is not finite at (0.75, 0.0)"),
    ([["1", "0"], ["0", "0"]], [["0", "10^400"], ["0", "0"]],
     "v[0][1]: utility is not finite at (0.0, 0.0)"),
])
def test_nonfinite_utility_names_its_cell(u, v, message):
    # named like a DomainError, from the cell's place in its table
    with pytest.raises(NonFinite) as info:
        make_game(u, v)
    assert str(info.value) == message


@pytest.mark.parametrize("prior, message", [
    ("theta1", "marginal of player 1 at theta=0.0 is 0.0"),
    ("max(0, 0.3 - theta2)", "marginal of player 2 at theta=0.3 is 0.0"),
])
def test_zero_marginal_rejected(prior, message):
    with pytest.raises(ZeroMarginal) as info:
        make_game([["1"]], [["0"]], prior=prior, grid_check=101)
    assert str(info.value) == message


@pytest.mark.parametrize("prior, u, error, message", [
    # the prior is 0 on the whole grid: a grid line names it
    ("0", "1", ZeroMarginal, "marginal of player 1 at theta=0.0 is 0.0"),
    # log(0) at theta1 = 1/8, off the grid, raises only in the
    # normalization, which comes after the grid's utility error
    ("10 + log(abs(theta1 - 0.125))", "exp(1000*theta1)", NonFinite,
     "u[0][0]: utility is not finite at (0.71, 0.0)"),
    ("10 + log(abs(theta1 - 0.125))", "1", DomainError,
     "prior: log of non-positive value 0.0"),
])
def test_the_grid_pass_fails_before_the_normalization(prior, u, error,
                                                       message):
    with pytest.raises(error) as info:
        make_game([[u]], [["0"]], prior=prior, grid_check=101)
    assert str(info.value) == message


@pytest.mark.parametrize("prior, u, error, message", [
    # u[0][1] fails at theta1 = 0, u[0][0] only at theta1 = 0.75
    ("1", "log(1.5 - 2*theta1)", DomainError,
     "u[0][0]: log of non-positive value 0.0"),
    # the prior is inf only at theta1 >= 0.95, u[0][1] fails at 0
    ("exp(5000*(theta1 - 0.8))", "0", NonFinite,
     "prior evaluates to NaN/inf on the validation grid"),
    ("0.9 - theta1", "0", NegativePrior,
     "prior is negative at theta=(0.91, 0.0)"),
], ids=["cell-order", "prior-nonfinite", "prior-negative"])
def test_grid_errors_come_in_table_order_over_the_whole_grid(prior, u, error,
                                                             message):
    # the prior's error, then each cell's in table order, wherever on the
    # grid each one fails: checking the grid in blocks of rows would raise
    # u[0][1]'s error, which the first rows already show
    with pytest.raises(error) as info:
        make_game([[u, "log(theta1 - 0.2)"]], [["0", "0"]], prior=prior,
                  grid_check=101)
    assert str(info.value) == message


@pytest.mark.parametrize("k", [-40, -20, 10])
def test_prior_norm_scales_with_the_prior_bit_for_bit(k):
    prior = "exp(sin(5*theta1*theta2)) + theta1"
    unit = make_game([["1"]], [["0"]], prior=prior, grid_check=101)
    scaled = make_game([["1"]], [["0"]], prior=f"{2.0 ** k!r} * ({prior})",
                       grid_check=101)
    assert scaled.prior_norm == math.ldexp(unit.prior_norm, k)


@pytest.mark.parametrize("prior", ["1e-320", "1e308"])
def test_a_subnormal_or_huge_prior_normalizes(prior):
    # the tolerances are of a power of two near the prior's size, so they
    # neither underflow to 0 nor let the Simpson sums overflow
    g = make_game([["theta1"]], [["0"]], prior=prior)
    assert g.prior(0.3, 0.9) == 1.0


def test_a_huge_prior_with_large_payoffs_normalizes():
    g = make_game([["1e10"]], [["0"]], prior="1e300")
    assert g.prior_norm == 1e300


@pytest.mark.parametrize("error, change, message", [
    (NegativePrior, {"prior": "theta1 - 2.5"},
     "prior is negative at theta=(2.0, 10.0)"),
    (ZeroMarginal, {"prior": "theta1 - 2"},
     "marginal of player 1 at theta=2.0 is 0.0"),
    (ZeroMarginal, {"prior": "max(0, 13 - theta2)"},
     "marginal of player 2 at theta=13.0 is 0.0"),
    (NonFinite, {"u": [["exp(10000*(theta1 - 2.85))"]]},
     "u[0][0]: utility is not finite at (2.93, 10.0)"),
], ids=["negative-prior", "zero-marginal-1", "zero-marginal-2", "utility"])
def test_load_errors_name_points_in_spec_coordinates(error, change, message):
    doc = _one_cell_doc(type_range1=[2, 3], type_range2=[10, 20], **change)
    with pytest.raises(error) as info:
        bc.load_game(bc.GameSpec.from_dict(doc))
    assert str(info.value) == message


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
    for bad in (13.0, "13", True):
        with pytest.raises(ValueError, match="grid_check"):
            bc.load_game(spec, grid_check=bad)
    g = bc.load_game(spec, grid_check=np.int64(13))
    assert g.prior_norm == pytest.approx(1.0)


def test_one_program_per_game(monkeypatch):
    """load_game compiles the prior, the utilities and the multipliers into
    one Program, and check_prop1 and run evaluate them all through it."""
    built = []
    init = Program.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Program, "__init__", counting_init)
    g = bc.load_game_file(ROOT / "demos" / "specs"
                          / "linear_prior_multipliers.json")
    assert bc.check_prop1(g).kind == "user"
    report = bc.run(g, bc.RunConfig(epsilon=0.004, max_level=8))
    assert [rec["backend"] for rec in report.levels] == ["lp"] * 4
    assert all(rec["error"] is None for rec in report.levels)
    assert len(built) == 1 and built[0] is g.program


def test_one_multiplier_needs_the_other():
    path = Path(__file__).resolve().parent.parent / "demos" / "specs"
    doc = json.loads((path / "linear_prior_multipliers.json").read_text())
    for missing, given in (("m2", "m1"), ("m1", "m2")):
        partial = {k: v for k, v in doc.items() if k != missing}
        with pytest.raises(ValueError) as exc:
            bc.GameSpec.from_dict(partial)
        assert str(exc.value) == (f"{given} is given without {missing}; "
                                  f"the multipliers come as a pair")


def test_unknown_fields_are_rejected_by_name_in_sorted_order():
    path = ROOT / "demos" / "specs" / "linear_prior_multipliers.json"
    doc = json.loads(path.read_text())
    # a misspelt type_range1 would otherwise leave it at (0, 1)
    with pytest.raises(ValueError,
                       match=r"^spec has unknown fields: 'type_range_1'$"):
        bc.GameSpec.from_dict({**doc, "type_range_1": [0, 2]})
    # checked before the known fields, which here are missing
    with pytest.raises(ValueError,
                       match=r"^spec has unknown fields: 'U', 'comment'$"):
        bc.GameSpec.from_dict({"comment": "", "U": [["1"]]})
    # every field of the schema is known
    spec = bc.GameSpec.from_dict({**doc, "type_range1": [0, 2],
                                  "type_range2": [0, 1]})
    assert spec.type_range1 == (0, 2)


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
    with pytest.raises(ValueError, match="JSON object"):
        bc.GameSpec.from_dict([base])
    # a missing or mistyped field is a ValueError that names it
    for change, field in (
            ({"prior": None}, "prior"),
            ({"u": None}, "u"),
            ({"actions2": None}, "actions2"),
            ({"prior": 1}, "prior"),
            ({"m1": 2.0}, "m1"),
            ({"u": "1"}, "u"),
            ({"v": ["1", "1"]}, "v"),
            ({"u": [[1], [1]]}, "u"),
            ({"actions1": "xy"}, "actions1"),
            ({"actions2": [1]}, "actions2"),
            ({"type_range1": ["a", "b"]}, "type_range1"),
            ({"type_range2": [0.0, 1.0, 2.0]}, "type_range2"),
            ({"type_range1": [0.0, float("inf")]}, "type_range1"),
            ({"type_range1": [False, True]}, "type_range1"),
            ({"type_range2": [0, True]}, "type_range2"),
            ({"type_range2": 1.0}, "type_range2")):
        doc = {k: v for k, v in {**base, **change}.items() if v is not None}
        with pytest.raises(ValueError,
                           match=rf"^(spec has no '{field}'|{field} must)"):
            bc.GameSpec.from_dict(doc)


def test_expression_errors_name_their_field():
    base = {"actions1": ["x1", "x2"], "actions2": ["y1"],
            "u": [["1"], ["1"]], "v": [["1"], ["1"]], "prior": "1"}
    for change, where, error, offset in (
            ({"v": [["1"], ["theta1*"]]}, "v[1][0]", ExprSyntaxError, 7),
            ({"u": [["theta3"], ["1"]]}, "u[0][0]", UnknownIdentifier, 0),
            ({"prior": "1 +"}, "prior", ExprSyntaxError, 3),
            ({"m2": "exp(theta2"}, "m2", ExprSyntaxError, 10)):
        with pytest.raises(error) as info:
            bc.GameSpec.from_dict({**base, **change})
        assert str(info.value).startswith(f"{where}: ")
        assert str(info.value).endswith(f"(at offset {offset})")
        assert info.value.offset == offset


def test_an_unknown_name_in_a_cell_names_the_cell():
    doc = {"actions1": ["x1", "x2"], "actions2": ["y1", "y2"],
           "u": [["1", "theta1 + theta3"], ["1", "1"]],
           "v": [["1", "1"], ["1", "1"]], "prior": "1"}
    with pytest.raises(ExprSyntaxError) as info:
        bc.GameSpec.from_dict(doc)
    assert type(info.value) is UnknownIdentifier
    assert str(info.value) == ("u[0][1]: unknown identifier 'theta3' "
                               "(at offset 9)")


@pytest.mark.parametrize("actions1, actions2, player", [
    (["x", "y", "x"], ["a", "b", "c"], 1),
    (["a", "b", "c"], ["x", "y", "x"], 2),
    (["x", "y", "x"], ["x", "y", "x"], 1),
], ids=["player1", "player2", "both-player1-first"])
def test_duplicate_action_labels_are_rejected(actions1, actions2, player):
    doc = {"actions1": actions1, "actions2": actions2,
           "u": [["1"] * 3] * 3, "v": [["1"] * 3] * 3, "prior": "1"}
    with pytest.raises(ValueError, match=rf"^duplicate action labels for "
                       rf"player {player}$"):
        bc.GameSpec.from_dict(doc)


def _one_cell_doc(**change):
    return {"actions1": ["x"], "actions2": ["y"], "u": [["theta1"]],
            "v": [["0"]], "prior": "1", **change}


def test_long_sums_load():
    """A 1500-term sum is 1500 operators deep; it parses, compiles and
    validates without recursion."""
    terms = ["theta1"] * 1500
    g = bc.load_game(bc.GameSpec.from_dict(_one_cell_doc(
        u=[[" + ".join(terms)]], m1=" + ".join(["1", *terms[1:]]), m2="1")))
    assert g.payoff(1, 0.5, 0.25)[0, 0] == 750.0
    assert g.multiplier(1, 0.5) == 750.5
    with pytest.raises(ValueError, match="^m1 may only reference theta1$"):
        bc.GameSpec.from_dict(_one_cell_doc(
            m1=" + ".join([*terms, "theta2"]), m2="1"))


def test_deep_specs_print_compare_and_hash():
    """A spec compares and hashes by identity and prints without its
    expressions, so a 1500-term sum leaves its repr short."""
    doc = _one_cell_doc(u=[[" + ".join(["theta1"] * 1500)]])
    spec, spec2 = (bc.GameSpec.from_dict(doc) for _ in range(2))
    assert repr(spec) == ("GameSpec(actions1=('x',), actions2=('y',), "
                          "type_range1=(0.0, 1.0), type_range2=(0.0, 1.0))")
    assert spec == spec and spec != spec2
    assert hash(spec) == hash(spec)
    assert repr(bc.load_game(spec)).startswith(f"InfiniteGame(spec={spec!r}")


@pytest.mark.parametrize("text", [
    "(" * 2000 + "theta1" + ")" * 2000,
    "-" * 2000 + "theta1",
    "2^" * 2000 + "1",
    "exp(" * 2000 + "theta1" + ")" * 2000,
], ids=["parentheses", "unary-minus", "power", "calls"])
def test_nesting_deeper_than_the_stack_is_a_syntax_error(text):
    with pytest.raises(ExprSyntaxError, match=r"^u\[0\]\[0\]: expression "
                       r"nested too deeply \(at offset \d+\)$"):
        bc.load_game(bc.GameSpec.from_dict(_one_cell_doc(u=[[text]])))


@pytest.mark.parametrize("name", ["type_range1", "type_range2"])
def test_a_type_range_of_infinite_width_is_rejected(name):
    # b - a overflowed to inf, and the rescaled type at 0 read nan, which
    # loading blamed on the utility
    with pytest.raises(ValueError, match=rf"^{name} must be an increasing "
                       rf"interval of finite width$"):
        bc.GameSpec.from_dict(_one_cell_doc(**{name: [-1e308, 1e308]}))
    # a finite width loads, however wide
    g = bc.load_game(bc.GameSpec.from_dict(_one_cell_doc(
        **{name: [0, 1e308]})))
    assert g.prior_norm == 1.0


@pytest.mark.parametrize("name", ["type_range1", "type_range2"])
@pytest.mark.parametrize("bounds", [
    (0, 10 ** 400), (-10 ** 400, 0), (10 ** 400, 10 ** 400 + 1),
], ids=["upper", "lower", "both"])
def test_an_int_bound_too_large_for_a_float_is_rejected(name, bounds):
    # math.isfinite raised OverflowError on a JSON spec, and a spec built
    # in code passed its checks, then raised it at load_game
    with pytest.raises(ValueError, match=rf"^{name} must be two finite "
                       rf"numbers, got \[{bounds[0]}, {bounds[1]}\]$"):
        bc.GameSpec.from_dict(_one_cell_doc(**{name: list(bounds)}))
    spec = bc.GameSpec.from_dict(_one_cell_doc())
    with pytest.raises(ValueError, match=rf"^{name} must be an increasing "
                       rf"interval of finite width$"):
        replace(spec, **{name: bounds})


@pytest.mark.parametrize("bounds", [("0", 1), (0, 1, 2), (True, 2)],
                         ids=["string", "three-numbers", "bool"])
def test_a_spec_built_in_code_meets_the_type_range_rule(bounds):
    # the JSON rule, two finite numbers that are not bools: a string
    # raised TypeError, three numbers failed at load_game, and a bool loaded
    spec = bc.GameSpec.from_dict(_one_cell_doc())
    for name in ("type_range1", "type_range2"):
        with pytest.raises(ValueError, match=rf"^{name} must be an "
                           rf"increasing interval of finite width$"):
            replace(spec, **{name: bounds})


@pytest.mark.parametrize("change, name", [
    ({"type_range1": [0, 10 ** 5000]}, "type_range1"),
    ({"actions1": 10 ** 5000}, "actions1"),
    ({"prior": 10 ** 5000}, "prior"),
], ids=["type-range", "actions", "prior"])
def test_an_int_too_long_to_print_is_a_named_error(change, name):
    # repr of an int past Python's digit limit raised its own ValueError
    with pytest.raises(ValueError, match=rf"^{name} must be [a-z ]+, got "
                       rf"a number too long to print$"):
        bc.GameSpec.from_dict(_one_cell_doc(**change))


def test_spec_accepts_tuples_and_integer_ranges():
    spec = bc.GameSpec.from_dict({"actions1": ("x1", "x2"), "actions2": ["y"],
                                  "u": (("1",), ("2",)), "v": [["1"], ["2"]],
                                  "prior": "1", "type_range1": [0, 2]})
    assert spec.actions1 == ("x1", "x2")
    assert spec.type_range1 == (0, 2)


def test_marginal_examples():
    uniform = make_game([["1"]], [["0"]], prior="1")
    assert bc.marginal(uniform, 1, 0.37) == pytest.approx(1.0, abs=1e-9)

    linear = make_game([["1"]], [["0"]], prior="theta1+theta2")
    assert bc.marginal(linear, 1, 0.5) == pytest.approx(1.0, abs=1e-8)
    assert bc.marginal(linear, 1, 0.0) == pytest.approx(0.5, abs=1e-8)


def test_marginal_of_a_type_array_equals_one_type_at_a_time():
    g = make_game([["1"]], [["0"]],
                  prior="1 + exp(theta1) * abs(theta2 - 0.3)")
    grid = np.linspace(0.0, 1.0, 41)
    for player in (1, 2):
        batch = bc.marginal(g, player, grid, quad_tol=1e-7)
        one = [bc.marginal(g, player, theta, quad_tol=1e-7) for theta in grid]
        assert batch.tobytes() == np.array(one).tobytes()


@pytest.mark.parametrize("quad_tol", [math.nan, -1.0, 0.0, math.inf])
def test_marginal_rejects_a_bad_tolerance_at_once(quad_tol):
    g = make_game([["1"]], [["0"]], prior="1 + theta1 * theta2")
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        bc.marginal(g, 1, 0.3, quad_tol=quad_tol)


def test_marginal_of_no_types_is_empty():
    g = make_game([["1"]], [["0"]], prior="1 + theta1 * theta2")
    for player in (1, 2):
        assert bc.marginal(g, player, np.array([])).shape == (0,)


def test_assimilation_consistency_441_points():
    g = make_game([["theta1*theta2 - 0.3"]], [["theta2"]],
                  prior="theta1+theta2")
    grid = np.linspace(0.0, 1.0, 21)
    t1, t2 = grid[:, None], grid[None, :]
    raw, = g.tables(t1, t2, (1,), assimilated=False)
    want = g.prior(t1, t2) * raw[0, 0]
    got = g.payoff(1, t1, t2)[0, 0]
    assert got.tobytes() == want.tobytes()


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
    raw, = g.tables(0.5, 0.0, (1,), assimilated=False)
    assert raw[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_load_game_file_round_trip(tmp_path):
    doc = {"actions1": ["x1"], "actions2": ["y1"],
           "u": [["theta1"]], "v": [["theta2"]], "prior": "1"}
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    g = bc.load_game_file(str(path))
    assert g.actions1 == ("x1",)
    raw, = g.tables(0.25, 0.9, (1,), assimilated=False)
    assert raw[0, 0] == 0.25

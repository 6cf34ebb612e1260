"""Expression DSL: grammar, evaluation, errors, pretty-printing."""

import math

import numpy as np
import pytest

from bnecert import evaluate, parse
from bnecert.errors import DomainError, ExprSyntaxError, UnknownIdentifier
from bnecert.expr import FUNCTIONS, BinOp, Call, Neg, Num, Var

from conftest import oracle_eval


def test_parse_product_tree():
    e = parse("theta1*theta2")
    assert e == BinOp("*", Var("theta1"), Var("theta2"))


def test_dangling_operator_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("theta1*")
    assert exc.value.offset == 7


def test_left_associative_subtraction():
    assert evaluate("1 - 2 - 3", 0.0, 0.0) == -4.0


def test_power_binds_tighter_than_unary_minus():
    assert evaluate("-2^2", 0.0, 0.0) == -4.0
    assert evaluate("(-2)^2", 0.0, 0.0) == 4.0


def test_power_right_associative():
    assert evaluate("2^3^2", 0.0, 0.0) == 512.0


def test_eval_examples():
    assert evaluate("theta1*theta2", 0.5, 0.25) == 0.125
    assert evaluate("0.25*(theta1+theta2)", 1.0, 1.0) == 0.5
    assert evaluate("max(theta1, 1-theta1)", 0.3, 0.9) == 0.7


def test_functions():
    assert evaluate("min(1, 2, 3)", 0, 0) == 1.0
    assert evaluate("abs(-3)", 0, 0) == 3.0
    assert evaluate("sqrt(theta1)", 0.25, 0) == 0.5
    assert evaluate("exp(0)", 0, 0) == 1.0
    assert evaluate("log(exp(1))", 0, 0) == pytest.approx(1.0)
    assert evaluate("sin(0) + cos(0)", 0, 0) == 1.0


def test_scientific_notation():
    assert evaluate("1e-2 + 2.5E3", 0, 0) == 0.01 + 2500.0


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse("theta3")
    with pytest.raises(UnknownIdentifier):
        parse("foo(1)")


def test_syntax_errors():
    for text in ["", "(theta1", "1 + + 2", "max(1)", "abs(1, 2)", "1..2",
                 "theta1 @ 2"]:
        with pytest.raises(ExprSyntaxError):
            parse(text)


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate("1/theta1", 0.0, 0.0)
    with pytest.raises(DomainError):
        evaluate("log(theta1)", 0.0, 0.0)
    with pytest.raises(DomainError):
        evaluate("sqrt(theta1 - 1)", 0.0, 0.0)
    with pytest.raises(DomainError):
        evaluate("(-1)^0.5", 0.0, 0.0)
    with pytest.raises(DomainError):
        evaluate("0^(-1)", 0.0, 0.0)


# ---------------------------------------------------------------------------
# precedence oracle: random ASTs rendered fully parenthesized must agree
# with the minimally parenthesized pretty-printer to 0 ULP


def _random_ast(rng, depth, names=("min", "max", "abs")):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Num(float(rng.integers(1, 5)))
        return Var("theta1" if rng.random() < 0.5 else "theta2")
    kind = rng.random()
    if kind < 0.15:
        return Neg(_random_ast(rng, depth - 1, names))
    if kind < 0.30:
        name = names[int(rng.integers(0, len(names)))]
        arity = 2 if name in ("min", "max") else 1
        return Call(name, tuple(_random_ast(rng, depth - 1, names)
                                for _ in range(arity)))
    op = "+-*/^"[int(rng.integers(0, 5))]
    return BinOp(op, _random_ast(rng, depth - 1, names),
                 _random_ast(rng, depth - 1, names))


def _paren_render(e):
    """Fully parenthesized reference rendering (precedence-free)."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{_paren_render(e.arg)})"
    if isinstance(e, Call):
        return f"{e.name}({', '.join(_paren_render(a) for a in e.args)})"
    return f"({_paren_render(e.left)} {e.op} {_paren_render(e.right)})"


def _try_eval(e, t1, t2):
    try:
        return e.eval(t1, t2)
    except DomainError:
        return None


def test_precedence_oracle_1000_random_asts():
    rng = np.random.default_rng(20240817)
    checked = 0
    for _ in range(1000):
        ast = _random_ast(rng, depth=int(rng.integers(1, 6)))
        reference = parse(_paren_render(ast))
        pretty = parse(str(ast))
        t1, t2 = rng.random(), rng.random()
        want = _try_eval(reference, t1, t2)
        assert _try_eval(ast, t1, t2) == want
        assert _try_eval(pretty, t1, t2) == want
        if want is not None and math.isfinite(want):
            checked += 1
    assert checked > 500  # most samples must be informative


def test_pretty_print_round_trip_on_grid():
    texts = [
        "theta1*theta2 + 1",
        "-theta1^2 - -theta2",
        "max(theta1, 1-theta1) * min(theta2, 0.5)",
        "(theta1 + theta2)^3 / (1 + theta1)",
        "1 - 2 - 3 * theta1",
        "2^3^theta2",
    ]
    grid = np.linspace(0.0, 1.0, 21)
    for text in texts:
        e = parse(text)
        again = parse(str(e))
        for t1 in grid:
            for t2 in grid:
                assert again.eval(t1, t2) == e.eval(t1, t2)


# ---------------------------------------------------------------------------
# array evaluation is the point-by-point oracle, bit for bit


def _random_points(rng, shape):
    """Types in [0, 1] or in [-2, 3], with exact 0, -0, 1 and 2 mixed in."""
    scale = 1.0 if rng.random() < 0.5 else 5.0
    pts = rng.random(shape) * scale - (0.0 if scale == 1.0 else 2.0)
    special = rng.random(shape) < 0.2
    pts[special] = rng.choice([0.0, -0.0, 1.0, 2.0], size=special.sum())
    return pts


def test_array_eval_equals_point_oracle_on_random_asts():
    rng = np.random.default_rng(20261018)
    raised = compared = 0
    for _ in range(600):
        ast = _random_ast(rng, depth=int(rng.integers(1, 6)),
                          names=tuple(FUNCTIONS))
        t1 = _random_points(rng, (6, 1))
        t2 = _random_points(rng, (1, 5))
        want = np.empty((6, 5))
        try:
            for i, j in np.ndindex(want.shape):
                want[i, j] = oracle_eval(ast, t1[i, 0], t2[0, j])
        except DomainError:
            with pytest.raises(DomainError):
                ast.eval(t1, t2)
            raised += 1
            continue
        got = ast.eval(t1, t2)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True), str(ast)
        numbers = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[numbers]),
                              np.signbit(want[numbers])), str(ast)
        compared += 1
    assert raised > 50 and compared > 300


def test_scalar_eval_equals_point_oracle():
    rng = np.random.default_rng(5)
    for _ in range(300):
        ast = _random_ast(rng, depth=int(rng.integers(1, 5)),
                          names=tuple(FUNCTIONS))
        t1, t2 = rng.random(2)
        try:
            want = oracle_eval(ast, t1, t2)
        except DomainError:
            with pytest.raises(DomainError):
                ast.eval(t1, t2)
            continue
        got = ast.eval(t1, t2)
        assert np.shape(got) == ()
        assert got == want or (math.isnan(got) and math.isnan(want))


def test_overflow_gives_inf():
    assert evaluate("exp(1000*theta1)", 1.0, 0.0) == math.inf
    assert evaluate("10^400", 0.0, 0.0) == math.inf
    assert evaluate("(-10)^401", 0.0, 0.0) == -math.inf
    assert math.isnan(evaluate("sin(exp(1000))", 0.0, 0.0))
    got = evaluate("exp(1000*theta1)", np.array([0.0, 1.0]), 0.0)
    assert got[0] == 1.0 and got[1] == math.inf


def test_domain_error_if_any_point_is_outside():
    with pytest.raises(DomainError):
        evaluate("log(theta1)", np.array([1.0, 0.5, 0.0]), 1.0)
    with pytest.raises(DomainError):
        evaluate("theta1^0.5", np.array([[1.0], [-1.0]]), np.ones(3))

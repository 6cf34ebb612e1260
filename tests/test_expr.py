"""Expression DSL: grammar, evaluation, errors, pretty-printing."""

import math

import numpy as np
import pytest

import bnecert as bc
from bnecert import parse
from bnecert.errors import DomainError, ExprSyntaxError, UnknownIdentifier
from bnecert.expr import FUNCTIONS, Program

from conftest import (
    _bench_games,
    expr_eval,
    oracle_eval,
    oracle_parse,
    render,
)


def test_parse_product_tree():
    assert parse("theta1*theta2") == (("var", "theta1"), ("var", "theta2"),
                                      ("op", "*"))


def test_a_1500_term_sum_compares_hashes_and_prints():
    """A 1500-term sum is 1500 operators deep, past the recursion limit:
    its code is flat, so it compares, hashes and prints by value."""
    text = " + ".join(["theta1"] * 1500)
    a, b = parse(text), parse(text)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse(text[:-1] + "2")  # theta2 last
    assert repr(a).count("('op', '+')") == 1499


def test_dangling_operator_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("theta1*")
    assert exc.value.offset == 7


def test_left_associative_subtraction():
    assert expr_eval(parse("1 - 2 - 3"), 0.0, 0.0) == -4.0


def test_power_binds_tighter_than_unary_minus():
    assert expr_eval(parse("-2^2"), 0.0, 0.0) == -4.0
    assert expr_eval(parse("(-2)^2"), 0.0, 0.0) == 4.0


def test_power_right_associative():
    assert expr_eval(parse("2^3^2"), 0.0, 0.0) == 512.0


def test_eval_examples():
    assert expr_eval(parse("theta1*theta2"), 0.5, 0.25) == 0.125
    assert expr_eval(parse("0.25*(theta1+theta2)"), 1.0, 1.0) == 0.5
    assert expr_eval(parse("max(theta1, 1-theta1)"), 0.3, 0.9) == 0.7


def test_functions():
    assert expr_eval(parse("min(1, 2, 3)"), 0, 0) == 1.0
    assert expr_eval(parse("abs(-3)"), 0, 0) == 3.0
    assert expr_eval(parse("sqrt(theta1)"), 0.25, 0) == 0.5
    assert expr_eval(parse("exp(0)"), 0, 0) == 1.0
    assert expr_eval(parse("log(exp(1))"), 0, 0) == pytest.approx(1.0)
    assert expr_eval(parse("sin(0) + cos(0)"), 0, 0) == 1.0


def test_scientific_notation():
    assert expr_eval(parse("1e-2 + 2.5E3"), 0, 0) == 0.01 + 2500.0


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse("theta3")
    with pytest.raises(UnknownIdentifier):
        parse("foo(1)")


def test_an_unknown_name_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError) as info:
        parse("theta1 + theta3")
    assert type(info.value) is UnknownIdentifier
    assert info.value.name == "theta3" and info.value.offset == 9
    assert str(info.value) == "unknown identifier 'theta3' (at offset 9)"


def test_syntax_errors():
    for text in ["", "(theta1", "1 + + 2", "max(1)", "abs(1, 2)", "1..2",
                 "theta1 @ 2"]:
        with pytest.raises(ExprSyntaxError):
            parse(text)


def test_bare_domain_error_names_no_cell():
    with pytest.raises(DomainError) as exc:
        expr_eval(parse("log(theta1)"), 0.0, 0.0)
    assert str(exc.value) == "log of non-positive value 0.0"


def test_domain_errors():
    with pytest.raises(DomainError):
        expr_eval(parse("1/theta1"), 0.0, 0.0)
    with pytest.raises(DomainError):
        expr_eval(parse("log(theta1)"), 0.0, 0.0)
    with pytest.raises(DomainError):
        expr_eval(parse("sqrt(theta1 - 1)"), 0.0, 0.0)
    with pytest.raises(DomainError):
        expr_eval(parse("(-1)^0.5"), 0.0, 0.0)
    with pytest.raises(DomainError):
        expr_eval(parse("0^(-1)"), 0.0, 0.0)


# ---------------------------------------------------------------------------
# precedence oracle: random ASTs rendered fully parenthesized must agree
# with the minimally parenthesized pretty-printer to 0 ULP


def _random_ast(rng, depth, names=("min", "max", "abs")):
    """Code of a random expression at most depth operators deep."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return (("num", float(rng.integers(1, 5))),)
        return (("var", "theta1" if rng.random() < 0.5 else "theta2"),)
    kind = rng.random()
    if kind < 0.15:
        return _random_ast(rng, depth - 1, names) + (("neg",),)
    if kind < 0.30:
        name = names[int(rng.integers(0, len(names)))]
        arity = 2 if name in ("min", "max") else 1
        args = (_random_ast(rng, depth - 1, names) for _ in range(arity))
        return sum(args, ()) + (("call", name, arity),)
    op = "+-*/^"[int(rng.integers(0, 5))]
    left = _random_ast(rng, depth - 1, names)
    return left + _random_ast(rng, depth - 1, names) + (("op", op),)


def _paren_render(code):
    """Fully parenthesized reference rendering (precedence-free)."""
    texts = []
    for ins in code:
        kind = ins[0]
        if kind == "num":
            texts.append(repr(ins[1]))
        elif kind == "var":
            texts.append(ins[1])
        elif kind == "neg":
            texts.append(f"(-{texts.pop()})")
        elif kind == "call":
            args = ", ".join(texts[-ins[2]:])
            del texts[-ins[2]:]
            texts.append(f"{ins[1]}({args})")
        else:
            right = texts.pop()
            texts.append(f"({texts.pop()} {ins[1]} {right})")
    return texts[0]


def _try_eval(e, t1, t2):
    try:
        return expr_eval(e, t1, t2)
    except DomainError:
        return None


def test_precedence_oracle_1000_random_asts():
    rng = np.random.default_rng(20240817)
    checked = 0
    for _ in range(1000):
        ast = _random_ast(rng, depth=int(rng.integers(1, 6)))
        reference = parse(_paren_render(ast))
        pretty = parse(render(ast))
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
        again = parse(render(e))
        for t1 in grid:
            for t2 in grid:
                assert expr_eval(again, t1, t2) == expr_eval(e, t1, t2)


# ---------------------------------------------------------------------------
# precedence climbing parses as the recursive-descent oracle does: the same
# code, or the same error type, message and offset

# tokens of the DSL, near misses, whitespace, and non-ASCII letters and
# digits: '٣' is a digit float() reads, '²' one it does not, '½' neither
_FRAGMENTS = (
    list("+-*/^(),") * 3
    + list("0123456789.eE") + ["1e5", "2.5", "1e-3", ".5e+2", "1e999"]
    + ["theta1", "theta2"] * 3 + list(FUNCTIONS)
    + ["theta3", "thet", "foo", "_x", "a1", "θ", "éa", "x٣"]
    + ["٣", "²", "½", "@", "#", "$"]
    + [" ", " ", "  ", "\t", "\n", "\u00a0", "\u2003"]
)


def _fuzz_text(rng):
    """A string of 0 to 14 fragments of the DSL's alphabet."""
    picks = rng.integers(0, len(_FRAGMENTS), int(rng.integers(0, 15)))
    return "".join(_FRAGMENTS[i] for i in picks)


def _parse_outcome(parser, text):
    try:
        return "code", parser(text)
    except (ExprSyntaxError, UnknownIdentifier) as exc:
        return type(exc), str(exc), exc.offset


def _parse_corpus(rng, strings, asts):
    """strings fuzzed texts, then asts random expressions of depth at
    most 6, each rendered with the fewest and with full parentheses."""
    texts = [_fuzz_text(rng) for _ in range(strings)]
    for _ in range(asts):
        ast = _random_ast(rng, depth=int(rng.integers(0, 7)),
                          names=tuple(FUNCTIONS))
        texts += [render(ast), _paren_render(ast)]
    return texts


def test_parse_equals_the_recursive_descent_oracle():
    rng = np.random.default_rng(29)
    texts = _parse_corpus(rng, strings=20_000, asts=2_000)
    kinds = set()
    for text in texts:
        got = _parse_outcome(parse, text)
        assert got == _parse_outcome(oracle_parse, text), text
        kinds.add(got[0])
    assert kinds == {"code", ExprSyntaxError, UnknownIdentifier}


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
                expr_eval(ast, t1, t2)
            raised += 1
            continue
        got = expr_eval(ast, t1, t2)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True), render(ast)
        numbers = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[numbers]),
                              np.signbit(want[numbers])), render(ast)
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
                expr_eval(ast, t1, t2)
            continue
        got = expr_eval(ast, t1, t2)
        assert np.shape(got) == ()
        assert got == want or (math.isnan(got) and math.isnan(want))


def test_overflow_gives_inf():
    assert expr_eval(parse("exp(1000*theta1)"), 1.0, 0.0) == math.inf
    assert expr_eval(parse("10^400"), 0.0, 0.0) == math.inf
    assert expr_eval(parse("(-10)^401"), 0.0, 0.0) == -math.inf
    assert math.isnan(expr_eval(parse("sin(exp(1000))"), 0.0, 0.0))
    got = expr_eval(parse("exp(1000*theta1)"), np.array([0.0, 1.0]), 0.0)
    assert got[0] == 1.0 and got[1] == math.inf


def test_domain_error_if_any_point_is_outside():
    with pytest.raises(DomainError):
        expr_eval(parse("log(theta1)"), np.array([1.0, 0.5, 0.0]), 1.0)
    with pytest.raises(DomainError):
        expr_eval(parse("theta1^0.5"), np.array([[1.0], [-1.0]]), np.ones(3))


# ---------------------------------------------------------------------------
# numpy's transcendental ufuncs against the C library


def _ordered(x):
    """Float64 bits as integers that increase with the value; adjacent
    floats differ by 1 and +0.0 and -0.0 both map to 0."""
    bits = np.asarray(x, dtype=float).view(np.int64)
    return np.where(bits < 0, np.int64(-2 ** 63) - bits, bits)


def _ulps(a, b):
    return np.abs(_ordered(a) - _ordered(b))


def test_transcendentals_within_one_ulp_of_libm():
    rng = np.random.default_rng(20261018)
    wide, near = rng.uniform(-700.0, 700.0, 4000), rng.uniform(-5.0, 5.0, 4000)
    bases = np.concatenate((rng.uniform(0.0, 10.0, 4000),
                            rng.uniform(-10.0, 0.0, 2000)))
    exponents = np.concatenate((rng.uniform(-10.0, 10.0, 4000),
                                rng.integers(-20, 21, 2000).astype(float)))
    cases = [
        ("exp(theta1)", math.exp, np.concatenate((wide, near)), 0.0),
        ("log(theta1)", math.log, np.concatenate((np.exp(wide),
                                                  np.abs(near))), 0.0),
        ("sin(theta1)", math.sin, rng.uniform(-100.0, 100.0, 8000), 0.0),
        ("cos(theta1)", math.cos, rng.uniform(-100.0, 100.0, 8000), 0.0),
        ("theta1^theta2", math.pow, bases, exponents),
    ]
    for text, libm, t1, t2 in cases:
        got = expr_eval(parse(text), t1, t2)
        want = np.array([libm(a, b) if libm is math.pow else libm(a)
                         for a, b in np.broadcast(t1, t2)])
        assert np.all(np.isfinite(want)), text
        assert _ulps(got, want).max() <= 1, text


def test_value_does_not_depend_on_memory_layout():
    # numpy runs exp over a reversed view through the C library
    theta1 = np.linspace(-3.0, 3.0, 1003)
    theta2 = np.linspace(0.1, 4.0, 1003)
    for text in ("exp(theta1)", "theta2^theta1", "sin(theta1) + log(theta2)"):
        e = parse(text)
        want = expr_eval(e, theta1, theta2)
        got = expr_eval(e, theta1[::-1], theta2[::-1])[::-1]
        assert got.tobytes() == want.tobytes(), text
        grid = expr_eval(e, theta1[::-2, None], theta2[None, ::-3])
        again = expr_eval(e, theta1[::-2].copy()[:, None],
                          theta2[::-3].copy())
        assert grid.tobytes() == again.tobytes(), text
    assert expr_eval(parse("exp(theta1)"), 0.5, 1.0).shape == ()


# ---------------------------------------------------------------------------
# one program over a table of codes is its codes, evaluated one by one


def _random_table(rng, L, H):
    """L x H codes built from a small pool of subexpressions, so that
    cells share subexpressions with each other."""
    pool = [_random_ast(rng, depth=int(rng.integers(0, 4)),
                        names=tuple(FUNCTIONS)) for _ in range(4)]

    def cell():
        e = pool[int(rng.integers(0, len(pool)))]
        for _ in range(int(rng.integers(0, 3))):
            other = pool[int(rng.integers(0, len(pool)))]
            kind = rng.random()
            if kind < 0.6:
                e += other + (("op", "+-*/^"[int(rng.integers(0, 5))]),)
            elif kind < 0.8:
                args = (other, e, pool[int(rng.integers(0, len(pool)))])
                name = ("min", "max")[int(rng.integers(0, 2))]
                count = int(rng.integers(2, 4))
                e = sum(args[:count], ()) + (("call", name, count),)
            else:
                e += (("neg",),)
        return e

    return [[cell() for _ in range(H)] for _ in range(L)]


def _first_error(codes, t1, t2):
    """Index and message of the first code that raises when the codes
    are evaluated one by one; None if none does."""
    for k, e in enumerate(codes):
        try:
            expr_eval(e, t1, t2)
        except DomainError as exc:
            return k, str(exc)
    return None


def _equal_bits(got, want):
    numbers = ~np.isnan(want)
    return (got.shape == want.shape
            and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got[numbers]),
                               np.signbit(want[numbers])))


def test_table_program_equals_point_oracle_cell_by_cell():
    rng = np.random.default_rng(20261019)
    raised = compared = 0
    for _ in range(150):
        L, H = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        u = _random_table(rng, L, H)
        v = ([[e + (("neg",),) for e in row] for row in u]
             if rng.random() < 0.5
             else _random_table(rng, L, H))
        codes = [e for table in (u, v) for row in table for e in row]
        names = [f"{name}[{x}][{y}]" for name in "uv"
                 for x in range(L) for y in range(H)]
        program = Program(codes, names)
        t1 = _random_points(rng, (6, 1))
        t2 = _random_points(rng, (1, 5))
        first = _first_error(codes, t1, t2)
        if first is not None:
            k, message = first
            # the oracle agrees that this cell, and no earlier one, fails
            for j, e in enumerate(codes[:k + 1]):
                fails = False
                for i0, j0 in np.ndindex(6, 5):
                    try:
                        oracle_eval(e, t1[i0, 0], t2[0, j0])
                    except DomainError:
                        fails = True
                        break
                assert fails == (j == k), render(e)
            with pytest.raises(DomainError) as exc:
                program.run(t1, t2)
            assert str(exc.value) == f"{names[k]}: {message}"
            raised += 1
            continue
        values = program.run(t1, t2)
        for e, got in zip(codes, values):
            want = np.empty((6, 5))
            for i0, j0 in np.ndindex(want.shape):
                want[i0, j0] = oracle_eval(e, t1[i0, 0], t2[0, j0])
            assert _equal_bits(got, want), render(e)
        # a subset of the outputs runs only its own steps, to the same bits
        some = sorted(rng.choice(len(codes), size=len(codes) // 2 + 1,
                                 replace=False))
        for k, got in zip(some, program.run(t1, t2, some)):
            assert _equal_bits(got, values[k]), render(codes[k])
        compared += 1
    assert raised > 20 and compared > 50


def test_table_first_error_follows_table_order():
    # log(theta2) is first needed by the last u cell, though v[0][0]
    # raises too and its other operand comes first
    u = [[parse("theta1"), parse("2 * log(theta2)")]]
    v = [[parse("sqrt(theta1 - 2) + log(theta2)"), parse("1")]]
    program = Program([e for table in (u, v) for row in table for e in row],
                      ["u[0][0]", "u[0][1]", "v[0][0]", "v[0][1]"])
    with pytest.raises(DomainError) as exc:
        program.run(np.array([0.5, 1.0]), np.array([0.0, 1.0]))
    assert str(exc.value) == "u[0][1]: log of non-positive value 0.0"
    # without the u cells, v[0][0] raises for its first operand
    with pytest.raises(DomainError) as exc:
        program.run(np.array([0.5, 1.0]), np.array([0.0, 1.0]), (2, 3))
    assert str(exc.value) == "v[0][0]: sqrt of negative value -1.5"


def test_negated_table_adds_one_step_per_cell():
    rng = np.random.default_rng(7)
    for _ in range(50):
        L, H = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        u = [e for row in _random_table(rng, L, H) for e in row]
        v = [parse(f"-({render(e)})") for e in u]
        assert len(Program(u + v).tape) <= len(Program(u).tape) + L * H


def _unfolded(code):
    """code with each negated constant -c spelled -(c + -0.0): adding -0.0
    is exact, and the negation stays a step of the program."""
    out = []
    for ins in code:
        if ins == ("neg",) and out[-1][0] == "num":  # its operand is c
            out += [("num", -0.0), ("op", "+")]
        out.append(ins)
    return tuple(out)


def _negated_constants(program):
    """The np.negative steps of program whose operand is a constant."""
    return [a for fn, a, _ in program.tape.values()
            if fn is np.negative and a not in program.tape and a >= 2]


def _negations(program):
    return sum(fn is np.negative for fn, _, _ in program.tape.values())


def test_negated_constants_compile_to_constants():
    """The bench generator spells negative coefficients as
    -0.4231*theta1^2: no compiled bench spec keeps an np.negative of a
    constant, and its values are those of the program that negates at
    run time, bit for bit."""
    shapes = [("constant_sum", 2, 2), ("general_sum", 2, 2),
              ("general_sum", 2, 3), ("constant_sum", 3, 3),
              ("general_sum", 3, 3)]
    t1 = np.linspace(0.0, 1.0, 7)[:, None]
    t2 = np.linspace(0.0, 1.0, 5)[None, :]
    for seed in (1, 2, 3):
        for index, (family, L, H) in enumerate(shapes):
            spec = _bench_games().game_spec(seed, index, family, L, H)
            g = bc.load_game(bc.GameSpec.from_dict(spec))
            assert _negated_constants(g.program) == []
            codes = [parse(spec["prior"])] + [
                parse(e) for table in (spec["u"], spec["v"])
                for row in table for e in row]
            folded = Program(codes)
            unfolded = Program([_unfolded(e) for e in codes])
            # every spec negates some constant
            assert _negations(unfolded) > _negations(folded)
            for got, want in zip(folded.run(t1, t2), unfolded.run(t1, t2)):
                assert got.tobytes() == want.tobytes()
    # a folded constant keeps its sign bit, and a double negation folds
    zero, two = Program([parse("-0"), parse("--2")]).run(1.0, 1.0)
    assert np.signbit(zero) and two == 2.0


def test_shared_subtrees_share_a_slot():
    program = Program([parse("sqrt(theta1) + theta1*theta2"),
                       parse("theta1*theta2 - sqrt(theta1)"),
                       parse("sqrt(theta1) + theta1*theta2")])
    # sqrt, *, + and - once each
    assert len(program.tape) == 4
    assert program.outputs[0] == program.outputs[2]
    # -0.0 and 0.0 are different constants
    signed = Program([(("num", -0.0), ("num", -0.0), ("op", "+")),
                      (("num", 0.0), ("num", -0.0), ("op", "+"))])
    first, second = signed.run(0.0, 0.0)
    assert np.signbit(first) and not np.signbit(second)

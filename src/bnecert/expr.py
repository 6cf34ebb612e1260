"""Tiny math DSL for utility functions and prior densities.

Grammar (recursive descent, standard precedence):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative
    atom    := NUMBER | 'theta1' | 'theta2'
             | FUNC '(' expr (',' expr)* ')'
             | '(' expr ')'

'^' binds tighter than unary minus, so "-2^2" is -(2^2) = -4.
The only variables are theta1 and theta2; the only functions are
min, max, abs, exp, log, sqrt, sin, cos.  Trees are immutable and
evaluation is pure, so Expr values are safe to share across threads.

Evaluation is elementwise over numpy arrays, one numpy ufunc per node;
min and max keep Python's semantics, nan and signed zeros included.
exp, log, sin, cos and ^ stay within 1 ulp of the C library's functions
(tests/test_expr.py; with numpy 2.4 on AVX-512, exp and ^ differ by one
ulp on a few percent of inputs, sin and cos nowhere).  Inputs are taken
in C order, so a value does not depend on the layout of the type arrays.
Overflow gives +-inf and sin or cos of an infinity nan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier

VARIABLES = ("theta1", "theta2")

# name -> (min_arity, max_arity); None means unbounded
FUNCTIONS = {
    "min": (2, None),
    "max": (2, None),
    "abs": (1, 1),
    "exp": (1, 1),
    "log": (1, 1),
    "sqrt": (1, 1),
    "sin": (1, 1),
    "cos": (1, 1),
}


class Expr:
    """Base class for AST nodes."""

    __slots__ = ()

    def eval(self, theta1, theta2):
        """Value at broadcasting scalars or arrays of types, elementwise;
        DomainError if any point is outside the domain."""
        # C order: numpy sends a reversed view of exp's input through the
        # C library instead of its own loop, so a value would depend on
        # the memory layout
        theta1 = np.asarray(theta1, dtype=float, order="C")
        theta2 = np.asarray(theta2, dtype=float, order="C")
        shape = np.broadcast_shapes(theta1.shape, theta2.shape)
        with np.errstate(all="ignore"):
            value = self._eval(theta1, theta2)
        return np.broadcast_to(value, shape)[()]

    def _eval(self, theta1, theta2):
        raise NotImplementedError

    def __str__(self):
        return _render(self, 0)


def _first(bad, x):
    """The value of x at the first point where bad holds."""
    return float(np.broadcast_to(x, np.shape(bad))[bad][0])


_UFUNCS = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos}


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: float

    def _eval(self, theta1, theta2):
        return self.value


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str

    def _eval(self, theta1, theta2):
        return theta1 if self.name == "theta1" else theta2


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr

    def _eval(self, theta1, theta2):
        return -self.arg._eval(theta1, theta2)


@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def _eval(self, theta1, theta2):
        a = self.left._eval(theta1, theta2)
        b = self.right._eval(theta1, theta2)
        op = self.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if np.any(b == 0.0):
                raise DomainError("division by zero")
            return a / b
        # op == "^"; an infinite exponent counts as an integer
        bad = (a < 0.0) & (b != np.floor(b))
        if np.any(bad):
            raise DomainError(
                f"non-integer power {_first(bad, b)!r} of negative base "
                f"{_first(bad, a)!r}"
            )
        if np.any((a == 0.0) & (b < 0.0)):
            raise DomainError("zero raised to a negative power")
        return np.power(a, b)


@dataclass(frozen=True, slots=True)
class Call(Expr):
    name: str
    args: tuple[Expr, ...]

    def _eval(self, theta1, theta2):
        vals = [a._eval(theta1, theta2) for a in self.args]
        name = self.name
        if name in ("min", "max"):
            # Python's min/max: keep the first value unless a later one
            # is strictly smaller (larger); nan and signed zeros included
            better = np.less if name == "min" else np.greater
            out = vals[0]
            for v in vals[1:]:
                out = np.where(better(v, out), v, out)
            return out
        x = vals[0]
        if name == "abs":
            return np.abs(x)
        if name == "sqrt":
            if np.any(x < 0.0):
                raise DomainError(
                    f"sqrt of negative value {_first(x < 0.0, x)!r}"
                )
            return np.sqrt(x)
        if name == "log" and np.any(x <= 0.0):
            raise DomainError(
                f"log of non-positive value {_first(x <= 0.0, x)!r}"
            )
        return _UFUNCS[name](x)


# ---------------------------------------------------------------------------
# tokenizer

_OPS = set("+-*/^(),")


def _tokenize(text):
    """Yield (kind, value, offset) triples; kind in {num, ident, op, end}."""
    tokens = []
    i, nchars = 0, len(text)
    while i < nchars:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < nchars and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < nchars and text[j] in "eE":
                k = j + 1
                if k < nchars and text[k] in "+-":
                    k += 1
                if k < nchars and text[k].isdigit():
                    j = k
                    while j < nchars and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {lit!r}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < nchars and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, nchars))
    return tokens


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        kind, value, offset = self.peek()
        if kind != "op" or value != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}", offset)
        return self.advance()

    def parse(self):
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {value!r}", offset)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                e = BinOp(value, e, self.term())
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                e = BinOp(value, e, self.unary())
            else:
                return e

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "ident":
            if value in VARIABLES:
                return Var(value)
            if value in FUNCTIONS:
                return self.call(value, offset)
            raise UnknownIdentifier(value, offset)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        what = "end of input" if kind == "end" else repr(value)
        raise ExprSyntaxError(f"expected operand, got {what}", offset)

    def call(self, name, name_offset):
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == ",":
                self.advance()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        lo, hi = FUNCTIONS[name]
        if len(args) < lo or (hi is not None and len(args) > hi):
            raise ExprSyntaxError(
                f"{name} takes {lo}{'+' if hi is None else ''} argument(s), "
                f"got {len(args)}",
                name_offset,
            )
        return Call(name, tuple(args))


def parse(text):
    """Parse DSL text into an immutable Expr tree."""
    return _Parser(text).parse()


def evaluate(text_or_expr, theta1, theta2):
    """Convenience: evaluate an Expr (or raw text) at a type pair."""
    e = text_or_expr
    if isinstance(e, str):
        e = parse(e)
    return e.eval(theta1, theta2)


# ---------------------------------------------------------------------------
# pretty-printing (minimal parentheses; reparses to the same evaluation)

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e):
    if isinstance(e, (Num, Var, Call)):
        return _PREC_ATOM
    if isinstance(e, Neg):
        return _PREC_NEG
    return {"+": _PREC_ADD, "-": _PREC_ADD,
            "*": _PREC_MUL, "/": _PREC_MUL,
            "^": _PREC_POW}[e.op]


def _render(e, parent_prec):
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.name}({', '.join(_render(a, 0) for a in e.args)})"
    if isinstance(e, Neg):
        s = "-" + _render(e.arg, _PREC_NEG)
        return f"({s})" if parent_prec > _PREC_NEG else s
    # BinOp; left-associative except '^'
    prec = _prec(e)
    if e.op == "^":
        left = _render(e.left, _PREC_ATOM)     # base must be an atom
        right = _render(e.right, _PREC_NEG)    # exponent may be unary
    else:
        left = _render(e.left, prec)
        right = _render(e.right, prec + 1)
    s = f"{left} {e.op} {right}"
    return f"({s})" if parent_prec > prec else s

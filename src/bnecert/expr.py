"""Tiny math DSL for utility functions and prior densities.

Grammar (standard precedence):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative
    atom    := NUMBER | 'theta1' | 'theta2'
             | FUNC '(' expr (',' expr)* ')'
             | '(' expr ')'

'^' binds tighter than unary minus, so "-2^2" is -(2^2) = -4.  The
parser climbs precedences: after an operand it folds in each binary
operator above its floor.  OPERATORS holds each binary operator's
precedence, the floor of its right operand and its function:
+ - (1, 1), * / (2, 2), ^ (4, 3); a unary minus's operand has floor 3.
FUNCTIONS holds each function's least and greatest number of arguments
and its function.  A name that is neither a function nor one of the
VARIABLES is an UnknownIdentifier.  parse yields an expression's
postorder code: a tuple of instructions ("num", value), ("var", name),
("neg",), ("op", symbol) and ("call", name, count), each after its
operands' instructions, which come left to right.  Code is a flat tuple,
so it compares and prints at any depth, and it is safe to share.

A Program compiles a list of codes into one tape of steps, in which
equal subexpressions share a step, and evaluates the steps that the
requested codes need.  Evaluation is elementwise over numpy arrays, one
numpy ufunc per step; min and max keep Python's semantics, nan and
signed zeros included.
exp, log, sin, cos and ^ stay within 1 ulp of the C library's functions
(tests/test_expr.py; with numpy 2.4 on AVX-512, exp and ^ differ by one
ulp on a few percent of inputs, sin and cos nowhere).  Inputs are taken
in C order, so a value does not depend on the layout of the type arrays.
Overflow gives +-inf and sin or cos of an infinity nan.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifier


# ---------------------------------------------------------------------------
# compiled evaluation: one numpy ufunc per step, domain checks first

def _first(bad, x):
    """The value of x at the first point where bad holds."""
    return float(np.broadcast_to(x, np.shape(bad))[bad][0])


def _divide(a, b):
    if (b == 0.0).any():
        raise DomainError("division by zero")
    return np.true_divide(a, b)


def _power(a, b):
    # an infinite exponent counts as an integer
    bad = (a < 0.0) & (b != np.floor(b))
    if bad.any():
        raise DomainError(
            f"non-integer power {_first(bad, b)!r} of negative base "
            f"{_first(bad, a)!r}"
        )
    if ((a == 0.0) & (b < 0.0)).any():
        raise DomainError("zero raised to a negative power")
    return np.power(a, b)


def _sqrt(x):
    bad = x < 0.0
    if bad.any():
        raise DomainError(f"sqrt of negative value {_first(bad, x)!r}")
    return np.sqrt(x)


def _log(x):
    bad = x <= 0.0
    if bad.any():
        raise DomainError(f"log of non-positive value {_first(bad, x)!r}")
    return np.log(x)


# Python's min/max: keep the first value unless a later one is strictly
# smaller (larger); nan and signed zeros included
def _min(out, v):
    return np.where(np.less(v, out), v, out)


def _max(out, v):
    return np.where(np.greater(v, out), v, out)


VARIABLES = ("theta1", "theta2")

# operator -> (precedence, floor of its right operand, function)
OPERATORS = {"+": (1, 1, np.add), "-": (1, 1, np.subtract),
             "*": (2, 2, np.multiply), "/": (2, 2, _divide),
             "^": (4, 3, _power)}

# name -> (min arity, max arity or None for a fold from the left, function)
FUNCTIONS = {"min": (2, None, _min), "max": (2, None, _max),
             "abs": (1, 1, np.abs), "exp": (1, 1, np.exp),
             "log": (1, 1, _log), "sqrt": (1, 1, _sqrt),
             "sin": (1, 1, np.sin), "cos": (1, 1, np.cos)}


class Program:
    """Straight-line program that evaluates a list of codes together.

    Compiling reads each code in order and puts one step on the tape, a
    function and the slots of its operands, for each instruction whose
    key is new.  An instruction is keyed on its function and its
    operands' slots, so equal subexpressions share one slot, within a
    code and across codes, and compiling is linear in the length of the
    codes.  The first slots hold the VARIABLES, in order; a constant is
    keyed on its bits, and the negation of a constant compiles to the
    negated constant.

    run takes the requested outputs in turn and runs the steps of each
    code in the order the code meets them, skipping the steps that an
    earlier output ran.  So the first DomainError is the one that
    evaluating the codes one by one, in that order, would raise; when the
    program has names, its message starts with the name of that code.
    Each step's value is dropped after its last use.
    """

    def __init__(self, codes, names=None):
        self.names = names
        self.tape = {}        # slot -> (function, operand, operand or -1)
        self._slot_of = {}    # key -> slot, while compiling
        self._init = [None, None]  # per slot: None, or a constant
        self._walk = []       # per code: the slots of its steps
        self.outputs = []
        for code in codes:
            walk = []
            self.outputs.append(self._emit(code, walk))
            # first visits only: a repeated subexpression's steps come in once
            self._walk.append(tuple(dict.fromkeys(walk)))
        del self._slot_of
        self._schedules = {}

    def _emit(self, code, walk):
        """Slot of code's value; appends the slots of its steps to walk in
        the order the code evaluates them.  Each instruction takes its
        operands' slots off a stack."""
        slots = []
        for kind, *args in code:
            if kind == "op":
                right = slots.pop()
                key = (OPERATORS[args[0]][2], slots.pop(), right)
            elif kind == "var":
                slots.append(VARIABLES.index(args[0]))
                continue
            elif kind == "num":
                slots.append(self._constant(args[0]))
                continue
            elif kind == "neg":
                value = self._init[slots[-1]]
                if value is not None:  # a constant: negating it is exact
                    slots[-1] = self._constant(-value)
                    continue
                key = (np.negative, slots.pop(), -1)
            elif FUNCTIONS[args[0]][1] is not None:
                key = (FUNCTIONS[args[0]][2], slots.pop(), -1)
            else:  # a fold from the left
                fn, n = FUNCTIONS[args[0]][2], args[1]
                first, second, *rest = slots[-n:]
                del slots[-n:]
                key = (fn, first, second)
                for v in rest:
                    key = (fn, self._step(key, walk), v)
            slots.append(self._step(key, walk))
        return slots[0]

    def _constant(self, value):
        """Slot of the constant value, keyed on its bits."""
        value = float(value)
        slot = self._slot_of.get(value.hex())
        if slot is None:
            slot = self._slot_of[value.hex()] = len(self._init)
            self._init.append(np.float64(value))
        return slot

    def _step(self, key, walk):
        """Slot of the step key, put on the tape if it is new."""
        slot = self._slot_of.get(key)
        if slot is None:
            slot = self._slot_of[key] = len(self._init)
            self._init.append(None)
            self.tape[slot] = key
        walk.append(slot)
        return slot

    def _schedule(self, outputs):
        """Per output: its steps that no earlier output ran, in walk
        order, each as ((function, operand, operand or -1), out slot,
        slots it uses last), and the slots that reading the output uses
        last."""
        done, parts = set(), []
        for k in outputs:
            part = [s for s in self._walk[k] if s not in done]
            done.update(part)
            parts.append(part)
        last = {}  # slot -> ("step", slot) or ("read", position)
        for i, (k, part) in enumerate(zip(outputs, parts)):
            for slot in part:
                for arg in self.tape[slot][1:]:
                    last[arg] = ("step", slot)
            last[self.outputs[k]] = ("read", i)
        frees = {}
        for slot, use in last.items():
            if slot in self.tape:
                frees[use] = (*frees.get(use, ()), slot)
        return [(k, [(self.tape[s], s, frees.get(("step", s), ()))
                     for s in part], frees.get(("read", i), ()))
                for i, (k, part) in enumerate(zip(outputs, parts))]

    def run(self, theta1, theta2, outputs=None):
        """Values of the outputs (all by default), in a list, at
        broadcasting scalars or arrays of types; each value has the
        broadcast shape."""
        with np.errstate(all="ignore"):
            return list(self.stream(theta1, theta2, outputs))

    def stream(self, theta1, theta2, outputs=None):
        """run's values one by one, each as soon as its steps have run.
        Once a value is yielded, the program drops it unless a later step
        needs it, so a caller that drops each value holds one at a time.
        Unlike run, it leaves np.errstate to the caller."""
        key = tuple(range(len(self.outputs)) if outputs is None else outputs)
        schedule = self._schedules.get(key)
        if schedule is None:
            schedule = self._schedules[key] = self._schedule(key)
        # C order: numpy sends a reversed view of exp's input through the
        # C library instead of its own loop, so a value would depend on
        # the memory layout
        regs = self._init.copy()
        regs[0] = theta1 = np.asarray(theta1, dtype=float, order="C")
        regs[1] = theta2 = np.asarray(theta2, dtype=float, order="C")
        shape = np.broadcast(theta1, theta2).shape
        for k, steps, drop in schedule:
            try:
                for (fn, a, b), out, free in steps:
                    regs[out] = fn(regs[a]) if b < 0 else fn(regs[a], regs[b])
                    for s in free:
                        regs[s] = None
            except DomainError as exc:
                if self.names is not None:
                    exc.args = (f"{self.names[k]}: {exc}",)
                raise
            slot = self.outputs[k]
            value = regs[slot]
            for s in drop:
                regs[s] = None
            # an input or a constant goes out as a read-only view
            if slot not in self.tape or value.shape != shape:
                value = np.broadcast_to(value, shape)
            yield value[()] if shape == () else value


# ---------------------------------------------------------------------------
# tokenizer

_OPS = set(OPERATORS) | set("(),")


def _tokenize(text):
    """The list of (kind, value, offset) triples, kind in {num, ident,
    op, end}; offset is a character index."""
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
        self.code = []

    def expect_op(self, symbol):
        kind, value, offset = self.tokens[self.pos]
        if kind != "op" or value != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}", offset)
        self.pos += 1

    def expr(self, floor):
        """Emit one operand, then each binary operator whose precedence is
        above floor, after its right operand parsed at its operator's
        floor."""
        kind, value, offset = self.tokens[self.pos]
        self.pos += 1
        if kind == "num":
            self.code.append(("num", value))
        elif kind == "ident" and value in VARIABLES:
            self.code.append(("var", value))
        elif kind == "ident" and value in FUNCTIONS:
            self.expect_op("(")
            self.expr(0)
            count = 1
            while self.tokens[self.pos][:2] == ("op", ","):
                self.pos += 1
                self.expr(0)
                count += 1
            self.expect_op(")")
            lo, hi, _ = FUNCTIONS[value]
            if count < lo or (hi is not None and count > hi):
                raise ExprSyntaxError(
                    f"{value} takes {lo}{'+' if hi is None else ''} "
                    f"argument(s), got {count}", offset)
            self.code.append(("call", value, count))
        elif kind == "ident":
            raise UnknownIdentifier(value, offset)
        elif (kind, value) == ("op", "("):
            self.expr(0)
            self.expect_op(")")
        elif (kind, value) == ("op", "-"):
            self.expr(3)  # so only '^' binds tighter
            self.code.append(("neg",))
        else:
            what = "end of input" if kind == "end" else repr(value)
            raise ExprSyntaxError(f"expected operand, got {what}", offset)
        while True:
            op = self.tokens[self.pos][1]
            prec, right_floor, _ = OPERATORS.get(op, (0, 0, None))
            if prec <= floor:
                return
            self.pos += 1
            self.expr(right_floor)
            self.code.append(("op", op))


def parse(text):
    """The postorder code of DSL text."""
    p = _Parser(text)
    try:
        p.expr(0)
    except RecursionError:  # named at the last token read
        raise ExprSyntaxError("expression nested too deeply",
                              p.tokens[p.pos - 1][2]) from None
    kind, value, offset = p.tokens[p.pos]
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {value!r}", offset)
    return tuple(p.code)

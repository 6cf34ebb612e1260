"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's own quadrature and
tensor code paths: Riemann sums are plain uniform midpoint sums over
numpy arrays, reference payoff sums are naive Python loops, and the
expression oracle walks the tree one point at a time with Python floats
and the math module.
"""

import math

import numpy as np
import pytest

import bnecert as bc
from bnecert.errors import DomainError
from bnecert.expr import BinOp, Call, Neg, Num, Var

RIEMANN_POINTS = 100_000


def make_game(u, v, prior="1", actions1=None, actions2=None,
              grid_check=21, **extra):
    """Build a validated InfiniteGame from string expression tables."""
    if actions1 is None:
        actions1 = tuple(f"x{i + 1}" for i in range(len(u)))
    if actions2 is None:
        actions2 = tuple(f"y{j + 1}" for j in range(len(u[0])))
    doc = {"actions1": list(actions1), "actions2": list(actions2),
           "u": u, "v": v, "prior": prior}
    doc.update(extra)
    return bc.load_game(bc.GameSpec.from_dict(doc), grid_check=grid_check)


def negate_table(u):
    return [[f"-({e})" for e in row] for row in u]


def zero_sum_match_game(grid_check=21):
    """u = theta1*theta2 on matching actions, v = -u; smooth zero-sum."""
    u = [["theta1*theta2", "0"], ["0", "theta1*theta2"]]
    return make_game(u, negate_table(u), grid_check=grid_check)


def matching_pennies_game(grid_check=21):
    """Type-independent constant-sum matching pennies (win 1, lose 0)."""
    u = [["1", "0"], ["0", "1"]]
    v = [["0", "1"], ["1", "0"]]
    return make_game(u, v, grid_check=grid_check)


def coordination_game(grid_check=21):
    """Common-interest game with identity payoffs."""
    u = [["1", "0"], ["0", "1"]]
    return make_game(u, u, grid_check=grid_check)


def random_monomial(rng, decreasing=False):
    """One random monomial of total degree <= 3 with coefficient in [0, 1].

    With decreasing=True the variables enter as (1 - theta), which makes
    the term non-increasing in both types.
    """
    var1 = "(1-theta1)" if decreasing else "theta1"
    var2 = "(1-theta2)" if decreasing else "theta2"
    p = int(rng.integers(0, 3))
    q = int(rng.integers(0, 3 - p + 1))
    factors = [f"{rng.random():.6f}"] + [var1] * p + [var2] * q
    return "*".join(factors)


def random_poly(rng, terms=3, decreasing=False):
    return " + ".join(random_monomial(rng, decreasing) for _ in range(terms))


def random_poly_game(rng, decreasing=False, grid_check=21):
    """2x2 general-sum game with random polynomial utilities."""
    u = [[random_poly(rng, decreasing=decreasing) for _ in range(2)]
         for _ in range(2)]
    v = [[random_poly(rng, decreasing=decreasing) for _ in range(2)]
         for _ in range(2)]
    return make_game(u, v, grid_check=grid_check)


def random_profile(rng, n, L, H):
    s = rng.random((n, L))
    t = rng.random((n, H))
    return bc.BehavioralProfile(s / s.sum(axis=1, keepdims=True),
                                t / t.sum(axis=1, keepdims=True))


def riemann_br_value(g, player, opponent, points=RIEMANN_POINTS):
    """Uniform midpoint Riemann sum of the best-deviation integrand.

    Independent of the library quadrature; vectorized over theta.
    """
    theta = (np.arange(points) + 0.5) / points
    masses = opponent.atom_masses()
    pts = opponent.atom_points
    own_count = g.L if player == 1 else g.H
    acc = np.zeros((own_count, points))
    for j, t in enumerate(pts):
        if player == 1:
            payoff = g.payoff(1, theta, t)                  # (own, opp, .)
        else:
            payoff = g.payoff(2, t, theta).transpose(1, 0, 2)
        acc = acc + np.einsum("o,aok->ak", masses[j], payoff)
    return float(acc.max(axis=0).mean())


def naive_profile_value(g, F, G, player):
    """Quadruple loop over atoms; mirrors the definition, not the code."""
    total = 0.0
    for i, t1 in enumerate(F.atom_points):
        for x in range(len(F.actions)):
            for j, t2 in enumerate(G.atom_points):
                for y in range(len(G.actions)):
                    total += (F.weights[i, x] / F.n) * (G.weights[j, y] / G.n) \
                        * oracle_payoff(g, player, x, y, t1, t2)
    return total


# ---------------------------------------------------------------------------
# point-by-point oracles for Expr.eval and InfiniteGame.payoff


def _is_integer(b):
    # an infinite exponent counts as an integer, nan does not
    if math.isnan(b):
        return False
    return math.isinf(b) or b == math.floor(b)


def oracle_eval(e, theta1, theta2):
    """Value of an Expr tree at one type pair, with Python floats.

    This is the scalar evaluator the array one replaced, except that an
    overflow gives +-inf (as libm does) rather than OverflowError, and
    sin/cos of an infinity give nan.
    """
    theta1, theta2 = float(theta1), float(theta2)
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return theta1 if e.name == "theta1" else theta2
    if isinstance(e, Neg):
        return -oracle_eval(e.arg, theta1, theta2)
    if isinstance(e, BinOp):
        a = oracle_eval(e.left, theta1, theta2)
        b = oracle_eval(e.right, theta1, theta2)
        op = e.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                raise DomainError("division by zero")
            return a / b
        if a < 0.0 and not _is_integer(b):
            raise DomainError(
                f"non-integer power {b!r} of negative base {a!r}"
            )
        if a == 0.0 and b < 0.0:
            raise DomainError("zero raised to a negative power")
        try:
            return a ** b
        except OverflowError:
            return -math.inf if a < 0.0 and b % 2.0 == 1.0 else math.inf
    vals = [oracle_eval(a, theta1, theta2) for a in e.args]
    name = e.name
    if name == "min":
        return min(vals)
    if name == "max":
        return max(vals)
    if name == "abs":
        return abs(vals[0])
    if name == "exp":
        try:
            return math.exp(vals[0])
        except OverflowError:
            return math.inf
    if name == "log":
        if vals[0] <= 0.0:
            raise DomainError(f"log of non-positive value {vals[0]!r}")
        return math.log(vals[0])
    if name == "sqrt":
        if vals[0] < 0.0:
            raise DomainError(f"sqrt of negative value {vals[0]!r}")
        return math.sqrt(vals[0])
    if not math.isfinite(vals[0]):
        return math.nan
    return math.sin(vals[0]) if name == "sin" else math.cos(vals[0])


def oracle_payoff(g, player, x, y, theta1, theta2):
    """b * (raw + shift) at one point, as the scalar accessors computed it."""
    a1, b1 = g.spec.type_range1
    a2, b2 = g.spec.type_range2
    t1 = a1 + (b1 - a1) * float(theta1)
    t2 = a2 + (b2 - a2) * float(theta2)
    prior = oracle_eval(g.spec.prior, t1, t2) / g.prior_norm
    table, shift = ((g.spec.u_raw, g.shift1) if player == 1
                    else (g.spec.v_raw, g.shift2))
    return prior * (oracle_eval(table[x][y], t1, t2) + shift)


def ex_ante_value(fg, profile, player):
    """w_n of a finite-game profile (independent of the certifier)."""
    from bnecert.solver import action_values
    if player == 1:
        q = action_values(fg, 1, profile.t)
        return float((profile.s * q).sum())
    q = action_values(fg, 2, profile.s)
    return float((profile.t * q).sum())


def strip_wall_time(obj):
    """Recursively drop wall_time entries from a report dict."""
    if isinstance(obj, dict):
        return {k: strip_wall_time(v) for k, v in obj.items()
                if k != "wall_time"}
    if isinstance(obj, list):
        return [strip_wall_time(v) for v in obj]
    return obj


@pytest.fixture(scope="session")
def zero_sum_match():
    return zero_sum_match_game()


@pytest.fixture(scope="session")
def matching_pennies():
    return matching_pennies_game()


@pytest.fixture(scope="session")
def coordination():
    return coordination_game()

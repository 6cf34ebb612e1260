"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's own quadrature and
tensor code paths: Riemann sums are plain uniform midpoint sums over
numpy arrays, reference payoff sums are naive Python loops, and the
expression oracle runs a stack over the code one point at a time with
Python floats and numpy's scalar exp, log, sin, cos and power.  The
tableau simplex and fictitious play oracles are the per-row loop
versions that the array code replaced, and the quadrature oracle is the
loop that called its integrand once a depth before the library's
prefetching pass schedule.  The parser oracle is the recursive-descent
parser, one method per grammar rule, that the precedence-climbing parser
replaced; it emits postorder code as it descends.  The exact regret
oracle reads the prior and utility code of a polynomial game as
coefficient arrays and integrates them with numpy.polynomial, with
no library evaluation at all.  The exact fictitious play oracle runs in
Fractions over the float agent-form matrices, so rounding decides none
of its best responses or gap checks.  The enumeration oracle exists
only here: an exhaustive pure-profile and support search, used as an
independent cross-check of the lp and fp backends on small games.  So
does the pretty-printer of expression code, whose output the tests
reparse.
"""

import functools
import importlib.util
import itertools
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

import bnecert as bc
from bnecert.discretize import BehavioralProfile
from bnecert.errors import (
    DomainError,
    ExprSyntaxError,
    Infeasible,
    NoConvergence,
    NonFinite,
    QuadratureFailure,
    SimplexStall,
    UnboundedObjective,
    UnknownIdentifier,
)
from bnecert.expr import (
    FUNCTIONS,
    VARIABLES,
    Program,
    _tokenize,
)
from bnecert.solver import (
    SolverResult,
    _normalize_rows,
    action_values,
    finite_gap,
)

RIEMANN_POINTS = 100_000
ROOT = Path(__file__).resolve().parent.parent


def src_env(**overrides):
    """The environment for a child Python: os.environ with overrides and
    this checkout's src/ first on PYTHONPATH, so the child imports the
    code under test whether or not a copy of the package is installed."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


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


def random_poly_doc(rng, decreasing=False):
    """Spec dict of a 2x2 general-sum game with random polynomial
    utilities and a uniform prior."""
    u, v = ([[random_poly(rng, decreasing=decreasing) for _ in range(2)]
             for _ in range(2)] for _ in range(2))
    return {"actions1": ["x1", "x2"], "actions2": ["y1", "y2"],
            "u": u, "v": v, "prior": "1"}


def random_poly_game(rng, decreasing=False, grid_check=21):
    """random_poly_doc's game."""
    return bc.load_game(bc.GameSpec.from_dict(
        random_poly_doc(rng, decreasing)), grid_check=grid_check)


@functools.cache
def _bench_games():
    """bench/games.py, loaded by path: bench/ is not a package."""
    spec = importlib.util.spec_from_file_location("bench_games",
                                                  ROOT / "bench" / "games.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def generated_constant_sum_game(seed, L, H, scale=None):
    """The bench generator's constant-sum L x H game 0 for a seed, with
    every u cell multiplied by scale (a string) and v = -u."""
    spec = _bench_games().game_spec(seed, 0, "constant_sum", L, H)
    if scale is not None:
        spec["u"] = [[f"{scale}*({e})" for e in row] for row in spec["u"]]
        spec["v"] = [[f"-({e})" for e in row] for row in spec["u"]]
    return bc.load_game(bc.GameSpec.from_dict(spec))


def solve_default_lp(fg, g):
    """solve_lp of g's level game fg under the game's own weights."""
    return bc.solve_lp(fg, *bc.default_alphas(fg, g, bc.check_prop1(g)))


def generated_general_sum_game(seed, index, L, H):
    """The bench generator's general-sum L x H game `index` for a seed."""
    spec = _bench_games().game_spec(seed, index, "general_sum", L, H)
    return bc.load_game(bc.GameSpec.from_dict(spec))


def uniform_profile(n, L, H):
    return BehavioralProfile(np.full((n, L), 1.0 / L),
                             np.full((n, H), 1.0 / H))


def random_profile(rng, n, L, H):
    s = rng.random((n, L))
    t = rng.random((n, H))
    return bc.BehavioralProfile(s / s.sum(axis=1, keepdims=True),
                                t / t.sum(axis=1, keepdims=True))


def riemann_br_value(g, player, opponent, points=RIEMANN_POINTS):
    """Uniform midpoint Riemann sum of the best-deviation integrand, with
    the payoffs taken as the normalized prior times the raw utilities.

    Independent of the library quadrature and of its prior-assimilated
    tables; vectorized over theta.
    """
    theta = (np.arange(points) + 0.5) / points
    masses = opponent.atom_masses()
    pts = opponent.atom_points
    own_count = g.L if player == 1 else g.H
    acc = np.zeros((own_count, points))
    for j, t in enumerate(pts):
        if player == 1:
            raw, = g.tables(theta, t, (1,), assimilated=False)
            payoff = g.prior(theta, t) * raw                # (own, opp, .)
        else:
            raw, = g.tables(t, theta, (2,), assimilated=False)
            payoff = (g.prior(t, theta) * raw).transpose(1, 0, 2)
        acc = acc + np.einsum("o,aok->ak", masses[j], payoff)
    return float(acc.max(axis=0).mean())


# ---------------------------------------------------------------------------
# ground truth: the 2x2 threshold game with a uniform prior
#
# Action A (index 0) pays theta1 - k against the opponent's A and theta1
# against its B; action B pays 0.  Player 2 is the same with m.  A's
# advantage grows with the own type, so every BNE uses thresholds, and
# the threshold equations tau1 = k (1 - tau2), tau2 = m (1 - tau1) have
# slope k m < 1: the BNE is unique.

def threshold_spec(k, m):
    """The spec dict of the threshold game for k, m in (0, 1)."""
    k, m = float(k), float(m)
    return {"actions1": ["x1", "x2"], "actions2": ["y1", "y2"],
            "u": [[f"theta1 - {k!r}", "theta1"], ["0", "0"]],
            "v": [[f"theta2 - {m!r}", "0"], ["theta2", "0"]],
            "prior": "1"}


def threshold_game(k, m):
    """The threshold game for k, m in (0, 1)."""
    return bc.load_game(bc.GameSpec.from_dict(threshold_spec(k, m)),
                        grid_check=21)


def threshold_bne(k, m):
    """The BNE thresholds (tau1, tau2): each player plays B below its
    own and A above."""
    return k * (1 - m) / (1 - k * m), m * (1 - k) / (1 - k * m)


def threshold_step_regret(k, m, profile):
    """Exact ex-ante regret of each player in the continuous threshold
    game when types in ((i-1)/n, i/n] play row i of the profile.

    Against an opponent who plays A with probability P, A is worth
    theta - c with c = k P in [0, 1], so the best deviation is worth
    (1 - c)^2 / 2, and row i's value is s_iA * int_cell (theta - c).
    """
    n = profile.s.shape[0]
    cell = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n ** 2)  # int theta
    regrets = []
    for weight, own, opp in ((k, profile.s, profile.t),
                             (m, profile.t, profile.s)):
        c = weight * opp[:, 0].mean()
        own_value = float(own[:, 0] @ (cell - c / n))
        regrets.append((1.0 - c) ** 2 / 2.0 - own_value)
    return tuple(regrets)


def riemann_step_regret(g, profile, points=(1000, 200)):
    """Each player's ex-ante regret of the step profile (types in
    ((i-1)/n, i/n] play row i) in the continuous game g, by midpoint sums
    over an own-type by opponent-type grid weighted by the normalized
    prior, prior / prior_norm.

    Multiplies the raw utilities by that prior itself, as the payoffs
    are defined, without the library's assimilated tables.  Each count
    is rounded up to a multiple of n, so no midpoint sits on a cell edge.
    """
    n = profile.s.shape[0]
    sizes = [-(-p // n) * n for p in points]
    own_t, opp_t = ((np.arange(p) + 0.5) / p for p in sizes)
    regrets = []
    for player, own, opp in ((1, profile.s, profile.t),
                             (2, profile.t, profile.s)):
        if player == 1:  # u is (x, y, own, opp)
            u, = g.tables(own_t[:, None], opp_t[None, :], (1,),
                          assimilated=False)
            prior = g.prior(own_t[:, None], opp_t[None, :])
        else:
            u, = g.tables(opp_t[None, :], own_t[:, None], (2,),
                          assimilated=False)
            u = u.transpose(1, 0, 2, 3)
            prior = g.prior(opp_t[None, :], own_t[:, None])
        opp_rows = opp[np.floor(opp_t * n).astype(int)]  # (opp, b)
        values = np.einsum("abpq,pq,qb->ap", u, np.broadcast_to(
            prior, u.shape[2:]), opp_rows) / sizes[1]
        own_rows = own[np.floor(own_t * n).astype(int)]  # (own, a)
        regrets.append(float(values.max(axis=0).mean()
                             - (own_rows.T * values).sum(axis=0).mean()))
    return tuple(regrets)


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
# exact step regret of polynomial games
#
# When the prior and every utility are polynomials in (theta1, theta2) on
# the unit square, a player's interim value Phi_x of an own action x
# against a step opponent is a polynomial in the own type: per opponent
# cell, the antiderivative in the opponent type at the cell's edges.  The
# best deviation psi = max_x Phi_x switches actions only at real roots of
# some Phi_a - Phi_b, and both sides of the regret are differences of
# antiderivatives, so the regret is exact up to rounding.


def _poly2_mul(a, b):
    out = np.zeros(np.add(a.shape, b.shape) - 1)
    for (p, q), c in np.ndenumerate(a):
        out[p:p + b.shape[0], q:q + b.shape[1]] += c * b
    return out


def _poly2_add(a, b):
    out = np.zeros(np.maximum(a.shape, b.shape))
    out[:a.shape[0], :a.shape[1]] += a
    out[:b.shape[0], :b.shape[1]] += b
    return out


def poly2(code):
    """Coefficients c[p, q] of theta1^p theta2^q of code built from
    numbers, theta1, theta2, +, -, *, division by a constant and powers
    by a whole number; ValueError for any other code."""
    stack = []
    for i, ins in enumerate(code):
        kind = ins[0]
        if kind == "num":
            stack.append(np.array([[float(ins[1])]]))
        elif kind == "var":
            stack.append(np.array([[0.0], [1.0]] if ins[1] == "theta1"
                                  else [[0.0, 1.0]]))
        elif kind == "neg":
            stack.append(-stack.pop())
        elif ins == ("op", "^"):
            # a whole power is a number, the instruction just before
            k = code[i - 1][1] if code[i - 1][0] == "num" else -1
            if k < 0 or k != int(k):
                raise ValueError(f"not a whole power: {code[i - 1]!r}")
            stack.pop()
            a, out = stack.pop(), np.ones((1, 1))
            for _ in range(int(k)):
                out = _poly2_mul(out, a)
            stack.append(out)
        elif kind == "op":
            b, a = stack.pop(), stack.pop()
            if ins[1] == "+":
                stack.append(_poly2_add(a, b))
            elif ins[1] == "-":
                stack.append(_poly2_add(a, -b))
            elif ins[1] == "*":
                stack.append(_poly2_mul(a, b))
            elif b.size == 1:  # "/"
                stack.append(a / b[0, 0])
            else:
                raise ValueError(f"not a polynomial: division by {b!r}")
        else:
            raise ValueError(f"not a polynomial: {ins!r}")
    return stack[0]


def _poly2_integral(c):
    """Integral of a polynomial over the unit square."""
    p, q = np.indices(c.shape)
    return float((c / ((p + 1) * (q + 1))).sum())


def interim_polynomials(g, player, opponent_rows):
    """Per own action x, the coefficients of Phi_x (own type ascending):
    the sum over the opponent's cells j and actions y of
    opponent_rows[j, y] times the integral over cell j of prior * utility
    / Z, Z the prior's integral over the unit square."""
    prior = poly2(g.spec.prior)
    table = g.spec.u_raw if player == 1 else g.spec.v_raw
    own_count, opp_count = (g.L, g.H) if player == 1 else (g.H, g.L)
    edges = np.linspace(0.0, 1.0, opponent_rows.shape[0] + 1)
    phis = []
    for x in range(own_count):
        phi = np.zeros(1)
        for y in range(opp_count):
            cell = table[x][y] if player == 1 else table[y][x]
            c = _poly2_mul(prior, poly2(cell))
            if player == 2:
                c = c.T  # own type first
            anti = P.polyint(c, axis=1).T  # (opponent powers, own powers)
            per_cell = P.polyval(edges[1:], anti) - P.polyval(edges[:-1],
                                                              anti)
            phi = P.polyadd(phi, per_cell @ opponent_rows[:, y])
        phis.append(phi / _poly2_integral(prior))
    return phis


def _switch_points(phis):
    """0, 1 and every real root in (0, 1) of a difference of two of the
    polynomials; a nearly real root is kept too, since a cut where the
    argmax does not change costs nothing."""
    cuts = [0.0, 1.0]
    for a, b in itertools.combinations(phis, 2):
        roots = P.polyroots(P.polytrim(P.polysub(a, b)))
        roots = roots.real[np.abs(roots.imag) <= 1e-7]
        cuts.extend(roots[(roots > 0.0) & (roots < 1.0)])
    return np.unique(cuts)


def exact_step_regret(g, profile):
    """Each player's ex-ante regret of the step profile (types in
    ((i-1)/n, i/n] play row i) in g, whose prior and utilities must be
    polynomials (poly2) on unit type ranges: the integral of psi minus the
    played value, per own cell, from exact antiderivatives."""
    if (g.spec.type_range1, g.spec.type_range2) != ((0.0, 1.0),) * 2:
        raise ValueError("the oracle takes unit type ranges only")
    edges = np.linspace(0.0, 1.0, profile.s.shape[0] + 1)
    regrets = []
    for player, own, opp in ((1, profile.s, profile.t),
                             (2, profile.t, profile.s)):
        phis = interim_polynomials(g, player, opp)
        antis = [P.polyint(phi) for phi in phis]
        cuts = np.union1d(_switch_points(phis), edges)  # per own cell
        best = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            x = int(np.argmax([P.polyval(0.5 * (lo + hi), phi)
                               for phi in phis]))
            best += P.polyval(hi, antis[x]) - P.polyval(lo, antis[x])
        cells = np.diff([P.polyval(edges, anti) for anti in antis], axis=1)
        regrets.append(float(best - (own.T * cells).sum()))
    return tuple(regrets)


def riemann_step_regret_error(g, profile, points=(1000, 200)):
    """A bound on |riemann_step_regret - exact_step_regret| per player on
    a polynomial game, with h and k the own and opponent midpoint steps:

    * the opponent axis: each Phi_x is off by at most k^2 D_opp / 24, D_opp
      the largest |d^2/d(opponent type)^2| of prior * utility / Z, so psi
      and the played value by as much each;
    * the own axis: the played value by h^2 D_own / 24, D_own the largest
      |Phi_x''|, and psi by as much plus h^2 S / 4 for each switch point,
      S the largest |Phi_x'| (the midpoint rule on a Lipschitz cell);
    * the prior's norm, which load_game integrates to 5e-10 of the prior's
      largest grid value, at most 5 against a norm of at least 3/4: 1e-8
      of the largest |Phi_x| twice over.
    Sup norms are bounded by the sums of the absolute coefficients."""
    n = profile.s.shape[0]
    h, k = (1.0 / (-(-p // n) * n) for p in points)
    prior = poly2(g.spec.prior)
    bounds = []
    for player, table, opp in ((1, g.spec.u_raw, profile.t),
                               (2, g.spec.v_raw, profile.s)):
        d_opp = 0.0
        for e in itertools.chain.from_iterable(table):
            c = np.abs(_poly2_mul(prior, poly2(e)))
            power = np.indices(c.shape)[2 - player]  # the opponent's
            d_opp = max(d_opp, float((c * power * (power - 1)).sum()))
        d_opp /= abs(_poly2_integral(prior))
        phis = interim_polynomials(g, player, opp)
        p = [np.arange(phi.size) for phi in phis]
        d_own = max(float((np.abs(c) * q * (q - 1)).sum())
                    for c, q in zip(phis, p))
        slope = max(float((np.abs(c) * q).sum()) for c, q in zip(phis, p))
        size = max(float(np.abs(c).sum()) for c in phis)
        kinks = _switch_points(phis).size - 2
        bounds.append(2 * k ** 2 * d_opp / 24
                      + h ** 2 * (2 * d_own / 24 + kinks * slope / 4)
                      + 2e-8 * size)
    return tuple(bounds)


def _render_poly(coefs):
    """Spec text of sum c theta1^p theta2^q over {(p, q): c}."""
    terms = [" * ".join([repr(c), *(f"theta{i}^{k}"
                                    for i, k in ((1, p), (2, q)) if k)])
             for (p, q), c in sorted(coefs.items())]
    return " + ".join(terms) or "0"


@st.composite
def polynomial_game_specs(draw):
    """Spec dicts of games with 1 to 3 actions a player, whose utilities
    have degree <= 2 in each type, with coefficients in quarters from -2
    to 2, and whose prior is 1 + a theta1 + b theta2 with a and b in
    quarters from -1/4 to 2."""
    L, H = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    quarters = st.integers(-8, 8).map(lambda q: q / 4)
    cell = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                           quarters, max_size=4)

    def table():
        return [[_render_poly(draw(cell)) for _ in range(H)]
                for _ in range(L)]

    a, b = (draw(st.integers(-1, 8)) / 4 for _ in range(2))
    return {"actions1": [f"x{i}" for i in range(L)],
            "actions2": [f"y{j}" for j in range(H)],
            "u": table(), "v": table(),
            "prior": f"1 + {a!r} * theta1 + {b!r} * theta2"}


# ---------------------------------------------------------------------------
# the quadrature loop that calls its integrand once a depth, and certify as
# one such integral per player


def _oracle_simpson(fa, fm, fb, h):
    return (h / 6.0) * (fa + 4.0 * fm + fb)


@np.errstate(over="ignore", invalid="ignore")
def oracle_integrate_many(f, count, tol, edges=(0.0, 1.0),
                          max_panels=10 ** 6):
    """integrate_many as it was before the pass schedule, over [0, 1]
    split at edges: the first call of f takes the initial panels' ends
    and midpoints, and each depth then calls f once on the quarter points
    of all its panels.  Each integrand's tolerance is floored at
    quadrature.ROUNDING of its largest |f| in that first call."""
    points = np.asarray(edges, dtype=float)
    lo, hi = points[:-1], points[1:]
    x = np.concatenate((points, 0.5 * (lo + hi)))
    fx = f(np.tile(x, count), np.arange(count).repeat(x.size))
    fx = fx.reshape(count, x.size)
    tols = np.maximum(tol, bc.quadrature.ROUNDING * np.abs(fx).max(axis=1))
    flo, fhi, fm = (fx[:, :lo.size].ravel(), fx[:, 1:points.size].ravel(),
                    fx[:, points.size:].ravel())
    lo, hi = np.tile(lo, count), np.tile(hi, count)
    panels = np.array([lo, hi, flo, fm, fhi,
                       _oracle_simpson(flo, fm, fhi, hi - lo),
                       np.arange(count).repeat(points.size - 1)])

    accepted = []
    used = np.zeros(count, dtype=int)
    while panels.shape[1]:
        lo, hi, flo, fm, fhi, s_whole, k = panels
        k = k.astype(int)
        used += np.bincount(k, minlength=count)
        if used.max() > max_panels:
            raise QuadratureFailure(
                f"panel budget {max_panels} exceeded before reaching tol={tol}"
            )
        mid = 0.5 * (lo + hi)
        flm, frm = np.split(f(np.concatenate((0.5 * (lo + mid),
                                              0.5 * (mid + hi))),
                              np.concatenate((k, k))), 2)
        s_left = _oracle_simpson(flo, flm, fm, mid - lo)
        s_right = _oracle_simpson(fm, frm, fhi, hi - mid)
        s2 = s_left + s_right
        err = np.abs(s2 - s_whole) / 15.0
        if not math.isfinite(err.max()):
            i = np.argmax(~np.isfinite(err))
            raise NonFinite(f"Simpson estimates on [{lo[i]}, {hi[i]}] of "
                            f"integrand {k[i]} are not finite")
        ok = (err <= tols[k] * (hi - lo)) | (hi - lo < 1e-14)
        accepted.append(np.array([k, s2 + (s2 - s_whole) / 15.0, err])[:, ok])
        left = np.array([lo, mid, flo, flm, fm, s_left, k])
        right = np.array([mid, hi, fm, frm, fhi, s_right, k])
        panels = np.concatenate((left[:, ~ok], right[:, ~ok]), axis=1)

    k, value, err = np.concatenate(accepted, axis=1)
    k = k.astype(int)
    return (np.bincount(k, weights=value, minlength=count),
            np.bincount(k, weights=err, minlength=count))


def oracle_certify(g, F, G, epsilon):
    """(gap1, gap2, quad_error1, quad_error2, value1, value2) of certify,
    player by player: the candidate's value, then the best deviation by
    oracle_integrate_many alone.  An error is the first player's; certify,
    which refines both players at once, raises the first one its
    refinement meets."""
    quad_tol = epsilon / 100.0
    gaps, errors, values = [], [], []
    for player, own, opponent in ((1, F, G), (2, G, F)):
        interim = bc.certificate.interim_values(g, player, opponent)
        values.append(float(np.vecdot(own.atom_masses().ravel(),
                                      interim(own.atom_points).T.ravel())))

        def psi(theta, k):
            return interim(theta).max(axis=0)

        br, err = oracle_integrate_many(psi, 1, quad_tol,
                                        np.append(0.0, opponent.atom_points))
        gaps.append(float(br[0]) - values[-1])
        errors.append(float(err[0]))
    return (*gaps, *errors, *values)


# ---------------------------------------------------------------------------
# one code's array value, and point-by-point oracles for it and for
# InfiniteGame.payoff


def expr_eval(e, theta1, theta2):
    """Value of the code e at broadcasting scalars or arrays of types,
    from a Program of that code alone; DomainError if any point is
    outside the domain."""
    return Program([e]).run(theta1, theta2)[0]


def _is_integer(b):
    # an infinite exponent counts as an integer, nan does not
    if math.isnan(b):
        return False
    return math.isinf(b) or b == math.floor(b)


def oracle_eval(code, theta1, theta2):
    """Value of code at one type pair, with Python floats, from a stack.

    This is the scalar evaluator the array one replaced, except that exp,
    log, sin, cos and ^ are numpy's, called on one float64 at a time: an
    overflow gives +-inf rather than OverflowError, and sin/cos of an
    infinity give nan.
    """
    theta1, theta2 = float(theta1), float(theta2)
    stack = []
    for ins in code:
        kind = ins[0]
        if kind == "num":
            stack.append(ins[1])
        elif kind == "var":
            stack.append(theta1 if ins[1] == "theta1" else theta2)
        elif kind == "neg":
            stack.append(-stack.pop())
        elif kind == "op":
            b, a = stack.pop(), stack.pop()
            stack.append(_oracle_op(ins[1], a, b))
        else:
            vals = stack[-ins[2]:]
            del stack[-ins[2]:]
            stack.append(_oracle_call(ins[1], vals))
    return stack[0]


def _oracle_op(op, a, b):
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
    return _np_scalar(np.power, a, b)


def _oracle_call(name, vals):
    if name == "min":
        return min(vals)
    if name == "max":
        return max(vals)
    if name == "abs":
        return abs(vals[0])
    if name == "log" and vals[0] <= 0.0:
        raise DomainError(f"log of non-positive value {vals[0]!r}")
    if name == "sqrt":
        if vals[0] < 0.0:
            raise DomainError(f"sqrt of negative value {vals[0]!r}")
        return math.sqrt(vals[0])
    return _np_scalar(getattr(np, name), vals[0])


def _np_scalar(ufunc, *args):
    """ufunc at float64 scalars, as a Python float; overflow gives +-inf."""
    with np.errstate(all="ignore"):
        return float(ufunc(*map(np.float64, args)))


def oracle_payoff(g, player, x, y, theta1, theta2):
    """Normalized prior times raw utility at one point, by the scalar
    expression oracle."""
    a1, b1 = g.spec.type_range1
    a2, b2 = g.spec.type_range2
    t1 = a1 + (b1 - a1) * float(theta1)
    t2 = a2 + (b2 - a2) * float(theta2)
    prior = oracle_eval(g.spec.prior, t1, t2) / g.prior_norm
    table = g.spec.u_raw if player == 1 else g.spec.v_raw
    return prior * oracle_eval(table[x][y], t1, t2)


# ---------------------------------------------------------------------------
# the recursive-descent parser that precedence climbing replaced: one
# method per grammar rule of the bnecert.expr docstring


class _OracleParser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.code = []

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
        self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {value!r}", offset)
        return tuple(self.code)

    def expr(self):
        self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                self.term()
                self.code.append(("op", value))
            else:
                return

    def term(self):
        self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                self.unary()
                self.code.append(("op", value))
            else:
                return

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            self.unary()
            self.code.append(("neg",))
        else:
            self.power()

    def power(self):
        self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            self.unary()
            self.code.append(("op", "^"))

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            self.code.append(("num", value))
        elif kind == "ident":
            if value in VARIABLES:
                self.code.append(("var", value))
            elif value in FUNCTIONS:
                self.call(value, offset)
            else:
                raise UnknownIdentifier(value, offset)
        elif kind == "op" and value == "(":
            self.expr()
            self.expect_op(")")
        else:
            what = "end of input" if kind == "end" else repr(value)
            raise ExprSyntaxError(f"expected operand, got {what}", offset)

    def call(self, name, name_offset):
        self.expect_op("(")
        self.expr()
        count = 1
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == ",":
                self.advance()
                self.expr()
                count += 1
            else:
                break
        self.expect_op(")")
        lo, hi, _ = FUNCTIONS[name]
        if count < lo or (hi is not None and count > hi):
            raise ExprSyntaxError(
                f"{name} takes {lo}{'+' if hi is None else ''} argument(s), "
                f"got {count}",
                name_offset,
            )
        self.code.append(("call", name, count))


def oracle_parse(text):
    """Postorder code of DSL text, by recursive descent on the tokenizer's
    tokens; raises what bnecert.parse raises, with the same offsets."""
    return _OracleParser(text).parse()


# ---------------------------------------------------------------------------
# pretty-printing with minimal parentheses; reparses to the same evaluation

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
_PREC_OF = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL,
            "^": _PREC_POW}


def render(code):
    """DSL text of code with the fewest parentheses, from a stack of
    (text, precedence) pairs."""

    def operand(floor):  # the top text, parenthesized below floor
        text, prec = stack.pop()
        return f"({text})" if floor > prec else text

    stack = []
    for ins in code:
        kind = ins[0]
        if kind == "num":
            stack.append((repr(ins[1]), _PREC_ATOM))
        elif kind == "var":
            stack.append((ins[1], _PREC_ATOM))
        elif kind == "call":
            args = [text for text, _ in stack[-ins[2]:]]
            del stack[-ins[2]:]
            stack.append((f"{ins[1]}({', '.join(args)})", _PREC_ATOM))
        elif kind == "neg":
            stack.append(("-" + operand(_PREC_NEG), _PREC_NEG))
        else:  # left-associative except '^'
            prec = _PREC_OF[ins[1]]
            if ins[1] == "^":  # the base must be an atom, the exponent
                right = operand(_PREC_NEG)  # may be unary
                left = operand(_PREC_ATOM)
            else:
                right = operand(prec + 1)
                left = operand(prec)
            stack.append((f"{left} {ins[1]} {right}", prec))
    return stack[0][0]


# ---------------------------------------------------------------------------
# the per-row tableau simplex, the fictitious play loop (with the gap and
# best-response code it called) and the einsum action values that the
# array code in bnecert.solver replaced; the new code must take the same
# pivots and iterates, bit for bit

_TOL = 1e-9
_PIV_TOL = 1e-7
_REFACTOR_EVERY = 40
_MAX_PIVOTS = 100_000


def oracle_action_values(fg, player, opponent_rows):
    """Ex-ante per-type action values q[i, a] (the 1/n^2 prior included)."""
    scale = 1.0 / fg.n ** 2
    if player == 1:
        return np.einsum("xyij,jy->ix", fg.U, opponent_rows) * scale
    return np.einsum("xyij,ix->jy", fg.V, opponent_rows) * scale


def oracle_finite_best_response(fg, player, opponent_rows,
                                values=action_values):
    """Pure per-type best response and its ex-ante value.

    Ties break toward the lowest action index.
    """
    q = values(fg, player, opponent_rows)
    choice = np.argmax(q, axis=1)  # first maximum = lowest index
    return _pure_rows(choice, q.shape[1]), float(q.max(axis=1).sum())


def _pure_rows(choice, width):
    """One row per type, 1 at its chosen action."""
    rows = np.zeros((len(choice), width))
    rows[np.arange(len(choice)), choice] = 1.0
    return rows


def oracle_finite_gap(fg, profile, values=action_values):
    """Exact ex-ante regret of each player within the finite game."""
    q1 = values(fg, 1, profile.t)
    q2 = values(fg, 2, profile.s)
    gap1 = float(q1.max(axis=1).sum() - (profile.s * q1).sum())
    gap2 = float(q2.max(axis=1).sum() - (profile.t * q2).sum())
    return gap1, gap2


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _rebuild(T, A, b, costvec, basis):
    """Recompute the tableau for the current basis from the original data
    (kills the drift accumulated by repeated pivoting).  Returns False if
    the recorded basis is numerically singular."""
    B = A[:, basis]
    try:
        body = np.linalg.solve(B, A)
        xb = np.linalg.solve(B, b)
    except np.linalg.LinAlgError:
        return False
    m = A.shape[0]
    T[:m, :-1] = body
    T[:m, -1] = xb
    cB = costvec[basis]
    T[-1, :-1] = costvec - cB @ body
    T[-1, -1] = -(cB @ xb)
    if not np.isfinite(T).all():
        raise NonFinite("the simplex tableau is not finite")
    return True


def _run_phase(T, basis, A, b, costvec):
    """Iterate pivots until the cost row has no negative entry.  Returns
    the pivot count.  The entering column has the most negative reduced
    cost (the lowest index among equals), except right after a pivot
    whose step was at most _TOL: then it is the first negative one."""
    m = T.shape[0] - 1
    pivots = 0
    since_refactor = 0
    step = np.inf  # no pivot yet: price by the most negative
    while True:
        cost = T[-1, :-1]
        enter = -1
        for j in range(cost.size):
            if cost[j] < -_TOL:
                if step <= _TOL:
                    enter = j
                    break
                if enter < 0 or cost[j] < cost[enter]:
                    enter = j
        if enter < 0:
            return pivots
        # ratio test; Bland tie-break on the basic variable index
        leave = -1
        best = np.inf
        for r in range(m):
            a = T[r, enter]
            if a > _PIV_TOL:
                ratio = T[r, -1] / a
                if ratio < best - 1e-12 or (
                    abs(ratio - best) <= 1e-12
                    and (leave < 0 or basis[r] < basis[leave])
                ):
                    best = ratio
                    leave = r
        if leave < 0:
            # may be pivot drift; refactorize once and re-examine
            if since_refactor > 0:
                if _rebuild(T, A, b, costvec, basis):
                    since_refactor = 0
                    continue
            raise UnboundedObjective(f"column {enter} is unbounded")
        _pivot(T, basis, leave, enter)
        step = best
        pivots += 1
        since_refactor += 1
        if since_refactor >= _REFACTOR_EVERY:
            if _rebuild(T, A, b, costvec, basis):
                since_refactor = 0
        if pivots > _MAX_PIVOTS:
            raise SimplexStall(f"pivot cap {_MAX_PIVOTS} reached")


# (c, A, b, basis) of an LP whose start basis matrix, columns x and
# y = x / 4, LU factors with a rounded nonzero last pivot, but whose
# transpose it does not: optimal before any pivot, it fails in the final
# solve for the duals
SINGULAR_DUALS_LP = (np.zeros(2), np.array([[-1.95, -0.4875], [2.18, 0.545]]),
                     np.zeros(2), [0, 1])


def start_tableau(c, A, b, basis):
    """The start tableau that simplex and oracle_simplex take for basis,
    built by the library's _rebuild, column-major: B^-1 [A | b] above the
    reduced costs.  Raises SimplexStall if the basis matrix is singular,
    before any solver sees the LP."""
    m = len(A)
    basis = np.array(basis, dtype=np.intp)
    T = np.zeros((m + 1, c.size + 1), order="F")
    # a repeated column is singular even where rounding hides it from LU
    if len(set(basis.tolist())) < m or not bc.solver._rebuild(T, A, b, c,
                                                               basis):
        raise SimplexStall("singular start basis")
    return T


def from_start(solver, c, A, b, basis):
    """solver (simplex or oracle_simplex) on the LP, from start_tableau."""
    return solver(c, A, b, start_tableau(c, A, b, basis), basis=basis)


def oracle_simplex(c, A, b, T, *, basis):
    """Minimize c @ x subject to A x = b, x >= 0, from the start basis
    (basis[r] is the column basic in row r) and a copy of its tableau T.

    Returns (x, y, pivots), x over every column and y = c_B B^-1 the row
    duals of the final basis matrix B.  Raises Infeasible /
    UnboundedObjective / SimplexStall / NonFinite.
    """
    m = len(A)
    basis = [int(col) for col in basis]
    T = np.array(T, order="C")
    if not np.isfinite(T).all():
        raise NonFinite("the simplex tableau is not finite")
    for r in range(m):
        if T[r, -1] < -_TOL:
            raise Infeasible(f"the start basis is infeasible: column "
                             f"{basis[r]}, basic in row {r}, is {T[r, -1]}")
    pivots = _run_phase(T, basis, A, b, c)

    # final refactorization for a drift-free basic solution and its duals
    B = A[:, basis]
    try:
        xb = np.linalg.solve(B, b)
        if not np.isfinite(xb).all():
            raise NonFinite("the simplex solution is not finite")
        y = np.linalg.solve(B.T, c[basis])
    except np.linalg.LinAlgError as exc:
        raise SimplexStall(f"singular basis matrix: {exc}") from exc
    if not np.isfinite(y).all():
        raise NonFinite("the simplex duals are not finite")
    x = np.zeros(c.size)
    for i in range(m):
        x[basis[i]] = xb[i]
    return x, y, pivots


def oracle_solve_fp(fg, max_iters=2000, target_gap=1e-6,
                    values=action_values, purify=True):
    """Agent-form fictitious play with uniform averaging.

    After each iterate's gap check, the iterate is purified (each type
    plays its largest entry, ties to the lowest index), and a pure
    profile whose two gaps are finite and at most target_gap is returned
    at that iteration.  purify=False skips that check and gives plain
    fictitious play.

    Raises NoConvergence (carrying the best iterate) if the target gap is
    not reached within max_iters iterations, and NonFinite if a gap is not
    finite.  values computes the action values: the library's by default,
    or oracle_action_values.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    n, L, H = fg.n, fg.L, fg.H
    # best-response counts; iteration k's rows are (counts + 1/L) / k
    c1, c2 = np.zeros((n, L)), np.zeros((n, H))
    best = None
    best_gap = np.inf
    for k in range(1, max_iters + 1):
        s = (c1 + 1.0 / L) / k
        t = (c2 + 1.0 / H) / k
        profile = BehavioralProfile(s.copy(), t.copy())
        gap1, gap2 = oracle_finite_gap(fg, profile, values)
        if not (math.isfinite(gap1) and math.isfinite(gap2)):
            raise NonFinite(
                f"fictitious play gap is not finite at iteration {k}")
        worst = max(gap1, gap2)
        if worst < best_gap:
            best_gap = worst
            best = SolverResult(profile, gap1, gap2, "fp", k)
        if worst <= target_gap:
            return best
        if purify:
            pure = BehavioralProfile(_pure_rows(s.argmax(axis=1), L),
                                     _pure_rows(t.argmax(axis=1), H))
            gap1, gap2 = oracle_finite_gap(fg, pure, values)
            if (math.isfinite(gap1) and math.isfinite(gap2)
                    and gap1 <= target_gap and gap2 <= target_gap):
                return SolverResult(pure, gap1, gap2, "fp", k)
        br1, _ = oracle_finite_best_response(fg, 1, t, values)
        br2, _ = oracle_finite_best_response(fg, 2, s, values)
        c1 += br1
        c2 += br2
    raise NoConvergence(best)


def _exact_gap(M, scale, own, opponent):
    """Exact ex-ante regret of own (n x width) against the opponent's
    rows through the agent-form matrix M, all in Fractions.  Returns
    (gap, best responses with ties to the lowest index, whether some
    type's best action value is attained twice)."""
    q = (M @ opponent.ravel()).reshape(own.shape) * scale
    best = q.max(axis=1)
    tied = bool(np.any((q == best[:, None]).sum(axis=1) > 1))
    return best.sum() - (own * q).sum(), q.argmax(axis=1), tied


def exact_solve_fp(fg, max_iters, target_gap):
    """Fictitious play in exact rational arithmetic over the float M1, M2.

    Iteration k's rows are (counts + 1/L) / k in Fractions.  The order of
    checks is solve_fp's: the iterate's exact gaps against target_gap,
    then its purification (each type's largest entry), whose exact gaps
    end the run when both are at most target_gap.  Best responses and
    purifications break ties to the lowest index.

    Returns (iteration, s, t, tied): the iteration fp stops at and the
    profile it returns there, as Fractions (None, None, None if it does
    not stop within max_iters), and whether two action values of a type
    tie exactly at some best response taken on the way, where floating
    point fp's choice falls to rounding.
    """
    n, L, H = fg.n, fg.L, fg.H
    M1, M2 = (np.vectorize(Fraction, otypes=[object])(M)
              for M in (fg.M1, fg.M2))
    scale, target = Fraction(1, n * n), Fraction(target_gap)
    c1 = np.zeros((n, L), dtype=object)
    c2 = np.zeros((n, H), dtype=object)
    tied = False
    for k in range(1, max_iters + 1):
        s = (c1 + Fraction(1, L)) / k
        t = (c2 + Fraction(1, H)) / k
        gap1, br1, tie1 = _exact_gap(M1, scale, s, t)
        gap2, br2, tie2 = _exact_gap(M2, scale, t, s)
        if max(gap1, gap2) <= target:
            return k, s, t, tied
        pure_s = _pure_rows(np.argmax(s, axis=1), L).astype(object)
        pure_t = _pure_rows(np.argmax(t, axis=1), H).astype(object)
        if (_exact_gap(M1, scale, pure_s, pure_t)[0] <= target
                and _exact_gap(M2, scale, pure_t, pure_s)[0] <= target):
            return k, pure_s, pure_t, tied
        tied = tied or tie1 or tie2
        c1[np.arange(n), br1] += 1
        c2[np.arange(n), br2] += 1
    return None, None, None, tied


# ---------------------------------------------------------------------------
# enumeration oracle: per-cell loops over the U/V tensors

class TooLarge(Exception):
    """The enumeration guard tripped: the pure-profile space is too big."""


class EquilibriumNotFound(Exception):
    """Neither pure nor support enumeration found an equilibrium."""


def _pure_action_values(payoff, opp_choice, player, n):
    """q[i, a] against a pure opponent policy (tuple of action indices)."""
    sel = np.asarray(opp_choice)
    if player == 1:
        # payoff axes (x, y, i, j): pick y = sel[j] for each j, sum over j
        picked = payoff[:, sel, :, np.arange(n)]  # (j, x, i)
        return picked.sum(axis=0).T / n ** 2      # (i, x)
    picked = payoff[sel, :, np.arange(n), :]      # (i, y, j)
    return picked.sum(axis=0).T / n ** 2          # (j, y)


def _support_candidates(n, width):
    subsets = []
    for size in range(1, width + 1):
        subsets.extend(itertools.combinations(range(width), size))
    return itertools.product(subsets, repeat=n)


def _solve_support_system(fg, supports1, supports2):
    """Solve the indifference system for one support pair; None if it has
    no valid solution."""
    n, L, H = fg.n, fg.L, fg.H
    scale = 1.0 / n ** 2

    def opponent_mixture(payoff, own_supports, opp_supports, player):
        # unknowns: opponent mixture entries over opp_supports, then the
        # per-type values of the support-indifferent player
        cols = [(j, y) for j in range(n) for y in opp_supports[j]]
        ncols = len(cols) + n
        rows = []
        rhs = []
        for i in range(n):
            for x in own_supports[i]:
                row = np.zeros(ncols)
                for k, (j, y) in enumerate(cols):
                    if player == 1:
                        row[k] = payoff[x, y, i, j] * scale
                    else:
                        row[k] = payoff[y, x, j, i] * scale
                row[len(cols) + i] = -1.0
                rows.append(row)
                rhs.append(0.0)
        for j in range(n):
            row = np.zeros(ncols)
            for k, (jj, _) in enumerate(cols):
                if jj == j:
                    row[k] = 1.0
            rows.append(row)
            rhs.append(1.0)
        A = np.array(rows)
        b = np.array(rhs)
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
        if np.linalg.norm(A @ sol - b) > 1e-9:
            return None, None
        mix = np.zeros((n, H if player == 1 else L))
        for k, (j, y) in enumerate(cols):
            if sol[k] < -1e-9:
                return None, None
            mix[j, y] = max(sol[k], 0.0)
        values = sol[len(cols):]
        return mix, values

    t, v1 = opponent_mixture(fg.U, supports1, supports2, player=1)
    if t is None:
        return None
    s, v2 = opponent_mixture(fg.V, supports2, supports1, player=2)
    if s is None:
        return None
    # off-support actions must not be profitable
    q1 = action_values(fg, 1, _normalize_rows(t))
    q2 = action_values(fg, 2, _normalize_rows(s))
    for i in range(n):
        if q1[i].max() > v1[i] + 1e-9:
            return None
    for j in range(n):
        if q2[j].max() > v2[j] + 1e-9:
            return None
    profile = BehavioralProfile(_normalize_rows(s), _normalize_rows(t))
    gap1, gap2 = finite_gap(fg, profile.s, profile.t)
    if max(gap1, gap2) > 1e-9:
        return None
    return profile, gap1, gap2


def oracle_solve_enum(fg):
    """Exhaustive oracle: pure-profile enumeration, then support
    enumeration on small instances."""
    n, L, H = fg.n, fg.L, fg.H
    if L ** n * H ** n > 10 ** 6:
        raise TooLarge(f"{L}^{n} * {H}^{n} pure profiles exceed the guard")

    examined = 0
    for choice1 in itertools.product(range(L), repeat=n):
        q2 = _pure_action_values(fg.V, choice1, player=2, n=n)
        max2 = q2.max(axis=1)
        br2_sets = [np.flatnonzero(q2[j] == max2[j]) for j in range(n)]
        for choice2 in itertools.product(*br2_sets):
            examined += 1
            q1 = _pure_action_values(fg.U, choice2, player=1, n=n)
            max1 = q1.max(axis=1)
            if all(q1[i, choice1[i]] == max1[i] for i in range(n)):
                profile = BehavioralProfile(
                    _pure_rows(choice1, L), _pure_rows(choice2, H)
                )
                gap1, gap2 = finite_gap(fg, profile.s, profile.t)
                return SolverResult(profile, gap1, gap2,
                                    "enum_oracle", examined)

    if n <= 2 and L <= 3 and H <= 3:
        for supports1 in _support_candidates(n, L):
            for supports2 in _support_candidates(n, H):
                examined += 1
                found = _solve_support_system(fg, supports1, supports2)
                if found is not None:
                    profile, gap1, gap2 = found
                    return SolverResult(profile, gap1, gap2,
                                        "enum_oracle", examined)
    raise EquilibriumNotFound(
        "no pure equilibrium and support enumeration found none"
    )


def ex_ante_value(fg, profile, player):
    """w_n of a finite-game profile (independent of the certifier)."""
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

"""Equilibrium computation for level-n finite games.

Three backends:

  * solve_lp    -- the slack-maximization program whose bilinear payoff
                   terms cancel to a constant under the multiplier
                   condition, solved by a built-in dense-tableau simplex
                   with Bland's anti-cycling rule;
  * solve_fp    -- agent-form fictitious play (general-sum fallback);
  * solve_enum  -- small-instance oracle: pure-profile enumeration with a
                   support-enumeration fallback.

All payoffs here are prior-assimilated, so the finite game carries a
uniform 1/n^2 prior and a uniform 1/n conditional.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .discretize import BehavioralProfile, FiniteGame
from .errors import (
    EquilibriumNotFound,
    Infeasible,
    NoConvergence,
    Prop1Violation,
    SimplexStall,
    TooLarge,
    UnboundedObjective,
)

GAP_FLOOR = -1e-10  # gaps may dip this far below zero from rounding


@dataclass(frozen=True)
class SolverResult:
    profile: BehavioralProfile
    finite_gap1: float
    finite_gap2: float
    backend: str
    iterations: int
    objective: float | None = None


@dataclass(frozen=True)
class Prop1Result:
    """Outcome of the linearizability check.

    kind is 'zero_sum' (raw utilities sum to the constant c everywhere),
    'user' (supplied multipliers verified), or 'none'.
    """

    kind: str
    c: float | None = None

    @property
    def linearizable(self):
        return self.kind != "none"


# ---------------------------------------------------------------------------
# interim values, best responses, gaps

def action_values(fg, player, opponent_rows):
    """Ex-ante per-type action values q[i, a] (the 1/n^2 prior included)."""
    scale = 1.0 / fg.n ** 2
    if player == 1:
        return np.einsum("xyij,jy->ix", fg.U, opponent_rows) * scale
    return np.einsum("xyij,ix->jy", fg.V, opponent_rows) * scale


def finite_best_response(fg, player, opponent_rows):
    """Pure per-type best response and its ex-ante value.

    Ties break toward the lowest action index.
    """
    q = action_values(fg, player, opponent_rows)
    choice = np.argmax(q, axis=1)  # first maximum = lowest index
    pure = np.zeros_like(q)
    pure[np.arange(q.shape[0]), choice] = 1.0
    return pure, float(q.max(axis=1).sum())


def finite_gap(fg, profile):
    """Exact ex-ante regret of each player within the finite game."""
    q1 = action_values(fg, 1, profile.t)
    q2 = action_values(fg, 2, profile.s)
    gap1 = float(q1.max(axis=1).sum() - (profile.s * q1).sum())
    gap2 = float(q2.max(axis=1).sum() - (profile.t * q2).sum())
    return gap1, gap2


def ck_objective(fg, profile, alpha1, alpha2):
    """Slack-program objective at a profile, slacks set to the negated
    per-type best-response values.

    Algebraically this equals minus the alpha-weighted sum of per-type
    regrets, hence it is <= 0 with equality exactly at equilibria.
    """
    n = fg.n
    q1 = action_values(fg, 1, profile.t) * n  # interim units
    q2 = action_values(fg, 2, profile.s) * n
    s1 = -q1.max(axis=1)
    s2 = -q2.max(axis=1)
    bilinear1 = (alpha1 * (profile.s * q1).sum(axis=1)).sum()
    bilinear2 = (alpha2 * (profile.t * q2).sum(axis=1)).sum()
    return float((alpha1 * s1).sum() + bilinear1
                 + (alpha2 * s2).sum() + bilinear2)


# ---------------------------------------------------------------------------
# linearizability detection

def check_prop1(g, grid=21):
    """Detect whether the slack program's bilinear terms are constant.

    Checks the raw (pre-shift) utilities: constant-sum detection first,
    then verification of user-supplied multipliers m1, m2.
    """
    pts = np.linspace(0.0, 1.0, grid)
    u = g.raw(1, pts[:, None], pts[None, :])
    v = g.raw(2, pts[:, None], pts[None, :])
    # constant-sum pass
    w = u + v
    c = w[0, 0, 0, 0]
    if not np.any(np.abs(w - c) > 1e-9):
        return Prop1Result(kind="zero_sum", c=float(c))

    if g.spec.m1 is not None and g.spec.m2 is not None:
        m1, m2 = g.multiplier(1, pts), g.multiplier(2, pts)
        if np.any(m1 <= 0.0) or np.any(m2 <= 0.0):
            raise Prop1Violation("multipliers must be strictly positive")
        lhs = m2 * u
        rhs = -m1[:, None] * v
        scale = np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))
        bad = np.abs(lhs - rhs) > 1e-6 * scale
        if np.any(bad):
            x, y, i, j = np.argwhere(bad)[0]
            raise Prop1Violation(
                f"identity fails at actions ({x}, {y}), "
                f"types ({pts[i]}, {pts[j]}): "
                f"{lhs[x, y, i, j]} vs {rhs[x, y, i, j]}"
            )
        return Prop1Result(kind="user")
    return Prop1Result(kind="none")


def default_alphas(fg, g=None, prop1=None):
    """Per-type objective weights: marginal over multiplier when the
    multipliers are known, otherwise the uniform 1/n."""
    n = fg.n
    grid = fg.grid
    if prop1 is not None and prop1.kind == "user" and g is not None:
        alpha1 = (1.0 / n) / g.multiplier(1, grid)
        alpha2 = (1.0 / n) / g.multiplier(2, grid)
        return alpha1, alpha2
    return np.full(n, 1.0 / n), np.full(n, 1.0 / n)


# ---------------------------------------------------------------------------
# dense-tableau simplex (Bland's rule, two phases)

_TOL = 1e-9
_PIV_TOL = 1e-7  # min pivot magnitude; payoff coefficients are O(1)
_REFACTOR_EVERY = 40


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
    return True


def _run_phase(T, basis, allowed, max_pivots, pivots_done,
               A=None, b=None, costvec=None):
    """Iterate pivots until the cost row has no negative entry among the
    allowed columns.  Returns the pivot count consumed."""
    m = T.shape[0] - 1
    pivots = pivots_done
    since_refactor = 0
    while True:
        cost = T[-1, :-1]
        enter = -1
        for j in allowed:
            if cost[j] < -_TOL:
                enter = j
                break
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
            if A is not None and since_refactor > 0:
                if _rebuild(T, A, b, costvec, basis):
                    since_refactor = 0
                    continue
            raise UnboundedObjective(f"column {enter} is unbounded")
        _pivot(T, basis, leave, enter)
        pivots += 1
        since_refactor += 1
        if since_refactor >= _REFACTOR_EVERY and A is not None:
            if _rebuild(T, A, b, costvec, basis):
                since_refactor = 0
        if pivots > max_pivots:
            raise SimplexStall(f"pivot cap {max_pivots} reached")


def simplex(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
            max_pivots=100_000):
    """Minimize c @ x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

    Returns (x, pivots).  Raises Infeasible / UnboundedObjective /
    SimplexStall.
    """
    c = np.asarray(c, dtype=float)
    nvar = c.size
    rows = []
    rhs = []
    slack_rows = []
    if A_ub is not None and len(A_ub):
        for r, brow in zip(np.asarray(A_ub, dtype=float), b_ub):
            rows.append(r)
            rhs.append(float(brow))
            slack_rows.append(len(rows) - 1)
    if A_eq is not None and len(A_eq):
        for r, brow in zip(np.asarray(A_eq, dtype=float), b_eq):
            rows.append(r)
            rhs.append(float(brow))
    m = len(rows)
    nslack = len(slack_rows)
    A = np.zeros((m, nvar + nslack))
    for i, r in enumerate(rows):
        A[i, :nvar] = r
    for k, i in enumerate(slack_rows):
        A[i, nvar + k] = 1.0
    b = np.array(rhs)
    # normalize to b >= 0
    for i in range(m):
        if b[i] < 0.0:
            A[i] *= -1.0
            b[i] *= -1.0

    # initial basis: slack column if usable, else a fresh artificial
    basis = [-1] * m
    art_cols = []
    for i in range(m):
        k = slack_rows.index(i) if i in slack_rows else -1
        if k >= 0 and A[i, nvar + k] == 1.0:
            basis[i] = nvar + k
    n_art = sum(1 for bcol in basis if bcol < 0)
    ncols = nvar + nslack + n_art
    T = np.zeros((m + 1, ncols + 1))
    T[:m, : nvar + nslack] = A
    T[:m, -1] = b
    a = nvar + nslack
    for i in range(m):
        if basis[i] < 0:
            T[i, a] = 1.0
            basis[i] = a
            art_cols.append(a)
            a += 1

    Aext = T[:m, :-1].copy()
    pivots = 0
    if art_cols:
        # phase 1: minimize the artificial sum
        cost1 = np.zeros(ncols)
        cost1[art_cols] = 1.0
        for col in art_cols:
            T[-1, col] = 1.0
        for i in range(m):
            if basis[i] in art_cols:
                T[-1] -= T[i]
        allowed = [j for j in range(ncols) if j not in art_cols]
        pivots = _run_phase(T, basis, allowed, max_pivots, pivots,
                            A=Aext, b=b, costvec=cost1)
        if T[-1, -1] < -1e-7:
            raise Infeasible(f"phase-1 optimum {-T[-1, -1]} > 0")
        # drive remaining artificials out of the basis where possible
        for i in range(m):
            if basis[i] in art_cols:
                for j in allowed:
                    if abs(T[i, j]) > _TOL:
                        _pivot(T, basis, i, j)
                        pivots += 1
                        break

    # phase 2 cost row
    cost2 = np.zeros(ncols)
    cost2[:nvar] = c
    _rebuild(T, Aext, b, cost2, basis)
    allowed = [j for j in range(nvar + nslack) if j not in art_cols]
    pivots = _run_phase(T, basis, allowed, max_pivots, pivots,
                        A=Aext, b=b, costvec=cost2)

    # final refactorization for a drift-free basic solution
    xb = np.linalg.solve(Aext[:, basis], b)
    x = np.zeros(nvar)
    for i in range(m):
        if basis[i] < nvar:
            x[basis[i]] = xb[i]
    return x, pivots


# ---------------------------------------------------------------------------
# LP backend

def _normalize_rows(mat):
    mat = np.clip(mat, 0.0, None)
    sums = mat.sum(axis=1, keepdims=True)
    sums[sums == 0.0] = 1.0
    return mat / sums


def solve_lp(fg, alpha1=None, alpha2=None):
    """Solve the finite game through the slack-maximization LP.

    Valid whenever the bilinear payoff terms are constant over feasible
    profiles (constant-sum raw utilities, or verified multipliers); the
    caller is responsible for running check_prop1 first.
    """
    n, L, H = fg.n, fg.L, fg.H
    if alpha1 is None or alpha2 is None:
        alpha1, alpha2 = default_alphas(fg)
    alpha1 = np.asarray(alpha1, dtype=float)
    alpha2 = np.asarray(alpha2, dtype=float)
    if np.any(alpha1 <= 0.0) or np.any(alpha2 <= 0.0):
        raise ValueError("alpha weights must be strictly positive")

    N1, N2 = n * L, n * H
    nvar = N1 + N2 + 2 * n  # sigma1, sigma2, z1, z2  (z = -slack >= 0)
    cost = np.zeros(nvar)
    cost[N1 + N2: N1 + N2 + n] = alpha1
    cost[N1 + N2 + n:] = alpha2

    # row i*L + x: interim value of player 1's pure action x at type i,
    # sum_j,y U[x, y, i, j] / n * sigma2[j, y], is at most z1_i; player 2's
    # rows N1 + j*H + y likewise.  The -1 entries are set by index, since
    # a negated identity would write -0.0 everywhere else.
    A_ub = np.zeros((N1 + N2, nvar))
    b_ub = np.zeros(N1 + N2)
    rows1, rows2 = np.arange(N1), np.arange(N2)
    A_ub[:N1, N1:N1 + N2] = (fg.U / n).transpose(2, 0, 3, 1).reshape(N1, N2)
    A_ub[N1:, :N1] = (fg.V / n).transpose(3, 1, 2, 0).reshape(N2, N1)
    A_ub[rows1, N1 + N2 + rows1 // L] = -1.0
    A_ub[N1 + rows2, N1 + N2 + n + rows2 // H] = -1.0

    A_eq = np.zeros((2 * n, nvar))
    b_eq = np.ones(2 * n)
    A_eq[rows1 // L, rows1] = 1.0
    A_eq[n + rows2 // H, N1 + rows2] = 1.0

    try:
        x, pivots = simplex(cost, A_ub, b_ub, A_eq, b_eq)
    except np.linalg.LinAlgError as exc:
        raise SimplexStall(f"singular basis matrix: {exc}") from exc
    s = _normalize_rows(x[:N1].reshape(n, L))
    t = _normalize_rows(x[N1:N1 + N2].reshape(n, H))
    profile = BehavioralProfile(s, t)
    gap1, gap2 = finite_gap(fg, profile)
    return SolverResult(
        profile=profile,
        finite_gap1=gap1,
        finite_gap2=gap2,
        backend="lp",
        iterations=pivots,
        objective=ck_objective(fg, profile, alpha1, alpha2),
    )


# ---------------------------------------------------------------------------
# fictitious play backend

def solve_fp(fg, max_iters=2000, target_gap=1e-6):
    """Agent-form fictitious play with uniform averaging.

    Raises NoConvergence (carrying the best iterate) if the target gap is
    not reached within max_iters iterations.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    n, L, H = fg.n, fg.L, fg.H
    s = np.full((n, L), 1.0 / L)
    t = np.full((n, H), 1.0 / H)
    best = None
    best_gap = np.inf
    for k in range(1, max_iters + 1):
        profile = BehavioralProfile(s.copy(), t.copy())
        gap1, gap2 = finite_gap(fg, profile)
        worst = max(gap1, gap2)
        if worst < best_gap:
            best_gap = worst
            best = SolverResult(profile, gap1, gap2, "fp", k)
        if worst <= target_gap:
            return best
        br1, _ = finite_best_response(fg, 1, t)
        br2, _ = finite_best_response(fg, 2, s)
        s += (br1 - s) / (k + 1.0)
        t += (br2 - t) / (k + 1.0)
    raise NoConvergence(best)


# ---------------------------------------------------------------------------
# enumeration oracle

def _pure_rows(choice, width):
    rows = np.zeros((len(choice), width))
    rows[np.arange(len(choice)), choice] = 1.0
    return rows


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
    gap1, gap2 = finite_gap(fg, profile)
    if max(gap1, gap2) > 1e-9:
        return None
    return profile, gap1, gap2


def solve_enum(fg):
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
                gap1, gap2 = finite_gap(fg, profile)
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

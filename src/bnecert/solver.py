"""Equilibrium computation for level-n finite games.

Two backends:

  * solve_lp    -- the slack-maximization LP, valid under the multiplier
                   condition, one block per player (_solve_block) whose
                   duals give the other player's strategy, solved by a
                   dense-tableau simplex from a feasible crash basis
                   chosen from the payoffs, exact ties spread over the
                   tied actions in a snake order, whose tableau the block
                   writes in closed form, with no phase 1, that enters the
                   most negative reduced cost and falls back to Bland's
                   rule after a degenerate pivot (simplex);
  * solve_fp    -- agent-form fictitious play (general-sum fallback) on
                   exact best-response counts, in blocks of iterations,
                   evaluated and scanned together, that run through the
                   switches they predict and stop at the first purified
                   iterate within the target.

All payoffs here are prior-assimilated, so the finite game carries a
uniform 1/n^2 prior and a uniform 1/n conditional.

Action values are np.vecdot of the game's cached agent-form matrices
(FiniteGame.M1, M2) with the opponent's flattened rows: one dot product
per (type, action) row.  Not `@`: BLAS gemv rounds some rows of a block
differently from identical rows elsewhere, which breaks exact ties
between duplicated actions and so changes best responses.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .discretize import BehavioralProfile, check_count
from .errors import (
    Infeasible,
    NoConvergence,
    NonFinite,
    SimplexStall,
    UnboundedObjective,
)

@dataclass(frozen=True)
class SolverResult:
    profile: BehavioralProfile
    finite_gap1: float
    finite_gap2: float
    backend: str
    iterations: int
    objective: float | None = None


# ---------------------------------------------------------------------------
# interim values, best responses, gaps

def action_values(fg, player, opponent_rows):
    """Ex-ante per-type action values q[i, a] (the 1/n^2 prior included).

    One dot product per row of the agent-form matrix, so identical action
    rows give identical values and ties between them stay exact.
    """
    M, width = (fg.M1, fg.L) if player == 1 else (fg.M2, fg.H)
    q = np.vecdot(M, opponent_rows.ravel()).reshape(fg.n, width)
    return q * (1.0 / fg.n ** 2)


def finite_gap(fg, s, t):
    """Exact ex-ante regret of each player within the finite game, at
    player 1's rows s and player 2's rows t."""
    q1, q2 = action_values(fg, 1, t), action_values(fg, 2, s)
    gaps = []
    for q, own in ((q1, s), (q2, t)):
        best = q[np.arange(fg.n), q.argmax(axis=1)]
        gaps.append(float(best.sum() - (own * q).sum()))
    return tuple(gaps)


def ck_objective(fg, s, t, alpha1, alpha2):
    """Slack-program objective at player 1's rows s and player 2's rows
    t, slacks set to the negated per-type best-response values.

    Algebraically this equals minus the alpha-weighted sum of per-type
    regrets, hence it is <= 0 with equality exactly at equilibria.
    """
    n = fg.n
    q1 = action_values(fg, 1, t) * n  # interim units
    q2 = action_values(fg, 2, s) * n
    s1 = -q1.max(axis=1)
    s2 = -q2.max(axis=1)
    bilinear1 = (alpha1 * (s * q1).sum(axis=1)).sum()
    bilinear2 = (alpha2 * (t * q2).sum(axis=1)).sum()
    return float((alpha1 * s1).sum() + bilinear1
                 + (alpha2 * s2).sum() + bilinear2)


# ---------------------------------------------------------------------------
# dense-tableau simplex (Dantzig's rule, Bland's after a degenerate pivot,
# from the tableau of a feasible start basis)

_TOL = 1e-9
_PIV_TOL = 1e-7  # min pivot magnitude; _solve_block's payoffs are in [0, 2)
_REFACTOR_EVERY = 40
_MAX_PIVOTS = 100_000


def _pivot(T, basis, row, col):
    """Pivot on T[row, col], updating the whole columns in which the
    divided pivot row is nonzero: in the others the update subtracts +-0,
    which could only flip the sign of a zero, and nothing reads that
    sign.  The update goes through T.T, whose rows are T's columns, so on
    simplex's column-major tableau it moves contiguous rows."""
    pivot_row = T[row]
    pivot_row /= pivot_row[col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    cols = pivot_row.nonzero()[0]
    T.T[cols] -= np.multiply.outer(pivot_row[cols], factors)
    basis[row] = col


def _rebuild(T, A, b, costvec, basis):
    """Recompute the tableau for the current basis from the original data
    (kills the drift accumulated by repeated pivoting).  Only the
    nonbasic columns are solved: gesv solves each right-hand column on
    its own, so they take the bits of a solve of every column, and each
    basic column is written as the exact unit vector of its row, with
    reduced cost 0.  Returns False if the recorded basis is numerically
    singular; raises NonFinite if the rebuilt tableau is not finite."""
    nonbasic = np.ones(costvec.size, dtype=bool)
    nonbasic[basis] = False
    rest = np.flatnonzero(nonbasic)
    B = A[:, basis]
    try:
        body = np.linalg.solve(B, A[:, rest])
        # apart: solved as one more column of body, b rounds differently
        xb = np.linalg.solve(B, b)
    except np.linalg.LinAlgError:
        return False
    m = A.shape[0]
    T[:, basis] = np.eye(m + 1, m)  # unit columns, reduced costs 0
    T[:m, rest] = body
    T[:m, -1] = xb
    cB = costvec[basis]
    T[-1, rest] = costvec[rest] - cB @ body
    T[-1, -1] = -(cB @ xb)
    if not np.isfinite(T).all():
        raise NonFinite("the simplex tableau is not finite")
    return True


def simplex(c, A, b, T, *, basis):
    """Minimize c @ x subject to A x = b, x >= 0, from a feasible start
    basis and its tableau T.

    The entering column has the most negative reduced cost, the lowest
    index among equals (Dantzig's rule), while the last pivot moved the
    basic solution: its step, the ratio test's minimum, was above _TOL.
    After a degenerate pivot it is the first column whose reduced cost is
    below -_TOL (Bland's rule).  The leaving row is the ratio test's
    minimum, ties to the lowest basic column, under both rules.  This
    terminates: a nondegenerate pivot strictly lowers the objective, so
    no basis repeats across one, and within a run of degenerate pivots
    every pivot after the first is Bland's, which cannot cycle.

    basis[r] is the column of A basic in row r, and T, column-major, is
    B^-1 [A | b] above the reduced costs c - c_B B^-1 A and -c_B B^-1 b,
    for the basis matrix B = A[:, basis]: the caller builds it, and the
    pivots rewrite it in place.  There is no phase 1: a start tableau
    that is not finite raises NonFinite, and one whose basic solution has
    an entry below -_TOL raises Infeasible, both before any pivot.
    Returns (x, y, pivots), x over every column of A: y = c_B B^-1 are
    the row duals of the final basis matrix B, solved from B as x_B is,
    so that b @ y = c @ x and no reduced cost c - A^T y is below -_TOL,
    up to rounding.  Raises UnboundedObjective, SimplexStall at the pivot
    cap or when the final B is singular, and NonFinite when the tableau,
    x or y is not finite.
    """
    m = A.shape[0]
    basis = np.array(basis, dtype=np.intp)  # a copy: the pivots rewrite it
    if not np.isfinite(T).all():
        raise NonFinite("the simplex tableau is not finite")
    cost, xb = T[-1, :-1], T[:m, -1]  # views: they follow the pivots
    low = np.flatnonzero(xb < -_TOL)
    if low.size:
        raise Infeasible(f"the start basis is infeasible: column "
                         f"{basis[low[0]]}, basic in row {low[0]}, is "
                         f"{xb[low[0]]}")
    negative = np.empty(c.size, dtype=bool)
    pivots = since_refactor = 0
    degenerate = False  # was the last pivot's step at most _TOL?
    while True:
        np.less(cost, -_TOL, out=negative)
        enter = negative.argmax()  # Bland: the first such column
        if not negative[enter]:
            break
        if not degenerate:
            # Dantzig: the most negative, the first of equals; the mask
            # keeps a NaN reduced cost out, as it does from Bland's rule
            enter = np.where(negative, cost, 0.0).argmin()
        # ratio test; Bland tie-break on the basic variable index.  The
        # 1e-12 tie test chains, so the fold runs in row order.
        column = T[:m, enter]
        rows = (column > _PIV_TOL).nonzero()[0]
        ratios = xb[rows] / column[rows]
        leave, best = -1, np.inf
        for r, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best - 1e-12 or (
                abs(ratio - best) <= 1e-12
                and (leave < 0 or basis[r] < basis[leave])
            ):
                best = ratio
                leave = r
        if leave < 0:
            # may be pivot drift; refactorize once and re-examine
            if since_refactor > 0 and _rebuild(T, A, b, c, basis):
                since_refactor = 0
                continue
            raise UnboundedObjective(f"column {enter} is unbounded")
        _pivot(T, basis, leave, enter)
        degenerate = best <= _TOL
        pivots += 1
        since_refactor += 1
        if since_refactor >= _REFACTOR_EVERY:
            if _rebuild(T, A, b, c, basis):
                since_refactor = 0
        if pivots > _MAX_PIVOTS:
            raise SimplexStall(f"pivot cap {_MAX_PIVOTS} reached")

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
    x[basis] = xb
    return x, y, pivots


# ---------------------------------------------------------------------------
# LP backend

def _normalize_rows(mat):
    """Clip mat at 0 and scale each row to sum 1; a row that sums to 0
    plays action 0."""
    mat = np.clip(mat, 0.0, None)
    sums = mat.sum(axis=1, keepdims=True)
    empty = sums[:, 0] == 0.0
    mat[empty, 0] = sums[empty] = 1.0
    return mat / sums


def _spread(values, pick):
    """pick, each row's argmin or argmax of values, with exact ties
    spread: the rows where several entries equal the picked one, sorted
    by that value, largest first, in row order among equals, take turns,
    the k-th taking entry k of the snake order 0, 1, ..., c - 1, c - 1,
    ..., 0, 0, 1, ... over its c tied entries.  Exact: near-ties that
    counted as ties could start x_B a rounding below 0."""
    best = values[np.arange(pick.size), pick]
    tied = values == best[:, None]
    rows = np.flatnonzero(tied.sum(axis=1) > 1)
    if rows.size:
        rows = rows[np.argsort(-best[rows], kind="stable")]
        tied = tied[rows]
        c = 2 * tied.sum(axis=1)
        k = np.arange(rows.size) % c
        k = np.minimum(k, c - 1 - k)
        pick[rows] = (tied.cumsum(axis=1) > k[:, None]).argmax(axis=1)
    return pick


def _solve_block(M, width, alpha):
    """One player's block of the slack LP, in the equality form that
    simplex takes: minimize c @ x subject to A x = b, x >= 0, where x is
    the opponent's rows sigma, then z = -slack, then one slack column per
    row of M, and

        A = [P | -E_z | I ; E_sigma | 0 | 0],  b = [0; 1],
        c = [0; alpha; 0],  P = M / n.

    So P @ sigma <= z[type] on each own row type * width + action (E_z
    picks the row's z), and each row of sigma sums to 1 (E_sigma sums it).
    Returns sigma's rows, the own rows and the pivot count.

    M is first scaled by a power of two (exact, barring underflow) to a
    largest magnitude in [1/2, 1), so that the simplex's absolute
    tolerances suit it whatever the payoffs' size, and then shifted by
    -min(0, min M); alpha is scaled as M is, since the reduced costs
    scale with it.  None of these moves the optimal sigma or own rows: z
    scales with M, the duals with alpha, and as each row of sigma sums
    to 1, the shift moves every constraint row by the same constant.
    After the shift z >= 0 cannot bind, and a start basis is feasible if
    in each sum-to-one row one action of the opponent type is basic, z[i]
    is basic in the row of type i's best action against those, and every
    other row keeps its slack.

    The start takes, for each opponent type j, its action y of least
    alpha-weighted payoff against uniform own play, sum_i alpha[i] sum_x
    P[(i, x), (j, y)]: first[j], basic in sum row j, with z and the
    slacks placed as above.  Both choices spread exact ties (_spread):
    the tied types take their tied actions in turn, in a snake order,
    largest tied value first.  On a matching game every action ties, and
    the lowest index would start every type at action 0, n pivots from
    the optimum; the snake balances the actions, and where that makes
    the start's pure pair a saddle point of the level game the simplex
    takes no pivot (matching_pennies at even n, zero_sum_match at n = 8,
    16, 32, 64, 128).  A row without an exact tie keeps its argmin or
    argmax, so a game without exact ties keeps its start.

    The start's tableau B^-1 [A | b] is written in closed form, with no
    basis matrix factored before the first pivot.  For a column
    [r_M; r_S], sigma[first[j]] is r_S[j]; with w = r_M - P[:, first] @
    r_S, z[i] is -w at z[i]'s row, the slack of row (i, a) is w[(i, a)]
    + z[i], and the reduced cost is c - alpha @ z.  r_S is a unit vector
    in a sigma column and all ones in b, so w is a difference of two
    payoff columns, or minus the rows' values.  The z columns and the
    other rows' slacks are basic, and the slack of z[i]'s row is -1 in
    each row of type i.

    The own rows come from the duals: p = -y on the M rows, each type's
    row normalized.  The dual maximizes sum_j min_b (p P)[j, b] over
    p >= 0 whose type-i row sums to at most alpha[i].  As the shifted M
    is >= 0, adding mass to a row of p keeps p optimal, so normalizing is
    sound, and a row that sums to 0 (z[i] nonbasic at 0) plays action 0.
    Rows that sum to alpha are alpha times own rows, and under the
    multiplier identity (alpha M is minus the opponent's alpha times its
    M, transposed, up to a constant) the dual is the opponent's block."""
    n = alpha.size
    rows, cols = M.shape
    m, size = rows + n, cols + n + rows
    M = np.ldexp(M, -np.frexp(np.abs(M).max())[1])
    alpha = np.ldexp(alpha, -np.frexp(alpha.max())[1])
    P = (M - min(0.0, M.min())) / n
    own, row, col = np.arange(n), np.arange(rows), np.arange(cols)
    types = col // (cols // n)  # each sigma column's type
    # the +-1 entries are set by index, since a negated identity would
    # write -0.0 everywhere else
    A = np.zeros((m, size))
    A[:rows, :cols] = P
    A[row, cols + row // width] = -1.0
    A[row, cols + n + row] = 1.0
    A[rows + types, col] = 1.0
    b = np.concatenate([np.zeros(rows), np.ones(n)])
    c = np.zeros(size)
    c[cols:cols + n] = alpha
    # the start basis and its tableau B^-1 [A | b], in closed form
    weighted = (alpha[:, None] * P.reshape(n, width, cols).sum(axis=1)).sum(
        axis=0).reshape(n, -1)
    first = own * (cols // n) + _spread(weighted, weighted.argmin(axis=1))
    # each row against first
    value = np.vecdot(P[:, first], np.ones(n)).reshape(n, width)
    choice = _spread(value, value.argmax(axis=1))
    zrow = own * width + choice  # z[i] is basic in row zrow[i]
    basis = np.concatenate([cols + n + row, first])
    basis[zrow] = cols + own
    T = np.zeros((m + 1, size + 1), order="F")
    # sigma's columns, then b's
    w = np.hstack([P - P[:, first[types]], -value.reshape(rows, 1)])
    w = w.reshape(n, width, cols + 1)
    wz = w[own, choice]  # -z
    w -= wz[:, None]
    w[own, choice] = -wz
    sigma_b = np.append(col, size)
    T[:rows, sigma_b] = w.reshape(rows, cols + 1)
    T[-1, sigma_b] = np.vecdot(wz.T, alpha)
    T[rows + types, col] = T[rows:m, -1] = 1.0
    T[row, cols + n + zrow.repeat(width)] = -1.0
    T[-1, cols + n + zrow] = alpha
    T[:, basis] = np.eye(m + 1, m)  # unit columns, reduced costs 0
    # two payoff-sized arrays that the pivots need not keep: alive, they
    # showed in lp-ladder's peak RSS
    del M, w
    x, y, pivots = simplex(c, A, b, T, basis=basis)
    return (_normalize_rows(x[:cols].reshape(n, cols // n)),
            _normalize_rows(-y[:rows].reshape(n, width)), pivots)


def solve_lp(fg, alpha1, alpha2):
    """Solve the finite game through the slack-maximization LP.

    Valid whenever the bilinear payoff terms are constant over feasible
    profiles (constant-sum raw utilities, or verified multipliers); the
    caller is responsible for running check_prop1 first.  Then the game
    is a minimax problem, and one LP solves both sides of it: player 1's
    block gives t from its primal and s from its duals (_solve_block).
    The duals are s only under the game's own weights: alpha1 and alpha2
    must be default_alphas'; with others it need not be an equilibrium.
    """
    n, L = fg.n, fg.L
    alpha1 = np.asarray(alpha1, dtype=float)
    alpha2 = np.asarray(alpha2, dtype=float)
    for name, alpha in (("alpha1", alpha1), ("alpha2", alpha2)):
        if alpha.shape != (n,) or not np.all((alpha > 0.0)
                                             & (alpha < np.inf)):
            raise ValueError(f"{name} must be {n} positive finite weights, "
                             f"one per type, got {alpha.tolist()}")

    # _solve_block scales payoffs and alphas, so neither overflows the
    # simplex; the gaps or the objective can, which is then NonFinite
    with np.errstate(over="ignore", invalid="ignore"):
        t, s, pivots = _solve_block(fg.M1, L, alpha1)
        profile = BehavioralProfile(s, t)
        gap1, gap2 = finite_gap(fg, s, t)
        objective = ck_objective(fg, s, t, alpha1, alpha2)
    if not (math.isfinite(gap1) and math.isfinite(gap2)):
        raise NonFinite(f"the LP profile's finite gaps are {gap1}, {gap2}")
    if not math.isfinite(objective):
        raise NonFinite(f"the LP profile's objective is {objective}")
    return SolverResult(profile, gap1, gap2, "lp", pivots, objective)


# ---------------------------------------------------------------------------
# fictitious play backend

# The longest block of fictitious play iterations evaluated in one batch.
_FP_BLOCK = 64


def _pure_hit(fg, choice, target_gap):
    """The pure profile that plays the agent-form actions choice ([player
    1 | player 2], one per type) and its finite gaps, if both are finite
    and at most target_gap; otherwise None.  Only a hit builds a
    profile."""
    n, L = fg.n, fg.L
    pure = np.zeros(n * (L + fg.H))
    pure[choice] = 1.0
    s, t = pure[:n * L].reshape(n, L), pure[n * L:].reshape(n, fg.H)
    gap1, gap2 = finite_gap(fg, s, t)
    if (math.isfinite(gap1) and math.isfinite(gap2)
            and gap1 <= target_gap and gap2 <= target_gap):
        return BehavioralProfile(s, t), gap1, gap2
    return None


def _slopes(fg, owner, aim):
    """(aim, S, up, ref) for agent-form actions aim ([player 1 | player
    2], one per type; owner maps each entry to its agent).  While both
    players play aim, each fp step adds S to the unscaled action values
    M @ (counts + uniform): M1's columns at player 2's aims to player
    1's, M2's at player 1's to player 2's.  up lists the entries whose
    slope exceeds that of their agent's aim, and ref that aim of each."""
    n = fg.n
    S = np.concatenate((fg.M1[:, aim[n:] - n * fg.L].sum(axis=1),
                        fg.M2[:, aim[:n]].sum(axis=1)))
    up = np.flatnonzero(S > S[aim[owner]])
    return aim, S, up, aim[owner[up]]


@np.errstate(all="ignore")  # a prediction never raises
def _predict_aims(fg, offsets, owner, W, slopes, aimed):
    """Write the predicted best responses of each of a block's steps into
    the rows of aimed, one per step, and return the _slopes of the last.

    W is the unscaled action values of the step before the block, and
    slopes the _slopes of its best responses.  Each step aims at the
    argmax of W (ties to the lowest index); while the aims hold, W grows
    by S per step, so an entry whose slope exceeds its aim's by A and
    whose value trails it by -D first overtakes it floor(-D / A) + 1
    steps on, and the steps before that share one slice assignment.  nan
    predicts no switch."""
    n, N1, size = fg.n, fg.n * fg.L, len(aimed)
    j = 0
    while True:
        W = W + slopes[1]  # the values of step j
        aim = np.empty(2 * n, dtype=np.intp)
        W[:N1].reshape(n, -1).argmax(1, out=aim[:n])
        W[N1:].reshape(n, -1).argmax(1, out=aim[n:])
        aim += offsets
        if (aim != slopes[0]).any():
            slopes = _slopes(fg, owner, aim)
        _, S, up, ref = slopes
        step = np.fmin.reduce(np.floor((W[ref] - W[up]) / (S[up] - S[ref])),
                              initial=np.inf) + 1.0
        aimed[j:j + int(min(step, size - j))] = aim
        if not step < size - j:
            return slopes
        W = W + (step - 1.0) * S
        j += int(step)


def solve_fp(fg, max_iters, target_gap):
    """Agent-form fictitious play with uniform averaging.

    The state is the best-response counts over the agent-form entries
    [player 1 | player 2], exact integers in a float array: iteration k's
    rows are (counts + uniform) / k, uniform being 1/L on player 1's
    entries and 1/H on player 2's.  The integer sum comes first, then one
    rounding for + uniform and one for the division, so entries with
    equal counts are equal and purification ties are exact.

    fp runs in blocks of iterations: the block that starts at iteration k
    runs min(_FP_BLOCK, k, max_iters - k + 1) steps, step j being
    iteration k + j, aimed at its predicted best responses, one row of
    aimed per step.  Between best-response switches each agent's unscaled
    action values M @ (counts + uniform) are linear in j, so _predict_aims
    runs a block through every switch it predicts, starting from the
    values of the last step checked, q * (k - 1) * n^2.  A block that can
    predict nothing aims at the last best responses seen.  Step j's rows
    [s | t] hold counts plus the one-hot aims of steps 0 to j - 1, an
    exact integer sum that one cumulative sum over the block builds; the
    block evaluates them at once: one np.vecdot per player (still one row
    dot per step and (type, action)), one argmax per player, one gather,
    one product and a row-wise np.add.reduce per gap term, which runs
    numpy's pairwise sum on each row as a 1-D reduce of that row does, so
    gaps are bit-equal to finite_gap's.  The steps through the first one off
    aim are exact, and the block ends there.  One scan of the exact steps'
    gaps finds the first event, where fp stops: gaps not both finite, or
    the larger at most target_gap.  The best iterate is the first least
    larger gap up to the event.

    fp purifies each iterate before the event: each type plays its
    largest entry, a tie going to the lowest index.  If both finite gaps
    of that pure profile are finite and at most target_gap, fp returns
    it, with iterations the iteration it purified.  A block purifies its
    exact steps with one argmax per player and takes the gaps, in order,
    only of a purified profile that differs from the one before it, so a
    run that never hits pays two np.vecdot per distinct purified profile
    and returns the bits of plain fictitious play.

    Raises ValueError if target_gap is not a real number or is nan,
    NoConvergence (carrying the best iterate) if neither an iterate nor
    its purification reaches the target gap within max_iters iterations,
    and NonFinite if an iterate's gap is not finite (action values that
    overflow).
    """
    check_count("max_iters", max_iters)
    if not isinstance(target_gap, numbers.Real) or math.isnan(target_gap):
        raise ValueError(f"target_gap must be a real number, got "
                         f"{target_gap!r}")
    n, L, H = fg.n, fg.L, fg.H
    M1, M2 = fg.M1, fg.M2
    N1 = n * L
    N = N1 + n * H
    rows = np.empty((_FP_BLOCK, N))
    q, prod = np.empty_like(rows), np.empty_like(rows)
    counts = np.zeros(N)
    uniform = np.repeat([1.0 / L, 1.0 / H], [N1, N - N1])
    steps = np.arange(_FP_BLOCK, dtype=float)
    pick = np.empty((_FP_BLOCK, 2 * n), dtype=np.intp)
    aimed = np.empty_like(pick)
    purified = np.full((_FP_BLOCK + 1, 2 * n), -1, dtype=np.intp)
    aim = np.full(2 * n, -1, dtype=np.intp)  # nothing before iteration 1
    slopes = (None,)  # the _slopes of no aim yet
    offsets = np.concatenate([np.arange(n) * L, N1 + np.arange(n) * H])
    owner = np.repeat(np.arange(2 * n), [L] * n + [H] * n)
    starts = np.arange(_FP_BLOCK)[:, None] * N  # each step's offset in rows, q
    # scaled after the dot products, as in action_values: folding 1/n^2
    # into M1 and M2 rounds the values differently and can flip a best
    # response between near-tied actions
    scale = 1.0 / n ** 2
    total = np.add.reduce  # ndarray.sum without its Python wrapper
    best_gap = np.inf  # so iteration 1, whose gaps are finite, sets best
    k = 1  # the iteration at block step 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            size = min(_FP_BLOCK, k, max_iters - k + 1)
            aimed[:size] = aim
            if size > 1:  # a one-step block has no aim to predict
                if not np.array_equal(aim, slopes[0]):
                    slopes = _slopes(fg, owner, aim)
                if slopes[2].size:  # some action gains on its aim
                    slopes = _predict_aims(
                        fg, offsets, owner, q[last] * ((k - 1) * n * n),
                        slopes, aimed[:size])
            # in place: temporaries of this size showed in peak RSS.  Row
            # j is counts plus the aims of steps 0 to j - 1, an exact
            # integer sum.
            rows[1:size] = 0.0
            rows[0] = counts
            rows.put(aimed[:size - 1] + starts[1:size], 1.0)
            np.cumsum(rows[:size], axis=0, out=rows[:size])
            rows[:size] += uniform
            rows[:size] /= k + steps[:size, None]
            np.vecdot(M1, rows[:size, None, N1:], out=q[:size, :N1])
            np.vecdot(M2, rows[:size, None, :N1], out=q[:size, N1:])
            q[:size] *= scale
            q[:size, :N1].reshape(size, n, L).argmax(axis=2,
                                                     out=pick[:size, :n])
            q[:size, N1:].reshape(size, n, H).argmax(axis=2,
                                                     out=pick[:size, n:])
            pick[:size] += offsets  # ties: lowest index
            top = q.take(pick[:size] + starts[:size])
            np.multiply(rows[:size], q[:size], out=prod[:size])
            gaps1 = total(top[:, :n], 1) - total(prod[:size, :N1], 1)
            gaps2 = total(top[:, n:], 1) - total(prod[:size, N1:], 1)
            off = np.flatnonzero((pick[:size] != aimed[:size]).any(axis=1))
            last = int(off[0]) if off.size else size - 1  # last exact step
            # each exact step purified; row 0 holds the last one checked
            rows[:last + 1, :N1].reshape(last + 1, n, L).argmax(
                axis=2, out=purified[1:last + 2, :n])
            rows[:last + 1, N1:].reshape(last + 1, n, H).argmax(
                axis=2, out=purified[1:last + 2, n:])
            fresh = (purified[1:last + 2] != purified[:last + 1]).any(axis=1)
            worst = np.maximum(gaps1, gaps2)[:last + 1]
            bad = ~(np.isfinite(gaps1) & np.isfinite(gaps2))[:last + 1]
            # the first event: a gap not finite, or an iterate on target
            events = np.flatnonzero(bad | (worst <= target_gap))
            end = int(events[0]) if events.size else last + 1
            for j in np.flatnonzero(fresh[:end]).tolist():
                hit = _pure_hit(fg, purified[j + 1] + offsets, target_gap)
                if hit is not None:
                    profile, gap1, gap2 = hit
                    return SolverResult(profile, gap1, gap2, "fp", k + j)
            if end <= last and bad[end]:
                raise NonFinite("fictitious play gap is not finite at "
                                f"iteration {k + end}")
            j = int(worst[:end + 1].argmin())
            if worst[j] < best_gap:
                best_gap = float(worst[j])
                best = rows[j].copy(), float(gaps1[j]), float(gaps2[j]), k + j
            if end <= last or k + last == max_iters:
                break
            # the best responses of steps 0 to last: the aims, then last's
            counts += np.bincount(pick[:last + 1].ravel(), minlength=N)
            aim = pick[last].copy()
            purified[0] = purified[last + 1]
            k += last + 1
    best_rows, gap1, gap2, k = best
    profile = BehavioralProfile(best_rows[:N1].reshape(n, L),
                                best_rows[N1:].reshape(n, H))
    result = SolverResult(profile, gap1, gap2, "fp", k)
    if best_gap <= target_gap:
        return result
    raise NoConvergence(result)

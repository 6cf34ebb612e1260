"""Adaptive Simpson quadrature on [0, 1] with Richardson error estimates.

Each panel compares one Simpson estimate against the two-half refinement;
|S2 - S1| / 15 is the classic Richardson a-posteriori error estimate and
S2 + (S2 - S1) / 15 the extrapolated value.  Integrands take an array of
abscissae and return the values there; all panels of one refinement depth
are refined together, for every integrand of a batch at once.  Each
integrand's accepted values and errors are summed in the order the
refinement accepts its panels, depth by depth; that order is the same
whether it is integrated alone or in a batch, so results are
deterministic and do not depend on the batching.  Simpson estimates that
are not finite (from an integrand that is not, or one above about 3e307,
where fa + 4 fm + fb overflows) raise NonFinite at once, since refining
cannot make them finite.  Each integrand's tolerance is floored near
rounding of its own size, so no other integrand's units move it.

Pass schedule.  Each panel carries f on its dyadic grid of 2**m
intervals, built by the 0.5 * (lo + hi) chain that refinement follows,
so its points are the floats refinement reaches: rows 0, 2**(m-1) and
2**m are its ends and middle, rows 2**(m-2) and 3 * 2**(m-2) the
quarter points its depth needs, and each half takes its half of the
grid.  One rule calls f: once for the first panels, on each integrand's
edges once and the middles, and once for each depth whose grids hold no
quarter points, on each panel's grid of 2**(LOOKAHEAD + 1) intervals
but its ends and middle, whose values the panel holds.
A call takes the first panels' quarter points, or a depth's whole grids,
only while it holds at most FETCH_POINTS abscissae, or as many as the
first call without quarter points; otherwise it takes just the quarter
points.  So f is called for depth 0 and then at depths 1, LOOKAHEAD + 1,
2 LOOKAHEAD + 1, ... while refinement goes on.  A value fetched ahead
counts toward neither the panel budget nor NonFinite until refinement
reaches its panel.

Exactness rule.  f must give each value whatever else the array holds;
then an integral whose integrand raises nowhere is bit-identical to
calling f once a depth on just the quarter points that depth needs, the
plain schedule, whatever LOOKAHEAD and FETCH_POINTS are.  An exception
that f raises propagates unchanged from the call that raised it, which
may hold abscissae the refinement has not reached yet: such an
integrand belongs to a game outside the paper's class, whose utilities
and prior are continuous on the whole type square.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFinite, QuadratureFailure

MAX_PANELS = 10 ** 6  # the panel budget: panels refined per integrand
LOOKAHEAD = 4  # depths of quarter points that one call of f fetches
# A call of f runs ahead of refinement only up to this many abscissae: past
# that it is bound by arithmetic, and running ahead only grows its arrays.
FETCH_POINTS = 1024
ROUNDING = 1e-14  # an error below this share of an integral's size is rounding


def _simpson(fa, fm, fb, h):
    return (h / 6.0) * (fa + 4.0 * fm + fb)


@np.errstate(over="ignore", invalid="ignore")  # overflow raises NonFinite
def integrate_many(f, count, tol, edges=(0.0, 1.0)):
    """Integrate count integrands over [0, 1], each to absolute accuracy
    tol, floored at ROUNDING x its largest |f| among its first panels'
    ends and middles; those panels are the cells of edges.

    f(x, k) maps 1-D arrays of abscissae x and integrand indices k to the
    values of integrand k[m] at x[m], each integrand's edges first in its
    first call.  Each integrand is refined, budgeted and summed as alone.
    Returns arrays (values, error_bounds).  Raises ValueError unless
    0 < tol < inf and edges increase strictly from 0.0 to 1.0, NonFinite
    when a panel's Simpson estimates or their difference are not finite,
    QuadratureFailure when an integrand exceeds the panel budget, and any
    exception f raises, from the call of f that raised it.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    points = np.asarray(edges, dtype=float)
    if not (points.ndim == 1 and points.size and points[0] == 0.0
            and points[-1] == 1.0 and (points[1:] > points[:-1]).all()):
        raise ValueError(f"edges must increase from 0.0 to 1.0, got {edges}")
    if count == 0:
        return np.zeros(0), np.zeros(0)
    cells = points.size - 1
    cap = max(FETCH_POINTS, count * (2 * cells + 1))

    def fetch(lo, hi, k, grid):
        """The panels' grids of f, quarter points included, from one call
        of f.  grid holds f at their ends and middles, or is None for the
        first call, which also takes each integrand's edges once."""
        first = grid is None
        m = 2 if first else LOOKAHEAD + 1  # a grid of 2**m intervals
        # rows f has not given yet: the middle is known past the first call
        rows = [2, 1, 3] if first else [r for r in range(1, 2 ** m)
                                        if r != 2 ** (m - 1)]
        held = len(rows) * k.size + first * count * (cells + 1)  # abscissae
        if held > cap:  # just the middles, or just the quarter points
            m, rows = (1, [1]) if first else (2, [1, 3])
        size = 2 ** m
        x = np.empty((size + 1, k.size))
        x[0], x[size] = lo, hi
        for step in (2 ** j for j in range(m, 0, -1)):  # coarse to fine
            x[step // 2::step] = 0.5 * (x[:-1:step] + x[step::step])
        fx = np.empty_like(x)
        if first:  # integrand by integrand: ends, then rows
            xs = np.concatenate((points, x[rows, :cells].ravel()))
            v = f(np.tile(xs, count), np.arange(count).repeat(xs.size))
            v = v.reshape(count, -1)
            by = fx.reshape(size + 1, count, cells).swapaxes(0, 1)
            by[:, 0], by[:, size] = v[:, :cells], v[:, 1:cells + 1]
            by[:, rows] = v[:, cells + 1:].reshape(count, -1, cells)
        else:  # row by row; the known ends and middles stay
            v = f(x[rows].ravel(), np.tile(k, len(rows)))
            fx[rows] = v.reshape(len(rows), -1)
            fx[::size // 2] = grid
        return fx

    lo, hi = np.tile(points[:-1], count), np.tile(points[1:], count)
    k = np.arange(count).repeat(cells)
    grid = fetch(lo, hi, k, None)  # (2**m + 1, panels): f on the dyadic grids
    # the plain first call's values are the panels' ends and middles
    sampled = np.abs(grid[::grid.shape[0] // 2]).reshape(-1, count, cells)
    tols = np.maximum(tol, ROUNDING * sampled.max(axis=(0, 2)))
    s_whole = _simpson(grid[0], grid[grid.shape[0] // 2], grid[-1], hi - lo)
    accepted = []
    used = np.zeros(count, dtype=int)
    while k.size:
        used += np.bincount(k, minlength=count)
        if used.max() > MAX_PANELS:
            raise QuadratureFailure(
                f"panel budget {MAX_PANELS} exceeded before reaching tol={tol}"
            )
        if grid.shape[0] == 3:  # no quarter points
            grid = fetch(lo, hi, k, grid)
        q = grid.shape[0] // 4  # the quarter points are rows q and 3 q
        mid = 0.5 * (lo + hi)
        s_left = _simpson(grid[0], grid[q], grid[2 * q], mid - lo)
        s_right = _simpson(grid[2 * q], grid[3 * q], grid[4 * q], hi - mid)
        s2 = s_left + s_right
        err = np.abs(s2 - s_whole) / 15.0
        if not math.isfinite(err.max()):  # max propagates NaN
            i = np.argmax(~np.isfinite(err))
            raise NonFinite(f"Simpson estimates on [{lo[i]}, {hi[i]}] of "
                            f"integrand {k[i]} are not finite")
        # proportional error allocation keeps the summed bound <= tol
        h = hi - lo
        ok = (err <= tols[k] * h) | (h < 1e-14)
        accepted.append(np.array([k, s2 + (s2 - s_whole) / 15.0, err])[:, ok])
        r = ~ok  # refined panels become their halves, the left ones first
        lo, mid, hi = lo[r], mid[r], hi[r]
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        k, s_whole = k[r], np.concatenate((s_left[r], s_right[r]))
        k = np.concatenate((k, k))
        grid = np.concatenate((grid[:2 * q + 1, r], grid[2 * q:, r]), axis=1)

    # bincount adds each integrand's terms to +0.0 in array order
    k, value, err = np.concatenate(accepted, axis=1)
    return (np.bincount(k.astype(int), weights=value, minlength=count),
            np.bincount(k.astype(int), weights=err, minlength=count))

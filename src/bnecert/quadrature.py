"""Adaptive composite Simpson quadrature with Richardson error estimates.

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
cannot make them finite.

Pass schedule.  Each depth needs the quarter points of its panels, the
midpoints of their halves.  The first call of f evaluates the initial
panels' ends and midpoints and also those quarter points, which depth 0
always needs.  A later depth that lacks them makes one call for all its
panels, which also prefetches each one's subtree: the quarter points of
its descendants down to LOOKAHEAD depths in all, that is its dyadic
grid of 2**(LOOKAHEAD + 1) intervals.  The grid comes from the
0.5 * (lo + hi) chain that refinement follows, so its points are the
floats refinement reaches.  Each panel carries f on its grid, and each
half it refines into takes its own half of that grid, until the grids
run out.  So f is called for depth 0, then at depths 1, LOOKAHEAD + 1,
2 LOOKAHEAD + 1, ... while refinement goes on: chasing one kink takes
one call per LOOKAHEAD depths.  A prefetched value counts toward neither
the panel budget nor NonFinite until refinement reaches its panel.  A
call runs ahead of refinement only while it holds at most FETCH_POINTS
abscissae, or no more than the first call of the plain schedule below;
otherwise it takes just what its depth needs.  So the integrand's
largest array is never much larger than on the plain schedule.

Exactness rule.  f must give each value whatever else the array holds;
then results are bit-identical to calling f once a depth on just the
quarter points that depth needs, the plain schedule.  A call that also
holds abscissae the refinement has not reached may raise where the
plain call would not.  It is then discarded: f is called on exactly what
the plain schedule asks for at that step, in its order, and the
integral finishes on the plain schedule.  So any error raised is the
one the plain schedule raises.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFinite, QuadratureFailure

MAX_PANELS = 10 ** 6  # the panel budget: panels refined per integrand
LOOKAHEAD = 4  # depths of quarter points that one call of f fetches
# A call of f takes abscissae that refinement has not reached only while
# it holds at most this many, or as many as the plain first call: where
# many panels refine at once a call is bound by arithmetic, not overhead,
# and running ahead would only make the integrand's arrays larger.
FETCH_POINTS = 1024


def _simpson(fa, fm, fb, h):
    return (h / 6.0) * (fa + 4.0 * fm + fb)


def _dyadic(lo, hi, size):
    """(size + 1, panels) abscissae: each panel's grid of size intervals,
    size a power of two, by the 0.5 * (lo + hi) chain of refinement."""
    x = np.empty((size + 1, lo.size))
    x[0], x[size] = lo, hi
    step = size // 2
    while step:
        x[step::2 * step] = 0.5 * (x[:-step:2 * step] + x[2 * step::2 * step])
        step //= 2
    return x


@np.errstate(over="ignore", invalid="ignore")  # overflow raises NonFinite
def integrate_many(f, count, a, b, tol, presplit=()):
    """Integrate count integrands over [a, b], each to absolute accuracy tol.

    f(x, k) maps 1-D arrays of abscissae x and integrand indices k to the
    values of integrand k[m] at x[m].  Every integrand is refined, held to
    the panel budget and summed exactly as integrate would do it alone.
    Returns arrays (values, error_bounds).  Raises ValueError unless
    0 < tol < inf, NonFinite when a panel's Simpson estimates or their
    difference are not finite, and QuadratureFailure when an integrand
    exceeds the panel budget.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if b <= a or count == 0:
        return np.zeros(count), np.zeros(count)
    points = np.array(sorted({a, b, *(p for p in presplit if a < p < b)}),
                      dtype=float)
    width = b - a
    size = 2 ** (LOOKAHEAD + 1)  # intervals of a prefetched subtree's grid
    cells = points.size - 1

    lo, hi = points[:-1], points[1:]
    mid = 0.5 * (lo + hi)
    x = np.concatenate((points, mid, 0.5 * (lo + mid), 0.5 * (mid + hi)))
    plain = points.size + cells  # the ends and midpoints
    cap = max(FETCH_POINTS, count * plain)  # abscissae of a call ahead
    lookahead, fx = True, None
    if count * x.size <= cap:
        try:
            fx = f(np.tile(x, count), np.arange(count).repeat(x.size))
        except Exception:  # the exactness rule
            lookahead = False
    if fx is None:
        fx = f(np.tile(x[:plain], count), np.arange(count).repeat(plain))
    fx = fx.reshape(count, -1)
    flo, fhi, fm = (fx[:, :cells].ravel(), fx[:, 1:points.size].ravel(),
                    fx[:, points.size:plain].ravel())
    lo, hi = np.tile(lo, count), np.tile(hi, count)
    # one column per panel: its ends, f at its ends and middle, its
    # Simpson value and its integrand
    panels = np.array([lo, hi, flo, fm, fhi, _simpson(flo, fm, fhi, hi - lo),
                       np.arange(count).repeat(cells)])
    # Where d > 0, f on each panel's dyadic grid of 4 d intervals, one
    # column per panel: its quarter points are rows d and 3 d.  All
    # panels of a depth share d, since a call fetches for all of them.
    d, grid = 0, None
    if fx.shape[1] > plain:
        flq, fhq = fx[:, plain:].reshape(count, 2, cells).transpose(1, 0, 2)
        d, grid = 1, np.array([flo, flq.ravel(), fm, fhq.ravel(), fhi])

    accepted = []
    used = np.zeros(count, dtype=int)
    while panels.shape[1]:
        lo, hi, flo, fm, fhi, s_whole, k = panels
        k = k.astype(int)
        used += np.bincount(k, minlength=count)
        if used.max() > MAX_PANELS:
            raise QuadratureFailure(
                f"panel budget {MAX_PANELS} exceeded before reaching tol={tol}"
            )
        mid = 0.5 * (lo + hi)
        if lookahead and not d and k.size * (size - 1) <= cap:
            try:
                x = _dyadic(lo, hi, size)[1:-1]
                fx = f(x.ravel(), np.tile(k, size - 1)).reshape(x.shape)
            except Exception:  # the exactness rule
                lookahead = False
            else:
                d, grid = size // 4, np.concatenate(([flo], fx, [fhi]))
        if d:  # 0 for good once a call has raised
            flm, frm = grid[d], grid[3 * d]
        else:
            flm, frm = np.split(f(np.concatenate((0.5 * (lo + mid),
                                                  0.5 * (mid + hi))),
                                  np.concatenate((k, k))), 2)
        s_left = _simpson(flo, flm, fm, mid - lo)
        s_right = _simpson(fm, frm, fhi, hi - mid)
        s2 = s_left + s_right
        err = np.abs(s2 - s_whole) / 15.0
        if not math.isfinite(err.max()):  # max propagates NaN
            i = np.argmax(~np.isfinite(err))
            raise NonFinite(f"Simpson estimates on [{lo[i]}, {hi[i]}] of "
                            f"integrand {k[i]} are not finite")
        # proportional error allocation keeps the summed bound <= tol
        h = hi - lo
        ok = (err <= tol * h / width) | (h < 1e-14)
        accepted.append(np.array([k, s2 + (s2 - s_whole) / 15.0, err])[:, ok])
        refine = ~ok
        left = np.array([lo, mid, flo, flm, fm, s_left, k])
        right = np.array([mid, hi, fm, frm, fhi, s_right, k])
        panels = np.concatenate((left[:, refine], right[:, refine]), axis=1)
        if d:  # the halves' grids
            grid = np.concatenate((grid[:2 * d + 1, refine],
                                   grid[2 * d:, refine]), axis=1)
            d //= 2

    # bincount adds each integrand's terms to +0.0 in array order
    k, value, err = np.concatenate(accepted, axis=1)
    k = k.astype(int)
    return (np.bincount(k, weights=value, minlength=count),
            np.bincount(k, weights=err, minlength=count))


def integrate(f, a, b, tol, presplit=()):
    """Integrate f over [a, b] to absolute accuracy tol.

    f maps a 1-D array of abscissae to the array of integrand values.
    presplit lists interior abscissae where the integrand may kink; the
    initial partition is split there before adaptive refinement starts.

    Returns (value, error_bound) with error_bound <= tol on success.
    Raises ValueError unless 0 < tol < inf, QuadratureFailure if the
    panel budget runs out first, and NonFinite if a Simpson estimate is
    not finite.
    """
    value, err = integrate_many(lambda x, k: f(x), 1, a, b, tol, presplit)
    return float(value[0]), float(err[0])

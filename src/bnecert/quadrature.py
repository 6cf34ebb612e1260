"""Adaptive composite Simpson quadrature with Richardson error estimates.

Each panel compares one Simpson estimate against the two-half refinement;
|S2 - S1| / 15 is the classic Richardson a-posteriori error estimate and
S2 + (S2 - S1) / 15 the extrapolated value.  Integrands take an array of
abscissae and return the values there; all panels of one refinement depth
are evaluated in one call, for every integrand of a batch at once.  Each
integrand's accepted values and errors are summed in the order the
refinement accepts its panels, depth by depth; that order is the same
whether it is integrated alone or in a batch, so results are
deterministic and do not depend on the batching.  Simpson estimates that
are not finite (from an integrand that is not, or one above about 3e307,
where fa + 4 fm + fb overflows) raise NonFinite at once, since refining
cannot make them finite.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFinite, QuadratureFailure

MAX_PANELS = 10 ** 6  # the panel budget: panels refined per integrand


def _simpson(fa, fm, fb, h):
    return (h / 6.0) * (fa + 4.0 * fm + fb)


@np.errstate(over="ignore", invalid="ignore")  # overflow raises NonFinite
def integrate_many(f, count, a, b, tol, presplit=()):
    """Integrate count integrands over [a, b], each to absolute accuracy tol.

    f(x, k) maps 1-D arrays of abscissae x and integrand indices k to the
    values of integrand k[m] at x[m].  Every integrand is refined, held to
    the panel budget and summed exactly as integrate would do it alone.
    Returns arrays (values, error_bounds).  Raises NonFinite when a panel's
    Simpson estimates or their difference are not finite, and
    QuadratureFailure when an integrand exceeds the panel budget.
    """
    if b <= a:
        return np.zeros(count), np.zeros(count)
    points = np.array(sorted({a, b, *(p for p in presplit if a < p < b)}),
                      dtype=float)
    width = b - a

    lo, hi = points[:-1], points[1:]
    x = np.concatenate((points, 0.5 * (lo + hi)))
    fx = f(np.tile(x, count), np.arange(count).repeat(x.size))
    fx = fx.reshape(count, x.size)
    flo, fhi, fm = (fx[:, :lo.size].ravel(), fx[:, 1:points.size].ravel(),
                    fx[:, points.size:].ravel())
    lo, hi = np.tile(lo, count), np.tile(hi, count)
    # one column per panel: its ends, f at its ends and middle, its
    # Simpson value and its integrand
    panels = np.array([lo, hi, flo, fm, fhi, _simpson(flo, fm, fhi, hi - lo),
                       np.arange(count).repeat(points.size - 1)])

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
        ok = (err <= tol * (hi - lo) / width) | (hi - lo < 1e-14)
        accepted.append(np.array([k, s2 + (s2 - s_whole) / 15.0, err])[:, ok])
        left = np.array([lo, mid, flo, flm, fm, s_left, k])
        right = np.array([mid, hi, fm, frm, fhi, s_right, k])
        panels = np.concatenate((left[:, ~ok], right[:, ~ok]), axis=1)

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
    Raises QuadratureFailure if the panel budget runs out first, and
    NonFinite if a Simpson estimate is not finite.
    """
    value, err = integrate_many(lambda x, k: f(x), 1, a, b, tol, presplit)
    return float(value[0]), float(err[0])


"""Adaptive composite Simpson quadrature with Richardson error estimates.

Each panel compares one Simpson estimate against the two-half refinement;
|S2 - S1| / 15 is the classic Richardson a-posteriori error estimate and
S2 + (S2 - S1) / 15 the extrapolated value.  Integrands take an array of
abscissae and return the values there; all panels of one refinement depth
are evaluated in one call.  The accepted panels are summed in the order a
depth-first pass over the initial panels, last panel first, would accept
them, so results are deterministic and do not depend on the batching.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureFailure


def _simpson(fa, fm, fb, h):
    return (h / 6.0) * (fa + 4.0 * fm + fb)


def sequential_sum(values):
    """0.0 + values[..., 0] + values[..., 1] + ..., rounded left to right."""
    # cumsum starts at values[..., 0] instead, which can only change the
    # sign of an all-zero sum; adding +0.0 undoes that
    return np.cumsum(values, axis=-1)[..., -1] + 0.0


def integrate(f, a, b, tol, presplit=(), max_panels=10 ** 6):
    """Integrate f over [a, b] to absolute accuracy tol.

    f maps a 1-D array of abscissae to the array of integrand values.
    presplit lists interior abscissae where the integrand may kink; the
    initial partition is split there before adaptive refinement starts.

    Returns (value, error_bound) with error_bound <= tol on success.
    Raises QuadratureFailure if the panel budget runs out first.
    """
    if b <= a:
        return 0.0, 0.0
    points = np.array(sorted({a, b, *(p for p in presplit if a < p < b)}),
                      dtype=float)
    width = b - a

    lo, hi = points[:-1], points[1:]
    fx = f(np.concatenate((points, 0.5 * (lo + hi))))
    flo, fhi, fm = fx[:lo.size], fx[1:points.size], fx[points.size:]
    # one column per panel: its ends, f at its ends and middle, its
    # Simpson value, and the index of the initial panel it lies in
    panels = np.array([lo, hi, flo, fm, fhi, _simpson(flo, fm, fhi, hi - lo),
                       np.arange(lo.size)])

    accepted = []
    count = 0
    while panels.shape[1]:
        count += panels.shape[1]
        if count > max_panels:
            raise QuadratureFailure(
                f"panel budget {max_panels} exceeded before reaching tol={tol}"
            )
        lo, hi, flo, fm, fhi, s_whole, panel = panels
        mid = 0.5 * (lo + hi)
        flm, frm = np.split(f(np.concatenate((0.5 * (lo + mid),
                                              0.5 * (mid + hi)))), 2)
        s_left = _simpson(flo, flm, fm, mid - lo)
        s_right = _simpson(fm, frm, fhi, hi - mid)
        s2 = s_left + s_right
        err = np.abs(s2 - s_whole) / 15.0
        # proportional error allocation keeps the summed bound <= tol
        ok = (err <= tol * (hi - lo) / width) | (hi - lo < 1e-14)
        accepted.append(
            np.array([-panel, lo, s2 + (s2 - s_whole) / 15.0, err])[:, ok])
        left = np.array([lo, mid, flo, flm, fm, s_left, panel])
        right = np.array([mid, hi, fm, frm, fhi, s_right, panel])
        panels = np.concatenate((left[:, ~ok], right[:, ~ok]), axis=1)

    key, left_end, value, err = np.concatenate(accepted, axis=1)
    order = np.lexsort((left_end, key))
    total, err_total = sequential_sum(np.array([value, err])[:, order])
    return float(total), float(err_total)


def integrate2d(f, tol):
    """Integrate f(t1, t2) over the unit square to absolute accuracy ~tol;
    f takes a scalar t1 and an array of t2."""
    inner_tol = tol / 4.0

    def outer(t1):
        return np.array([integrate(lambda t2: f(x, t2), 0.0, 1.0,
                                   inner_tol)[0] for x in t1])

    value, err = integrate(outer, 0.0, 1.0, tol / 2.0)
    return value, err + inner_tol

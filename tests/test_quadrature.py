"""Adaptive Simpson quadrature: accuracy, error bounds, kink handling."""

import math

import numpy as np
import pytest

from bnecert import parse
from bnecert.errors import QuadratureFailure
from bnecert.quadrature import integrate, integrate2d

from conftest import oracle_eval


def test_polynomial_exact():
    # Simpson is exact on cubics, so the Richardson estimate vanishes
    value, err = integrate(lambda t: t ** 3, 0.0, 1.0, 1e-9)
    assert value == pytest.approx(0.25, abs=1e-14)
    assert err <= 1e-9


def test_smooth_transcendental():
    value, err = integrate(np.exp, 0.0, 1.0, 1e-10)
    assert abs(value - (math.e - 1.0)) <= err + 1e-13
    assert err <= 1e-10


def test_error_bound_is_honest():
    for tol in (1e-4, 1e-7, 1e-10):
        value, err = integrate(lambda t: np.sin(10 * t), 0.0, 1.0, tol)
        exact = (1 - math.cos(10.0)) / 10.0
        assert err <= tol
        assert abs(value - exact) <= err + 1e-12


def test_kink_with_presplit():
    value, err = integrate(lambda t: np.maximum(t, 1 - t), 0.0, 1.0, 1e-10,
                           presplit=(0.5,))
    assert abs(value - 0.75) <= 1e-12
    assert err <= 1e-10


def test_kink_without_presplit_still_converges():
    value, err = integrate(lambda t: np.abs(t - 1 / 3), 0.0, 1.0, 1e-8)
    exact = (1 / 3) ** 2 / 2 + (2 / 3) ** 2 / 2
    assert abs(value - exact) <= err + 1e-10
    assert err <= 1e-8


def test_empty_interval():
    assert integrate(np.ones_like, 1.0, 1.0, 1e-9) == (0.0, 0.0)
    assert integrate(np.ones_like, 2.0, 1.0, 1e-9) == (0.0, 0.0)


def test_presplit_outside_interval_ignored():
    value, _ = integrate(np.ones_like, 0.0, 1.0, 1e-9,
                         presplit=(-1.0, 0.5, 2.0))
    assert value == pytest.approx(1.0, abs=1e-14)


def test_panel_budget_exhaustion():
    # resolving a fast oscillation needs far more than 50 panels
    with pytest.raises(QuadratureFailure):
        integrate(lambda t: np.sin(1e6 * t), 0.0, 1.0, 1e-12,
                  max_panels=50)


def test_determinism():
    f = lambda t: np.sin(37.0 * t) + t ** 2
    a = integrate(f, 0.0, 1.0, 1e-9)
    b = integrate(f, 0.0, 1.0, 1e-9)
    assert a == b


def test_integrate2d():
    value, err = integrate2d(lambda t1, t2: t1 * t2, 1e-9)
    assert abs(value - 0.25) <= 1e-9
    value, err = integrate2d(lambda t1, t2: t1 + t2, 1e-9)
    assert abs(value - 1.0) <= 1e-8


def test_integrate2d_nonseparable():
    value, _ = integrate2d(lambda t1, t2: np.exp(t1 * t2), 1e-9)
    # sum_k 1/((k+1) (k+1)!) -- series for the double integral of e^(xy)
    exact = sum(1.0 / ((k + 1) * math.factorial(k + 1)) for k in range(25))
    assert abs(value - exact) <= 1e-8


def test_random_polynomials_against_antiderivative():
    rng = np.random.default_rng(11)
    for _ in range(25):
        coeffs = rng.random(5)
        f = lambda t: sum(c * t ** k for k, c in enumerate(coeffs))
        exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
        value, err = integrate(f, 0.0, 1.0, 1e-10)
        assert abs(value - exact) <= err + 1e-12


# ---------------------------------------------------------------------------
# bit-exactness against the depth-first integrator the batched one replaced


def _depth_first_integrate(f, a, b, tol, presplit=(), max_panels=10 ** 6):
    """Scalar-integrand adaptive Simpson, panels popped off a stack."""
    def simpson(fa, fm, fb, h):
        return (h / 6.0) * (fa + 4.0 * fm + fb)

    if b <= a:
        return 0.0, 0.0
    points = sorted({a, b, *(p for p in presplit if a < p < b)})
    width = b - a
    total = 0.0
    err_total = 0.0
    panels = 0
    stack = []
    for lo, hi in zip(points[:-1], points[1:]):
        flo, fhi = f(lo), f(hi)
        fm = f(0.5 * (lo + hi))
        stack.append((lo, hi, flo, fm, fhi, simpson(flo, fm, fhi, hi - lo)))
    while stack:
        lo, hi, flo, fm, fhi, s_whole = stack.pop()
        panels += 1
        if panels > max_panels:
            raise QuadratureFailure("panel budget exceeded")
        mid = 0.5 * (lo + hi)
        flm = f(0.5 * (lo + mid))
        frm = f(0.5 * (mid + hi))
        s_left = simpson(flo, flm, fm, mid - lo)
        s_right = simpson(fm, frm, fhi, hi - mid)
        s2 = s_left + s_right
        err = abs(s2 - s_whole) / 15.0
        if err <= tol * (hi - lo) / width or hi - lo < 1e-14:
            total += s2 + (s2 - s_whole) / 15.0
            err_total += err
            continue
        stack.append((mid, hi, fm, frm, fhi, s_right))
        stack.append((lo, mid, flo, flm, fm, s_left))
    return total, err_total


def _random_kinked_integrand(rng):
    """DSL text of a random integrand with kinks at random abscissae."""
    k1, k2, k3 = (f"{x:.6f}" for x in rng.random(3))
    c = [f"{x:.6f}" for x in rng.uniform(-2.0, 2.0, 4)]
    w = f"{rng.uniform(0.5, 10.0):.4f}"
    return (f"{c[0]}*abs(theta1 - {k1}) + {c[1]}*max(theta1, {k2})^2"
            f" + {c[2]}*sin({w}*theta1) + {c[3]}*min(theta1^3, {k3})")


def test_batched_equals_depth_first_on_300_kinked_integrands():
    rng = np.random.default_rng(4)
    failures = 0
    for _ in range(300):
        e = parse(_random_kinked_integrand(rng))
        presplit = tuple(rng.random(int(rng.integers(0, 6))))
        tol = 10.0 ** rng.uniform(-10.0, -3.0)
        max_panels = int(rng.choice([20, 60, 200, 10 ** 6]))
        a, b = sorted(rng.uniform(-0.5, 1.5, 2))
        try:
            want = _depth_first_integrate(
                lambda t: oracle_eval(e, t, 0.0), a, b, tol, presplit,
                max_panels)
        except QuadratureFailure:
            with pytest.raises(QuadratureFailure):
                integrate(lambda t: e.eval(t, 0.0), a, b, tol, presplit,
                          max_panels)
            failures += 1
            continue
        got = integrate(lambda t: e.eval(t, 0.0), a, b, tol, presplit,
                        max_panels)
        assert got == want
    assert 0 < failures < 300

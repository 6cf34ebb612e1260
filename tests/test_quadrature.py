"""Adaptive Simpson quadrature: accuracy, error bounds, kink handling."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from bnecert import parse, quadrature
from bnecert.errors import DomainError, NonFinite, QuadratureFailure
from bnecert.quadrature import integrate_many

from conftest import expr_eval, oracle_eval, oracle_integrate_many


def test_polynomial_exact():
    # Simpson is exact on cubics, so the Richardson estimate vanishes
    (value,), (err,) = integrate_many(lambda t, k: t ** 3, 1, 1e-9)
    assert value == pytest.approx(0.25, abs=1e-14)
    assert err <= 1e-9


def test_smooth_transcendental():
    (value,), (err,) = integrate_many(lambda t, k: np.exp(t), 1, 1e-10)
    assert abs(value - (math.e - 1.0)) <= err + 1e-13
    assert err <= 1e-10


def test_error_bound_is_honest():
    for tol in (1e-4, 1e-7, 1e-10):
        (value,), (err,) = integrate_many(lambda t, k: np.sin(10 * t), 1,
                                          tol)
        exact = (1 - math.cos(10.0)) / 10.0
        assert err <= tol
        assert abs(value - exact) <= err + 1e-12


@pytest.mark.parametrize("scale", [1e8, 1e12, 1e15])
def test_error_bound_is_honest_where_rounding_floors_tol(scale):
    # tol is below this integrand's rounding: refining on until S2 and S1
    # rounded alike reported 7e-18 at scale 1e12, against a true error of
    # 1e-3
    (value,), (err,) = integrate_many(lambda t, k: scale * np.sin(10 * t),
                                      1, 1e-10)
    exact = scale * (1 - math.cos(10.0)) / 10.0
    assert err <= quadrature.ROUNDING * scale
    assert abs(value - exact) <= err


def test_kink_at_an_edge():
    (value,), (err,) = integrate_many(lambda t, k: np.maximum(t, 1 - t), 1,
                                      1e-10, (0.0, 0.5, 1.0))
    assert abs(value - 0.75) <= 1e-12
    assert err <= 1e-10


def test_kink_between_edges_still_converges():
    (value,), (err,) = integrate_many(lambda t, k: np.abs(t - 1 / 3), 1,
                                      1e-8)
    exact = (1 / 3) ** 2 / 2 + (2 / 3) ** 2 / 2
    assert abs(value - exact) <= err + 1e-10
    assert err <= 1e-8


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tol_must_be_positive_and_finite(tol):
    # at once, not after refining a million panels
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        integrate_many(lambda x, k: x, 2, tol)


def test_no_integrands():
    values, errs = integrate_many(lambda x, k: x, 0, 1e-9)
    assert values.shape == errs.shape == (0,)


@pytest.mark.parametrize("edges", [
    (-1.0, 0.5, 2.0), (0.0, 0.5), (0.5, 1.0), (0.0, 0.5, 0.5, 1.0),
    (0.0, 0.7, 0.3, 1.0), (0.0, math.nan, 1.0), (1.0,), (),
    ((0.0, 1.0),), np.array([[0.0, 0.5, 1.0]]),
], ids=["outside", "no-end", "no-start", "repeated", "unsorted", "nan",
        "one", "empty", "nested", "2-d"])
def test_malformed_edges_raise(edges):
    # at once, and for no integrands too: a partition of [0, 1] from 0.0
    # to 1.0 that increases strictly, or no result
    for count in (0, 1):
        with pytest.raises(ValueError, match="^edges must increase from "
                           r"0\.0 to 1\.0, got "):
            integrate_many(lambda x, k: x, count, 1e-9, edges)


def test_panel_budget_exhaustion(monkeypatch):
    # resolving a fast oscillation needs far more than 50 panels
    monkeypatch.setattr(quadrature, "MAX_PANELS", 50)
    with pytest.raises(QuadratureFailure):
        integrate_many(lambda t, k: np.sin(1e6 * t), 1, 1e-12)


@pytest.mark.parametrize("integrand", [
    lambda t: np.full_like(t, 1.5e308),  # fa + 4 fm + fb overflows
    lambda t: 1.5e308 * t,
    lambda t: np.where(t > 0.3, np.inf, 1.0),
], ids=["constant", "linear", "infinite"])
def test_overflowing_simpson_estimate_is_nonfinite(integrand, monkeypatch):
    # at once, not after the panel budget, and without a RuntimeWarning
    # (the suite turns those into errors)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 10)
    with pytest.raises(NonFinite, match="Simpson estimates on"):
        integrate_many(lambda t, k: integrand(t), 1, 1e-6)


def test_determinism():
    f = lambda t, k: np.sin(37.0 * t) + t ** 2
    a = integrate_many(f, 1, 1e-9)
    b = integrate_many(f, 1, 1e-9)
    assert np.array(a).tobytes() == np.array(b).tobytes()


def test_random_polynomials_against_antiderivative():
    rng = np.random.default_rng(11)
    for _ in range(25):
        coeffs = rng.random(5)
        f = lambda t, _: sum(c * t ** k for k, c in enumerate(coeffs))
        exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
        (value,), (err,) = integrate_many(f, 1, 1e-10)
        assert abs(value - exact) <= err + 1e-12


# ---------------------------------------------------------------------------
# the depth-first integrator the batched one replaced: the same panels,
# summed in another order


def _depth_first_panels(f, tol, edges, max_panels=10 ** 6):
    """Scalar-integrand adaptive Simpson over [0, 1] split at edges,
    panels popped off a stack; the (value, error) of each accepted panel,
    in the order accepted."""
    def simpson(fa, fm, fb, h):
        return (h / 6.0) * (fa + 4.0 * fm + fb)

    points = list(edges)
    accepted = []
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
        if err <= tol * (hi - lo) or hi - lo < 1e-14:
            accepted.append((s2 + (s2 - s_whole) / 15.0, err))
            continue
        stack.append((mid, hi, fm, frm, fhi, s_right))
        stack.append((lo, mid, flo, flm, fm, s_left))
    return accepted


def _random_edges(rng, most):
    """0.0, fewer than most random abscissae in increasing order, 1.0."""
    return (0.0, *np.sort(rng.random(int(rng.integers(0, most)))), 1.0)


def _random_kinked_integrand(rng):
    """DSL text of a random integrand with kinks at random abscissae."""
    k1, k2, k3 = (f"{x:.6f}" for x in rng.random(3))
    c = [f"{x:.6f}" for x in rng.uniform(-2.0, 2.0, 4)]
    w = f"{rng.uniform(0.5, 10.0):.4f}"
    return (f"{c[0]}*abs(theta1 - {k1}) + {c[1]}*max(theta1, {k2})^2"
            f" + {c[2]}*sin({w}*theta1) + {c[3]}*min(theta1^3, {k3})")


def test_batched_equals_depth_first_on_300_kinked_integrands(monkeypatch):
    """Same failures; the same accepted panels, so value and error are the
    depth-first sums up to the rounding of two summation orders."""
    rng = np.random.default_rng(4)
    u = 2.0 ** -53
    failures = reordered = 0
    for _ in range(300):
        e = parse(_random_kinked_integrand(rng))
        edges = _random_edges(rng, 6)
        tol = 10.0 ** rng.uniform(-10.0, -3.0)
        max_panels = int(rng.choice([20, 60, 200, 10 ** 6]))
        monkeypatch.setattr(quadrature, "MAX_PANELS", max_panels)
        f = lambda t, k: expr_eval(e, t, 0.0)
        try:
            terms = _depth_first_panels(lambda t: oracle_eval(e, t, 0.0),
                                        tol, edges, max_panels)
        except QuadratureFailure:
            with pytest.raises(QuadratureFailure):
                integrate_many(f, 1, tol, edges)
            failures += 1
            continue
        got = np.ravel(integrate_many(f, 1, tol, edges))
        # recursive sums of the same m terms in two orders differ by at
        # most 2 * gamma_{m-1} * sum |term| (Higham, Accuracy and
        # Stability of Numerical Algorithms, 2002, section 4.2)
        m = max(len(terms), 1)
        gamma = (m - 1) * u / (1.0 - (m - 1) * u)
        for column, value in enumerate(got):
            want = 0.0
            for term in terms:
                want += term[column]
            size = sum(abs(term[column]) for term in terms)
            assert abs(value - want) <= 2.0 * gamma * size
            reordered += value != want
    assert 0 < failures < 300
    assert reordered > 0  # the sums are not all bit-equal by accident


def test_batch_equals_each_integrand_alone(monkeypatch):
    """Each integrand of a batch is refined, budgeted and summed as if it
    were alone, however many panels the others need."""
    rng = np.random.default_rng(6)
    failures = 0
    for _ in range(12):
        exprs = [parse(_random_kinked_integrand(rng)) for _ in range(25)]
        exprs.append(parse("0 * theta1"))  # an all-zero sum
        edges = _random_edges(rng, 4)
        tol = 10.0 ** rng.uniform(-9.0, -4.0)
        monkeypatch.setattr(quadrature, "MAX_PANELS",
                            int(rng.choice([60, 10 ** 6])))

        def f(x, k):
            values = np.array([expr_eval(e, x, 0.0) for e in exprs])
            return values[k, np.arange(x.size)]

        want = []
        for e in exprs:
            try:
                want.append(np.ravel(integrate_many(
                    lambda t, k: expr_eval(e, t, 0.0), 1, tol, edges)))
            except QuadratureFailure:
                want = None
                break
        if want is None:
            with pytest.raises(QuadratureFailure):
                integrate_many(f, len(exprs), tol, edges)
            failures += 1
            continue
        values, errs = integrate_many(f, len(exprs), tol, edges)
        assert np.array([values, errs]).T.tobytes() == np.array(want).tobytes()
    assert 0 < failures < 12


# ---------------------------------------------------------------------------
# the pass schedule: one call for the first panels, with their quarter
# points within the cap, and one for each depth whose panels' grids hold
# no quarter points, with LOOKAHEAD depths of their subtrees within it


def _outcome(integrator, *args):
    """The bytes of (values, errors), or the error's type and message."""
    try:
        values, errs = integrator(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return values.tobytes(), errs.tobytes()


def _trapped_integrand(rng):
    """A random kinked integrand; a third of them raise DomainError near a
    kink that refinement chases, and a third overflow to inf there."""
    text = _random_kinked_integrand(rng)
    c = f"{rng.random():.6f}"
    trap = int(rng.integers(3))
    if trap == 1:
        text += f" + abs(theta1 - {c}) + 0 * sqrt(abs(theta1 - {c}) - 1e-4)"
    elif trap == 2:
        text += f" + exp(1 / abs(theta1 - {c}))"
    return parse(text)


def _batch(exprs):
    """f(x, k) of integrate_many: each expression at its own abscissae."""
    def f(x, k):
        out = np.empty_like(x)
        for i, e in enumerate(exprs):
            out[k == i] = expr_eval(e, x[k == i], 0.0)
        return out
    return f


def _random_batch(rng, monkeypatch):
    """Arguments of integrate_many for a random batch, with the panel
    budget set to a random one of 20, 60 and 10**6."""
    count = int(rng.integers(1, 4))
    exprs = [_trapped_integrand(rng) for _ in range(count)]
    edges = _random_edges(rng, 6)
    tol = 10.0 ** rng.uniform(-10.0, -3.0)
    max_panels = int(rng.choice([20, 60, 10 ** 6]))
    monkeypatch.setattr(quadrature, "MAX_PANELS", max_panels)
    return _batch(exprs), count, tol, edges, max_panels


def test_pass_schedule_is_bit_identical_to_one_call_a_depth(monkeypatch):
    """Values and errors byte for byte, and the same error, type and
    message, as the loop that calls f once a depth; DomainError names the
    first bad value of the array that raised it."""
    rng = np.random.default_rng(25)
    outcomes = Counter()
    for _ in range(300):
        f, *args, max_panels = _random_batch(rng, monkeypatch)
        largest = Counter()

        def sized(name, f=f, largest=largest):
            def g(x, k):
                largest[name] = max(largest[name], x.size)
                return f(x, k)
            return g

        want = _outcome(oracle_integrate_many, sized("plain"), *args,
                        max_panels)
        assert _outcome(integrate_many, sized("new"), *args) == want
        assert largest["new"] <= max(quadrature.FETCH_POINTS,
                                     largest["plain"])
        outcomes[want[0] if isinstance(want[0], type) else "ok"] += 1
    assert set(outcomes) == {"ok", QuadratureFailure, DomainError, NonFinite}


def test_every_call_of_f_is_pinned():
    """The size, abscissae and integrand indices of every call of f, byte
    for byte: which arrays f sees is part of the schedule, since an error
    of f, such as DomainError, names the first bad value of its array.  The integrands are exactly rounded, so
    refinement, and with it the bytes, do not depend on the CPU.  The
    last batch's 64 cells overflow the cap: its first call takes no
    quarter points, and the depths below fetch just theirs until few
    panels refine."""
    rng = np.random.default_rng(28)
    sizes, digest = [], hashlib.sha256()

    def exact(c, power):
        def f(x, k):
            sizes.append(x.size)
            digest.update(x.tobytes())
            digest.update(k.tobytes())
            return np.abs(x - c[k]) + k * (x * x) ** power
        return f

    for _ in range(30):
        count = int(rng.integers(1, 4))
        c = rng.random(count)
        presplit = tuple(rng.random(int(rng.integers(0, 6))))
        tol = 10.0 ** rng.uniform(-10.0, -3.0)
        integrate_many(exact(c, 1), count, tol,
                       (0.0, *sorted(presplit), 1.0))
    integrate_many(exact(rng.random(8), 2), 8, 1e-13, np.arange(65) / 64)
    assert sizes == [
        50, 120, 120, 120, 60, 63, 180, 180, 180, 51, 180, 120, 13, 60, 75,
        180, 180, 180, 180, 180, 60, 50, 120, 120, 25, 60, 60, 60, 18, 120,
        120, 60, 42, 120, 15, 180, 180, 60, 21, 60, 60, 60, 60, 60, 10, 120,
        120, 120, 120, 26, 120, 120, 120, 60, 75, 180, 180, 120, 25, 60, 60,
        60, 60, 13, 60, 26, 120, 15, 180, 180, 180, 15, 120, 120, 60, 13, 60,
        60, 60, 60, 60, 25, 60, 60, 60, 60, 60, 10, 120, 120, 120, 60, 13, 60,
        60, 5, 60, 60, 60, 60, 60, 42, 120, 60, 34, 120, 120, 120, 39, 180,
        180, 180, 180, 180, 60, 34, 120, 120, 120, 120, 10, 120, 120, 120, 120,
        10, 120, 120, 120, 120,
        1032, 1024, 1796, 3588, 7172, 480, 480, 480, 480, 480, 480, 480]
    assert digest.hexdigest() == (
        "1cf614a9ed9ad5e36343ac7d2115f854d21d9f1a5cd9351d0a04e9ff32f6557b")


def test_no_call_outgrows_fetch_points_or_the_plain_schedule():
    # 64 cells that each refine a few depths: a fetch of all their
    # subtrees would hold 64 * 30 abscissae
    sizes = {"plain": [], "new": []}

    def sized(name):
        def f(x, k):
            sizes[name].append(x.size)
            return np.sin(40.0 * x)
        return f

    edges = np.arange(65) / 64
    want = oracle_integrate_many(sized("plain"), 1, 1e-13, edges)
    got = integrate_many(sized("new"), 1, 1e-13, edges)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert max(sizes["new"]) <= max(quadrature.FETCH_POINTS,
                                    max(sizes["plain"]))
    assert max(sizes["plain"]) * 2 ** quadrature.LOOKAHEAD \
        > quadrature.FETCH_POINTS
    assert len(sizes["new"]) < len(sizes["plain"])


def test_raises_on_abscissae_the_plain_schedule_never_reaches_change_nothing(
        monkeypatch):
    """An f that raises wherever a prefetch runs ahead of the refinement
    still gives the plain schedule's bytes, or its error."""
    rng = np.random.default_rng(26)
    discarded = 0
    for _ in range(100):
        f, *args, max_panels = _random_batch(rng, monkeypatch)
        visited = set()

        def plain(x, k):
            visited.update(zip(k.tolist(), x.tolist()))
            return f(x, k)

        def strict(x, k):
            nonlocal discarded
            if not visited.issuperset(zip(k.tolist(), x.tolist())):
                discarded += 1
                raise ValueError("an abscissa the refinement never reaches")
            return f(x, k)

        want = _outcome(oracle_integrate_many, plain, *args, max_panels)
        assert _outcome(integrate_many, strict, *args) == want
    assert discarded > 10


def test_a_first_call_that_raises_is_replayed_as_the_plain_one():
    # the plain schedule first calls f at 0, 1 and 0.5, then at depth 0
    # at 0.25 and 0.75, where this f raises
    def f(x, k):
        if (x == 0.25).any():
            raise ValueError(f"0.25 among {x.size} abscissae")
        return x

    with pytest.raises(ValueError, match=r"^0\.25 among 2 abscissae$"):
        integrate_many(f, 1, 1e-9)


@pytest.mark.parametrize("lookahead", [1, 2, 3, 4, 5])
def test_a_kink_costs_one_call_per_lookahead_depths(monkeypatch, lookahead):
    """On |theta - c| with c off the edges, f is called once for depth
    0 and once per LOOKAHEAD depths below it."""
    if lookahead != quadrature.LOOKAHEAD:
        monkeypatch.setattr(quadrature, "LOOKAHEAD", lookahead)
    rng = np.random.default_rng(lookahead)
    deepest = 0
    for _ in range(20):
        c = rng.random()
        edges = _random_edges(rng, 4)
        tol = 10.0 ** rng.uniform(-10.0, -4.0)
        calls = Counter()

        def counted(name):
            def f(x, k):
                calls[name] += 1
                return np.abs(x - c)
            return f

        want = oracle_integrate_many(counted("plain"), 1, tol, edges)
        got = integrate_many(counted("new"), 1, tol, edges)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        depths = calls["plain"] - 1
        assert calls["new"] <= 1 + math.ceil((depths - 1) / lookahead)
        deepest = max(deepest, depths)
    assert deepest > 2 * lookahead

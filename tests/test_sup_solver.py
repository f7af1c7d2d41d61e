"""Ratio maximization against brute-force grid and eigenvalue oracles."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interval_sup_reference
from sctubes import sup_solver
from sctubes.errors import UnboundedBox
from sctubes.sup_solver import CovariateBox, QuadraticRatio, sup_ratio


def random_ratio(rng, p):
    """A random PSD/PD pair of size (p+1)."""
    half = rng.standard_normal((p + 1, p + 1))
    a = half @ half.T * rng.uniform(0.1, 10.0)
    half = rng.standard_normal((p + 1, p + 1))
    d = half @ half.T + (p + 1) * 0.05 * np.eye(p + 1)
    return QuadraticRatio(a, d)


def sup_interval(q, low, high):
    """Supremum and scalar argmax over [low, high]."""
    value, argmax = sup_ratio(q, CovariateBox.interval(low, high))
    return value, float(argmax[0])


def top_eigenvalue(q):
    """Whole-space supremum straight from the pencil's spectrum."""
    return float(scipy.linalg.eigh(q.numerator, q.denominator,
                                   eigvals_only=True)[-1])


def grid_max_1d(q, low, high, points=100_001):
    ts = np.linspace(low, high, points)
    e = np.vstack([np.ones_like(ts), ts])
    num = np.einsum("it,ij,jt->t", e, q.numerator, e)
    den = np.einsum("it,ij,jt->t", e, q.denominator, e)
    vals = num / den
    idx = int(np.argmax(vals))
    return float(vals[idx]), float(ts[idx])


def test_identical_forms_give_one_at_left_endpoint():
    half = np.array([[2.0, 0.3], [0.3, 1.0]])
    q = QuadraticRatio(half @ half.T, half @ half.T)
    value, argmax = sup_interval(q, -3.0, 7.0)
    assert value == pytest.approx(1.0, rel=1e-12)
    assert argmax == -3.0


def test_known_unimodal_ratio():
    # R(t) = 1 / (1 + t^2), maximized at the left endpoint of [0, 5].
    q = QuadraticRatio(np.diag([1.0, 0.0]), np.eye(2))
    value, argmax = sup_interval(q, 0.0, 5.0)
    assert value == pytest.approx(1.0, rel=1e-12)
    assert argmax == 0.0


def test_point_interval_evaluates_exactly():
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = random_ratio(rng, 1)
        t = float(rng.uniform(-5, 5))
        value, argmax = sup_interval(q, t, t)
        assert argmax == t
        assert value == pytest.approx(q.value_at([t]), rel=1e-12)


def test_interval_matches_grid_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        q = random_ratio(rng, 1)
        low = float(rng.uniform(-10, 5))
        high = low + float(rng.uniform(0.1, 15))
        value, argmax = sup_interval(q, low, high)
        gval, _ = grid_max_1d(q, low, high)
        assert value >= gval - 1e-12 * max(gval, 1.0)
        assert value == pytest.approx(gval, rel=1e-6)
        assert low <= argmax <= high
        assert value == pytest.approx(q.value_at([argmax]), rel=1e-12)
        assert value == pytest.approx(
            interval_sup_reference(q.numerator, q.denominator, low, high),
            rel=1e-12)


def test_argmax_is_endpoint_or_stationary():
    rng = np.random.default_rng(2)
    for _ in range(100):
        q = random_ratio(rng, 1)
        low, high = -2.0, 4.0
        _, t = sup_interval(q, low, high)
        if t in (low, high):
            continue
        a, d = q.numerator, q.denominator
        n = np.array([a[0, 0], 2 * a[0, 1], a[1, 1]])
        dd = np.array([d[0, 0], 2 * d[0, 1], d[1, 1]])
        nder = np.polynomial.polynomial.polyval(t, [n[1], 2 * n[2]])
        dder = np.polynomial.polynomial.polyval(t, [dd[1], 2 * dd[2]])
        nval = np.polynomial.polynomial.polyval(t, n)
        dval = np.polynomial.polynomial.polyval(t, dd)
        scale = max(abs(nval * dder), abs(nder * dval), 1.0)
        assert abs(nder * dval - nval * dder) <= 1e-8 * scale


def test_interval_requires_univariate():
    # An interval is a p = 1 box; a p = 2 ratio does not fit it.
    q = QuadraticRatio(np.eye(3), np.eye(3))
    with pytest.raises(ValueError):
        sup_ratio(q, CovariateBox.interval(0.0, 1.0))


def test_interval_rejects_infinite_endpoints():
    q = QuadraticRatio(np.eye(2), np.eye(2))
    with pytest.raises(UnboundedBox):
        sup_interval(q, 0.0, np.inf)


def test_scale_invariance():
    rng = np.random.default_rng(3)
    q = random_ratio(rng, 1)
    scaled = QuadraticRatio(5.0 * q.numerator, 5.0 * q.denominator)
    v1, t1 = sup_interval(q, -1.0, 2.0)
    v2, t2 = sup_interval(scaled, -1.0, 2.0)
    assert v1 == pytest.approx(v2, rel=1e-12)
    assert t1 == t2


def test_box_identity_ratio_is_one():
    q = QuadraticRatio(np.eye(3), np.eye(3))
    box = CovariateBox(((-1.0, 2.0), (0.0, 5.0)))
    value, argmax = sup_ratio(q, box)
    assert value == pytest.approx(1.0, rel=1e-10)
    assert argmax.shape == (2,)


def test_box_p2_between_grid_and_eigen_bounds():
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = random_ratio(rng, 2)
        box = CovariateBox(((-3.0, 2.0), (-1.0, 4.0)))
        value, argmax = sup_ratio(q, box)
        xs = np.linspace(-3.0, 2.0, 200)
        ys = np.linspace(-1.0, 4.0, 200)
        gx, gy = np.meshgrid(xs, ys)
        e = np.stack([np.ones_like(gx), gx, gy]).reshape(3, -1)
        vals = (np.einsum("it,ij,jt->t", e, q.numerator, e)
                / np.einsum("it,ij,jt->t", e, q.denominator, e))
        assert value >= vals.max() - 1e-9
        assert value <= top_eigenvalue(q) + 1e-9
        assert q.value_at(argmax) == pytest.approx(value, rel=1e-10)


def test_box_rejects_infinite_bounds():
    q = QuadraticRatio(np.eye(2), np.eye(2))
    with pytest.raises(UnboundedBox):
        sup_ratio(q, CovariateBox(((-np.inf, 1.0),)))


def test_region_monotonicity():
    rng = np.random.default_rng(6)
    for _ in range(50):
        q = random_ratio(rng, 1)
        inner, _ = sup_interval(q, 0.0, 1.0)
        outer, _ = sup_interval(q, -1.0, 2.0)
        top, _ = sup_ratio(q, CovariateBox.whole_space(1))
        assert inner <= outer + 1e-12
        assert outer <= top + 1e-10 * max(top, 1.0)


def sup_unbounded(q):
    return sup_ratio(q, CovariateBox.whole_space(q.p))


def test_unbounded_identity_and_diagonal():
    assert sup_unbounded(QuadraticRatio(np.eye(2), np.eye(2)))[0] == pytest.approx(1.0)
    q = QuadraticRatio(np.diag([3.0, 1.0]), np.eye(2))
    assert sup_unbounded(q)[0] == pytest.approx(3.0, rel=1e-12)


def test_unbounded_agrees_with_huge_box():
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(50):
        q = random_ratio(rng, 1)
        top, arg = sup_unbounded(q)
        assert top == pytest.approx(top_eigenvalue(q), rel=1e-12)
        if arg is None:
            continue
        hits += 1
        boxed, _ = sup_interval(q, -1e4, 1e4)
        assert boxed == pytest.approx(top, rel=1e-4)
    assert hits >= 40  # degenerate vertical directions are rare for random forms


def test_unbounded_argmax_attains_value():
    rng = np.random.default_rng(8)
    for _ in range(20):
        q = random_ratio(rng, 2)
        top, arg = sup_unbounded(q)
        if arg is None:
            continue
        assert q.value_at(arg) == pytest.approx(top, rel=1e-8)


def test_quadratic_ratio_validation():
    with pytest.raises(ValueError):
        QuadraticRatio(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        QuadraticRatio(np.array([[1.0, 5.0], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(ValueError):
        QuadraticRatio(np.full((2, 2), np.nan), np.eye(2))


def test_covariate_box_helpers():
    assert CovariateBox.whole_space(3).is_whole_space
    assert not CovariateBox.whole_space(3).is_finite
    assert CovariateBox.point(1.0, 2.0).is_point
    assert CovariateBox.point(1.0, 2.0).bounds == ((1.0, 1.0), (2.0, 2.0))
    assert CovariateBox.interval(0.0, 1.0).is_finite
    with pytest.raises(ValueError):
        CovariateBox(((2.0, 1.0),))
    with pytest.raises(ValueError):
        CovariateBox(((np.nan, 1.0),))
    with pytest.raises(ValueError):
        CovariateBox(())


def test_value_at_checks_dimensions():
    q = QuadraticRatio(np.eye(3), np.eye(3))
    with pytest.raises(ValueError):
        q.value_at([1.0])


def test_top_eigenvector_at_infinity_has_no_argmax():
    # R(t) = t^2 / (1 + t^2) only approaches its supremum 1 as |t| grows.
    q = QuadraticRatio(np.diag([0.0, 1.0]), np.eye(2))
    value, argmax = sup_unbounded(q)
    assert value == pytest.approx(1.0, rel=1e-12)
    assert argmax is None


def test_point_box_is_direct_evaluation():
    rng = np.random.default_rng(9)
    for p in (1, 2, 3):
        q = random_ratio(rng, p)
        x = rng.uniform(-4, 4, size=p)
        value, argmax = sup_ratio(q, CovariateBox.point(*x))
        np.testing.assert_array_equal(argmax, x)
        assert value == pytest.approx(q.value_at(x), rel=1e-12)


def test_degenerate_coordinate_is_never_free():
    # A box flat in its second coordinate is the interval it reduces to.
    rng = np.random.default_rng(10)
    for _ in range(30):
        q = random_ratio(rng, 2)
        value, argmax = sup_ratio(q, CovariateBox(((-2.0, 3.0), (1.5, 1.5))))
        assert argmax[1] == 1.5
        vals = [q.value_at([t, 1.5]) for t in np.linspace(-2.0, 3.0, 1001)]
        assert value >= max(vals) - 1e-12 * max(vals)
        assert q.value_at(argmax) == pytest.approx(value, rel=1e-10)


def test_p3_box_between_grid_and_eigen_bounds():
    rng = np.random.default_rng(11)
    axis = np.linspace(0.0, 1.0, 41)
    grid = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
    e = np.column_stack([np.ones(len(grid)), grid])
    for _ in range(10):
        q = random_ratio(rng, 3)
        value, argmax = sup_ratio(q, CovariateBox(((0.0, 1.0),) * 3))
        vals = (np.einsum("ti,ij,tj->t", e, q.numerator, e)
                / np.einsum("ti,ij,tj->t", e, q.denominator, e))
        assert value >= vals.max() * (1 - 1e-12)
        assert value <= top_eigenvalue(q) * (1 + 1e-9)
        assert np.all((argmax >= 0.0) & (argmax <= 1.0))
        assert q.value_at(argmax) == pytest.approx(value, rel=1e-10)


@st.composite
def nested_regions(draw):
    """A random pencil with a point inside a segment inside a box."""
    p = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    q = random_ratio(rng, p)
    lows = rng.uniform(-5.0, 0.0, size=p)
    highs = lows + rng.uniform(0.1, 8.0, size=p)
    x = lows + rng.uniform(0.0, 1.0, size=p) * (highs - lows)
    segment = [(v, v) for v in x]
    segment[0] = (lows[0], highs[0])
    return q, x, tuple(segment), tuple(zip(lows, highs))


@settings(max_examples=150, deadline=None)
@given(nested_regions())
def test_region_order_point_interval_box_whole(case):
    q, x, segment, bounds = case
    values = [sup_ratio(q, box)[0] for box in (
        CovariateBox.point(*x), CovariateBox(segment), CovariateBox(bounds),
        CovariateBox.whole_space(q.p))]
    for inner, outer in zip(values, values[1:]):
        assert inner <= outer * (1 + 1e-9)


# --- top eigenvalue of stacked symmetric matrices -----------------------------

def lapack_top(mats):
    """Per-matrix top eigenvalue of a (count, n, n) stack."""
    return np.linalg.eigvalsh(mats)[:, -1]


def stacked_top(mats):
    """``sup_solver.top_eigenvalue`` on the replicate-last layout."""
    return sup_solver.top_eigenvalue(np.ascontiguousarray(mats.transpose(1, 2, 0)))


def with_spectrum(rng, spectra):
    """Symmetric matrices with the given spectra (one row each) in random
    orthonormal bases."""
    count, n = spectra.shape
    q = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
    mats = np.einsum("bij,bj,bkj->bik", q, spectra, q)
    return 0.5 * (mats + mats.transpose(0, 2, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("dof_extra", [0, 2, 27])
def test_top_eigenvalue_matches_lapack_on_wishart_grams(n, dof_extra):
    rng = np.random.default_rng(100 * n + dof_extra)
    z = rng.standard_normal((4000, n + dof_extra, n))
    grams = np.einsum("bai,baj->bij", z, z)
    np.testing.assert_allclose(stacked_top(grams), lapack_top(grams), rtol=1e-13)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       gap=st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-11, 1e-14,
                            0.0]),
       scale=st.integers(-50, 50))
def test_top_eigenvalue_matches_lapack_for_any_top_gap(n, seed, gap, scale):
    """Positive semidefinite spectra whose top two eigenvalues are a
    relative ``gap`` apart, at overall scales 1e-50 to 1e50: the 3 x 3
    closed form must not lose accuracy as the gap closes."""
    rng = np.random.default_rng(seed)
    top = rng.uniform(0.5, 2.0, size=64)
    spectra = np.column_stack([top, top * (1.0 - gap),
                               top * (1.0 - gap) * rng.uniform(size=64)])[:, :n]
    mats = with_spectrum(rng, spectra * 10.0 ** scale)
    np.testing.assert_allclose(stacked_top(mats), lapack_top(mats), rtol=1e-13)


def special_matrices(n):
    rng = np.random.default_rng(n)
    v = rng.standard_normal((4, n))
    diag = [np.diag(d) for d in ([3.0, 1.0, 2.0][:n], [1.0, 1.0, 0.5][:n],
                                 [0.0, 0.0, 7.0][:n], [2.0, 5.0, 5.0][:n])]
    return np.array([c * np.eye(n) for c in (1.0, 2.5, -3.0)]
                    + [np.outer(u, u) for u in v]
                    + diag
                    + [np.zeros((n, n))])


@pytest.mark.parametrize("scale", [1e-50, 1e-7, 1.0, 1e9, 1e50])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_top_eigenvalue_on_special_matrices(n, scale):
    """Multiples of the identity, rank-1, diagonal and zero matrices,
    where the 3 x 3 closed form's acos argument sits at -1, at 1, or is
    undefined."""
    mats = special_matrices(n) * scale
    np.testing.assert_allclose(stacked_top(mats), lapack_top(mats), rtol=1e-13)

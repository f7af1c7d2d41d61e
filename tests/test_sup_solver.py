"""Ratio maximization against brute-force grid and eigenvalue oracles."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interval_sup_reference, ratio_at, sup_of
from sctubes import sup_solver
from sctubes.errors import InvalidArgument, UnboundedBox
from sctubes.sup_solver import CovariateBox


def random_ratio(rng, p):
    """A random PSD/PD pair (A, D) of size (p+1)."""
    half = rng.standard_normal((p + 1, p + 1))
    a = half @ half.T * rng.uniform(0.1, 10.0)
    half = rng.standard_normal((p + 1, p + 1))
    d = half @ half.T + (p + 1) * 0.05 * np.eye(p + 1)
    return a, d


def sup_interval(a, d, low, high):
    """Supremum and scalar argmax over [low, high]."""
    value, argmax = sup_of(a, d, CovariateBox.interval(low, high))
    return value, float(argmax[0])


def top_eigenvalue(a, d):
    """Whole-space supremum straight from the pencil's spectrum."""
    return float(scipy.linalg.eigh(a, d, eigvals_only=True)[-1])


def grid_max_1d(a, d, low, high, points=100_001):
    ts = np.linspace(low, high, points)
    e = np.vstack([np.ones_like(ts), ts])
    num = np.einsum("it,ij,jt->t", e, a, e)
    den = np.einsum("it,ij,jt->t", e, d, e)
    vals = num / den
    idx = int(np.argmax(vals))
    return float(vals[idx]), float(ts[idx])


def test_identical_forms_give_one_at_left_endpoint():
    half = np.array([[2.0, 0.3], [0.3, 1.0]])
    value, argmax = sup_interval(half @ half.T, half @ half.T, -3.0, 7.0)
    assert value == pytest.approx(1.0, rel=1e-12)
    assert argmax == -3.0


def test_known_unimodal_ratio():
    # R(t) = 1 / (1 + t^2), maximized at the left endpoint of [0, 5].
    value, argmax = sup_interval(np.diag([1.0, 0.0]), np.eye(2), 0.0, 5.0)
    assert value == pytest.approx(1.0, rel=1e-12)
    assert argmax == 0.0


def test_point_interval_evaluates_exactly():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, d = random_ratio(rng, 1)
        t = float(rng.uniform(-5, 5))
        value, argmax = sup_interval(a, d, t, t)
        assert argmax == t
        assert value == pytest.approx(ratio_at(a, d, [t]), rel=1e-12)


def test_interval_matches_grid_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, d = random_ratio(rng, 1)
        low = float(rng.uniform(-10, 5))
        high = low + float(rng.uniform(0.1, 15))
        value, argmax = sup_interval(a, d, low, high)
        gval, _ = grid_max_1d(a, d, low, high)
        assert value >= gval - 1e-12 * max(gval, 1.0)
        assert value == pytest.approx(gval, rel=1e-6)
        assert low <= argmax <= high
        assert value == pytest.approx(ratio_at(a, d, [argmax]), rel=1e-12)
        assert value == pytest.approx(
            interval_sup_reference(a, d, low, high), rel=1e-12)


def test_argmax_is_endpoint_or_stationary():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a, d = random_ratio(rng, 1)
        low, high = -2.0, 4.0
        _, t = sup_interval(a, d, low, high)
        if t in (low, high):
            continue
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
    with pytest.raises(InvalidArgument):
        sup_of(np.eye(3), np.eye(3), CovariateBox.interval(0.0, 1.0))


def test_interval_rejects_infinite_endpoints():
    with pytest.raises(UnboundedBox):
        sup_interval(np.eye(2), np.eye(2), 0.0, np.inf)


def test_scale_invariance():
    rng = np.random.default_rng(3)
    a, d = random_ratio(rng, 1)
    v1, t1 = sup_interval(a, d, -1.0, 2.0)
    v2, t2 = sup_interval(5.0 * a, 5.0 * d, -1.0, 2.0)
    assert v1 == pytest.approx(v2, rel=1e-12)
    assert t1 == t2


def test_box_identity_ratio_is_one():
    box = CovariateBox(((-1.0, 2.0), (0.0, 5.0)))
    value, argmax = sup_of(np.eye(3), np.eye(3), box)
    assert value == pytest.approx(1.0, rel=1e-10)
    assert argmax.shape == (2,)


def test_box_p2_between_grid_and_eigen_bounds():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, d = random_ratio(rng, 2)
        box = CovariateBox(((-3.0, 2.0), (-1.0, 4.0)))
        value, argmax = sup_of(a, d, box)
        xs = np.linspace(-3.0, 2.0, 200)
        ys = np.linspace(-1.0, 4.0, 200)
        gx, gy = np.meshgrid(xs, ys)
        e = np.stack([np.ones_like(gx), gx, gy]).reshape(3, -1)
        vals = (np.einsum("it,ij,jt->t", e, a, e)
                / np.einsum("it,ij,jt->t", e, d, e))
        assert value >= vals.max() - 1e-9
        assert value <= top_eigenvalue(a, d) + 1e-9
        assert ratio_at(a, d, argmax) == pytest.approx(value, rel=1e-10)


def test_box_rejects_infinite_bounds():
    # A box mixing finite and infinite bounds is refused when it is built.
    for bounds in (((-np.inf, 1.0),), ((0.0, 1.0), (-np.inf, np.inf))):
        with pytest.raises(UnboundedBox):
            CovariateBox(bounds)


def test_region_monotonicity():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a, d = random_ratio(rng, 1)
        inner, _ = sup_interval(a, d, 0.0, 1.0)
        outer, _ = sup_interval(a, d, -1.0, 2.0)
        top, _ = sup_of(a, d, CovariateBox.whole_space(1))
        assert inner <= outer + 1e-12
        assert outer <= top + 1e-10 * max(top, 1.0)


def sup_unbounded(a, d):
    return sup_of(a, d, CovariateBox.whole_space(len(a) - 1))


def test_unbounded_identity_and_diagonal():
    assert sup_unbounded(np.eye(2), np.eye(2))[0] == pytest.approx(1.0)
    assert sup_unbounded(np.diag([3.0, 1.0]), np.eye(2))[0] == pytest.approx(
        3.0, rel=1e-12)


def test_unbounded_agrees_with_huge_box():
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(50):
        a, d = random_ratio(rng, 1)
        top, arg = sup_unbounded(a, d)
        assert top == pytest.approx(top_eigenvalue(a, d), rel=1e-12)
        if arg is None:
            continue
        hits += 1
        boxed, _ = sup_interval(a, d, -1e4, 1e4)
        assert boxed == pytest.approx(top, rel=1e-4)
    assert hits >= 40  # degenerate vertical directions are rare for random forms


def test_unbounded_argmax_attains_value():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a, d = random_ratio(rng, 2)
        top, arg = sup_unbounded(a, d)
        if arg is None:
            continue
        assert ratio_at(a, d, arg) == pytest.approx(top, rel=1e-8)


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


def test_ratio_at_checks_dimensions():
    with pytest.raises(ValueError):
        ratio_at(np.eye(3), np.eye(3), [1.0])


def test_top_eigenvector_at_infinity_has_no_argmax():
    # R(t) = t^2 / (1 + t^2) only approaches its supremum 1 as |t| grows.
    value, argmax = sup_unbounded(np.diag([0.0, 1.0]), np.eye(2))
    assert value == pytest.approx(1.0, rel=1e-12)
    assert argmax is None


def test_point_box_is_direct_evaluation():
    rng = np.random.default_rng(9)
    for p in (1, 2, 3):
        a, d = random_ratio(rng, p)
        x = rng.uniform(-4, 4, size=p)
        value, argmax = sup_of(a, d, CovariateBox.point(*x))
        np.testing.assert_array_equal(argmax, x)
        assert value == pytest.approx(ratio_at(a, d, x), rel=1e-12)


def test_degenerate_coordinate_is_never_free():
    # A box flat in its second coordinate is the interval it reduces to.
    rng = np.random.default_rng(10)
    for _ in range(30):
        a, d = random_ratio(rng, 2)
        value, argmax = sup_of(a, d, CovariateBox(((-2.0, 3.0), (1.5, 1.5))))
        assert argmax[1] == 1.5
        vals = [ratio_at(a, d, [t, 1.5]) for t in np.linspace(-2.0, 3.0, 1001)]
        assert value >= max(vals) - 1e-12 * max(vals)
        assert ratio_at(a, d, argmax) == pytest.approx(value, rel=1e-10)


def test_p3_box_between_grid_and_eigen_bounds():
    rng = np.random.default_rng(11)
    axis = np.linspace(0.0, 1.0, 41)
    grid = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
    e = np.column_stack([np.ones(len(grid)), grid])
    for _ in range(10):
        a, d = random_ratio(rng, 3)
        value, argmax = sup_of(a, d, CovariateBox(((0.0, 1.0),) * 3))
        vals = (np.einsum("ti,ij,tj->t", e, a, e)
                / np.einsum("ti,ij,tj->t", e, d, e))
        assert value >= vals.max() * (1 - 1e-12)
        assert value <= top_eigenvalue(a, d) * (1 + 1e-9)
        assert np.all((argmax >= 0.0) & (argmax <= 1.0))
        assert ratio_at(a, d, argmax) == pytest.approx(value, rel=1e-10)


@st.composite
def nested_regions(draw):
    """A random pencil with a point inside a segment inside a box."""
    p = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    a, d = random_ratio(rng, p)
    lows = rng.uniform(-5.0, 0.0, size=p)
    highs = lows + rng.uniform(0.1, 8.0, size=p)
    x = lows + rng.uniform(0.0, 1.0, size=p) * (highs - lows)
    segment = [(v, v) for v in x]
    segment[0] = (lows[0], highs[0])
    return a, d, x, tuple(segment), tuple(zip(lows, highs))


@settings(max_examples=150, deadline=None)
@given(nested_regions())
def test_region_order_point_interval_box_whole(case):
    a, d, x, segment, bounds = case
    values = [sup_of(a, d, box)[0] for box in (
        CovariateBox.point(*x), CovariateBox(segment), CovariateBox(bounds),
        CovariateBox.whole_space(len(x)))]
    for inner, outer in zip(values, values[1:]):
        assert inner <= outer * (1 + 1e-9)


def exact_point_ratio(w, d, point):
    """(e'W'We)/(e'De) at e = (1, point), in exact rational arithmetic on
    the float inputs."""
    e = [Fraction(1)] + [Fraction(float(t)) for t in point]
    we = [sum(Fraction(float(x)) * y for x, y in zip(row, e)) for row in w]
    den = sum(Fraction(float(d[i, j])) * e[i] * e[j]
              for i in range(len(e)) for j in range(len(e)))
    return sum(x * x for x in we) / den


@pytest.mark.parametrize("level, rtol", [(1e-6, 1e-6), (1e-8, 1e-4)])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_point_value_survives_a_numerator_nearly_orthogonal_to_e(p, level, rtol):
    """A point box's value is the Gram of the factor mapped onto it, so it
    stays >= 0 and accurate when We is tiny: here ||We|| is ``level``
    times ||W|| ||e||. Forming a Gram before mapping it to the face
    loses twice the digits, and can go negative."""
    rng = np.random.default_rng(22 + p)
    for _ in range(20):
        _, d = random_ratio(rng, p)
        point = rng.uniform(-5.0, 5.0, p)
        e = np.concatenate(([1.0], point))
        w = rng.standard_normal((2, p + 1))
        w -= np.outer(w @ e, e) / (e @ e)
        u = rng.standard_normal(2)
        u *= level * np.linalg.norm(w) / np.linalg.norm(u) / np.linalg.norm(e)
        w += np.outer(u, e)
        exact = exact_point_ratio(w, d, point)
        value, _ = sup_solver.FacePlan(d, CovariateBox.point(*point)).sup_with_argmax(w)
        assert value >= 0.0
        assert abs(Fraction(value) - exact) <= rtol * exact


def test_box_scratch_holds_one_face_of_entries():
    """Each face's entries are formed only when it is visited, as the
    Gram of the factors mapped onto that face: at p = 4 the cache holds
    one face's mapped factors and its 25 entry rows per replicate, not
    all 81 faces' 513."""
    rng = np.random.default_rng(21)
    p, m, count = 4, 2, 2048
    _, d = random_ratio(rng, p)
    plan = sup_solver.FacePlan(d, CovariateBox(((0.0, 10.0),) * p))
    cache, out = {}, np.full(count, -np.inf)
    plan.sup(rng.standard_normal((m, p + 1, count)), cache, out)
    assert np.isfinite(out).all()
    assert sum(buf.nbytes for buf in cache.values()) < 2 * 2 ** 20


# --- the inside test of a face with one free coordinate ----------------------

# Each geometry (p, free coordinate, fixed value) is a box whose only free
# coordinate runs over [low, high]: the interval (p = 1, nothing fixed),
# or an edge of a p = 2 box, held as a box whose other coordinate is a
# point, so that the edge is its only face with a free coordinate.
ONE_FREE_GEOMETRIES = {
    "interval": (1, 0, 0.0),
    "edge, first free": (2, 0, 2.5),
    "edge, second free": (2, 1, -1.25),
}


def one_free_embedding(p, free, fixed, low, high):
    """The box, and E taking face coordinates w = (w_0, w_0 t) to e."""
    bounds = [(fixed, fixed)] * p
    bounds[free] = (low, high)
    embed = np.zeros((p + 1, 2))
    embed[0, 0] = 1.0
    embed[free + 1, 1] = 1.0
    if p == 2:
        embed[2 - free, 0] = fixed
    return CovariateBox(tuple(bounds)), embed


def one_free_reference(a, d, embed, low, high):
    """max(R(low), R(high), lam if low < t* < high) for the face pencil
    (E'AE, E'DE), with lam and t* = w_1/w_0 from ``np.linalg.eigh`` of
    the whitened pencil and a division."""
    ends = [float((e @ a @ e) / (e @ d @ e))
            for e in (embed @ [1.0, low], embed @ [1.0, high])]
    linv = np.linalg.inv(np.linalg.cholesky(embed.T @ d @ embed))
    vals, vecs = np.linalg.eigh(linv @ embed.T @ a @ embed @ linv.T)
    w = linv.T @ vecs[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = w[1] / w[0]
    return max(ends + ([vals[-1]] if low < t < high else []))


def placed_face_factor(de, u):
    """A 2 x 2 factor G whose Gram's top eigenvector in the pencil
    (G'G, de) is u: G'G = 2 g g'/(u'g) + h h'/(v'h) with g = de u, v
    de-orthogonal to u and h = de v, so u's eigenvalue is 2 and v's 1."""
    g = de @ u
    v = np.array([-g[1], g[0]])
    h = de @ v
    return np.vstack([np.sqrt(2.0 / (u @ g)) * g, np.sqrt(1.0 / (v @ h)) * h])


@pytest.mark.parametrize("geometry", list(ONE_FREE_GEOMETRIES))
def test_one_free_face_inside_rule_matches_an_eigenvector_oracle(geometry):
    """The sign rule decides whether a face's maximiser t* is inside
    without its eigenvector. Where t* sits on an endpoint, within 1e-12
    of its width from one, at infinity (w_0 = 0), where the face matrix
    has b = 0 exactly or is a multiple of I (root = 0), both ``sup`` and
    ``sup_with_argmax`` equal the oracle to 1e-13 relative, and the
    argmax lies on the face."""
    p, free, fixed = ONE_FREE_GEOMETRIES[geometry]
    rng = np.random.default_rng(31 + 7 * p + free)
    cases = []  # (d, box, embed, low, high, face factor G)
    # A random denominator, with t* placed relative to [-1.5, 4].
    low, high = -1.5, 4.0
    width = high - low
    _, d = random_ratio(rng, p)
    box, embed = one_free_embedding(p, free, fixed, low, high)
    de = embed.T @ d @ embed
    spots = [low, high, 0.5 * (low + high), low - 1.0, high + 1.0]
    spots += [end + sign * 1e-12 * width for end in (low, high) for sign in (-1.0, 1.0)]
    for u in [np.array([1.0, t]) for t in spots] + [np.array([0.0, 1.0])]:
        cases.append((d, box, embed, low, high, placed_face_factor(de, u)))
    # D = I and the fixed coordinate at 0, so that E'DE = I and the face
    # matrix is G'G exactly: b = 0 with t* = 0 inside, at the low end
    # and at infinity, and root = 0.
    d = np.eye(p + 1)
    for low, high in [(-1.5, 4.0), (0.0, 4.0)]:
        box, embed = one_free_embedding(p, free, 0.0, low, high)
        for g in (np.diag([2.0, 1.0]), np.diag([1.0, 2.0]), 1.5 * np.eye(2)):
            cases.append((d, box, embed, low, high, g))
    for d, box, embed, low, high, g in cases:
        # The fixed column of W is 0, so W E = G.
        w = np.zeros((2, p + 1))
        w[:, [0, free + 1]] = g
        expected = one_free_reference(w.T @ w, d, embed, low, high)
        plan = sup_solver.FacePlan(d, box)
        out = np.full(1, -np.inf)
        plan.sup(w[:, :, None], {}, out)
        value, point = plan.sup_with_argmax(w)
        assert out[0] == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert value == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert low <= point[free] <= high
        assert all(point[k] == box.bounds[k][0] for k in range(p) if k != free)


# --- top eigenvalue of stacked symmetric matrices -----------------------------

def lapack_top(mats):
    """Per-matrix top eigenvalue of a (count, n, n) stack."""
    return np.linalg.eigvalsh(mats)[:, -1]


def stacked_top(mats):
    """``sup_solver.top_eigenvalue`` on the replicate-last layout, with
    scratch that holds NaN beforehand, as a reused buffer may: a first
    call fills the cache, which is then overwritten with NaN."""
    stack, cache = np.ascontiguousarray(mats.transpose(1, 2, 0)), {}
    sup_solver.top_eigenvalue(stack, cache)
    for buf in cache.values():
        buf.fill(np.nan)
    return sup_solver.top_eigenvalue(stack, cache)


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


def test_top_gram_eigenvalue_resolves_nearly_equal_roots():
    # Z Z' = [[1, 1e-9], [1e-9, 1]] exactly; its roots are 1 +- 1e-9. The
    # trace/determinant form tr^2 - 4 det cancels to 0 here and returns 1.
    z = np.array([[1.0, 0.0], [1e-9, 1.0]])[:, :, None]
    top = sup_solver.top_gram_eigenvalue(z, {})
    np.testing.assert_allclose(top, [1.000000001], rtol=1e-15)
    np.testing.assert_allclose(
        sup_solver.top_gram_eigenvalue(z.transpose(1, 0, 2), {}),
        top, rtol=1e-15)

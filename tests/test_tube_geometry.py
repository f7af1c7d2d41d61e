"""Cross-sections, coordinate bands, zero-line checks, significance regions.

The band covers the zero line on a region exactly when the observed sup
statistic stays at or below the constant, so zero-line checks read
``observed_statistic(fit, pair, box)[0] <= c``.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import make_dataset
from sctubes.errors import NotUnivariate, UnboundedBox
from sctubes.model_core import FittedModels, GroupData, GroupedDataset, fit_models
from sctubes.sct_engine import observed_statistic
from sctubes.sup_solver import CovariateBox
from sctubes.tube_geometry import cross_section, significance_region


def equal_fit(seed=100, m=2):
    rng = np.random.default_rng(seed)
    n = 18
    x = rng.uniform(0, 10, size=n)
    design = np.column_stack([np.ones(n), x])
    coef = rng.standard_normal((2, m))
    y = design @ coef + rng.standard_normal((n, m))
    return fit_models(GroupedDataset(groups=(
        GroupData(label="A", design=design, response=y),
        GroupData(label="B", design=design, response=y.copy()),
    )))


def offset_fit(seed=101, m=2, offset=0.0, slope_offset=0.0, noise=1.0):
    rng = np.random.default_rng(seed)
    coef = np.vstack([np.linspace(1.0, 2.0, m), np.linspace(0.5, -0.5, m)])
    shifted = coef.copy()
    shifted[0] += offset
    shifted[1] += slope_offset
    data = make_dataset(rng, (20, 24), (coef, shifted), noise=noise)
    return fit_models(data)


def boundary_points(section, count=400):
    """Points exactly on the ellipsoid boundary, via the shape factor."""
    angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    u = np.stack([np.cos(angles), np.sin(angles)])
    factor = np.linalg.cholesky(section.shape)
    return section.center[:, None] + np.sqrt(section.radius_sq) * (factor @ u)


# --- cross-sections ---------------------------------------------------------

def test_equal_coefficients_center_at_zero():
    fit = equal_fit()
    for x in (0.0, 3.5, 9.0):
        section = cross_section(fit, (1, 2), 0.05, x)
        np.testing.assert_array_equal(section.center, np.zeros(fit.m))
        assert section.radius_sq > 0.0


def test_zero_constant_collapses_to_center():
    fit = offset_fit(offset=0.5)
    section = cross_section(fit, (1, 2), 0.0, 4.0)
    assert section.radius_sq == 0.0
    assert section.contains(section.center)
    assert not section.contains(section.center + 1e-8)


def test_membership_flips_at_the_radius():
    rng = np.random.default_rng(102)
    fit = offset_fit(offset=0.3)
    for _ in range(25):
        x = float(rng.uniform(0, 10))
        c = float(rng.uniform(0.005, 0.1))
        section = cross_section(fit, (1, 2), c, x)
        v = rng.standard_normal(fit.m)
        stretch = np.sqrt(section.radius_sq / section.mahalanobis_sq(
            section.center + v))
        assert section.contains(section.center + (1 - 1e-6) * stretch * v)
        assert not section.contains(section.center + (1 + 1e-6) * stretch * v)


def test_cross_section_checks_point_dimension():
    fit = offset_fit()
    with pytest.raises(ValueError):
        cross_section(fit, (1, 2), 0.05, [1.0, 2.0])
    with pytest.raises(ValueError):
        cross_section(fit, (1, 2), -0.01, 1.0)


# --- coordinate bands --------------------------------------------------------

def test_m1_band_is_the_classical_hyperbolic_band():
    rng = np.random.default_rng(103)
    coef = np.array([[1.0], [0.5]])
    data = make_dataset(rng, (15, 17), (coef, coef + 0.4))
    fit = fit_models(data)
    c = 0.08
    db = fit.coef_difference(1, 2)
    delta = fit.delta(1, 2)
    s2 = fit.pooled_scatter[0, 0]
    for t in np.linspace(0.0, 10.0, 11):
        lower, upper = cross_section(fit, (1, 2), c, t).coordinate_interval(1)
        e = np.array([1.0, t])
        mid = e @ db[:, 0]
        h = np.sqrt(c * (e @ delta @ e) * s2)
        assert lower == pytest.approx(mid - h, rel=1e-12, abs=1e-12)
        assert upper == pytest.approx(mid + h, rel=1e-12, abs=1e-12)


def test_band_equals_ellipsoid_coordinate_extent():
    fit = offset_fit(offset=0.2)
    for x in (0.5, 4.2, 8.8):
        section = cross_section(fit, (1, 2), 0.05, x)
        pts = boundary_points(section, count=100_000)
        for q in (1, 2):
            lower, upper = section.coordinate_interval(q)
            scale = max(abs(upper - lower), 1e-6)
            assert abs(pts[q - 1].max() - upper) <= 1e-6 * scale
            assert abs(pts[q - 1].min() - lower) <= 1e-6 * scale


def test_projection_consistency_for_boundary_points():
    fit = offset_fit(offset=0.4)
    section = cross_section(fit, (1, 2), 0.07, 3.0)
    pts = boundary_points(section, count=500)
    for q in (1, 2):
        lo, hi = section.coordinate_interval(q)
        assert np.all(pts[q - 1] >= lo - 1e-10)
        assert np.all(pts[q - 1] <= hi + 1e-10)


def test_doubling_the_constant_scales_widths_by_sqrt2():
    fit = offset_fit(offset=0.1)
    for x in np.linspace(0.0, 10.0, 7):
        lo1, hi1 = cross_section(fit, (1, 2), 0.03, x).coordinate_interval(2)
        lo2, hi2 = cross_section(fit, (1, 2), 0.06, x).coordinate_interval(2)
        assert hi2 - lo2 == pytest.approx(np.sqrt(2.0) * (hi1 - lo1), rel=1e-12)


def test_band_validates_response_index():
    section = cross_section(offset_fit(), (1, 2), 0.05, 1.0)
    for q in (0, 3):
        with pytest.raises(ValueError):
            section.coordinate_interval(q)


def test_nested_tubes():
    rng = np.random.default_rng(104)
    fit = offset_fit(offset=0.25)
    small = cross_section(fit, (1, 2), 0.02, 5.0)
    large = cross_section(fit, (1, 2), 0.09, 5.0)
    assert small.radius_sq < large.radius_sq
    for _ in range(50):
        z = small.center + rng.standard_normal(fit.m)
        if small.contains(z):
            assert large.contains(z)


# --- zero line --------------------------------------------------------------

def test_zero_line_inside_for_equal_fit():
    fit = equal_fit()
    for box in (CovariateBox.interval(0, 10), CovariateBox.whole_space(1)):
        assert observed_statistic(fit, (1, 2), box)[0] <= 0.01


def test_zero_line_outside_when_constant_undershoots_midpoint():
    fit = offset_fit(offset=0.6)
    box = CovariateBox.interval(0.0, 10.0)
    mid_ratio, _ = observed_statistic(fit, (1, 2), CovariateBox.point(5.0))
    assert not observed_statistic(fit, (1, 2), box)[0] <= 0.5 * mid_ratio


def test_zero_line_agrees_with_grid_membership():
    rng = np.random.default_rng(105)
    box = CovariateBox.interval(0.0, 10.0)
    ts = np.linspace(0.0, 10.0, 10_000)
    e = np.vstack([np.ones_like(ts), ts])
    for trial in range(100):
        fit = offset_fit(seed=500 + trial,
                         offset=float(rng.uniform(0.0, 0.6)),
                         slope_offset=float(rng.uniform(-0.1, 0.1)))
        t_sup, _ = observed_statistic(fit, (1, 2), box)
        # Keep the constant away from the sup so grid coarseness
        # cannot flip the answer.
        factor = float(rng.choice([0.5, 0.7, 1.3, 1.6]))
        c = t_sup * factor

        db = fit.coef_difference(1, 2)
        delta = fit.delta(1, 2)
        a = db @ np.linalg.solve(fit.pooled_scatter, db.T)
        num = np.einsum("it,ij,jt->t", e, a, e)
        den = np.einsum("it,ij,jt->t", e, delta, e)
        grid_inside = bool(np.all(num / den <= c))
        assert (t_sup <= c) == grid_inside


# --- significance regions ----------------------------------------------------

def test_equal_fit_has_empty_region():
    fit = equal_fit()
    for q in (1, 2):
        region = significance_region(fit, (1, 2), 0.02, q,
                                     CovariateBox.interval(0.0, 10.0))
        assert region.intervals == ()
        assert region.response == q


def test_planted_offset_marks_the_whole_box():
    fit = offset_fit(offset=25.0, noise=0.05)
    region = significance_region(fit, (1, 2), 0.05, 1,
                                 CovariateBox.interval(0.0, 10.0))
    assert region.intervals == ((0.0, 10.0),)


def test_region_endpoints_solve_the_boundary_equation():
    # A pure slope offset makes the band exclude zero only away from
    # the center crossing, so the region has an interior endpoint.
    fit = offset_fit(seed=106, slope_offset=1.0, noise=0.3)
    box = CovariateBox.interval(0.0, 10.0)
    c = 0.05
    q = 1
    region = significance_region(fit, (1, 2), c, q, box)
    assert region.intervals

    db = fit.coef_difference(1, 2)
    delta = fit.delta(1, 2)
    omega_qq = fit.pooled_scatter[q - 1, q - 1]

    def excess(t):
        e = np.array([1.0, t])
        return abs(e @ db[:, q - 1]) - np.sqrt(c * (e @ delta @ e) * omega_qq)

    for lo, hi in region.intervals:
        for endpoint in (lo, hi):
            if endpoint in (0.0, 10.0):
                continue
            root = brentq(excess, max(endpoint - 0.01, 0.0),
                          min(endpoint + 0.01, 10.0), xtol=1e-12)
            assert abs(endpoint - root) <= 2e-5 * 10.0
            assert abs(excess(endpoint)) <= 1e-4


def test_region_intervals_are_sorted_and_disjoint():
    fit = offset_fit(seed=107, slope_offset=0.8, noise=0.4)
    region = significance_region(fit, (1, 2), 0.04, 2,
                                 CovariateBox.interval(0.0, 10.0))
    flat = [v for pair in region.intervals for v in pair]
    assert flat == sorted(flat)
    for (a, b) in region.intervals:
        assert 0.0 <= a <= b <= 10.0


def test_nonempty_region_implies_full_vector_rejection():
    rng = np.random.default_rng(108)
    box = CovariateBox.interval(0.0, 10.0)
    checked = 0
    for trial in range(50):
        fit = offset_fit(seed=700 + trial,
                         offset=float(rng.uniform(0.0, 0.5)),
                         slope_offset=float(rng.uniform(-0.2, 0.2)))
        c = float(rng.uniform(0.01, 0.08))
        any_region = any(
            significance_region(fit, (1, 2), c, q, box).intervals
            for q in (1, 2))
        if any_region:
            t_sup, _ = observed_statistic(fit, (1, 2), box)
            assert t_sup > c
            checked += 1
    assert checked >= 5


def test_region_narrower_than_any_grid_step():
    # center(t) = 0.0102, omega = 1, d(t) = 1e-4 + (t - 3.93)^2 on [0, 10]:
    # the band excludes zero only on 3.93 +- sqrt(0.0102^2 - 1e-4).
    t0 = 3.93
    delta = np.array([[1e-4 + t0 * t0, -t0], [-t0, 1.0]])
    gram_inv = (0.5 * delta, 0.5 * delta)
    fit = FittedModels(
        labels=("A", "B"), group_sizes=(10, 10),
        bhat=(np.array([[0.0102], [0.0]]), np.zeros((2, 1))),
        gram=tuple(np.linalg.inv(g) for g in gram_inv), gram_inv=gram_inv,
        pooled_scatter=np.eye(1), nu=16, p=1, m=1, scatter_factor=np.eye(1))
    region = significance_region(fit, (1, 2), 1.0, 1,
                                 CovariateBox.interval(0.0, 10.0))
    half = np.sqrt(0.0102 ** 2 - 1e-4)
    (lo, hi), = region.intervals
    assert lo == pytest.approx(t0 - half, abs=1e-12)
    assert hi == pytest.approx(t0 + half, abs=1e-12)
    assert (round(lo, 5), round(hi, 5)) == (3.92799, 3.93201)


def test_m1_rejection_iff_region_nonempty():
    # With one response the band excludes zero somewhere exactly when
    # the sup statistic exceeds the constant.
    rng = np.random.default_rng(110)
    box = CovariateBox.interval(0.0, 10.0)
    outcomes = set()
    for trial in range(200):
        fit = offset_fit(seed=900 + trial, m=1,
                         offset=float(rng.uniform(0.0, 0.8)),
                         slope_offset=float(rng.uniform(-0.15, 0.15)))
        t_sup, _ = observed_statistic(fit, (1, 2), box)
        c = t_sup * float(rng.uniform(0.5, 1.5))
        if abs(t_sup - c) <= 1e-9 * t_sup:
            continue
        nonempty = bool(significance_region(fit, (1, 2), c, 1, box).intervals)
        assert nonempty == (t_sup > c)
        outcomes.add(nonempty)
    assert outcomes == {True, False}


def test_point_box_region():
    fit = offset_fit(offset=20.0, noise=0.05)
    box = CovariateBox.point(3.0)
    region = significance_region(fit, (1, 2), 0.05, 1, box)
    assert region.intervals == ((3.0, 3.0),)
    quiet = equal_fit()
    assert significance_region(quiet, (1, 2), 0.05, 1, box).intervals == ()


def test_region_validation():
    fit = offset_fit()
    box = CovariateBox.interval(0.0, 10.0)
    with pytest.raises(UnboundedBox):
        significance_region(fit, (1, 2), 0.05, 1, CovariateBox.whole_space(1))
    with pytest.raises(ValueError):
        significance_region(fit, (1, 2), 0.05, 9, box)

    rng = np.random.default_rng(109)
    coef = np.zeros((3, 1))
    bi = make_dataset(rng, (12, 13), (coef, coef))
    with pytest.raises(NotUnivariate):
        significance_region(fit_models(bi), (1, 2), 0.05, 1,
                            CovariateBox(((0.0, 1.0), (0.0, 1.0))))

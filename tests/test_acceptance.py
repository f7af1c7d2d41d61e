"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (bypassing capture) and then
asserts, so a full run leaves a readable scoreboard:

    acceptance 01 PASS pointwise constant ...
    ...

Tolerances are fixed here and deliberately not shared with library
code; several expected values are Monte Carlo targets with stated
error margins rather than exact numbers.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    f_quantile,
    make_dataset,
    pointwise_constant,
    ratio_at,
    sup_of,
)
from sctubes.classical_tests import roy_k_sample
from sctubes.model_core import GroupData, GroupedDataset, fit_models
from sctubes.sct_engine import (
    ComparisonFamily,
    critical_constant,
    observed_statistic,
    pair_comparisons,
    simulate_pivot,
)
from sctubes.sup_solver import CovariateBox


def announce(capsys, num, ok, text):
    with capsys.disabled():
        print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'} {text}")


def fit_244_m2():
    """Two groups, one covariate, two responses, 244 error dof."""
    rng = np.random.default_rng(20240817)
    coef = np.array([[1.0, 2.0], [0.5, -0.3]])
    return fit_models(make_dataset(rng, (87, 161), (coef, coef + 0.2)))


def test_01_pointwise_constant_value_and_speed(capsys):
    fit = fit_244_m2()
    start = time.perf_counter()
    c = pointwise_constant(2, 244, 0.05)
    sample = simulate_pivot(fit, ComparisonFamily.pairwise(2),
                            CovariateBox.point(5.0), 100_000, seed=1)
    lo, hi = critical_constant(sample, 0.05).order_stat_interval
    elapsed = time.perf_counter() - start
    ok = round(c, 4) == 0.0249 and lo <= c <= hi and elapsed < 1.0
    announce(capsys, 1, ok,
             f"pointwise constant m=2 nu=244: {c:.6f} (target 0.0249), inside "
             f"the point-box 99% interval [{lo:.6f}, {hi:.6f}] at 10^5 "
             f"replicates ({elapsed * 1000:.1f} ms)")
    assert round(c, 4) == 0.0249
    assert lo <= c <= hi
    assert elapsed < 1.0


@pytest.fixture(scope="module")
def million_sample():
    fit = fit_244_m2()
    return simulate_pivot(fit, ComparisonFamily.pairwise(2),
                          CovariateBox.whole_space(1), 1_000_000, seed=0)


def test_02_whole_space_constant_at_a_million_reps(capsys, million_sample):
    c_hat = critical_constant(million_sample, 0.05).c_hat
    ok = abs(c_hat - 0.0360) <= 0.0015
    announce(capsys, 2, ok,
             f"two-group whole-space constant: {c_hat:.5f} "
             "(target 0.0360 +- 0.0015 at r=10^6)")
    assert ok


def test_03_largest_root_critical_for_three_groups(capsys):
    rng = np.random.default_rng(77)
    coef = np.array([[1.0, 2.0], [0.5, -0.3]])
    fit = fit_models(make_dataset(rng, (87, 80, 81), (coef, coef, coef + 0.1)))
    assert fit.nu == 242
    res = roy_k_sample(fit, alpha=0.05, r=1_000_000, seed=0)
    ok = res.null_dimension == 4 and abs(res.critical - 0.0536) <= 0.002
    announce(capsys, 3, ok,
             f"three-group largest-root critical: {res.critical:.5f} "
             "(target 0.0536 +- 0.002 at r=10^6, null dimension 4)")
    assert ok


def test_04_realized_coverage_interval(capsys, million_sample):
    eb = critical_constant(million_sample, 0.05).eb_coverage_interval
    ok = abs(eb[0] - 0.94934) <= 5e-5 and abs(eb[1] - 0.95066) <= 5e-5
    announce(capsys, 4, ok,
             f"realized-coverage interval at r=10^6: "
             f"[{eb[0]:.5f}, {eb[1]:.5f}] (target [0.94934, 0.95066])")
    assert ok


def test_05_point_box_ties_simulation_to_closed_form(capsys):
    results = []
    for nu, sizes in ((10, (7, 7)), (50, (27, 27)), (244, (87, 161))):
        rng = np.random.default_rng(nu)
        coef = np.array([[1.0], [0.5]])
        fit = fit_models(make_dataset(rng, sizes, (coef, coef)))
        assert fit.nu == nu
        sample = simulate_pivot(fit, ComparisonFamily.pairwise(2),
                                CovariateBox.point(3.0), 100_000, seed=nu)
        res = critical_constant(sample, 0.05)
        width = res.order_stat_interval[1] - res.order_stat_interval[0]
        target = f_quantile(1, nu, 0.95)
        gap = abs(res.c_hat * nu - target)
        results.append((nu, gap, 3 * width * nu))
    ok = all(gap <= margin for _, gap, margin in results)
    detail = ", ".join(f"nu={nu}: |gap|={gap:.4f} <= {margin:.4f}"
                       for nu, gap, margin in results)
    announce(capsys, 5, ok, f"point-box constant vs F quantile: {detail}")
    assert ok


def test_06_constant_ignores_generating_parameters(capsys):
    rng = np.random.default_rng(606)
    x1 = rng.uniform(0, 10, size=40)
    x2 = rng.uniform(0, 10, size=45)

    def build(coef, scale, data_seed):
        local = np.random.default_rng(data_seed)
        groups = []
        for label, x in (("A", x1), ("B", x2)):
            design = np.column_stack([np.ones(x.size), x])
            noise = local.standard_normal((x.size, 2)) @ scale.T
            groups.append(GroupData(label=label, design=design,
                                    response=design @ coef + noise))
        return fit_models(GroupedDataset(groups=tuple(groups)))

    fit_a = build(np.zeros((2, 2)), np.eye(2), 1)
    fit_b = build(np.array([[50.0, -9.0], [3.0, 12.0]]),
                  np.linalg.cholesky(np.array([[4.0, 1.2], [1.2, 9.0]])), 2)
    fam = ComparisonFamily.pairwise(2)
    box = CovariateBox.interval(0.0, 10.0)
    ca = critical_constant(simulate_pivot(fit_a, fam, box, 100_000, seed=11), 0.05)
    cb = critical_constant(simulate_pivot(fit_b, fam, box, 100_000, seed=22), 0.05)
    width = (ca.order_stat_interval[1] - ca.order_stat_interval[0]
             + cb.order_stat_interval[1] - cb.order_stat_interval[0])
    gap = abs(ca.c_hat - cb.c_hat)
    ok = gap <= 2 * width
    announce(capsys, 6, ok,
             f"pivotality: |{ca.c_hat:.5f} - {cb.c_hat:.5f}| = {gap:.5f} "
             f"<= 2 x combined width {2 * width:.5f}")
    assert ok


def test_07_monotonicity_in_region_and_family(capsys):
    rng = np.random.default_rng(707)
    coef = np.array([[1.0, 2.0], [0.5, -0.3]])
    fit = fit_models(make_dataset(rng, (30, 32, 34), (coef, coef, coef)))
    fam = ComparisonFamily.pairwise(3)
    r, seed = 100_000, 7

    def c_of(family, box):
        sample = simulate_pivot(fit, family, box, r, seed)
        return critical_constant(sample, 0.05).c_hat

    c_point = c_of(fam, CovariateBox.point(5.0))
    c_box = c_of(fam, CovariateBox.interval(0.0, 10.0))
    c_whole = c_of(fam, CovariateBox.whole_space(1))
    c_control = c_of(ComparisonFamily.vs_control(3, 1),
                     CovariateBox.interval(0.0, 10.0))
    ok = c_point < c_box < c_whole and c_control < c_box
    announce(capsys, 7, ok,
             f"monotone constants: point {c_point:.5f} < box {c_box:.5f} "
             f"< whole {c_whole:.5f}; control {c_control:.5f} < "
             f"pairwise {c_box:.5f}")
    assert ok


def test_08_interval_supremum_against_dense_grids(capsys):
    rng = np.random.default_rng(808)
    start = time.perf_counter()
    worst = 0.0
    ts = np.linspace(0.0, 1.0, 100_000)
    for _ in range(1000):
        half = rng.standard_normal((2, 2))
        a = half @ half.T
        half = rng.standard_normal((2, 2))
        d = half @ half.T + 0.1 * np.eye(2)
        low = float(rng.uniform(-10, 5))
        high = low + float(rng.uniform(0.1, 15))
        grid = low + (high - low) * ts
        e = np.vstack([np.ones_like(grid), grid])
        num = np.einsum("it,ij,jt->t", e, a, e)
        den = np.einsum("it,ij,jt->t", e, d, e)
        gmax = float(np.max(num / den))
        value, _ = sup_of(a, d, CovariateBox.interval(low, high))
        assert value >= gmax - 1e-9 * max(abs(gmax), 1.0)
        worst = max(worst, (value - gmax) / max(abs(gmax), 1e-12))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    announce(capsys, 8, ok,
             f"interval supremum vs 10^5-point grids, 1000 cases: worst "
             f"relative excess {worst:.2e} (<= 1e-6) in {elapsed:.1f}s")
    assert ok


def test_09_simultaneous_coverage_calibration(capsys):
    fam = ComparisonFamily.pairwise(2)
    box = CovariateBox.whole_space(1)
    coef = np.array([[1.0, -0.5], [0.3, 0.8]])
    chol = np.linalg.cholesky(np.array([[1.0, 0.4], [0.4, 2.0]]))
    covered = 0
    trials = 2000
    for trial in range(trials):
        rng = np.random.default_rng(90_000 + trial)
        data = make_dataset(rng, (15, 15), (coef, coef), chol=chol)
        fit = fit_models(data)
        sample = simulate_pivot(fit, fam, box, 10_000, seed=trial)
        c_hat = critical_constant(sample, 0.05).c_hat
        t_obs, _ = observed_statistic(fit, (1, 2), box)
        covered += t_obs <= c_hat
    rate = covered / trials
    ok = 0.935 <= rate <= 0.965
    announce(capsys, 9, ok,
             f"simultaneous coverage over {trials} trials: {rate:.4f} "
             "(target [0.935, 0.965] at nominal 0.95)")
    assert ok


def test_10_p_value_rejection_duality(capsys):
    rng = np.random.default_rng(1010)
    alpha = 0.1
    agreements = 0
    pairs_checked = 0
    for trial in range(100):
        k = 2 + trial % 2
        coef = np.array([[1.0], [0.5]])
        coefs = tuple(coef + rng.uniform(0, 0.6) * (g % 2) for g in range(k))
        sizes = tuple(int(rng.integers(8, 16)) for _ in range(k))
        fit = fit_models(make_dataset(np.random.default_rng(3000 + trial),
                                      sizes, coefs))
        fam = ComparisonFamily.pairwise(k)
        box = CovariateBox.interval(0.0, 10.0)
        sample = simulate_pivot(fit, fam, box, 2000, seed=trial)
        c_hat = critical_constant(sample, alpha).c_hat
        pvals = {pc.pair: pc.p_value
                 for pc in pair_comparisons(fit, fam, box, sample)}
        for pair in fam.pairs:
            t, _ = observed_statistic(fit, pair, box)
            pairs_checked += 1
            agreements += (pvals[pair] <= alpha) == (t >= c_hat)
    ok = agreements == pairs_checked
    announce(capsys, 10, ok,
             f"p-value vs constant duality: {agreements}/{pairs_checked} "
             "pair decisions agree")
    assert ok


def test_11_box_supremum_against_dense_grids(capsys):
    rng = np.random.default_rng(1111)
    start = time.perf_counter()
    worst = 0.0
    axis = np.linspace(0.0, 1.0, 301)
    ux, uy = (g.ravel() for g in np.meshgrid(axis, axis))
    cases = 300
    for _ in range(cases):
        half = rng.standard_normal((3, 3))
        a = half @ half.T
        half = rng.standard_normal((3, 3))
        d = half @ half.T + 0.1 * np.eye(3)
        lows = rng.uniform(-10, 5, size=2)
        highs = lows + rng.uniform(0.1, 15, size=2)
        box = CovariateBox(tuple(zip(lows, highs)))
        e = np.vstack([np.ones_like(ux), lows[0] + (highs[0] - lows[0]) * ux,
                       lows[1] + (highs[1] - lows[1]) * uy])
        num = np.einsum("it,ij,jt->t", e, a, e)
        den = np.einsum("it,ij,jt->t", e, d, e)
        gmax = float(np.max(num / den))
        top = float(scipy.linalg.eigh(a, d, eigvals_only=True)[-1])
        value, argmax = sup_of(a, d, box)
        assert value >= gmax * (1 - 1e-9)
        assert value <= top * (1 + 1e-9)
        assert np.all((argmax >= lows) & (argmax <= highs))
        assert ratio_at(a, d, argmax) == pytest.approx(value, rel=1e-9)
        worst = max(worst, (value - gmax) / gmax)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    announce(capsys, 11, ok,
             f"p=2 box supremum vs 301x301 grids, {cases} cases: attained "
             f"in the box, never below the grid (largest relative excess "
             f"{worst:.2e}) nor above the whole-space root, in {elapsed:.1f}s")
    assert ok

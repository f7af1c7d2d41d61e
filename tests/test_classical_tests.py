"""Largest-root tests, and the F-quantile oracles the suite checks against."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from conftest import f_quantile, make_dataset, pointwise_constant, wishart_factors
from sctubes import classical_tests, sct_engine
from sctubes.classical_tests import (
    _EXACT_ROOTS,
    _NODES,
    _LargestRootLaw,
    largest_root_null_sample,
    roy_k_sample,
)
from sctubes.errors import (
    DegenerateScatter,
    InvalidArgument,
    NotTwoGroups,
    TooFewReplicates,
)
from sctubes.model_core import GroupData, GroupedDataset, fit_models
from sctubes.rand_engine import StreamKey, normal_block
from sctubes.sct_engine import (
    ComparisonFamily,
    compare,
    critical_constant,
    observed_statistic,
    simulate_pivot,
)
from sctubes.sup_solver import CovariateBox


def random_two_group_fit(rng, p=1, m=2):
    coef = rng.standard_normal((p + 1, m))
    half = rng.standard_normal((m, m))
    chol = np.linalg.cholesky(half @ half.T + m * 0.1 * np.eye(m))
    sizes = (int(rng.integers(p + 4, p + 20)), int(rng.integers(p + 4, p + 20)))
    data = make_dataset(rng, sizes, (coef, coef + rng.normal(0, 0.5)),
                        chol=chol)
    return fit_models(data)


# --- F quantiles (the conftest oracle) ---------------------------------------

def test_equal_dof_median_is_one():
    for d in (1, 2, 7, 244):
        assert f_quantile(d, d, 0.5) == pytest.approx(1.0, abs=1e-8)


def test_f_quantile_matches_library():
    for d1 in (1, 2, 3, 10):
        for d2 in (4, 30, 244):
            for prob in (0.5, 0.9, 0.95, 0.99):
                q = f_quantile(d1, d2, prob)
                assert q == pytest.approx(scipy.stats.f.ppf(prob, d1, d2),
                                          rel=1e-8)


def test_f_quantile_cdf_roundtrip():
    for d1, d2, prob in ((2, 244, 0.95), (1, 10, 0.975), (5, 7, 0.6),
                         (3, 100, 0.99), (10, 10, 0.5)):
        q = f_quantile(d1, d2, prob)
        assert scipy.stats.f.cdf(q, d1, d2) == pytest.approx(prob, abs=2e-10)


def test_f_quantile_reference_points():
    assert f_quantile(2, 244, 0.95) == pytest.approx(3.032815556823, abs=1e-8)
    assert round(f_quantile(2, 244, 0.95), 3) == 3.033
    t_crit = scipy.stats.t.ppf(0.975, 10)
    assert f_quantile(1, 10, 0.95) == pytest.approx(t_crit ** 2, rel=1e-9)
    assert f_quantile(1, 10, 0.95) == pytest.approx(4.9646, abs=1e-4)


def test_f_quantile_strictly_increasing():
    probs = (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
    values = [f_quantile(3, 17, p) for p in probs]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_f_quantile_validation():
    with pytest.raises(ValueError):
        f_quantile(0, 10, 0.5)
    with pytest.raises(ValueError):
        f_quantile(1, 10, 1.0)


# --- pointwise constant (the conftest oracle) ---------------------------------

def test_pointwise_constant_reference_value():
    c = pointwise_constant(2, 244, 0.05)
    assert c == pytest.approx(0.0249, abs=1e-4)
    assert c == (2 / 244) * f_quantile(2, 244, 0.95)


def test_pointwise_constant_m1_is_squared_t():
    for nu in (10, 50, 244):
        c = pointwise_constant(1, nu, 0.05)
        t_crit = scipy.stats.t.ppf(0.975, nu)
        assert c * nu == pytest.approx(t_crit ** 2, rel=1e-8)


def test_pointwise_sits_31_percent_below_whole_space_constant():
    # Whole-space constant for m=2, nu=244 at the 5% level, pinned from
    # a high-replicate simulation.
    c_full = 0.0360
    saving = (c_full - pointwise_constant(2, 244, 0.05)) / c_full
    assert saving == pytest.approx(0.31, abs=0.01)


def test_pointwise_constant_validation():
    with pytest.raises(ValueError):
        pointwise_constant(0, 10, 0.05)
    with pytest.raises(ValueError):
        pointwise_constant(5, 3, 0.05)


# --- null sampler -----------------------------------------------------------

def test_null_sample_is_deterministic_and_sorted():
    a = largest_root_null_sample(2, 2, 50, 10_000, seed=3)
    b = largest_root_null_sample(2, 2, 50, 10_000, seed=3)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) >= 0.0)
    assert np.all(np.isfinite(a)) and a[0] >= 0.0
    c = largest_root_null_sample(2, 2, 50, 10_000, seed=4)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("d, m", [(2, 2), (8, 3), (4, 1), (1, 3)])
def test_null_sample_matches_per_replicate_eigenvalues(d, m):
    # The same draws through the Wishart matrix itself, with a generic
    # solve per replicate. For d >= m substream 1 holds a Bartlett factor
    # B with B B' standing in for Z'Z, and the replicate is the top
    # eigenvalue of B' W^{-1} B; for d < m it holds Z, and the replicate
    # is the top eigenvalue of Z W^{-1} Z'.
    nu, r, seed = 30, 300, 12
    got = largest_root_null_sample(d, m, nu, r, seed)
    lw = wishart_factors(m, nu, StreamKey(seed, 0, 0), 8192)[:r]
    if d >= m:
        u = wishart_factors(m, d, StreamKey(seed, 0, 1), 8192)[:r]
        want = [np.linalg.eigvalsh(u[b].T @ np.linalg.solve(lw[b] @ lw[b].T, u[b]))[-1]
                for b in range(r)]
    else:
        u = normal_block(d, m, StreamKey(seed, 0, 1), 8192)[:r]
        want = [np.linalg.eigvalsh(u[b] @ np.linalg.solve(lw[b] @ lw[b].T, u[b].T))[-1]
                for b in range(r)]
    np.testing.assert_allclose(got, np.sort(want), rtol=1e-12)


@pytest.mark.parametrize("d, m", [(8, 3), (3, 3), (4, 1)])
def test_null_sample_has_the_law_of_the_normal_matrix_path(d, m):
    # Drawing Z'Z as a Wishart factor must not change the law: compare
    # with the top eigenvalue of Z W^{-1} Z' built here from an explicit
    # d x m normal Z, on keys the sampler does not use.
    nu, r, block = 30, 100_000, 8192
    bartlett = largest_root_null_sample(d, m, nu, r, seed=41)
    explicit = []
    for start in range(0, r, block):
        count = min(block, r - start)
        lw = wishart_factors(m, nu, StreamKey(42, start, 0), count)
        z = normal_block(d, m, StreamKey(42, start, 1), count)
        v = np.linalg.solve(lw, np.transpose(z, (0, 2, 1)))
        explicit.append(np.linalg.eigvalsh(
            np.transpose(v, (0, 2, 1)) @ v)[:, -1])
    stat = scipy.stats.ks_2samp(bartlett, np.concatenate(explicit))
    assert stat.pvalue > 0.01


def test_null_sample_rejects_zero_replicates():
    with pytest.raises(TooFewReplicates):
        largest_root_null_sample(2, 2, 50, 0, seed=0)


def test_roy_refuses_zero_workers(three_group_fit):
    with pytest.raises(InvalidArgument):
        roy_k_sample(three_group_fit, alpha=0.05, r=2000, seed=1, workers=0)


def test_null_sample_is_the_same_for_any_worker_count(monkeypatch):
    # Three blocks, the last one cut short. Three usable CPUs, so that
    # the default (workers omitted) starts its drawing thread on any
    # machine.
    monkeypatch.setattr(sct_engine, "_usable_cpus", lambda: 3)
    r = 2 * 8192 + 1234
    serial = largest_root_null_sample(3, 2, 40, r, seed=6, workers=1)
    threaded = largest_root_null_sample(3, 2, 40, r, seed=6, workers=3)
    default = largest_root_null_sample(3, 2, 40, r, seed=6)
    assert np.array_equal(serial, threaded)
    assert np.array_equal(serial, default)


# --- exact law --------------------------------------------------------------

@pytest.mark.parametrize("d, m, nu", [(1, 1, 1), (1, 1, 5), (4, 1, 30), (8, 1, 200),
                                      (3, 1, 10**6), (1, 3, 3), (1, 3, 20), (1, 8, 60)])
def test_one_root_law_is_an_f_law(d, m, nu):
    # m = 1: lambda nu / d ~ F(d, nu). d = 1: Hotelling's T^2 / nu, so
    # lambda (nu - m + 1) / m ~ F(m, nu - m + 1).
    law = _LargestRootLaw(d, m, nu)
    d1, d2 = (d, nu) if m == 1 else (m, nu - m + 1)
    for prob in (0.01, 0.3, 0.5, 0.9, 0.95, 0.99, 0.999):
        lam = scipy.stats.f.ppf(prob, d1, d2) * d1 / d2
        assert law.cdf(lam) == pytest.approx(prob, abs=1e-10)
    for alpha in (0.05, 0.01):
        want = scipy.stats.f.isf(alpha, d1, d2) * d1 / d2
        assert law.quantile(1.0 - alpha) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("d, m, nu", [
    (6, 4, 40), (4, 4, 30), (8, 4, 60), (6, 2, 40),  # d >= m, even s
    (8, 3, 160), (5, 3, 12),                          # d >= m, odd s
    (2, 3, 30), (3, 5, 25),                           # d < m
    (9, 8, 60), (8, 10, 40)])                         # s = _EXACT_ROOTS
def test_exact_quantiles_lie_in_the_sampler_interval(d, m, nu):
    # The sampler is the oracle: each exact quantile must fall inside the
    # 99.9% order-statistic interval of 10^5 simulated replicates, from
    # the lo-th to the (hi+1)-th smallest.
    r = 100_000
    null = largest_root_null_sample(d, m, nu, r, seed=2024)
    law = _LargestRootLaw(d, m, nu)
    for alpha in (0.05, 0.01):
        lo, hi = (int(scipy.stats.binom.ppf(q, r, 1.0 - alpha)) for q in (0.0005, 0.9995))
        assert null[lo - 1] <= law.quantile(1.0 - alpha) <= null[hi]


def law_grid():
    """(d, m, nu) over s = 1 .. _EXACT_ROOTS: d < m and d >= m, d up to
    1000, and nu from its floor m to 10^6."""
    for s in range(1, _EXACT_ROOTS + 1):
        for d, m in ((s, s), (s + 1, s), (4 * s, s), (1000, s), (s, s + 1), (s, 3 * s)):
            for nu in (m, m + 1, m + 2, m + 30, m + 3000, 10**6):
                yield d, m, nu


def test_exact_law_has_unit_mass_and_needs_no_more_nodes(monkeypatch):
    laws = [_LargestRootLaw(*case) for case in law_grid()]
    points = [np.expm1(np.linspace(law._low, law._high, 8)[1:] ** 2) for law in laws]
    values = [[law.cdf(x) for x in xs] for law, xs in zip(laws, points)]
    for law in laws:
        assert law.cdf(np.inf) == pytest.approx(1.0, abs=1e-10)
        assert law.cdf(1e300) == law.cdf(np.inf)
    monkeypatch.setattr(classical_tests, "_NODES", 2 * _NODES)
    for case, law, xs, want in zip(law_grid(), laws, points, values):
        np.testing.assert_allclose([law.cdf(x) for x in xs], want, rtol=0,
                                   atol=1e-10, err_msg=str(case))


def test_exact_law_tail_below_its_accuracy_reads_zero():
    # 1 - cdf is rounding noise this far out (-2e-14 at lambda = 3); it
    # must not be reported as a p-value.
    law = _LargestRootLaw(4, 2, 60)
    critical, p_value = law.decide(3.0, 0.05)
    assert critical == pytest.approx(0.233252, abs=1e-6)
    assert p_value == 0.0
    assert law.decide(0.0, 0.05) == (critical, 1.0)
    assert 0.0 < law.decide(0.6, 0.05)[1] < 1e-4


@pytest.mark.parametrize("d, m, nu", [(1, 1, 5), (3, 3, 10), (8, 8, 8), (1, 1, 10**6),
                                      (8, 8, 10**6), (1000, 8, 8)])
def test_exact_law_is_zero_at_tiny_statistics(d, m, nu):
    # Nearly equal groups give statistics far below the law's mass; there
    # the nodes' u values once underflowed (a RuntimeWarning, which the
    # suite turns into an error) and the orthonormal basis divided by 0.
    law = _LargestRootLaw(d, m, nu)
    values = [law.cdf(lam) for lam in (5e-324, 1e-300, 1e-200, 1e-100, 1e-40)]
    assert all(0.0 <= v <= 1e-12 for v in values)
    assert values == sorted(values)
    assert law.decide(1e-300, 0.05)[1] == 1.0


def test_roy_switches_to_monte_carlo_beyond_the_exact_root_count():
    # k = 4, p = 2: null dimension 9. m = 8 leaves 8 roots (exact), m = 9
    # leaves 9 (simulated).
    rng = np.random.default_rng(97)
    for m, law in ((_EXACT_ROOTS, "exact"), (_EXACT_ROOTS + 1, "monte_carlo")):
        coef = rng.standard_normal((3, m))
        fit = fit_models(make_dataset(rng, (20, 21, 22, 23), (coef,) * 4))
        res = roy_k_sample(fit, alpha=0.05, r=2000, seed=3)
        assert (res.null_dimension, res.null_law) == (9, law)
        assert (res.null_reps, res.seed) == ((0, None) if law == "exact" else (2000, 3))
        assert (res.p_value <= 0.05) == (res.statistic >= res.critical)


# --- two groups --------------------------------------------------------------

def test_equal_coefficient_groups_score_zero():
    rng = np.random.default_rng(90)
    n = 16
    x = rng.uniform(0, 10, size=n)
    design = np.column_stack([np.ones(n), x])
    y = design @ np.array([[1.0, 0.5], [2.0, -1.0]])
    y = y + rng.standard_normal((n, 2))
    data = GroupedDataset(groups=(
        GroupData(label="A", design=design, response=y),
        GroupData(label="B", design=design, response=y.copy()),
    ))
    res = roy_k_sample(fit_models(data), alpha=0.05, r=1000, seed=1)
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_two_sample_critical_value_nu244(two_group_fit):
    res = roy_k_sample(two_group_fit, alpha=0.05, r=1_000_000, seed=7)
    assert res.critical == pytest.approx(0.0360, abs=0.0015)
    assert res.null_dimension == 2


def test_both_eigenvalue_formulations_agree():
    # The implementation takes the top root of the restricted fit's
    # hypothesis scatter against the pooled scatter; the oracle takes
    # the m-sided product of the coefficient difference through a
    # generic eigensolver. Their nonzero spectra must coincide.
    rng = np.random.default_rng(91)
    for _ in range(100):
        p = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        fit = random_two_group_fit(rng, p=p, m=m)
        res = roy_k_sample(fit, alpha=0.5, r=100, seed=2)
        db = fit.coef_difference(1, 2)
        prod = np.linalg.solve(fit.pooled_scatter,
                               db.T @ np.linalg.solve(fit.delta(1, 2), db))
        oracle = max(float(np.max(scipy.linalg.eig(prod)[0].real)), 0.0)
        assert res.statistic == pytest.approx(oracle, rel=1e-10, abs=1e-300)


def test_degenerate_scatter_is_refused():
    rng = np.random.default_rng(92)
    coef = np.array([[1.0], [2.0]])
    data = make_dataset(rng, (8, 9), (coef, coef), noise=0.0)
    fit = fit_models(data)
    with pytest.raises(DegenerateScatter):
        roy_k_sample(fit, alpha=0.05, r=1000, seed=0)


def test_too_few_tail_replicates(monkeypatch):
    # alpha * r = 5 < 10. The exact law reads no replicates and takes the
    # call; a Monte Carlo null (forced here by allowing no exact roots)
    # refuses it.
    rng = np.random.default_rng(93)
    fit = random_two_group_fit(rng)
    assert roy_k_sample(fit, alpha=0.05, r=100, seed=0).null_law == "exact"
    monkeypatch.setattr(classical_tests, "_EXACT_ROOTS", 0)
    with pytest.raises(TooFewReplicates):
        roy_k_sample(fit, alpha=0.05, r=100, seed=0)


@pytest.mark.parametrize("alpha", [-0.1, 0.0, "0.05", None, True])
def test_alpha_range_is_checked_before_the_tail_guard(alpha):
    # Roy, the tube constant and ``compare`` share one check order: an
    # alpha outside (0, 1), or one that is not a real number (a string,
    # None, a bool), is a bad argument, not a call for more replicates
    # and not a bare TypeError.
    fit = random_two_group_fit(np.random.default_rng(93))
    family, box = ComparisonFamily.pairwise(2), CovariateBox.whole_space(1)
    with pytest.raises(InvalidArgument, match="alpha must be in"):
        roy_k_sample(fit, alpha=alpha, r=100, seed=0)
    with pytest.raises(InvalidArgument, match="alpha must be in"):
        compare(fit, family, box, alpha, 100, 0)
    sample = simulate_pivot(fit, family, box, 100, seed=0)
    with pytest.raises(InvalidArgument, match="alpha must be in"):
        critical_constant(sample, alpha)


# --- k-sample test ----------------------------------------------------------

def test_k2_reduction_to_two_sample():
    # At k = 2 the statistic is the whole-space supremum of the tube
    # statistic, and the null dimension is p + 1.
    rng = np.random.default_rng(94)
    for _ in range(20):
        fit = random_two_group_fit(rng, p=int(rng.integers(1, 3)),
                                   m=int(rng.integers(1, 3)))
        res = roy_k_sample(fit, alpha=0.1, r=200, seed=5)
        want, _ = observed_statistic(fit, (1, 2), CovariateBox.whole_space(fit.p))
        assert res.statistic == pytest.approx(want, rel=1e-12)
        assert res.null_dimension == fit.p + 1


def test_k_sample_statistic_survives_a_large_common_level():
    # Coefficients near 100, noise 3e-7 (just above the degenerate-scatter
    # floor): the oracle is the contrast form D' V^{-1} D over differences
    # from the last group. A common fit solved from the raw estimates is
    # off by about 2e-11 relative here.
    rng = np.random.default_rng(96)
    coef = 100.0 * rng.standard_normal((2, 2))
    for _ in range(10):
        data = make_dataset(rng, (9, 11, 13), (coef, coef, coef), noise=3e-7)
        fit = fit_models(data)
        diffs = np.vstack([fit.bhat[g] - fit.bhat[2] for g in range(2)])
        cov = np.kron(np.ones((2, 2)), fit.gram_inv[2])
        cov[:2, :2] += fit.gram_inv[0]
        cov[2:, 2:] += fit.gram_inv[1]
        hmat = diffs.T @ np.linalg.solve(cov, diffs)
        want = scipy.linalg.eigh(hmat, fit.pooled_scatter, eigvals_only=True)[-1]
        res = roy_k_sample(fit, alpha=0.1, r=200, seed=0)
        assert res.statistic == pytest.approx(want, rel=1e-12)


def test_k_sample_critical_value_nu242(three_group_fit):
    res = roy_k_sample(three_group_fit, alpha=0.05, r=1_000_000, seed=8)
    assert res.null_dimension == 4
    assert res.critical == pytest.approx(0.0536, abs=0.002)


def test_null_p_values_are_uniform():
    coef = np.array([[1.0], [0.5]])
    below, agree = 0, 0
    trials = 500
    for trial in range(trials):
        rng = np.random.default_rng(7000 + trial)
        data = make_dataset(rng, (9, 10, 11), (coef, coef, coef))
        res = roy_k_sample(fit_models(data), alpha=0.05, r=2000, seed=trial)
        below += res.p_value < 0.05
        agree += (res.p_value <= 0.05) == (res.statistic >= res.critical)
    assert abs(below / trials - 0.05) <= 0.03
    assert agree == trials


def test_k_sample_needs_two_groups():
    rng = np.random.default_rng(95)
    data = make_dataset(rng, (12,), (np.array([[1.0], [0.5]]),))
    with pytest.raises(NotTwoGroups):
        roy_k_sample(fit_models(data), alpha=0.05, r=1000, seed=0)


def test_two_sample_matches_unbounded_tube_constant(two_group_fit):
    fit = two_group_fit
    r = 100_000
    sample = simulate_pivot(fit, ComparisonFamily.pairwise(2),
                            CovariateBox.whole_space(1), r, seed=12)
    tube = critical_constant(sample, 0.05)
    roy = roy_k_sample(fit, alpha=0.05, r=r, seed=13)
    width = tube.order_stat_interval[1] - tube.order_stat_interval[0]
    assert abs(roy.critical - tube.c_hat) <= 3 * width + 1e-4

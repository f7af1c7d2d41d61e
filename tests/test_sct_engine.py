"""Simulation engine: keying, distributional oracles, quantiles, p-values."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    f_quantile,
    hotelling_point_constant,
    interval_sup_reference,
    make_dataset,
    ratio_at,
    wishart_factors,
    write_csv,
)
from sctubes.errors import (
    DegenerateScatter,
    EmptyFamily,
    InvalidArgument,
    MetaMismatch,
    TooFewReplicates,
)
from sctubes.model_core import fit_models
from sctubes.rand_engine import (
    STREAM_VERSION,
    StreamKey,
    normal_block,
    wishart_factor_block,
)
from sctubes.sct_engine import (
    _BLOCK,
    ComparisonFamily,
    SimulatedSample,
    _binom_ppf,
    _SimPlan,
    _tube_block,
    _whiten,
    compare,
    critical_constant,
    design_digest,
    observed_statistic,
    pair_comparisons,
    simulate_pivot,
    tail_rank,
)
from sctubes.sup_solver import CovariateBox


def univariate_fit(seed=5, sizes=(20, 26), offset=0.0, noise=1.0):
    rng = np.random.default_rng(seed)
    coef = np.array([[1.0], [0.5]])
    data = make_dataset(rng, sizes, (coef, coef + offset), noise=noise)
    return fit_models(data)


def fake_sample(values):
    values = np.sort(np.asarray(values, dtype=float))
    return SimulatedSample(values=values, seed=0,
                           family=ComparisonFamily.pairwise(2),
                           box=CovariateBox.whole_space(1), design_digest="0" * 16)


# --- comparison families --------------------------------------------------

def test_pairwise_lists_each_unordered_pair_once():
    fam = ComparisonFamily.pairwise(3)
    assert fam.pairs == ((1, 2), (1, 3), (2, 3))
    assert fam.kind == "pairwise"
    assert len(ComparisonFamily.pairwise(5).pairs) == 10


def test_vs_control_pairs():
    fam = ComparisonFamily.vs_control(3, 2)
    assert fam.pairs == ((1, 2), (3, 2))
    assert fam.control == 2
    assert ComparisonFamily.vs_control(2, 1).pairs == ((2, 1),)
    with pytest.raises(ValueError):
        ComparisonFamily.vs_control(3, 4)


def test_successive_pairs():
    assert ComparisonFamily.successive(4).pairs == ((1, 2), (2, 3), (3, 4))


def test_family_validation():
    with pytest.raises(EmptyFamily):
        ComparisonFamily(pairs=[])
    with pytest.raises(ValueError):
        ComparisonFamily(pairs=[(1, 1)])
    with pytest.raises(ValueError):
        ComparisonFamily(pairs=[(1, 2), (1, 2)])
    with pytest.raises(ValueError):
        ComparisonFamily(pairs=[(0, 1)])
    # A family naming a group the fit lacks is refused by the fit.
    with pytest.raises(ValueError):
        simulate_pivot(univariate_fit(), ComparisonFamily.pairwise(3),
                       CovariateBox.whole_space(1), 1000, seed=0)


# --- quantile convention --------------------------------------------------

def test_quantile_rank_convention():
    assert tail_rank(200, 0.05) == 190
    assert tail_rank(1_000_000, 0.05) == 950_000
    # 0.95 * 1000 is not exactly representable; the guard keeps it at 950.
    assert tail_rank(1000, 0.05) == 950
    # ceil(0.001 * 10_000) = 10, not 11.
    assert tail_rank(10_000, 0.999) == 10
    # The smallest rank, at an alpha * r (19.98) that clears the floor of 10.
    assert tail_rank(20, 0.999) == 1
    with pytest.raises(ValueError):
        tail_rank(100, 0.0)


def test_critical_constant_is_rank_order_statistic():
    sample = fake_sample(np.arange(1.0, 101.0))
    res = critical_constant(sample, 0.1)
    assert res.rank == 90
    assert res.c_hat == 90.0
    lo, hi = res.order_stat_interval
    assert lo <= res.c_hat <= hi
    elo, ehi = res.eb_coverage_interval
    assert elo <= 0.9 <= ehi


def test_order_statistic_ranks_match_binomial_quantiles():
    # The two tail probabilities critical_constant asks for.
    for r in (10, 37, 200, 1000, 9999, 12_345, 100_000, 200_000, 1_000_000,
              4_000_000):
        for alpha in (0.001, 0.01, 0.05, 0.1, 0.2, 0.37, 0.5, 0.9):
            for q in (0.005, 0.995):
                want = int(scipy.stats.binom.ppf(q, r, 1.0 - alpha))
                assert _binom_ppf(q, r, 1.0 - alpha) == want, (r, alpha, q)


def test_no_scipy_after_import_or_any_subcommand(tmp_path):
    # numpy is the only runtime dependency. Running every subcommand
    # after the import also catches a scipy import made lazily.
    import sctubes
    rng = np.random.default_rng(12)
    coef = np.array([[1.0, 2.0], [0.5, -0.3]])
    csv_path = tmp_path / "data.csv"
    write_csv(make_dataset(rng, (12, 14), (coef, coef + 0.3)), csv_path)
    code = textwrap.dedent("""
        import json, sys
        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        import sctubes
        from sctubes.cli_io import main
        after_import = scipy_modules()
        data, out = sys.argv[1], sys.argv[2]
        sim = ["--reps", "1000", "--seed", "3"]
        codes = [main(["fit", data, "--out", f"{out}/fit.json"])]
        for cmd in ("critical", "pvalues", "compare", "roy"):
            codes.append(main([cmd, data, *sim, "--out", f"{out}/{cmd}.json"]))
        codes.append(main(["tube", data, *sim, "--range", "0:10",
                           "--out", f"{out}/tube.csv"]))
        print(json.dumps([after_import, codes, scipy_modules()]))
        """)
    root = str(Path(sctubes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": root}
    out = subprocess.run([sys.executable, "-c", code, str(csv_path), str(tmp_path)],
                         capture_output=True, text=True, check=True, env=env)
    after_import, codes, after_run = json.loads(out.stdout.splitlines()[-1])
    assert after_import == []
    assert codes == [0] * 6
    assert after_run == []


def test_critical_constant_needs_enough_tail_mass():
    # 100 values at alpha = 0.05 puts only 5 replicates in the tail.
    sample = fake_sample(np.arange(1.0, 101.0))
    with pytest.raises(TooFewReplicates):
        critical_constant(sample, 0.05)


def test_simulate_rejects_zero_replicates(two_group_fit):
    with pytest.raises(TooFewReplicates):
        simulate_pivot(two_group_fit, ComparisonFamily.pairwise(2),
                       CovariateBox.whole_space(1), 0, seed=1)


# --- simulation keying and determinism ------------------------------------

def test_same_seed_reproduces_bitwise(two_group_fit):
    fam = ComparisonFamily.pairwise(2)
    box = CovariateBox.interval(0.0, 10.0)
    a = simulate_pivot(two_group_fit, fam, box, 500, seed=9)
    b = simulate_pivot(two_group_fit, fam, box, 500, seed=9)
    assert np.array_equal(a.values, b.values)
    c = simulate_pivot(two_group_fit, fam, box, 500, seed=10)
    assert not np.array_equal(a.values, c.values)


def test_replicates_are_a_pure_function_of_seed_and_index(two_group_fit):
    fam = ComparisonFamily.pairwise(2)
    box = CovariateBox.whole_space(1)
    small = simulate_pivot(two_group_fit, fam, box, 50, seed=3)
    large = simulate_pivot(two_group_fit, fam, box, 100, seed=3)
    assert np.isin(small.values, large.values).all()


def test_worker_count_cannot_change_results(two_group_fit):
    # More threads than cores, switched every microsecond, each with its
    # own buffers: a block computed in another thread's buffers, or
    # written to another block's place, would change the sample.
    fam = ComparisonFamily.pairwise(2)
    box = CovariateBox.whole_space(1)
    serial = simulate_pivot(two_group_fit, fam, box, 45_000, seed=4, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = simulate_pivot(two_group_fit, fam, box, 45_000, seed=4, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(serial.values, threaded.values)


# A fresh process's first kernel call. The measured call is chosen by
# argv[1]; with argv[2] == "1" it runs after numpy arrays of 64 KB,
# 300 KB and 3 MB were allocated and freed, which moves glibc's
# thresholds for returning memory to the OS.
FAULT_PROBE = textwrap.dedent("""
    import resource, sys
    import numpy as np
    from sctubes.classical_tests import largest_root_null_sample
    from sctubes.model_core import GroupData, GroupedDataset, fit_models
    from sctubes.sct_engine import ComparisonFamily, simulate_pivot
    from sctubes.sup_solver import CovariateBox

    kernel, preamble = sys.argv[1], sys.argv[2] == "1"
    rng = np.random.default_rng(5)
    k, m = (5, 3) if kernel == "whole" else (3, 2)
    groups = []
    for g in range(k):
        n = 30 + 2 * g
        design = np.column_stack([np.ones(n), rng.uniform(0.0, 10.0, n)])
        groups.append(GroupData(label=chr(65 + g), design=design,
                                response=rng.standard_normal((n, m))))
    fit = fit_models(GroupedDataset(groups=tuple(groups)))
    family = ComparisonFamily.pairwise(k)
    calls = {
        "whole": lambda: simulate_pivot(fit, family, CovariateBox.whole_space(1),
                                        200_000, 1),
        "interval": lambda: simulate_pivot(fit, family, CovariateBox.interval(0.0, 10.0),
                                           1_000_000, 1),
        "roy": lambda: largest_root_null_sample(8, 3, 160, 200_000, 1),
    }
    if preamble:
        for size in (64 << 10, 300 << 10, 3 << 20):
            np.ones(size // 8)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    calls[kernel]()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads Linux minor page-fault counts")
@pytest.mark.parametrize("kernel, budget", [
    ("whole", 5_000), ("interval", 10_000), ("roy", 5_000)])
def test_first_kernel_call_stays_within_its_fault_budget(kernel, budget):
    """Each worker draws and computes every block in one set of buffers,
    so a first call faults in its buffers and its result once instead of
    every block's arrays, whatever ran before it. Kernels: whole space,
    k = 5, m = 3, 2x10^5 replicates; an interval, k = 3, m = 2, 10^6
    replicates; Roy's null sample, d = 8, m = 3, nu = 160, 2x10^5
    replicates. Before buffer reuse, a bare first call faulted about
    21,000, 90,000 and 17,000 times."""
    import sctubes
    root = str(Path(sctubes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": root, "OPENBLAS_NUM_THREADS": "1"}
    counts = [int(subprocess.run([sys.executable, "-c", FAULT_PROBE, kernel, preamble],
                                 capture_output=True, text=True, check=True,
                                 env=env).stdout.split()[-1])
              for preamble in ("0", "1")]
    assert max(counts) < budget, counts


def test_reversed_pair_gives_identical_sample(two_group_fit):
    box = CovariateBox.interval(0.0, 10.0)
    fwd = simulate_pivot(two_group_fit, ComparisonFamily(pairs=[(1, 2)]),
                         box, 300, seed=6)
    rev = simulate_pivot(two_group_fit, ComparisonFamily(pairs=[(2, 1)]),
                         box, 300, seed=6)
    assert np.array_equal(fwd.values, rev.values)


def test_interval_mode_matches_scalar_solver(two_group_fit):
    """The vectorized kernel on an interval must agree with the scalar
    quadratic-root reference."""
    fit = two_group_fit
    fam = ComparisonFamily.pairwise(2)
    low, high = 0.0, 7.5
    seed, r = 13, 16
    sample = simulate_pivot(fit, fam, CovariateBox.interval(low, high), r, seed)

    lw = wishart_factors(fit.m, fit.nu, StreamKey(seed, 0, 0), 8192)[:r]
    u1 = normal_block(fit.p + 1, fit.m, StreamKey(seed, 0, 1), 8192)[:r]
    u2 = normal_block(fit.p + 1, fit.m, StreamKey(seed, 0, 2), 8192)[:r]
    g1 = np.linalg.cholesky(fit.gram_inv[0])
    g2 = np.linalg.cholesky(fit.gram_inv[1])
    d = fit.delta(1, 2)
    vals = []
    for b in range(r):
        mmat = g1 @ u1[b] - g2 @ u2[b]
        v = scipy.linalg.solve_triangular(lw[b], mmat.T, lower=True)
        vals.append(interval_sup_reference(v.T @ v, d, low, high))
    # The paths share draws but not evaluation order, so compare to
    # rounding error rather than bitwise.
    np.testing.assert_allclose(sample.values, np.sort(vals), rtol=1e-12)


def test_box_kernel_reaches_dense_grid_maxima():
    """Each p = 2 box replicate is at least its ratio's dense-grid maximum
    and at most its whole-space eigenvalue."""
    rng = np.random.default_rng(42)
    coef = np.array([[1.0, 0.0], [0.5, 1.0], [-0.2, 0.3]])
    fit = fit_models(make_dataset(rng, (30, 34), (coef, coef)))
    seed, r = 17, 12
    sample = simulate_pivot(fit, ComparisonFamily.pairwise(2),
                            CovariateBox(((0.0, 5.0), (1.0, 4.0))), r, seed)

    lw = wishart_factors(fit.m, fit.nu, StreamKey(seed, 0, 0), 8192)[:r]
    u1 = normal_block(fit.p + 1, fit.m, StreamKey(seed, 0, 1), 8192)[:r]
    u2 = normal_block(fit.p + 1, fit.m, StreamKey(seed, 0, 2), 8192)[:r]
    g1 = np.linalg.cholesky(fit.gram_inv[0])
    g2 = np.linalg.cholesky(fit.gram_inv[1])
    d = fit.delta(1, 2)
    gx, gy = np.meshgrid(np.linspace(0.0, 5.0, 301), np.linspace(1.0, 4.0, 301))
    e = np.stack([np.ones(gx.size), gx.ravel(), gy.ravel()])
    den = np.einsum("it,ij,jt->t", e, d, e)
    grid_max, tops = [], []
    for b in range(r):
        v = scipy.linalg.solve_triangular(lw[b], (g1 @ u1[b] - g2 @ u2[b]).T,
                                          lower=True)
        a = v.T @ v
        grid_max.append((np.einsum("it,ij,jt->t", e, a, e) / den).max())
        tops.append(scipy.linalg.eigh(a, d, eigvals_only=True)[-1])
    assert np.all(sample.values >= np.sort(grid_max) * (1 - 1e-9))
    assert np.all(sample.values <= np.sort(tops) * (1 + 1e-9))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 2, 8])
def test_whiten_matches_a_generic_solve(m, rows):
    """Forward substitution over the block equals a per-replicate solve
    of L Z = U', laid out replicate-last."""
    count = 500
    lw = wishart_factor_block(m, m + 4, StreamKey(31, 0, 0), count)
    u = normal_block(rows, m, StreamKey(31, 0, 1), count)
    out = np.full((m, rows, count), np.nan)
    z = _whiten(lw, u, out, np.full((rows, count), np.nan))
    assert z is out
    for b in range(count):
        ref = np.linalg.solve(lw[..., b], u[b].T)
        np.testing.assert_allclose(z[:, :, b], ref,
                                   rtol=1e-13, atol=1e-13 * np.abs(ref).max())


def block_values(plan, seed, count):
    """Replicates 0 .. count-1 of the first block, in replicate order."""
    got = np.empty(count)
    _tube_block(plan, seed, count)(0, count, got)
    return got


@pytest.mark.parametrize("box", [CovariateBox.whole_space(1),
                                 CovariateBox.interval(1.0, 8.0)],
                         ids=["whole", "interval"])
def test_pairwise_k5_m3_kernel_matches_per_replicate_reference(box):
    """Ten pairs sharing one Wishart draw and five groups' normals: each
    replicate is the largest pair supremum, rebuilt from the same draws
    with a generic solve per pair and an independent supremum."""
    rng = np.random.default_rng(57)
    coef = rng.standard_normal((2, 3))
    fit = fit_models(make_dataset(rng, (12, 14, 16, 18, 20), [coef] * 5))
    assert (fit.k, fit.p, fit.m) == (5, 1, 3)
    fam = ComparisonFamily.pairwise(5)
    seed, count = 19, 40
    got = block_values(_SimPlan(fit, fam, box), seed, count)

    lw = wishart_factors(3, fit.nu, StreamKey(seed, 0, 0), _BLOCK)[:count]
    u = [normal_block(2, 3, StreamKey(seed, 0, g + 1), _BLOCK)[:count]
         for g in range(5)]
    chol = [np.linalg.cholesky(gi) for gi in fit.gram_inv]
    want = np.full(count, -np.inf)
    for i, j in fam.pairs:
        d = fit.delta(i, j)
        for b in range(count):
            v = np.linalg.solve(lw[b], (chol[i - 1] @ u[i - 1][b]
                                        - chol[j - 1] @ u[j - 1][b]).T)
            a = v.T @ v
            if box.is_whole_space:
                val = scipy.linalg.eigh(a, d, eigvals_only=True)[-1]
            else:
                val = interval_sup_reference(a, d, *box.bounds[0])
            want[b] = max(want[b], val)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_whole_space_p2_kernel_matches_per_replicate_reference():
    """Three pairs over the whole space with p = 2, where the one face is
    3 x 3 and needs no eigenvector: each replicate is the largest pair's
    top generalized eigenvalue, rebuilt with a generic solve per pair."""
    rng = np.random.default_rng(58)
    coef = rng.standard_normal((3, 2))
    fit = fit_models(make_dataset(rng, (12, 15, 18), [coef] * 3))
    assert (fit.k, fit.p, fit.m) == (3, 2, 2)
    fam = ComparisonFamily.pairwise(3)
    seed, count = 23, 400
    got = block_values(_SimPlan(fit, fam, CovariateBox.whole_space(2)), seed, count)

    lw = wishart_factors(2, fit.nu, StreamKey(seed, 0, 0), _BLOCK)[:count]
    u = [normal_block(3, 2, StreamKey(seed, 0, g + 1), _BLOCK)[:count]
         for g in range(3)]
    chol = [np.linalg.cholesky(gi) for gi in fit.gram_inv]
    want = np.full(count, -np.inf)
    for i, j in fam.pairs:
        d = fit.delta(i, j)
        for b in range(count):
            v = np.linalg.solve(lw[b], (chol[i - 1] @ u[i - 1][b]
                                        - chol[j - 1] @ u[j - 1][b]).T)
            want[b] = max(want[b],
                          scipy.linalg.eigh(v.T @ v, d, eigvals_only=True)[-1])
    np.testing.assert_allclose(got, want, rtol=1e-12)


# --- distributional oracles ------------------------------------------------

def test_point_box_statistic_follows_scaled_f_law():
    # k=2, m=1, fixed covariate point: nu * T is F(1, nu) distributed.
    fit = univariate_fit()
    nu = fit.nu
    sample = simulate_pivot(fit, ComparisonFamily.pairwise(2),
                            CovariateBox.point(3.0), 100_000, seed=21)
    stat = scipy.stats.kstest(sample.values * nu, scipy.stats.f(1, nu).cdf)
    assert stat.pvalue > 0.01


def test_point_constant_matches_f_identity(two_group_fit):
    fit = two_group_fit
    sample = simulate_pivot(fit, ComparisonFamily.pairwise(2),
                            CovariateBox.point(4.0), 40_000, seed=22)
    res = critical_constant(sample, 0.05)
    exact = hotelling_point_constant(fit.m, fit.nu, 0.05)
    lo, hi = res.order_stat_interval
    assert lo <= exact <= hi


def test_point_constant_is_hotellings_at_small_nu():
    # At m = 2 and nu = 10 the point statistic's law, m/(nu-m+1)
    # F(m, nu-m+1), sits well above (m/nu) F(m, nu), which is exact only
    # for m = 1; at nu = 244 the two differ by 0.4%, too little to see.
    rng = np.random.default_rng(1313)
    coef = np.array([[1.0, 2.0], [0.5, -0.3]])
    fit = fit_models(make_dataset(rng, (7, 7), (coef, coef)))
    assert (fit.m, fit.nu) == (2, 10)
    sample = simulate_pivot(fit, ComparisonFamily.pairwise(2),
                            CovariateBox.point(4.0), 100_000, seed=24)
    lo, hi = critical_constant(sample, 0.05).order_stat_interval
    assert lo <= hotelling_point_constant(2, 10, 0.05) <= hi
    assert (2 / 10) * f_quantile(2, 10, 0.95) < lo


def test_whole_space_m1_reduces_to_scaled_f_quantile():
    fit = univariate_fit()
    sample = simulate_pivot(fit, ComparisonFamily.pairwise(2),
                            CovariateBox.whole_space(1), 100_000, seed=23)
    res = critical_constant(sample, 0.05)
    exact = (fit.p + 1) / fit.nu * f_quantile(fit.p + 1, fit.nu, 0.95)
    lo, hi = res.order_stat_interval
    assert lo <= exact <= hi


# --- monotonicity ----------------------------------------------------------

def test_region_monotonicity_is_elementwise(two_group_fit):
    fit = two_group_fit
    fam = ComparisonFamily.pairwise(2)
    r, seed = 4000, 30
    point = simulate_pivot(fit, fam, CovariateBox.point(3.0), r, seed)
    interval = simulate_pivot(fit, fam, CovariateBox.interval(0.0, 10.0), r, seed)
    whole = simulate_pivot(fit, fam, CovariateBox.whole_space(1), r, seed)
    # Shared draw keys make the orderings hold replicate by replicate,
    # and sorting preserves elementwise dominance.
    assert np.all(point.values <= interval.values + 1e-12)
    assert np.all(interval.values <= whole.values + 1e-12)
    cs = [critical_constant(s, 0.05).c_hat for s in (point, interval, whole)]
    assert cs[0] < cs[1] < cs[2]


def test_box_mode_sits_between_point_and_whole_space():
    rng = np.random.default_rng(41)
    coef = np.array([[1.0, 0.0], [0.5, 1.0], [-0.2, 0.3]])
    data = make_dataset(rng, (30, 34), (coef, coef), x_range=(0.0, 5.0))
    fit = fit_models(data)
    fam = ComparisonFamily.pairwise(2)
    r, seed = 32, 31
    point = simulate_pivot(fit, fam, CovariateBox.point(2.0, 2.0), r, seed)
    box = simulate_pivot(fit, fam,
                         CovariateBox(((0.0, 5.0), (0.0, 5.0))), r, seed)
    whole = simulate_pivot(fit, fam, CovariateBox.whole_space(2), r, seed)
    assert np.all(point.values <= box.values + 1e-10)
    assert np.all(box.values <= whole.values + 1e-10)


def test_family_monotonicity_same_seed(three_group_fit):
    fit = three_group_fit
    box = CovariateBox.interval(0.0, 10.0)
    r, seed = 4000, 32
    sub = simulate_pivot(fit, ComparisonFamily.vs_control(3, 1), box, r, seed)
    sup = simulate_pivot(fit, ComparisonFamily.pairwise(3), box, r, seed)
    assert np.all(sub.values <= sup.values + 1e-12)
    c_sub = critical_constant(sub, 0.05).c_hat
    c_sup = critical_constant(sup, 0.05).c_hat
    assert c_sub <= c_sup


def test_pivotality_across_generating_parameters():
    # Same designs, different true coefficients and error scale: the
    # simulated law may only shift by Monte Carlo noise.
    rng = np.random.default_rng(50)
    coef = np.array([[1.0], [0.5]])
    x1 = rng.uniform(0, 10, size=18)
    x2 = rng.uniform(0, 10, size=22)

    def build(c, noise, data_seed):
        from sctubes.model_core import GroupData, GroupedDataset
        local = np.random.default_rng(data_seed)
        groups = []
        for label, x in (("A", x1), ("B", x2)):
            design = np.column_stack([np.ones(len(x)), x])
            y = design @ c + noise * local.standard_normal((len(x), 1))
            groups.append(GroupData(label=label, design=design, response=y))
        return fit_models(GroupedDataset(groups=tuple(groups)))

    fit_a = build(coef, 1.0, 101)
    fit_b = build(coef * 40.0 - 3.0, 7.0, 202)
    assert design_digest(fit_a) == design_digest(fit_b)
    fam = ComparisonFamily.pairwise(2)
    box = CovariateBox.interval(0.0, 10.0)
    ca = critical_constant(simulate_pivot(fit_a, fam, box, 10_000, seed=11), 0.05)
    cb = critical_constant(simulate_pivot(fit_b, fam, box, 10_000, seed=22), 0.05)
    width = (ca.order_stat_interval[1] - ca.order_stat_interval[0]
             + cb.order_stat_interval[1] - cb.order_stat_interval[0])
    assert abs(ca.c_hat - cb.c_hat) <= 2.0 * width


# --- observed statistics ---------------------------------------------------

def test_equal_coefficients_give_zero_statistic():
    rng = np.random.default_rng(60)
    from sctubes.model_core import GroupData, GroupedDataset
    n = 15
    x = rng.uniform(0, 10, size=n)
    design = np.column_stack([np.ones(n), x])
    y = design @ np.array([[1.0], [2.0]]) + rng.standard_normal((n, 1))
    data = GroupedDataset(groups=(
        GroupData(label="A", design=design, response=y),
        GroupData(label="B", design=design, response=y.copy()),
    ))
    fit = fit_models(data)
    for box in (CovariateBox.whole_space(1), CovariateBox.interval(0.0, 10.0),
                CovariateBox.point(2.0)):
        t, _ = observed_statistic(fit, (1, 2), box)
        assert t == 0.0


def test_point_box_statistic_is_direct_evaluation(two_group_fit):
    fit = two_group_fit
    x0 = 3.7
    t, arg = observed_statistic(fit, (1, 2), CovariateBox.point(x0))
    e = np.array([1.0, x0])
    db = fit.coef_difference(1, 2)
    num = e @ db @ np.linalg.solve(fit.pooled_scatter, db.T @ e)
    den = e @ fit.delta(1, 2) @ e
    assert t == pytest.approx(num / den, rel=1e-12)
    assert arg[0] == x0


@st.composite
def observed_cases(draw):
    """A random fit with p, m in 1..3 and k in {2, 3}, one of its pairs,
    and a finite box inside the covariate range."""
    p, m, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = tuple(int(rng.integers(p + m + 3, 16)) for _ in range(k))
    coefs = tuple(rng.normal(size=(p + 1, m)) for _ in range(k))
    fit = fit_models(make_dataset(rng, sizes, coefs))
    pair = draw(st.sampled_from(ComparisonFamily.pairwise(k).pairs))
    lows = rng.uniform(0.0, 5.0, size=p)
    highs = lows + rng.uniform(0.5, 5.0, size=p)
    return fit, pair, lows, highs


@settings(max_examples=80, deadline=None)
@given(observed_cases())
def test_observed_statistic_matches_independent_oracles(case):
    fit, pair, lows, highs = case
    db = fit.coef_difference(*pair)
    a = db @ scipy.linalg.solve(fit.pooled_scatter, db.T, assume_a="pos")
    d = fit.delta(*pair)

    whole, _ = observed_statistic(fit, pair, CovariateBox.whole_space(fit.p))
    top = scipy.linalg.eigh(a, d, eigvals_only=True)[-1]
    np.testing.assert_allclose(whole, top, rtol=1e-10)

    x = 0.5 * (lows + highs)
    t, arg = observed_statistic(fit, pair, CovariateBox.point(*x))
    np.testing.assert_array_equal(arg, x)
    assert t == pytest.approx(ratio_at(a, d, x), rel=1e-12)

    box = CovariateBox(tuple(zip(lows, highs)))
    t, arg = observed_statistic(fit, pair, box)
    assert np.all((arg >= lows) & (arg <= highs))
    assert ratio_at(a, d, arg) == pytest.approx(t, rel=1e-10)
    assert t <= whole * (1 + 1e-10)
    if fit.p == 1:
        assert t == pytest.approx(
            interval_sup_reference(a, d, lows[0], highs[0]), rel=1e-10)
    elif fit.p == 2:
        axes = [np.linspace(lo, hi, 201) for lo, hi in zip(lows, highs)]
        gx, gy = (g.ravel() for g in np.meshgrid(*axes))
        e = np.vstack([np.ones_like(gx), gx, gy])
        grid = (np.einsum("it,ij,jt->t", e, a, e)
                / np.einsum("it,ij,jt->t", e, d, e))
        assert t >= grid.max() * (1 - 1e-12)


def test_planted_offset_grows_the_statistic():
    stats = []
    for delta in (0.5, 1.0, 2.0, 4.0, 8.0):
        fit = univariate_fit(seed=7, offset=delta)
        t, _ = observed_statistic(fit, (1, 2), CovariateBox.interval(0.0, 10.0))
        stats.append(t)
    assert all(a < b for a, b in zip(stats, stats[1:]))
    assert stats[-1] > 20 * stats[0]


def test_degenerate_scatter_is_refused():
    rng = np.random.default_rng(61)
    coef = np.array([[1.0], [2.0]])
    data = make_dataset(rng, (8, 9), (coef, coef), noise=0.0)
    fit = fit_models(data)
    with pytest.raises(DegenerateScatter):
        observed_statistic(fit, (1, 2), CovariateBox.whole_space(1))
    with pytest.raises(DegenerateScatter):
        simulate_pivot(fit, ComparisonFamily.pairwise(2),
                       CovariateBox.whole_space(1), 100, seed=1)


# --- p-values and duality --------------------------------------------------

def test_p_value_extremes():
    from sctubes.model_core import GroupData, GroupedDataset

    def two_groups(shift):
        local = np.random.default_rng(63)
        n = 14
        x = local.uniform(0, 10, size=n)
        design = np.column_stack([np.ones(n), x])
        y = design @ np.array([[1.0], [2.0]]) + local.standard_normal((n, 1))
        groups = (GroupData(label="A", design=design, response=y),
                  GroupData(label="B", design=design, response=y + shift))
        return fit_models(GroupedDataset(groups=groups))

    identical = two_groups(0.0)  # both groups hold the very same data
    separated = two_groups(1e6)
    fam = ComparisonFamily.pairwise(2)
    box = CovariateBox.interval(0.0, 10.0)
    sample = simulate_pivot(identical, fam, box, 2000, seed=64)

    (same,) = pair_comparisons(identical, sample)
    assert same.p_value == 1.0  # statistic is exactly zero, every replicate exceeds it
    (far,) = pair_comparisons(separated, sample)
    assert far.p_value == 0.0


def test_rejection_duality_is_exact():
    fam = ComparisonFamily.pairwise(2)
    box = CovariateBox.interval(0.0, 10.0)
    alpha = 0.1
    rng = np.random.default_rng(65)
    for trial in range(30):
        fit = univariate_fit(seed=300 + trial,
                             offset=float(rng.uniform(0.0, 0.8)))
        sample = simulate_pivot(fit, fam, box, 2000, seed=trial)
        c_hat = critical_constant(sample, alpha).c_hat
        pvals = {pc.pair: pc.p_value
                 for pc in pair_comparisons(fit, sample)}
        for pair in fam.pairs:
            t, _ = observed_statistic(fit, pair, box)
            assert (pvals[pair] <= alpha) == (t >= c_hat)


def test_meta_mismatch_detection(two_group_fit):
    fit = two_group_fit
    fam = ComparisonFamily.pairwise(2)
    box = CovariateBox.interval(0.0, 10.0)
    sample = simulate_pivot(fit, fam, box, 200, seed=70)
    other = univariate_fit()
    with pytest.raises(MetaMismatch):
        pair_comparisons(other, sample)


def test_pair_comparisons_refuses_a_sample_from_another_stream_version(two_group_fit):
    fit = two_group_fit
    fam = ComparisonFamily.pairwise(2)
    box = CovariateBox.interval(0.0, 10.0)
    sample = simulate_pivot(fit, fam, box, 200, seed=70)
    assert sample.stream_version == STREAM_VERSION
    old = dataclasses.replace(sample, stream_version=STREAM_VERSION - 1)
    with pytest.raises(MetaMismatch, match="stream version"):
        pair_comparisons(fit, old)


def test_misuse_raises_invalid_argument(two_group_fit):
    # A box of the wrong dimension or no workers is a usage error, still
    # a ValueError for library callers.
    fit = two_group_fit
    fam = ComparisonFamily.pairwise(2)
    plane = CovariateBox(((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(InvalidArgument):
        simulate_pivot(fit, fam, plane, 200, seed=1)
    with pytest.raises(InvalidArgument):
        observed_statistic(fit, (1, 2), plane)
    with pytest.raises(InvalidArgument):
        simulate_pivot(fit, fam, CovariateBox.whole_space(1), 200, seed=1, workers=0)
    assert issubclass(InvalidArgument, ValueError)


# --- calibration experiments -----------------------------------------------

def test_null_rejection_rate_matches_alpha():
    fam = ComparisonFamily.pairwise(2)
    box = CovariateBox.whole_space(1)
    rejects = 0
    trials = 1000
    for trial in range(trials):
        fit = univariate_fit(seed=1000 + trial, sizes=(12, 13))
        sample = simulate_pivot(fit, fam, box, 4000, seed=trial)
        c_hat = critical_constant(sample, 0.05).c_hat
        t, _ = observed_statistic(fit, (1, 2), box)
        rejects += t >= c_hat
    rate = rejects / trials
    assert 0.03 <= rate <= 0.07


def test_simultaneous_nulls_rarely_reject_anywhere():
    fam = ComparisonFamily.pairwise(3)
    box = CovariateBox.whole_space(1)
    coef = np.array([[1.0], [0.5]])
    all_clear = 0
    trials = 1000
    for trial in range(trials):
        rng = np.random.default_rng(5000 + trial)
        data = make_dataset(rng, (11, 12, 13), (coef, coef, coef))
        fit = fit_models(data)
        sample = simulate_pivot(fit, fam, box, 2000, seed=trial)
        c_hat = critical_constant(sample, 0.05).c_hat
        worst = max(observed_statistic(fit, pair, box)[0] for pair in fam.pairs)
        all_clear += worst < c_hat
    assert all_clear / trials >= 0.93


def test_compare_report_is_complete(three_group_fit):
    fit = three_group_fit
    fam = ComparisonFamily.vs_control(3, 1)
    box = CovariateBox.interval(0.0, 10.0)
    report = compare(fit, fam, box, alpha=0.05, r=2000, seed=80)
    assert report.labels == ("A", "B", "C")
    assert report.nu == fit.nu
    assert len(report.pairs) == 2
    for pc in report.pairs:
        assert pc.pair in fam.pairs
        assert pc.statistic >= 0.0
        assert 0.0 <= pc.p_value <= 1.0
        assert pc.reject == (pc.statistic >= report.critical.c_hat)
        assert pc.significance_regions is not None
        assert len(pc.significance_regions) == fit.m
    lo, hi = report.critical.order_stat_interval
    assert lo <= report.critical.c_hat <= hi

    # Without a constant the same record carries no decision or regions.
    sample = simulate_pivot(fit, fam, box, 2000, seed=80)
    bare = pair_comparisons(fit, sample)
    for pc, full in zip(bare, report.pairs, strict=True):
        assert (pc.pair, pc.statistic, pc.p_value) \
            == (full.pair, full.statistic, full.p_value)
        np.testing.assert_array_equal(pc.argmax, full.argmax)
        assert pc.reject is None and pc.significance_regions is None

"""Property tests of contracts that hold for every input.

Examples are drawn with ``derandomize=True``, so every run checks the
same cases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from sctubes.classical_tests import (
    _EXACT_ROOTS,
    _LargestRootLaw,
    largest_root_null_sample,
    roy_k_sample,
)
from sctubes.errors import MetaMismatch
from sctubes.model_core import GroupData, GroupedDataset, fit_models
from sctubes.sct_engine import (
    _BLOCK,
    ComparisonFamily,
    _SampleLaw,
    observed_statistic,
    pair_comparisons,
    simulate_pivot,
)
from sctubes.sup_solver import CovariateBox, FacePlan

REGIONS = ("point", "interval", "box", "whole")


def region(kind: str, p: int, rng) -> CovariateBox:
    """A point, a box with one free coordinate (an interval when p = 1),
    a box with every coordinate free, or the whole space."""
    if kind == "whole":
        return CovariateBox.whole_space(p)
    lows = rng.uniform(-5.0, 5.0, size=p)
    widths = rng.uniform(0.1, 10.0, size=p)
    if kind == "point":
        widths[:] = 0.0
    elif kind == "interval":
        widths[1:] = 0.0
    return CovariateBox(tuple(zip(lows, lows + widths)))


def batched_sup(plan: FacePlan, factors: np.ndarray) -> np.ndarray:
    """``FacePlan.sup`` of a stack, from a running maximum of -inf, in a
    scratch cache that holds NaN beforehand, as a reused buffer may: a
    first call fills the cache, which is then overwritten with NaN."""
    cache, out = {}, np.full(factors.shape[2], -np.inf)
    plan.sup(factors, cache, out)
    for buf in cache.values():
        buf.fill(np.nan)
    out.fill(-np.inf)
    plan.sup(factors, cache, out)
    return out


@settings(derandomize=True, max_examples=150, deadline=None)
@given(p=st.integers(1, 3), m=st.integers(1, 3), kind=st.sampled_from(REGIONS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_sup_equals_one_at_a_time(p, m, kind, seed):
    """``FacePlan.sup`` over a stack agrees with ``sup_with_argmax`` on
    each numerator factor alone. The tolerance scales with the
    whole-space sup, since on a point box a numerator can nearly vanish
    and leave only rounding. A one-column ``sup`` of the same factor
    runs the same closed forms, so it equals ``sup_with_argmax``'s value
    exactly."""
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((p + 1, p + 1))
    d = half @ half.T + 0.1 * np.eye(p + 1)
    factors = rng.standard_normal((m, p + 1, 32))
    plan = FacePlan(d, region(kind, p, rng))
    batched = batched_sup(plan, factors)
    scale = batched_sup(FacePlan(d, CovariateBox.whole_space(p)), factors)
    for b in range(factors.shape[2]):
        single, _ = plan.sup_with_argmax(factors[:, :, b])
        assert abs(batched[b] - single) <= 1e-12 * scale[b]
        assert batched_sup(plan, factors[:, :, b:b + 1])[0] == single


def sub_multiset(small: np.ndarray, big: np.ndarray, rtol: float = 1e-13) -> bool:
    """Every value of ``small`` matches a value of ``big`` of its own, to
    ``rtol``. A replicate's value can round differently in a block of
    another length (BLAS picks its kernel by the column count), so the
    match is to rounding, not exact; a value taken from the wrong
    replicate or block would be far off or matched twice."""
    idx = np.clip(np.searchsorted(big, small), 1, big.size - 1)
    nearest = np.where(np.abs(big[idx - 1] - small) <= np.abs(big[idx] - small),
                       idx - 1, idx)
    close = np.abs(big[nearest] - small) <= rtol * np.abs(small)
    return bool(close.all()) and np.unique(nearest).size == small.size


@settings(derandomize=True, max_examples=40, deadline=None)
@given(p=st.integers(1, 3), m=st.integers(1, 3), k=st.integers(2, 3),
       kind=st.sampled_from(("point", "box", "whole")),
       r=st.integers(1, _BLOCK - 1), extra=st.integers(1, 2000),
       seed=st.integers(0, 2 ** 32 - 1))
# Boxes with p >= 2 run the batched eigendecomposition; name two.
@example(p=2, m=3, k=3, kind="box", r=5000, extra=7, seed=1)
@example(p=3, m=2, k=2, kind="box", r=123, extra=1500, seed=2)
def test_tube_sample_is_invariant_to_workers_and_a_prefix(p, m, k, kind, r, extra, seed):
    """Worker threads reuse their own buffers block after block: one and
    two workers give the same sample, and a run of r replicates is a
    sub-multiset of a run spanning two blocks, the second one short."""
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((p + 1, m))
    fit = fit_models(make_dataset(rng, [p + 5 + g for g in range(k)], [coef] * k))
    family, box = ComparisonFamily.pairwise(k), region(kind, p, rng)
    longer = _BLOCK + extra
    one = simulate_pivot(fit, family, box, longer, seed, workers=1).values
    two = simulate_pivot(fit, family, box, longer, seed, workers=2).values
    assert np.array_equal(one, two)
    assert sub_multiset(simulate_pivot(fit, family, box, r, seed).values, one)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(d=st.integers(1, 5), m=st.integers(1, 3), extra_dof=st.integers(0, 30),
       r=st.integers(1, _BLOCK - 1), extra=st.integers(1, 2000),
       seed=st.integers(0, 2 ** 32 - 1))
def test_roy_null_sample_is_invariant_to_workers_and_a_prefix(d, m, extra_dof, r,
                                                              extra, seed):
    """The same two properties for the largest-root null sampler, through
    both of its draws: a second Bartlett factor (d >= m) and a normal
    matrix (d < m)."""
    nu, longer = m + extra_dof, _BLOCK + extra
    one = largest_root_null_sample(d, m, nu, longer, seed, workers=1)
    two = largest_root_null_sample(d, m, nu, longer, seed, workers=2)
    assert np.array_equal(one, two)
    assert sub_multiset(largest_root_null_sample(d, m, nu, r, seed), one)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(d=st.integers(1, 12), m=st.integers(1, _EXACT_ROOTS), extra_dof=st.integers(0, 200),
       alpha=st.sampled_from([0.2, 0.05, 0.01, 0.001]),
       offset=st.floats(-1e-12, 1e-12))
@example(d=4, m=2, extra_dof=58, alpha=0.05, offset=0.0)
def test_exact_roy_p_value_is_dual_to_its_critical_value(d, m, extra_dof, alpha, offset):
    """On the exact law, p <= alpha exactly when the statistic reaches the
    critical value, even within 1e-12 of it, where the CDF's rounding
    alone could not decide."""
    law = _LargestRootLaw(d, m, m + extra_dof)
    critical = law.critical(alpha).c_hat
    statistic = critical * (1.0 + offset)
    got, p_value = law.decide(statistic, alpha)
    assert got == critical
    assert (p_value <= alpha) == (statistic >= critical)
    assert p_value == pytest.approx(alpha, abs=1e-9)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(d=st.integers(1, 12), m=st.integers(1, 4), extra_dof=st.integers(0, 60),
       alpha=st.sampled_from([0.2, 0.05, 0.01]), extra=st.integers(0, 3000),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sampled_roy_p_value_is_dual_to_its_critical_value(d, m, extra_dof, alpha,
                                                           extra, seed):
    """On the sample law of Roy's null sampler, p <= alpha exactly when
    the statistic reaches the critical value, for statistics on and
    between the replicates around it, and the duality rule leaves the
    sample's own p-value unchanged."""
    r = int(np.ceil(10 / alpha)) + extra
    law = _SampleLaw(largest_root_null_sample(d, m, m + extra_dof, r, seed), seed)
    critical = law.critical(alpha).c_hat
    near = law.values[max(law.critical(alpha).rank - 3, 0):][:5]
    for statistic in (*near, *((near[1:] + near[:-1]) / 2), np.nextafter(critical, 0)):
        got, p_value = law.decide(statistic, alpha)
        assert got == critical
        assert p_value == law.p_value(statistic)
        assert (p_value <= alpha) == (statistic >= critical)


FAMILIES = ("pairwise", "successive", "control")


def family_of(kind: str, k: int) -> ComparisonFamily:
    if kind == "control":
        return ComparisonFamily.vs_control(k, k)
    return getattr(ComparisonFamily, kind)(k)


def shifted_data(rng, k: int, p: int, m: int) -> GroupedDataset:
    """Groups that differ by random shifts, so that some pairs reject
    and some do not."""
    coef = rng.standard_normal((p + 1, m))
    coefs = [coef + rng.uniform(0.0, 1.5) * rng.standard_normal((p + 1, m))
             for _ in range(k)]
    return make_dataset(rng, [p + 6 + 2 * g for g in range(k)], coefs)


def shifted_fit(rng, k: int, p: int, m: int):
    return fit_models(shifted_data(rng, k, p, m))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=st.integers(2, 4), p=st.integers(1, 3), m=st.integers(1, 3),
       kind=st.sampled_from(("point", "interval", "whole")),
       family=st.sampled_from(FAMILIES), alpha=st.sampled_from((0.05, 0.1, 0.2)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_p_value_and_constant_are_dual(k, p, m, kind, family, alpha, seed):
    """For every pair, p <= alpha exactly when t >= c_hat, and the pair's
    decision says the same."""
    rng = np.random.default_rng(seed)
    fit = shifted_fit(rng, k, p, m)
    sample = simulate_pivot(fit, family_of(family, k), region(kind, p, rng), 400, seed)
    c_hat = sample.critical(alpha).c_hat
    for pc in pair_comparisons(fit, sample, c_hat):
        assert (pc.p_value <= alpha) == (pc.statistic >= c_hat) == pc.reject
        assert sample.decide(pc.statistic, alpha) == (c_hat, pc.p_value)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=st.integers(2, 4), p=st.integers(1, 3), m=st.integers(1, 3),
       kind=st.sampled_from(REGIONS), seed=st.integers(0, 2 ** 32 - 1))
def test_observed_statistic_ignores_pair_order(k, p, m, kind, seed):
    """(i, j) and (j, i) give the same statistic and the same argmax: the
    numerator factor only changes sign."""
    rng = np.random.default_rng(seed)
    fit = shifted_fit(rng, k, p, m)
    box = region(kind, p, rng)
    for i, j in ComparisonFamily.pairwise(k).pairs:
        t, x = observed_statistic(fit, (i, j), box)
        t_rev, x_rev = observed_statistic(fit, (j, i), box)
        assert t == t_rev
        assert (x is None and x_rev is None) or np.array_equal(x, x_rev)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(k=st.integers(2, 3), p=st.integers(1, 2), m=st.integers(1, 3),
       family=st.sampled_from(FAMILIES), seed=st.integers(0, 2 ** 32 - 1))
def test_a_sample_serves_exactly_the_fits_with_its_designs(k, p, m, family, seed):
    """The pivotal law never sees the responses: a sample serves a fit
    with the same designs and other responses, over the sample's own
    family and box. A fit with any design entry changed is refused."""
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((p + 1, m))
    data = make_dataset(rng, [p + 6 + g for g in range(k)], [coef] * k)
    fam, box = family_of(family, k), region("box", p, rng)
    sample = simulate_pivot(fit_models(data), fam, box, 50, seed)

    other = GroupedDataset(tuple(
        GroupData(g.label, g.design, rng.standard_normal(g.response.shape))
        for g in data.groups))
    pairs = pair_comparisons(fit_models(other), sample)
    assert tuple(pc.pair for pc in pairs) == fam.pairs

    g, row = int(rng.integers(k)), int(rng.integers(data.groups[0].n))
    groups = list(data.groups)
    design = groups[g].design.copy()
    design[row, 1 + int(rng.integers(p))] += 0.5
    groups[g] = GroupData(groups[g].label, design, groups[g].response)
    with pytest.raises(MetaMismatch):
        pair_comparisons(fit_models(GroupedDataset(tuple(groups))), sample)


def sub_box(box: CovariateBox, rng) -> CovariateBox:
    """A random box inside ``box``: each coordinate of a finite box
    shrinks, some to a point; the whole space gives a random finite
    region."""
    if box.is_whole_space:
        return region(str(rng.choice(("point", "interval", "box"))), box.p, rng)
    bounds = []
    for lo, hi in box.bounds:
        a, b = np.sort(rng.uniform(lo, hi, size=2))
        bounds.append((a, a) if rng.random() < 0.3 else (a, b))
    return CovariateBox(tuple(bounds))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(k=st.integers(2, 4), p=st.integers(1, 3), m=st.integers(1, 3),
       kind=st.sampled_from(("interval", "box", "whole")),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_sub_box_gives_a_sample_no_larger(k, p, m, kind, seed):
    """Under one seed each replicate's supremum over a sub-box is at most
    its supremum over the box, so the sorted samples are ordered
    elementwise. The two boxes' faces are reduced apart, so the order
    holds to rounding."""
    rng = np.random.default_rng(seed)
    fit, family = shifted_fit(rng, k, p, m), ComparisonFamily.pairwise(k)
    box = region(kind, p, rng)
    small = simulate_pivot(fit, family, sub_box(box, rng), 300, seed).values
    big = simulate_pivot(fit, family, box, 300, seed).values
    assert np.all(small <= big * (1.0 + 1e-12))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(k=st.integers(2, 4), p=st.integers(1, 3), m=st.integers(1, 3),
       kind=st.sampled_from(REGIONS), seed=st.integers(0, 2 ** 32 - 1))
def test_a_subfamily_gives_a_sample_no_larger(k, p, m, kind, seed):
    """Under one seed a pair's value in a replicate does not depend on
    the other pairs of the family, so dropping pairs can only lower each
    replicate's maximum, and the sorted samples are ordered elementwise,
    exactly."""
    rng = np.random.default_rng(seed)
    fit, box = shifted_fit(rng, k, p, m), region(kind, p, rng)
    family = ComparisonFamily.pairwise(k)
    keep = rng.random(len(family.pairs)) < 0.5
    keep[rng.integers(len(keep))] = True
    subfamily = ComparisonFamily(pairs=[ij for ij, kept in zip(family.pairs, keep) if kept])
    small = simulate_pivot(fit, subfamily, box, 300, seed).values
    big = simulate_pivot(fit, family, box, 300, seed).values
    assert np.all(small <= big)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(k=st.integers(2, 4), p=st.integers(1, 3), m=st.integers(1, 3),
       kind=st.sampled_from(REGIONS), seed=st.integers(0, 2 ** 32 - 1))
def test_observed_statistics_ignore_group_order(k, p, m, kind, seed):
    """Listing the groups in another order leaves every pair's statistic
    and argmax the same, once the pair's indices follow its groups. The
    pooled scatter is summed in the new order, so agreement is to
    rounding."""
    rng = np.random.default_rng(seed)
    data, box = shifted_data(rng, k, p, m), region(kind, p, rng)
    order = rng.permutation(k)
    moved = fit_models(GroupedDataset(tuple(data.groups[g] for g in order)))
    position = np.argsort(order) + 1
    fit = fit_models(data)
    for i, j in ComparisonFamily.pairwise(k).pairs:
        t, x = observed_statistic(fit, (i, j), box)
        t_moved, x_moved = observed_statistic(
            moved, (int(position[i - 1]), int(position[j - 1])), box)
        assert t_moved == pytest.approx(t, rel=1e-10)
        assert (x is None and x_moved is None) or np.allclose(x_moved, x,
                                                              rtol=1e-7, atol=1e-7)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(p=st.integers(1, 3), m=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_roy_statistic_is_the_whole_space_tube_statistic_for_two_groups(p, m, seed):
    """For two groups the largest root of the hypothesis scatter against
    the pooled scatter is the whole-space supremum of the tube
    statistic."""
    rng = np.random.default_rng(seed)
    fit = shifted_fit(rng, 2, p, m)
    t, _ = observed_statistic(fit, (1, 2), CovariateBox.whole_space(p))
    assert roy_k_sample(fit, 0.05, 200, seed).statistic == pytest.approx(t, rel=1e-12)

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
from sctubes.classical_tests import largest_root_null_sample
from sctubes.errors import MetaMismatch
from sctubes.model_core import GroupData, GroupedDataset, fit_models
from sctubes.sct_engine import (
    _BLOCK,
    ComparisonFamily,
    critical_constant,
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
    workspace that holds NaN beforehand, as a reused buffer may."""
    m, _, count = factors.shape
    work = tuple(np.full_like(buf, np.nan) for buf in plan.workspace(m, count))
    out = np.full(count, -np.inf)
    plan.sup(factors, work, out)
    return out


@settings(derandomize=True, max_examples=150, deadline=None)
@given(p=st.integers(1, 3), m=st.integers(1, 3), kind=st.sampled_from(REGIONS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_sup_equals_one_at_a_time(p, m, kind, seed):
    """``FacePlan.sup`` over a stack agrees with ``sup_with_argmax`` on
    each numerator factor alone. The tolerance scales with the
    whole-space sup, since on a point box a numerator can nearly vanish
    and leave only rounding."""
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


FAMILIES = ("pairwise", "successive", "control")


def family_of(kind: str, k: int) -> ComparisonFamily:
    if kind == "control":
        return ComparisonFamily.vs_control(k, k)
    return getattr(ComparisonFamily, kind)(k)


def shifted_fit(rng, k: int, p: int, m: int):
    """A fit whose groups differ by random shifts, so that some pairs
    reject and some do not."""
    coef = rng.standard_normal((p + 1, m))
    coefs = [coef + rng.uniform(0.0, 1.5) * rng.standard_normal((p + 1, m))
             for _ in range(k)]
    return fit_models(make_dataset(rng, [p + 6 + 2 * g for g in range(k)], coefs))


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
    c_hat = critical_constant(sample, alpha).c_hat
    for pc in pair_comparisons(fit, sample, c_hat):
        assert (pc.p_value <= alpha) == (pc.statistic >= c_hat) == pc.reject


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

"""The largest-root test of equal coefficient matrices.

One largest-root test of equal coefficient matrices across k >= 2
groups, built on the restricted (common-coefficient) fit. Under the
null its statistic is distributed as the largest eigenvalue of
Z W^{-1} Z' with Z a d x m standard normal matrix, d = (k-1)(p+1)
(p+1 for two groups), and W an identity-scale Wishart with the pooled
degrees of freedom, regardless of the designs. For d >= m the null
sampler draws Z'Z as a second Wishart factor instead of Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NotTwoGroups
from .model_core import FittedModels
from .rand_engine import StreamKey, normal_block, wishart_factor_block
from .sct_engine import _BLOCK, _replicates, _whiten, tail_p_value, tail_rank
from .sup_solver import _scratch, top_eigenvalue


@dataclass(frozen=True, eq=False)
class RoyResult:
    """A largest-root test: statistic, simulated critical value, p-value."""

    statistic: float
    critical: float
    p_value: float
    alpha: float
    null_reps: int
    seed: int
    null_dimension: int


def _lam_max_gram(z: np.ndarray, cache: dict) -> np.ndarray:
    """Largest eigenvalue of Z'Z (equivalently ZZ') for each replicate of
    a (rows, cols, count) stack.

    Forms the smaller-side Gram matrix in the scratch cache's ``"gram"``
    buffer, whose nonzero spectrum matches the other side's, and takes
    its top eigenvalue with ``sup_solver.top_eigenvalue`` (closed forms
    up to size 3, computed in the same cache).
    """
    rows, cols, count = z.shape
    side = min(rows, cols)
    out = _scratch(cache, "gram", side, side, count)
    if rows <= cols:
        return top_eigenvalue(np.einsum("iab,jab->ijb", z, z, out=out), cache)
    return top_eigenvalue(np.einsum("aib,ajb->ijb", z, z, out=out), cache)


def _roy_block(d: int, m: int, nu: int, seed: int, start: int, count: int,
               out: np.ndarray, cache: dict) -> None:
    """Write the null replicates start .. start+count-1 of
    ``largest_root_null_sample`` into ``out``, with every per-block
    array taken from the worker's scratch ``cache``."""
    lw = wishart_factor_block(m, nu, StreamKey(seed, start, 0), _BLOCK,
                              out=_scratch(cache, "lw", m, m, _BLOCK))
    key = StreamKey(seed, start, 1)
    if d >= m:
        # B' stacked replicate-first, as _whiten reads U: the copy it
        # starts from is then B itself.
        u = wishart_factor_block(m, d, key, _BLOCK,
                                 out=_scratch(cache, "draw", m, m, _BLOCK))
        u = u[..., :count].transpose(2, 1, 0)
    else:
        u = normal_block(d, m, key, _BLOCK,
                         out=_scratch(cache, "draw", _BLOCK, d, m))[:count]
    out[:] = _lam_max_gram(_whiten(lw[..., :count], u, cache), cache)


def largest_root_null_sample(d: int, m: int, nu: int, r: int, seed: int,
                             workers: int = 1) -> np.ndarray:
    """Sorted replicates of the largest eigenvalue of Z W^{-1} Z'.

    Z is d x m standard normal and W an m x m identity-scale Wishart
    with nu degrees of freedom (substream 0). The statistic sees Z only
    through Z'Z, which for d >= m is Wishart with d degrees of freedom;
    so substream 1 then carries a second Bartlett factor B, Z'Z = B B',
    and the replicate is the top eigenvalue of B' W^{-1} B. For d < m it
    carries Z itself. Draws, blocks, threads, scratch caches and
    whitening are the tube engine's: fixed blocks keyed by their first
    replicate index, full blocks always drawn into one worker's reused
    buffers, and B (or Z') whitened by W's Bartlett factor L, since
    B' W^{-1} B = (L^{-1}B)'(L^{-1}B). Both Bartlett factors come from
    ``wishart_factor_block`` replicate-last, so a short block whitens
    the view of its leading replicates. ``workers`` cannot change the
    result.
    """
    return _replicates(r, workers, partial(_roy_block, d, m, nu, seed))


def roy_k_sample(fit: FittedModels, alpha: float, r: int, seed: int,
                 workers: int = 1) -> RoyResult:
    """Largest-root test that all k >= 2 coefficient matrices coincide.

    The hypothesis scatter comes from the restricted common-coefficient
    fit, which only needs the per-group cross-products and estimates
    already in ``fit``; the null dimension is (k-1)(p+1). For k = 2 the
    statistic is the top eigenvalue of the coefficient difference
    standardized by the pooled scatter and the summed cross-product
    inverses, the whole-space supremum of the tube statistic, so this
    test and an unrestricted two-group tube agree.
    """
    if fit.k < 2:
        raise NotTwoGroups(f"need at least 2 groups, got {fit.k}")
    lfac = fit.require_scatter()
    rank = tail_rank(r, alpha)

    # The common fit is solved as a shift from group 1's estimate, so the
    # deviations carry no rounding from a large common level, and equal
    # estimates give exactly zero.
    ref = fit.bhat[0]
    gram_sum = np.zeros_like(fit.gram[0])
    rhs = np.zeros_like(ref)
    for g, b in zip(fit.gram, fit.bhat):
        gram_sum += g
        rhs += g @ (b - ref)
    shift = np.linalg.solve(gram_sum, rhs)

    hmat = np.zeros((fit.m, fit.m))
    for g, b in zip(fit.gram, fit.bhat):
        diff = b - ref - shift
        hmat += diff.T @ g @ diff
    hmat = 0.5 * (hmat + hmat.T)

    # S^{-1} H shares its spectrum with L^{-1} H L^{-T}, S = L L'.
    half = np.linalg.solve(lfac, hmat)
    w = np.linalg.eigvalsh(np.linalg.solve(lfac, half.T))
    statistic = max(float(w[-1]), 0.0)

    d = (fit.k - 1) * (fit.p + 1)
    null = largest_root_null_sample(d, fit.m, fit.nu, r, seed, workers=workers)
    return RoyResult(statistic=statistic, critical=float(null[rank - 1]),
                     p_value=tail_p_value(null, statistic), alpha=alpha,
                     null_reps=r, seed=seed, null_dimension=d)

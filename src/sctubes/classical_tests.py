"""Largest-root tests and F-based pointwise constants.

Two procedures share a simulated null: the two-sample largest-root
test of equal coefficient matrices, and its k-sample analogue built on
the restricted (common-coefficient) fit. Under the null both statistics
are distributed as the largest eigenvalue of Z W^{-1} Z' with Z a
d x m standard normal matrix (d = p+1 for two samples, (k-1)(p+1) for
k samples) and W an identity-scale Wishart with the pooled degrees of
freedom, regardless of the designs.

The F quantile comes from ``scipy.special.fdtri``, the inverse of the
F distribution function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import fdtri

from .errors import NotTwoGroups, TooFewReplicates
from .model_core import FittedModels
from .rand_engine import StreamKey, normal_block, wishart_factor_block
from .sct_engine import _BLOCK, _whiten, quantile_rank
from .sup_solver import top_eigenvalue


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


def _lam_max_gram(z: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of Z'Z (equivalently ZZ') for each replicate of
    a (rows, cols, count) stack.

    Forms the smaller-side Gram matrix, whose nonzero spectrum matches
    the other side's, and takes its top eigenvalue with
    ``sup_solver.top_eigenvalue`` (closed forms up to size 3).
    """
    rows, cols, _ = z.shape
    if rows <= cols:
        return top_eigenvalue(np.einsum("iab,jab->ijb", z, z))
    return top_eigenvalue(np.einsum("aib,ajb->ijb", z, z))


def largest_root_null_sample(d: int, m: int, nu: int, r: int,
                             seed: int) -> np.ndarray:
    """Sorted replicates of the largest eigenvalue of Z W^{-1} Z'.

    Z is d x m standard normal (substream 1), W an m x m identity-scale
    Wishart with nu degrees of freedom (substream 0). Draws, block size
    and whitening are the tube engine's: fixed blocks keyed by their
    first replicate index, full blocks always drawn, and Z whitened by
    W's Bartlett factor L, since Z W^{-1} Z' = (L^{-1}Z')'(L^{-1}Z').
    """
    if r < 1:
        raise TooFewReplicates(f"need at least one replicate, got {r}")
    out = np.empty(r)
    for pos in range(0, r, _BLOCK):
        count = min(_BLOCK, r - pos)
        lw = wishart_factor_block(m, nu, StreamKey(seed, pos, 0), _BLOCK)[:count]
        z = normal_block(d, m, StreamKey(seed, pos, 1), _BLOCK)[:count]
        out[pos:pos + count] = _lam_max_gram(_whiten(lw, z))
    out.sort()
    return out


def _finish(statistic: float, null_sample: np.ndarray, alpha: float,
            r: int, seed: int, d: int) -> RoyResult:
    rank = quantile_rank(r, alpha)
    if alpha * r < 10.0:
        raise TooFewReplicates(
            f"alpha * r = {alpha * r:.3g} < 10; increase replicates")
    critical = float(null_sample[rank - 1])
    idx = int(np.searchsorted(null_sample, statistic, side="right"))
    return RoyResult(statistic=statistic, critical=critical,
                     p_value=(r - idx) / r, alpha=alpha, null_reps=r,
                     seed=seed, null_dimension=d)


def roy_two_sample(fit: FittedModels, alpha: float, r: int,
                   seed: int) -> RoyResult:
    """Largest-root test of equal coefficient matrices across two groups.

    The statistic is the top eigenvalue of the coefficient difference
    standardized by the pooled scatter and the summed cross-product
    inverses; it equals the whole-space supremum of the tube statistic,
    so this test and an unrestricted two-group tube agree.
    """
    if fit.k != 2:
        raise NotTwoGroups(f"two-sample test needs exactly 2 groups, got {fit.k}")
    lfac = fit.require_scatter()
    db = fit.coef_difference(1, 2)
    v = scipy.linalg.solve_triangular(lfac, db.T, lower=True)
    numer = v.T @ v
    w = scipy.linalg.eigh(numer, fit.delta(1, 2), eigvals_only=True)
    statistic = max(float(w[-1]), 0.0)

    null = largest_root_null_sample(fit.p + 1, fit.m, fit.nu, r, seed)
    return _finish(statistic, null, alpha, r, seed, fit.p + 1)


def roy_k_sample(fit: FittedModels, alpha: float, r: int,
                 seed: int) -> RoyResult:
    """Largest-root test that all k coefficient matrices coincide.

    The hypothesis scatter comes from the restricted common-coefficient
    fit, which only needs the per-group cross-products and estimates
    already in ``fit``; the null dimension is (k-1)(p+1).
    """
    if fit.k < 2:
        raise NotTwoGroups(f"need at least 2 groups, got {fit.k}")
    fit.require_scatter()

    gram_sum = np.zeros_like(fit.gram[0])
    xty_sum = np.zeros_like(fit.bhat[0])
    for g, b in zip(fit.gram, fit.bhat):
        gram_sum += g
        xty_sum += g @ b
    b_common = np.linalg.solve(gram_sum, xty_sum)

    hmat = np.zeros((fit.m, fit.m))
    for g, b in zip(fit.gram, fit.bhat):
        diff = b - b_common
        hmat += diff.T @ g @ diff
    hmat = 0.5 * (hmat + hmat.T)

    # eigh(H, S) returns eigenvalues of S^{-1} H, which shares its
    # spectrum with H S^{-1}.
    w = scipy.linalg.eigh(hmat, fit.pooled_scatter, eigvals_only=True)
    statistic = max(float(w[-1]), 0.0)

    d = (fit.k - 1) * (fit.p + 1)
    null = largest_root_null_sample(d, fit.m, fit.nu, r, seed)
    return _finish(statistic, null, alpha, r, seed, d)


def f_quantile(d1: int, d2: int, prob: float) -> float:
    """Quantile of the F distribution with (d1, d2) degrees of freedom."""
    if d1 < 1 or d2 < 1:
        raise ValueError(f"degrees of freedom must be positive, got ({d1}, {d2})")
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must be in (0, 1), got {prob}")
    return float(fdtri(d1, d2, prob))


def pointwise_constant(m: int, nu: int, alpha: float) -> float:
    """Critical constant for one fixed covariate point and one pair.

    The statistic at a single point is an F variate scaled by m/nu, so
    no simulation is involved. Useful as the floor every simultaneous
    constant must exceed.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if nu < m:
        raise ValueError(f"need nu >= m, got nu={nu}, m={m}")
    return (m / nu) * f_quantile(m, nu, 1.0 - alpha)

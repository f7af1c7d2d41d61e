"""Monte Carlo engine for simultaneous confidence tubes.

The tube construction compares group coefficient matrices pairwise over
a covariate region. Its critical constant is the upper quantile of a
pivotal statistic: the supremum, over the comparison family and the
region, of a ratio whose numerator couples per-group normal matrices
through the design cross-products and whose denominator is a common
Wishart draw. The law depends on the designs only through the
cross-product inverses and the pooled degrees of freedom, never on the
fitted coefficients, which is what makes one simulated sample reusable
for every pair's p-value.

Simulated and observed statistics go through the same exact solver,
face enumeration of the covariate box (``sup_solver.FacePlan``), for
every region: a point, a finite box, or the whole space. Per pair the
face constants and D's Cholesky factor are prepared once. Each block of
replicates whitens every group's normal matrices by the block's Wishart
factor once (``_whiten``, a forward substitution vectorized over the
block); the whitening is linear, so a pair's factor is a difference of
two whitened group matrices, each mapped by a fixed (p+1) x (p+1)
matrix. The supremum then costs closed forms over the whole block
(``sup_solver.top_eigenvalue`` up to size 3), except for the checked
faces of a finite box with two or more free coordinates, whose top
eigenvectors come from one batched eigendecomposition. Per-replicate
arrays keep the replicate index last, so each matrix entry is one
contiguous vector. Roy's null sampler in
``classical_tests`` uses the same whitening and block size.

Replicate j of a run is a pure function of (seed, j). Draws are made in
fixed blocks of 8192 replicates; the block holding replicate j is keyed
by the block's first index, full blocks are always drawn even when r
cuts the last one short, and each group's normal matrices live on their
own substream (the Wishart noise on substream 0). Workers therefore
cannot change results: blocks are handed to threads and written back by
position.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import bdtr, bdtrik

from .errors import EmptyFamily, InvalidArgument, MetaMismatch, TooFewReplicates
from .model_core import FittedModels
from .rand_engine import StreamKey, normal_block, wishart_factor_block
from .sup_solver import CovariateBox, FacePlan, QuadraticRatio, sup_ratio

_BLOCK = 8192


@dataclass(frozen=True)
class ComparisonFamily:
    """Which ordered group pairs (i, j), 1-based, are compared jointly.

    Use the factory methods; ``kind`` records which construction was
    asked for so reports can echo it.
    """

    pairs: tuple[tuple[int, int], ...]
    kind: str = "custom"
    control: int | None = None

    def __post_init__(self):
        pairs = tuple((int(i), int(j)) for i, j in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise EmptyFamily("comparison family has no pairs")
        seen = set()
        for i, j in pairs:
            if i < 1 or j < 1:
                raise InvalidArgument(f"group indices are 1-based, got ({i}, {j})")
            if i == j:
                raise InvalidArgument(f"pair ({i}, {j}) compares a group with itself")
            if (i, j) in seen:
                raise InvalidArgument(f"duplicate pair ({i}, {j})")
            seen.add((i, j))

    @classmethod
    def pairwise(cls, k: int) -> "ComparisonFamily":
        """Every unordered pair among k groups, listed as (i, j) with i < j."""
        pairs = tuple((i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1))
        return cls(pairs=pairs, kind="pairwise")

    @classmethod
    def vs_control(cls, k: int, control: int) -> "ComparisonFamily":
        """Each non-control group against the control group."""
        if not 1 <= control <= k:
            raise InvalidArgument(f"control index {control} outside 1..{k}")
        pairs = tuple((i, control) for i in range(1, k + 1) if i != control)
        return cls(pairs=pairs, kind="vs_control", control=control)

    @classmethod
    def successive(cls, k: int) -> "ComparisonFamily":
        """Each group against the next one: (1,2), (2,3), ..."""
        pairs = tuple((i, i + 1) for i in range(1, k))
        return cls(pairs=pairs, kind="successive")

    @classmethod
    def custom(cls, pairs) -> "ComparisonFamily":
        return cls(pairs=tuple(tuple(p) for p in pairs), kind="custom")

    def validate_for(self, k: int) -> None:
        for i, j in self.pairs:
            if i > k or j > k:
                raise InvalidArgument(f"pair ({i}, {j}) outside the {k} fitted groups")


@dataclass(frozen=True)
class SampleMeta:
    """Fingerprint of what a simulated sample is valid for."""

    nu: int
    m: int
    p: int
    family: ComparisonFamily
    box: CovariateBox
    design_digest: str


@dataclass(frozen=True, eq=False)
class SimulatedSample:
    """Sorted pivotal statistic replicates plus their provenance."""

    values: np.ndarray
    r: int
    seed: int
    meta: SampleMeta


@dataclass(frozen=True)
class CriticalConstantResult:
    """An upper quantile estimate with its Monte Carlo uncertainty.

    ``order_stat_interval`` is a 99% nonparametric confidence interval
    for the true quantile built from binomial quantile ranks.
    ``eb_coverage_interval`` brackets the realized coverage of a tube
    using the estimated constant: mean plus or minus three standard
    deviations of the relevant beta law.
    """

    c_hat: float
    alpha: float
    r: int
    rank: int
    order_stat_interval: tuple[float, float]
    eb_coverage_interval: tuple[float, float]


def design_digest(fit: FittedModels) -> str:
    """Hash of everything the pivotal law depends on."""
    h = hashlib.sha256()
    h.update(f"nu={fit.nu};m={fit.m};p={fit.p};k={fit.k}".encode())
    for g in fit.gram:
        h.update(np.ascontiguousarray(g, dtype=float).tobytes())
    return h.hexdigest()[:16]


def quantile_rank(r: int, alpha: float) -> int:
    """Order-statistic rank for the (1 - alpha) upper quantile.

    ceil((1 - alpha) * r), guarded against the product landing a hair
    above an integer through rounding.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidArgument(f"alpha must be in (0, 1), got {alpha}")
    target = (1.0 - alpha) * r
    rank = math.ceil(target - 1e-12 * max(1.0, target))
    return min(max(rank, 1), r)


def tail_rank(r: int, alpha: float) -> int:
    """Rank of the simulated (1 - alpha) upper quantile among r replicates.

    The one check order for every simulated critical value (tube and
    largest-root): alpha in (0, 1) first (``InvalidArgument``), then
    alpha * r >= 10 (``TooFewReplicates``), since with fewer expected
    tail exceedances the quantile estimate is noise.
    """
    rank = quantile_rank(r, alpha)
    if alpha * r < 10.0:
        raise TooFewReplicates(
            f"alpha * r = {alpha * r:.3g} < 10; increase replicates")
    return rank


def tail_p_value(values: np.ndarray, statistic: float) -> float:
    """Fraction of the sorted replicates ``values`` strictly above the statistic."""
    idx = int(np.searchsorted(values, statistic, side="right"))
    return (values.size - idx) / values.size


def _binom_ppf(q: float, r: int, prob: float) -> int:
    """Smallest k with P(Binomial(r, prob) <= k) >= q.

    Rounds up the continuous inverse of the binomial CDF, then steps
    down once if the rank below already reaches q. A q lying exactly on
    a CDF value can land one rank high through rounding; the tail
    probabilities asked for here are not such values.
    """
    k = math.ceil(bdtrik(q, r, prob))
    if k >= 1 and bdtr(k - 1, r, prob) >= q:
        k -= 1
    return k


# --- simulation kernel --------------------------------------------------

class _SimPlan:
    """Design-dependent constants hoisted out of the replicate loop.

    Per pair, the face plan of its denominator D = (X_i'X_i)^{-1} +
    (X_j'X_j)^{-1} over the box, and the group factors with D's Cholesky
    factor L folded in: with G G' = (X'X)^{-1}, the simulated numerator
    comes out already folded as L^{-1} A L^{-T}.
    """

    def __init__(self, fit: FittedModels, family: ComparisonFamily,
                 box: CovariateBox):
        family.validate_for(fit.k)
        if box.p != fit.p:
            raise ValueError(f"box has p = {box.p}, fit has p = {fit.p}")
        self.nu, self.m, self.p = fit.nu, fit.m, fit.p
        pairs0 = [(i - 1, j - 1) for i, j in family.pairs]
        self.needed = sorted({g for pair in pairs0 for g in pair})
        gfac = {g: np.linalg.cholesky(fit.gram_inv[g]) for g in self.needed}
        self.pair_ops = []
        for i, j in pairs0:
            plan = FacePlan(fit.gram_inv[i] + fit.gram_inv[j], box)
            pi = scipy.linalg.solve_triangular(plan.lower, gfac[i], lower=True)
            pj = scipy.linalg.solve_triangular(plan.lower, gfac[j], lower=True)
            self.pair_ops.append((i, j, pi, pj, plan))


def _whiten(lw: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Z = L^{-1} U' for each replicate, laid out (m, rows, count).

    ``lw`` stacks lower-triangular factors as (count, m, m) and ``u``
    the matrices as (count, rows, m). Forward substitution runs over
    the m rows of L; each step is vector arithmetic over the block.
    """
    lt = lw.transpose(1, 2, 0)
    z = u.transpose(2, 1, 0).copy()
    for k in range(lt.shape[0]):
        for col in range(k):
            z[k] -= lt[k, col] * z[col]
        z[k] /= lt[k, k]
    return z


def _block_values(plan: _SimPlan, seed: int, start: int, count: int) -> np.ndarray:
    """Pivotal statistic for replicates start .. start+count-1.

    Full fixed-size blocks are always drawn and then sliced, so the
    value of a replicate never depends on r or on scheduling.
    """
    m, p, nu = plan.m, plan.p, plan.nu
    lw = wishart_factor_block(
        m, nu, StreamKey(seed, start, 0), _BLOCK)[:count]
    z = {
        g: _whiten(lw, normal_block(
            p + 1, m, StreamKey(seed, start, g + 1), _BLOCK)[:count])
        for g in plan.needed
    }

    out = np.full(count, -np.inf)
    for i, j, pi, pj, faces in plan.pair_ops:
        # L^{-1}(P_i U_i - P_j U_j)' = Z_i P_i' - Z_j P_j', as (m, p+1, count).
        v = pi @ z[i] - pj @ z[j]
        np.maximum(out, faces.sup(np.einsum("kib,kjb->ijb", v, v)), out=out)
    return out


def simulate_pivot(fit: FittedModels, family: ComparisonFamily,
                   box: CovariateBox, r: int, seed: int,
                   workers: int = 1) -> SimulatedSample:
    """Simulate r replicates of the pivotal sup statistic, sorted ascending.

    Parameters
    ----------
    fit : FittedModels
        Supplies the cross-product inverses and pooled degrees of
        freedom; the fitted coefficients themselves play no role.
    family, box
        Jointly define what the supremum ranges over.
    r, seed
        Replicate count and stream seed. Output is a pure function of
        these two (plus the fit's designs); worker count cannot affect it.
    """
    if r < 1:
        raise TooFewReplicates(f"need at least one replicate, got {r}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    # The null law itself never touches the scatter, but a degenerate
    # fit cannot be tested against the sample either, so refuse early.
    fit.require_scatter()
    plan = _SimPlan(fit, family, box)

    nblocks = (r + _BLOCK - 1) // _BLOCK
    values = np.empty(r)

    def fill(block: int) -> None:
        start = block * _BLOCK
        count = min(_BLOCK, r - start)
        values[start:start + count] = _block_values(plan, seed, start, count)

    if workers == 1 or nblocks == 1:
        for block in range(nblocks):
            fill(block)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(nblocks)))

    values.sort()
    meta = SampleMeta(nu=fit.nu, m=fit.m, p=fit.p, family=family, box=box,
                      design_digest=design_digest(fit))
    return SimulatedSample(values=values, r=r, seed=seed, meta=meta)


def critical_constant(sample: SimulatedSample, alpha: float) -> CriticalConstantResult:
    """Order-statistic estimate of the level (1 - alpha) critical constant.

    The rank comes from ``tail_rank``, so alpha must lie in (0, 1) and
    alpha * r must reach 10.
    """
    r = sample.r
    rank = tail_rank(r, alpha)
    c_hat = float(sample.values[rank - 1])

    prob = 1.0 - alpha
    lo_rank = _binom_ppf(0.005, r, prob)
    hi_rank = _binom_ppf(0.995, r, prob) + 1
    lo_rank = min(max(lo_rank, 1), r)
    hi_rank = min(max(hi_rank, 1), r)
    interval = (float(sample.values[lo_rank - 1]), float(sample.values[hi_rank - 1]))

    # Realized coverage of the rank-th order statistic follows a
    # Beta(rank, r - rank + 1) law; report mean +- 3 sd.
    a, b = float(rank), float(r - rank + 1)
    mean = a / (a + b)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    eb = (mean - 3.0 * sd, mean + 3.0 * sd)

    return CriticalConstantResult(
        c_hat=c_hat, alpha=alpha, r=r, rank=rank,
        order_stat_interval=interval, eb_coverage_interval=eb)


def observed_statistic(fit: FittedModels, pair: tuple[int, int],
                       box: CovariateBox) -> tuple[float, np.ndarray | None]:
    """Supremum of the observed standardized difference for one pair.

    Returns the statistic and the covariate point attaining it; the
    point is None when the whole-space supremum is only approached in
    a limit. Requires a positive definite pooled scatter.
    """
    lfac = fit.require_scatter()
    i, j = pair
    db = fit.coef_difference(i, j)
    v = scipy.linalg.solve_triangular(lfac, db.T, lower=True)
    return sup_ratio(QuadraticRatio(v.T @ v, fit.delta(i, j)), box)


def _check_meta(fit: FittedModels, family: ComparisonFamily,
                box: CovariateBox, sample: SimulatedSample) -> None:
    meta = sample.meta
    want = SampleMeta(nu=fit.nu, m=fit.m, p=fit.p, family=family, box=box,
                      design_digest=design_digest(fit))
    if meta != want:
        raise MetaMismatch(
            "simulated sample was generated for a different "
            "fit/family/region combination")


def adjusted_p_values(fit: FittedModels, family: ComparisonFamily,
                      box: CovariateBox, sample: SimulatedSample
                      ) -> dict[tuple[int, int], float]:
    """Joint p-value for each pair: the fraction of simulated replicates
    strictly exceeding the pair's observed statistic.

    With the order-statistic convention for the critical constant,
    p <= alpha holds exactly when the statistic reaches the constant.
    """
    _check_meta(fit, family, box, sample)
    return {pair: tail_p_value(sample.values,
                               observed_statistic(fit, pair, box)[0])
            for pair in family.pairs}


@dataclass(frozen=True, eq=False)
class PairComparison:
    pair: tuple[int, int]
    labels: tuple[str, str]
    statistic: float
    argmax: np.ndarray | None
    p_value: float
    reject: bool
    significance_regions: tuple | None


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Everything one comparison run produced, ready for serialization."""

    labels: tuple[str, ...]
    group_sizes: tuple[int, ...]
    nu: int
    p: int
    m: int
    family: ComparisonFamily
    box: CovariateBox
    alpha: float
    r: int
    seed: int
    critical: CriticalConstantResult
    pairs: tuple[PairComparison, ...]


def compare(fit: FittedModels, family: ComparisonFamily, box: CovariateBox,
            alpha: float, r: int, seed: int, workers: int = 1) -> ComparisonReport:
    """Run the whole pipeline: simulate, estimate the constant, test each pair.

    Significance regions (where the tube excludes zero, per response
    coordinate) are attached only for a finite single-covariate box,
    where they are well defined intervals.
    """
    fit.require_scatter()
    sample = simulate_pivot(fit, family, box, r, seed, workers=workers)
    crit = critical_constant(sample, alpha)

    want_regions = fit.p == 1 and box.is_finite and not box.is_point
    results = []
    for pair in family.pairs:
        t, argmax = observed_statistic(fit, pair, box)
        regions = None
        if want_regions:
            from .tube_geometry import significance_region
            regions = tuple(
                significance_region(fit, pair, crit.c_hat, q, box)
                for q in range(1, fit.m + 1))
        results.append(PairComparison(
            pair=pair,
            labels=(fit.labels[pair[0] - 1], fit.labels[pair[1] - 1]),
            statistic=t,
            argmax=None if argmax is None else np.asarray(argmax, dtype=float),
            p_value=tail_p_value(sample.values, t),
            reject=t >= crit.c_hat,
            significance_regions=regions,
        ))

    return ComparisonReport(
        labels=fit.labels, group_sizes=fit.group_sizes, nu=fit.nu,
        p=fit.p, m=fit.m, family=family, box=box, alpha=alpha, r=r,
        seed=seed, critical=crit, pairs=tuple(results))

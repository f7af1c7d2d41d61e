"""Monte Carlo engine for simultaneous confidence tubes.

The tube construction compares group coefficient matrices pairwise over
a covariate region. Its critical constant is the upper quantile of a
pivotal statistic: the supremum, over the comparison family and the
region, of a ratio whose numerator couples per-group normal matrices
through the design cross-products and whose denominator is a common
Wishart draw. The law depends on the designs only through the
cross-product inverses and the pooled degrees of freedom, never on the
fitted coefficients, which is what makes one simulated sample reusable
for every pair's p-value (``pair_comparisons``).

Simulated and observed statistics go through the same exact solver, face
enumeration of the covariate box (``sup_solver.FacePlan``), for every
region: a point, a finite box, or the whole space, and reach it the same
way, as whitened numerator factors; the pair's denominator D never
leaves the solver. Per pair the face constants are prepared once. Each
block of replicates whitens every group's normal matrices by the
block's Wishart factor once (``_whiten``, a forward substitution
vectorized over the block); the whitening is linear, so a pair's factor
is a difference of two whitened group matrices, each mapped by its
group's fixed (p+1) x (p+1) factor. The supremum then costs closed
forms over the whole block (``sup_solver.top_eigenvalue`` up to size
3), except for the checked faces of a finite box with two or more free
coordinates, whose top eigenvectors come from one batched
eigendecomposition. Per-replicate arrays keep the replicate index last,
so each matrix entry is one contiguous vector. Roy's null sampler in
``classical_tests`` uses the same whitening and block driver.

Replicate j of a run is a pure function of (seed, j). Draws are made in
fixed blocks of 8192 replicates; the block holding replicate j is keyed
by the block's first index, full blocks are always drawn even when r
cuts the last one short, and each group's normal matrices live on their
own substream (the Wishart noise on substream 0). Workers therefore
cannot change results: ``_replicates``, the one block driver, hands
blocks to threads and writes them back by position.
"""

from __future__ import annotations

import hashlib
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tube_geometry
from .errors import (EmptyFamily, InvalidArgument, MetaMismatch, TooFewReplicates,
                     pair_of)
from .model_core import FittedModels
from .rand_engine import STREAM_VERSION, StreamKey, normal_block, wishart_factor_block
from .sup_solver import CovariateBox, FacePlan

_BLOCK = 8192


@dataclass(frozen=True)
class ComparisonFamily:
    """Which ordered group pairs (i, j), 1-based, are compared jointly.

    Use a factory method, or pass any other pairs directly (kind
    ``custom``); ``kind`` records which construction was asked for so
    reports can echo it.
    """

    pairs: tuple[tuple[int, int], ...]
    kind: str = "custom"
    control: int | None = None

    def __post_init__(self):
        pairs = tuple(pair_of(pair, operator.index,
                              "a pair must be two integer group indices (i, j)")
                      for pair in self.pairs)
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


@dataclass(frozen=True)
class SampleMeta:
    """Fingerprint of what a simulated sample is valid for: family, box,
    designs (``design_digest`` also hashes nu, m, p and k) and the random
    stream scheme (``rand_engine.STREAM_VERSION``) it was drawn under."""

    family: ComparisonFamily
    box: CovariateBox
    design_digest: str
    stream_version: int = STREAM_VERSION


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


def tail_rank(r: int, alpha: float) -> int:
    """Rank of the simulated (1 - alpha) upper quantile among r replicates:
    ceil((1 - alpha) * r) in 1..r, guarded against the product landing a
    hair above an integer through rounding.

    The one check order for every simulated critical value (tube and
    largest-root): alpha in (0, 1) first (``InvalidArgument``), then
    alpha * r >= 10 (``TooFewReplicates``), since with fewer expected
    tail exceedances the quantile estimate is noise.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidArgument(f"alpha must be in (0, 1), got {alpha}")
    if alpha * r < 10.0:
        raise TooFewReplicates(
            f"alpha * r = {alpha * r:.3g} < 10; increase replicates")
    target = (1.0 - alpha) * r
    rank = math.ceil(target - 1e-12 * max(1.0, target))
    return min(max(rank, 1), r)


def tail_p_value(values: np.ndarray, statistic: float) -> float:
    """Fraction of the sorted replicates ``values`` strictly above the statistic."""
    idx = int(np.searchsorted(values, statistic, side="right"))
    return (values.size - idx) / values.size


def _binom_ppf(q: float, r: int, prob: float) -> int:
    """Smallest k with P(Binomial(r, prob) <= k) >= q.

    Sums the pmf over the window mean +- (40 sd + 40), which holds all
    but a negligible share of the mass: the log-pmf is one cumulative
    sum of the log ratios pmf(k+1)/pmf(k), anchored at the window's low
    end by ``math.lgamma``. A q lying exactly on a CDF value can land
    one rank off through rounding; the tail probabilities asked for here
    are not such values.
    """
    spread = 40.0 * math.sqrt(r * prob * (1.0 - prob)) + 40.0
    lo = max(0, math.floor(r * prob - spread))
    hi = min(r, math.ceil(r * prob + spread))
    k = np.arange(lo, hi)
    steps = np.log((r - k) / (k + 1.0)) + math.log(prob / (1.0 - prob))
    anchor = (math.lgamma(r + 1) - math.lgamma(lo + 1) - math.lgamma(r - lo + 1)
              + lo * math.log(prob) + (r - lo) * math.log1p(-prob))
    cdf = np.cumsum(np.exp(anchor + np.concatenate(([0.0], np.cumsum(steps)))))
    return lo + int(np.searchsorted(cdf, q))


# --- simulation kernel --------------------------------------------------

class _SimPlan:
    """Design-dependent constants hoisted out of the replicate loop.

    Per group the family uses, the factor G with G G' = (X'X)^{-1}, keyed
    by 0-based group index; per pair, the face plan of its denominator
    D = (X_i'X_i)^{-1} + (X_j'X_j)^{-1} over the box. The fit checks the
    family's group indices, ``FacePlan`` the box.
    """

    def __init__(self, fit: FittedModels, family: ComparisonFamily,
                 box: CovariateBox):
        self.nu, self.m, self.p = fit.nu, fit.m, fit.p
        self.gfac = {g: np.linalg.cholesky(fit.gram_inv[g]) for g in sorted(
            {fit._check_index(g) for ij in family.pairs for g in ij})}
        self.pair_faces = [(i - 1, j - 1, FacePlan(fit.delta(i, j), box))
                           for i, j in family.pairs]


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
        for g in plan.gfac
    }

    out = np.full(count, -np.inf)
    for i, j, faces in plan.pair_faces:
        # L_W^{-1}(G_i U_i - G_j U_j)' = Z_i G_i' - Z_j G_j', as (m, p+1, count).
        w = plan.gfac[i] @ z[i]
        w -= plan.gfac[j] @ z[j]
        np.maximum(out, faces.sup(w), out=out)
    return out


def _replicates(r: int, workers: int, block_values) -> np.ndarray:
    """Sorted values of replicates 0 .. r-1, computed block by block.

    ``block_values(start, count)`` returns the values of replicates
    start .. start+count-1; ``start`` is a multiple of the fixed block
    size, so a block's draws are keyed by its first index. Blocks are
    written back by position, so ``workers`` threads cannot change the
    result.
    """
    if r < 1:
        raise TooFewReplicates(f"need at least one replicate, got {r}")
    if workers < 1:
        raise InvalidArgument(f"workers must be positive, got {workers}")
    values = np.empty(r)

    def fill(start: int) -> None:
        count = min(_BLOCK, r - start)
        values[start:start + count] = block_values(start, count)

    starts = range(0, r, _BLOCK)
    if workers == 1 or len(starts) == 1:
        for start in starts:
            fill(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, starts))
    values.sort()
    return values


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
    # The null law itself never touches the scatter, but a degenerate
    # fit cannot be tested against the sample either, so refuse early.
    fit.require_scatter()
    plan = _SimPlan(fit, family, box)
    values = _replicates(r, workers, partial(_block_values, plan, seed))
    return SimulatedSample(values, r, seed, SampleMeta(family, box, design_digest(fit)))


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

    The statistic is the sup over the box of e'B S^{-1} B'e / e'De, with
    B the coefficient difference, S the pooled scatter and D the pair's
    denominator: the simulated pivot with (B, S) observed. It takes the
    kernel's path into the same face solver, one numerator factor
    whitened by S's Cholesky factor. Returns the statistic and the
    covariate point attaining it; the point is None when the
    whole-space supremum is only approached in a limit.
    Requires a positive definite pooled scatter.
    """
    lfac = fit.require_scatter()
    i, j = pair
    db = fit.coef_difference(i, j)
    faces = FacePlan(fit.delta(i, j), box)
    return faces.sup_with_argmax(np.linalg.solve(lfac, db.T))


def _check_meta(fit: FittedModels, family: ComparisonFamily,
                box: CovariateBox, sample: SimulatedSample) -> None:
    meta = sample.meta
    want = SampleMeta(family, box, design_digest(fit))
    if meta.stream_version != want.stream_version:
        raise MetaMismatch(
            f"simulated sample was drawn under random stream version "
            f"{meta.stream_version}, this build draws version {want.stream_version}")
    if meta != want:
        raise MetaMismatch(
            "simulated sample was generated for a different "
            "fit/family/region combination")


@dataclass(frozen=True, eq=False)
class PairComparison:
    """One pair tested against a simulated sample.

    ``reject`` (statistic >= constant) and ``significance_regions`` are
    None when no critical constant was given; the regions are also None
    unless the box is a finite interval in one covariate.
    """

    pair: tuple[int, int]
    labels: tuple[str, str]
    statistic: float
    argmax: np.ndarray | None
    p_value: float
    reject: bool | None
    significance_regions: tuple | None


def pair_comparisons(fit: FittedModels, family: ComparisonFamily,
                     box: CovariateBox, sample: SimulatedSample,
                     c_hat: float | None = None) -> tuple[PairComparison, ...]:
    """Observed statistic, its argmax and the adjusted p-value of every pair.

    A p-value counts the replicates strictly above the statistic, so
    p <= alpha exactly when t reaches the constant. The sample must have
    been simulated for this fit, family and box. With a critical
    constant ``c_hat`` (finite, >= 0) each pair also gets its decision
    and, on a finite interval with p = 1, the significance region of
    every response coordinate.
    """
    _check_meta(fit, family, box, sample)
    if c_hat is not None:
        tube_geometry._check_constant(c_hat)
    want_regions = (c_hat is not None and fit.p == 1 and box.is_finite
                    and not box.is_point)
    results = []
    for pair in family.pairs:
        t, argmax = observed_statistic(fit, pair, box)
        regions = None
        if want_regions:
            regions = tuple(
                tube_geometry.significance_region(fit, pair, c_hat, q, box)
                for q in range(1, fit.m + 1))
        results.append(PairComparison(
            pair=pair,
            labels=(fit.labels[pair[0] - 1], fit.labels[pair[1] - 1]),
            statistic=t,
            argmax=None if argmax is None else np.asarray(argmax, dtype=float),
            p_value=tail_p_value(sample.values, t),
            reject=None if c_hat is None else bool(t >= c_hat),
            significance_regions=regions,
        ))
    return tuple(results)


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
    tail_rank(r, alpha)  # refuse too small an alpha * r before drawing
    sample = simulate_pivot(fit, family, box, r, seed, workers=workers)
    crit = critical_constant(sample, alpha)
    return ComparisonReport(
        labels=fit.labels, group_sizes=fit.group_sizes, nu=fit.nu,
        p=fit.p, m=fit.m, family=family, box=box, alpha=alpha, r=r,
        seed=seed, critical=crit,
        pairs=pair_comparisons(fit, family, box, sample, crit.c_hat))

"""Monte Carlo engine for simultaneous confidence tubes.

The tube construction compares group coefficient matrices pairwise over
a covariate region. Its critical constant is the upper quantile of a
pivotal statistic: the supremum, over the comparison family and the
region, of a ratio whose numerator couples per-group normal matrices
through the design cross-products and whose denominator is a common
Wishart draw. The law depends on the designs only through the
cross-product inverses and the pooled degrees of freedom, never on the
fitted coefficients, which is what makes one simulated sample reusable
for every pair's p-value. A ``SimulatedSample`` records the family and
box it ranged over, a digest of the designs and the stream version, so
``pair_comparisons`` reads its pairs and box from the sample and takes
it for any fit with the same designs.

Simulated and observed statistics go through the same exact solver, face
enumeration of the covariate box (``sup_solver.FacePlan``), for every
region: a point, a finite box, or the whole space, and reach it the same
way, as whitened numerator factors; the pair's denominator D never
leaves the solver. Per pair the face constants are prepared once. Each
block of replicates whitens every group's normal matrices by the
block's Wishart factor once (``_whiten``, a forward substitution
vectorized over the block); the whitening is linear, so a pair's factor
is a difference of two whitened group matrices, each mapped once per
block by its group's fixed (p+1) x (p+1) factor. The supremum then
costs closed forms over the whole block (``sup_solver.top_eigenvalue``
up to size 3), except for the checked faces of a finite box with two or
more free coordinates, whose top eigenvectors come from one batched
eigendecomposition. Per-replicate arrays keep the replicate index last,
so each matrix entry is one contiguous vector; the Wishart factors are
drawn that way (``rand_engine.wishart_factor_block``). Roy's null
sampler in ``classical_tests`` uses the same whitening, buffers and
block driver.

Each worker computes all its blocks in one set of buffers sized for a
full block (``_tube_block``): the Wishart factors and normal draws, a
whitened stack, each used group's mapped stack, the pair factor, and
the face solver's workspace; a block's values go straight into the
result.
Fresh arrays per block were handed back to the OS as each block freed
them and faulted in again by the next: a first call of 2x10^5
whole-space replicates (k = 5, m = 3) took about 21,000 minor page
faults, and takes about 1,600 with the buffers, whatever was allocated
before it.

Replicate j's draws are a pure function of (seed, j); so is its value,
except in the last bits: BLAS may pick another kernel for a block of
another length, so a run whose last block is short can round a
replicate differently from a longer run (up to about 1e-15 relative).
Draws are made in fixed blocks of 8192 replicates; the block holding
replicate j is keyed by the block's first index, full blocks are always
drawn even when r cuts the last one short, and each group's normal
matrices live on their own substream (the Wishart noise on substream
0). Workers therefore cannot change results: ``_replicates``, the one
block driver, hands blocks to threads and writes them back by position.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tube_geometry
from .errors import (EmptyFamily, InvalidArgument, MetaMismatch, TooFewReplicates,
                     group_pair, items_of)
from .model_core import FittedModels
from .rand_engine import STREAM_VERSION, StreamKey, normal_block, wishart_factor_block
from .sup_solver import CovariateBox, FacePlan, _take

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
        items = items_of(self.pairs, "family pairs must be a sequence of (i, j) pairs")
        pairs = tuple(group_pair(pair) for pair in items)
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


@dataclass(frozen=True, eq=False)
class SimulatedSample:
    """Sorted pivotal statistic replicates plus their provenance: the
    seed, the family and box the supremum ranged over, the designs
    (``design_digest`` also hashes nu, m, p and k) and the random stream
    scheme (``rand_engine.STREAM_VERSION``) it was drawn under."""

    values: np.ndarray
    seed: int
    family: ComparisonFamily
    box: CovariateBox
    design_digest: str
    stream_version: int = STREAM_VERSION

    @property
    def r(self) -> int:
        return self.values.size


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


def _whiten(lw: np.ndarray, u: np.ndarray, out: np.ndarray,
            tmp: np.ndarray) -> np.ndarray:
    """Write Z = L^{-1} U' for each replicate into ``out``, laid out
    (m, rows, count), and return it.

    ``lw`` stacks lower-triangular factors replicate-last, as an
    (m, m, count) array such as the leading ``count`` replicates of a
    Wishart factor block, so each factor entry is one contiguous vector.
    ``u`` stacks the matrices as (count, rows, m), and ``tmp`` is
    (rows, count) scratch. Forward substitution runs over the m rows of
    L; each step is vector arithmetic over the block.
    """
    np.copyto(out, u.transpose(2, 1, 0))
    for k in range(lw.shape[0]):
        for col in range(k):
            out[k] -= np.multiply(out[col], lw[k, col], out=tmp)
        out[k] /= lw[k, k]
    return out


def _tube_block(plan: _SimPlan, seed: int, cap: int):
    """A block function with its own buffers, for blocks of up to
    ``cap`` replicates: ``block(start, count, out)`` writes the pivotal
    statistic of replicates start .. start+count-1 into ``out``.

    The buffers hold one full block's Wishart factors and normal draws
    (full fixed-size blocks are always drawn and then sliced, so a
    replicate's draws never depend on r or on scheduling), a whitened
    stack, each used group's mapped stack, the pair factor, and the face
    solver's workspace. Every block of the worker reuses them.
    """
    m, n, nu = plan.m, plan.p + 1, plan.nu
    lw, u = np.empty((m, m, _BLOCK)), np.empty((_BLOCK, n, m))
    z, pair = np.empty(m * n * cap), np.empty(m * n * cap)
    mapped = {g: np.empty(m * n * cap) for g in plan.gfac}
    work = plan.pair_faces[0][2].workspace(m, cap)

    def block(start: int, count: int, out: np.ndarray) -> None:
        wishart_factor_block(m, nu, StreamKey(seed, start, 0), _BLOCK, out=lw)
        zv, w = _take(z, m, n, count), _take(pair, m, n, count)
        v = {}
        for g, buf in mapped.items():
            normal_block(n, m, StreamKey(seed, start, g + 1), _BLOCK, out=u)
            _whiten(lw[..., :count], u[:count], zv, w[0])
            # G_g Z_g, the group's share of every pair factor it enters.
            v[g] = np.matmul(plan.gfac[g], zv, out=_take(buf, m, n, count))
        out.fill(-np.inf)
        for i, j, faces in plan.pair_faces:
            # L_W^{-1}(G_i U_i - G_j U_j)' = Z_i G_i' - Z_j G_j', as (m, p+1, count).
            faces.sup(np.subtract(v[i], v[j], out=w), work, out)

    return block


def _replicates(r: int, workers: int, make_block) -> np.ndarray:
    """Sorted values of replicates 0 .. r-1, computed block by block.

    ``make_block(cap)`` returns a block function with its own buffers,
    sized for blocks of up to ``cap`` replicates: ``block(start, count,
    out)`` writes the values of replicates start .. start+count-1 into
    ``out``, a view of the result. ``start`` is a multiple of the fixed
    block size, so a block's draws are keyed by its first index. Each
    worker thread builds one block function, so threads never share a
    buffer, and runs every ``workers``-th block. Blocks are written back
    by position, so ``workers`` cannot change the result.
    """
    if r < 1:
        raise TooFewReplicates(f"need at least one replicate, got {r}")
    if workers < 1:
        raise InvalidArgument(f"workers must be positive, got {workers}")
    values = np.empty(r)
    starts = range(0, r, _BLOCK)

    def run(mine: range) -> None:
        block = make_block(min(_BLOCK, r))
        for start in mine:
            count = min(_BLOCK, r - start)
            block(start, count, values[start:start + count])

    threads = min(workers, len(starts))
    if threads == 1:
        run(starts)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, [starts[w::threads] for w in range(threads)]))
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
    values = _replicates(r, workers, partial(_tube_block, plan, seed))
    return SimulatedSample(values, seed, family, box, design_digest(fit))


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
    i, j = group_pair(pair)
    db = fit.coef_difference(i, j)
    faces = FacePlan(fit.delta(i, j), box)
    return faces.sup_with_argmax(np.linalg.solve(lfac, db.T))


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


def pair_comparisons(fit: FittedModels, sample: SimulatedSample,
                     c_hat: float | None = None) -> tuple[PairComparison, ...]:
    """Observed statistic, its argmax and the adjusted p-value of every
    pair of the sample's family, over the sample's box.

    A p-value counts the replicates strictly above the statistic, so
    p <= alpha exactly when t reaches the constant. The sample serves
    any fit with the designs it was simulated for, since the pivotal
    law never sees the responses; another stream version or other
    designs raise ``MetaMismatch``. With a critical constant ``c_hat``
    (finite, >= 0) each pair also gets its decision and, on a finite
    interval with p = 1, the significance region of every response
    coordinate.
    """
    if sample.stream_version != STREAM_VERSION:
        raise MetaMismatch(
            f"simulated sample was drawn under random stream version "
            f"{sample.stream_version}, this build draws version {STREAM_VERSION}")
    if sample.design_digest != design_digest(fit):
        raise MetaMismatch("simulated sample was generated for other designs")
    box = sample.box
    if c_hat is not None:
        tube_geometry._check_constant(c_hat)
    want_regions = (c_hat is not None and fit.p == 1 and box.is_finite
                    and not box.is_point)
    results = []
    for pair in sample.family.pairs:
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
        pairs=pair_comparisons(fit, sample, crit.c_hat))

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

Every critical value and p-value, the tube's and the largest-root
test's, is read from a null law (``_NullLaw``): anything with
``critical(alpha)``, a ``CriticalConstantResult``, and
``p_value(statistic)``, plus its ``kind``, ``reps`` and ``seed``. There
are two. The sorted sample (``_SampleLaw``), which a ``SimulatedSample``
and Roy's null sample both are, reads an order statistic and the share
of replicates above a statistic; its ``tail_rank``, which a caller runs
before it draws one, refuses an alpha and r that its critical value
would refuse. The largest root's exact law
(``classical_tests._LargestRootLaw``) reads a quantile and a tail of
its CDF, with the interval (c, c). The one duality rule, p <= alpha
exactly when t >= c, is ``_NullLaw.decide``; on a sample it changes
nothing. A run picks its law once and reads all its numbers from it.

Simulated and observed statistics go through the same exact solver, face
enumeration of the covariate box (``sup_solver.FacePlan``), for every
region: a point, a finite box, or the whole space, and reach it the same
way, as whitened numerator factors; the pair's denominator D never
leaves the solver. Both read the same face values from the same code
(``FacePlan._candidates``), so an observed statistic is exactly what a
replicate with its factor would read; only its argmax adds an
eigenvector, of the winning face. Per pair the face constants are
prepared once. Each
block of replicates whitens every drawn group's normal matrices by the
block's Wishart factor once (``_whiten``, a forward substitution
vectorized over the block); the whitening is linear, so a pair's factor
is a difference of two whitened group matrices, each mapped once per
block by its group's fixed (p+1) x (p+1) factor. Group 1's matrices are
not drawn: the pivot sees the groups only through their pair
differences, a Gaussian of (k-1)(p+1)m dimensions, so group 1's stack
is a fixed linear map of each other group's whitened draws, summed
(``_SimPlan``), and a family that uses group 1 draws (k-1)(p+1)m
normals per replicate. The supremum then costs closed forms over the
whole block (``sup_solver.top_eigenvalue`` up to size 3), a vertex or
the whole space on its Gram's smaller side (``top_gram_eigenvalue``),
a finite-box face with free coordinates through the closed-form
projector of its inside test: only the whole space with
min(m, p+1) >= 4 and the interior of a box in three covariates take
LAPACK throughout. Per-replicate arrays keep the replicate index last, so each
matrix entry is one contiguous vector; the Wishart factors are drawn
that way (``rand_engine.wishart_factor_block``). Roy's null sampler in
``classical_tests`` uses the same whitening, Gram rule, scratch cache
and block driver.

A block is drawn (``_tube_draws``: the Wishart factors and each drawn
group's normals) and then computed (``_tube_compute``). Each stage takes
its per-block arrays by name, where it uses them, from a scratch cache,
a dict of flat buffers (``sup_solver._scratch``): the draws, the
whitened stack, each group's mapped stack, the pair factor, and the face
solver's factor and entries for the face it is on. One loop,
``_replicates``, runs the stages for every thread count: one thread
draws each block into the cache it computes in, just before computing
it; with two, a one-thread pool draws the next block, into two buffer
sets in turn, while the calling thread computes this one. The first
block sizes the buffers and later blocks reuse them; a block's values
go straight into the result. Fresh arrays per block were
handed back to the OS as each block freed them and faulted in again by
the next: a first call of 2x10^5 whole-space replicates (k = 5, m = 3)
took about 21,000 minor page faults, and takes about 1,500 with the
cache, whatever was allocated before it.

Replicate j's draws are a pure function of (seed, j); so is its value,
except in the last bits: BLAS may pick another kernel for a block of
another length, so a run whose last block is short can round a
replicate differently from a longer run (up to about 1e-15 relative).
Draws are made in fixed blocks of 8192 replicates; the block holding
replicate j is keyed by the block's first index, full blocks are always
drawn even when r cuts the last one short, and group g's normal
matrices live on substream g (the Wishart noise on substream 0;
substream 1 is never drawn, since group 1's are derived). Threads
therefore cannot change results: ``_replicates`` writes each block's
values back by position, whichever thread drew it.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tube_geometry
from .errors import (EmptyFamily, InvalidArgument, MetaMismatch, TooFewReplicates,
                     group_pair, index_of, is_real, items_of)
from .model_core import FittedModels
from .rand_engine import STREAM_VERSION, StreamKey, normal_block, wishart_factor_block
from .sup_solver import CovariateBox, FacePlan, _scratch

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
        k = index_of(k, "group count")
        pairs = tuple((i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1))
        return cls(pairs=pairs, kind="pairwise")

    @classmethod
    def vs_control(cls, k: int, control: int) -> "ComparisonFamily":
        """Each non-control group against the control group."""
        k = index_of(k, "group count")
        control = index_of(control, "control index")
        if not 1 <= control <= k:
            raise InvalidArgument(f"control index {control} outside 1..{k}")
        pairs = tuple((i, control) for i in range(1, k + 1) if i != control)
        return cls(pairs=pairs, kind="vs_control", control=control)

    @classmethod
    def successive(cls, k: int) -> "ComparisonFamily":
        """Each group against the next one: (1,2), (2,3), ..."""
        k = index_of(k, "group count")
        pairs = tuple((i, i + 1) for i in range(1, k))
        return cls(pairs=pairs, kind="successive")


@dataclass(frozen=True)
class CriticalConstantResult:
    """An upper quantile estimate with its Monte Carlo uncertainty.

    ``order_stat_interval`` is a 99% nonparametric confidence interval
    for the true quantile built from binomial quantile ranks.
    ``eb_coverage_interval`` brackets the realized coverage of a tube
    using the estimated constant: mean plus or minus three standard
    deviations of the relevant beta law, clipped to [0, 1]. An exact law
    reads r and rank 0, the interval (c, c) and the coverage
    (1 - alpha, 1 - alpha).
    """

    c_hat: float
    alpha: float
    r: int
    rank: int
    order_stat_interval: tuple[float, float]
    eb_coverage_interval: tuple[float, float]


class _NullLaw:
    """A null law: what a statistic's critical value and p-value are
    read from. ``critical(alpha)`` gives the level-alpha critical value
    as a ``CriticalConstantResult`` and ``p_value(statistic)`` the upper
    tail beyond a statistic; ``kind`` names the law (``"exact"`` or
    ``"monte_carlo"``), ``reps`` the replicates it read (0 for an exact
    law) and ``seed`` their stream seed (None for an exact law). The two
    laws are ``_SampleLaw`` and ``classical_tests._LargestRootLaw``.
    """

    def decide(self, statistic: float, alpha: float) -> tuple[float, float]:
        """The level-alpha critical value c and the p-value of
        ``statistic``, dual: p <= alpha exactly when statistic >= c.
        Where rounding would put p on the other side of alpha, p is moved
        to alpha (or just above), so the decision follows c. A sample
        needs no move: its p-value counts replicates above the
        statistic, and its c is one of them."""
        critical, p_value = self.critical(alpha).c_hat, self.p_value(statistic)
        if statistic >= critical:
            return critical, min(p_value, alpha)
        return critical, max(p_value, math.nextafter(alpha, 1.0))


@dataclass(frozen=True, eq=False)
class _SampleLaw(_NullLaw):
    """The law of r sorted Monte Carlo replicates drawn from ``seed``:
    the critical value is an order statistic (``critical_constant``) and
    a p-value the share of replicates strictly above the statistic.
    ``values`` must be a nonempty 1-D array of finite numbers in
    ascending order, or ``InvalidArgument`` is raised: both readings
    rely on the order."""

    values: np.ndarray
    seed: int
    kind = "monte_carlo"

    def __post_init__(self):
        v = self.values
        if not (isinstance(v, np.ndarray) and v.ndim == 1 and v.size
                and v.dtype.kind in "iuf" and np.isfinite(v).all()
                and (v[1:] >= v[:-1]).all()):
            raise InvalidArgument("sample values must be a nonempty 1-D array "
                                  "of finite numbers in ascending order")

    @property
    def r(self) -> int:
        return self.values.size

    reps = r  # the null law's name for the replicate count

    @staticmethod
    def tail_rank(r: int, alpha: float) -> int:
        """Rank of the simulated (1 - alpha) upper quantile among r
        replicates: ceil((1 - alpha) * r) in 1..r, guarded against the
        product landing a hair above an integer through rounding.

        The one check order for the critical value of every sample law
        (tube and largest-root): alpha a real number (not a bool) in
        (0, 1) first, then r an integer (not a bool or float), both
        ``InvalidArgument``, then alpha * r >= 10 (``TooFewReplicates``),
        since with fewer expected tail exceedances the quantile estimate
        is noise. A caller that draws a sample for its critical value
        runs it first, so a refused call draws nothing.
        """
        check_alpha(alpha)
        r = index_of(r, "replicate count")
        if alpha * r < 10.0:
            raise TooFewReplicates(
                f"alpha * r = {alpha * r:.3g} < 10; increase replicates")
        target = (1.0 - alpha) * r
        rank = math.ceil(target - 1e-12 * max(1.0, target))
        return min(max(rank, 1), r)

    def critical(self, alpha: float) -> CriticalConstantResult:
        """``critical_constant(self, alpha)``."""
        return critical_constant(self, alpha)

    def p_value(self, statistic: float) -> float:
        """The share of replicates strictly above ``statistic``."""
        return (self.r - int(np.searchsorted(self.values, statistic, "right"))) / self.r


@dataclass(frozen=True, eq=False)
class SimulatedSample(_SampleLaw):
    """Sorted pivotal statistic replicates, as a sample law (see
    ``_SampleLaw``), plus their provenance: the family and box the
    supremum ranged over, the designs (``design_digest`` also hashes nu,
    m, p and k) and the random stream scheme
    (``rand_engine.STREAM_VERSION``) it was drawn under."""

    family: ComparisonFamily
    box: CovariateBox
    design_digest: str
    stream_version: int = STREAM_VERSION


tail_rank = _SampleLaw.tail_rank


def design_digest(fit: FittedModels) -> str:
    """Hash of everything the pivotal law depends on."""
    h = hashlib.sha256()
    h.update(f"nu={fit.nu};m={fit.m};p={fit.p};k={fit.k}".encode())
    for g in fit.gram:
        h.update(np.ascontiguousarray(g, dtype=float).tobytes())
    return h.hexdigest()[:16]


def check_alpha(alpha: float) -> None:
    """Refuse an alpha that is not a real number (a bool, a string,
    None) or lies outside (0, 1), with ``InvalidArgument``."""
    if not (is_real(alpha) and 0.0 < alpha < 1.0):
        raise InvalidArgument(f"alpha must be in (0, 1), got {alpha!r}")


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

    Per drawn group g (0-based), the factor G_g with G_g G_g' =
    (X_g'X_g)^{-1}; per pair, the face plan of its denominator D =
    (X_i'X_i)^{-1} + (X_j'X_j)^{-1} over the box. The fit checks the
    family's group indices, ``FacePlan`` the box.

    The pivot sees the groups' normal matrices only through the pair
    differences, a Gaussian of (k-1)(p+1)m dimensions, so group 1's
    matrix is derived from the others' draws instead of drawn. With
    V_g = G_g^{-1} G_1, P = sum of V_g'V_g and K = (I + (I + P)^{1/2})^{-1}
    (eigenvalues in (0, 1/2]), G (I + V K V') is the symmetric square
    root of the differences' covariance, G = blockdiag(G_g), so group 1
    takes ``derive[g]`` = B_g = -G_1 K V_g' of each group g >= 2. A
    family that uses group 1 therefore draws every other group; one that
    does not draws only its own groups. Either way a pair's value in a
    replicate is the same in every family.
    """

    def __init__(self, fit: FittedModels, family: ComparisonFamily,
                 box: CovariateBox):
        self.nu, self.m, self.p = fit.nu, fit.m, fit.p
        used = {fit._check_index(g) for ij in family.pairs for g in ij}
        drawn = range(1, fit.k) if 0 in used else sorted(used)
        self.gfac = {g: np.linalg.cholesky(fit.gram_inv[g]) for g in drawn}
        self.derive = {}
        if 0 in used:
            g1 = np.linalg.cholesky(fit.gram_inv[0])
            v = {g: np.linalg.solve(gfac, g1) for g, gfac in self.gfac.items()}
            lam, q = np.linalg.eigh(sum(vg.T @ vg for vg in v.values()))
            g1k = g1 @ (q / (1.0 + np.sqrt(1.0 + lam))) @ q.T
            self.derive = {g: -(g1k @ vg.T) for g, vg in v.items()}
        self.pair_faces = [(i - 1, j - 1, FacePlan(fit.delta(i, j), box))
                           for i, j in family.pairs]


def _whiten(lw: np.ndarray, u: np.ndarray, cache: dict) -> np.ndarray:
    """Z = L^{-1} U' for each replicate, laid out (m, rows, count), in
    the scratch cache's ``"whitened"`` buffer.

    ``lw`` stacks lower-triangular factors replicate-last, as an
    (m, m, count) array such as the leading ``count`` replicates of a
    Wishart factor block, so each factor entry is one contiguous vector.
    ``u`` stacks the matrices as (count, rows, m). Forward substitution
    runs over the m rows of L; each step is vector arithmetic over the
    block, with one (rows, count) product in ``"whiten_tmp"``.
    """
    count, rows, m = u.shape
    z = _scratch(cache, "whitened", m, rows, count)
    tmp = _scratch(cache, "whiten_tmp", rows, count)
    np.copyto(z, u.transpose(2, 1, 0))
    for k in range(m):
        for col in range(k):
            z[k] -= np.multiply(z[col], lw[k, col], out=tmp)
        z[k] /= lw[k, k]
    return z


def _tube_draws(plan: _SimPlan, seed: int, start: int, bufs: dict):
    """Draw the block at ``start``: its Bartlett factors of the Wishart
    draw and each drawn group's normal matrices, into the buffer dict
    ``bufs`` (see ``sup_solver._scratch``) under ``"lw"`` and
    ``("u", g)``. Everything after the draws is ``_tube_compute``'s.

    Full fixed-size blocks are always drawn and then sliced, so a
    replicate's draws never depend on r or on scheduling.
    """
    m, n = plan.m, plan.p + 1
    lw = wishart_factor_block(m, plan.nu, StreamKey(seed, start, 0), _BLOCK,
                              out=_scratch(bufs, "lw", m, m, _BLOCK))
    us = {g: normal_block(n, m, StreamKey(seed, start, g + 1), _BLOCK,
                          out=_scratch(bufs, ("u", g), _BLOCK, n, m))
          for g in plan.gfac}
    return lw, us


def _tube_compute(plan: _SimPlan, drawn, count: int, out: np.ndarray,
                  cache: dict) -> None:
    """Write the pivotal statistic of a block's first ``count``
    replicates into ``out``, from its draws (``_tube_draws``), with every
    other per-block array taken from the scratch ``cache``.

    The whitened stack is shared by the drawn groups, each group the
    pairs use keeps its mapped stack under ``("mapped", g)`` (group 1's
    summed there from the drawn groups'), and the pairs share the pair
    factor and the face solver's buffers.
    """
    m, n = plan.m, plan.p + 1
    lw, us = drawn
    v = {}
    w = _scratch(cache, "pair", m, n, count)
    for g, gfac in plan.gfac.items():
        z = _whiten(lw[..., :count], us[g][:count], cache)
        # G_g Z_g, the group's share of every pair factor it enters.
        v[g] = np.matmul(gfac, z, out=_scratch(cache, ("mapped", g), m, n, count))
        if g in plan.derive:
            # Group 1's stack, the sum of B_g Z_g over the drawn groups;
            # the pair factor's buffer holds each later term.
            if 0 in v:
                v[0] += np.matmul(plan.derive[g], z, out=w)
            else:
                v[0] = np.matmul(plan.derive[g], z,
                                 out=_scratch(cache, ("mapped", 0), m, n, count))
    out.fill(-np.inf)
    for i, j, faces in plan.pair_faces:
        # L_W^{-1}(X_i - X_j)', the difference of two mapped stacks, as
        # (m, p+1, count).
        faces.sup(np.subtract(v[i], v[j], out=w), cache, out)


def _usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity set where the
    platform reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_size(r: int, workers: int | None, seed: int) -> tuple[int, int, int]:
    """r, the worker cap and the seed, checked in the one order every
    simulating entry point uses before it builds anything: r and workers
    integers (not bools or floats), then r at least 1
    (``TooFewReplicates``), then workers at least 1, then the seed an
    integer in ``StreamKey``'s range. A workers of None is every CPU the
    process may use (``_usable_cpus``)."""
    r = index_of(r, "replicate count")
    workers = _usable_cpus() if workers is None else index_of(workers, "worker count")
    if r < 1:
        raise TooFewReplicates(f"need at least one replicate, got {r}")
    if workers < 1:
        raise InvalidArgument(f"workers must be positive, got {workers}")
    seed = index_of(seed, "seed")
    StreamKey(seed)  # refuses a seed outside [0, 2**64)
    return r, workers, seed


def _replicates(r: int, workers: int | None, draw, compute) -> np.ndarray:
    """Sorted values of replicates 0 .. r-1, computed block by block,
    for r and workers that ``_run_size`` has checked.

    ``draw(start, bufs)`` makes the random draws of the block that starts
    at ``start``, a multiple of the fixed block size, so a block's draws
    are keyed by its first index; it takes its arrays from the buffer
    dict ``bufs`` (see ``sup_solver._scratch``) and returns them.
    ``compute(drawn, count, out, cache)`` then writes the values of the
    block's first ``count`` replicates into ``out``, a view of the
    result, taking its other buffers from ``cache``.

    One loop serves every thread count: each block's draws are a call
    with no arguments, made just before the block is computed. On one
    thread it is ``draw`` bound to the block and to ``cache``, so one
    dict holds both stages' buffers. On two it is the ``result`` of the
    block's draw on a one-thread pool, submitted one block ahead into
    two buffer sets in turn, so the pool draws the next block while the
    calling thread computes this one. Two threads run when ``workers``
    (None: ``_usable_cpus``), the usable CPUs and the block count are
    all at least 2; never more. A draw is a few long numpy calls that
    release the interpreter lock, while a block's computation is about a
    hundred short ones that take it back after each call. Threads that
    each drew and computed their own blocks waited on each other for the
    lock after those short calls (about 2,800 context switches in a run
    of 10^6 interval replicates, k = 3, m = 2, against about 1,200 here)
    and cost 17-30% more CPU time than one thread on a 2-vCPU virtual
    machine. Blocks are written back by position, so the thread count
    cannot change the result. A failed draw is raised in the calling
    thread by ``Future.result``, and leaving the pool, however the loop
    ends, waits for the one draw in flight, so no thread outlives the
    call.
    """
    values = np.empty(r)
    starts = range(0, r, _BLOCK)
    cache, sets = {}, ({}, {})
    threaded = min(workers or _usable_cpus(), _usable_cpus(), len(starts)) >= 2
    with ThreadPoolExecutor(max_workers=1) if threaded else nullcontext() as pool:
        def deferred(start):
            """The draws of the block at ``start``, as a call with no arguments."""
            if pool is None:
                return partial(draw, start, cache)
            return pool.submit(draw, start, sets[start // _BLOCK % 2]).result

        pending = deferred(0)
        for start in starts:
            drawn = pending()
            if start + _BLOCK < r:
                pending = deferred(start + _BLOCK)
            count = min(_BLOCK, r - start)
            compute(drawn, count, values[start:start + count], cache)
    values.sort()
    return values


def simulate_pivot(fit: FittedModels, family: ComparisonFamily,
                   box: CovariateBox, r: int, seed: int,
                   workers: int | None = None) -> SimulatedSample:
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
    workers
        The most simulation threads: 1 runs serially, and None, the
        default, or any larger value draws in a second thread where the
        process may use two CPUs (see ``_replicates``).
    """
    # The null law itself never touches the scatter, but a degenerate
    # fit cannot be tested against the sample either, so refuse early.
    fit.require_scatter()
    r, workers, seed = _run_size(r, workers, seed)
    plan = _SimPlan(fit, family, box)
    values = _replicates(r, workers, partial(_tube_draws, plan, seed),
                         partial(_tube_compute, plan))
    return SimulatedSample(values, seed, family, box, design_digest(fit))


def critical_constant(sample: _SampleLaw, alpha: float) -> CriticalConstantResult:
    """Order-statistic estimate of the level (1 - alpha) critical
    constant: a sample law's ``critical(alpha)``.

    The rank comes from ``tail_rank``, so alpha must lie in (0, 1) and
    alpha * r must reach 10.
    """
    r = sample.r
    rank = sample.tail_rank(r, alpha)

    # The 99% interval runs from the lo-th to the (hi+1)-th smallest.
    ranks = (_binom_ppf(0.005, r, 1.0 - alpha), _binom_ppf(0.995, r, 1.0 - alpha) + 1)
    interval = tuple(float(sample.values[min(max(k, 1), r) - 1]) for k in ranks)

    # Realized coverage of the rank-th order statistic follows a
    # Beta(rank, r - rank + 1) law; report mean +- 3 sd, within [0, 1].
    a, b = float(rank), float(r - rank + 1)
    mean = a / (a + b)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    eb = (max(mean - 3.0 * sd, 0.0), min(mean + 3.0 * sd, 1.0))

    return CriticalConstantResult(
        c_hat=float(sample.values[rank - 1]), alpha=alpha, r=r, rank=rank,
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
            p_value=sample.p_value(t),
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
            alpha: float, r: int, seed: int,
            workers: int | None = None) -> ComparisonReport:
    """Run the whole pipeline: simulate, estimate the constant, test each pair.

    Significance regions (where the tube excludes zero, per response
    coordinate) are attached only for a finite single-covariate box,
    where they are well defined intervals.
    """
    fit.require_scatter()
    SimulatedSample.tail_rank(r, alpha)  # refuse too small an alpha * r before drawing
    sample = simulate_pivot(fit, family, box, r, seed, workers=workers)
    crit = sample.critical(alpha)
    return ComparisonReport(
        labels=fit.labels, group_sizes=fit.group_sizes, nu=fit.nu,
        p=fit.p, m=fit.m, family=family, box=box, alpha=alpha, r=r,
        seed=seed, critical=crit,
        pairs=pair_comparisons(fit, sample, crit.c_hat))

"""The largest-root test of equal coefficient matrices.

One largest-root test of equal coefficient matrices across k >= 2
groups, built on the restricted (common-coefficient) fit. Under the
null its statistic is distributed as the largest eigenvalue of
Z W^{-1} Z' with Z a d x m standard normal matrix, d = (k-1)(p+1)
(p+1 for two groups), and W an identity-scale Wishart with the pooled
degrees of freedom, regardless of the designs. With s = min(d, m) roots,
theta = lambda / (1 + lambda) is the largest root of a matrix beta,
whose joint root density is known in closed form (Muirhead 1982,
Thms 3.3.3 and 3.3.4). The test picks one null law per run and reads
its critical value and p-value from it, through the laws' one duality
rule (``sct_engine._NullLaw.decide``): up to ``_EXACT_ROOTS`` roots the
exact law, whose CDF is a Pfaffian (Chiani, JMVA 2016), with no
sampling; beyond it the sample law of a Monte Carlo null sample, whose
sampler draws Z'Z as a second Wishart factor for d >= m instead of Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import NotTwoGroups
from .model_core import FittedModels
from .rand_engine import StreamKey, normal_block, wishart_factor_block
from .sct_engine import (_BLOCK, CriticalConstantResult, _NullLaw, _replicates,
                         _run_size, _SampleLaw, _whiten, check_alpha)
from .sup_solver import _scratch, top_gram_eigenvalue

# The most roots the exact law serves. Its CDF passes the checks in
# tests/test_classical_tests.py (mass 1 within 1e-10, and _NODES against
# 2 * _NODES nodes within 1e-10, for nu from m to 10^6 and d up to 1000)
# with a tenfold margin up to s = 8. The Pfaffian's rounding grows about
# tenfold per root: s = 9 passes with 6e-11, too close to rely on across
# BLAS builds, and s = 10 fails.
_EXACT_ROOTS = 8
# Gauss-Legendre nodes over the integration range. 128 are enough
# except where d is in the hundreds and nu = m, which needs 256.
_NODES = 256
# The CDF's tested absolute accuracy: upper-tail p-values below it are
# rounding noise and are reported as 0.
_CDF_ATOL = 1e-10
# Mass the integration range may leave out below and above the roots.
_LOG_TAIL = math.log(2.0 ** -60)


@dataclass(frozen=True, eq=False)
class RoyResult:
    """A largest-root test: statistic, critical value, p-value.

    ``null_law`` is ``"exact"`` when they come from the closed-form law
    (``null_reps`` is then 0 and ``seed`` None) and ``"monte_carlo"``
    when they come from ``null_reps`` simulated replicates.
    """

    statistic: float
    critical: float
    p_value: float
    alpha: float
    null_reps: int
    seed: int | None
    null_dimension: int
    null_law: str


def _roy_draws(d: int, m: int, nu: int, seed: int, start: int, bufs: dict):
    """Draw the block of ``largest_root_null_sample`` at ``start``, in
    arrays of the buffer dict ``bufs``: W's Bartlett factors and then
    B's (d >= m) or Z's normals."""
    lw = wishart_factor_block(m, nu, StreamKey(seed, start, 0), _BLOCK,
                              out=_scratch(bufs, "lw", m, m, _BLOCK))
    key = StreamKey(seed, start, 1)
    if d >= m:
        return lw, wishart_factor_block(m, d, key, _BLOCK,
                                        out=_scratch(bufs, "draw", m, m, _BLOCK))
    return lw, normal_block(d, m, key, _BLOCK, out=_scratch(bufs, "draw", _BLOCK, d, m))


def _roy_compute(d: int, m: int, drawn, count: int, out: np.ndarray,
                 cache: dict) -> None:
    """Write the null replicates of a block's first ``count`` draws
    (``_roy_draws``) into ``out``, with every other per-block array taken
    from the scratch ``cache``."""
    lw, u = drawn
    # For d >= m, B' stacked replicate-first, as _whiten reads U: the copy
    # it starts from is then B itself.
    u = u[..., :count].transpose(2, 1, 0) if d >= m else u[:count]
    # Transposed, so that d >= m keeps the row-side Gram its samples use.
    z = _whiten(lw[..., :count], u, cache)
    out[:] = top_gram_eigenvalue(z.transpose(1, 0, 2), cache)


def largest_root_null_sample(d: int, m: int, nu: int, r: int, seed: int,
                             workers: int | None = None) -> np.ndarray:
    """Sorted replicates of the largest eigenvalue of Z W^{-1} Z'.

    Z is d x m standard normal and W an m x m identity-scale Wishart
    with nu degrees of freedom (substream 0). The statistic sees Z only
    through Z'Z, which for d >= m is Wishart with d degrees of freedom;
    so substream 1 then carries a second Bartlett factor B, Z'Z = B B',
    and the replicate is the top eigenvalue of B' W^{-1} B. For d < m it
    carries Z itself. The tube engine's block driver runs it
    (``sct_engine._replicates``): fixed blocks keyed by their first
    replicate index, full blocks always drawn into reused buffers, each
    block's draws (``_roy_draws``: finished Bartlett factors, or Z) made
    before it is computed (``_roy_compute``), in a second thread where
    one runs. The computation whitens B (or Z') by W's Bartlett factor
    L, since B' W^{-1} B = (L^{-1}B)'(L^{-1}B), and reads the top
    eigenvalue by the faces' rule, ``sup_solver.top_gram_eigenvalue``;
    both factors are stacked replicate-last, so a short block whitens
    the view of its leading replicates. ``workers`` caps the threads as
    in ``sct_engine.simulate_pivot`` and cannot change the result.
    """
    r, workers, seed = _run_size(r, workers, seed)
    return _replicates(r, workers, partial(_roy_draws, d, m, nu, seed),
                       partial(_roy_compute, d, m))


# --- the exact law -------------------------------------------------------

@lru_cache(maxsize=None)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes x and weights w on [-1, 1], and the matrix
    that maps a function's values at the nodes to its integrals from -1
    to each node (exact for polynomials of degree below n).

    Nodes by Newton's method from Tricomi's estimates; the matrix
    integrates the interpolant in the Legendre basis, through
    the integral of P_j from -1 being (P_{j+1} - P_{j-1}) / (2j + 1). The
    arrays are read-only, since every caller in the process shares them.
    """
    k = np.arange(n)
    x = -(1.0 - (n - 1.0) / (8.0 * n ** 3)) * np.cos(np.pi * (k + 0.75) / (n + 0.5))
    legendre = np.empty((n + 1, n))
    for _ in range(6):
        legendre[0], legendre[1] = 1.0, x
        for j in range(1, n):
            legendre[j + 1] = ((2 * j + 1) * x * legendre[j]
                               - j * legendre[j - 1]) / (j + 1)
        slope = n * (x * legendre[n] - legendre[n - 1]) / (x * x - 1.0)
        step = legendre[n] / slope
        if np.max(np.abs(step)) < 1e-15:
            break
        x = x - step
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    below = np.empty((n, n))
    below[0] = x + 1.0
    below[1:] = (legendre[2:] - legendre[:-2]) / (2 * k[1:, None] + 1)
    integrate = below.T @ ((k[:, None] + 0.5) * legendre[:n] * w)
    for a in (x, w, integrate):
        a.setflags(write=False)
    return x, w, integrate


def _log_gamma_ratio(base: float, shift: float) -> float:
    """log Gamma(base + shift) - log Gamma(base), shift >= 0. For large
    bases through Stirling's series, whose leading terms then cancel
    exactly instead of in rounding (at nu = 10^6 the plain difference of
    ``math.lgamma`` values is off by 4e-10)."""
    if base < 30.0:
        return math.lgamma(base + shift) - math.lgamma(base)

    def series(z: float) -> float:
        z2 = z * z
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * z2)) / z2) / z2) / z

    return ((base - 0.5) * math.log1p(shift / base) + shift * math.log(base + shift)
            - shift + series(base + shift) - series(base))


def _log_root_density_constant(s: int, a: float, b: float) -> float:
    """log of pi^{s^2/2} Gamma_s(a+b) / (Gamma_s(s/2) Gamma_s(a) Gamma_s(b)),
    the constant of the joint density of s matrix-beta roots, Gamma_s the
    multivariate gamma (1 for s = 0)."""
    total = 0.5 * s * math.log(math.pi)
    for i in range(s):
        low, high = sorted((a - 0.5 * i, b - 0.5 * i))
        total += (_log_gamma_ratio(high, low + 0.5 * i) - math.lgamma(low)
                  - math.lgamma(0.5 * (s - i)))
    return total


def _orthonormal_basis(u: np.ndarray, weight: np.ndarray,
                       s: int) -> tuple[np.ndarray, float]:
    """Values at the nodes ``u`` of the first s polynomials orthonormal
    under the discrete weights ``weight`` (Stieltjes' three-term
    recurrence), and the sum of the logs of their leading coefficients.
    Monomials would lose the Pfaffian to cancellation from s of about 10."""
    basis = np.empty((u.size, s))
    prev, norm = np.zeros_like(u), 0.0
    cur = np.full_like(u, 1.0 / math.sqrt(weight.sum()))
    log_lead = log_sum = math.log(cur[0])
    basis[:, 0] = cur
    for n in range(1, s):
        rest = (u - weight @ (u * cur * cur)) * cur - norm * prev
        norm = math.sqrt(weight @ (rest * rest))
        prev, cur = cur, rest / norm
        log_lead -= math.log(norm)
        log_sum += log_lead
        basis[:, n] = cur
    return basis, log_sum


class _LargestRootLaw(_NullLaw):
    """The exact law of the largest eigenvalue lambda of Z W^{-1} Z', a
    null law (``sct_engine._NullLaw``) that reads no replicates.

    Z is d x m standard normal and W ~ Wishart_m(I, nu), nu >= m. With
    s = min(d, m), theta = lambda / (1 + lambda) is the largest of s roots
    with joint density C prod psi(theta_i) prod_{i<j} (theta_i - theta_j),
    psi(u) = u^(a-(s+1)/2) (1-u)^(b-(s+1)/2), where a = d/2, b = nu/2 for
    d >= m and a = m/2, b = (nu+d-m)/2 otherwise.

    By de Bruijn's identity, P(theta_max <= x) = C Pf(A(x)) / prod c_j:
    A_jk = int_0^x phi_k Phi_j - int_0^x phi_j Phi_k, phi_j = q_j psi
    with q_j orthonormal polynomials of leading coefficients c_j, Phi_j
    the integral of phi_j from 0, and A bordered by the column int phi_j
    when s is odd. The integrals run in tau = sqrt(log(1 + lambda)), so
    u = 1 - exp(-tau^2): psi(u) du is then tau to the integer power
    2a - s times a smooth factor at 0 and has no singularity at u = 1,
    and a statistic of any size maps to a finite tau.
    """

    kind, reps, seed = "exact", 0, None

    def __init__(self, d: int, m: int, nu: int):
        s = min(d, m)
        a, b = (d / 2, nu / 2) if d >= m else (m / 2, (nu + d - m) / 2)
        self._s = s
        self._alpha = a - (s + 1) / 2
        self._beta = b - (s + 1) / 2
        self._log_c = _log_root_density_constant(s, a, b)
        self._low, self._zero, self._high = self._support(a, b)

    def _support(self, a: float, b: float) -> tuple[float, float, float]:
        """The tau range outside which the roots lie with probability
        below exp(_LOG_TAIL) on each side, so that the nodes cover where
        the mass is (at nu = 10^6 it sits within u < 1e-4), and the tau
        below which even the largest root lies with at most that
        probability, where the CDF reads 0.

        In v = tau^2 the marginal density of the largest root is at most
        k e^{E(v)}, E(v) = A log(1 - e^{-v}) - B v with A = alpha + s - 1,
        B = beta + 1, and that of the smallest root at most k e^{E(v)} with
        A = alpha, B = beta + s, since every root difference is at most
        the top root and at most one minus the bottom one. k is the ratio
        of the s-root density constant to the (s-1)-root one at
        (a - 1/2, b - 1/2), which integrates out the other roots. E is
        concave for A >= 0, so a tail beyond v has mass at most
        k e^{E(v)} / |E'(v)|. For v <= 1, where t e^{-t} <= 1 - e^{-t}
        <= t, the largest root's mass is at most
        k e^{max(-A, 0)} v^{A+1} / (A + 1).
        """
        s, alpha, beta = self._s, self._alpha, self._beta
        log_k = self._log_c - _log_root_density_constant(s - 1, a - 0.5, b - 0.5)

        def log_tail(v: float, big_a: float, big_b: float) -> float:
            """Log of the envelope's mass beyond v, away from its mode."""
            rise = big_a * math.exp(-v) / -math.expm1(-v) if big_a > 0 else 0.0
            slope = abs(rise - big_b)
            if slope == 0.0:
                return math.inf
            return log_k + big_a * math.log(-math.expm1(-v)) - big_b * v - math.log(slope)

        def bisect(lo: float, hi: float, past) -> float:
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if past(mid) else (mid, hi)
            return hi

        top_a, top_b = alpha + s - 1, beta + 1
        mode = math.log1p(top_a / top_b) if top_a > 0 else 0.0

        def beyond_top(v: float) -> bool:
            return v > mode and log_tail(v, top_a, top_b) < _LOG_TAIL

        high = 2.0 * mode + 1.0
        while not beyond_top(high):
            high *= 2.0
        high = bisect(mode, high, beyond_top)
        zero = min(1.0, math.exp((_LOG_TAIL - log_k - max(-top_a, 0.0)
                                  + math.log(top_a + 1)) / (top_a + 1)))
        low = 0.0
        if alpha > 0:
            low = bisect(0.0, math.log1p(alpha / (beta + s)),
                         lambda v: log_tail(v, alpha, beta + s) >= _LOG_TAIL)
        return math.sqrt(low), math.sqrt(zero), math.sqrt(high)

    def _cdf_at(self, top: float) -> float:
        """P(tau(lambda_max) <= top), for top within the support."""
        lo = self._low
        if top <= max(lo, self._zero):
            return 0.0
        s = self._s
        x, w, integrate = _legendre_rule(_NODES)
        half = 0.5 * (top - lo)
        tau = lo + half * (x + 1.0)
        v = tau * tau
        u = -np.expm1(-v)
        log_density = self._alpha * np.log(u) - (self._beta + 1.0) * v + np.log(2.0 * tau)
        peak = float(log_density.max())
        density = np.exp(log_density - peak)
        weight = half * w * density
        # Polynomials in u / u_max, whose leading coefficients are those
        # in u times u_max^n: their norms cannot underflow at small u.
        scale = float(u[-1])
        basis, log_lead = _orthonormal_basis(u / scale, weight, s)
        log_lead -= 0.5 * s * (s - 1) * math.log(scale)
        phi = density[:, None] * basis
        inner = (w[:, None] * phi).T @ (integrate @ phi) * (half * half)
        skew = inner.T - inner
        if s % 2:
            edge = weight @ basis
            skew = np.block([[skew, edge[:, None]], [-edge[None, :], np.zeros((1, 1))]])
        _, log_det = np.linalg.slogdet(skew)
        return math.exp(self._log_c + s * peak + 0.5 * log_det - log_lead)

    def cdf(self, lam: float) -> float:
        """P(lambda_max <= lam)."""
        if lam <= 0.0:
            return 0.0
        return self._cdf_at(math.sqrt(min(math.log1p(lam), self._high ** 2)))

    def quantile(self, prob: float) -> float:
        """The lam with cdf(lam) = prob, found in tau by the Illinois
        variant of regula falsi, which keeps a bracket and converges
        superlinearly (about 20 CDF evaluations). A prob beyond the
        support's mass gives its upper end."""
        lo, hi = self._low, self._high
        f_lo, f_hi = -prob, self._cdf_at(hi) - prob
        side = 0
        for _ in range(200):
            if f_hi <= 0.0 or hi - lo <= 1e-14 * hi:
                break
            mid = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if not lo < mid < hi:
                mid = 0.5 * (lo + hi)
            f_mid = self._cdf_at(mid) - prob
            if f_mid >= 0.0:
                hi, f_hi = mid, f_mid
                if side == 1:
                    f_lo *= 0.5
                side = 1
            else:
                lo, f_lo = mid, f_mid
                if side == -1:
                    f_hi *= 0.5
                side = -1
        return math.expm1(hi * hi)

    def critical(self, alpha: float) -> CriticalConstantResult:
        """The level-alpha critical value c = quantile(1 - alpha), whose
        interval is (c, c)."""
        c = self.quantile(1.0 - alpha)
        return CriticalConstantResult(
            c_hat=c, alpha=alpha, r=0, rank=0, order_stat_interval=(c, c),
            eb_coverage_interval=(1.0 - alpha, 1.0 - alpha))

    def p_value(self, statistic: float) -> float:
        """The upper tail 1 - cdf(statistic), read as 0 below the CDF's
        tested accuracy ``_CDF_ATOL``."""
        p_value = 1.0 - self.cdf(statistic)
        return 0.0 if p_value < _CDF_ATOL else p_value


def roy_k_sample(fit: FittedModels, alpha: float, r: int, seed: int,
                 workers: int | None = None) -> RoyResult:
    """Largest-root test that all k >= 2 coefficient matrices coincide.

    The hypothesis scatter comes from the restricted common-coefficient
    fit, which only needs the per-group cross-products and estimates
    already in ``fit``; the null dimension is (k-1)(p+1). For k = 2 the
    statistic is the top eigenvalue of the coefficient difference
    standardized by the pooled scatter and the summed cross-product
    inverses, the whole-space supremum of the tube statistic, so this
    test and an unrestricted two-group tube agree.

    One null law serves the run, picked by the s = min(d, m) roots. Up
    to ``_EXACT_ROOTS`` it is the exact law: ``r``, ``seed`` and
    ``workers`` are checked but change nothing, and alpha need only lie
    in (0, 1); a p-value below the law's accuracy (1e-10) reads 0.
    Beyond, it is the sample law of r replicates of
    ``largest_root_null_sample``, threaded as ``workers`` allows (see
    ``sct_engine.simulate_pivot``), and alpha * r must reach 10. Either
    way everything is refused before anything is drawn, the result's
    ``null_law``, ``null_reps`` and ``seed`` are the law's, and
    p <= alpha exactly when statistic >= critical.
    """
    if fit.k < 2:
        raise NotTwoGroups(f"need at least 2 groups, got {fit.k}")
    lfac = fit.require_scatter()
    d = (fit.k - 1) * (fit.p + 1)
    if min(d, fit.m) <= _EXACT_ROOTS:
        # The sampler's checks of r, workers and seed, in its order: the
        # exact law uses none of them, but both laws refuse the same ones.
        check_alpha(alpha)
        _run_size(r, workers, seed)
        law = _LargestRootLaw(d, fit.m, fit.nu)
    else:
        _SampleLaw.tail_rank(r, alpha)
        law = _SampleLaw(largest_root_null_sample(d, fit.m, fit.nu, r, seed,
                                                  workers=workers), seed)

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

    critical, p_value = law.decide(statistic, alpha)
    return RoyResult(statistic=statistic, critical=critical, p_value=p_value,
                     alpha=alpha, null_reps=law.reps, seed=law.seed,
                     null_dimension=d, null_law=law.kind)

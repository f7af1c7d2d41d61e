"""Maximize a ratio of quadratic forms over a covariate box, exactly.

The object being maximized is R(t) = (e' A e) / (e' D e) where
e = (1, t_1, ..., t_p) prepends an intercept to the covariate point,
A is positive semidefinite and D positive definite. The region is a box:
a single point, a finite box (an interval when p = 1), or the whole
space. Boxes mixing finite and infinite bounds cannot be built.

One method serves every region: enumerate the faces of the box. A
maximum of R over the box lies in the relative interior of exactly one
face, on which each coordinate is fixed at its low bound, fixed at its
high bound, or free. Writing e = E_F w with w_0 = 1, R restricted to the
face is the Rayleigh quotient of the reduced pencil (E_F'AE_F, E_F'DE_F),
and every local maximum of a Rayleigh quotient is a global one. So an
interior maximum of a face is its top generalized eigenvalue, and the
face contributes that value only when the top eigenvector has w_0 != 0
and maps to a point strictly inside the face. A point box is one face
with nothing free; an interval has three faces (both endpoints and the
open interior); the whole space is the single all-free face with no
inside check, whose value is the top eigenvalue of (A, D). In general a
box has up to 3^p faces, and a coordinate with low == high is never free.

Everything about a face that depends only on D and the box is computed
once in a ``FacePlan``, and nothing about D leaves it. Numerators arrive
as plain factors W with A = W'W, so both statistics reach the solver
the same way: the Monte Carlo engine passes a stack of thousands of
simulated factors, ``sct_engine.observed_statistic`` one observed
factor. The plan folds each factor by D's Cholesky factor L into
V = W L^{-T} before it forms the Gram V'V = L^{-1} A L^{-T}. Folding
the factor, not the Gram, keeps far-from-origin covariates accurate:
forming W'W first and reducing it afterwards gave relative errors up to
9e-2, against 5e-5 this way, on two-group fits with covariates near
10^6 and a box 10^-2 wide.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, UnboundedBox, pair_of

# Relative gap within which face values count as tied when choosing an
# argmax: ties go to the face with the fewest free coordinates.
_TIE_RTOL = 1e-12
# A 3 x 3 matrix whose closed-form acos argument r has 1 + r below this
# goes to LAPACK. At 1e-2 the closed form stays within about 3e-15
# relative of LAPACK for top gaps from 1e-1 down to 0, and under 1% of
# Wishart Grams are recomputed.
_NEAR_DOUBLE_TOP = 1e-2


@dataclass(frozen=True)
class CovariateBox:
    """A product of closed coordinate intervals, possibly infinite.

    Each bound pair is (low, high) with low <= high; (-inf, inf) in
    every coordinate means the whole space. A box mixing finite and
    infinite bounds is refused when it is built (``UnboundedBox``).
    """

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        cleaned = []
        for pair in self.bounds:
            lo, hi = pair_of(pair, float, "a box bound must be two numbers (low, high)")
            if not lo <= hi:  # NaN is refused here too
                raise InvalidArgument(f"box bound ({lo}, {hi}) needs low <= high")
            cleaned.append((lo, hi))
        if not cleaned:
            raise InvalidArgument("box needs at least one coordinate")
        object.__setattr__(self, "bounds", tuple(cleaned))
        if not (self.is_finite or self.is_whole_space):
            raise UnboundedBox(
                "box must be a point, finite, or the whole space; "
                f"got bounds {self.bounds}")

    @classmethod
    def interval(cls, low: float, high: float) -> "CovariateBox":
        return cls(((low, high),))

    @classmethod
    def point(cls, *coords: float) -> "CovariateBox":
        return cls(tuple((float(c), float(c)) for c in coords))

    @classmethod
    def whole_space(cls, p: int) -> "CovariateBox":
        return cls(tuple((-math.inf, math.inf) for _ in range(p)))

    @property
    def p(self) -> int:
        return len(self.bounds)

    @property
    def is_finite(self) -> bool:
        return all(math.isfinite(lo) and math.isfinite(hi) for lo, hi in self.bounds)

    @property
    def is_whole_space(self) -> bool:
        return all(lo == -math.inf and hi == math.inf for lo, hi in self.bounds)

    @property
    def is_point(self) -> bool:
        return all(lo == hi for lo, hi in self.bounds)


def _top_2x2(a, b, c, vector: bool):
    """Top eigenvalue of [[a, b], [b, c]], elementwise, and (if asked) an
    eigenvector for it, stacked as (count, 2).

    Each eigenvector branch avoids cancellation; a multiple of the
    identity, where every direction is top, gets (1, 0).
    """
    half = 0.5 * (a - c)
    root = np.sqrt(half * half + b * b)
    lam = 0.5 * (a + c) + root
    if not vector:
        return lam, None
    first = half >= 0.0
    y = np.stack([np.where(first, half + root, b),
                  np.where(first, b, root - half)], axis=1)
    y[root == 0.0] = (1.0, 0.0)
    return lam, y


def top_eigenvalue(s: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each symmetric matrix in an (n, n, count)
    stack, replicate index last.

    Sizes 1 and 2 are closed forms. Size 3 uses the trigonometric form
    (Smith, CACM 1961): with q = tr(A)/3, p = ||A - qI||_F / sqrt(6) and
    r = det((A - qI)/p)/2, the top eigenvalue is q + 2p cos(acos(r)/3).
    Where the top two eigenvalues nearly coincide, r nears -1 and acos
    amplifies the rounding in r by about 1/sqrt(1 + r) (Kopp, 2008);
    those matrices, and multiples of the identity (p = 0), are
    recomputed by LAPACK. Larger sizes use LAPACK throughout. Only the
    upper triangle is read.
    """
    n = s.shape[0]
    if n == 1:
        return s[0, 0]
    if n == 2:
        return _top_2x2(s[0, 0], s[0, 1], s[1, 1], vector=False)[0]
    if n > 3:
        return np.linalg.eigvalsh(s.transpose(2, 0, 1), UPLO="U")[:, -1]
    a01, a02, a12 = s[0, 1], s[0, 2], s[1, 2]
    q = (s[0, 0] + s[1, 1] + s[2, 2]) / 3.0
    d0, d1, d2 = s[0, 0] - q, s[1, 1] - q, s[2, 2] - q
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2
                 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / p
        b00, b11, b22 = d0 * inv, d1 * inv, d2 * inv
        b01, b02, b12 = a01 * inv, a02 * inv, a12 * inv
        r = 0.5 * (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
                   + b02 * (b01 * b12 - b11 * b02))
    lam = q + 2.0 * p * np.cos(np.arccos(np.clip(r, -1.0, 1.0)) / 3.0)
    # NaN r (p = 0) fails the comparison and is recomputed too.
    near = ~(r > _NEAR_DOUBLE_TOP - 1.0)
    if near.any():
        lam[near] = np.linalg.eigvalsh(s[:, :, near].transpose(2, 0, 1),
                                       UPLO="U")[:, -1]
    return lam


@dataclass(frozen=True, eq=False)
class _Face:
    """One face of the box, reduced to orthonormal coordinates.

    With f = L'e (D = LL') and the face written as f = Q y with Q'Q = I,
    R on the face is y'(Q'A'Q)y / y'y for the folded numerator
    A' = L^{-1} A L^{-T}. ``rows`` locates the entries of Q'A'Q among the
    plan's reduced entries; ``rinv`` maps y back to
    w = (w_0, free coordinates times w_0).
    """

    free: np.ndarray
    fixed_point: np.ndarray
    rows: slice
    rinv: np.ndarray
    low: np.ndarray
    high: np.ndarray
    checked: bool

    @property
    def size(self) -> int:
        return 1 + self.free.size


class FacePlan:
    """Face enumeration of one box for one denominator D.

    A numerator A = W'W is passed as its factor W, m rows by p+1
    columns. D enters only here: its Cholesky factor L reduces each face
    once, when the plan is built, and folds each factor as it arrives.
    """

    def __init__(self, denominator, box: CovariateBox):
        d = np.asarray(denominator, dtype=float)
        p = box.p
        if d.shape != (p + 1, p + 1):
            raise InvalidArgument(f"box has p = {p}, denominator has p = {len(d) - 1}")
        whole = box.is_whole_space
        lower = np.linalg.cholesky(d)
        self._linv = np.linalg.inv(lower)
        # Per coordinate: its fixed values, then None for free.
        choices = [(None,) if whole else (lo,) if lo == hi else (lo, hi, None)
                   for lo, hi in box.bounds]
        combos = sorted(itertools.product(*choices),
                        key=lambda c: sum(v is None for v in c))
        self.faces: list[_Face] = []
        blocks = []
        start = 0
        for combo in combos:
            free = np.array([k for k, v in enumerate(combo) if v is None], dtype=int)
            fixed_point = np.array([0.0 if v is None else v for v in combo])
            embed = np.zeros((p + 1, 1 + free.size))
            embed[0, 0] = 1.0
            embed[1:, 0] = fixed_point
            embed[free + 1, np.arange(1, free.size + 1)] = 1.0
            q, r = np.linalg.qr(lower.T @ embed)
            # Row (a, b) of kron(Q, Q)' picks (Q'A'Q)[a, b] out of A' flattened.
            blocks.append(np.kron(q, q).T)
            n = (1 + free.size) ** 2
            self.faces.append(_Face(
                free=free, fixed_point=fixed_point, rows=slice(start, start + n),
                rinv=np.linalg.inv(r),
                low=np.array([box.bounds[k][0] for k in free]),
                high=np.array([box.bounds[k][1] for k in free]),
                checked=not whole))
            start += n
        self._coef = np.vstack(blocks)

    def _candidates(self, factors: np.ndarray, vectors: bool):
        """Per face: its candidate values (-inf where it has none) and
        its top vectors w in face coordinates, for an (m, p+1, count)
        stack of numerator factors. w is None for vertices, and for the
        unchecked whole-space face unless ``vectors`` asks."""
        count = factors.shape[2]
        # Row k of V = W L^{-T} is L^{-1} times row k of W. V and its Gram
        # are freed before the face loop, which keeps the heap a block
        # reuses smaller (fewer page faults per block).
        folded = self._linv @ factors
        gram = np.einsum("kib,kjb->ijb", folded, folded)
        entries = self._coef @ gram.reshape(-1, count)
        del folded, gram
        for face in self.faces:
            rows = entries[face.rows]
            size = face.size
            if size == 1 or not (vectors or face.checked):
                yield face, top_eigenvalue(rows.reshape(size, size, count)), None
                continue
            if size == 2:
                lam, y = _top_2x2(rows[0], rows[1], rows[3], vector=True)
            else:
                vals, vecs = np.linalg.eigh(rows.T.reshape(count, size, size))
                lam, y = vals[:, -1], vecs[:, :, -1]
            w = y @ face.rinv.T
            if face.checked:
                with np.errstate(divide="ignore", invalid="ignore"):
                    t = w[:, 1:] / w[:, :1]
                inside = ((t > face.low) & (t < face.high)).all(axis=1)
                lam = np.where(inside, lam, -np.inf)
            yield face, lam, w

    def sup(self, factors: np.ndarray) -> np.ndarray:
        """Supremum for each numerator factor in an (m, p+1, count) stack.

        The replicate index runs last so that each matrix entry is one
        contiguous vector.
        """
        out = None
        for _, lam, _ in self._candidates(factors, vectors=False):
            out = lam.copy() if out is None else np.maximum(out, lam, out=out)
        return out

    def sup_with_argmax(self, factor: np.ndarray) -> tuple[float, np.ndarray | None]:
        """Supremum and argmax for one (m, p+1) numerator factor.

        Ties, to within rounding, go to the face with the fewest free
        coordinates, and among those to the earlier one (low bounds
        before high ones). The argmax is None over the whole space when
        the top eigenvector has a zero intercept coordinate, in which
        case the supremum is a limit along a direction, not a point.
        """
        cands = [(float(lam[0]), face, None if w is None else w[0])
                 for face, lam, w in self._candidates(factor[:, :, None],
                                                      vectors=True)]
        best = max(value for value, _, _ in cands)
        for value, face, w in cands:
            if value >= best - _TIE_RTOL * abs(best):
                break
        point = face.fixed_point.copy()
        if w is not None:
            if abs(w[0]) <= 1e-9 * np.linalg.norm(w):
                return best, None
            point[face.free] = w[1:] / w[0]
        return best, point

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

The batched ``FacePlan.sup`` allocates none of its large arrays: the
folded factors, their Grams and the face entries go into a caller's
``workspace``, reused block after block, and each face's values are
folded into the caller's running maximum. Only the closed forms' and
LAPACK's per-face temporaries are fresh.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, UnboundedBox, items_of, pair_of

# Relative gap within which face values count as tied when choosing an
# argmax: ties go to the face with the fewest free coordinates.
_TIE_RTOL = 1e-12
# A 3 x 3 matrix whose closed-form acos argument r has 1 + r below this
# goes to LAPACK. At 1e-2 the closed form stays within about 3e-15
# relative of LAPACK for top gaps from 1e-1 down to 0, and under 1% of
# Wishart Grams are recomputed.
_NEAR_DOUBLE_TOP = 1e-2
# Vectors of scratch per replicate for the 3 x 3 form of ``top_eigenvalue``.
_TOP3_ROWS = 13


def _take(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The leading entries of the flat buffer ``buf`` as a C-ordered
    array of ``shape``: a short block's arrays are contiguous prefixes
    of the full block's buffers, laid out as fresh arrays would be."""
    return buf[:math.prod(shape)].reshape(shape)


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
        items = items_of(self.bounds, "box bounds must be a sequence of (low, high) pairs")
        for pair in items:
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


def top_eigenvalue(s: np.ndarray, work: np.ndarray) -> np.ndarray:
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

    The size-3 form computes in the flat buffer ``work`` (at least
    ``_TOP3_ROWS * count`` entries) and returns a view of it: its
    thirteen vectors per block would otherwise be fresh arrays, which
    the allocator hands back to the OS and faults in again on every
    block.
    """
    n = s.shape[0]
    if n == 1:
        return s[0, 0]
    if n == 2:
        return _top_2x2(s[0, 0], s[0, 1], s[1, 1], vector=False)[0]
    if n > 3:
        return np.linalg.eigvalsh(s.transpose(2, 0, 1), UPLO="U")[:, -1]
    a00, a11, a22, a01, a02, a12 = s[0, 0], s[1, 1], s[2, 2], s[0, 1], s[0, 2], s[1, 2]
    q, p, inv, b00, b11, b22, b01, b02, b12, r, t, x, lam = _take(
        work, _TOP3_ROWS, s.shape[2])
    # q = (a00 + a11 + a22) / 3, and b = A - qI on the diagonal for now.
    np.add(a00, a11, out=q)
    q += a22
    q /= 3.0
    np.subtract(a00, q, out=b00)
    np.subtract(a11, q, out=b11)
    np.subtract(a22, q, out=b22)
    # p = sqrt((b00^2 + b11^2 + b22^2 + 2 (a01^2 + a02^2 + a12^2)) / 6).
    np.multiply(b00, b00, out=p)
    p += np.multiply(b11, b11, out=t)
    p += np.multiply(b22, b22, out=t)
    np.multiply(a01, a01, out=x)
    x += np.multiply(a02, a02, out=t)
    x += np.multiply(a12, a12, out=t)
    x *= 2.0
    p += x
    p /= 6.0
    np.sqrt(p, out=p)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(1.0, p, out=inv)
        b00 *= inv
        b11 *= inv
        b22 *= inv
        np.multiply(a01, inv, out=b01)
        np.multiply(a02, inv, out=b02)
        np.multiply(a12, inv, out=b12)
        # r = (b00 (b11 b22 - b12^2) - b01 (b01 b22 - b12 b02)
        #      + b02 (b01 b12 - b11 b02)) / 2
        np.multiply(b11, b22, out=x)
        x -= np.multiply(b12, b12, out=t)
        np.multiply(b00, x, out=r)
        np.multiply(b01, b22, out=x)
        x -= np.multiply(b12, b02, out=t)
        r -= np.multiply(b01, x, out=t)
        np.multiply(b01, b12, out=x)
        x -= np.multiply(b11, b02, out=t)
        r += np.multiply(b02, x, out=t)
        r *= 0.5
    # lam = q + 2p cos(acos(r) / 3), r clipped to [-1, 1].
    np.clip(r, -1.0, 1.0, out=x)
    np.arccos(x, out=x)
    x /= 3.0
    np.cos(x, out=x)
    np.multiply(2.0, p, out=lam)
    lam *= x
    lam += q
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
        # Only the whole space's one face needs no inside check.
        self._checked = not whole
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
                high=np.array([box.bounds[k][1] for k in free])))
            start += n
        self._coef = np.vstack(blocks)

    def workspace(self, m: int, count: int) -> tuple[np.ndarray, ...]:
        """Flat buffers for ``sup`` on stacks of up to ``count`` factors
        of m rows: the folded factors, their Grams, the face entries and
        ``top_eigenvalue``'s scratch. Plans over boxes with the same
        faces can share one."""
        n = self._linv.shape[0]
        return (np.empty(m * n * count), np.empty(n * n * count),
                np.empty(self._coef.shape[0] * count),
                np.empty(_TOP3_ROWS * count))

    def _candidates(self, factors: np.ndarray, vectors: bool, work):
        """Per face: its candidate values (-inf where it has none) and
        its top vectors w in face coordinates, for an (m, p+1, count)
        stack of numerator factors, computed in the buffers ``work``
        (see ``workspace``). w is None for vertices, and for the
        unchecked whole-space face unless ``vectors`` asks."""
        m, n, count = factors.shape
        fold, gram, entries, closed = work
        # Row k of V = W L^{-T} is L^{-1} times row k of W.
        folded = np.matmul(self._linv, factors, out=_take(fold, m, n, count))
        gram = np.einsum("kib,kjb->ijb", folded, folded,
                         out=_take(gram, n, n, count))
        entries = np.matmul(self._coef, gram.reshape(n * n, count),
                            out=_take(entries, self._coef.shape[0], count))
        for face in self.faces:
            rows = entries[face.rows]
            size = face.size
            if size == 1 or not (vectors or self._checked):
                yield face, top_eigenvalue(rows.reshape(size, size, count), closed), None
                continue
            if size == 2:
                lam, y = _top_2x2(rows[0], rows[1], rows[3], vector=True)
            else:
                vals, vecs = np.linalg.eigh(rows.T.reshape(count, size, size))
                lam, y = vals[:, -1], vecs[:, :, -1]
            w = y @ face.rinv.T
            if self._checked:
                with np.errstate(divide="ignore", invalid="ignore"):
                    t = w[:, 1:] / w[:, :1]
                inside = ((t > face.low) & (t < face.high)).all(axis=1)
                lam = np.where(inside, lam, -np.inf)
            yield face, lam, w

    def sup(self, factors: np.ndarray, work, out: np.ndarray) -> None:
        """Fold the supremum for each numerator factor in an
        (m, p+1, count) stack into the running maximum ``out`` (count).

        The replicate index runs last so that each matrix entry is one
        contiguous vector. ``work`` is a ``workspace`` for at least
        ``count`` factors; it holds the folded factors, their Grams and
        the face entries, so one worker's blocks reuse the same memory.
        """
        for _, lam, _ in self._candidates(factors, False, work):
            np.maximum(out, lam, out=out)

    def sup_with_argmax(self, factor: np.ndarray) -> tuple[float, np.ndarray | None]:
        """Supremum and argmax for one (m, p+1) numerator factor.

        Ties, to within rounding, go to the face with the fewest free
        coordinates, and among those to the earlier one (low bounds
        before high ones). The argmax is None over the whole space when
        the top eigenvector has a zero intercept coordinate, in which
        case the supremum is a limit along a direction, not a point.
        """
        work = self.workspace(len(factor), 1)
        cands = [(float(lam[0]), face, None if w is None else w[0])
                 for face, lam, w in self._candidates(factor[:, :, None],
                                                      True, work)]
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

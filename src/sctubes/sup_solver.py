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
face contributes that value only when its top eigenvector w maps to a
point strictly inside the face: for each free coordinate k,
(w_k - lo_k w_0)(hi_k w_0 - w_k) > 0, which also rules out w_0 = 0.
That product is a quadratic form in the eigenvector, so a face with one
free coordinate decides it from the same numbers as its closed-form
eigenvalue, with no eigenvector (see ``_Face``). A point box is one face
with nothing free; an interval has three faces (both endpoints and the
open interior); the whole space is the single all-free face with no
inside check, whose value is the top eigenvalue of (A, D). In general a
box has up to 3^p faces, and a coordinate with low == high is never free.

Everything about a face that depends only on D and the box is computed
once in a ``FacePlan``, and nothing about D leaves it. Numerators arrive
as plain factors W with A = W'W, so both statistics reach the solver
the same way: the Monte Carlo engine passes a stack of thousands of
simulated factors, ``sct_engine.observed_statistic`` one observed
factor. Both take the same face values from the same closed forms, by
one code path (``FacePlan._candidates``); the observed statistic adds
one eigenvector, of the winning face, for its argmax. Each face holds
one linear map, which takes W to the face's own factor, and the face's
matrix is the Gram of that mapped factor. So no face value can be
negative, and the rounding grows with the conditioning of the mapped
factor, not with its square. Forming a Gram before reducing it to the
face is what squares it. Forming W'W first gave relative errors up to
9e-2 on two-group fits with covariates near 10^6 and a box 10^-2 wide.
On 300 random point boxes (p = 1 to 3, m = 1 or 2) where ||We|| is 1e-8
of ||W|| ||e||, forming the Gram of W L^{-T} first gave relative errors
up to 25 and 12 negative values; mapping the factor gives 1e-8. Faces
with no inside test use the smaller Gram (``top_gram_eigenvalue``).

The batched ``FacePlan.sup`` allocates none of its large arrays: the
mapped factors, the face entries, the closed forms' scratch and the
inside tests' forms come from the caller's scratch cache (``_scratch``),
reused block after block, and each face's values are folded into the
caller's running maximum. The face entries are formed one face at a
time, in buffers of at most m(p+1) and (p+1)^2 rows per replicate that
every face reuses, so the cache does not grow with the 3^p faces. Only
LAPACK's outputs are fresh.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, UnboundedBox, index_of, items_of, pair_of

# Relative gap within which face values count as tied when choosing an
# argmax: ties go to the face with the fewest free coordinates.
_TIE_RTOL = 1e-12
# A 3 x 3 matrix whose closed-form acos argument r has 1 + r below this
# goes to LAPACK. At 1e-2 the closed form stays within about 3e-15
# relative of LAPACK for top gaps from 1e-1 down to 0, and under 1% of
# Wishart Grams are recomputed.
_NEAR_DOUBLE_TOP = 1e-2


def _scratch(cache: dict, key, *shape: int, dtype=float) -> np.ndarray:
    """A C-ordered array of ``shape`` over the leading entries of the
    flat buffer ``cache[key]``, which is allocated (as ``dtype``) only
    when it is missing or too small.

    One worker's kernel functions take every per-block array from one
    such dict, each role under its own key, so a worker's blocks reuse
    the same memory and a short block's arrays are contiguous prefixes
    of the full block's, laid out as fresh arrays would be. Arrays that
    must be live at the same time never share a key.
    """
    size = math.prod(shape)
    buf = cache.get(key)
    if buf is None or buf.size < size:
        buf = cache[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


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
        return cls(tuple((c, c) for c in coords))

    @classmethod
    def whole_space(cls, p: int) -> "CovariateBox":
        return cls(((-math.inf, math.inf),) * index_of(p, "covariate count"))

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


def _top_2x2(s: np.ndarray, cache: dict):
    """Top eigenvalue of each [[a, b], [b, c]] in a (2, 2, count) stack,
    with the half = (a - c)/2 and root = sqrt(half^2 + b^2) it is made
    of: lam = (a + c)/2 + root. All three are views of the scratch
    cache's ``"top2"`` buffer."""
    a, b, c = s[0, 0], s[0, 1], s[1, 1]
    half, root, lam = _scratch(cache, "top2", 3, s.shape[2])
    np.subtract(a, c, out=half)
    half *= 0.5
    np.multiply(half, half, out=root)
    root += np.multiply(b, b, out=lam)
    np.sqrt(root, out=root)
    np.add(a, c, out=lam)
    lam *= 0.5
    lam += root
    return lam, half, root


def _drop_outside(lam: np.ndarray, margin: np.ndarray, cache: dict) -> None:
    """Set ``lam`` to -inf wherever ``margin`` is not positive."""
    outside = _scratch(cache, "outside", margin.size, dtype=bool)
    np.putmask(lam, np.less_equal(margin, 0.0, out=outside), -np.inf)


def top_eigenvalue(s: np.ndarray, cache: dict) -> np.ndarray:
    """Largest eigenvalue of each symmetric matrix in an (n, n, count)
    stack, replicate index last.

    Sizes 1 and 2 are closed forms (``_top_2x2``). Size 3 uses the
    trigonometric form (Smith, CACM 1961): with q = tr(A)/3,
    p = ||A - qI||_F / sqrt(6) and r = det((A - qI)/p)/2, the top
    eigenvalue is q + 2p cos(acos(r)/3).
    Where the top two eigenvalues nearly coincide, r nears -1 and acos
    amplifies the rounding in r by about 1/sqrt(1 + r) (Kopp, 2008);
    those matrices, and multiples of the identity (p = 0), are
    recomputed by LAPACK. Larger sizes use LAPACK throughout. Only the
    upper triangle is read.

    The size-3 form computes in the scratch cache's ``"top3"`` buffer
    and returns a view of it: its thirteen vectors per block would
    otherwise be fresh arrays, which the allocator hands back to the OS
    and faults in again on every block.
    """
    n = s.shape[0]
    if n == 1:
        return s[0, 0]
    if n == 2:
        return _top_2x2(s, cache)[0]
    if n > 3:
        return np.linalg.eigvalsh(s.transpose(2, 0, 1), UPLO="U")[:, -1]
    a00, a11, a22, a01, a02, a12 = s[0, 0], s[1, 1], s[2, 2], s[0, 1], s[0, 2], s[1, 2]
    q, p, inv, b00, b11, b22, b01, b02, b12, r, t, x, lam = _scratch(
        cache, "top3", 13, s.shape[2])
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


def top_gram_eigenvalue(factors: np.ndarray, cache: dict) -> np.ndarray:
    """Largest eigenvalue of the Gram of each factor F in a (rows, cols,
    count) stack, taken from the smaller of F F' and F'F (F'F, a face's
    own side, on a tie), which share their nonzero spectrum, formed in
    the scratch cache's ``"gram"`` buffer: a closed form up to size 3."""
    rows, cols, count = factors.shape
    spec, side = ("ikb,jkb->ijb", rows) if rows < cols else ("kib,kjb->ijb", cols)
    out = _scratch(cache, "gram", side, side, count)
    return top_eigenvalue(np.einsum(spec, factors, factors, out=out), cache)


@dataclass(frozen=True, eq=False)
class _Face:
    """One face of the box, reduced to orthonormal coordinates.

    With f = L'e (D = LL') and the face written as f = Q y with Q'Q = I,
    R on the face is y'(Q'L^{-1} A L^{-T}Q)y / y'y. The face's points
    are e = E w for its embedding E, and L'E = QR, so ``coef`` =
    (E R^{-1})' = (L^{-T}Q)' maps each row of a numerator factor W
    (A = W'W) onto the face: the face's matrix is the Gram of the mapped
    factor. ``rinv`` maps y back to w = (w_0, free coordinates times
    w_0).

    A top vector y lies strictly inside the face exactly when, for each
    free coordinate k, (w_k - lo_k w_0)(hi_k w_0 - w_k) > 0: both forms
    are linear in y, and w_0 = 0 makes their product -w_k^2. A finite
    face with two or more free coordinates holds those forms as the
    rows of ``sides`` (every low form, then every high form). With one
    free coordinate the product is y'Qy, Q = (s_lo s_hi' + s_hi s_lo')/2.
    For the face matrix M = [[a, b], [b, c]] with half = (a - c)/2 and
    root = sqrt(half^2 + b^2), a unit top vector u has
    uu' = (M - lam_min I)/(2 root), so u'Qu > 0 exactly when
    (Q_00 - Q_11) half + 2 Q_01 b + (Q_00 + Q_11) root > 0; ``sign``
    holds those three constants. Where root = 0 every direction is top,
    the sum is 0 and the face's value is left to its endpoints, which
    attain it. A vertex and the whole space hold None in both: they
    have no test, and their value is ``top_gram_eigenvalue``'s.
    """

    free: np.ndarray
    fixed_point: np.ndarray
    coef: np.ndarray
    rinv: np.ndarray
    low: np.ndarray
    high: np.ndarray
    sides: np.ndarray | None
    sign: tuple[float, float, float] | None


class FacePlan:
    """Face enumeration of one box for one denominator D.

    A numerator A = W'W is passed as its factor W, m rows by p+1
    columns. D enters only here: its Cholesky factor L reduces each face
    to one map once, when the plan is built, along with the constants
    of its inside test (see ``_Face``): the three of the sign rule for
    a face with one free coordinate, the side forms for a larger one.
    """

    def __init__(self, denominator, box: CovariateBox):
        d = np.asarray(denominator, dtype=float)
        p = box.p
        if d.shape != (p + 1, p + 1):
            raise InvalidArgument(f"box has p = {p}, denominator has p = {len(d) - 1}")
        whole = box.is_whole_space
        lower = np.linalg.cholesky(d)
        # Per coordinate: its fixed values, then None for free.
        choices = [(None,) if whole else (lo,) if lo == hi else (lo, hi, None)
                   for lo, hi in box.bounds]
        combos = sorted(itertools.product(*choices),
                        key=lambda c: sum(v is None for v in c))
        self.faces: list[_Face] = []
        for combo in combos:
            free = np.array([k for k, v in enumerate(combo) if v is None], dtype=int)
            fixed_point = np.array([0.0 if v is None else v for v in combo])
            embed = np.zeros((p + 1, 1 + free.size))
            embed[:, 0] = np.concatenate(([1.0], fixed_point))
            embed[free + 1, np.arange(1, free.size + 1)] = 1.0
            rinv = np.linalg.inv(np.linalg.qr(lower.T @ embed)[1])
            low = np.array([box.bounds[k][0] for k in free])
            high = np.array([box.bounds[k][1] for k in free])
            # Row k of rinv gives w_k as a form in y.
            sides = sign = None
            if not whole and free.size == 1:
                (r00, r01), (r10, r11) = rinv.tolist()
                (lo,), (hi,) = low.tolist(), high.tolist()
                l0, l1 = r10 - lo * r00, r11 - lo * r01
                h0, h1 = hi * r00 - r10, hi * r01 - r11
                sign = (l0 * h0 - l1 * h1, l0 * h1 + l1 * h0, l0 * h0 + l1 * h1)
            elif not whole and free.size:
                sides = np.concatenate([rinv[1:] - low[:, None] * rinv[0],
                                        high[:, None] * rinv[0] - rinv[1:]])
            self.faces.append(_Face(
                free=free, fixed_point=fixed_point, coef=(embed @ rinv).T, rinv=rinv,
                low=low, high=high, sides=sides, sign=sign))

    def _candidates(self, factors: np.ndarray, cache: dict):
        """Per face: its candidate values (-inf where it has none), for an
        (m, p+1, count) stack of numerator factors, computed in the
        scratch ``cache``.

        Each face is dispatched on its inside test (see ``_Face``). A
        face with ``sign`` takes ``_top_2x2`` and the sign rule, made of
        the closed form's own numbers; a face with no test (a vertex, or
        the whole space) takes ``top_gram_eigenvalue`` of its mapped
        factor; a face with ``sides`` takes a batched ``eigh``, whose
        top eigenvector must give each free coordinate's two side forms
        a positive product.

        A face's factor and Gram are formed only when the face is
        visited, in ``"face_factor"`` and ``"gram"`` buffers that every
        face reuses. So a yielded value can be a view of ``"gram"``
        (vertices), ``"top2"`` or ``"top3"``: a caller must use it
        before it advances the generator. Only LAPACK's eigenvalues and
        eigenvectors are fresh arrays."""
        m, _, count = factors.shape
        for face in self.faces:
            size = 1 + face.free.size
            # Row k of W maps to row k of W L^{-T} Q.
            mapped = np.matmul(face.coef, factors,
                               out=_scratch(cache, "face_factor", m, size, count))
            if face.sign is None and face.sides is None:
                yield face, top_gram_eigenvalue(mapped, cache)
                continue
            rows = np.einsum("kib,kjb->ijb", mapped, mapped,
                             out=_scratch(cache, "gram", size, size, count))
            if face.sign is not None:
                lam, half, root = _top_2x2(rows, cache)
                k0, k1, k2 = face.sign
                margin, term = _scratch(cache, "margin", 2, count)
                np.multiply(half, k0, out=margin)
                margin += np.multiply(rows[0, 1], k1, out=term)
                margin += np.multiply(root, k2, out=term)
                _drop_outside(lam, margin, cache)
            else:
                vals, vecs = np.linalg.eigh(rows.transpose(2, 0, 1))
                lam = vals[:, -1]
                f = face.free.size
                forms = np.matmul(face.sides, vecs[:, :, -1].T,
                                  out=_scratch(cache, "forms", 2 * f, count))
                np.multiply(forms[:f], forms[f:], out=forms[:f])
                margin = np.min(forms[:f], axis=0, out=_scratch(cache, "margin", count))
                _drop_outside(lam, margin, cache)
            yield face, lam

    def sup(self, factors: np.ndarray, cache: dict, out: np.ndarray) -> None:
        """Fold the supremum for each numerator factor in an
        (m, p+1, count) stack into the running maximum ``out`` (count).

        The replicate index runs last so that each matrix entry is one
        contiguous vector. The mapped factors, the face entries, the
        closed forms' and the inside tests' scratch come from the scratch
        ``cache`` (see ``_scratch``), so one worker's blocks, and the
        faces and pairs within a block, reuse the same memory.
        """
        for _, lam in self._candidates(factors, cache):
            np.maximum(out, lam, out=out)

    def sup_with_argmax(self, factor: np.ndarray) -> tuple[float, np.ndarray | None]:
        """Supremum and argmax for one (m, p+1) numerator factor.

        The face values are ``sup``'s own candidates, so the supremum
        equals a one-column ``sup`` exactly. Ties, to within rounding, go
        to the face with the fewest free coordinates, and among those to
        the earlier one (low bounds before high ones). The winning face,
        if it has free coordinates, forms the one eigenvector: ``eigh``
        of its mapped Gram. The argmax is None over the whole space when
        that vector has a zero intercept coordinate, in which case the
        supremum is a limit along a direction, not a point. A maximiser
        within rounding of an endpoint is clipped to the face's bounds.
        """
        cands = [(float(lam[0]), face)
                 for face, lam in self._candidates(factor[:, :, None], {})]
        best = max(value for value, _ in cands)
        for value, face in cands:
            if value >= best - _TIE_RTOL * abs(best):
                break
        point = face.fixed_point.copy()
        if face.free.size:
            mapped = factor @ face.coef.T
            y = np.linalg.eigh(mapped.T @ mapped)[1][:, -1]
            w = face.rinv @ y
            if abs(w[0]) <= 1e-9 * np.linalg.norm(w):
                return best, None
            point[face.free] = np.clip(w[1:] / w[0], face.low, face.high)
        return best, point

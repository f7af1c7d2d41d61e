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
That product is a quadratic form in the unit eigenvector u, so it has
the sign of the same form in N = adj(lam I - M) for the face matrix M
and its top eigenvalue lam: by Sylvester's formula N is lam's spectral
projector uu' times the positive prod_{j>=2} (lam - lam_j) when lam is
simple (Horn & Johnson, Topics in Matrix Analysis, 1991). Every face
with free coordinates takes this one test (see ``_Face``). Up to size
3, N is a closed form in lam and the test needs no eigenvector; only a
larger face (p = 3's interior) and a face whose top two eigenvalues
nearly coincide read N = uu' from LAPACK's. A point box is one face with
nothing free; an interval has three faces (both endpoints and the open
interior); the whole space is the single all-free face with no inside
check, whose value is the top eigenvalue of (A, D). In general a box
has up to 3^p faces, and a coordinate with low == high is never free.

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
inside tests' projectors and margins come from the caller's scratch
cache (``_scratch``), reused block after block, and each face's values
are folded into the caller's running maximum. The face entries are
formed one face at a time, in buffers of at most m(p+1) and (p+1)^2
rows per replicate that every face reuses, so the cache does not grow
with the 3^p faces. Only LAPACK's outputs, and the projector entries
formed from its eigenvectors, are fresh.
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
# The closed-form projector N of a 3 x 3 face carries rounding of about
# eps lam^2 in every entry, against a trace of (lam - lam_2)(lam - lam_3).
# Where that trace is below this multiple of lam^2 (the top two, or all
# three, eigenvalues nearly coincide), the face's replicates take
# LAPACK's eigenvector instead. Above it, a test that the rounding flips
# has its maximiser so near the face's boundary that the value moves by
# of order (eps / 1e-6)^2 relative; Wishart Grams almost never fall below.
_NOISY_PROJECTOR = 1e-6


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
    cache's ``"top2"`` buffer. The same terms give the matrix's
    projector (see ``_top_projector``)."""
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


def _cofactors(b00, b11, b22, b01, b02, b12, out, t):
    """The upper triangle of adj(B), row by row, into the rows of
    ``out`` (as many entries as it has rows), for the symmetric 3 x 3 B
    with the given entries (vectors over a stack), with ``t`` as
    scratch: each entry is x y - u v for four of B's entries. Returns
    ``out``."""
    terms = ((b11, b22, b12, b12), (b02, b12, b01, b22), (b01, b12, b11, b02),
             (b00, b22, b02, b02), (b01, b02, b00, b12), (b00, b11, b01, b01))
    for c, (x, y, u, v) in zip(out, terms):
        np.multiply(x, y, out=c)
        c -= np.multiply(u, v, out=t)
    return out


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
    and returns a view of it: its sixteen vectors per block would
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
    buf = _scratch(cache, "top3", 16, s.shape[2])
    q, p, inv, b00, b11, b22, b01, b02, b12, r, t, x, lam = buf[:13]
    # q = (a00 + a11 + a22) / 3, and b = A - qI on the diagonal for now.
    np.add(a00, a11, out=q)
    q += a22
    q /= 3.0
    np.subtract(np.diagonal(s).T, q, out=buf[3:6])
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
        buf[3:6] *= inv
        np.multiply(a01, inv, out=b01)
        np.multiply(a02, inv, out=b02)
        np.multiply(a12, inv, out=b12)
        # r = det(B)/2, expanded along B's first row.
        c00, c01, c02 = _cofactors(b00, b11, b22, b01, b02, b12, buf[13:], t)
        np.multiply(b00, c00, out=r)
        r += np.multiply(b01, c01, out=t)
        r += np.multiply(b02, c02, out=t)
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
        lam[near] = np.linalg.eigvalsh(s[..., near].transpose(2, 0, 1), UPLO="U")[:, -1]
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


def _lapack_projector(s: np.ndarray):
    """Top eigenvalue of each symmetric matrix in an (n, n, count)
    stack, and the upper triangle of uu' for its unit top eigenvector u,
    row by row, as an (n(n+1)/2, count) array, both from LAPACK's
    ``eigh``. Only the upper triangle is read."""
    vals, vecs = np.linalg.eigh(s.transpose(2, 0, 1), UPLO="U")
    rows, cols = np.triu_indices(s.shape[0])
    return vals[:, -1], vecs[:, rows, -1].T * vecs[:, cols, -1].T


def _top_projector(s: np.ndarray, cache: dict):
    """Top eigenvalue lam of each symmetric matrix M in an (n, n, count)
    stack, n >= 2, and N = adj(lam I - M): a positive multiple of the top
    eigenvector's outer product, or 0 where lam is multiple (see
    ``_Face``). N is given by the coordinates its inside tests read.

    Sizes 2 and 3 are closed forms in lam. At size 2, N = M - (tr M -
    lam) I = root I + [[half, b], [b, -half]] in ``_top_2x2``'s own
    terms, and its coordinates are (half, b, root). At size 3 they are
    N's upper triangle, row by row: each entry is a 2 x 2 cofactor
    (``_cofactors``) of M - lam I, whose adjugate is the same, with lam
    from ``top_eigenvalue``, in the scratch cache's ``"projector"``
    buffer. That is N = M^2 - (tr M - lam) M + (c2 - lam (tr M - lam)) I,
    c2 the sum of M's principal 2 x 2 minors. Where it is rounding noise
    (``_NOISY_PROJECTOR``), and at size 4 and above, lam and the upper
    triangle of N = uu' come from LAPACK (``_lapack_projector``).
    """
    n, _, count = s.shape
    if n == 2:
        lam, half, root = _top_2x2(s, cache)
        return lam, (half, s[0, 1], root)
    if n > 3:
        return _lapack_projector(s)
    lam, buf = top_eigenvalue(s, cache), _scratch(cache, "projector", 11, count)
    np.subtract(np.diagonal(s).T, lam, out=buf[:3])
    entries = _cofactors(*buf[:3], s[0, 1], s[0, 2], s[1, 2], buf[4:10], buf[3])
    # tr N = (lam - lam_2)(lam - lam_3); NaN fails the comparison too.
    trace, scale = np.add(entries[0], entries[3], out=buf[3]), buf[10]
    trace += entries[5]
    np.multiply(lam, _NOISY_PROJECTOR, out=scale)
    noisy = ~(trace > np.multiply(scale, lam, out=scale))
    if noisy.any():
        lam[noisy], entries[:, noisy] = _lapack_projector(s[..., noisy])
    return lam, entries


def _drop_outside(lam: np.ndarray, test: np.ndarray, coords, cache: dict) -> None:
    """Set ``lam`` to -inf wherever some row of ``test``, a linear form
    in the coordinates of N (``_top_projector``), is not positive. Each
    form is a sum of multiply-adds in the scratch cache's ``"margin"``
    buffer."""
    form, term = _scratch(cache, "margin", 2, lam.shape[0])
    for first, *rest in test.tolist():
        np.multiply(coords[0], first, out=form)
        for coef, coord in zip(rest, coords[1:]):
            form += np.multiply(coord, coef, out=term)
        np.putmask(lam, form <= 0.0, -np.inf)


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
    free coordinate k, (s_lo'y)(s_hi'y) > 0 with s_lo'y = w_k - lo_k w_0
    and s_hi'y = hi_k w_0 - w_k: both forms are linear in y, and w_0 = 0
    makes their product -w_k^2. For the face matrix M with top eigenvalue
    lam and unit top vector u, N = adj(lam I - M) is
    prod_{j>=2} (lam - lam_j) uu' (Sylvester's formula; Horn & Johnson,
    Topics in Matrix Analysis, 1991), so where lam is simple the product
    has the sign of s_lo' N s_hi, a linear form in N. A finite face with
    free coordinates holds that form's coefficients in ``test``, one row
    per free coordinate, in the coordinates ``_top_projector`` gives N
    by. Where lam is multiple, the closed forms give N = 0: the margin
    is 0 and the face's value is left to its subfaces, which attain it,
    since the top eigenspace then holds a line of the face's points, and
    a line that meets the bounded open face meets its boundary. A vertex
    and the whole space hold None: they have no test, and their value is
    ``top_gram_eigenvalue``'s.
    """

    free: np.ndarray
    fixed_point: np.ndarray
    coef: np.ndarray
    rinv: np.ndarray
    low: np.ndarray
    high: np.ndarray
    test: np.ndarray | None


class FacePlan:
    """Face enumeration of one box for one denominator D.

    A numerator A = W'W is passed as its factor W, m rows by p+1
    columns. D enters only here: its Cholesky factor L reduces each face
    to one map once, when the plan is built, along with the coefficients
    of its inside test (see ``_Face``).
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
            embed = np.column_stack([np.append(1.0, fixed_point), np.eye(p + 1)[:, free + 1]])
            rinv = np.linalg.inv(np.linalg.qr(lower.T @ embed)[1])
            low, high = np.array([box.bounds[k] for k in free]).reshape(-1, 2).T
            test = None
            if not whole and free.size:
                # Row k of rinv gives w_k as a form in y. Over N's upper
                # triangle, s_lo' N s_hi takes N_ij and N_ji alike off the
                # diagonal; at size 2, N_00 = root + half, N_11 = root - half.
                s_lo = rinv[1:] - low[:, None] * rinv[0]
                s_hi = high[:, None] * rinv[0] - rinv[1:]
                i, j = np.triu_indices(1 + free.size)
                test = s_lo[:, i] * s_hi[:, j] + (i != j) * s_lo[:, j] * s_hi[:, i]
                if free.size == 1:
                    test = test @ [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]
            self.faces.append(_Face(free, fixed_point, (embed @ rinv).T, rinv,
                                    low, high, test))

    def _candidates(self, factors: np.ndarray, cache: dict):
        """Per face: its candidate values (-inf where it has none), for an
        (m, p+1, count) stack of numerator factors, computed in the
        scratch ``cache``.

        A face with no inside test (a vertex, or the whole space) takes
        ``top_gram_eigenvalue`` of its mapped factor. A face with a test
        takes the top eigenvalue and its projector N from its mapped
        factor's Gram (``_top_projector``), and drops the value wherever
        a row of ``test`` reads N as not positive (``_drop_outside``).

        A face's factor and Gram are formed only when the face is
        visited, in ``"face_factor"`` and ``"gram"`` buffers that every
        face reuses. So a yielded value can be a view of ``"gram"``
        (vertices), ``"top2"`` or ``"top3"``: a caller must use it
        before it advances the generator. Only LAPACK's outputs, and the
        projector entries formed from its eigenvectors, are fresh."""
        m, _, count = factors.shape
        for face in self.faces:
            size = 1 + face.free.size
            # Row k of W maps to row k of W L^{-T} Q.
            mapped = np.matmul(face.coef, factors,
                               out=_scratch(cache, "face_factor", m, size, count))
            if face.test is None:
                yield face, top_gram_eigenvalue(mapped, cache)
                continue
            gram = np.einsum("kib,kjb->ijb", mapped, mapped,
                             out=_scratch(cache, "gram", size, size, count))
            lam, coords = _top_projector(gram, cache)
            _drop_outside(lam, face.test, coords, cache)
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
        face = next(f for v, f in cands if v >= best - _TIE_RTOL * abs(best))
        point = face.fixed_point.copy()
        if face.free.size:
            mapped = factor @ face.coef.T
            y = np.linalg.eigh(mapped.T @ mapped)[1][:, -1]
            w = face.rinv @ y
            if abs(w[0]) <= 1e-9 * np.linalg.norm(w):
                return best, None
            point[face.free] = np.clip(w[1:] / w[0], face.low, face.high)
        return best, point

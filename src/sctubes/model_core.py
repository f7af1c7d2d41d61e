"""Grouped multivariate regression data and per-group least squares.

A dataset is k groups observing the same p covariates and m responses.
Group i contributes a design matrix (n_i rows, intercept column first)
and a response matrix. Fitting is ordinary least squares per group via
QR, plus the pooled residual scatter that every downstream procedure
divides by.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateScatter,
    InputDataError,
    InsufficientObservations,
    InvalidArgument,
    RankDeficientDesign,
    ShapeMismatch,
)

# Smallest singular value ratio accepted for a design with its columns
# scaled to unit norm. Least squares does not depend on the units of a
# covariate, and unit-norm columns bring the condition number within a
# factor sqrt(p + 1) of its minimum over all column scalings (van der
# Sluis, "Condition numbers and equilibration of matrices", 1969). The
# cross-product inverses, scaled alike, have the square of that
# condition number; below this ratio their Cholesky factorizations in
# the simulation can fail.
_RANK_RTOL = 1e-7


@dataclass(frozen=True)
class GroupData:
    """One group's observations.

    ``design`` is n x (p+1) with the intercept column of ones first;
    ``response`` is n x m. ``label`` names the group in reports.
    """

    label: str
    design: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        design = np.asarray(self.design, dtype=float)
        response = np.asarray(self.response, dtype=float)
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "response", response)
        if design.ndim != 2 or response.ndim != 2:
            raise ShapeMismatch(
                f"group {self.label!r}: design and response must be 2-d")
        if design.shape[0] != response.shape[0]:
            raise ShapeMismatch(
                f"group {self.label!r}: {design.shape[0]} design rows vs "
                f"{response.shape[0]} response rows")
        if design.shape[1] < 2 or response.shape[1] < 1:
            raise ShapeMismatch(
                f"group {self.label!r}: need at least one covariate and one response")

    @property
    def n(self) -> int:
        return self.design.shape[0]


@dataclass(frozen=True)
class GroupedDataset:
    """An ordered collection of groups sharing covariate/response layout."""

    groups: tuple[GroupData, ...]

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise ShapeMismatch("dataset has no groups")

    @property
    def k(self) -> int:
        return len(self.groups)

    @property
    def p(self) -> int:
        return self.groups[0].design.shape[1] - 1

    @property
    def m(self) -> int:
        return self.groups[0].response.shape[1]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(g.label for g in self.groups)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(g.n for g in self.groups)


def validate_dataset(data: GroupedDataset) -> GroupedDataset:
    """Check every structural requirement, returning the dataset unchanged.

    Raises
    ------
    ShapeMismatch
        Covariate or response counts differ across groups, a value is
        not finite, or an intercept column is missing.
    InsufficientObservations
        Some group has fewer than p + 2 rows.
    RankDeficientDesign
        Some design matrix is numerically column rank deficient once its
        columns are scaled to unit norm; this is the one rank check, and
        a design that passes it can be fitted and simulated.
    """
    p, m = data.p, data.m
    for g in data.groups:
        if g.design.shape[1] - 1 != p or g.response.shape[1] != m:
            raise ShapeMismatch(
                f"group {g.label!r} has {g.design.shape[1] - 1} covariates and "
                f"{g.response.shape[1]} responses, expected {p} and {m}")
        if not (np.isfinite(g.design).all() and np.isfinite(g.response).all()):
            raise InputDataError(f"group {g.label!r} contains non-finite values")
        if not np.all(g.design[:, 0] == 1.0):
            raise ShapeMismatch(
                f"group {g.label!r}: first design column must be all ones")
        if g.n < p + 2:
            raise InsufficientObservations(
                f"group {g.label!r} has {g.n} rows, needs at least {p + 2}")
        # A zero column keeps its zeros, so its singular value is 0.
        norms = np.linalg.norm(g.design, axis=0)
        sv = np.linalg.svd(g.design / np.where(norms > 0.0, norms, 1.0),
                           compute_uv=False)
        if sv[-1] <= _RANK_RTOL * sv[0]:
            raise RankDeficientDesign(
                f"group {g.label!r}: design is rank deficient "
                f"(singular value ratio {sv[-1] / sv[0]:.2e} "
                "with columns scaled to unit norm)")
    return data


@dataclass(frozen=True)
class FittedModels:
    """Per-group least squares estimates plus pooled error information.

    Attributes
    ----------
    bhat : tuple of (p+1) x m coefficient matrices, one per group.
    gram : tuple of X'X matrices.
    gram_inv : tuple of (X'X)^{-1} matrices.
    pooled_scatter : m x m sum of residual cross-products over groups.
    nu : pooled error degrees of freedom, sum of (n_i - p - 1).
    scatter_factor : lower Cholesky factor of pooled_scatter, or None
        when it is not positive definite (for example a saturated or
        noise-free fit); see ``scatter_degenerate``.
    """

    labels: tuple[str, ...]
    group_sizes: tuple[int, ...]
    bhat: tuple[np.ndarray, ...]
    gram: tuple[np.ndarray, ...]
    gram_inv: tuple[np.ndarray, ...]
    pooled_scatter: np.ndarray
    nu: int
    p: int
    m: int
    scatter_factor: np.ndarray | None

    @property
    def k(self) -> int:
        return len(self.bhat)

    @property
    def scatter_degenerate(self) -> bool:
        """True when pooled_scatter is not positive definite; any
        operation needing its inverse then refuses to run."""
        return self.scatter_factor is None

    def _check_index(self, i: int) -> int:
        if not 1 <= i <= self.k:
            raise InvalidArgument(f"group index {i} outside 1..{self.k}")
        return i - 1

    def coef_difference(self, i: int, j: int) -> np.ndarray:
        """bhat_i - bhat_j for 1-based group indices."""
        return self.bhat[self._check_index(i)] - self.bhat[self._check_index(j)]

    def delta(self, i: int, j: int) -> np.ndarray:
        """(X_i'X_i)^{-1} + (X_j'X_j)^{-1}, the denominator matrix of a pair."""
        return self.gram_inv[self._check_index(i)] + self.gram_inv[self._check_index(j)]

    def require_scatter(self) -> np.ndarray:
        """Return the Cholesky factor of pooled_scatter or refuse."""
        if self.scatter_degenerate:
            raise DegenerateScatter(
                "pooled residual scatter is not positive definite "
                f"(nu={self.nu}, m={self.m}); cannot invert it")
        return self.scatter_factor


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def fit_models(data: GroupedDataset) -> FittedModels:
    """Fit each group by ordinary least squares and pool the residual scatter.

    Coefficients are solved through the thin QR factorization of each
    design; the cross-product inverse comes from the R factor, so no
    normal-equations matrix is ever inverted directly.

    Raises what ``validate_dataset`` raises; a design that passes its
    rank check factorizes here and in the simulation.
    """
    validate_dataset(data)
    p, m = data.p, data.m

    bhats, grams, gram_invs = [], [], []
    scatter = np.zeros((m, m))
    nu = 0
    for g in data.groups:
        q, r = np.linalg.qr(g.design, mode="reduced")
        bhat = np.linalg.solve(r, q.T @ g.response)
        rinv = np.linalg.solve(r, np.eye(p + 1))
        bhats.append(bhat)
        grams.append(_sym(g.design.T @ g.design))
        gram_invs.append(_sym(rinv @ rinv.T))
        resid = g.response - g.design @ bhat
        scatter += resid.T @ resid
        nu += g.n - p - 1
    scatter = _sym(scatter)

    # A noise-free fit leaves rounding-level residuals rather than exact
    # zeros, so degeneracy has to be judged against the response scale,
    # not just against the scatter's own largest eigenvalue.
    response_ss = float(sum(np.sum(g.response ** 2) for g in data.groups))
    factor = None
    if nu >= m:
        w = np.linalg.eigvalsh(scatter)
        if w[0] > max(1e-12 * w[-1], 1e-20 * response_ss):
            factor = np.linalg.cholesky(scatter)

    return FittedModels(
        labels=data.labels,
        group_sizes=data.group_sizes,
        bhat=tuple(bhats),
        gram=tuple(grams),
        gram_inv=tuple(gram_invs),
        pooled_scatter=scatter,
        nu=nu,
        p=p,
        m=m,
        scatter_factor=factor,
    )

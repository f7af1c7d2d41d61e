"""Shared synthetic-data builders and scipy-backed oracles for the test suite.

The library needs numpy only; scipy stays on the test side, as an
independent oracle for the F quantiles and generalized eigenvalues the
library's results are checked against.
"""

from __future__ import annotations

import csv

import numpy as np
import pytest
import scipy.special
from hypothesis import settings

from sctubes.model_core import GroupData, GroupedDataset, fit_models
from sctubes.rand_engine import wishart_factor_block
from sctubes.sup_solver import FacePlan

# Every property test draws the same examples on every run (seeded from
# the test itself, no example database), so a suite run is repeatable;
# each test keeps its own max_examples.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def make_group(rng, label, n, coef, noise=1.0, p=None, chol=None, x_range=(0.0, 10.0)):
    """One synthetic group: uniform covariates, normal errors.

    ``coef`` is the true (p+1) x m coefficient matrix; ``chol`` (m x m,
    lower) correlates the errors when given.
    """
    coef = np.asarray(coef, dtype=float)
    if p is None:
        p = coef.shape[0] - 1
    m = coef.shape[1]
    x = rng.uniform(x_range[0], x_range[1], size=(n, p))
    design = np.column_stack([np.ones(n), x])
    errors = rng.standard_normal((n, m)) * noise
    if chol is not None:
        errors = errors @ np.asarray(chol).T
    return GroupData(label=label, design=design, response=design @ coef + errors)


def make_dataset(rng, sizes, coefs, noise=1.0, chol=None, x_range=(0.0, 10.0)):
    labels = [chr(ord("A") + i) for i in range(len(sizes))]
    groups = tuple(
        make_group(rng, lab, n, c, noise=noise, chol=chol, x_range=x_range)
        for lab, n, c in zip(labels, sizes, coefs))
    return GroupedDataset(groups=groups)


def write_csv(data, path):
    """Write a dataset in the layout ``ingest_csv`` reads, round-trip exact."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group"] + [f"x{i + 1}" for i in range(data.p)]
                        + [f"y{i + 1}" for i in range(data.m)])
        for g in data.groups:
            for xrow, yrow in zip(g.design[:, 1:], g.response):
                writer.writerow([g.label] + [repr(float(v)) for v in xrow]
                                + [repr(float(v)) for v in yrow])


def wishart_factors(m: int, nu: int, key, count: int) -> np.ndarray:
    """A Wishart factor block in its logical order, (count, m, m):
    replicate b's factor is ``[b]``."""
    return np.moveaxis(wishart_factor_block(m, nu, key, count), -1, 0)


def f_quantile(d1: int, d2: int, prob: float) -> float:
    """Quantile of the F distribution with (d1, d2) degrees of freedom."""
    if d1 < 1 or d2 < 1:
        raise ValueError(f"degrees of freedom must be positive, got ({d1}, {d2})")
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must be in (0, 1), got {prob}")
    return float(scipy.special.fdtri(d1, d2, prob))


def pointwise_constant(m: int, nu: int, alpha: float) -> float:
    """Closed-form constant (m/nu) F_{1-alpha}(m, nu) for one pair at one
    fixed covariate point.

    Exact for m = 1, where the pointwise statistic is F(1, nu) / nu. For
    m >= 2 the pointwise statistic is Hotelling's, m/(nu-m+1) F(m, nu-m+1),
    whose constant is slightly larger (0.02496 against 0.02486 at m = 2,
    nu = 244).
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if nu < m:
        raise ValueError(f"need nu >= m, got nu={nu}, m={m}")
    return (m / nu) * f_quantile(m, nu, 1.0 - alpha)


def hotelling_point_constant(m: int, nu: int, alpha: float) -> float:
    """Exact constant for one pair at one fixed covariate point.

    There the statistic is z' S^{-1} z with z ~ N(0, Sigma) and
    S ~ W(Sigma, nu), Hotelling's T^2 / nu, whose law is
    m/(nu-m+1) F(m, nu-m+1). It equals ``pointwise_constant`` at m = 1.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if nu < m:
        raise ValueError(f"need nu >= m, got nu={nu}, m={m}")
    return m / (nu - m + 1) * f_quantile(m, nu - m + 1, 1.0 - alpha)


def ratio_at(a, d, point) -> float:
    """R(t) = (e'ae)/(e'de), e = (1, t), at a covariate point t (without
    the leading 1)."""
    e = np.concatenate(([1.0], np.atleast_1d(np.asarray(point, dtype=float))))
    if e.size != len(a):
        raise ValueError(f"point has {e.size - 1} coordinates, expected {len(a) - 1}")
    return float((e @ a @ e) / (e @ d @ e))


def sup_of(a, d, box):
    """Supremum of (e'ae)/(e'de) over a box, and a point attaining it,
    through ``FacePlan``.

    The solver takes a numerator as a factor, so a is factored as W'W
    by ``eigh`` (negative rounding clipped to 0).
    """
    vals, vecs = np.linalg.eigh(a)
    w = np.sqrt(np.clip(vals, 0.0, None))[:, None] * vecs.T
    return FacePlan(d, box).sup_with_argmax(w)


def interval_sup_reference(a, d, low, high):
    """Exact supremum of (e'ae)/(e'de), e = (1, t), over t in [low, high].

    The reference the p = 1 solver is checked against: the stationary
    points of a ratio of two quadratics solve a quadratic (its cubic
    term cancels), so the supremum is the best of the two endpoints and
    the real roots inside the interval.
    """
    n0, n1, n2 = a[0, 0], 2.0 * a[0, 1], a[1, 1]
    d0, d1, d2 = d[0, 0], 2.0 * d[0, 1], d[1, 1]
    coeffs = [n2 * d1 - n1 * d2, 2.0 * (n2 * d0 - n0 * d2), n1 * d0 - n0 * d1]
    candidates = [low, high]
    for root in np.roots(np.trim_zeros(coeffs, "f")) if any(coeffs) else ():
        if abs(root.imag) <= 1e-9 * (1.0 + abs(root.real)) and low < root.real < high:
            candidates.append(float(root.real))
    return max((n0 + t * (n1 + t * n2)) / (d0 + t * (d1 + t * d2))
               for t in candidates)


@pytest.fixture
def two_group_fit():
    """k=2, p=1, m=2, nu=244: the workhorse configuration."""
    rng = np.random.default_rng(20240817)
    coef = np.array([[1.0, 2.0], [0.5, -0.3]])
    data = make_dataset(rng, (87, 161), (coef, coef + 0.2))
    return fit_models(data)


@pytest.fixture
def three_group_fit():
    """k=3, p=1, m=2, nu=242."""
    rng = np.random.default_rng(77)
    coef = np.array([[1.0, 2.0], [0.5, -0.3]])
    data = make_dataset(rng, (87, 80, 81), (coef, coef, coef + 0.1))
    return fit_models(data)

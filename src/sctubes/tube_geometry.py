"""Geometry of the simultaneous band: cross-sections, their coordinate
intervals, and significance regions.

At a covariate point x the band for a pair of groups is an ellipsoid in
response space: center x'(bhat_i - bhat_j), shape given by the pooled
residual scatter, squared radius equal to the critical constant times
x' delta x with delta the summed cross-product inverses. Projecting
that ellipsoid onto response coordinate q gives a classical band
center plus or minus sqrt(c * x' delta x * scatter_qq).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidArgument, NotUnivariate, UnboundedBox, group_pair, index_of,
                     is_real)
from .model_core import FittedModels
from .sup_solver import CovariateBox


@dataclass(frozen=True, eq=False)
class TubeCrossSection:
    """The band's ellipsoidal slice at one covariate point.

    A response point z is inside when
    (z - center)' shape^{-1} (z - center) <= radius_sq.
    """

    x: np.ndarray
    center: np.ndarray
    shape: np.ndarray
    radius_sq: float

    def mahalanobis_sq(self, z) -> float:
        d = _finite_numbers(z, self.center.size, "response point") - self.center
        return float(d @ np.linalg.solve(self.shape, d))

    def contains(self, z) -> bool:
        return self.mahalanobis_sq(z) <= self.radius_sq

    def coordinate_interval(self, q: int) -> tuple[float, float]:
        """Extent of the ellipsoid along response coordinate q (1-based)."""
        q = _check_response(q, self.center.size)
        h = np.sqrt(max(self.radius_sq, 0.0) * self.shape[q - 1, q - 1])
        c = self.center[q - 1]
        return float(c - h), float(c + h)


@dataclass(frozen=True)
class SignificanceRegion:
    """Covariate intervals where the band for one response coordinate
    excludes zero, i.e. where the groups demonstrably differ."""

    response: int
    intervals: tuple[tuple[float, float], ...]


def _check_constant(c: float) -> None:
    if not (is_real(c) and 0.0 <= c < math.inf):
        raise InvalidArgument(
            f"critical constant must be a finite real number >= 0, got {c!r}")


def _finite_numbers(value, n: int, name: str) -> np.ndarray:
    """``value`` as a vector of n finite numbers (a scalar counts as one),
    or ``InvalidArgument``."""
    try:
        vec = np.atleast_1d(np.asarray(value, dtype=float))
    except (TypeError, ValueError):
        vec = None
    if vec is None or vec.shape != (n,) or not np.isfinite(vec).all():
        raise InvalidArgument(f"{name} must be {n} finite numbers, got {value!r}")
    return vec


def _check_response(q: int, m: int) -> int:
    q = index_of(q, "response index")
    if not 1 <= q <= m:
        raise InvalidArgument(f"response index {q} outside 1..{m}")
    return q


def cross_section(fit: FittedModels, pair: tuple[int, int], c: float,
                  x) -> TubeCrossSection:
    """Band cross-section for one pair at covariate point x."""
    fit.require_scatter()
    _check_constant(c)
    pair = group_pair(pair)
    delta, db = fit.delta(*pair), fit.coef_difference(*pair)
    e = np.concatenate(([1.0], _finite_numbers(x, fit.p, "point")))
    return TubeCrossSection(
        x=e[1:].copy(),
        center=e @ db,
        shape=fit.pooled_scatter,
        radius_sq=c * float(e @ delta @ e),
    )


def significance_region(fit: FittedModels, pair: tuple[int, int], c: float,
                        q: int, box: CovariateBox) -> SignificanceRegion:
    """Where along a finite interval the coordinate-q band excludes zero.

    The band excludes zero at t exactly when
    (b0 + b1 t)^2 > c * omega_qq * (d0 + 2 d1 t + d2 t^2), a quadratic
    inequality in t, so the region is read off the quadratic's real
    roots. Returns disjoint closed intervals in increasing order.
    """
    fit.require_scatter()
    if fit.p != 1:
        raise NotUnivariate(f"significance regions need p = 1, got p = {fit.p}")
    if box.p != fit.p:
        raise InvalidArgument(f"box has p = {box.p}, fit has p = {fit.p}")
    if not box.is_finite:
        raise UnboundedBox("significance regions need a finite interval")
    q = _check_response(q, fit.m)
    _check_constant(c)
    pair = group_pair(pair)
    delta, db = fit.delta(*pair), fit.coef_difference(*pair)
    b0, b1 = db[:, q - 1]
    scale = c * fit.pooled_scatter[q - 1, q - 1]
    # excess(t) = a2 t^2 + 2 h t + a0 > 0 marks the region.
    a2 = b1 * b1 - scale * delta[1, 1]
    h = b0 * b1 - scale * delta[0, 1]
    a0 = b0 * b0 - scale * delta[0, 0]

    def excess(t: float) -> float:
        return (a2 * t + 2.0 * h) * t + a0

    # Stable roots: s = -(h + sign(h) sqrt(h^2 - a2 a0)) gives the
    # roots s / a2 and a0 / s without cancellation; a2 = 0 leaves the
    # single linear root a0 / s.
    low, high = box.bounds[0]
    cuts = [low, high]
    disc = h * h - a2 * a0
    if disc > 0.0:
        s = -(h + math.copysign(math.sqrt(disc), h))
        for num, den in ((s, a2), (a0, s)):
            if den != 0.0 and low < num / den < high:
                cuts.append(num / den)
    cuts.sort()

    intervals: list[tuple[float, float]] = []
    for left, right in zip(cuts[:-1], cuts[1:]):
        if excess(0.5 * (left + right)) <= 0.0:
            continue
        if intervals and intervals[-1][1] == left:
            intervals[-1] = (intervals[-1][0], right)
        else:
            intervals.append((float(left), float(right)))
    return SignificanceRegion(response=q, intervals=tuple(intervals))

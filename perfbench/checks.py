"""Correctness checks computed apart from sctubes.

Nothing here imports sctubes. Each check refits the generated CSV with
numpy least squares, recomputes what the program reports by another
route (dense grids, numpy eigenvalues, F quantiles, quadratic roots), or
tests a property the method must have. Each function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.stats

from inputs import Group

# Relative tolerance for statistics the program computes exactly (closed
# forms and eigenvalues) against the same quantity computed here.
EXACT_RTOL = 1e-8


@dataclass(frozen=True)
class OwnFit:
    bhat: list[np.ndarray]
    gram_inv: list[np.ndarray]
    scatter: np.ndarray
    nu: int

    @property
    def m(self) -> int:
        return self.scatter.shape[0]

    def pair(self, i: int, j: int):
        """(center coefficients, delta, numerator A) for 1-based (i, j)."""
        db = self.bhat[i - 1] - self.bhat[j - 1]
        delta = self.gram_inv[i - 1] + self.gram_inv[j - 1]
        num = db @ np.linalg.solve(self.scatter, db.T)
        return db, delta, 0.5 * (num + num.T)


def _design(g: Group) -> np.ndarray:
    return np.column_stack([np.ones(len(g.x)), g.x])


def ls_fit(groups: list[Group]) -> OwnFit:
    bhat, ginv = [], []
    scatter = np.zeros((groups[0].y.shape[1],) * 2)
    nu = 0
    for g in groups:
        x = _design(g)
        b = np.linalg.lstsq(x, g.y, rcond=None)[0]
        res = g.y - x @ b
        bhat.append(b)
        ginv.append(np.linalg.inv(x.T @ x))
        scatter += res.T @ res
        nu += x.shape[0] - x.shape[1]
    return OwnFit(bhat, ginv, scatter, nu)


def _ratio(points: np.ndarray, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    e = np.column_stack([np.ones(len(points)), points])
    return (np.einsum("ni,ij,nj->n", e, num, e)
            / np.einsum("ni,ij,nj->n", e, den, e))


def interval_sup(num, den, low, high, n=20001) -> float:
    """Dense grid, then a bounded scalar search around the best point."""
    ts = np.linspace(low, high, n)
    vals = _ratio(ts[:, None], num, den)
    best = int(np.argmax(vals))
    lo, hi = ts[max(best - 1, 0)], ts[min(best + 1, n - 1)]
    res = scipy.optimize.minimize_scalar(
        lambda t: -_ratio(np.array([[t]]), num, den)[0], bounds=(lo, hi),
        method="bounded", options={"xatol": 1e-13})
    return max(float(vals[best]), float(-res.fun))


def box_grid_max(num, den, low, high, n=401) -> float:
    ts = np.linspace(low, high, n)
    g1, g2 = np.meshgrid(ts, ts, indexing="ij")
    return float(_ratio(np.column_stack([g1.ravel(), g2.ravel()]),
                        num, den).max())


def whole_sup(num, den) -> float:
    """Largest eigenvalue of den^{-1} num, from numpy's general solver."""
    return float(np.linalg.eigvals(np.linalg.solve(den, num)).real.max())


def roy_statistic(groups: list[Group], fit: OwnFit) -> float:
    """Largest root of E^{-1} H, with H = E(common fit) - E(separate fits)."""
    x = np.vstack([_design(g) for g in groups])
    y = np.vstack([g.y for g in groups])
    b = np.linalg.lstsq(x, y, rcond=None)[0]
    res = y - x @ b
    hyp = res.T @ res - fit.scatter
    return float(np.linalg.eigvals(np.linalg.solve(fit.scatter, hyp)).real.max())


def pointwise_constant(m: int, nu: int, alpha: float) -> float:
    return m / nu * float(scipy.stats.f.ppf(1.0 - alpha, m, nu))


def _close(a: float, b: float, rtol: float = EXACT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# --- checks shared by every compare report ---------------------------------

def check_compare_report(rep: dict, fit: OwnFit, alpha: float) -> list[str]:
    """Constant and decision properties every comparison must have."""
    bad = []
    crit = rep["critical"]
    c_hat = crit["c_hat"]
    lo, hi = crit["order_stat_interval"]
    if rep["nu"] != fit.nu:
        bad.append(f"nu {rep['nu']} != own {fit.nu}")
    if not lo <= c_hat <= hi:
        bad.append(f"c_hat {c_hat} outside its 99% interval [{lo}, {hi}]")
    point = pointwise_constant(fit.m, fit.nu, alpha)
    if not c_hat > point:
        bad.append(f"c_hat {c_hat} not above the one-point constant {point}")
    for pr in rep["pairs"]:
        tag = f"pair ({pr['i']},{pr['j']})"
        by_p = pr["p_value"] <= alpha
        by_t = pr["statistic"] >= c_hat
        if not by_p == by_t == pr["reject"]:
            bad.append(f"{tag}: p<=alpha {by_p}, stat>=c {by_t}, "
                       f"reject {pr['reject']}")
    return bad


# --- interval_k3 --------------------------------------------------------------

def center_and_var(fit: OwnFit, i: int, j: int, q: int):
    """Coefficients of center(t) = b0 + b1 t and d(t) = d0 + 2 d1 t + d2 t^2."""
    db, delta, _ = fit.pair(i, j)
    return db[:, q - 1], (delta[0, 0], delta[0, 1], delta[1, 1])


def excess(fit: OwnFit, i: int, j: int, q: int, c: float, ts: np.ndarray):
    """|center(t)| - halfwidth(t) for response q of pair (i, j)."""
    (b0, b1), (d0, d1, d2) = center_and_var(fit, i, j, q)
    omega = fit.scatter[q - 1, q - 1]
    return np.abs(b0 + b1 * ts) - np.sqrt(c * omega * (d0 + 2 * d1 * ts + d2 * ts * ts))


def regions_agree(intervals, ts, exc, tol_x) -> list[str]:
    """Reported intervals against a dense evaluation of the excess.

    A grid point whose excess is clearly positive must lie in a reported
    interval widened by tol_x; one clearly negative must lie outside
    every interval narrowed by tol_x.
    """
    bad = []
    prev = -np.inf
    for a, b in intervals:
        if not prev < a <= b:
            bad.append(f"intervals not disjoint and ordered: {intervals}")
        prev = b
    scale = max(float(np.abs(exc).max()), 1e-300)
    inside = np.zeros(ts.size, dtype=bool)
    core = np.zeros(ts.size, dtype=bool)
    for a, b in intervals:
        inside |= (ts >= a - tol_x) & (ts <= b + tol_x)
        core |= (ts >= a + tol_x) & (ts <= b - tol_x)
    missed = (exc > 1e-9 * scale) & ~inside
    extra = (exc < -1e-9 * scale) & core
    if missed.any():
        bad.append(f"{int(missed.sum())} significant grid points outside "
                   f"reported intervals, first at t={ts[missed][0]:.6g}")
    if extra.any():
        bad.append(f"{int(extra.sum())} non-significant grid points inside "
                   f"reported intervals, first at t={ts[extra][0]:.6g}")
    return bad


def check_interval_k3(rep: dict, fit: OwnFit, alpha: float, low: float,
                      high: float) -> list[str]:
    bad = check_compare_report(rep, fit, alpha)
    c_hat = rep["critical"]["c_hat"]
    ts = np.linspace(low, high, 100001)
    tol_x = 1e-5 * (high - low)
    for pr in rep["pairs"]:
        i, j = pr["i"], pr["j"]
        _, delta, num = fit.pair(i, j)
        own = interval_sup(num, delta, low, high)
        if not _close(pr["statistic"], own):
            bad.append(f"pair ({i},{j}) statistic {pr['statistic']!r} "
                       f"!= dense-grid sup {own!r}")
        regions = pr.get("significance_regions")
        if regions is None or len(regions) != fit.m:
            bad.append(f"pair ({i},{j}) lacks one region per response")
            continue
        for reg in regions:
            q = reg["response"]
            exc = excess(fit, i, j, q, c_hat, ts)
            for msg in regions_agree([tuple(iv) for iv in reg["intervals"]],
                                     ts, exc, tol_x):
                bad.append(f"pair ({i},{j}) response {q}: {msg}")
    return bad


# --- region probe -------------------------------------------------------------

def exact_region(center, dcoef, c, omega, low, high):
    """{t in [low, high] : center(t)^2 > c omega d(t)} from quadratic roots."""
    (b0, b1), (d0, d1, d2) = center, dcoef
    poly = np.array([b1 * b1 - c * omega * d2,
                     2.0 * (b0 * b1 - c * omega * d1),
                     b0 * b0 - c * omega * d0])
    roots = [float(r.real) for r in np.roots(poly)
             if abs(r.imag) <= 1e-12 * (1 + abs(r)) and low < r.real < high]
    cuts = [low] + sorted(roots) + [high]
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + b)
        if np.polyval(poly, mid) > 0.0:
            if out and out[-1][1] == a:
                out[-1] = (out[-1][0], b)
            else:
                out.append((a, b))
    return out


def probe_constants(fit: OwnFit, pairs, low: float, high: float,
                    grid: int) -> list[dict]:
    """For each pair and response, a constant just below the interior
    maximum of center^2 / (omega d(t)), halfway between that maximum and
    the largest value on the program's region grid, so the exact region
    is a nonempty interval lying strictly between two grid points."""
    ts = np.linspace(low, high, grid)
    out = []
    for i, j in pairs:
        db, delta, _ = fit.pair(i, j)
        for q in range(1, fit.m + 1):
            center, dcoef = center_and_var(fit, i, j, q)
            omega = fit.scatter[q - 1, q - 1]
            top = np.linalg.solve(delta, center)
            t_star = top[1] / top[0]
            if not low < t_star < high:
                raise ValueError(f"probe ({i},{j},{q}) maximum at {t_star}, "
                                 "not inside the interval")

            def ratio(t):
                t = np.asarray(t, dtype=float)
                d = dcoef[0] + 2 * dcoef[1] * t + dcoef[2] * t * t
                return (center[0] + center[1] * t) ** 2 / (omega * d)

            f_star, f_grid = float(ratio(t_star)), float(ratio(ts).max())
            c = 0.5 * (f_star + f_grid)
            out.append({"pair": [i, j], "response": q, "c": c,
                        "exact": exact_region(center, dcoef, c, omega,
                                              low, high)})
    return out


def probe_passes(reported, exact, tol_x) -> bool:
    if reported is None or len(reported) != len(exact):
        return False
    return all(abs(a - ea) <= tol_x and abs(b - eb) <= tol_x
               for (a, b), (ea, eb) in zip(reported, exact))


# --- whole_k5m3 ---------------------------------------------------------------

def check_whole_k5m3(rep: dict, roy: dict, groups: list[Group], fit: OwnFit,
                     alpha: float) -> list[str]:
    bad = check_compare_report(rep, fit, alpha)
    top = 0.0
    for pr in rep["pairs"]:
        i, j = pr["i"], pr["j"]
        _, delta, num = fit.pair(i, j)
        own = whole_sup(num, delta)
        top = max(top, pr["statistic"])
        if not _close(pr["statistic"], own):
            bad.append(f"pair ({i},{j}) statistic {pr['statistic']!r} "
                       f"!= numpy largest eigenvalue {own!r}")
    own_roy = roy_statistic(groups, fit)
    if not _close(roy["statistic"], own_roy, 1e-7):
        bad.append(f"Roy statistic {roy['statistic']!r} != own {own_roy!r}")
    if top > roy["statistic"] * (1 + EXACT_RTOL):
        bad.append(f"largest pairwise statistic {top} exceeds the Roy "
                   f"k-sample statistic {roy['statistic']}")
    if rep["critical"]["c_hat"] > roy["critical"]:
        bad.append(f"tube constant {rep['critical']['c_hat']} exceeds the "
                   f"Roy critical value {roy['critical']}")
    if (roy["p_value"] <= alpha) != (roy["statistic"] >= roy["critical"]):
        bad.append("Roy p-value and critical value disagree")
    if roy["null_dimension"] != (len(groups) - 1) * (groups[0].x.shape[1] + 1):
        bad.append(f"Roy null dimension {roy['null_dimension']}")
    return bad


# --- box_p2 --------------------------------------------------------------------

def check_box_p2(rep: dict, fit: OwnFit, alpha: float, low: float, high: float,
                 point: list, box: list, whole: list) -> list[str]:
    """``point``, ``box`` and ``whole`` are the sorted samples for one seed
    and r. Replicate by replicate point <= box <= whole space, which
    implies the same ordering between the sorted samples entry by entry."""
    bad = check_compare_report(rep, fit, alpha)
    for pr in rep["pairs"]:
        i, j = pr["i"], pr["j"]
        _, delta, num = fit.pair(i, j)
        grid = box_grid_max(num, delta, low, high)
        whole_val = whole_sup(num, delta)
        if pr["statistic"] < grid * (1 - 1e-10):
            bad.append(f"pair ({i},{j}) statistic {pr['statistic']!r} below "
                       f"dense-grid max {grid!r}")
        if pr["statistic"] > whole_val * (1 + EXACT_RTOL):
            bad.append(f"pair ({i},{j}) statistic {pr['statistic']!r} above "
                       f"whole-space sup {whole_val!r}")
    pt, bx, wh = (np.asarray(v, dtype=float) for v in (point, box, whole))
    if not pt.size == bx.size == wh.size == rep["r"]:
        bad.append(f"sample sizes {pt.size}, {bx.size}, {wh.size} != r")
    else:
        if np.any(pt > bx * (1 + 1e-9)):
            bad.append("a point-box replicate exceeds the finite-box one")
        if np.any(bx > wh * (1 + 1e-9)):
            bad.append("a finite-box replicate exceeds the whole-space one")
    return bad

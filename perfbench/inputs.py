"""Seeded input generation for the benchmark workloads.

Every workload's inputs are a pure function of the benchmark seed: the
datasets come from ``numpy.random.default_rng([seed, workload tag])`` and
the simulation seed handed to sctubes is the benchmark seed itself. The
region probe is the one exception: its dataset is fixed, so the probe
operations fail or pass identically on every seed.

Inputs are written as plain CSV files in the layout sctubes reads
(``group,x1..xp,y1..ym``); the program receives only those files and the
command-line or library arguments listed in ``Workload``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Interval of the single covariate for interval_k3 and the probe, and
# the side of the square for box_p2. All covariates are drawn on it.
LOW, HIGH = 0.0, 10.0
# Grid that sctubes' significance_region scans by default.
REGION_GRID = 201
PROBE_DATA_SEED = 20200521


@dataclass(frozen=True)
class Group:
    label: str
    x: np.ndarray          # n x p covariates (no intercept column)
    y: np.ndarray          # n x m responses


@dataclass(frozen=True)
class Workload:
    tag: int               # mixes into the data seed
    sizes: tuple[int, ...]
    p: int
    coefs: tuple[np.ndarray, ...]     # true (p+1) x m coefficient matrices
    noise_chol: np.ndarray            # lower factor of the error covariance
    alpha: float
    reps: int


def _coefs(base, shifts):
    base = np.asarray(base, dtype=float)
    return tuple(base + np.asarray(s, dtype=float) for s in shifts)


# Every pair in interval_k3 differs strongly in both responses, so each
# response's maximum of center^2 / (omega d(t)) sits far above the
# critical constant and every region boundary is a clean crossing that a
# dense grid resolves; the narrow-region fault is exercised by the fixed
# probe below instead.
WORKLOADS = {
    "interval_k3": Workload(
        tag=1, sizes=(40, 45, 50), p=1,
        coefs=_coefs([[1.0, 0.5], [0.2, -0.1]],
                     [np.zeros((2, 2)),
                      [[2.0, -2.5], [0.15, 0.35]],
                      [[-1.2, 2.5], [0.4, -0.3]]]),
        noise_chol=np.linalg.cholesky([[0.25, 0.1], [0.1, 0.36]]),
        alpha=0.05, reps=1_000_000),
    # Groups 1 and 2 share their coefficients and group 3 is close to
    # them, so the ten pairwise p-values range from near 1 to 0.
    "whole_k5m3": Workload(
        tag=2, sizes=(30, 32, 34, 36, 38), p=1,
        coefs=_coefs([[1.0, 0.0, -1.0], [0.3, 0.1, 0.2]],
                     [np.zeros((2, 3)), np.zeros((2, 3)),
                      [[0.3, 0.0, 0.0], [0.0, 0.0, 0.0]],
                      [[0.0, 1.0, 0.0], [0.1, 0.0, 0.0]],
                      [[-1.0, 0.5, 1.5], [0.0, -0.1, 0.05]]]),
        noise_chol=np.linalg.cholesky([[1.0, 0.3, 0.1],
                                       [0.3, 1.2, 0.2],
                                       [0.1, 0.2, 0.8]]),
        alpha=0.05, reps=200_000),
    # alpha * reps = 10 is the fewest replicates critical_constant accepts;
    # at alpha = 0.2 a job is about 50 replicates of Nelder-Mead search,
    # short enough for several rounds in one run.
    "box_p2": Workload(
        tag=3, sizes=(40, 45), p=2,
        coefs=_coefs([[1.0, 2.0], [0.2, -0.1], [0.1, 0.3]],
                     [np.zeros((3, 2)),
                      [[0.5, 0.0], [0.05, 0.1], [0.0, -0.05]]]),
        noise_chol=np.linalg.cholesky([[1.0, 0.2], [0.2, 1.0]]),
        alpha=0.2, reps=50),
}


def make_groups(work: Workload, seed: int) -> list[Group]:
    rng = np.random.default_rng([seed, work.tag])
    groups = []
    for idx, (n, coef) in enumerate(zip(work.sizes, work.coefs)):
        x = rng.uniform(LOW, HIGH, size=(n, work.p))
        design = np.column_stack([np.ones(n), x])
        errors = rng.standard_normal((n, coef.shape[1])) @ work.noise_chol.T
        groups.append(Group(label=chr(ord("A") + idx), x=x,
                            y=design @ coef + errors))
    return groups


def probe_groups() -> list[Group]:
    """The fixed dataset behind the region probe.

    Three groups whose covariates cluster around 2, 4.5 and 7 and whose
    true lines are parallel: each pair's center is nearly flat while its
    variance d(t) is smallest between the two clusters, so every
    (pair, response) maximum of center^2 / (omega d(t)) lies inside
    [0, 10].
    """
    rng = np.random.default_rng(PROBE_DATA_SEED)
    groups = []
    for idx, (mid, shift) in enumerate(((2.0, (0.0, 0.0)),
                                        (4.5, (1.0, -0.6)),
                                        (7.0, (-0.7, 1.1)))):
        n = 30
        x = rng.uniform(mid - 1.0, mid + 1.0, size=(n, 1))
        coef = np.array([[1.0 + shift[0], 0.5 + shift[1]], [0.2, -0.1]])
        design = np.column_stack([np.ones(n), x])
        y = design @ coef + 0.05 * rng.standard_normal((n, 2))
        groups.append(Group(label=chr(ord("P") + idx), x=x, y=y))
    return groups


def write_groups(groups: list[Group], path: Path) -> None:
    p, m = groups[0].x.shape[1], groups[0].y.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group"] + [f"x{i + 1}" for i in range(p)]
                        + [f"y{i + 1}" for i in range(m)])
        for g in groups:
            for xrow, yrow in zip(g.x, g.y):
                writer.writerow([g.label] + [repr(float(v)) for v in xrow]
                                + [repr(float(v)) for v in yrow])


def read_groups(path: Path) -> list[Group]:
    """Read a CSV written by write_groups, independently of sctubes."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    p = sum(1 for h in header if h.startswith("x"))
    by_label: dict[str, list[list[float]]] = {}
    for row in rows[1:]:
        by_label.setdefault(row[0], []).append([float(v) for v in row[1:]])
    out = []
    for label, vals in by_label.items():
        mat = np.array(vals)
        out.append(Group(label=label, x=mat[:, :p], y=mat[:, p:]))
    return out

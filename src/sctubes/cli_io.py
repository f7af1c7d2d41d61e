"""CSV ingestion, deterministic report serialization, and the CLI.

The expected CSV layout is one observation per row:

    group,x1,...,xp,y1,...,ym

with at least one covariate column and one response column. Groups are
ordered by first appearance and indexed from 1 in that order everywhere
(reports, --family control:LABEL resolution, tube pair selection).

Reports are emitted through a small JSON writer of our own: keys
sorted, floats at 17 significant digits, so rerunning a command with
the same inputs produces byte-identical output.

Commands: ``critical``, ``pvalues``, ``compare`` and ``tube`` start with
``_prepare`` (fit, which validates the data; check the config; resolve
family and box), so a data error (exit 2) wins over a config error (exit
4), and their JSON reports share one header. ``pvalues`` needs no
critical constant, so it runs at any alpha. Numerical degeneracy exits
3; any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import classical_tests, sct_engine, tube_geometry
from .errors import (
    ConfigError,
    DegeneracyError,
    EmptyGroup,
    InputDataError,
    InvalidArgument,
    MalformedHeader,
    NonNumericCell,
    NotUnivariate,
    UnboundedBox,
    UsageError,
)
from .model_core import FittedModels, GroupData, GroupedDataset, fit_models
from .sct_engine import ComparisonFamily, ComparisonReport, CriticalConstantResult
from .sup_solver import CovariateBox

_FAMILY_KINDS = ("pairwise", "vs_control", "successive")


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by every subcommand.

    ``bounds`` of None means the whole covariate space. ``reps`` has a
    floor of 1000: below that the tail quantile is meaningless and the
    run refuses to start.
    """

    alpha: float = 0.05
    reps: int = 1_000_000
    seed: int = 0
    family_kind: str = "pairwise"
    control_label: str | None = None
    bounds: tuple[tuple[float, float], ...] | None = None
    grid: int = 201
    out: str | None = None
    workers: int = 1

    def validate(self) -> "RunConfig":
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.reps < 1000:
            raise ConfigError(f"reps must be at least 1000, got {self.reps}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed out of range [0, 2**64): {self.seed}")
        if self.grid < 2:
            raise ConfigError(f"grid must be at least 2, got {self.grid}")
        if self.family_kind not in _FAMILY_KINDS:
            raise ConfigError(f"unknown family kind {self.family_kind!r}")
        if (self.family_kind == "vs_control") != (self.control_label is not None):
            raise ConfigError("control label goes with, and only with, "
                              "the vs_control family")
        if self.workers < 1:
            raise ConfigError(f"workers must be positive, got {self.workers}")
        if self.bounds is not None:
            try:
                CovariateBox(self.bounds)
            except InvalidArgument as exc:
                raise ConfigError(str(exc)) from None
        return self


def parse_range(text: str) -> tuple[tuple[float, float], ...]:
    """Parse 'a:b[,a:b...]' into bound pairs; inf/-inf are accepted."""
    out = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ConfigError(f"range piece {part!r} is not of the form a:b")
        try:
            lo, hi = float(pieces[0]), float(pieces[1])
        except ValueError:
            raise ConfigError(f"range piece {part!r} has non-numeric bounds") from None
        if math.isnan(lo) or math.isnan(hi):
            raise ConfigError(f"range piece {part!r} has NaN bounds")
        if lo > hi:
            raise ConfigError(f"range piece {part!r} has low > high")
        out.append((lo, hi))
    return tuple(out)


def parse_family(text: str) -> tuple[str, str | None]:
    """Parse --family values: pairwise, successive, or control:LABEL."""
    if text in ("pairwise", "successive"):
        return text, None
    if text.startswith("control:"):
        label = text[len("control:"):]
        if not label:
            raise ConfigError("control family needs a group label, "
                              "as in control:placebo")
        return "vs_control", label
    raise ConfigError(
        f"unknown family {text!r}; use pairwise, successive, or control:LABEL")


# --- CSV ---------------------------------------------------------------

def _split_header(cells: list[str]) -> tuple[int, int]:
    if not cells or cells[0] != "group":
        raise MalformedHeader("first header column must be 'group'")
    idx = 1
    p = 0
    while idx < len(cells) and cells[idx] == f"x{p + 1}":
        p += 1
        idx += 1
    m = 0
    while idx < len(cells) and cells[idx] == f"y{m + 1}":
        m += 1
        idx += 1
    if idx != len(cells) or p < 1 or m < 1:
        raise MalformedHeader(
            "header must be group,x1..xp,y1..ym with p >= 1 and m >= 1; "
            f"got {','.join(cells)}")
    return p, m


def _decoded_lines(fh, path):
    """The lines of an open text file; a decoding failure is bad input."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{path}: cannot decode as text ({exc})") from None


def ingest_csv(path) -> GroupedDataset:
    """Read a dataset, preserving group order of first appearance."""
    with open(path, newline="") as fh:
        reader = csv.reader(_decoded_lines(fh, path))
        try:
            header = [c.strip() for c in next(reader)]
        except StopIteration:
            raise MalformedHeader(f"{path}: empty file") from None
        p, m = _split_header(header)
        width = 1 + p + m

        by_group: dict[str, list[list[float]]] = {}
        for row_no, row in enumerate(reader, start=2):
            if len(row) != width:
                raise MalformedHeader(
                    f"row {row_no} has {len(row)} cells, expected {width}")
            label = row[0].strip()
            if not label:
                raise EmptyGroup(f"row {row_no} has an empty group label")
            numbers = []
            for col_idx, cell in enumerate(row[1:], start=2):
                text = cell.strip()
                try:
                    value = float(text)
                except ValueError:
                    raise NonNumericCell(row_no, col_idx, text) from None
                if not math.isfinite(value):
                    raise NonNumericCell(row_no, col_idx, text)
                numbers.append(value)
            by_group.setdefault(label, []).append(numbers)

    if not by_group:
        raise EmptyGroup(f"{path}: no data rows")

    groups = []
    for label, rows in by_group.items():
        mat = np.array(rows)
        design = np.column_stack([np.ones(len(rows)), mat[:, :p]])
        groups.append(GroupData(label=label, design=design, response=mat[:, p:]))
    return GroupedDataset(groups=tuple(groups))


def write_csv(data: GroupedDataset, path) -> None:
    """Serialize a dataset back to the ingestion layout, round-trip exact."""
    p, m = data.p, data.m
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group"] + [f"x{i + 1}" for i in range(p)]
                        + [f"y{i + 1}" for i in range(m)])
        for g in data.groups:
            for xrow, yrow in zip(g.design[:, 1:], g.response):
                writer.writerow([g.label] + [repr(float(v)) for v in xrow]
                                + [repr(float(v)) for v in yrow])


# --- deterministic JSON -------------------------------------------------

def _fnum(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"reports carry only finite numbers, got {v}")
    return format(float(v), ".17g")


def _escape(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch in ('"', "\\"):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def to_json(obj, indent: int = 0) -> str:
    """Tiny JSON emitter with sorted keys and pinned float formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fnum(float(obj))
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{_escape(str(k))}: {to_json(obj[k], indent + 1)}"
                 for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{to_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _matrix(a: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.atleast_2d(a)]


def _box_strings(box: CovariateBox) -> list[str]:
    return [f"{_bound(lo)}:{_bound(hi)}" for lo, hi in box.bounds]


def _bound(v: float) -> str:
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return _fnum(v)


def _family_dict(family: ComparisonFamily) -> dict:
    d = {"kind": family.kind, "pairs": [list(p) for p in family.pairs]}
    if family.control is not None:
        d["control"] = family.control
    return d


def _header(alpha: float, reps: int, seed: int, dims,
            family: ComparisonFamily, box: CovariateBox) -> dict:
    """Fields every simulating report carries; ``dims`` is anything with
    ``nu``, ``p`` and ``m`` (a fit or a comparison report)."""
    return {"alpha": alpha, "reps": reps, "seed": seed,
            "family": _family_dict(family), "box": _box_strings(box),
            "nu": dims.nu, "p": dims.p, "m": dims.m}


def _critical_dict(crit: CriticalConstantResult) -> dict:
    return {"c_hat": crit.c_hat, "rank": crit.rank,
            "order_stat_interval": list(crit.order_stat_interval),
            "eb_coverage_interval": list(crit.eb_coverage_interval)}


def _pair_line(labels, statistic: float, p_value: float) -> str:
    return f"{labels[0]} vs {labels[1]}: statistic {statistic:.6g}, p={p_value:.6g}"


def report_dict(report: ComparisonReport) -> dict:
    pairs = []
    for pc in report.pairs:
        entry = {
            "i": pc.pair[0],
            "j": pc.pair[1],
            "labels": list(pc.labels),
            "statistic": pc.statistic,
            "argmax": None if pc.argmax is None else [float(v) for v in pc.argmax],
            "p_value": pc.p_value,
            "reject": bool(pc.reject),
        }
        if pc.significance_regions is not None:
            entry["significance_regions"] = [
                {"response": reg.response,
                 "intervals": [[a, b] for a, b in reg.intervals]}
                for reg in pc.significance_regions]
        pairs.append(entry)
    return {
        **_header(report.alpha, report.r, report.seed, report,
                  report.family, report.box),
        "groups": [{"index": idx + 1, "label": lab, "n": n}
                   for idx, (lab, n) in enumerate(
                       zip(report.labels, report.group_sizes))],
        "critical": _critical_dict(report.critical),
        "pairs": pairs,
    }


def _emit(report: dict, out: str | None) -> None:
    """Write the machine-readable report when a path was given.

    Without --out only the human summary is printed, so stdout stays
    clean either way.
    """
    if out is not None:
        Path(out).write_text(to_json(report) + "\n")


def _human_compare(report: ComparisonReport) -> str:
    crit = report.critical
    lines = [
        "groups: " + ", ".join(f"{lab} (n={n})" for lab, n in
                               zip(report.labels, report.group_sizes)),
        f"covariates p={report.p}, responses m={report.m}, error dof nu={report.nu}",
        f"family {report.family.kind} on box [" +
        ", ".join(_box_strings(report.box)) + "]",
        f"alpha={report.alpha:g}, replicates={report.r}, seed={report.seed}",
        f"critical constant {crit.c_hat:.6g} "
        f"(99% order-stat CI {crit.order_stat_interval[0]:.6g}.."
        f"{crit.order_stat_interval[1]:.6g})",
    ]
    for pc in report.pairs:
        verdict = "reject" if pc.reject else "no difference shown"
        lines.append(f"  {_pair_line(pc.labels, pc.statistic, pc.p_value)}, {verdict}")
        if pc.significance_regions:
            for reg in pc.significance_regions:
                if reg.intervals:
                    spans = ", ".join(f"[{a:.6g}, {b:.6g}]"
                                      for a, b in reg.intervals)
                    lines.append(f"    response {reg.response} differs on {spans}")
    return "\n".join(lines)


# --- command implementations --------------------------------------------

def _family_for(config: RunConfig, fit: FittedModels) -> ComparisonFamily:
    if config.family_kind == "pairwise":
        return ComparisonFamily.pairwise(fit.k)
    if config.family_kind == "successive":
        return ComparisonFamily.successive(fit.k)
    try:
        control = fit.labels.index(config.control_label) + 1
    except ValueError:
        raise ConfigError(
            f"control label {config.control_label!r} is not a group; "
            f"groups are {', '.join(fit.labels)}") from None
    return ComparisonFamily.vs_control(fit.k, control)


def _box_for(config: RunConfig, p: int) -> CovariateBox:
    if config.bounds is None:
        return CovariateBox.whole_space(p)
    if len(config.bounds) != p:
        raise ConfigError(
            f"--range lists {len(config.bounds)} coordinates, data has {p}")
    return CovariateBox(config.bounds)


def _prepare(config: RunConfig, data: GroupedDataset
             ) -> tuple[FittedModels, ComparisonFamily, CovariateBox]:
    """Fit, check the configuration, then resolve the family and box.

    Fitting first (it validates the dataset) makes a data error win over
    a configuration error; the family and box need the fitted labels and p.
    """
    fit = fit_models(data)
    config.validate()
    return fit, _family_for(config, fit), _box_for(config, fit.p)


def _critical(config: RunConfig, fit: FittedModels, family: ComparisonFamily,
              box: CovariateBox) -> CriticalConstantResult:
    sample = sct_engine.simulate_pivot(fit, family, box, config.reps,
                                       config.seed, workers=config.workers)
    return sct_engine.critical_constant(sample, config.alpha)


def run_compare(config: RunConfig, data: GroupedDataset) -> int:
    """Fit, simulate, test every pair, and write or print the report."""
    fit, family, box = _prepare(config, data)
    report = sct_engine.compare(
        fit, family, box, config.alpha, config.reps, config.seed,
        workers=config.workers)
    print(_human_compare(report))
    _emit(report_dict(report), config.out)
    return 0


def _resolve_pair(pair_text: str | None, family: ComparisonFamily,
                  fit: FittedModels) -> tuple[int, int]:
    if pair_text is None:
        return family.pairs[0]
    pieces = pair_text.split(":")
    if len(pieces) != 2:
        raise ConfigError(f"pair {pair_text!r} is not of the form A:B")
    idx = []
    for piece in pieces:
        if piece in fit.labels:
            idx.append(fit.labels.index(piece) + 1)
        else:
            try:
                num = int(piece)
            except ValueError:
                raise ConfigError(
                    f"{piece!r} is neither a group label nor an index") from None
            if not 1 <= num <= fit.k:
                raise ConfigError(f"group index {num} outside 1..{fit.k}")
            idx.append(num)
    if idx[0] == idx[1]:
        raise ConfigError("a tube compares two different groups")
    return idx[0], idx[1]


def export_tube(config: RunConfig, data: GroupedDataset,
                pair_text: str | None = None) -> int:
    """Write one pair's band along a grid as CSV plus a JSON sidecar.

    Columns: x, the m center coordinates, the squared ellipsoid radius,
    then lower/upper band edges per response coordinate, all read off
    one cross-section per grid point. The sidecar carries the critical
    constant, the scatter matrix, and enough configuration to reproduce
    the run.
    """
    fit, family, box = _prepare(config, data)
    if fit.p != 1:
        raise NotUnivariate("tube export draws along one covariate; "
                            f"data has p = {fit.p}")
    if not box.is_finite:
        raise UnboundedBox("tube export needs --range with finite bounds")
    pair = _resolve_pair(pair_text, family, fit)
    if pair not in family.pairs and (pair[1], pair[0]) not in family.pairs:
        raise ConfigError(
            f"pair {pair} is not in the {family.kind} family being adjusted for")
    crit = _critical(config, fit, family, box)

    out_path = Path(config.out if config.out is not None else "tube.csv")
    header = (["x"] + [f"center{q}" for q in range(1, fit.m + 1)]
              + ["radius_sq"]
              + [c for q in range(1, fit.m + 1) for c in (f"lower{q}", f"upper{q}")])
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for x in np.linspace(*box.bounds[0], config.grid):
            section = tube_geometry.cross_section(fit, pair, crit.c_hat, [x])
            row = [x, *section.center, section.radius_sq]
            for q in range(1, fit.m + 1):
                row += section.coordinate_interval(q)
            writer.writerow([_fnum(v) for v in row])

    sidecar = {
        **_header(config.alpha, config.reps, config.seed, fit, family, box),
        "pair": list(pair),
        "pair_labels": [fit.labels[pair[0] - 1], fit.labels[pair[1] - 1]],
        "grid": config.grid,
        "c_hat": crit.c_hat,
        "order_stat_interval": list(crit.order_stat_interval),
        "pooled_scatter": _matrix(fit.pooled_scatter),
    }
    Path(str(out_path) + ".meta.json").write_text(to_json(sidecar) + "\n")
    print(f"wrote {out_path} and {out_path}.meta.json "
          f"({config.grid} points, c={crit.c_hat:.6g})")
    return 0


def _cmd_fit(config: RunConfig, data: GroupedDataset) -> int:
    fit = fit_models(data)
    report = {
        "groups": [{"index": i + 1, "label": lab, "n": n,
                    "coefficients": _matrix(b)}
                   for i, (lab, n, b) in enumerate(
                       zip(fit.labels, fit.group_sizes, fit.bhat))],
        "nu": fit.nu,
        "p": fit.p,
        "m": fit.m,
        "pooled_scatter": _matrix(fit.pooled_scatter),
        "scatter_degenerate": fit.scatter_degenerate,
    }
    degen = " (scatter degenerate)" if fit.scatter_degenerate else ""
    print("fitted " + ", ".join(f"{lab} (n={n})" for lab, n in
                                zip(fit.labels, fit.group_sizes))
          + f"; p={fit.p}, m={fit.m}, nu={fit.nu}{degen}")
    _emit(report, config.out)
    return 0


def _cmd_critical(config: RunConfig, data: GroupedDataset) -> int:
    fit, family, box = _prepare(config, data)
    crit = _critical(config, fit, family, box)
    print(f"critical constant {crit.c_hat:.6g} at alpha={config.alpha:g} "
          f"(r={config.reps}, seed={config.seed}); "
          f"99% order-stat CI {crit.order_stat_interval[0]:.6g}.."
          f"{crit.order_stat_interval[1]:.6g}")
    _emit({**_header(config.alpha, config.reps, config.seed, fit, family, box),
           **_critical_dict(crit)}, config.out)
    return 0


def _cmd_pvalues(config: RunConfig, data: GroupedDataset) -> int:
    """Observed statistics and adjusted p-values from one simulated sample;
    no critical constant is estimated, so alpha * reps may be below 10."""
    fit, family, box = _prepare(config, data)
    sample = sct_engine.simulate_pivot(fit, family, box, config.reps,
                                       config.seed, workers=config.workers)
    pairs = []
    for i, j in family.pairs:
        t, _ = sct_engine.observed_statistic(fit, (i, j), box)
        pv = sct_engine.tail_p_value(sample.values, t)
        labels = [fit.labels[i - 1], fit.labels[j - 1]]
        pairs.append({"i": i, "j": j, "labels": labels,
                      "statistic": t, "p_value": pv})
        print(_pair_line(labels, t, pv))
    _emit({**_header(config.alpha, config.reps, config.seed, fit, family, box),
           "pairs": pairs}, config.out)
    return 0


def _cmd_roy(config: RunConfig, data: GroupedDataset) -> int:
    fit = fit_models(data)
    config.validate()
    if fit.k == 2:
        res = classical_tests.roy_two_sample(fit, config.alpha, config.reps,
                                             config.seed)
        which = "two-sample"
    else:
        res = classical_tests.roy_k_sample(fit, config.alpha, config.reps,
                                           config.seed)
        which = f"{fit.k}-sample"
    report = {
        "test": which,
        "statistic": res.statistic,
        "critical": res.critical,
        "p_value": res.p_value,
        "alpha": res.alpha,
        "reps": res.null_reps,
        "seed": res.seed,
        "null_dimension": res.null_dimension,
        "nu": fit.nu,
        "m": fit.m,
    }
    verdict = "reject" if res.statistic >= res.critical else "retain"
    print(f"largest-root {which} test: statistic {res.statistic:.6g}, "
          f"critical {res.critical:.6g}, p={res.p_value:.6g}, {verdict}")
    _emit(report, config.out)
    return 0


# --- argument parsing ----------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sctubes",
        description="Simultaneous confidence tubes for comparing "
                    "multivariate regression models across groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("data", help="CSV file: group,x1..xp,y1..ym")
    common.add_argument("--alpha", type=float, default=0.05,
                        help="simultaneous error rate (default 0.05)")
    common.add_argument("--reps", type=int, default=1_000_000,
                        help="Monte Carlo replicates (default 1000000)")
    common.add_argument("--seed", type=int, default=0,
                        help="random stream seed (default 0)")
    common.add_argument("--family", default="pairwise",
                        help="pairwise, successive, or control:LABEL")
    common.add_argument("--range", dest="range_text", default=None,
                        help="covariate box a:b[,a:b...]; default whole space")
    common.add_argument("--grid", type=int, default=201,
                        help="grid resolution for tube export")
    common.add_argument("--workers", type=int, default=1,
                        help="simulation threads (results identical for any value)")
    common.add_argument("--out", default=None,
                        help="write the JSON report (or tube CSV) here")

    sub.add_parser("fit", parents=[common],
                   help="fit the per-group regressions and report estimates")
    sub.add_parser("critical", parents=[common],
                   help="simulate the joint critical constant")
    sub.add_parser("compare", parents=[common],
                   help="full run: constant, statistics, p-values, regions")
    sub.add_parser("pvalues", parents=[common],
                   help="observed statistics and adjusted p-values")
    sub.add_parser("roy", parents=[common],
                   help="largest-root test (two-sample or k-sample)")
    tube = sub.add_parser("tube", parents=[common],
                          help="export one pair's band along a covariate grid")
    tube.add_argument("--pair", default=None,
                      help="which pair, as labels or 1-based indices A:B "
                           "(default: first pair of the family)")
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    kind, control = parse_family(args.family)
    bounds = None if args.range_text is None else parse_range(args.range_text)
    return RunConfig(
        alpha=args.alpha, reps=args.reps, seed=args.seed,
        family_kind=kind, control_label=control, bounds=bounds,
        grid=args.grid, out=args.out, workers=args.workers)


_COMMANDS = {"fit": _cmd_fit, "critical": _cmd_critical, "compare": run_compare,
             "pvalues": _cmd_pvalues, "roy": _cmd_roy, "tube": export_tube}
_EXIT_CODES = {OSError: 2, InputDataError: 2, DegeneracyError: 3, UsageError: 4}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    extra = (args.pair,) if args.command == "tube" else ()
    try:
        return _COMMANDS[args.command](
            _config_from(args), ingest_csv(args.data), *extra)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())

"""CSV ingestion, deterministic report serialization, and the CLI.

The expected CSV layout is one observation per row:

    group,x1,...,xp,y1,...,ym

with at least one covariate column and one response column. Groups are
ordered by first appearance and indexed from 1 in that order everywhere
(reports, and the groups that --family control:GROUP and --pair A:B
name, each by its label or that index). Blank lines are skipped.

Reports are written by ``json.dumps`` with sorted keys, two-space
indents and UTF-8 text; floats print in Python's shortest round-trip
form, so rerunning a command with the same inputs produces
byte-identical output. The tube CSV keeps 17 significant digits.

``main``, the one entry point, puts the flags as typed into a
``RunConfig`` and hands it with the data to the subcommand's private
``_cmd_*`` handler. The one ordering rule: nothing in the config is
judged before the data are read and fitted, so a data error (exit 2)
wins over every flag error (exit 4). Every command but ``fit`` starts
with ``_prepare``: fit, which validates the data; refuse fewer than
two groups; check the config; parse and resolve the --family and
--range texts (``tube`` then its --pair) against the fit. The JSON
reports of ``critical``, ``pvalues``, ``compare`` and ``tube`` share
one header. Each simulating command reads its numbers from one null
law (see ``sct_engine``): ``critical``, ``compare`` and ``tube`` have
the simulated sample refuse alpha and --reps before it is drawn, then
read its ``critical(alpha)``; ``pvalues`` reads only its p-values, so
it runs at any alpha; ``roy`` reports the law that ``roy_k_sample``
picked, with its kind, replicates and seed. The seed and the worker
count are checked where they are used, by the random stream and the
block driver. Numerical degeneracy exits 3; any other exception is a
bug and propagates.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
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
    MalformedHeader,
    NonNumericCell,
    NotTwoGroups,
    NotUnivariate,
    UnboundedBox,
    UsageError,
    pair_of,
)
from .model_core import FittedModels, GroupData, GroupedDataset, fit_models
from .rand_engine import STREAM_VERSION
from .sct_engine import ComparisonFamily, ComparisonReport, CriticalConstantResult
from .sup_solver import CovariateBox


@dataclass(frozen=True)
class RunConfig:
    """Run settings as typed on the command line; each subcommand takes
    flags only for the fields it acts on, and the rest keep these
    defaults.

    ``family`` is ``pairwise``, ``successive`` or ``control:GROUP``;
    ``range_text`` is ``a:b[,a:b...]``, or None for the whole covariate
    space; ``pair`` is ``A:B`` by labels or 1-based indices, or None for
    the family's first pair. These texts are parsed and resolved only
    after the data are fitted, so any data error wins over them.
    ``workers`` caps the simulation threads: 1 runs serially, and None
    or any larger value draws in a second thread where the process may
    use two CPUs. No value changes a report.
    """

    alpha: float = 0.05
    reps: int = 1_000_000
    seed: int = 0
    family: str = "pairwise"
    range_text: str | None = None
    grid: int = 201
    out: str | None = None
    workers: int | None = None
    pair: str | None = None

    def validate(self) -> "RunConfig":
        """Check the settings that no library call checks on every
        command: alpha (``pvalues`` estimates no constant), the
        replicate floor of 1000, below which the tail quantile is
        meaningless, and the tube grid."""
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.reps < 1000:
            raise ConfigError(f"reps must be at least 1000, got {self.reps}")
        if self.grid < 2:
            raise ConfigError(f"grid must be at least 2, got {self.grid}")
        return self


def parse_range(text: str) -> tuple[tuple[float, float], ...]:
    """Parse 'a:b[,a:b...]' into bound pairs; inf/-inf are accepted.

    Only the syntax is checked here; ``CovariateBox`` checks the bounds
    themselves (no NaN, low <= high).
    """
    return tuple(pair_of(part.split(":"), float,
                         "a --range piece must be a:b with numeric bounds", ConfigError)
                 for part in text.split(","))


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
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(_decoded_lines(fh, path))
        try:
            header = [c.strip() for c in next(reader)]
        except StopIteration:
            raise MalformedHeader(f"{path}: empty file") from None
        p, m = _split_header(header)
        width = 1 + p + m

        by_group: dict[str, list[list[float]]] = {}
        for row_no, row in enumerate(reader, start=2):
            if not row:  # a blank line
                continue
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


# --- reports ----------------------------------------------------------

def _fnum(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"reports carry only finite numbers, got {v}")
    return format(float(v), ".17g")


def to_json(obj) -> str:
    """Report text: sorted keys, two-space indents, finite numbers only."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
                      ensure_ascii=False)


def _box_strings(box: CovariateBox) -> list[str]:
    """'low:high' per coordinate; infinite bounds print as inf and -inf."""
    return [f"{lo:.17g}:{hi:.17g}" for lo, hi in box.bounds]


def _family_dict(family: ComparisonFamily) -> dict:
    d = {"kind": family.kind, "pairs": [list(p) for p in family.pairs]}
    if family.control is not None:
        d["control"] = family.control
    return d


def _header(alpha: float, reps: int, seed: int, dims,
            family: ComparisonFamily, box: CovariateBox) -> dict:
    """Fields every simulating report carries; ``dims`` is anything with
    ``nu``, ``p`` and ``m`` (a fit or a comparison report). ``stream``
    is the random stream version the replicates were drawn under."""
    return {"alpha": alpha, "reps": reps, "seed": seed, "stream": STREAM_VERSION,
            "family": _family_dict(family), "box": _box_strings(box),
            "nu": dims.nu, "p": dims.p, "m": dims.m}


def _critical_dict(crit: CriticalConstantResult) -> dict:
    return {"c_hat": crit.c_hat, "rank": crit.rank,
            "order_stat_interval": list(crit.order_stat_interval),
            "eb_coverage_interval": list(crit.eb_coverage_interval)}


def _pair_line(labels, statistic: float, p_value: float) -> str:
    return f"{labels[0]} vs {labels[1]}: statistic {statistic:.6g}, p={p_value:.6g}"


def _pair_dict(pc: sct_engine.PairComparison) -> dict:
    """One pair's report entry; ``reject`` and the significance regions
    are written only when the pair carries them."""
    entry = {"i": pc.pair[0], "j": pc.pair[1], "labels": list(pc.labels),
             "statistic": pc.statistic,
             "argmax": None if pc.argmax is None else pc.argmax.tolist(),
             "p_value": pc.p_value}
    if pc.reject is not None:
        entry["reject"] = pc.reject
    if pc.significance_regions is not None:
        entry["significance_regions"] = [
            {"response": reg.response,
             "intervals": [list(span) for span in reg.intervals]}
            for reg in pc.significance_regions]
    return entry


def report_dict(report: ComparisonReport) -> dict:
    return {
        **_header(report.alpha, report.r, report.seed, report,
                  report.family, report.box),
        "groups": [{"index": idx + 1, "label": lab, "n": n}
                   for idx, (lab, n) in enumerate(
                       zip(report.labels, report.group_sizes))],
        "critical": _critical_dict(report.critical),
        "pairs": [_pair_dict(pc) for pc in report.pairs],
    }


def _emit(report: dict, out: str | None) -> None:
    """Write the machine-readable report when a path was given.

    Without --out only the human summary is printed, so stdout stays
    clean either way.
    """
    if out is not None:
        Path(out).write_text(to_json(report) + "\n", encoding="utf-8")


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

def _group_index(text: str, fit: FittedModels) -> int:
    """A group's 1-based index from its label or else from that index."""
    if text in fit.labels:
        return fit.labels.index(text) + 1
    try:
        index = int(text)
    except ValueError:
        raise ConfigError(f"{text!r} is neither a group label nor an index") from None
    if not 1 <= index <= fit.k:
        raise ConfigError(f"group index {index} outside 1..{fit.k}")
    return index


def _family_for(config: RunConfig, fit: FittedModels) -> ComparisonFamily:
    """The --family text (pairwise, successive or control:GROUP) as a
    family over the fitted groups."""
    if config.family == "pairwise":
        return ComparisonFamily.pairwise(fit.k)
    if config.family == "successive":
        return ComparisonFamily.successive(fit.k)
    control = config.family.removeprefix("control:")
    if control == config.family:
        raise ConfigError(f"unknown family {config.family!r}; "
                          "use pairwise, successive, or control:GROUP")
    return ComparisonFamily.vs_control(fit.k, _group_index(control, fit))


def _box_for(config: RunConfig, p: int) -> CovariateBox:
    """The --range text as a box in the data's p covariates."""
    if config.range_text is None:
        return CovariateBox.whole_space(p)
    bounds = parse_range(config.range_text)
    if len(bounds) != p:
        raise ConfigError(f"--range lists {len(bounds)} coordinates, data has {p}")
    return CovariateBox(bounds)


def _prepare(config: RunConfig, data: GroupedDataset
             ) -> tuple[FittedModels, ComparisonFamily, CovariateBox]:
    """Fit, check the configuration, then resolve the family and box.

    Fitting first (it validates the dataset) and counting the groups
    makes a data error win over every flag error; the family and box
    need the fitted labels and p.
    """
    fit = fit_models(data)
    if fit.k < 2:
        raise NotTwoGroups(f"need at least 2 groups to compare, got {fit.k}")
    config.validate()
    return fit, _family_for(config, fit), _box_for(config, fit.p)


def _critical(config: RunConfig, fit: FittedModels, family: ComparisonFamily,
              box: CovariateBox) -> CriticalConstantResult:
    sct_engine.SimulatedSample.tail_rank(config.reps, config.alpha)  # before any draw
    sample = sct_engine.simulate_pivot(fit, family, box, config.reps,
                                       config.seed, workers=config.workers)
    return sample.critical(config.alpha)


def _cmd_compare(config: RunConfig, data: GroupedDataset) -> int:
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
    """The --pair text as 1-based group indices; None is the family's
    first pair."""
    if pair_text is None:
        return family.pairs[0]
    return pair_of(pair_text.split(":"), lambda text: _group_index(text, fit),
                   "--pair must be of the form A:B", ConfigError)


def _cmd_tube(config: RunConfig, data: GroupedDataset) -> int:
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
    pair = _resolve_pair(config.pair, family, fit)
    if pair not in family.pairs and (pair[1], pair[0]) not in family.pairs:
        raise ConfigError(
            f"pair {pair} is not in the {family.kind} family being adjusted for")
    crit = _critical(config, fit, family, box)

    out_path = Path(config.out if config.out is not None else "tube.csv")
    header = (["x"] + [f"center{q}" for q in range(1, fit.m + 1)]
              + ["radius_sq"]
              + [c for q in range(1, fit.m + 1) for c in (f"lower{q}", f"upper{q}")])
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
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
        "pooled_scatter": fit.pooled_scatter.tolist(),
    }
    _emit(sidecar, f"{out_path}.meta.json")
    print(f"wrote {out_path} and {out_path}.meta.json "
          f"({config.grid} points, c={crit.c_hat:.6g})")
    return 0


def _cmd_fit(config: RunConfig, data: GroupedDataset) -> int:
    fit = fit_models(data)
    report = {
        "groups": [{"index": i + 1, "label": lab, "n": n,
                    "coefficients": b.tolist()}
                   for i, (lab, n, b) in enumerate(
                       zip(fit.labels, fit.group_sizes, fit.bhat))],
        "nu": fit.nu,
        "p": fit.p,
        "m": fit.m,
        "pooled_scatter": fit.pooled_scatter.tolist(),
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
    pairs = sct_engine.pair_comparisons(fit, sample)
    for pc in pairs:
        print(_pair_line(pc.labels, pc.statistic, pc.p_value))
    _emit({**_header(config.alpha, config.reps, config.seed, fit, family, box),
           "pairs": [_pair_dict(pc) for pc in pairs]}, config.out)
    return 0


def _cmd_roy(config: RunConfig, data: GroupedDataset) -> int:
    fit, _, _ = _prepare(config, data)  # roy takes no --family or --range
    res = classical_tests.roy_k_sample(fit, config.alpha, config.reps,
                                       config.seed, workers=config.workers)
    which = "two-sample" if fit.k == 2 else f"{fit.k}-sample"
    report = {
        "test": which,
        "statistic": res.statistic,
        "critical": res.critical,
        "p_value": res.p_value,
        "alpha": res.alpha,
        "reps": res.null_reps,
        "seed": res.seed,
        "stream": STREAM_VERSION,
        "null_dimension": res.null_dimension,
        "null_law": res.null_law,
        "nu": fit.nu,
        "m": fit.m,
    }
    verdict = "reject" if res.statistic >= res.critical else "retain"
    print(f"largest-root {which} test: statistic {res.statistic:.6g}, "
          f"critical {res.critical:.6g}, p={res.p_value:.6g}, {verdict} "
          f"({res.null_law} null)")
    _emit(report, config.out)
    return 0


# --- argument parsing ----------------------------------------------------

def _flag_group() -> argparse.ArgumentParser:
    """A parent parser for one group of flags. Flags left off the command
    line stay out of the namespace, so the ``RunConfig`` defaults apply."""
    return argparse.ArgumentParser(add_help=False,
                                   argument_default=argparse.SUPPRESS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sctubes",
        description="Simultaneous confidence tubes for comparing "
                    "multivariate regression models across groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    io = _flag_group()
    io.add_argument("data", help="CSV file: group,x1..xp,y1..ym")
    io.add_argument("--out", help="write the JSON report (or tube CSV) here")
    sim = _flag_group()
    sim.add_argument("--alpha", type=float,
                     help="simultaneous error rate (default 0.05)")
    sim.add_argument("--reps", type=int,
                     help="Monte Carlo replicates (default 1000000)")
    sim.add_argument("--seed", type=int, help="random stream seed (default 0)")
    sim.add_argument("--workers", type=int,
                     help="most simulation threads; 1 runs serially, and the "
                          "default draws in a second thread where two CPUs are "
                          "usable (results identical for any value)")
    region = _flag_group()
    region.add_argument("--family", help="pairwise, successive, or control:GROUP")
    region.add_argument("--range", dest="range_text",
                        help="covariate box a:b[,a:b...]; default whole space")
    band = _flag_group()
    band.add_argument("--grid", type=int, help="grid resolution for tube export")
    band.add_argument("--pair", help="which pair, as labels or 1-based indices "
                                     "A:B (default: first pair of the family)")

    for name, groups, text in (
            ("fit", [io], "fit the per-group regressions and report estimates"),
            ("critical", [io, sim, region], "simulate the joint critical constant"),
            ("compare", [io, sim, region],
             "full run: constant, statistics, p-values, regions"),
            ("pvalues", [io, sim, region],
             "observed statistics and adjusted p-values"),
            ("roy", [io, sim], "largest-root test (two-sample or k-sample)"),
            ("tube", [io, sim, region, band],
             "export one pair's band along a covariate grid")):
        sub.add_parser(name, parents=groups, help=text)
    return parser


_COMMANDS = {"fit": _cmd_fit, "critical": _cmd_critical, "compare": _cmd_compare,
             "pvalues": _cmd_pvalues, "roy": _cmd_roy, "tube": _cmd_tube}
_EXIT_CODES = {OSError: 2, InputDataError: 2, DegeneracyError: 3, UsageError: 4}


def _bind_negative_range(argv: list[str]) -> list[str]:
    """Rewrite ``--range -5:5`` as ``--range=-5:5``: argparse would read
    a separate value starting with '-' as a flag."""
    args = list(argv)
    for idx in range(len(args) - 1, 0, -1):
        if args[idx - 1] == "--range" and re.fullmatch(r"-[^-].*:.*", args[idx]):
            args[idx - 1:idx + 1] = [f"--range={args[idx]}"]
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    flags = vars(_build_parser().parse_args(_bind_negative_range(argv)))
    command, path = flags.pop("command"), flags.pop("data")
    try:
        return _COMMANDS[command](RunConfig(**flags), ingest_csv(path))
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters recorded around calls into sctubes' public functions.

Tracing works by rebinding: each traced function is replaced, in every
module that looks it up by name, with a wrapper that records a span
(name, start, end, parent span, and optionally one size argument) or
just counts calls. The program itself is not changed. A function that
no longer exists is recorded as absent and its metrics read zero.

Spans are kept in memory and written out once the job ends; the
benchmark runner (run.py) turns them into per-layer metrics with
``layer_metrics``.
"""

from __future__ import annotations

import importlib
import inspect
import time

# name -> (kind, size argument or None, sites). The first site is where
# the function is defined; the rest are modules that import it by name
# and call it from the pipeline.
# "span" records timed spans; "top" records only the outermost call of a
# recursive function; "count" only counts calls (used on hot paths).
PLAN = {
    "cli_io.ingest_csv": ("span", None, ["sctubes.cli_io.ingest_csv"]),
    "cli_io.report_dict": ("span", None, ["sctubes.cli_io.report_dict"]),
    "cli_io.to_json": ("top", None, ["sctubes.cli_io.to_json"]),
    "model_core.fit_models": ("span", None, ["sctubes.model_core.fit_models",
                                             "sctubes.cli_io.fit_models"]),
    "rand_engine.normal_block": ("span", None, [
        "sctubes.rand_engine.normal_block", "sctubes.sct_engine.normal_block",
        "sctubes.classical_tests.normal_block"]),
    "rand_engine.wishart_factor_block": ("span", "count", [
        "sctubes.rand_engine.wishart_factor_block",
        "sctubes.sct_engine.wishart_factor_block",
        "sctubes.classical_tests.wishart_factor_block"]),
    "sct_engine.simulate_pivot": ("span", "r", [
        "sctubes.sct_engine.simulate_pivot"]),
    "sct_engine.critical_constant": ("span", None, [
        "sctubes.sct_engine.critical_constant"]),
    "sct_engine.adjusted_p_values": ("span", None, [
        "sctubes.sct_engine.adjusted_p_values"]),
    "sct_engine.observed_statistic": ("span", None, [
        "sctubes.sct_engine.observed_statistic"]),
    "sup_solver.sup_box": ("span", None, [
        "sctubes.sup_solver.sup_box", "sctubes.sct_engine.sup_box"]),
    "tube_geometry.significance_region": ("span", None, [
        "sctubes.tube_geometry.significance_region"]),
    "classical_tests.largest_root_null_sample": ("span", "r", [
        "sctubes.classical_tests.largest_root_null_sample"]),
    "classical_tests.roy_k_sample": ("span", None, [
        "sctubes.classical_tests.roy_k_sample"]),
    "sup_solver.QuadraticRatio.value_at": ("count", None, [
        "sctubes.sup_solver.QuadraticRatio.value_at"]),
    "sup_solver.sup_interval": ("count", None, [
        "sctubes.sup_solver.sup_interval", "sctubes.sct_engine.sup_interval"]),
    "sup_solver.sup_unbounded": ("count", None, [
        "sctubes.sup_solver.sup_unbounded", "sctubes.sct_engine.sup_unbounded"]),
}


def _resolve(site: str):
    """Split 'pkg.mod.Attr.name' into (owner object, attribute name).

    Returns None when the module or any attribute on the way is gone.
    """
    parts = site.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        return owner, parts[-1]
    return None


class Tracer:
    """Records spans and call counts for the functions in a plan."""

    def __init__(self):
        self.spans: list = []      # [name, start_ns, end_ns, parent, size]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def _span(self, name, fn, size_arg, top_only):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if size_arg else None
        open_calls = [0]
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if top_only and open_calls[0]:
                return fn(*args, **kwargs)
            size = None
            if sig is not None:
                size = sig.bind(*args, **kwargs).arguments.get(size_arg)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            open_calls[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_calls[0] -= 1
                stack.pop()
                spans[idx] = [name, start, end, parent, size]
        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, plan=PLAN) -> None:
        for name, (kind, size_arg, sites) in plan.items():
            home = _resolve(sites[0])
            fn = None if home is None else getattr(home[0], home[1], None)
            if fn is None:
                self.absent.append(name)
                continue
            if kind == "count":
                wrapper = self._count(name, fn)
            else:
                wrapper = self._span(name, fn, size_arg, kind == "top")
            for site in sites:
                where = _resolve(site)
                if where is None or getattr(where[0], where[1], None) is not fn:
                    continue
                setattr(where[0], where[1], wrapper)
                self._undo.append((where[0], where[1], fn))

    def restore(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "absent": self.absent}


# --- arithmetic on recorded spans --------------------------------------------

def self_times(spans: list) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Calls are single threaded, so a span's children are disjoint and
    lie inside it.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def import_times(stderr_text: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out: dict[str, float] = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        out.setdefault(fields[2].strip(), int(fields[1]) * 1e-6)
    return out


# (metric, unit, better) for every per-layer metric, in report order.
LAYER_METRICS = [
    ("setup.import_s", "s", "lower"),
    ("setup.import_scipy_stats_s", "s", "lower"),
    ("cli_io.ingest_csv_s", "s", "lower"),
    ("cli_io.report_s", "s", "lower"),
    ("model_core.fit_models_s", "s", "lower"),
    ("rand_engine.draw_s", "s", "lower"),
    ("rand_engine.block_calls", "count", "lower"),
    ("rand_engine.replicates_drawn", "count", "lower"),
    ("rand_engine.useful_ratio", "ratio", "higher"),
    ("sct_engine.simulate_s", "s", "lower"),
    ("sct_engine.us_per_replicate", "us", "lower"),
    ("sct_engine.kernel_self_s", "s", "lower"),
    ("sct_engine.observed_statistic_calls", "count", "lower"),
    ("sct_engine.observed_statistic_s", "s", "lower"),
    ("sct_engine.adjusted_p_values_s", "s", "lower"),
    ("sct_engine.critical_constant_s", "s", "lower"),
    ("sup_solver.sup_box_calls", "count", "lower"),
    ("sup_solver.sup_box_s", "s", "lower"),
    ("sup_solver.ratio_evals", "count", "lower"),
    ("sup_solver.sup_interval_calls", "count", "lower"),
    ("sup_solver.sup_unbounded_calls", "count", "lower"),
    ("tube_geometry.significance_region_calls", "count", "lower"),
    ("tube_geometry.significance_region_s", "s", "lower"),
    ("classical_tests.null_sample_s", "s", "lower"),
    ("classical_tests.roy_k_sample_s", "s", "lower"),
    ("trace.job_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.absent_layers", "count", "lower"),
]


def layer_metrics(trace: dict, imports: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced job (trace.* filled in by the caller)."""
    spans, counts = trace["spans"], trace["counts"]
    selfs = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    size: dict[str, int] = {}
    own: dict[str, float] = {}
    for (name, start, end, _, n), s in zip(spans, selfs):
        total[name] = total.get(name, 0.0) + (end - start) * 1e-9
        own[name] = own.get(name, 0.0) + s * 1e-9
        calls[name] = calls.get(name, 0) + 1
        size[name] = size.get(name, 0) + (n or 0)

    def t(name):
        return total.get(name, 0.0)

    drawn = size.get("rand_engine.wishart_factor_block", 0)
    used = (size.get("sct_engine.simulate_pivot", 0)
            + size.get("classical_tests.largest_root_null_sample", 0))
    sim_reps = size.get("sct_engine.simulate_pivot", 0)
    return {
        "setup.import_s": imports.get("sctubes", 0.0),
        "setup.import_scipy_stats_s": imports.get("scipy.stats", 0.0),
        "cli_io.ingest_csv_s": t("cli_io.ingest_csv"),
        "cli_io.report_s": t("cli_io.report_dict") + t("cli_io.to_json"),
        "model_core.fit_models_s": t("model_core.fit_models"),
        "rand_engine.draw_s": (t("rand_engine.normal_block")
                               + t("rand_engine.wishart_factor_block")),
        "rand_engine.block_calls": (calls.get("rand_engine.normal_block", 0)
                                    + calls.get("rand_engine.wishart_factor_block", 0)),
        "rand_engine.replicates_drawn": drawn,
        "rand_engine.useful_ratio": used / drawn if drawn else 0.0,
        "sct_engine.simulate_s": t("sct_engine.simulate_pivot"),
        "sct_engine.us_per_replicate": (t("sct_engine.simulate_pivot") / sim_reps * 1e6
                                        if sim_reps else 0.0),
        "sct_engine.kernel_self_s": own.get("sct_engine.simulate_pivot", 0.0),
        "sct_engine.observed_statistic_calls": calls.get("sct_engine.observed_statistic", 0),
        "sct_engine.observed_statistic_s": t("sct_engine.observed_statistic"),
        "sct_engine.adjusted_p_values_s": t("sct_engine.adjusted_p_values"),
        "sct_engine.critical_constant_s": t("sct_engine.critical_constant"),
        "sup_solver.sup_box_calls": calls.get("sup_solver.sup_box", 0),
        "sup_solver.sup_box_s": t("sup_solver.sup_box"),
        "sup_solver.ratio_evals": counts.get("sup_solver.QuadraticRatio.value_at", 0),
        "sup_solver.sup_interval_calls": counts.get("sup_solver.sup_interval", 0),
        "sup_solver.sup_unbounded_calls": counts.get("sup_solver.sup_unbounded", 0),
        "tube_geometry.significance_region_calls": calls.get(
            "tube_geometry.significance_region", 0),
        "tube_geometry.significance_region_s": t("tube_geometry.significance_region"),
        "classical_tests.null_sample_s": t("classical_tests.largest_root_null_sample"),
        "classical_tests.roy_k_sample_s": t("classical_tests.roy_k_sample"),
        "trace.absent_layers": len(trace["absent"]),
    }

"""One benchmark job: a fresh process that imports sctubes and runs a workload.

Usage: python3 perfbench/job.py SPEC.json

The spec (written by run.py) names the workload, its generated input
files, the output directory and whether to trace. The job records the
monotonic clock right after ``import sctubes`` returns and again after
its last output is written, plus the CPU time between the two, and
writes them with everything the checks need to ``result.json`` in the
output directory. Work done after the timed part (the region probe and
the reference samples of box_p2) is not part of the job.
"""

import sys
import time

import sctubes

T_IMPORTED = time.monotonic_ns()
CPU_IMPORTED = time.process_time()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from sctubes import cli_io, model_core, sct_engine, tube_geometry  # noqa: E402
from sctubes.sct_engine import ComparisonFamily  # noqa: E402
from sctubes.sup_solver import CovariateBox  # noqa: E402


def run_interval_k3(spec, out: Path) -> int:
    bounds = ",".join(f"{lo!r}:{hi!r}" for lo, hi in spec["box"])
    return cli_io.main(["compare", spec["csv"], "--range", bounds,
                        "--seed", str(spec["seed"]),
                        "--out", str(out / "report.json")])


def run_whole_k5m3(spec, out: Path) -> int:
    common = ["--reps", str(spec["reps"]), "--seed", str(spec["seed"])]
    rc = cli_io.main(["roy", spec["csv"], *common, "--out", str(out / "roy.json")])
    if rc != 0:
        return rc
    return cli_io.main(["compare", spec["csv"], *common,
                        "--out", str(out / "report.json")])


def box_of(spec) -> CovariateBox:
    return CovariateBox(tuple(tuple(b) for b in spec["box"]))


def run_box_p2(spec, out: Path, captured: dict) -> int:
    data = cli_io.ingest_csv(spec["csv"])
    fit = model_core.fit_models(data)
    report = sct_engine.compare(fit, ComparisonFamily.pairwise(fit.k),
                                box_of(spec), spec["alpha"], spec["reps"],
                                spec["seed"])
    crit = report.critical
    doc = {
        "r": report.r, "nu": report.nu, "m": report.m, "alpha": report.alpha,
        "critical": {"c_hat": crit.c_hat, "rank": crit.rank,
                     "order_stat_interval": list(crit.order_stat_interval)},
        "pairs": [{"i": pc.pair[0], "j": pc.pair[1],
                   "statistic": pc.statistic, "p_value": pc.p_value,
                   "reject": bool(pc.reject),
                   "argmax": None if pc.argmax is None
                   else [float(v) for v in pc.argmax]}
                  for pc in report.pairs],
    }
    (out / "report.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
    captured["fit"] = fit
    return 0


def box_reference_samples(spec, captured: dict) -> dict:
    """Point and whole-space samples on the same seed and r, plus the
    finite-box sample the job produced."""
    fit = captured["fit"]
    family = ComparisonFamily.pairwise(fit.k)
    box = box_of(spec)
    center = [0.5 * (lo + hi) for lo, hi in box.bounds]
    samples = {"box": [float(v) for v in captured["sample"].values]}
    for key, region in (("point", CovariateBox.point(*center)),
                        ("whole", CovariateBox.whole_space(fit.p))):
        sample = sct_engine.simulate_pivot(fit, family, region, spec["reps"],
                                           spec["seed"])
        samples[key] = [float(v) for v in sample.values]
    return samples


def run_probes(spec) -> list:
    """significance_region on the fixed probe data; None marks an error."""
    fit = model_core.fit_models(cli_io.ingest_csv(spec["probe_csv"]))
    box = CovariateBox.interval(*spec["probe_interval"])
    out = []
    for probe in spec["probes"]:
        try:
            reg = tube_geometry.significance_region(
                fit, tuple(probe["pair"]), probe["c"], probe["response"], box)
            out.append([list(iv) for iv in reg.intervals])
        except Exception as exc:  # a probe that raises is a failed operation
            print(f"probe {probe['pair']} q={probe['response']}: {exc!r}",
                  file=sys.stderr)
            out.append(None)
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    out = Path(spec["out"])
    src = Path(spec["src"]).resolve()
    if src not in Path(sctubes.__file__).resolve().parents:
        print(f"sctubes imported from {sctubes.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    # The box sample is read back for the checks; keeping a reference to
    # the returned object costs one extra call frame per simulate_pivot.
    captured: dict = {}
    simulate = sct_engine.simulate_pivot
    if spec["workload"] == "box_p2":
        def keep(*args, **kwargs):
            captured["sample"] = simulate(*args, **kwargs)
            return captured["sample"]
        sct_engine.simulate_pivot = keep

    name = spec["workload"]
    if name == "interval_k3":
        rc = run_interval_k3(spec, out)
    elif name == "whole_k5m3":
        rc = run_whole_k5m3(spec, out)
    else:
        rc = run_box_p2(spec, out, captured)

    t_end = time.monotonic_ns()
    cpu_end = time.process_time()
    sct_engine.simulate_pivot = simulate
    if tracer is not None:
        tracer.restore()
        (out / "trace.json").write_text(json.dumps(tracer.dump()))

    result = {
        "rc": rc,
        "t_imported_ns": T_IMPORTED,
        "t_end_ns": t_end,
        "cpu_s": cpu_end - CPU_IMPORTED,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if rc == 0 and name == "box_p2":
        result["samples"] = box_reference_samples(spec, captured)
    if spec.get("probes"):
        result["probes"] = run_probes(spec)
    (out / "result.json").write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())

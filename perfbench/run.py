"""Benchmark runner for sctubes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload interval_k3 --seed 1 --seconds 25 --trace 0

The runner generates the workload's inputs from --seed, then runs rounds
until --seconds have passed. Each round launches one fresh Python
process (perfbench/job.py) that imports sctubes from ./src and runs the
workload once, with one worker and single-threaded BLAS. After the
rounds it checks the outputs against computations of its own
(checks.py) and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over rounds):
setup_s, job_s, cpu_s and peak_rss_mb. --trace 1 alternates untraced
rounds with rounds traced by spans.py and reports the per-layer
metrics, including the tracing overhead.

Operations: each round's job is one operation. interval_k3 adds one
region probe per pair and response on fixed (seed-independent) data;
a probe fails when significance_region misses the exact region.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
# The whole run, checks included, must end within this many seconds.
HARD_LIMIT_S = 165.0
CHECK_MARGIN_S = 15.0
# Outputs that must be byte-identical across the rounds of one run.
OUTPUT_FILES = ("report.json", "roy.json", "stdout.txt")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def prepare(name: str, seed: int, work_dir: Path) -> tuple[dict, list]:
    """Write the inputs; return the job spec and the region probes."""
    work = inputs.WORKLOADS[name]
    groups = inputs.make_groups(work, seed)
    csv_path = work_dir / "data.csv"
    inputs.write_groups(groups, csv_path)
    box = [[inputs.LOW, inputs.HIGH]] * work.p
    spec = {"workload": name, "csv": str(csv_path), "seed": seed,
            "reps": work.reps, "alpha": work.alpha, "box": box,
            "src": str(SRC), "probes": []}
    probes = []
    if name == "interval_k3":
        probe_path = work_dir / "probe.csv"
        probe = inputs.probe_groups()
        inputs.write_groups(probe, probe_path)
        pairs = [(i, j) for i in range(1, len(probe) + 1)
                 for j in range(i + 1, len(probe) + 1)]
        probes = checks.probe_constants(checks.ls_fit(probe), pairs,
                                        inputs.LOW, inputs.HIGH,
                                        inputs.REGION_GRID)
        spec["probe_csv"] = str(probe_path)
        spec["probe_interval"] = [inputs.LOW, inputs.HIGH]
        spec["probes"] = [{k: p[k] for k in ("pair", "response", "c")}
                          for p in probes]
    return spec, probes


class Round:
    """One job process: its timings, exit status and output directory."""

    def __init__(self, spec: dict, out: Path, traced: bool, timeout: float):
        out.mkdir(parents=True)
        self.out = out
        spec = dict(spec, out=str(out), trace=traced)
        spec_path = out / "spec.json"
        spec_path.write_text(json.dumps(spec))
        cmd = [sys.executable] + (["-X", "importtime"] if traced else []) \
            + [str(HERE / "job.py"), str(spec_path)]
        with open(out / "stdout.txt", "wb") as so, \
                open(out / "stderr.txt", "wb") as se:
            t_launch = time.monotonic_ns()
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=child_env(),
                                    cwd=str(ROOT))
            try:
                self.rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                self.rc = None
        self.result = None
        result_path = out / "result.json"
        if self.rc == 0 and result_path.is_file():
            self.result = json.loads(result_path.read_text())
            self.setup_s = (self.result["t_imported_ns"] - t_launch) * 1e-9
            self.job_s = (self.result["t_end_ns"]
                          - self.result["t_imported_ns"]) * 1e-9
            self.cpu_s = self.result["cpu_s"]
            self.rss_mb = self.result["maxrss_kb"] * 1024 / 1e6

    @property
    def ok(self) -> bool:
        return self.result is not None

    def outputs(self) -> dict[str, bytes]:
        return {f: (self.out / f).read_bytes() for f in OUTPUT_FILES
                if (self.out / f).is_file()}

    def layer_metrics(self) -> dict[str, float]:
        trace = json.loads((self.out / "trace.json").read_text())
        imports = spans.import_times((self.out / "stderr.txt").read_text())
        return spans.layer_metrics(trace, imports)


def check_outputs(name: str, first: Round, spec) -> list[str]:
    groups = inputs.read_groups(Path(spec["csv"]))
    fit = checks.ls_fit(groups)
    rep = json.loads((first.out / "report.json").read_text())
    if name == "interval_k3":
        return checks.check_interval_k3(rep, fit, spec["alpha"],
                                        inputs.LOW, inputs.HIGH)
    if name == "whole_k5m3":
        roy = json.loads((first.out / "roy.json").read_text())
        return checks.check_whole_k5m3(rep, roy, groups, fit, spec["alpha"])
    s = first.result["samples"]
    return checks.check_box_p2(rep, fit, spec["alpha"], inputs.LOW,
                               inputs.HIGH, s["point"], s["box"], s["whole"])


def failed_probes(rnd: Round, probes: list) -> int:
    if not probes:
        return 0
    if not rnd.ok:
        return len(probes)
    tol_x = 2e-5 * (inputs.HIGH - inputs.LOW)
    return sum(not checks.probe_passes(got, p["exact"], tol_x)
               for got, p in zip(rnd.result["probes"], probes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "sctubes" / "__init__.py").is_file():
        print(f"no sctubes sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    work_dir = WORK / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    spec, probes = prepare(args.workload, args.seed, work_dir)

    # Untimed warm-up: byte-compiles sctubes and fills the file cache.
    warm = subprocess.run([sys.executable, "-c", "import sctubes"],
                          env=child_env(), cwd=str(ROOT), timeout=60,
                          capture_output=True, text=True)
    if warm.returncode != 0:
        print(f"import sctubes failed:\n{warm.stderr}", file=sys.stderr)
        return 2

    plain: list[Round] = []
    traced: list[Round] = []
    attempted = failed = 0
    loop_start = time.monotonic()
    cycles = 0
    while True:
        cycle = [False, True] if args.trace else [False]
        for is_traced in cycle:
            left = HARD_LIMIT_S - CHECK_MARGIN_S - (time.monotonic() - started)
            rnd = Round(spec, work_dir / f"round{len(plain) + len(traced)}",
                        is_traced, max(left, 1.0))
            (traced if is_traced else plain).append(rnd)
            attempted += 1 + len(probes)
            failed += (not rnd.ok) + failed_probes(rnd, probes)
            if rnd.rc is None:
                break
        cycles += 1
        now = time.monotonic()
        per_cycle = (now - loop_start) / cycles
        if (now - loop_start >= args.seconds or rnd.rc is None
                or now - started + per_cycle > HARD_LIMIT_S - CHECK_MARGIN_S):
            break

    good = [r for r in plain + traced if r.ok]
    if not [r for r in plain if r.ok] or (args.trace and not
                                          [r for r in traced if r.ok]):
        print("no job completed; see the stderr.txt files under "
              f"{work_dir}", file=sys.stderr)
        return 1

    problems = []
    reference = good[0].outputs()
    for r in good[1:]:
        if r.outputs() != reference:
            problems.append(f"{r.out.name}: outputs differ from {good[0].out.name}")
    problems += check_outputs(args.workload, good[0], spec)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    ok_plain = [r for r in plain if r.ok]
    if args.trace:
        ok_traced = [r for r in traced if r.ok]
        per_round = [r.layer_metrics() for r in ok_traced]
        values = {name: statistics.median(m[name] for m in per_round)
                  for name in per_round[0]}
        values["trace.job_s"] = statistics.median(r.job_s for r in ok_traced)
        values["trace.overhead_s"] = (values["trace.job_s"]
                                      - statistics.median(r.job_s for r in ok_plain))
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name, _, _ in spans.LAYER_METRICS}
        absent = json.loads((ok_traced[0].out / "trace.json").read_text())["absent"]
        if absent:
            print("absent layers: " + ", ".join(absent))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r.setup_s for r in ok_plain),
                        "unit": "s"},
            "job_s": {"value": statistics.median(r.job_s for r in ok_plain),
                      "unit": "s"},
            "cpu_s": {"value": statistics.median(r.cpu_s for r in ok_plain),
                      "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.rss_mb for r in ok_plain),
                            "unit": "MB"},
        }

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} rounds"
          + (f" + {len(traced)} traced" if args.trace else "")
          + f", {attempted} operations attempted, {failed} failed")
    print("  job_s by round: " + " ".join(f"{r.job_s:.3f}" for r in ok_plain))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

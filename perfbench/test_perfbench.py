"""Tests of the benchmark itself: fast, and independent of the timed runs.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
Valid reports are built here from the checks' own oracles, so every
check is seen both to accept a correct output and to reject a
perturbed one.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402


# --- synthetic reports that pass ------------------------------------------------

def _pairs(k):
    return [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]


def _report(stats: dict, c_hat: float, nu: int) -> dict:
    return {
        "nu": nu,
        "critical": {"c_hat": c_hat,
                     "order_stat_interval": [0.99 * c_hat, 1.01 * c_hat]},
        "pairs": [{"i": i, "j": j, "statistic": t,
                   "p_value": 0.0 if t >= c_hat else 0.5, "reject": t >= c_hat}
                  for (i, j), t in stats.items()],
    }


@pytest.fixture(scope="module")
def interval_case():
    work = inputs.WORKLOADS["interval_k3"]
    fit = checks.ls_fit(inputs.make_groups(work, 3))
    c_hat = 0.0858
    stats = {}
    for i, j in _pairs(3):
        _, delta, num = fit.pair(i, j)
        stats[(i, j)] = checks.interval_sup(num, delta, inputs.LOW, inputs.HIGH)
    rep = _report(stats, c_hat, fit.nu)
    for pr in rep["pairs"]:
        regions = []
        for q in (1, 2):
            center, dcoef = checks.center_and_var(fit, pr["i"], pr["j"], q)
            exact = checks.exact_region(center, dcoef, c_hat,
                                        fit.scatter[q - 1, q - 1],
                                        inputs.LOW, inputs.HIGH)
            regions.append({"response": q,
                            "intervals": [list(iv) for iv in exact]})
        pr["significance_regions"] = regions
    return fit, rep, work.alpha


@pytest.fixture(scope="module")
def whole_case():
    work = inputs.WORKLOADS["whole_k5m3"]
    groups = inputs.make_groups(work, 3)
    fit = checks.ls_fit(groups)
    stats = {}
    for i, j in _pairs(5):
        _, delta, num = fit.pair(i, j)
        stats[(i, j)] = checks.whole_sup(num, delta)
    rep = _report(stats, 0.104, fit.nu)
    stat = checks.roy_statistic(groups, fit)
    roy = {"statistic": stat, "critical": 0.15,
           "p_value": 0.0 if stat >= 0.15 else 0.5, "null_dimension": 8}
    return groups, fit, rep, roy, work.alpha


@pytest.fixture(scope="module")
def box_case():
    work = inputs.WORKLOADS["box_p2"]
    fit = checks.ls_fit(inputs.make_groups(work, 3))
    _, delta, num = fit.pair(1, 2)
    stat = checks.box_grid_max(num, delta, inputs.LOW, inputs.HIGH)
    rep = _report({(1, 2): stat}, 0.11, fit.nu)
    rep["r"] = work.reps
    point = np.sort(np.random.default_rng(0).chisquare(2, work.reps)) / fit.nu
    samples = {"point": point.tolist(), "box": (point + 0.1).tolist(),
               "whole": (point + 0.2).tolist()}
    return fit, rep, samples, work.alpha


def _box_check(fit, rep, samples, alpha):
    return checks.check_box_p2(rep, fit, alpha, inputs.LOW, inputs.HIGH,
                               samples["point"], samples["box"], samples["whole"])


def test_valid_reports_pass(interval_case, whole_case, box_case):
    fit, rep, alpha = interval_case
    assert checks.check_interval_k3(rep, fit, alpha, inputs.LOW, inputs.HIGH) == []
    groups, fit, rep, roy, alpha = whole_case
    assert checks.check_whole_k5m3(rep, roy, groups, fit, alpha) == []
    assert _box_check(*box_case) == []


# --- each check rejects a perturbed output ----------------------------------------

@pytest.mark.parametrize("perturb", [
    lambda r: r["pairs"][0].update(statistic=r["pairs"][0]["statistic"] * (1 + 1e-6)),
    lambda r: r["pairs"][1].update(reject=not r["pairs"][1]["reject"]),
    lambda r: r["pairs"][2].update(p_value=0.5),
    lambda r: r["critical"].update(c_hat=r["critical"]["order_stat_interval"][1] * 1.01),
    lambda r: r["critical"].update(c_hat=1e-4, order_stat_interval=[1e-4, 1e-4]),
    lambda r: r.update(nu=r["nu"] + 1),
    lambda r: r["pairs"][1]["significance_regions"][0]["intervals"][0].__setitem__(
        1, r["pairs"][1]["significance_regions"][0]["intervals"][0][1] - 0.01),
    lambda r: r["pairs"][1]["significance_regions"][1].update(intervals=[]),
    lambda r: r["pairs"][0]["significance_regions"][1]["intervals"].append([9.9, 10.0]),
], ids=["statistic", "reject", "p_value", "c_outside_interval", "c_below_point",
        "nu", "region_edge", "region_dropped", "region_added"])
def test_interval_check_rejects(interval_case, perturb):
    fit, rep, alpha = interval_case
    bad = copy.deepcopy(rep)
    perturb(bad)
    assert checks.check_interval_k3(bad, fit, alpha, inputs.LOW, inputs.HIGH)


@pytest.mark.parametrize("perturb", [
    lambda r, roy: r["pairs"][3].update(statistic=r["pairs"][3]["statistic"] * (1 - 1e-6)),
    lambda r, roy: roy.update(statistic=roy["statistic"] * 1.001),
    lambda r, roy: roy.update(critical=0.9 * r["critical"]["c_hat"]),
    lambda r, roy: roy.update(null_dimension=2),
    lambda r, roy: roy.update(p_value=1.0),
], ids=["pair_statistic", "roy_statistic", "roy_critical", "null_dimension",
        "roy_p_value"])
def test_whole_check_rejects(whole_case, perturb):
    groups, fit, rep, roy, alpha = whole_case
    rep, roy = copy.deepcopy(rep), dict(roy)
    perturb(rep, roy)
    assert checks.check_whole_k5m3(rep, roy, groups, fit, alpha)


def test_whole_check_rejects_pair_above_roy(whole_case):
    groups, fit, rep, roy, alpha = whole_case
    top = max(p["statistic"] for p in rep["pairs"])
    bad = dict(roy, statistic=0.5 * top)
    problems = checks.check_whole_k5m3(rep, bad, groups, fit, alpha)
    assert any("exceeds the Roy" in p for p in problems)


@pytest.mark.parametrize("perturb", [
    lambda r, s: r["pairs"][0].update(statistic=r["pairs"][0]["statistic"] * (1 - 1e-6)),
    lambda r, s: r["pairs"][0].update(statistic=1e6),
    lambda r, s: s["box"].__setitem__(0, s["point"][0] - 1e-3),
    lambda r, s: s["whole"].__setitem__(-1, s["box"][-1] - 1e-3),
    lambda r, s: s["point"].pop(),
], ids=["below_grid", "above_whole", "point_above_box", "box_above_whole",
        "sample_size"])
def test_box_check_rejects(box_case, perturb):
    fit, rep, samples, alpha = box_case
    rep, samples = copy.deepcopy(rep), copy.deepcopy(samples)
    perturb(rep, samples)
    assert _box_check(fit, rep, samples, alpha)


def test_probe_pass_and_fail():
    fit = checks.ls_fit(inputs.probe_groups())
    probes = checks.probe_constants(fit, _pairs(3), inputs.LOW, inputs.HIGH,
                                    inputs.REGION_GRID)
    assert len(probes) == 6
    grid = np.linspace(inputs.LOW, inputs.HIGH, inputs.REGION_GRID)
    step = grid[1] - grid[0]
    for p in probes:
        (a, b), = p["exact"]
        assert 0 < b - a < step
        assert not ((grid >= a) & (grid <= b)).any()
        assert checks.probe_passes([[a + 1e-6, b - 1e-6]], p["exact"], 2e-4)
        assert not checks.probe_passes([], p["exact"], 2e-4)
        assert not checks.probe_passes(None, p["exact"], 2e-4)
        assert not checks.probe_passes([[a - 0.01, b]], p["exact"], 2e-4)


def test_exact_region_matches_dense_excess():
    fit = checks.ls_fit(inputs.make_groups(inputs.WORKLOADS["interval_k3"], 4))
    ts = np.linspace(inputs.LOW, inputs.HIGH, 20001)
    for q in (1, 2):
        center, dcoef = checks.center_and_var(fit, 1, 3, q)
        region = checks.exact_region(center, dcoef, 0.09,
                                     fit.scatter[q - 1, q - 1],
                                     inputs.LOW, inputs.HIGH)
        exc = checks.excess(fit, 1, 3, q, 0.09, ts)
        assert checks.regions_agree(region, ts, exc, 1e-9) == []


# --- the input generator ----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_inputs_deterministic(name, tmp_path):
    work = inputs.WORKLOADS[name]
    a, b = inputs.make_groups(work, 7), inputs.make_groups(work, 7)
    other = inputs.make_groups(work, 8)
    for ga, gb, go in zip(a, b, other):
        assert np.array_equal(ga.x, gb.x) and np.array_equal(ga.y, gb.y)
        assert not np.array_equal(ga.y, go.y)
    inputs.write_groups(a, tmp_path / "a.csv")
    inputs.write_groups(b, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    for ga, gr in zip(a, inputs.read_groups(tmp_path / "a.csv")):
        assert ga.label == gr.label
        assert np.array_equal(ga.x, gr.x) and np.array_equal(ga.y, gr.y)
    assert [g.x.shape[0] for g in a] == list(work.sizes)


def test_probe_inputs_ignore_seed():
    a, b = inputs.probe_groups(), inputs.probe_groups()
    assert all(np.array_equal(ga.y, gb.y) for ga, gb in zip(a, b))


# --- tracing ---------------------------------------------------------------------

def test_self_times():
    spans_ = [
        ["root", 0, 100, None, None],
        ["a", 10, 40, 0, None],
        ["a.child", 15, 25, 1, None],
        ["b", 50, 60, 0, None],
    ]
    assert spans.self_times(spans_) == [60, 20, 10, 10]


def test_layer_metrics_from_spans():
    ms = 1_000_000
    trace = {
        "spans": [
            ["sct_engine.simulate_pivot", 0, 100 * ms, None, 1000],
            ["rand_engine.wishart_factor_block", 0, 20 * ms, 0, 8192],
            ["rand_engine.normal_block", 20 * ms, 30 * ms, 0, None],
            ["sup_solver.sup_box", 30 * ms, 70 * ms, 0, None],
            ["cli_io.report_dict", 100 * ms, 101 * ms, None, None],
            ["cli_io.to_json", 101 * ms, 104 * ms, None, None],
        ],
        "counts": {"sup_solver.QuadraticRatio.value_at": 77},
        "absent": ["classical_tests.roy_k_sample"],
    }
    got = spans.layer_metrics(trace, {"sctubes": 1.25, "scipy.stats": 0.5})
    assert got["sct_engine.simulate_s"] == pytest.approx(0.1)
    assert got["sct_engine.kernel_self_s"] == pytest.approx(0.03)
    assert got["rand_engine.draw_s"] == pytest.approx(0.03)
    assert got["rand_engine.block_calls"] == 2
    assert got["rand_engine.useful_ratio"] == pytest.approx(1000 / 8192)
    assert got["sct_engine.us_per_replicate"] == pytest.approx(100.0)
    assert got["sup_solver.sup_box_s"] == pytest.approx(0.04)
    assert got["sup_solver.ratio_evals"] == 77
    assert got["cli_io.report_s"] == pytest.approx(0.004)
    assert got["setup.import_s"] == 1.25
    assert got["classical_tests.roy_k_sample_s"] == 0.0
    assert got["trace.absent_layers"] == 1
    names = {name for name, _, _ in spans.LAYER_METRICS}
    assert set(got) | {"trace.job_s", "trace.overhead_s"} == names


def test_missing_function_reported_absent():
    plan = {
        "json.dumps": ("span", None, ["json.dumps"]),
        "json.no_such_function": ("span", None, ["json.no_such_function"]),
        "no_such_module.f": ("count", None, ["no_such_module_xyz.f"]),
    }
    original = json.dumps
    tracer = spans.Tracer()
    tracer.install(plan)
    try:
        assert json.dumps is not original
        assert json.dumps([1]) == "[1]"
    finally:
        tracer.restore()
    assert json.dumps is original
    assert tracer.absent == ["json.no_such_function", "no_such_module.f"]
    assert [s[0] for s in tracer.spans] == ["json.dumps"]


def test_nested_spans_and_top_only():
    def fact(n):
        return 1 if n <= 1 else n * mod.fact(n - 1)

    mod = type(sys)("perfbench_fake_mod")
    mod.fact, mod.outer = fact, lambda: mod.fact(4)
    sys.modules[mod.__name__] = mod
    try:
        plan = {"outer": ("span", None, [f"{mod.__name__}.outer"]),
                "fact": ("top", None, [f"{mod.__name__}.fact"])}
        tracer = spans.Tracer()
        tracer.install(plan)
        assert mod.outer() == 24
        tracer.restore()
    finally:
        del sys.modules[mod.__name__]
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "fact"]
    assert tracer.spans[1][3] == 0          # fact's parent is outer


def test_import_times_parser():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        340 |     scipy.stats\n"
            "import time:        80 |    1200000 | sctubes\n"
            "some other stderr line\n"
            "import time:         5 |          9 | scipy.stats\n")
    got = spans.import_times(text)
    assert got["sctubes"] == pytest.approx(1.2)
    assert got["scipy.stats"] == pytest.approx(340e-6)

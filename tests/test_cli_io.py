"""Ingestion, config parsing, JSON stability, and the command surface."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from conftest import make_dataset
from sctubes import sct_engine
from sctubes.cli_io import (
    RunConfig,
    ingest_csv,
    main,
    parse_family,
    parse_range,
    run_compare,
    to_json,
    write_csv,
)
from sctubes.errors import (
    ConfigError,
    EmptyGroup,
    InvalidArgument,
    MalformedHeader,
    NonNumericCell,
)
from sctubes.sup_solver import CovariateBox
from sctubes.model_core import fit_models
from sctubes.tube_geometry import cross_section, projected_band


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def synthetic_csv(path, sizes=(10, 12), m=1, seed=1, offset=0.0, noise=1.0):
    rng = np.random.default_rng(seed)
    coef = np.vstack([np.linspace(1.0, 2.0, m), np.full(m, 0.5)])
    data = make_dataset(rng, sizes, tuple(
        coef + (offset if g else 0.0) for g in range(len(sizes))), noise=noise)
    write_csv(data, path)
    return data


# --- ingestion ---------------------------------------------------------------

def test_ingest_minimal_single_group(tmp_path):
    path = tmp_path / "tiny.csv"
    write_lines(path, ["group,x1,y1", "a,0,1.5", "a,1,2.5", "a,2,3.5"])
    data = ingest_csv(path)
    assert data.k == 1 and data.p == 1 and data.m == 1
    assert data.groups[0].n == 3
    np.testing.assert_array_equal(data.groups[0].design[:, 0], np.ones(3))
    np.testing.assert_array_equal(data.groups[0].design[:, 1], [0, 1, 2])
    np.testing.assert_array_equal(data.groups[0].response[:, 0], [1.5, 2.5, 3.5])


def test_ingest_two_group_bivariate_file(tmp_path):
    path = tmp_path / "two.csv"
    rng = np.random.default_rng(11)
    rows = ["group,x1,y1,y2"]
    for label, n in (("one", 87), ("two", 161)):
        for _ in range(n):
            x = float(rng.uniform(0, 78.6))
            rows.append(f"{label},{x!r},{float(rng.normal())!r},"
                        f"{float(rng.normal())!r}")
    write_lines(path, rows)
    data = ingest_csv(path)
    assert data.k == 2 and data.p == 1 and data.m == 2
    assert data.group_sizes == (87, 161)
    assert fit_models(data).nu == 244


def test_ingest_preserves_first_appearance_order(tmp_path):
    path = tmp_path / "order.csv"
    write_lines(path, ["group,x1,y1", "z,0,1", "b,1,2", "z,2,3", "b,3,4",
                       "a,4,5"])
    data = ingest_csv(path)
    assert data.labels == ("z", "b", "a")


def test_blank_cell_position_is_reported(tmp_path):
    path = tmp_path / "blank.csv"
    write_lines(path, ["group,x1,y1,y2", "a,1.0,2.0,3.0", "a,1.5,,3.5"])
    with pytest.raises(NonNumericCell) as err:
        ingest_csv(path)
    assert err.value.row == 3
    assert err.value.col == 3


def test_non_finite_cells_are_rejected(tmp_path):
    path = tmp_path / "inf.csv"
    write_lines(path, ["group,x1,y1", "a,1.0,inf"])
    with pytest.raises(NonNumericCell) as err:
        ingest_csv(path)
    assert err.value.row == 2 and err.value.col == 3


def test_malformed_headers(tmp_path):
    bad_headers = [
        "species,x1,y1",        # wrong key column
        "group,x2,y1",          # covariates must start at x1
        "group,x1",             # no response columns
        "group,y1",             # no covariate columns
        "group,x1,y1,extra",    # trailing junk
    ]
    for idx, header in enumerate(bad_headers):
        path = tmp_path / f"bad{idx}.csv"
        write_lines(path, [header, "a,1,2"])
        with pytest.raises(MalformedHeader):
            ingest_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(MalformedHeader):
        ingest_csv(empty)


def test_row_width_mismatch(tmp_path):
    path = tmp_path / "width.csv"
    write_lines(path, ["group,x1,y1", "a,1,2,9"])
    with pytest.raises(MalformedHeader):
        ingest_csv(path)


def test_empty_group_errors(tmp_path):
    path = tmp_path / "nolabel.csv"
    write_lines(path, ["group,x1,y1", ",1,2"])
    with pytest.raises(EmptyGroup):
        ingest_csv(path)
    bare = tmp_path / "bare.csv"
    write_lines(bare, ["group,x1,y1"])
    with pytest.raises(EmptyGroup):
        ingest_csv(bare)


def test_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(12)
    coef = rng.standard_normal((3, 2))
    original = make_dataset(rng, (9, 14), (coef, coef + 0.1))
    path = tmp_path / "round.csv"
    write_csv(original, path)
    back = ingest_csv(path)
    assert back.labels == original.labels
    for a, b in zip(original.groups, back.groups):
        np.testing.assert_array_equal(a.design, b.design)
        np.testing.assert_array_equal(a.response, b.response)


# --- config parsing ------------------------------------------------------------

def test_parse_range_forms():
    assert parse_range("0:10") == ((0.0, 10.0),)
    assert parse_range("-inf:inf,0:1") == ((-np.inf, np.inf), (0.0, 1.0))
    for bad in ("5", "a:b", "3:1", "nan:1", "1:2:3"):
        with pytest.raises(ConfigError):
            parse_range(bad)


def test_parse_family_forms():
    assert parse_family("pairwise") == ("pairwise", None)
    assert parse_family("successive") == ("successive", None)
    assert parse_family("control:placebo") == ("vs_control", "placebo")
    for bad in ("control:", "banana"):
        with pytest.raises(ConfigError):
            parse_family(bad)


def test_config_validation():
    RunConfig().validate()
    cases = [
        dict(alpha=0.0),
        dict(alpha=1.0),
        dict(reps=999),
        dict(seed=-1),
        dict(grid=1),
        dict(family_kind="bogus"),
        dict(family_kind="vs_control"),                    # missing label
        dict(family_kind="pairwise", control_label="A"),   # stray label
        dict(workers=0),
        dict(bounds=((3.0, 1.0),)),
    ]
    for overrides in cases:
        with pytest.raises(ConfigError):
            RunConfig(**overrides).validate()


# --- compare pipeline ----------------------------------------------------------

def test_rerun_is_byte_identical(tmp_path):
    path = tmp_path / "data.csv"
    synthetic_csv(path, m=2, offset=0.3)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        config = RunConfig(reps=2000, seed=5, bounds=((0.0, 10.0),),
                           out=str(out))
        assert run_compare(config, ingest_csv(path)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    # And the report is real JSON with the advertised fields.
    doc = json.loads(outs[0])
    assert doc["nu"] == 10 + 12 - 4
    assert doc["critical"]["rank"] == 1900


def test_worker_count_leaves_reports_unchanged(tmp_path):
    path = tmp_path / "data.csv"
    synthetic_csv(path, sizes=(9, 9), m=1)
    blobs = []
    for workers, name in ((1, "w1.json"), (4, "w4.json")):
        out = tmp_path / name
        config = RunConfig(reps=20_000, seed=2, workers=workers, out=str(out))
        run_compare(config, ingest_csv(path))
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_vs_control_on_two_groups_gives_single_reversed_pair(tmp_path):
    path = tmp_path / "data.csv"
    synthetic_csv(path, m=1)
    out = tmp_path / "report.json"
    config = RunConfig(reps=1000, family_kind="vs_control", control_label="A",
                       out=str(out))
    run_compare(config, ingest_csv(path))
    doc = json.loads(out.read_text())
    assert doc["family"]["kind"] == "vs_control"
    assert doc["family"]["control"] == 1
    assert len(doc["pairs"]) == 1
    assert (doc["pairs"][0]["i"], doc["pairs"][0]["j"]) == (2, 1)


def test_alpha_half_smoke_report(tmp_path):
    path = tmp_path / "data.csv"
    synthetic_csv(path, sizes=(8, 9), m=2, offset=0.2)
    out = tmp_path / "report.json"
    config = RunConfig(alpha=0.5, reps=1000, bounds=((0.0, 10.0),),
                       out=str(out))
    run_compare(config, ingest_csv(path))
    doc = json.loads(out.read_text())
    for key in ("alpha", "reps", "seed", "groups", "nu", "p", "m", "family",
                "box", "critical", "pairs"):
        assert key in doc
    crit = doc["critical"]
    for key in ("c_hat", "rank", "order_stat_interval", "eb_coverage_interval"):
        assert key in crit
    for pair in doc["pairs"]:
        for key in ("i", "j", "labels", "statistic", "argmax", "p_value",
                    "reject", "significance_regions"):
            assert key in pair


# --- tube export ----------------------------------------------------------------

def test_tube_export_layout(tmp_path):
    path = tmp_path / "data.csv"
    synthetic_csv(path, m=2, offset=0.4, seed=8)
    out = tmp_path / "tube.csv"
    code = main(["tube", str(path), "--reps", "1000", "--seed", "3",
                 "--range", "0:78.6", "--grid", "201", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "center1", "center2", "radius_sq",
                       "lower1", "upper1", "lower2", "upper2"]
    assert len(rows) == 202
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == 78.6
    meta = json.loads((tmp_path / "tube.csv.meta.json").read_text())
    for key in ("alpha", "reps", "seed", "pair", "pair_labels", "family",
                "box", "grid", "nu", "p", "m", "c_hat",
                "order_stat_interval", "pooled_scatter"):
        assert key in meta


def test_tube_export_zero_centers_for_equal_groups(tmp_path):
    rng = np.random.default_rng(13)
    n = 11
    x = rng.uniform(0, 10, size=n)
    rows = ["group,x1,y1"]
    # Same data for both groups: build once, emit twice.
    y = 1.0 + 2.0 * x + rng.standard_normal(n)
    for label in ("A", "B"):
        for xi, yi in zip(x, y):
            rows.append(f"{label},{float(xi)!r},{float(yi)!r}")
    path = tmp_path / "equal.csv"
    write_lines(path, rows)
    out = tmp_path / "flat.csv"
    code = main(["tube", str(path), "--reps", "1000", "--range", "0:10",
                 "--grid", "21", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(float(row[1]) == 0.0 for row in rows[1:])


def test_tube_round_trip_reconstructs_membership(tmp_path):
    path = tmp_path / "data.csv"
    data = synthetic_csv(path, m=2, offset=0.5, seed=9)
    out = tmp_path / "tube.csv"
    main(["tube", str(path), "--reps", "2000", "--seed", "4",
          "--range", "0:10", "--grid", "11", "--out", str(out)])
    meta = json.loads((tmp_path / "tube.csv.meta.json").read_text())
    scatter = np.array(meta["pooled_scatter"])
    pair = tuple(meta["pair"])
    c_hat = meta["c_hat"]
    fit = fit_models(data)

    rng = np.random.default_rng(14)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for row in rows[::4]:
        x = float(row[0])
        center = np.array([float(row[1]), float(row[2])])
        radius_sq = float(row[3])
        section = cross_section(fit, pair, c_hat, x)
        for _ in range(25):
            z = center + rng.standard_normal(2) * np.sqrt(radius_sq + 1e-12)
            mah = float((z - center) @ np.linalg.solve(scatter, z - center))
            rebuilt = mah <= radius_sq
            # Stay off the knife edge where 17-digit text could matter.
            if abs(mah - radius_sq) > 1e-9 * max(radius_sq, 1e-12):
                assert rebuilt == section.contains(z)


def test_tube_pair_selection(tmp_path):
    path = tmp_path / "three.csv"
    rng = np.random.default_rng(15)
    coef = np.array([[1.0], [0.5]])
    data = make_dataset(rng, (8, 9, 10), (coef, coef, coef))
    write_csv(data, path)
    out = tmp_path / "t.csv"
    base = ["tube", str(path), "--reps", "1000", "--range", "0:10",
            "--grid", "5", "--out", str(out)]
    assert main(base + ["--pair", "C:A"]) == 0
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["pair"] == [3, 1]
    assert meta["pair_labels"] == ["C", "A"]
    assert main(base + ["--pair", "2:1"]) == 0
    # Not part of the successive family in either orientation.
    assert main(base + ["--family", "successive", "--pair", "1:3"]) == 4
    assert main(base + ["--pair", "A:A"]) == 4
    assert main(base + ["--pair", "A:nope"]) == 4
    assert main(base + ["--pair", "0:1"]) == 4


# --- exit codes and subcommands --------------------------------------------------

def test_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.csv"
    synthetic_csv(good, m=1)

    assert main(["compare", str(good), "--reps", "1000",
                 "--out", str(tmp_path / "r.json")]) == 0

    assert main(["compare", str(tmp_path / "missing.csv")]) == 2
    assert "error:" in capsys.readouterr().err

    bad_cell = tmp_path / "bad.csv"
    write_lines(bad_cell, ["group,x1,y1", "a,1,oops"])
    assert main(["compare", str(bad_cell)]) == 2
    not_text = tmp_path / "binary.csv"
    not_text.write_bytes(b"group,x1,y1\na,1,\xff\xfe\n")
    assert main(["compare", str(not_text)]) == 2

    exact = tmp_path / "exact.csv"
    lines = ["group,x1,y1"]
    for label in ("A", "B"):
        for i in range(10):
            lines.append(f"{label},{float(i)!r},{float(1 + 2 * i)!r}")
    write_lines(exact, lines)
    assert main(["compare", str(exact), "--reps", "1000"]) == 3

    # A data error wins over a config error in every command.
    flat = tmp_path / "flat.csv"
    write_lines(flat, ["group,x1,y1"] + [f"{label},1.0,{i}.5" for label in "AB"
                                         for i in range(5)])
    for command in ("critical", "pvalues", "compare", "roy", "tube"):
        assert main([command, str(flat), "--alpha", "1.5"]) == 2

    assert main(["compare", str(good), "--family", "bogus"]) == 4
    assert main(["compare", str(good), "--range", "10:0"]) == 4
    assert main(["compare", str(good), "--reps", "10"]) == 4
    assert main(["compare", str(good), "--reps", "1000",
                 "--family", "control:missing"]) == 4
    assert main(["compare", str(good), "--reps", "1000",
                 "--range", "0:1,2:3"]) == 4


def test_internal_value_error_is_not_a_usage_error(tmp_path, monkeypatch):
    good = tmp_path / "good.csv"
    synthetic_csv(good, m=1)
    argv = ["compare", str(good), "--reps", "1000"]

    def fail_with(exc):
        def compare(*args, **kwargs):
            raise exc
        return compare

    monkeypatch.setattr(sct_engine, "compare", fail_with(ValueError("bug")))
    with pytest.raises(ValueError, match="bug"):
        main(argv)
    monkeypatch.setattr(sct_engine, "compare",
                        fail_with(InvalidArgument("bad argument")))
    assert main(argv) == 4


@pytest.mark.parametrize("check", [
    lambda: sct_engine.ComparisonFamily.custom([(1, 1)]),
    lambda: sct_engine.ComparisonFamily.custom([(0, 1)]),
    lambda: sct_engine.ComparisonFamily.custom([(1, 2), (1, 2)]),
    lambda: sct_engine.ComparisonFamily.vs_control(3, 4),
    lambda: sct_engine.ComparisonFamily.pairwise(3).validate_for(2),
    lambda: CovariateBox(((1.0, 0.0),)),
    lambda: CovariateBox(((float("nan"), 1.0),)),
    lambda: CovariateBox(()),
    lambda: sct_engine.quantile_rank(100, 1.5),
])
def test_argument_checks_raise_typed_usage_errors(check):
    # Typed for the exit code, and still a ValueError for library callers.
    with pytest.raises(InvalidArgument) as info:
        check()
    assert isinstance(info.value, ValueError)


def test_fit_subcommand(tmp_path, capsys):
    path = tmp_path / "data.csv"
    synthetic_csv(path, m=2)
    out = tmp_path / "fit.json"
    assert main(["fit", str(path), "--out", str(out)]) == 0
    assert "nu=" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["nu"] == 18
    assert len(doc["groups"]) == 2
    assert np.array(doc["groups"][0]["coefficients"]).shape == (2, 2)
    assert doc["scatter_degenerate"] is False


def test_critical_subcommand(tmp_path):
    path = tmp_path / "data.csv"
    synthetic_csv(path, m=1)
    out = tmp_path / "crit.json"
    assert main(["critical", str(path), "--reps", "2000", "--seed", "7",
                 "--range", "0:10", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["c_hat"] > 0.0
    assert doc["rank"] == 1900
    assert doc["box"] == ["0:10"]


def test_pvalues_subcommand(tmp_path, capsys):
    path = tmp_path / "data.csv"
    synthetic_csv(path, m=1, offset=0.5)
    out = tmp_path / "p.json"
    assert main(["pvalues", str(path), "--reps", "2000",
                 "--out", str(out)]) == 0
    assert "p=" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert len(doc["pairs"]) == 1
    assert 0.0 <= doc["pairs"][0]["p_value"] <= 1.0


def three_group_csv(path):
    rng = np.random.default_rng(16)
    coef = np.array([[1.0, 2.0], [0.5, -0.3]])
    write_csv(make_dataset(rng, (8, 9, 10), (coef, coef + 0.3, coef - 0.2)), path)


def test_pvalues_needs_no_critical_constant(tmp_path):
    path = tmp_path / "data.csv"
    synthetic_csv(path, m=1, offset=0.5)
    small = ["--reps", "1000", "--alpha", "0.005"]   # alpha * r = 5 < 10
    assert main(["pvalues", str(path), *small]) == 0
    assert main(["critical", str(path), *small]) == 4
    assert main(["compare", str(path), *small]) == 4


def test_pvalues_computes_each_observed_statistic_once(tmp_path, monkeypatch):
    path = tmp_path / "three.csv"
    three_group_csv(path)
    calls = []
    real = sct_engine.observed_statistic

    def counting(fit, pair, box):
        calls.append(pair)
        return real(fit, pair, box)

    monkeypatch.setattr(sct_engine, "observed_statistic", counting)
    assert main(["pvalues", str(path), "--reps", "1000"]) == 0
    assert calls == [(1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("box", [[], ["--range", "0:10"]])
def test_subcommands_agree_with_compare(tmp_path, box):
    path = tmp_path / "three.csv"
    three_group_csv(path)

    def run(command):
        out = tmp_path / f"{command}.out"
        assert main([command, str(path), "--reps", "4000", "--seed", "6",
                     *box, "--out", str(out)]) == 0
        return out

    full = json.loads(run("compare").read_text())
    crit = json.loads(run("critical").read_text())
    pvals = json.loads(run("pvalues").read_text())
    header = ("alpha", "reps", "seed", "family", "box", "nu", "p", "m")
    for doc in (crit, pvals):
        assert {key: doc[key] for key in header} == {key: full[key] for key in header}
    assert {key: crit[key] for key in full["critical"]} == full["critical"]
    assert [(p["i"], p["j"], p["statistic"], p["p_value"]) for p in pvals["pairs"]] \
        == [(p["i"], p["j"], p["statistic"], p["p_value"]) for p in full["pairs"]]
    if not box:
        return
    tube = run("tube")
    meta = json.loads((tmp_path / "tube.out.meta.json").read_text())
    assert {key: meta[key] for key in header} == {key: full[key] for key in header}
    assert meta["c_hat"] == full["critical"]["c_hat"]
    # The band edges, read off cross-sections, match projected_band exactly.
    fit = fit_models(ingest_csv(path))
    with open(tube, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    xs = [float(row[0]) for row in rows]
    for q in (1, 2):
        band = projected_band(fit, tuple(meta["pair"]), meta["c_hat"], q, xs)
        assert [row[2 + 2 * q:4 + 2 * q] for row in rows] \
            == [[format(lo, ".17g"), format(hi, ".17g")] for _, lo, hi in band]


def test_roy_subcommand(tmp_path, capsys):
    path = tmp_path / "three.csv"
    rng = np.random.default_rng(16)
    coef = np.array([[1.0], [0.5]])
    write_csv(make_dataset(rng, (8, 9, 10), (coef, coef, coef)), path)
    out = tmp_path / "roy.json"
    assert main(["roy", str(path), "--reps", "2000", "--out", str(out)]) == 0
    assert "3-sample" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["null_dimension"] == 4
    assert doc["statistic"] >= 0.0
    assert 0.0 <= doc["p_value"] <= 1.0


def test_whole_space_report_has_inf_box(tmp_path):
    path = tmp_path / "data.csv"
    synthetic_csv(path, m=1)
    out = tmp_path / "r.json"
    main(["compare", str(path), "--reps", "1000", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["box"] == ["-inf:inf"]
    assert "significance_regions" not in doc["pairs"][0]


# --- JSON emitter -----------------------------------------------------------------

def test_json_emitter_is_pinned():
    doc = {"b": 1, "a": [0.1, None, True, "q\"uote\n"]}
    text = to_json(doc)
    assert text.index('"a"') < text.index('"b"')
    assert "0.10000000000000001" in text
    assert '\\"' in text and "\\u000a" in text
    assert json.loads(text) == {"b": 1,
                                "a": [0.1, None, True, 'q"uote\n']}


def test_json_emitter_rejects_bad_values():
    with pytest.raises(ValueError):
        to_json(float("inf"))
    with pytest.raises(TypeError):
        to_json({"x": {1, 2}})

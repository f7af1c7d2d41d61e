"""Ingestion, config parsing, JSON stability, and the command surface."""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np
import pytest

from conftest import make_dataset, write_csv
from sctubes import classical_tests, sct_engine
from sctubes.cli_io import (
    RunConfig,
    _cmd_compare,
    _family_for,
    ingest_csv,
    main,
    parse_range,
    to_json,
)
from sctubes.errors import (
    ConfigError,
    EmptyGroup,
    InvalidArgument,
    MalformedHeader,
    NonNumericCell,
    TooFewReplicates,
)
from sctubes.sup_solver import CovariateBox
from sctubes.model_core import fit_models
from sctubes.rand_engine import (
    STREAM_VERSION,
    StreamKey,
    normal_block,
    wishart_factor_block,
)
from sctubes.tube_geometry import cross_section, significance_region


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
    rows = ["a,1.0,2.0,3.0", "a,1.5,,3.5"]
    # A skipped blank line still counts: rows are file line numbers.
    for lines, row in (([], 3), ([""], 4)):
        write_lines(path, ["group,x1,y1,y2"] + lines + rows)
        with pytest.raises(NonNumericCell) as err:
            ingest_csv(path)
        assert err.value.row == row
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
    # A line of spaces is a one-cell row, not a blank line.
    for row in ("a,1,2,9", "  "):
        write_lines(path, ["group,x1,y1", row])
        with pytest.raises(MalformedHeader):
            ingest_csv(path)


def test_blank_data_lines_are_skipped(tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    synthetic_csv(plain, sizes=(10, 12), m=2)
    lines = plain.read_text().splitlines()
    spaced = tmp_path / "spaced.csv"
    # A blank line between the two groups and a trailing one.
    write_lines(spaced, lines[:11] + [""] + lines[11:] + [""])
    outputs = []
    for path in (plain, spaced):
        out = tmp_path / f"{path.stem}.json"
        assert main(["fit", str(path), "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1]


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
    for bad in ("5", "a:b", "1:2:3"):
        with pytest.raises(ConfigError):
            parse_range(bad)


def test_parse_family_forms(three_group_fit):
    def family(text):
        return _family_for(RunConfig(family=text), three_group_fit)

    assert family("pairwise").pairs == ((1, 2), (1, 3), (2, 3))
    assert family("successive").pairs == ((1, 2), (2, 3))
    control = family("control:B")
    assert (control.kind, control.control, control.pairs) == (
        "vs_control", 2, ((1, 2), (3, 2)))
    assert family("control:2") == control
    for bad in ("control:", "control:Z", "control:0", "control:4", "banana",
                "Pairwise"):
        with pytest.raises(ConfigError):
            family(bad)


def test_config_validation():
    RunConfig().validate()
    cases = [
        dict(alpha=0.0),
        dict(alpha=1.0),
        dict(reps=999),
        dict(grid=1),
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
        config = RunConfig(reps=2000, seed=5, range_text="0:10", out=str(out))
        assert _cmd_compare(config, ingest_csv(path)) == 0
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
    for workers, name in ((1, "w1.json"), (4, "w4.json"), (None, "default.json")):
        out = tmp_path / name
        config = RunConfig(reps=20_000, seed=2, out=str(out),
                           **({} if workers is None else {"workers": workers}))
        _cmd_compare(config, ingest_csv(path))
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_vs_control_on_two_groups_gives_single_reversed_pair(tmp_path):
    path = tmp_path / "data.csv"
    synthetic_csv(path, m=1)
    out = tmp_path / "report.json"
    config = RunConfig(reps=1000, family="control:A", out=str(out))
    _cmd_compare(config, ingest_csv(path))
    doc = json.loads(out.read_text())
    assert doc["family"]["kind"] == "vs_control"
    assert doc["family"]["control"] == 1
    assert len(doc["pairs"]) == 1
    assert (doc["pairs"][0]["i"], doc["pairs"][0]["j"]) == (2, 1)


def test_alpha_half_smoke_report(tmp_path):
    path = tmp_path / "data.csv"
    synthetic_csv(path, sizes=(8, 9), m=2, offset=0.2)
    out = tmp_path / "report.json"
    config = RunConfig(alpha=0.5, reps=1000, range_text="0:10", out=str(out))
    _cmd_compare(config, ingest_csv(path))
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

    # A data error wins over every flag error in every command: family
    # and range texts are parsed only after the data are fitted.
    flat = tmp_path / "flat.csv"
    write_lines(flat, ["group,x1,y1"] + [f"{label},1.0,{i}.5" for label in "AB"
                                         for i in range(5)])
    for command in ("critical", "pvalues", "compare", "roy", "tube"):
        assert main([command, str(flat), "--alpha", "1.5"]) == 2
    for command in ("critical", "pvalues", "compare", "tube"):
        for flag in (["--family", "foo"], ["--family", "control:"],
                     ["--range", "1:2:3"], ["--range", "0:1,2"]):
            assert main([command, str(flat), "--reps", "1000", *flag]) == 2
            assert main([command, str(good), "--reps", "1000", *flag]) == 4
    # Bounds that parse but make no box are refused by CovariateBox.
    for bounds in ("10:0", "3:1", "nan:1"):
        assert main(["compare", str(good), "--range", bounds]) == 4
        assert main(["compare", str(flat), "--range", bounds]) == 2
    # One group is a data error for every command that compares groups,
    # and so beats a flag error too; fitting it still works.
    one = tmp_path / "one.csv"
    write_lines(one, ["group,x1,y1", "A,0,1.2", "A,1,2.9", "A,2,5.1", "A,3,7.2"])
    assert main(["fit", str(one)]) == 0
    capsys.readouterr()
    for command in ("critical", "pvalues", "compare", "roy", "tube"):
        for flag in ([], ["--alpha", "1.5"]):
            assert main([command, str(one), "--reps", "1000", *flag]) == 2
            assert "need at least 2 groups to compare, got 1" \
                in capsys.readouterr().err
    # The seed and the worker count are checked where they are used.
    for command in ("compare", "critical", "pvalues", "tube", "roy"):
        box = [] if command == "roy" else ["--range", "0:10"]
        for flag in (["--seed", "-1"], ["--seed", str(2 ** 64)],
                     ["--workers", "0"]):
            assert main([command, str(good), "--reps", "1000", *box, *flag]) == 4

    assert main(["compare", str(good), "--family", "bogus"]) == 4
    assert main(["compare", str(good), "--reps", "10"]) == 4
    assert main(["compare", str(good), "--reps", "1000",
                 "--family", "control:missing"]) == 4
    assert main(["compare", str(good), "--reps", "1000",
                 "--range", "0:1,2:3"]) == 4


def test_negative_range_may_follow_its_flag(tmp_path):
    path = tmp_path / "data.csv"
    synthetic_csv(path, m=1)
    for bounds in ("-5:5", "-inf:inf"):
        reports = []
        for flag in (["--range", bounds], [f"--range={bounds}"]):
            out = tmp_path / f"r{len(reports)}.json"
            assert main(["compare", str(path), "--reps", "1000", *flag,
                         "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
    # A flag in place of the value is still a command line that does not parse.
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(path), "--range", "--seed", "1"])
    assert exc.value.code == 2


def test_csv_and_reports_are_utf8(tmp_path):
    # Excel's "CSV UTF-8" starts the file with a byte-order mark.
    plain = tmp_path / "plain.csv"
    plain.write_bytes("\n".join(
        ["group,x1,y1"] + [f"{label},{i},{i * i % 7}"
                           for label in ("Ä", "ø") for i in range(4)]).encode())
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want, got = ingest_csv(plain), ingest_csv(marked)
    assert got.labels == want.labels == ("Ä", "ø")
    for g, h in zip(got.groups, want.groups):
        np.testing.assert_array_equal(g.design, h.design)
        np.testing.assert_array_equal(g.response, h.response)
    out = tmp_path / "fit.json"
    assert main(["fit", str(marked), "--out", str(out)]) == 0
    doc = json.loads(out.read_bytes().decode("utf-8"))
    assert [g["label"] for g in doc["groups"]] == ["Ä", "ø"]


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


def small_fit():
    rng = np.random.default_rng(3)
    coef = np.array([[1.0], [0.5]])
    return fit_models(make_dataset(rng, (8, 9), (coef, coef)))


def small_comparison(c_hat):
    fit, family = small_fit(), sct_engine.ComparisonFamily.pairwise(2)
    box = CovariateBox.interval(0, 10)
    sample = sct_engine.simulate_pivot(fit, family, box, 1000, seed=0)
    return sct_engine.pair_comparisons(fit, sample, c_hat=c_hat)


def nan_constant_comparison():
    return small_comparison(math.nan)


def monte_carlo_roy(r):
    """``roy_k_sample`` forced onto its Monte Carlo path."""
    saved, classical_tests._EXACT_ROOTS = classical_tests._EXACT_ROOTS, 0
    try:
        return classical_tests.roy_k_sample(small_fit(), 0.05, r, seed=2)
    finally:
        classical_tests._EXACT_ROOTS = saved


def small_simulation(r=100, workers=1):
    return sct_engine.simulate_pivot(
        small_fit(), sct_engine.ComparisonFamily.pairwise(2),
        CovariateBox.interval(0, 10), r, seed=0, workers=workers)


@pytest.mark.parametrize("check", [
    lambda: sct_engine.ComparisonFamily(pairs=[(1, 1)]),
    lambda: sct_engine.ComparisonFamily(pairs=[(0, 1)]),
    lambda: sct_engine.ComparisonFamily(pairs=[(1, 2), (1, 2)]),
    lambda: sct_engine.ComparisonFamily.vs_control(3, 4),
    lambda: sct_engine.simulate_pivot(
        small_fit(), sct_engine.ComparisonFamily.pairwise(3),
        CovariateBox.whole_space(1), 1000, seed=0),
    lambda: CovariateBox(((1.0, 0.0),)),
    lambda: CovariateBox(((float("nan"), 1.0),)),
    lambda: CovariateBox(()),
    lambda: sct_engine.tail_rank(100, 1.5),
    lambda: sct_engine.simulate_pivot(
        small_fit(), sct_engine.ComparisonFamily.pairwise(2),
        CovariateBox.whole_space(1), 1000, seed=-1),
    lambda: classical_tests.roy_k_sample(small_fit(), 0.05, 1000, seed=2 ** 64),
    lambda: cross_section(small_fit(), (1, 3), 0.1, 1.0),
    lambda: sct_engine.observed_statistic(small_fit(), (0, 1),
                                          CovariateBox.interval(0, 1)),
    lambda: significance_region(small_fit(), (1, 3), 0.1, 1,
                                CovariateBox.interval(0, 1)),
    lambda: significance_region(small_fit(), (1, 2), 0.1, 1,
                                CovariateBox(((0, 10), (5, 6)))),
    lambda: significance_region(small_fit(), (1, 2), math.inf, 1,
                                CovariateBox.interval(0, 10)),
    lambda: significance_region(small_fit(), (1, 2), 0.1, 2,
                                CovariateBox.interval(0, 10)),
    nan_constant_comparison,
    lambda: cross_section(small_fit(), (1, 2), 0.1, 1.0).coordinate_interval(2),
    lambda: cross_section(small_fit(), (1, 2), 0.1, [1.0, 2.0]),
    lambda: normal_block(0, 1, StreamKey(0, 0, 0), 1),
    lambda: wishart_factor_block(0, 5, StreamKey(0, 0, 0), 1),
    lambda: sct_engine.ComparisonFamily(pairs=[(1.5, 2)]),
    lambda: sct_engine.ComparisonFamily(pairs=[(1, 2, 3)]),
    lambda: CovariateBox(((0.0,),)),
    lambda: CovariateBox(((0.0, 1.0, 2.0),)),
    lambda: CovariateBox((5.0,)),
    lambda: CovariateBox(5.0),
    lambda: CovariateBox(None),
    lambda: sct_engine.ComparisonFamily(pairs=5),
    lambda: cross_section(small_fit(), (1.5, 2), 1.0, [3.0]),
    lambda: significance_region(small_fit(), (1.0, 2), 0.1, 1,
                                CovariateBox.interval(0, 10)),
    lambda: cross_section(small_fit(), (1, 2, 3), 0.1, 1.0),
    lambda: significance_region(small_fit(), (1, 2), 0.1, 1.0,
                                CovariateBox.interval(0, 10)),
    lambda: cross_section(small_fit(), (1, 2), 0.1, [[3.0]]),
    lambda: cross_section(small_fit(), (1, 2), 0.1, "x"),
    lambda: cross_section(small_fit(), (1, 2), 0.1, 1.0).coordinate_interval(1.0),
    lambda: small_fit().coef_difference(2.0, 1),
    lambda: sct_engine.observed_statistic(small_fit(), (1, 2, 3),
                                          CovariateBox.interval(0, 1)),
    lambda: sct_engine.observed_statistic(small_fit(), 5, CovariateBox.interval(0, 1)),
    lambda: cross_section(small_fit(), (1, 2), 0.1, None),
    lambda: cross_section(small_fit(), (1, 2), 0.1, math.inf),
    lambda: sct_engine.ComparisonFamily(pairs=[(True, 2)]),
    lambda: sct_engine.ComparisonFamily.vs_control(3, True),
    lambda: small_fit().coef_difference(True, 2),
    lambda: cross_section(small_fit(), (1, 2), 0.1, 1.0).coordinate_interval(True),
    lambda: cross_section(small_fit(), (1, 2), 0.1, 1.0).contains([1.0, 2.0]),
    lambda: cross_section(small_fit(), (1, 2), 0.1, 1.0).contains("x"),
    lambda: cross_section(small_fit(), (1, 2), 0.1, 1.0).contains([[1.0]]),
    lambda: cross_section(small_fit(), (1, 2), 0.1, 1.0).contains([math.nan]),
    lambda: small_simulation(r=100.0),
    lambda: small_simulation(workers=2.0),
    lambda: small_simulation(r=20_000, workers=2.0),
    lambda: small_simulation(workers=True),
    lambda: classical_tests.roy_k_sample(small_fit(), 0.05, 1000.0, seed=2),
    lambda: cross_section(small_fit(), (1, 2), "0.1", 1.0),
    lambda: small_comparison(True),
    lambda: sct_engine.simulate_pivot(
        small_fit(), sct_engine.ComparisonFamily.pairwise(2),
        CovariateBox.interval(0, 10), 100, seed=1.5),
    lambda: sct_engine.compare(
        small_fit(), sct_engine.ComparisonFamily.pairwise(2),
        CovariateBox.interval(0, 10), 0.05, 1000, seed=True),
    lambda: classical_tests.roy_k_sample(small_fit(), 0.05, 1000, seed="3"),
    lambda: CovariateBox.point("a"),
    lambda: CovariateBox.point(None),
    lambda: CovariateBox.whole_space(2.0),
    lambda: sct_engine.ComparisonFamily.pairwise(1.5),
    lambda: sct_engine.ComparisonFamily.successive("3"),
    lambda: sct_engine.ComparisonFamily.vs_control(2.5, 1),
    lambda: sct_engine.compare(
        small_fit(), sct_engine.ComparisonFamily.pairwise(2),
        CovariateBox.interval(0.0, 10.0), 0.05, "1000", seed=0),
    lambda: sct_engine.compare(
        small_fit(), sct_engine.ComparisonFamily.pairwise(2),
        CovariateBox.interval(0.0, 10.0), 0.05, True, seed=0),
    lambda: monte_carlo_roy("1000"),
    lambda: monte_carlo_roy(True),
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
    assert [(p["i"], p["j"], p["statistic"], p["argmax"], p["p_value"])
            for p in pvals["pairs"]] \
        == [(p["i"], p["j"], p["statistic"], p["argmax"], p["p_value"])
            for p in full["pairs"]]
    # pvalues estimates no constant, so its pairs carry no decision.
    assert all("reject" not in p and "significance_regions" not in p
               for p in pvals["pairs"])
    if not box:
        return
    tube = run("tube")
    meta = json.loads((tmp_path / "tube.out.meta.json").read_text())
    assert {key: meta[key] for key in header} == {key: full[key] for key in header}
    assert meta["c_hat"] == full["critical"]["c_hat"]
    # Each band edge is mid +- sqrt(c * e' delta e * omega_qq), e = (1, x).
    fit = fit_models(ingest_csv(path))
    db, delta = fit.coef_difference(*meta["pair"]), fit.delta(*meta["pair"])
    with open(tube, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for row in rows:
        e = np.array([1.0, float(row[0])])
        for q in (1, 2):
            mid = e @ db[:, q - 1]
            h = np.sqrt(meta["c_hat"] * (e @ delta @ e)
                        * fit.pooled_scatter[q - 1, q - 1])
            assert row[2 + 2 * q:4 + 2 * q] \
                == [format(mid - h, ".17g"), format(mid + h, ".17g")]


def test_roy_subcommand(tmp_path, capsys):
    path = tmp_path / "three.csv"
    rng = np.random.default_rng(16)
    coef = np.array([[1.0], [0.5]])
    write_csv(make_dataset(rng, (8, 9, 10), (coef, coef, coef)), path)
    out = tmp_path / "roy.json"
    assert main(["roy", str(path), "--reps", "2000", "--seed", "1",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "3-sample" in printed and "(exact null)" in printed
    doc = json.loads(out.read_text())
    assert doc["null_dimension"] == 4
    assert doc["statistic"] >= 0.0
    assert 0.0 <= doc["p_value"] <= 1.0
    # One root (m = 1): the exact law, which reads no replicates and no seed.
    assert (doc["null_law"], doc["reps"], doc["seed"]) == ("exact", 0, None)
    again = tmp_path / "again.json"
    assert main(["roy", str(path), "--reps", "5000", "--seed", "9",
                 "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()
    # alpha * reps = 1 < 10 would starve a simulated quantile; the exact
    # law reads no replicates, so it takes the run.
    strict = tmp_path / "strict.json"
    assert main(["roy", str(path), "--alpha", "0.001", "--reps", "1000",
                 "--out", str(strict)]) == 0
    assert json.loads(strict.read_text())["null_law"] == "exact"


def test_roy_report_is_the_same_for_any_worker_count(tmp_path, capsys):
    path = tmp_path / "two.csv"
    synthetic_csv(path, sizes=(9, 11), m=2, offset=0.2)
    digests = []
    for workers in ("1", "2"):
        out = tmp_path / f"roy{workers}.json"
        assert main(["roy", str(path), "--reps", "20000", "--seed", "3",
                     "--workers", workers, "--out", str(out)]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    assert "largest-root two-sample test" in capsys.readouterr().out
    doc = json.loads((tmp_path / "roy1.json").read_text())
    assert doc["test"] == "two-sample" and doc["null_dimension"] == 2


@pytest.mark.parametrize("command", ["compare", "roy"])
def test_reports_carry_the_stream_version(tmp_path, command):
    # Three groups with m = 2: Roy's test has min(4, 2) = 2 roots, so it
    # reads the exact law and draws nothing; its report still names the
    # stream version.
    path = tmp_path / "three.csv"
    three_group_csv(path)
    blobs = []
    for workers in ("1", "2", "1", "2"):
        out = tmp_path / f"{command}{len(blobs)}.json"
        assert main([command, str(path), "--reps", "20000", "--seed", "4",
                     "--workers", workers, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert len(set(blobs)) == 1
    assert json.loads(blobs[0])["stream"] == STREAM_VERSION == 3


@pytest.mark.parametrize("argv", [
    ["roy", "--reps", "1000", "--family", "control:Z", "--range", "0:1,5:6",
     "--grid", "3"],
    ["roy", "--family", "pairwise"],
    ["roy", "--range", "0:1"],
    ["roy", "--grid", "3"],
    ["roy", "--pair", "A:B"],
    ["fit", "--alpha", "1.5"],
    ["fit", "--reps", "1000"],
    ["fit", "--seed", "1"],
    ["fit", "--workers", "2"],
    ["fit", "--family", "pairwise"],
    ["fit", "--range", "0:1"],
    ["fit", "--grid", "3"],
    ["critical", "--grid", "3"],
    ["pvalues", "--pair", "A:B"],
    ["compare", "--grid", "3"],
    ["compare", "--pair", "A:B"],
    ["compare", "--bogus"],
    ["compare", "--reps", "lots"],
])
def test_flags_a_command_does_not_act_on_are_refused(tmp_path, argv):
    path = tmp_path / "three.csv"
    synthetic_csv(path, sizes=(8, 9, 10))
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(path), *argv[1:]])
    assert exc.value.code == 2


def test_tail_guard_runs_before_simulating(tmp_path, monkeypatch):
    # alpha * r = 8 < 10: refused from r and alpha alone, before any draw.
    # Roy's test is held to its Monte Carlo null, the one of its two
    # that draws, by allowing no exact roots.
    path = tmp_path / "data.csv"
    data = synthetic_csv(path, sizes=(9, 11))

    def never(*args, **kwargs):
        raise AssertionError("sampler called")

    monkeypatch.setattr(sct_engine, "simulate_pivot", never)
    monkeypatch.setattr(classical_tests, "largest_root_null_sample", never)
    monkeypatch.setattr(classical_tests, "_EXACT_ROOTS", 0)
    fit = fit_models(data)
    with pytest.raises(TooFewReplicates):
        sct_engine.compare(fit, sct_engine.ComparisonFamily.pairwise(2),
                           CovariateBox.whole_space(1), 4e-6, 2_000_000, 0)
    with pytest.raises(TooFewReplicates):
        classical_tests.roy_k_sample(fit, 4e-6, 2_000_000, 0)
    flags = ["--reps", "2000000", "--alpha", "4e-6", "--range", "0:10"]
    for command in ("critical", "compare", "tube"):
        assert main([command, str(path), *flags]) == 4
    assert main(["roy", str(path), *flags[:4]]) == 4


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
    assert "0.1," in text and "0.10000000000000001" not in text
    assert '\\"' in text and "\\n" in text
    assert json.loads(text) == {"b": 1,
                                "a": [0.1, None, True, 'q"uote\n']}


def test_json_emitter_rejects_bad_values():
    with pytest.raises(ValueError):
        to_json(float("inf"))
    with pytest.raises(TypeError):
        to_json({"x": {1, 2}})

"""CSV ingestion, report assembly, plotting, and CLI exit codes."""

import contextlib
import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pocbounds.cli as cli
from pocbounds.bounds import AssumptionSet
from pocbounds.cli import (
    ConfigError,
    CsvFormatError,
    RunConfig,
    emit_plot_data,
    load_csv,
    main,
    run_analysis,
)
from pocbounds.estimation import Dataset

REPO = Path(__file__).resolve().parents[1]
MAPPING = {"y": "y", "s": "s", "d": "d", "stratum": None}


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = write(tmp_path, "y,s,d\n1,1,1\n,0,1\n0,1,0\n")
        data = load_csv(path, MAPPING)
        assert data.n == 3
        assert data.labels == (None,)
        # Treated: one selected success, one censored; control: one selected failure.
        assert data.counts.tolist() == [[[0, 1, 0], [1, 0, 1]]]

    def test_non_binary_token(self, tmp_path):
        path = write(tmp_path, "y,s,d\n2,1,0\n")
        with pytest.raises(CsvFormatError, match=r"non-binary value '2' in column 'y' at row 2"):
            load_csv(path, MAPPING)

    def test_missing_outcome_with_selection(self, tmp_path):
        path = write(tmp_path, "y,s,d\n1,1,1\n,1,0\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(path, MAPPING)

    def test_outcome_present_without_selection(self, tmp_path):
        path = write(tmp_path, "y,s,d\n1,0,1\n")
        with pytest.raises(CsvFormatError, match="censored"):
            load_csv(path, MAPPING)

    def test_stratum_grouping(self, tmp_path):
        path = write(
            tmp_path,
            "y,s,d,g\n1,1,1,a\n0,1,0,a\n,0,1,b\n1,1,0,b\n0,1,1,a\n,0,0,b\n",
        )
        data = load_csv(path, {**MAPPING, "stratum": "g"})
        assert data.labels == ("a", "b")
        assert data.counts.tolist() == [
            [[0, 1, 0], [1, 1, 0]],
            [[1, 0, 1], [0, 0, 1]],
        ]

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "y,s\n1,1\n")
        with pytest.raises(CsvFormatError, match="'d' not found"):
            load_csv(path, MAPPING)

    def test_header_required(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(path, MAPPING)

    def test_duplicate_mapping_rejected_directly(self, tmp_path):
        path = write(tmp_path, "y,s,d\n1,1,1\n")
        with pytest.raises(ConfigError, match="duplicate column mapping"):
            load_csv(path, {"y": "y", "s": "y", "d": "d", "stratum": None})

    def test_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy,s,d\n1,1,1\n,0,1\n0,1,0\n")
        data = load_csv(path, MAPPING)
        assert data.counts.tolist() == [[[0, 1, 0], [1, 0, 1]]]

    def test_duplicate_header_name_rejected(self, tmp_path):
        path = write(tmp_path, "y,s,d,s\n1,1,1,0\n")
        with pytest.raises(CsvFormatError, match="column 's' appears 2 times in header"):
            load_csv(path, MAPPING)

    def test_oversized_field_names_its_row(self, tmp_path):
        path = write(tmp_path, "y,s,d\n1,1,1\n1,1," + "1" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(CsvFormatError, match="row 3: field larger than field limit"):
            load_csv(path, MAPPING)

    def test_blank_lines_skipped(self, tmp_path, capsys):
        body = "y,s,d\n1,1,1\n,0,1\n0,1,0\n"
        plain = load_csv(write(tmp_path, body), MAPPING)
        for name, text in (("trailing.csv", body + "\n"), ("middle.csv", body.replace(",0,1\n", "\n,0,1\n"))):
            data = load_csv(write(tmp_path, text, name), MAPPING)
            assert data.labels == plain.labels
            assert np.array_equal(data.counts, plain.counts)
        # Row numbers count the blank line.
        short = write(tmp_path, "y,s,d\n1,1,1\n\n0,1\n", "short.csv")
        assert main(["--input", str(short), "--y-col", "y", "--s-col", "s", "--d-col", "d"]) == 2
        assert "row 4 has 2 fields, header has 3" in capsys.readouterr().err

    def test_undecodable_byte_names_its_row(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"y,s,d,g\n1,1,1,a\n0,1,0,\xff\n")
        with pytest.raises(CsvFormatError, match="row 3 is not valid UTF-8"):
            load_csv(path, {**MAPPING, "stratum": "g"})


ROWS = st.lists(
    st.tuples(
        st.sampled_from([0, 1]),
        st.sampled_from(["1", "0", ""]),
        st.text(alphabet="ab ,\"é", min_size=1, max_size=3).filter(lambda x: x.strip()),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=ROWS, crlf=st.booleans())
def test_table_matches_csv_module_recount(tmp_path, rows, crlf):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n" if crlf else "\n")
    writer.writerow(["d", "note", "y", "s", "g"])
    for d, y, g in rows:
        writer.writerow([d, "x", y, 0 if y == "" else 1, g])
    path = write(tmp_path, buffer.getvalue())
    data = load_csv(path, {"y": "y", "s": "s", "d": "d", "stratum": "g"})

    expected: dict[str, np.ndarray] = {}
    with path.open(newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            cell = 2 if row["s"] == "0" else (0 if row["y"] == "1" else 1)
            expected.setdefault(row["g"].strip(), np.zeros((2, 3), dtype=int))[int(row["d"]), cell] += 1
    assert data.labels == tuple(sorted(expected))
    assert data.counts.tolist() == [expected[label].tolist() for label in data.labels]

    # The rows recounted the way perfbench's independent check counts them rebuild the table.
    recounted: dict[str | None, np.ndarray] = {}
    for r in data.records:
        recounted.setdefault(r.stratum, np.zeros((2, 3), dtype=np.int64))[r.d, 2 if r.s == 0 else 1 - r.y] += 1
    assert tuple(recounted) == data.labels
    assert [recounted[label].tolist() for label in recounted] == data.counts.tolist()


VALID_ROWS = st.sampled_from(["1,1,1", "0,1,1", ",0,1", "1,1,0", "0,1,0", ",0,0"])
STRATA = st.sampled_from([",a", ",b", ', " b"'])
FIELDS = st.sampled_from(["0", "1", "", " 1 ", "2", "y", '"1"', '"', '"a,b"', "\x00", "é", '"a\nb"'])
HEADERS = st.sampled_from(["y,s,d,g", "y,s,d,g", "d,s,y,g", "y,s", "y,s,d,s", "", "y;s;d"])
STRAY_BYTES = st.sampled_from([b"\xff", b"\x00", b"\xc3", b"\r", b"\n", b'"', b","])


@st.composite
def csv_bytes(draw):
    """CSV bytes: clean files, or ones with malformed rows, stray and undecodable bytes."""
    clean = draw(st.booleans())
    lines = ["y,s,d,g" if clean else draw(HEADERS)]
    for _ in range(draw(st.integers(0, 24))):
        if clean or draw(st.integers(0, 3)):
            lines.append(draw(VALID_ROWS) + draw(STRATA))
        else:
            lines.append(",".join(draw(st.lists(FIELDS, max_size=5))))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))).encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    for _ in range(0 if clean else draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(STRAY_BYTES) + data[at:]
    return data


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=csv_bytes(), stratified=st.booleans())
def test_main_on_arbitrary_csv_fails_cleanly(tmp_path, data, stratified):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    argv = ["--input", str(path), "--y-col", "y", "--s-col", "s", "--d-col", "d",
            "--reps", "2", "--output", str(tmp_path / "r.json")]
    if stratified:
        argv += ["--stratum-col", "g"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("pocbounds: ")


class TestRunConfig:
    def test_duplicate_mapping_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate column mapping"):
            RunConfig(input_path="x.csv", y_col="y", s_col="y", d_col="d")

    def test_level_and_reps_validated(self):
        with pytest.raises(ConfigError, match="level"):
            RunConfig(input_path="x", y_col="y", s_col="s", d_col="d", level=1.5)
        with pytest.raises(ConfigError, match="reps"):
            RunConfig(input_path="x", y_col="y", s_col="s", d_col="d", reps=1)

    def test_stratified_defaults_follow_stratum_column(self):
        cfg = RunConfig(input_path="x", y_col="y", s_col="s", d_col="d")
        assert cfg.use_strata is False
        cfg = RunConfig(input_path="x", y_col="y", s_col="s", d_col="d", stratum_col="g")
        assert cfg.use_strata is True
        with pytest.raises(ConfigError, match="without a stratum column"):
            RunConfig(input_path="x", y_col="y", s_col="s", d_col="d", stratified=True)


@pytest.fixture(scope="module")
def fixture_cfg(fixture_csv):
    return RunConfig(
        input_path=str(fixture_csv),
        y_col="y",
        s_col="s",
        d_col="d",
        stratum_col="course",
        reps=60,
        level=0.90,
        seed=11,
    )


@pytest.fixture(scope="module")
def fixture_report(fixture_cfg):
    return run_analysis(fixture_cfg)


class TestRunAnalysis:
    def test_report_round_trips_through_json(self, fixture_report):
        assert json.loads(fixture_report.to_json()) == fixture_report.to_dict()

    def test_byte_identical_reruns(self, fixture_cfg, fixture_report):
        again = run_analysis(fixture_cfg)
        assert again.to_json() == fixture_report.to_json()

    def test_point_bounds_near_published_values(self, fixture_report):
        entry = fixture_report.unconditional
        assert abs(entry["A1_3"]["lb"] - 0.014) < 0.03
        assert abs(entry["A1_3"]["ub"] - 0.609) < 0.03
        assert abs(entry["A1_5"]["lb"] - 0.106) < 0.03
        assert abs(entry["A1_5"]["ub"] - 0.163) < 0.03

    def test_percentile_intervals_span_their_point_bounds(self, fixture_report):
        for a in ("A1_3", "A1_4", "A1_5"):
            entry = fixture_report.unconditional[a]
            assert entry["ci_lb"][0] <= entry["lb"] <= entry["ci_lb"][1]
            assert entry["ci_ub"][0] <= entry["ub"] <= entry["ci_ub"][1]

    def test_provenance_complete(self, fixture_report):
        provenance = fixture_report.provenance
        for key in ("tool_version", "input_sha256", "n_records", "seed", "reps", "level"):
            assert key in provenance
        assert provenance["n_records"] == 1769
        assert len(provenance["input_sha256"]) == 64

    def test_digest_tracks_input_bytes(self, tmp_path, fixture_csv):
        original = fixture_csv.read_bytes()
        copy_path = tmp_path / "copy.csv"
        copy_path.write_bytes(original)
        changed_path = tmp_path / "changed.csv"
        changed_path.write_bytes(original.replace(b"c1", b"c9", 1))
        base = dict(y_col="y", s_col="s", d_col="d", stratum_col="course", reps=10, seed=0)
        digest_orig = run_analysis(RunConfig(input_path=str(fixture_csv), **base)).provenance
        digest_same = run_analysis(RunConfig(input_path=str(copy_path), **base)).provenance
        digest_diff = run_analysis(RunConfig(input_path=str(changed_path), **base)).provenance
        assert digest_same["input_sha256"] == digest_orig["input_sha256"]
        assert digest_same["input_sha256"] != digest_diff["input_sha256"]

    def test_stratified_table_shape(self, fixture_report):
        block = fixture_report.stratified
        assert block["n_strata"] == 8
        rows = block["sets"]["A1_5"]["per_stratum"]
        assert len(rows) == 8
        for row in rows:
            assert set(row) >= {"stratum", "n", "weight", "lb", "ub", "ci_lb", "ci_ub"}
        assert sum(row["n"] for row in rows) == 1769

    def test_single_stratum_matches_unstratified(self, tmp_path):
        rows = ["y,s,d,g"]
        rows += ["1,1,1,only", "0,1,1,only", ",0,1,only", "0,1,0,only", "1,1,0,only", ",0,0,only"] * 20
        path = write(tmp_path, "\n".join(rows) + "\n")
        base = dict(y_col="y", s_col="s", d_col="d", stratum_col="g", reps=20, seed=1)
        with_strata = run_analysis(RunConfig(input_path=str(path), stratified=True, **base))
        without = run_analysis(RunConfig(input_path=str(path), stratified=False, **base))
        for a in ("A1_3", "A1_4", "A1_5"):
            assert with_strata.unconditional[a]["lb"] == without.unconditional[a]["lb"]
            agg = with_strata.stratified["sets"][a]["aggregate"]
            assert agg["lb"] == without.unconditional[a]["lb"]
            assert agg["ub"] == without.unconditional[a]["ub"]
            for key in ("ci_lb", "ci_ub", "failed_replicates"):
                assert agg[key] == without.unconditional[a][key] == with_strata.unconditional[a][key]
            (row,) = with_strata.stratified["sets"][a]["per_stratum"]
            assert (row["ci_lb"], row["ci_ub"]) == (agg["ci_lb"], agg["ci_ub"])

    def test_one_set_matches_its_entries_in_the_all_sets_report(self, fixture_cfg, fixture_report):
        alone = run_analysis(dataclasses.replace(fixture_cfg, assumption_sets=(AssumptionSet.A1_5,)))
        assert list(alone.unconditional) == ["A1_5"]
        assert alone.unconditional["A1_5"] == fixture_report.unconditional["A1_5"]
        assert alone.restriction_tests["A1_5"] == fixture_report.restriction_tests["A1_5"]
        assert alone.stratified["sets"]["A1_5"] == fixture_report.stratified["sets"]["A1_5"]
        assert alone.stratified["dropped"] == fixture_report.stratified["dropped"]
        assert alone.warnings == fixture_report.warnings

    def test_sparse_stratum_skipped_once(self, tmp_path):
        # "tiny" keeps its treated row and its control y=0 row in only 12/27
        # of resamples, so most stratified replicates drop it.
        rows = ["y,s,d,g"]
        rows += ["1,1,1,ok", "0,1,1,ok", ",0,1,ok", "0,1,0,ok", "1,1,0,ok", ",0,0,ok"] * 25
        rows += ["1,1,1,tiny", "0,1,0,tiny", ",0,0,tiny"]
        path = write(tmp_path, "\n".join(rows) + "\n")
        report = run_analysis(
            RunConfig(input_path=str(path), y_col="y", s_col="s", d_col="d",
                      stratum_col="g", reps=200, seed=0)
        )
        assert [w for w in report.warnings if "bootstrap skipped" in w] == [
            "stratum 'tiny': bootstrap skipped (bootstrap unstable: data too sparse)"
        ]
        for block in report.stratified["sets"].values():
            ok, tiny = block["per_stratum"]
            assert (tiny["stratum"], tiny["ci_lb"], tiny["ci_ub"]) == ("tiny", None, None)
            assert ok["ci_lb"] is not None and ok["ci_ub"] is not None

    def test_selection_violation_warns_but_reports(self, tmp_path):
        # Control arm selects more often than treated: trim ratio above 1.
        rows = ["y,s,d"]
        rows += ["1,1,1", ",0,1", "0,1,0", "1,1,0"] * 30 + ["0,1,0"] * 30
        path = write(tmp_path, "\n".join(rows) + "\n")
        report = run_analysis(
            RunConfig(input_path=str(path), y_col="y", s_col="s", d_col="d", reps=20, seed=3)
        )
        assert any("restriction violated" in w for w in report.warnings)
        assert report.unconditional["A1_3"]["restriction_violated"]

    @pytest.mark.parametrize(("treated", "warns"), [([20, 20, 20], False), ([19, 21, 20], True)])
    def test_outcome_warning_only_past_the_boundary(self, tmp_path, treated, warns):
        # Control cells [40, 20, 60] have a raw success rate of 1/3, as
        # does the treated arm [20, 20, 20]; [19, 21, 20] falls below it.
        rows = ["y,s,d"]
        for d, counts in ((0, [40, 20, 60]), (1, treated)):
            for cell, k in zip(("1,1", "0,1", ",0"), counts):
                rows += [f"{cell},{d}"] * k
        path = write(tmp_path, "\n".join(rows) + "\n")
        report = run_analysis(
            RunConfig(input_path=str(path), y_col="y", s_col="s", d_col="d", reps=2, seed=0)
        )
        outcome_warnings = [w for w in report.warnings if "outcome restriction" in w]
        assert len(outcome_warnings) == int(warns)
        assert not any("selection restriction" in w for w in report.warnings)
        if not warns:
            assert report.restriction_tests["A1_4"]["outcome"]["stat"] == 0.0

    def test_numeric_fields_finite(self, fixture_report):
        json.dumps(fixture_report.to_dict(), allow_nan=False)

    def test_dropped_stratum_listed_in_report(self, tmp_path):
        rows = ["y,s,d,g"]
        rows += ["1,1,1,ok", "0,1,1,ok", ",0,1,ok", "0,1,0,ok", "1,1,0,ok", ",0,0,ok"] * 25
        rows += ["1,1,1,broken", "0,1,1,broken"]  # no control units
        path = write(tmp_path, "\n".join(rows) + "\n")
        report = run_analysis(
            RunConfig(input_path=str(path), y_col="y", s_col="s", d_col="d",
                      stratum_col="g", reps=20, seed=6)
        )
        dropped = {name: reason for name, reason in report.stratified["dropped"]}
        assert "broken" in dropped
        assert "no control units" in dropped["broken"]
        rows_a13 = report.stratified["sets"]["A1_3"]["per_stratum"]
        assert [row["stratum"] for row in rows_a13] == ["ok"]
        assert rows_a13[0]["weight"] == 1.0


class TestEmitPlotData:
    def test_svg_and_sidecar_echo_report(self, fixture_report, tmp_path):
        svg_path, sidecar_path = emit_plot_data(fixture_report, tmp_path / "bounds.svg")
        bars = json.loads(sidecar_path.read_text())["bars"]
        by_key = {(b["assumption_set"], b["group"]): b for b in bars}
        for a in ("A1_3", "A1_4", "A1_5"):
            assert by_key[(a, "unconditional")]["lb"] == fixture_report.unconditional[a]["lb"]
            assert by_key[(a, "unconditional")]["ub"] == fixture_report.unconditional[a]["ub"]
        root = ET.fromstring(svg_path.read_text())
        rects = [el for el in root.iter() if el.tag.endswith("rect") and "data-lb" in el.attrib]
        assert len(rects) == 6  # three sets, two groups
        for rect in rects:
            key = (rect.attrib["data-assumption-set"], rect.attrib["data-group"])
            assert float(rect.attrib["data-lb"]) == by_key[key]["lb"]
            assert float(rect.attrib["data-ub"]) == by_key[key]["ub"]

    def test_legend_order_is_canonical(self, fixture_report, tmp_path):
        _, sidecar_path = emit_plot_data(fixture_report, tmp_path / "o.svg")
        bars = json.loads(sidecar_path.read_text())["bars"]
        unconditional = [b["assumption_set"] for b in bars if b["group"] == "unconditional"]
        assert unconditional == ["A1_3", "A1_4", "A1_5"]

    def test_without_strata_only_one_group(self, fixture_csv, tmp_path):
        cfg = RunConfig(
            input_path=str(fixture_csv), y_col="y", s_col="s", d_col="d",
            reps=15, seed=2,
        )
        report = run_analysis(cfg)
        _, sidecar_path = emit_plot_data(report, tmp_path / "u.svg")
        bars = json.loads(sidecar_path.read_text())["bars"]
        assert {b["group"] for b in bars} == {"unconditional"}


class TestMainExitCodes:
    def test_success(self, fixture_csv, tmp_path, capsys):
        code = main([
            "--input", str(fixture_csv), "--y-col", "y", "--s-col", "s", "--d-col", "d",
            "--reps", "10", "--seed", "0", "--format", "text",
            "--output", str(tmp_path / "r.txt"),
        ])
        assert code == 0
        assert "A1_5" in (tmp_path / "r.txt").read_text()

    def test_parse_error_is_2(self, tmp_path, capsys):
        path = write(tmp_path, "y,s,d\n2,1,0\n")
        code = main(["--input", str(path), "--y-col", "y", "--s-col", "s", "--d-col", "d"])
        assert code == 2
        assert "non-binary" in capsys.readouterr().err

    def test_config_error_is_2(self, fixture_csv, capsys):
        code = main([
            "--input", str(fixture_csv), "--y-col", "y", "--s-col", "y", "--d-col", "d",
        ])
        assert code == 2

    def test_unknown_assumption_set_is_2(self, fixture_csv, capsys):
        code = main([
            "--input", str(fixture_csv), "--y-col", "y", "--s-col", "s", "--d-col", "d",
            "--assumptions", "A1_9",
        ])
        assert code == 2

    def test_fatal_runtime_error_is_1(self, tmp_path, capsys):
        # Structurally valid file whose estimation must fail: no control arm.
        path = write(tmp_path, "y,s,d\n1,1,1\n0,1,1\n,0,1\n")
        code = main(["--input", str(path), "--y-col", "y", "--s-col", "s", "--d-col", "d"])
        assert code == 1
        assert "no control units" in capsys.readouterr().err

    def test_undecodable_input_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"y,s,d\n1,1,\xff\n")
        code = main(["--input", str(path), "--y-col", "y", "--s-col", "s", "--d-col", "d"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("pocbounds: ") and "row 2 is not valid UTF-8" in err

    def test_unwritable_output_is_1(self, fixture_csv, tmp_path, capsys):
        code = main([
            "--input", str(fixture_csv), "--y-col", "y", "--s-col", "s", "--d-col", "d",
            "--reps", "4", "--output", str(tmp_path / "missing" / "r.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("pocbounds: fatal: cannot write report: ")
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        ("reps", "digest"),
        [
            ("200", "8a68ecf707c8ae9b7c032214f21d3fb1e910619a204b38da3263586a2749a553"),
            ("1000", "440ccff7439b104241de96934e65322e49d4bad6b2ce1c5bb5917edea98d499c"),
        ],
        ids=["200", "1000"],
    )
    def test_canonical_report_is_pinned(self, fixture_csv, tmp_path, monkeypatch, reps, digest):
        # The report bytes depend on the bootstrap's random stream; a change
        # to that stream has to update these digests on purpose.
        monkeypatch.chdir(fixture_csv.parents[2])
        out = tmp_path / "report.json"
        code = main([
            "--input", "tests/data/table_mirror_n1769.csv", "--y-col", "y", "--s-col", "s",
            "--d-col", "d", "--stratum-col", "course", "--reps", reps, "--seed", "0",
            "--output", str(out),
        ])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_pipeline_builds_no_row_objects(self, fixture_csv, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("Dataset.records was read")

        monkeypatch.setattr(Dataset, "records", property(refuse))
        code = main([
            "--input", str(fixture_csv), "--y-col", "y", "--s-col", "s", "--d-col", "d",
            "--stratum-col", "course", "--reps", "4", "--output", str(tmp_path / "r.json"),
        ])
        assert code == 0

    @pytest.mark.parametrize(("flag", "calls"), [("--stratified", 2), ("--no-stratified", 1)])
    def test_one_bootstrap_per_group(self, fixture_csv, tmp_path, monkeypatch, flag, calls):
        original = cli.bootstrap_bounds
        seen = []

        def counting(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "bootstrap_bounds", counting)
        code = main([
            "--input", str(fixture_csv), "--y-col", "y", "--s-col", "s", "--d-col", "d",
            "--stratum-col", "course", flag, "--reps", "4", "--output", str(tmp_path / "r.json"),
        ])
        assert code == 0
        assert len(seen) == calls

    def test_json_stdout_round_trips(self, fixture_csv, capsys):
        code = main([
            "--input", str(fixture_csv), "--y-col", "y", "--s-col", "s", "--d-col", "d",
            "--reps", "8", "--seed", "4",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == "1"


SCIPY_GUARD = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import pocbounds.cli as cli
after_import = scipy_modules()
code = cli.main(sys.argv[1:])
after_main = scipy_modules()
import pocbounds.latent as latent
print(json.dumps({"after_import": after_import, "exit": code, "after_main": after_main,
                  "linprog": "linprog" in vars(latent)}))
"""


def test_cli_loads_no_scipy(fixture_csv, tmp_path):
    # A fresh interpreter: the test process has SciPy loaded already.
    src = str(fixture_csv.parents[2] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [
            sys.executable, "-c", SCIPY_GUARD, "--input", str(fixture_csv), "--y-col", "y", "--s-col", "s",
            "--d-col", "d", "--stratum-col", "course", "--reps", "20",
            "--plot-out", str(tmp_path / "r.svg"), "--output", str(tmp_path / "r.json"),
        ],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"after_import": [], "exit": 0, "after_main": [], "linprog": True}


def test_committed_csv_fixture_matches_its_generator(fixture_csv):
    # scripts/make_synthetic_csv.py writes this file; both pinned report digests read it.
    spec = importlib.util.spec_from_file_location("make_synthetic_csv", REPO / "scripts" / "make_synthetic_csv.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["y", "s", "d", "course"])
    writer.writerows(generator.build_rows())
    assert fixture_csv.read_bytes() == buffer.getvalue().encode("utf-8")

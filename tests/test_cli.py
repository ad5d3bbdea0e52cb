"""CSV ingestion, report assembly, plotting, and CLI exit codes."""

import contextlib
import csv
import dataclasses
import hashlib
import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pocbounds.cli as cli
import pocbounds.estimation as estimation
import pocbounds.inference as inference
from _oracles import reference_load_csv
from pocbounds.bounds import ASSUMPTION_ORDER, AssumptionSet, restriction_violations
from pocbounds.cli import (
    ConfigError,
    CsvFormatError,
    RunConfig,
    emit_plot_data,
    load_csv,
    main,
    run_analysis,
)
from pocbounds.estimation import Dataset, estimate_moments

REPO = Path(__file__).resolve().parents[1]
MAPPING = {"y": "y", "s": "s", "d": "d", "stratum": None}
STRATUM_MAPPING = {**MAPPING, "stratum": "g"}


def module_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(REPO / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_module(argv, input=None, env_overrides=None):
    """``python -m pocbounds argv`` in a fresh interpreter that imports this checkout's package."""
    return subprocess.run(
        [sys.executable, "-m", "pocbounds", *argv],
        input=input, capture_output=True, env={**module_env(), **(env_overrides or {})}, timeout=120,
    )


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def write_arms(tmp_path, control, treated):
    """A y,s,d file whose arms hold these (selected y=1, selected y=0, unselected) counts."""
    rows = ["y,s,d"]
    for d, counts in ((0, control), (1, treated)):
        for cell, k in zip(("1,1", "0,1", ",0"), counts):
            rows += [f"{cell},{d}"] * k
    return write(tmp_path, "\n".join(rows) + "\n")


def load_outcome(load, path, mapping):
    """The loaded table as (labels, counts), or the error as (class, message)."""
    try:
        table = load(path, mapping)
    except (ConfigError, CsvFormatError) as err:
        return type(err), str(err)
    return table.labels, table.counts.tolist()


@pytest.fixture
def parsed(monkeypatch):
    """Every row the csv module yields to ``load_csv``, in order."""
    rows = []
    make_reader = csv.reader

    class CountingReader:
        def __init__(self, *args):
            self.reader = make_reader(*args)

        def __getattr__(self, name):
            return getattr(self.reader, name)

        def __iter__(self):
            return self

        def __next__(self):
            row = next(self.reader)
            rows.append(row)
            return row

    monkeypatch.setattr(cli.csv, "reader", CountingReader)
    return rows


SEVERAL_LINES = [
    # Line 4 equals row 2's line but sits inside row 3's quoted stratum;
    # row 4 starts with row 3's first line, which is not a whole record.
    (
        b'y,s,d,g\n1,1,1,a\n0,1,0,"b\n1,1,1,a\n"\n0,1,0,"b\n1,1,1,a\n"\n1,1,1,a\n',
        (("a", "b\n1,1,1,a"), [[[0, 0, 0], [2, 0, 0]], [[0, 2, 0], [0, 0, 0]]]),
    ),
    # Row 2 spans lines 2-3, so the one-field line 5 is row 4.
    (b'y,s,d,g\n1,1,1,"a\nb"\n1,1,1,a\nb"\n', "row 4 has 1 fields, header has 4"),
    (b'y,s,d,g\n1,1,1,a\n1,1,1,"b\n\xff"\n1,1,1,a\n', "row 3 is not valid UTF-8"),
    # An unterminated quote runs to the end of the file.
    (
        b'y,s,d,g\n1,1,1,a\n0,1,0,"b\n1,1,1,a\n',
        (("a", "b\n1,1,1,a"), [[[0, 0, 0], [1, 0, 0]], [[0, 1, 0], [0, 0, 0]]]),
    ),
    (
        b'y,s,d,g\r1,1,1,a\r0,1,0,"a\rb"\r1,1,1,a\r',
        (("a", "a\rb"), [[[0, 0, 0], [2, 0, 0]], [[0, 1, 0], [0, 0, 0]]]),
    ),
    # Rows 2-3 keep their lines; row 4 repeats row 2's kept line in the chunk
    # whose row 5 opens a record that ends with that same line.  The chunk
    # that holds them adds none of its counts before it is read in order,
    # so the kept line counts twice, not once more for its copy in row 5.
    (
        b'y,s,d,g\n1,1,1,a\n0,1,1,a\n1,1,1,a\n0,1,0,"b\n1,1,1,a\n"\n',
        (("a", "b\n1,1,1,a"), [[[0, 0, 0], [2, 1, 0]], [[0, 1, 0], [0, 0, 0]]]),
    ),
    # Stratum z appears only on a continuation line, so it is no stratum:
    # no row of zero counts is left for it.
    (
        b'y,s,d,g\n1,1,1,a\n0,1,0,"b\n1,1,1,z\n"\n1,1,1,a\n',
        (("a", "b\n1,1,1,z"), [[[0, 0, 0], [2, 0, 0]], [[0, 1, 0], [0, 0, 0]]]),
    ),
]
SEVERAL_LINES_IDS = [
    "continuation-equals-kept-line",
    "rows-count-records",
    "bad-utf8-continuation",
    "open-quote-at-eof",
    "cr-only",
    "continuation-equals-line-of-earlier-chunk",
    "stratum-only-in-continuation",
]


def assert_several_lines(tmp_path, data, expected):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    if isinstance(expected, str):
        expected = (CsvFormatError, f"{path}: {expected}")
    assert load_outcome(load_csv, path, STRATUM_MAPPING) == expected
    assert load_outcome(reference_load_csv, path, STRATUM_MAPPING) == expected


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = write(tmp_path, "y,s,d\n1,1,1\n,0,1\n0,1,0\n")
        data = load_csv(path, MAPPING)
        assert data.n == 3
        assert data.labels == (None,)
        # Treated: one selected success, one censored; control: one selected failure.
        assert data.counts.tolist() == [[[0, 1, 0], [1, 0, 1]]]

    def test_non_binary_token(self, tmp_path):
        cases = (
            ("y,s,d\n2,1,0\n", "non-binary value '2' in column 'y' at row 2"),
            # Rows 2-4 share a valid tuple; the bad tuple is first seen at row 5 and repeats at row 7.
            ("y,s,d\n1,1,1\n1,1,1\n1,1,1\n2,1,0\n1,1,1\n2,1,0\n", "non-binary value '2' in column 'y' at row 5"),
            # Within a row, d is checked before s and s before y.
            ("y,s,d\n1,1,1\nx,2,2\n", "non-binary value '2' in column 'd' at row 3"),
            # A short row before the first bad tuple is the first invalid row.
            ("y,s,d\n1,1,1\n0,1\n2,1,0\n", "row 3 has 2 fields, header has 3"),
        )
        for text, message in cases:
            path = write(tmp_path, text)
            with pytest.raises(CsvFormatError) as raised:
                load_csv(path, MAPPING)
            assert str(raised.value) == f"{path}: {message}"

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
        data = load_csv(path, STRATUM_MAPPING)
        assert data.labels == ("a", "b")
        assert data.counts.tolist() == [
            [[0, 1, 0], [1, 1, 0]],
            [[1, 0, 1], [0, 0, 1]],
        ]
        # Spelling variants (" 1" and "1", " a" and "a ") are one token: the
        # last row joins row 2's cell and every "a" row joins one stratum.
        path = write(
            tmp_path,
            "y,s,d,g\n1,1,1,a\n0,1,0, a\n,0,1,b\n 1,1,0,b\n0,1, 1,a \n,0, 0,b\n 1, 1,1, a\n",
            "variants.csv",
        )
        data = load_csv(path, STRATUM_MAPPING)
        assert data.labels == ("a", "b")
        assert data.counts.tolist() == [
            [[0, 1, 0], [2, 1, 0]],
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
            load_csv(path, STRATUM_MAPPING)

    def test_truncated_last_character_names_its_row(self, tmp_path):
        # The file ends inside a two-byte character, which only the decoder's last call sees.
        path = tmp_path / "cut.csv"
        path.write_bytes(b"y,s,d,g\n1,1,1,a\n0,1,0,\xc3")
        with pytest.raises(CsvFormatError, match="row 3 is not valid UTF-8"):
            load_csv(path, STRATUM_MAPPING)

    def test_each_token_tuple_checked_once(self, tmp_path, monkeypatch):
        tuples = ["1,1,1", "0,1,1", ",0,1", "1,1,0", "0,1,0", ",0,0"]
        path = write(tmp_path, "y,s,d\n" + "\n".join(tuples * 500) + "\n")
        calls = []
        parse_binary = cli._parse_binary
        monkeypatch.setattr(cli, "_parse_binary", lambda *args: calls.append(args) or parse_binary(*args))
        data = load_csv(path, MAPPING)
        assert data.counts.tolist() == [[[500, 500, 500], [500, 500, 500]]]
        # At most the d, s and y checks for each of the 6 tuples, not for each of the 3,000 rows.
        assert len(calls) <= 3 * len(tuples)

    # A non-ASCII stratum, so every line read past the cache goes through _check_utf8.
    @pytest.mark.parametrize("stratum", ["é", '"é"'], ids=["plain", "quoted"])
    def test_each_distinct_line_parsed_once(self, tmp_path, monkeypatch, parsed, stratum):
        lines = [f"{line},{stratum}" for line in VALID_LINES]
        path = write(tmp_path, "y,s,d,g\n" + "\n".join(lines * 500) + "\n")
        checked = []
        check_utf8 = cli._check_utf8
        monkeypatch.setattr(cli, "_check_utf8", lambda line: checked.append(line) or check_utf8(line))
        data = load_csv(path, STRATUM_MAPPING)
        assert data.counts.tolist() == [[[500, 500, 500], [500, 500, 500]]]
        # Each of the 6 distinct lines once, not each of the 3,000 rows; the
        # header is all ASCII, so it is not checked.
        assert checked == [line + "\n" for line in lines]
        # Only the lines that hold a quote reach the csv module.
        rows = [[*line.split(","), "é"] for line in VALID_LINES] if '"' in stratum else []
        assert parsed == [["y", "s", "d", "g"], *rows]

    def test_csv_read_stops_after_the_failing_chunk(self, tmp_path, parsed):
        # Row 2 spans two lines, and so does the record that opens on the first
        # block's last line and closes in the second.  The quoted one-line
        # record goes to the csv module in each chunk that does not find its
        # line kept.
        opening, closing = '0,1,0,"b\n', 'continued"\n'
        one_line = '1,1,1,"a"\n'
        head = "y,s,d,g\n" + opening + closing
        ones = (cli._BLOCK - len(head) - len(opening)) // len(one_line)
        first_block = head + one_line * ones + opening
        # The closing line is longer than a one-line record, so it crosses the block's end.
        assert len(first_block) <= cli._BLOCK < len(first_block) + len(closing)
        tail = 2 * ones
        path = write(tmp_path, first_block + closing + one_line * tail)
        assert load_outcome(load_csv, path, STRATUM_MAPPING) == (
            ("a", "b\ncontinued"),
            [[[0, 0, 0], [ones + tail, 0, 0]], [[0, 2, 0], [0, 0, 0]]],
        )
        # The header and the first block's records, the last of which runs past
        # it; the lines after that record are counted a block at a time, not parsed.
        several = ["0", "1", "0", "b\ncontinued"]
        assert parsed == [["y", "s", "d", "g"], several, *[["1", "1", "1", "a"]] * ones, several]

    def test_memory_grows_with_tuples_not_lines(self, tmp_path):
        peaks = []
        for rows in (10_000, 40_000):
            # The id column makes every line distinct, so no line is counted from the cache.
            body = "".join(f"{i},{VALID_LINES[i % 6]},g{i % 7}\n" for i in range(rows))
            path = write(tmp_path, "id,y,s,d,g\n" + body, f"{rows}.csv")
            assert load_outcome(load_csv, path, STRATUM_MAPPING) == load_outcome(
                reference_load_csv, path, STRATUM_MAPPING
            )
            tracemalloc.start()
            try:
                load_csv(path, STRATUM_MAPPING)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    @pytest.mark.parametrize("data, expected", SEVERAL_LINES, ids=SEVERAL_LINES_IDS)
    def test_records_of_several_lines(self, tmp_path, data, expected):
        assert_several_lines(tmp_path, data, expected)

    @pytest.mark.parametrize("data, expected", SEVERAL_LINES, ids=SEVERAL_LINES_IDS)
    def test_records_of_several_lines_in_chunks_of_two(self, tmp_path, monkeypatch, data, expected):
        """Records of several lines straddle chunks, and continuation lines are read past the chunk.

        A chunk is a block's whole lines, so 16-byte blocks make chunks of about two of these lines.
        """
        monkeypatch.setattr(cli, "_BLOCK", 16)
        assert_several_lines(tmp_path, data, expected)


class TestOneRead:
    """``load_csv`` and ``run_analysis`` open their input once, whether or not every line is a whole, valid record."""

    @pytest.fixture
    def opens(self, monkeypatch):
        calls = []
        open_input = cli._open
        monkeypatch.setattr(cli, "_open", lambda path, digest: calls.append(path) or open_input(path, digest))
        return calls

    @pytest.mark.parametrize(
        "text",
        [
            "y,s,d,g\n" + "1,1,1,a\n,0,1,b\n" * 3,
            "y,s,d,g\r\n" + "1,1,1,a\r\n,0,1,b\r\n" * 3,
            "y,s,d,g\n1,1,1,a\n\n,0,1,b\n1,1,1,a\n\n",
            'y,s,d,g\n1,1,1,"a"\n,0,1,"b, c"\n1,1,1,"a"\n',
        ],
        ids=["clean", "crlf", "blank-lines", "quoted-one-line"],
    )
    def test_one_line_records_are_read_once(self, tmp_path, opens, text):
        path = write(tmp_path, text)
        assert load_outcome(load_csv, path, STRATUM_MAPPING) == load_outcome(
            reference_load_csv, path, STRATUM_MAPPING
        )
        assert opens == [path]

    def test_record_of_several_lines_is_read_once(self, tmp_path, opens):
        path = write(tmp_path, 'y,s,d,g\n1,1,1,a\n0,1,0,"b\nc"\n1,1,1,a\n')
        assert load_outcome(load_csv, path, STRATUM_MAPPING) == (
            ("a", "b\nc"),
            [[[0, 0, 0], [2, 0, 0]], [[0, 1, 0], [0, 0, 0]]],
        )
        assert opens == [path]

    def test_bad_last_row_is_named(self, tmp_path, opens):
        path = write(tmp_path, "y,s,d,g\n" + "1,1,1,a\n,0,1,b\n" * 3 + "1,1,2,a\n")
        with pytest.raises(CsvFormatError) as raised:
            load_csv(path, STRATUM_MAPPING)
        assert str(raised.value) == f"{path}: non-binary value '2' in column 'd' at row 8"
        assert opens == [path]

    def test_run_analysis_opens_its_input_once(self, tmp_path, fixture_csv, opens, monkeypatch):
        path = tmp_path / "copy.csv"
        path.write_bytes(fixture_csv.read_bytes())
        # Every open of the input by name, through ``open`` or ``Path.open``.
        named = []
        builtin_open = io.open

        def counting_open(file, *args, **kwargs):
            if os.fspath(file) == str(path):
                named.append(file)
            return builtin_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        report = run_analysis(RunConfig(input_path=str(path), y_col="y", s_col="s", d_col="d", reps=4))
        assert opens == [path] and len(named) == 1
        assert report.provenance["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


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


VALID_LINES = ["1,1,1", "0,1,1", ",0,1", "1,1,0", "0,1,0", ",0,0"]
VALID_ROWS = st.sampled_from(VALID_LINES)
STRATA = st.sampled_from([",a", ",b", ', " b"'])
FIELDS = st.sampled_from(["0", "1", "", " 1 ", "2", "y", '"1"', '"', '"a,b"', "\x00", "é", '"a\nb"'])
HEADERS = st.sampled_from(["y,s,d,g", "y,s,d,g", "d,s,y,g", "y,s", "y,s,d,s", "", "y;s;d"])
STRAY_BYTES = st.sampled_from([b"\xff", b"\x00", b"\xc3", b"\r", b"\n", b'"', b","])
# Each valid in some mapped column and bad in another, or bad in all of them.
MIXED_TOKENS = st.sampled_from(["0", "1", " 1 ", "", "2", "x"])
ROW_KINDS = {
    "clean": ["valid"],
    "tokens": ["valid", "valid", "mixed"],
    "malformed": ["valid", "valid", "mixed", "fields"],
    # Rows that open and close a quoted stratum, so a record can span lines
    # that equal earlier whole rows.
    "quoted": ["valid", "valid", "opens", "closes"],
    # Rows behind a unique id column, so no line repeats.
    "ids": ["valid", "valid", "mixed", "opens", "closes"],
    # One valid line several times over, then rows with bad tokens, so a chunk
    # holds fewer distinct lines than lines before a later row fails.
    "repeats": ["repeated", "repeated", "mixed"],
}


@st.composite
def csv_bytes(draw):
    """CSV bytes: clean files, files whose rows hold bad tokens, files with
    malformed rows, stray and undecodable bytes, files with records that
    span several lines, files whose every line differs, or files whose
    lines repeat before a bad row."""
    kind = draw(st.sampled_from(list(ROW_KINDS)))
    header = draw(HEADERS) if kind == "malformed" else "y,s,d,g"
    lines = [header]
    for _ in range(draw(st.integers(0, 24))):
        row = draw(st.sampled_from(ROW_KINDS[kind]))
        if row == "valid":
            lines.append(draw(VALID_ROWS) + draw(STRATA))
        elif row == "repeated":
            lines += [draw(VALID_ROWS) + draw(STRATA)] * draw(st.integers(2, 5))
        elif row == "mixed":
            # The header's width, so the row reaches the token checks, which
            # can then meet several bad mapped tokens in one row.
            width = header.count(",") + 1
            lines.append(",".join(draw(st.lists(MIXED_TOKENS, min_size=width, max_size=width))))
        elif row == "opens":
            lines.append(draw(VALID_ROWS) + ',"a')
        elif row == "closes":
            lines.append(draw(VALID_ROWS) + ',a"')
        else:
            lines.append(",".join(draw(st.lists(FIELDS, max_size=5))))
    if kind == "ids":
        lines = [f"id,{header}", *(f"{i},{line}" for i, line in enumerate(lines[1:]))]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))).encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    for _ in range(draw(st.integers(0, 2)) if kind == "malformed" else 0):
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


def assert_matches_per_row_reference(tmp_path, data, stratified):
    """The same table, or the same error class and message (row number included).

    A load that succeeds has hashed every byte of the input, the byte-order mark included.
    """
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    mapping = STRATUM_MAPPING if stratified else MAPPING
    digest = hashlib.sha256()
    outcome = load_outcome(lambda path, mapping: load_csv(path, mapping, digest), path, mapping)
    assert outcome == load_outcome(reference_load_csv, path, mapping)
    if not isinstance(outcome[0], type):  # the load succeeded
        assert digest.hexdigest() == hashlib.sha256(data).hexdigest()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=csv_bytes(), stratified=st.booleans())
def test_load_csv_matches_per_row_reference(tmp_path, data, stratified):
    assert_matches_per_row_reference(tmp_path, data, stratified)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=csv_bytes(), stratified=st.booleans())
def test_load_csv_matches_per_row_reference_in_chunks_of_two(tmp_path, monkeypatch, data, stratified):
    """Repeated lines, blank lines and records of several lines straddle the first pass's chunks.

    A chunk is a block's whole lines, so 16-byte blocks make chunks of a few of these lines.
    """
    monkeypatch.setattr(cli, "_BLOCK", 16)
    assert_matches_per_row_reference(tmp_path, data, stratified)


def in_chunks_of(lines_per_chunk):
    """``cli._decoded_blocks`` with each block's whole lines handed on ``lines_per_chunk`` at a time."""
    decoded_blocks = cli._decoded_blocks

    def regrouped(raw, digest):
        for block in decoded_blocks(raw, digest):
            lines = list(block)
            for start in range(0, len(lines), lines_per_chunk):
                yield io.StringIO("".join(lines[start : start + lines_per_chunk]), newline="")

    return regrouped


# Built once from the loader's own function: the hypothesis examples of one test share its patch.
IN_CHUNKS_OF = {2: in_chunks_of(2)}


@pytest.mark.parametrize("chunk", [2, None], ids=["chunks-of-two", "default-chunks"])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=csv_bytes(), stratified=st.booleans(), block=st.integers(1, 7))
def test_load_csv_matches_per_row_reference_in_blocks_of_a_few_bytes(
    tmp_path, monkeypatch, chunk, data, stratified, block
):
    """A CRLF line end, a multibyte character and the byte-order mark are cut across the reads of the raw bytes.

    With ``chunk`` set, each decoded block's lines are counted that many at a time, so
    the chunks' edges fall between lines as well as at the blocks' ends.
    """
    monkeypatch.setattr(cli, "_BLOCK", block)
    if chunk is not None:
        monkeypatch.setattr(cli, "_decoded_blocks", IN_CHUNKS_OF[chunk])
    assert_matches_per_row_reference(tmp_path, data, stratified)


@pytest.mark.parametrize("bad", [False, True], ids=["clean", "bad-token"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_load_csv_matches_per_row_reference_at_the_default_block_size(tmp_path, newline, bad):
    """A quoted record of two lines crosses the first block's end; a bad token sits in the third block."""
    rows = itertools.cycle(f"{line},{g}" for line in VALID_LINES for g in "ab")
    opening, closing = '0,1,0,"b' + newline, 'two lines"' + newline
    text = "y,s,d,g" + newline
    records = 1
    while len(text) + len(next_row := next(rows) + newline) + len(opening) <= cli._BLOCK:
        text += next_row
        records += 1
    # The closing line is longer than any row, so it crosses the first block's end.
    assert len(text) + len(opening) <= cli._BLOCK < len(text) + len(opening) + len(closing)
    text += opening + closing
    records += 1
    while len(text) <= 2 * cli._BLOCK + 100:
        text += next(rows) + newline
        records += 1
    if bad:
        text += "2,1,0,a" + newline
    while len(text) <= 3 * cli._BLOCK + 100:
        text += next(rows) + newline
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode("ascii"))
    outcome = load_outcome(load_csv, path, STRATUM_MAPPING)
    assert outcome == load_outcome(reference_load_csv, path, STRATUM_MAPPING)
    if bad:
        assert outcome == (CsvFormatError, f"{path}: non-binary value '2' in column 'y' at row {records + 1}")
    else:
        assert outcome[0] == ("a", "b", "b" + newline + "two lines")


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

    def test_assumption_sets_are_held_canonical(self):
        base = dict(input_path="x", y_col="y", s_col="s", d_col="d")
        A1_3, A1_4, A1_5 = ASSUMPTION_ORDER
        # Every requested member is kept, in declaration order.
        assert RunConfig(**base, assumption_sets=tuple(reversed(AssumptionSet))).assumption_sets == tuple(AssumptionSet)
        tokens = RunConfig(**base, assumption_sets=("a1_5", " A1_3", "A1_5"))
        assert tokens.assumption_sets == (A1_3, A1_5)
        mixed = RunConfig(**base, assumption_sets=(A1_5, "A1_4", A1_4, A1_5))
        assert mixed.assumption_sets == (A1_4, A1_5)
        for bad in ("A1_6", 5):
            with pytest.raises(ConfigError, match=f"unknown assumption set '{bad}'"):
                RunConfig(**base, assumption_sets=(A1_3, bad))

    def test_empty_input_path_rejected(self, capsys):
        # ``Path("")`` is the working directory, so an empty path must not reach the loader.
        with pytest.raises(ConfigError, match="--input"):
            RunConfig(input_path="", y_col="y", s_col="s", d_col="d")
        assert main(["--input", "", "--y-col", "y", "--s-col", "s", "--d-col", "d"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pocbounds: --input ") and err.count("\n") == 1


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
        # Trailing blank lines are skipped, so only the digest sees them; the file spans 18 of the loader's 64 KiB blocks.
        padded = original + b"\n" * 1_100_000
        padded_path = tmp_path / "padded.csv"
        padded_path.write_bytes(padded)
        digest_orig = run_analysis(RunConfig(input_path=str(fixture_csv), **base)).provenance
        digest_same = run_analysis(RunConfig(input_path=str(copy_path), **base)).provenance
        digest_diff = run_analysis(RunConfig(input_path=str(changed_path), **base)).provenance
        digest_padded = run_analysis(RunConfig(input_path=str(padded_path), **base)).provenance
        assert digest_same["input_sha256"] == digest_orig["input_sha256"] == hashlib.sha256(original).hexdigest()
        assert digest_same["input_sha256"] != digest_diff["input_sha256"]
        assert digest_padded["input_sha256"] == hashlib.sha256(padded).hexdigest()
        assert digest_padded["n_records"] == digest_orig["n_records"]

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

    def test_outcome_test_shown_only_under_a4(self, fixture_cfg, fixture_report):
        tests = fixture_report.restriction_tests
        assert tests["A1_3"]["outcome"] is None
        assert tests["A1_4"]["outcome"] is not None
        assert tests["A1_4"]["outcome"] == tests["A1_5"]["outcome"]
        assert tests["A1_3"]["selection"] == tests["A1_4"]["selection"] == tests["A1_5"]["selection"]
        # A set given by its token is the member it names.
        alone = run_analysis(dataclasses.replace(fixture_cfg, assumption_sets=("A1_5",), stratified=False))
        assert alone.restriction_tests == {"A1_5": tests["A1_5"]}

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
        path = write_arms(tmp_path, [40, 20, 60], treated)
        report = run_analysis(
            RunConfig(input_path=str(path), y_col="y", s_col="s", d_col="d", reps=2, seed=0)
        )
        outcome_warnings = [w for w in report.warnings if "outcome restriction" in w]
        assert len(outcome_warnings) == int(warns)
        assert not any("selection restriction" in w for w in report.warnings)
        if not warns:
            assert report.restriction_tests["A1_4"]["outcome"]["stat"] == 0.0

    # One count past the outcome boundary; [10, 10, 40] also selects less than control.
    @pytest.mark.parametrize("treated", [[19, 21, 20], [10, 10, 40]], ids=["outcome", "both"])
    def test_warnings_are_the_union_over_the_requested_sets(self, tmp_path, treated):
        path = write_arms(tmp_path, [40, 20, 60], treated)
        moments = estimate_moments(Dataset(labels=(None,), counts=[[40, 20, 60], treated]))
        for r in range(1, len(ASSUMPTION_ORDER) + 1):
            for subset in itertools.combinations(ASSUMPTION_ORDER, r):
                out = tmp_path / "report.json"
                tokens = ",".join(a.value for a in reversed(subset))
                argv = ["--input", str(path), "--y-col", "y", "--s-col", "s", "--d-col", "d", "--reps", "2"]
                assert main([*argv, "--assumptions", tokens, "--output", str(out)]) == 0
                report = json.loads(out.read_text())
                assert report["provenance"]["assumption_sets"] == [a.value for a in subset]
                violations = dict.fromkeys(v for a in subset for v in restriction_violations(moments, a))
                assert report["warnings"] == [
                    f"restriction violated in-sample: {v}; bounds reported anyway" for v in violations
                ]
                outcome = [w for w in report["warnings"] if "outcome restriction" in w]
                assert len(outcome) == any(a.a4 for a in subset)

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
        assert unconditional == fixture_report.provenance["assumption_sets"] == ["A1_3", "A1_4", "A1_5"]

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

    def test_text_report_lists_strata_and_warnings(self, tmp_path):
        # Per stratum, 5 of 10 treated and 7 of 10 control units are selected,
        # so the selection restriction fails; the outcome restriction holds.
        treated = ["1,1,1"] * 4 + ["0,1,1"] + [",0,1"] * 5
        control = ["1,1,0"] * 2 + ["0,1,0"] * 5 + [",0,0"] * 3
        rows = [f"{row},{g}" for g in "ab" for row in treated + control]
        path = write(tmp_path, "\n".join(["y,s,d,g", *rows]) + "\n")
        out = tmp_path / "r.txt"
        code = main([
            "--input", str(path), "--y-col", "y", "--s-col", "s", "--d-col", "d", "--stratum-col", "g",
            "--reps", "20", "--format", "text", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        block = lines.index("stratified aggregate over 2 strata:")
        assert [line.split(":")[0] for line in lines[block + 1 : block + 4]] == ["  A1_3", "  A1_4", "  A1_5"]
        assert [line for line in lines if line.startswith("warning: ")] == [
            "warning: restriction violated in-sample: P[S=1|D=1] < P[S=1|D=0] (selection restriction);"
            " bounds reported anyway"
        ]

    @pytest.mark.parametrize(
        ("flags", "code", "message"),
        [
            (["--plot-out", "{tmp}/missing/plot.svg"], 1, "pocbounds: fatal: cannot write plot: "),
            (["--seed", "-1"], 2, "pocbounds: seed = -1 must be non-negative\n"),
            (["--assumptions", ","], 2, "pocbounds: at least one assumption set must be requested\n"),
        ],
        ids=["plot-out-missing-dir", "negative-seed", "no-assumption-set"],
    )
    def test_flag_exit_paths(self, fixture_csv, tmp_path, capsys, flags, code, message):
        assert main([
            "--input", str(fixture_csv), "--y-col", "y", "--s-col", "s", "--d-col", "d", "--reps", "4",
            "--output", str(tmp_path / "r.json"), *(flag.format(tmp=tmp_path) for flag in flags),
        ]) == code
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("closed", [False, True], ids=["device-full", "closed"])
    def test_unwritable_stdout_is_1(self, fixture_csv, closed):
        command = [sys.executable, "-m", "pocbounds", "--input", str(fixture_csv),
                   "--y-col", "y", "--s-col", "s", "--d-col", "d", "--reps", "4"]
        if closed:
            command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, env=module_env(), timeout=120)
        reason = "standard output is closed" if closed else "[Errno 28] No space left on device"
        assert proc.returncode == 1
        assert proc.stderr.decode() == f"pocbounds: fatal: cannot write report: {reason}\n"

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

    def test_every_stratum_dropped_is_1(self, tmp_path, capsys):
        # Each stratum holds one arm only, so each drops on an empty cell;
        # pooled, both arms are there.
        rows = ["1,1,1,a", "0,1,1,a", ",0,1,a", "0,1,0,b", "1,1,0,b", ",0,0,b"] * 10
        path = write(tmp_path, "\n".join(["y,s,d,g", *rows]) + "\n")
        flags = ["--input", str(path), "--y-col", "y", "--s-col", "s", "--d-col", "d", "--stratum-col", "g",
                 "--reps", "50", "--output", str(tmp_path / "r.json")]
        assert main(flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("pocbounds: fatal: every stratum was dropped")
        assert err.count("\n") == 1
        assert main([*flags, "--no-stratified"]) == 0
        assert capsys.readouterr().err == ""

    def test_undecodable_input_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"y,s,d\n1,1,\xff\n")
        code = main(["--input", str(path), "--y-col", "y", "--s-col", "s", "--d-col", "d"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("pocbounds: ") and "row 2 is not valid UTF-8" in err

    @pytest.mark.parametrize("name", ["missing.csv", "."], ids=["missing-file", "directory"])
    def test_unreadable_input_is_1(self, tmp_path, capsys, name):
        code = main(["--input", str(tmp_path / name), "--y-col", "y", "--s-col", "s", "--d-col", "d"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("pocbounds: fatal: ")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_piped_input_matches_the_file_run(self, fixture_csv):
        # A fresh interpreter reads the fixture on stdin, which is a pipe, in one pass.
        flags = ["--y-col", "y", "--s-col", "s", "--d-col", "d", "--stratum-col", "course", "--reps", "20"]
        piped = run_module(["--input", "/dev/stdin", *flags], input=fixture_csv.read_bytes())
        from_file = run_module(["--input", str(fixture_csv), *flags])
        assert piped.returncode == from_file.returncode == 0, piped.stderr.decode()
        assert piped.stderr == b""
        piped_report, file_report = json.loads(piped.stdout), json.loads(from_file.stdout)
        assert piped_report["provenance"].pop("input_path") == "/dev/stdin"
        assert file_report["provenance"].pop("input_path") == str(fixture_csv)
        assert piped_report == file_report
        assert piped_report["provenance"]["input_sha256"] == hashlib.sha256(fixture_csv.read_bytes()).hexdigest()

    def test_undecodable_input_path_in_text_report_file(self, fixture_csv, tmp_path):
        path = tmp_path / os.fsdecode(b"bad\xff.csv")
        path.write_bytes(fixture_csv.read_bytes())
        out = tmp_path / "r.txt"
        code = main([
            "--input", str(path), "--y-col", "y", "--s-col", "s", "--d-col", "d",
            "--reps", "4", "--format", "text", "--output", str(out),
        ])
        assert code == 0
        assert b"input: " + os.fsencode(path) + b" (n=1769)\n" in out.read_bytes()

    def test_undecodable_input_path_in_text_report_on_stdout(self, fixture_csv, tmp_path):
        path = tmp_path / os.fsdecode(b"bad\xff.csv")
        path.write_bytes(fixture_csv.read_bytes())
        proc = run_module(
            ["--input", str(path), "--y-col", "y", "--s-col", "s", "--d-col", "d", "--reps", "4", "--format", "text"],
            env_overrides={"PYTHONIOENCODING": "utf-8"},
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert proc.stderr == b""
        assert b"input: " + os.fsencode(path) + b" (n=1769)\n" in proc.stdout

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
        ("flags", "digest"),
        [
            (["--stratum-col", "course", "--reps", "200"],
             "41b7a976c5007bd42fcba09b8eba4a9af46374bacec93ac1fa09805318878ab2"),
            (["--stratum-col", "course", "--reps", "1000"],
             "a8547827b7eb2373d9c505770735b88be345fe8c544c36eedcaf70f04d805a45"),
            (["--stratum-col", "course", "--no-stratified", "--reps", "200"],
             "66cfedf5e5e7099c5bc64ae7b6013b666554a0c9c6443609e44d3d9274e351e3"),
            (["--assumptions", "A1_3", "--reps", "200"],
             "6d46842c2a4e80559f355a26350ed366bde90f85791a7c293a7c854c04382024"),
        ],
        ids=["200", "1000", "no-stratified-200", "A1_3-pooled-200"],
    )
    def test_canonical_report_is_pinned(self, fixture_csv, tmp_path, monkeypatch, flags, digest):
        # The report bytes depend on the bootstrap's random stream; a change
        # to that stream has to update these digests on purpose.
        monkeypatch.chdir(fixture_csv.parents[2])
        out = tmp_path / "report.json"
        code = main([
            "--input", "tests/data/table_mirror_n1769.csv", "--y-col", "y", "--s-col", "s",
            "--d-col", "d", *flags, "--seed", "0", "--output", str(out),
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

    # Per group: one bootstrap drawn from one generator, and one kernel call
    # each for the point fit and the bootstrap, whatever the number of sets.
    @pytest.mark.parametrize(
        ("flag", "calls", "kernel_calls"),
        [
            pytest.param("--stratified", 2, 4, id="--stratified-2"),
            pytest.param("--no-stratified", 1, 2, id="--no-stratified-1"),
        ],
    )
    def test_one_bootstrap_per_group(self, fixture_csv, tmp_path, monkeypatch, flag, calls, kernel_calls):
        seen = {"bootstrap_bounds": 0, "default_rng": 0, "stratified_fields": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                seen[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "bootstrap_bounds", counting("bootstrap_bounds", cli.bootstrap_bounds))
        # Both lookup sites of the kernel: estimate_stratified's and bootstrap_bounds'.
        for module in (estimation, inference):
            monkeypatch.setattr(module, "stratified_fields", counting("stratified_fields", module.stratified_fields))
        monkeypatch.setattr(np.random, "default_rng", counting("default_rng", np.random.default_rng))
        code = main([
            "--input", str(fixture_csv), "--y-col", "y", "--s-col", "s", "--d-col", "d",
            "--stratum-col", "course", flag, "--reps", "4", "--output", str(tmp_path / "r.json"),
        ])
        assert code == 0
        assert seen == {"bootstrap_bounds": calls, "default_rng": calls, "stratified_fields": kernel_calls}

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
import pocbounds.latent as latent, pocbounds.simulate
after_latent = scipy_modules()
latent.sharp_envelope_oracle(latent.ObservedMoments(0.6, 0.7, 0.8, 0.5), latent.AssumptionSet.A1_5)
print(json.dumps({"after_import": after_import, "exit": code, "after_main": after_main,
                  "after_latent": after_latent, "linprog": "linprog" in vars(latent),
                  "solve_loads_optimize": "scipy.optimize" in sys.modules}))
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
    assert json.loads(proc.stdout) == {
        "after_import": [], "exit": 0, "after_main": [], "after_latent": [], "linprog": True,
        "solve_loads_optimize": False,
    }


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

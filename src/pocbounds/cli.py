"""Command-line front end: CSV in, machine-readable report and plot out.

The expected input is a comma-separated UTF-8 file with a header row.
Treatment and selection columns must contain 0/1; the outcome column must
contain 0/1 for selected rows and be empty for unselected rows (the
outcome of an unselected unit is censored).  An optional stratum column is
read as an opaque string id with surrounding whitespace stripped, so
``" b"`` and ``"b"`` are one stratum.  A row's validity depends only on
its field count and its mapped tokens, so :func:`load_csv` checks each
distinct token tuple once.  It opens the file once and counts its lines
a chunk at a time with one ``Counter`` call per chunk, parsing each
distinct line of a chunk once; a line kept for its tuple, at most one per
tuple, adds its count with no parse, so memory grows with distinct tuples
and one chunk, not rows.  A chunk that holds a record running over
several lines, or a bad row, adds nothing from its count and is read
line by line in order instead; only that walk names a row in a message.

The JSON report is canonical: keys are sorted, floats use their shortest
exact decimal form, no timestamps are embedded, and a ``schema_version``
field versions the layout, so identical inputs and configuration produce
byte-identical output.  Model-restriction violations are reported as
warnings, never as process failures; exit codes are 0 for success, 1 for
a fatal runtime error (an unreadable input or unwritable output path among
them), and 2 for configuration or parse errors.
"""

from __future__ import annotations

import argparse
import collections
import csv
import hashlib
import itertools
import json
import operator
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import ASSUMPTION_ORDER, AssumptionSet, restriction_violations
from .charts import write_plot
from .estimation import EMPTY_CELLS, Dataset, cell_counts, estimate_moments, estimate_stratified, table_position
from .inference import DIRECTION_NOTE, UNSTABLE, EndpointIntervals, bootstrap_bounds, test_restrictions


# Lines per chunk of load_csv.  A chunk's line list and its Counter are all
# the loader holds that grows with lines, so this stays small: 4096 was
# measured.  Up to 5,000 lines per chunk, a 40,000-line file of distinct
# lines peaks at the traced memory of a 10,000-line one (0.86 MB at 4096);
# at 8,192 it peaks at 1.7 times that.
_CHUNK = 4096


class ConfigError(Exception):
    """Invalid run configuration (bad flags, duplicate column mapping)."""


class CsvFormatError(ValueError):
    """Malformed input file (missing columns, non-binary tokens)."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one analysis run depends on."""

    input_path: str
    y_col: str
    s_col: str
    d_col: str
    stratum_col: str | None = None
    assumption_sets: tuple[AssumptionSet, ...] = ASSUMPTION_ORDER
    reps: int = 1000
    level: float = 0.90
    seed: int = 0
    stratified: bool | None = None
    output_format: str = "json"
    plot_out: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise ConfigError(f"level = {self.level!r} must lie strictly in (0, 1)")
        if self.reps < 2:
            raise ConfigError(f"reps = {self.reps} must be at least 2")
        if self.seed < 0:
            raise ConfigError(f"seed = {self.seed} must be non-negative")
        if not self.assumption_sets:
            raise ConfigError("at least one assumption set must be requested")
        mapped = [self.y_col, self.s_col, self.d_col]
        if self.stratum_col is not None:
            mapped.append(self.stratum_col)
        if len(set(mapped)) != len(mapped):
            raise ConfigError(f"duplicate column mapping: {mapped}")
        if self.stratified is True and self.stratum_col is None:
            raise ConfigError("stratified analysis requested without a stratum column")
        if self.output_format not in ("json", "text"):
            raise ConfigError(f"unknown output format {self.output_format!r}")

    @property
    def use_strata(self) -> bool:
        # Default: stratify whenever strata are supplied.
        if self.stratified is None:
            return self.stratum_col is not None
        return self.stratified


@dataclass(frozen=True)
class Report:
    """Assembled analysis output; serializes to canonical JSON."""

    schema_version: str
    provenance: dict
    moments: dict
    restriction_tests: dict
    unconditional: dict
    stratified: dict | None
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"


def load_csv(path: str | Path, mapping: dict[str, str | None]) -> Dataset:
    """Count the microdata records into a table; row numbers count the header as row 1.

    A row's validity depends only on its field count and its mapped (d, s,
    y[, stratum]) tokens, so each distinct token tuple is checked once, on
    the first line that holds it.  The file is opened once and read
    :data:`_CHUNK` lines at a time.  Each chunk's lines are counted with
    one ``Counter`` call, and each *distinct* line of a chunk is parsed
    once.  A line whose text was kept for its tuple adds its count with no
    parse; any other line is split at its commas when it holds no quote
    character, otherwise read by the csv module.  At most one line is kept
    per tuple, so memory grows with distinct tuples and one chunk, not rows.

    A chunk's counts are added only if every distinct line in it, read from
    the start of a record, is a complete and valid one-line record.  The
    header ends at a line end, so the first data line starts a record; if a
    line starts a record and is a whole record, the next line starts one
    too.  By induction every line of such a chunk is a record of its own,
    and the chunk adds the sum of its line counts.  If any line opens a
    record that runs on past it, fails UTF-8, has the wrong width or holds
    a bad token, the chunk adds nothing and is walked in order instead: a
    line kept for its tuple adds one row with no parse, any other line is
    counted as a chunk of one, and a record that runs on is read by the csv
    module from that line through the lines that finish it, from the chunk
    or past it, and never kept.  Row numbers count records, and only the
    walk names a row in a message, so the first bad row, its message and
    its exit code are those of a record-by-record read.  A cell made before
    the count gave up is that of a line whose first copy comes ahead of the
    first bad line, so that line is a record and the walk counts it; no
    stratum is left with no rows.  The next chunk is counted whole again.

    Against the loader that read a file with a multi-line record or a bad
    row a second time from the top, as the median of 31 interleaved
    in-process rounds on 250,000-row files on a 2-CPU machine: a multi-line
    record at row 3 loads in 0.77 of the time and one on the last row in
    0.46.  A file with a multi-line record every 2,000 rows, so that every
    chunk is walked, takes 1.29 times as long, and one whose every record
    spans two lines 1.20 times, as each walked chunk was first counted
    whole in vain.  On the benchmark's file of 300 distinct lines and on a
    file whose every line differs (an id column) the two loaders are within
    the in-process noise, while the benchmark's ``bulk_pooled`` operation,
    which the load dominates, reads about 5% slower.
    """
    named = [name for name in mapping.values() if name is not None]
    if len(set(named)) != len(named):
        raise ConfigError(f"duplicate column mapping: {named}")
    path = Path(path)
    # Mapped-token tuple -> [stratum, table position, rows holding it].
    cells: dict[tuple[str, ...], list] = {}
    # Text of the first line of each tuple -> that tuple's cell.
    known_lines: dict[str, list] = {}
    # The cell of a blank line; it is in neither dict, so its rows are never tallied.
    blank = [None, 0, 0]
    row_number = 1
    try:
        with _open(path) as handle:
            key_of, width = _read_header(handle, path, mapping)
            # A line with no quote character is a whole record, which the csv
            # module would split at its commas, so it is split here; a line
            # long enough to hold a field over the csv module's limit still
            # goes to the csv module, which raises that error.  ``parse``
            # reads one line at a time and raises IndexError when a quoted
            # field runs on past the line.
            pending: list[str] = []
            parse = csv.reader(iter(pending.pop, None))
            longest = csv.field_size_limit()

            def count(chunk, rest=None):
                """The cell of each distinct line of ``chunk``, in order; raise if one is not a valid record.

                With ``rest``, the lines after the chunk's one line, a record
                that runs on past its line is read to its end; without it,
                that raises IndexError.
                """
                found = []
                for line in chunk:
                    cell = known_lines.get(line)
                    if cell is None:
                        if not line.isascii():  # an all-ASCII line needs no call
                            _check_utf8(line)
                        if '"' not in line and len(line) <= longest:
                            fields = line.rstrip("\r\n")
                            row = fields.split(",") if fields else []
                        else:
                            pending.append(line)
                            try:
                                row = next(parse)
                            except IndexError:  # the record runs on past the line
                                if rest is None:
                                    raise
                                row = next(csv.reader(_checked_lines(itertools.chain((line,), rest, handle))))
                                line = None  # a record of several lines is never kept
                        if not row:  # a blank line
                            cell = blank
                        elif len(row) != width:
                            raise CsvFormatError(f"{path}: row {row_number} has {len(row)} fields, header has {width}")
                        else:
                            key = key_of(row)
                            cell = cells.get(key)
                            if cell is None:
                                cell = cells[key] = [*_cell(key, mapping, row_number, path), 0]
                                if line is not None:
                                    known_lines[line] = cell
                    found.append(cell)
                return found

            while lines := list(itertools.islice(handle, _CHUNK)):
                chunk = collections.Counter(lines)
                try:
                    # A message raised here is never shown, so its row number does not matter.
                    found = count(chunk)
                except (IndexError, UnicodeError, csv.Error, CsvFormatError):
                    rest = iter(lines)
                    for line in rest:
                        row_number += 1
                        cell = known_lines.get(line) or count((line,), rest)[0]
                        cell[2] += 1
                    continue
                row_number += len(lines)
                for cell, rows in zip(found, chunk.values()):
                    cell[2] += rows
    except UnicodeError:
        raise CsvFormatError(f"{path}: row {row_number} is not valid UTF-8") from None
    except csv.Error as err:
        raise CsvFormatError(f"{path}: row {row_number}: {err}") from None
    if not cells:
        raise CsvFormatError(f"{path}: no data rows")
    tally: dict[str | None, list[int]] = {}
    for stratum, position, rows in cells.values():
        tally.setdefault(stratum, [0] * 6)[position] += rows
    return Dataset(labels=tuple(tally), counts=list(tally.values()))


def _open(path: Path):
    # Undecodable bytes become lone surrogates, which _check_utf8 rejects
    # line by line, so an error can name the row that holds them.
    return path.open(newline="", encoding="utf-8-sig", errors="surrogateescape")


def _read_header(handle, path: Path, mapping: dict[str, str | None]):
    """Read the header record off ``handle``; return the mapped-token getter and the row width."""
    header = next(csv.reader(_checked_lines(handle)), None)
    if header is None:
        raise CsvFormatError(f"{path}: empty file, header row required")
    header = [h.strip() for h in header]
    positions: dict[str, int] = {}
    for role in ("y", "s", "d", "stratum"):
        name = mapping.get(role)
        if name is None:
            continue
        if name not in header:
            raise CsvFormatError(f"{path}: column {name!r} not found in header {header}")
        if header.count(name) > 1:
            raise CsvFormatError(
                f"{path}: column {name!r} appears {header.count(name)} times in header {header}"
            )
        positions[role] = header.index(name)
    key_of = operator.itemgetter(*(positions[r] for r in ("d", "s", "y", "stratum") if r in positions))
    return key_of, len(header)


def _cell(
    key: tuple[str, ...], mapping: dict[str, str | None], row_number: int, path: Path
) -> tuple[str | None, int]:
    """Check one row's mapped (d, s, y[, stratum]) tokens; return its stratum and table position."""
    d = _parse_binary(key[0], mapping["d"], row_number, path)
    s = _parse_binary(key[1], mapping["s"], row_number, path)
    y_token = key[2].strip()
    if y_token == "":
        y = None
        if s == 1:
            raise CsvFormatError(
                f"{path}: missing outcome in column {mapping['y']!r} at row {row_number} although s=1"
            )
    else:
        y = _parse_binary(y_token, mapping["y"], row_number, path)
        if s == 0:
            raise CsvFormatError(
                f"{path}: outcome present in column {mapping['y']!r} at row "
                f"{row_number} although s=0 (censored outcomes must be empty)"
            )
    stratum = key[3].strip() if len(key) > 3 else None
    return stratum, table_position(d, s, y)


def _check_utf8(line: str) -> None:
    line.encode("utf-8")  # raises UnicodeEncodeError on an escaped byte


def _checked_lines(handle):
    for line in handle:
        _check_utf8(line)
        yield line


def _parse_binary(token: str, column: str, row_number: int, path: Path) -> int:
    token = token.strip()
    if token == "0":
        return 0
    if token == "1":
        return 1
    raise CsvFormatError(f"{path}: non-binary value {token!r} in column {column!r} at row {row_number}")


def _sha256(path: str | Path) -> str:
    """Hex digest of the file, read 1 MiB at a time so it never sits in memory whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _finite_or_none(value: float) -> float | None:
    return float(value) if np.isfinite(value) else None


def _test_outcome_dict(outcome) -> dict:
    return {
        "stat": _finite_or_none(outcome.stat),
        "p_value": float(outcome.p_value),
        "degenerate": bool(outcome.degenerate),
    }


def _ci_dict(intervals: EndpointIntervals | None) -> dict:
    if intervals is None:
        return {"ci_lb": None, "ci_ub": None}
    return {"ci_lb": list(intervals.ci_lb), "ci_ub": list(intervals.ci_ub)}


def _group_block(data: Dataset, requested: tuple[AssumptionSet, ...], boot_args: dict) -> dict:
    """Bounds and percentile intervals of ``data``'s aggregate and retained strata, per set.

    One :func:`estimate_stratified` call and one bootstrap serve every
    set, and the drops and weights are shared by all of them; each field
    is read straight off the fitted arrays.
    """
    fit = estimate_stratified(data, requested)
    boot = bootstrap_bounds(data, requested, **boot_args)
    sets = {}
    for a in requested:
        aggregate = {
            **{name: value.item() for name, value in fit.aggregate[a].items()},
            **_ci_dict(boot.aggregate[a]),
            "failed_replicates": boot.failed_replicates,
        }
        rows = [
            {
                "stratum": label,
                "n": int(data.counts[k].sum()),
                "weight": fit.weight[k].item(),
                "lb": fit.strata[a]["lb"][k].item(),
                "ub": fit.strata[a]["ub"][k].item(),
                **_ci_dict(boot.per_stratum[a][label]),
            }
            for k, label in enumerate(data.labels)
            if fit.empty[k] < 0
        ]
        sets[a.value] = {"aggregate": aggregate, "per_stratum": rows}
    return {
        "sets": sets,
        "dropped": [[label, EMPTY_CELLS[i]] for label, i in zip(data.labels, fit.empty) if i >= 0],
        "n_strata": len(data.labels),
    }


def run_analysis(cfg: RunConfig) -> Report:
    """Execute the full pipeline described by ``cfg``.

    Estimates pooled moments and bounds with bootstrap intervals for every
    requested assumption set, runs the restriction tests, and adds the
    stratified table (aggregate plus per-stratum rows) when strata are in
    play.  Both blocks come from :func:`_group_block`: the pooled one is
    the aggregate of the one-stratum table, so one fit and one bootstrap
    per group serve every set.
    """
    data = load_csv(cfg.input_path, {"y": cfg.y_col, "s": cfg.s_col, "d": cfg.d_col, "stratum": cfg.stratum_col})
    digest = _sha256(cfg.input_path)

    moments = estimate_moments(data)
    requested = tuple(a for a in ASSUMPTION_ORDER if a in cfg.assumption_sets)
    # The strongest requested set implies every restriction the others do.
    strongest = requested[-1]
    warnings = [
        f"restriction violated in-sample: {violation}; bounds reported anyway"
        for violation in restriction_violations(moments, strongest)
    ]
    tests = test_restrictions(data, strongest)
    boot_args = dict(reps=cfg.reps, level=cfg.level, seed=cfg.seed)
    pooled = _group_block(Dataset(labels=(None,), counts=cell_counts(data)), requested, boot_args)
    unconditional = {name: block["aggregate"] for name, block in pooled["sets"].items()}
    restriction_tests = {
        a.value: {
            "selection": _test_outcome_dict(tests.selection_test),
            "outcome": None if a is AssumptionSet.A1_3 else _test_outcome_dict(tests.outcome_test),
        }
        for a in requested
    }

    stratified_block = None
    if cfg.use_strata:
        stratified_block = _group_block(data, requested, boot_args)
        warnings += [
            f"stratum {row['stratum']!r}: bootstrap skipped ({UNSTABLE})"
            for row in stratified_block["sets"][strongest.value]["per_stratum"]
            if row["ci_lb"] is None
        ]

    provenance = {
        "tool": "pocbounds",
        "tool_version": __version__,
        "input_path": str(cfg.input_path),
        "input_sha256": digest,
        "n_records": data.n,
        "seed": cfg.seed,
        "reps": cfg.reps,
        "level": cfg.level,
        "stratified": cfg.use_strata,
        "assumption_sets": [a.value for a in requested],
        "direction_note": DIRECTION_NOTE,
    }
    return Report(
        schema_version="1",
        provenance=provenance,
        moments=asdict(moments),
        restriction_tests=restriction_tests,
        unconditional=unconditional,
        stratified=stratified_block,
        warnings=warnings,
    )


def plot_bars_from_report(report: Report) -> list[dict]:
    """Bars for the chart, in canonical set order, one per group and set."""
    bars = []
    order = [a.value for a in ASSUMPTION_ORDER if a.value in report.unconditional]
    for name in order:
        entry = report.unconditional[name]
        bars.append(
            {"assumption_set": name, "group": "unconditional", "lb": entry["lb"], "ub": entry["ub"]}
        )
    if report.stratified is not None:
        for name in order:
            aggregate = report.stratified["sets"][name]["aggregate"]
            bars.append(
                {"assumption_set": name, "group": "stratified", "lb": aggregate["lb"], "ub": aggregate["ub"]}
            )
    return bars


def emit_plot_data(report: Report, path: str | Path) -> tuple[Path, Path]:
    """Write the SVG chart and its sidecar JSON for ``report``."""
    bars = plot_bars_from_report(report)
    if not bars:
        raise ValueError("report contains no assumption sets to plot")
    return write_plot(bars, path)


def _format_text(report: Report) -> str:
    lines = [f"pocbounds report (schema {report.schema_version})"]
    lines.append(f"input: {report.provenance['input_path']} (n={report.provenance['n_records']})")
    for name, entry in sorted(report.unconditional.items()):
        lines.append(
            f"{name}: [{entry['lb']:.4f}, {entry['ub']:.4f}]  "
            f"ci_lb=[{entry['ci_lb'][0]:.4f}, {entry['ci_lb'][1]:.4f}]  "
            f"ci_ub=[{entry['ci_ub'][0]:.4f}, {entry['ci_ub'][1]:.4f}]"
        )
    if report.stratified is not None:
        lines.append(f"stratified aggregate over {report.stratified['n_strata']} strata:")
        for name, block in sorted(report.stratified["sets"].items()):
            aggregate = block["aggregate"]
            lines.append(f"  {name}: [{aggregate['lb']:.4f}, {aggregate['ub']:.4f}]")
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pocbounds",
        description="Bounds on the probability of causation from selected binary microdata.",
    )
    parser.add_argument("--input", required=True, help="CSV file with a header row")
    parser.add_argument("--y-col", required=True, help="outcome column (0/1, empty when unselected)")
    parser.add_argument("--s-col", required=True, help="selection column (0/1)")
    parser.add_argument("--d-col", required=True, help="treatment column (0/1)")
    parser.add_argument("--stratum-col", default=None, help="optional stratum id column")
    parser.add_argument(
        "--assumptions",
        default="A1_3,A1_4,A1_5",
        help="comma-separated subset of A1_3,A1_4,A1_5",
    )
    parser.add_argument("--reps", type=int, default=1000, help="bootstrap replications")
    parser.add_argument("--level", type=float, default=0.90, help="confidence level in (0,1)")
    parser.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    parser.add_argument(
        "--stratified",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="stratified analysis (defaults to on when --stratum-col is given)",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--plot-out", default=None, help="write an SVG chart here")
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            sets = tuple(
                AssumptionSet.parse(tok) for tok in args.assumptions.split(",") if tok.strip()
            )
            cfg = RunConfig(
                input_path=args.input,
                y_col=args.y_col,
                s_col=args.s_col,
                d_col=args.d_col,
                stratum_col=args.stratum_col,
                assumption_sets=sets,
                reps=args.reps,
                level=args.level,
                seed=args.seed,
                stratified=args.stratified,
                output_format=args.format,
                plot_out=args.plot_out,
            )
        except ValueError as err:
            raise ConfigError(str(err))
        report = run_analysis(cfg)
    except (ConfigError, CsvFormatError) as err:
        print(f"pocbounds: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"pocbounds: fatal: {err}", file=sys.stderr)
        return 1

    rendered = report.to_json() if cfg.output_format == "json" else _format_text(report)
    if args.output is not None:
        try:
            Path(args.output).write_text(rendered, encoding="utf-8")
        except OSError as err:
            print(f"pocbounds: fatal: cannot write report: {err}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(rendered)
    if cfg.plot_out is not None:
        try:
            emit_plot_data(report, cfg.plot_out)
        except OSError as err:
            print(f"pocbounds: fatal: cannot write plot: {err}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

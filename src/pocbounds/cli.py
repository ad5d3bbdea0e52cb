"""Command-line front end: CSV in, machine-readable report and plot out.

The expected input is a comma-separated UTF-8 file with a header row.
Treatment and selection columns must contain 0/1; the outcome column must
contain 0/1 for selected rows and be empty for unselected rows (the
outcome of an unselected unit is censored).  An optional stratum column is
read as an opaque string id with surrounding whitespace stripped, so
``" b"`` and ``"b"`` are one stratum.  A row's validity depends only on
its field count and its mapped tokens, so :func:`load_csv` checks each
distinct token tuple once.  It reads the input once, hashing its raw
bytes as it decodes them, so a pipe such as ``/dev/stdin`` is an input
too.  Its unit of work is the decoded 64 KiB block: a block's whole lines
are one chunk, counted with one ``Counter`` call, and each distinct line
of a chunk is parsed once; a line kept for its tuple, at most one per
tuple, adds its count with no parse.  Memory grows with distinct tuples
and one chunk, not rows: one block's text (64 KiB of input, plus the start
of a line the previous block's end cut) and that text's ``Counter``.  A
chunk that holds a record running over several lines, or a bad row, adds
nothing from its count and is read record by record by the csv module
instead, through the record that holds its last line; only that read
names a row in a message.

The JSON report is canonical: keys are sorted, floats use their shortest
exact decimal form, no timestamps are embedded, and a ``schema_version``
field versions the layout, so identical inputs and configuration produce
byte-identical output.  Model-restriction violations are reported as
warnings, never as process failures; exit codes are 0 for success, 1 for
a fatal runtime error (an unreadable input, an unwritable output path
or standard output, or data the estimator cannot use, such as an empty
arm, among them), and 2 for configuration or parse errors.

:class:`RunConfig` holds what :func:`run_analysis` reads and nothing else.
Where the results go, ``--format``, ``--output`` and ``--plot-out``, is
decided by :func:`main` alone, which reads those flags off the parsed
arguments; argparse's ``choices`` is the one check of ``--format``.
"""

from __future__ import annotations

import argparse
import codecs
import collections
import contextlib
import csv
import hashlib
import io
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


# Bytes per read of the input; each block is hashed and decoded as it comes,
# and its whole lines are one chunk of load_csv.
_BLOCK = 1 << 16


class ConfigError(Exception):
    """Invalid run configuration (bad flags, duplicate column mapping)."""


class CsvFormatError(ValueError):
    """Malformed input file (missing columns, non-binary tokens)."""


@dataclass(frozen=True)
class RunConfig:
    """Everything :func:`run_analysis` reads, checked once on construction.

    ``assumption_sets`` may hold members or their tokens; it is kept as the
    requested members, each once, in ``AssumptionSet``'s order.  How the report
    is written out (``--format``, ``--output``, ``--plot-out``) is not part
    of it: :func:`main` reads those flags.
    """

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

    def __post_init__(self) -> None:
        try:
            chosen = {
                a if isinstance(a, AssumptionSet) else AssumptionSet.parse(str(a)) for a in self.assumption_sets
            }
        except ValueError as err:
            raise ConfigError(str(err)) from None
        if not chosen:
            raise ConfigError("at least one assumption set must be requested")
        object.__setattr__(self, "assumption_sets", tuple(a for a in AssumptionSet if a in chosen))
        if not self.input_path:
            raise ConfigError("--input is empty; it must name a CSV file")
        if not 0.0 < self.level < 1.0:
            raise ConfigError(f"level = {self.level!r} must lie strictly in (0, 1)")
        if self.reps < 2:
            raise ConfigError(f"reps = {self.reps} must be at least 2")
        if self.seed < 0:
            raise ConfigError(f"seed = {self.seed} must be non-negative")
        mapped = [self.y_col, self.s_col, self.d_col]
        if self.stratum_col is not None:
            mapped.append(self.stratum_col)
        if len(set(mapped)) != len(mapped):
            raise ConfigError(f"duplicate column mapping: {mapped}")
        if self.stratified is True and self.stratum_col is None:
            raise ConfigError("stratified analysis requested without a stratum column")

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
        """The fields by name, holding the report's own values, not copies."""
        return dict(vars(self))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"


def load_csv(path: str | Path, mapping: dict[str, str | None], digest=None) -> Dataset:
    """Count the microdata records into a table; row numbers count the header as row 1.

    ``digest``, a :mod:`hashlib` object, receives every byte read, the
    byte-order mark included; by default the bytes go to a hasher nobody
    reads.  A load that succeeds has read, and so hashed, the whole input.

    A row's validity depends only on its field count and its mapped (d, s,
    y[, stratum]) tokens, so each distinct token tuple is checked once, on
    the first line that holds it.  The file is opened and read once, a
    :data:`_BLOCK` of bytes at a time, and the whole lines of each decoded
    block are one chunk.  A chunk is counted with one ``Counter`` call over
    its text, and each *distinct* line of it is parsed once.  A line whose
    text was kept for its tuple adds its count with no parse; any other
    line is split at its commas when it holds no quote character, otherwise
    read by the csv module.  At most one line is kept per tuple, so memory
    grows with distinct tuples and one chunk, not rows: a chunk's text is
    64 KiB of input, plus the start of a line the previous block's end cut,
    and its ``Counter`` holds at most that text's lines.

    A chunk's counts are added only if every distinct line in it, read from
    the start of a record, is a complete and valid one-line record.  The
    header ends at a line end, so the first data line starts a record, and
    by induction every line of such a chunk is a record of its own.  If any
    line opens a record that runs on past it, fails UTF-8, has the wrong
    width or holds a bad token, the chunk adds nothing from its count.  The
    csv module then reads it record by record, through the record that
    holds its last line, and a record of one line keeps its line for a new
    tuple as the count does.  Only this read names a row in a message, so
    the first bad row, its message and its exit code are those of a
    record-by-record read.  The record that holds the chunk's last line may
    run on into later blocks; the next chunk is the unread rest of the block
    the read stopped in, which starts a record, and it is counted whole
    again.  A cell made before the count failed belongs to a line whose
    first copy comes before the failing line, so that line is a whole record
    and the csv read counts it; no stratum is left with no rows.
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
    # Records read so far; the record being read, or the one in an error, is row_number + 1.
    row_number = 0
    try:
        with _open(path, digest or hashlib.sha256()) as blocks:
            # The block being read: an empty one, so reading the header moves on to the first.
            block = io.StringIO()

            def read_on():
                """The input's lines from ``block``'s position on; ``block`` follows them into later blocks."""
                nonlocal block
                while block is not None:
                    # Not ``yield from``: closing this generator would close the block.
                    for line in block:
                        yield line
                    block = next(blocks, None)

            key_of, width = _read_header(read_on(), path, mapping)
            row_number = 1
            # A line with no quote character is a whole record, which the csv
            # module would split at its commas, so it is split here; a line
            # long enough to hold a field over the csv module's limit still
            # goes to the csv module, which raises that error.  ``parse``
            # reads one line at a time and raises IndexError when a quoted
            # field runs on past the line.
            pending: list[str] = []
            parse = csv.reader(iter(pending.pop, None))
            longest = csv.field_size_limit()

            def cell_of(row, number, line):
                """The cell of ``row``, record ``number``; a new tuple keeps ``line``, the record's one line or None."""
                if not row:  # a blank line
                    return blank
                if len(row) != width:
                    raise CsvFormatError(f"{path}: row {number} has {len(row)} fields, header has {width}")
                key = key_of(row)
                cell = cells.get(key)
                if cell is None:
                    cell = cells[key] = [*_cell(key, mapping, number, path), 0]
                    if line is not None:
                        known_lines[line] = cell
                return cell

            while block is not None:
                offset = block.tell()
                chunk = collections.Counter(block)
                try:
                    # A message raised here is never shown, so its row number does not matter.
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
                                row = next(parse)
                            cell = cells.get(key_of(row)) if len(row) == width else None
                            if cell is None:  # a blank line, a bad width or a new tuple
                                cell = cell_of(row, row_number, line)
                        found.append(cell)
                except (IndexError, UnicodeError, csv.Error, CsvFormatError):
                    # Read the chunk record by record, through the record that holds
                    # its last line; ``start`` lines of it come before the record read.
                    # That record may run on into later blocks, and the next chunk is
                    # the unread rest of the block the read stopped in.
                    block.seek(offset)
                    lines = block.readlines()
                    reader = csv.reader(_checked_lines(itertools.chain(lines, read_on())))
                    start = 0
                    for row in reader:
                        row_number += 1
                        one_line = lines[start] if reader.line_num == start + 1 else None
                        cell_of(row, row_number, one_line)[2] += 1
                        start = reader.line_num
                        if start >= len(lines):
                            break
                    continue
                row_number += sum(chunk.values())
                for cell, rows in zip(found, chunk.values()):
                    cell[2] += rows
                block = next(blocks, None)
    except UnicodeError:
        raise CsvFormatError(f"{path}: row {row_number + 1} is not valid UTF-8") from None
    except csv.Error as err:
        raise CsvFormatError(f"{path}: row {row_number + 1}: {err}") from None
    if not cells:
        raise CsvFormatError(f"{path}: no data rows")
    tally: dict[str | None, list[int]] = {}
    for stratum, position, rows in cells.values():
        tally.setdefault(stratum, [0] * 6)[position] += rows
    return Dataset(labels=tuple(tally), counts=list(tally.values()))


@contextlib.contextmanager
def _open(path: Path, digest):
    """The input's decoded blocks, whose lines are those ``open(path, newline="", encoding="utf-8-sig")`` yields.

    The raw bytes are read :data:`_BLOCK` at a time, and each block goes to
    ``digest`` before it is decoded.  Undecodable bytes become lone
    surrogates, which _check_utf8 rejects line by line, so an error can name
    the row that holds them.
    """
    with open(path, "rb", buffering=0) as raw:
        yield _decoded_blocks(raw, digest)


def _decoded_blocks(raw, digest):
    """One text file per run of whole lines in ``raw``; a line cut by a block's end goes to the next."""
    decode = codecs.getincrementaldecoder("utf-8-sig")(errors="surrogateescape").decode
    # Text read past the last cut, kept as parts so that a long line is joined once.
    rest: list[str] = []
    while block := raw.read(_BLOCK):
        digest.update(block)
        text = decode(block)
        # Cut after the last line end; a final "\r" may be the start of "\r\n".
        cut = max(text.rfind("\n"), text.rfind("\r", 0, -1)) + 1
        if cut:
            rest.append(text[:cut])
            yield io.StringIO("".join(rest), newline="")
            rest = [text[cut:]]
        else:
            rest.append(text)
    rest.append(decode(b"", final=True))
    yield io.StringIO("".join(rest), newline="")


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
        if not line.isascii():  # an all-ASCII line needs no call
            _check_utf8(line)
        yield line


def _parse_binary(token: str, column: str, row_number: int, path: Path) -> int:
    token = token.strip()
    if token == "0":
        return 0
    if token == "1":
        return 1
    raise CsvFormatError(f"{path}: non-binary value {token!r} in column {column!r} at row {row_number}")


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
    digest = hashlib.sha256()
    mapping = {"y": cfg.y_col, "s": cfg.s_col, "d": cfg.d_col, "stratum": cfg.stratum_col}
    data = load_csv(cfg.input_path, mapping, digest)

    moments = estimate_moments(data)
    requested = cfg.assumption_sets
    # Every restriction some requested set implies, each once.
    violations = dict.fromkeys(v for a in requested for v in restriction_violations(moments, a))
    warnings = [f"restriction violated in-sample: {v}; bounds reported anyway" for v in violations]
    selection, outcome = map(_test_outcome_dict, test_restrictions(data))
    boot_args = dict(reps=cfg.reps, level=cfg.level, seed=cfg.seed)
    pooled = _group_block(Dataset(labels=(None,), counts=cell_counts(data)), requested, boot_args)
    unconditional = {name: block["aggregate"] for name, block in pooled["sets"].items()}
    # Only a set with A4 implies the outcome restriction.
    restriction_tests = {a.value: {"selection": selection, "outcome": outcome if a.a4 else None} for a in requested}

    stratified_block = None
    if cfg.use_strata:
        stratified_block = _group_block(data, requested, boot_args)
        # Which strata the bootstrap skips does not depend on the set.
        warnings += [
            f"stratum {row['stratum']!r}: bootstrap skipped ({UNSTABLE})"
            for row in stratified_block["sets"][requested[0].value]["per_stratum"]
            if row["ci_lb"] is None
        ]

    provenance = {
        "tool": "pocbounds",
        "tool_version": __version__,
        "input_path": str(cfg.input_path),
        "input_sha256": digest.hexdigest(),
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


def emit_plot_data(report: Report, path: str | Path) -> tuple[Path, Path]:
    """Write the SVG chart and its sidecar JSON for ``report``.

    One bar per group and set, in the report's set order.
    """
    groups = {"unconditional": report.unconditional}
    if report.stratified is not None:
        groups["stratified"] = {name: block["aggregate"] for name, block in report.stratified["sets"].items()}
    bars = [
        {"assumption_set": name, "group": group, "lb": entries[name]["lb"], "ub": entries[name]["ub"]}
        for group, entries in groups.items()
        for name in report.provenance["assumption_sets"]
    ]
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
        cfg = RunConfig(
            input_path=args.input,
            y_col=args.y_col,
            s_col=args.s_col,
            d_col=args.d_col,
            stratum_col=args.stratum_col,
            assumption_sets=tuple(tok for tok in args.assumptions.split(",") if tok.strip()),
            reps=args.reps,
            level=args.level,
            seed=args.seed,
            stratified=args.stratified,
        )
        report = run_analysis(cfg)
    except (ConfigError, CsvFormatError) as err:
        print(f"pocbounds: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"pocbounds: fatal: {err}", file=sys.stderr)
        return 1

    rendered = report.to_json() if args.format == "json" else _format_text(report)
    # An input path that is not valid UTF-8 holds lone surrogates; they go
    # out as the path's own bytes, whatever the locale's encoding.
    rendered = rendered.encode("utf-8", errors="surrogateescape")
    try:
        if args.output is not None:
            Path(args.output).write_bytes(rendered)
        elif sys.stdout is None:
            raise OSError("standard output is closed")
        else:
            sys.stdout.flush()
            sys.stdout.buffer.write(rendered)
            sys.stdout.buffer.flush()
    except OSError as err:
        print(f"pocbounds: fatal: cannot write report: {err}", file=sys.stderr)
        return 1
    if args.plot_out is not None:
        try:
            emit_plot_data(report, args.plot_out)
        except OSError as err:
            print(f"pocbounds: fatal: cannot write plot: {err}", file=sys.stderr)
            return 1
    return 0

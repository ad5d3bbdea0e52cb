"""Command-line front end: CSV in, machine-readable report and plot out.

The expected input is a comma-separated UTF-8 file with a header row.
Treatment and selection columns must contain 0/1; the outcome column must
contain 0/1 for selected rows and be empty for unselected rows (the
outcome of an unselected unit is censored).  An optional stratum column is
read as an opaque string id with surrounding whitespace stripped, so
``" b"`` and ``"b"`` are one stratum.

The JSON report is canonical: keys are sorted, floats use their shortest
exact decimal form, no timestamps are embedded, and a ``schema_version``
field versions the layout, so identical inputs and configuration produce
byte-identical output.  Model-restriction violations are reported as
warnings, never as process failures; exit codes are 0 for success, 1 for
a fatal runtime error, and 2 for configuration or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import ASSUMPTION_ORDER, AssumptionSet, BoundsInterval, compute_bounds, restriction_violations
from .charts import write_plot
from .estimation import Dataset, cell_counts, estimate_moments, estimate_stratified, table_position
from .inference import DIRECTION_NOTE, UNSTABLE, EndpointIntervals, bootstrap_bounds, test_restrictions


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
        return {
            "schema_version": self.schema_version,
            "provenance": self.provenance,
            "moments": self.moments,
            "restriction_tests": self.restriction_tests,
            "unconditional": self.unconditional,
            "stratified": self.stratified,
            "warnings": self.warnings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"


def load_csv(path: str | Path, mapping: dict[str, str | None]) -> Dataset:
    """Count the microdata rows into a table; row numbers count the header as row 1."""
    named = [name for name in mapping.values() if name is not None]
    if len(set(named)) != len(named):
        raise ConfigError(f"duplicate column mapping: {named}")
    path = Path(path)
    tally: dict[str | None, list[int]] = {}
    row_number = 0
    try:
        # Undecodable bytes become lone surrogates, which _checked_lines
        # rejects line by line, so the error names the row that holds them.
        with path.open(newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
            reader = csv.reader(_checked_lines(handle))
            header = next(reader, None)
            if header is None:
                raise CsvFormatError(f"{path}: empty file, header row required")
            row_number = 1
            header = [h.strip() for h in header]
            positions: dict[str, int | None] = {"stratum": None}
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
            y_pos, s_pos, d_pos, stratum_pos = (positions[r] for r in ("y", "s", "d", "stratum"))

            for row_number, row in enumerate(reader, start=2):
                if not row:  # a blank line
                    continue
                if len(row) != len(header):
                    raise CsvFormatError(
                        f"{path}: row {row_number} has {len(row)} fields, header has {len(header)}"
                    )
                d = _parse_binary(row[d_pos], mapping["d"], row_number, path)
                s = _parse_binary(row[s_pos], mapping["s"], row_number, path)
                y_token = row[y_pos].strip()
                if y_token == "":
                    y = None
                    if s == 1:
                        raise CsvFormatError(
                            f"{path}: missing outcome in column {mapping['y']!r} at row "
                            f"{row_number} although s=1"
                        )
                else:
                    y = _parse_binary(y_token, mapping["y"], row_number, path)
                    if s == 0:
                        raise CsvFormatError(
                            f"{path}: outcome present in column {mapping['y']!r} at row "
                            f"{row_number} although s=0 (censored outcomes must be empty)"
                        )
                stratum = None if stratum_pos is None else row[stratum_pos].strip()
                table = tally.get(stratum)
                if table is None:
                    table = tally[stratum] = [0] * 6
                table[table_position(d, s, y)] += 1
    except UnicodeError:
        raise CsvFormatError(f"{path}: row {row_number + 1} is not valid UTF-8") from None
    except csv.Error as err:
        raise CsvFormatError(f"{path}: row {row_number + 1}: {err}") from None

    if not tally:
        raise CsvFormatError(f"{path}: no data rows")
    return Dataset(labels=tuple(tally), counts=list(tally.values()))


def _checked_lines(handle):
    for line in handle:
        if not line.isascii():
            line.encode("utf-8")  # raises UnicodeEncodeError on an escaped byte
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


def _interval_dict(interval: BoundsInterval) -> dict:
    return {
        "lb": interval.lb,
        "ub": interval.ub,
        "lb_raw": interval.lb_raw,
        "ub_raw": interval.ub_raw,
        "lb_clipped": interval.lb_clipped,
        "ub_clipped": interval.ub_clipped,
        "restriction_violated": interval.restriction_violated,
        "crossed": interval.crossed,
    }


def _ci_dict(intervals: EndpointIntervals | None) -> dict:
    if intervals is None:
        return {"ci_lb": None, "ci_ub": None}
    return {"ci_lb": list(intervals.ci_lb), "ci_ub": list(intervals.ci_ub)}


def run_analysis(cfg: RunConfig) -> Report:
    """Execute the full pipeline described by ``cfg``.

    Estimates pooled moments and bounds with bootstrap intervals for every
    requested assumption set, runs the restriction tests, and adds the
    stratified table (aggregate plus per-stratum rows) when strata are in
    play.  One bootstrap of the pooled table and one of the stratified
    table serve every set; per-stratum intervals come from the stratified
    one.
    """
    data = load_csv(cfg.input_path, {"y": cfg.y_col, "s": cfg.s_col, "d": cfg.d_col, "stratum": cfg.stratum_col})
    digest = hashlib.sha256(Path(cfg.input_path).read_bytes()).hexdigest()

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
    pooled = bootstrap_bounds(Dataset(labels=(None,), counts=cell_counts(data)), requested, **boot_args)

    restriction_tests = {}
    unconditional = {}
    for a in requested:
        restriction_tests[a.value] = {
            "selection": _test_outcome_dict(tests.selection_test),
            "outcome": None if a is AssumptionSet.A1_3 else _test_outcome_dict(tests.outcome_test),
        }
        unconditional[a.value] = {
            **_interval_dict(compute_bounds(moments, a)),
            **_ci_dict(pooled.aggregate[a]),
            "failed_replicates": pooled.failed_replicates,
        }

    stratified_block = None
    if cfg.use_strata:
        fits = {a: estimate_stratified(data, a) for a in requested}
        boot = bootstrap_bounds(data, requested, **boot_args)
        stratified_block = {
            "sets": {},
            "dropped": [[name, reason] for name, reason in fits[strongest].dropped],
            "n_strata": len(data.labels),
        }
        for a, fit in fits.items():
            aggregate = {
                **_interval_dict(fit.aggregate),
                **_ci_dict(boot.aggregate[a]),
                "failed_replicates": boot.failed_replicates,
            }
            rows = [
                {
                    "stratum": name,
                    "n": stratum.n,
                    "weight": stratum.weight,
                    "lb": stratum.bounds.lb,
                    "ub": stratum.bounds.ub,
                    **_ci_dict(boot.per_stratum[a][name]),
                }
                for name, stratum in fit.per_stratum.items()
            ]
            stratified_block["sets"][a.value] = {"aggregate": aggregate, "per_stratum": rows}
        warnings += [
            f"stratum {name!r}: bootstrap skipped ({UNSTABLE})"
            for name in fits[strongest].per_stratum
            if boot.per_stratum[strongest][name] is None
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
    moments_block = {
        "p_y1_s1d1": moments.p_y1_s1d1,
        "p_y0_s1d0": moments.p_y0_s1d0,
        "p_s1_d1": moments.p_s1_d1,
        "p_s1_d0": moments.p_s1_d0,
        "p_d1": moments.p_d1,
    }
    return Report(
        schema_version="1",
        provenance=provenance,
        moments=moments_block,
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

"""The three benchmark workloads: one operation each, and its correctness check.

Each workload's ``run`` is the timed call into the package; ``check`` runs
afterwards, untimed, and raises ``CheckFailed`` when an output is wrong.
Sizes default to the benchmark's; the smoke test passes smaller ones.

* ``FixtureCli``: the documented command-line run on the committed
  1,769-row fixture, stratified over its 8 strata, all three assumption
  sets, ``--reps 1000``, a JSON report and an SVG chart.  The bootstrap
  dominates it; parsing is under 1%.
* ``BulkPooled``: the command-line run on a generated CSV of 250,000 rows
  and 50 strata with ``--no-stratified --reps 200``.  CSV parsing and the
  repeated full-data cell counts dominate; the bootstrap is under 1%.
* ``SharpnessMc``: the library's verification and simulation path, which
  the command line never reaches: latent draw, forward map, closed-form
  bounds, LP envelope oracle, both attaining constructions with their
  assumption checks, and a 2,000-row sample with its moments.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

import pocbounds.bounds as bounds
import pocbounds.cli as cli
import pocbounds.estimation as estimation
import pocbounds.latent as latent
import pocbounds.simulate as simulate

SETS = [a.value for a in bounds.ASSUMPTION_ORDER]
FIXTURE = Path("tests") / "data" / "table_mirror_n1769.csv"
FIXTURE_ROWS = 1769
FIXTURE_STRATA = 8
LP_TOL = 1e-6
ROUND_TRIP_TOL = 1e-12
MOMENT_FIELDS = ("p_y1_s1d1", "p_y0_s1d0", "p_s1_d1", "p_s1_d0")


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def exact_moments(counts) -> dict[str, float]:
    """Sample-proportion moments of a 2x3 count table, computed independently."""
    (c0_y1, c0_y0, c0_out), (c1_y1, c1_y0, c1_out) = counts
    n0 = c0_y1 + c0_y0 + c0_out
    n1 = c1_y1 + c1_y0 + c1_out
    return {
        "p_y1_s1d1": c1_y1 / (c1_y1 + c1_y0),
        "p_y0_s1d0": c0_y0 / (c0_y1 + c0_y0),
        "p_s1_d1": (c1_y1 + c1_y0) / n1,
        "p_s1_d0": (c0_y1 + c0_y0) / n0,
        "p_d1": n1 / (n0 + n1),
    }


def _check_intervals(intervals: dict[str, dict], where: str) -> None:
    """Every set present, ``lb <= ub``, and the three sets nested."""
    _require(sorted(intervals) == SETS, f"{where}: sets {sorted(intervals)} != {SETS}")
    for name, entry in intervals.items():
        _require(entry["lb"] <= entry["ub"], f"{where} {name}: lb {entry['lb']} > ub {entry['ub']}")
    wide, mid, narrow = (intervals[name] for name in SETS)
    _require(
        wide["lb"] <= mid["lb"] <= narrow["lb"] and narrow["ub"] <= mid["ub"] <= wide["ub"],
        f"{where}: intervals are not nested",
    )


def csv_counts(path: Path) -> list[list[int]]:
    """2x3 cell counts of a ``y,s,d,...`` CSV, read with the csv module alone."""
    counts = [[0, 0, 0], [0, 0, 0]]
    with path.open(newline="") as handle:
        for row in csv.DictReader(handle):
            cell = 2 if row["s"] == "0" else (0 if row["y"] == "1" else 1)
            counts[int(row["d"])][cell] += 1
    return counts


def check_fixture_report(report: dict, counts: list[list[int]]) -> None:
    prov = report["provenance"]
    _require(prov["n_records"] == FIXTURE_ROWS, f"n_records {prov['n_records']} != {FIXTURE_ROWS}")
    want = exact_moments(counts)
    _require(report["moments"] == want, f"moments {report['moments']} != exact {want}")
    _require(prov["assumption_sets"] == SETS, f"assumption sets {prov['assumption_sets']}")
    _check_intervals(report["unconditional"], "unconditional")
    strat = report["stratified"]
    _require(strat is not None and strat["n_strata"] == FIXTURE_STRATA, "expected 8 strata")
    _check_intervals({name: block["aggregate"] for name, block in strat["sets"].items()}, "aggregate")
    for index in range(FIXTURE_STRATA):
        rows = {name: block["per_stratum"][index] for name, block in strat["sets"].items()}
        _check_intervals(rows, f"stratum {rows[SETS[0]]['stratum']}")


def check_plot_sidecar(sidecar: dict, report: dict) -> None:
    plotted = {(bar["group"], bar["assumption_set"]): (bar["lb"], bar["ub"]) for bar in sidecar["bars"]}
    for name in SETS:
        entry = report["unconditional"][name]
        _require(plotted.get(("unconditional", name)) == (entry["lb"], entry["ub"]), f"plot {name}")
        aggregate = report["stratified"]["sets"][name]["aggregate"]
        _require(plotted.get(("stratified", name)) == (aggregate["lb"], aggregate["ub"]), f"plot {name}")


def check_bulk_report(report: dict, expected: dict) -> None:
    prov = report["provenance"]
    _require(prov["n_records"] == expected["rows"], f"n_records {prov['n_records']} != {expected['rows']}")
    _require(prov["input_sha256"] == expected["sha256"], "input sha256 differs from the generated file")
    _require(report["stratified"] is None, "pooled run produced a stratified block")
    want = exact_moments(expected["counts"])
    _require(report["moments"] == want, f"moments {report['moments']} != exact {want}")
    _check_intervals(report["unconditional"], "unconditional")


class FixtureCli:
    """``pocbounds.cli.main`` on the committed fixture, stratified, with a chart."""

    def __init__(self, root: Path, out_dir: Path, seed: int, reps: int = 1000) -> None:
        self.report_path = out_dir / "fixture_report.json"
        self.plot_path = out_dir / "fixture_plot.svg"
        self.argv = [
            "--input", str(root / FIXTURE), "--y-col", "y", "--s-col", "s", "--d-col", "d",
            "--stratum-col", "course", "--assumptions", ",".join(SETS), "--reps", str(reps),
            "--seed", str(seed), "--format", "json",
            "--output", str(self.report_path), "--plot-out", str(self.plot_path),
        ]
        self.rows_per_op = FIXTURE_ROWS
        # Pooled, stratified and per-stratum bootstrap for each set.
        self.draws_per_op = reps * len(SETS) * (2 + FIXTURE_STRATA)
        self.counts = csv_counts(root / FIXTURE)
        self.first_digest: str | None = None

    def run(self, index: int) -> int:
        return cli.main(self.argv)

    def check(self, exit_code: int) -> None:
        _require(exit_code == 0, f"exit code {exit_code}")
        text = self.report_path.read_bytes()
        digest = hashlib.sha256(text).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        _require(digest == self.first_digest, "canonical report differs from this run's first report")
        report = json.loads(text)
        check_fixture_report(report, self.counts)
        _require(self.plot_path.read_bytes().startswith(b"<svg"), "plot is not an SVG")
        sidecar = json.loads(self.plot_path.with_name(self.plot_path.name + ".json").read_text())
        check_plot_sidecar(sidecar, report)


class BulkPooled:
    """``pocbounds.cli.main`` on the generated 250,000-row CSV, pooled only."""

    def __init__(self, out_dir: Path, seed: int, expected: dict, reps: int = 200) -> None:
        self.expected = expected
        self.report_path = out_dir / "bulk_report.json"
        self.argv = [
            "--input", expected["path"], "--y-col", "y", "--s-col", "s", "--d-col", "d",
            "--stratum-col", "stratum", "--no-stratified", "--assumptions", ",".join(SETS),
            "--reps", str(reps), "--seed", str(seed), "--format", "json",
            "--output", str(self.report_path),
        ]
        self.rows_per_op = expected["rows"]
        self.draws_per_op = reps * len(SETS)

    def run(self, index: int) -> int:
        return cli.main(self.argv)

    def check(self, exit_code: int) -> None:
        _require(exit_code == 0, f"exit code {exit_code}")
        check_bulk_report(json.loads(self.report_path.read_text()), self.expected)


def recount(data) -> np.ndarray:
    """2x3 cell counts of a dataset by ``np.bincount``, independent of the package."""
    rows = np.array([(r.d, r.s, 1 if r.y == 1 else 0) for r in data.records], dtype=np.int64)
    d, s, y = rows.T
    cell = np.where(s == 1, 1 - y, 2)
    return np.bincount(d * 3 + cell, minlength=6).reshape(2, 3)


def estimable(counts: np.ndarray) -> bool:
    """Whether every conditioning cell the moments divide by is nonempty."""
    return bool(counts[0].sum() and counts[1].sum() and counts[1, :2].sum() and counts[0, 1])


class SharpnessMc:
    """One latent draw per assumption set through the verification chain."""

    def __init__(self, seed: int, sample_rows: int = 2000) -> None:
        self.seed = seed
        self.sample_rows = sample_rows
        self.rows_per_op = sample_rows * len(SETS)
        self.draws_per_op = len(SETS)

    def run(self, index: int) -> list[dict]:
        rng = np.random.default_rng([self.seed, index])
        results = []
        for a in bounds.ASSUMPTION_ORDER:
            joint = simulate.draw_latent_joint(a, rng)
            m = latent.observed_from_latent(joint)
            interval = bounds.compute_bounds(m, a)
            envelope = latent.sharp_envelope_oracle(m, a)
            sides = []
            for side in (latent.Side.LOWER, latent.Side.UPPER):
                constructed = latent.construct_bound_distribution(m, a, side)
                sides.append((constructed, latent.check_assumptions(constructed)))
            data = simulate.sample_dataset(joint, self.sample_rows, rng)
            try:
                estimate = estimation.estimate_moments(data)
            except ValueError:
                estimate = None
            results.append(
                {"a": a, "m": m, "interval": interval, "envelope": envelope,
                 "sides": sides, "data": data, "estimate": estimate}
            )
        return results

    def check(self, results: list[dict]) -> None:
        for r in results:
            a, m, interval = r["a"], r["m"], r["interval"]
            lo, hi = r["envelope"]
            _require(
                abs(lo - interval.lb) <= LP_TOL and abs(hi - interval.ub) <= LP_TOL,
                f"{a.value}: LP envelope ({lo}, {hi}) vs closed form ({interval.lb}, {interval.ub})",
            )
            for (constructed, report), target in zip(r["sides"], (interval.lb, interval.ub)):
                _require(report.holds(a), f"{a.value}: constructed joint breaks {a.value}: {report.details}")
                theta = latent.theta_oo(constructed)
                _require(abs(theta - target) <= ROUND_TRIP_TOL, f"{a.value}: theta {theta} != bound {target}")
                mapped = latent.observed_from_latent(constructed)
                for name in MOMENT_FIELDS:
                    _require(
                        abs(getattr(mapped, name) - getattr(m, name)) <= ROUND_TRIP_TOL,
                        f"{a.value}: round trip moves {name}",
                    )
            counts = recount(r["data"])
            estimate = r["estimate"]
            if not estimable(counts):
                _require(estimate is None, f"{a.value}: moments estimated with an empty cell")
                continue
            _require(estimate is not None, f"{a.value}: estimation failed on estimable counts")
            want = exact_moments(counts.tolist())
            got = {name: getattr(estimate, name) for name in want}
            _require(got == want, f"{a.value}: estimate_moments {got} != recount {want}")

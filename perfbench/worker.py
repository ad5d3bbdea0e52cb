"""Closed-loop worker: one client, one operation in flight, in its own process.

``run.py`` starts this script with BLAS/OpenMP thread counts of 1 and a JSON
spec as its only argument, and reads the JSON result it writes.  Running the
workload in a child keeps ``peak_rss_mb`` a property of that workload alone.

Untraced, the worker times operations for ``seconds``.  Traced, it times
half of ``seconds`` untraced and half traced, so the same process reports
the tracing overhead.  A new operation starts only while the previous one's
duration still fits in the remaining time, so a run ends close to its
budget whatever one operation costs.  A fixed reference kernel runs between
blocks of operations, and ``run_s`` is taken relative to it (``op_time``).
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np


# Operations are timed in blocks of at least this many seconds, with the
# reference kernel timed before and after each block.
BLOCK_S = 1.0
# A nominal time for the reference kernel, which turns a ratio to it back
# into seconds.  On a 2-vCPU Xeon guest the kernel took 0.08 to 0.18 s.
REFERENCE_S = 0.100


def reference_kernel() -> float:
    """Wall seconds of a fixed mix of interpreter and small-array numpy work.

    It exercises what the workloads spend their time on (dict and string
    work in the interpreter, many small numpy calls) and uses no part of
    ``pocbounds``, so a change to the package cannot change it.
    """
    rng = np.random.default_rng(0)
    start = perf_counter()
    counts: dict[tuple[str, int], int] = {}
    for i in range(100_000):
        cell = (f"k{i % 97}", i % 7)
        counts[cell] = counts.get(cell, 0) + 1
    total = 0.0
    for _ in range(8_000):
        x = rng.random(200)
        total += float(np.minimum(x, 0.5).sum() / x.max())
    elapsed = perf_counter() - start
    if len(counts) != 679 or not total > 0:
        raise RuntimeError("reference kernel computed a wrong result")
    return elapsed


def op_time(ratios: list[float]) -> float:
    """The run's seconds per operation, at the reference host's speed.

    A shared virtual machine (measured on a 2-vCPU Xeon guest) runs the same
    work up to twice as fast or slow from one half-minute to the next, so
    the wall time of a whole run moves with its neighbours' load.  Each
    block of operations is therefore divided by the reference kernel's time
    around it, which moves with the host in the same way; the run's figure
    is the median of those ratios times ``REFERENCE_S``.
    """
    return statistics.median(ratios) * REFERENCE_S


def closed_loop(workload, seconds: float, first_index: int, tracer=None) -> dict:
    """Run operations back to back for ``seconds``; time only the program call.

    The reference kernel runs between blocks of operations, outside their
    timing; each block yields one ratio of its mean operation time to the
    mean of the reference times before and after it.
    """
    times: list[float] = []
    ratios: list[float] = []
    failures: list[str] = []
    index = first_index
    start = perf_counter()
    last = 0.0
    references = [reference_kernel()]
    block: list[float] = []
    done = False
    while not done:
        t0 = perf_counter()
        try:
            with tracer.operation() if tracer else nullcontext():
                output = workload.run(index)
            last = perf_counter() - t0
            times.append(last)
            block.append(last)
            workload.check(output)
        except Exception as err:  # noqa: BLE001 - a failed operation is counted, not fatal
            last = perf_counter() - t0
            failures.append(f"op {index}: {type(err).__name__}: {err}")
            if len(failures) == 1:
                traceback.print_exc(file=sys.stderr)
        index += 1
        done = perf_counter() - start + last > seconds
        if block and (done or sum(block) >= BLOCK_S):
            references.append(reference_kernel())
            ratios.append(statistics.fmean(block) / statistics.fmean(references[-2:]))
            block = []
    return {
        "times": times,
        "ratios": ratios,
        "references": references,
        "attempted": index - first_index,
        "failures": failures,
    }


def make_workload(spec: dict):
    import workloads

    root = Path(spec["root"])
    out_dir = Path(spec["out_dir"])
    if spec["workload"] == "fixture_cli":
        return workloads.FixtureCli(root, out_dir, spec["seed"])
    if spec["workload"] == "bulk_pooled":
        return workloads.BulkPooled(out_dir, spec["seed"], spec["bulk_input"])
    return workloads.SharpnessMc(spec["seed"])


def layer_metrics(tracer, ops: int, untraced_mean_s: float) -> dict[str, float]:
    """Per-operation layer figures from the traced phase."""
    spans = tracer.summary()
    counters = tracer.counters

    def total(name: str, key: str = "s") -> float:
        return spans.get(name, {}).get(key, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    rows_in = counters["rows_loaded"] + counters["simulate.rows_sampled"]
    replicates = counters["inference.replicates"]
    layer_self = sum(entry["self_s"] for name, entry in spans.items() if name != "op")
    per_op = {
        "cli.load_csv.s": total("cli.load_csv"),
        "cli.run_analysis.self_s": total("cli.run_analysis", "self_s"),
        "cli.main.self_s": total("cli.main", "self_s"),
        "cli.report.s": total("cli.report"),
        "charts.emit_plot_data.s": total("charts.emit_plot_data"),
        "estimation.cell_counts.calls": total("estimation.cell_counts", "calls"),
        "estimation.cell_counts.s": total("estimation.cell_counts"),
        "estimation.rows_counted": counters["estimation.rows_counted"],
        "estimation.stratum_cell_counts.s": total("estimation.stratum_cell_counts"),
        "estimation.estimate_moments.s": total("estimation.estimate_moments"),
        "estimation.estimate_stratified.s": total("estimation.estimate_stratified"),
        "inference.bootstrap_bounds.calls": total("inference.bootstrap_bounds", "calls"),
        "inference.bootstrap_bounds.s": total("inference.bootstrap_bounds"),
        "inference.replicates": replicates,
        "inference.failed_replicates": counters["inference.failed_replicates"],
        "inference.test_restrictions.s": total("inference.test_restrictions"),
        "bounds.compute_bounds.calls": counters["bounds.compute_bounds.calls"],
        "latent.sharp_envelope_oracle.calls": total("latent.sharp_envelope_oracle", "calls"),
        "latent.sharp_envelope_oracle.s": total("latent.sharp_envelope_oracle"),
        "latent.lp_solves": counters["latent.lp_solves"],
        "latent.construct_bound_distribution.s": total("latent.construct_bound_distribution"),
        "latent.check_assumptions.s": total("latent.check_assumptions"),
        "simulate.draw_latent_joint.s": total("simulate.draw_latent_joint"),
        "simulate.sample_dataset.s": total("simulate.sample_dataset"),
        "simulate.rows_sampled": counters["simulate.rows_sampled"],
    }
    metrics = {name: value / ops for name, value in per_op.items()}
    metrics.update(
        {
            "cli.load_csv.rows_per_s": ratio(counters["rows_loaded"], total("cli.load_csv")),
            "estimation.recount_ratio": ratio(counters["estimation.rows_counted"], rows_in),
            "inference.replicate_us": 1e6 * ratio(total("inference.bootstrap_bounds"), replicates),
            "inference.failed_replicate_share": ratio(counters["inference.failed_replicates"], replicates),
            "trace.self_time_share": ratio(layer_self / ops, untraced_mean_s),
        }
    )
    return metrics


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import scipy

    import pocbounds

    package_dir = Path(pocbounds.__file__).resolve().parent
    if package_dir != (root / "src" / "pocbounds").resolve():
        print(f"worker: imported pocbounds from {package_dir}, not from the checkout", file=sys.stderr)
        return 2

    workload = make_workload(spec)
    seconds = spec["seconds"]
    result = {
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "pocbounds": pocbounds.__version__,
        },
        "rows_per_op": workload.rows_per_op,
        "draws_per_op": workload.draws_per_op,
    }
    if not spec["trace"]:
        plain = closed_loop(workload, seconds, 0)
    else:
        from tracer import Tracer

        plain = closed_loop(workload, seconds / 2, 0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = closed_loop(workload, seconds / 2, plain["attempted"], tracer)
        finally:
            tracer.restore()
        tracer.write(Path(spec["spans_path"]))
        ops = len(traced["times"])
        metrics = layer_metrics(tracer, ops, statistics.fmean(plain["times"]))
        metrics["trace.overhead_s"] = op_time(traced["ratios"]) - op_time(plain["ratios"])
        result["layers"] = metrics
        plain["attempted"] += traced["attempted"]
        plain["failures"] += traced["failures"]
    result.update(plain)
    if plain["ratios"]:
        result["run_s"] = op_time(plain["ratios"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""pocbounds benchmark: three workloads, end-to-end metrics, per-layer traces.

Usage, from the root of a source checkout (no install needed)::

    python3 perfbench/run.py --workload fixture_cli --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``fixture_cli``,
``bulk_pooled`` and ``sharpness_mc``.  The load generator is a closed loop:
one single-threaded client in one child process with one operation in
flight, started with BLAS/OpenMP thread counts of 1.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``setup_s``: median wall time of fresh interpreters running
  ``import pocbounds.cli``.
* ``run_s``: wall time of one operation at a fixed host speed: the median
  ratio of operation time to a reference kernel timed alongside, times
  the kernel's nominal time (``worker.op_time`` says why).  The raw wall
  times are printed as ``wall_p50_s`` and kept in the result file.
* ``rows_per_s``: input rows one operation processes (rows parsed by the
  command line, rows sampled by ``sharpness_mc``) over ``run_s``.
* ``draws_per_s``: random draws one operation completes (bootstrap
  replicates for the command-line workloads, latent draws for
  ``sharpness_mc``) over ``run_s``.
* ``peak_rss_mb``: peak resident memory of the workload's process.

The share of failed or check-failing operations is printed on its own line
as ``failed_share`` and is ``failed / attempted`` in the JSON line.  Any
failed check makes the command exit 1.

With ``--trace 1`` the worker times half the run untraced and half with the
outside-in tracer of ``tracer.py``; the last line reports the per-layer
metrics, per operation, plus the tracing overhead and the share of the
untraced operation time that the layer spans' self times account for.  The
spans go to ``.perfbench_out/`` together with a result file that records
provenance, the seeds and the generated input's sha256 and cell counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("fixture_cli", "bulk_pooled", "sharpness_mc")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
WORKER_TIMEOUT_S = 150
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
IMPORT_MODULES = {
    "setup.import.scipy_stats_s": "scipy.stats",
    "setup.import.pocbounds_latent_s": "pocbounds.latent",
    "setup.import.pocbounds_inference_s": "pocbounds.inference",
}



def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units as ``BENCHMARK.json`` declares them, in its order."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup() -> float:
    """Median wall time of a fresh ``import pocbounds.cli``."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import pocbounds.cli"], env=child_env(), check=True, timeout=60)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def measure_imports() -> dict[str, float]:
    """Cumulative import seconds of the heavy modules, from ``-X importtime``."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_MODULES}
    line = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$")
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import pocbounds.cli"],
            env=child_env(), check=True, timeout=60, capture_output=True, text=True,
        )
        cumulative = {m.group(2): int(m.group(1)) / 1e6 for m in map(line.match, proc.stderr.splitlines()) if m}
        for name, module in IMPORT_MODULES.items():
            samples[name].append(cumulative.get(module, 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (
        ROOT / "BENCHMARK.json",
        ROOT / "src" / "pocbounds" / "__init__.py",
        ROOT / "tests" / "data" / "table_mirror_n1769.csv",
    ):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a pocbounds checkout", file=sys.stderr)
            return 2

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spec = {
        "root": str(ROOT),
        "out_dir": str(OUT_DIR),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result_path": str(OUT_DIR / f"worker-{tag}.json"),
        "spans_path": str(OUT_DIR / f"spans-{tag}.json"),
    }
    bulk_path = OUT_DIR / f"bulk-seed{args.seed}.csv"
    try:
        if args.workload == "bulk_pooled":
            sys.path.insert(0, str(HERE))
            import bulk_input

            spec["bulk_input"] = bulk_input.generate(bulk_path, args.seed)

        imports = measure_imports() if args.trace else None
        setup_s = None if args.trace else measure_setup()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
        )
    finally:
        bulk_path.unlink(missing_ok=True)
    if proc.returncode != 0:
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(Path(spec["result_path"]).read_text())

    attempted = worker["attempted"]
    failed = len(worker["failures"])
    if not worker["times"]:
        print(f"perfbench: all {attempted} operations failed: {worker['failures'][0]}", file=sys.stderr)
        return 1
    run_s = worker["run_s"]
    if args.trace:
        metrics = {**worker["layers"], **imports}
    else:
        metrics = {
            "setup_s": setup_s,
            "run_s": run_s,
            "rows_per_s": worker["rows_per_op"] / run_s,
            "draws_per_s": worker["draws_per_op"] / run_s,
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        print(f"perfbench: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in units}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "nproc": len(os.sched_getaffinity(0)),
            "threads": THREAD_ENV,
            **worker["versions"],
        },
        "bulk_input": spec.get("bulk_input"),
        "op_times_s": worker["times"],
        "reference_s": worker["references"],
        "reference_ratios": worker["ratios"],
        "failures": worker["failures"],
        "metrics": metrics,
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    for failure in worker["failures"][:10]:
        print(f"FAILED {failure}")
    if spec.get("bulk_input"):
        info = spec["bulk_input"]
        print(f"input sha256 {info['sha256']} rows {info['rows']} cell counts {info['counts']}")
    print(f"{args.workload}: {attempted} operations, {failed} failed")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"wall_p50_s {statistics.median(worker['times']):.6g} s")
    print(f"failed_share {failed / attempted:.6g} share")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Outside-in tracer: wraps the module-level names the package's call sites look up.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces, for example,
``pocbounds.cli.bootstrap_bounds`` and ``pocbounds.inference.cell_counts``
with wrappers that record a span per call; ``Tracer.restore`` puts the
originals back.  Spans are kept in memory as tuples and written out once,
when the run ends.  A few names are counted rather than spanned because
they are called tens of thousands of times per operation and a span each
would dominate what it measures.

Only calls made inside ``Tracer.operation`` are recorded, so the
benchmark's own correctness checks, which call back into the package, stay
out of the trace.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int


# (owner, attribute, span name): every lookup site of a traced function.
# A function imported into several modules is wrapped in each of them.
SPANNED = (
    ("pocbounds.cli", "main", "cli.main"),
    ("pocbounds.cli", "load_csv", "cli.load_csv"),
    ("pocbounds.cli", "run_analysis", "cli.run_analysis"),
    ("pocbounds.cli:Report", "to_json", "cli.report"),
    ("pocbounds.cli", "emit_plot_data", "charts.emit_plot_data"),
    ("pocbounds.cli", "estimate_moments", "estimation.estimate_moments"),
    ("pocbounds.cli", "estimate_stratified", "estimation.estimate_stratified"),
    ("pocbounds.cli", "bootstrap_bounds", "inference.bootstrap_bounds"),
    ("pocbounds.cli", "test_restrictions", "inference.test_restrictions"),
    ("pocbounds.estimation", "estimate_moments", "estimation.estimate_moments"),
    ("pocbounds.estimation", "cell_counts", "estimation.cell_counts"),
    ("pocbounds.estimation", "stratum_cell_counts", "estimation.stratum_cell_counts"),
    ("pocbounds.inference", "cell_counts", "estimation.cell_counts"),
    ("pocbounds.inference", "stratum_cell_counts", "estimation.stratum_cell_counts"),
    ("pocbounds.latent", "observed_from_latent", "latent.observed_from_latent"),
    ("pocbounds.latent", "sharp_envelope_oracle", "latent.sharp_envelope_oracle"),
    ("pocbounds.latent", "construct_bound_distribution", "latent.construct_bound_distribution"),
    ("pocbounds.latent", "check_assumptions", "latent.check_assumptions"),
    ("pocbounds.simulate", "check_assumptions", "latent.check_assumptions"),
    ("pocbounds.simulate", "draw_latent_joint", "simulate.draw_latent_joint"),
    ("pocbounds.simulate", "sample_dataset", "simulate.sample_dataset"),
)

# (owner, attribute, counter name): call counts only.
COUNTED = (
    ("pocbounds.bounds", "compute_bounds", "bounds.compute_bounds.calls"),
    ("pocbounds.estimation", "compute_bounds", "bounds.compute_bounds.calls"),
    ("pocbounds.inference", "compute_bounds", "bounds.compute_bounds.calls"),
    ("pocbounds.latent", "compute_bounds", "bounds.compute_bounds.calls"),
    ("pocbounds.latent", "linprog", "latent.lp_solves"),
)


def _rows_loaded(counters, result) -> None:
    counters["rows_loaded"] += result.n


def _rows_counted(counters, result) -> None:
    counters["estimation.rows_counted"] += int(result.sum())


def _replicates(counters, result) -> None:
    counters["inference.replicates"] += result.replications
    counters["inference.failed_replicates"] += result.failed_replicates


def _rows_sampled(counters, result) -> None:
    counters["simulate.rows_sampled"] += result.n


# Counters read off a traced call's return value.
ON_RESULT: dict[str, Callable] = {
    "cli.load_csv": _rows_loaded,
    "estimation.cell_counts": _rows_counted,
    "inference.bootstrap_bounds": _replicates,
    "simulate.sample_dataset": _rows_sampled,
}


def _resolve(owner: str):
    """``"package.module"`` names a module; ``"package.module:Class"`` a class in it."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans and counters for the operations of one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._run_id = -1

    def install(self) -> None:
        for owner, attr, name in SPANNED:
            self._patch(owner, attr, lambda fn, name=name: self._spanned(name, fn))
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, lambda fn, name=name: self._counted(name, fn))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner_name: str, attr: str, make_wrapper) -> None:
        owner = _resolve(owner_name)
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    @contextmanager
    def operation(self):
        """Root span of one operation; calls are recorded only inside it."""
        self._run_id += 1
        with self._span("op"):
            yield

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._run_id)

    def _spanned(self, name: str, fn):
        on_result = ON_RESULT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self._span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self.counters, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the part of it that its child
        spans cover.  Spans of one thread nest, so children never overlap
        and their coverage is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span, child_time in zip(self.spans, covered):
            entry = totals[span.name]
            entry["calls"] += 1
            entry["s"] += span.end - span.start
            entry["self_s"] += span.end - span.start - child_time
        return dict(totals)

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "fields": list(Span._fields),
                    "spans": [list(span) for span in self.spans],
                    "counters": dict(self.counters),
                }
            )
        )

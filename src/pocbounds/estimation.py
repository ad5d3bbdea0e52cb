"""Estimation of observed moments and stratified bounds from binary microdata.

Every estimator reads one table: per stratum, the counts of each arm
(``d`` = 0, 1) in three cells, selected with ``y = 1``, selected with
``y = 0`` and unselected (the outcome of an unselected unit is censored).
A :class:`Dataset` is that table, so memory grows with the number of
strata, not of rows.  Hand-built data enter as
``Dataset(labels=..., counts=...)``; ``Dataset.records`` is a read-only
expansion into rows, kept for independent recounts.  Every probability is
estimated by the corresponding sample proportion, so estimates are exact
rationals ``k / n`` in floating point.

Stratified estimation computes fully saturated within-stratum means (with
discrete strata and no further covariates this coincides with a
fixed-effects fit), bounds each stratum, and averages the endpoints with
the strata's sample shares.  Strata on which a conditioning cell is empty
are dropped with a reason and the remaining weights renormalized; silent
reweighting would hide the bias, so the drops are reported.

Estimation is read-only over an immutable dataset; per-stratum work is
independent and order-insensitive.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bounds import AssumptionSet, BoundsInterval, ObservedMoments, bound_fields

# Unused here: perfbench/tracer.py looks this name up in this module.
from .bounds import compute_bounds  # noqa: F401

#: Column layout of a count table: [y=1 among selected, y=0 among selected,
#: not selected], one row per treatment arm (row 0 = control, row 1 = treated).
COUNT_COLUMNS = ("s1_y1", "s1_y0", "s0")

# (s, y) of each column of ``COUNT_COLUMNS``.
_CELL_VALUES = ((1, 1), (1, 0), (0, None))


class MicroRecord(NamedTuple):
    """One row of :attr:`Dataset.records`; ``y`` is ``None`` where ``s = 0`` (censored)."""

    d: int
    s: int
    y: int | None
    stratum: str | None


def table_position(d: int, s: int, y: int | None) -> int:
    """Position of a validated observation in a stratum's table flattened to six counts."""
    return 3 * d + (2 if s == 0 else 1 - y)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Count table: one 2x3 table (arm x ``COUNT_COLUMNS``) per stratum.

    ``labels`` names the strata; rows without a stratum form the stratum
    labelled ``None``, so unstratified data has ``labels == (None,)``.
    ``counts`` is a read-only int64 array of shape ``[strata, 2, 3]``.
    Strata are kept in sorted order (``None`` first), and every stratum
    holds at least one row.  A count the int64 cast would change (1.7,
    inf, NaN) is refused.
    """

    labels: tuple[str | None, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        raw = np.asarray(self.counts)
        with np.errstate(invalid="ignore"):
            counts = raw.astype(np.int64)
        if not np.array_equal(counts, raw):
            raise ValueError("counts must be whole numbers")
        counts = counts.reshape(len(labels), 2, 3)
        if counts.sum() < 1:
            raise ValueError("dataset must contain at least one record")
        if len(set(labels)) != len(labels):
            raise ValueError(f"stratum labels must be unique, got {labels}")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        if (counts.sum(axis=(1, 2)) == 0).any():
            raise ValueError("every stratum must hold at least one record")
        order = sorted(range(len(labels)), key=lambda i: (labels[i] is not None, labels[i] or ""))
        counts = counts[order]
        counts.setflags(write=False)
        object.__setattr__(self, "labels", tuple(labels[i] for i in order))
        object.__setattr__(self, "counts", counts)

    @property
    def records(self) -> tuple[MicroRecord, ...]:
        """The table expanded into rows, ordered by stratum, arm and cell (for independent recounts)."""
        rows: list[MicroRecord] = []
        for label, table in zip(self.labels, self.counts):
            for d in (0, 1):
                for (s, y), k in zip(_CELL_VALUES, table[d]):
                    rows.extend([MicroRecord(d=d, s=s, y=y, stratum=label)] * int(k))
        return tuple(rows)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def has_complete_strata(self) -> bool:
        return None not in self.labels


def cell_counts(data: Dataset) -> np.ndarray:
    """Pooled 2x3 integer table of (arm x selection/outcome cell) counts."""
    return data.counts.sum(axis=0)


def stratum_cell_counts(data: Dataset) -> dict[str, np.ndarray]:
    """Per-stratum count tables, keyed by stratum id (unlabelled rows left out)."""
    return {name: table for name, table in zip(data.labels, data.counts) if name is not None}


#: Why a stratum is dropped: the first of these conditioning cells that is empty.
EMPTY_CELLS = (
    "no treated units (D=1)",
    "no control units (D=0)",
    "no S=1 units with D=1",
    "no S=1 units with D=0",
    "no Y=0 outcomes among S=1, D=0 units",
)

# ObservedMoments' fields as unvalidated arrays; bound_fields reads either.
_MomentArrays = namedtuple("_MomentArrays", "p_y1_s1d1 p_y0_s1d0 p_s1_d1 p_s1_d0 p_d1")


def _proportions(counts: np.ndarray) -> tuple[np.ndarray, _MomentArrays]:
    """Empty-cell mask ``[..., 5]`` (``EMPTY_CELLS`` order) and moments (inf or NaN over an empty cell)."""
    n1, n0 = counts[..., 1, :].sum(axis=-1), counts[..., 0, :].sum(axis=-1)
    s1d1, s1d0 = counts[..., 1, :2].sum(axis=-1), counts[..., 0, :2].sum(axis=-1)
    empty = np.stack([n1, n0, s1d1, s1d0, counts[..., 0, 1]], axis=-1) == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        p1, q0 = counts[..., 1, 0] / s1d1, counts[..., 0, 1] / s1d0
        return empty, _MomentArrays(p1, q0, s1d1 / n1, s1d0 / n0, n1 / (n0 + n1))


def moments_from_counts(counts: np.ndarray) -> ObservedMoments:
    """Sample-proportion moments from a 2x3 count table.

    Raises ``ValueError`` naming the first empty conditioning cell.
    """
    empty, moments = _proportions(np.asarray(counts, dtype=np.int64))
    if empty.any():
        raise ValueError(EMPTY_CELLS[int(empty.argmax())])
    return ObservedMoments(*(float(p) for p in moments))


def estimate_moments(data: Dataset) -> ObservedMoments:
    """Observed moments for the pooled sample."""
    return moments_from_counts(cell_counts(data))


@dataclass(frozen=True)
class StratumResult:
    bounds: BoundsInterval
    weight: float
    n: int


@dataclass(frozen=True)
class StratifiedBounds:
    """Per-stratum bounds plus their weighted aggregate.

    ``aggregate`` holds the summary-measure interval: endpoint-wise
    weighted averages of the retained strata's bounds, with weights equal
    to each stratum's share of the retained records.  Its flags are the
    disjunction of the per-stratum flags.
    """

    per_stratum: dict[str, StratumResult]
    dropped: list[tuple[str, str]]
    aggregate: BoundsInterval


StratifiedFields = namedtuple("StratifiedFields", "empty weight strata aggregate")


def stratified_fields(counts: np.ndarray, a: AssumptionSet) -> StratifiedFields:
    """Stratified bounds under ``a`` of count tables ``[..., strata, 2, 3]``, as a ``StratifiedFields``.

    ``empty`` indexes each stratum's :data:`EMPTY_CELLS` reason, -1 if it is
    retained; ``weight`` is its share of the retained records, 0 if dropped.
    ``strata`` maps each :func:`~pocbounds.bounds.bound_fields` field to
    ``[..., strata]`` (meaningless where dropped); ``aggregate`` to ``[...]``,
    adding endpoints in table order from 0 as Python's ``sum`` does.
    """
    empty, moments = _proportions(counts)
    dropped = empty.any(axis=-1)
    n = np.where(dropped, 0, counts.sum(axis=(-2, -1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        strata = bound_fields(moments, a)
        weight = np.where(dropped, 0.0, n / n.sum(axis=-1, keepdims=True))
    aggregate = {
        name: sum(np.moveaxis(weight * np.where(dropped, 0.0, strata[name]), -1, 0))
        for name in ("lb", "ub", "lb_raw", "ub_raw")
    }
    for name in ("lb_clipped", "ub_clipped", "restriction_violated"):
        aggregate[name] = (strata[name] & ~dropped).any(axis=-1)
    aggregate["crossed"] = aggregate["lb"] > aggregate["ub"]
    return StratifiedFields(np.where(dropped, empty.argmax(axis=-1), -1), weight, strata, aggregate)


def stratified_from_counts(labels: Sequence[str], counts: np.ndarray, a: AssumptionSet) -> StratifiedBounds:
    """Stratified bounds from count tables ``[strata, 2, 3]``, one per label.

    Strata with an empty conditioning cell are dropped with its
    :data:`EMPTY_CELLS` reason; weights renormalize over what remains.
    """
    counts = np.asarray(counts, dtype=np.int64)
    empty, weight, strata, aggregate = stratified_fields(counts, a)
    if (empty >= 0).all():
        raise ValueError("every stratum was dropped; no estimable stratum remains")

    def interval(fields: dict[str, np.ndarray], *k: int) -> BoundsInterval:
        return BoundsInterval(assumption_set=a, **{name: v[k].item() for name, v in fields.items()})

    return StratifiedBounds(
        per_stratum={
            name: StratumResult(bounds=interval(strata, k), weight=float(weight[k]), n=int(counts[k].sum()))
            for k, name in enumerate(labels)
            if empty[k] < 0
        },
        dropped=[(name, EMPTY_CELLS[i]) for name, i in zip(labels, empty) if i >= 0],
        aggregate=interval(aggregate),
    )


def estimate_stratified(data: Dataset, a: AssumptionSet) -> StratifiedBounds:
    """Within-stratum moments, per-stratum bounds, and the aggregate interval."""
    if not data.has_complete_strata():
        raise ValueError("stratified estimation requires a stratum label on every record")
    return stratified_from_counts(data.labels, data.counts, a)

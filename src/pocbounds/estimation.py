"""Estimation of observed moments and stratified bounds from binary microdata.

Every estimator reads one table: per stratum, the counts of each arm
(``d`` = 0, 1) in three cells, selected with ``y = 1``, selected with
``y = 0`` and unselected (the outcome of an unselected unit is censored).
A :class:`Dataset` is that table, so memory grows with the number of
strata, not of rows.  Every probability is estimated by the corresponding
sample proportion, so estimates are exact rationals ``k / n`` in floating
point.

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

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bounds import AssumptionSet, BoundsInterval, ObservedMoments, compute_bounds

#: Column layout of a count table: [y=1 among selected, y=0 among selected,
#: not selected], one row per treatment arm (row 0 = control, row 1 = treated).
COUNT_COLUMNS = ("s1_y1", "s1_y0", "s0")

# (s, y) of each column of ``COUNT_COLUMNS``.
_CELL_VALUES = ((1, 1), (1, 0), (0, None))


@dataclass(frozen=True)
class MicroRecord:
    """One observation (d, s, y, stratum) under the censoring rule y = y* . s."""

    d: int
    s: int
    y: int | None
    stratum: str | None = None

    def __post_init__(self) -> None:
        if self.d not in (0, 1):
            raise ValueError(f"d must be 0 or 1, got {self.d!r}")
        if self.s not in (0, 1):
            raise ValueError(f"s must be 0 or 1, got {self.s!r}")
        if self.s == 0 and self.y is not None:
            raise ValueError("y must be missing when s = 0 (outcome is censored)")
        if self.s == 1 and self.y not in (0, 1):
            raise ValueError(f"y must be 0 or 1 when s = 1, got {self.y!r}")


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
    holds at least one row.
    """

    labels: tuple[str | None, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        counts = np.array(self.counts, dtype=np.int64).reshape(len(labels), 2, 3)
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

    @classmethod
    def from_records(cls, records: Iterable[MicroRecord]) -> "Dataset":
        """Count hand-built records into a table."""
        tally: dict[str | None, list[int]] = {}
        for rec in records:
            tally.setdefault(rec.stratum, [0] * 6)[table_position(rec.d, rec.s, rec.y)] += 1
        return cls(labels=tuple(tally), counts=list(tally.values()))

    @property
    def records(self) -> tuple[MicroRecord, ...]:
        """The table expanded into rows, ordered by stratum, arm and cell."""
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


def moments_from_counts(counts: np.ndarray) -> ObservedMoments:
    """Sample-proportion moments from a 2x3 count table.

    Raises ``ValueError`` naming the first empty conditioning cell.
    """
    n0 = int(counts[0].sum())
    n1 = int(counts[1].sum())
    if n1 == 0:
        raise ValueError("no treated units (D=1)")
    if n0 == 0:
        raise ValueError("no control units (D=0)")
    s1d1 = int(counts[1, 0] + counts[1, 1])
    s1d0 = int(counts[0, 0] + counts[0, 1])
    if s1d1 == 0:
        raise ValueError("no S=1 units with D=1")
    if s1d0 == 0:
        raise ValueError("no S=1 units with D=0")
    if counts[0, 1] == 0:
        raise ValueError("no Y=0 outcomes among S=1, D=0 units")
    return ObservedMoments(
        p_y1_s1d1=int(counts[1, 0]) / s1d1,
        p_y0_s1d0=int(counts[0, 1]) / s1d0,
        p_s1_d1=s1d1 / n1,
        p_s1_d0=s1d0 / n0,
        p_d1=n1 / (n0 + n1),
    )


def estimate_moments(data: Dataset) -> ObservedMoments:
    """Observed moments for the pooled sample."""
    return moments_from_counts(cell_counts(data))


@dataclass(frozen=True)
class StratumResult:
    moments: ObservedMoments
    bounds: BoundsInterval
    weight: float
    n: int


@dataclass(frozen=True)
class StratifiedBounds:
    """Per-stratum moments and bounds plus their weighted aggregate.

    ``aggregate`` holds the summary-measure interval: endpoint-wise
    weighted averages of the retained strata's bounds, with weights equal
    to each stratum's share of the retained records.  Its flags are the
    disjunction of the per-stratum flags.
    """

    per_stratum: dict[str, StratumResult]
    dropped: list[tuple[str, str]]
    aggregate: BoundsInterval


def stratified_from_counts(
    counts_by_stratum: dict[str, np.ndarray], a: AssumptionSet
) -> StratifiedBounds:
    """Stratified bounds from per-stratum count tables.

    Strata failing the moment preconditions are dropped with the error
    message as the reason; weights renormalize over what remains.
    """
    fitted: dict[str, tuple[ObservedMoments, BoundsInterval, int]] = {}
    dropped: list[tuple[str, str]] = []
    for name in sorted(counts_by_stratum):
        counts = counts_by_stratum[name]
        try:
            moments = moments_from_counts(counts)
        except ValueError as err:
            dropped.append((name, str(err)))
            continue
        fitted[name] = (moments, compute_bounds(moments, a), int(counts.sum()))

    if not fitted:
        raise ValueError("every stratum was dropped; no estimable stratum remains")

    total = sum(n for _, _, n in fitted.values())
    per_stratum = {
        name: StratumResult(moments=mom, bounds=b, weight=n / total, n=n)
        for name, (mom, b, n) in fitted.items()
    }

    lb = sum(r.weight * r.bounds.lb for r in per_stratum.values())
    ub = sum(r.weight * r.bounds.ub for r in per_stratum.values())
    aggregate = BoundsInterval(
        lb=lb,
        ub=ub,
        assumption_set=a,
        lb_clipped=any(r.bounds.lb_clipped for r in per_stratum.values()),
        ub_clipped=any(r.bounds.ub_clipped for r in per_stratum.values()),
        lb_raw=sum(r.weight * r.bounds.lb_raw for r in per_stratum.values()),
        ub_raw=sum(r.weight * r.bounds.ub_raw for r in per_stratum.values()),
        restriction_violated=any(r.bounds.restriction_violated for r in per_stratum.values()),
        crossed=lb > ub,
    )
    return StratifiedBounds(per_stratum=per_stratum, dropped=dropped, aggregate=aggregate)


def estimate_stratified(data: Dataset, a: AssumptionSet) -> StratifiedBounds:
    """Within-stratum moments, per-stratum bounds, and the aggregate interval."""
    if not data.has_complete_strata():
        raise ValueError("stratified estimation requires a stratum label on every record")
    return stratified_from_counts(stratum_cell_counts(data), a)

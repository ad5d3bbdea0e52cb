"""Estimation of observed moments and stratified bounds from binary microdata.

Every estimator reads one table: per stratum, the counts of each arm
(``d`` = 0, 1) in three cells, selected with ``y = 1``, selected with
``y = 0`` and unselected (the outcome of an unselected unit is censored).
A :class:`Dataset` is that table, so memory grows with the number of
strata, not of rows.  It is every estimator's one input: hand-built data,
one 2x3 table among them, enter as ``Dataset(labels=..., counts=...)``,
which checks them once.  ``Dataset.records`` is a read-only expansion into
rows, kept for independent recounts.  Every probability is
estimated by the corresponding sample proportion, so estimates are exact
rationals ``k / n`` rounded once to floating point.  The sums, the order
of the conditioning cells and the ratios are written once, for the pooled
table as Python ints (:func:`estimate_moments`) and for stacks of tables
as arrays (the stratified fit and the bootstrap), so the two paths agree
bit for bit on any table of fewer than 2**53 records.

Stratified estimation computes fully saturated within-stratum means (with
discrete strata and no further covariates this coincides with a
fixed-effects fit), bounds each stratum, and averages the endpoints with
the strata's sample shares.  Strata on which a conditioning cell is empty
are dropped with a reason and the remaining weights renormalized; silent
reweighting would hide the bias, so the drops are reported.  The pooled
bounds are the same fit of the one-stratum table
``Dataset(labels=(None,), counts=cell_counts(data))``.

Estimation is read-only over an immutable dataset; per-stratum work is
independent and order-insensitive.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .bounds import AssumptionSet, ObservedMoments, bound_fields

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
    ``counts`` is a read-only int64 array of shape ``[strata, 2, 3]``; it
    may be given as that stack, as one row of six counts per stratum, or,
    for one stratum, as its 2x3 table.  Any other shape is refused.
    Strata are kept in sorted order (``None`` first), and every stratum
    holds at least one row.  A count the int64 cast would change (1.7,
    inf, NaN) or cannot make (text) is refused.
    """

    labels: tuple[str | None, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        k = len(labels)
        try:
            counts = np.asarray(self.counts)
            shape = counts.shape
        except ValueError:  # lists of unequal lengths
            shape = "ragged"
        # An empty list holds no strata, so it falls through to the record check.
        if shape not in ((k, 2, 3), (k, 6)) and (k, shape) not in ((1, (2, 3)), (0, (0,))):
            raise ValueError(f"counts of shape {shape} do not fit len(labels) = {k}: expected ({k}, 2, 3) or ({k}, 6)")
        if counts.dtype != np.int64:
            raw = counts
            try:
                with np.errstate(invalid="ignore"):
                    counts = raw.astype(np.int64)
            except (TypeError, ValueError):  # text or None
                counts = None
            if counts is None or not np.array_equal(counts, raw):
                raise ValueError("counts must be whole numbers")
        # One list of Python ints: cheaper than NumPy reductions on tables this small.
        tables = counts.reshape(k, 6).tolist()
        totals = [sum(table) for table in tables]
        if sum(totals) < 1:
            raise ValueError("dataset must contain at least one record")
        if len(set(labels)) != len(labels):
            raise ValueError(f"stratum labels must be unique, got {labels}")
        if min(map(min, tables)) < 0:
            raise ValueError("counts must be non-negative")
        if 0 in totals:
            raise ValueError("every stratum must hold at least one record")
        order = sorted(range(k), key=lambda i: (labels[i] is not None, labels[i] or ""))
        # take copies, so the caller's array is never aliased.
        counts = counts.reshape(k, 2, 3).take(order, axis=0)
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


def _table_moments(y1_0, y0_0, s0_0, y1_1, y0_1, s0_1):
    """A table's size, its conditioning cells in :data:`EMPTY_CELLS` order, and each moment as ``(count, size)``.

    Takes the six cells in ``COUNT_COLUMNS`` order, control arm first, as
    Python ints or as arrays of them; every sum adds two or three cells.
    """
    s1d1, s1d0 = y1_1 + y0_1, y1_0 + y0_0
    n1, n0 = s1d1 + s0_1, s1d0 + s0_0
    n = n0 + n1
    return n, (n1, n0, s1d1, s1d0, y0_0), ((y1_1, s1d1), (y0_0, s1d0), (s1d1, n1), (s1d0, n0), (n1, n))


def _proportions(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, _MomentArrays]:
    """Each table's first empty conditioning cell, its size, and its moments.

    The first is the cell's :data:`EMPTY_CELLS` index, -1 if none is empty;
    the moments are inf or NaN over an empty cell.
    """
    n, cells, ratios = _table_moments(*(counts[..., d, c] for d in (0, 1) for c in range(3)))
    empty = np.full(n.shape, -1)
    # Marked last cell first, so a table keeps its first empty cell's index.
    for i, cell in reversed(list(enumerate(cells))):
        empty[cell == 0] = i
    with np.errstate(divide="ignore", invalid="ignore"):
        return empty, n, _MomentArrays(*(k / size for k, size in ratios))


def estimate_moments(data: Dataset) -> ObservedMoments:
    """Sample-proportion moments of the pooled table.

    The table is read once into Python ints and shares :func:`_proportions`'
    sums and ratios, so its moments are bit for bit those of the stacked
    path: each is an exact count ratio ``k / n``, and on a table of fewer
    than 2**53 records Python's ``int / int`` and NumPy's int64 division
    both round it correctly.  Raises ``ValueError`` naming the first empty
    conditioning cell.
    """
    _, conditioning, ratios = _table_moments(*cell_counts(data).ravel().tolist())
    if 0 in conditioning:
        raise ValueError(EMPTY_CELLS[conditioning.index(0)])
    return ObservedMoments(*(k / size for k, size in ratios))


StratifiedFields = namedtuple("StratifiedFields", "empty weight strata aggregate")

# The bound_fields fields an aggregate adds with the strata's weights, and those it ORs.
_ENDPOINTS = ("lb", "ub", "lb_raw", "ub_raw")
_FLAGS = ("lb_clipped", "ub_clipped", "restriction_violated")


def stratified_fields(counts: np.ndarray, sets: Iterable[AssumptionSet]) -> StratifiedFields:
    """Stratified bounds under each of ``sets`` of count tables ``[..., strata, 2, 3]``, as a ``StratifiedFields``.

    The moments, the drops and the weights do not depend on the set, so
    they are computed once and shared: ``empty`` indexes each stratum's
    :data:`EMPTY_CELLS` reason, -1 if it is retained; ``weight`` is its
    share of the retained records, 0 if dropped.  ``strata[a]`` maps each
    :func:`~pocbounds.bounds.bound_fields` field under set ``a`` to
    ``[..., strata]`` (meaningless where dropped); ``aggregate[a]`` to
    ``[...]``, adding endpoints in table order from 0 as Python's ``sum``
    does, with each flag the disjunction over the retained strata.
    """
    empty, n, moments = _proportions(counts)
    dropped = empty >= 0
    n = np.where(dropped, 0, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        strata = {a: bound_fields(moments, a) for a in sets}
        weight = np.where(dropped, 0.0, n / n.sum(axis=-1, keepdims=True))
    # [set, field, ..., strata] stacks, reduced one stratum at a time: a
    # loop of whole-array adds and ORs beats a reduction over the short
    # strata axis, and each total adds the strata in order from 0.
    terms = np.array([[fields[name] for name in _ENDPOINTS] for fields in strata.values()])
    np.copyto(terms, 0.0, where=dropped)
    terms *= weight
    flags = np.array([[fields[name] for name in _FLAGS] for fields in strata.values()])
    flags &= ~dropped
    totals, anys = np.zeros(terms.shape[:-1]), np.zeros(flags.shape[:-1], dtype=bool)
    for k in range(terms.shape[-1]):
        totals += terms[..., k]
        anys |= flags[..., k]
    aggregate = {
        a: {**dict(zip(_ENDPOINTS, total)), **dict(zip(_FLAGS, flag)), "crossed": total[0] > total[1]}
        for a, total, flag in zip(strata, totals, anys)
    }
    return StratifiedFields(empty, weight, strata, aggregate)


def estimate_stratified(data: Dataset, sets: Iterable[AssumptionSet]) -> StratifiedFields:
    """:func:`stratified_fields` of ``data``'s table: each stratum's bounds and their aggregate, per set.

    A stratum labelled ``None`` is estimated like any other, so the pooled
    estimate is this fit of the one-stratum table.  Raises ``ValueError``
    when every stratum is dropped.
    """
    fit = stratified_fields(data.counts, sets)
    if (fit.empty >= 0).all():
        raise ValueError("every stratum was dropped; no estimable stratum remains")
    return fit

"""Latent joint distributions over potential outcomes and selection states.

A latent joint assigns probability mass to the 16 cells
``(y0, y1, s0, s1) in {0,1}^4``, where ``y0``/``y1`` are the untreated and
treated potential outcomes and ``s0``/``s1`` the potential selection
indicators.  Treatment is assigned independently of the latent vector with
probability ``p_d1``.  The four selection strata are

* OO, always selected: ``(s0, s1) = (1, 1)``
* NO, selected only when treated: ``(0, 1)``
* ON, selected only when untreated: ``(1, 0)``
* NN, never selected: ``(0, 0)``

Cells are indexed canonically as ``index = 8*y0 + 4*y1 + 2*s0 + s1``
(``y0`` is the most significant bit).  Every serialization in this package
uses that order.  The rest of the cell structure is fixed, so it is
built once and kept read-only: ``OBSERVE`` says which count-table column
arm ``d`` shows each cell in, and ``forbidden_cells`` (cached per set)
which cells an assumption set rules out.  What the checks and the forward
map read is derived from them at import, so they add a few named cells
instead of masking all 16: ``operator.itemgetter`` getters for the sums
(``_STRATA`` for the cells of each stratum, and ``_SELECTED_1``,
``_SELECTED_0``, ``_SUCCESS_1`` and ``_FAILURE_0`` for the forward map's
four), the indices ``_ON`` of the cells A3 forbids, and
:func:`cell_index` constants for the single cells (``_CELL_0111``, the
target cell, and ``_CELL_0011``, ``_CELL_1111``, ``_CELL_0101``,
``_CELL_1101``, ``_CELL_1000`` and ``_A4_CELLS``).  The LP oracle and the
simulator read the same tables.

This module provides the model-assumption checks, the target functional,
the forward map to observed moments, one explicit mass assignment per
closed-form bound endpoint (any interior point is a mix of the two), and a
brute-force envelope oracle that recovers the identified set by linear
programming over the cell simplex.  All functions are pure and
deterministic, and the module needs numpy only: the oracle enumerates
the vertices of its one program per assumption set, once, and a call is
one matrix product over them.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    _RATE_TOL,
    AssumptionSet,
    ObservedMoments,
    require_q0,
    restriction_violations,
    trim_ratio,
    trimmed_success_floor,
)
from .estimation import table_position

# Unused here: perfbench/tracer.py looks this name up in this module.
from .bounds import compute_bounds  # noqa: F401

#: All 16 cells in canonical order.
CELL_ORDER: tuple[tuple[int, int, int, int], ...] = tuple(
    (y0, y1, s0, s1) for y0 in (0, 1) for y1 in (0, 1) for s0 in (0, 1) for s1 in (0, 1)
)


def _observe() -> np.ndarray:
    observe = np.zeros((6, 16), dtype=bool)
    for idx, (y0, y1, s0, s1) in enumerate(CELL_ORDER):
        observe[table_position(0, s0, y0), idx] = True
        observe[table_position(1, s1, y1), idx] = True
    observe = observe.reshape(2, 3, 16)
    observe.flags.writeable = False
    return observe


#: ``OBSERVE[d, c, i]`` is 1 when arm ``d`` shows cell ``i`` in column ``c``
#: of the count table (see ``estimation.COUNT_COLUMNS``): a unit reveals
#: ``(s_d, y_d)`` and nothing else.  Read-only.
OBSERVE: np.ndarray = _observe()


def _shown(d: int, s: int, y: int | None) -> np.ndarray:
    """Mask of the cells that arm ``d`` shows as ``(s, y)``."""
    return OBSERVE.reshape(6, 16)[table_position(d, s, y)]


@functools.cache
def forbidden_cells(a: AssumptionSet) -> np.ndarray:
    """Boolean mask of the cells that assumption set ``a`` sets to zero; read-only.

    A3 forbids the ON stratum.  A4 adds ``(y0, y1) = (1, 0)`` in every
    stratum but NN, whose outcomes no arm reveals.  A5 forbids no cell.
    """
    mask = np.array([
        (s0, s1) == (1, 0) or (a.a4 and (y0, y1) == (1, 0) and (s0, s1) != (0, 0))
        for y0, y1, s0, s1 in CELL_ORDER
    ])
    mask.flags.writeable = False
    return mask


def cell_index(y0: int, y1: int, s0: int, s1: int) -> int:
    """Canonical position of cell ``(y0, y1, s0, s1)``."""
    return 8 * y0 + 4 * y1 + 2 * s0 + s1


def _indices(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(np.flatnonzero(mask).tolist())


#: Getters of the cells of each stratum ``(s0, s1)``, in canonical order.
#: Every getter here reads at least 4 cells, so each returns a tuple.
_STRATA = {
    (s0, s1): operator.itemgetter(*(i for i, cell in enumerate(CELL_ORDER) if cell[2:] == (s0, s1)))
    for s0 in (0, 1)
    for s1 in (0, 1)
}
#: Cells of the ON stratum, the ones A3 forbids.
_ON = _indices(forbidden_cells(AssumptionSet.A1_3))
#: Getters of the cells behind the forward map's four sums: selected in
#: arm 1, selected in arm 0, a success in arm 1, and a failure in arm 0.
_SELECTED_1 = operator.itemgetter(*_indices(~_shown(1, 0, None)))
_SELECTED_0 = operator.itemgetter(*_indices(~_shown(0, 0, None)))
_SUCCESS_1 = operator.itemgetter(*_indices(_shown(1, 1, 1)))
_FAILURE_0 = operator.itemgetter(*_indices(_shown(0, 1, 0)))
#: Single cells the checks read: the target cell ``(0, 1, 1, 1)`` and its
#: OO partner with ``y1 = 0`` make up theta's terms, the OO and NO cells
#: with ``y1 = 1`` the A5 rates, and the ``(y0, y1) = (1, 0)`` cells A4.
_CELL_0111 = cell_index(0, 1, 1, 1)
_CELL_0011 = cell_index(0, 0, 1, 1)
_CELL_1111 = cell_index(1, 1, 1, 1)
_CELL_0101 = cell_index(0, 1, 0, 1)
_CELL_1101 = cell_index(1, 1, 0, 1)
_CELL_1000 = cell_index(1, 0, 0, 0)
#: The strata whose ``(1, 0)`` cell A4 forbids, in the order its message
#: lists them, each with that cell.
_A4_CELLS = tuple((stratum, cell_index(1, 0, *stratum)) for stratum in ((1, 1), (0, 1), (1, 0)))


_MASS_TOL = 1e-12
# Dominance comparisons between strata tolerate float dust from products
# of conditionals and stratum masses.
_DOMINANCE_TOL = 1e-12


class Side(enum.Enum):
    """Which endpoint of the identified interval a construction targets."""

    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class LatentJoint:
    """Probability mass function over the 16 latent cells plus treated share.

    ``cells`` holds the 16 masses in canonical order.  Masses must be
    nonnegative and sum to one within 1e-12; ``p_d1`` must lie strictly
    inside (0, 1).  Treatment independence is built into the type: the
    treated share is a separate scalar, never entangled with the cells.
    """

    cells: tuple[float, ...]
    p_d1: float

    def __post_init__(self) -> None:
        cells = self.cells
        if len(cells) != 16:
            raise ValueError(f"expected 16 cell masses, got {len(cells)}")
        for idx, mass in enumerate(cells):
            if not 0.0 <= mass:  # a NaN fails this as a negative does
                raise ValueError(f"cell {CELL_ORDER[idx]} has invalid mass {mass!r}")
        total = math.fsum(cells)
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"cell masses sum to {total!r}, not 1 within {_MASS_TOL}")
        if not 0.0 < self.p_d1 < 1.0:
            raise ValueError(f"p_d1 = {self.p_d1!r} must lie strictly in (0, 1)")

    def stratum_mass(self, s0: int, s1: int) -> float:
        return _total(self.cells, _STRATA[s0, s1])


@dataclass
class AssumptionReport:
    """Outcome of checking the five model assumptions on a latent joint.

    A1 has no field: treatment independence is part of the
    :class:`LatentJoint` type, so it holds by construction.  ``details``
    lists the cells or strata behind any failed or vacuous check.
    """

    holds_a2: bool
    holds_a3: bool
    holds_a4: bool
    holds_a5: bool
    details: list[str] = field(default_factory=list)

    def holds(self, a: AssumptionSet) -> bool:
        """True when A2, A3 and, where ``a`` adds them, A4 and A5 pass (A1 holds by construction)."""
        return self.holds_a2 and self.holds_a3 and (self.holds_a4 or not a.a4) and (self.holds_a5 or not a.a5)


def _total(cells: tuple[float, ...], getter: operator.itemgetter) -> float:
    """Correctly rounded sum of the masses ``getter`` reads."""
    return math.fsum(getter(cells))


def _theta_terms(L: LatentJoint) -> tuple[float, float]:
    """Numerator and denominator of :func:`theta_oo`: the masses of cell (0, 1, 1, 1) and of OO with ``y0 = 0``."""
    cells = L.cells
    target = cells[_CELL_0111]
    return target, cells[_CELL_0011] + target


def check_assumptions(L: LatentJoint) -> AssumptionReport:
    """Check assumptions A1 through A5 on a latent joint, reporting detail.

    A2 requires positive mass of always-selected units with untreated
    outcome zero; the treated share lies inside (0, 1) by construction of
    :class:`LatentJoint`.  A3 requires zero mass on the cells
    ``forbidden_cells(A1_3)`` masks, the ON stratum.  A4 requires zero mass
    on cells with ``(y0, y1) = (1, 0)`` in every stratum except NN;
    never-selected units reveal no outcome under either arm, so the
    monotone-response restriction carries no content there (positive NN
    mass on such cells is noted in ``details``).  A5 compares the
    treated-outcome rate of the OO stratum against the NO stratum and is
    vacuously true when either stratum has zero mass, again noted in
    ``details``.
    """
    cells = L.cells
    details: list[str] = []

    holds_a2 = _theta_terms(L)[1] > 0.0
    if not holds_a2:
        details.append("A2: no mass on always-selected cells with y0=0")

    on_cells = [CELL_ORDER[i][:2] for i in _ON if cells[i] > 0.0]
    holds_a3 = not on_cells
    if on_cells:
        details.append(f"A3: positive mass on ON cells {on_cells}")

    a4_cells = [stratum for stratum, i in _A4_CELLS if cells[i] > 0.0]
    holds_a4 = not a4_cells
    if a4_cells:
        details.append(f"A4: positive mass on (y0,y1)=(1,0) cells in strata {a4_cells}")
    if cells[_CELL_1000] > 0.0:
        details.append("A4: (1,0) mass in the NN stratum ignored (outcomes censored in both arms)")

    mass_oo = _total(cells, _STRATA[1, 1])
    mass_no = _total(cells, _STRATA[0, 1])
    if mass_oo == 0.0 or mass_no == 0.0:
        holds_a5 = True
        details.append("A5: vacuous (OO or NO stratum has zero mass)")
    else:
        p_y1_oo = (cells[_CELL_0111] + cells[_CELL_1111]) / mass_oo
        p_y1_no = (cells[_CELL_0101] + cells[_CELL_1101]) / mass_no
        holds_a5 = p_y1_oo - p_y1_no >= -_DOMINANCE_TOL
        if not holds_a5:
            details.append(f"A5: P[Y1=1 | OO] = {p_y1_oo} < P[Y1=1 | NO] = {p_y1_no}")

    return AssumptionReport(
        holds_a2=holds_a2,
        holds_a3=holds_a3,
        holds_a4=holds_a4,
        holds_a5=holds_a5,
        details=details,
    )


def theta_oo(L: LatentJoint) -> float:
    """Probability of causation within the always-selected stratum.

    Equals ``pi(0,1,1,1) / (pi(0,0,1,1) + pi(0,1,1,1))``: among
    always-selected units whose untreated outcome is zero, the share whose
    treated outcome is one.
    """
    num, den = _theta_terms(L)
    if den <= 0.0:
        raise ValueError(
            "positive-mass assumption (A2) violated: no always-selected units with y0=0"
        )
    return num / den


def observed_from_latent(L: LatentJoint) -> ObservedMoments:
    """Forward map from a latent joint to the four identified probabilities.

    Uses treatment independence: the selection rate in arm ``d`` equals the
    marginal of ``S_d``, and outcome rates among selected units condition
    on the corresponding potential selection indicator.
    """
    cells = L.cells
    p_s1 = _total(cells, _SELECTED_1)
    p_s0 = _total(cells, _SELECTED_0)
    if p_s1 <= 0.0:
        raise ValueError("selection marginal P[S1=1] is zero; treated-arm moments undefined")
    if p_s0 <= 0.0:
        raise ValueError("selection marginal P[S0=1] is zero; control-arm moments undefined")
    p_y1_and_s1 = _total(cells, _SUCCESS_1)
    p_y0zero_and_s0 = _total(cells, _FAILURE_0)
    return ObservedMoments(
        p_y1_s1d1=p_y1_and_s1 / p_s1,
        p_y0_s1d0=p_y0zero_and_s0 / p_s0,
        p_s1_d1=p_s1,
        p_s1_d0=p_s0,
        p_d1=L.p_d1,
    )


# ---------------------------------------------------------------------------
# Bound-attaining mass assignments
# ---------------------------------------------------------------------------

def _checked_rates(m: ObservedMoments, a: AssumptionSet) -> tuple[float, float, float]:
    q0 = require_q0(m)
    violations = restriction_violations(m, a)
    if violations:
        raise ValueError(f"moments inconsistent with {a.value}: {violations[0]}")
    return m.p_y1_s1d1, q0, trim_ratio(m)


def construct_bound_distribution(m: ObservedMoments, a: AssumptionSet, side: Side) -> LatentJoint:
    """Latent joint that attains one endpoint of the identified interval.

    The result satisfies assumption set ``a``, forward-maps back to the
    four identified probabilities of ``m``, and has a probability of
    causation equal to the corresponding closed-form bound.  Strata receive
    masses ``P[OO] = p_s1_d0``, ``P[NO] = p_s1_d1 - p_s1_d0``, ``P[ON] = 0``
    and ``P[NN] = 1 - p_s1_d1``; the NN stratum spreads its mass uniformly
    over its four outcome cells, which no observable quantity depends on.
    ``rate``, the OO stratum's treated-outcome rate at the endpoint, sets
    the OO and NO tables over ``(y0, y1)``, each mass clipped to [0, 1]:
    OO splits it around the untreated failure rate ``q0``, and NO takes
    what is left of ``p1`` (a point mass on (0, 0) when ``alpha == 1``
    leaves NO empty, immaterial for every observable quantity).

    Raises a descriptive ``ValueError`` when the moments violate a
    restriction required by ``a``.
    """
    p1, q0, alpha = _checked_rates(m, a)
    if side is Side.UPPER:
        rate = min(p1 / alpha, 1.0)
    else:
        rate = max(p1 if a.a5 else float(trimmed_success_floor(p1, alpha)), 1.0 - q0 if a.a4 else 0.0)

    if a.a4:
        oo01 = max(rate - (1.0 - q0), 0.0)
        oo11 = 1.0 - q0
        oo10 = 0.0
    else:
        oo01 = min(rate, q0) if side is Side.UPPER else max(rate - (1.0 - q0), 0.0)
        oo11 = rate - oo01
        oo10 = (1.0 - q0) - oo11
    no01 = (p1 - rate * alpha) / (1.0 - alpha) if alpha < 1.0 else 0.0

    # float(): moments given as NumPy scalars still give Python-float cells.
    nn = float(0.25 * (1.0 - m.p_s1_d1))
    weight_no = m.p_s1_d1 - m.p_s1_d0
    cells: list[float] = []
    for oo_mass, no_mass in zip((q0 - oo01, oo01, oo10, oo11), (1.0 - no01, no01, 0.0, 0.0)):
        # min(max(x, 0), 1) is np.clip to the bit, NaN and -0.0 included.
        oo_mass, no_mass = min(max(oo_mass, 0.0), 1.0), min(max(no_mass, 0.0), 1.0)
        # The cells of one (y0, y1), in canonical order: NN, NO, ON, OO.
        cells += (nn, float(no_mass * weight_no), 0.0, float(oo_mass * m.p_s1_d0))
    return LatentJoint(cells=tuple(cells), p_d1=m.p_d1)


def construct_interior_distribution(m: ObservedMoments, a: AssumptionSet, omega: float) -> LatentJoint:
    """Latent joint attaining ``omega * LB + (1 - omega) * UB``: the mix of the two endpoint joints.

    Both endpoint joints of :func:`construct_bound_distribution` put the
    same masses on the strata, and with those pinned every restriction is
    linear in the cells: the forward map's sums, the cells A3 and A4 set
    to zero, and the A5 floor ``P[Y1=1, OO] >= p1 * P[S=1|D=0]``.  So is
    theta, whose denominator is pinned at ``q0 * P[S=1|D=0]``.  The mix
    thus satisfies ``a``, reproduces ``m`` and has theta at the same mix.
    """
    if not 0.0 < omega < 1.0:
        raise ValueError(f"omega = {omega!r} must lie strictly in (0, 1)")
    lower = construct_bound_distribution(m, a, Side.LOWER)
    upper = construct_bound_distribution(m, a, Side.UPPER)
    cells = tuple(float(omega * lo + (1.0 - omega) * hi) for lo, hi in zip(lower.cells, upper.cells))
    return LatentJoint(cells=cells, p_d1=m.p_d1)


# ---------------------------------------------------------------------------
# Brute-force envelope oracle
# ---------------------------------------------------------------------------

def linprog(vertices: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every basic solution of the oracle's program at right-hand side ``b``: ``vertices @ b``.

    The package's one solve.  ``vertices`` is :func:`_vertices` of a set;
    row ``k`` of the result is basis ``k``'s solution over the 16 cells
    (and, under A5, the slack of the A5 floor), zero off the basis.  The
    bases are stacked into one matrix, so this is one 2-D product rather
    than one small product per basis.
    """
    bases, cells, rows = vertices.shape
    return (vertices.reshape(-1, rows) @ b).reshape(bases, cells)


@functools.cache
def _vertices(a: AssumptionSet) -> np.ndarray:
    """The maps from the right-hand side to every basic solution of the oracle's program under ``a``; read-only.

    The program's columns are the cells ``a`` allows and, under A5, one
    slack column; its rows are the five moment rows and, under A5, the
    mass of the OO cells with ``y1 = 1`` less that slack, which the A5
    floor sets.  Every nonsingular choice of as many columns as rows is a
    basis.  Each basis matrix has determinant +-1, so its inverse is an
    integer matrix, stored exactly.  Entry ``[k, i, r]`` maps row ``r`` of
    the right-hand side to cell ``i`` (the slack last) of basis ``k``'s
    solution, zero off the basis.
    """
    selected0 = ~_shown(0, 0, None)
    y1_s1 = _shown(1, 1, 1)
    rows = np.vstack([np.ones(16), ~_shown(1, 0, None), selected0, y1_s1, _shown(0, 1, 0), y1_s1 & selected0])
    columns = np.flatnonzero(~forbidden_cells(a))
    if a.a5:
        rows = np.hstack([rows, -np.eye(6)[:, 5:]])
        columns = np.append(columns, 16)
    else:
        rows = rows[:5]
    n_rows, n_columns = rows.shape
    bases = np.array(list(itertools.combinations(columns, n_rows)))
    matrices = np.swapaxes(rows[:, bases], 0, 1)
    # The determinants are integers, so 0.5 separates the singular bases.
    nonsingular = np.abs(np.linalg.det(matrices)) > 0.5
    bases = bases[nonsingular]
    vertices = np.zeros((len(bases), n_columns, n_rows))
    vertices[np.arange(len(bases))[:, None], bases] = np.rint(np.linalg.inv(matrices[nonsingular]))
    vertices.flags.writeable = False
    return vertices


def sharp_envelope_oracle(m: ObservedMoments, a: AssumptionSet) -> tuple[float, float]:
    """Identified range of the probability of causation by direct optimization.

    Optimizes the target functional over every latent joint that satisfies
    assumption set ``a`` and reproduces the four identified probabilities
    of ``m``.  Moment matching is imposed after clearing denominators, e.g.
    ``P[Y1=1, S1=1] = p1 * P[S1=1]``, which keeps every constraint linear
    in the cell masses.  Under monotone selection the stratum masses are
    pinned, ``P[OO] = P[S=1|D=0]`` and ``P[NO] = P[S=1|D=1] - P[S=1|D=0]``,
    and the ``y1 = 1`` cells of the two strata share ``p1 * P[S=1|D=1]``,
    so the dominance restriction A5 is the floor
    ``P[Y1=1, OO] >= p1 * P[S=1|D=0]`` (Lee's trimming argument).  The
    functional is a ratio of linear functions of the cell masses whose
    denominator is pinned at ``q0 * P[S=1|D=0]`` by the matching
    constraints, so linear programming over the constrained simplex solves
    it (the fractional-program normalization is a constant here).

    A bounded linear program attains its optimum at a basic feasible
    solution, so one set of vertices gives both endpoints exactly.  The
    program's matrix is the same for every call: the five moment rows
    and, under A5, the ``P[Y1=1, OO]`` row with a slack column for its
    floor, over the cells the set allows.  :func:`_vertices` inverts each
    of its bases once per set and keeps the integer inverses read-only.
    A call builds only the right-hand side, the moments and, under A5,
    the floor, and makes one call to :func:`linprog`, a matrix product
    that gives every basic solution.  The endpoints are the least and the
    greatest target cell over the solutions that are nonnegative within
    the 1e-12 that :func:`~pocbounds.bounds.restriction_violations` allows
    a raw success-rate gap, so the oracle refuses exactly the moments that
    predicate flags.  Each endpoint is clipped to [0, 1] as
    :func:`~pocbounds.bounds.compute_bounds` clips its own: a target cell
    kept at that tolerance, say -1e-12, over a denominator as small would
    otherwise read far outside the unit interval.

    Raises ``ValueError`` when ``q0 = 0`` (A2), when the moments violate
    the selection restriction, or when no basic solution is feasible, i.e.
    the moments are inconsistent with the assumption set.
    """
    _checked_rates(m, AssumptionSet.A1_3)
    b = [1.0, m.p_s1_d1, m.p_s1_d0, m.p_y1_s1d1 * m.p_s1_d1, m.p_y0_s1d0 * m.p_s1_d0]
    if a.a5:
        # A5 with the OO and NO masses pinned by the selection moments.
        b.append(m.p_y1_s1d1 * m.p_s1_d0)
    solutions = linprog(_vertices(a), np.array(b))
    target = solutions[(solutions >= -_RATE_TOL).all(axis=1), _CELL_0111]
    if not target.size:
        raise ValueError(f"moments inconsistent with assumption set {a.value}: no basic solution is feasible")
    denominator = m.p_y0_s1d0 * m.p_s1_d0
    lo, hi = float(target.min() / denominator), float(target.max() / denominator)
    return min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0)

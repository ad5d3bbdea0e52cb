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
uses that order.

This module provides the model-assumption checks, the target functional,
the forward map to observed moments, explicit mass assignments attaining
each closed-form bound endpoint (and any interior point), and a
brute-force envelope oracle that recovers the identified set by linear
programming over the cell simplex.  All functions are pure and
deterministic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .bounds import (
    AssumptionSet,
    ObservedMoments,
    clip_unit,
    compute_bounds,
    require_q0,
    restriction_violations,
    trim_ratio,
    trimmed_success_floor,
)

#: All 16 cells in canonical order.
CELL_ORDER: tuple[tuple[int, int, int, int], ...] = tuple(
    (y0, y1, s0, s1) for y0 in (0, 1) for y1 in (0, 1) for s0 in (0, 1) for s1 in (0, 1)
)

_MASS_TOL = 1e-12
# Dominance comparisons between strata tolerate float dust from products
# of conditionals and stratum masses.
_DOMINANCE_TOL = 1e-12


def cell_index(y0: int, y1: int, s0: int, s1: int) -> int:
    """Canonical position of cell ``(y0, y1, s0, s1)``."""
    return 8 * y0 + 4 * y1 + 2 * s0 + s1


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
        if len(self.cells) != 16:
            raise ValueError(f"expected 16 cell masses, got {len(self.cells)}")
        for idx, mass in enumerate(self.cells):
            if math.isnan(mass) or mass < 0.0:
                raise ValueError(f"cell {CELL_ORDER[idx]} has invalid mass {mass!r}")
        total = math.fsum(self.cells)
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"cell masses sum to {total!r}, not 1 within {_MASS_TOL}")
        if not 0.0 < self.p_d1 < 1.0:
            raise ValueError(f"p_d1 = {self.p_d1!r} must lie strictly in (0, 1)")

    @classmethod
    def from_dict(cls, pi: dict[tuple[int, int, int, int], float], p_d1: float) -> "LatentJoint":
        return cls(cells=tuple(pi.get(cell, 0.0) for cell in CELL_ORDER), p_d1=p_d1)

    def mass(self, y0: int, y1: int, s0: int, s1: int) -> float:
        return self.cells[cell_index(y0, y1, s0, s1)]

    def stratum_mass(self, s0: int, s1: int) -> float:
        return math.fsum(self.cells[cell_index(y0, y1, s0, s1)] for y0 in (0, 1) for y1 in (0, 1))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.cells, dtype=float)

    def to_fixture_line(self) -> str:
        """Serialize as one whitespace-separated text record.

        The 16 cell masses appear in canonical order followed by ``p_d1``,
        each with 17 significant digits so parsing recovers the exact
        float64 values.
        """
        values = list(self.cells) + [self.p_d1]
        return " ".join(format(v, ".16e") for v in values)

    @classmethod
    def from_fixture_line(cls, line: str) -> "LatentJoint":
        parts = line.split()
        if len(parts) != 17:
            raise ValueError(f"fixture record must have 17 fields, got {len(parts)}")
        values = [float(p) for p in parts]
        return cls(cells=tuple(values[:16]), p_d1=values[16])


@dataclass
class AssumptionReport:
    """Outcome of checking the five model assumptions on a latent joint.

    ``holds_a1`` is true by construction (treatment independence is part of
    the :class:`LatentJoint` type).  ``details`` lists the cells or strata
    behind any failed or vacuous check.
    """

    holds_a1: bool
    holds_a2: bool
    holds_a3: bool
    holds_a4: bool
    holds_a5: bool
    details: list[str] = field(default_factory=list)

    def holds(self, a: AssumptionSet) -> bool:
        """True when every assumption in bundle ``a`` passes."""
        base = self.holds_a1 and self.holds_a2 and self.holds_a3
        if a is AssumptionSet.A1_3:
            return base
        if a is AssumptionSet.A1_4:
            return base and self.holds_a4
        return base and self.holds_a4 and self.holds_a5


def check_assumptions(L: LatentJoint) -> AssumptionReport:
    """Check assumptions A1 through A5 on a latent joint, reporting detail.

    A2 requires a treated share inside (0, 1) and positive mass of
    always-selected units with untreated outcome zero.  A3 requires zero
    mass on the ON stratum.  A4 requires zero mass on cells with
    ``(y0, y1) = (1, 0)`` in every stratum except NN; never-selected units
    reveal no outcome under either arm, so the monotone-response
    restriction carries no content there (positive NN mass on such cells
    is noted in ``details``).  A5 compares the treated-outcome rate of the
    OO stratum against the NO stratum and is vacuously true when either
    stratum has zero mass, again noted in ``details``.
    """
    details: list[str] = []

    holds_a2 = 0.0 < L.p_d1 < 1.0 and (L.mass(0, 0, 1, 1) + L.mass(0, 1, 1, 1)) > 0.0
    if not holds_a2:
        details.append("A2: no mass on always-selected cells with y0=0")

    on_cells = [(y0, y1) for y0 in (0, 1) for y1 in (0, 1) if L.mass(y0, y1, 1, 0) > 0.0]
    holds_a3 = not on_cells
    if on_cells:
        details.append(f"A3: positive mass on ON cells {on_cells}")

    a4_cells = [
        (s0, s1)
        for (s0, s1) in ((1, 1), (0, 1), (1, 0))
        if L.mass(1, 0, s0, s1) > 0.0
    ]
    holds_a4 = not a4_cells
    if a4_cells:
        details.append(f"A4: positive mass on (y0,y1)=(1,0) cells in strata {a4_cells}")
    if L.mass(1, 0, 0, 0) > 0.0:
        details.append("A4: (1,0) mass in the NN stratum ignored (outcomes censored in both arms)")

    mass_oo = L.stratum_mass(1, 1)
    mass_no = L.stratum_mass(0, 1)
    if mass_oo == 0.0 or mass_no == 0.0:
        holds_a5 = True
        details.append("A5: vacuous (OO or NO stratum has zero mass)")
    else:
        p_y1_oo = (L.mass(0, 1, 1, 1) + L.mass(1, 1, 1, 1)) / mass_oo
        p_y1_no = (L.mass(0, 1, 0, 1) + L.mass(1, 1, 0, 1)) / mass_no
        holds_a5 = p_y1_oo - p_y1_no >= -_DOMINANCE_TOL
        if not holds_a5:
            details.append(f"A5: P[Y1=1 | OO] = {p_y1_oo} < P[Y1=1 | NO] = {p_y1_no}")

    return AssumptionReport(
        holds_a1=True,
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
    num = L.mass(0, 1, 1, 1)
    den = L.mass(0, 0, 1, 1) + L.mass(0, 1, 1, 1)
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
    p_s1 = math.fsum(L.cells[cell_index(y0, y1, s0, 1)] for y0 in (0, 1) for y1 in (0, 1) for s0 in (0, 1))
    p_s0 = math.fsum(L.cells[cell_index(y0, y1, 1, s1)] for y0 in (0, 1) for y1 in (0, 1) for s1 in (0, 1))
    if p_s1 <= 0.0:
        raise ValueError("selection marginal P[S1=1] is zero; treated-arm moments undefined")
    if p_s0 <= 0.0:
        raise ValueError("selection marginal P[S0=1] is zero; control-arm moments undefined")
    p_y1_and_s1 = math.fsum(L.cells[cell_index(y0, 1, s0, 1)] for y0 in (0, 1) for s0 in (0, 1))
    p_y0zero_and_s0 = math.fsum(L.cells[cell_index(0, y1, 1, s1)] for y1 in (0, 1) for s1 in (0, 1))
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


def _conditional_tables(
    p1: float, q0: float, alpha: float, a: AssumptionSet, side: Side
) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    """Conditional (y0, y1) tables for the OO and NO strata.

    These are the explicit assignments that attain the interval endpoints
    while reproducing the observed moments.  Both follow from ``rate``,
    the OO stratum's treated-outcome rate at the endpoint: the OO table
    splits it around the untreated failure rate ``q0``, and the NO
    stratum takes what is left of ``p1``.  When ``alpha == 1`` the NO
    stratum has zero mass and its table is fixed to a point mass on
    (0, 0), which is immaterial for every observable quantity.
    """
    if side is Side.UPPER:
        rate = min(p1 / alpha, 1.0)
    elif a is AssumptionSet.A1_3:
        rate = max(trimmed_success_floor(p1, alpha), 0.0)
    elif a is AssumptionSet.A1_4:
        rate = max(trimmed_success_floor(p1, alpha), 1.0 - q0)
    else:
        rate = max(p1, 1.0 - q0)

    if a is AssumptionSet.A1_3 and side is Side.UPPER:
        oo01 = min(rate, q0)
    else:
        oo01 = max(rate - (1.0 - q0), 0.0)
    if a is AssumptionSet.A1_3:
        oo11 = rate - oo01
        oo10 = (1.0 - q0) - oo11
    else:
        oo11 = 1.0 - q0
        oo10 = 0.0
    no01 = (p1 - rate * alpha) / (1.0 - alpha) if alpha < 1.0 else 0.0

    oo = {
        (0, 1): clip_unit(oo01),
        (1, 1): clip_unit(oo11),
        (0, 0): clip_unit(q0 - oo01),
        (1, 0): clip_unit(oo10),
    }
    no01 = clip_unit(no01)
    no = {(0, 1): no01, (1, 1): 0.0, (0, 0): 1.0 - no01, (1, 0): 0.0}
    return oo, no


def _assemble_joint(
    m: ObservedMoments,
    oo: dict[tuple[int, int], float],
    no: dict[tuple[int, int], float],
) -> LatentJoint:
    mass_oo = m.p_s1_d0
    mass_no = m.p_s1_d1 - m.p_s1_d0
    mass_nn = 1.0 - m.p_s1_d1
    pi: dict[tuple[int, int, int, int], float] = {}
    for y0 in (0, 1):
        for y1 in (0, 1):
            pi[(y0, y1, 1, 1)] = oo[(y0, y1)] * mass_oo
            pi[(y0, y1, 0, 1)] = no[(y0, y1)] * mass_no
            pi[(y0, y1, 1, 0)] = 0.0
            pi[(y0, y1, 0, 0)] = 0.25 * mass_nn
    return LatentJoint.from_dict(pi, p_d1=m.p_d1)


def construct_bound_distribution(m: ObservedMoments, a: AssumptionSet, side: Side) -> LatentJoint:
    """Latent joint that attains one endpoint of the identified interval.

    The result satisfies assumption set ``a``, forward-maps back to the
    four identified probabilities of ``m``, and has a probability of
    causation equal to the corresponding closed-form bound.  Strata receive
    masses ``P[OO] = p_s1_d0``, ``P[NO] = p_s1_d1 - p_s1_d0``, ``P[ON] = 0``
    and ``P[NN] = 1 - p_s1_d1``; the NN stratum spreads its mass uniformly
    over its four outcome cells, which no observable quantity depends on.

    Raises a descriptive ``ValueError`` when the moments violate a
    restriction required by ``a``.
    """
    p1, q0, alpha = _checked_rates(m, a)
    oo, no = _conditional_tables(p1, q0, alpha, a, side)
    return _assemble_joint(m, oo, no)


def construct_interior_distribution(m: ObservedMoments, a: AssumptionSet, omega: float) -> LatentJoint:
    """Latent joint attaining ``omega * LB + (1 - omega) * UB``.

    Cell-wise convex combination of the two endpoint assignments.  Both
    endpoints share the same stratum masses, so the combination keeps the
    forward map intact, and the target functional is linear in the OO
    cells with a denominator pinned at ``q0``, so it lands exactly at the
    convex combination of the bounds.
    """
    if not 0.0 < omega < 1.0:
        raise ValueError(f"omega = {omega!r} must lie strictly in (0, 1)")
    p1, q0, alpha = _checked_rates(m, a)
    oo_lo, no_lo = _conditional_tables(p1, q0, alpha, a, Side.LOWER)
    oo_hi, no_hi = _conditional_tables(p1, q0, alpha, a, Side.UPPER)
    oo = {k: omega * oo_lo[k] + (1.0 - omega) * oo_hi[k] for k in oo_lo}
    no = {k: omega * no_lo[k] + (1.0 - omega) * no_hi[k] for k in no_lo}
    return _assemble_joint(m, oo, no)


# ---------------------------------------------------------------------------
# Brute-force envelope oracle
# ---------------------------------------------------------------------------

def _zero_cells(a: AssumptionSet) -> list[int]:
    zeros = [cell_index(y0, y1, 1, 0) for y0 in (0, 1) for y1 in (0, 1)]
    if a is not AssumptionSet.A1_3:
        zeros.append(cell_index(1, 0, 1, 1))
        zeros.append(cell_index(1, 0, 0, 1))
    return zeros


def _constraint_system(m: ObservedMoments, a: AssumptionSet):
    """Equalities, optional dominance inequality, and forced-zero cells.

    Moment matching is imposed after clearing denominators, e.g.
    ``P[Y1=1, S1=1] = p1 * P[S1=1]``, which keeps every constraint linear
    in the 16 cell masses.  Under monotone selection the stratum masses of
    OO and NO are pinned by the selection moments, so the dominance
    restriction also becomes linear with constant coefficients.
    """
    n = 16
    ind_s1 = np.zeros(n)
    ind_s0 = np.zeros(n)
    ind_y1s1 = np.zeros(n)
    ind_y0zero_s0 = np.zeros(n)
    for idx, (y0, y1, s0, s1) in enumerate(CELL_ORDER):
        if s1 == 1:
            ind_s1[idx] = 1.0
            if y1 == 1:
                ind_y1s1[idx] = 1.0
        if s0 == 1:
            ind_s0[idx] = 1.0
            if y0 == 0:
                ind_y0zero_s0[idx] = 1.0

    a_eq = [np.ones(n), ind_s1, ind_s0, ind_y1s1, ind_y0zero_s0]
    b_eq = [
        1.0,
        m.p_s1_d1,
        m.p_s1_d0,
        m.p_y1_s1d1 * m.p_s1_d1,
        m.p_y0_s1d0 * m.p_s1_d0,
    ]

    dominance = None
    mass_no = m.p_s1_d1 - m.p_s1_d0
    if a is AssumptionSet.A1_5 and mass_no > 0.0:
        # P[Y1=1, OO] / P[OO] >= P[Y1=1, NO] / P[NO] with both stratum
        # masses fixed by the selection moments.
        row = np.zeros(n)
        for idx, (y0, y1, s0, s1) in enumerate(CELL_ORDER):
            if y1 == 1 and s1 == 1:
                if s0 == 1:
                    row[idx] = mass_no
                else:
                    row[idx] = -m.p_s1_d0
        dominance = row

    return np.vstack(a_eq), np.asarray(b_eq), dominance, _zero_cells(a)


def _lp_envelope(m: ObservedMoments, a: AssumptionSet) -> tuple[float, float]:
    a_eq, b_eq, dominance, zeros = _constraint_system(m, a)
    var_bounds = [(0.0, 0.0) if i in set(zeros) else (0.0, 1.0) for i in range(16)]
    a_ub = b_ub = None
    if dominance is not None:
        a_ub = -dominance[np.newaxis, :]
        b_ub = np.zeros(1)

    target = np.zeros(16)
    target[cell_index(0, 1, 1, 1)] = 1.0
    denominator = m.p_y0_s1d0 * m.p_s1_d0

    values = []
    for sign in (1.0, -1.0):
        res = linprog(
            sign * target,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=var_bounds,
            method="highs",
        )
        if not res.success:
            raise ValueError(
                f"moments inconsistent with assumption set {a.value}: {res.message}"
            )
        values.append(sign * res.fun)
    return values[0] / denominator, values[1] / denominator


def sharp_envelope_oracle(m: ObservedMoments, a: AssumptionSet) -> tuple[float, float]:
    """Identified range of the probability of causation by direct optimization.

    Optimizes the target functional over every latent joint that satisfies
    assumption set ``a`` and reproduces the four identified probabilities
    of ``m``.  The functional is a ratio of linear functions of the cell
    masses whose denominator is pinned at ``q0 * P[S=1|D=0]`` by the
    matching constraints, so two linear programs over the constrained
    simplex solve it (the fractional-program normalization is a constant
    here).

    Raises ``ValueError`` when the constraint system is infeasible, i.e.
    the moments are inconsistent with the assumption set.
    """
    if m.p_y0_s1d0 <= 0.0:
        raise ValueError("positive-mass assumption (A2) violated: P[Y=0 | S=1, D=0] = 0")
    if trim_ratio(m) > 1.0:
        raise ValueError("selection restriction violated: trim ratio exceeds one")
    return _lp_envelope(m, a)


def envelope_matches_bounds(
    m: ObservedMoments, a: AssumptionSet, tol: float = 1e-6
) -> bool:
    """Convenience check that the oracle and the closed forms agree."""
    lo, hi = sharp_envelope_oracle(m, a)
    interval = compute_bounds(m, a)
    return abs(lo - interval.lb) <= tol and abs(hi - interval.ub) <= tol

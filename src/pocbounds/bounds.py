"""Closed-form partial-identification bounds on the probability of causation.

The target parameter is the share of units whose treated potential outcome
equals one among always-selected units whose untreated potential outcome
equals zero.  With a binary outcome observed only for selected units, this
share is not point-identified.  It is bounded by functionals of four
identified conditional probabilities, under assumption bundles that hold
A1-A3 and add A4 and A5 by the flags ``a4`` and ``a5`` of
:class:`AssumptionSet`.  A bundle is nested in another when it holds every
flag the other does; :data:`ASSUMPTION_ORDER` is the paper's chain of three:

* ``A1_3``: random assignment (A1), positive mass of the relevant latent
  subpopulation (A2), and monotone selection (A3, treatment never removes
  a unit from the sample).
* ``A1_4``: adds monotone treatment response (A4, treatment never flips
  the latent outcome from one to zero).  Its flag ``a4`` lowers the upper
  bound from UB1 to UB2, adds the outcome restriction and, in
  :mod:`pocbounds.latent`, forbids the ``(y0, y1) = (1, 0)`` cells.
* ``A1_5``: adds stochastic dominance of always-selected units over units
  selected only under treatment (A5).  Its flag ``a5`` raises the lower
  bound from LB1 to LB3 and adds the oracle's ``P[Y1=1, OO]`` floor row.

Writing ``p1 = P[Y=1 | S=1, D=1]``, ``q0 = P[Y=0 | S=1, D=0]`` and
``alpha = P[S=1 | D=0] / P[S=1 | D=1]``, the interval endpoints are

* ``LB1 = LB2 = max{ (((p1 - (1 - alpha)) / alpha) + q0 - 1) / q0, 0 }``
* ``UB1 = min{ (p1 / alpha) / q0, 1 }``
* ``UB2 = UB3 = min{ ((p1 / alpha) + q0 - 1) / q0, 1 }``
* ``LB3 = max{ (p1 + q0 - 1) / q0, 0 }``

The model also restricts the data.  Every bundle implies the selection
restriction ``P[S=1|D=1] >= P[S=1|D=0]``; under A4 the outcome restriction
``P[Y=1|D=1] >= P[Y=1|D=0]`` holds for raw success rates, which count an
unselected unit as ``Y = 0``.  Equality is consistent with the model.
:func:`restriction_violations` is the one encoding of both: the CLI's
in-sample warnings and the attaining constructions in
:mod:`pocbounds.latent` call it.  ``BoundsInterval.restriction_violated``
does not: :func:`bound_fields` sets it from the selection restriction
alone, with the same exact comparison.

The formulas are written once, elementwise, in :func:`bound_fields`, so
one call bounds a whole stack of moment vectors; :func:`compute_bounds`
applies it to one, whose Python floats the clip into [0, 1] takes without
NumPy's per-call dispatch and to the same bits.

Everything here is a pure function of its inputs; all operations are safe
to call concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class AssumptionSet(enum.Enum):
    """Assumption bundles, nested in the partial order of their flags.

    Every bundle holds A1-A3; ``a4`` and ``a5`` say whether it adds A4 and
    A5.  The member's value is its token.
    """

    A1_3 = ("A1_3", False, False)
    A1_4 = ("A1_4", True, False)
    A1_5 = ("A1_5", True, True)

    def __new__(cls, token: str, a4: bool, a5: bool) -> "AssumptionSet":
        member = object.__new__(cls)
        member._value_, member.a4, member.a5 = token, a4, a5
        return member

    @classmethod
    def parse(cls, token: str) -> "AssumptionSet":
        try:
            return cls(token.strip().upper())
        except ValueError:
            valid = ", ".join(a.value for a in cls)
            raise ValueError(f"unknown assumption set {token!r}; expected one of {valid}")


#: The paper's chain of bundles, weakest first: the sets a run reports by default.
ASSUMPTION_ORDER = (AssumptionSet.A1_3, AssumptionSet.A1_4, AssumptionSet.A1_5)


def _check_probability(name: str, value: float) -> None:
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} = {value!r} is not a probability in [0, 1]")


@dataclass(frozen=True)
class ObservedMoments:
    """Identified conditional probabilities consumed by the bound formulas.

    Attributes
    ----------
    p_y1_s1d1 : float
        P[Y=1 | S=1, D=1], success rate among selected treated units.
    p_y0_s1d0 : float
        P[Y=0 | S=1, D=0], failure rate among selected control units.
    p_s1_d1 : float
        P[S=1 | D=1], selection rate in the treated arm.  Must be positive.
    p_s1_d0 : float
        P[S=1 | D=0], selection rate in the control arm.  Must be positive.
    p_d1 : float
        P[D=1], treated share.  Carried for data checks only; the bound
        formulas never use it.
    """

    p_y1_s1d1: float
    p_y0_s1d0: float
    p_s1_d1: float
    p_s1_d0: float
    p_d1: float = 0.5

    def __post_init__(self) -> None:
        _check_probability("p_y1_s1d1", self.p_y1_s1d1)
        _check_probability("p_y0_s1d0", self.p_y0_s1d0)
        _check_probability("p_s1_d1", self.p_s1_d1)
        _check_probability("p_s1_d0", self.p_s1_d0)
        _check_probability("p_d1", self.p_d1)
        if self.p_s1_d1 <= 0.0:
            raise ValueError("p_s1_d1 must be positive: no selected units in treated arm")
        if self.p_s1_d0 <= 0.0:
            raise ValueError("p_s1_d0 must be positive: no selected units in control arm")


@dataclass(frozen=True)
class BoundsInterval:
    """One identified interval [lb, ub] together with clipping diagnostics.

    ``lb`` and ``ub`` are always clipped into [0, 1]; the unclipped values
    are retained in ``lb_raw`` / ``ub_raw`` so tests and oracles can reason
    about the raw formulas.  ``restriction_violated`` is set when the
    moments violate the selection restriction (see
    :func:`restriction_violations`), in which case the formulas are still
    evaluated as written.  ``crossed`` is set when clipping leaves
    ``lb > ub``; the endpoints are reported as computed, never swapped,
    because a crossed interval is evidence against the model.
    """

    lb: float
    ub: float
    assumption_set: AssumptionSet
    lb_clipped: bool
    ub_clipped: bool
    lb_raw: float
    ub_raw: float
    restriction_violated: bool = False
    crossed: bool = False


def trim_ratio(m: ObservedMoments) -> float:
    """Ratio of control-arm to treated-arm selection rates.

    Under random assignment and monotone selection this ratio identifies
    the share of always-selected units among selected treated units.  A
    value above one is a violation of the selection restriction and is
    flagged downstream rather than clamped here.
    """
    return m.p_s1_d0 / m.p_s1_d1


# Raw success rates are products of two rates, so rates that are equal
# as count ratios can differ by float dust.
_RATE_TOL = 1e-12


def _selection_violated(m: ObservedMoments) -> bool:
    return m.p_s1_d1 < m.p_s1_d0


def restriction_violations(m: ObservedMoments, a: AssumptionSet) -> list[str]:
    """The observable restrictions of bundle ``a`` that ``m`` violates, as messages.

    Every bundle implies the selection restriction P[S=1|D=1] >= P[S=1|D=0],
    compared exactly.  Bundles with A4 also imply the outcome restriction
    P[Y=1|D=1] >= P[Y=1|D=0] on raw success rates ``p1 * P[S=1|D=1]`` and
    ``(1 - q0) * P[S=1|D=0]``, where a gap within 1e-12 counts as equality.
    Equality is consistent with the model.  An empty list means ``m``
    violates neither.
    """
    violations = []
    if _selection_violated(m):
        violations.append("P[S=1|D=1] < P[S=1|D=0] (selection restriction)")
    if a.a4:
        treated = m.p_y1_s1d1 * m.p_s1_d1
        control = (1 - m.p_y0_s1d0) * m.p_s1_d0
        if control - treated > _RATE_TOL:
            violations.append("P[Y=1|D=1] < P[Y=1|D=0] (outcome restriction)")
    return violations


def require_q0(m: ObservedMoments) -> float:
    """``q0 = P[Y=0 | S=1, D=0]``, which the positive-mass assumption A2 needs positive."""
    q0 = m.p_y0_s1d0
    if q0 <= 0.0:
        raise ValueError(
            "positive-mass assumption (A2) violated: P[Y=0 | S=1, D=0] = 0, "
            "so the data do not exclude an empty target subpopulation"
        )
    return q0


def trimmed_success_floor(p1, alpha):
    """Trimming lower bound on P[Y1=1 | always-selected]: (p1 - (1 - alpha)) / alpha.

    Elementwise over arrays.  The true value never exceeds ``p1``; the
    minimum only absorbs one ulp of rounding when ``alpha`` sits next to 1,
    keeping the nested-interval ordering exact in floating point.
    """
    return np.minimum((p1 - (1 - alpha)) / alpha, p1)


def _unit_clip(x):
    """``np.clip(x, 0.0, 1.0)`` to the bit; a scalar skips NumPy's dispatch.

    ``max`` and ``min`` return their first argument unless the second
    compares strictly past it, so a NaN or a -0.0 passes through as it does
    through ``np.clip``.
    """
    if isinstance(x, np.ndarray):
        return np.clip(x, 0.0, 1.0)
    return min(max(x, 0.0), 1.0)


def bound_fields(m: ObservedMoments, a: AssumptionSet) -> dict[str, np.ndarray]:
    """The fields of :func:`compute_bounds` but ``assumption_set``, elementwise over ``m``'s arrays or scalars.

    ``a`` picks ``LB1 = LB2`` or ``LB3`` and ``UB1`` or ``UB2 = UB3``.  Where
    ``q0 = 0`` the endpoints are infinite or NaN; callers refuse or mask them.
    """
    q0 = m.p_y0_s1d0
    alpha = trim_ratio(m)
    p1 = m.p_y1_s1d1
    # x + q0 - 1 is written as x - (1 - q0) so the q0 = 1 boundary does
    # not pick up a one-ulp +1/-1 round trip.
    if a.a5:
        lb_raw = (p1 - (1 - q0)) / q0
    else:
        lb_raw = (trimmed_success_floor(p1, alpha) - (1 - q0)) / q0
    if a.a4:
        ub_raw = (p1 / alpha - (1 - q0)) / q0
    else:
        ub_raw = (p1 / alpha) / q0
    lb, ub = _unit_clip(lb_raw), _unit_clip(ub_raw)
    return dict(
        lb=lb, ub=ub, lb_raw=lb_raw, ub_raw=ub_raw, lb_clipped=lb != lb_raw, ub_clipped=ub != ub_raw,
        restriction_violated=_selection_violated(m), crossed=lb > ub,
    )


def compute_bounds(m: ObservedMoments, a: AssumptionSet) -> BoundsInterval:
    """Sharp bounds on the probability of causation under assumption set ``a``.

    :func:`bound_fields` of the one moment vector ``m``, as Python scalars.
    """
    require_q0(m)
    fields = bound_fields(m, a)
    return BoundsInterval(
        assumption_set=a,
        **{k: float(fields[k]) for k in ("lb", "ub", "lb_raw", "ub_raw")},
        **{k: bool(fields[k]) for k in ("lb_clipped", "ub_clipped", "restriction_violated", "crossed")},
    )

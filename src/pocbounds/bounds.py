"""Closed-form partial-identification bounds on the probability of causation.

The target parameter is the share of units whose treated potential outcome
equals one among always-selected units whose untreated potential outcome
equals zero.  With a binary outcome observed only for selected units, this
share is not point-identified.  It is bounded by functionals of four
identified conditional probabilities, under three nested assumption
bundles:

* ``A1_3``: random assignment (A1), positive mass of the relevant latent
  subpopulation (A2), and monotone selection (A3, treatment never removes
  a unit from the sample).
* ``A1_4``: adds monotone treatment response (A4, treatment never flips
  the latent outcome from one to zero), which lowers the upper bound.
* ``A1_5``: adds stochastic dominance of always-selected units over units
  selected only under treatment (A5), which raises the lower bound.

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
in-sample warnings, the attaining constructions in :mod:`pocbounds.latent`
and ``BoundsInterval.restriction_violated`` all call it.

Everything here is a pure function of its inputs; all operations are safe
to call concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class AssumptionSet(enum.Enum):
    """Nested assumption bundles, ordered from weakest to strongest."""

    A1_3 = "A1_3"
    A1_4 = "A1_4"
    A1_5 = "A1_5"

    @classmethod
    def parse(cls, token: str) -> "AssumptionSet":
        try:
            return cls(token.strip().upper())
        except ValueError:
            valid = ", ".join(a.value for a in cls)
            raise ValueError(f"unknown assumption set {token!r}; expected one of {valid}")


#: Canonical display/legend order of the assumption sets.
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

    @property
    def width(self) -> float:
        return self.ub - self.lb

    def contains(self, theta: float, tol: float = 0.0) -> bool:
        """True when ``theta`` lies in the closed interval, within ``tol``."""
        return self.lb - tol <= theta <= self.ub + tol


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
    if m.p_s1_d1 < m.p_s1_d0:
        violations.append("P[S=1|D=1] < P[S=1|D=0] (selection restriction)")
    if a is not AssumptionSet.A1_3:
        treated = m.p_y1_s1d1 * m.p_s1_d1
        control = (1.0 - m.p_y0_s1d0) * m.p_s1_d0
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


def clip_unit(x: float) -> float:
    """``x`` clipped into [0, 1]."""
    return min(max(x, 0.0), 1.0)


def trimmed_success_floor(p1: float, alpha: float) -> float:
    """Trimming lower bound on P[Y1=1 | always-selected]: (p1 - (1 - alpha)) / alpha.

    The true value never exceeds ``p1``; the ``min`` only absorbs one ulp
    of rounding when ``alpha`` sits next to 1, keeping the nested-interval
    ordering exact in floating point.
    """
    return min((p1 - (1.0 - alpha)) / alpha, p1)


def compute_bounds(m: ObservedMoments, a: AssumptionSet) -> BoundsInterval:
    """Sharp bounds on the probability of causation under assumption set ``a``.

    The four raw endpoints of the module docstring are computed once; ``a``
    picks ``LB1 = LB2`` or ``LB3`` and ``UB1`` or ``UB2 = UB3``.
    """
    q0 = require_q0(m)
    alpha = trim_ratio(m)
    p1 = m.p_y1_s1d1
    # x + q0 - 1 is written as x - (1 - q0) so the q0 = 1 boundary does
    # not pick up a one-ulp +1/-1 round trip.
    lb1 = (trimmed_success_floor(p1, alpha) - (1.0 - q0)) / q0
    ub1 = (p1 / alpha) / q0
    ub2 = (p1 / alpha - (1.0 - q0)) / q0
    lb3 = (p1 - (1.0 - q0)) / q0
    lb_raw = lb3 if a is AssumptionSet.A1_5 else lb1
    ub_raw = ub1 if a is AssumptionSet.A1_3 else ub2
    lb = clip_unit(lb_raw)
    ub = clip_unit(ub_raw)
    return BoundsInterval(
        lb=lb,
        ub=ub,
        assumption_set=a,
        lb_clipped=lb != lb_raw,
        ub_clipped=ub != ub_raw,
        lb_raw=lb_raw,
        ub_raw=ub_raw,
        restriction_violated=bool(restriction_violations(m, AssumptionSet.A1_3)),
        crossed=lb > ub,
    )

"""One-sided restriction tests and bootstrap confidence intervals.

The model implies observable restrictions: the treated arm's selection
rate cannot fall below the control arm's, and (under monotone treatment
response) neither can the treated arm's raw success rate, where the raw
rate counts missing outcomes as zero.  Each restriction is tested with a
one-sided two-sample proportion z statistic using unpooled variances.

Direction convention: the statistic is ``(treated rate - control rate)``
divided by its standard error, and the reported p-value is the lower-tail
normal probability of the statistic.  Small p-values therefore mean the
observed difference runs in the direction the model rules out; testing at
level 5% rejects the model when p < 0.05.  The two restrictions are tested
as separate nulls with no multiplicity correction.

Bootstrap confidence intervals are percentile intervals per interval
endpoint, computed from resamples of the records with replacement (within
strata, preserving stratum sizes, when ``stratified`` is set).  Replicate
``r`` uses a dedicated substream spawned from ``(seed, r)``, so results do
not depend on evaluation order or parallelism.  Resampling is realized by
multinomial draws over the cell counts, which is the exact distribution of
record resampling aggregated to the sufficient statistics the estimators
consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.stats import norm

from .bounds import AssumptionSet, BoundsInterval, compute_bounds
from .estimation import (
    Dataset,
    cell_counts,
    moments_from_counts,
    stratified_from_counts,
    stratum_cell_counts,
)

#: Direction note embedded in reports.
DIRECTION_NOTE = (
    "statistic = (treated - control) difference over its unpooled standard error; "
    "p-value = lower normal tail, small when the difference is negative, "
    "the direction the model forbids"
)


class TestOutcome(NamedTuple):
    stat: float
    p_value: float
    degenerate: bool = False


@dataclass(frozen=True)
class RestrictionTestResult:
    """One-sided tests of the model's observable restrictions.

    ``outcome_test`` is absent under ``A1_3``, where only the selection
    restriction is implied.
    """

    selection_test: TestOutcome
    outcome_test: TestOutcome | None
    assumption_set: AssumptionSet


def one_sided_nonnegative_test(k1: int, n1: int, k0: int, n0: int) -> TestOutcome:
    """z test of a nonnegative difference in proportions, lower-tail p-value.

    With a degenerate (zero-variance) pair of arms the p-value is exact:
    0 when the observed difference is negative, 1 otherwise.
    """
    if n1 == 0 or n0 == 0:
        raise ValueError("both arms must be nonempty")
    p1 = k1 / n1
    p0 = k0 / n0
    diff = p1 - p0
    var = p1 * (1.0 - p1) / n1 + p0 * (1.0 - p0) / n0
    if var == 0.0:
        if diff < 0.0:
            return TestOutcome(stat=-np.inf, p_value=0.0, degenerate=True)
        stat = np.inf if diff > 0.0 else 0.0
        return TestOutcome(stat=stat, p_value=1.0, degenerate=True)
    stat = diff / np.sqrt(var)
    return TestOutcome(stat=float(stat), p_value=float(norm.cdf(stat)))


def restriction_tests_from_counts(counts: np.ndarray, a: AssumptionSet) -> RestrictionTestResult:
    """Restriction tests from a 2x3 count table (see ``COUNT_COLUMNS``)."""
    n0 = int(counts[0].sum())
    n1 = int(counts[1].sum())
    selection = one_sided_nonnegative_test(
        k1=int(counts[1, 0] + counts[1, 1]), n1=n1, k0=int(counts[0, 0] + counts[0, 1]), n0=n0
    )
    outcome = None
    if a is not AssumptionSet.A1_3:
        # Raw success rates: y = 1 requires selection, so missing counts as 0.
        outcome = one_sided_nonnegative_test(
            k1=int(counts[1, 0]), n1=n1, k0=int(counts[0, 0]), n0=n0
        )
    return RestrictionTestResult(selection_test=selection, outcome_test=outcome, assumption_set=a)


def test_restrictions(data: Dataset, a: AssumptionSet) -> RestrictionTestResult:
    """One-sided tests of the selection and (under A4) outcome restrictions."""
    return restriction_tests_from_counts(cell_counts(data), a)


@dataclass(frozen=True)
class BootstrapResult:
    """Percentile confidence intervals around each interval endpoint."""

    ci_lb: tuple[float, float]
    ci_ub: tuple[float, float]
    point: BoundsInterval
    replications: int
    level: float
    seed: int
    failed_replicates: int


def bootstrap_bounds(
    data: Dataset,
    a: AssumptionSet,
    reps: int = 1000,
    level: float = 0.90,
    seed: int = 0,
    stratified: bool = False,
) -> BootstrapResult:
    """Empirical-bootstrap percentile intervals for the two bound endpoints.

    When ``stratified`` is set, the statistic is the stratified aggregate
    interval and resampling preserves each stratum's size; otherwise the
    statistic is the pooled-sample interval and records are resampled
    freely.  Replicates whose estimation fails on an empty cell are
    excluded and counted in ``failed_replicates``; resampling until
    success would bias the replicate distribution, so failures surface
    instead.  Identical inputs (including ``seed``) give bit-identical
    output.
    """
    if reps < 2:
        raise ValueError(f"reps = {reps} must be at least 2")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level = {level!r} must lie strictly in (0, 1)")

    if stratified:
        if not data.has_complete_strata():
            raise ValueError("stratified bootstrap requires a stratum label on every record")
        counts_by_stratum = stratum_cell_counts(data)
        point = stratified_from_counts(counts_by_stratum, a).aggregate
        layout = sorted(counts_by_stratum)
        flats = {name: counts_by_stratum[name].reshape(-1) for name in layout}
        sizes = {name: int(flats[name].sum()) for name in layout}

        def replicate(rng: np.random.Generator) -> BoundsInterval:
            resampled = {}
            for name in layout:
                flat = flats[name]
                draw = rng.multinomial(sizes[name], flat / sizes[name])
                resampled[name] = draw.reshape(2, 3)
            return stratified_from_counts(resampled, a).aggregate

    else:
        counts = cell_counts(data)
        point = compute_bounds(moments_from_counts(counts), a)
        flat = counts.reshape(-1)
        size = int(flat.sum())
        probs = flat / size

        def replicate(rng: np.random.Generator) -> BoundsInterval:
            draw = rng.multinomial(size, probs)
            return compute_bounds(moments_from_counts(draw.reshape(2, 3)), a)

    children = np.random.SeedSequence(seed).spawn(reps)
    lbs: list[float] = []
    ubs: list[float] = []
    failed = 0
    for child in children:
        rng = np.random.default_rng(child)
        try:
            interval = replicate(rng)
        except ValueError:
            failed += 1
            continue
        lbs.append(interval.lb)
        ubs.append(interval.ub)

    if failed > reps // 2:
        raise ValueError("bootstrap unstable: data too sparse")

    tail = (1.0 - level) / 2.0
    lb_lo, lb_hi = np.quantile(lbs, [tail, 1.0 - tail])
    ub_lo, ub_hi = np.quantile(ubs, [tail, 1.0 - tail])
    return BootstrapResult(
        ci_lb=(float(lb_lo), float(lb_hi)),
        ci_ub=(float(ub_lo), float(ub_hi)),
        point=point,
        replications=reps,
        level=level,
        seed=seed,
        failed_replicates=failed,
    )

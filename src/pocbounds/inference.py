"""One-sided restriction tests and bootstrap confidence intervals.

The model implies observable restrictions: the treated arm's selection
rate cannot fall below the control arm's, and (under monotone treatment
response) neither can the treated arm's raw success rate, where the raw
rate counts missing outcomes as zero.  Each restriction is tested with a
one-sided two-sample proportion z statistic using unpooled variances, on
a dataset's pooled table; only a set with A4 implies the second.

Direction convention: the statistic is ``(treated rate - control rate)``
divided by its standard error, and the reported p-value is the lower-tail
normal probability of the statistic.  Small p-values therefore mean the
observed difference runs in the direction the model rules out; testing at
level 5% rejects the model when p < 0.05.  The two restrictions are tested
as separate nulls with no multiplicity correction.  The normal tail is a
port of Cephes ``ndtr`` (Moshier 1989) on :mod:`math` alone, with Cephes'
coefficients and operation order, so p-values are bit-identical to
``scipy.stats.norm.cdf`` without importing SciPy.

Bootstrap confidence intervals are percentile intervals per interval
endpoint, computed from resamples of the records with replacement within
strata, preserving stratum sizes.  One generator seeded with ``seed``
draws every replicate in turn, so the same seed gives the same bytes and
fewer replicates are a prefix of more: ``reps=200`` draws the first 200
replicates of ``reps=1000``.  One draw per replicate serves every
assumption set and every stratum, so a stratum's intervals are marginals
of the stratified draw.  Resampling is realized by multinomial draws over
the cell counts, which is the exact distribution of record resampling
aggregated to the sufficient statistics the estimators consume.  One call
of the point estimator's own array code scores the stacked draws under
every set, on moments, drops and weights computed once.  Every interval of
a group then comes from one sort: each set, endpoint and estimate (the
aggregate or a stratum) is one row of replicates, a replicate that skips
the estimate is ``+inf`` there, and each row's percentiles are read off
its kept values with the arithmetic of NumPy's linear quantile (type 7 of
Hyndman and Fan 1996), so they equal ``np.quantile`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .bounds import AssumptionSet
from .estimation import Dataset, cell_counts, stratified_fields

# Unused here: perfbench/tracer.py looks these names up in this module.
from .bounds import compute_bounds  # noqa: F401
from .estimation import stratum_cell_counts  # noqa: F401

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


# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and
# erfc(x) = exp(-x^2) P(x) / Q(x) below 8, exp(-x^2) R(x) / S(x) from 8 on.
# The leading 1.0 of U, Q and S is the coefficient Cephes' p1evl implies;
# Horner's first step 1.0 * x + c is exact, so _polevl matches p1evl.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_SQRT1_2 = 0.70710678118654752440
# Cephes MAXLOG, log(DBL_MAX): past it erfc returns 0 without calling exp.
_MAXLOG = 7.09782712893383996843e2


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Cephes ``polevl``: Horner's rule, highest power first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Cephes ``erf`` for ``|x| <= 1``, the only range ``_ndtr`` calls it on."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _ndtr(a: float) -> float:
    """Standard normal CDF, bit for bit Cephes ``ndtr`` (``scipy.special.ndtr``).

    Cephes' ``erfc`` is inlined for the nonnegative arguments ``ndtr`` passes
    it; a NaN argument propagates to a NaN result.
    """
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    if z < 1.0:
        y = 0.5 * (1.0 - _erf(z))
    elif z * z > _MAXLOG:
        y = 0.0
    else:
        p, q = (_ERFC_P, _ERFC_Q) if z < 8.0 else (_ERFC_R, _ERFC_S)
        y = 0.5 * (math.exp(-z * z) * _polevl(z, p) / _polevl(z, q))
    return 1.0 - y if x > 0.0 else y


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
    stat = float(diff / np.sqrt(var))
    return TestOutcome(stat=stat, p_value=_ndtr(stat))


def test_restrictions(data: Dataset) -> tuple[TestOutcome, TestOutcome]:
    """One-sided tests of the pooled table's selection and outcome restrictions, in that order.

    Every set implies the selection restriction; only a set with A4 implies
    the outcome one, so the caller reads the second test under A4 alone.
    """
    (y1_0, y0_0, s0_0), (y1_1, y0_1, s0_1) = cell_counts(data).tolist()
    n0, n1 = y1_0 + y0_0 + s0_0, y1_1 + y0_1 + s0_1
    selection = one_sided_nonnegative_test(k1=y1_1 + y0_1, n1=n1, k0=y1_0 + y0_0, n0=n0)
    # Raw success rates: y = 1 requires selection, so missing counts as 0.
    return selection, one_sided_nonnegative_test(k1=y1_1, n1=n1, k0=y1_0, n0=n0)


#: Why a bootstrap gives up: more than half of its replicates failed.
UNSTABLE = "bootstrap unstable: data too sparse"


class EndpointIntervals(NamedTuple):
    """Percentile confidence intervals around the two endpoints of one interval."""

    ci_lb: tuple[float, float]
    ci_ub: tuple[float, float]


@dataclass(frozen=True)
class BootstrapResult:
    """Percentile intervals for every requested set, all read off one set of draws.

    ``aggregate`` maps each set to the intervals of the table's aggregate
    interval; ``per_stratum`` maps each set to the intervals of every
    stratum's own interval, ``None`` for a stratum that more than half of
    the replicates dropped.  ``failed_replicates`` counts the replicates
    that dropped every stratum.
    """

    aggregate: dict[AssumptionSet, EndpointIntervals]
    per_stratum: dict[AssumptionSet, dict[str | None, EndpointIntervals | None]]
    replications: int
    failed_replicates: int


def bootstrap_bounds(
    data: Dataset,
    sets: Iterable[AssumptionSet],
    reps: int = 1000,
    level: float = 0.90,
    seed: int = 0,
) -> BootstrapResult:
    """Empirical-bootstrap percentile intervals for the bound endpoints of ``sets``.

    One ``default_rng(seed)`` resamples every stratum of ``data`` at its own
    size, in label order, replicate after replicate (a smaller ``reps`` draws
    a prefix); one :func:`~pocbounds.estimation.stratified_fields` call
    scores them all under every set.
    For the pooled sample, pass ``Dataset(labels=(None,), counts=cell_counts(data))``.
    Replicates that drop every stratum on an empty cell are excluded and
    counted in ``failed_replicates``; resampling until success would bias
    the replicate distribution, so failures surface instead, and more than
    ``reps // 2`` raise ``ValueError``.  A stratum's intervals leave out the
    replicates that drop it, and are ``None`` past ``reps // 2`` of them.
    All intervals come from one sort of the stacked replicate rows and are
    NumPy's linear percentiles of the kept replicates, bit for bit.
    Identical inputs (including ``seed``) give bit-identical output.
    """
    if reps < 2:
        raise ValueError(f"reps = {reps} must be at least 2")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level = {level!r} must lie strictly in (0, 1)")
    sets = tuple(sets)
    if not sets:
        raise ValueError("at least one assumption set must be requested")

    sizes = data.counts.sum(axis=(1, 2))
    probs = data.counts.reshape(len(sizes), 6) / sizes[:, None]
    draws = np.random.default_rng(seed).multinomial(sizes, probs, size=(reps, len(sizes)))
    fit = stratified_fields(draws.reshape(reps, len(sizes), 2, 3), sets)
    dropped = fit.empty >= 0
    failed = dropped.all(axis=1)
    if failed.sum() > reps // 2:
        raise ValueError(UNSTABLE)
    # One row of replicates per set, endpoint and estimate (the aggregate,
    # then each stratum).  A skipped replicate is +inf, so one sort puts each
    # row's kept values first, in order.
    skip = np.vstack([failed, dropped.T])
    rows = np.array([
        [[total[name], *fit.strata[a][name].T] for name in ("lb", "ub")] for a, total in fit.aggregate.items()
    ])
    rows[:, :, skip] = np.inf
    rows.sort(axis=-1)
    skipped = skip.sum(axis=1)
    scored = skipped <= reps // 2
    tail = (1.0 - level) / 2.0
    ci = np.full(rows.shape[:-1] + (2,), np.nan)
    ci[:, :, scored] = _sorted_quantiles(rows[:, :, scored], reps - skipped[scored], np.array([tail, 1.0 - tail]))
    intervals = [
        [EndpointIntervals(ci_lb=tuple(lb), ci_ub=tuple(ub)) if ok else None for lb, ub, ok in zip(*by_set, scored)]
        for by_set in ci.tolist()
    ]
    return BootstrapResult(
        aggregate={a: by_set[0] for a, by_set in zip(fit.aggregate, intervals)},
        per_stratum={a: dict(zip(data.labels, by_set[1:])) for a, by_set in zip(fit.aggregate, intervals)},
        replications=reps,
        failed_replicates=int(failed.sum()),
    )


def _sorted_quantiles(rows: np.ndarray, n: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Linear (type 7) quantiles at levels ``q`` of the first ``n`` entries of each ascending row.

    ``rows`` is ``[..., k, width]`` with ``n`` (``[k]``, each at least 1)
    kept entries per row; the result is ``[..., k, len(q)]``.  The
    arithmetic is NumPy's own for ``np.quantile(method="linear")``: the
    virtual index ``(n - 1) q``, its fractional part ``gamma``, and its
    ``_lerp``, so each value equals ``np.quantile`` of the row's kept
    entries bit for bit.
    """
    virtual = (n[:, None] - 1) * q
    below = np.floor(virtual)
    gamma = virtual - below
    top = n[:, None] - 1
    shape = rows.shape[:-1] + q.shape
    a = np.take_along_axis(rows, np.broadcast_to(np.minimum(below, top).astype(np.intp), shape), axis=-1)
    b = np.take_along_axis(rows, np.broadcast_to(np.minimum(below + 1, top).astype(np.intp), shape), axis=-1)
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)

"""Independent oracles and shared draw helpers for the test suite.

Everything in here is deliberately kept independent of the code paths it
checks: the moment inversion solves the bound equations by hand-derived
algebra, the moment/joint samplers use only the model's permitted-cell
patterns, the reference CSV loader checks and counts every row on its
own, the reference bootstrap reads each percentile interval with its
own ``np.quantile`` call, and the exact envelope solves the oracle's
program in integers, with no tolerance.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from pocbounds import AssumptionSet, ObservedMoments
from pocbounds.cli import ConfigError, CsvFormatError
from pocbounds.estimation import Dataset, stratified_fields, table_position
from pocbounds.inference import UNSTABLE, BootstrapResult, EndpointIntervals
from pocbounds.latent import CELL_ORDER, OBSERVE, _vertices, cell_index

#: Published point bounds the fixture moments must reproduce.
TABLE_UB1 = 0.609
TABLE_UB3 = 0.163
TABLE_LB3 = 0.106


def invert_bounds_to_moments(ub1: float, ub3: float, lb3: float) -> tuple[float, float, float]:
    """Solve the three unclipped bound equations for (p1, q0, alpha).

    The equations, with r = p1 / alpha:

        ub1 = r / q0
        ub3 = (r + q0 - 1) / q0
        lb3 = (p1 + q0 - 1) / q0

    Subtracting the first two gives ub1 - ub3 = (1 - q0) / q0, hence

        q0    = 1 / (1 + ub1 - ub3)
        p1    = 1 - q0 * (1 - lb3)
        alpha = p1 / (q0 * ub1)

    Valid whenever the target values come from an interior (unclipped)
    configuration, which the checks below confirm by substitution.
    """
    q0 = 1.0 / (1.0 + ub1 - ub3)
    p1 = 1.0 - q0 * (1.0 - lb3)
    alpha = p1 / (q0 * ub1)
    assert abs((p1 / alpha) / q0 - ub1) < 1e-12
    assert abs((p1 / alpha + q0 - 1.0) / q0 - ub3) < 1e-12
    assert abs((p1 + q0 - 1.0) / q0 - lb3) < 1e-12
    return p1, q0, alpha


def derive_table_moments(
    p_s1_d1: float = 0.6068, p_d1: float = 0.5
) -> ObservedMoments:
    """Moment vector recovered from the published bound values.

    Only the trim ratio is identified by the inversion; the treated-arm
    selection level is set to a realistic default and the control-arm
    level follows from the ratio.
    """
    p1, q0, alpha = invert_bounds_to_moments(TABLE_UB1, TABLE_UB3, TABLE_LB3)
    return ObservedMoments(
        p_y1_s1d1=p1,
        p_y0_s1d0=q0,
        p_s1_d1=p_s1_d1,
        p_s1_d0=alpha * p_s1_d1,
        p_d1=p_d1,
    )


def draw_restricted_moments(rng: np.random.Generator) -> ObservedMoments:
    """One moment vector satisfying the selection and outcome restrictions.

    Draw ranges keep the trim ratio strictly below one and leave a margin
    above the outcome-restriction boundary so every assumption bundle has
    a nonempty feasible set.
    """
    p_s1_d1 = rng.uniform(0.2, 0.95)
    alpha = rng.uniform(0.3, 0.98)
    q0 = rng.uniform(0.15, 0.95)
    floor = (1.0 - q0) * alpha
    p1 = floor + rng.uniform(0.02, 0.98) * (1.0 - floor)
    return ObservedMoments(
        p_y1_s1d1=p1,
        p_y0_s1d0=q0,
        p_s1_d1=p_s1_d1,
        p_s1_d0=alpha * p_s1_d1,
        p_d1=rng.uniform(0.25, 0.75),
    )


def reference_moments(joint) -> ObservedMoments:
    """Forward map of a latent joint by ``OBSERVE`` masks and ``math.fsum``; ValueError if a selection marginal is 0.

    Arm ``d`` shows a cell as selected when it puts it in either selected
    column, a success in column 0 and a failure in column 1.  ``fsum`` is
    correctly rounded, so the result is bit-equal to any exact summation
    order.
    """
    cells = np.array(joint.cells)
    selected = OBSERVE[:, 0] | OBSERVE[:, 1]
    p_s1, p_s0 = math.fsum(cells[selected[1]]), math.fsum(cells[selected[0]])
    if p_s1 <= 0.0 or p_s0 <= 0.0:
        raise ValueError("a selection marginal is zero")
    return ObservedMoments(
        p_y1_s1d1=math.fsum(cells[OBSERVE[1, 0]]) / p_s1,
        p_y0_s1d0=math.fsum(cells[OBSERVE[0, 1]]) / p_s0,
        p_s1_d1=p_s1,
        p_s1_d0=p_s0,
        p_d1=joint.p_d1,
    )


def reference_holds(joint, a: AssumptionSet) -> bool:
    """Whether a latent joint satisfies bundle ``a``, from masks over ``CELL_ORDER``.

    A2: positive OO mass with ``y0 = 0``.  A3: no ON mass.  A4, where
    ``a.a4``: no mass on ``(y0, y1) = (1, 0)`` outside NN.  A5, where
    ``a.a5``: the OO treated-outcome rate is at least the NO one, less
    1e-12, or either stratum is empty.
    """
    cells = np.array(joint.cells)
    y0, y1, s0, s1 = np.array(CELL_ORDER).T
    oo, no, on, nn = (s0 == 1) & (s1 == 1), (s0 == 0) & (s1 == 1), (s0 == 1) & (s1 == 0), (s0 == 0) & (s1 == 0)
    if math.fsum(cells[oo & (y0 == 0)]) <= 0.0 or (cells[on] > 0.0).any():
        return False
    if a.a4 and (cells[(y0 == 1) & (y1 == 0) & ~nn] > 0.0).any():
        return False
    mass_oo, mass_no = math.fsum(cells[oo]), math.fsum(cells[no])
    if not a.a5 or mass_oo == 0.0 or mass_no == 0.0:
        return True
    rate_oo = math.fsum(cells[oo & (y1 == 1)]) / mass_oo
    rate_no = math.fsum(cells[no & (y1 == 1)]) / mass_no
    return bool(rate_oo - rate_no >= -1e-12)


def exact_envelope(control, treated, a: AssumptionSet) -> tuple[Fraction, Fraction] | None:
    """Theta's identified range on one count table, in exact arithmetic; None where no basic solution is feasible.

    ``control`` and ``treated`` are arms (selected ``y = 1``, selected
    ``y = 0``, unselected).  Every basis inverse of the oracle's program is
    an integer matrix, so scaling its right-hand side by ``n0 * n1 * s1``,
    with ``s1`` the selected treated units, makes every basic solution an
    integer vector.  A solution is feasible when it is ``>= 0`` exactly,
    and each endpoint is the target cell over the scaled denominator
    ``q0 * P[S=1|D=0]``, a ``Fraction`` clipped to [0, 1].  Needs a
    selected control failure and a selected treated unit.
    """
    (c1, c0, _), (t1, t0, _) = control, treated
    n0, n1, s0, s1 = sum(control), sum(treated), c1 + c0, t1 + t0
    # 1, P[S=1|D=1], P[S=1|D=0], p1 * P[S=1|D=1], q0 * P[S=1|D=0] and, under
    # A5, the floor p1 * P[S=1|D=0], each times n0 * n1 * s1.
    b = [n0 * n1 * s1, n0 * s1 * s1, n1 * s1 * s0, n0 * s1 * t1, n1 * s1 * c0]
    if a.a5:
        b.append(n1 * t1 * s0)
    solutions = np.rint(_vertices(a)).astype(np.int64) @ np.array(b, dtype=np.int64)
    target = solutions[(solutions >= 0).all(axis=1), cell_index(0, 1, 1, 1)]
    if not target.size:
        return None
    denominator = n1 * s1 * c0
    lo, hi = Fraction(int(target.min()), denominator), Fraction(int(target.max()), denominator)
    return min(max(lo, Fraction(0)), Fraction(1)), min(max(hi, Fraction(0)), Fraction(1))


def weaker_or_equal(a: AssumptionSet, b: AssumptionSet) -> bool:
    """Whether bundle ``b`` holds every assumption ``a`` holds: the nesting order, read off the flags."""
    return b.a4 >= a.a4 and b.a5 >= a.a5


def assert_nested(intervals: dict) -> None:
    """Nesting and the lattice identity over ``intervals``, a map from bundles to intervals with ``lb`` and ``ub``.

    A bundle's interval lies inside that of every bundle it is stronger
    than.  The lower bound reads only ``a5`` and the upper bound only
    ``a4``, so two bundles that agree on a flag share that endpoint exactly.
    """
    for weaker, wide in intervals.items():
        for stronger, narrow in intervals.items():
            if weaker_or_equal(weaker, stronger):
                assert wide.lb <= narrow.lb and narrow.ub <= wide.ub, (weaker, stronger)
            if weaker.a5 == stronger.a5:
                assert wide.lb == narrow.lb, (weaker, stronger)
            if weaker.a4 == stronger.a4:
                assert wide.ub == narrow.ub, (weaker, stronger)


def draw_any_moments(rng: np.random.Generator) -> ObservedMoments:
    """One moment vector with trim ratio at most one, otherwise unrestricted."""
    p_s1_d1 = rng.uniform(0.05, 1.0)
    alpha = rng.uniform(0.05, 1.0)
    return ObservedMoments(
        p_y1_s1d1=rng.uniform(0.0, 1.0),
        p_y0_s1d0=rng.uniform(0.01, 1.0),
        p_s1_d1=p_s1_d1,
        p_s1_d0=alpha * p_s1_d1,
        p_d1=rng.uniform(0.1, 0.9),
    )


def draw_gentle_moments(rng: np.random.Generator) -> ObservedMoments:
    """Moment vector whose six raw endpoints all sit 0.05 inside [0, 1].

    High selection rates and a large control failure rate keep every
    endpoint's sampling slope near one, so plug-in bounds estimated from
    a few thousand records have standard errors around 0.01.  Used by the
    stratified Monte Carlo fixtures, where the aggregate must track the
    known truth tightly.
    """
    from pocbounds import compute_bounds

    for _ in range(1000):
        q0 = rng.uniform(0.78, 0.92)
        alpha = rng.uniform(0.90, 0.97)
        p_s1_d1 = rng.uniform(0.85, 0.97)
        lo = 1.0 - 0.93 * alpha * q0
        hi = 0.93 * alpha * q0
        if lo >= hi:
            continue
        p1 = rng.uniform(lo, hi)
        m = ObservedMoments(
            p_y1_s1d1=p1, p_y0_s1d0=q0, p_s1_d1=p_s1_d1, p_s1_d0=alpha * p_s1_d1
        )
        raws = []
        for a in AssumptionSet:
            interval = compute_bounds(m, a)
            raws += [interval.lb_raw, interval.ub_raw]
        if all(0.05 <= r <= 0.95 for r in raws):
            return m
    raise RuntimeError("no feasible gentle moment draw")


def build_stratified_fixture(seed: int, n_strata: int = 10):
    """Equal-weight strata with known per-stratum truth.

    Each stratum's latent joint is an interior-point construction for a
    gentle moment vector, so its forward map (and hence its true interval)
    is known exactly.  Returns (joints, weights, truth) where truth maps
    each assumption set to the weighted aggregate (lb, ub).
    """
    from pocbounds import compute_bounds, observed_from_latent
    from pocbounds.latent import construct_interior_distribution

    rng = np.random.default_rng(seed)
    joints = {}
    for k in range(n_strata):
        m = draw_gentle_moments(rng)
        joints[f"c{k}"] = construct_interior_distribution(
            m, AssumptionSet.A1_5, rng.uniform(0.3, 0.7)
        )
    weights = {name: 1.0 / n_strata for name in joints}
    truth = {}
    for a in AssumptionSet:
        lb = sum(
            weights[k] * compute_bounds(observed_from_latent(joints[k]), a).lb
            for k in joints
        )
        ub = sum(
            weights[k] * compute_bounds(observed_from_latent(joints[k]), a).ub
            for k in joints
        )
        truth[a] = (lb, ub)
    return joints, weights, truth


def reference_bootstrap_bounds(
    data: Dataset, sets, reps: int, level: float, seed: int
) -> BootstrapResult:
    """Column-at-a-time bootstrap the stacked ``bootstrap_bounds`` must match bit for bit.

    The same draw and the same kernel's per-stratum fields; each aggregate
    replicate is Python's ``sum`` over the strata in table order, and each
    interval is one ``np.quantile`` call on the kept replicates of one set
    and one estimate.
    """
    sizes = data.counts.sum(axis=(1, 2))
    probs = data.counts.reshape(len(sizes), 6) / sizes[:, None]
    draws = np.random.default_rng(seed).multinomial(sizes, probs, size=(reps, len(sizes)))
    fit = stratified_fields(draws.reshape(reps, len(sizes), 2, 3), sets)
    dropped = fit.empty >= 0
    failed = dropped.all(axis=1)
    if failed.sum() > reps // 2:
        raise ValueError(UNSTABLE)
    tail = (1.0 - level) / 2.0

    def percentile(lb: np.ndarray, ub: np.ndarray, skip: np.ndarray) -> EndpointIntervals | None:
        if skip.sum() > reps // 2:
            return None
        values = np.stack([lb, ub], axis=1)[~skip]
        lo, hi = np.quantile(values, [tail, 1.0 - tail], axis=0)
        return EndpointIntervals(ci_lb=(float(lo[0]), float(hi[0])), ci_ub=(float(lo[1]), float(hi[1])))

    def aggregate(values: np.ndarray) -> np.ndarray:
        return sum(np.moveaxis(fit.weight * np.where(dropped, 0.0, values), -1, 0))

    strata = {a: (fields["lb"], fields["ub"]) for a, fields in fit.strata.items()}
    return BootstrapResult(
        aggregate={a: percentile(aggregate(lb), aggregate(ub), failed) for a, (lb, ub) in strata.items()},
        per_stratum={
            a: {label: percentile(lb[:, k], ub[:, k], dropped[:, k]) for k, label in enumerate(data.labels)}
            for a, (lb, ub) in strata.items()
        },
        replications=reps,
        failed_replicates=int(failed.sum()),
    )


def reference_load_csv(path: str | Path, mapping: dict[str, str | None]) -> Dataset:
    """Per-row loader the command line's ``load_csv`` must match: the same table or the same error.

    Every row runs every token check and is counted on its own.  Row
    numbers count the header as row 1.
    """
    named = [name for name in mapping.values() if name is not None]
    if len(set(named)) != len(named):
        raise ConfigError(f"duplicate column mapping: {named}")
    path = Path(path)
    tally: dict[str | None, list[int]] = {}
    row_number = 0
    try:
        # Undecodable bytes become lone surrogates, which _checked_lines
        # rejects line by line, so the error names the row that holds them.
        with path.open(newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
            reader = csv.reader(_checked_lines(handle))
            header = next(reader, None)
            if header is None:
                raise CsvFormatError(f"{path}: empty file, header row required")
            row_number = 1
            header = [h.strip() for h in header]
            positions: dict[str, int | None] = {"stratum": None}
            for role in ("y", "s", "d", "stratum"):
                name = mapping.get(role)
                if name is None:
                    continue
                if name not in header:
                    raise CsvFormatError(f"{path}: column {name!r} not found in header {header}")
                if header.count(name) > 1:
                    raise CsvFormatError(
                        f"{path}: column {name!r} appears {header.count(name)} times in header {header}"
                    )
                positions[role] = header.index(name)
            y_pos, s_pos, d_pos, stratum_pos = (positions[r] for r in ("y", "s", "d", "stratum"))

            for row_number, row in enumerate(reader, start=2):
                if not row:  # a blank line
                    continue
                if len(row) != len(header):
                    raise CsvFormatError(
                        f"{path}: row {row_number} has {len(row)} fields, header has {len(header)}"
                    )
                d = _parse_binary(row[d_pos], mapping["d"], row_number, path)
                s = _parse_binary(row[s_pos], mapping["s"], row_number, path)
                y_token = row[y_pos].strip()
                if y_token == "":
                    y = None
                    if s == 1:
                        raise CsvFormatError(
                            f"{path}: missing outcome in column {mapping['y']!r} at row "
                            f"{row_number} although s=1"
                        )
                else:
                    y = _parse_binary(y_token, mapping["y"], row_number, path)
                    if s == 0:
                        raise CsvFormatError(
                            f"{path}: outcome present in column {mapping['y']!r} at row "
                            f"{row_number} although s=0 (censored outcomes must be empty)"
                        )
                stratum = None if stratum_pos is None else row[stratum_pos].strip()
                table = tally.get(stratum)
                if table is None:
                    table = tally[stratum] = [0] * 6
                table[table_position(d, s, y)] += 1
    except UnicodeError:
        raise CsvFormatError(f"{path}: row {row_number + 1} is not valid UTF-8") from None
    except csv.Error as err:
        raise CsvFormatError(f"{path}: row {row_number + 1}: {err}") from None

    if not tally:
        raise CsvFormatError(f"{path}: no data rows")
    return Dataset(labels=tuple(tally), counts=list(tally.values()))


def _checked_lines(handle):
    for line in handle:
        if not line.isascii():
            line.encode("utf-8")  # raises UnicodeEncodeError on an escaped byte
        yield line


def _parse_binary(token: str, column: str, row_number: int, path: Path) -> int:
    token = token.strip()
    if token == "0":
        return 0
    if token == "1":
        return 1
    raise CsvFormatError(f"{path}: non-binary value {token!r} in column {column!r} at row {row_number}")

"""Moment estimation and stratified aggregation from microdata."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import build_stratified_fixture
from pocbounds import (
    ASSUMPTION_ORDER,
    AssumptionSet,
    BoundsInterval,
    Dataset,
    ObservedMoments,
    compute_bounds,
    estimate_moments,
    estimate_stratified,
    observed_from_latent,
)
from pocbounds.estimation import (
    EMPTY_CELLS,
    cell_counts,
    moments_from_counts,
    stratified_fields,
    stratified_from_counts,
)
from pocbounds.simulate import draw_latent_joint, sample_dataset, sample_stratified_dataset


# Four units: control selected with y = 1 and with y = 0; treated selected
# with y = 1 and unselected.  Rows are arms, columns COUNT_COLUMNS.
FOUR_TABLE = [[1, 1, 0], [1, 0, 1]]


def pooled(table):
    return Dataset(labels=(None,), counts=[table])


class TestDataset:
    def test_requires_records(self):
        with pytest.raises(ValueError, match="at least one record"):
            Dataset(labels=(), counts=[])
        with pytest.raises(ValueError, match="at least one record"):
            Dataset(labels=(None,), counts=np.zeros((1, 2, 3)))

    def test_stratum_index_groups_positions(self):
        # Strata are kept sorted, whatever order their tables come in.
        data = Dataset(labels=("b", "a"), counts=[[[0, 0, 0], [1, 0, 1]], [[0, 1, 0], [0, 0, 0]]])
        assert data.labels == ("a", "b")
        assert data.counts.tolist() == [[[0, 1, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 1]]]
        assert data.n == 3
        assert data.has_complete_strata()

    def test_rejects_malformed_tables(self):
        one = [[1, 0, 0], [0, 0, 1]]
        with pytest.raises(ValueError, match="unique"):
            Dataset(labels=("a", "a"), counts=[one, one])
        with pytest.raises(ValueError, match="non-negative"):
            Dataset(labels=("a",), counts=[[[2, -1, 0], [0, 0, 1]]])
        with pytest.raises(ValueError, match="every stratum"):
            Dataset(labels=("a", "b"), counts=[one, np.zeros((2, 3))])
        with pytest.raises(ValueError):
            Dataset(labels=("a",), counts=[one, one])
        for count in (1.7, np.inf, np.nan):
            with pytest.raises(ValueError, match="whole numbers"):
                Dataset(labels=("a",), counts=[[[count, 0, 0], [0, 0, 1]]])


def test_simulation_builds_no_row_objects(monkeypatch):
    def refuse(self):
        raise AssertionError("Dataset.records was read")

    rng = np.random.default_rng(67)
    joint = draw_latent_joint(AssumptionSet.A1_4, rng)
    monkeypatch.setattr(Dataset, "records", property(refuse))
    assert sample_dataset(joint, 300, rng).n == 300
    assert sample_stratified_dataset({"a": joint, "b": joint}, {"a": 0.5, "b": 0.5}, 300, rng).n == 300


class TestEstimateMoments:
    def test_four_record_hand_count(self):
        m = estimate_moments(pooled(FOUR_TABLE))
        assert m.p_y1_s1d1 == 1.0
        assert m.p_y0_s1d0 == 0.5
        assert m.p_s1_d1 == 0.5
        assert m.p_s1_d0 == 1.0
        assert m.p_d1 == 0.5

    def test_no_control_units_errors(self):
        data = pooled([[0, 0, 0], [1, 1, 0]])
        with pytest.raises(ValueError, match="no control units"):
            estimate_moments(data)

    def test_empty_cells_named(self):
        with pytest.raises(ValueError, match="no S=1 units with D=0"):
            estimate_moments(pooled([[0, 0, 1], [1, 0, 0]]))
        with pytest.raises(ValueError, match="no Y=0 outcomes among S=1, D=0"):
            estimate_moments(pooled([[1, 0, 0], [1, 0, 0]]))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(60)
        joints = {f"s{k}": draw_latent_joint(AssumptionSet.A1_3, rng) for k in range(4)}
        data = sample_stratified_dataset(joints, {name: 0.25 for name in joints}, 500, rng)
        order = rng.permutation(len(data.labels))
        shuffled = Dataset(labels=[data.labels[k] for k in order], counts=data.counts[order])
        assert estimate_moments(data) == estimate_moments(shuffled)

    def test_estimates_are_exact_count_ratios(self):
        rng = np.random.default_rng(61)
        joint = draw_latent_joint(AssumptionSet.A1_3, rng)
        data = sample_dataset(joint, 997, rng)
        counts = cell_counts(data)
        m = estimate_moments(data)
        assert m.p_y1_s1d1 == int(counts[1, 0]) / int(counts[1, 0] + counts[1, 1])
        assert m.p_d1 == int(counts[1].sum()) / 997

    def test_monte_carlo_convergence_to_forward_map(self):
        rng = np.random.default_rng(62)
        joint = draw_latent_joint(AssumptionSet.A1_4, rng)
        truth = observed_from_latent(joint)
        m = estimate_moments(sample_dataset(joint, 100_000, rng))
        for name in ("p_y1_s1d1", "p_y0_s1d0", "p_s1_d1", "p_s1_d0", "p_d1"):
            assert getattr(m, name) == pytest.approx(getattr(truth, name), abs=0.01)


class TestEstimateStratified:
    def test_requires_complete_strata(self):
        data = Dataset(labels=("a", None), counts=[[[0, 0, 0], [1, 0, 0]], [[0, 1, 0], [0, 0, 0]]])
        with pytest.raises(ValueError, match="stratum label"):
            estimate_stratified(data, AssumptionSet.A1_3)

    def test_single_stratum_matches_unconditional(self):
        data = Dataset(labels=("only",), counts=[FOUR_TABLE])
        result = estimate_stratified(data, AssumptionSet.A1_3)
        unconditional = compute_bounds(estimate_moments(data), AssumptionSet.A1_3)
        assert result.aggregate.lb == unconditional.lb
        assert result.aggregate.ub == unconditional.ub
        assert result.per_stratum["only"].weight == 1.0

    def test_two_equal_strata_average(self):
        # Two equal-size strata: the aggregate must be the plain average
        # of the per-stratum endpoints.
        base = [[1, 1, 0], [1, 1, 0]]
        other = [[0, 2, 0], [0, 2, 0]]
        data = Dataset(labels=("x", "z"), counts=[base, other])
        result = estimate_stratified(data, AssumptionSet.A1_5)
        bx = result.per_stratum["x"].bounds
        bz = result.per_stratum["z"].bounds
        assert result.per_stratum["x"].weight == 0.5
        assert result.aggregate.lb == pytest.approx(0.5 * bx.lb + 0.5 * bz.lb)
        assert result.aggregate.ub == pytest.approx(0.5 * bx.ub + 0.5 * bz.ub)

    def test_dropped_strata_renormalize(self):
        bad = [[0, 0, 0], [1, 1, 0]]  # no control units
        result = estimate_stratified(Dataset(labels=("g", "b"), counts=[FOUR_TABLE, bad]), AssumptionSet.A1_3)
        assert [name for name, _ in result.dropped] == ["b"]
        assert "no control units" in result.dropped[0][1]
        assert result.per_stratum["g"].weight == 1.0

    def test_all_strata_dropped_errors(self):
        bad = [[0, 0, 0], [1, 1, 0]]
        with pytest.raises(ValueError, match="every stratum was dropped"):
            estimate_stratified(Dataset(labels=("b",), counts=[bad]), AssumptionSet.A1_3)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(63)
        joints = {f"s{k}": draw_latent_joint(AssumptionSet.A1_5, rng) for k in range(5)}
        weights = {name: 1.0 / 5 for name in joints}
        data = sample_stratified_dataset(joints, weights, 4000, rng)
        result = estimate_stratified(data, AssumptionSet.A1_5)
        assert sum(r.weight for r in result.per_stratum.values()) == pytest.approx(1.0, abs=1e-12)

    def test_pooling_invariance_with_identical_strata(self):
        # All strata share one data-generating process, so the stratified
        # aggregate and the unconditional interval converge together.
        rng = np.random.default_rng(64)
        joint = draw_latent_joint(AssumptionSet.A1_5, rng)
        joints = {f"s{k}": joint for k in range(4)}
        weights = {name: 0.25 for name in joints}
        data = sample_stratified_dataset(joints, weights, 40_000, rng)
        stratified = estimate_stratified(data, AssumptionSet.A1_5).aggregate
        unconditional = compute_bounds(estimate_moments(data), AssumptionSet.A1_5)
        assert stratified.lb == pytest.approx(unconditional.lb, abs=0.02)
        assert stratified.ub == pytest.approx(unconditional.ub, abs=0.02)

    def test_synthetic_multi_stratum_aggregate_matches_truth(self):
        joints, weights, truth = build_stratified_fixture(seed=12)
        data = sample_stratified_dataset(joints, weights, 50_000, np.random.default_rng(20_001))
        result = estimate_stratified(data, AssumptionSet.A1_5)
        truth_lb, truth_ub = truth[AssumptionSet.A1_5]
        assert result.aggregate.lb == pytest.approx(truth_lb, abs=0.01)
        assert result.aggregate.ub == pytest.approx(truth_ub, abs=0.01)


def test_moments_from_counts_matches_record_path():
    # Counting the expanded rows by hand reproduces the pipeline's moments.
    rng = np.random.default_rng(66)
    joint = draw_latent_joint(AssumptionSet.A1_3, rng)
    data = sample_dataset(joint, 800, rng)
    counts = np.zeros((2, 3), dtype=np.int64)
    for r in data.records:
        counts[r.d, 2 if r.s == 0 else 1 - r.y] += 1
    assert moments_from_counts(counts) == estimate_moments(data)


def scalar_stratified(tables, a):
    """Stratified bounds one stratum at a time, with Python ints and sums.

    Returns ``(per_stratum, dropped, aggregate)``: per-stratum ``(bounds,
    weight, n)`` of the retained strata by position, ``(position, reason)``
    of the dropped ones, and the aggregate interval.
    """
    fitted, dropped = {}, []
    for k, t in enumerate(tables):
        n0, n1 = int(t[0].sum()), int(t[1].sum())
        s1d1, s1d0 = int(t[1, 0] + t[1, 1]), int(t[0, 0] + t[0, 1])
        checks = (
            (n1, "no treated units (D=1)"),
            (n0, "no control units (D=0)"),
            (s1d1, "no S=1 units with D=1"),
            (s1d0, "no S=1 units with D=0"),
            (int(t[0, 1]), "no Y=0 outcomes among S=1, D=0 units"),
        )
        reason = next((why for count, why in checks if count == 0), None)
        if reason is not None:
            dropped.append((k, reason))
            continue
        m = ObservedMoments(
            p_y1_s1d1=int(t[1, 0]) / s1d1,
            p_y0_s1d0=int(t[0, 1]) / s1d0,
            p_s1_d1=s1d1 / n1,
            p_s1_d0=s1d0 / n0,
            p_d1=n1 / (n0 + n1),
        )
        fitted[k] = (compute_bounds(m, a), n0 + n1)
    total = sum(n for _, n in fitted.values())
    per_stratum = {k: (b, n / total, n) for k, (b, n) in fitted.items()}
    rows = per_stratum.values()
    lb = sum(w * b.lb for b, w, _ in rows)
    ub = sum(w * b.ub for b, w, _ in rows)
    aggregate = BoundsInterval(
        lb=lb,
        ub=ub,
        assumption_set=a,
        lb_clipped=any(b.lb_clipped for b, _, _ in rows),
        ub_clipped=any(b.ub_clipped for b, _, _ in rows),
        lb_raw=sum(w * b.lb_raw for b, w, _ in rows),
        ub_raw=sum(w * b.ub_raw for b, w, _ in rows),
        restriction_violated=any(b.restriction_violated for b, _, _ in rows),
        crossed=lb > ub,
    )
    return per_stratum, dropped, aggregate


@st.composite
def table_stacks(draw):
    """Count tables ``[batch, strata, 2, 3]`` with small cells, so empty cells are common."""
    batch, strata = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cells = st.lists(st.integers(0, 4), min_size=3, max_size=3)
    tables = []
    for _ in range(batch * strata):
        treated = draw(cells)
        if draw(st.booleans()):
            # Equal selection rates: the control arm has the treated arm's size and selected count.
            y1 = draw(st.integers(0, treated[0] + treated[1]))
            control = [y1, treated[0] + treated[1] - y1, treated[2]]
        else:
            control = draw(cells)
        tables.append([control, treated])
    return np.array(tables, dtype=np.int64).reshape(batch, strata, 2, 3)


@settings(max_examples=300, deadline=None)
@given(table_stacks(), st.sampled_from(ASSUMPTION_ORDER))
def test_property_stacked_tables_match_scalar_path(stack, a):
    fit = stratified_fields(stack, a)
    for b, tables in enumerate(stack):
        per_stratum, dropped, aggregate = scalar_stratified(tables, a)
        assert [(k, EMPTY_CELLS[i]) for k, i in enumerate(fit.empty[b]) if i >= 0] == dropped
        assert [k for k in range(len(tables)) if fit.weight[b, k] == 0.0] == [k for k, _ in dropped]
        for k, (bounds, weight, _) in per_stratum.items():
            assert fit.weight[b, k] == weight
            for name, values in fit.strata.items():
                assert values[b, k] == getattr(bounds, name), name
        for name, values in fit.aggregate.items():
            assert values[b] == getattr(aggregate, name), name

        labels = [f"s{k}" for k in range(len(tables))]
        if not per_stratum:
            with pytest.raises(ValueError, match="every stratum was dropped"):
                stratified_from_counts(labels, tables, a)
            continue
        result = stratified_from_counts(labels, tables, a)
        assert result.aggregate == aggregate
        assert result.dropped == [(labels[k], reason) for k, reason in dropped]
        assert {name: (r.bounds, r.weight, r.n) for name, r in result.per_stratum.items()} == {
            labels[k]: row for k, row in per_stratum.items()
        }

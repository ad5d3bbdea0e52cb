"""Moment estimation and stratified aggregation from microdata."""

import re
from dataclasses import astuple
from fractions import Fraction

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
    _proportions,
    cell_counts,
    stratified_fields,
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

    @pytest.mark.parametrize("labels", [(None,), ("b", "a")], ids=["pooled", "reordered"])
    def test_int64_input_is_copied_and_read_only(self, labels):
        # int64 skips the whole-number cast, so the copy comes from the reorder alone.
        raw = np.arange(1, 6 * len(labels) + 1, dtype=np.int64).reshape(len(labels), 2, 3)
        data = Dataset(labels=labels, counts=raw)
        before = data.counts.tolist()
        assert not np.shares_memory(data.counts, raw)
        raw[...] = 0
        assert data.counts.tolist() == before
        assert not data.counts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            data.counts[0, 0, 0] = 7

    @pytest.mark.parametrize("dtype", [np.int32, np.float64])
    def test_other_whole_number_dtypes_are_accepted(self, dtype):
        raw = np.array([[[3, 1, 2], [4, 0, 5]]], dtype=dtype)
        data = Dataset(labels=(None,), counts=raw)
        assert data.counts.dtype == np.int64
        assert data.counts.tolist() == [[[3, 1, 2], [4, 0, 5]]]
        assert not data.counts.flags.writeable

    @pytest.mark.parametrize("labels", [(None,), ("a", "b")], ids=["pooled", "two-strata"])
    def test_accepts_a_stack_or_rows_of_six(self, labels):
        rows = np.arange(1, 6 * len(labels) + 1).reshape(len(labels), 6)
        stack = Dataset(labels=labels, counts=rows.reshape(-1, 2, 3)).counts
        assert Dataset(labels=labels, counts=rows).counts.tolist() == stack.tolist()
        if len(labels) == 1:
            assert Dataset(labels=labels, counts=rows.reshape(2, 3)).counts.tolist() == stack.tolist()

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3), (2, 7), (2, 2, 2, 3)])
    def test_rejects_a_stack_of_another_shape(self, shape):
        # Two labels: twelve counts in a (3, 4) array are not two tables either.
        message = f"counts of shape {shape} do not fit len(labels) = 2: expected (2, 2, 3) or (2, 6)"
        with pytest.raises(ValueError, match=re.escape(message)):
            Dataset(labels=("a", "b"), counts=np.ones(shape, dtype=np.int64))


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

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_fields_are_python_floats(self, dtype):
        m = estimate_moments(pooled(np.array([[40, 20, 60], [19, 21, 20]], dtype=dtype)))
        assert all(type(x) is float for x in astuple(m))

    # A table reaches estimate_moments only as a Dataset, which refuses
    # each of these tables on its way in.
    def test_rejects_a_count_that_is_not_whole(self):
        with pytest.raises(ValueError, match="counts must be whole numbers"):
            pooled([[1.5, 2, 3], [4, 5, 6]])

    def test_rejects_a_negative_count(self):
        with pytest.raises(ValueError, match="counts must be non-negative"):
            pooled([[1, -1, 3], [4, 5, 6]])

    @pytest.mark.parametrize("shape", [(3, 2), (6,), (2, 2, 3)])
    def test_rejects_a_table_of_another_shape(self, shape):
        message = f"counts of shape {shape} do not fit len(labels) = 1: expected (1, 2, 3) or (1, 6)"
        with pytest.raises(ValueError, match=re.escape(message)):
            Dataset(labels=(None,), counts=np.ones(shape, dtype=np.int64))

    def test_counts_near_two_to_the_52_match_the_stacked_path(self):
        # 2**53 - 2 records: every sum is still exact in float64, and the
        # ratios are not, so each path must round the same exact ratio.
        table = np.array([[2**51 + 1, 2**50 - 3, 2**50 + 7], [2**51 - 5, 2**50 + 11, 2**50 - 13]])
        empty, n, stacked = _proportions(table[None])
        assert (empty.tolist(), n.tolist()) == ([-1], [2**53 - 2])
        m = estimate_moments(pooled(table))
        assert [x.hex() for x in astuple(m)] == [float(x[0]).hex() for x in stacked]
        (y1_0, y0_0, s0_0), (y1_1, y0_1, s0_1) = table.tolist()
        exact = (
            Fraction(y1_1, y1_1 + y0_1),
            Fraction(y0_0, y1_0 + y0_0),
            Fraction(y1_1 + y0_1, y1_1 + y0_1 + s0_1),
            Fraction(y1_0 + y0_0, y1_0 + y0_0 + s0_0),
            Fraction(y1_1 + y0_1 + s0_1, 2**53 - 2),
        )
        assert astuple(m) == tuple(map(float, exact))
        assert any(float(x) != x for x in exact)

    def test_monte_carlo_convergence_to_forward_map(self):
        rng = np.random.default_rng(62)
        joint = draw_latent_joint(AssumptionSet.A1_4, rng)
        truth = observed_from_latent(joint)
        m = estimate_moments(sample_dataset(joint, 100_000, rng))
        for name in ("p_y1_s1d1", "p_y0_s1d0", "p_s1_d1", "p_s1_d0", "p_d1"):
            assert getattr(m, name) == pytest.approx(getattr(truth, name), abs=0.01)


class TestEstimateStratified:
    def test_none_stratum_is_an_ordinary_stratum(self):
        data = Dataset(labels=("a", None), counts=[[[1, 2, 2], [3, 1, 1]], [[2, 3, 1], [4, 1, 2]]])
        assert data.labels == (None, "a")
        for a in ASSUMPTION_ORDER:
            fit = estimate_stratified(data, [a])
            per_stratum, dropped, aggregate = scalar_stratified(data.counts, a)
            assert dropped == [] and fit.empty.tolist() == [-1, -1]
            for k, (bounds, weight, _) in per_stratum.items():
                assert fit.weight[k] == weight
                assert fit.strata[a]["lb"][k] == bounds.lb and fit.strata[a]["ub"][k] == bounds.ub
            assert fit.aggregate[a]["lb"] == aggregate.lb and fit.aggregate[a]["ub"] == aggregate.ub

    def test_single_stratum_matches_unconditional(self):
        for table in (FOUR_TABLE, [[3, 5, 2], [6, 2, 4]], [[1, 4, 0], [5, 0, 0]]):
            data = Dataset(labels=("only",), counts=[table])
            for a in ASSUMPTION_ORDER:
                result = estimate_stratified(data, [a])
                unconditional = compute_bounds(estimate_moments(data), a)
                # repr tells -0.0 from 0.0 and prints floats exactly: bit for bit.
                assert {name: repr(value.item()) for name, value in result.aggregate[a].items()} == {
                    name: repr(getattr(unconditional, name)) for name in result.aggregate[a]
                }
                assert result.weight.tolist() == [1.0]

    def test_two_equal_strata_average(self):
        # Two equal-size strata: the aggregate must be the plain average
        # of the per-stratum endpoints.
        base = [[1, 1, 0], [1, 1, 0]]
        other = [[0, 2, 0], [0, 2, 0]]
        data = Dataset(labels=("x", "z"), counts=[base, other])
        a = AssumptionSet.A1_5
        result = estimate_stratified(data, [a])
        (bx_lb, bz_lb), (bx_ub, bz_ub) = result.strata[a]["lb"], result.strata[a]["ub"]
        assert result.weight[0] == 0.5
        assert result.aggregate[a]["lb"] == pytest.approx(0.5 * bx_lb + 0.5 * bz_lb)
        assert result.aggregate[a]["ub"] == pytest.approx(0.5 * bx_ub + 0.5 * bz_ub)

    def test_dropped_strata_renormalize(self):
        bad = [[0, 0, 0], [1, 1, 0]]  # no control units
        data = Dataset(labels=("g", "b"), counts=[FOUR_TABLE, bad])
        result = estimate_stratified(data, [AssumptionSet.A1_3])
        dropped = [(name, EMPTY_CELLS[i]) for name, i in zip(data.labels, result.empty) if i >= 0]
        assert [name for name, _ in dropped] == ["b"]
        assert "no control units" in dropped[0][1]
        assert result.weight[data.labels.index("g")] == 1.0
        # Drops and weights do not depend on the set: every request shares them.
        every = estimate_stratified(data, ASSUMPTION_ORDER)
        assert every.empty.tolist() == result.empty.tolist()
        assert every.weight.tolist() == result.weight.tolist()

    def test_all_strata_dropped_errors(self):
        bad = [[0, 0, 0], [1, 1, 0]]
        with pytest.raises(ValueError, match="every stratum was dropped"):
            estimate_stratified(Dataset(labels=("b",), counts=[bad]), [AssumptionSet.A1_3])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(63)
        joints = {f"s{k}": draw_latent_joint(AssumptionSet.A1_5, rng) for k in range(5)}
        weights = {name: 1.0 / 5 for name in joints}
        data = sample_stratified_dataset(joints, weights, 4000, rng)
        result = estimate_stratified(data, [AssumptionSet.A1_5])
        assert sum(result.weight) == pytest.approx(1.0, abs=1e-12)

    def test_pooling_invariance_with_identical_strata(self):
        # All strata share one data-generating process, so the stratified
        # aggregate and the unconditional interval converge together.
        rng = np.random.default_rng(64)
        joint = draw_latent_joint(AssumptionSet.A1_5, rng)
        joints = {f"s{k}": joint for k in range(4)}
        weights = {name: 0.25 for name in joints}
        data = sample_stratified_dataset(joints, weights, 40_000, rng)
        stratified = estimate_stratified(data, [AssumptionSet.A1_5]).aggregate[AssumptionSet.A1_5]
        unconditional = compute_bounds(estimate_moments(data), AssumptionSet.A1_5)
        assert stratified["lb"] == pytest.approx(unconditional.lb, abs=0.02)
        assert stratified["ub"] == pytest.approx(unconditional.ub, abs=0.02)

    def test_synthetic_multi_stratum_aggregate_matches_truth(self):
        joints, weights, truth = build_stratified_fixture(seed=12)
        data = sample_stratified_dataset(joints, weights, 50_000, np.random.default_rng(20_001))
        aggregate = estimate_stratified(data, [AssumptionSet.A1_5]).aggregate[AssumptionSet.A1_5]
        truth_lb, truth_ub = truth[AssumptionSet.A1_5]
        assert aggregate["lb"] == pytest.approx(truth_lb, abs=0.01)
        assert aggregate["ub"] == pytest.approx(truth_ub, abs=0.01)


def test_records_recount_to_the_same_moments():
    # Counting the expanded rows by hand reproduces the pipeline's moments.
    rng = np.random.default_rng(66)
    joint = draw_latent_joint(AssumptionSet.A1_3, rng)
    data = sample_dataset(joint, 800, rng)
    counts = np.zeros((2, 3), dtype=np.int64)
    for r in data.records:
        counts[r.d, 2 if r.s == 0 else 1 - r.y] += 1
    assert estimate_moments(pooled(counts)) == estimate_moments(data)


def scalar_stratified(tables, a):
    """Stratified bounds one stratum at a time, with Python ints and sums.

    Returns ``(per_stratum, dropped, aggregate)``: per-stratum ``(bounds,
    weight, n)`` of the retained strata by position, ``(position, reason)``
    of the dropped ones, and the aggregate interval.  Each table also goes
    through ``estimate_moments``: a retained one must give these moments
    bit for bit, a dropped one must raise this reason, and an empty one is
    refused by ``Dataset`` before it gets there.
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
            with pytest.raises(ValueError) as refused:
                estimate_moments(pooled(t))
            assert str(refused.value) == (reason if n0 + n1 else "dataset must contain at least one record")
            dropped.append((k, reason))
            continue
        m = ObservedMoments(
            p_y1_s1d1=int(t[1, 0]) / s1d1,
            p_y0_s1d0=int(t[0, 1]) / s1d0,
            p_s1_d1=s1d1 / n1,
            p_s1_d0=s1d0 / n0,
            p_d1=n1 / (n0 + n1),
        )
        assert [x.hex() for x in astuple(estimate_moments(pooled(t)))] == [x.hex() for x in astuple(m)]
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
@given(table_stacks())
def test_property_stacked_tables_match_scalar_path(stack):
    fit = stratified_fields(stack, ASSUMPTION_ORDER)
    for a in ASSUMPTION_ORDER:
        for b, tables in enumerate(stack):
            per_stratum, dropped, aggregate = scalar_stratified(tables, a)
            assert [(k, EMPTY_CELLS[i]) for k, i in enumerate(fit.empty[b]) if i >= 0] == dropped
            assert [k for k in range(len(tables)) if fit.weight[b, k] == 0.0] == [k for k, _ in dropped]
            for k, (bounds, weight, _) in per_stratum.items():
                assert fit.weight[b, k] == weight
                for name, values in fit.strata[a].items():
                    assert values[b, k] == getattr(bounds, name), name
            for name, values in fit.aggregate[a].items():
                assert values[b] == getattr(aggregate, name), name


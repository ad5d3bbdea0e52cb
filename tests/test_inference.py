"""Restriction tests and bootstrap confidence intervals."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

import pocbounds.inference as inference
from _oracles import build_stratified_fixture, reference_bootstrap_bounds
from pocbounds import (
    AssumptionSet,
    BoundsInterval,
    Dataset,
    ObservedMoments,
    bootstrap_bounds,
    compute_bounds,
    estimate_moments,
    observed_from_latent,
    test_restrictions as run_restriction_tests,
)
from pocbounds.inference import UNSTABLE, _ndtr, _sorted_quantiles, one_sided_nonnegative_test
from pocbounds.latent import LatentJoint, cell_index
from pocbounds.simulate import sample_dataset, sample_stratified_dataset

REPO = Path(__file__).resolve().parents[1]


def pooled(table):
    """One-stratum dataset; rows are arms, columns ``COUNT_COLUMNS``."""
    return Dataset(labels=(None,), counts=[table])


def balanced_dataset():
    # 8 records, both arms identical: selection 1/2, success 1/2 of selected.
    return pooled([[1, 1, 2], [1, 1, 2]])


class TestRestrictionTests:
    def test_equal_proportions_give_centered_statistic(self):
        selection, outcome = run_restriction_tests(balanced_dataset())
        assert selection.stat == 0.0
        assert selection.p_value == 0.5
        assert outcome.stat == 0.0
        assert outcome.p_value == 0.5

    def test_degenerate_arms(self):
        assert one_sided_nonnegative_test(5, 5, 3, 3) == (0.0, 1.0, True)
        assert one_sided_nonnegative_test(0, 5, 3, 3) == (-np.inf, 0.0, True)
        assert one_sided_nonnegative_test(5, 5, 0, 3) == (np.inf, 1.0, True)

    def test_missing_outcomes_count_as_zero(self):
        # Treated arm: 1 success of 2 (one censored); control arm: 1 of 2
        # selected successes. Raw success rates are both 1/2.
        _, outcome = run_restriction_tests(pooled([[1, 1, 0], [1, 0, 1]]))
        assert outcome.stat == 0.0

    def test_violation_rejected_with_large_sample(self):
        # Selection rates 0.5 treated vs 0.7 control: a 0.2 violation.
        rng = np.random.default_rng(404)
        cells = [0.0] * 16
        cells[cell_index(0, 1, 1, 1)] = 0.5   # always selected
        cells[cell_index(0, 1, 1, 0)] = 0.2   # selected only untreated
        cells[cell_index(0, 0, 0, 0)] = 0.3
        joint = LatentJoint(cells=tuple(cells), p_d1=0.5)
        data = sample_dataset(joint, 5000, rng)
        selection, _ = run_restriction_tests(data)
        assert selection.p_value < 0.001

    def test_monotone_rejection_in_violation_size(self):
        # Larger selection violations must get rejected at least as often.
        rates = []
        for violation in (0.05, 0.1, 0.2):
            rejections = 0
            rng = np.random.default_rng(int(violation * 1000))
            for _ in range(300):
                n1 = int(rng.binomial(2000, 0.5))
                n0 = 2000 - n1
                k1 = int(rng.binomial(n1, 0.5))
                k0 = int(rng.binomial(n0, 0.5 + violation))
                outcome = one_sided_nonnegative_test(k1, n1, k0, n0)
                rejections += outcome.p_value < 0.05
            rates.append(rejections / 300)
        assert rates[0] <= rates[1] + 0.02 <= rates[2] + 0.04
        assert rates[2] > 0.95


def normal_tail_points():
    """Seeded bulk draws plus every branch edge of Cephes ``ndtr`` and its neighbours."""
    rng = np.random.default_rng(20240615)
    # In the argument a: ndtr switches from erf to erfc at |a| = 1, erfc
    # from 1 - erf to its first rational form at sqrt(2), to its second at
    # 8 sqrt(2), and to 0 where a^2 / 2 passes MAXLOG (about 37.7); 1/sqrt(2)
    # is the threshold's own value.
    edges = [math.sqrt(0.5), 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 7.09782712893383996843e2)]
    near = []
    for edge in edges:
        for start, toward in ((edge, math.inf), (edge, -math.inf), (-edge, math.inf), (-edge, -math.inf)):
            x = start
            for _ in range(50):
                near.append(x)
                x = math.nextafter(x, toward)
    tiny = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 1e-300, -1e-300]
    return np.concatenate([
        rng.normal(0.0, 4.0, 200_000),
        rng.uniform(-45.0, 45.0, 200_000),
        rng.uniform(-38.0, -37.4, 2_000),
        rng.uniform(37.4, 38.0, 2_000),
        near,
        tiny,
        [math.inf, -math.inf, math.nan],
    ])


class TestNormalTail:
    def test_bit_identical_to_scipy_ndtr(self):
        points = normal_tail_points()
        expected = ndtr(points)
        got = np.array([_ndtr(x) for x in points.tolist()])
        same = (got == expected) | (np.isnan(got) & np.isnan(expected))
        assert same.all(), points[~same][:5]

    def test_p_values_match_norm_cdf(self):
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(3000):
            n1, n0 = (int(n) for n in rng.integers(1, 3000, size=2))
            k1, k0 = int(rng.integers(0, n1 + 1)), int(rng.integers(0, n0 + 1))
            outcome = one_sided_nonnegative_test(k1, n1, k0, n0)
            if not outcome.degenerate:
                assert outcome.p_value == float(norm.cdf(outcome.stat)), (k1, n1, k0, n0)
                checked += 1
        assert checked > 2900


@pytest.fixture(scope="module")
def dgp_joint():
    joints, _, _ = build_stratified_fixture(seed=11, n_strata=1)
    return joints["c0"]


A1_3 = AssumptionSet.A1_3
A1_5 = AssumptionSet.A1_5


class TestBootstrapBounds:
    def test_bit_identical_under_fixed_seed(self, dgp_joint):
        data = sample_dataset(dgp_joint, 400, np.random.default_rng(1))
        first = bootstrap_bounds(data, [A1_5], reps=200, level=0.9, seed=42)
        second = bootstrap_bounds(data, [A1_5], reps=200, level=0.9, seed=42)
        assert first == second

    def test_seed_changes_output(self, dgp_joint):
        data = sample_dataset(dgp_joint, 400, np.random.default_rng(1))
        first = bootstrap_bounds(data, [A1_5], reps=200, level=0.9, seed=42).aggregate[A1_5]
        third = bootstrap_bounds(data, [A1_5], reps=200, level=0.9, seed=43).aggregate[A1_5]
        assert first.ci_lb != third.ci_lb

    def test_point_usually_inside_percentile_interval(self, dgp_joint):
        covered = 0
        trials = 120
        root = np.random.SeedSequence(909)
        for trial, child in enumerate(root.spawn(trials)):
            data = sample_dataset(dgp_joint, 400, np.random.default_rng(child))
            point = compute_bounds(estimate_moments(data), A1_5)
            boot = bootstrap_bounds(data, [A1_5], reps=200, level=0.9, seed=trial).aggregate[A1_5]
            inside = (
                boot.ci_lb[0] <= point.lb <= boot.ci_lb[1]
                and boot.ci_ub[0] <= point.ub <= boot.ci_ub[1]
            )
            covered += inside
        assert covered / trials >= 0.99

    def test_interval_endpoints_ordered_and_in_unit_range(self, dgp_joint):
        data = sample_dataset(dgp_joint, 300, np.random.default_rng(3))
        boot = bootstrap_bounds(data, [A1_3], reps=150, level=0.9, seed=5).aggregate[A1_3]
        for lo, hi in (boot.ci_lb, boot.ci_ub):
            assert 0.0 <= lo <= hi <= 1.0

    def test_stratified_resampling_uses_aggregate_statistic(self):
        joints, weights, _ = build_stratified_fixture(seed=14, n_strata=3)
        data = sample_stratified_dataset(joints, weights, 1500, np.random.default_rng(8))
        boot = bootstrap_bounds(data, [A1_5], reps=100, level=0.9, seed=21)
        assert boot.failed_replicates == 0
        # One generator draws replicate after replicate, each stratum in
        # label order; the aggregate and every stratum are scored on that draw.
        # Reference: each stratum bounded on its own, averaged by share.
        strata, aggregate_lb, aggregate_ub = [], [], []
        rng = np.random.default_rng(21)
        for _ in range(100):
            tables = [rng.multinomial(t.sum(), t.reshape(-1) / t.sum()).reshape(2, 3) for t in data.counts]
            fits = [compute_bounds(estimate_moments(pooled(t)), A1_5) for t in tables]
            shares = [int(t.sum()) / data.n for t in tables]
            strata.append(fits)
            aggregate_lb.append(sum(w * fit.lb for w, fit in zip(shares, fits)))
            aggregate_ub.append(sum(w * fit.ub for w, fit in zip(shares, fits)))

        def percentile(values):
            return tuple(float(x) for x in np.quantile(values, [0.05, 0.95]))

        assert boot.aggregate[A1_5].ci_lb == percentile(aggregate_lb)
        assert boot.aggregate[A1_5].ci_ub == percentile(aggregate_ub)
        for k, name in enumerate(data.labels):
            stratum = boot.per_stratum[A1_5][name]
            assert stratum.ci_lb == percentile([fits[k].lb for fits in strata])
            assert stratum.ci_ub == percentile([fits[k].ub for fits in strata])
        again = bootstrap_bounds(data, [A1_5], reps=100, level=0.9, seed=21)
        assert boot == again

    def test_fewer_replicates_draw_a_prefix(self, monkeypatch):
        # One stream per bootstrap: with the same seed, the replicates of a
        # smaller run are the first replicates of a larger one.
        joints, weights, _ = build_stratified_fixture(seed=14, n_strata=3)
        data = sample_stratified_dataset(joints, weights, 600, np.random.default_rng(8))
        kernel = inference.stratified_fields
        stacks = []

        def capture(counts, sets):
            stacks.append(counts)
            return kernel(counts, sets)

        monkeypatch.setattr(inference, "stratified_fields", capture)
        for reps in (200, 1000):
            bootstrap_bounds(data, [A1_5], reps=reps, seed=21)
        short, long = stacks
        assert short.shape == (200, 3, 2, 3) and long.shape == (1000, 3, 2, 3)
        np.testing.assert_array_equal(short, long[:200])

    def test_builds_no_interval_objects(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"a {type(self).__name__} was built")

        joints, weights, _ = build_stratified_fixture(seed=14, n_strata=3)
        data = sample_stratified_dataset(joints, weights, 600, np.random.default_rng(8))
        monkeypatch.setattr(ObservedMoments, "__post_init__", refuse)
        monkeypatch.setattr(BoundsInterval, "__init__", refuse)
        boot = bootstrap_bounds(data, AssumptionSet, reps=50, seed=3)
        assert boot.failed_replicates == 0
        assert all(ci is not None for a in AssumptionSet for ci in boot.per_stratum[a].values())

    def test_every_set_scored_on_the_same_draws(self, dgp_joint):
        data = sample_dataset(dgp_joint, 400, np.random.default_rng(6))
        together = bootstrap_bounds(data, AssumptionSet, reps=100, seed=9)
        for a in AssumptionSet:
            alone = bootstrap_bounds(data, [a], reps=100, seed=9)
            assert alone.aggregate[a] == together.aggregate[a]
            assert alone.per_stratum[a][None] == together.per_stratum[a][None] == alone.aggregate[a]

    def test_stratified_replicates_survive_dropped_strata(self):
        # One stratum is so small that many replicates lose a required
        # cell there; those replicates renormalize over what remains
        # rather than failing outright.
        joints, weights, _ = build_stratified_fixture(seed=15, n_strata=2)
        data = sample_stratified_dataset(joints, weights, 400, np.random.default_rng(9))
        tiny = [[1, 1, 0], [1, 0, 1]]
        data = Dataset(labels=data.labels + ("tiny",), counts=[*data.counts, tiny])
        boot = bootstrap_bounds(data, [A1_3], reps=200, level=0.9, seed=17)
        assert boot.failed_replicates < 100
        for lo, hi in (boot.aggregate[A1_3].ci_lb, boot.aggregate[A1_3].ci_ub):
            assert 0.0 <= lo <= hi <= 1.0

    def test_failed_replicates_counted(self):
        # One treated and one control-selected-failure record among three:
        # resamples frequently lose a required cell.
        data = pooled([[0, 1, 1], [1, 0, 0]])
        with pytest.raises(ValueError, match="bootstrap unstable"):
            bootstrap_bounds(data, [A1_3], reps=400, level=0.9, seed=2)

    def test_sparse_but_workable_data_reports_failures(self, dgp_joint):
        boot = bootstrap_bounds(pooled([[1, 2, 1], [2, 1, 1]]), [A1_3], reps=300, seed=3)
        assert 0 < boot.failed_replicates < 150
        assert boot.replications == 300

    def test_parameter_validation(self, dgp_joint):
        data = sample_dataset(dgp_joint, 100, np.random.default_rng(5))
        with pytest.raises(ValueError, match="reps"):
            bootstrap_bounds(data, [A1_3], reps=1, seed=0)
        with pytest.raises(ValueError, match="level"):
            bootstrap_bounds(data, [A1_3], reps=10, level=1.0, seed=0)
        with pytest.raises(ValueError, match="assumption set"):
            bootstrap_bounds(data, [], reps=10, seed=0)

    def test_truth_covered_at_moderate_sample(self, dgp_joint):
        truth = compute_bounds(observed_from_latent(dgp_joint), A1_5)
        covered_lb = covered_ub = 0
        trials = 60
        root = np.random.SeedSequence(303)
        for trial, child in enumerate(root.spawn(trials)):
            data = sample_dataset(dgp_joint, 900, np.random.default_rng(child))
            boot = bootstrap_bounds(data, [A1_5], reps=220, level=0.9, seed=trial).aggregate[A1_5]
            covered_lb += boot.ci_lb[0] <= truth.lb <= boot.ci_lb[1]
            covered_ub += boot.ci_ub[0] <= truth.ub <= boot.ci_ub[1]
        assert covered_lb / trials >= 0.8
        assert covered_ub / trials >= 0.8


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal float64 arrays bit for bit: -0.0 differs from 0.0."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSortedQuantiles:
    LEVELS = np.array([0.5, 0.9, 0.99, 0.05, 0.95, float(np.random.default_rng(31).uniform())])

    def quantiles(self, kept: list[np.ndarray], width: int) -> np.ndarray:
        """``_sorted_quantiles`` of ``kept`` sorted into ``+inf``-padded rows of ``width``."""
        rows = np.full((len(kept), width), np.inf)
        for row, values in zip(rows, kept):
            row[: len(values)] = np.sort(values)
        return _sorted_quantiles(rows, np.array([len(values) for values in kept]), self.LEVELS)

    @pytest.mark.parametrize(
        "values",
        [[0.25], [0.75, 0.25], [0.5] * 7, [0.0, 1.0, 0.0, 1.0, 1.0], [0.1, 0.7, 0.3]],
        ids=["n=1", "n=2", "tied", "two-values", "n=3"],
    )
    @pytest.mark.parametrize("padding", [0, 1, 40])
    def test_row_matches_np_quantile(self, values, padding):
        got = self.quantiles([np.array(values)], len(values) + padding)
        assert same_bits(got[0], np.quantile(values, self.LEVELS))

    def test_random_rows_match_np_quantile(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            width = int(rng.integers(1, 1200))
            kept = []
            for n in rng.integers(1, width + 1, size=int(rng.integers(1, 5))):
                kind = rng.integers(3)
                if kind == 0:
                    kept.append(rng.normal(size=n))
                elif kind == 1:  # many ties
                    kept.append(rng.integers(0, 4, size=n) / 3.0)
                else:
                    kept.append(np.full(n, rng.uniform()))
            got = self.quantiles(kept, width)
            assert same_bits(got, [np.quantile(values, self.LEVELS) for values in kept])


@st.composite
def sparse_datasets(draw):
    """Small strata whose replicates often lose a conditioning cell, with or without a large stable stratum."""
    cells = st.lists(st.integers(0, 3), min_size=6, max_size=6).filter(any)
    tables = [np.reshape(table, (2, 3)) for table in draw(st.lists(cells, min_size=1, max_size=4))]
    if draw(st.booleans()):
        tables.append(np.array([[30, 25, 20], [40, 20, 15]]))
    return Dataset(labels=tuple(f"s{k}" for k in range(len(tables))), counts=tables)


@settings(max_examples=150, deadline=None)
@given(
    sparse_datasets(),
    st.integers(2, 120),
    st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99, 0.37]),
    st.integers(0, 2**32 - 1),
)
def test_property_stacked_percentiles_match_column_reference(data, reps, level, seed):
    try:
        want = reference_bootstrap_bounds(data, AssumptionSet, reps, level, seed)
    except ValueError as err:
        assert str(err) == UNSTABLE
        with pytest.raises(ValueError, match=UNSTABLE):
            bootstrap_bounds(data, AssumptionSet, reps=reps, level=level, seed=seed)
        return
    # repr prints every float exactly and tells -0.0 from 0.0.
    assert repr(bootstrap_bounds(data, AssumptionSet, reps=reps, level=level, seed=seed)) == repr(want)


def test_dropped_strata_and_skipped_intervals_match_column_reference():
    # The tiny stratum is dropped by most replicates, past reps // 2, and the
    # aggregate loses some replicates outright.
    tables = [[[1, 1, 0], [1, 0, 1]], [[2, 2, 1], [2, 1, 1]], [[0, 1, 0], [1, 0, 0]]]
    data = Dataset(labels=("a", "b", "tiny"), counts=tables)
    got = bootstrap_bounds(data, AssumptionSet, reps=300, level=0.9, seed=4)
    assert 0 < got.failed_replicates <= 150
    assert all(got.per_stratum[a]["tiny"] is None for a in AssumptionSet)
    assert all(got.per_stratum[a]["b"] is not None for a in AssumptionSet)
    assert repr(got) == repr(reference_bootstrap_bounds(data, AssumptionSet, 300, 0.9, 4))


def test_coverage_study_script_runs():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "coverage_study.py"), "3", "200", "20"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "coverage at n=200" in proc.stdout

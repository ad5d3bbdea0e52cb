"""Closed-form bound pairs: worked examples and algebraic invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import assert_nested, draw_any_moments, weaker_or_equal
from pocbounds import (
    ASSUMPTION_ORDER,
    AssumptionSet,
    Dataset,
    ObservedMoments,
    compute_bounds,
    estimate_moments,
    restriction_violations,
    trim_ratio,
)
from pocbounds.bounds import _unit_clip

RNG = np.random.default_rng(90210)


def make_moments(p1, q0, alpha, p_s1_d1=0.8, p_d1=0.5):
    return ObservedMoments(
        p_y1_s1d1=p1,
        p_y0_s1d0=q0,
        p_s1_d1=p_s1_d1,
        p_s1_d0=alpha * p_s1_d1,
        p_d1=p_d1,
    )


class TestObservedMoments:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="p_y1_s1d1"):
            ObservedMoments(p_y1_s1d1=1.2, p_y0_s1d0=0.5, p_s1_d1=0.5, p_s1_d0=0.5)

    def test_rejects_zero_selection(self):
        with pytest.raises(ValueError, match="no selected units in treated arm"):
            ObservedMoments(p_y1_s1d1=0.5, p_y0_s1d0=0.5, p_s1_d1=0.0, p_s1_d0=0.5)
        with pytest.raises(ValueError, match="no selected units in control arm"):
            ObservedMoments(p_y1_s1d1=0.5, p_y0_s1d0=0.5, p_s1_d1=0.5, p_s1_d0=0.0)


class TestAssumptionFlags:
    def test_flags_are_the_papers_bundles(self):
        # A1-A3 alone, plus monotone response (A4), plus stochastic dominance (A5).
        assert {a: (a.a4, a.a5) for a in AssumptionSet} == {
            AssumptionSet.A1_3: (False, False),
            AssumptionSet.A1_4: (True, False),
            AssumptionSet.A1_5: (True, True),
        }

    def test_order_is_nested(self):
        # The paper's chain: each set holds every assumption the sets before it hold, and more.
        assert [a.value for a in ASSUMPTION_ORDER] == ["A1_3", "A1_4", "A1_5"]
        for weaker, stronger in zip(ASSUMPTION_ORDER, ASSUMPTION_ORDER[1:]):
            assert weaker_or_equal(weaker, stronger) and not weaker_or_equal(stronger, weaker)
        # A set is its flags: no two sets hold the same assumptions.
        assert len({(a.a4, a.a5) for a in AssumptionSet}) == len(AssumptionSet)

    def test_tokens_and_parse_are_unchanged(self):
        assert list(AssumptionSet) == [AssumptionSet.A1_3, AssumptionSet.A1_4, AssumptionSet.A1_5]
        assert [a.value for a in AssumptionSet] == ["A1_3", "A1_4", "A1_5"]
        assert [a.name for a in AssumptionSet] == ["A1_3", "A1_4", "A1_5"]
        for a in AssumptionSet:
            assert AssumptionSet(a.value) is a
            assert AssumptionSet.parse(a.value) is a
            assert AssumptionSet.parse(f" {a.value.lower()}\t") is a
        with pytest.raises(ValueError, match=r"unknown assumption set 'A1_6'; expected one of A1_3, A1_4, A1_5"):
            AssumptionSet.parse("A1_6")
        with pytest.raises(ValueError):
            AssumptionSet(("A1_4", True, False))


class TestComputeBoundsTypes:
    @pytest.mark.parametrize("scalar", [float, np.float64], ids=["float", "float64"])
    def test_fields_are_python_floats_and_bools(self, scalar):
        # Clipped below (LB), above (UB) and inside, and a violated selection restriction.
        for values in [(0.2, 0.5, 0.6, 0.5), (0.9, 0.3, 0.5, 0.45), (0.5, 0.5, 0.5, 0.6)]:
            m = ObservedMoments(*map(scalar, values))
            for a in AssumptionSet:
                interval = compute_bounds(m, a)
                for name in ("lb", "ub", "lb_raw", "ub_raw"):
                    assert type(getattr(interval, name)) is float, name
                for name in ("lb_clipped", "ub_clipped", "restriction_violated", "crossed"):
                    assert type(getattr(interval, name)) is bool, name

    def test_scalar_clip_is_numpy_clip_to_the_bit(self):
        values = [math.nan, -0.0, 0.0, 1.0, -math.inf, math.inf, -5e-324, 1.0 + 2**-52, 0.25, -2.0]
        for x in values:
            want = np.clip(x, 0.0, 1.0).item().hex()
            assert _unit_clip(x).hex() == want, x
            assert float(_unit_clip(np.float64(x))).hex() == want, x
        assert [x.hex() for x in _unit_clip(np.array(values)).tolist()] == [
            np.clip(x, 0.0, 1.0).item().hex() for x in values
        ]


class TestTrimRatio:
    def test_equal_selection_rates(self):
        m = ObservedMoments(p_y1_s1d1=0.5, p_y0_s1d0=0.5, p_s1_d1=0.5, p_s1_d0=0.5)
        assert trim_ratio(m) == 1.0

    def test_table_scale_rates(self):
        m = ObservedMoments(p_y1_s1d1=0.5, p_y0_s1d0=0.5, p_s1_d1=0.6068, p_s1_d0=0.55)
        assert trim_ratio(m) == pytest.approx(0.9064, abs=5e-4)

    def test_ratio_above_one_flags_downstream(self):
        m = ObservedMoments(p_y1_s1d1=0.5, p_y0_s1d0=0.5, p_s1_d1=0.5, p_s1_d0=0.6)
        assert trim_ratio(m) == pytest.approx(1.2)
        assert compute_bounds(m, AssumptionSet.A1_3).restriction_violated

    def test_crossed_interval_reported_without_swapping(self):
        # With the selection restriction violated the lower formula can
        # exceed the upper one; the endpoints must come back as computed.
        m = ObservedMoments(p_y1_s1d1=0.9, p_y0_s1d0=0.9, p_s1_d1=0.5, p_s1_d0=0.6)
        interval = compute_bounds(m, AssumptionSet.A1_3)
        assert interval.restriction_violated
        assert interval.crossed
        assert interval.lb > interval.ub


class TestRestrictionViolations:
    # Control cells (selected y=1, selected y=0, unselected) [40, 20, 60]:
    # raw success rate 40/120 = 1/3, as in the treated arm [20, 20, 20].
    CONTROL = [40, 20, 60]

    def test_equal_raw_success_rates_are_consistent(self):
        m = estimate_moments(Dataset(labels=(None,), counts=[self.CONTROL, [20, 20, 20]]))
        assert m.p_y1_s1d1 * m.p_s1_d1 != (1.0 - m.p_y0_s1d0) * m.p_s1_d0  # float dust
        for a in AssumptionSet:
            assert restriction_violations(m, a) == []

    def test_one_count_past_the_outcome_boundary(self):
        m = estimate_moments(Dataset(labels=(None,), counts=[self.CONTROL, [19, 21, 20]]))
        for a in AssumptionSet:
            outcome = ["P[Y=1|D=1] < P[Y=1|D=0] (outcome restriction)"] if a.a4 else []
            assert restriction_violations(m, a) == outcome

    def test_gap_of_exactly_the_tolerance_is_allowed(self):
        # Raw success rates 0 treated and (1 - 0.5) * 2e-12 == 1e-12 control:
        # the gap equals the 1e-12 tolerance, which counts as equality.
        m = ObservedMoments(p_y1_s1d1=0.0, p_y0_s1d0=0.5, p_s1_d1=0.5, p_s1_d0=2e-12)
        assert (1.0 - m.p_y0_s1d0) * m.p_s1_d0 - m.p_y1_s1d1 * m.p_s1_d1 == 1e-12
        assert restriction_violations(m, AssumptionSet.A1_4) == []

    def test_selection_compared_exactly(self):
        equal = ObservedMoments(p_y1_s1d1=0.5, p_y0_s1d0=0.5, p_s1_d1=0.5, p_s1_d0=0.5)
        assert restriction_violations(equal, AssumptionSet.A1_3) == []
        above = ObservedMoments(
            p_y1_s1d1=0.5, p_y0_s1d0=0.5, p_s1_d1=0.5, p_s1_d0=math.nextafter(0.5, 1.0)
        )
        for a in AssumptionSet:
            assert restriction_violations(above, a)[0] == "P[S=1|D=1] < P[S=1|D=0] (selection restriction)"
            assert compute_bounds(above, a).restriction_violated


class TestTableReproduction:
    """The fixture moments must reproduce the published interval triplet."""

    EXPECTED = {
        AssumptionSet.A1_3: (0.014, 0.609),
        AssumptionSet.A1_4: (0.014, 0.163),
        AssumptionSet.A1_5: (0.106, 0.163),
    }

    @pytest.mark.parametrize("a", list(AssumptionSet), ids=lambda a: a.value)
    def test_each_set(self, table_moments, a):
        lb, ub = self.EXPECTED[a]
        interval = compute_bounds(table_moments, a)
        assert interval.lb == pytest.approx(lb, abs=1e-3)
        assert interval.ub == pytest.approx(ub, abs=1e-3)
        assert not interval.restriction_violated


class TestWorkedExamples:
    def test_a13_full_clipping(self):
        interval = compute_bounds(make_moments(p1=0.4, q0=0.5, alpha=0.5), AssumptionSet.A1_3)
        assert (interval.lb, interval.ub) == (0.0, 1.0)
        assert interval.lb_clipped and interval.ub_clipped
        assert interval.ub_raw == pytest.approx(1.6)

    def test_a13_degenerate_point_one(self):
        interval = compute_bounds(make_moments(p1=1.0, q0=1.0, alpha=1.0), AssumptionSet.A1_3)
        assert (interval.lb, interval.ub) == (1.0, 1.0)
        assert not interval.lb_clipped and not interval.ub_clipped

    def test_a14_equals_a13_lower(self):
        m = make_moments(p1=0.4, q0=0.5, alpha=0.5)
        assert compute_bounds(m, AssumptionSet.A1_4).lb == compute_bounds(m, AssumptionSet.A1_3).lb

    def test_a14_upper(self):
        interval = compute_bounds(make_moments(p1=0.4, q0=0.5, alpha=0.5), AssumptionSet.A1_4)
        assert interval.lb == 0.0
        assert interval.ub == pytest.approx(0.6)

    def test_a14_degenerate_point_one(self):
        interval = compute_bounds(make_moments(p1=1.0, q0=1.0, alpha=1.0), AssumptionSet.A1_4)
        assert (interval.lb, interval.ub) == (1.0, 1.0)

    def test_a15_point_one_with_upper_clip(self):
        interval = compute_bounds(make_moments(p1=1.0, q0=1.0, alpha=0.9), AssumptionSet.A1_5)
        assert (interval.lb, interval.ub) == (1.0, 1.0)
        assert interval.ub_clipped

    def test_a15_infeasible_moments_collapse_to_zero(self):
        # p1 + q0 < 1 with alpha = 1 contradicts monotone treatment
        # response; both raw endpoints go negative and clip to a [0, 0]
        # point (the envelope oracle confirms infeasibility, see
        # test_oracle.py).
        interval = compute_bounds(make_moments(p1=0.3, q0=0.6, alpha=1.0), AssumptionSet.A1_5)
        assert (interval.lb, interval.ub) == (0.0, 0.0)
        assert interval.lb_clipped and interval.ub_clipped
        assert interval.lb_raw == pytest.approx(-1.0 / 6.0)
        assert interval.ub_raw == pytest.approx(-1.0 / 6.0)
        assert not interval.crossed

    def test_q0_zero_errors(self):
        m = ObservedMoments(p_y1_s1d1=0.5, p_y0_s1d0=0.0, p_s1_d1=0.5, p_s1_d0=0.5)
        for a in AssumptionSet:
            with pytest.raises(ValueError, match="A2"):
                compute_bounds(m, a)


class TestNestingAndRange:
    def test_nesting_on_bulk_draws(self):
        # Interval nesting must hold for every moment vector with trim
        # ratio at most one, not just on-model ones.
        for _ in range(10_000):
            m = draw_any_moments(RNG)
            intervals = {a: compute_bounds(m, a) for a in AssumptionSet}
            for interval in intervals.values():
                assert 0.0 <= interval.lb <= interval.ub <= 1.0
            assert_nested(intervals)

    def test_monotone_tightening_claims(self):
        # Adding monotone response can only lower the upper bound; adding
        # dominance can only raise the lower bound.
        for _ in range(2_000):
            m = draw_any_moments(RNG)
            assert_nested({a: compute_bounds(m, a) for a in AssumptionSet})


class TestScaleInvariance:
    @pytest.mark.parametrize("c", [0.5, 0.25, 0.0625])
    def test_power_of_two_scaling_is_bit_identical(self, c):
        # Scaling both selection rates by a power of two leaves every
        # float division exact, so the intervals must match bit for bit.
        for _ in range(200):
            m = draw_any_moments(RNG)
            scaled = ObservedMoments(
                p_y1_s1d1=m.p_y1_s1d1,
                p_y0_s1d0=m.p_y0_s1d0,
                p_s1_d1=c * m.p_s1_d1,
                p_s1_d0=c * m.p_s1_d0,
                p_d1=m.p_d1,
            )
            for a in AssumptionSet:
                assert compute_bounds(m, a) == compute_bounds(scaled, a)

    def test_general_scaling_matches_to_rounding(self):
        for _ in range(200):
            m = draw_any_moments(RNG)
            c = RNG.uniform(0.1, 1.0)
            scaled = ObservedMoments(
                p_y1_s1d1=m.p_y1_s1d1,
                p_y0_s1d0=m.p_y0_s1d0,
                p_s1_d1=c * m.p_s1_d1,
                p_s1_d0=c * m.p_s1_d0,
                p_d1=m.p_d1,
            )
            for a in AssumptionSet:
                base = compute_bounds(m, a)
                other = compute_bounds(scaled, a)
                assert other.lb == pytest.approx(base.lb, abs=1e-12)
                assert other.ub == pytest.approx(base.ub, abs=1e-12)


class TestContinuity:
    def test_lipschitz_slack_bound(self):
        # Away from the q0 = 0 and alpha = 0 walls the endpoints are
        # piecewise smooth with modest slopes; a generous K = 100 catches
        # sign and clipping bugs.
        eps = 1e-6
        for _ in range(300):
            p_s1_d1 = RNG.uniform(0.3, 0.99)
            alpha = RNG.uniform(0.5, 0.99)
            q0 = RNG.uniform(0.35, 0.99)
            p1 = RNG.uniform(0.01, 0.99)
            base = {
                "p_y1_s1d1": p1,
                "p_y0_s1d0": q0,
                "p_s1_d1": p_s1_d1,
                "p_s1_d0": alpha * p_s1_d1,
            }
            m0 = ObservedMoments(**base)
            for key in base:
                for sign in (-1.0, 1.0):
                    fields = dict(base)
                    fields[key] = fields[key] + sign * eps
                    if not 0.0 < fields[key] < 1.0:
                        continue
                    m1 = ObservedMoments(**fields)
                    for a in AssumptionSet:
                        b0 = compute_bounds(m0, a)
                        b1 = compute_bounds(m1, a)
                        assert abs(b1.lb - b0.lb) <= 100.0 * eps
                        assert abs(b1.ub - b0.ub) <= 100.0 * eps


@st.composite
def moment_vectors(draw):
    p_s1_d1 = draw(st.floats(0.05, 1.0, exclude_min=True))
    alpha = draw(st.floats(0.05, 1.0))
    return ObservedMoments(
        p_y1_s1d1=draw(st.floats(0.0, 1.0)),
        p_y0_s1d0=draw(st.floats(0.01, 1.0)),
        p_s1_d1=p_s1_d1,
        p_s1_d0=alpha * p_s1_d1,
        p_d1=draw(st.floats(0.1, 0.9)),
    )


@settings(max_examples=300, deadline=None)
@given(moment_vectors())
def test_property_nesting_and_range(m):
    intervals = {a: compute_bounds(m, a) for a in AssumptionSet}
    for interval in intervals.values():
        assert 0.0 <= interval.lb <= 1.0
        assert 0.0 <= interval.ub <= 1.0
        assert not interval.crossed
    assert_nested(intervals)


@settings(max_examples=200, deadline=None)
@given(moment_vectors())
def test_property_clip_flags_track_raw_values(m):
    for a in AssumptionSet:
        interval = compute_bounds(m, a)
        assert interval.lb_clipped == (interval.lb != interval.lb_raw)
        assert interval.ub_clipped == (interval.ub != interval.ub_raw)

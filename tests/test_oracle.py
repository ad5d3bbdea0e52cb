"""Brute-force envelope oracle against the closed-form intervals."""

import numpy as np
import pytest

from _oracles import draw_restricted_moments
from pocbounds import (
    ASSUMPTION_ORDER,
    AssumptionSet,
    ObservedMoments,
    compute_bounds,
    observed_from_latent,
    sharp_envelope_oracle,
    theta_oo,
)
from pocbounds import latent
from pocbounds.simulate import draw_latent_joint

RNG = np.random.default_rng(777)


def assert_matches_closed_forms(m, a):
    lo, hi = sharp_envelope_oracle(m, a)
    interval = compute_bounds(m, a)
    assert lo == pytest.approx(interval.lb, abs=1e-6)
    assert hi == pytest.approx(interval.ub, abs=1e-6)


def moments(p1, q0, alpha, p_s1_d1):
    return ObservedMoments(
        p_y1_s1d1=p1, p_y0_s1d0=q0, p_s1_d1=p_s1_d1, p_s1_d0=alpha * p_s1_d1
    )


class TestLpMode:
    @pytest.mark.parametrize("a", ASSUMPTION_ORDER, ids=lambda a: a.value)
    def test_matches_closed_forms_on_draws(self, a):
        rng = np.random.default_rng(101)
        for _ in range(30):
            assert_matches_closed_forms(draw_restricted_moments(rng), a)

    @pytest.mark.parametrize("a", ASSUMPTION_ORDER, ids=lambda a: a.value)
    def test_matches_closed_forms_at_equal_raw_success_rates(self, a):
        # p1 * P[S=1|D=1] == (1 - q0) * P[S=1|D=0]: the outcome-restriction
        # boundary, which draw_restricted_moments keeps away from.
        rng = np.random.default_rng(102)
        for _ in range(30):
            q0, alpha = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.98)
            assert_matches_closed_forms(moments((1.0 - q0) * alpha, q0, alpha, rng.uniform(0.2, 0.95)), a)

    @pytest.mark.parametrize("a", ASSUMPTION_ORDER, ids=lambda a: a.value)
    def test_matches_closed_forms_at_alpha_one(self, a):
        # Equal selection rates leave the NO stratum empty; p1 runs from
        # the outcome-restriction boundary 1 - q0 up to 1.
        rng = np.random.default_rng(103)
        for u in np.linspace(0.0, 1.0, 30):
            q0 = rng.uniform(0.05, 0.95)
            assert_matches_closed_forms(moments(1.0 - q0 + u * q0, q0, 1.0, rng.uniform(0.2, 0.95)), a)

    @pytest.mark.parametrize("a", ASSUMPTION_ORDER, ids=lambda a: a.value)
    def test_matches_closed_forms_on_simulated_joints(self, a):
        # The route the sharpness benchmark takes: latent draw, forward map, oracle.
        rng = np.random.default_rng(104)
        for _ in range(30):
            assert_matches_closed_forms(observed_from_latent(draw_latent_joint(a, rng)), a)

    def test_table_moments(self, table_moments):
        lo, hi = sharp_envelope_oracle(table_moments, AssumptionSet.A1_3)
        assert lo == pytest.approx(0.0137, abs=1e-4)
        assert hi == pytest.approx(0.6090, abs=1e-4)

    def test_degenerate_point_one(self):
        m = ObservedMoments(p_y1_s1d1=1.0, p_y0_s1d0=1.0, p_s1_d1=0.7, p_s1_d0=0.7)
        lo, hi = sharp_envelope_oracle(m, AssumptionSet.A1_5)
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_clipped_cases_still_match(self):
        # Heavy clipping on both ends: lb clips to 0, ub to 1.
        m = ObservedMoments(p_y1_s1d1=0.4, p_y0_s1d0=0.5, p_s1_d1=0.8, p_s1_d0=0.4)
        lo, hi = sharp_envelope_oracle(m, AssumptionSet.A1_3)
        assert lo == pytest.approx(0.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_generate_then_check_contains_truth(self):
        rng = np.random.default_rng(606)
        for _ in range(25):
            joint = draw_latent_joint(AssumptionSet.A1_3, rng)
            m = observed_from_latent(joint)
            lo, hi = sharp_envelope_oracle(m, AssumptionSet.A1_3)
            assert lo - 1e-9 <= theta_oo(joint) <= hi + 1e-9

    def test_infeasible_moments_error(self):
        # alpha = 1 with p1 + q0 < 1 contradicts monotone response, so
        # the feasible set under the stronger bundles is empty.
        m = ObservedMoments(p_y1_s1d1=0.3, p_y0_s1d0=0.6, p_s1_d1=0.8, p_s1_d0=0.8)
        for a in (AssumptionSet.A1_4, AssumptionSet.A1_5):
            with pytest.raises(ValueError, match="inconsistent"):
                sharp_envelope_oracle(m, a)
        lo, hi = sharp_envelope_oracle(m, AssumptionSet.A1_3)
        assert lo <= hi
        # q0 = 0 (no A2) and a selection-violating vector are refused under every bundle.
        no_q0 = ObservedMoments(p_y1_s1d1=0.5, p_y0_s1d0=0.0, p_s1_d1=0.6, p_s1_d0=0.5)
        selection = ObservedMoments(p_y1_s1d1=0.5, p_y0_s1d0=0.5, p_s1_d1=0.5, p_s1_d0=0.5 + 1e-9)
        for bad in (no_q0, selection):
            for a in ASSUMPTION_ORDER:
                with pytest.raises(ValueError):
                    sharp_envelope_oracle(bad, a)

    def test_equal_selection_rates(self):
        # Zero mass on the NO stratum: only the OO cells can move.
        m = ObservedMoments(p_y1_s1d1=0.6, p_y0_s1d0=0.7, p_s1_d1=0.5, p_s1_d0=0.5)
        for a in ASSUMPTION_ORDER:
            assert_matches_closed_forms(m, a)

    def test_trim_ratio_above_one_rejected(self):
        m = ObservedMoments(p_y1_s1d1=0.5, p_y0_s1d0=0.5, p_s1_d1=0.5, p_s1_d0=0.6)
        with pytest.raises(ValueError, match="selection restriction"):
            sharp_envelope_oracle(m, AssumptionSet.A1_3)


class TestOneSolvePerCall:
    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = latent.linprog

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return solve(*args, **kwargs)

        monkeypatch.setattr(latent, "linprog", counting)
        return calls

    @pytest.mark.parametrize("a", ASSUMPTION_ORDER, ids=lambda a: a.value)
    def test_one_solve_gives_both_endpoints(self, solves, a):
        m = draw_restricted_moments(np.random.default_rng(105))
        assert m.p_s1_d1 > m.p_s1_d0
        assert_matches_closed_forms(m, a)
        assert len(solves) == 1
        # The A5 dominance row is present on both copies only when P[NO] > 0.
        inequality = solves[0]["A_ub"]
        if a is AssumptionSet.A1_5:
            assert inequality.shape == (2, 32)
        else:
            assert inequality is None

    def test_one_solve_with_empty_no_stratum(self, solves):
        m = ObservedMoments(p_y1_s1d1=0.6, p_y0_s1d0=0.7, p_s1_d1=0.5, p_s1_d0=0.5)
        assert_matches_closed_forms(m, AssumptionSet.A1_5)
        assert len(solves) == 1 and solves[0]["A_ub"] is None

    @pytest.mark.parametrize("a", [AssumptionSet.A1_4, AssumptionSet.A1_5], ids=lambda a: a.value)
    def test_infeasible_after_one_solve(self, solves, a):
        m = ObservedMoments(p_y1_s1d1=0.3, p_y0_s1d0=0.6, p_s1_d1=0.8, p_s1_d0=0.8)
        with pytest.raises(ValueError, match="inconsistent"):
            sharp_envelope_oracle(m, a)
        assert len(solves) == 1

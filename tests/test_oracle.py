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


    def test_endpoints_are_python_floats(self):
        lo, hi = sharp_envelope_oracle(draw_restricted_moments(np.random.default_rng(109)), AssumptionSet.A1_5)
        assert type(lo) is float and type(hi) is float


def moment_values(m):
    """What the five moment rows of a copy match, denominators cleared."""
    return [1.0, m.p_s1_d1, m.p_s1_d0, m.p_y1_s1d1 * m.p_s1_d1, m.p_y0_s1d0 * m.p_s1_d0]


def expected_rows():
    """The oracle's constraint rows on both copies, built from the cell bits.

    Per copy, five moment rows and then ``P[Y1=1, OO]``, the row A5 bounds
    below.  No moment and no assumption set changes them.
    """
    y0, y1, s0, s1 = np.array(latent.CELL_ORDER).T
    return np.kron(np.eye(2), np.vstack([np.ones(16), s1, s0, y1 * s1, (1 - y0) * s0, y1 * s1 * s0]))


def dominance_rows(m, a):
    """The constraint rows of the earlier oracle, which wrote A5 as coefficients.

    Five moment rows per copy, then under A1_5 with P[NO] > 0 one dominance
    row per copy: ``P[NO] * P[Y1=1, OO] - P[OO] * P[Y1=1, NO] >= 0``.
    """
    y0, y1, s0, s1 = np.array(latent.CELL_ORDER).T
    rows = [np.kron(np.eye(2), np.vstack([np.ones(16), s1, s0, y1 * s1, (1 - y0) * s0]))]
    mass_no = m.p_s1_d1 - m.p_s1_d0
    if a is AssumptionSet.A1_5 and mass_no > 0.0:
        rows.append(np.kron(np.eye(2), y1 * s1 * np.where(s0 == 1, mass_no, -m.p_s1_d0)))
    return np.vstack(rows)


def dominance_envelope(m, a):
    """Both endpoints from the earlier program, solved through ``latent.linprog``."""
    rows = dominance_rows(m, a)
    b_eq = np.tile(moment_values(m), 2)
    dominance = len(rows) - 10
    lower = np.concatenate([b_eq, np.zeros(dominance)])
    upper = np.concatenate([b_eq, np.full(dominance, np.inf)])
    target = latent.cell_index(0, 1, 1, 1)
    objective = np.zeros(32)
    objective[[target, 16 + target]] = 1.0, -1.0
    res = latent.linprog(objective, rows, lower, upper, np.tile(~latent.forbidden_cells(a), 2).astype(float))
    assert res.success, res.message
    denominator = m.p_y0_s1d0 * m.p_s1_d0
    return res.x[target] / denominator, res.x[16 + target] / denominator


class TestDominanceAsFloor:
    """A5 as a floor on ``P[Y1=1, OO]`` solves to the dominance-row program's endpoints."""

    @staticmethod
    def assert_matches_dominance_rows(m, a):
        assert sharp_envelope_oracle(m, a) == pytest.approx(dominance_envelope(m, a), abs=1e-12, rel=0)

    @pytest.mark.parametrize("a", ASSUMPTION_ORDER, ids=lambda a: a.value)
    def test_on_simulated_joints(self, a):
        rng = np.random.default_rng(108)
        for _ in range(300):
            self.assert_matches_dominance_rows(observed_from_latent(draw_latent_joint(a, rng)), a)

    @pytest.mark.parametrize("a", ASSUMPTION_ORDER, ids=lambda a: a.value)
    def test_at_alpha_one(self, a):
        rng = np.random.default_rng(103)
        for u in np.linspace(0.0, 1.0, 30):
            q0 = rng.uniform(0.05, 0.95)
            self.assert_matches_dominance_rows(moments(1.0 - q0 + u * q0, q0, 1.0, rng.uniform(0.2, 0.95)), a)

    @pytest.mark.parametrize("a", ASSUMPTION_ORDER, ids=lambda a: a.value)
    def test_at_equal_raw_success_rates(self, a):
        rng = np.random.default_rng(102)
        for _ in range(30):
            q0, alpha = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.98)
            self.assert_matches_dominance_rows(moments((1.0 - q0) * alpha, q0, alpha, rng.uniform(0.2, 0.95)), a)


class TestOneSolvePerCall:
    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = latent.linprog

        def counting(c, a, lower, upper, ub):
            calls.append((c, a, lower, upper, ub))
            return solve(c, a, lower, upper, ub)

        monkeypatch.setattr(latent, "linprog", counting)
        return calls

    @staticmethod
    def assert_program(solve, m, a):
        # One constant matrix for every set and every call; the moments and
        # the A5 floor, vacuous outside A1_5, are row bounds.
        _, rows, lower, upper, ub = solve
        assert rows is latent._program().rows
        assert rows.shape == (12, 32)
        assert np.array_equal(rows.toarray(), expected_rows())
        floor = m.p_y1_s1d1 * m.p_s1_d0 if a is AssumptionSet.A1_5 else 0.0
        assert np.array_equal(lower, np.tile([*moment_values(m), floor], 2))
        assert np.array_equal(upper, np.tile([*moment_values(m), np.inf], 2))
        assert np.array_equal(ub, np.tile(~latent.forbidden_cells(a), 2))

    @pytest.mark.parametrize("a", ASSUMPTION_ORDER, ids=lambda a: a.value)
    def test_one_solve_gives_both_endpoints(self, solves, a):
        m = draw_restricted_moments(np.random.default_rng(105))
        assert m.p_s1_d1 > m.p_s1_d0
        assert_matches_closed_forms(m, a)
        assert len(solves) == 1
        self.assert_program(solves[0], m, a)

    def test_one_solve_with_empty_no_stratum(self, solves):
        # P[NO] = 0: the A5 floor equals P[Y1=1, OO], which the moment rows pin.
        m = ObservedMoments(p_y1_s1d1=0.6, p_y0_s1d0=0.7, p_s1_d1=0.5, p_s1_d0=0.5)
        assert_matches_closed_forms(m, AssumptionSet.A1_5)
        assert len(solves) == 1
        self.assert_program(solves[0], m, AssumptionSet.A1_5)

    @pytest.mark.parametrize("a", [AssumptionSet.A1_4, AssumptionSet.A1_5], ids=lambda a: a.value)
    def test_infeasible_after_one_solve(self, solves, a):
        m = ObservedMoments(p_y1_s1d1=0.3, p_y0_s1d0=0.6, p_s1_d1=0.8, p_s1_d0=0.8)
        with pytest.raises(ValueError, match="inconsistent"):
            sharp_envelope_oracle(m, a)
        assert len(solves) == 1

    def test_cached_rows_do_not_leak_between_calls(self, solves):
        # Every call passes the cached rows themselves; none writes into them.
        rng = np.random.default_rng(106)
        calls = [(draw_restricted_moments(rng), a) for a in (*ASSUMPTION_ORDER[::-1], *ASSUMPTION_ORDER)]
        for m, a in calls:
            assert_matches_closed_forms(m, a)
        assert len(solves) == len(calls)
        for solve, (m, a) in zip(solves, calls):
            self.assert_program(solve, m, a)

    def test_cached_arrays_are_read_only(self, solves):
        # The solve gets the cached objective, rows and bounds themselves.
        sharp_envelope_oracle(draw_restricted_moments(np.random.default_rng(107)), AssumptionSet.A1_3)
        program = latent._program()
        c, rows, _, _, ub = solves[0]
        assert c is program.objective and rows is program.rows
        assert ub is latent._upper_bounds(AssumptionSet.A1_3)
        arrays = [program.objective, program.rows.data, program.rows.indices, program.rows.indptr]
        arrays += [latent._upper_bounds(a) for a in ASSUMPTION_ORDER]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

"""Brute-force envelope oracle against the closed-form intervals and HiGHS references."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import milp

from _oracles import draw_restricted_moments, exact_envelope
from pocbounds import (
    AssumptionSet,
    ObservedMoments,
    compute_bounds,
    observed_from_latent,
    restriction_violations,
    sharp_envelope_oracle,
    theta_oo,
)
from pocbounds import latent
from pocbounds.bounds import bound_fields
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
    @pytest.mark.parametrize("a", list(AssumptionSet), ids=lambda a: a.value)
    def test_matches_closed_forms_on_draws(self, a):
        rng = np.random.default_rng(101)
        for _ in range(30):
            assert_matches_closed_forms(draw_restricted_moments(rng), a)

    @pytest.mark.parametrize("a", list(AssumptionSet), ids=lambda a: a.value)
    def test_matches_closed_forms_at_equal_raw_success_rates(self, a):
        # p1 * P[S=1|D=1] == (1 - q0) * P[S=1|D=0]: the outcome-restriction
        # boundary, which draw_restricted_moments keeps away from.
        rng = np.random.default_rng(102)
        for _ in range(30):
            q0, alpha = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.98)
            assert_matches_closed_forms(moments((1.0 - q0) * alpha, q0, alpha, rng.uniform(0.2, 0.95)), a)

    @pytest.mark.parametrize("a", list(AssumptionSet), ids=lambda a: a.value)
    def test_matches_closed_forms_at_alpha_one(self, a):
        # Equal selection rates leave the NO stratum empty; p1 runs from
        # the outcome-restriction boundary 1 - q0 up to 1.
        rng = np.random.default_rng(103)
        for u in np.linspace(0.0, 1.0, 30):
            q0 = rng.uniform(0.05, 0.95)
            assert_matches_closed_forms(moments(1.0 - q0 + u * q0, q0, 1.0, rng.uniform(0.2, 0.95)), a)

    @pytest.mark.parametrize("a", list(AssumptionSet), ids=lambda a: a.value)
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
        for a in AssumptionSet:
            if a.a4:
                with pytest.raises(ValueError, match="inconsistent"):
                    sharp_envelope_oracle(m, a)
            else:
                lo, hi = sharp_envelope_oracle(m, a)
                assert lo <= hi
        # q0 = 0 (no A2) and a selection-violating vector are refused under every bundle.
        no_q0 = ObservedMoments(p_y1_s1d1=0.5, p_y0_s1d0=0.0, p_s1_d1=0.6, p_s1_d0=0.5)
        selection = ObservedMoments(p_y1_s1d1=0.5, p_y0_s1d0=0.5, p_s1_d1=0.5, p_s1_d0=0.5 + 1e-9)
        for bad in (no_q0, selection):
            for a in AssumptionSet:
                with pytest.raises(ValueError):
                    sharp_envelope_oracle(bad, a)

    def test_equal_selection_rates(self):
        # Zero mass on the NO stratum: only the OO cells can move.
        m = ObservedMoments(p_y1_s1d1=0.6, p_y0_s1d0=0.7, p_s1_d1=0.5, p_s1_d0=0.5)
        for a in AssumptionSet:
            assert_matches_closed_forms(m, a)

    def test_trim_ratio_above_one_rejected(self):
        m = ObservedMoments(p_y1_s1d1=0.5, p_y0_s1d0=0.5, p_s1_d1=0.5, p_s1_d0=0.6)
        with pytest.raises(ValueError, match="selection restriction"):
            sharp_envelope_oracle(m, AssumptionSet.A1_3)

    def test_endpoints_are_python_floats(self):
        lo, hi = sharp_envelope_oracle(draw_restricted_moments(np.random.default_rng(109)), AssumptionSet.A1_5)
        assert type(lo) is float and type(hi) is float

    def test_endpoints_clipped_at_a_tolerated_gap_over_a_tiny_denominator(self):
        # The raw success-rate gap is exactly the 1e-12 tolerance, so a basic
        # solution whose target cell is -1e-12 is kept; over the denominator
        # q0 * P[S=1|D=0] = 1e-12 it read -1.0 before the clip.
        m = ObservedMoments(p_y1_s1d1=0.0, p_y0_s1d0=0.5, p_s1_d1=0.5, p_s1_d0=2e-12)
        interval = compute_bounds(m, AssumptionSet.A1_4)
        assert sharp_envelope_oracle(m, AssumptionSet.A1_4) == (interval.lb, interval.ub) == (0.0, 0.0)

    @pytest.mark.parametrize("a", list(AssumptionSet), ids=lambda a: a.value)
    def test_refuses_exactly_what_restriction_violations_flags(self, a):
        # p1 shifted off the outcome-restriction boundary
        # p1 * P[S=1|D=1] = (1 - q0) * P[S=1|D=0]: the oracle solves within
        # the 1e-12 gap that restriction_violations allows and refuses past it.
        rng = np.random.default_rng(110)
        for _ in range(60):
            q0, alpha, p_s1_d1 = rng.uniform(0.05, 0.95), rng.uniform(0.05, 1.0), rng.uniform(0.2, 0.95)
            for shift in (0.0, 1e-12, -1e-12, -1e-10, -1e-8, -1e-6):
                m = moments((1.0 - q0) * alpha + shift, q0, alpha, p_s1_d1)
                if restriction_violations(m, a):
                    with pytest.raises(ValueError, match="inconsistent"):
                        sharp_envelope_oracle(m, a)
                else:
                    lo, hi = sharp_envelope_oracle(m, a)
                    assert lo <= hi


def draw_count_tables(rng, n):
    """``n`` count tables (control, treated) of 2-40 units per arm that satisfy the selection restriction.

    Each arm is (selected ``y = 1``, selected ``y = 0``, unselected), with a
    selected control failure and a selected treated unit.  Every third
    table has equal arms, so both restrictions hold with equality.
    """
    def arm():
        return tuple(rng.multinomial(rng.integers(2, 41), rng.dirichlet(np.ones(3))).tolist())

    tables = []
    while len(tables) < n:
        control = arm()
        treated = control if len(tables) % 3 == 0 else arm()
        (c1, c0, _), (t1, t0, _) = control, treated
        if c0 and t1 + t0 and (t1 + t0) * sum(control) >= (c1 + c0) * sum(treated):
            tables.append((control, treated))
    return tables


def test_exact_envelope_equals_closed_forms_on_count_tables():
    # In exact arithmetic the oracle's program and the closed forms agree with
    # no tolerance, at the restriction equalities too, and the program has no
    # feasible vertex exactly where restriction_violations flags the table.
    mismatches, refused = [], 0
    for control, treated in draw_count_tables(np.random.default_rng(115), 1000):
        (c1, c0, u0), (t1, t0, u1) = control, treated
        m = ObservedMoments(
            p_y1_s1d1=Fraction(t1, t1 + t0),
            p_y0_s1d0=Fraction(c0, c1 + c0),
            p_s1_d1=Fraction(t1 + t0, t1 + t0 + u1),
            p_s1_d0=Fraction(c1 + c0, c1 + c0 + u0),
        )
        for a in AssumptionSet:
            envelope = exact_envelope(control, treated, a)
            refused += envelope is None
            fields = bound_fields(m, a)
            expected = None if restriction_violations(m, a) else (fields["lb"], fields["ub"])
            if envelope != expected:
                mismatches.append((control, treated, a.value, envelope, expected))
    assert mismatches == []
    assert refused > 0


def moment_values(m):
    """What the five moment rows of a copy match, denominators cleared."""
    return [1.0, m.p_s1_d1, m.p_s1_d0, m.p_y1_s1d1 * m.p_s1_d1, m.p_y0_s1d0 * m.p_s1_d0]


def expected_rows():
    """The constant program's rows on both copies, built from the cell bits.

    Per copy, five moment rows and then ``P[Y1=1, OO]``, the row A5 bounds
    below.  No moment and no assumption set changes them.
    """
    y0, y1, s0, s1 = np.array(latent.CELL_ORDER).T
    return np.kron(np.eye(2), np.vstack([np.ones(16), s1, s0, y1 * s1, (1 - y0) * s0, y1 * s1 * s0]))


def highs_envelope(m, a, rows, lower, upper):
    """Both endpoints of a two-copy program, the first copy minimizing the target cell and the second maximizing it.

    HiGHS solves it through ``scipy.optimize.milp`` with no integer variables.
    """
    target = latent.cell_index(0, 1, 1, 1)
    objective = np.zeros(32)
    objective[[target, 16 + target]] = 1.0, -1.0
    ub = np.tile(~latent.forbidden_cells(a), 2).astype(float)
    res = milp(objective, bounds=(0.0, ub), constraints=(rows, lower, upper))
    assert res.success, res.message
    denominator = m.p_y0_s1d0 * m.p_s1_d0
    return res.x[target] / denominator, res.x[16 + target] / denominator


def constant_envelope(m, a):
    """Both endpoints from the constant program: the moments, and the A5 floor as a row bound."""
    floor = m.p_y1_s1d1 * m.p_s1_d0 if a.a5 else 0.0
    lower = np.tile([*moment_values(m), floor], 2)
    upper = np.tile([*moment_values(m), np.inf], 2)
    return highs_envelope(m, a, expected_rows(), lower, upper)


def dominance_rows(m, a):
    """The constraint rows of the earlier oracle, which wrote A5 as coefficients.

    Five moment rows per copy, then under A5 with P[NO] > 0 one dominance
    row per copy: ``P[NO] * P[Y1=1, OO] - P[OO] * P[Y1=1, NO] >= 0``.
    """
    y0, y1, s0, s1 = np.array(latent.CELL_ORDER).T
    rows = [np.kron(np.eye(2), np.vstack([np.ones(16), s1, s0, y1 * s1, (1 - y0) * s0]))]
    mass_no = m.p_s1_d1 - m.p_s1_d0
    if a.a5 and mass_no > 0.0:
        rows.append(np.kron(np.eye(2), y1 * s1 * np.where(s0 == 1, mass_no, -m.p_s1_d0)))
    return np.vstack(rows)


def dominance_envelope(m, a):
    """Both endpoints from the earlier program, with A5 as dominance rows."""
    rows = dominance_rows(m, a)
    b_eq = np.tile(moment_values(m), 2)
    dominance = len(rows) - 10
    lower = np.concatenate([b_eq, np.zeros(dominance)])
    upper = np.concatenate([b_eq, np.full(dominance, np.inf)])
    return highs_envelope(m, a, rows, lower, upper)


class MatchesReference:
    """The oracle gives ``reference``'s endpoints to 1e-12 on three corpora."""

    reference = None

    def assert_matches_reference(self, m, a):
        assert sharp_envelope_oracle(m, a) == pytest.approx(self.reference(m, a), abs=1e-12, rel=0)

    @pytest.mark.parametrize("a", list(AssumptionSet), ids=lambda a: a.value)
    def test_on_simulated_joints(self, a):
        rng = np.random.default_rng(108)
        for _ in range(300):
            self.assert_matches_reference(observed_from_latent(draw_latent_joint(a, rng)), a)

    @pytest.mark.parametrize("a", list(AssumptionSet), ids=lambda a: a.value)
    def test_at_alpha_one(self, a):
        rng = np.random.default_rng(103)
        for u in np.linspace(0.0, 1.0, 30):
            q0 = rng.uniform(0.05, 0.95)
            self.assert_matches_reference(moments(1.0 - q0 + u * q0, q0, 1.0, rng.uniform(0.2, 0.95)), a)

    @pytest.mark.parametrize("a", list(AssumptionSet), ids=lambda a: a.value)
    def test_at_equal_raw_success_rates(self, a):
        rng = np.random.default_rng(102)
        for _ in range(30):
            q0, alpha = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.98)
            self.assert_matches_reference(moments((1.0 - q0) * alpha, q0, alpha, rng.uniform(0.2, 0.95)), a)


class TestDominanceAsFloor(MatchesReference):
    """A5 as a floor on ``P[Y1=1, OO]`` solves to the dominance-row program's endpoints."""

    reference = staticmethod(dominance_envelope)


class TestConstantProgram(MatchesReference):
    """The vertices give the endpoints HiGHS finds for the constant program."""

    reference = staticmethod(constant_envelope)


def program_columns(a):
    """The constant program's first copy over the cells ``a`` allows, with the A5 slack column under A5.

    Returns the matrix over all 16 cells (and the slack) and the allowed columns.
    """
    rows = expected_rows()[:6, :16]
    allowed = list(np.flatnonzero(~latent.forbidden_cells(a)))
    if a.a5:
        return np.hstack([rows, [[0.0]] * 5 + [[-1.0]]]), allowed + [16]
    return rows[:5], allowed


class TestOneSolvePerCall:
    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = latent.linprog

        def counting(vertices, b):
            calls.append((vertices, b))
            return solve(vertices, b)

        monkeypatch.setattr(latent, "linprog", counting)
        return calls

    @staticmethod
    def assert_program(solve, m, a):
        # The set's cached vertices; the moments and, under A5, its
        # floor are the right-hand side.
        vertices, b = solve
        assert vertices is latent._vertices(a)
        floor = [m.p_y1_s1d1 * m.p_s1_d0] if a.a5 else []
        assert np.array_equal(b, [*moment_values(m), *floor])

    @pytest.mark.parametrize("a", list(AssumptionSet), ids=lambda a: a.value)
    def test_vertices_are_every_basis_of_the_program(self, a):
        # Each stored map is the exact inverse of one nonsingular basis of
        # the constant program's first copy, and every such basis is stored.
        rows, allowed = program_columns(a)
        n_rows = len(rows)
        bases = [
            basis for basis in itertools.combinations(allowed, n_rows)
            if np.linalg.matrix_rank(rows[:, basis]) == n_rows
        ]
        vertices = latent._vertices(a)
        assert vertices.shape == (len(bases), rows.shape[1], n_rows)
        assert len(bases) == {AssumptionSet.A1_3: 128, AssumptionSet.A1_4: 28, AssumptionSet.A1_5: 36}[a]
        stored = []
        for inverse in vertices:
            basis = tuple(np.flatnonzero(inverse.any(axis=1)))
            assert np.array_equal(inverse[list(basis)] @ rows[:, basis], np.eye(n_rows))
            stored.append(basis)
        assert sorted(stored) == sorted(bases)

    @pytest.mark.parametrize("a", list(AssumptionSet), ids=lambda a: a.value)
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

    @pytest.mark.parametrize("a", [a for a in AssumptionSet if a.a4], ids=lambda a: a.value)
    def test_infeasible_after_one_solve(self, solves, a):
        m = ObservedMoments(p_y1_s1d1=0.3, p_y0_s1d0=0.6, p_s1_d1=0.8, p_s1_d0=0.8)
        with pytest.raises(ValueError, match="inconsistent"):
            sharp_envelope_oracle(m, a)
        assert len(solves) == 1
        self.assert_program(solves[0], m, a)

    def test_cached_rows_do_not_leak_between_calls(self, solves):
        # Every call passes its set's cached vertices themselves; none writes into them.
        rng = np.random.default_rng(106)
        calls = [(draw_restricted_moments(rng), a) for a in (*reversed(AssumptionSet), *AssumptionSet)]
        for m, a in calls:
            assert_matches_closed_forms(m, a)
        assert len(solves) == len(calls)
        for solve, (m, a) in zip(solves, calls):
            self.assert_program(solve, m, a)

    @pytest.mark.parametrize("a", list(AssumptionSet), ids=lambda a: a.value)
    def test_flat_product_matches_the_stacked_product(self, a):
        # linprog multiplies the bases stacked into one matrix; every bit
        # must agree with one product per basis.
        rng = np.random.default_rng(108 + tuple(AssumptionSet).index(a))
        vertices = latent._vertices(a)
        rows = vertices.shape[2]
        right_hand_sides = []
        for _ in range(2000):
            m = draw_restricted_moments(rng)
            floor = [m.p_y1_s1d1 * m.p_s1_d0] if a.a5 else []
            right_hand_sides.append(np.array([*moment_values(m), *floor]))
        right_hand_sides += list(rng.standard_normal((2000, rows)))
        for b in right_hand_sides:
            assert np.array_equal(latent.linprog(vertices, b), np.matmul(vertices, b))

    def test_cached_arrays_are_read_only(self, solves):
        # The solve gets the cached vertices themselves.
        sharp_envelope_oracle(draw_restricted_moments(np.random.default_rng(107)), AssumptionSet.A1_3)
        assert solves[0][0] is latent._vertices(AssumptionSet.A1_3)
        for a in AssumptionSet:
            array = latent._vertices(a)
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

"""Latent model: checks, target functional, forward map, attainment recipes."""

import hashlib
import itertools
import math
import re
from dataclasses import astuple

import numpy as np
import pytest

import pocbounds
import pocbounds.latent as latent
import pocbounds.simulate as simulate
from _oracles import ASSUMPTION_SETS, draw_restricted_moments, reference_holds, reference_moments
from pocbounds import (
    ASSUMPTION_ORDER,
    AssumptionSet,
    Dataset,
    LatentJoint,
    ObservedMoments,
    check_assumptions,
    compute_bounds,
    construct_bound_distribution,
    construct_interior_distribution,
    estimate_moments,
    observed_from_latent,
    theta_oo,
    trim_ratio,
)
from pocbounds.latent import CELL_ORDER, Side, cell_index
from pocbounds.simulate import draw_latent_joint, sample_dataset

RNG = np.random.default_rng(431)


def uniform_joint(p_d1=0.5) -> LatentJoint:
    return LatentJoint(cells=(1.0 / 16,) * 16, p_d1=p_d1)


def point_mass_joint(y0, y1, s0, s1, p_d1=0.5) -> LatentJoint:
    cells = [0.0] * 16
    cells[cell_index(y0, y1, s0, s1)] = 1.0
    return LatentJoint(cells=tuple(cells), p_d1=p_d1)


class TestLatentJointType:
    def test_cell_order_is_bit_packed(self):
        for idx, (y0, y1, s0, s1) in enumerate(CELL_ORDER):
            assert idx == 8 * y0 + 4 * y1 + 2 * s0 + s1

    def test_rejects_negative_mass(self):
        cells = [1.0 / 16] * 16
        cells[3] = -0.01
        cells[4] = 2.0 / 16 + 0.01
        with pytest.raises(ValueError, match="invalid mass"):
            LatentJoint(cells=tuple(cells), p_d1=0.5)

    @pytest.mark.parametrize("bad", [math.nan, -0.01], ids=["nan", "negative"])
    @pytest.mark.parametrize("position", range(16))
    def test_rejects_invalid_mass_at_each_cell(self, position, bad):
        # A NaN past position 0 would also pass the fsum total check.
        cells = [1.0 / 16] * 16
        cells[position] = bad
        message = f"cell {CELL_ORDER[position]} has invalid mass {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            LatentJoint(cells=tuple(cells), p_d1=0.5)

    def test_rejects_negative_numpy_float32(self):
        cells = [1.0 / 16] * 16
        cells[9] = np.float32(-0.01)
        with pytest.raises(ValueError, match=re.escape(f"cell {CELL_ORDER[9]} has invalid mass")):
            LatentJoint(cells=tuple(cells), p_d1=0.5)

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum to"):
            LatentJoint(cells=(0.1,) * 16, p_d1=0.5)

    def test_rejects_degenerate_treated_share(self):
        with pytest.raises(ValueError, match="p_d1"):
            LatentJoint(cells=(1.0 / 16,) * 16, p_d1=1.0)


LATENT_EXPORTS = (
    "CELL_ORDER",
    "AssumptionReport",
    "LatentJoint",
    "Side",
    "check_assumptions",
    "construct_bound_distribution",
    "construct_interior_distribution",
    "observed_from_latent",
    "sharp_envelope_oracle",
    "theta_oo",
)


class TestPublicNames:
    """The package binds every public name at import, the latent module's among them."""

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from pocbounds import *", namespace)
        for name in pocbounds.__all__:
            assert namespace[name] is getattr(pocbounds, name)
        assert set(pocbounds.__all__) <= set(dir(pocbounds))

    @pytest.mark.parametrize("name", LATENT_EXPORTS)
    def test_latent_names_are_the_latent_objects(self, name):
        assert name in pocbounds.__all__
        assert getattr(pocbounds, name) is getattr(latent, name)


class TestCheckAssumptions:
    def test_uniform_joint(self):
        report = check_assumptions(uniform_joint())
        assert report.holds_a2
        assert not report.holds_a3  # mass 4/16 sits on the ON stratum
        assert not report.holds_a4

    def test_point_mass_complier(self):
        report = check_assumptions(point_mass_joint(0, 1, 1, 1))
        assert report.holds_a2 and report.holds_a3
        assert report.holds_a4 and report.holds_a5
        assert any("vacuous" in note for note in report.details)

    def test_lower_constructions_satisfy_their_sets(self):
        for _ in range(25):
            m = draw_restricted_moments(RNG)
            for a in ASSUMPTION_SETS:
                joint = construct_bound_distribution(m, a, Side.LOWER)
                assert check_assumptions(joint).holds(a)

    def test_a13_lower_construction_passes_first_three(self):
        m = draw_restricted_moments(np.random.default_rng(12))
        report = check_assumptions(construct_bound_distribution(m, AssumptionSet.A1_3, Side.LOWER))
        assert report.holds_a2 and report.holds_a3

    def test_a4_scope_skips_never_selected(self):
        # The recipes spread NN mass over all four outcome pairs, so the
        # (1,0) pair carries mass there; the A4 verdict must not depend on
        # cells whose outcomes are censored under both arms.
        m = draw_restricted_moments(np.random.default_rng(3))
        joint = construct_bound_distribution(m, AssumptionSet.A1_4, Side.UPPER)
        assert joint.cells[cell_index(1, 0, 0, 0)] > 0.0
        report = check_assumptions(joint)
        assert report.holds_a4
        assert any("NN stratum" in note for note in report.details)

    def test_a5_violation_detected(self):
        # All OO treated outcomes zero, all NO treated outcomes one.
        cells = [0.0] * 16
        cells[cell_index(0, 0, 1, 1)] = 0.5
        cells[cell_index(0, 1, 0, 1)] = 0.5
        report = check_assumptions(LatentJoint(cells=tuple(cells), p_d1=0.5))
        assert not report.holds_a5

    def test_reports_and_theta_are_pinned(self):
        # Every field and note of the report, and theta_oo's exact value or
        # error, over joints that reach each branch: the point masses, sparse
        # joints (empty strata, empty target cells, A5 failures) and draws
        # from every assumption set.
        rng = np.random.default_rng(2024)
        joints = [point_mass_joint(*cell) for cell in CELL_ORDER]
        for _ in range(3000):
            support = rng.choice(16, size=rng.integers(1, 7), replace=False)
            cells = np.zeros(16)
            cells[support] = rng.dirichlet(np.ones(len(support)))
            joints.append(LatentJoint(cells=tuple(cells.tolist()), p_d1=float(rng.uniform(0.05, 0.95))))
        for a in ASSUMPTION_ORDER:
            joints += [draw_latent_joint(a, rng) for _ in range(200)]
        digest = hashlib.sha256()
        for joint in joints:
            report = check_assumptions(joint)
            try:
                theta = theta_oo(joint).hex()
            except ValueError as err:
                theta = str(err)
            fields = (report.holds_a2, report.holds_a3, report.holds_a4, report.holds_a5, report.details, theta)
            digest.update(f"{fields!r}\n".encode())
        assert digest.hexdigest() == "a13d6be2b381de46ed9c17f63e56efc96cfd977523cf1c4ac01a824ee61c5e29"


class TestThetaOO:
    def test_uniform(self):
        assert theta_oo(uniform_joint()) == 0.5

    def test_point_mass(self):
        assert theta_oo(point_mass_joint(0, 1, 1, 1)) == 1.0

    def test_hand_summed_cells(self):
        cells = [0.0] * 16
        cells[cell_index(0, 1, 1, 1)] = 0.1
        cells[cell_index(0, 0, 1, 1)] = 0.3
        cells[cell_index(1, 1, 1, 1)] = 0.6
        assert theta_oo(LatentJoint(cells=tuple(cells), p_d1=0.5)) == pytest.approx(0.25)

    def test_empty_denominator_errors(self):
        with pytest.raises(ValueError, match="A2"):
            theta_oo(point_mass_joint(1, 1, 1, 1))


class TestForwardMap:
    def test_uniform(self):
        m = observed_from_latent(uniform_joint())
        assert (m.p_y1_s1d1, m.p_y0_s1d0, m.p_s1_d1, m.p_s1_d0) == (0.5, 0.5, 0.5, 0.5)

    def test_point_mass(self):
        m = observed_from_latent(point_mass_joint(0, 1, 1, 1))
        assert (m.p_y1_s1d1, m.p_y0_s1d0, m.p_s1_d1, m.p_s1_d0) == (1.0, 1.0, 1.0, 1.0)

    def test_two_cell_hand_sum(self):
        cells = [0.0] * 16
        cells[cell_index(0, 1, 0, 1)] = 0.5
        cells[cell_index(0, 0, 1, 1)] = 0.5
        m = observed_from_latent(LatentJoint(cells=tuple(cells), p_d1=0.5))
        assert m.p_s1_d1 == 1.0
        assert m.p_s1_d0 == 0.5
        assert m.p_y1_s1d1 == 0.5
        assert m.p_y0_s1d0 == 1.0

    def test_zero_selection_marginal_errors(self):
        with pytest.raises(ValueError, match="S0"):
            observed_from_latent(point_mass_joint(0, 1, 0, 1))


class TestCellMaps:
    # Count-table columns written out: selected with y = 1, selected with y = 0, unselected.
    COLUMN = {(1, 1): 0, (1, 0): 1, (0, 0): 2, (0, 1): 2}

    @pytest.mark.parametrize("cell", CELL_ORDER, ids=lambda cell: "".join(map(str, cell)))
    def test_each_arm_shows_its_selection_and_outcome(self, cell):
        y0, y1, s0, s1 = cell
        shown = (self.COLUMN[(s0, y0)], self.COLUMN[(s1, y1)])  # arm 0 shows (s0, y0), arm 1 (s1, y1)
        expected = np.zeros((2, 3), dtype=int)
        for d, column in enumerate(shown):
            expected[d, column] = 1
        assert np.array_equal(latent.OBSERVE[:, :, cell_index(*cell)], expected)
        assert not latent.OBSERVE.flags.writeable

        counts = sample_dataset(point_mass_joint(*cell, p_d1=0.3), 500, np.random.default_rng(3)).counts[0]
        assert counts[0, shown[0]] + counts[1, shown[1]] == 500
        assert 100 < counts[1, shown[1]] < 200  # arm 1 takes p_d1 = 0.3 of the rows

    # The ON stratum, plus (y0, y1) = (1, 0) in OO and NO once A4 holds.
    ON_CELLS = {(0, 0, 1, 0), (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 1, 0)}
    FORBIDDEN = {
        AssumptionSet.A1_3: ON_CELLS,
        AssumptionSet.A1_4: ON_CELLS | {(1, 0, 1, 1), (1, 0, 0, 1)},
        AssumptionSet.A1_5: ON_CELLS | {(1, 0, 1, 1), (1, 0, 0, 1)},
    }

    @pytest.mark.parametrize("a", ASSUMPTION_ORDER, ids=lambda a: a.value)
    @pytest.mark.parametrize("cell", CELL_ORDER, ids=lambda cell: "".join(map(str, cell)))
    def test_forbidden_cells_are_the_cells_the_checks_reject(self, cell, a):
        forbidden = bool(latent.forbidden_cells(a)[cell_index(*cell)])
        assert forbidden is (cell in self.FORBIDDEN[a])
        report = check_assumptions(point_mass_joint(*cell))
        rejected = not report.holds_a3 or (a is not AssumptionSet.A1_3 and not report.holds_a4)
        assert forbidden is rejected


class TestCellTables:
    """The cached cell structure: read-only, built once, and equal to the masks it replaces."""

    @pytest.mark.parametrize("a", ASSUMPTION_ORDER, ids=lambda a: a.value)
    def test_cached_arrays_are_shared_and_read_only(self, a):
        mask = latent.forbidden_cells(a)
        assert mask is latent.forbidden_cells(a)
        permitted = simulate._permitted(a)
        assert permitted is simulate._permitted(a)
        assert permitted == tuple(np.flatnonzero(~mask).tolist())
        for array in (mask, latent._vertices(a)):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]

    @pytest.mark.parametrize("a", ASSUMPTION_ORDER, ids=lambda a: a.value)
    def test_drawn_joints_match_the_mask_reference(self, a):
        rng = np.random.default_rng(7 + ASSUMPTION_ORDER.index(a))
        for _ in range(300):
            joint = draw_latent_joint(a, rng)
            self.assert_matches_reference(joint)

    @pytest.mark.parametrize("a", ASSUMPTION_ORDER, ids=lambda a: a.value)
    def test_draws_are_the_dirichlet_stream(self, a):
        # The normalized exponentials are Generator.dirichlet's masses bit
        # for bit and leave the generator where it leaves it, rejections
        # under A5 included.
        permitted = np.flatnonzero(~latent.forbidden_cells(a))
        for seed in range(500):
            rng, reference = np.random.default_rng([seed, 9]), np.random.default_rng([seed, 9])
            joint = draw_latent_joint(a, rng)
            share = float(reference.uniform(0.2, 0.8))
            while True:
                cells = np.zeros(16)
                cells[permitted] = reference.dirichlet(np.ones(len(permitted)))
                expected = LatentJoint(cells=tuple(cells.tolist()), p_d1=share)
                if not a.a5 or check_assumptions(expected).holds_a5:
                    break
            assert [x.hex() for x in joint.cells] == [x.hex() for x in expected.cells]
            assert joint.p_d1 == share
            assert rng.random() == reference.random()

    def test_sparse_joints_match_the_mask_reference(self):
        # Sparse supports reach what the draws do not: ON mass, empty strata
        # and zero selection marginals.
        rng = np.random.default_rng(8)
        for _ in range(1000):
            support = rng.choice(16, size=rng.integers(1, 6), replace=False)
            cells = np.zeros(16)
            cells[support] = rng.dirichlet(np.ones(len(support)))
            self.assert_matches_reference(LatentJoint(cells=tuple(cells.tolist()), p_d1=0.4))

    @staticmethod
    def assert_matches_reference(joint):
        report = check_assumptions(joint)
        for b in ASSUMPTION_ORDER:
            assert report.holds(b) is reference_holds(joint, b)

        def forward(forward_map):
            try:
                return [x.hex() for x in astuple(forward_map(joint))]
            except ValueError:
                return "refused"

        assert forward(observed_from_latent) == forward(reference_moments)


class TestConstructions:
    @pytest.mark.parametrize("a", ASSUMPTION_ORDER, ids=lambda a: a.value)
    @pytest.mark.parametrize("side", [Side.LOWER, Side.UPPER], ids=lambda s: s.value)
    def test_round_trip_and_attainment(self, table_moments, a, side):
        joint = construct_bound_distribution(table_moments, a, side)
        interval = compute_bounds(table_moments, a)
        target = interval.lb if side is Side.LOWER else interval.ub
        assert theta_oo(joint) == pytest.approx(target, abs=1e-12)
        mm = observed_from_latent(joint)
        for name in ("p_y1_s1d1", "p_y0_s1d0", "p_s1_d1", "p_s1_d0"):
            assert getattr(mm, name) == pytest.approx(getattr(table_moments, name), abs=1e-12)
        assert check_assumptions(joint).holds(a)

    def test_numpy_scalar_moments_give_float_cells(self, table_moments):
        scalar = ObservedMoments(*(np.float64(x) for x in astuple(table_moments)))
        for a in ASSUMPTION_ORDER:
            joints = [construct_bound_distribution(scalar, a, side) for side in Side]
            joints.append(construct_interior_distribution(scalar, a, np.float64(0.25)))
            expected = [construct_bound_distribution(table_moments, a, side) for side in Side]
            expected.append(construct_interior_distribution(table_moments, a, 0.25))
            for joint, want in zip(joints, expected):
                assert all(type(mass) is float for mass in joint.cells)
                assert joint.cells == want.cells

    def test_table_values_attained(self, table_moments):
        lower = construct_bound_distribution(table_moments, AssumptionSet.A1_3, Side.LOWER)
        assert theta_oo(lower) == pytest.approx(0.014, abs=1e-3)
        upper = construct_bound_distribution(table_moments, AssumptionSet.A1_4, Side.UPPER)
        assert theta_oo(upper) == pytest.approx(0.163, abs=1e-3)
        report = check_assumptions(upper)
        assert report.holds_a4

    def test_trivial_upper_with_equal_selection(self):
        m = ObservedMoments(p_y1_s1d1=1.0, p_y0_s1d0=1.0, p_s1_d1=0.7, p_s1_d0=0.7)
        for a in ASSUMPTION_ORDER:
            joint = construct_bound_distribution(m, a, Side.UPPER)
            assert theta_oo(joint) == 1.0

    def test_equal_selection_rates_round_trip(self):
        # Zero mass on the NO stratum exercises the alpha = 1 special case.
        m = ObservedMoments(p_y1_s1d1=0.6, p_y0_s1d0=0.7, p_s1_d1=0.5, p_s1_d0=0.5)
        for a in ASSUMPTION_ORDER:
            for side in (Side.LOWER, Side.UPPER):
                joint = construct_bound_distribution(m, a, side)
                mm = observed_from_latent(joint)
                assert mm.p_y1_s1d1 == pytest.approx(0.6, abs=1e-12)
                assert mm.p_s1_d0 == pytest.approx(0.5, abs=1e-12)
                assert check_assumptions(joint).holds(a)

    def test_never_selected_mass_spread_uniformly(self, table_moments):
        joint = construct_bound_distribution(table_moments, AssumptionSet.A1_3, Side.LOWER)
        nn_total = joint.stratum_mass(0, 0)
        assert nn_total == pytest.approx(1.0 - table_moments.p_s1_d1, abs=1e-12)
        for y0 in (0, 1):
            for y1 in (0, 1):
                assert joint.cells[cell_index(y0, y1, 0, 0)] == pytest.approx(nn_total / 4.0, abs=1e-15)

    def test_selection_restriction_precondition(self):
        m = ObservedMoments(p_y1_s1d1=0.5, p_y0_s1d0=0.5, p_s1_d1=0.5, p_s1_d0=0.6)
        with pytest.raises(ValueError, match="selection restriction"):
            construct_bound_distribution(m, AssumptionSet.A1_3, Side.LOWER)

    def test_outcome_restriction_precondition(self):
        # p1 / alpha < 1 - q0 is infeasible once monotone response is imposed,
        # also one count past the boundary: raw success rates 40/120 in
        # control and 19/60 in treated.
        for m in (
            ObservedMoments(p_y1_s1d1=0.05, p_y0_s1d0=0.4, p_s1_d1=0.8, p_s1_d0=0.72),
            estimate_moments(Dataset(labels=(None,), counts=[[40, 20, 60], [19, 21, 20]])),
        ):
            for a in (AssumptionSet.A1_4, AssumptionSet.A1_5):
                with pytest.raises(ValueError, match="outcome restriction"):
                    construct_bound_distribution(m, a, Side.LOWER)
            construct_bound_distribution(m, AssumptionSet.A1_3, Side.LOWER)

    def test_equal_raw_success_rates_attained(self):
        # Every table with nonempty cells, at most 12 units per arm, equal
        # raw success rates and the selection restriction holding sits on
        # the outcome-restriction boundary, which the model allows.
        tables = 0
        for control, treated in itertools.product(_small_arms(12), repeat=2):
            n0, n1 = sum(control), sum(treated)
            if treated[0] * n0 != control[0] * n1:
                continue
            if (treated[0] + treated[1]) * n0 < (control[0] + control[1]) * n1:
                continue
            tables += 1
            m = estimate_moments(Dataset(labels=(None,), counts=[control, treated]))
            for a in (AssumptionSet.A1_4, AssumptionSet.A1_5):
                interval = compute_bounds(m, a)
                for side, target in ((Side.LOWER, interval.lb), (Side.UPPER, interval.ub)):
                    joint = construct_bound_distribution(m, a, side)
                    assert check_assumptions(joint).holds(a)
                    assert abs(theta_oo(joint) - target) <= 1e-12
                    mm = observed_from_latent(joint)
                    for name in ("p_y1_s1d1", "p_y0_s1d0", "p_s1_d1", "p_s1_d0"):
                        assert abs(getattr(mm, name) - getattr(m, name)) <= 1e-12
        assert tables == 1065

    def test_table_moment_constructions_are_pinned(self, table_moments):
        # Floats enter through ``repr``, which round-trips, so any moved bit
        # of the six attaining joints moves the digest.
        joints = [construct_bound_distribution(table_moments, a, side) for a in ASSUMPTION_ORDER for side in Side]
        digest = hashlib.sha256(repr(joints).encode()).hexdigest()
        assert digest == "0ea55168fafaad45912fa8aada90e4f652d69e4e7f6e2be21d500d0a712e9f6c"


def _small_arms(n_max):
    """Every arm (selected y=1, selected y=0, unselected) with nonempty cells and n <= n_max."""
    for n in range(3, n_max + 1):
        for k1 in range(1, n - 1):
            for k0 in range(1, n - k1):
                yield (k1, k0, n - k1 - k0)


class TestInteriorConstruction:
    def test_midpoint_table_value(self, table_moments):
        joint = construct_interior_distribution(table_moments, AssumptionSet.A1_3, 0.5)
        assert theta_oo(joint) == pytest.approx(0.3115, abs=1e-3)

    def test_quarter_weight_a15(self, table_moments):
        joint = construct_interior_distribution(table_moments, AssumptionSet.A1_5, 0.25)
        interval = compute_bounds(table_moments, AssumptionSet.A1_5)
        assert theta_oo(joint) == pytest.approx(0.25 * interval.lb + 0.75 * interval.ub, abs=1e-12)
        assert theta_oo(joint) == pytest.approx(0.1488, abs=1e-3)

    def test_cells_are_convex_combination(self, table_moments):
        lower = construct_bound_distribution(table_moments, AssumptionSet.A1_4, Side.LOWER)
        upper = construct_bound_distribution(table_moments, AssumptionSet.A1_4, Side.UPPER)
        mix = construct_interior_distribution(table_moments, AssumptionSet.A1_4, 0.5)
        for idx in range(16):
            expected = 0.5 * lower.cells[idx] + 0.5 * upper.cells[idx]
            assert mix.cells[idx] == pytest.approx(expected, abs=1e-15)

    def test_small_weight_approaches_upper(self, table_moments):
        upper = construct_bound_distribution(table_moments, AssumptionSet.A1_3, Side.UPPER)
        near = construct_interior_distribution(table_moments, AssumptionSet.A1_3, 1e-12)
        for idx in range(16):
            assert near.cells[idx] == pytest.approx(upper.cells[idx], abs=1e-11)

    def test_omega_out_of_range(self, table_moments):
        for omega in (0.0, 1.0, -0.2, 1.2):
            with pytest.raises(ValueError, match="omega"):
                construct_interior_distribution(table_moments, AssumptionSet.A1_3, omega)


class TestValidityOnRandomJoints:
    @pytest.mark.parametrize("a", ASSUMPTION_ORDER, ids=lambda a: a.value)
    def test_theta_inside_interval(self, a):
        rng = np.random.default_rng(hash(a.value) % 2**32)
        for _ in range(300):
            joint = draw_latent_joint(a, rng)
            interval = compute_bounds(observed_from_latent(joint), a)
            assert interval.lb - 1e-10 <= theta_oo(joint) <= interval.ub + 1e-10


class TestInternalIdentities:
    """Identities between latent quantities and observed moments."""

    def test_trim_ratio_identifies_oo_share(self):
        # Under A1-A3 the trim ratio equals P[OO | S1=1].
        rng = np.random.default_rng(52)
        for _ in range(200):
            joint = draw_latent_joint(AssumptionSet.A1_3, rng)
            m = observed_from_latent(joint)
            p_s1 = joint.stratum_mass(1, 1) + joint.stratum_mass(0, 1)
            oo_share = joint.stratum_mass(1, 1) / p_s1
            assert trim_ratio(m) == pytest.approx(oo_share, abs=1e-12)

    def test_control_failure_rate_identifies_oo_rate(self):
        # Under A1-A3 the selected-control failure rate equals
        # P[Y0=0 | OO].
        rng = np.random.default_rng(53)
        for _ in range(200):
            joint = draw_latent_joint(AssumptionSet.A1_3, rng)
            m = observed_from_latent(joint)
            selected_failures = joint.cells[cell_index(0, 0, 1, 1)] + joint.cells[cell_index(0, 1, 1, 1)]
            rate = selected_failures / joint.stratum_mass(1, 1)
            assert m.p_y0_s1d0 == pytest.approx(rate, abs=1e-12)

    def test_monotone_response_point_identity(self):
        # Under A4 the joint OO event probability collapses to the sum of
        # marginals minus one.
        rng = np.random.default_rng(54)
        for _ in range(200):
            joint = draw_latent_joint(AssumptionSet.A1_4, rng)
            mass_oo = joint.stratum_mass(1, 1)
            joint_event = joint.cells[cell_index(0, 1, 1, 1)] / mass_oo
            p_y1 = (joint.cells[cell_index(0, 1, 1, 1)] + joint.cells[cell_index(1, 1, 1, 1)]) / mass_oo
            p_y0_zero = (joint.cells[cell_index(0, 0, 1, 1)] + joint.cells[cell_index(0, 1, 1, 1)]) / mass_oo
            assert joint_event == pytest.approx(p_y1 + p_y0_zero - 1.0, abs=1e-12)

    def test_dominance_bounds_treated_rate_from_below(self):
        # Under A1, A2 and A5 the selected-treated success rate cannot
        # exceed the OO treated-outcome rate.
        rng = np.random.default_rng(55)
        for _ in range(200):
            joint = draw_latent_joint(AssumptionSet.A1_5, rng)
            m = observed_from_latent(joint)
            treated_successes = joint.cells[cell_index(0, 1, 1, 1)] + joint.cells[cell_index(1, 1, 1, 1)]
            p_y1_oo = treated_successes / joint.stratum_mass(1, 1)
            assert p_y1_oo >= m.p_y1_s1d1 - 1e-12

    def test_dominance_is_a_floor_on_the_oo_treated_mass(self):
        # Under A1-A3 the OO and NO masses are pinned by the selection
        # moments and their y1 = 1 cells share p1 * P[S=1|D=1], so A5 holds
        # exactly when P[Y1=1, OO] >= p1 * P[S=1|D=0]: the oracle's A5 row.
        rng = np.random.default_rng(59)
        verdicts = set()
        for _ in range(400):
            joint = draw_latent_joint(AssumptionSet.A1_4, rng)
            m = observed_from_latent(joint)
            margin = joint.cells[cell_index(0, 1, 1, 1)] + joint.cells[cell_index(1, 1, 1, 1)] - m.p_y1_s1d1 * m.p_s1_d0
            if abs(margin) <= 1e-9:
                continue
            assert check_assumptions(joint).holds_a5 == (margin > 0.0)
            verdicts.add(margin > 0.0)
        assert verdicts == {True, False}

    def test_boole_frechet_sandwich(self):
        # For any joint with OO mass, the joint event probability sits
        # between the Frechet lower bound and the min of the marginals.
        rng = np.random.default_rng(56)
        for _ in range(200):
            joint = draw_latent_joint(AssumptionSet.A1_3, rng)
            mass_oo = joint.stratum_mass(1, 1)
            joint_event = joint.cells[cell_index(0, 1, 1, 1)] / mass_oo
            p_y1 = (joint.cells[cell_index(0, 1, 1, 1)] + joint.cells[cell_index(1, 1, 1, 1)]) / mass_oo
            p_y0_zero = (joint.cells[cell_index(0, 0, 1, 1)] + joint.cells[cell_index(0, 1, 1, 1)]) / mass_oo
            assert joint_event >= p_y1 + p_y0_zero - 1.0 - 1e-12
            assert joint_event <= min(p_y1, p_y0_zero) + 1e-12

    def test_selection_trimming_sandwich(self):
        # The trimmed success floor and ceiling bracket P[Y1=1 | OO]
        # whenever the OO share of selected-treated units is the trim
        # ratio, i.e. under A1-A3.
        rng = np.random.default_rng(57)
        for _ in range(200):
            joint = draw_latent_joint(AssumptionSet.A1_3, rng)
            m = observed_from_latent(joint)
            alpha = trim_ratio(m)
            treated_successes = joint.cells[cell_index(0, 1, 1, 1)] + joint.cells[cell_index(1, 1, 1, 1)]
            p_y1_oo = treated_successes / joint.stratum_mass(1, 1)
            assert (m.p_y1_s1d1 - (1.0 - alpha)) / alpha <= p_y1_oo + 1e-12
            assert p_y1_oo <= m.p_y1_s1d1 / alpha + 1e-12

    def test_observable_restrictions_hold_under_a4(self):
        # Whenever A1-A4 hold in the latent joint, the forward-mapped
        # moments satisfy both observable restrictions.
        rng = np.random.default_rng(58)
        for _ in range(200):
            joint = draw_latent_joint(AssumptionSet.A1_4, rng)
            m = observed_from_latent(joint)
            assert m.p_s1_d1 >= m.p_s1_d0 - 1e-12
            treated_rate = m.p_y1_s1d1 * m.p_s1_d1
            control_rate = (1.0 - m.p_y0_s1d0) * m.p_s1_d0
            assert treated_rate >= control_rate - 1e-12


class TestVerificationChainDigest:
    """Every output of the sharpness verification chain, pinned by one digest.

    The chain is the benchmark's ``sharpness_mc`` operation: per set, a
    latent draw, its moments, the closed forms, the oracle, both attaining
    constructions with their checks, and a 2,000-row sample with its
    moments.  Floats enter through ``repr``, which round-trips, so any moved
    bit, RNG call or message changes the digest.
    """

    def test_chain_outputs_are_pinned(self):
        digest = hashlib.sha256()
        for seed in range(50):
            rng = np.random.default_rng([seed, 0])
            for a in ASSUMPTION_ORDER:
                joint = draw_latent_joint(a, rng)
                m = observed_from_latent(joint)
                outputs = [joint, m, compute_bounds(m, a), latent.sharp_envelope_oracle(m, a)]
                for side in (Side.LOWER, Side.UPPER):
                    constructed = construct_bound_distribution(m, a, side)
                    outputs += [constructed, check_assumptions(constructed)]
                data = sample_dataset(joint, 2000, rng)
                try:
                    estimate = estimate_moments(data)
                except ValueError as err:
                    estimate = str(err)
                outputs += [data.labels, data.counts.tolist(), estimate]
                digest.update(f"{outputs!r}\n".encode())
        assert digest.hexdigest() == "96a8000b2d1c1d9a074dde5dc1b3998f401ae5abd8bca7ed2903ea9ca002dca5"

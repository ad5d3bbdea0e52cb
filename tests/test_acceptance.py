"""Acceptance suite: one test per release criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is fixed here, not tuned at runtime.
"""

import json
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from _oracles import (
    TABLE_LB3,
    TABLE_UB1,
    TABLE_UB3,
    build_stratified_fixture,
    draw_restricted_moments,
    invert_bounds_to_moments,
)
from pocbounds import (
    ASSUMPTION_ORDER,
    AssumptionSet,
    Dataset,
    ObservedMoments,
    bootstrap_bounds,
    check_assumptions,
    compute_bounds,
    construct_bound_distribution,
    construct_interior_distribution,
    observed_from_latent,
    sharp_envelope_oracle,
    test_restrictions as run_restriction_tests,
    theta_oo,
)
from pocbounds.cli import main
from pocbounds.estimation import estimate_stratified
from pocbounds.latent import Side
from pocbounds.simulate import draw_latent_joint, sample_dataset, sample_stratified_dataset

TABLE_TARGETS = {
    AssumptionSet.A1_3: (0.014, 0.609),
    AssumptionSet.A1_4: (0.014, 0.163),
    AssumptionSet.A1_5: (0.106, 0.163),
}


def _passed(number: int, name: str, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): PASS{suffix}")


def test_criterion_1_table_reproduction_and_stratified_fixture():
    # Closed forms at the moments recovered by inverting the published
    # values, each endpoint within 0.001.
    p1, q0, alpha = invert_bounds_to_moments(TABLE_UB1, TABLE_UB3, TABLE_LB3)
    m = ObservedMoments(p_y1_s1d1=p1, p_y0_s1d0=q0, p_s1_d1=0.6068, p_s1_d0=alpha * 0.6068)
    for a, (lb, ub) in TABLE_TARGETS.items():
        interval = compute_bounds(m, a)
        assert abs(interval.lb - lb) <= 1e-3
        assert abs(interval.ub - ub) <= 1e-3

    # The three closed-form evaluations run inside one millisecond.
    best = np.inf
    for _ in range(10):
        start = time.perf_counter()
        for a in ASSUMPTION_ORDER:
            compute_bounds(m, a)
        best = min(best, time.perf_counter() - start)
    assert best < 1e-3

    # Stratified summary-measure fixture: the published per-stratum data
    # is not reproducible, so a synthetic ten-stratum fixture with known
    # weighted truth substitutes; the aggregate must land within the
    # Monte Carlo tolerance 0.01 at n = 50,000.
    joints, weights, truth = build_stratified_fixture(seed=11)
    data = sample_stratified_dataset(joints, weights, 50_000, np.random.default_rng(20_002))
    worst = 0.0
    fit = estimate_stratified(data, ASSUMPTION_ORDER)
    for a in ASSUMPTION_ORDER:
        aggregate = fit.aggregate[a]
        lb_t, ub_t = truth[a]
        worst = max(worst, abs(aggregate["lb"] - lb_t), abs(aggregate["ub"] - ub_t))
    assert worst <= 0.01
    _passed(1, "table reproduction + stratified fixture",
            f"closed-form best time {best * 1e6:.0f} us, aggregate error {worst:.4f}")


@pytest.fixture(scope="module")
def restricted_draws():
    rng = np.random.default_rng(987654321)
    return [draw_restricted_moments(rng) for _ in range(100)]


def test_criterion_2_sharpness_oracle_equivalence(restricted_draws):
    start = time.perf_counter()
    worst = 0.0
    for m in restricted_draws:
        for a in ASSUMPTION_ORDER:
            lo, hi = sharp_envelope_oracle(m, a)
            interval = compute_bounds(m, a)
            worst = max(worst, abs(lo - interval.lb), abs(hi - interval.ub))
            assert abs(lo - interval.lb) <= 1e-6
            assert abs(hi - interval.ub) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(2, "sharpness oracle equivalence", f"100 draws x 3 sets, worst gap {worst:.2e}, {elapsed:.1f} s")


def test_criterion_3_attainment_round_trip(restricted_draws):
    moment_fields = ("p_y1_s1d1", "p_y0_s1d0", "p_s1_d1", "p_s1_d0")
    for m in restricted_draws:
        for a in ASSUMPTION_ORDER:
            interval = compute_bounds(m, a)
            candidates = [
                (construct_bound_distribution(m, a, Side.LOWER), interval.lb),
                (construct_bound_distribution(m, a, Side.UPPER), interval.ub),
            ]
            for omega in (0.25, 0.5, 0.75):
                candidates.append(
                    (
                        construct_interior_distribution(m, a, omega),
                        omega * interval.lb + (1.0 - omega) * interval.ub,
                    )
                )
            for joint, target in candidates:
                assert check_assumptions(joint).holds(a)
                assert abs(theta_oo(joint) - target) <= 1e-12
                mapped = observed_from_latent(joint)
                for name in moment_fields:
                    assert abs(getattr(mapped, name) - getattr(m, name)) <= 1e-12
    _passed(3, "attainment round-trip", "100 draws x 3 sets x 5 targets")


def test_criterion_4_validity_and_nesting():
    for a in ASSUMPTION_ORDER:
        rng = np.random.default_rng(5000 + ord(a.value[-1]))
        for _ in range(1000):
            joint = draw_latent_joint(a, rng)
            m = observed_from_latent(joint)
            interval = compute_bounds(m, a)
            assert interval.lb - 1e-10 <= theta_oo(joint) <= interval.ub + 1e-10
            i1, i2, i3 = (compute_bounds(m, s) for s in ASSUMPTION_ORDER)
            assert i1.lb <= i2.lb <= i3.lb
            assert i3.ub <= i2.ub <= i1.ub
    _passed(4, "validity and nesting", "1000 joints per assumption set")


def _simulate_test_batch(rng, n, sel_treated, sel_control, trials):
    """Selection and outcome test p-values over simulated count tables."""
    p_sel = np.empty(trials)
    p_out = np.empty(trials)
    for t in range(trials):
        n1 = int(rng.binomial(n, 0.5))
        n0 = n - n1
        s1 = int(rng.binomial(n1, sel_treated))
        s0 = int(rng.binomial(n0, sel_control))
        counts = np.array(
            [
                [int(rng.binomial(s0, 0.5)), 0, n0 - s0],
                [int(rng.binomial(s1, 0.5)), 0, n1 - s1],
            ],
            dtype=np.int64,
        )
        counts[0, 1] = s0 - counts[0, 0]
        counts[1, 1] = s1 - counts[1, 0]
        selection, outcome = run_restriction_tests(Dataset(labels=(None,), counts=counts))
        p_sel[t] = selection.p_value
        p_out[t] = outcome.p_value
    return p_sel, p_out


def test_criterion_5_restriction_test_size_and_power():
    start = time.perf_counter()
    # Null boundary: identical selection rates (and hence identical raw
    # outcome rates) in both arms.
    rng = np.random.default_rng(24601)
    p_sel, p_out = _simulate_test_batch(rng, n=5000, sel_treated=0.6, sel_control=0.6, trials=2000)
    size_sel = float(np.mean(p_sel < 0.05))
    size_out = float(np.mean(p_out < 0.05))
    assert size_sel <= 0.05 + 0.02
    assert size_out <= 0.05 + 0.02

    # Power against a 0.2-magnitude violation of the selection inequality.
    p_sel_alt, _ = _simulate_test_batch(rng, n=5000, sel_treated=0.5, sel_control=0.7, trials=2000)
    power = float(np.mean(p_sel_alt < 0.05))
    assert power >= 0.99

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _passed(5, "restriction test size and power",
            f"size {size_sel:.3f}/{size_out:.3f}, power {power:.3f}, {elapsed:.1f} s")


def test_criterion_6_bootstrap_determinism_coverage_and_rate():
    joints, _, _ = build_stratified_fixture(seed=11, n_strata=1)
    dgp = joints["c0"]
    truth = compute_bounds(observed_from_latent(dgp), AssumptionSet.A1_5)

    # Bit-identical output under a fixed seed.
    data = sample_dataset(dgp, 600, np.random.default_rng(42))
    first = bootstrap_bounds(data, [AssumptionSet.A1_5], reps=500, level=0.90, seed=99)
    second = bootstrap_bounds(data, [AssumptionSet.A1_5], reps=500, level=0.90, seed=99)
    assert first == second

    # Percentile CIs cover the true endpoints at least 87% of the time
    # at n = 1000 with 500 replications across 500 trials.
    trials = 500
    covered_lb = covered_ub = 0
    for trial, child in enumerate(np.random.SeedSequence(606060).spawn(trials)):
        sample = sample_dataset(dgp, 1000, np.random.default_rng(child))
        boot = bootstrap_bounds(sample, [AssumptionSet.A1_5], reps=500, level=0.90, seed=trial)
        boot = boot.aggregate[AssumptionSet.A1_5]
        covered_lb += boot.ci_lb[0] <= truth.lb <= boot.ci_lb[1]
        covered_ub += boot.ci_ub[0] <= truth.ub <= boot.ci_ub[1]
    rate_lb = covered_lb / trials
    rate_ub = covered_ub / trials
    assert rate_lb >= 0.87
    assert rate_ub >= 0.87

    # CI width shrinks like the root of the sample size.
    sizes = (500, 1000, 2000, 4000, 8000)
    rng = np.random.default_rng(515151)
    log_widths = []
    for size in sizes:
        widths = []
        for rep in range(6):
            sample = sample_dataset(dgp, size, rng)
            boot = bootstrap_bounds(sample, [AssumptionSet.A1_5], reps=300, level=0.90, seed=rep)
            boot = boot.aggregate[AssumptionSet.A1_5]
            widths.append(
                (boot.ci_lb[1] - boot.ci_lb[0]) + (boot.ci_ub[1] - boot.ci_ub[0])
            )
        log_widths.append(np.log(np.mean(widths)))
    slope = float(np.polyfit(np.log(sizes), log_widths, 1)[0])
    assert abs(slope - (-0.5)) <= 0.15
    _passed(6, "bootstrap determinism, coverage, rate",
            f"coverage LB {rate_lb:.3f} UB {rate_ub:.3f}, slope {slope:.3f}")


def _assert_finite_numbers(node):
    if isinstance(node, dict):
        for value in node.values():
            _assert_finite_numbers(value)
    elif isinstance(node, list):
        for value in node:
            _assert_finite_numbers(value)
    elif isinstance(node, float):
        assert np.isfinite(node)


def test_criterion_7_cli_end_to_end(fixture_csv, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    svg_path = tmp_path / "bounds.svg"
    code = main([
        "--input", str(fixture_csv),
        "--y-col", "y", "--s-col", "s", "--d-col", "d", "--stratum-col", "course",
        "--reps", "200", "--level", "0.9", "--seed", "12",
        "--output", str(report_path), "--plot-out", str(svg_path),
    ])
    assert code == 0

    doc = json.loads(report_path.read_text())
    assert doc["schema_version"] == "1"
    for key in ("provenance", "moments", "restriction_tests", "unconditional", "stratified", "warnings"):
        assert key in doc
    assert doc["provenance"]["n_records"] == 1769
    for a in ("A1_3", "A1_4", "A1_5"):
        entry = doc["unconditional"][a]
        for key in ("lb", "ub", "ci_lb", "ci_ub", "lb_clipped", "ub_clipped"):
            assert key in entry
    _assert_finite_numbers(doc)

    sidecar = json.loads((tmp_path / "bounds.svg.json").read_text())
    by_key = {(b["assumption_set"], b["group"]): b for b in sidecar["bars"]}
    root = ET.fromstring(svg_path.read_text())
    rects = [el for el in root.iter() if el.tag.endswith("rect") and "data-lb" in el.attrib]
    assert len(rects) == 6
    for rect in rects:
        key = (rect.attrib["data-assumption-set"], rect.attrib["data-group"])
        group_source = (
            doc["unconditional"][key[0]]
            if key[1] == "unconditional"
            else doc["stratified"]["sets"][key[0]]["aggregate"]
        )
        assert float(rect.attrib["data-lb"]) == group_source["lb"]
        assert float(rect.attrib["data-ub"]) == group_source["ub"]
        assert by_key[key]["lb"] == group_source["lb"]
        assert by_key[key]["ub"] == group_source["ub"]
    _passed(7, "command-line end-to-end", "schema-valid report, exact plot echo")

#!/usr/bin/env python3
"""Monte Carlo study of bootstrap interval coverage and width decay.

For a fixed latent joint with interior bounds, repeatedly samples a
dataset, bootstraps percentile intervals around both endpoints, and
reports how often each interval covers the truth, with the binomial
standard error of that share over the trials, plus the slope of
log CI width against log sample size.  Heavier sibling of the checks in
tests/test_acceptance.py; tune the constants below for longer runs.

Usage: python scripts/coverage_study.py [trials] [n] [reps]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from pocbounds import AssumptionSet, compute_bounds, observed_from_latent
from pocbounds.inference import bootstrap_bounds
from pocbounds.latent import construct_interior_distribution
from pocbounds.simulate import sample_dataset

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tests"))

from _oracles import derive_table_moments  # noqa: E402


def _share(covered: int, ok: int) -> str:
    """Coverage share with its binomial Monte Carlo standard error."""
    c = covered / ok
    return f"{c:.3f} (se {np.sqrt(c * (1.0 - c) / ok):.3f})"


def run(trials: int = 200, n: int = 1000, reps: int = 300, level: float = 0.90) -> None:
    joint = construct_interior_distribution(derive_table_moments(), AssumptionSet.A1_5, 0.5)
    truth = compute_bounds(observed_from_latent(joint), AssumptionSet.A1_5)
    print(f"true interval: [{truth.lb:.4f}, {truth.ub:.4f}]")

    root = np.random.SeedSequence(314159)
    covered_lb = covered_ub = failures = 0
    for trial, child in enumerate(root.spawn(trials)):
        data = sample_dataset(joint, n, np.random.default_rng(child))
        try:
            boot = bootstrap_bounds(data, [AssumptionSet.A1_5], reps=reps, level=level, seed=trial)
        except ValueError:
            failures += 1
            continue
        cis = boot.aggregate[AssumptionSet.A1_5]
        covered_lb += cis.ci_lb[0] <= truth.lb <= cis.ci_lb[1]
        covered_ub += cis.ci_ub[0] <= truth.ub <= cis.ci_ub[1]
    ok = trials - failures
    print(f"coverage at n={n}, reps={reps}, level={level}: "
          f"LB {_share(covered_lb, ok)}, UB {_share(covered_ub, ok)} ({failures} failed trials)")

    sizes = [500, 1000, 2000, 4000, 8000]
    log_widths = []
    width_rng = np.random.default_rng(271828)
    for size in sizes:
        widths = []
        for rep in range(6):
            data = sample_dataset(joint, size, width_rng)
            boot = bootstrap_bounds(data, [AssumptionSet.A1_5], reps=reps, level=level, seed=rep)
            cis = boot.aggregate[AssumptionSet.A1_5]
            widths.append(cis.ci_lb[1] - cis.ci_lb[0])
        log_widths.append(np.log(np.mean(widths)))
    slope = np.polyfit(np.log(sizes), log_widths, 1)[0]
    print(f"log-width vs log-n slope: {slope:.3f} (root-n decay is -0.5)")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:4]]
    run(*args)

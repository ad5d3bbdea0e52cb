"""Random generators for latent joints and synthetic microdata.

Used by the test suite and the experiment scripts to exercise the bounds
against known data-generating processes.  Latent joints are drawn
uniformly (Dirichlet with unit concentration) over the cells a given
assumption set permits, with rejection sampling for the stochastic
dominance restriction.  Microdata are drawn i.i.d. from a latent joint
under the observability rule ``y = y_d`` when ``s_d = 1`` and missing
otherwise, and are returned as their count table.
"""

from __future__ import annotations

import numpy as np

from .bounds import AssumptionSet
from .estimation import Dataset
from .latent import CELL_ORDER, LatentJoint, check_assumptions


def _permitted_cells(a: AssumptionSet) -> list[int]:
    permitted = []
    for idx, (y0, y1, s0, s1) in enumerate(CELL_ORDER):
        if (s0, s1) == (1, 0):
            continue
        if a is not AssumptionSet.A1_3 and (y0, y1) == (1, 0) and (s0, s1) != (0, 0):
            continue
        permitted.append(idx)
    return permitted


def draw_latent_joint(
    a: AssumptionSet,
    rng: np.random.Generator,
    p_d1: float | None = None,
    max_tries: int = 10_000,
) -> LatentJoint:
    """Draw one latent joint satisfying assumption set ``a``.

    Masses are Dirichlet(1, ..., 1) over the permitted cells, so the draw
    is uniform on the feasible face of the simplex; for ``A1_5`` draws are
    rejected until the dominance restriction holds.
    """
    permitted = _permitted_cells(a)
    share = float(rng.uniform(0.2, 0.8)) if p_d1 is None else p_d1
    for _ in range(max_tries):
        masses = rng.dirichlet(np.ones(len(permitted)))
        cells = [0.0] * 16
        for idx, mass in zip(permitted, masses):
            cells[idx] = float(mass)
        joint = LatentJoint(cells=tuple(cells), p_d1=share)
        if a is not AssumptionSet.A1_5:
            return joint
        if check_assumptions(joint).holds_a5:
            return joint
    raise RuntimeError(f"failed to draw an {a.value} joint in {max_tries} tries")


def sample_dataset(
    L: LatentJoint,
    n: int,
    rng: np.random.Generator,
    stratum: str | None = None,
) -> Dataset:
    """Count ``n`` i.i.d. draws (d, s, y) from a latent joint."""
    return Dataset(labels=(stratum,), counts=_sample_counts(L, n, rng))


def sample_stratified_dataset(
    joints: dict[str, LatentJoint],
    weights: dict[str, float],
    n: int,
    rng: np.random.Generator,
) -> Dataset:
    """Draw rows with stratum labels sampled from ``weights``.

    The strata sizes are drawn first, then each stratum's (d, s, y) from
    that stratum's latent joint.
    """
    names = sorted(joints)
    probs = np.array([weights[name] for name in names], dtype=float)
    probs = probs / probs.sum()
    sizes = rng.multinomial(n, probs)
    tables = {
        name: _sample_counts(joints[name], int(size), rng)
        for name, size in zip(names, sizes)
        if size > 0
    }
    return Dataset(labels=tuple(tables), counts=list(tables.values()))


def _sample_counts(L: LatentJoint, n: int, rng: np.random.Generator) -> np.ndarray:
    """2x3 count table (see ``COUNT_COLUMNS``) of ``n`` draws from ``L``."""
    cells = L.as_array()
    idx = rng.choice(16, size=n, p=cells / cells.sum())
    d = (rng.random(n) < L.p_d1).astype(int)
    # Under arm d the unit shows s_d and y_d: bits (s1, y1) or (s0, y0) of the cell index.
    s = np.where(d == 1, idx & 1, idx >> 1 & 1)
    y = np.where(d == 1, idx >> 2 & 1, idx >> 3 & 1)
    cell = np.where(s == 1, 1 - y, 2)
    return np.bincount(3 * d + cell, minlength=6).reshape(2, 3)

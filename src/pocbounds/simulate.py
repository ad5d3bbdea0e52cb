"""Random generators for latent joints and synthetic microdata.

Used by the test suite and the experiment scripts to exercise the bounds
against known data-generating processes.  Latent joints are drawn
uniformly over the cells a given assumption set permits, as standard
exponentials divided by their sum, which is Dirichlet with unit
concentration, with rejection sampling for the stochastic dominance
restriction.  A sample of ``n`` i.i.d. rows, each showing
``y = y_d`` when ``s_d = 1`` and nothing otherwise, is drawn straight as
its count table: one multinomial draw of ``n`` over the table's six cells.
"""

from __future__ import annotations

import functools

import numpy as np

from .bounds import AssumptionSet
from .estimation import Dataset
from .latent import OBSERVE, LatentJoint, check_assumptions, forbidden_cells

_MAX_TRIES = 10_000


@functools.cache
def _permitted(a: AssumptionSet) -> tuple[int, ...]:
    """The cells ``a`` permits, in canonical order."""
    return tuple(np.flatnonzero(~forbidden_cells(a)).tolist())


def draw_latent_joint(a: AssumptionSet, rng: np.random.Generator) -> LatentJoint:
    """Draw one latent joint satisfying assumption set ``a``.

    Masses are standard exponentials over the permitted cells divided by
    their sum, which is Dirichlet(1, ..., 1), so the draw is uniform on the
    feasible face of the simplex; under A5, draws are rejected until the
    dominance restriction holds.  The treated share is uniform on
    [0.2, 0.8].  The draws, the left-to-right sum and the multiply by its
    reciprocal are the ones ``Generator.dirichlet`` makes, so each mass and
    the generator's state match it bit for bit.  The sum is an explicit
    loop because ``sum()`` compensates its rounding from Python 3.12 on.
    """
    permitted = _permitted(a)
    share = float(rng.uniform(0.2, 0.8))
    for _ in range(_MAX_TRIES):
        draws = rng.standard_exponential(len(permitted)).tolist()
        total = 0.0
        for x in draws:
            total += x
        scale = 1.0 / total
        cells = [0.0] * 16
        for i, x in zip(permitted, draws):
            cells[i] = x * scale
        joint = LatentJoint(cells=tuple(cells), p_d1=share)
        if not a.a5 or check_assumptions(joint).holds_a5:
            return joint
    raise RuntimeError(f"failed to draw an {a.value} joint in {_MAX_TRIES} tries")


def sample_dataset(L: LatentJoint, n: int, rng: np.random.Generator) -> Dataset:
    """Count ``n`` i.i.d. draws (d, s, y) from a latent joint."""
    return Dataset(labels=(None,), counts=_sample_counts(L, n, rng))


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
    """2x3 count table (see ``COUNT_COLUMNS``) of ``n`` i.i.d. rows from ``L``.

    A row lands in arm 1 with probability ``p_d1`` and in arm 0 otherwise,
    independently of its cell, and its arm shows the cell in one column
    (``OBSERVE``).  The table is therefore one multinomial draw of ``n``
    over the six (arm, column) probabilities.
    """
    cells = np.asarray(L.cells, dtype=float)
    arms = OBSERVE @ (cells / cells.sum())
    probs = np.array([[1.0 - L.p_d1], [L.p_d1]]) * arms
    return rng.multinomial(n, probs.ravel()).reshape(2, 3)

"""Partial-identification bounds on the probability of causation under sample selection.

The package identifies, from a randomized binary treatment with a binary
outcome observed only for selected units, how much of the always-selected
subpopulation the treatment moved from outcome 0 to outcome 1.  The model
rests on five assumptions, referenced throughout as A1 through A5:

* A1, random assignment: treatment is independent of the latent vector.
* A2, positive mass: both arms exist and so do always-selected units with
  untreated outcome zero.
* A3, monotone selection: treatment never deselects a unit.
* A4, monotone treatment response: treatment never flips the latent
  outcome from one to zero.
* A5, stochastic dominance: always-selected units have a weakly higher
  treated-outcome rate than units selected only under treatment.

Assumption bundles ``A1_3`` (A1 to A3), ``A1_4`` (plus A4) and ``A1_5``
(plus A5) give nested sharp intervals; see :mod:`pocbounds.bounds` for the
closed forms, :mod:`pocbounds.latent` for the latent model, attainment
constructions and the brute-force envelope oracle, and
:mod:`pocbounds.cli` for the command-line pipeline.  The package needs
numpy only: the oracle solves its linear programs at precomputed vertices,
so no package code loads SciPy.
"""

__version__ = "0.1.0"

from .bounds import (
    ASSUMPTION_ORDER,
    AssumptionSet,
    BoundsInterval,
    ObservedMoments,
    compute_bounds,
    restriction_violations,
    trim_ratio,
)
from .estimation import (
    Dataset,
    StratifiedFields,
    estimate_moments,
    estimate_stratified,
)
from .inference import (
    BootstrapResult,
    bootstrap_bounds,
    test_restrictions,
)

from .latent import (
    CELL_ORDER,
    AssumptionReport,
    LatentJoint,
    Side,
    check_assumptions,
    construct_bound_distribution,
    construct_interior_distribution,
    observed_from_latent,
    sharp_envelope_oracle,
    theta_oo,
)

__all__ = [
    "ASSUMPTION_ORDER",
    "AssumptionReport",
    "AssumptionSet",
    "BootstrapResult",
    "BoundsInterval",
    "CELL_ORDER",
    "Dataset",
    "LatentJoint",
    "ObservedMoments",
    "Side",
    "StratifiedFields",
    "__version__",
    "bootstrap_bounds",
    "check_assumptions",
    "compute_bounds",
    "construct_bound_distribution",
    "construct_interior_distribution",
    "estimate_moments",
    "estimate_stratified",
    "observed_from_latent",
    "restriction_violations",
    "sharp_envelope_oracle",
    "test_restrictions",
    "theta_oo",
    "trim_ratio",
]

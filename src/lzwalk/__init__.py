"""Bounded discrete-time quantum walk model of field-driven level dynamics.

Three independent amplitude engines (direct evolution, path enumeration,
generating-function series) plus an analytic edge-state analyzer and a CLI.
"""

from .coin import (
    Coin,
    ModelParams,
    make_boundary_coin,
    make_bulk_coin,
    pqrs_decompose,
    reduce_angle,
)
from .edge import (
    EdgeObservables,
    EdgeReport,
    FloquetMode,
    decay_ratio,
    edge_report,
    floquet_mode,
    is_localized,
    localization_length,
    observables,
    pole,
    quasi_energy,
    thresholds,
)
from .errors import (
    BranchAmbiguityError,
    DelocalizedError,
    PoleError,
    ResourceLimitError,
    SingularityError,
)
from .genfun import (
    Series,
    absorbing_gf,
    absorbing_gf_series,
    b_gf_closed,
    b_gf_closed_series,
    bounded_gf,
    bounded_gf_table,
    gf_site0,
    lambda_plus_eval,
    lambda_plus_series,
)
from .pathsum import (
    TAU_CAP,
    TransitionAmplitude,
    enumerate_paths,
    pqrs_coefficient_series,
    pqrs_coefficients,
    pqrs_residual,
    transition_amplitude,
    word,
)
from .walk import (
    MAX_EVOLVE_STEPS,
    WalkState,
    distribution,
    evolve,
    initial_state,
    norm,
    step,
    trajectory,
)

__version__ = "0.1.0"

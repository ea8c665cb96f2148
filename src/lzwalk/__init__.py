"""Bounded discrete-time quantum walk model of field-driven level dynamics.

Three independent amplitude engines (direct evolution, path enumeration,
generating-function series) plus an analytic edge-state analyzer and a CLI.
"""

from .coin import (
    Coin,
    ModelParams,
    make_boundary_coin,
    make_bulk_coin,
    reduce_angle,
)
from .edge import (
    EdgeObservables,
    EdgePoint,
    EdgeReport,
    FloquetMode,
    decay_ratio,
    edge_point,
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
    ResourceLimitError,
    SingularityError,
)
from .genfun import (
    Series,
    absorbing_gf_series,
    b_gf_closed_series,
    bounded_gf_table,
    lambda_plus_eval,
    lambda_plus_series,
)
from .pathsum import (
    TAU_CAP,
    enumerate_paths,
    pqrs_coefficient_series,
    pqrs_coefficients,
    pqrs_residual,
    pqrs_row,
    transition_amplitude,
    transition_table,
)
from .walk import (
    MAX_EVOLVE_STEPS,
    WalkState,
    evolve,
    initial_state,
    norm,
    norms,
    step,
    trajectory,
)

__version__ = "0.1.0"

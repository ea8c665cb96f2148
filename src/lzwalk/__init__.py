"""Bounded discrete-time quantum walk model of field-driven level dynamics.

Three independent amplitude engines (direct evolution, path enumeration,
generating-function series) plus an analytic edge-state analyzer and a CLI.

``coin``, ``edge`` and ``errors`` import no numpy and load with the package.
The engine modules ``walk``, ``pathsum``, ``genfun`` and ``verify``, and the
names re-exported from them, load on first access through the module
``__getattr__`` (PEP 562), so that a process which never touches an engine
never imports numpy.
"""

import importlib

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
    MAX_EVOLVE_STEPS,
    TAU_CAP,
    DelocalizedError,
    ResourceLimitError,
    SingularityError,
)

__version__ = "0.1.0"

# engine module -> the names the package re-exports from it
_LAZY = {
    "genfun": (
        "Series",
        "absorbing_gf_series",
        "b_gf_closed_series",
        "bounded_gf_table",
        "lambda_plus_eval",
        "lambda_plus_series",
    ),
    "pathsum": (
        "enumerate_paths",
        "pqrs_coefficient_series",
        "pqrs_coefficients",
        "pqrs_residual",
        "pqrs_row",
        "transition_amplitude",
        "transition_table",
    ),
    "walk": ("WalkState", "evolve", "initial_state", "norm", "norms", "step", "trajectory"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}
_LAZY_MODULES = (*_LAZY, "verify")

__all__ = [
    "Coin",
    "DelocalizedError",
    "EdgeObservables",
    "EdgePoint",
    "EdgeReport",
    "FloquetMode",
    "MAX_EVOLVE_STEPS",
    "ModelParams",
    "ResourceLimitError",
    "SingularityError",
    "TAU_CAP",
    "decay_ratio",
    "edge_point",
    "edge_report",
    "floquet_mode",
    "is_localized",
    "localization_length",
    "make_boundary_coin",
    "make_bulk_coin",
    "observables",
    "pole",
    "quasi_energy",
    "reduce_angle",
    "thresholds",
    *_LAZY_NAMES,
]


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # bound once, as an eager import would
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_NAMES, *_LAZY_MODULES})

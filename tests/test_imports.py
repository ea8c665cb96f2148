"""The light CLI modes load no engine, and the package's lazy names resolve.

``edge``, a linear ``sweep``, ``--help`` and usage errors run on ``coin``,
``edge``, ``errors`` and ``cli`` alone, so they start without numpy.  The
engine modules and the names the package re-exports from them load on
first access and are the very objects their modules define.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import lzwalk

SRC = Path(__file__).resolve().parents[1] / "src"
THETA = "0.7853981633974483"

ENGINES = ("numpy", "lzwalk.walk", "lzwalk.genfun", "lzwalk.pathsum", "lzwalk.verify")

# (argv, exit code) of the calls that must load no engine
LIGHT_CALLS = [
    (["edge", "--p", "0.2", "--theta", THETA], 0),
    (["edge", "--p", "0.9", "--theta", THETA, "--format", "json"], 0),
    (["sweep", "--theta", THETA, "--fmin", "0.5", "--fmax", "6", "--points", "45"], 0),
    (["sweep", "--theta", THETA, "--fmin", "0.5", "--fmax", "6", "--points", "45", "--format", "json"], 0),
    (["--help"], 0),
    (["evolve", "--p", "0.2", "--steps", "-1"], 1),
    (["series", "--p", "0.2", "--steps", "2001"], 1),
]

# runs the calls in one fresh interpreter and prints their exit codes and
# the engines loaded afterwards, as JSON
_RUNNER = """
import contextlib, io, json, sys
calls, engines = json.loads(sys.argv[1]), json.loads(sys.argv[2])
from lzwalk import cli
codes = []
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:  # --help
            codes.append(exc.code)
print(json.dumps({"codes": codes, "loaded": [m for m in engines if m in sys.modules]}))
"""

# every name the package exported when it imported all engines eagerly,
# by the module that defines it
EXPORTED = {
    "coin": ("Coin", "ModelParams", "make_boundary_coin", "make_bulk_coin", "reduce_angle"),
    "edge": (
        "EdgeObservables", "EdgePoint", "EdgeReport", "FloquetMode", "decay_ratio",
        "edge_point", "edge_report", "floquet_mode", "is_localized",
        "localization_length", "observables", "pole", "quasi_energy", "thresholds",
    ),
    "errors": ("DelocalizedError", "ResourceLimitError", "SingularityError"),
    "genfun": (
        "Series", "absorbing_gf_series", "b_gf_closed_series", "bounded_gf_table",
        "lambda_plus_eval", "lambda_plus_series",
    ),
    "pathsum": (
        "TAU_CAP", "enumerate_paths", "pqrs_coefficient_series", "pqrs_coefficients",
        "pqrs_residual", "pqrs_row", "transition_amplitude", "transition_table",
    ),
    "walk": (
        "MAX_EVOLVE_STEPS", "WalkState", "evolve", "initial_state", "norm", "norms",
        "step", "trajectory",
    ),
}


def test_light_modes_load_no_engine():
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, json.dumps([argv for argv, _ in LIGHT_CALLS]), json.dumps(ENGINES)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for _, code in LIGHT_CALLS]
    assert result["loaded"] == []


def test_exported_names_are_their_module_attributes():
    names = set()
    for module, exported in EXPORTED.items():
        owner = importlib.import_module(f"lzwalk.{module}")
        for name in exported:
            assert getattr(lzwalk, name) is getattr(owner, name), (module, name)
        names.update(exported)
    assert sorted(lzwalk.__all__) == sorted(names)
    assert names | set(EXPORTED) | {"verify"} <= set(dir(lzwalk))
    assert lzwalk.walk.__name__ == "lzwalk.walk" and lzwalk.verify.__name__ == "lzwalk.verify"
    assert not hasattr(lzwalk, "no_such_name")

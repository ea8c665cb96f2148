"""The light CLI modes load no engine, and the package holds only its modules.

``edge``, a linear ``sweep``, ``--help`` and usage errors run on ``coin``,
``edge``, ``errors`` and ``cli`` alone, so they start without numpy.
``verify`` loads no ``numpy.random``: its random checks draw from the
standard library's ``random``.
``import lzwalk`` loads no module of the package; each of the eight loads on
first access as ``lzwalk.<module>``, and every name lives in the module that
defines it, the caps in ``errors`` alone.
"""

from __future__ import annotations

import importlib
import inspect
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
# which of the listed modules are loaded afterwards, as JSON
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

# modules that importing numpy.random loads and no lzwalk mode needs
RANDOM_MODULES = ("numpy.random", "secrets", "_hashlib")

MODULES = ("cli", "coin", "edge", "errors", "genfun", "pathsum", "verify", "walk")

# prints the package modules that a bare import loads, as JSON
_BARE_IMPORT = """
import json, sys
import lzwalk
print(json.dumps(sorted(m for m in sys.modules if m.startswith("lzwalk."))))
"""


def _run_calls(calls, modules):
    """The exit codes of the calls, run in one fresh interpreter, and which
    of the modules it has loaded afterwards."""
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, json.dumps(calls), json.dumps(modules)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    return result["codes"], result["loaded"]


def test_light_modes_load_no_engine():
    codes, loaded = _run_calls([argv for argv, _ in LIGHT_CALLS], ENGINES)
    assert codes == [code for _, code in LIGHT_CALLS]
    assert loaded == []


def test_verify_loads_no_numpy_random():
    # its random parameter sets come from the standard library's random
    assert _run_calls([["verify", "--tau-max", "4"]], RANDOM_MODULES) == ([0], [])


def test_no_module_of_the_package_names_numpy_random():
    for path in (SRC / "lzwalk").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "np.random" not in text and "numpy.random" not in text, path.name


def test_the_package_resolves_its_modules_and_no_other_name():
    assert MODULES == tuple(sorted(p.stem for p in (SRC / "lzwalk").glob("*.py") if not p.stem.startswith("__")))
    for name in MODULES:
        assert getattr(lzwalk, name) is sys.modules[f"lzwalk.{name}"]
    assert set(MODULES) <= set(dir(lzwalk))
    for name in ("trajectory", "Series", "MAX_EVOLVE_STEPS", "no_such_name"):
        assert not hasattr(lzwalk, name), name


def test_each_name_lives_in_the_module_that_defines_it():
    errors = importlib.import_module("lzwalk.errors")
    caps = {name for name, value in vars(errors).items() if name.isupper() and isinstance(value, int)}
    assert caps == {"MAX_EVOLVE_STEPS", "MAX_TABLE_STEPS", "MAX_SWEEP_POINTS", "TAU_CAP", "TAU_MIN"}
    for name in MODULES:
        module = importlib.import_module(f"lzwalk.{name}")
        exported = getattr(module, "__all__", ())
        assert not caps & set(exported), name
        for attr in exported:
            value = getattr(module, attr)
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == module.__name__, (name, attr)


def test_a_bare_import_loads_no_module_of_the_package():
    proc = subprocess.run(
        [sys.executable, "-c", _BARE_IMPORT],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []

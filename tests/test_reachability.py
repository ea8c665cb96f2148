"""Every function defined in src/lzwalk is reached from the command line.

A fixed corpus of CLI calls runs in a fresh interpreter under a
``sys.setprofile`` hook that records the first line of every code object of
the package it enters.  The corpus covers every mode in both formats,
``--config`` (with a ``log = true`` line), ``--out``, localized, obtuse and
delocalized ``edge``, one ``verify`` and the usage and I/O errors.  The
definitions (``def`` statements, read with ``ast``) it never enters must be
exactly the keys of ``UNREACHED``, each kept for a stated reason: the
benchmark looks it up by name, builds a value of its class or resolves a
name through it, only functions the benchmark wraps call it, it is the
console entry point, or pytest or ``dir()`` calls it.  A newly dead definition fails the test, and so does a listed
one that becomes reached.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lzwalk"

SPANS = "benches/spans.py wraps it"
LADDERS = "benches/ladders.py times it"
ENTRY_POINT = "pyproject.toml installs it as the lzwalk console script"
REPR = "pytest prints it when an assertion on a series fails"
DIR = "dir() calls it to list the names that load on first access"
# evidence: the hook is entered while benches/spans.py installs its wrappers
SPAN_LOOKUP = "benches/spans.py resolves a name it wraps through it"
# evidence: ladders.py calls the class; walk.step, evolve and initial_state,
# which benches/spans.py wraps, return its instances
DENSE_STATE = "benches/ladders.py builds a WalkState, the value of the dense single-step API"
# evidence: test_helpers_are_called_only_by_wrapped_functions
WRAPPED_CALLERS = "only functions that benches/spans.py wraps call it"

# reason -> (file, text the file holds for a function of that name)
EVIDENCE = {
    SPANS: ("benches/spans.py", '"{}"'),
    LADDERS: ("benches/ladders.py", ".{}("),
    ENTRY_POINT: ("pyproject.toml", "lzwalk.cli:{}"),
    DENSE_STATE: ("benches/ladders.py", ".WalkState("),
}

# module-qualified name -> why no CLI call enters it
UNREACHED = {
    "__init__.__dir__": DIR,
    "cli.__getattr__": SPAN_LOOKUP,
    "cli.app": ENTRY_POINT,
    "edge.__getattr__": SPAN_LOOKUP,
    "edge.is_localized": SPANS,
    "edge.localization_length": SPANS,
    "genfun.Series.__repr__": REPR,
    "genfun._lam": WRAPPED_CALLERS,
    "genfun.lambda_plus_eval": SPANS,
    "genfun.lambda_plus_series": SPANS,
    "pathsum.enumerate_paths": LADDERS,
    "pathsum.enumerate_paths.<locals>.extend": LADDERS,
    "pathsum.transition_amplitude": SPANS,
    "walk.evolve": SPANS,
    "walk.initial_state": SPANS,
    "walk.norm": SPANS,
    "walk.step": SPANS,
    "walk.WalkState.__post_init__": DENSE_STATE,
}

# (argv, exit code); {tmp} is the working directory of the run
CORPUS = [
    (["evolve", "--p", "0.2", "--theta", "0.7853981633974483", "--steps", "12"], 0),
    (["evolve", "--field", "2", "--steps", "12", "--format", "json"], 0),
    (["series", "--p", "0.49", "--steps", "12"], 0),
    (["series", "--p", "0.8", "--steps", "12", "--format", "json"], 0),
    (["edge", "--p", "0.2", "--theta", "0.7853981633974483"], 0),
    (["edge", "--p", "0.2", "--theta", "2.5", "--format", "json"], 0),
    (["edge", "--p", "0.9", "--theta", "0.7853981633974483"], 0),
    (["sweep", "--fmin", "0.5", "--fmax", "5", "--points", "4"], 0),
    (["sweep", "--config", "{tmp}/sweep.cfg", "--format", "json", "--out", "{tmp}/sweep.json"], 0),
    (["verify", "--tau-max", "4"], 0),
    (["evolve"], 1),
    (["walk", "--p", "0.2"], 1),
    (["edge", "--p", "0.2", "--theta", "1", "--gamma", "1"], 1),
    (["evolve", "--config", "{tmp}/missing.cfg"], 1),
    (["edge", "--p", "0.2", "--out", "{tmp}/missing/out.csv"], 3),
]

SWEEP_CONFIG = "fmin = 0.5\nfmax = 5\npoints = 4\nlog = true\n"

# records the (file, first line) of every package code object entered
_HOOK = """
import contextlib, io, json, sys
package = sys.argv[1]
entered = set()

def hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        # a "from module import name" probes the module for __path__ through
        # its __getattr__; that call serves no lookup of the package's own
        if code.co_name == "__getattr__" and frame.f_locals.get("name") == "__path__":
            return
        entered.add((code.co_filename, code.co_firstlineno))
"""

# runs the corpus and prints the exit codes and the entered code objects,
# as JSON
_RUNNER = _HOOK + """
corpus = json.loads(sys.argv[2])
sys.setprofile(hook)
from lzwalk import cli
codes = []
for argv in corpus:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""

# installs and restores the benchmark's span wrappers and prints the code
# objects entered meanwhile, as JSON
_SPANS_RUNNER = _HOOK + """
sys.path.insert(0, sys.argv[2])
import lzwalk, lzwalk.cli
from spans import Tracer
tracer = Tracer()
sys.setprofile(hook)
tracer.install(lzwalk)
sys.setprofile(None)
tracer.restore()
print(json.dumps(sorted(entered)))
"""


def _definitions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module-qualified name of every def in the package.

    The first line is that of the first decorator, as in the code object.
    """
    out: dict[tuple[str, int], str] = {}

    def visit(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), f"{path.stem}.")
    return out


def _run(runner: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", runner, str(PACKAGE), *args],
        capture_output=True, text=True, cwd=cwd, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )


def test_unreached_definitions_are_the_listed_ones(tmp_path):
    (tmp_path / "sweep.cfg").write_text(SWEEP_CONFIG, encoding="utf-8")
    corpus = [[arg.replace("{tmp}", str(tmp_path)) for arg in argv] for argv, _ in CORPUS]
    proc = _run(_RUNNER, json.dumps(corpus), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for _, code in CORPUS]
    assert (tmp_path / "sweep.json").read_text(encoding="utf-8").count('"F"') == 4

    entered = {(path, line) for path, line in result["entered"]}
    never = {name for key, name in _definitions().items() if key not in entered}
    assert sorted(never - UNREACHED.keys()) == [], "never entered, and not listed"
    assert sorted(UNREACHED.keys() - never) == [], "listed, but entered"


def test_each_listed_reason_holds():
    for name, reason in UNREACHED.items():
        if reason in (REPR, DIR):
            assert name.endswith(".__repr__" if reason == REPR else ".__dir__")
            continue
        if reason in (SPAN_LOOKUP, WRAPPED_CALLERS):
            continue  # the two tests below
        path, pattern = EVIDENCE[reason]
        func = name.split(".<locals>.")[0].rsplit(".", 1)[1]
        assert pattern.format(func) in (ROOT / path).read_text(encoding="utf-8"), (name, reason)


def test_span_lookups_enter_the_listed_hooks(tmp_path):
    proc = _run(_SPANS_RUNNER, str(ROOT / "benches"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    entered = {(path, line) for path, line in json.loads(proc.stdout)}
    names = {name for key, name in _definitions().items() if key in entered}
    listed = {name for name, reason in UNREACHED.items() if reason == SPAN_LOOKUP}
    assert sorted(listed - names) == []


def test_helpers_are_called_only_by_wrapped_functions():
    for name, reason in UNREACHED.items():
        if reason != WRAPPED_CALLERS:
            continue
        module, func = name.split(".")
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        callers = {
            f"{module}.{caller.name}"
            for caller in ast.walk(tree)
            if isinstance(caller, ast.FunctionDef)
            for node in ast.walk(caller)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == func
        }
        assert callers and all(UNREACHED.get(c) == SPANS for c in callers), (name, callers)

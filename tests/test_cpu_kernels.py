"""The output contract across machines: what the CPU may change, and by how much.

OpenBLAS picks a compute kernel per CPU, and numpy picks its loops per CPU
level.  One child process per setting runs a small corpus with one of the
two forced for that process alone, and reports the kernel and CPU level it
ran with, so a setting that did not take effect fails the test instead of
passing it untested.  Against the child with neither setting:

* ``evolve`` prints the same bytes under both settings: it makes no BLAS
  call, and its real bulk coin and re**2 + im**2 round the same at every
  CPU level;
* ``series`` prints the same bytes at every CPU level;
* under the other OpenBLAS kernel, every printed probability of ``series``
  stays within the long-horizon bounds that ``series`` and ``evolve`` keep
  against each other, 1e-10 relative where it exceeds 1e-250 and 1e-10
  absolute elsewhere: the BLAS ``zdotu`` of its products moves its last
  bits;
* ``verify`` passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
THETA = "0.7853981633974483"

CORPUS = [
    *(["evolve", "--p", p, "--theta", THETA, "--steps", "2000"] for p in ("0.2", "0.49", "0.8")),
    # near p_c the loop trims the subnormal end of the light cone at this length
    ["evolve", "--p", "0.49", "--theta", THETA, "--steps", "8000"],
    ["series", "--p", "0.2", "--theta", THETA, "--steps", "800"],
    ["series", "--p", "0.49", "--theta", THETA, "--steps", "2000"],
    ["verify", "--tau-max", "12"],
]

# the OpenBLAS kernel, and numpy's CPU level (2.x takes group names here);
# "default" forces neither
SETTINGS = {
    "default": {},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "below_x86_v3": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4"},
}

# runs the corpus given as argv[1] in process and writes, as JSON, the
# OpenBLAS kernel that numpy's bundled library reports, numpy's X86_V3 flag
# and each call's (exit code, stdout)
_CHILD = r"""
import contextlib, ctypes, glob, io, json, os, sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from lzwalk.cli import main

libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so"))
core = None
if len(libs) == 1:
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    core = corename().decode()
outputs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    outputs.append((code, out.getvalue()))
json.dump({"core": core, "x86_v3": __cpu_features__.get("X86_V3"), "outputs": outputs}, sys.stdout)
"""


def _run_corpus(tmp_path: Path) -> dict:
    """setting -> the child's report; the children run side by side."""
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    base["PYTHONPATH"] = str(SRC)
    procs = {}
    for name, setting in SETTINGS.items():
        with open(tmp_path / f"{name}.json", "wb") as out, open(tmp_path / f"{name}.err", "wb") as err:
            procs[name] = subprocess.Popen(
                [sys.executable, "-c", _CHILD, json.dumps(CORPUS)],
                stdout=out, stderr=err, cwd=tmp_path, env={**base, **setting},
            )
    reports = {}
    for name, proc in procs.items():
        assert proc.wait(timeout=120) == 0, (tmp_path / f"{name}.err").read_text()
        reports[name] = json.loads((tmp_path / f"{name}.json").read_text())
    return reports


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


def _within_bounds(got: float, want: float) -> bool:
    return abs(got - want) <= (1e-10 * want if want > 1e-250 else 1e-10)


def test_outputs_across_blas_kernels_and_cpu_levels(tmp_path):
    reports = _run_corpus(tmp_path)
    assert reports["haswell"]["core"] == "Haswell"
    assert reports["below_x86_v3"]["x86_v3"] is False
    want = reports["default"]["outputs"]
    for name, report in reports.items():
        for argv, (code, out), (_, out_want) in zip(CORPUS, report["outputs"], want):
            assert code == 0, (name, argv)
            if argv[0] == "verify":
                assert out.endswith("ALL CHECKS PASS\n"), (name, out)
                continue
            if argv[0] == "evolve" or name == "below_x86_v3":
                assert out == out_want, (name, argv)
                continue
            rows, rows_want = _rows(out), _rows(out_want)
            assert len(rows) == len(rows_want) > 0, (name, argv)
            for row, row_want in zip(rows, rows_want):
                assert row[:2] == row_want[:2], (name, argv)
                for got, exp in zip(map(float, row[2:]), map(float, row_want[2:])):
                    assert _within_bounds(got, exp), (name, argv, row, row_want)

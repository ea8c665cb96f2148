"""Hash every byte the lzwalk CLI prints over a fixed corpus of calls.

    python3 tools/output_digest.py TREE

Imports ``lzwalk`` from ``TREE/src`` and runs each call of the corpus
through ``cli.main`` in this process, one after the other, capturing what
it writes to stdout and stderr.  Prints the number of calls, then one
SHA-256 per mode and one over all calls, each taken over the JSON lines
``[argv, exit code, stdout, stderr]`` in corpus order.  Two trees whose CLI
prints the same bytes, exit codes and error lines print the same digests:
run it once for a parent checkout and once for the change, and compare.

The corpus, each call in CSV and JSON:

* at theta in {pi/4, -1.2, 2.5, pi/4 + 2 pi, 0}: ``edge`` at ``--p`` 0.2,
  0.5 and 1e-300 and at ``--field`` 2 and 30; a 45-point linear and a
  25-point ``--log`` ``sweep`` over 0.5-6; ``series`` and ``evolve`` at
  p in {0.2, 0.49, 1} and 96 and 800 steps;
* ``verify`` at ``--tau-max`` 4 to 16;
* one usage error per mode;
* the warm-up call and every call of each workload of ``benches/calls.py``
  for seeds 1-20, without repeats.  ``benches/`` of the checkout that holds
  this script is imported and read, never changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODES = ("evolve", "series", "edge", "sweep", "verify")
THETAS = (math.pi / 4, -1.2, 2.5, math.pi / 4 + 2 * math.pi, 0.0)
SEEDS = range(1, 21)

# one call per mode that the CLI rejects before any work (exit 1)
USAGE_ERRORS = [
    ["evolve", "--p", "0.2", "--steps", "-1"],
    ["series", "--p", "0.2", "--field", "2"],
    ["edge", "--p", "1"],
    ["sweep", "--fmin", "2", "--fmax", "1", "--points", "5"],
    ["verify", "--tau-max", "99"],
]


def _point_calls() -> list[list[str]]:
    calls = []
    for theta in map(repr, THETAS):
        for point in (("--p", "0.2"), ("--p", "0.5"), ("--p", "1e-300"), ("--field", "2"), ("--field", "30")):
            calls.append(["edge", *point, "--theta", theta])
        grid = ["--fmin", "0.5", "--fmax", "6", "--theta", theta]
        calls.append(["sweep", *grid, "--points", "45"])
        calls.append(["sweep", *grid, "--points", "25", "--log"])
        for mode in ("series", "evolve"):
            for p in ("0.2", "0.49", "1"):
                for steps in ("96", "800"):
                    calls.append([mode, "--p", p, "--theta", theta, "--steps", steps])
    calls += [["verify", "--tau-max", str(tau)] for tau in range(4, 17)]
    return [argv + ["--format", fmt] for argv in calls for fmt in ("csv", "json")]


def _benchmark_calls() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "benches"))
    import calls

    argvs = [call.argv for call in calls.WARMUP.values()]
    for workload in calls.WORKLOADS:
        for seed in SEEDS:
            argvs += [call.argv for call in calls.make_calls(workload, seed)]
    return argvs


def corpus() -> list[list[str]]:
    """Every call, in a fixed order, each once."""
    unique = dict.fromkeys(map(tuple, _point_calls() + USAGE_ERRORS + _benchmark_calls()))
    return [list(argv) for argv in unique]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/output_digest.py TREE", file=sys.stderr)
        return 1
    src = Path(args[0]).resolve() / "src"
    sys.path.insert(0, str(src))
    from lzwalk import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: lzwalk loaded from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    total = hashlib.sha256()
    per_mode = {mode: hashlib.sha256() for mode in MODES}
    calls = corpus()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(call)
        record = (json.dumps([call, code, out.getvalue(), err.getvalue()]) + "\n").encode()
        per_mode[call[0]].update(record)
        total.update(record)
    print(f"calls {len(calls)}")
    for mode, digest in per_mode.items():
        print(f"{mode} {digest.hexdigest()}")
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fresh-process wall time and peak RSS of each lzwalk CLI mode, per tree.

    python3 tools/footprint.py TREE [TREE ...] [--runs N]

Starts ``python3 -m lzwalk ARGS`` for each call of a fixed set, with
``PYTHONPATH=TREE/src``, the tree as working directory and stdout sent to
``/dev/null``: ``edge``, a 45-point linear and a 25-point ``--log`` ``sweep``,
``evolve --steps 200``, ``series --steps 96`` and ``verify --tau-max 6``.
Only one child runs at a time.  The wall time runs from just before the
child is started to the return of ``os.wait4``, so interpreter start-up and
every import count; the peak RSS is the child's own ``ru_maxrss`` as
``os.wait4`` reports it (``RUSAGE_CHILDREN`` would give the largest child
so far).  N rounds (default 20); in each round every call runs once per
tree, and the order of the trees rotates from round to round.  Prints, per
call and tree, the median with [Q1, Q3] of the wall time in ms and of the
peak RSS in MB (KiB / 1024, as ``benches/run.py`` reports ``peak_rss_mb``).
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

THETA = "0.7853981633974483"

# label -> CLI arguments
CALLS = {
    "edge": ["edge", "--p", "0.2", "--theta", THETA],
    "sweep": ["sweep", "--theta", THETA, "--fmin", "0.5", "--fmax", "6", "--points", "45"],
    "sweep --log": ["sweep", "--theta", THETA, "--fmin", "0.5", "--fmax", "6", "--points", "25", "--log"],
    "evolve --steps 200": ["evolve", "--p", "0.2", "--theta", THETA, "--steps", "200"],
    "series --steps 96": ["series", "--p", "0.2", "--theta", THETA, "--steps", "96"],
    "verify --tau-max 6": ["verify", "--tau-max", "6"],
}


def run_once(tree: Path, argv: list[str]) -> tuple[float, float]:
    """(wall time in ms, peak RSS in MB) of one fresh ``lzwalk`` process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with open(os.devnull, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "lzwalk", *argv], cwd=tree, env=env, stdout=sink)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: lzwalk {' '.join(argv)} exited {proc.returncode}")
    return wall * 1e3, usage.ru_maxrss / 1024.0


def _summary(values: list[float], digits: int) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.{digits}f} [{q1:.{digits}f}, {q3:.{digits}f}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Fresh-process wall time and peak RSS per CLI mode.")
    parser.add_argument("trees", nargs="+", type=Path, help="checkouts whose src/ holds lzwalk")
    parser.add_argument("--runs", type=int, default=20, help="processes per call and tree (default 20)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2, for quartiles")
    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / "src" / "lzwalk" / "__main__.py").is_file():
            parser.error(f"{tree} holds no src/lzwalk/__main__.py")
    samples = {(label, tree): [] for label in CALLS for tree in trees}
    for round_ in range(args.runs):
        order = trees[round_ % len(trees):] + trees[: round_ % len(trees)]
        for label, call in CALLS.items():
            for tree in order:
                samples[label, tree].append(run_once(tree, call))
    print(f"{args.runs} processes per call and tree; median [Q1, Q3]")
    print(f"{'call':<20} {'tree':<32} {'wall ms':>24} {'peak RSS MB':>24}")
    for (label, tree), runs in samples.items():
        wall, rss = zip(*runs)
        print(f"{label:<20} {str(tree)[-32:]:<32} {_summary(wall, 1):>24} {_summary(rss, 2):>24}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

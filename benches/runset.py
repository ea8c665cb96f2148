"""Run the benchmark over several seeds and workloads into one result set.

    python3 benches/runset.py benches/results/a.jsonl --seeds 1-10
    python3 benches/runset.py benches/results/t.jsonl --seeds 1 --trace 1 --workloads long-evolve

Runs the command of ``BENCHMARK.json`` once per (seed, workload), one run at
a time, from the root of the checkout, and appends one JSON line per run:
``{"workload", "seed", "trace", "elapsed_s", "result"}`` where ``result`` is
the run's last output line.  Seeds are the outer loop, so slow drift of the
machine spreads over every workload alike.  Compare sets with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="Run the benchmark over seeds and workloads.")
    parser.add_argument("out", help="JSON-lines file to append results to")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11 (default 1-10)")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            line = {"workload": workload, "seed": seed, "trace": args.trace, "elapsed_s": elapsed, "result": result}
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(line) + "\n")
            shown = ", ".join(f"{k}={v['value']:.5g}" for k, v in list(result["metrics"].items())[:4])
            print(f"{workload} seed {seed}: {elapsed:.1f} s, failed {result['failed']}/{result['attempted']}, {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

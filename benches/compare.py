"""Compare two result sets of the benchmark against the bounds in BENCHMARK.json.

    python3 benches/compare.py benches/results/a.jsonl benches/results/b.jsonl
    python3 benches/compare.py benches/results/a.jsonl     # spreads of one set

For every workload and end-to-end metric it prints each set's median and
spread (distance between the first and third quartile of the runs, as a
share of their median, from ``statistics.quantiles(values, n=4)``) and the
change of the second median against the first, signed so that a positive
change is worse.  A pair agrees when both spreads are within the metric's
bound (``setup_s`` excepted), the second median is not worse than the first
by more than the bound, and the share of failed calls is the same in both
sets.  A spread under a third of its bound is marked steady.  Exits 1 if
any pair disagrees.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    """workload -> list of results of untraced runs."""
    runs: dict[str, list] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            if entry["trace"] == 0:
                runs.setdefault(entry["workload"], []).append(entry["result"])
    return runs


def summary(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def failed_share(results: list) -> tuple[int, int]:
    return sum(r["failed"] for r in results), sum(r["attempted"] for r in results)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sets = [load(path) for path in argv]
    agree = True
    header = f"{'workload':16} {'metric':12} {'bound':>6} " + " ".join(
        f"{'median' + str(i + 1):>11} {'spread' + str(i + 1):>8}" for i in range(len(sets))
    )
    print(header + (f" {'worse':>8}  verdict" if len(sets) == 2 else "  verdict"))
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [s.get(workload, []) for s in sets]
        if not all(runs):
            print(f"{workload:16} missing from a set")
            agree = False
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in rs]) for rs in runs]
            cells = " ".join(f"{m:11.5g} {s:8.2%}" for m, s in stats)
            spreads_ok = name == "setup_s" or all(s <= bound for _, s in stats)
            steady = all(s < bound / 3 for _, s in stats)
            notes = [] if spreads_ok else ["spread over bound"]
            line = f"{workload:16} {name:12} {bound:6.0%} {cells}"
            if len(sets) == 2:
                change = (stats[1][0] - stats[0][0]) / stats[0][0]
                worse = change if metric["better"] == "lower" else -change
                if worse > bound:
                    notes.append("worse than bound")
                line += f" {worse:+8.2%}"
            agree &= not notes
            if not notes and name != "setup_s" and not steady:
                notes.append("agrees, not steady")
            print(f"{line}  {'; '.join(notes) or ('agrees, steady' if name != 'setup_s' else 'agrees')}")
        shares = [failed_share(rs) for rs in runs]
        if len(sets) == 2 and shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            agree = False
            print(f"{workload:16} failed share differs: {shares[0][0]}/{shares[0][1]} vs {shares[1][0]}/{shares[1][1]}")
        else:
            print(f"{workload:16} failed " + ", ".join(f"{f}/{a}" for f, a in shares) + f" over {[len(rs) for rs in runs]} runs")
    print("ALL AGREE" if agree else "DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())

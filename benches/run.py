"""Run one workload of the lzwalk benchmark and print its metrics.

    python3 benches/run.py --workload long-evolve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout, never from an installed copy.  One client makes in-process
``lzwalk.cli.main`` calls one at a time (a closed loop) and repeats the
workload's whole call list until ``--seconds`` have passed.  Every output is
checked: against ``oracle`` the first time a call runs, and for identical
bytes every time it repeats.  A call that exits non-zero, raises or fails a
check counts as failed.

``--trace 0`` prints the end-to-end metrics of the workload:

    setup_s      median over fresh interpreters of importing lzwalk.cli and
                 finishing the workload's warm-up call
    wall_s       median time of one pass over the whole call list
    call_p50_ms  median latency of one cli.main call
    peak_rss_mb  peak resident memory of this process after the timed rounds

The three times are scaled to a reference machine speed by ``calibrate``.

``--trace 1`` runs every workload with spans around the calls into each
lzwalk module (see ``spans``), alternating untraced and traced passes, then
the per-layer size ladders (see ``ladders``).  It prints the per-layer
metrics and writes them, the tracing overhead (traced minus untraced wall_s
per workload) and the spans of one traced pass of ``--workload`` to
``benches/results/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import calls
import oracle
from calibrate import WORKLOAD_KERNEL, Calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 5

# Per-layer metrics of the traced run: layers and call counts that do real
# work in each workload.  An idle layer would read 0 on every run.
SELF_TIMES = {
    "long-evolve": ("cli", "walk"),
    "series-expand": ("cli", "genfun"),
    "breakdown-sweep": ("cli", "edge"),
    "verify-suite": ("cli", "coin", "walk", "pathsum", "genfun", "edge", "verify"),
}
COUNTS = {
    "long-evolve": ("walk.step", "coin.make_bulk_coin"),
    "series-expand": ("coin.make_bulk_coin", "genfun.bounded_gf_table"),
    "breakdown-sweep": ("edge.observables",),
    "verify-suite": (
        "walk.step", "coin.make_bulk_coin", "pathsum.transition_amplitude",
        "genfun.bounded_gf_table", "edge.observables",
    ),
}


def load_package():
    """Import lzwalk from this checkout's ``src/``; exit 2 if it is absent."""
    init = os.path.join(SRC, "lzwalk", "__init__.py")
    if not os.path.isfile(init):
        print(f"error: no lzwalk sources at {init}; run from the root of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import lzwalk
    import lzwalk.cli  # noqa: F401  (also imports lzwalk.verify)

    if os.path.dirname(os.path.abspath(lzwalk.__file__)) != os.path.join(SRC, "lzwalk"):
        print(f"error: imported lzwalk from {lzwalk.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return lzwalk


def measure_setup(workload: str) -> float:
    """Median wall time of a fresh interpreter that imports lzwalk.cli and
    finishes the warm-up call (interpreter start-up included)."""
    argv = calls.WARMUP[workload].argv
    code = f"import sys; sys.path.insert(0, {SRC!r}); from lzwalk import cli; sys.exit(cli.main({argv!r}))"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up call {argv} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return statistics.median(times)


def run_call(cli, argv: list[str]) -> tuple[float, int | None, str]:
    """(latency, exit code, stdout) of one in-process call; None for a raise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped traceback is a failed call
            code = None
            err.write(repr(exc))
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue() if code == 0 else err.getvalue()


class Workload:
    """Call list of one workload, its timings and its output checks."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.calls = calls.make_calls(name, seed)
        self.argvs = [call.argv for call in self.calls]
        self.latencies: list[float] = []
        self.walls: list[float] = []
        self.first: list[tuple] | None = None
        self.failed = 0
        self.attempted = 0
        self.reasons: list[str] = []

    def warm_up(self, cli) -> None:
        _, code, text = run_call(cli, calls.WARMUP[self.name].argv)
        if code != 0:
            raise RuntimeError(f"warm-up call of {self.name} exited {code}: {text[-500:]}")

    def run_round(self, cli) -> float:
        """One pass over the call list; returns its wall time."""
        start = time.perf_counter()
        results = [run_call(cli, argv) for argv in self.argvs]
        wall = time.perf_counter() - start
        self.walls.append(wall)
        self.attempted += len(results)
        self.latencies += [latency for latency, _, _ in results]
        if self.first is None:
            self.first = [(code, text) for _, code, text in results]
        else:
            for i, (_, code, text) in enumerate(results):
                if (code, text) != self.first[i]:
                    self._fail(i, "output differs from the first run of the same call")
        return wall

    def check_first_outputs(self) -> None:
        """Check each call's first output against the reference; a failed
        check counts every repetition of that call as failed."""
        repeats = self.attempted // len(self.calls)
        for i, (call, (code, text)) in enumerate(zip(self.calls, self.first)):
            if code != 0:
                reason = f"exit {code}: {text.strip()[-300:]}"
            else:
                try:
                    oracle.CHECKS[call.mode](call.inputs, text, call.fmt)
                    continue
                except (oracle.CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
                    reason = f"check failed: {exc}"
            for _ in range(repeats):
                self._fail(i, reason)

    def _fail(self, i: int, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"{self.name} call {i} ({' '.join(self.argvs[i])}): {reason}")


def run_untraced(pkg, workload: str, seed: int, seconds: float) -> tuple[Workload, dict]:
    setup_raw = measure_setup(workload)
    cal = Calibration(workload)
    wl = Workload(workload, seed)
    wl.warm_up(pkg.cli)
    walls, latencies = [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall = wl.run_round(pkg.cli)
        scale = cal.scale_after(wall)
        walls.append(wall * scale)
        latencies += [latency * scale for latency in wl.latencies[-len(wl.calls):]]
        if time.perf_counter() >= deadline:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wl.check_first_outputs()
    print(
        f"# raw times: setup_s {setup_raw:.6g}, wall_s {statistics.median(wl.walls):.6g}, "
        f"call_p50_ms {statistics.median(wl.latencies) * 1e3:.6g}; "
        f"median {WORKLOAD_KERNEL[workload]} burst {statistics.median(cal.bursts) * 1e3:.4g} ms "
        f"(reference {cal.reference_s * 1e3:.4g} ms)"
    )
    metrics = {
        "setup_s": (setup_raw * cal.run_scale, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "call_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return wl, metrics


def run_traced(pkg, workload: str, seed: int, seconds: float) -> tuple[list[Workload], dict]:
    import ladders
    import spans

    tracer = spans.Tracer()
    kept_spans: list[tuple] = []
    report = {}
    metrics = {}
    workloads = []
    for name in calls.WORKLOADS:
        wl = Workload(name, seed)
        wl.warm_up(pkg.cli)
        untraced, traced, self_times = [], [], []
        deadline = time.perf_counter() + seconds / len(calls.WORKLOADS)
        while True:
            untraced.append(wl.run_round(pkg.cli))
            tracer.reset()
            tracer.keep_spans = name == workload and not kept_spans
            tracer.install(pkg)
            try:
                traced.append(wl.run_round(pkg.cli))
            finally:
                tracer.restore()
            if tracer.keep_spans:
                kept_spans = list(tracer.spans)
            self_times.append(tracer.layer_self_times())
            if time.perf_counter() >= deadline:
                break
        wl.check_first_outputs()
        workloads.append(wl)
        layer_self = {layer: statistics.median(st[layer] for st in self_times) for layer in spans.LAYERS}
        for layer in SELF_TIMES[name]:
            metrics[f"{name}.{layer}.self_s"] = (layer_self[layer], "s")
        for span_name in COUNTS[name]:
            metrics[f"{name}.{span_name}.calls"] = (tracer.count(span_name), "count")
        report[name] = {
            "rounds": len(traced),
            "untraced_wall_s": statistics.median(untraced),
            "traced_wall_s": statistics.median(traced),
            "overhead_s": statistics.median(traced) - statistics.median(untraced),
            "self_s": layer_self,
            "spans_by_name": {k: {"count": v[0], "total_s": v[1], "self_s": v[2]} for k, v in sorted(tracer.stats.items())},
        }
    for name, unit, value in ladders.run_ladders(pkg):
        metrics[name] = (value, unit)
    t0 = kept_spans[0][4] if kept_spans else 0.0
    trace = {
        "workload": workload,
        "seed": seed,
        "machine": machine(),
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "workloads": report,
        "spans": {
            "workload": workload,
            "fields": ["id", "parent", "call", "name", "start_us", "end_us"],
            "rows": [[i, parent, call, name, (s - t0) * 1e6, (e - t0) * 1e6] for i, parent, call, name, s, e in kept_spans],
        },
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    for name, entry in report.items():
        print(
            f"# {name}: untraced wall_s {entry['untraced_wall_s']:.4f}, traced {entry['traced_wall_s']:.4f}, "
            f"overhead {entry['overhead_s']:+.4f} s over {entry['rounds']} round(s)"
        )
    print(f"# trace written to {os.path.relpath(path, ROOT)}")
    return workloads, metrics


def machine() -> dict:
    import numpy

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(calls.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pkg = load_package()
    if args.trace:
        workloads, metrics = run_traced(pkg, args.workload, args.seed, args.seconds)
    else:
        wl, metrics = run_untraced(pkg, args.workload, args.seed, args.seconds)
        workloads = [wl]
    attempted = sum(wl.attempted for wl in workloads)
    failed = sum(wl.failed for wl in workloads)
    for wl in workloads:
        for reason in wl.reasons:
            print(f"FAILED {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# attempted {attempted} calls, failed {failed}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer size ladders: each public function timed at three sizes.

Every entry is (metric name, unit, value).  Small calls are repeated and
the median is reported; the largest sizes run once or a few times.  Inputs
are fixed, so the ladders read the same work on every run.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time
import tracemalloc

import numpy as np

from oracle import field_at_gap, tunneling_p

THETA = math.pi / 4


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _random_state(walk, sites: int, rng):
    amps = rng.standard_normal((2, sites)) + 1j * rng.standard_normal((2, sites))
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    return walk.WalkState(sites - 1, amps[0], amps[1])


def walk_ladder(pkg, rng) -> list[tuple]:
    walk = pkg.walk
    u = pkg.coin.make_bulk_coin(0.2, 0.0, THETA)
    ub = pkg.coin.make_boundary_coin(0.0)
    out = []
    for sites, repeats in ((400, 2000), (4000, 500), (16000, 200)):
        state = _random_state(walk, sites, rng)
        per_step = _median_time(lambda: walk.step(state, u, ub), repeats)
        out.append((f"walk.step.n{sites}_us", "us", per_step * 1e6))
    for steps in (4000, 8000, 16000):
        elapsed = _median_time(lambda: walk.evolve(u, ub, steps), 1)
        out.append((f"walk.evolve.T{steps}_s", "s", elapsed))
    # over the longest walk; step tau -> tau + 1 writes tau + 2 sites
    out.append(("walk.site_steps_per_s", "1/s", steps * (steps + 3) / 2 / elapsed))
    return out


def genfun_ladder(pkg, rng) -> list[tuple]:
    genfun = pkg.genfun
    u = pkg.coin.make_bulk_coin(0.2, 0.0, THETA)
    ub = pkg.coin.make_boundary_coin(0.0)
    out = []
    for order in (400, 800, 1600):
        elapsed = _median_time(lambda: genfun.lambda_plus_series(u, order), 3)
        out.append((f"genfun.lambda_plus_series.o{order}_s", "s", elapsed))
    x = genfun.Series(rng.standard_normal(800) + 1j * rng.standard_normal(800))
    # the denominator 1 - c~ A(z) that bounded_gf_table divides by
    y = 1.0 - ub.c * genfun.absorbing_gf_series(u, 800)
    out.append(("genfun.series_mul.o800_us", "us", _median_time(lambda: x * y, 200) * 1e6))
    out.append(("genfun.series_div.o800_ms", "ms", _median_time(lambda: x / y, 10) * 1e3))
    for n, repeats in ((200, 5), (400, 3), (800, 1)):
        elapsed = _median_time(lambda: genfun.bounded_gf_table(u, ub, n, n + 1), repeats)
        out.append((f"genfun.bounded_gf_table.n{n}_s", "s", elapsed))
    tracemalloc.start()
    try:
        genfun.bounded_gf_table(u, ub, 800, 801)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out.append(("genfun.bounded_gf_table.n800_peak_mb", "MB", peak / 2**20))
    return out


def edge_ladder(pkg) -> list[tuple]:
    edge = pkg.edge
    out = []
    for label, gap, repeats in (("1e-2", 1e-2, 20), ("1e-3", 1e-3, 5), ("1e-4", 1e-4, 3)):
        p = tunneling_p(field_at_gap(THETA, gap))
        elapsed = _median_time(lambda: edge.observables(p, THETA), repeats)
        out.append((f"edge.observables.gap{label}_ms", "ms", elapsed * 1e3))
    elapsed = _median_time(lambda: edge.floquet_mode(0.2, THETA, 1000), 5)
    out.append(("edge.floquet_mode.n1000_ms", "ms", elapsed * 1e3))
    params = pkg.coin.ModelParams(F=2.0, Fbar=1.0, gamma=THETA)
    out.append(("edge.edge_report_us", "us", _median_time(lambda: edge.edge_report(params), 1000) * 1e6))
    return out


def pathsum_ladder(pkg) -> list[tuple]:
    pathsum = pkg.pathsum
    u = pkg.coin.make_bulk_coin(0.2, 0.3, THETA)
    ub = pkg.coin.make_boundary_coin(0.0)
    out = []
    for tau, repeats in ((12, 5), (14, 3), (16, 3)):
        elapsed = _median_time(lambda: pathsum.transition_amplitude(0, tau, u, ub), repeats)
        out.append((f"pathsum.transition_amplitude.t{tau}_ms", "ms", elapsed * 1e3))
    paths = len(pathsum.enumerate_paths(0, 16))  # the t16 case timed last
    out.append(("pathsum.paths_per_s", "1/s", paths / elapsed))
    return out


def coin_cli_ladder(pkg) -> list[tuple]:
    make = pkg.coin.make_bulk_coin
    out = [("coin.make_bulk_coin_us", "us", _median_time(lambda: make(0.2, 0.3, THETA), 2000) * 1e6)]
    cli = pkg.cli
    inner = []
    run_evolve = cli.run_evolve

    def timed_run_evolve(cfg):
        start = time.perf_counter()
        try:
            return run_evolve(cfg)
        finally:
            inner.append(time.perf_counter() - start)

    argv = ["evolve", "--p", "0.8", "--theta", repr(THETA), "--steps", "8000"]
    overheads = []
    cli.run_evolve = timed_run_evolve
    try:
        for _ in range(3):
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(argv)
                total = time.perf_counter() - start
            if code != 0:
                raise RuntimeError(f"lzwalk {' '.join(argv)} exited with {code}")
            overheads.append(total - inner[-1])
    finally:
        cli.run_evolve = run_evolve
    out.append(("cli.overhead.evolve8000_ms", "ms", statistics.median(overheads) * 1e3))
    return out


def run_ladders(pkg) -> list[tuple]:
    rng = np.random.default_rng(2004)
    return (
        walk_ladder(pkg, rng)
        + genfun_ladder(pkg, rng)
        + edge_ladder(pkg)
        + pathsum_ladder(pkg)
        + coin_cli_ladder(pkg)
    )

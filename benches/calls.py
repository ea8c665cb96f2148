"""Seeded call lists of the four benchmark workloads.

A workload is a fixed list of ``lzwalk`` command lines run one after the
other by a single client.  The seed perturbs each physical input (p, theta,
the distance 1 - r to the critical point, the verify tolerance) by a fraction
of a percent and shuffles the verify calls, so no two seeds ask for the same
bytes while every seed does the same amount of work.  The perturbations stay
small because the cost of a call depends on its inputs: walk steps slow down
where the light-cone tail holds subnormal amplitudes (near p = 0.5 at
theta = pi/4), and ``edge.observables`` runs about 1/(1 - r) iterations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from oracle import critical_field, field_at_gap

THETA = math.pi / 4


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the inputs its output is checked against."""

    mode: str
    fmt: str
    inputs: dict = field(default_factory=dict)

    @property
    def argv(self) -> list[str]:
        argv = [self.mode]
        for key, value in self.inputs.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                argv.append(flag)
            else:
                argv += [flag, repr(value)]
        return argv + ["--format", self.fmt]


def _jitter(rng: random.Random, x: float, rel: float) -> float:
    return x * (1.0 + rel * (2.0 * rng.random() - 1.0))


def _format(i: int) -> str:
    return "json" if i % 2 else "csv"


def long_evolve(rng: random.Random) -> list[Call]:
    """evolve at T = 2000/4000/8000 on the localised, near-critical and
    delocalised side of p_c = 0.5 (theta = pi/4), CSV and JSON alternating."""
    calls = []
    for i, steps in enumerate((2000, 4000, 8000)):
        for j, p in enumerate((0.2, 0.49, 0.8)):
            inputs = {"p": _jitter(rng, p, 0.001), "theta": THETA, "steps": steps}
            calls.append(Call("evolve", _format(i + j), inputs))
    return calls


def series_expand(rng: random.Random) -> list[Call]:
    """series at T = 200/400/800 (cost O(T^3), tables O(T^2)), two p."""
    calls = []
    for i, steps in enumerate((200, 400, 800)):
        for j, p in enumerate((0.2, 0.8)):
            inputs = {"p": _jitter(rng, p, 0.001), "theta": THETA, "steps": steps}
            calls.append(Call("series", _format(i + j), inputs))
    return calls


def _near_critical_sweep(theta: float, gap: float, below: int, above: int) -> dict:
    """Linear grid whose point number ``below`` sits where 1 - r = gap.

    The spacing is 2% of F_c, so the first point past F_c is clearly
    delocalised and the points further below are cheap.
    """
    f_star = field_at_gap(theta, gap)
    h = 0.02 * critical_field(theta)
    return {
        "theta": theta,
        "fmin": f_star - below * h,
        "fmax": f_star + above * h,
        "points": below + above + 1,
    }


def breakdown_sweep(rng: random.Random) -> list[Call]:
    """sweep and edge through the breakdown transition at several theta.

    Closest approach is 1 - r = 1e-4 (0.1-0.2 s of ``observables``); points
    past F_c and at theta > pi/2 cost almost nothing.
    """
    specs = []
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        theta = _jitter(rng, theta, 0.002)
        specs.append(("sweep", _near_critical_sweep(theta, _jitter(rng, 1e-4, 0.005), 30, 10)))
    theta = _jitter(rng, THETA, 0.002)
    specs.append(("sweep", _near_critical_sweep(theta, _jitter(rng, 1e-3, 0.005), 20, 0)))
    f_c = critical_field(theta)
    specs.append(("sweep", {"theta": theta, "fmin": _jitter(rng, 1.05 * f_c, 0.005), "fmax": 3.0 * f_c, "points": 25, "log": True}))
    obtuse = _jitter(rng, 2.0 * math.pi / 3, 0.002)
    specs.append(("sweep", {"theta": obtuse, "fmin": 0.5, "fmax": _jitter(rng, 12.0, 0.005), "points": 41}))
    for gap in (1e-2, 1e-3, 1e-4):
        specs.append(("edge", {"field": field_at_gap(theta, _jitter(rng, gap, 0.005)), "theta": theta}))
    specs.append(("edge", {"field": _jitter(rng, 1.5 * f_c, 0.005), "theta": theta}))
    specs.append(("edge", {"field": _jitter(rng, 3.0, 0.005), "theta": obtuse}))
    return [Call(mode, _format(i), inputs) for i, (mode, inputs) in enumerate(specs)]


def verify_suite(rng: random.Random) -> list[Call]:
    """verify at the default --tau-max 10 and at 12 and 14, both formats."""
    tol = 1e-11 * (1.0 + rng.random())
    calls = [
        Call("verify", fmt, {"tau_max": tau_max, "unitarity_tol": tol})
        for tau_max, fmt in ((10, "csv"), (10, "json"), (12, "csv"), (14, "csv"), (14, "json"))
    ]
    rng.shuffle(calls)
    return calls


WORKLOADS = {
    "long-evolve": long_evolve,
    "series-expand": series_expand,
    "breakdown-sweep": breakdown_sweep,
    "verify-suite": verify_suite,
}

# Warm-up call of each workload: run once in every fresh interpreter that
# measures set-up, and once in process before the timed rounds.
WARMUP = {
    "long-evolve": Call("evolve", "csv", {"p": 0.3, "theta": THETA, "steps": 200}),
    "series-expand": Call("series", "csv", {"p": 0.3, "theta": THETA, "steps": 96}),
    "breakdown-sweep": Call("sweep", "csv", {"theta": THETA, "fmin": 0.5, "fmax": 6.0, "points": 45}),
    "verify-suite": Call("verify", "csv", {"tau_max": 6}),
}


def make_calls(workload: str, seed: int) -> list[Call]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))

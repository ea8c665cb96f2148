"""Machine-speed calibration of the end-to-end times.

The benchmark machine is shared, and its speed drifts over minutes: between
20-second runs the same workload's median pass time moved by 10-25%
(interquartile spread over five seeds), a drift no median inside one run can
remove.  Each run therefore times short bursts of a fixed kernel right after
every pass and reports each pass time multiplied by
``reference_s / median(bursts next to it)``: the time at the machine speed at
which the median burst takes ``reference_s``.  The kernels use no lzwalk
code, so a change to the package moves the scaled times in full while the
drift of the machine cancels.

The drift does not slow every kind of work alike, so each workload uses the
kernel that tracked it best in a test of five kernels over five seeds
(interquartile spread of the pass time, raw -> scaled):

    vector       long-evolve 23% -> 4%, series-expand 8% -> 1.4%,
                 verify-suite 7% -> 3%
    interpreter  breakdown-sweep 19% -> 4%
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Built without numpy.random, which the workloads other than verify-suite
# never import and which would add to their peak_rss_mb.
_VEC = np.exp(0.7j * np.arange(4000)) * (1.0 + 0.5 * np.cos(0.3 * np.arange(4000)))
_VEC[2000:] *= 1e-310  # subnormal, like the far tail of a long walk


def _vector() -> None:
    """Arithmetic on 4000-element complex arrays, half subnormal."""
    y = _VEC
    for _ in range(60):
        y = 0.6 * y[::-1] + 0.8 * _VEC


def _interpreter() -> None:
    """A Python loop of float arithmetic and calls."""
    acc = 0.0
    for i in range(12000):
        acc += abs(complex(i, 1.0) * 0.5) ** 0.5


# kernel name -> (kernel, median burst time in seconds on the machine of
# README.md, so that scaled and raw times agree on average there)
KERNELS = {
    "vector": (_vector, 0.0043),
    "interpreter": (_interpreter, 0.0055),
}
WORKLOAD_KERNEL = {
    "long-evolve": "vector",
    "series-expand": "vector",
    "breakdown-sweep": "interpreter",
    "verify-suite": "vector",
}

# Share of the time just measured that is spent on bursts after it.
SAMPLE_SHARE = 0.15
MIN_BURSTS = 3


class Calibration:
    """Times one workload's kernel and scales raw times by it."""

    def __init__(self, workload: str):
        self._kernel, self.reference_s = KERNELS[WORKLOAD_KERNEL[workload]]
        self.bursts: list[float] = []

    @property
    def run_scale(self) -> float:
        """Factor from every burst of the run, for the set-up times: bursts
        taken between the short set-up processes gave erratic factors
        (scaled set-up medians from 0.12 to 0.48 s over ten seeds)."""
        return self.reference_s / statistics.median(self.bursts)

    def scale_after(self, elapsed: float) -> float:
        """Burst for ``SAMPLE_SHARE`` of ``elapsed``; return the factor that
        converts a time measured just before to the reference speed."""
        samples = []
        start = time.perf_counter()
        while len(samples) < MIN_BURSTS or time.perf_counter() - start < SAMPLE_SHARE * elapsed:
            t0 = time.perf_counter()
            self._kernel()
            samples.append(time.perf_counter() - t0)
        self.bursts += samples
        return self.reference_s / statistics.median(samples)

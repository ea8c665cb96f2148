"""Spans around calls into the lzwalk modules, recorded from outside the package.

``Tracer.install`` replaces module attributes with timing wrappers; it edits
no source file.  A module that imported a function by name (``from .walk
import step`` in ``cli``) holds its own reference, so each such reference is
wrapped where it is looked up.  Every span records its name, start, end, the
span that caused it and the CLI call it belongs to.  A module's self time is
the time inside its spans minus the time inside their child spans.
"""

from __future__ import annotations

import functools
import time

LAYERS = ("cli", "coin", "walk", "pathsum", "genfun", "edge", "verify")

_EDGE_FUNCS = (
    "decay_ratio", "is_localized", "localization_length", "pole", "thresholds",
    "floquet_mode", "quasi_energy", "observables", "edge_report",
)
_VERIFY_CHECKS = (
    "check_coin_unitarity", "check_norm_drift", "check_three_way",
    "check_pqrs_structure", "check_recursion_relation", "check_absorbing_gf",
    "check_closed_forms", "check_parseval", "check_pole_zero",
    "check_edge_mode", "check_weight_identity", "check_observable_ratio",
    "check_edge_vs_simulation", "check_quasi_energy_slope",
)


def _targets(pkg):
    """(owner, attribute, span name) for every wrapped reference."""
    cli, coin, walk = pkg.cli, pkg.coin, pkg.walk
    pathsum, genfun, edge, verify = pkg.pathsum, pkg.genfun, pkg.edge, pkg.verify
    out = [(cli, "main", "cli.main")]
    out += [(cli, f"run_{m}", f"cli.run_{m}") for m in ("evolve", "series", "edge", "sweep", "verify")]
    out += [(walk, f, f"walk.{f}") for f in ("initial_state", "step", "norm", "evolve")]
    out += [(cli, f, f"walk.{f}") for f in ("initial_state", "step")]
    for owner in (cli, edge, verify):
        out += [(owner, f, f"coin.{f}") for f in ("make_bulk_coin", "make_boundary_coin")]
    out += [(cli, "ModelParams", "coin.ModelParams"), (coin.Coin, "unitarity_defect", "coin.unitarity_defect")]
    out += [(pathsum, f, f"pathsum.{f}") for f in ("transition_amplitude", "pqrs_coefficient_series", "pqrs_residual")]
    out += [
        (genfun, f, f"genfun.{f}")
        for f in ("lambda_plus_series", "lambda_plus_eval", "absorbing_gf_series", "b_gf_closed_series", "bounded_gf_table")
    ]
    out += [(cli, "bounded_gf_table", "genfun.bounded_gf_table"), (edge, "lambda_plus_eval", "genfun.lambda_plus_eval")]
    out += [(edge, f, f"edge.{f}") for f in _EDGE_FUNCS]
    out += [(cli, f, f"edge.{f}") for f in ("decay_ratio", "is_localized", "localization_length", "observables", "edge_report")]
    out += [(verify, "run_all", "verify.run_all")]
    out += [(verify, f, f"verify.{f}") for f in _VERIFY_CHECKS]
    return out


class Tracer:
    """In-memory span recorder: install, run calls, restore.

    Spans themselves are kept only while ``keep_spans`` is set; the per-name
    count, total and self time are always accumulated.
    """

    def __init__(self) -> None:
        self.keep_spans = False
        self.spans: list[tuple] = []  # (id, parent, call, name, start, end)
        self.stats: dict[str, list] = {}  # name -> [count, total, self]
        self._stack: list[list] = []  # [span id, time in children]
        self._next_id = 0
        self._call_id = -1
        self._patched: list[tuple] = []

    def install(self, pkg) -> None:
        for owner, attr, name in _targets(pkg):
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name))
            self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.stats.clear()

    def _wrap(self, fn, name: str):
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if not stack:
                tracer._call_id += 1
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                entry = tracer.stats.get(name)
                if entry is None:
                    entry = tracer.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if tracer.keep_spans:
                    tracer.spans.append((span_id, parent, tracer._call_id, name, start, end))

        return wrapper

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_time) in self.stats.items():
            out[name.split(".", 1)[0]] += self_time
        return out

    def count(self, name: str) -> int:
        entry = self.stats.get(name)
        return entry[0] if entry else 0

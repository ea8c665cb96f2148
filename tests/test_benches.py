"""The traced benchmark run looks package functions up by name.

``benches/spans.py`` looks up each (module, attribute) pair it wraps, and
``benches/ladders.py`` each function it times; a rename in the package would
make ``benches/run.py --trace 1`` crash.  A function that moves out of the
reach of a wrapper would instead make its call-count metric read 0.
"""

import ast
import contextlib
import io
import json
from pathlib import Path

import lzwalk
# importing lzwalk.cli loads no engine module; spans._targets reaches
# pkg.verify and the other engines through the package's lazy __getattr__
import lzwalk.cli  # noqa: F401


ROOT = Path(__file__).resolve().parents[1]
BENCHES = ROOT / "benches"


def test_span_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHES))
    from spans import _targets

    missing = [name for owner, attr, name in _targets(lzwalk) if not hasattr(owner, attr)]
    assert missing == []


def _package_module(node):
    """<module> of a ``pkg.<module>`` expression, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "pkg":
        return node.attr
    return None


def _ladder_lookups():
    """(module, attribute) pairs that benches/ladders.py reads off the package.

    A module is read as ``pkg.<module>``; an attribute as
    ``pkg.<module>.<attr>`` or as ``<name>.<attr>`` for a name that some
    assignment binds to ``pkg.<module>``.
    """
    tree = ast.parse((BENCHES / "ladders.py").read_text(encoding="utf-8"))
    bound = {
        node.targets[0].id: _package_module(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and _package_module(node.value)
    }
    lookups = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        module = _package_module(node)
        if module:
            lookups.add((None, module))
        elif _package_module(node.value):
            lookups.add((_package_module(node.value), node.attr))
        elif isinstance(node.value, ast.Name) and node.value.id in bound:
            lookups.add((bound[node.value.id], node.attr))
    return lookups


def test_ladder_lookups_resolve():
    lookups = _ladder_lookups()
    # a module, a direct chain, an attribute through a bound name and one
    # through a parameter of that name
    assert {(None, "cli"), ("coin", "ModelParams"), ("cli", "run_evolve"), ("walk", "WalkState")} <= lookups
    missing = [
        f"{module}.{attr}" if module else attr
        for module, attr in sorted(lookups, key=str)
        if not hasattr(getattr(lzwalk, module) if module else lzwalk, attr)
    ]
    assert missing == []


# the wrapped functions that no workload call enters; benches/spans.py wraps
# them where no CLI path calls them (ROADMAP item 1a)
ROADMAP_1A = "its wrapper sits on a function that the workload's calls do not enter (ROADMAP item 1a)"
KNOWN_ZEROS = {
    "long-evolve.walk.step.calls": ROADMAP_1A,
    "verify-suite.walk.step.calls": ROADMAP_1A,
    "verify-suite.pathsum.transition_amplitude.calls": ROADMAP_1A,
    "breakdown-sweep.edge.observables.calls": ROADMAP_1A,
}


def test_count_metrics_read_more_than_zero_but_the_known_zeros(monkeypatch):
    # each workload's warm-up call, traced as benches/run.py traces a pass
    monkeypatch.syspath_prepend(str(BENCHES))
    import calls
    import spans

    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    metrics = [m["name"] for m in per_layer if m["name"].endswith(".calls")]
    cli = lzwalk.cli
    counts = {}
    for workload, call in calls.WARMUP.items():
        tracer = spans.Tracer()
        bound = set(vars(cli))
        tracer.install(lzwalk)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(call.argv) == 0
        finally:
            tracer.restore()
            # restore binds the names that cli.__getattr__ resolved; later
            # tests see the module as imported
            for name in set(vars(cli)) - bound:
                delattr(cli, name)
        for metric in metrics:
            if metric.startswith(workload + "."):
                counts[metric] = tracer.count(metric[len(workload) + 1 : -len(".calls")])
    assert sorted(counts) == sorted(metrics)
    assert sorted(m for m, n in counts.items() if n == 0) == sorted(KNOWN_ZEROS)

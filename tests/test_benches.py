"""The traced benchmark run looks package functions up by name.

``benches/spans.py`` looks up each (module, attribute) pair it wraps, and
``benches/ladders.py`` each function it times; a rename in the package would
make ``benches/run.py --trace 1`` crash.
"""

import ast
from pathlib import Path

import lzwalk
# importing lzwalk.cli loads no engine module; spans._targets reaches
# pkg.verify and the other engines through the package's lazy __getattr__
import lzwalk.cli  # noqa: F401


BENCHES = Path(__file__).resolve().parents[1] / "benches"


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

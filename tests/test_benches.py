"""The traced benchmark run wraps package functions by name.

``benches/spans.py`` looks up each (module, attribute) pair it wraps; a
rename in the package would make ``benches/run.py --trace 1`` crash.
"""

from pathlib import Path

import lzwalk
import lzwalk.cli  # noqa: F401  (also imports lzwalk.verify)


def test_span_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benches"))
    from spans import _targets

    missing = [name for owner, attr, name in _targets(lzwalk) if not hasattr(owner, attr)]
    assert missing == []

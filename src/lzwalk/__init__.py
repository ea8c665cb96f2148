"""Bounded discrete-time quantum walk model of field-driven level dynamics.

Three independent amplitude engines (direct evolution, path enumeration,
generating-function series) plus an analytic edge-state analyzer and a CLI.

The package holds its modules and no other name: import each name from the
module that defines it, e.g. ``from lzwalk.walk import trajectory``.
``import lzwalk`` loads no module of the package; each loads on first
access, ``lzwalk.walk`` or ``import lzwalk.walk``, through the module
``__getattr__`` (PEP 562), so that a process which never touches an engine
never imports numpy.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("cli", "coin", "edge", "errors", "genfun", "pathsum", "verify", "walk")


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f".{name}", __name__)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES})

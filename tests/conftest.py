import ast
import math
from pathlib import Path

import mpmath
import pytest
from hypothesis import settings

from lzwalk import make_boundary_coin, make_bulk_coin

# property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic
settings.register_profile(
    "lzwalk", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("lzwalk")

# reference parameter point used throughout: p = 0.2, theta = pi/4
P_REF = 0.2
THETA_REF = math.pi / 4


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lzwalk"


def package_sites(matches):
    """Qualified names of the package definitions that hold a node for which
    ``matches(node)`` is true: ``module.function``, ``module.Class.method``,
    or ``module`` for module-level code."""
    sites = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        if matches(node):
            sites.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sites


def j_paper_exact(p, theta):
    """The closed form of J_paper_form as written, in 60-digit arithmetic."""
    with mpmath.workdps(60):
        q, t = mpmath.mpf(p), mpmath.mpf(theta)
        s, c = mpmath.sqrt(1 - q), mpmath.cos(t)
        return q * (2 - q - 2 * c * s) / (2 * s * (s * c - 1) ** 2)


@pytest.fixture
def ref_coins():
    """Bulk and boundary coins at the reference point (gauge: gamma = theta)."""
    return make_bulk_coin(P_REF, 0.0, THETA_REF), make_boundary_coin(0.0)


@pytest.fixture
def phased_coins():
    """A coin pair with all three phases nonzero (theta = gamma - gamma_tilde)."""
    return make_bulk_coin(P_REF, 0.3, THETA_REF + 0.1), make_boundary_coin(0.1)

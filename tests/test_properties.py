"""Identities that must hold at every parameter point, checked on drawn points.

Each point is (p, beta, gamma, gamma_tilde).  Besides p spread over the
allowed range, the draws pack p next to the transition p_c = sin^2(theta),
theta = gamma - gamma_tilde, and next to the ballistic limit p -> 1.  Points
z of the unit disk are packed next to its rim.  The hypothesis profile in
conftest.py fixes the examples.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lzwalk import (
    ModelParams,
    edge_report,
    lambda_plus_eval,
    make_boundary_coin,
    make_bulk_coin,
    norm,
    observables,
    trajectory,
)
from lzwalk.verify import three_way_residual

PHASES = st.floats(-math.pi, math.pi)
# |z| <= 1 - 1e-6
RADII = st.floats(1e-6, 1.0 - 1e-6) | st.floats(1e-6, 1e-3).map(lambda gap: 1.0 - gap)


@st.composite
def points(draw, min_gap):
    """(p, beta, gamma, gamma_tilde) with 0 < p <= 1 - min_gap."""
    beta, gamma, gamma_tilde = draw(PHASES), draw(PHASES), draw(PHASES)
    p_c = math.sin(gamma - gamma_tilde) ** 2
    p = draw(
        st.floats(1e-6, 1.0 - min_gap)
        | st.floats(-1e-6, 1e-6).map(lambda d: p_c + d)
        | st.floats(min_gap, 1e-3).map(lambda gap: 1.0 - gap)
    )
    return min(max(p, 1e-6), 1.0 - min_gap), beta, gamma, gamma_tilde


@given(points(min_gap=0.0))
def test_walk_keeps_norm_and_parity_zeros(point):
    p, beta, gamma, gamma_tilde = point
    u, ub = make_bulk_coin(p, beta, gamma), make_boundary_coin(gamma_tilde)
    for s in trajectory(u, ub, 120, range(121)):
        assert abs(norm(s) - 1.0) < 1e-11
        off = np.arange(s.tau + 1) % 2 != s.tau % 2
        assert np.all(s.psi_L[off] == 0.0) and np.all(s.psi_R[off] == 0.0)


# The series closed forms divide by the coin entry c = -sqrt(1-p) e^{-i gamma},
# so their round-off grows like 1/sqrt(1-p): the residual reaches the 1e-10
# gate near 1 - p = 1e-11.  The draws stop at 1 - p = 1e-9.
@given(points(min_gap=1e-9))
def test_walk_paths_and_series_agree(point):
    p, beta, gamma, gamma_tilde = point
    u, ub = make_bulk_coin(p, beta, gamma), make_boundary_coin(gamma_tilde)
    assert three_way_residual(u, ub, 8, 8, 8) < 1e-10


@given(points(min_gap=1e-12))
def test_edge_quantities_are_even_in_theta(point):
    p, beta, gamma, gamma_tilde = point
    plus, minus = (
        edge_report(
            ModelParams.from_p(p, beta=beta, gamma=sign * gamma, gamma_tilde=sign * gamma_tilde)
        )
        for sign in (1.0, -1.0)
    )
    assert minus.r == pytest.approx(plus.r, rel=1e-13)
    assert minus.weight == pytest.approx(plus.weight, rel=1e-13)
    assert minus.localized == plus.localized
    assert abs(minus.z_pole_sq) == pytest.approx(abs(plus.z_pole_sq), abs=1e-13)
    assert cmath.phase(minus.z_pole_sq) == pytest.approx(-cmath.phase(plus.z_pole_sq), abs=1e-13)
    if plus.localized:
        assert minus.xi == pytest.approx(plus.xi, rel=1e-13)
        obs_plus, obs_minus = observables(p, plus.theta), observables(p, minus.theta)
        assert obs_minus.J_direct == pytest.approx(obs_plus.J_direct, rel=1e-13)
        assert obs_minus.E_direct == pytest.approx(obs_plus.E_direct, rel=1e-13)


# lambda_plus_eval treats a relative gap of 1e-9 between the root moduli as a
# branch cut.  Inside the unit disk |lam(z)| <= |z| (Schwarz lemma) and the
# moduli multiply to 1, so the gap 1 - |lam|^2 is at least 1 - |z|^2 and a
# tie needs |z| >= 1 - 5e-10.  The roots here come from numpy, not genfun.
@given(points(min_gap=1e-12), RADII, PHASES)
def test_branch_root_stays_inside_the_disk(point, radius, phase):
    p, beta, gamma, _ = point
    u = make_bulk_coin(p, beta, gamma)
    z = cmath.rect(radius, phase)
    assert abs(lambda_plus_eval(u, z)) <= abs(z) * (1.0 + 1e-12)
    quadratic = [u.d * u.d * z, -u.d * (u.det * z * z + 1.0), u.det * abs(u.a) ** 2 * z]
    small, large = sorted(abs(np.roots(quadratic)))
    assert (large - small) / large >= (1.0 - abs(z) ** 2) * (1.0 - 1e-9)

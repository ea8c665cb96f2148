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
from hypothesis import assume, example, given, settings, strategies as st

from lzwalk import (
    ModelParams,
    edge_report,
    is_localized,
    lambda_plus_eval,
    make_boundary_coin,
    make_bulk_coin,
    norms,
    observables,
    trajectory,
)
from lzwalk.coin import landau_zener_field
from lzwalk.walk import total_probability
from lzwalk.verify import check_edge_mode, three_way_residual

PHASES = st.floats(-math.pi, math.pi)
# 1e-6 <= |z| <= 1, the rim included
RADII = st.floats(1e-6, 1.0) | st.floats(0.0, 1e-3).map(lambda gap: 1.0 - gap)


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
    for tau, psi_L, psi_R in trajectory(u, ub, range(121)):
        assert abs(total_probability(psi_L, psi_R) - 1.0) < 1e-11
        off = np.arange(tau + 1) % 2 != tau % 2
        assert np.all(psi_L[off] == 0.0) and np.all(psi_R[off] == 0.0)


@given(points(min_gap=0.0))
@example((1.0, 2.5, -3.0, 0.4))
@example((1.0, -0.7, 2.9, -2.8))
@example((1e-300, -2.2, 3.1, 0.3))
@example((1e-300, 0.5, -2.6, 1.9))
def test_compact_norms_match_snapshot_norms(point):
    # the compact and dense sums group their terms differently; the largest
    # gap measured over 20 random coins x 300 steps was 6.7e-16
    p, beta, gamma, gamma_tilde = point
    u, ub = make_bulk_coin(p, beta, gamma), make_boundary_coin(gamma_tilde)
    dense = [
        total_probability(psi_L, psi_R) for _, psi_L, psi_R in trajectory(u, ub, range(1, 301))
    ]
    assert len(dense) == 300
    for total, expected in zip(norms(u, ub, 300), dense, strict=True):
        assert abs(total - expected) <= 2e-15


@given(points(min_gap=0.0))
def test_walk_paths_and_series_agree(point):
    p, beta, gamma, gamma_tilde = point
    u, ub = make_bulk_coin(p, beta, gamma), make_boundary_coin(gamma_tilde)
    assert three_way_residual(u, ub, 8, 8, 8) < 1e-10


@given(points(min_gap=1e-12))
def test_edge_quantities_are_even_in_theta(point):
    p, _, gamma, gamma_tilde = point
    plus, minus = (
        edge_report(
            ModelParams(F=landau_zener_field(p, 1.0), Fbar=1.0, gamma=sign * (gamma - gamma_tilde))
        )
        for sign in (1.0, -1.0)
    )
    assert minus.r == pytest.approx(plus.r, rel=1e-13)
    assert minus.weight == pytest.approx(plus.weight, rel=1e-13)
    assert minus.localized == plus.localized
    z2_plus, z2_minus = (complex(rep.z_pole_sq_re, rep.z_pole_sq_im) for rep in (plus, minus))
    assert abs(z2_minus) == pytest.approx(abs(z2_plus), abs=1e-13)
    assert cmath.phase(z2_minus) == pytest.approx(-cmath.phase(z2_plus), abs=1e-13)
    if plus.localized:
        assert minus.xi == pytest.approx(plus.xi, rel=1e-13)
        obs_plus, obs_minus = observables(p, plus.theta), observables(p, minus.theta)
        assert obs_minus.J_direct == pytest.approx(obs_plus.J_direct, rel=1e-13)
        assert obs_minus.E_direct == pytest.approx(obs_plus.E_direct, rel=1e-13)


# lambda_plus_eval takes its root by construction, with no comparison of the
# two.  Inside the unit disk the branch maps the disk into itself with
# lam(0) = 0, so |lam(z)| <= |z| (Schwarz lemma); on the rim it is the limit
# from inside, and on the band both roots have unit modulus.  The moduli
# multiply to 1, so the gap 1 - |lam|^2 between them is at least 1 - |z|^2.
# The roots here come from numpy, not genfun.
@given(points(min_gap=1e-12), RADII, PHASES)
@example((0.2, 0.0, math.pi / 4, 0.0), 1.0, math.pi / 2)
def test_branch_root_stays_inside_the_disk(point, radius, phase):
    p, beta, gamma, _ = point
    u = make_bulk_coin(p, beta, gamma)
    z = cmath.rect(radius, phase)
    lam = lambda_plus_eval(u, z)
    assert abs(lam) <= abs(z) * (1.0 + 1e-12)
    det = u.a * u.d - u.b * u.c
    quadratic = [u.d * u.d * z, -u.d * (det * z * z + 1.0), det * abs(u.a) ** 2 * z]
    assert abs(np.polyval(quadratic, lam)) <= 1e-12
    small, large = sorted(abs(np.roots(quadratic)))
    assert (large - small) / large >= (1.0 - abs(z) ** 2) * (1.0 - 1e-9)


@st.composite
def edge_points(draw):
    """(p, theta), theta in (-pi, pi] and 1 - r from 1e-9 to 0.9, with p
    clipped to [1e-6, 1 - 1e-12]: next to p_c for acute theta and next to
    p = 1 for obtuse theta."""
    theta = draw(st.floats(-math.pi, math.pi, exclude_min=True))
    r = 1.0 - 10.0 ** draw(st.floats(-9.0, math.log10(0.9)))
    # s = sqrt(1 - p) at which the decay ratio is r solves
    # (1 + r) s^2 - 2 r cos(theta) s + r - 1 = 0
    s = (r * math.cos(theta) + math.sqrt(1.0 - (r * math.sin(theta)) ** 2)) / (1.0 + r)
    return min(max((1.0 - s) * (1.0 + s), 1e-6), 1.0 - 1e-12), theta


# the relative error of |phi_L(0)|^2 against (1 - r)^2, and of the sites
# n = 2, stays within check_edge_mode's law 64 (n + 1) u / (1 - r) up to
# the critical band
@settings(max_examples=200)
@given(edge_points())
def test_edge_mode_is_exact_to_the_conditioning_of_its_input(point):
    assume(is_localized(*point))
    res = check_edge_mode((point,), 2)
    assert res.passed, res.line()

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lzwalk.coin import make_boundary_coin, make_bulk_coin
from lzwalk.errors import TAU_CAP, ResourceLimitError
from lzwalk.pathsum import (
    enumerate_paths,
    pqrs_coefficient_series,
    pqrs_coefficients,
    pqrs_residual,
    pqrs_row,
    transition_amplitude,
    transition_table,
)
from lzwalk.verify import check_recursion_relation

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def test_reflecting_paths_to_site_two_in_four_steps():
    paths = enumerate_paths(2, 4, "reflecting")
    assert paths == [("Q~", "P", "Q~", "Q"), ("Q~", "Q", "P", "Q"), ("Q~", "Q", "Q", "P")]


def test_absorbing_drops_the_boundary_revisit():
    paths = enumerate_paths(2, 4, "absorbing")
    assert paths == [("Q~", "Q", "P", "Q"), ("Q~", "Q", "Q", "P")]


def test_parity_mismatch_yields_no_paths():
    assert enumerate_paths(0, 1, "reflecting") == []
    assert enumerate_paths(3, 6, "reflecting") == []


def test_every_absorbing_path_is_a_reflecting_path():
    for n in (0, 2, 4):
        for tau in (n, n + 2, n + 4, n + 6):
            if tau == 0:
                continue
            refl = set(enumerate_paths(n, tau, "reflecting"))
            absb = set(enumerate_paths(n, tau, "absorbing"))
            assert absb <= refl


def test_first_return_counts_are_catalan():
    for m in range(1, 8):
        assert len(enumerate_paths(0, 2 * m, "absorbing")) == CATALAN[m - 1]


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_paths(1, 17)


def test_invalid_ranges_rejected():
    with pytest.raises(ValueError):
        enumerate_paths(5, 4)
    with pytest.raises(ValueError):
        enumerate_paths(-1, 4)
    with pytest.raises(ValueError):
        enumerate_paths(0, 2, "open")


def test_parity_mismatch_amplitude_is_zero(phased_coins):
    u, ub = phased_coins
    xi = transition_amplitude(1, 2, u, ub)
    assert np.all(xi == 0.0)


def test_single_path_amplitudes(phased_coins):
    u, ub = phased_coins
    xi = transition_amplitude(1, 1, u, ub)
    assert np.allclose(xi, [[0, 0], [ub.c, ub.d]], atol=0)
    # the light-cone edge is reached by the single monotone word Q^{tau-1} Q~
    for tau in (3, 5, 7):
        _, amp_R = transition_amplitude(tau, tau, u, ub)[:, 0]
        assert amp_R == pytest.approx(u.d ** (tau - 1) * ub.c, abs=1e-14)


def test_reflecting_minus_absorbing_is_the_revisit_sum(phased_coins):
    u, ub = phased_coins
    refl = transition_amplitude(2, 6, u, ub, "reflecting")
    absb = transition_amplitude(2, 6, u, ub, "absorbing")
    revisit_words = set(enumerate_paths(2, 6, "reflecting")) - set(
        enumerate_paths(2, 6, "absorbing")
    )
    mats = {
        "P": np.array([[u.a, u.b], [0, 0]]),
        "Q": np.array([[0, 0], [u.c, u.d]]),
        "Q~": np.array([[0, 0], [ub.c, ub.d]]),
    }
    total = np.zeros((2, 2), dtype=complex)
    for path in revisit_words:
        prod = np.eye(2, dtype=complex)
        for label in path:
            prod = mats[label] @ prod
        total += prod
    assert np.allclose(refl - absb, total, atol=1e-13)


def test_pqrs_coefficients_of_basis_element(phased_coins):
    _, ub = phased_coins
    xi = transition_amplitude(1, 1, ub, ub)  # Xi = Q~ itself
    b_q, b_r = pqrs_coefficients(xi, ub)
    assert b_q == pytest.approx(1.0, abs=1e-15)
    assert b_r == pytest.approx(0.0, abs=1e-15)


def test_up_move_component_vanishes_at_the_boundary_site(phased_coins):
    u, ub = phased_coins
    for tau in (0, 2, 4, 6, 8):
        b_q, _ = pqrs_coefficients(transition_amplitude(0, tau, u, ub), ub)
        assert abs(b_q) < 1e-14


def test_span_residual_vanishes_for_all_path_sums(phased_coins):
    u, ub = phased_coins
    for tau in range(1, 13):
        for n in range(tau % 2, tau + 1, 2):
            assert pqrs_residual(transition_amplitude(n, tau, u, ub), ub) < 1e-12


def test_span_residual_random_unitary_coins():
    rng = np.random.default_rng(17)
    for _ in range(3):
        u = make_bulk_coin(
            float(rng.uniform(0.05, 0.95)),
            float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        ub = make_boundary_coin(float(rng.uniform(-math.pi, math.pi)))
        for tau in range(1, 11):
            for n in range(tau % 2, tau + 1, 2):
                assert pqrs_residual(transition_amplitude(n, tau, u, ub), ub) < 1e-12


def test_coefficient_series_drops_identity_at_origin(phased_coins):
    u, ub = phased_coins
    b_q, b_r = pqrs_coefficient_series(0, 8, u, ub)
    assert b_q[0] == 0.0 and b_r[0] == 0.0
    assert b_r[2] != 0.0


def test_site_recursion_identity():
    res = check_recursion_relation(p=0.2, theta=math.pi / 4, beta=0.3, order=12, n_max=4)
    assert res.passed, res.line()
    assert res.residual < 1e-10


def reference_sum(n, tau, u, ub, boundary):
    """Xi(0 -> n; tau) word by word: each listed path's product rebuilt from
    the identity in time order (later moves on the left), summed in list order."""
    zero = 0.0 + 0.0j
    mats = {
        "P": (u.a, u.b, zero, zero),
        "Q": (zero, zero, u.c, u.d),
        "Q~": (zero, zero, ub.c, ub.d),
    }
    total = (zero,) * 4
    for path in enumerate_paths(n, tau, boundary):
        prod = (1.0 + 0.0j, zero, zero, 1.0 + 0.0j)
        for label in path:
            a2, b2, c2, d2 = mats[label]
            a1, b1, c1, d1 = prod
            prod = (a2 * a1 + b2 * c1, a2 * b1 + b2 * d1, c2 * a1 + d2 * c1, c2 * b1 + d2 * d1)
        total = tuple(t + p for t, p in zip(total, prod))
    return np.array([[total[0], total[1]], [total[2], total[3]]])


def assert_table_matches_reference(tau_max, u, ub, boundary):
    """Every block equal to its reference_sum in all 64-bit words, so a zero
    of the other sign fails too."""
    table = transition_table(tau_max, u, ub, boundary)
    assert table.shape == (tau_max + 1, tau_max + 1, 2, 2)
    assert table.dtype == np.complex128
    for tau in range(tau_max + 1):
        assert not table[tau, tau + 1 :].view(np.uint64).any(), tau  # +0 beyond the light cone
        for n in range(tau + 1):
            expected = reference_sum(n, tau, u, ub, boundary)
            assert np.array_equal(table[tau, n].view(np.uint64), expected.view(np.uint64)), (n, tau)


@pytest.mark.parametrize("boundary", ["reflecting", "absorbing"])
@pytest.mark.parametrize("pair", ["bulk_boundary", "bulk_bulk"])
def test_table_equals_word_by_word_sums(phased_coins, boundary, pair):
    u, ub = phased_coins
    assert_table_matches_reference(12, u, ub if pair == "bulk_boundary" else u, boundary)


@given(
    st.floats(0.0, 1.0, exclude_min=True),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
    st.sampled_from(["reflecting", "absorbing"]),
)
def test_table_equals_word_by_word_sums_random_coins(p, beta, gamma, gamma_tilde, boundary):
    u, ub = make_bulk_coin(p, beta, gamma), make_boundary_coin(gamma_tilde)
    assert_table_matches_reference(8, u, ub, boundary)


def test_transition_amplitude_is_the_table_entry(phased_coins):
    u, ub = phased_coins
    table = transition_table(9, u, ub)
    for n in range(10):
        assert np.array_equal(transition_amplitude(n, 9, u, ub), table[9, n])


def test_table_limits(phased_coins):
    u, ub = phased_coins
    with pytest.raises(ResourceLimitError):
        transition_table(TAU_CAP + 1, u, ub)
    with pytest.raises(ValueError):
        transition_table(4, u, ub, "open")
    with pytest.raises(ValueError):
        transition_table(-1, u, ub)


@pytest.mark.parametrize("n", [-1, 5])
def test_pqrs_row_rejects_sites_outside_the_table(phased_coins, n):
    u, ub = phased_coins
    with pytest.raises(ValueError, match=f"need 0 <= n <= tau_max, got n={n}, tau_max=4"):
        pqrs_row(transition_table(4, u, ub), n, ub)

import ast
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lzwalk import (
    ResourceLimitError,
    Series,
    SingularityError,
    absorbing_gf_series,
    b_gf_closed_series,
    bounded_gf_table,
    initial_state,
    lambda_plus_eval,
    lambda_plus_series,
    make_boundary_coin,
    make_bulk_coin,
    step,
)
from lzwalk.cli import _snapshot_times
from lzwalk.genfun import (
    MAX_TABLE_STEPS,
    _absorbing,
    _baby_rows,
    _baby_steps,
    _eta_coefficients,
    _giant_rows,
    _odd_kernels,
    _site0,
    bounded_denominator,
    bounded_numerators,
    eta_eval,
    eta_series,
    site_factor,
)
from lzwalk.verify import (
    check_absorbing_gf,
    check_closed_forms,
    check_pole_zero,
    three_way_residual,
)
from conftest import P_REF, THETA_REF, package_sites


# -- series engine ------------------------------------------------------


def test_series_product_of_conjugate_binomials():
    one_plus = Series([1, 1, 0, 0])
    one_minus = Series([1, -1, 0, 0])
    assert np.allclose((one_plus * one_minus).coeffs, [1, 0, -1, 0], atol=0)


def test_series_geometric_inverse():
    one = Series.constant(1.0, 4)
    geom = one / Series([1, -1, 0, 0])
    assert np.allclose(geom.coeffs, [1, 1, 1, 1], atol=0)


def test_series_self_division_is_identity():
    s = Series([1, 1, 0, 0, 0, 0])
    assert np.allclose((s / s).coeffs, [1, 0, 0, 0, 0, 0], atol=0)


def test_series_division_requires_unit_constant_term():
    with pytest.raises(SingularityError):
        Series([1.0, 0.0, 0.0, 0.0]) / Series([0.0, 1.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Series(np.zeros((2, 2))), "one-dimensional, got shape \\(2, 2\\)"),
        (lambda: Series([]), "at least the constant term"),
        (lambda: Series.monomial(4, 4), "monomial degree 4 outside order 4"),
        (lambda: Series.monomial(-1, 4), "monomial degree -1 outside order 4"),
        (lambda: Series([1.0, 2.0]) ** -1, "nonnegative integers, got -1"),
        (lambda: Series([1.0, 2.0]) ** 1.5, "nonnegative integers, got 1.5"),
    ],
)
def test_series_rejects_bad_shapes_orders_and_powers(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("k", [-1, 2])
def test_series_coefficient_outside_the_order_raises(k):
    with pytest.raises(IndexError, match=f"coefficient {k} outside truncation order 2"):
        Series([1.0, 2.0]).coefficient(k)


def test_series_mixed_orders_truncate_to_min():
    a = Series([1, 2, 3, 0, 0, 0, 0, 0])
    b = Series([1, 1, 0])
    assert (a + b).order == 3
    assert (a * b).order == 3


def test_series_shifts_and_powers():
    z = Series.monomial(1, 6)
    assert np.allclose((z**3).coeffs, [0, 0, 0, 1, 0, 0], atol=0)


def test_series_rejects_nonfinite_coefficients():
    with pytest.raises(ValueError):
        Series([1.0, math.inf])


# -- branch series ------------------------------------------------------


def test_lambda_leading_coefficient_is_a(ref_coins):
    u, _ = ref_coins
    lam = lambda_plus_series(u, 8)
    assert lam.coefficient(0) == 0.0
    assert lam.coefficient(1) == pytest.approx(u.a, abs=1e-15)


def test_lambda_even_coefficients_vanish_exactly(phased_coins):
    u, _ = phased_coins
    lam = lambda_plus_series(u, 200)
    assert np.all(lam.coeffs[0::2] == 0.0)


def test_lambda_satisfies_its_quadratic(phased_coins):
    u, _ = phased_coins
    order = 200
    lam = lambda_plus_series(u, order)
    z = Series.monomial(1, order)
    det = u.a * u.d - u.b * u.c
    residual = (
        (u.d * u.d) * z * lam * lam
        + -u.d * (det * z * z + 1.0) * lam
        + det * abs(u.a) ** 2 * z
    )
    assert np.max(np.abs(residual.coeffs)) < 1e-12


def test_lambda_eval_matches_series_sum(ref_coins):
    u, _ = ref_coins
    lam = lambda_plus_series(u, 200)
    for z in (0.5, -0.4, 0.3 + 0.25j, 0.1 - 0.45j):
        assert lambda_plus_eval(u, z) == pytest.approx(np.polynomial.polynomial.polyval(z, lam.coeffs), abs=1e-12)


def test_lambda_eval_satisfies_quadratic_pointwise(phased_coins):
    u, _ = phased_coins
    det = u.a * u.d - u.b * u.c
    for z in (0.7, 0.9j, 1.5, 0.2 + 0.6j):
        lam = lambda_plus_eval(u, z)
        res = (
            u.d * u.d * z * lam * lam
            - u.d * (det * z * z + 1.0) * lam
            + det * abs(u.a) ** 2 * z
        )
        assert abs(res) < 1e-12


def test_lambda_small_z_slope(ref_coins):
    u, _ = ref_coins
    for z in (1e-4, 1e-6):
        assert lambda_plus_eval(u, z) / z == pytest.approx(u.a, rel=1e-6)


def test_lambda_eval_at_origin_is_zero(ref_coins):
    u, _ = ref_coins
    assert lambda_plus_eval(u, 0.0) == 0


def test_lambda_on_the_band_is_the_limit_from_inside(ref_coins):
    # z = i lies on the band, where both roots have unit modulus; the root
    # taken there is the one continued from inside the disk
    u, _ = ref_coins
    lam = lambda_plus_eval(u, 1j)
    assert abs(abs(lam) - 1.0) < 1e-14
    assert abs(lam - lambda_plus_eval(u, 1j * (1.0 - 1e-12))) < 1e-10


# -- absorbing boundary -------------------------------------------------


def test_absorbing_leading_coefficient_is_b(phased_coins):
    u, _ = phased_coins
    series = absorbing_gf_series(u, 6)
    assert series.coefficient(0) == 0.0
    assert series.coefficient(2) == pytest.approx(u.b, abs=1e-14)


def test_absorbing_odd_coefficients_vanish(phased_coins):
    u, _ = phased_coins
    series = absorbing_gf_series(u, 60)
    assert np.max(np.abs(series.coeffs[1::2])) == 0.0


def test_absorbing_series_matches_path_enumeration():
    # the phased_coins bulk coin
    res = check_absorbing_gf(p=P_REF, theta=THETA_REF + 0.1, beta=0.3, tau_max=12, tol=1e-10)
    assert res.passed, res.line()


def test_absorbing_pointwise_matches_series(ref_coins):
    u, _ = ref_coins
    series = absorbing_gf_series(u, 300)
    z = 0.35 - 0.2j
    assert _absorbing(u, eta_eval(u, z), z) == pytest.approx(np.polynomial.polynomial.polyval(z, series.coeffs), abs=1e-12)


# -- closed coefficient forms -------------------------------------------


def test_bq_seed_constant_term(phased_coins):
    u, _ = phased_coins
    bq, _ = b_gf_closed_series(u, 0, 6)
    assert bq.coefficient(0) == pytest.approx(1.0 / u.d, abs=1e-14)
    # the lowest orders are the leading coefficients of a longer series
    for n in range(4):
        long_q, long_r = b_gf_closed_series(u, n, 13)
        for order in (1, 2):
            bq, br = b_gf_closed_series(u, n, order)
            assert bq.order == br.order == order
            np.testing.assert_allclose(bq.coeffs, long_q.coeffs[:order], rtol=0, atol=1e-15)
            np.testing.assert_allclose(br.coeffs, long_r.coeffs[:order], rtol=0, atol=1e-15)


def test_return_form_is_a_regular_series(phased_coins):
    # b eta / z starts at z^2, because eta starts at z^3
    u, _ = phased_coins
    _, br = b_gf_closed_series(u, 0, 8)
    assert br.coefficient(0) == 0.0
    assert br.coefficient(1) == 0.0


def test_closed_forms_match_path_sums():
    # the phased_coins bulk coin, sites n <= 4
    res = check_closed_forms(
        p=P_REF, theta=THETA_REF + 0.1, beta=0.3, n_max=4, tau_max=12, tol=1e-10
    )
    assert res.passed, res.line()


def test_closed_forms_pointwise_match_series(ref_coins):
    u, _ = ref_coins
    bq_s, br_s = b_gf_closed_series(u, 2, 300)
    z = 0.3 + 0.2j
    eta = eta_eval(u, z)
    t2 = site_factor(u, eta, z) ** 2
    assert t2 / u.d == pytest.approx(np.polynomial.polynomial.polyval(z, bq_s.coeffs), abs=1e-12)
    assert t2 * u.b * eta / z == pytest.approx(np.polynomial.polynomial.polyval(z, br_s.coeffs), abs=1e-12)


# -- bounded-walk generating functions ----------------------------------


def test_bounded_series_equal_walk_amplitudes(ref_coins):
    assert three_way_residual(*ref_coins, 0, 40, 8) < 1e-10


def test_bounded_series_with_boundary_phase(phased_coins):
    assert three_way_residual(*phased_coins, 0, 30, 6) < 1e-10


def test_bounded_series_random_phase_combinations():
    # seeded sweep over all four parameters, including boundary phases; the
    # last three p are the ends of the range, where coin entries vanish
    rng = np.random.default_rng(29)
    for p in (*rng.uniform(0.05, 0.95, size=4), 1.0, 1.0 - 1e-15, 1e-300):
        beta, gamma, gamma_tilde = rng.uniform(-math.pi, math.pi, size=3)
        u = make_bulk_coin(float(p), float(beta), float(gamma))
        ub = make_boundary_coin(float(gamma_tilde))
        assert three_way_residual(u, ub, 0, 25, 5) < 1e-10


def test_first_step_coefficient_is_boundary_row(phased_coins):
    u, ub = phased_coins
    _, tab_R = bounded_gf_table(u, ub, 1, 6)
    assert tab_R[1, 1] == pytest.approx(ub.c, abs=1e-14)


def test_light_cone_zeros(phased_coins):
    # psi(n, tau) vanishes exactly outside the light cone and off its parity,
    # and so does psi_L(n, n) for n >= 1: only the R component reaches the
    # front of the cone, as in the walk
    u, ub = phased_coins
    tab_L, tab_R = bounded_gf_table(u, ub, 5, 12)
    n, tau = np.indices(tab_L.shape)
    outside = (n > tau) | ((n + tau) % 2 == 1)
    assert np.all(tab_L[outside] == 0)
    assert np.all(tab_R[outside] == 0)
    assert np.all(np.diagonal(tab_L)[1:] == 0)


@pytest.mark.parametrize(
    "n_max, order",
    [(0, 2), (1, 2), (0, 9), (1, 10), (6, 13), (7, 14), (12, 13), (13, 14), (20, 9), (9, 9)],
)
@pytest.mark.parametrize("coins", ["ref_coins", "phased_coins"])
def test_table_matches_direct_series(request, coins, n_max, order):
    # row n >= 1 is t^(n-1) times the kernel (site-1 numerator) / h, written out
    u, ub = request.getfixturevalue(coins)
    eta = eta_series(u, order)
    zs = Series.monomial(1, order)
    den = bounded_denominator(u, ub, eta, zs)
    num_L, num_R = bounded_numerators(u, ub, eta, zs)
    t = site_factor(u, eta, zs)
    tab_L, tab_R = bounded_gf_table(u, ub, n_max, order)
    assert tab_L.shape == tab_R.shape == (n_max + 1, order)
    kernel_L, kernel_R = num_L / den, num_R / den
    ref = {n: (t ** (n - 1) * kernel_L, t ** (n - 1) * kernel_R) for n in range(1, n_max + 2)}
    ref[0] = (1.0 + zs * (u.a * ref[1][0] + u.b * ref[1][1]), Series.constant(0.0, order))
    for n in range(n_max + 1):
        np.testing.assert_allclose(tab_L[n], ref[n][0].coeffs, rtol=0, atol=1e-14)
        np.testing.assert_allclose(tab_R[n], ref[n][1].coeffs, rtol=0, atol=1e-14)



def _assert_columns_exact(u, ub, n_max, order, cols):
    # asking for a few columns changes no entry, in rows 0 and 1 (taken from
    # the full row 1) or in the rows that dot only the kept columns
    tab_L, tab_R = bounded_gf_table(u, ub, n_max, order)
    col_L, col_R = bounded_gf_table(u, ub, n_max, order, columns=cols)
    assert col_L.shape == col_R.shape == (n_max + 1, len(cols))
    assert col_L.tobytes() == tab_L[:, cols].tobytes()
    assert col_R.tobytes() == tab_R[:, cols].tobytes()


@pytest.mark.parametrize("p", [P_REF, 1.0, 1.0 - 1e-15, 1e-300])
@pytest.mark.parametrize(
    "n_max, order, cols",
    [
        (0, 2, [0, 1]),
        (0, 3, [2]),
        (1, 2, [1]),
        (1, 3, [0, 2]),
        (2, 3, [0, 1, 2]),
        (2, 2, []),
        (12, 13, [0, 6, 12]),  # even T, the series snapshot times
        (13, 14, [0, 6, 7, 10, 13]),  # odd T
        (20, 9, [1, 8]),
        (5, 40, [0, 3, 4, 39]),
        (200, 201, _snapshot_times(200)),  # CLI sizes: several giant steps
        (201, 202, _snapshot_times(201)),
    ],
)
def test_table_columns_are_bit_identical(p, n_max, order, cols):
    u = make_bulk_coin(p, 0.3, THETA_REF + 0.1)
    _assert_columns_exact(u, make_boundary_coin(0.1), n_max, order, cols)


@given(
    st.floats(1e-6, 1.0),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
    st.integers(2, 60),
    st.data(),
)
def test_table_columns_are_bit_identical_random_phases(p, beta, gamma, gamma_tilde, order, data):
    n_max = data.draw(st.integers(0, order))
    cols = sorted(data.draw(st.sets(st.integers(0, order - 1), max_size=6)))
    u = make_bulk_coin(p, beta, gamma)
    _assert_columns_exact(u, make_boundary_coin(gamma_tilde), n_max, order, cols)


@pytest.mark.parametrize("p", [P_REF, 1.0, 1e-300])
def test_table_rows_do_not_depend_on_n_max(p):
    # the baby/giant split is taken from the order, so a shorter table
    # repeats the rows of a longer one bit for bit
    u, ub = make_bulk_coin(p, 0.3, THETA_REF + 0.1), make_boundary_coin(0.1)
    cols = _snapshot_times(200)
    ref_L, ref_R = bounded_gf_table(u, ub, 200, 201, columns=cols)
    for n_max in (0, 1, 2, 8, 9, 10, 11, 100, 199):
        tab_L, tab_R = bounded_gf_table(u, ub, n_max, 201, columns=cols)
        assert tab_L.tobytes() == ref_L[: n_max + 1].tobytes()
        assert tab_R.tobytes() == ref_R[: n_max + 1].tobytes()


@pytest.mark.parametrize("p", [P_REF, 1.0, 1e-300])
@pytest.mark.parametrize("n_max, order", [(40, 41), (41, 42), (15, 40), (30, 9)])
def test_full_table_equals_single_column_tables(p, n_max, order):
    # a one-column table starts every row at that column or after it
    u, ub = make_bulk_coin(p, -0.4, THETA_REF + 2.0), make_boundary_coin(-0.3)
    tab_L, tab_R = bounded_gf_table(u, ub, n_max, order)
    for tau in range(order):
        col_L, col_R = bounded_gf_table(u, ub, n_max, order, columns=[tau])
        assert col_L.tobytes() == tab_L[:, [tau]].tobytes()
        assert col_R.tobytes() == tab_R[:, [tau]].tobytes()


@pytest.mark.parametrize("cols", [[2, 1], [1, 1], [-1, 2], [0, 9]])
def test_table_rejects_bad_columns(ref_coins, cols):
    with pytest.raises(ValueError, match="columns"):
        bounded_gf_table(*ref_coins, 4, 9, columns=cols)


def test_series_builders_reject_bad_sizes(ref_coins):
    u, ub = ref_coins
    with pytest.raises(ValueError, match="order must be >= 2, got 1"):
        eta_series(u, 1)
    with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
        b_gf_closed_series(u, -1, 8)
    with pytest.raises(ValueError, match="n_max must be nonnegative, got -1"):
        bounded_gf_table(u, ub, -1, 8)


@pytest.mark.parametrize("n_max, order", [(10**9, 8), (4, MAX_TABLE_STEPS + 2)])
def test_table_beyond_the_cap_raises_before_allocating(ref_coins, n_max, order):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"cap of {MAX_TABLE_STEPS} steps"):
            bounded_gf_table(*ref_coins, n_max, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def _site1_pointwise(u, ub, z):
    """(PsiL(0->1; z), PsiR(0->1; z)) from the shared closed forms at a point."""
    eta = eta_eval(u, z)
    den = bounded_denominator(u, ub, eta, z)
    num_L, num_R = bounded_numerators(u, ub, eta, z)
    return num_L / den, num_R / den


def test_bounded_pointwise_matches_series(ref_coins):
    u, ub = ref_coins
    tab_L, tab_R = bounded_gf_table(u, ub, 3, 400)
    z = 0.3 + 0.2j
    t2 = site_factor(u, eta_eval(u, z), z) ** 2
    psi_L, psi_R = (t2 * psi for psi in _site1_pointwise(u, ub, z))
    assert psi_L == pytest.approx(np.polynomial.polynomial.polyval(z, tab_L[3]), abs=1e-12)
    assert psi_R == pytest.approx(np.polynomial.polynomial.polyval(z, tab_R[3]), abs=1e-12)


def test_bounded_pointwise_pole():
    # the denominator h of every site vanishes at the edge-state pole
    res = check_pole_zero(P_REF, THETA_REF, 1e-12)
    assert res.passed, res.line()


def test_site0_series(phased_coins):
    u, ub = phased_coins
    tab_L, tab_R = bounded_gf_table(u, ub, 0, 41)
    assert tab_L[0, 0] == 1.0
    assert tab_L[0, 2] == pytest.approx(u.b * ub.c, abs=1e-14)
    assert np.all(tab_R[0] == 0.0)
    s = initial_state()
    for tau in range(1, 41):
        s = step(s, u, ub)
        assert tab_L[0, tau] == pytest.approx(s.psi_L[0], abs=1e-10)


def test_site0_pointwise(ref_coins):
    u, ub = ref_coins
    tab_L, _ = bounded_gf_table(u, ub, 0, 400)
    z = 0.25 - 0.3j
    psi_L0 = _site0(u, z, *_site1_pointwise(u, ub, z))
    assert psi_L0 == pytest.approx(np.polynomial.polynomial.polyval(z, tab_L[0]), abs=1e-12)


def test_denominator_constant_term_is_exactly_one(phased_coins):
    u, ub = phased_coins
    absorbing = absorbing_gf_series(u, 16)
    den = 1.0 - ub.c * absorbing
    assert den.coefficient(0) == 1.0 + 0.0j


def test_series_parseval(phased_coins):
    u, ub = phased_coins
    tau = 40
    tab_L, tab_R = bounded_gf_table(u, ub, tau, tau + 1)
    total = float(
        np.sum(np.abs(tab_L[:, tau]) ** 2) + np.sum(np.abs(tab_R[:, tau]) ** 2)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


# -- baby/giant split and blocked inverse --------------------------------


@pytest.mark.parametrize("S", range(1, 9))
def test_table_matches_walk_for_every_baby_step(S):
    # full tables, so every baby row and every parity of tau and n is read;
    # the snapshot columns of `series` can leave rows unread: at even tau
    # and even S every block starts at an odd n0 and reads only odd rows
    orders = [order for order in range(2, 200) if _baby_steps(order) == S]
    partial = [
        order for order in orders
        if (order - 1) % S and ((order + 1) // 2) % math.isqrt((order + 1) // 2)
    ]
    picked = sorted({orders[0], orders[-1], *partial[:1]})
    assert {order % 2 for order in picked} == {0, 1}
    # the last giant block (rows 1..order - 1) and the last inverse block
    # (the (order + 1) // 2 even coefficients of 1/h) are partial, wherever
    # S and the inverse block exceed 1
    assert partial or S == 1
    phases = [(P_REF, 0.0, THETA_REF, 0.0), (0.7, 0.3, -1.1, 0.4), (1.0, 0.2, 0.5, -0.3)]
    for p, beta, gamma, gamma_tilde in phases:
        u, ub = make_bulk_coin(p, beta, gamma), make_boundary_coin(gamma_tilde)
        for order in picked:
            assert three_way_residual(u, ub, 0, order - 1, order - 1) < 1e-12, (p, order)


def test_np_convolve_has_one_site_in_the_series_engine():
    # every series product goes through _truncated_product, so its order of
    # summation is chosen in one place; verify's recursion check keeps its own
    sites = package_sites(
        lambda node: (isinstance(node, ast.Attribute) and node.attr == "convolve")
        or (isinstance(node, ast.alias) and node.name == "convolve")
    )
    assert sites == {"genfun._truncated_product", "verify.check_recursion_relation"}


def _names(name):
    return lambda node: (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.alias) and node.name == name
    )


def test_quotient_and_product_have_their_own_sites():
    # the table's 1/h and kernels are Series arithmetic: no other caller
    # re-codes a quotient or a product
    assert package_sites(_names("_back_substitute")) == {
        "genfun.Series.__truediv__",
        "genfun._back_substitute",
    }
    assert package_sites(_names("_truncated_product")) == {
        "genfun.Series.__mul__",
        "genfun._baby_rows",
        "genfun._giant_rows",
    }


# np.convolve, which makes the baby, giant and Series products in
# genfun._truncated_product, is not pinned to an order of summation: with
# numpy 2.4.6 and OpenBLAS, 592 of the 636 entries of five random complex
# convolutions of lengths 5 to 400 match neither the forward nor the
# backward in-order sum.  Its bits are pinned against the BLAS thread count
# by test_series_does_not_depend_on_blas_threads in test_cli.py.  The
# contractions below are summed in order, as these Python sums spell out.


def _inorder_dot(x, y):
    acc = 0j
    for xi, yi in zip(x, y):
        acc += complex(xi) * complex(yi)
    return acc


def _bits(values):
    return np.asarray(values, dtype=np.complex128).tobytes()


@pytest.mark.parametrize("order", [2, 3, 9, 10, 24, 40, 41])
def test_table_entries_are_inorder_sums(phased_coins, order):
    u, ub = phased_coins
    tab = bounded_gf_table(u, ub, order - 1, order)
    eta, zs = eta_series(u, order), Series.monomial(1, order)
    _, kernels = _odd_kernels(u, ub, eta, zs)
    baby, power = _baby_rows(site_factor(u, eta, zs).coeffs[1::2], order)
    checked = 0
    for n0, giant in _giant_rows(kernels, power, order, order):
        for n in range(max(n0, 2), min(order, n0 + len(baby))):
            for tau in range(n, order, 2):
                c0 = (tau - n0) // 2
                for side in (0, 1):
                    ref = _inorder_dot(baby[n - n0, : c0 + 1], giant[side, c0::-1])
                    assert _bits(0j + ref) == _bits(tab[side][n, tau]), (n, tau, side)
                    checked += 1
    assert checked == 2 * sum(len(range(n, order, 2)) for n in range(2, order))


def _inorder_back_substitute(a, b, block):
    """_back_substitute with every contraction a Python sum, in order."""
    a, b = [complex(v) for v in a], [complex(v) for v in b]
    m = len(a)
    width = min(block, m)
    if block > 1:
        g = _inorder_back_substitute([1.0] + [0.0] * (width - 1), b[:width], 1)
    else:
        g = [complex(np.complex128(1.0) / np.complex128(b[0]))]
    q = [0j] * m
    for k0 in range(0, m, width):
        k1 = min(m, k0 + width)
        # row k of the solved part reads b_k, b_(k-1), ..., b_(k-k0+1)
        r = [a[k] - _inorder_dot(b[k : k - k0 : -1], q[:k0]) if k0 else a[k] for k in range(k0, k1)]
        for i in range(k1 - k0):
            q[k0 + i] = _inorder_dot([g[i - j] if j <= i else 0j for j in range(k1 - k0)], r)
    return q


@pytest.mark.parametrize("order", range(2, 42))
def test_blocked_inverse_is_inorder_sums(phased_coins, order):
    # the table's 1/h on the even sublattice x = z^2, and Series quotients
    # by a divisor of both parities and by an even one, both on all of z;
    # each in blocks of isqrt(length) coefficients
    u, ub = phased_coins
    eta, zs = eta_series(u, order), Series.monomial(1, order)
    inv_h, _ = _odd_kernels(u, ub, eta, zs)
    even = bounded_denominator(u, ub, eta, zs).coeffs[::2]
    ref = _inorder_back_substitute([1.0] + [0.0] * (len(even) - 1), even, math.isqrt(len(even)))
    assert _bits(inv_h) == _bits(ref)
    rng = np.random.default_rng(order)
    a, b = rng.normal(size=(2, order, 2)) @ [1.0, 1j]
    b[0] = 1.0
    for divisor in (b, np.where(np.arange(order) % 2, 0.0, b)):
        quotient = (Series(a) / Series(divisor)).coeffs
        assert _bits(quotient) == _bits(_inorder_back_substitute(a, divisor, math.isqrt(order)))


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 17, 40, 41])
def test_eta_recurrence_is_inorder_sums(phased_coins, order):
    u, _ = phased_coins
    s, q = (complex(v) for v in _eta_coefficients(u))
    ref = [0j] * max(order, 4)
    ref[3] = 1 + 0j
    for k in range(5, order, 2):
        ref[k] = s * ref[k - 2] + q * _inorder_dot(ref[3 : k - 3 : 2], ref[k - 4 : 2 : -2])
    assert _bits(eta_series(u, order).coeffs) == _bits(ref[:order])

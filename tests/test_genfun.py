import cmath
import math

import numpy as np
import pytest

from lzwalk import (
    BranchAmbiguityError,
    PoleError,
    Series,
    SingularityError,
    absorbing_gf,
    absorbing_gf_series,
    b_gf_closed,
    b_gf_closed_series,
    bounded_gf,
    bounded_gf_table,
    gf_site0,
    initial_state,
    lambda_plus_eval,
    lambda_plus_series,
    make_boundary_coin,
    make_bulk_coin,
    pole,
    step,
)
from lzwalk.genfun import bounded_denominator, bounded_numerators, site_factor
from lzwalk.verify import check_absorbing_gf, check_closed_forms, three_way_residual
from conftest import P_REF, THETA_REF


# -- series engine ------------------------------------------------------


def test_series_product_of_conjugate_binomials():
    one_plus = Series([1, 1], order=4)
    one_minus = Series([1, -1], order=4)
    assert np.allclose((one_plus * one_minus).coeffs, [1, 0, -1, 0], atol=0)


def test_series_geometric_inverse():
    one = Series.constant(1.0, 4)
    geom = one / Series([1, -1], order=4)
    assert np.allclose(geom.coeffs, [1, 1, 1, 1], atol=0)


def test_series_self_division_is_identity():
    s = Series([1, 1], order=6)
    assert np.allclose((s / s).coeffs, [1, 0, 0, 0, 0, 0], atol=0)


def test_series_division_requires_unit_constant_term():
    with pytest.raises(SingularityError):
        Series([1.0], order=4) / Series([0.0, 1.0], order=4)


def test_series_mixed_orders_truncate_to_min():
    a = Series([1, 2, 3], order=8)
    b = Series([1, 1], order=3)
    assert (a + b).order == 3
    assert (a * b).order == 3


def test_series_shifts_and_powers():
    z = Series.monomial(1, 6)
    assert np.allclose((z**3).coeffs, [0, 0, 0, 1, 0, 0], atol=0)
    assert np.allclose((z**3).shift_down(2).coeffs, [0, 1, 0, 0, 0, 0], atol=0)
    with pytest.raises(ValueError):
        Series([1, 0], order=4).shift_down(1)


def test_series_point_evaluation():
    s = Series([1, 2, 3], order=3)
    z = 0.5 + 0.25j
    assert s(z) == pytest.approx(1 + 2 * z + 3 * z * z, abs=1e-15)


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
    residual = (
        (u.d * u.d) * z * lam * lam
        - u.d * (u.det * z * z + 1.0) * lam
        + u.det * abs(u.a) ** 2 * z
    )
    assert np.max(np.abs(residual.coeffs)) < 1e-12


def test_lambda_eval_matches_series_sum(ref_coins):
    u, _ = ref_coins
    lam = lambda_plus_series(u, 200)
    for z in (0.5, -0.4, 0.3 + 0.25j, 0.1 - 0.45j):
        assert lambda_plus_eval(u, z) == pytest.approx(lam(z), abs=1e-12)


def test_lambda_eval_satisfies_quadratic_pointwise(phased_coins):
    u, _ = phased_coins
    for z in (0.7, 0.9j, 1.5, 0.2 + 0.6j):
        lam = lambda_plus_eval(u, z)
        res = (
            u.d * u.d * z * lam * lam
            - u.d * (u.det * z * z + 1.0) * lam
            + u.det * abs(u.a) ** 2 * z
        )
        assert abs(res) < 1e-12


def test_lambda_small_z_slope(ref_coins):
    u, _ = ref_coins
    for z in (1e-4, 1e-6):
        assert lambda_plus_eval(u, z) / z == pytest.approx(u.a, rel=1e-6)


def test_lambda_eval_rejects_origin(ref_coins):
    u, _ = ref_coins
    with pytest.raises(ValueError):
        lambda_plus_eval(u, 0.0)


def test_lambda_rejects_p_zero_limit():
    # d = 0 makes the recurrence singular; the coin constructor already
    # rejects p = 0, so drive the guard through a handmade degenerate coin
    from lzwalk import Coin

    u = Coin(0.0, 1.0, -1.0, 0.0)
    with pytest.raises(SingularityError):
        lambda_plus_series(u, 8)
    with pytest.raises(SingularityError):
        lambda_plus_eval(u, 0.5)


def test_lambda_branch_tie_on_unit_circle(ref_coins):
    # on the arc where the radicand is negative both roots have unit
    # modulus: no pointwise branch choice exists there
    u, _ = ref_coins
    with pytest.raises(BranchAmbiguityError):
        lambda_plus_eval(u, 1j)


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


def test_absorbing_rejects_ballistic_coin():
    u = make_bulk_coin(1.0, 0.0, 0.0)
    with pytest.raises(SingularityError):
        absorbing_gf_series(u, 8)
    with pytest.raises(SingularityError):
        absorbing_gf(u, 0.5)


def test_absorbing_pointwise_matches_series(ref_coins):
    u, _ = ref_coins
    series = absorbing_gf_series(u, 300)
    z = 0.35 - 0.2j
    assert absorbing_gf(u, z) == pytest.approx(series(z), abs=1e-12)


# -- closed coefficient forms -------------------------------------------


def test_bq_seed_constant_term(phased_coins):
    u, _ = phased_coins
    bq, _ = b_gf_closed_series(u, 0, 6)
    assert bq.coefficient(0) == pytest.approx(1.0 / u.d, abs=1e-14)


def test_return_form_is_a_regular_series(phased_coins):
    # (lam - a z)/(a c z) must start at z^2: its would-be constant term
    # lam_1 - a vanishes for unitary coins
    u, _ = phased_coins
    _, br = b_gf_closed_series(u, 0, 8)
    assert abs(br.coefficient(0)) < 1e-14
    assert abs(br.coefficient(1)) == 0.0


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
    bq, br = b_gf_closed(u, 2, z)
    assert bq == pytest.approx(bq_s(z), abs=1e-12)
    assert br == pytest.approx(br_s(z), abs=1e-12)


def test_closed_forms_reject_degenerate_p():
    with pytest.raises(SingularityError):
        b_gf_closed_series(make_bulk_coin(1.0, 0.0, 0.0), 1, 8)


# -- bounded-walk generating functions ----------------------------------


def test_bounded_series_equal_walk_amplitudes(ref_coins):
    assert three_way_residual(*ref_coins, 0, 40, 8) < 1e-10


def test_bounded_series_with_boundary_phase(phased_coins):
    assert three_way_residual(*phased_coins, 0, 30, 6) < 1e-10


def test_bounded_series_random_phase_combinations():
    # seeded sweep over all four parameters, including boundary phases
    rng = np.random.default_rng(29)
    for _ in range(4):
        u = make_bulk_coin(
            float(rng.uniform(0.05, 0.95)),
            float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        ub = make_boundary_coin(float(rng.uniform(-math.pi, math.pi)))
        assert three_way_residual(u, ub, 0, 25, 5) < 1e-10


def test_first_step_coefficient_is_boundary_row(phased_coins):
    u, ub = phased_coins
    _, tab_R = bounded_gf_table(u, ub, 1, 6)
    assert tab_R[1, 1] == pytest.approx(ub.c, abs=1e-14)


def test_light_cone_zeros(phased_coins):
    # psi(n, tau) vanishes exactly outside the light cone and off its parity
    u, ub = phased_coins
    tab_L, tab_R = bounded_gf_table(u, ub, 5, 12)
    n, tau = np.indices(tab_L.shape)
    outside = (n > tau) | ((n + tau) % 2 == 1)
    assert np.all(tab_L[outside] == 0)
    assert np.all(tab_R[outside] == 0)


@pytest.mark.parametrize(
    "n_max, order",
    [(0, 2), (1, 2), (0, 9), (1, 10), (6, 13), (7, 14), (12, 13), (13, 14), (20, 9), (9, 9)],
)
@pytest.mark.parametrize("coins", ["ref_coins", "phased_coins"])
def test_table_matches_direct_series(request, coins, n_max, order):
    # row n >= 1 is t^(n-1) times the kernel (site-1 numerator) / h, written out
    u, ub = request.getfixturevalue(coins)
    lam = lambda_plus_series(u, order)
    zs = Series.monomial(1, order)
    den = bounded_denominator(u, ub, lam, zs)
    num_L, num_R = bounded_numerators(u, ub, lam, zs)
    t = site_factor(u, lam)
    tab_L, tab_R = bounded_gf_table(u, ub, n_max, order)
    assert tab_L.shape == tab_R.shape == (n_max + 1, order)
    kernel_L, kernel_R = num_L / den, num_R / den
    ref = {n: (t ** (n - 1) * kernel_L, t ** (n - 1) * kernel_R) for n in range(1, n_max + 2)}
    ref[0] = (1.0 + zs * (u.a * ref[1][0] + u.b * ref[1][1]), Series.constant(0.0, order))
    for n in range(n_max + 1):
        np.testing.assert_allclose(tab_L[n], ref[n][0].coeffs, rtol=0, atol=1e-14)
        np.testing.assert_allclose(tab_R[n], ref[n][1].coeffs, rtol=0, atol=1e-14)


def test_bounded_pointwise_matches_series(ref_coins):
    u, ub = ref_coins
    tab_L, tab_R = bounded_gf_table(u, ub, 3, 400)
    z = 0.3 + 0.2j
    psi_L, psi_R = bounded_gf(u, ub, 3, z)
    assert psi_L == pytest.approx(Series(tab_L[3])(z), abs=1e-12)
    assert psi_R == pytest.approx(Series(tab_R[3])(z), abs=1e-12)


def test_bounded_pointwise_pole(ref_coins):
    u, ub = ref_coins
    z_pole = cmath.sqrt(pole(P_REF, THETA_REF))
    with pytest.raises(PoleError):
        bounded_gf(u, ub, 2, z_pole)


def test_bounded_rejects_site_zero(ref_coins):
    u, ub = ref_coins
    with pytest.raises(ValueError):
        bounded_gf(u, ub, 0, 0.5)


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
    assert gf_site0(u, ub, z) == pytest.approx(Series(tab_L[0])(z), abs=1e-12)


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

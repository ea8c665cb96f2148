import cmath
import math

import mpmath
import numpy as np
import pytest

from lzwalk import (
    DelocalizedError,
    ModelParams,
    EdgePoint,
    decay_ratio,
    edge_point,
    edge_report,
    floquet_mode,
    is_localized,
    localization_length,
    observables,
    pole,
    quasi_energy,
    thresholds,
)
from lzwalk.coin import landau_zener_field
from lzwalk.edge import CRITICAL_BAND
from lzwalk.verify import check_edge_mode
from conftest import P_REF, THETA_REF, j_paper_exact

# frozen reference values at p = 0.2, theta = pi/4 (cross-checked below
# against the independent pole-residue route)
R_REF = 0.37376964195943313
XI_REF = 1.016140784729431
ARG_Z2_REF = 2.0887215836740483
F_C_REF = 4.532360141827192


def test_decay_ratio_reference_value():
    assert decay_ratio(P_REF, THETA_REF) == pytest.approx(R_REF, rel=1e-14)
    # independent arithmetic route through the denominator pieces
    den = 2.0 - P_REF - 2.0 * math.cos(THETA_REF) * math.sqrt(1.0 - P_REF)
    assert den == pytest.approx(0.5350889359326483, rel=1e-15)
    assert decay_ratio(P_REF, THETA_REF) == pytest.approx(P_REF / den, rel=1e-15)


def test_decay_ratio_zero_phase_never_localizes():
    for p in np.linspace(0.02, 0.98, 25):
        s = math.sqrt(1.0 - p)
        expected = (1.0 + s) / (1.0 - s)  # algebraic simplification at theta = 0
        assert decay_ratio(float(p), 0.0) == pytest.approx(expected, rel=1e-11)
        assert decay_ratio(float(p), 0.0) >= 1.0


@pytest.mark.parametrize("theta", [0.0, 1e-4, THETA_REF, math.pi])
def test_decay_ratio_matches_high_precision(theta):
    # p log-uniform over [1e-300, 0.5], and over the subnormals and the
    # smallest normals down to 5e-324; 2 - p - 2 cos(theta) sqrt(1-p) cancels
    # down to about p^2 / 4 at theta = 0, so the reference carries 700 digits.
    # Where the exact r is subnormal no float carries 1e-13 relative, so there
    # the bound is one subnormal spacing; where it exceeds the float range
    # (4/p at theta = 0), r is +inf
    rng = np.random.default_rng(5)
    ps = [5e-324, 1e-300, 0.5, *(10.0 ** rng.uniform(-300.0, math.log10(0.5), 100))]
    ps += list(10.0 ** rng.uniform(-323.0, -300.0, 40))
    with mpmath.workdps(700):
        t = mpmath.mpf(theta)
        for p in map(float, ps):
            q = mpmath.mpf(p)
            exact = q / (2 - q - 2 * mpmath.cos(t) * mpmath.sqrt(1 - q))
            got = decay_ratio(p, theta)
            if float(exact) == math.inf:
                assert got == math.inf, p
            else:
                assert abs(mpmath.mpf(got) - exact) <= max(1e-13 * exact, 2.0**-1074), p


def test_decay_ratio_tends_to_one_at_threshold():
    assert decay_ratio(0.5 - 1e-9, THETA_REF) == pytest.approx(1.0, abs=1e-8)


def test_localization_criterion_acute_phase():
    # for 0 < theta <= pi/2 the mode is normalizable exactly when p < sin^2
    for theta in (0.3, math.pi / 6, THETA_REF, math.pi / 2):
        p_c = math.sin(theta) ** 2
        for p in np.linspace(0.02, 0.98, 25):
            expected = float(p) < p_c - 1e-12
            if abs(float(p) - p_c) < 1e-9:
                continue
            assert (decay_ratio(float(p), theta) < 1.0) == expected


def test_localization_criterion_obtuse_phase():
    # beyond pi/2 the general criterion cos(theta) < sqrt(1-p) always holds,
    # so the mode survives for every p; sin^2(theta) is not a threshold there
    for theta in (2.0, 3 * math.pi / 4, 3.0):
        for p in np.linspace(0.02, 0.98, 25):
            assert decay_ratio(float(p), theta) < 1.0


def test_decay_ratio_domain():
    with pytest.raises(ValueError):
        decay_ratio(0.0, THETA_REF)
    with pytest.raises(ValueError):
        decay_ratio(1.0, THETA_REF)


def test_pole_reference_point():
    z2 = pole(P_REF, THETA_REF)
    num = 1.0 - cmath.exp(-1j * THETA_REF) * math.sqrt(0.8)
    assert num == pytest.approx(0.36754446796632414 + 0.6324555320336759j, abs=1e-15)
    assert z2 == pytest.approx(num / num.conjugate(), abs=1e-15)
    assert cmath.phase(z2) == pytest.approx(ARG_Z2_REF, abs=1e-14)


def test_pole_unit_modulus_on_grid():
    for p in np.linspace(0.05, 0.95, 10):
        for theta in np.linspace(-3.0, 3.0, 11):
            if theta == 0.0:
                continue
            assert abs(abs(pole(float(p), float(theta))) - 1.0) < 1e-12


def test_pole_trivial_at_zero_phase():
    assert pole(0.3, 0.0) == pytest.approx(1.0, abs=0)


@pytest.mark.parametrize("theta", [0.0, 1e-4, THETA_REF])
def test_pole_matches_high_precision(theta):
    # p log-uniform over [1e-300, 0.5]; the numerator's real part
    # 1 - cos(theta) sqrt(1-p) cancels at small p and theta, so the reference
    # writes 1 - e^{-i theta} sqrt(1-p) as -expm1(-i theta + log1p(-p)/2).
    # Re z_pole^2 crosses zero at p = sin^2(theta): only Im is compared
    # componentwise
    rng = np.random.default_rng(6)
    ps = [1e-300, 0.5, *(10.0 ** rng.uniform(-300.0, math.log10(0.5), 100))]
    with mpmath.workdps(60):
        t = mpmath.mpf(theta)
        for p in map(float, ps):
            num = -mpmath.expm1(-1j * t + mpmath.log1p(-mpmath.mpf(p)) / 2)
            exact = complex(num / mpmath.conj(num))
            z2 = pole(p, theta)
            assert z2 == pytest.approx(exact, rel=1e-13, abs=0)
            assert z2.imag == pytest.approx(exact.imag, rel=1e-13, abs=0)


def test_pole_argument_is_odd_in_theta():
    for theta in (0.4, 1.0, 2.2):
        left = cmath.phase(pole(0.3, -theta))
        right = cmath.phase(pole(0.3, theta))
        assert left == pytest.approx(-right, abs=1e-13)


def test_thresholds_values():
    p_c, f_c = thresholds(THETA_REF, 1.0)
    assert p_c == pytest.approx(0.5, abs=1e-15)
    assert f_c == pytest.approx(math.pi / math.log(2.0), rel=1e-14)
    p_c, f_c = thresholds(math.pi / 2, 1.0)
    assert p_c == 1.0 and f_c == math.inf
    assert thresholds(0.0, 1.0) == (0.0, 0.0)
    # scales linearly with the threshold field
    assert thresholds(THETA_REF, 2.5)[1] == pytest.approx(2.5 * F_C_REF, rel=1e-12)


@pytest.mark.parametrize("theta, Fbar", [(math.nan, 1.0), (math.inf, 1.0), (THETA_REF, math.inf)])
def test_thresholds_reject_nonfinite_inputs(theta, Fbar):
    with pytest.raises(ValueError, match="theta and Fbar must be finite"):
        thresholds(theta, Fbar)


@pytest.mark.parametrize("Fbar", [0.0, -1.0])
def test_thresholds_reject_nonpositive_fbar(Fbar):
    with pytest.raises(ValueError, match=f"Fbar must be positive, got {Fbar}"):
        thresholds(THETA_REF, Fbar)


def test_floquet_mode_rejects_negative_n_max():
    with pytest.raises(ValueError, match="n_max must be nonnegative, got -1"):
        floquet_mode(P_REF, THETA_REF, -1)


def test_localization_length_reference_and_divergence():
    assert localization_length(P_REF, THETA_REF) == pytest.approx(XI_REF, rel=1e-13)
    # 1/|ln r| explodes approaching the threshold from below
    assert localization_length(0.5 - 1e-12, THETA_REF) > 1e10
    # still finite and positive on the delocalized side (no edge state there;
    # the report suppresses it)
    assert localization_length(0.7, THETA_REF) > 0.0


def test_localization_length_where_r_is_subnormal_or_zero():
    # r = 4.08e-310 here, and xi = 1/|ln r| is small but not 0
    assert localization_length(1e-310, 0.5) == pytest.approx(1.0 / -math.log(4.0843854251568286e-310), rel=1e-15)
    # r underflows to 0, whose limit of 1/|ln r| is 0
    assert decay_ratio(5e-324, math.pi) == 0.0
    assert localization_length(5e-324, math.pi) == 0.0


def test_localization_length_is_infinite_where_r_is_exactly_one():
    # at p = p_c = 1/2, theta = pi/4 the rounded r is 1.0 itself, so ln r = 0
    assert decay_ratio(0.5, THETA_REF) == 1.0
    assert localization_length(0.5, THETA_REF) == math.inf


def test_localization_length_small_field_scaling():
    # xi grows linearly with F once p = exp(-pi/F) is tiny
    fields = np.geomspace(1 / 20, 1 / 10, 10)
    xi = [localization_length(math.exp(-math.pi / f), THETA_REF) for f in fields]
    slope = np.polyfit(np.log(fields), np.log(xi), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_localization_length_critical_exponent():
    p_c = 0.5
    deltas = np.geomspace(1e-3, 1e-1, 20)
    xs = [p_c * d for d in deltas]
    ys = [localization_length(p_c * (1 - d), THETA_REF) for d in deltas]
    slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_floquet_mode_geometric_law(ref_coins):
    r = decay_ratio(P_REF, THETA_REF)
    w = (1.0 - r) ** 2
    mode = floquet_mode(P_REF, THETA_REF, 20)
    assert list(mode.sites) == list(range(0, 21, 2))
    assert mode.phi_R[0] == 0.0
    assert abs(mode.phi_L[0]) ** 2 == pytest.approx(w, abs=1e-12)
    for i, n in enumerate(mode.sites):
        assert abs(mode.phi_L[i]) ** 2 == pytest.approx(w * r ** int(n), abs=1e-10)
        if n >= 2:
            assert abs(mode.phi_R[i]) ** 2 == pytest.approx(
                w * r ** int(n - 1), abs=1e-10
            )
    # the strong-field side: for obtuse theta r -> 1 as p -> 1, and the
    # weight (1 - r)^2 of site 0 falls to 1e-15, so it is gated relatively too
    for p in (1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-15):
        for theta in (2.0, 2.8):
            res = check_edge_mode(((p, theta),), 20)
            assert res.passed, res.line()
            r = decay_ratio(p, theta)
            site0 = floquet_mode(p, theta, 0).phi_L[0]
            assert abs(site0) ** 2 == pytest.approx((1.0 - r) ** 2, rel=1e-6)


def test_floquet_mode_up_to_the_critical_band():
    # 60 theta x 21 p from 1e-12 to 1e-2 relative below p_c: only the points
    # inside the critical band raise, and the magnitudes of sites 0 and 2
    # stay within 1e-6 relative of 60-digit arithmetic; u / (1 - r), the
    # conditioning of the input, reaches 1.1e-7 on this grid
    worst, critical = 0.0, 0
    for theta in np.linspace(0.01, math.pi / 2 - 0.01, 60).tolist():
        for delta in np.geomspace(1e-12, 1e-2, 21).tolist():
            p = math.sin(theta) ** 2 * (1.0 - delta)
            try:
                mode = floquet_mode(p, theta, 2)
            except DelocalizedError:
                assert decay_ratio(p, theta) >= 1.0 - CRITICAL_BAND
                critical += 1
                continue
            with mpmath.workdps(60):
                q = mpmath.mpf(p)
                r = q / (2 - q - 2 * mpmath.cos(theta) * mpmath.sqrt(1 - q))
                w = (1 - r) ** 2
                got = (mode.phi_L[0], mode.phi_L[1], mode.phi_R[1])
                for phi, expect in zip(got, (w, r * r * w, r * w)):
                    worst = max(worst, float(abs(abs(phi) ** 2 / expect - 1)))
    assert critical == 392
    assert worst <= 1e-6


def test_floquet_mode_ratios():
    mode = floquet_mode(P_REF, THETA_REF, 4)
    r = decay_ratio(P_REF, THETA_REF)
    base = abs(mode.phi_L[0]) ** 2
    assert abs(mode.phi_L[1]) ** 2 / base == pytest.approx(r * r, rel=1e-10)
    assert abs(mode.phi_R[1]) ** 2 / base == pytest.approx(r, rel=1e-10)


def test_floquet_mode_total_weight():
    r = decay_ratio(P_REF, THETA_REF)
    mode = floquet_mode(P_REF, THETA_REF, 100)  # tail beyond 100 is ~1e-43
    assert float(np.sum(mode.probabilities())) == pytest.approx(1.0 - r, abs=1e-10)


def test_floquet_mode_probabilities_are_bitwise_re2_plus_im2():
    mode = floquet_mode(P_REF, THETA_REF, 20)
    expected = [
        (l.real**2 + l.imag**2) + (r.real**2 + r.imag**2)
        for l, r in zip(mode.phi_L.tolist(), mode.phi_R.tolist())
    ]
    # a hypot rounds once more than re^2 + im^2, so the two forms tell apart
    hypot = np.abs(mode.phi_L) ** 2 + np.abs(mode.phi_R) ** 2
    assert hypot.tolist() != expected
    assert [v.hex() for v in mode.probabilities().tolist()] == [v.hex() for v in expected]


def test_floquet_mode_rejects_delocalized():
    with pytest.raises(DelocalizedError):
        floquet_mode(0.7, THETA_REF, 10)
    with pytest.raises(DelocalizedError):
        floquet_mode(0.3, 0.0, 10)
    # inside the critical band the divergent mode is suppressed as well
    with pytest.raises(DelocalizedError):
        floquet_mode(0.5 - 1e-12, THETA_REF, 10)


def test_quasi_energy_reference():
    params = ModelParams(F=landau_zener_field(P_REF, 1.0), Fbar=1.0, gamma=THETA_REF)
    expected = params.L * params.F / (2 * math.pi) * ARG_Z2_REF
    assert quasi_energy(params) == pytest.approx(expected, rel=1e-13)
    # proportional to F (and to L) at fixed p, theta
    doubled = ModelParams(
        F=params.F, Fbar=params.Fbar, gamma=THETA_REF, L=2.0
    )
    assert quasi_energy(doubled) == pytest.approx(2 * expected, rel=1e-13)


def test_quasi_energy_rejects_zero_phase():
    with pytest.raises(DelocalizedError):
        quasi_energy(ModelParams(F=2.0, Fbar=1.0, gamma=0.0))


def test_observables_match_closed_geometric_sums():
    # independently derived sums over the geometric mode:
    #   J = j0 * 2 r / (1+r)^2,   E = E0 * 4 r (1+r^2) / (1-r^2)^2
    for p, theta in [(0.2, THETA_REF), (0.4, math.pi / 3), (0.05, 1.0), (0.49, THETA_REF)]:
        r = decay_ratio(p, theta)
        J, Jp, E = observables(p, theta)  # a named tuple, in column order
        assert J == pytest.approx(2 * r / (1 + r) ** 2, rel=1e-12)
        assert Jp == pytest.approx(J / math.sqrt(1.0 - p), rel=1e-12)
        assert E == pytest.approx(4 * r * (1 + r * r) / (1 - r * r) ** 2, rel=1e-12)


def test_observables_units_scale():
    obs = observables(P_REF, THETA_REF, j0=3.0, E0=0.5)
    base = observables(P_REF, THETA_REF)
    assert obs.J_direct == pytest.approx(3.0 * base.J_direct, rel=1e-14)
    assert obs.E_direct == pytest.approx(0.5 * base.E_direct, rel=1e-14)


def test_observable_forms_differ_by_sqrt_one_minus_p():
    for theta in (math.pi / 6, THETA_REF, math.pi / 3):
        p_c = math.sin(theta) ** 2
        for frac in (0.1, 0.5, 0.9):
            p = frac * p_c
            obs = observables(p, theta)
            assert obs.J_paper_form / obs.J_direct == pytest.approx(
                1.0 / math.sqrt(1.0 - p), abs=1e-10
            )


# fixed before the comparison was first run: p from a subnormal to 0.99,
# theta from 1e-16 to pi; delocalized points are skipped
J_PAPER_P = (
    1e-320, 1e-310, 1e-300, 1e-200, 1e-100, 1e-30, 1e-16, 1e-12, 1e-10, 1e-8, 1e-6,
    1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.45, 0.5, 0.7, 0.9, 0.99,
)
J_PAPER_THETA = (
    1e-16, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5, THETA_REF, 1.0,
    1.5, math.pi / 2, 2.0, 2.5, 3.0, math.pi,
)


def test_j_paper_form_matches_high_precision():
    # 1 - sqrt(1-p) cos(theta) and 2 - p - 2 sqrt(1-p) cos(theta) cancel at
    # small p and theta.  Where the exact value is subnormal no float carries
    # 1e-14 relative, so there the bound is one subnormal spacing
    checked = 0
    for p in J_PAPER_P:
        for theta in J_PAPER_THETA:
            if not is_localized(p, theta):
                continue
            exact = j_paper_exact(p, theta)
            got = observables(p, theta).J_paper_form
            assert abs(mpmath.mpf(got) - exact) <= max(1e-14 * exact, 2.0**-1074), (p, theta)
            checked += 1
    assert checked >= 250


def test_observables_vanish_in_weak_tunneling_limit():
    obs = observables(1e-6, THETA_REF)
    assert obs.J_direct < 1e-4
    assert obs.E_direct < 1e-4


def test_observables_reject_delocalized():
    with pytest.raises(DelocalizedError):
        observables(0.7, THETA_REF)


def test_energy_divergence_exponent():
    _, f_c = thresholds(THETA_REF, 1.0)
    deltas = np.geomspace(1e-3, 1e-1, 20)
    xs, ys = [], []
    for d in deltas:
        f = f_c * (1 - d)
        p = math.exp(-math.pi / f)
        xs.append(f_c - f)
        ys.append(observables(p, THETA_REF).E_direct)
    slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.1)


def test_momentum_stays_finite_through_threshold():
    for d in (1e-2, 1e-4, 1e-6, 1e-8):
        obs = observables(0.5 * (1 - d), THETA_REF)
        assert obs.J_direct < 0.5 + 1e-9


def test_edge_quantities_even_in_theta():
    for theta in (0.4, 1.1):  # p = 0.1 keeps both points localized
        assert decay_ratio(0.1, -theta) == pytest.approx(decay_ratio(0.1, theta), rel=1e-14)
        assert localization_length(0.1, -theta) == pytest.approx(
            localization_length(0.1, theta), rel=1e-14
        )
        a = observables(0.1, -theta)
        b = observables(0.1, theta)
        assert a.J_direct == pytest.approx(b.J_direct, rel=1e-14)
        assert a.E_direct == pytest.approx(b.E_direct, rel=1e-14)


def test_edge_report_localized():
    params = ModelParams(F=landau_zener_field(P_REF, 1.0), Fbar=1.0, gamma=THETA_REF)
    rep = edge_report(params)
    assert rep.localized and not rep.critical
    assert rep.r == pytest.approx(R_REF, rel=1e-14)
    assert rep.xi == pytest.approx(XI_REF, rel=1e-13)
    assert rep.weight == pytest.approx(1.0 - R_REF, rel=1e-14)
    assert abs(abs(complex(rep.z_pole_sq_re, rep.z_pole_sq_im)) - 1.0) < 1e-12
    assert rep.p_c == pytest.approx(0.5, abs=1e-15)
    assert rep.F_c == pytest.approx(F_C_REF, rel=1e-14)
    assert rep.quasi_energy == pytest.approx(
        params.F / (2 * math.pi) * ARG_Z2_REF, rel=1e-13
    )
    assert (rep.J_direct, rep.J_paper_form, rep.E_direct) == observables(P_REF, THETA_REF)
    scaled = edge_report(ModelParams(F=landau_zener_field(P_REF, 1.0), Fbar=1.0, gamma=THETA_REF, j0=3.0, E0=0.5))
    assert (scaled.J_direct, scaled.J_paper_form, scaled.E_direct) == observables(P_REF, THETA_REF, 3.0, 0.5)


def test_edge_report_delocalized():
    params = ModelParams(F=landau_zener_field(0.7, 1.0), Fbar=1.0, gamma=THETA_REF)
    rep = edge_report(params)
    assert not rep.localized and not rep.critical
    assert rep.weight == 0.0
    assert rep.xi is None
    assert rep.quasi_energy is None
    assert (rep.J_direct, rep.J_paper_form, rep.E_direct) == (None, None, None)
    assert rep.r > 1.0


def test_is_localized_band():
    assert is_localized(P_REF, THETA_REF)
    assert not is_localized(0.7, THETA_REF)
    assert not is_localized(0.5 - 1e-12, THETA_REF)


@pytest.mark.parametrize(
    "p, theta",
    [(0.2, THETA_REF), (0.2, THETA_REF + 4 * math.pi), (0.3, -0.6), (0.8, 2.3),
     (0.5, THETA_REF), (0.8, THETA_REF), (1e-300, 0.0), (0.1, math.pi / 2)],
    ids=["localized", "unreduced", "negative", "obtuse", "critical", "delocalized",
         "zero", "right"],
)
def test_edge_point_equals_the_per_point_functions(p, theta):
    point = edge_point(p, theta, 3.0, 0.5)
    assert point.r == decay_ratio(p, theta)
    if is_localized(p, theta):
        assert point == EdgePoint(
            decay_ratio(p, theta), localization_length(p, theta), 1.0 - point.r,
            *observables(p, theta, 3.0, 0.5), True,
        )
    else:
        assert point == EdgePoint(decay_ratio(p, theta), None, 0.0, None, None, None, False)
    # edge_report at the same point carries the same values, bit for bit
    params = ModelParams(F=landau_zener_field(p, 1.0), Fbar=1.0, gamma=theta, L=2.5, j0=3.0, E0=0.5)
    report = edge_report(params)
    point = edge_point(params.p, params.theta, 3.0, 0.5)
    assert tuple(getattr(report, name) for name in EdgePoint._fields) == point
    assert complex(report.z_pole_sq_re, report.z_pole_sq_im) == pole(params.p, params.theta)
    if not point.localized:
        assert report.quasi_energy is None
    else:
        assert report.quasi_energy == quasi_energy(params)


@pytest.mark.parametrize("p, theta", [(1.0, 0.5), (0.0, 0.5), (0.2, math.nan), (math.inf, 0.5)])
def test_edge_point_rejects_what_decay_ratio_rejects(p, theta):
    with pytest.raises(ValueError) as expected:
        decay_ratio(p, theta)
    with pytest.raises(ValueError) as got:
        edge_point(p, theta)
    assert str(got.value) == str(expected.value)

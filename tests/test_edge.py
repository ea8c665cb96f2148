import cmath
import math

import mpmath
import numpy as np
import pytest

from lzwalk import (
    DelocalizedError,
    ModelParams,
    decay_ratio,
    edge_report,
    floquet_mode,
    is_localized,
    localization_length,
    observables,
    pole,
    quasi_energy,
    thresholds,
)
from conftest import P_REF, THETA_REF

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


@pytest.mark.parametrize("theta", [0.0, 1e-4, THETA_REF])
def test_decay_ratio_matches_high_precision(theta):
    # p log-uniform over [1e-300, 0.5]; 2 - p - 2 cos(theta) sqrt(1-p) cancels
    # down to about p^2 / 4 at theta = 0, so the reference carries 700 digits
    rng = np.random.default_rng(5)
    ps = [1e-300, 0.5, *(10.0 ** rng.uniform(-300.0, math.log10(0.5), 100))]
    with mpmath.workdps(700):
        t = mpmath.mpf(theta)
        for p in map(float, ps):
            q = mpmath.mpf(p)
            exact = q / (2 - q - 2 * mpmath.cos(t) * mpmath.sqrt(1 - q))
            assert decay_ratio(p, theta) == pytest.approx(float(exact), rel=1e-13)


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


def test_localization_length_reference_and_divergence():
    assert localization_length(P_REF, THETA_REF) == pytest.approx(XI_REF, rel=1e-13)
    # 1/|ln r| explodes approaching the threshold from below
    assert localization_length(0.5 - 1e-12, THETA_REF) > 1e10
    # still finite and positive on the delocalized side (no edge state there;
    # the report suppresses it)
    assert localization_length(0.7, THETA_REF) > 0.0


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


def test_floquet_mode_rejects_delocalized():
    with pytest.raises(DelocalizedError):
        floquet_mode(0.7, THETA_REF, 10)
    with pytest.raises(DelocalizedError):
        floquet_mode(0.3, 0.0, 10)
    # inside the critical band the divergent mode is suppressed as well
    with pytest.raises(DelocalizedError):
        floquet_mode(0.5 - 1e-12, THETA_REF, 10)


def test_quasi_energy_reference():
    params = ModelParams.from_p(P_REF, Fbar=1.0, gamma=THETA_REF)
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
        obs = observables(p, theta)
        assert obs.J_direct == pytest.approx(2 * r / (1 + r) ** 2, rel=1e-12)
        assert obs.E_direct == pytest.approx(
            4 * r * (1 + r * r) / (1 - r * r) ** 2, rel=1e-12
        )


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
    params = ModelParams.from_p(P_REF, Fbar=1.0, gamma=THETA_REF)
    rep = edge_report(params)
    assert rep.localized and not rep.critical
    assert rep.r == pytest.approx(R_REF, rel=1e-14)
    assert rep.xi == pytest.approx(XI_REF, rel=1e-13)
    assert rep.weight == pytest.approx(1.0 - R_REF, rel=1e-14)
    assert abs(abs(rep.z_pole_sq) - 1.0) < 1e-12
    assert rep.p_c == pytest.approx(0.5, abs=1e-15)
    assert rep.F_c == pytest.approx(F_C_REF, rel=1e-14)
    assert rep.quasi_energy == pytest.approx(
        params.F / (2 * math.pi) * ARG_Z2_REF, rel=1e-13
    )


def test_edge_report_delocalized():
    params = ModelParams.from_p(0.7, Fbar=1.0, gamma=THETA_REF)
    rep = edge_report(params)
    assert not rep.localized and not rep.critical
    assert rep.weight == 0.0
    assert rep.xi is None
    assert rep.quasi_energy is None
    assert rep.r > 1.0


def test_is_localized_band():
    assert is_localized(P_REF, THETA_REF)
    assert not is_localized(0.7, THETA_REF)
    assert not is_localized(0.5 - 1e-12, THETA_REF)

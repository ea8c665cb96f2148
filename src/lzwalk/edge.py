"""Analytic characterization of the boundary-localized Floquet state.

Both site generating functions share one simple pole in z^2 at

    z_pole^2 = (1 - e^{-i theta} sqrt(1-p)) / (1 - e^{+i theta} sqrt(1-p)),

a unit-modulus point (numerator and denominator are complex conjugates).
Residues there give the stroboscopic edge mode, whose squared magnitudes
fall off geometrically with ratio

    r = p / (2 - p - 2 cos(theta) sqrt(1-p))

per two sites.  A normalizable mode needs r < 1; for 0 < theta <= pi/2 this
is exactly p < p_c = sin^2(theta) (field F_c = -pi Fbar / (2 ln sin theta)).
For pi/2 < |theta| < pi the general criterion cos(theta) < sqrt(1-p) holds
for every p in (0,1), so the state never delocalizes there.

Conventions: arguments of complex numbers are principal values in (-pi, pi];
quasi-energy uses hbar = 1, h = 2 pi; theta enters through cos/sin only, so
all reported magnitudes are even in theta while arg(z_pole^2) is odd.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coin import Coin, ModelParams, make_boundary_coin, make_bulk_coin, reduce_angle
from .errors import DelocalizedError
from .genfun import bounded_denominator, bounded_numerators, lambda_plus_eval, site_factor

__all__ = [
    "CRITICAL_BAND",
    "EdgeObservables",
    "EdgeReport",
    "FloquetMode",
    "decay_ratio",
    "pole",
    "thresholds",
    "localization_length",
    "floquet_mode",
    "quasi_energy",
    "observables",
    "edge_report",
    "is_localized",
]

# r this close to 1 counts as critical: divergent quantities are suppressed
# instead of reported as huge floats.
CRITICAL_BAND = 1e-9


def _check_p_theta(p: float, theta: float) -> float:
    if not (math.isfinite(p) and math.isfinite(theta)):
        raise ValueError(f"p and theta must be finite, got p={p}, theta={theta}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return reduce_angle(theta)


def decay_ratio(p: float, theta: float) -> float:
    """Per-two-sites decay ratio of the edge-mode probabilities.

    With s = sqrt(1-p) the denominator 2 - p - 2 cos(theta) s equals
    (1 - s)^2 + 4 s sin^2(theta/2), and 1 - s = p / (1 + s).  Both terms are
    divided by p, so r = 1 / (p/(1+s)^2 + 4 s sin^2(theta/2)/p) keeps full
    relative accuracy for every p in (0, 1), with neither cancellation nor
    underflow; it is +inf only where p/(1+s)^2 itself underflows at theta = 0.
    """
    theta = _check_p_theta(p, theta)
    s = math.sqrt(1.0 - p)
    half = math.sin(0.5 * theta)
    den = p / (1.0 + s) ** 2 + 4.0 * s * half * half / p
    return 1.0 / den if den > 0.0 else math.inf


def is_localized(p: float, theta: float) -> bool:
    return decay_ratio(p, theta) < 1.0 - CRITICAL_BAND


def pole(p: float, theta: float) -> complex:
    """Location z^2 of the shared simple pole; unit modulus by construction.

    The numerator 1 - e^{-i theta} s has real part 1 - s cos(theta) =
    p/(1+s) + 2 s sin^2(theta/2), written so that it does not cancel at
    small p and small theta.
    """
    theta = _check_p_theta(p, theta)
    s = math.sqrt(1.0 - p)
    half = math.sin(0.5 * theta)
    num = complex(p / (1.0 + s) + 2.0 * s * half * half, s * math.sin(theta))
    # num vanishes only at theta = 0 once p/(1+s) underflows; z_pole^2 = 1 there
    return num / num.conjugate() if num else 1.0 + 0.0j


def thresholds(theta: float, Fbar: float) -> tuple[float, float]:
    """(p_c, F_c) for the edge-state collapse at phase difference theta.

    p_c = sin^2(theta); F_c = -pi Fbar / (2 ln |sin theta|), infinite at
    |theta| = pi/2 and zero at theta = 0 (no edge state at any field).
    These mark the transition for 0 < |theta| <= pi/2; beyond that the
    mode survives for every p < 1.
    """
    if not (math.isfinite(theta) and math.isfinite(Fbar)):
        raise ValueError(f"theta and Fbar must be finite, got {theta}, {Fbar}")
    if Fbar <= 0.0:
        raise ValueError(f"Fbar must be positive, got {Fbar}")
    theta = reduce_angle(theta)
    s = abs(math.sin(theta))
    p_c = s * s
    if s == 0.0:
        return 0.0, 0.0
    if s == 1.0:
        return 1.0, math.inf
    return p_c, -math.pi * Fbar / (2.0 * math.log(s))


def localization_length(p: float, theta: float) -> float:
    """Edge-state size 1/|ln r| on the level axis; infinite at r = 1."""
    r = decay_ratio(p, theta)
    log_r = math.log(r)
    if log_r == 0.0:
        return math.inf
    return 1.0 / abs(log_r)


@dataclass(frozen=True)
class FloquetMode:
    """Stroboscopic edge mode on even sites 0, 2, ..., n_max."""

    sites: np.ndarray
    phi_L: np.ndarray
    phi_R: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("sites", np.int64), ("phi_L", np.complex128), ("phi_R", np.complex128)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def probabilities(self) -> np.ndarray:
        """|phi_L|^2 + |phi_R|^2 per listed site."""
        return np.abs(self.phi_L) ** 2 + np.abs(self.phi_R) ** 2


def _require_localized(p: float, theta: float) -> float:
    r = decay_ratio(p, theta)
    if r >= 1.0 - CRITICAL_BAND:
        kind = "critical" if abs(r - 1.0) <= CRITICAL_BAND else "delocalized"
        raise DelocalizedError(
            f"no normalizable edge state at p={p}, theta={theta} (r={r:.12g}, {kind})"
        )
    return r


def floquet_mode(p: float, theta: float, n_max: int) -> FloquetMode:
    """Edge mode from residues of the site generating functions.

    Evaluates the closed forms at z_pole on the physical branch and takes
    the simple-pole limit psi(z) (1 - z^2/z_pole^2).  Phases are reported in
    the gauge beta = 0, gamma = theta, gamma_tilde = 0; squared magnitudes
    are gauge independent and satisfy the geometric law exactly:
    |phi_L(n)|^2 = r^n (1-r)^2 and |phi_R(n)|^2 = r^{n-1} (1-r)^2 with
    phi_R(0) = 0.
    """
    theta = _check_p_theta(p, theta)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    _require_localized(p, theta)
    coin = make_bulk_coin(p, 0.0, theta)
    boundary = make_boundary_coin(0.0)
    a, c, d = coin.a, coin.c, coin.d
    det = coin.det

    z2 = pole(p, theta)
    zp = cmath.sqrt(z2)
    lam = lambda_plus_eval(coin, zp)
    # implicit derivative of the cleared quadratic F(lam, z) = 0
    dF_dlam = 2.0 * d * d * zp * lam - d * (det * zp * zp + 1.0)
    dF_dz = d * d * lam * lam - 2.0 * d * det * zp * lam + det * abs(a) ** 2
    lam_prime = -dF_dz / dF_dlam
    # the denominator h = 1 - c~ A(z) vanishes at the pole by construction
    h = bounded_denominator(coin, boundary, lam, zp)
    assert abs(h) < 1e-8, f"pole location inconsistent: |h| = {abs(h):.3e}"
    a_prime = (d * (lam_prime * zp + lam) - 2.0 * det * zp) / c
    h_prime = -boundary.c * a_prime
    rho = -2.0 / (zp * h_prime)
    g_L, g_R = bounded_numerators(coin, boundary, lam, zp)
    t = site_factor(coin, lam)

    def residues(n: int) -> tuple[complex, complex]:
        pref = t ** (n - 1)
        return pref * g_L * rho, pref * g_R * rho

    sites = np.arange(0, n_max + 1, 2, dtype=np.int64)
    phi_L = np.zeros(len(sites), dtype=np.complex128)
    phi_R = np.zeros(len(sites), dtype=np.complex128)
    l1, r1 = residues(1)
    for i, n in enumerate(sites):
        if n == 0:
            phi_L[i] = zp * (a * l1 + coin.b * r1)
            phi_R[i] = 0.0
        else:
            phi_L[i], phi_R[i] = residues(int(n))
    return FloquetMode(sites, phi_L, phi_R)


def quasi_energy(params: ModelParams) -> float:
    """Stroboscopic quasi-energy, epsilon = L (F / 2 pi) arg(z_pole^2).

    The per-step phase decrement of the boundary return amplitude equals
    arg(z_pole^2) / 2.  Only defined in the localized regime.
    """
    _require_localized(params.p, params.theta)
    return params.L * params.F / (2.0 * math.pi) * cmath.phase(pole(params.p, params.theta))


@dataclass(frozen=True)
class EdgeObservables:
    """Momentum and energy carried by the normalized edge mode."""

    J_direct: float
    J_paper_form: float
    E_direct: float


def observables(p: float, theta: float, j0: float = 1.0, E0: float = 1.0) -> EdgeObservables:
    """Edge-mode momentum and energy expectation values.

    Level n carries momentum +/- j0*n (sign by moving direction) and energy
    E0*n^2.  Summed over the geometric mode and normalized by its weight
    1 - r, these give the closed forms

        J_direct = j0 * 2 r / (1 + r)^2,
        E_direct = E0 * 4 r (1 + r^2) / (1 - r^2)^2,

    evaluated in constant time for every r < 1, however close to the
    threshold; 1 - r^2 is formed as (1 - r)(1 + r) to keep its relative
    accuracy as r approaches 1.
    J_paper_form evaluates the alternative closed expression
    j0 p (2-p-2 cos(theta) sqrt(1-p)) / [2 sqrt(1-p) (sqrt(1-p) cos(theta) - 1)^2];
    the two momentum forms differ by a constant factor sqrt(1-p) and are
    both reported.
    """
    theta = _check_p_theta(p, theta)
    r = _require_localized(p, theta)
    one_minus_r2 = (1.0 - r) * (1.0 + r)
    j_direct = 2.0 * r / (1.0 + r) ** 2
    e_direct = 4.0 * r * (1.0 + r * r) / one_minus_r2**2
    sq = math.sqrt(1.0 - p)
    cos_t = math.cos(theta)
    j_paper = (
        p
        * (2.0 - p - 2.0 * cos_t * sq)
        / (2.0 * sq * (sq * cos_t - 1.0) ** 2)
    )
    return EdgeObservables(j0 * j_direct, j0 * j_paper, E0 * e_direct)


@dataclass(frozen=True)
class EdgeReport:
    """Full analytic characterization of the edge state at one (p, theta).

    xi and quasi_energy are None outside the localized regime; weight is
    reported as 0 there.  critical flags |r - 1| within the suppression band.
    """

    p: float
    theta: float
    r: float
    xi: float | None
    weight: float
    z_pole_sq: complex
    quasi_energy: float | None
    p_c: float
    F_c: float
    localized: bool
    critical: bool


def edge_report(params: ModelParams) -> EdgeReport:
    """Assemble the edge-state report for a parameter set."""
    p = params.p
    theta = params.theta
    r = decay_ratio(p, theta)
    z2 = pole(p, theta)
    p_c, F_c = thresholds(theta, params.Fbar)
    critical = abs(r - 1.0) <= CRITICAL_BAND
    localized = r < 1.0 - CRITICAL_BAND
    if localized:
        xi: float | None = localization_length(p, theta)
        weight = 1.0 - r
        eps: float | None = quasi_energy(params)
    else:
        xi = None
        weight = 0.0
        eps = None
    return EdgeReport(
        p=p,
        theta=theta,
        r=r,
        xi=xi,
        weight=weight,
        z_pole_sq=z2,
        quasi_energy=eps,
        p_c=p_c,
        F_c=F_c,
        localized=localized,
        critical=critical,
    )

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

The coin pair of the package's one gauge is built here, by ``coin_pair``;
``cli``, ``verify`` and ``floquet_mode`` take their coins from it.

Imports: everything here except ``FloquetMode`` and ``floquet_mode`` is
scalar closed-form arithmetic on ``math`` and ``cmath``, or builds coins
with ``coin``, which imports neither numpy nor an engine.  Those two import
numpy and the ``genfun`` closed forms when they run, so loading this module
(as the ``edge`` and ``sweep`` CLI modes do) loads neither.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .coin import Coin, ModelParams, make_boundary_coin, make_bulk_coin, reduce_angle
from .errors import DelocalizedError

__all__ = [
    "CRITICAL_BAND",
    "EdgeObservables",
    "EdgePoint",
    "EdgeReport",
    "FloquetMode",
    "coin_pair",
    "decay_ratio",
    "pole",
    "thresholds",
    "localization_length",
    "floquet_mode",
    "quasi_energy",
    "observables",
    "edge_report",
    "edge_point",
    "is_localized",
]

# r this close to 1 counts as critical: divergent quantities are suppressed
# instead of reported as huge floats.
CRITICAL_BAND = 1e-9


def coin_pair(p: float, theta: float, beta: float = 0.0) -> tuple[Coin, Coin]:
    """The package's bulk and boundary coins at (p, theta), in the one gauge
    that fixes their bits: gamma = 0, gamma_tilde = -reduce_angle(theta).

    Reducing theta makes theta and theta + 2 pi one input.  At beta = 0, the
    gauge of ``evolve``, ``series`` and ``floquet_mode``, the bulk coin is
    real, so each bulk product of the walk is two real products, rounded
    once with or without fused multiply-add, and ``evolve`` prints the same
    bytes at every CPU level.  ``verify`` varies beta.
    """
    return make_bulk_coin(p, beta, 0.0), make_boundary_coin(-reduce_angle(theta))


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
    relative accuracy for every p in (0, 1), free of cancellation.  Where
    the second term overflows (p near or below the smallest normal float),
    the first is below 1 and r = p / (4 s sin^2(theta/2)) instead; that r
    can be subnormal, and it underflows to 0 at p = 5e-324, theta = pi.  r
    is +inf where theta is 0 or nearly so and (1+s)^2/p overflows.
    """
    return _decay_ratio(p, _check_p_theta(p, theta))


def _decay_ratio(p: float, theta: float) -> float:
    """r at a checked p and reduced theta; see ``decay_ratio``."""
    s = math.sqrt(1.0 - p)
    half = math.sin(0.5 * theta)
    phase = 4.0 * s * half * half
    if phase / p == math.inf:  # p/(1+s)^2 < 1 is lost beside it
        return p / phase
    den = p / (1.0 + s) ** 2 + phase / p
    return 1.0 / den if den > 0.0 else math.inf


def is_localized(p: float, theta: float) -> bool:
    return decay_ratio(p, theta) < 1.0 - CRITICAL_BAND


def pole(p: float, theta: float) -> complex:
    """Location z^2 of the shared simple pole; unit modulus by construction.

    The numerator 1 - e^{-i theta} s has real part 1 - s cos(theta) =
    p/(1+s) + 2 s sin^2(theta/2), written so that it does not cancel at
    small p and small theta.
    """
    num = _pole_numerator(p, _check_p_theta(p, theta))
    # num vanishes only at theta = 0 once p/(1+s) underflows; z_pole^2 = 1 there
    return num / num.conjugate() if num else 1.0 + 0.0j


def _pole_numerator(p: float, theta: float) -> complex:
    """1 - e^{-i theta} sqrt(1-p) at a checked p and reduced theta; see ``pole``."""
    s = math.sqrt(1.0 - p)
    half = math.sin(0.5 * theta)
    return complex(p / (1.0 + s) + 2.0 * s * half * half, s * math.sin(theta))


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
    """Edge-state size 1/|ln r| on the level axis; infinite at r = 1 and,
    its limit, 0 where r underflows to 0."""
    return _localization_length(decay_ratio(p, theta))


def _localization_length(r: float) -> float:
    if r == 0.0:
        return 0.0
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
        import numpy as np

        for name, dtype in (("sites", np.int64), ("phi_L", np.complex128), ("phi_R", np.complex128)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def probabilities(self) -> np.ndarray:
        """|phi_L|^2 + |phi_R|^2 per listed site, each by ``walk.probability``."""
        from .walk import probability

        return probability(self.phi_L) + probability(self.phi_R)


def _require_localized(p: float, theta: float) -> float:
    """r at a checked p and reduced theta; DelocalizedError unless r < 1 - CRITICAL_BAND."""
    r = _decay_ratio(p, theta)
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
    the gauge of ``coin_pair``, beta = gamma = 0, gamma_tilde = -theta;
    squared magnitudes are gauge independent and satisfy the geometric law
    |phi_L(n)|^2 = r^n (1-r)^2 and |phi_R(n)|^2 = r^{n-1} (1-r)^2 with
    phi_R(0) = 0, to a relative error of about n u / (1 - r), u = 2^-53: the
    conditioning of the input as the pole nears a branch point of eta.  The
    discriminant D of the eta equation, which cancels there, is taken in
    closed form: with s = sqrt(1-p), alpha = atan2(sqrt p, s) and num the
    numerator of ``pole``, sqrt(D) = 4 z_pole s sin((theta-alpha)/2)
    sin((theta+alpha)/2) / |num|, z_pole / |num| = 1 / conj(num).  The sines
    multiply to (s - cos theta)/2 > 0 wherever r < 1, so this is the root
    continued from inside the disk.  No localized point raises, up to
    CRITICAL_BAND; ArithmeticError flags a pole that sits farther than
    1e-12 |h'| from the zero of the denominator h.
    """
    import numpy as np

    from .genfun import _eta_coefficients, _eta_root, bounded_denominator, bounded_numerators, site_factor

    theta = _check_p_theta(p, theta)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    _require_localized(p, theta)
    coin, boundary = coin_pair(p, theta)
    a, b = coin.a, coin.b
    s_eta, q_eta = _eta_coefficients(coin)
    s = math.sqrt(1.0 - p)
    alpha = math.atan2(math.sqrt(p), s)
    num = _pole_numerator(p, theta)
    zp = cmath.sqrt(num / num.conjugate())  # num / |num|
    sqrt_disc = 4.0 * s * math.sin(0.5 * (theta - alpha)) * math.sin(0.5 * (theta + alpha)) / num.conjugate()
    eta = _eta_root(s_eta, zp, sqrt_disc)
    # implicit derivative of F(eta, z) = z^3 + (s_eta z^2 - 1) eta + q_eta z eta^2,
    # where dF/deta = s_eta z^2 - 1 + 2 q_eta z eta = -sqrt(D)
    dF_dz = 3.0 * zp * zp + 2.0 * s_eta * zp * eta + q_eta * eta * eta
    eta_prime = dF_dz / sqrt_disc
    # h = 1 - c~ A(z), A = b (z + ad eta) z, vanishes at the pole by
    # construction; h/h' is how far the computed pole sits from its zero
    h = bounded_denominator(coin, boundary, eta, zp)
    h_prime = -boundary.c * b * (2.0 * zp + a * coin.d * (eta_prime * zp + eta))
    if not abs(h) <= 1e-12 * abs(h_prime):
        raise ArithmeticError(
            f"pole location inconsistent: |h| = {abs(h):.3e}, |h'| = {abs(h_prime):.3e}"
        )
    rho = -2.0 / (zp * h_prime)
    g_L, g_R = bounded_numerators(coin, boundary, eta, zp)
    t = site_factor(coin, eta, zp)

    def residues(n: int) -> tuple[complex, complex]:
        pref = t ** (n - 1)
        return pref * g_L * rho, pref * g_R * rho

    sites = np.arange(0, n_max + 1, 2, dtype=np.int64)
    l1, r1 = residues(1)
    phi_L, phi_R = zip((zp * (a * l1 + b * r1), 0.0), *map(residues, sites[1:].tolist()))
    return FloquetMode(sites, phi_L, phi_R)


def quasi_energy(params: ModelParams) -> float:
    """Stroboscopic quasi-energy, epsilon = L (F / 2 pi) arg(z_pole^2).

    The per-step phase decrement of the boundary return amplitude equals
    arg(z_pole^2) / 2.  Only defined in the localized regime.
    """
    p = params.p
    theta = _check_p_theta(p, params.theta)
    _require_localized(p, theta)
    return params.L * params.F / (2.0 * math.pi) * cmath.phase(pole(p, theta))


class EdgeObservables(NamedTuple):
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
    both reported.  Its two gaps are formed as in ``pole`` and
    ``decay_ratio``, so it keeps full relative accuracy down to the
    smallest p.
    """
    theta = _check_p_theta(p, theta)
    return _observables(p, theta, _require_localized(p, theta), j0, E0)


def _observables(p: float, theta: float, r: float, j0: float, E0: float) -> EdgeObservables:
    """The closed forms of ``observables`` at a checked p, reduced theta and r < 1."""
    one_minus_r2 = (1.0 - r) * (1.0 + r)
    j_direct = 2.0 * r / (1.0 + r) ** 2
    e_direct = 4.0 * r * (1.0 + r * r) / one_minus_r2**2
    # with s = sqrt(1-p): gap = 1 - s cos(theta) = p/(1+s) + 2 s sin^2(theta/2)
    # and 2 - p - 2 s cos(theta) = (p/(1+s))^2 + 4 s sin^2(theta/2), free of
    # cancellation; p/gap <= 1 + s and the second gap over the first lies
    # between p/(1+s) and 2, so a factor underflows only where the result does
    s = math.sqrt(1.0 - p)
    half = math.sin(0.5 * theta)
    x = p / (1.0 + s)
    t = 2.0 * s * half * half
    gap = x + t
    j_paper = (p / gap) * ((x * x + 2.0 * t) / gap) / (2.0 * s)
    return EdgeObservables(j0 * j_direct, j0 * j_paper, E0 * e_direct)


class EdgePoint(NamedTuple):
    """The edge state at one (p, theta): the columns of a ``sweep`` row after
    F and p.

    xi and the observables are None, weight is 0 and localized is False
    outside the localized regime, as in ``EdgeReport``.
    """

    r: float
    xi: float | None
    weight: float
    J_direct: float | None
    J_paper_form: float | None
    E_direct: float | None
    localized: bool


def edge_point(p: float, theta: float, j0: float = 1.0, E0: float = 1.0) -> EdgePoint:
    """Decay ratio, localization length, weight and observables at one point.

    Checks (p, theta) once and computes r once; every value equals the one
    ``decay_ratio``, ``localization_length``, ``observables`` and
    ``is_localized`` return.
    """
    theta = _check_p_theta(p, theta)
    r = _decay_ratio(p, theta)
    if r < 1.0 - CRITICAL_BAND:
        return EdgePoint(r, _localization_length(r), 1.0 - r, *_observables(p, theta, r, j0, E0), True)
    return EdgePoint(r, None, 0.0, None, None, None, False)


class EdgeReport(NamedTuple):
    """Full analytic characterization of the edge state at one (p, theta):
    the columns of the ``edge`` table, in print order.

    z_pole_sq_re and z_pole_sq_im are the parts of ``pole``.  xi,
    quasi_energy and the observables are None outside the localized regime;
    weight is reported as 0 there.  critical flags |r - 1| within the
    suppression band.  The observables carry the units j0 and E0 of the
    parameter set.
    """

    F: float
    p: float
    theta: float
    r: float
    xi: float | None
    weight: float
    z_pole_sq_re: float
    z_pole_sq_im: float
    quasi_energy: float | None
    p_c: float
    F_c: float
    J_direct: float | None
    J_paper_form: float | None
    E_direct: float | None
    localized: bool
    critical: bool


def edge_report(params: ModelParams) -> EdgeReport:
    """Assemble the edge-state report for a parameter set."""
    p, theta = params.p, params.theta  # edge_point checks them
    r, xi, weight, J_direct, J_paper_form, E_direct, localized = edge_point(p, theta, params.j0, params.E0)
    z_pole_sq = pole(p, theta)
    return EdgeReport(
        params.F, p, theta, r, xi, weight, z_pole_sq.real, z_pole_sq.imag,
        quasi_energy(params) if localized else None,
        *thresholds(theta, params.Fbar),
        J_direct, J_paper_form, E_direct, localized,
        abs(r - 1.0) <= CRITICAL_BAND,
    )


def __getattr__(name: str):
    # genfun.lambda_plus_eval is not called here; benches/spans.py wraps it
    # by name on this module, so it resolves on first access and importing
    # this module loads no genfun
    if name == "lambda_plus_eval":
        from .genfun import lambda_plus_eval

        return lambda_plus_eval
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Transfer matrices of the bounded walk and the physical parameter map.

A walker on sites n >= 0 carries a two-component amplitude (psi_L, psi_R).
Every anticrossing applies the same 2x2 unitary ``U = [[a, b], [c, d]]``
except at the boundary site, which reflects completely through
``U~ = [[0, e^{i*gamma_tilde}], [-e^{-i*gamma_tilde}, 0]]``.  Amplitudes are
plain Python complex numbers (64-bit real and imaginary parts).  Every
probability depends on the phases only through theta = gamma - gamma_tilde,
the one phase that ``ModelParams`` holds.

The tunneling probability derives from the driving field as
``p = exp(-pi * Fbar / F)``, with Fbar the threshold field of the avoided
crossing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

__all__ = [
    "UNITARITY_TOL",
    "Coin",
    "ModelParams",
    "make_bulk_coin",
    "make_boundary_coin",
    "landau_zener_p",
    "landau_zener_field",
    "reduce_angle",
]

UNITARITY_TOL = 1e-12


def _require_finite(name: str, *values: complex) -> None:
    for v in values:
        # an int beyond the float range raises OverflowError here
        if not cmath.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def reduce_angle(x: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    _require_finite("angle", x)
    r = math.remainder(x, 2.0 * math.pi)
    if r <= -math.pi:
        r += 2.0 * math.pi
    return r


@dataclass(frozen=True)
class Coin:
    """2x2 unitary transfer matrix ``[[a, b], [c, d]]``.

    Construction validates unitarity to ``UNITARITY_TOL`` and keeps the
    measured unitarity defect.  The defect, the largest modulus among the
    four entries of U^dag U - I, is computed in scalar complex arithmetic,
    without building a matrix; a NaN defect fails validation.  Instances
    are immutable and safe to share between threads.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    _defect: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_finite("coin entry", self.a, self.b, self.c, self.d)
        # Python complex, not numpy scalars: overflow gives inf or NaN, no warning
        a, b, c, d = complex(self.a), complex(self.b), complex(self.c), complex(self.d)
        ca, cb, cc, cd = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
        try:
            moduli = (
                abs(ca * a + cc * c - 1.0),
                abs(ca * b + cc * d),
                abs(cb * a + cd * c),
                abs(cb * b + cd * d - 1.0),
            )
        except OverflowError:  # a finite entry whose modulus exceeds the float range
            moduli = (math.inf,)
        # the moduli are nonnegative, so their sum is NaN only when one of
        # them is; max() alone would skip a NaN that follows a number
        defect = math.nan if math.isnan(sum(moduli)) else max(moduli)
        object.__setattr__(self, "_defect", defect)
        # no |det| gate: |det|^2 = det(U^dag U) lies within 2 delta + 2 delta^2
        # of 1 for a defect delta, so ||det| - 1| <= delta + O(delta^2)
        if not defect <= UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")

    def unitarity_defect(self) -> float:
        """Max entrywise deviation of U^dag U from the identity."""
        return self._defect


def make_bulk_coin(p: float, beta: float, gamma: float) -> Coin:
    """Bulk transfer matrix for tunneling probability ``p`` and phases.

    Returns ``[[sqrt(p) e^{i beta}, sqrt(1-p) e^{i gamma}],
    [-sqrt(1-p) e^{-i gamma}, sqrt(p) e^{-i beta}]]``; det is exactly 1 up to
    rounding.  ``p = 1`` is the ballistic limit (off-diagonals vanish);
    ``p = 0`` is rejected because the walk then never leaves the boundary.
    """
    _require_finite("p", p)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    _require_finite("beta", beta)
    _require_finite("gamma", gamma)
    sp = math.sqrt(p)
    sq = math.sqrt(1.0 - p)
    return Coin(
        sp * cmath.exp(1j * beta),
        sq * cmath.exp(1j * gamma),
        -sq * cmath.exp(-1j * gamma),
        sp * cmath.exp(-1j * beta),
    )


def make_boundary_coin(gamma_tilde: float) -> Coin:
    """Completely reflecting boundary matrix ``[[0, e^{i g}], [-e^{-i g}, 0]]``."""
    _require_finite("gamma_tilde", gamma_tilde)
    return Coin(0.0, cmath.exp(1j * gamma_tilde), -cmath.exp(-1j * gamma_tilde), 0.0)


def landau_zener_p(F: float, Fbar: float) -> float:
    """Tunneling probability ``p = exp(-pi*Fbar/F)`` at field F."""
    return math.exp(-math.pi * Fbar / F)


def landau_zener_field(p: float, Fbar: float) -> float:
    """Field ``F = -pi*Fbar/ln(p)`` at which the tunneling probability is p."""
    return -math.pi * Fbar / math.log(p)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of a run.

    F and Fbar (threshold field) share arbitrary units; the tunneling
    probability ``p = exp(-pi*Fbar/F)`` is always derived, never stored.
    The walk depends on the two coin phases only through their difference
    theta, so one phase is stored: ``gamma`` holds theta, reduced to
    (-pi, pi] on access as ``theta``.
    L is the system length entering the quasi-energy per length; j0 and E0
    are the momentum and energy units of the level ladder.
    """

    F: float
    Fbar: float
    gamma: float = 0.0
    L: float = 1.0
    j0: float = 1.0
    E0: float = 1.0

    def __post_init__(self) -> None:
        _require_finite("F", self.F)
        _require_finite("Fbar", self.Fbar)
        _require_finite("gamma", self.gamma)
        _require_finite("L", self.L)
        _require_finite("units", self.j0, self.E0)
        if self.F <= 0.0:
            raise ValueError(f"F must be positive, got {self.F}")
        if self.Fbar <= 0.0:
            raise ValueError(f"Fbar must be positive, got {self.Fbar}")
        if self.L <= 0.0:
            raise ValueError(f"L must be positive, got {self.L}")
        p = landau_zener_p(self.F, self.Fbar)
        if not 0.0 < p < 1.0:
            raise ValueError(
                f"derived p = exp(-pi*Fbar/F) = {p} falls outside (0, 1); "
                "F is too large or too small relative to Fbar to resolve"
            )

    @property
    def p(self) -> float:
        return landau_zener_p(self.F, self.Fbar)

    @property
    def theta(self) -> float:
        return reduce_angle(self.gamma)

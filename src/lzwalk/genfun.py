"""Truncated power series engine and closed-form generating functions.

The generating function of a site is ``Psi(0->n; z) = sum_tau psi(n,tau) z^tau``.
For a coin with entries a, b, c, d and det Delta the building block is the
branch lam(z) of

    d^2 z lam^2 - d (Delta z^2 + 1) lam + Delta |a|^2 z = 0

that vanishes at z = 0.  Clearing the radical this way gives an exact
coefficient recurrence (lam_1 = Delta |a|^2 / d, then
lam_k = d [lam^2]_{k-1} - Delta lam_{k-2}), so no series square root is ever
needed; only odd-order coefficients are nonzero.

From lam and the site factor t = d lam / a follow the closed forms

    A(z)        = (d lam - Delta z) z / c          (absorbing return)
    Bq(0->n; z) = t^n / d
    Br(0->n; z) = t^n (lam - a z)/(a c z)
    PsiL(0->n)  = t^{n-1} (c~ d/(a c)) (lam - a z) / (1 - c~ A)
    PsiR(0->n)  = t^{n-1} c~ z / (1 - c~ A)        for n >= 1,
    PsiL(0->0)  = 1 + z (a PsiL(0->1) + b PsiR(0->1)),  PsiR(0->0) = 0.

Every function comes in a pointwise flavor (complex argument) and a series
flavor (``*_series`` or ``bounded_gf_table``, truncated to a fixed order).
Each closed form is coded once, as a function of lam and z that are either
two complex numbers or two ``Series`` of one order: A(z), the site factor
``site_factor``, the denominator h = 1 - c~ A in ``bounded_denominator``, the
site-1 numerators h PsiL, h PsiR in ``bounded_numerators`` and the site-0
form.  Both flavors call them, and so do the residues in
``edge.floquet_mode`` and the pole check in ``verify``.

lam, t and both site-1 kernels (numerator / h) are odd series, so
``bounded_gf_table`` works on their odd-coefficient sublattice and fills
only the columns tau >= n with tau = n (mod 2) of row n.
"""

from __future__ import annotations

import cmath

import numpy as np

from .coin import Coin
from .errors import BranchAmbiguityError, PoleError, ResourceLimitError, SingularityError

__all__ = [
    "MAX_TABLE_STEPS",
    "Series",
    "lambda_plus_series",
    "lambda_plus_eval",
    "site_factor",
    "bounded_denominator",
    "bounded_numerators",
    "absorbing_gf",
    "absorbing_gf_series",
    "b_gf_closed",
    "b_gf_closed_series",
    "bounded_gf",
    "gf_site0",
    "bounded_gf_table",
]

# largest n_max and order - 1 of bounded_gf_table; at the cap it holds two
# 2001 x 2001 complex tables (122 MiB), and `series --steps 2000` takes
# 1.5 s (p = 0.8) to 2.4 s (p = 0.2) on a 2-core VM
MAX_TABLE_STEPS = 2000

_DEGENERATE_TOL = 1e-15

# relative gap below which the two root moduli of the quadratic count as tied
_MODULUS_TIE_TOL = 1e-9


class Series:
    """Truncated formal power series with complex128 coefficients.

    Coefficient k is the z^k term; arithmetic follows truncated
    Cauchy-product semantics and never reads beyond the order.  Binary
    operations between different orders re-truncate to the smaller one.
    Instances are immutable.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs, order: int | None = None):
        c = np.array(coeffs, dtype=np.complex128)
        if c.ndim != 1:
            raise ValueError(f"coefficients must be one-dimensional, got shape {c.shape}")
        if order is not None:
            if order < 1:
                raise ValueError(f"order must be >= 1, got {order}")
            if len(c) < order:
                c = np.concatenate([c, np.zeros(order - len(c), dtype=np.complex128)])
            else:
                c = c[:order].copy()
        if len(c) < 1:
            raise ValueError("a series needs at least the constant term")
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("series coefficients must be finite")
        c.setflags(write=False)
        self._c = c

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: complex, order: int) -> "Series":
        c = np.zeros(order, dtype=np.complex128)
        c[0] = value
        return cls(c)

    @classmethod
    def monomial(cls, k: int, order: int, coeff: complex = 1.0) -> "Series":
        if not 0 <= k < order:
            raise ValueError(f"monomial degree {k} outside order {order}")
        c = np.zeros(order, dtype=np.complex128)
        c[k] = coeff
        return cls(c)

    # -- inspection ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._c)

    @property
    def coeffs(self) -> np.ndarray:
        return self._c

    def coefficient(self, k: int) -> complex:
        if not 0 <= k < self.order:
            raise IndexError(f"coefficient {k} outside truncation order {self.order}")
        return complex(self._c[k])

    def truncate(self, order: int) -> "Series":
        return Series(self._c, order)

    def __repr__(self) -> str:
        head = ", ".join(f"{v:.6g}" for v in self._c[:4])
        tail = ", ..." if self.order > 4 else ""
        return f"Series([{head}{tail}], order={self.order})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Series):
            m = min(self.order, other.order)
            return Series(self._c[:m] + other._c[:m])
        c = self._c.copy()
        c[0] += complex(other)
        return Series(c)

    __radd__ = __add__

    def __neg__(self):
        return Series(-self._c)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Series) else -complex(other))

    def __rsub__(self, other):
        return (-self) + complex(other)

    def __mul__(self, other):
        if isinstance(other, Series):
            m = min(self.order, other.order)
            return Series(np.convolve(self._c[:m], other._c[:m])[:m])
        return Series(self._c * complex(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Series):
            return Series(self._c / complex(other))
        m = min(self.order, other.order)
        b = other._c
        if abs(b[0]) < 1e-300:
            raise SingularityError(
                "division by a series with (numerically) vanishing constant term"
            )
        a = self._c
        q = np.zeros(m, dtype=np.complex128)
        for k in range(m):
            acc = a[k] - np.dot(q[:k], b[k:0:-1])
            q[k] = acc / b[0]
        return Series(q)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"series powers take nonnegative integers, got {exponent!r}")
        result = Series.constant(1.0, self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift_down(self, k: int = 1, tol: float = 1e-9) -> "Series":
        """Divide by z^k; the k lowest coefficients must vanish within tol."""
        if k < 0:
            raise ValueError("shift_down takes k >= 0")
        if k and np.max(np.abs(self._c[:k]), initial=0.0) > tol:
            raise ValueError(
                f"cannot divide by z^{k}: low-order coefficients are not zero"
            )
        c = np.zeros(self.order, dtype=np.complex128)
        c[: self.order - k] = self._c[k:]
        return Series(c)

    def __call__(self, z: complex) -> complex:
        acc = 0.0 + 0.0j
        for v in self._c[::-1]:
            acc = acc * z + v
        return complex(acc)


# -- branch series ----------------------------------------------------


def _check_entries(coin: Coin, need: str) -> None:
    names = {"a": coin.a, "c": coin.c, "d": coin.d}
    for key in need:
        if abs(names[key]) < _DEGENERATE_TOL:
            cause = "p = 0" if key in "ad" else "p = 1"
            raise SingularityError(
                f"coin entry {key} vanishes ({cause}); the closed form degenerates"
            )


def lambda_plus_series(coin: Coin, order: int) -> Series:
    """Coefficients of the vanishing-at-zero root of the cleared quadratic.

    lam_k depends only on lam_j with j <= k-2, so the recurrence is exact;
    even-order coefficients come out identically zero.
    """
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    _check_entries(coin, "d")
    d = coin.d
    det = coin.det
    aa = abs(coin.a) ** 2
    lam = np.zeros(order, dtype=np.complex128)
    lam[1] = det * aa / d
    for k in range(2, order):
        sq_km1 = np.dot(lam[1 : k - 1], lam[k - 2 : 0 : -1]) if k >= 3 else 0.0
        lam[k] = d * sq_km1 - det * lam[k - 2]
    return Series(lam)


def _quadratic_roots(coin: Coin, z: complex) -> tuple[complex, complex]:
    d = coin.d
    det = coin.det
    A = d * d * z
    B = -d * (det * z * z + 1.0)
    C = det * (abs(coin.a) ** 2) * z
    disc = B * B - 4.0 * A * C
    sq = cmath.sqrt(disc)
    # pick the larger |B -/+ sq| to avoid cancellation
    if abs(B + sq) >= abs(B - sq):
        q = -0.5 * (B + sq)
    else:
        q = -0.5 * (B - sq)
    if q == 0:
        # B and disc both zero: double root at the origin
        return 0.0 + 0.0j, 0.0 + 0.0j
    return q / A, C / q


def lambda_plus_eval(coin: Coin, z: complex) -> complex:
    """Value of the physical branch at a point.

    Of the two quadratic roots, the branch connected to the z = 0 germ is
    the smaller-modulus one.  For a unitary coin the root moduli multiply to
    |Delta| |a|^2 / |d|^2 = 1, and inside the unit disk the branch maps the
    disk into itself with lam(0) = 0, so |lam(z)| <= |z| (Schwarz lemma) and
    the relative gap between the moduli, 1 - |lam|^2, is at least 1 - |z|^2.
    A tie within 1e-9 therefore needs |z| >= 1 - 5e-10, next to or on the
    unit circle, where no pointwise branch choice exists: it raises
    BranchAmbiguityError.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("z = 0 is excluded (the quadratic degenerates); the limit is 0")
    _check_entries(coin, "d")
    r1, r2 = _quadratic_roots(coin, z)
    m1, m2 = abs(r1), abs(r2)
    if abs(m1 - m2) <= _MODULUS_TIE_TOL * max(m1, m2, 1e-300):
        raise BranchAmbiguityError(
            f"root moduli coincide at z = {z}; no pointwise branch choice exists there"
        )
    return r1 if m1 < m2 else r2


# -- closed forms, shared by both flavors ------------------------------
#
# lam and z are two complex numbers (lam = lam(z) at a point) or two Series
# of one order (the branch series and the monomial z).


def _absorbing(coin: Coin, lam, z):
    """A(z) = (d lam - Delta z) z / c."""
    return (coin.d * lam - coin.det * z) * z / coin.c


def site_factor(coin: Coin, lam):
    """t = d lam / a; site n carries t^n in Bq, Br and t^(n-1) in PsiL, PsiR."""
    return lam * (coin.d / coin.a)


def bounded_denominator(coin: Coin, boundary_coin: Coin, lam, z):
    """h(z) = 1 - c~ A(z)."""
    return 1.0 - boundary_coin.c * _absorbing(coin, lam, z)


def bounded_numerators(coin: Coin, boundary_coin: Coin, lam, z):
    """(h PsiL(0->1), h PsiR(0->1)); site n >= 1 multiplies both by t^(n-1)."""
    ct = boundary_coin.c
    return (lam - coin.a * z) * (ct * coin.d / (coin.a * coin.c)), z * ct


def _site0(coin: Coin, z, psi_L1, psi_R1):
    """PsiL(0->0) = 1 + z (a PsiL(0->1) + b PsiR(0->1)); PsiR(0->0) = 0."""
    return 1.0 + z * (coin.a * psi_L1 + coin.b * psi_R1)


# -- generating functions ----------------------------------------------


def absorbing_gf(coin: Coin, z: complex) -> complex:
    """Return amplitude generating function with an absorbing boundary."""
    _check_entries(coin, "cd")
    return _absorbing(coin, lambda_plus_eval(coin, z), z)


def absorbing_gf_series(coin: Coin, order: int) -> Series:
    _check_entries(coin, "cd")
    return _absorbing(coin, lambda_plus_series(coin, order), Series.monomial(1, order))


def b_gf_closed(coin: Coin, n: int, z: complex) -> tuple[complex, complex]:
    """Closed forms of the up-move and return-move coefficient functions.

    Bq(0->n) = t^n / d and Br(0->n) = t^n (lam - a z)/(a c z).  The n = 0
    instance of Bq is the formal seed 1/d of the site recursion rather than
    a path sum.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    _check_entries(coin, "acd")
    lam = lambda_plus_eval(coin, z)
    tn = site_factor(coin, lam) ** n
    return complex(tn / coin.d), complex(tn * (lam - coin.a * z) / (coin.a * coin.c * z))


def b_gf_closed_series(coin: Coin, n: int, order: int) -> tuple[Series, Series]:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    _check_entries(coin, "acd")
    # one extra order so the division by z loses no stored coefficient
    lam = lambda_plus_series(coin, order + 1)
    zs = Series.monomial(1, order + 1)
    tn = site_factor(coin, lam).truncate(order) ** n
    shifted = (lam - coin.a * zs).shift_down(1).truncate(order)
    return tn / coin.d, tn * shifted / (coin.a * coin.c)


def bounded_gf(
    coin: Coin, boundary_coin: Coin, n: int, z: complex
) -> tuple[complex, complex]:
    """Pointwise (PsiL(0->n; z), PsiR(0->n; z)) for a site n >= 1.

    Raises PoleError when z sits on a zero of the denominator 1 - c~ A(z)
    (this happens on the unit circle at the edge-state pole).
    """
    if n < 1:
        raise ValueError(f"bounded_gf needs n >= 1, got {n} (site 0 has its own form)")
    _check_entries(coin, "acd")
    lam = lambda_plus_eval(coin, z)
    den = bounded_denominator(coin, boundary_coin, lam, z)
    if abs(den) < 1e-12:
        raise PoleError(f"generating function has a pole at z = {z}")
    g_L, g_R = bounded_numerators(coin, boundary_coin, lam, z)
    pref = site_factor(coin, lam) ** (n - 1)
    return complex(pref * g_L / den), complex(pref * g_R / den)


def gf_site0(coin: Coin, boundary_coin: Coin, z: complex) -> complex:
    """PsiL(0->0; z); PsiR at site 0 vanishes."""
    return _site0(coin, z, *bounded_gf(coin, boundary_coin, 1, z))


def bounded_gf_table(
    coin: Coin, boundary_coin: Coin, n_max: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient tables for sites 0..n_max, shape (n_max+1, order).

    Row n, column tau holds psi_L(n, tau) resp. psi_R(n, tau).  Shares the
    branch series and the denominator inversion across sites, so it is the
    cheap way to tabulate many sites at once.  Site 0 follows from row 1.
    Raises ResourceLimitError, before allocating, when n_max or order - 1
    exceeds MAX_TABLE_STEPS.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if max(n_max, order - 1) > MAX_TABLE_STEPS:
        raise ResourceLimitError(
            f"a series table to n = {n_max}, order {order} exceeds the cap of "
            f"{MAX_TABLE_STEPS} steps"
        )
    _check_entries(coin, "acd")
    lam = lambda_plus_series(coin, order)
    zs = Series.monomial(1, order)
    den = bounded_denominator(coin, boundary_coin, lam, zs)
    assert den.coefficient(0) == 1.0 + 0.0j  # A(z) carries no constant term
    inv_den = Series.constant(1.0, order) / den
    num_L, num_R = bounded_numerators(coin, boundary_coin, lam, zs)
    kernel_L, kernel_R = num_L * inv_den, num_R * inv_den
    t = site_factor(coin, lam)
    # t and both kernels are odd: keep their z^(2j+1) coefficients.  pref
    # holds t^(n-1) at z^(n-1+2j), so row n fills columns n, n+2, ... only
    k_L, k_R, t_odd = kernel_L.coeffs[1::2], kernel_R.coeffs[1::2], t.coeffs[1::2]
    rows = max(n_max, 1) + 1
    psi_L = np.zeros((rows, order), dtype=np.complex128)
    psi_R = np.zeros((rows, order), dtype=np.complex128)
    pref = np.ones(1, dtype=np.complex128)
    for n in range(1, min(rows, order)):
        w = (order - 1 - n) // 2 + 1
        psi_L[n, n::2] = np.convolve(pref, k_L[:w])[:w]
        psi_R[n, n::2] = np.convolve(pref, k_R[:w])[:w]
        pref = np.convolve(pref, t_odd[:w])[:w]
    psi_L[0] = _site0(coin, zs, Series(psi_L[1]), Series(psi_R[1])).coeffs
    return psi_L[: n_max + 1], psi_R[: n_max + 1]

"""Truncated power series engine and closed-form generating functions.

The generating function of a site is ``Psi(0->n; z) = sum_tau psi(n,tau) z^tau``.
For a coin with entries a, b, c, d and det Delta = ad - bc, every closed form
is written in one branch variable

    eta(z) = (lam(z) - a z) / (a b c),   so   lam = a z + a (bc) eta,

where lam is the root of d^2 z lam^2 - d (Delta z^2 + 1) lam + Delta |a|^2 z = 0
that vanishes at z = 0.  Unitarity gives d = Delta conj(a), hence
Delta |a|^2 = a d, and eta is the root that vanishes at z = 0 of

    z^3 + ((2ad - Delta) z^2 - 1) eta + a d (bc) z eta^2 = 0.

Its coefficients follow from an exact recurrence, eta_3 = 1 and
eta_k = (2ad - Delta) eta_{k-2} + a d (bc) [eta^2]_{k-1}; only odd orders
are nonzero, and no step divides or takes a square root.  The closed forms
follow without a division either, with h = 1 - c~ A:

    t           = d (z + bc eta)                   (site factor, d lam / a)
    A(z)        = b (z + a d eta) z                (absorbing return)
    Bq(0->n; z) = t^n / d
    Br(0->n; z) = t^n b eta / z
    PsiL(0->n)  = t^{n-1} c~ d b eta / h
    PsiR(0->n)  = t^{n-1} c~ z / h                 for n >= 1,
    PsiL(0->0)  = 1 + z (a PsiL(0->1) + b PsiR(0->1)),  PsiR(0->0) = 0.

The one division left is the formal seed 1/d of Bq.  So the forms stay
exact where a coin entry vanishes: b and c as p -> 1, a and d as p -> 0.
bc is always formed as the product b * c; ad - Delta would cancel to
round-off as p -> 1.  In the gauge beta = 0, which includes the real bulk
coin (beta = gamma = 0) of every CLI run, a, d, Delta and bc are exactly
real, so eta and t carry no imaginary round-off; a variable that absorbed
the phase of b or c would leave it to cancel in t.

eta comes in a pointwise flavor (``eta_eval``, the branch by construction
on the closed unit disk) and a series flavor (``eta_series``, truncated to a
fixed order).  Each closed form is coded once, as a function of eta and z
that are either two complex numbers or two ``Series`` of one order: lam,
A(z), the site factor ``site_factor``, the denominator h in
``bounded_denominator``, the site-1 numerators h PsiL, h PsiR in
``bounded_numerators`` and the site-0 form.  Both flavors call them, and so
do the residues in ``edge.floquet_mode`` and the pole check in ``verify``.

eta, t and both site-1 kernels (numerator / h) are odd series, so
``bounded_gf_table`` works on their odd-coefficient sublattice x = z^2 and
fills only the columns tau >= n with tau = n (mod 2) of row n.  Row n is
t^(n-1) times a kernel, and the table takes all of them by the baby-step /
giant-step split of Paterson and Stockmeyer (SIAM J. Comput. 2 (1973)
60-66): S = isqrt(2 order / 3) baby rows hold the bare powers t^r, r < S,
and each block of S rows one giant row t^(qS) K per kernel K, which one
product with t^S carries to the next block.  That is S + 2 n_max / S
series products where a running power took one per row.  The table alone
works on x = z^2: h is even, so 1/h is one ``Series`` quotient on x, and
each kernel one half-length ``Series`` product of the odd coefficients of
its numerator with that inverse.  Each entry it is asked for is still one
direct sum of products, not an FFT product, which would lose the relative
accuracy of the tiny coefficients near the light cone.

``Series`` is plain truncated arithmetic on all of z, with no parity split:
a product is one product of its operands, each trimmed of its trailing
zeros, so z times a series is a shift, and a quotient one blocked
back-substitution in the manner of van der Hoeven's relaxed scheme
(J. Symbolic Comput. 34 (2002) 479-542), in blocks of isqrt(order)
coefficients.  Every series product, of ``Series`` and of the baby and
giant steps, goes through ``_truncated_product``, the engine's one
``np.convolve`` and so its one BLAS call, where the CPU can move the
printed bits.
"""

from __future__ import annotations

import cmath
import math
import operator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coin import Coin
from .errors import MAX_TABLE_STEPS, ResourceLimitError, SingularityError

__all__ = [
    "Series",
    "eta_series",
    "eta_eval",
    "lambda_plus_series",
    "lambda_plus_eval",
    "site_factor",
    "bounded_denominator",
    "bounded_numerators",
    "absorbing_gf_series",
    "b_gf_closed_series",
    "bounded_gf_table",
]

class Series:
    """Truncated formal power series with complex128 coefficients.

    Coefficient k is the z^k term, and the order is the number of
    coefficients given: a caller truncates or pads before it builds.
    Arithmetic follows truncated Cauchy-product semantics on all of z, with
    no parity split, and never reads beyond the order.  Binary operations
    between different orders re-truncate to the smaller one.  Instances are
    immutable.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=np.complex128)
        if c.ndim != 1:
            raise ValueError(f"coefficients must be one-dimensional, got shape {c.shape}")
        if len(c) < 1:
            raise ValueError("a series needs at least the constant term")
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("series coefficients must be finite")
        c.setflags(write=False)
        self._c = c

    # -- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, k: int, order: int) -> "Series":
        if not 0 <= k < order:
            raise ValueError(f"monomial degree {k} outside order {order}")
        c = np.zeros(order, dtype=np.complex128)
        c[k] = 1.0
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

    def __rsub__(self, other):
        return (-self) + complex(other)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return Series(self._c * complex(other))
        # each operand trimmed of its trailing zeros, so z times a series is
        # a shift, and a product with an all-zero operand is exactly zero
        m = min(self.order, other.order)
        out = np.zeros(m, dtype=np.complex128)
        a, b = _trimmed(self._c[:m]), _trimmed(other._c[:m])
        if a.size and b.size:
            prod = _truncated_product(a, b, m)
            out[: len(prod)] = prod
        return Series(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Series):
            return Series(self._c / complex(other))
        m = min(self.order, other.order)
        b = other._c[:m]
        if abs(b[0]) < 1e-300:
            raise SingularityError(
                "division by a series with (numerically) vanishing constant term"
            )
        return Series(_back_substitute(self._c[:m], b, math.isqrt(m)))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"series powers take nonnegative integers, got {exponent!r}")
        result = Series.monomial(0, self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


def _trimmed(v: np.ndarray) -> np.ndarray:
    """v without its trailing zeros; empty when v is all zero."""
    nonzero = np.flatnonzero(v)
    return v[: nonzero[-1] + 1] if nonzero.size else v[:0]


def _truncated_product(a: np.ndarray, b: np.ndarray, w: int) -> np.ndarray:
    """The first w coefficients of the product of a[:w] and b[:w].

    The one ``np.convolve`` of the series engine, and so its one BLAS call:
    for complex input numpy's correlate calls BLAS ``zdotu``, whose kernel
    OpenBLAS picks per CPU, so the summation order, and with it the last
    bits of the ``series`` output, can move from one CPU to another.
    """
    return np.convolve(a[:w], b[:w])[:w]


def _toeplitz(v: np.ndarray) -> np.ndarray:
    """Read-only view M[i, j] = v[i - j], 0 for j > i, with negative column stride."""
    padded = np.concatenate([np.zeros(len(v), dtype=v.dtype), v])
    return sliding_window_view(padded, len(v))[1:, ::-1]


def _back_substitute(a: np.ndarray, b: np.ndarray, block: int) -> np.ndarray:
    """q with q * b = a to len(a) terms, ``block`` coefficients at a time.

    Needs len(b) >= len(a) and b[0] != 0.  Coefficients k0 <= k < k1 of a
    block take r_k = a_k - sum_{j < k0} q_j b_{k-j} from the solved ones,
    then q_k = sum_{k0 <= j <= k} g_{k-j} r_j with g = 1/b to ``block``
    terms, itself solved one coefficient at a time (g_0 = 1/b_0).  Both
    contractions are matmuls with a reversed (negative-stride) operand,
    which numpy sums in order outside BLAS, so q depends neither on the
    BLAS build nor on its thread count.
    """
    m = len(a)
    width = min(block, m)
    if block > 1:
        unit = np.zeros(width, dtype=np.complex128)
        unit[0] = 1.0
        g = _back_substitute(unit, b[:width], 1)
    else:
        g = np.array([1.0 / b[0]])
    # lower-triangular Toeplitz matrices, rows read backwards: row i of gmat
    # is g_i, g_(i-1), ..., g_0, 0, ... and row k of bmat b_k, ..., b_0, 0, ...
    gmat = _toeplitz(g)
    bmat = _toeplitz(b[:m])
    q = np.zeros(m, dtype=np.complex128)
    for k0 in range(0, m, width):
        k1 = min(m, k0 + width)
        r = a[k0:k1]
        if k0:
            r = r - bmat[k0:k1, :k0] @ q[:k0]
        q[k0:k1] = gmat[: k1 - k0, : k1 - k0] @ r
    return q


# -- branch series ----------------------------------------------------


def _eta_coefficients(coin: Coin) -> tuple[complex, complex]:
    """(2ad - Delta, a d bc) of the eta equation, with bc formed as b * c."""
    ad, bc = coin.a * coin.d, coin.b * coin.c
    return ad + bc, ad * bc


def _lam(coin: Coin, eta, z):
    """lam = a z + a (bc) eta."""
    return coin.a * (z + (coin.b * coin.c) * eta)


def eta_series(coin: Coin, order: int) -> Series:
    """Coefficients of the branch variable eta.

    eta_k depends only on eta_j with j <= k-2, so the recurrence is exact;
    it fills the odd orders only, and the even ones stay exactly zero.  The
    sum of [eta^2]_(k-1) is a matmul with a reversed operand, which numpy
    sums in order outside BLAS; np.dot would copy that operand and call BLAS.
    """
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    s, q = _eta_coefficients(coin)
    eta = np.zeros(max(order, 4), dtype=np.complex128)
    eta[3] = 1.0
    for k in range(5, order, 2):
        eta[k] = s * eta[k - 2] + q * (eta[3 : k - 3 : 2] @ eta[k - 4 : 2 : -2])
    return Series(eta[:order])


def _eta_root(s: complex, z: complex, sqrt_disc: complex) -> complex:
    """eta = 2 z^3 / (1 - s z^2 + sqrt(D)) from a square root of the discriminant:
    the root (1 - s z^2 - sqrt(D)) / (2 q z) rationalized, free of cancellation
    and of a division by q = a d bc, which vanishes at p = 1."""
    return 2.0 * z * z * z / (1.0 - s * z * z + sqrt_disc)


def eta_eval(coin: Coin, z: complex) -> complex:
    """Value of eta on the physical branch at a point of the closed unit disk.

    With (s, q) = (2ad - Delta, a d bc) and x = z^2 the discriminant of the
    eta equation factors as D = (1 - x (s + 2 sqrt q)) (1 - x (s - 2 sqrt q)).
    For a unitary coin |s +/- 2 sqrt q| = 1, so each factor has a positive
    real part for |x| < 1, and the product of their principal square roots
    is the sqrt(D) that is 1 at z = 0: the root is chosen by construction,
    with no comparison.  On the unit circle the factors keep a nonnegative
    real part, where the principal root is continuous, so eta there is the
    limit from inside (the outgoing wave on the band).  eta(0) = 0.  Outside
    the disk the value is still a root of the quadratic.
    """
    z = complex(z)
    s, q = _eta_coefficients(coin)
    x, w = z * z, 2.0 * cmath.sqrt(q)
    return _eta_root(s, z, cmath.sqrt(1.0 - x * (s + w)) * cmath.sqrt(1.0 - x * (s - w)))


def lambda_plus_series(coin: Coin, order: int) -> Series:
    """Coefficients of lam = a z + a (bc) eta."""
    return _lam(coin, eta_series(coin, order), Series.monomial(1, order))


def lambda_plus_eval(coin: Coin, z: complex) -> complex:
    """Value of lam on the physical branch (see ``eta_eval``)."""
    return _lam(coin, eta_eval(coin, z), complex(z))


# -- closed forms, shared by both flavors ------------------------------
#
# eta and z are two complex numbers (eta = eta(z) at a point) or two Series
# of one order (the branch series and the monomial z).


def _absorbing(coin: Coin, eta, z):
    """A(z) = b (z + a d eta) z."""
    return coin.b * (z + (coin.a * coin.d) * eta) * z


def site_factor(coin: Coin, eta, z):
    """t = d (z + bc eta); site n carries t^n in Bq, Br and t^(n-1) in PsiL, PsiR."""
    return coin.d * (z + (coin.b * coin.c) * eta)


def bounded_denominator(coin: Coin, boundary_coin: Coin, eta, z):
    """h(z) = 1 - c~ A(z)."""
    return 1.0 - boundary_coin.c * _absorbing(coin, eta, z)


def bounded_numerators(coin: Coin, boundary_coin: Coin, eta, z):
    """(h PsiL(0->1), h PsiR(0->1)) = (c~ d b eta, c~ z); site n >= 1
    multiplies both by t^(n-1)."""
    ct = boundary_coin.c
    return eta * (ct * coin.d * coin.b), z * ct


def _site0(coin: Coin, z, psi_L1, psi_R1):
    """PsiL(0->0) = 1 + z (a PsiL(0->1) + b PsiR(0->1)); PsiR(0->0) = 0."""
    return 1.0 + z * (coin.a * psi_L1 + coin.b * psi_R1)


# -- generating functions ----------------------------------------------


def absorbing_gf_series(coin: Coin, order: int) -> Series:
    """Return amplitude generating function A(z) with an absorbing boundary."""
    return _absorbing(coin, eta_series(coin, order), Series.monomial(1, order))


def b_gf_closed_series(coin: Coin, n: int, order: int) -> tuple[Series, Series]:
    """Series of the up-move and return-move coefficient functions.

    Bq(0->n) = t^n / d and Br(0->n) = t^n b eta / z.  The n = 0 instance
    of Bq is the formal seed 1/d of the site recursion rather than a path
    sum.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    # one extra order so the division by z loses no stored coefficient;
    # eta_0 = 0, so eta / z is eta with its first coefficient dropped
    eta = eta_series(coin, order + 1)
    t = site_factor(coin, eta, Series.monomial(1, order + 1))
    tn = Series(t.coeffs[:order]) ** n
    return tn / coin.d, tn * (coin.b * Series(eta.coeffs[1:]))


def _checked_columns(columns, order: int) -> list[int]:
    cols = [operator.index(tau) for tau in columns]
    if any(b <= a for a, b in zip(cols, cols[1:])) or (
        cols and not (0 <= cols[0] and cols[-1] < order)
    ):
        raise ValueError(
            f"columns must be sorted, distinct and in [0, {order}), got {list(columns)}"
        )
    return cols


def _baby_steps(order: int) -> int:
    """S = isqrt(2 order / 3), at least 1: the baby rows of ``bounded_gf_table``.

    The table makes S baby products of length order/2 and two giant products
    per block of S rows, about 2 order/S, whose length falls from order/2 to
    0, so that their mean cost is a third of a baby product's.  S^2 = 2
    order/3 balances the two.
    """
    return max(1, math.isqrt(2 * order // 3))


def _baby_rows(t_odd: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(baby, T^S): baby[r] = x^(r//2) T^r for r < S, on order // 2 slots.

    Row r keeps T^r only up to the last slot it reaches after its shift, and
    T^S up to the length of the first giant step.
    """
    width, step = order // 2, _baby_steps(order)
    baby = np.zeros((step, width), dtype=np.complex128)
    power = np.ones(1, dtype=np.complex128)  # T^r, and T^S after the loop
    for r in range(step):
        row = power[: width - r // 2]
        baby[r, r // 2 : r // 2 + len(row)] = row
        w = width - (r + 1) // 2
        power = _truncated_product(power, t_odd, w)
    return baby, power


def _giant_rows(kernels: np.ndarray, power: np.ndarray, order: int, rows: int):
    """Yield (n0, giant) for the blocks of S rows n0 = 1 + qS < min(rows, order).

    giant[side] is T^(qS) K_side; one product per kernel and block updates
    it in place, up to the last slot the block reads, (order - 1 - n0) // 2.
    """
    giant = kernels.copy()
    step = _baby_steps(order)
    for n0 in range(1, min(rows, order), step):
        if n0 > 1:
            w = (order + 1 - n0) // 2
            for g in giant:
                g[:w] = _truncated_product(g, power, w)
        yield n0, giant


def _odd_kernels(coin: Coin, boundary_coin: Coin, eta: Series, zs: Series) -> tuple[np.ndarray, np.ndarray]:
    """(1/H, kernels): the site-1 kernels on the sublattice x = z^2.

    h(z) = H(x) is even and both numerators are odd, so 1/H is one ``Series``
    quotient on x, to (order + 1) // 2 terms, and kernel K_side, with
    numerator_side / h = z K_side(x), one ``Series`` product of the odd
    coefficients of the numerator with 1/H, to order // 2 terms.
    """
    den = bounded_denominator(coin, boundary_coin, eta, zs)
    assert den.coefficient(0) == 1.0 + 0.0j  # A(z) carries no constant term
    inv_h = Series.monomial(0, (den.order + 1) // 2) / Series(den.coeffs[::2])
    nums = bounded_numerators(coin, boundary_coin, eta, zs)
    return inv_h.coeffs, np.stack([(Series(num.coeffs[1::2]) * inv_h).coeffs for num in nums])


def bounded_gf_table(
    coin: Coin, boundary_coin: Coin, n_max: int, order: int, columns=None
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient tables for sites 0..n_max, shape (n_max+1, len(columns)).

    Row n, column i holds psi_L(n, tau) resp. psi_R(n, tau) at tau =
    columns[i]; ``columns``, a sorted list of distinct tau in [0, order),
    defaults to all of range(order).  Shares the branch series and the
    denominator inversion across sites, so it is the cheap way to tabulate
    many sites at once.  It works on the odd-coefficient sublattice x = z^2
    of t and of the kernels, which ``_odd_kernels`` forms there.  Site 0
    follows from row 1.  The powers of t cost
    O(order^2.5), S = isqrt(2 order / 3) baby products and two giant ones
    per block of S rows, and each asked entry one dot of length at most
    order/2; the extra memory is the S baby rows of order/2 coefficients,
    O(order^1.5), besides the O(n_max * len(columns)) result.  An entry
    depends only on the coins, order, n and tau: not on n_max or on which
    other columns are asked for.
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
    columns = _checked_columns(range(order) if columns is None else columns, order)
    eta = eta_series(coin, order)
    zs = Series.monomial(1, order)
    _, kernels = _odd_kernels(coin, boundary_coin, eta, zs)
    t = site_factor(coin, eta, zs)
    # t and both kernels are odd: on x = z^2 they are z T(x) and z K(x),
    # and row n >= 1 is z^n T^(n-1) K, so its entry at tau = n + 2c is
    # [T^(n-1) K]_c.  Split n - 1 = q S + r: baby[r] holds x^(r//2) T^r and
    # giant[side] the power times the kernel, T^(qS) K, so the rows r = par,
    # par + 2, ... of block q all read column tau at one index c0 of the
    # giant row, and each of their entries is one direct sum of products.
    # S comes from the order alone, so an entry depends only on (coins,
    # order, n, tau)
    baby, power = _baby_rows(t.coeffs[1::2], order)
    step = len(baby)
    rows = max(n_max, 1) + 1
    psi = np.zeros((2, rows, len(columns)), dtype=np.complex128)
    for n0, giant in _giant_rows(kernels, power, order, rows):
        end = min(rows, n0 + step)
        for i, tau in enumerate(columns):
            if tau >= n0:
                c0, par = divmod(tau - n0, 2)
                # rows past the light cone tau >= n dot only the zeros of
                # their shift; += stores an exact zero as +0.  numpy's matmul
                # sums each row in order, outside BLAS, for a negative-stride
                # vector, so a row's bits depend neither on the other rows
                # nor on the BLAS thread count.  (A matrix of two reversed
                # giant columns would go to BLAS for more than one row.)
                blk = baby[par : end - n0 : 2, : c0 + 1]
                psi[:, n0 + par : end : 2, i] += (blk @ giant[:, c0::-1, None])[..., 0]
    psi_L, psi_R = psi
    # row 1 in full, since site 0 needs it
    row1 = np.zeros((2, order), dtype=np.complex128)
    row1[:, 1::2] = kernels
    psi_L[1], psi_R[1] = row1[:, columns]
    psi_L[0] = _site0(coin, zs, *map(Series, row1)).coeffs[columns]
    return psi_L[: n_max + 1], psi_R[: n_max + 1]

"""Deterministic time evolution of the bounded walk over its light cone.

One step maps the amplitudes at time tau to tau + 1 through

    Psi(n, tau+1) = P Psi(n+1, tau) + Q Psi(n-1, tau)     for n >= 2,
    Psi(1, tau+1) = P Psi(2, tau)   + Q~ Psi(0, tau),
    Psi(0, tau+1) = P Psi(1, tau),

with P, Q the single-row pieces of the bulk coin and Q~ that of the boundary
coin.  Time is counted in half Landau-Zener periods, so support stays inside
the light cone n <= tau with n = tau (mod 2).  A ``WalkState`` stores both
components densely over [0, tau]; the bound is exact, so there is no
truncation error by construction.

The rule is coded once: the bulk rows in ``_advance``, six numpy calls on
operands cut to size by the caller, and the boundary row in ``_reflect``.
``step`` applies them to a dense state.  A whole walk from the initial
state runs in one stepping loop, the generator ``_walk``, which yields the
live compact entries only at the times its consumer asks for.  Two
consumers read it: ``trajectory`` asks for its snapshot times and yields
dense ``(tau, psi_L, psi_R)`` snapshots in fresh arrays, and ``norms`` asks
for every step and sums the compact entries without building a snapshot.
The loop's working layout differs from the dense one in four ways:

* Compact parity sublattice.  Sites of the wrong parity are exactly zero, so
  only n = tau (mod 2) is stored, at compact index k = (n - tau mod 2) / 2.
  Two preallocated buffer pairs, one per parity, alternate as source and
  destination, and every product and sum is written in place.  One pass of
  the loop makes the step from even tau and the one from odd tau, so no
  parity test or buffer swap is made per step.
* Fixed cost per step.  Every numpy call pays a dispatch of about half a
  microsecond besides its arithmetic, which is most of a step while the
  light cone is short.  The loop converts the four bulk coefficients once
  per walk into 0-d complex arrays, which numpy dispatches faster than a
  Python complex or a numpy scalar (0.44 against 0.65 and 0.62 us per
  product of ten entries on a 2-core VM), slices each operand of a step
  once, and resumes its consumer only at the requested times.  Each call
  is the same product or sum, on the same operands in the same order, as
  the rule with Python complex coefficients, so no bit moves.
* Trimming of the subnormal tail.  A live length ``hi`` covers the compact
  entries that are kept; it shrinks while both components of the trailing
  entry have modulus below the smallest normal double, 2^-1022.  Near the
  critical point the light-cone tail decays slowly and would hold thousands
  of subnormal amplitudes, whose arithmetic is slow.  Only the end of the
  range is trimmed, so interior subnormals stay.  The modulus is a scalar
  hypot; where its rounding could tip the choice, the entry lies within an
  ulp of 2^-1022, and the argument below holds for either choice.  Each
  dropped amplitude is below 2^-1022 and the coins are unitary, so in exact
  arithmetic no amplitude moves by more than about tau * 2^-1022.  Rounding
  flips carry the difference upward by only about 0.01 decades per step: at
  theta = pi/4 it grew from about 1e-307 to the 1e-16 rounding level of the
  largest amplitudes in 28 000-30 000 steps.  A printed probability needs an
  amplitude above about 2^-537, so the printed bytes are those of the
  untrimmed walk up to about 20 000 steps (24 000 measured at theta = pi/4).
  Beyond, a printed probability can move in its last digits, within the
  walk's own rounding error.
* Coefficient-first operands.  Every product is ``coefficient * amplitude``
  and every sum adds the L-source term to the R-source term.  With fused
  multiply-add in numpy's complex loops, ``x * b`` and ``b * x`` can differ
  in the last bit, so this order is part of the result: both layouts give
  bit-identical amplitudes above the trimmed tail.

Every |psi|^2 of the package is ``probability``, and ``norm``, ``norms``,
the CLI's snapshot check, ``verify``'s Parseval check and the edge weight
share one sum, ``total_probability``: ``np.add.reduce`` per component, in
numpy alone.  A BLAS ``np.dot`` is faster, but the BLAS build and the CPU
pick its summation order, so the printed norm residuals would no longer be
fixed by this code.  The compact sum groups its terms differently from the
dense one, which also holds the parity zeros: the last bits can differ.

Two constants bound the work.  ``MAX_EVOLVE_STEPS`` (defined in ``errors``)
caps every walk; larger requests raise ResourceLimitError before anything
is allocated.  The kernel does about steps^2 / 4 site updates.  On a 2-core
VM, a walk at theta = pi/4 took (best of three):

    steps     p = 0.2   p = 0.49   p = 0.8
    8 000     0.07 s    0.08 s     0.08 s
    16 000    0.19 s    0.24 s     0.28 s
    32 000    0.61 s    0.79 s     0.96 s

which extrapolates, as steps^2, to at most about 9 s at 100 000 steps.
The walk is unitary, so no step renormalizes and no function here checks
the norm: the CLI checks each printed snapshot's sum against 1e-10, and
``verify``'s norm-drift check bounds the drift of whole walks.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Container, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .coin import Coin
from .errors import MAX_EVOLVE_STEPS, ResourceLimitError

__all__ = [
    "WalkState",
    "initial_state",
    "step",
    "trajectory",
    "evolve",
    "norm",
    "norms",
    "probability",
    "total_probability",
]


@dataclass(frozen=True)
class WalkState:
    """Wavefunction at integer time tau: the value of the dense single-step
    API (``initial_state``, ``step``, ``evolve``, ``norm``).

    psi_L[n] and psi_R[n] hold the two amplitude components for sites
    n = 0 .. tau.  The state holds read-only copies of the arrays it is
    given: states are immutable values, and the caller's arrays stay its
    own.
    """

    tau: int
    psi_L: np.ndarray
    psi_R: np.ndarray

    def __post_init__(self) -> None:
        if self.tau < 0:
            raise ValueError(f"tau must be nonnegative, got {self.tau}")
        shape = (self.tau + 1,)
        for name, value in (("psi_L", self.psi_L), ("psi_R", self.psi_R)):
            arr = np.array(value, dtype=np.complex128)
            if arr.shape != shape:
                raise ValueError(
                    f"{name} must have length tau+1 = {self.tau + 1}, got shape {arr.shape}"
                )
            # count_nonzero skips the reduction machinery of .all(), which
            # dominates at the few hundred sites of a typical snapshot
            if np.count_nonzero(np.isfinite(arr)) != arr.size:
                raise ValueError(f"{name} contains non-finite amplitudes")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def initial_state() -> WalkState:
    """Walker fully on the boundary site with left-moving character."""
    return WalkState(0, np.array([1.0 + 0.0j]), np.array([0.0 + 0.0j]))


def _advance(
    a: complex,
    b: complex,
    c: complex,
    d: complex,
    src_L: np.ndarray,
    src_R: np.ndarray,
    down_L: np.ndarray,
    up_R: np.ndarray,
    tmp: np.ndarray,
) -> None:
    """The bulk update rule, written in place into ``down_L`` and ``up_R``.

    P moves amplitude down one site and leaves an L component:
    down_L = a src_L + b src_R.  Q moves it up one site and leaves an R
    component: up_R = c src_L + d src_R.  The caller passes the exact bulk
    views, all of one length, with ``tmp`` as scratch space.  a, b, c, d are
    the bulk coin's entries in the form the caller multiplies with: 0-d
    arrays in ``_walk``, the coin's own numbers in ``step``; the bits are the
    same.
    """
    np.multiply(a, src_L, tmp)
    np.multiply(b, src_R, down_L)
    np.add(tmp, down_L, down_L)
    np.multiply(c, src_L, tmp)
    np.multiply(d, src_R, up_R)
    np.add(tmp, up_R, up_R)


def _reflect(boundary_coin: Coin, src_L: np.ndarray, src_R: np.ndarray) -> complex:
    """The boundary row: the R amplitude that site 0 sends to site 1,
    c~ src_L[0] + d~ src_R[0]."""
    return boundary_coin.c * src_L[0] + boundary_coin.d * src_R[0]


def step(state: WalkState, coin: Coin, boundary_coin: Coin) -> WalkState:
    """Advance one time step; pure function, out-of-place update.

    Works on any valid state, including one with both parities populated.
    Results are bit-identical to those of ``trajectory`` until it trims a
    subnormal tail; after that, up to about 20 000 steps, they differ only
    in amplitudes too small to print (see the module docstring).
    """
    tau, psi_L, psi_R = state.tau, state.psi_L, state.psi_R
    new_L = np.zeros(tau + 2, dtype=np.complex128)
    new_R = np.zeros(tau + 2, dtype=np.complex128)
    new_R[1] = _reflect(boundary_coin, psi_L, psi_R)
    _advance(
        coin.a, coin.b, coin.c, coin.d,
        psi_L[1:], psi_R[1:], new_L[:tau], new_R[2:], np.empty(tau, dtype=np.complex128),
    )
    return WalkState(tau + 1, new_L, new_R)


def _snapshot(
    tau: int, live_L: np.ndarray, live_R: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray]:
    """Dense (tau, psi_L, psi_R) on [0, tau] from the live compact entries,
    in fresh arrays that share no memory with the stepping loop."""
    psi_L = np.zeros(tau + 1, dtype=np.complex128)
    psi_R = np.zeros(tau + 1, dtype=np.complex128)
    live = slice(tau % 2, tau % 2 + 2 * len(live_L), 2)
    psi_L[live] = live_L
    psi_R[live] = live_R
    return tau, psi_L, psi_R


def _check_steps(steps: int) -> None:
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if steps > MAX_EVOLVE_STEPS:
        raise ResourceLimitError(
            f"steps = {steps} exceeds the cap of {MAX_EVOLVE_STEPS}"
        )


_TINY = sys.float_info.min  # 2^-1022, the smallest normal double


def _trimmed(live_L: np.ndarray, live_R: np.ndarray, hi: int) -> int:
    """The live length once trailing entries with both components below
    2^-1022 in modulus are dropped, keeping at least one entry.  The front
    entry's R component is normal on almost every step, so it is tested
    first and the test stops there."""
    while hi > 1 and abs(live_R[hi - 1]) < _TINY and abs(live_L[hi - 1]) < _TINY:
        hi -= 1
    return hi


def _walk(
    coin: Coin, boundary_coin: Coin, steps: int, times: Container[int]
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The stepping loop: (tau, live_L, live_R) for tau = 0 .. steps, at the
    times in ``times`` only.

    ``times`` needs only ``in``: ``trajectory`` passes its set of snapshot
    times, ``norms`` the range of every step.  live_L and live_R view the
    live compact entries [0, hi) of the state at time tau.  The next step
    overwrites them, so a consumer must use them before it resumes the
    generator and must not keep them.  The walk stops at ``steps`` whatever
    later times ``times`` holds.
    """
    size = steps // 2 + 1
    even_L = np.zeros(size, dtype=np.complex128)
    even_R = np.zeros(size, dtype=np.complex128)
    odd_L = np.zeros(size, dtype=np.complex128)
    odd_R = np.zeros(size, dtype=np.complex128)
    tmp = np.empty(size, dtype=np.complex128)
    a, b, c, d = (np.array(x, dtype=np.complex128) for x in (coin.a, coin.b, coin.c, coin.d))
    even_L[0] = 1.0
    hi = 1
    if 0 in times:
        yield 0, even_L[:hi], even_R[:hi]
    # each pass makes the step from even tau - 1 and the one from odd tau
    for tau in range(1, steps + 1, 2):
        # even sites n = 2k feed odd sites 2k -/+ 1 at compact k - 1 / k;
        # site 0 reflects into site 1 (compact 0)
        odd_R[0] = _reflect(boundary_coin, even_L, even_R)
        _advance(
            a, b, c, d,
            even_L[1:hi], even_R[1:hi], odd_L[: hi - 1], odd_R[1:hi], tmp[: hi - 1],
        )
        odd_L[hi - 1] = 0.0
        hi = _trimmed(odd_L, odd_R, hi)
        if tau in times:
            yield tau, odd_L[:hi], odd_R[:hi]
        if tau == steps:
            return
        # odd sites n = 2k + 1 feed even sites 2k / 2k + 2 at compact k / k + 1;
        # no step writes even_R[0], the R component of site 0, so it stays 0
        _advance(
            a, b, c, d,
            odd_L[:hi], odd_R[:hi], even_L[:hi], even_R[1 : hi + 1], tmp[:hi],
        )
        even_L[hi] = 0.0
        hi = _trimmed(even_L, even_R, hi + 1)
        if tau + 1 in times:
            yield tau + 1, even_L[:hi], even_R[:hi]


def trajectory(
    coin: Coin, boundary_coin: Coin, times: Iterable[int]
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(tau, psi_L, psi_R) at ``times`` of one walk from the initial state.

    One snapshot per distinct time, in increasing order, as fresh dense
    arrays on [0, tau] that the caller owns.  The walk runs in the compact
    in-place layout of the module docstring, hands over its live entries
    only at ``times``, and stops at the last time.  On
    the first ``next()``, before the walk starts, a time that is not an
    integer raises TypeError, a negative one ValueError, and one beyond
    ``MAX_EVOLVE_STEPS`` ResourceLimitError.
    """
    wanted = {operator.index(t) for t in times}
    if not wanted:
        return
    if min(wanted) < 0:
        raise ValueError(f"snapshot times must be nonnegative, got {min(wanted)}")
    _check_steps(max(wanted))
    for tau, live_L, live_R in _walk(coin, boundary_coin, max(wanted), wanted):
        yield _snapshot(tau, live_L, live_R)


def probability(psi: np.ndarray) -> np.ndarray:
    """|psi|^2 element by element as re^2 + im^2: two squares and a sum,
    each correctly rounded, so no CPU-specific loop and no stride can move a
    bit (``np.abs``, a hypot, depends on the CPU)."""
    return psi.real ** 2 + psi.imag ** 2


def total_probability(psi_L: np.ndarray, psi_R: np.ndarray) -> float:
    """|psi_L|^2 + |psi_R|^2 summed over two 1-D amplitude arrays, each
    component reduced on its own."""
    return float(np.add.reduce(probability(psi_L)) + np.add.reduce(probability(psi_R)))


def norm(state: WalkState) -> float:
    """Total probability carried by the state."""
    return total_probability(state.psi_L, state.psi_R)


def norms(coin: Coin, boundary_coin: Coin, steps: int) -> list[float]:
    """Total probability at tau = 1 .. steps of one walk from the initial state.

    Each entry sums the live compact entries of one step, so no state is
    built.  A dense state's parity zeros change numpy's pairwise grouping,
    so an entry can differ from ``norm`` of the same snapshot in its last
    bits.  Raises ResourceLimitError beyond ``MAX_EVOLVE_STEPS``.
    """
    _check_steps(steps)
    return [
        total_probability(live_L, live_R)
        for _, live_L, live_R in _walk(coin, boundary_coin, steps, range(1, steps + 1))
    ]


def evolve(coin: Coin, boundary_coin: Coin, steps: int) -> WalkState:
    """Apply ``steps`` walk steps to the initial state.

    Raises ResourceLimitError beyond ``MAX_EVOLVE_STEPS``.  The state is
    never renormalized; ``WalkState`` rejects a non-finite amplitude.
    """
    (snapshot,) = trajectory(coin, boundary_coin, (steps,))
    return WalkState(*snapshot)

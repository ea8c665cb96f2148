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

The rule is coded once, in ``_advance``.  ``step`` applies it to a dense
state; ``trajectory`` (and ``evolve`` on top of it) runs a whole walk from
the initial state and returns ``WalkState`` snapshots only at the requested
times.  Its working layout differs from the dense one in three ways:

* Compact parity sublattice.  Sites of the wrong parity are exactly zero, so
  only n = tau (mod 2) is stored, at compact index k = (n - tau mod 2) / 2.
  Two preallocated buffer pairs alternate as source and destination, and
  every product and sum is written in place.
* Exact-zero trimming.  A live length ``hi`` covers the compact entries
  that can be nonzero; it shrinks only while the trailing entry is exactly 0
  in both components.  Exact zeros step to exact zeros, so the trimmed sites
  are the ones the dense rule would have left at 0 (for small p the edge of
  the light cone underflows after roughly a thousand steps).  Subnormal
  amplitudes are kept: flushing them to zero would change printed digits.
* Coefficient-first operands.  Every product is ``coefficient * amplitude``
  and every sum adds the L-source term to the R-source term.  With fused
  multiply-add in numpy's complex loops, ``x * b`` and ``b * x`` can differ
  in the last bit, so this order is part of the result: both layouts give
  bit-identical amplitudes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .coin import Coin
from .errors import ResourceLimitError

__all__ = [
    "MAX_EVOLVE_STEPS",
    "WalkState",
    "initial_state",
    "step",
    "trajectory",
    "evolve",
    "norm",
    "distribution",
]

MAX_EVOLVE_STEPS = 1_000_000


@dataclass(frozen=True)
class WalkState:
    """Wavefunction snapshot at integer time tau.

    psi_L[n] and psi_R[n] hold the two amplitude components for sites
    n = 0 .. tau.  Arrays are marked read-only: states are immutable values.
    """

    tau: int
    psi_L: np.ndarray
    psi_R: np.ndarray

    def __post_init__(self) -> None:
        if self.tau < 0:
            raise ValueError(f"tau must be nonnegative, got {self.tau}")
        for name in ("psi_L", "psi_R"):
            arr = np.asarray(getattr(self, name), dtype=np.complex128)
            if arr.shape != (self.tau + 1,):
                raise ValueError(
                    f"{name} must have length tau+1 = {self.tau + 1}, got shape {arr.shape}"
                )
            if not np.all(np.isfinite(arr.view(np.float64))):
                raise ValueError(f"{name} contains non-finite amplitudes")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def initial_state() -> WalkState:
    """Walker fully on the boundary site with left-moving character."""
    return WalkState(0, np.array([1.0 + 0.0j]), np.array([0.0 + 0.0j]))


def _advance(
    coin: Coin,
    boundary_coin: Coin,
    src_L: np.ndarray,
    src_R: np.ndarray,
    down_L: np.ndarray,
    up_R: np.ndarray,
    tmp: np.ndarray,
    boundary: bool,
) -> None:
    """The update rule, written in place into ``down_L`` and ``up_R``.

    P moves amplitude down one site and leaves an L component:
    down_L = a src_L + b src_R.  Q moves it up one site and leaves an R
    component: up_R = c src_L + d src_R.  With ``boundary``, entry 0 of the
    sources is site 0: it departs through the boundary row instead,
    up_R[0] = c~ src_L[0] + d~ src_R[0], and the bulk acts on the sources
    from entry 1 on, aligned with down_L and up_R[1:].  ``tmp`` is scratch
    space at least as long as the bulk sources.
    """
    if boundary:
        up_R[0] = boundary_coin.c * src_L[0] + boundary_coin.d * src_R[0]
        src_L, src_R, up_R = src_L[1:], src_R[1:], up_R[1:]
    tmp = tmp[: len(src_L)]
    np.multiply(coin.a, src_L, out=tmp)
    np.multiply(coin.b, src_R, out=down_L)
    np.add(tmp, down_L, out=down_L)
    np.multiply(coin.c, src_L, out=tmp)
    np.multiply(coin.d, src_R, out=up_R)
    np.add(tmp, up_R, out=up_R)


def step(state: WalkState, coin: Coin, boundary_coin: Coin) -> WalkState:
    """Advance one time step; pure function, out-of-place update.

    Works on any valid state, including one with both parities populated.
    Results are bit-identical to those of ``trajectory``.
    """
    tau = state.tau
    new_L = np.zeros(tau + 2, dtype=np.complex128)
    new_R = np.zeros(tau + 2, dtype=np.complex128)
    tmp = np.empty(tau, dtype=np.complex128)
    _advance(
        coin, boundary_coin, state.psi_L, state.psi_R, new_L[:tau], new_R[1:], tmp, True
    )
    return WalkState(tau + 1, new_L, new_R)


def _snapshot(tau: int, comp_L: np.ndarray, comp_R: np.ndarray, hi: int) -> WalkState:
    """Dense state at time tau from the live compact entries [0, hi)."""
    psi_L = np.zeros(tau + 1, dtype=np.complex128)
    psi_R = np.zeros(tau + 1, dtype=np.complex128)
    psi_L[tau % 2 :: 2][:hi] = comp_L[:hi]
    psi_R[tau % 2 :: 2][:hi] = comp_R[:hi]
    return WalkState(tau, psi_L, psi_R)


def trajectory(
    coin: Coin,
    boundary_coin: Coin,
    steps: int,
    times: Iterable[int],
    observe: Callable[[WalkState], object] | None = None,
    max_steps: int = MAX_EVOLVE_STEPS,
) -> list:
    """States at ``times`` of one walk of ``steps`` steps from the initial state.

    ``times`` may hold any integers in [0, steps]; the states come back in
    increasing time order, one per distinct time.  Only these snapshots are
    built; the walk itself runs in the compact in-place layout described in
    the module docstring.  With ``observe``, each snapshot is handed to it as
    soon as it is built and the list holds the results instead, so a caller
    that needs only a norm or a few sites per snapshot keeps no state alive.
    Raises ResourceLimitError beyond ``max_steps``.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if steps > max_steps:
        raise ResourceLimitError(
            f"steps = {steps} exceeds the configured cap of {max_steps}"
        )
    wanted = sorted({int(t) for t in times})
    if not wanted:
        return []
    if wanted[0] < 0 or wanted[-1] > steps:
        raise ValueError(f"snapshot times must lie in [0, {steps}], got {wanted}")
    size = steps // 2 + 1
    cur_L = np.zeros(size, dtype=np.complex128)
    cur_R = np.zeros(size, dtype=np.complex128)
    nxt_L = np.zeros(size, dtype=np.complex128)
    nxt_R = np.zeros(size, dtype=np.complex128)
    tmp = np.empty(size, dtype=np.complex128)
    cur_L[0] = 1.0
    hi = 1
    out = []
    pending = iter(wanted)
    due = next(pending, None)
    for tau in range(steps + 1):
        if tau == due:
            state = _snapshot(tau, cur_L, cur_R, hi)
            out.append(state if observe is None else observe(state))
            due = next(pending, None)
            if due is None:
                break
        if tau % 2 == 0:
            # even sites n = 2k feed odd sites 2k -/+ 1 at compact k - 1 / k;
            # site 0 reflects into site 1 (compact 0)
            _advance(
                coin, boundary_coin, cur_L[:hi], cur_R[:hi], nxt_L[: hi - 1], nxt_R[:hi], tmp, True
            )
            nxt_L[hi - 1] = 0.0
        else:
            # odd sites n = 2k + 1 feed even sites 2k / 2k + 2 at compact k / k + 1
            _advance(
                coin, boundary_coin, cur_L[:hi], cur_R[:hi], nxt_L[:hi], nxt_R[1 : hi + 1], tmp, False
            )
            nxt_L[hi] = 0.0
            nxt_R[0] = 0.0
            hi += 1
        cur_L, nxt_L = nxt_L, cur_L
        cur_R, nxt_R = nxt_R, cur_R
        while hi > 1 and cur_L[hi - 1] == 0.0 and cur_R[hi - 1] == 0.0:
            hi -= 1
    return out


def norm(state: WalkState) -> float:
    """Total probability carried by the state."""
    return float(
        np.sum(np.abs(state.psi_L) ** 2) + np.sum(np.abs(state.psi_R) ** 2)
    )


def evolve(
    coin: Coin,
    boundary_coin: Coin,
    steps: int,
    max_steps: int = MAX_EVOLVE_STEPS,
    norm_tol_per_step: float = 1e-12,
) -> WalkState:
    """Apply ``steps`` walk steps to the initial state.

    Raises ResourceLimitError beyond ``max_steps`` (memory grows linearly
    with tau).  The final norm is checked, never silently renormalized:
    drift beyond steps * norm_tol_per_step raises ArithmeticError.
    """
    (state,) = trajectory(coin, boundary_coin, steps, (steps,), max_steps=max_steps)
    drift = abs(norm(state) - 1.0)
    if drift > max(1, steps) * norm_tol_per_step:
        raise ArithmeticError(
            f"norm drifted by {drift:.3e} after {steps} steps; "
            "the coins are not unitary to working precision"
        )
    return state


def distribution(state: WalkState) -> list[tuple[int, float, float]]:
    """Per-site probabilities (n, |psi_L|^2, |psi_R|^2) on the light cone.

    Only sites with n = tau (mod 2) are listed; all others carry exactly
    zero amplitude.
    """
    start = state.tau % 2
    out = []
    for n in range(start, state.tau + 1, 2):
        out.append(
            (n, float(abs(state.psi_L[n]) ** 2), float(abs(state.psi_R[n]) ** 2))
        )
    return out

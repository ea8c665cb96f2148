"""Brute-force lattice-path oracle for the bounded walk.

Transition amplitudes are sums over every path from site 0 of the
transfer-matrix pieces multiplied in path order.  One depth-first walk of
the path tree yields them for all endpoints at once.  Cost is exponential
in the step count, so a hard cap applies; within the cap the result is
exact and serves as the reference the fast engines are checked against.

Move labels: "P" steps down, "Q" steps up in the bulk, "Q~" steps up off the
boundary site.  A word is stored in time order (first move first); its
matrix product form puts the latest move leftmost, e.g. the time-ordered
word (Q~, Q, P, Q) is the product QPQQ~.
"""

from __future__ import annotations

import numpy as np

from .coin import Coin
from .errors import TAU_CAP, ResourceLimitError

__all__ = [
    "TAU_CAP",
    "DOWN",
    "UP",
    "UP_BOUNDARY",
    "enumerate_paths",
    "transition_table",
    "transition_amplitude",
    "pqrs_coefficients",
    "pqrs_row",
    "pqrs_coefficient_series",
    "pqrs_residual",
]

DOWN = "P"
UP = "Q"
UP_BOUNDARY = "Q~"

_BOUNDARIES = ("reflecting", "absorbing")


def _validate(n: int, tau: int, boundary: str) -> None:
    if boundary not in _BOUNDARIES:
        raise ValueError(f"boundary must be one of {_BOUNDARIES}, got {boundary!r}")
    if tau < 0 or n < 0 or n > tau:
        raise ValueError(f"need 0 <= n <= tau, got n={n}, tau={tau}")
    if tau > TAU_CAP:
        raise ResourceLimitError(
            f"tau = {tau} exceeds the enumeration cap of {TAU_CAP} "
            "(path count grows exponentially)"
        )


def enumerate_paths(n: int, tau: int, boundary: str = "reflecting") -> list[tuple[str, ...]]:
    """All paths 0 -> n in tau steps staying on sites >= 0.

    With an absorbing boundary the walker stops on reaching site 0, so site 0
    may occur only at the start and, for n = 0, at the final step.  Paths are
    returned in lexicographic order of their time-ordered move sequences
    ("P" < "Q" < "Q~").
    """
    _validate(n, tau, boundary)
    if (n - tau) % 2 != 0:
        return []
    absorbing = boundary == "absorbing"
    out: list[tuple[str, ...]] = []
    path: list[str] = []

    def extend(pos: int, remaining: int) -> None:
        if remaining == 0:
            if pos == n:
                out.append(tuple(path))
            return
        if abs(pos - n) > remaining:
            return
        if pos == 0:
            moves = ((UP_BOUNDARY, 1),)
        else:
            moves = ((DOWN, -1), (UP, 1))
        for label, delta in moves:
            nxt = pos + delta
            if absorbing and nxt == 0 and remaining > 1:
                continue
            path.append(label)
            extend(nxt, remaining - 1)
            path.pop()

    extend(0, tau)
    return out


def transition_table(
    tau_max: int,
    coin: Coin,
    boundary_coin: Coin,
    boundary: str = "reflecting",
) -> np.ndarray:
    """Xi(0 -> n; tau) for every 0 <= n <= tau <= tau_max, as the 2x2 block
    ``table[tau, n]`` of a complex array of shape (tau_max+1, tau_max+1, 2, 2).

    One depth-first walk of the path tree to depth tau_max carries the
    running product of each path prefix (later moves on the left) and adds
    it into the slot of the node it reaches.  With a reflecting wall every
    prefix of a path is itself a path; with an absorbing wall a branch ends
    on its return to site 0.  Preorder meets the paths to each endpoint in
    the lexicographic order of ``enumerate_paths`` and multiplies in time
    order, so each block is that sum over single paths, bit for bit.
    Blocks with n > tau or of the wrong parity are zero.
    """
    _validate(0, tau_max, boundary)
    zero = 0.0 + 0.0j
    a, b, c, d = coin.a, coin.b, coin.c, coin.d
    ct, dt = boundary_coin.c, boundary_coin.d
    absorbing = boundary == "absorbing"
    sums = [[(zero,) * 4] * (tau_max + 1) for _ in range(tau_max + 1)]

    def visit(pos: int, tau: int, p0: complex, p1: complex, p2: complex, p3: complex) -> None:
        # (p0, p1, p2, p3) is the prefix product [[p0, p1], [p2, p3]]
        row = sums[tau]
        s0, s1, s2, s3 = row[pos]
        row[pos] = (s0 + p0, s1 + p1, s2 + p2, s3 + p3)
        if tau == tau_max or (absorbing and pos == 0 and tau > 0):
            return
        # move @ prefix for the single-row moves P = [[a, b], [0, 0]],
        # Q = [[0, 0], [c, d]] and Q~; the zero row is multiplied out, not
        # assumed, so signed zeros match a plain 2x2 product
        z0 = zero * p0 + zero * p2
        z1 = zero * p1 + zero * p3
        if pos == 0:
            visit(1, tau + 1, z0, z1, ct * p0 + dt * p2, ct * p1 + dt * p3)
        else:
            visit(pos - 1, tau + 1, a * p0 + b * p2, a * p1 + b * p3, z0, z1)
            visit(pos + 1, tau + 1, z0, z1, c * p0 + d * p2, c * p1 + d * p3)

    visit(0, 0, 1.0 + 0.0j, zero, zero, 1.0 + 0.0j)
    return np.array(sums, dtype=np.complex128).reshape(tau_max + 1, tau_max + 1, 2, 2)


def transition_amplitude(
    n: int,
    tau: int,
    coin: Coin,
    boundary_coin: Coin,
    boundary: str = "reflecting",
) -> np.ndarray:
    """Sum of time-ordered matrix products over all paths 0 -> n in tau steps.

    Later moves multiply on the left; applied to t(1, 0) the reflecting
    result reproduces the walk amplitudes at (n, tau).  This is the 2x2
    block ``[tau, n]`` of ``transition_table``.
    """
    _validate(n, tau, boundary)
    return transition_table(tau, coin, boundary_coin, boundary)[tau, n]


def pqrs_coefficients(xi: np.ndarray, boundary_coin: Coin) -> tuple[complex, complex]:
    """Components of the 2x2 block Xi along Q~ = [[0,0],[c~,d~]] and R~ = [[c~,d~],[0,0]].

    Coefficients are trace inner products b_q = Tr(Q~^dag Xi) and
    b_r = Tr(R~^dag Xi).  For every path product with tau >= 1 these two
    components reconstruct Xi exactly; the tau = 0 identity is the one
    amplitude outside their span.
    """
    ct, dt = boundary_coin.c, boundary_coin.d
    b_q = np.conj(ct) * xi[1, 0] + np.conj(dt) * xi[1, 1]
    b_r = np.conj(ct) * xi[0, 0] + np.conj(dt) * xi[0, 1]
    return complex(b_q), complex(b_r)


def pqrs_row(table: np.ndarray, n: int, boundary_coin: Coin) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of b_q and b_r coefficients at site n for tau = 0 .. tau_max,
    read off a ``transition_table``.

    At n = 0 the tau = 0 entry is set to zero: the identity amplitude lies
    outside the Q~/R~ span, and the coefficient recursion between sites
    holds with this convention (the up-move channel is instead seeded by the
    formal constant 1/d, see genfun.b_gf_closed_series).
    """
    tau_max = len(table) - 1
    if not 0 <= n <= tau_max:
        raise ValueError(f"need 0 <= n <= tau_max, got n={n}, tau_max={tau_max}")
    b_q = np.zeros(tau_max + 1, dtype=np.complex128)
    b_r = np.zeros(tau_max + 1, dtype=np.complex128)
    for tau in range(n % 2, tau_max + 1, 2):
        if n > tau or (n == 0 and tau == 0):
            continue
        b_q[tau], b_r[tau] = pqrs_coefficients(table[tau, n], boundary_coin)
    return b_q, b_r


def pqrs_coefficient_series(
    n: int,
    tau_max: int,
    coin: Coin,
    boundary_coin: Coin,
    boundary: str = "reflecting",
) -> tuple[np.ndarray, np.ndarray]:
    """``pqrs_row`` of site n in the transition table of one coin pair."""
    _validate(n, tau_max, boundary)
    return pqrs_row(transition_table(tau_max, coin, boundary_coin, boundary), n, boundary_coin)


def pqrs_residual(xi: np.ndarray, boundary_coin: Coin) -> float:
    """Max entrywise remainder of the 2x2 block Xi after removing its Q~ and R~ parts.

    Equals the size of the components along P~ and S~, which vanish for all
    path sums with tau >= 1.
    """
    ct, dt = boundary_coin.c, boundary_coin.d
    b_q, b_r = pqrs_coefficients(xi, boundary_coin)
    q_mat = np.array([[0.0, 0.0], [ct, dt]], dtype=np.complex128)
    r_mat = np.array([[ct, dt], [0.0, 0.0]], dtype=np.complex128)
    return float(np.max(np.abs(xi - b_q * q_mat - b_r * r_mat)))

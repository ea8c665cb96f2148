"""Brute-force lattice-path oracle for the bounded walk.

Transition amplitudes are sums over every path from site 0 of the
transfer-matrix pieces multiplied in path order.  One depth-first walk of
the path tree yields them for all endpoints at once; since every move
matrix has a single nonzero row, it carries one row per path prefix.  The
sum is still taken path by path, never by a transfer-matrix recursion over
sites, which would make it a copy of the walk engine.  Cost is exponential
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

    P = [[a, b], [0, 0]], Q = [[0, 0], [c, d]] and Q~ each have one nonzero
    row, so after the first move a prefix product has one live row: row 0
    after P, row 1 after Q or Q~.  The walk carries that row and its index,
    and a move scales it by one coin entry, the one the live row meets.  A
    full 2x2 product would add to each entry a term of the zero row, which
    is a signed zero: it changes no nonzero value, and a zero only in its
    sign, and finite products and sums carry such a difference on only as
    the sign of a zero.  No slot can end up -0 either way, since every slot
    starts at +0 and a round-to-nearest sum is -0 only when both addends
    are.  So the blocks keep every bit of the full products, and each is
    still the sum, path by path, of that path's product.
    """
    _validate(0, tau_max, boundary)
    one, zero = 1.0 + 0.0j, 0.0 + 0.0j
    width = tau_max + 1
    # sums[i][j][tau * width + n] accumulates entry (i, j) of block [tau, n]
    sums = [[[zero] * (width * width) for _ in range(2)] for _ in range(2)]
    down = (coin.a, coin.b)  # the entry of P that meets live row 0 or 1
    up = (coin.c, coin.d)
    ct, dt = boundary_coin.c, boundary_coin.d
    absorbing = boundary == "absorbing"

    def visit(pos: int, tau: int, row: int, x0: complex, x1: complex) -> None:
        # (x0, x1) is row `row` of the prefix product; its other row is zero
        s0, s1 = sums[row]
        k = tau * width + pos
        s0[k] += x0
        s1[k] += x1
        if tau == tau_max:
            return
        if pos == 0:  # reached by P, so the live row is row 0
            if not absorbing:
                visit(1, tau + 1, 1, ct * x0, ct * x1)
        else:
            m = down[row]
            visit(pos - 1, tau + 1, 0, m * x0, m * x1)
            m = up[row]
            visit(pos + 1, tau + 1, 1, m * x0, m * x1)

    # the empty path is the identity, whose two rows are both live
    sums[0][0][0] = sums[1][1][0] = one
    if tau_max:
        visit(1, 1, 1, ct * one + dt * zero, ct * zero + dt * one)
    table = np.array(sums, dtype=np.complex128).reshape(2, 2, width, width)
    return np.ascontiguousarray(table.transpose(2, 3, 0, 1))


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

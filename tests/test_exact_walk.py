"""The printed probabilities against an exact walk in integer arithmetic.

Every float coin entry is a dyadic rational m / 2^k, so the walk of the
float coins can run in Python integers: the amplitudes are scaled by 2^F,
the coin entries by a common 2^K, and each sum of products is shifted back
by K bits.  The shift rounds toward -inf, once per component per step, so
at time tau each amplitude is within 2 tau 2^-F of the exact walk of the
float coins; with F = 1400 every probability above 1e-250 is within 1e-290
relative of the exact one before its one rounding to a float.  The walk shares no code with ``walk``,
``genfun`` or ``pathsum``: it is a fourth reference, the one that knows the
true rounding error of the engines.

The grid was fixed before the engines were run against it: T = 400, p on
both sides of p_c = sin^2(theta) and near it at theta = pi/4, and an obtuse
and a negative theta.  So was a first error law, |dP| <= C tau u P for a
printed probability P above 1e-250 at time tau, with u = 2^-53 and C = 16.
It failed at the obtuse point, in both engines and also in the gauge
beta = 0, gamma = theta, gamma_tilde = 0, at one site where P = 4.3e-10 sits between neighbours near 1e-6:
an amplitude that is a cancelling sum of larger terms keeps the absolute
error of those terms, not a relative one.  The law checked here takes the
terms' size from the snapshot itself:

    |dP_n| <= C tau u sqrt(P_n Pmax_n),

with Pmax_n the largest probability of either component over the
light-cone sites n - 4 .. n + 4 (P and Pmax floored at 1e-250), so it is
C tau u P wherever P is a local maximum.  The worst error / bound ratio on
the grid is 0.09 for ``evolve`` and 0.15 for ``series`` (2-core VM,
numpy 2.4.6), and the module takes about 1 s, 0.15 s per exact walk.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from lzwalk import cli
from lzwalk.coin import make_boundary_coin, make_bulk_coin, reduce_angle

F = 1400
U = 2.0**-53
C = 16
STEPS = 400

# (p, theta): localized, near p_c and delocalized at theta = pi/4 (p_c = 0.5),
# then obtuse localized (p_c = 0.557) and negative delocalized (p_c = 0.794)
GRID = [(0.2, 0.7853981633974483), (0.49, 0.7853981633974483), (0.8, 0.7853981633974483),
        (0.3, 2.3), (0.9, -1.1)]


def _integer_entries(*entries: complex) -> tuple[list[tuple[int, int]], int]:
    """Each complex entry as (re, im) integers over one common 2^K, exactly."""
    parts = [x.as_integer_ratio() for z in entries for x in (z.real, z.imag)]
    K = max(den.bit_length() - 1 for _, den in parts)
    scaled = [num << (K - (den.bit_length() - 1)) for num, den in parts]
    return list(zip(scaled[::2], scaled[1::2])), K


def exact_probabilities(coin, boundary_coin, times) -> dict[int, tuple[list[float], list[float]]]:
    """{tau: (prob_L, prob_R)} on the light-cone sites n = tau (mod 2), n <= tau.

    Each probability is the exact one of the integer walk, correctly rounded
    to a float.  The state at time tau is kept on its light-cone sites only,
    at compact index k = (n - tau mod 2) / 2, as object arrays of Python ints.
    """
    (a, b, c, d, ct, dt), K = _integer_entries(
        coin.a, coin.b, coin.c, coin.d, boundary_coin.c, boundary_coin.d
    )

    def combine(x, y, src_x, src_y):
        """(x src_x + y src_y) >> K on arrays of (re, im) integer pairs."""
        (xr, xi), (yr, yi), (sxr, sxi), (syr, syi) = x, y, src_x, src_y
        re = (xr * sxr - xi * sxi + yr * syr - yi * syi) >> K
        im = (xr * sxi + xi * sxr + yr * syi + yi * syr) >> K
        return re, im

    def zeros(size):
        return np.zeros(size, dtype=object), np.zeros(size, dtype=object)

    wanted = set(times)
    L, R = zeros(1), zeros(1)
    L[0][0] = 1 << F
    out = {}
    scale = 1 << (2 * F)
    for tau in range(max(wanted) + 1):
        if tau in wanted:
            out[tau] = tuple([(r * r + i * i) / scale for r, i in zip(*X)] for X in (L, R))
        m = len(L[0])
        if tau % 2 == 0:
            # sites 2k feed 2k - 1 (L, compact k - 1) and 2k + 1 (R, compact
            # k); site 0 reflects into site 1
            new_L, new_R = zeros(m), zeros(m)
            bulk = [(s[0][1:], s[1][1:]) for s in (L, R)]
            new_L[0][:-1], new_L[1][:-1] = combine(a, b, *bulk)
            new_R[0][1:], new_R[1][1:] = combine(c, d, *bulk)
            new_R[0][:1], new_R[1][:1] = combine(ct, dt, (L[0][:1], L[1][:1]), (R[0][:1], R[1][:1]))
        else:
            # sites 2k + 1 feed 2k (L, compact k) and 2k + 2 (R, compact k + 1)
            new_L, new_R = zeros(m + 1), zeros(m + 1)
            new_L[0][:-1], new_L[1][:-1] = combine(a, b, L, R)
            new_R[0][1:], new_R[1][1:] = combine(c, d, L, R)
        L, R = new_L, new_R
    return out


def _printed(argv) -> dict[int, tuple[list[float], list[float]]]:
    header, rows = getattr(cli, f"run_{argv[0]}")(cli._resolve_config(argv))
    out: dict = {}
    for tau, _, prob_L, prob_R in rows:
        got_L, got_R = out.setdefault(tau, ([], []))
        got_L.append(prob_L)
        got_R.append(prob_R)
    return out


def _worst_ratio(got, want, want_L, want_R, tau) -> float:
    """The largest |got - want| / (C tau u sqrt(P Pmax)) of one component."""
    bound = C * max(tau, 1) * U
    ratios = [0.0]
    for k, (g, w) in enumerate(zip(got, want, strict=True)):
        near = slice(max(k - 2, 0), k + 3)  # sites n - 4 .. n + 4
        top = max(*want_L[near], *want_R[near])
        scale = math.sqrt(max(w, 1e-250)) * math.sqrt(max(top, 1e-250))
        ratios.append(abs(g - w) / (bound * scale))
    return max(ratios)


def test_exact_walk_is_unitary_and_takes_the_first_steps_by_hand():
    # every phase nonzero, so each imaginary part of the coins takes part
    p = 0.3
    coin, boundary = make_bulk_coin(p, 0.4, 1.1), make_boundary_coin(-0.7)
    exact = exact_probabilities(coin, boundary, range(9))
    # tau = 1: psi_R(1) = c~; tau = 2: psi_L(0) = b c~, psi_R(2) = d c~
    assert exact[0] == ([1.0], [0.0])
    assert exact[1] == ([0.0], [1.0])
    assert exact[2][0] == pytest.approx([1.0 - p, 0.0], rel=1e-15, abs=0)
    assert exact[2][1] == pytest.approx([0.0, p], rel=1e-15, abs=0)
    for tau in range(9):
        assert sum(exact[tau][0]) + sum(exact[tau][1]) == pytest.approx(1.0, rel=0, abs=1e-15), tau


@pytest.fixture(scope="module")
def exact_at_grid():
    times = cli._snapshot_times(STEPS)
    return {
        (p, theta): exact_probabilities(
            make_bulk_coin(p, 0.0, 0.0), make_boundary_coin(-reduce_angle(theta)), times
        )
        for p, theta in GRID
    }


@pytest.mark.parametrize("mode", ["evolve", "series"])
@pytest.mark.parametrize("p, theta", GRID, ids=[f"{p}-{theta}" for p, theta in GRID])
def test_printed_probabilities_are_within_c_t_u_of_the_exact_walk(exact_at_grid, mode, p, theta):
    printed = _printed([mode, "--p", repr(p), "--theta", repr(theta), "--steps", str(STEPS)])
    exact = exact_at_grid[p, theta]
    assert sorted(printed) == sorted(exact)
    for tau, (want_L, want_R) in exact.items():
        got_L, got_R = printed[tau]
        assert _worst_ratio(got_L, want_L, want_L, want_R, tau) <= 1.0, (tau, "L")
        assert _worst_ratio(got_R, want_R, want_L, want_R, tau) <= 1.0, (tau, "R")

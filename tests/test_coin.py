import ast
import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from lzwalk import (
    Coin,
    ModelParams,
    make_boundary_coin,
    make_bulk_coin,
    reduce_angle,
    thresholds,
)
from lzwalk import cli, edge, verify
from lzwalk.coin import UNITARITY_TOL, landau_zener_field, landau_zener_p

from conftest import package_sites

SQ2 = math.sqrt(0.5)


def _matrix(u):
    return np.array([[u.a, u.b], [u.c, u.d]])


def test_bulk_coin_identity_limit():
    u = make_bulk_coin(1.0, 0.0, 0.0)
    assert np.allclose(_matrix(u), np.eye(2), atol=0)


def test_bulk_coin_real_rotation():
    u = make_bulk_coin(0.5, 0.0, 0.0)
    expected = np.array([[SQ2, SQ2], [-SQ2, SQ2]])
    assert np.allclose(_matrix(u), expected, atol=1e-15)


def test_bulk_coin_entries_match_direct_evaluation():
    u = make_bulk_coin(0.2, 0.0, math.pi / 4)
    s = math.sqrt(0.8) * SQ2
    assert u.a == pytest.approx(math.sqrt(0.2), abs=1e-15)
    assert u.b == pytest.approx(complex(s, s), abs=1e-15)
    assert u.c == pytest.approx(complex(-s, s), abs=1e-15)
    assert u.d == pytest.approx(math.sqrt(0.2), abs=1e-15)


def test_boundary_coin_examples():
    assert np.allclose(_matrix(make_boundary_coin(0.0)), [[0, 1], [-1, 0]], atol=0)
    assert np.allclose(_matrix(make_boundary_coin(math.pi / 2)), [[0, 1j], [1j, 0]], atol=1e-15)
    u = make_boundary_coin(math.pi / 4)
    assert u.b == pytest.approx(complex(SQ2, SQ2), abs=1e-15)
    assert u.c == pytest.approx(complex(-SQ2, SQ2), abs=1e-15)


@pytest.mark.parametrize("p", [0.0, -0.1, 1.1])
def test_bulk_coin_rejects_bad_p(p):
    with pytest.raises(ValueError):
        make_bulk_coin(p, 0.0, 0.0)


def test_coins_reject_nonfinite_phases():
    with pytest.raises(ValueError):
        make_bulk_coin(0.5, math.nan, 0.0)
    with pytest.raises(ValueError):
        make_boundary_coin(math.inf)


_NAN_ENTRY = np.complex128(complex(math.nan, 0.5))
_INF_PHASE = np.float64(-math.inf)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: Coin(complex(SQ2, math.inf), SQ2, -SQ2, SQ2),
            "coin entry must be finite, got (0.7071067811865476+infj)",
        ),
        (
            lambda: Coin(SQ2, _NAN_ENTRY, -SQ2, SQ2),
            f"coin entry must be finite, got {_NAN_ENTRY!r}",
        ),
        (lambda: make_bulk_coin(math.nan, 0.0, 0.0), "p must be finite, got nan"),
        (lambda: make_bulk_coin(0.5, _INF_PHASE, 0.0), f"beta must be finite, got {_INF_PHASE!r}"),
        (lambda: make_bulk_coin(0.5, 0.0, math.inf), "gamma must be finite, got inf"),
    ],
    ids=["complex-inf-imag", "numpy-complex-nan", "p-nan", "beta-numpy-inf", "gamma-inf"],
)
def test_nonfinite_values_raise_with_their_name(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message


def test_int_beyond_the_float_range_raises_overflow_error():
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        Coin(10**400, 0.0, 0.0, 1.0)
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        make_bulk_coin(0.5, 0.0, -(10**400))


def test_coin_rejects_nonunitary_matrix():
    with pytest.raises(ValueError):
        Coin(1.0, 0.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        Coin(1.0, 0.1, 0.0, 1.0)


def test_random_coins_unitary_with_unit_determinant():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = float(rng.uniform(1e-9, 1.0))
        beta, gamma = rng.uniform(-math.pi, math.pi, size=2)
        u = make_bulk_coin(p, float(beta), float(gamma))
        assert u.unitarity_defect() < 1e-12
        # det is exactly 1, not just |det|
        assert abs(u.a * u.d - u.b * u.c - 1.0) < 1e-12


def _exact_defect(coin):
    """max |(U^dag U - I)_ij| of the coin's double entries, in 200-bit arithmetic."""
    with mpmath.workprec(200):
        a, b, c, d = (mpmath.mpc(z.real, z.imag) for z in (coin.a, coin.b, coin.c, coin.d))
        ca, cb, cc, cd = (mpmath.conj(z) for z in (a, b, c, d))
        entries = (ca * a + cc * c - 1, ca * b + cc * d, cb * a + cd * c, cb * b + cd * d - 1)
        return float(max(abs(z) for z in entries))


# Each real or imaginary part of an entry of U^dag U is a sum of four rounded
# products of numbers of modulus at most 1, summed in double precision.  The
# dot-product bound gives an absolute error of at most gamma_4 = 4u / (1 - 4u)
# with u = 2^-53 (the final "- 1" is exact, by Sterbenz), so a modulus is
# off by at most sqrt(2) gamma_4 = 6.3e-16, and so is the max of four.  The
# bound is 3 ulps of 1.0, 6.7e-16.
DEFECT_BOUND = 3 * 2.0**-52


def test_stored_defect_is_the_matrix_defect_and_not_compared():
    coins = [
        make_bulk_coin(0.3, 0.2, 1.0),
        make_bulk_coin(1e-6, -2.9, 0.4),
        make_boundary_coin(2.2),
        # a genuine defect of about 3e-13, far above the round-off
        Coin(*(z * (1.0 + 1.5e-13) for z in (SQ2, SQ2 * 1j, SQ2 * 1j, SQ2))),
    ]
    for u in coins:
        assert abs(u.unitarity_defect() - _exact_defect(u)) <= DEFECT_BOUND, u
    u = coins[0]
    assert u == Coin(u.a, u.b, u.c, u.d) and hash(u) == hash(Coin(u.a, u.b, u.c, u.d))
    assert repr(u) == f"Coin(a={u.a!r}, b={u.b!r}, c={u.c!r}, d={u.d!r})"


_REF = make_bulk_coin(0.3, 0.2, 1.0)
_LAYOUTS = {"all": (0, 1, 2, 3), "row0": (0, 1), "row1": (2, 3), "col0": (0, 2), "col1": (1, 3)}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
def test_huge_entries_raise_without_warning(scale, layout):
    entries = [_REF.a, _REF.b, _REF.c, _REF.d]
    for i in _LAYOUTS[layout]:
        entries[i] *= scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not unitary") as info:
            Coin(*entries)
    if layout == "all":
        # both off-diagonal entries of U^dag U are inf - inf = NaN, after an
        # inf diagonal entry: the NaN must reach the reported defect
        with np.errstate(all="ignore"):
            m = np.array(entries).reshape(2, 2)
            gram = m.conj().T @ m
        assert np.isnan(gram[0, 1]) and np.isnan(gram[1, 0])
        assert "defect nan" in str(info.value)


def test_entry_with_overflowing_modulus_raises_value_error():
    # (U^dag U)_01 = 1.56e308 (1 + i) is finite, its modulus is not
    b = 1.2e154 * (1 + 1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="defect inf"):
            Coin(1.3e154, b, 0.0, 0.0)


def test_reduce_angle_interval():
    assert reduce_angle(math.pi) == pytest.approx(math.pi)
    assert reduce_angle(-math.pi) == pytest.approx(math.pi)
    assert reduce_angle(3 * math.pi) == pytest.approx(math.pi)
    assert reduce_angle(6.0) == pytest.approx(6.0 - 2 * math.pi)
    for x in np.linspace(-20, 20, 101):
        r = reduce_angle(float(x))
        assert -math.pi < r <= math.pi
        assert abs(math.sin(r) - math.sin(x)) < 1e-12


def test_params_derive_p_and_theta():
    params = ModelParams(F=2.0, Fbar=1.0, gamma=0.75)
    assert params.p == pytest.approx(math.exp(-math.pi / 2.0), rel=1e-15)
    assert 0.0 < params.p < 1.0
    assert params.theta == pytest.approx(0.75)
    wrapped = ModelParams(F=2.0, Fbar=1.0, gamma=6.0)
    assert wrapped.theta == pytest.approx(6.0 - 2 * math.pi)


def test_p_strictly_increasing_in_field():
    fields = np.linspace(0.1, 50.0, 200)
    ps = [ModelParams(F=float(f), Fbar=1.0).p for f in fields]
    assert all(a < b for a, b in zip(ps, ps[1:]))
    assert 0.9 < ps[-1] < 1.0  # approaches 1 from below


def test_p_at_critical_field_equals_sin_squared_theta():
    for theta in (0.3, math.pi / 4, 1.2):
        p_c, f_c = thresholds(theta, 1.0)
        assert ModelParams(F=f_c, Fbar=1.0).p == pytest.approx(p_c, abs=1e-12)


def test_landau_zener_map_is_the_params_map():
    for F, Fbar in ((2.0, 1.0), (0.37, 2.5), (1e3, 1e-3)):
        p = landau_zener_p(F, Fbar)
        assert p == math.exp(-math.pi * Fbar / F) == ModelParams(F=F, Fbar=Fbar).p
    for p, Fbar in ((0.2, 1.0), (1e-300, 1.5), (0.999, 2.0)):
        F = landau_zener_field(p, Fbar)
        assert F == -math.pi * Fbar / math.log(p) == ModelParams(F=F, Fbar=Fbar).F
        assert landau_zener_p(F, Fbar) == pytest.approx(p, rel=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(F=-1.0, Fbar=1.0)
    with pytest.raises(ValueError):
        ModelParams(F=1.0, Fbar=0.0)
    with pytest.raises(ValueError):
        ModelParams(F=1.0, Fbar=1.0, L=0.0)
    for F in (1e-3, 1e-300):
        with pytest.raises(ValueError, match=r"derived p = exp\(-pi\*Fbar/F\) = 0.0 falls outside"):
            ModelParams(F=F, Fbar=1.0)


def _passes_the_gate(*entries):
    try:
        Coin(*entries)
    except ValueError:
        return False
    return True


def _scale_at_the_gate(start):
    """The scale x farthest from 1, on the side of ``start``, for which x I
    passes the unitarity gate."""
    away = 2.0 if start > 1.0 else 0.0
    x = start
    while not _passes_the_gate(x, 0.0, 0.0, x):
        x = math.nextafter(x, 1.0)
    while _passes_the_gate(y := math.nextafter(x, away), 0.0, 0.0, y):
        x = y
    return x


def test_the_defect_gate_bounds_the_determinant():
    # |det U|^2 = det(U^dag U) lies within 2 delta + 2 delta^2 of 1 for a
    # defect delta, so ||det| - 1| <= delta + O(delta^2): a coin that passes
    # the defect gate has |det| within UNITARITY_TOL of 1, up to the rounding
    # of a d - b c and of the defect itself, and Coin needs no |det| gate
    coins = []
    for start in (math.sqrt(1.0 + UNITARITY_TOL), math.sqrt(1.0 - UNITARITY_TOL)):
        x = _scale_at_the_gate(start)
        coins.append(Coin(x, 0.0, 0.0, x))
    # U diag(s1, s2) with U unitary and |s_i^2 - 1| just under the gate
    rng = np.random.default_rng(5)
    just_under = (1.0 - 1e-3) * UNITARITY_TOL
    draws = rng.uniform([1e-6, -math.pi, -math.pi, -math.pi], [1.0, math.pi, math.pi, math.pi], size=(250, 4))
    for p, beta, gamma, phase in draws.tolist():
        u = make_bulk_coin(p, beta, gamma)
        g = cmath.exp(1j * phase)
        for t1, t2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            s1, s2 = math.sqrt(1.0 + t1 * just_under), math.sqrt(1.0 + t2 * just_under)
            coins.append(Coin(g * u.a * s1, g * u.b * s2, g * u.c * s1, g * u.d * s2))
    gaps = [abs(abs(u.a * u.d - u.b * u.c) - 1.0) for u in coins]
    assert max(gaps) <= UNITARITY_TOL + 4 * 2.0**-53
    assert max(gaps) > 0.99 * UNITARITY_TOL  # the bound is reached, not idle


def _entries(coin):
    return coin.a, coin.b, coin.c, coin.d


def _recording(make, built):
    def build(*args):
        coin = make(*args)
        built.append(coin)
        return coin

    return build


@pytest.mark.parametrize("theta", [math.pi / 4 + 2 * math.pi, -1.2, 2.5, -2.5])
def test_cli_verify_and_edge_build_coins_in_one_gauge(monkeypatch, theta):
    # beta = gamma = 0, gamma_tilde = -reduce_angle(theta): each of them
    # takes its coins from edge.coin_pair
    built = []
    for name in ("make_bulk_coin", "make_boundary_coin"):
        monkeypatch.setattr(edge, name, _recording(getattr(edge, name), built))
    edge.floquet_mode(0.2, theta, 2)
    cli.run_evolve(cli.RunConfig(mode="evolve", p=0.2, theta=theta, steps=2))
    verify.check_parseval(0.2, theta, tau=2)
    assert len(built) == 6
    from_edge, from_cli, from_verify = built[0:2], built[2:4], built[4:6]
    assert [_entries(c) for c in from_cli] == [_entries(c) for c in from_verify]
    assert [_entries(c) for c in from_cli] == [_entries(c) for c in from_edge]
    assert all(v.imag == 0.0 for v in _entries(from_cli[0]))
    assert from_cli[1].b == cmath.exp(1j * -reduce_angle(theta))


def test_coins_are_built_in_the_gauge_builder_and_the_random_phase_checks():
    # the one gauge is coded once; only the checks that draw every phase at
    # random build coins outside it
    builders = ("make_bulk_coin", "make_boundary_coin")
    sites = package_sites(
        lambda node: (isinstance(node, ast.Name) and node.id in builders)
        or (isinstance(node, ast.Attribute) and node.attr in builders)
    )
    assert sites == {"edge.coin_pair", "verify.check_coin_unitarity", "verify.check_norm_drift"}

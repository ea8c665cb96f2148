import math

import numpy as np
import pytest

from lzwalk import (
    Coin,
    ModelParams,
    make_boundary_coin,
    make_bulk_coin,
    pqrs_decompose,
    reduce_angle,
    thresholds,
)

SQ2 = math.sqrt(0.5)


def test_bulk_coin_identity_limit():
    u = make_bulk_coin(1.0, 0.0, 0.0)
    assert np.allclose(u.matrix, np.eye(2), atol=0)


def test_bulk_coin_real_rotation():
    u = make_bulk_coin(0.5, 0.0, 0.0)
    expected = np.array([[SQ2, SQ2], [-SQ2, SQ2]])
    assert np.allclose(u.matrix, expected, atol=1e-15)


def test_bulk_coin_entries_match_direct_evaluation():
    u = make_bulk_coin(0.2, 0.0, math.pi / 4)
    s = math.sqrt(0.8) * SQ2
    assert u.a == pytest.approx(math.sqrt(0.2), abs=1e-15)
    assert u.b == pytest.approx(complex(s, s), abs=1e-15)
    assert u.c == pytest.approx(complex(-s, s), abs=1e-15)
    assert u.d == pytest.approx(math.sqrt(0.2), abs=1e-15)


def test_boundary_coin_examples():
    assert np.allclose(make_boundary_coin(0.0).matrix, [[0, 1], [-1, 0]], atol=0)
    assert np.allclose(make_boundary_coin(math.pi / 2).matrix, [[0, 1j], [1j, 0]], atol=1e-15)
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


def test_coin_rejects_nonunitary_matrix():
    with pytest.raises(ValueError):
        Coin(1.0, 0.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        Coin.from_matrix(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_random_coins_unitary_with_unit_determinant():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = float(rng.uniform(1e-9, 1.0))
        beta, gamma = rng.uniform(-math.pi, math.pi, size=2)
        u = make_bulk_coin(p, float(beta), float(gamma))
        assert u.unitarity_defect() < 1e-12
        assert abs(u.det - 1.0) < 1e-12  # det is exactly 1, not just |det|


def test_stored_defect_is_the_matrix_defect_and_not_compared():
    u = make_bulk_coin(0.3, 0.2, 1.0)
    m = u.matrix
    assert u.unitarity_defect() == float(np.max(np.abs(m.conj().T @ m - np.eye(2))))
    assert u == Coin(u.a, u.b, u.c, u.d) and hash(u) == hash(Coin(u.a, u.b, u.c, u.d))
    assert repr(u) == f"Coin(a={u.a!r}, b={u.b!r}, c={u.c!r}, d={u.d!r})"


def test_pqrs_identity_coin():
    P, Q, R, S = pqrs_decompose(make_bulk_coin(1.0, 0.0, 0.0))
    assert np.allclose(P, [[1, 0], [0, 0]], atol=0)
    assert np.allclose(Q, [[0, 0], [0, 1]], atol=0)
    assert np.allclose(R, [[0, 1], [0, 0]], atol=0)
    assert np.allclose(S, [[0, 0], [1, 0]], atol=0)


def test_pqrs_sum_and_orthonormality():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = make_bulk_coin(
            float(rng.uniform(0.01, 1.0)),
            float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        P, Q, R, S = pqrs_decompose(u)
        assert np.array_equal(P + Q, u.matrix)
        basis = (P, Q, R, S)
        for i, A in enumerate(basis):
            for j, B in enumerate(basis):
                inner = np.trace(A.conj().T @ B)
                assert abs(inner - (1.0 if i == j else 0.0)) < 1e-12


def test_pqrs_q_row_matches_coin():
    u = make_bulk_coin(0.2, 0.0, math.pi / 4)
    _, Q, _, _ = pqrs_decompose(u)
    assert Q[1, 0] == u.c
    assert Q[1, 1] == u.d


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
    params = ModelParams(F=2.0, Fbar=1.0, gamma=1.0, gamma_tilde=0.25)
    assert params.p == pytest.approx(math.exp(-math.pi / 2.0), rel=1e-15)
    assert 0.0 < params.p < 1.0
    assert params.theta == pytest.approx(0.75)
    wrapped = ModelParams(F=2.0, Fbar=1.0, gamma=3.0, gamma_tilde=-3.0)
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


def test_from_p_round_trip():
    params = ModelParams.from_p(0.2, Fbar=1.5)
    assert params.p == pytest.approx(0.2, rel=1e-15)
    with pytest.raises(ValueError):
        ModelParams.from_p(1.0)
    with pytest.raises(ValueError):
        ModelParams.from_p(0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(F=-1.0, Fbar=1.0)
    with pytest.raises(ValueError):
        ModelParams(F=1.0, Fbar=0.0)
    with pytest.raises(ValueError):
        ModelParams(F=1.0, Fbar=1.0, L=0.0)

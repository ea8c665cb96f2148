import cmath
import math

import numpy as np
import pytest

from lzwalk import (
    ResourceLimitError,
    decay_ratio,
    distribution,
    evolve,
    initial_state,
    make_boundary_coin,
    make_bulk_coin,
    norm,
    step,
    trajectory,
    transition_amplitude,
)
from lzwalk.walk import WalkState
from conftest import P_REF, THETA_REF


def test_initial_state():
    s = initial_state()
    assert s.tau == 0
    assert s.psi_L[0] == 1.0 + 0.0j
    assert s.psi_R[0] == 0.0 + 0.0j
    assert norm(s) == pytest.approx(1.0, abs=0)


@pytest.mark.parametrize("gamma_tilde", [0.0, 0.3, -1.2])
def test_single_step_reflects_off_boundary(gamma_tilde, ref_coins):
    u, _ = ref_coins
    ub = make_boundary_coin(gamma_tilde)
    s = step(initial_state(), u, ub)
    assert s.tau == 1
    assert s.psi_R[1] == pytest.approx(-cmath.exp(-1j * gamma_tilde), abs=1e-15)
    assert s.psi_L[0] == 0.0 and s.psi_L[1] == 0.0 and s.psi_R[0] == 0.0


def test_two_steps_split(ref_coins):
    u, ub = ref_coins
    s = step(step(initial_state(), u, ub), u, ub)
    probs = {n: (pl, pr) for n, pl, pr in distribution(s)}
    assert probs[0][0] == pytest.approx(0.8, abs=1e-14)
    assert probs[0][1] == 0.0
    assert probs[2][1] == pytest.approx(0.2, abs=1e-14)
    assert norm(s) == pytest.approx(1.0, abs=1e-14)


def test_ballistic_limit():
    u = make_bulk_coin(1.0, 0.4, 0.0)
    ub = make_boundary_coin(0.7)
    s = initial_state()
    for tau in range(1, 51):
        s = step(s, u, ub)
        assert abs(s.psi_R[tau]) == pytest.approx(1.0, abs=1e-14)
        assert np.sum(np.abs(s.psi_L)) == 0.0


def test_norm_drift_random_coins():
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = make_bulk_coin(
            float(rng.uniform(0.05, 1.0)),
            float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        ub = make_boundary_coin(float(rng.uniform(-math.pi, math.pi)))
        s = initial_state()
        for _ in range(500):
            s = step(s, u, ub)
            assert abs(norm(s) - 1.0) < 1e-11


def test_parity_sites_exactly_zero(phased_coins):
    u, ub = phased_coins
    s = initial_state()
    for _ in range(31):
        s = step(s, u, ub)
    off = np.arange(s.tau + 1) % 2 != s.tau % 2
    assert np.all(s.psi_L[off] == 0.0)
    assert np.all(s.psi_R[off] == 0.0)


def test_boundary_site_has_no_right_mover(phased_coins):
    u, ub = phased_coins
    s = initial_state()
    for _ in range(20):
        s = step(s, u, ub)
        assert s.psi_R[0] == 0.0


def test_walk_matches_path_enumeration(phased_coins):
    u, ub = phased_coins
    s = initial_state()
    states = [s]
    for _ in range(12):
        s = step(s, u, ub)
        states.append(s)
    for tau in range(13):
        st = states[tau]
        for n in range(tau % 2, tau + 1, 2):
            amp_L, amp_R = transition_amplitude(n, tau, u, ub).apply()
            assert amp_L == pytest.approx(st.psi_L[n], abs=1e-10)
            assert amp_R == pytest.approx(st.psi_R[n], abs=1e-10)


def test_evolve_zero_steps_is_initial_state(ref_coins):
    u, ub = ref_coins
    s = evolve(u, ub, 0)
    assert s.tau == 0 and s.psi_L[0] == 1.0


def test_evolve_step_cap(ref_coins):
    u, ub = ref_coins
    with pytest.raises(ResourceLimitError, match="cap"):
        evolve(u, ub, 10, max_steps=5)


def test_distribution_examples(ref_coins):
    u, ub = ref_coins
    assert distribution(initial_state()) == [(0, 1.0, 0.0)]
    one = distribution(step(initial_state(), u, ub))
    assert len(one) == 1
    n, pl, pr = one[0]
    assert (n, pl) == (1, 0.0)
    assert pr == pytest.approx(1.0, abs=1e-14)


def test_distribution_sums_to_one(phased_coins):
    u, ub = phased_coins
    s = evolve(u, ub, 37)
    total = sum(pl + pr for _, pl, pr in distribution(s))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_bimodal_distribution_at_long_times(ref_coins):
    # The distribution separates into a boundary peak and a propagating
    # front; the front's group velocity is sqrt(p), so its maximum sits
    # near sqrt(p)*tau (= 89.4 here), clearly separated by a low valley.
    u, ub = ref_coins
    s = evolve(u, ub, 200)
    prob = {n: pl + pr for n, pl, pr in distribution(s)}
    sites = sorted(prob)
    edge_peak = max(prob[n] for n in sites if n <= 2)
    front_sites = [n for n in sites if n >= 30]
    front_peak_site = max(front_sites, key=lambda n: prob[n])
    front_expected = math.sqrt(P_REF) * 200
    assert prob[0] == edge_peak  # boundary maximum sits at n = 0
    assert 0.75 * front_expected <= front_peak_site <= 1.05 * front_expected
    valley = max(prob[n] for n in sites if 20 <= n <= 60)
    assert valley < 0.3 * prob[front_peak_site]
    assert valley < 0.1 * edge_peak


def test_near_boundary_mass_approaches_edge_weight(ref_coins):
    # time-averaged probability within n <= 10 tends to the edge weight 1-r
    u, ub = ref_coins
    expected = 1.0 - decay_ratio(P_REF, THETA_REF)
    s = initial_state()
    masses = []
    for tau in range(1, 201):
        s = step(s, u, ub)
        if tau >= 150:
            masses.append(
                float(np.sum(np.abs(s.psi_L[:11]) ** 2 + np.abs(s.psi_R[:11]) ** 2))
            )
    assert np.mean(masses) == pytest.approx(expected, abs=0.02)


def reference_step(psi_L, psi_R, u, ub):
    """The update rule on dense arrays, written out directly.

    Every product puts the coin coefficient first, as the package does:
    numpy's complex multiply may use fused multiply-add, and then ``x * a``
    and ``a * x`` can differ in the last bit.
    """
    tau = len(psi_L) - 1
    new_L = np.zeros(tau + 2, dtype=np.complex128)
    new_R = np.zeros(tau + 2, dtype=np.complex128)
    new_L[:tau] = u.a * psi_L[1:] + u.b * psi_R[1:]
    new_R[2:] = u.c * psi_L[1:] + u.d * psi_R[1:]
    new_R[1] = ub.c * psi_L[0] + ub.d * psi_R[0]
    return new_L, new_R


def reference_walk(u, ub, steps):
    psi_L, psi_R = np.array([1.0 + 0.0j]), np.array([0.0 + 0.0j])
    states = [(psi_L, psi_R)]
    for _ in range(steps):
        psi_L, psi_R = reference_step(psi_L, psi_R, u, ub)
        states.append((psi_L, psi_R))
    return states


@pytest.mark.parametrize("p", [0.2, 0.49, 0.8])
def test_trajectory_bit_identical_to_reference_stepper(p):
    u = make_bulk_coin(p, 0.0, THETA_REF)
    ub = make_boundary_coin(0.0)
    steps = 1200
    ref = reference_walk(u, ub, steps)
    states = trajectory(u, ub, steps, range(steps + 1))
    assert [s.tau for s in states] == list(range(steps + 1))
    for s, (ref_L, ref_R) in zip(states, ref):
        assert np.array_equal(s.psi_L, ref_L) and np.array_equal(s.psi_R, ref_R), s.tau
    final = states[-1]
    assert np.array_equal(evolve(u, ub, steps).psi_L, final.psi_L)
    if p == 0.2:
        # the light-cone edge has underflowed to exact zeros (the last
        # occupied site is about 1120), so the comparison above covered
        # the kernel's trimming of trailing zeros
        occupied = np.flatnonzero((final.psi_L != 0.0) | (final.psi_R != 0.0))
        assert occupied[-1] < steps - 50


def test_step_on_states_with_both_parities(phased_coins):
    u, ub = phased_coins
    rng = np.random.default_rng(17)
    for sites in (1, 2, 3, 10, 257):
        amps = rng.standard_normal((2, sites)) + 1j * rng.standard_normal((2, sites))
        amps[1, 0] = 0.0  # no right mover on the boundary site, as in any walk
        amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
        state = WalkState(sites - 1, amps[0], amps[1])
        new = step(state, u, ub)
        ref_L, ref_R = reference_step(state.psi_L, state.psi_R, u, ub)
        assert new.tau == sites
        assert np.array_equal(new.psi_L, ref_L) and np.array_equal(new.psi_R, ref_R)
        assert norm(new) == pytest.approx(1.0, abs=1e-13)


def test_trajectory_zero_steps(ref_coins):
    u, ub = ref_coins
    (s,) = trajectory(u, ub, 0, [0])
    assert s.tau == 0
    assert np.array_equal(s.psi_L, initial_state().psi_L)
    assert np.array_equal(s.psi_R, initial_state().psi_R)
    assert trajectory(u, ub, 0, []) == []


def test_trajectory_snapshot_times(phased_coins):
    u, ub = phased_coins
    ref = reference_walk(u, ub, 9)
    states = trajectory(u, ub, 9, [9, 0, 4, 4, 5])
    assert [s.tau for s in states] == [0, 4, 5, 9]
    for s in states:
        ref_L, ref_R = ref[s.tau]
        assert np.array_equal(s.psi_L, ref_L) and np.array_equal(s.psi_R, ref_R)
    # an observer sees the same snapshots, and only its results are kept
    assert trajectory(u, ub, 9, [9, 0, 4, 4, 5], norm) == [norm(s) for s in states]


def test_trajectory_rejects_bad_times_and_caps(ref_coins):
    u, ub = ref_coins
    with pytest.raises(ValueError, match="snapshot times"):
        trajectory(u, ub, 4, [5])
    with pytest.raises(ValueError, match="snapshot times"):
        trajectory(u, ub, 4, [-1])
    with pytest.raises(ValueError, match="nonnegative"):
        trajectory(u, ub, -1, [])
    with pytest.raises(ResourceLimitError, match="cap"):
        trajectory(u, ub, 10, [10], max_steps=5)


def test_trajectory_odd_parity_sites_exactly_zero(phased_coins):
    u, ub = phased_coins
    for s in trajectory(u, ub, 301, range(302)):
        off = np.arange(s.tau + 1) % 2 != s.tau % 2
        assert np.all(s.psi_L[off] == 0.0) and np.all(s.psi_R[off] == 0.0)

import ast
import cmath
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

import lzwalk.cli
import lzwalk.walk
from lzwalk.coin import make_boundary_coin, make_bulk_coin
from lzwalk.edge import coin_pair, decay_ratio
from lzwalk.errors import MAX_EVOLVE_STEPS, ResourceLimitError
from lzwalk.pathsum import transition_amplitude
from lzwalk.walk import (
    WalkState,
    evolve,
    initial_state,
    norm,
    norms,
    probability,
    step,
    total_probability,
    trajectory,
)
from conftest import P_REF, THETA_REF, package_sites


def _distribution(s):
    """(n, |psi_L|^2, |psi_R|^2) on the light cone, as the evolve rows list them."""
    return [row[1:] for row in lzwalk.cli._probability_rows([(s.tau, s.psi_L, s.psi_R)])]


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
    probs = {n: (pl, pr) for n, pl, pr in _distribution(s)}
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
            amp_L, amp_R = transition_amplitude(n, tau, u, ub)[:, 0]
            assert amp_L == pytest.approx(st.psi_L[n], abs=1e-10)
            assert amp_R == pytest.approx(st.psi_R[n], abs=1e-10)


def test_evolve_zero_steps_is_initial_state(ref_coins):
    u, ub = ref_coins
    s = evolve(u, ub, 0)
    assert s.tau == 0 and s.psi_L[0] == 1.0


def test_evolve_step_cap(ref_coins):
    u, ub = ref_coins
    with pytest.raises(ResourceLimitError, match="cap"):
        evolve(u, ub, MAX_EVOLVE_STEPS + 1)


def test_distribution_examples(ref_coins):
    u, ub = ref_coins
    assert _distribution(initial_state()) == [(0, 1.0, 0.0)]
    one = _distribution(step(initial_state(), u, ub))
    assert len(one) == 1
    n, pl, pr = one[0]
    assert (n, pl) == (1, 0.0)
    assert pr == pytest.approx(1.0, abs=1e-14)


def test_distribution_sums_to_one(phased_coins):
    u, ub = phased_coins
    s = evolve(u, ub, 37)
    total = sum(pl + pr for _, pl, pr in _distribution(s))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_bimodal_distribution_at_long_times(ref_coins):
    # The distribution separates into a boundary peak and a propagating
    # front; the front's group velocity is sqrt(p), so its maximum sits
    # near sqrt(p)*tau (= 89.4 here), clearly separated by a low valley.
    u, ub = ref_coins
    s = evolve(u, ub, 200)
    prob = {n: pl + pr for n, pl, pr in _distribution(s)}
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
    """(psi_L, psi_R) at tau = 0 .. steps of the dense reference stepper."""
    psi_L, psi_R = np.array([1.0 + 0.0j]), np.array([0.0 + 0.0j])
    yield psi_L, psi_R
    for _ in range(steps):
        psi_L, psi_R = reference_step(psi_L, psi_R, u, ub)
        yield psi_L, psi_R


def assert_matches_reference(states, ref):
    """The amplitude contract of ``trajectory`` against the dense stepper.

    The stepping loop drops trailing entries whose two components both have
    modulus below 2^-1022, where the dense stepper keeps them, so the walks
    differ only far below anything printed: (i) every |psi|^2 is
    bit-identical, (ii) so is every amplitude where the reference modulus
    is at least 2^-800, and (iii) every other amplitude is within 2^-900 of
    the reference in modulus.
    """
    for (tau, psi_L, psi_R), (ref_L, ref_R) in zip(states, ref, strict=True):
        for psi, ref_psi in ((psi_L, ref_L), (psi_R, ref_R)):
            differ = psi != ref_psi
            psi, ref_psi = psi[differ], ref_psi[differ]
            assert np.array_equal(probability(psi), probability(ref_psi)), tau
            assert np.all(np.abs(ref_psi) < 2.0**-800), tau
            assert np.all(np.abs(psi - ref_psi) <= 2.0**-900), tau


@pytest.mark.parametrize("p", [0.2, 0.49, 0.8])
def test_trajectory_bit_identical_to_reference_stepper(p):
    u = make_bulk_coin(p, 0.0, THETA_REF)
    ub = make_boundary_coin(0.0)
    steps = 1200
    states = list(trajectory(u, ub, range(steps + 1)))
    assert [tau for tau, _, _ in states] == list(range(steps + 1))
    assert_matches_reference(states, reference_walk(u, ub, steps))
    _, final_L, final_R = states[-1]
    assert np.array_equal(evolve(u, ub, steps).psi_L, final_L)
    if p == 0.2:
        # the light-cone front has fallen below 2^-1022 (the reference's
        # last nonzero site is about 1120, its last normal one about 1106),
        # so the comparison above covered the trimming of the tail
        occupied = np.flatnonzero((final_L != 0.0) | (final_R != 0.0))
        assert occupied[-1] < steps - 50


def test_near_critical_tail_is_trimmed_below_the_smallest_normal():
    # near p_c the tail decays slowly and holds thousands of subnormal
    # amplitudes; the loop trims them from the end of the light cone
    u = make_bulk_coin(0.49, 0.0, THETA_REF)
    ub = make_boundary_coin(0.0)
    steps = 3000
    fronts = []

    def snapshots():
        for tau, psi_L, psi_R in trajectory(u, ub, range(steps + 1)):
            last = np.flatnonzero((psi_L != 0.0) | (psi_R != 0.0))[-1]
            fronts.append(max(abs(psi_L[last]), abs(psi_R[last])))
            yield tau, psi_L, psi_R

    assert_matches_reference(snapshots(), reference_walk(u, ub, steps))
    # with trimming of exact zeros only, the last nonzero site would hold a
    # subnormal from about tau = 1990 on
    assert min(fronts) >= sys.float_info.min


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
    ((tau, psi_L, psi_R),) = trajectory(u, ub, [0])
    assert tau == 0
    assert np.array_equal(psi_L, initial_state().psi_L)
    assert np.array_equal(psi_R, initial_state().psi_R)
    assert list(trajectory(u, ub, [])) == []


def test_trajectory_snapshot_times(phased_coins):
    u, ub = phased_coins
    ref = list(reference_walk(u, ub, 9))
    states = list(trajectory(u, ub, [9, 0, 4, 4, 5]))
    assert [tau for tau, _, _ in states] == [0, 4, 5, 9]
    for tau, psi_L, psi_R in states:
        ref_L, ref_R = ref[tau]
        assert np.array_equal(psi_L, ref_L) and np.array_equal(psi_R, ref_R)
    # a consumer that keeps only a sum per snapshot sees the same snapshots
    sums = [total_probability(*s[1:]) for s in trajectory(u, ub, [9, 0, 4, 4, 5])]
    assert sums == [total_probability(*s[1:]) for s in states]


def _gauge_coins(p, gauge):
    """The CLI's real gauge at (p, pi/4), or the phases of ``phased_coins``."""
    if gauge == "real":
        return coin_pair(p, THETA_REF)
    return make_bulk_coin(p, 0.3, THETA_REF + 0.1), make_boundary_coin(0.1)


@pytest.mark.parametrize("gauge", ["real", "phased"])
@pytest.mark.parametrize("p", [0.2, 0.49, 0.8])
def test_sparse_snapshots_keep_every_bit_and_the_loop_yields_only_them(monkeypatch, p, gauge):
    u, ub = _gauge_coins(p, gauge)
    steps = 3000
    times = lzwalk.cli._snapshot_times(steps)
    full = {tau: (psi_L, psi_R) for tau, psi_L, psi_R in trajectory(u, ub, range(steps + 1)) if tau in times}
    walk, resumed = lzwalk.walk._walk, []

    def counted(*args):
        for live in walk(*args):
            resumed.append(live[0])
            yield live

    monkeypatch.setattr(lzwalk.walk, "_walk", counted)
    sparse = list(trajectory(u, ub, times[::-1] + times))
    # the stepping loop resumes trajectory once per distinct time, not per step
    assert resumed == [tau for tau, _, _ in sparse] == times
    for tau, psi_L, psi_R in sparse:
        ref_L, ref_R = full[tau]
        # integer views, so a zero of the other sign or a NaN payload counts
        assert np.array_equal(psi_L.view(np.uint64), ref_L.view(np.uint64)), tau
        assert np.array_equal(psi_R.view(np.uint64), ref_R.view(np.uint64)), tau


def _calls_numpy_ufunc(node):
    # a call of np.multiply or np.add itself; np.add.reduce calls the ufunc's
    # reduce method, not the elementwise rule
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("multiply", "add")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
    )


def test_the_update_rule_is_coded_once():
    # every bulk product and sum of every walk is made in _advance, so a faster
    # copy of the rule in one stepping path cannot drift from the others
    sites = {site for site in package_sites(_calls_numpy_ufunc) if site.split(".")[0] == "walk"}
    assert sites == {"walk._advance"}


def test_trajectory_rejects_bad_times_and_caps(monkeypatch, ref_coins):
    def walk_started(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(lzwalk.walk, "_walk", walk_started)
    for times, error, match in [
        ([-1], ValueError, "snapshot times"),
        ([4, -1], ValueError, "snapshot times"),
        ([-1, MAX_EVOLVE_STEPS + 1], ValueError, "nonnegative"),
        ([MAX_EVOLVE_STEPS + 1], ResourceLimitError, "cap"),
        ([0, MAX_EVOLVE_STEPS + 1], ResourceLimitError, "cap"),
    ]:
        snapshots = trajectory(*ref_coins, times)  # a generator: nothing is checked yet
        with pytest.raises(error, match=match):
            next(snapshots)


@pytest.mark.parametrize("bad", [2.7, "3", 3.0, None], ids=["float", "str", "integral-float", "None"])
def test_trajectory_takes_only_integer_times(ref_coins, bad):
    u, ub = ref_coins
    with pytest.raises(TypeError):
        next(trajectory(u, ub, [1, bad]))


def test_trajectory_takes_numpy_integer_times(ref_coins):
    u, ub = ref_coins
    ((tau, psi_L, _),) = trajectory(u, ub, [np.int64(3)])
    assert type(tau) is int and tau == 3
    assert np.array_equal(psi_L, evolve(u, ub, 3).psi_L)


def test_trajectory_first_snapshot_does_not_step(ref_coins):
    u, ub = ref_coins
    start = time.perf_counter()
    tau, psi_L, psi_R = next(trajectory(u, ub, [0, MAX_EVOLVE_STEPS]))
    assert time.perf_counter() - start < 1.0
    assert tau == 0
    assert np.array_equal(psi_L, initial_state().psi_L)
    assert np.array_equal(psi_R, initial_state().psi_R)


def test_trajectory_streams_its_snapshots(ref_coins):
    # one snapshot of a 2000-step walk is 2 x 2001 x 16 B = 64 KB and the
    # stepping loop's five buffers 5 x 1001 x 16 B = 80 KB; keeping every
    # snapshot alive would take about 64 MB
    u, ub = ref_coins
    tracemalloc.start()
    try:
        count = 0
        for tau, psi_L, psi_R in trajectory(u, ub, range(2001)):
            assert len(psi_L) == len(psi_R) == tau + 1
            count += 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 2001
    assert peak < 1_000_000


def test_trajectory_snapshots_are_fresh_arrays(ref_coins):
    u, ub = ref_coins
    states = list(trajectory(u, ub, range(6)))
    arrays = [arr for _, psi_L, psi_R in states for arr in (psi_L, psi_R)]
    assert all(arr.flags.owndata and arr.flags.writeable for arr in arrays)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :])


def test_trajectory_odd_parity_sites_exactly_zero(phased_coins):
    u, ub = phased_coins
    for tau, psi_L, psi_R in trajectory(u, ub, range(302)):
        off = np.arange(tau + 1) % 2 != tau % 2
        assert np.all(psi_L[off] == 0.0) and np.all(psi_R[off] == 0.0)


@pytest.mark.parametrize("component", ["psi_L", "psi_R"])
@pytest.mark.parametrize(
    "bad", [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0), complex(0.0, -math.inf)]
)
def test_walk_state_rejects_non_finite_amplitudes(component, bad):
    amps = {"psi_L": np.full(5, 0.1 + 0.2j), "psi_R": np.full(5, 0.3 - 0.1j)}
    amps[component][3] = bad
    with pytest.raises(ValueError, match=f"{component} contains non-finite"):
        WalkState(4, amps["psi_L"], amps["psi_R"])


@pytest.mark.parametrize(
    "psi_L, psi_R",
    [
        (np.zeros(4), np.zeros(5)),
        (np.zeros(5), np.zeros(6)),
        (np.zeros((1, 5)), np.zeros(5)),
        (np.zeros(5), np.zeros((5, 1))),
        (np.complex128(0.0), np.zeros(5)),
    ],
    ids=["L-short", "R-long", "L-2d", "R-2d", "L-scalar"],
)
def test_walk_state_rejects_wrong_length(psi_L, psi_R):
    with pytest.raises(ValueError, match="must have length tau\\+1 = 5"):
        WalkState(4, psi_L, psi_R)


def test_walk_state_rejects_negative_tau():
    with pytest.raises(ValueError, match="tau must be nonnegative"):
        WalkState(-1, np.zeros(0), np.zeros(0))


def test_walk_state_arrays_are_read_only(phased_coins):
    u, ub = phased_coins
    built = WalkState(2, [1.0, 0.0, 0.0], np.zeros(3, dtype=np.complex128))
    stepped = step(built, u, ub)
    for s in (built, stepped, initial_state()):
        for arr in (s.psi_L, s.psi_R):
            assert arr.dtype == np.complex128 and not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5


def test_walk_state_copies_the_callers_arrays():
    psi_L = np.array([0.6, 0.0, 0.8j])
    psi_R = np.zeros(3, dtype=np.complex128)
    state = WalkState(2, psi_L, psi_R)
    assert psi_L.flags.writeable and psi_R.flags.writeable
    psi_L[0] = 5.0
    psi_R[1] = 1.0
    assert state.psi_L[0] == 0.6 and state.psi_R[1] == 0.0
    assert not state.psi_L.flags.writeable and not state.psi_R.flags.writeable


@pytest.mark.parametrize("length", [1, 7, 8, 9, 129, 301, 4001])
def test_norm_is_bitwise_the_sum_of_squared_moduli(length):
    # lengths on both sides of the 8-wide unrolled and 128-long pairwise
    # blocks of numpy's summation
    rng = np.random.default_rng(length)
    scale = 10.0 ** rng.uniform(-160, 0, size=(2, length))
    psi = scale * (rng.standard_normal((2, length)) + 1j * rng.standard_normal((2, length)))
    state = WalkState(length - 1, psi[0], psi[1])
    expected = float(
        np.add.reduce(psi[0].real ** 2 + psi[0].imag ** 2)
        + np.add.reduce(psi[1].real ** 2 + psi[1].imag ** 2)
    )
    assert norm(state).hex() == expected.hex()


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _squares_a_modulus(node):
    """``abs(x) ** 2``, ``np.abs(x) ** 2``, ``x.real ** 2``, ``x.imag ** 2`` or ``np.square``."""
    if isinstance(node, ast.Attribute) and node.attr == "square":
        return True
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
        return False
    if not (isinstance(node.right, ast.Constant) and node.right.value == 2):
        return False
    left = node.left
    if isinstance(left, ast.Call):
        return _name(left.func) == "abs"
    return isinstance(left, ast.Attribute) and left.attr in ("real", "imag")


def _sums_a_probability(node):
    """``sum``, ``np.sum``, ``.sum()`` or ``np.add.reduce`` of a probability call."""
    if not (isinstance(node, ast.Call) and _name(node.func) in ("sum", "reduce")):
        return False
    operands = [*node.args, getattr(node.func, "value", None)]
    return any(
        isinstance(arg, ast.Call) and _name(arg.func) in ("probability", "probabilities")
        for arg in operands
    )


def test_probability_and_its_total_are_each_coded_once():
    # every |psi|^2 is re^2 + im^2 in one place, so no CPU-specific hypot
    # reaches a printed probability, a norm or a verify residual
    assert package_sites(_squares_a_modulus) == {"walk.probability"}
    assert package_sites(_sums_a_probability) == {"walk.total_probability"}


def test_norms_zero_steps(ref_coins):
    assert norms(*ref_coins, 0) == []


def test_norms_reject_bad_steps_before_allocating(monkeypatch, ref_coins):
    def walk_started(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(lzwalk.walk, "_walk", walk_started)
    with pytest.raises(ResourceLimitError, match="cap"):
        norms(*ref_coins, MAX_EVOLVE_STEPS + 1)
    with pytest.raises(ValueError, match="nonnegative"):
        norms(*ref_coins, -1)

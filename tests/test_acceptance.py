"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured value next to its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np

from lzwalk.cli import main
from lzwalk.coin import make_boundary_coin, make_bulk_coin
from lzwalk.edge import decay_ratio, floquet_mode, localization_length, observables, thresholds
from lzwalk.pathsum import pqrs_residual, transition_table
from lzwalk.verify import (
    _worst,
    check_edge_mode,
    check_edge_vs_simulation,
    check_observable_ratio,
    check_quasi_energy_slope,
    check_recursion_relation,
    check_three_way,
)
from lzwalk.walk import evolve, total_probability, trajectory

P_GRID = (0.2, 0.5, 0.8)
THETA_GRID = (math.pi / 6, math.pi / 4, math.pi / 3)
BETA_GRID = (0.0, 0.7)
THETA = math.pi / 4


def report(k: int, ok: bool, detail: str) -> None:
    print(f"[criterion {k:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_1_three_way_oracle_equivalence():
    res = check_three_way(
        P_GRID, THETA_GRID, BETA_GRID, tau_pathsum=12, tau_series=40, n_series=8, tol=1e-10
    )
    report(
        1,
        res.passed,
        f"walk=paths to tau 12, walk=series to tau 40 at n <= 8: residual "
        f"{res.residual:.2e} over {res.detail} (tol {res.tol:.0e})",
    )


def test_criterion_2_unitarity_drift():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        u = make_bulk_coin(
            float(rng.uniform(0.02, 1.0)),
            float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        ub = make_boundary_coin(float(rng.uniform(-math.pi, math.pi)))
        for _, psi_L, psi_R in trajectory(u, ub, range(1, 501)):
            worst = _worst(worst, abs(total_probability(psi_L, psi_R) - 1.0))
    report(2, worst < 1e-11, f"norm drift {worst:.2e} over 20 sets x 500 steps (tol 1e-11)")


def test_criterion_3_expansion_structure_and_recursion():
    worst_span = 0.0
    for beta, gamma, gt in [(0.0, THETA, 0.0), (0.3, 1.1, 0.4)]:
        u = make_bulk_coin(0.2, beta, gamma)
        ub = make_boundary_coin(gt)
        table = transition_table(12, u, ub)
        for tau in range(1, 13):
            for n in range(tau % 2, tau + 1, 2):
                worst_span = _worst(worst_span, pqrs_residual(table[tau, n], ub))
    rec = check_recursion_relation(p=0.2, theta=THETA, beta=0.3, order=12, n_max=4)
    ok = worst_span < 1e-12 and rec.residual < 1e-10
    report(
        3,
        ok,
        f"span residual {worst_span:.2e} (tol 1e-12), recursion residual "
        f"{rec.residual:.2e} to order 12 (tol 1e-10)",
    )


def test_criterion_4_geometric_mode_from_residues():
    mode = check_edge_mode()
    r = decay_ratio(0.2, THETA)
    big = floquet_mode(0.2, THETA, 120)
    weight_err = abs(float(np.sum(big.probabilities())) - (1.0 - r))
    ok = mode.passed and weight_err < 1e-10
    report(
        4,
        ok,
        f"mode error {mode.residual:.2e} of its law over {mode.detail}, weight error "
        f"{weight_err:.2e} (tol 1e-10)",
    )


def test_criterion_5_simulation_matches_floquet_weights():
    res = check_edge_vs_simulation(0.2, THETA, steps=400, avg_start=300, n_max=6, tol=0.03)
    report(
        5,
        res.passed,
        f"near-boundary time-average vs mode, max relative error {res.residual:.4f} "
        f"(tol {res.tol})",
    )


def test_criterion_6_quasi_energy_phase_slope():
    res = check_quasi_energy_slope(0.2, THETA, steps=400, fit_start=100, tol=1e-3)
    report(
        6,
        res.passed,
        f"phase slope vs arg(z_pole^2)/2, error {res.residual:.2e} (tol {res.tol:.0e})",
    )


def test_criterion_7_critical_exponents():
    p_c, f_c = thresholds(THETA, 1.0)
    deltas = np.geomspace(1e-3, 1e-1, 20)
    xi_slope = np.polyfit(
        np.log([p_c * d for d in deltas]),
        np.log([localization_length(p_c * (1 - d), THETA) for d in deltas]),
        1,
    )[0]
    xs, ys = [], []
    for d in deltas:
        f = f_c * (1 - d)
        xs.append(f_c - f)
        ys.append(observables(math.exp(-math.pi / f), THETA).E_direct)
    e_slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    ok = abs(xi_slope + 1.0) < 0.05 and abs(e_slope + 2.0) < 0.1
    report(
        7,
        ok,
        f"xi exponent {xi_slope:.4f} (-1 +/- 0.05), E exponent {e_slope:.4f} (-2 +/- 0.1)",
    )


def test_criterion_8_delocalization():
    u = make_bulk_coin(0.7, 0.0, THETA)
    ub = make_boundary_coin(0.0)
    s = evolve(u, ub, 400)
    mass = float(np.sum(np.abs(s.psi_L[:11]) ** 2 + np.abs(s.psi_R[:11]) ** 2))
    r_min = min(decay_ratio(float(p), 0.0) for p in np.linspace(0.01, 0.99, 50))
    ok = mass < 0.05 and r_min >= 1.0
    report(
        8,
        ok,
        f"p=0.7 boundary mass at tau=400 is {mass:.2e} (tol 0.05); "
        f"theta=0 min decay ratio {r_min:.4f} >= 1 on 50-point grid",
    )


def test_criterion_9_sweep_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--theta", str(THETA), "--fbar", "1",
        "--fmin", "0.5", "--fmax", "6", "--points", "45", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    f_c = math.pi / math.log(2.0)
    spacing = (6.0 - 0.5) / 44
    weights = [float(r["weight"]) for r in rows]
    monotone = all(a >= b - 1e-12 for a, b in zip(weights, weights[1:]))
    zero_after = all(
        float(r["weight"]) == 0.0 for r in rows if float(r["F"]) >= f_c + spacing
    )
    positive_before = all(
        float(r["weight"]) > 0.0 for r in rows if float(r["F"]) <= f_c - spacing
    )
    loc = [r for r in rows if r["localized"] == "true"]
    j_vals = [float(r["J_direct"]) for r in loc]
    j_increasing = all(a < b for a, b in zip(j_vals, j_vals[1:]))
    j_finite = all(v <= 0.5 + 1e-12 for v in j_vals)
    e_vals = [float(r["E_direct"]) for r in loc]
    e_increasing = all(a < b for a, b in zip(e_vals, e_vals[1:]))
    e_diverging = e_vals[-1] > 1e3 and e_vals[-1] > 100 * np.median(e_vals)
    # weak-field sweep: momentum suppressed until tunneling activates
    out_weak = tmp_path / "weak.csv"
    assert main([
        "sweep", "--theta", str(THETA), "--fbar", "1",
        "--fmin", "0.1", "--fmax", str(1.0 / 3.0), "--points", "10",
        "--out", str(out_weak),
    ]) == 0
    weak_lines = out_weak.read_text().strip().split("\n")
    weak_rows = [dict(zip(header, line.split(","))) for line in weak_lines[1:]]
    suppressed = all(float(r["J_direct"]) < 0.01 for r in weak_rows)
    ok = (
        monotone and zero_after and positive_before
        and j_increasing and j_finite and e_increasing and e_diverging and suppressed
    )
    report(
        9,
        ok,
        f"weight monotone={monotone}, zero beyond F_c={zero_after}, "
        f"positive below={positive_before}, J increasing/finite={j_increasing}/{j_finite}, "
        f"E increasing={e_increasing}, E at last localized point={e_vals[-1]:.3g}",
    )


def test_criterion_10_momentum_form_discrepancy_ledger():
    results = [
        check_observable_ratio(
            tuple(frac * math.sin(theta) ** 2 for frac in (0.1, 0.4, 0.7, 0.95)),
            theta,
            tol=1e-10,
        )
        for theta in THETA_GRID
    ]
    worst = _worst(*(res.residual for res in results))
    report(
        10,
        all(res.passed for res in results),
        f"J_paper_form/J_direct = 1/sqrt(1-p) to {worst:.2e} over {4 * len(results)} "
        "points (tol 1e-10); both values reported side by side in every output",
    )


def test_criterion_11_cli_byte_determinism(tmp_path):
    args = [
        "sweep", "--theta", str(THETA), "--fbar", "1",
        "--fmin", "0.5", "--fmax", "6", "--points", "45",
    ]
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    report(11, identical, f"two sweep runs produced identical bytes ({out1.stat().st_size} bytes)")

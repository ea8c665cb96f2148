"""Cross-engine consistency suite shared by the test harness and the CLI.

Each check runs one structural identity of the model (engine equivalence,
norm conservation, coefficient-expansion structure, edge-mode laws) and
reports the measured residual against its tolerance.  The walk, path-sum
and series engines are fully independent code paths, so agreement between
them is a meaningful end-to-end check rather than a tautology.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import edge, genfun, pathsum, walk
from .coin import Coin, make_boundary_coin, make_bulk_coin

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tol: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name} residual={self.residual:.3e} tol={self.tol:.1e}{extra}"


def _result(name: str, residual: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(residual < tol), float(residual), tol, detail)


def _coin_pair(p: float, theta: float, beta: float = 0.0) -> tuple[Coin, Coin]:
    # gauge: all of theta in the bulk phase, boundary phase zero
    return make_bulk_coin(p, beta, theta), make_boundary_coin(0.0)


def check_coin_unitarity(samples: int = 1000, seed: int = 7, tol: float = 1e-12) -> CheckResult:
    """Unitarity defect and |det|-1 over random bulk and boundary coins."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        p = float(rng.uniform(1e-6, 1.0))
        beta, gamma, gt = rng.uniform(-math.pi, math.pi, size=3)
        u = make_bulk_coin(p, float(beta), float(gamma))
        ub = make_boundary_coin(float(gt))
        worst = max(
            worst,
            u.unitarity_defect(),
            ub.unitarity_defect(),
            abs(abs(u.det) - 1.0),
            abs(abs(ub.det) - 1.0),
        )
    return _result("coin_unitarity", worst, tol, f"{samples} random parameter sets")


def check_norm_drift(
    sets: int = 5, steps: int = 300, seed: int = 11, tol: float = 1e-11
) -> CheckResult:
    """Norm conservation of the direct evolution for random parameters."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(sets):
        p = float(rng.uniform(0.05, 0.99))
        beta, gamma, gt = (float(x) for x in rng.uniform(-math.pi, math.pi, size=3))
        u = make_bulk_coin(p, beta, gamma)
        ub = make_boundary_coin(gt)
        for total in walk.trajectory(u, ub, steps, range(1, steps + 1), walk.norm):
            worst = max(worst, abs(total - 1.0))
    return _result("norm_drift", worst, tol, f"{sets} parameter sets x {steps} steps")


def check_three_way(
    p_values=(0.2, 0.5, 0.8),
    theta_values=(math.pi / 4,),
    beta_values=(0.0,),
    tau_pathsum: int = 10,
    tau_series: int = 30,
    n_series: int = 6,
    tol: float = 1e-10,
) -> CheckResult:
    """Walk amplitudes against path enumeration and series coefficients."""
    worst = 0.0
    for p in p_values:
        for theta in theta_values:
            for beta in beta_values:
                u, ub = _coin_pair(p, theta, beta)
                horizon = max(tau_pathsum, tau_series)
                states = walk.trajectory(u, ub, horizon, range(horizon + 1))
                for tau in range(tau_pathsum + 1):
                    st = states[tau]
                    for n in range(tau % 2, tau + 1, 2):
                        amp = pathsum.transition_amplitude(n, tau, u, ub).apply()
                        worst = max(
                            worst,
                            abs(amp[0] - st.psi_L[n]),
                            abs(amp[1] - st.psi_R[n]),
                        )
                tab_L, tab_R = genfun.bounded_gf_table(u, ub, n_series, tau_series + 1)
                for tau in range(tau_series + 1):
                    st = states[tau]
                    for n in range(0, min(tau, n_series) + 1):
                        worst = max(
                            worst,
                            abs(tab_L[n, tau] - st.psi_L[n]),
                            abs(tab_R[n, tau] - st.psi_R[n]),
                        )
    grids = f"{len(p_values)}x{len(theta_values)}x{len(beta_values)} parameter sets"
    return _result("three_way_equivalence", worst, tol, grids)


def check_pqrs_structure(
    p: float = 0.2,
    theta: float = math.pi / 4,
    beta: float = 0.3,
    tau_max: int = 12,
    tol: float = 1e-12,
) -> CheckResult:
    """Path sums stay inside the Q~/R~ span for every site and step count."""
    u, ub = _coin_pair(p, theta, beta)
    worst = 0.0
    for tau in range(1, tau_max + 1):
        for n in range(tau % 2, tau + 1, 2):
            t = pathsum.transition_amplitude(n, tau, u, ub)
            worst = max(worst, pathsum.pqrs_residual(t, ub))
    return _result("pqrs_span", worst, tol, f"all n, 1 <= tau <= {tau_max}")


def check_recursion_relation(
    p: float = 0.2,
    theta: float = math.pi / 4,
    beta: float = 0.3,
    order: int = 12,
    n_max: int = 4,
    tol: float = 1e-10,
) -> CheckResult:
    """Site recursion of the expansion coefficients, term by term in z.

    tilded(0->n) = [1 + c~ Br(0->0)] * d z * untilded(0->n-1) in both
    channels; the n = 1 up-move channel uses the formal seed 1/d.
    """
    u, ub = _coin_pair(p, theta, beta)
    d, ct = u.d, ub.c
    m = order + 1
    _, btr0 = pathsum.pqrs_coefficient_series(0, order, u, ub)
    factor = ct * btr0
    factor[0] += 1.0
    worst = 0.0
    for n in range(1, n_max + 1):
        t_q, t_r = pathsum.pqrs_coefficient_series(n, order, u, ub)
        if n == 1:
            u_q = np.zeros(m, dtype=np.complex128)
            u_q[0] = 1.0 / d
            _, u_r = pathsum.pqrs_coefficient_series(0, order, u, u)
        else:
            u_q, u_r = pathsum.pqrs_coefficient_series(n - 1, order, u, u)
        for tilded, untilded in ((t_q, u_q), (t_r, u_r)):
            rhs = np.convolve(factor, untilded)[:m]
            rhs = d * np.concatenate([[0.0], rhs[:-1]])
            worst = max(worst, float(np.max(np.abs(tilded - rhs))))
    return _result("coefficient_recursion", worst, tol, f"n <= {n_max}, order {order}")


def check_absorbing_gf(
    p: float = 0.2,
    theta: float = math.pi / 4,
    beta: float = 0.3,
    tau_max: int = 12,
    tol: float = 1e-10,
) -> CheckResult:
    """Absorbing-boundary return series against its path enumeration."""
    u, _ = _coin_pair(p, theta, beta)
    series = genfun.absorbing_gf_series(u, tau_max + 1)
    _, a_r = pathsum.pqrs_coefficient_series(0, tau_max, u, u, "absorbing")
    worst = float(np.max(np.abs(series.coeffs[1:] - a_r[1:])))
    return _result("absorbing_return", worst, tol, f"tau <= {tau_max}")


def check_closed_forms(
    p: float = 0.2,
    theta: float = math.pi / 4,
    beta: float = 0.3,
    n_max: int = 4,
    tau_max: int = 12,
    tol: float = 1e-10,
) -> CheckResult:
    """Closed-form coefficient functions against untilded path sums."""
    u, _ = _coin_pair(p, theta, beta)
    worst = 0.0
    for n in range(n_max + 1):
        bq_s, br_s = genfun.b_gf_closed_series(u, n, tau_max + 1)
        u_q, u_r = pathsum.pqrs_coefficient_series(n, tau_max, u, u)
        lo = 1 if n == 0 else 0  # the n = 0 constant term is the formal seed
        worst = max(
            worst,
            float(np.max(np.abs(bq_s.coeffs[lo:] - u_q[lo:]))),
            float(np.max(np.abs(br_s.coeffs[lo:] - u_r[lo:]))),
        )
    return _result("closed_coefficient_forms", worst, tol, f"n <= {n_max}, tau <= {tau_max}")


def check_parseval(
    p: float = 0.2,
    theta: float = math.pi / 4,
    beta: float = 0.0,
    tau: int = 40,
    tol: float = 1e-10,
) -> CheckResult:
    """Series coefficients at fixed tau carry unit total probability."""
    u, ub = _coin_pair(p, theta, beta)
    tab_L, tab_R = genfun.bounded_gf_table(u, ub, tau, tau + 1)
    total = float(np.sum(np.abs(tab_L[:, tau]) ** 2) + np.sum(np.abs(tab_R[:, tau]) ** 2))
    return _result("series_parseval", abs(total - 1.0), tol, f"tau = {tau}")


def check_pole_zero(
    p: float = 0.2, theta: float = math.pi / 4, tol: float = 1e-10
) -> CheckResult:
    """The reported pole is a zero of the denominator on the physical branch."""
    u, ub = _coin_pair(p, theta)
    zp = cmath.sqrt(edge.pole(p, theta))
    lam = genfun.lambda_plus_eval(u, zp)
    h = 1.0 - ub.c * (u.d * lam - u.det * zp) * zp / u.c
    return _result("pole_denominator_zero", abs(h), tol)


def check_edge_mode(
    p: float = 0.2, theta: float = math.pi / 4, n_max: int = 20, tol: float = 1e-10
) -> CheckResult:
    """Residue-extracted mode magnitudes against the geometric law."""
    r = edge.decay_ratio(p, theta)
    w = (1.0 - r) ** 2
    mode = edge.floquet_mode(p, theta, n_max)
    worst = 0.0
    for i, n in enumerate(mode.sites):
        expect_L = w * r ** int(n)
        expect_R = 0.0 if n == 0 else w * r ** int(n - 1)
        worst = max(
            worst,
            abs(abs(mode.phi_L[i]) ** 2 - expect_L),
            abs(abs(mode.phi_R[i]) ** 2 - expect_R),
        )
    return _result("edge_mode_geometric", worst, tol, f"even n <= {n_max}")


def check_weight_identity(
    p: float = 0.2, theta: float = math.pi / 4, tol: float = 1e-10
) -> CheckResult:
    """Summed mode weight equals 1 - r to the machine tail."""
    r = edge.decay_ratio(p, theta)
    n_max = max(40, int(math.ceil(-30.0 * math.log(10.0) / math.log(r))))
    mode = edge.floquet_mode(p, theta, n_max)
    total = float(np.sum(mode.probabilities()))
    return _result("edge_weight", abs(total - (1.0 - r)), tol, f"summed to n = {n_max}")


def check_observable_ratio(
    p_values=(0.05, 0.1, 0.2, 0.3, 0.4, 0.45),
    theta: float = math.pi / 4,
    tol: float = 1e-10,
) -> CheckResult:
    """The two momentum forms differ by exactly sqrt(1-p)."""
    worst = 0.0
    for p in p_values:
        obs = edge.observables(p, theta)
        worst = max(worst, abs(obs.J_paper_form / obs.J_direct - 1.0 / math.sqrt(1.0 - p)))
    return _result(
        "momentum_form_ratio", worst, tol, "J_paper_form/J_direct vs 1/sqrt(1-p)"
    )


def check_edge_vs_simulation(
    p: float = 0.2,
    theta: float = math.pi / 4,
    steps: int = 400,
    avg_start: int = 300,
    n_max: int = 6,
    tol: float = 0.03,
) -> CheckResult:
    """Residue-extracted mode weights against time-averaged site probabilities."""
    u, ub = _coin_pair(p, theta)
    times = [tau for tau in range(max(avg_start, 1), steps + 1) if tau % 2 == 0]
    samples = walk.trajectory(
        u, ub, steps, times,
        lambda s: np.abs(s.psi_L[: n_max + 1]) ** 2 + np.abs(s.psi_R[: n_max + 1]) ** 2,
    )
    averaged = np.mean(samples, axis=0)
    mode = edge.floquet_mode(p, theta, n_max)
    worst = 0.0
    for n, expected in zip(mode.sites, mode.probabilities()):
        worst = max(worst, abs(averaged[n] - float(expected)) / float(expected))
    return _result(
        "edge_vs_simulation",
        worst,
        tol,
        f"n <= {n_max}, even tau in [{avg_start}, {steps}], relative",
    )


def check_quasi_energy_slope(
    p: float = 0.2,
    theta: float = math.pi / 4,
    steps: int = 400,
    fit_start: int = 100,
    tol: float = 1e-3,
) -> CheckResult:
    """Phase slope of the simulated return amplitude against arg(z_pole^2)/2."""
    u, ub = _coin_pair(p, theta)
    taus = np.arange(fit_start, steps + 1, 2)
    amps = walk.trajectory(u, ub, steps, taus, lambda s: complex(s.psi_L[0]))
    phase = np.unwrap(np.angle(np.array(amps)))
    slope = float(np.polyfit(taus, phase, 1)[0])
    expected = cmath.phase(edge.pole(p, theta)) / 2.0
    return _result(
        "quasi_energy_slope",
        abs(-slope - expected),
        tol,
        f"fit over even tau in [{fit_start}, {steps}]",
    )


def run_all(
    tau_max: int = 10,
    unitarity_tol: float = 1e-11,
    order: int = 12,
) -> list[CheckResult]:
    """Run the full suite; path enumeration is bounded by tau_max."""
    tau_max = min(tau_max, pathsum.TAU_CAP)
    return [
        check_coin_unitarity(),
        check_norm_drift(tol=unitarity_tol),
        check_three_way(tau_pathsum=tau_max),
        check_pqrs_structure(tau_max=tau_max),
        check_recursion_relation(order=min(order, tau_max)),
        check_absorbing_gf(tau_max=tau_max),
        check_closed_forms(tau_max=tau_max),
        check_parseval(),
        check_pole_zero(),
        check_edge_mode(),
        check_weight_identity(),
        check_observable_ratio(),
        check_edge_vs_simulation(),
        check_quasi_energy_slope(),
    ]

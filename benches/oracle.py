"""Checks of lzwalk CLI output against computations made apart from the package.

Nothing here imports ``lzwalk``.  The walk reference steps the update rule of
the paper directly,

    Psi(n, tau+1) = P Psi(n+1, tau) + Q Psi(n-1, tau),   n >= 2,
    Psi(1, tau+1) = P Psi(2, tau) + Q~ Psi(0, tau),
    Psi(0, tau+1) = P Psi(1, tau),

with P = [[a, b], [0, 0]], Q = [[0, 0], [c, d]] and Q~ = [[0, 0], [c~, d~]]
the single-row pieces of the bulk coin U = [[a, b], [c, d]] and the
reflecting boundary coin.  The edge quantities are the closed forms of the
paper.  Every check raises ``CheckFailed`` with a reason.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

# Tolerances of the package's own gates: the three-way agreement of the
# engines (1e-10) and the suppression band around r = 1 (1e-9).
AMPLITUDE_TOL = 1e-10
CLOSED_FORM_REL = 1e-9
CRITICAL_BAND = 1e-9

PROBABILITY_COLUMNS = ["tau", "n", "prob_L", "prob_R"]
SWEEP_COLUMNS = ["F", "p", "r", "xi", "weight", "J_direct", "J_paper_form", "E_direct", "localized"]
EDGE_COLUMNS = [
    "F", "p", "theta", "r", "xi", "weight", "z_pole_sq_re", "z_pole_sq_im",
    "quasi_energy", "p_c", "F_c", "J_direct", "J_paper_form", "E_direct",
    "localized", "critical",
]
VERIFY_CHECKS = [
    "coin_unitarity", "norm_drift", "three_way_equivalence", "pqrs_span",
    "coefficient_recursion", "absorbing_return", "closed_coefficient_forms",
    "series_parseval", "pole_denominator_zero", "edge_mode_geometric",
    "edge_weight", "momentum_form_ratio", "edge_vs_simulation",
    "quasi_energy_slope",
]


class CheckFailed(Exception):
    """An output disagrees with the reference computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- closed forms -------------------------------------------------------


def tunneling_p(field: float, fbar: float = 1.0) -> float:
    return math.exp(-math.pi * fbar / field)


def decay_ratio(p: float, theta: float) -> float:
    return p / (2.0 - p - 2.0 * math.cos(theta) * math.sqrt(1.0 - p))


def critical_field(theta: float, fbar: float = 1.0) -> float:
    return -math.pi * fbar / (2.0 * math.log(abs(math.sin(theta))))


def field_at_gap(theta: float, gap: float, fbar: float = 1.0) -> float:
    """Field below F_c at which 1 - r = gap, for 0 < theta < pi/2.

    r grows monotonically with p up to 1 at p_c = sin^2(theta), so
    bisection on p in (0, p_c) finds the point.
    """
    lo, hi = 0.0, math.sin(theta) ** 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - decay_ratio(mid, theta) > gap:
            lo = mid
        else:
            hi = mid
    return -math.pi * fbar / math.log(lo)


def edge_closed_forms(p: float, theta: float) -> dict:
    """Closed-form edge quantities; the divergent ones only when localised."""
    r = decay_ratio(p, theta)
    s = math.sqrt(1.0 - p)
    num = 1.0 - cmath.exp(-1j * theta) * s
    out = {
        "r": r,
        "z_pole_sq": num / (1.0 - cmath.exp(1j * theta) * s),
        "p_c": math.sin(theta) ** 2,
        "localized": r < 1.0 - CRITICAL_BAND,
        "critical": abs(r - 1.0) <= CRITICAL_BAND,
    }
    if out["localized"]:
        j_direct = 2.0 * r / (1.0 + r) ** 2
        out.update(
            xi=1.0 / abs(math.log(r)),
            weight=1.0 - r,
            J_direct=j_direct,
            J_paper_form=j_direct / s,
            E_direct=4.0 * r * (1.0 + r * r) / (1.0 - r * r) ** 2,
        )
    else:
        out.update(xi=None, weight=0.0, J_direct=None, J_paper_form=None, E_direct=None)
    return out


# -- walk reference -----------------------------------------------------


def snapshot_times(steps: int) -> list[int]:
    """{0, T/4, T/2, 3T/4, T}; the workloads use T divisible by 8."""
    if steps % 8:
        raise ValueError(f"reference snapshots need steps divisible by 8, got {steps}")
    return sorted({0, steps // 4, steps // 2, 3 * steps // 4, steps})


def reference_probabilities(p: float, theta: float, steps: int, times) -> dict:
    """|psi_L|^2 and |psi_R|^2 over sites 0..tau at each wanted tau.

    Coins in the gauge of ``--theta``: beta = 0, gamma = theta,
    gamma_tilde = 0, so a = d = sqrt(p), b = sqrt(1-p) e^{i theta},
    c = -sqrt(1-p) e^{-i theta}, c~ = -1 and d~ = 0.
    """
    sp, sq = math.sqrt(p), math.sqrt(1.0 - p)
    a = d = complex(sp)
    b = sq * cmath.exp(1j * theta)
    c = -sq * cmath.exp(-1j * theta)
    c_t = -1.0 + 0.0j
    wanted = set(times)
    psi_L = np.zeros(steps + 2, dtype=np.complex128)
    psi_R = np.zeros(steps + 2, dtype=np.complex128)
    psi_L[0] = 1.0
    out = {}
    for tau in range(steps + 1):
        if tau in wanted:
            out[tau] = (np.abs(psi_L[: tau + 1]) ** 2, np.abs(psi_R[: tau + 1]) ** 2)
        if tau == steps:
            break
        # sites 0..tau are occupied; site tau+1 is still zero
        down = a * psi_L[1 : tau + 2] + b * psi_R[1 : tau + 2]
        up = c * psi_L[1 : tau + 1] + d * psi_R[1 : tau + 1]
        from_boundary = c_t * psi_L[0]
        psi_L[: tau + 1] = down
        psi_R[2 : tau + 2] = up
        psi_R[1] = from_boundary
        psi_R[0] = 0.0
    return out


# -- output parsing -----------------------------------------------------


def _csv_cell(column: str, text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    if column in ("tau", "n"):
        return int(text)
    return float(text)


def parse_table(text: str, fmt: str) -> tuple[list[str], list[list]]:
    """Header and typed rows of a CSV or JSON table written by the CLI."""
    if fmt == "csv":
        _require(text.endswith("\n") and "\r" not in text, "CSV must end in LF and use LF only")
        lines = text[:-1].split("\n")
        header = lines[0].split(",")
        rows = []
        for line in lines[1:]:
            cells = line.split(",")
            _require(len(cells) == len(header), f"CSV row has {len(cells)} cells: {line!r}")
            rows.append([_csv_cell(col, cell) for col, cell in zip(header, cells)])
        return header, rows
    payload = json.loads(text)
    _require(list(payload) == ["config", "rows"], f"JSON keys {list(payload)}")
    records = payload["rows"]
    header = list(records[0]) if records else []
    rows = []
    for rec in records:
        _require(list(rec) == header, f"JSON row keys {list(rec)} differ from {header}")
        rows.append([rec[k] for k in header])
    return header, rows


# -- checks -------------------------------------------------------------


def _close(got, want, rel: float = CLOSED_FORM_REL) -> bool:
    if want is None or got is None:
        return got is None and want is None
    return abs(got - want) <= rel * abs(want)


def check_probability_rows(inputs: dict, text: str, fmt: str) -> None:
    """evolve/series: light-cone sites, unit norm, reference amplitudes."""
    header, rows = parse_table(text, fmt)
    _require(header == PROBABILITY_COLUMNS, f"header {header}")
    steps = inputs["steps"]
    times = snapshot_times(steps)
    ref = reference_probabilities(inputs["p"], inputs["theta"], steps, times)
    i = 0
    for tau in times:
        sites = list(range(tau % 2, tau + 1, 2))
        block = rows[i : i + len(sites)]
        i += len(sites)
        _require(len(block) == len(sites), f"tau={tau}: {len(block)} rows, want {len(sites)}")
        _require([r[0] for r in block] == [tau] * len(sites), f"rows out of order at tau={tau}")
        _require([r[1] for r in block] == sites, f"tau={tau}: sites are not n = tau mod 2, n <= tau")
        prob_L = np.array([r[2] for r in block])
        prob_R = np.array([r[3] for r in block])
        total = float(np.sum(prob_L) + np.sum(prob_R))
        _require(abs(total - 1.0) <= AMPLITUDE_TOL, f"tau={tau}: snapshot sums to {total!r}")
        ref_L, ref_R = ref[tau]
        worst = max(
            float(np.max(np.abs(prob_L - ref_L[sites]))),
            float(np.max(np.abs(prob_R - ref_R[sites]))),
        )
        _require(worst <= AMPLITUDE_TOL, f"tau={tau}: off the reference stepper by {worst:.3e}")
    _require(i == len(rows), f"{len(rows) - i} rows beyond the last snapshot")


def _check_edge_values(where: str, got: dict, want: dict) -> None:
    for key in ("xi", "weight", "J_direct", "J_paper_form", "E_direct"):
        _require(_close(got[key], want[key]), f"{where}: {key} = {got[key]!r}, closed form {want[key]!r}")
    _require(got["localized"] is want["localized"], f"{where}: localized = {got['localized']}")
    if want["localized"]:
        ratio = got["J_paper_form"] / got["J_direct"]
        _require(_close(ratio, 1.0 / math.sqrt(1.0 - got["p"])), f"{where}: J_paper_form/J_direct = {ratio!r}")


def check_sweep_rows(inputs: dict, text: str, fmt: str) -> None:
    """sweep: grid, tunneling map and every edge quantity in closed form."""
    header, rows = parse_table(text, fmt)
    _require(header == SWEEP_COLUMNS, f"header {header}")
    fmin, fmax, points = inputs["fmin"], inputs["fmax"], inputs["points"]
    _require(len(rows) == points, f"{len(rows)} rows, want {points}")
    theta = inputs["theta"]
    for k, row in enumerate(rows):
        got = dict(zip(header, row))
        field = got["F"]
        if inputs.get("log"):
            grid = fmin * (fmax / fmin) ** (k / (points - 1))
        else:
            grid = fmin + (fmax - fmin) * k / (points - 1)
        where = f"row {k} (F={field!r})"
        _require(_close(field, grid, 1e-12), f"{where}: off the grid point {grid!r}")
        p = tunneling_p(field)
        _require(_close(got["p"], p), f"{where}: p = {got['p']!r}, exp(-pi/F) = {p!r}")
        want = edge_closed_forms(p, theta)
        _require(_close(got["r"], want["r"]), f"{where}: r = {got['r']!r}, closed form {want['r']!r}")
        _check_edge_values(where, got, want)


def check_edge_row(inputs: dict, text: str, fmt: str) -> None:
    """edge: one row against the closed forms, thresholds and the pole."""
    header, rows = parse_table(text, fmt)
    _require(header == EDGE_COLUMNS, f"header {header}")
    _require(len(rows) == 1, f"{len(rows)} rows, want 1")
    got = dict(zip(header, rows[0]))
    field, theta = inputs["field"], inputs["theta"]
    p = tunneling_p(field)
    want = edge_closed_forms(p, theta)
    _require(got["F"] == field, f"F = {got['F']!r}, asked for {field!r}")
    _require(_close(got["p"], p), f"p = {got['p']!r}, exp(-pi/F) = {p!r}")
    _require(abs(got["theta"] - theta) <= 1e-12, f"theta = {got['theta']!r}")
    _require(_close(got["r"], want["r"]), f"r = {got['r']!r}, closed form {want['r']!r}")
    _check_edge_values("edge row", got, want)
    _require(got["critical"] is want["critical"], f"critical = {got['critical']}")
    z2 = complex(got["z_pole_sq_re"], got["z_pole_sq_im"])
    _require(abs(abs(z2) - 1.0) <= 1e-12, f"|z_pole^2| = {abs(z2)!r}")
    _require(abs(z2 - want["z_pole_sq"]) <= CLOSED_FORM_REL, f"z_pole^2 = {z2!r}, closed form {want['z_pole_sq']!r}")
    _require(_close(got["p_c"], want["p_c"]), f"p_c = {got['p_c']!r}, sin^2(theta) = {want['p_c']!r}")
    f_c = critical_field(theta)
    _require(_close(got["F_c"], f_c), f"F_c = {got['F_c']!r}, closed form {f_c!r}")
    if want["localized"]:
        eps = field * cmath.phase(want["z_pole_sq"]) / (2.0 * math.pi)
        _require(_close(got["quasi_energy"], eps), f"quasi_energy = {got['quasi_energy']!r}, closed form {eps!r}")
    else:
        _require(got["quasi_energy"] is None, "delocalised row reports a quasi-energy")


def check_verify_report(inputs: dict, text: str, fmt: str) -> None:
    """verify: all fourteen named checks pass and the summary says so."""
    if fmt == "json":
        payload = json.loads(text)
        names = [c["name"] for c in payload["checks"]]
        failing = [c["name"] for c in payload["checks"] if not (c["passed"] and c["residual"] < c["tol"])]
        summary_ok = payload["all_pass"] is True
    else:
        lines = text.split("\n")
        _require(lines[-1] == "", "verify output must end in LF")
        names = [line.split(" ")[1] for line in lines[:-2]]
        failing = [line for line in lines[:-2] if not line.startswith("PASS ")]
        summary_ok = lines[-2] == "ALL CHECKS PASS"
    _require(names == VERIFY_CHECKS, f"check names {names}")
    _require(not failing, f"failing checks {failing}")
    _require(summary_ok, "summary does not report a full pass")


CHECKS = {
    "evolve": check_probability_rows,
    "series": check_probability_rows,
    "sweep": check_sweep_rows,
    "edge": check_edge_row,
    "verify": check_verify_report,
}

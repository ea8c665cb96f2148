"""Command-line interface: evolution snapshots, series expansion, edge
reports, field sweeps, and the self-verification suite.

Design notes.  Output is byte-deterministic for a fixed configuration:
floats are printed with 17 significant digits (lossless for 64-bit values),
CSV uses comma separators and LF line endings, JSON uses a fixed key order.
Configuration files are flat ``key = value`` text; command-line flags
override file values, and unknown keys are hard errors so a typo in a
physics parameter cannot pass silently.

Exit codes: 0 success, 1 usage/config error, 2 verification failure,
3 I/O error.  Every failure prints one ``error:`` line on stderr and no
traceback.  Exceptions map onto the codes by class:

* ``UsageError``, ``ValueError`` (bad physical input) -> 1;
* ``ResourceLimitError`` (a hard cap) and ``MemoryError`` -> 1;
* ``ArithmeticError`` (a failed numerical self-check, such as a snapshot
  that does not sum to 1 or a pole hit) -> 2, like a failed ``verify``;
* ``OSError`` while writing the output -> 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import verify, walk
from .coin import ModelParams, make_boundary_coin, make_bulk_coin
from .edge import (
    decay_ratio,
    edge_report,
    is_localized,
    localization_length,
    observables,
)
from .errors import ResourceLimitError
from .genfun import bounded_gf_table
# initial_state and step are not called here; they stay importable from
# this module because benches/spans.py wraps them by name on it.
from .walk import MAX_EVOLVE_STEPS, initial_state, step  # noqa: F401

__all__ = ["RunConfig", "main", "app", "parse_config_text", "emit_config"]

MODES = ("evolve", "series", "edge", "sweep", "verify")

# largest sweep grid; cost is linear in the points: at the cap a run takes
# 1.7 s and 110 MB peak RSS for CSV, 3.8 s and 280 MB for JSON (2-core VM)
MAX_SWEEP_POINTS = 100_000


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


@dataclass
class RunConfig:
    """Resolved run configuration; None marks an unset optional value."""

    mode: str
    p: float | None = None
    field: float | None = None
    fbar: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0
    gamma_tilde: float = 0.0
    L: float = 1.0
    j0: float = 1.0
    E0: float = 1.0
    steps: int = 200
    fmin: float | None = None
    fmax: float | None = None
    points: int | None = None
    log: bool = False
    out: str | None = None
    format: str = "csv"
    tau_max: int = 10
    unitarity_tol: float = 1e-11


def _parse_bool(value: str) -> bool:
    if value not in ("true", "false"):
        raise ValueError(value)
    return value == "true"


# the value parser of each config key, read off its RunConfig annotation
# ("float | None" -> float)
_VALUE_PARSERS = {"float": float, "int": int, "bool": _parse_bool, "str": str}
_KEY_PARSERS = {f.name: _VALUE_PARSERS[f.type.split(" | ")[0]] for f in fields(RunConfig)}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` config text; unknown keys are errors."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_PARSERS:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        if key in out:
            raise UsageError(f"config line {lineno}: duplicate key {key!r}")
        try:
            out[key] = _KEY_PARSERS[key](value)
        except ValueError:
            raise UsageError(f"config line {lineno}: bad value for {key!r}: {value!r}") from None
    return out


def emit_config(cfg: RunConfig) -> str:
    """Render a config as the flat text format (round-trips with the parser)."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = _fmt(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    class Parser(argparse.ArgumentParser):
        def error(self, message):  # exit 1, not argparse's default 2
            raise UsageError(message)

    parser = Parser(
        prog="lzwalk",
        description="Bounded quantum walk model of field-driven level dynamics.",
    )
    parser.add_argument("mode", choices=MODES, help="what to run")
    parser.add_argument("--config", metavar="PATH", help="flat key = value config file")
    parser.add_argument("--p", type=float, help="tunneling probability (alternative to --field)")
    parser.add_argument("--field", type=float, help="electric field F (alternative to --p)")
    parser.add_argument("--fbar", type=float, help="threshold field (default 1)")
    parser.add_argument("--beta", type=float, help="bulk diagonal phase (default 0)")
    parser.add_argument("--gamma", type=float, help="bulk off-diagonal phase (default 0)")
    parser.add_argument("--gamma-tilde", type=float, dest="gamma_tilde", help="boundary phase (default 0)")
    parser.add_argument(
        "--theta",
        type=float,
        help="shorthand: sets gamma = THETA and gamma-tilde = 0",
    )
    parser.add_argument("--L", type=float, help="system length (default 1)")
    parser.add_argument("--j0", type=float, help="momentum unit (default 1)")
    parser.add_argument("--E0", type=float, help="energy unit (default 1)")
    parser.add_argument("--steps", type=int, help="number of walk steps (default 200)")
    parser.add_argument("--fmin", type=float, help="sweep start field")
    parser.add_argument("--fmax", type=float, help="sweep end field")
    parser.add_argument("--points", type=int, help="sweep grid size (>= 2)")
    parser.add_argument("--log", action="store_true", default=None, help="logarithmic sweep grid")
    parser.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    parser.add_argument("--tau-max", type=int, dest="tau_max", help="verify: path enumeration bound (default 10)")
    parser.add_argument(
        "--unitarity-tol",
        type=float,
        dest="unitarity_tol",
        help="verify: tolerance of the norm-drift check (default 1e-11)",
    )
    return parser


def _resolve_config(argv: list[str]) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    values: dict = {}
    if ns.config is not None:
        try:
            with open(ns.config, "r", encoding="utf-8") as fh:
                values.update(parse_config_text(fh.read()))
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        values.pop("mode", None)  # the positional argument wins
    if ns.theta is not None:
        if ns.gamma is not None or ns.gamma_tilde is not None:
            raise UsageError("--theta conflicts with explicit --gamma/--gamma-tilde")
        values["gamma"] = ns.theta
        values["gamma_tilde"] = 0.0
    for key in _KEY_PARSERS:
        if key == "mode":
            continue
        flag = getattr(ns, key, None)
        if flag is not None:
            values[key] = flag
    cfg = RunConfig(mode=ns.mode, **values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    if cfg.format not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {cfg.format!r}")
    needs_point = cfg.mode in ("evolve", "series", "edge")
    if needs_point:
        if (cfg.p is None) == (cfg.field is None):
            raise UsageError(f"mode {cfg.mode!r} needs exactly one of --p or --field")
        if cfg.p is not None:
            hi = 1.0 if cfg.mode in ("evolve", "series") else 1.0 - 1e-15
            if not 0.0 < cfg.p <= hi:
                raise UsageError(
                    f"--p must lie in (0, 1{']' if hi == 1.0 else ')'} for mode {cfg.mode!r}, got {cfg.p}"
                )
        if cfg.field is not None and cfg.field <= 0.0:
            raise UsageError(f"--field must be positive, got {cfg.field}")
        if not 0 <= cfg.steps <= MAX_EVOLVE_STEPS:
            raise UsageError(
                f"--steps must lie in [0, {MAX_EVOLVE_STEPS}], got {cfg.steps}"
            )
    if cfg.mode == "sweep":
        if cfg.p is not None or cfg.field is not None:
            raise UsageError("sweep mode takes a field grid, not --p/--field")
        if cfg.fmin is None or cfg.fmax is None or cfg.points is None:
            raise UsageError("sweep mode needs --fmin, --fmax and --points")
        if not 2 <= cfg.points <= MAX_SWEEP_POINTS:
            raise UsageError(
                f"--points must lie in [2, {MAX_SWEEP_POINTS}], got {cfg.points}"
            )
        if not 0.0 < cfg.fmin <= cfg.fmax:
            raise UsageError(f"need 0 < fmin <= fmax, got {cfg.fmin}, {cfg.fmax}")
    if cfg.fbar <= 0.0:
        raise UsageError(f"--fbar must be positive, got {cfg.fbar}")


def _resolve_p(cfg: RunConfig) -> float:
    if cfg.p is not None:
        return cfg.p
    return math.exp(-math.pi * cfg.fbar / cfg.field)


def _resolve_field(cfg: RunConfig, p: float) -> float | None:
    if cfg.field is not None:
        return cfg.field
    if p >= 1.0:
        return None
    return -math.pi * cfg.fbar / math.log(p)


def _snapshot_times(steps: int) -> list[int]:
    """{0, steps/4, steps/2, 3 steps/4, steps}; interior times on even tau."""
    times = {0, steps}
    for frac in (0.25, 0.5, 0.75):
        t = 2 * int(round(frac * steps / 2.0))
        times.add(min(t, steps))
    return sorted(times)


def _probability_rows(snapshots: dict[int, tuple[np.ndarray, np.ndarray]]) -> list[list]:
    rows = []
    for tau in sorted(snapshots):
        prob_L, prob_R = snapshots[tau]
        total = float(np.sum(prob_L) + np.sum(prob_R))
        if abs(total - 1.0) > 1e-10:
            raise ArithmeticError(f"snapshot at tau={tau} sums to {total!r}, not 1")
        for n in range(tau % 2, tau + 1, 2):
            rows.append([tau, n, float(prob_L[n]), float(prob_R[n])])
    return rows


def run_evolve(cfg: RunConfig) -> tuple[list[str], list[list]]:
    p = _resolve_p(cfg)
    u = make_bulk_coin(p, cfg.beta, cfg.gamma)
    ub = make_boundary_coin(cfg.gamma_tilde)
    snapshots = dict(
        walk.trajectory(
            u, ub, cfg.steps, _snapshot_times(cfg.steps),
            lambda s: (s.tau, (np.abs(s.psi_L) ** 2, np.abs(s.psi_R) ** 2)),
        )
    )
    return ["tau", "n", "prob_L", "prob_R"], _probability_rows(snapshots)


def run_series(cfg: RunConfig) -> tuple[list[str], list[list]]:
    p = _resolve_p(cfg)
    u = make_bulk_coin(p, cfg.beta, cfg.gamma)
    ub = make_boundary_coin(cfg.gamma_tilde)
    tab_L, tab_R = bounded_gf_table(u, ub, cfg.steps, max(cfg.steps + 1, 2))
    snapshots = {
        tau: (np.abs(tab_L[: tau + 1, tau]) ** 2, np.abs(tab_R[: tau + 1, tau]) ** 2)
        for tau in _snapshot_times(cfg.steps)
    }
    return ["tau", "n", "prob_L", "prob_R"], _probability_rows(snapshots)


_EDGE_COLUMNS = [
    "F", "p", "theta", "r", "xi", "weight", "z_pole_sq_re", "z_pole_sq_im",
    "quasi_energy", "p_c", "F_c", "J_direct", "J_paper_form", "E_direct",
    "localized", "critical",
]


def run_edge(cfg: RunConfig) -> tuple[list[str], list[list]]:
    p = _resolve_p(cfg)
    field = _resolve_field(cfg, p)
    params = ModelParams(
        F=field, Fbar=cfg.fbar, beta=cfg.beta, gamma=cfg.gamma,
        gamma_tilde=cfg.gamma_tilde, L=cfg.L, j0=cfg.j0, E0=cfg.E0,
    )
    report = edge_report(params)
    if report.localized:
        obs = observables(report.p, report.theta, cfg.j0, cfg.E0)
        j_direct, j_paper, e_direct = obs.J_direct, obs.J_paper_form, obs.E_direct
    else:
        j_direct = j_paper = e_direct = None
    row = [
        field, report.p, report.theta, report.r, report.xi, report.weight,
        report.z_pole_sq.real, report.z_pole_sq.imag, report.quasi_energy,
        report.p_c, report.F_c, j_direct, j_paper, e_direct,
        report.localized, report.critical,
    ]
    return list(_EDGE_COLUMNS), [row]


_SWEEP_COLUMNS = ["F", "p", "r", "xi", "weight", "J_direct", "J_paper_form", "E_direct", "localized"]


def run_sweep(cfg: RunConfig) -> tuple[list[str], list[list]]:
    theta = cfg.gamma - cfg.gamma_tilde
    if cfg.log:
        grid = np.geomspace(cfg.fmin, cfg.fmax, cfg.points)
    else:
        grid = np.linspace(cfg.fmin, cfg.fmax, cfg.points)
    rows = []
    for field in grid:
        field = float(field)
        p = math.exp(-math.pi * cfg.fbar / field)
        r = decay_ratio(p, theta)
        if is_localized(p, theta):
            obs = observables(p, theta, cfg.j0, cfg.E0)
            row = [
                field, p, r, localization_length(p, theta), 1.0 - r,
                obs.J_direct, obs.J_paper_form, obs.E_direct, True,
            ]
        else:
            row = [field, p, r, None, 0.0, None, None, None, False]
        rows.append(row)
    return list(_SWEEP_COLUMNS), rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _render_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_value(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # JSON has no Infinity; keep it readable
    return value


def _render_json(cfg: RunConfig, header: list[str], rows: list[list]) -> str:
    config_echo = {
        f.name: _json_value(getattr(cfg, f.name))
        for f in fields(RunConfig)
        if getattr(cfg, f.name) is not None
    }
    payload = {
        "config": config_echo,
        "rows": [
            {key: _json_value(value) for key, value in zip(header, row)} for row in rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def run_verify(cfg: RunConfig) -> tuple[int, str]:
    results = verify.run_all(tau_max=cfg.tau_max, unitarity_tol=cfg.unitarity_tol)
    ok = all(res.passed for res in results)
    if cfg.format == "json":
        payload = {
            "checks": [
                {
                    "name": res.name,
                    "passed": res.passed,
                    "residual": res.residual,
                    "tol": res.tol,
                    "detail": res.detail,
                }
                for res in results
            ],
            "all_pass": ok,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "".join(res.line() + "\n" for res in results)
        text += ("ALL CHECKS PASS" if ok else "VERIFICATION FAILED") + "\n"
    return (0 if ok else 2), text


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        cfg = _resolve_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if cfg.mode == "verify":
            code, text = run_verify(cfg)
        else:
            runner = {
                "evolve": run_evolve,
                "series": run_series,
                "edge": run_edge,
                "sweep": run_sweep,
            }[cfg.mode]
            header, rows = runner(cfg)
            text = (
                _render_json(cfg, header, rows)
                if cfg.format == "json"
                else _render_csv(header, rows)
            )
            code = 0
    except (UsageError, ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: numerical self-check failed: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(cfg, text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    return code


def app() -> None:
    raise SystemExit(main())

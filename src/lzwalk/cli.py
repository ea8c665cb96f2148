"""Command-line interface: evolution snapshots, series expansion, edge
reports, field sweeps, and the self-verification suite.

Design notes.  Output is byte-deterministic for a fixed configuration on
one machine (BLAS and numpy pick CPU-specific kernels; see the README):
floats are printed with 17 significant digits (lossless for 64-bit values),
CSV uses comma separators and LF line endings, JSON uses a fixed key order.
Configuration files are flat ``key = value`` text; command-line flags
override file values, and unknown keys are hard errors so a typo in a
physics parameter cannot pass silently.  Each key is declared once, as a
``RunConfig`` field: its name gives the key and the flag (``_`` -> ``-``), its
annotation the value parser, and its default and metadata the help line.
``_validate_config`` checks every value, from a flag or from a file.
The model's phases enter as one key, ``theta`` = gamma - gamma_tilde: every
printed number depends on them through theta alone (beta and the common
part of gamma and gamma_tilde add a path-independent phase to every
amplitude).  ``evolve`` and ``series`` take their coins from
``edge.coin_pair``, in one gauge, so their bytes are a function of p and
``reduce_angle(theta)``; ``verify`` and ``edge.floquet_mode`` check these
same coins.

The ``evolve`` and ``series`` tables are made one amplitude snapshot
``(tau, psi_L, psi_R)`` at a time, from ``walk.trajectory`` or a column of
the series table, in ``_probability_rows``: the snapshot must sum to 1 by
``walk.total_probability``, then ``walk.probability`` forms |psi|^2 on its
light-cone sites n = tau (mod 2), which zip into rows, and each row fills one
%-template (``%d,%d,%.17g,%.17g`` in CSV, ``%d``/``%r`` cells in JSON).
The sum check fails on NaN and inf, so these cells are always ints and
finite floats.  The ``edge`` and ``sweep`` tables are row types of
``edge``: an ``edge`` row is an ``edge.EdgeReport``, a ``sweep`` row is F
and p followed by an ``edge.EdgePoint``, and each header is their field
names, so each column is named once.  Their cells can be None, booleans or
non-finite, and render cell by cell.  A ``verify --format json`` check is
the fields of a ``verify.CheckResult``.

Each mode loads only the engines it uses; the ``run_*`` functions import
them when called.  At import this module loads ``coin``, ``edge`` and
``errors`` alone, none of which imports numpy, so ``edge``, a linear
``sweep``, ``--help`` and every usage error run without numpy: their
process time is mostly interpreter start-up.  A ``--steps`` beyond the cap
of its mode (``errors.MAX_TABLE_STEPS`` for ``series``,
``errors.MAX_EVOLVE_STEPS`` for ``evolve``) is such a usage error; the
other modes ignore ``--steps``.  ``evolve``
loads ``walk``, ``series`` loads ``genfun`` and ``walk``, and ``verify``
loads every engine.  A linear sweep grid is computed in Python with the
float operations of ``np.linspace``, bit for bit; ``sweep --log`` loads
numpy for ``np.geomspace``, which a Python copy does not match in the last
bit.

Exit codes: 0 success, 1 usage/config error, 2 verification failure,
3 I/O error.  Every failure prints one ``error:`` line on stderr and no
traceback.  Exceptions map onto the codes by class:

* ``UsageError``, ``ValueError`` (bad physical input) -> 1;
* ``ResourceLimitError`` (a hard cap) and ``MemoryError`` -> 1;
* ``ArithmeticError`` (a failed numerical self-check, such as a snapshot
  that does not sum to 1 or a pole hit) -> 2, like a failed ``verify``;
* ``OSError`` while writing the output, or a ``--out`` path that
  contains a NUL (``ValueError``) -> 3.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import json
import math
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields
from itertools import repeat

from .coin import ModelParams, landau_zener_field, landau_zener_p
from .edge import EdgePoint, EdgeReport, coin_pair, edge_point, edge_report
from .errors import MAX_EVOLVE_STEPS, MAX_SWEEP_POINTS, MAX_TABLE_STEPS, TAU_CAP, TAU_MIN, ResourceLimitError

__all__ = ["RunConfig", "main", "app", "parse_config_text"]

MODES = ("evolve", "series", "edge", "sweep", "verify")


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


def _key(default, help: str):
    """A config key's field: its default, and the help line of its flag.  (A
    helper: the key ``field`` shadows ``dataclasses.field`` in ``RunConfig``.)"""
    return dataclasses.field(default=default, metadata={"help": help})


@dataclass
class RunConfig:
    """Resolved run configuration; None marks an unset optional value."""

    mode: str
    p: float | None = _key(None, "tunneling probability (alternative to --field)")
    field: float | None = _key(None, "electric field F (alternative to --p)")
    fbar: float = _key(1.0, "threshold field")
    theta: float = _key(0.0, "phase difference theta = gamma - gamma_tilde of the bulk and boundary coins")
    L: float = _key(1.0, "system length")
    j0: float = _key(1.0, "momentum unit")
    E0: float = _key(1.0, "energy unit")
    steps: int = _key(200, f"number of walk steps, at most {MAX_EVOLVE_STEPS}, {MAX_TABLE_STEPS} for series")
    fmin: float | None = _key(None, "sweep start field")
    fmax: float | None = _key(None, "sweep end field")
    points: int | None = _key(None, f"sweep grid size, 2 to {MAX_SWEEP_POINTS}")
    log: bool = _key(False, "logarithmic sweep grid")
    out: str | None = _key(None, "output path (default stdout)")
    format: str = _key("csv", "output format, csv or json")
    tau_max: int = _key(10, f"verify: path enumeration bound, {TAU_MIN} to {TAU_CAP}")
    unitarity_tol: float = _key(1e-11, "verify: tolerance of the norm-drift check")


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    class Parser(argparse.ArgumentParser):
        def error(self, message):  # exit 1, not argparse's default 2
            raise UsageError(message)

    # no prefix matching: "--ste" is a typo, as "ste = 2" is in a config file
    parser = Parser(
        prog="lzwalk",
        description="Bounded quantum walk model of field-driven level dynamics.",
        allow_abbrev=False,
    )
    # a negative float literal after a flag is that flag's value; argparse's
    # own pattern misses the exponent form and inf/nan, so it would read
    # "--theta -1e-3" as a flag with no value
    parser._negative_number_matcher = re.compile(
        r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
    )
    parser.add_argument("mode", choices=MODES, help="what to run")
    parser.add_argument("--config", metavar="PATH", help="flat key = value config file")
    for f in fields(RunConfig)[1:]:  # the fields after mode, the positional argument
        flag = "--" + f.name.replace("_", "-")
        text = f.metadata["help"]
        if f.type == "bool":  # default None: an unset flag keeps the file's value
            parser.add_argument(flag, action="store_true", default=None, help=text)
            continue
        if f.default is not None:
            shown = f.default if f.type == "str" else format(f.default, "g")
            text += f" (default {shown})"
        parser.add_argument(flag, type=_KEY_PARSERS[f.name], help=text)
    return parser


def _resolve_config(argv: list[str]) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    values: dict = {}
    if ns.config is not None:
        try:
            with open(ns.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
            raise UsageError(f"cannot read config file: {exc}") from exc
        values.update(parse_config_text(text))
        values.pop("mode", None)  # the positional argument wins
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
    for name, value in vars(cfg).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if cfg.format not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {cfg.format!r}")
    needs_point = cfg.mode in ("evolve", "series", "edge")
    # evolve and series take p = 1, the ballistic walk; edge needs 0 < p < 1
    closed = cfg.mode in ("evolve", "series")
    if needs_point:
        if (cfg.p is None) == (cfg.field is None):
            raise UsageError(f"mode {cfg.mode!r} needs exactly one of --p or --field")
        if cfg.p is not None and not (0.0 < cfg.p < 1.0 or (closed and cfg.p == 1.0)):
            raise UsageError(
                f"--p must lie in (0, 1{']' if closed else ')'} for mode {cfg.mode!r}, got {cfg.p}"
            )
        if cfg.field is not None and cfg.field <= 0.0:
            raise UsageError(f"--field must be positive, got {cfg.field}")
    if cfg.mode in ("evolve", "series"):
        cap = MAX_TABLE_STEPS if cfg.mode == "series" else MAX_EVOLVE_STEPS
        if not 0 <= cfg.steps <= cap:
            raise UsageError(f"--steps must lie in [0, {cap}], got {cfg.steps}")
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
    if cfg.mode == "verify" and not TAU_MIN <= cfg.tau_max <= TAU_CAP:
        raise UsageError(
            f"--tau-max must lie in [{TAU_MIN}, {TAU_CAP}], got {cfg.tau_max}"
        )
    for flag, value in (("fbar", cfg.fbar), ("L", cfg.L), ("unitarity-tol", cfg.unitarity_tol)):
        if value <= 0.0:
            raise UsageError(f"--{flag} must be positive, got {value}")
    # a field must give a p in the range --p takes; p grows with the field,
    # so a sweep checks its two ends
    if cfg.mode == "sweep":
        ends = ("fmin", "fmax")
    else:
        ends = ("field",) if needs_point and cfg.field is not None else ()
    for flag in ends:
        field = getattr(cfg, flag)
        p = landau_zener_p(field, cfg.fbar)
        if not (0.0 < p < 1.0 or (closed and p == 1.0)):
            raise UsageError(
                f"--{flag} {field} gives p = exp(-pi*Fbar/F) = {p}, outside "
                f"(0, 1{']' if closed else ')'} for mode {cfg.mode!r}"
            )
    # edge reports the field of a --p and evaluates p = exp(-pi*Fbar/F) from
    # it, so the printed p can differ from --p in the last bits even for a
    # normal F (--p 0.5 --theta pi/4 prints 0.50000000000000011); a subnormal
    # F has lost more bits than that, and an infinite one is no field
    if cfg.mode == "edge" and cfg.p is not None:
        field = landau_zener_field(cfg.p, cfg.fbar)
        if not sys.float_info.min <= field <= sys.float_info.max:
            raise UsageError(
                f"--p {cfg.p} with --fbar {cfg.fbar} gives F = -pi*Fbar/ln(p) = {field}, "
                "outside the normal float range"
            )
    # a subnormal field or threshold has lost bits, and F and p with it;
    # a subnormal fmax implies a subnormal fmin, which is named first
    for flag in (*ends, "fbar"):
        value = getattr(cfg, flag)
        if value < sys.float_info.min:
            raise UsageError(
                f"--{flag} {value} is below the smallest normal float, {sys.float_info.min}"
            )


def _resolve_p(cfg: RunConfig) -> float:
    if cfg.p is not None:
        return cfg.p
    return landau_zener_p(cfg.field, cfg.fbar)


def _snapshot_times(steps: int) -> list[int]:
    """{0, steps/4, steps/2, 3 steps/4, steps}; interior times on even tau."""
    times = {0, steps}
    for frac in (0.25, 0.5, 0.75):
        t = 2 * int(round(frac * steps / 2.0))
        times.add(min(t, steps))
    return sorted(times)


# The table of evolve and series.  Its rows come from _probability_rows, so
# tau and n are ints and, past the snapshot-sum check, every probability is
# a finite float: the renderers fill one %-template per row for it, where
# "%.17g" prints such a float as _fmt does and "%r" as float.__repr__.
_PROBABILITY_COLUMNS = ["tau", "n", "prob_L", "prob_R"]
_PROBABILITY_CSV_ROW = "%d,%d,%.17g,%.17g"
_PROBABILITY_JSON_CELLS = ("%d", "%d", "%r", "%r")


def _probability_rows(
    snapshots: Iterable[tuple[int, np.ndarray, np.ndarray]],
) -> Iterator[tuple[int, int, float, float]]:
    """(tau, n, prob_L, prob_R) rows from amplitude snapshots on [0, tau].

    Each whole snapshot, off-cone sites included, must sum to 1 within 1e-10
    before any of its rows is made; the check fails on NaN and inf.  Every
    printed probability is ``walk.probability`` of its amplitude on the
    light cone.
    """
    from .walk import probability, total_probability

    for tau, psi_L, psi_R in snapshots:
        total = total_probability(psi_L, psi_R)
        if not abs(total - 1.0) <= 1e-10:  # fails on NaN too
            raise ArithmeticError(f"snapshot at tau={tau} sums to {total!r}, not 1")
        cone = slice(tau % 2, None, 2)
        yield from zip(
            repeat(tau),
            range(tau % 2, tau + 1, 2),
            probability(psi_L[cone]).tolist(),
            probability(psi_R[cone]).tolist(),
        )


def run_evolve(cfg: RunConfig) -> tuple[list[str], Iterator[tuple]]:
    from .walk import trajectory

    snapshots = list(trajectory(*coin_pair(_resolve_p(cfg), cfg.theta), _snapshot_times(cfg.steps)))
    return list(_PROBABILITY_COLUMNS), _probability_rows(snapshots)


def run_series(cfg: RunConfig) -> tuple[list[str], Iterator[tuple]]:
    from .genfun import bounded_gf_table

    times = _snapshot_times(cfg.steps)
    coins = coin_pair(_resolve_p(cfg), cfg.theta)
    tab_L, tab_R = bounded_gf_table(*coins, cfg.steps, max(cfg.steps + 1, 2), columns=times)
    snapshots = [(tau, tab_L[: tau + 1, i], tab_R[: tau + 1, i]) for i, tau in enumerate(times)]
    return list(_PROBABILITY_COLUMNS), _probability_rows(snapshots)


def run_edge(cfg: RunConfig) -> tuple[list[str], list[EdgeReport]]:
    field = cfg.field if cfg.field is not None else landau_zener_field(cfg.p, cfg.fbar)
    params = ModelParams(F=field, Fbar=cfg.fbar, gamma=cfg.theta, L=cfg.L, j0=cfg.j0, E0=cfg.E0)
    return list(EdgeReport._fields), [edge_report(params)]


_SWEEP_COLUMNS = ["F", "p", *EdgePoint._fields]


def run_sweep(cfg: RunConfig) -> tuple[list[str], Iterator[list]]:
    if cfg.log:
        # a pure-Python copy of np.geomspace (log10, then 10**y) differed
        # from it in 34 547 of 520 976 grid entries, so the log grid keeps
        # numpy's own
        import numpy as np

        grid = np.geomspace(cfg.fmin, cfg.fmax, cfg.points).tolist()
    else:
        grid = _linear_grid(cfg.fmin, cfg.fmax, cfg.points)
    return list(_SWEEP_COLUMNS), _sweep_rows(cfg, grid)


def _linear_grid(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num).tolist()`` for num >= 2, bit for bit.

    The same float64 operations in the same order: each entry is
    i * step + start, or i / div * delta + start when the step underflows
    to 0, and the last entry is stop itself.
    """
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0:
        grid = [i / div * delta + start for i in range(num)]
    else:
        grid = [i * step + start for i in range(num)]
    grid[-1] = stop
    return grid


def _sweep_rows(cfg: RunConfig, grid: list[float]) -> Iterator[list]:
    """One row per field, made as the renderer asks for it.

    A bad grid point raises while the rows are rendered, before anything
    is written.
    """
    theta, fbar, j0, E0 = cfg.theta, cfg.fbar, cfg.j0, cfg.E0
    for field in grid:
        p = landau_zener_p(field, fbar)
        yield [field, p, *edge_point(p, theta, j0, E0)]


def _cell(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _render_csv(header: list[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    if header == _PROBABILITY_COLUMNS:
        lines += map(_PROBABILITY_CSV_ROW.__mod__, rows)
    else:
        lines += [",".join(map(_cell, row)) for row in rows]
    lines.append("")  # the final LF
    return "\n".join(lines)


def _json_value(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # JSON has no Infinity; keep it readable
    return value


def _json_cell(value) -> str:
    """``json.dumps(_json_value(value))``; finite floats, None and booleans,
    the cells of ``edge`` and ``sweep`` rows, are written without the
    encoder."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(_json_value(value))


def _render_json(cfg: RunConfig, header: list[str], rows: Iterable[Sequence]) -> str:
    """The bytes of ``json.dumps({"config": ..., "rows": [...]}, indent=2)``.

    The small config object goes through the encoder; each row fills one
    %-template, an object at indent 4 with one "key": cell entry per line.
    A probability row fills it directly, any other row with ``_json_cell``
    of each cell.
    """
    config_echo = {
        f.name: _json_value(getattr(cfg, f.name))
        for f in fields(RunConfig)
        if getattr(cfg, f.name) is not None
    }
    config = json.dumps(config_echo, indent=2).replace("\n", "\n  ")
    probability = header == _PROBABILITY_COLUMNS
    cells = _PROBABILITY_JSON_CELLS if probability else ("%s",) * len(header)
    template = "{\n      " + ",\n      ".join(
        json.dumps(key).replace("%", "%%") + ": " + cell for key, cell in zip(header, cells)
    ) + "\n    }"
    if probability:
        objects = list(map(template.__mod__, rows))
    else:
        objects = [template % tuple(map(_json_cell, row)) for row in rows]
    head = '{\n  "config": ' + config + ',\n  "rows": ['
    if not objects:
        return head + "]\n}\n"
    # the document is one join over the objects, with no copy of the rows
    objects[0] = head + "\n    " + objects[0]
    objects[-1] += "\n  ]\n}\n"
    return ",\n    ".join(objects)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def run_verify(cfg: RunConfig) -> tuple[int, str]:
    from .verify import run_all

    results = run_all(tau_max=cfg.tau_max, unitarity_tol=cfg.unitarity_tol)
    ok = all(res.passed for res in results)
    if cfg.format == "json":
        checks = [{f.name: _json_value(getattr(res, f.name)) for f in fields(res)} for res in results]
        payload = {"checks": checks, "all_pass": ok}
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
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the --out path
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    return code


def app() -> None:
    raise SystemExit(main())


# none of these is called here; benches/spans.py wraps them by name on this
# module, so they resolve on first access, and importing this module loads
# no engine
_SPAN_TARGETS = {
    "initial_state": "walk", "step": "walk", "bounded_gf_table": "genfun",
    "make_bulk_coin": "coin", "make_boundary_coin": "coin",
    "decay_ratio": "edge", "is_localized": "edge", "localization_length": "edge", "observables": "edge",
}


def __getattr__(name: str):
    module = _SPAN_TARGETS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __package__), name)

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lzwalk.genfun
import lzwalk.verify
import lzwalk.walk
from lzwalk import cli
from lzwalk.cli import RunConfig, main, parse_config_text
from lzwalk.coin import ModelParams, landau_zener_p, make_boundary_coin, make_bulk_coin, reduce_angle
from lzwalk.edge import (
    CRITICAL_BAND,
    EdgePoint,
    EdgeReport,
    decay_ratio,
    edge_report,
    is_localized,
    localization_length,
    observables,
    pole,
    quasi_energy,
)
from lzwalk.errors import (
    MAX_EVOLVE_STEPS,
    MAX_SWEEP_POINTS,
    MAX_TABLE_STEPS,
    TAU_CAP,
    TAU_MIN,
    ResourceLimitError,
)
from lzwalk.verify import CheckResult
from conftest import j_paper_exact

THETA = math.pi / 4


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_config_round_trip():
    text = """\
mode = sweep
fbar = 1
theta = 0.78539816339744828
L = 1
j0 = 1
E0 = 1
steps = 200
fmin = 0.5
fmax = 6
points = 12
log = true
out = x.csv
format = json
tau_max = 10
unitarity_tol = 9.9999999999999994e-12
"""
    cfg = RunConfig(
        mode="sweep", fbar=1.0, theta=THETA, fmin=0.5, fmax=6.0, points=12,
        log=True, format="json", out="x.csv",
    )
    parsed = parse_config_text(text)
    mode = parsed.pop("mode")
    assert RunConfig(mode=mode, **parsed) == cfg


def test_config_skips_comment_and_blank_lines():
    assert parse_config_text("# a comment\n\n   \n  # indented\nsteps = 4\n") == {"steps": 4}


def test_config_bool_takes_only_true_and_false():
    assert parse_config_text("log = false") == {"log": False}
    with pytest.raises(cli.UsageError, match="config line 2: bad value for 'log': 'yes'"):
        parse_config_text("steps = 4\nlog = yes\n")


def test_config_rejects_unknown_and_duplicate_keys(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("stepz = 10\n")
    code, _, err = run_cli(capsys, "evolve", "--p", "0.2", "--config", str(bad))
    assert code == 1 and "unknown key" in err
    bad.write_text("steps = 10\nsteps = 11\n")
    code, _, err = run_cli(capsys, "evolve", "--p", "0.2", "--config", str(bad))
    assert code == 1 and "duplicate" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 0.2\ntheta = 0.5\nsteps = 4\n")
    code, out, _ = run_cli(capsys, "evolve", "--config", str(cfg), "--steps", "2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["tau", "n", "prob_L", "prob_R"]
    assert max(int(r[0]) for r in rows) == 2  # flag overrode the file value


# a value other than the default for each config key, as both a flag and a
# config line write it
KEY_VALUES = {
    "p": "0.3", "field": "2.5", "fbar": "1.5", "theta": "-1e-3", "L": "2", "j0": "3",
    "E0": "4", "steps": "7", "fmin": "0.5", "fmax": "6", "points": "12", "log": "true",
    "out": "x.csv", "format": "json", "tau_max": "12", "unitarity_tol": "1e-9",
}


def _flag_argv(key, value):
    flag = "--" + key.replace("_", "-")
    return [flag] if value == "true" else [flag, value]


def test_every_key_has_one_flag_and_one_config_line(tmp_path):
    # verify mode reads no p, field, steps or sweep key, so it takes each alone
    assert set(KEY_VALUES) == {f.name for f in fields(RunConfig)} - {"mode"}
    default = RunConfig(mode="verify")
    path = tmp_path / "run.cfg"
    for key, value in KEY_VALUES.items():
        path.write_text(f"{key} = {value}\n")
        from_flag = cli._resolve_config(["verify", *_flag_argv(key, value)])
        from_file = cli._resolve_config(["verify", "--config", str(path)])
        assert from_flag == from_file, key
        assert getattr(from_flag, key) != getattr(default, key), key
    path.write_text("".join(f"{key} = {value}\n" for key, value in KEY_VALUES.items()))
    argv = [arg for key, value in KEY_VALUES.items() for arg in _flag_argv(key, value)]
    assert cli._resolve_config(["verify", *argv]) == cli._resolve_config(["verify", "--config", str(path)])


# the default each help line names; the other keys default to unset
HELP_DEFAULTS = {
    "fbar": "1", "theta": "0", "L": "1", "j0": "1", "E0": "1", "steps": "200",
    "out": "stdout", "format": "csv", "tau_max": "10", "unitarity_tol": "1e-11",
}


def test_help_names_each_flag_once_with_its_default(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    options = capsys.readouterr().out.split("\noptions:\n")[1]
    # one entry per option, from its flag to the next flag, wrapping undone
    entries = [" ".join(entry.split()) for entry in ("\n" + options).split("\n  -")[1:]]
    flags = [entry.split()[0] for entry in entries]
    keys = [f for f in fields(RunConfig) if f.name != "mode"]
    assert sorted(flags) == sorted(["h,", "-config", *("-" + f.name.replace("_", "-") for f in keys)])
    for f in keys:
        entry = entries[flags.index("-" + f.name.replace("_", "-"))]
        assert entry.count(f.metadata["help"]) == 1
        shown = HELP_DEFAULTS.get(f.name)
        if shown is None:
            assert "(default" not in entry, entry
        else:
            assert entry.endswith(f"(default {shown})"), entry
            assert shown == "stdout" or shown == str(f.default) or float(shown) == f.default


def test_bad_format_has_one_message_from_flag_and_file(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("format = xml\n")
    from_flag = run_cli(capsys, "edge", "--p", "0.2", "--format", "xml")
    from_file = run_cli(capsys, "edge", "--p", "0.2", "--config", str(path))
    assert from_flag == from_file == (1, "", "error: format must be csv or json, got 'xml'\n")


def test_unreadable_config_text_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"p = 0.2\xff\n")
    for path in (str(bad), str(tmp_path / "a\0b.cfg")):
        code, out, err = run_cli(capsys, "evolve", "--config", path)
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read config file: ") and err.count("\n") == 1


def test_evolve_zero_steps(capsys):
    code, out, _ = run_cli(capsys, "evolve", "--p", "0.2", "--steps", "0")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows == [["0", "0", "1", "0"]]


def test_evolve_ballistic_single_front_row(capsys):
    code, out, _ = run_cli(capsys, "evolve", "--p", "1", "--steps", "50")
    assert code == 0
    _, rows = parse_csv(out)
    last = [r for r in rows if r[0] == "50"]
    nonzero = [r for r in last if float(r[2]) + float(r[3]) > 0]
    assert len(nonzero) == 1
    assert nonzero[0][1] == "50" and float(nonzero[0][3]) == pytest.approx(1.0)


def test_evolve_snapshots_sum_to_one(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--p", "0.2", "--theta", str(THETA), "--steps", "200"
    )
    assert code == 0
    _, rows = parse_csv(out)
    taus = sorted({int(r[0]) for r in rows})
    assert taus == [0, 50, 100, 150, 200]
    for tau in taus:
        total = sum(float(r[2]) + float(r[3]) for r in rows if int(r[0]) == tau)
        assert total == pytest.approx(1.0, abs=1e-10)


def assert_series_matches_evolve(capsys, p, steps):
    args = ("--p", p, "--theta", str(THETA), "--steps", steps)
    code_e, out_e, _ = run_cli(capsys, "evolve", *args)
    code_s, out_s, _ = run_cli(capsys, "series", *args)
    assert code_e == 0 and code_s == 0
    _, rows_e = parse_csv(out_e)
    _, rows_s = parse_csv(out_s)
    assert len(rows_e) == len(rows_s)
    for re_, rs_ in zip(rows_e, rows_s):
        assert re_[:2] == rs_[:2]
        for got, want in ((float(rs_[2]), float(re_[2])), (float(rs_[3]), float(re_[3]))):
            assert got == pytest.approx(want, abs=1e-10)
            if want > 1e-250:
                assert got == pytest.approx(want, rel=1e-10, abs=0)


def test_series_mode_agrees_with_evolve(capsys):
    assert_series_matches_evolve(capsys, "0.2", "24")


@pytest.mark.parametrize(
    "p, steps",
    [pytest.param(p, "800", id=p) for p in ("0.2", "0.49", "0.8", "1", "1e-300")]
    # the cap, at the p whose table holds the most subnormal entries
    + [pytest.param("0.2", "2000", id="0.2-cap")],
)
def test_series_mode_agrees_with_evolve_long_horizon(capsys, p, steps):
    # long rows exercise the per-row truncation of the series table
    assert_series_matches_evolve(capsys, p, steps)


def test_series_with_a_nan_probability_exits_2(monkeypatch, capsys):
    table = lzwalk.genfun.bounded_gf_table

    def planted(*args, **kwargs):
        tab_L, tab_R = table(*args, **kwargs)
        tab_L = tab_L.copy()
        tab_L[3, -1] = complex(math.nan, 0.0)
        return tab_L, tab_R

    monkeypatch.setattr(lzwalk.genfun, "bounded_gf_table", planted)
    code, out, err = run_cli(capsys, "series", "--p", "0.2", "--steps", "8")
    assert code == 2 and out == ""
    assert err == "error: numerical self-check failed: snapshot at tau=8 sums to nan, not 1\n"


def test_evolve_with_a_nan_probability_exits_2(monkeypatch, capsys):
    trajectory = lzwalk.walk.trajectory

    def planted(*args, **kwargs):
        snapshots = list(trajectory(*args, **kwargs))
        tau, psi_L, psi_R = snapshots[2]  # rows of earlier snapshots come first
        psi_L = psi_L.copy()
        psi_L[tau] = math.nan
        snapshots[2] = (tau, psi_L, psi_R)
        return snapshots

    monkeypatch.setattr(lzwalk.walk, "trajectory", planted)
    for fmt in ("csv", "json"):
        code, out, err = run_cli(capsys, "evolve", "--p", "0.2", "--steps", "8", "--format", fmt)
        assert code == 2 and out == ""
        assert err == "error: numerical self-check failed: snapshot at tau=4 sums to nan, not 1\n"


def _plant_in_trajectory(monkeypatch, drift, totals):
    """Add ``drift`` to the total of the tau = 4 snapshot of an 8-step evolve."""
    trajectory = lzwalk.walk.trajectory

    def planted(*args, **kwargs):
        snapshots = list(trajectory(*args, **kwargs))
        tau, psi_L, psi_R = snapshots[2]
        psi_L = psi_L.copy()
        psi_L[tau - 1] = math.sqrt(drift)  # a site of the wrong parity: no row prints it
        snapshots[2] = (tau, psi_L, psi_R)
        totals.append(lzwalk.walk.total_probability(psi_L, psi_R))
        return snapshots

    monkeypatch.setattr(lzwalk.walk, "trajectory", planted)


def _plant_in_table(monkeypatch, drift, totals):
    """Add ``drift`` to the total of the tau = 8 column of an 8-step series."""
    table = lzwalk.genfun.bounded_gf_table

    def planted(*args, **kwargs):
        tab_L, tab_R = table(*args, **kwargs)
        tab_L = tab_L.copy()
        tab_L[3, -1] = math.sqrt(drift)  # a site of the wrong parity: no row prints it
        totals.append(lzwalk.walk.total_probability(tab_L[:, -1], tab_R[:, -1]))
        return tab_L, tab_R

    monkeypatch.setattr(lzwalk.genfun, "bounded_gf_table", planted)


PLANTS = [
    pytest.param(_plant_in_trajectory, "evolve", 4, id="evolve"),
    pytest.param(_plant_in_table, "series", 8, id="series"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("plant, mode, tau", PLANTS)
def test_a_snapshot_off_by_more_than_1e_10_exits_2(monkeypatch, capsys, plant, mode, tau, fmt):
    totals = []
    plant(monkeypatch, 2e-10, totals)
    code, out, err = run_cli(capsys, mode, "--p", "0.2", "--steps", "8", "--format", fmt)
    (total,) = totals
    assert 1.0 + 1.5e-10 < total < 1.0 + 2.5e-10
    assert code == 2 and out == ""
    assert err == f"error: numerical self-check failed: snapshot at tau={tau} sums to {total!r}, not 1\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("plant, mode, tau", PLANTS)
def test_a_snapshot_off_by_less_than_1e_10_passes(monkeypatch, capsys, plant, mode, tau, fmt):
    argv = (mode, "--p", "0.2", "--steps", "8", "--format", fmt)
    clean = run_cli(capsys, *argv)
    totals = []
    plant(monkeypatch, 5e-11, totals)
    planted = run_cli(capsys, *argv)
    (total,) = totals
    assert 1.0 + 2.5e-11 < total < 1.0 + 7.5e-11
    assert planted == clean and clean[0] == 0


def test_distribution_equals_the_evolve_rows_bit_for_bit(capsys):
    steps = 400
    code, out, _ = run_cli(capsys, "evolve", "--p", "0.3", "--theta", str(THETA), "--steps", str(steps))
    assert code == 0
    _, rows = parse_csv(out)
    printed = [(int(n), float(pl).hex(), float(pr).hex()) for tau, n, pl, pr in rows if tau == str(steps)]
    # the CLI's gauge: a real bulk coin, all of theta in the boundary phase
    state = lzwalk.walk.evolve(make_bulk_coin(0.3, 0.0, 0.0), make_boundary_coin(-THETA), steps)
    rows = cli._probability_rows([(steps, state.psi_L, state.psi_R)])
    assert [(n, pl.hex(), pr.hex()) for _, n, pl, pr in rows] == printed


def test_series_zero_steps(capsys):
    code, out, _ = run_cli(capsys, "series", "--p", "0.2", "--steps", "0")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows == [["0", "0", "1", "0"]]


def test_edge_mode_row_matches_module(capsys):
    code, out, _ = run_cli(capsys, "edge", "--p", "0.2", "--theta", str(THETA))
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    r = decay_ratio(0.2, THETA)
    obs = observables(0.2, THETA)
    assert float(row["p"]) == pytest.approx(0.2, rel=1e-15)
    assert float(row["r"]) == pytest.approx(r, rel=1e-14)
    assert float(row["xi"]) == pytest.approx(localization_length(0.2, THETA), rel=1e-14)
    assert float(row["weight"]) == pytest.approx(1 - r, rel=1e-14)
    assert float(row["J_direct"]) == pytest.approx(obs.J_direct, rel=1e-14)
    assert float(row["E_direct"]) == pytest.approx(obs.E_direct, rel=1e-14)
    assert row["localized"] == "true"
    # the derived field reproduces p through exp(-pi Fbar / F)
    assert math.exp(-math.pi / float(row["F"])) == pytest.approx(0.2, rel=1e-12)


@pytest.mark.parametrize("p", ["0.5", "0.2", "0.9", "1e-300", "0.999999"])
def test_edge_prints_the_p_of_its_printed_field(capsys, p):
    # edge reports F = -pi*Fbar/ln(--p) and p = exp(-pi*Fbar/F) of that F,
    # which can differ from --p in the last bits
    code, out, _ = run_cli(capsys, "edge", "--p", p, "--theta", str(THETA))
    assert code == 0
    header, (row,) = parse_csv(out)
    cells = dict(zip(header, row))
    assert float(cells["p"]).hex() == landau_zener_p(float(cells["F"]), 1.0).hex()
    if p == "0.5":
        assert cells["p"] == "0.50000000000000011"


def test_edge_mode_rejects_p_one(capsys):
    code, _, err = run_cli(capsys, "edge", "--p", "1")
    assert code == 1 and "--p" in err


@pytest.mark.parametrize("theta", [THETA, 2.5])
def test_edge_takes_the_largest_p_below_one(capsys, theta):
    # --p takes all of (0, 1), as --field does
    p = math.nextafter(1.0, 0.0)
    code, out, err = run_cli(capsys, "edge", "--p", repr(p), "--theta", repr(theta))
    assert (code, err) == (0, "")
    header, (row,) = parse_csv(out)
    assert math.isfinite(float(dict(zip(header, row))["F"]))


def test_sweep_columns_and_delocalized_rows(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--theta", str(THETA), "--fbar", "1",
        "--fmin", "0.5", "--fmax", "6", "--points", "23",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["F", "p", "r", "xi", "weight", "J_direct", "J_paper_form", "E_direct", "localized"]
    assert len(rows) == 23
    f_c = math.pi / math.log(2.0)
    for row in rows:
        rec = dict(zip(header, row))
        field = float(rec["F"])
        if rec["localized"] == "true":
            assert field < f_c + 1e-9
            assert float(rec["weight"]) > 0
            assert rec["xi"] != "" and rec["E_direct"] != ""
        else:
            assert field > f_c - 1e-9
            assert rec["weight"] == "0"
            assert rec["xi"] == "" and rec["J_direct"] == "" and rec["E_direct"] == ""
    weights = [float(dict(zip(header, row))["weight"]) for row in rows]
    assert all(a >= b - 1e-12 for a, b in zip(weights, weights[1:]))


# fixed before running: theta unreduced, negative, obtuse, 0 and pi/2, the
# difference of two phases, a log grid, another Fbar, other units, and a
# grid of one field at F_c, inside CRITICAL_BAND
SWEEP_GRIDS = [
    ("--theta", repr(THETA + 4 * math.pi)),
    ("--theta", "-0.6"),
    ("--theta", "2.3"),
    ("--theta", "0"),
    ("--theta", repr(math.pi / 2)),
    ("--theta", repr(1.3 - 0.5)),
    ("--theta", str(THETA), "--log"),
    ("--theta", "0.9", "--fbar", "2"),
    ("--theta", str(THETA), "--j0", "3", "--E0", "0.5"),
    ("--theta", str(THETA), "--fmin", repr(math.pi / math.log(2.0)),
     "--fmax", repr(math.pi / math.log(2.0)), "--points", "2"),
]


@pytest.mark.parametrize(
    "flags", SWEEP_GRIDS,
    ids=["unreduced", "negative", "obtuse", "zero", "right", "phases", "log", "fbar",
         "units", "critical"],
)
def test_sweep_rows_equal_the_per_point_functions(capsys, flags):
    argv = ["sweep", "--fmin", "0.05", "--fmax", "12", "--points", "31", *flags]
    cfg = cli._resolve_config(argv)
    header, rows = cli.run_sweep(cfg)
    rows = list(rows)
    theta = cfg.theta
    assert len(rows) == cfg.points
    for row in rows:
        field, p, r = row[:3]
        assert p == math.exp(-math.pi * cfg.fbar / field)
        assert r == decay_ratio(p, theta)
        assert row[-1] is is_localized(p, theta)
        if row[-1]:
            obs = observables(p, theta, cfg.j0, cfg.E0)
            assert row[3:8] == [
                localization_length(p, theta), 1.0 - r, obs.J_direct, obs.J_paper_form,
                obs.E_direct,
            ]
        else:
            assert row[3:8] == [None, 0.0, None, None, None]
    if "--points" in flags:  # the grid at F_c
        assert all(abs(row[2] - 1.0) <= CRITICAL_BAND for row in rows)
    # the printed rows are these rows, each float to the last bit
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    printed_header, printed = parse_csv(out)
    assert printed_header == header
    for row, cells in zip(rows, printed, strict=True):
        for value, cell in zip(row, cells, strict=True):
            if isinstance(value, float):
                assert float(cell) == value


# a localized, a critical, a delocalized and an obtuse point, then an
# unreduced negative phase with other units and a point set by its field
EDGE_POINTS = [
    ("--p", "0.2", "--theta", str(THETA)),
    ("--p", "0.5", "--theta", str(THETA)),
    ("--p", "0.8", "--theta", str(THETA)),
    ("--p", "0.8", "--theta", "2.3"),
    ("--p", "0.3", "--theta", "-8.5", "--j0", "3", "--E0", "0.5", "--L", "2"),
    ("--field", "2", "--fbar", "2", "--theta", repr(1.3 - 0.5)),
]


@pytest.mark.parametrize(
    "flags", EDGE_POINTS,
    ids=["localized", "critical", "delocalized", "obtuse", "unreduced", "field"],
)
def test_edge_row_equals_the_per_point_functions(flags):
    cfg = cli._resolve_config(["edge", *flags])
    header, rows = cli.run_edge(cfg)
    (row,) = rows
    rec = dict(zip(header, row))
    params = ModelParams(F=rec["F"], Fbar=cfg.fbar, gamma=cfg.theta, L=cfg.L, j0=cfg.j0, E0=cfg.E0)
    report = edge_report(params)
    theta = cfg.theta
    p = rec["p"]
    assert p == params.p
    assert rec["r"] == report.r == decay_ratio(p, theta)
    z2 = pole(p, theta)
    assert (rec["z_pole_sq_re"], rec["z_pole_sq_im"]) == (z2.real, z2.imag)
    assert (rec["p_c"], rec["F_c"]) == (report.p_c, report.F_c)
    assert (rec["localized"], rec["critical"]) == (report.localized, report.critical)
    assert rec["localized"] is is_localized(p, theta)
    if flags[1] == "0.5":
        assert rec["critical"]
    if rec["localized"]:
        obs = observables(p, theta, cfg.j0, cfg.E0)
        assert rec["xi"] == report.xi == localization_length(p, theta)
        assert rec["weight"] == report.weight == 1.0 - report.r
        assert rec["quasi_energy"] == report.quasi_energy == quasi_energy(params)
        assert (rec["J_direct"], rec["J_paper_form"], rec["E_direct"]) == (
            obs.J_direct, obs.J_paper_form, obs.E_direct,
        )
        assert (report.J_direct, report.J_paper_form, report.E_direct) == obs
    else:
        assert [rec[k] for k in ("xi", "quasi_energy", "J_direct", "J_paper_form", "E_direct")] == [None] * 5
        assert (report.J_direct, report.J_paper_form, report.E_direct) == (None, None, None)
        assert rec["weight"] == report.weight == 0.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "grid",
    [
        (("--fmin", "0.5", "--fmax", "1e308", "--log"), "--fmax 1e+308 gives p = exp(-pi*Fbar/F) = 1.0,"),
        (("--fmin", "1e-300", "--fmax", "2"), "--fmin 1e-300 gives p = exp(-pi*Fbar/F) = 0.0,"),
    ],
    ids=["p-reaches-1", "p-underflows"],
)
def test_sweep_grid_outside_p_range_exits_1(monkeypatch, capsys, grid, fmt):
    # the end of the grid whose p leaves (0, 1) is named before any work
    monkeypatch.setattr(cli, "edge_point", None)
    args, message = grid
    code, out, err = run_cli(capsys, "sweep", *args, "--points", "5", "--format", fmt)
    assert code == 1 and out == ""
    assert err == f"error: {message} outside (0, 1) for mode 'sweep'\n"


@pytest.mark.parametrize(
    "args, interval",
    [
        (("evolve", "--field", "1e-3"), "(0, 1]"),
        (("series", "--field", "1e-3"), "(0, 1]"),
        (("edge", "--field", "1e-3"), "(0, 1)"),
        (("sweep", "--fmin", "1e-3", "--fmax", "1e-2", "--points", "3"), "(0, 1)"),
    ],
    ids=["evolve", "series", "edge", "sweep"],
)
def test_field_whose_p_underflows_is_named(capsys, args, interval):
    # every mode names the field it was given, not the p = 0 it derived
    code, out, err = run_cli(capsys, *args)
    message = f"{args[1]} 0.001 gives p = exp(-pi*Fbar/F) = 0.0, outside {interval} for mode {args[0]!r}"
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "fbar, field",
    [("1e-320", "2.6097e-320"), ("1e-310", "2.6093551634239e-310"), ("1e308", "inf")],
    ids=["subnormal-field", "subnormal-field-near-normal", "infinite-field"],
)
def test_edge_p_whose_field_is_not_normal_exits_1(capsys, fbar, field):
    # edge derives F from --p and reports p = exp(-pi*Fbar/F): a subnormal F
    # does not give --p back, an infinite one would be named as if given
    code, out, err = run_cli(capsys, "edge", "--p", "0.3", "--theta", "0.78", "--fbar", fbar)
    message = (
        f"--p 0.3 with --fbar {float(fbar)} gives F = -pi*Fbar/ln(p) = {field}, "
        "outside the normal float range"
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "args, flag, value",
    [
        (("edge", "--field", "2e-310", "--fbar", "1e-310", "--theta", "0.78"), "--field", 2e-310),
        (
            ("sweep", "--fmin", "2e-310", "--fmax", "3e-310", "--fbar", "1e-310", "--points", "2"),
            "--fmin",
            2e-310,
        ),
        (("evolve", "--field", "1e-310", "--fbar", "5e-311"), "--field", 1e-310),
        (("evolve", "--field", "1e-300", "--fbar", "1e-310", "--steps", "2"), "--fbar", 1e-310),
        (("verify", "--fbar", "4e-324"), "--fbar", 5e-324),
    ],
    ids=["edge-field", "sweep-fmin", "evolve-field", "evolve-fbar", "verify-fbar"],
)
def test_subnormal_field_flags_exit_1(monkeypatch, capsys, args, flag, value):
    # each of these derived p in range, so the run went on with F and p off
    # in their last bits
    monkeypatch.setattr(lzwalk.verify, "run_all", None)
    code, out, err = run_cli(capsys, *args)
    message = f"{flag} {value} is below the smallest normal float, {sys.float_info.min}"
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_smallest_normal_field_is_accepted(capsys):
    tiny = str(sys.float_info.min)
    code, out, err = run_cli(capsys, "evolve", "--field", tiny, "--fbar", tiny, "--steps", "2")
    assert code == 0 and err == ""


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_linear_sweep_grid_is_np_linspace_bit_for_bit():
    # the linear grid is computed without numpy; --log still calls
    # np.geomspace, because a Python copy of it (log10, then 10**y) differed
    # from it in 34 547 of 520 976 entries
    rng = np.random.default_rng(19)
    cases = [
        (1.0, 1.0, 5),  # fmin == fmax
        (1.0, math.nextafter(1.0, 2.0), 9),  # adjacent floats
        (5e-324, 1e-323, 100),  # the step underflows to 0
        (0.5, 6.0, 2),
        (0.5, 6.0, MAX_SWEEP_POINTS),
        (1e-300, 1e-295, MAX_SWEEP_POINTS),
    ]
    for _ in range(300):
        fmin = 10.0 ** rng.uniform(-300.0, 300.0)
        span = 10.0 ** rng.uniform(-16.0, 5.0)
        cases.append((fmin, min(fmin * (1.0 + span), 1e308), int(rng.integers(2, 3000))))
    for fmin, fmax, points in cases:
        grid = cli._linear_grid(fmin, fmax, points)
        assert len(grid) == points and all(type(f) is float for f in grid)
        assert np.array_equal(_bits(grid), _bits(np.linspace(fmin, fmax, points))), (fmin, fmax, points)


def test_sweep_log_grid(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--theta", str(THETA), "--fmin", "0.5", "--fmax", "2",
        "--points", "5", "--log",
    )
    assert code == 0
    _, rows = parse_csv(out)
    fields = [float(r[0]) for r in rows]
    ratios = [b / a for a, b in zip(fields, fields[1:])]
    assert all(x == pytest.approx(ratios[0], rel=1e-12) for x in ratios)


def test_sweep_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--theta", "0.7")
    assert code == 1
    code, _, _ = run_cli(capsys, "sweep", "--fmin", "1", "--fmax", "2", "--points", "1")
    assert code == 1
    code, _, _ = run_cli(capsys, "sweep", "--fmin", "-1", "--fmax", "2", "--points", "5")
    assert code == 1
    code, _, _ = run_cli(capsys, "sweep", "--p", "0.2", "--fmin", "1", "--fmax", "2", "--points", "5")
    assert code == 1


def test_mode_needs_exactly_one_of_p_or_field(capsys):
    code, _, _ = run_cli(capsys, "evolve")
    assert code == 1
    code, _, _ = run_cli(capsys, "evolve", "--p", "0.2", "--field", "1.0")
    assert code == 1


@pytest.mark.parametrize("key", ["beta", "gamma", "gamma_tilde"])
def test_phase_keys_other_than_theta_exit_1(tmp_path, capsys, key):
    # theta is the one phase input, as a flag and as a config key
    flag = "--" + key.replace("_", "-")
    code, out, err = run_cli(capsys, "evolve", "--p", "0.2", flag, "0.5")
    assert (code, out, err) == (1, "", f"error: unrecognized arguments: {flag} 0.5\n")
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = 0.5\n")
    code, out, err = run_cli(capsys, "evolve", "--p", "0.2", "--config", str(path))
    assert (code, out, err) == (1, "", f"error: config line 1: unknown key {key!r}\n")


def test_a_flag_prefix_is_not_the_flag(capsys):
    # a typo such as --ste for --steps is an error, as "ste = 2" is in a file
    code, out, err = run_cli(capsys, "evolve", "--p", "0.2", "--ste", "2")
    assert (code, out, err) == (1, "", "error: unrecognized arguments: --ste 2\n")


# theta values fixed before running: unreduced, obtuse and unreduced,
# negative and unreduced, and pi, which -pi reduces to; verify reads no
# theta, so it takes one
PHASES = {"unreduced": THETA + 2 * math.pi, "obtuse": 2.3 + 4 * math.pi, "negative": -8.5, "pi": math.pi}
PHASE_CASES = [
    pytest.param(args, theta, id=f"{args[0]}-{name}")
    for args in [
        ("evolve", "--p", "0.3", "--steps", "200"),
        ("series", "--p", "0.3", "--steps", "100"),
        ("edge", "--p", "0.3"),
        ("sweep", "--fmin", "0.5", "--fmax", "6", "--points", "9"),
    ]
    for name, theta in PHASES.items()
] + [pytest.param(("verify", "--tau-max", "4"), PHASES["unreduced"], id="verify")]


def _json_parts(text):
    """(the config echo, None for verify, and the text of the rows)."""
    return json.loads(text).get("config"), text.partition('"rows": ')[2]


@pytest.mark.parametrize("args, theta", PHASE_CASES)
def test_theta_prints_bytes_that_depend_on_reduce_angle_alone(capsys, args, theta):
    # theta + 2 pi k is one input; evolve and series also print the same
    # bytes for -theta, the complex conjugate walk
    same = [theta, reduce_angle(theta)]
    if args[0] in ("evolve", "series"):
        same.append(-theta)
    for fmt in ("csv", "json"):
        outs = []
        for value in same:
            code, out, err = run_cli(capsys, *args, "--theta", repr(value), "--format", fmt)
            assert (code, err) == (0, ""), value
            outs.append(out)
        if fmt == "csv":
            assert all(out == outs[0] for out in outs), fmt
            continue
        for value, out in zip(same, outs):
            config, rows = _json_parts(out)
            assert rows == _json_parts(outs[0])[1]
            if config is not None:  # verify echoes no config
                assert config["theta"] == value  # the value as given


def test_float_formatting_17_digits(capsys):
    _, out, _ = run_cli(capsys, "edge", "--p", "0.2", "--theta", str(THETA))
    assert "0.20000000000000001" in out  # 17 significant digits, lossless


def test_byte_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = (
        "sweep", "--theta", str(THETA), "--fmin", "0.5", "--fmax", "6",
        "--points", "40",
    )
    assert main(list(args) + ["--out", str(out1)]) == 0
    assert main(list(args) + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().endswith(b"\n")
    assert b"\r" not in out1.read_bytes()


def test_json_output_shape(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--theta", str(THETA), "--fmin", "1", "--fmax", "2",
        "--points", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == ["config", "rows"]
    assert payload["config"]["mode"] == "sweep"
    assert len(payload["rows"]) == 3
    assert list(payload["rows"][0].keys()) == [
        "F", "p", "r", "xi", "weight", "J_direct", "J_paper_form", "E_direct", "localized",
    ]
    assert payload["rows"][0]["localized"] is True


def test_json_delocalized_uses_null(capsys):
    _, out, _ = run_cli(
        capsys, "sweep", "--theta", str(THETA), "--fmin", "5", "--fmax", "6",
        "--points", "2", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["rows"][0]["xi"] is None
    assert payload["rows"][0]["weight"] == 0.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_edge_and_sweep_columns_are_the_fields_of_their_row_types(capsys, fmt):
    tables = [
        (("edge", "--p", "0.2", "--theta", str(THETA)), list(EdgeReport._fields)),
        (("edge", "--p", "0.8", "--theta", str(THETA)), list(EdgeReport._fields)),
        (("sweep", "--fmin", "1", "--fmax", "6", "--points", "3"), ["F", "p", *EdgePoint._fields]),
    ]
    for args, columns in tables:
        code, out, err = run_cli(capsys, *args, "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "csv":
            assert out.split("\n", 1)[0].split(",") == columns
        else:
            rows = json.loads(out)["rows"]
            assert rows and all(list(row) == columns for row in rows)


def test_verify_json_checks_hold_the_fields_of_check_result(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tau-max", "4", "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 14
    assert all(list(chk) == [f.name for f in fields(CheckResult)] for chk in checks)


def _reference_json(cfg, header, rows):
    """The JSON document as the json encoder writes it."""
    config_echo = {
        f.name: cli._json_value(getattr(cfg, f.name))
        for f in fields(RunConfig)
        if getattr(cfg, f.name) is not None
    }
    rows = [{key: cli._json_value(value) for key, value in zip(header, row)} for row in rows]
    return json.dumps({"config": config_echo, "rows": rows}, indent=2) + "\n"


# a header whose keys need escaping, as JSON and in a %-template, and
# cells of every kind the renderers take
SYNTHETIC_HEADER = ["F", "per%cent", 'say "hi"', "%s", '%%"%d']
SYNTHETIC_ROWS = [
    [None, True, False, math.inf, -math.inf],
    [math.nan, -0.0, 10**30, -(10**30), 0],
    [5e-324, -1.5, 2**63, True, None],
]
# p = 0.2 at 1200 steps: the light-cone tail holds exact-zero and
# subnormal probabilities
TAIL_CASE = ("evolve", "--p", "0.2", "--theta", str(THETA), "--steps", "1200")
RENDER_CASES = [
    ("evolve", "--p", "0.49", "--theta", str(THETA), "--steps", "40"),
    ("series", "--p", "0.2", "--theta", str(THETA), "--steps", "30"),
    pytest.param(("evolve", "--p", "0.49", "--steps", "0"), id="evolve-steps0"),
    pytest.param(("evolve", "--p", "0.49", "--theta", str(THETA), "--steps", "1"), id="evolve-steps1"),
    pytest.param(("evolve", "--p", "0.49", "--theta", str(THETA), "--steps", "41"), id="evolve-steps41"),
    pytest.param(TAIL_CASE, id="evolve-tail"),
    pytest.param(("series", "--p", "1", "--theta", str(THETA), "--steps", "30"), id="series-ballistic"),
    ("edge", "--p", "0.8", "--theta", "0.5"),  # delocalized: null cells
    # E0 = 1e308 overflows the energy columns to inf
    ("sweep", "--theta", str(THETA), "--fmin", "0.5", "--fmax", "6", "--points", "5",
     "--E0", "1e308"),
    ("synthetic",),
]


def _render_case(args, fmt):
    """(cfg, header, rows) of one case; rows are a list, read as often as needed."""
    if args[0] == "synthetic":
        cfg = cli._resolve_config(["sweep", "--fmin", "1", "--fmax", "2", "--points", "2",
                                   "--format", fmt])
        return cfg, SYNTHETIC_HEADER, SYNTHETIC_ROWS
    cfg = cli._resolve_config(list(args) + ["--format", fmt])
    header, rows = getattr(cli, f"run_{cfg.mode}")(cfg)
    return cfg, header, list(rows)


@pytest.mark.parametrize("args", RENDER_CASES, ids=lambda args: args[0])
def test_json_rows_match_the_encoder(args):
    cfg, header, rows = _render_case(args, "json")
    cells = [value for row in rows for value in row]
    if args[0] in ("edge", "synthetic"):
        assert None in cells
    if args[0] in ("sweep", "synthetic"):
        assert any(isinstance(v, float) and not math.isfinite(v) for v in cells)
    if args == TAIL_CASE:
        probabilities = [v for row in rows for v in row[2:]]
        assert 0.0 in probabilities
        assert any(0.0 < v < sys.float_info.min for v in probabilities)
    # the renderer reads its rows once, as they come
    assert cli._render_json(cfg, header, iter(rows)) == _reference_json(cfg, header, rows)
    assert cli._render_json(cfg, header, iter([])) == _reference_json(cfg, header, [])


@pytest.mark.parametrize("args", RENDER_CASES, ids=lambda args: args[0])
def test_csv_rows_match_the_cell_reference(args):
    _, header, rows = _render_case(args, "csv")
    lines = [",".join(header)] + [",".join(cli._cell(value) for value in row) for row in rows]
    assert cli._render_csv(header, iter(rows)) == "\n".join(lines) + "\n"
    assert cli._render_csv(header, iter([])) == ",".join(header) + "\n"


def test_csv_cells():
    cells = [None, True, False, 0, 10**30, -0.0, 0.1, math.inf, math.nan]
    assert [cli._cell(v) for v in cells] == [
        "", "true", "false", "0", str(10**30), "-0", "0.10000000000000001", "inf", "nan",
    ]


@pytest.mark.parametrize(
    "args, flag",
    [
        (("sweep", "--fmin", "1", "--fmax", "inf", "--points", "3"), "--fmax"),
        (("sweep", "--fmin", "1", "--fmax", "2", "--points", "3", "--j0", "nan"), "--j0"),
        (("sweep", "--fmin", "1", "--fmax", "2", "--points", "3", "--E0", "inf"), "--E0"),
        (("evolve", "--p", "0.2", "--steps", "4", "--L", "-1"), "--L"),
        (("verify", "--unitarity-tol", "nan"), "--unitarity-tol"),
        (("verify", "--unitarity-tol", "0"), "--unitarity-tol"),
        (("verify", "--unitarity-tol=-1e-11"), "--unitarity-tol"),
    ],
    ids=["fmax-inf", "j0-nan", "E0-inf", "L-negative", "tol-nan", "tol-zero", "tol-negative"],
)
def test_bad_float_flags_exit_1_up_front(monkeypatch, capsys, args, flag):
    # rejected before any work: a warning would be an error here, and the
    # verify suite must not run
    monkeypatch.setattr(lzwalk.verify, "run_all", None)
    code, out, err = run_cli(capsys, *args)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err and "Traceback" not in err


def test_negative_exponent_value_is_a_value(capsys):
    # "-1e-3" after a flag is its value, not a flag of its own
    spaced = run_cli(capsys, "evolve", "--p", "0.2", "--theta", "-1e-3", "--steps", "2")
    joined = run_cli(capsys, "evolve", "--p", "0.2", "--theta=-1e-3", "--steps", "2")
    assert spaced[0] == 0 and spaced[2] == ""
    assert spaced == joined


@pytest.mark.parametrize(
    "args, message",
    [
        (("sweep", "--fmin", "-1e-3", "--fmax", "2", "--points", "3"), "need 0 < fmin <= fmax"),
        (("verify", "--unitarity-tol", "-1e-11"), "--unitarity-tol must be positive"),
        (("sweep", "--fmin", "-inf", "--fmax", "2", "--points", "3"), "--fmin must be finite"),
        (("evolve", "--p", "0.2", "--theta", "-2E+5", "--L", "-1E-3"), "--L must be positive"),
    ],
    ids=["fmin", "tol", "fmin-inf", "L"],
)
def test_negative_exponent_values_reach_range_checks(monkeypatch, capsys, args, message):
    monkeypatch.setattr(lzwalk.verify, "run_all", None)
    code, out, err = run_cli(capsys, *args)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


def test_series_memory_is_linear_in_steps(capsys):
    # only the five snapshot columns are kept: two full 1001 x 1001 complex
    # tables would take 31 MiB
    tracemalloc.start()
    try:
        code = main(["series", "--p", "0.2", "--theta", str(THETA), "--steps", "1000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 4 * 2**20


def test_series_does_not_depend_on_blas_threads(tmp_path):
    # the table's products go through BLAS; with one and with two BLAS
    # threads the printed table at the step cap is the same
    digests = set()
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "lzwalk", "series", "--steps", str(MAX_TABLE_STEPS), "--p", "0.2"],
            capture_output=True, cwd=tmp_path, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(hashlib.sha256(proc.stdout).hexdigest())
    assert len(digests) == 1


def test_unwritable_output_path(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    code, _, err = run_cli(
        capsys, "evolve", "--p", "0.2", "--steps", "2", "--out", str(missing)
    )
    assert code == 3 and "cannot write" in err


def test_output_path_with_a_nul_exits_3(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"out = a\0b\n")
    code, out, err = run_cli(capsys, "edge", "--p", "0.2", "--config", str(cfg))
    assert code == 3 and out == ""
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tau-max", "6")
    assert code == 0
    assert "ALL CHECKS PASS" in out
    assert out.count("PASS") >= 10


def test_verify_fault_injection(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tau-max", "6", "--unitarity-tol", "1e-300")
    assert code == 2
    assert "FAIL norm_drift" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tau-max", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert all(chk["residual"] < chk["tol"] for chk in payload["checks"])


def _reject_constant(token):
    raise ValueError(f"bare {token} token in JSON output")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_verify_json_writes_non_finite_residual_as_string(capsys, monkeypatch, bad):
    exact = lzwalk.walk.norms

    def planted(coin, boundary_coin, steps):
        totals = exact(coin, boundary_coin, steps)
        totals[149] = bad  # tau = 150, after many finite norms
        return totals

    monkeypatch.setattr(lzwalk.walk, "norms", planted)
    code, out, _ = run_cli(capsys, "verify", "--tau-max", "6", "--format", "json")
    assert code == 2
    payload = json.loads(out, parse_constant=_reject_constant)
    (check,) = [chk for chk in payload["checks"] if chk["name"] == "norm_drift"]
    assert check["residual"] == repr(bad) and check["passed"] is False
    assert payload["all_pass"] is False


@pytest.mark.parametrize("tau_max", [3, 17])
def test_verify_tau_max_outside_range_exit_1(capsys, tau_max):
    code, out, err = run_cli(capsys, "verify", "--tau-max", str(tau_max))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "[4, 16]" in err and "Traceback" not in err


@pytest.mark.parametrize("tau_max", [4, 16])
def test_verify_tau_max_range_ends_pass(capsys, tau_max):
    code, out, err = run_cli(capsys, "verify", "--tau-max", str(tau_max))
    assert code == 0 and err == ""
    assert out.endswith("ALL CHECKS PASS\n")


def test_bad_mode_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_sweep_bracketing_critical_field_is_fast(capsys):
    # 1 - r reaches about 2e-8 on this grid; the edge observables are
    # closed forms, so the cost does not grow as F approaches F_c
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "sweep", "--theta", "0.7853981633974483",
        "--fmin", "4.53235", "--fmax", "4.53236", "--points", "2",
    )
    assert code == 0
    assert time.perf_counter() - start < 1.0
    _, rows = parse_csv(out)
    assert [r[-1] for r in rows] == ["true", "true"]
    assert all(float(r[5]) < 0.5 for r in rows)


@pytest.mark.parametrize(
    "mode, steps", [("evolve", MAX_EVOLVE_STEPS + 1), ("series", MAX_TABLE_STEPS + 1)]
)
def test_steps_beyond_cap_exit_1_at_once(capsys, mode, steps):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, mode, "--p", "0.2", "--steps", str(steps))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(steps - 1) in err


@pytest.mark.parametrize("steps", ["-1", str(MAX_TABLE_STEPS + 1), str(MAX_EVOLVE_STEPS + 1)])
def test_edge_ignores_steps(capsys, steps):
    assert run_cli(capsys, "edge", "--p", "0.2", "--steps", steps) == run_cli(capsys, "edge", "--p", "0.2")


def test_sweep_points_beyond_cap_exit_1_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "sweep", "--fmin", "1", "--fmax", "2", "--points", str(MAX_SWEEP_POINTS + 1)
    )
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(MAX_SWEEP_POINTS) in err


def test_edge_at_vanishing_p_and_zero_theta(capsys):
    # 1 - sqrt(1-p) rounds to 0 here; r = (1 + sqrt(1-p))^2 / p stays finite
    code, out, err = run_cli(capsys, "edge", "--p", "1e-300", "--theta", "0")
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert float(rows[0][3]) == pytest.approx(4e300, rel=1e-13)
    assert rows[0][-2:] == ["false", "false"]


def test_edge_at_subnormal_p_and_tiny_theta(capsys):
    # both gaps of J_paper_form cancel to zero when formed from O(1) terms
    code, out, err = run_cli(capsys, "edge", "--p", "1e-320", "--theta", "1e-16")
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    rec = dict(zip(header, rows[0]))
    assert rec["localized"] == "true"
    exact = j_paper_exact(1e-320, 1e-16)
    assert abs(float(rec["J_paper_form"]) - exact) <= 1e-14 * exact


@pytest.mark.parametrize(
    "args",
    [
        ("edge", "--p", "1e-310", "--theta", "0.5"),
        ("edge", "--p", "2e-308", "--theta", str(math.pi)),
        # normal fields, whose p reach down to 8e-311
        ("sweep", "--theta", str(math.pi), "--fmin", "0.0044", "--fmax", "0.0045", "--points", "3"),
    ],
)
def test_edge_where_r_is_subnormal(capsys, args):
    # 4 s sin^2(theta/2) / p overflows here, and r = p / (4 s sin^2(theta/2))
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    recs = [dict(zip(header, row)) for row in rows]
    assert float(recs[0]["r"]) < sys.float_info.min
    for rec in recs:
        assert rec["localized"] == "true"
        assert float(rec["r"]) == decay_ratio(float(rec["p"]), float(args[args.index("--theta") + 1]))
        assert 0.0 < float(rec["xi"]) < math.inf


@pytest.mark.parametrize(
    "exc, expected",
    [
        (ResourceLimitError("steps = 9 exceeds the configured cap of 5"), 1),
        (MemoryError(), 1),
        (ArithmeticError("norm drifted by 1e-3 after 9 steps"), 2),
    ],
    ids=["ResourceLimitError", "MemoryError", "ArithmeticError"],
)
def test_exit_code_per_exception_class(monkeypatch, capsys, exc, expected):
    def failing_trajectory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(lzwalk.walk, "trajectory", failing_trajectory)
    code, out, err = run_cli(capsys, "evolve", "--p", "0.2", "--steps", "8")
    assert code == expected
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# -- exit-code contract ------------------------------------------------------

# the exponent form, the ends of the float range, the non-finite spellings and
# phases far outside (-pi, pi], besides ordinary values
FLOATS = st.sampled_from(
    ["-1e-3", "5e-324", "-5e-324", "1e-300", "nan", "-nan", "inf", "-inf", "1e308",
     "-1e308", "-6e95", "1e16", "0", "-0.0", "0.2", "0.49", "0.8", "1", "2.5", "3.2"]
)
# each cap plus one, but never the evolve or sweep cap itself: a run there
# takes seconds
STEP_COUNTS = ["-1", "0", "1", "2", "7", "40", str(MAX_TABLE_STEPS + 1), str(MAX_EVOLVE_STEPS + 1)]
POINT_COUNTS = ["-1", "1", "2", "3", "5", str(MAX_SWEEP_POINTS + 1)]
TAU_MAXES = [str(TAU_MIN - 1), str(TAU_MIN), str(TAU_MIN + 1), str(TAU_CAP + 1)]
# float flags other than --p and --field; evolve, series and edge get one of
# those two
FLOAT_FLAGS = [
    "--fbar", "--theta", "--L", "--j0", "--E0",
    "--fmin", "--fmax", "--unitarity-tol",
]
OUT_PATHS = ["out.txt", "missing/out.txt"]
# a config line is either raw bytes or "key = value" with a value from any pool
CONFIG_LINES = st.binary(max_size=24) | st.tuples(
    st.sampled_from([f.name for f in fields(RunConfig)]),
    FLOATS | st.sampled_from(STEP_COUNTS + POINT_COUNTS + TAU_MAXES + OUT_PATHS + ["true", "csv", "json"]),
).map(lambda kv: f"{kv[0]} = {kv[1]}".encode())


@st.composite
def cli_calls(draw):
    """(argv, config file bytes or None) from the flag grammar."""
    mode = draw(st.sampled_from(cli.MODES))
    flags = draw(st.lists(st.sampled_from(FLOAT_FLAGS), unique=True, max_size=3))
    if mode in ("evolve", "series", "edge"):
        flags.insert(0, draw(st.sampled_from(["--p", "--field"])))
    elif mode == "sweep":
        flags[:0] = ["--fmin", "--fmax"]
    argv = [mode]
    for flag in flags:
        argv += [flag, draw(FLOATS)]
    for flag, values in (("--steps", STEP_COUNTS), ("--points", POINT_COUNTS), ("--tau-max", TAU_MAXES),
                         ("--format", ["csv", "json"]), ("--out", OUT_PATHS)):
        if (mode, flag) == ("sweep", "--points") or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    if draw(st.booleans()):
        argv.append("--log")
    config = draw(st.none() | st.lists(CONFIG_LINES, max_size=4).map(b"\n".join))
    return argv, config


@settings(max_examples=100)
@given(cli_calls())
def test_exit_code_contract(call):
    argv, config = call
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a config may name any relative --out path
        try:
            if config is not None:
                Path("run.cfg").write_bytes(config)
                argv = argv + ["--config", "run.cfg"]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
    if code in (1, 3):
        assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err

import json
import math
import time

import numpy as np
import pytest

import lzwalk.walk
from lzwalk import (
    MAX_EVOLVE_STEPS,
    ResourceLimitError,
    decay_ratio,
    localization_length,
    observables,
)
from lzwalk.cli import MAX_SWEEP_POINTS, RunConfig, emit_config, main, parse_config_text
from lzwalk.genfun import MAX_TABLE_STEPS

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
    cfg = RunConfig(
        mode="sweep", fbar=1.0, gamma=THETA, fmin=0.5, fmax=6.0, points=12,
        log=True, format="json", out="x.csv",
    )
    parsed = parse_config_text(emit_config(cfg))
    mode = parsed.pop("mode")
    assert RunConfig(mode=mode, **parsed) == cfg


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
    cfg.write_text("p = 0.2\ngamma = 0.5\nsteps = 4\n")
    code, out, _ = run_cli(capsys, "evolve", "--config", str(cfg), "--steps", "2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["tau", "n", "prob_L", "prob_R"]
    assert max(int(r[0]) for r in rows) == 2  # flag overrode the file value


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
        assert float(rs_[2]) == pytest.approx(float(re_[2]), abs=1e-10)
        assert float(rs_[3]) == pytest.approx(float(re_[3]), abs=1e-10)


def test_series_mode_agrees_with_evolve(capsys):
    assert_series_matches_evolve(capsys, "0.2", "24")


@pytest.mark.parametrize("p", ["0.2", "0.49", "0.8"])
def test_series_mode_agrees_with_evolve_long_horizon(capsys, p):
    # long rows exercise the per-row truncation of the series table
    assert_series_matches_evolve(capsys, p, "800")


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


def test_edge_mode_rejects_p_one(capsys):
    code, _, err = run_cli(capsys, "edge", "--p", "1")
    assert code == 1 and "--p" in err


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


def test_theta_conflicts_with_explicit_phases(capsys):
    code, _, err = run_cli(capsys, "evolve", "--p", "0.2", "--theta", "0.7", "--gamma", "0.7")
    assert code == 1 and "theta" in err


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


def test_unwritable_output_path(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    code, _, err = run_cli(
        capsys, "evolve", "--p", "0.2", "--steps", "2", "--out", str(missing)
    )
    assert code == 3 and "cannot write" in err


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tau-max", "6")
    assert code == 0
    assert "ALL CHECKS PASS" in out
    assert out.count("PASS") >= 10


def test_verify_fault_injection(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tau-max", "6", "--unitarity-tol", "0")
    assert code == 2
    assert "FAIL norm_drift" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tau-max", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert all(chk["residual"] < chk["tol"] for chk in payload["checks"])


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

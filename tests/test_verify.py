import cmath
import math

import pytest

from lzwalk import cli, edge, genfun, pathsum, verify, walk


def test_planted_nan_in_series_table_fails_three_way(monkeypatch):
    table = genfun.bounded_gf_table

    def planted(*args, **kwargs):
        tab_L, tab_R = table(*args, **kwargs)
        tab_L = tab_L.copy()
        tab_L[2, 10] = complex(math.nan, 0.0)  # checked after many finite gaps
        return tab_L, tab_R

    monkeypatch.setattr(genfun, "bounded_gf_table", planted)
    result = verify.check_three_way()
    assert not result.passed
    assert math.isnan(result.residual)


def _norm_drift_with_planted_norm(monkeypatch, bad):
    exact = walk.norms

    def planted(coin, boundary_coin, steps):
        totals = exact(coin, boundary_coin, steps)
        totals[149] = bad  # tau = 150, after many finite norms
        return totals

    monkeypatch.setattr(walk, "norms", planted)
    return verify.check_norm_drift()


def test_planted_nan_norm_fails_norm_drift(monkeypatch):
    result = _norm_drift_with_planted_norm(monkeypatch, math.nan)
    assert not result.passed
    assert math.isnan(result.residual)


def test_planted_inf_norm_fails_norm_drift(monkeypatch):
    result = _norm_drift_with_planted_norm(monkeypatch, math.inf)
    assert not result.passed
    assert result.residual == math.inf


def test_norm_drift_builds_no_state(monkeypatch, ref_coins):
    built = []
    snapshot = walk._snapshot

    def counted(*args):
        built.append(args[0])
        return snapshot(*args)

    monkeypatch.setattr(walk, "_snapshot", counted)
    u, ub = ref_coins
    list(walk.trajectory(u, ub, [3]))
    assert built == [3]  # the counter sees the snapshots trajectory builds
    built.clear()
    walk.norms(u, ub, 40)
    assert verify.check_norm_drift().passed
    assert built == []


def test_planted_off_cone_amplitude_fails_three_way(monkeypatch):
    # n = 8 at tau = 9 has the wrong parity, and lies beyond the series
    # table's n <= 6: only a whole-snapshot comparison sees it
    trajectory = walk.trajectory

    def planted(*args):
        for tau, psi_L, psi_R in trajectory(*args):
            if tau == 9:
                psi_L[8] += 1e-3
            yield tau, psi_L, psi_R

    monkeypatch.setattr(walk, "trajectory", planted)
    result = verify.check_three_way()
    assert not result.passed
    assert result.residual == 1e-3


def _scaled(module, name, factor):
    """A plant: ``module.name`` with its result multiplied by factor."""
    exact = getattr(module, name)
    return module, name, lambda *args: exact(*args) * factor


def _planted_table(index, factor=1.0, delta=0.0, boundary=None):
    """A plant: ``pathsum.transition_table`` with its entries at index times
    factor plus delta, in the tables of one boundary kind, or of both when
    boundary is None."""
    exact = pathsum.transition_table

    def planted(tau_max, coin, boundary_coin, kind="reflecting"):
        table = exact(tau_max, coin, boundary_coin, kind)
        if boundary in (None, kind):
            table = table.copy()
            table[index] = table[index] * factor + delta
        return table

    return pathsum, "transition_table", planted


def _scaled_last_table_row(factor):
    """A plant: the last site row of both ``bounded_gf_table`` tables times factor."""
    exact = genfun.bounded_gf_table

    def planted(*args, **kwargs):
        tab_L, tab_R = (tab.copy() for tab in exact(*args, **kwargs))
        tab_L[-1] *= factor
        tab_R[-1] *= factor
        return tab_L, tab_R

    return genfun, "bounded_gf_table", planted


def _scaled_closed_bq(factor):
    """A plant: the Bq series of ``b_gf_closed_series`` times factor."""
    exact = genfun.b_gf_closed_series

    def planted(*args):
        bq, br = exact(*args)
        return genfun.Series(bq.coeffs * factor), br

    return genfun, "b_gf_closed_series", planted


def _scaled_j_paper(factor):
    """A plant: J_paper_form of every ``observables`` result times factor."""
    exact = edge._observables

    def planted(*args):
        obs = exact(*args)
        return obs._replace(J_paper_form=obs.J_paper_form * factor)

    return edge, "_observables", planted


# One defect planted at a time, and the checks that print FAIL for it in
# ``lzwalk verify --tau-max 10``, which runs run_all(10, 1e-11).  Each
# magnitude was fixed before the run.  No row fails coin_unitarity: a coin
# off unitarity raises in Coin.__post_init__ before that check can see it.
PLANTED = {
    "reflect-norm": (_scaled(walk, "_reflect", 1 + 1e-9), {"norm_drift", "three_way_equivalence"}),
    "reflect-phase": (_scaled(walk, "_reflect", cmath.exp(1e-6j)), {"three_way_equivalence"}),
    "probability": (
        _scaled(walk, "probability", 1 + 1e-9),
        {"norm_drift", "series_parseval", "edge_mode_geometric", "edge_weight"},
    ),
    "eta-eval": (_scaled(genfun, "eta_eval", 1 + 1e-8), {"pole_denominator_zero"}),
    "pole": (_scaled(edge, "pole", 1 + 1e-7), {"pole_denominator_zero"}),
    "pole-phase": (
        _scaled(edge, "pole", cmath.exp(1e-2j)), {"pole_denominator_zero", "quasi_energy_slope"},
    ),
    "decay-ratio-up": (_scaled(edge, "_decay_ratio", 1 + 1e-10), {"edge_mode_geometric"}),
    "decay-ratio-down": (
        _scaled(edge, "_decay_ratio", 1 - 1e-6),
        {"edge_mode_geometric", "edge_weight", "momentum_form_ratio"},
    ),
    "series-last-site": (_scaled_last_table_row(1 + 1e-9), {"three_way_equivalence"}),
    "paths-last-tau": (
        _planted_table(-1, factor=1 + 1e-9),
        {"three_way_equivalence", "coefficient_recursion", "closed_coefficient_forms"},
    ),
    # every path product has a zero second column behind the boundary coin,
    # whose d~ is 0; the other checks read only the first
    "paths-second-column": (_planted_table((-1, ..., 1), delta=1e-11), {"pqrs_span"}),
    "absorbing-paths": (_planted_table(-1, factor=1 + 1e-8, boundary="absorbing"), {"absorbing_return"}),
    "closed-bq": (_scaled_closed_bq(1 + 1e-9), {"closed_coefficient_forms"}),
    "j-paper": (_scaled_j_paper(1 + 1e-9), {"momentum_form_ratio"}),
    "mode-probabilities": (_scaled(edge.FloquetMode, "probabilities", 1.05), {"edge_vs_simulation"}),
}


@pytest.mark.parametrize("plant, fails", PLANTED.values(), ids=PLANTED)
def test_a_planted_defect_fails_exactly_its_checks(monkeypatch, capsys, plant, fails):
    monkeypatch.setattr(*plant)
    code = cli.main(["verify", "--tau-max", "10"])
    out, err = capsys.readouterr()
    *lines, verdict = out.splitlines()
    assert len(lines) == 14  # every check ran and printed its line
    assert {line.split()[1] for line in lines if line.startswith("FAIL ")} == fails
    assert (code, verdict, err) == (2, "VERIFICATION FAILED", "")


def _shifted_boundary_phase(delta):
    """A plant: the boundary coin of ``edge.coin_pair`` at gamma_tilde + delta."""
    exact = edge.make_boundary_coin
    return edge, "make_boundary_coin", lambda gamma_tilde: exact(gamma_tilde + delta)


def _scaled_bulk_p(factor):
    """A plant: the bulk coin of ``edge.coin_pair`` at p times factor."""
    exact = edge.make_bulk_coin
    return edge, "make_bulk_coin", lambda p, beta, gamma: exact(p * factor, beta, gamma)


# Planted defects that make a check raise: verify then prints no check line,
# and the exit code follows the exception's class
RAISING = {
    "decay-ratio-delocalizes": (
        _scaled(edge, "_decay_ratio", 1 + 1e-7), 1,
        "error: no normalizable edge state at p=0.49999995",
    ),
    # floquet_mode finds its pole off the zero of the changed coins' h
    "boundary-phase": (
        _shifted_boundary_phase(1e-6), 2,
        "error: numerical self-check failed: pole location inconsistent",
    ),
    "bulk-p": (
        _scaled_bulk_p(1 + 1e-6), 2,
        "error: numerical self-check failed: pole location inconsistent",
    ),
}


@pytest.mark.parametrize("plant, code, message", RAISING.values(), ids=RAISING)
def test_a_planted_defect_that_raises_prints_one_error_line(monkeypatch, capsys, plant, code, message):
    monkeypatch.setattr(*plant)
    assert cli.main(["verify", "--tau-max", "10"]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err

import math

from lzwalk import genfun, verify, walk


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

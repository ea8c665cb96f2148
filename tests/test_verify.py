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


def test_planted_nan_norm_fails_norm_drift(monkeypatch):
    exact = walk.norm

    def planted(state):
        return math.nan if state.tau == 150 else exact(state)

    monkeypatch.setattr(walk, "norm", planted)
    result = verify.check_norm_drift()
    assert not result.passed
    assert math.isnan(result.residual)


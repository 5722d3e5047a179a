"""Analytic oracles for KPIs, recovery detection, and comparisons."""

import math
import random
import warnings
from array import array
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vaxsim.config import parse_config
from vaxsim.metrics import (_welch_p, bottleneck_report, compare_scenarios,
                            detect_recovery, doses_by_day, kpi_summary,
                            lead_time_histogram, mean, rolling_mean_trailing,
                            t_quantile, time_to_first_dose, time_to_target)
from vaxsim.model import Model

from conftest import batch_log, chain_dict

HORIZON = 1095


# the batch fields a fake batch leaves out
BLANK = {"doses": 0, "discarded_at": None, "discard_cause": None, "retests": 0,
         "investigations": 0}


def fake(series=None, batches=(), scenario="base", seed=0, **extra_series):
    s = {"released_doses": list(series) if series is not None else [0.0] * HORIZON}
    s.update(extra_series)
    return SimpleNamespace(scenario=scenario, seed=seed, series=s,
                           batches=batch_log([{**BLANK, **b} for b in batches]),
                           counts={})


# -- smoothing -----------------------------------------------------------

def test_trailing_mean_partial_then_full_window():
    out = rolling_mean_trailing([1, 2, 3, 4, 5], window=3)
    assert out.tolist() == [1.0, 1.5, 2.0, 3.0, 4.0]


def test_trailing_mean_of_constant_is_constant():
    out = rolling_mean_trailing([7.0] * 100, window=30)
    assert np.allclose(out, 7.0)


def test_trailing_mean_never_looks_ahead():
    xs = [0.0] * 50 + [100.0] * 50
    out = rolling_mean_trailing(xs, window=30)
    assert np.all(out[:50] == 0.0)


# -- scalar KPIs ---------------------------------------------------------

def test_first_dose_day_is_one_based():
    daily = [0.0] * 38 + [500.0] + [0.0] * (HORIZON - 39)
    assert time_to_first_dose(fake(daily)) == 39


def test_first_dose_censored_when_no_release():
    assert time_to_first_dose(fake()) is None


def test_time_to_target_crosses_cumulative():
    daily = [10.0] * HORIZON
    assert time_to_target(fake(daily), target=95.0) == 10
    assert time_to_target(fake(daily), target=10.0) == 1
    assert time_to_target(fake(daily), target=1e12) is None


@given(st.lists(st.floats(0, 1000), min_size=1, max_size=200),
       st.floats(1, 1e5))
def test_first_dose_never_after_target(daily, target):
    r = fake(daily + [0.0])
    first, hit = time_to_first_dose(r), time_to_target(r, target)
    if hit is not None:
        assert first is not None and first <= hit


def test_doses_by_day_is_exact_prefix_sum():
    daily = list(range(HORIZON))
    assert doses_by_day(fake(daily), 365) == sum(range(365))


def test_lead_time_bins_lose_nothing():
    batches = [
        {"state": "released", "created_at": 0.0, "released_at": 5.0},
        {"state": "released", "created_at": 3.0, "released_at": 15.0},
        {"state": "released", "created_at": 0.0, "released_at": 19.9},
        {"state": "released", "created_at": 1.0, "released_at": 96.0},
        {"state": "discarded", "created_at": 0.0, "released_at": None},
    ]
    hist = lead_time_histogram(fake(batches=batches))
    assert hist == {0: 1, 10: 2, 90: 1}
    assert sum(hist.values()) == 4


# -- the pure-Python mean ------------------------------------------------

@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=300))
def test_mean_is_numpy_mean_bit_for_bit(xs):
    assert mean(xs) == float(np.mean(xs))


@pytest.mark.parametrize("n", [1095, 2000, 4099, 20000])
def test_mean_of_long_series_is_numpy_mean(n):
    rng = random.Random(n)
    xs = array("d", (rng.random() * 10 ** rng.randint(-3, 6) for _ in range(n)))
    assert mean(xs) == float(np.mean(xs))


def test_run_utilization_means_are_numpy_means():
    res = Model(parse_config(chain_dict()), seed=3).run()
    keys = [k for k in res.series if k.startswith(("stage_util.", "pool_util."))]
    assert keys
    for k in keys:
        assert mean(res.series[k]) == float(np.mean(res.series[k]))


# -- bottlenecks ---------------------------------------------------------

def test_personnel_pool_outranks_machines():
    r = fake(**{"stage_util.thaw": [0.3] * 10, "stage_util.fill": [0.4] * 10,
                "pool_util.qa_reviewers": [0.85] * 10})
    rows = bottleneck_report(r)
    assert rows[0] == {"resource": "qa_reviewers", "kind": "personnel",
                       "utilization": pytest.approx(0.85), "bottleneck": True}
    assert [r["resource"] for r in rows] == ["qa_reviewers", "fill", "thaw"]
    assert all(not r["bottleneck"] for r in rows[1:])


def test_all_idle_run_flags_nothing():
    r = fake(**{"stage_util.a": [0.0] * 5, "pool_util.b": [0.0] * 5})
    assert all(not row["bottleneck"] for row in bottleneck_report(r))


def test_saturated_single_machine_reads_one():
    d = chain_dict()
    res = Model(parse_config(d), seed=1).run()
    rows = bottleneck_report(res)
    assert rows[0]["resource"] == "prep"  # unbounded buffers: source runs flat out
    assert rows[0]["utilization"] > 0.99


def test_ensemble_report_averages_replications():
    a = fake(**{"stage_util.x": [0.2] * 4})
    b = fake(**{"stage_util.x": [0.6] * 4})
    rows = bottleneck_report([a, b])
    assert rows[0]["utilization"] == pytest.approx(0.4)


# -- recovery detection --------------------------------------------------

def dip_ensembles(n=100, dip=slice(200, 242), factor=0.5, seed=5,
                  extra_dip=None):
    rng = np.random.default_rng(seed)
    base = rng.normal(100.0, 5.0, size=(n, HORIZON))
    scen = base.copy()
    scen[:, dip] *= factor
    if extra_dip is not None:
        scen[:, extra_dip] *= factor
    return base, scen


def test_six_week_dip_reads_six_weeks():
    base, scen = dip_ensembles()
    out = detect_recovery(base, scen)
    # shared noise cancels outside the dip's influence, so the significant
    # stretch is exactly the dip plus the trailing window's carry-over
    assert out["disrupted"] and out["recovered"]
    assert out["start_day"] == 200
    assert out["end_day"] == 271
    assert out["recovery_weeks"] == 6


def test_identical_ensembles_report_nothing():
    base, _ = dip_ensembles()
    out = detect_recovery(base, base.copy())
    assert out == {"disrupted": False, "recovered": True, "start_day": None,
                   "end_day": None, "duration_days": 0, "recovery_weeks": None}


def test_reentering_significance_is_not_recovered():
    base, scen = dip_ensembles(extra_dip=slice(500, 542))
    out = detect_recovery(base, scen)
    assert out["disrupted"] and not out["recovered"]
    assert out["start_day"] == 200
    assert out["recovery_weeks"] is None


def test_unclosed_interval_is_not_recovered():
    base, scen = dip_ensembles(dip=slice(800, HORIZON))
    out = detect_recovery(base, scen)
    assert out["disrupted"] and not out["recovered"]
    assert out["end_day"] is None
    assert out["duration_days"] == HORIZON - out["start_day"]


def test_mismatched_horizons_rejected():
    base, scen = dip_ensembles(n=3)
    with pytest.raises(ValueError, match="horizon"):
        detect_recovery(base, scen[:, :500])


def test_single_replication_rejected():
    base, scen = dip_ensembles(n=3)
    with pytest.raises(ValueError, match="two replications"):
        detect_recovery(base[:1], scen)


# -- scenario comparison -------------------------------------------------

def spike_ensemble(loc, n=100, seed=2, scenario="base"):
    rng = np.random.default_rng(seed)
    out = []
    for i, x in enumerate(rng.normal(loc, 1.0, n)):
        daily = [0.0] * HORIZON
        daily[0] = float(x)
        out.append(fake(daily, scenario=scenario, seed=i))
    return out


def test_ten_percent_drop_is_detected():
    ens = {"base": spike_ensemble(100.0),
           "short": spike_ensemble(90.0, seed=3, scenario="short")}
    rows = compare_scenarios(ens, at_days=(365,))
    base_row, scen_row = rows
    assert base_row["scenario"] == "base"
    assert base_row["delta_pct"] is None and base_row["p_value"] is None
    assert scen_row["delta_pct"] == pytest.approx(-10.0, abs=1.0)
    assert scen_row["p_value"] < 1e-3
    assert scen_row["significant"]
    assert base_row["ci_low"] < 100.0 < base_row["ci_high"]


def test_t_quantile_table_values():
    assert t_quantile(2) == pytest.approx(12.706, abs=5e-4)
    assert t_quantile(6) == pytest.approx(2.571, abs=5e-4)
    assert t_quantile(10) == pytest.approx(2.262, abs=5e-4)
    assert t_quantile(10_000) == pytest.approx(1.960, abs=5e-4)


@pytest.mark.parametrize("n", [1, 2, 6, 30])
def test_compare_ci_uses_the_t_quantile(n):
    ens = {"base": [fake([float(100 + 7 * i)] * 10) for i in range(n)]}
    row = compare_scenarios(ens, at_days=(10,))[0]
    totals = np.array([1000.0 + 70 * i for i in range(n)])
    half = (t_quantile(n) * totals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    assert row["ci_high"] - row["mean_doses"] == pytest.approx(half)
    assert row["mean_doses"] - row["ci_low"] == pytest.approx(half)


def test_swapping_roles_flips_delta_and_keeps_p():
    a, b = spike_ensemble(100.0), spike_ensemble(90.0, seed=3, scenario="x")
    fwd = compare_scenarios({"base": a, "x": b}, at_days=(365,))[1]
    for r in b:
        r.scenario = "base"
    for r in a:
        r.scenario = "x"
    rev = compare_scenarios({"base": b, "x": a}, at_days=(365,))[1]
    assert fwd["p_value"] == pytest.approx(rev["p_value"])
    assert fwd["delta_pct"] < 0 < rev["delta_pct"]


def test_identical_ensembles_show_zero_delta():
    a = spike_ensemble(100.0)
    rows = compare_scenarios({"base": a, "twin": list(a)}, at_days=(365, 1095))
    for row in rows:
        if row["scenario"] == "twin":
            assert row["delta_pct"] == 0.0
            assert not row["significant"]


def cell_by_cell(ensembles, at_days):
    """``compare_scenarios`` as it computed each cell before the CI routine
    was shared: 1-D arrays of ``doses_by_day`` totals, one per cell."""
    from scipy import stats

    totals = {name: {day: np.array([doses_by_day(r, day) for r in ens], dtype=float)
                     for day in at_days} for name, ens in ensembles.items()}
    rows = []
    for name in ["base"] + sorted(n for n in ensembles if n != "base"):
        for day in at_days:
            vals = totals[name][day]
            n = len(vals)
            avg = float(vals.mean())
            half = t_quantile(n) * vals.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
            row = {"scenario": name, "day": day, "n": n, "mean_doses": avg,
                   "ci_low": avg - half, "ci_high": avg + half,
                   "delta_pct": None, "p_value": None, "significant": False}
            if name != "base":
                ref = totals["base"][day]
                if ref.mean():
                    row["delta_pct"] = 100.0 * (avg - ref.mean()) / ref.mean()
                p = stats.ttest_ind(vals, ref, equal_var=False).pvalue
                if not math.isnan(p):
                    row["p_value"] = float(p)
                    row["significant"] = p < 0.05
            rows.append(row)
    return rows


def integer_ensemble(n, seed, scenario, most):
    """Integer-valued daily doses, as a store holds them: ``sum`` adds them
    exactly on every Python, where it compensates other floats from 3.12 on."""
    rng = np.random.default_rng(seed)
    return [fake(rng.integers(0, most + 1, HORIZON).astype(float).tolist(),
                 scenario=scenario, seed=i) for i in range(n)]


@pytest.mark.parametrize("n", [2, 7, 8, 9, 20, 100])
def test_compare_matches_cell_by_cell_arithmetic_exactly(n):
    # from eight replications numpy's pairwise sum differs from in-order
    # addition, which the two-replication report goldens cannot see
    ens = {"base": integer_ensemble(n, n, "base", 60_000),
           "dip": integer_ensemble(n, n + 1, "dip", 55_000),
           "more": integer_ensemble(n + 3, n + 2, "more", 60_000)}
    for at_days in [None, tuple(range(1, HORIZON + 1, 30))]:
        want = cell_by_cell(ens, at_days or (365, HORIZON))
        assert compare_scenarios(ens, at_days=at_days) == want


def welch_columns(rng, n, loc, scale):
    """An (n x 5) matrix: two random columns around ``loc``, one of zero
    variance, and two whose mean is exactly ``scale``'s integer part for
    every n."""
    offsets = np.arange(n) - (n - 1) / 2
    whole = np.floor(scale)
    return np.column_stack([rng.normal(loc, scale, n), rng.normal(loc, scale / 7, n),
                            np.full(n, whole + 0.5), whole + offsets, whole - 3 * offsets])


@pytest.mark.parametrize("n1, n2", [(2, 3), (3, 2), (6, 9), (8, 7), (13, 40), (40, 21)])
def test_welch_p_matches_scipy_stats_bit_for_bit(n1, n2):
    # scipy.stats stays the reference here, as in cell_by_cell, in the two
    # forms compare_scenarios and detect_recovery call
    from scipy import stats

    rng = np.random.default_rng(n1 * 100 + n2)
    for scale in [1e-3, 0.7, 1.0, 123.456, 6.0e4, 1e8]:
        a = welch_columns(rng, n1, scale, scale)
        b = welch_columns(rng, n2, scale * 1.01, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            less = stats.ttest_ind(a, b, axis=0, equal_var=False, alternative="less")
            np.testing.assert_array_equal(_welch_p(a, b, less=True), less.pvalue)
            for j in range(a.shape[1]):
                two = stats.ttest_ind(a[:, j], b[:, j], equal_var=False).pvalue
                np.testing.assert_array_equal(_welch_p(a[:, j], b[:, j]), two)
        assert np.isnan(less.pvalue[2])
        assert less.statistic[3] == 0.0 == less.statistic[4]


def test_t_quantile_matches_scipy_stats():
    from scipy import stats

    n = np.arange(2, 5001)
    want = stats.t.ppf(0.975, n - 1)
    assert [t_quantile(int(k)) for k in n] == want.tolist()


def test_missing_base_rejected():
    with pytest.raises(ValueError, match="no ensemble"):
        compare_scenarios({"x": spike_ensemble(1.0, n=3)})


# -- end to end ----------------------------------------------------------

def test_kpis_from_a_real_run():
    res = Model(parse_config(chain_dict()), seed=1).run()
    k = kpi_summary(res, target=100_000)
    assert k["time_to_first_dose"] == 7
    assert k["time_to_target"] == 304  # 100th release lands at t = 6 + 99*3
    assert k["doses_at_365"] == 120_000  # releases at 6.0..363.0
    assert k["batches_discarded"] == 0
    assert sum(lead_time_histogram(res).values()) == k["batches_released"]
    assert k["max_utilization_resource"] == "prep"

"""Analytic oracles for KPIs, recovery detection, and comparisons."""

import math
import random
import warnings
from array import array
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vaxsim.config import parse_config
from vaxsim import metrics
from vaxsim.metrics import (ALPHA, LEAD_TIME_BIN_DAYS, _t_upper, _welch_p, _welch_t,
                            bottleneck_report, compare_scenarios, detect_recovery,
                            doses_by_day, kpi_summary, lead_time_histogram, mean,
                            rolling_mean_trailing, t_cdf, t_quantile,
                            time_to_first_dose, time_to_target)
from vaxsim.model import Model
from vaxsim.production import CODES, RELEASED

from conftest import batch_log, chain_dict

HORIZON = 1095
# relative errors declared for vaxsim's t distribution against scipy.stats
# before they were measured. Measured: 2.8e-11 on the CDF, all of it scipy's
# own error near t = 0 at df = 1 (mpmath puts t_cdf within 1e-16 there), and
# 1.3e-13 on the quantile
CDF_BOUND = 1e-10
QUANTILE_BOUND = 1e-12


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


def loop_lead_time_histogram(result) -> dict[int, int]:
    """``lead_time_histogram`` one batch at a time in Python: the reference
    its numpy pass over the columns must equal."""
    hist: dict[int, int] = {}
    log, released = result.batches, CODES["state"].index(RELEASED)
    for state, created_at, released_at in zip(log["state"], log["created_at"],
                                              log["released_at"]):
        if state != released:
            continue
        lead = released_at - created_at
        bin_start = int(lead // LEAD_TIME_BIN_DAYS) * LEAD_TIME_BIN_DAYS
        hist[bin_start] = hist.get(bin_start, 0) + 1
    return dict(sorted(hist.items()))


def drawn_log(drawn):
    """A fake result whose batches are (state, created_at, lead) triples;
    a batch not released has no release time."""
    return fake(batches=[{"state": state, "created_at": created,
                          "released_at": created + lead if state == RELEASED else None}
                         for state, created, lead in drawn])


EDGE = float(LEAD_TIME_BIN_DAYS)
# a lead on a bin edge, just below and above one, and leads so long that a
# bin's start is beyond 2**53 or needs a Python int of many digits
LEADS = st.one_of(st.floats(0, 1e4), st.floats(0, 1e300),
                  st.sampled_from([0.0, EDGE, math.nextafter(EDGE, 0),
                                   math.nextafter(EDGE, math.inf), 2 * EDGE,
                                   math.nextafter(2 * EDGE, 0), 2.0 ** 60, 1e300]))
BATCHES = st.lists(st.tuples(st.sampled_from(CODES["state"]),
                             st.one_of(st.just(0.0), st.floats(0, 1e4)), LEADS),
                   max_size=60)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(BATCHES)
@example([]).via("an empty log")
@example([("discarded", 0.0, 5.0), ("in_process", 1.0, 0.0)]).via("none released")
@example([("released", 0.0, EDGE), ("released", 0.0, math.nextafter(EDGE, 0)),
          ("released", 3.0, EDGE)]).via("leads on and just below a bin edge")
@example([("released", 0.0, 1e300), ("released", 7.5, 2.0 ** 60),
          ("released", 0.0, 1e17 + 10)]).via("long leads")
def test_lead_time_histogram_is_the_loop(drawn):
    res = drawn_log(drawn)
    got = lead_time_histogram(res)
    assert got == loop_lead_time_histogram(res)
    assert list(got) == sorted(got)
    assert all(type(k) is int and type(v) is int for k, v in got.items())


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
    was shared: 1-D arrays of ``doses_by_day`` totals, one per cell. Also
    returns scipy's Welch (t, df) of each cell, by scenario and day."""
    from scipy import stats

    totals = {name: {day: np.array([doses_by_day(r, day) for r in ens], dtype=float)
                     for day in at_days} for name, ens in ensembles.items()}
    rows, welch = [], []
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
                res = stats.ttest_ind(vals, ref, equal_var=False)
                welch.append((res.statistic, res.df))
                if not math.isnan(res.pvalue):
                    row["p_value"] = float(res.pvalue)
                    row["significant"] = res.pvalue < 0.05
            rows.append(row)
    return rows, welch


def integer_ensemble(n, seed, scenario, most):
    """Integer-valued daily doses, as a store holds them: ``sum`` adds them
    exactly on every Python, where it compensates other floats from 3.12 on."""
    rng = np.random.default_rng(seed)
    return [fake(rng.integers(0, most + 1, HORIZON).astype(float).tolist(),
                 scenario=scenario, seed=i) for i in range(n)]


def assert_rows_match(got, want):
    """``got`` is ``want`` exactly, but for p-values within ``CDF_BOUND``:
    those come from vaxsim's t distribution, ``want``'s from scipy's."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert {**g, "p_value": None} == {**w, "p_value": None}
        assert (g["p_value"] is None) == (w["p_value"] is None)
        if w["p_value"] is not None:
            assert abs(g["p_value"] - w["p_value"]) <= CDF_BOUND * w["p_value"]


@pytest.mark.parametrize("n", [2, 7, 8, 9, 20, 100])
def test_compare_matches_cell_by_cell_arithmetic_exactly(n, monkeypatch):
    # from eight replications numpy's pairwise sum differs from in-order
    # addition, which the two-replication report goldens cannot see; the
    # p-value bound cannot see it either, so each cell's t and df are held
    # to scipy's bits as compare_scenarios computes them
    ens = {"base": integer_ensemble(n, n, "base", 60_000),
           "dip": integer_ensemble(n, n + 1, "dip", 55_000),
           "more": integer_ensemble(n + 3, n + 2, "more", 60_000)}
    seen = []
    welch_t = metrics._welch_t

    def recording(a, b):
        t, df = welch_t(a, b)
        seen.extend(zip(t.tolist(), df.tolist()))
        return t, df

    monkeypatch.setattr(metrics, "_welch_t", recording)
    for at_days in [None, tuple(range(1, HORIZON + 1, 30))]:
        seen.clear()
        want, welch = cell_by_cell(ens, at_days or (365, HORIZON))
        assert_rows_match(compare_scenarios(ens, at_days=at_days), want)
        assert seen == welch


def welch_columns(rng, n, loc, scale):
    """An (n x 6) matrix: two random columns around ``loc``, two of zero
    variance (one at the same value for every call, one a quarter higher
    where ``loc`` is above ``scale``), and two whose mean is exactly
    ``scale``'s integer part for every n."""
    offsets = np.arange(n) - (n - 1) / 2
    whole = np.floor(scale)
    return np.column_stack([rng.normal(loc, scale, n), rng.normal(loc, scale / 7, n),
                            np.full(n, whole + 0.5), np.full(n, whole + 0.25 * (loc > scale)),
                            whole + offsets, whole - 3 * offsets])


def assert_p_matches(got, want):
    """p-values within ``CDF_BOUND`` of scipy's, and exactly scipy's where
    those are 0, 1 or NaN (no variance, or an infinite t)."""
    got, want = np.asarray(got), np.asarray(want)
    exact = np.isnan(want) | (want == 0.0) | (want == 1.0)
    np.testing.assert_array_equal(got[exact], want[exact])
    assert np.all(np.abs(got - want)[~exact] <= CDF_BOUND * want[~exact])


@pytest.mark.parametrize("n1, n2", [(2, 3), (3, 2), (6, 9), (8, 7), (13, 40), (40, 21)])
def test_welch_p_matches_scipy_stats_bit_for_bit(n1, n2):
    # scipy.stats stays the reference here, as in cell_by_cell, in the forms
    # compare_scenarios (contiguous rows, each a 1-D sample) and
    # detect_recovery (the transpose of a replications x days matrix) call.
    # t and df keep scipy's bits; the p-value is within CDF_BOUND of scipy's.
    from scipy import stats

    rng = np.random.default_rng(n1 * 100 + n2)
    for scale in [1e-3, 0.7, 1.0, 123.456, 6.0e4, 1e8]:
        a = welch_columns(rng, n1, scale, scale)
        b = welch_columns(rng, n2, scale * 1.01, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            less = stats.ttest_ind(a, b, axis=0, equal_var=False, alternative="less")
            two = [stats.ttest_ind(a[:, j], b[:, j], equal_var=False)
                   for j in range(a.shape[1])]
        t, df = _welch_t(a.T, b.T)
        np.testing.assert_array_equal(t, less.statistic)
        np.testing.assert_array_equal(df, np.where(np.isnan(less.df), 1.0, less.df))
        assert_p_matches(_welch_p(a.T, b.T, less=True), less.pvalue)
        rows_a, rows_b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
        t, df = _welch_t(rows_a, rows_b)
        np.testing.assert_array_equal(t, [r.statistic for r in two])
        np.testing.assert_array_equal(df, [1.0 if np.isnan(r.df) else r.df for r in two])
        assert_p_matches(_welch_p(rows_a, rows_b), [r.pvalue for r in two])
        for j in range(a.shape[1]):
            assert_p_matches(_welch_p(a[:, j], b[:, j]), two[j].pvalue)
        assert np.isnan(less.pvalue[2])
        assert less.statistic[3] == -np.inf and less.pvalue[3] == 0.0
        assert less.statistic[4] == 0.0 == less.statistic[5]


def t_grid():
    """df integer and real from 1 to 5,000, against t from -1e3 to 1e3."""
    rng = np.random.default_rng(26)
    df = np.concatenate([np.arange(1.0, 101.0), np.geomspace(100, 5000, 60).round(),
                         rng.uniform(1, 10, 50), rng.uniform(1, 5000, 100), [5000.0]])
    mag = np.geomspace(1e-6, 1e3, 120)
    t = np.concatenate([-mag, [-0.0, 0.0], mag, rng.uniform(-12, 12, 60)])
    return np.meshgrid(df, t)


def test_t_cdf_matches_scipy_within_its_bound():
    from scipy import stats

    df, t = t_grid()
    got, want = t_cdf(df, t), stats.t.cdf(t, df)
    # below the least normal double the relative error means nothing: both
    # underflow there
    tiny = np.finfo(float).tiny
    normal = want >= tiny
    assert np.all(np.abs(got - want)[normal] <= CDF_BOUND * want[normal])
    assert np.all(got[~normal] < tiny)
    # as scipy.special.stdtr: infinite t, a NaN, and df <= 0
    edges = [(3.0, -np.inf), (3.0, np.inf), (3.0, np.nan), (np.nan, 1.0),
             (0.0, 1.0), (-2.0, 1.0), (7.5, 0.0), (1.0, -0.0)]
    got = t_cdf(*np.array(edges).T)
    np.testing.assert_array_equal(got, stats.t.cdf(*np.array(edges)[:, ::-1].T))
    np.testing.assert_array_equal(got[:2], [0.0, 1.0])
    assert type(t_cdf(4.0, 1.5)) is np.float64
    assert t_cdf([[4.0], [9.0]], [1.0, 2.0, 3.0]).shape == (2, 3)


def test_t_cdf_refuses_what_it_cannot_answer(monkeypatch):
    # a df beyond the precision the fraction keeps, or an infinite one
    for df in [metrics._DF_MAX * 2, np.inf]:
        with pytest.raises(ValueError, match="above"):
            t_cdf([5.0, df], [1.0, -2.0])
    # an element that has not converged within the cap: never a silent p
    monkeypatch.setattr(metrics, "_CF_PAIRS", 5)
    with pytest.raises(ArithmeticError, match="did not converge in 5 pairs"):
        t_cdf([1.0, 5000.0], [-1.0, -2.0])


def test_t_quantile_matches_scipy_stats():
    from scipy import stats

    n = np.arange(2, 5001)
    want = stats.t.ppf(1 - ALPHA / 2, n - 1)
    # every n at once through the bisection t_quantile makes for one n
    got = _t_upper(n - 1, ALPHA / 2)
    assert np.all(np.abs(got - want) <= QUANTILE_BOUND * want)
    for k in [*range(2, 41), 100, 1000, 4999, 5000]:
        assert abs(t_quantile(k) - want[k - 2]) <= QUANTILE_BOUND * want[k - 2]
    assert math.isnan(_t_upper(0, ALPHA / 2))


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

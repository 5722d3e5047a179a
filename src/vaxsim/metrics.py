"""KPIs, bottleneck ranking, recovery detection, and ensemble comparison.

Everything here is pure post-processing over replication results: daily
released-dose series, utilization series, and batch logs. Disruption windows
are judged across replication ensembles with Welch t-tests on a trailing
30-day smoothed series; the smoothing window's carry-over is subtracted before
an interval is expressed in weeks, so a six-week dip reads as six weeks, not
ten.

numpy and scipy.special are imported inside the functions that need them: a
run writes its KPI table through ``kpi_summary``, and importing either would
double what ``vaxsim run`` and every replication worker load. The t
distribution comes from ``scipy.special`` (``stdtr``, ``stdtrit``), not from
scipy's ``stats`` package, which takes about three times the memory and
import time. ``_welch_p`` repeats scipy 1.17's ``stats.ttest_ind`` arithmetic
step for step, so every p-value and interval keeps its bits.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import TYPE_CHECKING

from .production import RELEASED

if TYPE_CHECKING:
    import numpy as np

SMOOTH_WINDOW = 30
ALPHA = 0.05
TARGET_DOSES = 50_000_000
LEAD_TIME_BIN_DAYS = 10


def _daily_series(obj) -> list[float]:
    if hasattr(obj, "series"):
        return obj.series["released_doses"]
    return list(obj)


def _pairwise_sum(xs) -> float:
    """numpy's float64 pairwise sum, step for step: fewer than eight terms
    add in order; up to 128 go into eight strided accumulators; longer runs
    split at a multiple of eight near the middle. ``reduce`` adds in order,
    where ``sum`` of floats is compensated from Python 3.12 on."""
    n = len(xs)
    if n < 8:
        return reduce(add, xs, 0.0)
    if n <= 128:
        tail = n - n % 8
        r = [reduce(add, xs[j:tail:8]) for j in range(8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, xs[tail:], head)
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])


def mean(xs) -> float:
    """Arithmetic mean, bit for bit ``numpy.mean`` of the same doubles."""
    return _pairwise_sum(xs) / len(xs) if len(xs) else math.nan


def rolling_mean_trailing(xs, window: int = SMOOTH_WINDOW) -> np.ndarray:
    """Trailing mean; early days average over what exists so far."""
    import numpy as np

    arr = np.asarray(xs, dtype=float)
    cum = np.cumsum(arr)
    out = np.empty_like(cum)
    out[:window] = cum[:window] / np.arange(1, min(window, len(arr)) + 1)
    if len(arr) > window:
        out[window:] = (cum[window:] - cum[:-window]) / window
    return out


def time_to_first_dose(result) -> int | None:
    """1-based day of the first released dose; None when censored."""
    daily = _daily_series(result)
    for d, v in enumerate(daily):
        if v > 0:
            return d + 1
    return None


def time_to_target(result, target: float = TARGET_DOSES) -> int | None:
    daily = _daily_series(result)
    cum = 0.0
    for d, v in enumerate(daily):
        cum += v
        if cum >= target:
            return d + 1
    return None


def doses_by_day(result, day: int) -> float:
    """Cumulative released doses over the first ``day`` days."""
    daily = _daily_series(result)
    return float(sum(daily[:day]))


def lead_time_histogram(result) -> dict[int, int]:
    """Released-batch lead times (creation to release), in bins of
    ``LEAD_TIME_BIN_DAYS`` keyed by bin start; counts sum to the number of
    released batches."""
    hist: dict[int, int] = {}
    for b in result.batches:
        if b["state"] != RELEASED:
            continue
        lead = b["released_at"] - b["created_at"]
        bin_start = int(lead // LEAD_TIME_BIN_DAYS) * LEAD_TIME_BIN_DAYS
        hist[bin_start] = hist.get(bin_start, 0) + 1
    return dict(sorted(hist.items()))


def kpi_summary(result, target: float = TARGET_DOSES) -> dict:
    daily = _daily_series(result)
    horizon = len(daily)
    total = float(sum(daily))
    ranked = bottleneck_report(result)
    top = ranked[0] if ranked else None
    return {
        "scenario": result.scenario,
        "seed": result.seed,
        "time_to_first_dose": time_to_first_dose(result),
        "time_to_target": time_to_target(result, target),
        "target_doses": target,
        "doses_at_365": doses_by_day(result, 365),
        "doses_total": total,
        "mean_monthly_doses": total * 30.0 / horizon if horizon else 0.0,
        "batches_released": result.counts["batches_released"],
        "batches_discarded": result.counts["batches_discarded"],
        "max_utilization_resource": top["resource"] if top else None,
        "max_utilization": top["utilization"] if top else 0.0,
    }


# -- bottlenecks ---------------------------------------------------------

# utilization series prefix -> the kind of resource it measures
RESOURCE_KINDS = {"stage_util": "machines", "pool_util": "personnel"}


def bottleneck_report(results) -> list[dict]:
    """Resources ranked by mean utilization, machines against personnel.

    Accepts one result or an ensemble; ensembles are averaged per resource.
    The top entry carries the bottleneck flag.
    """
    if hasattr(results, "series"):
        results = [results]
    if not results:
        return []
    acc: dict[str, list[float]] = {}
    for res in results:
        for key in res.series:
            if key.partition(".")[0] in RESOURCE_KINDS:
                acc.setdefault(key, []).append(mean(res.series[key]))
    rows = []
    for key, means in acc.items():
        kind, _, name = key.partition(".")
        rows.append({"resource": name, "kind": RESOURCE_KINDS[kind],
                     "utilization": mean(means)})
    rows.sort(key=lambda r: (-r["utilization"], r["resource"]))
    for i, row in enumerate(rows):
        row["bottleneck"] = i == 0 and row["utilization"] > 0.0
    return rows


# -- recovery detection --------------------------------------------------

def _smoothed_matrix(ensemble, window: int) -> np.ndarray:
    import numpy as np

    series = [_daily_series(r) for r in ensemble]
    lengths = {len(s) for s in series}
    if len(lengths) != 1:
        raise ValueError(f"mixed horizon lengths: {sorted(lengths)}")
    return np.vstack([rolling_mean_trailing(s, window) for s in series])


def detect_recovery(base_ensemble, scen_ensemble,
                    window: int = SMOOTH_WINDOW, alpha: float = ALPHA) -> dict:
    """Find the interval where the scenario runs significantly below base.

    Daily one-sided Welch t-tests (scenario < base) on trailing-smoothed
    released doses across replications. The disruption opens at the first
    day with p < alpha and closes at the next day at or above alpha; the
    reported weeks subtract the window - 1 days the trailing mean keeps a
    finished dip visible. A scenario that turns significant again after
    closing, or never closes, counts as not recovered.
    """
    import numpy as np

    if len(base_ensemble) < 2 or len(scen_ensemble) < 2:
        raise ValueError("need at least two replications per ensemble")
    base = _smoothed_matrix(base_ensemble, window)
    scen = _smoothed_matrix(scen_ensemble, window)
    if base.shape[1] != scen.shape[1]:
        raise ValueError(
            f"horizon mismatch: base {base.shape[1]} vs scenario {scen.shape[1]}")
    p = _welch_p(scen, base, less=True)
    sig = np.nan_to_num(p, nan=1.0) < alpha  # no variance, no verdict

    out = {"disrupted": False, "recovered": True, "start_day": None,
           "end_day": None, "duration_days": 0, "recovery_weeks": None}
    hits = np.flatnonzero(sig)
    if hits.size == 0:
        return out
    start = int(hits[0])
    after = np.flatnonzero(~sig[start:])
    out.update(disrupted=True, start_day=start)
    if after.size == 0:
        out.update(recovered=False, duration_days=len(sig) - start)
        return out
    end = start + int(after[0])
    out.update(end_day=end, duration_days=end - start)
    if np.any(sig[end:]):
        out["recovered"] = False
        return out
    adjusted = max(end - start - (window - 1), 1)
    out["recovery_weeks"] = math.ceil(adjusted / 7)
    return out


# -- cross-scenario comparison -------------------------------------------

def _welch_p(a: np.ndarray, b: np.ndarray, less: bool = False):
    """p-value of Welch's t-test of ``a`` against ``b`` along axis 0:
    two-sided, or one-sided that ``a`` is less.

    The arithmetic is scipy 1.17's ``stats.ttest_ind(a, b, equal_var=False)``
    step for step, so the bits agree: the variance is the mean squared
    deviation times n / (n - 1), an undefined df (no variance on either side)
    becomes 1, and one replication gives NaN, as scipy's size check does.
    """
    import numpy as np
    from scipy.special import stdtr

    def mean_and_vn(x):
        n = x.shape[0]
        var = ((x - x.mean(axis=0, keepdims=True)) ** 2).mean(axis=0)
        return x.mean(axis=0), var * (np.float64(n) / (n - 1)) / n, n

    with np.errstate(divide="ignore", invalid="ignore"):
        m1, vn1, n1 = mean_and_vn(a)
        m2, vn2, n2 = mean_and_vn(b)
        df = (vn1 + vn2) ** 2 / (vn1 ** 2 / (n1 - 1) + vn2 ** 2 / (n2 - 1))
        df = np.where(np.isnan(df), 1.0, df)
        t = (m1 - m2) / np.sqrt(vn1 + vn2)
    return stdtr(df, t) if less else 2 * stdtr(df, -abs(t))


def t_quantile(n: int) -> float:
    """Student t quantile of a two-sided 95% CI for the mean of n > 1
    replications, t(0.975, n - 1): 2.571 at n = 6, where the normal 1.96
    would be 24% too narrow. ``stats.t.ppf`` computes it with the same
    ``stdtrit``."""
    from scipy.special import stdtrit

    return float(stdtrit(n - 1, 1 - ALPHA / 2))


def series_matrix(results, name: str) -> np.ndarray:
    """One named daily series per replication: a (replications x days) matrix."""
    import numpy as np

    return np.array([r.series[name] for r in results], dtype=float)


def column_ci(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and Student t 95% CI of each column of a (replications x
    columns) matrix; one replication gives a zero-width interval.

    The reduction runs along contiguous rows of the transpose, so every
    column is summed pairwise exactly as a 1-D mean of that column would be;
    an ``axis=0`` reduction adds the rows in order and differs in the last
    bits from eight replications on.
    """
    import numpy as np

    rows = np.ascontiguousarray(matrix.T)
    m = rows.mean(axis=1)
    n = matrix.shape[0]
    if n < 2:
        return m, m, m
    half = t_quantile(n) * rows.std(axis=1, ddof=1) / math.sqrt(n)
    return m, m - half, m + half


COMPARISON_COLUMNS = ["scenario", "day", "n", "mean_doses", "ci_low", "ci_high",
                      "delta_pct", "p_value", "significant"]


def comparison_cells(row: dict) -> list:
    """One ``compare_scenarios`` row as table cells; None is an empty cell."""
    return ["" if row[k] is None else row[k] for k in COMPARISON_COLUMNS]


def compare_scenarios(ensembles: dict[str, list],
                      at_days: tuple[int, ...] | None = None) -> list[dict]:
    """Table of released doses per scenario and horizon against ``base``.

    Per cell: cumulative doses on that day, their replication mean and
    Student t 95% CI (``column_ci``), relative change against the base
    ensemble, and a two-sided Welch t-test p-value. The base rows carry
    empty delta and p. ``at_days`` are days of the horizon, by default day 365
    and the last day of the base ensemble's horizon.
    """
    if "base" not in ensembles:
        raise ValueError("no ensemble named 'base'")
    if at_days is None:
        horizon = len(_daily_series(ensembles["base"][0]))
        at_days = tuple(dict.fromkeys(d for d in (365, horizon) if d <= horizon))
    cols = [d - 1 for d in at_days]
    totals = {name: series_matrix(ens, "released_doses").cumsum(axis=1)[:, cols]
              for name, ens in ensembles.items()}
    cis = {name: [c.tolist() for c in column_ci(t)] for name, t in totals.items()}
    rows = []
    for name in ["base"] + sorted(n for n in ensembles if n != "base"):
        for j, day in enumerate(at_days):
            avg, low, high = (c[j] for c in cis[name])
            row = {"scenario": name, "day": day, "n": len(totals[name]),
                   "mean_doses": avg, "ci_low": low, "ci_high": high,
                   "delta_pct": None, "p_value": None, "significant": False}
            if name != "base":
                ref = cis["base"][0][j]
                if ref:
                    row["delta_pct"] = 100.0 * (avg - ref) / ref
                p = _welch_p(totals[name][:, j], totals["base"][:, j])
                if not math.isnan(p):
                    row["p_value"] = float(p)
                    row["significant"] = p < ALPHA
            rows.append(row)
    return rows

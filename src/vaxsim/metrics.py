"""KPIs, bottleneck ranking, recovery detection, and ensemble comparison.

Everything here is pure post-processing over replication results: daily
released-dose series, utilization series, and batch logs. Disruption windows
are judged across replication ensembles with Welch t-tests on a trailing
30-day smoothed series; the smoothing window's carry-over is subtracted before
an interval is expressed in weeks, so a six-week dip reads as six weeks, not
ten.

numpy is imported inside the functions that need it: a run writes its KPI
table through ``kpi_summary``, and importing it would double what ``vaxsim
run`` and every replication worker load. So ``kpi_summary`` ranks resources
through ``bottleneck_report``, whose means are the pure-Python ``mean``
(numpy's pairwise sum, step for step). The analysis path loads numpy anyway
and works on whole arrays: ``report`` ranks the base ensemble from its
utilization matrices through the same ``rank_resources``, and
``lead_time_histogram`` bins a batch log's columns at once.

The t distribution is this module's own, on numpy and ``math``: ``t_cdf``
is the regularized incomplete beta function by Lentz's continued fraction
(Numerical Recipes §6.4), and ``t_quantile`` bisects it. Against
``scipy.stats`` their relative errors are within 1e-10 (``t_cdf``, df 1 to
5,000, |t| up to 1e3) and 1e-12 (``t_quantile``, n = 2 to 5,000);
``_welch_t`` repeats scipy 1.17's ``stats.ttest_ind`` arithmetic step for
step, so t and df keep scipy's bits and only the p-value moves, within that
bound.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from operator import add
from typing import TYPE_CHECKING

from .production import CODES, RELEASED

if TYPE_CHECKING:
    import numpy as np

SMOOTH_WINDOW = 30
ALPHA = 0.05
TARGET_DOSES = 50_000_000
LEAD_TIME_BIN_DAYS = 10
# the series and counters that this module and ``report`` read by name, which
# ``runner.load_store`` requires of a store; ``report`` also reads the
# ``material_stockout_days.<m>`` counter of each ``material_stockout.<m>`` series
NAMES_READ = {"series": ["released_doses"],
              "counts": ["batches_released", "batches_discarded"]}


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
    released batches. One numpy pass over the batch log's columns."""
    import numpy as np

    log = result.batches
    released = np.frombuffer(log["state"], dtype=np.int8) == CODES["state"].index(RELEASED)
    created, done = (np.frombuffer(log[name], dtype=float)[released]
                     for name in ("created_at", "released_at"))
    bins, counts = np.unique((done - created) // LEAD_TIME_BIN_DAYS, return_counts=True)
    return {int(b) * LEAD_TIME_BIN_DAYS: c for b, c in zip(bins.tolist(), counts.tolist())}


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
    """Resources ranked by mean utilization, machines against personnel
    (``rank_resources``).

    Accepts one result or an ensemble; ensembles are averaged per resource.
    Every mean is the pure-Python ``mean``, so ``kpi_summary`` loads no numpy.
    """
    if hasattr(results, "series"):
        results = [results]
    acc: dict[str, list[float]] = {}
    for res in results:
        for key in res.series:
            if key.partition(".")[0] in RESOURCE_KINDS:
                acc.setdefault(key, []).append(mean(res.series[key]))
    return rank_resources({key: mean(means) for key, means in acc.items()})


def rank_resources(utilization: dict[str, float]) -> list[dict]:
    """One row per utilization series, named by its key in ``utilization``,
    ranked by its mean utilization, ties by resource name and then in the
    order given. The top entry carries the bottleneck flag when it is busy
    at all."""
    rows = []
    for key, value in utilization.items():
        kind, _, name = key.partition(".")
        rows.append({"resource": name, "kind": RESOURCE_KINDS[kind], "utilization": value})
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
    p = _welch_p(scen.T, base.T, less=True)
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

def _welch_t(a: np.ndarray, b: np.ndarray):
    """t statistic and degrees of freedom of Welch's t-test of ``a`` against
    ``b``, whose samples lie along the last axis.

    The arithmetic is scipy 1.17's ``stats.ttest_ind(a, b, equal_var=False)``
    step for step, so the bits agree: the variance is the mean squared
    deviation times n / (n - 1), an undefined df (no variance on either side)
    becomes 1, and one replication gives NaN, as scipy's size check does.
    Contiguous rows are each summed pairwise, as a 1-D sample is; the
    transpose of a (replications x days) matrix adds its rows in order, as
    scipy does along ``axis=0``.
    """
    import numpy as np

    def mean_and_vn(x):
        n = x.shape[-1]
        var = ((x - x.mean(axis=-1, keepdims=True)) ** 2).mean(axis=-1)
        return x.mean(axis=-1), var * (np.float64(n) / (n - 1)) / n, n

    with np.errstate(divide="ignore", invalid="ignore"):
        m1, vn1, n1 = mean_and_vn(a)
        m2, vn2, n2 = mean_and_vn(b)
        df = (vn1 + vn2) ** 2 / (vn1 ** 2 / (n1 - 1) + vn2 ** 2 / (n2 - 1))
        df = np.where(np.isnan(df), 1.0, df)
        t = (m1 - m2) / np.sqrt(vn1 + vn2)
    return t, df


def _welch_p(a: np.ndarray, b: np.ndarray, less: bool = False):
    """p-value of Welch's t-test of ``a`` against ``b`` (``_welch_t``):
    two-sided, or one-sided that ``a`` is less."""
    t, df = _welch_t(a, b)
    return t_cdf(df, t) if less else 2 * t_cdf(df, -abs(t))


# -- the t distribution --------------------------------------------------

# The continued fraction ends when every element has met a factor within
# _CF_EPS of 1; rounding keeps a converged factor a few ulps off 1, more
# where df is large. Below _DF_MAX no element needs more than 100 of its
# _CF_PAIRS. Above it the fraction's rounding error, which grows with df
# near |t| = 2 (4e-13 at df = 5,000, 8e-12 at 1e5, 4e-10 at 1e7), would
# leave the declared bound, so t_cdf refuses such a df.
_CF_EPS = 1e-14
_CF_PAIRS = 1000
_DF_MAX = 1e5
# brackets per quantile bisection step
_SECTIONS = 16
# log Γ(a + 1/2) - log Γ(a) is log Γ(z + 1/2) - log Γ(z) at z = a + _SHIFT
# plus the log of prod_j (a + j) / (a + j + 1/2), j < _SHIFT. At z >= 10.5
# the asymptotic series 1/2 log z + sum_k (2^(1 - 2k) - 2) B_2k / (2k (2k - 1)
# z^(2k - 1)) is within 7e-16 after its six terms, k = 1..6.
_SHIFT = 10
_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224)


def _log_gamma_ratio(a: np.ndarray) -> np.ndarray:
    """log(Γ(a + 1/2) / Γ(a)) for a 1-D array of a > 0, without the
    cancellation of two ``lgamma`` values, which loses a part in 1e12 at
    a = 2,500."""
    import numpy as np

    j = np.arange(float(_SHIFT))[:, None]
    ratio = np.prod((a + j) / (a + (j + 0.5)), axis=0)
    z = a + _SHIFT
    w = 1.0 / (z * z)
    s = _SERIES[-1]
    for c in reversed(_SERIES[:-1]):
        s = s * w + c
    return 0.5 * np.log(z) + s / z + np.log(ratio)


def t_cdf(df, t):
    """Student's t distribution function P(T <= t) with ``df`` degrees of
    freedom, elementwise over the broadcast arrays ``df`` and ``t``.

    P(|T| > |t|) is the regularized incomplete beta function I_x(df/2, 1/2)
    at x = df / (df + t^2), by Lentz's continued fraction (Numerical Recipes
    §6.4). Where x lies beyond the fraction's fast side it is
    1 - I_y(1/2, df/2), with y = 1 - x taken as t^2 / (df + t^2), so the
    lower tail P(T < -|t|) is I_x / 2 or 1/2 - I_y / 2 and keeps its
    relative precision however small. As ``scipy.special.stdtr``: t = -inf
    gives 0 and +inf 1, a NaN t or df, or df <= 0, NaN. Against scipy the
    relative error is within 1e-10 for df from 1 to 5,000 and |t| up to
    1e3. Rather than return a wrong p, raises ``ValueError`` for a df above
    ``_DF_MAX`` (an infinite one too), and ``ArithmeticError`` where an
    element's fraction has not converged within ``_CF_PAIRS`` pairs of terms.
    """
    import numpy as np

    df, t = np.broadcast_arrays(np.asarray(df, dtype=float),
                                np.asarray(t, dtype=float))
    if (big := df[df > _DF_MAX]).size:
        raise ValueError(f"t_cdf: df {float(big[0])!r} is above {_DF_MAX:g}, where the "
                         "continued fraction no longer keeps its declared precision")
    shape = df.shape
    df, t = df.ravel(), t.ravel()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ok = (df > 0) & ~np.isnan(t)
        df1 = np.where(ok, df, 1.0)
        t2 = np.where(ok, t * t, 1.0)
        a = 0.5 * df1
        x = df1 / (df1 + t2)
        swap = x * (a + 2.5) >= a + 1.0  # x >= (a + 1) / (a + b + 2)
        # I_z(p, q) for (p, q, z) = (a, 1/2, x), or (1/2, a, y) where swapped
        p = np.where(swap, 0.5, a)
        q = np.where(swap, a, 0.5)
        z = np.where(swap, t2 / (df1 + t2), x)
        # x^a y^(1/2) / (p B(a, 1/2)), with log x and log y by log1p
        front = np.exp(_log_gamma_ratio(a) - 0.5 * math.log(math.pi)
                       - a * np.log1p(t2 / df1) - 0.5 * np.log1p(df1 / t2)) / p
        tail = 0.5 * front * _beta_fraction(p, q, z)
        tail = np.where(swap, 0.5 - tail, tail)  # P(T < -|t|)
        cdf = np.where(t < 0, tail, 1.0 - tail)
    return np.where(ok, cdf, np.nan).reshape(shape)[()]


def _beta_fraction(p: np.ndarray, q: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The continued fraction of I_z(p, q) by the modified Lentz method,
    every element on every pair of terms: the 2m-th term is
    m (q - m) z / ((p + 2m - 1)(p + 2m)), the (2m + 1)-th
    -(p + m)(p + q + m) z / ((p + 2m)(p + 2m + 1))."""
    import numpy as np

    u = p + 1.0                   # p + 2m - 1
    d = 1.0 / (1.0 - (p + q) * z / u)
    h = d.copy()
    c = np.ones_like(z)
    mz = np.zeros_like(z)         # m z
    qm = q.copy()                 # q - m
    pm, pqm = p.copy(), p + q     # p + m, p + q + m
    done = np.zeros(z.shape, dtype=bool)
    for _ in range(_CF_PAIRS):
        qm -= 1.0
        mz += z
        aa = qm * mz
        aa /= u * (u + 1.0)
        np.multiply(aa, d, out=d)
        d += 1.0
        np.reciprocal(d, out=d)
        np.divide(aa, c, out=c)
        c += 1.0
        h *= d
        h *= c
        pm += 1.0
        pqm += 1.0
        u += 2.0
        aa = pm * pqm
        aa *= z
        aa /= (u - 1.0) * u
        np.multiply(aa, d, out=d)
        np.subtract(1.0, d, out=d)
        np.reciprocal(d, out=d)
        np.divide(aa, c, out=c)
        np.subtract(1.0, c, out=c)
        delta = d * c
        h *= delta
        delta -= 1.0
        done |= np.abs(delta) < _CF_EPS
        if done.all():
            return h
    i = int(np.flatnonzero(~done)[0])
    raise ArithmeticError(
        f"the t distribution's continued fraction for I_z(p, q) at p = {p[i]!r}, "
        f"q = {q[i]!r}, z = {z[i]!r} did not converge in {_CF_PAIRS} pairs of terms")


def _t_upper(df, tail: float):
    """The t >= 0 at which ``t_cdf(df, -t)`` falls to ``tail`` < 1/2,
    elementwise over ``df``: the least t of the last bracket, once no double
    lies inside it. The bracket doubles until it holds the root, then each
    ``t_cdf`` call splits it into ``_SECTIONS`` and keeps the part where the
    tail crosses: a bisection that gains log2(_SECTIONS) bits a call, not one."""
    import numpy as np

    df = np.asarray(df, dtype=float)[..., None]
    lo, hi = np.zeros_like(df), np.ones_like(df)
    while (short := t_cdf(df, -hi) > tail).any():
        lo, hi = np.where(short, hi, lo), np.where(short, 2 * hi, hi)
    step = np.arange(1, _SECTIONS) / _SECTIONS
    while ((lo < (inner := lo + (hi - lo) * step)) & (inner < hi)).any():
        ends = np.concatenate([lo, inner, hi], axis=-1)
        above = (t_cdf(df, -inner) > tail).sum(axis=-1, keepdims=True)
        lo = np.take_along_axis(ends, above, axis=-1)
        hi = np.take_along_axis(ends, above + 1, axis=-1)
    return np.where(df > 0, hi, np.nan)[..., 0]


@cache
def t_quantile(n: int) -> float:
    """Student t quantile of a two-sided 95% CI for the mean of n > 1
    replications, t(0.975, n - 1): 2.571 at n = 6, where the normal 1.96
    would be 24% too narrow. Bisection on ``t_cdf``, once per n; within a
    relative 1e-12 of ``scipy.stats.t.ppf`` for n up to 5,000."""
    return float(_t_upper(n - 1, ALPHA / 2))


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
    import numpy as np

    if "base" not in ensembles:
        raise ValueError("no ensemble named 'base'")
    if at_days is None:
        horizon = len(_daily_series(ensembles["base"][0]))
        at_days = tuple(dict.fromkeys(d for d in (365, horizon) if d <= horizon))
    cols = [d - 1 for d in at_days]
    # (days x replications), one contiguous row per day
    totals = {name: np.ascontiguousarray(
                  series_matrix(ens, "released_doses").cumsum(axis=1)[:, cols].T)
              for name, ens in ensembles.items()}
    cis = {name: [c.tolist() for c in column_ci(t.T)] for name, t in totals.items()}
    rows = []
    for name in ["base"] + sorted(n for n in ensembles if n != "base"):
        ps = None if name == "base" else _welch_p(totals[name], totals["base"]).tolist()
        for j, day in enumerate(at_days):
            avg, low, high = (c[j] for c in cis[name])
            row = {"scenario": name, "day": day, "n": len(ensembles[name]),
                   "mean_doses": avg, "ci_low": low, "ci_high": high,
                   "delta_pct": None, "p_value": None, "significant": False}
            if name != "base":
                ref = cis["base"][0][j]
                if ref:
                    row["delta_pct"] = 100.0 * (avg - ref) / ref
                if not math.isnan(ps[j]):
                    row["p_value"] = ps[j]
                    row["significant"] = ps[j] < ALPHA
            rows.append(row)
    return rows

"""Report assembly: markdown summary plus plot-ready tidy CSV files.

Input is one or more result stores (manifest + replication results). With a
single store the report covers throughput, lead times, utilization, and
stockouts; given a base store and scenario stores it adds the cross-scenario
comparison table and recovery findings.
"""

from __future__ import annotations

import csv
import os
from itertools import chain, repeat

import numpy as np

from .metrics import (COMPARISON_COLUMNS, LEAD_TIME_BIN_DAYS, bottleneck_report,
                      compare_scenarios, comparison_cells, detect_recovery,
                      doses_by_day, lead_time_histogram, t_quantile, time_to_first_dose)

MONTH_DAYS = 30


def _column_ci(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and Student t 95% CI of each column of a (replications x
    columns) matrix; one replication gives a zero-width interval.

    The reduction runs along contiguous rows of the transpose, so every
    column is summed pairwise exactly as a 1-D mean of that column would be;
    an ``axis=0`` reduction adds the rows in order and differs in the last
    bits from eight replications on.
    """
    rows = np.ascontiguousarray(matrix.T)
    m = rows.mean(axis=1)
    n = matrix.shape[0]
    if n < 2:
        return m, m, m
    half = t_quantile(n) * rows.std(axis=1, ddof=1) / n ** 0.5
    return m, m - half, m + half


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _rows(labels: tuple, *columns: np.ndarray):
    """Tidy rows of one series: the labels, a 1-based day (or month), then
    the value of each column, streamed to the CSV writer."""
    values = [c.tolist() for c in columns]
    return zip(*map(repeat, labels), range(1, len(values[0]) + 1), *values)


def _series_matrix(results, name: str) -> np.ndarray:
    return np.array([r.series[name] for r in results], dtype=float)


def _fmt_m(doses: float) -> str:
    return f"{doses / 1e6:.1f}"


def _ensembles(stores) -> dict[str, list]:
    out = {}
    for manifest, results in stores:
        out[manifest["scenario"]] = results
    return out


def write_report(stores: list[tuple[dict, list]], out_dir: str) -> str:
    """Emit report.md and CSVs under out_dir; returns the report path."""
    os.makedirs(out_dir, exist_ok=True)
    ens = _ensembles(stores)
    base_name = "base" if "base" in ens else stores[0][0]["scenario"]
    horizon = stores[0][0]["horizon_days"]

    _emit_throughput(ens, out_dir)
    _emit_histogram(ens, out_dir)
    _emit_utilization(ens, out_dir)
    _emit_queues(ens, out_dir)
    _emit_inventory(ens, out_dir)
    _emit_stockouts(ens, out_dir, horizon)

    comparison = recovery = None
    if len(ens) > 1 and base_name in ens:
        comparison = compare_scenarios(ens, base=base_name)
        _write_csv(os.path.join(out_dir, "comparison.csv"), COMPARISON_COLUMNS,
                   map(comparison_cells, comparison))
        recovery = {}
        for name in sorted(ens):
            if name == base_name:
                continue
            recovery[name] = detect_recovery(ens[base_name], ens[name])
        _write_csv(os.path.join(out_dir, "recovery.csv"),
                   ["scenario", "disrupted", "start_day", "end_day",
                    "duration_days", "recovery_weeks", "recovered"],
                   [[n, r["disrupted"],
                     "" if r["start_day"] is None else r["start_day"],
                     "" if r["end_day"] is None else r["end_day"],
                     r["duration_days"],
                     "" if r["recovery_weeks"] is None else r["recovery_weeks"],
                     r["recovered"]] for n, r in sorted(recovery.items())])

    path = os.path.join(out_dir, "report.md")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_render_markdown(stores, ens, base_name, comparison, recovery))
    return path


# -- tidy CSV families ---------------------------------------------------

def _emit_throughput(ens, out_dir) -> None:
    monthly_rows, cum_rows = [], []
    for name in sorted(ens):
        daily = _series_matrix(ens[name], "released_doses")
        reps, days = daily.shape
        months = days // MONTH_DAYS
        monthly = daily[:, :months * MONTH_DAYS].reshape(
            reps, months, MONTH_DAYS).sum(axis=2)
        monthly_rows.append(_rows((name,), *_column_ci(monthly)))
        cum_rows.append(_rows((name,), *_column_ci(daily.cumsum(axis=1))))
    _write_csv(os.path.join(out_dir, "monthly_throughput.csv"),
               ["scenario", "month", "mean_doses", "ci_low", "ci_high"],
               chain.from_iterable(monthly_rows))
    _write_csv(os.path.join(out_dir, "cumulative_throughput.csv"),
               ["scenario", "day", "mean_doses", "ci_low", "ci_high"],
               chain.from_iterable(cum_rows))


def _emit_histogram(ens, out_dir) -> None:
    rows = []
    for name in sorted(ens):
        pooled: dict[int, int] = {}
        for res in ens[name]:
            for bin_start, count in lead_time_histogram(res).items():
                pooled[bin_start] = pooled.get(bin_start, 0) + count
        n = len(ens[name])
        for bin_start in sorted(pooled):
            rows.append([name, bin_start, bin_start + LEAD_TIME_BIN_DAYS,
                         pooled[bin_start] / n])
    _write_csv(os.path.join(out_dir, "lead_time_histogram.csv"),
               ["scenario", "bin_start_days", "bin_end_days",
                "mean_batches_per_replication"], rows)


def _util_keys(results) -> list[str]:
    return sorted(k for k in results[0].series
                  if k.startswith(("stage_util.", "pool_util.")))


def _mean_series(results, key: str) -> np.ndarray:
    """Daily mean over replications, rounded to six decimals for the CSV."""
    return _series_matrix(results, key).mean(axis=0).round(6)


def _emit_utilization(ens, out_dir) -> None:
    rows = []
    for name in sorted(ens):
        for key in _util_keys(ens[name]):
            kind, _, resource = key.partition(".")
            kindname = "machines" if kind == "stage_util" else "personnel"
            rows.append(_rows((name, resource, kindname),
                              _mean_series(ens[name], key)))
    _write_csv(os.path.join(out_dir, "utilization.csv"),
               ["scenario", "resource", "kind", "day", "mean_utilization"],
               chain.from_iterable(rows))


def _emit_queues(ens, out_dir) -> None:
    rows = []
    for name in sorted(ens):
        keys = sorted(k for k in ens[name][0].series
                      if k.startswith("pool_queue."))
        for key in keys:
            pool = key.split(".", 1)[1]
            rows.append(_rows((name, pool), _mean_series(ens[name], key)))
    _write_csv(os.path.join(out_dir, "queue_lengths.csv"),
               ["scenario", "pool", "day", "mean_queue_length"],
               chain.from_iterable(rows))


def _emit_inventory(ens, out_dir) -> None:
    rows = []
    for name in sorted(ens):
        keys = sorted(k for k in ens[name][0].series
                      if k.startswith("material_level."))
        for key in keys:
            mid = key.split(".", 1)[1]
            rows.append(_rows((name, mid), _mean_series(ens[name], key)))
    _write_csv(os.path.join(out_dir, "inventory_levels.csv"),
               ["scenario", "material", "day", "mean_batch_equivalents"],
               chain.from_iterable(rows))


def _emit_stockouts(ens, out_dir, horizon) -> None:
    rows = []
    years = horizon / 365.0 if horizon else 1.0
    for name in sorted(ens):
        keys = sorted(k for k in ens[name][0].series
                      if k.startswith("material_stockout."))
        for key in keys:
            mid = key.split(".", 1)[1]
            per_rep = [res.counts[f"material_stockout_days.{mid}"]
                       for res in ens[name]]
            m = float(np.mean(per_rep))
            rows.append([name, mid, round(m / years, 2)])
    _write_csv(os.path.join(out_dir, "stockouts.csv"),
               ["scenario", "material", "stockout_days_per_year"], rows)


# -- markdown ------------------------------------------------------------

def _render_markdown(stores, ens, base_name, comparison, recovery) -> str:
    lines = ["# Simulation report", ""]
    m0 = stores[0][0]
    lines += [
        f"Config `{m0['config_hash'][:12]}`, horizon {m0['horizon_days']} days "
        f"from {m0['start_date']}.",
        "",
        "| scenario | replications | base seed |",
        "|---|---|---|",
    ]
    for manifest, results in stores:
        lines.append(f"| {manifest['scenario']} | {manifest['replications']} "
                     f"| {manifest['base_seed']} |")
    lines.append("")

    lines += ["## Key performance indicators", "",
              "| scenario | first dose (day) | doses at 12m (M) "
              "| doses total (M) | released | discarded |", "|---|---|---|---|---|---|"]
    for name in sorted(ens, key=lambda n: (n != base_name, n)):
        results = ens[name]
        ttfd = [d for d in map(time_to_first_dose, results) if d]
        lines.append("| {} | {:.1f} | {} | {} | {:.1f} | {:.1f} |".format(
            name,
            float(np.mean(ttfd)) if ttfd else float("nan"),
            _fmt_m(float(np.mean([doses_by_day(r, 365) for r in results]))),
            _fmt_m(float(np.mean([sum(r.series["released_doses"])
                                  for r in results]))),
            float(np.mean([r.counts["batches_released"] for r in results])),
            float(np.mean([r.counts["batches_discarded"] for r in results]))))
    lines.append("")

    if base_name in ens:
        lines += ["## Bottlenecks (base)", "",
                  "| rank | resource | kind | mean utilization |",
                  "|---|---|---|---|"]
        for i, row in enumerate(bottleneck_report(ens[base_name])[:10], 1):
            flag = " **bottleneck**" if row["bottleneck"] else ""
            lines.append(f"| {i} | {row['resource']}{flag} | {row['kind']} "
                         f"| {row['utilization'] * 100:.1f}% |")
        lines.append("")

    if comparison:
        lines += ["## Scenario comparison", "",
                  "| scenario | horizon (days) | doses (M) [95% CI] | change | p |",
                  "|---|---|---|---|---|"]
        for r in comparison:
            ci = f"{_fmt_m(r['mean_doses'])} [{_fmt_m(r['ci_low'])}; {_fmt_m(r['ci_high'])}]"
            delta = "" if r["delta_pct"] is None else f"{r['delta_pct']:+.1f}%"
            if r["p_value"] is None:
                p = ""
            elif r["p_value"] < 0.001:
                p = "<0.001"
            else:
                p = f"{r['p_value']:.3f}"
            lines.append(f"| {r['scenario']} | {r['day']} | {ci} | {delta} | {p} |")
        lines.append("")

    if recovery:
        lines += ["## Recovery", "",
                  "| scenario | disrupted | window (days) | weeks | recovered |",
                  "|---|---|---|---|---|"]
        for name, r in sorted(recovery.items()):
            window = ("-" if r["start_day"] is None else
                      f"{r['start_day']}..{r['end_day'] if r['end_day'] is not None else 'open'}")
            weeks = "-" if r["recovery_weeks"] is None else str(r["recovery_weeks"])
            lines.append(f"| {name} | {r['disrupted']} | {window} | {weeks} "
                         f"| {r['recovered']} |")
        lines.append("")

    lines += ["## Files", "",
              "Tidy CSVs beside this report: monthly and cumulative throughput, "
              "lead-time histogram, utilization, queue lengths, inventory "
              "levels (batch equivalents), stockout days per year" +
              (", scenario comparison, recovery windows." if comparison
               else "."), ""]
    return "\n".join(lines)

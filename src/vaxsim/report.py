"""Report assembly: markdown summary plus plot-ready tidy CSV files.

Input is one or more result stores (manifest + replication results). Every
report covers throughput, lead times, utilization, queues, inventory and
stockouts. As in ``vaxsim compare``, the base is the store named ``base``: it
adds the bottleneck ranking and, beside scenario stores, the cross-scenario
comparison table and recovery findings.

Every float cell of the CSVs is ``repr`` of the value: its shortest
round-trip digits. The daily series, most of the cells, are written by
orjson, which writes those same digits in the same notation for nearly every
value, and by ``repr`` where it would not (see ``_repr_texts``).
"""

from __future__ import annotations

import csv
import functools
import io
import os

import numpy as np

from .metrics import (COMPARISON_COLUMNS, LEAD_TIME_BIN_DAYS, RESOURCE_KINDS,
                      bottleneck_report, column_ci, compare_scenarios,
                      comparison_cells, detect_recovery, doses_by_day,
                      lead_time_histogram, series_matrix, time_to_first_dose)

MONTH_DAYS = 30
RECOVERY_COLUMNS = ["disrupted", "start_day", "end_day", "duration_days",
                    "recovery_weeks", "recovered"]


def _write_csv(path: str, header: list[str], rows=(), texts=()) -> None:
    """The header, then ``rows`` through csv.writer, then ``texts`` as they are."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        fh.writelines(texts)


def _series_text(labels: tuple, *columns: np.ndarray) -> str:
    """The tidy CSV rows of one series, as csv.writer would write them: the
    labels, a 1-based day (or month), then the value of each column.

    csv.writer renders the labels once, so they quote as in every other
    table (the trailing empty field keeps a lone empty label unquoted, as it
    is in a longer row). The day is written with str and each value is
    written as ``repr`` writes it (see ``_repr_texts``), as csv.writer writes
    an int and a float.
    """
    if not len(columns[0]):
        return ""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([*labels, ""])
    head = buf.getvalue()[:-1]
    rows = zip(_day_labels(len(columns[0])), *map(_repr_texts, columns))
    return head + ("\n" + head).join(map(",".join, rows)) + "\n"


@functools.cache
def _day_labels(n: int) -> tuple[str, ...]:
    return tuple(map(str, range(1, n + 1)))


def _repr_texts(column: np.ndarray) -> list[str]:
    """``repr`` of each value of a float column, written by orjson.

    For zero and for finite values of magnitude in [1e-4, 1e16), orjson
    writes the same shortest round-trip digits in the same plain notation as
    ``repr``. It writes other values differently (``0.00001`` for ``1e-05``,
    ``1e16`` for ``1e+16``, ``null`` for NaN), so those are rewritten with
    ``repr``.
    """
    import orjson  # on the first float column: run, validate and compare never load it

    values = column.tolist()
    texts = orjson.dumps(values).decode()[1:-1].split(",")
    magnitude = np.abs(column)
    plain = ((magnitude >= 1e-4) & (magnitude < 1e16)) | (column == 0)
    for i in np.flatnonzero(~plain).tolist():
        texts[i] = repr(values[i])
    return texts


def _fmt_m(doses: float) -> str:
    return f"{doses / 1e6:.1f}"


def write_report(stores: list[tuple[dict, list]], out_dir: str) -> str:
    """Emit report.md and CSVs under out_dir; returns the report path."""
    os.makedirs(out_dir, exist_ok=True)
    ens = {manifest["scenario"]: results for manifest, results in stores}
    horizon = stores[0][0]["horizon_days"]

    _emit_throughput(ens, out_dir)
    _emit_histogram(ens, out_dir)
    _emit_daily_means(ens, out_dir)
    _emit_stockouts(ens, out_dir, horizon)

    comparison = recovery = None
    if len(ens) > 1 and "base" in ens:
        comparison = compare_scenarios(ens)
        _write_csv(os.path.join(out_dir, "comparison.csv"), COMPARISON_COLUMNS,
                   map(comparison_cells, comparison))
        recovery = {name: detect_recovery(ens["base"], ens[name])
                    for name in sorted(ens) if name != "base"}
        _write_csv(os.path.join(out_dir, "recovery.csv"), ["scenario", *RECOVERY_COLUMNS],
                   ([n] + ["" if r[k] is None else r[k] for k in RECOVERY_COLUMNS]
                    for n, r in recovery.items()))

    path = os.path.join(out_dir, "report.md")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_render_markdown(stores, ens, comparison, recovery))
    return path


# -- tidy CSV families ---------------------------------------------------

def _emit_throughput(ens, out_dir) -> None:
    monthly_texts, cum_texts = [], []
    for name in sorted(ens):
        daily = series_matrix(ens[name], "released_doses")
        reps, days = daily.shape
        months = days // MONTH_DAYS
        monthly = daily[:, :months * MONTH_DAYS].reshape(
            reps, months, MONTH_DAYS).sum(axis=2)
        monthly_texts.append(_series_text((name,), *column_ci(monthly)))
        cum_texts.append(_series_text((name,), *column_ci(daily.cumsum(axis=1))))
    _write_csv(os.path.join(out_dir, "monthly_throughput.csv"),
               ["scenario", "month", "mean_doses", "ci_low", "ci_high"],
               texts=monthly_texts)
    _write_csv(os.path.join(out_dir, "cumulative_throughput.csv"),
               ["scenario", "day", "mean_doses", "ci_low", "ci_high"],
               texts=cum_texts)


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


# per family: file, header, and series prefix -> label columns after the name
DAILY_MEANS = [
    ("utilization.csv", ["scenario", "resource", "kind", "day", "mean_utilization"],
     {prefix: (kind,) for prefix, kind in RESOURCE_KINDS.items()}),
    ("queue_lengths.csv", ["scenario", "pool", "day", "mean_queue_length"],
     {"pool_queue": ()}),
    ("inventory_levels.csv", ["scenario", "material", "day", "mean_batch_equivalents"],
     {"material_level": ()}),
]


def _emit_daily_means(ens, out_dir) -> None:
    """Daily mean over replications of each series in a family, rounded to
    six decimals."""
    for filename, header, labels in DAILY_MEANS:
        texts = []
        for name in sorted(ens):
            for key in sorted(ens[name][0].series):
                prefix, _, label = key.partition(".")
                if prefix in labels:
                    daily = series_matrix(ens[name], key).mean(axis=0).round(6)
                    texts.append(_series_text((name, label, *labels[prefix]), daily))
        _write_csv(os.path.join(out_dir, filename), header, texts=texts)


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

def _render_markdown(stores, ens, comparison, recovery) -> str:
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
    for name in sorted(ens, key=lambda n: (n != "base", n)):
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

    if "base" in ens:
        lines += ["## Bottlenecks (base)", "",
                  "| rank | resource | kind | mean utilization |",
                  "|---|---|---|---|"]
        for i, row in enumerate(bottleneck_report(ens["base"])[:10], 1):
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

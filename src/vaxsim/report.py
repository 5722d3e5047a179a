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

The report loads numpy, so it works on whole arrays where ``vaxsim run``
would not: each scenario's series of a daily-mean family are one (series x
replications x days) array, averaged and written in one pass, and the base
bottleneck ranking takes its means from the same utilization arrays rather
than through ``metrics.bottleneck_report``'s pure-Python mean, which it
equals bit for bit.
"""

from __future__ import annotations

import csv
import functools
import io
import os

import numpy as np

from .metrics import (COMPARISON_COLUMNS, LEAD_TIME_BIN_DAYS, RESOURCE_KINDS,
                      column_ci, compare_scenarios, comparison_cells,
                      detect_recovery, doses_by_day, lead_time_histogram,
                      rank_resources, series_matrix, time_to_first_dose)

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


def _series_text(labels: list[tuple], *blocks: np.ndarray) -> str:
    """The tidy CSV rows of series of one length, as csv.writer would write
    them. Each block is a (series x days) matrix, and series i is row i of
    every block: its ``labels[i]``, a 1-based day (or month), then its
    value in each block.

    csv.writer renders the labels once a series, so they quote as in every
    other table (the trailing empty field keeps a lone empty label unquoted,
    as it is in a longer row). The day is written with str and each value is
    written as ``repr`` writes it, by one ``_repr_texts`` call a block, as
    csv.writer writes an int and a float. The rows are one join over a list
    of the cells and separators, filled by strided slices, so no string is
    made per row.
    """
    days = blocks[0].shape[1]
    if not days:
        return ""
    texts = [_repr_texts(block.ravel()) for block in blocks]
    out: list[str] = []
    for i, series_labels in enumerate(labels):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([*series_labels, ""])
        head = buf.getvalue()[:-1]
        # a row is [head, "day,", value, ",", value, ...], each after the
        # first led by a newline
        row = ["\n" + head, None, None] + [",", None] * (len(blocks) - 1)
        parts = row * days
        parts[0] = head
        parts[1::len(row)] = _day_cells(days)
        for k, t in enumerate(texts):
            parts[2 + 2 * k::len(row)] = t[i * days:(i + 1) * days]
        out += parts
        out.append("\n")
    return "".join(out)


@functools.cache
def _day_cells(n: int) -> tuple[str, ...]:
    return tuple(f"{day}," for day in range(1, n + 1))


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
    utilization = _emit_daily_means(ens, out_dir)
    _emit_stockouts(ens, out_dir, horizon)
    ranking = rank_resources(utilization) if "base" in ens else None

    comparison = recovery = None
    if len(ens) > 1 and "base" in ens:
        comparison = compare_scenarios(ens)
        _write_csv(os.path.join(out_dir, "comparison.csv"), COMPARISON_COLUMNS,
                   map(comparison_cells, comparison))
        # the detector's Welch tests need a variance on each side
        if all(len(results) > 1 for results in ens.values()):
            recovery = {name: detect_recovery(ens["base"], ens[name])
                        for name in sorted(ens) if name != "base"}
            _write_csv(os.path.join(out_dir, "recovery.csv"), ["scenario", *RECOVERY_COLUMNS],
                       ([n] + ["" if r[k] is None else r[k] for k in RECOVERY_COLUMNS]
                        for n, r in recovery.items()))

    path = os.path.join(out_dir, "report.md")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_render_markdown(stores, ens, ranking, comparison, recovery))
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
        monthly_texts.append(_series_text([(name,)], *map(np.atleast_2d, column_ci(monthly))))
        cum_texts.append(_series_text([(name,)], *map(np.atleast_2d,
                                                     column_ci(daily.cumsum(axis=1)))))
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


# utilization series prefix -> the label columns after its resource name
UTILIZATION = {prefix: (kind,) for prefix, kind in RESOURCE_KINDS.items()}
# per family: file, header, and series prefix -> label columns after the name
DAILY_MEANS = [
    ("utilization.csv", ["scenario", "resource", "kind", "day", "mean_utilization"],
     UTILIZATION),
    ("queue_lengths.csv", ["scenario", "pool", "day", "mean_queue_length"],
     {"pool_queue": ()}),
    ("inventory_levels.csv", ["scenario", "material", "day", "mean_batch_equivalents"],
     {"material_level": ()}),
]


def _emit_daily_means(ens, out_dir) -> dict[str, float]:
    """Daily mean over replications of each series in a family, rounded to
    six decimals; returns the base ensemble's mean utilization of each
    utilization series, by name (none without a base).

    A family's CSV is written a scenario at a time, so its text is never
    held whole."""
    utilization: dict[str, float] = {}
    for filename, header, labels in DAILY_MEANS:
        _write_csv(os.path.join(out_dir, filename), header,
                   texts=(_daily_mean_block(name, ens[name], labels, utilization)
                          for name in sorted(ens)))
    return utilization


def _daily_mean_block(name: str, results: list, labels: dict, utilization: dict) -> str:
    """The rows of the series of ``results`` that one family's ``labels``
    name, from one (series x replications x days) array. For the base's
    utilization series it also puts each series' mean utilization in
    ``utilization``: every replication's days are a contiguous row, which
    numpy sums pairwise, so each mean is ``metrics.mean`` of that series and
    then of the replications' means, bit for bit, as in
    ``metrics.bottleneck_report``."""
    keys = [key for key in sorted(results[0].series) if key.partition(".")[0] in labels]
    if not keys:
        return ""
    cube = np.array([[res.series[key] for res in results] for key in keys], dtype=float)
    if name == "base" and labels is UTILIZATION:
        utilization.update(zip(keys, cube.mean(axis=2).mean(axis=1).tolist()))
    return _series_text([(name, label, *labels[prefix]) for prefix, _, label
                         in (key.partition(".") for key in keys)],
                        cube.mean(axis=1).round(6))


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

def _render_markdown(stores, ens, ranking, comparison, recovery) -> str:
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

    if ranking is not None:
        lines += ["## Bottlenecks (base)", "",
                  "| rank | resource | kind | mean utilization |",
                  "|---|---|---|---|"]
        for i, row in enumerate(ranking[:10], 1):
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

    if comparison and not recovery:
        lines += ["## Recovery", "",
                  "Not assessed: recovery needs two replications per store.", ""]
    elif recovery:
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
              (", scenario comparison" if comparison else "") +
              (", recovery windows" if recovery else "") + ".", ""]
    return "\n".join(lines)

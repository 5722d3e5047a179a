"""Report output: file set, tidy CSV shapes, markdown sections."""

import csv
import io
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_dict
from vaxsim.config import parse_config
from vaxsim.metrics import column_ci, t_quantile
from vaxsim.report import _repr_texts, _series_text, write_report
from vaxsim.runner import load_store, run_ensemble, write_store
from vaxsim.scenario import parse_scenario

SLOW_FILL = {
    "name": "slow_fill",
    "modifications": [
        {"window": {"start": "2025-06-01", "end": "2025-08-31"},
         "set": {"stages.fill.processing_time": {"scale": 2.0}}},
    ],
}

TIDY_FILES = ["monthly_throughput.csv", "cumulative_throughput.csv",
              "lead_time_histogram.csv", "utilization.csv",
              "queue_lengths.csv", "inventory_levels.csv", "stockouts.csv"]


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("stores")
    raw = chain_dict()
    # a generously stocked material so the stockout table has a real row
    raw["materials"] = [{"id": "buffer_salts", "initial_stockpile": 5000.0,
                         "reorder_point": 100.0, "safety_stock": 50.0,
                         "lot_size": 500.0,
                         "suppliers": [{"id": "s1", "lead_time": 5.0}]}]
    raw["stages"][0]["materials"] = {"buffer_salts": 1.0}
    cfg = parse_config(raw)
    out = {}
    for name, overlay in [("base", {}), ("slow_fill", SLOW_FILL)]:
        results = run_ensemble(raw, overlay, 7, 3)
        path = str(root / name)
        write_store(path, results, cfg, parse_scenario(overlay, cfg), 7)
        out[name] = load_store(path)
    return out


def read_csv(out_dir, name):
    with open(os.path.join(out_dir, name), newline="") as fh:
        return list(csv.DictReader(fh))


def test_two_store_report(stores, tmp_path):
    out = str(tmp_path / "rep")
    path = write_report([stores["base"], stores["slow_fill"]], out)
    files = set(os.listdir(out))
    assert files == set(TIDY_FILES) | {"comparison.csv", "recovery.csv",
                                       "report.md"}
    text = open(path).read()
    for section in ["## Key performance indicators", "## Bottlenecks",
                    "## Scenario comparison", "## Recovery"]:
        assert section in text
    assert "slow_fill" in text


def test_single_store_report(stores, tmp_path):
    out = str(tmp_path / "rep")
    path = write_report([stores["base"]], out)
    files = set(os.listdir(out))
    assert files == set(TIDY_FILES) | {"report.md"}
    text = open(path).read()
    assert "## Scenario comparison" not in text
    assert "## Recovery" not in text


BASE_ONLY = ["## Bottlenecks (base)", "## Scenario comparison", "## Recovery"]


def renamed(store, scenario):
    manifest, results = store
    return {**manifest, "scenario": scenario}, results


@pytest.mark.parametrize("names", [["slow_fill"], ["slow_fill", "other"]])
def test_without_a_base_store_nothing_is_compared(stores, tmp_path, names):
    # as in `vaxsim compare`, only a store named base is the base
    picked = [stores["slow_fill"], renamed(stores["base"], "other")][:len(names)]
    path = write_report(picked, str(tmp_path / "rep"))
    assert set(os.listdir(tmp_path / "rep")) == set(TIDY_FILES) | {"report.md"}
    text = open(path).read()
    assert not [s for s in BASE_ONLY if s in text]
    assert all(f"| {name} |" in text for name in names)


def test_monthly_throughput_shape(stores, tmp_path):
    out = str(tmp_path / "rep")
    write_report([stores["base"], stores["slow_fill"]], out)
    rows = read_csv(out, "monthly_throughput.csv")
    per_scn = {}
    for r in rows:
        per_scn.setdefault(r["scenario"], []).append(float(r["mean_doses"]))
    assert set(per_scn) == {"base", "slow_fill"}
    assert all(len(v) == 1095 // 30 for v in per_scn.values())
    # months sum to the 30*36-day cumulative total
    cum = read_csv(out, "cumulative_throughput.csv")
    last = {r["scenario"]: float(r["mean_doses"])
            for r in cum if r["day"] == "1080"}
    for scn, months in per_scn.items():
        assert sum(months) == pytest.approx(last[scn])


def test_comparison_rows(stores, tmp_path):
    out = str(tmp_path / "rep")
    write_report([stores["base"], stores["slow_fill"]], out)
    rows = read_csv(out, "comparison.csv")
    assert len(rows) == 4  # 2 scenarios x {365, 1095}
    base_rows = [r for r in rows if r["scenario"] == "base"]
    assert all(r["delta_pct"] == "" and r["p_value"] == "" for r in base_rows)
    scen = {r["day"]: r for r in rows if r["scenario"] == "slow_fill"}
    assert float(scen["365"]["delta_pct"]) < 0


def test_stockouts_table(stores, tmp_path):
    out = str(tmp_path / "rep")
    write_report([stores["base"]], out)
    rows = read_csv(out, "stockouts.csv")
    assert {r["material"] for r in rows} == {"buffer_salts"}
    assert all(float(r["stockout_days_per_year"]) == 0.0 for r in rows)


def test_utilization_kinds(stores, tmp_path):
    out = str(tmp_path / "rep")
    write_report([stores["base"]], out)
    rows = read_csv(out, "utilization.csv")
    kinds = {(r["resource"], r["kind"]) for r in rows}
    assert ("fill", "machines") in kinds
    assert ("qa_reviewers", "personnel") in kinds
    days = {int(r["day"]) for r in rows if r["resource"] == "fill"}
    assert days == set(range(1, 1096))


def _scalar_ci(values):
    """One column's mean and CI the way a 1-D reduction computes them."""
    arr = np.asarray(values, dtype=float)
    m = float(arr.mean())
    if len(arr) < 2:
        return m, m, m
    half = t_quantile(len(arr)) * float(arr.std(ddof=1)) / len(arr) ** 0.5
    return m, m - half, m + half


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.sampled_from([1, 2, 7, 8, 9, 20, 100]), st.integers(1, 40), st.data())
def test_column_ci_matches_scalar_reference_bit_for_bit(n, cols, data):
    # released-dose totals: large, and summed in an order that shows in the bits
    values = data.draw(st.lists(st.floats(0, 1e9), min_size=n * cols,
                                max_size=n * cols))
    matrix = np.array(values).reshape(n, cols)
    got = [c.tolist() for c in column_ci(matrix)]
    for j in range(cols):
        assert tuple(c[j] for c in got) == _scalar_ci(matrix[:, j])


# where orjson's notation and repr's part: 1e-04 is written 0.0001 by both, but
# 1e-05 is 0.00001 to orjson, and 1e+16 is 1e16
EDGES = [v for edge in (1e-4, 1e16) for toward in (0.0, np.inf)
         for v in (edge, np.nextafter(edge, toward), -np.nextafter(edge, toward))]
EDGES += [1e-05, 9999999999999998.0, 1e15, -1e15]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


DOUBLES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2 ** 64 - 1).map(_double),  # NaN payloads and every exponent
    st.integers(-2 ** 64, 2 ** 64).map(float),  # integral, up to 2^53 and beyond
    st.sampled_from(EDGES))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.lists(DOUBLES, max_size=40))
def test_repr_texts_are_repr(values):
    column = np.array(values + EDGES, dtype=float)
    assert _repr_texts(column) == [repr(v) for v in column.tolist()]


def _csv_reference(labels, *columns):
    """The rows of one series through csv.writer, as the report wrote them."""
    buf = io.StringIO()
    values = [c.tolist() for c in columns]
    csv.writer(buf, lineterminator="\n").writerows(
        (*labels, day, *row) for day, *row in zip(range(1, len(values[0]) + 1), *values))
    return buf.getvalue()


@pytest.mark.parametrize("labels", [
    ("base",), ("a,b", 'say "hi"', "two\nlines"), ("", "x"), ("",),
    ("carriage\r",), ("{0}", "}{", "%d", "100%"), (" padded ", "tab\t")])
def test_series_text_matches_csv_writer(labels):
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-07, 0.1, 123456789.125,
                        *EDGES])
    assert _series_text(labels, special) == _csv_reference(labels, special)
    columns = (special, np.arange(float(len(special))), special[::-1].copy())
    assert _series_text(labels, *columns) == _csv_reference(labels, *columns)
    # a horizon shorter than a month has no monthly rows
    assert _series_text(labels, np.array([])) == _csv_reference(labels, np.array([])) == ""

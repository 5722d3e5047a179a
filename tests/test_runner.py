"""Replication harness and result store: determinism, round trips, layout."""

import csv
import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vaxsim
from vaxsim import runner
from vaxsim.config import parse_config
from vaxsim.model import ReplicationResult
from vaxsim.runner import (KPI_COLUMNS, STORE_FORMAT, load_store, ndjson_to_result,
                           overlay_identity, result_to_ndjson, run_ensemble,
                           run_replication, series_layout, write_store)
from vaxsim.scenario import parse_scenario

from conftest import chain_dict

SLOW_FILL = {
    "name": "slow_fill",
    "modifications": [
        {"window": {"start": "2025-06-01", "end": "2025-08-31"},
         "set": {"stages.fill.processing_time": {"scale": 2.0}}},
    ],
}


def store_bytes(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def make_store(tmp_path, name, overlay, *, seed=7, n=3, jobs=1):
    raw = chain_dict()
    results = run_ensemble(raw, overlay, seed, n, jobs=jobs)
    cfg = parse_config(raw)
    spec = parse_scenario(overlay or {}, cfg)
    out = str(tmp_path / name)
    manifest = write_store(out, results, cfg, spec, seed)
    return out, manifest, results


def _round_trip(res):
    return ndjson_to_result(*result_to_ndjson(res), series_layout(res))


def test_ndjson_round_trip():
    res = run_replication(chain_dict(), {}, 11)
    back = _round_trip(res)
    assert back.seed == 11
    assert back.scenario == res.scenario
    assert back.series == res.series
    assert back.batches == res.batches
    assert back.counts == res.counts


def test_store_round_trip(tmp_path):
    out, manifest, results = make_store(tmp_path, "s", {})
    loaded_manifest, loaded = load_store(out)
    assert loaded_manifest == manifest
    assert [r.series for r in loaded] == [r.series for r in results]
    assert [r.counts for r in loaded] == [r.counts for r in results]


def test_manifest_contents(tmp_path):
    _, manifest, results = make_store(tmp_path, "s", {}, seed=42, n=2)
    assert manifest["format"] == STORE_FORMAT
    assert manifest["scenario"] == "base"
    assert manifest["overlay_hash"] is None
    assert manifest["base_seed"] == 42
    assert manifest["replications"] == 2
    assert manifest["horizon_days"] == 1095
    assert len(manifest["config_hash"]) == 64


def test_manifest_lists_every_file(tmp_path):
    out, manifest, _ = make_store(tmp_path, "s", {})
    on_disk = store_bytes(out)
    del on_disk["manifest.json"]
    assert set(manifest["files"]) == set(on_disk) == set(manifest["sha256"])
    for rel, data in on_disk.items():
        assert hashlib.sha256(data).hexdigest() == manifest["sha256"][rel]


def test_a_smaller_run_into_a_store_leaves_no_stale_replications(tmp_path):
    # a file from the earlier run would look like part of the new store
    out, _, _ = make_store(tmp_path, "s", {}, n=3)
    raw = chain_dict()
    cfg = parse_config(raw)
    manifest = write_store(out, run_ensemble(raw, {}, 7, 1), cfg, None, 7)
    listed = {f for f in manifest["files"] if f.startswith("replications")}
    assert {os.path.join("replications", f)
            for f in os.listdir(os.path.join(out, "replications"))} == listed
    assert len(listed) == 2


def test_series_that_do_not_fit_the_store_are_not_written(tmp_path):
    cfg = parse_config(chain_dict())
    res = _result([1.0, 2.0])
    short = dataclasses.replace(res, series=dict(res.series, released_doses=array("d", [1.0])))
    with pytest.raises(ValueError, match="'released_doses' is not 2 values"):
        write_store(str(tmp_path / "short"), [short], cfg, None, 1)
    fewer = dataclasses.replace(res, series={"released_doses": res.series["released_doses"]})
    with pytest.raises(ValueError, match="replication 1 holds other series"):
        write_store(str(tmp_path / "fewer"), [res, fewer], cfg, None, 1)


def test_seed_derivation(tmp_path):
    out, _, results = make_store(tmp_path, "s", {}, seed=100, n=4)
    assert [r.seed for r in results] == [100, 101, 102, 103]
    with open(os.path.join(out, "kpis.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["seed"]) for r in rows] == [100, 101, 102, 103]
    assert list(rows[0]) == KPI_COLUMNS


def test_rerun_is_byte_identical(tmp_path):
    a, _, _ = make_store(tmp_path, "a", {})
    b, _, _ = make_store(tmp_path, "b", {})
    assert store_bytes(a) == store_bytes(b)


def test_worker_count_does_not_change_bytes(tmp_path):
    a, _, _ = make_store(tmp_path, "a", SLOW_FILL, jobs=1)
    b, _, _ = make_store(tmp_path, "b", SLOW_FILL, jobs=2)
    assert store_bytes(a) == store_bytes(b)


class _RecordingPool:
    """A stand-in process pool that runs its tasks in this process and
    records the worker count each pool was asked for."""

    asked: list[int] = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("replications, pools", [(1, []), (2, [2])])
def test_workers_are_capped_at_the_replications(monkeypatch, replications, pools):
    # a fork pool starts every worker at once: --jobs 4 for two replications
    # must start two, and one replication runs in this process
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "asked", [])
    results = run_ensemble(chain_dict(), {}, 7, replications, jobs=4)
    assert _RecordingPool.asked == pools
    assert [r.seed for r in results] == [7 + i for i in range(replications)]


def test_empty_overlay_collapses_to_base(tmp_path):
    plain, _, _ = make_store(tmp_path, "plain", {})
    overlay, manifest, _ = make_store(tmp_path, "overlay",
                                      {"name": "noop", "modifications": []})
    assert manifest["scenario"] == "base"
    assert manifest["overlay_hash"] is None
    assert store_bytes(plain) == store_bytes(overlay)


def test_overlay_identity_tracks_content():
    cfg = parse_config(chain_dict())
    empty = parse_scenario({}, cfg)
    assert overlay_identity(empty) is None
    assert overlay_identity(None) is None

    spec = parse_scenario(SLOW_FILL, cfg)
    h1 = overlay_identity(spec)
    assert h1 is not None and len(h1) == 64
    # same content again, independent of dict ordering quirks
    reparsed = parse_scenario(json.loads(json.dumps(SLOW_FILL)), cfg)
    assert overlay_identity(reparsed) == h1

    other = {"name": "slow_fill", "modifications": [
        {"window": {"start": "2025-06-01", "end": "2025-08-31"},
         "set": {"stages.fill.processing_time": {"scale": 3.0}}}]}
    assert overlay_identity(parse_scenario(other, cfg)) != h1


def test_scenario_store_differs_from_base(tmp_path):
    base, _, _ = make_store(tmp_path, "base", {})
    scen, manifest, _ = make_store(tmp_path, "scen", SLOW_FILL)
    assert manifest["scenario"] == "slow_fill"
    assert manifest["overlay_hash"] is not None
    assert store_bytes(base) != store_bytes(scen)


def test_replication_faults_surface():
    bad = chain_dict()
    bad["stages"][0]["processing_time"] = -1.0
    with pytest.raises(Exception):
        run_ensemble(bad, {}, 1, 1)


# -- series round trip ----------------------------------------------------

def _result(doses):
    # a config id may be any string: this name is escaped in the manifest
    odd_name = 'stage_util.f\u00fcll "1"\\'
    return ReplicationResult("base", 1, len(doses), "2025-04-01", series={
        "material_stockout.resin": array("b", [0, 1] * (len(doses) // 2)),
        "released_doses": array("d", doses), odd_name: array("d", doses[::-1])},
        batches=[{"id": 1, "doses": 2.0}], counts={"batches_released": 1})


def test_loaded_series_compare_as_the_written_ones():
    inf = float("inf")
    mem = _result([inf, -0.0, 1e-07, -inf])
    loaded = _round_trip(mem)
    assert loaded == mem and mem == loaded
    assert not loaded != mem and not mem != loaded
    # == cannot tell -0.0 from 0.0, the bits can
    assert loaded.series["released_doses"].tobytes() == mem.series["released_doses"].tobytes()
    assert list(loaded.series) == sorted(mem.series)
    other = _result([inf, -0.0, 2e-07, -inf])
    assert loaded != other and other != loaded
    assert not loaded == other and not other == loaded
    with pytest.raises(TypeError):
        loaded.series["released_doses"] = array("d")  # read-only


def test_a_nan_series_compares_as_an_eagerly_decoded_one():
    # an array holding NaN equals no other array, so it never did compare equal
    mem = _result([float("nan"), 1.0])
    loaded = _round_trip(mem)
    eager = dataclasses.replace(loaded, series=dict(loaded.series))
    assert loaded.series["released_doses"].tobytes() == mem.series["released_doses"].tobytes()
    for a, b in ((loaded, mem), (mem, loaded)):
        assert (a == b) is (eager == mem) is False
        assert (a != b) is (eager != mem) is True


# any double, NaN payloads, infinities, -0.0 and subnormals among them
DOUBLES = st.floats() | st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])


@st.composite
def replications(draw):
    """One to three hand-built replications of one horizon: every double
    for the doses, 0/1 flags for the stockouts."""
    horizon = draw(st.integers(0, 30))
    return [ReplicationResult("base", seed, horizon, "2025-04-01", series={
        "released_doses": array("d", draw(st.lists(DOUBLES, min_size=horizon,
                                                   max_size=horizon))),
        "material_stockout.resin": array("b", draw(st.lists(
            st.integers(0, 1), min_size=horizon, max_size=horizon)))},
        counts={"batches_released": 0, "batches_discarded": 0})
        for seed in range(1, draw(st.integers(1, 3)) + 1)]


@settings(max_examples=200, deadline=None)
@given(results=replications())
def test_series_round_trip_through_a_store(results):
    cfg = parse_config(chain_dict())
    with tempfile.TemporaryDirectory() as out:
        manifest = write_store(out, results, cfg, None, 1)
        assert manifest["series"] == [["material_stockout.resin", "b"],
                                      ["released_doses", "d"]]
        _, loaded = load_store(out)
    assert len(loaded) == len(results)
    for mem, disk in zip(results, loaded):
        assert list(disk.series) == sorted(mem.series)
        for name, values in mem.series.items():
            assert disk.series[name].typecode == values.typecode
            assert disk.series[name].tobytes() == values.tobytes()
        with pytest.raises(TypeError):
            disk.series["released_doses"] = array("d")  # read-only


def test_a_seed_beyond_64_bits_loads_as_the_int_written(tmp_path):
    # its 20 digits send the records to json, which reads an int of any size as that int
    seed = 2**64
    out, _, results = make_store(tmp_path, "seed", {}, seed=seed, n=1)
    manifest, (res,) = load_store(out)
    assert type(res.seed) is int and res.seed == seed
    assert type(manifest["base_seed"]) is int and manifest["base_seed"] == seed
    assert res.series == results[0].series


# -- a store reads every other record as json does ------------------------

def _parsed(parse, text):
    """What ``parse`` makes of ``text``: the repr of its value, which tells
    1 from 1.0 and True, -0.0 from 0.0 and a double from its neighbours, or
    its error's type and message."""
    try:
        return repr(parse(text))
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


JUNK = st.sampled_from(["1.2.3", ",", "[", "]", "}", "x", "-", "e5", ".", '"', "\\", "NaN"])
# ints at and on both sides of -2**64, -2**63, 2**63 and 2**64, and of 18, 19
# and 20 digits, where orjson would read an int as a float
BORDER_INTS = st.sampled_from([sign * (border + step) for border in (2**63, 2**64)
                               for step in (-1, 0, 1) for sign in (1, -1)])
DIGIT_INTS = st.sampled_from([17, 18, 19]).flatmap(
    lambda n: st.integers(10**n, 10**(n + 1) - 1)) | st.integers(-10**20, -10**17)
SCALARS = (st.none() | st.booleans() | BORDER_INTS | DIGIT_INTS | st.integers()
           | DOUBLES | st.floats(min_value=2.0**63)
           | st.text(st.characters(exclude_categories=()))  # lone surrogates too
           | st.sampled_from(["\ud800", "\udfff", "\ud83d\ude00", "\u00e9", "\\\"",
                              "{[", "\x00\n"]))
VALUES = st.recursive(SCALARS, lambda kids: st.lists(kids, max_size=3)
                      | st.dictionaries(st.text(max_size=3), kids, max_size=3), max_leaves=8)
RECORDS = st.lists(st.dictionaries(st.text(max_size=4), SCALARS, max_size=6)
                   | VALUES, max_size=5)
# number literals json.dumps does not write: long fractions and mantissas,
# exponents, and tokens for values that round to inf or 0 or are no number
LITERALS = st.sampled_from([
    "1234567890123456789.0", "0.1234567890123456789", "123456789012345678.5",
    "0.00012345678901234567", "1e400", "-1e400", "1e-400", "-1e-400", "-0", "1E+2",
    "NaN", "Infinity", "-Infinity", "2.4703282292062328e-324",
    "1.00000000000000011102230246251565404236316680908203125"]) | DOUBLES.map(repr)


@st.composite
def record_texts(draw):
    """A JSON text of records as json.dumps writes them, or built of literal
    members under a few keys, so that a key may repeat; perhaps damaged."""
    if draw(st.booleans()):
        text = json.dumps(draw(RECORDS), ensure_ascii=draw(st.booleans()))
    else:
        members = st.lists(st.tuples(st.sampled_from("abc"), LITERALS), max_size=4)
        text = "[" + ",".join(
            "{" + ",".join(f'"{k}":{v}' for k, v in draw(members)) + "}"
            for _ in range(draw(st.integers(0, 3)))) + "]"
    damage = draw(st.none() | st.sampled_from(["cut", "junk"]))
    if damage:
        at = draw(st.integers(0, len(text)))
        text = text[:at] if damage == "cut" else text[:at] + draw(JUNK) + text[at:]
    return text


@settings(max_examples=600, deadline=None)
@given(text=record_texts())
def test_records_read_as_json_reads_them(text):
    assert _parsed(runner._load_records, text) == _parsed(json.loads, text)


@pytest.mark.parametrize("depth", [10, 400, 5_000, 100_000])
@pytest.mark.parametrize("shape", ["lists", "a batch of lists", "two batches",
                                   "a batch of dicts", "one dict to a record"])
def test_deep_records_read_as_json_reads_them(shape, depth):
    # json refuses what passes its recursion limit; orjson 3.8.3 reads all of
    # these, and overflows its stack on 100,000 levels of dicts
    lists = "[" * depth + "]" * depth
    dicts = '{"a":' * depth + "1" + "}" * depth
    text = {"lists": lists, "a batch of lists": f'[{{"id":{lists}}}]',
            "two batches": f'[{{"id":1}},{{"id":{lists}}}]',
            "a batch of dicts": "[" + dicts.replace(":", ": ") + "]",
            # as many records as dicts, yet not each record a dict
            "one dict to a record": "[" + "1," * (depth - 1) + dicts + "]"}[shape]
    if depth < 1000:
        assert _parsed(runner._load_records, text) == _parsed(json.loads, text)
    else:
        with pytest.raises(RecursionError):
            runner._load_records(text)


def test_power_outage_store_is_independent_of_the_hash_seed():
    # a reset used to release running QA/QC work in the order of a set of
    # tasks hashed by address, and the float sums it feeds depend on order
    configs = Path(vaxsim.__file__).resolve().parent / "configs"
    code = ("import hashlib, sys, yaml\n"
            "from vaxsim.runner import result_to_ndjson, run_ensemble\n"
            "raw, overlay = (yaml.safe_load(open(p)) for p in sys.argv[1:])\n"
            "h = hashlib.sha256()\n"
            "for res in run_ensemble(raw, overlay, 1204000, 2):\n"
            "    h.update(b''.join(result_to_ndjson(res)))\n"
            "print(h.hexdigest())\n")
    src = str(configs.parent.parent)
    digests = set()
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        digests.add(subprocess.run(
            [sys.executable, "-c", code, str(configs / "demo.yaml"),
             str(configs / "scenarios" / "power_outage.yaml")],
            env=env, check=True, capture_output=True, text=True).stdout)
    assert len(digests) == 1

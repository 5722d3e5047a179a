"""Replication harness and result store: determinism, round trips, layout."""

import csv
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vaxsim
from vaxsim import runner
from vaxsim.config import parse_config
from vaxsim.metrics import compare_scenarios
from vaxsim.model import FLAG_SERIES, ReplicationResult, series_array
from vaxsim.runner import (KPI_COLUMNS, STORE_FORMAT, LazySeries, StoreError,
                           load_store, ndjson_to_result, overlay_identity,
                           result_to_ndjson, run_ensemble, run_replication,
                           write_store)
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


def test_ndjson_round_trip():
    res = run_replication(chain_dict(), {}, 11)
    back = ndjson_to_result(result_to_ndjson(res))
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
    on_disk = set(store_bytes(out)) - {"manifest.json"}
    assert set(manifest["files"]) == on_disk


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


# -- lazy series ---------------------------------------------------------

def _result(doses):
    # a config id may be any string: this name is escaped in the NDJSON
    odd_name = 'stage_util.f\u00fcll "1"\\'
    return ReplicationResult("base", 1, len(doses), "2025-04-01", series={
        "material_stockout.resin": array("b", [0, 1] * (len(doses) // 2)),
        "released_doses": array("d", doses), odd_name: array("d", doses[::-1])},
        batches=[{"id": 1, "doses": 2.0}], counts={"batches_released": 1})


def test_loaded_series_compare_as_the_written_ones():
    inf = float("inf")
    mem = _result([inf, -0.0, 1e-07, -inf])
    loaded = ndjson_to_result(result_to_ndjson(mem))
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
    loaded = ndjson_to_result(result_to_ndjson(mem))
    eager = dataclasses.replace(loaded, series=dict(loaded.series))
    assert loaded.series["released_doses"].tobytes() == mem.series["released_doses"].tobytes()
    for a, b in ((loaded, mem), (mem, loaded)):
        assert (a == b) is (eager == mem) is False
        assert (a != b) is (eager != mem) is True


# -- a store reads each series line as json does --------------------------

def _json_outcome(name, line):
    """What json makes of a series line: its array's type code and bits, or
    the message a store named "rep" refuses it with."""
    try:
        values = series_array(name, json.loads(line)["values"])
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        return f"rep: series {name!r}: {exc}"
    return values.typecode, values.tobytes()


def _store_outcome(series, name):
    try:
        values = series[name]
    except StoreError as exc:
        return str(exc)
    return values.typecode, values.tobytes()


# any double, NaN payloads, infinities, -0.0 and subnormals among them
DOUBLES = st.floats() | st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])


@settings(max_examples=300, deadline=None)
@given(doubles=st.lists(DOUBLES, max_size=30), flags=st.lists(st.integers(0, 1), max_size=30))
def test_a_store_reads_written_series_as_json_does(doubles, flags):
    res = ReplicationResult("base", 1, 1, "2025-04-01", series={
        "released_doses": array("d", doubles), "material_stockout.resin": array("b", flags)})
    text = result_to_ndjson(res)
    series = ndjson_to_result(text, "rep").series
    for line in text.splitlines():
        if line.startswith('{"kind":"series"'):
            name = json.loads(line)["name"]
            assert _store_outcome(series, name) == _json_outcome(name, line)


# hand-written number literals: ints of a byte, ints beyond 64 bits and up to
# the largest double, and finite doubles as repr writes them
NUMBERS = (st.integers(-200, 200) | st.integers(-2**70, 2**70)
           | st.integers(2**1023, 2**1024 - 2**971 - 1)
           | DOUBLES.filter(math.isfinite)).map(repr)
# and, at most one to a line, values that round to inf or to 0 or are no number
ODD = (st.integers(10**399, 10**400 - 1) | st.integers(-10**400 + 1, -10**399)
       | st.integers(2**1024 - 2**971, 2**1024)).map(str) | st.sampled_from([
           "1e400", "-1e400", "1e-400", "-0", "NaN", "Infinity", "-Infinity", "nan",
           "2.4703282292062328e-324", "1.00000000000000011102230246251565404236316680908203125",
           "null", "true", '"1"', "[]", "{}"])
JUNK = st.sampled_from(["1.2.3", ",", "[", "]", "}", "x", "-", "e5", ".", '"', "\\", "NaN"])


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(["released_doses", "material_stockout.resin"]),
       literals=st.lists(NUMBERS, max_size=6), odd=st.none() | ODD,
       damage=st.none() | st.sampled_from(["cut", "junk"]), data=st.data())
def test_a_store_reads_hand_written_series_as_json_does(name, literals, odd, damage, data):
    if odd:
        literals.insert(data.draw(st.integers(0, len(literals))), odd)
    line = f'{{"kind":"series","name":"{name}","values":[{",".join(literals)}]}}'
    if damage:
        at = data.draw(st.integers(0, len(line)))
        line = line[:at] if damage == "cut" else line[:at] + data.draw(JUNK) + line[at:]
    assert _store_outcome(LazySeries({name: line}, "rep"), name) == _json_outcome(name, line)


@pytest.mark.parametrize("values", ["[" * 300_000 + "]" * 300_000,
                                    '{"a":' * 100_000 + "1" + "}" * 100_000])
def test_a_series_too_deep_for_orjson_is_refused_as_json_refuses_it(values):
    # orjson 3.8.3 overflows its stack on either; json raises RecursionError
    line = f'{{"kind":"series","name":"released_doses","values":{values}}}'
    with pytest.raises(StoreError, match="^rep: series 'released_doses': maximum recursion"):
        LazySeries({"released_doses": line}, "rep")["released_doses"]


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


# -- a series array as array() makes it ------------------------------------

def _packed(make, name, values):
    try:
        made = make(name, values)
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)
    return made.typecode, made.tobytes()


def _array(name, values):
    return array("b" if name.startswith(FLAG_SERIES) else "d", values)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["released_doses", "material_stockout.resin"]),
       values=st.lists(DOUBLES | st.integers(-128, 127) | st.booleans(), max_size=20),
       bad=st.none() | st.sampled_from(["1", 1.0, 200, -129, 10**400, None, [1]]),
       data=st.data())
def test_series_array_packs_as_array_does(name, values, bad, data):
    # NaN payloads, -0.0, subnormals and infinities keep their bits; a value
    # either code refuses is refused with array's error
    if bad is not None:
        values.insert(data.draw(st.integers(0, len(values))), bad)
    assert _packed(series_array, name, values) == _packed(_array, name, values)


@pytest.fixture
def decoded(monkeypatch):
    """The name of every series decoded, in order."""
    names = []
    decode = runner.series_array

    def counting(name, values):
        names.append(name)
        return decode(name, values)

    monkeypatch.setattr(runner, "series_array", counting)
    return names


def test_a_series_decodes_once_and_only_when_read(decoded):
    res = run_replication(chain_dict(end_date="2025-06-30"), {}, 5)
    loaded = ndjson_to_result(result_to_ndjson(res))
    assert "released_doses" in loaded.series and "no_such" not in loaded.series
    assert list(loaded.series) == sorted(res.series) and len(loaded.series) == len(res.series)
    assert decoded == []
    first = loaded.series["released_doses"]
    assert loaded.series["released_doses"] is first
    assert decoded == ["released_doses"]
    assert loaded.series == res.series
    assert sorted(decoded) == sorted(res.series)  # each one once


def test_compare_decodes_only_released_doses(tmp_path, decoded):
    paths = [make_store(tmp_path, name, overlay, n=2)[0]
             for name, overlay in [("base", {}), ("scen", SLOW_FILL)]]
    ens = {m["scenario"]: res for m, res in map(load_store, paths)}
    assert decoded == []
    compare_scenarios(ens)
    assert decoded == ["released_doses"] * 4


def test_power_outage_store_is_independent_of_the_hash_seed():
    # a reset used to release running QA/QC work in the order of a set of
    # tasks hashed by address, and the float sums it feeds depend on order
    configs = Path(vaxsim.__file__).resolve().parent / "configs"
    code = ("import hashlib, sys, yaml\n"
            "from vaxsim.runner import result_to_ndjson, run_ensemble\n"
            "raw, overlay = (yaml.safe_load(open(p)) for p in sys.argv[1:])\n"
            "text = ''.join(map(result_to_ndjson, run_ensemble(raw, overlay, 1204000, 2)))\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n")
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

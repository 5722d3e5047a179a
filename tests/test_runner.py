"""Replication harness and result store: determinism, round trips, layout."""

import csv
import dataclasses
import hashlib
import json
import math
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
import yaml

import vaxsim
from vaxsim.config import parse_config
from vaxsim.model import BatchLog, ReplicationResult
from vaxsim.production import BATCH_COLUMNS, CODES
from vaxsim.runner import (KPI_COLUMNS, STORE_FORMAT, load_store, ndjson_to_result,
                           overlay_identity, result_to_ndjson, run_ensemble,
                           run_replication, store_layout, write_store)
from vaxsim.scenario import parse_scenario

from conftest import batch_log, chain_dict
from test_cli import _fresh_python

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
    manifest = dict(store_layout(res), scenario=res.scenario, base_seed=res.seed,
                    horizon_days=res.horizon_days, start_date=res.start_date)
    return ndjson_to_result(result_to_ndjson(res), manifest, 0)


def _exact(value):
    """``value`` with its type, and a float by its bits: 1 is not 1.0 here,
    nor -0.0 0.0."""
    return type(value), value.hex() if type(value) is float else value


def _bits(columns):
    """Each column of ``columns`` by its type code and bytes."""
    return {name: (v.typecode, v.tobytes()) for name, v in columns.items()}


def assert_same_replication(mem, disk):
    """``disk`` holds what ``mem`` holds: every field and counter of the
    same type, floats with the same bits, and every series and batch column
    with the same type code and bytes."""
    for key in ("scenario", "seed", "horizon_days", "start_date"):
        assert _exact(getattr(disk, key)) == _exact(getattr(mem, key))
    assert _bits(disk.series) == _bits(mem.series)
    assert _bits(disk.batches) == _bits(mem.batches)
    assert ({k: _exact(v) for k, v in disk.counts.items()}
            == {k: _exact(v) for k, v in mem.counts.items()})
    assert disk == mem


CONFIGS = Path(vaxsim.__file__).resolve().parent / "configs"
BUNDLED = ["base", *sorted(p.stem for p in (CONFIGS / "scenarios").glob("*.yaml"))]


@pytest.fixture(scope="module")
def bundled():
    """One demo replication at seed 100 for base and each bundled scenario:
    name -> (overlay, result)."""
    raw = yaml.safe_load((CONFIGS / "demo.yaml").read_text())
    out = {}
    for name in BUNDLED:
        overlay = ({} if name == "base" else
                   yaml.safe_load((CONFIGS / "scenarios" / f"{name}.yaml").read_text()))
        out[name] = overlay, run_replication(raw, overlay, 100)
    return out


def test_ndjson_round_trip(bundled):
    coded = {name: set() for name in CODES}
    for _, res in bundled.values():
        assert_same_replication(res, _round_trip(res))
        for name, seen in coded.items():
            seen |= {CODES[name][code] for code in res.batches[name]}
    # every name of both coded columns is exercised: power_outage brings its
    # own discard cause
    assert coded == {name: set(names) for name, names in CODES.items()}
    chain = run_replication(chain_dict(), {}, 11)
    assert_same_replication(chain, _round_trip(chain))


def test_store_round_trip(tmp_path, bundled):
    raw = yaml.safe_load((CONFIGS / "demo.yaml").read_text())
    cfg = parse_config(raw)
    for name, (overlay, res) in bundled.items():
        out = str(tmp_path / name)
        manifest = write_store(out, [res], cfg, parse_scenario(overlay, cfg), 100)
        loaded_manifest, (loaded,) = load_store(out)
        assert loaded_manifest == manifest
        assert_same_replication(res, loaded)
    out, manifest, results = make_store(tmp_path, "s", {})
    loaded_manifest, loaded = load_store(out)
    assert loaded_manifest == manifest
    for mem, disk in zip(results, loaded):
        assert_same_replication(mem, disk)


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
    assert len(listed) == 1


def test_series_that_do_not_fit_the_store_are_not_written(tmp_path):
    cfg = parse_config(chain_dict())
    res = _result([1.0, 2.0])
    short = dataclasses.replace(res, series=dict(res.series, released_doses=array("d", [1.0])))
    with pytest.raises(ValueError, match="'released_doses' is not 2 values"):
        write_store(str(tmp_path / "short"), [short], cfg, None, 1)
    fewer = dataclasses.replace(res, seed=2,
                                series={"released_doses": res.series["released_doses"]})
    with pytest.raises(ValueError, match="replication 1 holds other series"):
        write_store(str(tmp_path / "fewer"), [res, fewer], cfg, None, 1)


def test_a_replication_the_manifest_would_misdescribe_is_not_written(tmp_path):
    # the manifest alone states scenario, seed, horizon and start date
    cfg = parse_config(chain_dict())
    res = _result([1.0, 2.0])
    for change in ({"seed": 3}, {"scenario": "other"}, {"start_date": "2025-04-02"}):
        odd = dataclasses.replace(res, **{"seed": 2, **change})
        with pytest.raises(ValueError, match="replication 1 is not of the store's"):
            write_store(str(tmp_path / "odd"), [res, odd], cfg, None, 1)


def test_a_batch_log_that_is_not_batches_1_to_n_is_not_written(tmp_path):
    # a batch's id is its position + 1, so every column holds batches 1 to
    # batches_created
    cfg = parse_config(chain_dict())
    res = _result([1.0, 2.0])
    short = BatchLog(res.batches, retests=array("q"))
    for odd, column in ((dataclasses.replace(res, counts=dict(res.counts, batches_created=2)),
                         "created_at"),
                        (dataclasses.replace(res, batches=short), "retests")):
        with pytest.raises(ValueError, match=f"batch column '{column}' is not "
                                             "batches_created"):
            write_store(str(tmp_path / "odd"), [odd], cfg, None, 1)


def test_a_batch_log_of_other_columns_is_not_written(tmp_path):
    cfg = parse_config(chain_dict())
    res = _result([1.0, 2.0])
    for batches, message in (
            (BatchLog(res.batches, doses=array("d", [2.0])),
             "batch column 'doses' is not batches_created 1 values of type 'q'"),
            (BatchLog(res.batches, retests=[0]), "batch column 'retests' is not"),
            (BatchLog(res.batches, state=array("b", [4])),
             "batch column 'state' holds a code that CODES does not name"),
            (BatchLog(res.batches, discard_cause=array("b", [-1])),
             "batch column 'discard_cause' holds a code"),
            (BatchLog(res.batches, id=array("q", [1])), "other columns than BATCH_COLUMNS"),
            (BatchLog({k: v for k, v in res.batches.items() if k != "doses"}),
             "other columns than BATCH_COLUMNS")):
        with pytest.raises(ValueError, match=message):
            write_store(str(tmp_path / "odd"), [dataclasses.replace(res, batches=batches)],
                        cfg, None, 1)


def test_a_batch_log_is_typed_columns_in_memory_and_loaded(tmp_path):
    _, _, results = make_store(tmp_path, "s", {}, n=1)
    _, loaded = load_store(str(tmp_path / "s"))
    for res in (*results, *loaded):
        assert type(res.batches) is BatchLog
        assert [(name, type(values), values.typecode)
                for name, values in res.batches.items()] == [
            (name, array, code) for name, code in BATCH_COLUMNS]
        assert all(len(values) == res.counts["batches_created"] > 0
                   for values in res.batches.values())


def test_batch_logs_compare_by_type_code_and_bytes():
    # the batch of _result is not discarded: its discarded_at is NaN, which
    # equals no double, yet its log equals its own round trip
    mem = _result([1.0, 2.0])
    loaded = _round_trip(mem)
    assert math.isnan(mem.batches["discarded_at"][0])
    for a, b in ((mem, loaded), (loaded, mem)):
        assert a.batches == b.batches and not a.batches != b.batches
        assert a == b and not a != b
    # -0.0 == 0.0, but a log that differs only there is another log
    assert mem.batches["created_at"].tolist() == [0.0]
    signed = dataclasses.replace(mem, batches=BatchLog(
        mem.batches, created_at=array("d", [-0.0])))
    for log in (mem, loaded):
        for a, b in ((signed, log), (log, signed)):
            assert a.batches != b.batches and not a.batches == b.batches
            assert a != b and not a == b
    # so is one whose column holds the same values as another type
    doubles = BatchLog(mem.batches, doses=array("d", mem.batches["doses"]))
    assert doubles != mem.batches and mem.batches != doubles


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
        batches=batch_log([{"created_at": 0.0, "doses": 2, "state": "released",
                            "released_at": 1.5, "discarded_at": None,
                            "discard_cause": None, "retests": 0, "investigations": 0}]),
        counts={"batches_created": 1, "batches_released": 1})


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


INT64 = st.integers(-2**63, 2**63 - 1)


@st.composite
def batch_logs(draw):
    """A log of 0 to 4 batches whose columns hold any values of their type:
    any double (NaN, an absent time, with any payload), any 64-bit int, and
    any code that ``CODES`` names."""
    n = draw(st.integers(0, 4))
    values = {"d": DOUBLES, "q": INT64}
    return BatchLog({name: array(code, draw(st.lists(
        st.integers(0, len(CODES[name]) - 1) if name in CODES else values[code],
        min_size=n, max_size=n))) for name, code in BATCH_COLUMNS})


@st.composite
def replications(draw):
    """One to three hand-built replications of one horizon: every double
    for the doses, 0/1 flags for the stockouts, any batch log, and int and
    float counters of any value; a store holds the stockout days of each
    stockout series, as the report reads them."""
    horizon = draw(st.integers(0, 30))
    out = []
    for seed in range(1, draw(st.integers(1, 3)) + 1):
        batches = draw(batch_logs())
        out.append(ReplicationResult("base", seed, horizon, "2025-04-01", series={
            "released_doses": array("d", draw(st.lists(DOUBLES, min_size=horizon,
                                                       max_size=horizon))),
            "material_stockout.resin": array("b", draw(st.lists(
                st.integers(0, 1), min_size=horizon, max_size=horizon)))},
            batches=batches,
            counts={"batches_created": len(batches["state"]), "batches_released": draw(INT64),
                    "batches_discarded": draw(INT64), "released_doses": draw(DOUBLES),
                    "material_stockout_days.resin": draw(INT64)}))
    return out


@settings(max_examples=200, deadline=None)
@given(results=replications())
def test_series_round_trip_through_a_store(results):
    cfg = parse_config(chain_dict())
    with tempfile.TemporaryDirectory() as out:
        manifest = write_store(out, results, cfg, None, 1)
        assert manifest["series"] == [["material_stockout.resin", "b"],
                                      ["released_doses", "d"]]
        _, loaded = load_store(out)
    assert manifest["counts"] == [["batches_created", "q"], ["batches_discarded", "q"],
                                  ["batches_released", "q"],
                                  ["material_stockout_days.resin", "q"],
                                  ["released_doses", "d"]]
    assert len(loaded) == len(results)
    for mem, disk in zip(results, loaded):
        assert list(disk.series) == sorted(mem.series)
        assert _bits(disk.series) == _bits(mem.series)
        assert list(disk.batches) == [name for name, _ in BATCH_COLUMNS]
        assert _bits(disk.batches) == _bits(mem.batches)
        assert disk.batches == mem.batches and mem.batches == disk.batches
        assert ({k: _exact(v) for k, v in disk.counts.items()}
                == {k: _exact(v) for k, v in mem.counts.items()})
        with pytest.raises(TypeError):
            disk.series["released_doses"] = array("d")  # read-only


def test_a_seed_beyond_64_bits_loads_as_the_int_written(tmp_path):
    # the seed is in the manifest alone, which json reads: an int of any size
    # is that int
    seed = 2**64
    out, _, results = make_store(tmp_path, "seed", {}, seed=seed, n=1)
    manifest, (res,) = load_store(out)
    assert type(res.seed) is int and res.seed == seed
    assert type(manifest["base_seed"]) is int and manifest["base_seed"] == seed
    assert res.series == results[0].series


def test_power_outage_store_is_independent_of_the_hash_seed():
    # a reset used to release running QA/QC work in the order of a set of
    # tasks hashed by address, and the float sums it feeds depend on order
    configs = Path(vaxsim.__file__).resolve().parent / "configs"
    code = ("import hashlib, sys, yaml\n"
            "from vaxsim.runner import result_to_ndjson, run_ensemble\n"
            "raw, overlay = (yaml.safe_load(open(p)) for p in sys.argv[1:])\n"
            "h = hashlib.sha256()\n"
            "for res in run_ensemble(raw, overlay, 1204000, 2):\n"
            "    h.update(result_to_ndjson(res))\n"
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



# Run in a fresh interpreter with the collector off, so that only reference
# counting frees anything. Every Model, Batch and Task the run makes is
# tracked by a weakref (batches and tasks have slots, so they are made as
# subclasses that add a weakref slot); each must be dead as soon as
# run_replication returns, and a full collection must then find nothing.
FREED = """\
import gc, json, sys, weakref
import yaml
from vaxsim import production, qaqc, runner

def tracking(base, refs):
    def init(self, *args, **kwargs):
        base.__init__(self, *args, **kwargs)
        refs.append(weakref.ref(self))
    slots = {} if hasattr(base, "__weakref__") else {"__slots__": ("__weakref__",)}
    return type(base.__name__, (base,), {"__init__": init, **slots})

made = {}
for module, name in ((runner, "Model"), (production, "Batch"), (qaqc, "Task")):
    setattr(module, name, tracking(getattr(module, name), made.setdefault(name, [])))

replicate, alive = runner.run_replication, []
def checked(*args):
    result = replicate(*args)
    alive.append(sorted({name for name, refs in made.items() for r in refs if r()}))
    return result
runner.run_replication = checked

raw = yaml.safe_load(open(sys.argv[1]))
overlay = yaml.safe_load(open(sys.argv[2])) if sys.argv[2] else {}
gc.disable()
gc.collect()
results = runner.run_ensemble(raw, overlay, 2, int(sys.argv[3]))
print(json.dumps([alive, {name: len(refs) for name, refs in made.items()}, gc.collect()]))
"""


def _freed(overlay: str, replications: int):
    """What ``FREED`` saw over a demo ensemble: the tracked kinds alive after
    each replication returned, how many of each were made, and what a full
    collection found at the end."""
    return json.loads(_fresh_python(FREED, str(CONFIGS / "demo.yaml"), overlay,
                                    str(replications)))


@pytest.mark.parametrize("name", BUNDLED)
def test_a_replication_frees_itself_when_it_returns(name):
    overlay = "" if name == "base" else str(CONFIGS / "scenarios" / f"{name}.yaml")
    alive, made, garbage = _freed(overlay, 1)
    assert alive == [[]] and garbage == 0
    assert made["Model"] == 1 and made["Batch"] > 100 and made["Task"] > 100


def test_an_ensemble_leaves_no_model_alive():
    alive, made, garbage = _freed("", 6)
    assert alive == [[]] * 6 and garbage == 0
    assert made["Model"] == 6


# The same for a fork: a model deep-copied inside a handler partway through
# its run. Once the original and the copy have both run and been let go, no
# Model, Batch or Task of either is alive, and a full collection finds
# nothing. A deep copy makes its objects without calling ``__init__``, so
# they are counted among the objects the collector tracks.
FORKED = """\
import copy, gc, json, sys
import yaml
from vaxsim import model, production, qaqc
from vaxsim.config import parse_config
from vaxsim.scenario import parse_scenario

KINDS = (model.Model, production.Batch, qaqc.Task)

def census():
    counts = dict.fromkeys((kind.__name__ for kind in KINDS), 0)
    for obj in gc.get_objects():
        if isinstance(obj, KINDS):
            counts[type(obj).__name__] += 1
    return counts

class Probe:
    def __init__(self, m):
        self.model, self.forks = m, []
    def __deepcopy__(self, memo):
        return Probe(None)
    def on_probe(self, ev):
        if self.model is not None:
            self.forks.append(copy.deepcopy(self.model))

raw = yaml.safe_load(open(sys.argv[1]))
overlay = yaml.safe_load(open(sys.argv[2])) if sys.argv[2] else {}
gc.disable()
gc.collect()
cfg = parse_config(raw)
original = model.Model(cfg, 2, spec=parse_scenario(overlay, cfg))
probe = Probe(original)
original.engine.schedule(float(sys.argv[3]), probe.on_probe)
original.run()
(fork,) = probe.forks
del probe
fork.run()
made = census()
del original, fork
print(json.dumps([made, census(), gc.collect()]))
"""


@pytest.mark.parametrize("name", BUNDLED)
def test_a_fork_and_its_original_free_themselves(name):
    overlay = "" if name == "base" else str(CONFIGS / "scenarios" / f"{name}.yaml")
    made, alive, garbage = json.loads(_fresh_python(
        FORKED, str(CONFIGS / "demo.yaml"), overlay, "242.5"))
    assert made["Model"] == 2 and made["Batch"] > 200  # tasks may all be done
    assert alive == dict.fromkeys(made, 0) and garbage == 0

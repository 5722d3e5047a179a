"""Replication harness and on-disk result store.

A run is (config, overlay, base seed, n): replication i simulates seed
base+i, so base and scenario runs pair replication-for-replication on common
random numbers. Results land in a directory store of newline-delimited JSON,
one file per replication, plus a KPI table and a manifest; every byte is a
pure function of the inputs, whatever the worker count. A loaded
replication decodes each daily series the first time it is read, so a
command pays only for the series it reads.

The store is written with ``json`` alone and read back with orjson, which
parses a double bit for bit as ``float()`` does in about half json's time.
``json`` stays the reader of record: wherever orjson might read a text
otherwise, or refuse it in other words, json parses it again and its value
or its error is the answer. So a replication loads to the same values, and
fails with the same messages, as json alone would make.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from collections.abc import Mapping

from . import __version__
from .config import Config, config_hash, parse_config
from .metrics import kpi_summary
from .model import Model, ReplicationResult, series_array
from .scenario import ScenarioRuntime, ScenarioSpec, parse_scenario

STORE_FORMAT = "vaxsim-store-1"

KPI_COLUMNS = [
    "scenario", "seed", "time_to_first_dose", "time_to_target", "target_doses",
    "doses_at_365", "doses_total", "mean_monthly_doses", "batches_released",
    "batches_discarded", "max_utilization_resource", "max_utilization",
]


def run_replication(cfg_raw: dict, overlay_raw: dict | None, seed: int) -> ReplicationResult:
    """One fully deterministic replication from plain-dict inputs."""
    cfg = parse_config(cfg_raw)
    return Model(cfg, seed, scenario=ScenarioRuntime(parse_scenario(overlay_raw, cfg))).run()


def _worker(args) -> ReplicationResult:
    cfg_raw, overlay_raw, seed = args
    return run_replication(cfg_raw, overlay_raw, seed)


def run_ensemble(cfg_raw: dict, overlay_raw: dict | None, base_seed: int,
                 replications: int, jobs: int = 1,
                 progress=None) -> list[ReplicationResult]:
    """Replications base_seed .. base_seed+n-1, optionally across processes."""
    tasks = [(cfg_raw, overlay_raw, base_seed + i) for i in range(replications)]
    results = []
    if jobs <= 1:
        for t in tasks:
            results.append(_worker(t))
            if progress:
                progress(len(results), replications)
    else:
        from concurrent.futures import ProcessPoolExecutor  # not on the --jobs 1 path

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for res in pool.map(_worker, tasks):
                results.append(res)
                if progress:
                    progress(len(results), replications)
    return results


# -- serialization -------------------------------------------------------

def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def result_to_ndjson(res: ReplicationResult) -> str:
    lines = [_dumps({"kind": "meta", "scenario": res.scenario, "seed": res.seed,
                     "horizon_days": res.horizon_days,
                     "start_date": res.start_date})]
    for name in sorted(res.series):
        lines.append(_dumps({"kind": "series", "name": name,
                             "values": res.series[name].tolist()}))
    for b in res.batches:
        lines.append(_dumps(dict(b, kind="batch")))
    lines.append(_dumps(dict(res.counts, kind="counts")))
    return "\n".join(lines) + "\n"


# _dumps writes every series record as _SERIES_HEAD + name + _SERIES_TAIL + values
_SERIES_HEAD = '{"kind":"series","name":"'
_SERIES_TAIL = '","values":'


class StoreError(ValueError):
    """A store record that does not decode; names the file and the record."""


def _decode_series(name: str, line: str):
    """The array of a series line, as json reads it, parsed by orjson.

    Where orjson's parse does not make an array, json parses the line
    again, and its array or its error is the answer. json writes a
    non-finite value as ``NaN``, ``Infinity`` or ``-Infinity``, which orjson
    does not read; orjson refuses a number that rounds to infinity, which
    json reads as ``inf`` (``1e400``) or as an int too large for a double;
    and a damaged line is refused with json's message. A line holding a
    second ``{`` or ``[`` may nest deep enough to overflow orjson's stack
    (300,000 levels of lists do), so json alone reads it.
    """
    import orjson  # on first decode: run and validate never read a series

    if line.find("{", 1) < 0 and line.find("[", line.find("[") + 1) < 0:
        try:
            return series_array(name, orjson.loads(line)["values"])
        except (ValueError, TypeError, KeyError, OverflowError):
            pass
    return series_array(name, json.loads(line)["values"])


class LazySeries(Mapping):
    """The daily series of a loaded replication, read-only, each decoded
    from its NDJSON line on first read: by orjson, or by json where orjson's
    parse makes no array, as for ``NaN`` or a damaged line (see
    ``_decode_series``).

    One dict holds a series' line until the series is read and its array
    after that, so a decoded line is not kept. A series that no one reads is
    never decoded, and so never checked either.
    """

    def __init__(self, items: dict, source: str):
        self._items = items  # name -> NDJSON line, or the array once decoded
        self._source = source

    def __getitem__(self, name: str):
        item = self._items[name]
        if isinstance(item, str):
            try:
                item = _decode_series(name, item)
            except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
                raise StoreError(f"{self._source}: series {name!r}: {exc}") from None
            self._items[name] = item
        return item

    def __contains__(self, name) -> bool:
        return name in self._items

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


# every ASCII digit to b"0", so that a run of digits is a run of b"0"
_DIGITS_TO_ZERO = bytes.maketrans(b"123456789", b"0" * 9)
# orjson reads an integer of 20 digits or more, or of 19 below -2**63, as a
# float, where json keeps it an int; a shorter run of digits is an int within
# 64 bits, or a part of a float that orjson rounds as float() does
_LONG_DIGITS = b"0" * 19


def _load_records(text: str):
    """``json.loads(text)``, parsed by orjson where the two agree.

    json parses the text, and its value or its error is the answer, where
    orjson refuses it (``NaN``, ``Infinity``, ``1e400``, a lone surrogate,
    damaged text), where it holds a run of 19 digits or more (an int orjson
    may read as a float), and where it may nest deeper than a list of
    dicts: json refuses nesting past its recursion limit, which orjson
    reads, and 100,000 levels of dicts overflow orjson's stack. Without
    whitespace, a text of one ``[`` and no ``:{`` nests three levels at
    most. Each guard runs in C: a loop over the values in Python would
    cost about what orjson saves.
    """
    import orjson  # on first decode: run and validate never read a store

    try:
        data = text.encode()
    except UnicodeEncodeError:  # a lone surrogate in the text itself
        return json.loads(text)
    shape = data.translate(_DIGITS_TO_ZERO, b" \t\n\r")
    if _LONG_DIGITS not in shape and b":{" not in shape and shape.count(b"[") <= 1:
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    return json.loads(text)


def ndjson_to_result(text: str, source: str = "NDJSON") -> ReplicationResult:
    """A replication from its NDJSON; ``source`` names it in errors.

    Series lines are indexed by the name sliced from them (see LazySeries).
    Every other record decodes at once, in one parse by ``_load_records``:
    json.dumps never writes a raw newline inside a record, so those lines
    joined by commas are one JSON array. A replication has one meta and one
    counts record.
    """
    lines = text.rstrip("\n").split("\n")
    records = [line for line in lines if not line.startswith(_SERIES_HEAD)]
    series = {}
    try:
        for line in [line for line in lines if line.startswith(_SERIES_HEAD)]:
            end = line.find(_SERIES_TAIL, len(_SERIES_HEAD))
            if end < 0:
                raise ValueError(f"series record without values: {line[:80]}")
            name = line[len(_SERIES_HEAD):end]
            if "\\" in name:  # an escaped character: decode the JSON string
                name = json.loads(f'"{name}"')
            series[name] = line
        records = _load_records("[" + ",".join(records) + "]")
    except (ValueError, RecursionError) as exc:  # json recurses once per nesting level
        raise StoreError(f"{source}: {exc}") from None
    by_kind = {"meta": [], "series": [], "batch": [], "counts": []}
    for rec in records:
        kind = rec.pop("kind", None) if isinstance(rec, dict) else None
        if kind not in by_kind:
            raise StoreError(f"{source}: not a store record: {rec!r:.80}")
        by_kind[kind].append(rec)
    for kind in ("meta", "counts"):
        if len(by_kind[kind]) != 1:
            raise StoreError(f"{source}: {len(by_kind[kind])} {kind} records, not one")
    try:
        res = ReplicationResult(**by_kind["meta"][0], batches=by_kind["batch"],
                                counts=by_kind["counts"][0])
        for rec in by_kind["series"]:  # written some other way than by _dumps
            series[rec["name"]] = series_array(rec["name"], rec["values"])
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise StoreError(f"{source}: {exc}") from None
    res.series = LazySeries(series, source)
    return res


def overlay_identity(spec: ScenarioSpec | None) -> str | None:
    """Canonical overlay hash; an empty overlay has no identity at all."""
    if spec is None or spec.is_empty:
        return None
    canon = {
        "name": spec.name,
        "modifications": [
            {"target": m.target, "value": m.raw_value,
             "start": m.start.isoformat(),
             "end": m.end.isoformat() if m.end else None, "revert": m.revert}
            for m in spec.modifications],
        "resets": [{"at": at.isoformat()} for at in spec.resets],
    }
    return hashlib.sha256(_dumps(canon).encode()).hexdigest()


# -- the store -----------------------------------------------------------

def _rep_file(i: int) -> str:
    return os.path.join("replications", f"rep_{i:05d}.ndjson")


def write_store(out_dir: str, results: list[ReplicationResult], cfg: Config,
                spec: ScenarioSpec | None, base_seed: int,
                overlay_raw: dict | None = None) -> dict:
    """Write manifest + per-replication files + KPI table; returns the manifest.

    ``overlay_raw`` is not read: the overlay hash comes from the parsed
    ``spec``. It stays only because ``perfbench/run.py`` passes it by
    position.
    """
    rep_dir = os.path.join(out_dir, "replications")
    os.makedirs(rep_dir, exist_ok=True)
    files = []
    for i, res in enumerate(results):
        rel = _rep_file(i)
        files.append(rel)
        with open(os.path.join(out_dir, rel), "w", encoding="utf-8") as fh:
            fh.write(result_to_ndjson(res))

    kpi_path = os.path.join(out_dir, "kpis.csv")
    with open(kpi_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=KPI_COLUMNS, lineterminator="\n")
        w.writeheader()
        for res in results:
            w.writerow({k: "" if v is None else v for k, v in kpi_summary(res).items()})

    manifest = {
        "format": STORE_FORMAT,
        "code_version": __version__,
        "scenario": "base" if spec is None else spec.name,
        "config_hash": config_hash(cfg),
        "overlay_hash": overlay_identity(spec),
        "base_seed": base_seed,
        "replications": len(results),
        "horizon_days": results[0].horizon_days if results else 0,
        "start_date": results[0].start_date if results else None,
        "files": files + ["kpis.csv"],
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return manifest


def load_store(out_dir: str) -> tuple[dict, list[ReplicationResult]]:
    """The manifest and replications of the store at ``out_dir``. The
    manifest is checked, not trusted: its replication files are exactly
    those ``write_store`` names, in order, and replication i has seed
    ``base_seed + i``."""
    path = os.path.join(out_dir, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise StoreError(f"{path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise StoreError(f"{path}: the manifest is not a JSON object")
    files = manifest.get("files")
    if not (isinstance(files, list) and all(isinstance(f, str) for f in files)):
        raise StoreError(f"{path}: files is not a list of file names")
    if not isinstance(manifest.get("scenario"), str):
        raise StoreError(f"{path}: scenario is not a name")
    count, base_seed = manifest.get("replications"), manifest.get("base_seed")
    if type(count) is not int or count < 0:
        raise StoreError(f"{path}: replications is not a count")
    if type(base_seed) is not int:
        raise StoreError(f"{path}: base_seed is not a whole number")
    if [f for f in files if f.endswith(".ndjson")] != [_rep_file(i) for i in range(count)]:
        raise StoreError(f"{path}: files does not list the {count} replication files "
                         "in order")
    results = []
    for i in range(count):
        path = os.path.join(out_dir, _rep_file(i))
        with open(path, encoding="utf-8") as fh:
            results.append(ndjson_to_result(fh.read(), path))
        if results[-1].seed != base_seed + i:
            raise StoreError(f"{path}: seed {results[-1].seed!r} is not base_seed + {i}")
    return manifest, results

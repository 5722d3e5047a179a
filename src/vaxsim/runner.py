"""Replication harness and on-disk result store.

A run is (config, overlay, base seed, n): replication i simulates seed
base+i, so base and scenario runs pair replication-for-replication on common
random numbers. Results land in a directory store: two files per
replication, plus a KPI table and a manifest; every byte is a pure function
of the inputs, whatever the worker count. A replication's meta, batch and
counts records are newline-delimited JSON, and its daily series are raw
little-endian values, listed by name and type code in the manifest, which
also carries the sha256 of every file. A flipped byte in a double still
decodes, to a wrong number, so ``load_store`` checks each file against its
digest before it decodes anything.

The records are written with ``json`` alone and read back with orjson, in
about half json's time. ``json`` stays the reader of record: wherever orjson
might read a text otherwise, or refuse it in other words, json parses it
again and its value or its error is the answer. So a replication loads to
the same values, and fails with the same messages, as json alone would make.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys
from array import array
from types import MappingProxyType

from . import __version__
from .config import Config, config_hash, parse_config
from .metrics import kpi_summary
from .model import Model, ReplicationResult
from .scenario import ScenarioRuntime, ScenarioSpec, parse_scenario

STORE_FORMAT = "vaxsim-store-2"

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


# series type codes and their sizes: a double per day, or a byte per day for
# a 0/1 flag (material_stockout.*)
SERIES_SIZES = {"d": 8, "b": 1}
# series are stored little-endian; array works in the host's byte order
_SWAP = sys.byteorder == "big"


def series_layout(res: ReplicationResult) -> list[list[str]]:
    """``[name, typecode]`` of each of ``res``'s series, in name order: the
    order ``result_to_ndjson`` writes them in."""
    return [[name, res.series[name].typecode] for name in sorted(res.series)]


def result_to_ndjson(res: ReplicationResult) -> tuple[bytes, bytes]:
    """The two files of a replication: the NDJSON of its meta, batch and
    counts records, and its daily series as raw little-endian values, each
    ``horizon_days`` long, in ``series_layout`` order."""
    lines = [_dumps({"kind": "meta", "scenario": res.scenario, "seed": res.seed,
                     "horizon_days": res.horizon_days,
                     "start_date": res.start_date})]
    for b in res.batches:
        lines.append(_dumps(dict(b, kind="batch")))
    lines.append(_dumps(dict(res.counts, kind="counts")))
    blob = []
    for name, code in series_layout(res):
        values = res.series[name]
        if code not in SERIES_SIZES or len(values) != res.horizon_days:
            raise ValueError(f"series {name!r} is not {res.horizon_days} values "
                             "of type 'd' or 'b'")
        if _SWAP:
            values = array(code, values)
            values.byteswap()
        blob.append(values.tobytes())
    return ("\n".join(lines) + "\n").encode(), b"".join(blob)


class StoreError(ValueError):
    """A store file that does not decode; names the file and the record."""


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


def ndjson_to_result(text: bytes, blob: bytes, series: list,
                     source: str = "replication") -> ReplicationResult:
    """A replication from the two files ``result_to_ndjson`` writes, given
    the ``[name, typecode]`` of each series in ``blob``. ``source`` is the
    path of the files without their suffix, naming them in errors.

    The records decode in one parse by ``_load_records``: json.dumps never
    writes a raw newline inside a record, so the lines joined by commas are
    one JSON array. A replication has one meta and one counts record. Every
    series decodes at once, ``horizon_days`` values each, into a read-only
    mapping.
    """
    try:
        records = _load_records("[" + text.decode().rstrip("\n").replace("\n", ",") + "]")
    except (ValueError, RecursionError) as exc:  # json recurses once per nesting level
        raise StoreError(f"{source}.ndjson: {exc}") from None
    by_kind = {"meta": [], "batch": [], "counts": []}
    for rec in records:
        kind = rec.pop("kind", None) if isinstance(rec, dict) else None
        if kind not in by_kind:
            raise StoreError(f"{source}.ndjson: not a store record: {rec!r:.80}")
        by_kind[kind].append(rec)
    for kind in ("meta", "counts"):
        if len(by_kind[kind]) != 1:
            raise StoreError(f"{source}.ndjson: {len(by_kind[kind])} {kind} records, not one")
    try:
        res = ReplicationResult(**by_kind["meta"][0], batches=by_kind["batch"],
                                counts=by_kind["counts"][0])
    except TypeError as exc:
        raise StoreError(f"{source}.ndjson: {exc}") from None
    if type(res.horizon_days) is not int:
        raise StoreError(f"{source}.ndjson: horizon_days {res.horizon_days!r} "
                         "is not a whole number")
    size = res.horizon_days * sum(SERIES_SIZES[code] for _, code in series)
    if len(blob) != size:
        raise StoreError(f"{source}.bin: {len(blob)} bytes, not the {size} of "
                         f"{len(series)} series of {res.horizon_days} days")
    view, at, decoded = memoryview(blob), 0, {}
    for name, code in series:
        decoded[name] = values = array(code)
        values.frombytes(view[at:at + res.horizon_days * values.itemsize])
        at += res.horizon_days * values.itemsize
        if _SWAP:
            values.byteswap()
    res.series = MappingProxyType(decoded)
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

def _rep_files(count: int) -> list[str]:
    """The replication files of a store of ``count`` replications, in order."""
    return [os.path.join("replications", f"rep_{i:05d}{suffix}")
            for i in range(count) for suffix in (".ndjson", ".bin")]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_store(out_dir: str, results: list[ReplicationResult], cfg: Config,
                spec: ScenarioSpec | None, base_seed: int,
                overlay_raw: dict | None = None) -> dict:
    """Write manifest + per-replication files + KPI table; returns the manifest.

    Files under ``replications/`` that this store does not list, as from an
    earlier and larger run into ``out_dir``, are removed. ``overlay_raw`` is
    not read: the overlay hash comes from the parsed ``spec``. It stays only
    because ``perfbench/run.py`` passes it by position.
    """
    rep_dir = os.path.join(out_dir, "replications")
    os.makedirs(rep_dir, exist_ok=True)
    series = series_layout(results[0]) if results else []
    files = [*_rep_files(len(results)), "kpis.csv"]
    hashes = {}

    def put(rel: str, data: bytes) -> None:
        with open(os.path.join(out_dir, rel), "wb") as fh:
            fh.write(data)
        hashes[rel] = _sha256(data)

    for i, res in enumerate(results):
        if series_layout(res) != series:
            raise ValueError(f"replication {i} holds other series than replication 0")
        for rel, data in zip(files[2 * i:], result_to_ndjson(res)):
            put(rel, data)
    for name in os.listdir(rep_dir):
        if os.path.join("replications", name) not in hashes:
            os.remove(os.path.join(rep_dir, name))

    kpis = io.StringIO()
    w = csv.DictWriter(kpis, fieldnames=KPI_COLUMNS, lineterminator="\n")
    w.writeheader()
    for res in results:
        w.writerow({k: "" if v is None else v for k, v in kpi_summary(res).items()})
    put("kpis.csv", kpis.getvalue().encode())

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
        "series": series,
        "files": files,
        "sha256": hashes,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return manifest


def load_store(out_dir: str) -> tuple[dict, list[ReplicationResult]]:
    """The manifest and replications of the store at ``out_dir``. The
    manifest is checked, not trusted: its format is this one, its files are
    exactly those ``write_store`` names, in order, each matches its sha256,
    and replication i has seed ``base_seed + i``."""
    path = os.path.join(out_dir, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise StoreError(f"{path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise StoreError(f"{path}: the manifest is not a JSON object")
    if manifest.get("format") != STORE_FORMAT:
        raise StoreError(f"{path}: format {manifest.get('format')!r} is not "
                         f"{STORE_FORMAT!r}: run the store again with this vaxsim")
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
    if files != [*_rep_files(count), "kpis.csv"]:
        raise StoreError(f"{path}: files does not list the {count} replication files "
                         "in order")
    hashes = manifest.get("sha256")
    if not (isinstance(hashes, dict) and all(f in hashes for f in files)):
        raise StoreError(f"{path}: sha256 does not hold a digest for each listed file")
    series = manifest.get("series")
    if not (isinstance(series, list)
            and all(isinstance(s, list) and len(s) == 2 and isinstance(s[0], str)
                    and s[1] in ("d", "b") for s in series)
            and len({s[0] for s in series}) == len(series)):
        raise StoreError(f"{path}: series is not a list of distinct "
                         "[name, \"d\" or \"b\"] pairs")

    def read(rel: str) -> bytes:
        file = os.path.join(out_dir, rel)
        with open(file, "rb") as fh:
            data = fh.read()
        if _sha256(data) != hashes[rel]:
            raise StoreError(f"{file}: its sha256 is not the one the manifest lists")
        return data

    read("kpis.csv")
    results = []
    for i in range(count):
        source = os.path.join(out_dir, "replications", f"rep_{i:05d}")
        results.append(ndjson_to_result(read(files[2 * i]), read(files[2 * i + 1]),
                                        series, source))
        if results[-1].seed != base_seed + i:
            raise StoreError(f"{source}.ndjson: seed {results[-1].seed!r} "
                             f"is not base_seed + {i}")
    return manifest, results

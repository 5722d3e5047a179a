"""Replication harness and on-disk result store.

A run is (config, overlay, base seed, n): replication i simulates seed
base+i, so base and scenario runs pair replication-for-replication on common
random numbers. Results land in a directory store: one file per replication,
plus a KPI table and a manifest; every byte is a pure function of the
inputs, whatever the worker count.

Store format 3 (``vaxsim-store-3``) states each fact once. The manifest
holds the scenario, ``horizon_days``, start date and base seed (replication
i has seed ``base_seed + i``), the sha256 of every file, and the layout of
every replication file. A replication file, ``rep_NNNNN.bin``, is typed
little-endian columns one after another, each listed in the manifest as a
``[name, typecode]`` pair (``d`` float64, ``q`` int64, ``b`` int8):

- ``series``: the daily series, ``horizon_days`` values each;
- ``counts``: the counters, one value each, so an int stays an int;
- ``batches``: the batch log, as many values each as the replication's own
  ``batches_created`` counter. An absent ``released_at`` or
  ``discarded_at`` is NaN. ``state`` and ``discard_cause`` are codes into
  the name lists of the manifest's ``codes``, where null is no cause. A
  batch's id is its position + 1, as ``Production`` assigns it, so it is
  not stored. A ``ReplicationResult`` holds its log in these same columns,
  so writing one appends them and loading one keeps them as decoded.

A flipped byte in a double still decodes, to a wrong number, so
``load_store`` checks each file against its digest before it decodes
anything. A format-2 store (JSON records in an ``.ndjson`` beside each
``.bin``) is refused: run it again.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import struct
import sys
from array import array
from types import MappingProxyType

from . import __version__
from .config import Config, config_hash, parse_config
from .metrics import NAMES_READ, kpi_summary
from .model import BatchLog, Model, ReplicationResult
from .production import BATCH_COLUMNS, CODES
from .scenario import ScenarioSpec, parse_scenario

STORE_FORMAT = "vaxsim-store-3"

KPI_COLUMNS = [
    "scenario", "seed", "time_to_first_dose", "time_to_target", "target_doses",
    "doses_at_365", "doses_total", "mean_monthly_doses", "batches_released",
    "batches_discarded", "max_utilization_resource", "max_utilization",
]


def run_replication(cfg_raw: dict, overlay_raw: dict | None, seed: int) -> ReplicationResult:
    """One fully deterministic replication from plain-dict inputs."""
    cfg = parse_config(cfg_raw)
    return Model(cfg, seed, parse_scenario(overlay_raw, cfg)).run()


def _worker(args) -> ReplicationResult:
    cfg_raw, overlay_raw, seed = args
    return run_replication(cfg_raw, overlay_raw, seed)


def run_ensemble(cfg_raw: dict, overlay_raw: dict | None, base_seed: int,
                 replications: int, jobs: int = 1,
                 progress=None) -> list[ReplicationResult]:
    """Replications base_seed .. base_seed+n-1, optionally across processes.

    At most ``min(jobs, replications)`` worker processes start, since the
    pool may start every worker at once; one worker means no pool at all.
    """
    tasks = [(cfg_raw, overlay_raw, base_seed + i) for i in range(replications)]
    workers = min(jobs, replications)
    results = []
    if workers <= 1:
        for t in tasks:
            results.append(_worker(t))
            if progress:
                progress(len(results), replications)
    else:
        from concurrent.futures import ProcessPoolExecutor  # not on the --jobs 1 path

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for res in pool.map(_worker, tasks):
                results.append(res)
                if progress:
                    progress(len(results), replications)
    return results


# -- serialization -------------------------------------------------------

# column type codes and their sizes: a double, a 64-bit int or a byte
SIZES = {"d": 8, "q": 8, "b": 1}
# columns are stored little-endian; array works in the host's byte order
_SWAP = sys.byteorder == "big"


def store_layout(res: ReplicationResult | None) -> dict:
    """The manifest's layout of ``res``'s file (of none, for ``None``): its
    series and counters as ``[name, typecode]`` in name order, then the batch
    columns and their codes. ``result_to_ndjson`` writes them in this order."""
    series, counts = (res.series, res.counts) if res else ({}, {})
    return {"series": [[name, series[name].typecode] for name in sorted(series)],
            "counts": [[name, "q" if type(value) is int else "d"]
                       for name, value in sorted(counts.items())],
            "batches": BATCH_COLUMNS, "codes": CODES}


def result_to_ndjson(res: ReplicationResult) -> bytes:
    """The store file of a replication: its columns, in ``store_layout``
    order. Each series is ``horizon_days`` values of type 'd' or 'b', and
    each batch column ``batches_created`` values of its ``BATCH_COLUMNS``
    type, a coded one holding only codes that ``CODES`` names."""
    layout = store_layout(res)
    columns = []
    for name, code in layout["series"]:
        if code not in ("d", "b") or len(res.series[name]) != res.horizon_days:
            raise ValueError(f"series {name!r} is not {res.horizon_days} values "
                             "of type 'd' or 'b'")
        columns.append(res.series[name])
    columns += [array(code, [res.counts[name]]) for name, code in layout["counts"]]
    n = res.counts.get("batches_created")
    if len(res.batches) != len(BATCH_COLUMNS):
        raise ValueError("the batch log holds other columns than BATCH_COLUMNS")
    for name, code in BATCH_COLUMNS:
        values = res.batches.get(name)
        if not (type(values) is array and values.typecode == code and len(values) == n):
            raise ValueError(f"batch column {name!r} is not batches_created {n!r} "
                             f"values of type {code!r}")
        if name in CODES and not _coded(values, CODES[name]):
            raise ValueError(f"batch column {name!r} holds a code that CODES does not name")
        columns.append(values)
    if _SWAP:
        columns = [array(values.typecode, values) for values in columns]
        for values in columns:
            values.byteswap()
    return b"".join(values.tobytes() for values in columns)


def _coded(values: array, names: list) -> bool:
    """Whether every value of ``values`` is a position in ``names``."""
    return not values or 0 <= min(values) <= max(values) < len(names)


class StoreError(ValueError):
    """A store that does not decode; names the file and what is wrong."""


def _columns(view: memoryview, at: int, layout: list, length: int) -> dict:
    """Each ``[name, typecode]`` column of ``layout``, ``length`` values
    long, one after another from byte ``at`` of ``view``."""
    out = {}
    for name, code in layout:
        out[name] = values = array(code)
        values.frombytes(view[at:at + length * values.itemsize])
        at += length * values.itemsize
        if _SWAP:
            values.byteswap()
    return out


def _file_layout(manifest: dict) -> tuple:
    """What every replication file of the store ``manifest`` describes
    shares: the bytes of its series, its counter names with one
    little-endian ``struct`` that reads them all, and the bytes of a batch."""
    series = manifest["horizon_days"] * sum(SIZES[code] for _, code in manifest["series"])
    names = [name for name, _ in manifest["counts"]]
    counts = struct.Struct("<" + "".join(code for _, code in manifest["counts"]))
    return series, names, counts, sum(SIZES[code] for _, code in manifest["batches"])


def ndjson_to_result(blob: bytes, manifest: dict, i: int,
                     source: str = "replication",
                     layout: tuple | None = None) -> ReplicationResult:
    """Replication ``i`` of the store ``manifest`` describes, from its file
    ``blob``; ``source`` names the file in errors, and ``layout`` is the
    store's ``_file_layout``, worked out here when not given. The series
    decode into a read-only mapping, and the batch log into a ``BatchLog``
    of the same columns."""
    days = manifest["horizon_days"]
    series, counters, fmt, batch = layout or _file_layout(manifest)
    view, at = memoryview(blob), series + fmt.size
    counts = dict(zip(counters, fmt.unpack_from(blob, series))) if len(blob) >= at else {}
    n = counts.get("batches_created")
    if type(n) is not int or n < 0 or len(blob) != at + n * batch:
        raise StoreError(f"{source}: {len(blob)} bytes, not {at} for its series over "
                         f"horizon_days {days} and its counters, then {batch} "
                         f"for each of batches_created {n!r}")
    batches = BatchLog(_columns(view, at, manifest["batches"], n))
    for name, names in manifest["codes"].items():
        if not _coded(batches[name], names):
            raise StoreError(f"{source}: a {name} code is not one of the "
                             f"{len(names)} that the manifest names")
    return ReplicationResult(
        manifest["scenario"], manifest["base_seed"] + i, days, manifest["start_date"],
        series=MappingProxyType(_columns(view, 0, manifest["series"], days)),
        batches=batches, counts=counts)


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
    return hashlib.sha256(json.dumps(canon, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


# -- the store -----------------------------------------------------------

def _rep_files(count: int) -> list[str]:
    """The replication files of a store of ``count`` replications, in order."""
    return [os.path.join("replications", f"rep_{i:05d}.bin") for i in range(count)]


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
    first = results[0] if results else None
    layout = store_layout(first)
    scenario = "base" if spec is None else spec.name
    files = [*_rep_files(len(results)), "kpis.csv"]
    hashes = {}

    def put(rel: str, data: bytes) -> None:
        with open(os.path.join(out_dir, rel), "wb") as fh:
            fh.write(data)
        hashes[rel] = hashlib.sha256(data).hexdigest()

    for i, res in enumerate(results):
        if store_layout(res) != layout:
            raise ValueError(f"replication {i} holds other series or counters "
                             "than replication 0")
        # the manifest alone states these, for every replication
        if ((res.scenario, res.seed, res.horizon_days, res.start_date)
                != (scenario, base_seed + i, first.horizon_days, first.start_date)):
            raise ValueError(f"replication {i} is not of the store's scenario, seed, "
                             "horizon and start date")
        put(files[i], result_to_ndjson(res))
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
        "scenario": scenario,
        "config_hash": config_hash(cfg),
        "overlay_hash": overlay_identity(spec),
        "base_seed": base_seed,
        "replications": len(results),
        "horizon_days": first.horizon_days if first else 0,
        "start_date": first.start_date if first else None,
        **layout,
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
    and it declares a layout that every replication file fills exactly, with
    the batch columns and codes that ``write_store`` writes and every series
    and counter that ``metrics`` and ``report`` read by name."""
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
    days = manifest.get("horizon_days")
    if type(days) is not int or days < 0:
        raise StoreError(f"{path}: horizon_days {days!r} is not a whole number of days")
    if files != [*_rep_files(count), "kpis.csv"]:
        raise StoreError(f"{path}: files does not list the {count} replication files "
                         "in order")
    hashes = manifest.get("sha256")
    if not (isinstance(hashes, dict) and all(f in hashes for f in files)):
        raise StoreError(f"{path}: sha256 does not hold a digest for each listed file")
    for key, codes in (("series", ("d", "b")), ("counts", ("q", "d"))):
        layout = manifest.get(key)
        if not (isinstance(layout, list)
                and all(isinstance(s, list) and len(s) == 2 and isinstance(s[0], str)
                        and s[1] in codes for s in layout)
                and len({s[0] for s in layout}) == len(layout)):
            raise StoreError(f"{path}: {key} is not a list of distinct [name, "
                             f"{' or '.join(map(json.dumps, codes))}] pairs")
    if manifest.get("batches") != BATCH_COLUMNS or manifest.get("codes") != CODES:
        raise StoreError(f"{path}: batches and codes are not those of this format")
    series = {name for name, _ in manifest["series"]}
    counts = {name for name, _ in manifest["counts"]}
    stockouts = ["material_stockout_days." + name.partition(".")[2]
                 for name in sorted(series) if name.startswith("material_stockout.")]
    missing = ([f"series {name}" for name in NAMES_READ["series"] if name not in series]
               + [f"counts {name}" for name in [*NAMES_READ["counts"], *stockouts]
                  if name not in counts])
    if missing:
        raise StoreError(f"{path}: the layout lacks {', '.join(missing)}, which the "
                         "analysis reads")

    def read(rel: str) -> bytes:
        file = os.path.join(out_dir, rel)
        with open(file, "rb") as fh:
            data = fh.read()
        if hashlib.sha256(data).hexdigest() != hashes[rel]:
            raise StoreError(f"{file}: its sha256 is not the one the manifest lists")
        return data

    read("kpis.csv")
    layout = _file_layout(manifest)
    return manifest, [ndjson_to_result(read(rel), manifest, i, os.path.join(out_dir, rel),
                                       layout)
                      for i, rel in enumerate(files[:-1])]

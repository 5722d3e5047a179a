"""Command line front end.

Verbs: validate (parse and check inputs), run (simulate an ensemble into a
result store), compare (cross-scenario statistics over existing stores),
report (markdown report plus tidy CSVs). Validation failures exit nonzero
with a single machine-readable JSON object on stderr; run checks its
arguments, inputs and --out directory before it simulates anything, and
report its stores and its --out directory before it writes anything.
compare and report refuse a store without replications, and stores
that cannot be paired replication for replication: a different config, base
seed, horizon, start date or replication count than the first store's, or a
scenario name already given. A damaged store is refused the same way,
before anything is computed: a manifest of another format, or that is not
an object listing its replication files in order with their sha256 and
their layout, a file that does not match its sha256, or a replication file
of another size than its layout and batch count make, or holding a code
the manifest does not name, or a layout without a series or counter that
compare or report reads by name.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import yaml

from .config import ConfigError, parse_config
from .metrics import COMPARISON_COLUMNS, compare_scenarios, comparison_cells, mean
from .runner import load_store, run_ensemble, write_store
from .scenario import parse_scenario

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INVALID = 2


def _fail(kind: str, messages) -> int:
    if isinstance(messages, str):
        messages = [messages]
    print(json.dumps({"error": kind, "messages": list(messages)}),
          file=sys.stderr)
    return EXIT_INVALID


def _load_yaml(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError([f"no such file: {path}"])
    except OSError as exc:  # a directory, say
        raise ConfigError([f"{path}: cannot read it: {exc.strerror}"])
    except RecursionError:
        raise ConfigError([f"{path}: nested too deeply to read"])
    # ValueError: bytes that are not UTF-8, or a date PyYAML cannot build
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError([f"{path}: {exc}"])


def _load_inputs(args):
    cfg_raw = _load_yaml(args.config)
    overlay_raw = _load_yaml(args.scenario) if args.scenario else {}
    cfg = parse_config(cfg_raw)
    spec = parse_scenario(overlay_raw, cfg)
    return cfg_raw, overlay_raw, cfg, spec


def _make_out(path: str) -> str | None:
    """Why --out ``path`` cannot be a directory, or None once it is one."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        return f"--out {path}: cannot make a directory there: {exc.strerror}"
    return None


def cmd_validate(args) -> int:
    try:
        _load_inputs(args)
    except ConfigError as exc:
        return _fail("validation", exc.errors)
    print("ok")
    return EXIT_OK


def cmd_run(args) -> int:
    bad = [f"--{name} must be >= 1, got {getattr(args, name)}"
           for name in ("replications", "jobs") if getattr(args, name) < 1]
    if bad:
        return _fail("validation", bad)
    try:
        cfg_raw, overlay_raw, cfg, spec = _load_inputs(args)
    except ConfigError as exc:
        return _fail("validation", exc.errors)
    bad = _make_out(args.out)
    if bad:
        return _fail("validation", bad)

    n = args.replications
    done = 0

    def progress(i: int, total: int) -> None:
        nonlocal done
        done = i
        step = max(1, total // 10)
        if i == total or i % step == 0:
            print(f"  replication {i}/{total}", file=sys.stderr)

    try:
        results = run_ensemble(cfg_raw, overlay_raw, args.seed, n,
                               jobs=args.jobs, progress=progress)
    except Exception as exc:  # noqa: BLE001  report the seed for replay
        failing = args.seed + done
        print(json.dumps({"error": "replication", "seed": failing,
                          "messages": [str(exc)]}), file=sys.stderr)
        return EXIT_RUNTIME

    manifest = write_store(args.out, results, cfg, spec, args.seed)
    _digest(manifest, args.out)
    return EXIT_OK


def _digest(manifest: dict, out_dir: str) -> None:
    """A few lines on the store at ``out_dir``, from the rows of its
    ``kpis.csv``: each float there is written as its repr, so reads back
    exactly, and an absent one is empty."""
    with open(os.path.join(out_dir, "kpis.csv"), encoding="utf-8", newline="") as fh:
        ks = list(csv.DictReader(fh))
    ttfd = [float(k["time_to_first_dose"]) for k in ks if k["time_to_first_dose"]]
    total = mean([float(k["doses_total"]) for k in ks])
    at365 = mean([float(k["doses_at_365"]) for k in ks])
    print(f"scenario={manifest['scenario']} replications={manifest['replications']}")
    if ttfd:
        print(f"  first dose: day {mean(ttfd):.1f}")
    print(f"  released doses: {at365 / 1e6:.2f}M at 12 months, "
          f"{total / 1e6:.2f}M total")
    worst = max(ks, key=lambda k: float(k["max_utilization"]))
    print(f"  busiest resource: {worst['max_utilization_resource']} "
          f"({float(worst['max_utilization']) * 100:.0f}%)")
    print(f"  store: {len(manifest['files'])} files in {out_dir}")


# what a manifest must share with the first store's for the stores to pair
PAIRED = ("config_hash", "base_seed", "horizon_days", "start_date",
          "replications")


def _load_stores(paths):
    """The stores at ``paths``, and every reason they cannot be paired."""
    try:
        stores = [load_store(p) for p in paths]
    except (OSError, ValueError, KeyError) as exc:
        return [], [str(exc)]
    first = stores[0][0]
    problems = []
    holder = {}
    for path, (manifest, results) in zip(paths, stores):
        if not results:
            problems.append(f"{path}: store holds no replications")
        for key in PAIRED:
            if manifest.get(key) != first.get(key):
                problems.append(f"{path}: {key} {manifest.get(key)!r} differs "
                                f"from {first.get(key)!r} in {paths[0]}")
        name = manifest["scenario"]
        if name in holder:
            problems.append(f"{path}: scenario {name!r} is also in {holder[name]}")
        else:
            holder[name] = path
    return stores, problems


def cmd_compare(args) -> int:
    stores, problems = _load_stores(args.stores)
    if problems:
        return _fail("store", problems)
    ens = {m["scenario"]: res for m, res in stores}
    if "base" not in ens:
        return _fail("store", "comparison needs a store with scenario 'base'")
    rows = compare_scenarios(ens)
    print("\t".join(COMPARISON_COLUMNS))
    for row in rows:
        print("\t".join(map(str, comparison_cells(row))))
    return EXIT_OK


def cmd_report(args) -> int:
    from .report import write_report  # numpy: run and validate never need it

    stores, problems = _load_stores(args.stores)
    if problems:
        return _fail("store", problems)
    bad = _make_out(args.out)
    if bad:
        return _fail("validation", bad)
    print(write_report(stores, args.out))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vaxsim",
        description="Discrete-event simulation of a vaccine production, "
                    "quality, and materials supply chain.")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check a config and optional scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--scenario")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="simulate an ensemble into a result store")
    p.add_argument("--config", required=True)
    p.add_argument("--scenario")
    p.add_argument("--replications", type=int, default=100)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="compare stores against the base store")
    p.add_argument("stores", nargs="+")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="write report.md and tidy CSVs")
    p.add_argument("stores", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

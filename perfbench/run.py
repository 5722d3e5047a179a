#!/usr/bin/env python3
"""The vaxsim benchmark: ensemble throughput, analysis latency, per-layer cost.

Run from the repository root:

    python3 perfbench/run.py --workload base_ensemble --seed 1 --seconds 20 --trace 0

The program under test is the source tree in ``src/``; nothing is installed.
The benchmark passes vaxsim only the bundled demo config and scenario overlays;
the seed picks the replication seeds. All load is closed loop from this one
process: it starts one ensemble (or one compare, or one report), waits for it,
then starts the next, with at most two worker processes.

Workloads
  base_ensemble     demo plant, no overlay: ``run_ensemble`` at jobs=1 then
                    ``write_store``, as ``vaxsim run`` does. The event loop, the
                    settle sweep and RNG draws do nearly all the work.
  disruption_suite  the six bundled scenarios, one ensemble each at the same
                    seeds, at jobs=2 plus ``write_store``. Scenario runtime,
                    QA/QC and materials paths and the process pool vary here.
  analysis          ``compare`` and ``report`` over seven stores (base and the
                    six scenarios), built from the seed during set-up. Only the
                    store's read side, metrics and report do work.

With ``--trace 0`` the run repeats whole passes of its workload, starting
another while at least half of one still fits in ``--seconds``, and prints the
end-to-end metrics. Timings are in reference units ("ref", see
reference.py): each operation's wall time divided by the wall time of a fixed
event-loop kernel run just before and after it, which cancels the drift of
this shared machine's speed.
  setup_s           median of three set-ups (import of vaxsim and its
                    dependencies, YAML load, parse_config / parse_scenario,
                    pool start-up), one in this process and two in fresh
                    interpreters. In seconds. Analysis also builds its stores
                    in set-up; that build is run_ensemble plus write_store at
                    jobs=2, which disruption_suite gates, so its time
                    (store_build_s) goes to the result file but not into
                    setup_s, where one long wall-clock sample would swamp
                    the rest.
  rep_cost_ref      cost per replication through the measured step:
                    simulated and stored (ensembles) or loaded, compared and
                    reported (analysis).
  op_p50_ref        median cost of the workload's unit operation: one
                    replication (base_ensemble, cut at run_ensemble's progress
                    callback), one pass through the six scenario ensembles
                    with their store writes (disruption_suite), one compare
                    plus one report (analysis).
  store_kb_per_rep  store size per replication written (ensembles) or read
                    (analysis).
  peak_rss_mb       peak resident set of this process plus, for jobs=2, twice
                    the largest worker's.
The same figures in wall-clock units (reps_per_s, op_p50_s, and for analysis
compare_wall_s and report_wall_s) and the tail of the operation costs
(op_tail_ref, op_tail_s: the highest percentile with at least ten samples
beyond it, or the median when that would lie below it, with the percentile
and the count) are printed and kept in the result file, but not gated.

With ``--trace 1`` the run makes one traced set-up, then one untraced and one
traced pass at jobs=1 (analysis: one compare plus report cycle each), plus,
for disruption_suite, an untraced pass at jobs=2; all of them must write
byte-identical stores. It prints the per-layer metrics of ``tracer.PER_LAYER``
and the tracing overhead.

Every written store is reloaded through ``load_store`` and compared with the
results in memory, and each replication is checked for internal consistency;
analysis checks the comparison table and the report files. A failed check or
an exception counts as a failed operation. A result file with the machine,
store digests and every measurement goes to ``perfbench/out/``; the last line
of standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from multiprocessing.reduction import ForkingPickler
from typing import NamedTuple

import tracer
from reference import Reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(SRC, "vaxsim", "configs")
OUT = os.path.join(HERE, "out")

SCENARIOS = ("lead_time_inflation", "power_outage", "quality_capacity_doubling",
             "shutdown_main_culture", "supplier_unavailability",
             "workforce_reduction")


class Workload(NamedTuple):
    stores: tuple[str, ...]  # "base" or bundled scenario names, one store each
    reps: int                # replications per store in one pass
    trace_reps: int          # the same under --trace 1
    smallest: int            # replications per store under --smallest
    jobs: int                # worker processes for run_ensemble


# Six replications per store, as in the measurements the workloads were
# designed from. At two, each jobs=2 ensemble's pool start-up and imbalance
# were 20% of disruption_suite's time (8% at six), and load_store plus
# compare_scenarios 15% of an analysis cycle (30% at six). The traced
# disruption_suite makes three passes at jobs=1 and 2, so it runs three
# replications per scenario to stay within its time limit.
WORKLOADS = {
    "base_ensemble": Workload(("base",), 6, 6, 1, 1),
    "disruption_suite": Workload(SCENARIOS, 6, 3, 1, 2),
    # detect_recovery needs two replications per ensemble
    "analysis": Workload(("base",) + SCENARIOS, 6, 6, 2, 2),
}
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
REPORT_FILES = ("report.md", "monthly_throughput.csv",
                "cumulative_throughput.csv", "lead_time_histogram.csv",
                "utilization.csv", "queue_lengths.csv", "inventory_levels.csv",
                "stockouts.csv", "comparison.csv", "recovery.csv")
END_TO_END_UNITS = {"setup_s": "s", "rep_cost_ref": "ref", "op_p50_ref": "ref",
                    "store_kb_per_rep": "KB", "peak_rss_mb": "MB"}

clock = time.perf_counter


# -- set-up -------------------------------------------------------------------

class Inputs(NamedTuple):
    cfg_raw: dict
    cfg: object
    overlays: dict   # store name -> overlay dict ({} for base)
    specs: dict      # store name -> ScenarioSpec


def setup(wl: Workload) -> tuple[Inputs, dict]:
    """Import vaxsim, load and parse the inputs, start a pool; returns timings."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    t0 = clock()
    import yaml
    import vaxsim.cli  # noqa: F401  (the command line's own import set)
    from vaxsim import config, scenario
    t1 = clock()
    with open(os.path.join(CONFIGS, "demo.yaml"), encoding="utf-8") as fh:
        cfg_raw = yaml.safe_load(fh)
    overlays = {}
    for name in wl.stores:
        if name == "base":
            overlays[name] = {}
            continue
        path = os.path.join(CONFIGS, "scenarios", name + ".yaml")
        with open(path, encoding="utf-8") as fh:
            overlays[name] = yaml.safe_load(fh)
    t2 = clock()
    cfg = config.parse_config(cfg_raw)
    t3 = clock()
    specs = {n: scenario.parse_scenario(ov, cfg) for n, ov in overlays.items()}
    t4 = clock()
    if wl.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=wl.jobs) as pool:
            list(pool.map(abs, range(wl.jobs)))
    t5 = clock()
    timings = {"import_s": t1 - t0, "yaml_s": t2 - t1, "config_parse_s": t3 - t2,
               "scenario_parse_s": t4 - t3, "pool_start_s": t5 - t4,
               "total_s": t5 - t0}
    return Inputs(cfg_raw, cfg, overlays, specs), timings


def probe_setup(workload: str) -> dict:
    """One set-up in a fresh interpreter (see probe.py)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), workload],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- ensembles and stores -----------------------------------------------------

class Ensemble(NamedTuple):
    name: str
    store_dir: str
    results: list
    # (start, end) of the timed stretches of run_ensemble + write_store, cut
    # at each progress callback: at jobs=1 the first ``reps`` are the
    # replications and the last is the store write
    pieces: list


def base_seed(seed: int, pass_idx: int, reps: int) -> int:
    return seed * 1000 + pass_idx * reps


def run_pass(inputs: Inputs, wl: Workload, seed0: int, reps: int, jobs: int,
             workdir: str, log: "Log", ref: Reference | None = None
             ) -> list[Ensemble]:
    """One ensemble plus its store per store name, as ``vaxsim run`` does.

    With ``ref``, a reference sample precedes each ensemble and, at jobs=1,
    follows each replication (from the progress callback, between two
    replications); the samples are cut out of the timed pieces.
    """
    from vaxsim import runner
    done = []
    for name in wl.stores:
        store_dir = os.path.join(workdir, name)
        cuts = []

        def progress(i, total):
            t = clock()
            if ref is not None and jobs == 1:
                ref.sample()
            cuts.append((t, clock()))

        log.attempted += reps
        if ref is not None:
            ref.sample()
        t0 = clock()
        try:
            results = runner.run_ensemble(inputs.cfg_raw, inputs.overlays[name],
                                          seed0, reps, jobs=jobs,
                                          progress=progress)
            runner.write_store(store_dir, results, inputs.cfg,
                               inputs.specs[name], seed0, inputs.overlays[name])
        except Exception:  # noqa: BLE001  a failed ensemble fails its replications
            log.fail(reps, f"ensemble {name} seed {seed0}")
            continue
        edges = [t0] + [t for cut in cuts for t in cut] + [clock()]
        done.append(Ensemble(name, store_dir, results,
                             list(zip(edges[::2], edges[1::2]))))
    return done


def check_ensembles(ensembles: list[Ensemble], log: "Log") -> None:
    """Reload every store and check each replication; failures go to ``log``."""
    from vaxsim import runner
    for ens in ensembles:
        try:
            _, loaded = runner.load_store(ens.store_dir)
        except Exception:  # noqa: BLE001
            log.fail(len(ens.results), f"load_store {ens.store_dir}")
            continue
        if len(loaded) != len(ens.results):
            log.fail(len(ens.results), f"{ens.name}: store holds {len(loaded)} "
                     f"replications, expected {len(ens.results)}", tb=False)
            continue
        for mem, disk in zip(ens.results, loaded):
            problem = None
            if mem != disk:
                problem = "reloaded result differs from the in-memory one"
            elif mem.counts["released_doses"] != sum(mem.series["released_doses"]):
                problem = "released_doses differs from the sum of its daily series"
            elif (mem.counts["batches_released"] + mem.counts["batches_discarded"]
                  > mem.counts["batches_created"]):
                problem = "released + discarded batches exceed created"
            if problem:
                log.fail(1, f"{ens.name} seed {mem.seed}: {problem}", tb=False)


def store_digest(store_dir: str) -> str:
    """sha256 over every file of a store, by relative path."""
    h = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(store_dir, "**", "*"), recursive=True))
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, store_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def set_digest(ensembles: list[Ensemble], seed0: int) -> dict:
    stores = {e.name: store_digest(e.store_dir) for e in ensembles}
    h = hashlib.sha256(json.dumps(stores, sort_keys=True).encode())
    return {"base_seed": seed0, "stores": stores, "set": h.hexdigest()}


def store_bytes(ensembles: list[Ensemble]) -> int:
    return sum(os.path.getsize(p) for e in ensembles
               for p in glob.glob(os.path.join(e.store_dir, "**", "*"),
                                  recursive=True) if os.path.isfile(p))


def discard(ensembles: list[Ensemble]) -> None:
    for e in ensembles:
        shutil.rmtree(e.store_dir, ignore_errors=True)


# -- analysis -----------------------------------------------------------------

class Cycle(NamedTuple):
    start: float
    mid: float         # start..mid: load_store x7 + compare_scenarios
    end: float         # mid..end: load_store x7 + write_report
    rows: list
    names: list
    at_days: tuple


def analysis_cycle(store_dirs: list[str], report_dir: str) -> Cycle:
    """``vaxsim compare`` then ``vaxsim report`` over the same stores."""
    from vaxsim import metrics, report, runner
    t0 = clock()
    stores = [runner.load_store(d) for d in store_dirs]
    ens = {m["scenario"]: res for m, res in stores}
    horizon = stores[0][0]["horizon_days"]
    at_days = tuple(dict.fromkeys(d for d in (365, horizon) if d <= horizon))
    rows = metrics.compare_scenarios(ens, at_days=at_days)
    t1 = clock()
    stores = [runner.load_store(d) for d in store_dirs]
    report.write_report(stores, report_dir)
    t2 = clock()
    return Cycle(t0, t1, t2, rows, sorted(ens), at_days)


def check_cycle(cycle: Cycle, report_dir: str, log: "Log") -> None:
    """One finite row per (scenario, day); report.md and every CSV written."""
    want = {(n, d) for n in cycle.names for d in cycle.at_days}
    got = [(r["scenario"], r["day"]) for r in cycle.rows]
    if len(got) != len(want) or set(got) != want:
        log.fail(1, f"compare returned rows {got}, expected {sorted(want)}",
                 tb=False)
    else:
        for r in cycle.rows:
            values = [r["mean_doses"], r["ci_low"], r["ci_high"]]
            values += [r[k] for k in ("delta_pct", "p_value") if r[k] is not None]
            if not all(math.isfinite(v) for v in values):
                log.fail(1, f"compare row not finite: {r}", tb=False)
                break
    missing = [f for f in REPORT_FILES
               if not os.path.isfile(os.path.join(report_dir, f))]
    if missing:
        log.fail(1, f"report is missing {missing}", tb=False)


def csv_size(report_dir: str) -> tuple[int, int]:
    """Bytes and data cells of the report's CSV files."""
    total = cells = 0
    for path in glob.glob(os.path.join(report_dir, "*.csv")):
        total += os.path.getsize(path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        cells += sum(line.count(",") + 1 for line in lines[1:])
    return total, cells


# -- bookkeeping --------------------------------------------------------------

class Log:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, n: int, what: str, tb: bool = True) -> None:
        self.failed += n
        msg = what + (":\n" + traceback.format_exc() if tb else "")
        self.errors.append(msg)
        print(f"FAILED {msg}", file=sys.stderr)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples above it, or the median
    when there are too few samples for that percentile to lie above it.

    A run holds about 18 replications on base_ensemble and one to five
    operations on the other workloads, so this is at or near the median on
    every workload: it is recorded, but not a gated metric.

    Returns (value, percentile, samples beyond it).
    """
    s = sorted(samples)
    k = len(s) - 1 - TAIL_BEYOND
    if k < (len(s) - 1) / 2:
        return statistics.median(s), 50.0, len(s) // 2
    return s[k], 100.0 * (k + 1) / len(s), TAIL_BEYOND


def peak_rss_mb(jobs: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (jobs * worker if jobs > 1 else 0)) / 1024.0


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": git_commit()}


def git_commit() -> str:
    """HEAD of the repository this benchmark sits in, if it is one."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, cwd=ROOT,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


# -- the two kinds of run -----------------------------------------------------

def timed_run(name: str, wl: Workload, seed: int, seconds: float,
              smallest: bool, workdir: str, log: Log) -> tuple[dict, dict]:
    inputs, own_setup = setup(wl)
    reps = wl.smallest if smallest else wl.reps
    ref = Reference()
    extra: dict = {"digests": []}
    # (start, end) of every timed stretch, and of each unit operation
    work: list[tuple[float, float]] = []
    ops: list[list[tuple[float, float]]] = []

    def more(start: float, last: float) -> bool:
        """Whether to start another pass or cycle, the last of which took
        ``last``: yes while at least half of one still fits in ``seconds``."""
        if not ops:
            return True
        return not smallest and clock() - start + last / 2 < seconds

    if name == "analysis":
        seed0 = base_seed(seed, 0, reps)
        t0 = clock()
        built = run_pass(inputs, wl, seed0, reps, wl.jobs, workdir, log)
        extra["store_build_s"] = clock() - t0
        check_ensembles(built, log)
        extra["digests"].append(set_digest(built, seed0))
        store_dirs = [e.store_dir for e in built]
        kb_per_rep = store_bytes(built) / 1024.0 / (len(built) * reps)
        stored_reps = sum(len(e.results) for e in built)
        report_dir = os.path.join(workdir, "report")
        cycles = []
        start = last = clock()
        while more(start, clock() - last):
            last = clock()
            shutil.rmtree(report_dir, ignore_errors=True)
            log.attempted += 2  # one compare, one report
            ref.sample()
            try:
                cycle = analysis_cycle(store_dirs, report_dir)
            except Exception:  # noqa: BLE001
                log.fail(2, "analysis cycle")
                break
            check_cycle(cycle, report_dir, log)
            cycles.append(cycle)
            ops.append([(cycle.start, cycle.end)])
            work.append((cycle.start, cycle.end))
        done_reps = stored_reps * len(cycles)
        if cycles:
            extra["compare_wall_s"] = statistics.median(
                c.mid - c.start for c in cycles)
            extra["report_wall_s"] = statistics.median(
                c.end - c.mid for c in cycles)
        extra["cycles"] = len(cycles)
    else:
        done_reps = bytes_ = 0
        start = last = clock()
        pass_idx = 0
        while more(start, clock() - last):
            last = clock()
            seed0 = base_seed(seed, pass_idx, reps)
            done = run_pass(inputs, wl, seed0, reps, wl.jobs, workdir, log, ref)
            check_ensembles(done, log)
            extra["digests"].append(set_digest(done, seed0))
            bytes_ += store_bytes(done)
            discard(done)
            # per-replication times exist only at jobs=1; at jobs=2 the unit
            # is the whole suite, since its ensembles differ too much in cost
            # for a median over them to be steady
            for e in done:
                work.extend(e.pieces)
                done_reps += len(e.results)
                if wl.jobs == 1:
                    ops.extend([p] for p in e.pieces[:len(e.results)])
            if wl.jobs > 1 and done:
                ops.append([p for e in done for p in e.pieces])
            pass_idx += 1
            if not done:
                break
        kb_per_rep = bytes_ / 1024.0 / done_reps if done_reps else 0.0
        extra["passes"] = pass_idx
    ref.sample()  # closes the last operation
    rss = peak_rss_mb(wl.jobs)

    samples = [own_setup] + [probe_setup(name)
                             for _ in range(0 if smallest else SETUP_SAMPLES - 1)]
    op_s = [sum(b - a for a, b in op) for op in ops]
    op_ref = [sum(ref.cost(a, b) for a, b in op) for op in ops]
    work_s = sum(b - a for a, b in work)
    work_ref = sum(ref.cost(a, b) for a, b in work)
    tail_ref, pct, beyond = tail(op_ref) if ops else (0.0, 0.0, 0)
    # wall-clock figures and the tail: printed and kept, but not gated (see
    # reference.py, and tail() for why the tail is mostly the median here)
    extra.update(
        setup_samples=samples, reference_s=ref.units,
        op_s=op_s, op_ref=op_ref, op_tail_ref=tail_ref,
        op_tail_percentile=pct, op_tail_beyond=beyond,
        reps_per_s=done_reps / work_s if work_s else 0.0,
        op_p50_s=statistics.median(op_s) if ops else 0.0,
        op_tail_s=tail(op_s)[0] if ops else 0.0,
        reference_p50_s=statistics.median(ref.units))
    metrics = {
        "setup_s": statistics.median(s["total_s"] for s in samples),
        "rep_cost_ref": work_ref / done_reps if done_reps else 0.0,
        "op_p50_ref": statistics.median(op_ref) if ops else 0.0,
        "store_kb_per_rep": kb_per_rep,
        "peak_rss_mb": rss,
    }
    return metrics, extra


def traced_run(name: str, wl: Workload, seed: int, smallest: bool,
               workdir: str, log: Log) -> tuple[dict, dict]:
    inputs, own_setup = setup(wl)
    reps = wl.smallest if smallest else wl.trace_reps
    seed0 = base_seed(seed, 0, reps)
    tr = tracer.Tracer()
    # a second set-up, traced, so that set-up parsing counts in config.parse_s
    # and scenario.parse_s (the first imports what the tracer wraps)
    tr.install()
    try:
        setup(wl)
    finally:
        tr.uninstall()
    ref = Reference()
    extra: dict = {"digests": []}
    pickle_kb = pickle_s = 0.0
    csv_bytes = csv_cells = 0
    produced = 0
    spans = {}  # "untraced" / "traced" -> (start, end) of the same work

    def one_pass(tag: str, jobs: int, traced: bool):
        d = os.path.join(workdir, tag)
        if traced:
            tr.install()
        t0 = clock()
        try:
            done = run_pass(inputs, wl, seed0, reps, jobs, d, log)
        finally:
            spans[tag] = (t0, clock())
            tr.uninstall()
        ref.sample()
        check_ensembles(done, log)
        extra["digests"].append(dict(set_digest(done, seed0), run=tag))
        return done

    if name == "analysis":
        built = one_pass("build_jobs%d" % wl.jobs, wl.jobs, False)
        store_dirs = [e.store_dir for e in built]
        for tag, traced in (("untraced", False), ("traced", True)):
            report_dir = os.path.join(workdir, "report_" + tag)
            log.attempted += 2
            if traced:
                tr.install()
            t0 = clock()
            try:
                cycle = analysis_cycle(store_dirs, report_dir)
            except Exception:  # noqa: BLE001
                log.fail(2, f"{tag} analysis cycle")
                continue
            finally:
                spans[tag] = (t0, clock())
                tr.uninstall()
                ref.sample()
            check_cycle(cycle, report_dir, log)
        csv_bytes, csv_cells = csv_size(os.path.join(workdir, "report_traced"))
    else:
        ref.sample()
        untraced = one_pass("untraced", 1, False)
        traced = one_pass("traced", 1, True)
        runs = [untraced, traced]
        if wl.jobs > 1:
            runs.append(one_pass("untraced_jobs%d" % wl.jobs, wl.jobs, False))
        results = [r for e in traced for r in e.results]
        produced = store_bytes(traced)
        t0 = clock()
        sizes = []
        for res in results:
            buf = ForkingPickler.dumps(res)
            pickle.loads(buf)
            sizes.append(len(buf))
        pickle_s = clock() - t0
        pickle_kb = sum(sizes) / 1024.0 / len(sizes) if sizes else 0.0
        for run in runs:
            discard(run)
    if len({d["set"] for d in extra["digests"]}) > 1:
        log.attempted += 1
        log.fail(1, "traced and untraced runs wrote different stores: "
                 + json.dumps(extra["digests"]), tb=False)

    samples = [own_setup] + [probe_setup(name)
                             for _ in range(0 if smallest else SETUP_SAMPLES - 1)]
    extra["setup_samples"] = samples
    walls = {tag: b - a for tag, (a, b) in spans.items()}
    extra.update(walls=walls, reference_s=ref.units)
    # both in reference units, so a change of host speed between the two
    # passes does not show as tracing overhead
    overhead = ref.cost(*spans["traced"]) / ref.cost(*spans["untraced"]) \
        if "traced" in spans and "untraced" in spans else 0.0
    metrics = tr.per_layer(
        wall_s=walls.get("traced", 0.0),
        import_s=statistics.median(s["import_s"] for s in samples),
        store_bytes=produced, pickle_kb=pickle_kb, pickle_s=pickle_s,
        csv_bytes=csv_bytes, csv_cells=csv_cells, overhead=overhead)
    extra["spans"] = tr.spans
    extra["calls"] = {k: {"calls": s.calls, "total_s": s.total,
                          "self_s": s.self_time}
                      for k, s in sorted(tr.stats.items())}
    return metrics, extra


# -- entry point --------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smallest", action="store_true",
                    help="one pass at the smallest size, one set-up sample")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vaxsim", "runner.py")):
        print(f"error: no vaxsim source tree at {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    log = Log()
    load_before = os.getloadavg()
    try:
        if args.trace:
            metrics, extra = traced_run(args.workload, wl, args.seed,
                                        args.smallest, workdir, log)
            units = tracer.PER_LAYER
        else:
            metrics, extra = timed_run(args.workload, wl, args.seed,
                                       args.seconds, args.smallest, workdir,
                                       log)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = log.failed / log.attempted if log.attempted else 1.0
    summary = {"correct": log.failed == 0 and log.attempted > 0,
               "attempted": log.attempted, "failed": log.failed,
               "metrics": {k: {"value": v, "unit": units[k]}
                           for k, v in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smallest": args.smallest, "failed_frac": failed_frac,
              "machine": dict(machine(), loadavg_before=load_before,
                              loadavg_after=os.getloadavg()),
              "summary": summary, "errors": log.errors, **extra}
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for k, v in metrics.items():
        print(f"{k:40s} {v:>16.6g} {units[k]}")
    print(f"{'failed_frac':40s} {failed_frac:>16.6g} fraction")
    for k, unit in (("reps_per_s", "rep/s"), ("op_p50_s", "s"),
                    ("op_tail_ref", "ref"), ("op_tail_s", "s"),
                    ("compare_wall_s", "s"), ("report_wall_s", "s"),
                    ("reference_p50_s", "s")):
        if k in extra:
            print(f"{k:40s} {extra[k]:>16.6g} {unit}")
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

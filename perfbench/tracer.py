"""Tracing from outside the program: wrap vaxsim's public functions and methods.

A ``Tracer`` replaces functions and methods of the ``vaxsim`` modules with
timing wrappers while it is installed, and puts the originals back when it is
removed; nothing under ``src/`` is edited. Every wrapped call adds to a per-name
record of calls, inclusive time and self time (its time minus the part spent
in wrapped calls beneath it). Calls at layer boundaries also leave a span
(name, start, end, parent) in memory; hot inner calls such as ``try_dispatch``
or ``HashStream.random`` are only counted and timed, so memory stays bounded
however long the run.

``per_layer`` turns the records into the benchmark's per-layer metrics. Their
names, units and meaning are listed in ``PER_LAYER`` below, which
``BENCHMARK.json`` mirrors.
"""

from __future__ import annotations

import sys
import time

EVENT_KINDS = ("day", "proc_done", "task_done", "po_place", "po_step",
               "maint_start", "maint_end", "scn_apply", "scn_revert",
               "scn_reset")
BLOCK_REASONS = ("closed", "no_machine", "no_input", "material_stockout",
                 "downstream_full")

# name -> unit; "_self_s" is a call's time minus its wrapped children, every
# other "_s" is inclusive time. The comment above each group names the
# end-to-end metric it should move, and on which workload.
PER_LAYER = {
    # rep_cost_ref and op_p50_ref on both ensemble workloads; nothing on analysis
    "engine.events": "count",
    **{f"engine.events_by_kind.{k}": "count" for k in EVENT_KINDS},
    "engine.tombstones": "count",
    "engine.eventlist_s": "s",
    "engine.rng_streams": "count",
    "engine.rng_draws": "count",
    "engine.rng_s": "s",
    # settle: rep_cost_ref and op_p50_ref on base_ensemble; collector_s is paid
    # per simulated day, so its share is largest on lead_time_inflation
    "model.settle_calls": "count",
    "model.settle_passes": "count",
    "model.settle_idle_ratio": "ratio",
    "model.settle_self_s": "s",
    "model.collector_s": "s",
    # rep_cost_ref on base_ensemble
    "production.try_dispatch_calls": "count",
    "production.start_ratio": "ratio",
    **{f"production.block.{r}": "count" for r in BLOCK_REASONS},
    "production.dispatch_self_s": "s",
    # rep_cost_ref on disruption_suite (capacity doubling, workforce cut) more
    # than on base_ensemble
    "qaqc.pump_calls": "count",
    "qaqc.pump_start_ratio": "ratio",
    "qaqc.tasks_started": "count",
    "qaqc.pump_self_s": "s",
    # rep_cost_ref on disruption_suite (lead-time inflation, supplier outage)
    "materials.missing_for_calls": "count",
    "materials.shortfalls": "count",
    "materials.check_s": "s",
    # rep_cost_ref on both ensemble workloads
    "distributions.samples": "count",
    "distributions.sample_s": "s",
    # parse and import: setup_s on every workload; scenario.events:
    # rep_cost_ref on disruption_suite only
    "config.parse_s": "s",
    "scenario.parse_s": "s",
    "scenario.events": "count",
    "vaxsim.import_s": "s",
    # write side: rep_cost_ref on base_ensemble; pickling: rep_cost_ref on
    # disruption_suite; read side: op_p50_ref and rep_cost_ref on analysis
    "runner.write_store_s": "s",
    "runner.ndjson_encode_s": "s",
    "runner.store_bytes": "bytes",
    "runner.result_pickle_kb": "KB",
    "runner.result_pickle_s": "s",
    "runner.load_store_s": "s",
    "runner.ndjson_decode_s": "s",
    # kpi_summary is paid inside write_store (rep_cost_ref on the ensembles);
    # compare and recovery: op_p50_ref and rep_cost_ref on analysis
    "metrics.kpi_summary_s": "s",
    "metrics.compare_s": "s",
    "metrics.recovery_s": "s",
    # op_p50_ref and rep_cost_ref on analysis
    "report.write_report_self_s": "s",
    "report.csv_bytes": "bytes",
    "report.csv_cells": "count",
    # traced wall time outside the top-level calls below
    "cli.unattributed_s": "s",
    # traced wall / untraced wall of the same work
    "trace.overhead": "ratio",
}

# Entry points whose calls are the outermost work of a workload: the traced
# wall time not covered by one of these is ``cli.unattributed_s``.
TOP_LEVEL = ("run_ensemble", "write_store", "load_store", "compare_scenarios",
             "write_report")


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Install with ``install()``, run the workload, then ``uninstall()``."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.spans: list[list] = []    # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self._timing: list[list[float]] = []  # child time of each open call
        self._open_spans: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._last_dispatch_moved = True
        self._heap_left = 0

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str, span: bool, after):
        stat = self.stats.setdefault(name, _Stat())
        timing = self._timing
        clock = time.perf_counter

        # two variants so that hot inner calls skip the span bookkeeping
        if span:
            spans, open_spans = self.spans, self._open_spans

            def wrapper(*args, **kwargs):
                parent = open_spans[-1] if open_spans else None
                rec = [name, 0.0, 0.0, parent]
                spans.append(rec)
                open_spans.append(len(spans) - 1)
                child = [0.0]
                timing.append(child)
                t0 = rec[1] = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = rec[2] = clock()
                    timing.pop()
                    open_spans.pop()
                    dt = t1 - t0
                    stat.calls += 1
                    stat.total += dt
                    stat.self_time += dt - child[0]
                    if timing:
                        timing[-1][0] += dt
                if after is not None:
                    after(args, out)
                return out
        else:
            def wrapper(*args, **kwargs):
                child = [0.0]
                timing.append(child)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    timing.pop()
                    stat.calls += 1
                    stat.total += dt
                    stat.self_time += dt - child[0]
                    if timing:
                        timing[-1][0] += dt
                if after is not None:
                    after(args, out)
                return out

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__module__ = fn.__module__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _method(self, cls, attr: str, name: str, span: bool = False,
                after=None) -> None:
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, self._wrap(orig, name, span, after))

    def _function(self, fn, name: str, span: bool = False, after=None) -> None:
        """Wrap ``fn`` under every vaxsim module name bound to it."""
        wrapped = self._wrap(fn, name, span, after)
        for modname, mod in list(sys.modules.items()):
            if modname != "vaxsim" and not modname.startswith("vaxsim."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def install(self) -> None:
        from vaxsim import (config, engine, materials, metrics, model,
                            production, qaqc, report, runner, scenario)
        from vaxsim.distributions import Distribution

        # engine
        self._method(engine.EventList, "push", "eventlist.push")
        self._method(engine.EventList, "pop", "eventlist.pop")
        self._method(engine.EventList, "peek_time", "eventlist.peek_time")
        self._method(engine.Engine, "pop_next", "engine.pop_next",
                     after=self._after_pop_next)
        self._method(engine.RngRegistry, "derived", "rng.derived")
        self._method(engine.HashStream, "random", "rng.random")
        # model
        self._method(model.Model, "run", "model.run", span=True,
                     after=self._after_model_run)
        self._method(model.Model, "settle", "model.settle")
        self._method(model.Collector, "day_tick", "collector.day_tick")
        self._method(model.Collector, "result", "collector.result")
        # production
        self._method(production.Production, "dispatch_pass",
                     "production.dispatch_pass", after=self._after_dispatch_pass)
        self._method(production.Production, "try_dispatch",
                     "production.try_dispatch", after=self._after_try_dispatch)
        # qaqc
        self._method(qaqc.QaQc, "pump", "qaqc.pump", after=self._after_pump)
        # materials
        self._method(materials.Materials, "missing_for", "materials.missing_for")
        self._method(materials.Materials, "note_shortfall",
                     "materials.note_shortfall")
        # distributions
        self._method(Distribution, "sample", "distributions.sample")
        # config / scenario
        self._function(config.parse_config, "config.parse_config")
        self._function(scenario.parse_scenario, "scenario.parse_scenario")
        # runner
        self._function(runner.run_ensemble, "run_ensemble", span=True)
        self._function(runner.run_replication, "run_replication", span=True)
        self._function(runner.write_store, "write_store", span=True)
        self._function(runner.result_to_ndjson, "runner.result_to_ndjson")
        self._function(runner.load_store, "load_store", span=True)
        self._function(runner.ndjson_to_result, "runner.ndjson_to_result")
        # metrics / report
        self._function(metrics.kpi_summary, "metrics.kpi_summary")
        self._function(metrics.compare_scenarios, "compare_scenarios", span=True)
        self._function(metrics.detect_recovery, "metrics.detect_recovery")
        self._function(report.write_report, "write_report", span=True)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- outcome hooks -------------------------------------------------------

    def _after_pop_next(self, args, ev) -> None:
        kind = getattr(ev, "kind", None)
        if kind is not None:
            self.count("event." + kind)

    def _after_model_run(self, args, result) -> None:
        # entries still in the heap at the horizon were never popped
        self._heap_left += len(args[0].engine.events)
        self.count("tasks_started", sum(
            v for k, v in result.counts.items() if k.startswith("pool_started.")))

    def _after_dispatch_pass(self, args, moved) -> None:
        self._last_dispatch_moved = moved

    def _after_pump(self, args, moved) -> None:
        if moved:
            self.count("pump_moved")
        elif not self._last_dispatch_moved:
            self.count("settle_idle_passes")  # neither half started anything

    def _after_try_dispatch(self, args, reason) -> None:
        self.count("dispatch_started" if reason is None else "block." + reason)

    # -- reduction -------------------------------------------------------------

    def calls(self, name: str) -> int:
        s = self.stats.get(name)
        return s.calls if s else 0

    def total(self, *names: str) -> float:
        return sum(self.stats[n].total for n in names if n in self.stats)

    def self_time(self, *names: str) -> float:
        return sum(self.stats[n].self_time for n in names if n in self.stats)

    def top_level_s(self) -> float:
        return sum(end - start for name, start, end, parent in self.spans
                   if parent is None and name in TOP_LEVEL)

    def per_layer(self, *, wall_s: float, import_s: float, store_bytes: int,
                  pickle_kb: float, pickle_s: float, csv_bytes: int,
                  csv_cells: int, overhead: float) -> dict[str, float]:
        c = self.counts.get
        events = sum(c("event." + k, 0) for k in EVENT_KINDS)
        tries = self.calls("production.try_dispatch")
        passes = self.calls("production.dispatch_pass")
        pumps = self.calls("qaqc.pump")
        pushes = self.calls("eventlist.push")
        m = {
            "engine.events": events,
            **{f"engine.events_by_kind.{k}": c("event." + k, 0)
               for k in EVENT_KINDS},
            "engine.tombstones": pushes - events - self._heap_left,
            "engine.eventlist_s": self.total(
                "eventlist.push", "eventlist.pop", "eventlist.peek_time"),
            "engine.rng_streams": self.calls("rng.derived"),
            "engine.rng_draws": self.calls("rng.random"),
            "engine.rng_s": self.total("rng.derived", "rng.random"),
            "model.settle_calls": self.calls("model.settle"),
            "model.settle_passes": passes,
            "model.settle_idle_ratio": (c("settle_idle_passes", 0) / passes
                                        if passes else 0.0),
            "model.settle_self_s": self.self_time("model.settle"),
            "model.collector_s": self.total("collector.day_tick",
                                            "collector.result"),
            "production.try_dispatch_calls": tries,
            "production.start_ratio": (c("dispatch_started", 0) / tries
                                       if tries else 0.0),
            **{f"production.block.{r}": c("block." + r, 0)
               for r in BLOCK_REASONS},
            "production.dispatch_self_s": self.self_time(
                "production.dispatch_pass", "production.try_dispatch"),
            "qaqc.pump_calls": pumps,
            "qaqc.pump_start_ratio": c("pump_moved", 0) / pumps if pumps else 0.0,
            "qaqc.tasks_started": c("tasks_started", 0),
            "qaqc.pump_self_s": self.self_time("qaqc.pump"),
            "materials.missing_for_calls": self.calls("materials.missing_for"),
            "materials.shortfalls": self.calls("materials.note_shortfall"),
            "materials.check_s": self.total("materials.missing_for"),
            "distributions.samples": self.calls("distributions.sample"),
            "distributions.sample_s": self.self_time("distributions.sample"),
            "config.parse_s": self.total("config.parse_config"),
            "scenario.parse_s": self.total("scenario.parse_scenario"),
            "scenario.events": sum(c("event." + k, 0) for k in
                                   ("scn_apply", "scn_revert", "scn_reset")),
            "vaxsim.import_s": import_s,
            "runner.write_store_s": self.total("write_store"),
            "runner.ndjson_encode_s": self.total("runner.result_to_ndjson"),
            "runner.store_bytes": store_bytes,
            "runner.result_pickle_kb": pickle_kb,
            "runner.result_pickle_s": pickle_s,
            "runner.load_store_s": self.total("load_store"),
            "runner.ndjson_decode_s": self.total("runner.ndjson_to_result"),
            "metrics.kpi_summary_s": self.total("metrics.kpi_summary"),
            "metrics.compare_s": self.total("compare_scenarios"),
            "metrics.recovery_s": self.total("metrics.detect_recovery"),
            "report.write_report_self_s": self.self_time("write_report"),
            "report.csv_bytes": csv_bytes,
            "report.csv_cells": csv_cells,
            "cli.unattributed_s": max(wall_s - self.top_level_s(), 0.0),
            "trace.overhead": overhead,
        }
        assert set(m) == set(PER_LAYER)
        return m

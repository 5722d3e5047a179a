"""Composition of one replication: production + QA/QC + materials + metrics.

A Model wires the domain runtimes onto one engine, ticks a daily collector,
and hands back a ReplicationResult. Everything is deterministic in (config,
scenario, seed).

The collector keeps each daily reading once, in the result's own series:
every series is allocated for the whole horizon when the run starts. Released
doses are added to the current day as they happen; when each batch was
created, released or discarded is in the batch log. At each day tick the
collector takes the day's share of the busy, closed, capacity and queue
integrals, writes the stage and pool utilization ratios and the queue
lengths, and writes each material's level and stockout flag.
``Collector.result`` hands over those same arrays and adds the run totals.

Time advances in the three phases of Pidd's method: pop the next event, run
its handler (the B-phase), then ``settle`` (the C-phase) starts every batch
and task whose preconditions now hold. The C-phase visits only the stages and
pools that are awake. A visit leaves a stage or pool unable to start anything
more, so it sleeps until a change that could unblock it wakes it:

- a machine at a stage completes, stalls, drains, hands its batch on or loses
  it: that stage wakes, and so does the next stage when it takes batches
  straight off this one's machines (a stage's own starts happen during its
  visit, which runs until it is blocked);
- a push, pop or removal on an inventory (a release from the final one
  included) wakes the stages on both sides of it;
- an accepted receipt or a consumption of a material wakes the stages that
  use it: a receipt can unblock them, and a consumption can leave one short,
  which it must note at once;
- an enqueue, a release or a capacity change on a pool wakes that pool;
- maintenance and every scenario apply or revert wake everything (an
  inventory capacity has no apply hook that could wake just its neighbours).

Day ticks, order placements and purchase-order steps short of a receipt wake
nothing. A sleeping stage or pool would start nothing, so a settle starts
exactly what offering work to every stage and pool would start, in the same
downstream-first order; ``tests/test_settle.py`` checks after every settle
that nothing more can start.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .engine import Engine, RngRegistry, SimClock
from .materials import Materials
from .production import DISCARDED, RELEASED, Batch, Production
from .qaqc import QaQc


@dataclass
class ReplicationResult:
    """Everything one replication emits, in plain serializable data.

    Each daily series is an ``array`` of ``horizon_days`` values: a byte per
    day for the 0/1 ``material_stockout.*`` flags, a double per day for every
    other series. A boxed float per day would make a result about three
    times larger. A result loaded from a store holds them in a read-only
    mapping.
    """

    scenario: str
    seed: int
    horizon_days: int
    start_date: str
    series: dict[str, array] = field(default_factory=dict)
    batches: list[dict] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)


class Collector:
    """Daily series and batch log for one replication (see the module notes)."""

    def __init__(self, model):
        self.model = model
        self.horizon = int(model.engine.clock.horizon_days)
        self.series: dict[str, array] = {}
        self._doses = self._new("released_doses")
        self._stages = [(s, self._new(f"stage_util.{s.id}"))
                        for s in model.production.stages]
        self._pools = [(p, self._new(f"pool_util.{p.name}"),
                        self._new(f"pool_queue.{p.name}")) for p in model.qc.pools]
        self._materials = [(rt, self._new(f"material_level.{m}"),
                            self._new(f"material_stockout.{m}"))
                           for m, rt in model.materials.runtimes.items()]
        self.batches: list[Batch] = []

    def _new(self, name: str) -> array:
        code = "b" if name.startswith("material_stockout.") else "d"
        self.series[name] = values = array(code, [0]) * self.horizon
        return values

    # -- batch log -------------------------------------------------------

    def record_created(self, batch: Batch) -> None:
        self.batches.append(batch)

    def record_release(self, batch: Batch) -> None:
        self._doses[self.model.engine.clock.day_index()] += batch.doses

    def live_batches(self) -> list[Batch]:
        return [b for b in self.batches if b.alive]

    # -- end of day ------------------------------------------------------

    def day_tick(self, t: float) -> None:
        d = min(int(t) - 1, self.horizon - 1)
        for stage, util in self._stages:
            busy = stage.busy.take(t)
            open_time = stage.cfg.machines - stage.closed_int.take(t)
            util[d] = busy / open_time if open_time > 1e-9 else 0.0
        for pool, util, queue in self._pools:
            busy = pool.busy_int.take(t)
            cap = pool.cap_int.take(t)
            util[d] = busy / cap if cap > 1e-9 else 0.0
            queue[d] = pool.queue_int.take(t)
        # level in batch equivalents; a day is a stockout day if a stockout was
        # open at its end or closed partway through it
        for rt, levels, flags in self._materials:
            in_stockout = rt.stockout_flag or rt.stockout_since is not None
            rt.stockout_flag = False
            levels[d] = rt.on_hand / rt.batch_equiv
            flags[d] = in_stockout

    # -- final assembly --------------------------------------------------

    def result(self, scenario: str) -> ReplicationResult:
        model = self.model
        res = ReplicationResult(
            scenario=scenario,
            seed=model.seed,
            horizon_days=self.horizon,
            start_date=model.engine.clock.start_date.isoformat(),
            series=self.series,
        )

        for b in self.batches:
            res.batches.append({
                "id": b.id, "created_at": b.created_at, "doses": b.doses,
                "state": b.state, "released_at": b.released_at,
                "discarded_at": b.discarded_at, "discard_cause": b.discard_cause,
                "retests": b.retests, "investigations": b.investigations,
            })

        c = res.counts
        c["batches_created"] = len(self.batches)
        c["batches_released"] = sum(1 for b in self.batches if b.state == RELEASED)
        c["batches_discarded"] = sum(1 for b in self.batches if b.state == DISCARDED)
        c["released_doses"] = sum(self._doses)
        c["retests"] = sum(b.retests for b in self.batches)
        c["investigations"] = sum(b.investigations for b in self.batches)
        for pool in model.qc.pools:
            c[f"pool_busy_days.{pool.name}"] = pool.busy_int.total
            c[f"pool_queue_days.{pool.name}"] = pool.queue_int.total
            c[f"pool_started.{pool.name}"] = pool.started
            c[f"pool_wait_days.{pool.name}"] = pool.wait_total
        for stage in model.production.stages:
            c[f"stage_closed_days.{stage.id}"] = stage.closed_int.total
        for rt, _, flags in self._materials:
            c[f"material_stockout_days.{rt.id}"] = sum(flags)
            c[f"material_consumed.{rt.id}"] = rt.consumed_total
            c[f"material_received.{rt.id}"] = rt.received_total
        return res


class Model:
    """One deterministic replication of the whole supply chain."""

    def __init__(self, cfg, seed: int, scenario=None):
        self.cfg = cfg
        self.seed = seed
        clock = SimClock(cfg.model.start_date, cfg.model.end_date)
        self.engine = Engine(clock)
        self.rng = RngRegistry(seed)
        # test ids are fixed once parsed; overlays edit these objects in place
        self.tests = {t.id: t for t in cfg.qc.tests}
        # the whole day-tick chain goes in first: at any instant the tick must
        # precede same-time domain events, so a day's readings never absorb
        # changes that belong to the following day
        self.engine.on("day", self._on_day)
        for t in range(1, int(clock.horizon_days) + 1):
            self.engine.schedule(float(t), "day", absolute=True)
        for w in cfg.maintenance:
            start = clock.date_to_time(w.start)
            end = clock.date_to_time(w.end) + 1.0  # inclusive end date
            if start >= 0:
                self.engine.schedule(start, "maint_start", absolute=True)
            self.engine.schedule(max(end, 0.0), "maint_end", absolute=True)
        self.materials = Materials(self)
        self.production = Production(self)
        self.qc = QaQc(self)
        self._wakeable = [*self.production.stages, *self.qc.pools]
        self.collect = Collector(self)
        self.scenario = scenario
        self.engine.after_event = lambda ev: self.settle()
        if scenario is not None:
            scenario.attach(self)

    def _on_day(self, ev) -> None:
        self.collect.day_tick(ev.time)

    def wake_all(self) -> None:
        for item in self._wakeable:
            item.awake = True

    def settle(self) -> None:
        """C-phase: start everything that can start at this instant.

        Returns at once when no stage or pool is awake; otherwise offers work
        to the awake stages, then to the awake pools, and repeats while
        anything moves.
        """
        for item in self._wakeable:
            if item.awake:
                break
        else:
            return
        production, qc = self.production, self.qc
        while True:
            changed = production.dispatch_pass()
            changed |= qc.pump()
            if not changed:
                break

    def discard_batch(self, batch: Batch, cause: str) -> None:
        if not batch.alive:
            return
        now = self.engine.clock.now
        batch.state = DISCARDED
        batch.discarded_at = now
        batch.discard_cause = cause
        self.production.remove_batch(batch)
        self.qc.void_batch(batch, now)

    def reset_wip(self) -> None:
        """Instant loss of all work-in-progress and in-lab QC samples.

        Batches resident in inventories survive; their unresolved tests are
        re-queued from fresh samples by the QA/QC side.
        """
        now = self.engine.clock.now
        for batch in self.production.wip_batches():
            self.discard_batch(batch, "power_outage")
        self.qc.reset_wip(now)

    def run(self) -> ReplicationResult:
        """Simulate the horizon; the config is left as it was found."""
        self.settle()  # t=0 dispatch
        self.engine.run()
        if self.scenario is None:
            return self.collect.result("base")
        result = self.collect.result(self.scenario.name)
        self.scenario.restore()
        return result

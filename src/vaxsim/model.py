"""Composition of one replication: production + QA/QC + materials + metrics.

A Model wires the domain runtimes onto one engine, which holds the clock,
builds the scenario runtime of its overlay, ticks a daily collector, and
hands back a ReplicationResult. Everything is deterministic in (config,
overlay, seed).

The collector keeps each daily reading once, in the result's own series:
every series is allocated for the whole horizon when the run starts. Released
doses are added to the current day as they happen; when each batch was
created, released or discarded is in the batch log. At each day tick the
collector takes the day's share of the busy and queue integrals, writes the
stage and pool utilization ratios and the queue lengths, and writes each
material's level and stockout flag. Closures and pool capacities change only
at whole days (they change only in the steps of the timeline below, and
``Production.closure_changed`` and ``Pool.set_capacity`` refuse any other
instant), so a stage is closed or open all day and a pool has one capacity
all day: the tick reads both from state, and a closed day adds the stage's
machines to its closed machine-days. An integral that is 0 and has accrued
nothing since its last take would read 0.0, which the zeroed series already
holds, so the tick does not take it.
``Collector.result`` hands over those same arrays, turns the batches into
the typed columns of a ``BatchLog``, and adds the run totals.

Time advances in the three phases of Pidd's method: pop the next event,
call the handler it was listed with (the B-phase), then ``settle`` (the
C-phase, which ``run`` hands to ``Engine.run``) starts every batch and task
whose preconditions now hold.
A stage or pool that wakes joins its side's wake list (``Production.woken``
or ``QaQc.woken``), and the C-phase visits only what is listed, so its work
follows what changed, not the size of the plant: with both lists empty a
settle is two emptiness checks. The stages are swept downstream-first, the
sweep repeated while a stage is listed, and then the listed pools once, in
``QaQc.pools`` order. A stage's visit drains what it can and starts batches
until a check fails, and the stage then sleeps on that block reason
(``StageRuntime.blocked``). The checks run closed, machine, input, material,
downstream, so only three kinds of change can alter the reason: the failed
check turning true, an earlier check turning false, or output space freeing
for stalled machines to drain. Each change around a stage is one
``StageRuntime.notify``, which wakes the stage only if the change can alter
the reason it sleeps on:

- ``no_machine``: a machine freed, space while a machine is stalled;
- ``no_input``: input arrived, space while a machine is stalled;
- ``material_stockout``: a receipt, a consumption by another stage, input
  lost, space while a machine is stalled;
- ``downstream_full``: space, a consumption, input lost;
- ``closed``: nothing short of waking everything.

Space helps a stage asleep on anything but ``downstream_full`` only by
letting its stalled machines drain, so with none stalled it wakes nothing.

The changes come from these moves:

- a push on an inventory is input arrived for the stage after it; a pop or a
  removal is space for the stage before it, and a removal is input lost for
  the stage after it;
- a machine that completes and hands its batch on, or loses it, is a machine
  freed at its stage. One that completes with no output inventory stalls,
  which is input arrived for the next stage, since that stage takes batches
  straight off it; losing a stalled batch there is input lost;
- an accepted receipt or a consumption of a material is told to every stage
  that uses it: a consumption can leave another one short, which must note
  the shortfall at once;
- every window step of the timeline, a maintenance window's included, wakes
  everything (an inventory capacity has no apply hook that could wake just
  its neighbours).

A stage's own moves during its visit are in the reason it ends on, so they
do not wake it again. A pool wakes on an enqueue while a head is free, on a
release with work still queued and on a capacity change. Day ticks, order
placements, purchase-order steps short of a receipt and task starts wake
nothing. A stage sweep can wake a pool (a batch entering the final inventory
is queued for review), but a pool sweep only starts tasks, so once it is
done nothing is awake and both lists are empty. A sleeping stage or pool
would start nothing and return the reason it sleeps on, so a settle starts
exactly what offering work to every stage and pool would start, in the same
downstream-first order; ``tests/test_settle.py`` checks after every settle
that nothing is awake or listed, nothing more can start, and every stage's
reason is still the one it sleeps on.

Day ticks and dated changes are not events. Once every event before day
``k`` is handled, ``Engine.run`` moves the clock to ``k`` and calls
``Model.tick(k)``: ``Collector.day_tick`` closes day ``k - 1``, then the
scenario timeline plays the steps of day ``k``, a settle after each. The
timeline (``scenario._timeline``) stacks the config's maintenance windows,
as ``stages.*.closed: true`` windows, and an overlay's steps, if any. So a
day's readings never absorb a change that belongs to the following day,
and a step has one place at its instant: after the tick, before every
event there. Day 0's steps play right after the first settle. The last
tick falls on the horizon, after every event before it. ``end_date`` is
the first day not simulated: no event at the horizon instant is handled
and no step on or after it is played, so a window that ends the day before
``end_date`` never reverts.

An event is listed with its handler, a bound method of the part that owns
it, named for the event's kind (``Production.proc_done``,
``QaQc.task_done``, ``Materials.po_place``, ``Materials.po_step``), and the
engine calls it directly. The scenario runtime holds the steps still to
play, so a replication's whole state is reachable from the model: a model
deep-copied between events runs on alone and finishes with the straight
run's bytes. At the horizon ``run`` drops the links that only the run
needed: the handlers and targets of the events still listed (a machine or
task that points back at its event), and each part's link back to the
model. The domain objects hold no back-references of their own: a batch
does not know where it sits (``Production`` finds it from the stages it
entered), a sample does not know its batch, an inventory not the stages on
its sides, and a purchase order holds only its material's id. A finished
model is then a tree, which reference counting frees as soon as the caller
lets it go. A cycle would keep the few thousand batches, samples and tasks
of a replication alive until the next full collection, and an ensemble's
peak memory would follow the collector's timing.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from math import nan as NAN

from .engine import Engine, RngRegistry
from .materials import Materials
from .production import BATCH_COLUMNS, CODES, DISCARDED, RELEASED, Batch, Production
from .qaqc import QaQc
from .scenario import ScenarioRuntime, ScenarioSpec


class BatchLog(dict):
    """A batch log: each ``BATCH_COLUMNS`` name maps to an ``array`` of its
    typecode, one value per batch, batch ``k`` at position ``k - 1``. An
    absent ``released_at`` or ``discarded_at`` is NaN, and a ``state`` or
    ``discard_cause`` value is a position in its ``CODES`` list.

    Two logs are equal when every column has the same typecode and bytes:
    by value, NaN would make a log with an unreleased batch unequal to
    itself, and -0.0 would equal 0.0.
    """

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, dict):
            return NotImplemented
        return self.keys() == other.keys() and all(
            type(theirs := other[name]) is array and theirs.typecode == ours.typecode
            and theirs.tobytes() == ours.tobytes() for name, ours in self.items())

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal


@dataclass
class ReplicationResult:
    """Everything one replication emits, in plain serializable data.

    Each daily series is an ``array`` of ``horizon_days`` values: a byte per
    day for the 0/1 ``material_stockout.*`` flags, a double per day for every
    other series. A boxed float per day would make a result about three
    times larger. A result loaded from a store holds them in a read-only
    mapping. The batch log is a ``BatchLog`` of typed columns, as the store
    holds it; ``CODES[name][code]`` is the name a coded value stands for.
    """

    scenario: str
    seed: int
    horizon_days: int
    start_date: str
    series: dict[str, array] = field(default_factory=dict)
    batches: BatchLog = field(default_factory=BatchLog)
    counts: dict[str, float] = field(default_factory=dict)


class Collector:
    """Daily series and batch log for one replication (see the module notes)."""

    def __init__(self, model):
        self.model = model
        self.horizon = int(model.engine.horizon_days)
        self.series: dict[str, array] = {}
        self._doses = self._new("released_doses")
        self._stages = [(s, self._new(f"stage_util.{s.id}"))
                        for s in model.production.stages]
        self._closed_days = [0] * len(self._stages)  # by stage index
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
        self._doses[int(self.model.engine.now)] += batch.doses

    def live_batches(self) -> list[Batch]:
        return [b for b in self.batches if b.alive]

    # -- end of day ------------------------------------------------------

    def day_tick(self, t: float) -> None:
        # each reading is ``StepIntegral.take(t)`` inline, skipped where it
        # would read 0.0 (see the module notes)
        d = int(t) - 1
        for stage, util in self._stages:
            shut = stage.cfg.closed  # all day: closures change only at whole days
            if shut:
                self._closed_days[stage.idx] += 1
            i = stage.busy
            if i.value or i.total != i.taken:
                total = i.total + i.value * (t - i.last_ts)
                busy, i.total, i.taken, i.last_ts = total - i.taken, total, total, t
                if not shut:
                    util[d] = busy / stage.cfg.machines
        for pool, util, queue in self._pools:
            i = pool.busy_int
            if i.value or i.total != i.taken:
                total = i.total + i.value * (t - i.last_ts)
                busy, i.total, i.taken, i.last_ts = total - i.taken, total, total, t
                if pool.capacity > 0:  # resized only at whole days
                    util[d] = busy / pool.capacity
            i = pool.queue_int
            if i.value or i.total != i.taken:
                total = i.total + i.value * (t - i.last_ts)
                queue[d], i.total, i.taken, i.last_ts = total - i.taken, total, total, t
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
        log = BatchLog()
        for name, code in BATCH_COLUMNS:
            values = [getattr(b, name) for b in self.batches]
            if name in CODES:
                values = [CODES[name].index(v) for v in values]
            elif code == "d":
                values = [NAN if v is None else v for v in values]
            log[name] = array(code, values)
        res = ReplicationResult(
            scenario=scenario,
            seed=model.seed,
            horizon_days=self.horizon,
            start_date=model.engine.start_date.isoformat(),
            series=self.series,
            batches=log,
        )

        c = res.counts
        states = log["state"]
        c["batches_created"] = len(states)
        c["batches_released"] = states.count(CODES["state"].index(RELEASED))
        c["batches_discarded"] = states.count(CODES["state"].index(DISCARDED))
        c["released_doses"] = sum(self._doses)
        c["retests"] = sum(log["retests"])
        c["investigations"] = sum(log["investigations"])
        for pool in model.qc.pools:
            c[f"pool_busy_days.{pool.name}"] = pool.busy_int.total
            c[f"pool_queue_days.{pool.name}"] = pool.queue_int.total
            c[f"pool_started.{pool.name}"] = pool.started
            c[f"pool_wait_days.{pool.name}"] = pool.wait_total
            c[f"pool_purged_wait_days.{pool.name}"] = pool.purged_wait
        for stage, days in zip(model.production.stages, self._closed_days):
            c[f"stage_closed_days.{stage.id}"] = float(days * stage.cfg.machines)
        for rt, _, flags in self._materials:
            c[f"material_stockout_days.{rt.id}"] = sum(flags)
            c[f"material_consumed.{rt.id}"] = rt.consumed_total
            c[f"material_received.{rt.id}"] = rt.received_total
        return res


class Model:
    """One deterministic replication of the whole supply chain."""

    def __init__(self, cfg, seed: int, spec: ScenarioSpec | None = None):
        """The run plays the config's maintenance windows and the overlay
        ``spec``'s steps, if one is given."""
        self.cfg = cfg
        self.seed = seed
        self.engine = Engine(cfg.model.start_date, cfg.model.end_date)
        self.rng = RngRegistry(seed)
        # test ids are fixed once parsed; overlays edit these objects in place
        self.tests = {t.id: t for t in cfg.qc.tests}
        self.materials = Materials(self)
        self.production = Production(self)
        self.qc = QaQc(self)
        self.collect = Collector(self)
        self.scenario = ScenarioRuntime(spec or ScenarioSpec("base"), self)

    def wake_all(self) -> None:
        for item in (*self.production.stages, *self.qc.pools):
            item.wake()

    def settle(self) -> None:
        """C-phase: start everything that can start at this instant.

        Offers work to the woken stages until none is woken, then to the
        woken pools once: a task start wakes nothing, so no second round
        could start anything. With nothing woken it does no more than look
        at the two wake lists.
        """
        if self.production.woken:
            self.production.dispatch_pass()
        if self.qc.woken:
            self.qc.pump()

    def discard_batch(self, batch: Batch, cause: str) -> None:
        if not batch.alive:
            return
        now = self.engine.now
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
        now = self.engine.now
        for batch in self.production.wip_batches():
            self.discard_batch(batch, "power_outage")
        self.qc.reset_wip(now)

    def tick(self, day: float) -> None:
        """Close the day before ``day``, then play the steps of ``day``."""
        self.collect.day_tick(day)
        self.scenario.play(day)

    def run(self) -> ReplicationResult:
        """Simulate the horizon; the config is left as it was found, and the
        links only the run needed are dropped (see the module notes)."""
        scenario = self.scenario
        self.settle()  # t=0 dispatch
        scenario.play(0.0)
        self.engine.run(self.tick, self.settle)
        result = self.collect.result(scenario.name)
        scenario.restore()
        self.engine.close()
        for part in (self.materials, self.production, self.qc, self.collect, scenario):
            part.model = None
        return result

"""Push-based batch flow through the process chain.

A stage starts a batch the moment it is open and an idle machine, an input
batch, all raw materials and downstream space line up (checked in that order,
so the first failing precondition is the block reason the stage sleeps on).
Finished batches that find their output inventory full stay on the machine
(blocking-after-service) until space frees. Stages with no output inventory
hand batches directly to the next stage: the machine stalls until the
downstream stage pulls the batch into one of its own machines.

A stage is closed while its ``closed`` flag is set: a maintenance window sets
it on every stage, an overlay window on the stages it names (both are steps of
the scenario timeline). Closure suspends in-flight processing and resumes it
with the remaining time when the stage reopens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import Event, StepIntegral

IDLE = "idle"
BUSY = "busy"
STALLED = "stalled"     # holds a finished batch, waiting for downstream space
SUSPENDED = "suspended"  # processing interrupted by closure, remaining time kept

IN_PROCESS = "in_process"
AWAITING_RELEASE = "awaiting_release"
RELEASED = "released"
DISCARDED = "discarded"

# the batch log's columns with their array typecodes (a double, a 64-bit int
# or a byte), and the names that the values of its coded columns stand for,
# by position: as a ReplicationResult and the store hold them
BATCH_COLUMNS = [["created_at", "d"], ["doses", "q"], ["state", "b"],
                 ["released_at", "d"], ["discarded_at", "d"], ["discard_cause", "b"],
                 ["retests", "q"], ["investigations", "q"]]
CODES = {"state": [IN_PROCESS, AWAITING_RELEASE, RELEASED, DISCARDED],
         "discard_cause": [None, "failed_retest", "power_outage"]}

ALIVE = (IN_PROCESS, AWAITING_RELEASE)

# the changes ``StageRuntime.notify`` is told of, and for each block reason
# those that can alter it (the rules are set out in the module notes of
# ``model``); a stage not yet visited is woken by anything. Space also wakes a
# ``no_machine``, ``no_input`` or ``material_stockout`` stage while one of its
# machines is stalled (``notify``).
CHANGES = frozenset({"machine", "input", "input_lost", "receipt", "consumption", "space"})
WAKES = {
    None: CHANGES,
    "closed": frozenset(),
    "no_machine": frozenset({"machine"}),
    "no_input": frozenset({"input"}),
    "material_stockout": frozenset({"receipt", "consumption", "input_lost"}),
    "downstream_full": frozenset({"space", "consumption", "input_lost"}),
}


@dataclass(slots=True, eq=False)  # identity semantics, as for a Task
class Batch:
    id: int
    created_at: float
    quantity: float = 1.0
    doses: int = 0
    state: str = IN_PROCESS
    released_at: float | None = None
    discarded_at: float | None = None
    discard_cause: str | None = None
    stages_entered: int = 0  # it sits at stage stages_entered - 1: on a machine or after it
    # release-gate state, maintained by the QA/QC module
    samples: list = field(default_factory=list)
    holds: int = 0  # unresolved tests, investigations and reviews; released at 0
    retests: int = 0
    investigations: int = 0

    @property
    def alive(self) -> bool:
        return self.state in ALIVE


@dataclass(slots=True)
class Machine:
    stage_idx: int
    idx: int
    state: str = IDLE
    batch: Batch | None = None
    finish_time: float | None = None
    remaining: float | None = None
    proc_event: Event | None = None

    def free(self) -> None:
        """The machine lets go of its batch and goes idle."""
        self.state = IDLE
        self.batch = None
        self.finish_time = None
        self.remaining = None


class InventoryRuntime:
    """A FIFO buffer after one stage. It holds no link to the stages on its
    sides: ``Production`` notifies the consumer of a push and the producer of
    a pop or removal."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.contents: list[Batch] = []  # FIFO

    def has_space(self) -> bool:
        return self.cfg.capacity is None or len(self.contents) < self.cfg.capacity


class StageRuntime:
    def __init__(self, cfg, idx: int, woken: list):
        self.cfg = cfg
        self.idx = idx
        self.machines = [Machine(idx, i) for i in range(cfg.machines)]
        self.input_inv: InventoryRuntime | None = None
        self.output_inv: InventoryRuntime | None = None
        self.handoff: StageRuntime | None = None  # takes batches off our machines
        # may be able to start or drain: then listed in ``woken``, which
        # dispatch_pass empties
        self.awake = True
        self.woken = woken
        woken.append(self)
        self.blocked: str | None = None  # the reason its last visit ended on
        self.busy = StepIntegral()

    @property
    def id(self) -> str:
        return self.cfg.id

    def wake(self) -> None:
        if not self.awake:
            self.awake = True
            self.woken.append(self)

    def notify(self, change: str) -> None:
        """``change`` (a name in ``CHANGES``) happened around this stage: wake
        it if that can alter the reason its last visit ended on. Space helps
        a stage asleep on anything but ``downstream_full`` only by letting
        its stalled machines drain."""
        if self.awake:
            return
        if change in WAKES[self.blocked] or (
                change == "space" and self.blocked != "closed"
                and any(m.state == STALLED for m in self.machines)):
            self.wake()

    def stalled_machines(self) -> list[Machine]:
        """The stalled machines, the earliest finished first."""
        out = [m for m in self.machines if m.state == STALLED]
        if len(out) > 1:
            out.sort(key=lambda m: (m.finish_time, m.idx))
        return out


class Production:
    """Runtime for the whole stage chain; owned by a Model."""

    def __init__(self, model):
        self.model = model
        self.engine = model.engine
        self.rng, self.tests, self.materials = model.rng, model.tests, model.materials
        cfg = model.cfg
        invs = {inv.id: InventoryRuntime(inv) for inv in cfg.inventories}
        self.inventories = invs
        self.woken: list[StageRuntime] = []  # the awake stages, in waking order
        self.stages = [StageRuntime(s, i, self.woken) for i, s in enumerate(cfg.stages)]
        self.stage_by_id = {rt.id: rt for rt in self.stages}
        for rt, nxt in zip(self.stages, [*self.stages[1:], None]):
            if rt.cfg.output_inventory:
                rt.output_inv = invs[rt.cfg.output_inventory]
                if nxt:
                    nxt.input_inv = rt.output_inv
            else:
                rt.handoff = nxt
            for mid in rt.cfg.materials:
                model.materials.runtimes[mid].consumers.append(rt)
        self.final_inv = self.stages[-1].output_inv
        self._next_batch_id = 1

    # -- closure ---------------------------------------------------------

    def closure_changed(self, stage_cfg) -> None:
        """Scenario hook: a stage's ``closed`` flag was written. Suspend or
        resume the stage's processing as the flag now says. Closures change
        only at whole days, so a day is closed or open throughout and the
        day tick reads the flag."""
        stage = self.stage_by_id[stage_cfg.id]
        now = self.engine.now
        if not float(now).is_integer():
            raise ValueError(f"stage {stage.id} closure changed at t={now}, "
                             "not at a whole day")
        if stage.cfg.closed:
            for m in stage.machines:
                if m.state == BUSY:
                    if m.finish_time <= now:
                        # done at this very instant: let the pending completion
                        # event fire rather than holding the batch through the
                        # closure
                        continue
                    m.remaining = m.finish_time - now
                    m.proc_event.void = True
                    m.proc_event = None
                    m.state = SUSPENDED
                    stage.busy.add(now, -1)
        else:
            for m in stage.machines:
                if m.state == SUSPENDED:
                    m.state = BUSY
                    m.finish_time = now + m.remaining
                    m.remaining = None
                    m.proc_event = self.engine.schedule(m.finish_time, self.proc_done, m)
                    stage.busy.add(now, 1)

    # -- dispatch --------------------------------------------------------

    def dispatch_pass(self) -> bool:
        """The stages' share of the C-phase: drain, then start what can start.

        Visits only the woken stages, downstream-first so that freed space
        propagates upstream within one sweep, and sweeps again while a stage
        is woken (a visit wakes only the stages around it): each visit goes
        to the woken stage furthest downstream of those upstream of the last
        one visited. A visit runs until the stage is blocked and keeps the
        reason: the stage sleeps until a change that can alter that reason
        wakes it (the rules are listed in ``model``); a sleeping stage would
        have drained and started nothing and returned the same reason. True
        if anything moved.
        """
        drain, try_dispatch = self._drain_stalled, self.try_dispatch
        woken = self.woken
        moved = False
        while woken:
            below = len(self.stages)  # a new sweep starts downstream
            while True:
                stage = None
                for s in woken:
                    if s.idx < below and (stage is None or s.idx > stage.idx):
                        stage = s
                if stage is None:
                    break
                # it stays awake through its visit: its own moves are in the
                # reason it ends on, so they do not wake it again
                woken.remove(stage)
                if drain(stage):
                    moved = True
                while (reason := try_dispatch(stage)) is None:
                    moved = True
                stage.blocked = reason
                stage.awake = False
                below = stage.idx
        return moved

    def _drain_stalled(self, stage: StageRuntime) -> bool:
        if stage.output_inv is None or stage.cfg.closed:
            return False
        moved = False
        for m in stage.stalled_machines():
            if not stage.output_inv.has_space():
                break
            self._place_output(stage, m.batch)
            m.free()
            moved = True
        return moved

    def try_dispatch(self, stage: StageRuntime) -> str | None:
        """Start one batch if every precondition holds; else the block reason."""
        if stage.cfg.closed:
            return "closed"
        for machine in stage.machines:
            if machine.state == IDLE:
                break
        else:
            return "no_machine"

        donor: Machine | None = None
        if stage.idx == 0:
            pass  # unbounded batch source
        elif stage.input_inv is not None:
            if not stage.input_inv.contents:
                return "no_input"
        else:
            upstream = self.stages[stage.idx - 1]
            if not upstream.cfg.closed:
                stalled = upstream.stalled_machines()
                donor = stalled[0] if stalled else None
            if donor is None:
                return "no_input"

        materials = self.materials
        missing = materials.missing_for(stage.cfg.materials)
        if missing:
            for mid in missing:
                materials.note_shortfall(mid)
            return "material_stockout"

        if stage.output_inv is not None and not stage.output_inv.has_space():
            return "downstream_full"

        now = self.engine.now
        if stage.idx == 0:
            batch = Batch(self._next_batch_id, now)
            self._next_batch_id += 1
            self.model.collect.record_created(batch)
        elif donor is not None:
            batch = donor.batch
            donor.free()
            upstream.notify("machine")
        else:
            batch = stage.input_inv.contents.pop(0)
            self.stages[stage.idx - 1].notify("space")
        materials.consume(stage.cfg.materials)

        batch.stages_entered += 1
        machine.state = BUSY
        machine.batch = batch
        machine.finish_time = now + self._processing_duration(stage, batch)
        machine.proc_event = self.engine.schedule(machine.finish_time, self.proc_done,
                                                  machine)
        stage.busy.add(now, 1)
        return None

    def _processing_duration(self, stage: StageRuntime, batch: Batch) -> float:
        tests, rng = self.tests, self.rng
        duration = stage.cfg.processing_time.sample(
            rng.derived("proc", stage.cfg.id, batch.id))
        # in-process controls run inside the machine occupancy, by production staff
        for tid in stage.cfg.ipc_tests:
            duration += tests[tid].bench_time(
                rng.derived("ipcdur", tid, stage.cfg.id, batch.id, 1))
        return duration

    # -- completion ------------------------------------------------------

    def proc_done(self, ev: Event) -> None:
        machine: Machine = ev.target
        stage = self.stages[machine.stage_idx]
        batch = machine.batch
        now = self.engine.now
        machine.proc_event = None
        stage.busy.add(now, -1)

        yf = stage.cfg.yield_fraction
        # a constant draws nothing, so its substream is not even keyed
        batch.quantity *= (yf.params[0] if yf.kind == "constant" else
                           yf.sample(self.rng.derived("yield", stage.cfg.id, batch.id)))
        if stage.cfg.doses_per_batch:
            batch.doses = int(round(stage.cfg.doses_per_batch * batch.quantity))

        self.model.qc.on_stage_complete(batch, stage)  # only enqueues work
        if stage.output_inv is not None and stage.output_inv.has_space():
            machine.free()
            stage.notify("machine")
            self._place_output(stage, batch)
        else:
            machine.state = STALLED  # downstream pulls it, or space frees
            if stage.handoff is not None:
                stage.handoff.notify("input")

    def _place_output(self, stage: StageRuntime, batch: Batch) -> None:
        inv = stage.output_inv
        inv.contents.append(batch)
        if inv is self.final_inv:
            batch.state = AWAITING_RELEASE
            self.model.qc.on_enter_final(batch)
        else:
            self.stages[stage.idx + 1].notify("input")

    # -- hard resets -----------------------------------------------------

    def remove_batch(self, batch: Batch) -> None:
        """Physically remove a discarded or released batch: from a machine of
        the last stage it entered, else from that stage's output inventory."""
        stage = self.stages[batch.stages_entered - 1]
        if batch.state != RELEASED:  # released stock sits in the final inventory
            for m in stage.machines:
                if m.batch is batch:
                    if m.proc_event is not None:
                        m.proc_event.void = True
                        m.proc_event = None
                    if m.state == BUSY:
                        stage.busy.add(self.engine.now, -1)
                    elif m.state == STALLED and stage.handoff is not None:
                        stage.handoff.notify("input_lost")
                    m.free()
                    stage.notify("machine")
                    return
        stage.output_inv.contents.remove(batch)  # raises if the batch is not there
        stage.notify("space")
        if stage.output_inv is not self.final_inv:
            self.stages[stage.idx + 1].notify("input_lost")

    def wip_batches(self) -> list[Batch]:
        out = []
        for stage in self.stages:
            for m in stage.machines:
                if m.batch is not None:
                    out.append(m.batch)
        return out

"""Quality control testing and quality assurance review gating batch release.

Work items queue on finite personnel pools. A sample test runs as a chain:
technician (prep + test + check), then a supervisor check, then the pass/fail
outcome. A failure opens an out-of-specification investigation (investigator
pool) followed by exactly one retest; a second failure discards the batch.
Deviations drawn at stage completion open their own investigations. QA
reviewers handle per-stage document reviews and the final release review.

Queue priority, evaluated at insertion: samples tied to an emptier release
inventory first, then the batch closest to final completion, then
first-in-first-out. Tasks are never preempted: a cut (``Capacity.resize``)
lets running work finish and shrinks the pool as tasks complete.

Zero-duration convention: an activity whose duration is Constant(0) does not
exist (no task, no queueing) — configs omit reviews or checks by leaving the
duration at 0.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .engine import Capacity, Event, StepIntegral
from .production import ALIVE, AWAITING_RELEASE, RELEASED, Batch, StageRuntime

BLOCKED = "blocked"   # waiting on prerequisite tests
ACTIVE = "active"     # somewhere in the technician/supervisor/OOS pipeline
PASSED = "passed"


@dataclass(slots=True)
class Sample:  # one per batch and stage, in the batch's ``samples``
    stage_id: str
    tests: dict[str, str] = field(default_factory=dict)

    def prereqs_met(self, test_cfg) -> bool:
        prereqs = test_cfg.prerequisites
        return not prereqs or all(self.tests.get(p) == PASSED for p in prereqs)


@dataclass(slots=True, eq=False)  # identity semantics: tasks key dicts and sit in heaps
class Task:
    kind: str           # tech, sup, ipc_retest or a key of QA_DURATIONS
    batch: Batch
    test_id: str | None = None
    stage_id: str | None = None
    attempt: int = 1
    sample: Sample | None = None
    carry: float = 0.0  # supervisor-check duration drawn with the technician draws
    enqueued_at: float = 0.0
    event: Event | None = None
    pool: "Pool | None" = None


class Pool:
    """Finite personnel pool with a priority queue of waiting tasks.

    ``woken`` is the list the pool joins when it wakes: ``QaQc.woken`` for
    the pools of a model, a list of its own for a pool made alone.
    """

    def __init__(self, name: str, capacity: int, woken: list | None = None):
        self.name = name
        self.busy = Capacity(capacity)
        self._heap: list[tuple[tuple, int, Task]] = []
        self._seq = 0
        self.queue_int = StepIntegral(0)
        self.started = 0
        self.wait_total = 0.0  # enqueue -> start
        self.purged_wait = 0.0  # enqueue -> purge, of the tasks a purge drops
        # may start a task: an enqueue with a head free, a release with work
        # queued and a timeline step wake it (a purge only shrinks the queue),
        # QaQc.pump puts it to sleep
        self.awake = True
        self.woken = [] if woken is None else woken
        self.woken.append(self)

    def wake(self) -> None:
        if not self.awake:
            self.awake = True
            self.woken.append(self)

    def enqueue(self, task: Task, key: tuple, now: float) -> None:
        task.enqueued_at = now
        heapq.heappush(self._heap, (key, self._seq, task))
        self._seq += 1
        self.queue_int.add(now, 1)
        if self.busy.value < self.busy.units:
            self.wake()

    def pump(self, now: float, starter) -> bool:
        """Start queued tasks while heads are free; ``starter`` runs each one."""
        changed = False
        busy, queue_add = self.busy, self.queue_int.add
        while busy.value < busy.units and self._heap:
            _, _, task = heapq.heappop(self._heap)
            queue_add(now, -1)
            busy.add(now, 1)
            self.started += 1
            self.wait_total += now - task.enqueued_at
            task.pool = self
            starter(task, now)
            changed = True
        return changed

    def release(self, now: float) -> None:
        self.busy.add(now, -1)
        if self._heap:
            self.wake()

    def purge(self, predicate, now: float) -> None:
        """Drop the queued tasks matching ``predicate``, adding their waits
        so far to ``purged_wait``."""
        kept, dropped = [], []
        for entry in self._heap:
            (dropped if predicate(entry[2]) else kept).append(entry)
        if dropped:
            self._heap = kept
            heapq.heapify(self._heap)
            self.queue_int.add(now, -len(dropped))
            self.purged_wait += sum(now - task.enqueued_at for _, _, task in dropped)


# QA task kind -> (its duration field in the qa section, the task's substream
# label: a head and the ids, the arguments of ``RngRegistry.derived``)
QA_DURATIONS = {
    "oos": ("oos_investigation_time",
            lambda t: (("oosdur", t.test_id), t.batch.id, t.attempt)),
    "ipc_oos": ("oos_investigation_time",
                lambda t: (("ipcoosdur", t.test_id, t.stage_id), t.batch.id)),
    "dev": ("deviation_investigation_time", lambda t: (("devdur", t.stage_id), t.batch.id)),
    "docrev": ("document_review_time", lambda t: (("docrevdur", t.stage_id), t.batch.id)),
    "relrev": ("release_review_time", lambda t: (("relrevdur",), t.batch.id)),
    "relapp": ("release_approval_time", lambda t: (("relappdur",), t.batch.id)),
}


class QaQc:
    """Runtime for all QC teams and QA pools; owned by a Model."""

    def __init__(self, model):
        self.model = model
        self.engine = model.engine
        self.rng, self.tests, self.cfg = model.rng, model.tests, model.cfg
        self.production = model.production
        self.final_inv = model.production.final_inv
        cfg = model.cfg
        self.woken: list[Pool] = []  # the awake pools, in waking order
        woken = self.woken
        self.tech_pools = {t.id: Pool(f"qc_technicians.{t.id}", t.technicians, woken)
                           for t in cfg.qc.teams}
        self.sup_pools = {t.id: Pool(f"qc_supervisors.{t.id}", t.supervisors, woken)
                          for t in cfg.qc.teams}
        self.reviewers = Pool("qa_reviewers", cfg.qa.reviewers, woken)
        self.qa_sups = Pool("qa_supervisors", cfg.qa.supervisors, woken)
        self.investigators = Pool("qa_investigators", cfg.qa.investigators, woken)
        self.pools = [*self.tech_pools.values(), *self.sup_pools.values(),
                      self.reviewers, self.qa_sups, self.investigators]
        # insertion-ordered, so a reset releases in start order whatever the
        # addresses the tasks hash by
        self.running: dict[Task, None] = {}

    # -- intake from production -----------------------------------------

    def on_stage_complete(self, batch: Batch, stage: StageRuntime) -> None:
        cfg = self.cfg
        now = self.engine.now
        for tid in stage.cfg.ipc_tests:
            test = self.tests[tid]
            if test.failure_prob <= 0.0:
                continue
            failed = (self.rng.derived(("ipcfail", tid, stage.cfg.id), batch.id, 1)
                      .random() < test.failure_prob)
            if failed:
                batch.holds += 1
                batch.investigations += 1
                self.investigators.enqueue(
                    Task("ipc_oos", batch, test_id=tid, stage_id=stage.cfg.id),
                    (now, 0), now)
        if cfg.qa.deviation_prob > 0.0:
            hit = (self.rng.derived(("devflag", stage.cfg.id), batch.id)
                   .random() < cfg.qa.deviation_prob)
            if hit:
                batch.holds += 1
                batch.investigations += 1
                self.investigators.enqueue(Task("dev", batch, stage_id=stage.cfg.id),
                                           (now, 0), now)
        if stage.cfg.qc_tests:
            self._spawn_sample(batch, stage, now)
        if stage.cfg.document_review and not cfg.qa.document_review_time.is_zero():
            batch.holds += 1
            self.reviewers.enqueue(Task("docrev", batch, stage_id=stage.cfg.id),
                                   self._priority_key(batch, now), now)

    def _spawn_sample(self, batch: Batch, stage: StageRuntime, now: float) -> None:
        sample = Sample(stage.cfg.id)
        batch.samples.append(sample)
        for tid in stage.cfg.qc_tests:
            sample.tests[tid] = BLOCKED
        batch.holds += len(sample.tests)
        for tid in stage.cfg.qc_tests:
            if sample.prereqs_met(self.tests[tid]):
                self._enqueue_test(batch, sample, tid, attempt=1, now=now)

    def on_enter_final(self, batch: Batch) -> None:
        now = self.engine.now
        if not self.cfg.qa.release_review_time.is_zero():
            batch.holds += 1
            self.reviewers.enqueue(Task("relrev", batch),
                                   self._priority_key(batch, now), now)
        self.check_release(batch)

    # -- queueing --------------------------------------------------------

    def _priority_key(self, batch: Batch, now: float) -> tuple:
        """(release-inventory backlog, how far from completion, FIFO)."""
        backlog = len(self.final_inv.contents)
        return (backlog, -batch.stages_entered, now)

    def _enqueue_test(self, batch: Batch, sample: Sample, tid: str, attempt: int,
                      now: float) -> None:
        sample.tests[tid] = ACTIVE
        test = self.tests[tid]
        task = Task("tech", batch, test_id=tid, stage_id=sample.stage_id,
                    attempt=attempt, sample=sample)
        self.tech_pools[test.team].enqueue(task, self._priority_key(batch, now), now)

    def pump(self) -> bool:
        """The pools' share of the C-phase: pump the woken pools in ``pools``
        order. A task start wakes no pool, so one pass empties ``woken``."""
        woken = self.woken
        if len(woken) > 1:
            woken.sort(key=self.pools.index)
        now = self.engine.now
        changed = False
        for pool in woken:
            pool.awake = False
            changed |= pool.pump(now, self._start_task)
        woken.clear()
        return changed

    # -- task lifecycle --------------------------------------------------

    def _start_task(self, task: Task, now: float) -> None:
        rng = self.rng
        if task.kind == "tech":
            g = rng.derived(("testdur", task.test_id), task.batch.id, task.attempt)
            test = self.tests[task.test_id]
            duration = test.bench_time(g)
            task.carry = test.supervisory_check_time.sample(g)
        elif task.kind == "sup":
            duration = task.carry
        else:
            name, label = QA_DURATIONS[task.kind]
            duration = getattr(self.cfg.qa, name).sample(rng.derived(*label(task)))
        task.event = self.engine.schedule(now + duration, self.task_done, task)
        self.running[task] = None

    def task_done(self, ev: Event) -> None:
        task: Task = ev.target
        now = self.engine.now
        del self.running[task]
        if task.pool is not None:  # an in-process retest seizes no one
            task.pool.release(now)
        task.event = None
        if task.batch.state not in ALIVE:
            return  # work on a discarded batch finishes harmlessly
        self._done[task.kind](self, task, now)

    def _done_tech(self, task: Task, now: float) -> None:
        test = self.tests[task.test_id]
        if test.supervisory_check_time.is_zero():
            self._resolve_test(task, now)
        else:
            sup = Task("sup", task.batch, test_id=task.test_id,
                       stage_id=task.stage_id, attempt=task.attempt,
                       sample=task.sample, carry=task.carry)
            self.sup_pools[test.team].enqueue(sup, self._priority_key(task.batch, now), now)

    def _resolve_test(self, task: Task, now: float) -> None:
        test = self.tests[task.test_id]
        failed = False
        if test.failure_prob > 0.0:
            failed = (self.rng.derived(
                ("testfail", task.test_id), task.batch.id, task.attempt)
                .random() < test.failure_prob)
        batch = task.batch
        if not failed:
            task.sample.tests[task.test_id] = PASSED
            self._unblock_dependents(batch, task.sample, now)
            self._lift_hold(batch)
        elif task.attempt == 1:
            batch.investigations += 1
            self.investigators.enqueue(Task("oos", batch, test_id=task.test_id,
                                            stage_id=task.stage_id, attempt=1,
                                            sample=task.sample),
                                       (now, 0), now)
        else:
            self.model.discard_batch(batch, "failed_retest")

    def _unblock_dependents(self, batch: Batch, sample: Sample, now: float) -> None:
        for tid, state in sample.tests.items():
            if state == BLOCKED and sample.prereqs_met(self.tests[tid]):
                self._enqueue_test(batch, sample, tid, attempt=1, now=now)

    def _done_oos(self, task: Task, now: float) -> None:
        task.batch.retests += 1
        self._enqueue_test(task.batch, task.sample, task.test_id, attempt=2, now=now)

    def _done_ipc_oos(self, task: Task, now: float) -> None:
        # retest by production staff: a delay with no personnel seized
        task.batch.retests += 1
        duration = self.tests[task.test_id].bench_time(self.rng.derived(
            ("ipcdur", task.test_id, task.stage_id), task.batch.id, 2))
        retest = Task("ipc_retest", task.batch, test_id=task.test_id,
                      stage_id=task.stage_id, attempt=2)
        retest.event = self.engine.schedule(now + duration, self.task_done, retest)
        self.running[retest] = None

    def _done_ipc_retest(self, task: Task, now: float) -> None:
        test = self.tests[task.test_id]
        failed = (self.rng.derived(
            ("ipcfail", task.test_id, task.stage_id), task.batch.id, 2)
            .random() < test.failure_prob)
        if failed:
            self.model.discard_batch(task.batch, "failed_retest")
        else:
            self._lift_hold(task.batch)

    def _done_relrev(self, task: Task, now: float) -> None:
        if self.cfg.qa.release_approval_time.is_zero():
            self._lift_hold(task.batch)
        else:
            self.qa_sups.enqueue(Task("relapp", task.batch),
                                 self._priority_key(task.batch, now), now)

    def _done_paperwork(self, task: Task, now: float) -> None:
        self._lift_hold(task.batch)

    # task kind -> what its completion does, as plain functions: a table of
    # bound methods on the instance would make every QaQc a reference cycle
    _done = {"tech": _done_tech,
             "sup": _resolve_test,  # a supervisor check ends in the test's outcome
             "oos": _done_oos, "ipc_oos": _done_ipc_oos, "ipc_retest": _done_ipc_retest,
             "relrev": _done_relrev, "dev": _done_paperwork, "docrev": _done_paperwork,
             "relapp": _done_paperwork}

    # -- release gate ----------------------------------------------------

    def _lift_hold(self, batch: Batch) -> None:
        """A test passed, or an investigation or review closed."""
        batch.holds -= 1
        self.check_release(batch)

    def check_release(self, batch: Batch) -> None:
        if batch.state != AWAITING_RELEASE or batch.holds:
            return
        batch.state = RELEASED
        batch.released_at = self.engine.now
        self.production.remove_batch(batch)  # released stock leaves the final inventory
        self.model.collect.record_release(batch)

    # -- discards and hard resets ---------------------------------------

    def void_batch(self, batch: Batch, now: float) -> None:
        """Queued work for a discarded batch disappears; running work finishes
        harmlessly (the no-op branch of the completion handler)."""
        for pool in self.pools:
            pool.purge(lambda t: t.batch is batch, now)

    def reset_wip(self, now: float) -> None:
        """Power-outage semantics: every in-progress QC sample is destroyed.

        Queued and running technician/supervisor work and open OOS
        investigations are aborted with personnel freed; unresolved tests of
        surviving batches are re-queued from scratch (passed results stand,
        since their records survive). Document/release reviews and deviation
        investigations are paperwork and continue unaffected.
        """
        sample_kinds = {"tech", "sup", "oos"}
        for pool in self.pools:
            pool.purge(lambda t: t.kind in sample_kinds, now)
        for task in [t for t in self.running if t.kind in sample_kinds]:
            task.event.void = True
            task.event = None
            task.pool.release(now)
            del self.running[task]
        for batch in self.model.collect.live_batches():
            for sample in batch.samples:
                for tid, state in sample.tests.items():
                    if state == ACTIVE:
                        sample.tests[tid] = BLOCKED
            for sample in batch.samples:
                self._unblock_dependents(batch, sample, now)

"""Testing and release flow: queueing, priority, failures, investigations."""

import pytest
from hypothesis import given, strategies as st

from vaxsim.config import parse_config
from vaxsim.model import Model
from vaxsim.production import Batch
from vaxsim.qaqc import Pool, Task

from conftest import batch_rows, chain_dict


def qc_chain(tests, technicians=1, supervisors=1, qa=None, ipc_on=None):
    """Chain config with a one-team lab attached to the fill stage; the tests
    without a team are in-process controls on stage ``ipc_on``."""
    d = chain_dict()
    d["qc"] = {
        "teams": [{"id": "lab", "technicians": technicians,
                   "supervisors": supervisors}],
        "tests": tests,
    }
    d["stages"][2]["qc_tests"] = [
        t["id"] for t in tests if "team" in t]
    if ipc_on is not None:
        stage = next(s for s in d["stages"] if s["id"] == ipc_on)
        stage["ipc_tests"] = [t["id"] for t in tests if "team" not in t]
    if qa:
        d["qa"] = qa
    return d


def release_times(res, n=None):
    ts = sorted(b["released_at"] for b in batch_rows(res) if b["state"] == "released")
    return ts if n is None else ts[:n]


def run(d, seed=1):
    return Model(parse_config(d), seed).run()


# -- queue discipline (pool unit level) ---------------------------------

def drain_order(pool):
    order = []
    def starter(task, now):
        order.append(task)
    while pool.queue_int.value or pool.busy.value:
        if not pool.pump(99.0, starter):
            break
        pool.release(99.0)
    return order


def _task(tag):
    b = Batch(id=tag, created_at=0.0)
    return Task("tech", b)


def test_a_release_wakes_the_pool_only_with_work_queued():
    # a release with nothing queued leaves nothing to start: the pool sleeps
    pool = Pool("p", 1)
    for tag in (1, 2):
        pool.enqueue(_task(tag), (0, 0, float(tag)), 0.0)
    for now, queued in ((1.0, True), (2.0, False)):
        pool.pump(now - 1.0, lambda task, now: None)
        pool.awake = False  # as QaQc.pump leaves it
        pool.release(now)
        assert pool.awake is queued


def test_a_purge_counts_the_waits_of_the_tasks_it_drops():
    pool = Pool("p", 0)
    tasks = [_task(tag) for tag in (1, 2, 3)]
    for at, task in enumerate(tasks):
        pool.enqueue(task, (0, 0, float(at)), float(at))
    pool.purge(lambda task: task is not tasks[1], 5.0)
    assert pool.purged_wait == (5.0 - 0.0) + (5.0 - 2.0)
    assert pool.queue_int.value == 1


def test_lower_release_backlog_served_first():
    pool = Pool("p", 1)
    a, b = _task(1), _task(2)
    pool.enqueue(a, (5, -3, 1.0), 1.0)   # 5 batches parked at release
    pool.enqueue(b, (2, -3, 2.0), 2.0)   # only 2 parked: more urgent
    assert drain_order(pool) == [b, a]


def test_backlog_tie_broken_by_progress():
    pool = Pool("p", 1)
    a, b = _task(1), _task(2)
    pool.enqueue(b, (4, -3, 0.5), 0.5)   # stage 3, arrived earlier
    pool.enqueue(a, (4, -7, 1.0), 1.0)   # stage 7: closer to done
    assert drain_order(pool) == [a, b]


def test_full_tie_is_fifo():
    pool = Pool("p", 1)
    tasks = [_task(i) for i in range(5)]
    for t in tasks:
        pool.enqueue(t, (4, -3, 1.0), 1.0)
    assert drain_order(pool) == tasks


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(-9, 0),
                          st.floats(0, 100, allow_nan=False)), max_size=30))
def test_priority_is_a_strict_weak_order(keys):
    pool = Pool("p", 1)
    tasks = [(_task(i), k) for i, k in enumerate(keys)]
    for t, k in tasks:
        pool.enqueue(t, k, 0.0)
    got = drain_order(pool)
    # lexicographic key order, insertion order breaking exact ties
    want = sorted(tasks, key=lambda p: (p[1], tasks.index(p)))
    assert got == [t for t, _ in want]


# -- test execution and release gating ----------------------------------

def test_single_test_gates_release():
    d = qc_chain([{"id": "assay", "team": "lab", "prep_time": 0.25,
                   "test_time": 0.5, "check_time": 0.25}])
    res = run(d)
    assert release_times(res, 3) == [7.0, 10.0, 13.0]


def test_slow_lab_becomes_the_pacemaker():
    # 4-day test against 3-day batch arrivals: the lone technician paces output
    d = qc_chain([{"id": "assay", "team": "lab", "prep_time": 1.0,
                   "test_time": 2.0, "check_time": 1.0}])
    res = run(d)
    ts = release_times(res)
    assert ts[0] == 10.0
    assert all(b - a == 4.0 for a, b in zip(ts[5:], ts[6:]))
    util = res.series["pool_util.qc_technicians.lab"]
    assert sum(util[20:]) / len(util[20:]) > 0.98
    assert res.counts["pool_wait_days.qc_technicians.lab"] > 0.0


def test_supervisory_check_runs_after_technician_phases():
    d = qc_chain([{"id": "assay", "team": "lab", "prep_time": 0.25,
                   "test_time": 0.5, "check_time": 0.25,
                   "supervisory_check_time": 0.5}])
    res = run(d)
    assert release_times(res, 2) == [7.5, 10.5]
    assert res.counts["pool_busy_days.qc_supervisors.lab"] > 0.0


def test_prerequisite_defers_dependent_test():
    # two technicians idle: without the prerequisite both tests would overlap
    d = qc_chain([
        {"id": "identity", "team": "lab", "test_time": 1.0},
        {"id": "potency", "team": "lab", "test_time": 1.0,
         "prerequisites": ["identity"]},
    ], technicians=2)
    res = run(d)
    assert release_times(res, 1) == [8.0]


def test_parallel_tests_overlap_without_prerequisite():
    d = qc_chain([
        {"id": "identity", "team": "lab", "test_time": 1.0},
        {"id": "potency", "team": "lab", "test_time": 1.0},
    ], technicians=2)
    res = run(d)
    assert release_times(res, 1) == [7.0]


def test_certain_failure_discards_after_one_investigation_and_retest():
    d = qc_chain([{"id": "assay", "team": "lab", "test_time": 1.0,
                   "failure_prob": 1.0}],
                 qa={"investigators": 1, "oos_investigation_time": 0.5})
    res = run(d)
    assert all(b["state"] == "discarded" for b in batch_rows(res)
               if b["state"] in ("released", "discarded"))
    discarded = [b for b in batch_rows(res) if b["state"] == "discarded"]
    assert discarded
    assert all(b["discard_cause"] == "failed_retest" for b in discarded)
    assert all(b["investigations"] == 1 for b in discarded)
    assert all(b["retests"] == 1 for b in discarded)
    assert res.counts["released_doses"] == 0
    # fail at 7.0, investigate to 7.5, retest 7.5-8.5, fail again
    assert min(b["discarded_at"] for b in discarded) == 8.5


def test_released_count_monotone_in_failure_probability():
    counts = []
    for p in (0.0, 0.3, 1.0):
        d = qc_chain([{"id": "assay", "team": "lab", "test_time": 1.0,
                       "failure_prob": p}],
                     qa={"investigators": 1, "oos_investigation_time": 0.5})
        counts.append(run(d, seed=7).counts["batches_released"])
    assert counts[0] >= counts[1] >= counts[2]
    assert counts[2] == 0


def test_no_investigator_strands_failed_batches():
    d = qc_chain([{"id": "assay", "team": "lab", "test_time": 1.0,
                   "failure_prob": 1.0}],
                 qa={"oos_investigation_time": 0.5})  # zero investigators
    res = run(d)
    assert res.counts["batches_released"] == 0
    assert res.counts["batches_discarded"] == 0
    assert res.series["pool_queue.qa_investigators"][-1] > 100


def test_capacity_cut_does_not_preempt_running_tasks():
    d = qc_chain([
        {"id": "identity", "team": "lab", "test_time": 10.0},
        {"id": "potency", "team": "lab", "test_time": 10.0},
    ], technicians=2)
    cfg = parse_config(d)
    m = Model(cfg, seed=1)
    pool = m.qc.tech_pools["lab"]
    m.engine.schedule(7.0, lambda ev: pool.busy.resize(1, m.engine.now))
    res = m.run()
    # both 10-day tests started at 6.0 run to completion despite the cut;
    # the next batch's tests then serialize through the single survivor
    assert release_times(res, 2) == [16.0, 36.0]


def test_ipc_failure_runs_investigation_then_discards_in_flow():
    d = qc_chain([{"id": "ph", "prep_time": 0.5,
                   "test_time": 0.5, "check_time": 0.5,
                   "failure_prob": 1.0}],
                 qa={"investigators": 1, "oos_investigation_time": 1.0},
                 ipc_on="mix")
    d["stages"][2]["qc_tests"] = []
    res = run(d)
    discarded = sorted(b["discarded_at"] for b in batch_rows(res)
                       if b["state"] == "discarded")
    # mix occupies 2.0 + 1.5 days of in-line testing; fail surfaces at 4.5,
    # investigation to 5.5, production retest to 7.0, second fail discards
    assert discarded[:2] == [7.0, 10.5]
    assert res.counts["batches_released"] == 0


def test_deviation_investigation_gates_release():
    d = {
        "model": {"start_date": "2025-04-01", "end_date": "2028-03-31"},
        "inventories": [{"id": "finished"}],
        "stages": [{"id": "fill", "machines": 1,
                    "processing_time": {"constant": 3.0},
                    "output_inventory": "finished", "doses_per_batch": 1000}],
        "qa": {"investigators": 1, "deviation_prob": 1.0,
               "deviation_investigation_time": 2.0},
    }
    res = run(d)
    assert release_times(res, 3) == [5.0, 8.0, 11.0]
    assert all(b["investigations"] == 1 for b in batch_rows(res)
               if b["state"] == "released")


def test_document_review_gates_release():
    d = chain_dict()
    d["stages"][2]["document_review"] = True
    d["qa"] = {"reviewers": 1, "document_review_time": 1.0}
    res = run(d)
    assert release_times(res, 2) == [7.0, 10.0]
    assert res.counts["pool_busy_days.qa_reviewers"] > 0.0


def test_release_review_then_approval():
    d = chain_dict()
    d["qa"] = {"reviewers": 1, "supervisors": 1,
               "release_review_time": 0.5, "release_approval_time": 0.25}
    res = run(d)
    assert release_times(res, 2) == [6.75, 9.75]


def test_release_waits_for_the_last_hold():
    d = qc_chain([{"id": "assay", "team": "lab", "test_time": 1.0,
                   "failure_prob": 0.2}],
                 qa={"investigators": 1, "oos_investigation_time": 1.0,
                     "deviation_prob": 0.3, "deviation_investigation_time": 2.0,
                     "reviewers": 1, "document_review_time": 0.5,
                     "release_review_time": 0.5, "supervisors": 1,
                     "release_approval_time": 0.25})
    d["stages"][2]["document_review"] = True
    m = Model(parse_config(d), seed=3)
    m.run()
    states = {b.state for b in m.collect.batches}
    assert {"released", "awaiting_release", "discarded"} <= states
    for b in m.collect.batches:
        # the test, any investigation and both reviews each hold the batch
        assert b.holds >= 0
        if b.state == "released":
            assert b.holds == 0
        elif b.state == "awaiting_release":
            assert b.holds > 0


def test_wip_reset_discards_in_process_and_restarts_lab_work():
    d = qc_chain([{"id": "assay", "team": "lab", "test_time": 1.0}])
    cfg = parse_config(d)
    m = Model(cfg, seed=1)
    m.engine.schedule(10.0, lambda ev: m.reset_wip())
    res = m.run()
    lost = [b for b in batch_rows(res) if b["state"] == "discarded"]
    assert len(lost) == 3  # one per machine
    assert all(b["discard_cause"] == "power_outage" for b in lost)
    assert all(b["discarded_at"] == 10.0 for b in lost)
    # batch 2's test was running 9->10; it restarts from scratch at 10
    assert release_times(res, 3) == [7.0, 11.0, 14.0]
    in_machines = sum(1 for s in m.production.stages for mc in s.machines if mc.batch)
    in_inventories = sum(len(i.contents) for i in m.production.inventories.values())
    assert res.counts["batches_created"] == (
        res.counts["batches_released"] + res.counts["batches_discarded"]
        + in_machines + in_inventories)

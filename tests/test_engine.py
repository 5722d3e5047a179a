"""Event list ordering, tombstones, clock bounds, and stream reproducibility."""

import heapq
from datetime import date

import numpy as np
import pytest

from vaxsim.engine import (
    END_OF_HORIZON,
    Engine,
    EventList,
    RngRegistry,
    SchedulingError,
    SimClock,
)


def test_events_pop_in_time_order():
    el = EventList()
    rng = np.random.default_rng(7)
    times = rng.uniform(0, 1000, size=10_000)
    for t in times:
        el.push(t, "tick")
    popped = []
    while True:
        ev = el.pop()
        if ev is None:
            break
        popped.append(ev.time)
    assert popped == sorted(times.tolist())


def test_equal_times_pop_in_schedule_order():
    el = EventList()
    for i in range(50):
        el.push(5.0, f"k{i}")
    kinds = [el.pop().kind for _ in range(50)]
    assert kinds == [f"k{i}" for i in range(50)]


def test_scheduling_into_the_past_raises():
    el = EventList()
    with pytest.raises(SchedulingError):
        el.push(3.0, "late", now=4.0)


def test_voided_events_are_skipped():
    el = EventList()
    keep = el.push(1.0, "keep")
    drop = el.push(0.5, "drop")
    drop.void = True
    ev = el.pop()
    assert ev is keep
    assert el.pop() is None


def test_peek_time_skips_tombstones():
    el = EventList()
    a = el.push(1.0, "a")
    el.push(2.0, "b")
    a.void = True
    assert el.peek_time() == 2.0


def test_clock_day_index_clamps_to_horizon():
    clock = SimClock(date(2025, 4, 1), date(2025, 4, 11))
    assert clock.horizon_days == 10
    assert clock.day_index(0.0) == 0
    assert clock.day_index(9.5) == 9
    assert clock.day_index(10.0) == 9  # horizon boundary maps to last day bin


def test_engine_runs_handlers_in_order_and_parks_at_horizon():
    clock = SimClock(date(2025, 4, 1), date(2025, 4, 11))
    eng = Engine(clock, trace=True)
    seen = []
    eng.on("a", lambda ev: seen.append((ev.time, ev.kind)))
    eng.on("b", lambda ev: seen.append((ev.time, ev.kind)))
    eng.schedule(2.0, "b")
    eng.schedule(1.0, "a")
    eng.schedule(20.0, "a")  # beyond horizon: never dispatched
    eng.run()
    assert seen == [(1.0, "a"), (2.0, "b")]
    assert eng.clock.now == clock.horizon_days


def test_handlers_can_schedule_followups():
    clock = SimClock(date(2025, 4, 1), date(2025, 4, 30))
    eng = Engine(clock)
    hits = []

    def bounce(ev):
        hits.append(ev.time)
        if len(hits) < 4:
            eng.schedule(1.5, "bounce")

    eng.on("bounce", bounce)
    eng.schedule(0.0, "bounce")
    eng.run()
    assert hits == [0.0, 1.5, 3.0, 4.5]


def test_end_of_horizon_marker_is_singleton():
    assert END_OF_HORIZON is not None
    clock = SimClock(date(2025, 4, 1), date(2025, 4, 2))
    eng = Engine(clock)
    assert eng.pop_next() is END_OF_HORIZON


def draws(g, n: int) -> list[float]:
    return [g.random() for _ in range(n)]


class TestRngRegistry:
    def test_same_label_same_stream(self):
        reg = RngRegistry(42)
        assert draws(reg.derived("machine", 3), 8) == draws(reg.derived("machine", 3), 8)

    def test_identical_seeds_reproduce_sequences(self):
        a = draws(RngRegistry(42).derived("qc", "team1"), 100)
        b = draws(RngRegistry(42).derived("qc", "team1"), 100)
        assert a == b

    def test_different_labels_decorrelate(self):
        reg = RngRegistry(42)
        a = draws(reg.derived("x"), 1000)
        b = draws(reg.derived("y"), 1000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_derived_is_history_independent(self):
        reg = RngRegistry(7)
        first = reg.derived("batch", 12).random()
        # burn unrelated draws; the derived stream must not care
        draws(reg.derived("noise"), 999)
        again = reg.derived("batch", 12).random()
        assert first == again

    def test_different_seeds_differ(self):
        a = draws(RngRegistry(1).derived("m"), 8)
        b = draws(RngRegistry(2).derived("m"), 8)
        assert a != b

    def test_derived_uniformity_and_normality(self):
        g = RngRegistry(11).derived("u")
        xs = np.array([g.random() for _ in range(50_000)])
        assert 0.0 <= xs.min() and xs.max() < 1.0
        assert abs(xs.mean() - 0.5) < 0.005
        assert abs(xs.var() - 1 / 12) < 0.002
        h = RngRegistry(11).derived("z")
        zs = np.array([h.standard_normal() for _ in range(50_000)])
        assert abs(zs.mean()) < 0.02 and abs(zs.std() - 1.0) < 0.02


def test_trace_is_sorted_by_time_then_seq():
    clock = SimClock(date(2025, 4, 1), date(2025, 5, 1))
    eng = Engine(clock, trace=True)
    eng.on("t", lambda ev: None)
    for t in [3.0, 1.0, 1.0, 2.0]:
        eng.schedule(t, "t")
    eng.run()
    assert eng.trace == sorted(eng.trace)
    assert [t for t, _, _ in eng.trace] == [1.0, 1.0, 2.0, 3.0]


def test_heap_invariant_under_interleaved_push_pop():
    el = EventList()
    rng = np.random.default_rng(3)
    out, now = [], 0.0
    for _ in range(2000):
        if el.peek_time() is None or rng.random() < 0.6:
            el.push(now + rng.uniform(0, 10), "x", now=now)
        else:
            ev = el.pop()
            assert ev.time >= now
            now = ev.time
            out.append(ev.time)
    assert out == sorted(out)

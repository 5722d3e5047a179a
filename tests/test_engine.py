"""Event list ordering, tombstones, clock bounds, and stream reproducibility."""

import hashlib
import heapq
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vaxsim.config import parse_config
from vaxsim.engine import (
    Engine,
    EventList,
    RngRegistry,
    SchedulingError,
    StepIntegral,
)
from vaxsim.model import Model
from vaxsim.scenario import parse_scenario

from conftest import chain_dict


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
    actions = [el.pop().action for _ in range(50)]
    assert actions == [f"k{i}" for i in range(50)]


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


def test_pop_until_stops_at_the_bound_and_keeps_the_event():
    el = EventList()
    dead = el.push(1.0, "dead")
    el.push(2.0, "at")
    el.push(3.0, "after")
    dead.void = True
    assert el.pop(2.0) is None  # the bound is exclusive; the tombstone goes
    assert len(el) == 2 and el.peek_time() == 2.0
    assert el.pop(2.5).action == "at"
    assert el.pop(3.0) is None
    assert el.pop(10.0).action == "after"
    assert el.pop(10.0) is None and len(el) == 0


def test_engine_runs_handlers_in_order_and_parks_at_horizon():
    eng = Engine(date(2025, 4, 1), date(2025, 4, 11))
    seen = []

    def a(ev):
        seen.append((ev.time, ev.seq, ev.kind))

    def b(ev):
        seen.append((ev.time, ev.seq, ev.kind))

    eng.schedule(2.0, b)
    eng.schedule(1.0, a)
    eng.schedule(20.0, a)  # beyond horizon: never dispatched
    eng.run(lambda day: None, lambda: seen.append("after"))
    assert seen == [(1.0, 1, "a"), "after", (2.0, 0, "b"), "after"]
    assert eng.now == eng.horizon_days == 10.0


def test_handlers_can_schedule_followups():
    eng = Engine(date(2025, 4, 1), date(2025, 4, 30))
    hits = []

    def bounce(ev):
        hits.append(ev.time)
        if len(hits) < 4:
            eng.schedule(ev.time + 1.5, bounce)

    eng.schedule(0.0, bounce)
    eng.run(lambda day: None, lambda: None)
    assert hits == [0.0, 1.5, 3.0, 4.5]


def test_close_drops_the_action_and_target_of_each_listed_event():
    eng = Engine(date(2025, 4, 1), date(2025, 4, 3))
    target = object()
    eng.schedule(1.5, lambda ev: None, target)
    eng.schedule(5.0, lambda ev: None, target)
    eng.run(lambda day: None, lambda: None)
    eng.close()
    assert len(eng.events) == 1
    ev = eng.events.pop()
    assert ev.time == 5.0 and ev.action is None and ev.target is None


def test_pop_next_returns_only_events_before_the_next_unticked_day():
    eng = Engine(date(2025, 4, 1), date(2025, 4, 11))
    eng.schedule(0.5, "a")
    eng.schedule(1.0, "b")
    assert eng.pop_next().action == "a" and eng.now == 0.5
    # day 1 is not ticked yet: its event stays listed and the clock stays put
    assert eng.pop_next() is None and eng.now == 0.5 and len(eng.events) == 1
    eng.next_day = 2.0
    assert eng.pop_next().action == "b" and eng.now == 1.0
    assert eng.pop_next() is None and len(eng.events) == 0


def _ticked_run(end, times=()):
    """Run an engine from 2025-04-01 to ``end`` with an event at each of
    ``times``; return it and what happened, in order: ("tick", day) for each
    day ticked and ("e", t) for each event handled."""
    eng, seen = Engine(date(2025, 4, 1), end), []

    def e(ev):
        seen.append(("e", ev.time))

    for t in times:
        eng.schedule(t, e)
    eng.run(lambda day: seen.append(("tick", day)), lambda: None)
    return eng, seen


def test_every_day_ticks_once_up_to_the_horizon():
    days = [("tick", float(d)) for d in range(1, 11)]
    _, seen = _ticked_run(date(2025, 4, 11))
    assert seen == days  # an empty list ticks them too
    _, seen = _ticked_run(date(2025, 4, 11), (0.5, 3.0, 3.0, 3.25, 7.0))
    assert [x for x in seen if x[0] == "tick"] == days
    _, seen = _ticked_run(date(2025, 4, 1))
    assert seen == []


def test_a_day_ticks_before_the_events_of_its_instant():
    _, seen = _ticked_run(date(2025, 4, 6), (2.0, 0.5, 2.0, 1.75, 4.5))
    assert seen == [("e", 0.5), ("tick", 1.0), ("e", 1.75), ("tick", 2.0), ("e", 2.0),
                    ("e", 2.0), ("tick", 3.0), ("tick", 4.0), ("e", 4.5), ("tick", 5.0)]


def test_an_event_at_the_horizon_is_never_handled_and_stays_listed():
    eng, seen = _ticked_run(date(2025, 4, 4), (3.0, 2.5))
    assert seen == [("tick", 1.0), ("tick", 2.0), ("e", 2.5), ("tick", 3.0)]
    assert eng.now == 3.0 and len(eng.events) == 1 and eng.events.peek_time() == 3.0


def _recorded_run(model):
    """Run ``model``; return ("tick", day) for each day ticked, ("step", t)
    for each window step played and (kind, t) for each event handled, in
    order. A window step is the one caller of ``wake_all``; the handlers are
    wrapped on the parts before any event of theirs is listed."""
    seen = []
    wake_all = model.wake_all

    def step():
        seen.append(("step", model.engine.now))
        wake_all()

    model.wake_all = step

    def recording(kind, handler):
        def record(ev):
            seen.append((kind, ev.time))
            handler(ev)
        return record

    for part, kind in ((model.production, "proc_done"), (model.qc, "task_done"),
                       (model.materials, "po_place"), (model.materials, "po_step")):
        setattr(part, kind, recording(kind, getattr(part, kind)))
    day_tick = model.collect.day_tick

    def tick(day):
        seen.append(("tick", day))
        day_tick(day)

    model.collect.day_tick = tick
    model.run()
    return seen


def _chain_with_steps_on_whole_days():
    """The conftest chain with a maintenance start on day 5 and scenario steps
    on days 10 and 12; its constant processing times finish on whole days."""
    d = chain_dict()
    d["maintenance"] = [{"start": "2025-04-06", "end": "2025-04-07"}]
    cfg = parse_config(d)
    spec = parse_scenario({"name": "close_fill", "modifications": [
        {"window": {"start": "2025-04-11", "end": "2025-04-12"},
         "set": {"stages.fill.closed": True}}]}, cfg)
    return Model(cfg, seed=1, spec=spec)


def test_a_model_ticks_each_day_before_the_domain_events_of_its_instant():
    """A day's readings never absorb a change that belongs to the next day,
    the model ticks each day up to the horizon once, and each dated step
    comes between its day's tick and the events of that instant."""
    model = _chain_with_steps_on_whole_days()
    seen = _recorded_run(model)
    horizon = model.engine.horizon_days
    ticks = [i for i, (kind, _) in enumerate(seen) if kind == "tick"]
    assert [seen[i][1] for i in ticks] == [float(d) for d in range(1, int(horizon) + 1)]
    tick_at = {seen[i][1]: i for i in ticks}
    events = [(i, kind, t) for i, (kind, t) in enumerate(seen)
              if kind not in ("tick", "step")]
    steps = [(i, t) for i, (kind, t) in enumerate(seen) if kind == "step"]
    # maintenance opens on day 5 and closes on day 7, the overlay on days 10 and 12
    assert [t for _, t in steps] == [5.0, 7.0, 10.0, 12.0]
    first_event_at = {}
    for i, _, t in events:
        first_event_at.setdefault(t, i)
    assert {t for _, t in steps} & first_event_at.keys()  # a step shares its instant
    for i, t in steps:
        assert tick_at[t] < i < first_event_at.get(t, len(seen)), t
    on_whole_days = [(i, kind, t) for i, kind, t in events if t >= 1.0 and t == int(t)]
    assert "proc_done" in {kind for _, kind, _ in on_whole_days}
    assert not [(kind, t) for i, kind, t in on_whole_days if i < tick_at[t]]
    assert max(t for _, _, t in events) < horizon


def draws(g, n: int) -> list[float]:
    return [g.random() for _ in range(n)]


class TestRngRegistry:
    def test_same_label_same_stream(self):
        reg = RngRegistry(42)
        assert draws(reg.derived(("machine",), 3), 8) == draws(reg.derived(("machine",), 3), 8)

    def test_identical_seeds_reproduce_sequences(self):
        a = draws(RngRegistry(42).derived(("qc", "team1")), 100)
        b = draws(RngRegistry(42).derived(("qc", "team1")), 100)
        assert a == b

    def test_different_labels_decorrelate(self):
        reg = RngRegistry(42)
        a = draws(reg.derived(("x",)), 1000)
        b = draws(reg.derived(("y",)), 1000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_derived_is_history_independent(self):
        reg = RngRegistry(7)
        first = reg.derived(("batch",), 12).random()
        # burn unrelated draws; the derived stream must not care
        draws(reg.derived(("noise",)), 999)
        again = reg.derived(("batch",), 12).random()
        assert first == again

    def test_different_seeds_differ(self):
        a = draws(RngRegistry(1).derived(("m",)), 8)
        b = draws(RngRegistry(2).derived(("m",)), 8)
        assert a != b

    def test_derived_uniformity_and_normality(self):
        g = RngRegistry(11).derived(("u",))
        xs = np.array([g.random() for _ in range(50_000)])
        assert 0.0 <= xs.min() and xs.max() < 1.0
        assert abs(xs.mean() - 0.5) < 0.005
        assert abs(xs.var() - 1 / 12) < 0.002
        h = RngRegistry(11).derived(("z",))
        zs = np.array([h.standard_normal() for _ in range(50_000)])
        assert abs(zs.mean()) < 0.02 and abs(zs.std() - 1.0) < 0.02


def test_trace_is_sorted_by_time_then_seq():
    eng = Engine(date(2025, 4, 1), date(2025, 5, 1))
    trace = []

    def handle(ev):
        trace.append((ev.time, ev.seq, ev.kind))

    for t in [3.0, 1.0, 1.0, 2.0]:
        eng.schedule(t, handle)
    eng.run(lambda day: None, lambda: None)
    assert trace == sorted(trace)
    assert [t for t, _, _ in trace] == [1.0, 1.0, 2.0, 3.0]


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


# Known answers: draws 0, 1, 7, 8, 255 and 256 of the label's stream under seed,
# as float.hex. Every store byte hangs on these values, so a change to how a
# substream's key or counter is hashed must reproduce them exactly.
KNOWN_DRAWS = (0, 1, 7, 8, 255, 256)
KNOWN_ANSWERS = [
    (100, (),
     ("0x1.8f70539b234dap-2", "0x1.bfa0a83a8dd6cp-1", "0x1.0dc82945c8c18p-2",
      "0x1.64779dde7a670p-1", "0x1.ce42af3833bc5p-1", "0x1.8c22d0fdcee78p-3")),
    (100, ("x",),
     ("0x1.29a38c0198924p-1", "0x1.59482ae54e2c6p-1", "0x1.1c6cbc1e7840cp-1",
      "0x1.563f94d524ad4p-3", "0x1.be6e78bd4a360p-5", "0x1.45883e5a03570p-3")),
    (100, ("proc", "fill_finish"),
     ("0x1.1037311d2cfe4p-2", "0x1.f86724eba1262p-2", "0x1.f57a01366b293p-1",
      "0x1.173e18895699fp-1", "0x1.8555adb2e7ea2p-2", "0x1.758ea01cf9931p-1")),
    (7, ("ipcdur", "sterility", "formulation", 412, 1),
     ("0x1.8f1464ffbc2bcp-1", "0x1.6dd7e4954dcd7p-1", "0x1.8fb5ca385c560p-4",
      "0x1.9aafa21c3a8a0p-2", "0x1.181f89af05c1cp-2", "0x1.a81c8b881d418p-4")),
    (0, ("it's", 'say "hi"'),
     ("0x1.9537b361882c0p-7", "0x1.f7d79ab2b8e80p-4", "0x1.c7b8e2b8caed0p-5",
      "0x1.40a25def78260p-6", "0x1.849f1c94cccd4p-1", "0x1.31ed211b7babfp-1")),
    (1, ("back\\slash", "tab\there"),
     ("0x1.6b7fcab9430b0p-2", "0x1.629519fbbf3dcp-3", "0x1.35769eb34e578p-4",
      "0x1.8098c92bb8c00p-6", "0x1.a6f69bfd4a7c2p-2", "0x1.cb164070de588p-4")),
    (2, ("dose µg", "café", "日本"),
     ("0x1.d8138a2817df8p-2", "0x1.9dcaaa288b4aap-1", "0x1.2c7354ba06175p-1",
      "0x1.e19d4a3064d2cp-1", "0x1.b621599fd9a00p-3", "0x1.078d8b6157180p-8")),
    (-1, ("neg",),
     ("0x1.84d759e6d4c3ap-1", "0x1.20fd7e40e9e2ap-2", "0x1.5206724f5b4e8p-4",
      "0x1.22cc1974e6799p-1", "0x1.b2748456a9e90p-5", "0x1.2651725347df2p-2")),
    (-(2 ** 70), ("neg", 3),
     ("0x1.4234b17465177p-1", "0x1.48acbb97954e4p-2", "0x1.ed1b3963146d4p-2",
      "0x1.1cd356bbe8e27p-1", "0x1.795a5bbc914d4p-3", "0x1.30fc0b0ff0bb5p-1")),
    (2 ** 63, ("big",),
     ("0x1.1ddecbec2394fp-1", "0x1.b042245440db0p-5", "0x1.609e33d5d00c8p-3",
      "0x1.88f57c61628abp-1", "0x1.92ea7a0487b2ep-1", "0x1.bcddef972e2fap-2")),
    (2 ** 64 + 12345, ("big", -5, 0),
     ("0x1.a905c1823db81p-1", "0x1.f99b24e63b4dep-1", "0x1.b39dfd14fd800p-2",
      "0x1.1f65534af83d0p-1", "0x1.2bbed695a87b8p-4", "0x1.695b4a87712dep-1")),
]


@pytest.mark.parametrize("seed, label, expected", KNOWN_ANSWERS)
def test_derived_draws_match_known_answers(seed, label, expected):
    # every split of the label into a head and ids keys the same stream
    for k in range(len(label) + 1):
        g = RngRegistry(seed).derived(label[:k], *label[k:])
        xs = [g.random() for _ in range(KNOWN_DRAWS[-1] + 1)]
        assert [xs[n].hex() for n in KNOWN_DRAWS] == list(expected), k


# Label parts that need escaping or encoding in a key's text, mixed into the
# names; a head may also hold numbers, whose equal values (1, 1.0, True)
# render differently, so a head of them must not be served from the cache.
names = st.text(alphabet=st.sampled_from("ab'\"\\\t\nµé日本 "), max_size=6) | st.text(max_size=4)
head_parts = names | st.sampled_from([0, 1, -1, True, False, 1.0, 0.0, -0.0])
ids = (st.integers() | st.integers(-2 ** 70, 2 ** 70) | st.booleans()
       | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))
labels = st.tuples(st.lists(head_parts, max_size=3).map(tuple), st.lists(ids, max_size=3))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@example(seed=0, labels=[((1,), [5]), ((True,), [5]), ((1.0,), [5])])
@given(seed=st.integers(-2 ** 70, 2 ** 70), labels=st.lists(labels, min_size=1, max_size=6))
def test_derived_keys_the_sha256_of_the_label_repr(seed, labels):
    reg = RngRegistry(seed)  # one registry, so later labels meet cached heads
    for head, label_ids in labels * 2:
        text = repr((seed, *head, *label_ids))
        assert reg.derived(head, *label_ids)._key == hashlib.sha256(text.encode()).digest(), text


def test_derived_refuses_a_head_that_is_not_a_tuple():
    with pytest.raises(TypeError):
        RngRegistry(1).derived("proc", 3)


class ReferenceIntegral:
    """``StepIntegral`` as first written: ``add`` calls ``set``, which accrues
    through ``_accrue``. The production class must agree with it bit for bit."""

    def __init__(self, value, now):
        self.value, self.total, self._last_ts, self._taken = value, 0.0, now, 0.0

    def _accrue(self, now):
        self.total += self.value * (now - self._last_ts)
        self._last_ts = now

    def set(self, now, value):
        self._accrue(now)
        self.value = value

    def add(self, now, delta):
        self.set(now, self.value + delta)

    def take(self, now):
        self._accrue(now)
        out = self.total - self._taken
        self._taken = self.total
        return out


finite = st.floats(-1e6, 1e6, allow_nan=False)
steps = st.lists(st.tuples(st.sampled_from(["add", "take"]),
                           st.floats(0.0, 50.0), finite), max_size=60)


@given(start=finite, now=st.floats(0.0, 1e4), ops=steps)
def test_step_integral_matches_reference_bit_for_bit(start, now, ops):
    real, ref = StepIntegral(start, now), ReferenceIntegral(start, now)
    for op, dt, x in ops:
        now += dt
        if op == "take":
            assert real.take(now).hex() == ref.take(now).hex()
        else:
            getattr(real, op)(now, x)
            getattr(ref, op)(now, x)
        assert (real.value, real.total) == (ref.value, ref.total)
        assert real.total.hex() == ref.total.hex()

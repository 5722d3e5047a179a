"""Deterministic event-driven simulation substrate.

Time is measured in fractional days since the simulation start date. A single
replication is strictly single-threaded: all state changes happen inside event
handlers popped from the future-event list in (time, seq) order and in the
whole-day ticks between them, which makes a replication bit-reproducible from
its seed.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import struct
from dataclasses import dataclass, field
from datetime import date

DEFAULT_START_DATE = date(2025, 4, 1)
DEFAULT_END_DATE = date(2028, 3, 31)


class SchedulingError(RuntimeError):
    """Raised when an event is scheduled before the current clock time."""


@dataclass
class SimClock:
    """Simulation clock over a fixed calendar horizon.

    ``now`` is in fractional days since ``start_date`` and never decreases.
    """

    start_date: date = DEFAULT_START_DATE
    end_date: date = DEFAULT_END_DATE
    now: float = 0.0
    # fixed at construction: the dates are read-only once a clock exists
    horizon_days: float = field(init=False)

    def __post_init__(self) -> None:
        self.horizon_days = float((self.end_date - self.start_date).days)


@dataclass(slots=True)
class Event:
    time: float
    seq: int
    kind: str
    target: object = None
    void: bool = False  # tombstoned events are skipped on pop


class EventList:
    """Future-event list ordered by (time, seq).

    ``seq`` is assigned at insertion, so simultaneous events pop in the order
    they were scheduled (FIFO tie-break). Cancellation is tombstoning only: a
    voided event stays in the heap and is skipped when popped.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, kind: str, target: object = None, *,
             now: float = 0.0) -> Event:
        if time < now:
            raise SchedulingError(
                f"event {kind!r} scheduled at t={time} before current time t={now}"
            )
        ev = Event(time, self._seq, kind, target)
        self._seq += 1
        heapq.heappush(self._heap, (time, ev.seq, ev))
        return ev

    def pop(self, until: float = math.inf) -> Event | None:
        """Pop the earliest live event if it lies before ``until``, else None
        (the event stays listed); tombstones on the way are dropped."""
        heap = self._heap
        while heap:
            time, _, ev = heap[0]
            if time >= until:
                return None
            heapq.heappop(heap)
            if not ev.void:
                return ev
        return None

    def peek_time(self) -> float | None:
        while self._heap and self._heap[0][2].void:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None


# bound once, since a replication makes about 53k hash calls; the counter is
# hashed as 8 little-endian bytes, and a draw reads the digest's first 8 alike.
# The same digest: 3.10's and 3.11's own SHA-256 beats OpenSSL's on 40 bytes
# (0.43 against 0.60 us on 3.11, Xeon); 3.12's _sha2 measured slower than OpenSSL.
try:
    from _sha256 import sha256 as _sha256  # 3.10, 3.11
except ImportError:
    _sha256 = hashlib.sha256
_u64 = struct.Struct("<Q")
_pack_u64, _unpack_u64 = _u64.pack, _u64.unpack_from


class HashStream:
    """Counter-mode substream: the n-th draw is a pure function of (key, n).

    SHA-256 over (key || counter) gives 64 uniform bits per draw; the value
    never depends on how many draws other entities made before it, which is
    what keeps common-random-number alignment exact across scenarios.
    """

    __slots__ = ("_key", "_ctr")

    def __init__(self, key: bytes) -> None:
        self._key = key
        self._ctr = 0

    def random(self) -> float:
        ctr = self._ctr
        self._ctr = ctr + 1
        # top 53 bits of the first 8 digest bytes -> uniform double in [0, 1)
        return (_unpack_u64(_sha256(self._key + _pack_u64(ctr)).digest())[0]
                >> 11) * 2.0 ** -53

    def standard_normal(self) -> float:
        u1 = self.random() or 2.0 ** -53  # guard log(0)
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


class RngRegistry:
    """Named, independent random substreams for one replication.

    Every stochastic entity draws from its own substream so that a scenario
    edit to one entity cannot desynchronize the draws of any other (common
    random numbers across scenarios). A substream label is an arbitrary tuple
    of strings/ints; identical (replication_seed, label) always yields the
    identical draw sequence, on any platform.
    """

    def __init__(self, replication_seed: int) -> None:
        self.replication_seed = int(replication_seed)
        self._prefix = f"({self.replication_seed!r}, "

    def derived(self, *label: object) -> HashStream:
        """Fresh substream keyed only by (seed, label), independent of history.

        Used for per-instance draws (one batch visiting one stage, one test
        attempt, one purchase order) so the values depend on stable identities
        rather than on how many draws happened before them. The key hashes
        ``repr((seed,) + label)``; a label of two or more elements appends its
        own repr to the registry's prefix ``(<seed>, `` instead.
        """
        text = (self._prefix + repr(label)[1:] if len(label) > 1
                else repr((self.replication_seed,) + label))
        return HashStream(_sha256(text.encode("utf-8")).digest())


class StepIntegral:
    """Time integral of a piecewise-constant value (busy counts, queue sizes).

    ``add(now, delta)`` accumulates area up to ``now`` at the old value, then
    moves the value by ``delta``; ``take(now)`` returns the area accrued since
    the last take (used to bucket the integral into daily bins).
    """

    __slots__ = ("value", "total", "last_ts", "taken")

    def __init__(self, value: float = 0.0, now: float = 0.0) -> None:
        self.value = value
        self.total = 0.0  # the area up to last_ts
        self.last_ts = now
        self.taken = 0.0  # the total at the last take

    # each method accrues the area since the last change inline: they run on
    # every busy and queue change (``Collector.day_tick`` takes inline too)
    def add(self, now: float, delta: float) -> None:
        value = self.value
        self.total += value * (now - self.last_ts)
        self.last_ts = now
        self.value = value + delta

    def take(self, now: float) -> float:
        self.total += self.value * (now - self.last_ts)
        self.last_ts = now
        out = self.total - self.taken
        self.taken = self.total
        return out


class Engine:
    """Clock plus future-event list with horizon handling.

    Handlers are registered per event kind, and every event is listed at an
    absolute time. ``run`` handles the events before the horizon and ticks
    each whole day up to it on the way (see ``run``); the clock rests at the
    horizon after its last tick.
    """

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock or SimClock()
        self.events = EventList()
        self.handlers: dict[str, object] = {}
        self.next_day = 1.0  # the first whole day not yet ticked

    def schedule(self, time: float, kind: str, target: object = None) -> Event:
        return self.events.push(time, kind, target, now=self.clock.now)

    def on(self, kind: str, handler) -> None:
        self.handlers[kind] = handler

    def close(self) -> None:
        """Drop what only a run needs: the handlers and the targets of the
        events still listed, which hold them in turn. The listed events
        themselves stay, so ``len(events)`` still counts them."""
        self.handlers = {}
        for _, _, ev in self.events._heap:
            ev.target = None

    def pop_next(self) -> Event | None:
        """Pop the minimal (time, seq) event before the next unticked day and
        advance the clock to it; None, with the clock left where it is, when
        no event lies before that day."""
        ev = self.events.pop(self.next_day)
        if ev is not None:
            self.clock.now = ev.time
        return ev

    def run(self, tick, after) -> None:
        """Handle the events before the horizon in (time, seq) order, calling
        ``after`` with no arguments after each handler (the model's C-phase).

        Time crosses whole days here, not in the event list. Once no event
        is left before the next unticked day, the clock moves to that day
        and ``tick(day)`` is called, so day ``k``'s tick comes after every
        event before ``k`` and before every event at ``k``. The last tick
        falls on the horizon; an event at or beyond it is never handled and
        stays listed.
        """
        handlers, pop_next, clock = self.handlers, self.pop_next, self.clock
        while (day := self.next_day) <= clock.horizon_days:
            while (ev := pop_next()) is not None:
                handler = handlers.get(ev.kind)
                if handler is None:
                    raise KeyError(f"no handler for event kind {ev.kind!r}")
                handler(ev)
                after()
            clock.now = day
            self.next_day = day + 1.0
            tick(day)

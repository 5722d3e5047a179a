"""Deterministic event-driven simulation substrate.

Time is measured in fractional days since the simulation start date. A single
replication is strictly single-threaded: all state changes happen inside the
actions of events popped from the future-event list in (time, seq) order and
in the whole-day ticks between them, which makes a replication
bit-reproducible from its seed.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import struct
from dataclasses import dataclass
from datetime import date


class SchedulingError(RuntimeError):
    """Raised when an event is scheduled before the current time."""


@dataclass(slots=True)
class Event:
    time: float
    seq: int
    action: object  # called with the event when it is handled
    target: object = None
    void: bool = False  # tombstoned events are skipped on pop

    @property
    def kind(self) -> str:
        """The name of the event's action: a handler is named for its kind."""
        return self.action.__name__


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

    def push(self, time: float, action, target: object = None, *,
             now: float = 0.0) -> Event:
        if time < now:
            raise SchedulingError(
                f"event {action!r} scheduled at t={time} before current time t={now}"
            )
        ev = Event(time, self._seq, action, target)
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
    """The clock and the future-event list of one run over a fixed calendar
    horizon.

    ``now`` is in fractional days since ``start_date`` and never decreases.
    Every event is listed at an absolute time with its action, a bound
    method of the part that owns the event, which ``run`` calls with the
    event. ``run`` handles the events before the horizon and ticks each
    whole day up to it on the way (see ``run``); the clock rests at the
    horizon after its last tick.
    """

    def __init__(self, start_date: date, end_date: date) -> None:
        self.start_date = start_date
        self.horizon_days = float((end_date - start_date).days)
        self.now = 0.0
        self.events = EventList()
        self.next_day = 1.0  # the first whole day not yet ticked

    def schedule(self, time: float, action, target: object = None) -> Event:
        return self.events.push(time, action, target, now=self.now)

    def close(self) -> None:
        """Drop what only a run needs: the action and the target of each event
        still listed, which hold the model's parts in turn. The listed events
        themselves stay, so ``len(events)`` still counts them."""
        for _, _, ev in self.events._heap:
            ev.action = ev.target = None

    def pop_next(self) -> Event | None:
        """Pop the minimal (time, seq) event before the next unticked day and
        advance the clock to it; None, with the clock left where it is, when
        no event lies before that day."""
        ev = self.events.pop(self.next_day)
        if ev is not None:
            self.now = ev.time
        return ev

    def run(self, tick, after) -> None:
        """Handle the events before the horizon in (time, seq) order, each by
        calling its action with it and then ``after`` with no arguments (the
        model's C-phase).

        Time crosses whole days here, not in the event list. Once no event
        is left before the next unticked day, the clock moves to that day
        and ``tick(day)`` is called, so day ``k``'s tick comes after every
        event before ``k`` and before every event at ``k``. The last tick
        falls on the horizon; an event at or beyond it is never handled and
        stays listed.
        """
        pop_next = self.pop_next
        while (day := self.next_day) <= self.horizon_days:
            while (ev := pop_next()) is not None:
                ev.action(ev)
                after()
            self.now = day
            self.next_day = day + 1.0
            tick(day)

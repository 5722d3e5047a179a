"""Host-speed reference: a fixed pure-Python event loop, timed between operations.

The benchmark's machine is shared, and its speed drifts by tens of percent
over seconds to tens of seconds: the same replication takes 0.66 s in one
stretch and 1.1 s in the next, and every operation in that stretch slows
alike. Within one run that drift is not averaged out. So the benchmark runs
a fixed kernel between its operations and divides each operation's wall time
by the kernel's wall time measured right before and right after it (each
measurement the median of three back-to-back runs, so that a single hiccup
does not count). The result is the operation's cost in reference units
("ref"): one ref is one run of the kernel at the same moment on the same
machine.

The kernel, ``event_kernel``, is a small discrete-event loop (a heap of
timed events, slotted objects, a seeded ``random.Random``) like the
simulator's. It imports nothing from vaxsim, so no change to the program can
move it.
"""

from __future__ import annotations

import bisect
import heapq
import random
import statistics
import time

KERNEL_EVENTS = 15_000
RUNS_PER_SAMPLE = 3


class _Server:
    __slots__ = ("busy", "queue", "done")

    def __init__(self) -> None:
        self.busy = False
        self.queue: list[float] = []
        self.done = 0


def event_kernel() -> int:
    """Eight single-server queues driven for KERNEL_EVENTS events."""
    rng = random.Random(7)
    servers = [_Server() for _ in range(8)]
    heap = [(rng.random(), i, True, i % 8) for i in range(400)]
    heapq.heapify(heap)
    seq = len(heap)
    for _ in range(KERNEL_EVENTS):
        now, _, arrival, k = heapq.heappop(heap)
        srv = servers[k]
        if arrival:
            if srv.busy:
                srv.queue.append(now)
            else:
                srv.busy = True
                heapq.heappush(heap, (now + rng.random(), seq, False, k))
                seq += 1
            heapq.heappush(heap, (now + rng.expovariate(1.0), seq, True, k))
            seq += 1
        else:
            srv.done += 1
            if srv.queue:
                srv.queue.pop(0)
                heapq.heappush(heap, (now + rng.random(), seq, False, k))
                seq += 1
            else:
                srv.busy = False
    return sum(s.done for s in servers)


class Reference:
    """Kernel timings taken during a run, and costs in reference units."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.units: list[float] = []  # median kernel time of each sample

    def sample(self) -> None:
        times = []
        start = time.perf_counter()
        for _ in range(RUNS_PER_SAMPLE):
            t0 = time.perf_counter()
            event_kernel()
            times.append(time.perf_counter() - t0)
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.units.append(statistics.median(times))

    def unit_at(self, start: float, end: float) -> float:
        """Mean kernel time of the samples just before and just after [start, end]."""
        near = []
        i = bisect.bisect_right(self.ends, start) - 1
        if i >= 0:
            near.append(self.units[i])
        j = bisect.bisect_left(self.starts, end)
        if j < len(self.starts):
            near.append(self.units[j])
        if not near:
            raise ValueError("no reference sample next to the interval")
        return sum(near) / len(near)

    def cost(self, start: float, end: float) -> float:
        """Wall time of [start, end] in reference units."""
        return (end - start) / self.unit_at(start, end)

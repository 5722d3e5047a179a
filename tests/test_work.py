"""The replication kernel's work, pinned: one demo replication pops a fixed
number of events of each kind, draws a fixed number of uniforms, and its
C-phase makes a fixed number of dispatch attempts and pool pumps.

A change that makes the kernel cheaper per event must not make it do more (or
other) work; the store bytes would catch a different answer, these counts catch
the same answer reached by extra events, draws or visits. Events are counted
through the handlers named for their kinds (``Production.proc_done``,
``QaQc.task_done``, ``Materials.po_place`` and ``Materials.po_step``), wrapped
on their classes before the model is made, draws through
``HashStream.random``, and the C-phase's work through the model's own
``Production.try_dispatch``, ``QaQc.pump`` (a sweep of the woken pools) and
each pool's ``Pool.pump``, wrapped on the instances.
"""

from collections import Counter
from pathlib import Path

import yaml

import vaxsim
from vaxsim.config import parse_config
from vaxsim.engine import HashStream
from vaxsim.materials import Materials
from vaxsim.model import Model
from vaxsim.production import Production
from vaxsim.qaqc import QaQc

DEMO = Path(vaxsim.__file__).parent / "configs" / "demo.yaml"

EVENTS = {"proc_done": 3218, "task_done": 9004, "po_place": 26, "po_step": 2928}
DRAWS = 28687
# the C-phase: stage visits that try to start a batch, sweeps of the woken
# pools, and pumps of one pool
C_PHASE = {"try_dispatch": 6943, "pool_sweeps": 6791, "pool_pumps": 9082}


def test_demo_replication_work(monkeypatch):
    popped = Counter()

    def counting(kind, handler, seen=popped):
        def run(*args):
            seen[kind] += 1
            return handler(*args)
        return run

    for part, kind in ((Production, "proc_done"), (QaQc, "task_done"),
                       (Materials, "po_place"), (Materials, "po_step")):
        monkeypatch.setattr(part, kind, counting(kind, getattr(part, kind)))
    model = Model(parse_config(yaml.safe_load(DEMO.read_text())), 1000)
    visits = Counter()
    production, qc = model.production, model.qc
    production.try_dispatch = counting("try_dispatch", production.try_dispatch, visits)
    qc.pump = counting("pool_sweeps", qc.pump, visits)
    for pool in qc.pools:
        pool.pump = counting("pool_pumps", pool.pump, visits)

    draws = 0
    random = HashStream.random

    def counted_random(stream):
        nonlocal draws
        draws += 1
        return random(stream)

    monkeypatch.setattr(HashStream, "random", counted_random)
    model.run()
    assert dict(popped) == EVENTS
    assert sum(popped.values()) == 15176
    assert draws == DRAWS
    assert dict(visits) == C_PHASE

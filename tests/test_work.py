"""The replication kernel's work, pinned: one demo replication pops a fixed
number of events of each kind and draws a fixed number of uniforms.

A change that makes the kernel cheaper per event must not make it do more (or
other) work; the store bytes would catch a different answer, these counts catch
the same answer reached by extra events or draws. Events are counted through
the handlers registered with ``Engine.on``, draws through ``HashStream.random``.
"""

from collections import Counter
from pathlib import Path

import yaml

import vaxsim
from vaxsim.config import parse_config
from vaxsim.engine import HashStream
from vaxsim.model import Model

DEMO = Path(vaxsim.__file__).parent / "configs" / "demo.yaml"

EVENTS = {"proc_done": 3218, "task_done": 9004, "po_place": 26,
          "po_step": 2928, "maint_start": 6, "maint_end": 6}
DRAWS = 28687


def test_demo_replication_work(monkeypatch):
    model = Model(parse_config(yaml.safe_load(DEMO.read_text())), 1000)
    popped = Counter()
    handlers = model.engine.handlers

    def counting(kind, handler):
        def run(ev):
            popped[kind] += 1
            handler(ev)
        return run

    for kind, handler in list(handlers.items()):
        handlers[kind] = counting(kind, handler)

    draws = 0
    random = HashStream.random

    def counted_random(stream):
        nonlocal draws
        draws += 1
        return random(stream)

    monkeypatch.setattr(HashStream, "random", counted_random)
    model.run()
    assert dict(popped) == EVENTS
    assert sum(popped.values()) == 15188
    assert draws == DRAWS

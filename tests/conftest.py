"""Shared config builders for the test suite."""

import copy
import math
import sys

import pytest

from vaxsim.config import parse_config
from vaxsim.production import RELEASED

# Deterministic 3-stage chain: 1/2/3-day constant processing, single machines,
# unbounded buffers, no QC, no materials. First release lands at day 6 and the
# bottleneck stage spaces releases exactly 3 days apart.
CHAIN = {
    "model": {"start_date": "2025-04-01", "end_date": "2028-03-31"},
    "inventories": [
        {"id": "buf_1"},
        {"id": "buf_2"},
        {"id": "finished"},
    ],
    "stages": [
        {"id": "prep", "machines": 1, "processing_time": {"constant": 1.0},
         "output_inventory": "buf_1"},
        {"id": "mix", "machines": 1, "processing_time": {"constant": 2.0},
         "output_inventory": "buf_2"},
        {"id": "fill", "machines": 1, "processing_time": {"constant": 3.0},
         "output_inventory": "finished",
         "doses_per_batch": 1000},
    ],
}


def chain_dict(**model_overrides):
    d = copy.deepcopy(CHAIN)
    d["model"].update(model_overrides)
    return d


def chain_config(**model_overrides):
    return parse_config(chain_dict(**model_overrides))


@pytest.fixture
def chain_cfg():
    return chain_config()


def assert_books_balance(model, result) -> None:
    """The plant's books balance at the end of ``model``'s run, which
    returned ``result``: every batch is released, discarded or still live;
    the released doses are those of the released batches; each material's
    stock is its initial stockpile plus receipts less use; and each pool's
    queue time is the waits of the tasks it started, of the tasks a purge
    dropped, and so far of the tasks still queued at the horizon.
    """
    counts = result.counts
    assert counts["batches_created"] == (counts["batches_released"]
                                         + counts["batches_discarded"]
                                         + len(model.collect.live_batches()))
    assert sum(result.series["released_doses"]) == sum(
        b["doses"] for b in result.batches if b["state"] == RELEASED)
    for m in model.cfg.materials:
        rt = model.materials.runtimes[m.id]
        books = (m.initial_stockpile + counts[f"material_received.{m.id}"]
                 - counts[f"material_consumed.{m.id}"])
        assert math.isclose(books, rt.on_hand, rel_tol=1e-9, abs_tol=1e-9), \
            f"{m.id}: {books} on the books, {rt.on_hand} on hand"
    horizon = model.engine.clock.horizon_days
    for pool in model.qc.pools:
        waits = (counts[f"pool_wait_days.{pool.name}"]
                 + counts[f"pool_purged_wait_days.{pool.name}"]
                 + sum(horizon - task.enqueued_at for _, _, task in pool._heap))
        queued = counts[f"pool_queue_days.{pool.name}"]
        assert math.isclose(waits, queued, rel_tol=1e-9, abs_tol=1e-9), \
            f"{pool.name}: {waits} days of waits, {queued} days queued"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per whole-system check (see test_acceptance)."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("whole-system checks")
    for label, status, detail in sorted(results,
                                        key=lambda r: int(r[0].split()[0][1:])):
        terminalreporter.write_line(f"{status} {label}: {detail}")

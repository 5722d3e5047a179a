"""Shared config builders and batch-log helpers for the test suite."""

import copy
import math
import sys
from array import array

import pytest

from vaxsim.config import parse_config
from vaxsim.metrics import rank_resources
from vaxsim.model import BatchLog
from vaxsim.production import BATCH_COLUMNS, CODES, RELEASED
from vaxsim.report import UTILIZATION, _daily_mean_block

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


def batch_rows(result) -> list[dict]:
    """The batch log of ``result`` as one dict per batch: its id (position
    + 1), the name each code stands for, and None for an absent time."""
    log = result.batches
    columns = [[CODES[name][c] for c in log[name]] if name in CODES
               else [None if v != v else v for v in log[name]] if code == "d"
               else list(log[name]) for name, code in BATCH_COLUMNS]
    fields = ["id", *(name for name, _ in BATCH_COLUMNS)]
    return [dict(zip(fields, (k, *row))) for k, row in enumerate(zip(*columns), 1)]


def batch_log(rows) -> BatchLog:
    """The columnar log of batches given as dicts of every column's field,
    a coded one by name and an absent time as None; ``batch_rows`` undone."""
    return BatchLog({name: array(code, [
        CODES[name].index(r[name]) if name in CODES
        else math.nan if r[name] is None else r[name] for r in rows])
        for name, code in BATCH_COLUMNS})


def report_ranking(results) -> list[dict]:
    """The bottleneck ranking ``write_report`` gives ``results`` as its base
    ensemble: means taken from its utilization block."""
    utilization: dict[str, float] = {}
    _daily_mean_block("base", results, UTILIZATION, utilization)
    return rank_resources(utilization)


def exact(rows) -> list[dict]:
    """Ranking rows with each utilization as its bits."""
    return [{**row, "utilization": row["utilization"].hex()} for row in rows]


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
    log, released = result.batches, CODES["state"].index(RELEASED)
    assert sum(result.series["released_doses"]) == sum(
        doses for doses, state in zip(log["doses"], log["state"]) if state == released)
    for m in model.cfg.materials:
        rt = model.materials.runtimes[m.id]
        books = (m.initial_stockpile + counts[f"material_received.{m.id}"]
                 - counts[f"material_consumed.{m.id}"])
        assert math.isclose(books, rt.on_hand, rel_tol=1e-9, abs_tol=1e-9), \
            f"{m.id}: {books} on the books, {rt.on_hand} on hand"
    horizon = model.engine.horizon_days
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

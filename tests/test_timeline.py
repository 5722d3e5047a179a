"""One stack of dated changes on the conftest chain.

A maintenance window is a ``stages.*.closed: true`` window placed ahead of
the overlay's windows, on the same per-path stack, so the newest window open
on a stage decides whether it is closed. A day's openings play before its
closings, so a window that takes over from another on the day that one
closes never lets the baseline in between.
"""

from datetime import date, timedelta

from vaxsim.config import parse_config
from vaxsim.model import Model
from vaxsim.runner import result_to_ndjson, run_replication
from vaxsim.scenario import parse_scenario

from conftest import chain_dict


def day(n: int) -> str:
    return (date(2025, 4, 1) + timedelta(n)).isoformat()


def closed_days(maintenance: tuple[int, int], *windows) -> dict[str, float]:
    """Closed machine-days per stage of the chain with maintenance on days
    ``maintenance`` and a ``stages.fill.closed`` window per ``(first day,
    last day, value)`` of ``windows``."""
    d = chain_dict()
    d["maintenance"] = [{"start": day(maintenance[0]), "end": day(maintenance[1])}]
    cfg = parse_config(d)
    spec = parse_scenario({"name": "fill", "modifications": [
        {"window": {"start": day(a), "end": day(b)}, "set": {"stages.fill.closed": value}}
        for a, b, value in windows]}, cfg)
    counts = Model(cfg, seed=1, spec=spec).run().counts
    return {s: counts[f"stage_closed_days.{s}"] for s in ("prep", "mix", "fill")}


def test_an_overlay_closure_over_maintenance_closes_the_union_of_their_days():
    assert closed_days((20, 29), (25, 34, True)) == {"prep": 10.0, "mix": 10.0, "fill": 15.0}
    assert closed_days((20, 29), (12, 22, True)) == {"prep": 10.0, "mix": 10.0, "fill": 18.0}


def test_an_open_window_opened_inside_maintenance_keeps_its_stage_open():
    # fill is open on days 23..26 while both windows are open
    assert closed_days((20, 29), (23, 26, False)) == {"prep": 10.0, "mix": 10.0, "fill": 6.0}
    # opened on maintenance's first day, it still comes after it
    assert closed_days((20, 29), (20, 22, False)) == {"prep": 10.0, "mix": 10.0, "fill": 7.0}


def test_maintenance_overrides_an_open_window_opened_before_it():
    assert closed_days((20, 29), (15, 24, False)) == {"prep": 10.0, "mix": 10.0, "fill": 10.0}
    assert closed_days((20, 29), (15, 34, False)) == {"prep": 10.0, "mix": 10.0, "fill": 10.0}


def replication(raw: dict, overlay: dict | None = None) -> bytes:
    """The store file of the seed-1 replication of ``raw`` under ``overlay``."""
    return result_to_ndjson(run_replication(raw, overlay, 1))


def with_maintenance(*windows) -> dict:
    """The chain with a maintenance window per ``(first day, last day)``."""
    d = chain_dict()
    d["maintenance"] = [{"start": day(a), "end": day(b)} for a, b in windows]
    return d


def test_split_maintenance_writes_the_replication_of_the_merged_window():
    merged = replication(with_maintenance((20, 39)))
    for windows in (((20, 34), (25, 39)),   # overlapping
                    ((20, 29), (29, 39)),   # touching: one shared day
                    ((20, 29), (30, 39)),   # adjacent: one hands over to the next
                    ((30, 39), (20, 29)),   # adjacent, listed out of date order
                    ((20, 39), (25, 29))):  # nested
        assert replication(with_maintenance(*windows)) == merged, windows


def test_back_to_back_overlay_windows_write_the_replication_of_one_window():
    def closing_prep(*windows):
        return {"name": "prep", "modifications": [
            {"window": {"start": day(a), "end": day(b)}, "set": {"stages.prep.closed": True}}
            for a, b in windows]}

    spanning = replication(chain_dict(), closing_prep((20, 39)))
    assert replication(chain_dict(), closing_prep((20, 29), (30, 39))) == spanning
    assert replication(chain_dict(), closing_prep((30, 39), (20, 29))) == spanning

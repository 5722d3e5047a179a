"""One stack of dated changes on the conftest chain.

A maintenance window is a ``stages.*.closed: true`` window placed ahead of
the overlay's windows, on the same per-path stack, so the newest window open
on a stage decides whether it is closed.
"""

from datetime import date, timedelta

from vaxsim.config import parse_config
from vaxsim.model import Model
from vaxsim.scenario import ScenarioRuntime, parse_scenario

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
    counts = Model(cfg, seed=1, scenario=ScenarioRuntime(spec)).run().counts
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

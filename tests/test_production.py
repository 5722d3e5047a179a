"""Batch flow: dispatch preconditions, blocking, stalling, maintenance."""

import copy

import pytest

from vaxsim.config import ConfigError, parse_config
from vaxsim.model import Model
from vaxsim.production import STALLED, Batch
from vaxsim.runner import result_to_ndjson

from conftest import batch_rows, chain_dict


def released(result):
    return [b for b in batch_rows(result) if b["state"] == "released"]


def test_deterministic_chain_first_exit_and_interval():
    # critical path 1+2+3 = 6 days; the 3-day stage paces steady state
    m = Model(parse_config(chain_dict()), seed=1)
    res = m.run()
    times = sorted(b["released_at"] for b in released(res))
    assert times[0] == 6.0
    diffs = [b - a for a, b in zip(times, times[1:])]
    assert all(d == 3.0 for d in diffs)


def test_throughput_matches_bottleneck_rate():
    m = Model(parse_config(chain_dict()), seed=1)
    res = m.run()
    # 1095-day horizon, one release per 3 days from day 6; the release that
    # would fall on day 1095 is at the horizon instant, which is not simulated
    expect = (1095 - 1 - 6) // 3 + 1
    assert res.counts["batches_released"] == expect
    assert res.counts["released_doses"] == expect * 1000


def test_identity_yield_and_doses():
    m = Model(parse_config(chain_dict()), seed=3)
    res = m.run()
    assert all(b["doses"] == 1000 for b in released(res))


@pytest.mark.parametrize("handoff", [False, True])
def test_inputs_and_final_inventory_follow_the_stage_chain(handoff):
    d = chain_dict()
    if handoff:  # prep hands straight to mix
        d["stages"][0]["output_inventory"] = None
        del d["inventories"][0]
    prod = Model(parse_config(d), seed=1).production
    prep, mix, fill = prod.stages
    invs = prod.inventories
    assert prep.input_inv is None  # the unbounded batch source
    assert mix.input_inv is prep.output_inv is invs.get("buf_1")
    assert prep.handoff is (mix if handoff else None)
    assert fill.input_inv is mix.output_inv is invs["buf_2"]
    assert prod.final_inv is fill.output_inv is invs["finished"]
    # a push notifies the stage after the inventory of input; a pop notifies
    # the stage before it of space, and a removal does that and tells the
    # stage after it that its input is lost. The chain has no QC, so a batch
    # pushed into the final inventory is released, and removed, at once.
    told = []
    for stage in prod.stages:
        stage.notify = lambda change, sid=stage.id: told.append((sid, change))

    def telling(action, *args):
        told.clear()
        action(*args)
        return list(told)

    pushed, removed = [], []
    for stage in prod.stages:
        if stage.output_inv is not None:
            batch = Batch(99, 0.0, stages_entered=stage.idx + 1)
            pushed.append(telling(prod._place_output, stage, batch))
            if batch in stage.output_inv.contents:
                removed.append(telling(prod.remove_batch, batch))
    assert pushed == [*([] if handoff else [[("mix", "input")]]),
                      [("fill", "input")], [("fill", "space")]]
    assert removed == [*([] if handoff else [[("prep", "space"), ("mix", "input_lost")]]),
                       [("mix", "space"), ("fill", "input_lost")]]
    # mix takes its input: off buf_1, or off a machine of prep that stalled
    batch = Batch(99, 0.0, stages_entered=1)
    if handoff:
        donor = prep.machines[0]
        donor.state, donor.batch, donor.finish_time = STALLED, batch, 0.0
    else:
        prep.output_inv.contents.append(batch)
    assert telling(prod.try_dispatch, mix) == [("prep", "machine" if handoff else "space")]
    assert mix.machines[0].batch is batch


def test_finite_buffer_blocks_and_recovers():
    d = chain_dict()
    d["inventories"][1]["capacity"] = 1  # buf_2 holds one batch
    m = Model(parse_config(d), seed=1)
    res = m.run()
    times = sorted(b["released_at"] for b in released(res))
    # bottleneck pace is unchanged; the buffer just caps the queue ahead of it
    assert times[0] == 6.0
    assert all(b - a == 3.0 for a, b in zip(times, times[1:]))


def test_direct_handoff_stalls_until_downstream_takes():
    d = chain_dict()
    d["stages"][0]["output_inventory"] = None
    del d["inventories"][0]
    m = Model(parse_config(d), seed=1)
    res = m.run()
    times = sorted(b["released_at"] for b in released(res))
    assert times[0] == 6.0
    assert all(b - a == 3.0 for a, b in zip(times, times[1:]))


def test_fewer_upstream_starts_when_buffer_finite():
    d = chain_dict()
    d["inventories"][0]["capacity"] = 2
    d["inventories"][1]["capacity"] = 2
    m = Model(parse_config(d), seed=1)
    res = m.run()
    # capped WIP: created stays within released + in-flight + buffered
    assert res.counts["batches_created"] - res.counts["batches_released"] <= 7


def test_material_shortage_blocks_dispatch():
    d = chain_dict()
    d["materials"] = [{
        "id": "resin", "initial_stockpile": 4.0, "reorder_point": 0,
        "safety_stock": 0, "lot_size": 1,
        "suppliers": [{"id": "s", "split": 1.0, "lead_time": {"constant": 10000.0}}],
    }]
    d["stages"][0]["materials"] = {"resin": 1.0}
    m = Model(parse_config(d), seed=1)
    res = m.run()
    # four batches ever start; stockout persists to the horizon
    assert res.counts["batches_created"] == 4
    assert res.counts["material_stockout_days.resin"] > 1000


def test_maintenance_suspends_and_resumes_processing():
    d = chain_dict()
    # window covers days 9..10 (start date 2025-04-01): 2 full days
    d["maintenance"] = [{"start": "2025-04-10", "end": "2025-04-11"}]
    m = Model(parse_config(d), seed=1)
    res = m.run()
    times = sorted(b["released_at"] for b in released(res))
    # releases at 6.0 then 9.0 land exactly at the window start (t=9.0 event
    # precedes the closure scheduled later that instant); the next exit keeps
    # its remaining time across the 2-day closure
    assert times[0] == 6.0
    assert times[1] == 9.0
    assert times[2] == 14.0
    late = [t for t in times if t > 20]
    assert all(b - a == 3.0 for a, b in zip(late, late[1:]))


def test_a_maintenance_window_opening_before_the_start_date_is_open_from_it():
    """A window from before start_date into the horizon closes the plant from
    t = 0: its replication writes the bytes of one that opens on start_date."""
    written = []
    for start in ("2025-03-25", "2025-04-01"):
        d = chain_dict()
        d["maintenance"] = [{"start": start, "end": "2025-04-05"}]
        res = Model(parse_config(d), seed=1).run()
        assert res.counts["stage_closed_days.prep"] == 5.0
        written.append(result_to_ndjson(res))
    assert written[0] == written[1]


def test_stage_closure_flag_suspends_one_stage():
    d = chain_dict()
    cfg = parse_config(d)
    m = Model(cfg, seed=1)
    # close the bottleneck stage for days [10, 12) by flipping its config flag
    def close(ev):
        cfg.stages[2].closed = True
        m.production.closure_changed(cfg.stages[2])
    def reopen(ev):
        cfg.stages[2].closed = False
        m.production.closure_changed(cfg.stages[2])
    m.engine.schedule(10.0, close)
    m.engine.schedule(12.0, reopen)
    res = m.run()
    times = sorted(b["released_at"] for b in released(res))
    assert times[0] == 6.0 and times[1] == 9.0
    assert times[2] == 14.0  # finish time 12.0 shifted by the 2-day closure
    assert res.counts["stage_closed_days.fill"] == 2.0


def test_utilization_bounded_and_consistent():
    d = chain_dict()
    d["inventories"][0]["capacity"] = 1
    d["inventories"][1]["capacity"] = 1
    # paced by the 3-day stage; stalled time does not count as busy
    m = Model(parse_config(d), seed=1)
    res = m.run()
    for sid, expected in (("prep", 1 / 3), ("mix", 2 / 3), ("fill", 1.0)):
        series = res.series[f"stage_util.{sid}"]
        assert all(0.0 <= u <= 1.0 for u in series)
        mean = sum(series) / len(series)
        assert abs(mean - expected) < 0.02


def test_conservation_of_batches():
    d = chain_dict()
    d["inventories"][0]["capacity"] = 3
    m = Model(parse_config(d), seed=1)
    res = m.run()
    in_machines = sum(1 for s in m.production.stages for mc in s.machines if mc.batch)
    in_inventories = sum(len(i.contents) for i in m.production.inventories.values())
    assert res.counts["batches_created"] == (
        res.counts["batches_released"] + res.counts["batches_discarded"]
        + in_machines + in_inventories)


def test_stage_closed_only_by_an_overlay():
    d = chain_dict()
    d["stages"][2]["closed"] = False
    assert parse_config(d).stages[2].closed is False
    d["stages"][2]["closed"] = True
    with pytest.raises(ConfigError, match="closed only by a scenario overlay"):
        parse_config(d)


def test_result_series_are_written_in_place_during_the_run():
    m = Model(parse_config(chain_dict(end_date="2025-04-21")), seed=1)  # 20 days
    series = m.collect.series
    assert {len(v) for v in series.values()} == {20}
    seen = {}
    m.engine.schedule(10.5, lambda ev: seen.update(
        doses=list(series["released_doses"]), fill=list(series["stage_util.fill"])))
    res = m.run()
    assert res.series is series
    # by t = 10.5 the releases at 6 and 9 and ten day ticks are written
    assert seen["doses"][:10] == [0, 0, 0, 0, 0, 0, 1000, 0, 0, 1000]
    assert not any(seen["doses"][10:])
    assert seen["fill"][9] == 1.0 and not any(seen["fill"][10:])
    assert list(res.series["released_doses"][:10]) == seen["doses"][:10]

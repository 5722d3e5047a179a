"""Replenishment arithmetic, supplier splits, receipt QC, stockout ledger."""

from types import SimpleNamespace

import pytest

from vaxsim.config import parse_config
from vaxsim.materials import Materials
from vaxsim.model import Model

from conftest import batch_rows


def single_stage(horizon_end="2028-03-31", consumption=1.0, **mat):
    d = {
        "model": {"start_date": "2025-04-01", "end_date": horizon_end},
        "inventories": [{"id": "finished"}],
        "stages": [{"id": "fill", "machines": 1,
                    "processing_time": {"constant": 3.0},
                    "output_inventory": "finished", "doses_per_batch": 1000}],
        "materials": [dict(mat, id="resin")],
    }
    if consumption:
        d["stages"][0]["materials"] = {"resin": consumption}
    return d


def one_supplier(**kw):
    return [dict({"id": "s"}, **kw)]


# -- order sizing --------------------------------------------------------

def test_order_lifts_position_strictly_above_target():
    # position 5 against reorder point 10 + safety 2: two lots of 4 -> 13
    d = single_stage(consumption=0, initial_stockpile=5.0, reorder_point=10.0,
                     safety_stock=2.0, lot_size=4.0,
                     suppliers=one_supplier(lead_time=1000.0))
    m = Model(parse_config(d), seed=1)
    rt = m.materials.runtimes["resin"]
    assert rt.on_order == 8.0
    assert rt.position == 13.0


def test_no_order_while_position_above_reorder_point():
    d = single_stage(consumption=0, initial_stockpile=11.0, reorder_point=10.0,
                     safety_stock=5.0, lot_size=4.0,
                     suppliers=one_supplier(lead_time=1000.0))
    m = Model(parse_config(d), seed=1)
    assert m.materials.runtimes["resin"].on_order == 0.0


def test_split_lots_follows_fractions():
    sup = lambda f: SimpleNamespace(split=f)
    split = Materials._split_lots
    assert [n for _, n in split([sup(0.7), sup(0.3)], 10)] == [7, 3]
    assert [n for _, n in split([sup(0.5), sup(0.5)], 5)] == [3, 2]
    thirds = [sup(1 / 3)] * 3
    assert [n for _, n in split(thirds, 10)] == [4, 3, 3]
    assert [n for _, n in split([sup(1.0)], 7)] == [7]


@pytest.mark.parametrize("splits", [
    [0.9999995], [1.0000005],  # a lone supplier, inside validation's 1e-6
    [0.2, 0.3, 0.5000008], [0.3333332, 0.3333332, 0.3333331],
    [0.6, 0.4],  # the demo's
])
def test_split_lots_allocates_exactly_the_lots(splits):
    lots = 10_000_000
    counts = [n for _, n in Materials._split_lots(
        [SimpleNamespace(split=f) for f in splits], lots)]
    assert sum(counts) == lots
    total = sum(splits)
    for n, f in zip(counts, splits):
        assert n >= 0 and abs(n - lots * f / total) < 1


def test_demo_split_allocates_as_unnormalised_quotas_do():
    """The demo's splits sum to exactly 1.0, so taking them relative to their
    sum changes nothing: the plain largest-remainder split of ``lots * f``."""
    demo = [SimpleNamespace(split=0.6), SimpleNamespace(split=0.4)]
    for lots in range(1, 5001):
        quotas = [lots * 0.6, lots * 0.4]
        base = [int(q) for q in quotas]
        if sum(base) < lots:  # one lot left: the larger remainder, first on a tie
            base[0 if quotas[0] - base[0] >= quotas[1] - base[1] else 1] += 1
        assert [n for _, n in Materials._split_lots(demo, lots)] == base


def test_multi_supplier_order_divides_the_lots():
    d = single_stage(consumption=0, initial_stockpile=0.0, reorder_point=25.0,
                     safety_stock=14.0, lot_size=4.0,
                     suppliers=[
                         {"id": "a", "split": 0.7, "lead_time": 1000.0},
                         {"id": "b", "split": 0.3, "lead_time": 1000.0},
                     ])
    m = Model(parse_config(d), seed=1)
    rt = m.materials.runtimes["resin"]
    # need 39 -> 10 lots -> 7 + 3
    assert rt.on_order == 40.0
    assert rt.po_seq == {"a": 1, "b": 1}


# -- pipeline ------------------------------------------------------------

def test_receipt_pipeline_lead_transit_qc():
    d = single_stage(consumption=0, initial_stockpile=5.0, reorder_point=10.0,
                     safety_stock=2.0, lot_size=4.0,
                     receipt_qc_time=1.0,
                     suppliers=one_supplier(lead_time=5.0, transport_time=2.0))
    res = Model(parse_config(d), seed=1).run()
    level = res.series["material_level.resin"]
    assert level[7] == 5.0    # acceptance lands exactly at t = 5 + 2 + 1
    assert level[8] == 13.0
    assert res.counts["material_received.resin"] == 8.0


def test_rejected_receipt_reorders_immediately():
    d = single_stage("2025-07-09", consumption=0,  # 100-day window
                     initial_stockpile=5.0, reorder_point=10.0,
                     safety_stock=2.0, lot_size=4.0,
                     receipt_qc_time=1.0, receipt_rejection_prob=1.0,
                     suppliers=one_supplier(lead_time=5.0, transport_time=2.0))
    m = Model(parse_config(d), seed=1)
    res = m.run()
    rt = m.materials.runtimes["resin"]
    # an 8-day loop that never lands: rejections at 8, 16, ..., 96, each
    # replaced at once, so the first order plus 12 replacements
    assert rt.po_seq == {"s": 13}
    assert rt.on_order == 8.0
    assert res.counts["material_received.resin"] == 0.0
    assert all(v == 5.0 for v in res.series["material_level.resin"])


def test_stockout_interval_covers_failed_dispatch_days():
    d = single_stage(initial_stockpile=4.0, reorder_point=2.0,
                     lot_size=1000.0,
                     suppliers=one_supplier(lead_time=10.0))
    res = Model(parse_config(d), seed=1).run()
    flags = res.series["material_stockout.resin"]
    # consumed at 0/3/6/9; dispatch fails at 12; the lot ordered at t=3
    # arrives at 13 and production resumes the same instant
    assert res.counts["material_stockout_days.resin"] == 1
    assert flags[12] == 1
    assert sum(flags) == 1
    released = sorted(b["released_at"] for b in batch_rows(res)
                      if b["state"] == "released")
    assert released[:5] == [3.0, 6.0, 9.0, 12.0, 16.0]


def test_min_interarrival_defers_but_counts_position():
    d = single_stage("2025-05-10",  # 40 days
                    initial_stockpile=0.0, reorder_point=10.0,
                    lot_size=5.0,
                    suppliers=one_supplier(lead_time=5.0, min_interarrival=30.0))
    m = Model(parse_config(d), seed=1)
    res = m.run()
    rt = m.materials.runtimes["resin"]
    # t=0: 3 lots; t=17: 1 lot deferred to 30; t=32: 1 lot deferred to 60.
    # while an order is deferred the position reflects it, so no duplicates.
    assert rt.po_seq == {"s": 3}
    assert rt.last_order["s"] == 60.0
    assert res.counts["material_received.resin"] == 20.0
    assert res.counts["material_stockout_days.resin"] == 5  # days 0-4


def test_unavailable_material_parks_receipts_until_restored():
    d = single_stage(consumption=0, initial_stockpile=0.0, reorder_point=5.0,
                     lot_size=10.0, receipt_qc_time=1.0,
                     suppliers=one_supplier(lead_time=5.0, transport_time=2.0))
    cfg = parse_config(d)
    m = Model(cfg, seed=1)
    mat = cfg.materials[0]
    def cut(ev):
        mat.available = False
        m.materials.availability_changed(mat)
    def restore(ev):
        mat.available = True
        m.materials.availability_changed(mat)
    m.engine.schedule(6.0, cut)
    m.engine.schedule(20.0, restore)
    res = m.run()
    level = res.series["material_level.resin"]
    # transit ends at 7 into a parked state; QC only runs 20 -> 21
    assert level[19] == 0.0
    assert level[21] == 10.0
    assert not m.materials.runtimes["resin"].parked
    assert res.counts["material_received.resin"] == 10.0

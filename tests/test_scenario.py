"""Overlay parsing, windowed overrides, reverts, and WIP resets."""

from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import yaml

from vaxsim.config import ConfigError, config_to_dict, parse_config
from vaxsim.engine import Capacity
from vaxsim.model import Model
from vaxsim.runner import result_to_ndjson, run_replication
from vaxsim.scenario import parse_scenario

from conftest import batch_rows, chain_dict
from test_qaqc import qc_chain
from test_runner import CONFIGS


def overlay(*mod_nodes, name="what-if"):
    return {"name": name, "modifications": list(mod_nodes)}


def window(start, end, **sets):
    return {"window": {"start": start, "end": end}, "set": sets}


def released_times(res):
    return sorted(b["released_at"] for b in batch_rows(res)
                  if b["state"] == "released")


# -- parsing and validation ----------------------------------------------

def test_empty_overlay_collapses_to_base(chain_cfg):
    spec = parse_scenario({}, chain_cfg)
    assert spec.is_empty
    assert spec.name == "base"
    spec = parse_scenario(None, chain_cfg)
    assert spec.name == "base"


def test_unknown_target_rejected(chain_cfg):
    with pytest.raises(ConfigError, match="nonexistent"):
        parse_scenario(overlay(
            window("2025-05-01", "2025-05-10", **{"stages.nonexistent.closed": True})),
            chain_cfg)


def test_open_ended_window_requires_no_revert(chain_cfg):
    node = {"window": {"start": "2025-05-01"},
            "set": {"stages.fill.closed": True}}
    with pytest.raises(ConfigError, match="revert"):
        parse_scenario(overlay(node), chain_cfg)
    node["revert"] = False
    spec = parse_scenario(overlay(node), chain_cfg)
    assert spec.modifications[0].end is None


def test_window_outside_horizon_rejected(chain_cfg):
    with pytest.raises(ConfigError, match="outside the horizon"):
        parse_scenario(overlay(
            window("2031-01-01", "2031-02-01", **{"stages.fill.closed": True})),
            chain_cfg)


@pytest.mark.parametrize("node", [
    window("2028-03-31", "2028-03-31", **{"qa.reviewers": 9}),
    {"window": {"start": "2028-03-31"}, "set": {"qa.reviewers": 9}, "revert": False},
    {"action": "reset_wip", "at": "2028-03-31"},
])
def test_a_step_on_the_end_date_is_refused(chain_cfg, node):
    """end_date is the first day not simulated: a window opening on it, or a
    reset there, would act at the horizon instant alone."""
    with pytest.raises(ConfigError, match="starts on or after the simulation end"):
        parse_scenario(overlay(node), chain_cfg)
    day_before = {k: dict(v, start="2028-03-30") if k == "window" else
                  "2028-03-30" if k == "at" else v for k, v in node.items()}
    assert not parse_scenario(overlay(day_before), chain_cfg).is_empty


def test_value_must_coerce_against_baseline(chain_cfg):
    with pytest.raises(ConfigError):
        parse_scenario(overlay(
            window("2025-05-01", "2025-05-10",
                   **{"stages.fill.closed": "definitely"})),
            chain_cfg)


def test_an_unreadable_value_names_its_target(chain_cfg):
    def messages(*nodes):
        with pytest.raises(ConfigError) as err:
            parse_scenario(overlay(*nodes), chain_cfg)
        return err.value.errors

    assert messages(window("2025-05-01", "2025-05-10",
                           **{"stages.fill.closed": "definitely"})) == [
        "target 'stages.fill.closed': expected true or false, got 'definitely'"]
    assert messages(window("2025-05-01", "2025-05-10",
                           **{"stages.fill.closed": {"scale": 2}})) == [
        "target 'stages.fill.closed': False cannot be scaled"]
    # every bad modification is reported, in overlay order
    assert messages(
        window("2025-05-01", "2025-05-10", **{"stages.bogus.closed": True}),
        window("2025-05-01", "2025-05-10", **{"stages.fill.closed": "definitely"})) == [
        "target 'stages.bogus.closed': no element with id 'bogus'",
        "target 'stages.fill.closed': expected true or false, got 'definitely'"]


# -- runtime behavior ----------------------------------------------------

def test_closure_window_pauses_the_stage_and_reverts():
    cfg = parse_config(chain_dict())
    spec = parse_scenario(overlay(
        # days 10..19 inclusive
        window("2025-04-11", "2025-04-20", **{"stages.fill.closed": True})),
        cfg)
    res = Model(cfg, seed=1, spec=spec).run()
    times = released_times(res)
    # the batch running since t=9 keeps its 2 remaining days across the gap
    assert times[:4] == [6.0, 9.0, 22.0, 25.0]
    assert res.counts["stage_closed_days.fill"] == 10.0
    assert cfg.stages[2].closed is False
    assert res.scenario == "what-if"


def day(n: int) -> str:
    return (date(2025, 4, 1) + timedelta(n)).isoformat()


def test_an_overlay_closes_a_stage_for_whole_days():
    """Closed for days [a, b]: each of those days reads closed all day and no
    other does, and the closed machine-days are machines x days."""
    d = chain_dict()
    d["stages"][1]["machines"] = 2  # mix: kept busy from day 1 while open
    cfg = parse_config(d)
    a, b = 20, 26
    spec = parse_scenario(overlay(window(day(a), day(b), **{"stages.mix.closed": True})), cfg)
    res = Model(cfg, seed=1, spec=spec).run()
    assert res.counts["stage_closed_days.mix"] == 2.0 * (b - a + 1)
    assert res.counts["stage_closed_days.fill"] == 0.0
    util = res.series["stage_util.mix"]
    assert [k for k in range(1, len(util)) if util[k] == 0.0] == list(range(a, b + 1))


def test_a_resource_with_no_units_in_force_reads_zero():
    """Fill is busy from day 3 and the one reviewer, at 4 days a review of a
    batch filled each 3, from day 6 on. No reviewer on days [20, 26] reads
    0.0 on exactly those days, yet the review running since day 18 finishes
    on day 22 and its 2 days inside the window still count as busy. Fill
    closed on days [60, 64] reads 0.0 on exactly those days and counts them
    as closed machine-days."""
    d = chain_dict()
    d["stages"][2]["document_review"] = True
    d["qa"] = {"reviewers": 1, "document_review_time": 4.0}
    cfg = parse_config(d)
    spec = parse_scenario(overlay(window(day(20), day(26), **{"qa.reviewers": 0}),
                                  window(day(60), day(64), **{"stages.fill.closed": True})),
                          cfg)
    res = Model(cfg, seed=1, spec=spec).run()
    fill, review = res.series["stage_util.fill"], res.series["pool_util.qa_reviewers"]
    assert [k for k in range(3, len(fill)) if fill[k] == 0.0] == list(range(60, 65))
    assert res.counts["stage_closed_days.fill"] == 5.0
    assert [k for k in range(6, len(review)) if review[k] == 0.0] == list(range(20, 27))
    assert res.counts["pool_busy_days.qa_reviewers"] == sum(review) + 2.0


def test_a_resized_pool_reads_its_new_capacity_from_the_day_it_changes():
    """One reviewer takes every 1-day review of a batch released each 3 days
    and never queues, so a second one from day k changes no busy time: the
    daily utilization is the same up to day k - 1 and half from day k on."""
    d = chain_dict()
    d["stages"][2]["document_review"] = True
    d["qa"] = {"reviewers": 1, "document_review_time": 1.0}
    cfg = parse_config(d)
    k = 40
    spec = parse_scenario(overlay({"window": {"start": day(k)}, "set": {"qa.reviewers": 2},
                                   "revert": False}), cfg)
    base = Model(cfg, seed=1).run().series["pool_util.qa_reviewers"]
    two = Model(cfg, seed=1, spec=spec).run().series[
        "pool_util.qa_reviewers"]
    assert any(base[:k]) and any(base[k:])
    assert two[:k] == base[:k]
    assert list(two[k:]) == [u / 2 for u in base[k:]]


def test_capacities_and_closures_change_only_at_whole_days():
    Capacity(1).resize(2, 3.0)
    with pytest.raises(ValueError, match="not at a whole day"):
        Capacity(1).resize(2, 3.5)
    cfg = parse_config(chain_dict())
    m = Model(cfg, seed=1)

    def close(ev):
        cfg.stages[2].closed = True
        m.production.closure_changed(cfg.stages[2])

    m.engine.schedule(10.5, close)
    with pytest.raises(ValueError, match="not at a whole day"):
        m.run()


def test_scaled_distribution_window_slows_and_recovers():
    cfg = parse_config(chain_dict())
    spec = parse_scenario(overlay(
        # days 12..29: fill takes 6 days instead of 3
        window("2025-04-13", "2025-04-30",
               **{"stages.fill.processing_time": {"scale": 2}})),
        cfg)
    res = Model(cfg, seed=1, spec=spec).run()
    times = released_times(res)
    assert times[:8] == [6.0, 9.0, 12.0, 18.0, 24.0, 30.0, 33.0, 36.0]
    assert cfg.stages[2].processing_time.mean() == 3.0


def test_overlapping_windows_last_writer_wins():
    d = qc_chain([{"id": "assay", "team": "lab", "test_time": 1.0}])
    cfg = parse_config(d)
    spec = parse_scenario(overlay(
        window("2025-04-11", "2025-05-10", **{"qc.teams.lab.technicians": 3}),
        window("2025-04-21", "2025-04-30", **{"qc.teams.lab.technicians": 5})),
        cfg)
    m = Model(cfg, seed=1, spec=spec)
    pool = m.qc.tech_pools["lab"]
    seen = {}

    def probe(ev):
        seen.setdefault(ev.time, pool.busy.units)

    for t in (15.0, 25.0, 35.0, 45.0):
        m.engine.schedule(t, probe)
    m.run()
    assert seen == {15.0: 3, 25.0: 5, 35.0: 3, 45.0: 1}
    assert cfg.qc.teams[0].technicians == 1


def test_reset_action_discards_wip_at_the_date():
    cfg = parse_config(chain_dict())
    spec = parse_scenario(overlay(
        {"action": "reset_wip", "at": "2025-04-11"}, name="outage"), cfg)
    res = Model(cfg, seed=1, spec=spec).run()
    lost = [b for b in batch_rows(res) if b["state"] == "discarded"]
    assert len(lost) == 3
    assert all(b["discarded_at"] == 10.0 for b in lost)
    assert all(b["discard_cause"] == "power_outage" for b in lost)


def test_empty_overlay_run_identical_to_plain_base():
    base = Model(parse_config(chain_dict()), seed=7).run()
    cfg = parse_config(chain_dict())
    spec = parse_scenario({}, cfg)
    twin = Model(cfg, seed=7, spec=spec).run()
    assert twin.scenario == "base"
    assert twin.series == base.series
    assert twin.batches == base.batches
    assert twin.counts == base.counts


def test_a_window_that_reverts_on_the_horizon_never_reverts():
    """The demo's ``end_date`` is 2028-03-31, the first day not simulated: a
    window ending on 2028-03-30 reverts at the horizon instant, which no event
    reaches, so it runs the same replication as one ending on the end date."""
    raw = yaml.safe_load((CONFIGS / "demo.yaml").read_text())
    short, full = (run_replication(raw, overlay(
        window("2028-03-01", end, **{"qa.reviewers": 1}), name="one_reviewer"), 9)
        for end in ("2028-03-30", "2028-03-31"))
    assert short.counts["pool_started.qa_reviewers"] == full.counts[
        "pool_started.qa_reviewers"]
    assert result_to_ndjson(short) == result_to_ndjson(full)


def test_parameters_deep_equal_baseline_after_windows_close():
    d = qc_chain([{"id": "assay", "team": "lab", "test_time": 1.0}],
                 qa={"investigators": 1, "oos_investigation_time": 0.5,
                     "deviation_investigation_time": 1.0})
    cfg = parse_config(d)
    snapshot = config_to_dict(cfg)
    spec = parse_scenario(overlay(
        window("2025-04-11", "2025-04-20",
               **{"stages.fill.processing_time": {"scale": 2},
                  "qa.deviation_prob": 0.5}),
        window("2025-04-16", "2025-04-25", **{"stages.mix.closed": True}),
        window("2025-04-13", "2025-04-22", **{"qc.teams.lab.technicians": 4})),
        cfg)
    m = Model(cfg, seed=1, spec=spec)
    mid, done = {}, {}
    def probe(ev):
        (mid if ev.time < 30 else done)["cfg"] = config_to_dict(cfg)
    m.engine.schedule(17.0, probe)
    m.engine.schedule(60.0, probe)
    res = m.run()
    assert mid["cfg"] != snapshot          # overrides really were in force
    assert done["cfg"] == snapshot         # and fully unwound afterwards
    assert config_to_dict(cfg) == snapshot
    assert res.counts["batches_released"] > 300


# -- property: the value in force is the newest open window's ----------------

TIMELINE_DAYS = 16  # window days fall in 0..15 of a 20-day run, so they collide
# two numeric parameters of the one-team, one-test lab, each reachable by a
# wildcard and by its id; how to read each from a running model
PARAMETERS = {
    "technicians": (("qc.teams.*.technicians", "qc.teams.lab.technicians"),
                    st.integers(1, 4), lambda m: m.qc.tech_pools["lab"].busy.units),
    "failure_prob": (("qc.tests.*.failure_prob", "qc.tests.assay.failure_prob"),
                     st.sampled_from([0.0, 0.1, 0.25, 0.5]),
                     lambda m: m.cfg.qc.tests[0].failure_prob),
}


@st.composite
def timeline_windows(draw):
    """(parameter, target, value, first day, last day or None, revert)."""
    param = draw(st.sampled_from(sorted(PARAMETERS)))
    targets, values, _ = PARAMETERS[param]
    start = draw(st.integers(0, TIMELINE_DAYS - 1))
    end = draw(st.none() | st.integers(start, TIMELINE_DAYS - 1))
    revert = end is not None and draw(st.booleans())
    return param, draw(st.sampled_from(targets)), draw(values), start, end, revert


def brute_force_value(windows, param, day, baseline):
    """The value of ``param`` after the events of ``day``: the newest window
    open on it, by opening day and then overlay order, else the baseline."""
    open_ = [(start, i, value) for i, (p, _, value, start, end, revert) in enumerate(windows)
             if p == param and start <= day and not (revert and day > end)]
    return max(open_)[2] if open_ else baseline


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.lists(timeline_windows(), min_size=1, max_size=6))
def test_the_value_in_force_is_the_newest_open_window(windows):
    d = qc_chain([{"id": "assay", "team": "lab", "test_time": 1.0, "failure_prob": 0.05}],
                 technicians=2)
    d["model"]["end_date"] = "2025-04-21"
    cfg = parse_config(d)
    snapshot = config_to_dict(cfg)
    day0 = date(2025, 4, 1)
    nodes = []
    for _, target, value, start, end, revert in windows:
        node = {"window": {"start": (day0 + timedelta(start)).isoformat()},
                "set": {target: value}, "revert": revert}
        if end is not None:
            node["window"]["end"] = (day0 + timedelta(end)).isoformat()
        nodes.append(node)
    m = Model(cfg, seed=1, spec=parse_scenario(overlay(*nodes), cfg))
    seen = {}

    def probe(ev):
        seen[int(ev.time)] = {p: read(m) for p, (_, _, read) in PARAMETERS.items()}

    for day in range(20):
        m.engine.schedule(day + 0.5, probe)
    m.run()
    baseline = {"technicians": 2, "failure_prob": 0.05}
    assert seen == {day: {p: brute_force_value(windows, p, day, baseline[p])
                          for p in PARAMETERS} for day in range(20)}
    assert config_to_dict(cfg) == snapshot


# -- property: every overlay either parses or is a ConfigError ---------------

# every scalar config field reachable by a dot-path before the table of
# settable parameters existed; most are now rejected by design
OLD_PATTERNS = [
    "model.processing_time_multiplier",
    *(f"inventories.*.{f}" for f in ("id", "capacity", "final")),
    *(f"stages.*.{f}" for f in (
        "id", "machines", "processing_time", "input_inventory", "output_inventory",
        "yield_fraction", "doses_per_batch", "milestone", "document_review", "closed")),
    *(f"qc.teams.*.{f}" for f in ("id", "technicians", "supervisors")),
    *(f"qc.tests.*.{f}" for f in (
        "id", "team", "prep_time", "test_time", "check_time", "supervisory_check_time",
        "failure_prob", "ipc")),
    *(f"qa.{f}" for f in (
        "reviewers", "supervisors", "investigators", "release_review_time",
        "release_approval_time", "document_review_time", "oos_investigation_time",
        "deviation_investigation_time", "deviation_prob")),
    *(f"materials.*.{f}" for f in (
        "id", "initial_stockpile", "reorder_point", "safety_stock", "lot_size",
        "receipt_qc_time", "receipt_rejection_prob", "available")),
    *(f"materials.*.suppliers.*.{f}" for f in (
        "id", "split", "lead_time", "transport_time", "min_interarrival")),
]
BOGUS_PATTERNS = ["", "qa", "stages", "stages.*", "stages.*.materials", "model.start_date",
                  "maintenance.*.start", "qc.teams.*.*", "nope.*.closed", "qa.reviewers.x"]
# ids per list section of busy_chain(), plus the wildcard and one that is absent
IDS = {"stages": ["prep", "mix", "fill"], "inventories": ["buf_1", "buf_2", "finished"],
       "teams": ["lab"], "tests": ["ph", "assay"], "materials": ["resin"],
       "suppliers": ["a", "b"]}
HOSTILE = [-3, -1, 0, 0.0, 0.5, "x", "no", None, True, False,
           *({"scale": k} for k in (0, -1, 0.5, 2, "x")),
           {"constant": 0}, {"weibull": [1, 2]}, {"lognormal": {"median": 1}}, [1, 2],
           {"triangular": ["1", "2", "3"]}, {"lognormal": {"median": 1, "scale": 1e17}}]
# values a field of that name could plausibly take, so that half the draws
# get past the type check and reach the range check and the run
PLAUSIBLE = {
    "flag": [True, False],
    "count": [1, 2, 4, {"scale": 2}, {"scale": 0.5}],
    "probability": [0.0, 0.2, 1.0, {"scale": 2}],
    "amount": [0.5, 4, 10, {"scale": 2}],
    "time": [{"triangular": [0.5, 1, 2]}, {"constant": 0.25}, {"scale": 3},
             {"lognormal": {"median": 1, "scale": 1.5}}],
    "yield": [{"triangular": [0.8, 0.9, 1.0]}, {"scale": 0.5}],
    "name": ["lab", "buf_1", "zzz"],
}
KIND_OF = {
    **dict.fromkeys(("closed", "document_review", "final", "ipc", "available"), "flag"),
    **dict.fromkeys(("machines", "doses_per_batch", "technicians", "supervisors",
                     "reviewers", "investigators", "capacity"), "count"),
    **dict.fromkeys(("failure_prob", "deviation_prob", "receipt_rejection_prob", "split"),
                    "probability"),
    **dict.fromkeys(("reorder_point", "safety_stock", "lot_size", "initial_stockpile",
                     "min_interarrival", "processing_time_multiplier"), "amount"),
    "yield_fraction": "yield",
}
DAYS = 60  # 2025-04-01 .. 2025-05-31


def busy_chain():
    """A 60-day chain that touches every section an overlay can target."""
    d = qc_chain([{"id": "ph", "test_time": 0.1, "failure_prob": 0.1},
                  {"id": "assay", "team": "lab", "test_time": 0.5,
                   "supervisory_check_time": 0.2, "failure_prob": 0.1}],
                 technicians=2,
                 qa={"reviewers": 1, "supervisors": 1, "investigators": 1,
                     "document_review_time": 0.3, "release_review_time": 0.4,
                     "release_approval_time": 0.1, "oos_investigation_time": 1.0,
                     "deviation_investigation_time": 0.5, "deviation_prob": 0.1},
                 ipc_on="mix")
    d["model"]["end_date"] = "2025-05-31"
    d["inventories"][1]["capacity"] = 3
    d["stages"][2]["document_review"] = True
    d["stages"][0]["materials"] = {"resin": 1.0}
    d["materials"] = [{
        "id": "resin", "initial_stockpile": 5.0, "reorder_point": 4.0,
        "safety_stock": 2.0, "lot_size": 3.0, "receipt_qc_time": 0.5,
        "receipt_rejection_prob": 0.1,
        "suppliers": [{"id": "a", "split": 0.5, "lead_time": 3.0, "transport_time": 1.0},
                      {"id": "b", "split": 0.5, "lead_time": {"triangular": [2, 4, 6]},
                       "min_interarrival": 2.0}]}]
    return d


@st.composite
def targets(draw):
    tokens = draw(st.sampled_from(OLD_PATTERNS + BOGUS_PATTERNS)).split(".")
    for i, tok in enumerate(tokens):
        if tok == "*":
            ids = IDS.get(tokens[i - 1], []) if i else []
            tokens[i] = draw(st.sampled_from(["*", "bogus", *ids]))
    return ".".join(tokens)


@st.composite
def modifications(draw):
    start = draw(st.integers(0, DAYS))
    window = {"start": (date(2025, 4, 1) + timedelta(start)).isoformat()}
    node = {"window": window, "set": {}}
    for _ in range(draw(st.integers(1, 2))):
        target = draw(targets())
        leaf = target.rsplit(".", 1)[-1]
        kind = KIND_OF.get(leaf, "time" if leaf.endswith("_time") else "name")
        node["set"][target] = draw(st.sampled_from(HOSTILE + PLAUSIBLE[kind] * 2))
    if draw(st.booleans()):
        end = draw(st.integers(start, DAYS))
        window["end"] = (date(2025, 4, 1) + timedelta(end)).isoformat()
    else:
        node["revert"] = False
    return node


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.lists(modifications(), min_size=1, max_size=2))
def test_any_overlay_parses_and_runs_or_is_rejected(mods):
    cfg = parse_config(busy_chain())
    snapshot = config_to_dict(cfg)
    try:
        spec = parse_scenario({"name": "fuzz", "modifications": mods}, cfg)
    except ConfigError:
        assert config_to_dict(cfg) == snapshot
        return
    Model(cfg, seed=3, spec=spec).run()
    assert config_to_dict(cfg) == snapshot

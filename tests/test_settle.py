"""The C-phase visits only awake stages and pools, so the wake rules must miss
nothing: after every settle, nothing may be awake and nothing anywhere may be
able to start.

Whole plants are generated (direct handoff and buffered stages, finite and
unbounded buffers, 1-3 machines, maintenance, materials, QC and QA pools) and
run under overlays that close stages, resize inventories, resize every kind
of pool, make a material unavailable and reset work in progress. After every
run, and after a run of the demo plant under each bundled scenario, the
plant's books must balance.
"""

import copy
from datetime import date, timedelta
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import vaxsim
from conftest import assert_books_balance, chain_config
from vaxsim.config import ConfigError, parse_config
from vaxsim.model import Model
from vaxsim.production import STALLED
from vaxsim.scenario import parse_scenario

START = date(2025, 4, 1)
DAYS = 40
MATERIALS = ("resin", "vials")
TIMES = [{"constant": 0.5}, {"constant": 1.0}, {"triangular": [0.2, 0.6, 1.5]},
         {"lognormal": {"median": 0.7, "scale": 1.5}}]


def day(n: int) -> str:
    return (START + timedelta(n)).isoformat()


@st.composite
def windows(draw):
    start = draw(st.integers(0, DAYS - 1))
    return {"start": day(start), "end": day(draw(st.integers(start, DAYS - 1)))}


@st.composite
def plants(draw):
    """A valid whole config: a chain of 1-4 stages and everything around it."""
    n = draw(st.integers(1, 4))
    used = draw(st.lists(st.sampled_from(MATERIALS), unique=True, max_size=2))
    inventories, stages = [], []
    for i in range(n):
        stage = {"id": f"s{i}", "machines": draw(st.integers(1, 3)),
                 "processing_time": draw(st.sampled_from(TIMES))}
        last = i == n - 1
        if last or draw(st.booleans()):  # else direct handoff to the next stage
            inv = {"id": "done" if last else f"buf{i}",
                   "capacity": draw(st.sampled_from([None, 1, 1, 2]))}
            inventories.append(inv)
            stage["output_inventory"] = inv["id"]
        uses = [m for m in used if draw(st.booleans())]
        if uses:
            stage["materials"] = {m: draw(st.sampled_from([1.0, 2.0])) for m in uses}
        if draw(st.booleans()):
            stage["qc_tests"] = [f"assay{i}"]  # a sample test is sampled at one stage
        if draw(st.booleans()):
            stage["ipc_tests"] = ["ph"]
        stage["document_review"] = draw(st.booleans())
        stages.append(stage)
    stages[-1]["doses_per_batch"] = 100
    # a test no stage lists is rejected, so only the listed ones are declared
    listed = {tid for s in stages for tid in s.get("qc_tests", []) + s.get("ipc_tests", [])}
    assay = {"team": "lab", "test_time": {"triangular": [0.1, 0.3, 0.6]},
             "supervisory_check_time": draw(st.sampled_from([0.0, 0.1])),
             "failure_prob": draw(st.sampled_from([0.0, 0.2]))}
    materials = [{
        "id": m, "initial_stockpile": draw(st.sampled_from([0.0, 2.0, 6.0])),
        "reorder_point": draw(st.sampled_from([0.0, 2.0])), "safety_stock": 1.0,
        "lot_size": draw(st.sampled_from([2.0, 4.0])), "receipt_qc_time": 0.25,
        "receipt_rejection_prob": draw(st.sampled_from([0.0, 0.3])),
        "suppliers": [{"id": "a", "lead_time": draw(st.sampled_from(TIMES)),
                       "transport_time": 0.5}]} for m in used]
    return {
        "model": {"start_date": day(0), "end_date": day(DAYS)},
        "inventories": inventories,
        "stages": stages,
        "qc": {"teams": [{"id": "lab", "technicians": draw(st.integers(0, 2)),
                          "supervisors": draw(st.integers(0, 1))}],
               "tests": [t for t in [*({"id": f"assay{i}", **assay} for i in range(n)),
                                     {"id": "ph", "test_time": 0.05,
                                      "failure_prob": draw(st.sampled_from([0.0, 0.2]))}]
                         if t["id"] in listed]},
        "qa": {"reviewers": draw(st.integers(0, 2)), "supervisors": 1,
               "investigators": 1, "document_review_time": 0.2,
               "release_review_time": draw(st.sampled_from([0.0, 0.2])),
               "release_approval_time": draw(st.sampled_from([0.0, 0.1])),
               "oos_investigation_time": 0.5, "deviation_investigation_time": 0.3,
               "deviation_prob": draw(st.sampled_from([0.0, 0.1]))},
        "materials": materials,
        "maintenance": draw(st.lists(windows(), max_size=2)),
    }


@st.composite
def overlays(draw, plant):
    """0-3 disruptions of ``plant``, each in a window (or open-ended)."""
    stage_ids = [s["id"] for s in plant["stages"]]
    inv_ids = [i["id"] for i in plant["inventories"]]
    material_ids = [m["id"] for m in plant["materials"]]
    choices = [
        st.builds(lambda s: {f"stages.{s}.closed": True}, st.sampled_from(stage_ids)),
        st.builds(lambda i, c: {f"inventories.{i}.capacity": c},
                  st.sampled_from(inv_ids), st.sampled_from([None, 1, 2, 3])),
        *(st.fixed_dictionaries({path: st.integers(0, 1)}) for path in (
            "qc.teams.lab.technicians", "qc.teams.lab.supervisors",
            "qa.reviewers", "qa.supervisors", "qa.investigators")),
    ]
    if material_ids:
        choices.append(st.builds(lambda m: {f"materials.{m}.available": False},
                                 st.sampled_from(material_ids)))
    mods = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 5)) == 0:
            mods.append({"action": "reset_wip", "at": day(draw(st.integers(0, DAYS - 1)))})
            continue
        node = {"window": draw(windows()), "set": draw(st.one_of(choices))}
        if draw(st.integers(0, 3)) == 0:
            del node["window"]["end"]
            node["revert"] = False
        mods.append(node)
    return {"name": "disrupt", "modifications": mods}


def assert_quiescent(model) -> None:
    """Nothing is awake, nothing can start or drain, and a dispatch attempt
    would change nothing and return the reason the stage's last visit ended
    on. Nothing awake is what lets a settle make one stage sweep and one pool
    sweep: a pool start that woke a stage would fail here. A sleeping stage is
    woken only by a change that can alter its reason, so a missed wake fails
    here too, even where it would start nothing. Both wake lists are empty: a
    stage or pool left on one would be visited for nothing at the next settle,
    and would hold a reference cycle once the run ends."""
    prod, materials = model.production, model.materials
    awake = [s.id for s in prod.stages if s.awake] + [p.name for p in model.qc.pools if p.awake]
    assert not awake, f"t={model.engine.now}: {awake} still awake"
    listed = [s.id for s in prod.woken] + [p.name for p in model.qc.woken]
    assert not listed, f"t={model.engine.now}: {listed} still on a wake list"

    def noted(mid):  # a sweep would note a shortfall only once per stockout
        assert materials.runtimes[mid].stockout_since is not None, \
            f"t={model.engine.now}: shortfall of {mid} not yet noted"

    materials.note_shortfall = noted
    try:
        for stage in prod.stages:
            reason = prod.try_dispatch(stage)
            assert reason is not None, \
                f"t={model.engine.now}: {stage.id} could still start"
            assert reason == stage.blocked, \
                f"t={model.engine.now}: {stage.id} is {reason}, asleep on {stage.blocked}"
            if stage.output_inv is not None and not stage.cfg.closed:
                assert not (stage.output_inv.has_space() and
                            any(m.state == STALLED for m in stage.machines)), \
                    f"t={model.engine.now}: {stage.id} could still drain"
    finally:
        del materials.note_shortfall
    for pool in model.qc.pools:
        assert pool.queue_int.value == len(pool._heap), \
            f"t={model.engine.now}: {pool.name} counts another queue than it holds"
        assert not (pool.busy.value < pool.busy.units and pool.queue_int.value), \
            f"t={model.engine.now}: {pool.name} could still start a task"


class CheckedModel(Model):
    def settle(self) -> None:
        super().settle()
        assert_quiescent(self)


@st.composite
def disrupted_plants(draw):
    plant = draw(plants())
    return plant, draw(overlays(plant))


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(disrupted_plants(), st.integers(0, 3))
def test_nothing_startable_after_settle(case, seed):
    plant, overlay = case
    cfg = parse_config(plant)
    model = CheckedModel(cfg, seed, spec=parse_scenario(overlay, cfg))
    assert_books_balance(model, model.run())


HOSTILE = ["x", -1, 0, 1.5, None, True, [1], {"constant": -1}, {"weibull": [1]}, 10 ** 400]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(plants(), st.data())
def test_any_config_parses_and_runs_or_is_rejected(plant, data):
    """One hostile value or unknown key anywhere in a whole config: the config
    is rejected with a ConfigError, or it runs a replication. The plant is
    copied first: its distributions are dicts shared with later examples."""
    plant = copy.deepcopy(plant)
    node = plant
    while True:
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or data.draw(st.booleans()):
            break
        node = child
    if isinstance(node, dict) and data.draw(st.booleans()):
        node[data.draw(st.sampled_from(["bogus", "machiness"]))] = 1
    else:
        node[key] = data.draw(st.sampled_from(HOSTILE))
    try:
        cfg = parse_config(plant)
    except ConfigError:
        return
    model = Model(cfg, seed=1)
    assert_books_balance(model, model.run())


def test_books_balance_on_the_chain_plant():
    model = Model(chain_config(), seed=1)
    assert_books_balance(model, model.run())


CONFIG_DIR = Path(vaxsim.__file__).parent / "configs"


@pytest.mark.parametrize("scenario", [None, *sorted(
    p.stem for p in (CONFIG_DIR / "scenarios").glob("*.yaml"))])
def test_books_balance_on_the_bundled_scenarios(scenario):
    cfg = parse_config(yaml.safe_load((CONFIG_DIR / "demo.yaml").read_text()))
    spec = None
    if scenario is not None:
        overlay = yaml.safe_load((CONFIG_DIR / "scenarios" / f"{scenario}.yaml").read_text())
        spec = parse_scenario(overlay, cfg)
    model = Model(cfg, 100, spec=spec)
    assert_books_balance(model, model.run())

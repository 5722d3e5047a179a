"""Schema validation, error collection, canonical form, overlay targets and values."""

from datetime import timedelta

import pytest

from vaxsim.config import ConfigError, config_hash, config_to_dict, parse_config
from vaxsim.distributions import Distribution, constant
from vaxsim.model import Model
from vaxsim.scenario import parse_scenario

from conftest import chain_dict
from test_scenario import busy_chain


def test_minimal_chain_parses(chain_cfg):
    assert [s.id for s in chain_cfg.stages] == ["prep", "mix", "fill"]
    assert [s.output_inventory for s in chain_cfg.stages] == ["buf_1", "buf_2", "finished"]
    assert chain_cfg.stages[2].doses_per_batch == 1000


def test_all_errors_reported_at_once():
    d = chain_dict()
    d["stages"][0]["processing_time"] = {"triangular": [12, 8, 6]}
    d["materials"] = [{
        "id": "vials", "initial_stockpile": 10, "reorder_point": 5,
        "safety_stock": 1, "lot_size": 4,
        "suppliers": [
            {"id": "a", "split": 0.7, "lead_time": 1.0},
            {"id": "b", "split": 0.4, "lead_time": 1.0},
        ],
    }]
    with pytest.raises(ConfigError) as err:
        parse_config(d)
    text = str(err.value)
    assert "min <= mode <= max" in text
    assert "splits sum to 1.1" in text


@pytest.mark.parametrize("section", ["model", "qc", "qa"])
@pytest.mark.parametrize("value", [0, 5, 0.0, False, True, [], [1], "", "x"])
def test_a_section_that_is_not_a_mapping_is_rejected(section, value):
    d = chain_dict()
    d[section] = value
    with pytest.raises(ConfigError) as err:
        parse_config(d)
    assert f"{section}: must be a mapping" in err.value.errors


def test_an_empty_section_keeps_every_default():
    d = chain_dict()
    d["qa"] = None
    assert config_to_dict(parse_config(d)) == config_to_dict(parse_config(chain_dict()))


@pytest.mark.parametrize("section, index, key, value, where", [
    ("stages", 1, "input_inventory", "buf_1", "stages.mix"),
    ("inventories", 2, "final", True, "inventories.finished"),
    ("tests", 0, "ipc", True, "qc.tests.ph"),
])
def test_keys_the_stage_chain_implies_are_unknown(section, index, key, value, where):
    # a stage's input, the final inventory and a test's in-process role all
    # follow from the stage chain, so none of them is declared
    d = chain_dict()
    d["qc"] = {"tests": [{"id": "ph", "test_time": 0.1}]}
    d["stages"][1]["ipc_tests"] = ["ph"]
    node = d["qc"]["tests"] if section == "tests" else d[section]
    node[index][key] = value
    with pytest.raises(ConfigError) as err:
        parse_config(d)
    assert err.value.errors == [f"{where}: unknown key {key!r}"]


def test_each_inventory_is_the_output_of_one_stage():
    # mix would draw from the buffer it fills, and fill would draw from it too
    d = chain_dict()
    d["stages"][1]["output_inventory"] = "buf_1"
    with pytest.raises(ConfigError) as err:
        parse_config(d)
    assert sorted(err.value.errors) == [
        "inventories.buf_1: output of more than one stage ['prep', 'mix']",
        "inventories.buf_2: not referenced by any stage",
    ]


@pytest.mark.parametrize("output, message", [
    (None, "stages.fill: final stage must output to a declared inventory"),
    ("nope", "stages.fill: unknown inventory 'nope'"),
])
def test_final_stage_outputs_to_a_declared_inventory(output, message):
    d = chain_dict()
    d["stages"][2]["output_inventory"] = output
    with pytest.raises(ConfigError) as err:
        parse_config(d)
    assert err.value.errors == [message, "inventories.finished: not referenced by any stage"]


def test_doses_only_on_final_stage():
    d = chain_dict()
    d["stages"][0]["doses_per_batch"] = 5
    with pytest.raises(ConfigError, match="final-stage only"):
        parse_config(d)


def test_final_stage_needs_doses():
    d = chain_dict()
    d["stages"][2]["doses_per_batch"] = 0
    with pytest.raises(ConfigError, match="doses_per_batch > 0"):
        parse_config(d)


def test_direct_handoff_chain_allowed():
    d = chain_dict()
    # prep hands straight to mix, no buffer in between
    d["stages"][0]["output_inventory"] = None
    del d["inventories"][0]
    cfg = parse_config(d)
    assert cfg.stages[0].output_inventory is None


def test_unreferenced_inventory_rejected():
    d = chain_dict()
    d["inventories"].append({"id": "orphan"})
    with pytest.raises(ConfigError, match="not referenced"):
        parse_config(d)


def test_each_maintenance_window_is_checked_on_its_own():
    d = chain_dict()
    d["maintenance"] = [
        {"start": "2025-08-05", "end": "2025-08-20"},
        {"start": "2025-08-01", "end": "2025-08-10"},
        {"start": "2025-08-12", "end": "2025-08-08"},  # inside the first
    ]
    with pytest.raises(ConfigError, match="2025-08-12..2025-08-08 ends before it starts"):
        parse_config(d)
    del d["maintenance"][-1]
    assert [(w.start.isoformat(), w.end.isoformat()) for w in parse_config(d).maintenance] \
        == [("2025-08-05", "2025-08-20"), ("2025-08-01", "2025-08-10")]


def test_past_maintenance_window_rejected():
    d = chain_dict()
    d["maintenance"] = [{"start": "2024-01-01", "end": "2024-01-10"}]
    with pytest.raises(ConfigError, match="before the simulation start"):
        parse_config(d)


def test_maintenance_window_from_end_date_rejected():
    # end_date is the first day not simulated: a window starting on it would
    # change nothing, while one ending on the last simulated day is accepted
    d = chain_dict()
    end = parse_config(d).model.end_date
    last = end - timedelta(days=1)
    d["maintenance"] = [{"start": end.isoformat(), "end": end.isoformat()}]
    with pytest.raises(ConfigError, match="starts on or after the simulation end"):
        parse_config(d)
    d["maintenance"] = [{"start": last.isoformat(), "end": end.isoformat()}]
    assert parse_config(d).maintenance[0].start == last


def test_prerequisite_cycle_rejected():
    d = chain_dict()
    d["qc"] = {
        "teams": [{"id": "lab", "technicians": 1, "supervisors": 1}],
        "tests": [
            {"id": "a", "team": "lab", "prerequisites": ["b"]},
            {"id": "b", "team": "lab", "prerequisites": ["a"]},
        ],
    }
    with pytest.raises(ConfigError, match="cycle"):
        parse_config(d)


@pytest.mark.parametrize("closed", [False, True], ids=["chain", "cycle"])
def test_a_prerequisite_chain_of_any_length_is_walked(closed):
    # t0000 needs t0001, ..., t1998 needs t1999, all sampled at the last stage;
    # closed, t1999 needs t0000 too. Far deeper than the recursion limit.
    n = 2000
    ids = [f"t{i:04d}" for i in range(n)]
    d = chain_dict()
    d["qc"] = {
        "teams": [{"id": "lab", "technicians": 1, "supervisors": 1}],
        "tests": [{"id": tid, "team": "lab", "prerequisites": [ids[(i + 1) % n]]}
                  for i, tid in enumerate(ids)],
    }
    if not closed:
        del d["qc"]["tests"][-1]["prerequisites"]
    d["stages"][-1]["qc_tests"] = ids
    if not closed:
        assert [t.id for t in parse_config(d).qc.tests] == ids
        return
    with pytest.raises(ConfigError) as exc:
        parse_config(d)
    assert exc.value.errors == ["qc.tests: prerequisite cycle through 't0000'"]


def test_stage_must_carry_prerequisites_together():
    d = chain_dict()
    d["qc"] = {
        "teams": [{"id": "lab", "technicians": 1, "supervisors": 1}],
        "tests": [
            {"id": "a", "team": "lab"},
            {"id": "b", "team": "lab", "prerequisites": ["a"]},
        ],
    }
    d["stages"][0]["qc_tests"] = ["b"]
    with pytest.raises(ConfigError, match="prerequisites"):
        parse_config(d)


@pytest.mark.parametrize("stages", [(0, 2), (1, 1)], ids=["two-stages", "listed-twice"])
def test_a_sample_test_is_sampled_once(stages):
    # its draws are keyed by test, batch and attempt, so a second sampling of
    # one batch would repeat the first one's draws
    d = chain_dict()
    d["qc"] = {"teams": [{"id": "lab", "technicians": 1, "supervisors": 1}],
               "tests": [{"id": "assay", "team": "lab", "test_time": 0.3}]}
    for i in stages:
        d["stages"][i].setdefault("qc_tests", []).append("assay")
    second = d["stages"][stages[1]]["id"]
    first = d["stages"][stages[0]]["id"]
    with pytest.raises(ConfigError) as err:
        parse_config(d)
    assert err.value.errors == [f"stages.{second}: 'assay' is already sampled at stage "
                                f"'{first}'; a test is sampled once, at one stage"]


# ph is an in-process control on prep and mix, assay a sample test on fill, and
# no stage lists spare; each case changes one team or one stage list
ROLE_CASES = {
    "valid": ({}, {}, []),
    "control-with-team": ({"ph": "lab"}, {}, ["qc.tests.ph: in-process tests take no team"]),
    "sample-without-team": ({"assay": None}, {}, ["qc.tests.assay: unknown team None"]),
    "unlisted-unknown-team": ({"spare": "nope"}, {}, ["qc.tests.spare: not listed by any stage"]),
    "control-sampled": ({}, {"fill": ["assay", "ph"]},
                        ["stages.fill: 'ph' is in-process, not a sample test"]),
    "control-listed-twice": ({}, {"mix": ["ph", "ph"]},
                             ["stages.mix: in-process test 'ph' is listed twice"]),
}


def role_plant(teams=None, lists=None):
    """The chain with ``ph`` in-process on prep and mix and ``assay`` sampled on fill."""
    d = chain_dict()
    teams = {"ph": None, "assay": "lab", **(teams or {})}
    d["qc"] = {"teams": [{"id": "lab", "technicians": 1, "supervisors": 1}],
               "tests": [{"id": tid, "team": team, "test_time": 0.2}
                         for tid, team in teams.items()]}
    lists = {"prep": ["ph"], "mix": ["ph"], "fill": ["assay"], **(lists or {})}
    for stage in d["stages"]:
        stage["qc_tests" if stage["id"] == "fill" else "ipc_tests"] = lists[stage["id"]]
    return d


@pytest.mark.parametrize("teams, lists, errors", ROLE_CASES.values(), ids=list(ROLE_CASES))
def test_a_test_takes_its_role_from_the_stage_lists(teams, lists, errors):
    d = role_plant(teams, lists)
    if errors:
        with pytest.raises(ConfigError) as err:
            parse_config(d)
        assert err.value.errors == errors
    else:
        parse_config(d)


@pytest.mark.parametrize("key, value, errors", [
    ("prerequisites", ["assay"], ["qc.tests.ph: in-process tests take no prerequisites"]),
    ("supervisory_check_time", 0.1, ["qc.tests.ph: in-process tests have no supervisory check"]),
    ("supervisory_check_time", 0.0, []),
])
def test_an_in_process_test_has_no_sample_test_steps(key, value, errors):
    d = role_plant()
    d["qc"]["tests"][0][key] = value  # ph: its draws never read either
    if errors:
        with pytest.raises(ConfigError) as err:
            parse_config(d)
        assert err.value.errors == errors
    else:
        parse_config(d)


def test_an_overlay_scales_but_does_not_set_an_in_process_supervisory_check():
    cfg = parse_config(role_plant())

    def overlay(value):
        return {"modifications": [{"window": {"start": "2025-04-05", "end": "2025-06-01"},
                                   "set": {"qc.tests.ph.supervisory_check_time": value}}]}

    parse_scenario(overlay({"scale": 3}), cfg)  # three times zero
    with pytest.raises(ConfigError, match="in-process tests have no supervisory check"):
        parse_scenario(overlay({"constant": 5}), cfg)


def staffed_chain():
    """The chain with a three-technician lab, so head-counts can be overridden."""
    d = chain_dict(end_date="2025-05-01")
    d["qc"] = {"teams": [{"id": "lab", "technicians": 3, "supervisors": 1}]}
    return parse_config(d)


def in_window(target, value, read):
    """``read(cfg)`` on day 5 of a run whose overlay sets ``target`` on days 1-9."""
    cfg = staffed_chain()
    spec = parse_scenario({"modifications": [
        {"window": {"start": "2025-04-02", "end": "2025-04-10"},
         "set": {target: value}}]}, cfg)
    model = Model(cfg, seed=1, spec=spec)
    seen = []
    model.engine.schedule(5.0, lambda ev: seen.append(read(cfg)))
    model.run()
    return seen[0]


def rejected(target, value):
    with pytest.raises(ConfigError) as err:
        parse_scenario({"modifications": [
            {"window": {"start": "2025-04-02", "end": "2025-04-10"},
             "set": {target: value}}]}, staffed_chain())
    return str(err.value)


class TestDotPaths:
    def test_scalar_target(self):
        assert in_window("qa.deviation_prob", 0.5, lambda c: c.qa.deviation_prob) == 0.5
        assert "qa.deviation_prob: must be in [0, 1]" in rejected("qa.deviation_prob", 7)

    def test_list_by_id(self):
        assert in_window("stages.mix.closed", True,
                         lambda c: [s.closed for s in c.stages]) == [False, True, False]

    def test_wildcard_fans_out(self):
        assert in_window("stages.*.closed", True,
                         lambda c: [s.closed for s in c.stages]) == [True, True, True]
        # one literal for every stage: the non-final ones take no doses
        text = rejected("stages.*.doses_per_batch", 5)
        assert "stages.prep: doses_per_batch is final-stage only" in text
        assert "stages.mix: doses_per_batch is final-stage only" in text

    def test_unknown_id_raises(self):
        assert "no element with id 'bogus'" in rejected("stages.bogus.closed", True)

    def test_unknown_field_raises(self):
        assert "not a settable parameter" in rejected("stages.mix.bogus", 1)


class TestCoerce:
    def test_scale_distribution(self):
        got = in_window("stages.fill.processing_time", {"scale": 4},
                        lambda c: c.stages[2].processing_time)
        assert got == constant(12.0)

    def test_replace_distribution(self):
        got = in_window("stages.fill.processing_time", {"triangular": [24, 32, 48]},
                        lambda c: c.stages[2].processing_time)
        assert isinstance(got, Distribution) and got.params == (24.0, 32.0, 48.0)

    def test_scale_int_rounds(self):
        # Python's round, half to even: 3 x 0.5 -> 2, 1 x 0.5 -> 0
        assert in_window("qc.teams.lab.technicians", {"scale": 0.5},
                         lambda c: c.qc.teams[0].technicians) == 2
        assert in_window("qc.teams.lab.supervisors", {"scale": 0.5},
                         lambda c: c.qc.teams[0].supervisors) == 0

    def test_bool_requires_bool(self):
        assert in_window("stages.fill.closed", False, lambda c: c.stages[2].closed) is False
        assert "expected true or false" in rejected("stages.fill.closed", "no")

    def test_int_stays_int(self):
        assert in_window("qc.teams.lab.technicians", 4,
                         lambda c: c.qc.teams[0].technicians) == 4
        got = in_window("qc.teams.lab.technicians", 4.0, lambda c: c.qc.teams[0].technicians)
        assert got == 4 and isinstance(got, int)
        assert "expected a whole number" in rejected("qc.teams.lab.technicians", 2.5)


def test_parsing_reports_bad_values_and_unknown_keys():
    d = chain_dict()
    d["model"]["processing_time_multiplier"] = 2.0
    d["stages"][0]["machines"] = "two"
    d["stages"][1]["milestone"] = "intermediate"
    d["stages"][1]["machiness"] = 3
    d["stages"][1]["processing_time"] = {"triangular": ["1", "2", "3"]}
    d["stages"][2]["processing_time"] = {"lognormal": {"median": 1, "scale": 1.3, "shift": 5}}
    d["stages"][2]["yield_fraction"] = {"constant": True}
    d["stages"][2]["closed"] = True
    d["inventories"][2]["capacity"] = "lots"
    d["materials"] = [{"id": "resin", "consumption": {"prep": 1.0},
                       "suppliers": [{"id": "s", "lead_time": 1.0, "spilt": 1.0}]}]
    d["extra"] = {}
    with pytest.raises(ConfigError) as err:
        parse_config(d)
    assert sorted(err.value.errors) == sorted([
        "config: unknown key 'extra'",
        "model: unknown key 'processing_time_multiplier'",
        "stages.prep.machines: expected a whole number, got 'two'",
        "stages.mix: unknown key 'milestone'",
        "stages.mix: unknown key 'machiness'",
        "stages.mix.processing_time: expected a number, got '1'",
        "stages.fill.processing_time: lognormal takes exactly median and scale, "
        "got ['median', 'scale', 'shift']",
        "stages.fill.yield_fraction: expected a number, got True",
        "stages.fill.closed: a stage is closed only by a scenario overlay",
        "inventories.finished.capacity: expected a whole number, got 'lots'",
        "materials.resin: unknown key 'consumption'",
        "materials.resin.suppliers.s: unknown key 'spilt'",
        # unreadable processing times keep the zero default
        "stages.mix.processing_time: mean must be > 0",
        "stages.fill.processing_time: mean must be > 0",
    ])


def test_durations_and_yields_are_range_checked():
    d = chain_dict()
    d["stages"][0]["processing_time"] = 0.0
    d["stages"][1]["processing_time"] = {"uniform": [-1.0, 3.0]}
    d["stages"][2]["yield_fraction"] = {"triangular": [0.9, 1.0, 1.1]}
    d["qa"] = {"release_review_time": {"bernoulli": 0.5}}
    with pytest.raises(ConfigError) as err:
        parse_config(d)
    assert sorted(err.value.errors) == [
        "qa.release_review_time: unknown distribution kind 'bernoulli'",
        "stages.fill.yield_fraction: must lie in [0, 1]",
        "stages.mix.processing_time: must be >= 0",
        "stages.prep.processing_time: mean must be > 0",
    ]


# One out-of-range value per range-checked field, set in busy_chain() at a
# path of keys and list indices, and the one message it must raise.
OUT_OF_RANGE = [
    ({"stages.0.machines": 0}, "stages.prep.machines: must be >= 1"),
    ({"inventories.1.capacity": 0}, "inventories.buf_2.capacity: must be >= 1 or null"),
    ({"qc.teams.0.technicians": -1}, "qc.teams.lab.technicians: must be >= 0"),
    ({"qc.teams.0.supervisors": -1}, "qc.teams.lab.supervisors: must be >= 0"),
    ({"qa.reviewers": -1}, "qa.reviewers: must be >= 0"),
    ({"qa.supervisors": -1}, "qa.supervisors: must be >= 0"),
    ({"qa.investigators": -1}, "qa.investigators: must be >= 0"),
    ({"qc.tests.1.failure_prob": 1.5}, "qc.tests.assay.failure_prob: must be in [0, 1]"),
    ({"qa.deviation_prob": -0.1}, "qa.deviation_prob: must be in [0, 1]"),
    ({"materials.0.receipt_rejection_prob": 2},
     "materials.resin.receipt_rejection_prob: must be in [0, 1]"),
    ({"materials.0.initial_stockpile": -1}, "materials.resin.initial_stockpile: must be >= 0"),
    ({"materials.0.reorder_point": -1}, "materials.resin.reorder_point: must be >= 0"),
    ({"materials.0.safety_stock": -1}, "materials.resin.safety_stock: must be >= 0"),
    ({"materials.0.lot_size": 0}, "materials.resin.lot_size: must be > 0"),
    # the splits still sum to 1
    ({"materials.0.suppliers.0.split": 1.5, "materials.0.suppliers.1.split": -0.5},
     "materials.resin.suppliers.b.split: must be >= 0"),
    ({"materials.0.suppliers.1.min_interarrival": -2},
     "materials.resin.suppliers.b.min_interarrival: must be >= 0"),
    ({"stages.0.materials": {"resin": 0}},
     "stages.prep.materials: quantities must be > 0, got {'resin': 0.0}"),
    # durations: an unknown kind, a negative time, no time where time is due
    ({"qc.tests.0.prep_time": {"bernoulli": 0.5}},
     "qc.tests.ph.prep_time: unknown distribution kind 'bernoulli'"),
    ({"qa.release_review_time": {"uniform": [-1, 1]}},
     "qa.release_review_time: must be >= 0"),
    ({"materials.0.receipt_qc_time": {"triangular": [-1, 0, 1]}},
     "materials.resin.receipt_qc_time: must be >= 0"),
    ({"materials.0.suppliers.0.transport_time": {"bernoulli": 0.1}},
     "materials.resin.suppliers.a.transport_time: unknown distribution kind 'bernoulli'"),
    ({"stages.1.processing_time": 0}, "stages.mix.processing_time: mean must be > 0"),
    ({"materials.0.suppliers.1.lead_time": {"constant": 0}},
     "materials.resin.suppliers.b.lead_time: mean must be > 0"),
    ({"stages.2.yield_fraction": {"uniform": [0.5, 1.5]}},
     "stages.fill.yield_fraction: must lie in [0, 1]"),
]


@pytest.mark.parametrize("changes, message", OUT_OF_RANGE,
                         ids=[message.split(":")[0] for _, message in OUT_OF_RANGE])
def test_each_checked_field_rejects_out_of_range_values(changes, message):
    d = busy_chain()
    parse_config(d)  # valid as it stands
    for path, value in changes.items():
        *keys, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        node = d
        for key in keys:
            node = node[key]
        node[last] = value
    with pytest.raises(ConfigError) as err:
        parse_config(d)
    assert err.value.errors == [message]


def test_huge_lognormal_scale_is_a_valid_duration():
    # a positive-mean check that computed the lognormal mean overflowed here
    d = chain_dict()
    d["stages"][0]["processing_time"] = {"lognormal": {"median": 1, "scale": 1e17}}
    d["stages"][1]["processing_time"] = {"constant": 0.0}
    with pytest.raises(ConfigError) as err:
        parse_config(d)
    assert err.value.errors == ["stages.mix.processing_time: mean must be > 0"]
    d["stages"][1]["processing_time"] = {"constant": 1.0}
    assert parse_config(d).stages[0].processing_time.params == (1.0, 1e17)


def test_canonical_dict_round_trip(chain_cfg):
    d = config_to_dict(chain_cfg)
    again = parse_config({k: d[k] for k in ("model", "inventories", "stages")})
    assert config_to_dict(again) == config_to_dict(chain_cfg)
    assert config_hash(again) == config_hash(chain_cfg)


def test_hash_changes_with_content(chain_cfg):
    h = config_hash(chain_cfg)
    chain_cfg.stages[0].machines = 5
    assert config_hash(chain_cfg) != h

"""Metamorphic relations on the demo plant.

An overlay that sets a settable parameter to the value it already holds
changes nothing. Its window's opening writes that value, runs the
parameter's hook and wakes every stage and pool for a settle that finds
nothing new to start; its closing writes nothing. The replication it writes
is base's, byte for byte.

The windows stay clear of the demo's maintenance windows (two weeks of each
August and the turn of each year), so no step of theirs shares a day with a
maintenance step. One overlay sets every ``SETTABLE`` path of the demo at
once: ``{scale: 1}`` where the value's type scales, and the literal value for
a flag or an unbounded capacity.
"""

from functools import cache
from pathlib import Path

import pytest
import yaml

import vaxsim
from vaxsim.config import parse_config
from vaxsim.model import Model
from vaxsim.runner import result_to_ndjson, run_replication
from vaxsim.scenario import SETTABLE, _resolve, parse_scenario

DEMO = yaml.safe_load((Path(vaxsim.__file__).parent / "configs" / "demo.yaml").read_text())

# (window start, window end, settable path, the demo's own value of it)
NO_OPS = {
    "qa_reviewers": ("2025-05-01", "2025-05-28", "qa.reviewers", 2),
    "bio_technicians": ("2026-03-02", "2026-04-26", "qc.teams.bio.technicians", 3),
    "media_lead_time": ("2025-09-01", "2025-11-30",
                        "materials.cell_media_powder.suppliers.media_main.lead_time",
                        {"lognormal": {"median": 12.0, "scale": 1.3}}),
    "vials_available": ("2027-02-01", "2027-06-30",
                        "materials.working_seed_vials.available", True),
}


def overlay(name: str) -> dict:
    start, end, path, value = NO_OPS[name]
    return {"name": name, "modifications": [
        {"window": {"start": start, "end": end}, "set": {path: value}}]}


@cache
def base(seed: int) -> bytes:
    return result_to_ndjson(run_replication(DEMO, None, seed))


@pytest.mark.parametrize("name", sorted(NO_OPS))
def test_a_window_at_the_baseline_value_plays_two_steps(name):
    cfg = parse_config(DEMO)
    played = len(Model(cfg, 1, parse_scenario(overlay(name), cfg)).scenario.steps)
    assert played == len(Model(cfg, 1, parse_scenario(None, cfg)).scenario.steps) + 2


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(NO_OPS))
def test_an_overlay_at_the_baseline_value_writes_the_base_replication(name, seed):
    assert result_to_ndjson(run_replication(DEMO, overlay(name), seed)) == base(seed)


def test_an_overlay_of_every_path_at_its_baseline_writes_the_base_replication():
    cfg = parse_config(DEMO)
    values = {}
    for pattern in SETTABLE:
        _, name, targets = _resolve(cfg, pattern)
        for path, owner in targets:
            value = getattr(owner, name)
            values[path] = value if value is None or isinstance(value, bool) else {"scale": 1}
    assert len(values) > len(SETTABLE)
    every = {"name": "every_path", "modifications": [
        {"window": {"start": "2025-05-01", "end": "2025-05-28"}, "set": values}]}
    assert result_to_ndjson(run_replication(DEMO, every, 1)) == base(1)

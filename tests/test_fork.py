"""A model deep-copied between events is a fork: it finishes the run alone.

Every event is listed with its handler, a bound method of the model or of
one of its parts, so ``copy.deepcopy`` carries all of a replication's state,
the handlers of the listed events included, and nothing of the copy reaches
back into the original. A copy taken inside a handler and finished with
``run()`` writes the bytes of the straight run, and so does the original it
was taken from.
"""

import copy
import inspect

import pytest
import yaml

from vaxsim.config import parse_config
from vaxsim.model import Model
from vaxsim.runner import result_to_ndjson, run_replication
from vaxsim.scenario import parse_scenario

from test_runner import BUNDLED, CONFIGS

# 153.0 (2025-09-01) is the day of the first step of power_outage,
# shutdown_main_culture and supplier_unavailability
FORK_TIMES = (0.5, 100.25, 153.0, 242.5, 700.0)


def _inputs(name: str):
    raw = yaml.safe_load((CONFIGS / "demo.yaml").read_text())
    overlay = (None if name == "base" else
               yaml.safe_load((CONFIGS / "scenarios" / f"{name}.yaml").read_text()))
    return raw, overlay


def _model(raw, overlay, seed: int) -> Model:
    """The model ``run_replication`` runs."""
    cfg = parse_config(raw)
    return Model(cfg, seed, spec=parse_scenario(overlay, cfg))


class Probe:
    """Deep-copies its model at each of its events. A copy of the probe is
    inert, so the forks themselves fork nothing."""

    def __init__(self, model, times):
        self.model, self.forks = model, []
        for t in times:
            model.engine.schedule(t, self._on_probe)

    def __deepcopy__(self, memo):
        return Probe.__new__(Probe)

    def _on_probe(self, ev) -> None:
        if hasattr(self, "forks"):
            self.forks.append(copy.deepcopy(self.model))


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("name", BUNDLED)
def test_a_fork_finishes_with_the_straight_runs_bytes(name, seed):
    raw, overlay = _inputs(name)
    straight = result_to_ndjson(run_replication(raw, overlay, seed))
    model = _model(raw, overlay, seed)
    probe = Probe(model, FORK_TIMES)
    assert result_to_ndjson(model.run()) == straight
    assert [fork.engine.now for fork in probe.forks] == list(FORK_TIMES)
    for fork in probe.forks:
        assert result_to_ndjson(fork.run()) == straight


@pytest.mark.parametrize("name", BUNDLED)
def test_every_handler_is_a_bound_method_of_a_part(name):
    model = _model(*_inputs(name), seed=1)
    parts = {id(p) for p in (model, model.materials, model.production, model.qc,
                             model.collect, model.scenario)}
    actions = {}
    schedule = model.engine.schedule

    def recording(time, action, target=None):
        actions.setdefault(action.__name__, action)
        return schedule(time, action, target)

    model.engine.schedule = recording
    model.run()
    assert actions.keys() <= {"proc_done", "task_done", "po_place", "po_step"}
    assert {"proc_done", "task_done", "po_step"} <= actions.keys()
    for kind, action in actions.items():
        assert inspect.ismethod(action) and id(action.__self__) in parts, kind

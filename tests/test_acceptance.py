"""Whole-system checks on the packaged demo line and the analysis toolkit.

Each test exercises one externally checkable property end to end: store
determinism, exact timing on a constant chain, sampling accuracy, queueing
self-consistency, detector calibration, the certain-failure quality path,
the demo's bottleneck shape, its response to doubled quality capacity and
to inflated supplier lead times, and parameter restoration after windowed
overlays. Results are also echoed as one PASS/FAIL line per check in the
terminal summary (see conftest.pytest_terminal_summary).

The demo ensembles are expensive, so they are built once per session and
shared: the timed 20-replication pair feeds the determinism check, its base
half is reused (and extended to 50 replications seed-for-seed) by the
bottleneck, capacity and lead-time checks.
"""

import functools
import hashlib
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import vaxsim
from vaxsim.config import config_to_dict, parse_config
from vaxsim.distributions import Distribution
from vaxsim.engine import RngRegistry
from vaxsim.metrics import (bottleneck_report, compare_scenarios,
                            detect_recovery, doses_by_day)
from vaxsim.model import Model
from vaxsim.runner import result_to_ndjson, run_ensemble, run_replication, write_store
from vaxsim.scenario import ScenarioRuntime, parse_scenario

from conftest import chain_dict

CONFIG_DIR = Path(vaxsim.__file__).parent / "configs"
SCENARIO_DIR = CONFIG_DIR / "scenarios"
SEED = 500
HORIZON = 1095

# Checks run in definition order; the summary is re-sorted by this label.
RESULTS: list[tuple[str, str, str]] = []


def check(label):
    """Record the wrapped test's outcome (and its returned detail line)."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                first = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
                RESULTS.append((label, "FAIL", first))
                raise
            RESULTS.append((label, "PASS", detail or ""))
        return wrapper
    return deco


def _overlay(name: str) -> dict:
    return yaml.safe_load((SCENARIO_DIR / f"{name}.yaml").read_text())


def _store_digest(root) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            rel = os.path.relpath(p, root)
            out[rel] = hashlib.sha256(Path(p).read_bytes()).hexdigest()
    return out


def _doses(ensemble) -> np.ndarray:
    return np.array([doses_by_day(r, HORIZON) for r in ensemble])


# -- shared demo ensembles ------------------------------------------------

@pytest.fixture(scope="session")
def demo_raw():
    return yaml.safe_load((CONFIG_DIR / "demo.yaml").read_text())


@pytest.fixture(scope="session")
def demo_pair(demo_raw, tmp_path_factory):
    """Timed base vs empty-overlay stores, 20 replications each."""
    root = tmp_path_factory.mktemp("stores")
    cfg = parse_config(demo_raw)
    empty = {"name": "noop", "modifications": []}
    t0 = time.perf_counter()
    base = run_ensemble(demo_raw, None, SEED, 20)
    write_store(str(root / "plain"), base, cfg, None, SEED)
    twin = run_ensemble(demo_raw, empty, SEED, 20)
    write_store(str(root / "overlaid"), twin, cfg, parse_scenario(empty, cfg), SEED)
    elapsed = time.perf_counter() - t0
    return {"base": base, "elapsed": elapsed,
            "dirs": (root / "plain", root / "overlaid")}


@pytest.fixture(scope="session")
def base20(demo_pair):
    return demo_pair["base"]


@pytest.fixture(scope="session")
def base50(demo_raw, base20):
    # replication i always runs at seed SEED+i, so extending an ensemble
    # is just running the missing seeds
    return base20 + run_ensemble(demo_raw, None, SEED + 20, 30)


@pytest.fixture(scope="session")
def doubled50(demo_raw):
    return run_ensemble(demo_raw, _overlay("quality_capacity_doubling"), SEED, 50)


@pytest.fixture(scope="session")
def inflated20(demo_raw):
    return run_ensemble(demo_raw, _overlay("lead_time_inflation"), SEED, 20)


# -- the checks -----------------------------------------------------------

@check("A1 store determinism under an empty overlay")
def test_store_bytes_invariant_under_empty_overlay(demo_pair):
    a, b = (_store_digest(d) for d in demo_pair["dirs"])
    assert a == b, "stores differ between base and empty-overlay runs"
    assert demo_pair["elapsed"] < 120.0, \
        f"2x20 replications took {demo_pair['elapsed']:.0f}s"
    return (f"2x20 replications byte-identical "
            f"({len(a)} files, {demo_pair['elapsed']:.1f}s)")


@check("A2 constant-chain release timing")
def test_constant_chain_release_timing():
    res = run_replication(chain_dict(), None, seed=1)
    times = sorted(b["released_at"] for b in res.batches if b["state"] == "released")
    assert len(times) > 300
    assert times[0] == 6.0, f"first release at {times[0]}, critical path is 6.0"
    gaps = {b - a for a, b in zip(times, times[1:])}
    assert gaps == {3.0}, f"release intervals {sorted(gaps)}, bottleneck cycle is 3.0"
    return f"first release 6.0, all {len(times) - 1} intervals exactly 3.0"


@check("A3 triangular sampling accuracy")
def test_triangular_sampling_accuracy():
    # the simulator's own path: scalar draws from one derived substream
    g = RngRegistry(12345).derived("triangular", "check")
    dist = Distribution("triangular", (6.0, 8.0, 12.0))
    xs = np.fromiter((dist.sample(g) for _ in range(1_000_000)), dtype=float,
                     count=1_000_000)
    mean, lo, hi = float(xs.mean()), float(xs.min()), float(xs.max())
    assert abs(mean - 26.0 / 3.0) <= 0.02, f"mean {mean:.4f} vs 8.6667"
    assert lo >= 6.0 and hi <= 12.0, f"range [{lo:.4f}, {hi:.4f}] outside [6, 12]"
    return f"1e6 draws: mean {mean:.4f} (target 8.6667 +-0.02), range [{lo:.2f}, {hi:.2f}]"


@check("A4 Little's law on a single-technician queue")
def test_queueing_accounts_satisfy_littles_law():
    # one machine releases a batch every 1.25 d; the only QC task averages
    # 1.0 d on one technician, so the station runs at 80% utilization
    cfg_raw = {
        "model": {"start_date": "2025-01-01", "end_date": "2034-12-31"},
        "inventories": [{"id": "done"}],
        "stages": [{"id": "make", "machines": 1,
                    "processing_time": {"constant": 1.25},
                    "output_inventory": "done", "doses_per_batch": 1,
                    "qc_tests": ["assay"]}],
        "qc": {"teams": [{"id": "lab", "technicians": 1, "supervisors": 1}],
               "tests": [{"id": "assay", "team": "lab",
                          "prep_time": {"triangular": [0.1, 0.2, 0.3]},
                          "test_time": {"lognormal": {"median": 0.62916,
                                                      "scale": 2.0}}}]},
    }
    res = run_replication(cfg_raw, None, seed=7)
    c = res.counts
    horizon = float(res.horizon_days)
    pool = "qc_technicians.lab"
    util = c[f"pool_busy_days.{pool}"] / horizon
    l_q = c[f"pool_queue_days.{pool}"] / horizon
    lam = c[f"pool_started.{pool}"] / horizon
    w_q = c[f"pool_wait_days.{pool}"] / c[f"pool_started.{pool}"]
    rel = abs(l_q - lam * w_q) / (lam * w_q)
    assert 0.75 <= util <= 0.85, f"utilization {util:.3f} is not ~0.80"
    assert rel <= 0.05, f"L {l_q:.4f} vs lambda*W {lam * w_q:.4f}: off by {rel:.1%}"
    return (f"10y horizon: L {l_q:.3f} vs lambda*W {lam * w_q:.3f} "
            f"(off {rel:.2%}), util {util:.3f}")


@check("A5 recovery detector calibration")
def test_recovery_detector_on_constructed_dip():
    rng = np.random.default_rng(5)
    base = rng.normal(100.0, 5.0, size=(100, HORIZON))
    scen = base.copy()
    scen[:, 200:242] *= 0.5  # 6-week halving, shared noise elsewhere
    hit = detect_recovery(base, scen)
    assert hit["disrupted"] and hit["recovered"]
    assert hit["recovery_weeks"] in (6, 7), f"read {hit['recovery_weeks']} weeks"
    calm = detect_recovery(base, base.copy())
    assert not calm["disrupted"] and calm["start_day"] is None, \
        f"identical ensembles flagged: {calm}"
    return (f"6-week dip read as {hit['recovery_weeks']} weeks, "
            f"identical ensembles flagged nothing")


@check("A6 certain-failure quality path")
def test_certain_failure_discards_every_batch():
    raw = chain_dict()
    raw["stages"][-1]["qc_tests"] = ["doom"]
    raw["qc"] = {"teams": [{"id": "lab", "technicians": 1, "supervisors": 1}],
                 "tests": [{"id": "doom", "team": "lab",
                            "test_time": {"constant": 0.2},
                            "failure_prob": 1.0}]}
    raw["qa"] = {"investigators": 1,
                 "oos_investigation_time": {"constant": 0.5}}
    res = run_replication(raw, None, seed=3)
    assert res.counts["batches_released"] == 0
    assert res.counts["released_doses"] == 0
    done = [b for b in res.batches if b["state"] == "discarded"]
    assert len(done) > 300
    assert all(b["discard_cause"] == "failed_retest" for b in done)
    assert all(b["investigations"] == 1 and b["retests"] == 1 for b in done)
    # nobody anywhere gets a second investigation or retest, and the only
    # batches with quality contact not yet discarded are mid-pipeline at
    # the horizon (upstream WIP never enters the quality path at all)
    assert all(b["investigations"] <= 1 and b["retests"] <= 1 for b in res.batches)
    mid = [b for b in res.batches if b["state"] != "discarded"
           and (b["investigations"] or b["retests"])]
    assert len(mid) <= 3, f"{len(mid)} tested batches never reached a verdict"
    return (f"{len(done)} batches discarded after exactly one investigation "
            f"+ one retest, zero doses released")


@check("A7 demo bottleneck is quality personnel")
def test_demo_bottleneck_is_quality_personnel(base20):
    rows = bottleneck_report(base20)
    top = rows[0]
    machine_max = max(r["utilization"] for r in rows if r["kind"] == "machines")
    assert top["kind"] == "personnel", f"top resource is {top['resource']}"
    assert top["utilization"] > 0.75, f"top utilization {top['utilization']:.3f}"
    assert machine_max < 0.40, f"busiest machine group at {machine_max:.3f}"
    return (f"top: {top['resource']} at {top['utilization']:.3f}, "
            f"busiest machines at {machine_max:.3f}")


@check("A8 doubled quality capacity raises output")
def test_doubling_quality_capacity_scales_output(base50, doubled50):
    factor = float(_doses(doubled50).mean() / _doses(base50).mean())
    rows = compare_scenarios({"base": base50,
                              "quality_capacity_doubling": doubled50},
                             at_days=(HORIZON,))
    p = next(r["p_value"] for r in rows
             if r["scenario"] != "base" and r["day"] == HORIZON)
    assert 1.3 < factor < 2.0, f"36-month dose factor {factor:.3f}"
    assert p < 0.001, f"p = {p:.2g}"
    return f"36-month doses x{factor:.3f} (in (1.3, 2.0)), p {p:.1e}"


@check("A9 inflated lead times starve the fill side")
def test_lead_time_inflation_starves_fill_side(base20, inflated20):
    drop = 1.0 - float(_doses(inflated20).mean() / _doses(base20).mean())
    frac = {mid: float(np.mean([r.counts[f"material_stockout_days.{mid}"]
                                for r in inflated20])) / HORIZON
            for mid in ("glass_vials", "sterile_filters")}
    verdict = detect_recovery(base20, inflated20)
    assert drop >= 0.10, f"36-month doses fell only {drop:.1%}"
    for mid, f in frac.items():
        assert f > 0.30, f"{mid} stocked out on {f:.1%} of days"
    assert verdict["disrupted"] and not verdict["recovered"], str(verdict)
    return (f"doses -{drop:.1%}, stockout days vials {frac['glass_vials']:.0%} / "
            f"filters {frac['sterile_filters']:.0%}, flagged not recovered")


@check("A10 windowed overlays restore parameters")
def test_windowed_overlays_restore_parameters(demo_raw, base20):
    # a replication's records and its series bytes: a change to either counts
    base_files = result_to_ndjson(base20[0])
    touched = []
    for name in ("shutdown_main_culture", "workforce_reduction",
                 "supplier_unavailability"):
        cfg = parse_config(demo_raw)
        before = config_to_dict(cfg)
        spec = parse_scenario(_overlay(name), cfg)
        res = Model(cfg, SEED, scenario=ScenarioRuntime(spec)).run()
        records, series = result_to_ndjson(res)
        assert records != base_files[0] or series != base_files[1], f"{name} changed nothing"
        after = config_to_dict(cfg)
        assert after == before, f"{name} left parameters modified"
        touched.append(name)
    return f"{len(touched)} windowed overlays all left live parameters at baseline"

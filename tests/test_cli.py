"""Command line verbs: exit codes, error JSON, and the run/compare/report flow."""

import csv
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import vaxsim
from conftest import chain_dict
from vaxsim.cli import main
from vaxsim.config import ConfigError
from vaxsim.runner import SIZES, load_store, run_replication


def write_yaml(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(obj, fh)
    return str(path)


@pytest.fixture
def chain_yaml(tmp_path):
    return write_yaml(tmp_path / "chain.yaml", chain_dict())


@pytest.fixture
def overlay_yaml(tmp_path):
    return write_yaml(tmp_path / "slow.yaml", {
        "name": "slow_fill",
        "modifications": [
            {"window": {"start": "2025-06-01", "end": "2025-08-31"},
             "set": {"stages.fill.processing_time": {"scale": 2.0}}}],
    })


def stderr_json(capsys):
    err = capsys.readouterr().err
    return json.loads(err.strip().splitlines()[-1])


def test_validate_ok(chain_yaml, overlay_yaml, capsys):
    assert main(["validate", "--config", chain_yaml]) == 0
    assert main(["validate", "--config", chain_yaml,
                 "--scenario", overlay_yaml]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_missing_file(tmp_path, capsys):
    rc = main(["validate", "--config", str(tmp_path / "absent.yaml")])
    assert rc == 2
    err = stderr_json(capsys)
    assert err["error"] == "validation"
    assert "absent.yaml" in err["messages"][0]


# what each file holds; None makes it a directory
UNREADABLE = {
    "a directory": None,
    "bytes not UTF-8": b"name: \xff\xfe\n",
    "a day out of range": b"end_date: 2028-02-30\n",
    "nested too deeply": b"[" * 5000,
}


@pytest.mark.parametrize("verb", ["validate", "run"])
@pytest.mark.parametrize("option", ["--config", "--scenario"])
@pytest.mark.parametrize("held", list(UNREADABLE))
def test_a_yaml_file_that_cannot_be_read_is_a_validation_error(
        chain_yaml, tmp_path, capsys, held, option, verb):
    bad = tmp_path / "bad.yaml"
    if UNREADABLE[held] is None:
        bad.mkdir()
    else:
        bad.write_bytes(UNREADABLE[held])
    argv = [verb, "--config", chain_yaml, "--scenario", str(bad)]
    if option == "--config":
        argv[2:] = [str(bad)]
    out = tmp_path / "store"
    if verb == "run":
        argv += ["--replications", "1", "--out", str(out)]
    assert main(argv) == 2
    err = stderr_json(capsys)
    assert err["error"] == "validation"
    assert len(err["messages"]) == 1 and err["messages"][0].startswith(f"{bad}: ")
    assert not out.exists()


def test_validate_reports_all_problems(tmp_path, capsys):
    bad = chain_dict()
    bad["stages"][0]["processing_time"] = {"kind": "wat"}
    bad["stages"][2]["output_inventory"] = "nope"
    rc = main(["validate", "--config", write_yaml(tmp_path / "bad.yaml", bad)])
    assert rc == 2
    err = stderr_json(capsys)
    assert err["error"] == "validation"
    assert len(err["messages"]) >= 2


def _set(target, value):
    return {"window": {"start": "2025-06-01", "end": "2025-06-30"},
            "set": {target: value}}


@pytest.mark.parametrize("modification", [
    pytest.param({"window": {"start": "2025-06-01"}, "set": {"no.such.target": 1}},
                 id="unknown-target"),
    pytest.param(_set("stages.fill.processing_time", {"scale": 0}), id="scale-zero"),
    pytest.param(_set("stages.fill.processing_time", {"scale": "x"}), id="scale-text"),
    pytest.param(_set("stages.fill.processing_time", {"weibull": [1, 2]}),
                 id="unknown-distribution"),
    pytest.param(_set("stages.fill.processing_time", {"triangular": ["1", "2", "3"]}),
                 id="distribution-text"),
    pytest.param(_set("qa.deviation_prob", 7), id="probability-above-one"),
    pytest.param(_set("qc.teams.lab.technicians", -3), id="negative-head-count"),
    pytest.param(_set("stages.fill.machines", 3), id="machines"),
    pytest.param(_set("qc.tests.assay.team", "nope"), id="test-team"),
    pytest.param(_set("stages.prep.id", "zzz"), id="identity"),
    pytest.param(_set("inventories.finished.final", False), id="final-inventory"),
])
def test_bad_scenario_is_a_validation_error(modification, tmp_path, capsys):
    cfg = chain_dict()
    cfg["qc"] = {"teams": [{"id": "lab", "technicians": 2, "supervisors": 1}],
                 "tests": [{"id": "assay", "team": "lab", "test_time": 0.5}]}
    cfg["stages"][2]["qc_tests"] = ["assay"]
    rc = main(["validate", "--config", write_yaml(tmp_path / "cfg.yaml", cfg),
               "--scenario", write_yaml(tmp_path / "ov.yaml",
                                        {"modifications": [modification]})])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # one line, no traceback
    assert json.loads(err)["error"] == "validation"


def test_run_compare_report_flow(chain_yaml, overlay_yaml, tmp_path, capsys):
    base = str(tmp_path / "base")
    scen = str(tmp_path / "scen")
    rc = main(["run", "--config", chain_yaml, "--replications", "3",
               "--seed", "7", "--out", base])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scenario=base" in out and "replications=3" in out
    assert os.path.exists(os.path.join(base, "manifest.json"))

    rc = main(["run", "--config", chain_yaml, "--scenario", overlay_yaml,
               "--replications", "3", "--seed", "7", "--out", scen])
    assert rc == 0
    assert "scenario=slow_fill" in capsys.readouterr().out

    rc = main(["compare", base, scen])
    assert rc == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].split("\t")[0] == "scenario"
    assert len(table) == 5  # header + 2 scenarios x 2 horizons

    rep = str(tmp_path / "rep")
    rc = main(["report", base, scen, "--out", rep])
    assert rc == 0
    assert os.path.exists(os.path.join(rep, "report.md"))
    assert os.path.exists(os.path.join(rep, "comparison.csv"))


def test_report_on_one_replication_stores_leaves_out_recovery(chain_yaml, overlay_yaml,
                                                             tmp_path, capsys):
    # compare accepts paired stores of one replication each, and so does
    # report; the recovery detector needs a variance on each side, so the
    # report says so in place of the table and writes no recovery.csv
    base, scen, rep = (str(tmp_path / name) for name in ("base", "scen", "rep"))
    for extra, out in [([], base), (["--scenario", overlay_yaml], scen)]:
        assert main(["run", "--config", chain_yaml, *extra, "--replications", "1",
                     "--seed", "5", "--out", out]) == 0
    assert main(["compare", base, scen]) == 0
    capsys.readouterr()
    assert main(["report", base, scen, "--out", rep]) == 0
    assert capsys.readouterr().out == os.path.join(rep, "report.md") + "\n"
    assert sorted(os.listdir(rep)) == [
        "comparison.csv", "cumulative_throughput.csv", "inventory_levels.csv",
        "lead_time_histogram.csv", "monthly_throughput.csv", "queue_lengths.csv",
        "report.md", "stockouts.csv", "utilization.csv"]
    text = Path(rep, "report.md").read_text()
    assert "## Scenario comparison" in text
    assert "## Recovery\n\nNot assessed: recovery needs two replications per store.\n" in text
    assert "scenario comparison." in text and "recovery windows" not in text


def test_run_computes_each_kpi_row_once(tmp_path, capsys, monkeypatch):
    # the store's kpis.csv takes one kpi_summary per replication, and the
    # digest printed after it reads those rows back
    from vaxsim import cli, runner

    calls = []
    kpi_summary = runner.kpi_summary

    def counted(result):
        calls.append(result.seed)
        return kpi_summary(result)

    monkeypatch.setattr(runner, "kpi_summary", counted)
    assert not hasattr(cli, "kpi_summary")
    demo = Path(vaxsim.__file__).parent / "configs" / "demo.yaml"
    out = tmp_path / "demo"
    assert main(["run", "--config", str(demo), "--replications", "3", "--seed", "5",
                 "--out", str(out)]) == 0
    assert calls == [5, 6, 7]
    assert capsys.readouterr().out == (
        "scenario=base replications=3\n"
        "  first dose: day 15.7\n"
        "  released doses: 69.28M at 12 months, 216.84M total\n"
        "  busiest resource: qa_reviewers (99%)\n"
        f"  store: 4 files in {out}\n")


def test_run_rejects_bad_config(tmp_path, capsys):
    bad = chain_dict()
    bad["stages"][0]["machines"] = 0
    rc = main(["run", "--config", write_yaml(tmp_path / "bad.yaml", bad),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert stderr_json(capsys)["error"] == "validation"
    assert not os.path.exists(tmp_path / "out")


DEMO = Path(vaxsim.__file__).parent / "configs" / "demo.yaml"


# a material's review orders int((reorder_point + safety_stock - position)
# // lot_size) + 1 lots: arithmetic that overflows a double must not validate,
# nor 2**51 lots or more, which the split among suppliers cannot keep exact
@pytest.mark.parametrize("material, modification", [
    pytest.param({"reorder_point": 1e308, "safety_stock": 1e308}, None,
                 id="level-overflows"),
    pytest.param({"lot_size": 1.0, "reorder_point": 2.0**51, "safety_stock": 0.0}, None,
                 id="lots-at-2**51"),
    pytest.param({"lot_size": 1e-300, "reorder_point": 1e10}, None, id="lots-overflow"),
    pytest.param({"reorder_point": 1e10}, _set("materials.*.lot_size", {"scale": 1e-300}),
                 id="overlay-lots-overflow"),
])
def test_reorder_arithmetic_that_overflows_is_refused(material, modification, tmp_path,
                                                      capsys):
    cfg = yaml.safe_load(DEMO.read_text())
    cfg["materials"][0].update(material)
    args = ["--config", write_yaml(tmp_path / "cfg.yaml", cfg)]
    if modification is not None:
        args += ["--scenario", write_yaml(tmp_path / "ov.yaml",
                                          {"modifications": [modification]})]
    out = tmp_path / "out"
    for cmd in (["validate"], ["run", "--replications", "1", "--out", str(out)]):
        assert main(cmd + args) == 2
        err = stderr_json(capsys)
        assert err["error"] == "validation"
        assert any("(reorder_point + safety_stock) / lot_size must be finite" in m
                   for m in err["messages"])
    assert not out.exists()


@pytest.mark.parametrize("overlay", [False, True], ids=["config", "overlay"])
def test_doses_per_batch_of_2_53_or_more_is_refused(overlay, tmp_path, capsys):
    # the batch log stores doses as 64-bit ints and the daily released doses
    # as doubles, which hold whole numbers exactly only below 2**53: an
    # accepted 1e30 ended in a traceback when the store was written
    cfg = yaml.safe_load(DEMO.read_text())
    args = ["--config", write_yaml(tmp_path / "cfg.yaml", cfg)]
    if overlay:
        args += ["--scenario", write_yaml(tmp_path / "ov.yaml", {"modifications": [
            _set("stages.packaging.doses_per_batch", 2**53)]})]
    else:
        cfg["stages"][-1]["doses_per_batch"] = 1e30
        write_yaml(tmp_path / "cfg.yaml", cfg)
    out = tmp_path / "out"
    capsys.readouterr()
    for cmd in (["validate"], ["run", "--replications", "1", "--out", str(out)]):
        assert main(cmd + args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "validation"
        assert "stages.packaging: final stage needs doses_per_batch > 0 and < 2**53" in err
    assert not out.exists()


def test_windows_that_overflow_only_together_are_refused(tmp_path, capsys):
    # each window alone validates; while both are open, a review would order
    # more than 2**51 lots, which cannot be split among suppliers exactly.
    # validate checks every config state the overlay passes through, so
    # validate and run refuse it alike, before a store
    mods = [{"window": {"start": "2025-06-01", "end": "2025-06-30"},
             "set": {"materials.cell_media_powder.reorder_point": {"scale": 1.0e10}}},
            {"window": {"start": "2025-06-10", "end": "2025-06-20"},
             "set": {"materials.cell_media_powder.lot_size": {"scale": 1.0e-10}}}]
    for i, mod in enumerate(mods):
        alone = write_yaml(tmp_path / f"alone_{i}.yaml", {"modifications": [mod]})
        assert main(["validate", "--config", str(DEMO), "--scenario", alone]) == 0
    args = ["--config", str(DEMO), "--scenario",
            write_yaml(tmp_path / "ov.yaml", {"modifications": mods})]
    out = tmp_path / "out"
    capsys.readouterr()
    for cmd in (["validate"], ["run", "--replications", "1", "--out", str(out)]):
        assert main(cmd + args) == 2
        assert stderr_json(capsys) == {"error": "validation", "messages": [
            "target 'materials.cell_media_powder.lot_size': materials.cell_media_powder: "
            "reorder_point + safety_stock + lot_size must be finite, and "
            "(reorder_point + safety_stock) / lot_size must be finite and below 2**51"]}
    assert not out.exists()


@pytest.mark.parametrize("text", ["false", "0", "[]", "''", "5"])
def test_overlay_root_must_be_a_mapping(chain_yaml, tmp_path, capsys, text):
    overlay = tmp_path / "ov.yaml"
    overlay.write_text(text + "\n")
    out = tmp_path / "out"
    for argv in (["validate"], ["run", "--out", str(out)]):
        assert main([*argv, "--config", chain_yaml, "--scenario", str(overlay)]) == 2
        err = stderr_json(capsys)
        assert err["messages"] == ["overlay root must be a mapping"]
    assert not out.exists()
    with pytest.raises(ConfigError, match="overlay root must be a mapping"):
        run_replication(chain_dict(), yaml.safe_load(text), 1)


def test_an_empty_overlay_file_is_the_empty_overlay(chain_yaml, tmp_path):
    overlay = tmp_path / "ov.yaml"
    overlay.write_text("")  # YAML reads it as None
    assert main(["validate", "--config", chain_yaml, "--scenario", str(overlay)]) == 0


@pytest.mark.parametrize("argv, message", [
    (["--replications", "0"], "--replications must be >= 1, got 0"),
    (["--jobs", "0"], "--jobs must be >= 1, got 0"),
    (["--out", "FILE"], "cannot make a directory there"),
], ids=["no-replications", "no-jobs", "out-is-a-file"])
def test_run_rejects_bad_arguments_before_simulating(chain_yaml, tmp_path, capsys,
                                                     argv, message):
    existing = tmp_path / "existing.txt"
    existing.write_text("keep\n")
    out = str(tmp_path / "out")
    argv = [str(existing) if a == "FILE" else a for a in argv]
    rc = main(["run", "--config", chain_yaml, "--replications", "2", "--out", out, *argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # one line, no traceback, no progress
    err = json.loads(err)
    assert err["error"] == "validation" and message in err["messages"][0]
    assert not os.path.exists(out)
    assert existing.read_text() == "keep\n"


@pytest.mark.parametrize("out", ["FILE", "FILE/rep"], ids=["a-file", "under-a-file"])
def test_report_refuses_an_out_it_cannot_make(paired_stores, tmp_path, capsys, out):
    # as run does: one JSON line and exit 2, where os.makedirs used to raise
    existing = tmp_path / "existing.txt"
    existing.write_text("keep\n")
    out = out.replace("FILE", str(existing))
    capsys.readouterr()
    assert main(["report", *paired_stores, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    err = json.loads(err)
    assert err["error"] == "validation"
    assert err["messages"][0].startswith(f"--out {out}: cannot make a directory there: ")
    assert existing.read_text() == "keep\n"


def test_compare_needs_a_base_store(chain_yaml, overlay_yaml, tmp_path, capsys):
    scen = str(tmp_path / "scen")
    main(["run", "--config", chain_yaml, "--scenario", overlay_yaml,
          "--replications", "2", "--seed", "7", "--out", scen])
    capsys.readouterr()
    rc = main(["compare", scen])
    assert rc == 2
    assert stderr_json(capsys)["error"] == "store"


@pytest.fixture(scope="module")
def paired_stores(tmp_path_factory):
    """A base and a scenario store that pair: same config, seed and size."""
    root = tmp_path_factory.mktemp("paired")
    chain = write_yaml(root / "chain.yaml", chain_dict(end_date="2025-12-31"))
    slow = write_yaml(root / "slow.yaml", {
        "name": "slow_fill",
        "modifications": [
            {"window": {"start": "2025-06-01", "end": "2025-08-31"},
             "set": {"stages.fill.processing_time": {"scale": 2.0}}}]})
    base, scen = str(root / "base"), str(root / "scen")
    for extra, out in [([], base), (["--scenario", slow], scen)]:
        assert main(["run", "--config", chain, *extra, "--replications", "2",
                     "--seed", "7", "--out", out]) == 0
    return base, scen


@pytest.fixture(scope="module")
def varied_store(paired_stores):
    """A store of two replications that differ, beside ``paired_stores``:
    its mix stage takes a triangular time, and its prep stage uses a
    material bought at a random lead time."""
    root = Path(paired_stores[0]).parent
    raw = chain_dict(end_date="2025-12-31")
    raw["stages"][1]["processing_time"] = {"triangular": [1.5, 2.0, 2.5]}
    raw["stages"][0]["materials"] = {"resin": 1.0}
    raw["materials"] = [{"id": "resin", "initial_stockpile": 20.0, "reorder_point": 10.0,
                         "safety_stock": 2.0, "lot_size": 8.0, "suppliers": [
                             {"id": "s", "lead_time": {"triangular": [5.0, 10.0, 20.0]}}]}]
    out = str(root / "varied")
    assert main(["run", "--config", write_yaml(root / "varied.yaml", raw),
                 "--replications", "2", "--seed", "7", "--out", out]) == 0
    first, second = (Path(out, rel).read_bytes() for rel in (FIRST_REP, SECOND_REP))
    assert first != second
    return out


def _with_manifest(src, dst, **changes):
    shutil.copytree(src, dst)
    path = os.path.join(dst, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest.update(changes)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return str(dst)


def _rerun(paired_stores, out, seed=7, replications=2):
    """The scenario store of ``paired_stores`` run again at another seed or
    size: load_store checks both against the replication files, so a store
    that differs in them must be a real one."""
    root = os.path.dirname(paired_stores[1])
    assert main(["run", "--config", os.path.join(root, "chain.yaml"), "--scenario",
                 os.path.join(root, "slow.yaml"), "--replications", str(replications),
                 "--seed", str(seed), "--out", str(out)]) == 0
    return str(out)


@pytest.mark.parametrize("key, value", [
    ("config_hash", "0" * 64), ("base_seed", 8), ("horizon_days", 200),
    ("start_date", "2025-04-02"), ("replications", 3)])
def test_mismatched_stores_are_refused(paired_stores, tmp_path, capsys, key, value):
    base, scen = paired_stores
    if key == "base_seed":
        odd = _rerun(paired_stores, tmp_path / "odd", seed=value)
    elif key == "replications":
        odd = _rerun(paired_stores, tmp_path / "odd", replications=value)
    else:
        odd = _with_manifest(scen, tmp_path / "odd", **{key: value})
    capsys.readouterr()
    for argv in (["compare", base, odd], ["report", base, odd, "--out",
                                          str(tmp_path / "rep")]):
        assert main(argv) == 2
        err = stderr_json(capsys)
        assert err["error"] == "store"
        assert len(err["messages"]) == 1 and key in err["messages"][0]
    assert not os.path.exists(tmp_path / "rep")


def test_every_mismatch_is_listed(paired_stores, tmp_path, capsys):
    base, _ = paired_stores
    odd = _rerun(paired_stores, tmp_path / "odd", seed=8, replications=3)
    capsys.readouterr()
    assert main(["compare", base, odd, base]) == 2
    messages = stderr_json(capsys)["messages"]
    assert len(messages) == 3
    assert [k for k in ("base_seed", "replications", "scenario")
            if any(k in m for m in messages)] == ["base_seed", "replications",
                                                  "scenario"]


def test_store_without_replications_is_refused(paired_stores, tmp_path, capsys):
    base, _ = paired_stores
    empty = _with_manifest(base, tmp_path / "empty", replications=0, files=["kpis.csv"])
    capsys.readouterr()
    assert main(["compare", empty]) == 2
    assert stderr_json(capsys)["messages"] == [f"{empty}: store holds no replications"]


@pytest.mark.parametrize("key, value, held", [("horizon_days", 200, 274)])
def test_a_manifest_that_misdescribes_its_replications_is_refused(
        paired_stores, tmp_path, capsys, key, value, held):
    # the horizon is stated once, in the manifest, and the replication files
    # hold series of its length: a lone store is checked as much as a pair
    base, _ = paired_stores
    assert load_store(base)[0][key] == held
    odd = _with_manifest(base, tmp_path / "odd", **{key: value})
    capsys.readouterr()
    assert main(["compare", odd]) == 2
    err = stderr_json(capsys)
    assert err["error"] == "store" and len(err["messages"]) == 1
    first = os.path.join(odd, "replications", "rep_00000.bin")
    assert err["messages"][0].startswith(f"{first}: ")
    assert f"{key} {value}" in err["messages"][0]


def test_compare_prints_the_rows_of_comparison_csv(paired_stores, tmp_path, capsys):
    base, scen = paired_stores
    capsys.readouterr()
    assert main(["compare", base, scen]) == 0
    printed = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert main(["report", base, scen, "--out", str(tmp_path / "rep")]) == 0
    with open(tmp_path / "rep" / "comparison.csv", encoding="utf-8", newline="") as fh:
        assert printed == list(csv.reader(fh))
    assert [row[:2] for row in printed[1:]] == [["base", "274"], ["slow_fill", "274"]]


def test_two_stores_of_one_scenario_are_refused(paired_stores, tmp_path, capsys):
    # the second would silently replace the first in the comparison
    base, scen = paired_stores
    capsys.readouterr()
    assert main(["compare", base, scen, scen]) == 2
    assert stderr_json(capsys) == {
        "error": "store",
        "messages": [f"{scen}: scenario 'slow_fill' is also in {scen}"]}
    assert main(["report", base, base, "--out", str(tmp_path / "rep")]) == 2
    assert stderr_json(capsys)["messages"] == [
        f"{base}: scenario 'base' is also in {base}"]


def _fresh_python(code, *args):
    """stdout of ``code`` run with ``args`` in a fresh interpreter that
    imports this vaxsim: this suite has imported numpy and scipy.stats."""
    src = str(Path(vaxsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_and_runner_leave_scipy_stats_unimported(tmp_path):
    # numpy and scipy take most of what a run would import, and only compare
    # and report use them; the process pool only --jobs 2 and up. It runs a
    # short replication and writes its store.
    code = (
        "import json, sys, vaxsim.cli, vaxsim.runner as r\n"
        "from vaxsim.config import parse_config\n"
        "raw = json.loads(sys.argv[1])\n"
        "res = r.run_ensemble(raw, {}, 1, 1)\n"
        "r.write_store(sys.argv[2], res, parse_config(raw), None, 1)\n"
        "print([m for m in ('numpy', 'scipy', 'scipy.stats', 'concurrent.futures',\n"
        "                   'multiprocessing', 'orjson') if m in sys.modules])\n")
    raw = chain_dict(end_date="2025-06-30")
    out = _fresh_python(code, json.dumps(raw), str(tmp_path / "store"))
    assert out.strip() == "[]"
    assert (tmp_path / "store" / "kpis.csv").exists()


def test_compare_and_report_load_no_scipy(paired_stores, tmp_path):
    # the t distribution is vaxsim's own, so neither command loads any part
    # of scipy; a store is read without orjson, and only the report's float
    # writer loads it
    code = (
        "import sys\n"
        "from vaxsim.cli import main\n"
        "loaded = lambda: sorted({m.partition('.')[0] for m in sys.modules}\n"
        "                        & {'scipy', 'orjson'})\n"
        "assert main(['compare', *sys.argv[1:3]]) == 0\n"
        "after_compare = loaded()\n"
        "assert main(['report', *sys.argv[1:3], '--out', sys.argv[3]]) == 0\n"
        "print(after_compare, loaded())\n")
    out = _fresh_python(code, *paired_stores, str(tmp_path / "rep"))
    assert out.splitlines()[-1] == "[] ['orjson']"
    assert (tmp_path / "rep" / "comparison.csv").exists()


def _rehash(store, *rels):
    """Make the manifest of ``store`` list the sha256 of each file in ``rels``
    as it is now, so a damaged file meets the checks behind the hash check."""
    path = os.path.join(store, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    for rel in rels:
        with open(os.path.join(store, rel), "rb") as fh:
            manifest["sha256"][rel] = hashlib.sha256(fh.read()).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def _rewritten_copy(src, dst, rel, edit, rehash=True):
    """A copy of store ``src`` whose file ``rel`` holds ``edit`` of its
    text, or for a .bin file ``edit(bytes, manifest)``; returns the copy and
    the rewritten file. With ``rehash``, a rewritten replication file's
    sha256 is listed in the manifest too."""
    shutil.copytree(src, dst)
    path = os.path.join(dst, rel)
    data = Path(path).read_bytes()
    if rel.endswith(".bin"):
        Path(path).write_bytes(edit(data, json.loads(Path(dst, "manifest.json").read_text())))
    else:
        Path(path).write_text(edit(data.decode()), encoding="utf-8")
    if rehash and rel != "manifest.json":
        _rehash(dst, rel)
    return str(dst), path


FIRST_REP = os.path.join("replications", "rep_00000.bin")
SECOND_REP = os.path.join("replications", "rep_00001.bin")


# nested deeper than any recursion limit: json's decoder recurses once per level
TOO_DEEP = "[" * 100_000 + "]" * 100_000


def _manifest_with(**changes):
    return lambda text: json.dumps(dict(json.loads(text), **changes))


def _manifest_without(key):
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


def _files(*names):
    """A manifest edit: ``files`` lists ``names`` and then kpis.csv."""
    return _manifest_with(files=[*names, "kpis.csv"])


def _at(data, manifest, name):
    """The byte offset of counter or batch column ``name`` in the
    replication file ``data`` of the store ``manifest`` describes."""
    at = manifest["horizon_days"] * sum(SIZES[code] for _, code in manifest["series"])
    offsets, batches = {}, 1  # each counter is one value
    for key in ("counts", "batches"):
        for column, code in manifest[key]:
            offsets[column] = at
            at += batches * SIZES[code]
        batches = struct.unpack_from("<q", data, offsets["batches_created"])[0]
    return offsets[name]


def _put(name, fmt, value):
    """A .bin edit: the first value of counter or batch column ``name``
    packed as ``value`` in struct format ``fmt``."""
    def edit(data, manifest):
        out = bytearray(data)
        struct.pack_into(fmt, out, _at(data, manifest, name), value)
        return bytes(out)
    return edit


def _one_more_batch(data, manifest):
    at = _at(data, manifest, "batches_created")
    return _put("batches_created", "<q", struct.unpack_from("<q", data, at)[0] + 1)(
        data, manifest)


SWAP = "swap the two replications"  # see _swapped_copy
# a byte of the second replication's series flipped, and its sha256 left as it was
FLIP = "flip a byte"
SERIES_PAIRS = 'series is not a list of distinct [name, "d" or "b"] pairs'
SHA256 = "its sha256 is not the one the manifest lists"
# the chain's 10 series of doubles over 274 days and its 24 counters; then for
# each batch a double or a 64-bit int in six columns and a byte in two
SIZE = "bytes, not 22112 for its series over horizon_days 274 and its counters, then 50"


def _swapped_copy(src, dst):
    """A copy of store ``src`` whose two replication files have traded
    places, their sha256 left as listed; returns the copy and the first."""
    shutil.copytree(src, dst)
    first, second = (os.path.join(dst, rel) for rel in (FIRST_REP, SECOND_REP))
    os.rename(first, first + ".tmp")
    os.rename(second, first)
    os.rename(first + ".tmp", second)
    return str(dst), first


class Drop:
    """A whole-store edit: layout ``key`` loses ``name``, and every
    replication file its values, with the manifest rehashed (see
    ``_dropped_copy``)."""

    def __init__(self, key, name):
        self.key, self.name = key, name


def _dropped_copy(src, dst, drop):
    """A copy of store ``src`` without ``drop.name`` in layout ``drop.key``
    or in any replication file, each file rehashed: a store consistent in
    all but what the analysis reads. Returns the copy and its manifest."""
    shutil.copytree(src, dst)
    path = os.path.join(dst, "manifest.json")
    manifest = json.loads(Path(path).read_text())
    days = manifest["horizon_days"]
    at = 0 if drop.key == "series" else days * sum(SIZES[c] for _, c in manifest["series"])
    length = days if drop.key == "series" else 1
    for name, code in manifest[drop.key]:
        if name == drop.name:
            break
        at += length * SIZES[code]
    manifest[drop.key].remove([name, code])
    for rel in manifest["files"][:-1]:
        data = Path(dst, rel).read_bytes()
        data = data[:at] + data[at + length * SIZES[code]:]
        Path(dst, rel).write_bytes(data)
        manifest["sha256"][rel] = hashlib.sha256(data).hexdigest()
    Path(path).write_text(json.dumps(manifest))
    return str(dst), path


LACKS = "the layout lacks {}, which the analysis reads"


@pytest.mark.parametrize("rel, edit, message", [
    ("manifest.json", _manifest_without("counts"),
     'counts is not a list of distinct [name, "q" or "d"] pairs'),
    ("manifest.json", lambda text: "[1, 2]", "the manifest is not a JSON object"),
    ("manifest.json", lambda text: "{", ""),  # in json's words, which vary by version
    ("manifest.json", _manifest_with(files="kpis.csv"), "files is not a list of file names"),
    ("manifest.json", _manifest_with(files=[1, "kpis.csv"]),
     "files is not a list of file names"),
    ("manifest.json", _manifest_with(scenario=None), "scenario is not a name"),
    # in json's words too: a RecursionError, which is not a ValueError
    ("manifest.json", lambda text: TOO_DEEP, ""),
    # the manifest is checked against the files, not trusted
    ("manifest.json", _files(FIRST_REP, os.path.join("..", "outside.bin")),
     "files does not list the 2 replication files in order"),
    ("manifest.json", _files(FIRST_REP, FIRST_REP),
     "files does not list the 2 replication files in order"),
    ("manifest.json", _files(FIRST_REP),
     "files does not list the 2 replication files in order"),
    (FIRST_REP, SWAP, SHA256),
    # a store consistent in itself, but without what compare or report reads
    ("manifest.json", Drop("counts", "batches_released"), LACKS.format("counts batches_released")),
    ("manifest.json", Drop("counts", "batches_discarded"),
     LACKS.format("counts batches_discarded")),
    ("manifest.json", Drop("counts", "material_stockout_days.resin"),
     LACKS.format("counts material_stockout_days.resin")),
    ("manifest.json", Drop("series", "released_doses"), LACKS.format("series released_doses")),
    (FIRST_REP, Drop("counts", "batches_created"), "for each of batches_created None"),
    ("manifest.json", _manifest_with(replications=-1), "replications is not a count"),
    ("manifest.json", _manifest_with(replications=True), "replications is not a count"),
    ("manifest.json", _manifest_with(base_seed="7"), "base_seed is not a whole number"),
    (SECOND_REP, lambda data, _: data[:-1], SIZE + " for each of batches_created 274"),
    (SECOND_REP, lambda data, _: data + b"\0", SIZE + " for each of batches_created 274"),
    (SECOND_REP, FLIP, SHA256),
    ("manifest.json", _manifest_with(horizon_days=274.0),
     "horizon_days 274.0 is not a whole number of days"),
    ("manifest.json", _manifest_without("sha256"),
     "sha256 does not hold a digest for each listed file"),
    ("manifest.json", _manifest_without("series"), SERIES_PAIRS),
    ("manifest.json", _manifest_with(series=[["released_doses", "f"]]), SERIES_PAIRS),
    ("manifest.json", _manifest_with(series=[["released_doses", "d", 8]]), SERIES_PAIRS),
    ("manifest.json", _manifest_with(series=["released_doses", "d"]), SERIES_PAIRS),
    # what format 3 adds: typed counters and batch columns, and codes
    (SECOND_REP, _put("state", "<b", 4), "a state code is not one of the 4 that the "
     "manifest names"),
    (SECOND_REP, _put("discard_cause", "<b", -1), "a discard_cause code is not one of "
     "the 3 that the manifest names"),
    (SECOND_REP, _one_more_batch, SIZE + " for each of batches_created 275"),
    ("manifest.json", _manifest_with(batches=[["state", "b"]]),
     "batches and codes are not those of this format"),
    ("manifest.json", _manifest_with(codes={"state": ["released"]}),
     "batches and codes are not those of this format"),
    ("manifest.json", _manifest_with(format="vaxsim-store-2"),
     "format 'vaxsim-store-2' is not 'vaxsim-store-3': run the store again with this "
     "vaxsim"),
], ids=["no counts", "manifest a list", "manifest not JSON", "files a string",
        "files holds a number", "no scenario", "manifest too deep", "a file outside the store",
        "a file listed twice", "a replication not listed", "two replications swapped",
        "no batches_released counter", "no batches_discarded counter",
        "no stockout days for a stockout series", "no released_doses series",
        "no batches_created counter",
        "a negative count", "a flag for a count", "a base seed in text",
        "a .bin one byte short", "a .bin one byte long", "a .bin byte flipped",
        "a horizon in days not whole",
        "no sha256", "no series", "a series of floats", "a series triple",
        "a series not a pair", "a state code out of range", "a cause code out of range",
        "a batch count the file size disagrees with", "other batch columns",
        "other codes", "a format-2 manifest"])
def test_a_damaged_store_is_a_store_error(paired_stores, varied_store, tmp_path, capsys,
                                          rel, edit, message):
    base, scen = paired_stores
    if edit is SWAP:
        odd, path = _swapped_copy(varied_store, tmp_path / "odd")
    elif isinstance(edit, Drop):
        odd, path = _dropped_copy(varied_store, tmp_path / "odd", edit)
        if rel != "manifest.json":
            path = os.path.join(odd, rel)
    elif edit is FLIP:
        odd, path = _rewritten_copy(scen, tmp_path / "odd", rel,
                                    lambda data, _: data[:99] + bytes([data[99] ^ 1]) + data[100:],
                                    rehash=False)
    else:
        odd, path = _rewritten_copy(scen, tmp_path / "odd", rel, edit)
    capsys.readouterr()
    for argv in (["compare", base, odd], ["report", base, odd, "--out",
                                          str(tmp_path / "rep")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        err = json.loads(err)
        assert err["error"] == "store" and len(err["messages"]) == 1
        assert err["messages"][0].startswith(f"{path}: ")
        assert err["messages"][0].endswith(message)
    assert not os.path.exists(tmp_path / "rep")

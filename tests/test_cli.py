"""Command line verbs: exit codes, error JSON, and the run/compare/report flow."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import vaxsim
from conftest import chain_dict
from vaxsim.cli import main
from vaxsim.config import ConfigError
from vaxsim.runner import load_store, run_replication


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
# // lot_size) + 1 lots: arithmetic that overflows a double must not validate
@pytest.mark.parametrize("material, modification", [
    pytest.param({"reorder_point": 1e308, "safety_stock": 1e308}, None,
                 id="level-overflows"),
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


def test_windows_that_overflow_only_together_are_refused(tmp_path, capsys):
    # each window alone validates; while both are open, the reorder arithmetic
    # overflows a double. validate checks every config state the overlay
    # passes through, so validate and run refuse it alike, before a store
    mods = [{"window": {"start": "2025-06-01", "end": "2025-06-30"},
             "set": {"materials.cell_media_powder.reorder_point": {"scale": 1.0e150}}},
            {"window": {"start": "2025-06-10", "end": "2025-06-20"},
             "set": {"materials.cell_media_powder.lot_size": {"scale": 1.0e-300}}}]
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
            "reorder_point + safety_stock + lot_size and "
            "(reorder_point + safety_stock) / lot_size must be finite"]}
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


def test_compare_and_report_load_scipy_special_not_scipy_stats(paired_stores, tmp_path):
    # the t distribution comes from scipy.special, a third of scipy.stats's
    # memory and import time; orjson reads the replications' records
    code = (
        "import sys\n"
        "from vaxsim.cli import main\n"
        "assert main(['compare', *sys.argv[1:3]]) == 0\n"
        "assert main(['report', *sys.argv[1:3], '--out', sys.argv[3]]) == 0\n"
        "print([m for m in ('scipy.special', 'scipy.stats', 'orjson')\n"
        "       if m in sys.modules])\n")
    out = _fresh_python(code, *paired_stores, str(tmp_path / "rep"))
    assert out.splitlines()[-1] == "['scipy.special', 'orjson']"
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
    text, or of its bytes for a .bin file; returns the copy and the
    rewritten file. With ``rehash``, a rewritten replication file's sha256
    is listed in the manifest too."""
    shutil.copytree(src, dst)
    path = os.path.join(dst, rel)
    data = Path(path).read_bytes()
    if rel.endswith(".bin"):
        Path(path).write_bytes(edit(data))
    else:
        Path(path).write_text(edit(data.decode()), encoding="utf-8")
    if rehash and rel != "manifest.json":
        _rehash(dst, rel)
    return str(dst), path


FIRST_REP = os.path.join("replications", "rep_00000.ndjson")
SECOND_REP = os.path.join("replications", "rep_00001.ndjson")
SECOND_BIN = os.path.join("replications", "rep_00001.bin")


# nested deeper than any recursion limit: json's decoder recurses once per level
TOO_DEEP = "[" * 100_000 + "]" * 100_000


def _first_batch_too_deep(lines, deep=TOO_DEEP):
    i = next(i for i, line in enumerate(lines) if '"kind":"batch"' in line)
    return lines[:i] + [deep] + lines[i + 1:]


# dicts as deep overflow orjson's stack; json refuses them as it does lists
DICTS_TOO_DEEP = '{"kind":"batch","id":' * 100_000 + "1" + "}" * 100_000


def _manifest_with(**changes):
    return lambda text: json.dumps(dict(json.loads(text), **changes))


def _manifest_without(key):
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


def _files(*names):
    """A manifest edit: ``files`` lists ``names`` and then kpis.csv."""
    return _manifest_with(files=[*names, "kpis.csv"])


SWAP = "swap with the second replication"  # an edit of the first: see _swapped_copy
# a byte of the second replication's series flipped, and its sha256 left as it was
FLIP = "flip a byte"
SERIES_PAIRS = 'series is not a list of distinct [name, "d" or "b"] pairs'


def test_a_batch_id_beyond_64_bits_loads_as_json_reads_it(paired_stores, tmp_path, capsys):
    # orjson would read 2**64 as a float: a record holding it is read by json
    base, scen = paired_stores
    odd, _ = _rewritten_copy(scen, tmp_path / "odd", SECOND_REP,
                             lambda text: text.replace('"id":1,', f'"id":{2**64},', 1))
    batch_id = load_store(odd)[1][1].batches[0]["id"]
    assert type(batch_id) is int and batch_id == 2**64
    capsys.readouterr()
    assert main(["compare", base, odd]) == 0
    assert main(["report", base, odd, "--out", str(tmp_path / "rep")]) == 0


def _swapped_copy(src, dst):
    """A copy of store ``src`` whose first two replication files have traded
    places; returns the copy and the first file."""
    shutil.copytree(src, dst)
    first, second = (os.path.join(dst, rel) for rel in (FIRST_REP, SECOND_REP))
    os.replace(first, first + ".tmp")
    os.replace(second, first)
    os.replace(first + ".tmp", second)
    _rehash(dst, FIRST_REP, SECOND_REP)
    return str(dst), first


def _lines(edit):
    """An edit of a replication's record lines (the text ends in a newline)."""
    return lambda text: "\n".join(edit(text.split("\n")[:-1])) + "\n"


@pytest.mark.parametrize("rel, edit, message", [
    (SECOND_REP, _lines(lambda lines: lines[1:]), "0 meta records, not one"),
    (SECOND_REP, _lines(lambda lines: lines[:1] + lines), "2 meta records, not one"),
    (SECOND_REP, _lines(lambda lines: lines[:-1]), "0 counts records, not one"),
    (SECOND_REP, _lines(lambda lines: lines + ["[1, 2]"]), "not a store record: [1, 2]"),
    ("manifest.json", lambda text: "[1, 2]", "the manifest is not a JSON object"),
    ("manifest.json", lambda text: "{", ""),  # in json's words, which vary by version
    ("manifest.json", _manifest_with(files="kpis.csv"), "files is not a list of file names"),
    ("manifest.json", _manifest_with(files=[1, "kpis.csv"]),
     "files is not a list of file names"),
    ("manifest.json", _manifest_with(scenario=None), "scenario is not a name"),
    # in json's words too: a RecursionError, which is not a ValueError
    (SECOND_REP, _lines(_first_batch_too_deep), ""),
    (SECOND_REP, _lines(lambda lines: _first_batch_too_deep(lines, DICTS_TOO_DEEP)), ""),
    ("manifest.json", lambda text: TOO_DEEP, ""),
    # the manifest is checked against the files, not trusted
    ("manifest.json", _files(FIRST_REP, os.path.join("..", "outside.ndjson")),
     "files does not list the 2 replication files in order"),
    ("manifest.json", _files(FIRST_REP, FIRST_REP),
     "files does not list the 2 replication files in order"),
    ("manifest.json", _files(FIRST_REP),
     "files does not list the 2 replication files in order"),
    (FIRST_REP, SWAP, "seed 8 is not base_seed + 0"),
    ("manifest.json", _manifest_with(replications=-1), "replications is not a count"),
    ("manifest.json", _manifest_with(replications=True), "replications is not a count"),
    ("manifest.json", _manifest_with(base_seed="7"), "base_seed is not a whole number"),
    # the series bytes: 10 series of doubles over the chain's 274 days
    (SECOND_BIN, lambda data: data[:-1], "21919 bytes, not the 21920 of 10 series of 274 days"),
    (SECOND_BIN, lambda data: data + b"\0", "21921 bytes, not the 21920 of 10 series of 274 days"),
    (SECOND_BIN, FLIP, "its sha256 is not the one the manifest lists"),
    (SECOND_REP, lambda text: text.replace('"horizon_days":274', '"horizon_days":274.0', 1),
     "horizon_days 274.0 is not a whole number"),
    ("manifest.json", _manifest_without("sha256"),
     "sha256 does not hold a digest for each listed file"),
    ("manifest.json", _manifest_without("series"), SERIES_PAIRS),
    ("manifest.json", _manifest_with(series=[["released_doses", "f"]]), SERIES_PAIRS),
    ("manifest.json", _manifest_with(series=[["released_doses", "d", 8]]), SERIES_PAIRS),
    ("manifest.json", _manifest_with(series=["released_doses", "d"]), SERIES_PAIRS),
], ids=["no meta", "two metas", "no counts", "a list record", "manifest a list",
        "manifest not JSON", "files a string", "files holds a number", "no scenario",
        "a batch too deep", "a batch of dicts too deep", "manifest too deep", "a file outside the store",
        "a file listed twice", "a replication not listed", "two replications swapped",
        "a negative count", "a flag for a count", "a base seed in text",
        "a .bin one byte short", "a .bin one byte long", "a .bin byte flipped",
        "a horizon in days not whole",
        "no sha256", "no series", "a series of floats", "a series triple",
        "a series not a pair"])
def test_a_damaged_store_is_a_store_error(paired_stores, tmp_path, capsys, rel, edit,
                                          message):
    base, scen = paired_stores
    if edit is SWAP:
        odd, path = _swapped_copy(scen, tmp_path / "odd")
    elif edit is FLIP:
        odd, path = _rewritten_copy(scen, tmp_path / "odd", rel,
                                    lambda data: data[:99] + bytes([data[99] ^ 1]) + data[100:],
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

"""Golden digests: the demo plant's result bytes for base and every bundled scenario.

Each ``GOLDEN`` entry pins the sha256 of every replication's store file
and of the ``kpis.csv`` that ``write_store`` writes, for two replications
from seed 100. ``REPORT_GOLDEN`` pins each file that ``write_report``
writes over those seven stores, reloaded from disk. A change that alters any simulated
number, series name, statistic or serialization fails here; a deliberate
change updates the literals and says why. ``report.md`` is pinned for its
bottleneck table, which no CSV holds; it and ``manifest.json``, which is left
out, carry ``config_hash``, which changes whenever the config schema gains or
loses a field, so such a change updates the ``report.md`` literal too.
"""

import hashlib
import json
from pathlib import Path

import pytest
import yaml

import vaxsim
from vaxsim.cli import main
from vaxsim.config import parse_config
from vaxsim.metrics import bottleneck_report
from vaxsim.report import write_report
from vaxsim.runner import load_store, result_to_ndjson, run_ensemble, write_store
from vaxsim.scenario import parse_scenario

from conftest import batch_rows, exact, report_ranking

CONFIG_DIR = Path(vaxsim.__file__).parent / "configs"
SEED = 100
REPLICATIONS = 2

# scenario -> ([sha256 of each replication's files], sha256 of kpis.csv)
GOLDEN = {
    "base": (["8749f8c623da2240a0d0b7c3d88a4463fb7048393e9f4e24d8710443d494c803",
              "0909f52591029053b847025a675162e4a12a7c392a30676e645df71fb55982ed"],
             "d5a5aa3f362b8fb159d44a0013e7e6167b36ae78880615876a129d29af23bd47"),
    "lead_time_inflation": (
        ["d23f043e261ab8087cc6ec227d6a534f9735ea7b85c13b66bf2a5bda5092e8b1",
         "e9702a3afa7eb008e7912359ee650e1349a1cb4fdcc2911ee16866ad9cb8ba32"],
        "9b45d03f436edd7ed05797f5c4ac59f70c918250f928f4828ce2bfcf59c89264"),
    "power_outage": (
        ["cb748cc030a80ccd85e11baaa214c829a46eb1803f56d7c0a17093fc693440d9",
         "8a93a403e05ef3cd1983013ac9fb67a75903dddf79c08ea3ae846572d9ce36f3"],
        "3356d527d7fe68943b1d24600edf04f35f0dbef2938091dc914f9c131b474da9"),
    "quality_capacity_doubling": (
        ["31bb36b1576a4b0d0044dd421495312aa02072f7328f406fd77c92f3185e7d28",
         "b3bb1cefec1902947b32c33d48df824b58a229b0d5bdc6a7a07c60a0b7d0fd8a"],
        "573242038e5ee2966fa8be1f91a7032c8f1c6d7e886b2e97c783142edf544f9f"),
    "shutdown_main_culture": (
        ["856421a852a8e7792d77d84dde9eaed2232bbbeff3862423af63a16963e72035",
         "ee66bc2a6b051bf2315d8ee61fae6fbc6529b5ae2a10b8817f9822fd7bf14042"],
        "72ed856ea25b82d4ffda2600b4a24e97383ff81f8c54a5348c8907c195ba4d26"),
    "supplier_unavailability": (
        ["03e6306a8f286b59910cf7f12bd858273a2c0f02495d8cd0cfcddd8156a26ab4",
         "3131312129a47b1c6cb1b865ba5353378f2fb1c8c43c8879870330996e7903d8"],
        "8f4c2935d44902e7b41fc54bfe2ab0798fdb91bf8f5992f3883a114aa29398a1"),
    "workforce_reduction": (
        ["6854aecd5b54cf90b6781387bf54072ba5f7f1556f210bc980c1c3308e7c0e1a",
         "da2e19146806c545a8e24422802480505aaddd25124ca85636880f45a33acc40"],
        "9f574131018c5c9e5a914dde03e4de43f9528e72084e8c5365853df17b83444f"),
}


# report file -> sha256, over the seven stores above
REPORT_GOLDEN = {
    "comparison.csv": "144693a2beda42b4f58d2e8a36a814097f3b62666b0c204bedf1b9a3be9ead2b",
    "cumulative_throughput.csv": "f57a7f33fc1a20d23ffdd4a0bb8652f21c5d642c17e0df0d9d008e63255ab739",
    "inventory_levels.csv": "0ba5725032757c96999e4e4e35306f1eb38e21151b1cbd6eac347423af51bd30",
    "lead_time_histogram.csv": "d157b5d889d1e895690a1cb5fe1d2ed64a10c578cd7d1604d2642788fc7f3251",
    "monthly_throughput.csv": "803d506db99ddfe934005da7634dc23688f39eca85980fb99ff25fc6533049dc",
    "queue_lengths.csv": "04d3b013efebbc57bc1506c759bd077178925ddc30a729f49fb2a47c32b25b22",
    "recovery.csv": "30f2d76caa005cda640d8e41f6dcd480ea4e289ac5797e27f8f4dc2da881d1e7",
    "report.md": "191c873e29c652f78d108988581e74ea6f05a7c4af835e407b73754eb411cad7",
    "stockouts.csv": "56c5c5abc931547db6410b30bfcd7bd2c0a6e5527d16c80d3c153975cf385021",
    "utilization.csv": "61b3b217d9dac9b30aa47fd3921cfb9bcb3be131b6e2bfde8ee27afbfcece4e0",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rep_sha(res) -> str:
    """sha256 of a replication's store file."""
    return _sha(result_to_ndjson(res))


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """Each golden ensemble, run once and written to a store: name -> (results, dir)."""
    root = tmp_path_factory.mktemp("golden")
    raw = yaml.safe_load((CONFIG_DIR / "demo.yaml").read_text())
    cfg = parse_config(raw)
    out = {}
    for name in sorted(GOLDEN):
        overlay = ({} if name == "base" else
                   yaml.safe_load((CONFIG_DIR / "scenarios" / f"{name}.yaml").read_text()))
        results = run_ensemble(raw, overlay, SEED, REPLICATIONS)
        path = root / name
        write_store(str(path), results, cfg, parse_scenario(overlay, cfg), SEED)
        out[name] = (results, path)
    return out


@pytest.fixture(scope="module")
def report_dir(stores, tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_report")
    write_report([load_store(str(path)) for _, path in stores.values()], str(out))
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_store_bytes_match_golden(name, stores):
    results, path = stores[name]
    reps, kpis = GOLDEN[name]
    assert [_rep_sha(r) for r in results] == reps
    assert _sha((path / "kpis.csv").read_bytes()) == kpis


@pytest.mark.parametrize("name", sorted(REPORT_GOLDEN))
def test_report_bytes_match_golden(name, report_dir):
    assert _sha((report_dir / name).read_bytes()) == REPORT_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_ranking_is_bottleneck_report_on_golden_stores(name, stores):
    results = load_store(str(stores[name][1]))[1]
    assert exact(report_ranking(results)) == exact(bottleneck_report(results))


def _dumps(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _format_2(store: Path, dst: Path) -> Path:
    """Store ``store`` as ``vaxsim-store-2`` wrote it: each replication an
    NDJSON file of its meta, batch and counts records beside a .bin of its
    series, and neither counter nor batch layout in the manifest."""
    manifest, results = load_store(str(store))
    (dst / "replications").mkdir(parents=True)
    files = []
    for i, res in enumerate(results):
        lines = [{"kind": "meta", "scenario": res.scenario, "seed": res.seed,
                  "horizon_days": res.horizon_days, "start_date": res.start_date},
                 *(dict(b, kind="batch") for b in batch_rows(res)), dict(res.counts, kind="counts")]
        files += [f"replications/rep_{i:05d}.ndjson", f"replications/rep_{i:05d}.bin"]
        (dst / files[-2]).write_text("".join(_dumps(r) + "\n" for r in lines))
        (dst / files[-1]).write_bytes(b"".join(res.series[name].tobytes()
                                               for name, _ in manifest["series"]))
    files.append("kpis.csv")
    (dst / "kpis.csv").write_bytes((store / "kpis.csv").read_bytes())
    for key in ("counts", "batches", "codes"):
        del manifest[key]
    manifest.update(format="vaxsim-store-2", files=files,
                    sha256={f: _sha((dst / f).read_bytes()) for f in files})
    (dst / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return dst


def test_stores_in_the_older_format_are_refused(stores, tmp_path, capsys):
    """A store-2 store is the store error, named by its format tag: its
    records are JSON text, which this vaxsim no longer reads, so it must be
    run again."""
    current = [str(path) for _, path in stores.values()]
    old = str(_format_2(Path(current[1]), tmp_path / "old"))
    capsys.readouterr()
    for argv in (["compare", current[0], old],
                 ["report", current[0], old, "--out", str(tmp_path / "report")]):
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "store", "messages": [
            f"{old}/manifest.json: format 'vaxsim-store-2' is not 'vaxsim-store-3': "
            "run the store again with this vaxsim"]}
    assert not (tmp_path / "report").exists()


# A small chain plant that reaches the QA/QC branches the demo never takes: an
# in-process control that cannot fail, a sample test with no supervisory check
# and a release review with no approval step. It also retests after OOS
# investigations and in-process failures, opens deviations and rejects
# material receipts.
QAQC_PLANT = {
    "model": {"start_date": "2025-04-01", "end_date": "2025-10-01"},
    "inventories": [{"id": "hold", "capacity": 2},
                    {"id": "finished", "capacity": 4}],
    "stages": [
        {"id": "culture", "machines": 2,
         "processing_time": {"triangular": [0.8, 1.0, 1.5]},
         "output_inventory": "hold", "materials": {"media": 1.0},
         "ipc_tests": ["ph", "density"], "qc_tests": ["identity", "potency"],
         "document_review": True},
        {"id": "fill", "machines": 1,
         "processing_time": {"triangular": [0.6, 0.8, 1.1]},
         "output_inventory": "finished",
         "doses_per_batch": 1000, "yield_fraction": {"triangular": [0.9, 0.95, 1.0]},
         "ipc_tests": ["ph"], "qc_tests": ["sterility"]},
    ],
    "qc": {
        "teams": [{"id": "lab", "technicians": 2, "supervisors": 1}],
        "tests": [
            {"id": "ph", "test_time": 0.05, "failure_prob": 0.0},
            {"id": "density", "test_time": {"triangular": [0.05, 0.1, 0.2]},
             "failure_prob": 0.2},
            {"id": "identity", "team": "lab", "test_time": {"triangular": [0.1, 0.2, 0.4]},
             "check_time": 0.05, "failure_prob": 0.15},
            {"id": "potency", "team": "lab", "prep_time": 0.1,
             "test_time": {"triangular": [0.3, 0.5, 0.8]},
             "supervisory_check_time": {"triangular": [0.05, 0.1, 0.2]},
             "failure_prob": 0.2, "prerequisites": ["identity"]},
            {"id": "sterility", "team": "lab",
             "test_time": {"lognormal": {"median": 0.6, "scale": 1.3}},
             "supervisory_check_time": 0.1, "failure_prob": 0.1},
        ],
    },
    "qa": {"reviewers": 1, "supervisors": 1, "investigators": 1,
           "document_review_time": {"triangular": [0.1, 0.2, 0.3]},
           "release_review_time": {"triangular": [0.2, 0.3, 0.5]},
           "release_approval_time": 0.0,
           "oos_investigation_time": {"triangular": [0.5, 1.0, 2.0]},
           "deviation_investigation_time": {"triangular": [0.3, 0.6, 1.0]},
           "deviation_prob": 0.15},
    "materials": [{"id": "media", "initial_stockpile": 6.0, "reorder_point": 4.0,
                   "safety_stock": 2.0, "lot_size": 4.0, "receipt_qc_time": 0.3,
                   "receipt_rejection_prob": 0.2,
                   "suppliers": [{"id": "north", "split": 0.6,
                                  "lead_time": {"triangular": [2.0, 3.0, 5.0]},
                                  "transport_time": 0.5},
                                 {"id": "south", "split": 0.4, "lead_time": 4.0,
                                  "transport_time": {"triangular": [0.5, 1.0, 2.0]},
                                  "min_interarrival": 3.0}]}],
}

# sha256 of each replication's files, three replications from SEED
QAQC_PLANT_GOLDEN = [
    "54bed956b29559863151728353b92548246d8e41b457634ae947fd13862b778a",
    "8799255d91f430bb39aea7a02236d1c546ed5614f0343a41c84d12d547a5a45a",
    "f6e1aa1ae8120326424ac65ed9a6bff68ec1ef2c03f0c066b18147c6ad9ca952",
]


def test_qaqc_plant_bytes_match_golden():
    results = run_ensemble(QAQC_PLANT, {}, SEED, len(QAQC_PLANT_GOLDEN))
    counts = [r.counts for r in results]
    # the plant reaches what it is here for
    assert all(c["retests"] > 0 and c["investigations"] > c["retests"] for c in counts)
    assert all(c["batches_discarded"] > 0 and c["batches_released"] > 0 for c in counts)
    assert [_rep_sha(r) for r in results] == QAQC_PLANT_GOLDEN

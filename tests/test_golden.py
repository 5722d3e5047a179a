"""Golden digests: the demo plant's result bytes for base and every bundled scenario.

Each ``GOLDEN`` entry pins the sha256 of every replication's two store files
(its NDJSON records, then its series bytes) and of the ``kpis.csv`` that
``write_store`` writes, for two replications from seed 100. ``REPORT_GOLDEN`` pins each tidy CSV that ``write_report`` writes over
those seven stores, reloaded from disk. A change that alters any simulated
number, series name, statistic or serialization fails here; a deliberate
change updates the literals and says why. ``manifest.json`` and ``report.md``
are left out: they carry ``config_hash``, which changes whenever the config
schema gains or loses a field.
"""

import hashlib
import json
from pathlib import Path

import pytest
import yaml

import vaxsim
from vaxsim.cli import main
from vaxsim.config import parse_config
from vaxsim.report import write_report
from vaxsim.runner import load_store, result_to_ndjson, run_ensemble, write_store
from vaxsim.scenario import parse_scenario

CONFIG_DIR = Path(vaxsim.__file__).parent / "configs"
SEED = 100
REPLICATIONS = 2

# scenario -> ([sha256 of each replication's files], sha256 of kpis.csv)
GOLDEN = {
    "base": (["ef42dd8bd147b58ae209cbceeda05daac6ea90f5676df579598f92713fcb24cc",
              "c1ef602b49d602bdaed2195439b3245c8956eaa4f1875ee80be57811b36f7eae"],
             "d5a5aa3f362b8fb159d44a0013e7e6167b36ae78880615876a129d29af23bd47"),
    "lead_time_inflation": (
        ["508e31a50c3b5d95617424111c6e1761970eb42a8b8fe4acc75abeb371174d95",
         "74de080b9e8f8731caca79e546ab48a5846b027185f23ada0904adda16ebe04f"],
        "9b45d03f436edd7ed05797f5c4ac59f70c918250f928f4828ce2bfcf59c89264"),
    "power_outage": (
        ["0fe99aa5f5c7c4994954d27171666c4943eb696eb12cf2cc747fe4349054da9b",
         "336bab352be69dff637a32436e5ab92990837cc355abbd98ae3e8a043c72b7f0"],
        "3356d527d7fe68943b1d24600edf04f35f0dbef2938091dc914f9c131b474da9"),
    "quality_capacity_doubling": (
        ["8baa75fab70327edb1048b7b6a4622e4795ac9090c956f2ff0a41e09192a97ad",
         "73ef722b60adbfb5b5d05236fff0ca05ab5b394559a329dea953349973d6af06"],
        "573242038e5ee2966fa8be1f91a7032c8f1c6d7e886b2e97c783142edf544f9f"),
    "shutdown_main_culture": (
        ["db978768f3405ebbf193de30adbbcebe5b64b85e526c04c66b1bc23563796523",
         "a2e16b6ff512e19962126190f0d74bb3003f0ceac8d8b5e86fa84373a26c14d9"],
        "72ed856ea25b82d4ffda2600b4a24e97383ff81f8c54a5348c8907c195ba4d26"),
    "supplier_unavailability": (
        ["d221894d476d1cf783569fb541e0df2e330f9da8fc91acaf85f649941d40f661",
         "1ab0a151f86ca407fbe1c410b38801c5ab3962ed979169cdd36c9492df3c9b87"],
        "8f4c2935d44902e7b41fc54bfe2ab0798fdb91bf8f5992f3883a114aa29398a1"),
    "workforce_reduction": (
        ["ec8975ac7fd73ab2e127cc8e40614379951157f3be9f023f4201dd84ea7eef8a",
         "af3ee28e9933a98b7ae68b086c7c11083313a15ec9219bc963b37467bf562d7c"],
        "9f574131018c5c9e5a914dde03e4de43f9528e72084e8c5365853df17b83444f"),
}


# report file -> sha256, over the seven stores above
REPORT_GOLDEN = {
    "comparison.csv": "4acf29bd3a14d14564bec101d101f410b9ebcd29256c7d59f5a27c80e720f7c4",
    "cumulative_throughput.csv": "620b6864f3b5cf60c8247858bd1c6a62b1546cc6a1b9b6c0cfba23dee3a45720",
    "inventory_levels.csv": "0ba5725032757c96999e4e4e35306f1eb38e21151b1cbd6eac347423af51bd30",
    "lead_time_histogram.csv": "d157b5d889d1e895690a1cb5fe1d2ed64a10c578cd7d1604d2642788fc7f3251",
    "monthly_throughput.csv": "3383fadab825ce88f936617fade994944c039a41636eb2e8ae99ae12473047ad",
    "queue_lengths.csv": "04d3b013efebbc57bc1506c759bd077178925ddc30a729f49fb2a47c32b25b22",
    "recovery.csv": "30f2d76caa005cda640d8e41f6dcd480ea4e289ac5797e27f8f4dc2da881d1e7",
    "stockouts.csv": "56c5c5abc931547db6410b30bfcd7bd2c0a6e5527d16c80d3c153975cf385021",
    "utilization.csv": "61b3b217d9dac9b30aa47fd3921cfb9bcb3be131b6e2bfde8ee27afbfcece4e0",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rep_sha(res) -> str:
    """sha256 of a replication's .ndjson bytes followed by its .bin bytes."""
    return _sha(b"".join(result_to_ndjson(res)))


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


def _dumps(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _format_1(store: Path, dst: Path) -> Path:
    """Store ``store`` as ``vaxsim-store-1`` wrote it: each replication one
    NDJSON file holding its series as records, and no ``series`` or
    ``sha256`` in the manifest."""
    manifest, results = load_store(str(store))
    (dst / "replications").mkdir(parents=True)
    files = []
    for i, res in enumerate(results):
        lines = [{"kind": "meta", "scenario": res.scenario, "seed": res.seed,
                  "horizon_days": res.horizon_days, "start_date": res.start_date},
                 *({"kind": "series", "name": name, "values": res.series[name].tolist()}
                   for name in sorted(res.series)),
                 *(dict(b, kind="batch") for b in res.batches), dict(res.counts, kind="counts")]
        files.append(f"replications/rep_{i:05d}.ndjson")
        (dst / files[-1]).write_text("".join(_dumps(r) + "\n" for r in lines))
    (dst / "kpis.csv").write_bytes((store / "kpis.csv").read_bytes())
    del manifest["series"], manifest["sha256"]
    manifest.update(format="vaxsim-store-1", files=[*files, "kpis.csv"])
    (dst / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return dst


def test_stores_in_the_older_format_are_refused(stores, tmp_path, capsys):
    """A store-1 store is the store error, named by its format tag: its series
    are text, which this vaxsim no longer reads, so it must be run again."""
    current = [str(path) for _, path in stores.values()]
    old = str(_format_1(Path(current[1]), tmp_path / "old"))
    capsys.readouterr()
    for argv in (["compare", current[0], old],
                 ["report", current[0], old, "--out", str(tmp_path / "report")]):
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "store", "messages": [
            f"{old}/manifest.json: format 'vaxsim-store-1' is not 'vaxsim-store-2': "
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
    "034f302f29b74ed0a37f65f94f39478bcfb2b8783fb99f8666ee4242655ea374",
    "08bbc17b60c819d2923a20c31883539966bc17d63dae8d72bc7441f3a9aabb5a",
    "ad14a8338268b6e66fbd03b10767af1a8c199ca08ac56379ebdea93d161d7464",
]


def test_qaqc_plant_bytes_match_golden():
    results = run_ensemble(QAQC_PLANT, {}, SEED, len(QAQC_PLANT_GOLDEN))
    counts = [r.counts for r in results]
    # the plant reaches what it is here for
    assert all(c["retests"] > 0 and c["investigations"] > c["retests"] for c in counts)
    assert all(c["batches_discarded"] > 0 and c["batches_released"] > 0 for c in counts)
    assert [_rep_sha(r) for r in results] == QAQC_PLANT_GOLDEN

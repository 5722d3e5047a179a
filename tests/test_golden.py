"""Golden digests: the demo plant's result bytes for base and every bundled scenario.

Each ``GOLDEN`` entry pins the sha256 of every replication's NDJSON record and
of the ``kpis.csv`` that ``write_store`` writes, for two replications from seed
100. ``REPORT_GOLDEN`` pins each tidy CSV that ``write_report`` writes over
those seven stores, reloaded from disk. A change that alters any simulated
number, series name, statistic or serialization fails here; a deliberate
change updates the literals and says why. ``manifest.json`` and ``report.md``
are left out: they carry ``config_hash``, which changes whenever the config
schema gains or loses a field.
"""

import hashlib
from pathlib import Path

import pytest
import yaml

import vaxsim
from vaxsim.config import parse_config
from vaxsim.report import write_report
from vaxsim.runner import load_store, result_to_ndjson, run_ensemble, write_store
from vaxsim.scenario import parse_scenario

CONFIG_DIR = Path(vaxsim.__file__).parent / "configs"
SEED = 100
REPLICATIONS = 2

# scenario -> ([sha256 of each replication's NDJSON], sha256 of kpis.csv)
GOLDEN = {
    "base": (["bda9af721168f1bb4190564c34d4ffdb9a2f32ddeefb674fdb90dfba02cd0cf4",
              "4af619df1dcc6313942a9c1e3f05eb1b2de982ebb39544d750bd5152e8d52273"],
             "d5a5aa3f362b8fb159d44a0013e7e6167b36ae78880615876a129d29af23bd47"),
    "lead_time_inflation": (
        ["24a71de177769d42777f418b6de2c67f57a2e099f1392622193f4fd98949fb1b",
         "680ffd76176e20c070920d13395b9e85101e5288556404a03a16ba33bab379fa"],
        "9b45d03f436edd7ed05797f5c4ac59f70c918250f928f4828ce2bfcf59c89264"),
    "power_outage": (
        ["8777c34534af7c166453dad85d3aad286066b862f20f9231d5df269024a41e95",
         "84ba2ec26d5e159ba0585b6824da55d9b941690babe36d989ccaa323d5309cea"],
        "3356d527d7fe68943b1d24600edf04f35f0dbef2938091dc914f9c131b474da9"),
    "quality_capacity_doubling": (
        ["abee3bfe2f1a42ed619e5efa60c36d9fa2ca184761484c088cfe49cea90b227b",
         "6505cb5553567c333faeb48fe72e61cadc6ca4be5819d3bb25e166a4d212e060"],
        "573242038e5ee2966fa8be1f91a7032c8f1c6d7e886b2e97c783142edf544f9f"),
    "shutdown_main_culture": (
        ["dfa4ed6f555ca126d45049c5953f3dc1be317e4b902705db3c1b87bca1afc080",
         "56b5dda9ffce2849d010c4bb5ba1f3b31f6978872612be7758d214f14812370c"],
        "72ed856ea25b82d4ffda2600b4a24e97383ff81f8c54a5348c8907c195ba4d26"),
    "supplier_unavailability": (
        ["c7cfd8dace3eed6db85679068729d3fdad262ffc43c6ead54a54cf7c9f0a9364",
         "b1292eb4efd9e5d76682b19089af13fffc7b7994479ae66f31c79378c0a49b5d"],
        "8f4c2935d44902e7b41fc54bfe2ab0798fdb91bf8f5992f3883a114aa29398a1"),
    "workforce_reduction": (
        ["c72b4ed49176342e12ba2cff87088ac3493fee946ed7cc459d195414090d43be",
         "0fa38b328747f69a2c736666a7d16168c675e568a265f473dd8ce9decfb551eb"],
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
        write_store(str(path), results, cfg, parse_scenario(overlay, cfg), SEED, overlay)
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
    assert [_sha(result_to_ndjson(r).encode("utf-8")) for r in results] == reps
    assert _sha((path / "kpis.csv").read_bytes()) == kpis


@pytest.mark.parametrize("name", sorted(REPORT_GOLDEN))
def test_report_bytes_match_golden(name, report_dir):
    assert _sha((report_dir / name).read_bytes()) == REPORT_GOLDEN[name]


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

# sha256 of each replication's NDJSON record, three replications from SEED
QAQC_PLANT_GOLDEN = [
    "b0dd71bf6fe4e31cdd7108df4e0dbb725956a60098ad2629ff0b3c30a52422d1",
    "6385faa98c8fa5a5d95c0771d8bc3374d350ea9c061a392b12de6df04cdc1f33",
    "75177b3d12e0e1276aacd03085714bbe3fb870ca306a56c71208845b07508489",
]


def test_qaqc_plant_bytes_match_golden():
    results = run_ensemble(QAQC_PLANT, {}, SEED, len(QAQC_PLANT_GOLDEN))
    counts = [r.counts for r in results]
    # the plant reaches what it is here for
    assert all(c["retests"] > 0 and c["investigations"] > c["retests"] for c in counts)
    assert all(c["batches_discarded"] > 0 and c["batches_released"] > 0 for c in counts)
    assert [_sha(result_to_ndjson(r).encode("utf-8")) for r in results] == QAQC_PLANT_GOLDEN

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
import json
import shutil
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

# scenario -> ([sha256 of each replication's NDJSON], sha256 of kpis.csv)
GOLDEN = {
    "base": (["c791b6dd6639b6828950ebe56e87775f724ce1e8441b99252d9215a1f35e001e",
              "22700118612a2a39cccd642d996eb3ccc6c71882412f08efab2f31754030cae4"],
             "d5a5aa3f362b8fb159d44a0013e7e6167b36ae78880615876a129d29af23bd47"),
    "lead_time_inflation": (
        ["682f3c5eea343abf67ad6f07a214bf451a453c8b726d3d1f5e01a3b445e2adcc",
         "51c13cf1652a2b5ff25ac522202c0bccedf2ec87bcb8ac6e18f463b77049af77"],
        "9b45d03f436edd7ed05797f5c4ac59f70c918250f928f4828ce2bfcf59c89264"),
    "power_outage": (
        ["25c8d7b3ffde136c173119f0bd799c6ea817f23c88e67a742c66824e0c3400dc",
         "805373c304e70f67f1e4bc6d585d4d6d3eccc0be63541d5e238e8c4f13e0fbc0"],
        "3356d527d7fe68943b1d24600edf04f35f0dbef2938091dc914f9c131b474da9"),
    "quality_capacity_doubling": (
        ["1e3c7c966691ae5f59a3196b5dbbaafaead03daaa1503924b7943550a1dd7e21",
         "dad0b465d0a768f540c68541e27d2ab1e21c4d468369d4ab06f4fa4f145d0a63"],
        "573242038e5ee2966fa8be1f91a7032c8f1c6d7e886b2e97c783142edf544f9f"),
    "shutdown_main_culture": (
        ["bbcd942b5219cbaf7e643b231f4ac0239a3bbfabf0744b6114486feed746f76f",
         "43d8beff7af0d61b9ed809692f7ea34b59d8bd6f5d9f3c0174b61b61019c38ad"],
        "72ed856ea25b82d4ffda2600b4a24e97383ff81f8c54a5348c8907c195ba4d26"),
    "supplier_unavailability": (
        ["6a71c13fca9ea2f7136a8a7064c60e99b4a90b7d124e0f0c4674c7a15eeda47e",
         "f47d117577b07d475dce6984f5f3c9fd28a3b05f0169180a28eca270a13840b4"],
        "8f4c2935d44902e7b41fc54bfe2ab0798fdb91bf8f5992f3883a114aa29398a1"),
    "workforce_reduction": (
        ["61f4fa015a127071f70253a7b3e95d39dc6c675a808a4756ad75ec0c35cc6e50",
         "cafdbf5868e33de31d305057835cfa8a253f32eddd7773f54b75458b517abd00"],
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


def _dumps(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _older_layout(src: Path, dst: Path) -> Path:
    """A copy of store ``src`` in the layout stores had before the records
    nothing read were dropped: each replication also carries the daily
    ``batches_created``, ``batches_released`` and ``batches_discarded`` series
    (rebuilt from its batch log) and the ``pool_completed``,
    ``pool_sojourn_days`` and ``stage_busy_days`` counters (stand-in values)."""
    shutil.copytree(src, dst)
    for path in sorted((dst / "replications").glob("rep_*.ndjson")):
        records = [json.loads(line) for line in path.read_text().splitlines()]
        meta, counts = records[0], records[-1]
        horizon = meta["horizon_days"]
        series = {r["name"]: r for r in records if r["kind"] == "series"}
        batches = [r for r in records if r["kind"] == "batch"]
        for name, at in (("batches_created", "created_at"),
                         ("batches_released", "released_at"),
                         ("batches_discarded", "discarded_at")):
            values = [0.0] * horizon
            for b in batches:
                if b[at] is not None:
                    values[min(int(b[at]), horizon - 1)] += 1
            series[name] = {"kind": "series", "name": name, "values": values}
        for key in list(counts):
            family, _, item = key.partition(".")
            if family == "pool_started":
                counts[f"pool_completed.{item}"] = counts[key]
            elif family == "pool_wait_days":
                counts[f"pool_sojourn_days.{item}"] = (
                    counts[key] + counts[f"pool_busy_days.{item}"])
            elif family == "stage_closed_days":
                counts[f"stage_busy_days.{item}"] = 1.5
        lines = [meta, *(series[n] for n in sorted(series)), *batches, counts]
        path.write_text("".join(_dumps(r) + "\n" for r in lines), encoding="utf-8")
    return dst


def test_stores_in_the_older_layout_read_the_same(stores, report_dir, tmp_path, capsys):
    """Older-layout stores load, pair with current ones, and give the same
    ``compare`` output and report bytes."""
    current = [str(path) for _, path in stores.values()]
    mixed = [str(_older_layout(Path(p), tmp_path / Path(p).name)) if i % 2 == 0 else p
             for i, p in enumerate(current)]
    capsys.readouterr()
    outputs = []
    for paths in (current, mixed):
        assert main(["compare", *paths]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert main(["report", *mixed, "--out", str(tmp_path / "report")]) == 0
    files = sorted(p.name for p in report_dir.iterdir())
    assert sorted(p.name for p in (tmp_path / "report").iterdir()) == files
    for name in files:
        assert (tmp_path / "report" / name).read_bytes() == (report_dir / name).read_bytes()


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
    "3a82a6c41cbc57db7b957b940a7d0e77d4faa658c96e72b3cc448ae131ecd048",
    "8a45adab072ac51af8222c767b715b8ad610f9e9ce562bc4902560fa78a87510",
    "911b4b5fcd0d8f5da2c8d371fbe348c06e2bf7fc7f96c22a245cde91541996ee",
]


def test_qaqc_plant_bytes_match_golden():
    results = run_ensemble(QAQC_PLANT, {}, SEED, len(QAQC_PLANT_GOLDEN))
    counts = [r.counts for r in results]
    # the plant reaches what it is here for
    assert all(c["retests"] > 0 and c["investigations"] > c["retests"] for c in counts)
    assert all(c["batches_discarded"] > 0 and c["batches_released"] > 0 for c in counts)
    assert [_sha(result_to_ndjson(r).encode("utf-8")) for r in results] == QAQC_PLANT_GOLDEN

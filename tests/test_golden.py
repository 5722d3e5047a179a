"""Golden digests: the demo plant's result bytes for base and every bundled scenario.

Each entry pins the sha256 of every replication's NDJSON record and of the
``kpis.csv`` that ``write_store`` writes, for two replications from seed 100.
A change that alters any simulated number, series name or serialization fails
here; a deliberate model change updates the literals and says why.
``manifest.json`` is left out: it carries ``config_hash``, which changes
whenever the config schema gains or loses a field.
"""

import hashlib
from pathlib import Path

import pytest
import yaml

import vaxsim
from vaxsim.config import parse_config
from vaxsim.runner import result_to_ndjson, run_ensemble, write_store
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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_store_bytes_match_golden(name, tmp_path):
    raw = yaml.safe_load((CONFIG_DIR / "demo.yaml").read_text())
    overlay = ({} if name == "base" else
               yaml.safe_load((CONFIG_DIR / "scenarios" / f"{name}.yaml").read_text()))
    results = run_ensemble(raw, overlay, SEED, REPLICATIONS)
    cfg = parse_config(raw)
    write_store(str(tmp_path), results, cfg, parse_scenario(overlay, cfg), SEED, overlay)
    reps, kpis = GOLDEN[name]
    assert [_sha(result_to_ndjson(r).encode("utf-8")) for r in results] == reps
    assert _sha((tmp_path / "kpis.csv").read_bytes()) == kpis

"""Shared config builders for the test suite."""

import copy
import sys

import pytest

from vaxsim.config import parse_config

# Deterministic 3-stage chain: 1/2/3-day constant processing, single machines,
# unbounded buffers, no QC, no materials. First release lands at day 6 and the
# bottleneck stage spaces releases exactly 3 days apart.
CHAIN = {
    "model": {"start_date": "2025-04-01", "end_date": "2028-03-31"},
    "inventories": [
        {"id": "buf_1"},
        {"id": "buf_2"},
        {"id": "finished"},
    ],
    "stages": [
        {"id": "prep", "machines": 1, "processing_time": {"constant": 1.0},
         "output_inventory": "buf_1"},
        {"id": "mix", "machines": 1, "processing_time": {"constant": 2.0},
         "output_inventory": "buf_2"},
        {"id": "fill", "machines": 1, "processing_time": {"constant": 3.0},
         "output_inventory": "finished",
         "doses_per_batch": 1000},
    ],
}


def chain_dict(**model_overrides):
    d = copy.deepcopy(CHAIN)
    d["model"].update(model_overrides)
    return d


def chain_config(**model_overrides):
    return parse_config(chain_dict(**model_overrides))


@pytest.fixture
def chain_cfg():
    return chain_config()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per whole-system check (see test_acceptance)."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("whole-system checks")
    for label, status, detail in sorted(results,
                                        key=lambda r: int(r[0].split()[0][1:])):
        terminalreporter.write_line(f"{status} {label}: {detail}")

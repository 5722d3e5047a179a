#!/usr/bin/env python3
"""Smoke check for the benchmark: every workload at its smallest size.

Run from the repository root:

    python3 perfbench/smoke.py

For each workload it makes one timing run and one traced run with
``--smallest`` and asserts that the last line of output names every metric of
``BENCHMARK.json`` (end-to-end or per-layer) with its unit, that no operation
failed (failed_frac is 0) and that the traced run's stores match the untraced
ones. It then copies only ``BENCHMARK.json`` and ``perfbench/`` into a scratch
directory and asserts that the benchmark refuses to run there.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def run(args, cwd=ROOT):
    return subprocess.run(RUN + args, capture_output=True, text=True,
                          timeout=600, cwd=cwd)


def check_run(bench: dict, workload: str, trace: int) -> None:
    proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smallest"])
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}, where
    assert summary["attempted"] >= 1, where
    assert summary["failed"] / summary["attempted"] == 0, \
        f"{where}: failed_frac {summary['failed']}/{summary['attempted']}\n" \
        f"{proc.stderr}"
    assert summary["correct"] is True, where
    declared = bench["per_layer" if trace else "end_to_end"]
    got = summary["metrics"]
    assert set(got) == {m["name"] for m in declared}, \
        f"{where}: metric names differ: {sorted(set(got) ^ {m['name'] for m in declared})}"
    for m in declared:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], f"{where}: {m['name']} unit {entry['unit']}"
        assert isinstance(entry["value"], (int, float)), f"{where}: {m['name']}"
        if not trace:
            assert entry["value"] > 0, f"{where}: {m['name']} is {entry['value']}"
    print(f"ok  {where}: {len(got)} metrics, {summary['attempted']} operations")


def check_refuses_without_program() -> None:
    bare = os.path.join(HERE, "out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(["--workload", "base_ensemble", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without the program"
    assert '"metrics"' not in proc.stdout, "printed a result without the program"
    print("ok  refuses to run without src/")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace)
    check_refuses_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())

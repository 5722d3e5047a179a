"""Time one benchmark set-up in a fresh interpreter and print it as JSON.

Usage: python3 perfbench/probe.py <workload>
"""

import json
import sys

import run

if __name__ == "__main__":
    _, timings = run.setup(run.WORKLOADS[sys.argv[1]])
    print(json.dumps(timings))

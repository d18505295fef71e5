"""Set-up probe for the mission benchmark.

    python3 perfbench/probe.py WORKLOAD SEED DIRECTORY

Does the set-up of one benchmark run in a fresh interpreter (thread
pinning, importing the entry point, writing the workload's scenario
files), prints ``ready`` and exits, so the parent can time set-up from
process start.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins BLAS threads before numpy is imported)

if __name__ == "__main__":
    run.prepare(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print("ready", flush=True)

"""Run the 27-mission oracle set and print one JSON line per mission.

The set is the two built-in missions, the 8 scenario files of the
benchmark's three workloads at seed 0 (``perfbench/gen.py``), 12 drawn
unicycle missions ``u00``-``u11``, four long unicycle missions
``long0``-``long3`` and ``mecanum_fine`` on a 0.125 m grid. Each runs
through ``reachplan.cli.main(["run", ...])``; its line holds the status,
the simulated time, the kernel and QP counters and the sha256 of
``trajectory.csv``, of the graph steps concatenated in step order, of
``partition.json`` and of the events. A change that must not move any
output prints the same lines as its parent:

    PYTHONPATH=<parent checkout>/src python tools/oracle_set.py > parent.jsonl
    PYTHONPATH=src python tools/oracle_set.py > change.jsonl
    diff parent.jsonl change.jsonl

``reachplan`` is imported from the ``PYTHONPATH`` given, so one copy of
this script serves both. A whole set takes about a minute.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys
import tempfile
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import gen  # noqa: E402

from reachplan.cli import main  # noqa: E402

# the built-in unicycle grid: 1.25 m x 1.25 m x pi/4 cells
_U_SIDES = (1.25, 1.25, math.pi / 4)
_U_DRAWS = 12
# (start, target) of the long unicycle missions
_LONG = [
    ([-8.125, -8.125, 0.0], [0.625, 0.625, -math.pi / 8]),
    ([-4.375, 0.625, -math.pi / 8], [5.625, 5.625, math.pi / 8]),
    ([-8.125, 0.625, 7 * math.pi / 8], [8.125, 0.625, -math.pi / 8]),
    ([5.625, -5.625, math.pi / 2], [-5.625, 5.625, -math.pi / 2]),
]


def unicycle_draws() -> list:
    """u00-u11: the built-in unicycle with start and target drawn from
    one random.Random(0) stream, per mission x1, x2 and theta of the
    start, then of the target, each a choice of the grid's cell centres."""
    lo, hi = gen.UNICYCLE["ws_lo"], gen.UNICYCLE["ws_hi"]
    centres = [[a + (i + 0.5) * h for i in range(round((b - a) / h))]
               for a, b, h in zip(lo, hi, _U_SIDES)]
    rng = random.Random(0)
    out = []
    for k in range(_U_DRAWS):
        start = [rng.choice(c) for c in centres]
        target = [rng.choice(c) for c in centres]
        out.append(dict(gen.UNICYCLE, name=f"u{k:02d}", x_init=start, x_target=target))
    return out


def missions() -> list:
    """(name, --scenario argument or scenario dict) of every mission."""
    out = [("builtin_mecanum", "mecanum"), ("builtin_unicycle", "unicycle")]
    out += [(s["name"], s) for w in gen.WORKLOADS for s in gen.scenarios(w, 0)]
    out += [(s["name"], s) for s in unicycle_draws()]
    out += [(f"long{k}", dict(gen.UNICYCLE, name=f"long{k}", x_init=a, x_target=b))
            for k, (a, b) in enumerate(_LONG)]
    fine = gen.scenarios("mecanum_fine", 0)[0]
    out.append(("mecanum_fine_0.125", dict(fine, name="mecanum_fine_0.125",
                                           h_min=[0.125, 0.125])))
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_one(name: str, spec, work: str) -> dict:
    out = os.path.join(work, name)
    os.makedirs(out)
    if isinstance(spec, dict):
        path = os.path.join(work, f"{name}.json")
        with open(path, "w") as f:
            json.dump(spec, f)
        spec = path
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        main(["run", "--scenario", spec, "--out", out, "--quiet"])

    def read(file):
        with open(os.path.join(out, file), "rb") as f:
            return f.read()

    summary = json.loads(read("summary.json"))
    steps = b"".join(read(f"graph_step_{k}.json")
                     for k in range(len(summary["edge_status_tallies"])))
    return {"mission": name, "status": summary["status"],
            "simulated_time": summary["simulated_time"],
            "kernel_calls": summary["kernel_calls"],
            "kernel_systems": summary["kernel_systems"], "qp_calls": summary["qp_calls"],
            "trajectory": _sha(read("trajectory.csv")), "graph_steps": _sha(steps),
            "partition": _sha(read("partition.json")),
            "events": _sha(json.dumps(summary["events"]).encode())}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        for name, spec in missions():
            print(json.dumps(run_one(name, spec, work)), flush=True)

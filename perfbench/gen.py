"""Scenario files for the mission benchmark, generated from a seed.

Every workload is a list of scenario dicts in the JSON layout that
``reachplan run --scenario <file>`` reads. The two built-in missions are
written out field by field, so a later change to the program's built-in
definitions does not change the benchmark's inputs. The workloads shorten
them: one pass over a workload's missions takes a few seconds, so that a
run holds a score of passes and their median time is steady.
"""
from __future__ import annotations

import json
import math
import os
import random

UNICYCLE = {
    "system": "unicycle", "name": "unicycle",
    "ws_lo": [-10.0, -10.0, -math.pi], "ws_hi": [10.0, 10.0, math.pi],
    "pu_lo": [-10.0, -10.0], "pu_hi": [10.0, 10.0],
    "L_df": 0.05, "L_g": 1.0, "h_min": [1.25, 1.25, math.pi / 4],
    "C_u": 10.0, "beta_u": 1.0,
    "x_init": [-4.375, 0.625, -math.pi / 8], "x_target": [0.625, 0.625, -math.pi / 8],
    "p_prior": 0.5, "theta_thre": math.radians(10.0), "shrink": 0.5,
    "dt": 0.001, "ident_period": 0.001, "max_iters": 300, "retry_budget": 10,
    "stall_limit": 8, "wall_budget": 600.0, "terminal_budget": 20.0,
    "terminal_alpha": 1.0, "terminal_kappa": 1.0, "terminal_slack_weight": 1e6,
    "r_stop": 0.5, "record_stride": 10, "seed": 0,
}

MECANUM = {
    "system": "mecanum", "name": "mecanum",
    "ws_lo": [-8.0, -8.0], "ws_hi": [8.0, 8.0],
    "pu_lo": [-5.0, -5.0], "pu_hi": [5.0, 5.0],
    "L_df": 0.03, "L_g": 0.03, "h_min": [1.0, 1.0],
    "C_u": 100.0, "beta_u": 0.8,
    "x_init": [6.5, 6.5], "x_target": [-0.5, -0.5],
    "p_prior": 0.5, "theta_thre": 0.0, "shrink": 0.5,
    "dt": 0.001, "ident_period": 0.001, "max_iters": 300, "retry_budget": 10,
    "stall_limit": 8, "wall_budget": 600.0, "terminal_budget": 40.0,
    "terminal_alpha": 1.0, "terminal_kappa": 20.0, "terminal_slack_weight": 1e6,
    "r_stop": 0.1, "record_stride": 10, "seed": 0,
}

# The built-in unicycle mission with its target 2.5 m from the start
# instead of 5 m: about 9k LPs and 54 leaves instead of 40k and 215.
UNICYCLE_TARGET = [-1.875, 0.625, -math.pi / 8]
# The built-in mecanum mission on a 0.25 m grid, started at (3.5, 3.5)
# with a 4 ms step: 250 leaves, so adjacency stays a large share, with a
# quarter of the RK4 steps per simulated second.
FINE_H_MIN = [0.25, 0.25]
FINE_START = [3.5, 3.5]
FINE_DT = 0.004

# The batch runs on a small workspace: 8 x 8 cells of h_min.
BATCH_HALF_WIDTH = 4.0
BATCH_H_MIN = 1.0
BATCH_SIZE = 6
# Over all 1232 down-drift (start, target) pairs of that workspace, one
# mission costs 0.1 to 12 s of CPU. A fresh draw per run seed would move
# the batch's wall time by more than the benchmark's bounds between seeds,
# so the missions are drawn once, with this fixed seed, and the run seed
# only decides their order and numbering. All six missions of this draw
# succeed.
BATCH_DRAW_SEED = 0

WORKLOADS = ("unicycle", "mecanum_fine", "mecanum_batch")


def _cell_centres() -> list:
    k = round(2 * BATCH_HALF_WIDTH / BATCH_H_MIN)
    return [-BATCH_HALF_WIDTH + (i + 0.5) * BATCH_H_MIN for i in range(k)]


def batch_missions(seed: int) -> list:
    """Mecanum missions between h_min cell centres, in seeded order.

    The drift is -4.5 per axis and |u| <= 5, so only targets that lie
    componentwise down-drift of the start are worth attempting. The
    missions are a uniform draw from every such pair of distinct cells.
    """
    centres = _cell_centres()
    k = len(centres)
    pairs = [((sx, sy), (tx, ty))
             for sx in range(k) for sy in range(k)
             for tx in range(sx + 1) for ty in range(sy + 1)
             if (tx, ty) != (sx, sy)]
    chosen = random.Random(BATCH_DRAW_SEED).sample(pairs, BATCH_SIZE)
    random.Random(seed).shuffle(chosen)
    out = []
    for i, ((sx, sy), (tx, ty)) in enumerate(chosen):
        out.append(dict(
            MECANUM, name=f"batch{i:02d}",
            ws_lo=[-BATCH_HALF_WIDTH] * 2, ws_hi=[BATCH_HALF_WIDTH] * 2,
            h_min=[BATCH_H_MIN] * 2,
            x_init=[centres[sx], centres[sy]], x_target=[centres[tx], centres[ty]]))
    return out


def scenarios(workload: str, seed: int) -> list:
    """Scenario dicts of one workload; only the batch depends on the seed."""
    if workload == "unicycle":
        return [dict(UNICYCLE, x_target=list(UNICYCLE_TARGET))]
    if workload == "mecanum_fine":
        return [dict(MECANUM, name="mecanum_fine", h_min=list(FINE_H_MIN),
                     x_init=list(FINE_START), dt=FINE_DT)]
    if workload == "mecanum_batch":
        return batch_missions(seed)
    raise ValueError(f"unknown workload '{workload}'")


def write(workload: str, seed: int, directory: str) -> list:
    """Write the workload's scenario files and return their paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for scn in scenarios(workload, seed):
        path = os.path.join(directory, f"{scn['name']}.json")
        with open(path, "w") as f:
            json.dump(scn, f, indent=1, sort_keys=True)
            f.write("\n")
        paths.append(path)
    return paths

"""Command-line interface: run missions, demo partitioning, one-shot checks.

Subcommands:
  run             execute a mission and write trajectory/graph/partition files
  partition-demo  run only the segment-driven refinement and print the
                  leaf count and reduction ratio
  certify         one-shot facet-reachability check from a model JSON file
  validate        schema-check a scenario JSON file

Exit codes: 0 success, 1 usage/validation error, 2 mission failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .dynamics import AffineModel
from .geometry import Box, GeometryError, box_to_polytope
from .partition import PartitionTree, uniform_cell_count
from .planner import Scenario, builtin_scenario, run_mission
from .reach import facet_reachable

SCHEMA_VERSION = 1

_REQUIRED = ["system", "ws_lo", "ws_hi", "pu_lo", "pu_hi", "L_df", "L_g",
             "h_min", "C_u", "beta_u", "x_init", "x_target"]
# (state dimension, input dimension) per built-in plant
_SYSTEM_DIMS = {"mecanum": (2, 2), "unicycle": (3, 2)}
_VECTORS = ("ws_lo", "ws_hi", "pu_lo", "pu_hi", "h_min", "x_init", "x_target")
# numeric fields that must be finite and non-negative when present
_SCALARS = ("L_df", "L_g", "C_u", "beta_u", "p_prior", "theta_thre", "shrink",
            "dt", "ident_period", "wall_budget", "terminal_budget",
            "terminal_alpha", "terminal_kappa", "terminal_slack_weight",
            "r_stop")
_POSITIVE = ("C_u", "dt")


def load_scenario(spec: str, overrides: dict) -> Scenario:
    """Resolve a scenario by built-in name or JSON file path."""
    if os.path.exists(spec):
        with open(spec) as f:
            data = json.load(f)
        err = validate_scenario_dict(data)
        if err:
            raise ValueError(err)
        data.pop("schema_version", None)
        scn = Scenario.from_dict(data)
    else:
        scn = builtin_scenario(spec)
    for k, v in overrides.items():
        if v is not None:
            setattr(scn, k, np.asarray(v, dtype=float) if isinstance(
                getattr(scn, k), np.ndarray) else type(getattr(scn, k))(v))
    return scn


def validate_scenario_dict(data: dict):
    """Return an error string naming the offending field, or None.

    Builds the workspace, input box and partition root with the same
    constructors a mission uses, so an accepted scenario can run.
    """
    if not isinstance(data, dict):
        return "scenario: not a JSON object"
    for k in _REQUIRED:
        if k not in data:
            return f"scenario.{k}: missing required field"
    if data["system"] not in _SYSTEM_DIMS:
        return "scenario.system: must be 'mecanum' or 'unicycle'"
    n, m = _SYSTEM_DIMS[data["system"]]
    v = {}
    for key in _VECTORS:
        try:
            v[key] = np.asarray(data[key], dtype=float)
        except (TypeError, ValueError):
            return f"scenario.{key}: not a numeric vector"
        size = m if key.startswith("pu_") else n
        if v[key].shape != (size,):
            return f"scenario.{key}: needs {size} entries for '{data['system']}'"
        if not np.all(np.isfinite(v[key])):
            return f"scenario.{key}: must be finite"
    for key in _SCALARS:
        if key not in data:
            continue
        try:
            x = float(data[key])
        except (TypeError, ValueError):
            return f"scenario.{key}: not a number"
        if not np.isfinite(x):
            return f"scenario.{key}: must be finite"
        if x <= 0 and key in _POSITIVE:
            return f"scenario.{key}: must be positive"
        if x < 0:
            return f"scenario.{key}: must not be negative"
    try:
        ws = Box(lo=v["ws_lo"], hi=v["ws_hi"])
    except GeometryError:
        return "scenario.ws_hi: must exceed ws_lo componentwise"
    try:
        Box(lo=v["pu_lo"], hi=v["pu_hi"])
    except GeometryError:
        return "scenario.pu_hi: must exceed pu_lo componentwise"
    for key in ("x_init", "x_target"):
        if not ws.contains(v[key]):
            return f"scenario.{key}: outside the workspace box"
    try:
        PartitionTree(ws.lo, ws.hi, v["h_min"])
    except GeometryError as e:
        return f"scenario.h_min: {e}"
    return None


def _write_outputs(out_dir: str, scn: Scenario, log) -> None:
    os.makedirs(out_dir, exist_ok=True)
    n, m = scn.x_init.size, scn.pu_lo.size
    with open(os.path.join(out_dir, "trajectory.csv"), "w") as f:
        hdr = ["t"] + [f"x{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(m)]
        f.write(",".join(hdr + ["cell_id"]) + "\n")
        for t, x, u, cid in zip(log.traj_t, log.traj_x, log.traj_u, log.traj_cell):
            row = [f"{t:.17g}"] + [f"{v:.17g}" for v in x] + [f"{v:.17g}" for v in u]
            f.write(",".join(row + [str(cid)]) + "\n")
    for k, snap in enumerate(log.snapshots):
        with open(os.path.join(out_dir, f"graph_step_{k}.json"), "w") as f:
            json.dump(snap, f, indent=1)
    tree_snapshot = log.metrics.get("partition")
    if tree_snapshot is not None:
        with open(os.path.join(out_dir, "partition.json"), "w") as f:
            json.dump(tree_snapshot, f, indent=1)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scn.to_dict(),
        "status": log.status,
        "success": log.success,
        "final_distance": log.final_distance,
        "leaf_count": log.metrics.get("leaf_count"),
        "uniform_count": log.metrics.get("uniform_count"),
        "reduction_ratio": log.metrics.get("reduction_ratio"),
        "lp_calls": log.metrics.get("lp_calls"),
        "qp_calls": log.metrics.get("qp_calls"),
        "simulated_time": log.metrics.get("simulated_time"),
        "edge_status_tallies": [s["tally"] for s in log.snapshots],
        "events": log.events,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)


def cmd_run(args) -> int:
    try:
        scn = load_scenario(args.scenario, {
            "dt": args.dt, "theta_thre": args.theta_thre,
            "max_iters": args.max_iters, "seed": args.seed,
        })
        if args.h_min is not None:
            scn.h_min = np.full_like(scn.h_min, float(args.h_min))
        err = validate_scenario_dict(scn.to_dict())
        if err:
            raise ValueError(err)
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    log = run_mission(scn)
    if args.out:
        _write_outputs(args.out, scn, log)
    if not args.quiet:
        print(f"status: {log.status}")
        print(f"final distance: {log.final_distance:.4f}")
        print(f"leaf count: {log.metrics['leaf_count']} "
              f"(uniform {log.metrics['uniform_count']}, "
              f"reduction {log.metrics['reduction_ratio']:.2%})")
        print(f"wall time: {log.metrics['wall_time_s']:.1f} s, "
              f"LPs: {log.metrics['lp_calls']}, QPs: {log.metrics['qp_calls']}")
    return 0 if log.success else 2


def cmd_partition_demo(args) -> int:
    try:
        scn = load_scenario(args.scenario, {})
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    tree = PartitionTree(scn.ws_lo, scn.ws_hi, scn.h_min)
    tree.refine_segment(scn.x_init, scn.x_target)
    uniform = uniform_cell_count(scn.ws_lo, scn.ws_hi, scn.h_min)
    ratio = 1.0 - tree.leaf_count() / uniform
    print(f"leaves: {tree.leaf_count()}  uniform: {uniform}  "
          f"reduction: {ratio:.2%}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "partition.json"), "w") as f:
            json.dump(tree.snapshot(), f, indent=1)
    return 0


def cmd_certify(args) -> int:
    try:
        with open(args.model) as f:
            data = json.load(f)
        model = AffineModel(A=data["A"], B=data["B"], c=data["c"],
                            linearization_point=data.get(
                                "linearization_point", np.zeros(len(data["c"]))))
        cell = Box(lo=data["cell_lo"], hi=data["cell_hi"])
        pu = Box(lo=data["pu_lo"], hi=data["pu_hi"])
        fct = int(data["exit_facet"])
    except (KeyError, ValueError, FileNotFoundError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    cert = facet_reachable(model, box_to_polytope(cell), fct, pu)
    if cert is None:
        print("infeasible")
        return 2
    print("reachable")
    for j in sorted(cert.controls):
        print(f"  vertex {j}: u = {np.round(cert.controls[j], 6).tolist()}")
    return 0


def cmd_validate(args) -> int:
    try:
        with open(args.scenario) as f:
            data = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    err = validate_scenario_dict(data)
    if err:
        print(f"invalid: {err}", file=sys.stderr)
        return 1
    print("valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="reachplan",
                                 description="PWA abstraction planner/simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a mission")
    p_run.add_argument("--scenario", required=True,
                       help="built-in name (mecanum|unicycle) or JSON path")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--dt", type=float, default=None)
    p_run.add_argument("--h-min", type=float, default=None)
    p_run.add_argument("--theta-thre", type=float, default=None,
                       help="side-facet relaxation threshold (radians)")
    p_run.add_argument("--max-iters", type=int, default=None)
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_pd = sub.add_parser("partition-demo", help="segment-driven refinement only")
    p_pd.add_argument("--scenario", required=True)
    p_pd.add_argument("--out", default=None)
    p_pd.set_defaults(func=cmd_partition_demo)

    p_ct = sub.add_parser("certify", help="one-shot reachability check")
    p_ct.add_argument("--model", required=True, help="model JSON file")
    p_ct.set_defaults(func=cmd_certify)

    p_val = sub.add_parser("validate", help="schema-check a scenario file")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: run missions, demo partitioning, one-shot checks.

Subcommands:
  run             execute a mission and write trajectory/graph/partition files
  partition-demo  run only the segment-driven refinement and print the
                  leaf count and reduction ratio
  certify         one-shot facet-reachability check from a model JSON file
  validate        parse a scenario JSON file with the parser run uses

Exit codes: 0 success, 1 usage/validation error, 2 mission failure.
"""
from __future__ import annotations

import argparse
import functools
import glob
import json
import os
import sys

import numpy as np

from .dynamics import AffineModel
from .geometry import Box, box_to_polytope
from .partition import PartitionTree, uniform_cell_count
from .planner import run_mission
from .reach import facet_reachable
from .scenario import Scenario, builtin_scenario

SCHEMA_VERSION = 3
MODEL_MAX = 1e50     # largest certify model value: products of four stay finite


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error; exit code 2 means a mission failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def load_scenario(spec: str, overrides: dict) -> Scenario:
    """Parse a built-in name or JSON file path, with the non-None
    ``overrides`` replacing fields first; a scalar ``h_min`` applies to
    every axis."""
    if os.path.exists(spec):
        with open(spec) as f:
            data = json.load(f)
    else:
        data = builtin_scenario(spec).to_dict()
    if isinstance(data, dict):
        for k, v in overrides.items():
            if v is None:
                continue
            if k == "h_min" and isinstance(data.get(k), list):
                v = [v] * len(data[k])
            data[k] = v
    return Scenario.from_dict(data)


def _write_outputs(out_dir: str, scn: Scenario, log) -> None:
    os.makedirs(out_dir, exist_ok=True)
    # each step is a change from the one before, so a step left over from
    # an earlier mission in this directory would corrupt a replay
    for path in glob.glob(os.path.join(glob.escape(out_dir), "graph_step_*.json")):
        os.remove(path)
    n, m = scn.x_init.size, scn.pu_lo.size
    with open(os.path.join(out_dir, "trajectory.csv"), "w") as f:
        hdr = ["t"] + [f"x{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(m)]
        f.write(",".join(hdr + ["cell_id"]) + "\n")
        for t, x, u, cid in zip(log.traj_t, log.traj_x, log.traj_u, log.traj_cell):
            row = [f"{t:.17g}"] + [f"{v:.17g}" for v in x] + [f"{v:.17g}" for v in u]
            f.write(",".join(row + [str(cid)]) + "\n")
    for k, snap in enumerate(log.snapshots):
        with open(os.path.join(out_dir, f"graph_step_{k}.json"), "w") as f:
            f.write(json.dumps(snap))
    tree_snapshot = log.metrics.get("partition")
    if tree_snapshot is not None:
        with open(os.path.join(out_dir, "partition.json"), "w") as f:
            f.write(json.dumps(tree_snapshot))
    summary = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scn.to_dict(),
        "status": log.status,
        "success": log.success,
        "final_distance": log.final_distance,
        "leaf_count": log.metrics.get("leaf_count"),
        "uniform_count": log.metrics.get("uniform_count"),
        "reduction_ratio": log.metrics.get("reduction_ratio"),
        "kernel_calls": log.metrics.get("kernel_calls"),
        "kernel_systems": log.metrics.get("kernel_systems"),
        "qp_calls": log.metrics.get("qp_calls"),
        "simulated_time": log.metrics.get("simulated_time"),
        "edge_status_tallies": [s["tally"] for s in log.snapshots],
        "events": log.events,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        f.write(json.dumps(summary))


def cmd_run(args) -> int:
    try:
        scn = load_scenario(args.scenario, {
            "dt": args.dt, "theta_thre": args.theta_thre,
            "max_iters": args.max_iters, "h_min": args.h_min,
        })
    except (ValueError, OSError) as e:
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
              f"kernel: {log.metrics['kernel_calls']} calls, "
              f"{log.metrics['kernel_systems']} systems, QPs: {log.metrics['qp_calls']}")
    return 0 if log.success else 2


def cmd_partition_demo(args) -> int:
    try:
        scn = load_scenario(args.scenario, {})
    except (ValueError, OSError) as e:
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
            f.write(json.dumps(tree.snapshot()))
    return 0


def _model_array(data: dict, name: str, shape: tuple) -> np.ndarray:
    """Field ``name`` of a certify model as a float array of ``shape``, where
    (None,) stands for any non-empty vector, with magnitudes up to MODEL_MAX."""
    try:
        v = np.asarray(data[name], dtype=float)
    except KeyError:
        raise ValueError(f"model.{name}: missing required field") from None
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"model.{name}: not a numeric array") from None
    if v.ndim != len(shape) or 0 in v.shape or any(
            k not in (None, size) for k, size in zip(shape, v.shape)):
        want = "a non-empty vector" if None in shape else f"shape {shape}"
        raise ValueError(f"model.{name}: needs {want}, not shape {v.shape}")
    if not (np.abs(v) <= MODEL_MAX).all():
        raise ValueError(f"model.{name}: must be finite and at most {MODEL_MAX:g} in magnitude")
    return v


def _load_certify_model(path: str):
    """(model, cell, input box, exit facet) of a certify model file; raises
    ``ValueError("model.<field>: ...")`` for the first unusable field."""
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError("model: not a JSON object")
    c = _model_array(data, "c", (None,))
    n, m = c.size, _model_array(data, "pu_lo", (None,)).size
    if m > 3:
        raise ValueError(f"model.pu_lo: at most 3 inputs are supported, not {m}")
    a = {name: _model_array(data, name, shape) for name, shape in (
        ("A", (n, n)), ("B", (n, m)), ("cell_lo", (n,)), ("cell_hi", (n,)),
        ("pu_lo", (m,)), ("pu_hi", (m,)))}
    for lo, hi in (("cell_lo", "cell_hi"), ("pu_lo", "pu_hi")):
        if not (a[hi] > a[lo]).all():
            raise ValueError(f"model.{hi}: must exceed {lo} componentwise")
    point = (_model_array(data, "linearization_point", (n,))
             if "linearization_point" in data else np.zeros(n))
    fct = data.get("exit_facet")
    if isinstance(fct, bool) or not isinstance(fct, (int, float)) \
            or not 0 <= fct < 2 * n or fct != int(fct):
        raise ValueError(f"model.exit_facet: needs an integer in [0, {2 * n})")
    model = AffineModel(A=a["A"], B=a["B"], c=c, linearization_point=point)
    return (model, Box(lo=a["cell_lo"], hi=a["cell_hi"]), Box(lo=a["pu_lo"], hi=a["pu_hi"]),
            int(fct))


def cmd_certify(args) -> int:
    try:
        model, cell, pu, fct = _load_certify_model(args.model)
    except (ValueError, OSError) as e:      # a JSON syntax error is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1
    cert = facet_reachable(model, box_to_polytope(cell), [fct], pu)[0]
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
            Scenario.from_dict(json.load(f))
    except (ValueError, OSError) as e:      # a JSON syntax error is a ValueError
        print(f"invalid: {e}", file=sys.stderr)
        return 1
    print("valid")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it
    unchanged, and each parse returns a fresh namespace."""
    ap = _ArgumentParser(prog="reachplan",
                         description="PWA abstraction planner/simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a mission")
    p_run.add_argument("--scenario", required=True,
                       help="built-in name (mecanum|unicycle) or JSON path")
    p_run.add_argument("--out", default=None, help="output directory")
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

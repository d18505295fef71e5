"""Mission benchmark: generated scenarios through ``reachplan run``.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``). Workloads, chosen so that each stresses different modules:

* ``unicycle``: the built-in unicycle mission with a nearer target. LP
  kernel, point location in the piecewise-affine controller, relaxed and
  predictive certification.
* ``mecanum_fine``: the built-in mecanum mission on a 0.25 m grid from a
  nearer start, with a 4 ms step. Adjacency and short creep rollouts
  dominate; no terminal QP, no 3-d point location.
* ``mecanum_batch``: 6 mecanum missions between cell centres of a small
  workspace, in seeded order. Exact certification and the CLF-CBF
  terminal QP (a mission that raises is counted as failed, never
  filtered out). Not listed in ``BENCHMARK.json``; run it by hand.

Each mission runs in this process through ``reachplan.cli.main``, with
BLAS/OpenMP threads pinned to one. With ``--trace 0`` the missions are
repeated (at least three times) while another pass fits in ``--seconds``
and the end-to-end metrics are printed (wall and CPU time of one pass
are medians over the passes). With ``--trace 1`` the missions run once
untraced and once with every traced function wrapped, the two runs must
agree exactly, and the per-layer metrics are printed. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Full results
(``result_seed<N>_trace<T>.json``: samples, per-mission records,
environment) and the span file go to ``perfbench/_work/<workload>/``.
"""
from __future__ import annotations

import os

THREAD_PINNING = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINNING)  # before anything imports numpy

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
SETUP_PROBES = 9
# passes per run at least, however long one pass takes
MIN_PASSES = 3
# a successful mission must end within r_stop of its target, and every
# trajectory sample must lie in the workspace; crossings are bisected to
# 1e-9 s, so a sample may overshoot a facet by speed x 1e-9
POSITION_TOL = 1e-6

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "sim_time_s": "sim_s", "peak_rss_mb": "MB"}

# fields of a mission record that traced and untraced runs must share
COMPARED = ("exit_code", "error", "status", "lp_calls_reported",
            "qp_calls_reported", "leaves", "sim_time", "rows", "sha256",
            "clamp_warnings")


def prepare(workload: str, seed: int, directory: str):
    """Set-up of one run: import the entry point and write the scenarios."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import gen
    from reachplan import cli
    return cli, gen.write(workload, seed, directory)


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from process start until the scenarios are written, for
    SETUP_PROBES fresh interpreters (the import cost is paid per process)."""
    times = []
    for k in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.join(HERE, "probe.py"), workload,
                 str(seed), os.path.join(WORK, workload, "run", f"probe{k}")],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        times.append(elapsed)
    return times


def run_missions(cli, files: list, out_root: str, tracer=None) -> tuple:
    """One pass over the scenario files. Returns (records, wall_s, cpu_s),
    the times summed over the missions."""
    from reachplan import optim

    shutil.rmtree(out_root, ignore_errors=True)
    records = []
    wall = cpu = 0.0
    for path in files:
        name = os.path.splitext(os.path.basename(path))[0]
        rec = {"mission": name, "scenario": path,
               "out": os.path.join(out_root, name), "exit_code": None, "error": None}
        if tracer is not None:
            first_span = len(tracer)
            rk4_before = tracer.counts.get("dynamics.rk4_steps", 0)
        # every pass starts each mission from the same collector state
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rec["exit_code"] = cli.main(["run", "--scenario", path,
                                             "--out", rec["out"], "--quiet"])
            except Exception as exc:  # a crash is an outcome to record
                rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["wall_s"] = time.perf_counter() - t0
            wall += rec["wall_s"]
            cpu += time.process_time() - c0
        rec["clamp_warnings"] = sum(
            1 for w in caught if issubclass(w.category, UserWarning)
            and "control clamped" in str(w.message))
        rec["lp_calls_reported"] = optim.STATS.lp_calls
        rec["qp_calls_reported"] = optim.STATS.qp_calls
        if tracer is not None:
            rec["spans"] = [first_span, len(tracer)]
            rec["rk4_steps"] = tracer.counts.get("dynamics.rk4_steps", 0) - rk4_before
        records.append(rec)
    return records, wall, cpu


def check_mission(rec: dict) -> list:
    """Fill in the outcome of one mission from its files; return problems."""
    import numpy as np

    rec.update(status="error", leaves=None, sim_time=None, rows=None, sha256=None)
    if rec["error"] is not None:
        return []
    if rec["exit_code"] not in (0, 2):
        return [f"exit code {rec['exit_code']}: no mission was run"]
    with open(rec["scenario"]) as f:
        scn = json.load(f)
    with open(os.path.join(rec["out"], "summary.json")) as f:
        summary = json.load(f)
    rec["status"] = summary["status"]
    rec["leaves"] = summary["leaf_count"]
    rec["sim_time"] = summary["simulated_time"]
    problems = []
    if (rec["exit_code"] == 0) != (summary["status"] == "success"):
        problems.append(f"exit code {rec['exit_code']} with status {summary['status']}")
    with open(os.path.join(rec["out"], "trajectory.csv"), "rb") as f:
        raw = f.read()
    rec["sha256"] = hashlib.sha256(raw).hexdigest()
    traj = np.loadtxt(raw.decode().splitlines()[1:], delimiter=",", ndmin=2)
    rec["rows"] = traj.shape[0]
    x = traj[:, 1:1 + len(scn["ws_lo"])]
    if (np.any(x < np.array(scn["ws_lo"]) - POSITION_TOL)
            or np.any(x > np.array(scn["ws_hi"]) + POSITION_TOL)):
        problems.append("trajectory sample outside the workspace")
    if summary["status"] == "success":
        dist = float(np.linalg.norm(x[-1] - np.array(scn["x_target"])))
        if dist > scn["r_stop"] + POSITION_TOL:
            problems.append(f"success {dist:.4g} from the target (r_stop {scn['r_stop']})")
    return problems


def check_all(records: list) -> list:
    problems = []
    for rec in records:
        problems += [f"{rec['mission']}: {p}" for p in check_mission(rec)]
    return problems


def compare(a: list, b: list, what: str) -> list:
    """Problems where two passes over the same files disagree."""
    problems = []
    for ra, rb in zip(a, b):
        for key in COMPARED:
            if ra.get(key) != rb.get(key):
                problems.append(f"{ra['mission']}: {key} differs between {what}: "
                                f"{ra.get(key)!r} vs {rb.get(key)!r}")
    return problems


def trajectory_digest(records: list) -> str:
    """sha256 over the sorted per-mission trajectory digests (the error for
    a mission that raised), so it does not depend on mission order."""
    tokens = sorted(rec["sha256"] or f"{rec['status']}: {rec['error']}" for rec in records)
    return hashlib.sha256("\n".join(tokens).encode()).hexdigest()


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_pinning": {k: os.environ.get(k) for k in THREAD_PINNING},
        "platform": platform.platform(),
    }


def layer_metrics(tracer, records: list, wall_traced: float, wall_untraced: float) -> tuple:
    """Per-layer metrics of a traced pass, and cross-check problems."""
    s = tracer.summary()

    def get(name):
        return s.get(name, {"calls": 0, "self_s": 0.0, "value": 0.0, "solver_errors": 0})

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("optim.solve_lp", "optim.solve_qp", "reach.controller",
                 "geometry.locate_simplex", "reach.synthesize_controller",
                 "reach.certify", "reach.predict", "partition.adjacency",
                 "graph.shortest_path", "dynamics.integrate",
                 "terminal.clf_cbf_control", "sysid.identify_affine",
                 "deviation.cell_pair_bounds"):
        m[f"{name}.calls"] = get(name)["calls"]
        m[f"{name}.self_s"] = get(name)["self_s"]
    for name in ("partition.refine_segment", "graph.rebuild",
                 "graph.refresh_uncertain_weights", "planner", "cli"):
        m[f"{name}.self_s"] = get(name)["self_s"]
    lp = get("optim.solve_lp")
    m["optim.lp_calls_reported"] = sum(r["lp_calls_reported"] for r in records)
    m["optim.lp_infeasible_ratio"] = ratio(lp["value"], lp["calls"])
    m["optim.solver_errors"] = lp["solver_errors"] + get("optim.solve_qp")["solver_errors"]
    m["reach.certify.found_ratio"] = ratio(get("reach.certify")["value"],
                                           get("reach.certify")["calls"])
    m["reach.predict.resolved_ratio"] = ratio(get("reach.predict")["value"],
                                              get("reach.predict")["calls"])
    m["partition.leaves"] = sum(r["leaves"] or 0 for r in records)
    m["dynamics.rk4_steps"] = tracer.counts.get("dynamics.rk4_steps", 0)
    m["dynamics.clamped_steps"] = int(get("dynamics.integrate")["value"])
    n = len(records)
    m["mission.failed_share"] = sum(r["status"] != "success" for r in records) / n
    m["mission.error_share"] = sum(r["error"] is not None for r in records) / n
    m["trace.overhead"] = wall_traced / wall_untraced

    problems = []
    for rec in records:
        ms = tracer.summary(*rec["spans"])

        def calls(name):
            return ms.get(name, {}).get("calls", 0)

        lp_traced = calls("optim.linear_feasible") + calls("optim.maximin_lp")
        if lp_traced != rec["lp_calls_reported"]:
            problems.append(f"{rec['mission']}: traced linear_feasible + maximin_lp "
                            f"calls {lp_traced} != STATS.lp_calls {rec['lp_calls_reported']}")
        if calls("optim.solve_qp") != rec["qp_calls_reported"]:
            problems.append(f"{rec['mission']}: traced solve_qp calls "
                            f"{calls('optim.solve_qp')} != STATS.qp_calls "
                            f"{rec['qp_calls_reported']}")
        if calls("cli") != 1:
            problems.append(f"{rec['mission']}: {calls('cli')} cli spans, expected 1")
        rec["solve_lp_calls"] = calls("optim.solve_lp")
    return m, problems


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share", ".overhead")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("unicycle", "mecanum_fine",
                                                          "mecanum_batch"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "reachplan")):
        print(f"error: no reachplan sources under {ROOT}/src", file=sys.stderr)
        return 2

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(os.path.join(work, "run"), ignore_errors=True)
    cli, files = prepare(args.workload, args.seed, os.path.join(work, "run", "scenarios"))
    out_root = os.path.join(work, "run", "out")
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "scenarios": files}

    if args.trace == 0:
        setup = measure_setup(args.workload, args.seed)
        passes = []
        t_start = t_pass = time.perf_counter()
        # stop when another pass as long as the last would overrun --seconds
        while (len(passes) < MIN_PASSES
               or 2 * time.perf_counter() - t_pass - t_start <= args.seconds):
            t_pass = time.perf_counter()
            passes.append(run_missions(cli, files, out_root))
            problems = check_all(passes[-1][0])
            if len(passes) > 1:
                problems += compare(passes[0][0], passes[-1][0], "repetitions")
            if problems:
                break
        records = passes[0][0]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p[1] for p in passes),
            "cpu_s": statistics.median(p[2] for p in passes),
            "sim_time_s": sum(r["sim_time"] for r in records if r["status"] == "success"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result.update(setup_samples=setup, wall_samples=[p[1] for p in passes],
                      cpu_samples=[p[2] for p in passes])
    else:
        from spans import Tracer

        untraced, wall_untraced, _ = run_missions(cli, files, out_root)
        problems = check_all(untraced)
        tracer = Tracer()
        tracer.install()
        try:
            records, wall_traced, _ = run_missions(cli, files, out_root + "_traced", tracer)
        finally:
            tracer.uninstall()
        problems += check_all(records)
        problems += compare(untraced, records, "untraced and traced runs")
        metrics, cross = layer_metrics(tracer, records, wall_traced, wall_untraced)
        problems += cross
        tracer.save(os.path.join(work, "spans.npz"))
        passes = [(untraced,), (records,)]

    digest = trajectory_digest(records)
    result.update(records=records, problems=problems, trajectory_sha256=digest,
                  metrics=metrics)
    with open(os.path.join(work, f"result_seed{args.seed}_trace{args.trace}.json"), "w") as f:
        json.dump(result, f, indent=1, default=str)

    for rec in records:
        print(f"mission {rec['mission']}: {rec['status']} {rec['error'] or ''}"[:120])
    for p in problems:
        print(f"PROBLEM {p}")
    print(f"trajectory_sha256 {digest}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:38s} {value:>14.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(p[0]) for p in passes),
        "failed": sum(r["error"] is not None for p in passes for r in p[0]),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end acceptance gate: one test per shipped guarantee.

Each test is a single pass/fail verdict for one externally stated
requirement, from full-mission behavior down to solver kernels. The two
built-in missions are executed once per module (the omnidirectional one
twice, to check determinism) and shared by the criteria that inspect them.
"""
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from graph_reference import FixedGraph
from reachplan.cli import _write_outputs
from reachplan.deviation import DeviationBounds, deviation_bounds
from reachplan.dynamics import (AffineModel, TrueSystem, analytic_linearize,
                                integrate, mecanum_system)
from reachplan.geometry import Box, box_to_polytope, facet_id
from reachplan.graph import (CERTAIN, IMPOSSIBLE, ReachGraph, edge_entropy,
                             replay, uncertain_weight)
from reachplan.planner import run_mission
from reachplan.reach import (exit_time_bound, facet_reachable,
                             predict_reachable, predict_unreachable,
                             robust_exit_time_bound, synthesize_controller)
from reachplan.scenario import builtin_scenario
from reachplan.sysid import ExcitationPlan, identify_affine


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def mecanum_run():
    return run_mission(builtin_scenario("mecanum"))


@pytest.fixture(scope="module")
def mecanum_rerun():
    return run_mission(builtin_scenario("mecanum"))


@pytest.fixture(scope="module")
def unicycle_run():
    return run_mission(builtin_scenario("unicycle"))


# ----------------------------------------------------------------- helpers

def _random_instance(rng, drift_scale=1.0, pu_half=3.0):
    A = rng.uniform(-0.5, 0.5, (2, 2))
    B = rng.uniform(-1.0, 1.0, (2, 2)) + np.eye(2)
    c = rng.uniform(-drift_scale, drift_scale, 2)
    m = AffineModel(A=A, B=B, c=c, linearization_point=np.zeros(2))
    lo = rng.uniform(-2.0, 0.0, 2)
    p = box_to_polytope(Box(lo=lo, hi=lo + rng.uniform(0.5, 2.0, 2)))
    pu = Box(lo=[-pu_half, -pu_half], hi=[pu_half, pu_half])
    fct = int(rng.integers(0, 4))
    return m, p, pu, fct


def _sample_inbound(rng, model, bounds, at_limit=False):
    """One affine model whose parameters deviate from ``model`` by at most
    (eps_A, eps_B, eps_c) in operator/vector norm."""
    def mat(shape, eps):
        M = rng.normal(size=shape)
        nrm = np.linalg.norm(M, 2)
        if nrm == 0.0 or eps == 0.0:
            return np.zeros(shape)
        frac = 1.0 if at_limit else rng.uniform(0.0, 1.0)
        return M * (eps * frac / nrm)

    dc = rng.normal(size=model.c.shape)
    ncd = np.linalg.norm(dc)
    frac = 1.0 if at_limit else rng.uniform(0.0, 1.0)
    dc = dc * (bounds.eps_c * frac / ncd) if ncd > 0 else dc * 0.0
    return (model.A + mat(model.A.shape, bounds.eps_A),
            model.B + mat(model.B.shape, bounds.eps_B),
            model.c + dc)


def _vertex_system_holds(A, B, c, cert, tol=1e-9):
    """Strict exit-facet speed and non-strict invariance at every vertex."""
    p = cert.polytope
    n1 = p.normals[cert.exit_facet]
    for j in range(p.n_vertices):
        vel = A @ p.vertices[j] + B @ cert.controls[j] + c
        if float(n1 @ vel) <= 0.0:
            return False
        for i in p.vertex_facets[j]:
            if i == cert.exit_facet:
                continue
            if float(p.normals[i] @ vel) > tol:
                return False
    return True


def _edge_statuses(log):
    return [[(e["source"], e["target"], e["status"]) for e in s["edges"]]
            for s in replay(log.snapshots)]


# ---------------------------------------------------------------- criteria

def test_c01_omnidirectional_mission_succeeds(mecanum_run):
    log = mecanum_run
    assert log.success, f"mission status: {log.status}"
    assert log.metrics["wall_time_s"] <= 120.0
    X = np.array(log.traj_x)
    assert np.all(X >= -8.0 - 1e-6) and np.all(X <= 8.0 + 1e-6)


def test_c02_partition_stays_sparse(mecanum_run):
    log = mecanum_run
    assert log.metrics["leaf_count"] <= 0.5 * log.metrics["uniform_count"]


def test_c03_robust_certificates_sound_under_perturbation():
    rng = np.random.default_rng(101)
    certified = 0
    for _ in range(1000):
        m, p, pu, fct = _random_instance(rng)
        bounds = DeviationBounds(*rng.uniform(0.0, 0.08, 3))
        cert, = predict_reachable([(m, bounds, p, [fct])], pu)[0]
        if cert is None:
            continue
        certified += 1
        for k in range(100):
            A, B, c = _sample_inbound(rng, m, bounds, at_limit=(k == 0))
            assert _vertex_system_holds(A, B, c, cert)
    assert certified > 100


def test_c04_refutations_sound_under_perturbation():
    rng = np.random.default_rng(103)
    refuted = 0
    for _ in range(1000):
        m, p, pu, fct = _random_instance(rng, drift_scale=4.0, pu_half=1.0)
        bounds = DeviationBounds(*rng.uniform(0.0, 0.08, 3))
        if not predict_unreachable([(m, bounds, p, [fct])], pu)[0][0]:
            continue
        refuted += 1
        for k in range(100):
            A, B, c = _sample_inbound(rng, m, bounds, at_limit=(k == 0))
            pert = AffineModel(A=A, B=B, c=c,
                               linearization_point=m.linearization_point)
            assert facet_reachable(pert, p, [fct], pu)[0] is None
    assert refuted > 100


def test_c05_zero_bounds_reduce_to_exact():
    rng = np.random.default_rng(105)
    zero = DeviationBounds.zero()
    bounded = 0
    for _ in range(500):
        m, p, pu, fct = _random_instance(rng, drift_scale=2.0)
        exact = facet_reachable(m, p, [fct], pu)[0]
        robust, = predict_reachable([(m, zero, p, [fct])], pu)[0]
        assert (exact is None) == (robust is None)
        rb = robust_exit_time_bound(m, zero, p, fct, pu)
        assert (rb is None) == (exact is None)
        if rb is None:
            continue
        bounded += 1
        # zero bounds give exactly the exact certificate's controls,
        # margins and crossing time
        assert robust.controls.keys() == exact.controls.keys()
        for j, u in exact.controls.items():
            assert np.array_equal(robust.controls[j], u)
        assert robust.margins == exact.margins
        assert rb.T0 == robust.bound.T0 == exact.bound.T0
        nominal = exit_time_bound(m, p, robust.controls, fct)
        assert rb.T0 == pytest.approx(nominal.T0, abs=1e-9)
    assert bounded > 50


def test_c06_exit_time_bound_holds_in_closed_loop():
    rng = np.random.default_rng(107)
    cells = 0
    while cells < 100:
        m, p, pu, fct = _random_instance(rng)
        cert = facet_reachable(m, p, [fct], pu)[0]
        if cert is None:
            continue
        cells += 1
        tb = exit_time_bound(m, p, cert.controls, fct)
        ctrl = synthesize_controller(p, cert.controls)
        sys_ = TrueSystem(n=2, m=2, f=lambda x, A=m.A, c=m.c: A @ x + c,
                          g=lambda x, B=m.B: B.copy())
        lo = p.vertices.min(axis=0)
        hi = p.vertices.max(axis=0)
        cell = Box(lo=lo, hi=hi)
        for _ in range(20):
            x0 = lo + (hi - lo) * rng.uniform(0.1, 0.9, 2)
            traj = integrate(sys_, ctrl, x0, cell, dt=tb.T0 / 200,
                             t_max=tb.T0 * 1.01, pu=pu)
            assert traj.exit_facet is not None
            assert traj.t[-1] <= tb.T0 * (1.0 + 1e-3)


def test_c07_deviation_bounds_dominate_true_plant():
    s = mecanum_system()
    rng = np.random.default_rng(109)
    L = 0.03
    for _ in range(10_000):
        x1 = rng.uniform(-8.0, 8.0, 2)
        x2 = rng.uniform(-8.0, 8.0, 2)
        b = deviation_bounds(L, L, x1, x2)
        m1 = analytic_linearize(s, x1)
        m2 = analytic_linearize(s, x2)
        assert np.linalg.norm(m2.A - m1.A, 2) <= b.eps_A + 1e-12
        assert np.linalg.norm(m2.B - m1.B, 2) <= b.eps_B + 1e-12
        assert np.linalg.norm(m2.c - m1.c) <= b.eps_c + 1e-12


def test_c08_identification_accuracy():
    rng = np.random.default_rng(111)
    pu = Box(lo=[-5.0, -5.0], hi=[5.0, 5.0])
    # exactly affine plants: near-machine recovery at the stated period
    for _ in range(20):
        A = rng.uniform(-1.0, 1.0, (2, 2))
        B = rng.uniform(-1.0, 1.0, (2, 2)) + np.eye(2)
        c = rng.uniform(-1.0, 1.0, 2)
        s = TrueSystem(n=2, m=2, f=lambda x, A=A, c=c: A @ x + c,
                       g=lambda x, B=B: B.copy())
        x0 = rng.uniform(-1.0, 1.0, 2)
        plan = ExcitationPlan.default(pu, m=2, period=1e-3, n=2)
        mdl, _ = identify_affine(s, x0, plan)
        scale = max(np.abs(A).max(), np.abs(B).max(), np.abs(c).max())
        err = max(np.abs(mdl.A - A).max(), np.abs(mdl.B - B).max(),
                  np.abs(mdl.c - c).max())
        assert err <= 1e-3 * scale
    # true plant at unit-cell centers vs the analytic linearization
    s = mecanum_system()
    for cx in (-7.5, -3.5, 0.5, 3.5, 6.5):
        for cy in (-6.5, -0.5, 2.5, 7.5):
            center = np.array([cx, cy])
            cell = Box(lo=center - 0.5, hi=center + 0.5)
            plan = ExcitationPlan.default(pu, m=2, period=1e-3, n=2)
            mdl, _ = identify_affine(s, center, plan, cell=cell)
            ref = analytic_linearize(s, center)
            assert np.linalg.norm(mdl.A - ref.A, 2) <= 0.05
            assert np.linalg.norm(mdl.B - ref.B, 2) <= 0.05
            # the A/c split is only identifiable up to the excitation spread;
            # what the planner consumes is the affine map itself, so require
            # the predicted derivatives to agree across the whole cell
            for code in range(4):
                v = cell.vertex(code)
                dev = (mdl.A - ref.A) @ v + (mdl.c - ref.c)
                assert np.linalg.norm(dev) <= 0.05


def test_c09_graph_kernels():
    assert edge_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-12)
    eig = 1.5 * math.log(2.0)
    assert uncertain_weight(100.0, 1.0, 0.8, eig) == pytest.approx(
        100.0 / (1.0 + 0.8 * 1.0397207708399179), abs=1e-6)
    assert uncertain_weight(10.0, 0.5, 1.0, 0.0) == pytest.approx(5.0)

    rng = np.random.default_rng(113)
    fid = facet_id(0, +1)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        g = ReachGraph(C_u=1.0, beta_u=0.0)
        adj = {(a, b): fid for a, b in itertools.permutations(range(n), 2)
               if rng.random() < 0.45}
        g.rebuild(FixedGraph(adj))
        usable = {}
        for pair, e in g.edges.items():
            if rng.random() < 0.2:
                e.status = IMPOSSIBLE
            else:
                e.status = CERTAIN
                e.weight = float(np.round(rng.uniform(0.1, 5.0), 3))
                usable[pair] = e.weight
        # exhaustive simple-path search as the oracle
        best = [math.inf, None]

        def extend(path, cost):
            if path[-1] == n - 1:
                if (cost, path) < (best[0], best[1] or path):
                    best[0], best[1] = cost, list(path)
                return
            for nxt in range(n):
                if nxt not in path and (path[-1], nxt) in usable:
                    extend(path + [nxt], cost + usable[(path[-1], nxt)])

        extend([0], 0.0)
        path, cost = g.shortest_path(0, n - 1)
        if best[1] is None:
            assert path is None and cost == math.inf
        else:
            assert cost == pytest.approx(best[0], abs=1e-9)
            assert path == best[1]


def test_c10_underactuated_mission_succeeds(unicycle_run, tmp_path):
    """The unicycle mission succeeds and matches the recorded oracles: the
    sha256 of trajectory.csv and of the JSON list of every plan's edge
    statuses."""
    log = unicycle_run
    scn = builtin_scenario("unicycle")
    assert log.success, f"mission status: {log.status}"
    # the per-cell retry budget is never exhausted
    assert log.metrics["retry_max"] <= scn.retry_budget
    assert log.status != "failure:retry_budget"
    _write_outputs(str(tmp_path), scn, log)
    csv = (tmp_path / "trajectory.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == (
        "fa137dd234d9ec86727e6d38a5fda2a2e97c6198234f73936eea3ec338b7970b")
    statuses = _edge_statuses(log)
    assert len(statuses) == 4
    assert hashlib.sha256(json.dumps(statuses).encode()).hexdigest() == (
        "19dc518a747a06aa0313203aa5f24552ee8148b6a02d9d8d2509ccf0bdd690da")


def test_c11_terminal_phase_contracts(mecanum_run):
    log = mecanum_run
    assert log.final_distance < 0.1
    audits = log.metrics["terminal_audits"]
    assert len(audits) > 0
    assert min(a["min_barrier"] for a in audits) >= -1e-6
    assert max(a["kkt_stationarity"] for a in audits) <= 1e-6
    assert max(a["kkt_complementarity"] for a in audits) <= 1e-6


def test_c12_runs_are_deterministic(mecanum_run, mecanum_rerun, tmp_path):
    """Two runs agree with each other and with the recorded oracles: the
    sha256 of trajectory.csv and of the JSON list of every plan's edge
    statuses."""
    scn = builtin_scenario("mecanum")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    _write_outputs(str(d1), scn, mecanum_run)
    _write_outputs(str(d2), scn, mecanum_rerun)
    csv = (d1 / "trajectory.csv").read_bytes()
    assert csv == (d2 / "trajectory.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == (
        "da1d5ba1347d996a4c61bb0c144377fe5151017043ecbecfec6e1fe970616be5")

    statuses = _edge_statuses(mecanum_run)
    assert statuses == _edge_statuses(mecanum_rerun)
    assert hashlib.sha256(json.dumps(statuses).encode()).hexdigest() == (
        "ac7e3d0e48f82aceb3d13fb96b4c069f484080a9832dae58323713d8d4b19576")

"""Facet-reachability certificates, controller synthesis, exit-time bounds."""
import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from reachplan import optim, reach
from reachplan.deviation import DeviationBounds, cell_pair_bounds
from reachplan.dynamics import AffineModel, TrueSystem, analytic_linearize, integrate, unicycle_system
from reachplan.geometry import (Box, GeometryError, box_to_polytope, facet_id,
                                locate_simplex, truncated_pyramid)
from reachplan.optim import DELTA_STRICT, LinearFeasibilityProblem, linear_feasible, solve_lp
from reachplan.reach import (exit_time_bound, facet_reachable, predict_reachable,
                             predict_unreachable, relaxed_facet_reachable,
                             robust_exit_time_bound, synthesize_controller)


def _model(A, B, c):
    return AffineModel(A=A, B=B, c=c, linearization_point=np.zeros(len(c)))


def _assert_cert_sound(model, cert, tol=1e-9):
    """Oracle that any exact certificate must pass: under the certified
    vertex controls the exit-facet speed is strictly positive and the
    invariance rows are non-positive (equality is legal, e.g. when the
    cheapest control slides along a side facet)."""
    p = cert.polytope
    n1 = p.normals[cert.exit_facet]
    for j in range(p.n_vertices):
        vel = model.A @ p.vertices[j] + model.B @ cert.controls[j] + model.c
        assert float(n1 @ vel) > 0.0
        for i in p.vertex_facets[j]:
            if i == cert.exit_facet:
                continue
            assert float(p.normals[i] @ vel) <= tol


def test_single_integrator_certificate():
    m = _model(np.zeros((2, 2)), np.eye(2), np.zeros(2))
    p = box_to_polytope(Box(lo=[0.0, 0.0], hi=[1.0, 1.0]))
    pu = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
    cert = facet_reachable(m, p, [facet_id(0, +1)], pu)[0]
    assert cert is not None and cert.kind == "exact"
    _assert_cert_sound(m, cert)
    # every vertex control pushes +x and respects the box
    for j, u in cert.controls.items():
        assert u[0] > 0
        assert np.all(u >= pu.lo - 1e-12) and np.all(u <= pu.hi + 1e-12)


def test_strong_drift_blocks_upstream_facet():
    # drift (-5, 0) overwhelms inputs in [-1, 1]^2
    m = _model(np.zeros((2, 2)), np.eye(2), [-5.0, 0.0])
    p = box_to_polytope(Box(lo=[0.0, 0.0], hi=[1.0, 1.0]))
    pu = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
    assert facet_reachable(m, p, [facet_id(0, +1)], pu)[0] is None
    down = facet_reachable(m, p, [facet_id(0, -1)], pu)[0]
    assert down is not None
    _assert_cert_sound(m, down)


def test_certificates_sound_on_random_instances():
    rng = np.random.default_rng(9)
    certified = 0
    for _ in range(150):
        A = rng.uniform(-0.5, 0.5, (2, 2))
        B = rng.uniform(-1, 1, (2, 2)) + np.eye(2)
        c = rng.uniform(-2, 2, 2)
        m = _model(A, B, c)
        lo = rng.uniform(-2, 0, 2)
        p = box_to_polytope(Box(lo=lo, hi=lo + rng.uniform(0.5, 2.0, 2)))
        pu = Box(lo=[-3.0, -3.0], hi=[3.0, 3.0])
        fct = int(rng.integers(0, 4))
        cert = facet_reachable(m, p, [fct], pu)[0]
        if cert is None:
            continue
        certified += 1
        _assert_cert_sound(m, cert)
    assert certified > 50


def test_exit_time_bound_oracle():
    m = _model(np.zeros((2, 2)), np.eye(2), np.zeros(2))
    p = box_to_polytope(Box(lo=[0.0, 0.0], hi=[1.0, 1.0]))
    controls = {j: np.array([0.5, 0.0]) for j in range(4)}
    tb = exit_time_bound(m, p, controls, facet_id(0, +1))
    assert tb.alpha == pytest.approx(0.0) and tb.beta == pytest.approx(1.0)
    assert tb.c1 == pytest.approx(0.5)
    assert tb.T0 == pytest.approx(2.0)
    with pytest.raises(ValueError):
        exit_time_bound(m, p, {j: np.zeros(2) for j in range(4)}, facet_id(0, +1))


def test_closed_loop_exits_within_bound():
    rng = np.random.default_rng(10)
    m = _model([[0.2, 0.0], [0.0, -0.1]], np.eye(2), [0.3, -0.2])
    cell = Box(lo=[0.0, 0.0], hi=[1.0, 1.0])
    p = box_to_polytope(cell)
    pu = Box(lo=[-2.0, -2.0], hi=[2.0, 2.0])
    fct = facet_id(0, +1)
    cert = facet_reachable(m, p, [fct], pu)[0]
    assert cert is not None
    tb = exit_time_bound(m, p, cert.controls, fct)
    ctrl = synthesize_controller(p, cert.controls)
    s = TrueSystem(n=2, m=2, f=lambda x: m.A @ x + m.c, g=lambda x: m.B.copy())
    for _ in range(10):
        x0 = rng.uniform(cell.lo + 0.01, cell.hi - 0.01)
        traj = integrate(s, ctrl, x0, cell, dt=tb.T0 / 400, t_max=2 * tb.T0, pu=pu)
        assert traj.exit_facet == fct
        assert traj.exit_time <= tb.T0 * (1 + 1e-3)


def test_controller_interpolates_vertex_controls():
    rng = np.random.default_rng(12)
    p = box_to_polytope(Box(lo=[0.0, 0.0], hi=[2.0, 1.0]))
    controls = {j: rng.uniform(-1, 1, 2) for j in range(4)}
    ctrl = synthesize_controller(p, controls)
    for j in range(4):
        assert np.allclose(ctrl(p.vertices[j]), controls[j], atol=1e-9)
    # affine within each simplex: barycentric blend of the vertex controls
    for s, (F, g) in zip(ctrl.simplices, ctrl.gains):
        x = s.vertices.mean(axis=0)
        blend = np.mean([controls[j] for j in s.vertex_ids], axis=0)
        assert np.allclose(F @ x + g, blend, atol=1e-9)


def _reference_simplex(tri, x):
    """Point location by one exact solve per simplex: the first simplex
    locate_simplex accepts, else the least-violating one."""
    try:
        return locate_simplex(tri, x)[0]
    except GeometryError:
        return max(range(len(tri)), key=lambda i: float(np.min(tri[i].barycentric(x))))


def _location_controllers():
    """Controllers on 2-d/3-d boxes, on every truncated pyramid of them and
    on a thin, steep pyramid."""
    rng = np.random.default_rng(41)
    out = []
    for n in (2, 3):
        lo = rng.uniform(-5, 5, n)
        b = Box(lo=lo, hi=lo + rng.uniform(0.2, 1.5, n))
        polys = [box_to_polytope(b)] + [
            truncated_pyramid(b, axis, d, rng.uniform(0.3, 0.9))
            for axis in range(n) for d in (-1, 1)]
        for p in polys:
            controls = {j: rng.uniform(-1, 1, 2) for j in range(p.n_vertices)}
            out.append(synthesize_controller(p, controls))
    steep = truncated_pyramid(Box(lo=[0.3, -2.0, 1.0], hi=[1.3, -2.0 + 1e-4, 2.0]), 2, -1, 1e-3)
    out.append(synthesize_controller(steep, {j: np.zeros(2) for j in range(8)}))
    return out


def _band_points(ctrl, rng):
    """Points whose weight on one vertex of one simplex is -1e-9 (the
    locate_simplex tolerance), -1e-9 - 1e-11 or -1e-9 + 1e-11."""
    pts = []
    for s in ctrl.simplices:
        for k in range(s.dim + 1):
            for w in (-1e-9 - 1e-11, -1e-9, -1e-9 + 1e-11):
                lam = np.insert(rng.dirichlet(np.ones(s.dim)) * (1.0 - w), k, w)
                pts.append(lam @ s.vertices)
    return pts


def _location_points(ctrl, rng):
    p_vertices = np.unique(np.vstack([s.vertices for s in ctrl.simplices]), axis=0)
    pts = list(p_vertices)                                   # shared corners
    for s in ctrl.simplices:
        # centroids of every face: shared facets, edges and corners
        for r in range(1, s.dim + 1):
            for ids in itertools.combinations(range(s.dim + 1), r):
                pts.append(s.vertices[list(ids)].mean(axis=0))
        # random interior points
        for lam in rng.dirichlet(np.ones(s.dim + 1), 20):
            pts.append(lam @ s.vertices)
    pts += _band_points(ctrl, rng)
    # overshoot: pushed away from the centre past every corner and the
    # first face centroids, from a rollout step across the exit facet out
    # to the 20-step rollout after the crossing, which runs the law up to
    # about one cell side outside its polytope (eps 2 moves a corner by
    # one side along every axis)
    center = p_vertices.mean(axis=0)
    for x in list(pts[:len(p_vertices)]) + pts[len(p_vertices):len(p_vertices) + 40]:
        for eps in (1e-12, 1e-9, 1e-7, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0):
            pts.append(x + eps * (x - center))
    return pts


def test_stacked_point_location_matches_exact_solves():
    rng = np.random.default_rng(43)
    outside = 0
    for ctrl in _location_controllers():
        for x in _location_points(ctrl, rng):
            ref = _reference_simplex(ctrl.simplices, x)
            assert ctrl.locate(x) == ref
            F, g = ctrl.gains[ref]
            assert np.array_equal(ctrl(x), F @ x + g)
            try:
                locate_simplex(ctrl.simplices, x)
            except GeometryError:
                outside += 1
    assert outside > 100


def test_band_absorbs_weight_errors_below_its_width():
    # shift every stacked weight by up to 3e-11, a third of the band: the
    # weights near the tolerance must still be settled exactly
    rng = np.random.default_rng(47)
    checked = 0
    for ctrl in _location_controllers():
        ctrl.unit = ctrl.unit + rng.uniform(-3e-11, 3e-11, ctrl.unit.shape)
        for x in _band_points(ctrl, rng):
            assert ctrl.locate(x) == _reference_simplex(ctrl.simplices, x)
            checked += 1
    assert checked > 500


def test_predictive_implies_exact_and_shrinks_with_bounds():
    rng = np.random.default_rng(13)
    pu = Box(lo=[-3.0, -3.0], hi=[3.0, 3.0])
    agree_checked = 0
    for _ in range(100):
        A = rng.uniform(-0.5, 0.5, (2, 2))
        B = rng.uniform(-1, 1, (2, 2)) + np.eye(2)
        c = rng.uniform(-1.5, 1.5, 2)
        m = _model(A, B, c)
        lo = rng.uniform(-2, 0, 2)
        p = box_to_polytope(Box(lo=lo, hi=lo + rng.uniform(0.5, 1.5, 2)))
        fct = int(rng.integers(0, 4))
        bounds = DeviationBounds(0.05, 0.05, 0.05)
        pred, = predict_reachable([(m, bounds, p, [fct])], pu)[0]
        if pred is not None:
            # robust certificate must be valid for the nominal model too
            exact = facet_reachable(m, p, [fct], pu)[0]
            assert exact is not None
            _assert_cert_sound(m, pred)
            agree_checked += 1
        if predict_unreachable([(m, bounds, p, [fct])], pu)[0][0]:
            assert facet_reachable(m, p, [fct], pu)[0] is None
    assert agree_checked > 10


def test_predict_unreachable_obvious_case():
    m = _model(np.zeros((2, 2)), np.eye(2), [-5.0, 0.0])
    p = box_to_polytope(Box(lo=[0.0, 0.0], hi=[1.0, 1.0]))
    pu = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
    bounds = DeviationBounds(0.01, 0.01, 0.01)
    facets = [facet_id(0, +1), facet_id(0, -1)]
    assert predict_unreachable([(m, bounds, p, facets)], pu)[0] == [True, False]


def _reference_patterns(model, bounds, p, j, exit_facet, pu):
    """Per-pattern tableau verdicts of one vertex's relaxed (best-case)
    system: the loop the batched closed-form kernel replaces, kept as its
    oracle."""
    v = p.vertices[j]
    drift = model.A @ v + model.c
    margin = bounds.eps_A * float(np.linalg.norm(v)) + bounds.eps_c
    n1 = p.normals[exit_facet]
    m = model.B.shape[1]
    inv_ids = [i for i in p.vertex_facets[j] if i != exit_facet]
    verdicts = []
    for pattern in itertools.product((1.0, -1.0), repeat=m):
        s = np.array(pattern)
        lo = np.where(s > 0, np.maximum(pu.lo, 0.0), pu.lo)
        hi = np.where(s < 0, np.minimum(pu.hi, 0.0), pu.hi)
        if np.any(hi < lo):
            verdicts.append(False)      # the orthant misses the input box
            continue
        A_le = [p.normals[i] @ model.B - s * bounds.eps_B for i in inv_ids]
        b_le = [-float(p.normals[i] @ drift) + margin for i in inv_ids]
        prob = LinearFeasibilityProblem(
            A_le=np.array(A_le).reshape(-1, m), b_le=np.array(b_le),
            A_ge_strict=(n1 @ model.B + s * bounds.eps_B).reshape(1, -1),
            b_ge_strict=np.array([-float(n1 @ drift) - margin]),
            lo=lo, hi=hi,
        )
        verdicts.append(linear_feasible(prob) is not None)
    return verdicts


def _reference_robust_speeds(model, bounds, p, exit_facet, pu):
    """Per vertex, the fastest robust outward speed by a direct tableau
    solve of max n1ᵀ(A v_j + B u + c) − s_j over the input box and the rows
    n_iᵀ(A v_j + B u + c) + s_j ≤ 0, s_j = eps_A‖v_j‖ + eps_B·U_max + eps_c;
    None where no control meets the rows."""
    u_max = max(float(np.linalg.norm(pu.vertex(c))) for c in range(2 ** pu.dim))
    n1 = p.normals[exit_facet]
    speeds = []
    for j, v in enumerate(p.vertices):
        spread = bounds.eps_A * float(np.linalg.norm(v)) + bounds.eps_B * u_max + bounds.eps_c
        drift = model.A @ v + model.c
        inv = [i for i in p.vertex_facets[j] if i != exit_facet]
        status, u, _ = solve_lp(-(n1 @ model.B),
                                np.array([p.normals[i] @ model.B for i in inv]),
                                np.array([-float(p.normals[i] @ drift) - spread for i in inv]),
                                pu.lo, pu.hi)
        speeds.append(float(n1 @ (drift + model.B @ u)) - spread
                      if status == "optimal" else None)
    return speeds


def _random_predictive_instance(rng):
    """n = 2 or 3 states, m = 1, 2 or 3 inputs. Some input matrices have a
    zero row or two parallel columns (singular candidate pairs); some input
    boxes have a zero bound, exclude 0, or miss 0 by a sliver so that an
    orthant is empty by less than the feasibility tolerance."""
    n = int(rng.choice([2, 3]))
    m = int(rng.choice([1, 2, 3]))
    B = rng.uniform(-1.0, 1.0, (n, m))
    r = rng.random()
    if r < 0.15:
        B[rng.integers(n)] = 0.0
    elif r < 0.3 and m > 1:
        B[:, 1] = 2.0 * B[:, 0]
    model = _model(rng.uniform(-0.5, 0.5, (n, n)), B, rng.uniform(-2.0, 2.0, n))
    lo = rng.uniform(-2.0, 0.0, n)
    cell = Box(lo=lo, hi=lo + rng.uniform(0.5, 2.0, n))
    if n == 3 and rng.random() < 0.3:
        p = truncated_pyramid(cell, int(rng.integers(3)), int(rng.choice([-1, 1])), 0.5)
    else:
        p = box_to_polytope(cell)
    u_lo, u_hi = rng.uniform(-3.0, 0.0, m), rng.uniform(0.1, 3.0, m)
    for k in range(m):
        r = rng.random()
        if r < 0.15:
            u_lo[k] = 0.0
        elif r < 0.25:
            u_lo[k], u_hi[k] = -rng.uniform(0.1, 3.0), 0.0
        elif r < 0.35:
            u_lo[k] = rng.uniform(0.1, 1.0)
            u_hi[k] = u_lo[k] + 1.0
        elif r < 0.45:
            u_lo[k] = 5e-10
        elif r < 0.5:
            u_lo[k], u_hi[k] = -rng.uniform(0.5, 2.0), -5e-10
    bounds = (DeviationBounds.zero() if rng.random() < 0.25
              else DeviationBounds(*rng.uniform(0.0, 0.1, 3)))
    return model, bounds, p, int(rng.integers(2 * n)), Box(lo=u_lo, hi=u_hi)


def _robust_rows_hold(model, bounds, p, cert, pu, tol=1e-9):
    """Robust vertex conditions of the carried controls in the U_max form
    predictive certificates prove: every in-bound model moves n·ẋ by at
    most eps_A‖v‖ + eps_B·U_max + eps_c, U_max the largest vertex norm of
    the input box."""
    n1 = p.normals[cert.exit_facet]
    u_max = max(float(np.linalg.norm(pu.vertex(c))) for c in range(2 ** pu.dim))
    for j in range(p.n_vertices):
        u = cert.controls[j]
        assert np.all(u >= pu.lo - tol) and np.all(u <= pu.hi + tol)
        v = p.vertices[j]
        vel = model.A @ v + model.B @ u + model.c
        spread = (bounds.eps_A * float(np.linalg.norm(v)) + bounds.eps_B * u_max
                  + bounds.eps_c)
        assert float(n1 @ vel) - spread >= cert.bound.c1 - tol
        for i in p.vertex_facets[j]:
            if i != cert.exit_facet:
                assert float(p.normals[i] @ vel) + spread <= tol
    assert cert.bound.c1 > 0.0
    assert min(cert.margins.values()) >= cert.bound.c1 - 1e-9


def test_batched_predictive_verdicts_match_tableau_reference():
    """One call per question decides every facet of the polytope: each
    facet's verdict equals its per-pattern reference, every refutation
    system the reference finds feasible is possible (at most 1 % of the
    others are too), and a facet is certified exactly when every vertex's
    per-vertex tableau reference reaches DELTA_STRICT, with those speeds as
    its margins."""
    rng = np.random.default_rng(31)
    systems = lenient = certified = refuted = 0
    for _ in range(250):
        model, bounds, p, _, pu = _random_predictive_instance(rng)
        facets = list(range(p.n_facets))
        batch = reach._Batch([model], [p], [facets])
        rows, boxed = reach._robust_rows(batch, [bounds], pu)
        C, d, pick = reach._vertex_systems(batch, range(len(facets)), *rows)
        possible = reach._closed_form_verdicts(C, d, pick)[0] & boxed
        refutations = predict_unreachable([(model, bounds, p, facets)], pu)[0]
        certs = predict_reachable([(model, bounds, p, facets)], pu)[0]
        assert len(refutations) == len(certs) == len(facets)
        for f, fct in enumerate(facets):
            ref = [_reference_patterns(model, bounds, p, j, fct, pu)
                   for j in range(p.n_vertices)]
            for j, k in np.ndindex(possible.shape[0], possible.shape[2]):
                systems += 1
                if possible[j, f, k] != ref[j][k]:
                    assert possible[j, f, k], (j, fct, k)
                    lenient += 1
            every_vertex = all(any(r) for r in ref)
            assert refutations[f] == (not every_vertex)
            refuted += not every_vertex
            speeds = _reference_robust_speeds(model, bounds, p, fct, pu)
            cert = certs[f]
            assert (cert is not None) == all(v is not None and v >= DELTA_STRICT
                                             for v in speeds)
            if cert is not None:
                assert cert.exit_facet == fct and cert.kind == "predictive"
                certified += 1
                _robust_rows_hold(model, bounds, p, cert, pu)
                for j, v in enumerate(speeds):
                    assert cert.margins[j] == pytest.approx(v, abs=1e-9)
                assert cert.bound.c1 == min(cert.margins.values())
                assert cert.t_est <= cert.bound.T0
    assert certified > 10 and refuted > 10
    assert lenient <= systems // 100


def test_kernel_keeps_every_system_the_tableau_keeps():
    """Systems whose best slack is DELTA_STRICT +- 1e-8 are possible
    whenever linear_feasible, whose own tolerance accepts slacks a little
    below DELTA_STRICT, finds them feasible: the kernel alone refutes
    nothing the tableau would keep."""
    rng = np.random.default_rng(37)
    band = kept = 0
    while band < 300:
        model, bounds, p, fct, pu = _random_predictive_instance(rng)
        batch = reach._Batch([model], [p], [[fct]])
        rows, boxed = reach._robust_rows(batch, [bounds], pu)
        C, d, pick = reach._vertex_systems(batch, [0], *rows)
        m = C.shape[0]
        j, k = int(rng.integers(p.n_vertices)), int(rng.integers(C.shape[-1]))
        if not boxed[k]:
            continue
        # row 2m + r holds vertex j's r-th facet; the exit facet is padding
        rows = [2 * m + r for r, i in enumerate(p.vertex_facets[j]) if i != fct]
        a = -C[:, -1, j, 0, k]
        status, u, _ = solve_lp(-a, C[:, rows, j, 0, k].T, d[rows, j, 0, k],
                                -d[m:2 * m, j, 0, k], d[:m, j, 0, k])
        if status != "optimal":
            continue
        best = float(a @ u) + d[-1, j, 0, k]
        for offset in (1e-8, -1e-8):
            shifted = d.copy()
            shifted[-1, j, 0, k] += DELTA_STRICT + offset - best
            prob = LinearFeasibilityProblem(
                A_le=C[:, rows, j, 0, k].T, b_le=d[rows, j, 0, k],
                A_ge_strict=a.reshape(1, -1), b_ge_strict=-shifted[-1:, j, 0, k],
                lo=-d[m:2 * m, j, 0, k], hi=d[:m, j, 0, k])
            if linear_feasible(prob) is not None:
                possible, _, _ = reach._closed_form_verdicts(C, shifted, pick)
                assert possible[j, 0, k]
                kept += 1
            band += 1
    assert kept > 100


def _batch_question(rng, n, m, pu):
    """A random question (model, bounds, polytope, exit facets) on n states
    and m inputs: a box or (n = 3) a truncated pyramid, zero or random
    bounds, a random facet list, and a row-major model or a column-major
    one sliced from a parameter matrix as identify_affine builds it."""
    if rng.random() < 0.5:
        theta = rng.uniform(-1.0, 1.0, (n + m + 1, n)).T
        model = AffineModel(A=0.5 * theta[:, :n], B=theta[:, n:n + m],
                            c=2.0 * theta[:, n + m], linearization_point=np.zeros(n))
    else:
        model = _model(rng.uniform(-0.5, 0.5, (n, n)), rng.uniform(-1.0, 1.0, (n, m)),
                       rng.uniform(-2.0, 2.0, n))
    lo = rng.uniform(-2.0, 0.0, n)
    cell = Box(lo=lo, hi=lo + rng.uniform(0.5, 2.0, n))
    if n == 3 and rng.random() < 0.3:
        p = truncated_pyramid(cell, int(rng.integers(3)), int(rng.choice([-1, 1])), 0.5)
    else:
        p = box_to_polytope(cell)
    bounds = (DeviationBounds.zero() if rng.random() < 0.25
              else DeviationBounds(*rng.uniform(0.0, 0.1, 3)))
    facets = [int(f) for f in rng.permutation(2 * n)[:int(rng.integers(0, 2 * n + 1))]]
    return model, bounds, p, facets


@pytest.mark.parametrize("n, m", [(2, 1), (2, 3), (3, 2), (3, 3)])
def test_batched_questions_match_one_question_calls(n, m):
    """One predict_unreachable and one predict_reachable call over 300
    random questions, with one kernel call per refutation round (at most
    one per sign pattern) and one for the certification, return exactly
    the verdicts and the certificates (controls, margins, bound and t_est)
    of one call per question. On boxes and truncated pyramids, one
    facet_reachable call for a list of exit facets returns exactly the
    certificates of one call per facet."""
    rng = np.random.default_rng(59 + 10 * n + m)
    pu = Box(lo=rng.uniform(-3.0, -0.5, m), hi=rng.uniform(0.5, 3.0, m))
    questions = [_batch_question(rng, n, m, pu) for _ in range(300)]
    calls = optim.STATS.kernel_calls
    refuted = predict_unreachable(questions, pu)
    assert 1 <= optim.STATS.kernel_calls - calls <= 2 ** m
    calls = optim.STATS.kernel_calls
    certs = predict_reachable(questions, pu)
    assert optim.STATS.kernel_calls - calls == 1
    assert len(refuted) == len(certs) == len(questions)
    found = 0
    for q, r, cs in zip(questions, refuted, certs):
        assert r == predict_unreachable([q], pu)[0]
        alone = predict_reachable([q], pu)[0]
        assert len(r) == len(cs) == len(alone) == len(q[3])
        for got, want in zip(cs, alone):
            assert (got is None) == (want is None)
            if got is None:
                continue
            found += 1
            assert (got.exit_facet, got.kind, got.margins) == (want.exit_facet, want.kind,
                                                               want.margins)
            assert got.controls.keys() == want.controls.keys()
            assert all(np.array_equal(got.controls[j], want.controls[j]) for j in got.controls)
            assert (got.bound, got.t_est) == (want.bound, want.t_est)
    assert found > 20 and sum(map(sum, refuted)) > 20
    # exact certification: every facet of the polytope, then the question's
    # shuffled subset, in one call each
    exact = 0
    for model, _, p, facets in questions[:100]:
        alone = [_cert_key(facet_reachable(model, p, [f], pu)[0]) for f in range(p.n_facets)]
        for fs in (list(range(p.n_facets)), facets):
            assert [_cert_key(c) for c in facet_reachable(model, p, fs, pu)] == [alone[f]
                                                                                for f in fs]
        exact += sum(k is not None for k in alone)
    assert exact > 10


def _pattern_verdicts(question, pu):
    """The one-shot kernel verdicts (M, F, P) of one question: every sign
    pattern of every vertex and exit facet decided in one call, False
    where the pattern's orthant misses the input box."""
    model, bounds, p, facets = question
    b = reach._Batch([model], [p], [facets])
    rows, boxed = reach._robust_rows(b, [bounds], pu)
    C, d, pick = reach._vertex_systems(b, range(len(facets)), *rows)
    return reach._closed_form_verdicts(C, d, pick)[0] & boxed


def _one_shot_refutations(questions, pu):
    """Oracle for predict_unreachable: a facet is refuted when some vertex
    has no feasible pattern among the one-shot verdicts."""
    return [[not all(True in vertex[e] for vertex in _pattern_verdicts(q, pu).tolist())
             for e in range(len(q[3]))] if q[3] else [] for q in questions]


def _later_pattern_question(n, c_x, c_side):
    """Single integrator on the unit box with drift (c_x, c_side, ...),
    asked for every facet. With c_x = 0.5, leaving through x- needs
    u_0 ≤ -0.5, so no vertex of that facet is feasible under the first
    sign pattern; with c_side = 0.5 as well the top corner also needs
    u_k ≤ -0.5 on every other axis, so only the last pattern is feasible
    there. With c_x = 0, u_0 = 0 leaves through x- at a slack of 0, which
    the kernel counts as possible; under an input box with lo_0 = 5e-10
    only the empty orthant u_0 ≤ 0 offers it, within the tolerance."""
    model = _model(np.zeros((n, n)), np.eye(n), [c_x] + [c_side] * (n - 1))
    p = box_to_polytope(Box(lo=np.zeros(n), hi=np.ones(n)))
    return model, DeviationBounds.zero(), p, list(range(2 * n))


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (3, 3)])
def test_staged_refutations_match_the_one_shot_oracle(n, m):
    """predict_unreachable, which decides one sign pattern at a time and
    only for the entries still open, returns the one-shot oracle's
    verdicts and decides fewer systems. Questions: random ones (boxes and
    truncated pyramids) under an input box around 0 and under boxes that
    miss orthants (lo > 0 or hi < 0 on one axis, or lo = 5e-10, inside
    the kernel's tolerance), and single integrators where only a later
    pattern, only the last, or only an empty orthant is feasible."""
    rng = np.random.default_rng(97 + 10 * n + m)
    boxes = [(-np.ones(m), np.ones(m)), (np.r_[0.5, -np.ones(m - 1)], 2.0 * np.ones(m)),
             (-2.0 * np.ones(m), np.r_[np.ones(m - 1), -0.25]),
             (np.r_[5e-10, -np.ones(m - 1)], np.ones(m))]
    refuted = kept = 0
    for lo, hi in boxes:
        pu = Box(lo=lo, hi=hi)
        questions = [_batch_question(rng, n, m, pu) for _ in range(40)]
        if m == n:
            questions += [_later_pattern_question(n, *c) for c in ((0.0, 0.0), (0.5, 0.0),
                                                                    (0.5, 0.5))]
        systems = optim.STATS.kernel_systems
        got = predict_unreachable(questions, pu)
        staged = optim.STATS.kernel_systems - systems
        systems = optim.STATS.kernel_systems
        want = _one_shot_refutations(questions, pu)
        assert got == want
        assert staged < optim.STATS.kernel_systems - systems
        refuted += sum(map(sum, got))
        kept += sum(len(r) - sum(r) for r in got)
    assert refuted > 20 and kept > 20
    if m == n:
        x_minus = facet_id(0, -1)
        around = Box(lo=-np.ones(m), hi=np.ones(m))
        only_last = [False] * (2 ** m - 1) + [True]
        for c in (0.0, 0.5):
            q = _later_pattern_question(n, 0.5, c)
            possible = _pattern_verdicts(q, around)[:, x_minus].tolist()       # (M, P)
            assert not any(v[0] for v in possible) and all(any(v) for v in possible)
            assert (only_last in possible) == (c > 0)
            assert not predict_unreachable([q], around)[0][x_minus]
            assert predict_unreachable([q], Box(lo=boxes[1][0], hi=boxes[1][1]))[0][x_minus]
        q = _later_pattern_question(n, 0.0, 0.0)
        assert not predict_unreachable([q], around)[0][x_minus]
        assert predict_unreachable([q], Box(lo=boxes[3][0], hi=boxes[3][1]))[0][x_minus]


def _box_bounds(model, p, fct, pu, spread):
    """Per vertex, n_fᵀ(A v_j + c) − spread_j + Σ_k max(a_k lo_k, a_k hi_k),
    a = n_fᵀB, written out with numpy's own products."""
    n1 = p.normals[fct]
    a = n1 @ model.B
    top = float(np.maximum(a * pu.lo, a * pu.hi).sum())
    return [float(n1 @ (model.A @ v + model.c)) - s + top for v, s in zip(p.vertices, spread)]


def _screen_question(rng, n, m, pu, near):
    """A random question (model, bounds, polytope, exit facet) for
    _box_screen. Without ``near`` its model is scaled by 1e3 to 1e6 half
    the time; with ``near`` its drift is shifted along the exit normal so
    that the smallest box bound of its vertices lies within 1e-7 of
    DELTA_STRICT."""
    model, bounds, p, _ = _batch_question(rng, n, m, pu)
    fct = int(rng.integers(2 * n))
    if not near:
        scale = 10.0 ** rng.uniform(3.0, 6.0) if rng.random() < 0.5 else 1.0
        return _model(scale * model.A, scale * model.B, scale * model.c), bounds, p, fct
    spread = reach._robust_spread([bounds], reach._Batch([model], [p], [[fct]]).norms, pu)[0]
    shift = DELTA_STRICT + rng.uniform(-1e-7, 1e-7) - min(_box_bounds(model, p, fct, pu, spread))
    return _model(model.A, model.B, model.c + shift * p.normals[fct]), bounds, p, fct


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (3, 3)])
def test_box_screen_drops_only_what_the_kernel_refuses(n, m):
    """Every entry _box_screen drops comes out without a certificate when
    the kernel decides every entry unscreened: on random questions with
    models scaled by up to 1e6, on questions whose smallest box bound lies
    within 1e-7 of DELTA_STRICT, and on integrators ẋ = B u + c with
    B = eye(n, m), whose fastest speed is their box bound, DELTA_STRICT
    ± 1e-9 or 1e-7, at scales up to 1e6. The screen does drop entries, and
    near the bound the kernel certifies some."""
    rng = np.random.default_rng(113 + 10 * n + m)
    pu = Box(lo=rng.uniform(-3.0, -0.5, m), hi=rng.uniform(0.5, 3.0, m))
    questions = [_screen_question(rng, n, m, pu, near=k % 2 == 1) for k in range(120)]
    cube = box_to_polytope(Box(lo=np.zeros(n), hi=np.ones(n)))
    for scale in (1.0, 1e3, 1e6):
        for offset in (-1e-7, -1e-9, 1e-9, 1e-7):
            # x+ at the fastest control u_0 = hi_0, u_k = 0 elsewhere
            c = np.zeros(n)
            c[0] = (DELTA_STRICT + offset) / scale - pu.hi[0]
            questions.append((_model(np.zeros((n, n)), scale * np.eye(n, m), scale * c),
                              DeviationBounds.zero(), cube, facet_id(0, +1)))
    models, bounds, polys, facets = zip(*questions)
    b = reach._Batch(models, polys, [[f] for f in facets])
    spread = reach._robust_spread(bounds, b.norms, pu)
    kept = reach._box_screen(b, pu, spread)
    _, speed = reach._fastest_controls(b, range(len(questions)), pu, spread)
    certified = (speed >= DELTA_STRICT).all(axis=0).tolist()
    dropped = sorted(set(range(len(questions))) - set(kept))
    assert not any(certified[e] for e in dropped)
    assert len(dropped) > 20 and sum(certified) > 5
    assert any(e in dropped for e in range(1, 120, 2))
    assert certified[120:] == [False, False, True, True] * 3


def _in_layout(model, layout):
    """The model with A and B in C order (0), in Fortran order (1), or (2)
    sliced with c from one column-major parameter matrix, as
    identify_affine builds them."""
    A, B, c = model.A, model.B, model.c
    if layout == 2:
        theta = np.hstack([A, B, c[:, None]]).copy(order="F")
        n, m = B.shape
        A, B, c = theta[:, :n], theta[:, n:n + m], theta[:, n + m]
    else:
        order = "CF"[layout]
        A, B, c = A.copy(order=order), B.copy(order=order), c.copy()
    return AffineModel(A=A, B=B, c=c, linearization_point=model.linearization_point)


def _cert_key(cert):
    """Everything a certificate states, as Python floats."""
    if cert is None:
        return None
    return (cert.exit_facet, cert.kind, cert.margins, cert.relaxed_vertices,
            cert.exact_vertices, cert.bound, cert.t_est,
            {j: u.tolist() for j, u in cert.controls.items()})


@pytest.mark.parametrize("n, m", [(2, 1), (2, 3), (3, 2), (3, 3)])
def test_answers_do_not_depend_on_the_model_layout(n, m):
    """The verdicts and certificates (controls, margins, bound, t_est) of
    120 random questions are bit-identical whether every model holds A and
    B in C order, in Fortran order or as column slices of a parameter
    matrix, or the three layouts are mixed in one call; so are the
    cell_pair_bounds from a source point in C order, as a strided row or
    as a reversed view."""
    rng = np.random.default_rng(71 + 10 * n + m)
    pu = Box(lo=rng.uniform(-3.0, -0.5, m), hi=rng.uniform(0.5, 3.0, m))
    questions = [_batch_question(rng, n, m, pu) for _ in range(120)]
    answers = []
    for layouts in ([0] * 120, [1] * 120, [2] * 120, [k % 3 for k in range(120)]):
        asked = [(_in_layout(q[0], k), *q[1:]) for q, k in zip(questions, layouts)]
        answers.append((predict_unreachable(asked, pu),
                        [[_cert_key(c) for c in cs] for cs in predict_reachable(asked, pu)]))
    assert all(a == answers[0] for a in answers[1:])
    refuted, certs = answers[0]
    assert sum(map(sum, refuted)) > 5 and sum(c is not None for cs in certs for c in cs) > 5
    for _, _, p, _ in questions[:30]:
        x = rng.uniform(-3.0, 3.0, n)
        cell = Box(lo=p.vertices.min(axis=0), hi=p.vertices.max(axis=0))
        views = (x.copy(), np.stack([x, x]).copy(order="F")[0], x[::-1].copy()[::-1])
        assert views[1].strides != views[0].strides != views[2].strides
        bounds = [cell_pair_bounds(2.0, 1.0, v, cell) for v in views]
        assert bounds[1] == bounds[0] and bounds[2] == bounds[0]


def test_relaxed_side_certificates_do_not_depend_on_the_model_layout():
    """Relaxed side-facet certificates on heading cells, for unicycle
    linearizations and for dense unactuated drifts, are bit-identical for
    the three model layouts of _in_layout. One call for all six facets, or
    for a shuffled subset, returns exactly the certificates of one call per
    facet; at both thresholds the side relaxation accepts some facets and
    refuses others."""
    rng, order = np.random.default_rng(83), np.random.default_rng(84)
    s = unicycle_system()
    pu = Box(lo=[-10.0, -10.0], hi=[10.0, 10.0])
    relaxed = refused = 0
    for _ in range(40):
        th = rng.uniform(-np.pi, np.pi - np.pi / 4)
        cell = _heading_cell(th, th + np.pi / 4, x_lo=rng.uniform(-5.0, 3.0, 2))
        for model, theta in ((analytic_linearize(s, cell.center + rng.uniform(-0.3, 0.3, 3)), 20.0),
                             (_model(rng.uniform(-0.3, 0.3, (3, 3)), np.zeros((3, 2)),
                                     rng.uniform(-1, 1, 3)), 60.0)):
            for f in range(4):
                keys = [_cert_key(relaxed_facet_reachable(_in_layout(model, k), cell, [f], pu,
                                                          np.deg2rad(theta))[0]) for k in range(3)]
                assert keys[1] == keys[0] and keys[2] == keys[0]
                relaxed += keys[0] is not None and bool(keys[0][3])
            alone = [_cert_key(relaxed_facet_reachable(model, cell, [f], pu, np.deg2rad(theta))[0])
                     for f in range(6)]
            subset = [int(f) for f in order.permutation(6)[:order.integers(1, 6)]]
            for fs in (list(range(6)), subset):
                got = relaxed_facet_reachable(_in_layout(model, 2), cell, fs, pu,
                                              np.deg2rad(theta))
                assert [_cert_key(c) for c in got] == [alone[f] for f in fs]
            refused += sum(k is None for k in alone[:4])
    assert relaxed >= 10 and refused >= 10


@pytest.mark.parametrize("offset", [1e-8, -1e-8])
def test_band_vertices_need_no_tableau_lp(offset):
    """Single integrator whose every vertex can push out through +x with a
    best slack of DELTA_STRICT + offset: the kernel alone, without a
    tableau LP, gives the refutation verdict of the per-pattern reference,
    and a certificate needs a fastest speed of DELTA_STRICT at every
    vertex."""
    model = _model(np.zeros((2, 2)), np.eye(2), [DELTA_STRICT + offset - 1.0, 0.0])
    p = box_to_polytope(Box(lo=[0.0, 0.0], hi=[1.0, 1.0]))
    pu = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
    zero = DeviationBounds.zero()
    fct = facet_id(0, +1)
    ref = [any(_reference_patterns(model, zero, p, j, fct, pu)) for j in range(4)]
    before = optim.STATS.lp_calls
    assert predict_unreachable([(model, zero, p, [fct])], pu)[0] == [not all(ref)]
    assert optim.STATS.lp_calls == before
    cert, = predict_reachable([(model, zero, p, [fct])], pu)[0]
    assert (cert is not None) == (offset > 0)


def test_robust_exit_time_bound_degrades_with_uncertainty():
    m = _model(np.zeros((2, 2)), np.eye(2), np.zeros(2))
    p = box_to_polytope(Box(lo=[0.0, 0.0], hi=[1.0, 1.0]))
    pu = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
    fct = facet_id(0, +1)
    t_zero = robust_exit_time_bound(m, DeviationBounds.zero(), p, fct, pu)
    t_unc = robust_exit_time_bound(m, DeviationBounds(0.1, 0.1, 0.1), p, fct, pu)
    assert t_zero is not None and t_unc is not None
    assert t_unc.T0 > t_zero.T0
    # overwhelming uncertainty: no robust bound at all
    assert robust_exit_time_bound(m, DeviationBounds(2.0, 2.0, 2.0), p, fct, pu) is None


def _heading_cell(th_lo, th_hi, x_lo=(-5.0, -5.0), side=1.25):
    lo = np.array([x_lo[0], x_lo[1], th_lo])
    hi = np.array([x_lo[0] + side, x_lo[1] + side, th_hi])
    return Box(lo=lo, hi=hi)


def test_relaxed_rotation_facet_uses_subpolytope():
    s = unicycle_system()
    cell = _heading_cell(0.0, np.pi / 4)
    m = analytic_linearize(s, cell.center)
    pu = Box(lo=[-10.0, -10.0], hi=[10.0, 10.0])
    cert = relaxed_facet_reachable(m, cell, [facet_id(2, +1)], pu,
                                   theta_thre=np.deg2rad(10.0))[0]
    assert cert is not None and cert.kind == "relaxed"
    # valid only on the truncated pyramid, a strict subset of the cell
    assert cert.polytope.contains(cell.center)
    corner = cell.lo + np.array([0.01, 0.01, 0.01])
    assert not cert.polytope.contains(corner)


def test_relaxed_side_facet_follows_heading():
    s = unicycle_system()
    pu = Box(lo=[-10.0, -10.0], hi=[10.0, 10.0])
    # heading in [0, pi/4]: the +x facet is reachable, the +y facet is not
    cell = _heading_cell(0.0, np.pi / 4)
    m = analytic_linearize(s, cell.center)
    fwd = relaxed_facet_reachable(m, cell, [facet_id(0, +1)], pu,
                                  theta_thre=np.deg2rad(10.0))[0]
    assert fwd is not None
    side = relaxed_facet_reachable(m, cell, [facet_id(1, +1)], pu,
                                   theta_thre=np.deg2rad(10.0))[0]
    assert side is None
    # relaxed vertices carry zero control and are excluded from the
    # exact-vertex list used for time bounds
    if fwd.relaxed_vertices:
        for j in fwd.relaxed_vertices:
            assert np.allclose(fwd.controls[j], 0.0)
            assert j not in fwd.exact_vertices


def test_relaxed_threshold_angle_matters():
    s = unicycle_system()
    pu = Box(lo=[-10.0, -10.0], hi=[10.0, 10.0])
    cell = _heading_cell(0.0, np.pi / 4)
    m = analytic_linearize(s, cell.center)
    # with a generous threshold the +x facet certifies; with a zero
    # threshold the grazing vertices are rejected
    assert relaxed_facet_reachable(m, cell, [facet_id(0, +1)], pu,
                                   theta_thre=np.deg2rad(10.0))[0] is not None
    assert relaxed_facet_reachable(m, cell, [facet_id(0, +1)], pu,
                                   theta_thre=0.0)[0] is None


def _in_order(terms):
    """terms[0] + terms[1] + ... on Python floats, left to right."""
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def _reference_crossing_times(model, cert):
    """The crossing times the planner computed from an exact or relaxed
    certificate before certificates carried them (its certify_current and
    exit_time_bound's vertex subset), kept as the oracle of cert.bound and
    cert.t_est. Returns (bound, t_est), or (None, None) where it raised.
    Every sum runs on Python floats in index order, the order certificates
    are computed in: n1·((A v + c) + B u), V·n1 and the mean margin."""
    p, fct = cert.polytope, cert.exit_facet
    n1 = p.normals[fct].tolist()
    A, B, c = model.A.tolist(), model.B.tolist(), model.c.tolist()

    def speed(j):
        v, u = p.vertices[j].tolist(), cert.controls[j].tolist()
        vel = [_in_order([a * x for a, x in zip(A[i], v)]) + c[i]
               + _in_order([b * y for b, y in zip(B[i], u)]) for i in range(len(c))]
        return _in_order([n * x for n, x in zip(n1, vel)])

    js = cert.exact_vertices or range(p.n_vertices)
    c1 = min(speed(j) for j in js)
    if c1 <= DELTA_STRICT / 2:
        return None, None
    proj = [_in_order([x * n for x, n in zip(v, n1)]) for v in p.vertices.tolist()]
    alpha, beta = min(proj), max(proj)
    T0 = (beta - alpha) / c1
    js = cert.exact_vertices or list(cert.margins.keys())
    c_mean = _in_order([cert.margins[j] for j in js]) / len(js)
    t_est = (beta - alpha) / c_mean if c_mean > 0 else T0
    return (T0, alpha, beta, c1), t_est


def _spreading_model(cell, lateral, speed):
    """A 3-d model without input authority whose drift is ``speed`` along
    x and spreads from the cell center across y and z, so every vertex
    breaks an invariance row and a +x certificate relaxes all of them."""
    A = np.diag([0.0, lateral, lateral])
    return _model(A, np.zeros((3, 2)), -A @ cell.center + [speed, 0.0, 0.0])


def test_certificates_carry_the_planners_crossing_times():
    """bound and t_est equal, bit for bit, what the planner used to compute
    from the certificate, for exact certificates, truncated pyramids, side
    facets with some or all vertices relaxed, and slow certificates."""
    rng = np.random.default_rng(43)
    kinds = {"exact": 0, "mixed": 0, "all_relaxed": 0, "pyramid": 0, "unbounded": 0}
    pu = Box(lo=[-2.0, -2.0], hi=[2.0, 2.0])
    theta = np.deg2rad(10.0)
    cases = []
    for _ in range(60):
        m = _model(rng.uniform(-0.5, 0.5, (2, 2)), rng.uniform(-1, 1, (2, 2)) + np.eye(2),
                   rng.uniform(-2, 2, 2))
        lo = rng.uniform(-2, 0, 2)
        p = box_to_polytope(Box(lo=lo, hi=lo + rng.uniform(0.5, 2.0, 2)))
        cases += [(m, facet_reachable(m, p, [f], pu)[0]) for f in range(4)]
    s = unicycle_system()
    upu = Box(lo=[-10.0, -10.0], hi=[10.0, 10.0])
    for _ in range(60):
        th = rng.uniform(-np.pi, np.pi - np.pi / 4)
        cell = _heading_cell(th, th + np.pi / 4, x_lo=rng.uniform(-5.0, 3.0, 2))
        m = analytic_linearize(s, cell.center + rng.uniform(-0.3, 0.3, 3))
        cases += [(m, relaxed_facet_reachable(m, cell, [f], upu, theta)[0]) for f in range(6)]
        # unactuated drift: margins of relaxed vertices may be negative
        m = _model(rng.uniform(-0.3, 0.3, (3, 3)), np.zeros((3, 2)), rng.uniform(-1, 1, 3))
        cases += [(m, relaxed_facet_reachable(m, cell, [f], upu, np.deg2rad(60.0))[0])
                  for f in range(4)]
        # a positive speed at most DELTA_STRICT / 2 gives no bound
        for speed in (1.0, 0.3 * DELTA_STRICT):
            spread = _spreading_model(cell, rng.uniform(0.01, 0.05), speed)
            cases.append((spread, relaxed_facet_reachable(spread, cell, [facet_id(0, +1)],
                                                          upu, theta)[0]))
    for m, cert in cases:
        if cert is None:
            continue
        bound, t_est = _reference_crossing_times(m, cert)
        if bound is None:
            assert cert.bound is None and cert.t_est is None
            kinds["unbounded"] += 1
        else:
            got = cert.bound
            assert (got.T0, got.alpha, got.beta, got.c1) == bound
            assert cert.t_est == t_est
        if cert.relaxed_vertices and not cert.exact_vertices:
            kinds["all_relaxed"] += 1
        elif cert.relaxed_vertices:
            kinds["mixed"] += 1
        elif cert.kind == "relaxed":
            kinds["pyramid"] += 1
        else:
            kinds["exact"] += 1
    assert min(kinds.values()) >= 5, kinds


def _linprog_fastest_speed(model, p, j, exit_facet, pu, spread=0.0):
    """scipy's maximum of n1ᵀ(A v_j + B u + c) - spread over the input box
    and the vertex's invariance rows n_iᵀ(A v_j + B u + c) + spread ≤ 0,
    or None."""
    drift = model.A @ p.vertices[j] + model.c
    n1 = p.normals[exit_facet]
    inv = [i for i in p.vertex_facets[j] if i != exit_facet]
    ref = linprog(-(n1 @ model.B), A_ub=np.array([p.normals[i] @ model.B for i in inv]),
                  b_ub=np.array([-(p.normals[i] @ drift) - spread for i in inv]),
                  bounds=list(zip(pu.lo, pu.hi)), method="highs")
    return float(n1 @ drift - ref.fun) - spread if ref.status == 0 else None


def test_vertex_controls_are_the_fastest_admissible():
    """Every exact vertex of an exact or relaxed side-facet certificate
    moves out at scipy's maximum outward speed, relaxed vertices have no
    speed of DELTA_STRICT or more, and an exact certificate's slowest
    margin is the zero-deviation robust exit-time bound's c1."""
    rng = np.random.default_rng(47)
    zero = DeviationBounds.zero()
    counts = {"exact": 0, "exact_vertex": 0, "relaxed_vertex": 0}
    pu = Box(lo=[-3.0, -3.0], hi=[3.0, 3.0])
    for _ in range(100):
        m = _model(rng.uniform(-0.5, 0.5, (2, 2)), rng.uniform(-1, 1, (2, 2)) + np.eye(2),
                   rng.uniform(-2, 2, 2))
        lo = rng.uniform(-2, 0, 2)
        p = box_to_polytope(Box(lo=lo, hi=lo + rng.uniform(0.5, 2.0, 2)))
        fct = int(rng.integers(0, 4))
        cert = facet_reachable(m, p, [fct], pu)[0]
        if cert is None:
            continue
        counts["exact"] += 1
        for j in range(p.n_vertices):
            assert cert.margins[j] == pytest.approx(
                _linprog_fastest_speed(m, p, j, fct, pu), abs=1e-9)
        rb = robust_exit_time_bound(m, zero, p, fct, pu)
        assert min(cert.margins.values()) == pytest.approx(rb.c1, abs=1e-9)
    s = unicycle_system()
    upu = Box(lo=[-10.0, -10.0], hi=[10.0, 10.0])
    for _ in range(30):
        th = rng.uniform(-np.pi, np.pi - np.pi / 4)
        cell = _heading_cell(th, th + np.pi / 4, x_lo=rng.uniform(-5.0, 3.0, 2))
        m = analytic_linearize(s, cell.center + rng.uniform(-0.3, 0.3, 3))
        p = box_to_polytope(cell)
        for fct in range(4):
            cert = relaxed_facet_reachable(m, cell, [fct], upu, np.deg2rad(10.0))[0]
            if cert is None:
                continue
            for j in cert.exact_vertices:
                counts["exact_vertex"] += 1
                assert cert.margins[j] == pytest.approx(
                    _linprog_fastest_speed(m, p, j, fct, upu), abs=1e-9)
            for j in cert.relaxed_vertices:
                counts["relaxed_vertex"] += 1
                speed = _linprog_fastest_speed(m, p, j, fct, upu)
                assert speed is None or speed < DELTA_STRICT + 1e-9
    assert min(counts.values()) >= 20, counts


def test_predictive_certificates_refuse_only_what_the_vertex_lps_refuse():
    """Predictive certification, with zero and with random deviation
    bounds, refuses a facet exactly when scipy's per-vertex LP finds some
    vertex without a robust outward speed of DELTA_STRICT: the closed-form
    kernel that replaced the box-only screen and the per-vertex tableau
    LPs refuses nothing those LPs certify, runs no tableau LP, and carries
    scipy's speeds as its margins with controls that satisfy the robust
    vertex conditions."""
    rng = np.random.default_rng(53)
    certified = refused = 0
    for _ in range(500):
        model, bounds, p, fct, pu = _random_predictive_instance(rng)
        norms = reach._Batch([model], [p], [[fct]]).norms
        for b in (DeviationBounds.zero(), bounds):
            spread = reach._robust_spread([b], norms, pu)[0]
            speeds = [_linprog_fastest_speed(model, p, j, fct, pu, spread[j])
                      for j in range(p.n_vertices)]
            before = optim.STATS.lp_calls
            cert, = predict_reachable([(model, b, p, [fct])], pu)[0]
            assert optim.STATS.lp_calls == before
            assert (cert is not None) == all(v is not None and v >= DELTA_STRICT
                                             for v in speeds)
            if cert is None:
                refused += 1
                continue
            certified += 1
            _robust_rows_hold(model, b, p, cert, pu)
            for j, v in enumerate(speeds):
                assert cert.margins[j] == pytest.approx(v, abs=1e-9)
    assert certified > 50 and refused > 200


def test_degenerate_optimum_takes_the_lexicographically_smallest_control():
    """Heading facet with n1ᵀB = (0, 1) and converging x/y drift: every
    vertex's fastest controls form the segment u_1 = 10, lo_j ≤ u_0 ≤ hi_j,
    and the certificate takes its lexicographically smallest point
    (lo_j, 10). The segments differ from vertex to vertex, so the least
    ‖u‖₁, the lexicographically largest point or the first corner of the
    kernel's enumeration would each pick another control somewhere."""
    cell = Box(lo=[0.0, 0.0, 0.0], hi=[1.0, 1.0, 0.5])
    model = _model(np.diag([-10.0, -10.0, 0.0]), np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   [8.0, 3.0, 0.0])
    pu = Box(lo=[-10.0, -10.0], hi=[10.0, 10.0])
    p = box_to_polytope(cell)
    fct = facet_id(2, +1)
    assert np.array_equal(p.normals[fct] @ model.B, [0.0, 1.0])
    cert = facet_reachable(model, p, [fct], pu)[0]
    assert cert is not None
    nearer_top = 0
    for j, v in enumerate(p.vertices):
        drift = model.A @ v + model.c
        # facet rows on u_0: x- and y- give u_0 ≥ -drift, x+ and y+ u_0 ≤ -drift
        lo = max([pu.lo[0]] + [-drift[a] for a in (0, 1) if v[a] == cell.lo[a]])
        hi = min([pu.hi[0]] + [-drift[a] for a in (0, 1) if v[a] == cell.hi[a]])
        assert hi - lo >= 5.0
        assert cert.controls[j] == pytest.approx([lo, pu.hi[1]], abs=1e-12)
        assert cert.margins[j] == pytest.approx(pu.hi[1], abs=1e-12)
        nearer_top += abs(hi) < abs(lo)
    assert nearer_top > 0

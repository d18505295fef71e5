"""Boxes, polytopes, truncated pyramids, Kuhn triangulation."""
import math

import numpy as np
import pytest

from reachplan.geometry import (Box, GeometryError, Polytope, Simplex,
                                box_to_polytope, facet_axis_dir, facet_id,
                                locate_simplex, triangulate, truncated_pyramid)


def test_box_basics():
    b = Box(lo=[0.0, -1.0], hi=[2.0, 3.0])
    assert b.dim == 2
    assert np.allclose(b.sides, [2.0, 4.0])
    assert np.allclose(b.center, [1.0, 1.0])
    assert b.volume() == pytest.approx(8.0)
    assert b.contains([1.0, 0.0])
    assert not b.contains([2.1, 0.0])
    # vertex code: bit k selects hi on axis k
    assert np.allclose(b.vertex(0), [0.0, -1.0])
    assert np.allclose(b.vertex(1), [2.0, -1.0])
    assert np.allclose(b.vertex(2), [0.0, 3.0])
    assert np.allclose(b.vertex(3), [2.0, 3.0])


def test_degenerate_box_rejected():
    with pytest.raises(GeometryError):
        Box(lo=[0.0, 0.0], hi=[1.0, 0.0])


def test_facet_id_roundtrip():
    for axis in range(4):
        for d in (-1, 1):
            fid = facet_id(axis, d)
            assert facet_axis_dir(fid) == (axis, d)
    # lo facet is the even index
    assert facet_id(0, -1) == 0
    assert facet_id(0, +1) == 1
    assert facet_id(2, -1) == 4


def test_box_to_polytope_structure():
    b = Box(lo=[-1.0, 0.0, 2.0], hi=[1.0, 4.0, 3.0])
    p = box_to_polytope(b)
    p.validate()
    assert p.n_vertices == 8
    assert p.n_facets == 6
    assert np.allclose(np.linalg.norm(p.normals, axis=1), 1.0)
    assert p.contains(b.center)
    assert not p.contains(b.hi + 0.1)
    # every facet's vertices lie on its plane
    for i in range(p.n_facets):
        for j in p.facet_vertices[i]:
            assert p.normals[i] @ p.vertices[j] == pytest.approx(p.offsets[i])
    # each vertex of a box touches exactly n facets
    for j in range(p.n_vertices):
        assert len(p.vertex_facets[j]) == 3


def test_polytope_violation_sign():
    p = box_to_polytope(Box(lo=[0.0, 0.0], hi=[1.0, 1.0]))
    assert p.violation([0.5, 0.5]) == pytest.approx(-0.5)
    assert p.violation([1.2, 0.5]) == pytest.approx(0.2)


def test_truncated_pyramid_shrink_one_is_box():
    b = Box(lo=[0.0, 0.0, 0.0], hi=[2.0, 2.0, 1.0])
    p = truncated_pyramid(b, axis=2, direction=+1, shrink=1.0)
    q = box_to_polytope(b)
    assert np.allclose(p.vertices, q.vertices)


def test_truncated_pyramid_geometry():
    b = Box(lo=[0.0, 0.0, 0.0], hi=[2.0, 2.0, 1.0])
    p = truncated_pyramid(b, axis=2, direction=+1, shrink=0.5)
    p.validate()
    # exit facet (z = 1) keeps the full box cross-section
    for j in p.facet_vertices[facet_id(2, +1)]:
        v = p.vertices[j]
        assert v[2] == pytest.approx(1.0)
        assert v[0] in (0.0, 2.0) and v[1] in (0.0, 2.0)
    # opposite facet (z = 0) is shrunk about its center (1, 1)
    for j in p.facet_vertices[facet_id(2, -1)]:
        v = p.vertices[j]
        assert v[2] == pytest.approx(0.0)
        assert v[0] in (0.5, 1.5) and v[1] in (0.5, 1.5)
    # the subpolytope sits inside the parent box
    bb = box_to_polytope(b)
    for v in p.vertices:
        assert bb.contains(v, tol=1e-12)
    # side facets slant: their normals gain a heading-axis component
    for fid in (facet_id(0, -1), facet_id(0, +1)):
        assert abs(p.normals[fid][2]) > 0.1
        assert np.linalg.norm(p.normals[fid]) == pytest.approx(1.0)


def _reference_truncated_pyramid(b, axis, direction, shrink):
    """The stand-alone builder that truncated_pyramid replaced (it now
    starts from box_to_polytope), kept as its oracle."""
    n = b.dim
    exit_bit = 1 if direction > 0 else 0
    center = b.center
    verts = np.empty((2 ** n, n))
    for code in range(2 ** n):
        v = b.vertex(code)
        if (code >> axis & 1) != exit_bit:
            for k in range(n):
                if k != axis:
                    v[k] = center[k] + shrink * (v[k] - center[k])
        verts[code] = v
    normals = np.zeros((2 * n, n))
    offsets = np.zeros(2 * n)
    normals[facet_id(axis, -1), axis] = -1.0
    offsets[facet_id(axis, -1)] = -b.lo[axis]
    normals[facet_id(axis, +1), axis] = 1.0
    offsets[facet_id(axis, +1)] = b.hi[axis]
    facet_vertices = []
    for fid in range(2 * n):
        fax, d = facet_axis_dir(fid)
        bit = 1 if d > 0 else 0
        facet_vertices.append(tuple(j for j in range(2 ** n) if (j >> fax & 1) == bit))
    centroid = verts.mean(axis=0)
    for fid in range(2 * n):
        fax, d = facet_axis_dir(fid)
        if fax == axis:
            continue
        pts = verts[list(facet_vertices[fid])]
        _, _, vt = np.linalg.svd(pts[1:] - pts[0])
        nrm = vt[-1]
        if nrm @ (pts[0] - centroid) < 0:
            nrm = -nrm
        normals[fid] = nrm
        offsets[fid] = nrm @ pts[0]
    vertex_facets = [tuple(i for i in range(2 * n) if j in facet_vertices[i])
                     for j in range(2 ** n)]
    return verts, normals, offsets, facet_vertices, vertex_facets


def test_truncated_pyramid_matches_reference_builder():
    """Bit-for-bit the arrays and incidence of the stand-alone builder, on
    random 2-d and 3-d boxes, every axis and direction, and shrink values
    from slivers to the whole box."""
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.choice([2, 3]))
        lo = rng.uniform(-10.0, 10.0, n)
        b = Box(lo=lo, hi=lo + rng.uniform(1e-3, 5.0, n))
        axis, direction = int(rng.integers(n)), int(rng.choice([-1, 1]))
        shrink = float(rng.choice([rng.uniform(1e-3, 1.0), 1.0, 0.5]))
        p = truncated_pyramid(b, axis, direction, shrink)
        verts, normals, offsets, fv, vf = _reference_truncated_pyramid(b, axis, direction,
                                                                       shrink)
        assert np.array_equal(p.vertices, verts)
        assert np.array_equal(p.normals, normals)
        assert np.array_equal(p.offsets, offsets)
        assert p.facet_vertices == fv and p.vertex_facets == vf


def test_truncated_pyramid_bad_shrink():
    b = Box(lo=[0.0, 0.0, 0.0], hi=[1.0, 1.0, 1.0])
    with pytest.raises(GeometryError):
        truncated_pyramid(b, 2, 1, 0.0)
    with pytest.raises(GeometryError):
        truncated_pyramid(b, 2, 1, 1.5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_triangulation_partitions_volume(n):
    rng = np.random.default_rng(7 + n)
    lo = rng.uniform(-2, 0, n)
    hi = lo + rng.uniform(0.5, 2.0, n)
    b = Box(lo=lo, hi=hi)
    tri = triangulate(box_to_polytope(b))
    assert len(tri) == math.factorial(n)
    assert sum(s.volume() for s in tri) == pytest.approx(b.volume())


def test_barycentric_reconstruction():
    rng = np.random.default_rng(11)
    b = Box(lo=[0.0, 0.0, 0.0], hi=[1.0, 2.0, 3.0])
    tri = triangulate(box_to_polytope(b))
    for _ in range(50):
        x = rng.uniform(b.lo, b.hi)
        idx, lam = locate_simplex(tri, x)
        s = tri[idx]
        assert lam.sum() == pytest.approx(1.0)
        assert np.all(lam >= -1e-9)
        assert np.allclose(lam @ s.vertices, x)


def test_locate_simplex_outside_raises():
    tri = triangulate(box_to_polytope(Box(lo=[0.0, 0.0], hi=[1.0, 1.0])))
    with pytest.raises(GeometryError):
        locate_simplex(tri, [2.0, 2.0])


def test_triangulation_of_truncated_pyramid():
    b = Box(lo=[0.0, 0.0, 0.0], hi=[1.0, 1.0, 1.0])
    p = truncated_pyramid(b, axis=2, direction=-1, shrink=0.5)
    tri = triangulate(p)
    assert len(tri) == 6
    # frustum volume oracle: integral over z of the shrinking cross-section;
    # side length grows linearly from 0.5 (z=1) to 1.0 (z=0)
    zs = np.linspace(0, 1, 2001)
    exact = float(np.trapezoid((0.5 + 0.5 * (1 - zs)) ** 2, zs))
    assert sum(s.volume() for s in tri) == pytest.approx(exact, rel=1e-6)

"""Polytope, box, and simplex geometry used by reachability certification.

Partition cells are axis-aligned boxes; general polytopes appear only as
truncated-pyramid subpolytopes used by the underactuated relaxation. All
facet normals are stored unit-length so norm factors in the certification
inequalities reduce to 1.
"""
from __future__ import annotations

from dataclasses import dataclass
import functools
from itertools import permutations
import math

import numpy as np

CONTAINMENT_TOL = 1e-9


class GeometryError(ValueError):
    pass


def dot(a, b):
    """a[..., 0]·b[..., 0] + a[..., 1]·b[..., 1] + …, broadcast like a * b.

    The products are added in index order, each product and sum rounded on
    its own, so the result depends neither on the memory layout of a and b
    nor on how many other rows share the call, nor on the BLAS build. Every
    product of the certificate path (A v + B u + c, facet drifts, N B,
    vertex norms, crossing extents, deviation distances) goes through it.
    """
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    return out


@dataclass
class Box:
    """Axis-aligned box [lo, hi] with a cell identity and refinement depth.

    ``lo_list``/``hi_list`` hold the bounds as Python floats, for the
    per-axis loops of the partition, which are faster on floats than on
    numpy scalars and give the same IEEE results.
    """

    lo: np.ndarray
    hi: np.ndarray
    id: int = -1
    depth: int = 0

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise GeometryError("box bounds must be 1-d arrays of equal length")
        if np.any(self.hi - self.lo <= 0):
            raise GeometryError(f"degenerate box: lo={self.lo} hi={self.hi}")
        self.lo_list = self.lo.tolist()
        self.hi_list = self.hi.tolist()

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def sides(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def volume(self) -> float:
        return float(np.prod(self.sides))

    def contains(self, x, tol: float = CONTAINMENT_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def vertex(self, code: int) -> np.ndarray:
        """Vertex whose bit k of ``code`` selects hi (1) or lo (0) on axis k."""
        v = self.lo.copy()
        for k in range(self.dim):
            if code >> k & 1:
                v[k] = self.hi[k]
        return v

    def vertices(self) -> np.ndarray:
        """All 2^n vertices, row ``code`` being vertex(code)."""
        return np.where(_code_bits(self.dim), self.hi, self.lo)


@functools.lru_cache(maxsize=8)
def _code_bits(n: int) -> np.ndarray:
    """(2^n, n) mask: bit k of each vertex code, read-only."""
    bits = np.array([[code >> k & 1 for k in range(n)] for code in range(2 ** n)],
                    dtype=bool).reshape(2 ** n, n)
    bits.flags.writeable = False
    return bits


def facet_id(axis: int, direction: int) -> int:
    """Facet index convention: 2*axis for the lo facet, 2*axis+1 for hi."""
    return 2 * axis + (1 if direction > 0 else 0)


def facet_axis_dir(fid: int) -> tuple[int, int]:
    return fid // 2, (1 if fid % 2 else -1)


@dataclass
class Polytope:
    """Bounded polytope: vertex list plus unit outward facet normals/offsets.

    ``facet_vertices[i]`` is the vertex-index set of facet i (the V_i sets);
    ``vertex_facets[j]`` is the facet-index set of vertex j (the W_j sets).
    """

    vertices: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    facet_vertices: list
    vertex_facets: list

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_facets(self) -> int:
        return self.normals.shape[0]

    def contains(self, x, tol: float = CONTAINMENT_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.normals @ x - self.offsets <= tol))

    def violation(self, x) -> float:
        """Largest signed facet violation; <= 0 inside."""
        x = np.asarray(x, dtype=float)
        return float(np.max(self.normals @ x - self.offsets))

    def validate(self, tol: float = CONTAINMENT_TOL) -> None:
        for j, v in enumerate(self.vertices):
            if np.any(self.normals @ v - self.offsets > tol):
                raise GeometryError(f"vertex {j} violates a facet halfspace")
        for i, vs in enumerate(self.facet_vertices):
            for j in vs:
                if i not in self.vertex_facets[j]:
                    raise GeometryError("incidence sets are inconsistent")


def box_to_polytope(b: Box) -> Polytope:
    """Convert a box to its 2^n-vertex, 2n-facet polytope form."""
    return boxes_to_polytopes([b])[0]


def boxes_to_polytopes(boxes) -> list:
    """box_to_polytope of every box (all of one dimension), from their
    stacked bounds. No two of them share memory."""
    n = boxes[0].dim
    lo = np.array([b.lo for b in boxes])
    hi = np.array([b.hi for b in boxes])
    verts = np.where(_code_bits(n), hi[:, None], lo[:, None])          # (B, 2^n, n)
    offsets = np.stack([-lo, hi], axis=2).reshape(len(boxes), 2 * n)
    normals = np.zeros((len(boxes), 2 * n, n))
    for axis in range(n):
        normals[:, facet_id(axis, -1), axis] = -1.0
        normals[:, facet_id(axis, +1), axis] = 1.0
    facet_vertices = []
    for fid in range(2 * n):
        axis, d = facet_axis_dir(fid)
        bit = 1 if d > 0 else 0
        facet_vertices.append(tuple(j for j in range(2 ** n) if (j >> axis & 1) == bit))
    vertex_facets = [tuple(i for i in range(2 * n) if j in facet_vertices[i])
                     for j in range(2 ** n)]
    return [Polytope(vertices=verts[k], normals=normals[k], offsets=offsets[k],
                     facet_vertices=list(facet_vertices), vertex_facets=list(vertex_facets))
            for k in range(len(boxes))]


def truncated_pyramid(b: Box, axis: int, direction: int, shrink: float) -> Polytope:
    """Subpolytope of ``b`` whose facet opposite the exit facet is scaled.

    The exit facet (given by axis/direction) is kept; the opposite facet is
    scaled by ``shrink`` about its own center, and the side facets slant
    accordingly. ``shrink=1`` reproduces the box. It is the box's
    :func:`box_to_polytope` with the opposite facet's vertices moved and
    the side facets refitted, so vertex codes, the facet-id convention and
    the incidence sets carry over and a Kuhn triangulation applies.
    """
    if not 0 < shrink <= 1:
        raise GeometryError("shrink ratio must lie in (0, 1]")
    p = box_to_polytope(b)
    verts = p.vertices
    exit_bit = 1 if direction > 0 else 0
    cross = [k for k in range(b.dim) if k != axis]
    center = b.center[cross]
    for code in range(p.n_vertices):
        if (code >> axis & 1) != exit_bit:
            # vertex on the opposite facet: pull cross-axes toward the center
            verts[code, cross] = center + shrink * (verts[code, cross] - center)
    # side facets: fit the supporting hyperplane through the facet's vertices
    centroid = verts.mean(axis=0)
    for fid in range(p.n_facets):
        if fid // 2 == axis:
            continue
        pts = verts[list(p.facet_vertices[fid])]
        _, _, vt = np.linalg.svd(pts[1:] - pts[0])
        nrm = vt[-1]
        if nrm @ (pts[0] - centroid) < 0:
            nrm = -nrm
        p.normals[fid] = nrm
        p.offsets[fid] = nrm @ pts[0]
    p.validate(1e-7)
    return p


@dataclass
class Simplex:
    """n+1 affinely independent vertices; ids index the parent polytope."""

    vertices: np.ndarray
    vertex_ids: tuple

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def volume(self) -> float:
        d = self.vertices[1:] - self.vertices[0]
        return abs(float(np.linalg.det(d))) / math.factorial(self.dim)

    def barycentric(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        A = (self.vertices[1:] - self.vertices[0]).T
        lam_rest = np.linalg.solve(A, x - self.vertices[0])
        return np.concatenate([[1.0 - lam_rest.sum()], lam_rest])


def triangulate(p: Polytope) -> list:
    """Kuhn triangulation of a cube-like polytope into n! simplices.

    The polytope is a box or a truncated pyramid, whose vertex row j has
    the lo/hi code j (``Box.vertex``). Simplices follow monotone
    vertex-code paths from the all-lo vertex to the all-hi vertex, one per
    axis permutation (lexicographic order).
    """
    simplices = []
    for perm in sorted(permutations(range(p.dim))):
        code = 0
        ids = [code]
        for ax in perm:
            code |= 1 << ax
            ids.append(code)
        ids = tuple(ids)
        simplices.append(Simplex(vertices=p.vertices[list(ids)], vertex_ids=ids))
    return simplices


def locate_simplex(tri: list, x, tol: float = 1e-9):
    """Return (index, barycentric coords) of the first simplex containing x.

    Ties on shared facets resolve to the lowest simplex index.
    """
    x = np.asarray(x, dtype=float)
    for idx, s in enumerate(tri):
        lam = s.barycentric(x)
        if np.all(lam >= -tol):
            return idx, lam
    raise GeometryError("point lies outside the triangulated region")

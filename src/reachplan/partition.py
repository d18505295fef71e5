"""Adaptive non-uniform partitioning of a box workspace.

Cells are axis-aligned boxes organized in a tree. Refinement is driven by
the straight segment from the current state to the target: every leaf the
segment touches is subdivided until it reaches the minimum side length.
Refinement is monotone (no coarsening) and preserves leaf identities of
untouched cells so per-cell bookkeeping survives re-partitioning. The tree
keeps, for every pair of adjacent leaves, the facet through which each
touches the other, current as it splits: a child can only touch its
parent's former neighbours and its own siblings (the neighbour-finding
argument of Samet's quadtrees), so a split costs time in the size of its
neighbourhood, not in the number of leaves. It also records the leaves
each split removed and created, from which the reachability graph
follows the partition (``take_changes``).
"""
from __future__ import annotations

from operator import attrgetter

import numpy as np

from .geometry import CONTAINMENT_TOL, Box, GeometryError


class PartitionTree:
    """Binary-power subdivision tree over a root box."""

    def __init__(self, root_lo, root_hi, h_min):
        lo = np.asarray(root_lo, dtype=float)
        hi = np.asarray(root_hi, dtype=float)
        self.h_min = np.asarray(h_min, dtype=float)
        if np.any(self.h_min <= 0):
            raise GeometryError("h_min must be positive per axis")
        ratio = (hi - lo) / self.h_min
        for r in ratio:
            k = round(np.log2(r))
            if k < 0 or abs(r - 2 ** k) > 1e-9 * max(1.0, r):
                raise GeometryError(
                    "root side / h_min must be a power of two on every axis"
                )
        self._next_id = 0
        self.nodes: dict[int, Box] = {}
        self.root = self._new_box(lo, hi, depth=0)
        self.leaves: dict[int, Box] = {self.root.id: self.root}
        self.children: dict[int, list[int]] = {}
        # leaf a -> {adjacent leaf b: id of a's facet toward b}; b's facet
        # toward a is the opposite one, that id ^ 1
        self.neighbours: dict[int, dict] = {self.root.id: {}}
        # leaves removed and created by splits since the last take_changes
        self._removed: set = set()
        self._created: set = {self.root.id}
        # a side above this is still splittable (h_min with a 1e-9 margin)
        self._split_above = (self.h_min * (1 + 1e-9)).tolist()

    def _new_box(self, lo, hi, depth) -> Box:
        b = Box(lo=lo, hi=hi, id=self._next_id, depth=depth)
        self._next_id += 1
        self.nodes[b.id] = b
        return b

    def locate(self, x) -> Box:
        """Leaf containing x; on internal boundaries the lower-id leaf wins.

        Walks down from the root through every child that contains x (a
        child contains x only if its parent does, so no hit is missed).
        """
        x = np.asarray(x, dtype=float)
        if not self.root.contains(x):
            raise GeometryError(f"point {x} outside the partition root")
        p = x.tolist()
        tol = CONTAINMENT_TOL
        best = None
        stack = [self.root]
        while stack:
            b = stack.pop()
            kids = self.children.get(b.id)
            if kids is None:
                if best is None or b.id < best.id:
                    best = b
                continue
            for c in map(self.nodes.__getitem__, kids):
                if all(lo - tol <= v <= hi + tol
                       for lo, v, hi in zip(c.lo_list, p, c.hi_list)):
                    stack.append(c)
        return best

    def splittable_axes(self, cell: Box) -> list:
        return [k for k, (lo, hi, above) in enumerate(zip(cell.lo_list, cell.hi_list,
                                                          self._split_above))
                if hi - lo > above]

    def split(self, cell: Box) -> list:
        """Subdivide a leaf along every axis still above its h_min."""
        if cell.id not in self.leaves:
            raise GeometryError("can only split a leaf")
        axes = self.splittable_axes(cell)
        if not axes:
            return [cell]
        mid = [0.5 * (lo + hi) for lo, hi in zip(cell.lo_list, cell.hi_list)]
        children = []
        for code in range(2 ** len(axes)):
            lo = list(cell.lo_list)
            hi = list(cell.hi_list)
            for i, ax in enumerate(axes):
                if code >> i & 1:
                    lo[ax] = mid[ax]
                else:
                    hi[ax] = mid[ax]
            children.append(self._new_box(lo, hi, depth=cell.depth + 1))
        del self.leaves[cell.id]
        self.children[cell.id] = [c.id for c in children]
        for c in children:
            self.leaves[c.id] = c
        if cell.id in self._created:
            self._created.discard(cell.id)
        else:
            self._removed.add(cell.id)
        self._created.update(self.children[cell.id])
        former = [self.leaves[n] for n in sorted(self._unlink(cell.id))]
        for i, c in enumerate(children):
            nbrs = self.neighbours[c.id] = {}
            # every candidate has a lower id than c, as in adjacency's order
            for other in former + children[:i]:
                fid = shared_facet(other, c)
                if fid is not None:
                    self.neighbours[other.id][c.id] = fid
                    nbrs[other.id] = fid ^ 1
        return children

    def take_changes(self) -> tuple:
        """(removed, created): the ids of the leaves that splits removed and
        created since the last call, which are then forgotten. A leaf
        created and split in between is in neither."""
        changes = self._removed, self._created
        self._removed, self._created = set(), set()
        return changes

    def _unlink(self, a: int) -> dict:
        """Forget leaf a's adjacencies; returns its former neighbours."""
        nbrs = self.neighbours.pop(a)
        for b in nbrs:
            del self.neighbours[b][a]
        return nbrs

    def refine_segment(self, a, b) -> list:
        """Algorithm: refine every leaf the segment a-b touches to h_min.

        Returns the ids of cells that were split (parents, in split order).
        The leaves to split are found from the root down, entering only the
        nodes the segment touches: a child's slab interval lies inside its
        parent's, so a node the segment misses has no touched leaf below.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if not (self.root.contains(a) and self.root.contains(b)):
            raise GeometryError("segment endpoints must lie inside the root box")
        a, b = a.tolist(), b.tolist()
        work = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not segment_intersects(node, a, b):
                continue
            kids = self.children.get(node.id)
            if kids is None:
                if self.splittable_axes(node):
                    work.append(node)
            else:
                stack.extend(map(self.nodes.__getitem__, kids))
        # ascending ids, the order of self.leaves
        work.sort(key=attrgetter("id"))
        split_ids = []
        while work:
            cell = work.pop()
            if cell.id not in self.leaves:
                continue
            kids = self.split(cell)
            split_ids.append(cell.id)
            for k in kids:
                if self.splittable_axes(k) and segment_intersects(k, a, b):
                    work.append(k)
        return split_ids

    def leaf_count(self) -> int:
        return len(self.leaves)

    def snapshot(self) -> list:
        return [
            {"id": b.id, "lo": b.lo.tolist(), "hi": b.hi.tolist(), "depth": b.depth}
            for b in sorted(self.leaves.values(), key=lambda c: c.id)
        ]


def segment_intersects(c: Box, a, b, tol: float = 1e-12) -> bool:
    """Closed segment vs closed box via slab clipping; a and b are float
    sequences (lists are fastest)."""
    t0, t1 = 0.0, 1.0
    for lo, hi, ak, bk in zip(c.lo_list, c.hi_list, a, b):
        d = bk - ak
        if abs(d) < tol:
            if ak < lo - tol or ak > hi + tol:
                return False
            continue
        ta = (lo - ak) / d
        tb = (hi - ak) / d
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1 + tol:
            return False
    return True


def uniform_cell_count(root_lo, root_hi, h_min) -> int:
    lo = np.asarray(root_lo, dtype=float)
    hi = np.asarray(root_hi, dtype=float)
    h = np.asarray(h_min, dtype=float)
    counts = np.rint((hi - lo) / h)
    return int(np.prod(counts))


def adjacency(tree: PartitionTree) -> dict:
    """All ordered adjacent leaf pairs with the exit facet of each.

    Returns {(id_a, id_b): id of a's facet toward b}, read from the map
    the tree keeps current on split: (a, b) then (b, a) for each a < b, in
    ascending order. A large cell next to k smaller neighbors across one
    facet produces k entries. The reachability graph follows the tree
    through ``take_changes`` instead; this whole map is what tests check
    that graph against.
    """
    nbrs = tree.neighbours
    out = {}
    for a, b in sorted((a, b) for a in nbrs for b in nbrs[a] if a < b):
        out[(a, b)] = nbrs[a][b]
        out[(b, a)] = nbrs[b][a]
    return out


def shared_facet(a: Box, b: Box, tol: float = 1e-9):
    """Id of the facet of box a that touches box b over a positive
    (n-1)-measure, or None."""
    fid = None
    for k, (alo, ahi, blo, bhi) in enumerate(zip(a.lo_list, a.hi_list,
                                                 b.lo_list, b.hi_list)):
        if abs(ahi - blo) <= tol or abs(alo - bhi) <= tol:
            if fid is not None:
                return None     # touching on two axes: no common facet
            fid = 2 * k + 1 if abs(ahi - blo) <= tol else 2 * k
        # must overlap with positive measure on every non-touching axis
        elif (ahi <= blo + tol or bhi <= alo + tol
              or min(ahi, bhi) - max(alo, blo) <= tol):
            return None
    return fid

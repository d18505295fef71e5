"""Adaptive partition tree, segment refinement, adjacency extraction."""
import math

import numpy as np
import pytest

from reachplan.geometry import Box, GeometryError, facet_id
from reachplan.partition import (PartitionTree, adjacency, segment_intersects,
                                 shared_facet, uniform_cell_count)


def test_uniform_cell_count_oracle():
    assert uniform_cell_count([-8, -8], [8, 8], [1, 1]) == 256
    assert uniform_cell_count([-10, -10, -np.pi], [10, 10, np.pi],
                              [1.25, 1.25, np.pi / 4]) == 16 * 16 * 8
    assert uniform_cell_count([0], [4], [0.5]) == 8


def test_root_must_be_power_of_two_multiple():
    with pytest.raises(GeometryError):
        PartitionTree([0.0, 0.0], [3.0, 2.0], [1.0, 1.0])
    PartitionTree([0.0, 0.0], [4.0, 2.0], [1.0, 1.0])  # fine


def test_split_conserves_volume_and_counts():
    tree = PartitionTree([0.0, 0.0], [4.0, 4.0], [1.0, 1.0])
    root_vol = tree.root.volume()
    kids = tree.split(tree.root)
    assert len(kids) == 4
    assert tree.leaf_count() == 4
    assert sum(b.volume() for b in tree.leaves.values()) == pytest.approx(root_vol)
    assert tree.children[tree.root.id] == [k.id for k in kids]
    # splitting a non-leaf fails
    with pytest.raises(GeometryError):
        tree.split(tree.root)


def test_split_respects_h_min_per_axis():
    tree = PartitionTree([0.0, 0.0], [2.0, 4.0], [1.0, 1.0])
    kids = tree.split(tree.root)
    assert len(kids) == 4
    fine = [k for k in kids if k.sides[1] > 1.5][0]
    # only the y axis remains splittable at that level
    assert tree.splittable_axes(fine) == [1]
    assert len(tree.split(fine)) == 2


def test_refine_segment_reaches_h_min_along_segment_only():
    tree = PartitionTree([0.0, 0.0], [8.0, 8.0], [1.0, 1.0])
    a, b = np.array([0.5, 0.5]), np.array([7.5, 0.5])
    tree.refine_segment(a, b)
    for leaf in tree.leaves.values():
        if segment_intersects(leaf, a, b):
            assert np.all(leaf.sides <= np.array([1.0, 1.0]) * (1 + 1e-9))
    # far corner stays coarse, total count well below uniform
    far = tree.locate([7.5, 7.5])
    assert np.all(far.sides > 1.0)
    assert tree.leaf_count() < uniform_cell_count([0, 0], [8, 8], [1, 1])


def test_refine_is_monotone_and_idempotent():
    tree = PartitionTree([0.0, 0.0], [4.0, 4.0], [1.0, 1.0])
    a, b = [0.5, 0.5], [3.5, 3.5]
    first = tree.refine_segment(a, b)
    assert first
    assert tree.refine_segment(a, b) == []


def test_locate_and_boundary_tie():
    tree = PartitionTree([0.0, 0.0], [4.0, 4.0], [1.0, 1.0])
    tree.split(tree.root)
    hit = tree.locate([1.0, 1.0])  # corner shared by all four leaves
    ids = [b.id for b in tree.leaves.values() if b.contains([1.0, 1.0])]
    assert hit.id == min(ids)
    with pytest.raises(GeometryError):
        tree.locate([9.0, 9.0])


def test_segment_intersects_against_sampling():
    rng = np.random.default_rng(3)
    c = Box(lo=[0.0, 0.0], hi=[1.0, 1.0])
    ts = np.linspace(0.0, 1.0, 2001)
    for _ in range(200):
        a = rng.uniform(-1.5, 2.5, 2)
        b = rng.uniform(-1.5, 2.5, 2)
        pts = a[None, :] + ts[:, None] * (b - a)[None, :]
        sampled = bool(np.any(np.all((pts >= -1e-12) & (pts <= 1 + 1e-12), axis=1)))
        got = segment_intersects(c, a, b)
        if sampled:
            assert got  # sampling can only under-detect grazing contact
        elif not got:
            assert not sampled


def test_shared_facet_oracle():
    a = Box(lo=[0.0, 0.0], hi=[1.0, 1.0], id=0)
    b = Box(lo=[1.0, 0.0], hi=[2.0, 1.0], id=1)
    assert shared_facet(a, b) == facet_id(0, +1)
    assert shared_facet(b, a) == facet_id(0, -1)
    # half-overlap neighbor
    c = Box(lo=[1.0, 0.5], hi=[2.0, 1.5], id=2)
    assert shared_facet(a, c) == facet_id(0, +1)
    assert shared_facet(c, a) == facet_id(0, -1)
    # below, across y
    f = Box(lo=[0.5, -1.0], hi=[1.5, 0.0], id=5)
    assert shared_facet(a, f) == facet_id(1, -1)
    assert shared_facet(f, a) == facet_id(1, +1)
    # corner touch has measure zero: no facet
    d = Box(lo=[1.0, 1.0], hi=[2.0, 2.0], id=3)
    assert shared_facet(a, d) is None
    # disjoint
    e = Box(lo=[3.0, 0.0], hi=[4.0, 1.0], id=4)
    assert shared_facet(a, e) is None


def test_adjacency_on_uniform_grid():
    tree = PartitionTree([0.0, 0.0], [2.0, 2.0], [1.0, 1.0])
    tree.split(tree.root)
    adj = adjacency(tree)
    # 2x2 grid: 4 interior shared facets, both directions
    assert len(adj) == 8
    for (i, j), fid in adj.items():
        assert adj[(j, i)] == fid ^ 1


def test_adjacency_hanging_nodes():
    tree = PartitionTree([0.0, 0.0], [4.0, 4.0], [1.0, 1.0])
    kids = tree.split(tree.root)
    sw = tree.locate([0.5, 0.5])
    tree.split(sw)
    adj = adjacency(tree)
    se = tree.locate([3.0, 1.0])
    # the coarse SE cell sees two fine western neighbors
    west = [j for (i, j), fid in adj.items() if i == se.id and fid == facet_id(0, -1)]
    assert len(west) == 2
    for j in west:
        assert adj[(j, se.id)] == facet_id(0, +1)


def test_snapshot_sorted_and_complete():
    tree = PartitionTree([0.0, 0.0], [2.0, 2.0], [1.0, 1.0])
    tree.split(tree.root)
    snap = tree.snapshot()
    assert [s["id"] for s in snap] == sorted(s["id"] for s in snap)
    assert len(snap) == tree.leaf_count()


def _all_pairs_adjacency(tree):
    """Reference: compare every pair of leaves, lower id first."""
    leaves = sorted(tree.leaves.values(), key=lambda b: b.id)
    out = {}
    for i, a in enumerate(leaves):
        for b in leaves[i + 1:]:
            fid = shared_facet(a, b)
            if fid is None:
                continue
            out[(a.id, b.id)] = fid
            out[(b.id, a.id)] = shared_facet(b, a)
    return out


def _assert_same_adjacency(tree):
    """The tree's map equals the all-pairs reference, pair order and facet
    ids, and each pair's two facets are opposite."""
    got, want = adjacency(tree), _all_pairs_adjacency(tree)
    assert list(got.items()) == list(want.items())
    assert set(tree.neighbours) == set(tree.leaves)
    for a, nbrs in tree.neighbours.items():
        for b, fid in nbrs.items():
            assert tree.neighbours[b][a] == fid ^ 1


_GRIDS = {
    "2d": ([-8.0, -8.0], [8.0, 8.0], [0.25, 0.25]),
    "unicycle": ([-10.0, -10.0, -math.pi], [10.0, 10.0, math.pi],
                 [1.25, 1.25, math.pi / 4]),
}


@pytest.mark.parametrize("grid", sorted(_GRIDS))
@pytest.mark.parametrize("seed", range(3))
def test_incremental_adjacency_matches_all_pairs(grid, seed):
    lo, hi, h = _GRIDS[grid]
    rng = np.random.default_rng(seed)
    tree = PartitionTree(lo, hi, h)
    for _ in range(40):
        cands = sorted((b for b in tree.leaves.values()
                        if tree.splittable_axes(b)), key=lambda b: b.id)
        if not cands:
            break
        tree.split(cands[int(rng.integers(len(cands)))])
        _assert_same_adjacency(tree)


@pytest.mark.parametrize("grid", sorted(_GRIDS))
def test_incremental_adjacency_under_segment_refinement(grid):
    lo, hi, h = _GRIDS[grid]
    rng = np.random.default_rng(7)
    tree = PartitionTree(lo, hi, h)
    for _ in range(4):
        a, b = rng.uniform(lo, hi), rng.uniform(lo, hi)
        tree.refine_segment(a, b)
        _assert_same_adjacency(tree)


@pytest.mark.parametrize("grid", sorted(_GRIDS))
def test_locate_matches_linear_scan(grid):
    lo, hi, h = _GRIDS[grid]
    lo, hi, h = np.array(lo), np.array(hi), np.array(h)
    rng = np.random.default_rng(11)
    tree = PartitionTree(lo, hi, h)
    for _ in range(2):
        tree.refine_segment(rng.uniform(lo, hi), rng.uniform(lo, hi))
    leaves = list(tree.leaves.values())
    points = [rng.uniform(lo, hi) for _ in range(100)]
    # leaf corners and facet midpoints: several leaves share them, and the
    # lowest id must win
    for leaf in leaves[::4]:
        points.extend(leaf.vertices())
        for k in range(leaf.dim):
            for side in (leaf.lo, leaf.hi):
                p = leaf.center.copy()
                p[k] = side[k]
                points.append(p)
    points += [lo, hi]
    ties = 0
    for x in points:
        hits = [b.id for b in leaves if b.contains(x)]
        assert tree.locate(x).id == min(hits)
        ties += len(hits) > 1
    assert ties > 100


def _refine_segment_by_leaf_scan(tree, a, b):
    """Reference: PartitionTree.refine_segment with its work list taken
    from a scan of every leaf, in the order of tree.leaves."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    split_ids = []
    work = [c for c in tree.leaves.values()
            if tree.splittable_axes(c) and segment_intersects(c, a, b)]
    while work:
        cell = work.pop()
        if cell.id not in tree.leaves:
            continue
        kids = tree.split(cell)
        split_ids.append(cell.id)
        for k in kids:
            if tree.splittable_axes(k) and segment_intersects(k, a, b):
                work.append(k)
    return split_ids


@pytest.mark.parametrize("grid", sorted(_GRIDS))
def test_refine_segment_matches_the_leaf_scan(grid):
    """The descent from the root splits the same cells in the same order as
    a scan of every leaf, so both trees give every cell the same id and
    bounds; segments run between random points, cell corners and facet
    midpoints, and along facets."""
    lo, hi, h = (np.array(v) for v in _GRIDS[grid])
    rng = np.random.default_rng(17)
    tree, ref = PartitionTree(lo, hi, h), PartitionTree(lo, hi, h)
    for k in range(12):
        a, b = rng.uniform(lo, hi), rng.uniform(lo, hi)
        if k % 3 == 1:
            # from a leaf corner to the centre of another leaf's facet
            leaves = sorted(tree.leaves.values(), key=lambda c: c.id)
            c1, c2 = (leaves[int(rng.integers(len(leaves)))] for _ in range(2))
            a = c1.vertex(int(rng.integers(2 ** len(lo))))
            b = c2.center.copy()
            b[0] = c2.lo[0]
        elif k % 3 == 2:
            b[1:] = a[1:]      # parallel to axis 0
        assert tree.refine_segment(a, b) == _refine_segment_by_leaf_scan(ref, a, b)
        assert tree.snapshot() == ref.snapshot()

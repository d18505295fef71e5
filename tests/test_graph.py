"""Entropy weights, status bookkeeping, and shortest path on the cell graph."""
import copy
import itertools
import math

import numpy as np
import pytest

from graph_reference import FixedGraph, full_rebuild, full_refresh, full_snapshot
from reachplan.geometry import Box, facet_id
from reachplan.graph import (CERTAIN, IMPOSSIBLE, MAX_EDGE_FAILURES, UNCERTAIN, Edge,
                             ReachGraph, edge_entropy, replay, uncertain_weight)
from reachplan.partition import PartitionTree, adjacency
from reachplan.reach import ExitTimeBound, ReachCertificate


def _sf(axis=0, direction=+1):
    return facet_id(axis, direction)


def _cert(t_bound, kind="exact", t_est=None):
    """A certificate holding only what the graph reads: its kind, its time
    bound and its typical crossing time (by default the bound)."""
    return ReachCertificate(exit_facet=_sf(), controls={}, kind=kind, margins={},
                            polytope=None,
                            bound=ExitTimeBound(T0=t_bound, alpha=0.0, beta=t_bound, c1=1.0),
                            t_est=t_bound if t_est is None else t_est)


def _line_graph(n_nodes, C_u=1.0, beta_u=0.0):
    """Bidirectional chain 0 - 1 - ... - (n-1) with unit cells."""
    adj = {}
    for a in range(n_nodes - 1):
        adj[(a, a + 1)] = _sf(direction=+1)
        adj[(a + 1, a)] = _sf(direction=-1)
    leaves = {i: Box(lo=np.zeros(2), hi=np.ones(2), id=i) for i in range(n_nodes)}
    g = ReachGraph(C_u=C_u, beta_u=beta_u)
    g.rebuild(FixedGraph(adj))
    return g, leaves


def test_edge_entropy_values():
    assert edge_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-12)
    assert edge_entropy(0.0) == 0.0
    assert edge_entropy(1.0) == 0.0
    # symmetric in p <-> 1-p
    assert edge_entropy(0.2) == pytest.approx(edge_entropy(0.8), abs=1e-15)
    # hand value: -(0.25 ln 0.25 + 0.75 ln 0.75)
    assert edge_entropy(0.25) == pytest.approx(
        -(0.25 * math.log(0.25) + 0.75 * math.log(0.75)), abs=1e-15)
    with pytest.raises(ValueError):
        edge_entropy(-0.1)
    with pytest.raises(ValueError):
        edge_entropy(1.1)


def test_uncertain_weight_spot_values():
    # C_u l_u / (1 + beta_u eig) with ln 2 information at a single edge
    assert uncertain_weight(100.0, 1.0, 0.8, 0.0) == pytest.approx(100.0)
    eig = 1.5 * math.log(2.0)                      # 1.0397...
    assert uncertain_weight(100.0, 1.0, 0.8, eig) == pytest.approx(
        100.0 / (1.0 + 0.8 * 1.0397207708399179), abs=1e-6)
    # monotone: more expected information -> cheaper exploration
    w = [uncertain_weight(10.0, 2.0, 1.0, e) for e in (0.0, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(w, w[1:]))
    with pytest.raises(ValueError):
        uncertain_weight(-1.0, 1.0, 0.8, 0.0)
    with pytest.raises(ValueError):
        uncertain_weight(1.0, 1.0, 0.8, -0.5)


def test_expected_info_gain_hand_oracle():
    """The weight of 0 -> 1 is C_u l_u / (1 + beta_u eig), where eig is
    p_prior times the entropy of node 1's uncertain out-edges."""
    g, leaves = _line_graph(3, C_u=10.0, beta_u=1.0)
    # node 1 has two uncertain out-edges (1->0, 1->2), each at p = 0.5
    g.refresh_uncertain_weights(leaves)
    assert g.edges[(0, 1)].weight == pytest.approx(
        10.0 * 1.0 / (1.0 + 0.5 * 2 * math.log(2)))
    # resolving 1->2 removes one of them
    g.mark_certain(1, 2, _cert(3.0))
    g.refresh_uncertain_weights(leaves)
    assert g.edges[(0, 1)].weight == pytest.approx(
        10.0 * 1.0 / (1.0 + 0.5 * math.log(2)))


def test_mark_transitions_and_flips_raise():
    g, _ = _line_graph(3)
    cert = _cert(2.0, t_est=0.5)
    g.mark_certain(0, 1, cert)
    e = g.edges[(0, 1)]
    assert e.status == CERTAIN and e.weight == 0.5 and e.cert is cert
    g.mark_impossible(1, 0)
    assert g.edges[(1, 0)].status == IMPOSSIBLE
    with pytest.raises(RuntimeError):
        g.mark_certain(1, 0, _cert(1.0))
    with pytest.raises(RuntimeError):
        g.mark_impossible(0, 1)
    tally = g.status_tally()
    assert tally == {CERTAIN: 1, IMPOSSIBLE: 1, UNCERTAIN: 2}


def test_weight_never_exceeds_bound():
    g, _ = _line_graph(2)
    g.mark_certain(0, 1, _cert(1.0, t_est=50.0))
    assert g.edges[(0, 1)].weight == 1.0


def test_rebuild_preserves_resolved_status():
    """Splitting a cell away from two resolved edges keeps their statuses
    and records; the split's new pairs start uncertain."""
    tree = PartitionTree([0.0, 0.0], [4.0, 1.0], [0.5, 1.0])
    west, east = tree.split(tree.root)
    west_a, west_b = tree.split(west)           # [0, 1] and [1, 2]
    g = ReachGraph(C_u=1.0, beta_u=0.0)
    g.rebuild(tree)
    g.mark_certain(west_b.id, east.id, _cert(4.0, kind="relaxed", t_est=1.5))
    g.mark_impossible(east.id, west_b.id)
    lo, hi = tree.split(west_a)                 # [0, 0.5] and [0.5, 1]
    g.rebuild(tree)
    assert g.edges[(west_b.id, east.id)].status == CERTAIN
    assert g.edges[(west_b.id, east.id)].weight == 1.5
    assert g.edges[(west_b.id, east.id)].cert.kind == "relaxed"
    assert g.edges[(east.id, west_b.id)].status == IMPOSSIBLE
    assert g.edges[(hi.id, west_b.id)].status == UNCERTAIN
    assert (west_a.id, west_b.id) not in g.edges


def test_total_entropy_counts_only_uncertain():
    g, _ = _line_graph(3)
    assert g.total_entropy() == pytest.approx(4 * math.log(2))
    g.mark_certain(0, 1, _cert(1.0))
    assert g.total_entropy() == pytest.approx(3 * math.log(2))


def _brute_force_path(g, src, dst):
    """Exhaustive simple-path search; the Dijkstra oracle."""
    nodes = {a for a, _ in g.edges} | {b for _, b in g.edges}
    best_cost, best_path = math.inf, None
    usable = {(a, b): e.weight for (a, b), e in g.edges.items()
              if e.status != IMPOSSIBLE}

    def extend(path, cost):
        nonlocal best_cost, best_path
        node = path[-1]
        if node == dst:
            if (cost, path) < (best_cost, best_path or path):
                best_cost, best_path = cost, list(path)
            return
        for nxt in sorted(nodes):
            if nxt in path or (node, nxt) not in usable:
                continue
            extend(path + [nxt], cost + usable[(node, nxt)])

    extend([src], 0.0)
    return best_path, best_cost


def test_shortest_path_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        g = ReachGraph(C_u=1.0, beta_u=0.0)
        adj = {}
        for a, b in itertools.permutations(range(n), 2):
            if rng.random() < 0.45:
                adj[(a, b)] = _sf()
        g.rebuild(FixedGraph(adj))
        for (a, b), e in g.edges.items():
            r = rng.random()
            if r < 0.2:
                e.status = IMPOSSIBLE
            else:
                e.status = CERTAIN
                e.weight = float(np.round(rng.uniform(0.1, 5.0), 3))
        path, cost = g.shortest_path(0, n - 1)
        bpath, bcost = _brute_force_path(g, 0, n - 1)
        if bpath is None:
            assert path is None and cost == math.inf
        else:
            assert cost == pytest.approx(bcost, abs=1e-9)
            assert path == bpath


def test_shortest_path_respects_blocked_set():
    g, _ = _line_graph(4)
    for e in g.edges.values():
        e.status = CERTAIN
        e.weight = 1.0
    path, cost = g.shortest_path(0, 3)
    assert path == [0, 1, 2, 3] and cost == pytest.approx(3.0)
    path, cost = g.shortest_path(0, 3, blocked=frozenset({(1, 2)}))
    assert path is None and cost == math.inf


def test_shortest_path_leaves_out_an_edge_at_max_failures():
    """An edge that failed MAX_EDGE_FAILURES times is left out of every
    query; one failure fewer keeps it in."""
    g, _ = _line_graph(4)
    for e in g.edges.values():
        e.status = CERTAIN
        e.weight = 1.0
    e = g.edges[(1, 2)]
    e.failures = MAX_EDGE_FAILURES - 1
    assert g.shortest_path(0, 3) == ([0, 1, 2, 3], 3.0)
    e.failures = MAX_EDGE_FAILURES
    assert g.shortest_path(0, 3) == (None, math.inf)
    assert g.shortest_path(2, 0) == ([2, 1, 0], 2.0)


def test_snapshot_shape():
    g, _ = _line_graph(2)
    g.mark_certain(0, 1, _cert(2.0, kind="relaxed", t_est=0.5))
    g.edges[(1, 0)].cert = _cert(3.0)       # pins no crossing time on its edge
    snap = g.snapshot()
    assert {e["status"] for e in snap["edges"]} == {CERTAIN, UNCERTAIN}
    by_pair = {(e["source"], e["target"]): e for e in snap["edges"]}
    assert by_pair[(0, 1)]["t_bound"] == 2.0 and by_pair[(0, 1)]["weight"] == 0.5
    assert by_pair[(0, 1)]["cert_kind"] == "relaxed"
    assert by_pair[(0, 1)]["p_e"] is None
    assert by_pair[(1, 0)]["p_e"] == 0.5
    assert by_pair[(1, 0)]["t_bound"] is None and by_pair[(1, 0)]["cert_kind"] is None
    assert snap["tally"][CERTAIN] == 1
    assert snap["entropy"] == pytest.approx(math.log(2))


def test_refresh_weights_match_per_edge_formula():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        adj = {}
        for a, b in itertools.permutations(range(n), 2):
            if rng.random() < 0.4:
                adj[(a, b)] = _sf(axis=int(rng.integers(2)))
        sides = {i: rng.uniform(0.25, 2.0, 2) for i in range(n)}
        g = ReachGraph(C_u=float(rng.uniform(1, 100)), beta_u=float(rng.uniform(0, 2)),
                       p_prior=float(rng.uniform(0.05, 0.95)))
        g.rebuild(FixedGraph(adj))
        for (a, b), e in g.edges.items():
            r = rng.random()
            if r < 0.25:
                g.mark_impossible(a, b)
            elif r < 0.5:
                g.mark_certain(a, b, _cert(float(rng.uniform(0.1, 5))))
        g.refresh_uncertain_weights({i: Box(lo=np.zeros(2), hi=s, id=i)
                                     for i, s in sides.items()})
        for (a, b), e in g.edges.items():
            if e.status != UNCERTAIN:
                continue
            out_h = 0.0
            for dst in g.out.get(b, ()):
                e2 = g.edges[(b, dst)]
                if e2.status == UNCERTAIN:
                    out_h += edge_entropy(g.p_prior)
            eig = g.p_prior * out_h
            l_u = float(sides[a][e.facet // 2])
            assert e.weight == g.C_u * l_u / (1.0 + g.beta_u * eig)


def _mark_at_random(g, rng):
    """Resolve some uncertain edges and put the planner's per-edge state
    (certificate, failure count) on some edges."""
    for (a, b), e in g.edges.items():
        r = rng.random()
        if e.status == UNCERTAIN and r < 0.15:
            g.mark_impossible(a, b)
        elif e.status == UNCERTAIN and r < 0.3:
            g.mark_certain(a, b, _cert(float(rng.uniform(0.1, 5)),
                                       t_est=float(rng.uniform(0.1, 5))))
        elif e.status != CERTAIN and r < 0.4:
            e.cert = object()       # a certificate that pins no crossing time
        if rng.random() < 0.2:
            e.failures += int(rng.integers(1, 4))


@pytest.mark.parametrize("dim", [2, 3])
def test_rebuild_after_random_splits(dim):
    """Across random split sequences, rebuild keeps the very Edge of every
    surviving pair, starts new pairs uncertain, and the refreshed weights
    equal those of a graph built from scratch with the same statuses."""
    rng = np.random.default_rng(40 + dim)
    for _ in range(6):
        tree = PartitionTree(np.zeros(dim), np.full(dim, 8.0), np.full(dim, 0.5))
        g = ReachGraph(C_u=float(rng.uniform(1, 100)), beta_u=float(rng.uniform(0, 2)),
                       p_prior=float(rng.uniform(0.05, 0.95)))
        g.rebuild(tree)
        for _ in range(10):
            _mark_at_random(g, rng)
            before = dict(g.edges)
            saved = {pair: copy.copy(e) for pair, e in before.items()}
            for _ in range(int(rng.integers(1, 4))):
                leaves = [c for c in tree.leaves.values() if tree.splittable_axes(c)]
                tree.split(leaves[int(rng.integers(len(leaves)))])
            adj = adjacency(tree)
            g.rebuild(tree)
            assert g.edges.keys() == adj.keys()
            for pair, e in g.edges.items():
                assert pair[0] in tree.leaves and pair[1] in tree.leaves
                if pair in before:
                    assert e is before[pair] and e == saved[pair]
                else:
                    assert e == Edge(UNCERTAIN, adj[pair])
            assert g.out == {a: sorted(b for s, b in adj if s == a)
                             for a in {s for s, _ in adj}}
            sides = {c.id: c.sides for c in tree.leaves.values()}
            g.refresh_uncertain_weights(tree.leaves)
            fresh = ReachGraph(g.C_u, g.beta_u, g.p_prior)
            full_rebuild(fresh, adj)
            for pair, e in g.edges.items():
                fresh.edges[pair].status = e.status
            full_refresh(fresh, sides)
            assert {p: e.weight for p, e in g.edges.items() if e.status == UNCERTAIN} == \
                {p: e.weight for p, e in fresh.edges.items() if e.status == UNCERTAIN}
            assert g.total_entropy() == fresh.total_entropy()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("driver", ["split", "segment"])
def test_incremental_graph_matches_the_full_build(dim, driver):
    """After every random split (or every refinement along a random
    segment), with random marks in between, the graph that follows the
    partition equals a full build from its adjacency: the same pairs, the
    very same Edge of every surviving pair, ascending out-lists, bit-equal
    uncertain weights and the same total entropy. Replaying its change-only
    snapshots gives the whole graph at every step."""
    rng = np.random.default_rng(60 + dim)
    lo, hi = np.zeros(dim), np.full(dim, 8.0)
    tree = PartitionTree(lo, hi, np.full(dim, 0.5 if dim == 2 else 1.0))
    g = ReachGraph(C_u=float(rng.uniform(1, 100)), beta_u=float(rng.uniform(0, 2)),
                   p_prior=float(rng.uniform(0.05, 0.95)))
    g.rebuild(tree)
    snaps, fulls = [], []
    for _ in range(40 if driver == "split" else 6):
        before = dict(g.edges)
        saved = {pair: copy.copy(e) for pair, e in before.items()}
        if driver == "split":
            cands = sorted((c for c in tree.leaves.values() if tree.splittable_axes(c)),
                           key=lambda c: c.id)
            tree.split(cands[int(rng.integers(len(cands)))])
        else:
            tree.refine_segment(rng.uniform(lo, hi), rng.uniform(lo, hi))
        g.rebuild(tree)
        adj = adjacency(tree)
        fresh = ReachGraph(g.C_u, g.beta_u, g.p_prior)
        full_rebuild(fresh, adj)
        assert g.edges.keys() == fresh.edges.keys()
        for pair, e in g.edges.items():
            if pair in before:
                assert e is before[pair] and e == saved[pair]
            else:
                assert e == Edge(UNCERTAIN, adj[pair])
        # adjacency lists each source's targets in ascending order
        assert g.out == fresh.out
        for (a, b), e in g.edges.items():
            r = rng.random()
            if e.status == UNCERTAIN and r < 0.1:
                g.mark_impossible(a, b)
            elif e.status == UNCERTAIN and r < 0.2:
                g.mark_certain(a, b, _cert(float(rng.uniform(0.1, 5))))
        g.refresh_uncertain_weights(tree.leaves)
        for pair, e in g.edges.items():
            fresh.edges[pair].status = e.status
        full_refresh(fresh, {c.id: c.sides for c in tree.leaves.values()})
        assert {p: e.weight for p, e in g.edges.items() if e.status == UNCERTAIN} == \
            {p: e.weight for p, e in fresh.edges.items() if e.status == UNCERTAIN}
        assert g.total_entropy() == fresh.total_entropy()
        fulls.append(full_snapshot(g))
        snaps.append(g.snapshot())
    assert len(snaps[-1]["edges"]) < len(g.edges)
    assert any(s["removed"] for s in snaps)
    assert list(replay(snaps)) == fulls


def test_snapshots_list_what_changed_since_the_last_one():
    """The first snapshot lists every edge; the next lists only the edges
    marked or added since, and the pairs of a split cell as removed, but
    not a pair added and dropped in between."""
    tree = PartitionTree([0.0, 0.0], [4.0, 1.0], [0.5, 1.0])
    west, east = tree.split(tree.root)
    g = ReachGraph(C_u=1.0, beta_u=0.0)
    g.rebuild(tree)
    g.refresh_uncertain_weights(tree.leaves)
    first = g.snapshot()
    assert [(e["source"], e["target"]) for e in first["edges"]] == \
        [(west.id, east.id), (east.id, west.id)]
    assert first["removed"] == []
    assert g.snapshot()["edges"] == []
    g.mark_certain(west.id, east.id, _cert(1.0))
    a, b = tree.split(east)
    g.rebuild(tree)
    c, d = tree.split(b)
    g.rebuild(tree)
    g.refresh_uncertain_weights(tree.leaves)
    snap = g.snapshot()
    assert snap["removed"] == [[west.id, east.id], [east.id, west.id]]
    assert [(e["source"], e["target"]) for e in snap["edges"]] == [
        (west.id, a.id), (a.id, west.id), (a.id, c.id), (c.id, a.id), (c.id, d.id),
        (d.id, c.id)]
    assert snap["tally"] == {CERTAIN: 0, IMPOSSIBLE: 0, UNCERTAIN: 6}

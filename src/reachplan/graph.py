"""Reachability graph over partition cells, entropy weights, shortest path.

Nodes are leaf cell ids. A directed edge (a, b) exists per facet that
two adjacent cells share, is known by a's exit facet toward b, and
carries one of three statuses: certain (transition certified, weight =
the certificate's crossing time), impossible (refuted, excluded from
search), or uncertain (weight trades traversal cost against the expected
information gained by exploring it). Every uncertain edge is reachable
with the graph's prior probability ``p_prior``. An edge records only
what nothing else owns: the pair is its key, and a certain edge's bound
and kind are its certificate's. Snapshots record only what changed since
the previous one; ``replay`` turns them back into whole graphs.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .reach import ReachCertificate

CERTAIN = "certain"
IMPOSSIBLE = "impossible"
UNCERTAIN = "uncertain"
# an edge that failed this often is left out of planning
MAX_EDGE_FAILURES = 3


def edge_entropy(p: float) -> float:
    """Binary Shannon entropy in nats, with 0·ln 0 = 0."""
    if p < 0.0 or p > 1.0:
        raise ValueError("probability outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


def uncertain_weight(C_u: float, l_u: float, beta_u: float, eig: float) -> float:
    if C_u <= 0 or l_u <= 0 or beta_u < 0 or eig < 0:
        raise ValueError("invalid uncertain-weight parameters")
    return C_u * l_u / (1.0 + beta_u * eig)


@dataclass
class Edge:
    """What is known about one transition and recorded nowhere else, kept
    while both cells live. Its cells are its key in ``ReachGraph.edges``.

    ``facet`` is the id of the source cell's exit facet toward the target
    (``geometry.facet_id``). ``cert`` drives the transition and, on a
    certain edge, holds its time bound and kind; it may exist while the
    edge stays uncertain, when no crossing time could be pinned on it.
    ``failures`` counts executions that did not end in the target cell;
    the planner sets it to MAX_EDGE_FAILURES when the certificate yields
    no controller, and ``shortest_path`` leaves out an edge with that
    many.
    ``pred_sources`` holds the ids of the identified cells whose models
    were already tried for a predictive verdict on this edge (a tuple: an
    empty set per edge would cost about 0.2 MB of peak memory on a
    250-leaf partition).
    """
    status: str
    facet: int
    weight: float = 0.0
    cert: Optional[ReachCertificate] = None
    failures: int = 0
    pred_sources: tuple = ()


class ReachGraph:
    """Directed graph over the leaves of a partition, one edge per ordered
    pair of cells that share a facet, so every edge (a, b) has its reverse
    (b, a). It follows the partition split by split (``rebuild``) and
    keeps, for ``refresh_uncertain_weights`` and ``snapshot``, the edges
    whose weight or record may have changed since their last call."""

    def __init__(self, C_u: float, beta_u: float, p_prior: float = 0.5):
        self.C_u = C_u
        self.beta_u = beta_u
        self.p_prior = p_prior
        self.edges: dict = {}          # (src, dst) -> Edge
        self.out: dict = {}            # src -> ascending list of dst
        # pairs added, changed or removed since the last snapshot -> whether
        # the pair was in the graph at that snapshot
        self._changed: dict = {}
        self._unweighed: set = set()   # pairs added since the last refresh
        # cells whose uncertain out-set changed since the last refresh
        self._stale: set = set()

    def rebuild(self, tree):
        """Follow the splits of ``tree`` since the last rebuild (its
        ``take_changes``). Edges of removed leaves are dropped and the
        facet pairs of created leaves start uncertain; every other Edge is
        kept as it is, with everything learned about it. Only the out-lists
        of created leaves and of their neighbours are sorted again. Weights
        of new edges are left to refresh_uncertain_weights."""
        removed, created = tree.take_changes()
        relinked = set()
        for a in removed:
            for b in self.out.pop(a, ()):
                self._drop(a, b)
                if b not in removed:
                    self._drop(b, a)
                    relinked.add(b)
        for a in created:
            nbrs = tree.neighbours[a]
            for b, fid in nbrs.items():
                self._add(a, b, fid)
                if b not in created:
                    self._add(b, a, fid ^ 1)
                    relinked.add(b)
            self.out[a] = sorted(nbrs)
        for b in relinked:
            self.out[b] = sorted(tree.neighbours[b])
        self._stale |= relinked

    def _add(self, a: int, b: int, facet: int):
        self.edges[(a, b)] = Edge(UNCERTAIN, facet)
        self._unweighed.add((a, b))
        self._changed[(a, b)] = False

    def _drop(self, a: int, b: int):
        del self.edges[(a, b)]
        self._unweighed.discard((a, b))
        if not self._changed.setdefault((a, b), True):
            del self._changed[(a, b)]      # added and dropped between snapshots

    def mark_certain(self, a: int, b: int, cert: ReachCertificate):
        """Certify (a, b) with ``cert``, which carries a time bound. The
        search weight is its typical crossing time, capped by the
        guaranteed worst case, so that a conservatively bounded edge is not
        priced out of the plan."""
        e = self.edges[(a, b)]
        if e.status == IMPOSSIBLE:
            raise RuntimeError(f"edge ({a},{b}) flips impossible -> certain")
        e.status = CERTAIN
        e.cert = cert
        e.weight = min(cert.t_est, cert.bound.T0)
        self._changed.setdefault((a, b), True)
        self._stale.add(a)

    def mark_impossible(self, a: int, b: int):
        e = self.edges[(a, b)]
        if e.status == CERTAIN:
            raise RuntimeError(f"edge ({a},{b}) flips certain -> impossible")
        e.status = IMPOSSIBLE
        e.weight = 0.0
        self._changed.setdefault((a, b), True)
        self._stale.add(a)

    def _uncertain_out_entropy(self, b: int) -> float:
        h = edge_entropy(self.p_prior)
        total = 0.0
        for dst in self.out.get(b, ()):
            if self.edges[(b, dst)].status == UNCERTAIN:
                total += h
        return total

    def refresh_uncertain_weights(self, leaves: dict):
        """Recompute the uncertain edge weights that may have changed since
        the last refresh: those of new edges, and those of the edges into a
        cell whose uncertain out-set changed (a split next to it, or a mark
        on one of its out-edges). l_u is the source cell's side along the
        transition axis, from ``leaves`` (id -> Box). Each target's
        out-entropy is summed once per refresh."""
        pairs = self._unweighed
        for b in self._stale:
            pairs.update((a, b) for a in self.out.get(b, ()))
        self._unweighed, self._stale = set(), set()
        entropy: dict = {}
        for a, b in pairs:
            e = self.edges.get((a, b))
            if e is None or e.status != UNCERTAIN:
                continue
            h = entropy.get(b)
            if h is None:
                h = entropy[b] = self._uncertain_out_entropy(b)
            cell = leaves[a]
            axis = e.facet // 2
            l_u = cell.hi_list[axis] - cell.lo_list[axis]
            # the expected information gain: p_prior times what resolving
            # the target cell's uncertain out-edges would teach us
            w = uncertain_weight(self.C_u, l_u, self.beta_u, self.p_prior * h)
            if w != e.weight:
                e.weight = w
                self._changed.setdefault((a, b), True)

    def total_entropy(self) -> float:
        h = edge_entropy(self.p_prior)
        return sum(h for e in self.edges.values() if e.status == UNCERTAIN)

    def status_tally(self) -> dict:
        tally = {CERTAIN: 0, IMPOSSIBLE: 0, UNCERTAIN: 0}
        for e in self.edges.values():
            tally[e.status] += 1
        return tally

    def shortest_path(self, src: int, dst: int, blocked=frozenset()):
        """Dijkstra over the edges that are neither impossible nor failed
        MAX_EDGE_FAILURES times; ties broken by the lexicographically
        smallest node-id sequence. Edges in ``blocked`` are skipped for
        this query only. Returns (path, cost) or (None, inf)."""
        best: dict = {}
        heap = [(0.0, (src,))]
        while heap:
            d, path = heapq.heappop(heap)
            node = path[-1]
            if node in best and best[node] <= (d, path):
                continue
            best[node] = (d, path)
            if node == dst:
                return list(path), d
            for nxt in self.out.get(node, ()):
                if (node, nxt) in blocked:
                    continue
                e = self.edges[(node, nxt)]
                if e.status == IMPOSSIBLE or e.failures >= MAX_EDGE_FAILURES:
                    continue
                nd = d + e.weight
                cand = (nd, path + (nxt,))
                if nxt not in best or cand < best[nxt]:
                    heapq.heappush(heap, cand)
        return None, math.inf

    def snapshot(self) -> dict:
        """The graph as a change from the previous snapshot: ``edges`` holds
        the records of the edges added or changed since then and
        ``removed`` the pairs dropped since then, both in ascending pair
        order; the first snapshot lists every edge. ``tally`` and
        ``entropy`` are of the whole graph. ``replay`` rebuilds each
        snapshot's full edge list."""
        changed, self._changed = self._changed, {}
        edges, removed = [], []
        for pair in sorted(changed):
            e = self.edges.get(pair)
            if e is None:
                removed.append(list(pair))
            else:
                cert = e.cert if e.status == CERTAIN else None
                edges.append({"source": pair[0], "target": pair[1], "status": e.status,
                              "weight": e.weight,
                              "p_e": self.p_prior if e.status == UNCERTAIN else None,
                              "t_bound": cert and cert.bound.T0,
                              "cert_kind": cert and cert.kind})
        return {
            "edges": edges,
            "removed": removed,
            "tally": self.status_tally(),
            "entropy": self.total_entropy(),
        }


def replay(steps):
    """Yield the full form of each snapshot in ``steps`` (the snapshots of
    one mission in order, as ``snapshot`` returned them or as read back
    from ``graph_step_<k>.json``): the same dict with ``edges`` holding
    every edge of the graph at that step in ascending pair order, and no
    ``removed``."""
    edges: dict = {}
    for step in steps:
        for a, b in step["removed"]:
            del edges[(a, b)]
        for e in step["edges"]:
            edges[(e["source"], e["target"])] = e
        full = {k: v for k, v in step.items() if k != "removed"}
        full["edges"] = [edges[pair] for pair in sorted(edges)]
        yield full

"""Reachability graph over partition cells, entropy weights, shortest path.

Nodes are leaf cell ids. A directed edge (a, b) exists per shared facet
rectangle and carries one of three statuses: certain (transition
certified, weight = exit-time bound), impossible (refuted, excluded from
search), or uncertain (weight trades traversal cost against the expected
information gained by exploring it). Every uncertain edge is reachable
with the graph's prior probability ``p_prior``.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .partition import SharedFacet

if TYPE_CHECKING:
    from .reach import ReachCertificate

CERTAIN = "certain"
IMPOSSIBLE = "impossible"
UNCERTAIN = "uncertain"


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
    """Everything known about one transition, kept while both cells live.

    ``cert`` drives the transition; it may exist while the edge stays
    uncertain, when no crossing time could be pinned on it. ``soft`` marks
    an impossible status that comes from a failed sufficient-only
    certification rather than a refutation. ``failures`` counts
    executions that did not end in the target cell; the planner sets it
    to its limit when the certificate yields no controller.
    ``pred_sources`` holds the ids of the identified cells whose models
    were already tried for a predictive verdict on this edge (a tuple: an
    empty set per edge would cost about 0.2 MB of peak memory on a
    250-leaf partition).
    """
    src: int
    dst: int
    status: str
    shared: SharedFacet
    weight: float = 0.0
    t_bound: Optional[float] = None
    cert_kind: Optional[str] = None
    cert: Optional[ReachCertificate] = None
    soft: bool = False
    failures: int = 0
    pred_sources: tuple = ()


class ReachGraph:
    def __init__(self, C_u: float, beta_u: float, p_prior: float = 0.5):
        self.C_u = C_u
        self.beta_u = beta_u
        self.p_prior = p_prior
        self.edges: dict = {}          # (src, dst) -> Edge
        self.out: dict = {}            # src -> list of dst

    def rebuild(self, adjacency: dict):
        """Follow a repartitioning. A pair survives only if neither cell
        split, so its facet and everything learned about it still hold and
        its Edge is kept as it is; a new pair starts uncertain and every
        other edge is dropped. Uncertain weights are left to
        refresh_uncertain_weights. Out-lists keep the order of
        ``adjacency``, which partition.adjacency gives in ascending target
        order per source."""
        old = self.edges
        self.edges = {}
        self.out = {}
        for (a, b), sf in adjacency.items():
            e = old.get((a, b))
            self.edges[(a, b)] = e if e is not None else Edge(a, b, UNCERTAIN, sf)
            self.out.setdefault(a, []).append(b)

    def mark_certain(self, a: int, b: int, t_bound: float, kind: str,
                     t_est: Optional[float] = None):
        """t_bound is the guaranteed worst-case crossing time; t_est, when
        given, is a typical-crossing estimate used as the search weight so
        that a conservatively bounded edge is not priced out of the plan."""
        e = self.edges[(a, b)]
        if e.status == IMPOSSIBLE:
            raise RuntimeError(f"edge ({a},{b}) flips impossible -> certain")
        e.status = CERTAIN
        e.weight = t_bound if t_est is None else min(t_est, t_bound)
        e.t_bound = t_bound
        e.cert_kind = kind

    def mark_impossible(self, a: int, b: int):
        e = self.edges[(a, b)]
        if e.status == CERTAIN:
            raise RuntimeError(f"edge ({a},{b}) flips certain -> impossible")
        e.status = IMPOSSIBLE
        e.weight = 0.0

    def expected_info_gain(self, a: int, b: int) -> float:
        """p_prior times the total entropy of the target node's uncertain
        outgoing edges (what resolving the target cell would teach us)."""
        return self.p_prior * self._uncertain_out_entropy(b)

    def _uncertain_out_entropy(self, b: int) -> float:
        h = edge_entropy(self.p_prior)
        total = 0.0
        for dst in self.out.get(b, ()):
            if self.edges[(b, dst)].status == UNCERTAIN:
                total += h
        return total

    def refresh_uncertain_weights(self, cell_sides: dict):
        """Recompute every uncertain edge weight; l_u is the source cell's
        side length along the transition axis. Each target's out-entropy
        is summed once per refresh."""
        entropy: dict = {}
        for (a, b), e in self.edges.items():
            if e.status != UNCERTAIN:
                continue
            h = entropy.get(b)
            if h is None:
                h = entropy[b] = self._uncertain_out_entropy(b)
            l_u = float(cell_sides[a][e.shared.axis])
            e.weight = uncertain_weight(self.C_u, l_u, self.beta_u, self.p_prior * h)

    def total_entropy(self) -> float:
        h = edge_entropy(self.p_prior)
        return sum(h for e in self.edges.values() if e.status == UNCERTAIN)

    def status_tally(self) -> dict:
        tally = {CERTAIN: 0, IMPOSSIBLE: 0, UNCERTAIN: 0}
        for e in self.edges.values():
            tally[e.status] += 1
        return tally

    def shortest_path(self, src: int, dst: int, blocked=frozenset()):
        """Dijkstra over non-impossible edges; ties broken by the
        lexicographically smallest node-id sequence. Edges in ``blocked``
        are skipped for this query only. Returns (path, cost) or
        (None, inf)."""
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
                if e.status == IMPOSSIBLE:
                    continue
                nd = d + e.weight
                cand = (nd, path + (nxt,))
                if nxt not in best or cand < best[nxt]:
                    heapq.heappush(heap, cand)
        return None, math.inf

    def snapshot(self) -> dict:
        return {
            "edges": [
                {"source": a, "target": b, "status": e.status, "weight": e.weight,
                 "p_e": self.p_prior if e.status == UNCERTAIN else None,
                 "t_bound": e.t_bound, "cert_kind": e.cert_kind}
                for (a, b), e in sorted(self.edges.items())
            ],
            "tally": self.status_tally(),
            "entropy": self.total_entropy(),
        }

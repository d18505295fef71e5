"""Whole-graph reference versions of the reachability graph's upkeep.

``ReachGraph`` follows the partition split by split and re-weights and
reports only what changed. These functions redo the work over the whole
graph, so tests can compare the two. ``FixedGraph`` hands a hand-made
adjacency to ``ReachGraph.rebuild``.
"""
from reachplan.graph import CERTAIN, UNCERTAIN, Edge, uncertain_weight


class FixedGraph:
    """A fixed adjacency {(a, b): id of a's facet toward b} in the form
    that ``ReachGraph.rebuild`` reads a partition in: every cell is created
    on the first rebuild and nothing changes after. Unlike a partition's,
    the adjacency need not be symmetric."""

    def __init__(self, adjacency: dict):
        self.neighbours: dict = {}
        for (a, b), fid in adjacency.items():
            self.neighbours.setdefault(a, {})[b] = fid
            self.neighbours.setdefault(b, {})
        self._created = set(self.neighbours)

    def take_changes(self) -> tuple:
        created, self._created = self._created, set()
        return set(), created


def full_rebuild(g, adjacency: dict):
    """Rebuild ``g`` from a whole adjacency map: a pair keeps its Edge if
    ``g`` had it, a new pair starts uncertain, and every other edge is
    dropped. Out-lists follow the order of ``adjacency``."""
    old = g.edges
    g.edges = {}
    g.out = {}
    for (a, b), fid in adjacency.items():
        e = old.get((a, b))
        g.edges[(a, b)] = e if e is not None else Edge(UNCERTAIN, fid)
        g.out.setdefault(a, []).append(b)


def full_refresh(g, cell_sides: dict):
    """Recompute every uncertain edge weight of ``g``; l_u is the source
    cell's side length along the transition axis."""
    entropy: dict = {}
    for (a, b), e in g.edges.items():
        if e.status != UNCERTAIN:
            continue
        h = entropy.get(b)
        if h is None:
            h = entropy[b] = g._uncertain_out_entropy(b)
        l_u = float(cell_sides[a][e.facet // 2])
        e.weight = uncertain_weight(g.C_u, l_u, g.beta_u, g.p_prior * h)


def full_snapshot(g) -> dict:
    """Every edge of ``g`` in ascending pair order, with the tally and the
    entropy: what ``replay`` must give back at each step. A certain edge's
    bound and kind are read from its certificate."""
    edges = []
    for (a, b), e in sorted(g.edges.items()):
        certain = e.status == CERTAIN
        edges.append({"source": a, "target": b, "status": e.status, "weight": e.weight,
                      "p_e": g.p_prior if e.status == UNCERTAIN else None,
                      "t_bound": e.cert.bound.T0 if certain else None,
                      "cert_kind": e.cert.kind if certain else None})
    return {
        "edges": edges,
        "tally": g.status_tally(),
        "entropy": g.total_entropy(),
    }

"""Exact computation of the maximum induced subgraph in a hereditary class.

Branch and bound over candidate vertex sets represented as bitmasks: start
from the full set; whenever the candidate violates the class, extract a
violating substructure and branch on deleting one of its vertices. Every
graph in the class is a subset of the candidate missing at least one vertex
of any violating substructure, so the search is exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import ForestClass, Graph
from .partition import ABC_CAPS, Partition

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class OracleResult:
    """Optimum (or best lower bound when inexact) with a witness set."""

    alpha: int
    witness: frozenset[int]
    nodes_explored: int
    exact: bool = True


def alpha_exact(g: Graph, cls: ForestClass, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Maximum order of an induced subgraph of g belonging to cls.

    Explores at most `budget` search nodes; if the budget runs out the
    result carries the best valid set found and exact=False.
    """
    return _Search(g, cls.kind, k=cls.k).run(budget)


def alpha_exact_partitioned(g: Graph, p: Partition, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Constrained optimum: linear forest with ABC degree caps, or star
    forest with the AB edge condition."""
    p.validate_for(g)
    kind = "abc" if p.mode == "ABC" else "ab"
    return _Search(g, kind, labels=[p.part(v) for v in g.vertices]).run(budget)


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Search:
    def __init__(self, g: Graph, kind: str, k: int | None = None, labels=None):
        self.vs = list(g.vertices)
        index = {v: i for i, v in enumerate(self.vs)}
        self.n = len(self.vs)
        adj = [0] * self.n
        for u, w in g.edges():
            adj[index[u]] |= 1 << index[w]
            adj[index[w]] |= 1 << index[u]
        self.adj = adj
        self.kind = kind
        self.k = k
        self.labels = labels
        # Per-vertex degree caps of the classes that bound degrees.
        self.caps = None
        if kind == "abc":
            self.caps = [ABC_CAPS[p] for p in labels]
        elif kind == "linear":
            self.caps = [2] * self.n
        elif k is not None:
            self.caps = [k] * self.n

    def run(self, budget: int) -> OracleResult:
        self.budget = budget
        self.nodes = 0
        self.stopped = False
        self.seen: set[int] = set()
        full = (1 << self.n) - 1
        incumbent = self._greedy_peel(full)
        self.best_mask = incumbent
        self.best_size = incumbent.bit_count()
        self._visit(full)
        witness = frozenset(self.vs[i] for i in _iter_bits(self.best_mask))
        return OracleResult(self.best_size, witness, self.nodes, exact=not self.stopped)

    def _visit(self, cand: int) -> None:
        if self.stopped or cand in self.seen:
            return
        self.seen.add(cand)
        if cand.bit_count() <= self.best_size:
            return
        if self.nodes >= self.budget:
            self.stopped = True
            return
        self.nodes += 1
        bad = self._violation(cand)
        if not bad:
            self.best_size = cand.bit_count()
            self.best_mask = cand
            return
        for i in _iter_bits(bad):
            self._visit(cand & ~(1 << i))

    def _greedy_peel(self, cand: int) -> int:
        """Initial incumbent: repeatedly delete the busiest vertex of a violation."""
        while True:
            bad = self._violation(cand)
            if not bad:
                return cand
            worst, worst_deg = -1, -1
            for i in _iter_bits(bad):
                d = (self.adj[i] & cand).bit_count()
                if d > worst_deg:
                    worst, worst_deg = i, d
            cand &= ~(1 << worst)

    # Violation finders return a bitmask W such that every valid subset of the
    # candidate misses at least one vertex of W, or 0 if the candidate is valid.

    def _violation(self, cand: int) -> int:
        if self.kind in ("linear", "abc"):
            return self._degree_violation(cand) or self._shortest_cycle(cand)
        if self.kind == "caterpillar":
            if self.k is not None:
                bad = self._degree_violation(cand)
                if bad:
                    return bad
            return self._spine_violation(cand) or self._shortest_cycle(cand)
        if self.kind == "star":
            return self._star_violation(cand)
        if self.kind == "ab":
            return self._ab_violation(cand)
        raise ValueError(self.kind)  # pragma: no cover

    def _degree_violation(self, cand: int) -> int:
        adj, caps = self.adj, self.caps
        for i in _iter_bits(cand):
            nbrs = adj[i] & cand
            if nbrs.bit_count() > caps[i]:
                return (1 << i) | nbrs
        return 0

    def _star_violation(self, cand: int) -> int:
        # An adjacent pair of degree->=2 vertices (plus one extra neighbor of
        # each) witnesses any failure: cycles force such a pair too.
        for i in _iter_bits(cand):
            nbrs_i = self.adj[i] & cand
            if nbrs_i.bit_count() < 2:
                continue
            for j in _iter_bits(nbrs_i):
                nbrs_j = self.adj[j] & cand
                if nbrs_j.bit_count() < 2:
                    continue
                extra_i = nbrs_i & ~(1 << j)
                extra_j = nbrs_j & ~(1 << i)
                return (1 << i) | (1 << j) | (extra_i & -extra_i) | (extra_j & -extra_j)
        return 0

    def _ab_violation(self, cand: int) -> int:
        for i in _iter_bits(cand):
            if self.labels[i] != "B":
                continue
            for j in _iter_bits(self.adj[i] & cand):
                if self.labels[j] == "B":
                    return (1 << i) | (1 << j)
                if (self.adj[j] & cand).bit_count() >= 2:
                    return (1 << i) | (1 << j) | (self.adj[j] & cand)
        return self._star_violation(cand)

    def _spine_violation(self, cand: int) -> int:
        # A vertex with three non-leaf neighbors (each witnessed by a second
        # neighbor) can never sit inside a caterpillar forest.
        deg = {}
        for i in _iter_bits(cand):
            deg[i] = (self.adj[i] & cand).bit_count()
        for i in _iter_bits(cand):
            heavy = [j for j in _iter_bits(self.adj[i] & cand) if deg[j] >= 2]
            if len(heavy) < 3:
                continue
            bad = 1 << i
            for j in heavy[:3]:
                bad |= 1 << j
                witness = (self.adj[j] & cand) & ~(1 << i)
                bad |= witness & -witness
            return bad
        return 0

    def _shortest_cycle(self, cand: int) -> int:
        best_mask = 0
        best_len = None
        for root in _iter_bits(cand):
            found = self._bfs_cycle(cand, root)
            if found:
                length = found.bit_count()
                if best_len is None or length < best_len:
                    best_mask, best_len = found, length
                if best_len == 3:
                    break
        return best_mask

    def _bfs_cycle(self, cand: int, root: int) -> int:
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in _iter_bits(self.adj[u] & cand):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u]:
                        return self._extract_cycle(u, w, parent)
            frontier = nxt
        return 0

    @staticmethod
    def _extract_cycle(u: int, w: int, parent: dict[int, int]) -> int:
        chain = []
        x = u
        while x != -1:
            chain.append(x)
            x = parent[x]
        on_chain = set(chain)
        mask = 0
        x = w
        while x not in on_chain:
            mask |= 1 << x
            x = parent[x]
        for y in chain:
            mask |= 1 << y
            if y == x:
                break
        return mask

"""Exact computation of the maximum induced subgraph in a hereditary class.

Bounded search tree over candidate vertex sets represented as bitmasks.
Each search node is a triple (cand, kept, start): cand is the set still
allowed, kept the vertices this branch has decided to keep for good, start
the vertex at which the node's violation scan begins. If cand violates the
class, a violation finder returns a set W = {w_1 < ... < w_r} of which
every valid subset of cand misses at least one vertex. Child i deletes w_i
and adds w_1 ... w_{i-1} to kept (hitting-set branching), so a valid set
is reached through exactly one child: the one deleting the first vertex of
W it misses. A violation lying entirely inside kept has no children, and
since no subset is reached twice the search needs no memo. Nodes wait on
an explicit stack and are popped in depth-first order, the children of a
node in the bit order of W.

Resume invariant: `_CHAINS` names each class's scans in the order a node
runs them. Every scan maps (cand, start) to (W, anchor). The degree, B (of
ab) and spine scans walk vertices in index order from start and stop at the
first one that starts a violation, their anchor. Whether a vertex starts
one depends only on degrees, neighbourhoods and triangles inside cand,
which deleting vertices only shrinks, so no vertex below the anchor starts
a violation in any descendant. A node's anchor numbers scan i's anchor a as
i * n + a, and a child resumes the chain there: it skips every scan before
i and starts scan i at a, so it finds the same W as a scan from vertex 0.
No class here holds a triangle, so W is one through the anchor where a scan
sees it, for 3 children: the degree scan's at a cap of 2 or more (else the
centre and all its neighbours), the spine scan's through a spine neighbour
met before its W is full (else a spider, or for star a P4).
The cycle check comes last and does not resume: it floods cand once and
reads each component's one cycle, if any, off the degrees inside cand,
reporting anchor 0 whenever it finds a cycle.

Cuts: every class here is a forest, so a valid S of best + 1 vertices has
e(S) <= best. Every row runs the edge count, and the dead children where
W comes from the degree scan; rows differ only in their scans, caps and
spine limit. No cut drops a set larger than best, so none changes the
incumbent.

- Edge count: each stack entry carries e(cand), less each deleted vertex's
  degree in cand. The r = |cand| - best - 1 vertices of cand outside S meet
  at most r * Delta of its edges (Delta: the maximum degree), so a node
  with e(cand) - r * Delta > best is skipped uncounted; a valid cand larger
  than best has at most |cand| - 1 edges and never trips it: it runs first.
  A child deleting a vertex of degree d in cand trips it iff d < e(cand) -
  (|cand| - best - 2) * Delta - best, so no such child is pushed; popped, a
  child is tested again, as best may have grown. Raising best by 1 adds
  Delta to the left side and 1 to the right, so a child that trips it when
  pushed trips it at every pop.
- Dead children (W from the degree scan: a centre over its cap and its
  neighbours): no child is pushed whose kept set holds the centre and more
  than its cap of them, since no valid set lies below it. A triangle W has
  no such child: its |W| - cap - 2 is below 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .check import ForestClass
from .graph import Graph
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
    p.validate_for(g.vertices)
    kind = "abc" if p.mode == "ABC" else "ab"
    return _Search(g, kind, labels=[p.part(v) for v in g.vertices]).run(budget)


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Each class's scans in the order a node runs them (see the module docstring).
_CHAINS = {
    "linear": ("_degree_scan", "_shortest_cycle"),
    "abc": ("_degree_scan", "_shortest_cycle"),
    "caterpillar": ("_spine_scan", "_shortest_cycle"),
    "k-caterpillar": ("_degree_scan", "_spine_scan", "_shortest_cycle"),
    "star": ("_spine_scan",),
    "ab": ("_ab_violation", "_spine_scan"),
}


class _Search:
    def __init__(self, g: Graph, kind: str, k: int | None = None, labels=None):
        self.vs = list(g.vertices)
        self.n = len(self.vs)
        self.adj = [sum(1 << j for j in js) for js in g.position_sets()]
        self.labels = labels
        # Per-vertex degree caps, read only by the degree scan.
        self.caps = [ABC_CAPS[p] for p in labels] if kind == "abc" else [k or 2] * self.n
        self.limit = 0 if kind in ("star", "ab") else 2  # spine neighbours per spine vertex
        # A caterpillar forest of maximum degree 2 is a linear forest.
        key = "linear" if k == 2 else "k-caterpillar" if k is not None else kind
        self._chain = [getattr(self, name) for name in _CHAINS[key]]

    def run(self, budget: int) -> OracleResult:
        n, adj = self.n, self.adj
        full = (1 << n) - 1
        best_mask = self._greedy_peel(full)
        best_size = best_mask.bit_count()
        first, walk = self._chain[0], self._walk
        centre_end = n if first == self._degree_scan else 0  # anchors below it are centres
        top = max(map(int.bit_count, adj), default=0)  # the maximum degree
        nodes = 0
        stopped = False
        stack = [(full, 0, 0, sum(map(int.bit_count, adj)) // 2)]  # and e(cand)
        pop, push = stack.pop, stack.append
        while stack:
            cand, kept, start, edges = pop()
            size = cand.bit_count()
            if size <= best_size:
                continue
            if edges - (size - best_size - 1) * top > best_size:
                continue  # too many edges for a forest larger than best
            if nodes >= budget:  # after both skips: a search left only skipped entries is exact
                stopped = True
                break
            nodes += 1
            bad, anchor = first(cand, start)
            if not bad:
                bad, anchor = walk(cand, start if start >= n else n)
                if not bad:
                    best_size, best_mask = size, cand
                    continue
            if size - 1 <= best_size:
                continue  # every child would be popped and skipped uncounted
            # Child i deletes w_i and keeps the free w_1 ... w_{i-1}. Pushed
            # from the highest bit down, the children pop in bit order; a
            # violation inside kept leaves no free bit and so no child.
            free = bad & ~kept
            if anchor < centre_end:  # the top d - cap - 1 children over floor are dead
                floor = 1 if kept >> anchor & 1 else 2 << anchor
                dead = bad.bit_count() - self.caps[anchor] - 2
                while dead > 0 and free >= floor:
                    free ^= 1 << (free.bit_length() - 1)
                    dead -= 1
            need = edges - (size - best_size - 2) * top - best_size
            while free:
                i = free.bit_length() - 1
                high = 1 << i
                free ^= high
                d = (adj[i] & cand).bit_count()
                if d >= need:
                    push((cand ^ high, kept | free, anchor, edges - d))
        witness = frozenset(self.vs[i] for i in _iter_bits(best_mask))
        return OracleResult(best_size, witness, nodes, exact=not stopped)

    def _greedy_peel(self, cand: int) -> int:
        """Initial incumbent: repeatedly delete the busiest vertex of a
        violation, each walk resuming at the last one's anchor."""
        anchor = 0
        while True:
            bad, anchor = self._walk(cand, anchor)
            if not bad:
                return cand
            worst, worst_deg = -1, -1
            for i in _iter_bits(bad):
                d = (self.adj[i] & cand).bit_count()
                if d > worst_deg:
                    worst, worst_deg = i, d
            cand &= ~(1 << worst)

    def _walk(self, cand: int, start: int) -> tuple[int, int]:
        """(W, anchor) of the chain resumed at anchor start, where anchor
        i * n + a stands for vertex a of scan i."""
        n, chain = self.n, self._chain
        i, start = divmod(start, n or 1)  # an empty graph has only anchor 0
        while i < len(chain):
            bad, anchor = chain[i](cand, start)
            if bad:
                return bad, i * n + anchor
            i += 1
            start = 0
        return 0, i * n

    # Each scan maps (cand, start) to (W, anchor): a bitmask W of which every
    # valid subset of cand misses a vertex, or 0, and the vertex it stopped
    # at, or n. No scan calls another; _CHAINS orders them. They run once per
    # search node, so they walk bitmasks inline (lowest bit first).

    def _degree_scan(self, cand: int, start: int) -> tuple[int, int]:
        # A vertex over its cap with its neighbors, or a triangle through it.
        adj, caps = self.adj, self.caps
        rest = cand >> start << start
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            nbrs = adj[i] & cand
            if nbrs.bit_count() > caps[i]:
                js = nbrs if caps[i] >= 2 else 0  # a cap below 2 leaves W at most 3
                while js:
                    low_j = js & -js
                    js ^= low_j
                    if third := adj[low_j.bit_length() - 1] & nbrs:
                        return low | low_j | (third & -third), i
                return low | nbrs, i
        return 0, self.n

    def _ab_violation(self, cand: int, start: int) -> tuple[int, int]:
        # The B scan: a B vertex with an illegal neighbor.
        adj, labels = self.adj, self.labels
        rest = cand >> start << start
        while rest:
            low_i = rest & -rest
            rest ^= low_i
            i = low_i.bit_length() - 1
            if labels[i] != "B":
                continue
            others = adj[i] & cand
            while others:
                low_j = others & -others
                others ^= low_j
                j = low_j.bit_length() - 1
                if labels[j] == "B":
                    return low_i | low_j, i
                nbrs_j = adj[j] & cand
                if nbrs_j.bit_count() >= 2:
                    return low_i | low_j | nbrs_j, i
        return 0, self.n

    def _spine_scan(self, cand: int, start: int) -> tuple[int, int]:
        # A spine vertex (degree >= 2) on a triangle or with more than limit spine
        # neighbours, each shown by a second neighbour, and for limit 0 its own
        # second one (the star row runs no cycle scan: every cycle holds such a vertex).
        adj, limit, floor = self.adj, self.limit, self.limit or 1
        rest = cand >> start << start
        while rest:
            low_i = rest & -rest
            rest ^= low_i
            i = low_i.bit_length() - 1
            nbrs_i = adj[i] & cand
            if nbrs_i.bit_count() <= floor:
                continue
            others, spine, bad, heavy = cand ^ low_i, nbrs_i, low_i, limit
            while spine:
                low_j = spine & -spine
                spine ^= low_j
                witness = adj[low_j.bit_length() - 1] & others
                if third := witness & nbrs_i:  # a triangle through i
                    return low_i | low_j | (third & -third), i
                if witness:
                    bad |= low_j | (witness & -witness)
                    if not heavy:
                        extra_i = 0 if limit else nbrs_i ^ low_j
                        return bad | (extra_i & -extra_i), i
                    heavy -= 1
        return 0, self.n

    def _shortest_cycle(self, cand: int, start: int) -> tuple[int, int]:
        # The scans before this one leave no vertex with three neighbours of
        # degree >= 2 (linear and abc: the degree scan; caterpillars: the spine
        # scan with limit 2), so a component of cand holds a cycle only if its
        # edges number its vertices, and the cycle is its vertices of degree
        # >= 2. Components are flooded in order of their lowest vertex; only a
        # strictly shorter cycle replaces the best. Not resumable: a deletion
        # can change which cycle is shortest, so every call floods all of cand.
        adj, rest, best_mask, best_len = self.adj, cand, 0, self.n + 1
        while rest and best_len > 3:
            comp = frontier = rest & -rest
            twice_edges = spine = 0
            while frontier:
                low = frontier & -frontier
                nbrs = adj[low.bit_length() - 1] & cand
                frontier ^= low | nbrs & ~comp
                comp |= nbrs
                twice_edges += nbrs.bit_count()
                spine |= low if nbrs.bit_count() > 1 else 0
            rest &= ~comp
            if twice_edges == 2 * comp.bit_count() and spine.bit_count() < best_len:
                best_mask, best_len = spine, spine.bit_count()
        return best_mask, 0 if best_mask else self.n

"""Exact oracle: agreement with naive enumeration, witness families, budget."""

import random
import sys
import tracemalloc
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from forestbound import (
    CATERPILLAR_FOREST,
    LINEAR_FOREST,
    STAR_FOREST,
    ForestClass,
    Graph,
    Partition,
    alpha_exact,
    alpha_exact_partitioned,
)
from forestbound.exact import _CHAINS, OracleResult, _iter_bits, _Search
from forestbound.generate import (
    complete_graph,
    cycle_graph,
    gnp,
    hnk_graph,
    k_prime_graph,
    path_graph,
    random_regular,
)
from forestbound.partition import ABC_CAPS


def naive_alpha(g: Graph, accept) -> int:
    vs = sorted(g.vertices)
    best = 0
    for r in range(len(vs), 0, -1):
        if any(accept(g.induced(s)) for s in combinations(vs, r)):
            return r
    return best


def abc_accept(p: Partition):
    def check(sub: Graph) -> bool:
        if not LINEAR_FOREST.contains(sub):
            return False
        return all(d <= ABC_CAPS[p.part(v)] for v, d in zip(sub.vertices, sub.degrees()))

    return check


def ab_accept(p: Partition):
    def check(sub: Graph) -> bool:
        if not STAR_FOREST.contains(sub):
            return False
        deg = dict(zip(sub.vertices, sub.degrees()))
        for u, v in sub.edges():
            for a, b in ((u, v), (v, u)):
                if p.part(b) == "B" and not (p.part(a) == "A" and deg[a] == 1):
                    return False
        return True

    return check


def test_agreement_with_naive_enumeration():
    rng = random.Random(123)
    for trial in range(200):
        n = rng.randint(1, 7)
        g = gnp(n, rng.choice((0.2, 0.4, 0.6)), 7000 + trial)
        classes = [
            LINEAR_FOREST,
            STAR_FOREST,
            CATERPILLAR_FOREST,
            ForestClass("caterpillar", 2),
            ForestClass("caterpillar", 3),
        ]
        cls = classes[trial % len(classes)]
        accept = cls.contains
        res = alpha_exact(g, cls)
        assert res.exact
        assert res.alpha == naive_alpha(g, accept), (trial, cls)
        assert accept(g.induced(res.witness))
        assert len(res.witness) == res.alpha


def test_partitioned_agreement_with_naive_enumeration():
    rng = random.Random(321)
    for trial in range(120):
        n = rng.randint(1, 7)
        g = gnp(n, 0.4, 8000 + trial)
        if trial % 2 == 0:
            p = Partition({v: rng.choice("ABC") for v in g.vertices}, "ABC")
            accept = abc_accept(p)
        else:
            p = Partition({v: rng.choice("AB") for v in g.vertices}, "AB")
            accept = ab_accept(p)
        res = alpha_exact_partitioned(g, p)
        assert res.exact
        assert res.alpha == naive_alpha(g, accept), trial
        assert accept(g.induced(res.witness))


class TestWitnessFamilies:
    def test_complete_graphs(self):
        for d in range(2, 9):
            for k in (2, 3):
                res = alpha_exact(complete_graph(d + 1), ForestClass("caterpillar", k))
                assert res.exact and res.alpha == 2, (d, k)

    def test_hnk(self):
        for n in (1, 2, 3):
            for k in (2, 3):
                res = alpha_exact(hnk_graph(n, k), ForestClass("caterpillar", k))
                assert res.exact and res.alpha == (k + 1) * n, (n, k)

    def test_kprime(self):
        for n in range(1, 7):
            res = alpha_exact(k_prime_graph(n), STAR_FOREST)
            assert res.exact and res.alpha == n + 1, n

    def test_c5_star(self):
        res = alpha_exact(cycle_graph(5), STAR_FOREST)
        assert res.exact and res.alpha == 3


def test_hereditary_monotonicity_under_deletion():
    rng = random.Random(55)
    for trial in range(40):
        g = gnp(rng.randint(2, 10), 0.35, 9000 + trial)
        cls = (LINEAR_FOREST, STAR_FOREST, ForestClass("caterpillar", 2))[trial % 3]
        base = alpha_exact(g, cls).alpha
        v = rng.choice(g.vertices)
        assert alpha_exact(g.delete_vertices((v,)), cls).alpha <= base


def independent_set_solver(g: Graph) -> int:
    """Direct MIS by recursion on the highest-degree vertex."""
    if g.n == 0:
        return 0
    deg = dict(zip(g.vertices, g.degrees()))
    v = max(g.vertices, key=lambda u: (deg[u], -u))
    if deg[v] == 0:
        return g.n
    without = independent_set_solver(g.delete_vertices((v,)))
    with_v = 1 + independent_set_solver(g.delete_vertices(g.adjacency()[v] | {v}))
    return max(without, with_v)


def test_all_c_partition_equals_independence_number():
    rng = random.Random(77)
    for trial in range(40):
        g = gnp(rng.randint(1, 12), rng.choice((0.2, 0.5)), 9500 + trial)
        p = Partition(dict.fromkeys(g.vertices, "C"), "ABC")
        res = alpha_exact_partitioned(g, p)
        assert res.exact and res.alpha == independent_set_solver(g), trial
        # the all-C optimum dominates the degree-sequence independence bound
        degree_bound = sum(F(1, d + 1) for d in g.degrees())
        assert F(res.alpha) >= degree_bound


def test_budget_exhaustion_is_flagged_not_raised():
    g = gnp(14, 0.3, 1)
    res = alpha_exact(g, LINEAR_FOREST, budget=5)
    assert not res.exact
    assert res.nodes_explored <= 5
    # the witness is still a valid linear forest and a true lower bound
    assert LINEAR_FOREST.contains(g.induced(res.witness))
    full = alpha_exact(g, LINEAR_FOREST)
    assert full.exact and res.alpha <= full.alpha


def test_witness_is_optimal_no_larger_set_exists():
    g = gnp(7, 0.5, 2)
    res = alpha_exact(g, LINEAR_FOREST)
    for subset in combinations(sorted(g.vertices), res.alpha + 1):
        assert not LINEAR_FOREST.contains(g.induced(subset))


class MemoSearch(_Search):
    """The search that hitting-set branching replaced, kept as a reference:
    branch on deleting each vertex of a violation, skip candidate sets seen
    before, one recursion level per deleted vertex."""

    def run(self, budget: int) -> OracleResult:
        self.budget = budget
        self.nodes = 0
        self.stopped = False
        self.seen: set[int] = set()
        full = (1 << self.n) - 1
        self.best_mask = self._greedy_peel(full)
        self.best_size = self.best_mask.bit_count()
        self._visit(full)
        witness = frozenset(v for i, v in enumerate(self.vs) if self.best_mask >> i & 1)
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
        for i in range(self.n):
            if bad >> i & 1:
                self._visit(cand & ~(1 << i))

    def _violation(self, cand: int) -> int:
        return self._walk(cand, 0)[0]


def all_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


ALL_CLASSES = (
    LINEAR_FOREST,
    STAR_FOREST,
    CATERPILLAR_FOREST,
    ForestClass("caterpillar", 2),
    ForestClass("caterpillar", 3),
)


class RescanSearch(_Search):
    """The search before its finders resumed, kept as a reference: every
    node's violation scan starts at vertex 0, the finder is picked through
    an if-chain at every node, and children are built in a list and pushed
    reversed. Its greedy peel rescans from vertex 0 too. It runs no cut, or
    with edge_cut set the edge count at every node, as every row does."""

    edge_cut = False

    def __init__(self, g: Graph, kind: str, k: int | None = None, labels=None):
        super().__init__(g, kind, k, labels)
        self.kind, self.k = kind, k

    def run(self, budget: int) -> OracleResult:
        full = (1 << self.n) - 1
        best_mask = self._greedy_peel(full)
        best_size = best_mask.bit_count()
        violation, adj = self._violation, self.adj
        top = max(map(int.bit_count, adj), default=0)
        nodes = 0
        stopped = False
        stack = [(full, 0, sum(map(int.bit_count, adj)) // 2)]
        pop = stack.pop
        while stack:
            cand, kept, edges = pop()
            size = cand.bit_count()
            if size <= best_size:
                continue
            if nodes >= budget:
                stopped = True
                break
            if self.edge_cut and edges - (size - best_size - 1) * top > best_size:
                continue
            nodes += 1
            bad = violation(cand)
            if not bad:
                best_size, best_mask = size, cand
                continue
            # Children in bit order of the free part of the violation, pushed
            # last-first so they pop in bit order; a violation inside kept
            # leaves no free bit and so no child.
            free = bad & ~kept
            children = []
            while free:
                low = free & -free
                lost = (adj[low.bit_length() - 1] & cand).bit_count()
                children.append((cand ^ low, kept, edges - lost))
                kept |= low
                free ^= low
            stack.extend(reversed(children))
        witness = frozenset(self.vs[i] for i in _iter_bits(best_mask))
        return OracleResult(best_size, witness, nodes, exact=not stopped)

    def _greedy_peel(self, cand: int) -> int:
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

    def _violation(self, cand: int) -> int:
        if self.kind in ("linear", "abc"):
            return self._degree_violation(cand) or self._shortest_cycle(cand, 0)[0]
        if self.kind == "caterpillar":
            if self.k is not None:
                bad = self._degree_violation(cand)
                if bad:
                    return bad
            return self._spine_violation(cand) or self._shortest_cycle(cand, 0)[0]
        if self.kind == "star":
            return self._star_violation(cand)
        if self.kind == "ab":
            return self._ab_violation(cand)
        raise ValueError(self.kind)  # pragma: no cover

    def _degree_violation(self, cand: int) -> int:
        adj, caps = self.adj, self.caps
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            nbrs = adj[i] & cand
            if nbrs.bit_count() > caps[i]:
                return low | nbrs
        return 0

    def _star_violation(self, cand: int) -> int:
        # An adjacent pair of degree->=2 vertices (plus one extra neighbor of
        # each) witnesses any failure: cycles force such a pair too.
        adj = self.adj
        rest = cand
        while rest:
            low_i = rest & -rest
            rest ^= low_i
            nbrs_i = adj[low_i.bit_length() - 1] & cand
            if nbrs_i.bit_count() < 2:
                continue
            others = nbrs_i
            while others:
                low_j = others & -others
                others ^= low_j
                nbrs_j = adj[low_j.bit_length() - 1] & cand
                if nbrs_j.bit_count() < 2:
                    continue
                extra_i = nbrs_i ^ low_j
                extra_j = nbrs_j ^ low_i
                return low_i | low_j | (extra_i & -extra_i) | (extra_j & -extra_j)
        return 0

    def _spine_violation(self, cand: int) -> int:
        # A vertex with three non-leaf neighbors (each witnessed by a second
        # neighbor) can never sit inside a caterpillar forest. Such a vertex
        # is itself a non-leaf, so only non-leaves need scanning.
        adj = self.adj
        heavy = 0
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            if (adj[low.bit_length() - 1] & cand).bit_count() >= 2:
                heavy |= low
        rest = heavy
        while rest:
            low_i = rest & -rest
            rest ^= low_i
            spine = adj[low_i.bit_length() - 1] & heavy
            if spine.bit_count() < 3:
                continue
            bad = low_i
            for _ in range(3):
                low_j = spine & -spine
                spine ^= low_j
                witness = adj[low_j.bit_length() - 1] & cand & ~low_i
                bad |= low_j | (witness & -witness)
            return bad
        return 0

    def _ab_violation(self, cand: int) -> int:
        adj, labels = self.adj, self.labels
        rest = cand
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
                    return low_i | low_j
                nbrs_j = adj[j] & cand
                if nbrs_j.bit_count() >= 2:
                    return low_i | low_j | nbrs_j
        return self._star_violation(cand)


class UnprunedSearch(_Search):
    """The search without its cuts, kept as a reference: every node that
    cannot be skipped pushes its children."""

    def run(self, budget: int) -> OracleResult:
        full = (1 << self.n) - 1
        best_mask = self._greedy_peel(full)
        best_size = best_mask.bit_count()
        first, walk, n = self._chain[0], self._walk, self.n
        nodes = 0
        stopped = False
        stack = [(full, 0, 0)]
        pop, push = stack.pop, stack.append
        while stack:
            cand, kept, start = pop()
            size = cand.bit_count()
            if size <= best_size:
                continue
            if nodes >= budget:
                stopped = True
                break
            nodes += 1
            bad, anchor = first(cand, start)
            if not bad:
                bad, anchor = walk(cand, max(start, n))
                if not bad:
                    best_size, best_mask = size, cand
                    continue
            if size - 1 <= best_size:
                continue
            free = bad & ~kept
            while free:
                high = 1 << (free.bit_length() - 1)
                free ^= high
                push((cand ^ high, kept | free, anchor))
        witness = frozenset(self.vs[i] for i in _iter_bits(best_mask))
        return OracleResult(best_size, witness, nodes, exact=not stopped)


def oracle_corpus():
    """(graph, kind, k, labels): every graph on at most 5 vertices in every
    class, every ABC and AB labeling of those on at most 4, and seeded
    G(n, p) with n = 6..16 in every class, one random labeling each, and
    B on every fourth vertex, where few B vertices offend and the star
    scan runs after the B scan."""
    for n in range(6):
        for g in all_graphs(n):
            for cls in ALL_CLASSES:
                yield g, cls.kind, cls.k, None
            if n <= 4:
                for labels in product("ABC", repeat=n):
                    yield g, "abc", None, list(labels)
                for labels in product("AB", repeat=n):
                    yield g, "ab", None, list(labels)
    rng = random.Random(4)
    for trial in range(30):
        g = gnp(rng.randint(6, 16), rng.choice((0.2, 0.3, 0.5)), 4400 + trial)
        for cls in ALL_CLASSES:
            yield g, cls.kind, cls.k, None
        yield g, "abc", None, [rng.choice("ABC") for _ in g.vertices]
        yield g, "ab", None, [rng.choice("AB") for _ in g.vertices]
        yield g, "ab", None, ["B" if v % 4 == 3 else "A" for v in g.vertices]


def test_same_optimum_as_memo_search_with_no_more_nodes():
    for g, kind, k, labels in oracle_corpus():
        new = _Search(g, kind, k=k, labels=labels).run(10**6)
        ref = MemoSearch(g, kind, k=k, labels=labels).run(10**6)
        assert new.exact and ref.exact
        assert (new.alpha, new.witness) == (ref.alpha, ref.witness), (g.edges(), kind, k, labels)
        assert new.nodes_explored <= ref.nodes_explored


def test_resumed_search_matches_rescan_search():
    # Without the cuts, the resumed scans build the same tree in the same pop
    # order: equal results, and a budget cuts both off at the same node with
    # the same witness.
    for g, kind, k, labels in oracle_corpus():
        for budget in (10**6, 1, 10, 100):
            new = UnprunedSearch(g, kind, k=k, labels=labels).run(budget)
            ref = RescanSearch(g, kind, k=k, labels=labels).run(budget)
            assert new == ref, (g.edges(), kind, k, labels, budget)


def test_cut_search_matches_unpruned_search():
    # The cuts drop only subtrees that cannot beat the incumbent: the same
    # optimum and witness in no more nodes, and under a budget the search
    # gets at least as far along the uncut one's node order, so its alpha is
    # never lower.
    for g, kind, k, labels in oracle_corpus():
        new = _Search(g, kind, k=k, labels=labels).run(10**6)
        ref = UnprunedSearch(g, kind, k=k, labels=labels).run(10**6)
        case = (g.edges(), kind, k, labels)
        assert (new.alpha, new.witness, new.exact) == (ref.alpha, ref.witness, ref.exact), case
        assert new.nodes_explored <= ref.nodes_explored, case
        for budget in (1, 10, 100):
            new = _Search(g, kind, k=k, labels=labels).run(budget)
            ref = UnprunedSearch(g, kind, k=k, labels=labels).run(budget)
            assert new.alpha >= ref.alpha, (*case, budget)


def degree_scan_length(search: _Search, cand: int, start: int) -> int:
    """The vertices a degree scan of cand from start examines: those of cand
    from start up to the first one over its cap, or to the end."""
    count = 0
    for i in range(start, search.n):
        if cand >> i & 1:
            count += 1
            if (search.adj[i] & cand).bit_count() > search.caps[i]:
                break
    return count


class CountedSearch(_Search):
    # Counts the degree scan wherever a node looks for its violation.
    examined = 0

    def _degree_scan(self, cand, start):
        self.examined += degree_scan_length(self, cand, start)
        return super()._degree_scan(cand, start)


class CountedRescan(RescanSearch):
    examined = 0

    def _degree_violation(self, cand):
        self.examined += degree_scan_length(self, cand, 0)
        return super()._degree_violation(cand)


def test_resumed_degree_scan_examines_at_most_half_the_vertices():
    g = gnp(28, 0.3, 7)
    new = CountedSearch(g, "linear")
    ref = CountedRescan(g, "linear")
    got, want = new.run(10**6), ref.run(10**6)
    assert (got.alpha, got.witness, got.exact) == (want.alpha, want.witness, want.exact)
    assert 0 < new.examined <= ref.examined // 2


def spine_scan_length(search: _Search, cand: int, start: int) -> int:
    """The vertices a spine scan of cand from start examines: those of cand
    from start up to the first one with three neighbors of degree >= 2 in
    cand, or to the end."""
    count = 0
    for i in range(start, search.n):
        if cand >> i & 1:
            count += 1
            nbrs = _iter_bits(search.adj[i] & cand)
            if sum(1 for j in nbrs if search.adj[j] & cand & ~(1 << i)) >= 3:
                break
    return count


class CountedSpineSearch(_Search):
    examined = 0

    def _spine_scan(self, cand, start):
        self.examined += spine_scan_length(self, cand, start)
        return super()._spine_scan(cand, start)


class CountedSpineRescan(RescanSearch):
    examined = 0
    edge_cut = True  # as the caterpillar row does

    def _spine_violation(self, cand):
        self.examined += spine_scan_length(self, cand, 0)
        return super()._spine_violation(cand)


def test_resumed_spine_scan_examines_at_most_seven_tenths_of_the_vertices():
    # Both run the edge count alone, so they build the same tree.
    # It leaves trees of a few hundred to a few thousand nodes at n = 22,
    # where how much resuming saves varies with the tree's depth, so the
    # count is summed over ten graphs.
    examined = [0, 0]
    for seed in range(1, 11):
        g = gnp(22, 0.3, seed)
        new = CountedSpineSearch(g, "caterpillar")
        ref = CountedSpineRescan(g, "caterpillar")
        assert new.run(10**6) == ref.run(10**6)
        examined[0] += new.examined
        examined[1] += ref.examined
    assert 0 < examined[0] <= 0.7 * examined[1]


def test_linear_forest_on_gnp28_is_exact_within_2m_nodes():
    g = gnp(28, 0.3, 7)
    res = alpha_exact(g, LINEAR_FOREST, budget=2_000_000)
    assert res.exact  # the memo search ran out of 2 M nodes here
    assert LINEAR_FOREST.contains(g.induced(res.witness))


def test_linear_forest_on_gnp40_is_exact_within_the_default_budget():
    # Before the edge count and the dead children this search was not exact
    # after 3 M nodes, and its best set had 13 vertices.
    g = gnp(40, 0.3, 7)
    res = alpha_exact(g, LINEAR_FOREST)
    assert res.exact and res.alpha == 14
    assert res.nodes_explored == 1_369_314
    assert LINEAR_FOREST.contains(g.induced(res.witness))


class CountedPeel(_Search):
    # Counts the vertices the spine scan examines: those of cand from start
    # up to the vertex it stops at, or to the end.
    examined = 0

    def _spine_scan(self, cand, start):
        bad, anchor = super()._spine_scan(cand, start)
        self.examined += (cand >> start & (1 << anchor + 1 - start) - 1).bit_count()
        return bad, anchor


class CountedRescanPeel(CountedPeel):
    _greedy_peel = RescanSearch._greedy_peel  # every walk starts at vertex 0
    _violation = MemoSearch._violation


def test_greedy_peel_examines_each_vertex_of_a_path_a_bounded_number_of_times():
    # A star forest on a path: the peel deletes about every other vertex,
    # one violation at a time. Each walk resumes at the last one's anchor,
    # so the scans examine O(n) vertices, and the peel keeps the same set as
    # one whose every walk starts at vertex 0 and examines O(n^2).
    for n in (200, 400):
        full = (1 << n) - 1
        new, ref = CountedPeel(path_graph(n), "star"), CountedRescanPeel(path_graph(n), "star")
        assert new._greedy_peel(full) == ref._greedy_peel(full)
        assert 0 < new.examined <= 2 * n
        assert ref.examined >= n * n // 16


def test_search_peak_allocation_stays_under_1mb():
    # Traced allocation slows the search several times over, so only the
    # first 10 000 nodes run; the memo search peaked at 3.3 MB there.
    tracemalloc.start()
    try:
        alpha_exact(gnp(28, 0.3, 7), LINEAR_FOREST, budget=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_star_forest_on_gnp34_node_count():
    res = alpha_exact(gnp(34, 0.3, 7), STAR_FOREST)
    assert res.exact
    # 117 062 without a cut; the memo search took 1.37 M
    assert res.nodes_explored == 78_826


def seeded_partition(n: int, mode: str, seed: int) -> tuple[Graph, Partition]:
    g = gnp(n, 0.3, seed)
    rng = random.Random(seed)
    return g, Partition({v: rng.choice(mode) for v in g.vertices}, mode)


@pytest.mark.parametrize(
    "search, nodes",
    [
        # (without a cut: 131 142, 52 083, 43 036, 131 142, 361 942, 164 523
        # and 6 203 nodes)
        (lambda: alpha_exact(gnp(28, 0.3, 7), LINEAR_FOREST), 17_884),
        (lambda: alpha_exact_partitioned(*seeded_partition(24, "ABC", 1)), 7_934),
        (lambda: alpha_exact_partitioned(*seeded_partition(24, "AB", 1)), 31_926),
        # k = 2 runs the linear row
        (lambda: alpha_exact(gnp(28, 0.3, 7), ForestClass("caterpillar", 2)), 17_884),
        # the other caterpillars run the spine scan, after the degree scan when k is set
        (lambda: alpha_exact(gnp(28, 0.3, 7), ForestClass("caterpillar", 3)), 48_720),
        (lambda: alpha_exact(gnp(28, 0.3, 7), CATERPILLAR_FOREST), 47_911),
        (lambda: alpha_exact(random_regular(18, 5, 1), ForestClass("caterpillar", 3)), 77),
    ],
    ids=[
        "linear-gnp28", "abc-gnp24", "ab-gnp24", "caterpillar2-gnp28",
        "caterpillar3-gnp28", "caterpillar-gnp28", "caterpillar3-regular18",
    ],
)
def test_oracle_node_counts(search, nodes):
    res = search()
    assert res.exact and res.nodes_explored == nodes


def test_edge_count_cut_is_sound_on_the_atlas():
    # On every graph of 1 to 7 vertices and in every class, the edge count
    # at the root (m edges, maximum degree top) never rules out the optimum
    # (best = alpha - 1), and it is not vacuous (best = alpha). Where the
    # greedy peel already finds alpha, the search counts no node exactly
    # when the test fires at the root.
    nx = pytest.importorskip("networkx")
    fired = 0
    for atlas_graph in nx.graph_atlas_g()[1:]:
        g = Graph.from_edges(atlas_graph.number_of_nodes(), atlas_graph.edges())
        m, top, full = g.m, max(g.degrees()), (1 << g.n) - 1

        def trips(best):
            return m - (g.n - best - 1) * top > best

        for cls in ALL_CLASSES:
            search = _Search(g, cls.kind, k=cls.k)
            res = search.run(10**6)
            assert not trips(res.alpha - 1), (g.edges(), cls)
            fired += trips(res.alpha)
            if res.alpha < g.n and search._greedy_peel(full).bit_count() == res.alpha:
                assert (res.nodes_explored == 0) == trips(res.alpha), (g.edges(), cls)
    assert fired


def test_dead_children_hold_no_valid_set_on_the_atlas():
    # At every node of the whole uncut search tree, on every graph of 1 to 7
    # vertices, in the rows whose W can come from the degree scan: a child
    # whose kept set holds W's centre and more than its cap of W's other
    # vertices, which the search does not push, keeps a set its class
    # rejects, so no valid set lies below it.
    nx = pytest.importorskip("networkx")
    dropped = 0
    for atlas_graph in nx.graph_atlas_g()[1:]:
        g = Graph.from_edges(atlas_graph.number_of_nodes(), atlas_graph.edges())
        labels = ["ABC"[v % 3] for v in g.vertices]
        rows = [
            (LINEAR_FOREST.contains, _Search(g, "linear")),
            (ForestClass("caterpillar", 3).contains, _Search(g, "caterpillar", k=3)),
            (abc_accept(Partition(dict(zip(g.vertices, labels)), "ABC")),
             _Search(g, "abc", labels=labels)),
        ]
        for accept, search in rows:
            stack = [((1 << g.n) - 1, 0, 0)]
            while stack:
                cand, kept, start = stack.pop()
                bad, anchor = search._walk(cand, start)
                free = bad & ~kept
                for w in _iter_bits(free):
                    if anchor < g.n and kept >> anchor & 1:
                        others = (kept & bad ^ 1 << anchor).bit_count()
                        if others > search.caps[anchor]:
                            dropped += 1
                            assert not accept(g.induced(search.vs[i] for i in _iter_bits(kept)))
                    stack.append((cand ^ 1 << w, kept, anchor))
                    kept |= 1 << w
    assert dropped


def test_recognizers_and_oracle_scans_agree_on_the_atlas():
    # The class rule is written twice, once in ForestClass.contains and once
    # in the oracle's scans: on every graph of 1 to 7 vertices the whole
    # graph is in the class exactly when the oracle finds no violation in it.
    nx = pytest.importorskip("networkx")
    for atlas_graph in nx.graph_atlas_g()[1:]:
        g = Graph.from_edges(atlas_graph.number_of_nodes(), atlas_graph.edges())
        full = (1 << g.n) - 1
        for cls in ALL_CLASSES:
            search = _Search(g, cls.kind, k=cls.k)
            assert cls.contains(g) == (search._walk(full, 0)[0] == 0), (g.edges(), cls)


def test_cycle_scan_finds_a_shortest_cycle_on_the_atlas():
    # Wherever the scans before it find nothing on the whole graph, the
    # cycle scan's W induces a cycle of the graph's girth, and is empty on a
    # forest: reading each component's one cycle off its degrees finds what
    # a search from every vertex would.
    nx = pytest.importorskip("networkx")
    for names in _CHAINS.values():
        assert "_shortest_cycle" not in names[:-1], names
    reached = cycles = 0
    for atlas_graph in nx.graph_atlas_g()[1:]:
        g = Graph.from_edges(atlas_graph.number_of_nodes(), atlas_graph.edges())
        girth, full = nx.girth(atlas_graph), (1 << g.n) - 1
        for cls in (LINEAR_FOREST, CATERPILLAR_FOREST, ForestClass("caterpillar", 3)):
            search = _Search(g, cls.kind, k=cls.k)
            *earlier, last = search._chain
            assert last == search._shortest_cycle, cls
            if any(scan(full, 0)[0] for scan in earlier):
                continue
            reached += 1
            cycle = g.induced(search.vs[i] for i in _iter_bits(last(full, 0)[0]))
            if girth == float("inf"):
                assert cycle.n == 0, (g.edges(), cls)
                continue
            cycles += 1
            assert cycle.n == girth and set(cycle.degrees()) == {2}, (g.edges(), cls)
            assert len(cycle.components()) == 1, (g.edges(), cls)
    assert reached > cycles > 0
    # a tie, which no atlas graph holds past triangles, goes to the cycle
    # whose component has the lowest vertex
    squares = Graph.from_edges(8, [(0, 5), (5, 2), (2, 7), (7, 0), (1, 3), (3, 4), (4, 6), (6, 1)])
    found, anchor = _Search(squares, "linear")._shortest_cycle(255, 0)
    assert set(_iter_bits(found)) == {0, 2, 5, 7} and anchor == 0


def test_budget_run_on_large_clique_does_not_recurse():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        res = alpha_exact(complete_graph(1100), STAR_FOREST, budget=5000)
    finally:
        sys.setrecursionlimit(limit)
    assert not res.exact
    assert res.nodes_explored == 5000
    assert res.alpha == len(res.witness) == 2


def test_nodes_never_exceed_the_subset_count():
    # No vertex subset is reached twice, so a search on n vertices explores
    # at most 2**n nodes: on the constructors' residuals of up to 16
    # vertices that is 65 536, below the default budget and the 500 000
    # that a larger residual gets.
    rng = random.Random(11)
    for trial in range(40):
        g = gnp(rng.randint(1, 10), rng.choice((0.2, 0.4, 0.7)), 5100 + trial)
        results = [alpha_exact(g, cls) for cls in ALL_CLASSES]
        for mode in ("ABC", "AB"):
            p = Partition({v: rng.choice(mode) for v in g.vertices}, mode)
            results.append(alpha_exact_partitioned(g, p))
        for res in results:
            assert res.exact and res.nodes_explored <= 2**g.n, (g.edges(), res)

"""Constructors: certificates, reduction engines, traces."""

import inspect
import random
import sys
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from golden_corpus import comb, families, seeded_gnp, small_graphs

from forestbound import construct
from forestbound import (
    BoundSpec,
    Graph,
    NotCubic,
    Partition,
    ab_construct,
    abc_construct,
    alpha_exact_partitioned,
    caterpillar_forest,
    certificate_from_text,
    certificate_to_text,
    cubic_partition,
    graph_counts,
    greedy_linear_forest,
    k_caterpillar_forest,
    star_forest,
    total_weight,
    verify_certificate,
)
from forestbound.errors import InvalidSpec, ParseError
from forestbound.generate import (
    complete_graph,
    cycle_graph,
    fig1_gadget,
    gnp,
    hnk_graph,
    k_prime_graph,
    path_graph,
    random_regular,
    star_graph,
)
from forestbound.check import CATERPILLAR_FOREST, LINEAR_FOREST, STAR_FOREST, ForestCertificate


class TestGreedyLinearForest:
    def test_k4(self):
        cert = greedy_linear_forest(complete_graph(4))
        assert cert.size() == 2 and cert.claimed_bound == 2

    def test_c5(self):
        cert = greedy_linear_forest(cycle_graph(5))
        assert cert.size() == 4 and cert.claimed_bound == F(10, 3)

    def test_claw(self):
        cert = greedy_linear_forest(star_graph(3))
        assert cert.size() == 3 and cert.claimed_bound == 3

    def test_random_graphs_verify(self):
        rng = random.Random(11)
        for trial in range(500):
            n = rng.randint(1, 60)
            p = rng.choice((0.1, 0.3, 0.6))
            g = gnp(n, p, trial)
            cert = greedy_linear_forest(g)
            assert verify_certificate(g, cert), trial

    def test_bucket_queue_matches_rescanning_loop(self):
        # the loop greedy_linear_forest ran before its bucket queue: rescan
        # for the maximum degree and copy the graph at every deletion
        def rescanning(g):
            h = g
            while h.max_degree() >= 3:
                top = h.max_degree()
                deg = dict(zip(h.vertices, h.degrees()))
                h = h.delete_vertices((min(u for u in h.vertices if deg[u] == top),))
            chosen, adj = set(), h.adjacency()
            for comp in h.components():
                if sum(len(adj[u] & comp) for u in comp) // 2 == len(comp):
                    chosen |= comp - {min(comp)}
                else:
                    chosen |= comp
            return chosen

        rng = random.Random(12)
        for trial in range(150):
            g = gnp(rng.randint(1, 90), rng.choice((0.03, 0.08, 0.2, 0.5)), 9000 + trial)
            assert greedy_linear_forest(g).vertex_set == rescanning(g), trial

    def test_regular_graph_bound_value(self):
        # on d-regular graphs the bound is exactly 2n/(d+1)
        for n, d in ((12, 3), (10, 4), (12, 5)):
            g = random_regular(n, d, seed=n + d)
            cert = greedy_linear_forest(g)
            assert cert.claimed_bound == F(2 * n, d + 1)
            assert verify_certificate(g, cert)


class TestCaterpillarForest:
    def test_claw_takes_everything(self):
        cert = caterpillar_forest(star_graph(3))
        assert cert.size() == 4 and cert.claimed_bound == F(7, 2)

    def test_c6(self):
        cert = caterpillar_forest(cycle_graph(6))
        assert cert.size() == 5 and cert.claimed_bound == 4

    def test_two_disjoint_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        cert = caterpillar_forest(g)
        assert cert.size() == 4 and cert.claimed_bound == 4

    def test_isolated_vertex_kept(self):
        # aks weighs an isolated vertex min{1, 2/1} = 1: it must be in the forest
        cert = caterpillar_forest(Graph.from_edges(3, [(0, 1)]))
        assert cert.vertex_set == {0, 1, 2} and cert.claimed_bound == 3

    def test_outputs_are_caterpillar_forests(self):
        rng = random.Random(5)
        for trial in range(60):
            g = gnp(rng.randint(2, 30), 0.2, 1000 + trial)
            cert = caterpillar_forest(g)
            assert CATERPILLAR_FOREST.contains(g.induced(cert.vertex_set))
            assert verify_certificate(g, cert)


class TestAbcConstruct:
    def test_p3_gadget(self):
        g, p = fig1_gadget("P3AB")
        cert, _ = abc_construct(g, p)
        assert cert.vertex_set == {0, 2} and cert.claimed_bound == 2
        assert verify_certificate(g, cert, p)

    def test_k2_gadget_keeps_the_a_vertex(self):
        g, p = fig1_gadget("K2AC")
        cert, _ = abc_construct(g, p)
        assert cert.vertex_set == {0} and cert.claimed_bound == 1

    def test_k3_gadget(self):
        g, p = fig1_gadget("K3ACC")
        cert, _ = abc_construct(g, p)
        assert cert.size() == 1 and cert.claimed_bound == 1

    def test_random_graphs_certified(self):
        rng = random.Random(3)
        for trial in range(120):
            g = gnp(rng.randint(1, 13), rng.choice((0.2, 0.4)), 2000 + trial)
            p = Partition({v: rng.choice("ABC") for v in g.vertices}, "ABC")
            cert, trace = abc_construct(g, p)
            assert verify_certificate(g, cert, p), trial
            assert LINEAR_FOREST.contains(g.induced(cert.vertex_set))

    def test_trace_replays_and_decreases(self):
        g = gnp(12, 0.3, 99)
        p = Partition({v: "ABC"[v % 3] for v in g.vertices}, "ABC")
        cert1, trace1 = abc_construct(g, p)
        cert2, trace2 = abc_construct(g, p)
        assert cert1 == cert2 and trace1.steps == trace2.steps
        assert trace1.replay(g).n == 0
        for step in trace1.steps:
            if step.rule not in ("R4", "S4"):
                assert len(step.removed) >= 1

    def test_every_prefix_replays_as_on_plain_sets(self):
        # R5 fires on this graph (tests/test_engine.py): each prefix of its trace replays to
        # the residual of a test-side replay over a dict of sets, added edges and removals alike
        g = gnp(11, 0.15, 33)
        rng = random.Random(33)
        _, trace = abc_construct(g, Partition({v: rng.choice("ABC") for v in g.vertices}, "ABC"))
        assert any(step.rule == "R5" and step.added_edges for step in trace.steps)
        adj = g.adjacency()
        for k in range(len(trace.steps) + 1):
            if k:
                step = trace.steps[k - 1]
                for u, v in step.added_edges:
                    adj[u].add(v)
                    adj[v].add(u)
                for v in step.removed:
                    for w in adj.pop(v):
                        adj[w].discard(v)
            residual = construct.ReductionTrace(trace.steps[:k]).replay(g)
            assert residual.vertices == tuple(sorted(adj)), k
            assert residual.edges() == sorted((u, w) for u in adj for w in adj[u] if u < w), k

    def test_deep_chain_of_leaves(self):
        g = path_graph(40)
        p = Partition({v: "A" for v in g.vertices}, "ABC")
        cert, _ = abc_construct(g, p)
        assert verify_certificate(g, cert, p)

    def test_ab_partition_rejected(self):
        g = path_graph(3)
        with pytest.raises(ParseError, match="abc_construct needs an ABC partition"):
            abc_construct(g, Partition(dict.fromkeys(g.vertices, "A"), "AB"))


class TestAbConstruct:
    def test_k2_all_a(self):
        g = path_graph(2)
        cert, _ = ab_construct(g, Partition({0: "A", 1: "A"}, "AB"))
        assert cert.size() == 2 and cert.claimed_bound == F(5, 3)

    def test_c5_all_a(self):
        g = cycle_graph(5)
        cert, _ = ab_construct(g, Partition(dict.fromkeys(g.vertices, "A"), "AB"))
        assert cert.size() == 3 and cert.claimed_bound == 3

    def test_p3_b_ends(self):
        g = path_graph(3)
        p = Partition({0: "B", 1: "A", 2: "B"}, "AB")
        cert, _ = ab_construct(g, p)
        assert cert.claimed_bound == F(8, 5) and cert.size() == 2
        assert verify_certificate(g, cert, p)
        assert cert.size() == brute_force_ab_optimum(g, p)

    def test_random_graphs_certified(self):
        rng = random.Random(4)
        for trial in range(120):
            g = gnp(rng.randint(1, 13), rng.choice((0.2, 0.4)), 3000 + trial)
            p = Partition({v: rng.choice("AB") for v in g.vertices}, "AB")
            cert, trace = ab_construct(g, p)
            assert verify_certificate(g, cert, p), trial

    def test_large_cycle_uses_dp(self):
        g = cycle_graph(100)
        cert, trace = ab_construct(g, Partition(dict.fromkeys(g.vertices, "A"), "AB"))
        assert cert.size() >= cert.claimed_bound == 60
        assert any(step.rule == "S2" for step in trace.steps)

    def test_endgame_on_cubic_graph(self):
        g = random_regular(20, 3, 8)
        cert, trace = ab_construct(g, Partition(dict.fromkeys(g.vertices, "A"), "AB"))
        assert verify_certificate(g, cert, Partition(dict.fromkeys(g.vertices, "A"), "AB"))
        assert any(step.rule == "S5" for step in trace.steps)


def brute_force_ab_optimum(g: Graph, p: Partition) -> int:
    vs = sorted(g.vertices)
    for r in range(len(vs), 0, -1):
        for subset in combinations(vs, r):
            sub = g.induced(subset)
            if not STAR_FOREST.contains(sub):
                continue
            ok, deg = True, dict(zip(sub.vertices, sub.degrees()))
            for u, v in sub.edges():
                for a, b in ((u, v), (v, u)):
                    if p.part(b) == "B" and not (p.part(a) == "A" and deg[a] == 1):
                        ok = False
            if ok:
                return r
    return 0


class TestKCaterpillarForest:
    def test_h22(self):
        cert = k_caterpillar_forest(hnk_graph(2, 2), 2)
        assert cert.size() == 6 and cert.claimed_bound == 6

    def test_c5_reduces_to_abc(self):
        cert = k_caterpillar_forest(cycle_graph(5), 2)
        assert cert.size() == 4 and cert.claimed_bound == F(10, 3)

    def test_claw_k3(self):
        cert = k_caterpillar_forest(star_graph(3), 3)
        assert cert.size() == 4 and cert.claimed_bound == F(7, 2)

    def test_bad_k(self):
        with pytest.raises(InvalidSpec):
            k_caterpillar_forest(path_graph(3), 1)

    def test_leafless_k2_matches_linear_bound(self):
        rng = random.Random(17)
        checked = 0
        for trial in range(200):
            g = gnp(rng.randint(4, 14), 0.45, 4000 + trial)
            if 1 in g.degrees():
                continue
            checked += 1
            cert = k_caterpillar_forest(g, 2)
            assert LINEAR_FOREST.contains(g.induced(cert.vertex_set))
            flin = BoundSpec("flin")
            assert cert.claimed_bound == total_weight(graph_counts(g, flin), flin)
            if checked >= 25:
                break
        assert checked >= 10

    def test_overloaded_drops_cascade_through_new_leaves(self):
        # at k = 2, vertex 4 carries three leaves; dropping it makes 3 a leaf
        # of 0, which then carries three leaves too
        g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6), (4, 7)])
        assert construct._overloaded(g.position_sets(), 2) == {0, 4}

    @pytest.mark.parametrize("k", [2, 3])
    def test_overloaded_matches_a_drop_until_stable_peel(self, k):
        # every graph of 1 to 7 vertices, a comb whose spine vertices all go, and
        # seeded caterpillars whose spine vertices carry 0, k or k+1 leaves, where
        # drops cascade (no graph of the atlas is big enough for that); the peel
        # also edits the sets to those of what is left
        nx = pytest.importorskip("networkx")
        atlas = [Graph.from_edges(a.number_of_nodes(), a.edges()) for a in nx.graph_atlas_g()[1:]]
        rng = random.Random(k)
        caterpillars = []
        for spine in rng.choices(range(3, 12), k=300):
            edges = [(i - 1, i) for i in range(1, spine)]
            for v in range(spine):
                edges += [(v, len(edges) + 1 + i) for i in range(rng.choice((0, 0, k, k + 1)))]
            caterpillars.append(Graph.from_edges(len(edges) + 1, edges))
        drops = cascades = 0
        for g in [*atlas, comb(30, k + 1), *caterpillars]:
            nbrs = g.position_sets()
            dropped = construct._overloaded(nbrs, k)
            assert dropped == drop_until_stable(g, k), g.edges()
            whole = g.position_sets()
            assert nbrs == [set() if v in dropped else whole[v] - dropped for v in range(g.n)]
            drops += bool(dropped)
            cascades += len(dropped) > len(overloaded_now(g.adjacency(), set(), k))
        assert drops >= 250 and cascades >= 50, (drops, cascades)  # 299, 74 at k = 2; 275, 75 at 3

    def test_k_caterpillar_comb_no_recursion(self):
        # every spine vertex carries three leaves, so k = 2 drops the whole
        # spine and keeps the 3300 leaves, under the default recursion limit
        cert = k_caterpillar_forest(comb(1100, 3), 2)
        assert cert.vertex_set == set(range(1100, 4400))


def overloaded_now(adj: dict, dropped: set[int], k: int) -> list[int]:
    """The vertices of the graph of `adj` without `dropped` that have k+1 or more
    neighbors of degree 1 there."""
    left = {v: ws - dropped for v, ws in adj.items() if v not in dropped}
    return [v for v, ws in left.items() if sum(len(left[w]) == 1 for w in ws) > k]


def drop_until_stable(g: Graph, k: int) -> set[int]:
    """The vertices dropped by dropping, one at a time, the least overloaded
    vertex of what is left, until none is."""
    adj, dropped = g.adjacency(), set()
    while over := overloaded_now(adj, dropped, k):
        dropped.add(min(over))
    return dropped


class TestStarForest:
    def test_kprime3(self):
        cert = star_forest(k_prime_graph(3))
        assert cert.size() == 4

    def test_big_star(self):
        cert = star_forest(star_graph(7))
        assert cert.size() == 8

    def test_c5(self):
        cert = star_forest(cycle_graph(5))
        assert cert.size() == 3 and cert.claimed_bound == 3

    def test_long_comb_in_a_shallow_stack(self):
        # the core is a 400-vertex path of B vertices; S1 deletes every
        # second one, 200 in all, and no call depth may grow with that count
        g = comb(400, 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 120)
        try:
            cert = star_forest(g)
        finally:
            sys.setrecursionlimit(limit)
        assert verify_certificate(g, cert)

    def test_random_graphs_certified(self):
        rng = random.Random(6)
        for trial in range(100):
            g = gnp(rng.randint(1, 14), rng.choice((0.15, 0.3, 0.5)), 5000 + trial)
            cert = star_forest(g)
            assert verify_certificate(g, cert), trial


class TestCubicPartition:
    def test_k4(self):
        g = complete_graph(4)
        p1, p2 = cubic_partition(g)
        assert sorted((len(p1), len(p2))) == [2, 2]
        assert g.induced(p1).max_degree() <= 1 and g.induced(p2).max_degree() <= 1

    def test_k33(self):
        g = Graph.from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        p1, p2 = cubic_partition(g)
        assert g.induced(p1).max_degree() <= 1 and g.induced(p2).max_degree() <= 1

    def test_petersen(self):
        g = Graph.from_edges(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6), (6, 8),
             (8, 5), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
        )
        p1, p2 = cubic_partition(g)
        assert g.induced(p1).max_degree() <= 1 and g.induced(p2).max_degree() <= 1
        assert max(len(p1), len(p2)) >= 5

    def test_random_cubic(self):
        for trial, n in enumerate((20, 60, 120, 200)):
            g = random_regular(n, 3, 600 + trial)
            p1, p2 = cubic_partition(g)
            assert g.induced(p1).max_degree() <= 1
            assert g.induced(p2).max_degree() <= 1
            assert 2 * max(len(p1), len(p2)) >= n

    def test_not_cubic(self):
        with pytest.raises(NotCubic):
            cubic_partition(path_graph(4))


class TestVerifyCertificate:
    def test_valid_pair_in_k4(self):
        g = complete_graph(4)
        assert verify_certificate(g, ForestCertificate(frozenset({0, 1}), LINEAR_FOREST, F(2)))

    def test_triangle_fails(self):
        g = complete_graph(4)
        assert not verify_certificate(
            g, ForestCertificate(frozenset({0, 1, 2}), LINEAR_FOREST, F(2))
        )

    def test_gadget_with_labels(self):
        g, p = fig1_gadget("P3AB")
        cert = ForestCertificate(frozenset({0, 2}), LINEAR_FOREST, F(2))
        assert verify_certificate(g, cert, p)
        # {0,1} respects the caps (the B vertex sits at degree 1) and meets
        # the bound; {0,1,2} pushes the B vertex to degree 2 and fails
        assert verify_certificate(g, ForestCertificate(frozenset({0, 1}), LINEAR_FOREST, F(2)), p)
        assert not verify_certificate(
            g, ForestCertificate(frozenset({0, 1, 2}), LINEAR_FOREST, F(2)), p
        )

    def test_bound_comparison_is_exact(self):
        g = path_graph(2)
        cert = ForestCertificate(frozenset({0}), LINEAR_FOREST, F(10, 10))
        assert verify_certificate(g, cert)
        cert = ForestCertificate(frozenset({0}), LINEAR_FOREST, F(10, 9))
        assert not verify_certificate(g, cert)

    def test_unknown_vertices_fail(self):
        g = path_graph(2)
        cert = ForestCertificate(frozenset({0, 9}), LINEAR_FOREST, F(1))
        assert not verify_certificate(g, cert)


def test_abc_bound_sampled_against_exact_oracle():
    """Sampled labelings on small graphs: constrained optimum >= the bound."""
    rng = random.Random(99)
    trials = 10_500
    for trial in range(trials):
        n = rng.randint(1, 6)
        pairs = list(combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        p = Partition({v: rng.choice("ABC") for v in g.vertices}, "ABC")
        spec = BoundSpec("abc")
        bound = total_weight(graph_counts(g, spec, p), spec)
        res = alpha_exact_partitioned(g, p)
        assert res.exact and F(res.alpha) >= bound, (trial, edges, p.labels)


def test_certificate_text_round_trip():
    g = cycle_graph(5)
    cert = greedy_linear_forest(g)
    text = certificate_to_text(cert, g.edge_hash())
    parsed, graph_hash = certificate_from_text(text)
    assert parsed == cert and graph_hash == g.edge_hash()


def test_bound_miss_carries_best_effort_certificate(monkeypatch):
    # S6 settles this labeling of the all-labelings corpus at once; an oracle
    # that keeps nothing must miss the bound of the settled vertices
    from forestbound.errors import BoundMiss
    from forestbound.exact import OracleResult

    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    p = Partition(dict(zip(g.vertices, "AABB")), "AB")
    assert ab_construct(g, p)[1].summary() == "S6:1"
    empty = OracleResult(0, frozenset(), 0)
    monkeypatch.setattr(construct, "alpha_exact_partitioned", lambda *args, **kwargs: empty)
    with pytest.raises(BoundMiss) as exc:
        ab_construct(g, p)
    cert = exc.value.certificate
    assert cert is not None and cert.vertex_set == frozenset()
    assert cert.forest_class == construct.KINDS["ab"].forest
    spec = BoundSpec("abstar")
    assert cert.claimed_bound == total_weight(graph_counts(g, spec, p), spec) == F(5, 3)


@pytest.mark.parametrize(
    "kind, g", [("abc", cycle_graph(3)), ("ab", cycle_graph(5))], ids=["R2", "S2"]
)
def test_rule_2_bound_miss_carries_best_effort_certificate(monkeypatch, kind, g):
    # rule 2 settles the all-A triangle (ABC) and C5 (AB) of the golden corpus
    # at once, each DP optimum meeting the bound exactly; keeping one vertex
    # fewer must miss the bound of the settled vertices
    from forestbound.errors import BoundMiss

    row = construct.KINDS[kind]
    p = Partition(dict.fromkeys(g.vertices, "A"), row.mode)
    cert, trace = row.build(g, p)
    assert trace.summary() == f"{'R' if kind == 'abc' else 'S'}2:1"
    assert cert.size() == cert.claimed_bound
    dp = construct._dp_component
    monkeypatch.setattr(construct, "_dp_component", lambda *args: set(sorted(dp(*args))[1:]))
    with pytest.raises(BoundMiss) as exc:
        row.build(g, p)
    missed = exc.value.certificate
    assert missed is not None and missed.size() == cert.size() - 1
    assert missed.vertex_set < cert.vertex_set
    assert missed.forest_class == row.forest
    assert missed.claimed_bound == total_weight(graph_counts(g, row.spec, p), row.spec)
    assert missed.claimed_bound == cert.claimed_bound


def test_cubic_endgame_short_of_the_share_leaves_k4_to_the_fallback(monkeypatch):
    # S5 keeps the bigger side of cubic_partition's split; a split whose sides
    # fall short of the bound makes S5 decline, and S6 settles K4 the same way
    g = complete_graph(4)
    p = Partition(dict.fromkeys(g.vertices, "A"), "AB")
    cert, trace = ab_construct(g, p)
    assert trace.summary() == "S5:1"
    monkeypatch.setattr(construct, "cubic_partition", lambda h: (frozenset(), frozenset()))
    fallback, trace = ab_construct(g, p)
    assert trace.summary() == "S6:1"
    assert fallback == cert and cert.vertex_set == {2, 3} and cert.claimed_bound == 2


CONSTRUCTOR_ROWS = {
    "greedy_linear_forest": ("linear", None), "caterpillar_forest": ("caterpillar", None),
    "k_caterpillar_forest": ("caterpillar", 3), "star_forest": ("star", None),
    "abc_construct": ("abc", None), "ab_construct": ("ab", None),
}


@pytest.mark.parametrize("name", CONSTRUCTOR_ROWS)
def test_a_refused_certificate_is_a_bound_miss_that_names_its_constructor(monkeypatch, name):
    # the checker refuses only the certificate of the input graph itself, so a
    # constructor that certifies a part first (caterpillar_forest) gets past it
    from forestbound.errors import BoundMiss

    g, row = path_graph(2), construct.kind_row(*CONSTRUCTOR_ROWS[name])
    p = Partition(dict.fromkeys(g.vertices, "A"), row.mode) if row.mode else None
    monkeypatch.setattr(construct, "verify_certificate", lambda h, cert, labels=None: h is not g)
    with pytest.raises(BoundMiss, match=rf"^{name} produced an invalid certificate$") as exc:
        row.build(g, p)
    assert exc.value.certificate.forest_class == row.forest


def test_path_cycle_dp_matches_exact_oracle():
    from forestbound.construct import _dp_component

    rng = random.Random(31)
    for trial in range(120):
        n = rng.randint(1, 9)
        if rng.random() < 0.5 or n < 3:
            g = path_graph(n)
        else:
            g = cycle_graph(n)
        mode = "ABC" if trial % 2 == 0 else "AB"
        labels = {v: rng.choice(mode) for v in g.vertices}
        picks = _dp_component(g.adjacency(), g.vertices, labels, mode)
        res = alpha_exact_partitioned(g, Partition(labels, mode))
        assert len(picks) == res.alpha, (trial, g, labels)


def test_cycle_dp_matches_rotation_scan():
    # the cycle DP this library once ran: one path DP per deleted vertex. Its
    # best count is the reference; the picks may differ among optimal ones.
    from forestbound.construct import KINDS, _component_order, _dp_component, _dp_path

    for n in range(3, 9):
        g = cycle_graph(n)
        adj = g.adjacency()
        order, is_cycle = _component_order(adj, g.vertices)
        assert is_cycle
        for mode in ("ABC", "AB"):
            forest = KINDS[mode.lower()].forest
            for word in product(mode, repeat=n):
                labels = dict(zip(g.vertices, word))
                best = max(_dp_path(order[i + 1 :] + order[:i], labels, mode)[0] for i in range(n))
                picks = _dp_component(adj, g.vertices, labels, mode)
                assert len(picks) == best, (mode, word)
                cert = ForestCertificate(frozenset(picks), forest, F(0))
                assert verify_certificate(g, cert, Partition(labels, mode)), (mode, word)


def _engine_traces(monkeypatch) -> list:
    """Record the trace of every engine run the constructors make."""
    traces = []
    engine = construct._reduce

    def recording(*args, **kwargs):
        chosen, trace = engine(*args, **kwargs)
        traces.append(trace)
        return chosen, trace

    monkeypatch.setattr(construct, "_reduce", recording)
    return traces


@pytest.mark.parametrize(
    "build", [star_forest, lambda g: k_caterpillar_forest(g, 3)], ids=["star", "caterpillar3"]
)
def test_engine_checks_linear_in_graph_size(monkeypatch, build):
    # rules 1 and 3 are checked again only within distance 2 of a change, so
    # their checks stay within a constant times n + m (a full rescan after
    # every step would make millions here)
    g = gnp(3000, 0.001, 1)
    traces = _engine_traces(monkeypatch)
    cert = build(g)
    assert verify_certificate(g, cert)
    assert traces and sum(len(trace.steps) for trace in traces) > 500
    assert 0 < sum(trace.evaluations for trace in traces) <= 3 * (g.n + g.m)


@pytest.mark.parametrize(
    "build, size, states",
    [(star_forest, 1500, 7), (lambda g: k_caterpillar_forest(g, 2), 1999, 3)],
    ids=["star", "caterpillar2"],
)
def test_long_cycle_takes_one_path_dp(monkeypatch, build, size, states):
    # one path DP per state of the first vertex, never one per rotation
    g = cycle_graph(2000)
    paths = []
    dp_path = construct._dp_path
    monkeypatch.setattr(construct, "_dp_path", lambda *args: paths.append(1) or dp_path(*args))
    traces = _engine_traces(monkeypatch)
    cert = build(g)
    assert verify_certificate(g, cert) and cert.size() == size
    assert 1 <= len(paths) <= states
    assert [step.rule[1] for trace in traces for step in trace.steps] == ["2"]


# Two components on which star_forest keeps {0, 3, 4, 9, 10, 11}, and one AB
# engine run over both would keep {0, 4, 5, 9, 10, 11}: after two S1 steps
# the first is a path, which rule 2 settles only once the whole instance has
# maximum degree 2, so the merged run strips vertex 0 by S3 first.
TWO_CORES = Graph.from_edges(12, [
    (0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5),
    (6, 8), (6, 9), (6, 10), (6, 11), (7, 8), (7, 9), (7, 10), (8, 9), (8, 11), (9, 11), (10, 11),
])


def disjoint_union(*graphs: Graph) -> Graph:
    edges, offset = [], 0
    for h in graphs:
        edges += [(u + offset, v + offset) for u, v in h.edges()]
        offset += h.n
    return Graph.from_edges(offset, edges)


@pytest.mark.parametrize(
    "build",
    [star_forest, lambda g: k_caterpillar_forest(g, 2), lambda g: k_caterpillar_forest(g, 3)],
    ids=["star", "caterpillar2", "caterpillar3"],
)
def test_leafy_constructors_solve_each_component_alone(build):
    # star_forest and k_caterpillar_forest run the engine once per
    # leaf-stripped core, so what they keep of a component does not depend
    # on the rest of the graph
    rng = random.Random(24)
    unions = [
        disjoint_union(*(gnp(rng.randint(4, 14), rng.choice((0.2, 0.35, 0.5)), 2400 + 2 * i + j)
                         for j in range(2)))
        for i in range(30)
    ]
    for g in (TWO_CORES, *unions):
        parts = [build(g.induced(comp)).vertex_set for comp in g.components()]
        assert build(g).vertex_set == frozenset().union(*parts), g.edges()
    assert star_forest(TWO_CORES).vertex_set == {0, 3, 4, 9, 10, 11}


def seeded_unions() -> list[Graph]:
    """Thirty disjoint unions of two seeded G(n, p)."""
    rng = random.Random(24)
    return [
        disjoint_union(*(gnp(rng.randint(4, 14), rng.choice((0.2, 0.35, 0.5)), 2400 + 2 * i + j)
                         for j in range(2)))
        for i in range(30)
    ]


def overloaded(g: Graph, k: int) -> set[int]:
    """The vertices k_caterpillar_forest drops, found round by round: every vertex with
    more than k leaf neighbors goes at once, until none is left."""
    h, dropped = g, set()
    while True:
        adj = h.adjacency()
        heavy = {v for v, ws in adj.items() if sum(len(adj[w]) == 1 for w in ws) > k}
        if not heavy:
            return dropped
        dropped |= heavy
        h = h.delete_vertices(heavy)


# The leaf-core constructors: the degree bound k (None for star_forest) and the
# engine kind with the label of a core vertex by how many leaves it carries.
LEAFY = {
    "star": (None, "ab", lambda carried: "B" if carried else "A"),
    "caterpillar2": (2, "abc", lambda carried: "A" if carried == 0 else ("B" if carried == 1 else "C")),
    "caterpillar3": (3, "abc", lambda carried: "A" if carried <= 1 else ("B" if carried == 2 else "C")),
}


@pytest.mark.parametrize("name", LEAFY)
def test_each_core_keeps_its_own_constrained_bound(name):
    # only the whole graph's certificate is checked when the constructors run;
    # the lemma they rest on is that what the engine keeps of each leaf-stripped
    # core meets that core's abc/abstar bound in the engine's class
    k, kind, label = LEAFY[name]
    row = construct.KINDS[kind]
    cores = 0
    for g in (*small_graphs(5), *(g for g, _ in seeded_gnp()), *families(), *seeded_unions()):
        chosen = (star_forest(g) if k is None else k_caterpillar_forest(g, k)).vertex_set
        h = g if k is None else g.delete_vertices(overloaded(g, k))
        adj = h.adjacency()
        for comp in h.components():
            if len(comp) <= 2:
                assert chosen >= comp, g.edges()
                continue
            leaves = {v for v in comp if len(adj[v]) == 1}
            assert chosen >= leaves, g.edges()
            core = h.induced(comp - leaves)
            labels = Partition({v: label(len(adj[v] & leaves)) for v in core.vertices}, row.mode)
            bound = total_weight(graph_counts(core, row.spec, labels), row.spec)
            kept = ForestCertificate(chosen & frozenset(core.vertices), row.forest, bound)
            assert verify_certificate(core, kept, labels), (g.edges(), sorted(core.vertices))
            cores += 1
    assert cores > 1000


ROWS = {
    "star": ("star", None), "caterpillar": ("caterpillar", None),
    "caterpillar2": ("caterpillar", 2), "caterpillar3": ("caterpillar", 3),
    "linear": ("linear", None), "abc": ("abc", None), "ab": ("ab", None),
}


# A 5-cycle whose vertex 0 carries four leaves, beside a K4: k_caterpillar_forest
# drops vertex 0 at k = 2 and at k = 3.
OVERLOADED = Graph.from_edges(13, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (0, 6), (0, 7), (0, 8),
    (9, 10), (9, 11), (9, 12), (10, 11), (10, 12), (11, 12),
])


@pytest.mark.parametrize("name", ROWS)
def test_one_engine_run_and_one_certificate_per_call(monkeypatch, name):
    # every core of the input is an instance of one engine run on one working
    # graph, whose neighbor sets are built once, also where vertices are dropped
    # first (greedy needs none), and only the whole graph's certificate is checked
    from collections import Counter

    counts = Counter()
    position_sets = Graph.position_sets

    def counted_sets(self):
        counts["position_sets"] += 1
        return position_sets(self)

    monkeypatch.setattr(Graph, "position_sets", counted_sets)

    class Counted(construct._WorkingGraph):
        def __init__(self, *args):
            counts["_WorkingGraph"] += 1
            super().__init__(*args)

    monkeypatch.setattr(construct, "_WorkingGraph", Counted)
    for fn in ("_reduce", "verify_certificate"):
        original = getattr(construct, fn)

        def counted(*args, original=original, fn=fn, **kwargs):
            counts[fn] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(construct, fn, counted)
    kind, k = ROWS[name]
    row = construct.kind_row(kind, k)
    engine = 1 if row.mode or kind == "star" or k else 0
    rng = random.Random(7)
    for g in (TWO_CORES, disjoint_union(gnp(14, 0.35, 3100), gnp(12, 0.4, 3101)), OVERLOADED):
        assert sum(len(comp) >= 3 for comp in g.components()) == 2
        p = Partition({v: rng.choice(row.mode) for v in g.vertices}, row.mode) if row.mode else None
        counts.clear()
        row.build(g, p)
        assert counts == Counter(
            _WorkingGraph=engine, _reduce=engine, verify_certificate=1, position_sets=engine
        )
    assert all(construct._overloaded(OVERLOADED.position_sets(), k) == {0} for k in (2, 3))


@pytest.mark.parametrize("build, g, kept", [
    # k = 2 drops every spine vertex, which carries three leaves: the leaves are left isolated
    (lambda g: k_caterpillar_forest(g, 2), comb(1100, 3), set(range(1100, 4400))),
    (lambda g: k_caterpillar_forest(g, 2), star_graph(5), set(range(1, 6))),
    (star_forest, Graph.from_edges(7, [(0, 1), (2, 3), (4, 5)]), set(range(7))),
], ids=["comb-k2", "star5-k2", "matching-star"])
def test_no_engine_run_without_a_core(monkeypatch, build, g, kept):
    # with every vertex dropped, a leaf or isolated there is no core, and an engine run
    # over no labelled position would keep nothing: none is made
    reduce, calls = construct._reduce, []

    def counted(*args, **kwargs):
        calls.append(args)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(construct, "_reduce", counted)
    assert build(g).vertex_set == kept and calls == []
    empty = [set() for _ in g.vertices]
    assert reduce(g.vertices, empty, [None] * g.n, construct.KINDS["abc"], split=True)[0] == set()

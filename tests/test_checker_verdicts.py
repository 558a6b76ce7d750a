"""Certificate verdicts against the benchmark's independent checker.

`perfbench/bench_checker.py` decides class membership (`in_class`) and the
partition condition (`partition_ok`) without importing forestbound; it is
loaded read-only, from its file, by test_checker_weights. A certificate that
claims the bound 0 must pass `verify_certificate` exactly when the checker
puts its vertex set in its class under its labels, and its text form must
read back as the same certificate and graph hash. The cases are random
subsets of seeded graphs with at most 9 vertices and the constructors'
outputs on them with one vertex dropped or added or one label flipped, and
every graph of 1 to 7 vertices whole (networkx's atlas, skipped without
networkx). The bound itself is not compared here.
"""

import random
from collections import Counter
from fractions import Fraction as F

import pytest
from test_checker_weights import bc

from forestbound.check import (
    CATERPILLAR_FOREST,
    LINEAR_FOREST,
    STAR_FOREST,
    ForestCertificate,
    ForestClass,
    certificate_from_text,
    certificate_to_text,
    verify_certificate,
)
from forestbound.construct import KINDS, kind_row
from forestbound.graph import Graph
from forestbound.partition import Partition

CLASSES = [LINEAR_FOREST, STAR_FOREST, CATERPILLAR_FOREST,
           *(ForestClass("caterpillar", k) for k in (2, 3, 4))]
# the classes whose kinds read a partition, and that partition's mode
MODES = {LINEAR_FOREST: "ABC", STAR_FOREST: "AB"}
ROWS = [*KINDS.values(), *(kind_row("caterpillar", k) for k in (2, 3, 4))]
GRAPHS = 80
SUBSETS = 3


def seeded_graph(rng: random.Random) -> Graph:
    n, p = rng.randint(1, 9), rng.random()
    adj = {v: set() for v in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return Graph({v: frozenset(nbrs) for v, nbrs in adj.items()})


def random_labels(rng: random.Random, g: Graph, mode: str) -> Partition:
    return Partition({v: rng.choice(mode) for v in g.vertices}, mode)


def both_verdicts(g: Graph, vertices, forest: ForestClass, labels=None) -> bool:
    """verify_certificate's verdict on vertices, after checking that it is
    the checker's and that the certificate's text reads back unchanged."""
    adj, s = list(g.adjacency().values()), set(vertices)
    expected = bc.in_class(adj, s, forest.kind, forest.k) and (
        labels is None or bc.partition_ok(adj, s, dict(labels.labels), labels.mode.lower())
    )
    cert = ForestCertificate(frozenset(vertices), forest, F(0))
    got = verify_certificate(g, cert, labels)
    assert got == expected, (g.edges(), sorted(s), forest, labels)
    h = g.edge_hash()
    assert certificate_from_text(certificate_to_text(cert, h)) == (cert, h)
    return got


def mutants(g: Graph, vertices: frozenset, labels):
    """vertices with one vertex dropped or added, each under labels, then
    vertices under labels with one vertex's label changed."""
    for v in g.vertices:
        yield vertices ^ {v}, labels
    for v in g.vertices if labels is not None else ():
        for part in set(labels.mode) - {labels.part(v)}:
            yield vertices, Partition({**labels.labels, v: part}, labels.mode)


def test_verdicts_match_the_independent_checker():
    rng = random.Random(12)
    verdicts = Counter()
    for _ in range(GRAPHS):
        g = seeded_graph(rng)
        for forest in CLASSES:
            mode = MODES.get(forest)
            for labels in (None, random_labels(rng, g, mode)) if mode else (None,):
                for _ in range(SUBSETS):
                    s = {v for v in g.vertices if rng.random() < 0.6}
                    verdicts[both_verdicts(g, s, forest, labels)] += 1
        for row in ROWS:
            labels = random_labels(rng, g, row.mode) if row.mode else None
            cert, _ = row.build(g, labels)
            assert both_verdicts(g, cert.vertex_set, row.forest, labels)
            for vertices, mutant_labels in mutants(g, cert.vertex_set, labels):
                verdicts[both_verdicts(g, vertices, row.forest, mutant_labels)] += 1
    assert sum(verdicts.values()) >= 2000 and min(verdicts[True], verdicts[False]) >= 500, verdicts


def test_whole_atlas_graphs_match_the_independent_checker():
    # each graph of 1 to 7 vertices, its whole vertex set in each class, and
    # for the two classes built on a partition once more under seeded labels
    nx = pytest.importorskip("networkx")
    rng = random.Random(27)
    verdicts = Counter()
    for atlas_graph in nx.graph_atlas_g()[1:]:
        g = Graph.from_edges(atlas_graph.number_of_nodes(), atlas_graph.edges())
        for forest in CLASSES:
            verdicts[both_verdicts(g, g.vertices, forest)] += 1
            if forest in MODES:
                verdicts[both_verdicts(g, g.vertices, forest, random_labels(rng, g, MODES[forest]))] += 1
    # 1 252 graphs, 8 verdicts each; mostly refusals, as most small graphs hold a cycle
    assert sum(verdicts.values()) == 8 * 1252 and verdicts[True] >= 300, verdicts

"""Graph core: recognizers, induced subgraphs, edge-list I/O."""

import random
import re
import tracemalloc
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestbound import (
    CATERPILLAR_FOREST,
    LINEAR_FOREST,
    STAR_FOREST,
    ForestClass,
    Graph,
    ParseError,
    UnknownVertex,
    format_edge_list,
    parse_edge_list,
)
from forestbound import graph as graph_module
from forestbound.check import verify_certificate
from forestbound.construct import greedy_linear_forest
from forestbound.graph import MAX_VERTICES
from forestbound.generate import (
    complete_graph,
    cycle_graph,
    parse_gen_spec,
    path_graph,
    star_graph,
)
from forestbound.weights import parse_bound_spec


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = list(combinations(range(n), 2))
    return Graph.from_edges(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return graph_from_mask(n, mask)


@st.composite
def forests(draw, max_n=10):
    """Random labeled forest: each vertex optionally attaches to an earlier one."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for v in range(1, n):
        if draw(st.booleans()):
            edges.append((draw(st.integers(min_value=0, max_value=v - 1)), v))
    return Graph.from_edges(n, edges)


class TestInducedSubgraph:
    def test_k4_two_vertices_is_edge(self):
        sub = complete_graph(4).induced({1, 3})
        assert sub.n == 2 and sub.m == 1

    def test_c5_minus_vertex_is_p4(self):
        sub = cycle_graph(5).induced({1, 2, 3, 4})
        assert sub.n == 4 and sub.m == 3 and LINEAR_FOREST.contains(sub)

    def test_empty_subset(self):
        sub = complete_graph(4).induced(set())
        assert sub.n == 0 and sub.m == 0

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            complete_graph(3).induced({0, 7})

    def test_identifiers_survive(self):
        g = cycle_graph(5).delete_vertices((0,))
        assert g.vertices == (1, 2, 3, 4)
        deg = dict(zip(g.vertices, g.degrees()))
        assert deg[1] == 1 and deg[2] == 2


class TestRecognizers:
    def test_path_is_linear(self):
        assert LINEAR_FOREST.contains(path_graph(5))

    def test_claw_is_not_linear(self):
        assert not LINEAR_FOREST.contains(star_graph(3))

    def test_triangle_is_not_linear(self):
        assert not LINEAR_FOREST.contains(cycle_graph(3))

    def test_claw_caterpillar_degree_bounds(self):
        assert ForestClass("caterpillar", 3).contains(star_graph(3))
        assert not ForestClass("caterpillar", 2).contains(star_graph(3))

    def test_spider_is_not_caterpillar(self):
        # three legs of length 2: removing leaves leaves a claw, not a path
        spider = Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        assert strip_leaves_is_path_oracle(spider) is False
        assert not CATERPILLAR_FOREST.contains(spider)
        assert CATERPILLAR_FOREST.contains(star_graph(3))

    def test_star_forest_members(self):
        assert STAR_FOREST.contains(star_graph(5))
        assert not STAR_FOREST.contains(path_graph(4))
        two_comp = Graph.from_edges(3, [(0, 1)])
        assert STAR_FOREST.contains(two_comp)

    def test_isolated_vertices_allowed_everywhere(self):
        g = Graph.from_edges(3, [])
        assert all(cls.contains(g) for cls in (LINEAR_FOREST, CATERPILLAR_FOREST, STAR_FOREST))

    def test_bad_k(self):
        with pytest.raises(ValueError):
            ForestClass("caterpillar", 1).contains(path_graph(2))


def strip_leaves_is_path_oracle(g: Graph) -> bool:
    """Leaf-removal oracle for caterpillar trees: spine must be empty/path."""
    if g.m != g.n - len(g.components()):  # acyclic iff m = n - #components
        return False
    for comp in g.components():
        sub = g.induced(comp)
        spine = {v for v, d in zip(sub.vertices, sub.degrees()) if d >= 2}
        core = sub.induced(spine)
        if core.n and (max(core.degrees()) > 2 or len(core.components()) > 1):
            return False
    return True


def acyclic_by_union_find(g: Graph) -> bool:
    parent = {v: v for v in g.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges():
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def test_linear_forest_forbidden_structure_exhaustive():
    """Exhaustive n <= 6: linear forest iff no cycle and no vertex of degree >= 3."""
    for n in range(1, 7):
        total = 1 << (n * (n - 1) // 2)
        for mask in range(total):
            g = graph_from_mask(n, mask)
            expected = acyclic_by_union_find(g) and all(d <= 2 for d in g.degrees())
            assert LINEAR_FOREST.contains(g) == expected, (n, mask)


def test_caterpillar_and_star_against_oracles_small():
    for n in range(1, 6):
        total = 1 << (n * (n - 1) // 2)
        for mask in range(total):
            g = graph_from_mask(n, mask)
            caterpillar = strip_leaves_is_path_oracle(g)
            assert CATERPILLAR_FOREST.contains(g) == caterpillar
            for k in (2, 3):
                bounded = caterpillar and max(g.degrees(), default=0) <= k
                assert ForestClass("caterpillar", k).contains(g) == bounded, (mask, k)
            deg = dict(zip(g.vertices, g.degrees()))
            star_expected = acyclic_by_union_find(g) and all(
                not (deg[u] >= 2 and deg[v] >= 2) for u, v in g.edges()
            )
            assert STAR_FOREST.contains(g) == star_expected


@settings(max_examples=80, deadline=None)
@given(graphs(), st.data())
def test_recognizers_hereditary(g, data):
    outer = data.draw(st.sets(st.sampled_from(sorted(g.vertices)), max_size=g.n))
    inner = data.draw(st.sets(st.sampled_from(sorted(outer) or [0]), max_size=len(outer))) if outer else set()
    inner &= outer
    big, small = g.induced(outer), g.induced(inner)
    for check in (
        LINEAR_FOREST.contains,
        STAR_FOREST.contains,
        CATERPILLAR_FOREST.contains,
        ForestClass("caterpillar", 3).contains,
    ):
        if check(big):
            assert check(small)


@settings(max_examples=120, deadline=None)
@given(forests())
def test_class_containment_chain(f):
    if STAR_FOREST.contains(f):
        assert CATERPILLAR_FOREST.contains(f)
    if CATERPILLAR_FOREST.contains(f) and max(f.degrees(), default=0) <= 2:
        assert LINEAR_FOREST.contains(f)
    # every forest with max degree <= 2 is linear, and every linear forest is
    # a caterpillar forest
    if LINEAR_FOREST.contains(f):
        assert ForestClass("caterpillar", 2).contains(f)


# Pieces of texts in the two-tokens-a-line formats: odd but valid integer
# spellings and bad ones; leading blanks and separators inside a line (\x1f
# is whitespace but no line break); line breaks (\x1c and \x0b are line
# breaks too), and breaks that bring blank, whitespace-only or comment lines.
# The token readers' shape keeps to SHAPED_INNER and SHAPED_BREAKS, no lead.
ODD_TOKENS = ["+3", "1_0", "\u0663", "\uff11", "03", "-0", "-1", "x", "1.0", "\u00b2"]
LEADS = ["", " ", "\t"]
SHAPED_INNER = [" ", "\t"]
INNER = SHAPED_INNER + ["  ", "\x1f", " \t "]
SHAPED_BREAKS = ["\n", "\r\n"]
BREAKS = SHAPED_BREAKS + ["\x1c", "\x0b", "\n\n", "\n \t\n", "  # c\n", "\n#\n", "#"]


@st.composite
def pair_texts(draw, first, second, header=None):
    """Lines of two tokens, drawn from the strategies first and second or
    now and then from ODD_TOKENS, with a row of one or three tokens now and
    then. header(number of rows, draw) gives an optional first row. About
    half the texts keep to the token readers' line shape but for those odd
    tokens and rows (no leading blank, one space or tab between the tokens,
    LF or CRLF breaks), so that both readers see them."""
    def token(values):
        return draw(st.sampled_from(ODD_TOKENS)) if draw(st.integers(0, 15)) == 0 else draw(values)

    rows = [[token(first), token(second)] for _ in range(draw(st.integers(0, 7)))]
    for row in rows:
        if draw(st.integers(0, 20)) == 0:
            row[1:] = [] if draw(st.booleans()) else [row[1], token(second)]
    if header is not None:
        rows.insert(0, header(len(rows), draw))
    leads, inner, breaks = ([""], SHAPED_INNER, SHAPED_BREAKS) if draw(st.booleans()) else (
        LEADS, INNER, BREAKS)
    return "".join(
        draw(st.sampled_from(leads)) + draw(st.sampled_from(inner)).join(row)
        + draw(st.sampled_from(breaks))
        for row in rows
    )


def edge_list_texts():
    """Edge lists on ids 0..4, mostly with n = 5 and a true edge count (else
    one too many or too few); the ids repeat, in either order, and lie out of
    range if n is 0 or 3."""
    def header(m, draw):
        n = draw(st.sampled_from([0, 3, 5, 5, 5, 5]))
        return [str(n), str(draw(st.sampled_from([m, m, m, m + 1, max(m - 1, 0)])))]

    ids = st.integers(0, 4).map(str)
    return pair_texts(ids, ids, header)


# Pieces of texts near the edge-list reader's line shape: tokens with leading zeros or none
# at all, blanks doubled or next to a stray `\r`, and line ends with a stray `\r`, `#` or blank
NEAR_TOKENS = ["0", "1", "2", "3", "4", "5", "10", "03", "00", "010", ""]
NEAR_INNER = [" ", " ", "\t", "  ", " \t", "\r ", " \r", ""]
NEAR_BREAKS = ["\n", "\n", "\r\n", "\r\r\n", "\n\r", "\r", "#\n", " \n", "\n\n"]


@st.composite
def near_shape_texts(draw):
    """Edge lists on ids 0..4 of mostly the token reader's line shape, now and then a token,
    a blank or a line end drawn from the NEAR_ pieces; the header's edge count is mostly
    true, the last line end optional, and in half the texts each row u <= v in sorted order."""
    def piece(shaped, near):
        return draw(st.sampled_from(near)) if draw(st.integers(0, 5)) == 0 else shaped

    rows = [[str(draw(st.integers(0, 4))), str(draw(st.integers(0, 4)))]
            for _ in range(draw(st.integers(0, 6)))]
    if draw(st.booleans()):
        rows = sorted(map(sorted, rows))
    m = draw(st.sampled_from([len(rows)] * 3 + [len(rows) + 1]))
    rows.insert(0, [draw(st.sampled_from(["3", "5", "5"])), str(m)])
    text = "".join(piece(u, NEAR_TOKENS) + piece(" ", NEAR_INNER) + piece(v, NEAR_TOKENS)
                   + piece("\n", NEAR_BREAKS) for u, v in rows)
    return text if draw(st.booleans()) else text.removesuffix("\n")


@st.composite
def reference_shape_texts(draw):
    """Texts of REFERENCE_SHAPE's lines: ASCII numbers with no leading zero, one space or tab,
    an optional `\r` before each line end, the last line end optional; no graph in most."""
    number = st.integers(0, 10**6).map(str)
    lines = [draw(number) + draw(st.sampled_from(SHAPED_INNER)) + draw(number)
             + draw(st.sampled_from(["", "\r"])) for _ in range(draw(st.integers(1, 8)))]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def simple_graph_text(seed: int) -> str:
    """The edge list of a random simple graph in the token readers' shape: a true header, then
    distinct unordered pairs below n in random order, each in either orientation, one space or
    tab between the tokens and LF or CRLF line ends. The token reader takes every one."""
    rng = random.Random(seed)
    n, p = rng.randint(0, 12), rng.random()
    edges = [e if rng.random() < 0.5 else e[::-1]
             for e in combinations(range(n), 2) if rng.random() < p]
    rng.shuffle(edges)
    return "".join(f"{a}{rng.choice(SHAPED_INNER)}{b}{rng.choice(SHAPED_BREAKS)}"
                   for a, b in [(n, len(edges)), *edges])


# drawn by seed, as hypothesis draws one integer faster than a draw per edge
simple_graph_texts = st.integers(0, 2**32 - 1).map(simple_graph_text)


def plain_graph_text(seed: int) -> str:
    """The edge list of a random simple graph as the degree pass takes it: a true header, then
    each line u < v and the lines in increasing order, one space or tab between the tokens and
    LF or CRLF line ends."""
    rng = random.Random(seed)
    n, p = rng.randint(0, 40), rng.random()
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return "".join(f"{a}{rng.choice(SHAPED_INNER)}{b}{rng.choice(SHAPED_BREAKS)}"
                   for a, b in [(n, len(edges)), *edges])


plain_graph_texts = st.integers(0, 2**32 - 1).map(plain_graph_text)


@st.composite
def near_plain_texts(draw):
    """A plain_graph_text with one line repeated, moved, reversed or dropped, or one more line
    naming an id past n, the header counting its lines or not: most of them not plain."""
    header, *lines = plain_graph_text(draw(st.integers(0, 2**32 - 1))).splitlines(keepends=True)
    n = int(header.split()[0])
    i, j = (draw(st.integers(0, max(len(lines) - 1, 0))) for _ in range(2))
    change = draw(st.sampled_from(["repeat", "move", "reverse", "drop", "outside"]))
    if change == "outside" or not lines:
        lines.append(f"{max(n - 1, 0)} {n}\n")
    elif change == "repeat":
        lines.insert(j, lines[i])
    elif change == "move":
        lines.insert(j, lines.pop(i))
    elif change == "reverse":
        u, v = lines[i].split()
        lines[i] = f"{v} {u}\n"
    else:
        del lines[i]
    m = len(lines) if draw(st.booleans()) else header.split()[1]
    return f"{n} {m}\n" + "".join(lines)


def seam_text(line: str) -> str:
    """The path 10-11-...-40 on 50 vertices with its third line replaced by `line`: lines of six
    characters, so that blocks of 8 characters hold two lines each and the third opens the
    second block."""
    rows = [f"{i} {i + 1}\n" for i in range(10, 40)]
    rows[2] = f"{line}\n"
    return "50 30\n" + "".join(rows)


def assert_same_outcome(read, reference, text, *args, key):
    """read(text, *args) gives what reference does, compared by key, or
    raises a ParseError with the same message; returns the result."""
    try:
        expected = reference(text, *args)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            read(text, *args)
        assert str(got.value) == str(exc), repr(text)
        return None
    assert key(read(text, *args)) == key(expected), repr(text)
    return expected


def line_reader(module, read):
    """read with module's token reader switched off: the line loop alone."""
    def read_lines(*args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "pairs_per_line", lambda text: False)
            return read(*args)

    return read_lines


def plain_variants(text: str) -> list[str]:
    """text, with LF, CRLF and tab separators: the files the token reader takes."""
    plains = [text, text.replace("\n", "\r\n"), text.replace(" ", "\t")]
    assert "\r\n" not in plains[0] and "\r\n" in plains[1] and "\t" in plains[2]
    return plains


def traced_peak(f) -> tuple[object, int]:
    """f() and the traced peak of memory allocated while it ran, in bytes."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_line_test_is_flat(pairs_per_line, text: str):
    """pairs_per_line takes text, and its traced peak stays under 64 KB."""
    matched, peak = traced_peak(lambda: pairs_per_line(text))
    assert matched
    assert peak < 64 * 1024, f"peak {peak} bytes"


def graph_key(g: Graph):
    return g.vertices, list(g.adjacency().items())


LINE_READER = line_reader(graph_module, parse_edge_list)


def read_degrees(text: str) -> list[int]:
    return parse_edge_list(text, degrees=True)


def line_reader_degrees(text: str) -> list[int]:
    return LINE_READER(text).degrees()


def assert_degrees_agree(text: str):
    """parse_edge_list's degrees of text are the line reader's graph's, or its ParseError, and
    the degree pass that keeps no edge, where it answers, gives them too."""
    deg = assert_same_outcome(read_degrees, line_reader_degrees, text, key=list)
    plain = graph_module._plain_degrees(text) if graph_module.pairs_per_line(text) else None
    if plain is not None:
        assert plain == deg, repr(text)


def assert_degrees_match_sets(text: str):
    """The degrees and leaf tags of the graph of text, each counted off its
    edge arrays, are those of its neighbor sets."""
    g = parse_edge_list(text)
    read = g.degrees(), g.leaf_tags(g.degrees())
    adj = g.adjacency()
    degree = {v: len(ws) for v, ws in adj.items()}
    tags = [degree[min(adj[v])] if degree[v] == 1 else None for v in g.vertices]
    assert read == (list(degree.values()), tags), repr(text)


# an edge list's line shape as one pattern: two ASCII-decimal numbers with no leading zero, one
# space or tab between them, an optional `\r`. The edge-list reader's blank test lets through
# every text it matches, and the token reader reads each such text that holds a graph
REFERENCE_LINE = r"(?>0|[1-9][0-9]*+)[ \t](?>0|[1-9][0-9]*+)\r?+"
REFERENCE_SHAPE = re.compile(rf"{REFERENCE_LINE}(?:\n{REFERENCE_LINE})*+\n?+").fullmatch


def assert_readers_agree(text: str):
    """Both readers give text the same graph or the same ParseError, a good text of the plain
    shape is read token by token, and a graph's degrees are those of its neighbor sets."""
    g = assert_same_outcome(parse_edge_list, LINE_READER, text, key=graph_key)
    if REFERENCE_SHAPE(text):
        assert graph_module.pairs_per_line(text), repr(text)
        if g is not None:
            assert graph_module._parse_tokens(text) is not None, repr(text)
    if g is not None:
        assert_degrees_match_sets(text)
    assert_degrees_agree(text)


def path_text(n: int, *extra: str, eol: str = "\n", final: bool = True) -> str:
    """The edge list of the path 0-1-...-(n-1) with the rows `extra` after it, the header
    counting them, lines ended by eol (the last one too if final)."""
    rows = [f"{n} {n - 1 + len(extra)}", *(f"{i} {i + 1}" for i in range(n - 1)), *extra]
    return eol.join(rows) + (eol if final else "")


def block_end_path_text() -> str:
    """A path text with no final line break whose last `\n` is the first at or past a block's
    length into the edge lines: the token reader's last block is that line alone."""
    rows = "".join(f"{i} {i + 1}\n" for i in range(graph_module._BLOCK))
    return path_text(rows.count("\n", 0, graph_module._BLOCK) + 3, final=False)


# texts of the token readers' line shape, read without the line reader
PLAIN_SHAPES = [
    "3 2\n0\t1\n1 2\n",
    "3 2\n0 1\r\n1 2\n",
    "3\t2\r\n0 1\n1\t2\r",
    "4 3\n0\t1\r\n1 2\n2\t3",
]


class TestEdgeListFormat:
    def test_round_trip(self):
        g = cycle_graph(6)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blanks(self):
        text = "# a comment\n\n3 2\n0 1  # inline\n\n1 2\n"
        g = parse_edge_list(text)
        assert g.n == 3 and g.m == 2

    # each malformed input and the message it must raise
    PARSE_ERRORS = {
        "": "missing `n m` header",
        "3\n": "line 1: header must be `n m`",
        "3 x\n": "line 1: header must be two integers",
        "# c\n-1 0\n": "line 2: negative counts",
        # the vertex limit is checked before the edge count
        f"{MAX_VERTICES + 1} 1\n": f"line 1: {MAX_VERTICES + 1} vertices exceed the limit",
        "3 2\n0 1\n": "header declares 2 edges but 1 edge lines found",
        "2 1\n0 1 2\n": "line 2: expected `u v`",
        "2 1\n0 5\n": "line 2: vertex out of range 0..1",
        "2 1\n1 1\n": "line 2: self-loop at 1",
        "2 1\n0 x\n": "line 2: vertices must be integers",
        "2 2\n0 1\n1 0\n": "line 3: duplicate edge 1 0",
    }

    @pytest.mark.parametrize("text", list(PARSE_ERRORS))
    def test_parse_errors(self, text):
        with pytest.raises(ParseError, match=re.escape(self.PARSE_ERRORS[text])):
            parse_edge_list(text)

    def test_isolated_vertices_cost_no_set_each(self):
        # a header n with no edges must not cost one object per vertex
        tracemalloc.start()
        try:
            g = parse_edge_list("300000 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 300000 and g.m == 0
        assert peak < 50e6, f"peak {peak / 1e6:.1f} MB"

    def test_isolated_vertices_among_edges(self):
        g = parse_edge_list("6 2\n1 4\n4 2\n")
        assert g.vertices == tuple(range(6))
        assert g.degrees() == [0, 1, 1, 0, 2, 0]
        assert g == Graph.from_edges(6, [(1, 4), (4, 2)])

    def test_membership_before_and_after_the_sets(self):
        parsed, built = parse_edge_list("4 2\n0 1\n2 3\n"), Graph.from_edges(4, [(0, 1), (2, 3)])
        keys = (0, 3, 1.0, True, Fraction(3), 3.0, -1, 4, 2.5, "0", -2.0)
        for g in (parsed, built):
            assert [v in g for v in keys] == [True] * 6 + [False] * 5
            with pytest.raises(TypeError):
                [0] in g
        assert parsed.adjacency()[0] == {1} and 1.0 in parsed and 4 not in parsed

    def test_membership_compares_a_key_at_most_once(self):
        # a key that is not an int is compared only with the vertex its hash
        # names, not with every vertex in turn
        class Probe:
            def __init__(self, h):
                self.h, self.compared = h, 0

            def __hash__(self):
                return self.h

            def __eq__(self, other):
                self.compared += 1
                return other == self.h

        g = parse_edge_list(f"{MAX_VERTICES} 0\n")
        probes = [Probe(h) for h in (0, MAX_VERTICES - 1, MAX_VERTICES, -5)]
        assert [p in g for p in probes] == [True, True, False, False]
        assert max(p.compared for p in probes) <= 1
        # the ids of an induced graph are not 0..n-1: a key is still compared at most once
        evens = g.induced(range(0, MAX_VERTICES, 2))
        probes = [Probe(h) for h in (0, 1, 2, MAX_VERTICES - 2, MAX_VERTICES - 1, -5)]
        assert [p in evens for p in probes] == [True, False, True, True, False, False]
        assert max(p.compared for p in probes) <= 1

    def test_add_edge_before_the_sets(self):
        g = parse_edge_list("4 2\n0 1\n2 3\n")
        assert g.add_edge(1, 2) == Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert parse_edge_list("2 1\n0 1\n").add_edge(1, 0).m == 1

    def test_parsed_graph_hashes_as_an_equal_built_one(self):
        g, h = parse_edge_list("4 2\n2 3\n0 1\n"), Graph.from_edges(4, [(0, 1), (2, 3)])
        assert g == h and hash(g) == hash(h) and len({g, h}) == 1
        assert hash(g) != hash(Graph.from_edges(4, [(0, 1), (1, 2)]))
        assert repr(g) == "Graph(n=4, m=2)" and repr(Graph.from_edges(0, [])) == "Graph(n=0, m=0)"

    # texts of the shapes each reader must treat alike, one feature each
    SAME_OUTCOME = [
        "3 2\r\n0 1\r\n1 2\r\n",
        "3 2\n0\t1\n\t1  2 \n",
        "3 2\x1c0 1\x0b1 2",
        "3 2\n0\x1f1\n1 2\n",
        "4 1\n+3 1_0\n",
        "11 1\n+3 1_0\n",
        "4 1\n٣ １\n",
        "4 1\n-0 3\n",
        "4 1\n-1 3\n",
        "-1 0\n",
        "3 -1\n",
        "0 0\n",
        "0 0",
        "3 0\n",
        "3 1\n2 2\n",
        "3 2\n0 1\n0 1\n",
        "3 2\n0 1\n1 0\n",
        "3 1\n0 3\n",
        "3 1\n0 x\n",
        "3 2\n0 1\n",
        "3 1\n0 1\n1 2\n",
        "3 1\n0 1\n1 0\n",
        "3 1\n0 1 2\n",
        "3 1\n\n0 1\n",
        "3 1\n  \n0 1\n",
        "3 1\n0 1 # c\n",
        f"{MAX_VERTICES + 1} 0\n",
        # decided by the token reader's up-front check alone
        "3 1\n0 0\n",
        "3 2\n0 1\n2 2\n",
        "3 1\n3 0\n",
        "3 2\n1 0\n0 3\n",  # 0 3 would share the key 0*3 + 3 of 1 0
        "3 1\n1 0\n",
        "1 0",
        "4 3\n0 1\n2 3\n1 0\n",
        "4 3\n2 1\n0 3\n2 1\n",
        # at the edges of the token reader's line pattern
        "3 2\n0 1 \t\n1 2\t\n",
        "3 2\r\r\n0 1\r\r\n1 2\r\r\n",
        "3 2\n0 1\n1 2",
        "3 2\n0 1\n1 2\n\n",
        "010 2\n007 1\n1 009\n",
        "3 1\n0 1#c\n",
        "3 2\n0\x0c1\n1 2\n",
        "5 4\n0 1\n1 2\n2 3\n3 4 0\n",
        "3 1\n0 1\n0 1\n",  # a repeat that keeps the key count at m
        # passed by the token reader's blank test, then turned down by JSON or the repeat check
        "5 1\n03 1\n",
        " \n03010 00",
        "3 1\n1\r 2\n",
        "3 1\n1 \r2\n",
        "3 1\n0 1\r\r\n",
        "3 3\n0 1\n1 2\n0 1\n",
        "3 2\n0 2\n0 1\n",  # u < v but not in increasing order: the set's check
        # the token readers' line shape: no leading zero, blank or trailing blank, one
        # space or tab between the tokens, an optional `\r` at the end
        "3 2\n00 1\n1 2\n",
        "03 2\n0 1\n1 2\n",
        "3 2\n0  1\n1 2\n",
        "3 2\n 0 1\n1 2\n",
        "3 2\n0 1 \n1 2\n",
        "3 2\n0 1\n1 2\n\r",
        *PLAIN_SHAPES,
        # past int's digit limit: a ParseError, not int's ValueError
        pytest.param("9" * 5000 + " 1\n0 1\n", id="5000-digit-n"),
        pytest.param("3 1\n0 " + "1" * 5000 + "\n", id="5000-digit-end"),
        # many blocks of the token reader, the fault in a later one
        pytest.param(path_text(20000), id="blocks"),
        pytest.param(path_text(20000, eol="\r\n"), id="blocks-crlf"),
        pytest.param(path_text(20000, final=False), id="blocks-no-final-newline"),
        pytest.param(block_end_path_text(), id="blocks-no-final-newline-at-block-end"),
        pytest.param(path_text(20000, "19998 " + "1" * 5000), id="blocks-5000-digit-token"),
        pytest.param(path_text(20000).replace("\n15000 ", "\n" + "1" * 5000 + " ", 1),
                     id="blocks-5000-digit-token-mid-block"),
        pytest.param(path_text(20000, "19998 19998"), id="blocks-self-loop"),
        pytest.param(path_text(20000, "5 6"), id="blocks-repeat"),
        pytest.param(path_text(20000, "6 5"), id="blocks-reversed-repeat"),
        pytest.param(path_text(20000, "19998 20000"), id="blocks-out-of-range"),
        pytest.param(path_text(20000).replace(" 19999\n", " 20000\n", 1), id="blocks-line-missing"),
    ]

    @pytest.mark.parametrize("text", SAME_OUTCOME)
    def test_readers_agree_on_cases(self, text):
        assert_readers_agree(text)

    @pytest.mark.parametrize("text", SAME_OUTCOME)
    def test_readers_agree_on_cases_in_short_blocks(self, text, monkeypatch):
        # a block of 8 characters ends at nearly every line end, one of 4 of the blank test
        # at every line end
        monkeypatch.setattr(graph_module, "_BLOCK", 8)
        monkeypatch.setattr(graph_module, "_SHAPE_BLOCK", 4)
        assert_readers_agree(text)

    @settings(max_examples=400, deadline=None)
    @given(edge_list_texts())
    def test_readers_agree(self, text):
        assert_readers_agree(text)

    @settings(max_examples=400, deadline=None)
    @given(near_shape_texts())
    def test_readers_agree_near_the_line_shape(self, text):
        assert_readers_agree(text)

    @settings(max_examples=200, deadline=None)
    @given(reference_shape_texts())
    def test_blank_test_takes_the_reference_shape(self, text):
        # the blank test follows from the pattern: it turns down no text that matches it
        assert REFERENCE_SHAPE(text) and graph_module.pairs_per_line(text)

    @settings(max_examples=200, deadline=None)
    @given(simple_graph_texts)
    def test_readers_agree_on_simple_graphs(self, text):
        # edge_list_texts draws few texts the token reader takes: these it takes all
        assert graph_module._parse_tokens(text) is not None
        assert_readers_agree(text)

    @settings(max_examples=200, deadline=None)
    @given(plain_graph_texts, st.sampled_from([graph_module._BLOCK, 8, 16]))
    def test_degree_pass_takes_plain_texts(self, text, block):
        # it answers on every plain text, in blocks of any size, with the graph's degrees
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_module, "_BLOCK", block)
            assert graph_module._plain_degrees(text) == parse_edge_list(text).degrees()

    @settings(max_examples=300, deadline=None)
    @given(near_plain_texts(), st.sampled_from([graph_module._BLOCK, 8]))
    def test_degree_pass_answers_only_with_the_graphs_degrees(self, text, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_module, "_BLOCK", block)
            assert_degrees_agree(text)

    @pytest.mark.parametrize("line", ["11 12", "10 12"], ids=["repeat", "decreasing"])
    def test_a_break_at_a_block_seam_takes_the_graph_path(self, line, monkeypatch):
        # each block alone is increasing, so only the check across the seam sees a repeat of
        # the line before it, or a line below it; the line reader then names the repeat
        monkeypatch.setattr(graph_module, "_BLOCK", 8)
        text = seam_text(line)
        _, *blocks = graph_module._blocks(text)
        assert [len(us) for us, _, _ in blocks] == [2] * 15
        assert [plain for _, _, plain in blocks] == [True, False] + [True] * 13
        assert graph_module._plain_degrees(text) is None
        if line == "11 12":
            with pytest.raises(ParseError, match=r"^line 4: duplicate edge 11 12$"):
                LINE_READER(text)
        assert_degrees_agree(text)

    def test_plain_file_skips_line_reader(self, monkeypatch):
        g = Graph.from_edges(40, [(u, (3 * u + 7) % 40) for u in range(0, 40, 2)])
        text = format_edge_list(g)

        def fail(text):
            raise AssertionError("line loop reached")

        monkeypatch.setattr(graph_module, "content_lines", fail)
        for plain in plain_variants(text):
            assert graph_key(parse_edge_list(plain)) == graph_key(g)

    @pytest.mark.parametrize("text", PLAIN_SHAPES)
    def test_plain_shapes_skip_line_reader(self, text, monkeypatch):
        expected = graph_key(LINE_READER(text))
        monkeypatch.setattr(graph_module, "content_lines", None)  # a call raises TypeError
        assert graph_key(parse_edge_list(text)) == expected

    def test_line_reader_builds_its_own_graph(self, monkeypatch):
        # the line reader makes the graph of the pairs it has checked: no second pass
        texts = [path_text(300, eol="\r\n"), PLAIN_SHAPES[2], "# c\n3 2\n0  1\n 2 1 # d\n"]
        expected = [graph_key(parse_edge_list(text)) for text in texts]
        monkeypatch.setattr(graph_module, "_parse_tokens", None)  # a call raises TypeError
        assert [graph_key(LINE_READER(text)) for text in texts] == expected

    def test_one_decode_per_block(self, monkeypatch):
        # the header line is decoded, then the edge lines in blocks of _BLOCK characters that
        # run on to a line end: the 19 999 lines of 5 to 12 characters make 4 blocks
        decoded = []
        decode = graph_module._decode
        monkeypatch.setattr(graph_module, "_decode", lambda s: decode(decoded.append(s) or s))
        assert parse_edge_list(text := path_text(20000)).m == 19999
        header, *blocks = decoded
        assert header == "[20000,19999]" and len(blocks) == 4
        assert sum(map(len, blocks)) == len(text) - len("20000 19999\n") + len(blocks)
        assert all(graph_module._BLOCK <= len(b) - 2 < graph_module._BLOCK + 12 for b in blocks[:-1])

    def test_token_reader_peak_below_one_token_list(self):
        # converted a block of lines at a time, the text's tokens are never all held at
        # once: at n = 2^15, m = 1.5 n the parse peaks at 8.6 MB, their one list at 9.6 MB
        n = 1 << 15
        text = random_edge_text(n, 3 * n // 2, seed=1)
        _, tokens = traced_peak(lambda: list(map(int, text.split())))
        g, parsed = traced_peak(lambda: parse_edge_list(text))
        assert g.m == 3 * n // 2
        assert parsed < tokens, f"peak {parsed} bytes, the token list's {tokens}"

    def test_line_test_allocates_no_line_list(self):
        # one pattern match over the text: no list of lines or of tokens
        rows = "".join(f"{u} {(7 * u + 3) % 100000}\n" for u in range(100000))
        assert_line_test_is_flat(graph_module.pairs_per_line, "100000 100000\n" + rows)


def sorted_edge_list(seed: int) -> tuple[Graph, str]:
    """A random graph at n = 2^15, m = 1.5 n and its edge list as format_edge_list writes it:
    each line u < v, the lines in increasing order."""
    n = 1 << 15
    g = parse_edge_list(random_edge_text(n, 3 * n // 2, seed))
    return g, format_edge_list(g)


class TestSetFreeRepeatCheck:
    def test_sorted_file_makes_no_set(self, monkeypatch):
        g, text = sorted_edge_list(seed=1)

        def no_set(*args):
            raise AssertionError("a set was made")

        monkeypatch.setattr(graph_module, "set", no_set, raising=False)
        monkeypatch.setattr(graph_module, "content_lines", None)  # a call raises TypeError
        assert parse_edge_list(text) == g

    def test_shuffled_file_takes_the_set(self, monkeypatch):
        # the same edges in random order, a quarter of them reversed: keys in a set
        g, _ = sorted_edge_list(seed=1)
        rng = random.Random(2)
        lines = [f"{v} {u}" if rng.random() < 0.25 else f"{u} {v}" for u, v in g.edges()]
        rng.shuffle(lines)
        text = "".join(f"{line}\n" for line in [f"{g.n} {g.m}", *lines])
        made = []
        monkeypatch.setattr(graph_module, "set", lambda keys: made.append(1) or set(keys),
                            raising=False)
        monkeypatch.setattr(graph_module, "content_lines", None)
        assert parse_edge_list(text) == g and made == [1]

    def test_sorted_file_parse_peak(self):
        # with no set of m keys the parse peaks at 4.9 MB, against 8.6 MB (8 588 212 bytes)
        # when the reader made the set for every file
        g, text = sorted_edge_list(seed=1)
        parsed, peak = traced_peak(lambda: parse_edge_list(text))
        assert parsed == g
        assert peak < 6_000_000, f"peak {peak} bytes"


def random_edge_text(n: int, m: int, seed: int) -> str:
    """An edge list of m distinct random edges on 0..n-1."""
    rng, keys = random.Random(seed), set()
    while len(keys) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            keys.add((min(u, v), max(u, v)))
    return f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in keys)


def graph_reads(g: Graph, s) -> tuple:
    """What a graph gives off its edge arrays, keys in their order."""
    return (g.vertices, g.edges(), g.degrees(), g.leaf_tags(g.degrees()), g.edge_hash(), hash(g),
            list(g.adjacency().items()), list(g.adjacency(s).items()))


def assert_reads_agree(g: Graph, ref: Graph, s):
    """g reads as ref off its edge arrays, its neighbor sets among them, and g == ref."""
    assert graph_reads(g, s) == graph_reads(ref, s) and g == ref


class TestEdgeArrays:
    # edge_hash values written into certificates before the hash read a parsed graph's
    # edge arrays: a certificate verifies under either version
    PINNED_HASHES = {
        "shuffled-both-ways": ("5 6\n3 1\n0 1\n4 2\n1 2\n2 0\n3 4\n", "e2c85539de95fbbe"),
        "isolated": ("7 3\n5 2\n0 5\n2 0\n", "57634ccd313a432e"),
        "0-0": ("0 0\n", "c5a1bff5728133a9"),
        "3-0": ("3 0\n", "c60d8f32cce2baed"),
        "crlf-comments": ("# a comment\r\n4 3\r\n\r\n2 1  # tail\r\n0 3\r\n3 2\r\n",
                          "3f6608c8eeee8af1"),
    }

    @pytest.mark.parametrize("name", PINNED_HASHES)
    def test_edge_hash_is_pinned(self, name):
        text, digest = self.PINNED_HASHES[name]
        g = parse_edge_list(text)
        assert g.edge_hash() == digest
        assert Graph.from_edges(g.n, g.edges()).edge_hash() == digest

    def test_comment_file_takes_the_line_reader(self):
        assert not graph_module.pairs_per_line(self.PINNED_HASHES["crlf-comments"][0])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_parsed_graph_reads_as_a_built_one(self, seed):
        # lines shuffled and edges reversed at random. The parsed graph and the graph of the
        # same neighbor sets read as the one built from the edges; an induced subgraph and a
        # deletion (whose ids are not 0..n-1) read as the graph of their sets, picked out here
        rng = random.Random(seed)
        n = rng.randint(0, 20)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.25]
        lines = [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}" for u, v in edges]
        rng.shuffle(lines)
        text = "".join(f"{line}\n" for line in [f"{n} {len(edges)}", *lines])
        g = parse_edge_list(text)
        nbrs: dict[int, set[int]] = {v: set() for v in range(n)}
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        s = [v for v in range(n) if rng.random() < 0.6]
        assert list(g.adjacency(s).items()) == [(v, nbrs[v] & set(s)) for v in s]
        for h in (g, Graph(nbrs)):
            assert_reads_agree(h, Graph.from_edges(n, edges), s)
        t = {v for v in range(n) if rng.random() < 0.7}
        assert_reads_agree(g.induced(t), Graph({v: nbrs[v] & t for v in t}), [v for v in s if v in t])
        drop = {v for v in range(n) if rng.random() < 0.3}
        rest = {v: nbrs[v] - drop for v in range(n) if v not in drop}
        assert_reads_agree(g.delete_vertices(drop), Graph(rest), [v for v in s if v in rest])
        if n >= 2:
            a, b = rng.sample(range(n), 2)
            plus = parse_edge_list(text).add_edge(a, b)  # g itself if ab is an edge: read anew
            assert_reads_agree(plus, Graph.from_edges(n, [*edges, (a, b)]), s)

    @pytest.mark.parametrize("g", [parse_edge_list("3 2\n0 1\n1 2\n"), path_graph(3)],
                             ids=["arrays", "sets"])
    def test_adjacency_names_a_vertex_outside(self, g):
        for s, outside in (([1, 5], 5), ([-1, 0], -1), ([0, 2.5], 2.5)):
            with pytest.raises(UnknownVertex, match=f"^vertex {outside} not in graph$"):
                g.adjacency(s)
        assert g.adjacency([2, 1.0, True]) == {1: {2}, 2: {1}}

    def test_contains_leaves_parsed_sets_unbuilt(self):
        g = parse_edge_list("5 4\n0 1\n1 2\n2 3\n3 4\n")
        assert LINEAR_FOREST.contains(g) and not STAR_FOREST.contains(g)

    def test_hash_and_verify_peak_below_the_sets(self):
        # on a parsed graph edge_hash and verify_certificate build no whole-graph neighbor
        # sets: at n = 2^15, m = 1.5 n they peak at 11.2 MB, against 12.4 MB for adjacency()
        n = 1 << 15
        text = random_edge_text(n, 3 * n // 2, seed=1)
        cert = greedy_linear_forest(parse_edge_list(text))
        g = parse_edge_list(text)
        _, sets = traced_peak(g.adjacency)
        (_, verdict), checked = traced_peak(lambda: (g.edge_hash(), verify_certificate(g, cert)))
        assert verdict
        assert checked < sets, f"peak {checked} bytes, the sets' build {sets}"


class TestForestClass:
    @pytest.mark.parametrize("text", ["linear", "star", "caterpillar", "caterpillar:k=4"])
    def test_text_is_canonical(self, text):
        assert ForestClass.from_text(text).to_text() == text

    def test_text_round_trip(self):
        for cls in (
            ForestClass("linear"),
            ForestClass("star"),
            ForestClass("caterpillar"),
            ForestClass("caterpillar", 4),
        ):
            assert ForestClass.from_text(cls.to_text()) == cls

    def test_invalid(self):
        with pytest.raises(ValueError):
            ForestClass("caterpillar", 1)
        with pytest.raises(ParseError):
            ForestClass.from_text("banana")


# The three readers of the `name[:key=value,...]` grammar: each one's reader,
# a name it takes, a key that name takes and what its messages call the text.
SPEC_READERS = {
    "bound": (parse_bound_spec, "fkeps", "k", "bound spec"),
    "gen": (parse_gen_spec, "complete", "n", "generator"),
    "class": (ForestClass.from_text, "caterpillar", "k", "forest class"),
}


@pytest.mark.parametrize("reader", SPEC_READERS)
@pytest.mark.parametrize(
    "template,message",
    [
        ("{name}:{key}", "bad {what} argument '{key}' in"),  # a piece without `=`
        ("{name}:{key}=3,", "bad {what} argument '' in"),
        ("{name}:", "bad {what} argument '' in"),
        ("{name}:=3", "bad {what} argument '=3' in"),  # an empty key
        ("{name}:{key}=", "bad {what} argument '{key}=' in"),  # an empty value
        ("{name}:{key}= \t", "bad {what} argument '{key}= \\t' in"),  # a whitespace-only value
        ("{name}:{key}=3,zz=1", "unknown {what} argument 'zz' in"),
        ("{name}:{key}=3,{key}=4", "{what} argument '{key}' given twice"),
        ("{name}:{key}=3, {key} =3", "{what} argument '{key}' given twice"),
    ],
)
def test_spec_readers_reject_alike(reader, template, message):
    read, name, key, what = SPEC_READERS[reader]
    text = template.format(name=name, key=key)
    with pytest.raises(ParseError, match=re.escape(message.format(key=key, what=what))):
        read(text)


@pytest.mark.parametrize("reader", SPEC_READERS)
@pytest.mark.parametrize(
    "template", [" {name} : {key} = 3 ", "{name}:\t{key}=3", "{name}\n:{key}=3"]
)
def test_spec_readers_drop_whitespace_alike(reader, template):
    read, name, key, _ = SPEC_READERS[reader]
    assert read(template.format(name=name, key=key)).to_text() == f"{name}:{key}=3"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Graph.from_edges(3, [(0, 1), (1, 1)]), ParseError, "self-loop at vertex 1"),
        (lambda: Graph.from_edges(3, [(0, 3)]), UnknownVertex, "edge (0, 3) outside 0..2"),
        (lambda: Graph.from_edges(3, [(0, 1.0)]), ParseError,
         "vertex id 1.0 is not an int in [0, 2**61 - 1)"),
        (lambda: Graph.from_edges(MAX_VERTICES + 1, map(pytest.fail, ["an edge was read"])),
         ParseError, f"{MAX_VERTICES + 1} vertices exceed the limit of {MAX_VERTICES}"),
        (lambda: Graph.from_edges(-3, []), ParseError, "vertex count -3 is not a nonnegative int"),
        (lambda: Graph.from_edges(-3, [(0, 1)]), ParseError,
         "vertex count -3 is not a nonnegative int"),
        (lambda: Graph.from_edges(3.0, []), ParseError, "vertex count 3.0 is not a nonnegative int"),
        (lambda: path_graph(3).delete_vertices([1, 5]), UnknownVertex, "vertex 5 not in graph"),
        (lambda: path_graph(3).add_edge(2, 2), ParseError, "self-loop at vertex 2"),
        (lambda: path_graph(3).add_edge(0, 3), UnknownVertex,
         "edge (0, 3) has an endpoint outside the graph"),
        (lambda: Graph({0: frozenset({1})}), UnknownVertex, "neighbor 1 of vertex 0 not in graph"),
        (lambda: Graph({0: frozenset({0})}), ParseError, "self-loop at vertex 0"),
        (lambda: Graph({0: [1, 1], 1: [0]}), ParseError, "vertex 0 lists neighbor 1 twice"),
        (lambda: Graph({0: frozenset({1}), 1: frozenset()}), ParseError,
         "one-sided edge (0, 1): 0 is not a neighbor of 1"),
        *((lambda v=v: Graph({0: frozenset(), v: frozenset()}), ParseError,
           f"vertex id {v!r} is not an int in [0, 2**61 - 1)")
          for v in ("1", 1.5, -1, 2**61 - 1)),
    ],
    ids=["from_edges-loop", "from_edges-range", "from_edges-id-float", "from_edges-n-limit",
         "from_edges-n-negative", "from_edges-n-negative-edge", "from_edges-n-float",
         "delete_vertices", "add_edge-loop", "add_edge-range", "Graph-neighbor", "Graph-loop",
         "Graph-repeat", "Graph-one-sided",
         "Graph-id-str", "Graph-id-float", "Graph-id-negative", "Graph-id-2**61-1"],
)
def test_graph_input_checks(call, error, message):
    # the readers have their own error tests
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_graph_refuses_more_keys_than_the_limit():
    # as from_edges and the readers do, so format_edge_list never writes a file the readers
    # refuse; all keys share one empty set, and the count is checked before the first id, -1
    empty = frozenset()
    with pytest.raises(ParseError, match=f"^{MAX_VERTICES + 1} vertices exceed the limit of "):
        Graph(dict.fromkeys(chain([-1], range(MAX_VERTICES)), empty))


def test_star_degrees():
    assert star_graph(4).degrees() == [4, 1, 1, 1, 1]


def test_graph_immutability_of_operations():
    g = cycle_graph(4)
    g2 = g.add_edge(0, 2)
    assert g.m == 4 and g2.m == 5
    g3 = g.delete_vertices((0,))
    assert g.n == 4 and g3.n == 3

"""Simple undirected graphs with stable vertex identifiers, their components
and degree histograms, and the edge-list and `name:key=value` text formats.

Graphs are immutable: every mutation-like operation returns a new graph.
Vertex identifiers survive deletions, so a vertex subset computed on a
derived graph is directly meaningful in the graph it was derived from.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import add, and_, lt, mul
from typing import Callable, Collection, Iterable, Mapping

from .errors import ParseError, UnknownVertex


class Graph:
    """Immutable simple undirected graph over integer vertex ids. One read by
    parse_edge_list keeps its edge arrays: `edges` (and so `edge_hash`, `__hash__` and
    `format_edge_list`) reads them always; `degrees`, `leaf_tags` and `adjacency` read
    them until the neighbor sets are built, on first use by any other method."""

    __slots__ = ("_adj", "_vertices", "_m", "_ends")

    def __init__(self, adjacency: dict[int, frozenset[int]]):
        self._adj = adjacency
        self._vertices = tuple(sorted(adjacency))
        self._m = sum(map(len, adjacency.values())) // 2
        self._ends = None

    @classmethod
    def _from_edge_arrays(cls, n: int, us: list[int], vs: list[int]) -> "Graph":
        """The graph on 0..n-1 with the checked edges zip(us, vs)."""
        g = cls.__new__(cls)
        g._adj, g._vertices, g._m, g._ends = None, tuple(range(n)), len(us), (us, vs)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on vertices 0..n-1 from an iterable of edges."""
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for u, v in edges:
            if u == v:
                raise ParseError(f"self-loop at vertex {u}")
            if u not in adj or v not in adj:
                raise UnknownVertex(f"edge ({u}, {v}) outside 0..{n - 1}")
            adj[u].add(v)
            adj[v].add(u)
        return cls({v: frozenset(nbrs) for v, nbrs in adj.items()})

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return self._m

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    def __contains__(self, v: int) -> bool:
        if self._adj is not None:
            return v in self._adj
        k = hash(v)  # sets not built: each vertex of 0..n-1 is its own hash, so only k can equal v
        return 0 <= k < self.n and k == v

    def neighbors(self, v: int) -> frozenset[int]:
        try:
            return self._adj[v]
        except (KeyError, TypeError):  # TypeError: the sets are not built yet
            adj = self._sets()
        if v not in adj:
            raise UnknownVertex(f"vertex {v} not in graph")
        return adj[v]

    def _sets(self) -> dict[int, frozenset[int]]:
        """The neighbor sets, built from the edge arrays on first use."""
        if self._adj is None:
            self._adj = _neighbor_sets(self.n, *self._ends)
        return self._adj

    def degrees(self) -> list[int]:
        """The degree of each vertex, in `vertices` order."""
        if self._adj is not None:
            return list(map(len, map(self._adj.__getitem__, self._vertices)))
        deg = [0] * self.n  # parsed, sets not built: vertices 0..n-1, counted off the edge arrays
        for v in chain(*self._ends):
            deg[v] += 1
        return deg

    def leaf_tags(self, deg: list[int]) -> list[int | None]:
        """Per vertex, in `vertices` order, given deg = degrees(): its neighbor's degree
        if it is a leaf, else None. Before the sets are built, off the edge arrays."""
        if (adj := self._adj) is not None:
            return [len(adj[min(adj[v])]) if d == 1 else None for v, d in zip(self._vertices, deg)]
        tags: list[int | None] = [None] * self.n
        for u, v in zip(*self._ends):
            if deg[u] == 1:
                tags[u] = deg[v]
            if deg[v] == 1:
                tags[v] = deg[u]
        return tags

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def edges(self) -> list[tuple[int, int]]:
        """Every edge (u, v) once, with u < v, in sorted order."""
        if self._ends is None:
            return [(u, v) for u in self._vertices for v in sorted(self._adj[u]) if u < v]
        us, vs = self._ends
        return sorted(chain(compress(zip(us, vs), map(lt, us, vs)),
                            compress(zip(vs, us), map(lt, vs, us))))

    def adjacency(self, s: Iterable[int] | None = None) -> dict[int, set[int]]:
        """A fresh dict of the neighbor sets of the graph, or of its subgraph induced by s, in
        `vertices` order; read off the edge arrays while the sets are unbuilt."""
        keep = None if s is None else set(s)
        if keep is not None and (missing := keep.difference(self._vertices)):
            raise UnknownVertex(f"vertex {min(missing)} not in graph")
        keys = self._vertices if keep is None else sorted(keep)
        if (adj := self._adj) is not None:
            return {v: set(adj[v]) if keep is None else keep & adj[v] for v in keys}
        us, vs = self._ends
        pairs = zip(us, vs)
        if keep is not None:  # the vertices are 0..n-1: only the edges inside s are met below
            mark = bytes(map(keep.__contains__, range(self.n))).__getitem__
            pairs = compress(pairs, map(and_, map(mark, us), map(mark, vs)))
        nbrs: dict[int, set[int]] = {v: set() for v in keys}
        for u, v in pairs:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return nbrs

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def induced(self, s: Iterable[int]) -> "Graph":
        keep, adj = frozenset(s), self._sets()
        for v in keep:
            if v not in adj:
                raise UnknownVertex(f"vertex {v} not in graph")
        return Graph({v: adj[v] & keep for v in keep})

    def delete_vertices(self, s: Iterable[int]) -> "Graph":
        drop, adj = frozenset(s), self._sets()
        for v in drop:
            if v not in adj:
                raise UnknownVertex(f"vertex {v} not in graph")
        return Graph({v: adj[v] - drop for v in adj if v not in drop})

    def add_edge(self, u: int, v: int) -> "Graph":
        """Return a copy with edge uv added (no-op if already present)."""
        if u == v:
            raise ParseError(f"self-loop at vertex {u}")
        if u not in self or v not in self:
            raise UnknownVertex(f"edge ({u}, {v}) has an endpoint outside the graph")
        adj = self._sets()  # membership above leaves a parsed graph's sets unbuilt
        if v in adj[u]:
            return self
        return Graph({**adj, u: adj[u] | {v}, v: adj[v] | {u}})

    def components(self) -> list[set[int]]:
        """Connected components, sorted by their minimum vertex id."""
        return components_of(self._sets(), self._vertices)

    def degree_histogram(self) -> "DegreeHistogram":
        return DegreeHistogram(dict(Counter(self.degrees())))

    def edge_hash(self) -> str:
        """Stable hash of the labelled edge set, used in certificate records."""
        names = dict(zip(self._vertices, map(str, self._vertices)))  # each id formatted once
        payload = f"n={self.n};v={','.join(names.values())};" + ";".join(
            f"{names[u]}-{names[v]}" for u, v in self.edges()
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._sets() == other._sets()

    def __hash__(self):
        return hash((self._vertices, frozenset(self.edges())))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def components_of(adj: Mapping[int, Iterable[int]], vertices: Iterable[int]) -> list[set[int]]:
    """Connected components of an adjacency map, in the order in which
    `vertices` first reaches them; `vertices` must be closed under `adj`."""
    seen: set[int] = set()
    comps = []
    for root in vertices:
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


@dataclass(frozen=True)
class DegreeHistogram:
    """Counts n_d > 0 of vertices of each degree d; from_counts drops zero counts."""

    counts: dict[int, int]

    def __post_init__(self):
        if any(d < 0 or c <= 0 for d, c in self.counts.items()):
            raise ValueError("degrees must be nonnegative and counts positive")

    def __hash__(self) -> int:
        return hash(frozenset(self.counts.items()))

    @classmethod
    def from_counts(cls, counts: dict[int, int]) -> "DegreeHistogram":
        return cls({d: c for d, c in counts.items() if c})

    @property
    def max_degree(self) -> int:
        return max(self.counts, default=0)

    @property
    def n(self) -> int:
        return sum(self.counts.values())

    def count(self, d: int) -> int:
        return self.counts.get(d, 0)


def parse_spec_text(text: str, what: str, keys: Collection[str]) -> tuple[str, dict[str, str]]:
    """The name and arguments of a `name[:key=value,...]` text, whitespace
    around each part dropped. A piece without `=` (the empty one of `name:` or
    a trailing comma too), an empty key or value, a key not in keys or a key
    given twice is a ParseError that names what the text is."""
    name, colon, argstr = text.partition(":")
    args: dict[str, str] = {}
    for piece in argstr.split(",") if colon else ():
        key, eq, value = map(str.strip, piece.partition("="))
        if not (key and eq and value):
            raise ParseError(f"bad {what} argument {piece!r} in {text!r}")
        if key not in keys:
            raise ParseError(f"unknown {what} argument {key!r} in {text!r}")
        if key in args:
            raise ParseError(f"{what} argument {key!r} given twice in {text!r}")
        args[key] = value
    return name.strip(), args


def spec_text(name: str, pairs: Iterable[tuple[str, object]]) -> str:
    """The canonical `name[:key=value,...]` text of the pairs whose value is set."""
    args = ",".join(f"{key}={value}" for key, value in pairs if value is not None)
    return f"{name}:{args}" if args else name


MAX_VERTICES = 1 << 20


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header `n m`, then m lines `u v`.

    Blank lines and lines starting with `#` are ignored. A header n above
    MAX_VERTICES is rejected before anything is allocated for it. A text the
    token reader cannot take is read line by line, which names a bad line.
    """
    if pairs_per_line(text) and (g := _parse_tokens(text)) is not None:
        return g
    rows = content_lines(text)
    if not rows:
        raise ParseError("empty edge list: missing `n m` header")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"line {lineno}: header must be `n m`, got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"line {lineno}: header must be two integers") from exc
    if n < 0 or m < 0:
        raise ParseError(f"line {lineno}: negative counts in header")
    if n > MAX_VERTICES:
        raise ParseError(f"line {lineno}: {n} vertices exceed the limit of {MAX_VERTICES}")
    if len(rows) - 1 != m:
        raise ParseError(f"header declares {m} edges but {len(rows) - 1} edge lines found")
    seen: set[tuple[int, int]] = set()
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected `u v`, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: vertices must be integers") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: vertex out of range 0..{n - 1}")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at {u}")
        if (u, v) in seen:
            raise ParseError(f"line {lineno}: duplicate edge {u} {v}")
        seen.update(((u, v), (v, u)))
    return _parse_tokens(" ".join(line for _, line in rows))  # checked: not None


def pair_lines(second: str) -> Callable[[str], re.Match | None]:
    """A test that each `\n`-joined line (a final `\n` optional) is an ASCII-decimal token and
    a `second` token, spaces or tabs around them, `\r` at its end. Possessive: no backtracking."""
    line = rf"[ \t]*+[0-9]++[ \t]++{second}[ \t\r]*+"
    return re.compile(rf"{line}(?:\n{line})*+\n?+").fullmatch


pairs_per_line = pair_lines("[0-9]++")


def _parse_tokens(text: str) -> Graph | None:
    """The graph of a `pairs_per_line` text or of checked rows; None if a check fails."""
    try:
        toks = list(map(int, text.split()))
    except ValueError:  # a token past int's digit limit: the line reader names its line
        return None
    n, m, us, vs = toks[0], toks[1], toks[2::2], toks[3::2]
    if n > MAX_VERTICES or len(us) != m or m and max(max(us), max(vs)) >= n:
        return None
    # u*n + v names the line `u v` (an int: no GC-tracked tuple). A repeat leaves fewer
    # than m keys; a self-loop or a repeat the other way round meets a reversed key.
    keys = set(map(add, map(mul, us, repeat(n)), vs))
    if len(keys) != m or not keys.isdisjoint(map(add, map(mul, vs, repeat(n)), us)):
        return None
    return Graph._from_edge_arrays(n, us, vs)


def _neighbor_sets(n: int, us: list[int], vs: list[int]) -> dict[int, frozenset[int]]:
    """The neighbor set of each vertex 0..n-1 of the edges zip(us, vs)."""
    nbrs: list = [[] for _ in range(n)]
    for u, v in zip(us, vs):
        nbrs[u].append(v)
        nbrs[v].append(u)
    isolated = frozenset()  # shared by every vertex on no edge
    for v, ws in enumerate(nbrs):  # each list is freed as its set is made
        nbrs[v] = frozenset(ws) if ws else isolated
    return dict(enumerate(nbrs))


def content_lines(text: str) -> list[tuple[int, str]]:
    """The numbered lines of text that keep a token once `#` comments are cut."""
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [(lineno, line) for lineno, line in enumerate(lines, 1) if line]


def format_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format (vertices renumbered 0..n-1 if needed)."""
    index = {v: i for i, v in enumerate(g.vertices)}
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{index[u]} {index[v]}" for u, v in g.edges())
    return "\n".join(lines) + "\n"

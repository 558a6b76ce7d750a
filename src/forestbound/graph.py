"""Simple undirected graphs with stable vertex identifiers, their components,
and the edge-list and `name:key=value` text formats.

Graphs are immutable: every mutation-like operation returns a new graph.
Vertex identifiers survive deletions, so a vertex subset computed on a
derived graph is directly meaningful in the graph it was derived from.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from collections import Counter
from itertools import chain, compress, islice, repeat
from operator import add, ge, lt, mul
from typing import Collection, Iterable, Iterator, Mapping

from .errors import ParseError, UnknownVertex

MAX_VERTICES = 1 << 20  # the most vertices a graph may have
_ID_LIMIT = (1 << 61) - 1  # the hash modulus of 64-bit CPython: an int id below it is its own hash


def _check_id(v) -> None:
    """ParseError unless v is an int in [0, 2**61 - 1), the one rule for vertex ids."""
    if not (isinstance(v, int) and 0 <= v < _ID_LIMIT):
        raise ParseError(f"vertex id {v!r} is not an int in [0, 2**61 - 1)")


class Graph:
    """Immutable simple undirected graph: the sorted tuple `vertices` of its int ids, and two
    lists of positions into it, one entry per edge. Every constructor makes this form and every
    read works off it, and no other module sees the two lists: `adjacency(S)` is the one read of
    neighbor sets by id, `position_sets()` by position, and `degrees()` the one of degrees."""

    __slots__ = ("_vertices", "_us", "_vs")

    def __init__(self, adjacency: Mapping[int, Collection[int]]):
        """The graph of the neighbor sets `adjacency`. ParseError: more than MAX_VERTICES keys
        (before any id is checked), an id not an int in [0, 2**61 - 1), a neighbor listed twice,
        a self-loop or a one-sided edge; UnknownVertex: a neighbor not a key."""
        if len(adjacency) > MAX_VERTICES:
            raise ParseError(f"{len(adjacency)} vertices exceed the limit of {MAX_VERTICES}")
        for v in adjacency:
            _check_id(v)
        vertices = tuple(sorted(adjacency))
        at, us, vs = dict(zip(vertices, range(len(vertices)))), [], []
        for v, ws in adjacency.items():
            if not isinstance(ws, (set, frozenset)) and len(set(ws)) < len(ws):
                (w, _), = Counter(ws).most_common(1)
                raise ParseError(f"vertex {v} lists neighbor {w} twice")
            for w in ws:
                j = at.get(w, -1)
                if j < 0:
                    raise UnknownVertex(f"neighbor {w!r} of vertex {v} not in graph")
                if w == v:
                    raise ParseError(f"self-loop at vertex {v}")
                if v not in adjacency[w]:
                    raise ParseError(f"one-sided edge ({v}, {w}): {v} is not a neighbor of {w}")
                if v < w:
                    us.append(at[v])
                    vs.append(j)
        self._vertices, self._us, self._vs = vertices, us, vs

    @classmethod
    def _of(cls, vertices: tuple[int, ...], us: list[int], vs: list[int]) -> "Graph":
        """The graph of sorted ids and position pairs zip(us, vs), unchecked: for from_edges and
        the edge-list readers alone, which check their input themselves."""
        g = cls.__new__(cls)
        g._vertices, g._us, g._vs = vertices, us, vs
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on vertices 0..n-1 from an iterable of edges; a repeat is kept once.
        ParseError: n not an int in [0, MAX_VERTICES] (before any edge is read) or an endpoint
        not an int."""
        if not (isinstance(n, int) and n >= 0):
            raise ParseError(f"vertex count {n!r} is not a nonnegative int")
        if n > MAX_VERTICES:
            raise ParseError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
        ids, pairs = range(n), {}
        for u, v in edges:
            if not (isinstance(u, int) and isinstance(v, int)):
                _check_id(u)
                _check_id(v)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}")
            if u not in ids or v not in ids:
                raise UnknownVertex(f"edge ({u}, {v}) outside 0..{n - 1}")
            pairs[(u, v) if u < v else (v, u)] = None
        return cls._of(tuple(ids), [u for u, _ in pairs], [v for _, v in pairs])

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._us)

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    def __contains__(self, v: int) -> bool:
        i = bisect_left(self._vertices, k := hash(v))  # each id is its own hash: v is compared once
        return i < self.n and self._vertices[i] == k and k == v

    def position_sets(self) -> list[set[int]]:
        """A fresh list of, per vertex position, the set of its neighbors' positions."""
        sets = [set() for _ in range(self.n)]
        for i, j in zip(self._us, self._vs):
            sets[i].add(j)
            sets[j].add(i)
        return sets

    def degrees(self) -> list[int]:
        """The degree of each vertex, in `vertices` order."""
        deg = [0] * self.n
        for i in chain(self._us, self._vs):
            deg[i] += 1
        return deg

    def leaf_tags(self, deg: list[int]) -> list[int | None]:
        """Per vertex in `vertices` order, given deg = degrees(): a leaf's neighbor's degree or None."""
        tags: list[int | None] = [None] * self.n
        for i, j in zip(self._us, self._vs):
            if deg[i] == 1:
                tags[i] = deg[j]
            if deg[j] == 1:
                tags[j] = deg[i]
        return tags

    def _pairs(self) -> list[tuple[int, int]]:
        """Every edge once as its positions (i, j), i < j, in sorted order."""
        us, vs = self._us, self._vs
        return sorted(chain(compress(zip(us, vs), map(lt, us, vs)),
                            compress(zip(vs, us), map(lt, vs, us))))

    def edges(self) -> list[tuple[int, int]]:
        """Every edge (u, v) once, with u < v, in sorted order."""
        return [(self._vertices[i], self._vertices[j]) for i, j in self._pairs()]

    def _mark(self, s: Iterable[int]) -> bytes:
        """1 at the position of each vertex of s, else 0; UnknownVertex names the least outside."""
        keep = s if isinstance(s, (set, frozenset)) else set(s)
        mark = bytes(map(keep.__contains__, self._vertices))
        if mark.count(1) < len(keep):
            raise UnknownVertex(f"vertex {min(keep.difference(self._vertices))} not in graph")
        return mark

    def adjacency(self, s: Iterable[int] | None = None) -> dict[int, set[int]]:
        """A fresh dict of the neighbor sets of the graph, or of its subgraph induced by s,
        in `vertices` order."""
        ids, mark = self._vertices, b"\1" * self.n if s is None else self._mark(s)
        sets = [set() if k else None for k in mark]  # by position
        for i, j in zip(self._us, self._vs):
            if mark[i] and mark[j]:
                sets[i].add(ids[j])
                sets[j].add(ids[i])
        return dict(compress(zip(ids, sets), mark))

    def induced(self, s: Iterable[int]) -> "Graph":
        """The subgraph induced by s, ids kept; O(n + m)."""
        return Graph(self.adjacency(s))

    def delete_vertices(self, s: Iterable[int]) -> "Graph":
        """The subgraph without the vertices of s, ids kept; O(n + m)."""
        return Graph(self.adjacency([v for v, k in zip(self._vertices, self._mark(s)) if not k]))

    def add_edge(self, u: int, v: int) -> "Graph":
        """Return a copy with edge uv added (an equal copy if already present)."""
        if u == v:
            raise ParseError(f"self-loop at vertex {u}")
        if u not in self or v not in self:
            raise UnknownVertex(f"edge ({u}, {v}) has an endpoint outside the graph")
        adj = self.adjacency()
        adj[u].add(v)
        adj[v].add(u)
        return Graph(adj)

    def components(self) -> list[set[int]]:
        """Connected components, sorted by their minimum vertex id."""
        return components_of(adj := self.adjacency(), adj)

    def edge_hash(self) -> str:
        """Stable hash of the labelled edge set, used in certificate records."""
        names = list(map(str, self._vertices))  # each id formatted once
        payload = f"n={self.n};v={','.join(names)};" + ";".join(
            f"{names[i]}-{names[j]}" for i, j in self._pairs()
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self._vertices == other._vertices
                and self._pairs() == other._pairs())

    def __hash__(self):
        return hash((self._vertices, tuple(self._pairs())))

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


def parse_edge_list(text: str, degrees: bool = False) -> Graph | list[int]:
    """Parse the edge-list format: header `n m`, then m lines `u v`; with degrees, the degrees
    of the vertices 0..n-1 in place of the graph, which a text of plain blocks never builds.

    Blank lines and lines starting with `#` are ignored. A header n above
    MAX_VERTICES is rejected before anything is allocated for it. A text the
    token reader cannot take is read line by line, which names a bad line.
    """
    if pairs_per_line(text):
        if degrees and (deg := _plain_degrees(text)) is not None:
            return deg
        if (g := _parse_tokens(text)) is not None:
            return g.degrees() if degrees else g
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
    us, vs = [], []
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
        us.append(u)
        vs.append(v)
    g = Graph._of(tuple(range(n)), us, vs)
    return g.degrees() if degrees else g


def pairs_per_line(text: str, tokens: str = "0123456789") -> bool:
    """Whether each line (a final `\n` optional) is `tokens` characters, one space or tab and
    `tokens` characters, a `\r` only before a `\n` or at the end: the token readers' blank test.
    Each reader checks its tokens, an empty one too. Checked a block of lines at a time."""
    if "\r" in text and text.count("\r") != text.count("\r\n") + text.endswith("\r"):
        return False
    head, size, blanks = 0, len(text), str.maketrans("\t", " ", tokens + "\r")
    while head < size:
        end = text.find("\n", head + _SHAPE_BLOCK) + 1 or size
        shape = text[head:end].translate(blanks) + "\n" * (text[end - 1] != "\n")
        if len(shape) != 2 * shape.count(" \n"):  # each line " \n", none else
            return False
        head = end
    return True


_SHAPE_BLOCK = 1 << 14  # the characters `pairs_per_line` translates at a time, up to a line end
_BLOCK = 1 << 16  # the characters `_blocks` converts at a time, up to a line end
_decode = json.JSONDecoder().decode  # the stdlib's C scanner: a JSON list of ints, no str per token
_COMMAS = str.maketrans(" \t\n\r", ",,, ")  # `pairs_per_line` lines to JSON items; `\r` a blank


def _ints(lines: str) -> list[int]:
    """The tokens of `pairs_per_line` lines (no final `\n`) as ints; ValueError past int's limit."""
    return _decode(f"[{lines.translate(_COMMAS)}]")


def _blocks(text: str) -> Iterator:
    """Decode a `pairs_per_line` text a block of whole lines at a time, its tokens never all held
    at once: yield n, then per block (us, vs, plain), the lines' ints and whether each line is
    u < v < n and above the line before it. ValueError as `_ints`, for an n above MAX_VERTICES
    (before any line is read), and for a line count that is not the header's m."""
    last = len(text) - text.endswith("\n")  # the end of the last line
    head = text.find("\n", 0, last) + 1 or last + 1
    n, m = _ints(text[:head - 1])
    if n > MAX_VERTICES:
        raise ValueError(n)
    yield n
    line = (-1, -1)
    while head < last:
        end = text.find("\n", head + _BLOCK, last) + 1 or last + 1
        toks = _ints(text[head:end - 1])
        us, vs = toks[0::2], toks[1::2]
        pairs, later = (islice(zip(us, vs), i, None) for i in (0, 1))  # zip reuses one tuple
        yield us, vs, (line < (us[0], vs[0]) and max(vs) < n and all(map(lt, us, vs))
                       and all(map(lt, pairs, later)))
        line, head, m = (us[-1], vs[-1]), end, m - len(us)
    if m:
        raise ValueError(m)


def _parse_tokens(text: str) -> Graph | None:
    """The graph of a `pairs_per_line` text; None if a check fails, JSON's check of each token
    among them."""
    us, vs, plain = [], [], True
    try:
        blocks = _blocks(text)
        n = next(blocks)
        for block_us, block_vs, block_plain in blocks:
            us += block_us
            vs += block_vs
            plain = plain and block_plain
    except ValueError:  # a token JSON refuses, past int's digit limit, or a count: read by line
        return None
    if plain:  # as every writer here puts them: no self-loop, repeat or id past n, and no set
        return Graph._of(tuple(range(n)), us, vs)
    # Otherwise u*n + v names the line `u v` (an int: no GC-tracked tuple). A repeat leaves
    # fewer keys than lines. A self-loop or a repeat the other way round meets a reversed key,
    # and one of its lines has u >= v: only those lines are probed.
    keys = set(map(add, map(mul, us, repeat(n)), vs))
    back = (v * n + u for v, u in compress(zip(vs, us), map(ge, us, vs)))
    if max(chain(us, vs)) >= n or len(keys) != len(us) or not keys.isdisjoint(back):
        return None
    return Graph._of(tuple(range(n)), us, vs)


def _plain_degrees(text: str) -> list[int] | None:
    """The degrees of a `pairs_per_line` text's vertices, no edge kept; None unless each block is
    plain and `_blocks`'s checks pass."""
    try:
        blocks = _blocks(text)
        deg = [0] * next(blocks)
        for us, vs, plain in blocks:
            if not plain:
                return None
            for i in chain(us, vs):
                deg[i] += 1
    except ValueError:  # a token JSON refuses, past int's digit limit, or a count
        return None
    return deg


def content_lines(text: str) -> list[tuple[int, str]]:
    """The numbered lines of text that keep a token once `#` comments are cut."""
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [(lineno, line) for lineno, line in enumerate(lines, 1) if line]


def format_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format (vertices renumbered 0..n-1 if needed)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{i} {j}" for i, j in g._pairs())
    return "\n".join(lines) + "\n"

"""The checker: the forest classes, a forest certificate, its text form and whether it
holds. `_holds`, the one rule of class and labels, is asked by `ForestClass.contains` and
`verify_certificate`. Of the package this module imports only errors, graph, partition and
weights, never the constructors or the oracle: a user has to trust this file and those four."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Mapping, Optional

from .errors import ParseError, UnknownVertex
from .graph import Graph, components_of, parse_spec_text, spec_text
from .partition import ABC_CAPS, Partition
from .weights import rat_text


@dataclass(frozen=True)
class ForestClass:
    """One of the three hereditary target classes: kind is "linear", "caterpillar"
    or "star"; k bounds a caterpillar forest's degree (None means unbounded)."""

    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "caterpillar", "star"):
            raise ValueError(f"unknown forest class {self.kind!r}")
        if self.kind != "caterpillar" and self.k is not None:
            raise ValueError("only caterpillar forests take a degree bound")
        if self.k is not None and self.k < 2:
            raise ValueError("caterpillar degree bound must be >= 2")

    def contains(self, g: Graph) -> bool:
        return _holds(self, g.adjacency())

    def to_text(self) -> str:
        return spec_text(self.kind, [("k", self.k)])

    @classmethod
    def from_text(cls, text: str) -> "ForestClass":
        kind, args = parse_spec_text(text, "forest class", ("k",))
        try:
            return cls(kind, int(args["k"]) if args else None)
        except ValueError as exc:
            raise ParseError(f"bad forest class {text!r}") from exc


LINEAR_FOREST = ForestClass("linear")
CATERPILLAR_FOREST = ForestClass("caterpillar")
STAR_FOREST = ForestClass("star")


def _holds(forest: ForestClass, adj: Mapping[int, AbstractSet[int]], labels=None) -> bool:
    """Is the graph of adj (each vertex to its neighbours) a forest within the degree
    bound (2 for linear, k for caterpillar) in which each spine vertex, one of degree
    >= 2, has at most `limit` spine neighbours (none for star, two otherwise)? With
    labels, also ABC: each vertex within its part's cap, or AB: each B's neighbour an A leaf."""
    degs = list(map(len, adj.values()))
    top = max(degs, default=0)
    bound = 2 if forest.kind == "linear" else forest.k
    limit = 0 if forest.kind == "star" else 2
    # acyclic iff m = n - #components
    if bound is not None and top > bound or sum(degs) != 2 * (len(adj) - len(components_of(adj, adj))):
        return False
    # only a spine vertex of degree above limit can break the rule
    spine = {v for v, d in zip(adj, degs) if d >= 2} if top > max(limit, 1) else ()
    if any(len(adj[v] & spine) > limit for v in spine):
        return False
    if labels is None:
        return True
    if labels.mode == "ABC":
        return all(len(adj[v]) <= ABC_CAPS[labels.part(v)] for v in adj)
    return all(labels.part(a) == "A" and len(adj[a]) == 1
               for b in adj if labels.part(b) == "B" for a in adj[b])


@dataclass(frozen=True)
class ForestCertificate:
    """A vertex subset together with the class and rational bound it claims."""

    vertex_set: frozenset[int]
    forest_class: ForestClass
    claimed_bound: Fraction

    def size(self) -> int:
        return len(self.vertex_set)


def verify_certificate(g: Graph, cert: ForestCertificate, labels: Optional[Partition] = None) -> bool:
    """Check class membership, optional per-part constraints, and the bound."""
    try:
        adj = g.adjacency(cert.vertex_set)  # sorted keys: the first unlabeled vertex is named
    except UnknownVertex:
        return False
    return _holds(cert.forest_class, adj, labels) and len(adj) >= cert.claimed_bound


def certificate_to_text(cert: ForestCertificate, graph_hash: str = "", trace=None) -> str:
    lines = [
        f"graph={graph_hash or '-'}",
        f"class={cert.forest_class.to_text()}",
        f"bound={rat_text(cert.claimed_bound)}",
        "vertices=" + " ".join(map(str, sorted(cert.vertex_set))),
        f"trace={trace.summary() if trace is not None else '-'}",
    ]
    return "\n".join(lines) + "\n"


def certificate_from_text(text: str) -> tuple[ForestCertificate, str]:
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = map(str.strip, line.partition("="))
        if not eq:
            raise ParseError(f"bad certificate line {line!r}")
        if key in fields:
            raise ParseError(f"certificate field {key!r} given twice")
        fields[key] = value
    for key in ("class", "bound", "vertices"):
        if key not in fields:
            raise ParseError(f"certificate missing field {key!r}")
    forest_class = ForestClass.from_text(fields["class"])
    bound = _field_value(Fraction, "bound", fields["bound"])
    vertices = [_field_value(int, "vertices", tok) for tok in fields["vertices"].split()]
    twice = sorted(v for v, c in Counter(vertices).items() if c > 1)
    if twice:
        raise ParseError(f"certificate vertices given twice: {twice[:8]}")
    graph_hash = fields.get("graph", "-")
    return ForestCertificate(frozenset(vertices), forest_class, bound), graph_hash


def _field_value(parse, key: str, text: str):
    """parse(text), or a ParseError that names the field and the value."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad value {text!r} in certificate field {key!r}") from exc

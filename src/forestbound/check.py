"""The checker: a forest certificate, its text form, and whether it holds.

`verify_certificate` decides a certificate from the graph and, for the
classes built on a partition, the labels. Of the package this module imports
only errors, graph, partition and weights, never the constructors or the
oracle, so what a user has to trust is this file and those four."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ParseError
from .graph import ForestClass, Graph
from .partition import ABC_CAPS, Partition
from .weights import rat_text


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
    if not set(cert.vertex_set) <= set(g.vertices):
        return False
    sub = g.induced(cert.vertex_set)
    if not cert.forest_class.contains(sub):
        return False
    if labels is not None:
        if labels.mode == "ABC":  # every vertex is within its part's cap
            holds = all(sub.degree(v) <= ABC_CAPS[labels.part(v)] for v in sub.vertices)
        else:  # every neighbour of a B vertex is an A leaf
            holds = all(
                labels.part(a) == "A" and sub.degree(a) == 1
                for b in sub.vertices if labels.part(b) == "B" for a in sub.neighbors(b)
            )
        if not holds:
            return False
    return Fraction(len(cert.vertex_set)) >= cert.claimed_bound


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

"""Vertex partitions used by the constrained constructors.

ABC mode labels vertices for the constrained linear forest bound (degree
caps 2/1/0 inside the forest); AB mode labels vertices for the constrained
star forest bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from string import ascii_letters, digits
from typing import Collection, Mapping

from . import graph
from .errors import MissingPartition, ParseError, UnknownVertex
from .graph import content_lines

ABC_CAPS = {"A": 2, "B": 1, "C": 0}


@dataclass(frozen=True)
class Partition:
    """Per-vertex tag in {A, B, C} (ABC mode) or {A, B} (AB mode)."""

    labels: Mapping[int, str]
    mode: str = "ABC"

    def __post_init__(self):
        if self.mode not in ("ABC", "AB"):
            raise ValueError(f"mode must be ABC or AB, got {self.mode!r}")
        allowed = set(self.mode)
        if not allowed.issuperset(self.labels.values()):  # find the first bad label to name it
            v, part = next((v, p) for v, p in self.labels.items() if p not in allowed)
            raise ParseError(f"label {part!r} on vertex {v} not allowed in {self.mode} mode")

    def part(self, v: int) -> str:
        try:
            return self.labels[v]
        except KeyError:
            raise MissingPartition(f"vertex {v} has no label") from None

    def validate_for(self, vertices: Collection[int]) -> None:
        missing = [v for v in vertices if v not in self.labels]
        if missing:
            raise MissingPartition(f"unlabeled vertices: {missing[:8]}")
        if len(self.labels) > len(vertices):  # each vertex has its label; the rest name no vertex
            known = set(vertices)
            extra = [v for v in self.labels if v not in known]
            raise UnknownVertex(f"labels for vertices not in graph: {extra[:8]}")


# the token reader's line test: each index and each label ASCII letters and digits
pairs_per_line = partial(graph.pairs_per_line, tokens=ascii_letters + digits)


def parse_partition_file(text: str, mode: str = "ABC") -> Partition:
    """Parse the partition format: one `index label` pair per line. As in
    parse_edge_list, a text the token reader cannot take is read line by line."""
    if pairs_per_line(text):
        toks = text.upper().split()  # upper-casing a text upper-cases each label alike
        try:
            labels = dict(zip(map(int, toks[0::2]), toks[1::2]))
        except ValueError:  # a letter in an index, or an index past int's digit limit
            labels = {}
        # else a token was empty (split drops it), an index bad or one given twice
        if 2 * len(labels) == len(toks) == 2 * (text.count("\n") + (text[-1:] != "\n")):
            return Partition(labels, mode)
    labels = {}
    for lineno, line in content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected `index label`, got {line!r}")
        try:
            v = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad vertex index {parts[0]!r}") from exc
        if v in labels:
            raise ParseError(f"line {lineno}: vertex {v} labeled twice")
        labels[v] = parts[1].upper()
    return Partition(labels, mode)


def format_partition(p: Partition) -> str:
    return "\n".join(f"{v} {p.labels[v]}" for v in sorted(p.labels)) + "\n"

"""Deterministic witness-family generators and seeded random graph models.

Vertex numbering is fixed per family: core vertices first, then pendant
leaves grouped by the core vertex that owns them, so certificates on these
graphs read predictably.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Optional

from .errors import InfeasibleDegree, InvalidSpec, ParseError, RetryLimit
from .graph import MAX_VERTICES, Graph, parse_spec_text, spec_text
from .partition import Partition

PAIRING_RETRY_CAP = 10_000

FIG1_GADGETS = ("P3AB", "K2AC", "K3ACC")


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generated graph family."""

    family: str
    n: Optional[int] = None
    k: Optional[int] = None
    t: Optional[int] = None
    p: Optional[float] = None
    d: Optional[int] = None
    seed: Optional[int] = None
    id: Optional[str] = None  # the Fig. 1 gadget

    def to_text(self) -> str:
        return spec_text(self.family, ((key, getattr(self, key)) for key in _ARGS))


# Each argument of a generator spec text, which sets the GenSpec field of its
# name, and its type.
_ARGS = {"n": int, "k": int, "t": int, "p": float, "d": int, "seed": int, "id": str}


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise InvalidSpec("complete graph needs n >= 1")
    return Graph.from_edges(n, combinations(range(n), 2))


def star_graph(t: int) -> Graph:
    """K_{1,t}: center 0 with t leaves."""
    if t < 0:
        raise InvalidSpec("star needs t >= 0")
    return Graph.from_edges(t + 1, ((0, i) for i in range(1, t + 1)))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise InvalidSpec("path needs n >= 1")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidSpec("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def hnk_graph(n: int, k: int) -> Graph:
    """Complete graph on n core vertices with k+1 pendant leaves each."""
    if n < 1 or k < 2:
        raise InvalidSpec("hnk needs n >= 1 and k >= 2")
    leaves = ((core, n + core * (k + 1) + j) for core in range(n) for j in range(k + 1))
    return Graph.from_edges(n + n * (k + 1), chain(combinations(range(n), 2), leaves))


def k_prime_graph(n: int) -> Graph:
    """Complete graph on n core vertices with one pendant leaf each."""
    if n < 1:
        raise InvalidSpec("kprime needs n >= 1")
    leaves = ((core, n + core) for core in range(n))
    return Graph.from_edges(2 * n, chain(combinations(range(n), 2), leaves))


def fig1_gadget(gadget: str) -> tuple[Graph, Partition]:
    """The three tightness gadgets, with their drawn labelings."""
    if gadget == "P3AB":
        g = path_graph(3)
        return g, Partition({0: "A", 1: "B", 2: "A"}, "ABC")
    if gadget == "K2AC":
        g = path_graph(2)
        return g, Partition({0: "A", 1: "C"}, "ABC")
    if gadget == "K3ACC":
        g = cycle_graph(3)
        return g, Partition({0: "A", 1: "C", 2: "C"}, "ABC")
    raise InvalidSpec(f"unknown gadget {gadget!r}; expected one of {FIG1_GADGETS}")


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a fixed seed."""
    if n < 1 or not 0.0 <= p <= 1.0:
        raise InvalidSpec("gnp needs n >= 1 and p in [0, 1]")
    rng = random.Random(seed)
    return Graph.from_edges(n, (uv for uv in combinations(range(n), 2) if rng.random() < p))


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Simple d-regular graph via the pairing model, paired edge by edge.

    An attempt that gets stuck starts over; after PAIRING_RETRY_CAP stuck
    attempts it raises RetryLimit.
    """
    if d < 0 or d >= n or (n * d) % 2 != 0:
        raise InfeasibleDegree(f"no simple {d}-regular graph on {n} vertices")
    if d == 0:
        return Graph.from_edges(n, [])
    rng = random.Random(seed)
    for _ in range(PAIRING_RETRY_CAP):
        edges = _pair_edge_by_edge(n, d, rng)
        if edges is not None:
            return Graph.from_edges(n, edges)
    raise RetryLimit(f"pairing model failed {PAIRING_RETRY_CAP} times for n={n}, d={d}")


def _pair_edge_by_edge(n: int, d: int, rng: random.Random) -> Optional[set[tuple[int, int]]]:
    """One edge-by-edge pairing: draw two of the free stubs, redraw when they
    would make a loop or a repeated edge, and give up (None) only when no
    two free stubs may be joined."""
    stubs = [v for v in range(n) for _ in range(d)]
    edges: set[tuple[int, int]] = set()
    while stubs:
        i, j = sorted(rng.sample(range(len(stubs)), 2))
        u, v = sorted((stubs[i], stubs[j]))
        if u == v or (u, v) in edges:
            free = sorted(set(stubs))
            if all((a, b) in edges for a, b in combinations(free, 2)):
                return None
            continue
        edges.add((u, v))
        for k in (j, i):
            stubs[k] = stubs[-1]
            stubs.pop()
    return edges


# Each family's builder and the GenSpec fields it takes, in argument order.
_FAMILIES = {
    "complete": (complete_graph, ("n",)),
    "star": (star_graph, ("t",)),
    "path": (path_graph, ("n",)),
    "cycle": (cycle_graph, ("n",)),
    "hnk": (hnk_graph, ("n", "k")),
    "kprime": (k_prime_graph, ("n",)),
    "fig1": (fig1_gadget, ("id",)),
    "gnp": (gnp, ("n", "p", "seed")),
    "regular": (random_regular, ("n", "d", "seed")),
}


# The vertex count of each family whose count is not its n.
_VERTICES = {
    "star": lambda s: s.t + 1,
    "hnk": lambda s: s.n + s.n * (s.k + 1),
    "kprime": lambda s: 2 * s.n,
    "fig1": lambda s: 3,
}


def generate(spec: GenSpec) -> tuple[Graph, Optional[Partition]]:
    """Materialize a GenSpec; Fig. 1 gadgets also return their labeling.
    Every parameter the family takes must be set, and no other. A family's
    vertex count above MAX_VERTICES is a ParseError before anything is built."""
    if spec.family not in _FAMILIES:
        raise InvalidSpec(f"unknown family {spec.family!r}")
    build, takes = _FAMILIES[spec.family]
    for key in _ARGS:
        if (getattr(spec, key) is None) == (key in takes):
            verb = "needs" if key in takes else "takes no"
            raise InvalidSpec(f"family {spec.family!r} {verb} parameter {key!r}")
    vertices = _VERTICES.get(spec.family, lambda s: s.n)(spec)
    if vertices > MAX_VERTICES:
        raise ParseError(f"{vertices} vertices exceed the limit of {MAX_VERTICES}")
    made = build(*(getattr(spec, key) for key in takes))
    return made if spec.family == "fig1" else (made, None)


def parse_gen_spec(text: str) -> GenSpec:
    """Parse the CLI encoding, e.g. `hnk:n=3,k=2` or `gnp:n=30,p=0.2,seed=42`."""
    family, args = parse_spec_text(text, "generator", _ARGS)
    try:
        fields = {key: kind(args[key]) for key, kind in _ARGS.items() if key in args}
        return GenSpec(family, **fields)
    except ValueError as exc:
        raise ParseError(f"bad generator spec {text!r}: {exc}") from exc

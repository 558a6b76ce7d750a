"""Seeded input generators for the benchmark.

Everything here is stdlib only and independent of forestbound: the program
under test receives nothing but the edge-list and partition files written
below. The same seed always gives the same files.
"""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

Edges = list[tuple[int, int]]


def gnm(n: int, m: int, rng: random.Random) -> Edges:
    """Uniform graph with exactly m distinct edges.

    A fixed edge count (rather than G(n, p)'s binomial one) removes the
    edge-count share of the seed-to-seed spread in the program's effort.
    """
    seen: set[tuple[int, int]] = set()
    while len(seen) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            seen.add((min(u, v), max(u, v)))
    return sorted(seen)


def random_regular(n: int, d: int, rng: random.Random) -> Edges:
    """Random simple d-regular graph: stubs are paired one edge at a time,
    skipping pairs that would make a loop or a repeated edge, and the
    whole pairing restarts when no valid pair turns up."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        edges: set[tuple[int, int]] = set()
        while stubs:
            for _ in range(50):
                i, j = rng.randrange(len(stubs)), rng.randrange(len(stubs))
                u, v = stubs[i], stubs[j]
                if u != v and (min(u, v), max(u, v)) not in edges:
                    break
            else:
                break  # stuck: restart
            edges.add((min(u, v), max(u, v)))
            for k in sorted((i, j), reverse=True):
                stubs[k] = stubs[-1]
                stubs.pop()
        if not stubs:
            return sorted(edges)


def heavy_tailed(n: int, mean_degree: float, exponent: float, rng: random.Random) -> Edges:
    """Chung-Lu style graph with a power-law expected degree sequence.

    Vertex i gets weight (i + 1) ** (-1 / (exponent - 1)); endpoints of
    n * mean_degree / 2 candidate edges are drawn proportionally to weight,
    and self-loops and repeated pairs are dropped.
    """
    weights = [(i + 1) ** (-1.0 / (exponent - 1.0)) for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)  # hub ids spread over the id range
    target = int(n * mean_degree / 2)
    ends = rng.choices(order, weights=weights, k=2 * target)
    seen: set[tuple[int, int]] = set()
    for u, v in zip(ends[::2], ends[1::2]):
        if u != v:
            seen.add((min(u, v), max(u, v)))
    return sorted(seen)


def cover_isolated(n: int, edges: Edges, rng: random.Random) -> Edges:
    """Join every isolated vertex to a random other vertex (min degree >= 1)."""
    touched = [False] * n
    for u, v in edges:
        touched[u] = touched[v] = True
    seen = set(edges)
    for v in range(n):
        if not touched[v]:
            u = rng.randrange(n - 1)
            u += u >= v
            e = (min(u, v), max(u, v))
            if e not in seen:
                seen.add(e)
                touched[u] = touched[v] = True
    return sorted(seen)


def cycle(n: int) -> Edges:
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def complete(n: int) -> Edges:
    return list(combinations(range(n), 2))


def comb(spine: int, teeth: int) -> tuple[int, Edges]:
    """A path of `spine` vertices, each carrying `teeth` pendant leaves."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    for i in range(spine):
        edges.extend((i, spine + teeth * i + j) for j in range(teeth))
    return spine * (teeth + 1), edges


def labels(n: int, alphabet: str, rng: random.Random) -> list[str]:
    return [rng.choice(alphabet) for _ in range(n)]


def write_edge_list(path: Path, n: int, edges: Edges) -> None:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    path.write_text("\n".join(lines) + "\n")


def write_partition(path: Path, parts: list[str]) -> None:
    path.write_text("".join(f"{v} {p}\n" for v, p in enumerate(parts)))

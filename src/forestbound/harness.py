"""Verification harness: batteries that tie bounds, constructors, and the
exact oracle together, emitting line-oriented diffable reports.

Payload lines are deterministic for a fixed (suite, seed, sizes); volatile
data (timestamps, per-instance runtimes) goes to `#` comment lines.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Iterable, Iterator, Optional

from . import construct, exact
from .check import LINEAR_FOREST, STAR_FOREST, ForestClass
from .errors import BoundMiss, ForestBoundError
from .generate import (
    complete_graph,
    cycle_graph,
    gnp,
    hnk_graph,
    k_prime_graph,
    random_regular,
)
from .graph import Graph
from .partition import Partition
from .weights import rat_text


@dataclass
class HarnessReport:
    suite: str
    seed: int
    sizes: list[int]
    records: list[dict] = field(default_factory=list)
    timings: list[tuple[str, float]] = field(default_factory=list)
    errors: dict[str, str] = field(default_factory=dict)  # job name -> its exception

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if r.get("status") != "pass")

    def to_text(self) -> str:
        lines = [
            "# forestbound harness report",
            f"# suite={self.suite} seed={self.seed} sizes={','.join(map(str, self.sizes)) or '-'}",
            f"# generated={datetime.now(timezone.utc).isoformat(timespec='seconds')}",
        ]
        for instance, ms in self.timings:
            lines.append(f"# time instance={instance} ms={ms:.1f}")
            if instance in self.errors:
                lines.append(f"# error instance={instance} {self.errors[instance]}")
        for record in self.records:
            parts = [f"instance={record['instance']}", f"check={record['check']}"]
            for key in sorted(record):
                if key not in ("instance", "check", "status"):
                    parts.append(f"{key}={record[key]}")
            parts.append(f"status={record['status']}")
            lines.append("record " + " ".join(parts))
        lines.append(
            f"summary records={len(self.records)} pass={len(self.records) - self.failures} "
            f"fail={self.failures}"
        )
        return "\n".join(lines) + "\n"

    def payload(self) -> str:
        """The deterministic portion of the report."""
        return "\n".join(
            line for line in self.to_text().splitlines() if not line.startswith("#")
        )


def _record(instance: str, check: str, ok: bool, **fields) -> dict:
    """One report record: the instance, the check, its fields and its status."""
    return {"instance": instance, "check": check, **fields, "status": "pass" if ok else "fail"}


def all_labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on vertices 0..n-1, in edge-mask order."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        yield Graph.from_edges(n, edges)


def run_suite(suite: str, seed: int = 0, sizes: Optional[Iterable[int]] = None) -> HarnessReport:
    if suite not in SUITES:
        raise ForestBoundError(f"unknown suite {suite!r}; expected one of {tuple(SUITES)}")
    jobs, default_sizes = SUITES[suite]
    sizes = list(sizes) if sizes is not None else list(default_sizes)
    if any(n < 1 for n in sizes):
        raise ForestBoundError(f"sizes must be >= 1, got {','.join(map(str, sizes))}")
    if sizes and not default_sizes:
        raise ForestBoundError(f"suite {suite} takes no sizes, got {','.join(map(str, sizes))}")
    if default_sizes and not sizes:
        raise ForestBoundError(f"suite {suite} needs at least one size")
    report = HarnessReport(suite, seed, sizes)
    for name, job in jobs(seed, sizes):
        start = time.perf_counter()
        try:
            records = job()
        except Exception as exc:  # a failing job fails its record, not the suite
            records = [_record(name, "exception", False, error=type(exc).__name__)]
            report.errors[name] = f"{type(exc).__name__}: " + "".join(str(exc).splitlines()[:1])
        report.records.extend(records)
        report.timings.append((name, (time.perf_counter() - start) * 1000.0))
    report.records.sort(key=lambda r: (r["instance"], r["check"]))
    report.timings.sort(key=lambda t: t[0])
    return report


# ---------------------------------------------------------------------------
# Suites: each yields (job name, job) pairs, and a job returns its records. A job
# binds its inputs when it is made, so the pairs may also be collected first.


def _exhaustive_records(n: int) -> list[dict]:
    graphs = 0
    violations = 0
    for g in all_labeled_graphs(n):
        graphs += 1
        try:
            bound = construct.greedy_linear_forest(g).claimed_bound
        except BoundMiss:
            violations += 1
            continue
        res = exact.alpha_exact(g, LINEAR_FOREST)
        if not res.exact or res.alpha < bound:
            violations += 1
    return [
        _record(f"exhaustive:n={n}", "linear-forest-bound", violations == 0,
                graphs=graphs, violations=violations)
    ]


def _jobs_exhaustive(seed: int, sizes: list[int]):
    for n in sizes:
        yield f"exhaustive:n={n}", partial(_exhaustive_records, n)


def _construct_record(instance: str, check: str, g: Graph, runner) -> dict:
    """The record of runner(g), a constructor that checks its own certificate."""
    try:
        cert = runner(g)
    except BoundMiss:
        return _record(instance, check, False, error="BoundMiss")
    return _record(instance, check, True, size=cert.size(), bound=rat_text(cert.claimed_bound))


def _random_bounds_records(instance: str, g: Graph) -> list[dict]:
    checks = (
        ("greedy-linear", construct.greedy_linear_forest),
        ("caterpillar", construct.caterpillar_forest),
        ("k-caterpillar:k=2", lambda h: construct.k_caterpillar_forest(h, 2)),
        ("k-caterpillar:k=3", lambda h: construct.k_caterpillar_forest(h, 3)),
        ("star-forest", construct.star_forest),
    )
    return [_construct_record(instance, check, g, constructor) for check, constructor in checks]


def _jobs_random_bounds(seed: int, sizes: list[int]):
    for n in sizes:
        for i, p in enumerate((0.1, 0.3, 0.6)):
            instance = f"gnp:n={n},p={p},seed={seed + i}"
            g = gnp(n, p, seed + i)
            yield instance, partial(_random_bounds_records, instance, g)


def _oracle_records(instance: str, g: Graph, cls: ForestClass, expected: int) -> list[dict]:
    res = exact.alpha_exact(g, cls)
    return [
        _record(instance, f"alpha:{cls.to_text()}", res.exact and res.alpha == expected,
                alpha=res.alpha, expected=expected)
    ]


def _construct_records(instance: str, check: str, g: Graph, runner) -> list[dict]:
    return [_construct_record(instance, check, g, runner)]


def _jobs_witness(seed: int, sizes: list[int]):
    for d in range(2, 9):
        g = complete_graph(d + 1)
        name = f"complete:n={d + 1}"
        for k in (2, 3):
            cls = ForestClass("caterpillar", k)
            yield f"{name}/k={k}", partial(_oracle_records, name, g, cls, 2)
    for n in (1, 2, 3):
        for k in (2, 3):
            g = hnk_graph(n, k)
            name = f"hnk:n={n},k={k}"
            cls = ForestClass("caterpillar", k)
            yield name, partial(_oracle_records, name, g, cls, (k + 1) * n)
            yield f"{name}/construct", partial(
                _construct_records, name, f"k-caterpillar:k={k}", g,
                partial(construct.k_caterpillar_forest, k=k))
    for n in range(1, 7):
        g = k_prime_graph(n)
        name = f"kprime:n={n}"
        yield name, partial(_oracle_records, name, g, STAR_FOREST, n + 1)
        yield f"{name}/construct", partial(
            _construct_records, name, "star-forest", g, construct.star_forest)
    yield "cycle:n=5", partial(_oracle_records, "cycle:n=5", cycle_graph(5), STAR_FOREST, 3)


def _lemma_records(instance: str, g: Graph, checks: tuple[str, str], build, oracle) -> list[dict]:
    """build(g)'s record (checks[0]); if it passed, oracle(g)'s alpha vs its bound (checks[1])."""
    built = _construct_record(instance, checks[0], g, build)
    if built["status"] != "pass":
        return [built]
    res = oracle(g)
    ok = res.exact and res.alpha >= Fraction(built["bound"])
    return [built, _record(instance, checks[1], ok, alpha=res.alpha, bound=built["bound"])]


def _abc_records(instance: str, n: int, inst_seed: int) -> list[dict]:
    g = gnp(n, 0.3, inst_seed)
    rng = random.Random(inst_seed + 1)
    p = Partition({v: rng.choice("ABC") for v in g.vertices}, "ABC")
    return _lemma_records(instance, g, ("abc-construct", "abc-oracle"),
                          lambda h: construct.abc_construct(h, p)[0],
                          lambda h: exact.alpha_exact_partitioned(h, p))


def _star_records(instance: str, n: int, inst_seed: int) -> list[dict]:
    g = gnp(n, 0.3, inst_seed)
    return _lemma_records(instance, g, ("star-forest", "star-oracle"),
                          construct.star_forest, lambda h: exact.alpha_exact(h, STAR_FOREST))


def _cubic_records(instance: str, n: int, inst_seed: int) -> list[dict]:
    g = random_regular(n, 3, inst_seed)
    part1, part2 = construct.cubic_partition(g)
    larger = max(len(part1), len(part2))
    ok = 2 * larger >= n and all(
        max(map(len, g.adjacency(part).values()), default=0) <= 1 for part in (part1, part2)
    )
    return [_record(instance, "cubic-partition", ok, larger=larger, n=n)]


def _seeded_jobs(prefix: str, records, reps: int, seed: int, sizes: Iterable[int]):
    """One job per seeded instance, `reps` of them at each size n; the job's
    `records(instance, n, instance seed)` builds the instance's graph."""
    for n in sizes:
        for rep in range(reps):
            inst_seed = seed * 1000 + n * 10 + rep
            instance = f"{prefix}:n={n},seed={inst_seed}"
            yield instance, partial(records, instance, n, inst_seed)


def _jobs_cubic(seed: int, sizes: list[int]):
    # odd sizes round up: a cubic graph has an even number of vertices
    reps = max(1, 20 // len(sizes))
    return _seeded_jobs("cubic", _cubic_records, reps, seed, (n + n % 2 for n in sizes))


# Each suite's jobs and its default sizes.
SUITES = {
    "exhaustive-small": (_jobs_exhaustive, (1, 2, 3, 4, 5)),
    "random-bounds": (_jobs_random_bounds, (12, 20, 30)),
    "witness-families": (_jobs_witness, ()),
    "abc-lemma": (partial(_seeded_jobs, "abc", _abc_records, 5), (8, 10, 12)),
    "star-lemma": (partial(_seeded_jobs, "star", _star_records, 5), (8, 11, 14)),
    "cubic": (_jobs_cubic, (20, 50, 100, 200)),
}

"""Verification harness: batteries that tie bounds, constructors, and the
exact oracle together, emitting line-oriented diffable reports.

Payload lines are deterministic for a fixed (suite, seed, sizes); volatile
data (timestamps, per-instance runtimes) goes to `#` comment lines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional

from . import construct, exact
from .errors import BoundMiss, ForestBoundError
from .generate import (
    complete_graph,
    cycle_graph,
    gnp,
    hnk_graph,
    k_prime_graph,
    random_regular,
)
from .graph import LINEAR_FOREST, STAR_FOREST, ForestClass, Graph
from .partition import Partition
from .weights import BoundSpec, rat_text, total_weight


@dataclass
class HarnessReport:
    suite: str
    seed: int
    sizes: list[int]
    records: list[dict] = field(default_factory=list)
    timings: list[tuple[str, float]] = field(default_factory=list)

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


def _run_jobs(jobs: list[tuple[str, Callable[[], list[dict]]]], report: HarnessReport):
    for name, fn in jobs:
        start = time.perf_counter()
        try:
            records = fn()
        except ForestBoundError as exc:
            records = [_record(name, "exception", False, error=type(exc).__name__)]
        report.records.extend(records)
        report.timings.append((name, (time.perf_counter() - start) * 1000.0))
    report.records.sort(key=lambda r: (r["instance"], r["check"]))
    report.timings.sort(key=lambda t: t[0])


def run_suite(suite: str, seed: int = 0, sizes: Optional[Iterable[int]] = None) -> HarnessReport:
    if suite not in SUITES:
        raise ForestBoundError(f"unknown suite {suite!r}; expected one of {tuple(SUITES)}")
    builder, default_sizes = SUITES[suite]
    sizes = list(sizes) if sizes is not None else list(default_sizes)
    report = HarnessReport(suite, seed, sizes)
    _run_jobs(builder(seed, sizes), report)
    return report


# ---------------------------------------------------------------------------
# Suite job builders


def _jobs_exhaustive(seed: int, sizes: list[int]):
    def check_size(n: int) -> Callable[[], list[dict]]:
        def job() -> list[dict]:
            graphs = 0
            violations = 0
            for g in all_labeled_graphs(n):
                graphs += 1
                bound = total_weight(g, BoundSpec.flin())
                cert = construct.greedy_linear_forest(g)
                if not construct.verify_certificate(g, cert):
                    violations += 1
                    continue
                res = exact.alpha_exact(g, LINEAR_FOREST)
                if not res.exact or Fraction(res.alpha) < bound:
                    violations += 1
            return [
                _record(f"exhaustive:n={n}", "linear-forest-bound", violations == 0,
                        graphs=graphs, violations=violations)
            ]

        return job

    return [(f"exhaustive:n={n}", check_size(n)) for n in sizes]


def _construct_record(instance: str, check: str, g: Graph, runner) -> dict:
    try:
        cert = runner(g)
    except BoundMiss:
        return _record(instance, check, False, error="BoundMiss")
    return _record(instance, check, construct.verify_certificate(g, cert),
                   size=cert.size(), bound=rat_text(cert.claimed_bound))


def _jobs_random_bounds(seed: int, sizes: list[int]):
    jobs = []
    for n in sizes:
        for i, p in enumerate((0.1, 0.3, 0.6)):
            instance = f"gnp:n={n},p={p},seed={seed + i}"
            g = gnp(n, p, seed + i)

            def job(g=g, n=n, instance=instance) -> list[dict]:
                records = [
                    _construct_record(instance, "greedy-linear", g, construct.greedy_linear_forest)
                ]
                if g.min_degree() >= 1:
                    records.append(
                        _construct_record(instance, "caterpillar", g, construct.caterpillar_forest)
                    )
                if n <= 16:
                    for k in (2, 3):
                        records.append(
                            _construct_record(
                                instance,
                                f"k-caterpillar:k={k}",
                                g,
                                lambda h, k=k: construct.k_caterpillar_forest(h, k),
                            )
                        )
                    records.append(
                        _construct_record(instance, "star-forest", g, construct.star_forest)
                    )
                return records

            jobs.append((instance, job))
    return jobs


def _jobs_witness(seed: int, sizes: list[int]):
    jobs = []

    def oracle_job(instance: str, g: Graph, cls: ForestClass, expected: int):
        def job() -> list[dict]:
            res = exact.alpha_exact(g, cls)
            return [
                _record(instance, f"alpha:{cls.to_text()}", res.exact and res.alpha == expected,
                        alpha=res.alpha, expected=expected)
            ]

        return job

    for d in range(2, 9):
        g = complete_graph(d + 1)
        for k in (2, 3):
            name = f"complete:n={d + 1}"
            jobs.append((f"{name}/k={k}", oracle_job(name, g, ForestClass.caterpillar(k), 2)))
    for n in (1, 2, 3):
        for k in (2, 3):
            g = hnk_graph(n, k)
            name = f"hnk:n={n},k={k}"
            jobs.append((name, oracle_job(name, g, ForestClass.caterpillar(k), (k + 1) * n)))

            def cons_job(g=g, k=k, name=name) -> list[dict]:
                return [
                    _construct_record(
                        name, f"k-caterpillar:k={k}", g, lambda h: construct.k_caterpillar_forest(h, k)
                    )
                ]

            jobs.append((f"{name}/construct", cons_job))
    for n in range(1, 7):
        g = k_prime_graph(n)
        name = f"kprime:n={n}"
        jobs.append((name, oracle_job(name, g, STAR_FOREST, n + 1)))

        def star_job(g=g, name=name) -> list[dict]:
            return [_construct_record(name, "star-forest", g, construct.star_forest)]

        jobs.append((f"{name}/construct", star_job))
    c5 = cycle_graph(5)
    jobs.append(("cycle:n=5", oracle_job("cycle:n=5", c5, STAR_FOREST, 3)))
    return jobs


def _jobs_abc_lemma(seed: int, sizes: list[int]):
    import random as _random

    jobs = []
    for n in sizes:
        for rep in range(5):
            inst_seed = seed * 1000 + n * 10 + rep
            instance = f"abc:n={n},seed={inst_seed}"

            def job(n=n, inst_seed=inst_seed, instance=instance) -> list[dict]:
                g = gnp(n, 0.3, inst_seed)
                rng = _random.Random(inst_seed + 1)
                p = Partition.abc({v: rng.choice("ABC") for v in g.vertices})
                bound = total_weight(g, BoundSpec.abc(), p)
                try:
                    cert, _trace = construct.abc_construct(g, p)
                except BoundMiss:
                    return [_record(instance, "abc-construct", False, error="BoundMiss")]
                ok = construct.verify_certificate(g, cert, p)
                res = exact.alpha_exact_partitioned(g, p)
                text = rat_text(bound)
                return [
                    _record(instance, "abc-construct", ok, size=cert.size(), bound=text),
                    _record(instance, "abc-oracle", res.exact and Fraction(res.alpha) >= bound,
                            alpha=res.alpha, bound=text),
                ]

            jobs.append((instance, job))
    return jobs


def _jobs_star_lemma(seed: int, sizes: list[int]):
    jobs = []
    for n in sizes:
        for rep in range(5):
            inst_seed = seed * 1000 + n * 10 + rep
            instance = f"star:n={n},seed={inst_seed}"

            def job(n=n, inst_seed=inst_seed, instance=instance) -> list[dict]:
                g = gnp(n, 0.3, inst_seed)
                records = [
                    _construct_record(instance, "star-forest", g, construct.star_forest)
                ]
                bound = total_weight(g, BoundSpec.star())
                res = exact.alpha_exact(g, STAR_FOREST)
                records.append(
                    _record(instance, "star-oracle", res.exact and Fraction(res.alpha) >= bound,
                            alpha=res.alpha, bound=rat_text(bound))
                )
                return records

            jobs.append((instance, job))
    return jobs


def _jobs_cubic(seed: int, sizes: list[int]):
    jobs = []
    rep_count = max(1, 20 // max(1, len(sizes)))
    for n in sizes:
        if n % 2:
            n += 1
        for rep in range(rep_count):
            inst_seed = seed * 1000 + n * 10 + rep
            instance = f"cubic:n={n},seed={inst_seed}"

            def job(n=n, inst_seed=inst_seed, instance=instance) -> list[dict]:
                g = random_regular(n, 3, inst_seed)
                part1, part2 = construct.cubic_partition(g)
                larger = max(len(part1), len(part2))
                ok = (
                    max(g.induced(part1).max_degree(), 0) <= 1
                    and max(g.induced(part2).max_degree(), 0) <= 1
                    and 2 * larger >= n
                )
                return [_record(instance, "cubic-partition", ok, larger=larger, n=n)]

            jobs.append((instance, job))
    return jobs


# Each suite's job builder and its default sizes.
SUITES = {
    "exhaustive-small": (_jobs_exhaustive, (1, 2, 3, 4, 5)),
    "random-bounds": (_jobs_random_bounds, (12, 20, 30)),
    "witness-families": (_jobs_witness, ()),
    "abc-lemma": (_jobs_abc_lemma, (8, 10, 12)),
    "star-lemma": (_jobs_star_lemma, (8, 11, 14)),
    "cubic": (_jobs_cubic, (20, 50, 100, 200)),
}

"""Acceptance criteria, one test each. Every test prints a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import time
from collections import Counter
from fractions import Fraction as F

from forestbound import (
    BoundSpec,
    ForestClass,
    LINEAR_FOREST,
    STAR_FOREST,
    alpha_exact,
    alpha_exact_partitioned,
    cubic_partition,
    graph_counts,
    k_caterpillar_forest,
    run_suite,
    star_forest,
    total_weight,
    verify_certificate,
)
from forestbound.errors import BoundMiss
from forestbound.generate import (
    complete_graph,
    cycle_graph,
    fig1_gadget,
    gnp,
    hnk_graph,
    k_prime_graph,
    random_regular,
)
from forestbound.weights import epsilon_star, f_k_eps


def _report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion} [{name}]: {verdict}{suffix}")
    assert ok, f"criterion {criterion} failed: {name} {detail}"


def test_criterion_1_linear_forest_exhaustive():
    """Every labeled graph on n <= 6: greedy certificate verifies and the
    exact linear-forest optimum meets the degree-sequence bound."""
    start = time.perf_counter()
    report = run_suite("exhaustive-small", sizes=[1, 2, 3, 4, 5, 6])
    elapsed = time.perf_counter() - start
    graphs = {r["instance"]: r["graphs"] for r in report.records}
    counts_ok = graphs["exhaustive:n=6"] == 32768 and sum(graphs.values()) == 33867
    _report(
        1,
        "exhaustive n<=6",
        report.failures == 0 and counts_ok and elapsed < 300.0,
        f"{sum(graphs.values())} graphs, {elapsed:.1f}s",
    )


def test_criterion_2_witness_equalities():
    failures = []
    for d in range(2, 9):
        for k in (2, 3):
            res = alpha_exact(complete_graph(d + 1), ForestClass("caterpillar", k))
            if not (res.exact and res.alpha == 2):
                failures.append(f"K_{d + 1} k={k}: {res.alpha}")
    for n in (1, 2, 3):
        for k in (2, 3):
            res = alpha_exact(hnk_graph(n, k), ForestClass("caterpillar", k))
            if not (res.exact and res.alpha == (k + 1) * n):
                failures.append(f"H_{{{n},{k}}}: {res.alpha}")
    for n in range(1, 7):
        res = alpha_exact(k_prime_graph(n), STAR_FOREST)
        if not (res.exact and res.alpha == n + 1):
            failures.append(f"K'_{n}: {res.alpha}")
    res = alpha_exact(cycle_graph(5), STAR_FOREST)
    if not (res.exact and res.alpha == 3):
        failures.append(f"C_5: {res.alpha}")
    _report(2, "witness equalities", not failures, "; ".join(failures))


def _fkeps_total(counts, k, eps):
    """The k-caterpillar bound on degree -> count, summed with f_k_eps."""
    return sum((c * f_k_eps(k, eps, d) for d, c in counts.items()), F(0))


def test_criterion_3_epsilon_star_optimality():
    rng = random.Random(20240)
    mismatches = 0
    for trial in range(1000):
        k = (2, 3, 4)[trial % 3]
        counts = {}
        for _ in range(rng.randint(1, 10)):
            counts[rng.randint(0, 30)] = rng.randint(0, 12)
        eps, _d_star = epsilon_star(counts, k)
        breakpoints = [F(0)] + [
            F(2, (k + 1) * (D + 1))
            for D in range(k + 1, max(max(counts), k + 1) + 1)
        ]
        best = max(_fkeps_total(counts, k, b) for b in breakpoints)
        if _fkeps_total(counts, k, eps) != best:
            mismatches += 1
    _report(3, "epsilon_star vs brute force", mismatches == 0, f"{mismatches} mismatches")


def test_criterion_4_k_caterpillar_bounds():
    sizes = (10, 12, 14)
    ps = (0.15, 0.3, 0.5)
    violations = []
    runs = 0
    for i in range(150):
        g = gnp(sizes[i % 3], ps[(i // 3) % 3], 40000 + i)
        counts = Counter(g.degrees())
        for k in (2, 3):
            runs += 1
            try:
                cert = k_caterpillar_forest(g, k)
            except BoundMiss:
                violations.append(f"seed {40000 + i} k={k}: BoundMiss")
                continue
            if not verify_certificate(g, cert):
                violations.append(f"seed {40000 + i} k={k}: certificate invalid")
                continue
            h_spec = BoundSpec("hkg", k)
            h_bound = total_weight(graph_counts(g, h_spec), h_spec)
            eps, _ = epsilon_star(counts, k)
            f_spec = BoundSpec("fkeps", k, eps)
            f_bound = total_weight(graph_counts(g, f_spec), f_spec)
            res = alpha_exact(g, ForestClass("caterpillar", k))
            if not res.exact:
                violations.append(f"seed {40000 + i} k={k}: oracle inexact")
            elif F(res.alpha) < h_bound or F(res.alpha) < f_bound:
                violations.append(f"seed {40000 + i} k={k}: alpha {res.alpha} below bound")
    _report(4, "k-caterpillar local bound", not violations,
            f"{runs} runs; " + "; ".join(violations[:3]))


def test_criterion_5_fig1_tightness():
    failures = []
    for name in ("P3AB", "K2AC", "K3ACC"):
        g, p = fig1_gadget(name)
        spec = BoundSpec("abc")
        bound = total_weight(graph_counts(g, spec, p), spec)
        res = alpha_exact_partitioned(g, p)
        if not (res.exact and F(res.alpha) == bound):
            failures.append(f"{name}: alpha={res.alpha} bound={bound}")
    _report(5, "Fig.1 gadgets tight", not failures, "; ".join(failures))


def test_criterion_6_cubic_partitions():
    failures = []
    cases = [(n, rep) for n in (50, 100, 150, 200) for rep in range(5)]
    assert len(cases) == 20
    for n, rep in cases:
        g = random_regular(n, 3, 60000 + 10 * n + rep)
        start = time.perf_counter()
        part1, part2 = cubic_partition(g)
        elapsed = time.perf_counter() - start
        ok = (
            max(g.induced(part1).degrees(), default=0) <= 1
            and max(g.induced(part2).degrees(), default=0) <= 1
            and 2 * max(len(part1), len(part2)) >= n
            and elapsed < 1.0
        )
        if not ok:
            failures.append(f"n={n} rep={rep} ({elapsed:.3f}s)")
    _report(6, "cubic partitions", not failures, "; ".join(failures))


def test_criterion_7_star_forest_bounds():
    sizes = (10, 12, 14)
    violations = []
    for i in range(300):
        g = gnp(sizes[i % 3], (0.15, 0.3, 0.5)[(i // 3) % 3], 70000 + i)
        try:
            cert = star_forest(g)
        except BoundMiss:
            violations.append(f"seed {70000 + i}: BoundMiss")
            continue
        if not verify_certificate(g, cert):
            violations.append(f"seed {70000 + i}: certificate invalid")
            continue
        spec = BoundSpec("star")
        bound = total_weight(graph_counts(g, spec), spec)
        res = alpha_exact(g, STAR_FOREST)
        if not (res.exact and F(res.alpha) >= bound):
            violations.append(f"seed {70000 + i}: alpha {res.alpha} below {bound}")
    _report(7, "star forest bounds", not violations, "; ".join(violations[:3]))


def test_criterion_8_regular_linear_forests():
    violations = []
    for d in (3, 4, 5):
        for n in (8, 12, 16):
            for rep in (0, 1):
                g = random_regular(n, d, 80000 + 100 * d + 10 * n + rep)
                res = alpha_exact(g, LINEAR_FOREST)
                if not (res.exact and F(res.alpha) >= F(2 * n, d + 1)):
                    violations.append(f"n={n} d={d} rep={rep}: {res.alpha}")
    _report(8, "regular-case linear bound", not violations, "; ".join(violations))

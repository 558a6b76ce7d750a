"""Frozen behaviour of every constructor and harness suite.

`outputs()` runs each constructor over a fixed corpus (every graph on at
most 5 vertices, every ABC/AB labeling of every graph on at most 4
vertices, seeded G(n, p) for n = 6, 12, ..., 60, cycles, paths, combs and the rule
gadgets of test_construct.py), the picks of the path/cycle DP on every
ABC/AB labeling of C5-C7, the harness suites at seeds 0-2 (at their
default sizes, and cubic and random-bounds also at a few others) and the
stdout and exit code of the `bound`, `epsilon-opt`, `construct` and `exact`
commands on a few small graphs (the `exact` outputs once more without their
`nodes=` lines, as `cli/exact-results`). It groups
the text of each result by (producer, corpus); `golden_digests.json` holds
the SHA-256 of every group, and tests/test_golden.py recomputes them.

After a change that is meant to alter outputs, rewrite the fixture with

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

from forestbound import (
    Graph,
    Partition,
    ab_construct,
    abc_construct,
    caterpillar_forest,
    certificate_to_text,
    format_edge_list,
    format_partition,
    greedy_linear_forest,
    k_caterpillar_forest,
    run_suite,
    star_forest,
)
from forestbound.cli import main as cli_main
from forestbound.construct import _dp_component
from forestbound.errors import ForestBoundError
from forestbound.generate import (
    complete_graph,
    cycle_graph,
    fig1_gadget,
    gnp,
    hnk_graph,
    k_prime_graph,
    path_graph,
    random_regular,
    star_graph,
)
from forestbound.harness import SUITES, all_labeled_graphs

FIXTURE = Path(__file__).with_name("golden_digests.json")

UNCONSTRAINED = {
    "greedy_linear_forest": greedy_linear_forest,
    "caterpillar_forest": caterpillar_forest,
    "k_caterpillar_forest:k=2": lambda g: k_caterpillar_forest(g, 2),
    "k_caterpillar_forest:k=3": lambda g: k_caterpillar_forest(g, 3),
    "star_forest": star_forest,
}


def comb(spine: int, teeth: int) -> Graph:
    """A path of `spine` vertices, each carrying `teeth` pendant leaves."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    for i in range(spine):
        edges.extend((i, spine + teeth * i + j) for j in range(teeth))
    return Graph.from_edges(spine * (teeth + 1), edges)


def small_graphs(max_n: int) -> list[Graph]:
    return [g for n in range(max_n + 1) for g in all_labeled_graphs(n)]


def seeded_gnp() -> list[tuple[Graph, int]]:
    """G(n, d/(n-1)) of mean degree d = 1.5, 3 or 5 for n = 6, 12, ..., 60,
    each with the seed for its labeling."""
    return [
        (gnp(n, (1.5, 3, 5)[n // 6 % 3] / (n - 1), 7000 + n), 8000 + n)
        for n in range(6, 61, 6)
    ]


def families() -> list[Graph]:
    graphs = [cycle_graph(n) for n in (*range(3, 13), 40)]
    graphs += [path_graph(n) for n in (*range(1, 13), 40)]
    graphs += [comb(s, t) for s in range(1, 7) for t in range(1, 5)]
    graphs += [complete_graph(n) for n in range(1, 8)]
    graphs += [star_graph(t) for t in range(0, 8)]
    graphs += [hnk_graph(n, k) for n in (1, 2, 3) for k in (2, 3)]
    graphs += [k_prime_graph(n) for n in range(1, 7)]
    return graphs


def constrained_gadgets() -> list[tuple[str, Graph, Partition, dict]]:
    """The labeled inputs that test_construct.py uses to reach single rules,
    plus two disjoint K4s, which reach R4 when all-B and S4 when all-A."""
    out = [(name, *fig1_gadget(name), {}) for name in ("P3AB", "K2AC", "K3ACC")]
    g = gnp(12, 0.3, 99)
    out.append(("gnp12-abc-mod3", g, Partition({v: "ABC"[v % 3] for v in g.vertices}, "ABC"), {}))
    g = path_graph(40)
    out.append(("path40-A", g, Partition(dict.fromkeys(g.vertices, "A"), "ABC"), {}))
    out.append(("k2-AA", path_graph(2), Partition({0: "A", 1: "A"}, "AB"), {}))
    g = cycle_graph(5)
    out.append(("c5-A", g, Partition(dict.fromkeys(g.vertices, "A"), "AB"), {}))
    out.append(("p3-BAB", path_graph(3), Partition({0: "B", 1: "A", 2: "B"}, "AB"), {}))
    g = cycle_graph(100)
    out.append(("c100-A", g, Partition(dict.fromkeys(g.vertices, "A"), "AB"), {}))
    g = random_regular(20, 3, 8)
    out.append(("cubic20-A", g, Partition(dict.fromkeys(g.vertices, "A"), "AB"), {}))
    g = Graph.from_edges(8, [(u, v) for base in (0, 4) for u in range(base, base + 4)
                             for v in range(u + 1, base + 4)])
    out.append(("2k4-B", g, Partition(dict.fromkeys(g.vertices, "B"), "ABC"), {}))
    out.append(("2k4-A", g, Partition(dict.fromkeys(g.vertices, "A"), "AB"), {}))
    return out


def _random_partition(g: Graph, mode: str, seed: int) -> Partition:
    rng = random.Random(seed)
    return Partition({v: rng.choice(mode) for v in g.vertices}, mode)


def _run_constrained(g: Graph, p: Partition, rules: Counter, **kwargs) -> str:
    engine = abc_construct if p.mode == "ABC" else ab_construct
    try:
        cert, trace = engine(g, p, **kwargs)
    except ForestBoundError as exc:
        return f"error={type(exc).__name__}\n"
    rules.update(step.rule for step in trace.steps)
    return certificate_to_text(cert, trace=trace) + repr(trace.steps) + "\n"


def _run(fn, g: Graph) -> str:
    try:
        return certificate_to_text(fn(g))
    except ForestBoundError as exc:
        return f"error={type(exc).__name__}\n"


CLI_BOUND_SPECS = (
    "flin", "fkeps:k=2", "fkeps:k=3", "fkeps:k=2,eps=1/10", "fk:k=2", "fk:k=3",
    "hkg:k=2", "hkg:k=3", "star", "star:eps=1/10",
)
CLI_KINDS = (
    ("linear",), ("caterpillar",), ("caterpillar", "--k", "2"), ("caterpillar", "--k", "3"),
    ("star",), ("abc", "--partition", "{ABC}"), ("ab", "--partition", "{AB}"),
)


def cli_inputs() -> list[tuple[str, Graph, Partition, Partition]]:
    """(name, graph, ABC labeling, AB labeling) of the CLI corpus: the claw,
    C5, the Fig. 1 gadgets with their drawn labelings, and two G(n, p)."""
    out = [("claw", star_graph(3)), ("c5", cycle_graph(5)),
           ("gnp12", gnp(12, 0.3, 5)), ("gnp20", gnp(20, 0.2, 6))]
    rows = [(name, g, _random_partition(g, "ABC", i), _random_partition(g, "AB", i))
            for i, (name, g) in enumerate(out)]
    for name in ("P3AB", "K2AC", "K3ACC"):
        g, p = fig1_gadget(name)
        rows.append((name, g, p, _random_partition(g, "AB", len(rows))))
    return rows


def cli_outputs() -> dict[str, list[str]]:
    """Stdout and exit code of `bound`, `epsilon-opt`, `construct` and
    `exact` over the CLI corpus, grouped by command."""
    groups: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, g, abc_p, ab_p in cli_inputs():
            files = {"{G}": f"{name}.txt", "{ABC}": f"{name}.abc", "{AB}": f"{name}.ab"}
            Path(tmp, files["{G}"]).write_text(format_edge_list(g))
            Path(tmp, files["{ABC}"]).write_text(format_partition(abc_p))
            Path(tmp, files["{AB}"]).write_text(format_partition(ab_p))
            runs = [("bound", "{G}", spec) for spec in CLI_BOUND_SPECS]
            runs += [("bound", "{G}", "abc", "--partition", "{ABC}"),
                     ("bound", "{G}", "abstar", "--partition", "{AB}")]
            runs += [("epsilon-opt", "{G}", *flag) for flag in (("--k", "2"), ("--k", "3"), ("--star",))]
            runs += [(cmd, "{G}", *kind) for cmd in ("construct", "exact") for kind in CLI_KINDS]
            for argv in runs:
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = cli_main([str(Path(tmp, files[a])) if a in files else a for a in argv])
                shown = " ".join(files.get(a, a) for a in argv)
                groups.setdefault(f"cli/{argv[0]}", []).append(f"{shown}\nexit={code}\n{out.getvalue()}")
    # The oracle's answers without its node count, which a change to the
    # search's pruning moves while alpha, the witness and exact= stay put.
    groups["cli/exact-results"] = [
        "".join(line for line in text.splitlines(keepends=True) if not line.startswith("nodes="))
        for text in groups["cli/exact"]
    ]
    return groups


def outputs() -> tuple[dict[str, list[str]], Counter]:
    """Result texts grouped by producer and corpus, and the rules that fired."""
    groups: dict[str, list[str]] = {}
    rules: Counter = Counter()
    small = small_graphs(5)
    gnps = seeded_gnp()
    fams = families()
    for name, fn in UNCONSTRAINED.items():
        groups[f"{name}/all-graphs-n<=5"] = [_run(fn, g) for g in small]
        groups[f"{name}/gnp-n=6..60"] = [_run(fn, g) for g, _ in gnps]
        groups[f"{name}/families"] = [_run(fn, g) for g in fams]
    # caterpillar_forest on every corpus graph without an isolated vertex:
    # what it returned before it took isolated vertices too
    groups["caterpillar_forest/no-isolated-vertex"] = [
        _run(caterpillar_forest, g) for g in (*small, *(g for g, _ in gnps), *fams)
        if all(g.degrees())
    ]
    tiny = small_graphs(4)
    for mode in ("ABC", "AB"):
        name = "abc_construct" if mode == "ABC" else "ab_construct"
        groups[f"{name}/all-labelings-n<=4"] = [
            _run_constrained(g, Partition(dict(zip(g.vertices, word)), mode), rules)
            for g in tiny
            for word in product(mode, repeat=g.n)
        ]
        groups[f"{name}/gnp-n=6..60"] = [
            _run_constrained(g, _random_partition(g, mode, seed), rules) for g, seed in gnps
        ]
    groups["dp_component/cycles-n=5..7"] = [
        f"{mode} {''.join(word)} {sorted(_dp_component(adj, g.vertices, labels, mode))}"
        for g in map(cycle_graph, (5, 6, 7))
        for adj in [g.adjacency()]
        for mode in ("ABC", "AB")
        for word in product(mode, repeat=g.n)
        for labels in [dict(zip(g.vertices, word))]
    ]
    groups["constrained/gadgets"] = [
        _run_constrained(g, p, rules, **kwargs) for _, g, p, kwargs in constrained_gadgets()
    ]
    for suite in SUITES:
        # exhaustive-small does not use its seed
        for seed in range(1 if suite == "exhaustive-small" else 3):
            groups[f"harness/{suite}/seed={seed}"] = [run_suite(suite, seed).payload()]
    # sizes off the defaults: odd cubic sizes round up, and n = 1 becomes 2, for
    # which no cubic graph exists; random-bounds at n = 1 runs every check on
    # a single isolated vertex, and at n = 17 above the exact threshold of 16
    for suite, sizes in (("cubic", (1, 5, 21)), ("random-bounds", (1, 17))):
        groups[f"harness/{suite}/sizes={','.join(map(str, sizes))}"] = [
            run_suite(suite, seed, sizes).payload() for seed in range(3)
        ]
    groups.update(cli_outputs())
    return groups, rules


def digests(groups: dict[str, list[str]]) -> dict[str, str]:
    return {
        key: hashlib.sha256("\n".join(texts).encode()).hexdigest()
        for key, texts in sorted(groups.items())
    }


if __name__ == "__main__":
    groups, rules = outputs()
    FIXTURE.write_text(json.dumps(digests(groups), indent=1) + "\n")
    print(f"wrote {len(groups)} digests to {FIXTURE}; rules fired: {dict(sorted(rules.items()))}")

"""Tests for the benchmark's independent checker, plus a reduced-size round
of every workload (untraced and traced) so the benchmark does not rot.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_checker as bc  # noqa: E402
import bench_inputs as gen  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402
from bench_trace import Tracer  # noqa: E402


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def checker_for(tmp_path, n, edges, parts=None):
    gen.write_edge_list(tmp_path / "g.txt", n, edges)
    if parts is not None:
        gen.write_partition(tmp_path / "g.part", parts)
    return bc.Checker(tmp_path)


def op(command, kind, k=None, partition=None):
    return bench_workloads.Op("t", command, [], "g.txt", kind, k, partition)


# ---------------------------------------------------------------------------
# Worked values from the README and the paper's gadgets


def test_k4_linear_bound_is_2(tmp_path):
    c = checker_for(tmp_path, 4, gen.complete(4))
    assert c.bound("g.txt", "flin") == 2
    assert c.brute("g.txt", "linear", None) == 2


def test_claw_optimal_eps_is_one_sixth(tmp_path):
    c = checker_for(tmp_path, 4, [(0, 1), (0, 2), (0, 3)])
    assert c.bound("g.txt", "fkeps", 2) == 3
    good = "eps=1/6\nd_star=3\nbound=3/1 (~3.000000)\n"
    assert c.check_epsilon_opt(op("epsilon-opt", "fkeps", 2), good) is None
    assert c.check_bound(op("bound", "fkeps:k=2", 2), good) is None
    wrong_d = "eps=1/6\nd_star=4\nbound=3/1 (~3.000000)\n"
    assert "d_star" in c.check_epsilon_opt(op("epsilon-opt", "fkeps", 2), wrong_d)


def test_suboptimal_eps_is_rejected(tmp_path):
    # K_{1,4}: total 4(1 - eps) + min(3 eps, 2/5) peaks at eps = 0 for k = 2.
    c = checker_for(tmp_path, 5, [(0, i) for i in range(1, 5)])
    err = c.check_epsilon_opt(op("epsilon-opt", "fkeps", 2), "eps=2/15\nd_star=4\nbound=1/1\n")
    assert err and "not optimal" in err


def test_c5(tmp_path):
    c = checker_for(tmp_path, 5, gen.cycle(5))
    assert c.bound("g.txt", "flin") == F(10, 3)
    assert c.bound("g.txt", "star") == 3  # any eps >= 1/10
    assert c.brute("g.txt", "linear", None) == 4
    assert c.brute("g.txt", "star", None) == 3


@pytest.mark.parametrize(
    "n, edges, parts",
    [
        (3, [(0, 1), (1, 2)], "ABA"),  # P3AB
        (2, [(0, 1)], "AC"),  # K2AC
        (3, [(0, 1), (1, 2), (0, 2)], "ACC"),  # K3ACC
    ],
)
def test_fig1_gadgets_are_tight(tmp_path, n, edges, parts):
    c = checker_for(tmp_path, n, edges, list(parts))
    bound = c.bound("g.txt", "abc", partition="g.part")
    assert bound == c.brute("g.txt", "linear", None, "g.part", "abc")


def test_bad_outputs_are_rejected(tmp_path):
    c = checker_for(tmp_path, 5, gen.complete(5))
    linear = op("construct", "linear")
    assert c.check_bound(op("bound", "flin"), "bound=3/1 (~3.0)\n")
    assert c.cert_error(linear, bench_workloads.BOGUS_CERT)  # claims 0/1, true bound 2
    triangle = "class=linear\nbound=2/1\nvertices=0 1 2\n"
    assert "not a linear" in c.cert_error(linear, triangle)
    assert c.cert_error(linear, "class=linear\nbound=2/1\nvertices=0 1\n") is None
    exact = op("exact", "linear")
    assert "constructed" in c.check_exact(exact, "alpha=2\nwitness=0 1\nexact=yes\n", 3)
    assert "not exact" in c.check_exact(exact, "alpha=2\nwitness=0 1\nexact=no\n", None)
    c6 = checker_for(tmp_path, 6, gen.cycle(6))  # bound 4, optimum 5
    assert "brute" in c6.check_exact(exact, "alpha=4\nwitness=0 1 2 3\nexact=yes\n", None)


# ---------------------------------------------------------------------------
# Recognizers against networkx on its bundled graph atlas


def _nx_reference(nx, h, cls, k):
    if h.number_of_nodes() == 0:
        return True
    if not nx.is_forest(h) or (k is not None and max(d for _, d in h.degree()) > k):
        return False
    for comp in nx.connected_components(h):
        tree = h.subgraph(comp)
        if cls == "linear" and max(d for _, d in tree.degree()) > 2:
            return False
        if cls == "star" and nx.diameter(tree) > 2:
            return False
        if cls == "caterpillar":
            # A tree is a caterpillar iff every vertex is within distance 1
            # of a longest path.
            a = max(nx.shortest_path_length(tree, next(iter(comp))).items(), key=lambda x: x[1])[0]
            dist = nx.shortest_path_length(tree, a)
            b = max(dist.items(), key=lambda x: x[1])[0]
            spine = set(nx.shortest_path(tree, a, b))
            if any(v not in spine and not set(tree[v]) & spine for v in comp):
                return False
    return True


def test_recognizers_match_networkx_atlas():
    nx = pytest.importorskip("networkx")
    checked = 0
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n > 6:
            break
        adj = adjacency(n, g.edges())
        for cls, k in (("linear", None), ("star", None), ("caterpillar", None),
                       ("caterpillar", 2), ("caterpillar", 3)):
            assert bc.in_class(adj, set(range(n)), cls, k) == _nx_reference(nx, g, cls, k), (
                list(g.edges()), cls, k)
            checked += 1
    assert checked == 5 * 209  # the atlas holds 209 graphs on at most 6 vertices


# ---------------------------------------------------------------------------
# Every workload at reduced size, through the real CLI


@pytest.mark.parametrize("workload", sorted(bench_workloads.WORKLOADS))
def test_workload_round_passes_its_checks(workload, tmp_path):
    cli = importlib.import_module("forestbound.cli")
    ops = bench_workloads.build(workload, 7, tmp_path, scale=0.02)
    plain = run.run_round(cli, ops, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_round(cli, ops, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert cli.parse_edge_list.__module__ == "forestbound.graph"  # originals restored
    failed, errors, faults = run.check(bc.Checker(tmp_path), [plain, traced])
    assert errors == []
    known = [o for o in ops if o.known_fault == bench_workloads.FAULT_VERIFY_TRUSTS_BOUND]
    assert failed == 2 * len(known) and len(faults) == len(known)
    layers = tracer.round_metrics(0)
    # known-fault ops run untraced in a child process
    assert layers["graph.parse_calls"] == sum(
        o.command != "harness" and not o.known_fault for o in ops)
    assert all(f"{layer}.self_s" in layers for layer in ("cli", "graph", "exact"))

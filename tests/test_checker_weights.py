"""The bound weights against the benchmark's independent checker.

`perfbench/bench_checker.py` recomputes every bound from the paper's weight
formulas without importing forestbound. It is loaded here read-only, from
its file, so two implementations written apart must agree.
"""

import importlib.util
import random
from fractions import Fraction as F
from pathlib import Path

from forestbound import BoundSpec, Graph, graph_counts, total_weight
from forestbound.weights import _VARIANTS, STAR_EPS_MAX, eps_max

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "bench_checker.py"
_SPEC = importlib.util.spec_from_file_location("bench_checker", _PATH)
bc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bc)

DEGREES = range(65)
KS = range(2, 6)


def weight(variant, k, eps, key):
    return _VARIANTS[variant][3](k, eps, key)


def test_every_variant_weight_matches_the_checker_at_degrees_up_to_64():
    checked = set()
    for d in DEGREES:
        checked.add("flin")
        assert weight("flin", None, None, d) == bc.w_flin(d), d
        if d >= 1:  # w_cat assumes no isolated vertices
            checked.add("aks")
            assert weight("aks", None, None, d) == bc.w_cat(d), d
        for part in "ABC":
            checked.add("abc")
            assert weight("abc", None, None, (part, d)) == bc.w_abc(part, d), (part, d)
        for part in "AB":
            checked.add("abstar")
            assert weight("abstar", None, None, (part, d)) == bc.w_ab(part, d), (part, d)
        for k in KS:
            checked |= {"fk", "hkg"}
            assert weight("fk", k, None, d) == bc.w_fkeps(k, eps_max(k), d), (k, d)
            if d != 1:
                assert weight("hkg", k, None, (None, d)) == bc.w_hkg(k, d, 0), (k, d)
        for k in KS:
            # the ends of the range and every kink 2/((k+1)(d'+1)) inside it
            kinks = [F(2, (k + 1) * (dd + 1)) for dd in range(k + 1, 65)]
            for eps in (F(0), eps_max(k), *kinks):
                checked.add("fkeps")
                assert weight("fkeps", k, eps, d) == bc.w_fkeps(k, eps, d), (k, eps, d)
        # the ends of the range, the degree-2 kink and every kink (d'-1)/(d'(d'+1))
        kinks = [F(dd - 1, dd * (dd + 1)) for dd in range(3, 65)]
        for eps in (F(0), STAR_EPS_MAX, F(1, 10), *kinks):
            checked.add("star")
            assert weight("star", None, eps, d) == bc.w_star(eps, d), (eps, d)
    for k in KS:
        for dw in range(1, 65):  # a leaf's weight reads its neighbour's degree
            assert weight("hkg", k, None, (dw, 1)) == bc.w_hkg(k, 1, dw), (k, dw)
    assert checked == set(_VARIANTS)


def seeded_graph(seed: int) -> Graph:
    """A few hubs with random leaf counts, on a sparse random graph: enough
    leaves against high degrees that the optimal eps moves off 0."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    for hub in range(rng.randint(0, min(n, 4))):
        for _ in range(rng.randint(0, 12)):
            edges.append((hub, n))
            n += 1
    return Graph.from_edges(n, edges)


def test_auto_eps_totals_match_the_checkers_best_total(monkeypatch):
    # Each total is concave and piecewise linear in eps, so its maximum lies
    # at an end of the range or at a kink of a degree present, all of which
    # eps_candidates lists whatever the grid; a coarse grid keeps the
    # checker's maximum and makes 600 of them affordable.
    monkeypatch.setattr(bc, "EPS_GRID", 6)
    specs = [("fkeps", BoundSpec("fkeps", 2), 2), ("fkeps", BoundSpec("fkeps", 3), 3),
             ("star", BoundSpec("star"), None)]
    for seed in range(200):
        g = seeded_graph(seed)
        hist = bc.histogram(list(g.adjacency().values()))
        for family, spec, k in specs:
            total = total_weight(graph_counts(g, spec), spec)
            assert total == bc.best_family_total(hist, family, k), (seed, family, k)

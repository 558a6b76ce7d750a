"""The reduction engine's integer gain tables: identical runs to the
Fraction engine they replaced, exact verdicts past the initial scale, and a
counter gate on the gain terms a run touches."""

import heapq
import random
from collections import Counter
from fractions import Fraction as F
from functools import cache
from typing import Optional

import pytest

from forestbound import construct
from forestbound.construct import _RULES, ReductionStep, _WorkingGraph
from forestbound.generate import FIG1_GADGETS, fig1_gadget, gnp, random_regular
from forestbound.graph import Graph
from forestbound.partition import Partition
from forestbound.weights import ab_star_gain, ab_star_weight, abc_weight, gain

_ZERO = F(0)


class ReferenceGraph:
    """The working graph before its integer tables, kept as a reference: it
    re-sums the Fraction gains of a dirty vertex's whole neighbourhood at
    every check, behind a memo keyed by the sorted neighbourhood. Its scale
    is 1, so `_reduce` compares its Fraction totals unchanged. Like the
    engine it works on the neighbour sets by vertex position that it is
    given, and it checks that they leave out every unlabelled position."""

    scale = 1

    def __init__(self, ids: tuple, nbrs: list[set[int]], labels: list, table: dict):
        self.weight = cache(getattr(construct, table["weight"]))
        self.gain = cache(getattr(construct, table["gain"]))
        self.leaf_parts, self.demote = table["leaf"], table["demote"]
        self.ids, self.nbrs, self.labels = ids, nbrs, labels
        assert len(nbrs) == len(labels) == len(ids)
        for ws, part in zip(nbrs, labels):
            assert not ws if part is None else None not in map(labels.__getitem__, ws)
        self.inst: set[int] = set()
        self.high = 0
        self.dirty: set[int] = set()
        self.deletable: dict[int, F] = {}
        self.deletable_heap: list[tuple[F, int]] = []
        self.leaves: set[int] = set()
        self.leaf_heap: list[int] = []
        self.verdicts: dict[tuple, bool] = {}

    def start(self, inst: set[int], fresh: bool) -> None:
        self.inst = inst
        self.high = sum(1 for v in inst if len(self.nbrs[v]) >= 3)
        if fresh:
            self.dirty |= inst

    def total(self, vertices) -> F:
        labels, nbrs = self.labels, self.nbrs
        counts = Counter((labels[v], len(nbrs[v])) for v in vertices)
        return sum((count * self.weight(*key) for key, count in counts.items()), _ZERO)

    def refresh(self) -> int:
        nbrs, labels, weight, gain = self.nbrs, self.labels, self.weight, self.gain
        inst, deletable, leaves, verdicts = self.inst, self.deletable, self.leaves, self.verdicts
        checked = 0
        for v in self.dirty:
            if v not in inst:
                continue
            checked += 1
            around_v = nbrs[v]
            part = labels[v]
            fv = weight(part, len(around_v))
            around = (part, tuple(sorted([(labels[w], len(nbrs[w])) for w in around_v])))
            ok = verdicts.get(around)
            if ok is None:
                ok = verdicts[around] = fv <= sum([gain(*key) for key in around[1]], _ZERO)
            if ok:
                if deletable.get(v) != fv:
                    deletable[v] = fv
                    heapq.heappush(self.deletable_heap, (fv, v))
            else:
                deletable.pop(v, None)
            if self._strippable(v, part):
                if v not in leaves:
                    leaves.add(v)
                    heapq.heappush(self.leaf_heap, v)
            else:
                leaves.discard(v)
        self.dirty.clear()
        return checked

    def _strippable(self, v: int, part: str) -> bool:
        if len(self.nbrs[v]) != 1 or part not in self.leaf_parts:
            return False
        (w,) = self.nbrs[v]
        demoted = self.demote.get(self.labels[w])
        if demoted is None:
            return False
        weight, dw = self.weight, len(self.nbrs[w])
        return weight(part, 1) + (weight(self.labels[w], dw) - weight(demoted, dw - 1)) <= 1

    def lightest_deletable(self) -> Optional[int]:
        heap = self.deletable_heap
        while heap:
            fv, v = heap[0]
            if v in self.inst and self.deletable.get(v) == fv:
                return v
            heapq.heappop(heap)
        return None

    def lowest_leaf(self) -> Optional[int]:
        heap = self.leaf_heap
        while heap and not (heap[0] in self.inst and heap[0] in self.leaves):
            heapq.heappop(heap)
        return heap[0] if heap else None

    def apply(self, step: ReductionStep) -> None:
        nbrs = self.nbrs
        for x, y in step.added_edges:
            for a, b in ((x, y), (y, x)):
                self.high += len(nbrs[a]) == 2
                nbrs[a].add(b)
            self._touch(x)
            self._touch(y)
        for v in step.removed:
            around_v, nbrs[v] = nbrs[v], set()
            self.inst.discard(v)
            self.deletable.pop(v, None)
            self.leaves.discard(v)
            self.high -= len(around_v) >= 3
            for w in around_v:
                self.high -= len(nbrs[w]) == 3
                nbrs[w].discard(v)
                self._touch(w)
        for v, part in step.relabeled:
            self.labels[v] = part
            self._touch(v)

    def _touch(self, v: int) -> None:
        self.dirty.add(v)
        self.dirty.update(self.nbrs[v])


def _runs(monkeypatch, build, engine) -> tuple:
    """build() with `engine` as the working graph: the chosen set, and the
    steps and check count of every engine run it made."""
    runs = []
    monkeypatch.setattr(construct, "_WorkingGraph", engine)
    reduce = construct._reduce

    def recording(*args, **kwargs):
        chosen, trace = reduce(*args, **kwargs)
        runs.append((trace.steps, trace.evaluations))
        return chosen, trace

    monkeypatch.setattr(construct, "_reduce", recording)
    chosen = build()
    monkeypatch.undo()
    return chosen, runs


def _assert_same_runs(monkeypatch, build) -> list:
    new = _runs(monkeypatch, build, _WorkingGraph)
    assert new == _runs(monkeypatch, build, ReferenceGraph)
    return new[1]


BUILDS = {
    "star": construct.star_forest,
    "caterpillar2": lambda g: construct.k_caterpillar_forest(g, 2),
    "caterpillar3": lambda g: construct.k_caterpillar_forest(g, 3),
}


@pytest.mark.parametrize("build", BUILDS, ids=list(BUILDS))
@pytest.mark.parametrize("n, c", [(n, c) for n in (60, 120, 200) for c in (3, 8, 20)])
def test_engine_matches_reference_on_gnp(monkeypatch, build, n, c):
    g = gnp(n, c / n, 10 * n + c)
    runs = _assert_same_runs(monkeypatch, lambda: BUILDS[build](g).vertex_set)
    assert runs and any(steps for steps, _ in runs)


def _constrained(g: Graph, p: Partition):
    name = "abc_construct" if p.mode == "ABC" else "ab_construct"
    return lambda: getattr(construct, name)(g, p)[0].vertex_set


def test_engine_matches_reference_on_gadgets_and_rule_5(monkeypatch):
    cases = [fig1_gadget(name) for name in FIG1_GADGETS]
    # R5 fires here, and its added edge takes a vertex to degree 5, past the
    # input's maximum of 4
    g = gnp(11, 0.15, 33)
    rng = random.Random(33)
    cases.append((g, Partition({v: rng.choice("ABC") for v in g.vertices}, "ABC")))
    cubic = random_regular(20, 3, 8)
    cases.append((cubic, Partition(dict.fromkeys(cubic.vertices, "A"), "AB")))
    rules = Counter()
    for g, p in cases:
        for steps, _ in _assert_same_runs(monkeypatch, _constrained(g, p)):
            rules.update(step.rule for step in steps)
    assert rules["R5"] and rules["S5"]


def test_rule_5_enters_a_degree_past_the_input(monkeypatch):
    g = gnp(11, 0.15, 33)
    rng = random.Random(33)
    p = Partition({v: rng.choice("ABC") for v in g.vertices}, "ABC")
    keys = []

    class Recorded(_WorkingGraph):
        def _cover(self, part, d):
            super()._cover(part, d)
            keys.append((part, d))

    monkeypatch.setattr(construct, "_WorkingGraph", Recorded)
    _, trace = construct.abc_construct(g, p)
    assert g.max_degree() == 4 and ("A", 5) in keys
    assert any(step.rule == "R5" for step in trace.steps)


def wheel(n: int) -> Graph:
    """A hub 0 joined to every vertex of the cycle 1..n."""
    rim = range(1, n + 1)
    return Graph.from_edges(n + 1, [(0, i) for i in rim] + [(i, i % n + 1) for i in rim])


@pytest.mark.parametrize("build", ["star", "caterpillar3"])
def test_scale_follows_the_degrees_met(monkeypatch, build):
    # a hub of degree 2000 that goes first: a scale covering every degree up
    # to 2000 would have about 2 900 bits, and the tables and sums would grow
    # with the square of the hub's degree
    g = wheel(2000)
    scales = []

    class Recorded(_WorkingGraph):
        def _cover(self, part, d):
            super()._cover(part, d)
            scales.append(self.scale)

    assert _assert_same_runs(monkeypatch, lambda: BUILDS[build](g).vertex_set)
    monkeypatch.setattr(construct, "_WorkingGraph", Recorded)
    BUILDS[build](g)
    assert max(scales).bit_length() <= 64


_FRACTIONS = {"ABC": (abc_weight, gain), "AB": (ab_star_weight, ab_star_gain)}


def _check_against_fractions(work: _WorkingGraph, mode: str) -> None:
    """Every vertex of the instance: its sum, its rule-1 and rule-3 verdicts
    and the instance total agree with Fraction arithmetic from weights.py,
    and rule 1's choice is the lightest, then lowest, deletable vertex."""
    weight, gain_of = _FRACTIONS[mode]
    table = _RULES[mode]
    nbrs, labels = work.nbrs, work.labels
    work.refresh()
    deletable = []
    for v in work.inst:
        fv = weight(labels[v], len(nbrs[v]))
        around = sum((gain_of(labels[w], len(nbrs[w])) for w in nbrs[v]), _ZERO)
        assert F(work.sums[v], work.scale) == around
        assert (work.deletable[v] is not None) == (fv <= around), v
        if fv <= around:
            assert F(work.deletable[v], work.scale) == fv
            deletable.append((fv, v))
        leaf = False
        if len(nbrs[v]) == 1 and labels[v] in table["leaf"]:
            (w,) = nbrs[v]
            demoted = table["demote"].get(labels[w])
            dw = len(nbrs[w])
            leaf = demoted is not None and (
                weight(labels[v], 1) + weight(labels[w], dw) - weight(demoted, dw - 1) <= 1
            )
        assert bool(work.leaves[v]) == leaf, v
    expected = min(deletable)[1] if deletable else None
    assert work.lightest_deletable() == expected
    total = sum((weight(labels[v], len(nbrs[v])) for v in work.inst), _ZERO)
    assert F(work.total(work.inst), work.scale) == total


@pytest.mark.parametrize("mode", ["ABC", "AB"])
@pytest.mark.parametrize("seed", range(4))
def test_verdicts_exact_past_the_initial_scale(mode, seed):
    # random deletions, relabels and added edges; the added edges take
    # degrees well past the input's maximum, so the tables grow and the
    # scale with them, with verdicts pending in the heap
    rng = random.Random(seed)
    g = gnp(24, 0.15, seed)
    labels = [rng.choice(mode) for v in g.vertices]
    work = _WorkingGraph(g.vertices, g.position_sets(), labels, _RULES[mode])
    work.start(set(range(g.n)), True)
    scales = {work.scale}
    _check_against_fractions(work, mode)
    for _ in range(60):
        live = sorted(work.inst)
        if len(live) < 3:
            break
        v = rng.choice(live)
        kind = rng.random()
        if kind < 0.5:
            v = max(live, key=lambda u: (len(work.nbrs[u]), -u)) if kind < 0.25 else v
            others = [w for w in live if w != v and w not in work.nbrs[v]]
            step = ReductionStep("t", added_edges=((v, rng.choice(others)),)) if others else None
        elif kind < 0.8:
            step = ReductionStep("t", relabeled=((v, rng.choice(mode)),))
        else:
            step = ReductionStep("t", removed=(v,))
        if step is not None:
            work.apply(step)
            scales.add(work.scale)
            _check_against_fractions(work, mode)
    met = [d for row in work.weights.values() for d, fv in enumerate(row) if fv is not None]
    assert max(met) > g.max_degree() and len(scales) > 1


def test_degree_zero_gains_nothing():
    g = Graph.from_edges(3, [(0, 1)])
    work = _WorkingGraph(g.vertices, g.position_sets(), ["A", "B", "C"], _RULES["ABC"])
    assert work.terms[2] == 0 and work.sums[2] == 0
    work.apply(ReductionStep("t", removed=(0,)))
    assert work.terms[1] == 0 and work.sums[1] == 0


class CountedGraph(_WorkingGraph):
    """Counts the gain terms a run reads or updates: building the sums reads,
    as one touch of every vertex would, its own term and one per neighbour;
    at each touch of v, v's own term and one sum per neighbour; the deleted
    or added neighbour's term that a touch follows is the one more."""

    terms_touched = 0

    def __init__(self, ids, nbrs, labels, table):
        super().__init__(ids, nbrs, labels, table)
        engine = [len(ws) for ws, part in zip(self.nbrs, labels) if part is not None]
        CountedGraph.terms_touched += len(engine) + sum(engine)

    def _touch(self, v):
        CountedGraph.terms_touched += 1 + len(self.nbrs[v])
        super()._touch(v)


@pytest.mark.parametrize("build", ["star", "caterpillar3"])
def test_gain_terms_touched_within_sum_of_squared_degrees(monkeypatch, build):
    # Each vertex's term moves at most once per degree it loses, into at
    # most its degree of sums: at most d(v)^2 over a run. Re-summing each
    # checked vertex's neighbourhood read about 2.8 times that here.
    g = gnp(400, 0.05, 2)
    monkeypatch.setattr(construct, "_WorkingGraph", CountedGraph)
    monkeypatch.setattr(CountedGraph, "terms_touched", 0)
    checks = []
    engine = construct._reduce

    def recording(*args, **kwargs):
        chosen, trace = engine(*args, **kwargs)
        checks.append(trace.evaluations)
        return chosen, trace

    monkeypatch.setattr(construct, "_reduce", recording)
    BUILDS[build](g)
    squares = sum(d ** 2 for d in g.degrees())
    assert checks and 0 < CountedGraph.terms_touched + sum(checks) <= squares


def test_steps_are_logged_in_ids():
    # the engine works on vertex positions; on a graph whose ids are not its
    # positions it takes the same steps, each logged with ids for positions
    g = gnp(11, 0.15, 33)
    rng = random.Random(33)
    cases = [(g, Partition({v: rng.choice("ABC") for v in g.vertices}, "ABC"))]  # R5
    cubic = random_regular(20, 3, 8)
    cases.append((cubic, Partition(dict.fromkeys(cubic.vertices, "A"), "AB")))  # S5
    rng = random.Random(5)
    for seed in range(16):
        g = gnp(30, (0.06, 0.1, 0.15, 0.25)[seed % 4], seed)
        mode = ("ABC", "AB")[seed % 2]
        cases.append((g, Partition({v: rng.choice(mode) for v in g.vertices}, mode)))
    fired = Counter()
    for g, p in cases:
        build = construct.abc_construct if p.mode == "ABC" else construct.ab_construct
        at = {v: 3 * v + 7 for v in g.vertices}.__getitem__
        h = Graph({at(v): set(map(at, ws)) for v, ws in g.adjacency().items()})
        cert, trace = build(g, p)
        renamed, renamed_trace = build(h, Partition({at(v): x for v, x in p.labels.items()}, p.mode))
        assert renamed.vertex_set == set(map(at, cert.vertex_set))
        assert renamed_trace.steps == [
            ReductionStep(
                step.rule,
                tuple(map(at, step.removed)),
                tuple((at(x), at(y)) for x, y in step.added_edges),
                tuple((at(v), part) for v, part in step.relabeled),
                tuple(map(at, step.chosen)),
                step.note,
            )
            for step in trace.steps
        ]
        fired.update(step.rule[1] for step in trace.steps)
        assert construct.star_forest(h).vertex_set == set(map(at, construct.star_forest(g).vertex_set))
    assert set("12345") <= set(fired)

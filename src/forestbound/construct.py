"""Certified constructors: each returns a vertex subset whose induced
subgraph provably belongs to the target class and whose size meets the
corresponding degree-sequence bound.

abc_construct (ABC linear-forest weights) and ab_construct (AB star-forest
weights) run one reduction engine, `_reduce`, which applies six rules in a
fixed priority order to one mutable working graph on vertex positions. It
re-checks rules 1 and 3 only near what each step changed, on integer weights
and gains scaled by one multiple of their denominators, and keeps each
vertex's total of its neighbors' gains up to date, so each check is one
comparison. Rules 2 and 6 settle a whole instance through one bound check,
`_settle`. What differs between the two modes' rules sits in one table each,
`_RULES["ABC"]` and `_RULES["AB"]`: weights and gains, the leaf rule, the
path automaton, the rule-id prefix (R or S) and the mode's own rule 5. Each
applied rule records its graph delta in a trace, and every comparison is
exact. No function here recurses, so the call depth does not grow with n.

`KINDS` has one row per kind that `construct` and `exact` take: its forest
class (for `abc` and `ab`, the engine's), its partition mode (None if it
takes no partition), its bound as a named BoundSpec and its constructor;
`kind_row` gives the caterpillar row for a degree bound k. A constructor makes
at most one engine run, copies no graph and ends in one `_certify`, which sums
the row's bound with `total_weight` and raises BoundMiss unless check's
`verify_certificate` passes the certificate of the whole input graph. An engine
run reads its input once, as `Graph.position_sets()`: the neighbor sets by
vertex position that the overloaded-vertex drops, the leaf strip and the engine
then edit in place.
"""

from __future__ import annotations

import gc
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, wraps
from heapq import heappop, heappush
from itertools import compress, product
from math import lcm
from typing import AbstractSet, Optional

from .check import (
    CATERPILLAR_FOREST, LINEAR_FOREST, STAR_FOREST, ForestCertificate, ForestClass, verify_certificate
)
from .errors import BoundMiss, NotCubic, ParseError
from .exact import alpha_exact_partitioned
from .graph import Graph, components_of
from .partition import ABC_CAPS, Partition
from .weights import (
    BoundSpec,
    ab_star_gain,
    ab_star_weight,
    abc_weight,
    gain,
    graph_counts,
    total_weight,
)

_STUCK_BUDGET = 500_000
_ZERO = Fraction(0)


@dataclass(frozen=True)
class ReductionStep:
    """One applied reduction: which rule, and the graph delta it caused."""

    rule: str
    removed: tuple[int, ...] = ()
    added_edges: tuple[tuple[int, int], ...] = ()
    relabeled: tuple[tuple[int, str], ...] = ()
    chosen: tuple[int, ...] = ()
    note: str = ""


@dataclass
class ReductionTrace:
    """Ordered log of reduction steps; replayable against the input graph.

    `evaluations` counts the vertices at which the engine checked rules 1
    and 3. It is deterministic, and it stays out of `steps` so that a
    change in how the engine finds its steps leaves the log unchanged.
    """

    steps: list[ReductionStep] = field(default_factory=list)
    evaluations: int = 0

    def append(self, step: ReductionStep) -> None:
        self.steps.append(step)

    def replay(self, g: Graph) -> Graph:
        """Apply every recorded graph delta in order; returns the residual graph."""
        cur = g
        for step in self.steps:
            for u, v in step.added_edges:
                cur = cur.add_edge(u, v)
            if step.removed:
                cur = cur.delete_vertices(step.removed)
        return cur

    def summary(self) -> str:
        counts = Counter(step.rule for step in self.steps)
        return " ".join(f"{rule}:{counts[rule]}" for rule in sorted(counts)) or "-"


def uncollected(fn):
    """fn (a constructor, or the checker) with the cyclic garbage collector paused while it
    runs: neither makes cycles, but a full pass scans every set they build."""
    @wraps(fn)
    def paused(*args, **kwargs):
        running = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if running:
                gc.enable()
    return paused


# ---------------------------------------------------------------------------
# Unconstrained constructors


@uncollected
def greedy_linear_forest(g: Graph) -> ForestCertificate:
    """Induced linear forest of size at least the linear forest bound."""
    return _certify("greedy_linear_forest", g, _greedy_linear(g.adjacency()), KINDS["linear"])


def _greedy_linear(adj: dict[int, set[int]]) -> set[int]:
    """An induced linear forest of the graph of the neighbor sets `adj`, which it
    edits: deletes a maximum-degree vertex while the maximum degree is at least 3
    (the bound never decreases under such a deletion), then takes every path
    component whole and every cycle component minus one vertex."""
    # buckets[d] holds the vertices seen at degree d. Degrees only fall, so the
    # top bucket is worked off in one sorted pass: a deletion sends each neighbor
    # to a lower bucket, and an entry whose vertex has since lost a neighbor is skipped.
    top = max(map(len, adj.values()), default=0)
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for v, ws in adj.items():
        buckets[len(ws)].append(v)
    for top in range(top, 2, -1):
        for v in sorted(buckets[top]):
            if len(adj[v]) == top:
                for w in adj.pop(v):
                    adj[w].discard(v)
                    buckets[len(adj[w])].append(w)
    chosen: set[int] = set()
    for comp in components_of(adj, adj):
        if all(len(adj[u]) == 2 for u in comp):
            chosen |= comp - {min(comp)}
        else:
            chosen |= comp
    return chosen


@uncollected
def caterpillar_forest(g: Graph) -> ForestCertificate:
    """Induced caterpillar forest of size at least the `aks` bound, the sum
    of min{1, 2/(d(v)+1)}.

    Strips the degree-1 vertices, builds a linear forest of the remainder
    (which keeps every isolated vertex), and adds the stripped vertices back.
    """
    leaves = {v for v, d in zip(g.vertices, g.degrees()) if d == 1}
    chosen = _greedy_linear(g.adjacency(set(g.vertices) - leaves)) | leaves
    return _certify("caterpillar_forest", g, chosen, KINDS["caterpillar"])


def cubic_partition(g: Graph) -> tuple[frozenset[int], frozenset[int]]:
    """Split a cubic graph so both sides induce maximum degree at most 1.

    Local search from the all-in-one-side assignment: moving a vertex with
    two or more same-side neighbors strictly increases the cut, so at most
    |E| moves happen.
    """
    adj = g.adjacency()
    if any(len(ws) != 3 for ws in adj.values()):
        raise NotCubic("every vertex must have degree exactly 3")
    side = dict.fromkeys(adj, 0)
    moved = True
    while moved:
        moved = False
        for v, ws in adj.items():
            if sum(side[w] == side[v] for w in ws) >= 2:
                side[v] ^= 1
                moved = True
    return frozenset(v for v in adj if not side[v]), frozenset(v for v in adj if side[v])


# ---------------------------------------------------------------------------
# Reduction engine for the constrained bounds (ABC linear, AB star)


def abc_construct(g: Graph, p: Partition) -> tuple[ForestCertificate, ReductionTrace]:
    """Linear forest respecting the ABC degree caps, of size at least the
    partition-weighted bound."""
    return _construct("abc", g, p)


def ab_construct(g: Graph, p: Partition) -> tuple[ForestCertificate, ReductionTrace]:
    """Star forest respecting the AB edge condition, of size at least the
    partition-weighted bound."""
    return _construct("ab", g, p)


@uncollected
def _construct(kind: str, g: Graph, p: Partition) -> tuple[ForestCertificate, ReductionTrace]:
    row, name = KINDS[kind], f"{kind}_construct"
    if p.mode != row.mode:
        raise ParseError(f"{name} needs an {row.mode} partition")
    p.validate_for(g.vertices)
    chosen, trace = _reduce(g.vertices, g.position_sets(), [p.labels[v] for v in g.vertices], row)
    return _certify(name, g, chosen, row, p), trace


def _reduce(
    ids: tuple[int, ...], nbrs: list[set[int]], labels: list, row: Kind, split=False
) -> tuple[set[int], ReductionTrace]:
    """Apply the rules of `_RULES[row.mode]` in priority order until nothing is left.

    `nbrs` holds, per position of `ids`, its neighbors' positions; the engine edits
    it. The instance is every position with a label (None: not the engine's, its set
    empty and in no other), or with `split` each component of them, solved alone.
    Pending instances wait on an explicit stack. Each step applies the first rule
    that fits the current instance; components split off by rule 4 are pushed in
    reverse, so they are solved, and logged, in order of their smallest vertex. All
    instances share one `_WorkingGraph`. Returns the kept ids and the trace.
    """
    table = _RULES[row.mode]
    prefix = table["prefix"]
    trace = ReductionTrace()
    chosen: set[int] = set()
    work = _WorkingGraph(ids, nbrs, labels, table)
    live = [v for v, part in enumerate(labels) if part is not None]
    # a first instance has all its vertices checked, rule 4's components none
    stack = [(inst, True) for inst in reversed(components_of(nbrs, live) if split else [set(live)])]
    while stack:
        work.start(*stack.pop())
        while work.inst:
            trace.evaluations += work.refresh()

            # 1: delete a vertex whose weight is at most its neighbors' total gain.
            v = work.lightest_deletable()
            if v is not None:
                step = ReductionStep(f"{prefix}1", removed=(v,))
                trace.append(step)
                work.apply(step)
                continue

            # 2: max degree <= 2 means every component is a path or a cycle,
            # solved optimally by dynamic programming.
            if work.high == 0:
                for comp in components_of(nbrs, sorted(work.inst)):
                    picks = _dp_component(nbrs, comp, labels, row.mode)
                    chosen |= _settle(work, trace, f"{prefix}2", comp, picks, row.forest)
                break

            # 3: strip a leaf whose weight survives re-adding it after demoting
            # its neighbor one rank; the leaf is always re-added.
            v = work.lowest_leaf()
            if v is not None:
                (w,) = nbrs[v]
                step = ReductionStep(
                    f"{prefix}3", removed=(v,), relabeled=((w, table["demote"][labels[w]]),)
                )
                trace.append(step)
                work.apply(step)
                chosen.add(v)
                continue

            # 4: solve components independently.
            comps = components_of(nbrs, sorted(work.inst))
            if len(comps) > 1:
                note = f"split into {len(comps)} components"
                trace.append(ReductionStep(f"{prefix}4", note=note))
                stack.extend((comp, False) for comp in reversed(comps))
                break

            # 5: the mode's own rule.
            step = table["special"](work)
            if step is not None:
                trace.append(step)
                work.apply(step)
                chosen.update(step.chosen)
                continue

            # 6: constrained exact search. It reaches a vertex subset at most
            # once, so on at most 16 vertices it explores at most 2**16 nodes:
            # only a larger instance can exhaust _STUCK_BUDGET.
            inst = work.inst
            part = Partition({v: labels[v] for v in inst}, row.mode)
            residual = Graph({v: nbrs[v] for v in inst})
            result = alpha_exact_partitioned(residual, part, budget=_STUCK_BUDGET)
            chosen |= _settle(work, trace, f"{prefix}6", inst, result.witness, row.forest)
            break
    if ids and ids[-1] != len(ids) - 1:  # positions are ids only on a graph on 0..n-1
        trace.steps = [_named(step, ids) for step in trace.steps]
    return set(map(ids.__getitem__, chosen)), trace


class _WorkingGraph:
    """The one mutable graph of a reduction run, with its rule-1/rule-3 state.

    Every list is indexed by vertex position in `ids`. `nbrs` and `labels` cover
    every labeled vertex not yet deleted, `inst` is the instance being
    reduced and `high` counts its vertices of degree >= 3. Instances are
    disjoint and no edge joins two of them, so one list of neighbor sets
    serves them all, and rules 2 and 5 read it in place.

    Rules 1 and 3 compare integers: `weights[part][d]` and `gains[part][d]`
    are the mode's values times `scale`, which all their denominators
    divide, and `sums[v]` totals the `terms` (scaled gains, 0 at degree 0)
    of v's neighbors. The tables hold only the keys met so far (None at the
    others), so the scale stays small while the degrees met do. A change of
    v's label or degree moves the change of its term into its neighbors'
    sums and marks v and them dirty, to be checked again. Passing vertices
    wait in heaps, keyed (scaled weight, position) for rule 1 and by position
    for rule 3; an entry that no longer matches `deletable` or `leaves`, or
    whose vertex has left the instance, is dropped when it comes up; a
    deleted vertex's entries are never read again. When rules 1 and 3 both
    fail on an instance, none of its vertices is a candidate, so rule 4's
    components start with none.
    """

    def __init__(self, ids: tuple[int, ...], nbrs: list[set[int]], labels: list, table: dict):
        # per-run memos of this module's functions as bound now: a wrapper there sees every call
        self.weight = cache(globals()[table["weight"]])
        self.gain = cache(globals()[table["gain"]])
        self.leaf_parts, self.demote = table["leaf"], table["demote"]
        self.ids, self.nbrs, self.labels = ids, nbrs, labels
        self.inst, self.high, self.dirty = set(), 0, set()
        self.leaves, self.leaf_heap, self.deletable_heap = bytearray(len(ids)), [], []
        degrees = list(map(len, nbrs))
        self.scale, top = 1, max(degrees, default=0) + 1
        self.terms, self.sums, self.deletable = [], [], []  # filled once the keys met so far are in
        self.weights = {part: [None] * top for part in ABC_CAPS}
        self.gains = gains = {part: [None] * top for part in ABC_CAPS}
        for key in sorted(set(zip(labels, degrees)) - {(None, 0)}):
            self._cover(*key)
        self.terms = [0 if part is None else gains[part][d] for part, d in zip(labels, degrees)]
        self.sums = [sum(map(self.terms.__getitem__, ws)) for ws in nbrs]
        self.deletable = [None] * len(ids)

    def _cover(self, part: str, d: int) -> None:
        """Enter (part, d) in the tables. If its denominators do not divide the
        scale, the scale grows to their lcm, and every stored integer with it."""
        w, x = self.weight(part, d), self.gain(part, d) if d else _ZERO
        scale = lcm(self.scale, w.denominator, x.denominator)
        factor, self.scale = scale // self.scale, scale
        if factor > 1:  # in place: callers hold the stores
            for store in (*self.weights.values(), *self.gains.values(), self.terms, self.sums,
                          self.deletable):
                store[:] = [None if y is None else y * factor for y in store]
            self.deletable_heap[:] = [(fv * factor, v) for fv, v in self.deletable_heap]
        self.weights[part][d], self.gains[part][d] = int(w * scale), int(x * scale)

    def start(self, inst: set[int], fresh: bool) -> None:
        """Reduce `inst` next; a fresh instance has every vertex checked."""
        self.inst = inst
        self.high = sum(1 for v in inst if len(self.nbrs[v]) >= 3)
        if fresh:
            self.dirty.update(inst)

    def total(self, vertices) -> int:
        """The vertices' total weight times `scale`."""
        weights, labels, nbrs = self.weights, self.labels, self.nbrs
        return sum([weights[labels[v]][len(nbrs[v])] for v in vertices])

    def refresh(self) -> int:
        """Re-check rules 1 and 3 at the dirty vertices of the instance; returns how many."""
        nbrs, labels, weights, sums = self.nbrs, self.labels, self.weights, self.sums
        deletable, leaves, leaf_parts = self.deletable, self.leaves, self.leaf_parts
        dirty = self.dirty & self.inst
        self.dirty.clear()
        for v in dirty:
            part, d = labels[v], len(nbrs[v])
            fv = weights[part][d]
            if fv <= sums[v]:
                if deletable[v] != fv:
                    deletable[v] = fv
                    heappush(self.deletable_heap, (fv, v))
            else:
                deletable[v] = None
            if d == 1 and part in leaf_parts and self._strippable(v, part):
                if not leaves[v]:
                    leaves[v] = 1
                    heappush(self.leaf_heap, v)
            else:
                leaves[v] = 0
        return len(dirty)

    def _strippable(self, v: int, part: str) -> bool:
        """Rule 3's test at a leaf v: its weight plus its neighbor's weight
        loss on demotion is at most 1."""
        (w,) = self.nbrs[v]
        demoted = self.demote.get(self.labels[w])
        if demoted is None:
            return False
        weights, dw = self.weights, len(self.nbrs[w])
        if weights[demoted][dw - 1] is None:  # before any read: this may grow the scale
            self._cover(demoted, dw - 1)
        loss = weights[self.labels[w]][dw] - weights[demoted][dw - 1]
        return weights[part][1] + loss <= self.scale

    def lightest_deletable(self) -> Optional[int]:
        """Rule 1's choice: the lightest, then lowest, candidate."""
        heap = self.deletable_heap
        while heap:
            fv, v = heap[0]
            if v in self.inst and self.deletable[v] == fv:
                return v
            heappop(heap)
        return None

    def lowest_leaf(self) -> Optional[int]:
        """Rule 3's choice: the lowest candidate."""
        heap = self.leaf_heap
        while heap and not (heap[0] in self.inst and self.leaves[heap[0]]):
            heappop(heap)
        return heap[0] if heap else None

    def apply(self, step: ReductionStep) -> None:
        """Apply a step's graph delta and relabels, given in positions, marking what they touch."""
        nbrs, terms, sums = self.nbrs, self.terms, self.sums
        for x, y in step.added_edges:
            for a, b in ((x, y), (y, x)):
                self.high += len(nbrs[a]) == 2
                nbrs[a].add(b)
                sums[a] += terms[b]
            top = max(len(nbrs[x]), len(nbrs[y])) + 1  # rule 5 may pass the input's maximum
            for values in (*self.weights.values(), *self.gains.values()):
                values.extend([None] * (top - len(values)))
            self._touch(x)
            self._touch(y)
        for v in step.removed:
            ws, nbrs[v] = nbrs[v], _GONE
            self.inst.discard(v)
            self.high -= len(ws) >= 3
            for w in ws:
                self.high -= len(nbrs[w]) == 3
                nbrs[w].discard(v)
                sums[w] -= terms[v]  # read each time: a touch may grow the scale
                self._touch(w)
        for v, part in step.relabeled:
            self.labels[v] = part
            self._touch(v)

    def _touch(self, v: int) -> None:
        """Move the change of v's term into its neighbors' sums; mark them and v dirty."""
        ws = self.nbrs[v]
        part, d = self.labels[v], len(ws)
        term = self.gains[part][d]
        if term is None:
            self._cover(part, d)
            term = self.gains[part][d]
        if term != self.terms[v]:
            change, self.terms[v], sums = term - self.terms[v], term, self.sums
            for u in ws:
                sums[u] += change
        self.dirty.update(ws, (v,))


_GONE: frozenset[int] = frozenset()  # a deleted vertex's neighbor set


def _named(step: ReductionStep, ids: tuple[int, ...]) -> ReductionStep:
    """A step given in positions, with each position replaced by its id in `ids`."""
    at = ids.__getitem__
    edges = tuple((at(x), at(y)) for x, y in step.added_edges)
    relabeled = tuple((at(v), part) for v, part in step.relabeled)
    return ReductionStep(step.rule, tuple(map(at, step.removed)), edges, relabeled,
                         tuple(map(at, step.chosen)), step.note)


def _settle(
    work: _WorkingGraph, trace: ReductionTrace, rule: str, vertices, picks, forest
) -> AbstractSet[int]:
    """Settle an instance by keeping `picks`: log the step and return them if they
    meet the vertices' total weight, else raise BoundMiss with their certificate
    in `forest` at the exact need."""
    total = work.total(vertices)
    if len(picks) * work.scale < total:
        need = Fraction(total, work.scale)
        message = f"{rule} kept {len(picks)} of {len(vertices)} vertices, below the bound {need}"
        kept = frozenset(map(work.ids.__getitem__, picks))
        raise BoundMiss(message, ForestCertificate(kept, forest, need))
    trace.append(_solved(rule, vertices, picks))
    return picks


def _solved(rule: str, vertices, picks, note: str = "") -> ReductionStep:
    """The step of a rule that settles a whole instance, keeping `picks`."""
    return ReductionStep(
        rule, removed=tuple(sorted(vertices)), chosen=tuple(sorted(picks)), note=note
    )


def _promote_and_contract(work: _WorkingGraph) -> Optional[ReductionStep]:
    """R5: promote a degree-3 B vertex, delete its lightest neighbor, and tie
    the two heavier ones together; apply only when the rewritten instance
    keeps the full bound."""
    nbrs, labels, weight = work.nbrs, work.labels, work.weight
    for v in sorted(work.inst):
        if labels[v] != "B" or len(nbrs[v]) != 3:
            continue
        x, y, z = sorted(nbrs[v], key=lambda w: (-weight(labels[w], len(nbrs[w])), w))
        new_edge = y not in nbrs[x]
        # The bound changes only at z, which goes, at z's neighbors (v among
        # them), which lose a degree, and at x and y, which gain one if the
        # edge is new; v is weighed as A afterwards.
        change = -weight(labels[z], len(nbrs[z]))
        for u in nbrs[z] | {x, y}:
            d = len(nbrs[u])
            after = d - (u in nbrs[z]) + (new_edge and u in (x, y))
            change += weight("A" if u == v else labels[u], after) - weight(labels[u], d)
        if change >= 0:
            added = ((x, y),) if new_edge else ()
            return ReductionStep("R5", removed=(z,), added_edges=added, relabeled=((v, "A"),))
    return None


def _cubic_endgame(work: _WorkingGraph) -> Optional[ReductionStep]:
    """S5: all vertices in A with degrees 2 and 3, the degree-2 vertices far
    apart: contract each degree-2 path into an edge, split the resulting
    cubic graph, and keep the bigger side plus every degree-2 vertex."""
    nbrs, inst = work.nbrs, work.inst
    if any(work.labels[v] != "A" or len(nbrs[v]) not in (2, 3) for v in inst):
        return None
    low = {v for v in inst if len(nbrs[v]) == 2}
    contracted = {v: set(nbrs[v]) for v in inst if len(nbrs[v]) == 3}
    for v in low:
        # u and w have degree 3 unless one is in low, within distance 1 of v (_within_distance
        # never reports its start); low vertices are more than 3 apart, so u has no other: its
        # v goes for a w it did not have, and every contracted set keeps 3 vertices
        u, w = nbrs[v]
        if w in nbrs[u] or _within_distance(nbrs, v, low, 3):
            return None
        contracted[u] = contracted[u] - {v} | {w}
        contracted[w] = contracted[w] - {v} | {u}
    part1, part2 = cubic_partition(Graph(contracted))
    keep = part1 if len(part1) >= len(part2) else part2
    chosen = set(keep) | low
    if len(chosen) * work.scale < work.total(inst):
        return None
    return _solved("S5", inst, chosen, f"contracted {len(low)} paths")


def _within_distance(adj, start: int, targets: set[int], radius: int) -> bool:
    seen = frontier = {start}
    for _ in range(radius):
        frontier = {w for u in frontier for w in adj[u]} - seen
        if frontier & targets:
            return True
        seen |= frontier
    return False


# ---------------------------------------------------------------------------
# Dynamic programs for paths and cycles


def _component_order(adj, comp) -> tuple[list[int], bool]:
    """Traversal order of a connected component `comp` of an adjacency map
    with max degree <= 2."""
    ends = [v for v in comp if len(adj[v]) <= 1]
    order = [min(ends or comp)]
    while len(order) < len(comp):  # the lowest neighbour but the previous vertex
        order.append(min(adj[order[-1]] - set(order[-2:-1])))
    return order, not ends


def _dp_component(adj, comp, labels, mode: str) -> set[int]:
    """Largest allowed selection on a path or cycle component `comp` of an
    adjacency map.

    A cycle runs `_dp_path` along its traversal order once for each state
    of the first vertex: that state forced, and the last vertex held to the
    states that lead into it across the closing edge. The lowest first state
    that reaches the maximum wins. A count of n would choose the whole
    cycle, so it is refused; only an all-A ABC cycle reaches it, and state 0
    then gives n - 1.
    """
    if len(comp) == 1:  # what the path DP keeps of a lone vertex
        return set(comp)
    order, is_cycle = _component_order(adj, comp)
    if not is_cycle:
        return _dp_path(order, labels, mode)[1]
    table = _RULES[mode]
    start, extend, nstates = table["start"], table["extend"], table["states"]
    first, last = labels[order[0]], labels[order[-1]]
    best, picks = -1, set()
    for s0 in range(nstates):
        ends = [
            e
            for e in range(nstates)
            if s0 == 0 or s0 == (extend.get((e, last, first)) if e else start[first])
        ]
        if ends:
            count, chosen = _dp_path(order, labels, mode, s0, ends)
            if best < count < len(order):
                best, picks = count, chosen
    return picks


def _dp_path(
    order: list[int], labels, mode: str, first: Optional[int] = None, ends=None
) -> tuple[int, set[int]]:
    """Largest selection along a path that the mode's automaton accepts.

    State 0 is an unchosen vertex. A chosen vertex after an unchosen one
    enters state `start[label]`; after a chosen one in state s it enters
    `extend[(s, previous label, label)]`, and a missing key forbids the move.
    `first` forces the state of order[0], and order[-1] may end only in a
    state of `ends` (default: any); the count is -1 if none is reachable.
    Each state keeps its first strictly better predecessor, and the lowest
    allowed state wins among equal end values.
    """
    table = _RULES[mode]
    start, extend, nstates = table["start"], table["extend"], table["states"]
    n = len(order)
    value = [[-1] * nstates for _ in range(n)]
    back = [[None] * nstates for _ in range(n)]
    for state in (0, start[labels[order[0]]]) if first is None else (first,):
        value[0][state] = int(state != 0)
    for i in range(1, n):
        prev_label, label = labels[order[i - 1]], labels[order[i]]
        for prev_state in range(nstates):
            base = value[i - 1][prev_state]
            if base < 0:
                continue
            if base > value[i][0]:
                value[i][0] = base
                back[i][0] = prev_state
            if prev_state == 0:
                state = start[label]
            else:
                state = extend.get((prev_state, prev_label, label))
            if state is not None and base + 1 > value[i][state]:
                value[i][state] = base + 1
                back[i][state] = prev_state
    state = max(range(nstates) if ends is None else ends, key=lambda s: (value[n - 1][s], -s))
    count = value[n - 1][state]
    picks: set[int] = set()
    for i in range(n - 1, -1, -1) if count >= 0 else ():
        if state != 0:
            picks.add(order[i])
        state = back[i][state] if i > 0 else None
    return count, picks


# ---------------------------------------------------------------------------
# Tables: the engine's rules and the construct/exact kinds. Rule i of a
# mode is logged as its prefix followed by i.

_RULES = {
    "ABC": {
        "prefix": "R",
        # Names of module attributes; `_WorkingGraph` resolves them per run.
        "weight": "abc_weight",
        "gain": "gain",
        # Rule 3: labels a stripped leaf may carry, and its neighbor's
        # demotion (a C neighbor cannot be demoted, so it blocks the rule).
        "leaf": "AB",
        "demote": {"A": "B", "B": "C"},
        # States: 1 chosen after an unchosen vertex, 2 chosen after a chosen
        # one. Moving to state 2 gives the previous vertex its state-th
        # chosen neighbor and this vertex its first, within the ABC caps.
        "states": 3,
        "start": {"A": 1, "B": 1, "C": 1},
        "extend": {
            (state, prev, label): 2
            for state in (1, 2)
            for prev, label in product("ABC", repeat=2)
            if ABC_CAPS[prev] >= state and ABC_CAPS[label] >= 1
        },
        "special": _promote_and_contract,
    },
    "AB": {
        "prefix": "S",
        "weight": "ab_star_weight",
        "gain": "ab_star_gain",
        "leaf": "A",
        "demote": {"A": "B", "B": "B"},
        # Star-forest runs along a path: singletons are free (1 = A, 2 = B),
        # a pair may not be B-B (3 = AA, 4 = AB, 5 = BA), a triple needs both
        # ends in A (6), longer runs are never stars.
        "states": 7,
        "start": {"A": 1, "B": 2},
        "extend": {
            (1, "A", "A"): 3,
            (1, "A", "B"): 4,
            (2, "B", "A"): 5,
            (3, "A", "A"): 6,
            (4, "B", "A"): 6,
        },
        "special": _cubic_endgame,
    },
}


# A kind's constructor maps (g, partition or None) to (certificate, trace or
# None). The rows call it by name, so a wrapper put on this module sees the call.
Kind = namedtuple("Kind", "forest mode spec build")
KINDS = {
    "linear": Kind(
        LINEAR_FOREST, None, BoundSpec("flin"), lambda g, p: (greedy_linear_forest(g), None)
    ),
    "caterpillar": Kind(
        CATERPILLAR_FOREST, None, BoundSpec("aks"), lambda g, p: (caterpillar_forest(g), None)
    ),
    "star": Kind(STAR_FOREST, None, BoundSpec("star"), lambda g, p: (star_forest(g), None)),
    "abc": Kind(LINEAR_FOREST, "ABC", BoundSpec("abc"), lambda g, p: abc_construct(g, p)),
    "ab": Kind(STAR_FOREST, "AB", BoundSpec("abstar"), lambda g, p: ab_construct(g, p)),
}


def kind_row(kind: str, k: Optional[int] = None) -> Kind:
    """The row of kind, or with a degree bound k that of the k-caterpillar
    kind: InvalidSpec if k < 2, ValueError if kind is not a caterpillar."""
    if k is None:
        return KINDS[kind]
    spec = BoundSpec("hkg", k)  # first: a k < 2 is InvalidSpec, not ForestClass's ValueError
    forest = ForestClass(KINDS[kind].forest.kind, k)
    return Kind(forest, None, spec, lambda g, p: (k_caterpillar_forest(g, k), None))


# ---------------------------------------------------------------------------
# Bound-specific wrappers


@uncollected
def k_caterpillar_forest(g: Graph, k: int) -> ForestCertificate:
    """Caterpillar forest of maximum degree at most k meeting the local bound.

    Drops every vertex that carries k+1 or more leaves, also once earlier
    drops have made new leaves, then hands each component's leaf-stripped
    core to the ABC engine, labeled by how many leaves each vertex carries.
    """
    kind = kind_row("caterpillar", k)
    chosen = _leaf_core_forest(
        g, "abc", lambda nbrs: _overloaded(nbrs, k),
        lambda carried: "A" if carried <= k - 2 else ("B" if carried == k - 1 else "C"),
    )
    return _certify("k_caterpillar_forest", g, chosen, kind)


def _overloaded(nbrs: list[set[int]], k: int) -> set[int]:
    """Positions left to drop by repeatedly dropping one with k+1 or more leaf
    neighbors, given each position's set of neighbors, which it edits: a dropped
    position leaves its neighbors' sets and keeps an empty one. A drop can only
    turn a neighbor into a new leaf, never take a leaf from a vertex that stays,
    so the set does not depend on the order."""
    carried = [0] * len(nbrs)
    for (u,) in compress(nbrs, map((1).__eq__, map(len, nbrs))):
        carried[u] += 1
    work = [v for v, count in enumerate(carried) if count > k]
    dropped: set[int] = set()
    while work:
        v = work.pop()
        if v in dropped:
            continue
        dropped.add(v)
        ws, nbrs[v] = nbrs[v], set()
        for w in ws:
            nbrs[w].discard(v)
            if len(nbrs[w]) == 1:
                (u,) = nbrs[w]
                carried[u] += 1
                if carried[u] > k:
                    work.append(u)
    return dropped


@uncollected
def star_forest(g: Graph) -> ForestCertificate:
    """Star forest meeting the best epsilon-family bound for g's degrees.

    Hands each component's leaf-stripped core to the AB engine, labeled by
    whether each vertex carried a leaf.
    """
    chosen = _leaf_core_forest(g, "ab", lambda nbrs: (), lambda carried: "B" if carried else "A")
    return _certify("star_forest", g, chosen, KINDS["star"])


def _leaf_core_forest(g: Graph, kind: str, drop, label) -> set[int]:
    """Per component of g without the positions that `drop(nbrs)` takes out of g's
    neighbor sets by position, `nbrs` (each left with an empty set): take it whole if
    it has at most two vertices (none of degree 2 or more); otherwise strip its
    leaves, label the rest, its core (a component of the vertices of degree
    >= 2), by `label(number of leaves carried)`, and add the leaves to what
    kind's engine keeps of the core. One engine run (none without a core) solves
    each core as its own instance: in one instance over all cores, rule 2 would
    wait for every core to reach maximum degree 2, and what is kept can change."""
    nbrs = g.position_sets()  # the one build: the drops, the strip and the engine edit it
    dropped = drop(nbrs)
    degree, carried = list(map(len, nbrs)), [0] * g.n
    for v in compress(range(g.n), map((1).__eq__, degree)):
        for w in nbrs[v]:  # none if v's neighbor, a leaf too, came first
            carried[w] += 1
            nbrs[w].discard(v)
        nbrs[v].clear()
    names = list(map(label, range(max(carried, default=0) + 1)))
    labels = [names[c] if d >= 2 else None for c, d in zip(carried, degree)]
    chosen = _reduce(g.vertices, nbrs, labels, KINDS[kind], split=True)[0] if any(labels) else set()
    kept = compress(range(g.n), map((2).__gt__, degree))
    return chosen | {g.vertices[v] for v in kept if v not in dropped}


# ---------------------------------------------------------------------------
# Certification


def _certify(name: str, g: Graph, chosen, kind: Kind, p=None) -> ForestCertificate:
    """The certificate of `chosen` in kind's class against kind's bound; raises
    BoundMiss, naming the constructor `name`, unless verify_certificate passes it."""
    bound = total_weight(graph_counts(g, kind.spec, p), kind.spec)
    cert = ForestCertificate(frozenset(chosen), kind.forest, bound)
    if not verify_certificate(g, cert, p):
        raise BoundMiss(f"{name} produced an invalid certificate", cert)
    return cert

"""Certified constructors: each returns a vertex subset whose induced
subgraph provably belongs to the target class and whose size meets the
corresponding degree-sequence bound.

abc_construct (ABC linear-forest weights) and ab_construct (AB star-forest
weights) run one reduction engine, `_reduce`, which applies six rules in a
fixed priority order. What differs between the two modes sits in one rule
table each, `_RULES["ABC"]` and `_RULES["AB"]`: weights and gains, the leaf
rule, the path automaton, the forest class, the rule-id prefix (R or S) and
the mode's own rule 5. Each applied rule records its graph delta in a trace,
and rule soundness is enforced with exact rational comparisons at
application time. No function here recurses, so the constructors' call
depth does not grow with the input, and every constructor re-verifies its
final certificate before returning it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Optional

from .errors import BoundMiss, InvalidSpec, IsolatedVertexPresent, NotCubic, ParseError
from .exact import DEFAULT_BUDGET, alpha_exact_partitioned
from .graph import (
    CATERPILLAR_FOREST,
    LINEAR_FOREST,
    STAR_FOREST,
    ForestCertificate,
    ForestClass,
    Graph,
)
from .partition import ABC_CAPS, Partition
from .weights import (
    BoundSpec,
    ab_star_gain,
    ab_star_weight,
    abc_weight,
    gain,
    star_epsilon_opt,
    star_f_eps,
    total_weight,
)

DEFAULT_EXACT_THRESHOLD = 16
_STUCK_BUDGET = 500_000


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
    """Ordered log of reduction steps; replayable against the input graph."""

    steps: list[ReductionStep] = field(default_factory=list)

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
        counts: dict[str, int] = {}
        for step in self.steps:
            counts[step.rule] = counts.get(step.rule, 0) + 1
        return " ".join(f"{rule}:{counts[rule]}" for rule in sorted(counts)) or "-"


# ---------------------------------------------------------------------------
# Unconstrained constructors


def greedy_linear_forest(g: Graph) -> ForestCertificate:
    """Induced linear forest of size at least the linear forest bound.

    Deletes a maximum-degree vertex while the maximum degree is at least 3
    (the bound never decreases under such a deletion), then takes every path
    component whole and every cycle component minus one vertex.
    """
    bound = total_weight(g, BoundSpec.flin())
    h = g
    while h.max_degree() >= 3:
        top = h.max_degree()
        v = min(u for u in h.vertices if h.degree(u) == top)
        h = h.delete_vertex(v)
    chosen: set[int] = set()
    for comp in h.components():
        if sum(len(h.neighbors(u) & comp) for u in comp) // 2 == len(comp):
            chosen |= comp - {min(comp)}
        else:
            chosen |= comp
    cert = ForestCertificate(frozenset(chosen), LINEAR_FOREST, bound)
    _check_certificate("greedy_linear_forest", g, cert)
    return cert


def caterpillar_forest(g: Graph) -> ForestCertificate:
    """Induced caterpillar forest of size at least sum of 2/(d(v)+1).

    Strips the degree-1 vertices, builds a linear forest of the remainder,
    and adds the stripped vertices back.
    """
    if any(g.degree(v) == 0 for v in g.vertices):
        raise IsolatedVertexPresent("caterpillar bound requires minimum degree >= 1")
    bound = sum((Fraction(2, g.degree(v) + 1) for v in g.vertices), Fraction(0))
    leaves = {v for v in g.vertices if g.degree(v) == 1}
    inner = greedy_linear_forest(g.delete_vertices(leaves))
    cert = ForestCertificate(
        frozenset(set(inner.vertex_set) | leaves), CATERPILLAR_FOREST, bound
    )
    _check_certificate("caterpillar_forest", g, cert)
    return cert


def cubic_partition(g: Graph) -> tuple[frozenset[int], frozenset[int]]:
    """Split a cubic graph so both sides induce maximum degree at most 1.

    Local search from the all-in-one-side assignment: moving a vertex with
    two or more same-side neighbors strictly increases the cut, so at most
    |E| moves happen.
    """
    if any(g.degree(v) != 3 for v in g.vertices):
        raise NotCubic("every vertex must have degree exactly 3")
    side = {v: 0 for v in g.vertices}
    moved = True
    while moved:
        moved = False
        for v in g.vertices:
            if sum(1 for w in g.neighbors(v) if side[w] == side[v]) >= 2:
                side[v] ^= 1
                moved = True
    part1 = frozenset(v for v in g.vertices if side[v] == 0)
    part2 = frozenset(v for v in g.vertices if side[v] == 1)
    return part1, part2


# ---------------------------------------------------------------------------
# Reduction engine for the constrained bounds (ABC linear, AB star)


def abc_construct(
    g: Graph,
    p: Partition,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    budget: int = DEFAULT_BUDGET,
) -> tuple[ForestCertificate, ReductionTrace]:
    """Linear forest respecting the ABC degree caps, of size at least the
    partition-weighted bound."""
    return _construct("ABC", g, p, exact_threshold, budget)


def ab_construct(
    g: Graph,
    p: Partition,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    budget: int = DEFAULT_BUDGET,
) -> tuple[ForestCertificate, ReductionTrace]:
    """Star forest respecting the AB edge condition, of size at least the
    partition-weighted bound."""
    return _construct("AB", g, p, exact_threshold, budget)


def _construct(
    mode: str, g: Graph, p: Partition, threshold: int, budget: int
) -> tuple[ForestCertificate, ReductionTrace]:
    table = _RULES[mode]
    if p.mode != mode:
        raise ParseError(f"{table['name']} needs an {mode} partition")
    p.validate_for(g)
    bound = total_weight(g, table["bound"], p)
    chosen, trace = _reduce(g, dict(p.labels), mode, threshold, budget)
    cert = ForestCertificate(frozenset(chosen), table["forest"], bound)
    _check_certificate(table["name"], g, cert, p)
    return cert, trace


def _reduce(
    g: Graph, labels: dict[int, str], mode: str, threshold: int, budget: int
) -> tuple[set[int], ReductionTrace]:
    """Apply the rules of `_RULES[mode]` in priority order until nothing is left.

    Pending instances wait on an explicit stack. Each step pops one and
    applies its first rule that fits; components are pushed in reverse, so
    they are solved, and logged, in order of their smallest vertex.
    """
    table = _RULES[mode]
    weight, gain_of = globals()[table["weight"]], globals()[table["gain"]]
    prefix = table["prefix"]
    trace = ReductionTrace()
    chosen: set[int] = set()
    stack = [(g, labels)]
    while stack:
        g, labels = stack.pop()
        if g.n == 0:
            continue

        # 1: delete a vertex whose weight is at most its neighbors' total gain.
        v = _lightest_deletable(g, labels, weight, gain_of)
        if v is not None:
            trace.append(ReductionStep(f"{prefix}1", removed=(v,)))
            stack.append((g.delete_vertex(v), _without(labels, v)))
            continue

        # 2: max degree <= 2 means every component is a path or a cycle,
        # solved optimally by dynamic programming.
        if g.max_degree() <= 2:
            for comp in g.components():
                sub = g.induced(comp)
                picks = _dp_component(sub, labels, mode)
                need = _total(sub, labels, weight)
                if Fraction(len(picks)) < need:
                    raise BoundMiss(
                        f"path/cycle optimum {len(picks)} below bound {need}",
                        ForestCertificate(frozenset(picks), table["forest"], need),
                    )
                trace.append(_solved(f"{prefix}2", comp, picks))
                chosen |= picks
            continue

        # 3: strip a leaf whose weight survives re-adding it after demoting
        # its neighbor one rank; the leaf is always re-added.
        leaf = _strippable_leaf(g, labels, table, weight)
        if leaf is not None:
            v, w, demoted = leaf
            trace.append(ReductionStep(f"{prefix}3", removed=(v,), relabeled=((w, demoted),)))
            rest = _without(labels, v)
            rest[w] = demoted
            stack.append((g.delete_vertex(v), rest))
            chosen.add(v)
            continue

        # 4: solve components independently.
        comps = g.components()
        if len(comps) > 1:
            trace.append(ReductionStep(f"{prefix}4", note=f"split into {len(comps)} components"))
            for comp in reversed(comps):
                stack.append((g.induced(comp), {u: labels[u] for u in comp}))
            continue

        # 5: the mode's own rule.
        found = table["special"](g, labels, weight)
        if found is not None:
            step, picks, rest = found
            trace.append(step)
            chosen |= picks
            stack.extend(rest)
            continue

        # 6: constrained exact search.
        need = _total(g, labels, weight)
        chosen |= _exact_fallback(
            g, Partition(labels, mode), trace, threshold, budget, need, f"{prefix}6"
        )
    return chosen, trace


def _total(g: Graph, labels: dict[int, str], weight) -> Fraction:
    return sum((weight(labels[v], g.degree(v)) for v in g.vertices), Fraction(0))


def _solved(rule: str, vertices, picks, note: str = "") -> ReductionStep:
    """The step of a rule that settles a whole instance, keeping `picks`."""
    return ReductionStep(
        rule, removed=tuple(sorted(vertices)), chosen=tuple(sorted(picks)), note=note
    )


def _without(labels: dict[int, str], v: int) -> dict[int, str]:
    return {u: part for u, part in labels.items() if u != v}


def _lightest_deletable(g: Graph, labels: dict[int, str], weight, gain_of) -> Optional[int]:
    """Rule 1's choice: the lightest, then lowest, vertex whose weight is at
    most the sum of its neighbors' gains."""
    pick = None
    for v in g.vertices:
        fv = weight(labels[v], g.degree(v))
        if fv <= sum((gain_of(labels[w], g.degree(w)) for w in g.neighbors(v)), Fraction(0)):
            if pick is None or (fv, v) < pick:
                pick = (fv, v)
    return None if pick is None else pick[1]


def _strippable_leaf(
    g: Graph, labels: dict[int, str], table: dict, weight
) -> Optional[tuple[int, int, str]]:
    """Rule 3's choice: the lowest leaf v, with its neighbor w and w's demoted
    label, such that v's weight plus w's weight loss is at most 1."""
    for v in g.vertices:
        if g.degree(v) != 1 or labels[v] not in table["leaf"]:
            continue
        (w,) = g.neighbors(v)
        demoted = table["demote"].get(labels[w])
        if demoted is None:
            continue
        dw = g.degree(w)
        if weight(labels[v], 1) + (weight(labels[w], dw) - weight(demoted, dw - 1)) <= 1:
            return v, w, demoted
    return None


def _promote_and_contract(g: Graph, labels: dict[int, str], weight):
    """R5: promote a degree-3 B vertex, delete its lightest neighbor, and tie
    the two heavier ones together; apply only when the rewritten instance
    keeps the full bound."""
    base_total = _total(g, labels, weight)
    for v in g.vertices:
        if labels[v] != "B" or g.degree(v) != 3:
            continue
        x, y, z = sorted(g.neighbors(v), key=lambda w: (-weight(labels[w], g.degree(w)), w))
        reduced = g.delete_vertex(z).add_edge(x, y)
        new_labels = _without(labels, z)
        new_labels[v] = "A"
        if _total(reduced, new_labels, weight) < base_total:
            continue
        added = () if g.has_edge(x, y) else ((x, y),)
        step = ReductionStep("R5", removed=(z,), added_edges=added, relabeled=((v, "A"),))
        return step, set(), [(reduced, new_labels)]
    return None


def _cubic_endgame(g: Graph, labels: dict[int, str], weight):
    """S5: all vertices in A with degrees 2 and 3, the degree-2 vertices far
    apart: contract each degree-2 path into an edge, split the resulting
    cubic graph, and keep the bigger side plus every degree-2 vertex."""
    if any(part != "A" for part in labels.values()):
        return None
    if any(g.degree(v) not in (2, 3) for v in g.vertices):
        return None
    low = [v for v in g.vertices if g.degree(v) == 2]
    for v in low:
        u, w = sorted(g.neighbors(v))
        if g.degree(u) != 3 or g.degree(w) != 3 or g.has_edge(u, w):
            return None
        if _within_distance(g, v, set(low) - {v}, 3):
            return None
    contracted = g.delete_vertices(low)
    for v in low:
        u, w = sorted(g.neighbors(v))
        contracted = contracted.add_edge(u, w)
    if any(contracted.degree(v) != 3 for v in contracted.vertices):
        return None
    part1, part2 = cubic_partition(contracted)
    keep = part1 if len(part1) >= len(part2) else part2
    chosen = set(keep) | set(low)
    if Fraction(len(chosen)) < _total(g, labels, weight):
        return None
    return _solved("S5", g.vertices, chosen, f"contracted {len(low)} paths"), chosen, []


def _within_distance(g: Graph, start: int, targets: set[int], radius: int) -> bool:
    seen = {start}
    frontier = {start}
    for _ in range(radius):
        frontier = {w for u in frontier for w in g.neighbors(u)} - seen
        if frontier & targets:
            return True
        seen |= frontier
    return False


def _exact_fallback(
    g: Graph,
    p: Partition,
    trace: ReductionTrace,
    threshold: int,
    budget: int,
    need: Fraction,
    rule: str,
) -> set[int]:
    over = g.n > threshold
    result = alpha_exact_partitioned(g, p, budget=_STUCK_BUDGET if over else budget)
    if Fraction(result.alpha) >= need:
        trace.append(_solved(rule, g.vertices, result.witness, "over-threshold" if over else ""))
        return set(result.witness)
    raise BoundMiss(
        f"residual graph on {g.n} vertices (threshold {threshold}) missed the bound: "
        f"best {result.alpha} < {need} (exact={result.exact})",
        ForestCertificate(frozenset(result.witness), _RULES[p.mode]["forest"], need),
    )


# ---------------------------------------------------------------------------
# Dynamic programs for paths and cycles


def _component_order(g: Graph) -> tuple[list[int], bool]:
    """Traversal order of a connected component with max degree <= 2."""
    ends = sorted(v for v in g.vertices if g.degree(v) <= 1)
    is_cycle = not ends
    start = min(g.vertices) if is_cycle else ends[0]
    order = [start]
    prev = None
    while len(order) < g.n:
        nxt = min(g.neighbors(order[-1]) - ({prev} if prev is not None else set()))
        prev = order[-1]
        order.append(nxt)
    return order, is_cycle


def _dp_component(g: Graph, labels: dict[int, str], mode: str) -> set[int]:
    """Largest allowed selection on a path, or on a cycle as the best path
    left by deleting one vertex."""
    order, is_cycle = _component_order(g)
    if not is_cycle:
        return _dp_path(order, labels, mode)[1]
    best: tuple[int, set[int]] | None = None
    for skip in range(len(order)):
        count, picks = _dp_path(order[skip + 1 :] + order[:skip], labels, mode)
        if best is None or count > best[0]:
            best = (count, picks)
    return best[1]


def _dp_path(order: list[int], labels: dict[int, str], mode: str) -> tuple[int, set[int]]:
    """Largest selection along a path that the mode's automaton accepts.

    State 0 is an unchosen vertex. A chosen vertex after an unchosen one
    enters state `start[label]`; after a chosen one in state s it enters
    `extend[(s, previous label, label)]`, and a missing key forbids the move.
    Each state keeps its first strictly better predecessor, and the lowest
    state wins among equal end values.
    """
    start, extend = _RULES[mode]["start"], _RULES[mode]["extend"]
    nstates = 1 + max(*start.values(), *extend.values())
    n = len(order)
    value = [[-1] * nstates for _ in range(n)]
    back = [[None] * nstates for _ in range(n)]
    value[0][0] = 0
    value[0][start[labels[order[0]]]] = 1
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
    state = max(range(nstates), key=lambda s: (value[n - 1][s], -s))
    picks: set[int] = set()
    for i in range(n - 1, -1, -1):
        if state != 0:
            picks.add(order[i])
        state = back[i][state] if i > 0 else None
    return max(value[n - 1]), picks


# ---------------------------------------------------------------------------
# Rule tables. Rule i of a mode is logged as its prefix followed by i.

_RULES = {
    "ABC": {
        "name": "abc_construct",
        "prefix": "R",
        "bound": BoundSpec.abc(),
        "forest": LINEAR_FOREST,
        # Looked up by name on each run, so that a wrapper installed on this
        # module's attribute (a profiler, say) sees every evaluation.
        "weight": "abc_weight",
        "gain": "gain",
        # Rule 3: labels a stripped leaf may carry, and its neighbor's
        # demotion (a C neighbor cannot be demoted, so it blocks the rule).
        "leaf": "AB",
        "demote": {"A": "B", "B": "C"},
        # States: 1 chosen after an unchosen vertex, 2 chosen after a chosen
        # one. Moving to state 2 gives the previous vertex its state-th
        # chosen neighbor and this vertex its first, within the ABC caps.
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
        "name": "ab_construct",
        "prefix": "S",
        "bound": BoundSpec.abstar(),
        "forest": STAR_FOREST,
        "weight": "ab_star_weight",
        "gain": "ab_star_gain",
        "leaf": "A",
        "demote": {"A": "B", "B": "B"},
        # Star-forest runs along a path: singletons are free (1 = A, 2 = B),
        # a pair may not be B-B (3 = AA, 4 = AB, 5 = BA), a triple needs both
        # ends in A (6), longer runs are never stars.
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


# ---------------------------------------------------------------------------
# Bound-specific wrappers


def k_caterpillar_forest(
    g: Graph,
    k: int,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    budget: int = DEFAULT_BUDGET,
) -> ForestCertificate:
    """Caterpillar forest of maximum degree at most k meeting the local bound.

    Drops every vertex that carries k+1 or more leaves, also once earlier
    drops have made new leaves, then hands each component's leaf-stripped
    core to the ABC engine, labeled by how many leaves each vertex carries.
    """
    if k < 2:
        raise InvalidSpec(f"k must be >= 2, got {k}")
    bound = total_weight(g, BoundSpec.hkg(k))
    chosen = _leaf_core_forest(
        g.delete_vertices(_overloaded(g, k)),
        abc_construct,
        "ABC",
        lambda carried: "A" if carried <= k - 2 else ("B" if carried == k - 1 else "C"),
        exact_threshold,
        budget,
    )
    cert = ForestCertificate(frozenset(chosen), ForestClass.caterpillar(k), bound)
    _check_certificate("k_caterpillar_forest", g, cert)
    return cert


def _overloaded(g: Graph, k: int) -> set[int]:
    """Vertices left to drop by repeatedly dropping one with k+1 or more leaf
    neighbors. A drop can only turn a neighbor into a new leaf, never take a
    leaf from a vertex that stays, so the set does not depend on the order."""
    degree = {v: g.degree(v) for v in g.vertices}
    carried = {v: sum(1 for w in g.neighbors(v) if degree[w] == 1) for v in g.vertices}
    work = [v for v in g.vertices if carried[v] >= k + 1]
    dropped: set[int] = set()
    while work:
        v = work.pop()
        if v in dropped:
            continue
        dropped.add(v)
        for w in g.neighbors(v):
            degree[w] -= 1
            if degree[w] == 1 and w not in dropped:
                (u,) = g.neighbors(w) - dropped
                carried[u] += 1
                if carried[u] >= k + 1:
                    work.append(u)
    return dropped


def star_forest(
    g: Graph,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    budget: int = DEFAULT_BUDGET,
) -> ForestCertificate:
    """Star forest meeting the best epsilon-family bound for g's degrees.

    Hands each component's leaf-stripped core to the AB engine, labeled by
    whether each vertex carried a leaf.
    """
    eps = star_epsilon_opt(g.degree_histogram())
    bound = sum((star_f_eps(eps, g.degree(v)) for v in g.vertices), Fraction(0))
    chosen = _leaf_core_forest(
        g, ab_construct, "AB", lambda carried: "B" if carried else "A", exact_threshold, budget
    )
    cert = ForestCertificate(frozenset(chosen), STAR_FOREST, bound)
    _check_certificate("star_forest", g, cert)
    return cert


def _leaf_core_forest(g: Graph, engine, mode: str, label, threshold: int, budget: int) -> set[int]:
    """Per component: take it whole if it has at most two vertices; otherwise
    strip its leaves, label every other vertex by `label(number of leaves it
    carries)`, and add the leaves to what `engine` keeps of that core."""
    chosen: set[int] = set()
    for comp in g.components():
        if len(comp) <= 2:
            chosen |= comp
            continue
        leaves = {v for v in comp if g.degree(v) == 1}
        core = comp - leaves
        labels = {v: label(len(g.neighbors(v) & leaves)) for v in core}
        inner, _ = engine(g.induced(core), Partition(labels, mode), threshold, budget)
        chosen |= inner.vertex_set | leaves
    return chosen


# ---------------------------------------------------------------------------
# Verification and serialization


def verify_certificate(g: Graph, cert: ForestCertificate, labels: Optional[Partition] = None) -> bool:
    """Check class membership, optional per-part constraints, and the bound."""
    if not set(cert.vertex_set) <= set(g.vertices):
        return False
    sub = g.induced(cert.vertex_set)
    if not cert.forest_class.contains(sub):
        return False
    if labels is not None:
        if labels.mode == "ABC":
            for v in sub.vertices:
                if sub.degree(v) > ABC_CAPS[labels.part(v)]:
                    return False
        else:
            for u, v in sub.edges():
                for a, b in ((u, v), (v, u)):
                    if labels.part(b) == "B" and not (
                        labels.part(a) == "A" and sub.degree(a) == 1
                    ):
                        return False
    return Fraction(len(cert.vertex_set)) >= cert.claimed_bound


def _check_certificate(
    name: str, g: Graph, cert: ForestCertificate, p: Optional[Partition] = None
) -> None:
    if not verify_certificate(g, cert, p):
        raise BoundMiss(f"{name} produced an invalid certificate", cert)


def certificate_to_text(
    cert: ForestCertificate, graph_hash: str = "", trace: Optional[ReductionTrace] = None
) -> str:
    bound = cert.claimed_bound
    lines = [
        f"graph={graph_hash or '-'}",
        f"class={cert.forest_class.to_text()}",
        f"bound={bound.numerator}/{bound.denominator}",
        "vertices=" + " ".join(map(str, sorted(cert.vertex_set))),
        f"trace={trace.summary() if trace is not None else '-'}",
    ]
    return "\n".join(lines) + "\n"


def certificate_from_text(text: str) -> tuple[ForestCertificate, str]:
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ParseError(f"bad certificate line {line!r}")
        fields[key.strip()] = value.strip()
    try:
        forest_class = ForestClass.from_text(fields["class"])
        bound = Fraction(fields["bound"])
        vertex_set = frozenset(int(tok) for tok in fields["vertices"].split())
    except KeyError as exc:
        raise ParseError(f"certificate missing field {exc}") from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad certificate value: {exc}") from exc
    graph_hash = fields.get("graph", "-")
    return ForestCertificate(vertex_set, forest_class, bound), graph_hash

"""Outside-in tracing of forestbound's layers.

`Tracer.install()` wraps the public functions of each layer module and
puts the wrapper under every name that refers to the function in any
forestbound module namespace (so `forestbound.cli.parse_edge_list` and
`forestbound.graph.parse_edge_list` both record). Each call records a span
(name, layer, start, end, parent span, operation); spans stay in memory
until the run writes them out. `uninstall()` restores the originals, so
traced and untraced rounds can alternate in one process.
"""

from __future__ import annotations

import json
import statistics
import sys
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "graph", "weights", "construct", "exact", "harness")
CONSTRUCTORS = (
    "greedy_linear_forest",
    "caterpillar_forest",
    "k_caterpillar_forest",
    "star_forest",
    "abc_construct",
    "ab_construct",
)
RULES = tuple(f"R{i}" for i in range(1, 7)) + tuple(f"S{i}" for i in range(1, 7))
COMMANDS = ("bound", "epsilon-opt", "construct", "verify", "exact", "harness")

# (module, attribute, span name, layer); "Graph.x" is a method of Graph.
TARGETS = (
    ("graph", "parse_edge_list", "graph.parse", "graph"),
    ("graph", "Graph.induced", "graph.copy", "graph"),
    ("graph", "Graph.delete_vertices", "graph.copy", "graph"),
    ("graph", "Graph.add_edge", "graph.copy", "graph"),
    ("graph", "Graph.components", "graph.components", "graph"),
    ("weights", "total_weight", "weights.total_weight", "weights"),
    ("weights", "epsilon_star", "weights.eps_select", "weights"),
    ("weights", "star_epsilon_opt", "weights.eps_select", "weights"),
    *(("construct", fn, f"construct.{fn}", "construct") for fn in CONSTRUCTORS),
    ("construct", "verify_certificate", "construct.verify", "construct"),
    ("exact", "alpha_exact", "exact.search", "exact"),
    ("exact", "alpha_exact_partitioned", "exact.search", "exact"),
    ("harness", "run_suite", "harness.run_suite", "harness"),
)
# Weight evaluations made from the reduction engines: counted, no span.
EVAL_TARGETS = ("abc_weight", "ab_star_weight", "gain", "ab_star_gain")


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, measure_alloc: bool = False):
        self.spans: list[list] = []  # [name, layer, start, end, parent, op, round]
        self.stack: list[int] = []
        self.op = ""
        self.round = 0
        self.evals = Counter()  # round -> weight evaluations from construct
        self.rules = Counter()  # (round, rule) -> applications
        self.nodes = Counter()  # (round, span name) -> oracle nodes
        self.records = Counter()  # round -> harness records
        self.measure_alloc = measure_alloc
        self.peak_alloc = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, perf_counter(), None, parent, self.op, self.round])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()

    def close_op(self, root: int) -> None:
        """Close spans a deep failure left open and reset the span stack."""
        end = self.spans[root][3]
        for span in self.spans[root:]:
            if span[3] is None:
                span[3] = end
        self.stack.clear()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        on_result = {
            "construct.abc_construct": self._count_rules,
            "construct.ab_construct": self._count_rules,
            "exact.search": self._count_nodes,
            "construct.fallback": self._count_nodes,
            "harness.run_suite": self._count_records,
        }.get(name)
        alloc = self.measure_alloc and layer == "exact"

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name, layer)
            if alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if alloc:
                    tracer.peak_alloc = max(tracer.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                tracer.end(idx)
            if on_result is not None:
                on_result(name, result)
            return result

        return wrapper

    def _count_evals(self, fn):
        evals = self.evals
        tracer = self

        def wrapper(*args):
            evals[tracer.round] += 1
            return fn(*args)

        return wrapper

    def _count_rules(self, name, result) -> None:
        for step in result[1].steps:
            self.rules[(self.round, step.rule)] += 1

    def _count_nodes(self, name, result) -> None:
        self.nodes[(self.round, name)] += result.nodes_explored

    def _count_records(self, name, result) -> None:
        self.records[self.round] += len(result.records)

    def install(self) -> None:
        modules = [
            m for k, m in sys.modules.items() if k == "forestbound" or k.startswith("forestbound.")
        ]
        for mod_name, attr, name, layer in TARGETS:
            owner = sys.modules[f"forestbound.{mod_name}"]
            if attr.startswith("Graph."):
                cls, meth = owner.Graph, attr.split(".", 1)[1]
                self._replace(cls, meth, self._wrap(getattr(cls, meth), name, layer))
                continue
            original = getattr(owner, attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        span = name
                        if attr == "alpha_exact_partitioned" and mod.__name__.endswith(".construct"):
                            span = "construct.fallback"  # the R6/S6 oracle calls
                        self._replace(mod, key, self._wrap(original, span, layer))
        construct = sys.modules["forestbound.construct"]
        for attr in EVAL_TARGETS:
            self._replace(construct, attr, self._count_evals(getattr(construct, attr)))

    def _replace(self, owner, key: str, value) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    # -- reporting ---------------------------------------------------------

    def round_metrics(self, rnd: int) -> dict[str, float]:
        """Per-layer figures for one traced round (times in seconds).

        Function times are inclusive; a layer's self time is its spans'
        time minus the part their child spans cover.
        """
        child = defaultdict(float)
        for s in self.spans:
            if s[6] == rnd and s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        time, calls, self_s = defaultdict(float), Counter(), defaultdict(float)
        cmd_ms = defaultdict(list)
        for i, (name, layer, start, end, _parent, _op, r) in enumerate(self.spans):
            if r != rnd:
                continue
            time[name] += end - start
            calls[name] += 1
            self_s[layer] += end - start - child[i]
            if layer == "cli":
                cmd_ms[name.split(".", 1)[1]].append((end - start) * 1000.0)
        out = {
            "graph.parse_s": time["graph.parse"],
            "graph.parse_calls": calls["graph.parse"],
            "graph.copies": calls["graph.copy"],
            "graph.copy_s": time["graph.copy"],
            "graph.components_calls": calls["graph.components"],
            "weights.total_weight_s": time["weights.total_weight"],
            "weights.total_weight_calls": calls["weights.total_weight"],
            "weights.eps_select_s": time["weights.eps_select"],
            "weights.evals": self.evals[rnd],
        }
        for fn in CONSTRUCTORS:
            out[f"construct.{fn}_s"] = time[f"construct.{fn}"]
            out[f"construct.{fn}_calls"] = calls[f"construct.{fn}"]
        for rule in RULES:
            out[f"construct.rule.{rule}"] = self.rules[(rnd, rule)]
        fallback_nodes = self.nodes[(rnd, "construct.fallback")]
        exact_s = time["exact.search"] + time["construct.fallback"]
        exact_nodes = self.nodes[(rnd, "exact.search")] + fallback_nodes
        out.update({
            "construct.fallback_calls": calls["construct.fallback"],
            "construct.fallback_s": time["construct.fallback"],
            "construct.fallback_nodes": fallback_nodes,
            "construct.verify_calls": calls["construct.verify"],
            "construct.verify_s": time["construct.verify"],
            "exact.calls": calls["exact.search"] + calls["construct.fallback"],
            "exact.s": exact_s,
            "exact.nodes": exact_nodes,
            "exact.nodes_per_s": exact_nodes / exact_s if exact_s else 0.0,
            "harness.s": time["harness.run_suite"],
            "harness.records": self.records[rnd],
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        for cmd in COMMANDS:
            ms = cmd_ms.get(cmd)
            out[f"cli.{cmd}_p50_ms"] = statistics.median(ms) if ms else 0.0
        return out

    def heaviest_oracle_op(self, rnd: int):
        """The op of round rnd that spent the most time in the oracle, if any."""
        per_op = Counter()
        for name, layer, start, end, _parent, op, r in self.spans:
            if r == rnd and layer == "exact":
                per_op[op] += end - start
        return per_op.most_common(1)[0][0] if per_op else None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, layer, start, end, parent, op, rnd) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "layer": layer, "start": start, "end": end,
                    "parent": parent, "op": op, "round": rnd,
                }) + "\n")

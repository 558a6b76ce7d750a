"""The benchmark's workloads: seeded input files plus the list of CLI
operations one round runs on them.

Each operation is one call of `forestbound.cli.main(argv)`. The metadata
next to the argv tells the independent checker what the output must be.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import bench_inputs as gen

BOGUS_CERT = "graph=-\nclass=linear\nbound=0/1\nvertices=\ntrace=-\n"

# Known faults kept as operations that fail every time (see README.md).
FAULT_VERIFY_TRUSTS_BOUND = "verify accepts an empty certificate that claims bound=0/1 on K5"
FAULT_KCAT_RECURSION = "k_caterpillar_forest recurses once per deleted vertex: RecursionError"


@dataclass
class Op:
    name: str  # unique within a round
    command: str
    argv: list[str]
    graph: Optional[str] = None  # file names are relative to the work directory
    kind: str = ""  # bound spec, or the construct/exact kind
    k: Optional[int] = None
    partition: Optional[str] = None
    cert: Optional[str] = None
    known_fault: str = ""
    pair: Optional[str] = None  # construct op on the same input, for exact ops
    expect_records: int = 0  # harness ops

    @property
    def forest_class(self) -> str:
        return {"abc": "linear", "ab": "star"}.get(self.kind, self.kind)

    @property
    def bound_variant(self) -> str:
        """The checker's bound that a certificate of this kind must carry."""
        if self.kind == "caterpillar":
            return "hkg" if self.k is not None else "cat"
        return {"linear": "flin", "star": "star", "abc": "abc", "ab": "abstar"}[self.kind]


def _k_arg(k: Optional[int]) -> list[str]:
    return [] if k is None else ["--k", str(k)]


class OpList:
    """Writes input files into a work directory and collects operations."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.ops: list[Op] = []

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def graph(self, name: str, n: int, edges: gen.Edges) -> str:
        gen.write_edge_list(self.dir / name, n, edges)
        return name

    def partition(self, name: str, parts: list[str]) -> str:
        gen.write_partition(self.dir / name, parts)
        return name

    def bound(self, graph: str, spec: str, partition: Optional[str] = None) -> None:
        argv = ["bound", self.path(graph), spec]
        if partition:
            argv += ["--partition", self.path(partition)]
        k = int(spec.split("k=")[1]) if "k=" in spec else None
        self.ops.append(Op(f"bound:{graph}:{spec}", "bound", argv, graph, spec, k, partition))

    def epsilon_opt(self, graph: str, k: Optional[int]) -> None:
        flag = ["--star"] if k is None else ["--k", str(k)]
        kind = "star" if k is None else "fkeps"
        argv = ["epsilon-opt", self.path(graph), *flag]
        self.ops.append(Op(f"eps:{graph}:{kind}", "epsilon-opt", argv, graph, kind, k))

    def construct(self, graph: str, kind: str, k=None, partition=None, fault="") -> Op:
        cert = f"{graph}.{kind}{k or ''}.cert"
        argv = ["construct", self.path(graph), kind, *_k_arg(k), "--out", self.path(cert)]
        if partition:
            argv += ["--partition", self.path(partition)]
        op = Op(f"construct:{graph}:{kind}{k or ''}", "construct", argv, graph, kind, k,
                partition, cert, known_fault=fault)
        self.ops.append(op)
        return op

    def verify(self, of: Op, fault: str = "") -> None:
        argv = ["verify", self.path(of.graph), self.path(of.cert)]
        self.ops.append(Op(f"verify:{of.cert}", "verify", argv, of.graph, of.kind, of.k,
                           of.partition, of.cert, known_fault=fault))

    def exact(self, graph: str, kind: str, k=None, partition=None, pair=None) -> None:
        argv = ["exact", self.path(graph), kind, *_k_arg(k)]
        if partition:
            argv += ["--partition", self.path(partition)]
        self.ops.append(Op(f"exact:{graph}:{kind}{k or ''}", "exact", argv, graph, kind, k,
                           partition, pair=pair.name if pair else None))

    def harness(self, suite: str, seed: int, records: int) -> None:
        argv = ["harness", suite, "--seed", str(seed)]
        self.ops.append(Op(f"harness:{suite}", "harness", argv, kind=suite,
                           expect_records=records))


# ---------------------------------------------------------------------------
# Workloads. `scale` < 1 shrinks every size for the checker's smoke test.


def sparse(n: int, mean_degree: float, rng: random.Random) -> gen.Edges:
    """G(n, mean_degree / n) with its expected edge count fixed."""
    return gen.gnm(n, round(mean_degree * (n - 1) / 2), rng)


def bounds_large(b: OpList, rng: random.Random, scale: float) -> None:
    n = max(50, int(20_000 * scale))
    graphs = {
        "sparse": b.graph("sparse.txt", n, sparse(n, 3.0, rng)),
        "heavy": b.graph("heavy.txt", n, gen.heavy_tailed(n, 6.0, 2.7, rng)),
    }
    for label, g in graphs.items():
        abc = b.partition(f"{label}.abc", gen.labels(n, "ABC", rng))
        ab = b.partition(f"{label}.ab", gen.labels(n, "AB", rng))
        for spec in ("flin", "fkeps:k=2", "fk:k=3", "hkg:k=3", "star"):
            b.bound(g, spec)
        b.bound(g, "abc", abc)
        b.bound(g, "abstar", ab)
        b.epsilon_opt(g, 2)
        b.epsilon_opt(g, None)


def construct_sparse(b: OpList, rng: random.Random, scale: float) -> None:
    def size(n: int) -> int:
        return max(12, int(n * scale))

    n = size(350)
    for i in range(3):
        g = b.graph(f"gnm350-{i}.txt", n, sparse(n, 3.0, rng))
        for kind, k in (("star", None), ("caterpillar", 2), ("caterpillar", 3)):
            b.verify(b.construct(g, kind, k))
    n = size(1000)
    g = b.graph("gnm1000.txt", n, sparse(n, 8.0, rng))
    b.verify(b.construct(g, "linear"))
    n = size(2000)
    g = b.graph("mindeg1.txt", n, gen.cover_isolated(n, sparse(n, 4.0, rng), rng))
    b.verify(b.construct(g, "caterpillar"))
    n = size(500)
    g = b.graph("cycle.txt", n, gen.cycle(n))
    b.verify(b.construct(g, "star"))
    b.verify(b.construct(g, "caterpillar", 2))
    # Known faults, on inputs that do not depend on the seed. The reduced
    # scale of the smoke test shortens the comb below the recursion limit.
    k5 = b.graph("k5.txt", 5, gen.complete(5))
    (b.dir / "bogus.cert").write_text(BOGUS_CERT)
    b.verify(Op("bogus", "construct", [], k5, "linear", cert="bogus.cert"),
             fault=FAULT_VERIFY_TRUSTS_BOUND)
    n, edges = gen.comb(1100 if scale >= 1 else 30, 3)
    b.construct(b.graph("comb.txt", n, edges), "caterpillar", 2, fault=FAULT_KCAT_RECURSION)


# kind: (instances, n, d). Random d-regular graphs with d close to
# 0.3 (n - 1): the density of G(n, 0.3), with less than half of its
# instance-to-instance spread in branch-and-bound effort (see README.md).
ORACLE_BATCHES = {"linear": (25, 20, 6), "caterpillar": (25, 18, 5), "star": (12, 22, 6)}


def oracle_small(b: OpList, rng: random.Random, scale: float) -> None:
    for kind, (count, n, d) in ORACLE_BATCHES.items():
        k = 3 if kind == "caterpillar" else None
        if scale < 1:
            count, n, d = max(1, int(count * scale)), 10, 3
        for i in range(count):
            b.exact(b.graph(f"{kind}{i}.txt", n, gen.random_regular(n, d, rng)), kind, k)
    for n in range(12, 19) if scale >= 1 else (8, 12):
        for kind, alphabet in (("abc", "ABC"), ("ab", "AB")):
            g = b.graph(f"{kind}{n}.txt", n, gen.gnm(n, round(0.3 * n * (n - 1) / 2), rng))
            p = b.partition(f"{kind}{n}.part", gen.labels(n, alphabet, rng))
            b.exact(g, kind, partition=p, pair=b.construct(g, kind, partition=p))
    seed = rng.randrange(1000)
    b.harness("abc-lemma", seed, 3 * 5 * 2)  # sizes x instances x checks
    b.harness("star-lemma", seed, 3 * 5 * 2)
    b.harness("exhaustive-small", seed, 5)  # one record per size 1..5


WORKLOADS = {
    "bounds-large": bounds_large,
    "construct-sparse": construct_sparse,
    "oracle-small": oracle_small,
}


def build(workload: str, seed: int, workdir: Path, scale: float = 1.0) -> list[Op]:
    """Write the workload's inputs for this seed and return one round of ops."""
    b = OpList(workdir)
    WORKLOADS[workload](b, random.Random(f"{workload}:{seed}"), scale)
    return b.ops

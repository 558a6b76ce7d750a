"""Independent checker for the outputs of forestbound's CLI.

Imports nothing from forestbound. It re-reads the input files, recomputes
every bound from the paper's weight formulas in exact rationals, recognizes
the forest classes from their definitions, and brute-forces the optimum on
graphs with at most BRUTE_MAX_N vertices.
"""

from __future__ import annotations

from fractions import Fraction as F
from itertools import combinations
from pathlib import Path
from typing import Optional

BRUTE_MAX_N = 14
EPS_GRID = 240  # grid points per epsilon interval in the optimality check
ABC_CAP = {"A": 2, "B": 1, "C": 0}

Adj = list[set[int]]


# ---------------------------------------------------------------------------
# File readers


def read_edge_list(text: str) -> Adj:
    rows = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    rows = [r for r in rows if r]
    n = int(rows[0][0])
    adj: Adj = [set() for _ in range(n)]
    for u, v in rows[1:]:
        a, b = int(u), int(v)
        adj[a].add(b)
        adj[b].add(a)
    return adj


def read_partition(text: str) -> dict[int, str]:
    out = {}
    for ln in text.splitlines():
        parts = ln.split()
        if parts:
            out[int(parts[0])] = parts[1].upper()
    return out


def read_fields(text: str) -> dict[str, str]:
    """`key=value` lines (certificates, bound and exact outputs)."""
    out = {}
    for ln in text.splitlines():
        key, eq, value = ln.partition("=")
        if eq and " " not in key:
            out[key.strip()] = value.strip()
    return out


def verdict(text: str) -> dict[str, str]:
    """The tokens of the `verdict=... size=... bound=...` line."""
    for ln in text.splitlines():
        if ln.startswith("verdict="):
            return dict(tok.split("=", 1) for tok in ln.split() if "=" in tok)
    return {}


def rational(text: str) -> F:
    """The `p/q` at the start of a printed bound such as `7/3 (~2.333)`."""
    return F(text.split()[0])


# ---------------------------------------------------------------------------
# Weight formulas


def eps_max(k: int) -> F:
    return F(2, (k + 1) * (k + 2))


STAR_EPS_MAX = F(1, 6)


def w_flin(d: int) -> F:
    return F(1) if d == 0 else F(5, 6) if d == 1 else F(2, d + 1)


def w_cat(d: int) -> F:
    """Unbounded caterpillar forests (no isolated vertices): 2/(d+1)."""
    return F(2, d + 1)


def w_fkeps(k: int, eps: F, d: int) -> F:
    if d == 0:
        return F(1)
    if d == 1:
        return 1 - eps
    if d <= k:
        return F(2, d + 1)
    return min((k + 1) * eps, F(2, d + 1))


def w_hkg(k: int, d: int, nbr_deg: int) -> F:
    """Local caterpillar weight; nbr_deg is the neighbour's degree when d == 1."""
    if d == 0:
        return F(1)
    if d >= 2:
        return F(2, d + 1)
    return F(1) if nbr_deg <= k else 1 - F(2, (k + 1) * (nbr_deg + 1))


def w_star(eps: F, d: int) -> F:
    if d == 0:
        return F(1)
    if d == 1:
        return 1 - eps
    if d == 2:
        return min(F(3, 5), F(1, 2) + eps)
    return min(F(2, d + 1), F(1, d) + eps)


_ABC_HEAD = {
    "A": (F(1), F(5, 6), F(2, 3)),
    "B": (F(1), F(5, 6), F(1, 3)),
    "C": (F(1), F(1, 6), F(1, 6)),
}
_ABC_TAIL = {"A": F(2), "B": F(4, 3), "C": F(2, 3)}  # numerator of c/(d+1)


def w_abc(part: str, d: int) -> F:
    return _ABC_HEAD[part][d] if d <= 2 else _ABC_TAIL[part] / (d + 1)


def w_ab(part: str, d: int) -> F:
    if part == "B":
        return F(1, d + 1)
    return (F(1), F(5, 6), F(3, 5))[d] if d <= 2 else F(2, d + 1)


def histogram(adj: Adj) -> dict[int, int]:
    hist: dict[int, int] = {}
    for nbrs in adj:
        hist[len(nbrs)] = hist.get(len(nbrs), 0) + 1
    return hist


def family_total(hist: dict[int, int], family: str, k: int, eps: F) -> F:
    if family == "fkeps":
        return sum((c * w_fkeps(k, eps, d) for d, c in hist.items()), F(0))
    return sum((c * w_star(eps, d) for d, c in hist.items()), F(0))


def eps_candidates(hist: dict[int, int], family: str, k: int) -> list[F]:
    """A fine grid over the admissible interval plus every point where a
    `min` in the formula switches branch for a degree present in hist."""
    top = eps_max(k) if family == "fkeps" else STAR_EPS_MAX
    points = {top * i / EPS_GRID for i in range(EPS_GRID + 1)}
    for d in hist:
        if family == "fkeps" and d > k:
            points.add(F(2, (k + 1) * (d + 1)))
        elif family == "star" and d == 2:
            points.add(F(1, 10))
        elif family == "star" and d >= 3:
            points.add(F(2, d + 1) - F(1, d))
    return sorted(points)


def best_family_total(hist: dict[int, int], family: str, k: int) -> F:
    return max(family_total(hist, family, k, e) for e in eps_candidates(hist, family, k))


# ---------------------------------------------------------------------------
# Class recognizers on an induced subgraph


def _components(adj: Adj, s: set[int]) -> list[set[int]]:
    left = set(s)
    comps = []
    while left:
        root = left.pop()
        comp = {root}
        stack = [root]
        while stack:
            for w in adj[stack.pop()] & left:
                left.discard(w)
                comp.add(w)
                stack.append(w)
        comps.append(comp)
    return comps


def in_class(adj: Adj, s: set[int], cls: str, k: Optional[int] = None) -> bool:
    """Does the subgraph induced on s belong to cls (linear, caterpillar, star)?"""
    deg = {v: len(adj[v] & s) for v in s}
    for comp in _components(adj, s):
        if sum(deg[v] for v in comp) // 2 != len(comp) - 1:
            return False  # a connected graph is a tree iff m = n - 1
        if cls == "linear" and any(deg[v] > 2 for v in comp):
            return False
        if cls == "star" and len(comp) > 2 and not any(deg[v] == len(comp) - 1 for v in comp):
            return False
        if cls == "caterpillar":
            if k is not None and any(deg[v] > k for v in comp):
                return False
            spine = {v for v in comp if deg[v] >= 2}  # the tree minus its leaves
            if any(len(adj[v] & spine) > 2 for v in spine):
                return False
    return True


def partition_ok(adj: Adj, s: set[int], parts: dict[int, str], mode: str) -> bool:
    """ABC: forest degree within the per-part cap. AB: every forest edge at a
    B vertex leads to an A vertex that is a leaf of the forest."""
    deg = {v: len(adj[v] & s) for v in s}
    if mode == "abc":
        return all(deg[v] <= ABC_CAP[parts[v]] for v in s)
    for v in s:
        if parts[v] == "B":
            for u in adj[v] & s:
                if parts[u] != "A" or deg[u] != 1:
                    return False
    return True


def brute_alpha(adj: Adj, cls: str, k: Optional[int], parts=None, mode=None) -> int:
    """Largest induced subgraph in the class, by trying subsets from the top."""
    n = len(adj)
    if n > BRUTE_MAX_N:
        raise ValueError(f"brute force limited to {BRUTE_MAX_N} vertices")
    for size in range(n, -1, -1):
        for s in combinations(range(n), size):
            sub = set(s)
            if in_class(adj, sub, cls, k) and (
                mode is None or partition_ok(adj, sub, parts, mode)
            ):
                return size
    return 0


# ---------------------------------------------------------------------------
# Per-operation checks


class Checker:
    """Checks CLI outputs; caches parsed inputs and bounds per file."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._graphs: dict[str, Adj] = {}
        self._parts: dict[str, dict[int, str]] = {}
        self._bounds: dict[tuple, F] = {}
        self._brute: dict[tuple, int] = {}

    def graph(self, name: str) -> Adj:
        if name not in self._graphs:
            self._graphs[name] = read_edge_list((self.workdir / name).read_text())
        return self._graphs[name]

    def parts(self, name: str) -> dict[int, str]:
        if name not in self._parts:
            self._parts[name] = read_partition((self.workdir / name).read_text())
        return self._parts[name]

    def bound(self, graph: str, variant: str, k: Optional[int] = None, partition=None) -> F:
        """Independent value of a bound; auto-epsilon families take the optimum."""
        key = (graph, variant, k, partition)
        if key not in self._bounds:
            adj = self.graph(graph)
            deg = [len(nbrs) for nbrs in adj]
            if variant == "flin":
                val = sum((w_flin(d) for d in deg), F(0))
            elif variant == "cat":
                val = sum((w_cat(d) for d in deg), F(0))
            elif variant == "fk":
                val = sum((w_fkeps(k, eps_max(k), d) for d in deg), F(0))
            elif variant == "hkg":
                val = sum(
                    (w_hkg(k, d, len(adj[next(iter(adj[v]))]) if d == 1 else 0)
                     for v, d in enumerate(deg)),
                    F(0),
                )
            elif variant in ("fkeps", "star"):
                val = best_family_total(histogram(adj), variant, k)
            elif variant in ("abc", "abstar"):
                p = self.parts(partition)
                w = w_abc if variant == "abc" else w_ab
                val = sum((w(p[v], d) for v, d in enumerate(deg)), F(0))
            else:
                raise ValueError(variant)
            self._bounds[key] = val
        return self._bounds[key]

    def brute(self, graph: str, cls: str, k, partition=None, mode=None) -> int:
        key = (graph, cls, k, partition)
        if key not in self._brute:
            parts = self.parts(partition) if partition else None
            self._brute[key] = brute_alpha(self.graph(graph), cls, k, parts, mode)
        return self._brute[key]

    # -- bound and epsilon-opt ------------------------------------------------

    def check_bound(self, op, out: str) -> Optional[str]:
        fields = read_fields(out)
        got = rational(fields["bound"])
        variant = op.kind.split(":")[0]
        if variant in ("fkeps", "star"):
            err = self._check_eps(op.graph, variant, op.k, fields)
            if err:
                return err
        want = self.bound(op.graph, variant, op.k, op.partition)
        return None if got == want else f"bound {got} != independent {want}"

    def check_epsilon_opt(self, op, out: str) -> Optional[str]:
        fields = read_fields(out)
        family = "star" if op.kind == "star" else "fkeps"
        err = self._check_eps(op.graph, family, op.k, fields)
        if err:
            return err
        want = self.bound(op.graph, family, op.k)
        got = rational(fields["bound"])
        return None if got == want else f"bound {got} != independent {want}"

    def _check_eps(self, graph: str, family: str, k, fields) -> Optional[str]:
        eps = F(fields["eps"])
        top = eps_max(k) if family == "fkeps" else STAR_EPS_MAX
        if not 0 <= eps <= top:
            return f"eps {eps} outside [0, {top}]"
        hist = histogram(self.graph(graph))
        chosen = family_total(hist, family, k, eps)
        if chosen != self.bound(graph, family, k):
            return f"eps {eps} is not optimal: total {chosen} < {self.bound(graph, family, k)}"
        if family == "fkeps":
            d_star = fields.get("d_star", "-")
            want = F(0) if d_star == "-" else F(2, (k + 1) * (int(d_star) + 1))
            if eps != want:
                return f"eps {eps} does not match d_star={d_star}"
        return None

    # -- certificates ------------------------------------------------------------

    def cert_error(self, op, cert: str) -> Optional[str]:
        """Independent verdict on a certificate; None means it is valid."""
        fields = read_fields(cert)
        try:
            vertices = {int(t) for t in fields["vertices"].split()}
            claimed = F(fields["bound"])
            cls_text = fields["class"]
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            return f"unreadable certificate: {exc!r}"
        adj = self.graph(op.graph)
        if not vertices <= set(range(len(adj))):
            return "vertex outside the graph"
        cls, _, ktext = cls_text.partition(":k=")
        k = int(ktext) if ktext else None
        if cls != op.forest_class or k != op.k:
            return f"class {cls_text} does not match {op.forest_class} k={op.k}"
        if not in_class(adj, vertices, cls, k):
            return f"set is not a {cls_text}"
        if op.kind in ("abc", "ab") and not partition_ok(
            adj, vertices, self.parts(op.partition), op.kind
        ):
            return "set breaks the partition rules"
        want = self.bound(op.graph, op.bound_variant, op.k, op.partition)
        if claimed != want:
            return f"claimed bound {claimed} != independent {want}"
        if len(vertices) < want:
            return f"size {len(vertices)} below bound {want}"
        return None

    def check_construct(self, op, out: str, cert: str) -> Optional[str]:
        err = self.cert_error(op, cert)
        if err:
            return err
        line = verdict(out)
        size = len(read_fields(cert)["vertices"].split())
        if line.get("verdict") != "pass" or line.get("size") != str(size):
            return f"construct reported {out.strip()!r}"
        return None

    def check_verify(self, op, out: str, cert: str) -> Optional[str]:
        want = "pass" if self.cert_error(op, cert) is None else "fail"
        got = verdict(out).get("verdict")
        return None if got == want else f"verdict {got!r}, independent verdict {want!r}"

    def expected_verify_exit(self, op, cert: str) -> int:
        return 0 if self.cert_error(op, cert) is None else 2

    # -- exact -----------------------------------------------------------------

    def check_exact(self, op, out: str, paired_size: Optional[int]) -> Optional[str]:
        fields = read_fields(out)
        alpha = int(fields["alpha"])
        witness = {int(t) for t in fields["witness"].split()}
        if fields.get("exact") != "yes":
            return "search not exact"
        if len(witness) != alpha:
            return f"|witness| {len(witness)} != alpha {alpha}"
        adj = self.graph(op.graph)
        if not witness <= set(range(len(adj))) or not in_class(adj, witness, op.forest_class, op.k):
            return "witness not in class"
        mode = op.kind if op.kind in ("abc", "ab") else None
        if mode and not partition_ok(adj, witness, self.parts(op.partition), mode):
            return "witness breaks the partition rules"
        bound = self.bound(op.graph, op.bound_variant, op.k, op.partition)
        if alpha < bound:
            return f"alpha {alpha} below bound {bound}"
        if paired_size is not None and alpha < paired_size:
            return f"alpha {alpha} below constructed size {paired_size}"
        if len(adj) <= BRUTE_MAX_N:
            brute = self.brute(op.graph, op.forest_class, op.k, op.partition, mode)
            if alpha != brute:
                return f"alpha {alpha} != brute force {brute}"
        return None

    # -- harness ---------------------------------------------------------------

    def check_harness(self, op, out: str) -> Optional[str]:
        records = [ln.split()[1:] for ln in out.splitlines() if ln.startswith("record ")]
        summary = [ln for ln in out.splitlines() if ln.startswith("summary ")]
        if len(summary) != 1:
            return "no summary line"
        total = dict(kv.split("=", 1) for kv in summary[0].split()[1:])
        if total.get("fail") != "0" or int(total.get("records", -1)) != len(records):
            return f"harness summary {summary[0]!r}"
        if len(records) != op.expect_records:
            return f"{len(records)} records, suite defines {op.expect_records}"
        for rec in records:
            r = dict(kv.split("=", 1) for kv in rec)
            if r.get("status") != "pass":
                return f"record failed: {' '.join(rec)}"
            if "graphs" in r:
                n = int(r["instance"].split("n=")[1])
                if int(r["graphs"]) != 2 ** (n * (n - 1) // 2) or r["violations"] != "0":
                    return f"exhaustive record wrong: {' '.join(rec)}"
            if "bound" in r:
                got = int(r.get("alpha", r.get("size", -1)))
                if got < F(r["bound"]):
                    return f"record below its bound: {' '.join(rec)}"
        return None

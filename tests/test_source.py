"""Static checks on the library source."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "forestbound").glob("*.py"))


def self_calls(tree: ast.AST) -> list[str]:
    """Every function that calls itself by name, as `f(...)` or, in a method,
    as `self.f(...)` or `cls.f(...)`, with the line of the call."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            direct = isinstance(f, ast.Name) and f.id == fn.name
            method = (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            )
            if direct or method:
                found.append(f"{fn.name} at line {call.lineno}")
    return found


def test_detector_sees_direct_and_method_recursion():
    code = (
        "def f(n):\n    return f(n - 1)\n"
        "class C:\n    def g(self):\n        return self.g()\n"
        "def h(x):\n    return x.h()\n"
    )
    assert self_calls(ast.parse(code)) == ["f at line 2", "g at line 5"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    # the constructors and the oracle keep their work on explicit stacks, so
    # no call depth grows with the input
    assert self_calls(ast.parse(path.read_text(), str(path))) == []


def outside_imports(tree: ast.AST) -> list[str]:
    """Every imported module that is neither in the standard library nor in
    this package (a relative import or `forestbound...`)."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    allowed = sys.stdlib_module_names | {"forestbound"}
    return [name for name in names if name.partition(".")[0] not in allowed]


def test_detector_sees_third_party_imports():
    code = (
        "import os.path, numpy\nfrom networkx.algorithms import tree\n"
        "from . import graph\nfrom .errors import ParseError\nimport forestbound.cli\n"
        "from __future__ import annotations\n"
    )
    assert outside_imports(ast.parse(code)) == ["numpy", "networkx.algorithms"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_only(path):
    # the library has no runtime dependencies (pyproject.toml: dependencies = [])
    assert outside_imports(ast.parse(path.read_text(), str(path))) == []


def same_name_defaults(tree: ast.AST) -> list[str]:
    """Every parameter of a function or lambda whose default is the variable
    of the same name (`g=g`), with the line of the default."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        positional = a.posonlyargs + a.args
        pairs = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
        pairs += [(arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        for arg, default in pairs:
            if isinstance(default, ast.Name) and default.id == arg.arg:
                found.append(f"{arg.arg} at line {default.lineno}")
    return found


def test_detector_sees_same_name_defaults():
    code = (
        "def f(a, g=g, n=3, *, k=k, m=None):\n    return lambda h, x=x: h\n"
        "def h(a=b, b=a, *c, d=e):\n    pass\n"
    )
    assert same_name_defaults(ast.parse(code)) == ["g at line 1", "k at line 1", "x at line 2"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_default_binds_a_same_name_variable(path):
    # a harness job binds its inputs with `partial` when it is made, so no
    # default argument freezes a loop variable
    assert same_name_defaults(ast.parse(path.read_text(), str(path))) == []


def calls_to(tree: ast.AST, names: set[str]) -> list[str]:
    """Every call of one of `names`, as `name(...)` or `x.name(...)`, with
    the innermost function around it (`<lambda>`, or `<module>` outside
    any) and the line of the call, in line order."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        f = call.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name not in names:
            continue
        scope = parents.get(call)
        while scope is not None and not isinstance(
            scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            scope = parents.get(scope)
        where = "<module>" if scope is None else getattr(scope, "name", "<lambda>")
        found.append((call.lineno, f"{where} at line {call.lineno}"))
    return [text for _, text in sorted(found)]


def bound_miss_builders(tree: ast.AST) -> list[str]:
    """Every call that builds a BoundMiss, as `BoundMiss(...)` or `x.BoundMiss(...)`."""
    return calls_to(tree, {"BoundMiss"})


def graph_copies(tree: ast.AST) -> list[str]:
    """Every call that builds a graph, as `Graph(...)`, `x.Graph(...)`,
    `x.induced(...)` or `x.delete_vertices(...)`."""
    return calls_to(tree, {"Graph", "induced", "delete_vertices"})


def test_detector_sees_every_bound_miss_builder():
    code = (
        "raise BoundMiss('a')\n"
        "def f():\n    def g():\n        raise errors.BoundMiss('b')\n    raise BoundMiss('c')\n"
        "class C:\n    def m(self):\n        return lambda: BoundMiss('d')\n"
        "try:\n    pass\nexcept BoundMiss as exc:\n    BoundMissing(exc)\n"
    )
    assert bound_miss_builders(ast.parse(code)) == [
        "<module> at line 1", "g at line 4", "f at line 5", "<lambda> at line 8"
    ]


def test_construct_builds_bound_miss_only_in_settle_and_certify():
    # rules 2 and 6 check what they keep in `_settle`, every constructor its
    # certificate in `_certify`: no other place decides that a bound was missed
    path = next(p for p in SOURCES if p.name == "construct.py")
    builders = bound_miss_builders(ast.parse(path.read_text(), str(path)))
    assert {b.split(" at ")[0] for b in builders} == {"_settle", "_certify"}, builders


def test_detector_sees_every_graph_copy():
    code = (
        "def f(g):\n    h = Graph({})\n    return g.induced(h) | graph.Graph(h)\n"
        "class W:\n    def m(self, g):\n        return lambda s: g.delete_vertices(s)\n"
        "Graph.from_edges(3, [])\ng.adjacency()\nGraphs()\ninduced_copy(g)\n"
    )
    assert graph_copies(ast.parse(code)) == [
        "f at line 2", "f at line 3", "f at line 3", "<lambda> at line 6"
    ]


def test_construct_copies_a_graph_only_where_named():
    # the engine's rules read its one list of neighbor sets, and the unconstrained
    # constructors read the input's edge arrays: a graph is built only for rule 6's
    # residual (`_reduce`), S5's contracted cubic graph, and the residual that
    # `ReductionTrace.replay` re-derives; no constructor copies its input
    path = next(p for p in SOURCES if p.name == "construct.py")
    copies = graph_copies(ast.parse(path.read_text(), str(path)))
    allowed = {"_reduce", "_cubic_endgame", "replay"}
    assert copies and {c.split(" at ")[0] for c in copies} <= allowed, copies


def test_only_from_edges_and_the_readers_build_an_unchecked_graph():
    # `Graph._of` takes its edge arrays unchecked: `from_edges` and the two edge-list
    # readers check their input themselves, and every other graph, a derived one too,
    # is built by `Graph(adjacency)`, which checks it
    calls = [f"{path.name}: {call}" for path in SOURCES
             for call in calls_to(ast.parse(path.read_text(), str(path)), {"_of"})]
    assert {c.split(" at ")[0] for c in calls} == {
        "graph.py: from_edges", "graph.py: parse_edge_list", "graph.py: _parse_tokens"
    }, calls


def test_checker_builds_no_graph():
    # verify_certificate reads the set's neighbours off the graph it is given:
    # the checker's verdict passes through no induced copy or new Graph
    path = next(p for p in SOURCES if p.name == "check.py")
    assert graph_copies(ast.parse(path.read_text(), str(path))) == []


def test_checker_reads_a_graph_only_through_adjacency():
    # the checker reads a graph only through `adjacency`, `degrees` and `vertices`, the
    # constructors and the oracle through `position_sets` too, all of which read its edge
    # arrays: none calls `components`, one more adjacency map, `edges`, which sorts them,
    # or a per-vertex read, and the checker builds no neighbor sets by position
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in SOURCES if path.name in ("check.py", "construct.py", "exact.py")
    }
    reads = {name: calls_to(tree, {"neighbors", "degree", "components", "edges"})
             for name, tree in trees.items()}
    assert reads == {"check.py": [], "construct.py": [], "exact.py": []}
    by_position = {name: bool(calls_to(tree, {"position_sets"})) for name, tree in trees.items()}
    assert by_position == {"check.py": False, "construct.py": True, "exact.py": True}


def test_graph_stores_only_its_ids_and_edge_arrays():
    # a Graph is its sorted ids and two lists of edge positions, with no neighbor-set cache
    # beside them: `adjacency(S)` and `position_sets()` build neighbor sets on each call
    path = next(p for p in SOURCES if p.name == "graph.py")
    tree = ast.parse(path.read_text(), str(path))
    graph = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Graph")
    slots = [ast.literal_eval(n.value) for n in graph.body if isinstance(n, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in n.targets)]
    assert slots == [("_vertices", "_us", "_vs")]
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert not defined & {"neighbors", "degree", "_neighbor_sets"}, defined


def edge_array_reads(tree: ast.AST) -> list[str]:
    """Every name or attribute `_us`, `_vs` or `edge_arrays`, with its line, in line order."""
    names = {"_us", "_vs", "edge_arrays"}
    found = [
        (node.lineno, f"{name} at line {node.lineno}")
        for node in ast.walk(tree)
        if (name := getattr(node, "id", None) or getattr(node, "attr", None)) in names
    ]
    return [text for _, text in sorted(found)]


def test_detector_sees_every_edge_array_read():
    code = "us, vs = g.edge_arrays()\ndef f(g):\n    return g._us + g._vs\n_us = 1\ng.us\n"
    assert edge_array_reads(ast.parse(code)) == [
        "edge_arrays at line 1", "_us at line 3", "_vs at line 3", "_us at line 4"
    ]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "graph.py"], ids=lambda p: p.name)
def test_only_graph_reads_the_edge_arrays(path):
    # the edge-array layout is graph.py's alone: every other module reads a graph
    # through its methods (`position_sets()` for neighbor sets by position)
    assert edge_array_reads(ast.parse(path.read_text(), str(path))) == []


def unused_imports(tree: ast.AST) -> list[str]:
    """Every name that an import binds (`__future__` aside) and the module
    never reads, with the line of its import, in line order. A string
    constant equal to the name counts as a read: a table may name a
    function that is looked up by name."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        found += [(node.lineno, f"{n} at line {node.lineno}") for n in names if n not in read]
    return [text for _, text in sorted(found)]


def test_detector_sees_every_unused_import():
    code = (
        "import os, sys as system\nimport os.path\nfrom itertools import compress, chain\n"
        "from .graph import Graph as G, MAX_VERTICES\nfrom __future__ import annotations\n"
        "RULES = {'a': 'chain'}\ndef f(x: G) -> int:\n    compressed = 1\n    return os.sep\n"
    )
    assert unused_imports(ast.parse(code)) == [
        "system at line 1", "compress at line 3", "MAX_VERTICES at line 4"
    ]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_read(path):
    # a deleted use takes its import with it; __init__.py imports to re-export
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_forest_classes_are_defined_by_the_checker_alone():
    # the class rule and the label rules are written once, in check.py
    defined = [
        path.name for path in SOURCES for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef) and node.name == "ForestClass"
    ]
    assert defined == ["check.py"]


def chain_scans(tree: ast.Module) -> set[str]:
    """The scan names in the rows of the module's `_CHAINS` table."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_CHAINS" for t in node.targets
        ):
            return {
                c.value for row in node.value.values for c in ast.walk(row)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return set()


def chain_hand_offs(tree: ast.Module) -> list[str]:
    """Every reference that a scan named in the module's `_CHAINS` table
    makes to a scan of that table or to the walker `_walk`, as `self.name`
    or a bare name, with the line, in line order."""
    scans = chain_scans(tree)
    targets = scans | {"_walk"}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name not in scans:
            continue
        for ref in ast.walk(fn):
            if isinstance(ref, ast.Attribute) and isinstance(ref.value, ast.Name):
                name = ref.attr if ref.value.id == "self" else None
            else:
                name = ref.id if isinstance(ref, ast.Name) else None
            if name in targets:
                found.append((ref.lineno, f"{fn.name} -> {name} at line {ref.lineno}"))
    return [text for _, text in sorted(found)]


def orphan_scans(tree: ast.Module) -> list[str]:
    """Every method of the module's `_Search` class that takes (self, cand,
    start), as a scan does, is not the walker `_walk`, and is named by no row
    of `_CHAINS`, with its line."""
    named = chain_scans(tree) | {"_walk"}
    return [
        f"{fn.name} at line {fn.lineno}"
        for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "_Search"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name not in named
        and [a.arg for a in fn.args.args] == ["self", "cand", "start"]
    ]


def test_detector_sees_every_hand_off_between_chained_scans():
    code = (
        "_CHAINS = {'x': ('_a', '_b'), 'y': ('_c',)}\n"
        "class _Search:\n"
        "    def _a(self, c, s):\n        return self._b(c, s)\n"
        "    def _b(self, c, s):\n        return self._walk(c, s) or self._helper(c)\n"
        "    def _c(self, c, s):\n        scan = self._a\n        return _walk(c)\n"
        "    def _helper(self, c):\n        return self._a(c, 0)\n"
        "    def _walk(self, cand, start):\n        return self._a(cand, start)\n"
        "    def _orphan(self, cand, start):\n        return 0, 0\n"
        "    def _peel(self, cand):\n        return cand\n"
    )
    assert chain_scans(ast.parse(code)) == {"_a", "_b", "_c"}
    assert chain_hand_offs(ast.parse(code)) == [
        "_a -> _b at line 4", "_b -> _walk at line 6", "_c -> _a at line 8",
        "_c -> _walk at line 9",
    ]
    assert orphan_scans(ast.parse(code)) == ["_orphan at line 14"]


def test_oracle_scans_leave_their_order_to_the_chain_table():
    # each class's scan order lives in exact._CHAINS alone: no scan hands
    # off to another scan or to the walker, and no scan that the table no
    # longer names stays behind
    path = next(p for p in SOURCES if p.name == "exact.py")
    tree = ast.parse(path.read_text(), str(path))
    assert chain_scans(tree) == {"_degree_scan", "_ab_violation", "_spine_scan", "_shortest_cycle"}
    assert chain_hand_offs(tree) == []
    assert orphan_scans(tree) == []


def package_imports(tree: ast.AST) -> list[str]:
    """Every module of this package that the code imports, by its name in the
    package (`from .m import x`, `from . import m`, `import forestbound.m`,
    `from forestbound import m`); the package itself is `forestbound`, in
    line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names if a.name.partition(".")[0] == "forestbound"]
        elif not isinstance(node, ast.ImportFrom):
            continue
        elif node.module in (None, "forestbound"):  # `from . import m`, `from forestbound import m`
            mods = [a.name for a in node.names]
        elif node.level or node.module.partition(".")[0] == "forestbound":
            mods = [node.module]
        else:
            continue
        found += [(node.lineno, m.removeprefix("forestbound.")) for m in mods]
    return [m for _, m in sorted(found, key=lambda item: item[0])]


def test_detector_sees_every_package_import():
    code = (
        "import os, forestbound.cli\nfrom collections import Counter\n"
        "from . import graph, construct\nfrom .exact import alpha_exact\n"
        "from forestbound.weights import rat_text\nfrom forestbound import harness\n"
        "import forestbound\nfrom __future__ import annotations\n"
    )
    assert package_imports(ast.parse(code)) == [
        "cli", "graph", "construct", "exact", "weights", "harness", "forestbound"
    ]


def test_checker_imports_only_the_modules_it_needs():
    # what a user has to trust is check.py and these four, never the
    # constructors or the oracle whose output it checks
    path = next(p for p in SOURCES if p.name == "check.py")
    mods = package_imports(ast.parse(path.read_text(), str(path)))
    assert mods and set(mods) <= {"errors", "graph", "partition", "weights"}, mods


def trusted_base(name: str) -> dict[str, int]:
    """The line count of the package module `name` and of every package module it imports,
    directly or not, by module name (the package itself is `forestbound`)."""
    paths = {p.stem: p for p in SOURCES} | {"forestbound": SOURCES[0].with_name("__init__.py")}
    lines, todo = {}, [name]
    while todo:
        mod = todo.pop()
        if mod not in lines:
            text = paths[mod].read_text()
            lines[mod] = len(text.splitlines())
            todo += package_imports(ast.parse(text))
    return lines


TRUSTED_BASE_LINES = 1025  # the ceiling on the trusted base; 1 045 before the weight table


def test_trusted_base_line_count():
    # what a user has to trust to believe a certificate is check.py and every package module it
    # imports: a change that grows it raises the ceiling above, so the growth shows in its diff
    base = trusted_base("check")
    assert set(base) == {"check", "errors", "graph", "partition", "weights"}
    assert sum(base.values()) <= TRUSTED_BASE_LINES, base


def raised_names(tree: ast.AST) -> set[str]:
    """The name of everything a `raise` statement raises, as `X`, `X(...)`,
    `m.X` or `m.X(...)`; a bare `raise` names nothing."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_detector_sees_every_raised_name():
    code = (
        "def f(x):\n    if x:\n        raise A('a')\n    raise errors.B from None\n"
        "try:\n    f(1)\nexcept C as exc:\n    D(exc)\n    raise\n"
        "raise E\nraise exc\n"
    )
    assert raised_names(ast.parse(code)) == {"A", "B", "E", "exc"}


def test_every_error_class_is_raised():
    # a refusal that goes takes its exception class with it: errors.py
    # declares no class that the library never raises
    path = next(p for p in SOURCES if p.name == "errors.py")
    declared = [n.name for n in ast.parse(path.read_text()).body if isinstance(n, ast.ClassDef)]
    raised = set().union(*(raised_names(ast.parse(p.read_text(), str(p))) for p in SOURCES))
    assert declared and [name for name in declared if name not in raised] == []


def foreign_private_reads(tree: ast.AST) -> list[str]:
    """Every read `x._name` (not a dunder) of a name that the module does not
    define itself, as a function, class, variable, import or stored
    attribute, with the line, in line order."""
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            defined.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(a.asname or a.name for a in node.names)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        name = node.attr
        dunder = name.startswith("__") and name.endswith("__")
        if name.startswith("_") and not dunder and name not in defined:
            found.append((node.lineno, f"{name} at line {node.lineno}"))
    return [text for _, text in sorted(found)]


def test_detector_sees_foreign_private_reads():
    code = (
        "from .graph import _own\nimport m as _alias\n"
        "class C:\n    def _m(self):\n        self._x = 1\n        return self._x + self._m()\n"
        "def f(g):\n    return g._hidden(g.__dict__) + g._own + _alias._y\n"
        "_v = 2\nz = m._v + m._w\nz.__class__\n"
    )
    assert foreign_private_reads(ast.parse(code)) == [
        "_hidden at line 8", "_y at line 8", "_w at line 10"
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_name(path):
    # a name a module keeps private is read by that module alone
    assert foreign_private_reads(ast.parse(path.read_text(), str(path))) == []

"""Hygiene of the package's modules: every imported name is used, no
private name crosses a module boundary, every import sits at module level,
every import is of the standard library or the package itself, and every
function is referenced somewhere; every dataclass is frozen; every
attribute a class stores is read; only `graphs` and `oracles` store
`Graph._apex` and `Graph._grown`, and only `oracles` reads them; the
package's __all__ is exactly what its __init__ imports; and every Graph,
however it is made, has every slot set."""

import ast
import sys
from pathlib import Path

import pytest

import torlink
from torlink import Graph, canonical_graph, complete_graph, decode_graph6, graphs

PACKAGE = Path(__file__).parent.parent / "src" / "torlink"
TESTS = Path(__file__).parent
each_module = pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)


@each_module
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported
    unused = [
        f"{path.name}:{line}: {name}"
        for name, line in imported.items()
        if name not in used
    ]
    assert not unused, f"imported but never used: {unused}"


@each_module
def test_no_private_names_imported_from_the_package(path):
    tree = ast.parse(path.read_text())
    private = [
        f"{path.name}:{node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "torlink")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"private names imported from another module: {private}"


@each_module
def test_no_imports_inside_functions(path):
    tree = ast.parse(path.read_text())
    nested = sorted(
        {
            f"{path.name}:{node.lineno}"
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )
    assert not nested, f"imports inside functions: {nested}"


def foreign_imports(source: str) -> list[str]:
    """`line: module` for each module imported by the source that is neither
    in the standard library nor torlink; relative imports are torlink."""
    allowed = sys.stdlib_module_names | {"torlink"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [
            f"{node.lineno}: {m}" for m in modules if m.split(".")[0] not in allowed
        ]
    return found


@each_module
def test_runtime_imports_are_stdlib_only(path):
    foreign = foreign_imports(path.read_text())
    assert not foreign, f"{path.name} imports outside the standard library: {foreign}"


def test_foreign_import_check_catches_a_planted_import():
    source = (
        "from __future__ import annotations\n"
        "import itertools, networkx as nx\n"
        "from networkx.algorithms import planarity\n"
        "from .graphs import Graph\n"
        "from torlink.errors import ParseError\n"
    )
    assert foreign_imports(source) == ["2: networkx", "3: networkx.algorithms"]


def test_every_function_is_referenced():
    """Every non-dunder function or method defined in the package is named
    in the package or the tests: as a name, an attribute, an import or an
    __all__ entry. A definition alone does not count."""
    package = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    tests = [ast.parse(p.read_text()) for p in sorted(TESTS.glob("*.py"))]
    referenced = set()
    for tree in [*package.values(), *tests]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                referenced |= {a.name.split(".")[-1] for a in node.names}
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                referenced |= set(ast.literal_eval(node.value))
    unreferenced = [
        f"{path.name}:{node.lineno}: {node.name}"
        for path, tree in package.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced
    ]
    assert not unreferenced, f"functions never referenced: {unreferenced}"


def is_dataclass_decorator(dec: ast.expr) -> bool:
    """True for `dataclass` or `dataclasses.dataclass`, called or not."""
    target = dec.func if isinstance(dec, ast.Call) else dec
    return (getattr(target, "id", None) or getattr(target, "attr", None)) == "dataclass"


def unfrozen_dataclasses(source: str) -> list[str]:
    """`line: class` for each class of the source decorated with
    `dataclass` or `dataclasses.dataclass` without `frozen=True`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            if not is_dataclass_decorator(dec):
                continue
            call = dec if isinstance(dec, ast.Call) else None
            frozen = call is not None and any(
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in call.keywords
            )
            if not frozen:
                found.append(f"{node.lineno}: {node.name}")
    return found


@each_module
def test_every_dataclass_is_frozen(path):
    # A derived field or memo is filled from the other fields once, so none
    # of them may be reassigned afterwards.
    unfrozen = unfrozen_dataclasses(path.read_text())
    assert not unfrozen, f"{path.name} has dataclasses that are not frozen: {unfrozen}"


def test_frozen_dataclass_check_catches_planted_classes():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True, eq=False)\n"
        "class A: pass\n"
        "@dataclass\n"
        "class B: pass\n"
        "@dataclass(eq=False)\n"
        "class C: pass\n"
        "@dataclass(frozen=False)\n"
        "class D: pass\n"
        "@dataclasses.dataclass\n"
        "class E: pass\n"
    )
    assert unfrozen_dataclasses(source) == ["5: B", "7: C", "9: D", "11: E"]


def unread_state(sources: dict[str, str]) -> list[str]:
    """`file:line: Class.name` for each attribute that a class of the
    sources stores and that no source reads as `.name`. A class stores a
    dataclass field, an attribute assigned in its body (`self.x = ...`,
    `g.x = ...`) and the name given to `object.__setattr__(obj, "x", ...)`."""
    stored = set()
    read = set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            if not isinstance(node, ast.ClassDef):
                continue
            if any(map(is_dataclass_decorator, node.decorator_list)):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        stored.add((file, stmt.lineno, node.name, stmt.target.id))
            for inner in ast.walk(node):
                if isinstance(inner, ast.Attribute) and isinstance(
                    inner.ctx, ast.Store
                ):
                    stored.add((file, inner.lineno, node.name, inner.attr))
                elif (
                    isinstance(inner, ast.Call)
                    and getattr(inner.func, "attr", None) == "__setattr__"
                    and len(inner.args) >= 2
                    and isinstance(inner.args[1], ast.Constant)
                ):
                    stored.add((file, inner.lineno, node.name, inner.args[1].value))
    return [
        f"{file}:{line}: {cls}.{name}"
        for file, line, cls, name in sorted(stored)
        if name not in read
    ]


def test_every_stored_attribute_is_read():
    # State that nothing reads is dead weight on every instance and one
    # more thing a constructor must keep right.
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    unread = unread_state(sources)
    assert not unread, f"attributes stored but never read: {unread}"


def test_unread_state_check_catches_planted_classes():
    source = (
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    kept: int\n"
        "    dropped: int = field(default=0)\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'memo', {})\n"
        "class B:\n"
        "    def __init__(self, a):\n"
        "        self.used = a.kept\n"
        "        self.unused = a.used\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        g = object.__new__(cls)\n"
        "        g.slot = None\n"
        "        return g\n"
    )
    assert unread_state({"m.py": source}) == [
        "m.py:5: A.dropped",
        "m.py:7: A.memo",
        "m.py:11: B.unused",
        "m.py:15: B.slot",
    ]


def _named(node: ast.AST, call: tuple[str, ...], attrs: tuple[str, ...]) -> bool:
    """Whether node calls one of `call` (a plain name or a method) with a
    constant attribute name from attrs as its second argument."""
    return (
        isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in call
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value in attrs
    )


def _places(sources: dict[str, str], hit) -> list[str]:
    """`file:line`, in order, for each node of the sources that hit accepts."""
    found = [
        (file, node.lineno)
        for file, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if hit(node)
    ]
    return [f"{file}:{line}" for file, line in sorted(found)]


def slot_stores(sources: dict[str, str], *attrs: str) -> list[str]:
    """The places of each store to an attribute named in attrs: an
    assignment, or `setattr` or `object.__setattr__` with that name."""
    return _places(sources, lambda node: (
        isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and node.attr in attrs
    ) or _named(node, ("setattr", "__setattr__"), attrs))


def slot_reads(sources: dict[str, str], *attrs: str) -> list[str]:
    """The places of each read of an attribute named in attrs: a load, an
    augmented assignment, or `getattr` with that name."""
    return _places(sources, lambda node: (
        isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr in attrs
    ) or (
        isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Attribute)
        and node.target.attr in attrs
    ) or _named(node, ("getattr",), attrs))


def package_sources() -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def files(found: list[str]) -> set[str]:
    return {place.split(":")[0] for place in found}


def test_one_owner_stores_the_grown_slot():
    # `oracles.carry_witness` owns the rule that fills a one-edge extension
    # from its parent's apex witness, and with it the encoding of
    # `Graph._grown`; `Graph._from_masks` only clears the slot.
    stores = slot_stores(package_sources(), "_grown")
    assert files(stores) == {"graphs.py", "oracles.py"}, stores


def test_grown_store_check_catches_planted_stores():
    source = (
        "if apex is not None and (apex < 0 or apex == u or apex == v):\n"
        "    child._apex = apex\n"
        "elif apex is not None:\n"
        "    child._grown = codes[u << 4 | v]\n"
        "w = child._grown >> 8\n"
        "setattr(child, '_grown', 0)\n"
        "object.__setattr__(child, '_grown', 0)\n"
        "child._grown |= 1\n"
    )
    assert slot_stores({"m.py": source}, "_grown") == [
        "m.py:4", "m.py:6", "m.py:7", "m.py:8"
    ]


def test_one_owner_holds_the_apex_witness():
    # `oracles` owns the apex witness: `is_apex` and `is_nil` store
    # `Graph._apex`, `carry_witness` fills it and `Graph._grown` on a
    # one-edge extension, and only `oracles` reads either. The census walk
    # in `search` treats its children as opaque. `Graph._from_masks`
    # clears both slots.
    sources = package_sources()
    stores = slot_stores(sources, "_apex")
    assert files(stores) == {"graphs.py", "oracles.py"}, stores
    reads = slot_reads(sources, "_apex", "_grown")
    assert files(reads) == {"oracles.py"}, reads


def test_witness_check_catches_planted_reads_and_stores():
    source = (
        "apex = g._apex\n"
        "child._apex = apex\n"
        "if m[0]._apex is not None:\n"
        "    w = child._grown >> 8\n"
        "setattr(child, '_apex', -1)\n"
        "object.__setattr__(child, '_apex', -1)\n"
        "w = getattr(child, '_grown')\n"
        "child._grown |= 1\n"
        "child._canon = g._plan\n"
    )
    assert slot_stores({"m.py": source}, "_apex") == ["m.py:2", "m.py:5", "m.py:6"]
    assert slot_reads({"m.py": source}, "_apex", "_grown") == [
        "m.py:1", "m.py:3", "m.py:4", "m.py:7", "m.py:8"
    ]


def test_all_lists_exactly_the_imported_names():
    # A name dropped from the imports but left in __all__ fails only on
    # `from torlink import *`.
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    exported = torlink.__all__
    assert exported == sorted(set(exported))
    assert set(exported) == imported
    assert all(hasattr(torlink, name) for name in exported)


def test_every_constructor_sets_every_graph_slot():
    # A slot that _from_masks forgets fails only when it is first read.
    g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)])
    made = {
        "Graph": g,
        "_from_masks": Graph._from_masks(g._adj),
        "add_edge": g.add_edge((2, 4)),
        "delete_edge": g.delete_edge((1, 2)),
        "contract_edge": g.contract_edge((1, 3)),
        "delete_vertex": g.delete_vertex(2),
        "relabel": g.relabel({1: 5, 2: 4, 3: 3, 4: 2, 5: 1}),
        "decode_graph6": decode_graph6("DqK"),
        "canonical_graph": canonical_graph(g),
        "complete_graph": complete_graph(4),
        "disjoint_union": graphs.disjoint_union(g, g),
        "petersen_graph": graphs.petersen_graph(),
    }
    unset = [
        f"{how}: {slot}"
        for how, h in made.items()
        for slot in Graph.__slots__
        if not hasattr(h, slot)
    ]
    assert not unset, f"slots left unset: {unset}"

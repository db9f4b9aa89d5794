"""Every definition in ``src/vkpatch`` has a caller, so dead API cannot return.

Each module-level function and class, and each method that is not a dunder,
must be referenced by name somewhere in ``src/vkpatch`` outside its own
definition and outside any other definition that is itself unreferenced; or
it must be listed below, as backing a paper statement under test or as pinned
by name in the benchmark tracer.  Anything else is dead: delete it, or move a
helper that only tests use into ``tests/catalog.py``.

Likewise every slot of a class that declares ``__slots__`` must be read as
an attribute somewhere in ``src/vkpatch`` or ``tests``; a slot only ever
written is dead.

Matching is by bare name, so a method shares its name with every attribute
of that name: the walk can miss dead code that shares a name with live code.
"""

from __future__ import annotations

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vkpatch"
TESTS = ROOT / "tests"
TRACER = ROOT / "perfbench" / "tracer.py"

# (qualified name, the test that exercises the paper statement it backs)
PAPER_BACKED = (
    ("series.pth_power_test", "test_series.py::test_pth_power_round_trip"),
    ("torsors.torsor_from_hom", "test_acceptance.py::test_criterion_5_dictionary_round_trip"),
    ("torsors.hom_from_torsor", "test_acceptance.py::test_criterion_5_dictionary_round_trip"),
    ("torsors.TwoFiberObject",
     "test_torsors.py::test_two_fiber_object_classes_match_the_fiber_product"),
    ("torsors.TwoFiberObject.build",
     "test_torsors.py::test_two_fiber_object_classes_match_the_fiber_product"),
    ("torsors.TwoFiberObject.class_key",
     "test_torsors.py::test_two_fiber_object_classes_match_the_fiber_product"),
    ("torsors.solve_patching", "test_torsors.py::test_solve_patching_solution_is_unique"),
)

# (qualified name, its (module, qualified name) entry in the tracer's tables)
PERFBENCH_PINNED = (
    ("graphs.ReductionGraph.edge", ("graphs", "ReductionGraph.edge")),
)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }


def _definitions(modules: dict[str, ast.Module]) -> dict[str, ast.AST]:
    """Qualified name -> node of every checked definition."""
    defs: dict[str, ast.AST] = {}
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs[f"{module}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not _is_dunder(sub.name):
                        defs[f"{module}.{node.name}.{sub.name}"] = sub
    return defs


def _references(
    modules: dict[str, ast.Module], defs: dict[str, ast.AST]
) -> list[tuple[str, frozenset[str]]]:
    """Every name use in the package, with the checked definitions enclosing it."""
    node_names = {id(node): q for q, node in defs.items()}
    refs: list[tuple[str, frozenset[str]]] = []

    def walk(node: ast.AST, enclosing: frozenset[str]) -> None:
        if id(node) in node_names:
            enclosing = enclosing | {node_names[id(node)]}
        if isinstance(node, ast.Name):
            refs.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, enclosing))
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    for tree in modules.values():
        walk(tree, frozenset())
    return refs


def unreferenced(allowed: set[str]) -> list[str]:
    """Definitions not in ``allowed`` that only dead code or nothing refers to,
    found by pruning to a fixed point."""
    modules = _modules()
    defs = _definitions(modules)
    uses = collections.defaultdict(set)
    for name, enclosing in _references(modules, defs):
        uses[name].add(enclosing)
    dead: set[str] = set()
    while True:
        newly = {
            q for q, node in defs.items()
            if q not in dead and q not in allowed
            and not any(q not in enc and not enc & dead for enc in uses[node.name])
        }
        if not newly:
            return sorted(dead)
        dead |= newly


def _tracer_entries() -> set[tuple[str, str]]:
    entries = set()
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            for item in node.value.elts:
                if isinstance(item, ast.Tuple) and len(item.elts) >= 2:
                    first, second = item.elts[:2]
                    if isinstance(first, ast.Constant) and isinstance(second, ast.Constant):
                        entries.add((first.value, second.value))
    return entries


def test_every_definition_is_reached_or_listed():
    allowed = {q for q, _ in PAPER_BACKED} | {q for q, _ in PERFBENCH_PINNED}
    dead = unreferenced(allowed)
    assert not dead, f"definitions nothing in src/vkpatch reaches: {dead}"


def test_listed_names_exist_and_name_their_reason():
    defs = _definitions(_modules())
    for qualname, test in PAPER_BACKED:
        assert qualname in defs, qualname
        filename, _, function = test.partition("::")
        tree = ast.parse((ROOT / "tests" / filename).read_text(encoding="utf-8"))
        assert any(
            isinstance(node, ast.FunctionDef) and node.name == function for node in tree.body
        ), test
    tracer = _tracer_entries()
    for qualname, entry in PERFBENCH_PINNED:
        assert qualname in defs, qualname
        assert entry in tracer, entry


def _slots(node: ast.ClassDef) -> list[str]:
    """The names a class body assigns to ``__slots__``."""
    for item in node.body:
        if (
            isinstance(item, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets)
        ):
            return [elt.value for elt in item.value.elts]
    return []


def unread_slots() -> list[str]:
    """Slots of ``src/vkpatch`` classes that nothing reads as an attribute."""
    modules = _modules()
    slots = [
        f"{module}.{node.name}.{slot}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for slot in _slots(node)
    ]
    trees = list(modules.values()) + [
        ast.parse(path.read_text(encoding="utf-8")) for path in sorted(TESTS.glob("*.py"))
    ]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [q for q in slots if q.rsplit(".", 1)[1] not in read]


def test_every_slot_is_read():
    unread = unread_slots()
    assert not unread, f"slots nothing reads: {unread}"

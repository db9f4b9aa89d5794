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

A module-level definition is reached by any use of its name; a method only
by an attribute access of its name, so a local variable that happens to
share a method's name does not keep the method alive.  Matching is still by
name, so a method shares it with every attribute of that name: the walk can
miss dead code that shares a name with live code.
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
    ("torsors.MultipointedTorsor.canonical_key",
     "test_torsors.py::test_two_fiber_object_classes_match_the_fiber_product"),
    ("torsors.solve_patching", "test_torsors.py::test_solve_patching_solution_is_unique"),
)

# (qualified name, its (module, qualified name) entry in the tracer's tables)
PERFBENCH_PINNED = (
    ("graphs.ReductionGraph.edge", ("graphs", "ReductionGraph.edge")),
)

# (qualified name, why it may build a validating GroupHom or a HomFamily);
# everywhere else the runtime works on index tables
VALIDATED_BUILDERS = (
    ("inputs._hom_from_labels", "input boundary: an edge map read from the document"),
    ("gog.enumerate_pi1_homs",
     "perfbench/tracer.py counts HomFamily.__post_init__ under gog-homs"),
    ("torsors.MultipointedTorsor.structure_map", "paper-backed torsor model: a torsor's hom"),
    ("torsors.solve_patching", "paper-backed torsor model: the glued family, induced homs"),
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
) -> list[tuple[str, bool, frozenset[str]]]:
    """Every name use in the package, whether it is an attribute access, and
    the checked definitions enclosing it."""
    node_names = {id(node): q for q, node in defs.items()}
    refs: list[tuple[str, bool, frozenset[str]]] = []

    def walk(node: ast.AST, enclosing: frozenset[str]) -> None:
        if id(node) in node_names:
            enclosing = enclosing | {node_names[id(node)]}
        if isinstance(node, ast.Name):
            refs.append((node.id, False, enclosing))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, True, enclosing))
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
    name_uses = collections.defaultdict(set)
    attribute_uses = collections.defaultdict(set)
    for name, is_attribute, enclosing in _references(modules, defs):
        name_uses[name].add(enclosing)
        if is_attribute:
            attribute_uses[name].add(enclosing)

    def used(q: str, name: str, dead: set[str]) -> bool:
        # qualified names of methods have two dots
        uses = attribute_uses if q.count(".") == 2 else name_uses
        return any(q not in enc and not enc & dead for enc in uses[name])

    dead: set[str] = set()
    while True:
        newly = {
            q for q, node in defs.items()
            if q not in dead and q not in allowed and not used(q, node.name, dead)
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
    allowed = {q for q, _ in PAPER_BACKED} | {q for q, _ in PERFBENCH_PINNED}
    for qualname, entry in PERFBENCH_PINNED:
        assert qualname in defs, qualname
        assert entry in tracer, entry
        # listed only while nothing else in src reaches it
        assert qualname in unreferenced(allowed - {qualname}), qualname


def _assigns_slots(item: ast.AST) -> bool:
    return isinstance(item, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
    )


def _slots(node: ast.ClassDef) -> list[str]:
    """The names a class body assigns to ``__slots__``."""
    for item in node.body:
        if _assigns_slots(item):
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


def _is_docstring(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _stores_its_parameters(init: ast.FunctionDef) -> bool:
    """Whether every statement of ``init`` is ``self.<name> = <parameter>``."""
    args = init.args
    params = {a.arg for a in args.posonlyargs + args.args[1:] + args.kwonlyargs}
    stmts = [s for s in init.body if not _is_docstring(s)]
    return all(
        isinstance(s, ast.Assign)
        and len(s.targets) == 1
        and isinstance(s.targets[0], ast.Attribute)
        and isinstance(s.targets[0].value, ast.Name)
        and s.targets[0].value.id == "self"
        and isinstance(s.value, ast.Name)
        and s.value.id in params
        for s in stmts
    )


def pure_records() -> list[str]:
    """Classes of ``src/vkpatch`` whose whole body, a docstring and
    ``__slots__`` aside, is an ``__init__`` that only stores its parameters."""
    out = []
    for module, tree in _modules().items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            body = [item for item in node.body if not (_is_docstring(item) or _assigns_slots(item))]
            if (
                len(body) == 1
                and isinstance(body[0], ast.FunctionDef)
                and body[0].name == "__init__"
                and _stores_its_parameters(body[0])
            ):
                out.append(f"{module}.{node.name}")
    return out


def test_no_class_only_stores_its_parameters():
    # a record that only copies its arguments is a tuple with extra code:
    # return the tuple, or give the class the behaviour that needs it
    records = pure_records()
    assert not records, f"classes that only store their parameters: {records}"


def _builds_validated(call: ast.Call) -> bool:
    """``GroupHom(...)`` or ``HomFamily(...)``."""
    return isinstance(call.func, ast.Name) and call.func.id in ("GroupHom", "HomFamily")


def validated_builds() -> set[str]:
    """The checked definitions of ``src/vkpatch`` (or modules, for
    module-level code) that build a validating GroupHom or a HomFamily."""
    modules = _modules()
    defs = _definitions(modules)
    enclosing = {id(node): q for q, node in defs.items()}
    found = set()

    def walk(node: ast.AST, where: str) -> None:
        where = enclosing.get(id(node), where)
        if isinstance(node, ast.Call) and _builds_validated(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    for module, tree in modules.items():
        walk(tree, module)
    return found


def test_validated_objects_are_built_only_where_listed():
    builders = validated_builds()
    listed = {q for q, _ in VALIDATED_BUILDERS}
    assert builders <= listed, f"validated objects built outside the list: {builders - listed}"
    # a listed site that no longer builds one comes off the list
    assert listed <= builders, f"listed sites that build nothing: {listed - builders}"


def cap_checks_outside_the_helper() -> list[str]:
    """Each source line of ``src/vkpatch`` that reads a module-level ``*_CAP``
    other than as the ``cap`` of a ``refuse_past`` call, or that raises
    ``ScaleError`` anywhere but in ``refuse_past``, as ``module:line: text``."""
    modules = _modules()
    caps = {
        target.id
        for tree in modules.values()
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_CAP")
    }
    found = []
    for module, tree in modules.items():
        lines = (SRC / f"{module}.py").read_text(encoding="utf-8").splitlines()
        as_cap = set()
        in_helper = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "refuse_past":
                as_cap.update(id(a) for a in node.args[2:3])
                as_cap.update(id(k.value) for k in node.keywords if k.arg == "cap")
            if isinstance(node, ast.FunctionDef) and node.name == "refuse_past":
                in_helper.update(id(sub) for sub in ast.walk(node))
        for node in ast.walk(tree):
            read = (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in caps
                or isinstance(node, ast.Attribute) and node.attr in caps
            )
            raised = (
                isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ScaleError"
                and id(node) not in in_helper
            )
            if read and id(node) not in as_cap or raised:
                found.append(f"{module}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    return sorted(set(found))


def test_every_cap_is_checked_by_the_one_helper():
    outside = cap_checks_outside_the_helper()
    assert not outside, "caps checked outside graphs.refuse_past:\n" + "\n".join(outside)


def float_calls() -> list[str]:
    """Each ``float(...)`` call in ``src/vkpatch``, as ``module:line``."""
    return [
        f"{module}:{node.lineno}"
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
    ]


def test_no_float_is_made_in_src():
    # every verdict is exact arithmetic; a float literal that only times a
    # command is not a call
    calls = float_calls()
    assert not calls, f"float calls in src/vkpatch: {calls}"


def determinism_breaches() -> list[str]:
    """Each line of ``src/vkpatch`` that could make a report depend on the
    run, as ``module:line: what``: an import of ``random``; an import of
    ``time`` outside ``cli``, which times each command for the ``timing``
    lines the digest leaves out; a call of ``hash`` outside a ``__hash__``,
    since a string's hash changes with ``PYTHONHASHSEED``; and any call of
    ``id``, an address."""
    found = []
    for module, tree in _modules().items():
        in_hash = {
            id(sub)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "__hash__"
            for sub in ast.walk(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported = [node.module.partition(".")[0]]
            else:
                imported = []
            for name in imported:
                if name == "random" or name == "time" and module != "cli":
                    found.append(f"{module}:{node.lineno}: imports {name}")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
                node.func.id == "id" or node.func.id == "hash" and id(node) not in in_hash
            ):
                found.append(f"{module}:{node.lineno}: calls {node.func.id}")
    return sorted(found)


def test_reports_depend_on_no_clock_seed_or_address():
    breaches = determinism_breaches()
    assert not breaches, "run-dependent calls in src/vkpatch:\n" + "\n".join(breaches)


# each exception class that ``src/vkpatch`` raises, with the reason it may
RAISED = {
    "InputError": "a document or command line the schema refuses; cli.run exits 3",
    "InvalidGraphError": "a reduction graph that fails validation; cli.run exits 3",
    "ScaleError": "a size or a search past its cap, raised by refuse_past; cli.run exits 3",
    "EdgeMapError": "an edge map that does not fit its branch; the input boundary exits 3",
    "PatchingError": "a patching problem that does not glue, raised by the library's "
                     "check_compatibility; no command builds one",
    "GroupAxiomError": "a group table that breaks an axiom; the input boundary exits 3",
    "PrecisionError": "an exact comparison asked of a truncated series; its one caller, the AS "
                      "oracle's witness check, compares exact ones",
    "ValueError": "a value a constructor or a reader refuses; the input boundary exits 3",
    "KeyError": "a label or edge name that is not declared; the input boundary exits 3",
    "ZeroDivisionError": "division by zero in a field; the input boundary exits 3",
    "AssertionError": "a verifier's self-check of its own result, listed in SELF_CHECKS; "
                      "cli.run exits 4",
}

# the AssertionError self-checks, as (module, message), one per raise; a
# failing one is a fault of src, not of the input
SELF_CHECKS = (
    ("descent", "oracle produced an invalid Artin-Schreier witness"),
    ("descent", "search produced an invalid Kummer relation"),
    ("gog", "Burnside's sum is not a multiple of the group order"),
    ("torsors", "reconstruction failed to pin the base marking"),
    ("torsors", "reconstruction failed to trivialize a tree letter"),
    ("torsors", "inverse natural map failed the round trip"),
    ("torsors", "inverse natural map failed the round trip"),
    ("torsors", "induced datum at {v} fails to match the problem"),
    ("torsors", "fiber enumeration produced duplicates"),
    ("torsors", "fiber count is not a multiple of the marking gauge"),
)


def _message(node: ast.AST) -> str:
    """A raise's first argument as its source shows it, an f-string's
    fields in braces."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(_message(part) if isinstance(part, ast.Constant)
                       else "{" + ast.unparse(part.value) + "}" for part in node.values)
    return ast.unparse(node)


def raises() -> tuple[set[str], list[tuple[str, str]]]:
    """The names that the ``raise`` statements of ``src/vkpatch`` raise (a
    bare ``raise`` as ``raise``), and each ``AssertionError`` as (module,
    message)."""
    names, checks = set(), []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = "raise" if exc is None else ast.unparse(exc)
            names.add(name)
            if name == "AssertionError":
                checks.append((module, _message(node.exc.args[0]) if node.exc.args else ""))
    return names, checks


def test_every_raise_is_of_a_listed_kind():
    names, checks = raises()
    assert names <= RAISED.keys(), f"raised but not listed: {sorted(names - RAISED.keys())}"
    assert names >= RAISED.keys(), f"listed but not raised: {sorted(RAISED.keys() - names)}"
    assert sorted(checks) == sorted(SELF_CHECKS)


def graph_vertex_reads() -> list[str]:
    """Each read of ``<x>.graph.vertices``, the label order, in the modules
    that index a graph of groups by position, outside
    ``GraphOfFiniteGroups.__init__``, which numbers the positions, as
    ``module:line: text``."""
    found = []
    for module in ("gog", "torsors", "cli"):
        text = (SRC / f"{module}.py").read_text(encoding="utf-8")
        tree = ast.parse(text)
        inside = {
            id(sub)
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "GraphOfFiniteGroups"
            for init in node.body
            if isinstance(init, ast.FunctionDef) and init.name == "__init__"
            for sub in ast.walk(init)
        }
        lines = text.splitlines()
        found += [
            f"{module}:{node.lineno}: {lines[node.lineno - 1].strip()}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "vertices"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "graph"
            and id(node) not in inside
        ]
    return found


def test_positions_are_read_in_the_graph_of_groups_order():
    # position tables are numbered by GraphOfFiniteGroups.vertices, the
    # maximal tree's search; zipping them with the label order misreads them
    reads = graph_vertex_reads()
    assert not reads, "label-order reads beside position tables:\n" + "\n".join(reads)

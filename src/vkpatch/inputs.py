"""Parsing and validation of the JSON workbench input document.

Sections: ``graph`` (vertices and edges, optionally carrying group names),
``groups`` (named group descriptors), ``edge_maps`` (per-branch injection
tables), ``descent`` (Artin-Schreier / Kummer instance specs), ``options``
(bounds, test group, local indices).  Unknown keys warn;
dangling references fail with the offending path; bad tables fail with the
violating triple.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from contextlib import contextmanager

from .descent import ASInstance, KummerInstance
from .gog import EdgeMapError, GraphOfFiniteGroups
from .graphs import ReductionGraph, read_int, read_list, refuse_past
from .groups import FiniteGroup, GroupAxiomError, GroupHom, cyclic, make_group

SCHEMA_VERSION = 1

# index-bound refuses a product of local indices past this, the largest
# integer of the 4,300 digits that Python converts to text
_INDEX_PRODUCT_CAP = 10**4300 - 1

_TOP_KEYS = {"version", "graph", "groups", "edge_maps", "descent", "options"}
_GRAPH_KEYS = {"points", "components", "edges"}
_OPTION_KEYS = {
    "test_group",
    "degree",
    "support_bound",
    "all_trees",
    "local_indices",
    "search_bound",
}


class InputError(ValueError):
    """Schema or reference errors, with one message per problem."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class WorkbenchInput:
    __slots__ = (
        "graph", "vertex_group_names", "edge_group_names", "groups", "edge_map_tables",
        "descent", "options", "warnings",
    )

    def __init__(
        self,
        graph: ReductionGraph | None,
        vertex_group_names: dict[str, str],
        edge_group_names: dict[str, str],
        groups: dict[str, FiniteGroup],
        edge_map_tables: dict[str, dict],
        descent: dict,
        options: dict,
        warnings: list[str],
    ):
        self.graph = graph
        self.vertex_group_names = vertex_group_names
        self.edge_group_names = edge_group_names
        self.groups = groups
        self.edge_map_tables = edge_map_tables
        self.descent = descent
        self.options = options
        self.warnings = warnings

    def require_graph(self) -> ReductionGraph:
        if self.graph is None:
            raise InputError(["this command needs a 'graph' section"])
        return self.graph

    def build_gog(self) -> GraphOfFiniteGroups:
        graph = self.require_graph()
        graph.require_valid()
        trivial = cyclic(1, name="1")
        vertex_groups = {}
        for v in graph.vertices:
            name = self.vertex_group_names.get(v)
            vertex_groups[v] = self.groups[name] if name else trivial
        edge_groups = {}
        edge_maps = {}
        errors = []
        for e in graph.edge_names():
            name = self.edge_group_names.get(e)
            eg = self.groups[name] if name else trivial
            edge_groups[e] = eg
            p, u = graph.point_end(e), graph.component_end(e)
            if eg.order == 1:
                edge_maps[e] = {
                    "to_point": GroupHom.trivial(eg, vertex_groups[p]),
                    "to_component": GroupHom.trivial(eg, vertex_groups[u]),
                }
                continue
            table = self.edge_map_tables.get(e)
            if not table:  # parse_input reads an empty or null map as absent
                errors.append(f"edge_maps.{e}: required for nontrivial edge group")
                continue
            try:
                edge_maps[e] = {
                    "to_point": _hom_from_labels(eg, vertex_groups[p], table["to_point"]),
                    "to_component": _hom_from_labels(
                        eg, vertex_groups[u], table["to_component"]
                    ),
                }
            except KeyError as exc:
                errors.append(f"edge_maps.{e}: missing field {exc.args[0]!r}")
            except ValueError as exc:
                errors.append(f"edge_maps.{e}: {exc}")
        if errors:
            raise InputError(errors)
        try:
            return GraphOfFiniteGroups(graph, vertex_groups, edge_groups, edge_maps)
        except EdgeMapError as exc:
            raise InputError([f"edge_maps.{exc.branch}: {exc}"]) from exc

    def test_group(self, flag_value: str | None) -> FiniteGroup:
        name = flag_value or self.options.get("test_group")
        if not name:
            raise InputError(["no test group: pass --group or set options.test_group"])
        if name not in self.groups:
            raise InputError([f"test group {name!r} is not defined in 'groups'"])
        return self.groups[name]

    def artin_schreier_instance(self) -> ASInstance:
        spec = self.descent.get("artin_schreier")
        if spec is None:
            raise InputError(["this command needs descent.artin_schreier"])
        with _spec_errors("descent.artin_schreier"):
            p = read_int(spec["p"], "p")
            rational = spec.get("rational", False)
            if not isinstance(rational, bool):
                raise ValueError(f"rational: not a boolean: {rational!r}")
            if rational:
                return ASInstance.rational(p, read_int(spec.get("e", 1), "e"), spec["alpha"])
            k1_degree = _positive(spec, "k1_degree", 1)
            k2_degree = read_int(spec["k2_degree"], "k2_degree")
            return ASInstance.finite(p, k1_degree, k2_degree, spec["alpha"])

    def kummer_instance(self) -> KummerInstance:
        spec = self.descent.get("kummer")
        if spec is None:
            raise InputError(["this command needs descent.kummer"])
        with _spec_errors("descent.kummer"):
            p = read_int(spec["p"], "p")
            truncation = _positive(spec, "truncation", 200)
            model = spec.get("model", "transcendental")
            if model == "base-ring":
                coeffs = read_list(spec.get("gbar_coeffs", [1]), "gbar_coeffs")
                return KummerInstance.base_ring_model(p, coeffs, truncation=truncation)
            if model != "transcendental":
                raise ValueError(
                    f"unknown model {model!r}; choose 'transcendental' or 'base-ring'"
                )
            return KummerInstance.transcendental_model(
                p,
                q_exp=read_int(spec.get("q_exp", 1), "q_exp"),
                terms=_positive(spec, "terms", 4),
                truncation=truncation,
            )

    def local_indices(self) -> dict[str, int]:
        """``options.local_indices``: a positive integer per label."""
        indices = self.options.get("local_indices")
        if not indices:
            raise InputError(["index-bound needs options.local_indices"])
        if not isinstance(indices, dict):
            raise InputError(
                [f"options.local_indices: must be an object, got {type(indices).__name__}"]
            )
        out = {}
        for label, value in indices.items():
            try:
                index = read_int(value, str(label))
            except (TypeError, ValueError):
                index = 0
            if index < 1:
                raise InputError([
                    f"options.local_indices: index at {label!r} is not a positive "
                    f"integer: {value!r}"
                ])
            out[str(label)] = index
        refuse_past("options.local_indices: the product of the indices", out.values(),
                    _INDEX_PRODUCT_CAP)
        return out


def _positive(spec: Mapping, key: str, default: int) -> int:
    value = read_int(spec.get(key, default), key)
    if value < 1:
        raise ValueError(f"{key} must be at least 1, got {value}")
    return value


@contextmanager
def _spec_errors(path: str):
    """Report a missing or unusable field of the spec at ``path`` as an
    input error."""
    try:
        yield
    except KeyError as exc:
        raise InputError([f"{path}: missing field {exc.args[0]!r}"]) from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError([f"{path}: {exc}"]) from exc


def _hom_from_labels(source: FiniteGroup, target: FiniteGroup, table: Mapping[str, str]) -> GroupHom:
    table = table or {}  # an empty or null side, which parse_input lets through
    mapping = [target.identity] * source.order
    for src_label, dst_label in table.items():
        try:
            mapping[source.index(str(src_label))] = target.index(str(dst_label))
        except KeyError as exc:  # an unknown label, not a missing field
            raise ValueError(exc.args[0]) from None
    missing = [
        source.label(a)
        for a in range(source.order)
        if a != source.identity and source.label(a) not in {str(k) for k in table}
    ]
    if missing:
        raise ValueError(f"map table missing elements {missing}")
    return GroupHom(source, target, mapping)


def _object(value, path: str, errors: list[str]) -> dict:
    """``value`` as an object, empty when it is absent (missing or null); any
    other value is recorded as an error at ``path``."""
    if value is None:
        return {}
    if isinstance(value, dict):
        return value
    errors.append(f"{path}: must be an object, got {type(value).__name__}")
    return {}


def _refuse_lone_surrogates(data) -> None:
    """Refuse a string, key or value, that holds a lone surrogate (a
    ``\\ud800`` escape with no partner): no report can write it as UTF-8."""
    stack = [data]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value)
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
        elif isinstance(value, str) and not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise InputError([f"string {value!r} holds a lone surrogate"]) from None


def parse_input(document: str) -> WorkbenchInput:
    """Validate a document; collect schema errors with paths."""
    errors: list[str] = []
    warnings: list[str] = []
    try:
        data = json.loads(document)
    # JSONDecodeError, an integer too long to convert, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise InputError([f"not well-formed JSON: {exc}"]) from exc
    # a lone surrogate needs a \u escape or a non-ASCII character
    if "\\u" in document or not document.isascii():
        _refuse_lone_surrogates(data)
    if not isinstance(data, dict):
        raise InputError(["top level must be an object"])

    for key in data:
        if key not in _TOP_KEYS:
            warnings.append(f"unknown top-level key {key!r} ignored")
    if "version" not in data:
        raise InputError(["missing required 'version' field"])
    try:
        version = read_int(data["version"], "version")
    except (TypeError, ValueError):
        raise InputError([f"version: not an integer: {data['version']!r}"]) from None
    if version != SCHEMA_VERSION:
        raise InputError([f"unsupported schema version {data['version']}"])

    groups: dict[str, FiniteGroup] = {}
    # a declared group that fails to build is reported once, at its own path,
    # and not again at each vertex, edge or option that names it
    declared_groups = _object(data.get("groups"), "groups", errors)
    for name, descriptor in declared_groups.items():
        try:
            groups[name] = make_group(descriptor, name=name)
        except (GroupAxiomError, ValueError, KeyError, TypeError) as exc:
            errors.append(f"groups.{name}: {exc}")

    graph = None
    vertex_group_names: dict[str, str] = {}
    edge_group_names: dict[str, str] = {}
    if data.get("graph") is not None:
        gsec = _object(data["graph"], "graph", errors)
        for key in gsec:
            if key not in _GRAPH_KEYS:
                warnings.append(f"unknown graph key {key!r} ignored")
        entries = {}
        for key in ("points", "components", "edges"):
            entries[key] = gsec.get(key, [])
            if not isinstance(entries[key], list):
                errors.append(f"graph.{key}: must be a list, got {type(entries[key]).__name__}")
                entries[key] = []
        points, components, edges = [], [], []
        for cls_name, bucket, assign in (
            ("points", points, vertex_group_names),
            ("components", components, vertex_group_names),
        ):
            for item in entries[cls_name]:
                if isinstance(item, str):
                    bucket.append(item)
                elif isinstance(item, dict) and isinstance(item.get("name"), str):
                    bucket.append(item["name"])
                    if "group" in item:
                        assign[item["name"]] = item["group"]
                else:
                    errors.append(f"graph.{cls_name}: malformed entry {item!r}")
        declared = set(points) | set(components)
        for item in entries["edges"]:
            if isinstance(item, (list, tuple)) and len(item) == 3:
                name, a, b = item
            elif isinstance(item, dict) and {"name", "point", "component"} <= set(item):
                name, a, b = item["name"], item["point"], item["component"]
            else:
                name = a = b = None
            if not all(isinstance(x, str) for x in (name, a, b)):
                errors.append(f"graph.edges: malformed entry {item!r}")
                continue
            if isinstance(item, dict) and "group" in item:
                edge_group_names[name] = item["group"]
            for end in (a, b):
                if end not in declared:
                    errors.append(f"graph.edges.{name}: undeclared vertex {end!r}")
            edges.append((name, a, b))
        if not errors:
            try:
                graph = ReductionGraph(points, components, edges)
            except ValueError as exc:
                errors.append(f"graph: {exc}")

    for v, gname in vertex_group_names.items():
        if not isinstance(gname, str) or gname not in declared_groups:
            errors.append(f"graph vertex {v}: group {gname!r} is not defined")
    for e, gname in edge_group_names.items():
        if not isinstance(gname, str) or gname not in declared_groups:
            errors.append(f"graph edge {e}: group {gname!r} is not defined")

    edge_map_tables = dict(_object(data.get("edge_maps"), "edge_maps", errors))
    for e, table in edge_map_tables.items():
        if graph is not None and e not in graph.edge_names():
            errors.append(f"edge_maps.{e}: no such edge")
        table = _object(table, f"edge_maps.{e}", errors)
        for side in ("to_point", "to_component"):
            _object(table.get(side), f"edge_maps.{e}.{side}", errors)

    options = dict(_object(data.get("options"), "options", errors))
    for key in options:
        if key not in _OPTION_KEYS:
            warnings.append(f"unknown option {key!r} ignored")
    test_group = options.get("test_group")
    if test_group and (not isinstance(test_group, str) or test_group not in declared_groups):
        errors.append(f"options.test_group: group {test_group!r} is not defined")
    if not isinstance(options.get("all_trees", False), bool):
        errors.append(f"options.all_trees: must be a boolean, got {options['all_trees']!r}")
    descent = dict(_object(data.get("descent"), "descent", errors))

    if errors:
        raise InputError(errors)
    return WorkbenchInput(
        graph=graph,
        vertex_group_names=vertex_group_names,
        edge_group_names=edge_group_names,
        groups=groups,
        edge_map_tables=edge_map_tables,
        descent=descent,
        options=options,
        warnings=warnings,
    )

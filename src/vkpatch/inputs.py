"""Parsing and validation of the JSON workbench input document.

Sections: ``graph`` (vertices and edges, optionally carrying group names),
``groups`` (named group descriptors), ``edge_maps`` (per-branch injection
tables), ``descent`` (Artin-Schreier / Kummer instance specs), ``options``
(bounds, truncation, test group, local indices).  Unknown keys warn;
dangling references fail with the offending path; bad tables fail with the
violating triple.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

from .descent import ASInstance, KummerInstance
from .gog import EdgeMapError, GraphOfFiniteGroups
from .graphs import ReductionGraph
from .groups import FiniteGroup, GroupAxiomError, GroupHom, cyclic, make_group

SCHEMA_VERSION = 1

_TOP_KEYS = {"version", "graph", "groups", "edge_maps", "descent", "options"}
_GRAPH_KEYS = {"points", "components", "edges"}
_OPTION_KEYS = {
    "test_group",
    "degree",
    "support_bound",
    "truncation",
    "all_trees",
    "local_indices",
    "search_bound",
}


class InputError(ValueError):
    """Schema or reference errors, with one message per problem."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class WorkbenchInput:
    version: int
    raw_text: str
    graph: ReductionGraph | None
    vertex_group_names: dict[str, str]
    edge_group_names: dict[str, str]
    groups: dict[str, FiniteGroup]
    edge_map_tables: dict[str, dict]
    descent: dict
    options: dict
    warnings: list[str] = field(default_factory=list)

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
            if table is None:
                errors.append(f"edge_maps.{e}: required for nontrivial edge group")
                continue
            try:
                edge_maps[e] = {
                    "to_point": _hom_from_labels(eg, vertex_groups[p], table["to_point"]),
                    "to_component": _hom_from_labels(
                        eg, vertex_groups[u], table["to_component"]
                    ),
                }
            except (KeyError, ValueError) as exc:
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
        p = int(spec["p"])
        if spec.get("rational"):
            return ASInstance.rational(p, int(spec.get("e", 1)), spec["alpha"])
        return ASInstance.finite(
            p, int(spec.get("k1_degree", 1)), int(spec["k2_degree"]), spec["alpha"]
        )

    def kummer_instance(self) -> KummerInstance:
        spec = self.descent.get("kummer")
        if spec is None:
            raise InputError(["this command needs descent.kummer"])
        p = int(spec["p"])
        truncation = int(spec.get("truncation", 200))
        if spec.get("model", "transcendental") == "base-ring":
            return KummerInstance.base_ring_model(
                p, spec.get("gbar_coeffs", [1]), truncation=truncation
            )
        return KummerInstance.transcendental_model(
            p,
            q_exp=int(spec.get("q_exp", 1)),
            terms=int(spec.get("terms", 4)),
            truncation=truncation,
        )


def _hom_from_labels(source: FiniteGroup, target: FiniteGroup, table: Mapping[str, str]) -> GroupHom:
    mapping = [target.identity] * source.order
    for src_label, dst_label in table.items():
        mapping[source.index(str(src_label))] = target.index(str(dst_label))
    missing = [
        source.label(a)
        for a in range(source.order)
        if a != source.identity and source.label(a) not in {str(k) for k in table}
    ]
    if missing:
        raise ValueError(f"map table missing elements {missing}")
    return GroupHom(source, target, mapping)


def parse_input(document: str) -> WorkbenchInput:
    """Validate a document; collect schema errors with paths."""
    errors: list[str] = []
    warnings: list[str] = []
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise InputError([f"not well-formed JSON: {exc}"]) from exc
    if not isinstance(data, dict):
        raise InputError(["top level must be an object"])

    for key in data:
        if key not in _TOP_KEYS:
            warnings.append(f"unknown top-level key {key!r} ignored")
    if "version" not in data:
        raise InputError(["missing required 'version' field"])
    if int(data["version"]) != SCHEMA_VERSION:
        raise InputError([f"unsupported schema version {data['version']}"])

    groups: dict[str, FiniteGroup] = {}
    for name, descriptor in (data.get("groups") or {}).items():
        try:
            groups[name] = make_group(descriptor, name=name)
        except (GroupAxiomError, ValueError, KeyError, TypeError) as exc:
            errors.append(f"groups.{name}: {exc}")

    graph = None
    vertex_group_names: dict[str, str] = {}
    edge_group_names: dict[str, str] = {}
    if "graph" in data:
        gsec = data["graph"] or {}
        for key in gsec:
            if key not in _GRAPH_KEYS:
                warnings.append(f"unknown graph key {key!r} ignored")
        points, components, edges = [], [], []
        for cls_name, bucket, assign in (
            ("points", points, vertex_group_names),
            ("components", components, vertex_group_names),
        ):
            for item in gsec.get(cls_name, []):
                if isinstance(item, str):
                    bucket.append(item)
                elif isinstance(item, dict) and "name" in item:
                    bucket.append(item["name"])
                    if "group" in item:
                        assign[item["name"]] = item["group"]
                else:
                    errors.append(f"graph.{cls_name}: malformed entry {item!r}")
        declared = set(points) | set(components)
        for item in gsec.get("edges", []):
            if isinstance(item, (list, tuple)) and len(item) == 3:
                name, a, b = item
            elif isinstance(item, dict) and {"name", "point", "component"} <= set(item):
                name, a, b = item["name"], item["point"], item["component"]
                if "group" in item:
                    edge_group_names[item["name"]] = item["group"]
            else:
                errors.append(f"graph.edges: malformed entry {item!r}")
                continue
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
        if gname not in groups:
            errors.append(f"graph vertex {v}: group {gname!r} is not defined")
    for e, gname in edge_group_names.items():
        if gname not in groups:
            errors.append(f"graph edge {e}: group {gname!r} is not defined")

    edge_map_tables = dict(data.get("edge_maps") or {})
    if graph is not None:
        for e in edge_map_tables:
            if e not in graph.edge_names():
                errors.append(f"edge_maps.{e}: no such edge")

    options = dict(data.get("options") or {})
    for key in options:
        if key not in _OPTION_KEYS:
            warnings.append(f"unknown option {key!r} ignored")
    test_group = options.get("test_group")
    if test_group and test_group not in groups:
        errors.append(f"options.test_group: group {test_group!r} is not defined")

    if errors:
        raise InputError(errors)
    return WorkbenchInput(
        version=int(data["version"]),
        raw_text=document,
        graph=graph,
        vertex_group_names=vertex_group_names,
        edge_group_names=edge_group_names,
        groups=groups,
        edge_map_tables=edge_map_tables,
        descent=dict(data.get("descent") or {}),
        options=options,
        warnings=warnings,
    )

"""Shared test fixtures: a zoo of small groups, seeded random instances, and
builders that only tests need."""

from __future__ import annotations

import functools
import random
from typing import Iterable, Mapping, Sequence

from vkpatch.gog import GraphOfFiniteGroups
from vkpatch.graphs import ReductionGraph
from vkpatch.groups import (
    FiniteGroup,
    GroupHom,
    Presentation,
    cyclic,
    direct_product,
    enumerate_homs,
    from_table,
    group_presentation,
    symmetric,
)


def perm_closure_group(generators: list[tuple[int, ...]], name: str) -> FiniteGroup:
    """The subgroup of S_n generated by permutation tuples, as a table group."""
    n = len(generators[0])

    def compose(a, b):
        return tuple(a[b[i]] for i in range(n))

    elements = set(generators) | {tuple(range(n))}
    frontier = list(elements)
    while frontier:
        new = []
        for g in generators:
            for x in frontier:
                y = compose(g, x)
                if y not in elements:
                    elements.add(y)
                    new.append(y)
        frontier = new
    ordered = sorted(elements)
    labels = ["".join(str(i) for i in p) for p in ordered]
    index = {p: i for i, p in enumerate(ordered)}
    table = [[labels[index[compose(a, b)]] for b in ordered] for a in ordered]
    return from_table(labels, table, name=name)


def dihedral4() -> FiniteGroup:
    return perm_closure_group([(1, 2, 3, 0), (3, 2, 1, 0)], "D4")


def alternating4() -> FiniteGroup:
    return perm_closure_group([(1, 2, 0, 3), (0, 2, 3, 1)], "A4")


def quaternion8() -> FiniteGroup:
    cyc = {("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j"}

    def lmul(a, b):
        if a == "1":
            return (1, b)
        if b == "1":
            return (1, a)
        if a == b:
            return (-1, "1")
        if (a, b) in cyc:
            return (1, cyc[(a, b)])
        return (-1, cyc[(b, a)])

    elements = []
    for letter in ("1", "i", "j", "k"):
        for sign in (1, -1):
            elements.append((sign, letter))
    labels = [("" if s == 1 else "-") + l for s, l in elements]
    index = {e: i for i, e in enumerate(elements)}
    table = []
    for s1, l1 in elements:
        row = []
        for s2, l2 in elements:
            s3, l3 = lmul(l1, l2)
            row.append(labels[index[(s1 * s2 * s3, l3)]])
        table.append(row)
    return from_table(labels, table, name="Q8")


def groups_up_to(order: int) -> list[FiniteGroup]:
    """One group per isomorphism class would be overkill; this is a useful
    spread of abelian and nonabelian groups up to the given order."""
    zoo = [cyclic(n) for n in range(1, 9)]
    zoo.append(direct_product(cyclic(2), cyclic(2), name="V4"))
    zoo.append(direct_product(cyclic(2), cyclic(4), name="C2xC4"))
    zoo.append(direct_product(cyclic(2), cyclic(2), cyclic(2), name="C2^3"))
    zoo.append(symmetric(3))
    zoo.append(dihedral4())
    zoo.append(quaternion8())
    return [g for g in zoo if g.order <= order]


@functools.lru_cache(maxsize=None)
def hom_set(source: FiniteGroup, target: FiniteGroup) -> tuple[GroupHom, ...]:
    """All homs source -> target, validated, in ``enumerate_homs`` order."""
    images = enumerate_homs(group_presentation(source), target)
    return tuple(GroupHom(source, target, mapping) for mapping in images)


def trivial_hom(source: FiniteGroup, target: FiniteGroup) -> GroupHom:
    """The hom sending every element of ``source`` to the identity."""
    return GroupHom(source, target, [target.identity] * source.order)


def injective_homs(source: FiniteGroup, target: FiniteGroup) -> list[GroupHom]:
    return [h for h in hom_set(source, target) if h.is_injective()]


def random_tree_graph(rng: random.Random, max_vertices: int = 4) -> ReductionGraph:
    """A random bipartite tree with at least one point and one component."""
    n_extra = rng.randint(0, max_vertices - 2)
    points, components = ["P1"], ["U1"]
    edges = [("b1", "P1", "U1")]
    for k in range(n_extra):
        if rng.random() < 0.5:
            name = f"P{len(points) + 1}"
            points.append(name)
            other = rng.choice(components)
        else:
            name = f"U{len(components) + 1}"
            components.append(name)
            other = rng.choice(points)
        edges.append((f"b{len(edges) + 1}", name, other))
    return ReductionGraph(points, components, edges)


def add_extra_edges(rng: random.Random, graph: ReductionGraph, count: int) -> ReductionGraph:
    edges = list(graph.edges)
    for _ in range(count):
        p = rng.choice(graph.points)
        u = rng.choice(graph.components)
        edges.append((f"b{len(edges) + 1}", p, u))
    return ReductionGraph(graph.points, graph.components, edges)


def random_gog(
    rng: random.Random,
    graph: ReductionGraph,
    vertex_order_cap: int = 8,
    edge_order_cap: int = 4,
    vertex_pool: list[FiniteGroup] | None = None,
) -> GraphOfFiniteGroups:
    """Random vertex and edge groups with random injective edge maps."""
    pool = vertex_pool or groups_up_to(vertex_order_cap)
    edge_pool = [g for g in groups_up_to(edge_order_cap)]
    vertex_groups = {v: rng.choice(pool) for v in graph.vertices}
    edge_groups = {}
    edge_maps = {}
    for name in graph.edge_names():
        p, u = graph.point_end(name), graph.component_end(name)
        options = []
        for eg in edge_pool:
            into_p = injective_homs(eg, vertex_groups[p])
            into_u = injective_homs(eg, vertex_groups[u])
            if into_p and into_u:
                options.append((eg, into_p, into_u))
        eg, into_p, into_u = rng.choice(options)
        edge_groups[name] = eg
        edge_maps[name] = {
            "to_point": rng.choice(into_p),
            "to_component": rng.choice(into_u),
        }
    return GraphOfFiniteGroups(graph, vertex_groups, edge_groups, edge_maps)


def with_trivial_edges(
    graph: ReductionGraph, vertex_groups: Mapping[str, FiniteGroup]
) -> GraphOfFiniteGroups:
    """Attach the trivial group to every branch."""
    triv = cyclic(1, name="1")
    edge_groups = {n: triv for n in graph.edge_names()}
    edge_maps = {
        n: {
            "to_point": trivial_hom(triv, vertex_groups[graph.point_end(n)]),
            "to_component": trivial_hom(triv, vertex_groups[graph.component_end(n)]),
        }
        for n in graph.edge_names()
    }
    return GraphOfFiniteGroups(graph, vertex_groups, edge_groups, edge_maps)


def trivial_gog(graph: ReductionGraph) -> GraphOfFiniteGroups:
    triv = cyclic(1, name="1")
    return with_trivial_edges(graph, {v: triv for v in graph.vertices})


def diamond_graph() -> ReductionGraph:
    return ReductionGraph(["P"], ["U"], [("b1", "P", "U")])


def circle_graph() -> ReductionGraph:
    return ReductionGraph(["P"], ["U"], [("b1", "P", "U"), ("b2", "P", "U")])


def theta_graph() -> ReductionGraph:
    return ReductionGraph(
        ["P"], ["U"], [("b1", "P", "U"), ("b2", "P", "U"), ("b3", "P", "U")]
    )


def word(tokens: Iterable[str], generators: Sequence[str]) -> tuple[int, ...]:
    """Translate tokens like "x", "x^-1", "x^3" into a signed 1-based word."""
    index = {g: i + 1 for i, g in enumerate(generators)}
    out: list[int] = []
    for tok in tokens:
        if "^" in tok:
            sym, _, exp = tok.partition("^")
            k = int(exp)
        else:
            sym, k = tok, 1
        if sym not in index:
            raise ValueError(f"undeclared generator {sym!r} in word")
        letter = index[sym] if k >= 0 else -index[sym]
        out.extend([letter] * abs(k))
    return tuple(out)


def presentation_from_words(generators: Sequence[str], words: Iterable[Iterable[str]]) -> Presentation:
    gens = tuple(generators)
    return Presentation(gens, tuple(word(w, gens) for w in words))


def cover_total_space(
    graph: ReductionGraph, degree: int, assignment: Mapping[str, Sequence[int]],
) -> tuple[list[tuple[str, int]], list[tuple[str, int, tuple[str, int], tuple[str, int]]]]:
    """The covering graph of a degree-n cover given by its sheet permutation
    per branch: vertex fibers of size n, one edge per sheet."""
    verts = [(v, i) for v in graph.vertices for i in range(degree)]
    edges = []
    for name in graph.edge_names():
        p = graph.point_end(name)
        u = graph.component_end(name)
        perm = assignment[name]
        for i in range(degree):
            edges.append((name, i, (p, i), (u, perm[i])))
    return verts, edges


def cover_is_connected(
    graph: ReductionGraph, degree: int, assignment: Mapping[str, Sequence[int]]
) -> bool:
    verts, edges = cover_total_space(graph, degree, assignment)
    if not verts:
        return True
    adj: dict[tuple[str, int], list[tuple[str, int]]] = {v: [] for v in verts}
    for _, _, a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {verts[0]}
    frontier = [verts[0]]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(verts)

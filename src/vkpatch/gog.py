"""Graphs of finite groups over reduction graphs and their presentations.

A graph of groups attaches a finite group to every vertex and every branch of
a reduction graph, with injective edge-to-vertex maps on both ends of each
branch.  The fundamental group relative to a spanning tree is presented by
all vertex-group elements plus one letter per branch, subject to the vertex
multiplication tables, the conjugation relations

    (component-side image of g) = e . (point-side image of g) . e^-1

for every branch and every edge-group element g, and e = 1 on tree edges.
Edge letters conjugate the point side into the component side; this
orientation convention is fixed throughout the package.

Everything here is counted exactly by enumerating homomorphisms into a finite
test group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .graphs import ReductionGraph, SpanningTree, is_tree, maximal_tree, spanning_trees
from .groups import (
    FiniteGroup,
    GroupHom,
    Presentation,
    enumerate_homs,
    hom_set,
)

class EdgeMapError(ValueError):
    """An edge map that does not fit its branch; carries the branch name."""

    def __init__(self, branch: str, message: str):
        super().__init__(message)
        self.branch = branch


class GraphOfFiniteGroups:
    """Vertex and edge groups over a validated reduction graph.

    ``edge_maps[name]`` holds the two monomorphisms of the branch's group,
    keyed ``"to_point"`` and ``"to_component"``; both must be injective.
    """

    def __init__(
        self,
        graph: ReductionGraph,
        vertex_groups: Mapping[str, FiniteGroup],
        edge_groups: Mapping[str, FiniteGroup],
        edge_maps: Mapping[str, Mapping[str, GroupHom]],
    ):
        graph.require_valid()
        self.graph = graph
        self.vertex_groups = {v: vertex_groups[v] for v in graph.vertices}
        self.edge_groups = {n: edge_groups[n] for n in graph.edge_names()}
        self.edge_maps: dict[str, dict[str, GroupHom]] = {}
        for name in graph.edge_names():
            maps = edge_maps[name]
            to_p, to_u = maps["to_point"], maps["to_component"]
            p, u = graph.point_end(name), graph.component_end(name)
            if to_p.source != self.edge_groups[name] or to_u.source != self.edge_groups[name]:
                raise EdgeMapError(name, f"edge maps of {name} must start at its edge group")
            if to_p.target != self.vertex_groups[p]:
                raise EdgeMapError(name, f"map to_point of {name} must land in the group at {p}")
            if to_u.target != self.vertex_groups[u]:
                raise EdgeMapError(name, f"map to_component of {name} must land in the group at {u}")
            for side, hom in (("to_point", to_p), ("to_component", to_u)):
                if not hom.is_injective():
                    raise EdgeMapError(name, f"edge map {side} of {name} is not injective")
            self.edge_maps[name] = {"to_point": to_p, "to_component": to_u}

    @classmethod
    def with_trivial_edges(
        cls, graph: ReductionGraph, vertex_groups: Mapping[str, FiniteGroup]
    ) -> "GraphOfFiniteGroups":
        """Attach the trivial group to every branch."""
        from .groups import cyclic

        triv = cyclic(1, name="1")
        edge_groups = {n: triv for n in graph.edge_names()}
        edge_maps = {
            n: {
                "to_point": GroupHom.trivial(triv, vertex_groups[graph.point_end(n)]),
                "to_component": GroupHom.trivial(triv, vertex_groups[graph.component_end(n)]),
            }
            for n in graph.edge_names()
        }
        return cls(graph, vertex_groups, edge_groups, edge_maps)

    def bfs_vertex_order(self, tree: SpanningTree) -> list[tuple[str, str | None]]:
        """Vertices in BFS order along the tree, with the tree edge that
        reached each non-root vertex."""
        order: list[tuple[str, str | None]] = []
        root = self.graph.vertices[0]
        seen = {root}
        order.append((root, None))
        queue = [root]
        while queue:
            v = queue.pop(0)
            for name in self.graph.edges_at(v):
                if name not in tree.edge_names:
                    continue
                p, u = self.graph.point_end(name), self.graph.component_end(name)
                w = u if v == p else p
                if w not in seen:
                    seen.add(w)
                    order.append((w, name))
                    queue.append(w)
        return order


@dataclass(frozen=True)
class VanKampenPresentation:
    """The spanning-tree presentation of a graph of groups.

    Generators are one symbol per vertex-group element plus one letter per
    branch; generator order follows a BFS of the spanning tree so that the
    hom enumerator can prune across vertices as early as possible.
    """

    gog: GraphOfFiniteGroups
    tree: SpanningTree
    presentation: Presentation
    vertex_symbol: Mapping[tuple[str, int], int]
    edge_symbol: Mapping[str, int]

    def vertex_images(self, assignment: Sequence[int], vertex: str) -> tuple[int, ...]:
        group = self.gog.vertex_groups[vertex]
        return tuple(assignment[self.vertex_symbol[(vertex, a)]] for a in range(group.order))

    def edge_image(self, assignment: Sequence[int], edge: str) -> int:
        return assignment[self.edge_symbol[edge]]


def build_presentation(
    gog: GraphOfFiniteGroups, tree: SpanningTree | None = None
) -> VanKampenPresentation:
    """Presentation of the fundamental group relative to a spanning tree."""
    if tree is None:
        tree = maximal_tree(gog.graph)
    if tree.graph is not gog.graph and tree.graph != gog.graph:
        raise ValueError("spanning tree belongs to a different graph")

    generators: list[str] = []
    vertex_symbol: dict[tuple[str, int], int] = {}
    edge_symbol: dict[str, int] = {}

    def add_vertex_block(v: str) -> None:
        group = gog.vertex_groups[v]
        for a in range(group.order):
            vertex_symbol[(v, a)] = len(generators)
            generators.append(f"{v}:{group.label(a)}")

    def add_edge_letter(name: str) -> None:
        edge_symbol[name] = len(generators)
        generators.append(f"e:{name}")

    bfs = gog.bfs_vertex_order(tree)
    for v, via in bfs:
        add_vertex_block(v)
        if via is not None:
            add_edge_letter(via)
    for name in gog.graph.edge_names():
        if name not in edge_symbol:
            add_edge_letter(name)

    relators: list[tuple[int, ...]] = []
    for v, _ in bfs:
        group = gog.vertex_groups[v]
        for a in range(group.order):
            sa = vertex_symbol[(v, a)] + 1
            for b in range(group.order):
                sb = vertex_symbol[(v, b)] + 1
                sab = vertex_symbol[(v, group.table[a][b])] + 1
                relators.append((sa, sb, -sab))
    for name in gog.graph.edge_names():
        e = edge_symbol[name] + 1
        if name in tree.edge_names:
            relators.append((e,))
        p, u = gog.graph.point_end(name), gog.graph.component_end(name)
        edge_group = gog.edge_groups[name]
        to_p = gog.edge_maps[name]["to_point"]
        to_u = gog.edge_maps[name]["to_component"]
        for g in range(edge_group.order):
            if g == edge_group.identity:
                continue
            sp = vertex_symbol[(p, to_p(g))] + 1
            su = vertex_symbol[(u, to_u(g))] + 1
            relators.append((e, sp, -e, -su))

    pres = Presentation(tuple(generators), tuple(relators))
    return VanKampenPresentation(gog, tree, pres, vertex_symbol, edge_symbol)


@dataclass(frozen=True)
class HomFamily:
    """A vertex-hom family with one conjugator per branch.

    The defining compatibility, checked on construction: for every branch at
    P on U and every edge-group element g,

        f_U(to_component(g)) = c . f_P(to_point(g)) . c^-1

    where c is the branch's conjugator.  Families are compared as tables.
    """

    gog: GraphOfFiniteGroups
    group: FiniteGroup
    vertex_homs: Mapping[str, GroupHom]
    conjugators: Mapping[str, int]

    def __post_init__(self):
        G = self.group
        for name in self.gog.graph.edge_names():
            c = self.conjugators[name]
            p = self.gog.graph.point_end(name)
            u = self.gog.graph.component_end(name)
            f_p, f_u = self.vertex_homs[p], self.vertex_homs[u]
            to_p = self.gog.edge_maps[name]["to_point"]
            to_u = self.gog.edge_maps[name]["to_component"]
            for g in range(self.gog.edge_groups[name].order):
                lhs = f_u(to_u(g))
                rhs = G.conjugate(c, f_p(to_p(g)))
                if lhs != rhs:
                    raise ValueError(
                        f"family violates the edge relation on branch {name} "
                        f"at element {self.gog.edge_groups[name].label(g)}"
                    )

    def key(self) -> tuple:
        """Canonical sort/equality key: vertex tables then conjugators."""
        verts = tuple(
            self.vertex_homs[v].mapping for v in self.gog.graph.vertices
        )
        conj = tuple(self.conjugators[n] for n in self.gog.graph.edge_names())
        return (verts, conj)


def enumerate_pi1_homs(
    gog: GraphOfFiniteGroups,
    group: FiniteGroup,
    tree: SpanningTree | None = None,
    presentation: VanKampenPresentation | None = None,
) -> tuple[HomFamily, ...]:
    """All homomorphisms of the presented fundamental group into the test
    group, as vertex-hom families with edge conjugators (identity on tree
    edges).  Ordered lexicographically over the presentation's generators."""
    if presentation is None:
        presentation = build_presentation(gog, tree)
    assignments = enumerate_homs(presentation.presentation, group)
    families = []
    for assignment in assignments:
        homs = {
            v: GroupHom(gog.vertex_groups[v], group, presentation.vertex_images(assignment, v))
            for v in gog.graph.vertices
        }
        conj = {
            n: presentation.edge_image(assignment, n) for n in gog.graph.edge_names()
        }
        families.append(HomFamily(gog, group, homs, conj))
    return tuple(families)


def backtrack_vertices(
    gog: GraphOfFiniteGroups,
    candidates: Mapping[str, Sequence],
    agrees: Callable[[Mapping, str], bool],
) -> list[dict]:
    """Every choice of one candidate per vertex that passes ``agrees(chosen,
    branch)`` on every branch.  Vertices are chosen in canonical order and a
    branch is checked as soon as both of its ends are chosen; the choices come
    out in lexicographic order of the candidate positions."""
    vertices = gog.graph.vertices
    pos = {v: i for i, v in enumerate(vertices)}
    edges_by_later: dict[str, list[str]] = {v: [] for v in vertices}
    for name in gog.graph.edge_names():
        p, u = gog.graph.point_end(name), gog.graph.component_end(name)
        edges_by_later[p if pos[p] > pos[u] else u].append(name)

    chosen: dict = {}
    out: list[dict] = []

    def extend(i: int) -> None:
        if i == len(vertices):
            out.append(dict(chosen))
            return
        v = vertices[i]
        for cand in candidates[v]:
            chosen[v] = cand
            if all(agrees(chosen, n) for n in edges_by_later[v]):
                extend(i + 1)
        chosen.pop(v, None)

    extend(0)
    return out


def naive_limit_homs(gog: GraphOfFiniteGroups, group: FiniteGroup) -> tuple[HomFamily, ...]:
    """Vertex-hom families whose edge restrictions agree exactly (all
    conjugators the identity): the compatible-system model."""

    def compatible(chosen: Mapping[str, GroupHom], name: str) -> bool:
        f_p = chosen[gog.graph.point_end(name)]
        f_u = chosen[gog.graph.component_end(name)]
        to_p = gog.edge_maps[name]["to_point"]
        to_u = gog.edge_maps[name]["to_component"]
        return all(
            f_u(to_u(g)) == f_p(to_p(g))
            for g in range(gog.edge_groups[name].order)
        )

    candidates = {v: hom_set(gog.vertex_groups[v], group) for v in gog.graph.vertices}
    conj = {n: group.identity for n in gog.graph.edge_names()}
    out = [
        HomFamily(gog, group, homs, conj)
        for homs in backtrack_vertices(gog, candidates, compatible)
    ]
    out.sort(key=HomFamily.key)
    return tuple(out)


# ---------------------------------------------------------------------------
# Verifiers


@dataclass(frozen=True)
class TreeVanKampenReport:
    law: str
    graph_is_tree: bool
    pi1_count: int
    naive_count: int
    restriction_lands_in_limit: bool
    restriction_injective: bool
    restriction_surjective: bool
    bijection: bool
    witness: str | None
    passed: bool

    def lines(self) -> list[str]:
        out = [
            f"graph is a tree: {self.graph_is_tree}",
            f"presentation homs: {self.pi1_count}",
            f"naive limit homs: {self.naive_count}",
            f"restriction map is a bijection: {self.bijection}",
        ]
        if not self.graph_is_tree:
            out.insert(0, "non-tree detected")
        if self.witness:
            out.append(f"witness: {self.witness}")
        return out

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "graph_is_tree": self.graph_is_tree,
            "pi1_count": self.pi1_count,
            "naive_count": self.naive_count,
            "bijection": self.bijection,
            "witness": self.witness,
            "passed": self.passed,
        }


def verify_tree_vankampen(gog: GraphOfFiniteGroups, group: FiniteGroup) -> TreeVanKampenReport:
    """Compare presentation homs against exact compatible systems.

    On a tree the map that forgets edge letters must be a bijection onto the
    families with exact edge agreement; on a non-tree graph the report flags
    the graph and exhibits the discrepancy witness when one exists for this
    test group.
    """
    tree_flag = is_tree(gog.graph)
    vk = build_presentation(gog)
    homs = enumerate_homs(vk.presentation, group)
    naive = naive_limit_homs(gog, group)
    naive_keys = {fam.key()[0] for fam in naive}

    vertices = gog.graph.vertices
    restricted = [tuple(vk.vertex_images(a, v) for v in vertices) for a in homs]
    lands = all(k in naive_keys for k in restricted)
    injective = len(set(restricted)) == len(restricted)
    surjective = naive_keys <= set(restricted)
    bijection = lands and injective and surjective

    witness = None
    if not lands:
        bad = next(a for a, k in zip(homs, restricted) if k not in naive_keys)
        witness = (
            "a presentation hom restricts to a family without exact edge "
            f"agreement; conjugators {_conj_desc(vk, group, bad)}"
        )
    elif not injective:
        seen: set[tuple] = set()
        for a, k in zip(homs, restricted):
            if k in seen:
                witness = (
                    "two presentation homs restrict identically; the extra one "
                    f"has conjugators {_conj_desc(vk, group, a)}"
                )
                break
            seen.add(k)

    passed = bijection if tree_flag else True
    return TreeVanKampenReport(
        law="tree-direct-limit",
        graph_is_tree=tree_flag,
        pi1_count=len(homs),
        naive_count=len(naive),
        restriction_lands_in_limit=lands,
        restriction_injective=injective,
        restriction_surjective=surjective,
        bijection=bijection,
        witness=witness,
        passed=passed,
    )


def _conj_desc(vk: VanKampenPresentation, group: FiniteGroup, assignment: Sequence[int]) -> str:
    edges = vk.gog.graph.edge_names()
    return "{" + ", ".join(f"{n}: {group.label(vk.edge_image(assignment, n))}" for n in edges) + "}"


@dataclass(frozen=True)
class TreeIndependenceReport:
    law: str
    counts: Mapping[str, int]
    all_equal: bool
    passed: bool

    def lines(self) -> list[str]:
        out = [f"spanning trees: {len(self.counts)}"]
        for name, count in self.counts.items():
            out.append(f"  tree {name}: {count} homs")
        out.append(f"counts identical across trees: {self.all_equal}")
        return out

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "counts": dict(self.counts),
            "all_equal": self.all_equal,
            "passed": self.passed,
        }


def verify_tree_independence(gog: GraphOfFiniteGroups, group: FiniteGroup) -> TreeIndependenceReport:
    """Hom counts must not depend on the choice of maximal tree."""
    counts: dict[str, int] = {}
    for tree in spanning_trees(gog.graph):
        label = "{" + ",".join(tree.edge_names) + "}"
        counts[label] = len(enumerate_homs(build_presentation(gog, tree).presentation, group))
    values = set(counts.values())
    all_equal = len(values) == 1
    return TreeIndependenceReport(
        law="tree-independence",
        counts=counts,
        all_equal=all_equal,
        passed=all_equal,
    )


def conjugacy_class_count(group: FiniteGroup, homs: Iterable[Sequence[int]]) -> int:
    """Number of homs up to simultaneous conjugation by the test group.

    A hom is its tuple of generator images, as ``enumerate_homs`` yields it;
    conjugating the hom conjugates every entry."""
    conjugations = [
        [group.conjugate(g, x) for x in range(group.order)] for g in range(group.order)
    ]
    remaining = {tuple(h) for h in homs}
    classes = 0
    while remaining:
        h = remaining.pop()
        classes += 1
        for table in conjugations:
            remaining.discard(tuple(table[x] for x in h))
    return classes

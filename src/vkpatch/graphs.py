"""Bipartite reduction graphs: trees, cycle rank, covers, index bounds.

A reduction graph has two vertex classes (point vertices and component
vertices), edges called branches joining one vertex of each class, and may
have parallel edges, so it is stored as an edge list.  Validation never
aborts; it reports every violated invariant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


class InvalidGraphError(ValueError):
    """Raised when an operation requires a graph that fails validation."""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]

    def lines(self) -> list[str]:
        if self.ok:
            return ["graph invariants: pass"]
        return ["graph invariants: FAIL"] + [f"  - {v}" for v in self.violations]


class ReductionGraph:
    """Bipartite multigraph of point vertices, component vertices, branches.

    Edges are (name, end_a, end_b) triples; a well-formed branch has one end
    in the point class and one in the component class, but malformed input is
    representable so ``validate`` can report on it.
    """

    def __init__(
        self,
        points: Sequence[str],
        components: Sequence[str],
        edges: Sequence[tuple[str, str, str]],
    ):
        self.points = tuple(sorted(str(p) for p in points))
        self.components = tuple(sorted(str(c) for c in components))
        self.edges = tuple(
            sorted((str(n), str(a), str(b)) for n, a, b in edges)
        )
        self._report: ValidationReport | None = None
        # endpoint and incidence maps, built once; on a malformed branch the
        # end outside the point class is taken as the component end
        self._by_name: dict[str, tuple[str, str, str]] = {}
        self._ends: dict[str, tuple[str, str]] = {}
        incident: dict[str, list[str]] = {}
        for e in self.edges:
            n, a, b = e
            if n in self._by_name:
                raise ValueError(f"duplicate edge name {n!r}")
            self._by_name[n] = e
            self._ends[n] = (a, b) if a in self.points else (b, a)
            for end in {a, b}:
                incident.setdefault(end, []).append(n)
        overlap = set(self.points) & set(self.components)
        if overlap:
            raise ValueError(f"labels used as both point and component: {sorted(overlap)}")
        self._incident = {v: tuple(names) for v, names in incident.items()}
        self._edge_names = tuple(self._by_name)
        # all vertex labels in canonical (sorted) order
        self.vertices = tuple(sorted(self.points + self.components))

    # -- structure helpers ---------------------------------------------------

    def edge_names(self) -> tuple[str, ...]:
        return self._edge_names

    def edge(self, name: str) -> tuple[str, str, str]:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no edge named {name!r}") from None

    def point_end(self, name: str) -> str:
        return self._ends[name][0]

    def component_end(self, name: str) -> str:
        return self._ends[name][1]

    def edges_at(self, vertex: str) -> tuple[str, ...]:
        return self._incident.get(vertex, ())

    def degree(self, vertex: str) -> int:
        return len(self.edges_at(vertex))

    # -- validation ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check bipartiteness, connectivity, endpoint references, degrees."""
        if self._report is not None:
            return self._report
        violations: list[str] = []
        declared = set(self.points) | set(self.components)
        if not self.points:
            violations.append("no point vertex declared")
        if not self.components:
            violations.append("no component vertex declared")
        for n, a, b in self.edges:
            for end in (a, b):
                if end not in declared:
                    violations.append(f"edge {n} has dangling endpoint {end!r}")
        for n, a, b in self.edges:
            if a in declared and b in declared:
                in_points = (a in self.points) + (b in self.points)
                if in_points != 1:
                    violations.append(
                        f"edge {n} is not bipartite: joins ({a}, {b})"
                    )
        for v in self.vertices:
            if self.degree(v) == 0:
                violations.append(f"vertex {v} has degree 0")
        if declared and not violations:
            seen = {self.vertices[0]}
            frontier = [self.vertices[0]]
            while frontier:
                v = frontier.pop()
                for n, a, b in self.edges:
                    if v == a and b not in seen:
                        seen.add(b)
                        frontier.append(b)
                    elif v == b and a not in seen:
                        seen.add(a)
                        frontier.append(a)
            missing = sorted(declared - seen)
            if missing:
                violations.append(f"graph is disconnected: unreachable {missing}")
        report = ValidationReport(ok=not violations, violations=tuple(violations))
        self._report = report
        return report

    def require_valid(self) -> None:
        report = self.validate()
        if not report.ok:
            raise InvalidGraphError("; ".join(report.violations))

    def __repr__(self) -> str:
        return (
            f"ReductionGraph(points={list(self.points)}, "
            f"components={list(self.components)}, edges={len(self.edges)})"
        )


@dataclass(frozen=True)
class SpanningTree:
    """A spanning edge subset of a validated reduction graph."""

    graph: ReductionGraph
    edge_names: tuple[str, ...]

    def __post_init__(self):
        self.graph.require_valid()
        names = tuple(sorted(self.edge_names))
        object.__setattr__(self, "edge_names", names)
        known = set(self.graph.edge_names())
        for n in names:
            if n not in known:
                raise ValueError(f"tree edge {n!r} is not an edge of the graph")
        if len(names) != len(self.graph.vertices) - 1:
            raise ValueError("tree edge count must be |vertices| - 1")
        if not _spans(self.graph, names):
            raise ValueError("edge subset does not span the graph acyclically")

    def __contains__(self, edge_name: str) -> bool:
        return edge_name in self.edge_names

    def non_tree_edges(self) -> tuple[str, ...]:
        return tuple(n for n in self.graph.edge_names() if n not in self.edge_names)


def _spans(graph: ReductionGraph, names: Iterable[str]) -> bool:
    chosen = set(names)
    parent = {v: v for v in graph.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for n, a, b in graph.edges:
        if n not in chosen:
            continue
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    roots = {find(v) for v in graph.vertices}
    return len(roots) == 1


def is_tree(graph: ReductionGraph) -> bool:
    graph.require_valid()
    return len(graph.edges) == len(graph.vertices) - 1


def cycle_rank(graph: ReductionGraph) -> int:
    """First Betti number |E| - |V| + 1 of the connected graph."""
    graph.require_valid()
    return len(graph.edges) - len(graph.vertices) + 1


def maximal_tree(graph: ReductionGraph) -> SpanningTree:
    """Deterministic spanning tree: grow from the least vertex, taking at
    each step the least-named edge with exactly one endpoint in the tree."""
    graph.require_valid()
    reached = {graph.vertices[0]}
    chosen: list[str] = []
    while len(reached) < len(graph.vertices):
        for n, a, b in graph.edges:
            if (a in reached) != (b in reached):
                chosen.append(n)
                reached.add(a)
                reached.add(b)
                break
        else:
            raise InvalidGraphError("graph is disconnected")
    return SpanningTree(graph, tuple(chosen))


def spanning_trees(graph: ReductionGraph) -> tuple[SpanningTree, ...]:
    """All spanning trees, enumerated in canonical edge-subset order."""
    graph.require_valid()
    names = graph.edge_names()
    k = len(graph.vertices) - 1
    out = []
    for subset in itertools.combinations(names, k):
        if _spans(graph, subset):
            out.append(SpanningTree(graph, subset))
    return tuple(out)


# ---------------------------------------------------------------------------
# Covers


def _conj(tau: tuple[int, ...], sigma: tuple[int, ...]) -> tuple[int, ...]:
    """tau sigma tau^-1 as permutation tuples (i -> image)."""
    n = len(tau)
    tau_inv = [0] * n
    for i, x in enumerate(tau):
        tau_inv[x] = i
    return tuple(tau[sigma[tau_inv[i]]] for i in range(n))


@dataclass(frozen=True)
class GraphCover:
    """A degree-n cover given by sheet permutations, identity on tree edges."""

    graph: ReductionGraph
    degree: int
    tree: SpanningTree
    assignment: Mapping[str, tuple[int, ...]]

    def __post_init__(self):
        ident = tuple(range(self.degree))
        for n in self.graph.edge_names():
            perm = self.assignment.get(n)
            if perm is None or sorted(perm) != list(range(self.degree)):
                raise ValueError(f"edge {n} lacks a valid sheet permutation")
            if n in self.tree.edge_names and perm != ident:
                raise ValueError(f"tree edge {n} must carry the identity permutation")

    def total_space(self) -> tuple[list[tuple[str, int]], list[tuple[str, int, tuple[str, int], tuple[str, int]]]]:
        """The covering graph: vertex fibers of size n, one edge per sheet."""
        verts = [(v, i) for v in self.graph.vertices for i in range(self.degree)]
        edges = []
        for name in self.graph.edge_names():
            p = self.graph.point_end(name)
            u = self.graph.component_end(name)
            perm = self.assignment[name]
            for i in range(self.degree):
                edges.append((name, i, (p, i), (u, perm[i])))
        return verts, edges

    def is_connected(self) -> bool:
        verts, edges = self.total_space()
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


def enumerate_connected_covers(
    graph: ReductionGraph, degree: int, tree: SpanningTree | None = None
) -> tuple[GraphCover, ...]:
    """Connected degree-n covers up to simultaneous sheet relabeling.

    Covers correspond to tuples of sheet permutations on the non-tree edges;
    the cover is connected iff the generated permutation group acts
    transitively on sheets, and two tuples give isomorphic covers iff they are
    simultaneously conjugate.  Representatives are the lexicographically
    least tuple of each class.
    """
    graph.require_valid()
    if degree < 1:
        raise ValueError(f"cover degree must be >= 1, got {degree}")
    if tree is None:
        tree = maximal_tree(graph)
    free = tree.non_tree_edges()
    n = degree
    perms = sorted(itertools.permutations(range(n)))
    ident = tuple(range(n))

    reps: set[tuple[tuple[int, ...], ...]] = set()
    for combo in itertools.product(perms, repeat=len(free)):
        if not _transitive(combo, n):
            continue
        canon = min(
            tuple(_conj(tau, sigma) for sigma in combo) for tau in perms
        )
        reps.add(canon)

    covers = []
    for combo in sorted(reps):
        assignment = {name: ident for name in tree.edge_names}
        assignment.update(dict(zip(free, combo)))
        covers.append(GraphCover(graph, degree, tree, assignment))
    return tuple(covers)


def _transitive(gens: Sequence[tuple[int, ...]], n: int) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for g in gens:
            for j in (g[i], g.index(i)):
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
    return len(seen) == n


# ---------------------------------------------------------------------------
# Index bound and DOT export


@dataclass(frozen=True)
class IndexBound:
    product: int
    lcm: int

    def lines(self) -> list[str]:
        return [
            f"divisibility bound (proved): index divides {self.product}",
            f"least common multiple (conjectural sharp value): {self.lcm}",
        ]


def index_bound(local_indices: Mapping[str, int] | Sequence[int]) -> IndexBound:
    """Product of local indices (the proved bound) and their lcm.

    The product is the established divisibility bound; the lcm is reported
    alongside as the conjectural sharp value, without adjudicating.
    """
    if isinstance(local_indices, Mapping):
        values = [local_indices[k] for k in sorted(local_indices)]
    else:
        values = list(local_indices)
    if not values:
        raise ValueError("need at least one local index")
    for v in values:
        if int(v) < 1:
            raise ValueError(f"local indices must be positive, got {v}")
    prod = 1
    for v in values:
        prod *= int(v)
    return IndexBound(product=prod, lcm=math.lcm(*[int(v) for v in values]))


def export_dot(graph: ReductionGraph, tree: SpanningTree | None = None) -> str:
    """Byte-deterministic DOT text; tree edges solid, non-tree dashed."""
    graph.require_valid()
    lines = ["graph reduction {"]
    for p in graph.points:
        lines.append(f'  "{p}" [shape=circle, class=point];')
    for c in graph.components:
        lines.append(f'  "{c}" [shape=box, class=component];')
    for name in graph.edge_names():
        p = graph.point_end(name)
        u = graph.component_end(name)
        style = "solid"
        if tree is not None and name not in tree.edge_names:
            style = "dashed"
        lines.append(f'  "{p}" -- "{u}" [label="{name}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"

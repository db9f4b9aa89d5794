"""Bipartite reduction graphs: trees, cycle rank, covers, index bounds.

A reduction graph has two vertex classes (point vertices and component
vertices), edges called branches joining one vertex of each class, and may
have parallel edges, so it is stored as an edge list.  Validation never
aborts; it reports every violated invariant.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Sequence


class InvalidGraphError(ValueError):
    """Raised when an operation requires a graph that fails validation."""


class ScaleError(ValueError):
    """The requested enumeration exceeds a fixed cap: ``COVER_SCAN_CAP`` for
    covers, ``gog.FUNCTOR_SET_CAP`` for presentation homs and the torsor
    functor sets."""


# Cover enumeration refuses a scan of more tuples than this rather than run
# unbounded: rank 2 up to degree 8, rank 3 up to degree 5, rank 4 up to 4.
COVER_SCAN_CAP = 1_000_000


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
        self._violations: tuple[str, ...] | None = None
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
        # both classes are sorted, so a repeated label sits next to itself
        repeated = {a for vs in (self.points, self.components) for a, b in zip(vs, vs[1:])
                    if a == b}
        if repeated:
            raise ValueError(f"vertex labels declared twice: {sorted(repeated)}")
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

    def validate(self) -> tuple[str, ...]:
        """Check bipartiteness, connectivity, endpoint references, degrees;
        every violated invariant, none when the graph is valid."""
        if self._violations is not None:
            return self._violations
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
        self._violations = tuple(violations)
        return self._violations

    def require_valid(self) -> None:
        violations = self.validate()
        if violations:
            raise InvalidGraphError("; ".join(violations))

    def __repr__(self) -> str:
        return (
            f"ReductionGraph(points={list(self.points)}, "
            f"components={list(self.components)}, edges={len(self.edges)})"
        )


class SpanningTree:
    """A spanning edge subset of a validated reduction graph."""

    __slots__ = ("graph", "edge_names")

    def __init__(self, graph: ReductionGraph, edge_names: Iterable[str]):
        graph.require_valid()
        names = tuple(sorted(edge_names))
        known = set(graph.edge_names())
        for n in names:
            if n not in known:
                raise ValueError(f"tree edge {n!r} is not an edge of the graph")
        if len(names) != len(graph.vertices) - 1:
            raise ValueError("tree edge count must be |vertices| - 1")
        if not _spans(graph, names):
            raise ValueError("edge subset does not span the graph acyclically")
        self.graph = graph
        self.edge_names = names

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


def enumerate_connected_covers(
    graph: ReductionGraph, degree: int, tree: SpanningTree | None = None
) -> tuple[dict[str, tuple[int, ...]], ...]:
    """Connected degree-n covers up to simultaneous sheet relabeling, each as
    its sheet permutation per branch, the identity on tree branches.

    Covers correspond to tuples of sheet permutations on the r non-tree
    edges; the cover is connected iff the generated permutation group acts
    transitively on sheets, and two tuples give isomorphic covers iff they are
    simultaneously conjugate.  Representatives are the lexicographically
    least tuple of each class, returned in sorted order.

    The least tuple (s1, ..., sr) of a class has s1 least in its S_n
    conjugacy class, and (s2, ..., sr) least under conjugation by the
    centralizer C(s1).  So for the least permutation c of each cycle type the
    tuples (s2, ..., sr) are scanned in lexicographic order: the first
    unmarked transitive one is a representative, and its whole C(c)-orbit is
    then marked.  That is about p(n) * (n!)^(r-1) tuple visits, p(n) the
    number of partitions of n, against (n!)^(r+1) for minimizing every tuple
    over all n! conjugations (the oracle the tests keep).  A scan larger than
    ``COVER_SCAN_CAP`` raises ``ScaleError`` before any permutation is built.
    """
    graph.require_valid()
    if degree < 1:
        raise ValueError(f"cover degree must be >= 1, got {degree}")
    if tree is None:
        tree = maximal_tree(graph)
    free = tree.non_tree_edges()
    n = degree
    ident = tuple(range(n))
    if free:
        reps = _least_transitive_tuples(n, len(free))
    else:
        reps = [()] if n == 1 else []

    covers = []
    for combo in reps:
        assignment = {name: ident for name in tree.edge_names}
        assignment.update(zip(free, combo))
        covers.append(assignment)
    return tuple(covers)


def _least_transitive_tuples(n: int, r: int) -> list[tuple[tuple[int, ...], ...]]:
    """The least tuple of every conjugacy class of transitive r-tuples in
    S_n (r >= 1), in sorted order."""
    # p(n) * max(n!, (n!)^(r-1)) tuples, refused as soon as a partial product
    # passes the cap, so no big number is ever formed
    fact = capped_product(range(2, n + 1), COVER_SCAN_CAP)
    if fact is None or capped_product(
        [_partition_count(n), *itertools.repeat(fact, max(1, r - 1))], COVER_SCAN_CAP
    ) is None:
        raise ScaleError(
            f"degree-{n} covers of a rank-{r} graph would scan more tuples than "
            f"allowed (cap {COVER_SCAN_CAP})"
        )
    perms = sorted(itertools.permutations(range(n)))
    index = {perm: i for i, perm in enumerate(perms)}
    firsts = {}  # cycle type -> its least permutation, inserted in sorted order
    for perm in perms:
        firsts.setdefault(_cycle_type(perm), perm)
    out = []
    for c in firsts.values():
        centralizer: list[tuple[int, ...]] = []  # built at c's first representative
        seen = bytearray(fact ** (r - 1))
        for pos, rest in enumerate(itertools.product(perms, repeat=r - 1)):
            if seen[pos] or not _transitive((c, *rest), n):
                continue
            out.append((c, *rest))
            if not centralizer:
                centralizer = [tau for tau in perms if _conj(tau, c) == c]
            for tau in centralizer:
                mark = 0
                for sigma in rest:
                    mark = mark * fact + index[_conj(tau, sigma)]
                seen[mark] = 1
    return out


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def capped_product(factors: Iterable[int], cap: int) -> int | None:
    """The product of positive factors, or None as soon as a partial product
    passes ``cap``, so no number much larger than the cap is formed."""
    out = 1
    for f in factors:
        out *= f
        if out > cap:
            return None
    return out


def _partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


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


def index_bound(local_indices: Mapping[str, int] | Sequence[int]) -> tuple[int, int]:
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
    return prod, math.lcm(*[int(v) for v in values])


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

"""Bipartite reduction graphs: trees, cycle rank, covers, index bounds.

A reduction graph has two vertex classes (point vertices and component
vertices), edges called branches joining one vertex of each class, and may
have parallel edges, so it is stored as an edge list.  Validation never
aborts; it reports every violated invariant.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence


class InvalidGraphError(ValueError):
    """Raised when an operation requires a graph that fails validation."""


class ScaleError(ValueError):
    """A size or a search passes its fixed cap; ``refuse_past`` raises it."""


def refuse_past(what: str, factors: Iterable[int], cap: int) -> int:
    """The product of the positive ``factors``, a size or a count of work.

    Raises ``ScaleError`` naming ``what`` and the cap as soon as a partial
    product passes ``cap``, so no number much larger than the cap is formed.
    Every size cap of the package is checked here.
    """
    total = 1
    for f in factors:
        total *= f
        if total > cap:  # the index cap, of 4,300 digits, is shown by its length
            shown = cap if cap < 10**18 else f"{len(str(cap))} digits"
            raise ScaleError(f"{what} passes the cap of {shown}")
    return total


def read_int(value, path: str) -> int:
    """A document integer, read as ``int`` reads it; a bool or a fractional
    number is refused with a ``ValueError`` naming ``path``, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{path}: not an integer: {value!r}")
    return int(value)


def read_list(value, path: str) -> list:
    """A document list; a string or an object, which would iterate as one,
    is refused with a ``ValueError`` naming ``path``."""
    if not isinstance(value, list):
        raise ValueError(f"{path}: not a list: {value!r}")
    return value


# Cover enumeration refuses a scan of more tuples than this rather than run
# unbounded: rank 2 up to degree 8, rank 3 up to degree 5, rank 4 up to 4.
COVER_SCAN_CAP = 1_000_000

# ``spanning_trees`` refuses to test more edge subsets than this.
TREE_SCAN_CAP = 100_000


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
            if not self.edges_at(v):
                violations.append(f"vertex {v} has degree 0")
        if declared and not violations:
            missing = _unreached(self, self._edge_names)
            if missing:
                violations.append(f"graph is disconnected: unreachable {missing}")
        self._violations = tuple(violations)
        return self._violations

    def require_valid(self) -> None:
        violations = self.validate()
        if violations:
            raise InvalidGraphError("; ".join(violations))


def _unreached(graph: ReductionGraph, names: Iterable[str]) -> list[str]:
    """The vertices, in canonical order, that the edges ``names`` do not join
    to the least vertex, by one union-find pass over those edges."""
    parent = {v: v for v in graph.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for n in names:
        a, b = graph._ends[n]
        parent[find(a)] = find(b)
    root = find(graph.vertices[0])
    return [v for v in graph.vertices if find(v) != root]


def is_tree(graph: ReductionGraph) -> bool:
    graph.require_valid()
    return len(graph.edges) == len(graph.vertices) - 1


def cycle_rank(graph: ReductionGraph) -> int:
    """First Betti number |E| - |V| + 1 of the connected graph."""
    graph.require_valid()
    return len(graph.edges) - len(graph.vertices) + 1


def maximal_tree(graph: ReductionGraph) -> tuple[str, ...]:
    """Deterministic spanning tree, as its sorted edge names: grow from the
    least vertex, taking at each step the least-named edge with exactly one
    endpoint in the tree."""
    graph.require_valid()
    reached = {graph.vertices[0]}
    chosen: list[str] = []
    while len(reached) < len(graph.vertices):
        n, a, b = next(e for e in graph.edges if (e[1] in reached) != (e[2] in reached))
        chosen.append(n)
        reached.update((a, b))
    return tuple(sorted(chosen))


def spanning_trees(graph: ReductionGraph) -> tuple[tuple[str, ...], ...]:
    """All spanning trees, each as its sorted edge names, enumerated in
    canonical edge-subset order."""
    graph.require_valid()
    names = graph.edge_names()
    k = len(graph.vertices) - 1
    refuse_past(f"the spanning-tree scan of C({len(names)}, {k}) edge subsets",
                [math.comb(len(names), k)], TREE_SCAN_CAP)
    # |V| - 1 edges that join every vertex form a tree
    return tuple(subset for subset in itertools.combinations(names, k)
                 if not _unreached(graph, subset))


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
    graph: ReductionGraph, degree: int
) -> tuple[dict[str, tuple[int, ...]], ...]:
    """Connected degree-n covers up to simultaneous sheet relabeling, each as
    its sheet permutation per branch, the identity on the branches of
    ``maximal_tree``.

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
    tree = maximal_tree(graph)
    free = tuple(n for n in graph.edge_names() if n not in tree)
    n = degree
    if free:
        reps = _least_transitive_tuples(n, len(free))
    else:
        reps = [()] if n == 1 else []

    ident = tuple(range(n)) if reps else ()  # no cover of a tree past degree 1
    covers = []
    for combo in reps:
        assignment = {name: ident for name in tree}
        assignment.update(zip(free, combo))
        covers.append(assignment)
    return tuple(covers)


def _least_transitive_tuples(n: int, r: int) -> list[tuple[tuple[int, ...], ...]]:
    """The least tuple of every conjugacy class of transitive r-tuples in
    S_n (r >= 1), in sorted order."""
    # p(n) * max(n!, (n!)^(r-1)) tuples; n! is refused first, so p(n) is
    # only counted for a small n
    what = f"the tuple scan for degree-{n} covers of a rank-{r} graph"
    fact = refuse_past(what, range(2, n + 1), COVER_SCAN_CAP)
    refuse_past(what, [_partition_count(n), *itertools.repeat(fact, max(1, r - 1))],
                COVER_SCAN_CAP)
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


def index_bound(local_indices: Mapping[str, int]) -> tuple[int, int]:
    """Product of local indices (the proved bound) and their lcm.

    The product is the established divisibility bound; the lcm is reported
    alongside as the conjectural sharp value, without adjudicating.  The
    indices are those ``WorkbenchInput.local_indices`` admitted: at least
    one, each a positive integer.
    """
    return math.prod(local_indices.values()), math.lcm(*local_indices.values())


def _quoted(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def export_dot(graph: ReductionGraph) -> str:
    """Byte-deterministic DOT text; edges of ``maximal_tree`` solid, the
    others dashed.  Names are quoted with their backslashes and double
    quotes escaped."""
    tree = maximal_tree(graph)
    lines = ["graph reduction {"]
    for p in graph.points:
        lines.append(f"  {_quoted(p)} [shape=circle, class=point];")
    for c in graph.components:
        lines.append(f"  {_quoted(c)} [shape=box, class=component];")
    for name in graph.edge_names():
        style = "solid" if name in tree else "dashed"
        p, u = _quoted(graph.point_end(name)), _quoted(graph.component_end(name))
        lines.append(f"  {p} -- {u} [label={_quoted(name)}, style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"

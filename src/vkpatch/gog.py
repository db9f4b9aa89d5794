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

import itertools
import operator
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence

from .graphs import (
    ReductionGraph,
    is_tree,
    maximal_tree,
    refuse_past,
    spanning_trees,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Presentation,
    enumerate_homs,
    group_presentation,
    iter_homs,
)

# the vertex join's candidates, and the global and fiber-product functor
# sets of the patching verifiers, are refused beyond this many elements
FUNCTOR_SET_CAP = 2_000_000


class EdgeMapError(ValueError):
    """An edge map that does not fit its branch; carries the branch name."""

    def __init__(self, branch: str, message: str):
        super().__init__(message)
        self.branch = branch


class GraphOfFiniteGroups:
    """Vertex and edge groups over a validated reduction graph.

    ``edge_maps[name]`` holds the two monomorphisms of the branch's group,
    keyed ``"to_point"`` and ``"to_component"``; both must be injective.

    The graph is also indexed by position, vertices in ``vertices`` order
    and branches in ``edge_names`` order, so that the join and the natural
    maps of the patching verifiers never look up a name:

    - ``vertices``: the vertex labels in the order a breadth-first search of
      ``maximal_tree`` reaches them from the least vertex, so every vertex
      after the first comes after its tree parent;
    - ``incidence``: per vertex, (branch, end) for each branch in
      ``edges_at`` order, with end 0 at the point and 1 at the component;
    - ``branch_ends``: per branch, (point, its slot, component, its slot),
      a slot being the branch's place in that vertex's ``incidence``;
    - ``branch_maps``: per branch, the to_point and to_component tables.
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
        vpos = {v: i for i, v in enumerate(graph.vertices)}
        slot = {(v, name): k for v in graph.vertices for k, name in enumerate(graph.edges_at(v))}
        ends, tables = [], []
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
            ends.append((vpos[p], slot[p, name], vpos[u], slot[u, name]))
            tables.append((to_p.mapping, to_u.mapping))
        incidence = [[(0, 0)] * len(graph.edges_at(v)) for v in graph.vertices]
        for b, (p, p_slot, u, u_slot) in enumerate(ends):
            incidence[p][p_slot] = (b, 0)
            incidence[u][u_slot] = (b, 1)
        # renumber the label-order tables above as the maximal tree's search reaches them
        tree = set(maximal_tree(graph))
        bfs, _ = _tree_search(incidence, ends, [name in tree for name in graph.edge_names()])
        at = {v: i for i, (v, _) in enumerate(bfs)}
        self.vertices = tuple([graph.vertices[v] for v, _ in bfs])
        self.incidence = tuple([tuple(incidence[v]) for v, _ in bfs])
        self.branch_ends = tuple([(at[p], p_slot, at[u], u_slot) for p, p_slot, u, u_slot in ends])
        self.branch_maps = tuple(tables)


def _tree_search(incidence, branch_ends, in_tree: Sequence[bool]) -> tuple[list, list]:
    """Breadth-first search of a spanning tree from vertex 0 on the position
    tables (Serre, *Trees*, §I.5): the vertices as reached, each with the
    tree branch reaching it (``None`` at vertex 0), and the steps below
    vertex 0 as (vertex, slot, earlier vertex, slot) of that branch."""
    bfs, steps, reached = [(0, None)], [], {0}
    for v, _ in bfs:
        for k, (b, end) in enumerate(incidence[v]):
            p, p_slot, u, u_slot = branch_ends[b]
            w, w_slot = (u, u_slot) if end == 0 else (p, p_slot)
            if in_tree[b] and w not in reached:
                reached.add(w)
                bfs.append((w, b))
                steps.append((w, w_slot, v, k))
    return bfs, steps


class VanKampenPresentation:
    """The spanning-tree presentation of a graph of groups.

    Generators are one symbol per vertex-group element plus one letter per
    branch; generator order follows a BFS of the spanning tree so that the
    hom enumerator can prune across vertices as early as possible.  The
    tree-independent position tables live on the graph of groups; the
    fields here, in the same positions, are the ones the tree fixes:

    - ``vertex_blocks``: each vertex's run of generator symbols, as a slice;
    - ``edge_symbols``: each branch's letter;
    - ``tree_steps``: the BFS below the root (vertex 0) as (vertex, slot,
      earlier vertex, slot) of the tree branch joining the two;
    - ``tree_branches``: the tree branches.
    """

    __slots__ = (
        "gog", "tree", "presentation", "vertex_blocks", "edge_symbols", "tree_steps",
        "tree_branches",
    )

    def __init__(
        self,
        gog: GraphOfFiniteGroups,
        tree: tuple[str, ...],
        presentation: Presentation,
        vertex_blocks: tuple[slice, ...],
        edge_symbols: tuple[int, ...],
        tree_steps: tuple[tuple[int, int, int, int], ...],
        tree_branches: tuple[int, ...],
    ):
        self.gog = gog
        self.tree = tree
        self.presentation = presentation
        self.vertex_blocks = vertex_blocks
        self.edge_symbols = edge_symbols
        self.tree_steps = tree_steps
        self.tree_branches = tree_branches

    def family_key(self, assignment: Sequence[int]) -> tuple:
        """The hom family of a generator assignment as ``HomFamily.key``
        holds it: vertex tables in position order, then branch conjugators."""
        return (
            tuple(tuple(assignment[block]) for block in self.vertex_blocks),
            tuple(assignment[s] for s in self.edge_symbols),
        )


def build_presentation(
    gog: GraphOfFiniteGroups, tree: tuple[str, ...] | None = None
) -> VanKampenPresentation:
    """Presentation of the fundamental group relative to a spanning tree,
    given by its edge names (``maximal_tree`` by default)."""
    if tree is None:
        tree = maximal_tree(gog.graph)
    vertices, names = gog.vertices, gog.graph.edge_names()
    in_tree = [name in tree for name in names]
    bfs, steps = _tree_search(gog.incidence, gog.branch_ends, in_tree)

    generators: list[str] = []
    starts = [0] * len(vertices)
    edge_symbols: list[int | None] = [None] * len(names)

    def add_edge_letter(b: int) -> None:
        edge_symbols[b] = len(generators)
        generators.append(f"e:{names[b]}")

    for v, via in bfs:
        group = gog.vertex_groups[vertices[v]]
        starts[v] = len(generators)
        generators.extend(f"{vertices[v]}:{group.label(a)}" for a in range(group.order))
        if via is not None:
            add_edge_letter(via)
    for b in range(len(names)):
        if edge_symbols[b] is None:
            add_edge_letter(b)

    relators: list[tuple[int, ...]] = []
    for v, _ in bfs:
        s = starts[v] + 1
        for a, row in enumerate(gog.vertex_groups[vertices[v]].table):
            relators.extend((s + a, s + c, -(s + ac)) for c, ac in enumerate(row))
    for b, name in enumerate(names):
        e = edge_symbols[b] + 1
        if in_tree[b]:
            relators.append((e,))
        p, _, u, _ = gog.branch_ends[b]
        to_p, to_u = gog.branch_maps[b]
        sp, su = starts[p] + 1, starts[u] + 1
        identity = gog.edge_groups[name].identity
        relators.extend(
            (e, sp + to_p[g], -e, -(su + to_u[g])) for g in range(len(to_p)) if g != identity
        )

    return VanKampenPresentation(
        gog,
        tree,
        Presentation(tuple(generators), tuple(relators)),
        vertex_blocks=tuple(
            slice(starts[v], starts[v] + gog.vertex_groups[name].order)
            for v, name in enumerate(vertices)
        ),
        edge_symbols=tuple(edge_symbols),
        tree_steps=tuple(steps),
        tree_branches=tuple(b for b in range(len(names)) if in_tree[b]),
    )


class HomFamily:
    """A hom of the presented fundamental group into the test group, held as
    its family key: vertex tables in position order, then one conjugator per
    branch in branch order.

    The defining compatibility, checked on construction: for every branch at
    P on U and every edge-group element g,

        f_U(to_component(g)) = c . f_P(to_point(g)) . c^-1

    where c is the branch's conjugator.  The vertex tables are taken to be
    homs: the presentation's relators force it for enumerated families, and
    ``solve_patching`` validates the tables it induces.
    """

    __slots__ = ("gog", "group", "key")

    def __init__(self, gog: GraphOfFiniteGroups, group: FiniteGroup, key: tuple):
        self.gog = gog
        self.group = group
        self.key = key
        self.__post_init__()

    def __post_init__(self):
        """The edge relation on every branch, on the graph's position tables.
        perfbench/tracer.py counts the calls by this name."""
        tables, conjugators = self.key
        conj = self.group.conjugation_table()
        for b, ((p, _, u, _), (to_p, to_u)) in enumerate(
            zip(self.gog.branch_ends, self.gog.branch_maps)
        ):
            f_p, f_u, row = tables[p], tables[u], conj[conjugators[b]]
            for g, (a, c) in enumerate(zip(to_p, to_u)):
                if f_u[c] != row[f_p[a]]:
                    name = self.gog.graph.edge_names()[b]
                    raise ValueError(
                        f"family violates the edge relation on branch {name} "
                        f"at element {self.gog.edge_groups[name].label(g)}"
                    )


def enumerate_pi1_homs(
    gog: GraphOfFiniteGroups,
    group: FiniteGroup,
) -> tuple[HomFamily, ...]:
    """All homomorphisms of the presented fundamental group into the test
    group, as hom families (conjugators the identity on tree edges).
    Ordered lexicographically over the presentation's generators."""
    presentation = build_presentation(gog)
    return tuple(
        HomFamily(gog, group, presentation.family_key(assignment))
        for assignment in iter_homs(presentation.presentation, group)[1]
    )


def backtrack_vertices(
    gog: GraphOfFiniteGroups,
    candidates: Sequence[Sequence],
    restrict: Callable[[int, int, object], Hashable],
) -> list[tuple]:
    """Every choice of one candidate per vertex whose two ends restrict
    equally to every branch.

    ``candidates[i]`` lists the candidates at ``gog.vertices[i]`` and
    ``restrict(i, b, cand)`` is the restriction of one of them to branch b
    (a position in ``edge_names``).  Vertices are chosen in position order,
    the maximal tree's search, so every vertex after the first has a branch
    to an earlier one.  Each vertex's candidates are bucketed by their
    restrictions to the branches whose other end comes earlier, so a partial
    choice extends by one lookup (a hash join) instead of a test per
    candidate.  Buckets keep candidate order, so the choices, tuples in
    position order, come out in lexicographic order of the candidate
    positions.  Each bucket a partial choice is extended with is charged to
    the budget, ``FUNCTOR_SET_CAP``."""
    n = len(gog.vertices)
    joins: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for b, (p, _, u, _) in enumerate(gog.branch_ends):
        early, late = sorted((p, u))
        joins[late].append((early, b))
    # per vertex: the restrictions of the earlier ends' candidates to be
    # probed, and its own candidates bucketed by the matching restrictions
    probes: list[list[tuple[int, list]]] = []
    buckets: list[dict[tuple, list[int]]] = []
    for j in range(n):
        probes.append([(i, [restrict(i, b, c) for c in candidates[i]]) for i, b in joins[j]])
        index: dict[tuple, list[int]] = {}
        for k, c in enumerate(candidates[j]):
            index.setdefault(tuple(restrict(j, b, c) for _, b in joins[j]), []).append(k)
        buckets.append(index)

    picks = [0] * n
    out: list[tuple] = []
    last = candidates[n - 1]
    tried = 0

    def matching(j: int) -> Sequence[int]:
        """The positions of vertex j's candidates that agree with the picks
        at the earlier ends of its branches, charged to the budget."""
        nonlocal tried
        bucket = buckets[j].get(tuple([restricted[picks[i]] for i, restricted in probes[j]]), ())
        tried += len(bucket)
        refuse_past("the vertex join", (tried,), FUNCTOR_SET_CAP)
        return bucket

    def complete() -> None:
        head = tuple([candidates[i][picks[i]] for i in range(n - 1)])
        out.extend([head + (last[k],) for k in matching(n - 1)])

    # one iterator of matching positions per vertex from the first to the
    # one being picked, all but the last (a valid graph has a point and a
    # component), so the depth is not the call depth
    stack = [iter(matching(0))]
    while stack:
        j = len(stack) - 1
        for k in stack[-1]:
            picks[j] = k
            if j + 2 < n:
                stack.append(iter(matching(j + 1)))
                break
            complete()
        else:
            stack.pop()
    return out


def naive_limit_homs(gog: GraphOfFiniteGroups, group: FiniteGroup) -> tuple[tuple, ...]:
    """The compatible-system model: vertex-hom families whose edge
    restrictions agree exactly (all conjugators the identity), each as its
    vertex tables in position order, in sorted order."""
    def restrict(i: int, b: int, table: tuple) -> tuple:
        to_p, to_u = gog.branch_maps[b]
        return tuple([table[a] for a in (to_p if i == gog.branch_ends[b][0] else to_u)])

    candidates = [enumerate_homs(group_presentation(gog.vertex_groups[v]), group) for v in gog.vertices]
    # candidates come in lexicographic order, so the join's output is sorted
    return tuple(backtrack_vertices(gog, candidates, restrict))


# ---------------------------------------------------------------------------
# Verifiers


def verify_tree_vankampen(
    gog: GraphOfFiniteGroups, group: FiniteGroup
) -> tuple[list[str], dict]:
    """Compare presentation homs against exact compatible systems.

    On a tree the map that forgets edge letters must be a bijection onto the
    families with exact edge agreement; on a non-tree graph the report flags
    the graph and exhibits the discrepancy witness when one exists for this
    test group.  Returns the report's human lines and its machine block.
    """
    tree_flag = is_tree(gog.graph)
    vk = build_presentation(gog)
    # each hom's vertex images in position order, against each naive family's
    # tables run together; a valid graph has two vertices at least, so the
    # getter reads two positions or more and returns tuples
    vertex_images = operator.itemgetter(
        *(x for block in vk.vertex_blocks for x in range(block.start, block.stop))
    )
    # the homs are streamed, and only each distinct restriction is kept, with
    # the first hom restricting to it; the search refuses when called, so
    # before the naive join runs
    first: dict[tuple, tuple] = {}
    duplicate = None
    pi1_count, homs = iter_homs(vk.presentation, group)
    for a in homs:
        k = vertex_images(a)
        if k not in first:
            first[k] = a
        elif duplicate is None:
            duplicate = a
    naive = naive_limit_homs(gog, group)
    naive_keys = {tuple(itertools.chain.from_iterable(tables)) for tables in naive}

    lands = all(k in naive_keys for k in first)
    injective = duplicate is None
    surjective = first.keys() >= naive_keys
    bijection = lands and injective and surjective

    witness = None
    if not lands:
        # restrictions come in the order of their first homs, so this is the
        # first hom that does not land
        bad = next(a for k, a in first.items() if k not in naive_keys)
        witness = (
            "a presentation hom restricts to a family without exact edge "
            f"agreement; conjugators {_conj_desc(vk, group, bad)}"
        )
    elif not injective:
        witness = (
            "two presentation homs restrict identically; the extra one "
            f"has conjugators {_conj_desc(vk, group, duplicate)}"
        )

    lines = [
        f"graph is a tree: {tree_flag}",
        f"presentation homs: {pi1_count}",
        f"naive limit homs: {len(naive)}",
        f"restriction map is a bijection: {bijection}",
    ]
    if not tree_flag:
        lines.insert(0, "non-tree detected")
    if witness:
        lines.append(f"witness: {witness}")
    machine = {
        "law": "tree-direct-limit",
        "graph_is_tree": tree_flag,
        "pi1_count": pi1_count,
        "naive_count": len(naive),
        "bijection": bijection,
        "witness": witness,
        "passed": bijection if tree_flag else True,
    }
    return lines, machine


def _conj_desc(vk: VanKampenPresentation, group: FiniteGroup, assignment: Sequence[int]) -> str:
    conj = zip(vk.gog.graph.edge_names(), vk.family_key(assignment)[1])
    return "{" + ", ".join(f"{n}: {group.label(c)}" for n, c in conj) + "}"


def verify_tree_independence(gog: GraphOfFiniteGroups, group: FiniteGroup) -> tuple[list[str], dict]:
    """Hom counts must not depend on the choice of maximal tree.

    Each spanning tree's count is the hom search's, taken without walking a
    hom.  Returns the report's human lines and machine block.
    """
    counts = {
        "{" + ",".join(tree) + "}": iter_homs(build_presentation(gog, tree).presentation, group)[0]
        for tree in spanning_trees(gog.graph)
    }
    all_equal = len(set(counts.values())) == 1
    lines = [f"spanning trees: {len(counts)}"]
    lines.extend(f"  tree {name}: {count} homs" for name, count in counts.items())
    lines.append(f"counts identical across trees: {all_equal}")
    machine = {"law": "tree-independence", "counts": counts, "all_equal": all_equal,
               "passed": all_equal}
    return lines, machine


def conjugacy_class_count(group: FiniteGroup, homs: Iterable[Sequence[int]]) -> int:
    """Number of homs up to simultaneous conjugation by the test group.

    A hom is its tuple of generator images, as ``iter_homs`` yields it;
    conjugating the hom conjugates every entry."""
    remaining = {tuple(h) for h in homs}
    classes = 0
    while remaining:
        h = remaining.pop()
        classes += 1
        for table in group.conjugation_table():
            remaining.discard(tuple(table[x] for x in h))
    return classes

"""The join, the cached index-table natural maps, the relator-solved hom
search, the hom-family check and the two pruned descent searches against the
loops they replace.

The oracles below are the straightforward versions: a backtracker that tests
every candidate against a branch-agreement predicate, natural maps that walk
the graph by vertex and branch name with markings keyed by branch, the
pushout verifier's comparison one global functor at a time, a hom
search that tries every candidate image of every generator, an
edge-relation check that walks the graph by name too, the Artin-Schreier
oracle that solves every candidate beta in product order, the Kummer
search that forms its series by precision-tracked products and solves every
candidate's system at full truncation by a full Gauss-Jordan elimination,
and that system's rows made at once from whole truncated powers.
The fast paths must reproduce them exactly, order and messages included.
"""

from __future__ import annotations

import itertools
import random

import pytest

from catalog import (
    add_extra_edges,
    circle_graph,
    diamond_graph,
    dihedral4,
    groups_up_to,
    presentation_from_words,
    quaternion8,
    random_gog,
    random_tree_graph,
    theta_graph,
    trivial_gog,
    trivial_hom,
    with_trivial_edges,
)
from vkpatch import descent as descent_mod
from vkpatch import groups as groups_mod
from vkpatch.descent import (
    DESCENDS,
    FAILS_WITHIN_BOUNDS,
    INCONCLUSIVE,
    OBSTRUCTED_WITHIN_BOUNDS,
    AS_CANDIDATE_CAP,
    KUMMER_WORK_CAP,
    ASInstance,
    KummerInstance,
    SearchReport,
    _frobenius,
    _kummer_report,
    _relation_rows,
    _oracle_report,
    _valid_betas,
    as_brute_force_oracle,
    kummer_obstruction,
)
from vkpatch.fields import FiniteField, poly_mul, poly_strip
from vkpatch.gog import (
    GraphOfFiniteGroups,
    HomFamily,
    build_presentation,
    enumerate_pi1_homs,
    naive_limit_homs,
)
from vkpatch.graphs import ReductionGraph, ScaleError, _unreached, refuse_past, spanning_trees
from vkpatch.groups import (
    GroupHom,
    Presentation,
    cyclic,
    enumerate_homs,
    from_table,
    group_presentation,
    iter_homs,
    symmetric,
)
from vkpatch.series import LaurentSeries
from vkpatch.torsors import (
    _enumerate_fiber_data,
    _NaturalMaps,
    _restriction,
    inverse_natural_map,
    natural_map,
    verify_groupoid_pushout,
)

try:
    from hypothesis import HealthCheck, given, reject, seed, settings, strategies as st
except ImportError:  # the sweep below is optional
    given = None


# -- oracles ---------------------------------------------------------------------


def filter_vertices(gog, candidates, agrees):
    """Every choice of one candidate per vertex passing ``agrees(chosen,
    branch)`` on every branch, tested as soon as both ends are chosen; in
    lexicographic order of the candidate positions."""
    vertices = gog.vertices
    pos = {v: i for i, v in enumerate(vertices)}
    edges_by_later = {v: [] for v in vertices}
    for name in gog.graph.edge_names():
        p, u = gog.graph.point_end(name), gog.graph.component_end(name)
        edges_by_later[p if pos[p] > pos[u] else u].append(name)

    chosen = {}
    out = []

    def extend(i):
        if i == len(vertices):
            out.append(tuple(chosen[v] for v in vertices))
            return
        v = vertices[i]
        for cand in candidates[v]:
            chosen[v] = cand
            if all(agrees(chosen, n) for n in edges_by_later[v]):
                extend(i + 1)
        chosen.pop(v, None)

    extend(0)
    return out


def branch_agrees(gog, group, datum, edge):
    """Whether a local datum (keyed by vertex name) agrees over one branch."""
    p, u = gog.graph.point_end(edge), gog.graph.component_end(edge)
    (hom_p, flags_p), (hom_u, flags_u) = datum[p], datum[u]
    gp = flags_p[gog.graph.edges_at(p).index(edge)]
    gu = flags_u[gog.graph.edges_at(u).index(edge)]
    to_p = gog.edge_maps[edge]["to_point"].mapping
    to_u = gog.edge_maps[edge]["to_component"].mapping
    return all(
        group.conjugate(gu, hom_u[a]) == group.conjugate(gp, hom_p[b])
        for a, b in zip(to_u, to_p)
    )


def local_candidates(gog, G):
    """Per vertex name: every hom table with every flag tuple."""
    return {
        v: [
            (table, (G.identity, *combo))
            for table in enumerate_homs(group_presentation(gog.vertex_groups[v]), G)
            for combo in itertools.product(range(G.order), repeat=len(gog.graph.edges_at(v)) - 1)
        ]
        for v in gog.vertices
    }


def filtered_fiber_data(gog, G):
    return filter_vertices(
        gog, local_candidates(gog, G), lambda chosen, e: branch_agrees(gog, G, chosen, e)
    )


def filtered_naive_limit(gog, G):
    def compatible(chosen, name):
        f_p = chosen[gog.graph.point_end(name)]
        f_u = chosen[gog.graph.component_end(name)]
        to_p = gog.edge_maps[name]["to_point"].mapping
        to_u = gog.edge_maps[name]["to_component"].mapping
        return all(f_u[a] == f_p[b] for a, b in zip(to_u, to_p))

    candidates = {
        v: enumerate_homs(group_presentation(gog.vertex_groups[v]), G) for v in gog.vertices
    }
    return filter_vertices(gog, candidates, compatible)


def natural_map_by_names(presentation, G, family_key, markings):
    """``natural_map`` walking the graph by name; markings keyed by branch."""
    graph = presentation.gog.graph
    tables, conj = family_key
    conjugators = dict(zip(graph.edge_names(), conj))
    datum = []
    for v, table in zip(presentation.gog.vertices, tables):
        shifted = [
            markings[e] if graph.point_end(e) == v else G.mul(markings[e], G.inv(conjugators[e]))
            for e in graph.edges_at(v)
        ]
        k = shifted[0]
        mapping = tuple(G.conjugate(k, x) for x in table)
        datum.append((mapping, tuple(G.mul(m, G.inv(k)) for m in shifted)))
    return tuple(datum)


def inverse_natural_map_by_names(presentation, G, datum):
    """``inverse_natural_map`` walking the graph by name; markings keyed by
    branch."""
    graph = presentation.gog.graph
    flag = {
        (v, e): f
        for v, (_, flags) in zip(presentation.gog.vertices, datum)
        for e, f in zip(graph.edges_at(v), flags)
    }
    # gauges along the tree by a name BFS from the least vertex
    gauges = {graph.vertices[0]: G.identity}
    queue = [graph.vertices[0]]
    for w in queue:
        for via in graph.edges_at(w):
            if via not in presentation.tree:
                continue
            p, u = graph.point_end(via), graph.component_end(via)
            v = p if w == u else u
            if v not in gauges:
                gauges[v] = G.mul(G.mul(G.inv(flag[v, via]), flag[w, via]), gauges[w])
                queue.append(v)
    b0 = min(graph.edge_names())
    p0 = graph.point_end(b0)
    shift = G.inv(G.mul(flag[p0, b0], gauges[p0]))
    gauges = {v: G.mul(a, shift) for v, a in gauges.items()}
    tables = tuple(
        tuple(G.conjugate(G.inv(gauges[v]), x) for x in table)
        for v, (table, _) in zip(presentation.gog.vertices, datum)
    )
    markings, conjugators = {}, []
    for e in graph.edge_names():
        p, u = graph.point_end(e), graph.component_end(e)
        markings[e] = G.mul(flag[p, e], gauges[p])
        conjugators.append(G.mul(G.mul(G.inv(gauges[u]), G.inv(flag[u, e])), markings[e]))
    return (tables, tuple(conjugators)), markings


def disagreeing_branch(presentation, G, datum):
    """The first branch over which the two ends of a local datum restrict
    differently (``torsors._restriction``); None when it agrees over every
    branch."""
    gog, conj = presentation.gog, G.conjugation_table()
    for b, (p, _, u, _) in enumerate(gog.branch_ends):
        if _restriction(gog, conj, p, b, datum[p]) != _restriction(gog, conj, u, b, datum[u]):
            return b
    return None


def per_element_functor_sets(gog, G):
    """The pushout verifier's comparison one global functor at a time, in
    ``product(pi1, markings)`` order, by the name-walking maps: each datum
    by ``natural_map_by_names``, added to the image set with an injectivity
    check, then branch agreement by ``branch_agrees`` and the round trip by
    ``inverse_natural_map_by_names``, on every element.  Returns the image
    set and whether the law holds."""
    presentation = build_presentation(gog)
    names = gog.graph.edge_names()
    pi1 = [presentation.family_key(a) for a in enumerate_homs(presentation.presentation, G)]
    markings_space = [dict(zip(names, (G.identity, *combo)))
                      for combo in itertools.product(range(G.order), repeat=len(names) - 1)]
    image = set()
    for key, markings in itertools.product(pi1, markings_space):
        datum = natural_map_by_names(presentation, G, key, markings)
        seen = len(image)
        image.add(datum)
        if len(image) == seen:
            raise AssertionError("restriction functor is not injective")
        by_name = dict(zip(gog.vertices, datum))
        if not all(branch_agrees(gog, G, by_name, e) for e in names):
            raise AssertionError("restriction broke branch agreement")
        if inverse_natural_map_by_names(presentation, G, datum) != (key, markings):
            raise AssertionError("inverse natural map failed the round trip")
    fiber = _enumerate_fiber_data(gog, G)
    passed = image == set(fiber) and len(fiber) == len(pi1) * len(markings_space)
    return image, passed


def edge_relation_violation_by_names(gog, G, key):
    """The edge-relation check of a family key walking the graph by name:
    the message of the first violation, or None when the key passes."""
    tables, conj = key
    vertex_tables = dict(zip(gog.vertices, tables))
    conjugators = dict(zip(gog.graph.edge_names(), conj))
    for name in gog.graph.edge_names():
        c = conjugators[name]
        f_p = vertex_tables[gog.graph.point_end(name)]
        f_u = vertex_tables[gog.graph.component_end(name)]
        to_p = gog.edge_maps[name]["to_point"]
        to_u = gog.edge_maps[name]["to_component"]
        for g in range(gog.edge_groups[name].order):
            if f_u[to_u(g)] != G.conjugate(c, f_p[to_p(g)]):
                return (
                    f"family violates the edge relation on branch {name} "
                    f"at element {gog.edge_groups[name].label(g)}"
                )
    return None


def try_every_candidate_homs(source, target):
    """``enumerate_homs`` without forward checking: every candidate image of
    each generator is tested against the relators whose last generator it
    is, under the same search budget."""
    r = len(source.generators)
    n = target.order
    buckets = [[] for _ in range(r)]
    for rel in source.relators:
        if rel:
            buckets[max(abs(letter) for letter in rel) - 1].append(rel)
    images = [0] * r
    out = []
    tried = 0

    def extend(depth):
        nonlocal tried
        if depth == r:
            out.append(tuple(images))
            return
        tried += n
        refuse_past(f"the hom search into {target.name}", (tried,), groups_mod.HOM_SEARCH_CAP)
        for cand in range(n):
            images[depth] = cand
            if all(_word_value(target, images, rel) == target.identity for rel in buckets[depth]):
                extend(depth + 1)

    extend(0)
    return tuple(out)


def unsegmented_homs(source, target):
    """The hom search as one backtracking walk over every generator: the
    same forward checking and budget as ``enumerate_homs``, without the
    stretches, so it solves the generators after an empty interface again
    on every path."""
    gens = source.generators
    r = len(gens)
    n = target.order
    buckets = [[] for _ in range(r)]
    for rel in source.relators:
        if not rel:
            continue
        buckets[max(abs(letter) for letter in rel) - 1].append(rel)
    solved = [None] * r
    for depth, bucket in enumerate(buckets):
        for k, rel in enumerate(bucket):
            at = [i for i, letter in enumerate(rel) if abs(letter) == depth + 1]
            if len(at) == 1:
                i = at[0]
                solved[depth] = (rel[i + 1:] + rel[:i], rel[i])
                del bucket[k]
                break

    table = target.table
    inv = target.inverse
    identity = target.identity
    vals = [identity] * (2 * r + 1)
    out = []
    what = f"the hom search into {target.name}"
    tried = 0
    if not r:
        return ((),)
    stack = []

    def push(depth):
        nonlocal tried
        tried += n
        groups_mod.refuse_past(what, (tried,), groups_mod.HOM_SEARCH_CAP)
        if solved[depth] is None:
            stack.append(iter(range(n)))
            return
        word, sign = solved[depth]
        acc = identity
        for letter in word:
            acc = table[acc][vals[letter]]
        stack.append(iter((inv[acc] if sign > 0 else acc,)))

    free_leaves = not buckets[r - 1]
    push(0)
    while stack:
        depth = len(stack) - 1
        if free_leaves and depth + 1 == r:
            head = tuple(vals[1:r])
            out.extend([head + (cand,) for cand in stack.pop()])
            continue
        bucket = buckets[depth]
        for cand in stack[-1]:
            vals[depth + 1] = cand
            vals[-depth - 1] = inv[cand]
            for rel in bucket:
                acc = identity
                for letter in rel:
                    acc = table[acc][vals[letter]]
                if acc != identity:
                    break
            else:
                if depth + 1 < r:
                    push(depth + 1)
                    break
                out.append(tuple(vals[1:r + 1]))
        else:
            stack.pop()
    return tuple(out)


def _word_value(group, images, rel):
    acc = group.identity
    for letter in rel:
        g = images[letter - 1] if letter > 0 else group.inverse[images[-letter - 1]]
        acc = group.mul(acc, g)
    return acc


# -- comparison ------------------------------------------------------------------


def assert_fast_paths_match(gog, G, max_globals=400):
    """The join equals the filter for both callers, and the natural maps
    equal the name-walking ones on about ``max_globals`` global functors
    spread over the whole set.  A ``ScaleError`` of the fiber join comes
    before any oracle runs."""
    fiber = _enumerate_fiber_data(gog, G)
    joined = naive_limit_homs(gog, G)
    assert list(joined) == filtered_naive_limit(gog, G)
    assert list(joined) == sorted(joined)

    pres = build_presentation(gog)
    assert fiber == filtered_fiber_data(gog, G)
    homs = enumerate_homs(pres.presentation, G)
    assert homs == try_every_candidate_homs(pres.presentation, G)

    names = gog.graph.edge_names()
    keys = [pres.family_key(a) for a in homs]
    markings_space = itertools.product(range(G.order), repeat=len(names) - 1)
    globals_ = itertools.product(keys, markings_space)
    stride = max(1, len(keys) * G.order ** (len(names) - 1) // max_globals)
    for key, combo in itertools.islice(globals_, 0, None, stride):
        markings = (G.identity, *combo)
        datum = natural_map(pres, G, key, markings)
        assert datum == natural_map_by_names(pres, G, key, dict(zip(names, markings)))
        assert disagreeing_branch(pres, G, datum) is None
        back_key, back_markings = inverse_natural_map(pres, G, datum)
        oracle_key, oracle_markings = inverse_natural_map_by_names(pres, G, datum)
        assert (back_key, dict(zip(names, back_markings))) == (oracle_key, oracle_markings)
        assert (back_key, back_markings) == (key, markings)

    # the index-table agreement check decides agreement like the predicate
    candidates = local_candidates(gog, G)
    for chosen in itertools.islice(itertools.product(*candidates.values()), 2000):
        by_name = dict(zip(gog.vertices, chosen))
        bad = [e for e in names if not branch_agrees(gog, G, by_name, e)]
        found = disagreeing_branch(pres, G, chosen)
        assert found == (names.index(bad[0]) if bad else None)
    return len(fiber), len(joined)


def _c2_circle():
    """C4 and S3 over a circle with C2 on both branches, glued along
    different involutions of S3."""
    c2, c4, s3 = cyclic(2), cyclic(4), symmetric(3)
    involutions = [x for x in range(s3.order) if x != s3.identity and s3.mul(x, x) == s3.identity]
    return GraphOfFiniteGroups(
        circle_graph(),
        {"P": c4, "U": s3},
        {"b1": c2, "b2": c2},
        {
            "b1": {"to_point": GroupHom(c2, c4, [0, 2]),
                   "to_component": GroupHom(c2, s3, [s3.identity, involutions[0]])},
            "b2": {"to_point": GroupHom(c2, c4, [0, 2]),
                   "to_component": GroupHom(c2, s3, [s3.identity, involutions[1]])},
        },
    )


def _c2_amalgam():
    """C4 and C6 glued over C2 along their order-2 subgroups."""
    c2, c4, c6 = cyclic(2), cyclic(4), cyclic(6)
    return GraphOfFiniteGroups(
        diamond_graph(),
        {"P": c4, "U": c6},
        {"b1": c2},
        {"b1": {"to_point": GroupHom(c2, c4, [0, 2]),
                "to_component": GroupHom(c2, c6, [0, 3])}},
    )


def relabel(rng, graph):
    """The same graph with vertex names drawn afresh, so that the root (the
    least vertex) need not be the point end of the least branch."""
    old = graph.points + graph.components
    new = dict(zip(old, rng.sample("ABCDEFGHJK", len(old))))
    return ReductionGraph(
        [new[p] for p in graph.points],
        [new[u] for u in graph.components],
        [(name, new[a], new[b]) for name, a, b in graph.edges],
    )


def _c2_off_root():
    """A path A - P - U whose least branch b1 lies away from the root A, so
    that inverting the natural map needs a nontrivial pinning translation."""
    c2, c4, s3 = cyclic(2), cyclic(4), symmetric(3)
    graph = ReductionGraph(["P"], ["A", "U"], [("b1", "P", "U"), ("b2", "P", "A")])
    return GraphOfFiniteGroups(
        graph,
        {"A": c4, "P": s3, "U": c2},
        {"b1": c2, "b2": c2},
        {
            "b1": {"to_point": GroupHom(c2, s3, [s3.identity, 1]),
                   "to_component": GroupHom(c2, c2, range(2))},
            "b2": {"to_point": GroupHom(c2, s3, [s3.identity, 1]),
                   "to_component": GroupHom(c2, c4, [0, 2])},
        },
    )


def _table_edge_identity_second():
    """A circle whose b1 edge group (and U's group) lists its identity
    second, so the edge relation is checked at the element of index 0."""
    c2 = cyclic(2)
    edge = from_table(["a", "e"], [["e", "a"], ["a", "e"]], name="E")
    at_u = from_table(["s", "i"], [["i", "s"], ["s", "i"]], name="V")
    return GraphOfFiniteGroups(
        circle_graph(),
        {"P": c2, "U": at_u},
        {"b1": edge, "b2": cyclic(1)},
        {
            "b1": {"to_point": GroupHom(edge, c2, [1, 0]),
                   "to_component": GroupHom(edge, at_u, [0, 1])},
            "b2": {"to_point": trivial_hom(cyclic(1), c2),
                   "to_component": trivial_hom(cyclic(1), at_u)},
        },
    )


CATALOG = {
    "diamond-trivial": lambda: trivial_gog(diamond_graph()),
    "circle-trivial": lambda: trivial_gog(circle_graph()),
    "theta-trivial": lambda: trivial_gog(theta_graph()),
    "diamond-c2-c3": lambda: with_trivial_edges(
        diamond_graph(), {"P": cyclic(2), "U": cyclic(3)}),
    "theta-s3-c3": lambda: with_trivial_edges(
        theta_graph(), {"P": symmetric(3), "U": cyclic(3)}),
    "diamond-c2-edge": _c2_amalgam,
    "circle-c2-edges": _c2_circle,
    "path-c2-edges-off-root": _c2_off_root,
    "circle-table-edge-identity-second": _table_edge_identity_second,
}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_fast_paths_match_the_oracles_on_the_catalog(name):
    gog = CATALOG[name]()
    sizes = [assert_fast_paths_match(gog, G) for G in (cyclic(2), cyclic(3), symmetric(3))]
    assert all(fiber > 0 and naive > 0 for fiber, naive in sizes)


def assert_column_pass_matches(monkeypatch, gog, G):
    """``verify_groupoid_pushout`` and ``per_element_functor_sets`` agree on
    the image set and the verdict, and the verifier round-trips every global
    functor."""
    image, round_trips = set(), []
    forward_columns, check_round_trips = _NaturalMaps.forward_columns, _NaturalMaps.check_round_trips

    def recording(self, key):
        hits = forward_columns(self, key)
        image.update(zip(*hits))
        return hits

    def counting(self, key, hits):
        round_trips.append(len(hits[0]))
        check_round_trips(self, key, hits)

    with monkeypatch.context() as patch:
        patch.setattr(_NaturalMaps, "forward_columns", recording)
        patch.setattr(_NaturalMaps, "check_round_trips", counting)
        _, report = verify_groupoid_pushout(gog, G)
    oracle_image, passed = per_element_functor_sets(gog, G)
    assert image == oracle_image
    assert report["passed"] == passed
    assert sum(round_trips) == report["global_raw"] == len(image)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_column_pass_matches_the_per_element_loop_on_the_catalog(monkeypatch, name):
    gog = CATALOG[name]()
    for G in (cyclic(2), cyclic(3), symmetric(3)):
        assert_column_pass_matches(monkeypatch, gog, G)


def _one_entry_changed(G, key):
    """Every key that differs from ``key`` in exactly one conjugator or one
    vertex-table entry."""
    tables, conj = key
    for b, c in enumerate(conj):
        for other in range(G.order):
            if other != c:
                yield tables, conj[:b] + (other,) + conj[b + 1:]
    for v, table in enumerate(tables):
        for x, y in enumerate(table):
            for other in range(G.order):
                if other != y:
                    changed = table[:x] + (other,) + table[x + 1:]
                    yield tables[:v] + (changed,) + tables[v + 1:], conj


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_family_check_matches_the_name_walking_check_on_the_catalog(name):
    """``HomFamily`` accepts exactly the keys the name-walking edge-relation
    check accepts, and rejects the others with its message: every enumerated
    key, and every key one conjugator or table entry away from one."""
    gog = CATALOG[name]()
    rejected = accepted = 0
    for G in (cyclic(2), cyclic(3), symmetric(3)):
        for fam in enumerate_pi1_homs(gog, G):
            assert edge_relation_violation_by_names(gog, G, fam.key) is None
            for key in _one_entry_changed(G, fam.key):
                expected = edge_relation_violation_by_names(gog, G, key)
                if expected is None:
                    HomFamily(gog, G, key)
                    accepted += 1
                else:
                    with pytest.raises(ValueError) as info:
                        HomFamily(gog, G, key)
                    assert str(info.value) == expected
                    rejected += 1
    assert rejected > 0 and accepted > 0


# vertex groups of even order, so that C2 edge groups are drawn often
EVEN_POOL = [g for g in groups_up_to(6) if g.order % 2 == 0]


def random_instances():
    """The seeded random sweep: twelve graphs of groups of up to four
    vertices, half with a cycle, a third renamed, with C2 edge groups drawn
    often, each with its test group."""
    rng = random.Random(97)
    for k in range(12):
        graph = random_tree_graph(rng, max_vertices=4)
        if k % 2:
            graph = add_extra_edges(rng, graph, 1)
        if k % 3 == 1:
            graph = relabel(rng, graph)
        gog = random_gog(rng, graph, edge_order_cap=2, vertex_pool=EVEN_POOL)
        yield gog, (cyclic(2), cyclic(4), symmetric(3))[k % 3]


def test_fast_paths_match_the_oracles_on_random_instances():
    nontrivial_edges = 0
    for gog, G in random_instances():
        assert_fast_paths_match(gog, G, max_globals=100)
        nontrivial_edges += sum(eg.order > 1 for eg in gog.edge_groups.values())
    assert nontrivial_edges >= 6


def test_column_pass_matches_the_per_element_loop_on_random_instances(monkeypatch):
    large = 0
    for gog, G in random_instances():
        assert_column_pass_matches(monkeypatch, gog, G)
        large += len(gog.vertices) >= 3
    assert large > 0


def assert_positions_follow_the_tree(gog):
    """``gog.vertices`` lists every label once, the least first, and on the
    default tree the vertex blocks come in position order and each vertex
    after the first shares a tree branch with an earlier one.  Returns
    whether the positions differ from the label order."""
    graph, vk = gog.graph, build_presentation(gog)
    assert sorted(gog.vertices) == list(graph.vertices)
    assert gog.vertices[0] == graph.vertices[0]
    starts = [block.start for block in vk.vertex_blocks]
    assert starts == sorted(starts)
    tree = [(graph.point_end(n), graph.component_end(n)) for n in vk.tree]
    for i, v in enumerate(gog.vertices[1:], 1):
        earlier = gog.vertices[:i]
        assert any(p == v and u in earlier or u == v and p in earlier for p, u in tree), v
    return gog.vertices != graph.vertices


def test_positions_follow_the_maximal_trees_search():
    """Over the catalog, the random sweep and stars of 2-8 points, where the
    least point comes before the component and the other points after it."""
    for name in sorted(CATALOG):
        assert_positions_follow_the_tree(CATALOG[name]())
    assert sum(assert_positions_follow_the_tree(gog) for gog, _ in random_instances()) > 0
    for k in range(2, 9):
        points = [f"P{i}" for i in range(k)]
        star = ReductionGraph(points, ["U"], [(f"b{i}", p, "U") for i, p in enumerate(points)])
        assert assert_positions_follow_the_tree(trivial_gog(star))


def test_join_keeps_disagreeing_data_out():
    """On the C2-edged circle, some candidate choices disagree over a branch,
    so the join must drop data, not merely reorder it."""
    gog, G = _c2_circle(), symmetric(3)
    candidates = local_candidates(gog, G)
    total = len(candidates["P"]) * len(candidates["U"])
    fiber = _enumerate_fiber_data(gog, G)
    assert 0 < len(fiber) < total


# -- hom search ------------------------------------------------------------------


def test_hom_search_matches_the_oracle_on_group_presentations():
    """The vertex-hom searches of the join and the fiber enumeration: every
    relator a b (ab)^-1 solves for (ab) once a and b come first."""
    for source in groups_up_to(8):
        pres = group_presentation(source)
        for target in (symmetric(4), dihedral4(), quaternion8()):
            assert enumerate_homs(pres, target) == try_every_candidate_homs(pres, target)


# one presentation per way the last generator of a relator can appear in it
WORD_PRESENTATIONS = {
    # c once: c = (b a)^-1
    "solved": (("a", "b", "c"), [["a^2"], ["a", "c", "b"]]),
    # c once and inverted: c = b a, then one more relator checked
    "solved-inverted": (("a", "b", "c"), [["a", "c^-1", "b"], ["c^3"], ["b^2"]]),
    # c twice, once inverted: every image of c is tried
    "twice": (("a", "b", "c"), [["c", "a", "c^-1", "b^-1"], ["a^3"]]),
    # c twice in a square: every image of c is tried
    "square": (("a", "b", "c"), [["c^2", "a^-1"], ["b", "a", "b^-1", "a^-1"]]),
}


@pytest.mark.parametrize("name", sorted(WORD_PRESENTATIONS))
def test_hom_search_matches_the_oracle_on_words(name):
    gens, words = WORD_PRESENTATIONS[name]
    pres = presentation_from_words(gens, words)
    for target in (cyclic(4), symmetric(3), symmetric(4), dihedral4(), quaternion8()):
        homs = enumerate_homs(pres, target)
        assert homs == try_every_candidate_homs(pres, target)
        assert homs


def assert_matches_unsegmented(monkeypatch, pres, target):
    """The stretch search yields the unsegmented search's homs, counts as
    many as it walks, and charges the same candidates in all, the last
    ``refuse_past`` argument of each; both refuse, with the same message, at
    a cap one below that total, the stretch search when it is called, and
    neither at the total.  Returns the budget checks each search made, the
    unsegmented one first."""
    charged = []
    real = groups_mod.refuse_past

    def recording(what, factors, cap):
        factors = tuple(factors)
        charged.append(factors[0])
        return real(what, factors, cap)

    with monkeypatch.context() as patch:
        patch.setattr(groups_mod, "refuse_past", recording)
        homs = unsegmented_homs(pres, target)
        total, checks = charged[-1], len(charged)
        charged.clear()
        count, stream = iter_homs(pres, target)
        assert charged[-1] == total, pres.relators
        stretch_checks = len(charged)
        walked = tuple(stream)
        assert walked == homs, pres.relators
        assert count == len(walked) == len(homs), pres.relators
        for cap in (total - 1, total):
            patch.setattr(groups_mod, "HOM_SEARCH_CAP", cap)
            outcomes = []
            for search in (iter_homs, unsegmented_homs):
                try:
                    outcomes.append(search(pres, target))
                except ScaleError as exc:
                    outcomes.append(str(exc))
            if cap < total:
                refusal = f"the hom search into {target.name} passes the cap of {cap}"
                assert outcomes == [refusal, refusal], (cap, pres.relators)
            else:
                (count, stream), unsegmented = outcomes
                assert (count, tuple(stream), unsegmented) == (len(homs), homs, homs)
    return checks, stretch_checks


def shuffled(group, rng):
    """The group with its elements listed in a random order, so that the
    identity need not be element 0."""
    order = rng.sample(range(group.order), group.order)
    table = [[group.label(group.mul(a, b)) for b in order] for a in order]
    return from_table([group.label(x) for x in order], table, name=group.name)


def _central_involution(group):
    return next(x for x in range(group.order)
                if x != group.identity and group.mul(x, x) == group.identity
                and all(group.mul(x, y) == group.mul(y, x) for y in range(group.order)))


def _shuffled_d4_q8_circle(rng):
    """A circle with shuffled D4 and Q8 tables at its ends, glued along their
    central involutions by a C2 branch, and a C1 branch."""
    c1, c2 = cyclic(1), cyclic(2)
    d4, q8 = shuffled(dihedral4(), rng), shuffled(quaternion8(), rng)
    return GraphOfFiniteGroups(
        circle_graph(),
        {"P": d4, "U": q8},
        {"b1": c2, "b2": c1},
        {
            "b1": {"to_point": GroupHom(c2, d4, [d4.identity, _central_involution(d4)]),
                   "to_component": GroupHom(c2, q8, [q8.identity, _central_involution(q8)])},
            "b2": {"to_point": trivial_hom(c1, d4),
                   "to_component": trivial_hom(c1, q8)},
        },
    )


def test_stretch_search_matches_the_unsegmented_one_on_pi1_presentations(monkeypatch):
    """The catalog's presentations, with C1 and C2 branches, over every
    spanning tree; the shuffled D4|Q8 circle; the seeded random sweep; and
    circle (S3, S3) into S4, where the stretches are solved once per
    boundary state, so the stretch search makes fewer budget checks."""
    rng = random.Random("stretch-search")
    gogs = [CATALOG[name]() for name in sorted(CATALOG)]
    gogs += [_shuffled_d4_q8_circle(rng) for _ in range(2)]
    gogs += [gog for gog, _ in random_instances()]
    targets = (cyclic(2), symmetric(3), shuffled(dihedral4(), rng), shuffled(quaternion8(), rng))
    for gog in gogs:
        for tree in spanning_trees(gog.graph):
            pres = build_presentation(gog, tree).presentation
            for target in targets:
                assert_matches_unsegmented(monkeypatch, pres, target)
    s3 = symmetric(3)
    circle = with_trivial_edges(circle_graph(), {"P": s3, "U": s3})
    checks, stretch_checks = assert_matches_unsegmented(
        monkeypatch, build_presentation(circle).presentation, symmetric(4))
    assert stretch_checks < checks


@pytest.mark.parametrize("name", sorted(WORD_PRESENTATIONS))
def test_stretch_search_matches_the_unsegmented_one_on_words(monkeypatch, name):
    pres = presentation_from_words(*WORD_PRESENTATIONS[name])
    rng = random.Random(name)
    for target in (cyclic(4), symmetric(3), symmetric(4), shuffled(dihedral4(), rng),
                   shuffled(quaternion8(), rng)):
        assert_matches_unsegmented(monkeypatch, pres, target)


def random_blocked_presentation(rng):
    """Two or three blocks of one or two generators, each relator on the
    letters of one block, and now and then one relator joining two
    consecutive blocks: the interface empties at every other block start."""
    sizes = [rng.randint(1, 2) for _ in range(rng.randint(2, 3))]
    starts = list(itertools.accumulate([0] + sizes))
    relators = []
    for start, size in zip(starts, sizes):
        for _ in range(rng.randint(0, 3)):
            relators.append(tuple(rng.choice((1, -1)) * rng.randint(start + 1, start + size)
                                  for _ in range(rng.randint(1, 4))))
    for k in range(len(sizes) - 1):
        if rng.random() < 0.3:
            word = [rng.choice((1, -1)) * rng.randint(1, starts[k + 1]),
                    rng.choice((1, -1)) * rng.randint(starts[k + 1] + 1, starts[k + 2])]
            relators.insert(rng.randint(0, len(relators)), tuple(rng.sample(word, 2)))
    return Presentation(tuple(f"x{i}" for i in range(starts[-1])), tuple(relators))


def test_stretch_search_matches_the_unsegmented_one_when_the_interface_empties(monkeypatch):
    rng = random.Random("blocked")
    targets = (cyclic(3), symmetric(3), shuffled(quaternion8(), rng))
    reused = 0
    for _ in range(60):
        pres = random_blocked_presentation(rng)
        for target in targets:
            checks, stretch_checks = assert_matches_unsegmented(monkeypatch, pres, target)
            reused += stretch_checks < checks
    assert reused > 0


@pytest.mark.skipif(given is None, reason="hypothesis is not installed")
def test_stretch_search_matches_the_unsegmented_one_on_a_hypothesis_sweep(monkeypatch):
    targets = (cyclic(2), cyclic(3), symmetric(3), dihedral4())

    @seed(20261020)
    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(data=st.data(), r=st.integers(min_value=1, max_value=6),
           target=st.sampled_from(targets))
    def sweep(data, r, target):
        letter = st.integers(min_value=1, max_value=r).flatmap(
            lambda g: st.sampled_from((g, -g)))
        relators = data.draw(st.lists(st.lists(letter, max_size=4).map(tuple), max_size=5))
        pres = Presentation(tuple(f"x{i}" for i in range(r)), tuple(relators))
        assert_matches_unsegmented(monkeypatch, pres, target)

    sweep()


def test_hom_search_refuses_where_the_oracle_does(monkeypatch):
    """Both searches count |target| per extended assignment, so a small cap
    stops both at the same point with the same message, or neither."""
    cases = [(group_presentation(cyclic(3)), symmetric(3)),
             (group_presentation(symmetric(3)), cyclic(2))]
    cases += [(presentation_from_words(*WORD_PRESENTATIONS[name]), symmetric(3))
              for name in sorted(WORD_PRESENTATIONS)]
    outcomes = set()
    for cap in (0, 5, 6, 18, 40, 100, 400):
        monkeypatch.setattr(groups_mod, "HOM_SEARCH_CAP", cap)
        for pres, target in cases:
            results = []
            for search in (enumerate_homs, try_every_candidate_homs):
                try:
                    results.append(search(pres, target))
                except ScaleError as exc:
                    results.append(str(exc))
            assert results[0] == results[1], (cap, pres.relators)
            outcomes.add(type(results[0]))
    assert outcomes == {tuple, str}
    assert enumerate_homs(Presentation((), ()), cyclic(3)) == ((),)


def product_filter_homs(source, target):
    """The hom search by brute force: every image tuple in ``product`` order
    under which every relator dies, and the candidates ``enumerate_homs``
    charges, |target| for each prefix of length below r under which every
    relator on that prefix's letters dies."""
    r, n = len(source.generators), target.order

    def dies_on(images, width):
        return all(_word_value(target, images, rel) == target.identity
                   for rel in source.relators if max(map(abs, rel), default=0) <= width)

    prefixes = sum(dies_on(head, d) for d in range(r)
                   for head in itertools.product(range(n), repeat=d))
    homs = tuple(a for a in itertools.product(range(n), repeat=r) if dies_on(a, r))
    return homs, n * prefixes


def random_last_letter_presentation(rng, last):
    """Two to four generators and up to three relators on the letters before
    the last one; a ``"solved"`` last generator also appears once in one more
    relator, a ``"free"`` one in none."""
    r = rng.randint(2, 4)

    def letters(k):
        return [rng.choice((1, -1)) * rng.randint(1, r - 1) for _ in range(k)]

    relators = [tuple(letters(rng.randint(1, 4))) for _ in range(rng.randint(0, 3))]
    if last == "solved":
        word = letters(rng.randint(0, 3))
        word.insert(rng.randint(0, len(word)), rng.choice((1, -1)) * r)
        relators.insert(rng.randint(0, len(relators)), tuple(word))
    return Presentation(tuple(f"x{i}" for i in range(r)), tuple(relators))


@pytest.mark.parametrize("last", ["free", "solved"])
def test_hom_search_matches_the_product_filter_when_the_last_letter_needs_no_check(
    monkeypatch, last
):
    """With no relator left to check at the last generator, its candidates
    are the leaves: the homs, their order, the candidates charged and the
    refusal point are those of the product filter."""
    charged = []
    real = groups_mod.refuse_past

    def recording(what, factors, cap):
        factors = tuple(factors)
        charged.append(factors[0])
        return real(what, factors, cap)

    monkeypatch.setattr(groups_mod, "refuse_past", recording)
    rng = random.Random(f"hom-search-{last}")
    cap = groups_mod.HOM_SEARCH_CAP
    for _ in range(40):
        pres = random_last_letter_presentation(rng, last)
        for target in (cyclic(3), symmetric(3), dihedral4()):
            homs, tried = product_filter_homs(pres, target)
            monkeypatch.setattr(groups_mod, "HOM_SEARCH_CAP", cap)
            charged.clear()
            assert enumerate_homs(pres, target) == homs, pres.relators
            assert charged[-1] == tried, pres.relators
            monkeypatch.setattr(groups_mod, "HOM_SEARCH_CAP", tried - 1)
            refusal = f"^the hom search into {target.name} passes the cap of {tried - 1}$"
            with pytest.raises(ScaleError, match=refusal):
                enumerate_homs(pres, target)
            monkeypatch.setattr(groups_mod, "HOM_SEARCH_CAP", tried)
            assert enumerate_homs(pres, target) == homs


def test_an_empty_relator_checks_nothing():
    """The empty word is a relator of every group: it leaves the homs of the
    presentation without it."""
    plain = Presentation(("x", "y"), ((1, 1),))
    with_empty = Presentation(("x", "y"), ((), (1, 1)))
    for target in (cyclic(4), symmetric(3)):
        assert enumerate_homs(with_empty, target) == enumerate_homs(plain, target)
        assert enumerate_homs(with_empty, target) == product_filter_homs(with_empty, target)[0]


@pytest.mark.skipif(given is None, reason="hypothesis is not installed")
def test_fast_paths_match_the_oracles_on_a_hypothesis_sweep():
    groups = (cyclic(2), cyclic(3), cyclic(4), symmetric(3))

    @seed(20240607)
    @settings(max_examples=30, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        rng=st.randoms(use_true_random=False),
        extra=st.integers(min_value=0, max_value=1),
        renamed=st.booleans(),
        pool=st.sampled_from([groups_up_to(6), EVEN_POOL]),
        G=st.sampled_from(groups),
    )
    def sweep(rng, extra, renamed, pool, G):
        graph = random_tree_graph(rng, max_vertices=4)
        if extra:
            graph = add_extra_edges(rng, graph, extra)
        if renamed:
            graph = relabel(rng, graph)
        gog = random_gog(rng, graph, edge_order_cap=3, vertex_pool=pool)
        try:
            assert_fast_paths_match(gog, G, max_globals=50)
        except ScaleError:
            # a draw over FUNCTOR_SET_CAP is out of scope, not a failure:
            # shrinking it reruns the exponential filter oracles on each
            # smaller draw
            reject()

    sweep()


# -- connectivity ----------------------------------------------------------------


def bfs_unreached(graph, names):
    """The vertices the edges ``names`` do not join to the least vertex, by
    the BFS ``validate`` used to run: every edge is scanned for each vertex
    popped."""
    chosen = [graph.edge(n) for n in names]
    seen = {graph.vertices[0]}
    frontier = [graph.vertices[0]]
    while frontier:
        v = frontier.pop()
        for n, a, b in chosen:
            if v == a and b not in seen:
                seen.add(b)
                frontier.append(b)
            elif v == b and a not in seen:
                seen.add(a)
                frontier.append(a)
    return sorted(set(graph.vertices) - seen)


def random_bipartite_multigraph(rng):
    """Up to 4 points and 4 components, each vertex on at least one branch,
    often in more than one connected piece."""
    points = [f"P{i}" for i in range(rng.randint(1, 4))]
    components = [f"U{i}" for i in range(rng.randint(1, 4))]
    pairs = [(p, rng.choice(components)) for p in points]
    pairs += [(rng.choice(points), u) for u in components]
    pairs += [(rng.choice(points), rng.choice(components)) for _ in range(rng.randint(0, 3))]
    return ReductionGraph(points, components,
                          [(f"b{k}", p, u) for k, (p, u) in enumerate(pairs)])


def test_union_find_matches_the_bfs():
    rng = random.Random(7)
    disconnected = 0
    for _ in range(300):
        graph = random_bipartite_multigraph(rng)
        names = graph.edge_names()
        missing = bfs_unreached(graph, names)
        assert _unreached(graph, names) == missing
        disconnected += bool(missing)
        expected = (f"graph is disconnected: unreachable {missing}",) if missing else ()
        assert graph.validate() == expected
        for _ in range(4):
            subset = rng.sample(names, rng.randint(0, len(names)))
            assert _unreached(graph, subset) == bfs_unreached(graph, subset)
    assert 10 < disconnected < 290  # both verdicts occur on whole graphs


# -- descent searches ----------------------------------------------------------------


def solve_artin_schreier(k2, p: int, x_terms: dict) -> dict | None:
    """Solve gamma^p - gamma = x for x supported on negative exponents.

    The system is triangular: gamma at -1, -2, ... is forced in turn, and a
    solution exists iff the forced gamma vanishes on exponents whose p-th
    multiple lies below the support of x.  Exact: no truncation involved.
    """
    if not x_terms:
        return {}
    v_min = min(x_terms)
    if v_min >= 0:
        raise ValueError("x must be supported on negative exponents")
    gamma: dict[int, object] = {}
    for m in range(-1, v_min - 1, -1):
        acc = k2.zero
        if m % p == 0:
            prev = gamma.get(m // p, k2.zero)
            acc = k2.pow(prev, p) if prev != k2.zero else k2.zero
        gamma[m] = k2.sub(acc, x_terms.get(m, k2.zero))
    for j, c in gamma.items():
        if p * j < v_min and c != k2.zero:
            return None
    return {j: c for j, c in gamma.items() if c != k2.zero}


def product_order_as_oracle(instance: ASInstance, support_bound: int) -> SearchReport:
    """Every candidate beta in product order, each solved in turn."""
    if support_bound < 1:
        return _oracle_report(INCONCLUSIVE, 0, support_bound,
                              "support bound below 1: empty search space")
    k2 = instance.k2
    p = instance.p
    k1_elements = instance.k1_elements()
    try:
        refuse_past(f"the search space |k1|^{support_bound} with |k1| = {len(k1_elements)}",
                    (len(k1_elements) for _ in range(support_bound)), AS_CANDIDATE_CAP)
    except ScaleError as exc:
        return _oracle_report(INCONCLUSIVE, 0, support_bound, f"{exc}: search not run")
    tried = 0
    exponents = list(range(-support_bound, 0))
    for combo in itertools.product(k1_elements, repeat=support_bound):
        tried += 1
        x_terms: dict[int, object] = {}
        for m, b in zip(exponents, combo):
            if b != k2.zero:
                x_terms[m] = k2.neg(b)
        x_terms[-1] = k2.add(x_terms.get(-1, k2.zero), instance.alpha)
        if x_terms.get(-1) == k2.zero:
            x_terms.pop(-1, None)
        gamma = solve_artin_schreier(k2, p, x_terms)
        if gamma is None:
            continue
        beta = LaurentSeries(k2, dict(zip(exponents, combo)))
        gamma_series = LaurentSeries(k2, gamma)
        x_series = LaurentSeries(k2, x_terms)
        check = gamma_series.pow(p).sub(gamma_series)
        if not check.equals_exact(x_series):
            raise AssertionError("oracle produced an invalid Artin-Schreier witness")
        return _oracle_report(DESCENDS, tried, support_bound,
                              "witness verified exactly: gamma^p - gamma = alpha/t - beta",
                              (beta, gamma_series))
    return _oracle_report(FAILS_WITHIN_BOUNDS, tried, support_bound,
                          "no candidate beta admits a solution (each refusal is exact)")


def full_gauss_jordan_kernel_vector(F, rows, ncols):
    """Reference kernel vector: Gauss-Jordan updating every entry of every
    other row at each pivot, zeros included."""
    matrix = [row[:] for row in rows]
    pivots = {}
    rank = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(matrix)) if matrix[r][col] != F.zero), None)
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        inv = F.inv(matrix[rank][col])
        matrix[rank] = [F.mul(inv, v) for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != F.zero:
                factor = matrix[r][col]
                matrix[r] = [F.sub(v, F.mul(factor, w)) for v, w in zip(matrix[r], matrix[rank])]
        pivots[col] = rank
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    vec = [F.zero] * ncols
    vec[free[0]] = F.one
    for col, r in pivots.items():
        vec[col] = F.neg(matrix[r][free[0]])
    return vec


def series_coefficient(series: LaurentSeries, exp: int):
    """The coefficient at exponent ``exp``, which must be known."""
    assert series.order is None or exp <= series.order, (exp, series.order)
    i = exp - series.valuation
    return series.coeffs[i] if 0 <= i < len(series.coeffs) else series.field.zero


def full_elimination_kummer(instance: KummerInstance, search_bound: int) -> SearchReport:
    """Every candidate e's system built and eliminated at full truncation,
    on precision-tracked series: fbar = gbar^p + x with gbar known to the
    truncation, and e^p, by repeated products."""
    if search_bound < 0:
        return _kummer_report(INCONCLUSIVE, 0, search_bound, instance.truncation,
                              "negative search bound: empty search space")
    F = instance.coeff_field
    p = F.p
    gbar = LaurentSeries(F, dict(instance.gbar), order=instance.truncation)
    fbar = gbar.pow(p).add(LaurentSeries(F, {1: F.one}))
    unknowns = (search_bound + 1) ** 2
    n_eq = min(fbar.order, instance.truncation)
    if unknowns >= n_eq:
        return _kummer_report(
            INCONCLUSIVE, 0, search_bound, instance.truncation,
            f"truncation {instance.truncation} too small for {search_bound + 1}^2 unknowns")
    what = f"the elimination work at truncation {instance.truncation} with {unknowns} unknowns"
    tried = 0
    for deg in range(0, search_bound + 1):
        for lower in itertools.product(range(F.q), repeat=deg):
            e_coeffs = tuple(lower) + (F.one,)
            try:
                refuse_past(what, (tried + 1, instance.truncation + 1, unknowns, unknowns),
                            KUMMER_WORK_CAP)
            except ScaleError as exc:
                return _kummer_report(INCONCLUSIVE, tried, search_bound, instance.truncation,
                                      f"{exc}: stopped after {tried} candidates")
            tried += 1
            h = fbar.mul(LaurentSeries(F, dict(enumerate(e_coeffs))).pow(p))
            powers = [LaurentSeries.one(F)]
            for _ in range(search_bound):
                powers.append(powers[-1].mul(h))
            n_rows = min([instance.truncation] + [s.order for s in powers[1:]])
            rows = []
            for exp in range(0, n_rows + 1):
                row = []
                for j in range(search_bound + 1):
                    for k in range(search_bound + 1):
                        row.append(series_coefficient(powers[j], exp - k) if exp >= k else F.zero)
                rows.append(row)
            vec = full_gauss_jordan_kernel_vector(F, rows, unknowns)
            if vec is not None:
                relation = tuple(
                    poly_strip(F, tuple(vec[j:j + search_bound + 1]))
                    for j in range(0, unknowns, search_bound + 1)
                )
                return _kummer_report(
                    DESCENDS, tried, search_bound, instance.truncation,
                    f"f*e^p satisfies a degree-<= {search_bound} relation to order {n_rows}: "
                    "the obstruction vanishes within bounds", (e_coeffs, relation))
    return _kummer_report(
        OBSTRUCTED_WITHIN_BOUNDS, tried, search_bound, instance.truncation,
        f"no unit candidate of degree <= {search_bound} makes f*e^p algebraic "
        f"of degree <= {search_bound} to order {n_eq}")


def assert_same_decision(fast, slow):
    # the lines carry what the block does not: a Kummer witness's relation
    assert fast.machine == slow.machine
    assert fast.lines == slow.lines


# (p, k1 degree, k2 degree) of the finite towers; each is searched at every
# support whose product space has at most AS_SWEEP_SPACE candidates
AS_TOWERS = ((2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 4), (2, 3, 3),
             (3, 1, 1), (3, 1, 2), (3, 1, 3), (5, 1, 2))
AS_SWEEP_SPACE = 1024


def test_as_oracle_matches_the_product_loop_on_finite_towers():
    descends = fails = 0
    for p, d1, e in AS_TOWERS:
        for alpha in range(1, p**e):
            inst = ASInstance.finite(p, d1, e, alpha)
            support = 1
            while p ** (d1 * support) <= AS_SWEEP_SPACE:
                fast = as_brute_force_oracle(inst, support)
                assert_same_decision(fast, product_order_as_oracle(inst, support))
                descends += fast.machine["verdict"] == DESCENDS
                fails += fast.machine["verdict"] == FAILS_WITHIN_BOUNDS
                support += 1
    assert descends > 0 and fails > 0


def test_as_oracle_matches_the_product_loop_over_rational_function_fields():
    for p, e in ((2, 1), (2, 2), (3, 1)):
        for alpha in ("s", 1, {"num": [1, 1], "den": [0, 1]}):
            inst = ASInstance.rational(p, e, alpha)
            for support in range(1, 6):
                assert_same_decision(as_brute_force_oracle(inst, support),
                                     product_order_as_oracle(inst, support))


def gamma_enumeration_valid_betas(instance: ASInstance, support_bound: int) -> set:
    """The valid beta with their gamma, from the other side: every gamma of
    degree <= support_bound // p over k2 whose alpha/t - (gamma^p - gamma)
    has k1 coefficients.  gamma -> gamma^p - gamma is injective on 1/t k2[1/t]
    (its kernel is the constants GF(p)), so each beta comes once."""
    k2, p = instance.k2, instance.p
    exponents = range(-1, -(support_bound // p) - 1, -1)
    alpha_t = LaurentSeries(k2, {-1: instance.alpha})
    found = set()
    for combo in itertools.product(k2.elements(), repeat=len(exponents)):
        gamma = LaurentSeries(k2, dict(zip(exponents, combo)))
        beta = alpha_t.sub(gamma.pow(p).sub(gamma))
        coeffs = {m: series_coefficient(beta, m) for m in range(-support_bound, 0)}
        if all(instance.in_k1(c) for c in coeffs.values()):
            found.add((tuple(sorted(coeffs.items())), tuple(gamma.terms())))
    return found


def test_valid_betas_equal_the_gamma_enumeration():
    nonempty = 0
    for (p, d1, e), supports in (((2, 1, 2), 6), ((2, 1, 3), 5), ((2, 2, 4), 3),
                                 ((3, 1, 2), 8), ((3, 1, 3), 5), ((5, 1, 2), 7)):
        for alpha in range(1, p**e):
            inst = ASInstance.finite(p, d1, e, alpha)
            for support in range(1, supports + 1):
                fast = {
                    (tuple(sorted(beta.items())), tuple(sorted(gamma.items())))
                    for beta, gamma in _valid_betas(inst, support)
                }
                assert fast == gamma_enumeration_valid_betas(inst, support), (p, d1, e, alpha)
                nonempty += bool(fast)
    assert nonempty > 0


# (model, p, q_exp, bound); over GF(4) and GF(9) the p-th power moves
# coefficients, which over GF(p) it fixes
KUMMER_SWEEP = [
    (model, p, 1, bound)
    for model in ("transcendental", "base-ring")
    for p in (2, 3)
    for bound in range(5)
] + [
    (model, p, 2, bound)
    for model in ("transcendental", "base-ring")
    for p, bounds in ((2, 4), (3, 3))
    for bound in range(bounds)
] + [("base-ring", 3, 2, 3)]  # f = w^3 + x + x^3 needs bound 3 to descend


def _kummer_instance(model, p, truncation, q_exp=1):
    if model == "transcendental":
        return KummerInstance.transcendental_model(p, q_exp, 4, truncation)
    if q_exp == 1:
        return KummerInstance.base_ring_model(p, [1, 1], truncation)
    # gbar = w + x: the p-th power moves its constant term, w^p != w
    F = FiniteField(p, q_exp)
    return KummerInstance(F, ((0, F.parse("w")), (1, F.one)), truncation)


@pytest.mark.parametrize(
    "model, p, q_exp, bound", KUMMER_SWEEP,
    ids=[f"{m}-p{p}-b{b}" if q == 1 else f"{m}-q{p**q}-b{b}" for m, p, q, b in KUMMER_SWEEP])
def test_kummer_search_matches_the_full_elimination(model, p, q_exp, bound):
    inst = _kummer_instance(model, p, 200, q_exp)
    assert_same_decision(kummer_obstruction(inst, bound), full_elimination_kummer(inst, bound))


def test_frobenius_and_truncated_product_match_the_series_products():
    rng = random.Random(41)
    for p, e in ((2, 1), (2, 2), (3, 2), (5, 1)):
        F = FiniteField(p, e)
        for _ in range(50):
            a, b = ([rng.randrange(F.q) for _ in range(rng.randint(0, 9))] for _ in range(2))
            n = rng.randint(0, 30)
            sa, sb = (LaurentSeries(F, dict(enumerate(c))) for c in (a, b))
            for fast, slow in ((_frobenius(F, a, n), sa.pow(p)),
                               (poly_mul(F, a, b, n), sa.mul(sb))):
                assert len(fast) <= n
                fast = list(fast) + [F.zero] * (n - len(fast))
                assert fast == [series_coefficient(slow, i) for i in range(n)], (p, e, a, b, n)


def test_kummer_search_eliminates_each_candidate_once(monkeypatch):
    # at p = 5 a candidate's rows can keep a kernel past twice the unknowns
    # and still reach full rank below the truncation; at truncation 40 a
    # later candidate then descends
    calls = []
    kernel_vector = descent_mod._kernel_vector

    def counted(F, rows, ncols):
        read = [0]

        def tally():
            for row in rows:
                read[0] += 1
                yield row

        vec = kernel_vector(F, tally(), ncols)
        calls.append((read[0], vec, ncols))
        return vec

    monkeypatch.setattr(descent_mod, "_kernel_vector", counted)
    for truncation, bound, verdict, tried in ((25, 2, OBSTRUCTED_WITHIN_BOUNDS, 31),
                                              (40, 3, DESCENDS, 32)):
        inst = KummerInstance.transcendental_model(5, 1, 1, truncation)
        calls.clear()
        fast = kummer_obstruction(inst, bound)
        assert (fast.machine["verdict"], fast.candidates_tried) == (verdict, tried)
        assert len(calls) == tried
        rejected = [read for read, vec, _ in calls if vec is None]
        assert max(rejected) > 2 * calls[0][2] + 1
        assert min(rejected) < truncation + 1
        assert_same_decision(fast, full_elimination_kummer(inst, bound))


def test_kummer_search_matches_the_full_elimination_just_above_the_unknowns():
    # bound 3 has 16 unknowns, so a truncation of 30 gives a system of 31 rows
    for model in ("transcendental", "base-ring"):
        inst = _kummer_instance(model, 2, 30)
        assert_same_decision(kummer_obstruction(inst, 3), full_elimination_kummer(inst, 3))


def dense_relation_rows(F, h, search_bound, n):
    """Reference rows: every power h^j cut below x^n formed whole by
    truncated products, then row m read off at x^m."""
    powers = [[F.one]]
    for _ in range(search_bound):
        powers.append(poly_mul(F, powers[-1], h, n))
    return [
        [power[exp - k] if 0 <= exp - k < len(power) else F.zero
         for power in powers for k in range(search_bound + 1)]
        for exp in range(n)
    ]


def test_relation_rows_match_the_dense_system():
    rng = random.Random(53)
    for p, e in ((2, 1), (3, 1), (2, 2), (3, 2)):
        F = FiniteField(p, e)
        for bound in range(5):
            unknowns = (bound + 1) ** 2
            for truncation in range(unknowns, 61):
                n = truncation + 1
                # h sparse or dense, with or without a constant term, or empty
                density = rng.choice((0.0, 0.2, 0.9))
                h = poly_strip(F, tuple(rng.randrange(1, F.q) if rng.random() < density
                                        else F.zero for _ in range(rng.randint(0, n))))
                rows = list(_relation_rows(F, h, bound, n))
                assert rows == dense_relation_rows(F, h, bound, n), (p, e, bound, truncation)

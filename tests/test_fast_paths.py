"""The join and the index-table natural maps against the filters they replace.

The oracles below are the straightforward versions: a backtracker that tests
every candidate against a branch-agreement predicate, and natural maps that
walk the graph by vertex and branch name with markings keyed by branch.  The
fast paths must reproduce them exactly, order included.
"""

from __future__ import annotations

import itertools
import random

import pytest

from catalog import (
    add_extra_edges,
    circle_graph,
    diamond_graph,
    groups_up_to,
    random_gog,
    random_tree_graph,
    theta_graph,
    trivial_gog,
    with_trivial_edges,
)
from vkpatch.gog import GraphOfFiniteGroups, build_presentation, naive_limit_homs
from vkpatch.graphs import ReductionGraph
from vkpatch.groups import GroupHom, cyclic, enumerate_homs, group_presentation, symmetric
from vkpatch.torsors import (
    _disagreeing_branch,
    _enumerate_fiber_data,
    inverse_natural_map,
    natural_map,
)

try:
    from hypothesis import HealthCheck, given, seed, settings, strategies as st
except ImportError:  # the sweep below is optional
    given = None


# -- oracles ---------------------------------------------------------------------


def filter_vertices(gog, candidates, agrees):
    """Every choice of one candidate per vertex passing ``agrees(chosen,
    branch)`` on every branch, tested as soon as both ends are chosen; in
    lexicographic order of the candidate positions."""
    vertices = gog.graph.vertices
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
        for v in gog.graph.vertices
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
        v: enumerate_homs(group_presentation(gog.vertex_groups[v]), G) for v in gog.graph.vertices
    }
    return filter_vertices(gog, candidates, compatible)


def natural_map_by_names(presentation, G, family_key, markings):
    """``natural_map`` walking the graph by name; markings keyed by branch."""
    graph = presentation.gog.graph
    tables, conj = family_key
    conjugators = dict(zip(graph.edge_names(), conj))
    datum = []
    for v, table in zip(graph.vertices, tables):
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
        for v, (_, flags) in zip(graph.vertices, datum)
        for e, f in zip(graph.edges_at(v), flags)
    }
    # gauges along the tree by a name BFS from the least vertex
    gauges = {graph.vertices[0]: G.identity}
    queue = [graph.vertices[0]]
    for w in queue:
        for via in graph.edges_at(w):
            if via not in presentation.tree.edge_names:
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
        for v, (table, _) in zip(graph.vertices, datum)
    )
    markings, conjugators = {}, []
    for e in graph.edge_names():
        p, u = graph.point_end(e), graph.component_end(e)
        markings[e] = G.mul(flag[p, e], gauges[p])
        conjugators.append(G.mul(G.mul(G.inv(gauges[u]), G.inv(flag[u, e])), markings[e]))
    return (tables, tuple(conjugators)), markings


# -- comparison ------------------------------------------------------------------


def assert_fast_paths_match(gog, G, max_globals=400):
    """The join equals the filter for both callers, and the natural maps
    equal the name-walking ones on about ``max_globals`` global functors
    spread over the whole set."""
    joined = naive_limit_homs(gog, G)
    assert list(joined) == filtered_naive_limit(gog, G)
    assert list(joined) == sorted(joined)

    pres = build_presentation(gog)
    fiber = _enumerate_fiber_data(gog, G)
    assert fiber == filtered_fiber_data(gog, G)

    names = gog.graph.edge_names()
    keys = [pres.family_key(a) for a in enumerate_homs(pres.presentation, G)]
    markings_space = itertools.product(range(G.order), repeat=len(names) - 1)
    globals_ = itertools.product(keys, markings_space)
    stride = max(1, len(keys) * G.order ** (len(names) - 1) // max_globals)
    for key, combo in itertools.islice(globals_, 0, None, stride):
        markings = (G.identity, *combo)
        datum = natural_map(pres, G, key, markings)
        assert datum == natural_map_by_names(pres, G, key, dict(zip(names, markings)))
        back_key, back_markings = inverse_natural_map(pres, G, datum)
        oracle_key, oracle_markings = inverse_natural_map_by_names(pres, G, datum)
        assert (back_key, dict(zip(names, back_markings))) == (oracle_key, oracle_markings)
        assert (back_key, back_markings) == (key, markings)

    # the index-table agreement check decides agreement like the predicate
    candidates = local_candidates(gog, G)
    for chosen in itertools.islice(itertools.product(*candidates.values()), 2000):
        by_name = dict(zip(gog.graph.vertices, chosen))
        bad = [e for e in names if not branch_agrees(gog, G, by_name, e)]
        found = _disagreeing_branch(gog, G, chosen)
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
}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_fast_paths_match_the_oracles_on_the_catalog(name):
    gog = CATALOG[name]()
    sizes = [assert_fast_paths_match(gog, G) for G in (cyclic(2), cyclic(3), symmetric(3))]
    assert all(fiber > 0 and naive > 0 for fiber, naive in sizes)


# vertex groups of even order, so that C2 edge groups are drawn often
EVEN_POOL = [g for g in groups_up_to(6) if g.order % 2 == 0]


def test_fast_paths_match_the_oracles_on_random_instances():
    rng = random.Random(97)
    nontrivial_edges = 0
    for k in range(12):
        graph = random_tree_graph(rng, max_vertices=4)
        if k % 2:
            graph = add_extra_edges(rng, graph, 1)
        if k % 3 == 1:
            graph = relabel(rng, graph)
        gog = random_gog(rng, graph, edge_order_cap=2, vertex_pool=EVEN_POOL)
        G = (cyclic(2), cyclic(4), symmetric(3))[k % 3]
        assert_fast_paths_match(gog, G, max_globals=100)
        nontrivial_edges += sum(eg.order > 1 for eg in gog.edge_groups.values())
    assert nontrivial_edges >= 6


def test_join_keeps_disagreeing_data_out():
    """On the C2-edged circle, some candidate choices disagree over a branch,
    so the join must drop data, not merely reorder it."""
    gog, G = _c2_circle(), symmetric(3)
    candidates = local_candidates(gog, G)
    total = len(candidates["P"]) * len(candidates["U"])
    fiber = _enumerate_fiber_data(gog, G)
    assert 0 < len(fiber) < total


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
        assert_fast_paths_match(gog, G, max_globals=50)

    sweep()

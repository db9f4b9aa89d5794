"""Graph-of-groups presentations and hom solvers against counting oracles."""

from __future__ import annotations

import itertools
import os
import pathlib
import random
import re
import sys

import pytest

from catalog import (
    add_extra_edges,
    alternating4,
    circle_graph,
    diamond_graph,
    groups_up_to,
    hom_set,
    random_gog,
    random_tree_graph,
    theta_graph,
    trivial_gog,
    trivial_hom,
    with_trivial_edges,
)
from test_cli import _tool
from vkpatch import gog as gog_mod
from vkpatch import groups as groups_mod
from vkpatch.gog import (
    EdgeMapError,
    GraphOfFiniteGroups,
    HomFamily,
    build_presentation,
    conjugacy_class_count,
    enumerate_pi1_homs,
    naive_limit_homs,
    verify_tree_independence,
    verify_tree_vankampen,
)
from vkpatch.graphs import ReductionGraph, ScaleError, spanning_trees
from vkpatch.groups import (
    GroupHom,
    cyclic,
    direct_product,
    enumerate_homs,
    from_table,
    iter_homs,
    symmetric,
)

try:
    from hypothesis import given, seed, settings, strategies as st
except ImportError:  # the sweep below is optional
    given = None


def amalgam_c4_c6() -> GraphOfFiniteGroups:
    """C4 and C6 glued over C2 embedded as the unique order-2 subgroups."""
    c2, c4, c6 = cyclic(2), cyclic(4), cyclic(6)
    return GraphOfFiniteGroups(
        diamond_graph(),
        {"P": c4, "U": c6},
        {"b1": c2},
        {"b1": {"to_point": GroupHom(c2, c4, [0, 2]),
                "to_component": GroupHom(c2, c6, [0, 3])}},
    )


def test_presentation_of_free_product():
    c2, c3 = cyclic(2), cyclic(3)
    gog = with_trivial_edges(diamond_graph(), {"P": c2, "U": c3})
    vk = build_presentation(gog)
    # generators: 2 + 3 vertex symbols plus one edge letter
    assert len(vk.presentation.generators) == 6
    # the tree edge letter is trivialized
    e = vk.edge_symbols[0] + 1
    assert (e,) in vk.presentation.relators
    # multiplication relators for both vertex groups
    assert len(vk.presentation.relators) == 4 + 9 + 1  # trivial edge group adds none
    # the tree BFS the generators follow is kept on the presentation: U
    # (vertex 1) is reached from the root P (vertex 0) over b1, slot 0 at both
    assert gog.graph.vertices == ("P", "U")
    assert vk.tree_steps == ((1, 0, 0, 0),)
    assert gog.incidence[1][0] == (0, 1)


def test_presentation_of_circle_with_trivial_groups():
    gog = trivial_gog(circle_graph())
    vk = build_presentation(gog)
    # two trivial vertex symbols, two edge letters, one trivializer
    assert len(vk.presentation.generators) == 4
    free_letters = [
        name for name, s in zip(gog.graph.edge_names(), vk.edge_symbols)
        if (s + 1,) not in vk.presentation.relators
    ]
    assert free_letters == ["b2"]


def test_presentation_of_amalgam_has_conjugation_relators():
    gog = amalgam_c4_c6()
    vk = build_presentation(gog)
    pres = vk.presentation
    e = vk.edge_symbols[0] + 1
    sp = vk.vertex_blocks[0].start + 2 + 1  # image of the involution in C4 at P
    su = vk.vertex_blocks[1].start + 3 + 1  # image of the involution in C6 at U
    assert pres.generators[sp - 1] == "P:2" and pres.generators[su - 1] == "U:3"
    assert (e, sp, -e, -su) in pres.relators
    # tree edge: letter trivialized, so the relation amounts to amalgamation
    assert (e,) in pres.relators
    assert len(pres.relators) == 16 + 36 + 1 + 1


def test_presentation_pinned_with_table_edge_group_identity_not_first():
    """A circle whose b1 edge group (and U's group) lists its identity
    second: the conjugation relator is emitted for the non-identity element
    at index 0, and none for the identity."""
    c2 = cyclic(2)
    edge = from_table(["a", "e"], [["e", "a"], ["a", "e"]], name="E")
    at_u = from_table(["s", "i"], [["i", "s"], ["s", "i"]], name="V")
    gog = GraphOfFiniteGroups(
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
    vk = build_presentation(gog)
    assert vk.presentation.generators == ("P:0", "P:1", "U:s", "U:i", "e:b1", "e:b2")
    assert vk.presentation.relators == (
        (1, 1, -1), (1, 2, -2), (2, 1, -2), (2, 2, -1),
        (3, 3, -4), (3, 4, -3), (4, 3, -3), (4, 4, -4),
        (5,), (5, 2, -5, -3),
    )
    assert vk.vertex_blocks == (slice(0, 2), slice(2, 4))
    assert vk.edge_symbols == (4, 5)
    assert vk.tree_steps == ((1, 0, 0, 0),)
    assert vk.tree_branches == (0,)


def test_presentation_pinned_on_theta_with_a_chosen_tree():
    """Theta with C2 at P, C4 at U, C2 on the parallel branches b2 and b3 and
    the spanning tree {b2}: vertex blocks follow the tree BFS (P, then U),
    each reached vertex followed by the tree letter that reached it (b2),
    and the other letters come last in branch order."""
    c2, c4 = cyclic(2), cyclic(4)
    into = {"to_point": GroupHom(c2, c2, [0, 1]), "to_component": GroupHom(c2, c4, [0, 2])}
    graph = theta_graph()
    gog = GraphOfFiniteGroups(
        graph,
        {"P": c2, "U": c4},
        {"b1": cyclic(1), "b2": c2, "b3": c2},
        {
            "b1": {"to_point": trivial_hom(cyclic(1), c2),
                   "to_component": trivial_hom(cyclic(1), c4)},
            "b2": into,
            "b3": into,
        },
    )
    vk = build_presentation(gog, ("b2",))
    assert vk.presentation.generators == (
        "P:0", "P:1", "U:0", "U:1", "U:2", "U:3", "e:b2", "e:b1", "e:b3"
    )
    assert vk.presentation.relators == (
        (1, 1, -1), (1, 2, -2), (2, 1, -2), (2, 2, -1),
        (3, 3, -3), (3, 4, -4), (3, 5, -5), (3, 6, -6),
        (4, 3, -4), (4, 4, -5), (4, 5, -6), (4, 6, -3),
        (5, 3, -5), (5, 4, -6), (5, 5, -3), (5, 6, -4),
        (6, 3, -6), (6, 4, -3), (6, 5, -4), (6, 6, -5),
        (7,), (7, 2, -7, -5),
        (9, 2, -9, -5),
    )
    assert vk.vertex_blocks == (slice(0, 2), slice(2, 6))
    assert vk.edge_symbols == (7, 6, 8)
    # U (vertex 1) is reached over b2, its slot 1 at both ends
    assert vk.tree_steps == ((1, 1, 0, 1),)
    assert vk.tree_branches == (1,)


def test_pi1_hom_counts_on_spec_examples():
    c1, c2, c3, s3 = cyclic(1), cyclic(2), cyclic(3), symmetric(3)
    free_prod = with_trivial_edges(diamond_graph(), {"P": c2, "U": c3})
    assert len(enumerate_pi1_homs(free_prod, s3)) == 12
    assert len(enumerate_pi1_homs(trivial_gog(circle_graph()), s3)) == 6
    assert len(enumerate_pi1_homs(amalgam_c4_c6(), c2)) == 2


def test_naive_limit_counts_on_spec_examples():
    c1, c2 = cyclic(1), cyclic(2)
    assert len(naive_limit_homs(trivial_gog(circle_graph()), c2)) == 1
    free_prod = with_trivial_edges(
        diamond_graph(), {"P": cyclic(4), "U": cyclic(6)}
    )
    assert len(naive_limit_homs(free_prod, c1)) == 1
    assert len(naive_limit_homs(amalgam_c4_c6(), c2)) == 2


def test_hom_families_satisfy_edge_relation():
    s3 = symmetric(3)
    gog = amalgam_c4_c6()
    for fam in enumerate_pi1_homs(gog, s3):
        # HomFamily validates on construction; re-check one instance by hand
        tables, (c,) = fam.key
        f = dict(zip(gog.vertices, tables))
        assert f["U"][3] == s3.conjugate(c, f["P"][2])


def test_hom_family_rejects_bad_conjugator():
    c2 = cyclic(2)
    gog = amalgam_c4_c6()
    fams = enumerate_pi1_homs(gog, c2)
    tables, conj = fams[1].key
    bad_tables = list(tables)
    # break edge agreement
    bad_tables[gog.vertices.index("U")] = hom_set(cyclic(6), c2)[1].mapping
    with pytest.raises(ValueError, match="edge relation on branch b1"):
        HomFamily(gog, c2, (tuple(bad_tables), conj))


def test_edge_maps_must_be_injective_by_default():
    c2, c4 = cyclic(2), cyclic(4)
    collapse = trivial_hom(c2, c4)
    with pytest.raises(ValueError):
        GraphOfFiniteGroups(
            diamond_graph(), {"P": c4, "U": c4}, {"b1": c2},
            {"b1": {"to_point": collapse, "to_component": GroupHom(c2, c4, [0, 2])}},
        )


_C2, _C4 = cyclic(2), cyclic(4)
_INTO_C4 = GroupHom(_C2, _C4, [0, 2])


@pytest.mark.parametrize("to_point, to_component, message", [
    (GroupHom(_C4, _C4, range(4)), _INTO_C4, "edge maps of b1 must start at its edge group"),
    (GroupHom(_C2, _C2, range(2)), _INTO_C4, "map to_point of b1 must land in the group at P"),
    (_INTO_C4, GroupHom(_C2, _C2, range(2)),
     "map to_component of b1 must land in the group at U"),
], ids=["source", "point-target", "component-target"])
def test_edge_maps_that_do_not_fit_their_branch_are_refused(to_point, to_component, message):
    with pytest.raises(EdgeMapError, match=f"^{message}$") as info:
        GraphOfFiniteGroups(diamond_graph(), {"P": _C4, "U": _C4}, {"b1": _C2},
                            {"b1": {"to_point": to_point, "to_component": to_component}})
    assert info.value.branch == "b1"


def test_tree_vankampen_on_trees_is_a_bijection():
    rng = random.Random(11)
    for _ in range(10):
        gog = random_gog(rng, random_tree_graph(rng), vertex_order_cap=8)
        for G in (cyclic(2), cyclic(3), symmetric(3)):
            _, report = verify_tree_vankampen(gog, G)
            assert report["graph_is_tree"]
            assert report["bijection"], report["witness"]
            assert report["pi1_count"] == report["naive_count"]


def test_tree_vankampen_up_to_order_twelve_targets():
    from catalog import alternating4

    rng = random.Random(61)
    for G in (cyclic(12), alternating4()):
        assert G.order == 12
        for _ in range(3):
            gog = random_gog(rng, random_tree_graph(rng, max_vertices=3), vertex_order_cap=6)
            _, report = verify_tree_vankampen(gog, G)
            assert report["graph_is_tree"] and report["bijection"], report["witness"]


def test_tree_vankampen_flags_non_trees():
    c2 = cyclic(2)
    _, report = verify_tree_vankampen(trivial_gog(circle_graph()), c2)
    assert not report["graph_is_tree"]
    assert report["pi1_count"] == 2
    assert report["naive_count"] == 1
    assert not report["bijection"]
    assert "conjugators" in report["witness"]


def test_tree_vankampen_with_trivial_test_group():
    _, report = verify_tree_vankampen(trivial_gog(circle_graph()), cyclic(1))
    assert report["pi1_count"] == report["naive_count"] == 1
    assert report["bijection"]  # both sides singletons


def test_non_tree_with_trivial_vertex_groups_counts_rank():
    for graph in (circle_graph(), theta_graph()):
        gog = trivial_gog(graph)
        rank = len(graph.edges) - len(graph.vertices) + 1
        for G in (cyclic(2), cyclic(3), symmetric(3)):
            assert len(enumerate_pi1_homs(gog, G)) == G.order**rank
            assert len(naive_limit_homs(gog, G)) == 1


def _independence(gog, G):
    return verify_tree_independence(gog, G)[1]


def test_tree_independence_reports():
    c2, s3 = cyclic(2), symmetric(3)
    report = _independence(trivial_gog(circle_graph()), s3)
    assert report["all_equal"] and set(report["counts"].values()) == {6}
    report = _independence(trivial_gog(theta_graph()), c2)
    assert report["all_equal"] and set(report["counts"].values()) == {4}
    # a tree has a single spanning tree: vacuous pass
    report = _independence(trivial_gog(diamond_graph()), c2)
    assert report["all_equal"] and len(report["counts"]) == 1


def test_tree_independence_enumerates_each_spanning_tree_once(monkeypatch):
    """The independence check searches one presentation per spanning tree
    and the van Kampen check one more, and only the van Kampen check walks
    its homs; the independence counts and labels are those of enumerating
    every tree."""
    real_build, real_iter = gog_mod.build_presentation, gog_mod.iter_homs
    built, searched, walked = [], [], []

    def build(*args, **kwargs):
        vk = real_build(*args, **kwargs)
        built.append(vk.presentation)
        return vk

    def iter_counted(pres, G):
        count, homs = real_iter(pres, G)
        if not any(pres is p for p in built):
            return count, homs
        call = len(searched)
        searched.append(pres)

        def stream():
            walked.append(call)
            yield from homs

        return count, stream()

    monkeypatch.setattr(gog_mod, "build_presentation", build)
    monkeypatch.setattr(gog_mod, "iter_homs", iter_counted)
    rng = random.Random(29)
    cases = [(trivial_gog(g()), symmetric(3)) for g in (diamond_graph, circle_graph, theta_graph)]
    for k in range(6):
        graph = add_extra_edges(rng, random_tree_graph(rng, max_vertices=3), k % 3)
        cases.append((random_gog(rng, graph, vertex_order_cap=6), symmetric(3)))
    for gog, G in cases:
        built.clear()
        searched.clear()
        walked.clear()
        verify_tree_vankampen(gog, G)
        _, indep = verify_tree_independence(gog, G)
        trees = spanning_trees(gog.graph)
        assert len(searched) == 1 + len(trees)
        assert walked == [0]
        expected = [
            ("{" + ",".join(t) + "}",
             len(enumerate_homs(real_build(gog, t).presentation, G)))
            for t in trees
        ]
        assert list(indep["counts"].items()) == expected


def test_pi1_count_invariant_under_tree_choice_random_instances():
    rng = random.Random(23)
    for _ in range(5):
        graph = random_tree_graph(rng)
        graph = add_extra_edges(rng, graph, rng.randint(1, 2))
        gog = random_gog(rng, graph, vertex_order_cap=6)
        counts = {
            len(enumerate_homs(build_presentation(gog, tree).presentation, symmetric(3)))
            for tree in spanning_trees(graph)
        }
        assert len(counts) == 1


def test_free_product_specialization_count():
    # trivial edge groups on a tree: hom count is the product over vertices
    rng = random.Random(5)
    for _ in range(8):
        graph = random_tree_graph(rng)
        pool = groups_up_to(8)
        vgroups = {v: rng.choice(pool) for v in graph.vertices}
        gog = with_trivial_edges(graph, vgroups)
        for G in (cyclic(2), symmetric(3)):
            expected = 1
            for v in graph.vertices:
                expected *= len(hom_set(vgroups[v], G))
            assert len(enumerate_pi1_homs(gog, G)) == expected


def test_enumeration_is_deterministic():
    gog = amalgam_c4_c6()
    s3 = symmetric(3)
    first = [fam.key for fam in enumerate_pi1_homs(gog, s3)]
    second = [fam.key for fam in enumerate_pi1_homs(gog, s3)]
    assert first == second
    assert len(set(first)) == len(first)


def test_hom_enumeration_is_refused_past_the_cap(monkeypatch):
    """Vertex generators at the identity with any free letters are homs, so
    there are at least |G|^rank of them, and the search charges a candidate
    for each: both enumerating callers refuse every bouquet whose |G|^rank
    passes the search's cap, by the search's budget."""
    c2 = cyclic(2)

    def bouquet(branches):
        # one point and one component joined by parallel branches: rank branches - 1
        edges = [(f"b{i}", "P", "U") for i in range(1, branches + 1)]
        return trivial_gog(ReductionGraph(["P"], ["U"], edges))

    assert len(enumerate_pi1_homs(bouquet(4), c2)) == 8
    assert verify_tree_vankampen(bouquet(4), c2)[1]["pi1_count"] == 8
    # 2^21 homs into C2, the least rank whose |G|^rank passes the cap
    assert groups_mod.HOM_SEARCH_CAP <= gog_mod.FUNCTOR_SET_CAP < 2**21
    for enumerate_or_verify in (enumerate_pi1_homs, verify_tree_vankampen):
        with pytest.raises(ScaleError, match="^the hom search into C2 passes the cap of 2000000$"):
            enumerate_or_verify(bouquet(22), c2)
    # a trivial test group never passes the cap, whatever the rank
    assert len(enumerate_pi1_homs(bouquet(40), cyclic(1))) == 1
    for cap in (4, 8, 30):
        monkeypatch.setattr(groups_mod, "HOM_SEARCH_CAP", cap)
        for G in (c2, cyclic(3)):
            for branches in range(1, 6):
                if G.order ** (branches - 1) <= cap:
                    continue
                for enumerate_or_verify in (enumerate_pi1_homs, verify_tree_vankampen):
                    with pytest.raises(ScaleError,
                                       match=f"^the hom search into {G.name} passes the cap "
                                             f"of {cap}$"):
                        enumerate_or_verify(bouquet(branches), G)


def test_the_vertex_join_is_refused_past_its_budget_in_any_order(monkeypatch):
    """The join charges every bucket it extends a partial choice with.  Two
    vertices of m and n candidates whose restrictions all agree charge m for
    the first and n for each of its picks, whichever comes first: at 1,500
    each that is 2,251,500, past ``FUNCTOR_SET_CAP``, and a budget of exactly
    m + m * n admits the join where one less refuses it."""
    gog = trivial_gog(diamond_graph())

    def join(*sizes):
        return gog_mod.backtrack_vertices(gog, [range(k) for k in sizes], lambda i, b, c: 0)

    message = "^the vertex join passes the cap of {}$"
    with pytest.raises(ScaleError, match=message.format(2_000_000)):
        join(1500, 1500)
    for m, n in ((3, 5), (5, 3)):
        monkeypatch.setattr(gog_mod, "FUNCTOR_SET_CAP", m + m * n)
        assert join(m, n) == [(i, k) for i in range(m) for k in range(n)]
        monkeypatch.setattr(gog_mod, "FUNCTOR_SET_CAP", m + m * n - 1)
        with pytest.raises(ScaleError, match=message.format(m + m * n - 1)):
            join(m, n)


def test_a_refused_join_builds_no_choice():
    """The search keeps the picks and last buckets of its partial choices and
    builds the choices only once it is admitted, so the 1,500 x 1,500
    refusal above peaks near the interpreter's own floor in a child; when
    every choice up to the cap was built first it peaked at about 200 MB."""
    script = ("from catalog import diamond_graph, trivial_gog\n"
              "from vkpatch.gog import backtrack_vertices\n"
              "from vkpatch.graphs import ScaleError\n"
              "try:\n"
              "    backtrack_vertices(trivial_gog(diamond_graph()), [range(1500)] * 2,\n"
              "                       lambda i, b, c: 0)\n"
              "except ScaleError:\n"
              "    raise SystemExit(3)\n")
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    _, peak_kb, code = _tool("child_peaks").measure([sys.executable, "-c", script], env)
    assert code == 3
    assert peak_kb < 40 * 1024, f"peak RSS {peak_kb} KB"


def test_theta_of_s3_into_s4_fits_the_hom_search_budget(monkeypatch):
    """665,856 homs take 927,984 candidate images, under ``HOM_SEARCH_CAP``;
    a budget of exactly that many still admits the search."""
    s3 = symmetric(3)
    vk = build_presentation(with_trivial_edges(theta_graph(), {"P": s3, "U": s3}))
    assert groups_mod.HOM_SEARCH_CAP >= 927_984
    monkeypatch.setattr(groups_mod, "HOM_SEARCH_CAP", 927_984)
    assert len(enumerate_homs(vk.presentation, symmetric(4))) == 665_856


def test_conjugacy_class_count():
    s3 = symmetric(3)
    gog = with_trivial_edges(
        diamond_graph(), {"P": cyclic(2), "U": cyclic(3)}
    )
    presentation = build_presentation(gog).presentation
    homs = enumerate_homs(presentation, s3)
    assert len(homs) == 12
    # orbits under simultaneous conjugation: hand count
    assert conjugacy_class_count(presentation, s3) == _set_count(s3, homs) == 4


def _set_count(group, homs):
    """Classes under simultaneous conjugation by hashing every hom, each a
    tuple of generator images, and discarding its conjugates."""
    remaining = {tuple(h) for h in homs}
    classes = 0
    while remaining:
        h = remaining.pop()
        classes += 1
        for table in group.conjugation_table():
            remaining.discard(tuple(table[x] for x in h))
    return classes


# test groups up to order 12; the nonabelian ones have the proper
# centralizers that Burnside's sum builds
BURNSIDE_TARGETS = groups_up_to(8) + [
    alternating4(), direct_product(symmetric(3), cyclic(2), name="D6"), cyclic(12),
]


def _random_instance(rng):
    """A random graph of groups on at most three vertices, at most one
    branch off its tree, and a test group of order up to 12."""
    graph = random_tree_graph(rng, max_vertices=3)
    if rng.random() < 0.5:
        graph = add_extra_edges(rng, graph, 1)
    return random_gog(rng, graph, vertex_order_cap=6), rng.choice(BURNSIDE_TARGETS)


def _assert_burnside_matches_the_set_count(gog, G):
    presentation = build_presentation(gog).presentation
    assert conjugacy_class_count(presentation, G) == _set_count(G, iter_homs(presentation, G)[1])


def test_burnside_matches_the_set_count_on_the_catalog():
    """Every vertex group of the zoo up to order 6 at both ends of the
    circle, with trivial branches, into every test group."""
    for P, U in itertools.combinations_with_replacement(groups_up_to(6), 2):
        for G in BURNSIDE_TARGETS:
            _assert_burnside_matches_the_set_count(
                with_trivial_edges(circle_graph(), {"P": P, "U": U}), G)


def test_burnside_matches_the_set_count_on_random_graphs_of_groups():
    rng = random.Random(20261022)
    for _ in range(150):
        _assert_burnside_matches_the_set_count(*_random_instance(rng))


@pytest.mark.skipif(given is None, reason="hypothesis is not installed")
def test_burnside_matches_the_set_count_on_a_hypothesis_sweep():
    @seed(20261022)
    @settings(max_examples=40, deadline=None, database=None)
    @given(st.randoms(use_true_random=False))
    def sweep(rng):
        _assert_burnside_matches_the_set_count(*_random_instance(rng))

    sweep()


def test_burnside_adds_no_refusal_to_the_hom_search(monkeypatch):
    """A search into a centralizer extends only partial assignments that the
    search into G extends, each charged |C(g)| <= |G|: the least budget that
    admits the search into G admits every centralizer search, and one less
    refuses the class count with the search into G."""
    rng = random.Random(5)
    # drawn before the budget is patched, since drawing searches for homs
    instances = [_random_instance(rng) for _ in range(40)]
    cap = groups_mod.HOM_SEARCH_CAP
    for gog, G in instances:
        presentation = build_presentation(gog).presentation
        low, high = 1, cap
        while low < high:
            middle = (low + high) // 2
            monkeypatch.setattr(groups_mod, "HOM_SEARCH_CAP", middle)
            try:
                iter_homs(presentation, G)
                high = middle
            except ScaleError:
                low = middle + 1
        monkeypatch.setattr(groups_mod, "HOM_SEARCH_CAP", low)
        conjugacy_class_count(presentation, G)
        monkeypatch.setattr(groups_mod, "HOM_SEARCH_CAP", low - 1)
        with pytest.raises(ScaleError, match=f"^the hom search into {re.escape(G.name)} passes "
                                             f"the cap of {low - 1}$"):
            conjugacy_class_count(presentation, G)


def test_burnside_walks_no_hom(monkeypatch):
    """Every term of the sum is the hom search's count: with the walk of the
    stored solutions made to raise, the classes still come out."""
    def walk(solutions, nexts):
        raise AssertionError("a hom was walked")
        yield

    s3 = symmetric(3)
    presentation = build_presentation(
        with_trivial_edges(circle_graph(), {"P": s3, "U": s3})).presentation
    monkeypatch.setattr(groups_mod, "_walk_stretches", walk)
    with pytest.raises(AssertionError, match="a hom was walked"):
        list(iter_homs(presentation, symmetric(4))[1])
    assert conjugacy_class_count(presentation, symmetric(4)) == 1_213


def test_theta_of_s3_into_s4_has_28115_classes(monkeypatch):
    """At a budget of exactly what the search for the 665,856 homs charges,
    Burnside's sum over the centralizers of S4 gives the classes."""
    s3 = symmetric(3)
    vk = build_presentation(with_trivial_edges(theta_graph(), {"P": s3, "U": s3}))
    monkeypatch.setattr(groups_mod, "HOM_SEARCH_CAP", 927_984)
    assert conjugacy_class_count(vk.presentation, symmetric(4)) == 28_115


def _validated_family(gog, G, key):
    """The family of a key, each vertex table first built as a validating
    GroupHom."""
    for v, table in zip(gog.vertices, key[0]):
        GroupHom(gog.vertex_groups[v], G, table)
    return HomFamily(gog, G, key)


def _validated_vankampen_fields(gog, G):
    """pi1_count, naive_count, bijection and witness of the tree van Kampen
    report, recomputed from validated families."""
    families = [_validated_family(gog, G, fam.key) for fam in enumerate_pi1_homs(gog, G)]
    identity = tuple(G.identity for _ in gog.graph.edge_names())
    naive = [_validated_family(gog, G, (tables, identity)) for tables in naive_limit_homs(gog, G)]
    naive_keys = {fam.key[0] for fam in naive}
    restricted = [fam.key[0] for fam in families]
    lands = all(k in naive_keys for k in restricted)
    injective = len(set(restricted)) == len(restricted)
    bijection = lands and injective and naive_keys <= set(restricted)

    def conj(fam):
        return "{" + ", ".join(
            f"{n}: {G.label(c)}" for n, c in zip(gog.graph.edge_names(), fam.key[1])
        ) + "}"

    witness = None
    if not lands:
        bad = next(f for f, k in zip(families, restricted) if k not in naive_keys)
        witness = (
            "a presentation hom restricts to a family without exact edge "
            f"agreement; conjugators {conj(bad)}"
        )
    elif not injective:
        seen = set()
        for fam, k in zip(families, restricted):
            if k in seen:
                witness = (
                    "two presentation homs restrict identically; the extra one "
                    f"has conjugators {conj(fam)}"
                )
                break
            seen.add(k)
    return len(families), len(naive), bijection, witness


def _orbit_count(gog, G, families):
    """Classes under simultaneous conjugation, each conjugated vertex hom
    built as a validating GroupHom."""
    remaining = {fam.key for fam in families}
    classes = 0
    for fam in families:
        if fam.key not in remaining:
            continue
        classes += 1
        tables, conjugators = fam.key
        for g in range(G.order):
            verts = tuple(
                GroupHom(gog.vertex_groups[v], G, [G.conjugate(g, x) for x in table]).mapping
                for v, table in zip(gog.vertices, tables)
            )
            conj = tuple(G.conjugate(g, c) for c in conjugators)
            remaining.discard((verts, conj))
    return classes


def test_tuple_paths_match_validated_families_on_the_catalog():
    rng = random.Random(71)
    pool = [G for G in groups_up_to(8) if G.order > 1]
    nonabelian = [
        G for G in pool
        if any(G.mul(a, b) != G.mul(b, a) for a in range(G.order) for b in range(G.order))
    ]
    witnesses = 0
    for k in range(16):
        graph = random_tree_graph(rng, max_vertices=3)
        if k % 4 >= 2:
            graph = add_extra_edges(rng, graph, 1)
        gog = random_gog(rng, graph, vertex_order_cap=6)
        G = nonabelian[k // 2 % len(nonabelian)] if k % 2 else pool[k // 2]

        _, report = verify_tree_vankampen(gog, G)
        _, indep = verify_tree_independence(gog, G)
        assert list(indep["counts"].values()) == [
            len(enumerate_homs(build_presentation(gog, t).presentation, G))
            for t in spanning_trees(graph)
        ]

        families = enumerate_pi1_homs(gog, G)
        assert conjugacy_class_count(build_presentation(gog).presentation, G) == _orbit_count(
            gog, G, families)

        fields = (report["pi1_count"], report["naive_count"], report["bijection"],
                  report["witness"])
        assert fields == _validated_vankampen_fields(gog, G)
        witnesses += report["witness"] is not None
    assert witnesses > 0


def test_streamed_witness_is_the_first_hom_that_does_not_land(monkeypatch):
    """With every other naive family dropped, many homs restrict outside the
    naive limit, several to each dropped family; the witness is the first of
    them in hom order, as over the validated families."""
    s3 = symmetric(3)
    gog = with_trivial_edges(circle_graph(), {"P": s3, "U": s3})
    real = naive_limit_homs
    kept = real(gog, s3)[::2]
    dropped = set(real(gog, s3)) - set(kept)
    # the van Kampen check and the validated fields read both bindings
    monkeypatch.setattr(gog_mod, "naive_limit_homs", lambda g, G: kept)
    monkeypatch.setitem(globals(), "naive_limit_homs", lambda g, G: kept)
    _, report = verify_tree_vankampen(gog, s3)
    fields = (report["pi1_count"], report["naive_count"], report["bijection"],
              report["witness"])
    assert fields == _validated_vankampen_fields(gog, s3)
    families = enumerate_pi1_homs(gog, s3)
    outside = [fam for fam in families if fam.key[0] in dropped]
    # the first hom lands, and the first that does not shares its
    # restriction with homs of other conjugators
    assert families[0].key[0] in kept and outside[0] is not families[0]
    assert len({fam.key[1] for fam in outside if fam.key[0] == outside[0].key[0]}) > 1
    first = "{" + ", ".join(f"{n}: {s3.label(c)}"
                            for n, c in zip(gog.graph.edge_names(), outside[0].key[1])) + "}"
    assert report["witness"] == ("a presentation hom restricts to a family without exact edge "
                                 f"agreement; conjugators {first}")


def test_streamed_witness_is_the_first_duplicate_restriction():
    """On the circle, homs that differ only in the free letter restrict
    identically; the witness is the first hom whose restriction came
    before, as over the validated families."""
    s3 = symmetric(3)
    for gog in (with_trivial_edges(circle_graph(), {"P": s3, "U": cyclic(2)}),
                with_trivial_edges(theta_graph(), {"P": cyclic(2), "U": s3})):
        _, report = verify_tree_vankampen(gog, s3)
        fields = (report["pi1_count"], report["naive_count"], report["bijection"],
                  report["witness"])
        assert fields == _validated_vankampen_fields(gog, s3)
        assert report["witness"].startswith("two presentation homs restrict identically")


def test_family_keys_match_validated_families_on_the_catalog():
    """The presentation's family keys are the keys of the validated families,
    in order, and read each generator image at its own symbol."""
    rng = random.Random(83)
    pool = [G for G in groups_up_to(6) if G.order > 1]
    for k in range(12):
        graph = random_tree_graph(rng, max_vertices=3)
        if k % 2:
            graph = add_extra_edges(rng, graph, 1)
        gog = random_gog(rng, graph, vertex_order_cap=6)
        G = pool[k % len(pool)]
        vk = build_presentation(gog)
        assignments = enumerate_homs(vk.presentation, G)
        families = enumerate_pi1_homs(gog, G)
        assert [vk.family_key(a) for a in assignments] == [fam.key for fam in families]
        symbols = [
            (v, x, s)
            for v, block in zip(gog.vertices, vk.vertex_blocks)
            for x, s in enumerate(range(block.start, block.stop))
        ]
        # each symbol is named for its vertex and element, each letter for its branch
        assert len(symbols) + len(vk.edge_symbols) == len(vk.presentation.generators)
        for v, x, s in symbols:
            assert vk.presentation.generators[s] == f"{v}:{gog.vertex_groups[v].label(x)}"
        for n, s in zip(gog.graph.edge_names(), vk.edge_symbols):
            assert vk.presentation.generators[s] == f"e:{n}"
        for a, fam in zip(assignments, families):
            tables, conjugators = fam.key
            homs = {
                v: GroupHom(gog.vertex_groups[v], G, table)
                for v, table in zip(gog.vertices, tables)
            }
            assert all(homs[v](x) == a[s] for v, x, s in symbols)
            assert all(c == a[s] for c, s in zip(conjugators, vk.edge_symbols))

"""Graph-of-groups presentations and hom solvers against counting oracles."""

from __future__ import annotations

import random

import pytest

from catalog import (
    circle_graph,
    diamond_graph,
    groups_up_to,
    hom_set,
    random_gog,
    random_tree_graph,
    theta_graph,
    trivial_gog,
    with_trivial_edges,
)
from vkpatch import gog as gog_mod
from vkpatch.gog import (
    GraphOfFiniteGroups,
    HomFamily,
    build_presentation,
    conjugacy_class_count,
    enumerate_pi1_homs,
    naive_limit_homs,
    verify_tree_independence,
    verify_tree_vankampen,
)
from vkpatch.graphs import ReductionGraph, ScaleError, SpanningTree, maximal_tree, spanning_trees
from vkpatch.groups import GroupHom, cyclic, enumerate_homs, from_table, symmetric


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
            "b2": {"to_point": GroupHom.trivial(cyclic(1), c2),
                   "to_component": GroupHom.trivial(cyclic(1), at_u)},
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
            "b1": {"to_point": GroupHom.trivial(cyclic(1), c2),
                   "to_component": GroupHom.trivial(cyclic(1), c4)},
            "b2": into,
            "b3": into,
        },
    )
    vk = build_presentation(gog, SpanningTree(graph, ("b2",)))
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
        f = dict(zip(gog.graph.vertices, tables))
        assert f["U"][3] == s3.conjugate(c, f["P"][2])


def test_hom_family_rejects_bad_conjugator():
    c2 = cyclic(2)
    gog = amalgam_c4_c6()
    fams = enumerate_pi1_homs(gog, c2)
    tables, conj = fams[1].key
    bad_tables = list(tables)
    # break edge agreement
    bad_tables[gog.graph.vertices.index("U")] = hom_set(cyclic(6), c2)[1].mapping
    with pytest.raises(ValueError, match="edge relation on branch b1"):
        HomFamily(gog, c2, (tuple(bad_tables), conj))


def test_edge_maps_must_be_injective_by_default():
    c2, c4 = cyclic(2), cyclic(4)
    collapse = GroupHom.trivial(c2, c4)
    with pytest.raises(ValueError):
        GraphOfFiniteGroups(
            diamond_graph(), {"P": c4, "U": c4}, {"b1": c2},
            {"b1": {"to_point": collapse, "to_component": GroupHom(c2, c4, [0, 2])}},
        )


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
    _, machine = verify_tree_independence(gog, G, verify_tree_vankampen(gog, G)[1]["pi1_count"])
    return machine


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
    """With the van Kampen check's count for the maximal tree, the two checks
    enumerate one presentation per spanning tree, and the independence
    counts and labels are those of enumerating every tree."""
    from catalog import add_extra_edges

    real_build, real_enumerate = gog_mod.build_presentation, gog_mod.enumerate_homs
    built, enumerated = [], []

    def build(*args, **kwargs):
        vk = real_build(*args, **kwargs)
        built.append(vk.presentation)
        return vk

    def enumerate_counted(pres, G):
        if any(pres is p for p in built):
            enumerated.append(pres)
        return real_enumerate(pres, G)

    monkeypatch.setattr(gog_mod, "build_presentation", build)
    monkeypatch.setattr(gog_mod, "enumerate_homs", enumerate_counted)
    rng = random.Random(29)
    cases = [(trivial_gog(g()), symmetric(3)) for g in (diamond_graph, circle_graph, theta_graph)]
    for k in range(6):
        graph = add_extra_edges(rng, random_tree_graph(rng, max_vertices=3), k % 3)
        cases.append((random_gog(rng, graph, vertex_order_cap=6), symmetric(3)))
    for gog, G in cases:
        built.clear()
        enumerated.clear()
        _, report = verify_tree_vankampen(gog, G)
        _, indep = verify_tree_independence(gog, G, report["pi1_count"])
        trees = spanning_trees(gog.graph)
        assert len(enumerated) == len(trees)
        expected = [
            ("{" + ",".join(t.edge_names) + "}",
             len(real_enumerate(real_build(gog, t).presentation, G)))
            for t in trees
        ]
        assert list(indep["counts"].items()) == expected


def test_pi1_count_invariant_under_tree_choice_random_instances():
    rng = random.Random(23)
    for _ in range(5):
        graph = random_tree_graph(rng)
        from catalog import add_extra_edges

        graph = add_extra_edges(rng, graph, rng.randint(1, 2))
        gog = random_gog(rng, graph, vertex_order_cap=6)
        counts = {
            len(enumerate_pi1_homs(gog, symmetric(3), tree=tree))
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
    there are at least |G|^rank of them: both enumerating callers run at the
    cap and refuse past it before enumerating."""
    monkeypatch.setattr(gog_mod, "FUNCTOR_SET_CAP", 8)
    c2 = cyclic(2)

    def bouquet(branches):
        # one point and one component joined by parallel branches: rank branches - 1
        edges = [(f"b{i}", "P", "U") for i in range(1, branches + 1)]
        return trivial_gog(ReductionGraph(["P"], ["U"], edges))

    assert len(enumerate_pi1_homs(bouquet(4), c2)) == 8
    assert verify_tree_vankampen(bouquet(4), c2)[1]["pi1_count"] == 8
    for enumerate_or_verify in (enumerate_pi1_homs, verify_tree_vankampen):
        with pytest.raises(ScaleError, match=r"at least 2\^4 elements \(cap 8\)$"):
            enumerate_or_verify(bouquet(5), c2)
    # a trivial test group never passes the cap, whatever the rank
    assert len(enumerate_pi1_homs(bouquet(40), cyclic(1))) == 1


def test_conjugacy_class_count():
    s3 = symmetric(3)
    gog = with_trivial_edges(
        diamond_graph(), {"P": cyclic(2), "U": cyclic(3)}
    )
    homs = enumerate_homs(build_presentation(gog).presentation, s3)
    assert len(homs) == 12
    classes = conjugacy_class_count(s3, homs)
    # orbits under simultaneous conjugation: hand count
    assert classes == 4


def test_presentation_requires_matching_tree():
    gog = trivial_gog(circle_graph())
    other = trivial_gog(theta_graph())
    tree = maximal_tree(other.graph)
    with pytest.raises(ValueError):
        build_presentation(gog, tree)


def _validated_family(gog, G, key):
    """The family of a key, each vertex table first built as a validating
    GroupHom."""
    for v, table in zip(gog.graph.vertices, key[0]):
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
                for v, table in zip(gog.graph.vertices, tables)
            )
            conj = tuple(G.conjugate(g, c) for c in conjugators)
            remaining.discard((verts, conj))
    return classes


def test_tuple_paths_match_validated_families_on_the_catalog():
    from catalog import add_extra_edges

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
        _, indep = verify_tree_independence(gog, G, report["pi1_count"])
        assert list(indep["counts"].values()) == [
            len(enumerate_pi1_homs(gog, G, tree=t)) for t in spanning_trees(graph)
        ]

        families = enumerate_pi1_homs(gog, G)
        homs = enumerate_homs(build_presentation(gog).presentation, G)
        assert conjugacy_class_count(G, homs) == _orbit_count(gog, G, families)

        fields = (report["pi1_count"], report["naive_count"], report["bijection"],
                  report["witness"])
        assert fields == _validated_vankampen_fields(gog, G)
        witnesses += report["witness"] is not None
    assert witnesses > 0


def test_family_keys_match_validated_families_on_the_catalog():
    """The presentation's family keys are the keys of the validated families,
    in order, and read each generator image at its own symbol."""
    from catalog import add_extra_edges

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
            for v, block in zip(gog.graph.vertices, vk.vertex_blocks)
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
                for v, table in zip(gog.graph.vertices, tables)
            }
            assert all(homs[v](x) == a[s] for v, x, s in symbols)
            assert all(c == a[s] for c, s in zip(conjugators, vk.edge_symbols))

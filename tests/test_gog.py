"""Graph-of-groups presentations and hom solvers against counting oracles."""

from __future__ import annotations

import random

import pytest

from catalog import (
    circle_graph,
    diamond_graph,
    groups_up_to,
    random_gog,
    random_tree_graph,
    theta_graph,
    trivial_gog,
)
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
from vkpatch.graphs import maximal_tree, spanning_trees
from vkpatch.groups import GroupHom, conjugate_hom, cyclic, enumerate_homs, hom_set, symmetric


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
    gog = GraphOfFiniteGroups.with_trivial_edges(diamond_graph(), {"P": c2, "U": c3})
    vk = build_presentation(gog)
    # generators: 2 + 3 vertex symbols plus one edge letter
    assert len(vk.presentation.generators) == 6
    # the tree edge letter is trivialized
    e = vk.edge_symbol["b1"] + 1
    assert (e,) in vk.presentation.relators
    # multiplication relators for both vertex groups
    assert len(vk.presentation.relators) == 4 + 9 + 1  # trivial edge group adds none


def test_presentation_of_circle_with_trivial_groups():
    gog = trivial_gog(circle_graph())
    vk = build_presentation(gog)
    # two trivial vertex symbols, two edge letters, one trivializer
    assert len(vk.presentation.generators) == 4
    free_letters = [
        name for name in gog.graph.edge_names()
        if (vk.edge_symbol[name] + 1,) not in vk.presentation.relators
    ]
    assert free_letters == ["b2"]


def test_presentation_of_amalgam_has_conjugation_relators():
    gog = amalgam_c4_c6()
    vk = build_presentation(gog)
    pres = vk.presentation
    e = vk.edge_symbol["b1"] + 1
    sp = vk.vertex_symbol[("P", 2)] + 1  # image of the involution in C4
    su = vk.vertex_symbol[("U", 3)] + 1  # image of the involution in C6
    assert (e, sp, -e, -su) in pres.relators
    # tree edge: letter trivialized, so the relation amounts to amalgamation
    assert (e,) in pres.relators
    assert len(pres.relators) == 16 + 36 + 1 + 1


def test_pi1_hom_counts_on_spec_examples():
    c1, c2, c3, s3 = cyclic(1), cyclic(2), cyclic(3), symmetric(3)
    free_prod = GraphOfFiniteGroups.with_trivial_edges(diamond_graph(), {"P": c2, "U": c3})
    assert len(enumerate_pi1_homs(free_prod, s3)) == 12
    assert len(enumerate_pi1_homs(trivial_gog(circle_graph()), s3)) == 6
    assert len(enumerate_pi1_homs(amalgam_c4_c6(), c2)) == 2


def test_naive_limit_counts_on_spec_examples():
    c1, c2 = cyclic(1), cyclic(2)
    assert len(naive_limit_homs(trivial_gog(circle_graph()), c2)) == 1
    free_prod = GraphOfFiniteGroups.with_trivial_edges(
        diamond_graph(), {"P": cyclic(4), "U": cyclic(6)}
    )
    assert len(naive_limit_homs(free_prod, c1)) == 1
    assert len(naive_limit_homs(amalgam_c4_c6(), c2)) == 2


def test_hom_families_satisfy_edge_relation():
    s3 = symmetric(3)
    for fam in enumerate_pi1_homs(amalgam_c4_c6(), s3):
        # HomFamily validates on construction; re-check one instance by hand
        c = fam.conjugators["b1"]
        f_p, f_u = fam.vertex_homs["P"], fam.vertex_homs["U"]
        assert f_u(3) == s3.conjugate(c, f_p(2))


def test_hom_family_rejects_bad_conjugator():
    c2 = cyclic(2)
    gog = amalgam_c4_c6()
    fams = enumerate_pi1_homs(gog, c2)
    fam = fams[1]
    bad_homs = dict(fam.vertex_homs)
    bad_homs["U"] = hom_set(cyclic(6), c2)[1]  # break edge agreement
    with pytest.raises(ValueError):
        HomFamily(gog, c2, bad_homs, fam.conjugators)


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
            report = verify_tree_vankampen(gog, G)
            assert report.graph_is_tree
            assert report.bijection, report.witness
            assert report.pi1_count == report.naive_count


def test_tree_vankampen_up_to_order_twelve_targets():
    from catalog import alternating4

    rng = random.Random(61)
    for G in (cyclic(12), alternating4()):
        assert G.order == 12
        for _ in range(3):
            gog = random_gog(rng, random_tree_graph(rng, max_vertices=3), vertex_order_cap=6)
            report = verify_tree_vankampen(gog, G)
            assert report.graph_is_tree and report.bijection, report.witness


def test_tree_vankampen_flags_non_trees():
    c2 = cyclic(2)
    report = verify_tree_vankampen(trivial_gog(circle_graph()), c2)
    assert not report.graph_is_tree
    assert report.pi1_count == 2
    assert report.naive_count == 1
    assert not report.bijection
    assert "conjugators" in report.witness


def test_tree_vankampen_with_trivial_test_group():
    report = verify_tree_vankampen(trivial_gog(circle_graph()), cyclic(1))
    assert report.pi1_count == report.naive_count == 1
    assert report.bijection  # both sides singletons


def test_non_tree_with_trivial_vertex_groups_counts_rank():
    for graph in (circle_graph(), theta_graph()):
        gog = trivial_gog(graph)
        rank = len(graph.edges) - len(graph.vertices) + 1
        for G in (cyclic(2), cyclic(3), symmetric(3)):
            assert len(enumerate_pi1_homs(gog, G)) == G.order**rank
            assert len(naive_limit_homs(gog, G)) == 1


def test_tree_independence_reports():
    c2, s3 = cyclic(2), symmetric(3)
    report = verify_tree_independence(trivial_gog(circle_graph()), s3)
    assert report.all_equal and set(report.counts.values()) == {6}
    report = verify_tree_independence(trivial_gog(theta_graph()), c2)
    assert report.all_equal and set(report.counts.values()) == {4}
    # a tree has a single spanning tree: vacuous pass
    report = verify_tree_independence(trivial_gog(diamond_graph()), c2)
    assert report.all_equal and len(report.counts) == 1


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
        gog = GraphOfFiniteGroups.with_trivial_edges(graph, vgroups)
        for G in (cyclic(2), symmetric(3)):
            expected = 1
            for v in graph.vertices:
                expected *= len(hom_set(vgroups[v], G))
            assert len(enumerate_pi1_homs(gog, G)) == expected


def test_enumeration_is_deterministic():
    gog = amalgam_c4_c6()
    s3 = symmetric(3)
    first = [fam.key() for fam in enumerate_pi1_homs(gog, s3)]
    second = [fam.key() for fam in enumerate_pi1_homs(gog, s3)]
    assert first == second
    assert len(set(first)) == len(first)


def test_conjugacy_class_count():
    s3 = symmetric(3)
    gog = GraphOfFiniteGroups.with_trivial_edges(
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


def _validated_vankampen_fields(gog, G):
    """pi1_count, naive_count, bijection and witness of the tree van Kampen
    report, recomputed from validated HomFamily objects."""
    families = enumerate_pi1_homs(gog, G)
    naive = naive_limit_homs(gog, G)
    naive_keys = {fam.key()[0] for fam in naive}
    restricted = [fam.key()[0] for fam in families]
    lands = all(k in naive_keys for k in restricted)
    injective = len(set(restricted)) == len(restricted)
    bijection = lands and injective and naive_keys <= set(restricted)

    def conj(fam):
        return "{" + ", ".join(
            f"{n}: {G.label(fam.conjugators[n])}" for n in gog.graph.edge_names()
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
    """Classes under simultaneous conjugation, via the validating conjugate_hom."""
    remaining = {fam.key() for fam in families}
    classes = 0
    for fam in families:
        if fam.key() not in remaining:
            continue
        classes += 1
        for g in range(G.order):
            verts = tuple(
                conjugate_hom(fam.vertex_homs[v], g).mapping for v in gog.graph.vertices
            )
            conj = tuple(G.conjugate(g, fam.conjugators[n]) for n in gog.graph.edge_names())
            remaining.discard((verts, conj))
    return classes


def test_tuple_paths_match_validated_families_on_the_catalog():
    from catalog import add_extra_edges

    rng = random.Random(71)
    pool = [G for G in groups_up_to(8) if G.order > 1]
    nonabelian = [G for G in pool if not G.is_abelian()]
    witnesses = 0
    for k in range(16):
        graph = random_tree_graph(rng, max_vertices=3)
        if k % 4 >= 2:
            graph = add_extra_edges(rng, graph, 1)
        gog = random_gog(rng, graph, vertex_order_cap=6)
        G = nonabelian[k // 2 % len(nonabelian)] if k % 2 else pool[k // 2]

        indep = verify_tree_independence(gog, G)
        assert list(indep.counts.values()) == [
            len(enumerate_pi1_homs(gog, G, tree=t)) for t in spanning_trees(graph)
        ]

        families = enumerate_pi1_homs(gog, G)
        homs = enumerate_homs(build_presentation(gog).presentation, G)
        assert conjugacy_class_count(G, homs) == _orbit_count(gog, G, families)

        report = verify_tree_vankampen(gog, G)
        fields = (report.pi1_count, report.naive_count, report.bijection, report.witness)
        assert fields == _validated_vankampen_fields(gog, G)
        witnesses += report.witness is not None
    assert witnesses > 0

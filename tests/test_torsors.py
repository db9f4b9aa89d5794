"""Multipointed torsors: the hom dictionary, setoid law, patching, pushout."""

from __future__ import annotations

import itertools
import random

import pytest

from catalog import (
    add_extra_edges,
    circle_graph,
    diamond_graph,
    random_gog,
    random_tree_graph,
    theta_graph,
    trivial_gog,
)
from vkpatch.gog import GraphOfFiniteGroups, build_presentation, enumerate_pi1_homs
from vkpatch.groups import GroupHom, cyclic, hom_set, symmetric
from vkpatch import torsors
from vkpatch.torsors import (
    GroupoidFunctor,
    ModelGroupoid,
    MultipointedTorsor,
    PatchingError,
    PatchingProblem,
    TwoFiberObject,
    hom_from_torsor,
    inverse_natural_map,
    natural_map,
    solve_patching,
    torsor_from_hom,
    torsor_morphisms,
    verify_groupoid_pushout,
)


def all_functors(gpd: ModelGroupoid, target):
    """Every functor to the one-object groupoid of the target group."""
    free = [s for s in gpd.objects if s != gpd.base]
    for hom in hom_set(gpd.group, target):
        for combo in itertools.product(range(target.order), repeat=len(free)):
            translations = {gpd.base: target.identity}
            translations.update(dict(zip(free, combo)))
            yield GroupoidFunctor(gpd, target, hom, translations)


# -- dictionary round trips -----------------------------------------------------


def test_round_trip_exhaustive_small():
    c2, c3 = cyclic(2), cyclic(3)
    for gamma, target, labels in [
        (c2, c2, ["a"]),
        (c2, c3, ["a", "b"]),
        (symmetric(3), c2, ["a", "b"]),
        (cyclic(4), symmetric(3), ["a", "b", "c"]),
    ]:
        gpd = ModelGroupoid(labels, gamma)
        for f in all_functors(gpd, target):
            t = torsor_from_hom(f)
            back = hom_from_torsor(t, gpd)
            assert back.key() == f.key()
            t2 = torsor_from_hom(back)
            assert t2.canonical_key() == t.canonical_key()


def test_model_groupoid_arrow_algebra():
    s3 = symmetric(3)
    gpd = ModelGroupoid(["b", "a", "c"], s3)
    assert gpd.base == "a"
    first = ("a", 2, "b")
    second = ("b", 3, "c")
    composed = gpd.compose(second, first)
    assert composed == ("a", s3.mul(3, 2), "c")
    assert gpd.compose(gpd.inverse(first), first) == gpd.identity_arrow("a")
    assert len(list(gpd.arrows())) == 3 * 3 * s3.order
    with pytest.raises(ValueError):
        gpd.compose(first, second)


def test_trivial_functor_gives_trivial_torsor():
    c2 = cyclic(2)
    gpd = ModelGroupoid(["a"], cyclic(1))
    f = GroupoidFunctor(gpd, c2, GroupHom.trivial(cyclic(1), c2), {"a": 0})
    t = torsor_from_hom(f)
    assert t.points["a"] == t.group.identity
    assert t.structure_map().is_trivial()


def test_identity_character_torsor_has_nontrivial_left_action():
    c2 = cyclic(2)
    gpd = ModelGroupoid(["a"], c2)
    ident = GroupHom.identity_hom(c2)
    t = torsor_from_hom(GroupoidFunctor(gpd, c2, ident, {"a": 0}))
    assert t.left[1] != tuple(range(2))
    # commuting actions validated on construction; spot check one entry
    assert t.left[1][t.right[0][1]] == t.right[t.left[1][0]][1]


def test_point_recipe_for_free_translation():
    c3 = cyclic(3)
    gpd = ModelGroupoid(["s0", "s1"], cyclic(1))
    f = GroupoidFunctor(gpd, c3, GroupHom.trivial(cyclic(1), c3), {"s0": 0, "s1": 1})
    t = torsor_from_hom(f)
    assert t.points["s0"] == 0
    assert t.points["s1"] == c3.inv(1)


def test_functor_table_validation():
    c2 = cyclic(2)
    gpd = ModelGroupoid(["a", "b"], c2)
    f = GroupoidFunctor(gpd, c2, GroupHom.identity_hom(c2), {"a": 0, "b": 1})
    table = {arrow: f.value(arrow) for arrow in gpd.arrows()}
    rebuilt = GroupoidFunctor.from_arrow_table(gpd, c2, table)
    assert rebuilt.key() == f.key()
    assert table[("a", 1, "a")] == 1
    table[("a", 1, "a")] = c2.identity  # break composition
    with pytest.raises(ValueError):
        GroupoidFunctor.from_arrow_table(gpd, c2, table)


def test_remarking_all_points_conjugates_the_functor():
    s3 = symmetric(3)
    gpd = ModelGroupoid(["a", "b"], cyclic(2))
    hom = hom_set(cyclic(2), s3)[1]
    f = GroupoidFunctor(gpd, s3, hom, {"a": s3.identity, "b": 3})
    t = torsor_from_hom(f)
    for g in range(s3.order):
        remarked = MultipointedTorsor(
            s3, t.structure_group, t.carrier, t.right, t.left,
            {s: t.right[t.points[s]][g] for s in t.point_labels},
        )
        back = hom_from_torsor(remarked, gpd)
        for arrow in gpd.arrows():
            assert back.value(arrow) == s3.conjugate(s3.inv(g), f.value(arrow))


# -- setoid law -------------------------------------------------------------------


def test_at_most_one_morphism_and_it_is_iso():
    c2, c3 = cyclic(2), cyclic(3)
    gpd = ModelGroupoid(["a", "b"], c2)
    torsors = [torsor_from_hom(f) for f in all_functors(gpd, c3)]
    for t1 in torsors:
        for t2 in torsors:
            mor = torsor_morphisms(t1, t2)
            same_class = t1.canonical_key() == t2.canonical_key()
            assert (mor is not None) == same_class
            if mor is not None:
                assert sorted(mor.mapping) == list(range(len(t1.carrier)))


def test_identity_morphism_exists():
    c2 = cyclic(2)
    t = MultipointedTorsor.standard(c2, GroupHom.identity_hom(c2), {"a": 0, "b": 1})
    mor = torsor_morphisms(t, t)
    assert mor is not None and mor.mapping == (0, 1)


def test_distinct_homs_give_unrelated_torsors():
    s3 = symmetric(3)
    gpd = ModelGroupoid(["a"], cyclic(2))
    torsors = [torsor_from_hom(f) for f in all_functors(gpd, s3)]
    for i, t1 in enumerate(torsors):
        for j, t2 in enumerate(torsors):
            assert (torsor_morphisms(t1, t2) is not None) == (i == j)


def test_remarking_one_of_two_points_breaks_morphisms():
    c3 = cyclic(3)
    t = MultipointedTorsor.standard(
        c3, GroupHom.trivial(cyclic(1), c3), {"a": 0, "b": 0}
    )
    remarked = MultipointedTorsor.standard(
        c3, GroupHom.trivial(cyclic(1), c3), {"a": 0, "b": 1}
    )
    assert torsor_morphisms(t, remarked) is None


def test_torsor_validation_catches_broken_actions():
    c2 = cyclic(2)
    with pytest.raises(ValueError):
        MultipointedTorsor(
            c2, cyclic(1), ["x", "y"],
            [[0, 0], [1, 1]],  # not free
            [[0, 1]],
            {"a": 0},
        )


def test_restrict_to_branch_pulls_back_action():
    c2, c4, s3 = cyclic(2), cyclic(4), symmetric(3)
    hom = hom_set(c4, s3)[1]
    t = MultipointedTorsor.standard(s3, hom, {"a": 0, "b": 2})
    alpha = GroupHom(c2, c4, [0, 2])
    r = t.restrict_to_branch("b", alpha)
    assert r.point_labels == ("b",)
    assert r.structure_group == c2
    assert r.left[1] == t.left[2]


# -- natural map and its inverse ---------------------------------------------------


def _markings_space(gog, G):
    edges = gog.graph.edge_names()
    b0 = min(edges)
    free = [e for e in edges if e != b0]
    for combo in itertools.product(range(G.order), repeat=len(free)):
        markings = {b0: G.identity}
        markings.update(dict(zip(free, combo)))
        yield markings


def test_natural_map_round_trip_on_random_instances():
    rng = random.Random(31)
    for _ in range(6):
        graph = random_tree_graph(rng, max_vertices=3)
        if rng.random() < 0.5:
            graph = add_extra_edges(rng, graph, 1)
        gog = random_gog(rng, graph, vertex_order_cap=6)
        G = rng.choice([cyclic(2), cyclic(3), symmetric(3)])
        pres = build_presentation(gog)
        for family in enumerate_pi1_homs(gog, G, presentation=pres):
            for markings in _markings_space(gog, G):
                datum = natural_map(pres, family, markings)
                back_family, back_markings = inverse_natural_map(pres, G, datum)
                assert back_family.key() == family.key()
                assert back_markings == markings


def test_setoid_equivalence_spec_counts():
    c1, c2, c3, s3 = cyclic(1), cyclic(2), cyclic(3), symmetric(3)
    report = verify_groupoid_pushout(
        GraphOfFiniteGroups.with_trivial_edges(diamond_graph(), {"P": c2, "U": c3}), s3
    )
    assert report.counts.global_classes == report.counts.fiber_classes == 12
    assert report.passed

    report = verify_groupoid_pushout(trivial_gog(circle_graph()), c3)
    assert report.counts.global_classes == report.counts.fiber_classes == 3
    assert report.counts.global_raw == report.counts.fiber_raw == 9
    assert report.passed

    report = verify_groupoid_pushout(trivial_gog(circle_graph()), c1)
    assert report.counts.global_classes == 1
    assert report.passed


def test_pushout_spec_counts():
    c1, c2, s3 = cyclic(1), cyclic(2), symmetric(3)
    report = verify_groupoid_pushout(trivial_gog(theta_graph()), c2)
    assert report.functor_count == report.pi1_count == 4
    assert report.passed

    report = verify_groupoid_pushout(
        GraphOfFiniteGroups.with_trivial_edges(diamond_graph(), {"P": c2, "U": cyclic(3)}),
        s3,
    )
    assert report.functor_count == report.pi1_count == 12
    assert report.passed

    report = verify_groupoid_pushout(trivial_gog(diamond_graph()), c1)
    assert report.functor_count == report.pi1_count == 1
    assert report.passed


def test_roundtrip_stride_is_reported(monkeypatch):
    gog, c3 = trivial_gog(theta_graph()), cyclic(3)
    report = verify_groupoid_pushout(gog, c3)
    assert report.counts.global_raw == 81
    assert report.roundtrip_checked == report.counts.global_raw
    assert report.roundtrip_stride == 1
    assert "round trips verified: 81 (every element)" in report.lines()

    monkeypatch.setattr(torsors, "ROUNDTRIP_CAP", 10)
    report = verify_groupoid_pushout(gog, c3)
    assert report.passed
    assert report.roundtrip_stride > 1
    assert report.roundtrip_checked < report.counts.global_raw
    assert report.to_json()["roundtrip_stride"] == report.roundtrip_stride
    assert report.to_json()["roundtrip_checked"] == report.roundtrip_checked
    assert (
        f"round trips verified: {report.roundtrip_checked} "
        f"(strided: one element in {report.roundtrip_stride})"
    ) in report.lines()


def test_pushout_on_random_instances():
    rng = random.Random(47)
    for _ in range(6):
        graph = random_tree_graph(rng, max_vertices=3)
        if rng.random() < 0.6:
            graph = add_extra_edges(rng, graph, 1)
        gog = random_gog(rng, graph, vertex_order_cap=6)
        G = rng.choice([cyclic(2), cyclic(4), symmetric(3)])
        report = verify_groupoid_pushout(gog, G)
        assert report.passed, (graph.edges, G.name)


# -- patching ----------------------------------------------------------------------


def _vertex_groupoid_data(gog, G, family, markings):
    """Build vertex/branch torsor data realizing a fiber-product object."""
    pres = build_presentation(gog)
    datum = natural_map(pres, family, markings)
    vertex_data = {}
    for v in gog.graph.vertices:
        d = datum[v]
        hom = GroupHom(gog.vertex_groups[v], G, d.hom_mapping)
        points = {e: G.inv(d.flags[e]) for e in gog.graph.edges_at(v)}
        vertex_data[v] = MultipointedTorsor.standard(G, hom, points)
    branch_data = {}
    for e in gog.graph.edge_names():
        p = gog.graph.point_end(e)
        alpha = gog.edge_maps[e]["to_point"]
        branch_data[e] = vertex_data[p].restrict_to_branch(e, alpha)
    return vertex_data, branch_data


def test_solve_patching_trivial_data():
    c2 = cyclic(2)
    gog = trivial_gog(diamond_graph())
    triv = GroupHom.trivial(cyclic(1), c2)
    vd = {v: MultipointedTorsor.standard(c2, triv, {"b1": 0}) for v in ("P", "U")}
    bd = {"b1": MultipointedTorsor.standard(c2, triv, {"b1": 0})}
    sol = solve_patching(PatchingProblem(gog, c2, vd, bd))
    assert all(h.is_trivial() for h in sol.family.vertex_homs.values())


def test_solve_patching_reproduces_local_homs():
    s3 = symmetric(3)
    c2, c3 = cyclic(2), cyclic(3)
    gog = GraphOfFiniteGroups.with_trivial_edges(diamond_graph(), {"P": c2, "U": c3})
    count = 0
    for f_p in hom_set(c2, s3):
        for f_u in hom_set(c3, s3):
            vd = {
                "P": MultipointedTorsor.standard(s3, f_p, {"b1": 0}),
                "U": MultipointedTorsor.standard(s3, f_u, {"b1": 0}),
            }
            bd = {"b1": MultipointedTorsor.standard(s3, GroupHom.trivial(cyclic(1), s3), {"b1": 0})}
            sol = solve_patching(PatchingProblem(gog, s3, vd, bd))
            assert sol.family.vertex_homs["P"].mapping == f_p.mapping
            assert sol.family.vertex_homs["U"].mapping == f_u.mapping
            count += 1
    assert count == len(hom_set(c2, s3)) * len(hom_set(c3, s3)) == 12


def test_solve_patching_circle_family_has_two_classes():
    c2 = cyclic(2)
    gog = trivial_gog(circle_graph())
    triv = GroupHom.trivial(cyclic(1), c2)
    bd = {e: MultipointedTorsor.standard(c2, triv, {e: 0}) for e in ("b1", "b2")}
    classes = set()
    for pts in itertools.product(range(2), repeat=4):
        vd = {
            "P": MultipointedTorsor.standard(c2, triv, {"b1": pts[0], "b2": pts[1]}),
            "U": MultipointedTorsor.standard(c2, triv, {"b1": pts[2], "b2": pts[3]}),
        }
        sol = solve_patching(PatchingProblem(gog, c2, vd, bd))
        classes.add(sol.family.key())
    assert len(classes) == 2
    conj_values = {key[1] for key in classes}
    assert conj_values == {(0, 0), (0, 1)}


def test_solve_patching_solution_is_unique():
    """Any global functor whose restriction equals the problem's datum is the
    returned one: uniqueness on the nose in normalized coordinates."""
    rng = random.Random(3)
    graph = add_extra_edges(rng, random_tree_graph(rng, max_vertices=3), 1)
    gog = random_gog(rng, graph, vertex_order_cap=4)
    G = cyclic(4)
    pres = build_presentation(gog)
    families = enumerate_pi1_homs(gog, G, presentation=pres)
    family = families[len(families) // 2]
    markings = next(iter(_markings_space(gog, G)))
    vd, bd = _vertex_groupoid_data(gog, G, family, markings)
    sol = solve_patching(PatchingProblem(gog, G, vd, bd))
    target = sol.family.key(), tuple(sorted(sol.markings.items()))
    hits = 0
    for fam in families:
        for mk in _markings_space(gog, G):
            datum = natural_map(pres, fam, mk)
            induced_vd = {
                v: MultipointedTorsor.standard(
                    G,
                    GroupHom(gog.vertex_groups[v], G, datum[v].hom_mapping),
                    {e: G.inv(datum[v].flags[e]) for e in gog.graph.edges_at(v)},
                )
                for v in gog.graph.vertices
            }
            if all(
                torsor_morphisms(induced_vd[v], vd[v]) is not None
                for v in gog.graph.vertices
            ):
                hits += 1
                assert (fam.key(), tuple(sorted(mk.items()))) == target
    assert hits == 1


def test_two_fiber_object_classes_match_the_fiber_product():
    """Enumerating 2-fiber-product objects up to isomorphism reproduces the
    raw fiber count of the setoid equivalence report."""
    c2, c3, s3 = cyclic(2), cyclic(3), symmetric(3)
    gog = GraphOfFiniteGroups.with_trivial_edges(diamond_graph(), {"P": c2, "U": c3})
    report = verify_groupoid_pushout(gog, s3)
    classes = set()
    built = 0
    for f_p in hom_set(c2, s3):
        for f_u in hom_set(c3, s3):
            for zeta_p in range(s3.order):
                for zeta_u in range(s3.order):
                    point_data = {"P": MultipointedTorsor.standard(s3, f_p, {"b1": zeta_p})}
                    comp_data = {"U": MultipointedTorsor.standard(s3, f_u, {"b1": zeta_u})}
                    try:
                        obj = TwoFiberObject.build(gog, comp_data, point_data)
                    except ValueError:
                        continue
                    built += 1
                    classes.add(obj.class_key())
    assert built > 0
    assert len(classes) == report.counts.fiber_raw == 12


def test_two_fiber_object_validates_connecting_maps():
    c2 = cyclic(2)
    gog = trivial_gog(diamond_graph())
    triv = GroupHom.trivial(cyclic(1), c2)
    comp = {"U": MultipointedTorsor.standard(c2, triv, {"b1": 0})}
    pt = {"P": MultipointedTorsor.standard(c2, triv, {"b1": 0})}
    obj = TwoFiberObject.build(gog, comp, pt)
    assert obj.class_key() == obj.class_key()
    bad = {"b1": torsor_morphisms(pt["P"], pt["P"])}
    wrong = MultipointedTorsor.standard(c2, triv, {"b1": 1})
    with pytest.raises(ValueError):
        TwoFiberObject(gog, {"U": wrong}, pt, bad)


def test_incompatible_problem_names_the_branch():
    c2 = cyclic(2)
    c1 = cyclic(1)
    gog = GraphOfFiniteGroups(
        diamond_graph(),
        {"P": c2, "U": c2},
        {"b1": c2},
        {"b1": {"to_point": GroupHom.identity_hom(c2),
                "to_component": GroupHom.identity_hom(c2)}},
    )
    f_id = GroupHom.identity_hom(c2)
    f_tr = GroupHom.trivial(c2, c2)
    vd = {
        "P": MultipointedTorsor.standard(c2, f_id, {"b1": 0}),
        "U": MultipointedTorsor.standard(c2, f_tr, {"b1": 0}),
    }
    bd = {"b1": MultipointedTorsor.standard(c2, f_id, {"b1": 0})}
    with pytest.raises(PatchingError) as exc:
        solve_patching(PatchingProblem(gog, c2, vd, bd))
    assert exc.value.branch == "b1"

"""Multipointed torsors: the hom dictionary, setoid law, patching, pushout."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from catalog import (
    add_extra_edges,
    circle_graph,
    diamond_graph,
    hom_set,
    random_gog,
    random_tree_graph,
    theta_graph,
    trivial_gog,
    trivial_hom,
    with_trivial_edges,
)
from test_fast_paths import disagreeing_branch
from vkpatch.gog import GraphOfFiniteGroups, HomFamily, build_presentation, enumerate_pi1_homs
from vkpatch.groups import GroupHom, cyclic, symmetric
from vkpatch import torsors
from vkpatch.torsors import (
    GroupoidFunctor,
    ModelGroupoid,
    MultipointedTorsor,
    PatchingError,
    PatchingProblem,
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


def arrows(gpd: ModelGroupoid):
    """Every arrow (s', gamma, s) of a model groupoid."""
    return itertools.product(gpd.objects, range(gpd.group.order), gpd.objects)


def functor_value(f: GroupoidFunctor, arrow: tuple) -> int:
    """The value t_s . f(gamma) . t_s'^-1 of a functor on (s', gamma, s)."""
    s0, g, s1 = arrow
    G = f.target
    return G.mul(G.mul(f.translations[s1], f.vertex_hom(g)), G.inv(f.translations[s0]))


def test_model_groupoid_arrow_algebra():
    s3 = symmetric(3)
    gpd = ModelGroupoid(["b", "a", "c"], s3)
    assert gpd.base == "a"
    assert len(list(arrows(gpd))) == 3 * 3 * s3.order
    # composing (a, 2, b) then (b, 3, c) gives (a, 3.2, c); a functor respects it
    f = GroupoidFunctor(gpd, s3, GroupHom(s3, s3, range(6)), {"a": 0, "b": 2, "c": 3})
    first, second = ("a", 2, "b"), ("b", 3, "c")
    assert functor_value(f, ("a", s3.mul(3, 2), "c")) == s3.mul(
        functor_value(f, second), functor_value(f, first)
    )
    assert functor_value(f, ("b", s3.identity, "b")) == s3.identity


def test_trivial_functor_gives_trivial_torsor():
    c2 = cyclic(2)
    gpd = ModelGroupoid(["a"], cyclic(1))
    f = GroupoidFunctor(gpd, c2, trivial_hom(cyclic(1), c2), {"a": 0})
    t = torsor_from_hom(f)
    assert t.points["a"] == t.group.identity
    assert t.structure_map() == trivial_hom(cyclic(1), c2)


def test_identity_character_torsor_has_nontrivial_left_action():
    c2 = cyclic(2)
    gpd = ModelGroupoid(["a"], c2)
    ident = GroupHom(c2, c2, range(2))
    t = torsor_from_hom(GroupoidFunctor(gpd, c2, ident, {"a": 0}))
    assert t.left[1] != tuple(range(2))
    # commuting actions validated on construction; spot check one entry
    assert t.left[1][t.right[0][1]] == t.right[t.left[1][0]][1]


def test_point_recipe_for_free_translation():
    c3 = cyclic(3)
    gpd = ModelGroupoid(["s0", "s1"], cyclic(1))
    f = GroupoidFunctor(gpd, c3, trivial_hom(cyclic(1), c3), {"s0": 0, "s1": 1})
    t = torsor_from_hom(f)
    assert t.points["s0"] == 0
    assert t.points["s1"] == c3.inv(1)


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
        for arrow in arrows(gpd):
            assert functor_value(back, arrow) == s3.conjugate(s3.inv(g), functor_value(f, arrow))


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
                assert sorted(mor) == list(range(len(t1.carrier)))


def test_identity_morphism_exists():
    c2 = cyclic(2)
    t = MultipointedTorsor.standard(c2, GroupHom(c2, c2, range(2)), {"a": 0, "b": 1})
    assert torsor_morphisms(t, t) == (0, 1)


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
        c3, trivial_hom(cyclic(1), c3), {"a": 0, "b": 0}
    )
    remarked = MultipointedTorsor.standard(
        c3, trivial_hom(cyclic(1), c3), {"a": 0, "b": 1}
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


_C1, _C2, _C3 = cyclic(1), cyclic(2), cyclic(3)
_ID2 = GroupHom(_C2, _C2, range(2))


def _c2_torsor(points=None):
    """C2 acting on itself with trivial structure group, marked at ``a``."""
    return MultipointedTorsor.standard(_C2, trivial_hom(_C1, _C2), points or {"a": 0})


def _patching(vertex=None, branch=None):
    """A patching problem on the diamond with C2 at P and C3 at U, into C2,
    whose datum at P or at b1 is replaced by the one given."""
    gog = with_trivial_edges(diamond_graph(), {"P": _C2, "U": _C3})
    vertex_data = {"P": vertex or MultipointedTorsor.standard(_C2, _ID2, {"b1": 0}),
                   "U": MultipointedTorsor.standard(_C2, trivial_hom(_C3, _C2), {"b1": 0})}
    return PatchingProblem(gog, _C2, vertex_data, {"b1": branch or _c2_torsor({"b1": 0})})


@pytest.mark.parametrize("build, message", [
    (lambda: ModelGroupoid([], _C2), "a model groupoid needs at least one object"),
    (lambda: ModelGroupoid(["a", "a"], _C2), "duplicate object labels"),
    (lambda: GroupoidFunctor(ModelGroupoid(["a"], _C2), _C3, _ID2, {"a": 0}),
     "vertex_hom must map the groupoid group into the target"),
    (lambda: GroupoidFunctor(ModelGroupoid(["a", "b"], _C2), _C2, _ID2, {"a": 1, "b": 0}),
     "base translation must be the identity"),
    (lambda: GroupoidFunctor(ModelGroupoid(["a", "b"], _C2), _C2, _ID2, {"a": 0, "b": 5}),
     "translation at b is not a target element"),
    (lambda: MultipointedTorsor(_C2, _C1, ["x"], [[0, 1]], [[0]], {"a": 0}),
     "carrier size must equal |G| for a torsor"),
    (lambda: MultipointedTorsor(_C2, _C1, ["x", "y"], [[0, 1]], [[0, 1]], {"a": 0}),
     "right action table must be carrier x G"),
    (lambda: MultipointedTorsor(_C2, _C1, ["x", "y"], [[0, 1], [1, 0]], [], {"a": 0}),
     "left action table must be Gamma x carrier"),
    (lambda: MultipointedTorsor(_C2, _C1, ["x", "y"], [[1, 0], [0, 1]], [[0, 1]], {"a": 0}),
     "right action does not fix the identity"),
    (lambda: MultipointedTorsor(_C2, _C1, ["x", "y"], [[0, 0], [1, 1]], [[0, 1]], {"a": 0}),
     "right action is not free and transitive"),
    # each row a permutation the identity fixes, but at x = 0, (x.2).1 = 1 and x.(2+1) = 0
    (lambda: MultipointedTorsor(_C3, _C1, ["x", "y", "z"], [[0, 1, 2], [1, 2, 0], [2, 1, 0]],
                                [[0, 1, 2]], {"a": 0}),
     "right action is not an action"),
    (lambda: MultipointedTorsor(_C2, _C1, ["x", "y"], [[0, 1], [1, 0]], [[1, 0]], {"a": 0}),
     "left identity does not act trivially"),
    (lambda: MultipointedTorsor(_C2, _C2, ["x", "y"], [[0, 1], [1, 0]], [[0, 1], [0, 0]],
                                {"a": 0}),
     "left action is not an action"),
    # the generator of C2 swaps y and z, which C3's translations do not commute with
    (lambda: MultipointedTorsor(_C3, _C2, ["x", "y", "z"], _C3.table, [[0, 1, 2], [0, 2, 1]],
                                {"a": 0}),
     "left and right actions do not commute"),
    (lambda: MultipointedTorsor(_C2, _C1, ["x", "y"], [[0, 1], [1, 0]], [[0, 1]], {}),
     "a multipointed torsor needs at least one marked point"),
    (lambda: MultipointedTorsor(_C2, _C1, ["x", "y"], [[0, 1], [1, 0]], [[0, 1]], {"a": 5}),
     "marked point a is not a carrier element"),
    (lambda: MultipointedTorsor.standard(_C3, _ID2, {"a": 0}),
     "structure_hom must land in the acting group"),
    (lambda: _c2_torsor().restrict_to_branch("a", trivial_hom(_C1, _C3)),
     "alpha must land in the structure group"),
    (lambda: _c2_torsor().restrict_to_branch("b", trivial_hom(_C1, _C1)),
     "no marked point for branch b"),
    (lambda: hom_from_torsor(_c2_torsor(), ModelGroupoid(["a"], _C2)),
     "torsor structure group does not match the groupoid"),
    (lambda: hom_from_torsor(_c2_torsor(), ModelGroupoid(["a", "b"], _C1)),
     "torsor marked points do not match the groupoid objects"),
    (lambda: _patching(vertex=MultipointedTorsor.standard(_C3, trivial_hom(_C2, _C3), {"b1": 0})),
     "vertex datum at P is not a C2-torsor"),
    (lambda: _patching(vertex=MultipointedTorsor.standard(_C2, trivial_hom(_C3, _C2), {"b1": 0})),
     "vertex datum at P has the wrong structure group"),
    (lambda: _patching(vertex=MultipointedTorsor.standard(_C2, _ID2, {"b2": 0})),
     "vertex datum at P must be marked by its branches"),
    (lambda: _patching(branch=MultipointedTorsor.standard(_C3, trivial_hom(_C1, _C3), {"b1": 0})),
     "branch datum at b1 is not a C2-torsor"),
    (lambda: _patching(branch=MultipointedTorsor.standard(_C2, _ID2, {"b1": 0})),
     "branch datum at b1 has the wrong structure group"),
    (lambda: _patching(branch=_c2_torsor({"b1": 0, "b2": 0})),
     "branch datum at b1 must be marked by b1 alone"),
], ids=["groupoid-empty", "groupoid-duplicate", "functor-target", "functor-base",
        "functor-translation", "torsor-carrier", "torsor-right-shape", "torsor-left-shape",
        "torsor-right-identity", "torsor-right-free", "torsor-right-action",
        "torsor-left-identity", "torsor-left-action", "torsor-commute", "torsor-no-point",
        "torsor-point", "standard-target", "restrict-alpha", "restrict-branch",
        "dictionary-group", "dictionary-points", "patching-vertex-group",
        "patching-vertex-structure", "patching-vertex-points", "patching-branch-group",
        "patching-branch-structure", "patching-branch-points"])
def test_malformed_torsor_data_are_refused(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def _tampered_right_action():
    """A C2-torsor whose right action at y was changed after validation, so
    the map forced by the base point is not right-equivariant into it."""
    tampered = _c2_torsor()
    tampered.right = ((0, 1), (1, 1))
    return tampered


@pytest.mark.parametrize("other", [
    lambda: MultipointedTorsor.standard(_C3, trivial_hom(_C1, _C3), {"a": 0}),
    lambda: _c2_torsor({"b": 0}),
    _tampered_right_action,
], ids=["other-group", "other-points", "not-right-equivariant"])
def test_torsors_without_a_morphism(other):
    assert torsor_morphisms(_c2_torsor(), other()) is None


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
    """Every markings tuple: one element per branch in branch order, the
    least branch pinned to the identity."""
    free = len(gog.graph.edge_names()) - 1
    for combo in itertools.product(range(G.order), repeat=free):
        yield (G.identity, *combo)


def test_natural_map_round_trip_on_random_instances():
    rng = random.Random(31)
    for _ in range(6):
        graph = random_tree_graph(rng, max_vertices=3)
        if rng.random() < 0.5:
            graph = add_extra_edges(rng, graph, 1)
        gog = random_gog(rng, graph, vertex_order_cap=6)
        G = rng.choice([cyclic(2), cyclic(3), symmetric(3)])
        pres = build_presentation(gog)
        for family in enumerate_pi1_homs(gog, G):
            for markings in _markings_space(gog, G):
                datum = natural_map(pres, G, family.key, markings)
                back_key, back_markings = inverse_natural_map(pres, G, datum)
                assert back_key == family.key
                assert back_markings == markings


def test_natural_map_refuses_a_least_branch_marking_other_than_the_identity():
    gog, G = trivial_gog(circle_graph()), cyclic(3)
    pres = build_presentation(gog)
    key = enumerate_pi1_homs(gog, G)[0].key
    for first in range(G.order):
        if first == G.identity:
            continue
        with pytest.raises(ValueError, match="^marking at the least branch must be the identity$"):
            natural_map(pres, G, key, (first, G.identity))
def test_setoid_equivalence_spec_counts():
    c1, c2, c3, s3 = cyclic(1), cyclic(2), cyclic(3), symmetric(3)
    _, report = verify_groupoid_pushout(
        with_trivial_edges(diamond_graph(), {"P": c2, "U": c3}), s3
    )
    assert report["pi1_count"] == report["fiber_classes"] == 12
    assert report["passed"]

    _, report = verify_groupoid_pushout(trivial_gog(circle_graph()), c3)
    assert report["pi1_count"] == report["fiber_classes"] == 3
    assert report["global_raw"] == report["fiber_raw"] == 9
    assert report["passed"]

    _, report = verify_groupoid_pushout(trivial_gog(circle_graph()), c1)
    assert report["pi1_count"] == 1
    assert report["passed"]


def test_pushout_spec_counts():
    c1, c2, s3 = cyclic(1), cyclic(2), symmetric(3)
    _, report = verify_groupoid_pushout(trivial_gog(theta_graph()), c2)
    assert report["fiber_classes"] == report["pi1_count"] == 4
    assert report["passed"]

    _, report = verify_groupoid_pushout(
        with_trivial_edges(diamond_graph(), {"P": c2, "U": cyclic(3)}),
        s3,
    )
    assert report["fiber_classes"] == report["pi1_count"] == 12
    assert report["passed"]

    _, report = verify_groupoid_pushout(trivial_gog(diamond_graph()), c1)
    assert report["fiber_classes"] == report["pi1_count"] == 1
    assert report["passed"]


def test_every_global_functor_is_reported_round_tripped():
    """The report says every global functor is round-tripped, also past
    20,000 of them: the trivial circle into C200 has 200 homs times 200
    markings."""
    for gog, G, global_raw in ((trivial_gog(theta_graph()), cyclic(3), 81),
                               (trivial_gog(circle_graph()), cyclic(200), 40_000)):
        lines, report = verify_groupoid_pushout(gog, G)
        assert report["passed"]
        assert report["global_raw"] == global_raw
        assert f"round trips verified: {global_raw} (every element)" in lines


_ENTRY = torsors._entry


def _corrupt_first_cached_entry(monkeypatch) -> dict:
    """Swap two differing flags of the first forward entry the verifier
    caches."""
    state = {"corrupted": 0}

    def corrupting(group, table, shifted):
        entry = _ENTRY(group, table, shifted)
        hom, flags = entry
        if not state["corrupted"] and len(set(flags)) > 1:
            j = next(k for k, f in enumerate(flags) if f != flags[0])
            swapped = list(flags)
            swapped[0], swapped[j] = swapped[j], swapped[0]
            entry = (hom, tuple(swapped))
            state["corrupted"] += 1
        return entry

    monkeypatch.setattr(torsors, "_entry", corrupting)
    return state


def _c2_edged_circle():
    c1, c2, c4 = cyclic(1), cyclic(2), cyclic(4)
    return GraphOfFiniteGroups(
        circle_graph(),
        {"P": c4, "U": c2},
        {"b1": c2, "b2": c1},
        {"b1": {"to_point": GroupHom(c2, c4, [0, 2]), "to_component": GroupHom(c2, c2, [0, 1])},
         "b2": {"to_point": trivial_hom(c1, c4), "to_component": trivial_hom(c1, c2)}},
    )


def test_pushout_verifier_catches_a_corrupted_cached_entry(monkeypatch):
    """A wrong cached forward entry fails the round trip or the bijection."""
    instances = [(trivial_gog(theta_graph()), cyclic(3)),
                 (_c2_edged_circle(), symmetric(3))]
    for gog, G in instances:
        _, clean = verify_groupoid_pushout(gog, G)
        assert clean["passed"]
    for gog, G in instances:
        state = _corrupt_first_cached_entry(monkeypatch)
        try:
            _, report = verify_groupoid_pushout(gog, G)
        except AssertionError:
            pass
        else:
            assert not report["passed"]
        assert state["corrupted"] == 1


_FLAG_PART = torsors._flag_part
_GAUGED_TABLE = torsors._gauged_table


def _corrupt_first_flag_part(monkeypatch) -> dict:
    """Return a wrong last marking for the first flags tuple the inverse
    reads."""
    state = {"corrupted": 0}

    def corrupting(presentation, group, flags):
        gauges, markings, conjugators = _FLAG_PART(presentation, group, flags)
        if not state["corrupted"]:
            markings = markings[:-1] + ((markings[-1] + 1) % group.order,)
            state["corrupted"] += 1
        return gauges, markings, conjugators

    monkeypatch.setattr(torsors, "_flag_part", corrupting)
    return state


def _corrupt_first_gauged_table(monkeypatch) -> dict:
    """Return a wrong back table for the first (hom table, gauge) pair the
    inverse gauges."""
    state = {"corrupted": 0}

    def corrupting(group, table, gauge):
        back = _GAUGED_TABLE(group, table, gauge)
        if not state["corrupted"]:
            back = back[:-1] + ((back[-1] + 1) % group.order,)
            state["corrupted"] += 1
        return back

    monkeypatch.setattr(torsors, "_gauged_table", corrupting)
    return state


@pytest.mark.parametrize("corrupt", [_corrupt_first_flag_part, _corrupt_first_gauged_table],
                         ids=["flag-part", "gauged-table"])
def test_pushout_verifier_catches_a_corrupted_inverse_memo(monkeypatch, corrupt):
    """A wrong part of the inverse fails the round trip."""
    instances = [(trivial_gog(theta_graph()), cyclic(3)),
                 (_c2_edged_circle(), symmetric(3))]
    for gog, G in instances:
        state = corrupt(monkeypatch)
        try:
            _, report = verify_groupoid_pushout(gog, G)
        except AssertionError:
            pass
        else:
            assert not report["passed"]
        assert state["corrupted"] == 1


def test_no_cached_column_serves_another_marking_set():
    """One ``_NaturalMaps`` object per marking set (two single markings,
    then the verifier's full set), hom after hom, answers as a fresh object
    does and as ``natural_map`` does on each element, and round-trips its
    markings."""
    instances = [(trivial_gog(theta_graph()), cyclic(3)),
                 (_c2_edged_circle(), symmetric(3))]
    for gog, G in instances:
        pres = build_presentation(gog)
        free = len(gog.graph.edge_names()) - 1
        markings = [(G.identity, *combo)
                    for combo in itertools.product(range(G.order), repeat=free)]
        for marking_set in ([markings[1]], [markings[-1]], markings):
            shared = torsors._NaturalMaps(pres, G, marking_set)
            for fam in enumerate_pi1_homs(gog, G):
                hits = shared.forward_columns(fam.key)
                assert hits == torsors._NaturalMaps(pres, G, marking_set).forward_columns(fam.key)
                assert list(zip(*hits)) == [natural_map(pres, G, fam.key, one)
                                            for one in marking_set]
                shared.check_round_trips(fam.key, hits)


def test_pushout_verifier_round_trips_the_last_global_functor(monkeypatch):
    """The round trip reaches the last global functor in ``product(homs,
    markings)`` order: a wrong inverse flag part for the flags of the last
    hom's last markings fails it, also past 20,000 global functors."""
    instances = [(trivial_gog(theta_graph()), cyclic(3)),
                 (_c2_edged_circle(), symmetric(3)),
                 (trivial_gog(circle_graph()), cyclic(200))]
    for gog, G in instances:
        pres = build_presentation(gog)
        key = enumerate_pi1_homs(gog, G)[-1].key
        last = (G.identity, *[G.order - 1] * (len(gog.graph.edge_names()) - 1))
        target = tuple(flags for _, flags in natural_map(pres, G, key, last))
        state = {"corrupted": 0}

        def corrupting(presentation, group, flags):
            gauges, markings, conjugators = _FLAG_PART(presentation, group, flags)
            if flags == target:
                markings = markings[:-1] + ((markings[-1] + 1) % group.order,)
                state["corrupted"] += 1
            return gauges, markings, conjugators

        with monkeypatch.context() as patch:
            patch.setattr(torsors, "_flag_part", corrupting)
            with pytest.raises(AssertionError, match="round trip"):
                verify_groupoid_pushout(gog, G)
        assert state["corrupted"] == 1


def test_pushout_verifier_builds_no_validated_objects(monkeypatch):
    """The verifier compares index tuples: no GroupHom or HomFamily is
    constructed, while the enumeration builds one HomFamily per hom and no
    GroupHom."""
    rng = random.Random(5)
    graph = add_extra_edges(rng, random_tree_graph(rng, max_vertices=3), 1)
    instances = [
        (with_trivial_edges(theta_graph(), {"P": symmetric(3), "U": cyclic(3)}),
         cyclic(3)),
        (random_gog(rng, graph, vertex_order_cap=6), symmetric(3)),
    ]
    built = {"GroupHom": 0, "HomFamily": 0}
    hom_init, family_check = GroupHom.__init__, HomFamily.__post_init__

    def counting_init(self, *args, **kwargs):
        built["GroupHom"] += 1
        hom_init(self, *args, **kwargs)

    def counting_check(self):
        built["HomFamily"] += 1
        family_check(self)

    monkeypatch.setattr(GroupHom, "__init__", counting_init)
    monkeypatch.setattr(HomFamily, "__post_init__", counting_check)
    for gog, G in instances:
        families = enumerate_pi1_homs(gog, G)
        assert built["HomFamily"] == len(families) > 0
        assert built["GroupHom"] == 0
        built.update(GroupHom=0, HomFamily=0)
        _, report = verify_groupoid_pushout(gog, G)
        assert report["passed"] and report["pi1_count"] == len(families)
        assert built == {"GroupHom": 0, "HomFamily": 0}


def test_pushout_on_random_instances():
    rng = random.Random(47)
    for _ in range(6):
        graph = random_tree_graph(rng, max_vertices=3)
        if rng.random() < 0.6:
            graph = add_extra_edges(rng, graph, 1)
        gog = random_gog(rng, graph, vertex_order_cap=6)
        G = rng.choice([cyclic(2), cyclic(4), symmetric(3)])
        _, report = verify_groupoid_pushout(gog, G)
        assert report["passed"], (graph.edges, G.name)


# -- patching ----------------------------------------------------------------------


def _vertex_groupoid_data(gog, G, family, markings):
    """Build vertex/branch torsor data realizing a fiber-product object."""
    pres = build_presentation(gog)
    datum = natural_map(pres, G, family.key, markings)
    vertex_data = {}
    for v, (table, flags) in zip(gog.vertices, datum):
        hom = GroupHom(gog.vertex_groups[v], G, table)
        points = {e: G.inv(f) for e, f in zip(gog.graph.edges_at(v), flags)}
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
    triv = trivial_hom(cyclic(1), c2)
    vd = {v: MultipointedTorsor.standard(c2, triv, {"b1": 0}) for v in ("P", "U")}
    bd = {"b1": MultipointedTorsor.standard(c2, triv, {"b1": 0})}
    family, _ = solve_patching(PatchingProblem(gog, c2, vd, bd))
    assert all(set(table) == {c2.identity} for table in family.key[0])


def test_solve_patching_reproduces_local_homs():
    s3 = symmetric(3)
    c2, c3 = cyclic(2), cyclic(3)
    gog = with_trivial_edges(diamond_graph(), {"P": c2, "U": c3})
    count = 0
    for f_p in hom_set(c2, s3):
        for f_u in hom_set(c3, s3):
            vd = {
                "P": MultipointedTorsor.standard(s3, f_p, {"b1": 0}),
                "U": MultipointedTorsor.standard(s3, f_u, {"b1": 0}),
            }
            bd = {"b1": MultipointedTorsor.standard(s3, trivial_hom(cyclic(1), s3), {"b1": 0})}
            family, _ = solve_patching(PatchingProblem(gog, s3, vd, bd))
            tables = dict(zip(gog.vertices, family.key[0]))
            assert tables["P"] == f_p.mapping
            assert tables["U"] == f_u.mapping
            count += 1
    assert count == len(hom_set(c2, s3)) * len(hom_set(c3, s3)) == 12


def test_solve_patching_circle_family_has_two_classes():
    c2 = cyclic(2)
    gog = trivial_gog(circle_graph())
    triv = trivial_hom(cyclic(1), c2)
    bd = {e: MultipointedTorsor.standard(c2, triv, {e: 0}) for e in ("b1", "b2")}
    classes = set()
    for pts in itertools.product(range(2), repeat=4):
        vd = {
            "P": MultipointedTorsor.standard(c2, triv, {"b1": pts[0], "b2": pts[1]}),
            "U": MultipointedTorsor.standard(c2, triv, {"b1": pts[2], "b2": pts[3]}),
        }
        family, _ = solve_patching(PatchingProblem(gog, c2, vd, bd))
        classes.add(family.key)
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
    families = enumerate_pi1_homs(gog, G)
    family = families[len(families) // 2]
    markings = next(iter(_markings_space(gog, G)))
    vd, bd = _vertex_groupoid_data(gog, G, family, markings)
    solved, solved_markings = solve_patching(PatchingProblem(gog, G, vd, bd))
    target = solved.key, tuple(solved_markings[e] for e in gog.graph.edge_names())
    hits = 0
    for fam in families:
        for mk in _markings_space(gog, G):
            datum = natural_map(pres, G, fam.key, mk)
            induced_vd = {
                v: MultipointedTorsor.standard(
                    G,
                    GroupHom(gog.vertex_groups[v], G, table),
                    {e: G.inv(f) for e, f in zip(gog.graph.edges_at(v), flags)},
                )
                for v, (table, flags) in zip(gog.vertices, datum)
            }
            if all(
                torsor_morphisms(induced_vd[v], vd[v]) is not None
                for v in gog.vertices
            ):
                hits += 1
                assert (fam.key, mk) == target
    assert hits == 1


def test_two_fiber_object_classes_match_the_fiber_product():
    """Enumerating 2-fiber-product objects (patching problems whose branch
    data are the point-side restrictions) up to isomorphism reproduces the
    raw fiber count of the setoid equivalence report."""
    c2, c3, s3 = cyclic(2), cyclic(3), symmetric(3)
    gog = with_trivial_edges(diamond_graph(), {"P": c2, "U": c3})
    _, report = verify_groupoid_pushout(gog, s3)
    alpha = gog.edge_maps["b1"]["to_point"]
    classes = set()
    built = 0
    for f_p in hom_set(c2, s3):
        for f_u in hom_set(c3, s3):
            for zeta_p in range(s3.order):
                for zeta_u in range(s3.order):
                    vd = {
                        "P": MultipointedTorsor.standard(s3, f_p, {"b1": zeta_p}),
                        "U": MultipointedTorsor.standard(s3, f_u, {"b1": zeta_u}),
                    }
                    bd = {"b1": vd["P"].restrict_to_branch("b1", alpha)}
                    try:
                        PatchingProblem(gog, s3, vd, bd).check_compatibility()
                    except PatchingError:
                        continue
                    built += 1
                    classes.add(tuple(vd[v].canonical_key() for v in gog.vertices))
    assert built > 0
    assert len(classes) == report["fiber_raw"] == 12


def test_incompatible_problem_names_the_branch():
    c2 = cyclic(2)
    c1 = cyclic(1)
    gog = GraphOfFiniteGroups(
        diamond_graph(),
        {"P": c2, "U": c2},
        {"b1": c2},
        {"b1": {"to_point": GroupHom(c2, c2, range(2)),
                "to_component": GroupHom(c2, c2, range(2))}},
    )
    f_id = GroupHom(c2, c2, range(2))
    f_tr = trivial_hom(c2, c2)
    vd = {
        "P": MultipointedTorsor.standard(c2, f_id, {"b1": 0}),
        "U": MultipointedTorsor.standard(c2, f_tr, {"b1": 0}),
    }
    bd = {"b1": MultipointedTorsor.standard(c2, f_id, {"b1": 0})}
    with pytest.raises(PatchingError) as exc:
        solve_patching(PatchingProblem(gog, c2, vd, bd))
    assert exc.value.branch == "b1"


def test_compatibility_is_branch_agreement_of_the_trivialized_data():
    """``check_compatibility`` passes exactly when the vertex torsors,
    trivialized by ``hom_from_torsor``, agree over every branch; so
    ``solve_patching`` needs no agreement check of its own.  Each branch
    datum is the restriction of one of its ends; half the problems come from
    a global functor, and half of those get one vertex torsor redrawn."""
    rng = random.Random(5)
    outcomes = {True: 0, False: 0}
    for _ in range(200):
        graph = random_tree_graph(rng, max_vertices=3)
        if rng.random() < 0.5:
            graph = add_extra_edges(rng, graph, 1)
        gog = random_gog(rng, graph, vertex_order_cap=6)
        G = rng.choice([cyclic(2), cyclic(4), symmetric(3)])
        vertices = gog.graph.vertices
        if rng.random() < 0.5:
            family = rng.choice(enumerate_pi1_homs(gog, G))
            markings = rng.choice(list(_markings_space(gog, G)))
            vd, _ = _vertex_groupoid_data(gog, G, family, markings)
            redraw = [rng.choice(vertices)] if rng.random() < 0.5 else []
        else:
            vd, redraw = {}, vertices
        for v in redraw:
            points = {e: rng.randrange(G.order) for e in gog.graph.edges_at(v)}
            vd[v] = MultipointedTorsor.standard(
                G, rng.choice(hom_set(gog.vertex_groups[v], G)), points)
        bd = {}
        for e in gog.graph.edge_names():
            v, side = rng.choice([(gog.graph.point_end(e), "to_point"),
                                  (gog.graph.component_end(e), "to_component")])
            bd[e] = vd[v].restrict_to_branch(e, gog.edge_maps[e][side])
        problem = PatchingProblem(gog, G, vd, bd)
        try:
            problem.check_compatibility()
            compatible = True
        except PatchingError:
            compatible = False
        datum = [hom_from_torsor(vd[v], ModelGroupoid(gog.graph.edges_at(v), gog.vertex_groups[v]))
                 .key() for v in gog.vertices]
        pres = build_presentation(gog)
        assert compatible == (disagreeing_branch(pres, G, datum) is None), (graph.edges, G.name)
        if compatible:
            solve_patching(problem)
        outcomes[compatible] += 1
    assert min(outcomes.values()) > 0, outcomes

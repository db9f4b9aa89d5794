"""Acceptance criteria: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import time
from contextlib import redirect_stdout

from catalog import (
    add_extra_edges,
    circle_graph,
    diamond_graph,
    groups_up_to,
    hom_set,
    random_gog,
    random_tree_graph,
    theta_graph,
    trivial_gog,
)
from test_graphs import oracle_connected_covers
from vkpatch.cli import run
from vkpatch.descent import (
    DESCENDS,
    FAILS_WITHIN_BOUNDS,
    OBSTRUCTED_WITHIN_BOUNDS,
    ASInstance,
    KummerInstance,
    as_brute_force_oracle,
    as_descends_galois,
    kummer_obstruction,
    verify_example_29,
)
from vkpatch.fields import FiniteField
from vkpatch.gog import (
    build_presentation,
    verify_tree_independence,
    verify_tree_vankampen,
)
from vkpatch.graphs import cycle_rank, enumerate_connected_covers
from vkpatch.groups import cyclic, enumerate_homs, symmetric
from vkpatch.torsors import (
    GroupoidFunctor,
    ModelGroupoid,
    hom_from_torsor,
    torsor_from_hom,
    verify_groupoid_pushout,
)


def _announce(criterion: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _random_instances(seed: int, count: int, non_tree_every: int = 0):
    rng = random.Random(seed)
    out = []
    for k in range(count):
        graph = random_tree_graph(rng, max_vertices=4)
        if non_tree_every and k % non_tree_every == 0:
            graph = add_extra_edges(rng, graph, rng.randint(1, 2))
        out.append(random_gog(rng, graph, vertex_order_cap=8, edge_order_cap=4))
    return out


def test_criterion_1_tree_van_kampen():
    started = time.perf_counter()
    test_groups = (cyclic(2), cyclic(3), symmetric(3))
    instances = _random_instances(seed=101, count=50)
    checked = 0
    for gog in instances:
        for G in test_groups:
            _, report = verify_tree_vankampen(gog, G)
            assert report["graph_is_tree"]
            assert report["pi1_count"] == report["naive_count"]
            assert report["bijection"], report["witness"]
            checked += 1
    elapsed = time.perf_counter() - started
    _announce(
        1, checked == 150 and elapsed < 60.0,
        f"tree van Kampen bijection on {len(instances)} instances x 3 test groups "
        f"({elapsed:.1f}s < 60s)",
    )


def test_criterion_2_non_tree_failure():
    rng = random.Random(202)
    c2 = cyclic(2)
    checked = 0
    for _ in range(15):
        graph = add_extra_edges(rng, random_tree_graph(rng, max_vertices=4), rng.randint(1, 2))
        gog = trivial_gog(graph)
        rank = cycle_rank(graph)
        assert rank >= 1
        _, report = verify_tree_vankampen(gog, c2)
        assert not report["graph_is_tree"]
        assert report["pi1_count"] == 2**rank
        assert report["naive_count"] == 1
        checked += 1
    _announce(2, checked == 15, f"non-tree instances: 2^rank vs 1 on {checked} instances")


def test_criterion_3_pushout_agreement():
    rng = random.Random(303)
    pool = [g for g in groups_up_to(8) if g.order > 1]
    small = [cyclic(2), cyclic(3)]
    checked_tree = checked_nontree = 0
    for k in range(20):
        graph = random_tree_graph(rng, max_vertices=4)
        non_tree = k % 2 == 0
        if non_tree:
            graph = add_extra_edges(rng, graph, rng.randint(1, 2))
        gog = random_gog(rng, graph, vertex_order_cap=8, edge_order_cap=4)
        G = rng.choice(pool)
        n_free = len(graph.edges) - 1
        if len(enumerate_homs(build_presentation(gog).presentation, G)) * G.order**n_free > 30_000:
            G = rng.choice(small)
        _, report = verify_groupoid_pushout(gog, G)
        assert report["fiber_classes"] == report["pi1_count"]
        assert report["passed"]
        if non_tree:
            checked_nontree += 1
        else:
            checked_tree += 1
    _announce(
        3, checked_tree >= 5 and checked_nontree >= 5,
        f"pushout functor count == presentation hom count on {checked_tree} tree "
        f"and {checked_nontree} non-tree instances",
    )


def test_criterion_4_tree_independence():
    rng = random.Random(404)
    checked = 0
    for k in range(12):
        graph = random_tree_graph(rng, max_vertices=4)
        if k % 2 == 0:
            graph = add_extra_edges(rng, graph, rng.randint(1, 2))
        gog = random_gog(rng, graph, vertex_order_cap=6, edge_order_cap=4)
        G = rng.choice([cyclic(2), cyclic(3), symmetric(3)])
        _, report = verify_tree_independence(gog, G)
        assert report["all_equal"], report["counts"]
        checked += 1
    _announce(4, checked == 12, f"hom counts identical across all spanning trees on {checked} instances")


def test_criterion_5_dictionary_round_trip():
    started = time.perf_counter()
    gammas = groups_up_to(8)
    targets = groups_up_to(6)
    label_sets = [["a"], ["a", "b"], ["a", "b", "c"]]
    total = 0
    for gamma in gammas:
        for target in targets:
            homs = hom_set(gamma, target)
            for labels in label_sets:
                gpd = ModelGroupoid(labels, gamma)
                free = labels[1:]
                for hom in homs:
                    for combo in itertools.product(range(target.order), repeat=len(free)):
                        translations = {labels[0]: target.identity}
                        translations.update(dict(zip(free, combo)))
                        f = GroupoidFunctor(gpd, target, hom, translations)
                        t = torsor_from_hom(f)
                        back = hom_from_torsor(t, gpd)
                        assert back.key() == f.key()
                        assert torsor_from_hom(back).canonical_key() == t.canonical_key()
                        total += 1
    elapsed = time.perf_counter() - started
    _announce(
        5, elapsed < 30.0,
        f"dictionary round trip on {total} functors over {len(gammas)} structure "
        f"groups x {len(targets)} targets x |S|<=3 ({elapsed:.1f}s < 30s)",
    )


def test_criterion_6_cover_counts():
    circle, theta = circle_graph(), theta_graph()
    for n in range(1, 6):
        assert len(enumerate_connected_covers(circle, n)) == 1
    assert len(enumerate_connected_covers(theta, 2)) == 3
    # full independent oracle where feasible
    assert oracle_connected_covers(circle, 2) == 1
    assert oracle_connected_covers(circle, 3) == 1
    assert oracle_connected_covers(theta, 2) == 3
    assert oracle_connected_covers(diamond_graph(), 2) == 0
    # degrees 4, 5: every transitive single permutation is an n-cycle and all
    # are simultaneously conjugate; checked directly
    for n in (4, 5):
        perms = list(itertools.permutations(range(n)))
        transitive = []
        for sigma in perms:
            seen, x = {0}, sigma[0]
            while x not in seen:
                seen.add(x)
                x = sigma[x]
            if len(seen) == n:
                transitive.append(sigma)
        def conj(tau, sigma):
            inv = [0] * n
            for i, v in enumerate(tau):
                inv[v] = i
            return tuple(tau[sigma[inv[i]]] for i in range(n))
        classes = {min(conj(tau, sigma) for tau in perms) for sigma in transitive}
        assert len(classes) == 1
    _announce(6, True, "circle: 1 cover per degree <= 5; theta: 3 double covers; oracle agrees")


def test_criterion_7_explicit_identity():
    started = time.perf_counter()
    _, machine = verify_example_29()
    elapsed = time.perf_counter() - started
    ok = (
        machine["remainder"] == "0"
        and machine["char5_remainder"] != "0"
        and machine["wrong_generator_remainder"] != "0"
        and elapsed < 1.0
    )
    _announce(7, ok, f"W=Y^2 identity exactly zero over GF(3), nonzero in char 5 ({elapsed*1000:.0f}ms < 1s)")


def test_criterion_8_criterion_vs_oracle():
    started = time.perf_counter()
    checked = 0
    for p in (2, 3):
        field = FiniteField(p, 2)
        for alpha in range(1, field.q):
            inst = ASInstance.finite(p, 1, 2, alpha)
            _, criterion = as_descends_galois(inst)
            oracle = as_brute_force_oracle(inst, p * p).machine
            assert oracle["verdict"] in (DESCENDS, FAILS_WITHIN_BOUNDS)
            assert (criterion["verdict"] == DESCENDS) == (oracle["verdict"] == DESCENDS)
            checked += 1
    elapsed = time.perf_counter() - started
    _announce(
        8, checked == 11 and elapsed < 30.0,
        f"criterion agrees with oracle for every alpha in GF(4)* and GF(9)* "
        f"({elapsed:.1f}s < 30s)",
    )


def test_criterion_9_kummer_desk_test():
    trans = KummerInstance.transcendental_model(2, 1, 4, 200)
    obstructed = kummer_obstruction(trans, 4).machine
    base = KummerInstance.base_ring_model(2, [1, 0, 1], 200)
    descends = kummer_obstruction(base, 4).machine
    ok = (
        obstructed["verdict"] == OBSTRUCTED_WITHIN_BOUNDS
        and descends["verdict"] == DESCENDS
    )
    _announce(
        9, ok,
        "transcendental gbar OBSTRUCTED-WITHIN-BOUNDS (degree bound 4); "
        "base-ring gbar DESCENDS",
    )


def _digest_from(text: str) -> str:
    for line in text.split("\n"):
        if line.startswith("deterministic-digest:"):
            return line.split()[-1]
    raise AssertionError(f"no digest in:\n{text}")


def test_criterion_10_cli_determinism(tmp_path):
    graph_doc = {
        "version": 1,
        "graph": {
            "points": [{"name": "P", "group": "C4"}],
            "components": [{"name": "U", "group": "C6"}],
            "edges": [
                {"name": "b1", "point": "P", "component": "U", "group": "C2"},
                {"name": "b2", "point": "P", "component": "U"},
            ],
        },
        "groups": {"C2": {"cyclic": 2}, "C4": {"cyclic": 4}, "C6": {"cyclic": 6}},
        "edge_maps": {"b1": {"to_point": {"1": "2"}, "to_component": {"1": "3"}}},
        "options": {"test_group": "C2", "degree": 2, "local_indices": {"P": 4, "U": 6}},
    }
    as_doc = {
        "version": 1,
        "descent": {"artin_schreier": {"p": 2, "k1_degree": 1, "k2_degree": 2, "alpha": "w"}},
    }
    kummer_doc = {
        "version": 1,
        "descent": {"kummer": {"p": 2, "model": "transcendental", "terms": 4, "truncation": 200}},
    }
    docs = {
        "graph-check": graph_doc, "graph-tree": graph_doc, "graph-rank": graph_doc,
        "graph-covers": graph_doc, "gog-presentation": graph_doc, "gog-homs": graph_doc,
        "gog-verify": graph_doc, "torsor-verify": graph_doc, "pushout-verify": graph_doc,
        "index-bound": graph_doc, "export-dot": graph_doc,
        "descent-as": as_doc, "descent-kummer": kummer_doc, "descent-example29": {"version": 1},
    }
    checked = 0
    for command, doc in sorted(docs.items()):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        digests = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = run([command, str(path)])
            assert code in (0, 1), (command, code, buf.getvalue())
            digests.append(_digest_from(buf.getvalue()))
        assert digests[0] == digests[1], command
        checked += 1
    _announce(10, checked == 14, f"all {checked} CLI commands produce identical digests on repeat runs")

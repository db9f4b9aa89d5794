"""Reduction graphs: validation, trees, covers against a permutation oracle."""

from __future__ import annotations

import itertools
import math
import random
import re

import pytest

from catalog import (
    add_extra_edges,
    circle_graph,
    cover_is_connected,
    cover_total_space,
    diamond_graph,
    random_tree_graph,
    theta_graph,
)
from vkpatch import graphs as graphs_mod
from vkpatch.graphs import (
    COVER_SCAN_CAP,
    InvalidGraphError,
    ReductionGraph,
    ScaleError,
    cycle_rank,
    enumerate_connected_covers,
    export_dot,
    index_bound,
    is_tree,
    maximal_tree,
    spanning_trees,
    _partition_count,
)


def test_single_edge_graph_validates():
    assert diamond_graph().validate() == ()


def test_non_bipartite_edge_is_reported():
    g = ReductionGraph(
        ["P", "Q"], ["U"],
        [("b1", "P", "Q"), ("b2", "P", "U"), ("b3", "Q", "U")],
    )
    violations = g.validate()
    assert violations
    assert any("not bipartite" in v for v in violations)


def test_disconnected_graph_is_reported():
    g = ReductionGraph(
        ["P1", "P2"], ["U1", "U2"],
        [("b1", "P1", "U1"), ("b2", "P1", "U1"), ("b3", "P2", "U2"), ("b4", "P2", "U2")],
    )
    violations = g.validate()
    assert violations
    assert any("disconnected" in v for v in violations)


def test_dangling_endpoint_is_reported():
    g = ReductionGraph(["P"], ["U"], [("b1", "P", "X")])
    assert any("dangling" in v for v in g.validate())


def test_degree_zero_vertex_is_reported():
    g = ReductionGraph(["P", "Q"], ["U"], [("b1", "P", "U")])
    assert any("degree 0" in v for v in g.validate())


def test_incidence_lookups_match_the_edge_list_on_malformed_graphs():
    g = ReductionGraph(
        ["P", "Q"], ["U"],
        [("b1", "P", "U"), ("b2", "U", "P"), ("b3", "P", "Q"), ("b4", "U", "X"),
         ("b5", "U", "U")],
    )
    for n, a, b in g.edges:
        assert g.edge(n) == (n, a, b)
        assert g.point_end(n) == (a if a in g.points else b)
        assert g.component_end(n) == (b if a in g.points else a)
    for v in g.vertices + ("X", "nowhere"):
        assert g.edges_at(v) == tuple(n for n, a, b in g.edges if v in (a, b))
    for lookup in (g.edge, g.point_end, g.component_end):
        with pytest.raises(KeyError):
            lookup("b9")


def test_is_tree():
    assert is_tree(diamond_graph())
    assert not is_tree(circle_graph())
    path = ReductionGraph(["P1", "P2"], ["U"], [("b1", "P1", "U"), ("b2", "P2", "U")])
    assert is_tree(path)


def test_cycle_rank():
    assert cycle_rank(diamond_graph()) == 0
    assert cycle_rank(circle_graph()) == 1
    assert cycle_rank(theta_graph()) == 2


def test_maximal_tree_is_canonical():
    assert maximal_tree(circle_graph()) == ("b1",)
    assert maximal_tree(theta_graph()) == ("b1",)
    assert maximal_tree(diamond_graph()) == ("b1",)
    # on a tree, the unique spanning tree is the whole edge set
    star = ReductionGraph(
        ["P1", "P2", "P3"], ["U"],
        [("b1", "P1", "U"), ("b2", "P2", "U"), ("b3", "P3", "U")],
    )
    assert maximal_tree(star) == ("b1", "b2", "b3")


def test_spanning_tree_enumeration():
    assert len(spanning_trees(theta_graph())) == 3
    assert len(spanning_trees(circle_graph())) == 2
    assert len(spanning_trees(diamond_graph())) == 1


def kirchhoff_tree_count(graph: ReductionGraph) -> int:
    """Kirchhoff's matrix-tree theorem: the number of spanning trees is the
    determinant of the Laplacian with the least vertex's row and column
    removed, parallel branches each counted.  Fraction-free Bareiss
    elimination keeps every entry an exact int."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    lap = [[0] * len(index) for _ in index]
    for _, a, b in graph.edges:
        i, j = index[a], index[b]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    m = [row[1:] for row in lap[1:]]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def complete_bipartite(a: int, b: int) -> ReductionGraph:
    points = [f"P{i}" for i in range(a)]
    components = [f"U{j}" for j in range(b)]
    edges = [(f"b{i}_{j}", p, u) for i, p in enumerate(points) for j, u in enumerate(components)]
    return ReductionGraph(points, components, edges)


def test_spanning_tree_count_is_the_matrix_tree_determinant():
    # the oracle itself against K_{a,b}'s a^(b-1) b^(a-1) trees (Scoins, 1962)
    for a, b in ((1, 1), (1, 4), (2, 2), (2, 3), (3, 3)):
        graph = complete_bipartite(a, b)
        assert kirchhoff_tree_count(graph) == a ** (b - 1) * b ** (a - 1)
        assert len(spanning_trees(graph)) == a ** (b - 1) * b ** (a - 1)
    for graph in (diamond_graph(), circle_graph(), theta_graph()):
        assert len(spanning_trees(graph)) == kirchhoff_tree_count(graph)
    rng = random.Random(20)
    counts = []
    for _ in range(100):
        graph = random_tree_graph(rng, max_vertices=7)
        graph = add_extra_edges(rng, graph, rng.randint(0, 5))
        trees = spanning_trees(graph)
        counts.append(len(trees))
        assert len(trees) == kirchhoff_tree_count(graph)
        # each tree is its sorted edge names, in canonical subset order
        assert all(list(t) == sorted(t) for t in trees)
        assert list(trees) == sorted(trees)
        assert maximal_tree(graph) in trees
    assert max(counts) > 100  # the sample reaches far past the catalog's three trees


def test_spanning_tree_scan_past_the_cap_is_refused(monkeypatch):
    # theta: its 3 branches are the C(3, 1) edge subsets that are tested
    monkeypatch.setattr(graphs_mod, "TREE_SCAN_CAP", 3)
    assert len(spanning_trees(theta_graph())) == 3
    monkeypatch.setattr(graphs_mod, "TREE_SCAN_CAP", 2)
    with pytest.raises(ScaleError, match=r"^the spanning-tree scan of C\(3, 1\) edge subsets "
                       r"passes the cap of 2$"):
        spanning_trees(theta_graph())


def test_non_tree_edge_count_equals_rank():
    for g in (diamond_graph(), circle_graph(), theta_graph()):
        for tree in spanning_trees(g):
            assert len(g.edges) - len(tree) == cycle_rank(g)


def test_operations_require_valid_graph():
    bad = ReductionGraph(["P"], ["U"], [("b1", "P", "X")])
    with pytest.raises(InvalidGraphError):
        cycle_rank(bad)


# -- covers --------------------------------------------------------------------


def oracle_connected_covers(graph: ReductionGraph, n: int) -> int:
    """Fully independent cover count: permutations on *all* edges, connected
    total spaces, counted up to fiberwise relabeling over every vertex."""
    perms = list(itertools.permutations(range(n)))
    edge_names = graph.edge_names()
    vertices = graph.vertices

    def is_connected(assign):
        verts = [(v, i) for v in vertices for i in range(n)]
        adj = {v: [] for v in verts}
        for name, sigma in zip(edge_names, assign):
            p, u = graph.point_end(name), graph.component_end(name)
            for i in range(n):
                adj[(p, i)].append((u, sigma[i]))
                adj[(u, sigma[i])].append((p, i))
        seen = {verts[0]}
        frontier = [verts[0]]
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen) == len(verts)

    def canonical(assign):
        best = None
        for taus in itertools.product(perms, repeat=len(vertices)):
            tau = dict(zip(vertices, taus))
            relabeled = []
            for name, sigma in zip(edge_names, assign):
                p, u = graph.point_end(name), graph.component_end(name)
                tp, tu = tau[p], tau[u]
                tp_inv = [0] * n
                for i, x in enumerate(tp):
                    tp_inv[x] = i
                relabeled.append(tuple(tu[sigma[tp_inv[i]]] for i in range(n)))
            key = tuple(relabeled)
            if best is None or key < best:
                best = key
        return best

    classes = set()
    for assign in itertools.product(perms, repeat=len(edge_names)):
        if is_connected(assign):
            classes.add(canonical(assign))
    return len(classes)


def test_cover_counts_against_independent_oracle():
    for graph, degree in [
        (diamond_graph(), 2),
        (circle_graph(), 2),
        (circle_graph(), 3),
        (theta_graph(), 2),
    ]:
        expected = oracle_connected_covers(graph, degree)
        assert len(enumerate_connected_covers(graph, degree)) == expected


def test_circle_has_one_connected_cover_per_degree():
    circle = circle_graph()
    for n in range(1, 6):
        assert len(enumerate_connected_covers(circle, n)) == 1


def test_theta_has_three_double_covers():
    assert len(enumerate_connected_covers(theta_graph(), 2)) == 3


def test_tree_has_no_connected_multicovers():
    assert len(enumerate_connected_covers(diamond_graph(), 2)) == 0
    assert len(enumerate_connected_covers(diamond_graph(), 1)) == 1


def test_covers_are_connected_and_valid():
    theta = theta_graph()
    for cover in enumerate_connected_covers(theta, 2):
        assert cover_is_connected(theta, 2, cover)
        verts, edges = cover_total_space(theta, 2, cover)
        assert len(verts) == 2 * len(theta.vertices)
        assert len(edges) == 2 * len(theta.edges)
    # every cover gives each branch a sheet permutation, the identity on the
    # branches of the maximal tree
    cases = [(theta, d) for d in range(1, 5)] + [(circle_graph(), 4), (diamond_graph(), 1)]
    for graph, degree in cases:
        tree_names = maximal_tree(graph)
        covers = enumerate_connected_covers(graph, degree)
        assert covers
        for cover in covers:
            assert set(cover) == set(graph.edge_names())
            for name, perm in cover.items():
                assert sorted(perm) == list(range(degree)), (name, perm)
                if name in tree_names:
                    assert perm == tuple(range(degree)), (name, perm)
            assert cover_is_connected(graph, degree, cover)


def test_cover_rejects_bad_degree():
    with pytest.raises(ValueError):
        enumerate_connected_covers(circle_graph(), 0)


def rank_graph(rank: int) -> ReductionGraph:
    """One point and one component joined by rank + 1 parallel branches."""
    return ReductionGraph(["P"], ["U"], [(f"b{i}", "P", "U") for i in range(rank + 1)])


def _conjugate(tau, sigma):
    n = len(tau)
    tau_inv = [0] * n
    for i, x in enumerate(tau):
        tau_inv[x] = i
    return tuple(tau[sigma[tau_inv[i]]] for i in range(n))


def _is_transitive(gens, n):
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


def brute_force_least_tuples(n: int, rank: int) -> list:
    """Every transitive rank-tuple of S_n minimized over all n! simultaneous
    conjugations: the (n!)^(rank+1) enumeration the orderly scan replaces."""
    perms = sorted(itertools.permutations(range(n)))
    reps = set()
    for combo in itertools.product(perms, repeat=rank):
        if _is_transitive(combo, n):
            reps.add(min(tuple(_conjugate(tau, s) for s in combo) for tau in perms))
    return sorted(reps)


def _cover_tuples(graph, degree):
    tree = maximal_tree(graph)
    free = [name for name in graph.edge_names() if name not in tree]
    return [tuple(c[name] for name in free) for c in enumerate_connected_covers(graph, degree)]


def hall_transitive_count(rank: int, n: int) -> int:
    """a_n(F_r), the number of index-n subgroups of the free group of rank r
    (M. Hall, Canad. J. Math. 1, 1949)."""
    a = [0]
    for m in range(1, n + 1):
        f = math.factorial
        a.append(m * f(m) ** (rank - 1)
                 - sum(f(m - k) ** (rank - 1) * a[k] for k in range(1, m)))
    return a[n]


def mednykh_class_count(rank: int, n: int) -> int:
    """Conjugacy classes of index-n subgroups of the free group of rank r
    (A. D. Mednykh, J. Algebra 320, 2008): (1/n) sum over l*m = n of
    a_m(F_r) times J_k(l), the epimorphisms of F_k onto Z/l, k = m(r-1)+1."""

    def mobius(x):
        out, p = 1, 2
        while p * p <= x:
            if x % p == 0:
                x //= p
                if x % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if x > 1 else out

    total = 0
    for m in range(1, n + 1):
        if n % m:
            continue
        l, k = n // m, m * (rank - 1) + 1
        jordan = sum(mobius(l // d) * d ** k for d in range(1, l + 1) if l % d == 0)
        total += hall_transitive_count(rank, m) * jordan
    assert total % n == 0
    return total // n


def test_cover_representatives_equal_the_brute_force_minimization():
    cases = [(rank_graph(r), d) for r in range(4) for d in range(1, 5)]
    cases += [(diamond_graph(), 3), (circle_graph(), 5)]
    for graph, degree in cases:
        rank = cycle_rank(graph)
        assert _cover_tuples(graph, degree) == brute_force_least_tuples(degree, rank), (
            rank, degree)


def test_cover_counts_match_mednykh():
    expected = {2: [1, 3, 7, 26, 97, 624, 4163], 3: [1, 7, 41, 604, 13753]}
    for rank, counts in expected.items():
        graph = rank_graph(rank)
        for degree, count in enumerate(counts, start=1):
            assert mednykh_class_count(rank, degree) == count
            assert len(enumerate_connected_covers(graph, degree)) == count, (rank, degree)


def test_cover_orbits_sum_to_the_transitive_tuple_count():
    for rank, top in ((2, 5), (3, 4)):
        graph = rank_graph(rank)
        for n in range(1, top + 1):
            perms = list(itertools.permutations(range(n)))
            orbit_total = 0
            for combo in _cover_tuples(graph, n):
                stab = sum(
                    all(_conjugate(tau, s) == s for s in combo) for tau in perms
                )
                orbit_total += math.factorial(n) // stab
            assert orbit_total == math.factorial(n - 1) * hall_transitive_count(rank, n)


def test_cover_representatives_are_sorted_and_connected():
    for rank, degree in ((1, 4), (2, 4), (3, 3)):
        graph = rank_graph(rank)
        covers = enumerate_connected_covers(graph, degree)
        assert all(cover_is_connected(graph, degree, c) for c in covers)
        tuples = _cover_tuples(graph, degree)
        assert tuples == sorted(set(tuples))


def test_partition_count_of_small_degrees():
    assert [_partition_count(n) for n in range(1, 9)] == [1, 2, 3, 5, 7, 11, 15, 22]


def test_cover_scan_beyond_the_cap_is_refused():
    # rank 2 admits degree 8 (22 * 8! tuples), not degree 9 (30 * 9!)
    assert 22 * math.factorial(8) <= COVER_SCAN_CAP < 30 * math.factorial(9)
    with pytest.raises(ScaleError, match="cap"):
        enumerate_connected_covers(theta_graph(), 9)
    with pytest.raises(ScaleError):
        enumerate_connected_covers(rank_graph(3), 6)
    with pytest.raises(ScaleError):
        enumerate_connected_covers(rank_graph(4), 5)
    # a tree has no free edge to scan: one cover at degree 1, none above
    assert enumerate_connected_covers(diamond_graph(), 12) == ()


# -- index bound ----------------------------------------------------------------


def test_index_bound_examples():
    assert index_bound({"P": 1, "U": 1}) == index_bound([1, 1])
    assert index_bound([1, 1]) == (1, 1)
    assert index_bound([2, 3]) == (6, 6)
    assert index_bound([4, 6]) == (24, 12)


def test_index_bound_lcm_divides_product():
    rng = random.Random(7)
    for _ in range(100):
        values = [rng.randint(1, 30) for _ in range(rng.randint(1, 5))]
        product, lcm = index_bound(values)
        assert product % lcm == 0


def test_index_bound_rejects_nonpositive():
    with pytest.raises(ValueError):
        index_bound([2, 0])


# -- DOT export -------------------------------------------------------------------


def test_export_dot_single_edge():
    text = export_dot(diamond_graph())
    body = [l for l in text.strip().split("\n")[1:-1]]
    assert len(body) == 3
    assert '"P" [shape=circle' in body[0]
    assert '"U" [shape=box' in body[1]
    assert '"P" -- "U" [label="b1"' in body[2]


def test_export_dot_marks_tree_edges():
    circle = circle_graph()
    text = export_dot(circle)
    assert 'label="b1", style=solid' in text
    assert 'label="b2", style=dashed' in text


def test_export_dot_escapes_quotes_and_backslashes():
    graph = ReductionGraph(
        ['P"x', "Q"], ["U\\"],
        [('b"1', 'P"x', "U\\"), ("b\\2", "Q", "U\\"), ("b3", "Q", "U\\")],
    )
    lines = export_dot(graph).split("\n")
    quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
    tokens = [[re.sub(r"\\(.)", r"\1", t) for t in quoted.findall(line)] for line in lines]
    assert tokens[1:4] == [['P"x'], ["Q"], ["U\\"]]
    # branches in name order, and "3" sorts before a backslash
    assert tokens[4:7] == [['P"x', "U\\", 'b"1'], ["Q", "U\\", "b3"], ["Q", "U\\", "b\\2"]]
    # every quote is a token's own: nothing is left outside a token but syntax
    assert all('"' not in quoted.sub("", line) for line in lines)


def test_export_dot_theta_lists_everything():
    text = export_dot(theta_graph())
    for name in ("b1", "b2", "b3"):
        assert f'label="{name}"' in text
    assert text == export_dot(theta_graph())  # byte-deterministic

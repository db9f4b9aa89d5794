"""Reduction graphs: validation, trees, covers against a permutation oracle."""

from __future__ import annotations

import itertools
import random

import pytest

from catalog import circle_graph, diamond_graph, theta_graph
from vkpatch.graphs import (
    InvalidGraphError,
    ReductionGraph,
    SpanningTree,
    cycle_rank,
    enumerate_connected_covers,
    export_dot,
    index_bound,
    is_tree,
    maximal_tree,
    spanning_trees,
)


def test_single_edge_graph_validates():
    assert diamond_graph().validate().ok


def test_non_bipartite_edge_is_reported():
    g = ReductionGraph(
        ["P", "Q"], ["U"],
        [("b1", "P", "Q"), ("b2", "P", "U"), ("b3", "Q", "U")],
    )
    report = g.validate()
    assert not report.ok
    assert any("not bipartite" in v for v in report.violations)


def test_disconnected_graph_is_reported():
    g = ReductionGraph(
        ["P1", "P2"], ["U1", "U2"],
        [("b1", "P1", "U1"), ("b2", "P1", "U1"), ("b3", "P2", "U2"), ("b4", "P2", "U2")],
    )
    report = g.validate()
    assert not report.ok
    assert any("disconnected" in v for v in report.violations)


def test_dangling_endpoint_is_reported():
    g = ReductionGraph(["P"], ["U"], [("b1", "P", "X")])
    report = g.validate()
    assert any("dangling" in v for v in report.violations)


def test_degree_zero_vertex_is_reported():
    g = ReductionGraph(["P", "Q"], ["U"], [("b1", "P", "U")])
    assert any("degree 0" in v for v in g.validate().violations)


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
    assert maximal_tree(circle_graph()).edge_names == ("b1",)
    assert maximal_tree(theta_graph()).edge_names == ("b1",)
    assert maximal_tree(diamond_graph()).edge_names == ("b1",)
    # on a tree, the unique spanning tree is the whole edge set
    star = ReductionGraph(
        ["P1", "P2", "P3"], ["U"],
        [("b1", "P1", "U"), ("b2", "P2", "U"), ("b3", "P3", "U")],
    )
    assert maximal_tree(star).edge_names == ("b1", "b2", "b3")


def test_spanning_tree_enumeration():
    assert len(spanning_trees(theta_graph())) == 3
    assert len(spanning_trees(circle_graph())) == 2
    assert len(spanning_trees(diamond_graph())) == 1


def test_non_tree_edge_count_equals_rank():
    for g in (diamond_graph(), circle_graph(), theta_graph()):
        for tree in spanning_trees(g):
            assert len(tree.non_tree_edges()) == cycle_rank(g)


def test_spanning_tree_rejects_cycles():
    with pytest.raises(ValueError):
        SpanningTree(theta_graph(), ("b1", "b2"))


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


def test_cover_counts_do_not_depend_on_tree_choice():
    for graph in (circle_graph(), theta_graph()):
        counts = {
            len(enumerate_connected_covers(graph, 2, tree=tree))
            for tree in spanning_trees(graph)
        }
        assert len(counts) == 1


def test_covers_are_connected_and_valid():
    for cover in enumerate_connected_covers(theta_graph(), 2):
        assert cover.is_connected()
        verts, edges = cover.total_space()
        assert len(verts) == 2 * len(theta_graph().vertices)
        assert len(edges) == 2 * len(theta_graph().edges)


def test_cover_rejects_bad_degree():
    with pytest.raises(ValueError):
        enumerate_connected_covers(circle_graph(), 0)


# -- index bound ----------------------------------------------------------------


def test_index_bound_examples():
    assert index_bound({"P": 1, "U": 1}) == index_bound([1, 1])
    assert index_bound([1, 1]).product == 1
    assert index_bound([2, 3]).product == 6
    assert index_bound([2, 3]).lcm == 6
    assert index_bound([4, 6]).product == 24
    assert index_bound([4, 6]).lcm == 12


def test_index_bound_lcm_divides_product():
    rng = random.Random(7)
    for _ in range(100):
        values = [rng.randint(1, 30) for _ in range(rng.randint(1, 5))]
        result = index_bound(values)
        assert result.product % result.lcm == 0


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
    text = export_dot(circle, maximal_tree(circle))
    assert 'label="b1", style=solid' in text
    assert 'label="b2", style=dashed' in text


def test_export_dot_theta_lists_everything():
    text = export_dot(theta_graph())
    for name in ("b1", "b2", "b3"):
        assert f'label="{name}"' in text
    assert text == export_dot(theta_graph())  # byte-deterministic

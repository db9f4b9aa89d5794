"""CLI: parsing, command dispatch, exit-status contract, determinism."""

from __future__ import annotations

import json

import pytest

from vkpatch.cli import run
from vkpatch.inputs import InputError, parse_input
from vkpatch.reports import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_PASS,
)

MINIMAL = {
    "version": 1,
    "graph": {"points": ["P"], "components": ["U"], "edges": [["b1", "P", "U"]]},
}

CIRCLE = {
    "version": 1,
    "graph": {
        "points": ["P"],
        "components": ["U"],
        "edges": [["b1", "P", "U"], ["b2", "P", "U"]],
    },
    "groups": {"C2": {"cyclic": 2}},
    "options": {"test_group": "C2"},
}

AMALGAM = {
    "version": 1,
    "graph": {
        "points": [{"name": "P", "group": "C4"}],
        "components": [{"name": "U", "group": "C6"}],
        "edges": [{"name": "b1", "point": "P", "component": "U", "group": "C2"}],
    },
    "groups": {"C2": {"cyclic": 2}, "C4": {"cyclic": 4}, "C6": {"cyclic": 6}},
    "edge_maps": {
        "b1": {"to_point": {"1": "2"}, "to_component": {"1": "3"}}
    },
    "options": {"test_group": "C2"},
}

AS_DOC = {
    "version": 1,
    "descent": {"artin_schreier": {"p": 2, "k1_degree": 1, "k2_degree": 2, "alpha": "w"}},
}

KUMMER_DOC = {
    "version": 1,
    "descent": {"kummer": {"p": 2, "model": "transcendental", "terms": 4, "truncation": 200}},
}


def write(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def digest_of(capsys) -> str:
    out = capsys.readouterr().out
    for line in out.split("\n"):
        if line.startswith("deterministic-digest:"):
            return line.split()[-1]
    raise AssertionError(f"no digest in output:\n{out}")


# -- parsing ------------------------------------------------------------------


def test_parse_minimal_document():
    doc = parse_input(json.dumps(MINIMAL))
    assert doc.graph is not None
    assert doc.graph.validate().ok


def test_parse_rejects_missing_version():
    with pytest.raises(InputError) as exc:
        parse_input(json.dumps({"graph": {}}))
    assert any("version" in e for e in exc.value.errors)


def test_parse_rejects_dangling_edge():
    bad = {
        "version": 1,
        "graph": {"points": ["P"], "components": ["U"], "edges": [["b1", "P", "X"]]},
    }
    with pytest.raises(InputError) as exc:
        parse_input(json.dumps(bad))
    assert any("b1" in e for e in exc.value.errors)


def test_parse_warns_on_unknown_keys():
    doc = dict(MINIMAL)
    doc["extra"] = 1
    parsed = parse_input(json.dumps(doc))
    assert any("extra" in w for w in parsed.warnings)


def test_parse_rejects_bad_group_table():
    doc = {
        "version": 1,
        "groups": {"bad": {"table": {"elements": ["e", "a"], "table": [["e", "a"], ["a", "a"]]}}},
    }
    with pytest.raises(InputError) as exc:
        parse_input(json.dumps(doc))
    assert any("bad" in e for e in exc.value.errors)


def test_parse_rejects_undefined_test_group():
    doc = dict(MINIMAL)
    doc["options"] = {"test_group": "nope"}
    with pytest.raises(InputError):
        parse_input(json.dumps(doc))


def test_build_gog_requires_edge_maps_for_nontrivial_groups():
    doc = dict(AMALGAM)
    doc = json.loads(json.dumps(doc))
    del doc["edge_maps"]
    parsed = parse_input(json.dumps(doc))
    with pytest.raises(InputError) as exc:
        parsed.build_gog()
    assert any("edge_maps.b1" in e for e in exc.value.errors)


# -- exit-status contract ---------------------------------------------------------


def test_graph_check_pass_and_fail(tmp_path, capsys):
    assert run(["graph-check", write(tmp_path, MINIMAL)]) == EXIT_PASS
    capsys.readouterr()
    bad = {
        "version": 1,
        "graph": {
            "points": ["P", "Q"],
            "components": ["U"],
            "edges": [["b1", "P", "Q"], ["b2", "P", "U"], ["b3", "Q", "U"]],
        },
    }
    assert run(["graph-check", write(tmp_path, bad, "bad.json")]) == EXIT_FAIL


def test_input_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert run(["graph-check", str(path)]) == EXIT_INPUT_ERROR
    assert run(["graph-check", str(tmp_path / "missing.json")]) == EXIT_INPUT_ERROR
    noversion = tmp_path / "nv.json"
    noversion.write_text("{}")
    assert run(["graph-check", str(noversion)]) == EXIT_INPUT_ERROR


def test_gog_verify_circle_report(tmp_path, capsys):
    code = run(["gog-verify", write(tmp_path, CIRCLE)])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "non-tree detected" in out
    assert "presentation homs: 2" in out
    assert "naive limit homs: 1" in out


def test_gog_verify_all_trees_flag(tmp_path, capsys):
    code = run(["gog-verify", write(tmp_path, CIRCLE), "--all-trees"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "counts identical across trees: True" in out


def test_gog_homs_amalgam(tmp_path, capsys):
    code = run(["gog-homs", write(tmp_path, AMALGAM)])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "presentation homs into C2: 2" in out


def test_graph_covers_theta(tmp_path, capsys):
    doc = {
        "version": 1,
        "graph": {
            "points": ["P"],
            "components": ["U"],
            "edges": [["b1", "P", "U"], ["b2", "P", "U"], ["b3", "P", "U"]],
        },
        "options": {"degree": 2},
    }
    code = run(["graph-covers", write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "3 connected covers of degree 2" in out


def test_pushout_and_torsor_verify(tmp_path, capsys):
    for cmd in ("pushout-verify", "torsor-verify"):
        code = run([cmd, write(tmp_path, CIRCLE)])
        out = capsys.readouterr().out
        assert code == EXIT_PASS, out
        assert "verdict: PASS" in out


def test_functor_set_report_carries_both_laws(tmp_path, capsys):
    keys = {"global_classes", "fiber_classes", "functor_count", "pi1_count",
            "agreement", "global_raw", "fiber_raw", "marking_gauge", "bijective",
            "roundtrip_checked", "roundtrip_stride", "passed"}
    for cmd, law in (("torsor-verify", "torsor-patching-equivalence"),
                     ("pushout-verify", "groupoid-pushout")):
        run([cmd, write(tmp_path, CIRCLE)])
        out = capsys.readouterr().out
        machine = json.loads(out.split("-- machine --\n", 1)[1])
        assert machine["law"] == law
        assert keys <= set(machine)
        assert machine["roundtrip_checked"] == machine["global_raw"] == 4
        assert machine["roundtrip_stride"] == 1
        assert "round trips verified: 4 (every element)" in out


def test_non_injective_edge_map_is_input_error(tmp_path, capsys):
    doc = json.loads(json.dumps(AMALGAM))
    doc["edge_maps"]["b1"]["to_point"] = {"1": "0"}
    code = run(["gog-verify", write(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("input error: edge_maps.b1: ")
    assert "not injective" in err
    assert "Traceback" not in err


def test_descent_as_exit_and_agreement(tmp_path, capsys):
    code = run(["descent-as", write(tmp_path, AS_DOC)])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "verdict: FAILS" in out
    assert "criterion/oracle agreement: True" in out


def test_descent_kummer_verdicts(tmp_path, capsys):
    code = run(["descent-kummer", write(tmp_path, KUMMER_DOC)])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "OBSTRUCTED-WITHIN-BOUNDS" in out

    small = json.loads(json.dumps(KUMMER_DOC))
    small["descent"]["kummer"]["truncation"] = 10
    code = run(["descent-kummer", write(tmp_path, small, "small.json")])
    capsys.readouterr()
    assert code == EXIT_INCONCLUSIVE


def test_descent_example29(tmp_path, capsys):
    code = run(["descent-example29", write(tmp_path, {"version": 1})])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "remainder = 0" in out


def test_index_bound_command(tmp_path, capsys):
    doc = dict(MINIMAL)
    doc["options"] = {"local_indices": {"P": 4, "U": 6}}
    code = run(["index-bound", write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "product 24, lcm 12" in out


def test_export_dot_to_file(tmp_path, capsys):
    out_path = tmp_path / "graph.dot"
    code = run(["export-dot", write(tmp_path, CIRCLE), "--dot-output", str(out_path)])
    capsys.readouterr()
    assert code == EXIT_PASS
    text = out_path.read_text()
    assert 'label="b1", style=solid' in text
    assert 'label="b2", style=dashed' in text


def test_unknown_command_is_input_error(capsys):
    assert run(["no-such-command"]) == EXIT_INPUT_ERROR
    capsys.readouterr()


# -- determinism -------------------------------------------------------------------


def test_reports_are_deterministic(tmp_path, capsys):
    for cmd, doc in [
        ("gog-verify", CIRCLE),
        ("pushout-verify", CIRCLE),
        ("descent-as", AS_DOC),
        ("graph-rank", MINIMAL),
    ]:
        path = write(tmp_path, doc, f"{cmd}.json")
        assert run([cmd, path]) in (EXIT_PASS, EXIT_FAIL)
        first = digest_of(capsys)
        assert run([cmd, path]) in (EXIT_PASS, EXIT_FAIL)
        second = digest_of(capsys)
        assert first == second


def _gog_as_document(gog):
    """Serialize a graph of groups into the input schema via table groups."""
    graph = gog.graph
    groups = {"C2ref": {"cyclic": 2}}

    def descriptor(g):
        name = f"G{g.name}"
        groups[name] = {
            "table": {
                "elements": list(g.elements),
                "table": [
                    [g.label(g.table[a][b]) for b in range(g.order)]
                    for a in range(g.order)
                ],
            }
        }
        return name

    def map_table(e, side, end):
        hom = gog.edge_maps[e][side]
        return {
            gog.edge_groups[e].label(a): gog.vertex_groups[end].label(hom(a))
            for a in range(gog.edge_groups[e].order)
        }

    return {
        "version": 1,
        "graph": {
            "points": [
                {"name": p, "group": descriptor(gog.vertex_groups[p])}
                for p in graph.points
            ],
            "components": [
                {"name": u, "group": descriptor(gog.vertex_groups[u])}
                for u in graph.components
            ],
            "edges": [
                {"name": e, "point": graph.point_end(e),
                 "component": graph.component_end(e),
                 "group": descriptor(gog.edge_groups[e])}
                for e in graph.edge_names()
            ],
        },
        "groups": groups,
        "edge_maps": {
            e: {
                "to_point": map_table(e, "to_point", graph.point_end(e)),
                "to_component": map_table(e, "to_component", graph.component_end(e)),
            }
            for e in graph.edge_names()
        },
        "options": {"test_group": "C2ref"},
    }


def test_random_gog_round_trips_through_schema(tmp_path, capsys):
    """Serialize random instances (with table-described groups) into the
    input schema and run the verifiers on the parsed document."""
    import random

    from catalog import add_extra_edges, random_gog, random_tree_graph
    from vkpatch.gog import enumerate_pi1_homs
    from vkpatch.groups import cyclic

    rng = random.Random(71)
    for k in range(4):
        graph = random_tree_graph(rng, max_vertices=3)
        if k % 2 == 0:
            graph = add_extra_edges(rng, graph, 1)
        gog = random_gog(rng, graph, vertex_order_cap=6, edge_order_cap=4)
        doc = _gog_as_document(gog)
        parsed = parse_input(json.dumps(doc))
        rebuilt = parsed.build_gog()
        assert len(enumerate_pi1_homs(gog, cyclic(2))) == len(
            enumerate_pi1_homs(rebuilt, cyclic(2))
        )
        path = write(tmp_path, doc, f"roundtrip{k}.json")
        assert run(["gog-verify", path]) == EXIT_PASS
        capsys.readouterr()
        assert run(["pushout-verify", path]) == EXIT_PASS
        capsys.readouterr()


def test_machine_block_is_valid_json(tmp_path, capsys):
    run(["gog-verify", write(tmp_path, CIRCLE)])
    out = capsys.readouterr().out
    machine = out.split("-- machine --\n", 1)[1]
    payload = json.loads(machine)
    assert payload["law"] == "tree-direct-limit"
    assert "deterministic_digest" in payload

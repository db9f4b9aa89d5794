"""CLI: parsing, command dispatch, exit-status contract, determinism."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import vkpatch
from vkpatch.cli import run
from vkpatch.inputs import InputError, parse_input
from vkpatch.reports import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_PASS,
    ReportDocument,
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

# 5^25 candidates at the default support p^2 = 25
AS_P5_DOC = {
    "version": 1,
    "descent": {"artin_schreier": {"p": 5, "k2_degree": 2, "alpha": "w"}},
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
    assert doc.graph.validate() == ()


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


def test_gog_verify_all_trees_enumerates_each_tree_once(tmp_path, capsys, monkeypatch):
    from vkpatch import gog

    calls = []
    real = gog.enumerate_homs
    monkeypatch.setattr(gog, "enumerate_homs", lambda pres, G: calls.append(pres) or real(pres, G))
    code = run(["gog-verify", write(tmp_path, CIRCLE), "--all-trees"])
    machine = json.loads(capsys.readouterr().out.split("-- machine --\n", 1)[1])
    assert code == EXIT_PASS
    assert machine["tree_independence"]["counts"] == {"{b1}": 2, "{b2}": 2}
    # one van Kampen presentation per spanning tree, plus one per vertex group
    # for the naive limit
    assert len(calls) == 2 + 2


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


def test_graph_covers_beyond_the_scan_cap_is_an_input_error(tmp_path, capsys):
    # theta has cycle rank 2: degree 12 would scan 77 * 12! tuples, so the
    # cap refuses it before a single permutation is built
    doc = {
        "version": 1,
        "graph": {
            "points": ["P"],
            "components": ["U"],
            "edges": [["b1", "P", "U"], ["b2", "P", "U"], ["b3", "P", "U"]],
        },
    }
    code = run(["graph-covers", write(tmp_path, doc), "--degree", "12"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.err.startswith("input error: degree-12 covers of a rank-2 graph")
    assert "cap 1000000" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("degree", [2000, 100000])
def test_graph_covers_far_past_the_scan_cap_is_refused_without_big_numbers(
    tmp_path, capsys, degree
):
    # the refusal stops at n! > cap: it neither formats a number of thousands
    # of digits nor counts the partitions of the degree
    code = run(["graph-covers", write(tmp_path, CIRCLE), "--degree", str(degree)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.err == (
        f"input error: degree-{degree} covers of a rank-1 graph would scan more "
        "tuples than allowed (cap 1000000)\n"
    )
    assert captured.out == ""


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


_AS_SPEC = AS_DOC["descent"]["artin_schreier"]


@pytest.mark.parametrize(
    "command, doc, flags, path",
    [
        ("graph-check", {**MINIMAL, "version": "x"}, [], "version"),
        ("descent-as", {"version": 1, "descent": {"artin_schreier": {
            k: v for k, v in _AS_SPEC.items() if k != "p"}}}, [], "descent.artin_schreier"),
        ("descent-as", {"version": 1, "descent": {"artin_schreier": {
            **_AS_SPEC, "alpha": "zz"}}}, [], "descent.artin_schreier"),
        ("graph-check", {"version": 1, "graph": [1]}, [], "graph"),
        ("descent-kummer", {"version": 1, "descent": {"kummer": {
            **KUMMER_DOC["descent"]["kummer"], "p": 4}}}, [], "descent.kummer"),
        ("graph-covers", MINIMAL, ["--degree", "0"], "degree"),
        ("graph-covers", {**MINIMAL, "options": {"degree": "two"}}, [], "options.degree"),
        ("graph-check", {"version": 1, "graph": {**MINIMAL["graph"], "edges": 5}}, [],
         "graph.edges"),
        ("index-bound", {**MINIMAL, "options": {"local_indices": {"P": "x", "U": 6}}}, [],
         "options.local_indices"),
        ("index-bound", {**MINIMAL, "options": {"local_indices": {"P": 4, "U": 0}}}, [],
         "options.local_indices"),
        ("descent-as", {"version": 1, "descent": {"artin_schreier": {
            "p": 2, "rational": True, "e": 1, "alpha": {"num": [1], "den": [0]}}}}, [],
         "descent.artin_schreier"),
        ("descent-kummer", {"version": 1, "descent": {"kummer": {
            **KUMMER_DOC["descent"]["kummer"], "terms": 0}}}, [], "descent.kummer"),
        ("descent-kummer", {"version": 1, "descent": {"kummer": {
            **KUMMER_DOC["descent"]["kummer"], "truncation": -1}}}, [], "descent.kummer"),
        ("descent-kummer", {"version": 1, "descent": {"kummer": {
            **KUMMER_DOC["descent"]["kummer"], "model": "zz"}}}, [], "descent.kummer"),
        ("gog-verify", {**AMALGAM, "edge_maps": {"b1": "x"}}, [], "edge_maps.b1"),
        ("gog-verify", {**AMALGAM, "edge_maps": {"b1": {
            "to_point": [["1", "2"]], "to_component": {"1": "3"}}}}, [], "edge_maps.b1.to_point"),
        ("graph-check", {"version": 1, "graph": {
            **MINIMAL["graph"], "edges": [["b1", ["P"], "U"]]}}, [], "graph.edges"),
        ("graph-check", {"version": 1, "graph": {**MINIMAL["graph"], "points": [{"name": [1]}]}},
         [], "graph.points"),
        ("gog-verify", {**AMALGAM, "graph": {
            **AMALGAM["graph"], "points": [{"name": "P", "group": ["C4"]}]}}, [], "graph vertex P"),
        ("gog-verify", {**CIRCLE, "options": {"test_group": ["C2"]}}, [], "options.test_group"),
        ("gog-verify", {**CIRCLE, "groups": [1]}, [], "groups"),
        ("gog-verify", {**CIRCLE, "options": [1]}, [], "options"),
        ("descent-as", {"version": 1, "descent": [1]}, [], "descent"),
        ("descent-as", {"version": 1, "descent": {"artin_schreier": {
            **_AS_SPEC, "alpha": ["w"]}}}, [], "descent.artin_schreier"),
        ("graph-tree", {**CIRCLE, "graph": {**CIRCLE["graph"], "points": ["P", "P"]}}, [],
         "graph"),
        ("descent-as", {"version": 1, "descent": {"artin_schreier": {
            **_AS_SPEC, "k1_degree": -1}}}, [], "descent.artin_schreier"),
        ("gog-verify", {**CIRCLE, "groups": {"C2": {"cyclic": 2, "symmetric": 3}}}, [],
         "groups.C2"),
        ("gog-verify", {**CIRCLE, "groups": {"C2": [1]}}, [], "groups.C2"),
        ("gog-homs", {**AMALGAM, "graph": {**AMALGAM["graph"], "edges": [
            {"name": "b1", "point": "P", "component": "U", "group": "C9"}]}}, [],
         "graph edge b1"),
        # sizes past the field and group caps are refused before any table
        ("descent-as", {"version": 1, "descent": {"artin_schreier": {
            **_AS_SPEC, "k2_degree": 40}}}, [], "descent.artin_schreier"),
        ("descent-kummer", {"version": 1, "descent": {"kummer": {
            **KUMMER_DOC["descent"]["kummer"], "q_exp": 40}}}, [], "descent.kummer"),
        ("graph-check", {**MINIMAL, "groups": {"G": {"symmetric": 9}}}, [], "groups.G"),
        ("graph-check", {**MINIMAL, "groups": {"G": {"product": [
            {"cyclic": 15}, {"cyclic": 14}]}}}, [], "groups.G"),
    ],
    ids=["version-x", "as-no-p", "alpha-zz", "graph-list", "kummer-p4", "covers-degree0",
         "covers-degree-text", "graph-edges-int", "local-index-text", "local-index-zero",
         "alpha-den-zero", "kummer-terms0", "kummer-truncation-negative", "kummer-model-zz",
         "edge-map-text", "edge-map-side-list", "edge-end-list", "vertex-name-list",
         "vertex-group-list", "test-group-list", "groups-list", "options-list", "descent-list",
         "alpha-list", "vertex-declared-twice", "k1-degree-negative", "group-two-keys",
         "group-list", "edge-group-undefined", "k2-degree-40", "kummer-q-exp-40",
         "symmetric-9", "product-over-cap"],
)
def test_malformed_values_are_input_errors(tmp_path, capsys, command, doc, flags, path):
    code = run([command, write(tmp_path, doc), *flags])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.err.startswith(f"input error: {path}: ")
    assert captured.out == ""


def test_edge_map_errors_name_the_missing_field_and_the_unknown_label(tmp_path, capsys):
    missing = json.loads(json.dumps(AMALGAM))
    del missing["edge_maps"]["b1"]["to_point"]
    unknown = json.loads(json.dumps(AMALGAM))
    unknown["edge_maps"]["b1"]["to_point"] = {"zz": "2"}
    for doc, line in (
        (missing, "input error: edge_maps.b1: missing field 'to_point'"),
        (unknown, "input error: edge_maps.b1: 'zz' is not an element of C2"),
    ):
        assert run(["gog-verify", write(tmp_path, doc)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == line + "\n"


def test_descent_as_over_the_candidate_cap_is_inconclusive(tmp_path):
    # a child process with a timeout fails on an unbounded search instead of
    # hanging
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(vkpatch.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-m", "vkpatch.cli", "descent-as", write(tmp_path, AS_P5_DOC)],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert child.returncode == EXIT_PASS
    human, _, machine = child.stdout.partition("-- machine --\n")
    assert "oracle inconclusive; criterion verdict stands" in human
    oracle = json.loads(machine)["oracle"]
    assert oracle["verdict"] == "INCONCLUSIVE"
    assert oracle["candidates_tried"] == 0
    assert oracle["note"] == (
        "|k1|^25 candidates with |k1| = 5 exceed the cap of 1000000: search not run"
    )


_CIRCLE_25 = json.dumps({
    "version": 1,
    "graph": {"points": ["P"], "components": ["U"],
              "edges": [[f"b{i}", "P", "U"] for i in range(1, 26)]},
    "groups": {"S3": {"symmetric": 3}},
    "options": {"test_group": "S3"},
})


@pytest.mark.parametrize(
    "command, text, exit_code, machine",
    [
        # an integer literal longer than Python converts
        ("graph-check", '{"version": 1, "groups": {"G": {"cyclic": ' + "9" * 5000 + "}}}",
         EXIT_INPUT_ERROR, None),
        # a product of 12,000 digits, too long to print
        ("index-bound", json.dumps({"version": 1, "options": {"local_indices": {
            label: 10**3999 + 7 for label in "PQU"}}}), EXIT_INPUT_ERROR, None),
        # 6^24 markings on the global side, refused before any hom is enumerated
        ("torsor-verify", _CIRCLE_25, EXIT_INPUT_ERROR, None),
        ("pushout-verify", _CIRCLE_25, EXIT_INPUT_ERROR, None),
        # at least 6^24 presentation homs, refused before any is enumerated
        ("gog-homs", _CIRCLE_25, EXIT_INPUT_ERROR, None),
        ("gog-verify", _CIRCLE_25, EXIT_INPUT_ERROR, None),
        # only the exponents with i^2 <= truncation are walked
        ("descent-kummer", json.dumps({"version": 1, "descent": {"kummer": {
            **KUMMER_DOC["descent"]["kummer"], "terms": 10**9}}}), EXIT_PASS,
         {"verdict": "OBSTRUCTED-WITHIN-BOUNDS", "candidates_tried": 31}),
        # every coefficient is parsed, only those up to the truncation are kept
        ("descent-kummer", json.dumps({"version": 1, "descent": {"kummer": {
            "p": 2, "model": "base-ring", "gbar_coeffs": [1] * 10**6, "truncation": 200}}}),
         EXIT_PASS, {"verdict": "DESCENDS", "candidates_tried": 1}),
    ],
    ids=["long-integer", "index-product", "torsor-gauge", "pushout-gauge", "homs-bound",
         "verify-bound", "kummer-terms", "kummer-base-ring-coeffs"],
)
def test_extreme_inputs_answer_fast_without_traceback(tmp_path, command, text, exit_code, machine):
    path = tmp_path / "input.json"
    path.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(vkpatch.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-m", "vkpatch.cli", command, str(path)],
        capture_output=True, text=True, timeout=5, env=env,
    )
    assert child.returncode == exit_code, child.stderr
    assert "Traceback" not in child.stderr
    if machine is not None:
        block = json.loads(child.stdout.partition("-- machine --\n")[2])
        assert {key: block[key] for key in machine} == machine


def test_cli_import_loads_no_introspection_modules():
    # each command runs in a fresh process, so whatever this import loads is
    # paid on every call; dataclasses alone would pull in all five
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import vkpatch.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(vkpatch.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env,
    )
    assert child.returncode == 0, child.stderr
    loaded = set(child.stdout.split())
    assert "vkpatch.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "dis", "tokenize", "ast"}


def test_descent_as_support_bound_far_over_the_cap_is_inconclusive(tmp_path, capsys):
    code = run(["descent-as", write(tmp_path, AS_P5_DOC), "--support-bound", "1000000000"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "searched 0 candidate beta (support up to t^-1000000000)" in out
    assert "oracle inconclusive; criterion verdict stands" in out


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
    # 1 is the least local index, and a valid one
    doc["options"] = {"local_indices": {"P": 1, "U": 6}}
    code = run(["index-bound", write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "product 6, lcm 6" in out


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


def test_machine_block_is_valid_json(tmp_path, capsys, monkeypatch):
    digests = []
    real_digest = ReportDocument.deterministic_digest

    def counted(self):
        digests.append(real_digest(self))
        return digests[-1]

    monkeypatch.setattr(ReportDocument, "deterministic_digest", counted)
    run(["gog-verify", write(tmp_path, CIRCLE)])
    out = capsys.readouterr().out
    machine = out.split("-- machine --\n", 1)[1]
    payload = json.loads(machine)
    assert payload["law"] == "tree-direct-limit"
    # one digest per report, printed in the header and in the machine block
    assert len(digests) == 1
    assert payload["deterministic_digest"] == digests[0]
    assert f"deterministic-digest: {digests[0]}\n" in out

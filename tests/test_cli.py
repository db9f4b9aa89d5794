"""CLI: parsing, command dispatch, exit-status contract, determinism."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import pathlib
import random
import signal
import subprocess
import sys

import pytest

import vkpatch
from vkpatch.cli import _HANDLERS, main, run
from vkpatch.fields import FiniteField
from vkpatch.inputs import InputError, parse_input
from vkpatch.reports import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_PASS,
    ReportDocument,
    input_digest,
)

try:
    from hypothesis import given, seed, settings, strategies as st
except ImportError:  # the structural fuzz is optional
    given = None

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


def _colliding_symbols(vertex: str) -> dict:
    """A circle with C2 everywhere, a C2 vertex named ``vertex`` and branches
    named 0 and 1: for ``e`` the vertex symbols e:0, e:1 are also the branch
    letters."""
    identity = {"to_point": {"1": "1"}, "to_component": {"1": "1"}}
    return {
        "version": 1,
        "graph": {
            "points": [{"name": vertex, "group": "C2"}],
            "components": [{"name": "U", "group": "C2"}],
            "edges": [{"name": b, "point": vertex, "component": "U", "group": "C2"}
                      for b in ("0", "1")],
        },
        "groups": {"C2": {"cyclic": 2}, "S3": {"symmetric": 3}},
        "edge_maps": {"0": identity, "1": identity},
        "options": {"test_group": "S3"},
    }


# vertex P with element x:y and vertex P:x with element y both give P:x:y
NESTED_SYMBOLS = {
    "version": 1,
    "graph": {
        "points": [{"name": "P", "group": "A"}],
        "components": [{"name": "P:x", "group": "B"}],
        "edges": [{"name": "b1", "point": "P", "component": "P:x", "group": "C2"}],
    },
    "groups": {
        "C2": {"cyclic": 2},
        "S3": {"symmetric": 3},
        "A": {"table": {"elements": ["1", "x:y"], "table": [["1", "x:y"], ["x:y", "1"]]}},
        "B": {"table": {"elements": ["1", "y"], "table": [["1", "y"], ["y", "1"]]}},
    },
    "edge_maps": {"b1": {"to_point": {"1": "x:y"}, "to_component": {"1": "y"}}},
    "options": {"test_group": "S3"},
}


@pytest.mark.parametrize("command", ["gog-presentation", "gog-homs", "gog-verify",
                                     "torsor-verify", "pushout-verify"])
@pytest.mark.parametrize("doc", [_colliding_symbols("e"), NESTED_SYMBOLS],
                         ids=["vertex-e-branches-0-1", "nested-colons"])
def test_colliding_generator_symbols_are_no_error(tmp_path, capsys, command, doc):
    code = run([command, write(tmp_path, doc)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (EXIT_PASS, "")
    if command == "gog-presentation":
        repeated = "e:0, e:1, e:0, e:1" if doc is not NESTED_SYMBOLS else "P:x:y, P:x:1, P:x:y"
        assert repeated in captured.out


def test_colliding_generator_symbols_count_as_renamed_ones(tmp_path, capsys):
    """Renaming the vertex e to E, so no symbol repeats, changes no count."""
    counts = []
    for vertex in ("e", "E"):
        assert run(["gog-homs", write(tmp_path, _colliding_symbols(vertex))]) == EXIT_PASS
        out = capsys.readouterr().out
        counts.append([line for line in out.split("\n")
                       if line.startswith(("presentation homs", "up to simultaneous"))])
    # Hom(C2 x Z, S3), (x, t) commuting: t free when x = 1 (3 classes), and
    # t in the order-2 centralizer of each of the 3 transpositions (2 classes)
    assert counts[0] == counts[1] == [
        "presentation homs into S3: 12", "up to simultaneous conjugation: 5",
    ]


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
    assert captured.err.startswith(
        "input error: the tuple scan for degree-12 covers of a rank-2 graph"
    )
    assert "cap of 1000000" in captured.err
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
        f"input error: the tuple scan for degree-{degree} covers of a rank-1 graph "
        "passes the cap of 1000000\n"
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


def assert_refuted(capsys, code, line):
    """Exit 1, the REFUTED verdict, the failed check's line, and no stderr."""
    out, err = capsys.readouterr()
    assert code == EXIT_FAIL, out
    assert "verdict: REFUTED" in out
    assert line in out
    assert err == ""


def test_gog_verify_exits_1_when_a_naive_family_goes_missing(tmp_path, capsys, monkeypatch):
    """On a tree, a compatible system that no presentation hom reaches
    refutes the direct-limit law."""
    from vkpatch import gog

    real = gog.naive_limit_homs
    monkeypatch.setattr(gog, "naive_limit_homs", lambda g, G: real(g, G)[:-1])
    assert_refuted(capsys, run(["gog-verify", write(tmp_path, AMALGAM)]),
                   "restriction map is a bijection: False")


def test_gog_verify_all_trees_exits_1_when_a_tree_count_is_off(tmp_path, capsys, monkeypatch):
    """On the circle the direct-limit law passes, and a hom count that
    differs for the spanning tree {b2} refutes tree independence."""
    from vkpatch import gog

    real = gog.enumerate_homs

    def one_short_for_b2(pres, G):
        homs = real(pres, G)
        # the tree {b2} reaches U through b2, so its letter comes third
        return homs[:-1] if pres.generators[2:3] == ("e:b2",) else homs

    monkeypatch.setattr(gog, "enumerate_homs", one_short_for_b2)
    assert_refuted(capsys, run(["gog-verify", write(tmp_path, CIRCLE), "--all-trees"]),
                   "counts identical across trees: False")


@pytest.mark.parametrize("command", ["torsor-verify", "pushout-verify"])
def test_functor_set_commands_exit_1_when_a_fiber_datum_is_foreign(
    tmp_path, capsys, monkeypatch, command
):
    """A branch-agreeing local datum swapped for one that no global functor
    restricts to leaves the counts equal and breaks the bijection."""
    from vkpatch import torsors

    real = torsors._enumerate_fiber_data
    monkeypatch.setattr(torsors, "_enumerate_fiber_data",
                        lambda g, G: [*real(g, G)[:-1], ("foreign",)])
    assert_refuted(capsys, run([command, write(tmp_path, CIRCLE)]),
                   "restriction functor bijective on classes: False")


@pytest.mark.parametrize("command", ["torsor-verify", "pushout-verify"])
@pytest.mark.parametrize("edit", [lambda fiber: [*fiber, ("foreign", 0), ("foreign", 1)],
                                  lambda fiber: fiber[:-2]],
                         ids=["class-more", "class-less"])
def test_functor_set_commands_exit_1_when_the_fiber_has_a_class_more_or_less(
    tmp_path, capsys, monkeypatch, command, edit
):
    """The marking gauge's worth of fiber data (two, into C2) added or
    removed.  Added, no global functor restricts to them, so they are left
    unmatched: restriction is not onto.  Removed, some global functor's
    datum matches nothing: restriction does not land in the fiber.  Either
    way the bijection line says so, beside the counts."""
    from vkpatch import torsors

    real = torsors._enumerate_fiber_data
    monkeypatch.setattr(torsors, "_enumerate_fiber_data", lambda g, G: edit(real(g, G)))
    assert_refuted(capsys, run([command, write(tmp_path, CIRCLE)]),
                   "restriction functor bijective on classes: False")


# b2 leads to A, whose group is trivial, so a global functor's local datum
# depends on b2's marking only through P's flags
PATH_TO_A_TRIVIAL = {
    "version": 1,
    "graph": {
        "points": [{"name": "P", "group": "C2"}],
        "components": [{"name": "U", "group": "C2"}, "A"],
        "edges": [["b1", "P", "U"], ["b2", "P", "A"]],
    },
    "groups": {"C2": {"cyclic": 2}, "S3": {"symmetric": 3}},
    "options": {"test_group": "S3"},
}


@pytest.mark.parametrize("command", ["torsor-verify", "pushout-verify"])
def test_functor_set_commands_exit_1_when_two_global_functors_share_a_datum(
    tmp_path, capsys, monkeypatch, command
):
    """P's first cached entry with a nontrivial table and flags (e, x), x
    not the identity, is given the flags (e, e) of the entry for marking e
    on b2, so two global functors of one hom restrict to one datum.  Its
    hom's conjugators were checked by an earlier hom, so the round trip
    passes; the bijection fails without a traceback."""
    from vkpatch import torsors

    real = torsors._NaturalMaps._entry
    corrupted = []

    def colliding(self, i, table, shifted):
        table_at, flags = entry = real(self, i, table, shifted)
        if (not corrupted and self.presentation.gog.graph.vertices[i] == "P"
                and set(table) != {self.group.identity} and len(set(flags)) > 1):
            entry = (table_at, (flags[0],) * len(flags))
            self._entries[i][table, shifted] = entry
            corrupted.append(entry)
        return entry

    monkeypatch.setattr(torsors._NaturalMaps, "_entry", colliding)
    assert_refuted(capsys, run([command, write(tmp_path, PATH_TO_A_TRIVIAL)]),
                   "restriction functor bijective on classes: False")
    assert len(corrupted) == 1


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
        # a null option, and a null or empty edge map, once raised a traceback
        ("descent-as", {**AS_DOC, "options": {"support_bound": None}}, [],
         "options.support_bound"),
        ("gog-homs", {**AMALGAM, "edge_maps": {"b1": {
            "to_point": None, "to_component": {"1": "3"}}}}, [], "edge_maps.b1"),
        ("gog-homs", {**AMALGAM, "edge_maps": {"b1": []}}, [], "edge_maps.b1"),
        # a bool or a fractional number is not an integer, nor a bool a field element
        ("descent-as", {"version": 1, "descent": {"artin_schreier": {**_AS_SPEC, "p": 2.9}}},
         [], "descent.artin_schreier"),
        ("index-bound", {**MINIMAL, "options": {"local_indices": {"P": 2.5, "U": 6}}}, [],
         "options.local_indices"),
        ("index-bound", {**MINIMAL, "options": {"local_indices": {"P": True, "U": 6}}}, [],
         "options.local_indices"),
        ("graph-check", {**MINIMAL, "groups": {"G": {"cyclic": 2.5}}}, [], "groups.G"),
        ("graph-check", {**MINIMAL, "groups": {"G": {"symmetric": True}}}, [], "groups.G"),
        ("graph-covers", {**MINIMAL, "options": {"degree": 2.9}}, [], "options.degree"),
        ("graph-check", {**MINIMAL, "version": 1.9}, [], "version"),
        ("gog-verify", {**CIRCLE, "options": {"test_group": "C2", "all_trees": "no"}}, [],
         "options.all_trees"),
        ("descent-kummer", {"version": 1, "descent": {"kummer": {
            **KUMMER_DOC["descent"]["kummer"], "truncation": 200.5}}}, [], "descent.kummer"),
        ("descent-kummer", {**KUMMER_DOC, "options": {"search_bound": True}}, [],
         "options.search_bound"),
        ("descent-as", {"version": 1, "descent": {"artin_schreier": {**_AS_SPEC, "alpha": True}}},
         [], "descent.artin_schreier"),
        # JSON's Infinity once escaped as an OverflowError traceback
        ("descent-as", {"version": 1, "descent": {"artin_schreier": {
            **_AS_SPEC, "p": float("inf")}}}, [], "descent.artin_schreier"),
        # a falsy value of the wrong type once read as an empty section
        ("graph-check", {"version": 1, "graph": []}, [], "graph"),
        ("graph-check", {"version": 1, "graph": 0}, [], "graph"),
        ("graph-check", {"version": 1, "graph": False}, [], "graph"),
        ("graph-check", {"version": 1, "graph": ""}, [], "graph"),
        ("descent-as", {**AS_DOC, "graph": []}, [], "graph"),
        ("gog-verify", {**CIRCLE, "groups": 0}, [], "groups"),
        ("gog-verify", {**CIRCLE, "options": False}, [], "options"),
        ("descent-as", {"version": 1, "descent": ""}, [], "descent"),
        ("gog-verify", {**CIRCLE, "edge_maps": []}, [], "edge_maps"),
        ("gog-homs", {**AMALGAM, "edge_maps": {"b1": {
            "to_point": [], "to_component": {"1": "3"}}}}, [], "edge_maps.b1.to_point"),
        # the boundary raises of an edge map and of a table group
        ("gog-homs", {**AMALGAM, "edge_maps": {"b1": {
            "to_point": {"1": "1"}, "to_component": {"1": "3"}}}}, [], "edge_maps.b1"),
        ("gog-homs", {**AMALGAM, "edge_maps": {"b1": {
            "to_point": {"0": "1", "1": "2"}, "to_component": {"1": "3"}}}}, [],
         "edge_maps.b1"),
        ("graph-check", {**MINIMAL, "groups": {"G": {"table": {
            "elements": ["e", "e"], "table": [["e", "e"], ["e", "e"]]}}}}, [], "groups.G"),
        ("graph-check", {**MINIMAL, "groups": {"G": {"table": {
            "elements": ["a", "b"], "table": [["a", "a"], ["a", "a"]]}}}}, [], "groups.G"),
        ("graph-check", {**MINIMAL, "groups": {"G": {"table": {
            "elements": ["e", "a"], "table": [["e", "a"], ["a", "z"]]}}}}, [], "groups.G"),
        # an edge map from outside the edge group, and into outside the vertex group
        ("gog-homs", {**AMALGAM, "edge_maps": {"b1": {
            "to_point": {"1": "2", "5": "1"}, "to_component": {"1": "3"}}}}, [],
         "edge_maps.b1"),
        ("gog-homs", {**AMALGAM, "edge_maps": {"b1": {
            "to_point": {"1": "9"}, "to_component": {"1": "3"}}}}, [], "edge_maps.b1"),
        ("graph-check", {**MINIMAL, "groups": {"C4": {"dihedral": 4}}}, [], "groups.C4"),
        ("graph-check", {**MINIMAL, "graph": {**MINIMAL["graph"], "edges": [
            ["b1", "P", "U"], ["b1", "P", "U"]]}}, [], "graph"),
        ("graph-check", {**MINIMAL, "graph": {**MINIMAL["graph"], "components": ["P", "U"]}},
         [], "graph"),
        ("index-bound", {**MINIMAL, "options": {"local_indices": [2, 6]}}, [],
         "options.local_indices"),
        ("gog-verify", {**CIRCLE, "options": {"test_group": "C3"}}, [], "options.test_group"),
    ],
    ids=["version-x", "as-no-p", "alpha-zz", "graph-list", "kummer-p4", "covers-degree0",
         "covers-degree-text", "graph-edges-int", "local-index-text", "local-index-zero",
         "alpha-den-zero", "kummer-terms0", "kummer-truncation-negative", "kummer-model-zz",
         "edge-map-text", "edge-map-side-list", "edge-end-list", "vertex-name-list",
         "vertex-group-list", "test-group-list", "groups-list", "options-list", "descent-list",
         "alpha-list", "vertex-declared-twice", "k1-degree-negative", "group-two-keys",
         "group-list", "edge-group-undefined", "k2-degree-40", "kummer-q-exp-40",
         "symmetric-9", "product-over-cap", "option-null", "edge-map-side-null",
         "edge-map-list", "as-p-fraction", "local-index-fraction", "local-index-bool",
         "cyclic-fraction", "symmetric-bool", "degree-fraction", "version-fraction",
         "all-trees-text", "kummer-truncation-fraction", "search-bound-bool", "alpha-bool",
         "as-p-infinity", "graph-empty-list", "graph-zero", "graph-false", "graph-empty-text",
         "unused-graph-empty-list", "groups-zero", "options-false", "descent-empty-text",
         "edge-maps-empty-list", "edge-map-side-empty-list", "edge-map-not-a-hom",
         "edge-map-moves-identity", "table-duplicate-labels", "table-no-identity",
         "table-entry-undeclared", "edge-map-from-outside", "edge-map-into-outside",
         "group-kind-unknown", "edge-name-twice", "point-and-component",
         "local-indices-list", "test-group-undefined"],
)
def test_malformed_values_are_input_errors(tmp_path, capsys, command, doc, flags, path):
    code = run([command, write(tmp_path, doc), *flags])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.err.startswith(f"input error: {path}: ")
    assert captured.out == ""


def test_null_sections_read_as_absent(tmp_path, capsys):
    # a null graph is refused like a missing one, not checked as an empty graph
    for doc in ({"version": 1}, {"version": 1, "graph": None}):
        assert run(["graph-check", write(tmp_path, doc)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", "input error: this command needs a 'graph' section\n")
    # null sections that a command does not use change nothing but the input
    # text and its digests
    outputs = []
    for doc in (AS_DOC, {**AS_DOC, "graph": None, "groups": None, "edge_maps": None,
                         "options": None}):
        assert run(["descent-as", write(tmp_path, doc)]) == EXIT_PASS
        outputs.append([line for line in capsys.readouterr().out.split("\n")
                        if not line.startswith("input:") and "digest" not in line
                        and "timing" not in line])
    assert outputs[0] == outputs[1]


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


def test_input_errors_without_a_path(tmp_path, capsys):
    for argv, line in (
        (["graph-check", write(tmp_path, [], "list.json")], "top level must be an object"),
        (["gog-verify", write(tmp_path, CIRCLE), "--group", "C9"],
         "test group 'C9' is not defined in 'groups'"),
        # graphs.index_bound takes only what this boundary admitted: never no index
        (["index-bound", write(tmp_path, {**MINIMAL, "options": {"local_indices": {}}})],
         "index-bound needs options.local_indices"),
    ):
        assert run(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", f"input error: {line}\n")


def test_a_group_that_fails_to_build_is_reported_once(tmp_path, capsys):
    doc = json.loads(json.dumps(AMALGAM))
    doc["groups"]["C4"] = {"dihedral": 4}
    doc["graph"]["edges"][0]["group"] = "C4"
    doc["options"]["test_group"] = "C4"
    assert run(["gog-verify", write(tmp_path, doc)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == (
        "", "input error: groups.C4: unknown group descriptor kind 'dihedral'\n")


_AS_RATIONAL_SPEC = {"p": 2, "rational": True, "e": 1}


@pytest.mark.parametrize(
    "command, descent, line",
    [
        # a non-boolean flag once selected the GF(q)(s) model by truthiness
        ("descent-as", {"artin_schreier": {**_AS_SPEC, "rational": "no"}},
         "descent.artin_schreier: rational: not a boolean: 'no'"),
        ("descent-as", {"artin_schreier": {**_AS_SPEC, "rational": 1}},
         "descent.artin_schreier: rational: not a boolean: 1"),
        ("descent-as", {"artin_schreier": {**_AS_SPEC, "rational": [0]}},
         "descent.artin_schreier: rational: not a boolean: [0]"),
        # a string once read digit by digit, and an object by its keys
        ("descent-as", {"artin_schreier": {
            **_AS_RATIONAL_SPEC, "alpha": {"num": "11", "den": [1]}}},
         "descent.artin_schreier: num: not a list: '11'"),
        ("descent-as", {"artin_schreier": {
            **_AS_RATIONAL_SPEC, "alpha": {"num": {"1": 0, "0": 5}, "den": [1]}}},
         "descent.artin_schreier: num: not a list: {'1': 0, '0': 5}"),
        ("descent-as", {"artin_schreier": {
            **_AS_RATIONAL_SPEC, "alpha": {"num": [1], "den": "1"}}},
         "descent.artin_schreier: den: not a list: '1'"),
        ("descent-kummer", {"kummer": {"p": 2, "model": "base-ring", "gbar_coeffs": "11"}},
         "descent.kummer: gbar_coeffs: not a list: '11'"),
    ],
    ids=["rational-text", "rational-int", "rational-list", "num-text", "num-object",
         "den-text", "gbar-coeffs-text"],
)
def test_flags_and_coefficient_lists_must_have_their_json_type(tmp_path, capsys, command,
                                                               descent, line):
    doc = {"version": 1, "descent": descent}
    assert run([command, write(tmp_path, doc)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"input error: {line}\n")


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
        "the search space |k1|^25 with |k1| = 5 passes the cap of 1000000: search not run"
    )


_CIRCLE_25 = json.dumps({
    "version": 1,
    "graph": {"points": ["P"], "components": ["U"],
              "edges": [[f"b{i}", "P", "U"] for i in range(1, 26)]},
    "groups": {"S3": {"symmetric": 3}},
    "options": {"test_group": "S3"},
})

# a tree of groups, so |G|^rank = 1: one point joined to 20 components, C2
# at every vertex, into C2 (2^21 homs)
_TREE_20 = json.dumps({
    "version": 1,
    "graph": {"points": [{"name": "P", "group": "C2"}],
              "components": [{"name": f"U{i}", "group": "C2"} for i in range(1, 21)],
              "edges": [[f"b{i}", "P", f"U{i}"] for i in range(1, 21)]},
    "groups": {"C2": {"cyclic": 2}},
    "options": {"test_group": "C2"},
})

# K(10, 10) with trivial groups: C(100, 19) edge subsets for --all-trees
_K_10_10 = json.dumps({
    "version": 1,
    "graph": {"points": [f"P{i}" for i in range(10)], "components": [f"U{j}" for j in range(10)],
              "edges": [[f"b{i}.{j}", f"P{i}", f"U{j}"] for i in range(10) for j in range(10)]},
    "groups": {"C1": {"cyclic": 1}},
    "options": {"test_group": "C1", "all_trees": True},
})

# one branch with C2^7 at the point, into C2^7: 2^49 vertex homs
_C2_POWER_7 = json.dumps({
    "version": 1,
    "graph": {"points": [{"name": "P", "group": "E"}], "components": ["U"],
              "edges": [["b1", "P", "U"]]},
    "groups": {"E": {"product": [{"cyclic": 2}] * 7}},
    "options": {"test_group": "E"},
})


def _path(k, order):
    """A path of k points and k components, P1 - U1 - P2 - ... - Uk, with
    the trivial group everywhere, into the cyclic group of that order: a
    tree of trivial groups, so one hom, with one generator per vertex and
    one per branch."""
    edges = [[f"a{i}", f"P{i}", f"U{i}"] for i in range(1, k + 1)]
    edges += [[f"b{i}", f"P{i + 1}", f"U{i}"] for i in range(1, k)]
    return json.dumps({
        "version": 1,
        "graph": {"points": [f"P{i}" for i in range(1, k + 1)],
                  "components": [f"U{i}" for i in range(1, k + 1)], "edges": edges},
        "groups": {"G": {"cyclic": order}},
        "options": {"test_group": "G"},
    })


# alpha = 1 + 2s over GF(3)(s): transcendental over the constants
_AS_RATIONAL = json.dumps({"version": 1, "descent": {"artin_schreier": {
    "p": 3, "rational": True, "e": 1, "alpha": {"num": [1, 2], "den": [1]}}}})


def _as_rational_fails(support):
    return {"law": "artin-schreier-oracle", "verdict": "FAILS-WITHIN-BOUNDS", "beta": None,
            "gamma": None, "candidates_tried": 3**support, "support_bound": support,
            "note": "no candidate beta admits a solution (each refusal is exact)"}


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
        # 5 * 10^7 rows per candidate: refused before the search
        ("descent-kummer", json.dumps({"version": 1, "descent": {"kummer": {
            **KUMMER_DOC["descent"]["kummer"], "truncation": 5 * 10**7}}}), EXIT_INCONCLUSIVE,
         {"verdict": "INCONCLUSIVE", "candidates_tried": 0}),
        # 19,531 candidates of 49 unknowns each: stopped when the work budget is spent
        ("descent-kummer", json.dumps({"version": 1, "descent": {"kummer": {
            "p": 5, "model": "transcendental", "terms": 4, "truncation": 200}},
            "options": {"search_bound": 6}}), EXIT_INCONCLUSIVE,
         {"verdict": "INCONCLUSIVE", "candidates_tried": 51}),
        # the hom search budget, where |G|^rank refuses nothing
        ("gog-homs", _TREE_20, EXIT_INPUT_ERROR, None),
        ("gog-verify", _TREE_20, EXIT_INPUT_ERROR, None),
        ("gog-homs", _C2_POWER_7, EXIT_INPUT_ERROR, None),
        ("gog-verify", _C2_POWER_7, EXIT_INPUT_ERROR, None),
        ("torsor-verify", _C2_POWER_7, EXIT_INPUT_ERROR, None),
        ("gog-verify", _K_10_10, EXIT_INPUT_ERROR, None),
        # a tree has no cover past degree 1, and none is built
        ("graph-covers", json.dumps({**MINIMAL, "options": {"degree": 2**31}}), EXIT_PASS,
         {"count": 0}),
        # (bound + 1)^2 unknowns has too many digits to print
        ("descent-kummer", json.dumps({**KUMMER_DOC, "options": {"search_bound": 10**4000}}),
         EXIT_INCONCLUSIVE, {"verdict": "INCONCLUSIVE", "candidates_tried": 0}),
        # 3^9 and 3^11 candidates over GF(3)(s), decided from 3^3 free choices each
        ("descent-as", _AS_RATIONAL, EXIT_PASS, {"oracle": _as_rational_fails(9)}),
        ("descent-as", json.dumps({**json.loads(_AS_RATIONAL), "options": {"support_bound": 11}}),
         EXIT_PASS, {"oracle": _as_rational_fails(11)}),
        # 999 generators: the hom search is as deep as that, not the call stack
        ("gog-homs", _path(250, 2), EXIT_PASS, {"count": 1}),
        ("gog-verify", _path(250, 2), EXIT_PASS, {"passed": True, "pi1_count": 1}),
        # 1,040 vertices: so is the join over them
        ("gog-verify", _path(520, 1), EXIT_PASS, {"passed": True, "pi1_count": 1}),
        ("torsor-verify", _path(520, 1), EXIT_PASS, {"passed": True, "global_raw": 1}),
        # nested past the JSON parser's recursion limit
        ("graph-check", "[" * 100_000 + "]" * 100_000, EXIT_INPUT_ERROR, None),
    ],
    ids=["long-integer", "index-product", "torsor-gauge", "pushout-gauge", "homs-bound",
         "verify-bound", "kummer-terms", "kummer-base-ring-coeffs", "kummer-truncation",
         "kummer-p5-bound6", "homs-tree20", "verify-tree20", "homs-c2-power-7",
         "verify-c2-power-7", "torsor-c2-power-7", "all-trees-k10-10", "covers-tree-huge-degree",
         "kummer-bound-4001-digits", "as-rational-support-9", "as-rational-support-11",
         "homs-path-250", "verify-path-250", "verify-path-520", "torsor-path-520",
         "nested-100000"],
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


# a child that runs one command and prints its exit code and peak RSS in KB;
# the child's own RUSAGE_CHILDREN sees only that one command
_PEAK_RSS_CHILD = (
    "import resource, subprocess, sys\n"
    "code = subprocess.run([sys.executable, '-m', 'vkpatch.cli', *sys.argv[1:]],"
    " stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode\n"
    "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


def test_kummer_refused_past_the_budget_builds_no_dense_gbar(tmp_path, capsys):
    """A gbar of 10^9 terms cut at a truncation the work budget refuses is
    kept as its 2,237 square exponents, so the refusal costs no list of
    `truncation` coefficients (it peaked at 94 MB when gbar was dense)."""
    path = write(tmp_path, {"version": 1, "descent": {"kummer": {
        "p": 2, "model": "transcendental", "terms": 10**9, "truncation": 5 * 10**6}}})
    assert run(["descent-kummer", path]) == EXIT_INCONCLUSIVE
    block = json.loads(capsys.readouterr().out.partition("-- machine --\n")[2])
    assert (block["verdict"], block["candidates_tried"]) == ("INCONCLUSIVE", 0)
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(vkpatch.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_CHILD, "descent-kummer", path],
        capture_output=True, text=True, timeout=30, env=env,
    )
    code, peak_kb = map(int, child.stdout.split())
    assert code == EXIT_INCONCLUSIVE
    assert peak_kb <= 25 * 1024, f"peak RSS {peak_kb} KB"


def test_cli_import_loads_no_introspection_modules():
    # each command runs in a fresh process, so whatever this import loads is
    # paid on every call; dataclasses alone would pull in the first five.
    # The child runs without site (-S), whose .pth files may already have
    # imported any of these and so hidden the import
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import vkpatch.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(vkpatch.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
        env=env,
    )
    assert child.returncode == 0, child.stderr
    loaded = set(child.stdout.split())
    assert "vkpatch.cli" in loaded
    # gc is imported by main, the one caller that switches the collector off;
    # argparse loads gettext and locale, and hashlib loads OpenSSL
    assert not loaded & {"dataclasses", "inspect", "dis", "tokenize", "ast", "gc", "argparse",
                         "gettext", "locale", "hashlib", "_hashlib", "typing"}


def test_run_leaves_the_cyclic_collector_as_it_found_it(tmp_path, capsys):
    path = write(tmp_path, CIRCLE)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert run(["torsor-verify", path]) == EXIT_PASS
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


class _Exited(Exception):
    """Raised by a stand-in for ``os._exit``, so that ``main`` returns to the test."""


class _RecordedStream(io.StringIO):
    """A text stream that keeps what had been written at its last flush,
    or whose every flush fails as on a pipe the reader closed."""

    def __init__(self, broken=False):
        super().__init__()
        self.broken = broken
        self.flushed = None

    def flush(self):
        if self.broken:
            raise BrokenPipeError(32, "Broken pipe")
        self.flushed = self.getvalue()


def _main_with_streams(monkeypatch, argv, out, err):
    """Run ``main`` on ``argv`` writing to ``out`` and ``err``; the exit
    status ``os._exit`` was given, with the collector state and what each
    stream had flushed at that point, or None when it was not called."""
    monkeypatch.setattr(sys, "argv", ["vkpatch", *argv])
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    exits = []

    def exit_now(code):
        exits.append((code, gc.isenabled(), out.flushed, err.flushed))
        raise _Exited

    monkeypatch.setattr(os, "_exit", exit_now)
    was = gc.isenabled()
    try:
        main()
    except _Exited:
        return exits[0]
    finally:
        (gc.enable if was else gc.disable)()
    raise AssertionError("main returned")


def test_main_runs_without_the_cyclic_collector(tmp_path, monkeypatch):
    out, err = _RecordedStream(), _RecordedStream()
    code, collecting, flushed_out, flushed_err = _main_with_streams(
        monkeypatch, ["torsor-verify", write(tmp_path, CIRCLE)], out, err)
    assert code == EXIT_PASS
    assert not collecting
    assert "verdict: PASS" in out.getvalue()
    # the process ends without teardown, so both streams were flushed first
    assert (flushed_out, flushed_err) == (out.getvalue(), "")


def test_main_exits_through_the_interpreter_when_stdout_cannot_be_flushed(tmp_path,
                                                                          monkeypatch):
    out, err = _RecordedStream(broken=True), _RecordedStream()
    with pytest.raises(SystemExit) as stop:
        _main_with_streams(monkeypatch, ["graph-check", write(tmp_path, MINIMAL)], out, err)
    assert stop.value.code == EXIT_PASS
    assert "verdict: PASS" in out.getvalue()


def _without_timing(text):
    return [line for line in text.split("\n")
            if not line.startswith("timing: ") and not line.startswith('  "timing_ms": ')]


@pytest.mark.parametrize(
    "command, doc, exit_code",
    [
        ("graph-check", MINIMAL, EXIT_PASS),
        # P2 has no edge
        ("graph-check", {**MINIMAL, "graph": {**MINIMAL["graph"], "points": ["P", "P2"]}},
         EXIT_FAIL),
        # 5 * 10^7 rows per candidate: refused before the search
        ("descent-kummer", {"version": 1, "descent": {"kummer": {
            **KUMMER_DOC["descent"]["kummer"], "truncation": 5 * 10**7}}}, EXIT_INCONCLUSIVE),
        ("gog-verify", {**CIRCLE, "options": {"test_group": "C3"}}, EXIT_INPUT_ERROR),
        ("export-dot", CIRCLE, EXIT_PASS),
    ],
    ids=["pass", "fail", "inconclusive", "input-error", "export-dot"],
)
def test_a_child_prints_what_run_prints(tmp_path, capsys, command, doc, exit_code):
    """``main`` ends the process without teardown; every byte ``run`` writes
    still reaches the reader, and the exit status is the one ``run`` returned."""
    argv = [command, write(tmp_path, doc)]
    dot = tmp_path / "out.dot"
    if command == "export-dot":
        argv += ["--dot-output", str(dot)]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(vkpatch.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-m", "vkpatch.cli", *argv],
                           capture_output=True, text=True, timeout=30, env=env)
    child_dot = dot.read_text() if command == "export-dot" else None
    assert run(argv) == child.returncode == exit_code
    captured = capsys.readouterr()
    assert _without_timing(child.stdout) == _without_timing(captured.out)
    assert child.stderr == captured.err
    if child_dot is not None:
        machine = json.loads(captured.out.partition("-- machine --\n")[2])
        assert child_dot == dot.read_text() == machine["dot"]


def _child(argv, stdin=b""):
    """A ``python -m vkpatch.cli`` child on argv, fed the stdin bytes."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(vkpatch.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "vkpatch.cli", *argv], input=stdin,
                          capture_output=True, timeout=30, env=env)


@pytest.mark.parametrize("via", ["path", "stdin"])
def test_a_document_that_is_not_utf8_is_an_input_error(tmp_path, via):
    """Byte 0xff decodes as no UTF-8: one input-error line and exit 3,
    through a path and on stdin alike."""
    data = b'{"version": 1, "graph": {"points": ["P\xff"], "components": ["U"]}}'
    path = tmp_path / "input.json"
    path.write_bytes(data)
    child = (_child(["graph-check", str(path)]) if via == "path"
             else _child(["graph-check", "-"], data))
    assert child.returncode == EXIT_INPUT_ERROR
    assert child.stdout == b""
    assert child.stderr.decode() == ("input error: 'utf-8' codec can't decode byte 0xff "
                                     "in position 38: invalid start byte\n")


def test_a_crlf_document_has_the_digest_of_its_bytes_on_both_paths(tmp_path):
    """The input digest is the sha256 of the bytes read, carriage returns
    included, whether the document comes through a path or on stdin."""
    data = json.dumps(MINIMAL, indent=1).replace("\n", "\r\n").encode()
    path = tmp_path / "input.json"
    path.write_bytes(data)
    line = f"input: sha256:{hashlib.sha256(data).hexdigest()}\n"
    for child in (_child(["graph-check", str(path)]), _child(["graph-check", "-"], data)):
        assert child.returncode == EXIT_PASS
        assert line in child.stdout.decode()


def _digest_inputs() -> dict[str, bytes]:
    return {
        "empty": b"",
        "crlf": json.dumps(MINIMAL, indent=1).replace("\n", "\r\n").encode(),
        "random-1mb": random.Random(31).randbytes(1 << 20),
    }


def _both_digests(data: bytes) -> tuple[str, str]:
    """The input digest of ``data`` and the deterministic digest of a
    report whose machine block carries ``data`` as latin-1 text."""
    machine = {"law": "digest-oracle", "data": data.decode("latin-1"), "timing_ms": 1.0}
    report = ReportDocument("graph-check", input_digest(data), "PASS", [], machine, [])
    return report.input_sha, report.deterministic_digest()


@pytest.mark.parametrize("name", list(_digest_inputs()))
def test_the_digests_are_hashlib_sha256(name):
    """The interpreter's built-in SHA-256 that ``reports`` uses gives
    hashlib's digests: of the input bytes, and of the digest payload."""
    assert vkpatch.reports.sha256.__module__ in ("_sha2", "_sha256")
    data = _digest_inputs()[name]
    payload = {"command": "graph-check", "input": hashlib.sha256(data).hexdigest(),
               "law": "digest-oracle", "verdict": "PASS",
               "machine": {"law": "digest-oracle", "data": data.decode("latin-1")}}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert _both_digests(data) == (hashlib.sha256(data).hexdigest(),
                                   hashlib.sha256(blob).hexdigest())


def test_the_hashlib_fallback_gives_the_same_digests(tmp_path):
    """A child whose interpreter has neither built-in SHA-256 module falls
    back to hashlib, with the same digests as ``_both_digests`` here."""
    inputs = _digest_inputs()
    for name, data in inputs.items():
        (tmp_path / name).write_bytes(data)
    code = (
        "import hashlib, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from vkpatch.reports import ReportDocument, input_digest, sha256\n"
        "print(sha256 is hashlib.sha256)\n"
        "for path in sys.argv[1:]:\n"
        "    with open(path, 'rb') as fh:\n"
        "        data = fh.read()\n"
        "    machine = {'law': 'digest-oracle', 'data': data.decode('latin-1'),\n"
        "               'timing_ms': 1.0}\n"
        "    report = ReportDocument('graph-check', input_digest(data), 'PASS', [], machine, [])\n"
        "    print(report.input_sha, report.deterministic_digest())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(vkpatch.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", code, *(str(tmp_path / name) for name in inputs)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert child.returncode == 0, child.stderr
    fell_back, *digests = child.stdout.splitlines()
    assert fell_back == "True"
    assert digests == [" ".join(_both_digests(data)) for data in inputs.values()]


@pytest.mark.parametrize("doc, lone", [
    ({**MINIMAL, "graph": {**MINIMAL["graph"], "edges": [["\ud800", "P", "U"]]}}, "\ud800"),
    ({**MINIMAL, "\udc00": 1}, "\udc00"),
], ids=["value", "key"])
def test_a_lone_surrogate_is_an_input_error(tmp_path, doc, lone):
    """A ``\\ud800`` escape with no partner is well-formed JSON but no UTF-8
    text: one input-error line and exit 3, key or value."""
    child = _child(["export-dot", write(tmp_path, doc)])
    assert child.returncode == EXIT_INPUT_ERROR
    assert child.stdout == b""
    assert child.stderr.decode() == f"input error: string {lone!r} holds a lone surrogate\n"


def _circle(branches):
    edges = [[f"b{i}", "P", "U"] for i in range(1, branches + 1)]
    return {"version": 1, "graph": {"points": ["P"], "components": ["U"], "edges": edges}}


@pytest.mark.parametrize(
    "command, doc, unbuffered",
    [
        # block-buffered, as stdout is on a pipe: the report is refused at
        # main's flush, after run has returned
        ("graph-check", MINIMAL, False),
        # unbuffered, the write inside run reaches the pipe at once
        ("graph-check", _circle(2), True),
        # a report of about 37 KB passes the 8 KB stream buffer, so run's write
        # reaches the pipe too
        ("export-dot", _circle(399), False),
    ],
    ids=["flush", "unbuffered-write", "long-write"],
)
def test_a_child_whose_reader_closed_the_pipe_exits_120_without_traceback(
        tmp_path, command, doc, unbuffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(pathlib.Path(vkpatch.__file__).parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "vkpatch.cli", command, write(tmp_path, doc)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=30, env=env)
    finally:
        os.close(write_end)
    assert child.returncode == 120
    assert "Traceback" not in child.stderr
    if command == "graph-check" and not unbuffered:
        # the interpreter's own report of the unflushed stream: the first
        # wording up to Python 3.12, the second from 3.13
        assert child.stderr.startswith(
            ("Exception ignored in: <_io.TextIOWrapper name='<stdout>'",
             "Exception ignored on flushing sys.stdout:"))
        assert "BrokenPipeError" in child.stderr


def test_descent_as_support_bound_far_over_the_cap_is_inconclusive(tmp_path, capsys):
    code = run(["descent-as", write(tmp_path, AS_P5_DOC), "--support-bound", "1000000000"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "searched 0 candidate beta (support up to t^-1000000000)" in out
    assert "oracle inconclusive; criterion verdict stands" in out


def test_descent_as_answers_alike_for_alpha_and_its_frobenius_image(tmp_path, capsys):
    """k1 is stable under Frobenius, so alpha and alpha^p are in k1 together.
    Over k1 = GF(p), Frobenius on the coefficients maps a witness (beta,
    gamma) for alpha to (beta, gamma^p) for alpha^p, so the oracle finds
    the same least beta after as many candidates."""
    rng = random.Random(29)
    towers = ((2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 4), (3, 1, 2), (3, 1, 3), (5, 1, 2))
    verdicts, moved = set(), 0
    for _ in range(100):
        p, d1, d2 = rng.choice(towers)
        F = FiniteField(p, d2)
        alpha = rng.randrange(1, F.q)
        support = str(rng.randint(4, 8))
        blocks = []
        for a in (alpha, F.pow(alpha, p)):
            doc = {"version": 1, "descent": {"artin_schreier": {
                "p": p, "k1_degree": d1, "k2_degree": d2, "alpha": a}}}
            assert run(["descent-as", write(tmp_path, doc), "--support-bound", support]) == \
                EXIT_PASS
            blocks.append(json.loads(capsys.readouterr().out.partition("-- machine --\n")[2]))
        first, second = blocks
        assert first["verdict"] == second["verdict"], (p, d1, d2, alpha)
        assert first["oracle"]["verdict"] == second["oracle"]["verdict"], (p, d1, d2, alpha)
        if d1 == 1:
            assert first["oracle"]["candidates_tried"] == second["oracle"]["candidates_tried"]
        verdicts.add(first["verdict"])
        moved += F.pow(alpha, p) != alpha
    assert verdicts == {"DESCENDS", "FAILS"} and moved > 0


def test_descent_as_exit_and_agreement(tmp_path, capsys):
    code = run(["descent-as", write(tmp_path, AS_DOC)])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "verdict: FAILS" in out
    assert "criterion/oracle agreement: True" in out


def test_descent_as_exits_1_when_criterion_and_oracle_disagree(tmp_path, capsys,
                                                                monkeypatch):
    """The criterion made to claim descent where the oracle finds no beta."""
    from vkpatch import cli
    from vkpatch.descent import DESCENDS

    real = cli.as_descends_galois

    def descends(instance):
        lines, machine = real(instance)
        return lines, {**machine, "verdict": DESCENDS}

    monkeypatch.setattr(cli, "as_descends_galois", descends)
    code = run(["descent-as", write(tmp_path, AS_DOC)])
    out, err = capsys.readouterr()
    assert code == EXIT_FAIL
    assert "criterion/oracle agreement: False" in out
    assert err == ""


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


@pytest.mark.parametrize("target", ["missing/graph.dot", "."], ids=["no-directory", "directory"])
def test_export_dot_to_an_unwritable_path_is_an_input_error(tmp_path, capsys, target):
    code = run(["export-dot", write(tmp_path, CIRCLE), "--dot-output", str(tmp_path / target)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.err.startswith("input error: --dot-output: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_integral_numbers_are_read_as_before(tmp_path, capsys):
    """A float with an integral value, or an integer string, still reads as
    that integer: the same report as the JSON integer gives."""
    for command, plain, variant in (
        ("descent-as", AS_DOC, {"version": 1.0, "descent": {"artin_schreier": {
            **_AS_SPEC, "p": 2.0, "k2_degree": "2"}}}),
        ("graph-covers", {**CIRCLE, "options": {"degree": 3}},
         {**CIRCLE, "groups": {"C2": {"cyclic": 2.0}}, "options": {"degree": 3.0}}),
        ("index-bound", {**MINIMAL, "options": {"local_indices": {"P": 4, "U": 6}}},
         {**MINIMAL, "options": {"local_indices": {"P": 4.0, "U": "6"}}}),
    ):
        outputs = []
        for doc in (plain, variant):
            assert run([command, write(tmp_path, doc)]) == EXIT_PASS
            out = capsys.readouterr().out
            # the input text, and so its digests, differ; nothing else does
            outputs.append([line for line in out.split("\n") if not line.startswith("input:")
                            and "digest" not in line and "timing" not in line])
        assert outputs[0] == outputs[1], command


def test_unknown_command_is_input_error(capsys):
    assert run(["no-such-command"]) == EXIT_INPUT_ERROR
    capsys.readouterr()


# -- command line ------------------------------------------------------------------

_COMMANDS = ", ".join(_HANDLERS)


@pytest.mark.parametrize("argv, expected", [
    # refused: exit 3, exactly this one line on stderr, nothing on stdout
    ([], f"input error: no command; expected one of: {_COMMANDS}"),
    (["--degree", "3"], f"input error: no command; expected one of: {_COMMANDS}"),
    (["no-such-command", "DOC"],
     f"input error: unknown command 'no-such-command'; expected one of: {_COMMANDS}"),
    (["graph-check", "DOC", "--frobnicate"], "input error: unknown flag: '--frobnicate'"),
    (["gog-verify", "DOC", "--group"], "input error: --group needs a value"),
    (["gog-verify", "DOC", "--group", "--all-trees"], "input error: --group needs a value"),
    (["graph-covers", "DOC", "--degree", "two"], "input error: --degree: not an integer: 'two'"),
    (["graph-covers", "DOC", "--degree", "2.5"], "input error: --degree: not an integer: '2.5'"),
    (["graph-covers", "DOC", "--degree="], "input error: --degree: not an integer: ''"),
    (["descent-as", "DOC", "--support-bound", "x"],
     "input error: --support-bound: not an integer: 'x'"),
    (["graph-check", "DOC", "DOC"], "input error: more than one input path: {doc!r}, {doc!r}"),
    (["gog-verify", "DOC", "--all-trees=1"],
     "input error: --all-trees takes no value: '--all-trees=1'"),
    # an abbreviation is not its flag
    (["graph-covers", "DOC", "--deg", "3"], "input error: unknown flag: '--deg'"),
    (["graph-check", "DOC", "-x"], "input error: unknown flag: '-x'"),
    (["graph-check", "--", "DOC"], "input error: unknown flag: '--'"),
    # a negative integer is a value, and the command refuses it
    (["graph-covers", "DOC", "--degree", "-1"],
     "input error: degree: cover degree must be >= 1, got -1"),
    # accepted: the same exit and report, apart from timing, as this argv
    (["graph-covers", "DOC", "--degree=3"], ["graph-covers", "DOC", "--degree", "3"]),
    # a repeated flag keeps its last value
    (["graph-covers", "DOC", "--degree", "2", "--degree", "3"],
     ["graph-covers", "DOC", "--degree", "3"]),
    (["gog-verify", "DOC", "--all-trees", "--all-trees"], ["gog-verify", "DOC", "--all-trees"]),
    # flags go anywhere: before the path, and before the command
    (["graph-covers", "--degree", "3", "DOC"], ["graph-covers", "DOC", "--degree", "3"]),
    (["--degree", "3", "graph-covers", "DOC"], ["graph-covers", "DOC", "--degree", "3"]),
    (["gog-verify", "--group=C2", "--all-trees", "DOC"],
     ["gog-verify", "DOC", "--group", "C2", "--all-trees"]),
], ids=["no-command", "flags-only", "unknown-command", "unknown-flag", "group-no-value",
        "group-then-flag", "degree-word", "degree-fraction", "degree-empty",
        "support-bound-word", "two-paths", "all-trees-value", "abbreviation", "short-flag",
        "double-dash", "degree-negative", "degree-equals", "repeated-last-wins", "repeated-switch",
        "flag-before-path", "flag-before-command", "equals-before-path"])
def test_the_command_line_contract(tmp_path, capsys, argv, expected):
    doc = write(tmp_path, CIRCLE)
    code = run([doc if word == "DOC" else word for word in argv])
    captured = capsys.readouterr()
    if isinstance(expected, str):
        assert (code, captured.out) == (EXIT_INPUT_ERROR, "")
        assert captured.err == expected.format(doc=doc) + "\n"
        return
    assert captured.err == ""
    assert run([doc if word == "DOC" else word for word in expected]) == code
    assert _without_timing(captured.out) == _without_timing(capsys.readouterr().out)


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["graph-check", "-h"], ["graph-check", "DOC", "--help"],
    ["no-such-command", "--frobnicate", "-h"],
], ids=["short", "long", "after-command", "after-path", "beside-errors"])
def test_help_is_the_usage_on_stderr_and_exit_3(tmp_path, capsys, argv):
    """``-h`` or ``--help`` anywhere prints the usage and every command on
    stderr, and runs nothing: like any line that runs no command, exit 3."""
    doc = write(tmp_path, CIRCLE)
    assert run([doc if word == "DOC" else word for word in argv]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: vkpatch COMMAND [INPUT | -] [--group NAME] ")
    assert captured.err.endswith(f"\ncommands: {_COMMANDS}\n")


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


def _subdivided(gog, b):
    """The graph of groups with branch b, from P to U, replaced by the path
    P - W - Q - U: W and Q carry b's edge group, and every new map is the
    identity."""
    from vkpatch.gog import GraphOfFiniteGroups
    from vkpatch.graphs import ReductionGraph
    from vkpatch.groups import GroupHom

    graph = gog.graph
    p, u = graph.point_end(b), graph.component_end(b)
    w, q, bq, bu = f"W{b}", f"Q{b}", f"{b}q", f"{b}u"
    edge = gog.edge_groups[b]
    identity = GroupHom(edge, edge, range(edge.order))
    to_p, to_u = gog.edge_maps[b]["to_point"], gog.edge_maps[b]["to_component"]
    return GraphOfFiniteGroups(
        ReductionGraph([*graph.points, q], [*graph.components, w],
                       [*[e for e in graph.edges if e[0] != b], (b, p, w), (bq, q, w), (bu, q, u)]),
        {**gog.vertex_groups, w: edge, q: edge},
        {**gog.edge_groups, bq: edge, bu: edge},
        {**gog.edge_maps,
         b: {"to_point": to_p, "to_component": identity},
         bq: {"to_point": identity, "to_component": identity},
         bu: {"to_point": identity, "to_component": to_u}},
    )


def test_subdividing_a_branch_keeps_the_homs_and_the_classes(tmp_path, capsys):
    """Subdivision amalgamates over the edge group with itself twice, so pi1
    is unchanged: ``gog-homs`` keeps its count and classes, and
    ``pushout-verify`` its classes and verdict, while its raw global side
    gains two markings, a factor |G|^2.  On the circle with S3 and C2 and
    one C2 branch, into S3, that is 60 homs, 13 classes and global_raw 360
    becoming 12,960; then on seeded random instances."""
    from catalog import add_extra_edges, circle_graph, random_gog, random_tree_graph
    from vkpatch.gog import GraphOfFiniteGroups
    from vkpatch.groups import GroupHom, cyclic, symmetric

    c1, c2, s3 = cyclic(1), cyclic(2), symmetric(3)
    involution = next(x for x in range(s3.order) if x != s3.identity and s3.mul(x, x) == s3.identity)
    circle = GraphOfFiniteGroups(
        circle_graph(), {"P": s3, "U": c2}, {"b1": c2, "b2": c1},
        {"b1": {"to_point": GroupHom(c2, s3, [s3.identity, involution]),
                "to_component": GroupHom(c2, c2, range(2))},
         "b2": {"to_point": GroupHom.trivial(c1, s3), "to_component": GroupHom.trivial(c1, c2)}},
    )
    cases = [(circle, "b1", {"symmetric": 3}, 6)]
    rng = random.Random(37)
    for _ in range(8):
        graph = random_tree_graph(rng, max_vertices=3)
        if rng.random() < 0.5:
            graph = add_extra_edges(rng, graph, 1)
        gog = random_gog(rng, graph, vertex_order_cap=6, edge_order_cap=4)
        descriptor, order = rng.choice([({"cyclic": 2}, 2), ({"cyclic": 3}, 3),
                                        ({"symmetric": 3}, 6)])
        cases.append((gog, rng.choice(gog.graph.edge_names()), descriptor, order))

    def machines(gog, descriptor):
        doc = _gog_as_document(gog)
        doc["groups"]["T"] = descriptor
        doc["options"]["test_group"] = "T"
        path = write(tmp_path, doc)
        blocks = []
        for command in ("gog-homs", "pushout-verify"):
            assert run([command, path]) == EXIT_PASS
            blocks.append(json.loads(capsys.readouterr().out.partition("-- machine --\n")[2]))
        return blocks

    seen = []
    for gog, b, descriptor, order in cases:
        (homs, pushout), (sub_homs, sub_pushout) = (machines(gog, descriptor),
                                                    machines(_subdivided(gog, b), descriptor))
        seen.append((homs["count"], homs["conjugacy_classes"], pushout["global_raw"],
                     sub_pushout["global_raw"]))
        for key in ("count", "conjugacy_classes"):
            assert sub_homs[key] == homs[key]
        for key in ("global_classes", "fiber_classes", "passed"):
            assert sub_pushout[key] == pushout[key]
        assert sub_pushout["global_raw"] == pushout["global_raw"] * order**2
    assert seen[0] == (60, 13, 360, 12_960)


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


# -- structural fuzz ------------------------------------------------------------

# the input document of the README, every section filled
FULL_DOC = {
    "version": 1,
    "graph": {
        "points": [{"name": "P", "group": "C4"}],
        "components": [{"name": "U", "group": "C6"}],
        "edges": [{"name": "b1", "point": "P", "component": "U", "group": "C2"},
                  ["b2", "P", "U"]],
    },
    "groups": {"C2": {"cyclic": 2}, "C4": {"cyclic": 4}, "C6": {"cyclic": 6},
               "S3": {"symmetric": 3}, "V4": {"product": [{"cyclic": 2}, {"cyclic": 2}]},
               "T": {"table": {"elements": ["e", "a"], "table": [["e", "a"], ["a", "e"]]}}},
    "edge_maps": {"b1": {"to_point": {"1": "2"}, "to_component": {"1": "3"}}},
    "descent": {
        "artin_schreier": {"p": 2, "k1_degree": 1, "k2_degree": 2, "alpha": "w"},
        "kummer": {"p": 2, "model": "transcendental", "terms": 4, "truncation": 200},
    },
    "options": {"test_group": "C2", "degree": 2, "support_bound": 4, "all_trees": False,
                "local_indices": {"P": 4, "U": 6}},
}

# documents like the benchmark's, each small enough to answer in well under
# a second when unchanged
FUZZ_BASES = (
    FULL_DOC,
    CIRCLE,
    AMALGAM,
    {**AS_DOC, "options": {"support_bound": 6}},
    {"version": 1, "descent": {"artin_schreier": {
        "p": 2, "rational": True, "e": 2, "alpha": {"num": [1, 2], "den": [1]}}}},
    {**KUMMER_DOC, "options": {"search_bound": 2}},
    {"version": 1, "descent": {"kummer": {
        "p": 3, "model": "base-ring", "gbar_coeffs": [2, 1], "truncation": 120}}},
    {**MINIMAL, "options": {"degree": 3, "local_indices": {"x0": 4, "x1": 9}}},
)

EXTREME_INTS = (-(10**18), -1, 0, 1, 2**31, 10**18, 10**4000)
JSON_VALUES = (None, True, 1.5, 7, "x", [], [1], {}, {"x": 1})


def _locations(value, path=()):
    """The path of every key and list item under ``value``."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _locations(child, path + (key,))


if given is not None:
    @st.composite
    def mutated_documents(draw):
        """A command and a base document with one mutation: a value swapped
        for one of another JSON type, an integer pushed to an extreme, or a
        key or item dropped."""
        doc = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES))))
        path = draw(st.sampled_from(list(_locations(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        kind = draw(st.sampled_from(("type", "extreme", "drop")))
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "extreme" and type(old) is int:
            parent[path[-1]] = draw(st.sampled_from(EXTREME_INTS))
        else:
            parent[path[-1]] = draw(
                st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)])
            )
        return draw(st.sampled_from(sorted(_HANDLERS))), doc


class _Hang(BaseException):
    """Raised by the alarm in a call that passed its wall budget; not an
    ``Exception``, so no handler in the package can swallow it."""


def _run_within(argv: list[str], seconds: float) -> int:
    def alarm(signum, frame):
        raise _Hang(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return run(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(given is None, reason="hypothesis is not installed")
def test_structural_fuzz_keeps_the_exit_contract(tmp_path):
    """Mutated documents never hang, never raise out of ``run``, and exit
    with a code of the contract (MacIver et al., JOSS 4(43), 2019)."""
    path = tmp_path / "fuzz.json"

    @seed(20261018)
    @settings(max_examples=500, deadline=None, database=None)
    @given(mutated_documents())
    def check(case):
        command, doc = case
        path.write_text(json.dumps(doc))
        assert _run_within([command, str(path)], 5) in (0, 1, 2, 3)

    check()

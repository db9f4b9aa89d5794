"""Command-line front end: one input document per invocation, batch only.

Exit status contract: 0 verified/pass (including a decided descent verdict),
1 refuted/fail, 2 inconclusive within the given bounds, 3 input error.
Reports carry a machine block and a deterministic digest that ignores
timing.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time

from . import descent as descent_mod
from .descent import (
    DESCENDS,
    INCONCLUSIVE,
    as_brute_force_oracle,
    as_descends_galois,
    kummer_obstruction,
    verify_example_29,
)
from .gog import (
    build_presentation,
    conjugacy_class_count,
    enumerate_pi1_homs,
    verify_tree_independence,
    verify_tree_vankampen,
)
from .graphs import (
    InvalidGraphError,
    cycle_rank,
    enumerate_connected_covers,
    export_dot,
    index_bound,
    is_tree,
    maximal_tree,
)
from .inputs import InputError, WorkbenchInput, parse_input
from .reports import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_PASS,
    ReportDocument,
    input_digest,
)
from .torsors import ScaleError, verify_groupoid_pushout

COMMANDS = (
    "graph-check",
    "graph-tree",
    "graph-rank",
    "graph-covers",
    "gog-presentation",
    "gog-homs",
    "gog-verify",
    "torsor-verify",
    "pushout-verify",
    "descent-as",
    "descent-kummer",
    "descent-example29",
    "index-bound",
    "export-dot",
)


def _read_document(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _opt_int(args, doc: WorkbenchInput, flag: str, key: str, default=None):
    value = getattr(args, flag, None)
    if value is None:
        value = doc.options.get(key, default)
    return None if value is None else int(value)


def run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="vkpatch",
        description="Exact workbench: van Kampen presentations, torsor patching, "
        "and characteristic-p descent obstructions over reduction graphs.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", nargs="?", default="-",
                        help="input document path, or '-' for stdin")
    parser.add_argument("--group", help="name of the test group (from 'groups')")
    parser.add_argument("--degree", type=int, help="cover degree for graph-covers")
    parser.add_argument("--support-bound", dest="support_bound", type=int)
    parser.add_argument("--truncation", type=int)
    parser.add_argument("--all-trees", action="store_true",
                        help="also check spanning-tree independence")
    parser.add_argument("--dot-output", help="write DOT text to this path")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return EXIT_INPUT_ERROR

    try:
        document = _read_document(args.input)
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    started = time.perf_counter()
    try:
        doc = parse_input(document)
        report = _dispatch(args, doc, input_digest(document))
    except InputError as exc:
        for err in exc.errors:
            print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (InvalidGraphError, ScaleError, descent_mod.InstanceRejected) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report.timing_ms = (time.perf_counter() - started) * 1000.0
    sys.stdout.write(report.render())
    return report.exit_code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def _dispatch(args, doc: WorkbenchInput, sha: str) -> ReportDocument:
    handler = _HANDLERS[args.command]
    report = handler(args, doc)
    report.command = args.command
    report.input_sha = sha
    report.warnings = list(doc.warnings)
    return report


def _report(law, verdict, lines, machine, exit_code) -> ReportDocument:
    return ReportDocument(
        command="",
        input_sha="",
        law=law,
        verdict=verdict,
        human_lines=lines,
        machine=machine,
        exit_code=exit_code,
    )


# -- graph commands ----------------------------------------------------------


def _cmd_graph_check(args, doc):
    graph = doc.require_graph()
    result = graph.validate()
    verdict = "PASS" if result.ok else "FAIL"
    machine = {"law": "reduction-graph-invariants", "ok": result.ok,
               "violations": list(result.violations)}
    return _report(
        "reduction-graph-invariants", verdict, result.lines(), machine,
        EXIT_PASS if result.ok else EXIT_FAIL,
    )


def _cmd_graph_tree(args, doc):
    graph = doc.require_graph()
    flag = is_tree(graph)
    machine = {"law": "tree-recognition", "is_tree": flag,
               "edges": len(graph.edges), "vertices": len(graph.vertices)}
    return _report(
        "tree-recognition", "TREE" if flag else "NOT-TREE",
        [f"is a tree: {flag}"], machine, EXIT_PASS,
    )


def _cmd_graph_rank(args, doc):
    graph = doc.require_graph()
    rank = cycle_rank(graph)
    tree = maximal_tree(graph)
    machine = {"law": "cycle-rank", "cycle_rank": rank,
               "canonical_tree": list(tree.edge_names)}
    return _report(
        "cycle-rank", str(rank),
        [f"cycle rank: {rank}", f"canonical maximal tree: {list(tree.edge_names)}"],
        machine, EXIT_PASS,
    )


def _cmd_graph_covers(args, doc):
    graph = doc.require_graph()
    degree = _opt_int(args, doc, "degree", "degree", 2)
    covers = enumerate_connected_covers(graph, degree)
    reps = [
        {name: list(cover.assignment[name]) for name in graph.edge_names()}
        for cover in covers
    ]
    lines = [f"{len(covers)} connected covers of degree {degree}"]
    for i, rep in enumerate(reps):
        lines.append(f"  cover {i}: {rep}")
    machine = {"law": "connected-cover-count", "degree": degree,
               "count": len(covers), "representatives": reps}
    return _report("connected-cover-count", str(len(covers)), lines, machine, EXIT_PASS)


def _cmd_export_dot(args, doc):
    graph = doc.require_graph()
    tree = maximal_tree(graph)
    text = export_dot(graph, tree)
    lines = ["DOT export (tree edges solid, others dashed):"]
    if args.dot_output:
        with open(args.dot_output, "w", encoding="utf-8") as fh:
            fh.write(text)
        lines.append(f"written to {args.dot_output}")
    else:
        lines.extend(text.rstrip("\n").split("\n"))
    machine = {"law": "dot-export", "dot": text}
    return _report("dot-export", "OK", lines, machine, EXIT_PASS)


def _cmd_index_bound(args, doc):
    indices = doc.options.get("local_indices")
    if not indices:
        raise InputError(["index-bound needs options.local_indices"])
    result = index_bound({str(k): int(v) for k, v in indices.items()})
    machine = {"law": "index-divisibility-bound", "product": result.product,
               "lcm": result.lcm, "local_indices": {str(k): int(v) for k, v in indices.items()}}
    return _report(
        "index-divisibility-bound", f"product {result.product}, lcm {result.lcm}",
        result.lines(), machine, EXIT_PASS,
    )


# -- graph-of-groups commands -------------------------------------------------


def _cmd_gog_presentation(args, doc):
    gog = doc.build_gog()
    vk = build_presentation(gog)
    pres = vk.presentation
    lines = [
        f"generators ({len(pres.generators)}): {', '.join(pres.generators[:12])}"
        + ("..." if len(pres.generators) > 12 else ""),
        f"relators: {len(pres.relators)}",
        f"spanning tree: {list(vk.tree.edge_names)}",
    ]
    machine = {
        "law": "vankampen-presentation",
        "generators": list(pres.generators),
        "relators": [list(r) for r in pres.relators],
        "tree": list(vk.tree.edge_names),
    }
    return _report("vankampen-presentation", "OK", lines, machine, EXIT_PASS)


def _cmd_gog_homs(args, doc):
    gog = doc.build_gog()
    group = doc.test_group(args.group)
    families = enumerate_pi1_homs(gog, group)
    # a family's tables and conjugators are its generator images, reordered
    keys = (fam.key() for fam in families)
    classes = conjugacy_class_count(group, (itertools.chain(*verts, conj) for verts, conj in keys))
    lines = [
        f"presentation homs into {group.name}: {len(families)}",
        f"up to simultaneous conjugation: {classes}",
    ]
    shown = [
        {
            "vertex_homs": {
                v: [group.label(x) for x in fam.vertex_homs[v].mapping]
                for v in gog.graph.vertices
            },
            "conjugators": {e: group.label(fam.conjugators[e]) for e in gog.graph.edge_names()},
        }
        for fam in families[:20]
    ]
    machine = {"law": "vankampen-presentation", "count": len(families),
               "conjugacy_classes": classes, "families_shown": shown}
    return _report(
        "vankampen-presentation", str(len(families)), lines, machine, EXIT_PASS
    )


def _cmd_gog_verify(args, doc):
    gog = doc.build_gog()
    group = doc.test_group(args.group)
    report = verify_tree_vankampen(gog, group)
    lines = report.lines()
    machine = report.to_json()
    passed = report.passed
    if args.all_trees or doc.options.get("all_trees"):
        indep = verify_tree_independence(gog, group)
        lines.extend(indep.lines())
        machine["tree_independence"] = indep.to_json()
        passed = passed and indep.passed
    verdict = "PASS" if passed else "REFUTED"
    return _report("tree-direct-limit", verdict, lines, machine,
                   EXIT_PASS if passed else EXIT_FAIL)


def _cmd_functor_sets(args, doc):
    gog = doc.build_gog()
    group = doc.test_group(args.group)
    report = verify_groupoid_pushout(gog, group)
    law = "groupoid-pushout" if args.command == "pushout-verify" else "torsor-patching-equivalence"
    verdict = "PASS" if report.passed else "REFUTED"
    return _report(law, verdict, report.lines(), {"law": law, **report.to_json()},
                   EXIT_PASS if report.passed else EXIT_FAIL)


# -- descent commands ---------------------------------------------------------


def _cmd_descent_as(args, doc):
    instance = doc.artin_schreier_instance()
    decision = as_descends_galois(instance)
    lines = decision.lines()
    machine = decision.to_json()
    exit_code = EXIT_PASS
    support = _opt_int(args, doc, "support_bound", "support_bound", instance.p**2)
    truncation = _opt_int(args, doc, "truncation", "truncation", 50)
    oracle = as_brute_force_oracle(instance, support, truncation)
    lines.extend(oracle.lines())
    machine["oracle"] = oracle.to_json()
    if oracle.verdict == INCONCLUSIVE:
        lines.append("oracle inconclusive; criterion verdict stands")
    else:
        agree = (oracle.verdict == DESCENDS) == (decision.verdict == DESCENDS)
        lines.append(f"criterion/oracle agreement: {agree}")
        machine["agreement"] = agree
        if not agree:
            exit_code = EXIT_FAIL
    return _report("artin-schreier-descent", decision.verdict, lines, machine, exit_code)


def _cmd_descent_kummer(args, doc):
    instance = doc.kummer_instance()
    bound = _opt_int(args, doc, "support_bound", "search_bound", 4)
    decision = kummer_obstruction(instance, bound)
    exit_code = EXIT_INCONCLUSIVE if decision.verdict == INCONCLUSIVE else EXIT_PASS
    return _report("kummer-descent-obstruction", decision.verdict,
                   decision.lines(), decision.to_json(), exit_code)


def _cmd_descent_example29(args, doc):
    report = verify_example_29()
    verdict = "PASS" if report.passed else "REFUTED"
    lines = [f"remainder = {'0' if not report.remainder else 'NONZERO'}"] + report.lines()
    return _report("artin-schreier-nongalois-descent", verdict, lines,
                   report.to_json(), EXIT_PASS if report.passed else EXIT_FAIL)


_HANDLERS = {
    "graph-check": _cmd_graph_check,
    "graph-tree": _cmd_graph_tree,
    "graph-rank": _cmd_graph_rank,
    "graph-covers": _cmd_graph_covers,
    "gog-presentation": _cmd_gog_presentation,
    "gog-homs": _cmd_gog_homs,
    "gog-verify": _cmd_gog_verify,
    "torsor-verify": _cmd_functor_sets,
    "pushout-verify": _cmd_functor_sets,
    "descent-as": _cmd_descent_as,
    "descent-kummer": _cmd_descent_kummer,
    "descent-example29": _cmd_descent_example29,
    "index-bound": _cmd_index_bound,
    "export-dot": _cmd_export_dot,
}


if __name__ == "__main__":
    main()

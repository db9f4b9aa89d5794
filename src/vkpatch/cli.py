"""Command-line front end: one input document per invocation, batch only.

Exit status contract: 0 verified/pass (including a decided descent verdict),
1 refuted/fail, 2 inconclusive within the given bounds, 3 input error, 4 an
internal error: an exception of the program itself, reported in one line
without a traceback.
Reports carry a machine block and a deterministic digest that ignores
timing.
"""

from __future__ import annotations

import os
import sys
import time

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
    ScaleError,
    cycle_rank,
    enumerate_connected_covers,
    export_dot,
    index_bound,
    is_tree,
    maximal_tree,
    read_int,
)
from .inputs import InputError, WorkbenchInput, parse_input
from .reports import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_PASS,
    ReportDocument,
    input_digest,
)
from .torsors import verify_groupoid_pushout


def _read_document(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _opt_int(flag_value, doc: WorkbenchInput, key: str, default: int) -> int:
    value = doc.options.get(key, default) if flag_value is None else flag_value
    try:
        return read_int(value, f"options.{key}")
    except (TypeError, ValueError):
        raise InputError([f"options.{key}: not an integer: {value!r}"]) from None


_USAGE = (
    "usage: vkpatch COMMAND [INPUT | -] [--group NAME] [--degree N] [--support-bound N]\n"
    "                       [--all-trees] [--dot-output PATH]\n"
    "Exact workbench: van Kampen presentations, torsor patching, and\n"
    "characteristic-p descent obstructions over reduction graphs.\n"
    "INPUT is the input document's path, or '-' (the default) for stdin.\n"
)

# the flags that take a value: the attribute each one sets, and its type
_VALUE_FLAGS = {
    "--group": ("group", str),
    "--degree": ("degree", int),
    "--support-bound": ("support_bound", int),
    "--dot-output": ("dot_output", str),
}


class CommandLine:
    """One parsed command line: a command of ``_HANDLERS``, at most one
    input path (``-``, the default, is stdin) and the flags, in any order.

    A flag takes its value from the next word or after ``=``; a repeated
    flag keeps its last value.  A flag must be spelled out in full.  Any
    other word that starts with ``-`` is refused, and so is an empty value,
    as is a next word that starts with ``-`` unless it is ``-`` or a
    negative integer.  Every refusal is an ``InputError`` with one message.
    """

    __slots__ = ("command", "input", "group", "degree", "support_bound", "all_trees",
                 "dot_output")

    def __init__(self, argv: list[str]):
        self.group = self.degree = self.support_bound = self.dot_output = None
        self.all_trees = False
        words = []
        tokens = iter(argv)
        for token in tokens:
            flag, eq, value = token.partition("=")
            if token == "-" or not token.startswith("-"):
                words.append(token)
            elif flag == "--all-trees":
                if eq:
                    raise InputError([f"--all-trees takes no value: {token!r}"])
                self.all_trees = True
            elif flag in _VALUE_FLAGS:
                if not eq:
                    value = next(tokens, "")
                    if value.startswith("-") and value != "-" and not value[1:].isdigit():
                        value = ""
                if not value:
                    raise InputError([f"{flag} needs a value"])
                name, kind = _VALUE_FLAGS[flag]
                try:
                    setattr(self, name, kind(value))
                except ValueError:
                    raise InputError([f"{flag}: not an integer: {value!r}"]) from None
            else:
                raise InputError([f"unknown flag: {token!r}"])
        commands = ", ".join(_HANDLERS)
        if not words:
            raise InputError([f"no command; expected one of: {commands}"])
        self.command, *paths = words
        if self.command not in _HANDLERS:
            raise InputError([f"unknown command {self.command!r}; expected one of: {commands}"])
        if len(paths) > 1:
            raise InputError([f"more than one input path: {', '.join(map(repr, paths))}"])
        self.input = paths[0] if paths else "-"


def run(argv: list[str]) -> int:
    if "-h" in argv or "--help" in argv:
        sys.stderr.write(_USAGE + f"commands: {', '.join(_HANDLERS)}\n")
        return EXIT_INPUT_ERROR
    try:
        args = CommandLine(argv)
        document = _read_document(args.input)
        started = time.perf_counter()
        doc = parse_input(document.decode("utf-8"))
        verdict, lines, machine, exit_code = _HANDLERS[args.command](args, doc)
        report = ReportDocument(
            args.command, input_digest(document), verdict, lines, machine, doc.warnings
        )
        report.timing_ms = (time.perf_counter() - started) * 1000.0
        text = report.render()
    except InputError as exc:
        for err in exc.errors:
            print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (OSError, InvalidGraphError, ScaleError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        # any other exception (a failed self-check, MemoryError,
        # RecursionError) is no verdict on the input, and exit 1 would read
        # as a refuted law.  The report is written below, outside this
        # catch, so that a closed pipe still reaches main
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    sys.stdout.write(text)
    return exit_code


def main() -> None:
    # a CLI process writes one report and exits, so nothing is left for the
    # cyclic collector or for interpreter teardown to do: the collector would
    # only rescan the live enumerations (reference counting frees the rest),
    # and teardown only frees what the exit frees anyway.  gc is imported
    # here so that importing this module loads nothing more.
    import gc

    gc.disable()
    # a reader that closed the pipe fails run's write or the flush below, and
    # either way the exit is 120: here after a failed write, and after a
    # failed flush at the interpreter's shutdown, which reports the unflushed
    # stream
    code = 120
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


def _pass_or_refuted(passed: bool, lines, machine):
    if passed:
        return "PASS", lines, machine, EXIT_PASS
    return "REFUTED", lines, machine, EXIT_FAIL


# -- graph commands ----------------------------------------------------------


def _cmd_graph_check(args, doc):
    violations = doc.require_graph().validate()
    machine = {"law": "reduction-graph-invariants", "ok": not violations,
               "violations": list(violations)}
    if not violations:
        return "PASS", ["graph invariants: pass"], machine, EXIT_PASS
    lines = ["graph invariants: FAIL"] + [f"  - {v}" for v in violations]
    return "FAIL", lines, machine, EXIT_FAIL


def _cmd_graph_tree(args, doc):
    graph = doc.require_graph()
    flag = is_tree(graph)
    machine = {"law": "tree-recognition", "is_tree": flag,
               "edges": len(graph.edges), "vertices": len(graph.vertices)}
    return "TREE" if flag else "NOT-TREE", [f"is a tree: {flag}"], machine, EXIT_PASS


def _cmd_graph_rank(args, doc):
    graph = doc.require_graph()
    rank = cycle_rank(graph)
    tree = maximal_tree(graph)
    machine = {"law": "cycle-rank", "cycle_rank": rank,
               "canonical_tree": list(tree)}
    lines = [f"cycle rank: {rank}", f"canonical maximal tree: {list(tree)}"]
    return str(rank), lines, machine, EXIT_PASS


def _cmd_graph_covers(args, doc):
    graph = doc.require_graph()
    degree = _opt_int(args.degree, doc, "degree", 2)
    if degree < 1:
        raise InputError([f"degree: cover degree must be >= 1, got {degree}"])
    covers = enumerate_connected_covers(graph, degree)
    reps = [{name: list(cover[name]) for name in graph.edge_names()} for cover in covers]
    lines = [f"{len(covers)} connected covers of degree {degree}"]
    for i, rep in enumerate(reps):
        lines.append(f"  cover {i}: {rep}")
    machine = {"law": "connected-cover-count", "degree": degree,
               "count": len(covers), "representatives": reps}
    return str(len(covers)), lines, machine, EXIT_PASS


def _cmd_export_dot(args, doc):
    text = export_dot(doc.require_graph())
    lines = ["DOT export (tree edges solid, others dashed):"]
    if args.dot_output:
        try:
            with open(args.dot_output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError([f"--dot-output: {exc}"]) from None
        lines.append(f"written to {args.dot_output}")
    else:
        lines.extend(text.rstrip("\n").split("\n"))
    machine = {"law": "dot-export", "dot": text}
    return "OK", lines, machine, EXIT_PASS


def _cmd_index_bound(args, doc):
    indices = doc.local_indices()
    product, lcm = index_bound(indices)
    machine = {"law": "index-divisibility-bound", "product": product, "lcm": lcm,
               "local_indices": indices}
    lines = [
        f"divisibility bound (proved): index divides {product}",
        f"least common multiple (conjectural sharp value): {lcm}",
    ]
    return f"product {product}, lcm {lcm}", lines, machine, EXIT_PASS


# -- graph-of-groups commands -------------------------------------------------


def _cmd_gog_presentation(args, doc):
    gog = doc.build_gog()
    vk = build_presentation(gog)
    pres = vk.presentation
    lines = [
        f"generators ({len(pres.generators)}): {', '.join(pres.generators[:12])}"
        + ("..." if len(pres.generators) > 12 else ""),
        f"relators: {len(pres.relators)}",
        f"spanning tree: {list(vk.tree)}",
    ]
    machine = {
        "law": "vankampen-presentation",
        "generators": list(pres.generators),
        "relators": [list(r) for r in pres.relators],
        "tree": list(vk.tree),
    }
    return "OK", lines, machine, EXIT_PASS


def _cmd_gog_homs(args, doc):
    gog = doc.build_gog()
    group = doc.test_group(args.group)
    families = enumerate_pi1_homs(gog, group)
    classes = conjugacy_class_count(build_presentation(gog).presentation, group)
    lines = [
        f"presentation homs into {group.name}: {len(families)}",
        f"up to simultaneous conjugation: {classes}",
    ]
    shown = [
        {
            "vertex_homs": {
                v: [group.label(x) for x in table] for v, table in zip(gog.vertices, tables)
            },
            "conjugators": {e: group.label(c) for e, c in zip(gog.graph.edge_names(), conj)},
        }
        for tables, conj in (fam.key for fam in families[:20])
    ]
    machine = {"law": "vankampen-presentation", "count": len(families),
               "conjugacy_classes": classes, "families_shown": shown}
    return str(len(families)), lines, machine, EXIT_PASS


def _cmd_gog_verify(args, doc):
    gog = doc.build_gog()
    group = doc.test_group(args.group)
    lines, machine = verify_tree_vankampen(gog, group)
    passed = machine["passed"]
    if args.all_trees or doc.options.get("all_trees"):
        indep_lines, indep = verify_tree_independence(gog, group)
        lines.extend(indep_lines)
        machine["tree_independence"] = indep
        passed = passed and indep["passed"]
    return _pass_or_refuted(passed, lines, machine)


def _cmd_functor_sets(args, doc):
    gog = doc.build_gog()
    group = doc.test_group(args.group)
    lines, machine = verify_groupoid_pushout(gog, group)
    law = "groupoid-pushout" if args.command == "pushout-verify" else "torsor-patching-equivalence"
    return _pass_or_refuted(machine["passed"], lines, {"law": law, **machine})


# -- descent commands ---------------------------------------------------------


def _cmd_descent_as(args, doc):
    instance = doc.artin_schreier_instance()
    lines, machine = as_descends_galois(instance)
    verdict = machine["verdict"]
    exit_code = EXIT_PASS
    support = _opt_int(args.support_bound, doc, "support_bound", instance.p**2)
    search = as_brute_force_oracle(instance, support)
    lines.extend(search.lines)
    machine["oracle"] = oracle = search.machine
    if oracle["verdict"] == INCONCLUSIVE:
        lines.append("oracle inconclusive; criterion verdict stands")
    else:
        agree = (oracle["verdict"] == DESCENDS) == (verdict == DESCENDS)
        lines.append(f"criterion/oracle agreement: {agree}")
        machine["agreement"] = agree
        if not agree:
            exit_code = EXIT_FAIL
    return verdict, lines, machine, exit_code


def _cmd_descent_kummer(args, doc):
    instance = doc.kummer_instance()
    bound = _opt_int(args.support_bound, doc, "search_bound", 4)
    search = kummer_obstruction(instance, bound)
    verdict = search.machine["verdict"]
    exit_code = EXIT_INCONCLUSIVE if verdict == INCONCLUSIVE else EXIT_PASS
    return verdict, search.lines, search.machine, exit_code


def _cmd_descent_example29(args, doc):
    lines, machine = verify_example_29()
    return _pass_or_refuted(machine["passed"], lines, machine)


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

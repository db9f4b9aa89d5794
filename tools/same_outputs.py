"""Replay every benchmark invocation in-process and record what it printed.

    python tools/same_outputs.py SRC OUT.json

SRC is the ``src`` directory of the checkout under test; its ``vkpatch`` is
imported and each invocation runs through ``vkpatch.cli.run``.  The
invocations are those of the three workloads of ``perfbench/workloads.py``
(imported, never changed) at seeds 3 and 7, with each pass's documents
written under a temporary directory.  The workloads build no field larger
than GF(2^8) and none of characteristic 7, so a fixed list of documents on
fields they never build, up to ``FIELD_SIZE_CAP``, is replayed after them
under the key ``large-fields``: ``descent-as`` over GF(2^10), GF(2^12),
GF(3^7), GF(5^5), GF(7^4) and GF(4093), and ``descent-kummer`` over GF(7^2)
and GF(7^3), each at ``--support-bound 1``.  Their graphs have at most three
spanning trees and their invalid graphs two connected pieces, so a fixed
list of graph shapes follows under the key ``graph-shapes``: ``graph-check``
on a graph in three pieces, and ``graph-rank``, ``graph-tree``,
``export-dot``, ``gog-presentation`` and ``gog-verify --all-trees`` into C2
on a rank-3 graph with 36 spanning trees, whose grown tree is not its five
least-named branches.  Documents whose searches sit near their budgets
follow under the key ``budget-edges``: ``descent-kummer`` at p=5 with
``--support-bound 4``; ``descent-as`` over GF(5^2) at its default support;
``gog-verify`` on the stars of one S3 component and 5 and 8 S3 points into
S4, whose vertex join depends on its vertex order; and ``torsor-verify`` on
the star of 4 points, which the fiber join's estimate refuses.  For every
invocation OUT.json
records the exit code, a sha256 of stdout with the ``timing:`` line and the
machine block's ``timing_ms`` line removed, and a sha256 of stderr.  An
exception that escapes ``run`` is recorded as exit 1 with its type and
message appended to stderr, as the interpreter would report it; the script
then names each such invocation on stderr and exits 1 once OUT.json is
written.

Two checkouts print the same outputs apart from timing exactly when their
OUT.json files are equal:

    python tools/same_outputs.py <parent checkout>/src parent.json
    python tools/same_outputs.py src change.json
    diff parent.json change.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("pi1-patching", "descent-search", "cli-batch")
SEEDS = (3, 7)
TIMING = re.compile(r'^(timing: .*|\s*"timing_ms": .*)\n', re.MULTILINE)
LARGE_FIELDS = (
    ("as-2^10", "descent-as", {"p": 2, "k1_degree": 1, "k2_degree": 10, "alpha": "w"}),
    ("as-2^12", "descent-as", {"p": 2, "k1_degree": 4, "k2_degree": 12, "alpha": "w"}),
    ("as-3^7", "descent-as", {"p": 3, "k1_degree": 1, "k2_degree": 7, "alpha": "w"}),
    ("as-5^5", "descent-as", {"p": 5, "k1_degree": 1, "k2_degree": 5, "alpha": "w"}),
    ("as-7^4", "descent-as", {"p": 7, "k1_degree": 2, "k2_degree": 4, "alpha": "w"}),
    ("as-4093", "descent-as", {"p": 4093, "k1_degree": 1, "k2_degree": 1, "alpha": 2}),
    ("kummer-7^2", "descent-kummer", {"p": 7, "q_exp": 2, "terms": 4, "truncation": 200}),
    ("kummer-7^3", "descent-kummer", {"p": 7, "q_exp": 3, "terms": 4, "truncation": 200}),
)


def star(points: int) -> dict:
    """One S3 component U joined to ``points`` S3 points by S3 branches with
    identity edge maps, into S4: a tree of groups with 34 homs."""
    identity = {label: label for label in ("012", "021", "102", "120", "201", "210")}
    return {
        "version": 1,
        "graph": {"points": [{"name": f"P{i}", "group": "S3"} for i in range(1, points + 1)],
                  "components": [{"name": "U", "group": "S3"}],
                  "edges": [{"name": f"b{i}", "point": f"P{i}", "component": "U", "group": "S3"}
                            for i in range(1, points + 1)]},
        "groups": {"S3": {"symmetric": 3}, "S4": {"symmetric": 4}},
        "edge_maps": {f"b{i}": {"to_point": identity, "to_component": identity}
                      for i in range(1, points + 1)},
        "options": {"test_group": "S4"},
    }


BUDGET_EDGES = (
    ("kummer-p5-bound4", "descent-kummer",
     {"version": 1, "descent": {
         "kummer": {"p": 5, "model": "transcendental", "terms": 4, "truncation": 200}}},
     ("--support-bound", "4")),
    ("as-5^2", "descent-as",
     {"version": 1, "descent": {"artin_schreier": {"p": 5, "k2_degree": 2, "alpha": "w"}}}, ()),
    ("star-5", "gog-verify", star(5), ()),
    ("star-8", "gog-verify", star(8), ()),
    ("star-4", "torsor-verify", star(4), ()),
)

# the four least-named branches close the cycle P1 U1 P2 U2
RANK3_GRAPH = {
    "points": [{"name": "P1", "group": "C2"}, "P2", "P3"],
    "components": ["U1", "U2", {"name": "U3", "group": "C2"}],
    "edges": [["b1", "P1", "U1"], ["b2", "P2", "U1"], ["b3", "P2", "U2"], ["b4", "P1", "U2"],
              ["b5", "P3", "U3"], ["b6", "P2", "U3"], ["b7", "P3", "U1"], ["b8", "P1", "U3"]],
}
THREE_PIECES = {
    "points": ["P1", "P2", "P3"],
    "components": ["U1", "U2", "U3"],
    "edges": [["b1", "P1", "U1"], ["b2", "P1", "U1"], ["b3", "P2", "U2"], ["b4", "P3", "U3"]],
}
GRAPH_SHAPES = (
    ("three-pieces", THREE_PIECES, ("graph-check",)),
    ("rank3", RANK3_GRAPH, ("graph-rank", "graph-tree", "export-dot", "gog-presentation",
                            "gog-verify --all-trees")),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def replay(run, bench, raised: list[str]) -> dict:
    """name -> exit code and output digests for each invocation of one pass,
    run from the current directory with documents under ``docs/``.  The
    names of invocations whose ``run`` raised are appended to ``raised``."""
    os.makedirs("docs")
    paths = {}
    for i, name in enumerate(sorted({inv.doc for inv in bench.invocations})):
        path = os.path.join("docs", f"{i}.json")
        if name in bench.docs:
            Path(path).write_text(bench.docs[name], encoding="utf-8")
        paths[name] = path
    out = {}
    for inv in bench.invocations:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = run([inv.command, paths[inv.doc], *inv.flags])
            except Exception as exc:  # a traceback in a CLI child: exit 1
                code = 1
                raised.append(inv.name)
                stderr.write(f"Traceback\n{type(exc).__name__}: {exc}\n")
        out[inv.name] = {
            "exit": code,
            "stdout": _sha256(TIMING.sub("", stdout.getvalue())),
            "stderr": _sha256(stderr.getvalue()),
        }
    return out


def large_fields_pass():
    """The ``LARGE_FIELDS`` documents as one pass of the workloads' shape."""
    from workloads import Invocation, Pass

    docs, invocations = {}, []
    for name, command, spec in LARGE_FIELDS:
        key = "artin_schreier" if command == "descent-as" else "kummer"
        docs[name] = json.dumps({"version": 1, "descent": {key: spec}})
        invocations.append(Invocation(name, command, name, ("--support-bound", "1")))
    return Pass("large-fields", 0, docs, tuple(invocations), 0)


def budget_edges_pass():
    """The ``BUDGET_EDGES`` documents as one pass of the workloads' shape."""
    from workloads import Invocation, Pass

    docs, invocations = {}, []
    for name, command, document, flags in BUDGET_EDGES:
        docs[name] = json.dumps(document)
        invocations.append(Invocation(name, command, name, flags))
    return Pass("budget-edges", 0, docs, tuple(invocations), 0)


def graph_shapes_pass():
    """The ``GRAPH_SHAPES`` documents as one pass of the workloads' shape."""
    from workloads import Invocation, Pass

    docs, invocations = {}, []
    for name, graph, calls in GRAPH_SHAPES:
        docs[name] = json.dumps({"version": 1, "graph": graph,
                                 "groups": {"C2": {"cyclic": 2}},
                                 "options": {"test_group": "C2"}})
        for call in calls:
            command, *flags = call.split()
            invocations.append(Invocation(f"{name}/{command}", command, name, tuple(flags)))
    return Pass("graph-shapes", 0, docs, tuple(invocations), 0)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out_path = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "vkpatch" / "cli.py").is_file():
        print(f"no vkpatch package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import vkpatch.cli
    from workloads import build_pass

    passes = {f"{w}:{seed}": build_pass(w, seed) for w in WORKLOADS for seed in SEEDS}
    passes["large-fields"] = large_fields_pass()
    passes["budget-edges"] = budget_edges_pass()
    passes["graph-shapes"] = graph_shapes_pass()
    results = {}
    raised: list[str] = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for i, (key, bench) in enumerate(passes.items()):
            work = Path(tmp, str(i))
            work.mkdir()
            os.chdir(work)
            failed: list[str] = []
            try:
                results[key] = replay(vkpatch.cli.run, bench, failed)
            finally:
                os.chdir(home)
            raised += (f"{key} {name}" for name in failed)
    out_path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    count = sum(len(r) for r in results.values())
    print(f"{count} invocations replayed from {src} into {out_path}")
    for name in raised:
        print(f"raised: {name}", file=sys.stderr)
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

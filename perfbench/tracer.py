"""Outside-in tracer: runs one vkpatch CLI call with its layers instrumented.

    python perfbench/tracer.py OUT.json INVOCATION_ID COMMAND [ARGS...]

The script imports ``vkpatch.cli`` (timing the import), then rebinds the
functions listed below in every ``vkpatch`` module namespace that holds them,
since ``cli``, ``inputs``, ``gog`` and ``torsors`` import functions by name.
Span functions record (name, start, end, parent) in memory; per-element
methods only count calls, because a timer would cost more than the method.
At exit the spans and counts go to OUT.json and the process exits with the
CLI's own exit code.  A listed function that no longer exists is reported as
absent.  ``summarize`` turns such files into busy and self times.
"""

from __future__ import annotations

import json
import sys
import time

# (module, qualified name, result extractor) of functions that get a span
SPANS = (
    ("cli", "run", None),
    ("inputs", "parse_input", None),
    ("inputs", "WorkbenchInput.build_gog", None),
    ("inputs", "WorkbenchInput.test_group", None),
    ("inputs", "WorkbenchInput.artin_schreier_instance", None),
    ("inputs", "WorkbenchInput.kummer_instance", None),
    ("reports", "ReportDocument.render", lambda r: len(r.encode("utf-8"))),
    ("groups", "make_group", None),
    ("groups", "enumerate_homs", len),
    ("graphs", "enumerate_connected_covers", len),
    ("graphs", "spanning_trees", None),
    ("gog", "enumerate_pi1_homs", len),
    ("gog", "naive_limit_homs", None),
    ("gog", "verify_tree_vankampen", None),
    ("gog", "verify_tree_independence", None),
    ("gog", "conjugacy_class_count", None),
    ("torsors", "verify_setoid_equivalence", None),
    ("torsors", "verify_groupoid_pushout", None),
    ("torsors", "natural_map", None),
    ("torsors", "inverse_natural_map", None),
    ("series", "LaurentSeries.mul", None),
    ("series", "LaurentSeries.pow", None),
    ("descent", "as_descends_galois", None),
    ("descent", "as_brute_force_oracle", lambda r: r.candidates_tried),
    ("descent", "kummer_obstruction", lambda r: r.candidates_tried),
    ("descent", "verify_example_29", None),
)

# per-element methods: call counts only
COUNTERS = (
    ("groups", "GroupHom.__init__"),
    ("gog", "HomFamily.__post_init__"),
    ("graphs", "ReductionGraph.edge"),
    ("fields", "FiniteField.add"),
    ("fields", "FiniteField.neg"),
    ("fields", "FiniteField.sub"),
    ("fields", "FiniteField.mul"),
    ("fields", "FiniteField.inv"),
    ("fields", "FiniteField.pow"),
    ("fields", "RationalFunctionField.add"),
    ("fields", "RationalFunctionField.neg"),
    ("fields", "RationalFunctionField.sub"),
    ("fields", "RationalFunctionField.mul"),
    ("fields", "RationalFunctionField.inv"),
    ("fields", "RationalFunctionField.pow"),
)


class Recorder:
    """Spans, counters and result values of one traced process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}
        self.values: dict = {}
        self.absent: list = []

    def span(self, name: str, fn, extract):
        spans, stack, values = self.spans, self.stack, self.values
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if extract is not None:
                values[name] = values.get(name, 0) + extract(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper


def _resolve(modules: dict, module: str, qualname: str):
    """(owner, attribute, function) or None when the function is gone."""
    owner = modules.get(f"vkpatch.{module}")
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, parts[-1], None) if owner is not None else None
    return None if fn is None else (owner, parts[-1], fn)


def install(recorder: Recorder) -> None:
    """Wrap every listed function in every vkpatch namespace that binds it."""
    modules = {k: v for k, v in sys.modules.items() if k == "vkpatch" or k.startswith("vkpatch.")}
    plan = [(m, q, "span", x) for m, q, x in SPANS] + [(m, q, "count", None) for m, q in COUNTERS]
    for module, qualname, kind, extract in plan:
        name = f"{module}.{qualname}"
        found = _resolve(modules, module, qualname)
        if found is None:
            recorder.absent.append(name)
            continue
        owner, attr, fn = found
        wrapped = recorder.span(name, fn, extract) if kind == "span" else recorder.counter(name, fn)
        if "." in qualname:
            setattr(owner, attr, wrapped)
            continue
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)


def main(argv: list[str]) -> int:
    out_path, invocation, cli_args = argv[0], int(argv[1]), argv[2:]
    recorder = Recorder()
    start = time.perf_counter()
    import vkpatch.cli

    import_s = time.perf_counter() - start
    install(recorder)
    try:
        code = vkpatch.cli.run(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "invocation": invocation,
                    "import_s": import_s,
                    "spans": recorder.spans,
                    "counts": {k: v[0] for k, v in recorder.counts.items()},
                    "values": recorder.values,
                    "absent": recorder.absent,
                },
                fh,
            )
    return code


# -- summaries --------------------------------------------------------------------


def summarize(spans: list) -> dict:
    """Per span name: calls, busy (time with at least one span of that name
    open) and self (span time not covered by its child spans)."""
    out: dict = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["self"] += end - start - child_time[i]
        if not _has_ancestor(spans, parent, lambda n: n == name):
            entry["busy"] += end - start
    return out


def union_time(spans: list, layers: set) -> float:
    """Time with at least one span of the given layers open."""
    total = 0.0
    for name, start, end, parent in spans:
        layer = name.split(".", 1)[0]
        if layer in layers and not _has_ancestor(
            spans, parent, lambda n: n.split(".", 1)[0] in layers
        ):
            total += end - start
    return total


def _has_ancestor(spans: list, parent: int, match) -> bool:
    while parent >= 0:
        name, _, _, parent_next = spans[parent]
        if match(name):
            return True
        parent = parent_next
    return False


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Replay every benchmark invocation in-process and record what it printed.

    python tools/same_outputs.py SRC OUT.json

SRC is the ``src`` directory of the checkout under test; its ``vkpatch`` is
imported and each invocation runs through ``vkpatch.cli.run``.  The
invocations are those of the three workloads of ``perfbench/workloads.py``
(imported, never changed) at seeds 3 and 7, with each pass's documents
written under a temporary directory.  For every invocation OUT.json records
the exit code, a sha256 of stdout with the ``timing:`` line and the machine
block's ``timing_ms`` line removed, and a sha256 of stderr.  An exception
that escapes ``run`` is recorded as exit 1 with its type and message appended
to stderr, as the interpreter would report it; the script then names each
such invocation on stderr and exits 1 once OUT.json is written.

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

    results = {}
    raised: list[str] = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for seed in SEEDS:
                work = Path(tmp, f"{workload}-{seed}")
                work.mkdir()
                os.chdir(work)
                key, failed = f"{workload}:{seed}", []
                try:
                    results[key] = replay(vkpatch.cli.run, build_pass(workload, seed), failed)
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

"""Each CLI child's own wall time and peak memory over one benchmark pass.

    python tools/child_peaks.py SRC WORKLOAD SEED [NAME ...]

SRC is the ``src`` directory of the checkout under test.  The pass of
WORKLOAD at SEED is built by ``perfbench/workloads.py`` (imported, never
changed) and its documents are written under a temporary directory.  Each
invocation, or each one whose name contains one of the NAME arguments, runs
as ``python -m vkpatch.cli`` with SRC on ``PYTHONPATH``, as the benchmark
runs it.  It is spawned by a launcher that is itself a ``python -S``
process, and the launcher reports the child's wall time and its
``ru_maxrss`` from ``os.wait4``.

A spawned child starts as a copy of its parent, and its ``ru_maxrss`` counts
the resident memory of that copy too, so a child spawned straight from this
script, or from the benchmark runner, reads at least its spawner's memory.
The launcher is small, so a figure above its own floor (the ``launcher``
line, a child that only runs ``pass``) is the child's.

Prints one line per invocation: wall time in ms, peak resident memory in MB
(KB / 1024, as the benchmark's ``peak_rss_mb``), exit code and name.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# runs in a ``python -S`` process: spawns argv[1:] and prints its wall
# seconds, ru_maxrss in KB and exit code
LAUNCHER = (
    "import os, sys, time\n"
    "start = time.perf_counter()\n"
    "null = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]\n"
    "pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=null)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(time.perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status))\n"
)


def measure(argv: list[str], env: dict) -> tuple[float, int, int]:
    """(wall s, peak KB, exit code) of one child spawned by the launcher."""
    out = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    return float(out[0]), int(out[1]), int(out[2])


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "vkpatch" / "cli.py").is_file():
        print(f"no vkpatch package under {src}", file=sys.stderr)
        return 2
    workload, seed, names = argv[1], int(argv[2]), argv[3:]
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import build_pass

    bench = build_pass(workload, seed)
    # the benchmark runner's child environment: cached bytecode, one hash seed
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for i, name in enumerate(sorted({inv.doc for inv in bench.invocations})):
            path = Path(tmp, f"{i}.json")
            if name in bench.docs:
                path.write_text(bench.docs[name], encoding="utf-8")
            paths[name] = str(path)
        # compile the bytecode once, as the runner's untimed warm-up child does
        measure([sys.executable, "-c", "import vkpatch.cli"], env)
        wall, peak, code = measure([sys.executable, "-c", "pass"], env)
        print(f"{wall * 1000:9.1f} ms {peak / 1024:8.2f} MB  exit {code}  launcher")
        for inv in bench.invocations:
            if names and not any(n in inv.name for n in names):
                continue
            wall, peak, code = measure(
                [sys.executable, "-m", "vkpatch.cli", inv.command, paths[inv.doc], *inv.flags],
                env)
            print(f"{wall * 1000:9.1f} ms {peak / 1024:8.2f} MB  exit {code}  {inv.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

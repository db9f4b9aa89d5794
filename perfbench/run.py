"""Benchmark runner for the vkpatch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a vkpatch checkout.  It writes the seeded documents
of one pass (``workloads.py``) under ``.perfbench_work/``, then runs every
invocation as a fresh child ``python -m vkpatch.cli <command> <doc> [flags]``,
one at a time in a closed loop with one client, so start-up, import and cold
lazy caches are paid on every call, as users pay them.  Every output is
checked by ``check.py``.

With ``--trace 0`` whole passes run back to back until the next one would
end more than half a pass after ``--seconds`` (at least one pass always
runs), and the end-to-end metrics of ``BENCHMARK.json`` are reported.  A stdlib-only
calibration child (``calib.py``) opens each pass and runs after every few
invocations, about one second of work apart; ``wall_rel`` divides each
invocation by the mean of the four calibration children around it, which
follows the host's speed drift more closely than one figure per pass.
Set-up time is the median of several probe children (``probe.py setup``).
Raw times (``wall_s``, ``cmd_p50_ms``, ``cmd_p90_ms``) are printed beside
the declared metrics, each with its sample count, but are not declared: see
``INFORMATIONAL_UNITS``.  ``--workload all`` runs every workload in turn.

With ``--trace 1`` exactly one pass runs, whatever ``--seconds`` says, so
that every count is per pass and repeats exactly.  Each invocation runs once
plainly and once under ``tracer.py``, which gives the per-layer metrics and
the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from check import Checker
from tracer import summarize, union_time
from workloads import WORKLOADS, build_pass, distinct_fields

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

INVOCATION_LIMIT_S = 20.0  # a child running longer is killed and counted as failed
RUN_GUARD_S = 140.0  # no child starts later than this, so a run ends within 180 s
SETUP_PROBES = 11
# Printed for reading only, not declared in BENCHMARK.json.  Raw times follow
# the host's minute-scale speed drift: on a shared 2-vCPU VM (Python 3.11)
# their quartile spread across ten seeds was 0.19-0.24 of the median, too
# close to the largest bound a metric may have (0.25).  p90 has ten samples
# beyond it only on cli-batch.
INFORMATIONAL_UNITS = {"wall_s": "s", "cmd_p50_ms": "ms", "cmd_p90_ms": "ms",
                       "cmd_p90_rel": "ratio"}
FIELD_PROBES = 3


@dataclass
class Child:
    """Outcome of one reaped child process."""

    wall_s: float
    exit_code: int
    stdout: str
    stderr: str
    maxrss_kb: int
    killed: bool


class Runner:
    """Spawns children with the checkout's ``src`` on the path, one at a time."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        # children use cached bytecode, as an installed package does; the
        # untimed warm-up child writes it into the checkout's src/
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": "0",
            "TMPDIR": str(work),
        })
        self.started = time.perf_counter()

    def spawn(self, argv: list[str]) -> Child:
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            timer = threading.Timer(INVOCATION_LIMIT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            wall,
            proc.returncode,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
            usage.ru_maxrss,
            proc.returncode < 0,
        )

    def python(self, *args: str) -> Child:
        return self.spawn([sys.executable, *args])

    def past_guard(self) -> bool:
        return time.perf_counter() - self.started > RUN_GUARD_S


class PassRecord:
    def __init__(self):
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.calib: list[float] = []
        self.before: list[int] = []  # calibration index right before each wall
        self.maxrss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.trace_files: list[Path] = []

    def relative_walls(self) -> list[float]:
        """Invocation times in calibration units: each one divided by the mean
        of the (up to) two calibration children before it and two after it."""
        out = []
        for w, b in zip(self.walls, self.before):
            near = self.calib[max(0, b - 1):b + 3]
            out.append(w * len(near) / sum(near))
        return out


def run_pass(bench, runner: Runner, checker: Checker, paths: dict, traced: bool) -> PassRecord:
    rec = PassRecord()
    start = time.perf_counter()

    def calibrate():
        rec.calib.append(runner.python(str(HERE / "calib.py")).wall_s)

    calibrate()
    for i, inv in enumerate(bench.invocations):
        cli_args = [inv.command, paths[inv.doc], *inv.flags]
        variants = [("-m", "vkpatch.cli")]
        if traced:
            trace_file = runner.work / "trace" / f"{i}.json"
            variants.append((str(HERE / "tracer.py"), str(trace_file), str(i)))
        for variant in variants:
            rec.attempted += 1
            if runner.past_guard():
                checker.check(inv, None, "", "", note="not run: run time guard reached")
                rec.failed += 1
                continue
            child = runner.python(*variant, *cli_args)
            note = f"killed after {INVOCATION_LIMIT_S:.0f} s" if child.killed else ""
            if checker.check(inv, child.exit_code, child.stdout, child.stderr, note):
                rec.failed += 1
            rec.maxrss_kb = max(rec.maxrss_kb, child.maxrss_kb)
            if len(variant) == 2:
                rec.walls.append(child.wall_s)
                rec.before.append(len(rec.calib) - 1)
            else:
                rec.traced_walls.append(child.wall_s)
                if trace_file.exists():
                    rec.trace_files.append(trace_file)
        if (i + 1) % bench.calib_every == 0 or i + 1 == len(bench.invocations):
            calibrate()
    rec.elapsed = time.perf_counter() - start
    return rec


# -- end-to-end metrics ----------------------------------------------------------


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def end_to_end(passes: list[PassRecord], setup: list[float]) -> dict:
    """name -> (value, sample description)."""
    walls = [sum(p.walls) for p in passes]
    rel = [sum(p.relative_walls()) for p in passes]
    cmd_ms = [w * 1000.0 for p in passes for w in p.walls]
    cmd_rel = [r for p in passes for r in p.relative_walls()]
    n = len(cmd_ms)
    beyond_p90 = n - -(-9 * n // 10)
    return {
        "wall_s": (statistics.median(walls), f"median of {len(walls)} passes"),
        "wall_rel": (statistics.median(rel), f"median of {len(rel)} passes, "
                     f"{sum(len(p.calib) for p in passes)} calibration children"),
        "cmd_p50_ms": (statistics.median(cmd_ms), f"{n} invocations"),
        "cmd_p90_ms": (percentile(cmd_ms, 90), f"{n} invocations, {beyond_p90} beyond p90"),
        "cmd_p50_rel": (statistics.median(cmd_rel), f"{n} invocations"),
        "cmd_p90_rel": (percentile(cmd_rel, 90), f"{n} invocations, {beyond_p90} beyond p90"),
        "setup_s": (statistics.median(setup), f"median of {len(setup)} probes"),
        "peak_rss_mb": (max(p.maxrss_kb for p in passes) / 1024.0,
                        f"max over {n} invocations"),
    }


# -- per-layer metrics -------------------------------------------------------------


def per_layer(rec: PassRecord, field_build: list[float]) -> dict:
    """name -> (value, sample description), from the trace files of one pass."""
    stats: dict = {}
    counts: dict = {}
    values: dict = {}
    absent: set = set()
    import_s = union_pi1 = union_descent = 0.0
    for path in rec.trace_files:
        data = json.loads(path.read_text(encoding="utf-8"))
        spans = data["spans"]
        import_s += data["import_s"]
        for name, entry in summarize(spans).items():
            acc = stats.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
            for key in acc:
                acc[key] += entry[key]
        for name, count in data["counts"].items():
            counts[name] = counts.get(name, 0) + count
        for name, value in data["values"].items():
            values[name] = values.get(name, 0) + value
        absent.update(data["absent"])
        union_pi1 += union_time(spans, {"groups", "gog", "torsors"})
        union_descent += union_time(spans, {"fields", "series", "descent"})

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    run_busy = stat("cli.run", "busy")
    families = values.get("gog.enumerate_pi1_homs", 0)
    built = counts.get("gog.HomFamily.__post_init__", 0)
    forward = stat("torsors.natural_map", "calls")
    oracle_busy = stat("descent.as_brute_force_oracle", "busy")
    candidates = values.get("descent.as_brute_force_oracle", 0)
    n = f"{len(rec.trace_files)} traced invocations"
    out = {
        "cli.import_s": import_s,
        "cli.run.busy_s": run_busy,
        "cli.run.self_s": stat("cli.run", "self"),
        "inputs.parse_input.busy_s": stat("inputs.parse_input", "busy"),
        "inputs.build.busy_s": sum(
            stat(f"inputs.WorkbenchInput.{m}", "busy")
            for m in ("build_gog", "test_group", "artin_schreier_instance", "kummer_instance")
        ),
        "reports.render.busy_s": stat("reports.ReportDocument.render", "busy"),
        "reports.output_bytes": values.get("reports.ReportDocument.render", 0),
        "groups.enumerate_homs.busy_s": stat("groups.enumerate_homs", "busy"),
        "groups.enumerate_homs.homs": values.get("groups.enumerate_homs", 0),
        "groups.GroupHom.built": counts.get("groups.GroupHom.__init__", 0),
        "groups.make_group.busy_s": stat("groups.make_group", "busy"),
        "graphs.ReductionGraph.edge.calls": counts.get("graphs.ReductionGraph.edge", 0),
        "graphs.enumerate_connected_covers.busy_s": stat("graphs.enumerate_connected_covers", "busy"),
        "graphs.enumerate_connected_covers.covers": values.get("graphs.enumerate_connected_covers", 0),
        "graphs.spanning_trees.busy_s": stat("graphs.spanning_trees", "busy"),
        "gog.enumerate_pi1_homs.self_s": stat("gog.enumerate_pi1_homs", "self"),
        "gog.enumerate_pi1_homs.families": families,
        "gog.HomFamily.built": built,
        "gog.families_per_built": ratio(families, built),
        "gog.naive_limit_homs.busy_s": stat("gog.naive_limit_homs", "busy"),
        "gog.verify_tree_vankampen.self_s": stat("gog.verify_tree_vankampen", "self"),
        "gog.verify_tree_independence.busy_s": stat("gog.verify_tree_independence", "busy"),
        "gog.conjugacy_class_count.busy_s": stat("gog.conjugacy_class_count", "busy"),
        "torsors.verify.self_s": stat("torsors.verify_setoid_equivalence", "self")
        + stat("torsors.verify_groupoid_pushout", "self"),
        "torsors.natural_map.calls": forward,
        "torsors.natural_map.busy_s": stat("torsors.natural_map", "busy"),
        "torsors.inverse_natural_map.calls": stat("torsors.inverse_natural_map", "calls"),
        "torsors.inverse_natural_map.busy_s": stat("torsors.inverse_natural_map", "busy"),
        "torsors.roundtrip_ratio": ratio(stat("torsors.inverse_natural_map", "calls"), forward),
        **{
            f"fields.{op}.calls": counts.get(f"fields.FiniteField.{op}", 0)
            for op in ("add", "neg", "sub", "mul", "inv", "pow")
        },
        "fields.rational.ops": sum(
            v for k, v in counts.items() if k.startswith("fields.RationalFunctionField.")
        ),
        "fields.build_s": statistics.median(field_build),
        "series.mul.calls": stat("series.LaurentSeries.mul", "calls"),
        "series.mul.busy_s": stat("series.LaurentSeries.mul", "busy"),
        "series.pow.calls": stat("series.LaurentSeries.pow", "calls"),
        "series.pow.busy_s": stat("series.LaurentSeries.pow", "busy"),
        "descent.as_brute_force_oracle.self_s": stat("descent.as_brute_force_oracle", "self"),
        "descent.as_oracle.candidates": candidates,
        "descent.as_oracle.candidates_per_s": ratio(candidates, oracle_busy),
        "descent.kummer_obstruction.self_s": stat("descent.kummer_obstruction", "self"),
        "descent.kummer.candidates": values.get("descent.kummer_obstruction", 0),
        "descent.as_descends_galois.self_s": stat("descent.as_descends_galois", "self"),
        "descent.verify_example_29.busy_s": stat("descent.verify_example_29", "busy"),
        "layers.groups_gog_torsors.share": ratio(union_pi1, run_busy),
        "layers.fields_series_descent.share": ratio(union_descent, run_busy),
        "trace.overhead_ratio": ratio(sum(rec.traced_walls), sum(rec.walls)),
        "host.calib_s": statistics.median(rec.calib),
    }
    described = {name: (value, n) for name, value in out.items()}
    described["fields.build_s"] = (out["fields.build_s"], f"median of {len(field_build)} probes")
    described["host.calib_s"] = (out["host.calib_s"], f"median of {len(rec.calib)} children")
    if absent:
        print("absent (reported as 0): " + ", ".join(sorted(absent)))
    return described


# -- main ------------------------------------------------------------------------------


def probe(runner: Runner, *args: str) -> Child:
    child = runner.python(str(HERE / "probe.py"), *args)
    if child.exit_code != 0:
        print(f"warning: probe {args[0]} exited {child.exit_code}: {child.stderr.strip()[-300:]}")
    return child


def field_build_s(child: Child) -> float:
    try:
        return json.loads(child.stdout)["build_s"]
    except (ValueError, KeyError):
        return 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, declared: list) -> dict:
    """Run one workload, print its table, and return the result object."""
    bench = build_pass(workload, seed)
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "docs").mkdir(parents=True)
    (work / "trace").mkdir()
    try:
        paths = {}
        for i, name in enumerate(sorted({inv.doc for inv in bench.invocations})):
            path = work / "docs" / f"{i}.json"
            if name in bench.docs:
                path.write_text(bench.docs[name], encoding="utf-8")
            paths[name] = str(path)
        runner = Runner(work)
        checker = Checker()
        # compile bytecode once, untimed, so no measured child pays for it
        runner.python("-c", "import vkpatch.cli")

        if trace:
            fields = [f"{p}:{e}" for p, e in distinct_fields(bench)]
            rec = run_pass(bench, runner, checker, paths, traced=True)
            field_build = [field_build_s(probe(runner, "fields", *fields))
                           for _ in range(FIELD_PROBES)]
            metrics = per_layer(rec, field_build)
            passes = [rec]
        else:
            manifest = work / "setup.json"
            manifest.write_text(json.dumps(
                [[i.command, paths[i.doc], list(i.flags)] for i in bench.invocations]))
            setup = [probe(runner, "setup", str(manifest)).wall_s for _ in range(SETUP_PROBES)]
            passes = []
            measured = 0.0
            while True:
                rec = run_pass(bench, runner, checker, paths, traced=False)
                passes.append(rec)
                measured += rec.elapsed
                if measured + rec.elapsed / 2 > seconds or runner.past_guard():
                    break
            metrics = end_to_end(passes, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {workload}: {WORKLOADS[workload]}")
    print(f"seed {seed}, {len(passes)} pass(es) of {len(bench.invocations)} invocations, "
          f"{'traced' if trace else 'untraced'}")
    print(f"attempted {attempted}, failed {failed}, fail_ratio {failed / attempted:.4f}")
    for name, problems in sorted(checker.failed.items()):
        print(f"  failed {name}: {'; '.join(problems)}")
    units = {entry["name"]: entry["unit"] for entry in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise KeyError(f"BENCHMARK.json declares metrics this run does not compute: {missing}")
    report = {}
    for name, (value, samples) in metrics.items():
        unit = units.get(name, INFORMATIONAL_UNITS.get(name, ""))
        tag = "" if name in units else ", not in BENCHMARK.json"
        print(f"  {name:42s} {value:14.6f} {unit:8s} ({samples}{tag})")
        if name in units:
            report[name] = {"value": value, "unit": unit}
    return {"correct": checker.correct, "attempted": attempted, "failed": failed,
            "metrics": report}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vkpatch" / "cli.py").is_file():
        print(f"no vkpatch source under {ROOT / 'src'}: run from a vkpatch checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), declared)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

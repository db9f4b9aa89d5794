"""Tests of the benchmark itself: generator, checker and tracer.

Run from the repository root: python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from check import Checker, connected_cover_count  # noqa: E402
from tracer import summarize, union_time  # noqa: E402
from workloads import DEFECT_PROBES, WORKLOADS, Invocation, build_pass  # noqa: E402


# -- generator -----------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_documents(workload):
    assert build_pass(workload, 7).doc_bytes() == build_pass(workload, 7).doc_bytes()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_other_seed_gives_other_documents(workload):
    assert build_pass(workload, 7).docs != build_pass(workload, 8).docs


def test_cli_batch_covers_every_command_and_keeps_the_defect_probes():
    bench = build_pass("cli-batch", 3)
    assert len(bench.invocations) >= 100
    assert len({i.command for i in bench.invocations}) == 14
    names = {i.name for i in bench.invocations}
    assert set(DEFECT_PROBES) <= names
    assert all(i.expect["exit"] == 3 for i in bench.invocations if i.name in DEFECT_PROBES)


# -- checker --------------------------------------------------------------------


def report(verdict, machine) -> str:
    return f"== vkpatch report ==\nverdict: {verdict}\n-- machine --\n{json.dumps(machine)}\n"


COVERS = Invocation("covers/degree4", "graph-covers", "covers", ("--degree", "4"),
                    {"exit": 0, "cover_rank": 2, "degree": 4})


def test_closed_form_cover_counts():
    assert [connected_cover_count(2, n) for n in range(1, 6)] == [1, 3, 7, 26, 97]
    assert [connected_cover_count(3, n) for n in range(1, 5)] == [1, 7, 41, 604]


def test_checker_accepts_a_correct_report():
    checker = Checker()
    out = report("26", {"count": 26, "deterministic_digest": "d"})
    assert checker.check(COVERS, 0, out, "") == []
    assert checker.correct


def test_checker_flags_a_wrong_count():
    checker = Checker()
    out = report("25", {"count": 25, "deterministic_digest": "d"})
    assert checker.check(COVERS, 0, out, "")
    assert not checker.correct


def test_checker_flags_a_wrong_exit_code():
    checker = Checker()
    probe = Invocation("malformed/version-x", "graph-check", "doc", (), {"exit": 3})
    assert checker.check(probe, 1, "", "")
    assert "malformed/version-x" in checker.failed
    assert checker.correct  # a broken exit contract is not a wrong verdict


def test_checker_flags_a_traceback():
    checker = Checker()
    out = report("26", {"count": 26, "deterministic_digest": "d"})
    assert checker.check(COVERS, 0, out, "Traceback (most recent call last):\n")


def test_checker_flags_a_changed_digest_and_a_pair_mismatch():
    checker = Checker()
    assert not checker.check(COVERS, 0, report("26", {"count": 26, "deterministic_digest": "a"}), "")
    assert checker.check(COVERS, 0, report("26", {"count": 26, "deterministic_digest": "b"}), "")
    homs = Invocation("d/gog-homs", "gog-homs", "d", (), {"exit": 0, "pair": "d:S3"})
    pushout = Invocation("d/pushout-verify", "pushout-verify", "d", (), {"exit": 0, "pair": "d:S3"})
    assert not checker.check(homs, 0, report("6", {"count": 6, "deterministic_digest": "h"}), "")
    machine = {"functor_count": 7, "agreement": True, "bijective": True, "passed": True,
               "deterministic_digest": "p"}
    assert checker.check(pushout, 0, report("PASS", machine), "")


# -- tracer ----------------------------------------------------------------------


def test_summarize_derives_busy_and_self_time():
    spans = [("a.f", 0.0, 10.0, -1), ("b.g", 2.0, 5.0, 0), ("b.g", 6.0, 8.0, 0),
             ("a.f", 3.0, 4.0, 1)]
    stats = summarize(spans)
    assert stats["a.f"] == {"calls": 2, "busy": 10.0, "self": 6.0}
    assert stats["b.g"] == {"calls": 2, "busy": 5.0, "self": 4.0}
    assert union_time(spans, {"b"}) == 5.0


def run_traced(tmp_path, doc: dict, *args: str) -> dict:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(out), "0", args[0], str(path), *args[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_call_through_the_cli_binding_is_counted(tmp_path):
    doc = {
        "version": 1,
        "graph": {"points": ["P"], "components": ["U"],
                  "edges": [["b1", "P", "U"], ["b2", "P", "U"], ["b3", "P", "U"]]},
        "groups": {"S3": {"symmetric": 3}},
    }
    data = run_traced(tmp_path, doc, "gog-homs", "--group", "S3")
    names = [span[0] for span in data["spans"]]
    assert "cli.run" in names
    assert "gog.enumerate_pi1_homs" in names  # cli imported it by name
    assert data["values"]["gog.enumerate_pi1_homs"] == 36
    assert data["counts"]["gog.HomFamily.__post_init__"] >= 36
    assert data["absent"] == []


def test_missing_function_is_reported_absent():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracer, vkpatch.cli\n"
        "tracer.SPANS += (('gog', 'no_such_function', None),)\n"
        "r = tracer.Recorder(); tracer.install(r); print(r.absent)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "gog.no_such_function" in proc.stdout


# -- runner ----------------------------------------------------------------------


def test_child_over_the_time_limit_is_killed(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "INVOCATION_LIMIT_S", 0.5)
    child = run.Runner(tmp_path).python("-c", "import time; time.sleep(30)")
    assert child.killed
    assert child.wall_s < 10
    probe = Invocation("slow/graph-check", "graph-check", "slow", (), {"exit": 0})
    checker = Checker()
    assert checker.check(probe, child.exit_code, child.stdout, child.stderr, "killed")

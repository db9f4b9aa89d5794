"""The committed replay: every benchmark invocation prints what it printed
when ``tests/golden_replay.json`` was written, apart from timing.

A change that alters an output regenerates the file with

    python tools/same_outputs.py src tests/golden_replay.json

and its diff names every invocation whose exit code, stdout or stderr moved.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_replay_matches_the_committed_file(tmp_path):
    out = tmp_path / "replay.json"
    child = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_outputs.py"), str(ROOT / "src"), str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    replayed = json.loads(out.read_text(encoding="utf-8"))
    golden = json.loads((ROOT / "tests" / "golden_replay.json").read_text(encoding="utf-8"))
    moved = sorted(
        f"{key} {name}"
        for key in golden.keys() | replayed.keys()
        for name in golden.get(key, {}).keys() | replayed.get(key, {}).keys()
        if golden.get(key, {}).get(name) != replayed.get(key, {}).get(name)
    )
    assert not moved, f"{len(moved)} invocations changed: {moved[:20]}"
    # the same bytes, as CI's diff of the two files sees them
    assert out.read_bytes() == (ROOT / "tests" / "golden_replay.json").read_bytes()

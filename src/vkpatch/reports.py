"""Report documents: human-readable text plus a machine block.

The deterministic digest covers the command, the input digest, and the
machine block with timing removed, so two runs on identical input always
produce identical digests.
"""

from __future__ import annotations

import hashlib
import json


EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3


def input_digest(document: str) -> str:
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


class ReportDocument:
    __slots__ = (
        "command", "input_sha", "law", "verdict", "human_lines", "machine", "exit_code",
        "timing_ms", "warnings",
    )

    def __init__(
        self,
        command: str,
        input_sha: str,
        law: str,
        verdict: str,
        human_lines: list[str],
        machine: dict,
        exit_code: int,
    ):
        self.command = command
        self.input_sha = input_sha
        self.law = law
        self.verdict = verdict
        self.human_lines = human_lines
        self.machine = machine
        self.exit_code = exit_code
        self.timing_ms = 0.0
        self.warnings = []

    def deterministic_digest(self) -> str:
        payload = {
            "command": self.command,
            "input": self.input_sha,
            "law": self.law,
            "verdict": self.verdict,
            "machine": {k: v for k, v in self.machine.items() if k != "timing_ms"},
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def render(self) -> str:
        lines = [
            "== vkpatch report ==",
            f"command: {self.command}",
            f"input: sha256:{self.input_sha}",
            f"law: {self.law}",
            f"verdict: {self.verdict}",
        ]
        for w in self.warnings:
            lines.append(f"warning: {w}")
        lines.extend(self.human_lines)
        lines.append(f"deterministic-digest: {self.deterministic_digest()}")
        lines.append(f"timing: {self.timing_ms:.1f} ms (excluded from digest)")
        lines.append("-- machine --")
        machine = dict(self.machine)
        machine["deterministic_digest"] = self.deterministic_digest()
        machine["timing_ms"] = self.timing_ms
        lines.append(json.dumps(machine, sort_keys=True, indent=2))
        return "\n".join(lines) + "\n"

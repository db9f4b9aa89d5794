"""Report documents: human-readable text plus a machine block.

The deterministic digest covers the command, the input digest, and the
machine block with timing removed, so two runs on identical input always
produce identical digests.
"""

from __future__ import annotations

import json

# hashlib loads OpenSSL's libcrypto, a few ms of every CLI child, while the
# interpreter's own SHA-256 module gives the same digests: it is _sha2 from
# Python 3.12 on and _sha256 before; hashlib is the fallback for a build
# that has neither
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4


def input_digest(document: bytes) -> str:
    return sha256(document).hexdigest()


class ReportDocument:
    """One command's report; its law is the one its machine block names."""

    __slots__ = (
        "command", "input_sha", "law", "verdict", "human_lines", "machine", "timing_ms",
        "warnings",
    )

    def __init__(
        self,
        command: str,
        input_sha: str,
        verdict: str,
        human_lines: list[str],
        machine: dict,
        warnings: list[str],
    ):
        self.command = command
        self.input_sha = input_sha
        self.law = machine["law"]
        self.verdict = verdict
        self.human_lines = human_lines
        self.machine = machine
        self.timing_ms = 0.0
        self.warnings = warnings

    def deterministic_digest(self) -> str:
        payload = {
            "command": self.command,
            "input": self.input_sha,
            "law": self.law,
            "verdict": self.verdict,
            "machine": {k: v for k, v in self.machine.items() if k != "timing_ms"},
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return sha256(blob.encode("utf-8")).hexdigest()

    def render(self) -> str:
        digest = self.deterministic_digest()
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
        lines.append(f"deterministic-digest: {digest}")
        lines.append(f"timing: {self.timing_ms:.1f} ms (excluded from digest)")
        lines.append("-- machine --")
        machine = dict(self.machine)
        machine["deterministic_digest"] = digest
        machine["timing_ms"] = self.timing_ms
        lines.append(json.dumps(machine, sort_keys=True, indent=2))
        return "\n".join(lines) + "\n"

"""Set-up and field-build probes, each run as its own child process.

    python perfbench/probe.py setup MANIFEST.json
        Import vkpatch.cli and build every input object of a pass (parsed
        documents, graphs of groups, test groups, descent instances), then
        stop without running a command.  The parent times the whole child.

    python perfbench/probe.py fields P:E [P:E ...]
        Construct each finite field, then make its first mul and inv calls
        through public methods; print the seconds this took as JSON.

The manifest is a JSON list of [command, document path, flags].
"""

from __future__ import annotations

import json
import sys
import time

GOG_COMMANDS = {"gog-presentation", "gog-homs", "gog-verify", "torsor-verify", "pushout-verify"}
TEST_GROUP_COMMANDS = GOG_COMMANDS - {"gog-presentation"}


def _flag(flags: list, name: str):
    return flags[flags.index(name) + 1] if name in flags[:-1] else None


def setup(manifest_path: str) -> int:
    import vkpatch.cli  # noqa: F401  (the import is part of set-up)
    from vkpatch.inputs import parse_input

    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    built = rejected = 0
    for command, path, flags in manifest:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = parse_input(fh.read())
            if command in GOG_COMMANDS:
                doc.build_gog()
            if command in TEST_GROUP_COMMANDS:
                doc.test_group(_flag(flags, "--group"))
            if command == "descent-as":
                doc.artin_schreier_instance()
            if command == "descent-kummer":
                doc.kummer_instance()
            built += 1
        except Exception:  # malformed documents are part of the pass
            rejected += 1
    print(json.dumps({"built": built, "rejected": rejected}))
    return 0


def fields(specs: list[str]) -> int:
    from vkpatch.fields import FiniteField

    start = time.perf_counter()
    for spec in specs:
        p, e = (int(x) for x in spec.split(":"))
        field = FiniteField(p, e)
        a = field.q - 1
        field.mul(a, a)
        field.inv(a)
    print(json.dumps({"build_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    sys.exit(setup(rest[0]) if mode == "setup" else fields(rest))

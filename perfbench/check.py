"""Independent output checker for the vkpatch benchmark.

Every invocation's exit code, stderr and report are checked against facts
that ``workloads.py`` fixed by construction or that closed forms give here.
Nothing is taken from another run of the program except the digest, which
must repeat exactly for the same command on the same document.

A problem on an invocation that expects a verdict (exit 0 or 1) is a wrong
result.  A problem on an invocation that expects an input error (exit 3) is
a broken exit contract: it counts as failed, but no verdict was wrong.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache


# -- closed forms -------------------------------------------------------------


@lru_cache(maxsize=None)
def hall_subgroup_count(rank: int, index: int) -> int:
    """Subgroups of index n in the free group of the given rank (Hall 1949):
    a_n = n (n!)^(r-1) - sum_{k<n} ((n-k)!)^(r-1) a_k."""
    total = index * math.factorial(index) ** (rank - 1)
    for k in range(1, index):
        total -= math.factorial(index - k) ** (rank - 1) * hall_subgroup_count(rank, k)
    return total


def _jordan_totient(exponent: int, n: int) -> int:
    """Surjections from a free group of the given rank onto Z/n."""
    value = n**exponent
    m, p = n, 2
    while m > 1:
        if m % p == 0:
            value = value // p**exponent * (p**exponent - 1)
            while m % p == 0:
                m //= p
        p += 1
    return value


def connected_cover_count(rank: int, degree: int) -> int:
    """Connected degree-n covers, up to isomorphism, of a graph of cycle rank
    r: conjugacy classes of index-n subgroups of the free group (Mednykh
    2008), sum over l*m = n of a_m(F_r) * |Epi(F_{m(r-1)+1}, Z/l)|, over n."""
    total = 0
    for m in range(1, degree + 1):
        if degree % m:
            continue
        sub_rank = m * (rank - 1) + 1
        total += hall_subgroup_count(rank, m) * _jordan_totient(sub_rank, degree // m)
    if total % degree:
        raise ArithmeticError("Mednykh sum is not divisible by the degree")
    return total // degree


# -- report parsing -------------------------------------------------------------


def parse_report(stdout: str) -> tuple[str | None, dict | None]:
    """(header verdict, machine block) of a rendered report."""
    verdict = None
    for line in stdout.split("\n"):
        if line.startswith("verdict: "):
            verdict = line[len("verdict: "):]
            break
    marker = "-- machine --\n"
    at = stdout.find(marker)
    if at < 0:
        return verdict, None
    try:
        machine = json.loads(stdout[at + len(marker):])
    except ValueError:
        return verdict, None
    return verdict, machine if isinstance(machine, dict) else None


# -- per-invocation checks ------------------------------------------------------


def _fact_problems(inv, verdict: str | None, m: dict) -> list[str]:
    e = inv.expect
    out = []

    def want(label, got, expected):
        if got != expected:
            out.append(f"{label} {got!r}, expected {expected!r}")

    cmd = inv.command
    if "ok" in e:
        want("ok", m.get("ok"), e["ok"])
    if "is_tree" in e:
        want("is_tree", m.get("graph_is_tree" if cmd == "gog-verify" else "is_tree"), e["is_tree"])
    if "rank" in e:
        want("cycle_rank", m.get("cycle_rank"), e["rank"])
    if "dot_edges" in e:
        want("dot edge lines", str(m.get("dot", "")).count(" -- "), e["dot_edges"])
    if "product" in e:
        want("product", m.get("product"), e["product"])
        want("lcm", m.get("lcm"), math.lcm(*e["lcm_of"]))
    if "generators" in e:
        want("generators", len(m.get("generators") or ()), e["generators"])
    if "cover_rank" in e:
        want("cover count", m.get("count"), connected_cover_count(e["cover_rank"], e["degree"]))
    if "homs" in e:
        want("hom count", m.get("count"), e["homs"])
    if "verdict" in e:
        want("verdict", verdict, e["verdict"])
    if "agreement" in e:
        want("criterion/oracle agreement", m.get("agreement"), e["agreement"])
    if "oracle_verdict" in e:
        want("oracle verdict", (m.get("oracle") or {}).get("verdict"), e["oracle_verdict"])
    if "candidates" in e:
        source = (m.get("oracle") or {}) if cmd == "descent-as" else m
        want("candidates tried", source.get("candidates_tried"), e["candidates"])
    if cmd in ("gog-verify", "torsor-verify", "pushout-verify", "descent-example29"):
        want("passed", m.get("passed"), True)
    if cmd in ("torsor-verify", "pushout-verify"):
        want("bijective", m.get("bijective"), True)
    if cmd == "torsor-verify":
        want("fiber classes", m.get("fiber_classes"), m.get("global_classes"))
    if cmd == "pushout-verify":
        want("pushout agreement", m.get("agreement"), True)
    return out


class Checker:
    """Checks the invocations of one benchmark run.

    Holds the first digest seen for each (command, document, flags) and the
    gog-homs and pushout-verify counts of each paired document, so repeats
    and pairs are compared across the whole run.
    """

    def __init__(self):
        self.digests: dict = {}
        self.pair_counts: dict = {}
        self.failed: dict = {}
        self.wrong_results: set = set()

    def check(self, inv, exit_code: int | None, stdout: str, stderr: str,
              note: str = "") -> list[str]:
        """Record and return the problems with one invocation's outcome."""
        problems = [note] if note else []
        expected_exit = inv.expect.get("exit")
        if exit_code != expected_exit:
            problems.append(f"exit {exit_code}, expected {expected_exit}")
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        if exit_code == expected_exit and expected_exit in (0, 1, 2):
            verdict, machine = parse_report(stdout)
            if machine is None:
                problems.append("no machine block in the report")
            else:
                problems.extend(_fact_problems(inv, verdict, machine))
                problems.extend(self._repeat_problems(inv, machine))
        if problems:
            self.failed.setdefault(inv.name, problems)
            if expected_exit != 3:
                self.wrong_results.add(inv.name)
        return problems

    def _repeat_problems(self, inv, machine: dict) -> list[str]:
        out = []
        key = (inv.command, inv.doc, inv.flags)
        digest = machine.get("deterministic_digest")
        first = self.digests.setdefault(key, digest)
        if digest is None or digest != first:
            out.append(f"digest {digest} differs from the first run's {first}")
        pair = inv.expect.get("pair")
        if pair:
            count = machine.get("functor_count" if inv.command == "pushout-verify" else "count")
            seen = self.pair_counts.setdefault(pair, {})
            seen[inv.command] = count
            if len(set(seen.values())) > 1:
                out.append(f"gog-homs and pushout-verify counts differ on {pair}: {seen}")
        return out

    @property
    def correct(self) -> bool:
        return not self.wrong_results

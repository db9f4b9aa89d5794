"""Seeded inputs for the vkpatch benchmark.

``build_pass(workload, seed)`` returns the documents and invocations of one
pass.  The same workload and seed always give byte-identical documents, and
the program under test only ever sees these documents and command lines.

Each workload is a fixed list of slots.  A slot fixes what sets an
invocation's cost: graph shape, group orders, field, support bound.  The seed
draws what does not: vertex and branch names, the element order of table
groups, which involution an edge map picks inside one automorphism orbit,
field elements with the same subfield membership, small random trees and
graphs, and the order of the invocations.  A pass therefore costs nearly the
same for every seed, so runs with different seeds can be compared.

Every invocation carries the facts its output is checked against
(``check.py``).  The facts come from the construction here or from closed
forms in the checker, never from running the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

# Why each workload exists; BENCHMARK.json carries the same lines.
WORKLOADS = {
    "pi1-patching": (
        "graphs of finite groups under gog-verify, gog-homs, torsor-verify, pushout-verify: "
        "groups/gog materialization and the torsors functor-set comparison do nearly all "
        "the work"
    ),
    "descent-search": (
        "Artin-Schreier sweeps over small fields, Kummer searches, Example 29: "
        "fields/series/descent do all the work; element ops dominate, table builds do not"
    ),
    "cli-batch": (
        "100+ short calls over all 14 commands, malformed inputs included: start-up and "
        "import dominate, plus cover canonicalization and build-heavy large-field tables"
    ),
}

# Malformed inputs that currently exit 1 with a traceback instead of the
# input-error code 3 (ROADMAP.md, open item 2).  They stay in cli-batch as
# they are, so the defect shows in the failed count until it is fixed.
DEFECT_PROBES = (
    "malformed/version-x",
    "malformed/as-no-p",
    "malformed/alpha-zz",
    "malformed/graph-list",
    "malformed/kummer-p4",
    "malformed/covers-degree0",
)


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``vkpatch <command> <doc path> <flags>``.

    ``doc`` names a document of the pass; a name with no document behind it
    is passed as a path that does not exist.  ``expect`` holds the exit code
    and the facts the checker verifies.
    """

    name: str
    command: str
    doc: str
    flags: tuple[str, ...] = ()
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Pass:
    workload: str
    seed: int
    docs: dict
    invocations: tuple
    calib_every: int

    def doc_bytes(self) -> bytes:
        """All documents and command lines, for determinism tests."""
        payload = {
            "docs": self.docs,
            "invocations": [
                [i.name, i.command, i.doc, list(i.flags), i.expect] for i in self.invocations
            ],
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")


def dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- groups ---------------------------------------------------------------------


def _closure(gens):
    n = len(gens[0])
    elems = {tuple(range(n))} | set(gens)
    frontier = list(elems)
    while frontier:
        new = []
        for g in gens:
            for x in frontier:
                y = tuple(g[x[i]] for i in range(n))
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return sorted(elems), (lambda a, b: tuple(a[b[i]] for i in range(n)))


def _quaternion():
    cyc = {("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j"}

    def unit_mul(a, b):
        if a == "1":
            return 1, b
        if b == "1":
            return 1, a
        if a == b:
            return -1, "1"
        if (a, b) in cyc:
            return 1, cyc[(a, b)]
        return -1, cyc[(b, a)]

    def mul(x, y):
        s, u = unit_mul(x[1], y[1])
        return (x[0] * y[0] * s, u)

    elems = [(s, u) for u in ("1", "i", "j", "k") for s in (1, -1)]
    return elems, mul


def _label(x) -> str:
    if isinstance(x[0], int) and isinstance(x[1], str):
        return ("" if x[0] == 1 else "-") + x[1]
    return "".join(str(i) for i in x)


class TableGroup:
    """D4 or Q8 written out as a ``table`` descriptor in a seeded element order.

    Reordering the elements gives an isomorphic group, so hom counts and
    verdicts do not depend on the seed.
    """

    def __init__(self, kind: str, rng: random.Random):
        if kind == "D4":
            elems, mul = _closure([(1, 2, 3, 0), (3, 2, 1, 0)])
        else:
            elems, mul = _quaternion()
        elems = list(elems)
        rng.shuffle(elems)
        self.descriptor = {
            "table": {
                "elements": [_label(x) for x in elems],
                "table": [[_label(mul(a, b)) for b in elems] for a in elems],
            }
        }
        identity = next(x for x in elems if all(mul(x, y) == y for y in elems))
        inv2 = [x for x in elems if x != identity and mul(x, x) == identity]
        central = [x for x in inv2 if all(mul(x, y) == mul(y, x) for y in elems)]
        self.involutions = {
            "central": sorted(_label(x) for x in central),
            "noncentral": sorted(_label(x) for x in inv2 if x not in central),
        }


SYMMETRIC_INVOLUTIONS = {3: ["021", "102", "210"]}


def _group_descriptor(kind: str, rng: random.Random):
    """(descriptor, involutions by automorphism orbit) for a vertex/test group."""
    if kind in ("D4", "Q8"):
        g = TableGroup(kind, rng)
        return g.descriptor, g.involutions
    if kind == "S3":
        return {"symmetric": 3}, {"noncentral": SYMMETRIC_INVOLUTIONS[3]}
    if kind == "S4":
        return {"symmetric": 4}, {}
    if kind == "V4":
        return {"product": [{"cyclic": 2}, {"cyclic": 2}]}, {
            "central": ["(0,1)", "(1,0)", "(1,1)"]
        }
    order = int(kind[1:])
    inv = {"central": [str(order // 2)]} if order % 2 == 0 else {}
    return {"cyclic": order}, inv


GROUP_ORDER = {"C1": 1, "C2": 2, "C3": 3, "C4": 4, "V4": 4, "S3": 6, "D4": 8, "Q8": 8, "S4": 24}


# -- graphs of groups -------------------------------------------------------------


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    """Seeded names, sorted so that the program's canonical (sorted) order of
    vertices and branches, and with it the spanning tree, matches the order
    the slot lists them in."""
    return sorted(f"{prefix}{k}" for k in rng.sample(range(1, 100), count))


def gog_document(
    rng: random.Random,
    points: list[str],
    components: list[str],
    edges: list[tuple[str, int, int, str | None]],
    test_groups: list[str],
) -> dict:
    """A graph-of-groups document.

    ``points``/``components`` give vertex group kinds; ``edges`` are
    (edge group kind, point index, component index, involution orbit) with
    kind ``C1`` or ``C2``; the orbit is one name for both ends or a (point,
    component) pair.  Names are seeded; for a C2 branch the seed picks the
    involution at each end inside the named automorphism orbit.
    """
    pnames = _names(rng, "P", len(points))
    unames = _names(rng, "U", len(components))
    enames = _names(rng, "b", len(edges))
    groups: dict = {}
    involutions: dict = {}

    def use(kind: str) -> str:
        if kind == "C1":
            return ""
        if kind not in groups:
            groups[kind], involutions[kind] = _group_descriptor(kind, rng)
        return kind

    def vertex(name, kind):
        g = use(kind)
        return {"name": name, "group": g} if g else name

    doc_edges = []
    edge_maps = {}
    for name, (kind, pi, ui, orbit) in zip(enames, edges):
        if kind == "C1":
            doc_edges.append([name, pnames[pi], unames[ui]])
            continue
        use("C2")
        doc_edges.append({"name": name, "point": pnames[pi], "component": unames[ui], "group": "C2"})
        ends = {}
        orbits = (orbit, orbit) if isinstance(orbit, str) else orbit
        for key, vkind, orb in (("to_point", points[pi], orbits[0]),
                                ("to_component", components[ui], orbits[1])):
            use(vkind)
            ends[key] = {"1": rng.choice(involutions[vkind][orb])}
        edge_maps[name] = ends
    for t in test_groups:
        use(t)
    doc = {
        "version": 1,
        "graph": {
            "points": [vertex(n, k) for n, k in zip(pnames, points)],
            "components": [vertex(n, k) for n, k in zip(unames, components)],
            "edges": doc_edges,
        },
        "groups": groups,
    }
    if edge_maps:
        doc["edge_maps"] = edge_maps
    return doc


# Bipartite tree shapes with at most 4 vertices: (points, components, edges as
# (point index, component index)).
TREE_SHAPES = (
    (1, 1, ((0, 0),)),
    (2, 1, ((0, 0), (1, 0))),
    (1, 2, ((0, 0), (0, 1))),
    (2, 2, ((0, 0), (1, 0), (1, 1))),
    (3, 1, ((0, 0), (1, 0), (2, 0))),
    (1, 3, ((0, 0), (0, 1), (0, 2))),
)

SMALL_VERTEX_GROUPS = ("C1", "C2", "C3", "C4", "V4")

# |Hom(G, T)| for the random-tree vertex groups G and test groups T.  Over a
# tree's vertices their product bounds the hom families gog-verify builds, so
# capping it keeps every tree cheap and the pass cost nearly seed-independent
# (uncapped, four V4 vertices into D4 give 28^4 families).
TREE_HOMS = {"S3": {"C1": 1, "C2": 4, "C3": 3, "C4": 4, "V4": 10},
             "D4": {"C1": 1, "C2": 6, "C3": 1, "C4": 8, "V4": 28}}
TREE_FAMILY_CAP = 300


def _pi1_pass(rng: random.Random):
    docs: dict = {}
    invs: list = []

    def add(name, doc, calls):
        docs[name] = dump(doc)
        for command, flags, expect in calls:
            invs.append(Invocation(f"{name}/{command}", command, name, tuple(flags), expect))

    tree_verify = {"exit": 0, "is_tree": True}
    # circle S3|S3 into S4: enumerate_pi1_homs and GroupHom construction
    add("circle-s3s3-s4", gog_document(rng, ["S3"], ["S3"], [("C1", 0, 0, None)] * 2, ["S4"]),
        [("gog-verify", ["--group", "S4"], {"exit": 0, "is_tree": False})])
    # circle S3|C4 with one C2 branch into S4: fiber enumeration and the
    # natural-map round trip of the torsor verifier
    add("circle-s3c4-s4", gog_document(
        rng, ["S3"], ["C4"], [("C2", 0, 0, ("noncentral", "central")), ("C1", 0, 0, None)], ["S4"]),
        [("torsor-verify", ["--group", "S4"], {"exit": 0})])
    # circle C4|Q8 with one C2 branch into Q8
    add("circle-c4q8-q8", gog_document(
        rng, ["C4"], ["Q8"], [("C2", 0, 0, "central"), ("C1", 0, 0, None)], ["Q8"]), [
        ("torsor-verify", ["--group", "Q8"], {"exit": 0}),
        ("gog-homs", ["--group", "Q8"], {"exit": 0}),
    ])
    # pushout-verify paired with gog-homs on the same document and group
    for key, pts, comps, edges, test in (
        ("theta-c2c2-s3", ["C2"], ["C2"], [("C1", 0, 0, None)] * 3, "S3"),
        ("circle-s3s3-s3", ["S3"], ["S3"], [("C1", 0, 0, None)] * 2, "S3"),
        ("diamond-d4q8-q8", ["D4"], ["Q8"], [("C2", 0, 0, "central")], "Q8"),
    ):
        pair = {"exit": 0, "pair": f"{key}:{test}"}
        add(key, gog_document(rng, pts, comps, edges, [test]), [
            ("pushout-verify", ["--group", test], pair),
            ("gog-homs", ["--group", test], pair),
        ])
    # diamond S3|D4 over C2 (non-central images) into D4
    add("diamond-s3d4-d4", gog_document(rng, ["S3"], ["D4"], [("C2", 0, 0, "noncentral")], ["D4"]), [
        ("torsor-verify", ["--group", "D4"], {"exit": 0}),
        ("gog-verify", ["--group", "D4", "--all-trees"], tree_verify),
    ])
    # theta with trivial vertex groups: |G|^rank homs
    for test in ("S3", "Q8", "D4"):
        add(f"theta-trivial-{test.lower()}",
            gog_document(rng, ["C1"], ["C1"], [("C1", 0, 0, None)] * 3, [test]),
            [("gog-homs", ["--group", test], {"exit": 0, "homs": GROUP_ORDER[test] ** 2}),
             ("gog-verify", ["--group", test, "--all-trees"], {"exit": 0, "is_tree": False})])
    # random trees with at most 4 vertices, small vertex groups, into S3 or D4.
    # With the diamonds and thetas these cheap calls are most of the pass, so
    # the median call falls inside one dense cluster.
    for k in range(8):
        test = ("S3", "D4")[k % 2]
        families = TREE_FAMILY_CAP + 1
        while families > TREE_FAMILY_CAP:
            npts, ncomp, shape = rng.choice(TREE_SHAPES)
            pts = [rng.choice(SMALL_VERTEX_GROUPS) for _ in range(npts)]
            comps = [rng.choice(SMALL_VERTEX_GROUPS) for _ in range(ncomp)]
            families = 1
            for kind in pts + comps:
                families *= TREE_HOMS[test][kind]
        edges = []
        for pi, ui in shape:
            both_even = GROUP_ORDER[pts[pi]] % 2 == 0 and GROUP_ORDER[comps[ui]] % 2 == 0
            edges.append(("C2", pi, ui, "central") if both_even and rng.random() < 0.5
                         else ("C1", pi, ui, None))
        add(f"tree{k}-{test.lower()}", gog_document(rng, pts, comps, edges, [test]), [
            ("gog-verify", ["--group", test, "--all-trees"], tree_verify),
        ])
    return docs, invs, 2


# -- descent ----------------------------------------------------------------------


def as_document(p: int, k2_degree: int, alpha) -> dict:
    return {"version": 1, "descent": {"artin_schreier": {
        "p": p, "k1_degree": 1, "k2_degree": k2_degree, "alpha": alpha}}}


def _as_finite(rng, p: int, e: int, descends: bool) -> tuple[dict, int]:
    """alpha is coded as an integer whose base-p digits are its coordinates,
    so the prime field k1 = GF(p) is exactly the codes 0..p-1."""
    alpha = rng.randrange(1, p) if descends else rng.randrange(p, p**e)
    return as_document(p, e, str(alpha)), alpha


def _as_expect(p: int, k1_size: int, alpha_code: int | None, support: int) -> dict:
    """alpha in k1 descends with witness beta = alpha/t, found after alpha's
    position among the sorted k1 elements; otherwise all |k1|^support
    candidates are refused."""
    if alpha_code is not None:
        return {"exit": 0, "verdict": "DESCENDS", "agreement": True, "candidates": alpha_code + 1}
    return {"exit": 0, "verdict": "FAILS", "agreement": True,
            "oracle_verdict": "FAILS-WITHIN-BOUNDS", "candidates": k1_size**support}


def kummer_document(rng, p: int, model: str, bound: int) -> tuple[dict, dict]:
    if model == "transcendental":
        spec = {"p": p, "model": "transcendental", "terms": 4, "truncation": 200}
        expect = {"exit": 0, "verdict": "OBSTRUCTED-WITHIN-BOUNDS",
                  "candidates": sum(p**d for d in range(bound + 1))}
    else:
        # gbar of degree 1: f = gbar^p + x has degree p <= bound, so the first
        # candidate e = 1 already satisfies a degree-1 relation
        spec = {"p": p, "model": "base-ring",
                "gbar_coeffs": [rng.randrange(p), rng.randrange(1, p)]}
        expect = {"exit": 0, "verdict": "DESCENDS", "candidates": 1}
    return {"version": 1, "descent": {"kummer": spec}}, expect


# (p, k2 degree, support bound) of the exhaustive FAILS sweeps: p^bound
# candidates, 10^3 to 10^5 each
AS_SWEEPS = ((2, 2, 14), (2, 3, 13), (3, 2, 9), (3, 3, 8), (5, 2, 6))


def _descent_pass(rng: random.Random):
    docs: dict = {}
    invs: list = []

    def add(name, doc, command, flags, expect):
        docs[name] = dump(doc)
        invs.append(Invocation(f"{name}/{command}", command, name, tuple(flags), expect))

    for p, e, bound in AS_SWEEPS:
        doc, _ = _as_finite(rng, p, e, descends=False)
        add(f"as-gf{p}^{e}-fails", doc, "descent-as", ["--support-bound", str(bound)],
            _as_expect(p, p, None, bound))
    # alpha in k1: the sweep stops at the witness alpha/t.  These cheap calls
    # are most of the pass, so the median call falls inside one dense cluster.
    for p, e, bound in AS_SWEEPS + ((2, 4, 14), (2, 5, 14), (3, 4, 9)):
        for k in range(2 if e < 4 else 1):
            doc, alpha = _as_finite(rng, p, e, descends=True)
            add(f"as-gf{p}^{e}-descends{k}", doc, "descent-as", ["--support-bound", str(bound)],
                _as_expect(p, p, alpha, bound))
    # GF(q)(s) over the constants GF(q): a non-constant alpha is transcendental
    for p, e, bound in ((2, 2, 5), (3, 1, 6)):
        q = p**e
        num = [rng.randrange(q), rng.randrange(1, q)]
        doc = {"version": 1, "descent": {"artin_schreier": {
            "p": p, "rational": True, "e": e, "alpha": {"num": num, "den": [1]}}}}
        add(f"as-rational-{q}-fails", doc, "descent-as", ["--support-bound", str(bound)],
            _as_expect(p, q, None, bound))
        c = rng.randrange(1, q)
        doc = {"version": 1, "descent": {"artin_schreier": {
            "p": p, "rational": True, "e": e, "alpha": c}}}
        add(f"as-rational-{q}-descends", doc, "descent-as", ["--support-bound", str(bound)],
            _as_expect(p, q, c, bound))
    for p, bound in ((2, 4), (2, 3), (3, 3), (3, 2)):
        doc, expect = kummer_document(rng, p, "transcendental", bound)
        add(f"kummer-p{p}-b{bound}", doc, "descent-kummer", ["--support-bound", str(bound)], expect)
    for p, bound in ((2, 3), (3, 3), (5, 5)):
        doc, expect = kummer_document(rng, p, "base-ring", bound)
        add(f"kummer-base-p{p}", doc, "descent-kummer", ["--support-bound", str(bound)], expect)
    add("example29", {"version": 1}, "descent-example29", [], {"exit": 0, "verdict": "PASS"})
    invs.append(Invocation("example29/descent-example29#repeat", "descent-example29",
                           "example29", (), {"exit": 0, "verdict": "PASS"}))
    return docs, invs, 2


# -- cli batch ----------------------------------------------------------------------


def _random_graph(rng: random.Random, rank: int, size: tuple[int, int] | None = None
                  ) -> tuple[dict, int, int]:
    """A connected bipartite reduction graph of the given cycle rank, with
    (points, components) drawn from 1-3 each unless ``size`` fixes them."""
    npts, ncomp = size or (rng.randint(1, 3), rng.randint(1, 3))
    pts, comps = _names(rng, "P", npts), _names(rng, "U", ncomp)
    # a spanning tree first: attach each new vertex to one already placed
    placed = [("P", 0)]
    pairs = []
    pending = [("P", i) for i in range(1, npts)] + [("U", i) for i in range(ncomp)]
    rng.shuffle(pending)
    while pending:
        for item in list(pending):
            side, i = item
            partners = [j for s, j in placed if s != side]
            if partners:
                j = rng.choice(partners)
                pairs.append((i, j) if side == "P" else (j, i))
                placed.append(item)
                pending.remove(item)
    for _ in range(rank):
        pairs.append((rng.randrange(npts), rng.randrange(ncomp)))
    enames = _names(rng, "b", len(pairs))
    edges = [[n, pts[a], comps[b]] for n, (a, b) in zip(enames, pairs)]
    rng.shuffle(edges)
    doc = {"version": 1, "graph": {"points": pts, "components": comps, "edges": edges}}
    return doc, len(edges), npts + ncomp


def _invalid_graph(rng: random.Random, kind: str) -> dict:
    pts, comps = _names(rng, "P", 2), _names(rng, "U", 2)
    if kind == "disconnected":
        edges = [["b1", pts[0], comps[0]], ["b2", pts[1], comps[1]]]
    elif kind == "not-bipartite":
        edges = [["b1", pts[0], comps[0]], ["b2", pts[0], pts[1]], ["b3", pts[1], comps[1]]]
    else:
        edges = [["b1", pts[0], comps[0]], ["b2", pts[1], comps[0]]]
    return {"version": 1, "graph": {"points": pts, "components": comps, "edges": edges}}


def _cli_pass(rng: random.Random):
    docs: dict = {}
    invs: list = []

    def inv(name, command, doc, flags=(), **expect):
        invs.append(Invocation(name, command, doc, tuple(flags), expect))

    for k in range(9):
        rank = k % 4
        doc, n_edges, n_vertices = _random_graph(rng, rank)
        indices = {f"x{i}": rng.randint(1, 12) for i in range(rng.randint(1, 4))}
        doc["options"] = {"local_indices": indices}
        name = f"graph{k}"
        docs[name] = dump(doc)
        inv(f"{name}/graph-check", "graph-check", name, exit=0, ok=True)
        inv(f"{name}/graph-tree", "graph-tree", name, exit=0, is_tree=rank == 0)
        inv(f"{name}/graph-rank", "graph-rank", name, exit=0, rank=n_edges - n_vertices + 1)
        inv(f"{name}/export-dot", "export-dot", name, exit=0, dot_edges=n_edges)
        inv(f"{name}/index-bound", "index-bound", name, exit=0,
            product=math.prod(indices.values()), lcm_of=sorted(indices.values()))
        inv(f"{name}/gog-presentation", "gog-presentation", name, exit=0,
            generators=n_vertices + n_edges)
    # repeats of one call per graph command: digests must match within a pass
    for k, command in enumerate(("graph-check", "graph-tree", "graph-rank", "export-dot",
                                 "index-bound", "gog-presentation")):
        first = next(i for i in invs if i.name == f"graph{k}/{command}")
        invs.append(Invocation(f"{first.name}#repeat", command, first.doc, (), first.expect))
    for kind in ("disconnected", "not-bipartite", "isolated"):
        name = f"invalid-{kind}"
        docs[name] = dump(_invalid_graph(rng, kind))
        inv(f"{name}/graph-check", "graph-check", name, exit=1, ok=False)
        for command in ("graph-tree", "graph-rank", "export-dot", "gog-presentation"):
            inv(f"{name}/{command}", command, name, exit=3)
    # a fixed vertex count keeps the report, which lists every cover's
    # permutation on every branch, the same size for every seed
    for rank, degrees in ((2, (2, 3, 4, 5)), (3, (2, 3, 4))):
        doc, _, _ = _random_graph(rng, rank, size=(2, 1))
        name = f"covers-rank{rank}"
        docs[name] = dump(doc)
        for d in degrees:
            inv(f"{name}/degree{d}", "graph-covers", name, ["--degree", str(d)],
                exit=0, cover_rank=rank, degree=d)
    # large fields with support bound 1: the lazy table build is the work
    for p, e in ((2, 7), (2, 8), (3, 5)):
        descends = rng.random() < 0.5
        doc, alpha = _as_finite(rng, p, e, descends)
        name = f"as-gf{p}^{e}"
        docs[name] = dump(doc)
        inv(f"{name}/descent-as", "descent-as", name, ["--support-bound", "1"],
            **_as_expect(p, p, alpha if descends else None, 1))
    doc, expect = kummer_document(rng, 2, "transcendental", 2)
    docs["kummer-p2-b2"] = dump(doc)
    inv("kummer-p2-b2/descent-kummer", "descent-kummer", "kummer-p2-b2", ["--support-bound", "2"],
        **expect)
    docs["example29"] = dump({"version": 1})
    inv("example29/descent-example29", "descent-example29", "example29", exit=0, verdict="PASS")
    small = gog_document(rng, ["C2"], ["C4"], [("C2", 0, 0, "central"), ("C1", 0, 0, None)], ["S3"])
    docs["circle-c2c4"] = dump(small)
    for command in ("gog-verify", "torsor-verify"):
        inv(f"circle-c2c4/{command}", command, "circle-c2c4", ["--group", "S3"], exit=0)
    for command in ("gog-homs", "pushout-verify"):
        inv(f"circle-c2c4/{command}", command, "circle-c2c4", ["--group", "S3"],
            exit=0, pair="circle-c2c4:S3")

    # malformed input: every case should exit 3 without a traceback
    base_graph = {"points": ["P"], "components": ["U"], "edges": [["b1", "P", "U"]]}
    malformed = {
        "version-x": ("graph-check", {"version": "x", "graph": base_graph}, ()),
        "as-no-p": ("descent-as", {"version": 1, "descent": {"artin_schreier": {
            "k1_degree": 1, "k2_degree": 2, "alpha": "w"}}}, ()),
        "alpha-zz": ("descent-as", {"version": 1, "descent": {"artin_schreier": {
            "p": 2, "k1_degree": 1, "k2_degree": 2, "alpha": "zz"}}}, ()),
        "graph-list": ("graph-check", {"version": 1, "graph": [1]}, ()),
        "kummer-p4": ("descent-kummer", {"version": 1, "descent": {"kummer": {
            "p": 4, "model": "transcendental", "terms": 4}}}, ()),
        "covers-degree0": ("graph-covers", {"version": 1, "graph": base_graph}, ("--degree", "0")),
        # well-formed controls that already exit 3
        "not-json": ("graph-check", None, ()),
        "no-version": ("graph-check", {"graph": base_graph}, ()),
        "schema-version-2": ("graph-check", {"version": 2, "graph": base_graph}, ()),
        "undefined-test-group": ("gog-homs", {"version": 1, "graph": base_graph}, ("--group", "S9")),
        "unknown-flag": ("graph-check", {"version": 1, "graph": base_graph}, ("--frobnicate",)),
        "missing-file": ("graph-check", None, ()),
    }
    for key, (command, doc, flags) in malformed.items():
        name = f"malformed/{key}"
        if key == "not-json":
            docs[name] = '{"version": 1, "graph": '
        elif doc is not None:
            docs[name] = dump(doc)
        inv(name, command, name, flags, exit=3)
    return docs, invs, 3


_BUILDERS = {"pi1-patching": _pi1_pass, "descent-search": _descent_pass, "cli-batch": _cli_pass}


def build_pass(workload: str, seed: int) -> Pass:
    """The documents and invocation order of one pass of a workload."""
    if workload not in _BUILDERS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = random.Random(f"vkpatch-bench:{workload}:{seed}")
    docs, invs, calib_every = _BUILDERS[workload](rng)
    rng.shuffle(invs)
    names = [i.name for i in invs]
    if len(set(names)) != len(names):
        raise AssertionError("invocation names must be unique within a pass")
    return Pass(workload, seed, docs, tuple(invs), calib_every)


def distinct_fields(p: Pass) -> list[tuple[int, int]]:
    """(p, e) of every finite field the pass's descent documents use."""
    out = set()
    for text in p.docs.values():
        try:
            doc = json.loads(text)
        except ValueError:
            continue
        descent = doc.get("descent") if isinstance(doc, dict) else None
        if not isinstance(descent, dict):
            continue
        spec = descent.get("artin_schreier")
        if isinstance(spec, dict) and isinstance(spec.get("p"), int):
            e = spec.get("e", 1) if spec.get("rational") else spec.get("k2_degree", 1)
            if isinstance(e, int):
                out.add((spec["p"], e))
        spec = descent.get("kummer")
        if isinstance(spec, dict) and spec.get("p") in (2, 3, 5, 7):
            out.add((spec["p"], 1))
    return sorted(out)


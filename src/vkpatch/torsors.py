"""Multipointed torsors, the hom/torsor dictionary, and patching verifiers.

The finite model of a multipointed torsor is a set with a free transitive
right action of the test group G, a commuting left action of a structure
group, and one marked point per label in an index set S.  Point-preserving
equivariant maps are unique when they exist, so these objects form a setoid,
and each isomorphism class is completely described by trivializing along the
base point: a structure homomorphism into G plus one G-coordinate per marked
point.

A connected groupoid with object set S and vertex group Gamma is modeled by
its base object (the least label) and formal connecting arrows; an arrow
from s' to s is a triple (s', gamma, s).  Functors to the one-object
groupoid of G are then a homomorphism Gamma -> G plus one translation per
non-base object, and they correspond exactly to isomorphism classes of
S-multipointed torsors.

The patching verifiers glue these local models over a graph of groups.  For
a branch b at point vertex P on component vertex U, a functor family on the
two vertex groupoids agrees over the branch groupoid exactly when

    flag_U(b) . f_U(to_component(g)) . flag_U(b)^-1
        = flag_P(b) . f_P(to_point(g)) . flag_P(b)^-1

for all edge-group elements g.  Functors from the global groupoid (objects =
all branches, vertex group = the presented fundamental group) biject with
such families: restriction along the point side needs no correction while
the component side picks up the branch's edge letter, mirroring the
conjugation relation of the presentation.  Both directions of that bijection
are implemented explicitly and checked by enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .gog import (
    GraphOfFiniteGroups,
    HomFamily,
    VanKampenPresentation,
    backtrack_vertices,
    build_presentation,
    enumerate_pi1_homs,
)
from .groups import FiniteGroup, GroupHom, hom_set

# enumerations beyond this many global or fiber-product elements are refused
FUNCTOR_SET_CAP = 2_000_000
# round trips through the inverse natural map are checked on every element up
# to this many, then on a deterministic stride
ROUNDTRIP_CAP = 20_000


class PatchingError(ValueError):
    """An incompatible patching problem; carries the offending branch."""

    def __init__(self, branch: str, message: str):
        super().__init__(message)
        self.branch = branch


class ScaleError(ValueError):
    """The requested enumeration exceeds ``FUNCTOR_SET_CAP``."""


# ---------------------------------------------------------------------------
# Model groupoids and functors to BG


class ModelGroupoid:
    """Connected groupoid on a finite object set with a finite vertex group.

    Arrows are triples (src, gamma, dst); composition multiplies the group
    parts in function order, and every Hom(s', s) has exactly |group| arrows.
    """

    def __init__(self, objects: Sequence[str], group: FiniteGroup):
        if not objects:
            raise ValueError("a model groupoid needs at least one object")
        self.objects = tuple(sorted(str(s) for s in objects))
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object labels")
        self.group = group

    @property
    def base(self) -> str:
        return self.objects[0]

    def compose(self, second: tuple, first: tuple) -> tuple:
        """second . first (first applied first)."""
        s0, g1, s1 = first
        s1b, g2, s2 = second
        if s1 != s1b:
            raise ValueError("arrows do not compose")
        return (s0, self.group.mul(g2, g1), s2)

    def identity_arrow(self, s: str) -> tuple:
        return (s, self.group.identity, s)

    def inverse(self, arrow: tuple) -> tuple:
        s0, g, s1 = arrow
        return (s1, self.group.inv(g), s0)

    def arrows(self):
        for s0 in self.objects:
            for g in range(self.group.order):
                for s1 in self.objects:
                    yield (s0, g, s1)


class GroupoidFunctor:
    """A functor from a model groupoid to the one-object groupoid of G.

    Determined by a homomorphism on the vertex group and a translation per
    object (identity at the base); the value on (s', gamma, s) is
    ``t_s . f(gamma) . t_s'^-1``.
    """

    def __init__(
        self,
        groupoid: ModelGroupoid,
        target: FiniteGroup,
        vertex_hom: GroupHom,
        translations: Mapping[str, int],
    ):
        if vertex_hom.source != groupoid.group or vertex_hom.target != target:
            raise ValueError("vertex_hom must map the groupoid group into the target")
        trans = {s: int(translations[s]) for s in groupoid.objects}
        if trans[groupoid.base] != target.identity:
            raise ValueError("base translation must be the identity")
        for s, t in trans.items():
            if not 0 <= t < target.order:
                raise ValueError(f"translation at {s} is not a target element")
        self.groupoid = groupoid
        self.target = target
        self.vertex_hom = vertex_hom
        self.translations = trans

    def value(self, arrow: tuple) -> int:
        s0, g, s1 = arrow
        G = self.target
        return G.mul(
            G.mul(self.translations[s1], self.vertex_hom(g)),
            G.inv(self.translations[s0]),
        )

    def key(self) -> tuple:
        return (
            self.vertex_hom.mapping,
            tuple(self.translations[s] for s in self.groupoid.objects),
        )

    @classmethod
    def from_arrow_table(
        cls, groupoid: ModelGroupoid, target: FiniteGroup, table: Mapping[tuple, int]
    ) -> "GroupoidFunctor":
        """Validate a raw per-arrow assignment and extract functor data."""
        for arrow in groupoid.arrows():
            if arrow not in table:
                raise ValueError(f"missing arrow {arrow} in functor table")
        for s in groupoid.objects:
            if table[groupoid.identity_arrow(s)] != target.identity:
                raise ValueError(f"identity arrow at {s} does not map to the identity")
        objs = groupoid.objects
        n = groupoid.group.order
        for s0 in objs:
            for s1 in objs:
                for s2 in objs:
                    for g1 in range(n):
                        for g2 in range(n):
                            first = (s0, g1, s1)
                            second = (s1, g2, s2)
                            lhs = table[groupoid.compose(second, first)]
                            rhs = target.mul(table[second], table[first])
                            if lhs != rhs:
                                raise ValueError(
                                    f"assignment breaks composition on {second} . {first}"
                                )
        base = groupoid.base
        hom = GroupHom(
            groupoid.group,
            target,
            [table[(base, g, base)] for g in range(n)],
        )
        trans = {s: table[(base, groupoid.group.identity, s)] for s in objs}
        return cls(groupoid, target, hom, trans)


# ---------------------------------------------------------------------------
# Multipointed torsors


class MultipointedTorsor:
    """A bi-action set with marked points, validated on construction."""

    def __init__(
        self,
        group: FiniteGroup,
        structure_group: FiniteGroup,
        carrier: Sequence[str],
        right_action: Sequence[Sequence[int]],
        left_action: Sequence[Sequence[int]],
        points: Mapping[str, int],
    ):
        carrier = tuple(str(x) for x in carrier)
        n = len(carrier)
        if n != group.order:
            raise ValueError("carrier size must equal |G| for a torsor")
        right = tuple(tuple(int(v) for v in row) for row in right_action)
        left = tuple(tuple(int(v) for v in row) for row in left_action)
        if len(right) != n or any(len(r) != group.order for r in right):
            raise ValueError("right action table must be carrier x G")
        if len(left) != structure_group.order or any(len(r) != n for r in left):
            raise ValueError("left action table must be Gamma x carrier")

        ident = group.identity
        for x in range(n):
            if right[x][ident] != x:
                raise ValueError("right action does not fix the identity")
            seen = set(right[x])
            if len(seen) != group.order or seen != set(range(n)):
                raise ValueError("right action is not free and transitive")
        for x in range(n):
            for a in range(group.order):
                for b in range(group.order):
                    if right[right[x][a]][b] != right[x][group.mul(a, b)]:
                        raise ValueError("right action is not an action")
        if left[structure_group.identity] != tuple(range(n)):
            raise ValueError("left identity does not act trivially")
        for g1 in range(structure_group.order):
            for g2 in range(structure_group.order):
                composite = structure_group.mul(g1, g2)
                for x in range(n):
                    if left[g1][left[g2][x]] != left[composite][x]:
                        raise ValueError("left action is not an action")
        for g in range(structure_group.order):
            for x in range(n):
                for a in range(group.order):
                    if left[g][right[x][a]] != right[left[g][x]][a]:
                        raise ValueError("left and right actions do not commute")

        self.group = group
        self.structure_group = structure_group
        self.carrier = carrier
        self.right = right
        self.left = left
        self.point_labels = tuple(sorted(points))
        if not self.point_labels:
            raise ValueError("a multipointed torsor needs at least one marked point")
        self.points = {}
        for s in self.point_labels:
            x = int(points[s])
            if not 0 <= x < n:
                raise ValueError(f"marked point {s} is not a carrier element")
            self.points[s] = x

    @classmethod
    def standard(
        cls,
        group: FiniteGroup,
        structure_hom: GroupHom,
        points: Mapping[str, int],
    ) -> "MultipointedTorsor":
        """Carrier G with right translation and left action through a hom.

        ``points`` values are G element indices.
        """
        G = group
        if structure_hom.target != G:
            raise ValueError("structure_hom must land in the acting group")
        right = G.table
        left = [
            [G.mul(structure_hom(g), x) for x in range(G.order)]
            for g in range(structure_hom.source.order)
        ]
        return cls(G, structure_hom.source, G.elements, right, left, points)

    @property
    def base_label(self) -> str:
        return self.point_labels[0]

    def _coords(self) -> tuple[list[int], int]:
        """g_of[x] = the unique g with base_point . g = x."""
        zeta0 = self.points[self.base_label]
        g_of = [0] * len(self.carrier)
        for g in range(self.group.order):
            g_of[self.right[zeta0][g]] = g
        return g_of, zeta0

    def structure_map(self) -> GroupHom:
        """The hom Gamma -> G describing the left action in base coordinates."""
        g_of, zeta0 = self._coords()
        return GroupHom(
            self.structure_group,
            self.group,
            [g_of[self.left[g][zeta0]] for g in range(self.structure_group.order)],
        )

    def point_coords(self) -> dict[str, int]:
        """G-coordinates of the marked points relative to the base point."""
        g_of, _ = self._coords()
        return {s: g_of[self.points[s]] for s in self.point_labels}

    def canonical_key(self) -> tuple:
        """Complete isomorphism invariant: structure hom and point coords."""
        coords = self.point_coords()
        return (
            self.structure_map().mapping,
            tuple(coords[s] for s in self.point_labels),
        )

    def restrict_to_branch(self, branch: str, alpha: GroupHom) -> "MultipointedTorsor":
        """Pull the structure action back along alpha and keep one point."""
        if alpha.target != self.structure_group:
            raise ValueError("alpha must land in the structure group")
        if branch not in self.points:
            raise ValueError(f"no marked point for branch {branch}")
        left = [self.left[alpha(g)] for g in range(alpha.source.order)]
        return MultipointedTorsor(
            self.group,
            alpha.source,
            self.carrier,
            self.right,
            left,
            {branch: self.points[branch]},
        )


@dataclass(frozen=True)
class TorsorMorphism:
    source: MultipointedTorsor
    target: MultipointedTorsor
    mapping: tuple[int, ...]


def torsor_from_hom(f: GroupoidFunctor) -> MultipointedTorsor:
    """The multipointed torsor of a functor: carrier G, left action through
    the vertex hom, point at s marked at the inverse of the translation."""
    G = f.target
    points = {s: G.inv(f.translations[s]) for s in f.groupoid.objects}
    return MultipointedTorsor.standard(G, f.vertex_hom, points)


def hom_from_torsor(t: MultipointedTorsor, groupoid: ModelGroupoid) -> GroupoidFunctor:
    """The functor of a torsor: the group part of an arrow (s', gamma, s) is
    the unique g with (gamma acting on the point at s') = (point at s) . g."""
    if t.structure_group != groupoid.group:
        raise ValueError("torsor structure group does not match the groupoid")
    if t.point_labels != groupoid.objects:
        raise ValueError("torsor marked points do not match the groupoid objects")
    coords = t.point_coords()
    hom = t.structure_map()
    translations = {s: t.group.inv(coords[s]) for s in groupoid.objects}
    return GroupoidFunctor(groupoid, t.group, hom, translations)


def torsor_morphisms(t1: MultipointedTorsor, t2: MultipointedTorsor) -> TorsorMorphism | None:
    """The unique equivariant point-preserving map, if one exists.

    The candidate is forced by where the base point goes; the setoid law
    |morphisms| <= 1 is structural.
    """
    if t1.group != t2.group or t1.structure_group != t2.structure_group:
        return None
    if t1.point_labels != t2.point_labels:
        return None
    g_of, _ = t1._coords()
    zeta2 = t2.points[t2.base_label]
    mapping = tuple(t2.right[zeta2][g_of[x]] for x in range(len(t1.carrier)))
    for s in t1.point_labels:
        if mapping[t1.points[s]] != t2.points[s]:
            return None
    for g in range(t1.structure_group.order):
        for x in range(len(t1.carrier)):
            if mapping[t1.left[g][x]] != t2.left[g][mapping[x]]:
                return None
    for x in range(len(t1.carrier)):
        for a in range(t1.group.order):
            if mapping[t1.right[x][a]] != t2.right[mapping[x]][a]:
                return None
    return TorsorMorphism(t1, t2, mapping)


# ---------------------------------------------------------------------------
# Local functor data over a graph of groups


@dataclass(frozen=True)
class VertexFunctorData:
    """Functor data at one vertex: a hom table (element index -> test-group
    index) and one flag per incident branch, identity at the least branch."""

    vertex: str
    hom_mapping: tuple[int, ...]
    flags: Mapping[str, int]

    def key(self) -> tuple:
        return (self.hom_mapping, tuple(sorted(self.flags.items())))


def _base_branch(gog: GraphOfFiniteGroups, vertex: str) -> str:
    return min(gog.graph.edges_at(vertex))


def _branch_agrees(gog: GraphOfFiniteGroups, group: FiniteGroup, datum: Mapping[str, VertexFunctorData], edge: str) -> bool:
    p, u = gog.graph.point_end(edge), gog.graph.component_end(edge)
    dp, du = datum[p], datum[u]
    gp, gu = dp.flags[edge], du.flags[edge]
    to_p = gog.edge_maps[edge]["to_point"]
    to_u = gog.edge_maps[edge]["to_component"]
    for g in range(gog.edge_groups[edge].order):
        lhs = group.conjugate(gu, du.hom_mapping[to_u(g)])
        rhs = group.conjugate(gp, dp.hom_mapping[to_p(g)])
        if lhs != rhs:
            return False
    return True


def natural_map(
    presentation: VanKampenPresentation,
    family: HomFamily,
    markings: Mapping[str, int],
) -> dict[str, VertexFunctorData]:
    """Restrict a global functor (hom family + point markings) to the vertex
    groupoids.

    ``markings`` assigns a test-group element to every branch, identity at
    the least branch.  Point-side restrictions use the markings directly;
    component-side ones absorb the branch's conjugator, mirroring the edge
    relation of the presentation.
    """
    gog = presentation.gog
    G = family.group
    b0 = min(gog.graph.edge_names())
    if markings[b0] != G.identity:
        raise ValueError("marking at the least branch must be the identity")

    datum: dict[str, VertexFunctorData] = {}
    for v in gog.graph.points:
        m = _base_branch(gog, v)
        hm = markings[m]
        mapping = tuple(G.conjugate(hm, x) for x in family.vertex_homs[v].mapping)
        flags = {
            e: G.mul(markings[e], G.inv(hm)) for e in gog.graph.edges_at(v)
        }
        datum[v] = VertexFunctorData(v, mapping, flags)
    for v in gog.graph.components:
        m = _base_branch(gog, v)
        k = G.mul(markings[m], G.inv(family.conjugators[m]))
        mapping = tuple(G.conjugate(k, x) for x in family.vertex_homs[v].mapping)
        flags = {
            e: G.mul(
                G.mul(markings[e], G.inv(family.conjugators[e])), G.inv(k)
            )
            for e in gog.graph.edges_at(v)
        }
        datum[v] = VertexFunctorData(v, mapping, flags)
    return datum


def inverse_natural_map(
    presentation: VanKampenPresentation,
    group: FiniteGroup,
    datum: Mapping[str, VertexFunctorData],
) -> tuple[HomFamily, dict[str, int]]:
    """Reconstruct the unique global functor restricting to the given family
    of vertex functor data (which must agree over every branch)."""
    gog = presentation.gog
    tree = presentation.tree
    G = group
    b0 = min(gog.graph.edge_names())

    gauges: dict[str, int] = {}
    root = gog.graph.point_end(b0)
    gauges[root] = G.inv(datum[root].flags[b0])
    pending = set(gog.graph.vertices) - {root}
    while pending:
        progressed = False
        for e in tree.edge_names:
            p, u = gog.graph.point_end(e), gog.graph.component_end(e)
            gp, gu = datum[p].flags[e], datum[u].flags[e]
            if p not in pending and u in pending:
                gauges[u] = G.mul(G.mul(G.inv(gu), gp), gauges[p])
                pending.discard(u)
                progressed = True
            elif u not in pending and p in pending:
                gauges[p] = G.mul(G.mul(G.inv(gp), gu), gauges[u])
                pending.discard(p)
                progressed = True
        if not progressed:
            raise ValueError("spanning tree does not reach every vertex")

    vertex_homs = {}
    for v in gog.graph.vertices:
        a = gauges[v]
        vertex_homs[v] = GroupHom(
            gog.vertex_groups[v],
            G,
            [G.conjugate(G.inv(a), x) for x in datum[v].hom_mapping],
        )
    markings = {}
    conjugators = {}
    for e in gog.graph.edge_names():
        p, u = gog.graph.point_end(e), gog.graph.component_end(e)
        markings[e] = G.mul(datum[p].flags[e], gauges[p])
        conjugators[e] = G.mul(
            G.mul(G.inv(gauges[u]), G.inv(datum[u].flags[e])),
            markings[e],
        )
    if markings[b0] != G.identity:
        raise AssertionError("reconstruction failed to pin the base marking")
    for e in tree.edge_names:
        if conjugators[e] != G.identity:
            raise AssertionError("reconstruction failed to trivialize a tree letter")
    family = HomFamily(gog, G, vertex_homs, conjugators)
    return family, markings


def _enumerate_fiber_data(
    gog: GraphOfFiniteGroups,
    group: FiniteGroup,
) -> list[dict[str, VertexFunctorData]]:
    """All branch-compatible families of vertex functor data, by backtracking
    over the vertices in canonical order."""
    G = group
    vertices = gog.graph.vertices
    per_vertex: dict[str, list[VertexFunctorData]] = {}
    est = 1
    for v in vertices:
        homs = hom_set(gog.vertex_groups[v], G)
        edges = gog.graph.edges_at(v)
        base = min(edges)
        free = [e for e in edges if e != base]
        cands = []
        for hom in homs:
            for combo in itertools.product(range(G.order), repeat=len(free)):
                flags = {base: G.identity}
                flags.update(dict(zip(free, combo)))
                cands.append(VertexFunctorData(v, hom.mapping, flags))
        per_vertex[v] = cands
        est *= max(len(cands), 1)
        if est > FUNCTOR_SET_CAP:
            raise ScaleError(
                f"fiber-product enumeration would visit ~{est} tuples (cap {FUNCTOR_SET_CAP})"
            )
    return backtrack_vertices(
        gog, per_vertex, lambda chosen, e: _branch_agrees(gog, G, chosen, e)
    )


def _datum_key(gog: GraphOfFiniteGroups, datum: Mapping[str, VertexFunctorData]) -> tuple:
    return tuple(datum[v].key() for v in gog.graph.vertices)


# ---------------------------------------------------------------------------
# 2-fiber-product objects


class TwoFiberObject:
    """An object of the 2-fiber product: component-side and point-side
    multipointed torsor families plus the connecting isomorphisms of their
    branch restrictions (one per branch, component side to point side).

    Since all categories involved are setoids, the connecting isomorphisms
    are unique when they exist, and the isomorphism class of the triple is
    the pair of class keys of the two sides.
    """

    def __init__(
        self,
        gog: GraphOfFiniteGroups,
        component_data: Mapping[str, MultipointedTorsor],
        point_data: Mapping[str, MultipointedTorsor],
        connecting: Mapping[str, TorsorMorphism],
    ):
        self.gog = gog
        self.component_data = {u: component_data[u] for u in gog.graph.components}
        self.point_data = {p: point_data[p] for p in gog.graph.points}
        self.connecting = dict(connecting)
        expected = _connecting_maps(gog, self.component_data, self.point_data)
        for e, mor in expected.items():
            given = self.connecting.get(e)
            if given is None or mor is None or given.mapping != mor.mapping:
                raise ValueError(
                    f"connecting map at branch {e} is not the isomorphism of the "
                    "two restrictions"
                )

    @classmethod
    def build(
        cls,
        gog: GraphOfFiniteGroups,
        component_data: Mapping[str, MultipointedTorsor],
        point_data: Mapping[str, MultipointedTorsor],
    ) -> "TwoFiberObject":
        """Compute the unique connecting isomorphisms; raise naming the first
        branch whose restrictions do not match."""
        connecting = _connecting_maps(gog, component_data, point_data)
        for e, mor in connecting.items():
            if mor is None:
                raise ValueError(f"branch {e}: restrictions are not isomorphic")
        return cls(gog, component_data, point_data, connecting)

    def class_key(self) -> tuple:
        """Isomorphism-class invariant: the pair of side class keys."""
        return (
            tuple(self.component_data[u].canonical_key() for u in self.gog.graph.components),
            tuple(self.point_data[p].canonical_key() for p in self.gog.graph.points),
        )


def _connecting_maps(
    gog: GraphOfFiniteGroups,
    component_data: Mapping[str, MultipointedTorsor],
    point_data: Mapping[str, MultipointedTorsor],
) -> dict[str, TorsorMorphism | None]:
    """Per branch, the unique isomorphism from the component-side restriction
    to the point-side one, or None when the two are not isomorphic."""
    out: dict[str, TorsorMorphism | None] = {}
    for e in gog.graph.edge_names():
        u_side = component_data[gog.graph.component_end(e)].restrict_to_branch(
            e, gog.edge_maps[e]["to_component"]
        )
        p_side = point_data[gog.graph.point_end(e)].restrict_to_branch(
            e, gog.edge_maps[e]["to_point"]
        )
        out[e] = torsor_morphisms(u_side, p_side)
    return out


# ---------------------------------------------------------------------------
# Patching problems


class PatchingProblem:
    """Local multipointed-torsor data over a graph of groups.

    Every vertex carries a torsor marked by its incident branches; every
    branch carries a singly pointed torsor.  The problem is compatible when
    each branch datum receives the (unique) point-preserving morphism from
    both of its endpoints' restrictions.
    """

    def __init__(
        self,
        gog: GraphOfFiniteGroups,
        group: FiniteGroup,
        vertex_data: Mapping[str, MultipointedTorsor],
        branch_data: Mapping[str, MultipointedTorsor],
    ):
        self.gog = gog
        self.group = group
        self.vertex_data = {v: vertex_data[v] for v in gog.graph.vertices}
        self.branch_data = {e: branch_data[e] for e in gog.graph.edge_names()}
        for v in gog.graph.vertices:
            t = self.vertex_data[v]
            if t.group != group:
                raise ValueError(f"vertex datum at {v} is not a {group.name}-torsor")
            if t.structure_group != gog.vertex_groups[v]:
                raise ValueError(f"vertex datum at {v} has the wrong structure group")
            if t.point_labels != tuple(sorted(gog.graph.edges_at(v))):
                raise ValueError(f"vertex datum at {v} must be marked by its branches")
        for e in gog.graph.edge_names():
            t = self.branch_data[e]
            if t.group != group:
                raise ValueError(f"branch datum at {e} is not a {group.name}-torsor")
            if t.structure_group != gog.edge_groups[e]:
                raise ValueError(f"branch datum at {e} has the wrong structure group")
            if t.point_labels != (e,):
                raise ValueError(f"branch datum at {e} must be marked by {e} alone")

    def check_compatibility(self) -> dict[tuple[str, str], TorsorMorphism]:
        """The per-(vertex, branch) comparison morphisms; raises on failure."""
        morphisms: dict[tuple[str, str], TorsorMorphism] = {}
        for e in self.gog.graph.edge_names():
            for v, side in (
                (self.gog.graph.point_end(e), "to_point"),
                (self.gog.graph.component_end(e), "to_component"),
            ):
                alpha = self.gog.edge_maps[e][side]
                restricted = self.vertex_data[v].restrict_to_branch(e, alpha)
                mor = torsor_morphisms(restricted, self.branch_data[e])
                if mor is None:
                    raise PatchingError(
                        e,
                        f"branch {e}: restriction of the datum at {v} does not "
                        "match the branch datum",
                    )
                morphisms[(v, e)] = mor
        return morphisms


@dataclass(frozen=True)
class PatchingSolution:
    """A global solution: hom family, branch markings, restriction maps."""

    family: HomFamily
    markings: Mapping[str, int]
    restriction_morphisms: Mapping[str, TorsorMorphism]

    def lines(self) -> list[str]:
        G = self.family.group
        out = ["patching solved; global datum (unique up to unique isomorphism):"]
        for v in self.family.gog.graph.vertices:
            hom = self.family.vertex_homs[v]
            images = ", ".join(
                f"{hom.source.label(a)}->{G.label(hom(a))}" for a in range(hom.source.order)
            )
            out.append(f"  vertex {v}: {images}")
        conj = ", ".join(
            f"{e}: {G.label(self.family.conjugators[e])}"
            for e in self.family.gog.graph.edge_names()
        )
        out.append(f"  edge conjugators: {conj}")
        marks = ", ".join(
            f"{e}: {G.label(self.markings[e])}"
            for e in sorted(self.markings)
        )
        out.append(f"  branch markings: {marks}")
        return out


def solve_patching(problem: PatchingProblem) -> PatchingSolution:
    """Solve a compatible patching problem.

    The local data is trivialized to vertex functor data; compatibility makes
    it a branch-agreeing family, and the inverse of the restriction
    dictionary produces the unique global hom family with markings.  The
    returned morphisms identify the induced local data with the problem's.
    """
    problem.check_compatibility()
    gog, G = problem.gog, problem.group
    presentation = build_presentation(gog)

    datum = {}
    for v in gog.graph.vertices:
        t = problem.vertex_data[v]
        coords = t.point_coords()
        flags = {e: G.inv(coords[e]) for e in gog.graph.edges_at(v)}
        datum[v] = VertexFunctorData(v, t.structure_map().mapping, flags)
    for e in gog.graph.edge_names():
        if not _branch_agrees(gog, G, datum, e):
            raise PatchingError(e, f"branch {e}: local data does not agree")

    family, markings = inverse_natural_map(presentation, G, datum)

    restriction_morphisms: dict[str, TorsorMorphism] = {}
    induced = natural_map(presentation, family, markings)
    for v in gog.graph.vertices:
        ind = induced[v]
        torsor = MultipointedTorsor.standard(
            G,
            GroupHom(gog.vertex_groups[v], G, ind.hom_mapping),
            {e: G.inv(ind.flags[e]) for e in gog.graph.edges_at(v)},
        )
        mor = torsor_morphisms(torsor, problem.vertex_data[v])
        if mor is None:
            raise AssertionError(f"induced datum at {v} fails to match the problem")
        restriction_morphisms[v] = mor
    return PatchingSolution(family, markings, restriction_morphisms)


# ---------------------------------------------------------------------------
# Setoid equivalence and groupoid pushout verifier


@dataclass(frozen=True)
class FunctorSetReport:
    """One comparison of the global functor set with the fiber product.

    It decides both laws at once.  The setoid equivalence asks that
    restriction be a bijection on classes with as many global classes as
    fiber classes; the groupoid pushout asks that it be a bijection with as
    many fiber classes as presentation homs.  Global classes are the
    presentation homs, so both reduce to ``passed``.
    """

    global_raw: int
    fiber_raw: int
    marking_gauge: int
    pi1_count: int
    fiber_classes: int
    bijective: bool
    roundtrip_checked: int
    roundtrip_stride: int

    @property
    def counts(self) -> "FunctorSetReport":
        """The report itself: its fields are the counts."""
        return self

    @property
    def global_classes(self) -> int:
        return self.pi1_count

    @property
    def functor_count(self) -> int:
        return self.fiber_classes

    @property
    def agreement(self) -> bool:
        return self.fiber_classes == self.pi1_count

    @property
    def passed(self) -> bool:
        return self.bijective and self.agreement

    def lines(self) -> list[str]:
        if self.roundtrip_stride == 1:
            strided = "every element"
        else:
            strided = f"strided: one element in {self.roundtrip_stride}"
        return [
            f"global torsor classes = presentation homs: {self.global_classes}",
            f"patching-family classes = pushout functors: {self.fiber_classes}",
            f"counts agree: {self.agreement}",
            f"raw functor sets: global {self.global_raw}, fiber product {self.fiber_raw}",
            f"point-marking gauge: {self.marking_gauge}",
            f"restriction functor bijective on classes: {self.bijective}",
            f"round trips verified: {self.roundtrip_checked} ({strided})",
        ]

    def to_json(self) -> dict:
        return {
            "global_classes": self.global_classes,
            "fiber_classes": self.fiber_classes,
            "functor_count": self.functor_count,
            "pi1_count": self.pi1_count,
            "agreement": self.agreement,
            "global_raw": self.global_raw,
            "fiber_raw": self.fiber_raw,
            "marking_gauge": self.marking_gauge,
            "bijective": self.bijective,
            "roundtrip_checked": self.roundtrip_checked,
            "roundtrip_stride": self.roundtrip_stride,
            "passed": self.passed,
        }


def verify_groupoid_pushout(gog: GraphOfFiniteGroups, group: FiniteGroup) -> FunctorSetReport:
    """Check torsor patching in both of its forms.

    Restriction must be a bijection between isomorphism classes of global
    multipointed torsors (functors from the global groupoid into BG) and
    branch-agreeing families of local ones (functor families on the vertex
    groupoids), and the class count with the marking gauge removed must equal
    the presentation hom count.  Both sides are enumerated independently."""
    presentation = build_presentation(gog)
    G = group
    pi1 = enumerate_pi1_homs(gog, G, presentation=presentation)
    edges = gog.graph.edge_names()
    b0 = min(edges)
    free_edges = [e for e in edges if e != b0]
    gauge = G.order ** len(free_edges)
    lhs_raw = len(pi1) * gauge
    if lhs_raw > FUNCTOR_SET_CAP:
        raise ScaleError(
            f"global functor enumeration has {lhs_raw} elements (cap {FUNCTOR_SET_CAP})"
        )

    fiber = _enumerate_fiber_data(gog, G)
    fiber_keys = {_datum_key(gog, d) for d in fiber}
    if len(fiber_keys) != len(fiber):
        raise AssertionError("fiber enumeration produced duplicates")

    # set equality below stays exhaustive whatever the round-trip stride
    stride = max(1, lhs_raw // ROUNDTRIP_CAP)
    image_keys = set()
    roundtrips = 0
    combos = itertools.product(range(G.order), repeat=len(free_edges))
    for index, (family, combo) in enumerate(itertools.product(pi1, combos)):
        markings = {b0: G.identity}
        markings.update(dict(zip(free_edges, combo)))
        datum = natural_map(presentation, family, markings)
        key = _datum_key(gog, datum)
        if key in image_keys:
            raise AssertionError("restriction functor is not injective")
        image_keys.add(key)
        if index % stride == 0:
            for e in edges:
                if not _branch_agrees(gog, G, datum, e):
                    raise AssertionError("restriction broke branch agreement")
            back_family, back_markings = inverse_natural_map(presentation, G, datum)
            if back_family.key() != family.key() or back_markings != markings:
                raise AssertionError("inverse natural map failed the round trip")
            roundtrips += 1

    fiber_raw = len(fiber)
    if fiber_raw % gauge != 0:
        raise AssertionError("fiber count is not a multiple of the marking gauge")
    return FunctorSetReport(
        global_raw=lhs_raw,
        fiber_raw=fiber_raw,
        marking_gauge=gauge,
        pi1_count=len(pi1),
        fiber_classes=fiber_raw // gauge,
        bijective=image_keys == fiber_keys,
        roundtrip_checked=roundtrips,
        roundtrip_stride=stride,
    )


# The setoid-equivalence law is decided by the same comparison; the name stays
# bound because perfbench/tracer.py traces it.
verify_setoid_equivalence = verify_groupoid_pushout

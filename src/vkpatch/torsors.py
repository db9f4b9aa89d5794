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

import functools
import itertools
import operator
from collections.abc import Mapping, Sequence

from .gog import (
    FUNCTOR_SET_CAP,
    GraphOfFiniteGroups,
    HomFamily,
    VanKampenPresentation,
    backtrack_vertices,
    build_presentation,
)
from .graphs import refuse_past
from .groups import FiniteGroup, GroupHom, enumerate_homs, group_presentation


class PatchingError(ValueError):
    """An incompatible patching problem; carries the offending branch."""

    def __init__(self, branch: str, message: str):
        super().__init__(message)
        self.branch = branch


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

    def key(self) -> tuple:
        return (
            self.vertex_hom.mapping,
            tuple(self.translations[s] for s in self.groupoid.objects),
        )


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


def torsor_from_hom(f: GroupoidFunctor) -> MultipointedTorsor:
    """The multipointed torsor of a functor: carrier G, left action through
    the vertex hom, point at s marked at the inverse of the translation.

    With ``hom_from_torsor`` this is the functor/torsor dictionary of
    acceptance criterion 5 (``test_criterion_5_dictionary_round_trip``)."""
    G = f.target
    points = {s: G.inv(f.translations[s]) for s in f.groupoid.objects}
    return MultipointedTorsor.standard(G, f.vertex_hom, points)


def hom_from_torsor(t: MultipointedTorsor, groupoid: ModelGroupoid) -> GroupoidFunctor:
    """The functor of a torsor: the group part of an arrow (s', gamma, s) is
    the unique g with (gamma acting on the point at s') = (point at s) . g.
    Inverse of ``torsor_from_hom`` up to isomorphism (acceptance criterion 5)."""
    if t.structure_group != groupoid.group:
        raise ValueError("torsor structure group does not match the groupoid")
    if t.point_labels != groupoid.objects:
        raise ValueError("torsor marked points do not match the groupoid objects")
    coords = t.point_coords()
    hom = t.structure_map()
    translations = {s: t.group.inv(coords[s]) for s in groupoid.objects}
    return GroupoidFunctor(groupoid, t.group, hom, translations)


def torsor_morphisms(t1: MultipointedTorsor, t2: MultipointedTorsor) -> tuple[int, ...] | None:
    """The unique equivariant point-preserving map as a carrier table (the
    image of each carrier element of t1), or None when there is none.

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
    return mapping


# ---------------------------------------------------------------------------
# Local functor data over a graph of groups
#
# Functor data is kept as plain index tuples, each its own set key.  A global
# functor is a family key (``HomFamily.key``: vertex tables in vertex order,
# conjugators in branch order) plus its markings: one test-group element per
# branch in branch order, identity at the least branch.  A local datum is one
# entry per vertex in vertex order: the vertex hom table and one flag per
# incident branch in ``edges_at`` order, identity at the least branch.  The
# maps below walk the position tables that ``GraphOfFiniteGroups`` owns
# (incidence, branch ends, branch maps), not the graph's names; the inverse
# map also walks the presentation's tree steps and tree branches, the only
# tables that depend on the spanning tree.


def _restriction(
    gog: GraphOfFiniteGroups,
    conj: Sequence[Sequence[int]],
    i: int,
    b: int,
    entry: tuple,
) -> tuple:
    """The entry (hom table, flags) of a local datum at vertex i restricted
    to branch b: flag . table(side(g)) . flag^-1 over the edge-group
    elements g, with the flag and edge map of that end."""
    p, p_slot, _, u_slot = gog.branch_ends[b]
    to_p, to_u = gog.branch_maps[b]
    side, slot = (to_p, p_slot) if i == p else (to_u, u_slot)
    table, flags = entry
    row = conj[flags[slot]]
    return tuple([row[table[a]] for a in side])


def _memo_column(memo: dict, keys: list, fill) -> list:
    """The memo's values at the keys, in order; ``fill(key)`` computes and
    stores each missing one, once."""
    column = list(map(memo.get, keys))
    if None in column:
        for key in set(keys).difference(memo):
            fill(key)
        column = list(map(memo.__getitem__, keys))
    return column


class _NaturalMaps:
    """The natural map and its inverse for one presentation and test group,
    with caches that make them cheap per element and per column.

    A vertex's entry of a local datum depends only on its hom table and on
    the markings shifted onto its incident branches, so the forward map
    computes each entry once (``_entry``).  The inverse reads a datum's
    flags apart from its hom tables: the gauges, markings and conjugators
    depend on the flags alone and are computed once per flags tuple
    (``_flag_part``), and each (hom table, gauge) pair is gauged once
    (``_gauged_table``).  These per-element memos live as long as the
    object, one verifier or patching call.

    ``forward_columns`` and ``check_round_trips`` run both maps on columns
    of markings of one family, through the same memos; ``forward`` is the
    one-element case.  Over one set of marking columns, more is fixed, and
    each of the column caches below is exact for that reason:

    - a vertex's column of entries depends only on its hom table and the
      conjugators of the branches that meet it at their component end, so
      it is built once per such pair;
    - a branch's marking column seen from its component end depends only on
      the branch's conjugator;
    - a datum's flags depend only on the markings and the family's
      conjugators, so the inverse's flag part is checked once per
      conjugator tuple;
    - the gauges follow from the flags, so each vertex's gauged tables are
      checked once per (vertex, hom table, conjugator tuple).

    The column caches hold the columns object they were built for and
    start over when another one arrives, so no cached column serves another
    marking set; the columns must not change while they are in use."""

    __slots__ = ("presentation", "group", "_conj", "_entries", "_flag_parts", "_gauged",
                 "_columns", "_shifted", "_vertex_columns", "_checked_parts", "_checked_tables")

    def __init__(self, presentation: VanKampenPresentation, group: FiniteGroup):
        self.presentation = presentation
        self.group = group
        self._conj = group.conjugation_table()
        # per vertex: (hom table, shifted markings) -> entry
        self._entries: list[dict] = [{} for _ in presentation.gog.incidence]
        # flags of a local datum -> (gauges, markings, conjugators)
        self._flag_parts: dict[tuple, tuple] = {}
        # (hom table, gauge) -> the table conjugated by the gauge's inverse
        self._gauged: dict[tuple, tuple] = {}
        # the marking columns the caches below were built for
        self._columns = None
        # (branch, conjugator) -> the branch's marking column at its component end
        self._shifted: dict[tuple, list] = {}
        # per vertex: (hom table, component-end conjugators) -> column of entries
        self._vertex_columns: list[dict] = []
        # conjugators whose flag part is checked -> per vertex, the gauge column
        self._checked_parts: dict[tuple, list] = {}
        # (vertex, hom table, conjugators) whose gauged tables are checked
        self._checked_tables: set[tuple] = set()

    def _entry(self, i: int, table: tuple, shifted: tuple) -> tuple:
        """The entry at vertex i of a vertex table whose incident branches
        carry the shifted markings; cached."""
        mul = self.group.table
        k = shifted[0]
        row, k_inv = self._conj[k], self.group.inverse[k]
        entry = (tuple([row[x] for x in table]), tuple([mul[m][k_inv] for m in shifted]))
        self._entries[i][table, shifted] = entry
        return entry

    def forward(self, family_key: tuple, markings: Sequence[int]) -> tuple:
        """The local datum of a global functor (family key + markings): the
        one-element case of ``forward_columns``."""
        if markings[0] != self.group.identity:
            raise ValueError("marking at the least branch must be the identity")
        return tuple([entries[0] for entries in
                      self.forward_columns(family_key, [[m] for m in markings])])

    def forward_columns(self, family_key: tuple, columns: Sequence[Sequence[int]]) -> list[list]:
        """The natural map on many global functors of one family at once,
        given as one column of markings per branch: per vertex, the column
        of entries.  Each vertex column is built once per hom table and
        component-end conjugators, and ``_entry`` fills only the entries not
        cached yet, each once.

        Point-side entries use the markings directly; component-side ones
        absorb the branch's conjugator, mirroring the edge relation of the
        presentation."""
        if columns is not self._columns:
            self._columns = columns
            self._shifted = {}
            self._vertex_columns = [{} for _ in self._entries]
            self._checked_parts = {}
            self._checked_tables = set()
        mul, inv = self.group.table, self.group.inverse
        shifted = self._shifted
        tables, conjugators = family_key
        hits = []
        for i, (table, incident, cache) in enumerate(
            zip(tables, self.presentation.gog.incidence, self._vertex_columns)
        ):
            ends = tuple([conjugators[b] for b, end in incident if end])
            hit = cache.get((table, ends))
            if hit is None:
                # each marking column as seen from this vertex: m at a point
                # end, m . c^-1 at a component end
                seen = []
                for b, end in incident:
                    if not end:
                        seen.append(columns[b])
                        continue
                    c = conjugators[b]
                    if (b, c) not in shifted:
                        shifted[b, c] = list(map([row[inv[c]] for row in mul].__getitem__,
                                                 columns[b]))
                    seen.append(shifted[b, c])
                keys = list(zip(itertools.repeat(table), zip(*seen)))
                cache[table, ends] = hit = _memo_column(self._entries[i], keys,
                                                        lambda key: self._entry(i, *key))
            hits.append(hit)
        return hits

    def _flag_part(self, flags: tuple) -> tuple:
        """What the inverse reads from a local datum's flags alone (one flag
        tuple per vertex): the vertex gauges, the markings and the
        conjugators of the global functor; memoized on the flags."""
        G = self.group
        mul, inv = G.table, G.inverse
        presentation = self.presentation
        branch_ends = presentation.gog.branch_ends

        # gauges along the tree, each vertex from the one that reached it
        gauges = [G.identity] * len(flags)
        for v, v_slot, w, w_slot in presentation.tree_steps:
            gauges[v] = mul[mul[inv[flags[v][v_slot]]][flags[w][w_slot]]][gauges[w]]
        # one right translation pins the least branch's marking to the identity
        p0, p0_slot = branch_ends[0][:2]
        shift = inv[mul[flags[p0][p0_slot]][gauges[p0]]]
        gauges = tuple([mul[a][shift] for a in gauges])

        markings = tuple([mul[flags[p][p_slot]][gauges[p]] for p, p_slot, _, _ in branch_ends])
        conjugators = tuple([
            mul[mul[inv[gauges[u]]][inv[flags[u][u_slot]]]][m]
            for (_, _, u, u_slot), m in zip(branch_ends, markings)
        ])
        if markings[0] != G.identity:
            raise AssertionError("reconstruction failed to pin the base marking")
        for b in presentation.tree_branches:
            if conjugators[b] != G.identity:
                raise AssertionError("reconstruction failed to trivialize a tree letter")
        self._flag_parts[flags] = part = (gauges, markings, conjugators)
        return part

    def _gauged_table(self, table: tuple, gauge: int) -> tuple:
        """A hom table conjugated by the inverse of a gauge; memoized."""
        row = self._conj[self.group.inverse[gauge]]
        self._gauged[table, gauge] = hit = tuple([row[x] for x in table])
        return hit

    def inverse(self, datum: tuple) -> tuple[tuple, tuple[int, ...]]:
        """Reconstruct the unique global functor, as a family key and
        markings, restricting to the given local datum (which must agree
        over every branch)."""
        flags = tuple([f for _, f in datum])
        gauges, markings, conjugators = self._flag_parts.get(flags) or self._flag_part(flags)
        gauged = self._gauged
        tables = tuple([
            gauged.get((table, a)) or self._gauged_table(table, a)
            for (table, _), a in zip(datum, gauges)
        ])
        return (tables, conjugators), markings

    def check_round_trips(self, family_key: tuple, hits: Sequence[list],
                          markings: list[tuple]) -> None:
        """Check global functors of one family, given by their markings and
        by the entry columns the latest ``forward_columns`` call returned for
        the columns of those markings: ``inverse`` takes each local datum
        back to the family key and its markings.  Raises ``AssertionError``
        at the first check that fails.

        Only the data's columns are read: the flags columns through the
        flag-part memo, once per conjugator tuple, and the table columns
        through the gauged-table memo, once per vertex, hom table and
        conjugator tuple."""
        item = operator.itemgetter
        tables, conjugators = family_key
        gauges = self._checked_parts.get(conjugators)
        if gauges is None:
            flags = list(zip(*[map(item(1), entries) for entries in hits]))
            parts = _memo_column(self._flag_parts, flags, self._flag_part)
            if (list(map(item(1), parts)) != markings
                    or list(map(item(2), parts)).count(conjugators) != len(parts)):
                raise AssertionError("inverse natural map failed the round trip")
            self._checked_parts[conjugators] = gauges = list(zip(*map(item(0), parts)))
        gauged, checked = self._gauged, self._checked_tables
        for i, (table, entries, column) in enumerate(zip(tables, hits, gauges)):
            if (i, table, conjugators) in checked:
                continue
            for pair in set(zip(map(item(0), entries), column)):
                if (gauged.get(pair) or self._gauged_table(*pair)) != table:
                    raise AssertionError("inverse natural map failed the round trip")
            checked.add((i, table, conjugators))


def natural_map(
    presentation: VanKampenPresentation,
    group: FiniteGroup,
    family_key: tuple,
    markings: Sequence[int],
) -> tuple:
    """Restrict a global functor (family key + markings) to the vertex
    groupoids: the local datum of ``_NaturalMaps.forward``."""
    return _NaturalMaps(presentation, group).forward(family_key, markings)


def inverse_natural_map(
    presentation: VanKampenPresentation,
    group: FiniteGroup,
    datum: tuple,
) -> tuple[tuple, tuple[int, ...]]:
    """Reconstruct the unique global functor, as a family key and markings,
    restricting to the given local datum (which must agree over every
    branch): ``_NaturalMaps.inverse``."""
    return _NaturalMaps(presentation, group).inverse(datum)


def _enumerate_fiber_data(gog: GraphOfFiniteGroups, group: FiniteGroup) -> list[tuple]:
    """All branch-compatible local data, by a join over the vertices in
    canonical order."""
    G = group
    tables = [
        enumerate_homs(group_presentation(gog.vertex_groups[v]), G) for v in gog.graph.vertices
    ]
    # a vertex has its hom tables times |G|^(branches - 1) flag tuples; the
    # caller's gauge check keeps that power small
    refuse_past(
        "the fiber-product join, the product of the vertex candidate counts,",
        (len(t) * G.order ** (len(incident) - 1) for t, incident in zip(tables, gog.incidence)),
        FUNCTOR_SET_CAP,
    )
    per_vertex = [
        [(table, (G.identity, *combo)) for table in vertex_tables
         for combo in itertools.product(range(G.order), repeat=len(incident) - 1)]
        for vertex_tables, incident in zip(tables, gog.incidence)
    ]
    restrict = functools.partial(_restriction, gog, G.conjugation_table())
    return backtrack_vertices(gog, per_vertex, restrict)


# ---------------------------------------------------------------------------
# Patching problems


class PatchingProblem:
    """An object of the 2-fiber product of the local torsor categories.

    Every vertex carries a torsor marked by its incident branches; every
    branch carries a singly pointed torsor.  The problem is compatible when
    each branch datum receives the (unique) point-preserving morphism from
    both of its endpoints' restrictions; those morphisms are the connecting
    isomorphisms of the product.  All the categories are setoids, so the
    branch data are forced up to isomorphism (the point-side restrictions
    will do) and a compatible object's class is the tuple of its vertex
    classes (``test_two_fiber_object_classes_match_the_fiber_product``).
    Compatible objects glue to global torsors (``solve_patching``).
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

    def check_compatibility(self) -> None:
        """Raise a ``PatchingError`` naming the first branch whose datum does
        not receive a morphism from one of its ends' restrictions."""
        for e in self.gog.graph.edge_names():
            for v, side in (
                (self.gog.graph.point_end(e), "to_point"),
                (self.gog.graph.component_end(e), "to_component"),
            ):
                alpha = self.gog.edge_maps[e][side]
                restricted = self.vertex_data[v].restrict_to_branch(e, alpha)
                if torsor_morphisms(restricted, self.branch_data[e]) is None:
                    raise PatchingError(
                        e,
                        f"branch {e}: restriction of the datum at {v} does not "
                        "match the branch datum",
                    )


def solve_patching(problem: PatchingProblem) -> tuple[HomFamily, dict[str, int]]:
    """Solve a compatible patching problem: the global hom family and its
    markings by branch name.

    Each vertex torsor is trivialized to its functor on the vertex groupoid
    (``hom_from_torsor``); compatibility makes these a branch-agreeing
    family, and the inverse of the restriction dictionary produces the
    unique global hom family with markings.  The torsors of the functors it
    induces (``torsor_from_hom``) are checked to be isomorphic to the
    problem's.  This is torsor patching: compatible local torsors glue to a
    global one, uniquely (``test_solve_patching_solution_is_unique``).
    """
    problem.check_compatibility()
    gog, G = problem.gog, problem.group
    groupoids = [ModelGroupoid(gog.graph.edges_at(v), gog.vertex_groups[v])
                 for v in gog.graph.vertices]
    # edges_at lists a vertex's branches sorted, the groupoid's object order
    datum = tuple(hom_from_torsor(problem.vertex_data[v], groupoid).key()
                  for v, groupoid in zip(gog.graph.vertices, groupoids))
    maps = _NaturalMaps(build_presentation(gog), G)
    key, markings = maps.inverse(datum)
    family = HomFamily(gog, G, key)

    induced = maps.forward(key, markings)
    for v, groupoid, (table, flags) in zip(gog.graph.vertices, groupoids, induced):
        functor = GroupoidFunctor(groupoid, G, GroupHom(groupoid.group, G, table),
                                  dict(zip(groupoid.objects, flags)))
        if torsor_morphisms(torsor_from_hom(functor), problem.vertex_data[v]) is None:
            raise AssertionError(f"induced datum at {v} fails to match the problem")
    return family, dict(zip(gog.graph.edge_names(), markings))


# ---------------------------------------------------------------------------
# Setoid equivalence and groupoid pushout verifier


def verify_groupoid_pushout(
    gog: GraphOfFiniteGroups, group: FiniteGroup
) -> tuple[list[str], dict]:
    """Check torsor patching in both of its forms.

    Restriction must be a bijection between isomorphism classes of global
    multipointed torsors (functors from the global groupoid into BG) and
    branch-agreeing families of local ones (functor families on the vertex
    groupoids), and the class count with the marking gauge removed must equal
    the presentation hom count.  Both sides are enumerated independently.

    The global side runs one pass per presentation hom over all its
    markings, as columns (``_NaturalMaps.forward_columns``): every global
    functor gets its local datum and the round trip (``check_round_trips``).
    The marking columns are one object for the whole call, so the column
    caches of ``_NaturalMaps`` hold: a hom pays for the vertex columns, flag
    parts and gauged tables that no earlier hom shared with it, and for
    removing its data from the set of fiber data not matched yet.

    One set decides the bijection: each hom's data must remove exactly the
    marking gauge from the fiber data not matched yet, and none may be left.
    The join emits only branch-agreeing data, so a datum that removes one
    agrees over every branch; a datum outside the fiber, or one that an
    earlier global functor took, removes less than the gauge.  The setoid
    equivalence asks that restriction be a bijection on classes with as many
    global classes as fiber classes; the groupoid pushout asks that it be a
    bijection with as many fiber classes as presentation homs.  Global
    classes are the presentation homs, so both reduce to ``passed``.
    Returns the report's human lines and its machine block, which has no
    ``law``: the caller names the law it checks."""
    G = group
    free_branches = len(gog.graph.edge_names()) - 1
    # the trivial hom always exists, so the global side has at least gauge
    # elements: refuse before enumerating
    gauge = refuse_past(f"the marking gauge {G.order}^{free_branches}",
                        itertools.repeat(G.order, free_branches), FUNCTOR_SET_CAP)
    presentation = build_presentation(gog)
    pi1 = [
        presentation.family_key(a) for a in enumerate_homs(presentation.presentation, G)
    ]
    lhs_raw = refuse_past(f"the global functor count, {len(pi1)} x {gauge},",
                          (len(pi1), gauge), FUNCTOR_SET_CAP)

    fiber = _enumerate_fiber_data(gog, G)
    unmatched = set(fiber)
    if len(unmatched) != len(fiber):
        raise AssertionError("fiber enumeration produced duplicates")

    markings = [(G.identity, *combo)
                for combo in itertools.product(range(G.order), repeat=free_branches)]
    columns = tuple(zip(*markings))
    maps = _NaturalMaps(presentation, G)
    bijective = True
    for key in pi1:
        hits = maps.forward_columns(key, columns)
        left = len(unmatched)
        unmatched.difference_update(zip(*hits))
        bijective = bijective and left - len(unmatched) == gauge
        maps.check_round_trips(key, hits, markings)
    bijective = bijective and not unmatched

    fiber_raw = len(fiber)
    if fiber_raw % gauge != 0:
        raise AssertionError("fiber count is not a multiple of the marking gauge")
    fiber_classes = fiber_raw // gauge
    agreement = fiber_classes == len(pi1)
    lines = [
        f"global torsor classes = presentation homs: {len(pi1)}",
        f"patching-family classes = pushout functors: {fiber_classes}",
        f"counts agree: {agreement}",
        f"raw functor sets: global {lhs_raw}, fiber product {fiber_raw}",
        f"point-marking gauge: {gauge}",
        f"restriction functor bijective on classes: {bijective}",
        f"round trips verified: {lhs_raw} (every element)",
    ]
    machine = {
        "global_classes": len(pi1),
        "fiber_classes": fiber_classes,
        "functor_count": fiber_classes,
        "pi1_count": len(pi1),
        "agreement": agreement,
        "global_raw": lhs_raw,
        "fiber_raw": fiber_raw,
        "marking_gauge": gauge,
        "bijective": bijective,
        "roundtrip_checked": lhs_raw,
        "roundtrip_stride": 1,
        "passed": bijective and agreement,
    }
    return lines, machine


# The setoid-equivalence law is decided by the same comparison; the name stays
# bound because perfbench/tracer.py traces it.
verify_setoid_equivalence = verify_groupoid_pushout

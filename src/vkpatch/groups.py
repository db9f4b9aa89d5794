"""Exact finite-group arithmetic, presentations, and homomorphism enumeration.

A group is an immutable multiplication table over a canonically ordered
element list; all downstream machinery (graph-of-groups solvers, torsor
patching) manipulates element *indices* into these tables, so composition
stays exact and serialization deterministic.  Multiplication composes like
functions: for permutation groups ``mul(a, b)`` means "apply b first, then a".

Practical ceiling is around order 200: construction checks the axioms on
every triple.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence

from .graphs import read_int, refuse_past

# ``make_group`` refuses a group of larger order before building any table.
GROUP_ORDER_CAP = 200

# ``enumerate_homs`` refuses a search that has tried more candidate images
# than this; theta (S3, S3) into S4, 665,856 homs, tries 927,984.
HOM_SEARCH_CAP = 2_000_000


class GroupAxiomError(ValueError):
    """An explicit multiplication table violates the group axioms."""


class FiniteGroup:
    """A finite group given by labeled elements and a full Cayley table."""

    __slots__ = ("name", "elements", "table", "identity", "inverse", "_index", "_conjugation")

    def __init__(self, name: str, elements: Sequence[str], table: Sequence[Sequence[int]]):
        elements = tuple(str(e) for e in elements)
        n = len(elements)
        if n == 0:
            raise GroupAxiomError("a group needs at least one element")
        if len(set(elements)) != n:
            raise GroupAxiomError(f"duplicate element labels in {name!r}")
        rows = tuple(tuple(int(x) for x in row) for row in table)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise GroupAxiomError(f"multiplication table of {name!r} is not {n}x{n}")
        for row in rows:
            for x in row:
                if not 0 <= x < n:
                    raise GroupAxiomError(f"table entry {x} out of range in {name!r}")

        identity = None
        for e in range(n):
            if all(rows[e][a] == a and rows[a][e] == a for a in range(n)):
                identity = e
                break
        if identity is None:
            raise GroupAxiomError(f"{name!r} has no two-sided identity")

        inverse = [None] * n
        for a in range(n):
            for b in range(n):
                if rows[a][b] == identity and rows[b][a] == identity:
                    inverse[a] = b
                    break
            if inverse[a] is None:
                raise GroupAxiomError(f"element {elements[a]!r} of {name!r} has no inverse")

        for a in range(n):
            for b in range(n):
                ab = rows[a][b]
                row_ab = rows[ab]
                row_b = rows[b]
                for c in range(n):
                    if row_ab[c] != rows[a][row_b[c]]:
                        raise GroupAxiomError(
                            f"associativity fails in {name!r} on triple "
                            f"({elements[a]}, {elements[b]}, {elements[c]})"
                        )

        self.name = name
        self.elements = elements
        self.table = rows
        self.identity = identity
        self.inverse = tuple(inverse)
        self._index = {e: i for i, e in enumerate(elements)}
        self._conjugation = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"{label!r} is not an element of {self.name}") from None

    def label(self, a: int) -> str:
        return self.elements[a]

    def conjugate(self, g: int, a: int) -> int:
        """g a g^-1."""
        return self.table[self.table[g][a]][self.inverse[g]]

    def conjugation_table(self) -> tuple[tuple[int, ...], ...]:
        """``conjugation_table()[g][a]`` is g a g^-1; built on first use."""
        if self._conjugation is None:
            self._conjugation = tuple(
                tuple(self.conjugate(g, a) for a in range(self.order))
                for g in range(self.order)
            )
        return self._conjugation

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.elements == other.elements and self.table == other.table

    def __hash__(self) -> int:
        return hash((self.elements, self.table))


def cyclic(n: int, name: str | None = None) -> FiniteGroup:
    """Cyclic group of order n, written additively mod n."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(name or f"C{n}", [str(i) for i in range(n)], table)


def symmetric(n: int, name: str | None = None) -> FiniteGroup:
    """Symmetric group on {0,..,n-1}; elements are image strings in lex order."""
    if n < 1:
        raise ValueError(f"symmetric group degree must be >= 1, got {n}")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(a[b[i]] for i in range(n))] for b in perms]
        for a in perms
    ]
    labels = ["".join(str(i) for i in p) for p in perms]
    return FiniteGroup(name or f"S{n}", labels, table)


def direct_product(*factors: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Direct product with elements ordered lexicographically by factor."""
    if not factors:
        raise ValueError("direct product needs at least one factor")
    tuples = list(itertools.product(*[range(g.order) for g in factors]))
    index = {t: i for i, t in enumerate(tuples)}
    table = [
        [
            index[tuple(g.table[a[k]][b[k]] for k, g in enumerate(factors))]
            for b in tuples
        ]
        for a in tuples
    ]
    labels = [
        "(" + ",".join(g.label(a[k]) for k, g in enumerate(factors)) + ")"
        for a in tuples
    ]
    return FiniteGroup(name or "x".join(g.name for g in factors), labels, table)


def from_table(elements: Sequence[str], table: Sequence[Sequence[str]], name: str = "G") -> FiniteGroup:
    """Build a group from a label-valued multiplication table (validated)."""
    elems = [str(e) for e in elements]
    lookup = {e: i for i, e in enumerate(elems)}
    if len(lookup) != len(elems):
        raise GroupAxiomError(f"duplicate element labels in {name!r}")
    rows = []
    for row in table:
        idx_row = []
        for entry in row:
            entry = str(entry)
            if entry not in lookup:
                raise GroupAxiomError(f"table entry {entry!r} is not a declared element of {name!r}")
            idx_row.append(lookup[entry])
        rows.append(idx_row)
    return FiniteGroup(name, elems, rows)


def make_group(descriptor: Mapping, name: str = "G") -> FiniteGroup:
    """Build a group from a structured descriptor.

    Accepted shapes: ``{"cyclic": n}``, ``{"symmetric": n}``,
    ``{"product": [descriptor, ...]}``, and
    ``{"table": {"elements": [...], "table": [[...]]}}``.  A group of order
    above ``GROUP_ORDER_CAP`` is refused before any table is built.
    """
    if not isinstance(descriptor, Mapping) or len(descriptor) != 1:
        raise ValueError(f"group descriptor must have exactly one key, got {descriptor!r}")
    kind, value = next(iter(descriptor.items()))
    what = f"the order of the {kind} group"
    if kind == "cyclic":
        n = read_int(value, kind)
        refuse_past(what, [n], GROUP_ORDER_CAP)
        return cyclic(n, name=name)
    if kind == "symmetric":
        n = read_int(value, kind)
        refuse_past(what, range(2, n + 1), GROUP_ORDER_CAP)
        return symmetric(n, name=name)
    if kind == "product":
        factors = [make_group(d, name=f"{name}.{k}") for k, d in enumerate(value)]
        refuse_past(what, [g.order for g in factors], GROUP_ORDER_CAP)
        return direct_product(*factors, name=name)
    if kind == "table":
        refuse_past(what, [len(value["elements"])], GROUP_ORDER_CAP)
        return from_table(value["elements"], value["table"], name=name)
    raise ValueError(f"unknown group descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# Presentations


class Presentation:
    """A finite presentation: generator symbols and relator words.

    A relator is a tuple of nonzero signed integers: ``i`` means generator
    ``i-1`` and ``-i`` its inverse.  Every relator evaluates to the identity
    in the presented group.  Relators refer to positions, so the symbols are
    display labels only and may repeat.
    """

    __slots__ = ("generators", "relators")

    def __init__(self, generators: tuple[str, ...], relators: tuple[tuple[int, ...], ...]):
        n = len(generators)
        for rel in relators:
            for letter in rel:
                if letter == 0 or abs(letter) > n:
                    raise ValueError(f"relator letter {letter} refers to no declared generator")
        self.generators = generators
        self.relators = relators


def enumerate_homs(source: Presentation, target: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """All maps generator -> target element under which every relator dies.

    Exhaustive over ``|target|^r`` candidates, pruned by checking each
    relator as soon as the last generator it mentions has been assigned.
    When one of those relators mentions that generator exactly once, the
    images already assigned force its value (forward checking), so only
    that value is tried against the rest.  Output is in lexicographic order
    of the image tuples, so it is deterministic and canonical.  A search
    that has tried more than ``HOM_SEARCH_CAP`` candidates, counted
    |target| at a time as each partial assignment is extended, raises
    ``ScaleError``; the count is the same whether a value is forced or not.
    """
    gens = source.generators
    r = len(gens)
    n = target.order
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(r)]
    for rel in source.relators:
        if not rel:
            continue
        buckets[max(abs(letter) for letter in rel) - 1].append(rel)
    # per depth: the word w2 w1 and the sign of the letter of a relator
    # w1 x^sign w2 that mentions the new generator x once (x^sign is then
    # the inverse of w2 w1), or None; that relator leaves its bucket
    solved: list[tuple[tuple[int, ...], int] | None] = [None] * r
    for depth, bucket in enumerate(buckets):
        for k, rel in enumerate(bucket):
            at = [i for i, letter in enumerate(rel) if abs(letter) == depth + 1]
            if len(at) == 1:
                i = at[0]
                solved[depth] = (rel[i + 1:] + rel[:i], rel[i])
                del bucket[k]
                break

    table = target.table
    inv = target.inverse
    identity = target.identity
    # vals[k] is the image of generator k (from 1) and vals[-k] its inverse,
    # so a relator letter indexes its value directly
    vals = [identity] * (2 * r + 1)
    out: list[tuple[int, ...]] = []
    what = f"the hom search into {target.name}"
    tried = 0
    if not r:
        return ((),)
    # one iterator of candidate images per generator from the first to the
    # one being chosen, so the depth of the search is not the call depth
    stack: list = []

    def push(depth: int) -> None:
        nonlocal tried
        tried += n
        refuse_past(what, (tried,), HOM_SEARCH_CAP)
        if solved[depth] is None:
            stack.append(iter(range(n)))
            return
        word, sign = solved[depth]
        acc = identity
        for letter in word:
            acc = table[acc][vals[letter]]
        stack.append(iter((inv[acc] if sign > 0 else acc,)))

    # when no relator is left to check at the last generator (it is free, or
    # solved by its one relator), each of its candidates is a leaf
    free_leaves = not buckets[r - 1]
    push(0)
    while stack:
        depth = len(stack) - 1
        if free_leaves and depth + 1 == r:
            head = tuple(vals[1:r])
            out.extend([head + (cand,) for cand in stack.pop()])
            continue
        bucket = buckets[depth]
        for cand in stack[-1]:
            vals[depth + 1] = cand
            vals[-depth - 1] = inv[cand]
            for rel in bucket:
                acc = identity
                for letter in rel:
                    acc = table[acc][vals[letter]]
                if acc != identity:
                    break
            else:
                if depth + 1 < r:
                    push(depth + 1)
                    break
                out.append(tuple(vals[1:r + 1]))
        else:
            stack.pop()
    return tuple(out)


def group_presentation(group: FiniteGroup) -> Presentation:
    """Present a group on its full element set with all table relations.

    Generator ``g:<label>`` stands for the element with that label; the
    relators are one word ``a b (ab)^-1`` per pair, so homomorphisms from the
    presented group to any target are exactly the group homomorphisms.
    """
    n = group.order
    gens = tuple(f"g:{lbl}" for lbl in group.elements)
    rels = []
    for a in range(n):
        for b in range(n):
            rels.append((a + 1, b + 1, -(group.table[a][b] + 1)))
    return Presentation(gens, tuple(rels))


# ---------------------------------------------------------------------------
# Homomorphisms


class GroupHom:
    """A homomorphism between finite groups as an element-index table."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, mapping: Sequence[int]):
        mapping = tuple(int(x) for x in mapping)
        if len(mapping) != source.order:
            raise ValueError("mapping length does not match source order")
        for x in mapping:
            if not 0 <= x < target.order:
                raise ValueError(f"image index {x} not in target")
        if mapping[source.identity] != target.identity:
            raise ValueError("map does not send identity to identity")
        for a in range(source.order):
            for b in range(source.order):
                if mapping[source.table[a][b]] != target.table[mapping[a]][mapping[b]]:
                    raise ValueError(
                        f"not multiplicative on ({source.label(a)}, {source.label(b)})"
                    )
        self.source = source
        self.target = target
        self.mapping = mapping

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == self.source.order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupHom):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.mapping == other.mapping
        )

    @classmethod
    def trivial(cls, source: FiniteGroup, target: FiniteGroup) -> "GroupHom":
        return cls(source, target, [target.identity] * source.order)

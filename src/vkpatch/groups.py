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
from collections.abc import Iterator, Mapping, Sequence

from .graphs import read_int, refuse_past

# ``make_group`` refuses a group of larger order before building any table.
GROUP_ORDER_CAP = 200

# ``iter_homs`` refuses a search that charges more candidate images than
# this; theta (S3, S3) into S4, 665,856 homs, charges 927,984.
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


def iter_homs(source: Presentation, target: FiniteGroup) -> tuple[int, Iterator[tuple[int, ...]]]:
    """The number of maps generator -> target element under which every
    relator dies, and those maps as a stream, in lexicographic order of the
    image tuples, so deterministic and canonical.

    Each relator is checked as soon as the last generator it mentions has
    been assigned.  When one of those relators mentions that generator
    exactly once, the images already assigned force its value (forward
    checking), so only that value is tried against the rest.

    The interface of a generator is the set of earlier generators that some
    relator checked or solved at it or later mentions: the search from a
    generator on sees the images before it only through its interface.  The
    generators split into stretches, one starting at each generator whose
    interface is no larger than the previous one's: with trivial edge groups
    that is each vertex block of a graph-of-groups presentation.  Each
    stretch is solved once for each value of its interface, its boundary
    state, by dynamic programming over the stretches (bucket elimination,
    Dechter 1999).  One backward pass over these tables gives the hom count,
    and the stream walks the homs from the stored solutions.

    The search budget counts |target| candidates as each partial assignment
    is extended, the same whether a value is forced or not; a reused
    solution is charged what solving it charged, so the count is that of a
    search that solves every stretch again on every path.  A count past
    ``HOM_SEARCH_CAP`` raises ``ScaleError`` from this call, not the stream.
    """
    gens = source.generators
    r = len(gens)
    n = target.order
    if not r:
        return 1, iter(((),))
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

    # interfaces[d]: the generators before d, ascending, that a relator
    # checked or solved at depth d or later mentions
    interfaces: list[tuple[int, ...]] = [()] * r
    live: set[int] = set()
    for depth in reversed(range(r)):
        for rel in buckets[depth]:
            live.update(abs(letter) - 1 for letter in rel)
        if solved[depth] is not None:
            live.update(abs(letter) - 1 for letter in solved[depth][0])
        live.discard(depth)
        interfaces[depth] = tuple(sorted(live))
    starts = [d for d in range(r) if not d or len(interfaces[d]) <= len(interfaces[d - 1])]
    ends = starts[1:] + [r]

    table = target.table
    inv = target.inverse
    identity = target.identity
    # vals[k] is the image of generator k (from 1) and vals[-k] its inverse,
    # so a relator letter indexes its value directly
    vals = [identity] * (2 * r + 1)
    what = f"the hom search into {target.name}"
    tried = 0
    # one iterator of candidate images per generator of the stretch being
    # solved, up to the one being chosen, so the depth is not the call depth
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

    def solve(a: int, b: int) -> list[tuple[int, ...]]:
        """The images of generators a..b-1 under which every relator checked
        there dies, for the interface images already in ``vals``."""
        found: list[tuple[int, ...]] = []
        push(a)
        while stack:
            depth = a + len(stack) - 1
            bucket = buckets[depth]
            # with no relator left to check at the stretch's last generator,
            # each of its candidates is a solution
            if depth + 1 == b and not bucket:
                head = tuple(vals[a + 1:b])
                found.extend([head + (cand,) for cand in stack.pop()])
                continue
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
                    if depth + 1 < b:
                        push(depth + 1)
                        break
                    found.append(tuple(vals[a + 1:b + 1]))
            else:
                stack.pop()
        return found

    # per stretch, in the order its boundary states were first reached: the
    # solutions, the state each one hands the next stretch (its position in
    # that stretch's lists), and the candidates solving it charged
    states: list[dict[tuple[int, ...], int]] = [{} for _ in starts]
    solutions: list[list[list[tuple[int, ...]]]] = [[] for _ in starts]
    nexts: list[list[list[int]]] = [[] for _ in starts]
    charges: list[list[int]] = [[] for _ in starts]
    states[0][()] = 0
    last = len(starts) - 1
    for k, (a, b) in enumerate(zip(starts, ends)):
        # the next interface's generators, as positions in state + solution
        carry = () if k == last else tuple(
            interfaces[a].index(g) if g < a else len(interfaces[a]) + g - a
            for g in interfaces[b]
        )
        for state in states[k]:
            for g, x in zip(interfaces[a], state):
                vals[g + 1] = x
                vals[-g - 1] = inv[x]
            before = tried
            found = solve(a, b)
            charges[k].append(tried - before)
            solutions[k].append(found)
            if k < last:
                following = states[k + 1]
                handed = []
                for sol in found:
                    full = state + sol
                    handed.append(following.setdefault(tuple([full[i] for i in carry]),
                                                       len(following)))
                nexts[k].append(handed)

    # the candidates charged and the homs found from each stretch and state
    # to the end, reusing the figures of the states each solution hands on
    totals = charges[last]
    counts = [len(found) for found in solutions[last]]
    for k in reversed(range(last)):
        totals = [c + sum(totals[j] for j in following)
                  for c, following in zip(charges[k], nexts[k])]
        counts = [sum(counts[j] for j in following) for following in nexts[k]]
    refuse_past(what, (totals[0],), HOM_SEARCH_CAP)
    return counts[0], _walk_stretches(solutions, nexts)


def _walk_stretches(solutions: list, nexts: list) -> Iterator[tuple[int, ...]]:
    """The homs from the stretch tables of ``iter_homs``, in its order: each
    solution of the first stretch, then the homs of the rest from the state
    it hands on."""
    last = len(solutions) - 1
    if not last:
        yield from solutions[0][0]
        return
    # one iterator of (solution, next state) per stretch from the first to
    # the one being chosen, all but the last, so the depth is not the call
    # depth
    heads = [()] * last
    walk = [iter(zip(solutions[0][0], nexts[0][0]))]
    while walk:
        k = len(walk) - 1
        for sol, j in walk[-1]:
            head = heads[k] + sol
            if k + 1 == last:
                yield from map(head.__add__, solutions[last][j])
                continue
            heads[k + 1] = head
            walk.append(iter(zip(solutions[k + 1][j], nexts[k + 1][j])))
            break
        else:
            walk.pop()


def enumerate_homs(source: Presentation, target: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The homs of ``iter_homs`` as a tuple, for callers that need them twice."""
    return tuple(iter_homs(source, target)[1])


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

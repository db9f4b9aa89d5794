"""Degree-p descent across k1((t)) inside k2((t)), exactly at desk scale.

Artin-Schreier classes: the extension of k2((t)) generated by a root of
Y^p - Y - alpha/t comes from a degree-p Galois extension of k1((t)) exactly
when alpha/t is equivalent, modulo gamma^p - gamma over k2((t)), to a series
with k1 coefficients; collapsing the principal part shows this happens iff
alpha lies in k1.  The criterion decides by membership; the oracle
independently searches bounded-support candidates beta.  The Artin-Schreier
equation is triangular, so only the beta coefficients at -1..-(support // p)
are free and every deeper one is forced (Serre, *Local Fields*, ch. IV): the
oracle walks those free choices, answers as the exhaustive product-order
search would, and verifies its witness exactly.

The mixed-characteristic analogue tests p-th power classes at the residue
level: for f = g^p + x with x a uniformizer, the extension descends only if
f e^p is algebraic over the base ring for some unit e, which the desk model
checks by bounded-degree minimal-polynomial search over truncated power
series.  A relation that holds to the truncation order holds to every lower
order, so each candidate's system is made one order at a time, as its one
elimination reads it, and a candidate is rejected at the first order whose
rows have full rank (van der Hoeven, "Relax, but don't be too lazy",
*J. Symbolic Comput.* 34(6), 2002).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence

from .fields import FiniteField, RationalFunctionField, poly_add, poly_mul, poly_strip
from .graphs import PRINTABLE_CAP, ScaleError, refuse_past
from .series import LaurentSeries

DESCENDS = "DESCENDS"
FAILS = "FAILS"
FAILS_WITHIN_BOUNDS = "FAILS-WITHIN-BOUNDS"
OBSTRUCTED_WITHIN_BOUNDS = "OBSTRUCTED-WITHIN-BOUNDS"
INCONCLUSIVE = "INCONCLUSIVE"

# The Artin-Schreier oracle refuses a walk of more than this many steps,
# |k1|^(support_bound // p) free choices times support_bound exponents.
AS_CANDIDATE_CAP = 1_000_000

# The Kummer search stops before its elimination work, counted as the rows it
# has read times unknowns squared, passes this.
KUMMER_WORK_CAP = 25_000_000


class ASInstance:
    """Extension datum for Y^p - Y - alpha/t over k2((t)) relative to k1.

    k1 is the subfield GF(p^k1_degree) of a finite k2 = GF(p^e) with
    k1_degree | e or, when ``k1_degree`` is None, the constant field of a
    rational function field k2 = GF(q)(s).  Either way k1 is finite.
    """

    __slots__ = ("p", "k2", "k1_degree", "alpha")

    def __init__(self, p: int, k2, k1_degree: int | None, alpha):
        if k2.char != p:
            raise ValueError("coefficient field characteristic must equal p")
        if alpha == k2.zero:
            raise ValueError("alpha must be nonzero")
        self.p = p
        self.k2 = k2
        self.k1_degree = k1_degree
        self.alpha = alpha

    @classmethod
    def finite(cls, p: int, d1: int, d2: int, alpha) -> "ASInstance":
        """k1 = GF(p^d1) inside k2 = GF(p^d2)."""
        if d2 % d1 != 0:
            raise ValueError("k1 must be a subfield: d1 must divide d2")
        k2 = FiniteField(p, d2)
        return cls(p, k2, d1, k2.parse(alpha))

    @classmethod
    def rational(cls, p: int, e: int, alpha) -> "ASInstance":
        """k1 = GF(p^e) inside k2 = GF(p^e)(s)."""
        k2 = RationalFunctionField(FiniteField(p, e))
        return cls(p, k2, None, k2.parse(alpha))

    def in_k1(self, x) -> bool:
        if self.k1_degree is None:
            return self.k2.is_constant(x)
        return self.k2.in_subfield(x, self.k1_degree)

    def k1_elements(self) -> list:
        """All elements of k1 as elements of k2, in increasing order: the
        oracle searches them in this order."""
        if self.k1_degree is None:
            return sorted(self.k2.constant(c) for c in self.k2.base.elements())
        return [x for x in self.k2.elements() if self.k2.in_subfield(x, self.k1_degree)]

    def k1_label(self) -> str:
        if self.k1_degree is None:
            return f"constants {self.k2.base!r}"
        return f"GF({self.p}^{self.k1_degree})"

    def alpha_label(self) -> str:
        return self.k2.label(self.alpha)


def as_descends_galois(instance: ASInstance) -> tuple[list[str], dict]:
    """Decide degree-p Galois descent of Y^p - Y - alpha/t by membership.

    alpha in k1 gives the explicit witness beta = alpha/t; otherwise descent
    fails.  A non-constant alpha in a rational k2 is transcendental over k1,
    and then no degree-p extension at all can induce the extension (so the
    certificate widens the scope).  Returns the report lines and the machine
    block.
    """
    k2 = instance.k2
    k1 = instance.k1_label()
    beta = None
    if instance.in_k1(instance.alpha):
        verdict, scope = DESCENDS, "galois-degree-p"
        beta = LaurentSeries(k2, {-1: instance.alpha}).render()
        cert = [
            f"alpha = {instance.alpha_label()} lies in k1 = {k1}",
            "witness: beta = alpha/t with gamma = 0",
        ]
    elif instance.k1_degree is not None:
        verdict, scope = FAILS, "galois-degree-p"
        power = k2.pow(instance.alpha, instance.p**instance.k1_degree)
        cert = [
            f"alpha is not in k1 = {k1}: alpha^(p^{instance.k1_degree}) = "
            f"{k2.label(power)} differs from alpha = {instance.alpha_label()}",
            "no degree-p Galois extension of k1((t)) induces the extension",
        ]
    else:
        verdict, scope = FAILS, "any-degree-p"
        cert = [
            f"alpha = {instance.alpha_label()} is transcendental over k1 = {k1}",
            "no degree-p extension of k1((t)) at all induces the extension",
        ]
    lines = [f"verdict: {verdict} ({scope})"] + [f"  {line}" for line in cert]
    if beta is not None:
        lines.append(f"  beta = {beta}")
    machine = {
        "law": "artin-schreier-descent",
        "verdict": verdict,
        "scope": scope,
        "alpha_in_k1": beta is not None,
        "beta": beta,
        "certificate": cert,
    }
    return lines, machine


class SearchReport:
    """An exact search's report lines and machine block, as every law
    returns them, and the block's ``candidates_tried`` beside them, which
    the benchmark tracer reads as an attribute."""

    __slots__ = ("lines", "machine", "candidates_tried")

    def __init__(self, lines: list, machine: dict):
        self.lines = lines
        self.machine = machine
        self.candidates_tried = machine["candidates_tried"]


def _oracle_report(verdict: str, tried: int, support_bound: int, note: str,
                   witness: tuple[LaurentSeries, LaurentSeries] | None = None) -> SearchReport:
    """The AS oracle's lines and block; a witness (beta, gamma) is rendered
    once for both."""
    beta = gamma = None
    lines = [
        f"oracle verdict: {verdict}",
        f"  searched {tried} candidate beta (support up to t^-{support_bound})",
    ]
    if witness is not None:
        beta, gamma = (series.render() for series in witness)
        lines += [f"  beta = {beta}", f"  gamma = {gamma}"]
    lines.append(f"  {note}")
    return SearchReport(lines, {
        "law": "artin-schreier-oracle",
        "verdict": verdict,
        "beta": beta,
        "gamma": gamma,
        "candidates_tried": tried,
        "support_bound": support_bound,
        "note": note,
    })


def _valid_betas(instance: ASInstance, support_bound: int):
    """Every beta over k1 on exponents -support_bound..-1 with alpha/t - beta
    in the image of gamma -> gamma^p - gamma, with its gamma.

    Write x = alpha/t - beta and h = support_bound // p.  The solve is
    triangular, gamma_m = [p | m] gamma_(m/p)^p - x_m from m = -1 down, and a
    solution exists exactly when gamma has degree <= h in 1/t.  So only the
    coefficients at -1..-h are free; each deeper one is forced, x_m =
    [p | m] gamma_(m/p)^p, and a choice is dropped as soon as a forced beta
    coefficient leaves k1.  Yields (beta, gamma) as dicts by exponent, beta
    over all of -support_bound..-1 and gamma without its zeros, for each of
    the |k1|^h free choices that survives.
    """
    k2, p, alpha = instance.k2, instance.p, instance.alpha
    zero = k2.zero
    h = support_bound // p
    for shallow in itertools.product(instance.k1_elements(), repeat=h):
        beta: dict[int, object] = {}
        gamma: dict[int, object] = {}
        for m in range(-1, -support_bound - 1, -1):
            root = gamma[m // p] if m % p == 0 else zero
            forced = k2.pow(root, p) if root != zero else zero
            shift = alpha if m == -1 else zero  # x_m = shift - beta_m
            if m >= -h:
                b = shallow[-1 - m]
                gamma[m] = k2.sub(forced, k2.sub(shift, b))
            else:
                b = k2.sub(shift, forced)
                if not instance.in_k1(b):
                    break
            beta[m] = b
        else:
            yield beta, {j: c for j, c in gamma.items() if c != zero}


def as_brute_force_oracle(instance: ASInstance, support_bound: int) -> SearchReport:
    """Exact search for beta over k1 with bounded negative support.

    The candidates are the |k1|^support_bound beta in product order, deepest
    exponent first, so low-degree beta come first and the least witness is
    e.g. beta = alpha/t when alpha is in k1.  ``_valid_betas`` lists every
    candidate that admits a solution from |k1|^(support_bound // p) free
    choices; the witness is the least of them in that order, and
    ``candidates_tried`` is its rank plus one, or the whole product space
    when there is none: the count an exhaustive loop would report.  The
    witness gamma is checked exactly against the equation.  An empty search
    space, a walk of more than ``AS_CANDIDATE_CAP`` steps, or a candidate
    count too long to print is INCONCLUSIVE with nothing tried, never a
    silent answer.
    """
    if support_bound < 1:
        return _oracle_report(INCONCLUSIVE, 0, support_bound,
                              "support bound below 1: empty search space")
    k2 = instance.k2
    k1_elements = instance.k1_elements()
    size, free = len(k1_elements), support_bound // instance.p
    try:
        walk = itertools.chain(itertools.repeat(size, free), (support_bound,))
        refuse_past(f"the walk of |k1|^{free} choices x {support_bound} exponents "
                    f"with |k1| = {size}", walk, AS_CANDIDATE_CAP)
        space = refuse_past(f"the candidate count |k1|^{support_bound}",
                            itertools.repeat(size, support_bound), PRINTABLE_CAP)
    except ScaleError as exc:
        return _oracle_report(INCONCLUSIVE, 0, support_bound, f"{exc}: search not run")
    position = {b: i for i, b in enumerate(k1_elements)}

    def rank(beta: dict) -> int:
        r = 0
        for m in range(-support_bound, 0):
            r = r * size + position[beta[m]]
        return r

    valid = ((rank(beta), beta, gamma) for beta, gamma in _valid_betas(instance, support_bound))
    found = min(valid, key=lambda item: item[0], default=None)
    if found is None:
        return _oracle_report(FAILS_WITHIN_BOUNDS, space, support_bound,
                              "no candidate beta admits a solution (each refusal is exact)")
    least, beta_terms, gamma_terms = found
    beta = LaurentSeries(k2, beta_terms)
    gamma = LaurentSeries(k2, gamma_terms)
    x_series = LaurentSeries(k2, {-1: instance.alpha}).sub(beta)
    if not gamma.pow(instance.p).sub(gamma).equals_exact(x_series):
        raise AssertionError("oracle produced an invalid Artin-Schreier witness")
    return _oracle_report(DESCENDS, least + 1, support_bound,
                          "witness verified exactly: gamma^p - gamma = alpha/t - beta",
                          (beta, gamma))


# ---------------------------------------------------------------------------
# The explicit non-Galois descent identity


def _reduce_y_cubed(p: int, poly: dict) -> dict:
    """Rewrite modulo Y^3 = Y + u*T in Z/p[u, T, Y]; keys are (u, T, Y)."""
    work = dict(poly)
    while True:
        high = [key for key in work if key[2] >= 3]
        if not high:
            break
        a, b, c = max(high)
        coeff = work.pop((a, b, c))
        for key in ((a, b, c - 2), (a + 1, b + 1, c - 3)):
            work[key] = (work.get(key, 0) + coeff) % p
            if work[key] == 0:
                del work[key]
    return {k: v for k, v in work.items() if v % p}


def _render_uty(poly: dict) -> str:
    if not poly:
        return "0"
    parts = []
    for (a, b, c), coeff in sorted(poly.items()):
        term = [] if coeff == 1 else [str(coeff)]
        if a:
            term.append(f"u^{a}" if a > 1 else "u")
        if b:
            term.append(f"T^{b}" if b > 1 else "T")
        if c:
            term.append(f"Y^{c}" if c > 1 else "Y")
        parts.append("*".join(term) if term else str(coeff))
    return " + ".join(parts)


def _w_identity_remainder(p: int, w_power: int) -> dict:
    """(Y^w)^3 + (Y^w)^2 + Y^w - u^2 T^2 reduced modulo Y^3 - Y - u T."""
    expr = {(0, 0, k * w_power): 1 for k in (1, 2, 3)}
    expr[(2, 2, 0)] = p - 1
    return _reduce_y_cubed(p, expr)


def verify_example_29() -> tuple[list[str], dict]:
    """Certify the W = Y^2 identity exactly, with two sanity inversions.

    With Y^3 = Y + u/t and x = u^2, the element W = Y^2 satisfies
    W^3 + W^2 + W - x/t^2 = 0 over GF(3); the identity degenerates in any
    other characteristic and for the wrong generator W = Y.  Returns the
    report lines and the machine block.
    """
    p = 3
    remainder = _render_uty(_w_identity_remainder(p, 2))
    char5 = _render_uty(_w_identity_remainder(5, 2))
    wrong = _render_uty(_w_identity_remainder(p, 1))
    lines = [
        f"remainder = {'0' if remainder == '0' else 'NONZERO'}",
        f"remainder over GF(3): {remainder}",
        f"  W^3 = Y^6 = {_render_uty(_reduce_y_cubed(p, {(0, 0, 6): 1}))}",
        f"  W^2 = Y^4 = {_render_uty(_reduce_y_cubed(p, {(0, 0, 4): 1}))}",
        "  W = Y^2",
        f"  sum collapses against x/t^2 = u^2*T^2 in characteristic {p}",
        f"sanity inversion (char 5): remainder {char5}",
        f"sanity inversion (W = Y): remainder {wrong}",
    ]
    machine = {
        "law": "artin-schreier-nongalois-descent",
        "remainder_is_zero": remainder == "0",
        "remainder": remainder,
        "char5_remainder": char5,
        "wrong_generator_remainder": wrong,
        "passed": remainder == "0" and char5 != "0" and wrong != "0",
    }
    return lines, machine


# ---------------------------------------------------------------------------
# Kummer obstruction at the residue level
#
# A series in x is its coefficient list from x^0: every series here has
# valuation >= 0, so a list cut below x^n is exact to that order.


def _frobenius(F: FiniteField, a: Sequence, n: int) -> list:
    """The coefficients of a^p below x^n: in characteristic p the p-th power
    sends c x^i to c^p x^(pi) (Lidl & Niederreiter, *Finite Fields*, ch. 2)."""
    p = F.p
    out = [F.zero] * min(p * (len(a) - 1) + 1, n) if a else []
    for i, c in enumerate(a[: (n - 1) // p + 1]):
        out[p * i] = F.pow(c, p)
    return out


class KummerInstance:
    """Residue-level data for Y^p - g^p - x over a local base.

    The base ring is GF(q)[x] localized at the origin; its completion is
    modeled by power series in x truncated past x^truncation, and "algebraic
    over the base" is modeled as satisfying a polynomial relation of bounded
    degree with bounded-degree coefficients.  ``gbar`` holds its nonzero
    terms as (exponent, coefficient) pairs in increasing exponent; its dense
    coefficients are formed only by ``fbar``, which the search calls once it
    has admitted a candidate.
    """

    __slots__ = ("coeff_field", "gbar", "truncation")

    def __init__(self, coeff_field: FiniteField, gbar: tuple, truncation: int):
        self.coeff_field = coeff_field
        self.gbar = gbar
        self.truncation = truncation

    @classmethod
    def transcendental_model(
        cls, p: int, q_exp: int, terms: int, truncation: int
    ) -> "KummerInstance":
        """gbar = sum of x^(i^2) for i = 0..terms: no bounded algebraic
        relation matches its gap structure."""
        F = FiniteField(p, q_exp)
        last = min(terms, math.isqrt(truncation))
        return cls(F, tuple([(i * i, F.one) for i in range(last + 1)]), truncation)

    @classmethod
    def base_ring_model(cls, p: int, coeffs: Sequence[int], truncation: int) -> "KummerInstance":
        """gbar a polynomial of the base ring (descent must hold).  Every
        coefficient is parsed, but degrees past the truncation cannot reach
        fbar and are dropped."""
        F = FiniteField(p, 1)
        parsed = [F.parse(c) for c in coeffs]
        return cls(F, tuple([(i, c) for i, c in enumerate(parsed[: truncation + 1])
                             if c != F.zero]), truncation)

    def fbar(self) -> tuple:
        """f = g^p + x to x^truncation, up to its last nonzero coefficient."""
        F = self.coeff_field
        dense = [F.zero] * (self.gbar[-1][0] + 1 if self.gbar else 0)
        for i, c in self.gbar:
            dense[i] = c
        return poly_add(F, _frobenius(F, dense, self.truncation + 1), (F.zero, F.one))


def _relation_rows(F: FiniteField, h: Sequence, search_bound: int, n: int):
    """The rows of the linear system of a relation sum c_jk x^k h^j = 0 below
    x^n, made in increasing order: row m holds the coefficients of x^m,
    column j (search_bound + 1) + k that of x^(m-k) in h^j.  Each power gains
    its coefficient at x^m only as row m is made, from h's nonzero terms and
    the power below it, so a reader that stops early pays for no more orders."""
    terms = [(i, c) for i, c in enumerate(h) if c != F.zero]
    # each power is kept behind search_bound zeros, its coefficients at x^-k
    powers = [[F.zero] * search_bound for _ in range(search_bound + 1)]
    for m in range(n):
        powers[0].append(F.one if m == 0 else F.zero)
        for below, power in zip(powers, powers[1:]):
            acc = F.zero
            for i, c in terms:
                if i > m:
                    break
                acc = F.add(acc, F.mul(c, below[search_bound + m - i]))
            power.append(acc)
        yield [power[search_bound + m - k] for power in powers for k in range(search_bound + 1)]


def _check_relation(F: FiniteField, h: Sequence, relation: Sequence, n: int) -> None:
    """Raise unless sum_j c_j h^j vanishes below x^n, evaluated by Horner's
    rule independently of the linear system that produced the c_j."""
    acc: tuple = ()
    for c in reversed(relation):
        acc = poly_add(F, poly_mul(F, acc, h, n), c)
    if acc:
        raise AssertionError("search produced an invalid Kummer relation")


def _kernel_vector(F: FiniteField, rows: Iterable[list], ncols: int) -> list | None:
    """A nonzero kernel vector of the rows over GF(q), or None when they
    have rank ``ncols``.

    Each row is reduced in place against an echelon basis, and the scan
    stops as soon as the basis is full.  A basis row has 1 at its pivot
    column and zeros to its left, so only its nonzero entries right of the
    pivot are kept: a reduced row is never read again at a pivot it passed.
    Back-substitution puts 1 at the least free column and 0 at the others;
    the pivot columns depend only on the row space, so this is the vector
    of a full Gauss-Jordan elimination.
    """
    basis: dict[int, list[tuple[int, int]]] = {}
    for row in rows:
        for col in range(ncols):
            c = row[col]
            if c == F.zero:
                continue
            support = basis.get(col)
            if support is None:
                inv = F.inv(c)
                basis[col] = [(j, F.mul(inv, row[j]))
                              for j in range(col + 1, ncols) if row[j] != F.zero]
                if len(basis) == ncols:
                    return None
                break
            for j, w in support:
                row[j] = F.sub(row[j], F.mul(c, w))
    vec = [F.zero] * ncols
    vec[min(c for c in range(ncols) if c not in basis)] = F.one
    for col in sorted(basis, reverse=True):
        for j, w in basis[col]:
            if vec[j] != F.zero:
                vec[col] = F.sub(vec[col], F.mul(w, vec[j]))
    return vec


def _kummer_report(verdict: str, tried: int, search_bound: int, truncation: int, note: str,
                   witness: tuple[tuple, tuple] | None = None) -> SearchReport:
    """The Kummer search's lines and block; a witness is the unit e and the
    relation's coefficients c_j, each a coefficient tuple from x^0."""
    lines = [f"verdict: {verdict}", f"  {note}"]
    e = None
    if witness is not None:
        e, relation = witness
        lines += [
            f"  witness e (poly coeffs, low to high): {list(e)}",
            "  relation coefficients c_j(x) with sum c_j * (f e^p)^j = 0: "
            + "; ".join(f"c_{j}={list(c)}" for j, c in enumerate(relation)),
        ]
    return SearchReport(lines, {
        "law": "kummer-descent-obstruction",
        "verdict": verdict,
        "witness_e": list(e) if e is not None else None,
        "candidates_tried": tried,
        "search_bound": search_bound,
        "truncation": truncation,
        "note": note,
    })


def kummer_obstruction(instance: KummerInstance, search_bound: int) -> SearchReport:
    """Search for a unit adjustment putting f = g^p + x into the base model.

    Candidates e run over monic polynomials of degree <= search_bound (units
    and denominators do not enlarge the p-th power class).  For each, the
    model membership test asks for a polynomial relation of degree <=
    search_bound with coefficient degree <= search_bound holding to the
    truncation order, found by one exact elimination over GF(q) of the rows
    of ``_relation_rows``; it rejects the candidate at the first order whose
    rows have full rank, and a relation found is checked by substitution.
    Both verdicts are labeled with their bounds.  Each row read is charged
    unknowns^2 field operations, and the search stops INCONCLUSIVE before
    the charge passes ``KUMMER_WORK_CAP``; a truncation whose rows for one
    candidate alone would pass it is refused before fbar is built.
    """
    if search_bound < 0:
        return _kummer_report(INCONCLUSIVE, 0, search_bound, instance.truncation,
                              "negative search bound: empty search space")
    F = instance.coeff_field
    truncation = instance.truncation
    # a relation has search_bound + 1 coefficients, each of search_bound + 1 terms
    unknowns = (search_bound + 1) ** 2
    if unknowns >= truncation:
        return _kummer_report(
            INCONCLUSIVE, 0, search_bound, truncation,
            f"truncation {truncation} too small for {search_bound + 1}^2 unknowns")

    n = truncation + 1
    what = f"the elimination work at truncation {truncation} with {unknowns} unknowns"
    read = tried = 0

    def charged(row: list) -> list:
        nonlocal read
        read += 1
        refuse_past(what, (read, unknowns, unknowns), KUMMER_WORK_CAP)
        return row

    units = (tuple(lower) + (F.one,) for deg in range(search_bound + 1)
             for lower in itertools.product(range(F.q), repeat=deg))
    try:
        refuse_past(what, (n, unknowns, unknowns), KUMMER_WORK_CAP)  # one candidate, n rows
        fbar = instance.fbar()
        for e_coeffs in units:
            h = poly_mul(F, fbar, _frobenius(F, e_coeffs, n), n)
            vec = _kernel_vector(F, map(charged, _relation_rows(F, h, search_bound, n)), unknowns)
            tried += 1
            if vec is not None:
                relation = tuple(poly_strip(F, tuple(vec[j:j + search_bound + 1]))
                                 for j in range(0, unknowns, search_bound + 1))
                _check_relation(F, h, relation, n)
                return _kummer_report(
                    DESCENDS, tried, search_bound, truncation,
                    f"f*e^p satisfies a degree-<= {search_bound} relation to order {truncation}: "
                    "the obstruction vanishes within bounds", (e_coeffs, relation))
    except ScaleError as exc:
        return _kummer_report(INCONCLUSIVE, tried, search_bound, truncation,
                              f"{exc}: stopped after {tried} candidates")
    return _kummer_report(
        OBSTRUCTED_WITHIN_BOUNDS, tried, search_bound, truncation,
        f"no unit candidate of degree <= {search_bound} makes f*e^p algebraic "
        f"of degree <= {search_bound} to order {truncation}")

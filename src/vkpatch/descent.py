"""Degree-p descent across k1((t)) inside k2((t)), exactly at desk scale.

Artin-Schreier classes: the extension of k2((t)) generated by a root of
Y^p - Y - alpha/t comes from a degree-p Galois extension of k1((t)) exactly
when alpha/t is equivalent, modulo gamma^p - gamma over k2((t)), to a series
with k1 coefficients; collapsing the principal part shows this happens iff
alpha lies in k1.  The criterion decides by membership; the brute-force
oracle independently searches bounded-support candidates and solves the
Artin-Schreier equation coefficient by coefficient (the solve is triangular,
so each verdict for a candidate is exact).

The mixed-characteristic analogue tests p-th power classes at the residue
level: for f = g^p + x with x a uniformizer, the extension descends only if
f e^p is algebraic over the base ring for some unit e, which the desk model
checks by bounded-degree minimal-polynomial search over truncated power
series.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .fields import FiniteField, RationalFunctionField, poly_strip
from .series import LaurentSeries

DESCENDS = "DESCENDS"
FAILS = "FAILS"
FAILS_WITHIN_BOUNDS = "FAILS-WITHIN-BOUNDS"
OBSTRUCTED_WITHIN_BOUNDS = "OBSTRUCTED-WITHIN-BOUNDS"
INCONCLUSIVE = "INCONCLUSIVE"

# The Artin-Schreier oracle refuses a search of more than this many candidate
# beta, |k1|^support_bound, rather than run unbounded.
AS_CANDIDATE_CAP = 1_000_000


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


class ASOracleDecision:
    __slots__ = (
        "verdict", "beta", "gamma", "candidates_tried", "support_bound", "truncation", "note",
    )
    law = "artin-schreier-oracle"

    def __init__(
        self,
        verdict: str,
        beta: LaurentSeries | None,
        gamma: LaurentSeries | None,
        candidates_tried: int,
        support_bound: int,
        truncation: int,
        note: str,
    ):
        self.verdict = verdict
        self.beta = beta
        self.gamma = gamma
        self.candidates_tried = candidates_tried
        self.support_bound = support_bound
        self.truncation = truncation
        self.note = note

    def lines(self) -> list[str]:
        out = [
            f"oracle verdict: {self.verdict}",
            f"  searched {self.candidates_tried} candidate beta "
            f"(support up to t^-{self.support_bound})",
        ]
        if self.beta is not None:
            out.append(f"  beta = {self.beta.render()}")
        if self.gamma is not None:
            out.append(f"  gamma = {self.gamma.render()}")
        if self.note:
            out.append(f"  {self.note}")
        return out

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "verdict": self.verdict,
            "beta": self.beta.render() if self.beta is not None else None,
            "gamma": self.gamma.render() if self.gamma is not None else None,
            "candidates_tried": self.candidates_tried,
            "support_bound": self.support_bound,
            "truncation": self.truncation,
            "note": self.note,
        }


def _solve_artin_schreier(k2, p: int, x_terms: dict) -> dict | None:
    """Solve gamma^p - gamma = x for x supported on negative exponents.

    The system is triangular: gamma at -1, -2, ... is forced in turn, and a
    solution exists iff the forced gamma vanishes on exponents whose p-th
    multiple lies below the support of x.  Exact: no truncation involved.
    """
    if not x_terms:
        return {}
    v_min = min(x_terms)
    if v_min >= 0:
        raise ValueError("x must be supported on negative exponents")
    gamma: dict[int, object] = {}
    for m in range(-1, v_min - 1, -1):
        acc = k2.zero
        if m % p == 0:
            prev = gamma.get(m // p, k2.zero)
            acc = k2.pow(prev, p) if prev != k2.zero else k2.zero
        gamma[m] = k2.sub(acc, x_terms.get(m, k2.zero))
    for j, c in gamma.items():
        if p * j < v_min and c != k2.zero:
            return None
    return {j: c for j, c in gamma.items() if c != k2.zero}


def as_brute_force_oracle(
    instance: ASInstance, support_bound: int, truncation: int
) -> ASOracleDecision:
    """Exhaustive search for beta over k1 with bounded negative support.

    For each candidate the Artin-Schreier equation is solved coefficient by
    coefficient; since alpha/t - beta is a Laurent polynomial the per-
    candidate verdict is exact and the emitted gamma is exact too.
    ``truncation`` bounds nothing: it is only echoed into the report.  An
    empty search space, or one of more than ``AS_CANDIDATE_CAP`` candidates,
    is INCONCLUSIVE with nothing tried, never a silent answer.
    """
    if support_bound < 1:
        return ASOracleDecision(
            INCONCLUSIVE, None, None, 0, support_bound, truncation,
            "support bound below 1: empty search space",
        )
    k2 = instance.k2
    p = instance.p
    k1_elements = instance.k1_elements()
    # |k1| >= 2, so an exponent of the cap's bit length already exceeds it
    if len(k1_elements) ** min(support_bound, AS_CANDIDATE_CAP.bit_length()) > AS_CANDIDATE_CAP:
        return ASOracleDecision(
            INCONCLUSIVE, None, None, 0, support_bound, truncation,
            f"|k1|^{support_bound} candidates with |k1| = {len(k1_elements)} exceed "
            f"the cap of {AS_CANDIDATE_CAP}: search not run",
        )
    tried = 0
    # positions run from the deepest exponent down, so low-degree beta come
    # first and the least witness is e.g. beta = alpha/t when alpha is in k1
    exponents = list(range(-support_bound, 0))
    for combo in itertools.product(k1_elements, repeat=support_bound):
        tried += 1
        x_terms: dict[int, object] = {}
        for m, b in zip(exponents, combo):
            if b != k2.zero:
                x_terms[m] = k2.neg(b)
        x_terms[-1] = k2.add(x_terms.get(-1, k2.zero), instance.alpha)
        if x_terms.get(-1) == k2.zero:
            x_terms.pop(-1, None)
        gamma = _solve_artin_schreier(k2, p, x_terms)
        if gamma is None:
            continue
        beta = LaurentSeries(k2, dict(zip(exponents, combo)))
        gamma_series = LaurentSeries(k2, gamma)
        x_series = LaurentSeries(k2, x_terms)
        check = gamma_series.pow(p).sub(gamma_series)
        if not check.equals_exact(x_series):
            raise AssertionError("oracle produced an invalid Artin-Schreier witness")
        return ASOracleDecision(
            DESCENDS,
            beta,
            gamma_series,
            tried,
            support_bound,
            truncation,
            "witness verified exactly: gamma^p - gamma = alpha/t - beta",
        )
    return ASOracleDecision(
        FAILS_WITHIN_BOUNDS,
        None,
        None,
        tried,
        support_bound,
        truncation,
        "no candidate beta admits a solution (each refusal is exact)",
    )


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
    w = {(0, 0, w_power): 1}
    expr: dict = {}
    for exponent in (3, 2, 1):
        term = {(0, 0, 0): 1}
        for _ in range(exponent):
            new: dict = {}
            for (a1, b1, c1), v1 in term.items():
                for (a2, b2, c2), v2 in w.items():
                    key = (a1 + a2, b1 + b2, c1 + c2)
                    new[key] = (new.get(key, 0) + v1 * v2) % p
            term = new
        for key, v in term.items():
            expr[key] = (expr.get(key, 0) + v) % p
    key = (2, 2, 0)
    expr[key] = (expr.get(key, 0) - 1) % p
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


class KummerInstance:
    """Residue-level data for Y^p - g^p - x over a local base.

    The base ring is GF(q)[x] localized at the origin; its completion is
    modeled by truncated power series in x, and "algebraic over the base" is
    modeled as satisfying a polynomial relation of bounded degree with
    bounded-degree coefficients.
    """

    __slots__ = ("p", "coeff_field", "gbar", "truncation")

    def __init__(self, p: int, coeff_field: FiniteField, gbar: LaurentSeries, truncation: int):
        if coeff_field.p != p:
            raise ValueError("residue field characteristic must equal p")
        if gbar.valuation < 0 and gbar.coeffs:
            raise ValueError("gbar must lie in the power series ring (valuation >= 0)")
        if gbar.var != "x":
            raise ValueError("gbar must be a series in the residue uniformizer x")
        self.p = p
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
        items = {i * i: F.one for i in range(min(terms, math.isqrt(truncation)) + 1)}
        gbar = LaurentSeries(F, items, order=truncation, var="x")
        return cls(p, F, gbar, truncation)

    @classmethod
    def base_ring_model(cls, p: int, coeffs: Sequence[int], truncation: int) -> "KummerInstance":
        """gbar a polynomial of the base ring (descent must hold).  Every
        coefficient is parsed, but gbar has valuation >= 0, so degrees past
        the truncation cannot reach fbar and are dropped."""
        F = FiniteField(p, 1)
        parsed = [F.parse(c) for c in coeffs]
        gbar = LaurentSeries(F, dict(enumerate(parsed[: truncation + 1])), var="x")
        return cls(p, F, gbar, truncation)

    def fbar(self) -> LaurentSeries:
        x = LaurentSeries.t_power(self.coeff_field, 1, var="x")
        return self.gbar.pow(self.p).add(x).truncate_if_needed(self.truncation)


def _gf_kernel_vector(F: FiniteField, rows: list[list[int]], ncols: int) -> list[int] | None:
    """A nontrivial kernel vector of the row system over GF(q), or None."""
    matrix = [row[:] for row in rows]
    pivots: dict[int, int] = {}
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(matrix)):
            if matrix[r][col] != F.zero:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        # the pivot row is zero left of col, so it is normalized, and other
        # rows change, only on its nonzero columns from col on
        pivot = matrix[rank]
        inv = F.inv(pivot[col])
        support = []
        for j in range(col, ncols):
            if pivot[j] != F.zero:
                pivot[j] = F.mul(inv, pivot[j])
                support.append((j, pivot[j]))
        for r, row in enumerate(matrix):
            if r != rank and row[col] != F.zero:
                factor = row[col]
                for j, w in support:
                    row[j] = F.sub(row[j], F.mul(factor, w))
        pivots[col] = rank
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    target = free[0]
    vec = [F.zero] * ncols
    vec[target] = F.one
    for col, r in pivots.items():
        vec[col] = F.neg(matrix[r][target])
    return vec


class KummerDecision:
    __slots__ = (
        "verdict", "witness_e", "witness_relation", "candidates_tried", "search_bound",
        "truncation", "note",
    )
    law = "kummer-descent-obstruction"

    def __init__(
        self,
        verdict: str,
        witness_e: tuple[int, ...] | None,
        witness_relation: tuple[tuple[int, ...], ...] | None,
        candidates_tried: int,
        search_bound: int,
        truncation: int,
        note: str,
    ):
        self.verdict = verdict
        self.witness_e = witness_e
        self.witness_relation = witness_relation
        self.candidates_tried = candidates_tried
        self.search_bound = search_bound
        self.truncation = truncation
        self.note = note

    def lines(self) -> list[str]:
        out = [f"verdict: {self.verdict}", f"  {self.note}"]
        if self.witness_e is not None:
            out.append(f"  witness e (poly coeffs, low to high): {list(self.witness_e)}")
        if self.witness_relation is not None:
            out.append(
                "  relation coefficients c_j(x) with sum c_j * (f e^p)^j = 0: "
                + "; ".join(f"c_{j}={list(c)}" for j, c in enumerate(self.witness_relation))
            )
        return out

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "verdict": self.verdict,
            "witness_e": list(self.witness_e) if self.witness_e is not None else None,
            "candidates_tried": self.candidates_tried,
            "search_bound": self.search_bound,
            "truncation": self.truncation,
            "note": self.note,
        }


def kummer_obstruction(instance: KummerInstance, search_bound: int) -> KummerDecision:
    """Search for a unit adjustment putting f = g^p + x into the base model.

    Candidates e run over monic polynomials of degree <= search_bound (units
    and denominators do not enlarge the p-th power class).  For each, the
    model membership test asks for a polynomial relation of degree <=
    search_bound with coefficient degree <= search_bound holding to the
    truncation order, found by exact linear algebra over GF(q).  Both
    verdicts are labeled with their bounds.
    """
    if search_bound < 0:
        return KummerDecision(
            INCONCLUSIVE, None, None, 0, search_bound, instance.truncation,
            "negative search bound: empty search space",
        )
    F = instance.coeff_field
    p = instance.p
    fbar = instance.fbar()
    # a relation has search_bound + 1 coefficients, each of search_bound + 1 terms
    unknowns = (search_bound + 1) ** 2

    n_eq = int(min(fbar.known_to(), instance.truncation))
    if unknowns >= n_eq:
        return KummerDecision(
            INCONCLUSIVE, None, None, 0, search_bound, instance.truncation,
            f"truncation {instance.truncation} too small for {unknowns} unknowns",
        )

    tried = 0
    for deg in range(0, search_bound + 1):
        for lower in itertools.product(range(F.q), repeat=deg):
            e_coeffs = tuple(lower) + (F.one,)
            tried += 1
            e_series = LaurentSeries(
                F, {i: c for i, c in enumerate(e_coeffs)}, var="x"
            )
            h = fbar.mul(e_series.pow(p)).truncate_if_needed(instance.truncation)
            powers = [LaurentSeries.one(F, var="x")]
            for _ in range(search_bound):
                powers.append(powers[-1].mul(h).truncate_if_needed(instance.truncation))
            n_rows = int(min([instance.truncation] + [int(s.known_to()) for s in powers[1:]]))
            rows = []
            for exp in range(0, n_rows + 1):
                row = []
                for j in range(search_bound + 1):
                    for k in range(search_bound + 1):
                        row.append(powers[j].coefficient(exp - k) if exp - k >= 0 else F.zero)
                rows.append(row)
            vec = _gf_kernel_vector(F, rows, unknowns)
            if vec is not None:
                relation = tuple(
                    poly_strip(F, tuple(vec[j:j + search_bound + 1]))
                    for j in range(0, unknowns, search_bound + 1)
                )
                return KummerDecision(
                    DESCENDS,
                    e_coeffs,
                    relation,
                    tried,
                    search_bound,
                    instance.truncation,
                    f"f*e^p satisfies a degree-<= {search_bound} relation to order {n_rows}: "
                    "the obstruction vanishes within bounds",
                )
    return KummerDecision(
        OBSTRUCTED_WITHIN_BOUNDS,
        None,
        None,
        tried,
        search_bound,
        instance.truncation,
        f"no unit candidate of degree <= {search_bound} makes f*e^p algebraic "
        f"of degree <= {search_bound} to order {n_eq}",
    )

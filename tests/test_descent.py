"""Descent criteria against the brute-force oracle, the W = Y^2 identity,
and the residue-level Kummer obstruction."""

from __future__ import annotations

import itertools
import random

import pytest

from vkpatch.descent import (
    DESCENDS,
    FAILS,
    FAILS_WITHIN_BOUNDS,
    INCONCLUSIVE,
    OBSTRUCTED_WITHIN_BOUNDS,
    ASInstance,
    KummerInstance,
    as_brute_force_oracle,
    as_descends_galois,
    kummer_obstruction,
    _kernel_vector,
    _w_identity_remainder,
    verify_example_29,
)
from vkpatch import descent as descent_mod
from vkpatch.fields import FiniteField
from vkpatch.series import LaurentSeries

from test_fast_paths import full_gauss_jordan_kernel_vector, solve_artin_schreier


# -- criterion -------------------------------------------------------------------


def test_alpha_in_k1_descends_with_explicit_beta():
    inst = ASInstance.finite(2, 1, 2, 1)
    _, machine = as_descends_galois(inst)
    assert machine["verdict"] == DESCENDS
    assert machine["alpha_in_k1"]
    assert machine["beta"] == "t^-1"


def test_generator_of_f4_fails_galois_descent():
    inst = ASInstance.finite(2, 1, 2, "w")
    _, machine = as_descends_galois(inst)
    assert machine["verdict"] == FAILS
    assert machine["scope"] == "galois-degree-p"
    assert not machine["alpha_in_k1"]


def test_transcendental_alpha_fails_any_descent():
    inst = ASInstance.rational(3, 1, "s")
    _, machine = as_descends_galois(inst)
    assert machine["verdict"] == FAILS
    assert machine["scope"] == "any-degree-p"


def test_decision_lines_pinned():
    # alpha = w^2+w in GF(4) inside GF(16), then the generator w outside it
    assert as_descends_galois(ASInstance.finite(2, 2, 4, 6))[0] == [
        "verdict: DESCENDS (galois-degree-p)",
        "  alpha = w^2+w lies in k1 = GF(2^2)",
        "  witness: beta = alpha/t with gamma = 0",
        "  beta = (w^2+w)*t^-1",
    ]
    assert as_descends_galois(ASInstance.finite(2, 2, 4, "w"))[0] == [
        "verdict: FAILS (galois-degree-p)",
        "  alpha is not in k1 = GF(2^2): alpha^(p^2) = w+1 differs from alpha = w",
        "  no degree-p Galois extension of k1((t)) induces the extension",
    ]
    alpha = {"num": [1, 0, 1], "den": [2, 1]}
    assert as_descends_galois(ASInstance.rational(3, 1, alpha))[0] == [
        "verdict: FAILS (any-degree-p)",
        "  alpha = (s^2+1)/(s+2) is transcendental over k1 = constants GF(3)",
        "  no degree-p extension of k1((t)) at all induces the extension",
    ]


def test_instance_validation():
    with pytest.raises(ValueError):
        ASInstance.finite(2, 1, 2, 0)  # alpha must be nonzero
    with pytest.raises(ValueError):
        ASInstance.finite(2, 3, 4, 1)  # k1 not a subfield


# -- oracle ---------------------------------------------------------------------


def test_oracle_finds_least_witness():
    inst = ASInstance.finite(2, 1, 1, 1)
    oracle = as_brute_force_oracle(inst, 4).machine
    assert oracle["verdict"] == DESCENDS
    assert (oracle["beta"], oracle["gamma"]) == ("t^-1", "0")


def test_oracle_rejects_f4_generator_within_bounds():
    inst = ASInstance.finite(2, 1, 2, "w")
    oracle = as_brute_force_oracle(inst, 8).machine
    assert oracle["verdict"] == FAILS_WITHIN_BOUNDS
    assert oracle["candidates_tried"] == 2**8


def test_oracle_empty_search_space_is_inconclusive():
    inst = ASInstance.finite(2, 1, 2, "w")
    assert as_brute_force_oracle(inst, 0).machine == {
        "law": "artin-schreier-oracle",
        "verdict": "INCONCLUSIVE",
        "beta": None,
        "gamma": None,
        "candidates_tried": 0,
        "support_bound": 0,
        "note": "support bound below 1: empty search space",
    }


def test_oracle_search_over_the_cap_is_inconclusive():
    # the walk is |k1|^(bound // p) free choices times bound exponents
    inst = ASInstance.finite(2, 1, 2, "w")
    oracle = as_brute_force_oracle(inst, 30).machine  # 2^15 x 30 = 983,040
    assert (oracle["verdict"], oracle["candidates_tried"]) == (FAILS_WITHIN_BOUNDS, 2**30)
    for bound in (31, 2**31):  # 2^15 x 31 = 1,015,808 and up
        oracle = as_brute_force_oracle(inst, bound).machine
        assert (oracle["verdict"], oracle["candidates_tried"]) == (INCONCLUSIVE, 0)
        assert oracle["note"] == (
            f"the walk of |k1|^{bound // 2} choices x {bound} exponents with |k1| = 2 "
            "passes the cap of 1000000: search not run"
        )
    # k1 = GF(2^10): 1024 x 3 steps are walked, 1024^2 x 4 are not
    inst = ASInstance.finite(2, 10, 10, "w")
    assert as_brute_force_oracle(inst, 3).machine["verdict"] == DESCENDS
    assert as_brute_force_oracle(inst, 4).machine["verdict"] == INCONCLUSIVE
    # k1 = GF(4093): one free choice, but 4093^1191 candidates have 4,302
    # digits, more than a report can print
    inst = ASInstance.finite(4093, 1, 1, 2)
    assert as_brute_force_oracle(inst, 1190).machine["verdict"] == DESCENDS
    for bound in (1191, 4000):
        oracle = as_brute_force_oracle(inst, bound).machine
        assert (oracle["verdict"], oracle["candidates_tried"]) == (INCONCLUSIVE, 0)
        assert oracle["note"] == (
            f"the candidate count |k1|^{bound} passes the cap of 4300 digits: search not run")


def test_oracle_witnesses_satisfy_equation_exactly():
    # every beta the oracle may pick, not only the least: deep supports
    # exercise the forced coefficients of the triangular solve
    checked = 0
    for inst, support in ((ASInstance.finite(2, 1, 1, 1), 4), (ASInstance.finite(2, 1, 2, 1), 6),
                          (ASInstance.finite(3, 1, 2, 2), 7), (ASInstance.rational(2, 1, 1), 5)):
        alpha_t = LaurentSeries(inst.k2, {-1: inst.alpha})
        for beta, gamma in descent_mod._valid_betas(inst, support):
            assert all(inst.in_k1(c) for c in beta.values())
            gamma = LaurentSeries(inst.k2, gamma)
            lhs = gamma.pow(inst.p).sub(gamma)
            assert lhs.equals_exact(alpha_t.sub(LaurentSeries(inst.k2, beta))), (beta, gamma)
            checked += 1
    assert checked > 4


def _exhaustive_artin_schreier(k2, p, x):
    """The negative part of gamma with gamma^p - gamma = x, or None, by
    trying every gamma: its least exponent j has p*j = min(x), so its
    support lies in -(|min x| // p) .. -1."""
    target = LaurentSeries(k2, x)
    exponents = range(-1, -(-min(x) // p) - 1, -1)
    found = []
    for combo in itertools.product(range(k2.q), repeat=len(exponents)):
        gamma = LaurentSeries(k2, dict(zip(exponents, combo)))
        if gamma.pow(p).sub(gamma).equals_exact(target):
            found.append(dict(gamma.terms()))
    assert len(found) <= 1
    return found[0] if found else None


def test_artin_schreier_solve_matches_exhaustive_search():
    # every x on exponents -depth .. -1: the solvability test p*j < min(x)
    # and the solve from exponent -1 down both decide some of these
    solved = refused = 0
    for k2, depth in ((FiniteField(2), 6), (FiniteField(2, 2), 4), (FiniteField(3), 5)):
        p = k2.p
        for combo in itertools.product(range(k2.q), repeat=depth):
            x = {-1 - i: c for i, c in enumerate(combo) if c != k2.zero}
            if not x:
                continue
            expected = _exhaustive_artin_schreier(k2, p, x)
            assert solve_artin_schreier(k2, p, x) == expected, (k2, x)
            solved += expected is not None
            refused += expected is None
    assert solved > 0 and refused > 0


def test_criterion_and_oracle_agree_on_all_of_f4_and_f9():
    for p in (2, 3):
        inst_field = FiniteField(p, 2)
        for alpha in range(1, inst_field.q):
            inst = ASInstance.finite(p, 1, 2, alpha)
            _, criterion = as_descends_galois(inst)
            oracle = as_brute_force_oracle(inst, p * p).machine
            assert oracle["verdict"] != INCONCLUSIVE
            assert (criterion["verdict"] == DESCENDS) == (oracle["verdict"] == DESCENDS), (
                p, alpha,
            )


def test_oracle_over_rational_constants():
    inst = ASInstance.rational(3, 1, "s")
    assert as_brute_force_oracle(inst, 3).machine["verdict"] == FAILS_WITHIN_BOUNDS


def test_agreement_on_larger_coefficient_fields():
    # GF(4) inside GF(16) and GF(9) inside GF(81), every nonzero alpha, at
    # support 4 (the triangular solve is exact, so a missing witness at any
    # bound is consistent with the criterion, and found witnesses are
    # verified identities)
    for p, field in ((2, 16), (3, 81)):
        for alpha in range(1, field):
            inst = ASInstance.finite(p, 2, 4, alpha)
            _, criterion = as_descends_galois(inst)
            oracle = as_brute_force_oracle(inst, 4).machine
            assert oracle["verdict"] != INCONCLUSIVE
            assert (criterion["verdict"] == DESCENDS) == (oracle["verdict"] == DESCENDS), (p, alpha)


# -- the explicit identity ---------------------------------------------------------


def test_example_29_certificate_is_exact():
    _, machine = verify_example_29()
    assert machine["remainder_is_zero"]
    assert machine["remainder"] == "0"
    assert machine["char5_remainder"] != "0"
    assert machine["wrong_generator_remainder"] != "0"
    assert machine["passed"]


def test_example_29_lines_pinned():
    assert verify_example_29()[0] == [
        "remainder = 0",
        "remainder over GF(3): 0",
        "  W^3 = Y^6 = Y^2 + 2*u*T*Y + u^2*T^2",
        "  W^2 = Y^4 = Y^2 + u*T*Y",
        "  W = Y^2",
        "  sum collapses against x/t^2 = u^2*T^2 in characteristic 3",
        "sanity inversion (char 5): remainder 3*Y^2 + 3*u*T*Y",
        "sanity inversion (W = Y): remainder 2*Y + Y^2 + u*T + 2*u^2*T^2",
    ]


def test_example_29_char5_remainder_shape():
    # in characteristic 5 the collapse leaves 3Y^2 + 3uTY
    assert _w_identity_remainder(5, 2) == {(0, 0, 2): 3, (1, 1, 1): 3}
    _, machine = verify_example_29()
    assert machine["char5_remainder"] == "3*Y^2 + 3*u*T*Y"


# -- Kummer obstruction --------------------------------------------------------------


def test_transcendental_gbar_is_obstructed():
    inst = KummerInstance.transcendental_model(2, 1, 4, 200)
    block = kummer_obstruction(inst, 4).machine
    assert block["verdict"] == OBSTRUCTED_WITHIN_BOUNDS
    assert block["candidates_tried"] == 31  # monic polynomials of degree <= 4


def test_base_ring_gbar_descends():
    inst = KummerInstance.base_ring_model(2, [1, 0, 1], 200)
    search = kummer_obstruction(inst, 4)
    lines, block = search.lines, search.machine
    assert block["verdict"] == DESCENDS
    assert block["witness_e"] == [1]  # e = 1 suffices
    # f itself lies in the base ring: relation c0 + c1*f with c1 = 1
    assert lines[-1] == ("  relation coefficients c_j(x) with sum c_j * (f e^p)^j = 0: "
                         "c_0=[1, 1, 0, 0, 1]; c_1=[1]; c_2=[]; c_3=[]; c_4=[]")


def test_transcendental_gbar_keeps_only_the_square_exponents():
    # 10^9 terms cut at i^2 <= 5 * 10^6: 2,237 terms, not 5 * 10^6 coefficients
    inst = KummerInstance.transcendental_model(2, 1, 10**9, 5 * 10**6)
    assert inst.gbar == tuple((i * i, 1) for i in range(2237))
    # (1 + x + x^4)^2 + x = 1 + x + x^2 + x^8 over GF(2)
    assert KummerInstance.transcendental_model(2, 1, 2, 200).fbar() == (1, 1, 1, 0, 0, 0, 0, 0, 1)


def test_fbar_of_base_ring_gbar_is_polynomial():
    inst = KummerInstance.base_ring_model(2, [1, 0, 1, 0, 0], 200)
    # gbar keeps its nonzero terms only, and
    # (1 + x^2)^2 + x = 1 + x + x^4 over GF(2)
    assert inst.gbar == ((0, 1), (2, 1))
    assert inst.fbar() == (1, 1, 0, 0, 1)
    # past the truncation fbar is cut: x^4 is dropped at truncation 3
    assert KummerInstance.base_ring_model(2, [1, 0, 1], 3).fbar() == (1, 1)


def test_kummer_relation_is_checked_by_substitution(monkeypatch):
    # e = 1 gives the relation c_0 + f = 0; a kernel vector off by one in
    # c_0 leaves the constant 1 at x^0, which the Horner evaluation finds
    kernel_vector = descent_mod._kernel_vector

    def perturbed(F, rows, ncols):
        vec = kernel_vector(F, rows, ncols)
        if vec is not None:
            vec[0] = F.add(vec[0], F.one)
        return vec

    inst = KummerInstance.base_ring_model(3, [2, 1], 120)
    assert kummer_obstruction(inst, 3).machine["verdict"] == DESCENDS
    monkeypatch.setattr(descent_mod, "_kernel_vector", perturbed)
    with pytest.raises(AssertionError, match="invalid Kummer relation"):
        kummer_obstruction(inst, 3)


def test_kummer_bounds_are_honest():
    inst = KummerInstance.transcendental_model(2, 1, 4, 20)
    for bound in (4, -1):  # truncation too small; empty search space
        block = kummer_obstruction(inst, bound).machine
        assert (block["verdict"], block["candidates_tried"]) == (INCONCLUSIVE, 0)


def test_kummer_search_stops_when_its_work_budget_is_spent(monkeypatch):
    # p = 2, bound 4, truncation 200: the 31 candidates read 846 rows in all,
    # each charged 25^2 for its 25 unknowns
    inst = KummerInstance.transcendental_model(2, 1, 4, 200)
    total = 846 * 25 * 25
    monkeypatch.setattr(descent_mod, "KUMMER_WORK_CAP", total)
    block = kummer_obstruction(inst, 4).machine
    assert (block["verdict"], block["candidates_tried"]) == (OBSTRUCTED_WITHIN_BOUNDS, 31)
    # one unit less stops in the last candidate's rows, after 30 completed
    monkeypatch.setattr(descent_mod, "KUMMER_WORK_CAP", total - 1)
    block = kummer_obstruction(inst, 4).machine
    assert (block["verdict"], block["candidates_tried"]) == (INCONCLUSIVE, 30)
    assert block["note"] == (
        f"the elimination work at truncation 200 with 25 unknowns passes the cap of "
        f"{total - 1}: stopped after 30 candidates"
    )
    # a candidate may read all 201 rows: a budget short of that is refused
    # before the search
    monkeypatch.setattr(descent_mod, "KUMMER_WORK_CAP", 201 * 25 * 25 - 1)
    block = kummer_obstruction(inst, 4).machine
    assert (block["verdict"], block["candidates_tried"]) == (INCONCLUSIVE, 0)


def test_kummer_search_that_decides_early_is_never_refused():
    # p = 5, bound 5: a full search would pass the budget, but e = 1 decides
    inst = KummerInstance.base_ring_model(5, [2, 3], 200)
    block = kummer_obstruction(inst, 5).machine
    assert (block["verdict"], block["candidates_tried"]) == (DESCENDS, 1)


def test_kummer_char3():
    inst = KummerInstance.transcendental_model(3, 1, 3, 120)
    assert kummer_obstruction(inst, 3).machine["verdict"] == OBSTRUCTED_WITHIN_BOUNDS


def test_kernel_vector_matches_full_gauss_jordan():
    rng = random.Random(29)
    for p, e in ((2, 1), (3, 1), (2, 2), (3, 2)):
        F = FiniteField(p, e)
        for trial in range(60):
            ncols = rng.randint(1, 7)
            shape = trial % 3
            nrows = {0: ncols + rng.randint(1, 6), 1: ncols, 2: rng.randint(1, ncols + 3)}[shape]
            if shape == 2:
                # rank-deficient: every row a combination of fewer basis rows
                basis = [[rng.randrange(F.q) for _ in range(ncols)]
                         for _ in range(rng.randint(1, max(1, ncols - 1)))]
                rows = []
                for _ in range(nrows):
                    row = [F.zero] * ncols
                    for b in basis:
                        c = rng.randrange(F.q)
                        row = [F.add(x, F.mul(c, y)) for x, y in zip(row, b)]
                    rows.append(row)
            else:
                rows = [[rng.randrange(F.q) if rng.random() < 0.7 else F.zero
                         for _ in range(ncols)] for _ in range(nrows)]
            for _ in range(rng.randint(0, 2)):
                rows.insert(rng.randint(0, len(rows)), [F.zero] * ncols)
            expected = full_gauss_jordan_kernel_vector(F, rows, ncols)
            # None exactly when the rows have full rank; the rows are
            # reduced in place, so the elimination gets a copy
            assert _kernel_vector(F, [row[:] for row in rows], ncols) == expected, (p, e, trial)


# -- degree-p descent can fail in both settings ---------------------------------------


def test_equal_char_counterexample():
    _, machine = as_descends_galois(ASInstance.rational(2, 1, "s"))
    assert machine["verdict"] == FAILS
    assert machine["scope"] == "any-degree-p"


def test_member_alpha_is_no_counterexample():
    assert as_descends_galois(ASInstance.finite(3, 1, 1, 1))[1]["verdict"] == DESCENDS


def test_mixed_char_counterexample():
    inst = KummerInstance.transcendental_model(2, 1, 4, 200)
    assert kummer_obstruction(inst, 4).machine["verdict"] == OBSTRUCTED_WITHIN_BOUNDS


def test_base_ring_gbar_is_no_counterexample():
    inst = KummerInstance.base_ring_model(3, [2, 1], 120)
    assert kummer_obstruction(inst, 3).machine["verdict"] == DESCENDS

"""Descent criteria against the brute-force oracle, the W = Y^2 identity,
and the residue-level Kummer obstruction."""

from __future__ import annotations

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
    _gf_kernel_vector,
    verify_example_29,
)
from vkpatch.fields import FiniteField
from vkpatch.series import LaurentSeries


# -- criterion -------------------------------------------------------------------


def test_alpha_in_k1_descends_with_explicit_beta():
    inst = ASInstance.finite(2, 1, 2, 1)
    decision = as_descends_galois(inst)
    assert decision.verdict == DESCENDS
    assert dict(decision.beta.terms()) == {-1: 1}


def test_generator_of_f4_fails_galois_descent():
    inst = ASInstance.finite(2, 1, 2, "w")
    decision = as_descends_galois(inst)
    assert decision.verdict == FAILS
    assert decision.scope == "galois-degree-p"
    assert not decision.alpha_in_k1


def test_transcendental_alpha_fails_any_descent():
    inst = ASInstance.rational(3, 1, "s")
    decision = as_descends_galois(inst)
    assert decision.verdict == FAILS
    assert decision.scope == "any-degree-p"


def test_decision_lines_pinned():
    # alpha = w^2+w in GF(4) inside GF(16), then the generator w outside it
    assert as_descends_galois(ASInstance.finite(2, 2, 4, 6)).lines() == [
        "verdict: DESCENDS (galois-degree-p)",
        "  alpha = w^2+w lies in k1 = GF(2^2)",
        "  witness: beta = alpha/t with gamma = 0",
        "  beta = (w^2+w)*t^-1",
    ]
    assert as_descends_galois(ASInstance.finite(2, 2, 4, "w")).lines() == [
        "verdict: FAILS (galois-degree-p)",
        "  alpha is not in k1 = GF(2^2): alpha^(p^2) = w+1 differs from alpha = w",
        "  no degree-p Galois extension of k1((t)) induces the extension",
    ]
    alpha = {"num": [1, 0, 1], "den": [2, 1]}
    assert as_descends_galois(ASInstance.rational(3, 1, alpha)).lines() == [
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
    decision = as_brute_force_oracle(inst, 4, 50)
    assert decision.verdict == DESCENDS
    assert decision.beta.equals_exact(LaurentSeries(inst.k2, {-1: 1}))
    assert decision.gamma.equals_exact(LaurentSeries(inst.k2, {}))


def test_oracle_rejects_f4_generator_within_bounds():
    inst = ASInstance.finite(2, 1, 2, "w")
    decision = as_brute_force_oracle(inst, 8, 50)
    assert decision.verdict == FAILS_WITHIN_BOUNDS
    assert decision.candidates_tried == 2**8


def test_oracle_empty_search_space_is_inconclusive():
    inst = ASInstance.finite(2, 1, 2, "w")
    assert as_brute_force_oracle(inst, 0, 50).to_json() == {
        "law": "artin-schreier-oracle",
        "verdict": "INCONCLUSIVE",
        "beta": None,
        "gamma": None,
        "candidates_tried": 0,
        "support_bound": 0,
        "truncation": 50,
        "note": "support bound below 1: empty search space",
    }


def test_oracle_search_over_the_cap_is_inconclusive():
    inst = ASInstance.finite(2, 1, 2, "w")
    for bound in (20, 1_000_000_000):  # 2^20 = 1,048,576 candidates and up
        decision = as_brute_force_oracle(inst, bound, 50)
        assert decision.verdict == INCONCLUSIVE
        assert decision.candidates_tried == 0
        assert decision.note == (
            f"|k1|^{bound} candidates with |k1| = 2 exceed the cap of 1000000: "
            "search not run"
        )
    # k1 = GF(2^10): 1024 candidates are searched, 1024^2 are not
    inst = ASInstance.finite(2, 10, 10, "w")
    assert as_brute_force_oracle(inst, 1, 50).verdict == DESCENDS
    assert as_brute_force_oracle(inst, 2, 50).verdict == INCONCLUSIVE


def test_oracle_witnesses_satisfy_equation_exactly():
    # deep support: beta = t^-4 equivalent paths exercise the triangular solve
    inst = ASInstance.finite(2, 1, 1, 1)
    decision = as_brute_force_oracle(inst, 4, 50)
    gamma, beta = decision.gamma, decision.beta
    lhs = gamma.pow(2).sub(gamma)
    rhs = LaurentSeries(inst.k2, {-1: inst.alpha}).sub(beta)
    assert lhs.equals_exact(rhs)


def test_criterion_and_oracle_agree_on_all_of_f4_and_f9():
    for p in (2, 3):
        inst_field = FiniteField(p, 2)
        for alpha in range(1, inst_field.q):
            inst = ASInstance.finite(p, 1, 2, alpha)
            criterion = as_descends_galois(inst)
            oracle = as_brute_force_oracle(inst, p * p, 50)
            assert oracle.verdict != INCONCLUSIVE
            assert (criterion.verdict == DESCENDS) == (oracle.verdict == DESCENDS), (
                p, alpha,
            )


def test_oracle_over_rational_constants():
    inst = ASInstance.rational(3, 1, "s")
    decision = as_brute_force_oracle(inst, 3, 30)
    assert decision.verdict == FAILS_WITHIN_BOUNDS


def test_agreement_on_larger_coefficient_fields():
    # GF(4) inside GF(16) at the p^2 support bound; GF(9) inside GF(81) at a
    # feasible bound (the triangular solve is exact, so a missing witness at
    # any bound is consistent with the criterion, and found witnesses are
    # verified identities)
    for alpha in range(1, 16):
        inst = ASInstance.finite(2, 2, 4, alpha)
        criterion = as_descends_galois(inst)
        oracle = as_brute_force_oracle(inst, 4, 50)
        assert (criterion.verdict == DESCENDS) == (oracle.verdict == DESCENDS)
    sample = [1, 2, 3, 7, 20, 40, 60, 80]
    for alpha in sample:
        inst = ASInstance.finite(3, 2, 4, alpha)
        criterion = as_descends_galois(inst)
        oracle = as_brute_force_oracle(inst, 2, 50)
        assert (criterion.verdict == DESCENDS) == (oracle.verdict == DESCENDS), alpha


# -- the explicit identity ---------------------------------------------------------


def test_example_29_certificate_is_exact():
    report = verify_example_29()
    assert report.remainder == {}
    assert report.char5_remainder != {}
    assert report.wrong_generator_remainder != {}
    assert report.passed


def test_example_29_char5_remainder_shape():
    # in characteristic 5 the collapse leaves 3Y^2 + 3uTY
    report = verify_example_29()
    assert report.char5_remainder == {(0, 0, 2): 3, (1, 1, 1): 3}


# -- Kummer obstruction --------------------------------------------------------------


def test_transcendental_gbar_is_obstructed():
    inst = KummerInstance.transcendental_model(2, 1, 4, 200)
    decision = kummer_obstruction(inst, 4)
    assert decision.verdict == OBSTRUCTED_WITHIN_BOUNDS
    assert decision.candidates_tried == 31  # monic polynomials of degree <= 4


def test_base_ring_gbar_descends():
    inst = KummerInstance.base_ring_model(2, [1, 0, 1], 200)
    decision = kummer_obstruction(inst, 4)
    assert decision.verdict == DESCENDS
    assert decision.witness_e == (1,)  # e = 1 suffices
    # f itself lies in the base ring: relation c0 + c1*f with c1 = 1
    assert decision.witness_relation[1] == (1,)


def test_fbar_of_base_ring_gbar_is_polynomial():
    inst = KummerInstance.base_ring_model(2, [1, 0, 1], 200)
    fbar = inst.fbar()
    # (1 + x^2)^2 + x = 1 + x + x^4 over GF(2)
    assert dict(fbar.terms()) == {0: 1, 1: 1, 4: 1}


def test_kummer_bounds_are_honest():
    inst = KummerInstance.transcendental_model(2, 1, 4, 20)
    assert kummer_obstruction(inst, 4).verdict == INCONCLUSIVE
    assert kummer_obstruction(inst, -1).verdict == INCONCLUSIVE


def test_kummer_char3():
    inst = KummerInstance.transcendental_model(3, 1, 3, 120)
    decision = kummer_obstruction(inst, 3)
    assert decision.verdict == OBSTRUCTED_WITHIN_BOUNDS


def full_gauss_jordan_kernel_vector(F, rows, ncols):
    """Reference kernel vector: Gauss-Jordan updating every entry of every
    other row at each pivot, zeros included."""
    matrix = [row[:] for row in rows]
    pivots = {}
    rank = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(matrix)) if matrix[r][col] != F.zero), None)
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        inv = F.inv(matrix[rank][col])
        matrix[rank] = [F.mul(inv, v) for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != F.zero:
                factor = matrix[r][col]
                matrix[r] = [F.sub(v, F.mul(factor, w)) for v, w in zip(matrix[r], matrix[rank])]
        pivots[col] = rank
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    vec = [F.zero] * ncols
    vec[free[0]] = F.one
    for col, r in pivots.items():
        vec[col] = F.neg(matrix[r][free[0]])
    return vec


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
            before = [row[:] for row in rows]
            assert _gf_kernel_vector(F, rows, ncols) == expected, (p, e, trial)
            assert rows == before


# -- degree-p descent can fail in both settings ---------------------------------------


def test_equal_char_counterexample():
    decision = as_descends_galois(ASInstance.rational(2, 1, "s"))
    assert decision.verdict == FAILS
    assert decision.scope == "any-degree-p"


def test_member_alpha_is_no_counterexample():
    assert as_descends_galois(ASInstance.finite(3, 1, 1, 1)).verdict == DESCENDS


def test_mixed_char_counterexample():
    inst = KummerInstance.transcendental_model(2, 1, 4, 200)
    assert kummer_obstruction(inst, 4).verdict == OBSTRUCTED_WITHIN_BOUNDS


def test_base_ring_gbar_is_no_counterexample():
    inst = KummerInstance.base_ring_model(3, [2, 1], 120)
    assert kummer_obstruction(inst, 3).verdict == DESCENDS

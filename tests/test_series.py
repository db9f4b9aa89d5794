"""Laurent series arithmetic, precision discipline, p-th powers."""

from __future__ import annotations

import random

import pytest

from vkpatch.fields import FiniteField, RationalFunctionField
from vkpatch.series import (
    LaurentSeries,
    PrecisionError,
    pth_power_test,
)

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)
F9 = FiniteField(3, 2)
Q3 = RationalFunctionField(FiniteField(3))
Q4 = RationalFunctionField(F4)
W1 = F4.add(F4.parse("w"), F4.one)


# -- field sanity ---------------------------------------------------------------


def test_finite_field_arithmetic():
    assert F4.q == 4
    w = F4.parse("w")
    # w satisfies the chosen irreducible of degree 2 over GF(2): w^2 = w + 1
    assert F4.mul(w, w) == F4.add(w, F4.one)
    for a in range(1, F4.q):
        assert F4.mul(a, F4.inv(a)) == F4.one
    # Frobenius roots invert squaring
    for a in range(F9.q):
        assert F9.mul(F9.pth_root(a), F9.mul(F9.pth_root(a), F9.pth_root(a))) == a


def test_subfield_membership():
    # GF(3) inside GF(9): exactly the elements fixed by x -> x^3
    members = [a for a in F9.elements() if F9.in_subfield(a, 1)]
    assert len(members) == 3
    assert set(members) >= {0, 1}


def test_rational_function_field():
    s = Q3.s()
    one = Q3.one
    f = Q3.add(Q3.mul(s, s), one)  # s^2 + 1
    g = Q3.inv(f)
    assert Q3.mul(f, g) == Q3.one
    assert Q3.is_constant(one) and not Q3.is_constant(s)
    assert Q3.label(f) == "s^2+1"


def test_rational_pth_root():
    s = Q3.s()
    cube = Q3.pow(s, 3)
    assert Q3.pth_root(cube) == s
    assert Q3.pth_root(s) is None
    const = Q3.constant(2)
    assert Q3.pth_root(const) == Q3.constant(F3.pth_root(2))


# -- series arithmetic -------------------------------------------------------------


def test_t_times_t_inverse():
    t = LaurentSeries(F2, {1: 1})
    tinv = LaurentSeries(F2, {-1: 1})
    assert t.mul(tinv).equals_exact(LaurentSeries.one(F2))


def test_char_two_sign_collapse():
    a = LaurentSeries(F2, {0: 1, 1: 1})
    b = LaurentSeries(F2, {0: 1, 1: F2.neg(1)})
    product = a.mul(b)
    assert product.equals_exact(LaurentSeries(F2, {0: 1, 2: 1}))


def test_field_mismatch_rejected():
    with pytest.raises(ValueError):
        LaurentSeries.one(F2).add(LaurentSeries.one(F3))


def test_precision_propagation():
    a = LaurentSeries(F3, {0: 1}, order=4)
    b = LaurentSeries(F3, {2: 1})
    assert a.add(b).order == 4
    assert a.mul(b).order == 6
    with pytest.raises(ValueError):
        LaurentSeries(F3, {5: 1}, order=4)  # a coefficient past the known order
    with pytest.raises(PrecisionError):
        a.equals_exact(b)


def test_product_keeps_the_coefficient_at_its_order():
    # (1 + t + O(t^2)) * (1 + t) = 1 + 2t + O(t^2) over GF(3): the product is
    # known to t^1, and its t^1 coefficient is not zero
    a = LaurentSeries(F3, {0: 1, 1: 1}, order=1)
    b = LaurentSeries(F3, {0: 1, 1: 1})
    for prod in (a.mul(b), b.mul(a)):
        assert prod.order == 1
        assert dict(prod.terms())[1] == 2
        assert prod.render() == "1 + 2*t + O(t^2)"
    # both truncated: (t^-1 + 2 + O(t)) * (1 + 2t + O(t^2)) is known to t^0
    c = LaurentSeries(F3, {-1: 1, 0: 2}, order=0)
    d = LaurentSeries(F3, {0: 1, 1: 2}, order=1)
    assert c.mul(d).render() == "t^-1 + 1 + O(t^1)"


def test_product_valuation_adds():
    rng = random.Random(13)
    for _ in range(40):
        va, vb = rng.randint(-4, 4), rng.randint(-4, 4)
        a = LaurentSeries(F3, {va: rng.randint(1, 2), va + 2: rng.randint(0, 2)})
        b = LaurentSeries(F3, {vb: rng.randint(1, 2)})
        prod = a.mul(b)
        assert prod.valuation == a.valuation + b.valuation


@pytest.mark.parametrize(
    "field, terms, order, text",
    [
        # w+1 in GF(4) and w^2+w in GF(16) are sums: each is one factor
        (F4, {-1: F4.add(F4.parse("w"), F4.one), 0: F4.add(F4.parse("w"), F4.one),
              1: F4.one, 2: F4.parse("w")}, None, "(w+1)*t^-1 + w+1 + t + w*t^2"),
        (FiniteField(2, 4), {-2: 2, -1: 6}, 3, "w*t^-2 + (w^2+w)*t^-1 + O(t^4)"),
        (Q3, {-2: Q3.parse({"num": [1, 0, 1], "den": [2, 1]}),
              -1: Q3.add(Q3.s(), Q3.one), 1: Q3.s()}, None,
         "((s^2+1)/(s+2))*t^-2 + (s+1)*t^-1 + s*t"),
        # only a + or / outside the label's own parentheses makes it a sum:
        # (w+1)*s is a product, while a quotient keeps its parentheses
        (Q4, {-1: Q4.make((F4.zero, W1))}, None, "(w+1)*s*t^-1"),
        (Q3, {-1: Q3.make((1,), (1, 1)), 1: Q3.make((1,), (0, 1))}, None,
         "((1)/(s+1))*t^-1 + ((1)/(s))*t"),
    ],
)
def test_render_parenthesizes_sum_coefficients(field, terms, order, text):
    assert LaurentSeries(field, terms, order=order).render() == text


def test_rational_function_label_parenthesizes_sum_coefficients():
    K = RationalFunctionField(F4)
    w = F4.parse("w")
    w1 = F4.add(w, F4.one)
    assert K.label(K.make((F4.zero, w1))) == "(w+1)*s"
    assert K.label(K.make((w1,), (F4.zero, w1, F4.one))) == "(w+1)/(s^2+(w+1)*s)"
    # a coefficient with one term keeps no parentheses
    assert K.label(K.make((F4.one, w, F4.one))) == "s^2+w*s+1"


# -- p-th power test ------------------------------------------------------------------


def test_pth_power_of_monomial():
    root, witness = pth_power_test(LaurentSeries(F3, {3: 1}))
    assert root is not None and witness is None
    assert root.equals_exact(LaurentSeries(F3, {1: 1}))


def test_pth_power_valuation_witness():
    root, witness = pth_power_test(LaurentSeries(F3, {1: 1}))
    assert root is None
    assert "valuation 1" in witness


def test_pth_power_coefficient_witness_over_function_field():
    s = Q3.s()
    series = LaurentSeries(Q3, {3: s})
    root, witness = pth_power_test(series)
    assert root is None
    assert "not a 3-th power" in witness
    # cube of a reduced fraction has numerator degree divisible by 3
    cube = LaurentSeries(Q3, {3: Q3.pow(s, 3)})
    assert pth_power_test(cube)[0] is not None
    # s*t^2 already fails on the valuation, before the coefficient is seen
    _, witness = pth_power_test(LaurentSeries(Q3, {2: s}))
    assert "valuation 2" in witness


def test_pth_power_round_trip_respects_truncation():
    a = LaurentSeries(F2, {2: 1, 4: 1}, order=9)
    root, _ = pth_power_test(a)
    assert root is not None and root.order == 4
    square = root.pow(2)
    assert dict(square.terms()) == {e: c for e, c in a.terms() if e <= square.order}


def test_pth_power_round_trip():
    rng = random.Random(17)
    for _ in range(30):
        items = {}
        for _ in range(rng.randint(1, 4)):
            items[rng.randint(-3, 4)] = rng.randint(1, F9.q - 1)
        a = LaurentSeries(F9, items)
        cube = a.pow(3)
        root, witness = pth_power_test(cube)
        assert root is not None and witness is None
        assert root.pow(3).equals_exact(cube)


def test_pth_power_rejects_zero():
    with pytest.raises(ValueError):
        pth_power_test(LaurentSeries(F2, {}))

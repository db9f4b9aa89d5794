"""GF(p^e) log-table arithmetic against the reference digit and polynomial
arithmetic, exhaustively on every field with q <= 81 and by sampled pairs on
larger ones; multiplication is also checked against sympy's galoistools."""

from __future__ import annotations

import random

import pytest

from vkpatch.fields import FIELD_SIZE_CAP, FiniteField
from vkpatch.graphs import ScaleError

SMALL = [
    (p, e)
    for p, top in ((2, 6), (3, 4), (5, 2), (7, 2))
    for e in range(1, top + 1)
]
LARGE = [(2, 8), (3, 5), (2, 10)]


def _digits(F: FiniteField, x: int) -> list[int]:
    out = []
    for _ in range(F.e):
        x, d = divmod(x, F.p)
        out.append(d)
    return out


def _undigits(F: FiniteField, digits) -> int:
    x = 0
    for d in reversed(list(digits)):
        x = x * F.p + d % F.p
    return x


def digit_add(F, a, b):
    return _undigits(F, [x + y for x, y in zip(_digits(F, a), _digits(F, b))])


def digit_neg(F, a):
    return _undigits(F, [-x for x in _digits(F, a)])


def raw_pow(F, a, n):
    acc = 1
    for _ in range(n):
        acc = F._raw_mul(acc, a)
    return acc


def check_pair(F, a, b):
    assert F.add(a, b) == digit_add(F, a, b), (F, a, b)
    assert F.sub(a, b) == digit_add(F, a, digit_neg(F, b)), (F, a, b)
    assert F.mul(a, b) == F._raw_mul(a, b), (F, a, b)


def check_element(F, a):
    assert F.neg(a) == digit_neg(F, a), (F, a)
    if a:
        assert F._raw_mul(a, F.inv(a)) == 1, (F, a)
    else:
        with pytest.raises(ZeroDivisionError):
            F.inv(a)


@pytest.mark.parametrize("p,e", SMALL)
def test_every_pair_matches_the_reference_arithmetic(p, e):
    F = FiniteField(p, e)
    for a in F.elements():
        check_element(F, a)
        for b in F.elements():
            check_pair(F, a, b)


@pytest.mark.parametrize("p,e", SMALL)
def test_pow_pth_root_and_subfields_match_repeated_products(p, e):
    F = FiniteField(p, e)
    for a in F.elements():
        acc = 1
        for n in range(F.q + 2):
            assert F.pow(a, n) == acc, (F, a, n)
            acc = F._raw_mul(acc, a)
        if a:
            assert F.pow(a, -1) == F.inv(a)
            assert F._raw_mul(F.pow(a, -5), F.pow(a, 5)) == 1
        root = F.pth_root(a)
        assert raw_pow(F, root, p) == a, (F, a)
        frob = a
        for d in range(1, e + 1):
            frob = raw_pow(F, frob, p)  # a^(p^d)
            if e % d == 0:
                assert F.in_subfield(a, d) == (frob == a), (F, a, d)
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)


@pytest.mark.parametrize("p,e", SMALL + LARGE)
def test_exp_table_is_generated_by_the_least_primitive_element(p, e):
    F = FiniteField(p, e)
    units = F.q - 1
    assert sorted(F._exp[:units]) == list(range(1, F.q))
    assert F._exp[units:] == F._exp[:units]
    g = F._exp[1]
    for i in range(1, units):
        assert F._exp[i] == F._raw_mul(F._exp[i - 1], g)
    for a in F.elements():
        if a:
            assert F._exp[F._log[a]] == a
    # every smaller nonzero element has order below q - 1
    for a in range(1, g):
        x, order = a, 1
        while x != 1:
            x, order = F._raw_mul(x, a), order + 1
        assert order < units, (F, a)


@pytest.mark.parametrize("p,e", LARGE)
def test_sampled_pairs_on_larger_fields(p, e):
    F = FiniteField(p, e)
    rng = random.Random(p * 100 + e)
    samples = [0, 1, F.q - 1] + [rng.randrange(F.q) for _ in range(60)]
    for a in samples:
        check_element(F, a)
    for _ in range(3000):
        check_pair(F, rng.choice(samples), rng.randrange(F.q))


@pytest.mark.parametrize("p,e", SMALL + LARGE[:1])
def test_mul_matches_sympy_galoistools(p, e):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem, gf_strip

    F = FiniteField(p, e)
    modulus = list(reversed(F.modulus))  # sympy is big-endian
    assert gf_irreducible_p(modulus, p, ZZ)

    def poly(a):
        return gf_strip([ZZ(d) for d in reversed(_digits(F, a))])

    def element(f):
        return _undigits(F, reversed([int(c) for c in f]))

    rng = random.Random(p * 10 + e)
    elements = list(F.elements())
    pairs = (
        [(a, b) for a in elements for b in elements]
        if F.q <= 27
        else [(rng.choice(elements), rng.choice(elements)) for _ in range(1500)]
    )
    for a, b in pairs:
        expected = element(gf_rem(gf_mul(poly(a), poly(b), p, ZZ), modulus, p, ZZ))
        assert F.mul(a, b) == expected, (F, a, b)


@pytest.mark.parametrize("p,e", SMALL + LARGE + [(3, 7), (5, 5), (2, 12)])
def test_modulus_is_the_least_monic_irreducible(p, e):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    # every element code and label depends on which irreducible is chosen
    F = FiniteField(p, e)
    for code in range(p**e):
        candidate = [1] + [ZZ(d) for d in reversed(_digits(F, code))]  # big-endian
        if gf_irreducible_p(candidate, p, ZZ):
            break
    assert F.modulus == tuple(int(c) for c in reversed(candidate))


def test_field_size_cap_refuses_before_any_table():
    assert FIELD_SIZE_CAP == 2**12
    assert FiniteField(2, 12).q == FIELD_SIZE_CAP
    # q = p^e is never formed for a huge degree, and the size is checked
    # before the characteristic is tested for primality
    for p, e in ((2, 13), (3, 8), (2, 40), (2, 10**12), (4099, 1), (10**30 + 57, 1)):
        message = rf"^the size of GF\({p}\^{e}\) passes the cap of 4096$"
        with pytest.raises(ScaleError, match=message):
            FiniteField(p, e)
    with pytest.raises(ValueError, match="must be prime"):
        FiniteField(4095, 1)

"""Group arithmetic, presentations, and hom enumeration against brute force."""

from __future__ import annotations

import itertools
import math

import pytest

from catalog import groups_up_to, hom_set, presentation_from_words, quaternion8
from vkpatch import groups as groups_mod
from vkpatch.graphs import ScaleError
from vkpatch.groups import (
    FiniteGroup,
    GROUP_ORDER_CAP,
    GroupAxiomError,
    GroupHom,
    Presentation,
    cyclic,
    direct_product,
    enumerate_homs,
    from_table,
    group_presentation,
    make_group,
    symmetric,
)


def element_order(g: FiniteGroup, a: int) -> int:
    acc, k = a, 1
    while acc != g.identity:
        acc, k = g.mul(acc, a), k + 1
    return k


def brute_force_axioms(g: FiniteGroup) -> bool:
    n = g.order
    ident = [e for e in range(n) if all(g.mul(e, a) == a == g.mul(a, e) for a in range(n))]
    if len(ident) != 1:
        return False
    for a in range(n):
        if not any(g.mul(a, b) == ident[0] == g.mul(b, a) for b in range(n)):
            return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if g.mul(g.mul(a, b), c) != g.mul(a, g.mul(b, c)):
                    return False
    return True


def test_axioms_hold_for_all_catalog_groups():
    for g in groups_up_to(8):
        assert g.order <= 64
        assert brute_force_axioms(g), g.name


def test_cyclic_one_is_trivial():
    g = cyclic(1)
    assert g.order == 1
    assert g.identity == 0


def test_symmetric_one_is_trivial_and_zero_is_refused():
    g = symmetric(1)
    assert g.order == 1
    assert g.identity == 0
    with pytest.raises(ValueError, match="degree must be >= 1"):
        symmetric(0)


def test_symmetric3_has_three_involutions():
    s3 = symmetric(3)
    assert s3.order == 6
    orders = [element_order(s3, a) for a in range(6)]
    assert sorted(orders) == [1, 2, 2, 2, 3, 3]


def test_klein_four_has_exponent_two():
    v4 = direct_product(cyclic(2), cyclic(2))
    assert v4.order == 4
    assert math.lcm(*(element_order(v4, a) for a in range(4))) == 2


def test_make_group_rejects_bad_order():
    with pytest.raises(ValueError):
        make_group({"cyclic": 0})


def test_make_group_refuses_orders_past_the_cap_before_any_table():
    assert GROUP_ORDER_CAP == 200
    assert make_group({"cyclic": 200}).order == 200
    assert make_group({"symmetric": 5}).order == 120
    assert make_group({"product": [{"cyclic": 10}, {"cyclic": 20}]}).order == 200
    for descriptor in (
        {"cyclic": 201},
        {"symmetric": 6},
        # n! stops at the first partial product past the cap
        {"symmetric": 10**18},
        {"product": [{"symmetric": 5}, {"cyclic": 2}]},
        {"table": {"elements": [str(i) for i in range(201)], "table": []}},
    ):
        kind = next(iter(descriptor))
        message = f"^the order of the {kind} group passes the cap of 200$"
        with pytest.raises(ScaleError, match=message):
            make_group(descriptor)


def test_bad_table_reports_failing_triple():
    # a Latin square that is not associative
    elements = ["e", "a", "b", "c", "d"]
    table = [
        ["e", "a", "b", "c", "d"],
        ["a", "e", "c", "d", "b"],
        ["b", "d", "e", "a", "c"],
        ["c", "b", "d", "e", "a"],
        ["d", "c", "a", "b", "e"],
    ]
    with pytest.raises(GroupAxiomError) as exc:
        from_table(elements, table)
    # an order-5 group is cyclic, so a table with a*a = e cannot associate
    assert "associativity fails" in str(exc.value)


def test_symmetric4_constructs_and_has_expected_order_profile():
    s4 = symmetric(4)
    assert s4.order == 24
    from collections import Counter
    profile = Counter(element_order(s4, a) for a in range(24))
    assert profile == {1: 1, 2: 9, 3: 8, 4: 6}


def test_quaternion_group_is_a_valid_nonabelian_group():
    q8 = quaternion8()
    assert q8.order == 8
    assert any(q8.mul(a, b) != q8.mul(b, a) for a in range(8) for b in range(8))
    assert sorted(element_order(q8, a) for a in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]


# -- hom enumeration -----------------------------------------------------------


def brute_force_homs(pres: Presentation, target: FiniteGroup):
    """Independent oracle: check every assignment against every relator."""
    n = target.order
    out = []
    for images in itertools.product(range(n), repeat=len(pres.generators)):
        ok = True
        for rel in pres.relators:
            acc = target.identity
            for letter in rel:
                g = images[letter - 1] if letter > 0 else target.inv(images[-letter - 1])
                acc = target.mul(acc, g)
            if acc != target.identity:
                ok = False
                break
        if ok:
            out.append(images)
    return out


def test_enumerate_homs_x_squared_into_s3():
    pres = presentation_from_words(["x"], [["x", "x"]])
    s3 = symmetric(3)
    homs = enumerate_homs(pres, s3)
    assert len(homs) == 4
    # oracle: elements of order dividing 2
    expected = [a for a in range(6) if s3.mul(a, a) == s3.identity]
    assert [h[0] for h in homs] == expected


def test_enumerate_homs_x_cubed_into_trivial():
    pres = presentation_from_words(["x"], [["x", "x", "x"]])
    assert len(enumerate_homs(pres, cyclic(1))) == 1


def test_free_rank_two_into_c2():
    pres = Presentation(("x", "y"), ())
    assert len(enumerate_homs(pres, cyclic(2))) == 4


def test_free_group_hom_counts():
    for r in range(0, 4):
        pres = Presentation(tuple(f"x{i}" for i in range(r)), ())
        for g in groups_up_to(8):
            assert len(enumerate_homs(pres, g)) == g.order**r


def test_enumerate_homs_is_exhaustive_against_brute_force():
    s3 = symmetric(3)
    c4 = cyclic(4)
    cases = [
        (presentation_from_words(["x"], [["x", "x"]]), s3),
        (presentation_from_words(["x", "y"], [["x", "x", "y", "y", "y"]]), c4),
        (group_presentation(cyclic(4)), s3),
        (presentation_from_words(["x", "y"], [["x", "y", "x^-1", "y^-1"]]), s3),
    ]
    for pres, target in cases:
        assert list(enumerate_homs(pres, target)) == brute_force_homs(pres, target)


def test_enumerate_homs_refuses_a_search_past_its_budget(monkeypatch):
    # two free generators into C3: 3 candidates at the root and 3 under each
    # of its 3 children, 12 in all, for 9 homs
    free = Presentation(("a", "b"), ())
    monkeypatch.setattr(groups_mod, "HOM_SEARCH_CAP", 12)
    assert len(enumerate_homs(free, cyclic(3))) == 9
    monkeypatch.setattr(groups_mod, "HOM_SEARCH_CAP", 11)
    with pytest.raises(ScaleError, match="^the hom search into C3 passes the cap of 11$"):
        enumerate_homs(free, cyclic(3))
    # a search with no generator tries nothing
    monkeypatch.setattr(groups_mod, "HOM_SEARCH_CAP", 0)
    assert enumerate_homs(Presentation((), ()), cyclic(3)) == ((),)


def test_enumerate_homs_output_is_sorted():
    pres = Presentation(("x", "y"), ())
    homs = enumerate_homs(pres, symmetric(3))
    assert list(homs) == sorted(homs)


def test_hom_set_between_groups():
    # Hom(C6, S3): images of a generator are elements with order dividing 6
    c6, s3 = cyclic(6), symmetric(3)
    homs = hom_set(c6, s3)
    assert len(homs) == 6
    for h in homs:
        for a in range(6):
            for b in range(6):
                assert h(c6.mul(a, b)) == s3.mul(h(a), h(b))


def test_presentation_rejects_undeclared_symbol():
    with pytest.raises(ValueError):
        Presentation(("x",), ((2,),))
    with pytest.raises(ValueError):
        presentation_from_words(["x"], [["y"]])


# -- conjugation -----------------------------------------------------------------


def conjugated(f: GroupHom, g: int) -> GroupHom:
    """x -> g f(x) g^-1, validated as a hom."""
    row = f.target.conjugation_table()[g]
    return GroupHom(f.source, f.target, [row[x] for x in f.mapping])


def test_conjugate_hom_permutation_example():
    # conjugating x -> (12) by (123) gives x -> (23)
    s3 = symmetric(3)
    c2 = cyclic(2)
    f = GroupHom(c2, s3, [s3.identity, s3.index("102")])
    g = s3.index("120")
    assert s3.label(conjugated(f, g)(1)) == "021"


def test_conjugate_hom_identity_and_abelian():
    c2, c4 = cyclic(2), cyclic(4)
    f = GroupHom(c2, c4, [0, 2])
    assert conjugated(f, c4.identity) == f
    for g in range(4):
        assert conjugated(f, g) == f  # abelian target


def test_conjugation_round_trip():
    s3 = symmetric(3)
    for f in hom_set(cyclic(4), s3):
        for g in range(6):
            assert conjugated(conjugated(f, g), s3.inv(g)) == f

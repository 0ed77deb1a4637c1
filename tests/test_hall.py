from fractions import Fraction

import pytest

from hallalg.hall import (GradeBoundError, HallAlgebra, HallVector, label_sort_key,
                          parse_label)
from hallalg.quiver import RepCategory, dim_add
from mutants import MUTANTS
from oracles import coproduct

ZERO = "d0.0#0"
S1 = "d1.0#0"
S2 = "d0.1#0"
SS = "d1.1#0"
P1 = "d1.1#1"


def test_label_parsing():
    assert parse_label(P1) == ((1, 1), 1)
    assert label_sort_key(ZERO) < label_sort_key(S1) < label_sort_key(P1)


def test_vectors_drop_zeros():
    v = HallVector({S1: Fraction(1), S2: Fraction(0)})
    assert v.coeffs == {S1: Fraction(1)}
    assert (v - v).is_zero()
    # tensors share the type: label-pair keys, built by basis(left, right)
    t = HallVector({(S1, S2): Fraction(1), (S2, S1): Fraction(0)})
    assert t.coeffs == {(S1, S2): Fraction(1)}
    assert HallVector.basis(S1, S2) == t and t[(S2, S1)] == 0
    assert (t - t).is_zero()
    # a key that cancels during accumulation is dropped, not stored as 0
    acc = HallVector.combine([({(S1, S2): 1, (S2, S1): 2}, 1), ({(S1, S2): 1}, -1)])
    assert acc.coeffs == {(S2, S1): Fraction(2)}
    assert (HallVector.basis(S1, S2) + HallVector({(S1, S2): -1})).is_zero()
    # pair keys order factorwise by label_sort_key: left factor first
    pairs = HallVector({(P1, ZERO): 1, (S1, P1): 1, (ZERO, P1): 1, (S1, S2): 1,
                        (S2, ZERO): 1})
    assert [k for k, _ in pairs.items()] == [
        (ZERO, P1), (S2, ZERO), (S1, S2), (S1, P1), (P1, ZERO)]


def test_product_ground_truth(hall2):
    p = hall2.product(HallVector.basis(S1), HallVector.basis(S2), 2)
    assert p == HallVector({SS: 1, P1: 1})
    assert hall2.product(HallVector.basis(S2), HallVector.basis(S1), 2) == \
        HallVector({SS: 1})


def test_unit_laws(hall2):
    x = HallVector({S1: Fraction(3, 2), P1: 2})
    assert hall2.product(hall2.unit(), x, 4) == x
    assert hall2.product(x, hall2.unit(), 4) == x


def test_product_bound_is_strict(hall2):
    with pytest.raises(GradeBoundError):
        hall2.product(HallVector.basis(S1), HallVector.basis(S2), 1)


def test_coproduct_examples(hall2, hall3):
    d = coproduct(hall2, HallVector.basis(P1))
    assert d == HallVector({(ZERO, P1): 1, (P1, ZERO): 1, (S2, S1): 1})
    assert coproduct(hall2, hall2.unit()) == HallVector({(ZERO, ZERO): 1})
    assert coproduct(hall2, HallVector.basis(S1)) == \
        HallVector({(ZERO, S1): 1, (S1, ZERO): 1})
    # the proper coefficient is q - 1
    assert coproduct(hall3, HallVector.basis(P1))[(S2, S1)] == 2


def test_counit_compatibility(hall2):
    for label in (ZERO, S1, S2, SS, P1):
        t = coproduct(hall2, HallVector.basis(label))
        assert t[(ZERO, label)] == 1
        assert t[(label, ZERO)] == 1
        assert hall2.counit_tensor_left(t) == HallVector.basis(label)
        assert hall2.counit_tensor_right(t) == HallVector.basis(label)
    assert hall2.counit(hall2.unit()) == 1
    assert hall2.counit(HallVector.basis(S1)) == 0


def test_braid_examples(hall2):
    assert hall2.braid(HallVector.basis(S1, S2)) == HallVector({(S2, S1): 2})
    assert hall2.braid(HallVector.basis(S2, S1)) == HallVector({(S1, S2): 1})
    x = HallVector.basis(ZERO, P1)
    assert hall2.braid(x) == HallVector({(P1, ZERO): 1})


def test_braid_inverse(hall2):
    for pair in ((S1, S2), (S2, S1), (P1, S1), (SS, P1)):
        t = HallVector.basis(*pair)
        assert hall2.braid_inverse(hall2.braid(t)) == t
        assert hall2.braid(hall2.braid_inverse(t)) == t
    # involution fails in general: braiding twice scales by q^{-<a,b>-<b,a>}
    t = HallVector.basis(S1, S2)
    assert hall2.braid(hall2.braid(t)) == t.scale(2)


def test_tensor_product_examples(hall2):
    """tensor_product returns (q^K s.t, K), K >= 0 the largest braid exponent."""
    one = HallVector.basis(ZERO, ZERO)
    t = HallVector({(S2, S1): 1, (P1, ZERO): 3})
    assert hall2.tensor_product(one, t, 4) == (t, 0)
    got = hall2.tensor_product(HallVector.basis(S2, S1),
                               HallVector.basis(ZERO, S2), 4)
    assert got == (HallVector({(S2, SS): 1, (S2, P1): 1}), 0)
    # <S1, S2> = -1: the braiding's q^{-<S1, S2>} = q is an int
    got2 = hall2.tensor_product(HallVector.basis(ZERO, S1),
                                HallVector.basis(S2, ZERO), 4)
    assert got2 == (HallVector({(S2, S1): 2}), 0)
    # <S2, S1> = 0 and <S1, S1> = 1: q^{-1} is a fraction, so all is scaled by q
    got3 = hall2.tensor_product(HallVector({(ZERO, S2): 1, (ZERO, S1): 1}),
                                HallVector.basis(S1, ZERO), 4)
    assert got3 == (HallVector({(S1, S2): 2, (S1, S1): 1}), 1)


def test_green_residuals(hall2, a2):
    # a row (M, N) is ({(X, Y): numerator}, |G_{m+n}| q^K), empty when Green's
    # formula holds: |G_(1,1)| = 1 with K = 0, and |G_(2,1)| = |GL_2(F_2)| = 6
    # with K = 1
    assert hall2.green_residual(S1, S2) == ({}, 1)
    assert hall2.green_residual(P1, S1) == ({}, 12)
    # with q^{-<D, A>} for q^{-<A, D>}, only the pair (M, N) itself is off
    with MUTANTS["braid_exponent_swapped"]():
        hall = HallAlgebra(RepCategory(a2, 2))
        assert hall.green_residual(S1, S2) == ({(S1, S2): 1}, 1)
        assert hall.green_residual(P1, S1) == ({(P1, S1): -6}, 12)


def test_bialgebra_residuals(hall2):
    """The residual comes as (int numerators, denominator |G_m||G_n||G_{m+n}| q^K)."""
    assert hall2.bialgebra_residual(S1, S2, 4) == (HallVector(), 1)
    assert hall2.bialgebra_residual(ZERO, P1, 4) == (HallVector(), 1)
    res, den = hall2.bialgebra_residual(S2, S2, 4)
    assert res.is_zero() and den == 2 * 6    # |GL_2(F_2)| = 6, K = <S2, S2> = 1


def test_antipode_paper(hall2):
    assert hall2.antipode_paper(HallVector.basis(S1)) == \
        HallVector({S1: -1})
    assert hall2.antipode_paper(HallVector()) == HallVector()
    assert hall2.antipode_paper(HallVector.basis(SS)) == HallVector({SS: -1})


def test_antipode_canonical(hall2):
    assert hall2.antipode_canonical_basis(ZERO, 4) == hall2.unit()
    assert hall2.antipode_canonical_basis(S1, 4) == HallVector({S1: -1})
    # at P1 the recursion picks up the correction term [S1 + S2]
    assert hall2.antipode_canonical_basis(P1, 4) == HallVector({P1: -1, SS: 1})
    for label in (ZERO, S1, S2, SS, P1):
        left, right = hall2.antipode_axiom_residuals(label, 4)
        assert left.is_zero() and right.is_zero()


def test_antipode_comparison_report(hall2):
    rep = hall2.antipode_comparison(2)
    assert not rep["agree"]
    assert rep["first_divergence"] is not None
    diverging = {d["label"] for d in rep["divergences"]}
    assert P1 in diverging  # the first positive-grade counterexample
    assert ZERO in diverging  # basis-wise negation even breaks the unit


def test_hexagon_coefficient_identity(hall2, ctx2):
    from hallalg.quiver import dim_vectors_with_total
    grades = [d for total in range(11) for d in dim_vectors_with_total(2, total)
              if max(d) <= 5]
    assert len(grades) == 36
    for u in grades:
        for v in grades:
            for w in grades:
                vw = (v[0] + w[0], v[1] + w[1])
                assert hall2.braid_coeff(u, vw) == \
                    hall2.braid_coeff(u, v) * hall2.braid_coeff(u, w)


def test_grading_of_structure_maps(hall2):
    for la in (S1, S2, SS, P1):
        for lb in (S1, S2, SS, P1):
            gsum = tuple(a + b for a, b in
                         zip(hall2.grade(la), hall2.grade(lb)))
            for le in hall2.product_basis(la, lb):
                assert hall2.grade(le) == gsum
    for le in (SS, P1):
        for (ln, lm) in hall2.coproduct_basis(le):
            got = tuple(a + b for a, b in zip(hall2.grade(ln), hall2.grade(lm)))
            assert got == hall2.grade(le)


def test_structure_tables(hall2):
    table = hall2.product_table(2)
    entry = table[f"[{S1}],[{S2}]"]
    assert {e["class"]: e["coeff"] for e in entry} == {SS: "1/1", P1: "1/1"}
    cop = hall2.coproduct_table(2)
    rows = cop[f"[{P1}]"]
    assert {(e["left"], e["right"]): e["coeff"] for e in rows} == {
        (ZERO, P1): "1/1", (P1, ZERO): "1/1", (S2, S1): "1/1"}


@pytest.mark.parametrize("name,p,bound", [("a2", 2, 4), ("a2", 3, 4), ("a3_source", 2, 3)])
def test_product_coefficients_are_census_hall_numbers(request, name, p, bound):
    """Every product coefficient is an int: the number of U <= E with U ~ N
    and E/U ~ M, read straight off the census."""
    ctx = RepCategory(request.getfixturevalue(name), p)
    hall = HallAlgebra(ctx)
    classes = ctx.classes_up_to(bound)
    for cm in classes:
        for cn in classes:
            if sum(cm.dim) + sum(cn.dim) > bound:
                continue
            got = hall.product_basis(cm.label, cn.label)
            assert all(type(g) is int for g in got.values())
            want = {}
            for ce in ctx.classify(dim_add(cm.dim, cn.dim)):
                g = ctx.census(ce, cn.dim).get((cm.index, cn.index))
                if g:
                    want[ce.label] = g
            assert got == want, (cm.label, cn.label)


def test_coefficients_stay_ints_without_a_denominator(hall2):
    assert type(HallVector.basis(S1)[S1]) is int
    p = hall2.product(HallVector.basis(S1), HallVector.basis(S2), 2)
    assert all(type(c) is int for _, c in p.items())
    # the braiding's q^{-<s1, s2>} = q is an int, its inverse a Fraction
    assert hall2.braid(HallVector.basis(S1, S2))[(S2, S1)] == 2
    assert type(hall2.braid_coeff((1, 0), (0, 1))) is int
    assert hall2.braid_coeff((1, 0), (0, 1), 1) == Fraction(1, 2)
    # coproduct_basis holds int numerators over |G_e|, coproduct(x) exact values:
    # Delta([S1 + S1]) has [S1] (x) [S1] with P = 3 over aut = |GL_2(F_2)| = 6
    s1s1 = "d2.0#0"
    assert all(type(c) is int for c in hall2.coproduct_basis(s1s1).values())
    assert hall2.coproduct_basis(s1s1)[(S1, S1)] == 3
    assert coproduct(hall2, HallVector.basis(s1s1)) == HallVector(
        {(ZERO, s1s1): 1, (S1, S1): Fraction(1, 2), (s1s1, ZERO): 1})


def test_associativity_sample_q3(hall3):
    # a nontrivial triple at q = 3 with a grade-3 target
    va, vb, vc = (HallVector.basis(x) for x in (S1, S2, S1))
    left = hall3.product(hall3.product(va, vb, 3), vc, 3)
    right = hall3.product(va, hall3.product(vb, vc, 3), 3)
    assert left == right and not left.is_zero()

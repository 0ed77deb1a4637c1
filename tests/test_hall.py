import copy
from fractions import Fraction
from itertools import combinations

import pytest

from hallalg import verify
from hallalg.cli import load_quiver
from hallalg.hall import (GradeBoundError, HallAlgebra, combine, label_sort_key, parse_label,
                          sorted_terms)
from hallalg.quiver import RepCategory, dim_add
from mutants import MUTANTS
from oracles import braid_by_accumulation, braid_inverse_by_accumulation, coproduct

ZERO = "d0.0#0"
S1 = "d1.0#0"
S2 = "d0.1#0"
SS = "d1.1#0"
P1 = "d1.1#1"


def test_label_parsing():
    assert parse_label(P1) == ((1, 1), 1)
    assert label_sort_key(ZERO) < label_sort_key(S1) < label_sort_key(P1)


def test_vectors_drop_zeros():
    v = {S1: Fraction(1)}
    assert combine([(v, 1), (v, -1)]) == {}
    assert combine([({S1: 1, S2: 0}, 1)]) == {S1: 1}
    # tensors share the type: label-pair keys
    t = {(S1, S2): Fraction(1)}
    assert combine([(t, 1), (t, -1)]) == {}
    # a key that cancels during accumulation is dropped, not stored as 0
    acc = combine([({(S1, S2): 1, (S2, S1): 2}, 1), ({(S1, S2): 1}, -1)])
    assert acc == {(S2, S1): Fraction(2)}
    assert combine([({(S1, S2): 1}, 1), ({(S1, S2): -1}, 1)]) == {}
    # int stays int; a Fraction mixes in, and a cancelled Fraction drops the key
    ints = combine([({S1: 2, S2: 3}, 1), ({S1: 1}, 2)])
    assert ints == {S1: 4, S2: 3} and {type(c) for c in ints.values()} == {int}
    mixed = combine([(ints, 1), ({S1: Fraction(1, 2), S2: Fraction(-3)}, 1)])
    assert mixed == {S1: Fraction(9, 2)} and type(mixed[S1]) is Fraction
    # pair keys order factorwise by label_sort_key: left factor first
    pairs = {(P1, ZERO): 1, (S1, P1): 1, (ZERO, P1): 1, (S1, S2): 1, (S2, ZERO): 1}
    assert [k for k, _ in sorted_terms(pairs)] == [
        (ZERO, P1), (S2, ZERO), (S1, S2), (S1, P1), (P1, ZERO)]
    assert [k for k, _ in sorted_terms({P1: 1, ZERO: 2, S2: 3})] == [ZERO, S2, P1]


def test_product_ground_truth(hall2):
    p = hall2.product({S1: 1}, {S2: 1}, 2)
    assert p == {SS: 1, P1: 1}
    assert hall2.product({S2: 1}, {S1: 1}, 2) == {SS: 1}


def test_unit_laws(hall2):
    x = {S1: Fraction(3, 2), P1: 2}
    assert hall2.product(hall2.unit(), x, 4) == x
    assert hall2.product(x, hall2.unit(), 4) == x


def test_product_bound_is_strict(hall2):
    with pytest.raises(GradeBoundError):
        hall2.product({S1: 1}, {S2: 1}, 1)


def test_coproduct_examples(hall2, hall3):
    d = coproduct(hall2, {P1: 1})
    assert d == {(ZERO, P1): 1, (P1, ZERO): 1, (S2, S1): 1}
    assert coproduct(hall2, hall2.unit()) == {(ZERO, ZERO): 1}
    assert coproduct(hall2, {S1: 1}) == {(ZERO, S1): 1, (S1, ZERO): 1}
    # the proper coefficient is q - 1
    assert coproduct(hall3, {P1: 1})[(S2, S1)] == 2


def test_counit_compatibility(hall2):
    for label in (ZERO, S1, S2, SS, P1):
        t = coproduct(hall2, {label: 1})
        assert t[(ZERO, label)] == 1
        assert t[(label, ZERO)] == 1
        assert hall2.counit_tensor(t, 0) == {label: 1}
        assert hall2.counit_tensor(t, 1) == {label: 1}
    assert hall2.counit(hall2.unit()) == 1
    assert hall2.counit({S1: 1}) == 0


def test_braid_examples(hall2):
    assert hall2.braid({(S1, S2): 1}) == {(S2, S1): 2}
    assert hall2.braid({(S2, S1): 1}) == {(S1, S2): 1}
    x = {(ZERO, P1): 1}
    assert hall2.braid(x) == {(P1, ZERO): 1}


def test_braid_inverse(hall2):
    for pair in ((S1, S2), (S2, S1), (P1, S1), (SS, P1)):
        t = {pair: 1}
        assert hall2.braid_inverse(hall2.braid(t)) == t
        assert hall2.braid(hall2.braid_inverse(t)) == t
    # involution fails in general: braiding twice scales by q^{-<a,b>-<b,a>}
    t = {(S1, S2): 1}
    assert hall2.braid(hall2.braid(t)) == {(S1, S2): 2}


def test_braid_matches_the_accumulating_oracle(ctx3):
    """On a2 at q = 3, braid and braid_inverse equal the term-by-term
    accumulation on multi-term tensors of every grade up to 3, with int and
    Fraction coefficients and both (x, y) and (y, x) keys; they store no
    zero and invert each other both ways."""
    hall = HallAlgebra(ctx3)
    labels = [c.label for c in ctx3.classes_up_to(3)]
    pairs = [(x, y) for x in labels for y in labels]
    assert len({tuple(map(hall.grade, p)) for p in pairs}) > 20
    full = combine([({p: i - 80 if i % 2 else Fraction(i - 80, 7)
                      for i, p in enumerate(pairs)}, 1)])
    assert len(full) == len(pairs) - 1
    assert {type(c) for c in full.values()} == {int, Fraction}
    vectors = [full, {(S1, S2): 2, (S2, S1): Fraction(-1, 3), (P1, SS): 5},
               *(dict(list(full.items())[k::5]) for k in range(5))]
    for x in vectors:
        assert hall.braid(x) == braid_by_accumulation(hall, x)
        assert hall.braid_inverse(x) == braid_inverse_by_accumulation(hall, x)
        assert all(hall.braid(x).values()) and all(hall.braid_inverse(x).values())
        assert hall.braid(hall.braid_inverse(x)) == x == hall.braid_inverse(hall.braid(x))


def test_tensor_product_examples(hall2):
    """tensor_product returns (q^K s.t, K), K >= 0 the largest braid exponent."""
    one = {(ZERO, ZERO): 1}
    t = {(S2, S1): 1, (P1, ZERO): 3}
    assert hall2.tensor_product(one, t, 4) == (t, 0)
    got = hall2.tensor_product({(S2, S1): 1}, {(ZERO, S2): 1}, 4)
    assert got == ({(S2, SS): 1, (S2, P1): 1}, 0)
    # <S1, S2> = -1: the braiding's q^{-<S1, S2>} = q is an int
    got2 = hall2.tensor_product({(ZERO, S1): 1}, {(S2, ZERO): 1}, 4)
    assert got2 == ({(S2, S1): 2}, 0)
    # <S2, S1> = 0 and <S1, S1> = 1: q^{-1} is a fraction, so all is scaled by q
    got3 = hall2.tensor_product({(ZERO, S2): 1, (ZERO, S1): 1}, {(S1, ZERO): 1}, 4)
    assert got3 == ({(S1, S2): 2, (S1, S1): 1}, 1)


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
    assert hall2.bialgebra_residual(S1, S2, 4) == ({}, 1)
    assert hall2.bialgebra_residual(ZERO, P1, 4) == ({}, 1)
    res, den = hall2.bialgebra_residual(S2, S2, 4)
    assert res == {} and den == 2 * 6    # |GL_2(F_2)| = 6, K = <S2, S2> = 1


def test_antipode_paper(hall2):
    assert hall2.antipode_paper({S1: 1}) == {S1: -1}
    assert hall2.antipode_paper({}) == {}
    assert hall2.antipode_paper({SS: 1}) == {SS: -1}


def test_antipode_canonical(hall2):
    assert hall2.antipode_canonical_basis(ZERO, 4) == hall2.unit()
    assert hall2.antipode_canonical_basis(S1, 4) == {S1: -1}
    # at P1 the recursion picks up the correction term [S1 + S2]
    assert hall2.antipode_canonical_basis(P1, 4) == {P1: -1, SS: 1}
    for label in (ZERO, S1, S2, SS, P1):
        assert hall2.antipode_residual(label, 4) == {}


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
    p = hall2.product({S1: 1}, {S2: 1}, 2)
    assert all(type(c) is int for c in p.values())
    # the braiding's q^{-<s1, s2>} = q is an int, its inverse a Fraction
    assert hall2.braid({(S1, S2): 1})[(S2, S1)] == 2
    assert type(hall2.braid_coeff((1, 0), (0, 1))) is int
    assert hall2.braid_coeff((1, 0), (0, 1), 1) == Fraction(1, 2)
    # coproduct_basis holds int numerators over |G_e|, coproduct(x) exact values:
    # Delta([S1 + S1]) has [S1] (x) [S1] with P = 3 over aut = |GL_2(F_2)| = 6
    s1s1 = "d2.0#0"
    assert all(type(c) is int for c in hall2.coproduct_basis(s1s1).values())
    assert hall2.coproduct_basis(s1s1)[(S1, S1)] == 3
    assert coproduct(hall2, {s1s1: 1}) == {
        (ZERO, s1s1): 1, (S1, S1): Fraction(1, 2), (s1s1, ZERO): 1}


def test_associativity_sample_q3(hall3):
    # a nontrivial triple at q = 3 with a grade-3 target
    va, vb, vc = ({x: 1} for x in (S1, S2, S1))
    left = hall3.product(hall3.product(va, vb, 3), vc, 3)
    right = hall3.product(va, hall3.product(vb, vc, 3), 3)
    assert left == right and left


def _cancelling(basis, image):
    """(x, k) for each pair of basis vectors whose exact images share a key:
    x is the two-term combination of the pair whose image cancels at k, the
    least shared key."""
    images = [image(b) for b in basis]
    for (b1, i1), (b2, i2) in combinations(zip(basis, images), 2):
        shared = i1.keys() & i2.keys()
        if shared:
            k = min(shared, key=str)
            yield combine(((b1, i2[k]), (b2, -i1[k]))), k


@pytest.mark.parametrize("name,q", [("a2", 2), ("a2", 3), ("a3-source", 2), ("a3-source", 3)])
def test_no_producer_stores_a_zero(name, q):
    """Every vector the Hall layer returns, up to grade 3, stores no zero
    coefficient: on basis inputs, on two-term inputs whose image cancels at
    a key (which is then absent), and on the residuals and Green rows, which
    are empty here and nonempty under the mutants that break them."""
    bound = 3
    ctx = RepCategory(load_quiver(name), q)
    hall = HallAlgebra(ctx)
    classes = ctx.classes_up_to(bound)

    def no_zero(v, gone=None):
        assert all(v.values()) and gone not in v, (v, gone)
        return v

    def tensor_maps(t):
        no_zero(hall.counit_tensor(t, 0))
        no_zero(hall.counit_tensor(t, 1))
        no_zero(hall.braid(t))
        no_zero(hall.braid_inverse(t))

    products = tensors = 0
    for cc in classes:
        rest = [{c.label: 1} for c in ctx.classes_up_to(bound - sum(cc.dim))]
        for side in (lambda x: hall.product(x, {cc.label: 1}, bound),
                     lambda x: hall.product({cc.label: 1}, x, bound)):
            for x, k in _cancelling(rest, side):
                no_zero(side(x), k)
                no_zero(hall.antipode_paper(x))
                products += 1

    def tensor_exact(s, t):
        out, top = hall.tensor_product(s, t, bound)
        return {k: Fraction(v, q ** top) for k, v in no_zero(out).items()}

    lefts = [{(cb.label, ca.label): 1} for cb, ca in ctx.class_tuples(2, 2)]
    for cd, cc in ctx.class_tuples(1, 2):
        t = {(cd.label, cc.label): 1}
        for x, k in _cancelling(lefts, lambda s: tensor_exact(s, t)):
            no_zero(hall.tensor_product(x, t, bound)[0], k)
            tensor_maps(x)
            tensors += 1
    assert products and tensors
    for c in classes:
        tensor_maps(hall.coproduct_basis(c.label))
        no_zero(hall.antipode_paper({c.label: 1}))
        no_zero(hall.antipode_canonical_basis(c.label, bound))
        assert no_zero(hall.antipode_residual(c.label, bound)) == {}
    pairs = [(cm.label, cn.label) for cm, cn in ctx.class_tuples(bound, 2)]
    for lm, ln in pairs:
        assert no_zero(hall.bialgebra_residual(lm, ln, bound)[0]) == {}
        assert no_zero(hall.green_residual(lm, ln)[0]) == {}
    with MUTANTS["coproduct_doubled"]():
        mutated = HallAlgebra(ctx)
        assert any([no_zero(mutated.bialgebra_residual(lm, ln, bound)[0]) for lm, ln in pairs])
    with MUTANTS["braid_exponent_swapped"]():
        mutated = HallAlgebra(ctx)
        assert any([no_zero(mutated.green_residual(lm, ln)[0]) for lm, ln in pairs])


@pytest.mark.parametrize("name,q", [("a2", 3), ("a3-source", 2)])
def test_suites_leave_the_kept_dicts_unchanged(name, q):
    """algebra, bialgebra, antipode and hexagon get the kept dicts
    themselves, not copies.  After a warm-up run, a second run leaves
    hall._memo equal to a deep copy taken between the two, and every kept
    value equals its recomputation on a fresh HallAlgebra, so the warm-up
    changed none either."""
    ctx = RepCategory(load_quiver(name), q)
    hall = HallAlgebra(ctx)
    suites = ("algebra", "bialgebra", "antipode", "hexagon")
    first = [verify.run_suite(s, ctx, hall, 3, seed=0) for s in suites]
    kept = copy.deepcopy(hall._memo)
    assert [verify.run_suite(s, ctx, hall, 3, seed=0) for s in suites] == first
    assert hall._memo == kept
    fresh = HallAlgebra(ctx)
    for qualname, table in kept.items():
        method = getattr(fresh, qualname.rpartition(".")[2])
        for args, value in table.items():
            assert method(*args) == value, (qualname, args)

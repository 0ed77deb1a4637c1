import pytest

from hallalg.linalg import BudgetError, Matrix, PrimeField, enumerate_matrices
from hallalg.quiver import (Quiver, RepCategory, RepMorphism, Representation,
                            dim_vectors_with_total)
from oracles import aut_order_slow, count_exact_pairs_slow


def hom_count_oracle(ctx, M, N):
    """Enumerate every tuple of vertex maps and keep the commuting ones."""
    per_vertex = [list(enumerate_matrices(N.dim[v], M.dim[v], ctx.q))
                  for v in range(ctx.quiver.n)]
    from itertools import product
    count = 0
    for maps in product(*per_vertex):
        if RepMorphism(M, N, maps).is_valid():
            count += 1
    return count


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(2, [(0, 1), (1, 0)])  # directed cycle
    with pytest.raises(ValueError):
        Quiver(2, [(0, 2)])
    assert Quiver(2, [(0, 1)]).is_dynkin
    assert Quiver(3, [(0, 1), (1, 2)]).is_dynkin
    assert Quiver(4, [(0, 1), (0, 2), (0, 3)]).is_dynkin  # D4
    assert not Quiver(2, [(0, 1), (0, 1)]).is_dynkin      # Kronecker
    assert not Quiver(3, [(0, 1)]).is_dynkin              # disconnected
    star5 = Quiver(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert not star5.is_dynkin                            # degree-4 vertex


def test_quiver_json_round_trip(a2):
    doc = a2.to_json_dict()
    assert doc == {"vertices": 2, "arrows": [[0, 1]]}
    assert Quiver.from_json_dict(doc) == a2


def test_hom_basis_examples(ctx2, reps2):
    S1, S2, P1 = reps2["S1"], reps2["S2"], reps2["P1"]
    assert ctx2.hom_dim(S1, S2) == 0
    assert ctx2.hom_dim(S2, P1) == 1
    for M in (S1, S2, P1, reps2["SS"]):
        basis = ctx2.hom_basis(M, M)
        ident = RepMorphism.identity(M)
        combos = ctx2._span_elements(basis, M, M)
        assert ident in combos
        for mor in basis:
            assert mor.is_valid()


def test_hom_dim_against_full_enumeration(ctx2, reps2):
    for a in ("S1", "S2", "P1", "SS"):
        for b in ("S1", "S2", "P1", "SS"):
            M, N = reps2[a], reps2[b]
            assert hom_count_oracle(ctx2, M, N) == 2 ** ctx2.hom_dim(M, N)


def test_ext_examples(ctx2, reps2):
    S1, S2 = reps2["S1"], reps2["S2"]
    assert ctx2.ext1_dim(S1, S2) == 1
    assert ctx2.ext1_dim(S2, S1) == 0
    assert ctx2.ext1_dim(S2, S2) == 0  # simple at the sink


def test_euler_form_examples(ctx2):
    assert ctx2.euler_form((1, 0), (0, 1)) == -1
    assert ctx2.euler_form((0, 1), (1, 0)) == 0
    for d in [(0, 0), (1, 2), (3, 1)]:
        assert ctx2.euler_form(d, (0, 0)) == 0
    with pytest.raises(ValueError):
        ctx2.euler_form((1,), (0, 1))


def test_euler_form_is_hom_minus_ext_on_witnesses(ctx2, ctx3, ctx_a3):
    for ctx in (ctx2, ctx3, ctx_a3):
        classes = ctx.classes_up_to(2)
        for cm in classes:
            for cn in classes:
                if sum(cm.dim) + sum(cn.dim) > 4:
                    continue
                got = ctx.euler_form(cm.dim, cn.dim)
                want = ctx.hom_dim(cm.rep, cn.rep) - ctx.ext1_dim(cm.rep, cn.rep)
                assert got == want


def test_euler_form_bilinear(ctx2, ctx_a3):
    for ctx in (ctx2, ctx_a3):
        n = ctx.quiver.n
        vecs = [d for total in range(6) for d in dim_vectors_with_total(n, total)
                if max(d, default=0) <= 5]
        for m1 in vecs[:12]:
            for m2 in vecs[:12]:
                for nn in vecs[:12]:
                    s = tuple(a + b for a, b in zip(m1, m2))
                    assert ctx.euler_form(s, nn) == \
                        ctx.euler_form(m1, nn) + ctx.euler_form(m2, nn)
                    assert ctx.euler_form(nn, s) == \
                        ctx.euler_form(nn, m1) + ctx.euler_form(nn, m2)


def test_aut_orders(ctx2, ctx3, reps2, reps3):
    assert ctx2.aut_order(reps2["S1"]) == 1
    assert ctx2.aut_order(reps2["zero"]) == 1
    assert ctx2.aut_order(reps2["SS"]) == 1
    assert ctx3.aut_order(reps3["SS"]) == 4
    # oracle: enumerate the endomorphism span and count invertibles
    for key in ("S1", "SS", "P1"):
        assert ctx2.aut_order(reps2[key]) == aut_order_slow(ctx2, reps2[key])
        assert ctx3.aut_order(reps3[key]) == aut_order_slow(ctx3, reps3[key])


def test_is_isomorphic(ctx2, reps2):
    S1, S2, P1, SS = reps2["S1"], reps2["S2"], reps2["P1"], reps2["SS"]
    assert ctx2.is_isomorphic(P1, P1)
    assert not ctx2.is_isomorphic(SS, P1)
    # any two dim (1,1) reps with nonzero edge map are isomorphic
    other = Representation(ctx2.quiver, ctx2.field, (1, 1),
                           [Matrix(ctx2.field, [[1]])])
    assert ctx2.is_isomorphic(P1, other)
    assert not ctx2.is_isomorphic(S1, S2)


def test_classify_examples(ctx2):
    assert len(ctx2.classify((1, 0))) == 1
    cls11 = ctx2.classify((1, 1))
    assert len(cls11) == 2
    assert cls11[0].rep.edge_maps[0].is_zero()       # split sum comes first
    assert not cls11[1].rep.edge_maps[0].is_zero()   # then the projective
    assert len(ctx2.classify((2, 1))) == 2
    # orbit-stabilizer sanity: orbits partition the tuple space
    for dim in [(1, 1), (2, 1), (2, 2)]:
        classes = ctx2.classify(dim)
        assert sum(c.orbit_size for c in classes) == ctx2.tuple_space_size(dim)
        group = 1
        from hallalg.linalg import gl_order
        for d in dim:
            group *= gl_order(d, 2)
        for c in classes:
            assert c.orbit_size * ctx2.aut_order(c.rep) == group


def test_classify_deterministic_labels(ctx2):
    first = [c.label for c in ctx2.classify((2, 2))]
    again = [c.label for c in RepCategory(ctx2.quiver, 2).classify((2, 2))]
    assert first == again


def test_budget_exceeded(a2):
    tiny = RepCategory(a2, 2, budget=3)
    with pytest.raises(BudgetError):
        tiny.classify((2, 2))


def test_iso_set_budget_counts_the_vertex_product(a2):
    # each GL_2(F_3) factor (48) fits the budget; their product (2304) does not
    ctx = RepCategory(a2, 3, budget=1000)
    with pytest.raises(BudgetError) as err:
        ctx.aut_elements(ctx.class_by_label("d2.2#0").rep)
    assert err.value.count == 2304
    assert "2304" in str(err.value)


def test_positive_roots(ctx2, ctx_a3):
    assert ctx2.positive_roots() == [(0, 1), (1, 0), (1, 1)]
    assert len(ctx_a3.positive_roots()) == 6
    a1 = RepCategory(Quiver(1, []), 2)
    assert a1.positive_roots() == [(1,)]
    non_ade = RepCategory(Quiver(2, [(0, 1), (0, 1)]), 2)
    with pytest.raises(ValueError):
        non_ade.positive_roots()


def test_count_exact_pairs_examples(ctx2, ctx3, reps2, reps3):
    for ctx, reps, q in ((ctx2, reps2, 2), (ctx3, reps3, 3)):
        S1, S2, P1, SS = reps["S1"], reps["S2"], reps["P1"], reps["SS"]
        assert ctx.count_exact_pairs(S1, S2, P1) == (q - 1) ** 2
        assert ctx.count_exact_pairs(S2, S1, SS) == (q - 1) ** 2
        assert ctx.count_exact_pairs(S1, S1, P1) == 0  # grading mismatch
        # slow double-enumeration oracle
        for (M, N, E) in ((S1, S2, P1), (S2, S1, SS), (S1, S2, SS)):
            assert ctx.count_exact_pairs(M, N, E) == \
                count_exact_pairs_slow(ctx, M, N, E)


def test_quotient_examples(ctx2, reps2):
    S1, S2, P1, SS = reps2["S1"], reps2["S2"], reps2["P1"], reps2["SS"]
    zero = reps2["zero"]
    # E / 0 is E
    zmor = RepMorphism(zero, P1, [Matrix.zero(ctx2.field, 1, 0),
                                  Matrix.zero(ctx2.field, 1, 0)])
    assert ctx2.is_isomorphic(ctx2.quotient(P1, zmor), P1)
    # P1 / S2 is S1
    inc = RepMorphism(S2, P1, [Matrix.zero(ctx2.field, 1, 0),
                               Matrix(ctx2.field, [[1]])])
    assert inc.is_valid()
    assert ctx2.is_isomorphic(ctx2.quotient(P1, inc), S1)
    # (M + N) / N is M for the canonical injection
    inc2 = RepMorphism(S2, SS, [Matrix.zero(ctx2.field, 1, 0),
                                Matrix(ctx2.field, [[1]])])
    assert ctx2.is_isomorphic(ctx2.quotient(SS, inc2), S1)
    with pytest.raises(ValueError):
        ctx2.quotient(P1, RepMorphism(S2, P1, [Matrix.zero(ctx2.field, 1, 0),
                                               Matrix(ctx2.field, [[0]])]))


def test_middle_term_examples(ctx2, ctx3, reps2, reps3):
    S1, S2 = reps2["S1"], reps2["S2"]
    E0 = ctx2.middle_term(S1, S2, [Matrix(ctx2.field, [[0]])])
    assert ctx2.is_isomorphic(E0, reps2["SS"])
    E1 = ctx2.middle_term(S1, S2, [Matrix(ctx2.field, [[1]])])
    assert ctx2.is_isomorphic(E1, reps2["P1"])
    # cohomologous cocycles give isomorphic middle terms over F_3
    S1_3, S2_3 = reps3["S1"], reps3["S2"]
    Ea = ctx3.middle_term(S1_3, S2_3, [Matrix(ctx3.field, [[1]])])
    Eb = ctx3.middle_term(S1_3, S2_3, [Matrix(ctx3.field, [[2]])])
    assert ctx3.is_isomorphic(Ea, Eb)


def test_middle_term_ses_is_exact(ctx2, reps2):
    E, incl, proj = ctx2.middle_term_ses(reps2["S1"], reps2["S2"],
                                         [Matrix(ctx2.field, [[1]])])
    assert incl.is_valid() and proj.is_valid()
    assert incl.is_injective() and proj.is_surjective()
    assert proj.compose(incl).is_zero()


def test_commuting_square_invariant_on_all_outputs(ctx2, reps2):
    for a in ("S1", "SS", "P1"):
        for b in ("S1", "SS", "P1"):
            for mor in ctx2.hom_basis(reps2[a], reps2[b]):
                assert mor.is_valid()
            for mor in ctx2.iso_set(reps2[a], reps2[b]):
                assert mor.is_valid() and mor.is_invertible()


def test_invariant_subreps_consistency(ctx2, reps2):
    # every subrep yields a valid inclusion and an exact quotient
    E = reps2["P1"]
    subs = ctx2.invariant_subreps(E, (0, 1))
    assert len(subs) == 1
    incl, Q, proj = subs[0]
    assert incl.is_valid() and incl.is_injective()
    assert proj.is_valid() and proj.is_surjective()
    assert proj.compose(incl).is_zero()
    # no invariant subrep of P1 has dimension (1, 0)
    assert ctx2.invariant_subreps(E, (1, 0)) == []


def test_indecomposables_match_gabriel(ctx2, ctx_a3):
    assert len(ctx2.indecomposable_classes(4, max_entry=2)) == 3
    assert len(ctx_a3.indecomposable_classes(4, max_entry=2)) == 6


def test_ext_class_reps_and_extension_class(ctx2, reps2):
    S1, S2 = reps2["S1"], reps2["S2"]
    reps = ctx2.ext_class_reps(S1, S2)
    assert len(reps) == 2  # q^{ext dim} = 2
    seen = set()
    for vec in reps:
        E, incl, proj = ctx2.middle_term_ses(S1, S2, vec)
        back = ctx2.extension_class(S1, S2, E, incl, proj)
        assert back == ctx2.reduce_cocycle(S1, S2, vec)
        seen.add(back)
    assert len(seen) == 2

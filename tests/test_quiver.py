import random
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest

from hallalg import verify
from hallalg.cli import load_quiver
from hallalg.hall import HallAlgebra
from hallalg.linalg import BudgetError, Matrix, PrimeField, flatten, unflatten
from hallalg.quiver import (Quiver, RepCategory, RepMorphism, Representation,
                            dim_vectors_with_total)
from mutants import MUTANTS
from oracles import (aut_order_slow, classify_by_matrix_orbits, complement_columns,
                     count_exact_pairs_slow, enumerate_matrices, ext1_dim, identity_morphism,
                     indecomposable_classes, invariant_subreps, invariant_subreps_by_solve,
                     is_indecomposable,
                     is_injective, is_invertible, is_surjective, is_simply_laced_dynkin,
                     is_valid, is_zero, iso_set_by_products, pivot_row_complement,
                     positive_roots, quiver_to_json_dict, quotient_with_projection,
                     reduce_cocycle_by_solve, span_elements, subrep_on, zero_matrix)


def hom_count_oracle(ctx, M, N):
    """Enumerate every tuple of vertex maps and keep the commuting ones."""
    per_vertex = [list(enumerate_matrices(N.dim[v], M.dim[v], ctx.q))
                  for v in range(ctx.quiver.n)]
    count = 0
    for maps in product(*per_vertex):
        if is_valid(RepMorphism(M, N, maps)):
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


def _trees():
    """Paths, stars with arms (1, 1, r) and (1, 2, r), and the affine E
    trees (2, 2, 2), (1, 3, 3) and (1, 2, 5), arms counted in edges."""
    def star(arms):
        arrows, v = [], 1
        for length in arms:
            prev = 0
            for _ in range(length):
                arrows.append((prev, v))
                prev, v = v, v + 1
        return Quiver(v, arrows)
    yield from (Quiver(n, [(i, i + 1) for i in range(n - 1)]) for n in (1, 9, 10))
    yield from (star(arms) for arms in ((1, 1, 5), (1, 1, 6), (1, 2, 3), (1, 2, 4),
                                        (2, 2, 2), (1, 3, 3), (1, 2, 5)))


def test_is_dynkin_matches_the_shape_classifier():
    """The Tits-form test agrees with the A/D/E tree shapes on every quiver
    whose arrows s -> t, s < t, form a multiset of at most n arrows on n <= 5
    vertices, and on A1, A9, A10, D8, D9, E7, E8 and the affine E6, E7, E8 trees."""
    seen = Counter()
    for n in range(6):
        pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
        for k in range(n + 1):
            for arrows in combinations_with_replacement(pairs, k):
                quiver = Quiver(n, arrows)
                assert quiver.is_dynkin == is_simply_laced_dynkin(quiver), quiver
                seen[quiver.is_dynkin] += 1
    for quiver in _trees():
        assert quiver.is_dynkin == is_simply_laced_dynkin(quiver), quiver
        seen[quiver.is_dynkin, "tree"] += 1
    assert seen[True, "tree"] == 7 and seen[False, "tree"] == 3
    assert (seen[True], seen[False]) == (141, 3097)


def test_quiver_json_round_trip(a2):
    doc = quiver_to_json_dict(a2)
    assert doc == {"vertices": 2, "arrows": [[0, 1]]}
    assert Quiver.from_json_dict(doc) == a2


def test_hom_basis_examples(ctx2, reps2):
    S1, S2, P1 = reps2["S1"], reps2["S2"], reps2["P1"]
    assert ctx2.hom_dim(S1, S2) == 0
    assert ctx2.hom_dim(S2, P1) == 1
    for M in (S1, S2, P1, reps2["SS"]):
        basis = ctx2.hom_basis(M, M)
        ident = identity_morphism(M)
        combos = span_elements(ctx2, basis, M, M)
        assert ident in combos
        for mor in basis:
            assert is_valid(mor)


def test_hom_dim_against_full_enumeration(ctx2, reps2):
    for a in ("S1", "S2", "P1", "SS"):
        for b in ("S1", "S2", "P1", "SS"):
            M, N = reps2[a], reps2[b]
            assert hom_count_oracle(ctx2, M, N) == 2 ** ctx2.hom_dim(M, N)


def test_ext_examples(ctx2, reps2):
    S1, S2 = reps2["S1"], reps2["S2"]
    assert ext1_dim(ctx2, S1, S2) == 1
    assert ext1_dim(ctx2, S2, S1) == 0
    assert ext1_dim(ctx2, S2, S2) == 0  # simple at the sink


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
                want = ctx.hom_dim(cm.rep, cn.rep) - ext1_dim(ctx, cm.rep, cn.rep)
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


def test_class_of_names_an_index_past_its_table(a2):
    """A canon index with no class in the table (a classify that lost a class,
    as the orbits_merged mutant's does) is a ValueError naming the dim, the
    index and the table length, not a bare IndexError."""
    ctx = RepCategory(a2, 2)
    classes = ctx.classify((1, 1))
    P1 = classes.pop().rep
    with pytest.raises(ValueError, match=r"^class index 1 of dim \(1, 1\) is past the 1 "
                                         r"classes of its table$"):
        ctx.class_of(P1)


def test_kept_memo_is_per_context_by_content_and_skips_raising_calls(a2):
    """Two contexts share no memo entry; a content-equal copy of a
    representation hits the memo; a call that raises raises again and stores
    nothing under its key."""
    one, two = RepCategory(a2, 2), RepCategory(a2, 2)
    f = one.field
    P1, S1, S2 = (one.class_by_label(x).rep for x in ("d1.1#1", "d1.0#0", "d0.1#0"))
    basis = one.hom_basis(P1, P1)
    copy = Representation(a2, f, P1.dim, [Matrix(f, m.entries) for m in P1.edge_maps])
    assert copy is not P1 and one.hom_basis(copy, copy) is basis
    assert two._memo == {}
    assert two.hom_basis(P1, P1) is not basis and two.hom_basis(P1, P1) == basis
    top = (Matrix(f, [[1]]), zero_matrix(f, 1, 0))     # the S1 coordinate: not invariant
    zero = RepMorphism(P1, S1, [Matrix(f, [[0]]), zero_matrix(f, 0, 1)])
    incl = RepMorphism(S2, P1, [zero_matrix(f, 1, 0), Matrix(f, [[1]])])
    for _ in range(2):
        with pytest.raises(ValueError, match="not a subrepresentation"):
            one.subrep_frames(P1, top)
        with pytest.raises(ValueError, match="projection is not surjective"):
            one.extension_class(S1, S2, P1, incl, zero)
    assert "RepCategory.subrep_frames" not in one._memo
    assert "RepCategory.extension_class" not in one._memo


def test_memo_tables_keep_their_sizes_on_verify_all(a2):
    """The memo of one verify all context (a2, q = 2, max-dim 3), entries per
    kept function.  Every key shares its entries by content or by class: a
    key that lost that sharing grows its count here."""
    ctx = RepCategory(a2, 2)
    hall = HallAlgebra(ctx)
    for name in verify.SUITE_ORDER:
        verify.run_suite(name, ctx, hall, 3, seed=0)
    assert {name: len(table) for name, table in ctx._memo.items()} == {
        "RepCategory.hom_basis": 76, "RepCategory.first_iso": 17,
        "RepCategory.ext_complement": 65, "RepCategory.middle_term_ses": 58,
        "RepCategory.extension_class": 241, "ExtGroupoid.of": 65, "_fixed_end_sum": 45,
        "split_sequence": 162, "RepCategory.pair_count": 92, "RepCategory.aut_elements": 7,
        "RepCategory._frame": 37, "RepCategory.direct_sum": 133,
        "RepCategory._orbit_tree": 13, "RepCategory.subrep_frames": 222,
        "RepCategory._census_walk": 22}
    assert {name: len(table) for name, table in hall._memo.items()} == {
        "HallAlgebra.product_basis": 45, "HallAlgebra.factorizations": 13,
        "HallAlgebra.coproduct_basis": 13, "HallAlgebra.antipode_canonical_basis": 13,
        "HallAlgebra.braid_coeff": 7516, "HallAlgebra.grade_order": 10}


def test_budget_exceeded(a2):
    tiny = RepCategory(a2, 2, budget=3)
    with pytest.raises(BudgetError):
        tiny.classify((2, 2))


def test_subrep_budget_is_checked_before_any_frame(a2):
    ctx = RepCategory(a2, 2, budget=2)
    E = Representation(a2, ctx.field, (2, 2), [zero_matrix(ctx.field, 2, 2)])
    with pytest.raises(BudgetError) as err:
        invariant_subreps(ctx, E, (1, 1))
    assert err.value.what == "subspace tuples for subreps of dim (1, 1)"
    assert err.value.count == 9
    assert ctx._memo == {} and ctx._subspace_frames == {}


def test_census_budget_is_checked_before_any_frame(a2):
    """A census walks E once over every sub-dimension, so the budget meets the
    whole walk: (1 + 3 + 1)^2 = 25 subspace pairs for E = (2, 2) at q = 2."""
    ctx = RepCategory(a2, 2)
    ce = ctx.class_of(Representation(a2, ctx.field, (2, 2), [zero_matrix(ctx.field, 2, 2)]))
    ctx.budget = 2
    with pytest.raises(BudgetError) as err:
        ctx.census(ce, (1, 1))
    assert err.value.what == "subspace tuples for subreps of every dim <= (2, 2)"
    assert err.value.count == 25
    assert ctx._memo == {} and ctx._subspace_frames == {}


def test_iso_set_budget_counts_the_vertex_product(a2):
    # the walk covers End = M_2(F_3) x M_2(F_3): each factor (3^4 = 81 points)
    # fits the budget, the product (3^8 = 6561) does not
    ctx = RepCategory(a2, 3, budget=1000)
    with pytest.raises(BudgetError) as err:
        ctx.aut_elements(ctx.class_by_label("d2.2#0").rep)
    assert err.value.count == 6561
    assert err.value.what == "Hom-space span enumeration dim 8"
    assert "6561" in str(err.value)


@pytest.mark.parametrize("name,p", [("a2", 2), ("a2", 3), ("a3_source", 2)])
def test_iso_set_matches_gl_products_and_span_filter(request, name, p):
    """aut_elements against GL products for semisimple representations and
    the filtered span of hom_basis otherwise, and first_iso against the
    isomorphisms the same way (one of them, or None exactly when there is
    none), on every pair of classes up to dim 3.  Each class also brings the
    greatest edge tuple of its orbit, so that pairs of distinct isomorphic
    representations are compared too."""
    ctx = RepCategory(request.getfixturevalue(name), p)
    for total in range(4):
        for dim in dim_vectors_with_total(ctx.quiver.n, total):
            classes = ctx.classify(dim)
            last = {}
            for flat, i in ctx._canon[dim].items():
                last[i] = max(last.get(i, flat), flat)
            shapes = [(dim[t], dim[s]) for s, t in ctx.quiver.arrows]
            reps = dict.fromkeys([c.rep for c in classes] + [
                Representation(ctx.quiver, ctx.field, dim, unflatten(ctx.field, flat, shapes))
                for flat in last.values()])
            for M in reps:
                got = [mor.vertex_maps for mor in ctx.aut_elements(M)]
                assert len(set(got)) == len(got)
                assert set(got) == iso_set_by_products(ctx, M, M)
                for N in reps:
                    isos = iso_set_by_products(ctx, M, N)
                    first = ctx.first_iso(M, N)
                    assert (first is None) == (not isos)
                    assert first is None or first.vertex_maps in isos
            for cls in classes:
                assert len(ctx.aut_elements(cls.rep)) == cls.aut


@pytest.mark.parametrize("name,p,bound", [("a2", 3, 3), ("d4", 2, 2)])
def test_first_iso_transports_within_every_orbit(name, p, bound):
    """first_iso(M, N) is one of the isomorphisms iso_set_by_products lists,
    for every pair of edge tuples M, N of one orbit, on every dim up to
    bound.  The orbit tree of each class holds exactly its orbit, and the
    walk up from every tuple reaches the representative in fewer steps than
    the orbit size."""
    ctx = RepCategory(load_quiver(name), p)
    for total in range(bound + 1):
        for dim in dim_vectors_with_total(ctx.quiver.n, total):
            shapes = [(dim[t], dim[s]) for s, t in ctx.quiver.arrows]
            for cls in ctx.classify(dim):
                orbit = [flat for flat, i in ctx._canon[dim].items() if i == cls.index]
                tree = ctx._orbit_tree(cls)
                assert sorted(tree) == sorted(orbit) and len(orbit) == cls.orbit_size
                for flat in orbit:
                    steps, node = 0, flat
                    while tree[node] is not None and steps < cls.orbit_size:
                        node, steps = tree[node][0], steps + 1
                    assert node == flatten(cls.rep.edge_maps) and steps < cls.orbit_size
                reps = [Representation(ctx.quiver, ctx.field, dim,
                                       unflatten(ctx.field, flat, shapes)) for flat in orbit]
                for M in reps:
                    for N in reps:
                        assert ctx.first_iso(M, N).vertex_maps in iso_set_by_products(ctx, M, N)


def test_representation_constructor_checks_shapes(a2, ctx2):
    """The public constructor validates every edge map; only the package's
    own builds, whose shapes are right by construction, skip the check."""
    f = ctx2.field
    with pytest.raises(ValueError, match="edge map shape"):
        Representation(a2, f, (1, 1), [Matrix(f, [[1, 0]])])
    with pytest.raises(ValueError, match="edge map shape"):
        Representation(a2, f, (2, 1), [Matrix(f, [[1, 0]]).transpose()])
    with pytest.raises(ValueError):
        Representation(a2, f, (1, 1), [])
    rep = Representation(a2, f, (2, 1), [Matrix(f, [[1, 0]])])
    assert ctx2.is_isomorphic(rep, Representation(a2, f, (2, 1), [Matrix(f, [[0, 1]])]))
    for cls in ctx2.classes_up_to(3):
        assert Representation(a2, f, cls.dim, cls.rep.edge_maps) == cls.rep


def test_positive_roots(ctx2, ctx_a3):
    assert positive_roots(ctx2) == [(0, 1), (1, 0), (1, 1)]
    assert len(positive_roots(ctx_a3)) == 6
    a1 = RepCategory(Quiver(1, []), 2)
    assert positive_roots(a1) == [(1,)]
    non_ade = RepCategory(Quiver(2, [(0, 1), (0, 1)]), 2)
    with pytest.raises(ValueError):
        positive_roots(non_ade)


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


@pytest.mark.parametrize("name,p", [("a2", 2), ("a2", 3), ("a3_source", 2)])
def test_pair_count_census_matches_slow_oracle(request, name, p):
    """Every class triple up to total dim 3, census count against the oracle."""
    quiver = request.getfixturevalue(name)
    labels = [c.label for c in RepCategory(quiver, p).classes_up_to(3)]
    ctx = RepCategory(quiver, p)
    for label in labels:            # first lookup of a dim classifies it
        cls = ctx.class_by_label(label)
        assert cls is ctx.classify(cls.dim)[cls.index]
        assert ctx.class_by_label(label) is cls
    classes = ctx.classes_up_to(3)
    compared = 0
    for ce in classes:
        for cm in classes:
            for cn in classes:
                if sum(cm.dim) + sum(cn.dim) != sum(ce.dim):
                    continue
                want = count_exact_pairs_slow(ctx, cm.rep, cn.rep, ce.rep)
                assert ctx.count_exact_pairs(cm.rep, cn.rep, ce.rep) == want, \
                    (cm.label, cn.label, ce.label)
                assert ctx.pair_count(cm, cn, ce) == want
                compared += 1
    assert compared > len(classes)


def test_quotient_examples(ctx2, reps2):
    S1, S2, P1, SS = reps2["S1"], reps2["S2"], reps2["P1"], reps2["SS"]
    zero = reps2["zero"]
    # E / 0 is E
    zmor = RepMorphism(zero, P1, [zero_matrix(ctx2.field, 1, 0),
                                  zero_matrix(ctx2.field, 1, 0)])
    assert ctx2.is_isomorphic(quotient_with_projection(ctx2, P1, zmor)[0], P1)
    # P1 / S2 is S1
    inc = RepMorphism(S2, P1, [zero_matrix(ctx2.field, 1, 0),
                               Matrix(ctx2.field, [[1]])])
    assert is_valid(inc)
    assert ctx2.is_isomorphic(quotient_with_projection(ctx2, P1, inc)[0], S1)
    # (M + N) / N is M for the canonical injection
    inc2 = RepMorphism(S2, SS, [zero_matrix(ctx2.field, 1, 0),
                                Matrix(ctx2.field, [[1]])])
    assert ctx2.is_isomorphic(quotient_with_projection(ctx2, SS, inc2)[0], S1)
    with pytest.raises(ValueError):
        quotient_with_projection(ctx2, 
            P1, RepMorphism(S2, P1, [zero_matrix(ctx2.field, 1, 0),
                                     Matrix(ctx2.field, [[0]])]))[0]
    # injective vertex maps whose image is not a subrepresentation
    with pytest.raises(ValueError):
        quotient_with_projection(ctx2, 
            P1, RepMorphism(S1, P1, [Matrix(ctx2.field, [[1]]), zero_matrix(ctx2.field, 1, 0)]))


def test_quotient_is_memoised_but_errors_are_not(ctx2, reps2):
    S2, P1 = reps2["S2"], reps2["P1"]
    f = ctx2.field
    inc = RepMorphism(S2, P1, [zero_matrix(f, 1, 0), Matrix(f, [[1]])])
    Q, proj = quotient_with_projection(ctx2, P1, inc)
    again = quotient_with_projection(ctx2, P1, RepMorphism(S2, P1, list(inc.vertex_maps)))
    assert again[0] is Q and again[1] is proj
    zero = RepMorphism(S2, P1, [zero_matrix(f, 1, 0), Matrix(f, [[0]])])
    top = RepMorphism(reps2["S1"], P1, [Matrix(f, [[1]]), zero_matrix(f, 1, 0)])
    for _ in range(2):
        with pytest.raises(ValueError, match="non-injective"):
            quotient_with_projection(ctx2, P1, zero)
        with pytest.raises(ValueError, match="not a subrepresentation"):
            quotient_with_projection(ctx2, P1, top)


def test_middle_term_examples(ctx2, ctx3, reps2, reps3):
    S1, S2 = reps2["S1"], reps2["S2"]
    E0 = ctx2.middle_term(S1, S2, [0])
    assert ctx2.is_isomorphic(E0, reps2["SS"])
    E1 = ctx2.middle_term(S1, S2, [1])
    assert ctx2.is_isomorphic(E1, reps2["P1"])
    # cohomologous cocycles give isomorphic middle terms over F_3
    S1_3, S2_3 = reps3["S1"], reps3["S2"]
    Ea = ctx3.middle_term(S1_3, S2_3, [1])
    Eb = ctx3.middle_term(S1_3, S2_3, [2])
    assert ctx3.is_isomorphic(Ea, Eb)


def test_zero_cocycle_gives_the_chosen_direct_sum(ctx2, reps2, a3_source):
    ctx_src = RepCategory(a3_source, 2)
    for ctx in (ctx2, ctx_src):
        classes = ctx.classes_up_to(2)
        for cm in classes:
            for cn in classes:
                M, N = cm.rep, cn.rep
                zero = (0,) * sum(r * c for r, c in ctx.cocycle_blocks(M, N))
                assert ctx.middle_term(M, N, zero) == N.direct_sum(M)
    with pytest.raises(ValueError):
        ctx2.middle_term(reps2["S1"], reps2["S2"], (0, 0))   # one coordinate, not two
    with pytest.raises(TypeError):                               # blocks are not coordinates
        ctx2.middle_term(reps2["S1"], reps2["S2"], [Matrix(ctx2.field, [[1]])])


def test_subrep_on_accepts_only_invariant_subspaces(ctx2, reps2):
    P1 = reps2["P1"]                      # S1 -> S2 by the identity: S2 is its only sub
    f = ctx2.field
    top = [Matrix(f, [[1]]), zero_matrix(f, 1, 0)]       # the S1 coordinate alone
    bottom = [zero_matrix(f, 1, 0), Matrix(f, [[1]])]    # the S2 coordinate alone
    assert subrep_on(ctx2, P1, top) is None
    incl = subrep_on(ctx2, P1, bottom)
    assert incl.target is P1 and is_valid(incl) and is_injective(incl)
    assert ctx2.is_isomorphic(incl.source, reps2["S2"])
    assert [i for i, _, _ in invariant_subreps(ctx2, P1, (0, 1))] == [incl]


def test_middle_term_ses_is_exact(ctx2, reps2):
    E, incl, proj = ctx2.middle_term_ses(reps2["S1"], reps2["S2"], (1,))
    assert is_valid(incl) and is_valid(proj)
    assert is_injective(incl) and is_surjective(proj)
    assert is_zero(proj.compose(incl))


def test_commuting_square_invariant_on_all_outputs(ctx2, reps2):
    for a in ("S1", "SS", "P1"):
        for b in ("S1", "SS", "P1"):
            for mor in ctx2.hom_basis(reps2[a], reps2[b]):
                assert is_valid(mor)
            isos = ctx2.aut_elements(reps2[a]) + [ctx2.first_iso(reps2[a], reps2[b])]
            for mor in filter(None, isos):
                assert is_valid(mor) and is_invertible(mor)


def test_invariant_subreps_consistency(ctx2, reps2):
    # every subrep yields a valid inclusion and an exact quotient
    E = reps2["P1"]
    subs = invariant_subreps(ctx2, E, (0, 1))
    assert len(subs) == 1
    incl, Q, proj = subs[0]
    assert is_valid(incl) and is_injective(incl)
    assert is_valid(proj) and is_surjective(proj)
    assert is_zero(proj.compose(incl))
    # no invariant subrep of P1 has dimension (1, 0)
    assert invariant_subreps(ctx2, E, (1, 0)) == []


def test_quotient_coordinates_are_the_pivot_row_complement(a3_source):
    """Per vertex, the projection to E/U sends the basis B of U to 0 and the
    complement C, the standard vectors off the pivot rows of B, to the
    identity, and each arrow acts on E/U as proj_t E_a C_s."""
    ctx = RepCategory(a3_source, 3)
    f = ctx.field
    seen = 0
    for cls in ctx.classes_up_to(3):
        E = cls.rep
        for sub_dim in product(*(range(d + 1) for d in E.dim)):
            for incl, Q, proj in invariant_subreps(ctx, E, sub_dim):
                C = []
                for B, P in zip(incl.vertex_maps, proj.vertex_maps):
                    picked = pivot_row_complement(B)
                    C.append(Matrix(f, [[int(i == j) for j in picked] for i in range(B.rows)],
                                    B.rows, len(picked)))
                    assert P * B == zero_matrix(f, P.rows, B.cols)
                    assert P * C[-1] == Matrix.identity(f, P.rows)
                for k, (s, t) in enumerate(a3_source.arrows):
                    assert Q.edge_maps[k] == proj.vertex_maps[t] * E.edge_maps[k] * C[s]
                seen += 1
    assert seen > 100


def test_reduce_cocycle_matches_solve_oracle(ctx2, ctx3, a3_source):
    """One cached reduction matrix per (M, N) agrees with a fresh solve per
    cocycle onto the pivot-row complement, is idempotent, kills every
    coboundary, and puts cocycles in the same classes as a solve onto the
    greedy complement does, on every pair of classes of total dim <= 4 of a2
    (q = 2, 3), a3-source (q = 3) and d4 (q = 2).  The two complements
    differ on a few of these pairs, so the test tells the two rules apart."""
    rng = random.Random(20261018)
    shapes, differ = set(), []
    for ctx in (ctx2, ctx3, RepCategory(a3_source, 3), RepCategory(D4, 2)):
        p = ctx.q
        for cm, cn in ctx.class_tuples(4, 2):
            M, N = cm.rep, cn.rep
            phi, _, _ = ctx._presentation_matrix(M, N)
            ext = ext1_dim(ctx, M, N)
            shapes.add((phi.rows == 0, ext == 0))
            echelon, pivots = phi.transpose().rref()
            image = Matrix(ctx.field, echelon.entries[:len(pivots)], len(pivots), phi.rows)
            if complement_columns(image.transpose()) != ctx.ext_complement(M, N)[0]:
                differ.append((ctx.quiver.name, cm.label, cn.label))
            for _ in range(3):
                v = tuple(rng.randrange(p) for _ in range(phi.rows))
                red = ctx.reduce_cocycle(M, N, v)
                greedy = reduce_cocycle_by_solve(ctx, M, N, v, complement_columns)
                assert red == reduce_cocycle_by_solve(ctx, M, N, v)
                assert ctx.reduce_cocycle(M, N, red) == red
                assert ctx.reduce_cocycle(M, N, greedy) == red
                assert reduce_cocycle_by_solve(ctx, M, N, red, complement_columns) == greedy
            zero = (0,) * phi.rows
            for _ in range(2):
                x = tuple(rng.randrange(p) for _ in range(phi.cols))
                assert ctx.reduce_cocycle(M, N, phi.apply(x)) == zero
            reps = ctx.ext_class_reps(M, N)
            assert len({ctx.reduce_cocycle(M, N, r) for r in reps}) == p ** ext
    # cocycle space 0, Ext = 0 with nonzero cocycles, and Ext != 0 all occur
    assert shapes == {(True, True), (False, True), (False, False)}
    assert differ == [("a3-source", "d0.1.0#0", "d1.1.1#3"), ("d4", "d1.0.0.0#0", "d1.0.1.1#3"),
                      ("d4", "d1.0.0.0#0", "d1.1.0.1#3"), ("d4", "d1.0.0.0#0", "d1.1.1.0#3")]


def ext_reduction_violations(ctx, bound, rng):
    """The (M label, N label, property) triples, over every pair of classes of
    total dim <= bound, where reduce_cocycle breaks one of three properties:
    it sends the coboundaries phi x to 0, x a unit vector of the domain or
    one of two seeded draws ("coboundary"); it fixes the unit vector e_c of
    every complement coordinate c ("rest"); and its image, spanned by the
    reductions of the unit cocycles, has dimension dim Hom(M, N) - <m, n> =
    dim Ext^1(M, N) ("image")."""
    out = []
    for cm, cn in ctx.class_tuples(bound, 2):
        M, N = cm.rep, cn.rep
        phi = ctx._presentation_matrix(M, N)[0]
        units = Matrix.identity(ctx.field, phi.rows).entries
        draws = list(Matrix.identity(ctx.field, phi.cols).entries) + [
            tuple(rng.randrange(ctx.q) for _ in range(phi.cols)) for _ in range(2)]
        if any(any(ctx.reduce_cocycle(M, N, phi.apply(x))) for x in draws):
            out.append((cm.label, cn.label, "coboundary"))
        if any(ctx.reduce_cocycle(M, N, units[c]) != units[c]
               for c in ctx.ext_complement(M, N)[0]):
            out.append((cm.label, cn.label, "rest"))
        image = Matrix(ctx.field, [ctx.reduce_cocycle(M, N, u) for u in units],
                       phi.rows, phi.rows)
        if image.rank() != ctx.hom_dim(M, N) - ctx.euler_form(M.dim, N.dim):
            out.append((cm.label, cn.label, "image"))
    return out


@pytest.mark.parametrize("name", ["a3_source", "a3", "d4"])
@pytest.mark.parametrize("p", [2, 3])
def test_reduce_cocycle_properties(request, name, p):
    """reduce_cocycle kills coboundaries, fixes the complement and has image of
    dimension dim Ext^1, on every class pair of total dim <= 4; with the
    coboundary terms of the reduction dropped (the ext_low_term_dropped
    mutant), coboundaries survive on the pairs where those terms are nonzero
    (one pair on each A3, three on d4)."""
    quiver = {"d4": D4}.get(name) or request.getfixturevalue(name)
    ctx = RepCategory(quiver, p)
    assert ext_reduction_violations(ctx, 4, random.Random(20261019)) == []
    with MUTANTS["ext_low_term_dropped"]():
        caught = ext_reduction_violations(RepCategory(quiver, p), 4, random.Random(20261019))
    assert len(caught) == (3 if name == "d4" else 1), caught
    assert {prop for _, _, prop in caught} == {"coboundary"}


def test_indecomposables_match_gabriel(ctx2, ctx_a3):
    assert len(indecomposable_classes(ctx2, 4, max_entry=2)) == 3
    assert len(indecomposable_classes(ctx_a3, 4, max_entry=2)) == 6


def test_indecomposable_counts_match_the_idempotent_walk(ctx2, ctx_a3, a3_source):
    """The plethystic log of the class counts against the End(M) idempotent
    walk, grade by grade inside the walk's box (total <= 4, entries <= 2)."""
    for ctx in (ctx2, ctx_a3, RepCategory(a3_source, 3)):
        walked = Counter(c.dim for c in indecomposable_classes(ctx, 4, max_entry=2))
        counts = ctx.indecomposable_counts(4)
        assert {d: n for d, n in counts.items() if max(d) <= 2} == \
            {d: walked[d] for d in counts if max(d) <= 2}


@pytest.mark.parametrize("q", [2, 3])
def test_kronecker_indecomposable_counts(q):
    """At (1, 1) the q + 1 points of P^1; at (2, 2) the q + 1 absolutely
    indecomposable classes and the (q^2 - q) / 2 regular simples with End =
    F_{q^2}.  The other grades up to total 4 are the real roots (1, 0),
    (0, 1), (2, 1) and (1, 2), one class each, and no class at (4, 0),
    (3, 1), (1, 3) or (0, 4)."""
    ctx = RepCategory(Quiver(2, [(0, 1), (0, 1)], name="kronecker"), q)
    counts = ctx.indecomposable_counts(4)
    assert counts[(1, 1)] == q + 1
    assert counts[(2, 2)] == q + 1 + (q * q - q) // 2
    assert {d: n for d, n in counts.items() if n and d not in ((1, 1), (2, 2))} == \
        {(0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 1): 1}
    if q == 2:      # the End(M) walk finds the same indecomposables at (2, 2)
        assert sum(is_indecomposable(ctx, c.rep) for c in ctx.classify((2, 2))) == 4


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


SINK_A3 = Quiver(3, [(0, 1), (2, 1)], name="a3sink")
D4 = Quiver(4, [(0, 1), (0, 2), (0, 3)], name="d4")


@pytest.mark.parametrize("name,p", [("a2", 2), ("a2", 3), ("a3_source", 2), ("a3_source", 3),
                                    ("sink", 2), ("sink", 3), ("d4", 2)])
def test_enumerators_match_matrix_routes(request, name, p):
    """classify and invariant_subreps against the Matrix-tuple orbit walk and
    the solve-per-arrow subrep walk on pivot-row complements: the same
    classes in the same order with the same reps, orbit sizes and |Aut|, and
    the same (inclusion, E/U, projection) lists in the same order, on every
    class up to dim 3."""
    quiver = {"sink": SINK_A3, "d4": D4}.get(name) or request.getfixturevalue(name)
    ctx = RepCategory(quiver, p)
    subreps = 0
    for total in range(4):
        for dim in dim_vectors_with_total(quiver.n, total):
            classes = ctx.classify(dim)
            assert [(c.rep, c.orbit_size, c.aut) for c in classes] == \
                classify_by_matrix_orbits(ctx, dim)
            for cls in classes:
                assert ctx.class_of(cls.rep) is cls
                for sub_dim in product(*(range(d + 1) for d in dim)):
                    got = invariant_subreps(ctx, cls.rep, sub_dim)
                    want = invariant_subreps_by_solve(ctx, cls.rep, sub_dim)
                    assert [(i.source, i.vertex_maps, Q, pr.vertex_maps) for i, Q, pr in got] == \
                        [(i.source, i.vertex_maps, Q, pr.vertex_maps) for i, Q, pr in want]
                    subreps += len(got)
    assert subreps > 50


@pytest.mark.parametrize("name,p", [("a2", 2), ("a2", 3), ("a3_source", 2), ("d4", 2)])
def test_class_subreps_match_the_filtered_walk(request, name, p):
    """class_subreps(E, cn, cm), which reads the classes off the walk's flat
    blocks, equals every subrep of dimension dim N filtered by is_isomorphic
    on U and on E/U: the same matrices in the same order, for every class E
    up to dim 3 and every class pair (M, N) with m + n = dim E."""
    quiver = {"d4": D4}.get(name) or request.getfixturevalue(name)
    ctx = RepCategory(quiver, p)
    seen = 0
    for ce in ctx.classes_up_to(3):
        E = ce.rep
        for sub_dim in product(*(range(d + 1) for d in E.dim)):
            walked = invariant_subreps(ctx, E, sub_dim)
            for cn in ctx.classify(sub_dim):
                for cm in ctx.classify(tuple(e - k for e, k in zip(E.dim, sub_dim))):
                    got = ctx.class_subreps(E, cn, cm)
                    want = [(i, Q, pr) for i, Q, pr in walked if ctx.is_isomorphic(
                        i.source, cn.rep) and ctx.is_isomorphic(Q, cm.rep)]
                    assert [(i.source, i.vertex_maps, Q, pr.vertex_maps) for i, Q, pr in got] \
                        == [(i.source, i.vertex_maps, Q, pr.vertex_maps) for i, Q, pr in want]
                    seen += len(got)
    assert seen > 50


def census_by_solve(ctx, E, sub_dim, complement=pivot_row_complement):
    """The census of E at sub_dim tallied off the solve-per-arrow subrep walk."""
    return dict(Counter((ctx.class_of(Q).index, ctx.class_of(incl.source).index)
                        for incl, Q, _ in invariant_subreps_by_solve(ctx, E, sub_dim, complement)))


@pytest.mark.parametrize("name,p", [("a2", 2), ("a2", 3), ("a3_source", 2), ("a3_source", 3),
                                    ("sink", 2), ("sink", 3), ("d4", 2)])
def test_census_matches_solve_oracle(request, name, p):
    """The census read off flat walk blocks equals a tally of the solve-per-arrow
    subreps by (class of E/U, class of U), for every class up to dim 3 and
    every sub-dimension."""
    quiver = {"sink": SINK_A3, "d4": D4}.get(name) or request.getfixturevalue(name)
    ctx = RepCategory(quiver, p)
    seen = 0
    for cls in ctx.classes_up_to(3):
        for sub_dim in product(*(range(d + 1) for d in cls.dim)):
            census = ctx.census(cls, sub_dim)
            assert census == census_by_solve(ctx, cls.rep, sub_dim), (cls.label, sub_dim)
            seen += sum(census.values())
    assert seen > 50


@pytest.mark.parametrize("name,p", [("a2", 2), ("a2", 3), ("a3_source", 2), ("a3_source", 3),
                                    ("d4", 2), ("d4", 3)])
def test_census_matches_greedy_completion_oracle(request, name, p):
    """Census counts do not depend on the complement: every census up to dim 3
    equals the tally of the solve-per-arrow walk whose quotients are read off
    the greedy complement (complement_columns), for every sub-dimension."""
    quiver = {"d4": D4}.get(name) or request.getfixturevalue(name)
    ctx = RepCategory(quiver, p)
    seen = 0
    for cls in ctx.classes_up_to(3):
        for sub_dim in product(*(range(d + 1) for d in cls.dim)):
            census = ctx.census(cls, sub_dim)
            assert census == census_by_solve(ctx, cls.rep, sub_dim, complement_columns), \
                (cls.label, sub_dim)
            seen += sum(census.values())
    assert seen > 50


@pytest.mark.parametrize("name,p,bound", [("a2", 2, 4), ("a2", 3, 4), ("d4", 2, 3)])
def test_census_arrow_memo_does_not_leak_between_middle_terms(request, name, p, bound):
    """Arrow blocks are memoized on the context across middle terms: the
    census of every class, on a context that walked the classes after it
    first, equals its census on a fresh context."""
    quiver = {"d4": D4}.get(name) or request.getfixturevalue(name)
    shared = RepCategory(quiver, p)
    classes = shared.classes_up_to(bound)
    sub_dims = {cls: list(product(*(range(d + 1) for d in cls.dim))) for cls in classes}
    got = {cls: [shared.census(cls, k) for k in sub_dims[cls]] for cls in reversed(classes)}
    for cls in classes:
        fresh = RepCategory(quiver, p)
        ce = fresh.class_by_label(cls.label)
        assert got[cls] == [fresh.census(ce, k) for k in sub_dims[cls]], cls.label


def test_census_walks_compute_no_rref(a3_source, monkeypatch):
    """Once the classes are classified, census walks and invariant_subreps
    over every class up to dim 4 call Matrix.rref 0 times: frames come in
    closed form and blocks are row picks and products."""
    ctx = RepCategory(a3_source, 3)
    todo = [(cls, sub_dim) for cls in ctx.classes_up_to(4)
            for sub_dim in product(*(range(d + 1) for d in cls.dim))]
    calls = Counter()
    rref = Matrix.rref

    def counted_rref(self):
        calls["rref"] += 1
        return rref(self)
    monkeypatch.setattr(Matrix, "rref", counted_rref)
    assert sum(sum(ctx.census(cls, sub_dim).values()) for cls, sub_dim in todo) > 1000
    assert sum(len(invariant_subreps(ctx, cls.rep, sub_dim)) for cls, sub_dim in todo) > 1000
    assert ctx._subspace_frames and not calls
    ctx.class_by_label("d2.2.2#0")
    assert calls["rref"] == 0         # classify inverts its generators in closed form


KRONECKER = Quiver(2, [(0, 1), (0, 1)], name="kronecker")
TRIANGLE = Quiver(3, [(0, 1), (1, 2), (0, 2)], name="triangle")


@pytest.mark.parametrize("quiver,dims", [
    (KRONECKER, list(product(range(3), repeat=2))),
    (TRIANGLE, [d for t in range(4) for d in dim_vectors_with_total(3, t)])])
def test_walk_matches_solve_oracle_off_trees(quiver, dims):
    """Multi-arrows and an arrow closed at a later vertex: invariant_subreps
    and census against the solve-per-arrow walk at q=2."""
    ctx = RepCategory(quiver, 2)
    seen = 0
    for dim in dims:
        for cls in ctx.classify(dim):
            for sub_dim in product(*(range(d + 1) for d in dim)):
                got = invariant_subreps(ctx, cls.rep, sub_dim)
                want = invariant_subreps_by_solve(ctx, cls.rep, sub_dim)
                assert [(i.source, i.vertex_maps, Q, pr.vertex_maps) for i, Q, pr in got] == \
                    [(i.source, i.vertex_maps, Q, pr.vertex_maps) for i, Q, pr in want]
                assert ctx.census(cls, sub_dim) == census_by_solve(ctx, cls.rep, sub_dim)
                seen += len(got)
    assert seen > 50


def test_census_builds_no_objects(a3_source, monkeypatch):
    """Once the subspace frames exist, a census builds no Matrix,
    Representation or RepMorphism; invariant_subreps, on the same walk, does."""
    ctx = RepCategory(a3_source, 3)
    todo = [(cls, sub_dim) for cls in ctx.classes_up_to(3)
            for sub_dim in product(*(range(d + 1) for d in cls.dim))]
    for cls, sub_dim in todo:
        invariant_subreps(ctx, cls.rep, sub_dim)        # builds every frame
    built = Counter()
    for kind in (Matrix, Representation, RepMorphism):
        def counted_init(self, *args, _init=kind.__init__):
            built[type(self).__name__] += 1
            _init(self, *args)

        def counted_of(cls, *args, _of=kind._of.__func__):
            built[cls.__name__] += 1
            return _of(cls, *args)
        monkeypatch.setattr(kind, "__init__", counted_init)
        monkeypatch.setattr(kind, "_of", classmethod(counted_of))
    assert sum(sum(ctx.census(cls, sub_dim).values()) for cls, sub_dim in todo) > 100
    assert not built
    cls, sub_dim = todo[-1]                            # sub_dim = dim E: U = E
    invariant_subreps(ctx, cls.rep, sub_dim)
    assert set(built) == {"Matrix", "Representation", "RepMorphism"}

import random
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest

from hallalg.linalg import BudgetError, Matrix, PrimeField, unflatten
from hallalg.quiver import (Quiver, RepCategory, RepMorphism, Representation,
                            dim_vectors_with_total)
from oracles import (aut_order_slow, classify_by_matrix_orbits, complement_columns,
                     count_exact_pairs_slow, enumerate_matrices, ext1_dim, identity_morphism,
                     indecomposable_classes, invariant_subreps_by_solve, is_indecomposable,
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


def test_budget_exceeded(a2):
    tiny = RepCategory(a2, 2, budget=3)
    with pytest.raises(BudgetError):
        tiny.classify((2, 2))


def test_subrep_budget_is_checked_before_any_frame(a2):
    ctx = RepCategory(a2, 2, budget=2)
    E = Representation(a2, ctx.field, (2, 2), [zero_matrix(ctx.field, 2, 2)])
    with pytest.raises(BudgetError) as err:
        ctx.invariant_subreps(E, (1, 1))
    assert err.value.what == "subspace tuples for subreps of dim (1, 1)"
    assert err.value.count == 9
    assert ctx._frames == {} and ctx._subspace_frames == {}


def test_census_budget_is_checked_before_any_frame(a2):
    ctx = RepCategory(a2, 2)
    ce = ctx.class_of(Representation(a2, ctx.field, (2, 2), [zero_matrix(ctx.field, 2, 2)]))
    ctx.budget = 2
    with pytest.raises(BudgetError) as err:
        ctx.census(ce, (1, 1))
    assert err.value.what == "subspace tuples for subreps of dim (1, 1)"
    assert err.value.count == 9
    assert ctx._frames == {} and ctx._subspace_frames == {}


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
    """iso_set against GL products for semisimple pairs and the filtered
    span of hom_basis otherwise, on every pair of classes up to dim 3.  Each
    class also brings the greatest edge tuple of its orbit, so that pairs of
    distinct isomorphic representations are compared too.  first_iso is the
    head of the list, walked on a fresh context and read from a cached one."""
    ctx = RepCategory(request.getfixturevalue(name), p)
    fresh = RepCategory(ctx.quiver, p)
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
                for N in reps:
                    walked = fresh.first_iso(M, N)
                    got = [mor.vertex_maps for mor in ctx.iso_set(M, N)]
                    assert len(set(got)) == len(got)
                    assert set(got) == iso_set_by_products(ctx, M, N)
                    head = ctx.first_iso(M, N)
                    assert (walked and walked.vertex_maps) == (head and head.vertex_maps) \
                        == (got[0] if got else None)
            for cls in classes:
                assert len(ctx.aut_elements(cls.rep)) == cls.aut


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
    assert [i for i, _, _ in ctx2.invariant_subreps(P1, (0, 1))] == [incl]


def test_middle_term_ses_is_exact(ctx2, reps2):
    E, incl, proj = ctx2.middle_term_ses(reps2["S1"], reps2["S2"], [1])
    assert is_valid(incl) and is_valid(proj)
    assert is_injective(incl) and is_surjective(proj)
    assert is_zero(proj.compose(incl))


def test_commuting_square_invariant_on_all_outputs(ctx2, reps2):
    for a in ("S1", "SS", "P1"):
        for b in ("S1", "SS", "P1"):
            for mor in ctx2.hom_basis(reps2[a], reps2[b]):
                assert is_valid(mor)
            for mor in ctx2.iso_set(reps2[a], reps2[b]):
                assert is_valid(mor) and is_invertible(mor)


def test_invariant_subreps_consistency(ctx2, reps2):
    # every subrep yields a valid inclusion and an exact quotient
    E = reps2["P1"]
    subs = ctx2.invariant_subreps(E, (0, 1))
    assert len(subs) == 1
    incl, Q, proj = subs[0]
    assert is_valid(incl) and is_injective(incl)
    assert is_valid(proj) and is_surjective(proj)
    assert is_zero(proj.compose(incl))
    # no invariant subrep of P1 has dimension (1, 0)
    assert ctx2.invariant_subreps(E, (1, 0)) == []


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
            for incl, Q, proj in ctx.invariant_subreps(E, sub_dim):
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
            if complement_columns(image.transpose()) != ctx._ext_complement(M, N)[0]:
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
                    got = ctx.invariant_subreps(cls.rep, sub_dim)
                    want = invariant_subreps_by_solve(ctx, cls.rep, sub_dim)
                    assert [(i.source, i.vertex_maps, Q, pr.vertex_maps) for i, Q, pr in got] == \
                        [(i.source, i.vertex_maps, Q, pr.vertex_maps) for i, Q, pr in want]
                    subreps += len(got)
    assert subreps > 50


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
    assert sum(len(ctx.invariant_subreps(cls.rep, sub_dim)) for cls, sub_dim in todo) > 1000
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
                got = ctx.invariant_subreps(cls.rep, sub_dim)
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
        ctx.invariant_subreps(cls.rep, sub_dim)        # builds every frame
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
    ctx._subrep_cache.clear()
    cls, sub_dim = todo[-1]                            # sub_dim = dim E: U = E
    ctx.invariant_subreps(cls.rep, sub_dim)
    assert set(built) == {"Matrix", "Representation", "RepMorphism"}

import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from hallalg import groupoids as gpd
from hallalg.cathall import (ExtGroupoid, SESObject, braiding_entry,
                             closed_form_ext_cardinality, comult_span_entry,
                             ext_bilinearity_first, ext_bilinearity_second,
                             fixed_end_cardinality,
                             glue_quotients, glue_subobjects, hexagonator_R, hexagonator_S,
                             mult_span_entry, riedtmann_count, square_zero)
from hallalg import cathall
from hallalg.cli import load_quiver
from hallalg.linalg import DEFAULT_BUDGET, BudgetError, Matrix, flatten, unflatten
from hallalg.quiver import RepCategory, RepMorphism, dim_add
from hallalg.verify import (BSIM_CAP, run_suite, suite_bsim, suite_coherence,
                            suite_spans)
from oracles import (block_injections, block_projections, corestrict, factor_through,
                     fixed_ends_by_aut_scan, glue_quotients_by_solve,
                     glue_subobjects_by_solve, hexagonator_R_by_solve,
                     hexagonator_S_by_solve, identity_morphism, image_key,
                     image_preserving_basis, invariant_subreps, is_valid, is_zero,
                     iso_set_by_products, matrix_inverse, morphism_count, morphism_index,
                     orbits_by_aut_scan, path_value, simple_rep, units_by_full_walk)



def test_build_A0_truncations(ctx2):
    """The truncated base A0 is classes_up_to(bound): each class once."""
    assert [c.label for c in ctx2.classes_up_to(0)] == ["d0.0#0"]
    a1 = ctx2.classes_up_to(1)
    assert len(a1) == 3
    a2g = ctx2.classes_up_to(2)
    assert len(a2g) == 7
    labels = [ctx2.class_of(c.rep).label for c in a2g]
    assert len(set(labels)) == 7  # one witness per class, exactly once


def test_rep_groupoid_hom_sizes(ctx2):
    base = [c.rep for c in ctx2.classes_up_to(2)]
    for i, a in enumerate(base):
        for j, b in enumerate(base):
            size = len(iso_set_by_products(ctx2, a, b))
            if ctx2.is_isomorphic(a, b):
                assert size == ctx2.aut_order(a)
            else:
                assert size == 0


def test_build_ext_object_counts(ctx2, ctx3, reps2, reps3):
    for ctx, reps, q in ((ctx2, reps2, 2), (ctx3, reps3, 3)):
        ext = ExtGroupoid(ctx, reps["S1"], reps["S2"])
        counts = sorted(len(list(ext.objects(e))) for e in ext.pieces)
        assert counts == [(q - 1) ** 2, (q - 1) ** 2]
        for e in ext.pieces:
            for ses in ext.objects(e):
                ses.validate()
        zero = reps["zero"]
        ext0 = ExtGroupoid(ctx, zero, reps["S2"])
        # the trivial sequence: a single iso class (aut N choices of f)
        assert ext0.object_count() == q - 1
        (e_label,) = ext0.pieces.keys()
        assert len(ext0.iso_classes(e_label)) == 1
        # every piece: objects built, object count and pair count agree
        for M, N in ((reps["S1"], reps["S2"]), (reps["SS"], reps["SS"]),
                     (reps["P1"], reps["S1"]), (zero, reps["S2"])):
            ext = ExtGroupoid(ctx, M, N)
            for e in ext.pieces:
                assert len(list(ext.objects(e))) == ext.object_count(e) \
                    == ctx.count_exact_pairs(M, N, ext.pieces[e][0].mid)


@pytest.mark.parametrize("quiver,q", [("a2", 2), ("a2", 3), ("a3-source", 2)])
def test_objects_compose_each_image_with_its_isomorphisms(quiver, q):
    """On every piece of every bsim pair (bound 2), objects(E) yields the
    (incl nu, mu proj) of every image U of dimension dim N, nu in Iso(N, U)
    and mu in Iso(E/U, M) as iso_set_by_products lists them, each once; their
    number is object_count(E) and P^E, and the pieces are the E with
    P^E != 0."""
    ctx = RepCategory(load_quiver(quiver), q)
    base = [c.rep for c in ctx.classes_up_to(BSIM_CAP)]
    pieces = 0
    for M in base:
        for N in base:
            ext = ExtGroupoid(ctx, M, N)
            assert list(ext.pieces) == [c.label for c in ctx.classify(dim_add(M.dim, N.dim))
                                        if ctx.count_exact_pairs(M, N, c.rep)]
            for e_label, firsts in ext.pieces.items():
                E = firsts[0].mid
                got = [(s.incl.vertex_maps, s.proj.vertex_maps) for s in ext.objects(e_label)]
                want = set()
                for incl, Q, proj in invariant_subreps(ctx, E, N.dim):
                    fs = [tuple(map(mul, incl.vertex_maps, nu))
                          for nu in iso_set_by_products(ctx, N, incl.source)]
                    gs = [tuple(map(mul, mu, proj.vertex_maps))
                          for mu in iso_set_by_products(ctx, Q, M)]
                    want.update(product(fs, gs))
                assert len(set(got)) == len(got) and set(got) == want
                assert len(got) == ext.object_count(e_label) == ctx.count_exact_pairs(M, N, E)
                pieces += 1
    assert pieces > 0


def test_verify_ext_builds_no_groupoid(a2, monkeypatch):
    """The ext suite reads the fixed-end cardinality off the census: no
    ExtGroupoid is constructed."""
    built = []
    init = ExtGroupoid.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(ExtGroupoid, "__init__", counted)
    report = run_suite("ext", RepCategory(a2, 2), None, 3, 0)
    assert (report["instances"], report["failures"]) == (45, [])
    assert built == []


def test_ext_groupoid_of_is_shared_per_context(a2, reps2):
    """ExtGroupoid.of keys on the literal pair within one context only."""
    ctx = RepCategory(a2, 2)
    S1, S2 = reps2["S1"], reps2["S2"]
    ext = ExtGroupoid.of(ctx, S1.direct_sum(S2), S2)
    # an equal but newly built M finds the same groupoid
    assert ExtGroupoid.of(ctx, S1.direct_sum(S2), S2) is ext
    assert ExtGroupoid.of(ctx, S2, S1.direct_sum(S2)) is not ext
    assert ExtGroupoid.of(RepCategory(a2, 2), S1.direct_sum(S2), S2) is not ext
    fresh = ExtGroupoid(ctx, S1.direct_sum(S2), S2)
    assert fresh is not ext and ExtGroupoid.of(ctx, S1.direct_sum(S2), S2) is ext


def test_ext_objects_are_budgeted(a2):
    """Building the objects of a piece is checked against the budget first."""
    ctx = RepCategory(a2, 2, budget=30)
    S1 = simple_rep(a2, ctx.field, 0)
    S2 = simple_rep(a2, ctx.field, 1)
    ext = ExtGroupoid(ctx, S1.direct_sum(S1), S2.direct_sum(S2))
    e_label = next(iter(ext.pieces))
    assert ext.object_count(e_label) == 36       # |GL_2(F_2)|^2 for its one image
    with pytest.raises(BudgetError) as err:
        next(ext.objects(e_label))
    assert err.value.count == 36
    assert f"piece {e_label}" in str(err.value)


def _ext_cardinality(ctx, M, N):
    """suite_ext's two sides: the pair-count route over aut N aut M, and the
    closed form q^{-<m, n>} / (aut N aut M); asserted equal."""
    lhs = fixed_end_cardinality(ctx, M, N) / (ctx.aut_order(N) * ctx.aut_order(M))
    assert lhs == closed_form_ext_cardinality(ctx, M, N)
    return lhs


def test_ext_cardinality_lemma(ctx2, ctx3, reps2, reps3):
    for ctx, reps, q in ((ctx2, reps2, 2), (ctx3, reps3, 3)):
        assert _ext_cardinality(ctx, reps["S1"], reps["S2"]) == Fraction(q, (q - 1) ** 2)
        assert _ext_cardinality(ctx, reps["S2"], reps["S1"]) == Fraction(1, (q - 1) ** 2)
        assert _ext_cardinality(ctx, reps["zero"], reps["zero"]) == 1


def test_riedtmann_examples(ctx2, reps2):
    """riedtmann_count against the pair count, and its number of extension
    classes with middle term E, |Ext^1(M,N)_E| = count |Hom(M,N)| / |Aut E|."""
    S1, S2, P1, SS = reps2["S1"], reps2["S2"], reps2["P1"], reps2["SS"]

    def ext_classes(E):
        return riedtmann_count(ctx2, S1, S2, E) * 2 ** ctx2.hom_dim(S1, S2) / ctx2.aut_order(E)
    assert riedtmann_count(ctx2, S1, S2, P1) == ctx2.count_exact_pairs(S1, S2, P1) == 1
    assert ext_classes(P1) == 1
    assert riedtmann_count(ctx2, S1, S2, SS) == ctx2.count_exact_pairs(S1, S2, SS)
    assert ext_classes(SS) == 1  # the zero class
    # wrong-dimension middle term: both sides zero
    assert riedtmann_count(ctx2, S1, S2, reps2["S1"]) == ctx2.count_exact_pairs(
        S1, S2, reps2["S1"]) == 0


def _bilinear(values):
    """The cardinality of EXT at the sum (after checking that it equals the
    product of the parts'), once the split classes of the whole have been
    checked to be in bijection with the pairs of classes of the parts and to
    glue back into themselves."""
    lhs, rhs, splits, pairs = values
    assert lhs == rhs
    assert len({image for image, _ in splits.values()}) == len(splits) == pairs
    assert all(glued == cls for cls, (_, glued) in splits.items())
    return lhs


def test_ext_bilinearity(ctx2, ctx3, reps2, reps3):
    for ctx, reps, q in ((ctx2, reps2, 2), (ctx3, reps3, 3)):
        assert _bilinear(ext_bilinearity_first(ctx, reps["S1"], reps["S1"], reps["S2"])) == q * q
        _bilinear(ext_bilinearity_first(ctx, reps["zero"], reps["S1"], reps["S2"]))
        _bilinear(ext_bilinearity_first(ctx, reps["S1"], reps["S2"], reps["S1"]))
        _bilinear(ext_bilinearity_second(ctx, reps["S1"], reps["S2"], reps["S2"]))


def test_glue_functions_invert_splitting(ctx2, ctx3, reps2, reps3):
    for ctx, reps in ((ctx2, reps2), (ctx3, reps3)):
        S1, S2 = reps["S1"], reps["S2"]
        Msum = S1.direct_sum(S1)
        ext = ExtGroupoid(ctx, Msum, S2)
        for e in ext.pieces:
            for ses in list(ext.objects(e))[:2]:
                s1, s2 = hexagonator_S(ctx, ses, S1, S1)
                glued = glue_quotients(ctx, s1, s2, Msum)
                assert ctx.extension_class(Msum, S2, glued.mid, glued.incl, glued.proj) \
                    == ctx.extension_class(Msum, S2, ses.mid, ses.incl, ses.proj)
        Nsum = S2.direct_sum(S2)
        ext2 = ExtGroupoid(ctx, S1, Nsum)
        for e in ext2.pieces:
            for ses in list(ext2.objects(e))[:2]:
                s1, s2 = hexagonator_R(ctx, ses, S2, S2)
                glued = glue_subobjects(ctx, s1, s2, Nsum)
                assert ctx.extension_class(S1, Nsum, glued.mid, glued.incl, glued.proj) \
                    == ctx.extension_class(S1, Nsum, ses.mid, ses.incl, ses.proj)


def _same_sequence(a, b):
    """Equal outer and middle terms and equal vertex maps of both maps."""
    return (a.sub == b.sub and a.mid == b.mid and a.quo == b.quo
            and a.incl.vertex_maps == b.incl.vertex_maps
            and a.proj.vertex_maps == b.proj.vertex_maps)


def test_frame_route_matches_solve_route(ctx2, ctx3, reps2, reps3):
    """Both hexagonators and both glues, on every object of EXT(S1, S2 + S2)
    and EXT(S1 + S1, S2), equal the solve-based route of tests/oracles.py.
    The oracle runs on a fresh context, so no quotient is shared from a cache."""
    for ctx, reps in ((ctx2, reps2), (ctx3, reps3)):
        fresh = RepCategory(ctx.quiver, ctx.q)
        S1, S2 = reps["S1"], reps["S2"]
        checked = expected = 0
        SS2, SS1 = ctx.direct_sum(S2, S2), ctx.direct_sum(S1, S1)
        for M, N, split, oracle_split, glue, oracle_glue, whole, parts in (
                (S1, SS2, hexagonator_R, hexagonator_R_by_solve,
                 glue_subobjects, glue_subobjects_by_solve, SS2, (S2, S2)),
                (SS1, S2, hexagonator_S, hexagonator_S_by_solve,
                 glue_quotients, glue_quotients_by_solve, SS1, (S1, S1))):
            ext = ExtGroupoid(ctx, M, N)
            expected += ext.object_count()
            for e in ext.pieces:
                for ses in ext.objects(e):
                    got, want = split(ctx, ses, *parts), oracle_split(fresh, ses, *parts)
                    assert all(map(_same_sequence, got, want))
                    assert _same_sequence(glue(ctx, *got, whole),
                                          oracle_glue(fresh, *got, whole))
                    checked += 1
        assert checked == expected > 0


def test_summand_maps_split_the_chosen_direct_sum(ctx2, reps2):
    for y, z in ((reps2["S1"], reps2["P1"]), (reps2["SS"], reps2["S2"]),
                 (reps2["zero"], reps2["P1"])):
        s, inc_y, inc_z = block_injections(y, z)
        s2, pr_y, pr_z = block_projections(y, z)
        assert s == s2 == y.direct_sum(z)
        for m in (inc_y, inc_z, pr_y, pr_z):
            assert is_valid(m)
        assert pr_y.compose(inc_y) == identity_morphism(y)
        assert pr_z.compose(inc_z) == identity_morphism(z)
        assert is_zero(pr_z.compose(inc_y)) and is_zero(pr_y.compose(inc_z))


def test_hexagonator_split_input_gives_split_outputs(ctx2, reps2):
    S1, S2 = reps2["S1"], reps2["S2"]
    sub = S2.direct_sum(S2)
    zero_cocycle = (0,) * sum(sub.dim[t] * S1.dim[s] for s, t in ctx2.quiver.arrows)
    E, incl, proj = ctx2.middle_term_ses(S1, sub, zero_cocycle)
    ses = SESObject(sub, E, S1, incl, proj)
    ses.validate()
    out_y, out_z = hexagonator_R(ctx2, ses, S2, S2)
    for piece in (out_y, out_z):
        assert ctx2.is_isomorphic(piece.mid, piece.sub.direct_sum(piece.quo))


def test_hexagonator_R_counts_match_bilinearity(ctx2, ctx3, reps2, reps3):
    for ctx, reps in ((ctx2, reps2), (ctx3, reps3)):
        S1, S2 = reps["S1"], reps["S2"]
        sub = S2.direct_sum(S2)
        ext = ExtGroupoid(ctx, S1, sub)
        assert fixed_end_cardinality(ctx, S1, sub) == fixed_end_cardinality(ctx, S1, S2) ** 2 \
            == ctx.q ** 2
        for e in ext.pieces:
            for ses in ext.objects(e):
                a, b = hexagonator_R(ctx, ses, S2, S2)
                assert a.sub == S2 and b.sub == S2
                assert a.quo == S1 and b.quo == S1
                a.validate()
                b.validate()


def test_hexagonator_S_counts_match_bilinearity(ctx2, ctx3, reps2, reps3):
    for ctx, reps in ((ctx2, reps2), (ctx3, reps3)):
        S1, S2 = reps["S1"], reps["S2"]
        quo = S1.direct_sum(S1)
        ext = ExtGroupoid(ctx, quo, S2)
        assert fixed_end_cardinality(ctx, quo, S2) == fixed_end_cardinality(ctx, S1, S2) ** 2 \
            == ctx.q ** 2
        for e in ext.pieces:
            for ses in ext.objects(e):
                a, b = hexagonator_S(ctx, ses, S1, S1)
                assert a.quo == S1 and b.quo == S1
                assert a.sub == S2 and b.sub == S2
                a.validate()
                b.validate()


def test_quotient_iso_fact(ctx2, ctx3, reps2, reps3):
    # (E/A)/B is isomorphic to E/(A + B) on every witness instance
    for ctx, reps in ((ctx2, reps2), (ctx3, reps3)):
        S1, S2 = reps["S1"], reps["S2"]
        sub = S2.direct_sum(S2.direct_sum(S2))
        ext = ExtGroupoid(ctx, S1, sub)
        for e in ext.pieces:
            for ses in ext.objects(e):
                b = S2
                cd = S2.direct_sum(S2)
                ses_b, ses_cd = hexagonator_R(ctx, ses, b, cd)
                _, ses_d = hexagonator_R(ctx, ses_cd, S2, S2)
                bc = S2.direct_sum(S2)
                _, ses_d_direct = hexagonator_R(ctx, ses, bc, S2)
                assert ctx.is_isomorphic(ses_d.mid, ses_d_direct.mid)


def _broken_sequences(ctx, reps):
    """One sequence per condition of SESObject.validate, each failing only
    that condition (and none checked before it), with the expected message."""
    f = ctx.field
    S1, S2, P1, SS = reps["S1"], reps["S2"], reps["P1"], reps["SS"]

    def mor(src, tgt, *maps):
        return RepMorphism(src, tgt, [Matrix(f, m, len(m), c) for m, c in maps])

    incl = mor(S2, P1, ([[]], 0), ([[2]], 1))          # the socle of P1
    proj = mor(P1, S1, ([[1]], 1), ([], 1))             # its top
    two = S1.direct_sum(S1)
    return [
        (SESObject(S1, P1, S1, incl, proj), "inclusion endpoints wrong"),
        (SESObject(S2, P1, S2, incl, proj), "projection endpoints wrong"),
        (SESObject(S1, S1, S1, mor(S1, S1, ([[1]], 1), ([], 0)),
                   mor(S1, S1, ([[2]], 1), ([], 0))), "grading violated"),
        (SESObject(S1, P1, S2, mor(S1, P1, ([[2]], 1), ([[]], 0)),
                   mor(P1, S2, ([], 1), ([[1]], 1))), "not representation morphisms"),
        (SESObject(S2, SS, S1, mor(S2, SS, ([[]], 0), ([[0]], 1)),
                   mor(SS, S1, ([[1]], 1), ([], 1))), "inclusion is not injective"),
        (SESObject(S2, SS, S1, mor(S2, SS, ([[]], 0), ([[2]], 1)),
                   mor(SS, S1, ([[0]], 1), ([], 1))), "projection is not surjective"),
        (SESObject(S1, two, S1, mor(S1, two, ([[1], [2]], 1), ([], 0)),
                   mor(two, S1, ([[1, 0]], 2), ([], 0))), "composite sub -> quo is nonzero"),
    ]


def test_validate_rejects_each_broken_condition(ctx3, reps3):
    """Each of validate's conditions fails on its own sequence, with its own
    message, over F_3; the unbroken socle-and-top sequence of P1 passes."""
    f = ctx3.field
    S1, S2, P1 = reps3["S1"], reps3["S2"], reps3["P1"]
    good = SESObject(S2, P1, S1, RepMorphism(S2, P1, [Matrix(f, [[]], 1, 0), Matrix(f, [[2]])]),
                     RepMorphism(P1, S1, [Matrix(f, [[1]]), Matrix(f, [], 0, 1)]))
    assert good.validate()
    cases = _broken_sequences(ctx3, reps3)
    assert len({msg for _, msg in cases}) == len(cases) == 7
    for ses, msg in cases:
        with pytest.raises(ValueError, match=msg):
            ses.validate()


def _span_matrices(ctx, bound):
    """The nonzero mult and comult span entries within bound, read entry by entry."""
    classes = ctx.classes_up_to(bound)
    mult, comult = {}, {}
    for cm in classes:
        for cn in classes:
            for ce in classes:
                if ce.dim != dim_add(cm.dim, cn.dim):
                    continue
                lm, ln, le = cm.label, cn.label, ce.label
                m, c = mult_span_entry(ctx, le, lm, ln), comult_span_entry(ctx, lm, ln, le)
                if m:
                    mult[(le, (lm, ln))] = m
                if c:
                    comult[((lm, ln), le)] = c
    return mult, comult


def test_mult_span_matrix_entries(ctx2, hall2):
    # ((S1, S2) -> P1) entry is 1
    assert mult_span_entry(ctx2, "d1.1#1", "d1.0#0", "d0.1#0") == 1
    assert mult_span_entry(ctx2, "d1.1#0", "d1.0#0", "d0.1#0") == 1
    # an entry off the grading is zero
    assert mult_span_entry(ctx2, "d1.1#1", "d1.0#0", "d1.0#0") == 0
    rep = suite_spans(ctx2, hall2, 3, only="mult")
    assert rep["failures"] == []
    assert rep["instances"] == 71     # one per (E, M, N) with matching grades


def test_comult_span_matrix_entries(ctx2, ctx3, hall2, hall3):
    # row (quo, sub) = (S1, S2) of column P1 carries Delta's [S2] (x) [S1] term
    assert comult_span_entry(ctx2, "d1.0#0", "d0.1#0", "d1.1#1") == 1
    rep = suite_spans(ctx2, hall2, 3, only="comult")
    assert rep["failures"] == []
    assert rep["instances"] == 71     # one per (M, N, E) with matching grades, as for mult
    assert comult_span_entry(ctx3, "d1.0#0", "d0.1#0", "d1.1#1") == 2  # q - 1 at q = 3


def test_braiding_span_degroupoidifies_to_braiding(ctx2, hall2, reps2):
    ext = ExtGroupoid.of(ctx2, reps2["S1"], reps2["S2"])
    assert ext.cardinality_triples() == _ext_cardinality(ctx2, reps2["S1"], reps2["S2"]) == 2
    assert braiding_entry(ctx2, ctx2.class_of(reps2["S1"]), ctx2.class_of(reps2["S2"])) == 2
    # matches the algebraic braiding coefficient q^{-<s1, s2>}
    assert hall2.braid_coeff((1, 0), (0, 1)) == 2
    # zero-object instance: trivial braid of cardinality 1
    assert ExtGroupoid.of(ctx2, reps2["zero"], reps2["zero"]).cardinality_triples() == 1


def test_ext_morphism_counts_on_demand(ctx2, reps2):
    ext = ExtGroupoid(ctx2, reps2["S1"], reps2["S1"])
    (e_label,) = ext.pieces.keys()
    objs = list(ext.objects(e_label))
    assert len(objs) == 3  # three lines inside S1+S1
    # all three objects lie in one class; morphism counts match the stabilizer
    for s1 in objs:
        for s2 in objs:
            assert morphism_count(ext, s1, s2) == 2  # |GL_2(F_2)| / 3
    assert morphism_count(ext, objs[0], objs[0]) == ext.aut_triples_direct(
        objs[0], *ext.end_bases(objs[0]))


def test_bsim_ext_check_bound_one(ctx2, hall2):
    rep = suite_bsim(ctx2, hall2, 1, only="bsim-ext")
    assert rep["failures"] == []
    assert rep["instances"] == 9


def test_aut_routes_match_aut_scans(ctx2):
    """Orbits, stabilizers, fixed-end groups and extension classes agree with
    scans over Aut(E) and over every object.

    Each image's stand-in sequence is drawn with a seeded RNG from its block
    of objects(E): in build order the first sequences of images in one orbit
    tend to share one extension class, which would hide a wrong
    (Aut N x Aut M)-action.
    """
    rng = random.Random(0)
    q = ctx2.q
    base = [c.rep for c in ctx2.classes_up_to(2)]
    for x in base:
        for y in base:
            ext = ExtGroupoid(ctx2, x, y)
            block = len(ctx2.aut_elements(x)) * len(ctx2.aut_elements(y))
            for e_label in ext.pieces:
                objects = list(ext.objects(e_label))
                ext.pieces[e_label] = [rng.choice(objects[k:k + block])
                                       for k in range(0, len(objects), block)]
                orbits, classes = ext._orbits(e_label)
                assert orbits == orbits_by_aut_scan(ext, e_label)
                assert classes == {ctx2.extension_class(x, y, s.mid, s.incl, s.proj)
                                   for s in ext.objects(e_label)}
                for (ses, _), (_, _, stab) in zip(ext.iso_classes(e_label), orbits):
                    basis, complement = ext.end_bases(ses)
                    assert ext.aut_triples_direct(ses, basis, complement) == stab
                    assert square_zero(ctx2, ses.mid, basis)
                    one = flatten(identity_morphism(ses.mid).vertex_maps)
                    fixed = {tuple((e + sum(c * b[k] for c, b in zip(coeffs, basis))) % q
                                   for k, e in enumerate(one))
                             for coeffs in product(range(q), repeat=len(basis))}
                    assert len(fixed) == q ** len(basis)
                    assert fixed == {flatten(b.vertex_maps)
                                     for b in fixed_ends_by_aut_scan(ext, ses)}


def _in_span(field, basis, vectors):
    """Whether every flat vector lies in the span of the flat vectors basis."""
    rank = Matrix(field, basis).rank()
    return all(Matrix(field, basis + [v]).rank() == rank for v in vectors)


def _block_product(field, dims, a, b):
    """The product a b of two flat points of End(E), vertex block by vertex block."""
    shapes = [(d, d) for d in dims]
    return flatten(u * w for u, w in zip(unflatten(field, a, shapes), unflatten(field, b, shapes)))


@pytest.mark.parametrize("quiver,q", [("a2", 2), ("a2", 3), ("a3-source", 2), ("d4", 2)])
def test_units_modulo_fixed_end_ideal_match_the_full_walk(quiver, q):
    """On every iso class of every bsim piece (bound 2), V from end_bases
    lies in A = {beta : g beta f = 0}, A V and V A lie in V, V and the
    complement C together are a basis of A, and the count q^{dim V}
    |span(C)^x| equals the units of a walk over all of A."""
    ctx = RepCategory(load_quiver(quiver), q)
    base = [c.rep for c in ctx.classes_up_to(BSIM_CAP)]
    field, classes, s4 = ctx.field, 0, []
    for x in base:
        for y in base:
            ext = ExtGroupoid.of(ctx, x, y)
            for e_label in ext.pieces:
                for ses, _ in ext.iso_classes(e_label):
                    A, (V, C) = image_preserving_basis(ctx, ses), ext.end_bases(ses)
                    dims = ses.mid.dim
                    assert _in_span(field, A, V + C)
                    assert Matrix(field, V + C).rank() == len(V) + len(C) == len(A)
                    assert _in_span(field, V, [_block_product(field, dims, a, v)
                                               for a in A for v in V])
                    assert _in_span(field, V, [_block_product(field, dims, v, a)
                                               for a in A for v in V])
                    count = ext.aut_triples_direct(ses, V, C)
                    assert count == units_by_full_walk(ctx, ses)
                    if quiver == "a2" and q == 2 and sorted(ses.mid.dim) == [0, 4]:
                        s4.append(count)
                    classes += 1
    assert classes > 0
    if quiver == "a2" and q == 2:
        assert s4 == [576, 576]     # the (2, 2)-parabolic of GL_4(F_2): 6 * 6 * 2^4


def test_orbits_budget_the_group_listing_only_when_ext_is_nonzero(a2):
    """|Aut N| |Aut M| is checked against the budget where the two groups
    are listed.  At q = 3 both products below are 2 * 2 = 4, over a budget
    of 3.  EXT(S2, S2) has Ext^1 = 0, so its orbits list neither group and
    succeed; every Hom span walked on the way has 3 points.  EXT(S1, S2)
    has Ext^1 != 0, and its orbits still stop before the listing."""
    ctx = RepCategory(a2, 3)
    S1, S2 = ctx.class_by_label("d1.0#0").rep, ctx.class_by_label("d0.1#0").rep
    split, nonsplit = ExtGroupoid(ctx, S2, S2), ExtGroupoid(ctx, S1, S2)
    ctx.budget = 3
    (e_label,) = split.pieces
    orbits, classes = split._orbits(e_label)
    assert classes == {()} and len(orbits) == 1
    for e_label in nonsplit.pieces:
        with pytest.raises(BudgetError, match=r"^Aut N x Aut M enumeration for dims "
                           r"\(0, 1\), \(1, 0\) over F_3: 4 items exceeds budget 3"):
            nonsplit._orbits(e_label)


def test_complement_walk_checks_its_budget_before_the_first_point(a2, monkeypatch):
    """EXT(S1^2, S1^2) on a2 (q = 2) has E = S1^4: dim A = 12 and dim V = 4,
    so the complement walk visits 2^8 points where the full walk would
    visit 2^12.  Under budget 255 it stops before testing any point; under
    budget 256 it counts all 576 units."""
    blocks_invertible, tested = cathall.blocks_invertible, []

    def recording(point, dims, p):
        tested.append(point)
        return blocks_invertible(point, dims, p)

    monkeypatch.setattr(cathall, "blocks_invertible", recording)
    for budget in (255, 256):
        ctx = RepCategory(a2, 2, budget=budget)
        S1 = simple_rep(a2, ctx.field, 0)
        ext = ExtGroupoid(ctx, S1.direct_sum(S1), S1.direct_sum(S1))
        ((ses, _),) = ext.iso_classes(next(iter(ext.pieces)))
        V, C = ext.end_bases(ses)
        if budget == 255:
            with pytest.raises(BudgetError, match=r"^End\(4, 0\) subspace enumeration dim 8 "
                               r"over F_2: 256 items exceeds budget 255"):
                ext.aut_triples_direct(ses, V, C)
            assert tested == []
        else:
            assert ext.aut_triples_direct(ses, V, C) == 576
            assert len(tested) == 256


def test_square_zero_rejects_the_identity(ctx2, reps2):
    """1 + V is a group only when V V = 0; the identity squares to itself."""
    ext = ExtGroupoid(ctx2, reps2["S1"], reps2["S2"])
    for e_label in ext.pieces:
        for ses in ext.objects(e_label):
            basis = ext.end_bases(ses)[0]
            assert square_zero(ctx2, ses.mid, basis)
            one = flatten(identity_morphism(ses.mid).vertex_maps)
            assert not square_zero(ctx2, ses.mid, basis + [one])


def test_fixed_end_group_of_order_64_needs_no_enumeration(a2):
    """EXT(S0^3, S0^2): dim V = 6 is read off End(E) within a budget of 1000.

    Listing the 64 fixed-end automorphisms and composing them pairwise
    (64 + 64 * 64 = 4160 items) used to exceed that budget.
    """
    ctx = RepCategory(a2, 2, budget=1000)
    S0 = simple_rep(a2, ctx.field, 0)
    N = S0.direct_sum(S0)
    M = N.direct_sum(S0)
    E, f, g = ctx.middle_term_ses(M, N, ())
    ses = SESObject(N, E, M, f, g)
    basis = ExtGroupoid(ctx, M, N).end_bases(ses)[0]
    assert len(basis) == ctx.hom_dim(M, N) == 6
    assert square_zero(ctx, E, basis)


def test_coherence_checks_bound_one(ctx2):
    for name in ("pentagon-strict", "unitor", *cathall.SHUFFLES):
        rep = suite_coherence(ctx2, 1, only=name)
        assert rep["failures"] == [], name
        assert rep["instances"] > 0, name


def test_shuffle_22_specific_instance(ctx2, reps2):
    """Both composite splittings agree on every extension of S1+S1 by S2+S2."""
    S1, S2 = reps2["S1"], reps2["S2"]
    ab = S1.direct_sum(S1)
    cdsum = S2.direct_sum(S2)
    ext = ExtGroupoid(ctx2, ab, cdsum)
    assert fixed_end_cardinality(ctx2, ab, cdsum) == 16  # q^4: four braid pieces
    checked = 0
    for e in ext.pieces:
        for ses in ext.objects(e):
            sa, sb = hexagonator_S(ctx2, ses, S1, S1)
            s_ac, s_ad = hexagonator_R(ctx2, sa, S2, S2)
            s_bc, s_bd = hexagonator_R(ctx2, sb, S2, S2)
            rc, rd = hexagonator_R(ctx2, ses, S2, S2)
            r_ac, r_bc = hexagonator_S(ctx2, rc, S1, S1)
            r_ad, r_bd = hexagonator_S(ctx2, rd, S1, S1)
            for x, y in ((s_ac, r_ac), (s_ad, r_ad), (s_bc, r_bc), (s_bd, r_bd)):
                assert x.sub == y.sub and x.quo == y.quo
                assert ctx2.is_isomorphic(x.mid, y.mid)
            checked += 1
    assert checked == ext.object_count() > 0


def _watch_splits(monkeypatch, on_split):
    """Route every split_sequence(ctx, hexagonator, ses, y, z) call through
    on_split(split, ctx, hexagonator, ses, y, z), split the library's own."""
    split = cathall.split_sequence
    monkeypatch.setattr(cathall, "split_sequence", lambda *args: on_split(split, *args))


def test_each_shuffle_splits_each_sequence_once(a2, monkeypatch):
    """At a2, q=2, bound 2 (verify coherence at max-dim 3) the shapes ask for
    536, 536 and 774 splits, and the hexagonators run once per distinct
    (hexagonator, sequence, summands) on one fresh context: 81, 81 and 0
    times, 162 in all, as shuffle-2-2 splits only what shuffle-1-3 and
    shuffle-3-1 split."""
    ctx = RepCategory(a2, 2)
    tally = {"asked": 0, "calls": 0}
    for name in ("hexagonator_R", "hexagonator_S"):
        def counted(ctx, ses, y, z, hexagonator=getattr(cathall, name)):
            tally["calls"] += 1
            return hexagonator(ctx, ses, y, z)
        monkeypatch.setattr(cathall, name, counted)

    def on_split(split, *args):
        tally["asked"] += 1
        return split(*args)
    _watch_splits(monkeypatch, on_split)
    counts = {}
    for check in cathall.SHUFFLES:
        tally.update(asked=0, calls=0)
        assert suite_coherence(ctx, 3, only=check)["failures"] == []
        counts[check] = (tally["asked"], tally["calls"])
    assert counts == {"shuffle-1-3": (536, 81), "shuffle-3-1": (536, 81),
                      "shuffle-2-2": (774, 0)}


def test_shuffle_splits_equal_fresh_hexagonator_calls(ctx2, reps2, monkeypatch):
    """Every split a shuffle shape receives at a2, q=2, bound 2 equals a fresh
    hexagonator call on the same arguments, piece by piece: sub, mid, quo,
    incl and proj; and a first summand that does not fit the sequence still
    raises after the fitting one was split.  The slot match is too weak to
    notice a wrong split (ROADMAP item 6), so this guards split_sequence's cache."""
    seen = []

    def on_split(split, ctx, hexagonator, ses, y, z):
        got = split(ctx, hexagonator, ses, y, z)
        for a, b in zip(got, hexagonator(ctx, ses, y, z), strict=True):
            assert (a.sub, a.mid, a.quo, a.incl, a.proj) == (b.sub, b.mid, b.quo, b.incl, b.proj)
        with pytest.raises(ValueError, match="not the given direct sum"):
            split(ctx, hexagonator, ses, ctx.direct_sum(reps2["S1"], y), z)
        seen.append(hexagonator)
        return got
    _watch_splits(monkeypatch, on_split)
    for check in cathall.SHUFFLES:
        assert suite_coherence(ctx2, 3, only=check)["failures"] == []
    assert len(seen) == 536 + 536 + 774
    assert set(seen) == {hexagonator_R, hexagonator_S}


# ---- the engine bridge: the sequence groupoid as a fully concrete groupoid ----


def _vm_compose(g, f):
    """Labels (src, tgt, vertex maps) compose by multiplying vertex maps."""
    return (f[0], g[1], tuple(x * y for x, y in zip(g[2], f[2])))


def _vm_inverse(lab):
    return (lab[1], lab[0], tuple(matrix_inverse(m) for m in lab[2]))


def _vm_groupoid(reps, labels):
    """Object i carries reps[i]; morphisms are labelled (i, j, vertex maps)."""
    return gpd.ConcreteGroupoid(
        list(range(len(reps))), [(lab[0], lab[1], lab) for lab in labels],
        [(i, i, identity_morphism(r).vertex_maps) for i, r in enumerate(reps)],
        _vm_inverse, _vm_compose)


def _singleton_concrete(ctx, w):
    """Aut(w) as a one-object groupoid, and the morphism index of vertex maps."""
    G = _vm_groupoid([w], [(0, 0, m.vertex_maps) for m in ctx.aut_elements(w)])
    return G, lambda vm: morphism_index(G, (0, 0, vm))


def _a0_concrete(ctx, bound):
    wits = [c.rep for c in ctx.classes_up_to(bound)]
    labels = [(i, i, mor.vertex_maps)
              for i, w in enumerate(wits) for mor in ctx.aut_elements(w)]
    return _vm_groupoid(wits, labels), wits


def _sequences_concrete(ctx, objects):
    """Sequences with the same outer terms, morphisms their middle automorphisms.

    Returns (groupoid, per-morphism (alpha, gamma) vertex maps).
    """
    labels, ag = [], []
    for i1, s1 in enumerate(objects):
        for i2, s2 in enumerate(objects):
            if s1.mid != s2.mid or s1.sub != s2.sub or s1.quo != s2.quo:
                continue
            k2 = image_key(s2.incl)
            for beta in ctx.aut_elements(s1.mid):
                if image_key(beta.compose(s1.incl)) != k2:
                    continue
                labels.append((i1, i2, beta.vertex_maps))
                ag.append((corestrict(s2.incl, beta.compose(s1.incl)).vertex_maps,
                           factor_through(s1.proj, s2.proj.compose(beta)).vertex_maps))
    return _vm_groupoid([ses.mid for ses in objects], labels), ag


def _ses_concrete(ctx, bound):
    objects = []
    for cm in ctx.classes_up_to(bound):
        for cn in ctx.classes_up_to(bound):
            if sum(cm.dim) + sum(cn.dim) > bound:
                continue
            ext = ExtGroupoid(ctx, cm.rep, cn.rep)
            for e in ext.pieces:
                objects.extend(ext.objects(e))
    G, ag = _sequences_concrete(ctx, objects)
    return G, objects, ag


def test_engine_bridge_mult_comult_spans(ctx2, hall2):
    """Degroupoidify the sequence span through the groupoid engine itself.

    The concrete groupoid of sequences with triple morphisms, with its two
    leg functors, must produce the same matrices as the formula path and
    hence the Hall structure constants.
    """
    bound = 2
    a0c, wits = _a0_concrete(ctx2, bound)
    a0c.validate()
    prod_base, pi1, pi2 = gpd.product_groupoid(a0c, a0c)
    sesG, objects, ag = _ses_concrete(ctx2, bound)
    sesG.validate()
    wit_index = {w: i for i, w in enumerate(wits)}
    prod_index = {o: i for i, o in enumerate(prod_base.objects)}

    # leg to the base: middle term and beta
    obj_map_E = [wit_index[ses.mid] for ses in objects]
    mor_map_E = []
    for i1, _, vm in sesG.mor_label:
        e_idx = obj_map_E[i1]
        mor_map_E.append(morphism_index(a0c, (e_idx, e_idx, vm)))
    leg_E = gpd.GroupoidFunctor(sesG, a0c, obj_map_E, mor_map_E)
    leg_E.validate()

    # leg to the product base: (quotient, subobject) and (gamma, alpha)
    obj_map_MN = [prod_index[(wit_index[ses.quo], wit_index[ses.sub])]
                  for ses in objects]
    mor_map_MN = []
    for (i1, _, _), (alpha, gamma) in zip(sesG.mor_label, ag):
        m_idx = wit_index[objects[i1].quo]
        n_idx = wit_index[objects[i1].sub]
        g_idx = morphism_index(a0c, (m_idx, m_idx, gamma))
        a_idx = morphism_index(a0c, (n_idx, n_idx, alpha))
        mor_map_MN.append(morphism_index(prod_base, (g_idx, a_idx)))
    leg_MN = gpd.GroupoidFunctor(sesG, prod_base, obj_map_MN, mor_map_MN)
    leg_MN.validate()

    mult_span = gpd.ConcreteSpan(sesG, leg_E, leg_MN)
    entries, _, _ = gpd.degroupoidify_span(mult_span)
    formula, cformula = _span_matrices(ctx2, bound)
    engine_entries = {}
    for (y, x), val in entries.items():
        e_label = ctx2.class_of(wits[y]).label
        m_label = ctx2.class_of(wits[prod_base.objects[x][0]]).label
        n_label = ctx2.class_of(wits[prod_base.objects[x][1]]).label
        engine_entries[(e_label, (m_label, n_label))] = val
    assert engine_entries == formula

    # the engine matrix reproduces the Hall product coefficientwise
    for (e_label, (m_label, n_label)), val in engine_entries.items():
        assert hall2.product_basis(m_label, n_label).get(e_label, 0) == val

    # adjoint span: same apex, swapped legs, gives the coproduct matrix
    comult_span = gpd.ConcreteSpan(sesG, leg_MN, leg_E)
    centries, _, _ = gpd.degroupoidify_span(comult_span)
    engine_centries = {}
    for (y, x), val in centries.items():
        m_label = ctx2.class_of(wits[prod_base.objects[y][0]]).label
        n_label = ctx2.class_of(wits[prod_base.objects[y][1]]).label
        e_label = ctx2.class_of(wits[x]).label
        engine_centries[((m_label, n_label), e_label)] = val
    assert engine_centries == cformula

    # the unique-operator property on a point over (S1, S2)
    s1_idx = next(i for i, w in enumerate(wits) if ctx2.class_of(w).label == "d1.0#0")
    s2_idx = next(i for i, w in enumerate(wits) if ctx2.class_of(w).label == "d0.1#0")
    pt = gpd.discrete_groupoid(1)
    target = prod_index[(s1_idx, s2_idx)]
    psi = gpd.GroupoidFunctor(pt, prod_base, [target],
                              [prod_base.identity[target]])
    psi.validate()
    pushed = gpd.apply_span(mult_span, psi, DEFAULT_BUDGET)
    vec = gpd.degroupoidify_vector(pushed)
    got = {ctx2.class_of(wits[k]).label: v for k, v in vec.items()}
    assert got == dict(hall2.product_basis("d1.0#0", "d0.1#0"))


def _ext_concrete(ctx, M, N):
    """One sequence groupoid with triple morphisms, as a concrete groupoid.

    Returns (groupoid, objects, per-morphism (alpha, gamma) vertex maps).
    """
    ext = ExtGroupoid(ctx, M, N)
    objects = [s for e in ext.pieces for s in ext.objects(e)]
    G, ag = _sequences_concrete(ctx, objects)
    return G, objects, ag


def _quad_product(parts):
    """Left-nested product of four single-object groupoids, plus an indexer."""
    g01, _, _ = gpd.product_groupoid(parts[0], parts[1])
    g012, _, _ = gpd.product_groupoid(g01, parts[2])
    g0123, _, _ = gpd.product_groupoid(g012, parts[3])

    def mor_index(m0, m1, m2, m3):
        i01 = morphism_index(g01, (m0, m1))
        i012 = morphism_index(g012, (i01, m2))
        return morphism_index(g0123, (i012, m3))

    return g0123, mor_index


def test_engine_grounds_coherence_path_cardinality(ctx2):
    """Compose two braid pieces through a middle base with nontrivial
    automorphisms, entirely inside the groupoid engine, and compare the
    composite apex cardinality with the closed path-value formula
    (oracles.path_value).
    """
    from fractions import Fraction
    a = ctx2.classify((2, 1))[1].rep   # S1 + P1, automorphism count 2
    b = ctx2.classify((0, 1))[0].rep   # S2
    zero = ctx2.classify((0, 0))[0].rep
    Ga, a_index = _singleton_concrete(ctx2, a)
    Gb, b_index = _singleton_concrete(ctx2, b)
    Gz, z_index = _singleton_concrete(ctx2, zero)

    middle, mid_index = _quad_product([Gb, Ga, Gz, Gz])       # order BACD
    abcd, abcd_index = _quad_product([Ga, Gb, Gz, Gz])
    bcda, bcda_index = _quad_product([Gb, Gz, Gz, Ga])

    idb = Gb.identity[0]
    idz = Gz.identity[0]

    # first braid piece: sequences 0 -> b -> E -> a -> 0, legs ABCD and BACD
    ext1, objs1, ag1 = _ext_concrete(ctx2, a, b)
    ext1.validate()
    left1 = gpd.GroupoidFunctor(
        ext1, middle, [0] * ext1.n_objects(),
        [mid_index(b_index(al), a_index(ga), idz, idz)
         for al, ga in ag1])
    right1 = gpd.GroupoidFunctor(
        ext1, abcd, [0] * ext1.n_objects(),
        [abcd_index(a_index(ga), b_index(al), idz, idz)
         for al, ga in ag1])
    left1.validate()
    right1.validate()
    span1 = gpd.ConcreteSpan(ext1, left1, right1)

    # second braid piece: trivial extensions 0 -> 0 -> E -> a -> 0
    ext2, objs2, ag2 = _ext_concrete(ctx2, a, zero)
    ext2.validate()
    right2 = gpd.GroupoidFunctor(
        ext2, middle, [0] * ext2.n_objects(),
        [mid_index(idb, a_index(ga), idz, idz) for _, ga in ag2])
    left2 = gpd.GroupoidFunctor(
        ext2, bcda, [0] * ext2.n_objects(),
        [bcda_index(idb, idz, idz, a_index(ga)) for _, ga in ag2])
    right2.validate()
    left2.validate()
    span2 = gpd.ConcreteSpan(ext2, left2, right2)

    composite = gpd.compose_spans(span2, span1, DEFAULT_BUDGET)
    got = composite.apex.cardinality()
    want = path_value(ctx2, [(a, b), (a, zero)], (a, b, zero, zero))
    assert got == want == Fraction(1)
    # and the one-step path through the summed subobject agrees
    per_factor = fixed_end_cardinality(ctx2, a, b.direct_sum(zero)) / (
        ctx2.aut_order(a) * ctx2.aut_order(b))
    assert per_factor == want

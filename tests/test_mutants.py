"""Each mutant of tests/mutants.py against the suites that must catch it."""

from fractions import Fraction

import pytest

from hallalg.cli import load_quiver
from hallalg.hall import HallAlgebra
from hallalg.linalg import Matrix
from hallalg.quiver import RepCategory, RepMorphism, Representation
from hallalg import cathall, verify
from mutants import MUTANTS
from oracles import census_walk_by_yield, green_row_by_join, reduce_cocycle_by_solve

# mutant -> [(quiver, q, max_dim, {suite: (failures, instances)}), ...]; failures may
# instead be the "Type: message" of an exception the mutant makes the suite raise,
# and instances are then those of the unmutated run
CAUGHT = {
    # only the bialgebra law and the comultiplication span catch it here
    "coproduct_doubled": [("a2", 2, 3, {"algebra": (0, 202), "green": (0, 295),
                                        "bialgebra": (20, 45), "antipode": (0, 13),
                                        "spans": (25, 142)})],
    # Green's formula and the braiding matrix of bsim read braid_coeff; the
    # bialgebra law braids through euler_form directly, so it passes
    "braid_exponent_swapped": [("a2", 2, 3, {"green": (26, 295), "bialgebra": (0, 45),
                                             "bsim": (24, 98)}),
                               ("a2", 3, 3, {"green": (26, 295)}),
                               ("a2", 2, 4, {"green": (166, 1137)})],
    # only braid_inverse asks for sign=1, so only hexagon's braid round trip sees
    # it: on each (A, D) with <A, D> != 0 (119 of the 13^2 label pairs); the
    # suites that read braid_coeff at sign -1 pass
    "braid_inverse_sign_kept": [("a2", 2, 3, {"hexagon": (119, 46825), "green": (0, 295),
                                              "bialgebra": (0, 45), "bsim": (0, 98)})],
    # every Hall suite that reads a coproduct sees it too; at q = 3 the bumped
    # P^{P1}_{S1 S2} = 5 is no multiple of aut S1 aut S2 = 4, and the Hall
    # number division of the Green rows raises on the inexact quotient
    "factorization_bumped": [
        ("a2", 2, 3, {"algebra": (2, 202), "green": (22, 295), "bialgebra": (5, 45),
                      "antipode": (2, 13), "spans": (1, 142)}),
        ("a2", 3, 3, {"green": ("ValueError: Hall number at E = d1.1#1, M = d1.0#0, "
                                "N = d0.1#0 is 5/4, not an integer", 295)})],
    # a sign is invisible over F_2; the bilinearity round trip sees it at q = 3
    "glue_sign_dropped": [("a2", 3, 2, {"bilinearity": (1, 62)}),
                          ("a2", 3, 3, {"bilinearity": (7, 210)})],
    # census counts do not depend on the complement, so the Hall suites pass;
    # the glues' validate and bsim's automorphism counts catch it
    "frame_low_term_dropped": [
        ("a2", 3, 2, {"green": (0, 63),
                      "bilinearity": ("ValueError: inclusion is not injective", 62),
                      "bsim": (9, 98)}),
        ("a2", 3, 3, {"algebra": (0, 202), "green": (0, 295), "ext": (0, 45),
                      "bilinearity": ("ValueError: inclusion is not injective", 210)})],
    # every census of an E with a free vertex of dimension >= 2 counts each
    # k-subspace tuple there once: the Hall suites and riedtmann see it, and
    # test_census_oracle_catches_free_vertex_weight_dropped on the census itself
    "free_vertex_weight_dropped": [("a2", 2, 3, {"algebra": (4, 202), "green": (30, 295),
                                                 "bialgebra": (16, 45),
                                                 "riedtmann": (10, 71)})],
    # no suite sees it: the reduction changes only on pairs of total dim >= 4
    # (none on a2), so every suite passes at a2 and a3-source up to dim 3;
    # test_ext_reduction_oracle_catches_ext_low_term_dropped and the property
    # test test_reduce_cocycle_properties (tests/test_quiver.py) catch it
    "ext_low_term_dropped": [("a3-source", 3, 3, {"ext": (0, 114), "riedtmann": (0, 220),
                                                  "bilinearity": (0, 566)})],
    # one class too few at (3, 1) on a2 reads n = -1 indecomposables there; (3, 1)
    # has an entry above 2, so the End-walk box that gabriel used before never saw it;
    # the merged class's orbit tree is smaller than its orbit size, and the first
    # sequences of bilinearity and spans raise on that; bsim counts wrong; riedtmann
    # meets a representation of the lost class, whose index is past the table
    "orbits_merged": [("a2", 2, 4, {
        "gabriel": (1, 14), "bsim": (6, 98),
        "riedtmann": ("ValueError: class index 1 of dim (3, 1) is past the 1 classes of "
                      "its table", 197),
        "bilinearity": ("ValueError: orbit tree of d3.1#0 has 1 tuples, not its orbit size 8",
                        600),
        "spans": ("ValueError: orbit tree of d3.1#0 has 1 tuples, not its orbit size 8",
                  394)})],
    # bsim's direct count of sequence automorphisms, against the stabilizers
    # from the orbits: points singular only at vertex 2 pass as units, or the
    # units of the complement of the fixed-end ideal V miss their q^{dim V}
    "units_accept_singular": [("a2", 2, 3, {"bsim": (38, 98)})],
    "fixed_end_factor_dropped": [("a2", 2, 3, {"bsim": (29, 98)})],
    # hexagonator_R's second piece replaced by the split extension: both routes
    # of every coherence shuffle split through it, and the slot match compares
    # only outer terms and middle-term classes, so coherence passes (ROADMAP
    # item 6); the bilinearity round trip glues the split piece back and sees it
    "hexagonator_output_split": [("a2", 2, 3, {"bilinearity": (7, 210),
                                               "coherence": (0, 661)})],
    # every suite that reads the Euler form sees a wrong one; hexagon sees only
    # a form that is not bilinear, as both its loops read the formula alone.
    # coherence fails on its fixed-end piece values (census against the form)
    "euler_form_bumped": [("a2", 2, 3, {"hexagon": (85750, 46825), "ext": (20, 45),
                                        "bsim": (72, 98), "coherence": (40, 661),
                                        "green": (44, 295), "bialgebra": (20, 45)})],
    "euler_form_transposed": [("a2", 2, 3, {"hexagon": (0, 46825), "ext": (14, 45),
                                            "bsim": (48, 98), "coherence": (20, 661),
                                            "green": (26, 295), "bialgebra": (14, 45)})],
    # a transporter's h^-1 from the generators themselves: up to max-dim 3 almost
    # every first_iso starts at a class representative, whose tree path is empty
    # (987 of 990 calls over bilinearity, spans, bsim and coherence at a2 q=3),
    # and the few others pass the arrow check, so no suite sees it there; at
    # max-dim 4 the d-cycle of GL_3(F_2), or the transvection of GL_2(F_3),
    # fails first_iso's arrow check in the first sequences of bilinearity
    "transporter_inverse_uninverted": [
        ("a2", 2, 4, {"bilinearity": ("ValueError: transported map (1, 3) -> (1, 3) does not "
                                      "commute with the arrows", 600)}),
        ("a2", 3, 4, {"bilinearity": ("ValueError: transported map (2, 1) -> (2, 1) does not "
                                      "commute with the arrows", 600)})],
    # extension_class's cache keyed without proj: it returns no suite a wrong
    # class (0 of 1,090 bilinearity and 371 bsim calls at a2 q=3, 0 of 6,311
    # bilinearity calls at max-dim 4), as the sequences a suite classifies
    # under one inclusion share their class; the cache test
    # test_class_cache_test_catches_extension_class_key_without_proj sees it
    "extension_class_key_without_proj": [
        ("a2", 2, 3, {"ext": (0, 45), "riedtmann": (0, 71), "bilinearity": (0, 210),
                      "bsim": (0, 98), "spans": (0, 142), "coherence": (0, 661)}),
        ("a2", 3, 3, {"ext": (0, 45), "riedtmann": (0, 71), "bilinearity": (0, 210),
                      "bsim": (0, 98), "spans": (0, 142), "coherence": (0, 226057)}),
        ("a3-source", 3, 3, {"bilinearity": (0, 566), "bsim": (0, 288)}),
        ("d4", 3, 3, {"bilinearity": (0, 1162), "bsim": (0, 648)}),
        ("a2", 3, 4, {"bilinearity": (0, 600), "bsim": (0, 98)})],
}


def _counts(quiver, q, max_dim, suites):
    ctx = RepCategory(load_quiver(quiver), q)
    hall = HallAlgebra(ctx)
    out = {}
    for name in suites:
        try:
            rep = verify.run_suite(name, ctx, hall, max_dim, seed=0)
        except ValueError as exc:
            out[name] = (f"{type(exc).__name__}: {exc}", suites[name][1])
            continue
        out[name] = (len(rep["failures"]), rep["instances"])
    return out


def test_every_mutant_has_an_expectation():
    assert set(CAUGHT) == set(MUTANTS)


@pytest.mark.parametrize("name", sorted(CAUGHT))
def test_mutant_caught(name):
    for quiver, q, max_dim, want in CAUGHT[name]:
        assert _counts(quiver, q, max_dim, want) == {
            s: (0, n) for s, (_, n) in want.items()}
        with MUTANTS[name]():
            assert _counts(quiver, q, max_dim, want) == want


def _green_failures(quiver, q, max_dim, by_join):
    """verify green's failure lines, its rows from the library or, by_join,
    from the per-quadruple join oracle."""
    ctx = RepCategory(load_quiver(quiver), q)
    hall = HallAlgebra(ctx)
    if by_join:
        hall.green_residual = lambda lm, ln: green_row_by_join(hall, lm, ln)
    return verify.suite_green(ctx, hall, max_dim)["failures"]


@pytest.mark.parametrize("name,quiver,q,max_dim", [
    ("braid_exponent_swapped", "a2", 2, 3), ("braid_exponent_swapped", "a2", 3, 3),
    ("braid_exponent_swapped", "a2", 2, 4), ("factorization_bumped", "a2", 2, 3)])
def test_green_mutant_failures_match_the_join_oracle(name, quiver, q, max_dim):
    """Under each Green mutant the rows fail on the same instances, with the
    same residuals, as the per-quadruple join, line for line."""
    with MUTANTS[name]():
        rows = _green_failures(quiver, q, max_dim, by_join=False)
        assert rows and rows == _green_failures(quiver, q, max_dim, by_join=True)


def test_bilinearity_names_what_failed(monkeypatch):
    """Under glue_sign_dropped (a2, q = 3, max-dim 3) only the round trip
    fails, and each of the 7 lines says so.  A failed cardinality prints
    both sides as format_coeff does, and a failed skeleton map is named."""
    ctx = RepCategory(load_quiver("a2"), 3)
    with MUTANTS["glue_sign_dropped"]():
        failures = verify.run_suite("bilinearity", ctx, None, 3, seed=0)["failures"]
    assert len(failures) == 7
    assert failures[0] == "bilin1:d0.0#0|d1.0#0|d0.1#0: round trip leaves the class"
    assert all(f.startswith("bilin1:") and f.endswith(": round trip leaves the class")
               for f in failures)
    inst = "bilin1:d0.0#0|d1.0#0|d0.1#0"
    # two class pairs of the parts, one class of the whole, glued back into itself
    monkeypatch.setattr(cathall, "ext_bilinearity_first", lambda ctx, *reps: (
        Fraction(3), Fraction(9, 2), {(0,): (((), ()), (0,))}, 2))
    assert verify.run_suite("bilinearity", ctx, None, 3, seed=0, only=inst)["failures"] == [
        f"{inst}: cardinality 3/1 != 9/2, skeleton map not a bijection"]


def test_factorization_bumped_breaks_exactness_on_both_routes():
    """At q = 3 the bumped factorization is no multiple of aut S1 aut S2:
    the rows and the join both raise a ValueError on the inexact division."""
    for by_join in (False, True):
        with MUTANTS["factorization_bumped"](), pytest.raises(ValueError):
            _green_failures("a2", 3, 3, by_join)


def test_ext_reduction_oracle_catches_ext_low_term_dropped():
    """On EXT(d0.1.0#0, d1.1.1#3) of a3-source (q = 3), where the pivot-row
    reduction has a low term, the mutant no longer kills the coboundary and
    leaves the solve oracle's reduction.  The cocycles tried are the
    coboundary of each unit of the domain of phi (one, of rank 1) and each
    unit of the 2-dimensional cocycle space."""
    ctx = RepCategory(load_quiver("a3-source"), 3)
    M, N = ctx.class_by_label("d0.1.0#0").rep, ctx.class_by_label("d1.1.1#3").rep
    phi = ctx._presentation_matrix(M, N)[0]
    cocycles = [phi.apply(x) for x in Matrix.identity(ctx.field, phi.cols).entries] + list(
        Matrix.identity(ctx.field, phi.rows).entries)

    def wrong():
        return sum(ctx.reduce_cocycle(M, N, c) != reduce_cocycle_by_solve(ctx, M, N, c)
                   for c in cocycles)
    assert wrong() == 0
    with MUTANTS["ext_low_term_dropped"]():
        assert wrong() == 2         # the coboundary and the unit vector at its pivot


def test_census_oracle_catches_free_vertex_weight_dropped():
    """The census of 6 of the 13 classes of a2 (q = 2) up to dim 3, those with
    a free vertex of dimension >= 2, where some [e choose k]_q exceeds 1,
    leaves the full walk's tally."""
    def wrong():
        ctx, oracle = RepCategory(load_quiver("a2"), 2), RepCategory(load_quiver("a2"), 2)
        return sum(ctx._census_walk(ctx.class_by_label(cls.label)) !=
                   census_walk_by_yield(oracle, cls) for cls in oracle.classes_up_to(3))
    assert wrong() == 0
    with MUTANTS["free_vertex_weight_dropped"]():
        assert wrong() == 6


def _copy_maps(maps):
    return [Matrix(m.field, m.entries, m.rows, m.cols) for m in maps]


def _copy_rep(R):
    """R rebuilt from new objects: equal content, nothing shared."""
    return Representation(R.quiver, R.field, R.dim, _copy_maps(R.edge_maps))


def _class_cache_misses():
    """Classify every sequence that verify bilinearity classifies at a2, q = 3,
    max-dim 3, then rebuild a content-equal copy of each from new objects.
    Returns (mismatches, moved, sequences).  mismatches counts the copies
    whose extension_class on that context differs from the class it cached
    or from a fresh context's value, and, for M nonzero, the copies
    (f, mu g), mu the first non-identity element of Aut M, whose class there
    differs from a fresh context's.  moved counts the (f, mu g) whose class
    is not that of (f, g), which a cache that ignored proj would get wrong.
    The middle_term_ses of each class the suite splits is compared with a
    fresh context's too."""
    ctx = RepCategory(load_quiver("a2"), 3)
    classified, built = {}, {}

    def extension_class(*args):
        classified[args] = RepCategory.extension_class(ctx, *args)
        return classified[args]

    def middle_term_ses(M, N, cocycle):
        built[M, N, tuple(cocycle)] = RepCategory.middle_term_ses(ctx, M, N, cocycle)
        return built[M, N, tuple(cocycle)]
    ctx.extension_class, ctx.middle_term_ses = extension_class, middle_term_ses
    assert verify.run_suite("bilinearity", ctx, None, 3, seed=0)["failures"] == []
    del ctx.extension_class, ctx.middle_term_ses

    def fresh():
        return RepCategory(ctx.quiver, ctx.q)
    mismatches = moved = 0
    for (M, N, E, f, g), cached in classified.items():
        M2, N2, E2 = _copy_rep(M), _copy_rep(N), _copy_rep(E)
        f2 = RepMorphism(N2, E2, _copy_maps(f.vertex_maps))
        g2 = RepMorphism(E2, M2, _copy_maps(g.vertex_maps))
        got = ctx.extension_class(M2, N2, E2, f2, g2)
        mismatches += got != cached or got != fresh().extension_class(M2, N2, E2, f2, g2)
        if not any(M.dim):
            continue
        mu = next(a for a in ctx.aut_elements(M) if a.vertex_maps != tuple(
            Matrix.identity(ctx.field, d) for d in M.dim))
        g3 = RepMorphism(E2, M2, [m * gv for m, gv in zip(mu.vertex_maps, g.vertex_maps)])
        want = fresh().extension_class(M2, N2, E2, f2, g3)
        mismatches += ctx.extension_class(M2, N2, E2, f2, g3) != want
        moved += want != cached
    for (M, N, cocycle), (E, f, g) in built.items():
        got = ctx.middle_term_ses(_copy_rep(M), _copy_rep(N), tuple(cocycle))
        mismatches += got != (E, f, g) or got != fresh().middle_term_ses(M, N, cocycle)
    return mismatches, moved, len(classified)


def test_extension_class_cache_matches_a_fresh_context():
    """Copies of the 153 sequences bilinearity classifies get the cached
    class, which is a fresh context's; and a copy that differs only in proj
    gets its own class, which moves off the cached one for 26 of them."""
    assert _class_cache_misses() == (0, 26, 153)


def test_class_cache_test_catches_extension_class_key_without_proj():
    """No suite sees the mutant (CAUGHT), but here it hands each of the 26
    (f, mu g) whose class moved the cached class of (f, g)."""
    with MUTANTS["extension_class_key_without_proj"]():
        assert _class_cache_misses() == (26, 26, 153)

"""Acceptance suite: every criterion at its stated tolerance.

All arithmetic is exact, so "tolerance" is literal equality of rationals
throughout.  Each test prints one pass line (visible under pytest -s);
a failing criterion fails its test.
"""

import time
from fractions import Fraction

from hallalg.hall import HallAlgebra
from hallalg.quiver import Quiver, RepCategory
from hallalg import cathall, verify
from oracles import (count_exact_pairs_slow, finite_sets_groupoid, indecomposable_classes,
                     positive_roots)

ZERO, S1, S2, SS, P1 = "d0.0#0", "d1.0#0", "d0.1#0", "d1.1#0", "d1.1#1"


def _ok(n, msg):
    print(f"PASS criterion {n}: {msg}")


def test_criterion_01_hall_product_ground_truth(ctx2, hall2, reps2):
    t0 = time.monotonic()
    assert hall2.product({S1: 1}, {S2: 1}, 2) == {SS: 1, P1: 1}
    assert hall2.product({S2: 1}, {S1: 1}, 2) == {SS: 1}
    # oracle: direct enumeration of all exact (f, g) pairs
    for E_key, expected in (("SS", 1), ("P1", 1)):
        assert count_exact_pairs_slow(ctx2, reps2["S1"], reps2["S2"],
                                      reps2[E_key]) == expected
    assert count_exact_pairs_slow(ctx2, reps2["S2"], reps2["S1"], reps2["SS"]) == 1
    assert count_exact_pairs_slow(ctx2, reps2["S2"], reps2["S1"], reps2["P1"]) == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _ok(1, f"[S1].[S2] = [S1+S2] + [P1] and [S2].[S1] = [S1+S2], "
           f"oracle-checked in {elapsed:.2f}s")


def test_criterion_02_associativity_coassociativity(ctx2, ctx3, hall2, hall3,
                                                    ctx_a3):
    t0 = time.monotonic()
    for ctx, hall, bound in ((ctx2, hall2, 4), (ctx3, hall3, 4)):
        rep = verify.suite_algebra(ctx, hall, bound)
        assert rep["failures"] == [], rep["failures"][:3]
    rep = verify.suite_algebra(ctx_a3, HallAlgebra(ctx_a3), 3)
    assert rep["failures"] == []
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _ok(2, f"associativity and coassociativity exact on A2 (q=2,3, dim<=4) "
           f"and A3 (q=2, dim<=3) in {elapsed:.1f}s")


def test_criterion_03_green_formula(ctx2, ctx3, hall2, hall3):
    t0 = time.monotonic()
    total = 0
    for ctx, hall in ((ctx2, hall2), (ctx3, hall3)):
        rep = verify.suite_green(ctx, hall, 3)
        assert rep["failures"] == [], rep["failures"][:3]
        total += rep["instances"]
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _ok(3, f"Green residual exactly 0 on {total} quadruples "
           f"(A2, q=2,3, dim<=3) in {elapsed:.1f}s")


def test_criterion_04_braided_bialgebra(ctx2, hall2):
    t0 = time.monotonic()
    rep = verify.suite_bialgebra(ctx2, hall2, 4)
    assert rep["failures"] == [], rep["failures"][:3]
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _ok(4, f"bialgebra residual identically zero on {rep['instances']} pairs "
           f"(A2, q=2, dim<=4) in {elapsed:.1f}s")


def test_criterion_05_ext_cardinality(ctx2, ctx3, reps2, reps3):
    for ctx in (ctx2, ctx3):
        rep = verify.suite_ext(ctx, 3)
        assert rep["failures"] == [], rep["failures"][:3]
    for ctx, reps, value in ((ctx2, reps2, Fraction(2)), (ctx3, reps3, Fraction(3, 4))):
        S1, S2 = reps["S1"], reps["S2"]
        pair_count_route = cathall.fixed_end_cardinality(ctx, S1, S2) / (
            ctx.aut_order(S2) * ctx.aut_order(S1))
        assert pair_count_route == cathall.closed_form_ext_cardinality(ctx, S1, S2) == value
    _ok(5, "EXT cardinality lemma exact for all pairs dim<=3 (A2, q=2,3); "
           "|EXT(S1,S2)| = 2 at q=2 and 3/4 at q=3")


def test_criterion_06_riedtmann(ctx2, ctx3):
    t0 = time.monotonic()
    total = 0
    for ctx in (ctx2, ctx3):
        rep = verify.suite_riedtmann(ctx, 3)
        assert rep["failures"] == [], rep["failures"][:3]
        total += rep["instances"]
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _ok(6, f"Riedtmann's formula exact on {total} triples "
           f"(A2, q=2,3, dim<=3) in {elapsed:.1f}s")


def test_criterion_07_span_degroupoidification(ctx2, hall2):
    rep = verify.suite_spans(ctx2, hall2, 3)
    assert rep["failures"] == [], rep["failures"][:3]
    _ok(7, f"multiplication/comultiplication spans match the Hall maps "
           f"entrywise at bound 3 ({rep['instances']} entries, A2, q=2)")


def test_criterion_08_engine_properties(ctx2):
    rep = verify.suite_engine(ctx2, seed=0)
    assert rep["failures"] == [], rep["failures"][:3]
    assert rep["instances"] == 80  # 50 span pairs + 20 equivalences + 10 discrete
    _ok(8, "degroupoidification functorial on 50 seeded span pairs; "
           "cardinality formulas agree; 20 equivalent pairs share cardinality")


def test_criterion_09_finite_sets_truncation():
    fs8 = finite_sets_groupoid(8)
    assert fs8.cardinality() == Fraction(109601, 40320)
    assert fs8.cardinality_alt() == Fraction(109601, 40320)
    _ok(9, "finite-sets groupoid truncated at n<=8 has cardinality "
           "109601/40320 exactly")


def test_criterion_10_gabriel_cross_check(ctx2, ctx_a3, a3_source):
    assert len(positive_roots(ctx2)) == 3
    assert len(indecomposable_classes(ctx2, 4, max_entry=2)) == 3
    assert len(positive_roots(ctx_a3)) == 6
    assert len(indecomposable_classes(ctx_a3, 4, max_entry=2)) == 6
    ctx_src = RepCategory(a3_source, 2)
    assert len(positive_roots(ctx_src)) == 6
    assert len(indecomposable_classes(ctx_src, 4, max_entry=2)) == 6
    _ok(10, "indecomposable class counts over F_2 equal positive-root counts: "
            "3 on A2, 6 on both A3 orientations")


def test_criterion_11_antipode(ctx2, hall2):
    rep = verify.suite_antipode(ctx2, hall2, 4)
    assert rep["failures"] == [], rep["failures"][:3]
    comparison = rep["comparison"]
    assert comparison["first_divergence"] is not None
    diverging = {d["label"] for d in comparison["divergences"]}
    assert P1 in diverging
    p1_entry = next(d for d in comparison["divergences"] if d["label"] == P1)
    assert p1_entry["canonical"] == {SS: "1/1", P1: "-1/1"}
    _ok(11, "canonical antipode satisfies both axioms exactly up to grade 4 "
            f"(A2, q=2); divergence report emitted, first at "
            f"{comparison['first_divergence']}, basis-wise negation fails at [P1]")


def test_criterion_12_coherence_polytopes(ctx2, hall2):
    t0 = time.monotonic()
    for name in ("pentagon-strict", "unitor", *cathall.SHUFFLES):
        rep = verify.suite_coherence(ctx2, 2, only=name)
        assert rep["failures"] == [], (name, rep["failures"][:3])
    # hexagonator checks reproduce EXT bilinearity numerically
    rep = verify.suite_bilinearity(ctx2, 3)
    assert rep["failures"] == []
    # the full verification suite stays within the stated wall-clock budget
    for name in verify.SUITE_ORDER:
        rep = verify.run_suite(name, ctx2, hall2, 3, seed=0)
        assert rep["failures"] == [], (name, rep["failures"][:3])
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _ok(12, f"both tetrahedra and the truncated cube pass at bound 2 "
            f"(A2, q=2); full suite green in {elapsed:.1f}s")

"""Each mutant of tests/mutants.py against the suites that must catch it."""

import pytest

from hallalg.cli import load_quiver
from hallalg.hall import HallAlgebra
from hallalg.linalg import Matrix
from hallalg.quiver import RepCategory
from hallalg import verify
from mutants import MUTANTS
from oracles import green_row_by_join, reduce_cocycle_by_solve

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
    # every Hall suite that reads a coproduct sees it too; at q = 3 the bumped
    # P^{P1}_{S1 S2} = 5 is no multiple of aut S1 aut S2 = 4, and the Hall
    # number division of the Green rows asserts exactness
    "factorization_bumped": [
        ("a2", 2, 3, {"algebra": (2, 202), "green": (22, 295), "bialgebra": (5, 45),
                      "antipode": (2, 13), "spans": (1, 142)}),
        ("a2", 3, 3, {"green": ("AssertionError: ('d1.1#1', 'd1.0#0', 'd0.1#0')", 295)})],
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
    # no suite sees it: the reduction changes only on pairs of total dim >= 4
    # (none on a2), so every suite passes at a2 and a3-source up to dim 3;
    # test_ext_reduction_oracle_catches_ext_low_term_dropped and the property
    # test test_reduce_cocycle_properties (tests/test_quiver.py) catch it
    "ext_low_term_dropped": [("a3-source", 3, 3, {"ext": (0, 114), "riedtmann": (0, 220),
                                                  "bilinearity": (0, 566)})],
    # one class too few at (3, 1) on a2 reads n = -1 indecomposables there; (3, 1)
    # has an entry above 2, so the End-walk box that gabriel used before never saw it
    "orbits_merged": [("a2", 2, 4, {"gabriel": (1, 14)})],
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
}


def _counts(quiver, q, max_dim, suites):
    ctx = RepCategory(load_quiver(quiver), q)
    hall = HallAlgebra(ctx)
    out = {}
    for name in suites:
        try:
            rep = verify.run_suite(name, ctx, hall, max_dim, seed=0)
        except (AssertionError, ValueError) as exc:
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


def test_factorization_bumped_breaks_exactness_on_both_routes():
    """At q = 3 the bumped factorization is no multiple of aut S1 aut S2:
    the rows and the join both raise on their exactness assert."""
    for by_join in (False, True):
        with MUTANTS["factorization_bumped"](), pytest.raises(AssertionError):
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

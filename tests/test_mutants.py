"""Each mutant of tests/mutants.py against the suites that must catch it."""

import pytest

from hallalg.cli import load_quiver
from hallalg.hall import HallAlgebra
from hallalg.linalg import Matrix
from hallalg.quiver import RepCategory
from hallalg import verify
from mutants import MUTANTS
from oracles import reduce_cocycle_by_solve

# mutant -> [(quiver, q, max_dim, {suite: (failures, instances)}), ...]; failures may
# instead be the "Type: message" of an exception the mutant makes the suite raise,
# and instances are then those of the unmutated run
CAUGHT = {
    # only the bialgebra law and the comultiplication span catch it here
    "coproduct_doubled": [("a2", 2, 3, {"algebra": (0, 202), "green": (0, 295),
                                        "bialgebra": (20, 45), "antipode": (0, 13),
                                        "spans": (25, 142)})],
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
}


def _counts(quiver, q, max_dim, suites):
    ctx = RepCategory(load_quiver(quiver), q)
    hall = HallAlgebra(ctx)
    out = {}
    for name in suites:
        try:
            rep = verify.run_suite(name, ctx, hall, max_dim, seed=0)
        except ValueError as exc:
            out[name] = (f"ValueError: {exc}", suites[name][1])
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

"""Each mutant of tests/mutants.py against the suites that must catch it."""

import pytest

from hallalg.cli import load_quiver
from hallalg.hall import HallAlgebra
from hallalg.quiver import RepCategory
from hallalg import verify
from mutants import MUTANTS

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

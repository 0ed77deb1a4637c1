"""Named in-process mutants: each a context manager that breaks one function.

`with MUTANTS[name](): ...` runs its body against the mutated library;
tests/test_mutants.py asserts which suites catch each mutant at a small
config, so a change that weakens a check fails the tests.
"""

from contextlib import contextmanager
from unittest import mock

from hallalg import cathall
from hallalg.cathall import SESObject
from hallalg.hall import HallAlgebra
from hallalg.quiver import RepMorphism


def double_mixed_terms(coeffs, zero):
    """A coproduct coefficient dict with every coefficient whose tensor
    factors are both nonzero doubled."""
    return {(ln, lm): c if zero in (ln, lm) else 2 * c for (ln, lm), c in coeffs.items()}


@contextmanager
def coproduct_doubled():
    """HallAlgebra.coproduct_basis with double_mixed_terms applied."""
    coproduct_basis = HallAlgebra.coproduct_basis

    def doubled(self, label_e):
        return double_mixed_terms(coproduct_basis(self, label_e), self.zero_label())

    with mock.patch.object(HallAlgebra, "coproduct_basis", doubled):
        yield


@contextmanager
def glue_sign_dropped():
    """cathall.glue_quotients with the antidiagonal (f1 n, +f2 n): the
    second sequence's inclusion, which only the antidiagonal reads, is
    negated on the way in.  Over F_2 this changes nothing."""
    glue_quotients = cathall.glue_quotients

    def dropped(ctx, s1, s2, Msum):
        neg = RepMorphism(s2.sub, s2.mid, [m.scale(-1) for m in s2.incl.vertex_maps])
        return glue_quotients(ctx, s1, SESObject(s2.sub, s2.mid, s2.quo, neg, s2.proj), Msum)

    with mock.patch.object(cathall, "glue_quotients", dropped):
        yield


MUTANTS = {"coproduct_doubled": coproduct_doubled, "glue_sign_dropped": glue_sign_dropped}

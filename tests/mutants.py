"""Named in-process mutants: each a context manager that breaks one function.

`with MUTANTS[name](): ...` runs its body against the mutated library;
tests/test_mutants.py asserts which suites catch each mutant at a small
config, so a change that weakens a check fails the tests.
"""

from contextlib import contextmanager
from unittest import mock

from hallalg.hall import HallAlgebra


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


MUTANTS = {"coproduct_doubled": coproduct_doubled}

"""Named in-process mutants: each a context manager that breaks one function.

`with MUTANTS[name](): ...` runs its body against the mutated library;
tests/test_mutants.py asserts which suites catch each mutant at a small
config, so a change that weakens a check fails the tests.
"""

from contextlib import contextmanager
from unittest import mock

from hallalg import cathall, quiver
from hallalg.cathall import SESObject
from hallalg.hall import HallAlgebra
from hallalg.linalg import Matrix
from hallalg.quiver import RepCategory, RepMorphism


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


def drop_low_terms(frame):
    """A frame whose projection rows read x_rest alone, not x_rest - B_rest x_pivots."""
    B, pivots, rest = frame[:3]
    units = Matrix(B.field, [[int(i == j) for i in range(B.rows)] for j in rest],
                   len(rest), B.rows)
    return (B, pivots, rest, units) + frame[4:]


@contextmanager
def frame_low_term_dropped():
    """Subspace and basis frames with drop_low_terms applied: the quotient
    coordinates forget the -B_rest terms of P^-1."""
    subspace_frames, frame = quiver.subspace_frames, RepCategory._frame

    def dropped_subspaces(*args):
        return map(drop_low_terms, subspace_frames(*args))

    def dropped(self, B):
        return drop_low_terms(frame(self, B))

    with mock.patch.object(quiver, "subspace_frames", dropped_subspaces), \
            mock.patch.object(RepCategory, "_frame", dropped):
        yield


def drop_ext_low_terms(comp, reduction):
    """An Ext^1 reduction whose complement rows read x_c alone, not
    x_c - canon_c x_pivots: coboundaries are no longer sent to 0."""
    n = reduction.rows
    units = [[int(i == c) if c in comp else 0 for i in range(n)] for c in range(n)]
    return comp, Matrix(reduction.field, units, n, n)


@contextmanager
def ext_low_term_dropped():
    """RepCategory._ext_complement with drop_ext_low_terms applied."""
    ext_complement = RepCategory._ext_complement

    def dropped(self, M, N):
        return drop_ext_low_terms(*ext_complement(self, M, N))

    with mock.patch.object(RepCategory, "_ext_complement", dropped):
        yield


MUTANTS = {"coproduct_doubled": coproduct_doubled, "glue_sign_dropped": glue_sign_dropped,
           "frame_low_term_dropped": frame_low_term_dropped,
           "ext_low_term_dropped": ext_low_term_dropped}

"""Named in-process mutants: each a context manager that breaks one function.

`with MUTANTS[name](): ...` runs its body against the mutated library;
tests/test_mutants.py asserts which suites catch each mutant at a small
config, so a change that weakens a check fails the tests.
"""

from contextlib import contextmanager
from operator import mul
from unittest import mock

from hallalg import cathall, quiver
from hallalg.cathall import SESObject
from hallalg.hall import HallAlgebra
from hallalg.linalg import Matrix
from hallalg.quiver import IsoClass, RepCategory, RepMorphism, block_inclusion, block_projection


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


@contextmanager
def braid_exponent_swapped():
    """HallAlgebra.braid_coeff with its two grades swapped: q^{-<second, first>}
    for q^{-<first, second>}."""
    braid_coeff = HallAlgebra.braid_coeff

    def swapped(self, grade_first, grade_second, sign=-1):
        return braid_coeff(self, grade_second, grade_first, sign)

    with mock.patch.object(HallAlgebra, "braid_coeff", swapped):
        yield


@contextmanager
def braid_inverse_sign_kept():
    """HallAlgebra.braid_coeff with its sign ignored, so that braid_inverse,
    its one caller with sign=1, reads q^{-<first, second>} for
    q^{<first, second>}: braid then inverse scales [A] (x) [D] by
    q^{-2<A, D>}."""
    braid_coeff = HallAlgebra.braid_coeff

    def kept_sign(self, grade_first, grade_second, sign=-1):
        return braid_coeff(self, grade_first, grade_second)

    with mock.patch.object(HallAlgebra, "braid_coeff", kept_sign):
        yield


@contextmanager
def factorization_bumped():
    """HallAlgebra.factorizations with one extra factorization of P1 =
    d1.1#1 on a2: S2 = d0.1#0 <= P1 with quotient S1 = d1.0#0."""
    factorizations = HallAlgebra.factorizations

    def bumped(self, label):
        out = factorizations(self, label)
        if label == "d1.1#1":
            out = {a: dict(subs) for a, subs in out.items()}
            out["d1.0#0"]["d0.1#0"] += 1
        return out

    with mock.patch.object(HallAlgebra, "factorizations", bumped):
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


@contextmanager
def free_vertex_weight_dropped():
    """RepCategory._free_weights with every weight 1: a census counts each
    subspace tuple of its walk once, not [e_v choose k_v]_q times per free
    vertex v."""
    free_weights = RepCategory._free_weights

    def dropped(self, dim, free):
        return dict.fromkeys(free_weights(self, dim, free), 1)

    with mock.patch.object(RepCategory, "_free_weights", dropped):
        yield


def drop_ext_low_terms(comp, reduction):
    """An Ext^1 reduction whose complement rows read x_c alone, not
    x_c - canon_c x_pivots: coboundaries are no longer sent to 0."""
    n = reduction.rows
    units = [[int(i == c) if c in comp else 0 for i in range(n)] for c in range(n)]
    return comp, Matrix(reduction.field, units, n, n)


@contextmanager
def ext_low_term_dropped():
    """RepCategory.ext_complement with drop_ext_low_terms applied."""
    ext_complement = RepCategory.ext_complement

    def dropped(self, M, N):
        return drop_ext_low_terms(*ext_complement(self, M, N))

    with mock.patch.object(RepCategory, "ext_complement", dropped):
        yield


@contextmanager
def orbits_merged():
    """RepCategory.classify with the last two classes of grade (3, 1) merged
    into one, as if their two orbits were one."""
    classify = RepCategory.classify

    def merged(self, dim):
        classes = classify(self, dim)
        if tuple(dim) != (3, 1):
            return classes
        *rest, a, b = classes
        return rest + [IsoClass(a.dim, a.index, a.rep, a.orbit_size + b.orbit_size, a.aut)]

    with mock.patch.object(RepCategory, "classify", merged):
        yield


@contextmanager
def units_accept_singular():
    """cathall.blocks_invertible with the last vertex block unread: a point of
    an End-subalgebra that is singular only at the last vertex counts as a
    unit."""
    blocks_invertible = cathall.blocks_invertible

    def accepting(point, dims, p):
        return blocks_invertible(point, dims[:-1], p)

    with mock.patch.object(cathall, "blocks_invertible", accepting):
        yield


@contextmanager
def fixed_end_factor_dropped():
    """ExtGroupoid.aut_triples_direct without its q^{dim V} factor: only the
    units of the complement of the fixed-end ideal are counted."""
    aut_triples_direct = cathall.ExtGroupoid.aut_triples_direct

    def dropped(self, ses, fixed, complement):
        return aut_triples_direct(self, ses, fixed, complement) // self.ctx.q ** len(fixed)

    with mock.patch.object(cathall.ExtGroupoid, "aut_triples_direct", dropped):
        yield


@contextmanager
def hexagonator_output_split():
    """cathall.hexagonator_R with its second output, 0 -> z -> E/y -> x -> 0,
    replaced by the split extension 0 -> z -> z (+) x -> x -> 0 of the same
    outer terms."""
    hexagonator_R = cathall.hexagonator_R

    def split(ctx, ses, y, z):
        first, second = hexagonator_R(ctx, ses, y, z)
        E = ctx.direct_sum(z, ses.quo)
        return first, SESObject(z, E, ses.quo, block_inclusion(z, E, (0,) * len(z.dim)),
                                block_projection(E, ses.quo, z.dim))

    with mock.patch.object(cathall, "hexagonator_R", split):
        yield


@contextmanager
def euler_form_bumped():
    """RepCategory.euler_form plus 1 when both dimension vectors are nonzero:
    no longer bilinear."""
    euler_form = RepCategory.euler_form

    def bumped(self, m, n):
        return euler_form(self, m, n) + int(any(m) and any(n))

    with mock.patch.object(RepCategory, "euler_form", bumped):
        yield


@contextmanager
def euler_form_transposed():
    """RepCategory.euler_form with its arrows transposed, sum_v m_v n_v -
    sum_{a: s->t} m_t n_s: the form of the opposite quiver, still bilinear."""
    euler_form = RepCategory.euler_form

    def transposed(self, m, n):
        return euler_form(self, n, m)

    with mock.patch.object(RepCategory, "euler_form", transposed):
        yield


@contextmanager
def canon_rank_weights_reversed():
    """RepCategory.canon_index reading the rank of a flat tuple with the
    grade's weights reversed: sum_i t_i p^i for sum_i t_i p^(width - 1 - i),
    the lex rank of the reversed tuple, so a tuple gets the class of its
    reversal."""
    def reversed_weights(self, dim, flat):
        weights, index_of = self._canon[dim]
        return index_of[sum(map(mul, weights[::-1], flat))]

    with mock.patch.object(RepCategory, "canon_index", reversed_weights):
        yield


@contextmanager
def transporter_inverse_uninverted():
    """RepCategory._generator_actions with each generator standing in for its
    own inverse: a transporter's h^-1 multiplies the generators themselves,
    which differs from h^-1 once some generator on its path is no involution
    (over F_3, or at a vertex of dimension >= 3).  classify reads only the
    actions, so the classes stay as they are."""
    generator_actions = RepCategory._generator_actions

    def uninverted(self, dim, shapes):
        return [(action, v, g, g) for action, v, g, _ in generator_actions(self, dim, shapes)]

    with mock.patch.object(RepCategory, "_generator_actions", uninverted):
        yield


@contextmanager
def extension_class_key_without_proj():
    """RepCategory.extension_class cached per (M, N, E, incl), proj left out of
    the key: a sequence (f, mu g) gets the class of the first (f, g) with the
    same inclusion that was classified on the context."""
    extension_class = RepCategory.extension_class
    cache = {}

    def keyed(self, M, N, E, incl, proj):
        key = (self, M, N, E, incl)
        if key not in cache:
            cache[key] = extension_class(self, M, N, E, incl, proj)
        return cache[key]

    with mock.patch.object(RepCategory, "extension_class", keyed):
        yield


MUTANTS = {"coproduct_doubled": coproduct_doubled, "glue_sign_dropped": glue_sign_dropped,
           "braid_exponent_swapped": braid_exponent_swapped,
           "braid_inverse_sign_kept": braid_inverse_sign_kept,
           "factorization_bumped": factorization_bumped,
           "frame_low_term_dropped": frame_low_term_dropped,
           "free_vertex_weight_dropped": free_vertex_weight_dropped,
           "ext_low_term_dropped": ext_low_term_dropped, "orbits_merged": orbits_merged,
           "units_accept_singular": units_accept_singular,
           "fixed_end_factor_dropped": fixed_end_factor_dropped,
           "hexagonator_output_split": hexagonator_output_split,
           "euler_form_bumped": euler_form_bumped,
           "euler_form_transposed": euler_form_transposed,
           "canon_rank_weights_reversed": canon_rank_weights_reversed,
           "transporter_inverse_uninverted": transporter_inverse_uninverted,
           "extension_class_key_without_proj": extension_class_key_without_proj}

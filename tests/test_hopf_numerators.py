"""The coproduct and the canonical antipode on int numerators over |G_d|,
against the Fraction routes of tests/oracles.py."""

from fractions import Fraction

import pytest

from hallalg.cli import load_quiver
from hallalg.hall import HallAlgebra
from hallalg.quiver import RepCategory
from mutants import coproduct_doubled, double_mixed_terms
from oracles import (antipode_by_fractions, bialgebra_residual_by_fractions, coproduct,
                     coproduct_by_aut)

CONFIGS = [("a2", 2, 3), ("a2", 3, 3), ("a3-source", 3, 4), ("d4", 2, 4)]


def _hall(name, q):
    return HallAlgebra(RepCategory(load_quiver(name), q))


def _exact(coeffs, den):
    return {k: Fraction(v, den) for k, v in coeffs.items()}


@pytest.mark.parametrize("name,q,bound", CONFIGS)
def test_coproduct_numerators_match_fractions(name, q, bound):
    hall = _hall(name, q)
    for cls in hall.ctx.classes_up_to(bound):
        order = hall.grade_order(cls.dim)
        assert order == cls.aut * cls.orbit_size
        got = hall.coproduct_basis(cls.label)
        assert all(type(v) is int for v in got.values())
        assert _exact(got, order) == coproduct_by_aut(hall, cls.label), cls.label
        assert coproduct(hall, {cls.label: 1}) == coproduct_by_aut(hall, cls.label)


@pytest.mark.parametrize("name,q,bound", CONFIGS)
def test_canonical_antipode_matches_fractions(name, q, bound):
    hall = _hall(name, q)
    cache = {}
    for cls in hall.ctx.classes_up_to(bound):
        got = hall.antipode_canonical_basis(cls.label, bound)
        want = antipode_by_fractions(hall, cls.label, bound, cache)
        assert _exact(got, hall.grade_order(cls.dim)) == want, cls.label


@pytest.mark.parametrize("name,q,bound", CONFIGS)
def test_bialgebra_residuals_match_fractions(name, q, bound):
    """Zero on both routes; under the coproduct-doubling mutant, equal and
    nonzero on some pair, which pins the residual's denominator."""
    hall = _hall(name, q)
    pairs = list(hall.ctx.class_tuples(bound, 2))
    for cm, cn in pairs:
        num, den = hall.bialgebra_residual(cm.label, cn.label, bound)
        assert num == {}
        assert bialgebra_residual_by_fractions(
            hall, cm.label, cn.label, bound, lambda le: coproduct_by_aut(hall, le)) == {}
    zero = hall.zero_label()
    nonzero = 0
    with coproduct_doubled():
        for cm, cn in pairs:
            num, den = hall.bialgebra_residual(cm.label, cn.label, bound)
            want = bialgebra_residual_by_fractions(
                hall, cm.label, cn.label, bound,
                lambda le: double_mixed_terms(coproduct_by_aut(hall, le), zero))
            assert _exact(num, den) == want, (cm.label, cn.label)
            nonzero += bool(want)
    assert nonzero > 0


@pytest.mark.parametrize("name,q,bound", CONFIGS + [("a3-linear", 2, 5)])
def test_antipode_times_aut_is_integral(name, q, bound):
    """aut E S([E]) is integral (Xiao), so |G_e| S([E]) is, and the
    recursion's division by the lcm of the sub grade orders is exact."""
    hall = _hall(name, q)
    for cls in hall.ctx.classes_up_to(bound):
        s = hall.antipode_canonical_basis(cls.label, bound)
        assert all(v % cls.orbit_size == 0 for v in s.values()), cls.label

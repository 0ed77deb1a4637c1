from fractions import Fraction

import pytest

from hallalg import groupoids as gpd
from hallalg.verify import suite_engine
from oracles import action_groupoid, finite_sets_groupoid, span_to_json


def test_cardinality_examples():
    d3 = gpd.discrete_groupoid(3)
    d3.validate()
    assert d3.cardinality() == 3 == d3.cardinality_alt()
    z2 = gpd.group_groupoid(gpd.cyclic_table(2))
    z2.validate()
    assert z2.cardinality() == Fraction(1, 2) == z2.cardinality_alt()


def test_finite_sets_truncations():
    fs5 = finite_sets_groupoid(5)
    assert fs5.cardinality() == Fraction(163, 60)
    assert fs5.cardinality_alt() == Fraction(163, 60)
    fs8 = finite_sets_groupoid(8)
    assert fs8.cardinality() == Fraction(109601, 40320)
    assert fs8.cardinality_alt() == Fraction(109601, 40320)


def test_cardinality_formulas_agree_everywhere():
    rng = gpd.RandomGroupoids(13)
    for _ in range(20):
        G = rng.groupoid()
        assert G.cardinality() == G.cardinality_alt()


def test_equivalence_examples():
    G = gpd.connected_groupoid(2, gpd.cyclic_table(3))
    G.validate()
    H = gpd.group_groupoid(gpd.cyclic_table(3))
    assert gpd.equivalent(G, G)
    assert gpd.equivalent(G, H)
    assert G.cardinality() == H.cardinality() == Fraction(1, 3)
    assert not gpd.equivalent(gpd.discrete_groupoid(2),
                              gpd.group_groupoid(gpd.cyclic_table(2)))


def test_action_groupoid_examples():
    triv = action_groupoid(3, gpd.cyclic_table(1), [[0, 1, 2]])
    assert triv.cardinality() == 3
    free = action_groupoid(2, gpd.cyclic_table(2), [[0, 1], [1, 0]])
    free.validate()
    assert free.cardinality() == 1
    fixed = action_groupoid(1, gpd.cyclic_table(2), [[0], [0]])
    assert fixed.cardinality() == Fraction(1, 2)


def test_action_groupoid_orbit_stabilizer():
    # Z/2 x Z/2-like table acting on 4 points with mixed orbit sizes
    z4 = gpd.cyclic_table(4)
    action = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
    G = action_groupoid(4, z4, action)
    G.validate()
    assert G.cardinality() == 1  # free orbit of size 4 under Z/4
    stabs = sum(Fraction(1, G.aut_order(x)) for x, _, _ in G.iso_classes())
    assert stabs == G.cardinality()


def test_action_groupoid_rejects_bad_tables():
    # the generator squares to the identity but acts non-invertibly
    with pytest.raises(gpd.GroupoidFormatError):
        action_groupoid(2, gpd.cyclic_table(2), [[0, 1], [1, 1]])
    with pytest.raises(gpd.GroupoidFormatError):
        action_groupoid(2, [[0, 1], [1, 1]], [[0, 1], [1, 0]])
    # the trivial action of a nontrivial group is fine
    G = action_groupoid(2, gpd.cyclic_table(2), [[0, 1], [0, 1]])
    G.validate()
    assert G.cardinality() == 1


def test_weak_pullback_discrete_is_fibered_product():
    A, B, X = (gpd.discrete_groupoid(n) for n in (3, 2, 2))
    f = gpd.GroupoidFunctor(A, X, [0, 1, 0], [0, 1, 0])
    g = gpd.GroupoidFunctor(B, X, [0, 1], [0, 1])
    P, piA, piB = gpd.weak_pullback(f, g)
    P.validate()
    piA.validate()
    piB.validate()
    assert P.is_discrete()
    assert P.n_objects() == 3  # pairs with equal image


def test_weak_pullback_along_identity_is_equivalent():
    G = gpd.connected_groupoid(2, gpd.cyclic_table(4))
    ident = gpd.GroupoidFunctor.identity(G)
    P, _, _ = gpd.weak_pullback(ident, ident)
    assert gpd.equivalent(P, G)
    assert P.cardinality() == G.cardinality()


def test_weak_pullback_two_groups_over_group():
    a = gpd.group_groupoid(gpd.cyclic_table(2))
    b = gpd.group_groupoid(gpd.cyclic_table(2))
    n = gpd.group_groupoid(gpd.cyclic_table(4))
    fa = gpd.GroupoidFunctor(a, n, [0], [0, 2])
    fb = gpd.GroupoidFunctor(b, n, [0], [0, 2])
    fa.validate()
    fb.validate()
    P, _, _ = gpd.weak_pullback(fa, fb)
    P.validate()
    assert P.n_objects() == 4           # one alpha per element of Aut(n)
    assert P.cardinality() == Fraction(4, 2 * 2)


def test_degroupoidify_vector_examples():
    skel = gpd.group_groupoid(gpd.cyclic_table(4))
    assert gpd.degroupoidify_vector(gpd.GroupoidFunctor.identity(skel)) == \
        {0: Fraction(1)}
    pt = gpd.discrete_groupoid(1)
    two = gpd.discrete_groupoid(2)
    v = gpd.GroupoidFunctor(two, pt, [0, 0], [0, 0])
    assert gpd.degroupoidify_vector(v) == {0: Fraction(2)}
    empty = gpd.discrete_groupoid(0)
    v0 = gpd.GroupoidFunctor(empty, pt, [], [])
    assert gpd.degroupoidify_vector(v0) == {}


def test_degroupoidify_vector_additive_and_scaling():
    pt = gpd.discrete_groupoid(1)
    two = gpd.discrete_groupoid(2)
    v = gpd.GroupoidFunctor(two, pt, [0, 0], [0, 0])
    w = gpd.GroupoidFunctor(gpd.discrete_groupoid(1), pt, [0], [0])
    s = gpd.add_vectors(v, w)
    assert gpd.degroupoidify_vector(s) == {0: Fraction(3)}
    lam = gpd.group_groupoid(gpd.cyclic_table(2))
    scaled = gpd.scale_vector(lam, v)
    assert gpd.degroupoidify_vector(scaled) == {0: Fraction(1)}


def test_degroupoidify_span_examples():
    X = gpd.group_groupoid(gpd.cyclic_table(4))
    ident = gpd.ConcreteSpan.identity(X)
    entries, rows, cols = gpd.degroupoidify_span(ident)
    assert entries == {(0, 0): Fraction(1)}
    # apex with one object of aut order 2 over the trivial object
    pt = gpd.discrete_groupoid(1)
    a = gpd.group_groupoid(gpd.cyclic_table(2))
    leg = gpd.GroupoidFunctor(a, pt, [0], [0, 0])
    span = gpd.ConcreteSpan(a, leg, leg)
    entries, _, _ = gpd.degroupoidify_span(span)
    assert entries == {(0, 0): Fraction(1, 2)}


def test_compose_with_identity_span():
    X = gpd.connected_groupoid(2, gpd.cyclic_table(2))
    ident = gpd.ConcreteSpan.identity(X)
    comp = gpd.compose_spans(ident, ident)
    e, _, _ = gpd.degroupoidify_span(comp)
    ei, _, _ = gpd.degroupoidify_span(ident)
    assert e == ei
    assert gpd.equivalent(comp.apex, X)


def test_functoriality_on_seeded_spans():
    rng = gpd.RandomGroupoids(99)
    for _ in range(10):
        X, Y, Z = rng.groupoid(), rng.groupoid(), rng.groupoid()
        s = rng.span(X, Y)
        t = rng.span(Y, Z)
        s.left.validate()
        s.right.validate()
        t.left.validate()
        t.right.validate()
        ts = gpd.compose_spans(t, s)
        e_ts, _, _ = gpd.degroupoidify_span(ts)
        e_t, _, _ = gpd.degroupoidify_span(t)
        e_s, _, _ = gpd.degroupoidify_span(s)
        assert e_ts == gpd.matrix_product(e_t, e_s)


def test_engine_span_pullbacks_pass_the_groupoid_laws(monkeypatch):
    """Every weak pullback that engine:span:0..9 builds at seed 0, for its span
    composite and its span application, passes the exhaustive law check,
    inverse laws included: the inverse alphas are the ones carried to each
    morphism's target."""
    built = []
    weak_pullback = gpd.weak_pullback

    def recorded(f, g, budget=gpd.DEFAULT_BUDGET):
        out = weak_pullback(f, g, budget=budget)
        built.append(out[0])
        return out
    monkeypatch.setattr(gpd, "weak_pullback", recorded)
    for k in range(10):
        report = suite_engine(0, only=f"engine:span:{k}")
        assert (report["instances"], report["failures"]) == (1, [])
    assert len(built) == 20
    assert any(P.n_morphisms() > P.n_objects() for P in built)
    for P in built:
        assert P.validate()


def test_apply_span_matches_matrix():
    rng = gpd.RandomGroupoids(5)
    X, Y = rng.groupoid(), rng.groupoid()
    s = rng.span(X, Y)
    psi = rng.span(X, X).left
    applied = gpd.apply_span(s, psi)
    e_s, _, _ = gpd.degroupoidify_span(s)
    assert gpd.degroupoidify_vector(applied) == \
        gpd.apply_matrix(e_s, gpd.degroupoidify_vector(psi))


def test_groupoid_json_round_trip():
    G = gpd.connected_groupoid(2, gpd.cyclic_table(3))
    doc = gpd.groupoid_to_json(G)
    G2 = gpd.groupoid_from_json(doc)
    assert G2.cardinality() == G.cardinality()
    assert gpd.groupoid_to_json(G2) == doc


def test_groupoid_json_diagnostics():
    with pytest.raises(gpd.GroupoidFormatError, match="objects"):
        gpd.groupoid_from_json({"morphisms": [], "compose": []})
    with pytest.raises(gpd.GroupoidFormatError, match="morphisms\\[0\\]"):
        gpd.groupoid_from_json({"objects": 1, "morphisms": [{"src": 0}],
                                "compose": [[0]]})
    # a compose table breaking associativity is rejected
    bad = {"objects": 1,
           "morphisms": [{"src": 0, "tgt": 0}, {"src": 0, "tgt": 0},
                         {"src": 0, "tgt": 0}],
           "compose": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]}
    with pytest.raises(gpd.GroupoidFormatError):
        gpd.groupoid_from_json(bad)


def test_span_json_round_trip():
    pt = gpd.discrete_groupoid(1)
    a = gpd.group_groupoid(gpd.cyclic_table(2))
    leg = gpd.GroupoidFunctor(a, pt, [0], [0, 0])
    span = gpd.ConcreteSpan(a, leg, leg)
    doc = span_to_json(span)
    back = gpd.span_from_json(doc)
    e, _, _ = gpd.degroupoidify_span(back)
    assert e == {(0, 0): Fraction(1, 2)}
    assert span_to_json(back) == doc


def test_validate_rejects_broken_functor():
    G = gpd.group_groupoid(gpd.cyclic_table(2))
    H = gpd.group_groupoid(gpd.cyclic_table(3))
    bad = gpd.GroupoidFunctor(G, H, [0], [0, 1])  # not a group hom
    with pytest.raises(gpd.GroupoidFormatError):
        bad.validate()

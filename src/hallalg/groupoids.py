"""Explicit finite groupoids: cardinality, spans, weak pullbacks,
and degroupoidification to exact rational matrices.

Groupoids here are fully concrete: indexed objects, indexed morphisms,
identity and inverse assignments, and a composition rule (a table for
small groupoids, a label-driven function for the big factorial ones,
where materializing the table would be absurd).  Cardinality and the
degroupoidification formulas only ever need endpoints and counts, so
they work for both.
"""

from fractions import Fraction
import random

from .linalg import DEFAULT_BUDGET, check_budget


class GroupoidFormatError(ValueError):
    """Malformed groupoid/functor/span document; message names the field."""


class ConcreteGroupoid:
    """Objects, morphisms with endpoints, identities, inverses, composition."""

    def __init__(self, objects, morphisms, identity, inverse, compose):
        """morphisms: list of (src, tgt, label); labels must be unique.

        compose: either a dict {(g_idx, f_idx): h_idx} or a callable
        (g_idx, f_idx) -> h_idx, defined exactly for tgt(f) == src(g).
        """
        self.objects = list(objects)
        self.mor_src = tuple(m[0] for m in morphisms)
        self.mor_tgt = tuple(m[1] for m in morphisms)
        self.mor_label = tuple(m[2] for m in morphisms)
        self.identity = tuple(identity)
        self.inverse = tuple(inverse)
        self._mor_index = {}
        for i, lab in enumerate(self.mor_label):
            if lab in self._mor_index:
                raise GroupoidFormatError(f"duplicate morphism label {lab!r}")
            self._mor_index[lab] = i
        if isinstance(compose, dict):
            self._compose_fn = lambda g, f: compose[(g, f)]
        else:
            self._compose_fn = compose
        self._by_source = {}
        self._by_pair = {}
        for i in range(len(self.mor_src)):
            self._by_source.setdefault(self.mor_src[i], []).append(i)
            self._by_pair.setdefault((self.mor_src[i], self.mor_tgt[i]), []).append(i)
        self._classes = None

    # ---- basic structure ---------------------------------------------------

    def n_objects(self):
        return len(self.objects)

    def n_morphisms(self):
        return len(self.mor_src)

    def morphism_index(self, label):
        return self._mor_index[label]

    def compose(self, g, f):
        """Index of g after f; requires tgt(f) == src(g)."""
        if self.mor_tgt[f] != self.mor_src[g]:
            raise ValueError("morphisms are not composable")
        return self._compose_fn(g, f)

    def hom(self, x, y):
        return self._by_pair.get((x, y), [])

    def mor_from(self, x):
        return self._by_source.get(x, [])

    def aut_order(self, x):
        return len(self.hom(x, x))

    def is_discrete(self):
        return all(self.mor_src[i] == self.mor_tgt[i] for i in range(self.n_morphisms())) \
            and self.n_morphisms() == self.n_objects()

    # ---- laws (exhaustive, budget-gated) ------------------------------------

    def validate(self, budget=DEFAULT_BUDGET):
        n, m = self.n_objects(), self.n_morphisms()
        if len(self.identity) != n or len(self.inverse) != m:
            raise GroupoidFormatError("identity/inverse assignment length mismatch")
        for x in range(n):
            e = self.identity[x]
            if self.mor_src[e] != x or self.mor_tgt[e] != x:
                raise GroupoidFormatError(f"identity of object {x} has wrong endpoints")
        pairs = [(g, f) for f in range(m) for g in self.mor_from(self.mor_tgt[f])]
        check_budget("groupoid law check (composable pairs)", len(pairs), budget)
        for g, f in pairs:
            h = self.compose(g, f)
            if self.mor_src[h] != self.mor_src[f] or self.mor_tgt[h] != self.mor_tgt[g]:
                raise GroupoidFormatError(f"composition of {g} after {f} has wrong endpoints")
        for f in range(m):
            x, y = self.mor_src[f], self.mor_tgt[f]
            if self.compose(f, self.identity[x]) != f or self.compose(self.identity[y], f) != f:
                raise GroupoidFormatError(f"identity law fails at morphism {f}")
            inv = self.inverse[f]
            if self.mor_src[inv] != y or self.mor_tgt[inv] != x:
                raise GroupoidFormatError(f"inverse of {f} has wrong endpoints")
            if self.compose(inv, f) != self.identity[x] or self.compose(f, inv) != self.identity[y]:
                raise GroupoidFormatError(f"inverse law fails at morphism {f}")
        triples = 0
        for f in range(m):
            for g in self.mor_from(self.mor_tgt[f]):
                triples += len(self.mor_from(self.mor_tgt[g]))
        check_budget("groupoid law check (composable triples)", triples, budget)
        for f in range(m):
            for g in self.mor_from(self.mor_tgt[f]):
                gf = self.compose(g, f)
                for h in self.mor_from(self.mor_tgt[g]):
                    if self.compose(h, gf) != self.compose(self.compose(h, g), f):
                        raise GroupoidFormatError(
                            f"associativity fails on morphisms ({h},{g},{f})")
        return True

    # ---- cardinality ----------------------------------------------------------

    def iso_class_partition(self):
        """Connected components under 'some morphism exists', as index lists."""
        if self._classes is not None:
            return self._classes
        parent = list(range(self.n_objects()))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i in range(self.n_morphisms()):
            a, b = find(self.mor_src[i]), find(self.mor_tgt[i])
            if a != b:
                parent[a] = b
        groups = {}
        for x in range(self.n_objects()):
            groups.setdefault(find(x), []).append(x)
        self._classes = [sorted(v) for _, v in sorted(groups.items())]
        return self._classes

    def iso_classes(self):
        """[(representative index, class size, aut order)] per iso class."""
        return [(cls[0], len(cls), self.aut_order(cls[0]))
                for cls in self.iso_class_partition()]

    def cardinality(self):
        """Sum over iso classes of 1/|Aut(x)|."""
        total = Fraction(0)
        for rep, _, aut in self.iso_classes():
            total += Fraction(1, aut)
        return total

    def cardinality_alt(self):
        """Sum over all objects of 1/|Mor(x, -)|."""
        total = Fraction(0)
        for x in range(self.n_objects()):
            total += Fraction(1, len(self.mor_from(x)))
        return total


def equivalent(G, H):
    """Equivalence at the level every cardinality claim consumes:

    a bijection of iso classes matching automorphism-group orders.
    """
    gs = sorted(aut for _, _, aut in G.iso_classes())
    hs = sorted(aut for _, _, aut in H.iso_classes())
    return gs == hs


def group_tables_isomorphic(t1, t2, max_order=16):
    """Exhaustive bijection search for small multiplication tables.

    Returns True/False, or None when the order exceeds max_order and the
    search is skipped (callers record that gap).
    """
    n = len(t1)
    if n != len(t2):
        return False
    if n > max_order:
        return None
    e1 = next(i for i in range(n) if all(t1[i][j] == j for j in range(n)))
    e2 = next(i for i in range(n) if all(t2[i][j] == j for j in range(n)))
    order1 = [_element_order(t1, e1, i) for i in range(n)]
    order2 = [_element_order(t2, e2, i) for i in range(n)]
    if sorted(order1) != sorted(order2):
        return False

    assign = [None] * n
    used = [False] * n
    assign[e1] = e2
    used[e2] = True

    def backtrack(pos):
        while pos < n and assign[pos] is not None:
            pos += 1
        if pos == n:
            return all(assign[t1[a][b]] == t2[assign[a]][assign[b]]
                       for a in range(n) for b in range(n))
        for j in range(n):
            if used[j] or order1[pos] != order2[j]:
                continue
            ok = True
            for a in range(n):
                if assign[a] is None:
                    continue
                c = t1[a][pos]
                if assign[c] is not None and assign[c] != t2[assign[a]][j]:
                    ok = False
                    break
                c = t1[pos][a]
                if assign[c] is not None and assign[c] != t2[j][assign[a]]:
                    ok = False
                    break
            if not ok:
                continue
            assign[pos] = j
            used[j] = True
            if backtrack(pos + 1):
                return True
            assign[pos] = None
            used[j] = False
        return False

    return backtrack(0)


def _element_order(table, e, i):
    k = 1
    cur = i
    while cur != e:
        cur = table[cur][i]
        k += 1
    return k


# ---- constructors -------------------------------------------------------------


def discrete_groupoid(n):
    morphisms = [(i, i, i) for i in range(n)]
    return ConcreteGroupoid(list(range(n)), morphisms,
                            identity=list(range(n)), inverse=list(range(n)),
                            compose={(i, i): i for i in range(n)})


def group_groupoid(mul_table):
    """One object whose automorphisms follow the given multiplication table."""
    n = len(mul_table)
    _validate_group_table(mul_table)
    e = _table_identity(mul_table)
    inverse = [next(j for j in range(n) if mul_table[i][j] == e) for i in range(n)]
    morphisms = [(0, 0, i) for i in range(n)]
    return ConcreteGroupoid([0], morphisms, identity=[e], inverse=inverse,
                            compose=lambda g, f: mul_table[g][f])


def connected_groupoid(n_objects, mul_table):
    """n isomorphic objects, hom-sets torsors over the given group."""
    k = len(mul_table)
    _validate_group_table(mul_table)
    e = _table_identity(mul_table)
    inv = [next(j for j in range(k) if mul_table[i][j] == e) for i in range(k)]
    labels = []
    for i in range(n_objects):
        for j in range(n_objects):
            for g in range(k):
                labels.append((i, j, g))
    index = {lab: idx for idx, lab in enumerate(labels)}
    morphisms = [(i, j, (i, j, g)) for (i, j, g) in labels]
    identity = [index[(i, i, e)] for i in range(n_objects)]
    inverse = [index[(j, i, inv[g])] for (i, j, g) in labels]

    def compose(gm, fm):
        i1, j1, g1 = labels[fm]
        i2, j2, g2 = labels[gm]
        return index[(i1, j2, mul_table[g2][g1])]

    return ConcreteGroupoid(list(range(n_objects)), morphisms, identity, inverse, compose)


def cyclic_table(k):
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def _table_identity(mul_table):
    n = len(mul_table)
    for i in range(n):
        if all(mul_table[i][j] == j and mul_table[j][i] == j for j in range(n)):
            return i
    raise GroupoidFormatError("multiplication table has no identity")


def _validate_group_table(mul_table):
    n = len(mul_table)
    for row in mul_table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise GroupoidFormatError("multiplication table is not square over range(n)")
    e = _table_identity(mul_table)
    for i in range(n):
        if not any(mul_table[i][j] == e for j in range(n)):
            raise GroupoidFormatError(f"element {i} has no inverse")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul_table[mul_table[a][b]][c] != mul_table[a][mul_table[b][c]]:
                    raise GroupoidFormatError("multiplication table is not associative")
    return e


def finite_sets_groupoid(n_max):
    """Sets {0..n} for n <= n_max, with bijections; composition by rule.

    The composition table is never materialized; labels are permutation
    tuples and composition acts on them directly.
    """
    import itertools
    objects = list(range(n_max + 1))
    labels = []
    for n in objects:
        for perm in itertools.permutations(range(n)):
            labels.append((n, perm))
    index = {lab: i for i, lab in enumerate(labels)}
    morphisms = [(n, n, (n, perm)) for (n, perm) in labels]
    identity = [index[(n, tuple(range(n)))] for n in objects]
    inverse = []
    for n, perm in labels:
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        inverse.append(index[(n, tuple(inv))])

    def compose(g, f):
        n, pf = labels[f]
        _, pg = labels[g]
        return index[(n, tuple(pg[pf[i]] for i in range(n)))]

    return ConcreteGroupoid(objects, morphisms, identity, inverse, compose)


def action_groupoid(set_size, mul_table, action):
    """Weak quotient X // G: objects are set elements, morphisms are (g, x).

    action[g][x] is the image of x under g; the table is checked to be a
    genuine group action before anything is built.
    """
    k = len(mul_table)
    e = _validate_group_table(mul_table)
    if len(action) != k or any(len(row) != set_size for row in action):
        raise GroupoidFormatError("action table shape mismatch")
    for x in range(set_size):
        if action[e][x] != x:
            raise GroupoidFormatError("identity does not act trivially")
    for g in range(k):
        for h in range(k):
            for x in range(set_size):
                if action[mul_table[g][h]][x] != action[g][action[h][x]]:
                    raise GroupoidFormatError("action is not compatible with multiplication")
    inv = [next(j for j in range(k) if mul_table[i][j] == e) for i in range(k)]
    labels = [(g, x) for g in range(k) for x in range(set_size)]
    index = {lab: i for i, lab in enumerate(labels)}
    morphisms = [(x, action[g][x], (g, x)) for (g, x) in labels]
    identity = [index[(e, x)] for x in range(set_size)]
    inverse = [index[(inv[g], action[g][x])] for (g, x) in labels]

    def compose(gm, fm):
        g1, x1 = labels[fm]
        g2, _ = labels[gm]
        return index[(mul_table[g2][g1], x1)]

    return ConcreteGroupoid(list(range(set_size)), morphisms, identity, inverse, compose)


def product_groupoid(G, H):
    """Cartesian product; componentwise composition."""
    objects = [(a, b) for a in range(G.n_objects()) for b in range(H.n_objects())]
    obj_index = {o: i for i, o in enumerate(objects)}
    labels = [(i, j) for i in range(G.n_morphisms()) for j in range(H.n_morphisms())]
    index = {lab: i for i, lab in enumerate(labels)}
    morphisms = [(obj_index[(G.mor_src[i], H.mor_src[j])],
                  obj_index[(G.mor_tgt[i], H.mor_tgt[j])], (i, j))
                 for (i, j) in labels]
    identity = [index[(G.identity[a], H.identity[b])] for (a, b) in objects]
    inverse = [index[(G.inverse[i], H.inverse[j])] for (i, j) in labels]

    def compose(gm, fm):
        i1, j1 = labels[fm]
        i2, j2 = labels[gm]
        return index[(G.compose(i2, i1), H.compose(j2, j1))]

    P = ConcreteGroupoid(objects, morphisms, identity, inverse, compose)
    pi1 = GroupoidFunctor(P, G, [o[0] for o in objects], [l[0] for l in labels])
    pi2 = GroupoidFunctor(P, H, [o[1] for o in objects], [l[1] for l in labels])
    return P, pi1, pi2


def coproduct_groupoid(G, H):
    """Disjoint union, with the two inclusion functors."""
    ng, mg = G.n_objects(), G.n_morphisms()
    objects = [("L", o) for o in G.objects] + [("R", o) for o in H.objects]
    morphisms = [(G.mor_src[i], G.mor_tgt[i], ("L", i)) for i in range(mg)] + \
                [(H.mor_src[j] + ng, H.mor_tgt[j] + ng, ("R", j))
                 for j in range(H.n_morphisms())]
    identity = list(G.identity) + [H.identity[o] + mg for o in range(H.n_objects())]
    inverse = list(G.inverse) + [H.inverse[j] + mg for j in range(H.n_morphisms())]

    def compose(gm, fm):
        if fm < mg:
            return G.compose(gm, fm)
        return H.compose(gm - mg, fm - mg) + mg

    P = ConcreteGroupoid(objects, morphisms, identity, inverse, compose)
    injL = GroupoidFunctor(G, P, list(range(ng)), list(range(mg)))
    injR = GroupoidFunctor(H, P, [o + ng for o in range(H.n_objects())],
                           [j + mg for j in range(H.n_morphisms())])
    return P, injL, injR


# ---- functors and spans ----------------------------------------------------------


class GroupoidFunctor:
    """Object map plus morphism map between concrete groupoids."""

    def __init__(self, source, target, obj_map, mor_map):
        self.source = source
        self.target = target
        self.obj_map = tuple(obj_map)
        self.mor_map = tuple(mor_map)
        if len(self.obj_map) != source.n_objects():
            raise GroupoidFormatError("functor object map length mismatch")
        if len(self.mor_map) != source.n_morphisms():
            raise GroupoidFormatError("functor morphism map length mismatch")

    @classmethod
    def identity(cls, G):
        return cls(G, G, list(range(G.n_objects())), list(range(G.n_morphisms())))

    def validate(self, budget=DEFAULT_BUDGET):
        S, T = self.source, self.target
        for i in range(S.n_morphisms()):
            if T.mor_src[self.mor_map[i]] != self.obj_map[S.mor_src[i]] or \
               T.mor_tgt[self.mor_map[i]] != self.obj_map[S.mor_tgt[i]]:
                raise GroupoidFormatError(f"functor breaks endpoints at morphism {i}")
        for x in range(S.n_objects()):
            if self.mor_map[S.identity[x]] != T.identity[self.obj_map[x]]:
                raise GroupoidFormatError(f"functor breaks identity at object {x}")
        pairs = [(g, f) for f in range(S.n_morphisms())
                 for g in S.mor_from(S.mor_tgt[f])]
        check_budget("functor law check (composable pairs)", len(pairs), budget)
        for g, f in pairs:
            if self.mor_map[S.compose(g, f)] != T.compose(self.mor_map[g], self.mor_map[f]):
                raise GroupoidFormatError(f"functor breaks composition at ({g},{f})")
        return True

    def compose_with(self, inner):
        """self after inner."""
        if inner.target is not self.source:
            raise ValueError("functor composition endpoint mismatch")
        return GroupoidFunctor(inner.source, self.target,
                               [self.obj_map[o] for o in inner.obj_map],
                               [self.mor_map[m] for m in inner.mor_map])


class ConcreteSpan:
    """A span from X to Y: apex with a left leg to Y and a right leg to X."""

    def __init__(self, apex, left, right):
        if left.source is not apex or right.source is not apex:
            raise ValueError("span legs must share the apex")
        self.apex = apex
        self.left = left      # apex -> Y
        self.right = right    # apex -> X

    @property
    def foot_left(self):
        return self.left.target

    @property
    def foot_right(self):
        return self.right.target

    @classmethod
    def identity(cls, X):
        ident = GroupoidFunctor.identity(X)
        return cls(X, ident, ident)


def weak_pullback(f, g, budget=DEFAULT_BUDGET):
    """Weak pullback of f: A -> X and g: B -> X.

    Objects are triples (a, b, alpha) with alpha: f(a) -> g(b) in X;
    morphisms are pairs (u, v) whose square commutes, one per source
    alpha.  Returns (P, pi_A, pi_B), objects ordered by (a, b, alpha).
    """
    if f.target is not g.target:
        raise ValueError("weak pullback needs a common codomain")
    A, B, X = f.source, g.source, f.target
    objects = []
    for a in range(A.n_objects()):
        for b in range(B.n_objects()):
            for alpha in X.hom(f.obj_map[a], g.obj_map[b]):
                objects.append((a, b, alpha))
    obj_index = {o: i for i, o in enumerate(objects)}
    n_mor = 0
    for (a, b, alpha) in objects:
        n_mor += len(A.mor_from(a)) * len(B.mor_from(b))
    check_budget("weak pullback morphisms", n_mor, budget)
    labels = []
    morphisms = []
    for (a, b, alpha) in objects:
        for u in A.mor_from(a):
            fu_inv = X.inverse[f.mor_map[u]]
            for v in B.mor_from(b):
                alpha2 = X.compose(X.compose(g.mor_map[v], alpha), fu_inv)
                src = obj_index[(a, b, alpha)]
                tgt = obj_index[(A.mor_tgt[u], B.mor_tgt[v], alpha2)]
                labels.append((u, v, alpha))
                morphisms.append((src, tgt, (u, v, alpha)))
    index = {lab: i for i, lab in enumerate(labels)}
    identity = [index[(A.identity[a], B.identity[b], alpha)]
                for (a, b, alpha) in objects]
    inverse = []
    for (u, v, alpha) in labels:
        fu_inv = X.inverse[f.mor_map[u]]
        alpha2 = X.compose(X.compose(g.mor_map[v], alpha), fu_inv)
        inverse.append(index[(A.inverse[u], B.inverse[v], alpha2)])

    def compose(gm, fm):
        u1, v1, alpha1 = labels[fm]
        u2, v2, _ = labels[gm]
        return index[(A.compose(u2, u1), B.compose(v2, v1), alpha1)]

    P = ConcreteGroupoid(objects, morphisms, identity, inverse, compose)
    pi_A = GroupoidFunctor(P, A, [o[0] for o in objects], [l[0] for l in labels])
    pi_B = GroupoidFunctor(P, B, [o[1] for o in objects], [l[1] for l in labels])
    return P, pi_A, pi_B


def apply_span(span, vector, budget=DEFAULT_BUDGET):
    """Apply a span from X to Y to a groupoid over X; result is over Y."""
    if vector.target is not span.foot_right:
        raise ValueError("vector is not over the span's right foot")
    P, pi_S, _ = weak_pullback(span.right, vector, budget=budget)
    return span.left.compose_with(pi_S)


def compose_spans(t, s, budget=DEFAULT_BUDGET):
    """Composite of s: X -> Y then t: Y -> Z, by weak pullback over Y."""
    if s.foot_left is not t.foot_right:
        raise ValueError("spans are not composable (feet mismatch)")
    P, pi_T, pi_S = weak_pullback(t.right, s.left, budget=budget)
    return ConcreteSpan(P, t.left.compose_with(pi_T), s.right.compose_with(pi_S))


def add_spans(s1, s2):
    """Disjoint union of apexes over the same feet."""
    if s1.foot_left is not s2.foot_left or s1.foot_right is not s2.foot_right:
        raise ValueError("span addition needs identical feet")
    P, injL, injR = coproduct_groupoid(s1.apex, s2.apex)
    left = _copair(P, injL, injR, s1.left, s2.left)
    right = _copair(P, injL, injR, s1.right, s2.right)
    return ConcreteSpan(P, left, right)


def _copair(P, injL, injR, fL, fR):
    obj_map = [0] * P.n_objects()
    mor_map = [0] * P.n_morphisms()
    for o in range(fL.source.n_objects()):
        obj_map[injL.obj_map[o]] = fL.obj_map[o]
    for o in range(fR.source.n_objects()):
        obj_map[injR.obj_map[o]] = fR.obj_map[o]
    for m in range(fL.source.n_morphisms()):
        mor_map[injL.mor_map[m]] = fL.mor_map[m]
    for m in range(fR.source.n_morphisms()):
        mor_map[injR.mor_map[m]] = fR.mor_map[m]
    return GroupoidFunctor(P, fL.target, obj_map, mor_map)


def scale_span(lam, s):
    """Multiply a span by a scalar groupoid: apex becomes lam x apex."""
    P, _, pi2 = product_groupoid(lam, s.apex)
    return ConcreteSpan(P, s.left.compose_with(pi2), s.right.compose_with(pi2))


def scale_vector(lam, v):
    P, _, pi2 = product_groupoid(lam, v.source)
    return v.compose_with(pi2)


def add_vectors(v1, v2):
    if v1.target is not v2.target:
        raise ValueError("vector addition needs the same base")
    P, injL, injR = coproduct_groupoid(v1.source, v2.source)
    return _copair(P, injL, injR, v1, v2)


# ---- degroupoidification ----------------------------------------------------------


def degroupoidify_vector(v):
    """The vector of a groupoid over X: [x] -> |Aut(x)| * |v^{-1}(x)|.

    Keys are the representative object indices of X's iso classes.
    """
    X = v.target
    psi_classes = v.source.iso_classes()
    x_classes = X.iso_classes()
    class_of = _class_rep_map(X)
    out = {rep: Fraction(0) for rep, _, _ in x_classes}
    for rep, _, aut in psi_classes:
        target_rep = class_of[v.obj_map[rep]]
        out[target_rep] += Fraction(1, aut)
    return {rep: X.aut_order(rep) * val for rep, val in out.items() if val}


def degroupoidify_span(span):
    """Matrix of a span: entry [y][x] = sum over apex classes of |Aut y| / |Aut s|.

    Returns (entries dict keyed by (y_rep, x_rep), row reps, col reps).
    """
    Y, X, S = span.foot_left, span.foot_right, span.apex
    y_classes = [rep for rep, _, _ in Y.iso_classes()]
    x_classes = [rep for rep, _, _ in X.iso_classes()]
    y_of = _class_rep_map(Y)
    x_of = _class_rep_map(X)
    entries = {}
    for rep, _, aut in S.iso_classes():
        yrep = y_of[span.left.obj_map[rep]]
        xrep = x_of[span.right.obj_map[rep]]
        key = (yrep, xrep)
        entries[key] = entries.get(key, Fraction(0)) + Fraction(Y.aut_order(yrep), aut)
    return entries, y_classes, x_classes


def _class_rep_map(G):
    out = {}
    for cls in G.iso_class_partition():
        for o in cls:
            out[o] = cls[0]
    return out


def apply_matrix(entries, vec):
    """Multiply a degroupoidified span matrix by a degroupoidified vector."""
    out = {}
    for (y, x), m in entries.items():
        if x in vec:
            out[y] = out.get(y, Fraction(0)) + m * vec[x]
    return {k: v for k, v in out.items() if v}


def matrix_product(e1, e2):
    """Compose matrices given as {(row, mid)} and {(mid, col)} entry dicts."""
    out = {}
    for (y, m1), a in e1.items():
        for (m2, x), b in e2.items():
            if m1 == m2:
                key = (y, x)
                out[key] = out.get(key, Fraction(0)) + a * b
    return {k: v for k, v in out.items() if v}


# ---- JSON round trip ----------------------------------------------------------------


def groupoid_to_json(G, budget=DEFAULT_BUDGET):
    m = G.n_morphisms()
    check_budget("composition table export", m * m, budget)
    table = [[None] * m for _ in range(m)]
    for f in range(m):
        for g in G.mor_from(G.mor_tgt[f]):
            table[g][f] = G.compose(g, f)
    return {
        "objects": G.n_objects(),
        "morphisms": [{"src": G.mor_src[i], "tgt": G.mor_tgt[i]} for i in range(m)],
        "compose": table,
    }


def groupoid_from_json(doc, validate=True):
    if not isinstance(doc, dict):
        raise GroupoidFormatError("groupoid document must be an object")
    for field in ("objects", "morphisms", "compose"):
        if field not in doc:
            raise GroupoidFormatError(f'missing field "{field}"')
    n = doc["objects"]
    if not isinstance(n, int) or n < 0:
        raise GroupoidFormatError('"objects" must be a nonnegative integer')
    mors = doc["morphisms"]
    m = len(mors)
    src, tgt = [], []
    for i, item in enumerate(mors):
        if not isinstance(item, dict) or "src" not in item or "tgt" not in item:
            raise GroupoidFormatError(f'morphisms[{i}] needs "src" and "tgt"')
        s, t = item["src"], item["tgt"]
        if not (0 <= s < n and 0 <= t < n):
            raise GroupoidFormatError(f"morphisms[{i}] endpoints out of range")
        src.append(s)
        tgt.append(t)
    table = doc["compose"]
    if len(table) != m or any(len(row) != m for row in table):
        raise GroupoidFormatError('"compose" must be an m x m table')
    comp = {}
    for g in range(m):
        for f in range(m):
            h = table[g][f]
            if tgt[f] == src[g]:
                if not isinstance(h, int) or not (0 <= h < m):
                    raise GroupoidFormatError(
                        f"compose[{g}][{f}] must be a morphism index")
                comp[(g, f)] = h
            elif h is not None:
                raise GroupoidFormatError(
                    f"compose[{g}][{f}] defined for non-composable pair")
    identity = _derive_identities(n, m, src, tgt, comp)
    inverse = _derive_inverses(n, m, src, tgt, comp, identity)
    G = ConcreteGroupoid(list(range(n)),
                         [(src[i], tgt[i], i) for i in range(m)],
                         identity, inverse, comp)
    if validate:
        G.validate()
    return G


def _derive_identities(n, m, src, tgt, comp):
    identity = []
    for x in range(n):
        found = None
        for e in range(m):
            if src[e] != x or tgt[e] != x:
                continue
            if all(comp[(e, f)] == f for f in range(m) if tgt[f] == x) and \
               all(comp[(f, e)] == f for f in range(m) if src[f] == x):
                found = e
                break
        if found is None:
            raise GroupoidFormatError(f"object {x} has no identity morphism")
        identity.append(found)
    return identity


def _derive_inverses(n, m, src, tgt, comp, identity):
    inverse = []
    for f in range(m):
        found = None
        for g in range(m):
            if src[g] == tgt[f] and tgt[g] == src[f] and \
               comp[(g, f)] == identity[src[f]] and comp[(f, g)] == identity[tgt[f]]:
                found = g
                break
        if found is None:
            raise GroupoidFormatError(f"morphism {f} has no inverse")
        inverse.append(found)
    return inverse


def functor_to_json(fun):
    return {"objects": list(fun.obj_map), "morphisms": list(fun.mor_map)}


def functor_from_json(doc, source, target, validate=True):
    if not isinstance(doc, dict) or "objects" not in doc or "morphisms" not in doc:
        raise GroupoidFormatError('functor document needs "objects" and "morphisms"')
    fun = GroupoidFunctor(source, target, doc["objects"], doc["morphisms"])
    if validate:
        fun.validate()
    return fun


def span_to_json(span):
    return {
        "apex": groupoid_to_json(span.apex),
        "foot_left": groupoid_to_json(span.foot_left),
        "foot_right": groupoid_to_json(span.foot_right),
        "left": functor_to_json(span.left),
        "right": functor_to_json(span.right),
    }


def span_from_json(doc, validate=True):
    for field in ("apex", "foot_left", "foot_right", "left", "right"):
        if field not in doc:
            raise GroupoidFormatError(f'span document missing "{field}"')
    apex = groupoid_from_json(doc["apex"], validate)
    fl = groupoid_from_json(doc["foot_left"], validate)
    fr = groupoid_from_json(doc["foot_right"], validate)
    left = functor_from_json(doc["left"], apex, fl, validate)
    right = functor_from_json(doc["right"], apex, fr, validate)
    return ConcreteSpan(apex, left, right)


# ---- seeded random instances (for property suites) -----------------------------------


class RandomGroupoids:
    """Deterministic generator of small groupoids, functors and spans."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def groupoid(self, max_components=2, max_objects=2, orders=(1, 2, 3, 4)):
        comps = []
        for _ in range(self.rng.randint(1, max_components)):
            m = self.rng.randint(1, max_objects)
            k = self.rng.choice(orders)
            comps.append(connected_groupoid(m, cyclic_table(k)))
        G = comps[0]
        for H in comps[1:]:
            G, _, _ = coproduct_groupoid(G, H)
        return G

    def functor_to(self, G, H):
        """A random functor G -> H; components map via cyclic-group homs."""
        h_comps = H.iso_class_partition()
        obj_map = [0] * G.n_objects()
        mor_map = [0] * G.n_morphisms()
        for comp in G.iso_class_partition():
            rep = comp[0]
            k = G.aut_order(rep)
            # candidate target components: those whose aut order j admits a
            # hom Z_k -> Z_j, i.e. some t with k*t = 0 mod j (t = j/gcd works)
            target_comp = self.rng.choice(h_comps)
            trep = target_comp[0]
            j = H.aut_order(trep)
            valid_t = [t for t in range(j) if (k * t) % j == 0]
            t = self.rng.choice(valid_t)
            g_auts = G.hom(rep, rep)
            h_auts = H.hom(trep, trep)
            # gauge elements per object, in Z_j
            gauge = {o: self.rng.randrange(j) for o in comp}
            target_obj = {o: self.rng.choice(target_comp) for o in comp}
            # hom(o1, o2) in a cyclic connected component: express a morphism
            # as (path via rep) to read off its group element
            for o in comp:
                obj_map[o] = target_obj[o]
            base = {o: G.hom(rep, o)[0] for o in comp}
            h_base = {o: H.hom(trep, target_obj[o])[0] for o in comp}
            for mi in range(G.n_morphisms()):
                o1 = G.mor_src[mi]
                if o1 not in gauge:
                    continue
                o2 = G.mor_tgt[mi]
                # group element of mi: base[o2]^{-1} . mi . base[o1]
                g_elt = G.compose(G.inverse[base[o2]], G.compose(mi, base[o1]))
                gi = g_auts.index(g_elt)
                img_elt = (gauge[o2] - gauge[o1] + t * gi) % j
                img = H.compose(h_base[o2], H.compose(h_auts[img_elt],
                                                      H.inverse[h_base[o1]]))
                mor_map[mi] = img
        return GroupoidFunctor(G, H, obj_map, mor_map)

    def span(self, X, Y):
        apex = self.groupoid()
        return ConcreteSpan(apex, self.functor_to(apex, Y), self.functor_to(apex, X))

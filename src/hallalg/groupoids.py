"""Explicit finite groupoids: cardinality, spans, weak pullbacks,
and degroupoidification to exact rational matrices.

Groupoids here are fully concrete: indexed objects and morphisms with
endpoints, built by the one ConcreteGroupoid constructor from morphism
labels and rules on labels (each object's identity label, inverse(label),
compose(g_label, f_label)).  Products, coproducts, weak pullbacks and
action groupoids compose their labels directly; a JSON groupoid's labels
are its indices and its rule reads the table.  Cardinality and the degroupoidification formulas only ever need
endpoints and counts.
"""

from fractions import Fraction
import random

from .linalg import DEFAULT_BUDGET, check_budget


class GroupoidFormatError(ValueError):
    """Malformed groupoid/functor/span document; message names the field."""


class ConcreteGroupoid:
    """Objects, morphisms with endpoints, identities, inverses, composition."""

    def __init__(self, objects, morphisms, identity, inverse, compose):
        """A groupoid from its labels and the rules on them.

        morphisms: list of (src, tgt, label) with unique hashable labels;
        identity: the identity label of each object, in object order;
        inverse(label) and compose(g_label, f_label) return labels, compose
        being asked only when tgt(f) == src(g).  Identities and inverses
        become index tuples once, here; compose() applies the rule once per
        composable pair and keeps the result.
        """
        self.objects = list(objects)
        self.mor_src = tuple(m[0] for m in morphisms)
        self.mor_tgt = tuple(m[1] for m in morphisms)
        self.mor_label = tuple(m[2] for m in morphisms)
        self._mor_index = {}
        for i, lab in enumerate(self.mor_label):
            if lab in self._mor_index:
                raise GroupoidFormatError(f"duplicate morphism label {lab!r}")
            self._mor_index[lab] = i
        self._compose_rule = compose
        self._composites = {}     # (g, f) -> index of g after f, composable pairs only
        self.identity = tuple(self._mor_index[lab] for lab in identity)
        self.inverse = tuple(self._mor_index[inverse(lab)] for lab in self.mor_label)
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

    def compose(self, g, f):
        """Index of g after f; requires tgt(f) == src(g).  Memoized per pair;
        a pair that is not composable raises on every call and is not kept."""
        h = self._composites.get((g, f))
        if h is None:
            if self.mor_tgt[f] != self.mor_src[g]:
                raise ValueError("morphisms are not composable")
            labels = self.mor_label
            h = self._composites[g, f] = self._mor_index[self._compose_rule(labels[g], labels[f])]
        return h

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

    def validate(self):
        n, m = self.n_objects(), self.n_morphisms()
        if len(self.identity) != n:
            raise GroupoidFormatError("identity assignment length mismatch")
        for x in range(n):
            e = self.identity[x]
            if self.mor_src[e] != x or self.mor_tgt[e] != x:
                raise GroupoidFormatError(f"identity of object {x} has wrong endpoints")
        pairs = [(g, f) for f in range(m) for g in self.mor_from(self.mor_tgt[f])]
        check_budget("groupoid law check (composable pairs)", len(pairs), DEFAULT_BUDGET)
        comp = self.compose
        for g, f in pairs:
            h = comp(g, f)
            if self.mor_src[h] != self.mor_src[f] or self.mor_tgt[h] != self.mor_tgt[g]:
                raise GroupoidFormatError(f"composition of {g} after {f} has wrong endpoints")
        for f in range(m):
            x, y = self.mor_src[f], self.mor_tgt[f]
            if comp(f, self.identity[x]) != f or comp(self.identity[y], f) != f:
                raise GroupoidFormatError(f"identity law fails at morphism {f}")
            inv = self.inverse[f]
            if self.mor_src[inv] != y or self.mor_tgt[inv] != x:
                raise GroupoidFormatError(f"inverse of {f} has wrong endpoints")
            if comp(inv, f) != self.identity[x] or comp(f, inv) != self.identity[y]:
                raise GroupoidFormatError(f"inverse law fails at morphism {f}")
        triples = 0
        for f in range(m):
            for g in self.mor_from(self.mor_tgt[f]):
                triples += len(self.mor_from(self.mor_tgt[g]))
        check_budget("groupoid law check (composable triples)", triples, DEFAULT_BUDGET)
        for f in range(m):
            for g in self.mor_from(self.mor_tgt[f]):
                gf = comp(g, f)
                for h in self.mor_from(self.mor_tgt[g]):
                    if comp(h, gf) != comp(comp(h, g), f):
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


# ---- constructors -------------------------------------------------------------


def discrete_groupoid(n):
    return ConcreteGroupoid(list(range(n)), [(i, i, i) for i in range(n)],
                            identity=list(range(n)), inverse=lambda i: i,
                            compose=lambda g, f: g)


def group_groupoid(mul_table):
    """One object whose automorphisms follow the given multiplication table."""
    e, inv = _validate_group_table(mul_table)
    return ConcreteGroupoid([0], [(0, 0, i) for i in range(len(mul_table))],
                            identity=[e], inverse=inv.__getitem__,
                            compose=lambda g, f: mul_table[g][f])


def connected_groupoid(n_objects, mul_table):
    """n isomorphic objects, hom-sets torsors over the given group."""
    e, inv = _validate_group_table(mul_table)
    morphisms = [(i, j, (i, j, g)) for i in range(n_objects)
                 for j in range(n_objects) for g in range(len(mul_table))]
    return ConcreteGroupoid(list(range(n_objects)), morphisms,
                            identity=[(i, i, e) for i in range(n_objects)],
                            inverse=lambda m: (m[1], m[0], inv[m[2]]),
                            compose=lambda g, f: (f[0], g[1], mul_table[g[2]][f[2]]))


def cyclic_table(k):
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def _table_identity(mul_table):
    n = len(mul_table)
    for i in range(n):
        if all(mul_table[i][j] == j and mul_table[j][i] == j for j in range(n)):
            return i
    raise GroupoidFormatError("multiplication table has no identity")


def _validate_group_table(mul_table):
    """Check a group multiplication table; return (identity, inverse list)."""
    n = len(mul_table)
    for row in mul_table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise GroupoidFormatError("multiplication table is not square over range(n)")
    e = _table_identity(mul_table)
    inv = [next((j for j in range(n) if mul_table[i][j] == e), None) for i in range(n)]
    if None in inv:
        raise GroupoidFormatError(f"element {inv.index(None)} has no inverse")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul_table[mul_table[a][b]][c] != mul_table[a][mul_table[b][c]]:
                    raise GroupoidFormatError("multiplication table is not associative")
    return e, inv


def product_groupoid(G, H):
    """Cartesian product; componentwise composition."""
    objects = [(a, b) for a in range(G.n_objects()) for b in range(H.n_objects())]
    obj_index = {o: i for i, o in enumerate(objects)}
    labels = [(i, j) for i in range(G.n_morphisms()) for j in range(H.n_morphisms())]
    morphisms = [(obj_index[(G.mor_src[i], H.mor_src[j])],
                  obj_index[(G.mor_tgt[i], H.mor_tgt[j])], (i, j))
                 for (i, j) in labels]
    P = ConcreteGroupoid(
        objects, morphisms,
        identity=[(G.identity[a], H.identity[b]) for (a, b) in objects],
        inverse=lambda m: (G.inverse[m[0]], H.inverse[m[1]]),
        compose=lambda g, f: (G.compose(g[0], f[0]), H.compose(g[1], f[1])))
    pi1 = GroupoidFunctor(P, G, [o[0] for o in objects], [l[0] for l in labels])
    pi2 = GroupoidFunctor(P, H, [o[1] for o in objects], [l[1] for l in labels])
    return P, pi1, pi2


def coproduct_groupoid(G, H):
    """Disjoint union, with the two inclusion functors."""
    ng, mg = G.n_objects(), G.n_morphisms()
    side = {"L": G, "R": H}
    objects = [("L", o) for o in G.objects] + [("R", o) for o in H.objects]
    morphisms = [(G.mor_src[i], G.mor_tgt[i], ("L", i)) for i in range(mg)] + \
                [(H.mor_src[j] + ng, H.mor_tgt[j] + ng, ("R", j))
                 for j in range(H.n_morphisms())]
    P = ConcreteGroupoid(
        objects, morphisms,
        identity=[("L", e) for e in G.identity] + [("R", e) for e in H.identity],
        inverse=lambda m: (m[0], side[m[0]].inverse[m[1]]),
        compose=lambda g, f: (f[0], side[f[0]].compose(g[1], f[1])))
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

    def validate(self):
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
        check_budget("functor law check (composable pairs)", len(pairs), DEFAULT_BUDGET)
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


def weak_pullback(f, g, budget):
    """Weak pullback of f: A -> X and g: B -> X.

    Objects are triples (a, b, alpha) with alpha: f(a) -> g(b) in X;
    morphisms are pairs (u, v) whose square commutes, one per source
    alpha.  Returns (P, pi_A, pi_B), objects ordered by (a, b, alpha).
    Refuses to start when the morphisms would exceed budget.
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

    morphisms = []
    carried = {}        # (u, v, alpha) -> g(v) . alpha . f(u)^{-1}, the inverse's alpha
    for src, (a, b, alpha) in enumerate(objects):
        after = [(v, X.compose(g.mor_map[v], alpha)) for v in B.mor_from(b)]
        for u in A.mor_from(a):
            f_u_inv = X.inverse[f.mor_map[u]]
            for v, g_alpha in after:
                lab = (u, v, alpha)
                beta = carried[lab] = X.compose(g_alpha, f_u_inv)
                morphisms.append((src, obj_index[(A.mor_tgt[u], B.mor_tgt[v], beta)], lab))
    P = ConcreteGroupoid(
        objects, morphisms,
        identity=[(A.identity[a], B.identity[b], alpha) for (a, b, alpha) in objects],
        inverse=lambda m: (A.inverse[m[0]], B.inverse[m[1]], carried[m]),
        compose=lambda m2, m1: (A.compose(m2[0], m1[0]), B.compose(m2[1], m1[1]), m1[2]))
    pi_A = GroupoidFunctor(P, A, [o[0] for o in objects], [l[0] for l in P.mor_label])
    pi_B = GroupoidFunctor(P, B, [o[1] for o in objects], [l[1] for l in P.mor_label])
    return P, pi_A, pi_B


def apply_span(span, vector, budget):
    """Apply a span from X to Y to a groupoid over X; result is over Y."""
    if vector.target is not span.foot_right:
        raise ValueError("vector is not over the span's right foot")
    P, pi_S, _ = weak_pullback(span.right, vector, budget)
    return span.left.compose_with(pi_S)


def compose_spans(t, s, budget):
    """Composite of s: X -> Y then t: Y -> Z, by weak pullback over Y."""
    if s.foot_left is not t.foot_right:
        raise ValueError("spans are not composable (feet mismatch)")
    P, pi_T, pi_S = weak_pullback(t.right, s.left, budget)
    return ConcreteSpan(P, t.left.compose_with(pi_T), s.right.compose_with(pi_S))


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


def groupoid_to_json(G):
    m = G.n_morphisms()
    check_budget("composition table export", m * m, DEFAULT_BUDGET)
    table = [[None] * m for _ in range(m)]
    for f in range(m):
        for g in G.mor_from(G.mor_tgt[f]):
            table[g][f] = G.compose(g, f)
    return {
        "objects": G.n_objects(),
        "morphisms": [{"src": G.mor_src[i], "tgt": G.mor_tgt[i]} for i in range(m)],
        "compose": table,
    }


def groupoid_from_json(doc):
    if not isinstance(doc, dict):
        raise GroupoidFormatError("groupoid document must be an object")
    for field in ("objects", "morphisms", "compose"):
        if field not in doc:
            raise GroupoidFormatError(f'missing field "{field}"')
    n = doc["objects"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise GroupoidFormatError('"objects" must be a nonnegative integer')
    mors = doc["morphisms"]
    if not isinstance(mors, list):
        raise GroupoidFormatError('"morphisms" must be a list')
    m = len(mors)
    src, tgt = [], []
    for i, item in enumerate(mors):
        if not isinstance(item, dict) or "src" not in item or "tgt" not in item:
            raise GroupoidFormatError(f'morphisms[{i}] needs "src" and "tgt"')
        src.append(_index(item["src"], n, f"morphisms[{i}].src"))
        tgt.append(_index(item["tgt"], n, f"morphisms[{i}].tgt"))
    table = doc["compose"]
    if not isinstance(table, list) or len(table) != m or \
            any(not isinstance(row, list) or len(row) != m for row in table):
        raise GroupoidFormatError('"compose" must be a list of m lists of length m')
    for g in range(m):
        for f in range(m):
            if tgt[f] == src[g]:
                _index(table[g][f], m, f"compose[{g}][{f}]")
            elif table[g][f] is not None:
                raise GroupoidFormatError(
                    f"compose[{g}][{f}] defined for non-composable pair")
    identity = _derive_identities(n, m, src, tgt, table)
    inverse = _derive_inverses(m, src, tgt, table, identity)
    G = ConcreteGroupoid(list(range(n)), [(src[i], tgt[i], i) for i in range(m)],
                         identity, inverse.__getitem__, lambda g, f: table[g][f])
    G.validate()
    return G


def _index(value, bound, field):
    """value as an index into range(bound); bools and negatives are rejected."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < bound:
        raise GroupoidFormatError(f"{field} must be an index in range({bound})")
    return value


def _derive_identities(n, m, src, tgt, table):
    identity = []
    for x in range(n):
        found = None
        for e in range(m):
            if src[e] != x or tgt[e] != x:
                continue
            if all(table[e][f] == f for f in range(m) if tgt[f] == x) and \
               all(table[f][e] == f for f in range(m) if src[f] == x):
                found = e
                break
        if found is None:
            raise GroupoidFormatError(f"object {x} has no identity morphism")
        identity.append(found)
    return identity


def _derive_inverses(m, src, tgt, table, identity):
    inverse = []
    for f in range(m):
        found = None
        for g in range(m):
            if src[g] == tgt[f] and tgt[g] == src[f] and \
               table[g][f] == identity[src[f]] and table[f][g] == identity[tgt[f]]:
                found = g
                break
        if found is None:
            raise GroupoidFormatError(f"morphism {f} has no inverse")
        inverse.append(found)
    return inverse


def functor_from_json(doc, source, target):
    if not isinstance(doc, dict) or "objects" not in doc or "morphisms" not in doc:
        raise GroupoidFormatError('functor document needs "objects" and "morphisms"')
    maps = []
    for field, bound in (("objects", target.n_objects()),
                         ("morphisms", target.n_morphisms())):
        if not isinstance(doc[field], list):
            raise GroupoidFormatError(f'functor "{field}" must be a list')
        maps.append([_index(x, bound, f"functor {field}[{i}]")
                     for i, x in enumerate(doc[field])])
    fun = GroupoidFunctor(source, target, *maps)
    fun.validate()
    return fun


def span_from_json(doc):
    if not isinstance(doc, dict):
        raise GroupoidFormatError("span document must be an object")
    for field in ("apex", "foot_left", "foot_right", "left", "right"):
        if field not in doc:
            raise GroupoidFormatError(f'span document missing "{field}"')
    apex = groupoid_from_json(doc["apex"])
    fl = groupoid_from_json(doc["foot_left"])
    fr = groupoid_from_json(doc["foot_right"])
    left = functor_from_json(doc["left"], apex, fl)
    right = functor_from_json(doc["right"], apex, fr)
    return ConcreteSpan(apex, left, right)


# ---- seeded random instances (for property suites) -----------------------------------


class RandomGroupoids:
    """Deterministic generator of small groupoids, functors and spans."""

    MAX_COMPONENTS = 2
    MAX_OBJECTS = 2             # per component
    ORDERS = (1, 2, 3, 4)       # of the cyclic automorphism groups

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def groupoid(self):
        comps = []
        for _ in range(self.rng.randint(1, self.MAX_COMPONENTS)):
            m = self.rng.randint(1, self.MAX_OBJECTS)
            k = self.rng.choice(self.ORDERS)
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

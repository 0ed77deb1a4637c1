"""Categorified structure over the groupoid of representations.

This module builds the short-exact-sequence groupoids with fixed outer
terms, the braiding span they assemble into, and the degroupoidified
multiplication/comultiplication matrices, then verifies the cardinality
and coherence identities tying them back to the Hall algebra.

Morphism conventions matter here and are made explicit throughout:

* "triple" morphisms between sequences are (alpha, beta, gamma) with all
  three isomorphisms free.  An automorphism of a sequence is then exactly
  a beta in Aut(E) preserving the image subobject, and the cardinality of
  the groupoid with these morphisms is sum_E P^E / (aut N aut E aut M).
* "fixed-end" morphisms pin alpha and gamma to the identity.  Isomorphism
  classes are then extension classes, the automorphism group of every
  object is Hom(M, N) under addition, and the cardinality is
  sum_E P^E / aut E = q^{-<m, n>}.  Bilinearity in each slot holds at
  this level, and this is the level the hexagon checks consume fiberwise.

All checks report which convention each number uses.
"""

from fractions import Fraction

from .hall import q_power
from .linalg import Matrix, subspace_key
from .quiver import RepMorphism, Representation, dim_add, dim_total


class SESObject:
    """A short exact sequence 0 -> sub -> mid -> quo -> 0 with explicit maps."""

    __slots__ = ("sub", "mid", "quo", "incl", "proj")

    def __init__(self, sub, mid, quo, incl, proj):
        self.sub = sub
        self.mid = mid
        self.quo = quo
        self.incl = incl
        self.proj = proj

    def validate(self):
        if self.incl.source != self.sub or self.incl.target != self.mid:
            raise ValueError("inclusion endpoints wrong")
        if self.proj.source != self.mid or self.proj.target != self.quo:
            raise ValueError("projection endpoints wrong")
        if dim_add(self.sub.dim, self.quo.dim) != self.mid.dim:
            raise ValueError("grading violated: dim mid != dim sub + dim quo")
        if not (self.incl.is_valid() and self.proj.is_valid()):
            raise ValueError("maps are not representation morphisms")
        if not self.incl.is_injective():
            raise ValueError("inclusion is not injective")
        if not self.proj.is_surjective():
            raise ValueError("projection is not surjective")
        if not self.proj.compose(self.incl).is_zero():
            raise ValueError("composite sub -> quo is nonzero")
        # rank counting: im(incl) <= ker(proj) with equal dimensions
        for v in range(self.sub.quiver.n):
            if self.sub.dim[v] + self.quo.dim[v] != self.mid.dim[v]:
                raise ValueError("vertexwise grading violated")
        return True

    def image_key(self):
        """Canonical key of the image subobject of the inclusion."""
        return tuple(subspace_key(m) for m in self.incl.vertex_maps)

    def moved_image_key(self, beta):
        """Canonical key of beta(image), for beta an automorphism of mid."""
        return tuple(subspace_key(bv * iv) for bv, iv in
                     zip(beta.vertex_maps, self.incl.vertex_maps))

    def __repr__(self):
        return f"SES({self.sub.dim} -> {self.mid.dim} -> {self.quo.dim})"


# ---- block helpers for chosen direct sums -------------------------------------


def block_injections(y, z):
    """Canonical inclusions of y and z into the chosen direct sum y (+) z."""
    f = y.field
    s = y.direct_sum(z)
    inc_y = RepMorphism(y, s, [
        Matrix(f, [[f.one if i == j else f.zero for j in range(y.dim[v])]
                   for i in range(s.dim[v])], s.dim[v], y.dim[v])
        for v in range(y.quiver.n)])
    inc_z = RepMorphism(z, s, [
        Matrix(f, [[f.one if i == y.dim[v] + j else f.zero for j in range(z.dim[v])]
                   for i in range(s.dim[v])], s.dim[v], z.dim[v])
        for v in range(y.quiver.n)])
    return s, inc_y, inc_z


def block_projections(y, z):
    """Canonical projections of y (+) z onto y and z."""
    f = y.field
    s = y.direct_sum(z)
    pr_y = RepMorphism(s, y, [
        Matrix(f, [[f.one if j == i else f.zero for j in range(s.dim[v])]
                   for i in range(y.dim[v])], y.dim[v], s.dim[v])
        for v in range(y.quiver.n)])
    pr_z = RepMorphism(s, z, [
        Matrix(f, [[f.one if j == y.dim[v] + i else f.zero for j in range(s.dim[v])]
                   for i in range(z.dim[v])], z.dim[v], s.dim[v])
        for v in range(y.quiver.n)])
    return s, pr_y, pr_z


def factor_through(proj, g):
    """The unique h with h . proj = g, for a vertexwise surjective proj."""
    maps = []
    for pv, gv in zip(proj.vertex_maps, g.vertex_maps):
        sol = pv.transpose().solve_matrix(gv.transpose())
        if sol is None:
            raise ValueError("map does not factor through the projection")
        maps.append(sol.transpose())
    return RepMorphism(proj.target, g.target, maps)


def corestrict(incl, f):
    """The unique h with incl . h = f, for f landing inside im(incl)."""
    maps = []
    for iv, fv in zip(incl.vertex_maps, f.vertex_maps):
        sol = iv.solve_matrix(fv)
        if sol is None:
            raise ValueError("map does not land in the subobject")
        maps.append(sol)
    return RepMorphism(f.source, incl.source, maps)


def preimage_subrep(ctx, proj_to, g):
    """g^{-1}(0) as a subrepresentation: inclusion of ker(proj_to . g).

    g: E -> T, proj_to: T -> W; returns the inclusion of ker(proj_to . g)
    into E, with the induced representation on a canonical kernel basis.
    """
    f = ctx.field
    comp = proj_to.compose(g)
    bases = []
    for v in range(ctx.quiver.n):
        kv = comp.vertex_maps[v].kernel_basis()
        n = comp.vertex_maps[v].cols
        bases.append(Matrix(f, [[vec[i] for vec in kv] for i in range(n)], n, len(kv)))
    E = g.source
    umaps = []
    for k, (s, t) in enumerate(ctx.quiver.arrows):
        image = E.edge_maps[k] * bases[s]
        sol = bases[t].solve_matrix(image)
        if sol is None:
            raise ValueError("kernel is not an invariant subspace")
        umaps.append(sol)
    U = Representation(ctx.quiver, f, tuple(b.cols for b in bases), umaps)
    return RepMorphism(U, E, bases)


# ---- the base groupoid and EXT groupoids ----------------------------------------


class RepGroupoid:
    """Witness-backed groupoid of representations; hom-sets come on demand."""

    def __init__(self, ctx, reps):
        self.ctx = ctx
        self.objects = list(reps)

    def hom_set(self, i, j):
        return self.ctx.iso_set(self.objects[i], self.objects[j])

    def aut_order(self, i):
        return self.ctx.aut_order(self.objects[i])

    def iso_class_labels(self):
        return [self.ctx.class_of(r).label for r in self.objects]

    def cardinality(self):
        seen = {}
        for r in self.objects:
            seen.setdefault(self.ctx.class_of(r).label, r)
        return sum(Fraction(1, self.ctx.aut_order(r)) for r in seen.values())


def build_A0(ctx, bound):
    """The truncated base: one canonical witness per class, total dim <= bound."""
    return RepGroupoid(ctx, [c.rep for c in ctx.classes_up_to(bound)])


class ExtGroupoid:
    """All short exact sequences 0 -> N -> E -> M -> 0 with fixed M and N.

    Objects are materialized per middle-term class; morphism counts are
    computed on demand from Aut(E)-orbits of image subobjects.
    """

    def __init__(self, ctx, M, N):
        self.ctx = ctx
        self.M = M
        self.N = N
        self.pieces = {}          # E label -> list of SESObject
        self._piece_reps = {}     # E label -> representative Representation
        self._orbit_data = {}     # E label -> list of (rep_key, orbit_keys, stab)
        total = dim_add(M.dim, N.dim)
        for cls in ctx.classify(total):
            objs = self._build_piece(cls.rep)
            if objs:
                self.pieces[cls.label] = objs
                self._piece_reps[cls.label] = cls.rep

    def _build_piece(self, E):
        ctx = self.ctx
        out = []
        for incl, Q, proj in ctx.invariant_subreps(E, self.N.dim):
            if not ctx.is_isomorphic(incl.source, self.N):
                continue
            if not ctx.is_isomorphic(Q, self.M):
                continue
            for nu in ctx.iso_set(self.N, incl.source):
                f = incl.compose(nu)
                for mu in ctx.iso_set(Q, self.M):
                    g = mu.compose(proj)
                    out.append(SESObject(self.N, E, self.M, f, g))
        return out

    def object_count(self, e_label=None):
        if e_label is not None:
            return len(self.pieces.get(e_label, []))
        return sum(len(v) for v in self.pieces.values())

    def _orbits(self, e_label):
        """Aut(E)-orbits on the valid image subobjects of one piece.

        Returns a list of (representative image key, set of orbit keys,
        stabilizer order counted directly).  |orbit| * stabilizer is
        asserted to equal |Aut(E)|.
        """
        if e_label in self._orbit_data:
            return self._orbit_data[e_label]
        ctx = self.ctx
        E = self._piece_reps[e_label]
        keys = []
        seen_keys = set()
        by_key = {}
        for ses in self.pieces[e_label]:
            k = ses.image_key()
            if k not in seen_keys:
                seen_keys.add(k)
                keys.append(k)
            by_key.setdefault(k, []).append(ses)
        auts = ctx.aut_elements(E)
        data = []
        assigned = set()
        for k in keys:
            if k in assigned:
                continue
            ses = by_key[k][0]
            orbit = set()
            stab = 0
            for beta in auts:
                moved = ses.moved_image_key(beta)
                orbit.add(moved)
                if moved == k:
                    stab += 1
            assert len(orbit) * stab == len(auts)
            assigned |= orbit
            data.append((k, orbit, stab))
        self._orbit_data[e_label] = data
        return data

    def iso_classes(self, e_label):
        """(representative SESObject, class size, triple-aut order) per class."""
        by_key = {}
        for ses in self.pieces[e_label]:
            by_key.setdefault(ses.image_key(), []).append(ses)
        out = []
        for rep_key, orbit, stab in self._orbits(e_label):
            size = sum(len(by_key.get(k, [])) for k in orbit)
            out.append((by_key[rep_key][0], size, stab))
        return out

    def aut_triples_direct(self, ses):
        """Automorphisms (alpha, beta, gamma) of one object, counted directly.

        Each beta in Aut(E) preserving the image induces unique alpha and
        gamma, so this is a plain filter over Aut(E).
        """
        k = ses.image_key()
        return sum(1 for beta in self.ctx.aut_elements(ses.mid)
                   if ses.moved_image_key(beta) == k)

    def aut_fixed_ends(self, ses):
        """Automorphisms with alpha = id and gamma = id: the betas fixing f and g."""
        return [beta for beta in self.ctx.aut_elements(ses.mid)
                if beta.compose(ses.incl) == ses.incl
                and ses.proj.compose(beta) == ses.proj]

    def cardinality_triples(self):
        """Sum over iso classes of 1/(triple-aut order): the weak-quotient value."""
        total = Fraction(0)
        for e_label in self.pieces:
            for _, _, stab in self.iso_classes(e_label):
                total += Fraction(1, stab)
        return total

    def cardinality_formula(self):
        """sum_E P^E / (aut N . aut E . aut M), via the pair-count formula."""
        ctx = self.ctx
        total = Fraction(0)
        for cls in ctx.classify(dim_add(self.M.dim, self.N.dim)):
            p = ctx.count_exact_pairs(self.M, self.N, cls.rep)
            if p:
                total += Fraction(p, ctx.aut_order(self.N) * ctx.aut_order(cls.rep)
                                  * ctx.aut_order(self.M))
        return total

    def cardinality_fixed_ends(self):
        """sum_E P^E / aut E: the fixed-end cardinality, equal to q^{-<m,n>}."""
        ctx = self.ctx
        total = Fraction(0)
        for cls in ctx.classify(dim_add(self.M.dim, self.N.dim)):
            p = ctx.count_exact_pairs(self.M, self.N, cls.rep)
            if p:
                total += Fraction(p, ctx.aut_order(cls.rep))
        return total


# ---- cardinality, Riedtmann and bilinearity checks --------------------------------


def closed_form_ext_cardinality(ctx, M, N):
    """q^{-<m, n>} / (aut N . aut M), as an exact rational."""
    qpow = q_power(ctx.q, -ctx.euler_form(M.dim, N.dim))
    return qpow / (ctx.aut_order(N) * ctx.aut_order(M))


def ext_cardinality_check(ctx, M, N):
    """Weak-quotient cardinality versus the closed form, with triple morphisms."""
    ext = ExtGroupoid(ctx, M, N)
    lhs = ext.cardinality_formula()
    rhs = closed_form_ext_cardinality(ctx, M, N)
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs,
            "convention": "triples (alpha, beta, gamma)"}


def riedtmann_check(ctx, M, N, E):
    """P^E_{MN} versus |Ext^1(M,N)_E| |Aut E| / |Hom(M,N)|.

    The extension-class count on the right enumerates canonical cocycle
    class representatives, builds each middle term, and tests isomorphism
    with E; the left side is the subobject-based pair count.
    """
    lhs = Fraction(ctx.count_exact_pairs(M, N, E))
    ext_e = 0
    for vec in ctx.ext_class_reps(M, N):
        mid = ctx.middle_term(M, N, vec)
        if ctx.is_isomorphic(mid, E):
            ext_e += 1
    hom = ctx.q ** ctx.hom_dim(M, N)
    rhs = Fraction(ext_e * ctx.aut_order(E), hom)
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs, "ext_classes_E": ext_e}


def _fixed_end_iso_classes(ctx, ext):
    """Extension classes of an ExtGroupoid: canonical cocycle per object."""
    out = {}
    for e_label, objs in ext.pieces.items():
        for ses in objs:
            cls = ctx.extension_class(ext.M, ext.N, ses.mid, ses.incl, ses.proj)
            out.setdefault(cls, []).append(ses)
    return out


def ext_bilinearity_first(ctx, M1, M2, N):
    """EXT(M1 (+) M2, N) against EXT(M1, N) x EXT(M2, N).

    Cardinalities are compared at the fixed-end level (where the product
    identity is exact); the skeleton correspondence applies the preimage
    splitting to one canonical object per extension class, checks the
    induced map on classes is a bijection, and glues each split pair back
    to verify the round trip lands in the same class.  Triple-convention
    values are reported alongside for reference.
    """
    return _ext_bilinearity(ctx, M1, M2, N, hexagonator_S, glue_quotients, slot=0)


def ext_bilinearity_second(ctx, M, N1, N2):
    """EXT(M, N1 (+) N2) against EXT(M, N1) x EXT(M, N2), mirrored.

    The splitting quotients the middle term by the image of each summand
    of the subobject in turn; gluing is the fibered product over M.
    """
    return _ext_bilinearity(ctx, N1, N2, M, hexagonator_R, glue_subobjects, slot=1)


def _ext_bilinearity(ctx, part1, part2, other, split, glue, slot):
    """Bilinearity of EXT in one slot: 0 for the quotient, 1 for the subobject.

    The slot holds part1 (+) part2 and the other slot holds `other`;
    split(ctx, ses, part1, part2) takes an object apart into the two
    summand sequences and glue(ctx, s1, s2, whole) puts them back together.
    """
    def ext(x):
        return ExtGroupoid(ctx, x, other) if slot == 0 else ExtGroupoid(ctx, other, x)

    def ext_class(ses):
        return ctx.extension_class(ses.quo, ses.sub, ses.mid, ses.incl, ses.proj)

    whole = part1.direct_sum(part2)
    ext_sum, e1, e2 = ext(whole), ext(part1), ext(part2)
    lhs = ext_sum.cardinality_fixed_ends()
    rhs = e1.cardinality_fixed_ends() * e2.cardinality_fixed_ends()
    classes = _fixed_end_iso_classes(ctx, ext_sum)
    image_pairs = set()
    round_trip_ok = True
    for cls, objs in classes.items():
        s1, s2 = split(ctx, objs[0], part1, part2)
        image_pairs.add((ext_class(s1), ext_class(s2)))
        if ext_class(glue(ctx, s1, s2, whole)) != cls:
            round_trip_ok = False
    n1 = len(_fixed_end_iso_classes(ctx, e1))
    n2 = len(_fixed_end_iso_classes(ctx, e2))
    bijection = len(image_pairs) == len(classes) == n1 * n2
    return {
        "lhs": lhs, "rhs": rhs, "equal": lhs == rhs,
        "skeleton_bijection": bijection, "round_trip": round_trip_ok,
        "classes": (len(classes), n1, n2),
        "triple_values": (ext_sum.cardinality_formula(),
                          e1.cardinality_formula() * e2.cardinality_formula()),
        "convention": "fixed ends; triple-convention values reported, not asserted",
    }


def glue_quotients(ctx, s1, s2, Msum):
    """Glue 0 -> N -> Ei -> Mi -> 0 into 0 -> N -> (E1 (+) E2)/I_N -> M1 (+) M2 -> 0.

    I_N is the antidiagonal copy {(f1 n, -f2 n)} of the shared subobject.
    """
    f = ctx.field
    N = s1.sub
    big = s1.mid.direct_sum(s2.mid)
    anti = RepMorphism(N, big, [
        Matrix(f, [list(r) for r in s1.incl.vertex_maps[v].entries] +
               [[-x % f.p for x in r] for r in s2.incl.vertex_maps[v].entries],
               big.dim[v], N.dim[v])
        for v in range(ctx.quiver.n)])
    Q, proj = ctx.quotient_with_projection(big, anti)
    _, inc_e1, _ = block_injections(s1.mid, s2.mid)
    new_incl = proj.compose(inc_e1.compose(s1.incl))
    g_big = RepMorphism(big, Msum, [
        _block_diag(f, s1.proj.vertex_maps[v], s2.proj.vertex_maps[v])
        for v in range(ctx.quiver.n)])
    new_proj = factor_through(proj, g_big)
    out = SESObject(N, Q, Msum, new_incl, new_proj)
    out.validate()
    return out


def glue_subobjects(ctx, s1, s2, Nsum):
    """Glue 0 -> Ni -> Ei -> M -> 0 into the fibered product over M.

    The middle term is ker(g1 - g2) inside E1 (+) E2, an extension of M
    by N1 (+) N2.
    """
    f = ctx.field
    M = s1.quo
    big = s1.mid.direct_sum(s2.mid)
    _, pr1, pr2 = block_projections(s1.mid, s2.mid)
    diff = RepMorphism(big, M, [
        Matrix(f, [list(r1) + [-x % f.p for x in r2]
                   for r1, r2 in zip(s1.proj.vertex_maps[v].entries,
                                     s2.proj.vertex_maps[v].entries)],
               M.dim[v], big.dim[v])
        for v in range(ctx.quiver.n)])
    sub_incl = preimage_subrep(ctx, RepMorphism.identity(M), diff)
    f_pair = RepMorphism(Nsum, big, [
        _block_diag(f, s1.incl.vertex_maps[v], s2.incl.vertex_maps[v])
        for v in range(ctx.quiver.n)])
    new_incl = corestrict(sub_incl, f_pair)
    new_proj = s1.proj.compose(pr1).compose(sub_incl)
    out = SESObject(Nsum, sub_incl.source, M, new_incl, new_proj)
    out.validate()
    return out


def _block_diag(f, a, b):
    rows = []
    for r in a.entries:
        rows.append(list(r) + [f.zero] * b.cols)
    for r in b.entries:
        rows.append([f.zero] * a.cols + list(r))
    return Matrix(f, rows, a.rows + b.rows, a.cols + b.cols)


# ---- hexagonators -------------------------------------------------------------------


def hexagonator_R(ctx, ses, y, z):
    """Split 0 -> y (+) z -> E -> x -> 0 into the two quotient sequences.

    Returns (0 -> y -> E/z -> x -> 0, 0 -> z -> E/y -> x -> 0); the input
    subobject must literally be the chosen direct sum of y and z.
    """
    if ses.sub.dim != dim_add(y.dim, z.dim):
        raise ValueError("subobject is not the given direct sum")
    _, inc_y, inc_z = block_injections(y, z)
    f_y = ses.incl.compose(inc_y)
    f_z = ses.incl.compose(inc_z)
    out = []
    for keep, keep_rep, kill in ((f_y, y, f_z), (f_z, z, f_y)):
        Q, proj = ctx.quotient_with_projection(ses.mid, kill)
        new_incl = proj.compose(keep)
        new_proj = factor_through(proj, ses.proj)
        piece = SESObject(keep_rep, Q, ses.quo, new_incl, new_proj)
        piece.validate()
        out.append(piece)
    return tuple(out)


def hexagonator_S(ctx, ses, x, y):
    """Split 0 -> z -> E -> x (+) y -> 0 into the two preimage sequences.

    Returns (0 -> z -> g^{-1}(x) -> x -> 0, 0 -> z -> g^{-1}(y) -> y -> 0).
    Convention: g^{-1}(x) means the preimage of the x summand, so the
    outer terms of the outputs are x and y in that order.
    """
    if ses.quo.dim != dim_add(x.dim, y.dim):
        raise ValueError("quotient is not the given direct sum")
    _, pr_x, pr_y = block_projections(x, y)
    out = []
    for pr_keep, keep_rep, pr_kill in ((pr_x, x, pr_y), (pr_y, y, pr_x)):
        sub_incl = preimage_subrep(ctx, pr_kill, ses.proj)
        new_incl = corestrict(sub_incl, ses.incl)
        new_proj = pr_keep.compose(ses.proj).compose(sub_incl)
        piece = SESObject(ses.sub, sub_incl.source, keep_rep, new_incl, new_proj)
        piece.validate()
        out.append(piece)
    return tuple(out)


# ---- the braiding span and its comparison with EXT -----------------------------------


class BraidingSpan:
    """Apex of the braiding 1-morphism from X x Y to Y x X.

    Objects are (i, j, ses) with ses an extension of X[i]'s class by
    Y[j]'s class; each (i, j) piece is an ExtGroupoid.
    """

    def __init__(self, ctx, X, Y):
        self.ctx = ctx
        self.X = X
        self.Y = Y
        self.pieces = {}
        for i, x in enumerate(X.objects):
            for j, y in enumerate(Y.objects):
                self.pieces[(i, j)] = ExtGroupoid(ctx, x, y)

    def matrix(self):
        """Degroupoidified braiding: entry ((y, x), (x, y)) per class pair.

        Equals |Aut(y)| |Aut(x)| times the triple-convention cardinality of
        the (x, y) piece; for the full base this is q^{-<x, y>} times the
        swap matrix.
        """
        ctx = self.ctx
        out = {}
        for (i, j), ext in self.pieces.items():
            lx = ctx.class_of(self.X.objects[i]).label
            ly = ctx.class_of(self.Y.objects[j]).label
            card = ext.cardinality_triples()
            val = card * ctx.aut_order(self.X.objects[i]) * ctx.aut_order(self.Y.objects[j])
            key = ((ly, lx), (lx, ly))
            out[key] = out.get(key, Fraction(0)) + val
        return out


def bsim_ext_check(ctx, X, Y):
    """Per-piece comparison of the braiding apex with the EXT groupoids.

    For every object pair: object counts per middle class must match the
    pair counts, orbit-stabilizer bookkeeping must be consistent, the
    fixed-end automorphism group must be Hom(quo, sub) as an elementary
    abelian group (table isomorphism when the order is at most 16), and
    the three cardinality routes must agree.
    """
    failures = []
    instances = 0
    for i, x in enumerate(X.objects):
        for j, y in enumerate(Y.objects):
            instances += 1
            inst = f"({ctx.class_of(x).label},{ctx.class_of(y).label})"
            ext = ExtGroupoid(ctx, x, y)
            for cls in ctx.classify(dim_add(x.dim, y.dim)):
                if cls.label not in ext.pieces and \
                        ctx.count_exact_pairs(x, y, cls.rep) != 0:
                    failures.append(f"{inst}: piece {cls.label} missing but P^E != 0")
            for e_label, objs in ext.pieces.items():
                p = ctx.count_exact_pairs(x, y, ext._piece_reps[e_label])
                if len(objs) != p:
                    failures.append(f"{inst}: object count {len(objs)} != P^E {p} at {e_label}")
                for ses, size, stab in ext.iso_classes(e_label):
                    direct = ext.aut_triples_direct(ses)
                    if direct != stab:
                        failures.append(f"{inst}: direct aut {direct} != stabilizer {stab}")
                    fixed = ext.aut_fixed_ends(ses)
                    hom = ctx.q ** ctx.hom_dim(x, y)
                    if len(fixed) != hom:
                        failures.append(f"{inst}: fixed-end aut {len(fixed)} != "
                                        f"|Hom| {hom} at {e_label}")
                    if _is_elementary_abelian_aut(ctx, fixed, ses) is False:
                        failures.append(
                            f"{inst}: fixed-end aut group not elementary abelian")
            direct_card = ext.cardinality_triples()
            formula_card = ext.cardinality_formula()
            closed = closed_form_ext_cardinality(ctx, x, y)
            if not (direct_card == formula_card == closed):
                failures.append(
                    f"{inst}: cardinalities differ: {direct_card} {formula_card} {closed}")
    return {"check": "bsim-ext", "instances": instances, "failures": failures,
            "scope_note": "object/cardinality level"}


def _is_elementary_abelian_aut(ctx, betas, ses):
    """Fixed-end aut group versus (Hom(M, N), +); table search when order <= 16.

    betas: the fixed-end automorphisms of ses, as from aut_fixed_ends.
    """
    n = len(betas)
    p = ctx.q
    try:
        k = _log_base(n, p)
    except ValueError:
        return False
    if n > 16:
        # characterization: order p^k, abelian, exponent p
        for a in betas:
            power = a
            for _ in range(p - 1):
                power = power.compose(a)
            if power != RepMorphism.identity(ses.mid):
                return False
        for a in betas:
            for b in betas:
                if a.compose(b) != b.compose(a):
                    return False
        return True
    from .groupoids import group_tables_isomorphic
    pos = {b.vertex_maps: idx for idx, b in enumerate(betas)}
    table = [[pos[a.compose(b).vertex_maps] for b in betas] for a in betas]
    return group_tables_isomorphic(table, _elementary_abelian_table(p, k))


def _log_base(n, p):
    k = 0
    while p ** k < n:
        k += 1
    if p ** k != n:
        raise ValueError(f"{n} is not a power of {p}")
    return k


def _elementary_abelian_table(p, k):
    n = p ** k
    def digits(a):
        return tuple((a // p ** i) % p for i in range(k))
    def undigits(d):
        return sum(x * p ** i for i, x in enumerate(d))
    return [[undigits(tuple((x + y) % p for x, y in zip(digits(a), digits(b))))
             for b in range(n)] for a in range(n)]


# ---- multiplication and comultiplication spans ----------------------------------------


def mult_span_matrix(ctx, bound):
    """Degroupoidified multiplication span, entry per (E, (M, N)).

    Matrix entries follow the degroupoidification formula: for each
    isomorphism class of sequences, |Aut(E)| over the triple-automorphism
    order, summed.  Row keys are middle-term labels, column keys are
    (quotient label, subobject label) pairs.
    """
    entries = {}
    labels = [c.label for c in ctx.classes_up_to(bound)]
    for lm in labels:
        M = ctx.class_by_label(lm).rep
        for ln in labels:
            N = ctx.class_by_label(ln).rep
            if dim_total(M.dim) + dim_total(N.dim) > bound:
                continue
            ext = ExtGroupoid(ctx, M, N)
            for e_label in ext.pieces:
                aut_e = ctx.aut_order(ext._piece_reps[e_label])
                val = Fraction(0)
                for _, _, stab in ext.iso_classes(e_label):
                    val += Fraction(aut_e, stab)
                if val:
                    entries[(e_label, (lm, ln))] = val
    return entries


def comult_span_matrix(ctx, bound):
    """Degroupoidified comultiplication span, entry per ((M, N), E).

    The adjoint span: row keys are (quotient label, subobject label)
    pairs, column keys are middle-term labels; the entry weight is
    |Aut(M)| |Aut(N)| over the triple-automorphism order.  A row key
    (m, n) carries the coefficient of [n] (x) [m] in the coproduct.
    """
    entries = {}
    labels = [c.label for c in ctx.classes_up_to(bound)]
    for lm in labels:
        M = ctx.class_by_label(lm).rep
        for ln in labels:
            N = ctx.class_by_label(ln).rep
            if dim_total(M.dim) + dim_total(N.dim) > bound:
                continue
            aut_pair = ctx.aut_order(M) * ctx.aut_order(N)
            ext = ExtGroupoid(ctx, M, N)
            for e_label in ext.pieces:
                val = Fraction(0)
                for _, _, stab in ext.iso_classes(e_label):
                    val += Fraction(aut_pair, stab)
                if val:
                    entries[((lm, ln), e_label)] = val
    return entries


def mult_matrix_against_hall(ctx, hall, bound):
    """Entrywise comparison of the span matrix with the Hall product."""
    entries = mult_span_matrix(ctx, bound)
    failures = []
    labels = [c.label for c in ctx.classes_up_to(bound)]
    instances = 0
    for lm in labels:
        for ln in labels:
            if dim_total(hall.grade(lm)) + dim_total(hall.grade(ln)) > bound:
                continue
            prod = hall.product_basis(lm, ln)
            for le in [c.label for c in ctx.classes_up_to(bound)
                       if tuple(dim_add(hall.grade(lm), hall.grade(ln))) == c.dim]:
                instances += 1
                span_val = entries.get((le, (lm, ln)), Fraction(0))
                hall_val = prod.get(le, Fraction(0))
                if span_val != hall_val:
                    failures.append(f"mult entry ({le},({lm},{ln})): span {span_val}"
                                    f" != hall {hall_val}")
    return {"check": "mult-span", "instances": instances, "failures": failures,
            "scope_note": "entrywise, exact"}


def comult_matrix_against_hall(ctx, hall, bound):
    """The comultiplication span against the Hall coproduct.

    The coproduct term [n] (x) [m] must equal the span entry at row
    (m, n): quotient first in the row key, subobject first in the tensor.
    """
    entries = comult_span_matrix(ctx, bound)
    failures = []
    instances = 0
    for cls in ctx.classes_up_to(bound):
        cop = hall.coproduct_basis(cls.label)
        seen = set()
        for (ln, lm), coeff in cop.items():
            instances += 1
            span_val = entries.get(((lm, ln), cls.label), Fraction(0))
            seen.add((lm, ln))
            if span_val != coeff:
                failures.append(f"comult entry (({lm},{ln}),{cls.label}): span "
                                f"{span_val} != hall {coeff}")
        for (pair, le), val in entries.items():
            if le == cls.label and pair not in seen and val != 0:
                failures.append(f"comult extra entry ({pair},{le}) = {val}")
    return {"check": "comult-span", "instances": instances, "failures": failures,
            "scope_note": "entrywise, exact"}


# ---- coherence polytopes ---------------------------------------------------------


COHERENCE_NAMES = ("pentagon-strict", "unitor", "shuffle-1-3", "shuffle-3-1",
                   "shuffle-2-2")


def coherence_check(ctx, name, bound):
    """Run one named coherence check at the given total-dimension bound.

    All checks operate at the object/cardinality level: they verify that
    the relevant composite object assignments agree up to componentwise
    isomorphism and that composite apex cardinalities coincide; 2-cell
    equalities are out of scope and flagged as such in the report.
    """
    if name == "pentagon-strict":
        return _check_pentagon_strict(ctx, bound)
    if name == "unitor":
        return _check_unitor(ctx, bound)
    if name == "shuffle-1-3":
        return _check_shuffle_13(ctx, bound)
    if name == "shuffle-3-1":
        return _check_shuffle_31(ctx, bound)
    if name == "shuffle-2-2":
        return _check_shuffle_22(ctx, bound)
    raise ValueError(f"unknown coherence check {name!r}; options: {COHERENCE_NAMES}")


def _reassoc(obj):
    """((x, y, m), z, n) -> (x, (y, z, n), m): the associator on pullback tuples."""
    (x, y, m), z, n = obj
    return (x, (y, z, n), m)


def _check_pentagon_strict(ctx, bound):
    """Both pentagon composites of re-parenthesization maps agree objectwise.

    The four spans are identity spans on the truncated base, so composite
    objects are witnesses with chains of automorphisms between them.
    """
    failures = []
    objects = 0
    for cls in ctx.classes_up_to(bound):
        w = cls.rep
        auts = [m.vertex_maps for m in ctx.aut_elements(w)]
        wi = cls.label
        for a in auts:
            for b in auts:
                for c in auts:
                    obj = (((wi, wi, a), wi, b), wi, c)
                    objects += 1
                    via_back = _reassoc((_reassoc(obj[0]), obj[1], obj[2]))
                    via_back = (via_back[0], _reassoc(via_back[1]), via_back[2])
                    via_front = _reassoc(_reassoc(obj))
                    if via_back != via_front:
                        failures.append(f"pentagon mismatch at {wi}")
    return {"check": "pentagon-strict", "instances": objects, "failures": failures,
            "scope_note": "object level; re-parenthesization only"}


def _check_unitor(ctx, bound):
    """The unitor triangle: both routes send ((t, y, f), s, g) to (t, s, g . f)."""
    failures = []
    objects = 0
    for cls in ctx.classes_up_to(bound):
        w = cls.rep
        auts = ctx.aut_elements(w)
        wi = cls.label
        for fm in auts:
            for gm in auts:
                objects += 1
                composite = gm.compose(fm).vertex_maps
                via_assoc = _reassoc(((wi, wi, fm.vertex_maps), wi, gm.vertex_maps))
                # T . l collapses the middle unit leg by composing the alphas
                left_route = (via_assoc[0], via_assoc[1][1],
                              _compose_keys(ctx, w, via_assoc[1][2], via_assoc[2]))
                right_route = (wi, wi, composite)
                if left_route != right_route:
                    failures.append(f"unitor mismatch at {wi}")
    return {"check": "unitor", "instances": objects, "failures": failures,
            "scope_note": "object level"}


def _compose_keys(ctx, w, inner_key, outer_key):
    g = RepMorphism(w, w, list(inner_key))
    f = RepMorphism(w, w, list(outer_key))
    return g.compose(f).vertex_maps


def _path_value(ctx, piece_dims, outer_reps):
    """Cardinality of a composite of braiding spans over fixed witnesses.

    Each piece contributes its fixed-end cardinality q^{-<quo, sub>}, each
    of the ambient objects divides by its automorphism count once; the
    middle-groupoid automorphism factors of the weak pullbacks cancel the
    repeated divisions, leaving this product for every path.
    """
    val = Fraction(1)
    for quo_dim, sub_dim in piece_dims:
        val *= q_power(ctx.q, -ctx.euler_form(quo_dim, sub_dim))
    for rep in outer_reps:
        val /= ctx.aut_order(rep)
    return val


def _piece_fixed_end_ok(ctx, quo, sub, memo):
    """Fixed-end cardinality of one braid piece against its q-power value."""
    key = (ctx.class_of(quo).label, ctx.class_of(sub).label)
    if key not in memo:
        ext = ExtGroupoid(ctx, quo, sub)
        memo[key] = ext.cardinality_fixed_ends() == q_power(
            ctx.q, -ctx.euler_form(quo.dim, sub.dim))
    return memo[key]


def _class_tuples(ctx, bound, k):
    classes = ctx.classes_up_to(bound)
    def rec(i, remaining):
        if i == k:
            yield ()
            return
        for cls in classes:
            t = dim_total(cls.dim)
            if t <= remaining:
                for rest in rec(i + 1, remaining - t):
                    yield (cls,) + rest
    return rec(0, bound)


def _slot_match(ctx, s_top, s_bot):
    """Outer terms literal, middle terms isomorphic."""
    return (s_top.sub == s_bot.sub and s_top.quo == s_bot.quo
            and ctx.is_isomorphic(s_top.mid, s_bot.mid))


def _check_shuffle_13(ctx, bound):
    """The R tetrahedron: splitting one object past three, both orders.

    For every extension of a by b (+) c (+) d, splitting at b then at
    (c, d) must agree slotwise (up to isomorphism of middle terms) with
    splitting at d then at (b, c); the four path cardinalities must agree.
    """
    failures = []
    instances = 0
    memo = {}
    for ca, cb, cc, cd in _class_tuples(ctx, bound, 4):
        instances += 1
        inst = f"({ca.label},{cb.label},{cc.label},{cd.label})"
        a, b, c, d = ca.rep, cb.rep, cc.rep, cd.rep
        cd_sum = c.direct_sum(d)
        bc_sum = b.direct_sum(c)
        sub = b.direct_sum(cd_sum)
        ext = ExtGroupoid(ctx, a, sub)
        for e_label, objs in ext.pieces.items():
            for ses in objs:
                ses_b, ses_cd = hexagonator_R(ctx, ses, b, cd_sum)
                ses_c_t, ses_d_t = hexagonator_R(ctx, ses_cd, c, d)
                ses_bc, ses_d_b = hexagonator_R(ctx, ses, bc_sum, d)
                ses_b_b, ses_c_b = hexagonator_R(ctx, ses_bc, b, c)
                for s_top, s_bot, slot in ((ses_b, ses_b_b, "b"),
                                           (ses_c_t, ses_c_b, "c"),
                                           (ses_d_t, ses_d_b, "d")):
                    if not _slot_match(ctx, s_top, s_bot):
                        failures.append(f"{inst}: slot {slot} differs at {e_label}")
                        break
        outer = (a, b, c, d)
        paths = {
            "short": [(a.dim, sub.dim)],
            "top": [(a.dim, b.dim), (a.dim, cd_sum.dim)],
            "bottom": [(a.dim, bc_sum.dim), (a.dim, d.dim)],
            "long": [(a.dim, b.dim), (a.dim, c.dim), (a.dim, d.dim)],
        }
        values = {k: _path_value(ctx, v, outer) for k, v in paths.items()}
        if len(set(values.values())) != 1:
            failures.append(f"{inst}: path cardinalities differ: {values}")
        for quo, s in ((a, sub), (a, b), (a, cd_sum), (a, bc_sum), (a, c), (a, d)):
            if not _piece_fixed_end_ok(ctx, quo, s, memo):
                failures.append(f"{inst}: fixed-end piece value off for "
                                f"{ctx.class_of(quo).label},{ctx.class_of(s).label}")
    return {"check": "shuffle-1-3", "instances": instances, "failures": failures,
            "scope_note": "object/cardinality level"}


def _check_shuffle_31(ctx, bound):
    """The S tetrahedron: splitting three objects past one, both orders."""
    failures = []
    instances = 0
    memo = {}
    for ca, cb, cc, cd in _class_tuples(ctx, bound, 4):
        instances += 1
        inst = f"({ca.label},{cb.label},{cc.label},{cd.label})"
        a, b, c, d = ca.rep, cb.rep, cc.rep, cd.rep
        ab_sum = a.direct_sum(b)
        bc_sum = b.direct_sum(c)
        quo = ab_sum.direct_sum(c)
        ext = ExtGroupoid(ctx, quo, d)
        for e_label, objs in ext.pieces.items():
            for ses in objs:
                ses_ab, ses_c_t = hexagonator_S(ctx, ses, ab_sum, c)
                ses_a_t, ses_b_t = hexagonator_S(ctx, ses_ab, a, b)
                ses_a_b, ses_bc = hexagonator_S(ctx, ses, a, bc_sum)
                ses_b_b, ses_c_b = hexagonator_S(ctx, ses_bc, b, c)
                for s_top, s_bot, slot in ((ses_a_t, ses_a_b, "a"),
                                           (ses_b_t, ses_b_b, "b"),
                                           (ses_c_t, ses_c_b, "c")):
                    if not _slot_match(ctx, s_top, s_bot):
                        failures.append(f"{inst}: slot {slot} differs at {e_label}")
                        break
        outer = (a, b, c, d)
        paths = {
            "short": [(quo.dim, d.dim)],
            "top": [(ab_sum.dim, d.dim), (c.dim, d.dim)],
            "bottom": [(a.dim, d.dim), (bc_sum.dim, d.dim)],
            "long": [(a.dim, d.dim), (b.dim, d.dim), (c.dim, d.dim)],
        }
        values = {k: _path_value(ctx, v, outer) for k, v in paths.items()}
        if len(set(values.values())) != 1:
            failures.append(f"{inst}: path cardinalities differ: {values}")
        for q, s in ((quo, d), (ab_sum, d), (bc_sum, d), (a, d), (b, d), (c, d)):
            if not _piece_fixed_end_ok(ctx, q, s, memo):
                failures.append(f"{inst}: fixed-end piece value off for "
                                f"{ctx.class_of(q).label},{ctx.class_of(s).label}")
    return {"check": "shuffle-3-1", "instances": instances, "failures": failures,
            "s_convention": "g^{-1}(x) is the preimage of the x summand; "
                            "outputs ordered (x, y) to match the hexagon",
            "scope_note": "object/cardinality level"}


def _check_shuffle_22(ctx, bound):
    """The truncated cube: two objects past two, S-first versus R-first.

    Both composite splittings of an extension of a (+) b by c (+) d must
    produce componentwise isomorphic quadruples, and all six path
    cardinalities around the polytope must be equal.
    """
    failures = []
    instances = 0
    memo = {}
    for ca, cb, cc, cd in _class_tuples(ctx, bound, 4):
        instances += 1
        inst = f"({ca.label},{cb.label},{cc.label},{cd.label})"
        a, b, c, d = ca.rep, cb.rep, cc.rep, cd.rep
        ab = a.direct_sum(b)
        cdsum = c.direct_sum(d)
        ext = ExtGroupoid(ctx, ab, cdsum)
        for e_label, objs in ext.pieces.items():
            for ses in objs:
                sa, sb = hexagonator_S(ctx, ses, a, b)
                s_ac, s_ad = hexagonator_R(ctx, sa, c, d)
                s_bc, s_bd = hexagonator_R(ctx, sb, c, d)
                rc, rd = hexagonator_R(ctx, ses, c, d)
                r_ac, r_bc = hexagonator_S(ctx, rc, a, b)
                r_ad, r_bd = hexagonator_S(ctx, rd, a, b)
                for s_first, r_first, slot in ((s_ac, r_ac, "ac"), (s_ad, r_ad, "ad"),
                                               (s_bc, r_bc, "bc"), (s_bd, r_bd, "bd")):
                    if not _slot_match(ctx, s_first, r_first):
                        failures.append(f"{inst}: slot {slot} differs at {e_label}")
                        break
        outer = (a, b, c, d)
        paths = {
            "P1-direct": [(ab.dim, cdsum.dim)],
            "P2-split-ab": [(a.dim, cdsum.dim), (b.dim, cdsum.dim)],
            "P3-split-cd": [(ab.dim, c.dim), (ab.dim, d.dim)],
            "P4-top-back": [(a.dim, cdsum.dim), (b.dim, c.dim), (b.dim, d.dim)],
            "P5-bottom-back": [(a.dim, c.dim), (a.dim, d.dim), (b.dim, cdsum.dim)],
            "P6-longest": [(a.dim, c.dim), (a.dim, d.dim),
                           (b.dim, c.dim), (b.dim, d.dim)],
        }
        values = {k: _path_value(ctx, v, outer) for k, v in paths.items()}
        if len(set(values.values())) != 1:
            failures.append(f"{inst}: path cardinalities differ: {values}")
        for q, s in ((ab, cdsum), (a, cdsum), (b, cdsum), (ab, c), (ab, d),
                     (a, c), (a, d), (b, c), (b, d)):
            if not _piece_fixed_end_ok(ctx, q, s, memo):
                failures.append(f"{inst}: fixed-end piece value off for "
                                f"{ctx.class_of(q).label},{ctx.class_of(s).label}")
    return {"check": "shuffle-2-2", "instances": instances, "failures": failures,
            "s_convention": "g^{-1}(x) is the preimage of the x summand; "
                            "outputs ordered (x, y) to match the hexagon",
            "scope_note": "object/cardinality level"}

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
from operator import mul
from weakref import proxy

from .hall import q_power
from .linalg import (Matrix, blocks_invertible, check_budget, flatten, frame_coordinates,
                     span_points, unflatten)
from .quiver import RepMorphism, dim_add


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
        """Raise ValueError unless this is a short exact sequence of representations.

        Six conditions, in this order and each with its own message:
        endpoints, grading, the commuting squares of both maps, an injective
        inclusion, a surjective projection and a zero composite.  Squares
        and composite are products of entry tuples; no morphism is built.
        """
        sub, mid, quo, f, g = self.sub, self.mid, self.quo, self.incl, self.proj
        if f.source != sub or f.target != mid:
            raise ValueError("inclusion endpoints wrong")
        if g.source != mid or g.target != quo:
            raise ValueError("projection endpoints wrong")
        if dim_add(sub.dim, quo.dim) != mid.dim:
            raise ValueError("grading violated: dim mid != dim sub + dim quo")
        p = mid.field.p
        if not (_commutes(f, p) and _commutes(g, p)):
            raise ValueError("maps are not representation morphisms")
        if any(m.rank() != m.cols for m in f.vertex_maps):
            raise ValueError("inclusion is not injective")
        if any(m.rank() != m.rows for m in g.vertex_maps):
            raise ValueError("projection is not surjective")
        if any(any(row) for a, b in zip(g.vertex_maps, f.vertex_maps)
               for row in _product(a, b, p)):
            raise ValueError("composite sub -> quo is nonzero")
        return True

    def __repr__(self):
        return f"SES({self.sub.dim} -> {self.mid.dim} -> {self.quo.dim})"


def _product(a, b, p):
    """The entry rows of the product a b of two matrices, mod p."""
    cols = tuple(zip(*b.entries)) if b.rows else ((),) * b.cols
    return tuple(tuple(sum(map(mul, row, col)) % p for col in cols) for row in a.entries)


def _commutes(mor, p):
    """Whether target_a mor_s = mor_t source_a on every arrow a: s -> t."""
    src, tgt, maps = mor.source, mor.target, mor.vertex_maps
    return all(_product(ta, maps[s], p) == _product(maps[t], sa, p)
               for (s, t), sa, ta in zip(src.quiver.arrows, src.edge_maps, tgt.edge_maps))


# ---- the base groupoid and EXT groupoids ----------------------------------------


def build_A0(ctx, bound):
    """The truncated base: one canonical witness per class, total dim <= bound."""
    return [c.rep for c in ctx.classes_up_to(bound)]


class ExtGroupoid:
    """All short exact sequences 0 -> N -> E -> M -> 0 with fixed M and N.

    A sequence (f, g) factors through its image subobject U = im f as
    f = incl . nu and g = mu . proj, with nu: N -> U and mu: E/U -> M
    isomorphisms.  So a piece keeps only its image subobjects
    (incl, E/U, proj) with U ~ N and E/U ~ M, and objects() builds the
    |Iso(N, U)| |Iso(E/U, M)| sequences of each on demand.  Morphism counts
    come from the (Aut N x Aut M)-orbits of extension classes and from
    units of linear subspaces of End(E); Aut(E) itself is never enumerated.

    Checks take the context's shared groupoid from ExtGroupoid.of; calling
    the class directly builds an unshared one.
    """

    @classmethod
    def of(cls, ctx, M, N):
        """The context's one groupoid for (M, N), built on first use; weak ctx: no cycle."""
        key = ("ext", M, N)
        if key not in ctx._hom_cache:
            ctx._hom_cache[key] = cls(proxy(ctx), M, N)
        return ctx._hom_cache[key]

    def __init__(self, ctx, M, N):
        self.ctx = ctx
        self.M = M
        self.N = N
        self.pieces = {}          # E label -> list of image subobjects (incl, Q, proj)
        self._piece_reps = {}     # E label -> representative Representation
        self._orbit_data = {}     # E label -> (orbits, extension classes)
        self._actions = None      # _cocycle_actions, built on first use
        for cls in ctx.classify(dim_add(M.dim, N.dim)):
            images = [(incl, Q, proj) for incl, Q, proj in ctx.invariant_subreps(cls.rep, N.dim)
                      if ctx.is_isomorphic(incl.source, N) and ctx.is_isomorphic(Q, M)]
            if images:
                self.pieces[cls.label] = images
                self._piece_reps[cls.label] = cls.rep

    def _isos(self, image):
        """(Iso(N, U), Iso(E/U, M)) for one image subobject, as the context caches them."""
        incl, Q, _ = image
        return self.ctx.iso_set(self.N, incl.source), self.ctx.iso_set(Q, self.M)

    def _sequence(self, image, nu, mu):
        incl, _, proj = image
        return SESObject(self.N, incl.target, self.M, incl.compose(nu), mu.compose(proj))

    def _first(self, image):
        """The first sequence with this image: it stands for the image."""
        incl, Q, _ = image
        ctx = self.ctx
        return self._sequence(image, ctx.first_iso(self.N, incl.source), ctx.first_iso(Q, self.M))

    def object_count(self, e_label=None):
        """Sum of |Iso(N, U)| |Iso(E/U, M)| over the image subobjects U."""
        labels = self.pieces if e_label is None else [e_label]
        return sum(len(nus) * len(mus) for e in labels
                   for nus, mus in map(self._isos, self.pieces.get(e, ())))

    def objects(self, e_label):
        """The sequences of one piece, built on demand and budgeted as a whole.

        Per image subobject, in piece order: (incl . nu, mu . proj) for nu in
        Iso(N, U), then mu in Iso(E/U, M).
        """
        ctx = self.ctx
        check_budget(f"EXT({ctx.class_of(self.M).label}, {ctx.class_of(self.N).label}) "
                     f"objects of piece {e_label}", self.object_count(e_label), ctx.budget)
        for image in self.pieces[e_label]:
            nus, mus = self._isos(image)
            for nu in nus:
                for mu in mus:
                    yield self._sequence(image, nu, mu)

    def _orbits(self, e_label):
        """Aut(E)-orbits on the image subobjects of one piece, and their classes.

        Returns (orbits, classes).  orbits lists (representative index, set
        of orbit indices, stabilizer order), indices into pieces[e_label] and
        representatives in piece order.  Two image subobjects share an
        Aut(E)-orbit exactly when the extension classes of their sequences
        share an (Aut N x Aut M)-orbit on Ext^1(M, N) (Riedtmann), so the
        class of one sequence per image is computed and images are grouped
        by the orbits of c_a -> nu_t c_a mu_s.  Those orbits together are
        the classes of every sequence of the piece, i.e. its fixed-end iso
        classes, returned as a set.  The stabilizer is |Aut(E)| / |orbit|,
        and the division is asserted exact.
        """
        if e_label in self._orbit_data:
            return self._orbit_data[e_label]
        ctx, M, N = self.ctx, self.M, self.N
        check_budget(f"Aut N x Aut M enumeration for dims {N.dim}, {M.dim} "
                     f"over F_{ctx.q}", ctx.aut_order(N) * ctx.aut_order(M), ctx.budget)
        group_of = {}                 # reduced class -> index into groups
        groups = []                   # (representative index, orbit indices)
        for i, image in enumerate(self.pieces[e_label]):
            ses = self._first(image)
            c = ctx.extension_class(M, N, ses.mid, ses.incl, ses.proj)
            if c not in group_of:
                for moved in self._orbit(c):
                    group_of[moved] = len(groups)
                groups.append((i, set()))
            groups[group_of[c]][1].add(i)
        aut_e = ctx.aut_order(self._piece_reps[e_label])
        orbits = []
        for i, orbit in groups:
            assert aut_e % len(orbit) == 0
            orbits.append((i, orbit, aut_e // len(orbit)))
        self._orbit_data[e_label] = orbits, set(group_of)
        return self._orbit_data[e_label]

    def _orbit(self, c):
        """reduce(nu c mu) for (nu, mu) in Aut N x Aut M, nu-major in
        aut_elements order: the orbit of the reduced class c, with repeats.
        When Ext^1(M, N) = 0 the only class is 0 and its orbit is [c];
        neither group is listed."""
        lefts, rights = self._cocycle_actions()
        if not lefts:
            return [c]
        moved = [right.apply(c) for right in rights]
        return [left.apply(cm) for left in lefts for cm in moved]

    def _cocycle_actions(self):
        """The action c -> nu c mu of Aut N x Aut M on flat cocycles, as matrices.

        Returns (lefts, rights): per nu in Aut N the matrix of
        c -> reduce(nu_t c_a), and per mu in Aut M that of c -> c_a mu_s, in
        aut_elements order.  reduce(nu c mu) is lefts[nu] rights[mu] c, as
        reduce_cocycle is linear.  Both are empty when Ext^1(M, N) = 0.
        Built once per groupoid.
        """
        if self._actions is None:
            ctx = self.ctx
            f, arrows = ctx.field, ctx.quiver.arrows
            shapes = ctx.cocycle_blocks(self.M, self.N)
            comp, reduction = ctx._ext_complement(self.M, self.N)
            self._actions = ([], []) if not comp else (
                [reduction * _block_action(f, shapes, [nu.vertex_maps[t] for _, t in arrows],
                                           True) for nu in ctx.aut_elements(self.N)],
                [_block_action(f, shapes, [mu.vertex_maps[s] for s, _ in arrows], False)
                 for mu in ctx.aut_elements(self.M)])
        return self._actions

    def extension_classes(self):
        """The reduced extension classes of all objects: the fixed-end iso classes."""
        return set().union(*(self._orbits(e)[1] for e in self.pieces))

    def iso_classes(self, e_label):
        """(representative SESObject, triple-aut order) per class."""
        images = self.pieces[e_label]
        return [(self._first(images[i]), stab) for i, _, stab in self._orbits(e_label)[0]]

    def aut_triples_direct(self, ses, fixed):
        """Automorphisms (alpha, beta, gamma) of one object, counted directly.

        Each beta in Aut(E) preserving the image U induces unique alpha and
        gamma, so this counts the units of the subalgebra
        A = {beta in End E : g beta f = 0} = {beta : beta(U) <= U}.

        fixed is the basis of V = fixed_end_basis(ses).  V is a two-sided
        ideal of A (beta f = f alpha and g beta = gamma g for beta in A), and
        V V = 0, so V lies in the radical of A and a + V holds only units or
        no unit: |A^x| = q^{dim V} times the units of span(C), C a complement
        of V in A.  Only the q^{dim C} points of span(C) are walked.
        """
        ctx, E = self.ctx, ses.mid
        basis = _end_subspace(ctx, E, lambda v, b: (
            ses.proj.vertex_maps[v] * b * ses.incl.vertex_maps[v],))
        return ctx.q ** len(fixed) * _units(ctx, E, _complement(ctx.field, fixed, basis))

    def fixed_end_basis(self, ses):
        """Basis of V = {phi in End E : phi f = 0, g phi = 0}, as flat lists.

        The automorphisms with alpha = id and gamma = id are the betas
        1 + phi, phi in V.  V V = 0 (g phi = 0 puts im phi inside im f, and
        psi f = 0), so (1 + a)(1 + b) = 1 + a + b: every such beta is a unit,
        and they form a group isomorphic to (V, +), of order q^{dim V}.
        """
        return _end_subspace(self.ctx, ses.mid, lambda v, b: (
            b * ses.incl.vertex_maps[v], ses.proj.vertex_maps[v] * b))

    def cardinality_triples(self, e_label=None):
        """Sum over iso classes of 1/(triple-aut order): the weak-quotient value.

        With e_label, the sum runs over the classes of that piece only.
        """
        labels = self.pieces if e_label is None else [e_label]
        return sum((Fraction(1, stab) for e in labels for _, _, stab in self._orbits(e)[0]),
                   Fraction(0))

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


def _block_action(field, shapes, mats, left):
    """The matrix of c -> m_a c_a (left) or c -> c_a m_a (right) on flat vectors
    whose block a has shape shapes[a], flatten()'s layout; mats[a] is square."""
    n = sum(r * c for r, c in shapes)
    rows, off = [], 0
    for (r, c), m in zip(shapes, mats):
        for i in range(r):
            for j in range(c):
                row = [0] * n
                if left:      # (m X)_ij = sum_k m_ik X_kj
                    for k in range(r):
                        row[off + k * c + j] = m.entries[i][k]
                else:         # (X m)_ij = sum_k X_ik m_kj
                    for k in range(c):
                        row[off + i * c + k] = m.entries[k][j]
                rows.append(tuple(row))
        off += r * c
    return Matrix._of(field, tuple(rows), n, n)


def _end_subspace(ctx, E, constraint):
    """Basis of {phi in End(E) : every constraint(v, phi_v) is zero}, flattened.

    constraint(v, m) returns the matrices, linear in m, that must vanish at
    vertex v; the basis is their kernel on the coordinates of hom_basis(E, E).
    """
    basis = ctx.hom_basis(E, E)
    A = Matrix(ctx.field, [flatten(c for v, m in enumerate(b.vertex_maps)
                                   for c in constraint(v, m)) for b in basis]).transpose()
    coords = Matrix(ctx.field, [flatten(b.vertex_maps) for b in basis]).transpose()
    return [coords.apply(vec) for vec in A.kernel_basis()]


def _complement(field, sub, basis):
    """The vectors of basis that extend the independent flat vectors sub to a
    basis of span(sub + basis): the pivot columns past sub of one rref of the
    matrix with columns sub, then basis."""
    pivots = Matrix(field, sub + basis).transpose().rref()[1]
    return [basis[c - len(sub)] for c in pivots if c >= len(sub)]


def _units(ctx, E, basis):
    """The number of invertible points of span(basis) in End(E), walked by
    span_points and tested vertex block by vertex block."""
    p = ctx.q
    points = span_points(ctx.field, basis, sum(d * d for d in E.dim),
                         f"End{E.dim} subspace enumeration dim {len(basis)} over F_{p}",
                         ctx.budget)
    return sum(1 for point in points if blocks_invertible(point, E.dim, p))


def _square_zero(ctx, E, basis):
    """Whether psi phi = 0 in End(E) for every pair of flat basis elements.

    Checked vertex block by vertex block: k^2 products, nothing enumerated.
    """
    shapes = [(d, d) for d in E.dim]
    blocks = [unflatten(ctx.field, flat, shapes) for flat in basis]
    return all((a * b).is_zero() for psi in blocks for phi in blocks
               for a, b in zip(psi, phi))


# ---- cardinality, Riedtmann and bilinearity checks --------------------------------


def closed_form_ext_cardinality(ctx, M, N):
    """q^{-<m, n>} / (aut N . aut M), as an exact rational."""
    return Fraction(q_power(ctx.q, -ctx.euler_form(M.dim, N.dim)),
                    ctx.aut_order(N) * ctx.aut_order(M))


def ext_cardinality_check(ctx, M, N):
    """Weak-quotient cardinality versus the closed form, with triple morphisms."""
    lhs = ExtGroupoid.of(ctx, M, N).cardinality_formula()
    rhs = closed_form_ext_cardinality(ctx, M, N)
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


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


def ext_bilinearity_first(ctx, M1, M2, N):
    """EXT(M1 (+) M2, N) against EXT(M1, N) x EXT(M2, N).

    Cardinalities are compared at the fixed-end level (where the product
    identity is exact); the skeleton correspondence applies the preimage
    splitting to one canonical object per extension class, checks the
    induced map on classes is a bijection, and glues each split pair back
    to verify the round trip lands in the same class.
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
    Each fixed-end iso class is split once, on the sequence
    ctx.middle_term_ses builds from its reduced cocycle.
    """
    def ext(x):
        return ExtGroupoid.of(ctx, x, other) if slot == 0 else ExtGroupoid.of(ctx, other, x)

    def ext_class(ses):
        return ctx.extension_class(ses.quo, ses.sub, ses.mid, ses.incl, ses.proj)

    whole = ctx.direct_sum(part1, part2)
    ext_sum, e1, e2 = ext(whole), ext(part1), ext(part2)
    lhs = ext_sum.cardinality_fixed_ends()
    rhs = e1.cardinality_fixed_ends() * e2.cardinality_fixed_ends()
    classes = ext_sum.extension_classes()
    image_pairs = set()
    round_trip_ok = True
    for cls in classes:
        E, incl, proj = ctx.middle_term_ses(ext_sum.M, ext_sum.N, cls)
        s1, s2 = split(ctx, SESObject(ext_sum.N, E, ext_sum.M, incl, proj), part1, part2)
        image_pairs.add((ext_class(s1), ext_class(s2)))
        if ext_class(glue(ctx, s1, s2, whole)) != cls:
            round_trip_ok = False
    n1 = len(e1.extension_classes())
    n2 = len(e2.extension_classes())
    bijection = len(image_pairs) == len(classes) == n1 * n2
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs,
            "skeleton_bijection": bijection, "round_trip": round_trip_ok}


# Splitting and gluing on subspace frames.  For U <= E spanned by a basis B,
# the frame (RepCategory._frame) completes B by the standard vectors C = e_rest
# off its pivot rows, and gives E/U and the projection, the rows of
# [B | C]^-1 past dim U.  With it the induced maps are picks: a map g
# vanishing on U factors as (g C) proj, since g = g P P^-1 and g B = 0, and
# g C is the columns rest of g; a map f landing in U is B X with X the
# frame_coordinates of f, read off its pivot rows.


def _times_complement(g, frame):
    """g C for the complement C = e_rest of a frame: the columns rest of g."""
    rest = frame[2]
    return Matrix._of(g.field, tuple(tuple(row[j] for j in rest) for row in g.entries),
                      g.rows, len(rest))


def _kernel_columns(m):
    """The kernel basis of m (Matrix.kernel_basis) as the columns of a matrix."""
    basis = m.kernel_basis()
    return Matrix._of(m.field, tuple(zip(*basis)) if basis else ((),) * m.cols,
                      m.cols, len(basis))


def _quotient_piece(ctx, ses, keep, f_keep, f_kill):
    """0 -> keep -> E/im f_kill -> quo -> 0 for the f_keep part of ses's inclusion."""
    _, Q, proj, frames = ctx.subrep_frames(ses.mid, f_kill)
    incl = RepMorphism._of(keep, Q, [pv * fv for pv, fv in zip(proj.vertex_maps, f_keep)])
    down = RepMorphism._of(Q, ses.quo, [_times_complement(gv, fr)
                                        for gv, fr in zip(ses.proj.vertex_maps, frames)])
    out = SESObject(keep, Q, ses.quo, incl, down)
    out.validate()
    return out


def _preimage_piece(ctx, ses, keep, g_keep, g_kill):
    """0 -> sub -> ker g_kill -> keep -> 0 for the g_keep part of ses's projection."""
    bases = [_kernel_columns(m) for m in g_kill]
    incl, _, _, frames = ctx.subrep_frames(ses.mid, bases)
    U = incl.source
    up = RepMorphism._of(ses.sub, U, [frame_coordinates(fr, fv)
                                      for fr, fv in zip(frames, ses.incl.vertex_maps)])
    proj = RepMorphism._of(U, keep, [gv * B for gv, B in zip(g_keep, bases)])
    out = SESObject(ses.sub, U, keep, up, proj)
    out.validate()
    return out


def glue_quotients(ctx, s1, s2, Msum):
    """Glue 0 -> N -> Ei -> Mi -> 0 into 0 -> N -> (E1 (+) E2)/I_N -> M1 (+) M2 -> 0.

    I_N is the antidiagonal copy {(f1 n, -f2 n)} of the shared subobject.
    The inclusion is proj (f1, 0) and the projection diag(g1, g2) C.
    """
    f = ctx.field
    big = ctx.direct_sum(s1.mid, s2.mid)
    anti = [Matrix.block(f, [[a], [b.scale(-1)]])
            for a, b in zip(s1.incl.vertex_maps, s2.incl.vertex_maps)]
    _, Q, proj, frames = ctx.subrep_frames(big, anti)
    incl = RepMorphism._of(s1.sub, Q, [pv.columns(0, e) * a for pv, e, a in zip(
        proj.vertex_maps, s1.mid.dim, s1.incl.vertex_maps)])
    down = RepMorphism._of(Q, Msum, [
        _times_complement(Matrix.block(f, [[a, None], [None, b]]), fr)
        for a, b, fr in zip(s1.proj.vertex_maps, s2.proj.vertex_maps, frames)])
    out = SESObject(s1.sub, Q, Msum, incl, down)
    out.validate()
    return out


def glue_subobjects(ctx, s1, s2, Nsum):
    """Glue 0 -> Ni -> Ei -> M -> 0 into the fibered product over M.

    The middle term is ker(g1 - g2) inside E1 (+) E2, an extension of M
    by N1 (+) N2.  With B its kernel basis, the inclusion is the B
    coordinates of diag(f1, f2) and the projection g1 times the E1 rows of B.
    """
    f = ctx.field
    big = ctx.direct_sum(s1.mid, s2.mid)
    bases = [_kernel_columns(Matrix.block(f, [[a, b.scale(-1)]]))
             for a, b in zip(s1.proj.vertex_maps, s2.proj.vertex_maps)]
    incl, _, _, frames = ctx.subrep_frames(big, bases)
    U = incl.source
    up = RepMorphism._of(Nsum, U, [frame_coordinates(fr, Matrix.block(f, [[a, None], [None, b]]))
                                   for fr, a, b in zip(frames, s1.incl.vertex_maps,
                                                       s2.incl.vertex_maps)])
    proj = RepMorphism._of(U, s1.quo, [g * Matrix._of(f, B.entries[:e], e, B.cols)
                                       for g, B, e in zip(s1.proj.vertex_maps, bases,
                                                          s1.mid.dim)])
    out = SESObject(Nsum, U, s1.quo, up, proj)
    out.validate()
    return out


# ---- hexagonators -------------------------------------------------------------------


def hexagonator_R(ctx, ses, y, z):
    """Split 0 -> y (+) z -> E -> x -> 0 into the two quotient sequences.

    Returns (0 -> y -> E/z -> x -> 0, 0 -> z -> E/y -> x -> 0); the input
    subobject must be the chosen direct sum of y and z, whose summand
    columns of the inclusion are sliced off.
    """
    if ses.sub != ctx.direct_sum(y, z):
        raise ValueError("subobject is not the given direct sum")
    f_y = [m.columns(0, k) for m, k in zip(ses.incl.vertex_maps, y.dim)]
    f_z = [m.columns(k, m.cols) for m, k in zip(ses.incl.vertex_maps, y.dim)]
    return (_quotient_piece(ctx, ses, y, f_y, f_z), _quotient_piece(ctx, ses, z, f_z, f_y))


def hexagonator_S(ctx, ses, x, y):
    """Split 0 -> z -> E -> x (+) y -> 0 into the two preimage sequences.

    Returns (0 -> z -> g^{-1}(x) -> x -> 0, 0 -> z -> g^{-1}(y) -> y -> 0).
    Convention: g^{-1}(x) means the preimage of the x summand, so the
    outer terms of the outputs are x and y in that order.  The quotient must
    be the chosen direct sum of x and y, whose summand rows of the
    projection are sliced off.
    """
    if ses.quo != ctx.direct_sum(x, y):
        raise ValueError("quotient is not the given direct sum")
    f = ctx.field
    g_x = [Matrix._of(f, m.entries[:k], k, m.cols) for m, k in zip(ses.proj.vertex_maps, x.dim)]
    g_y = [Matrix._of(f, m.entries[k:], m.rows - k, m.cols)
           for m, k in zip(ses.proj.vertex_maps, x.dim)]
    return (_preimage_piece(ctx, ses, x, g_x, g_y), _preimage_piece(ctx, ses, y, g_y, g_x))


# ---- the braiding span and its comparison with EXT -----------------------------------


class BraidingSpan:
    """Apex of the braiding 1-morphism from X x Y to Y x X.

    X and Y are lists of representations.  Objects are (i, j, ses) with ses
    an extension of X[i]'s class by Y[j]'s class; each (i, j) piece is the
    context's ExtGroupoid, looked up when it is first asked for.
    """

    def __init__(self, ctx, X, Y):
        self.ctx = ctx
        self.X = X
        self.Y = Y

    def piece(self, i, j):
        return ExtGroupoid.of(self.ctx, self.X[i], self.Y[j])

    def entry(self, i, j):
        """Degroupoidified braiding at ((y, x), (x, y)), for x = X[i], y = Y[j].

        |Aut(y)| |Aut(x)| times the triple-convention cardinality of the
        (x, y) piece: q^{-<x, y>} when x and y are census witnesses.  Only
        that piece is built.
        """
        ctx = self.ctx
        return (self.piece(i, j).cardinality_triples()
                * ctx.aut_order(self.X[i]) * ctx.aut_order(self.Y[j]))


def bsim_ext_check(run, ctx, span):
    """Per-piece comparison of a BraidingSpan's apex with the EXT groupoids.

    For every object pair: object counts per middle class must match the
    pair counts, the stabilizer |Aut E| / |orbit| must equal the units of
    the image-preserving subalgebra of End(E) (counted modulo V, read once
    per iso class with the fixed-end checks), the fixed-end automorphism
    group 1 + V must be Hom(quo, sub) as an elementary abelian group (dim V
    from the End(E) kernel against hom_dim from the presentation matrix,
    and V V = 0 on a basis), and the three cardinality routes must agree.
    The span's pieces are used as they are, so their orbit data is shared
    with span.entry().  Each object pair is the instance bsim-ext:<x>|<y>,
    and only the groupoids of the instances run selects are built.
    """
    for i, x in enumerate(span.X):
        for j, y in enumerate(span.Y):
            if not run.want(f"bsim-ext:{ctx.class_of(x).label}|{ctx.class_of(y).label}"):
                continue
            ext = span.piece(i, j)
            for cls in ctx.classify(dim_add(x.dim, y.dim)):
                if cls.label not in ext.pieces and \
                        ctx.count_exact_pairs(x, y, cls.rep) != 0:
                    run.fail(f"piece {cls.label} missing but P^E != 0")
            for e_label in ext.pieces:
                p = ctx.count_exact_pairs(x, y, ext._piece_reps[e_label])
                n = ext.object_count(e_label)
                if n != p:
                    run.fail(f"object count {n} != P^E {p} at {e_label}")
                for ses, stab in ext.iso_classes(e_label):
                    basis = ext.fixed_end_basis(ses)
                    direct = ext.aut_triples_direct(ses, basis)
                    if direct != stab:
                        run.fail(f"direct aut {direct} != stabilizer {stab}")
                    fixed, hom = ctx.q ** len(basis), ctx.q ** ctx.hom_dim(x, y)
                    if fixed != hom:
                        run.fail(f"fixed-end aut {fixed} != |Hom| {hom} at {e_label}")
                    if not _square_zero(ctx, ses.mid, basis):
                        run.fail("fixed-end aut group not elementary abelian")
            direct_card = ext.cardinality_triples()
            formula_card = ext.cardinality_formula()
            closed = closed_form_ext_cardinality(ctx, x, y)
            if not (direct_card == formula_card == closed):
                run.fail(f"cardinalities differ: {direct_card} {formula_card} {closed}")


# ---- multiplication and comultiplication spans ----------------------------------------


def ext_piece_cardinality(ctx, lm, ln, le):
    """Triple-convention cardinality of the le piece of EXT(M, N); 0 off its pieces.

    M and N are the census witnesses of lm and ln: the sum over the iso
    classes of sequences with middle term le of 1/(triple-aut order).
    Only the groupoid of (M, N) is built.
    """
    ext = ExtGroupoid.of(ctx, ctx.class_by_label(lm).rep, ctx.class_by_label(ln).rep)
    return ext.cardinality_triples(le) if le in ext.pieces else Fraction(0)


def mult_span_entry(ctx, le, lm, ln):
    """Degroupoidified multiplication span at row E, column (M, N).

    The degroupoidification formula: |Aut(E)| over the triple-automorphism
    order of each iso class of sequences, summed.
    """
    return ctx.class_by_label(le).aut * ext_piece_cardinality(ctx, lm, ln, le)


def comult_span_entry(ctx, lm, ln, le):
    """Degroupoidified comultiplication span at row (M, N), column E.

    The adjoint span: the weight is |Aut(M)| |Aut(N)| instead of |Aut(E)|.
    Row (m, n) carries the coefficient of [n] (x) [m] in the coproduct.
    """
    return (ctx.class_by_label(lm).aut * ctx.class_by_label(ln).aut
            * ext_piece_cardinality(ctx, lm, ln, le))


def mult_matrix_against_hall(run, ctx, hall, bound):
    """Entrywise comparison of the multiplication span with the Hall product.

    Each entry is the instance mult:<le>|<lm>|<ln>.
    """
    for cm, cn in ctx.class_tuples(bound, 2):
        lm, ln = cm.label, cn.label
        prod = hall.product_basis(lm, ln)
        for ce in ctx.classify(dim_add(cm.dim, cn.dim)):
            if run.want(f"mult:{ce.label}|{lm}|{ln}"):
                span_val = mult_span_entry(ctx, ce.label, lm, ln)
                hall_val = prod.get(ce.label, Fraction(0))
                if span_val != hall_val:
                    run.fail(f"span {span_val} != hall {hall_val}")


def comult_matrix_against_hall(run, ctx, hall, bound):
    """The comultiplication span against the Hall coproduct.

    The coproduct term [n] (x) [m] must equal the span entry at row
    (m, n): quotient first in the row key, subobject first in the tensor.
    Each (M, N, E) with matching grades is the instance
    comult:<lm>|<ln>|<le>: a coproduct term, or an entry with no term,
    which must then be zero.
    """
    classes = ctx.classes_up_to(bound)
    for cls in classes:
        le = cls.label
        order = hall.grade_order(cls.dim)
        terms = {(lm, ln): Fraction(coeff, order)
                 for (ln, lm), coeff in hall.coproduct_basis(le).items()}
        for (lm, ln), coeff in terms.items():
            if run.want(f"comult:{lm}|{ln}|{le}"):
                span_val = comult_span_entry(ctx, lm, ln, le)
                if span_val != coeff:
                    run.fail(f"span {span_val} != hall {coeff}")
        for cm in classes:
            for cn in classes:
                if (cm.label, cn.label) in terms or dim_add(cm.dim, cn.dim) != cls.dim:
                    continue
                if run.want(f"comult:{cm.label}|{cn.label}|{le}"):
                    val = comult_span_entry(ctx, cm.label, cn.label, le)
                    if val != 0:
                        run.fail(f"extra span entry {val}")


# ---- coherence polytopes ---------------------------------------------------------


def coherence_check(run, ctx, name, bound):
    """Run one named coherence check at the given total-dimension bound.

    All checks operate at the object/cardinality level: they verify that
    the relevant composite object assignments agree up to componentwise
    isomorphism and that composite apex cardinalities coincide; 2-cell
    equalities are out of scope and flagged as such in the report.
    Instance ids are the check name for every object of pentagon-strict
    and unitor, and <check>:<a>|<b>|<c>|<d> for one shuffle quadruple.
    """
    if name == "pentagon-strict":
        _check_pentagon_strict(run, ctx, bound)
    elif name == "unitor":
        _check_unitor(run, ctx, bound)
    elif name in SHUFFLES:
        _check_shuffle(run, ctx, name, SHUFFLES[name], bound)
    else:
        raise ValueError(f"unknown coherence check {name!r}; options: {COHERENCE_NAMES}")


def _reassoc(obj):
    """((x, y, m), z, n) -> (x, (y, z, n), m): the associator on pullback tuples."""
    (x, y, m), z, n = obj
    return (x, (y, z, n), m)


def _check_pentagon_strict(run, ctx, bound):
    """Both pentagon composites of re-parenthesization maps agree objectwise.

    The four spans are identity spans on the truncated base, so composite
    objects are witnesses with chains of automorphisms between them.
    """
    if not run.selects("pentagon-strict"):
        return
    for cls in ctx.classes_up_to(bound):
        w = cls.rep
        wi = cls.label
        check_budget(f"pentagon-strict Aut({wi})^3 loop", cls.aut ** 3, ctx.budget)
        auts = [m.vertex_maps for m in ctx.aut_elements(w)]
        for a in auts:
            for b in auts:
                for c in auts:
                    run.want("pentagon-strict")     # one instance per object
                    obj = (((wi, wi, a), wi, b), wi, c)
                    via_back = _reassoc((_reassoc(obj[0]), obj[1], obj[2]))
                    via_back = (via_back[0], _reassoc(via_back[1]), via_back[2])
                    via_front = _reassoc(_reassoc(obj))
                    if via_back != via_front:
                        run.fail(f"pentagon mismatch at {wi}")


def _check_unitor(run, ctx, bound):
    """The unitor triangle: both routes send ((t, y, f), s, g) to (t, s, g . f)."""
    if not run.selects("unitor"):
        return
    for cls in ctx.classes_up_to(bound):
        w = cls.rep
        wi = cls.label
        check_budget(f"unitor Aut({wi})^2 loop", cls.aut ** 2, ctx.budget)
        auts = ctx.aut_elements(w)
        for fm in auts:
            for gm in auts:
                run.want("unitor")                  # one instance per object
                composite = gm.compose(fm).vertex_maps
                via_assoc = _reassoc(((wi, wi, fm.vertex_maps), wi, gm.vertex_maps))
                # T . l collapses the middle unit leg by composing the alphas
                left_route = (via_assoc[0], via_assoc[1][1],
                              _compose_keys(ctx, w, via_assoc[1][2], via_assoc[2]))
                right_route = (wi, wi, composite)
                if left_route != right_route:
                    run.fail(f"unitor mismatch at {wi}")


def _compose_keys(ctx, w, inner_key, outer_key):
    g = RepMorphism(w, w, list(inner_key))
    f = RepMorphism(w, w, list(outer_key))
    return g.compose(f).vertex_maps


def _path_value(ctx, pieces, outer_reps):
    """Cardinality of a composite of braiding spans over fixed witnesses.

    pieces lists the path's braid pieces as (quo, sub) representation
    pairs.  Each piece contributes its fixed-end cardinality
    q^{-<quo, sub>}, each of the ambient objects divides by its
    automorphism count once; the middle-groupoid automorphism factors of
    the weak pullbacks cancel the repeated divisions, leaving this product
    for every path.
    """
    val = Fraction(1)
    for quo, sub in pieces:
        val *= q_power(ctx.q, -ctx.euler_form(quo.dim, sub.dim))
    for rep in outer_reps:
        val /= ctx.aut_order(rep)
    return val


def _check_shuffle(run, ctx, name, shape, bound):
    """One coherence shuffle on every class quadruple (a, b, c, d) within bound.

    shape(ctx, split, a, b, c, d) returns the outer terms (quo, sub) of the
    extensions to split, slots(ses) listing (slot, route-one piece,
    route-two piece) for one sequence, and the polytope's named paths as
    lists of (quo, sub) braid pieces.  slots splits only through
    split(hexagonator, ses, y, z), which calls hexagonator(ctx, ses, y, z)
    once per distinct input for the length of this check: quadruples whose
    direct sums coincide (zero summands) walk the same sequences.  On every
    object of EXT(quo, sub) the two routes must agree slotwise (outer terms
    literal, middle terms isomorphic), the path cardinalities must all be
    equal, and every piece on a path must have fixed-end cardinality
    q^{-<quo, sub>}.
    """
    splits = {}

    def split(hexagonator, ses, y, z):
        # incl fixes sub and mid, proj fixes quo: the key fixes the sequence
        key = (hexagonator, ses.incl, ses.proj, y, z)
        out = splits.get(key)
        if out is None:
            out = splits[key] = hexagonator(ctx, ses, y, z)
        return out

    for classes in ctx.class_tuples(bound, 4):
        if not run.want(f"{name}:" + "|".join(c.label for c in classes)):
            continue
        outer = tuple(c.rep for c in classes)
        (quo, sub), slots, paths = shape(ctx, split, *outer)
        ext = ExtGroupoid.of(ctx, quo, sub)
        for e_label in ext.pieces:
            for ses in ext.objects(e_label):
                for slot, one, two in slots(ses):
                    if not (one.sub == two.sub and one.quo == two.quo
                            and ctx.is_isomorphic(one.mid, two.mid)):
                        run.fail(f"slot {slot} differs at {e_label}")
                        break
        values = {k: _path_value(ctx, v, outer) for k, v in paths.items()}
        if len(set(values.values())) != 1:
            run.fail(f"path cardinalities differ: {values}")
        for q, s in dict.fromkeys(pair for path in paths.values() for pair in path):
            if ExtGroupoid.of(ctx, q, s).cardinality_fixed_ends() != q_power(
                    ctx.q, -ctx.euler_form(q.dim, s.dim)):
                run.fail(f"fixed-end piece value off for "
                         f"{ctx.class_of(q).label},{ctx.class_of(s).label}")


def _shuffle_13(ctx, split, a, b, c, d):
    """The R tetrahedron: splitting one object past three, both orders.

    Every extension of a by b (+) (c (+) d), split at b then at (c, d),
    must agree slotwise with its split at d then at (b, c).
    """
    cd, bc = ctx.direct_sum(c, d), ctx.direct_sum(b, c)
    sub = ctx.direct_sum(b, cd)

    def slots(ses):
        top_b, top_cd = split(hexagonator_R, ses, b, cd)
        top_c, top_d = split(hexagonator_R, top_cd, c, d)
        bot_bc, bot_d = split(hexagonator_R, ses, bc, d)
        bot_b, bot_c = split(hexagonator_R, bot_bc, b, c)
        return [("b", top_b, bot_b), ("c", top_c, bot_c), ("d", top_d, bot_d)]

    return (a, sub), slots, {
        "short": [(a, sub)],
        "top": [(a, b), (a, cd)],
        "bottom": [(a, bc), (a, d)],
        "long": [(a, b), (a, c), (a, d)],
    }


def _shuffle_31(ctx, split, a, b, c, d):
    """The S tetrahedron: splitting three objects past one, both orders.

    Every extension of (a (+) b) (+) c by d, split at (a (+) b, c) then at
    (a, b), must agree slotwise with its split at (a, b (+) c) then at
    (b, c).  S convention: g^{-1}(x) is the preimage of the x summand, and
    hexagonator_S orders its outputs (x, y) to match the hexagon.
    """
    ab, bc = ctx.direct_sum(a, b), ctx.direct_sum(b, c)
    quo = ctx.direct_sum(ab, c)

    def slots(ses):
        top_ab, top_c = split(hexagonator_S, ses, ab, c)
        top_a, top_b = split(hexagonator_S, top_ab, a, b)
        bot_a, bot_bc = split(hexagonator_S, ses, a, bc)
        bot_b, bot_c = split(hexagonator_S, bot_bc, b, c)
        return [("a", top_a, bot_a), ("b", top_b, bot_b), ("c", top_c, bot_c)]

    return (quo, d), slots, {
        "short": [(quo, d)],
        "top": [(ab, d), (c, d)],
        "bottom": [(a, d), (bc, d)],
        "long": [(a, d), (b, d), (c, d)],
    }


def _shuffle_22(ctx, split, a, b, c, d):
    """The truncated cube: two objects past two, S-first versus R-first.

    Both composite splittings of an extension of a (+) b by c (+) d must
    give componentwise isomorphic quadruples; the S convention is that of
    _shuffle_31.
    """
    ab, cd = ctx.direct_sum(a, b), ctx.direct_sum(c, d)

    def slots(ses):
        sa, sb = split(hexagonator_S, ses, a, b)
        s_ac, s_ad = split(hexagonator_R, sa, c, d)
        s_bc, s_bd = split(hexagonator_R, sb, c, d)
        rc, rd = split(hexagonator_R, ses, c, d)
        r_ac, r_bc = split(hexagonator_S, rc, a, b)
        r_ad, r_bd = split(hexagonator_S, rd, a, b)
        return [("ac", s_ac, r_ac), ("ad", s_ad, r_ad), ("bc", s_bc, r_bc),
                ("bd", s_bd, r_bd)]

    return (ab, cd), slots, {
        "P1-direct": [(ab, cd)],
        "P2-split-ab": [(a, cd), (b, cd)],
        "P3-split-cd": [(ab, c), (ab, d)],
        "P4-top-back": [(a, cd), (b, c), (b, d)],
        "P5-bottom-back": [(a, c), (a, d), (b, cd)],
        "P6-longest": [(a, c), (a, d), (b, c), (b, d)],
    }


SHUFFLES = {"shuffle-1-3": _shuffle_13, "shuffle-3-1": _shuffle_31,
            "shuffle-2-2": _shuffle_22}

COHERENCE_NAMES = ("pentagon-strict", "unitor") + tuple(SHUFFLES)

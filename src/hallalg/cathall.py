"""Categorified structure over the groupoid of representations.

This module builds the short-exact-sequence groupoids with fixed outer
terms, the braiding span they assemble into, the degroupoidified
multiplication/comultiplication matrices and the hexagonators, and
computes the cardinalities that tie them back to the Hall algebra.  The
checks that compare them live in verify.py; nothing here takes a Run.

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

Every value says which convention it uses.
"""

from fractions import Fraction
from weakref import proxy

from .hall import q_power
from .linalg import (Matrix, blocks_invertible, check_budget, flatten, frame_coordinates,
                     span_points, unflatten)
from .quiver import RepMorphism, commutes, dim_add, entry_product, kept


class SESObject:
    """A short exact sequence 0 -> sub -> mid -> quo -> 0 with explicit maps,
    equal to another by (incl, proj): incl fixes sub and mid, proj fixes quo."""

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
        if not (commutes(f, p) and commutes(g, p)):
            raise ValueError("maps are not representation morphisms")
        if any(m.rank() != m.cols for m in f.vertex_maps):
            raise ValueError("inclusion is not injective")
        if any(m.rank() != m.rows for m in g.vertex_maps):
            raise ValueError("projection is not surjective")
        if any(any(row) for a, b in zip(g.vertex_maps, f.vertex_maps)
               for row in entry_product(a, b, p)):
            raise ValueError("composite sub -> quo is nonzero")
        return True

    def __eq__(self, other):
        return isinstance(other, SESObject) and (self.incl, self.proj) == (other.incl, other.proj)

    def __hash__(self):
        return hash((self.incl, self.proj))

    def __repr__(self):
        return f"SES({self.sub.dim} -> {self.mid.dim} -> {self.quo.dim})"


# ---- the EXT groupoids ----------------------------------------------------------


class ExtGroupoid:
    """All short exact sequences 0 -> N -> E -> M -> 0 with fixed M and N.

    A sequence (f, g) factors through its image subobject U = im f as
    f = incl . nu and g = mu . proj, with nu: N -> U and mu: E/U -> M
    isomorphisms.  Iso(N, U) and Iso(E/U, M) are torsors under Aut N and
    Aut M, so a piece keeps one first sequence (incl . nu0, mu0 . proj) per
    image subobject U ~ N with E/U ~ M, nu0 and mu0 the first_iso of each:
    products of orbit-tree transporters, with no Hom space walked, shared
    by every image whose U or E/U is equal.  objects() builds the others as
    (f . nu, mu . g) for nu in Aut N and mu in Aut M.  The images are the
    census walk's subobjects of the classes of N and M.  Morphism counts
    come from the (Aut N x Aut M)-orbits of extension classes and from
    units of linear subspaces of End(E); Aut(E) itself is never enumerated.

    Checks take the context's shared groupoid from ExtGroupoid.of; calling
    the class directly builds an unshared one.
    """

    @staticmethod
    @kept
    def of(ctx, M, N):
        """The context's one groupoid for (M, N), kept in its memo; weak ctx: no cycle."""
        return ExtGroupoid(proxy(ctx), M, N)

    def __init__(self, ctx, M, N):
        self.ctx = ctx
        self.M = M
        self.N = N
        self.pieces = {}          # E label -> the first sequence of each image subobject
        self._memo = {}           # _orbits per E label, and _cocycle_actions
        cm, cn = ctx.class_of(M), ctx.class_of(N)
        for cls in ctx.classify(dim_add(M.dim, N.dim)):
            images = ctx.class_subreps(cls.rep, cn, cm)
            if images:
                self.pieces[cls.label] = [
                    SESObject(N, cls.rep, M, incl.compose(ctx.first_iso(N, incl.source)),
                              ctx.first_iso(Q, M).compose(proj)) for incl, Q, proj in images]

    def object_count(self, e_label=None):
        """Images times |Aut N| |Aut M|, the groups as aut_elements lists them;
        neither is listed when there is no image."""
        labels = self.pieces if e_label is None else [e_label]
        images = sum(len(self.pieces.get(e, ())) for e in labels)
        return images and images * len(self.ctx.aut_elements(self.N)) * len(
            self.ctx.aut_elements(self.M))

    def objects(self, e_label):
        """The sequences of one piece, built on demand and budgeted as a whole.

        Per first sequence (f, g), in piece order: (f . nu, mu . g) for nu in
        Aut N, then mu in Aut M, in aut_elements order.  Each f . nu and
        mu . g is composed once.
        """
        ctx, M, N = self.ctx, self.M, self.N
        check_budget(f"EXT({ctx.class_of(M).label}, {ctx.class_of(N).label}) "
                     f"objects of piece {e_label}", self.object_count(e_label), ctx.budget)
        for ses in self.pieces[e_label]:
            gs = [mu.compose(ses.proj) for mu in ctx.aut_elements(M)]
            for nu in ctx.aut_elements(N):
                f = ses.incl.compose(nu)
                for g in gs:
                    yield SESObject(N, ses.mid, M, f, g)

    @kept
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
        and a ValueError names the piece when the division is not exact.
        """
        ctx, M, N = self.ctx, self.M, self.N
        group_of = {}                 # reduced class -> index into groups
        groups = []                   # (representative index, orbit indices)
        for i, ses in enumerate(self.pieces[e_label]):
            c = ctx.extension_class(M, N, ses.mid, ses.incl, ses.proj)
            if c not in group_of:
                for moved in self._orbit(c):
                    group_of[moved] = len(groups)
                groups.append((i, set()))
            groups[group_of[c]][1].add(i)
        aut_e = ctx.aut_order(self.pieces[e_label][0].mid)
        orbits = []
        for i, orbit in groups:
            stab, r = divmod(aut_e, len(orbit))
            if r:
                raise ValueError(f"|Aut {e_label}| = {aut_e} is no multiple of orbit {len(orbit)}")
            orbits.append((i, orbit, stab))
        return orbits, set(group_of)

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

    @kept
    def _cocycle_actions(self):
        """The action c -> nu c mu of Aut N x Aut M on flat cocycles, as matrices.

        Returns (lefts, rights): per nu in Aut N the matrix of
        c -> reduce(nu_t c_a), and per mu in Aut M that of c -> c_a mu_s, in
        aut_elements order.  reduce(nu c mu) is lefts[nu] rights[mu] c, as
        reduce_cocycle is linear.  Both are empty when Ext^1(M, N) = 0, and
        neither group is listed then; otherwise |Aut N| |Aut M| is checked
        against the budget before the lists are built.  Built once per
        groupoid.
        """
        ctx, M, N = self.ctx, self.M, self.N
        f, arrows = ctx.field, ctx.quiver.arrows
        shapes = ctx.cocycle_blocks(M, N)
        comp, reduction = ctx.ext_complement(M, N)
        if not comp:
            return [], []
        check_budget(f"Aut N x Aut M enumeration for dims {N.dim}, {M.dim} "
                     f"over F_{ctx.q}", ctx.aut_order(N) * ctx.aut_order(M), ctx.budget)
        return ([reduction * _block_action(f, shapes, [nu.vertex_maps[t] for _, t in arrows],
                                           True) for nu in ctx.aut_elements(N)],
                [_block_action(f, shapes, [mu.vertex_maps[s] for s, _ in arrows], False)
                 for mu in ctx.aut_elements(M)])

    def extension_classes(self):
        """The reduced extension classes of all objects: the fixed-end iso classes."""
        return set().union(*(self._orbits(e)[1] for e in self.pieces))

    def iso_classes(self, e_label):
        """(representative SESObject, triple-aut order) per class."""
        firsts = self.pieces[e_label]
        return [(firsts[i], stab) for i, _, stab in self._orbits(e_label)[0]]

    def end_bases(self, ses):
        """(V, C): bases of the fixed-end ideal V and of a complement C of V
        in the image-preserving subalgebra A, as flat lists.

        A = {beta in End E : g beta f = 0} = {beta : beta(U) <= U} and
        V = {phi : phi f = 0, g phi = 0}.  Each hom_basis(E, E) element b is
        multiplied once, into b f and g b: A is the kernel of (g b) f, and V
        the kernel of (b f, g b) read in A's coordinates.  C is the A-basis
        vectors at the pivot columns of that kernel's matrix; the kernel is
        zero on their span, so it meets V only in 0, and the dimensions add up.

        The automorphisms with alpha = id and gamma = id are the betas
        1 + phi, phi in V.  V V = 0 (g phi = 0 puts im phi inside im f, and
        psi f = 0), so (1 + a)(1 + b) = 1 + a + b: every such beta is a unit,
        and they form a group isomorphic to (V, +), of order q^{dim V}.
        """
        ctx, f, g = self.ctx, ses.incl.vertex_maps, ses.proj.vertex_maps
        basis = ctx.hom_basis(ses.mid, ses.mid)
        ends = [[(b * fv, gv * b) for b, fv, gv in zip(h.vertex_maps, f, g)] for h in basis]
        in_a = Matrix(ctx.field, [flatten(gb * fv for (_, gb), fv in zip(e, f))
                                  for e in ends]).transpose().kernel_basis()
        coords = Matrix(ctx.field, [flatten(h.vertex_maps) for h in basis]).transpose()
        both = Matrix(ctx.field, [flatten(m for pair in e for m in pair)
                                  for e in ends]).transpose()
        A = [coords.apply(a) for a in in_a]
        ends_of_a = Matrix(ctx.field, [both.apply(a) for a in in_a]).transpose()
        from_a = Matrix(ctx.field, A).transpose()
        return ([from_a.apply(v) for v in ends_of_a.kernel_basis()],
                [A[c] for c in ends_of_a.rref()[1]])

    def aut_triples_direct(self, ses, fixed, complement):
        """Automorphisms (alpha, beta, gamma) of one object, counted directly.

        Each beta in Aut(E) preserving the image U induces unique alpha and
        gamma, so this counts the units of A, given end_bases(ses) as fixed
        (V) and complement (C).  V is a two-sided ideal of A (beta f =
        f alpha and g beta = gamma g for beta in A), and V V = 0, so V lies
        in the radical of A and a + V holds only units or no unit:
        |A^x| = q^{dim V} times the units of span(C).  Only the q^{dim C}
        points of span(C) are walked.
        """
        return self.ctx.q ** len(fixed) * _units(self.ctx, ses.mid, complement)

    def cardinality_triples(self, e_label=None):
        """Sum over iso classes of 1/(triple-aut order): the weak-quotient value.

        With e_label, the sum runs over the classes of that piece only.
        """
        labels = self.pieces if e_label is None else [e_label]
        return sum((Fraction(1, stab) for e in labels for _, _, stab in self._orbits(e)[0]),
                   Fraction(0))


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


def _units(ctx, E, basis):
    """The number of invertible points of span(basis) in End(E), walked by
    span_points and tested vertex block by vertex block."""
    p = ctx.q
    points = span_points(ctx.field, basis, sum(d * d for d in E.dim),
                         f"End{E.dim} subspace enumeration dim {len(basis)} over F_{p}",
                         ctx.budget)
    return sum(1 for point in points if blocks_invertible(point, E.dim, p))


def square_zero(ctx, E, basis):
    """Whether psi phi = 0 in End(E) for every pair of flat basis elements.

    Checked vertex block by vertex block: k^2 products, nothing enumerated.
    """
    shapes = [(d, d) for d in E.dim]
    blocks = [unflatten(ctx.field, flat, shapes) for flat in basis]
    return all((a * b).is_zero() for psi in blocks for phi in blocks
               for a, b in zip(psi, phi))


# ---- cardinalities, Riedtmann and bilinearity --------------------------------


def closed_form_ext_cardinality(ctx, M, N):
    """q^{-<m, n>} / (aut N . aut M), as an exact rational."""
    return Fraction(q_power(ctx.q, -ctx.euler_form(M.dim, N.dim)),
                    ctx.aut_order(N) * ctx.aut_order(M))


def fixed_end_cardinality(ctx, M, N):
    """sum_E P^E / aut E over the middle terms E: the fixed-end cardinality of
    EXT(M, N), equal to q^{-<m,n>}.  Read off the census and kept per pair
    of classes; no groupoid is built."""
    return _fixed_end_sum(ctx, ctx.class_of(M), ctx.class_of(N))


@kept
def _fixed_end_sum(ctx, cm, cn):
    """fixed_end_cardinality for the classes cm and cn."""
    return sum((Fraction(ctx.pair_count(cm, cn, ce), ce.aut)
                for ce in ctx.classify(dim_add(cm.dim, cn.dim))), Fraction(0))


def riedtmann_count(ctx, M, N, E):
    """|Ext^1(M,N)_E| |Aut E| / |Hom(M,N)|: Riedtmann's value of P^E_{MN}.

    The extension-class count enumerates canonical cocycle class
    representatives, builds each middle term, and tests isomorphism with E.
    """
    ext_e = sum(1 for vec in ctx.ext_class_reps(M, N)
                if ctx.is_isomorphic(ctx.middle_term(M, N, vec), E))
    return Fraction(ext_e * ctx.aut_order(E), ctx.q ** ctx.hom_dim(M, N))


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
    ctx.middle_term_ses builds from its reduced cocycle.  split_sequence is
    not used: bilinearity asks for no split twice on one context, so its
    memo would only keep every piece alive with the context.

    Returns (lhs, rhs, splits, pairs): the fixed-end cardinality of EXT with
    part1 (+) part2 in the slot and the product of those with each part,
    {class: ((class of s1, class of s2), class of the glued sequence)} over
    the extension classes of the whole, and n1 n2, the number of pairs of
    extension classes of the parts.
    """
    def ends(x):
        return (x, other) if slot == 0 else (other, x)

    def ext_class(ses):
        return ctx.extension_class(ses.quo, ses.sub, ses.mid, ses.incl, ses.proj)

    whole = ctx.direct_sum(part1, part2)
    lhs = fixed_end_cardinality(ctx, *ends(whole))
    rhs = fixed_end_cardinality(ctx, *ends(part1)) * fixed_end_cardinality(ctx, *ends(part2))
    ext_sum = ExtGroupoid.of(ctx, *ends(whole))
    splits = {}
    for cls in ext_sum.extension_classes():
        E, incl, proj = ctx.middle_term_ses(ext_sum.M, ext_sum.N, cls)
        s1, s2 = split(ctx, SESObject(ext_sum.N, E, ext_sum.M, incl, proj), part1, part2)
        splits[cls] = (ext_class(s1), ext_class(s2)), ext_class(glue(ctx, s1, s2, whole))
    n1 = len(ExtGroupoid.of(ctx, *ends(part1)).extension_classes())
    n2 = len(ExtGroupoid.of(ctx, *ends(part2)).extension_classes())
    return lhs, rhs, splits, n1 * n2


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
    _, Q, proj, frames = ctx.subrep_frames(ses.mid, tuple(f_kill))
    incl = RepMorphism._of(keep, Q, [pv * fv for pv, fv in zip(proj.vertex_maps, f_keep)])
    down = RepMorphism._of(Q, ses.quo, [_times_complement(gv, fr)
                                        for gv, fr in zip(ses.proj.vertex_maps, frames)])
    out = SESObject(keep, Q, ses.quo, incl, down)
    out.validate()
    return out


def _preimage_piece(ctx, ses, keep, g_keep, g_kill):
    """0 -> sub -> ker g_kill -> keep -> 0 for the g_keep part of ses's projection."""
    bases = tuple(_kernel_columns(m) for m in g_kill)
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
    anti = tuple(Matrix.block(f, [[a], [b.scale(-1)]])
                 for a, b in zip(s1.incl.vertex_maps, s2.incl.vertex_maps))
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
    bases = tuple(_kernel_columns(Matrix.block(f, [[a, b.scale(-1)]]))
                  for a, b in zip(s1.proj.vertex_maps, s2.proj.vertex_maps))
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


@kept
def split_sequence(ctx, hexagonator, ses, y, z):
    """hexagonator(ctx, ses, y, z), kept on the context by content: a
    SESObject is equal to another by (incl, proj).  Sequences that are equal
    but built apart share their split, and so do their second-level splits;
    each piece is validated when the hexagonator first builds it."""
    return hexagonator(ctx, ses, y, z)


# ---- the braiding span ---------------------------------------------------------------


def braiding_entry(ctx, cx, cy):
    """Degroupoidified braiding span at ((y, x), (x, y)), for the classes cx and cy.

    |Aut(y)| |Aut(x)| times the triple-convention cardinality of
    EXT(x, y) on the census witnesses: q^{-<x, y>}.  Only that groupoid is
    built.
    """
    return ExtGroupoid.of(ctx, cx.rep, cy.rep).cardinality_triples() * cx.aut * cy.aut


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


# ---- coherence shuffle shapes -------------------------------------------------------


def _shuffle_13(ctx, a, b, c, d):
    """The R tetrahedron: splitting one object past three, both orders.

    Every extension of a by b (+) (c (+) d), split at b then at (c, d),
    must agree slotwise with its split at d then at (b, c).
    """
    cd, bc = ctx.direct_sum(c, d), ctx.direct_sum(b, c)
    sub = ctx.direct_sum(b, cd)

    def slots(ses):
        top_b, top_cd = split_sequence(ctx, hexagonator_R, ses, b, cd)
        top_c, top_d = split_sequence(ctx, hexagonator_R, top_cd, c, d)
        bot_bc, bot_d = split_sequence(ctx, hexagonator_R, ses, bc, d)
        bot_b, bot_c = split_sequence(ctx, hexagonator_R, bot_bc, b, c)
        return [("b", top_b, bot_b), ("c", top_c, bot_c), ("d", top_d, bot_d)]

    return (a, sub), slots, [(a, sub), (a, b), (a, cd), (a, bc), (a, d), (a, c)]


def _shuffle_31(ctx, a, b, c, d):
    """The S tetrahedron: splitting three objects past one, both orders.

    Every extension of (a (+) b) (+) c by d, split at (a (+) b, c) then at
    (a, b), must agree slotwise with its split at (a, b (+) c) then at
    (b, c).  S convention: g^{-1}(x) is the preimage of the x summand, and
    hexagonator_S orders its outputs (x, y) to match the hexagon.
    """
    ab, bc = ctx.direct_sum(a, b), ctx.direct_sum(b, c)
    quo = ctx.direct_sum(ab, c)

    def slots(ses):
        top_ab, top_c = split_sequence(ctx, hexagonator_S, ses, ab, c)
        top_a, top_b = split_sequence(ctx, hexagonator_S, top_ab, a, b)
        bot_a, bot_bc = split_sequence(ctx, hexagonator_S, ses, a, bc)
        bot_b, bot_c = split_sequence(ctx, hexagonator_S, bot_bc, b, c)
        return [("a", top_a, bot_a), ("b", top_b, bot_b), ("c", top_c, bot_c)]

    return (quo, d), slots, [(quo, d), (ab, d), (c, d), (a, d), (bc, d), (b, d)]


def _shuffle_22(ctx, a, b, c, d):
    """The truncated cube: two objects past two, S-first versus R-first.

    Both composite splittings of an extension of a (+) b by c (+) d must
    give componentwise isomorphic quadruples; the S convention is that of
    _shuffle_31.
    """
    ab, cd = ctx.direct_sum(a, b), ctx.direct_sum(c, d)

    def slots(ses):
        sa, sb = split_sequence(ctx, hexagonator_S, ses, a, b)
        s_ac, s_ad = split_sequence(ctx, hexagonator_R, sa, c, d)
        s_bc, s_bd = split_sequence(ctx, hexagonator_R, sb, c, d)
        rc, rd = split_sequence(ctx, hexagonator_R, ses, c, d)
        r_ac, r_bc = split_sequence(ctx, hexagonator_S, rc, a, b)
        r_ad, r_bd = split_sequence(ctx, hexagonator_S, rd, a, b)
        return [("ac", s_ac, r_ac), ("ad", s_ad, r_ad), ("bc", s_bc, r_bc),
                ("bd", s_bd, r_bd)]

    return (ab, cd), slots, [(ab, cd), (a, cd), (b, cd), (ab, c), (ab, d), (b, c), (b, d),
                             (a, c), (a, d)]


SHUFFLES = {"shuffle-1-3": _shuffle_13, "shuffle-3-1": _shuffle_31,
            "shuffle-2-2": _shuffle_22}

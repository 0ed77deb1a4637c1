"""Slow brute-force oracles that only the tests call.

Each one recomputes a quantity the library computes by a faster route:
by enumerating every candidate morphism and testing it directly, by
the one-vector-at-a-time linear algebra the library replaced, by a
walk over every dimension vector or a per-quadruple join of sparse
indexes where the library scatters whole rows of Green's formula, by
walking every point of an End-subalgebra where the library walks a
complement of its fixed-end ideal, or with Fraction coefficients where
the library keeps int numerators.  path_value is the Euler-form formula
for a composite of braiding spans that the groupoid engine's composed
apexes are compared with.
The *_by_solve splittings and gluings build their induced maps by linear
solves through block inclusions and projections, where the library slices
maps and reads them off subspace frames.  Library API that only the tests
call lives here too: the morphism predicates, quotient_with_projection,
the entry-by-entry subspace and matrix walks, zero and simple
representations, identity morphisms, dim Ext^1, and at the end the
finite-sets and action groupoids, the JSON exporters, the braiding and its
inverse accumulated term by term, the exact-coefficient coproduct, the
shape-based Dynkin classifier that the Tits-form test
replaced, and the End(M) idempotent walk and root scan that the plethystic
log of the class counts replaced.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod

from hallalg.cathall import SESObject, _units
from hallalg.groupoids import (ConcreteGroupoid, GroupoidFormatError, _validate_group_table,
                               groupoid_to_json)
from hallalg.hall import HallVector, q_power
from hallalg.linalg import (DEFAULT_BUDGET, Matrix, PrimeField, check_budget, enumerate_vectors,
                            flatten, gaussian_binomial, gl_generators, gl_order, unflatten)
from hallalg.quiver import (Representation, RepMorphism, block_inclusion, block_projection,
                            dim_add, dim_vectors_with_total)


def zero_matrix(field, rows, cols):
    return Matrix(field, [[0] * cols] * rows, rows, cols)


def matrix_inverse(m):
    """The inverse of a square matrix, solve_matrix(I); None when singular."""
    return m.solve_matrix(Matrix.identity(m.field, m.rows))


def enumerate_matrices(rows, cols, p, budget=DEFAULT_BUDGET):
    """Yield every rows x cols matrix over F_p exactly once.

    Order is lexicographic on the row-major entry tuple, so the zero
    matrix always comes first and runs are reproducible.
    """
    field = PrimeField(p)
    check_budget(f"matrix enumeration {rows}x{cols} over F_{p}", p ** (rows * cols), budget)
    for flat in enumerate_vectors(field, rows * cols):
        yield unflatten(field, flat, ((rows, cols),))[0]


def zero_rep(quiver, field):
    return Representation(quiver, field, (0,) * quiver.n,
                          [zero_matrix(field, 0, 0) for _ in quiver.arrows])


def simple_rep(quiver, field, vertex):
    dim = tuple(int(v == vertex) for v in range(quiver.n))
    return Representation(quiver, field, dim,
                          [zero_matrix(field, dim[t], dim[s]) for s, t in quiver.arrows])


def identity_morphism(rep):
    return RepMorphism(rep, rep, [Matrix.identity(rep.field, d) for d in rep.dim])


def ext1_dim(ctx, M, N):
    """dim Ext^1(M, N): the cocycle dimension minus the rank of the
    presentation matrix."""
    phi = ctx._presentation_matrix(M, N)[0]
    return phi.rows - phi.rank()


def is_invertible(mor):
    """Whether every vertex map of a morphism is square of full rank."""
    return all(m.rows == m.cols == m.rank() for m in mor.vertex_maps)


def is_valid(mor):
    """Whether every arrow square of a morphism commutes."""
    return all(mor.target.edge_maps[k] * mor.vertex_maps[s]
               == mor.vertex_maps[t] * mor.source.edge_maps[k]
               for k, (s, t) in enumerate(mor.source.quiver.arrows))


def is_injective(mor):
    return all(m.rank() == m.cols for m in mor.vertex_maps)


def is_surjective(mor):
    return all(m.rank() == m.rows for m in mor.vertex_maps)


def is_zero(mor):
    return all(m.is_zero() for m in mor.vertex_maps)


def inverse(mor):
    """The inverse of an isomorphism, vertex map by vertex map."""
    return RepMorphism(mor.target, mor.source, [matrix_inverse(m) for m in mor.vertex_maps])


def quotient_with_projection(ctx, E, f_mor):
    """(E / im f, projection E -> E / im f) for an injective f, read off
    RepCategory.subrep_frames; a bad f raises on every call."""
    return ctx.subrep_frames(E, f_mor.vertex_maps)[1:3]


def enumerate_subspaces(field, n, k, budget=DEFAULT_BUDGET):
    """All k-dimensional subspaces of F_p^n, one canonical basis matrix each:
    the n x k transpose of each reduced row echelon form, built entry by
    entry, in the order of linalg.subspace_frames."""
    check_budget(f"subspace enumeration ({n} choose {k})_{field.p}",
                 gaussian_binomial(n, k, field.p), budget)
    for pivots in combinations(range(n), k):
        free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, n) if c not in pivots]
        for values in enumerate_vectors(field, len(free)):
            rows = [[field.zero] * n for _ in range(k)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = field.one
            for (r, c), x in zip(free, values):
                rows[r][c] = x
            yield Matrix(field, rows, k, n).transpose()


def span_elements(ctx, basis, src, tgt):
    """Every combination of basis (morphisms src -> tgt), in coefficient order."""
    k = len(basis)
    check_budget(f"Hom-space span enumeration dim {k}", ctx.q ** k, ctx.budget)
    flats = [flatten(b.vertex_maps) for b in basis]
    shapes = [(t, s) for s, t in zip(src.dim, tgt.dim)]
    out = []
    for coeffs in enumerate_vectors(ctx.field, k):
        flat = [sum(c * b[i] for c, b in zip(coeffs, flats)) % ctx.q
                for i in range(sum(s * t for s, t in shapes))]
        out.append(RepMorphism(src, tgt, unflatten(ctx.field, tuple(flat), shapes)))
    return out


def enumerate_gl(field, d, budget=DEFAULT_BUDGET):
    """All invertible d x d matrices over F_p, built row by row.

    Each new row is any vector outside the span of the previous rows, so
    exactly gl_order(d, p) matrices are produced, with no wasted rank checks.
    """
    p = field.p
    check_budget(f"GL_{d}(F_{p}) enumeration", gl_order(d, p), budget)
    if d == 0:
        yield Matrix.identity(field, 0)
        return

    def extend(rows, span):
        if len(rows) == d:
            yield Matrix(field, rows, d, d)
            return
        for v in enumerate_vectors(field, d):
            if v in span:
                continue
            new_span = set()
            for s in span:
                for c in range(p):
                    new_span.add(tuple((a + c * b) % p for a, b in zip(s, v)))
            yield from extend(rows + (v,), new_span)

    yield from extend((), {(0,) * d})


def iso_set_by_products(ctx, M, N):
    """Every isomorphism M -> N, as a set of vertex-map tuples: the product
    of the per-vertex GL enumerations for a semisimple pair, otherwise the
    invertible combinations of hom_basis(M, N)."""
    if M.dim != N.dim or not ctx.is_isomorphic(M, N):
        return set()
    if all(m.is_zero() for m in M.edge_maps + N.edge_maps):
        return set(product(*(list(enumerate_gl(ctx.field, d)) for d in M.dim)))
    return {mor.vertex_maps for mor in span_elements(ctx, ctx.hom_basis(M, N), M, N)
            if is_invertible(mor)}


def image_key(mor):
    """Canonical key of the image subobject of a morphism: per vertex, the
    reduced row-echelon basis of the column span of its map."""
    key = []
    for m in mor.vertex_maps:
        red, pivots = m.transpose().rref()
        key.append(tuple(red.entries[:len(pivots)]))
    return tuple(key)


def aut_order_slow(ctx, M):
    """|Aut(M)|: the invertible elements of the End(M) span, counted directly."""
    return sum(1 for phi in span_elements(ctx, ctx.hom_basis(M, M), M, M)
               if is_invertible(phi))


def count_exact_pairs_slow(ctx, M, N, E):
    """P^E_{MN}: every (f, g) in Hom(N, E) x Hom(E, M) tested for exactness."""
    ctx._same_quiver(M, N, E)
    if dim_add(M.dim, N.dim) != E.dim:
        return 0
    fs = span_elements(ctx, ctx.hom_basis(N, E), N, E)
    gs = span_elements(ctx, ctx.hom_basis(E, M), E, M)
    count = 0
    for fm in fs:
        if not is_injective(fm):
            continue
        for gm in gs:
            if not is_surjective(gm):
                continue
            if is_zero(gm.compose(fm)):
                count += 1
    return count


def morphism_count(ext, ses1, ses2):
    """Triples (alpha, beta, gamma) from ses1 to ses2 in an ExtGroupoid.

    Each beta in Aut(E) moving the image of ses1 onto that of ses2 gives
    exactly one triple.
    """
    if ses1.mid != ses2.mid:
        return 0
    k2 = image_key(ses2.incl)
    return sum(1 for beta in ext.ctx.aut_elements(ses1.mid)
               if image_key(beta.compose(ses1.incl)) == k2)


def orbits_by_aut_scan(ext, e_label):
    """Aut(E)-orbits on the image subobjects of one piece, by scanning Aut(E).

    Same shape as the orbit list of ExtGroupoid._orbits: (representative
    index, orbit indices, stabilizer order) in piece order, indices into
    ext.pieces[e_label] (one sequence per image), the stabilizer counted
    directly and |orbit| * stabilizer checked against |Aut(E)|.
    """
    firsts = ext.pieces[e_label]
    index = {image_key(ses.incl): i for i, ses in enumerate(firsts)}
    auts = ext.ctx.aut_elements(firsts[0].mid)
    data = []
    assigned = set()
    for i, ses in enumerate(firsts):
        if i in assigned:
            continue
        moved = [index[image_key(beta.compose(ses.incl))] for beta in auts]
        orbit = set(moved)
        stab = moved.count(i)
        assert len(orbit) * stab == len(auts)
        assigned |= orbit
        data.append((i, orbit, stab))
    return data


def image_preserving_basis(ctx, ses):
    """Basis of A = {beta in End E : g beta f = 0} = {beta : beta(U) <= U}, flattened:
    the kernel of beta -> g beta f on the coordinates of hom_basis(E, E)."""
    basis = ctx.hom_basis(ses.mid, ses.mid)
    A = Matrix(ctx.field, [flatten(g * b * f for b, f, g in zip(
        h.vertex_maps, ses.incl.vertex_maps, ses.proj.vertex_maps)) for h in basis]).transpose()
    coords = Matrix(ctx.field, [flatten(h.vertex_maps) for h in basis]).transpose()
    return [coords.apply(vec) for vec in A.kernel_basis()]


def units_by_full_walk(ctx, ses):
    """|A^x| for the image-preserving subalgebra A of End E, by walking all
    q^{dim A} points of A; the library walks a complement of the fixed-end
    ideal V only, and multiplies by q^{dim V}."""
    return _units(ctx, ses.mid, image_preserving_basis(ctx, ses))


def path_value(ctx, pieces, outer_reps):
    """Cardinality of a composite of braiding spans over fixed witnesses, by formula.

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


def fixed_ends_by_aut_scan(ext, ses):
    """The betas in Aut(E) fixing both ends of ses, by scanning Aut(E)."""
    return [beta for beta in ext.ctx.aut_elements(ses.mid)
            if beta.compose(ses.incl) == ses.incl
            and ses.proj.compose(beta) == ses.proj]


def complement_columns(B):
    """The j whose standard vectors e_j complete the independent columns of
    the n x k matrix B to a basis: each e_j in index order is kept when it
    raises the rank of the columns kept so far."""
    f, n = B.field, B.rows
    cols = list(B.transpose().entries)
    picked = []
    for j in range(n):
        if len(cols) == n:
            break
        e = tuple(f.one if i == j else f.zero for i in range(n))
        if Matrix(f, cols + [e], len(cols) + 1, n).rank() == len(cols) + 1:
            cols.append(e)
            picked.append(j)
    return tuple(picked)


def pivot_row_complement(B):
    """The j off the pivot rows of B, the pivot columns of rref(B^T): the
    standard vectors e_j complete the columns of B to a basis."""
    pivots = B.transpose().rref()[1]
    return tuple(j for j in range(B.rows) if j not in pivots)


def reduce_cocycle_by_solve(ctx, M, N, vec, complement=pivot_row_complement):
    """vec modulo coboundaries by one linear solve: write vec in the basis
    (reduced coboundary rows B, standard vectors e_j for j in complement(B))
    and keep the complement part.  The complement is the pivot-row rule of
    the library by default; complement_columns gives the greedy one."""
    f = ctx.field
    phi, _, _ = ctx._presentation_matrix(M, N)
    n = phi.rows
    red, pivots = phi.transpose().rref()
    image_basis = list(red.entries[:len(pivots)])
    comp = complement(Matrix(f, image_basis, len(image_basis), n).transpose())
    cols = image_basis + [tuple(int(i == j) for i in range(n)) for j in comp]
    if not cols:
        return tuple(vec)
    A = Matrix(f, [[c[i] for c in cols] for i in range(n)], n, n)
    sol = A.solve_matrix(Matrix(f, [[x] for x in vec], n, 1)).transpose().entries[0]
    out = [f.zero] * n
    for idx, j in enumerate(comp):
        out[j] = sol[len(image_basis) + idx]
    return tuple(out)


def classify_by_matrix_orbits(ctx, dim):
    """[(rep, orbit size, |Aut|)] for one dimension vector, by closing orbits
    on tuples of Matrix edge maps under per-vertex GL generators g, acting
    as g M on arrows into v and M g^-1 on arrows out of v.  Tuples are
    visited in the order of the product of per-arrow matrix enumerations."""
    arrows = ctx.quiver.arrows
    per_arrow = [list(enumerate_matrices(dim[t], dim[s], ctx.q)) for s, t in arrows]
    gens = [(v, g, ginv) for v in range(ctx.quiver.n)
            for g, ginv in gl_generators(ctx.field, dim[v])]
    group = prod(gl_order(d, ctx.q) for d in dim)
    visited, out = set(), []
    for tup in product(*per_arrow):
        if tup in visited:
            continue
        orbit, frontier = {tup}, [tup]
        while frontier:
            cur = frontier.pop()
            for v, g, ginv in gens:
                new = []
                for (s, t), m in zip(arrows, cur):
                    if t == v:
                        m = g * m
                    if s == v:
                        m = m * ginv
                    new.append(m)
                new = tuple(new)
                if new not in orbit:
                    orbit.add(new)
                    frontier.append(new)
        visited |= orbit
        out.append((Representation(ctx.quiver, ctx.field, dim, tup), len(orbit),
                    group // len(orbit)))
    return out


def frame_matrices(frame):
    """(P, P^-1) rebuilt densely from a basis frame (B, pivots, rest, proj,
    B_pivots^-1): P = [B | e_rest], and P^-1 stacks B_pivots^-1 times the
    rows pivots of the identity on top of proj."""
    B, pivots, rest, proj, inv = frame
    f, n, k = B.field, B.rows, B.cols
    P = Matrix(f, [row + tuple(int(i == j) for j in rest) for i, row in enumerate(B.entries)],
               n, n)
    picks = Matrix(f, [[int(i == j) for j in range(n)] for i in pivots], k, n)
    return P, Matrix(f, (inv * picks).entries + proj.entries, n, n)


def invariant_subreps(ctx, E, sub_dim):
    """Every (inclusion, E/U, projection) triple of the U <= E of dimension
    sub_dim, in walk order: the library's walk with every yield built."""
    return ctx._subreps(E, ctx._subrep_walk(E, tuple(sub_dim)))


def invariant_subreps_by_solve(ctx, E, sub_dim, complement=pivot_row_complement):
    """[(inclusion, E/U, projection)] for every U <= E of dimension sub_dim:
    each tuple of canonical subspace bases is tested by solving
    B_t X = E_a B_s on every arrow, X giving the map U_a, and E/U is read
    off the standard-vector complement C = e_j, j in complement(B), of each
    basis B, with projection the rows of [B | C]^-1 past B, inverted whole."""
    f = ctx.field
    per_vertex = [list(enumerate_subspaces(f, e, k)) for e, k in zip(E.dim, sub_dim)]
    out = []
    for bases in product(*per_vertex):
        umaps = [bases[t].solve_matrix(ea * bases[s])
                 for (s, t), ea in zip(ctx.quiver.arrows, E.edge_maps)]
        if None in umaps:
            continue
        incl = RepMorphism(Representation(ctx.quiver, f, sub_dim, umaps), E, bases)
        picked, proj = [], []
        for B in bases:
            cols = complement(B)
            P = Matrix(f, [row + tuple(int(i == j) for j in cols)
                           for i, row in enumerate(B.entries)], B.rows, B.rows)
            picked.append(cols)
            proj.append(Matrix(f, matrix_inverse(P).entries[B.cols:], len(cols), B.rows))
        qmaps = [proj[t] * Matrix(f, [[row[j] for j in picked[s]] for row in ea.entries],
                                  E.dim[t], len(picked[s]))
                 for (s, t), ea in zip(ctx.quiver.arrows, E.edge_maps)]
        Q = Representation(ctx.quiver, f, tuple(map(len, picked)), qmaps)
        out.append((incl, Q, RepMorphism(E, Q, proj)))
    return out


def green_residual_by_dim_walk(hall, label_m, label_n, label_x, label_y):
    """LHS minus RHS of Green's formula, the right side by walking every
    dimension vector dim A <= min(dim M, dim X) and probing pair_count on
    every class of the four dimension vectors it fixes."""
    ctx = hall.ctx
    M, N, X, Y = (ctx.class_by_label(l) for l in (label_m, label_n, label_x, label_y))
    if dim_add(M.dim, N.dim) != dim_add(X.dim, Y.dim):
        return Fraction(0)
    lhs = Fraction(0)
    for ce in ctx.classify(dim_add(M.dim, N.dim)):
        pe_mn = ctx.pair_count(M, N, ce)
        if pe_mn:
            lhs += Fraction(pe_mn * ctx.pair_count(X, Y, ce), ce.aut)
    rhs = Fraction(0)
    n = ctx.quiver.n
    for dim_a in product(*(range(min(M.dim[v], X.dim[v]) + 1) for v in range(n))):
        dim_b = tuple(M.dim[v] - dim_a[v] for v in range(n))
        dim_c = tuple(X.dim[v] - dim_a[v] for v in range(n))
        dim_d = tuple(N.dim[v] - dim_c[v] for v in range(n))
        if any(x < 0 for x in dim_d) or dim_add(dim_b, dim_d) != Y.dim:
            continue
        for ca, cb in product(ctx.classify(dim_a), ctx.classify(dim_b)):
            p_m = ctx.pair_count(ca, cb, M)
            if not p_m:
                continue
            for cc in ctx.classify(dim_c):
                p_x = ctx.pair_count(ca, cc, X)
                if not p_x:
                    continue
                for cd in ctx.classify(dim_d):
                    p = p_m * p_x * ctx.pair_count(cc, cd, N) * ctx.pair_count(cb, cd, Y)
                    if p:
                        rhs += hall.braid_coeff(dim_a, dim_d) * Fraction(
                            p, ca.aut * cb.aut * cc.aut * cd.aut)
    return lhs - rhs


def green_residual_by_join(hall, label_m, label_n, label_x, label_y):
    """LHS minus RHS of Green's formula on one quadruple, the right side a
    join of the factorization indexes of M, N, X and Y.

    A runs over the quotients of both M and X, C over the subs of X under
    A, B over the subs of M under A, and D over the subs of N under C that
    also sit under B in Y.  Each term is an exact integer quotient,
    collected per grade pair (A, C), which fixes the Euler exponent.
    """
    ctx = hall.ctx
    cls = ctx.class_by_label
    M, N, X, Y = cls(label_m), cls(label_n), cls(label_x), cls(label_y)
    total = dim_add(M.dim, N.dim)
    if total != dim_add(X.dim, Y.dim):
        return Fraction(0)
    lhs = Fraction(0)
    for ce in ctx.classify(total):
        pe_mn = ctx.pair_count(M, N, ce)
        if pe_mn:
            lhs += Fraction(pe_mn * ctx.pair_count(X, Y, ce), ce.aut)
    rhs = {}
    f_m, f_n = hall.factorizations(label_m), hall.factorizations(label_n)
    f_x, f_y = hall.factorizations(label_x), hall.factorizations(label_y)
    for la, m_subs in f_m.items():
        x_subs = f_x.get(la)
        if x_subs is None:
            continue
        ca = cls(la)
        for lc, p_x in x_subs.items():
            n_subs = f_n.get(lc)
            if n_subs is None:
                continue
            cc = cls(lc)
            terms = 0
            for lb, p_m in m_subs.items():
                y_subs = f_y.get(lb)
                if y_subs is None:
                    continue
                p_mx = p_m * p_x
                aut_abc = ca.aut * cls(lb).aut * cc.aut
                for ld, p_n in n_subs.items():
                    p_y = y_subs.get(ld)
                    if p_y:
                        t, r = divmod(p_mx * p_n * p_y, aut_abc * cls(ld).aut)
                        assert not r, (label_m, label_n, label_x, label_y)
                        terms += t
            if terms:
                key = (ca.dim, cc.dim)
                rhs[key] = rhs.get(key, 0) + terms
    return lhs - sum(s * hall.braid_coeff(dim_a, tuple(n - c for n, c in zip(N.dim, dim_c)))
                     for (dim_a, dim_c), s in rhs.items())


def green_row_by_join(hall, label_m, label_n):
    """HallAlgebra.green_residual's row (M, N) from green_residual_by_join:
    ({(X, Y): residual}, 1) over the pairs of classes of grade m + n, only
    nonzero residuals stored, each a Fraction."""
    ctx = hall.ctx
    total = dim_add(hall.grade(label_m), hall.grade(label_n))
    row = {}
    for dim_x in product(*(range(t + 1) for t in total)):
        for cx in ctx.classify(dim_x):
            for cy in ctx.classify(tuple(t - x for t, x in zip(total, dim_x))):
                r = green_residual_by_join(hall, label_m, label_n, cx.label, cy.label)
                if r:
                    row[cx.label, cy.label] = r
    return row, 1


def coproduct_by_aut(hall, label_e):
    """Delta([E]) = sum P^E_{MN} / aut E [N] (x) [M] as Fractions, read off
    the factorization index of E."""
    aut = hall.ctx.class_by_label(label_e).aut
    return {(ln, lm): Fraction(p, aut)
            for lm, subs in hall.factorizations(label_e).items()
            for ln, p in subs.items()}


def tensor_product_by_fractions(hall, s, t, bound):
    """The braided product ([B] (x) [A]) . ([D] (x) [C]) =
    q^{-<A, D>} [B][D] (x) [A][C] with exact coefficients, the braiding's
    q^{-k} a Fraction for k > 0."""
    out = {}
    for (b, a), cs in s.coeffs.items():
        for (d, c), ct in t.coeffs.items():
            coeff = cs * ct * hall.braid_coeff(hall.grade(a), hall.grade(d))
            left = hall.product(HallVector.basis(b), HallVector.basis(d), bound)
            right = hall.product(HallVector.basis(a), HallVector.basis(c), bound)
            for lb, vb in left.coeffs.items():
                for la, va in right.coeffs.items():
                    out[(lb, la)] = out.get((lb, la), 0) + vb * va * coeff
    return HallVector(out)


def bialgebra_residual_by_fractions(hall, label_m, label_n, bound, coproduct):
    """Delta([M].[N]) - Delta([M]) . Delta([N]) with exact coefficients, for
    a coproduct given as coproduct(label) -> {(N, M): exact coefficient}."""
    prod = hall.product(HallVector.basis(label_m), HallVector.basis(label_n), bound)
    lhs = HallVector.combine((coproduct(le), c) for le, c in prod.coeffs.items())
    rhs = tensor_product_by_fractions(hall, HallVector(coproduct(label_m)),
                                      HallVector(coproduct(label_n)), bound)
    return lhs - rhs


def antipode_by_fractions(hall, label, bound, cache):
    """S([E]) = -[E] - sum c S([N]) . [M] over the reduced coproduct terms of
    [E], with exact coefficients; cache maps labels to finished values."""
    if label not in cache:
        z = hall.zero_label()
        if label == z:
            cache[label] = hall.unit()
        else:
            terms = [({label: 1}, -1)]
            for (ln, lm), c in coproduct_by_aut(hall, label).items():
                if ln != z and lm != z:
                    s_n = antipode_by_fractions(hall, ln, bound, cache)
                    terms.append((hall.product(s_n, HallVector.basis(lm), bound).coeffs, -c))
            cache[label] = HallVector.combine(terms)
    return cache[label]


# ---- splitting and gluing by solves ------------------------------------------


def block_injections(y, z):
    """Canonical inclusions of y and z into the chosen direct sum y (+) z."""
    s = y.direct_sum(z)
    return s, block_inclusion(y, s, (0,) * len(y.dim)), block_inclusion(z, s, y.dim)


def block_projections(y, z):
    """Canonical projections of y (+) z onto y and z."""
    s = y.direct_sum(z)
    return s, block_projection(s, y, (0,) * len(y.dim)), block_projection(s, z, y.dim)


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


def subrep_on(ctx, E, bases):
    """The inclusion of U <= E spanned by bases (of full column rank), or None
    when U is not invariant."""
    try:
        U = ctx.subrep_frames(E, tuple(bases))[0].source
    except ValueError:
        return None
    return RepMorphism(U, E, bases)


def preimage_subrep(ctx, proj_to, g):
    """g^{-1}(0) as a subrepresentation: inclusion of ker(proj_to . g).

    g: E -> T, proj_to: T -> W; returns the inclusion of ker(proj_to . g)
    into E, with the induced representation on a canonical kernel basis.
    """
    bases = [Matrix(ctx.field, m.kernel_basis(), None, m.cols).transpose()
             for m in proj_to.compose(g).vertex_maps]
    incl = subrep_on(ctx, g.source, bases)
    if incl is None:
        raise ValueError("kernel is not an invariant subspace")
    return incl


def glue_quotients_by_solve(ctx, s1, s2, Msum):
    """Glue 0 -> N -> Ei -> Mi -> 0 into 0 -> N -> (E1 (+) E2)/I_N -> M1 (+) M2 -> 0.

    I_N is the antidiagonal copy {(f1 n, -f2 n)} of the shared subobject.
    """
    f = ctx.field
    N = s1.sub
    big = s1.mid.direct_sum(s2.mid)
    anti = RepMorphism(N, big, [Matrix.block(f, [[a], [b.scale(-1)]]) for a, b in
                                zip(s1.incl.vertex_maps, s2.incl.vertex_maps)])
    Q, proj = quotient_with_projection(ctx, big, anti)
    inc_e1 = block_inclusion(s1.mid, big, (0,) * ctx.quiver.n)
    new_incl = proj.compose(inc_e1.compose(s1.incl))
    g_big = RepMorphism(big, Msum, [Matrix.block(f, [[a, None], [None, b]]) for a, b in
                                    zip(s1.proj.vertex_maps, s2.proj.vertex_maps)])
    new_proj = factor_through(proj, g_big)
    out = SESObject(N, Q, Msum, new_incl, new_proj)
    out.validate()
    return out


def glue_subobjects_by_solve(ctx, s1, s2, Nsum):
    """Glue 0 -> Ni -> Ei -> M -> 0 into the fibered product over M.

    The middle term is ker(g1 - g2) inside E1 (+) E2, an extension of M
    by N1 (+) N2.
    """
    f = ctx.field
    M = s1.quo
    big = s1.mid.direct_sum(s2.mid)
    pr1 = block_projection(big, s1.mid, (0,) * ctx.quiver.n)
    diff = RepMorphism(big, M, [Matrix.block(f, [[a, b.scale(-1)]]) for a, b in
                                zip(s1.proj.vertex_maps, s2.proj.vertex_maps)])
    sub_incl = preimage_subrep(ctx, identity_morphism(M), diff)
    f_pair = RepMorphism(Nsum, big, [Matrix.block(f, [[a, None], [None, b]]) for a, b in
                                     zip(s1.incl.vertex_maps, s2.incl.vertex_maps)])
    new_incl = corestrict(sub_incl, f_pair)
    new_proj = s1.proj.compose(pr1).compose(sub_incl)
    out = SESObject(Nsum, sub_incl.source, M, new_incl, new_proj)
    out.validate()
    return out


def hexagonator_R_by_solve(ctx, ses, y, z):
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
        Q, proj = quotient_with_projection(ctx, ses.mid, kill)
        new_incl = proj.compose(keep)
        new_proj = factor_through(proj, ses.proj)
        piece = SESObject(keep_rep, Q, ses.quo, new_incl, new_proj)
        piece.validate()
        out.append(piece)
    return tuple(out)


def hexagonator_S_by_solve(ctx, ses, x, y):
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


# ---- test-only builders and exports -----------------------------------------------


def finite_sets_groupoid(n_max):
    """Sets {0..n} for n <= n_max, with bijections; composition by rule.

    Labels are (n, permutation tuple) and the rules act on them directly,
    so no composition table is ever materialized.
    """
    objects = list(range(n_max + 1))
    morphisms = [(n, n, (n, perm)) for n in objects
                 for perm in permutations(range(n))]
    return ConcreteGroupoid(
        objects, morphisms, identity=[(n, tuple(range(n))) for n in objects],
        inverse=lambda m: (m[0], tuple(sorted(range(m[0]), key=m[1].__getitem__))),
        compose=lambda g, f: (f[0], tuple(g[1][p] for p in f[1])))


def functor_to_json(fun):
    return {"objects": list(fun.obj_map), "morphisms": list(fun.mor_map)}


def span_to_json(span):
    return {
        "apex": groupoid_to_json(span.apex),
        "foot_left": groupoid_to_json(span.foot_left),
        "foot_right": groupoid_to_json(span.foot_right),
        "left": functor_to_json(span.left),
        "right": functor_to_json(span.right),
    }


def quiver_to_json_dict(quiver):
    return {"vertices": quiver.n, "arrows": [list(a) for a in quiver.arrows]}


def morphism_index(G, label):
    """The index of the morphism of a ConcreteGroupoid with the given label."""
    return G._mor_index[label]


def action_groupoid(set_size, mul_table, action):
    """Weak quotient X // G: objects are set elements, morphisms are (g, x).

    action[g][x] is the image of x under g; the table is checked to be a
    genuine group action before anything is built.
    """
    k = len(mul_table)
    e, inv = _validate_group_table(mul_table)
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
    morphisms = [(x, action[g][x], (g, x)) for g in range(k) for x in range(set_size)]
    return ConcreteGroupoid(list(range(set_size)), morphisms,
                            identity=[(e, x) for x in range(set_size)],
                            inverse=lambda m: (inv[m[0]], action[m[0]][m[1]]),
                            compose=lambda g, f: (mul_table[g[0]][f[0]], f[1]))


def braid_by_accumulation(hall, t):
    """[A] (x) [D] -> q^{-<gr A, gr D>} [D] (x) [A], summed term by term
    into the output and filtered for zeros, where the library builds one
    dict because the swap is a bijection on keys."""
    out = {}
    for (a, d), v in t.coeffs.items():
        c = hall.braid_coeff(hall.grade(a), hall.grade(d))
        out[(d, a)] = out.get((d, a), 0) + v * c
    return HallVector(out)


def braid_inverse_by_accumulation(hall, t):
    """The inverse braiding [D] (x) [A] -> q^{<gr A, gr D>} [A] (x) [D], as
    braid_by_accumulation."""
    out = {}
    for (d, a), v in t.coeffs.items():
        c = hall.braid_coeff(hall.grade(a), hall.grade(d), 1)
        out[(a, d)] = out.get((a, d), 0) + v * c
    return HallVector(out)


def coproduct(hall, x):
    """Delta(x) with exact coefficients: each basis coproduct over |G_e|."""
    return HallVector.combine(
        (hall.coproduct_basis(le), Fraction(ce, hall.grade_order(hall.grade(le))))
        for le, ce in x.coeffs.items())


def is_simply_laced_dynkin(quiver):
    """Whether the underlying graph is a connected tree of type A, D or E,
    read off its shape: no repeated edge, n - 1 edges, connected, and either
    a path or one branch vertex of degree 3 with arms (1, 1, r) or
    (1, 2, 2..4) in vertices."""
    n = quiver.n
    if n == 0:
        return False
    edges = set()
    for s, t in quiver.arrows:
        if s == t or (min(s, t), max(s, t)) in edges:
            return False
        edges.add((min(s, t), max(s, t)))
    if len(edges) != n - 1:
        return False
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        return False
    if max(len(adj[v]) for v in range(n)) <= 2:
        return True  # type A path
    branch = [v for v in range(n) if len(adj[v]) >= 3]
    if len(branch) != 1 or len(adj[branch[0]]) != 3:
        return False
    center, arms = branch[0], []
    for w in adj[center]:
        length, prev, cur = 1, center, w
        while len(adj[cur]) == 2:
            prev, cur = cur, next(x for x in adj[cur] if x != prev)
            length += 1
        arms.append(length)
    p, q, r = sorted(arms)
    return p == 1 and (q == 1 or (q == 2 and r in (2, 3, 4)))


ROOT_ENTRY_BOUND = 6  # largest coordinate of any positive root in types A/D/E


def positive_roots(ctx):
    """Nonzero dimension vectors with Tits form <d, d> = 1 (ADE only), by a
    scan of every vector with entries up to ROOT_ENTRY_BOUND."""
    if not ctx.quiver.is_dynkin:
        raise ValueError("positive roots require a simply-laced Dynkin quiver")
    roots = []
    for d in product(range(ROOT_ENTRY_BOUND + 1), repeat=ctx.quiver.n):
        if any(d) and ctx.euler_form(d, d) == 1:
            roots.append(d)
    return sorted(roots)


def is_indecomposable(ctx, M):
    """No nontrivial idempotent in End(M); budgeted span walk."""
    if M.is_zero():
        return False
    shapes = [(d, d) for d in M.dim]
    ident = flatten(identity_morphism(M).vertex_maps)
    for point in ctx._hom_points(M, M):
        if not any(point) or point == ident:
            continue
        if all(m * m == m for m in unflatten(ctx.field, point, shapes)):
            return False
    return True


def indecomposable_classes(ctx, max_total, max_entry=None):
    """Indecomposable iso classes with total dim <= max_total and entries <=
    max_entry, found by is_indecomposable."""
    if max_entry is None:
        max_entry = max_total
    out = []
    for total in range(1, max_total + 1):
        for dim in dim_vectors_with_total(ctx.quiver.n, total):
            if max(dim) > max_entry:
                continue
            for cls in ctx.classify(dim):
                if is_indecomposable(ctx, cls.rep):
                    out.append(cls)
    return out


def weak_pullback_by_moves(f, g):
    """The objects and (source, target, label) morphisms of weak_pullback(f, g),
    each alpha carried along each (u, v) by its own two composites
    g(v) . alpha . f(u)^-1, in the same order."""
    A, B, X = f.source, g.source, f.target
    objects = [(a, b, alpha) for a in range(A.n_objects()) for b in range(B.n_objects())
               for alpha in X.hom(f.obj_map[a], g.obj_map[b])]
    index = {o: i for i, o in enumerate(objects)}
    morphisms = []
    for src, (a, b, alpha) in enumerate(objects):
        for u in A.mor_from(a):
            for v in B.mor_from(b):
                beta = X.compose(X.compose(g.mor_map[v], alpha), X.inverse[f.mor_map[u]])
                morphisms.append((src, index[(A.mor_tgt[u], B.mor_tgt[v], beta)], (u, v, alpha)))
    return objects, morphisms

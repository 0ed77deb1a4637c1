"""Slow brute-force oracles that only the tests call.

Each one recomputes a quantity the library computes by a faster route:
by enumerating every candidate morphism and testing it directly, by
the one-vector-at-a-time linear algebra the library replaced, or by a
walk over every dimension vector where the library joins sparse indexes.
"""

from fractions import Fraction
from itertools import product
from math import prod

from hallalg.linalg import (DEFAULT_BUDGET, Matrix, check_budget, enumerate_matrices,
                            enumerate_subspaces, enumerate_vectors, gl_generators, gl_order)
from hallalg.quiver import Representation, RepMorphism, dim_add


def is_invertible(mor):
    """Whether every vertex map of a morphism is square of full rank."""
    return all(m.rows == m.cols == m.rank() for m in mor.vertex_maps)


def span_elements(ctx, basis, src, tgt):
    """Every combination of basis (morphisms src -> tgt), in coefficient order."""
    k = len(basis)
    check_budget(f"Hom-space span enumeration dim {k}", ctx.q ** k, ctx.budget)
    out = []
    for coeffs in enumerate_vectors(ctx.field, k):
        maps = [Matrix.zero(ctx.field, tgt.dim[v], src.dim[v])
                for v in range(ctx.quiver.n)]
        for c, b in zip(coeffs, basis):
            if c == 0:
                continue
            maps = [m + bm.scale(c) for m, bm in zip(maps, b.vertex_maps)]
        out.append(RepMorphism(src, tgt, maps))
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
        if not fm.is_injective():
            continue
        for gm in gs:
            if not gm.is_surjective():
                continue
            if gm.compose(fm).is_zero():
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
    ext.pieces[e_label], the stabilizer counted directly and
    |orbit| * stabilizer checked against |Aut(E)|.
    """
    index = {image_key(incl): i for i, (incl, _, _) in enumerate(ext.pieces[e_label])}
    auts = ext.ctx.aut_elements(ext._piece_reps[e_label])
    data = []
    assigned = set()
    for i, (incl, _, _) in enumerate(ext.pieces[e_label]):
        if i in assigned:
            continue
        moved = [index[image_key(beta.compose(incl))] for beta in auts]
        orbit = set(moved)
        stab = moved.count(i)
        assert len(orbit) * stab == len(auts)
        assigned |= orbit
        data.append((i, orbit, stab))
    return data


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


def reduce_cocycle_by_solve(ctx, M, N, vec):
    """vec modulo coboundaries by one linear solve: write vec in the basis
    (reduced coboundary rows, greedy standard-vector complement) and keep
    the complement part."""
    f = ctx.field
    phi, _, _ = ctx._presentation_matrix(M, N)
    n = phi.rows
    red, pivots = phi.transpose().rref()
    image_basis = list(red.entries[:len(pivots)])
    comp = complement_columns(Matrix(f, image_basis, len(image_basis), n).transpose())
    cols = image_basis + [tuple(f.one if i == j else f.zero for i in range(n))
                          for j in comp]
    if not cols:
        return tuple(vec)
    A = Matrix(f, [[c[i] for c in cols] for i in range(n)], n, n)
    sol = A.solve(tuple(vec))
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
    gens = [(v, g, g.inverse()) for v in range(ctx.quiver.n)
            for g in gl_generators(ctx.field, dim[v])]
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


def invariant_subreps_by_solve(ctx, E, sub_dim):
    """[(inclusion, E/U, projection)] for every U <= E of dimension sub_dim:
    each tuple of canonical subspace bases is tested by solving
    B_t X = E_a B_s on every arrow, X giving the map U_a, and E/U is read
    off the greedy standard-vector complement C of each basis B, with
    projection the rows of [B | C]^-1 past B."""
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
            cols, inv = B.completion()
            picked.append(cols)
            proj.append(Matrix(f, inv.entries[B.cols:], len(cols), B.rows))
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

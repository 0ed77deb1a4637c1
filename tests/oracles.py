"""Slow brute-force oracles that only the tests call.

Each one recounts a quantity the library computes by a faster route, by
enumerating every candidate morphism and testing it directly.
"""

from hallalg.linalg import subspace_key
from hallalg.quiver import dim_add


def aut_order_slow(ctx, M):
    """|Aut(M)|: the invertible elements of the End(M) span, counted directly."""
    return sum(1 for phi in ctx._span_elements(ctx.hom_basis(M, M), M, M)
               if phi.is_invertible())


def count_exact_pairs_slow(ctx, M, N, E):
    """P^E_{MN}: every (f, g) in Hom(N, E) x Hom(E, M) tested for exactness."""
    ctx._same_quiver(M, N, E)
    if dim_add(M.dim, N.dim) != E.dim:
        return 0
    fs = ctx._span_elements(ctx.hom_basis(N, E), N, E)
    gs = ctx._span_elements(ctx.hom_basis(E, M), E, M)
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
    exactly one triple; the moved image is recomputed here independently
    of SESObject.moved_image_key.
    """
    if ses1.mid != ses2.mid:
        return 0
    k2 = ses2.image_key()
    count = 0
    for beta in ext.ctx.aut_elements(ses1.mid):
        moved = tuple(subspace_key(bv * iv) for bv, iv in
                      zip(beta.vertex_maps, ses1.incl.vertex_maps))
        if moved == k2:
            count += 1
    return count

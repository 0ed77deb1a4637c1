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


def _moved_image_key(beta, ses):
    """Canonical key of beta(image of ses), for beta an automorphism of ses.mid."""
    return tuple(subspace_key(bv * iv) for bv, iv in
                 zip(beta.vertex_maps, ses.incl.vertex_maps))


def morphism_count(ext, ses1, ses2):
    """Triples (alpha, beta, gamma) from ses1 to ses2 in an ExtGroupoid.

    Each beta in Aut(E) moving the image of ses1 onto that of ses2 gives
    exactly one triple.
    """
    if ses1.mid != ses2.mid:
        return 0
    k2 = ses2.image_key()
    return sum(1 for beta in ext.ctx.aut_elements(ses1.mid)
               if _moved_image_key(beta, ses1) == k2)


def orbits_by_aut_scan(ext, e_label):
    """Aut(E)-orbits on the image subobjects of one piece, by scanning Aut(E).

    Same shape as ExtGroupoid._orbits: (representative key, orbit keys,
    stabilizer order) in first-appearance order, the stabilizer counted
    directly and |orbit| * stabilizer checked against |Aut(E)|.
    """
    first = {}
    for ses in ext.pieces[e_label]:
        first.setdefault(ses.image_key(), ses)
    auts = ext.ctx.aut_elements(ext._piece_reps[e_label])
    data = []
    assigned = set()
    for k, ses in first.items():
        if k in assigned:
            continue
        moved = [_moved_image_key(beta, ses) for beta in auts]
        orbit = set(moved)
        stab = moved.count(k)
        assert len(orbit) * stab == len(auts)
        assigned |= orbit
        data.append((k, orbit, stab))
    return data


def fixed_ends_by_aut_scan(ext, ses):
    """The betas in Aut(E) fixing both ends of ses, by scanning Aut(E)."""
    return [beta for beta in ext.ctx.aut_elements(ses.mid)
            if beta.compose(ses.incl) == ses.incl
            and ses.proj.compose(beta) == ses.proj]

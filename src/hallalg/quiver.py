"""Quivers, their representations over F_p, and the Hom/Ext/orbit machinery.

Representations of a fixed acyclic quiver over F_p are classified by
brute force over enumerated edge-map tuples: the product of the vertex
general linear groups acts on the tuple space, orbits are isomorphism
classes, and orbit-stabilizer gives automorphism group orders without
ever enumerating endomorphism spaces.  All enumeration is lexicographic
and budget-gated, so class labels are stable across runs.
"""

from dataclasses import dataclass
from itertools import product
from math import prod

from .linalg import (
    DEFAULT_BUDGET,
    Matrix,
    PrimeField,
    check_budget,
    enumerate_gl,
    enumerate_matrices,
    enumerate_subspaces,
    enumerate_vectors,
    gaussian_binomial,
    gl_generators,
    gl_order,
    hstack,
)


class Quiver:
    """A finite acyclic directed graph: vertex count plus ordered arrows."""

    def __init__(self, vertex_count, arrows, name=""):
        arrows = tuple((int(s), int(t)) for s, t in arrows)
        for s, t in arrows:
            if not (0 <= s < vertex_count and 0 <= t < vertex_count):
                raise ValueError(f"arrow ({s},{t}) out of range for {vertex_count} vertices")
        self.n = vertex_count
        self.arrows = arrows
        self.name = name or f"Q{vertex_count}v{len(arrows)}a"
        if not self._is_acyclic():
            raise ValueError("quiver has a directed cycle")
        self.is_dynkin = self._is_simply_laced_dynkin()

    def _is_acyclic(self):
        indeg = [0] * self.n
        for _, t in self.arrows:
            indeg[t] += 1
        stack = [v for v in range(self.n) if indeg[v] == 0]
        seen = 0
        while stack:
            v = stack.pop()
            seen += 1
            for s, t in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        stack.append(t)
        return seen == self.n

    def _is_simply_laced_dynkin(self):
        # underlying undirected graph must be a connected tree of type A/D/E;
        # a repeated edge (Kronecker-style) or loop disqualifies immediately
        if self.n == 0:
            return False
        edges = set()
        for s, t in self.arrows:
            if s == t or (min(s, t), max(s, t)) in edges:
                return False
            edges.add((min(s, t), max(s, t)))
        if len(edges) != self.n - 1:
            return False
        adj = {v: set() for v in range(self.n)}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != self.n:
            return False
        degs = sorted(len(adj[v]) for v in range(self.n))
        if degs and degs[-1] <= 2:
            return True  # type A path
        branch = [v for v in range(self.n) if len(adj[v]) >= 3]
        if len(branch) != 1 or len(adj[branch[0]]) != 3:
            return False
        # arm lengths from the unique branch vertex, in vertices
        center = branch[0]
        arms = []
        for w in adj[center]:
            length = 1
            prev, cur = center, w
            while len(adj[cur]) == 2:
                nxt = next(x for x in adj[cur] if x != prev)
                prev, cur = cur, nxt
                length += 1
            arms.append(length)
        p, q, r = sorted(arms)
        return p == 1 and (q == 1 or (q == 2 and r in (2, 3, 4)))

    def to_json_dict(self):
        return {"vertices": self.n, "arrows": [list(a) for a in self.arrows]}

    @classmethod
    def from_json_dict(cls, doc, name=""):
        if not isinstance(doc, dict) or "vertices" not in doc or "arrows" not in doc:
            raise ValueError('quiver document needs "vertices" and "arrows"')
        return cls(doc["vertices"], doc["arrows"], name=name)

    def __repr__(self):
        return f"Quiver({self.n}, {list(self.arrows)})"

    def __eq__(self, other):
        return isinstance(other, Quiver) and self.n == other.n and self.arrows == other.arrows

    def __hash__(self):
        return hash((self.n, self.arrows))


def dim_add(d1, d2):
    return tuple(a + b for a, b in zip(d1, d2))

def dim_total(d):
    return sum(d)

def dim_vectors_with_total(n, total):
    """All n-part compositions of `total`, lexicographically."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in dim_vectors_with_total(n - 1, total - first):
            yield (first,) + rest


class Representation:
    """Dimension vector plus one matrix per arrow, shape (dim[tgt] x dim[src])."""

    __slots__ = ("quiver", "field", "dim", "edge_maps", "_hash")

    def __init__(self, quiver, field, dim, edge_maps):
        dim = tuple(int(x) for x in dim)
        if len(dim) != quiver.n or any(x < 0 for x in dim):
            raise ValueError("bad dimension vector")
        edge_maps = tuple(edge_maps)
        if len(edge_maps) != len(quiver.arrows):
            raise ValueError("one edge map per arrow required")
        for (s, t), m in zip(quiver.arrows, edge_maps):
            if (m.rows, m.cols) != (dim[t], dim[s]):
                raise ValueError(f"edge map shape {m.rows}x{m.cols} != {dim[t]}x{dim[s]}")
        self.quiver = quiver
        self.field = field
        self.dim = dim
        self.edge_maps = edge_maps
        self._hash = None

    @classmethod
    def zero(cls, quiver, field):
        dim = (0,) * quiver.n
        maps = [Matrix.zero(field, 0, 0) for _ in quiver.arrows]
        return cls(quiver, field, dim, maps)

    @classmethod
    def simple(cls, quiver, field, vertex):
        dim = tuple(1 if v == vertex else 0 for v in range(quiver.n))
        maps = [Matrix.zero(field, dim[t], dim[s]) for s, t in quiver.arrows]
        return cls(quiver, field, dim, maps)

    def total_dim(self):
        return sum(self.dim)

    def is_zero(self):
        return self.total_dim() == 0

    def direct_sum(self, other):
        if self.quiver != other.quiver or self.field != other.field:
            raise ValueError("direct sum across different quivers/fields")
        f = self.field
        dim = dim_add(self.dim, other.dim)
        maps = []
        for k, (s, t) in enumerate(self.quiver.arrows):
            a, b = self.edge_maps[k], other.edge_maps[k]
            m = [[f.zero] * dim[s] for _ in range(dim[t])]
            for i in range(a.rows):
                for j in range(a.cols):
                    m[i][j] = a.entries[i][j]
            for i in range(b.rows):
                for j in range(b.cols):
                    m[self.dim[t] + i][self.dim[s] + j] = b.entries[i][j]
            maps.append(Matrix(f, m, dim[t], dim[s]))
        return Representation(self.quiver, f, dim, maps)

    def __eq__(self, other):
        return (isinstance(other, Representation) and self.quiver == other.quiver
                and self.dim == other.dim and self.edge_maps == other.edge_maps)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, self.edge_maps))
        return self._hash

    def __repr__(self):
        return f"Rep(dim={self.dim})"


class RepMorphism:
    """One matrix per vertex; valid when every arrow square commutes."""

    __slots__ = ("source", "target", "vertex_maps")

    def __init__(self, source, target, vertex_maps):
        vertex_maps = tuple(vertex_maps)
        if len(vertex_maps) != source.quiver.n:
            raise ValueError("one vertex map per vertex required")
        for v in range(source.quiver.n):
            m = vertex_maps[v]
            if (m.rows, m.cols) != (target.dim[v], source.dim[v]):
                raise ValueError("vertex map shape mismatch")
        self.source = source
        self.target = target
        self.vertex_maps = vertex_maps

    @classmethod
    def identity(cls, rep):
        f = rep.field
        return cls(rep, rep, [Matrix.identity(f, d) for d in rep.dim])

    def is_valid(self):
        for k, (s, t) in enumerate(self.source.quiver.arrows):
            lhs = self.target.edge_maps[k] * self.vertex_maps[s]
            rhs = self.vertex_maps[t] * self.source.edge_maps[k]
            if lhs != rhs:
                return False
        return True

    def is_injective(self):
        return all(m.rank() == m.cols for m in self.vertex_maps)

    def is_surjective(self):
        return all(m.rank() == m.rows for m in self.vertex_maps)

    def is_invertible(self):
        return all(m.is_invertible() for m in self.vertex_maps)

    def compose(self, other):
        """self after other (other: A -> B, self: B -> C)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition endpoint mismatch")
        return RepMorphism(other.source, self.target,
                           [a * b for a, b in zip(self.vertex_maps, other.vertex_maps)])

    def inverse(self):
        return RepMorphism(self.target, self.source,
                           [m.inverse() for m in self.vertex_maps])

    def is_zero(self):
        return all(m.is_zero() for m in self.vertex_maps)

    def __eq__(self, other):
        return (isinstance(other, RepMorphism) and self.source == other.source
                and self.target == other.target and self.vertex_maps == other.vertex_maps)

    def __hash__(self):
        return hash(self.vertex_maps)

    def __repr__(self):
        return f"RepMorphism({self.source.dim}->{self.target.dim})"


@dataclass(frozen=True)
class IsoClass:
    """Canonical representative plus a stable label for one iso class."""
    quiver_name: str
    dim: tuple
    index: int
    rep: Representation
    orbit_size: int

    @property
    def label(self):
        return "d" + ".".join(str(x) for x in self.dim) + f"#{self.index}"


ROOT_ENTRY_BOUND = 6  # largest coordinate of any positive root in types A/D/E


class RepCategory:
    """All computations about Rep(Q) over a fixed F_p, with memo tables.

    One instance per (quiver, p) pair; every method is a pure function of
    its arguments given the fixed quiver and field.
    """

    def __init__(self, quiver, p, budget=DEFAULT_BUDGET):
        self.quiver = quiver
        self.field = PrimeField(p)
        self.q = p
        self.budget = budget
        self._classes = {}        # dim -> list[IsoClass]
        self._canon = {}          # dim -> {edge tuple: class index}
        self._hom_cache = {}
        self._pair_count_cache = {}
        self._aut_list_cache = {}
        self._subrep_cache = {}

    # ---- classification by orbit enumeration ------------------------------

    def tuple_space_size(self, dim):
        return self.q ** sum(dim[s] * dim[t] for s, t in self.quiver.arrows)

    def _edge_tuple_space(self, dim):
        per_arrow = []
        for s, t in self.quiver.arrows:
            per_arrow.append(list(enumerate_matrices(dim[t], dim[s], self.q,
                                                     budget=self.budget)))
        return per_arrow

    def _vertex_generators(self, dim):
        gens = []
        for v in range(self.quiver.n):
            for g in gl_generators(self.field, dim[v]):
                gens.append((v, g, g.inverse()))
        return gens

    def classify(self, dim):
        """Isomorphism classes of representations with the given dimension vector.

        Representatives are the lexicographically least edge tuple of each
        orbit, in enumeration order, so labels are deterministic.
        """
        dim = tuple(dim)
        if dim in self._classes:
            return self._classes[dim]
        check_budget(f"classify{dim} tuple space", self.tuple_space_size(dim), self.budget)
        per_arrow = self._edge_tuple_space(dim)
        gens = self._vertex_generators(dim)
        visited = {}
        classes = []
        for tup in product(*per_arrow) if per_arrow else [()]:
            if tup in visited:
                continue
            index = len(classes)
            orbit = {tup}
            frontier = [tup]
            while frontier:
                cur = frontier.pop()
                for v, g, ginv in gens:
                    new = []
                    for k, (s, t) in enumerate(self.quiver.arrows):
                        m = cur[k]
                        if t == v:
                            m = g * m
                        if s == v:
                            m = m * ginv
                        new.append(m)
                    new = tuple(new)
                    if new not in orbit:
                        orbit.add(new)
                        frontier.append(new)
            for member in orbit:
                visited[member] = index
            rep = Representation(self.quiver, self.field, dim, tup)
            classes.append(IsoClass(self.quiver.name, dim, index, rep, len(orbit)))
        self._classes[dim] = classes
        self._canon[dim] = visited
        return classes

    def class_of(self, rep):
        classes = self.classify(rep.dim)
        return classes[self._canon[rep.dim][rep.edge_maps]]

    def is_isomorphic(self, M, N):
        self._same_quiver(M, N)
        if M.dim != N.dim:
            return False
        return self.class_of(M).index == self.class_of(N).index

    def aut_order(self, M):
        """|Aut(M)|, by orbit-stabilizer inside prod_v GL(dim_v)."""
        cls = self.class_of(M)
        group = 1
        for d in M.dim:
            group *= gl_order(d, self.q)
        assert group % cls.orbit_size == 0
        return group // cls.orbit_size

    def classes_up_to(self, bound):
        """All iso classes with total dimension <= bound, in label order."""
        out = []
        for total in range(bound + 1):
            for dim in dim_vectors_with_total(self.quiver.n, total):
                out.extend(self.classify(dim))
        return out

    def class_by_label(self, label):
        dims, _, index = label[1:].partition("#")
        dim = tuple(int(x) for x in dims.split("."))
        return self.classify(dim)[int(index)]

    # ---- Hom, Ext, Euler form ---------------------------------------------

    def _same_quiver(self, *reps):
        for r in reps:
            if r.quiver != self.quiver:
                raise ValueError("representation belongs to a different quiver")

    def _presentation_matrix(self, M, N):
        """Matrix of phi |-> (phi_t M_a - N_a phi_s) over all arrows.

        Domain: direct sum of Hom(M_v, N_v) (row-major coordinates per vertex).
        Codomain: direct sum of Hom(M_s, N_t) per arrow a: s -> t.  Hom(M, N)
        is its kernel and Ext^1(M, N) its cokernel (Q is hereditary).
        """
        f = self.field
        n = self.quiver.n
        dom_blocks = [(N.dim[v], M.dim[v]) for v in range(n)]
        cod_blocks = [(N.dim[t], M.dim[s]) for s, t in self.quiver.arrows]
        dom_dim = sum(r * c for r, c in dom_blocks)
        cod_dim = sum(r * c for r, c in cod_blocks)
        cols = []
        for v in range(n):
            nv, mv = dom_blocks[v]
            for r in range(nv):
                for c in range(mv):
                    col = []
                    e = Matrix(f, [[f.one if (i, j) == (r, c) else f.zero
                                     for j in range(mv)] for i in range(nv)], nv, mv)
                    for k, (s, t) in enumerate(self.quiver.arrows):
                        block = Matrix.zero(f, cod_blocks[k][0], cod_blocks[k][1])
                        if t == v:
                            block = block + e * M.edge_maps[k]
                        if s == v:
                            block = block - N.edge_maps[k] * e
                        col.extend(x for row in block.entries for x in row)
                    cols.append(col)
        entries = [[cols[j][i] for j in range(dom_dim)] for i in range(cod_dim)]
        return Matrix(f, entries, cod_dim, dom_dim), dom_blocks, cod_blocks

    def hom_basis(self, M, N):
        """A basis of Hom(M, N) as RepMorphisms."""
        self._same_quiver(M, N)
        key = (M, N)
        if key in self._hom_cache:
            return self._hom_cache[key]
        phi, dom_blocks, _ = self._presentation_matrix(M, N)
        basis = []
        for vec in phi.kernel_basis():
            maps = []
            pos = 0
            for nv, mv in dom_blocks:
                maps.append(Matrix(self.field,
                                   [vec[pos + i * mv:pos + (i + 1) * mv] for i in range(nv)],
                                   nv, mv))
                pos += nv * mv
            basis.append(RepMorphism(M, N, maps))
        self._hom_cache[key] = basis
        return basis

    def hom_dim(self, M, N):
        return len(self.hom_basis(M, N))

    def ext1_dim(self, M, N):
        self._same_quiver(M, N)
        phi, _, cod_blocks = self._presentation_matrix(M, N)
        return sum(r * c for r, c in cod_blocks) - phi.rank()

    def euler_form(self, m, n):
        """<m, n> = sum_v m_v n_v - sum_{a: s->t} m_s n_t."""
        if len(m) != self.quiver.n or len(n) != self.quiver.n:
            raise ValueError("dimension vector length mismatch")
        val = sum(a * b for a, b in zip(m, n))
        for s, t in self.quiver.arrows:
            val -= m[s] * n[t]
        return val

    # ---- morphism-set enumeration -----------------------------------------

    def _semisimple(self, M):
        return all(m.is_zero() for m in M.edge_maps)

    def iso_set(self, M, N):
        """Every isomorphism M -> N, deterministically ordered.

        Semisimple pairs get a per-vertex GL product, budgeted as a whole;
        otherwise the span of hom_basis is enumerated and filtered by
        vertexwise invertibility.
        """
        self._same_quiver(M, N)
        if M.dim != N.dim or not self.is_isomorphic(M, N):
            return []
        key = ("iso", M, N)
        if key in self._aut_list_cache:
            return self._aut_list_cache[key]
        if self._semisimple(M) and self._semisimple(N):
            check_budget(f"prod_v GL(dim_v) enumeration for dim {M.dim} over F_{self.q}",
                         prod(gl_order(d, self.q) for d in M.dim), self.budget)
            per_vertex = []
            for d in M.dim:
                per_vertex.append(list(enumerate_gl(self.field, d, budget=self.budget)))
            out = [RepMorphism(M, N, maps) for maps in product(*per_vertex)]
        else:
            out = [mor for mor in self._span_elements(self.hom_basis(M, N), M, N)
                   if mor.is_invertible()]
        self._aut_list_cache[key] = out
        return out

    def aut_elements(self, M):
        return self.iso_set(M, M)

    # ---- subobjects, quotients, extensions ---------------------------------

    def _complement_columns(self, basis_matrix):
        """Standard basis vectors completing the given columns to a basis."""
        f = self.field
        n = basis_matrix.rows
        cur = basis_matrix
        picked = []
        for j in range(n):
            if cur.cols == n:
                break
            e = Matrix(f, [[f.one] if i == j else [f.zero] for i in range(n)], n, 1)
            trial = hstack(f, [cur, e], rows=n)
            if trial.rank() == cur.cols + 1:
                cur = trial
                picked.append(j)
        return Matrix(f, [[f.one if j == pj else f.zero for pj in picked]
                          for j in range(n)], n, len(picked))

    def _quotient_data(self, E, basis_mats):
        """Quotient of E by the invariant subspace with per-vertex bases.

        Returns (quotient rep, projection RepMorphism); the projection uses
        the coordinates of a deterministic standard-vector complement.
        """
        f = self.field
        n = self.quiver.n
        proj = []
        for v in range(n):
            B = basis_mats[v]
            C = self._complement_columns(B)
            P = hstack(f, [B, C], rows=E.dim[v]) if E.dim[v] else Matrix.zero(f, 0, 0)
            if E.dim[v]:
                Pinv = P.inverse()
                proj.append(Matrix(f, Pinv.entries[B.cols:], C.cols, E.dim[v]))
            else:
                proj.append(Matrix.zero(f, 0, 0))
        qdim = tuple(p.rows for p in proj)
        qmaps = []
        for k, (s, t) in enumerate(self.quiver.arrows):
            # induced map on quotient coords: q_t E_a section_s; solve via proj
            C_s = self._complement_columns(basis_mats[s])
            qmaps.append(proj[t] * E.edge_maps[k] * C_s)
        Q = Representation(self.quiver, f, qdim, qmaps)
        return Q, RepMorphism(E, Q, proj)

    def invariant_subreps(self, E, sub_dim):
        """All subrepresentations of E with the given dimension vector.

        Yields (inclusion, projection) pairs: inclusion U -> E with U the
        induced representation on a canonical subspace basis, projection
        E -> E/U.  Enumeration order is deterministic.
        """
        key = (E, tuple(sub_dim))
        if key in self._subrep_cache:
            return self._subrep_cache[key]
        f = self.field
        n = self.quiver.n
        count = 1
        for v in range(n):
            count *= gaussian_binomial(E.dim[v], sub_dim[v], self.q)
        check_budget(f"subspace tuples for subreps of dim {tuple(sub_dim)}",
                     count, self.budget)
        per_vertex = [list(enumerate_subspaces(f, E.dim[v], sub_dim[v], budget=self.budget))
                      for v in range(n)]
        out = []
        for bases in product(*per_vertex):
            umaps = []
            ok = True
            for k, (s, t) in enumerate(self.quiver.arrows):
                image = E.edge_maps[k] * bases[s]
                sol = bases[t].solve_matrix(image)
                if sol is None:
                    ok = False
                    break
                umaps.append(sol)
            if not ok:
                continue
            U = Representation(self.quiver, f, tuple(sub_dim), umaps)
            incl = RepMorphism(U, E, bases)
            Q, proj = self._quotient_data(E, bases)
            out.append((incl, Q, proj))
        self._subrep_cache[key] = out
        return out

    def quotient(self, E, f_mor):
        """E / im(f) with induced edge maps; f must be vertexwise injective."""
        if f_mor.target != E:
            raise ValueError("morphism does not land in E")
        if not f_mor.is_injective():
            raise ValueError("quotient by a non-injective morphism")
        Q, _ = self._quotient_data(E, list(f_mor.vertex_maps))
        return Q

    def quotient_with_projection(self, E, f_mor):
        if not f_mor.is_injective():
            raise ValueError("quotient by a non-injective morphism")
        return self._quotient_data(E, list(f_mor.vertex_maps))

    # extensions: cocycles live in the codomain of the presentation matrix

    def cocycle_blocks(self, M, N):
        return [(N.dim[t], M.dim[s]) for s, t in self.quiver.arrows]

    def _cocycle_to_matrices(self, M, N, vec):
        blocks = self.cocycle_blocks(M, N)
        mats = []
        pos = 0
        for r, c in blocks:
            mats.append(Matrix(self.field,
                               [vec[pos + i * c:pos + (i + 1) * c] for i in range(r)], r, c))
            pos += r * c
        return tuple(mats)

    def middle_term(self, M, N, cocycle):
        """Extension of M by N with blocks [[N_a, c_a], [0, M_a]] per arrow.

        cocycle: one Matrix of shape (N.dim[t] x M.dim[s]) per arrow, or a
        flat coordinate vector.  The zero cocycle yields N + M split.
        """
        f = self.field
        if not (isinstance(cocycle, (tuple, list))
                and len(cocycle) == len(self.quiver.arrows)
                and all(isinstance(c, Matrix) for c in cocycle)):
            cocycle = self._cocycle_to_matrices(M, N, tuple(cocycle))
        dim = dim_add(N.dim, M.dim)
        maps = []
        for k, (s, t) in enumerate(self.quiver.arrows):
            c = cocycle[k]
            if (c.rows, c.cols) != (N.dim[t], M.dim[s]):
                raise ValueError("cocycle block shape mismatch")
            rows = []
            for i in range(N.dim[t]):
                rows.append(list(N.edge_maps[k].entries[i]) + list(c.entries[i]))
            for i in range(M.dim[t]):
                rows.append([f.zero] * N.dim[s] + list(M.edge_maps[k].entries[i]))
            maps.append(Matrix(f, rows, dim[t], dim[s]))
        return Representation(self.quiver, f, dim, maps)

    def middle_term_ses(self, M, N, cocycle):
        """(E, f: N -> E, g: E -> M) for the extension built from the cocycle."""
        f = self.field
        E = self.middle_term(M, N, cocycle)
        incl = RepMorphism(N, E, [
            Matrix(f, [[f.one if i == j else f.zero for j in range(N.dim[v])]
                       for i in range(E.dim[v])], E.dim[v], N.dim[v])
            for v in range(self.quiver.n)])
        proj = RepMorphism(E, M, [
            Matrix(f, [[f.one if j == N.dim[v] + i else f.zero for j in range(E.dim[v])]
                       for i in range(M.dim[v])], M.dim[v], E.dim[v])
            for v in range(self.quiver.n)])
        return E, incl, proj

    def _ext_complement(self, M, N):
        """(complement basis, coboundary basis) inside the cocycle space."""
        key = ("extc", M, N)
        if key in self._hom_cache:
            return self._hom_cache[key]
        f = self.field
        phi, _, cod_blocks = self._presentation_matrix(M, N)
        cod_dim = sum(r * c for r, c in cod_blocks)
        red, pivots = phi.transpose().rref()
        image_basis = [tuple(red.entries[i]) for i in range(len(pivots))]
        comp = []
        cur = Matrix(f, image_basis, len(image_basis), cod_dim) if image_basis \
            else Matrix.zero(f, 0, cod_dim)
        rank = len(image_basis)
        for j in range(cod_dim):
            if rank == cod_dim:
                break
            e = tuple(f.one if i == j else f.zero for i in range(cod_dim))
            trial = Matrix(f, list(cur.entries) + [list(e)], cur.rows + 1, cod_dim)
            if trial.rank() == rank + 1:
                comp.append(e)
                cur = trial
                rank += 1
        self._hom_cache[key] = (comp, image_basis, cod_dim)
        return self._hom_cache[key]

    def ext_class_reps(self, M, N):
        """Canonical coset representatives of Ext^1(M, N) as cocycle vectors.

        The coboundaries are the image of the presentation matrix; a greedy
        standard-vector complement gives one representative per class.
        """
        f = self.field
        comp, _, cod_dim = self._ext_complement(M, N)
        ext_dim = len(comp)
        check_budget(f"Ext^1 class enumeration dim {ext_dim}", self.q ** ext_dim,
                     self.budget)
        reps = []
        for coeffs in enumerate_vectors(self.field, ext_dim):
            vec = [f.zero] * cod_dim
            for c, b in zip(coeffs, comp):
                if c:
                    vec = [(x + c * y) % f.p for x, y in zip(vec, b)]
            reps.append(tuple(vec))
        return reps

    def extension_class(self, M, N, E, incl, proj):
        """Cocycle coordinates (canonically reduced) of the extension (incl, proj).

        A linear section of proj is chosen per vertex, the defect of the
        section against the edge maps is pulled back through incl, and the
        result is reduced modulo coboundaries to the canonical complement.
        """
        f = self.field
        sections = []
        for v in range(self.quiver.n):
            g = proj.vertex_maps[v]
            rhs = Matrix.identity(f, M.dim[v])
            sec = g.solve_matrix(rhs)
            if sec is None:
                raise ValueError("projection is not surjective")
            sections.append(sec)
        vec = []
        for k, (s, t) in enumerate(self.quiver.arrows):
            defect = E.edge_maps[k] * sections[s] - sections[t] * M.edge_maps[k]
            pulled = incl.vertex_maps[t].solve_matrix(defect)
            if pulled is None:
                raise ValueError("section defect not in the subobject")
            vec.extend(x for row in pulled.entries for x in row)
        return self.reduce_cocycle(M, N, tuple(vec))

    def reduce_cocycle(self, M, N, vec):
        """Canonical representative of vec modulo coboundaries."""
        f = self.field
        comp, image_basis, cod_dim = self._ext_complement(M, N)
        cols = [list(b) for b in image_basis] + [list(b) for b in comp]
        if not cols:
            return tuple(vec)
        A = Matrix(f, [[cols[j][i] for j in range(len(cols))] for i in range(cod_dim)],
                   cod_dim, len(cols))
        sol = A.solve(vec)
        out = [f.zero] * cod_dim
        for idx, b in enumerate(comp):
            c = sol[len(image_basis) + idx]
            if c:
                out = [(x + c * y) % f.p for x, y in zip(out, b)]
        return tuple(out)

    # ---- exact-pair counting ------------------------------------------------

    def count_exact_pairs(self, M, N, E):
        """P^E_{MN}: the number of exact pairs 0 -> N -f-> E -g-> M -> 0.

        Each exact pair factors through its image subrepresentation, so the
        count is aut(M) * aut(N) * #{invariant U <= E : U ~ N, E/U ~ M}.
        """
        self._same_quiver(M, N, E)
        if dim_add(M.dim, N.dim) != E.dim:
            return 0
        key = (self.class_of(M).label, self.class_of(N).label, self.class_of(E).label)
        if key in self._pair_count_cache:
            return self._pair_count_cache[key]
        g = 0
        for incl, Q, proj in self.invariant_subreps(E, N.dim):
            if self.is_isomorphic(incl.source, N) and self.is_isomorphic(Q, M):
                g += 1
        out = self.aut_order(M) * self.aut_order(N) * g
        self._pair_count_cache[key] = out
        return out

    def _span_elements(self, basis, src, tgt):
        """Every combination of basis (morphisms src -> tgt), in coefficient order."""
        k = len(basis)
        check_budget(f"Hom-space span enumeration dim {k}", self.q ** k, self.budget)
        out = []
        for coeffs in enumerate_vectors(self.field, k):
            maps = [Matrix.zero(self.field, tgt.dim[v], src.dim[v])
                    for v in range(self.quiver.n)]
            for c, b in zip(coeffs, basis):
                if c == 0:
                    continue
                maps = [m + bm.scale(c) for m, bm in zip(maps, b.vertex_maps)]
            out.append(RepMorphism(src, tgt, maps))
        return out

    # ---- roots and indecomposables -----------------------------------------

    def positive_roots(self):
        """Nonzero dimension vectors with Tits form <d, d> = 1 (ADE only)."""
        if not self.quiver.is_dynkin:
            raise ValueError("positive roots require a simply-laced Dynkin quiver")
        roots = []
        for d in product(range(ROOT_ENTRY_BOUND + 1), repeat=self.quiver.n):
            if any(d) and self.euler_form(d, d) == 1:
                roots.append(d)
        return sorted(roots)

    def is_indecomposable(self, M):
        """No nontrivial idempotent in End(M); budgeted span enumeration."""
        if M.is_zero():
            return False
        ident = RepMorphism.identity(M)
        for phi in self._span_elements(self.hom_basis(M, M), M, M):
            if phi.is_zero() or phi == ident:
                continue
            if phi.compose(phi) == phi:
                return False
        return True

    def indecomposable_classes(self, max_total, max_entry=None):
        """Indecomposable iso classes with total dim <= max_total (scan box)."""
        if max_entry is None:
            max_entry = max_total
        out = []
        for total in range(1, max_total + 1):
            for dim in dim_vectors_with_total(self.quiver.n, total):
                if max(dim) > max_entry:
                    continue
                for cls in self.classify(dim):
                    if self.is_indecomposable(cls.rep):
                        out.append(cls)
        return out

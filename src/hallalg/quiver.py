"""Quivers, their representations over F_p, and the Hom/Ext/orbit machinery.

Representations of a fixed acyclic quiver over F_p are classified by
brute force over enumerated edge-map tuples: the product of the vertex
general linear groups acts on the tuple space, orbits are isomorphism
classes, and orbit-stabilizer gives automorphism group orders without
ever enumerating endomorphism spaces.  All enumeration is lexicographic
and budget-gated, so class labels are stable across runs.
"""

from array import array
from collections import Counter
from fractions import Fraction
from functools import wraps
from itertools import product
from math import prod
from operator import add, itemgetter, mul

from .linalg import (
    DEFAULT_BUDGET,
    Matrix,
    PrimeField,
    basis_frame,
    blocks_invertible,
    check_budget,
    enumerate_vectors,
    flatten,
    frame_coordinates,
    gaussian_binomial,
    gl_generators,
    gl_order,
    projection_rows,
    span_points,
    subspace_frames,
    unflatten,
)


def kept(fn):
    """fn(owner, *args), computed once per positional args and kept in
    owner._memo[fn's qualified name][args].  Every result here is a pure
    function of its arguments given the owner (a RepCategory, its
    HallAlgebra or an ExtGroupoid), so this is the one memo policy: arguments
    hash by content, or by identity where the context makes them once (its
    IsoClass objects).  A call that raises stores nothing."""
    name = fn.__qualname__

    @wraps(fn)
    def keeper(owner, *args):
        table = owner._memo.get(name)
        out = keeper if table is None else table.get(args, keeper)
        if out is keeper:
            out = fn(owner, *args)
            owner._memo.setdefault(name, {})[args] = out
        return out
    return keeper


def parse_label(label):
    """Grade (dimension vector) and class index encoded in a label: d1.0#2."""
    dims, _, index = label[1:].partition("#")
    return tuple(int(x) for x in dims.split(".")), int(index)


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
        self.is_dynkin = self._is_dynkin()

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

    def _is_dynkin(self):
        """Gabriel: Q is of type A, D or E exactly when it is connected and its
        symmetrised Euler form (x, y) = <x, y> + <y, x> is positive definite,
        tested by exact elimination with every pivot positive."""
        n, arrows = self.n, self.arrows
        seen = {0}
        for _ in range(n):      # every vertex is within n - 1 steps of 0
            seen |= {w for s, t in arrows for v, w in ((s, t), (t, s)) if v in seen}
        if n == 0 or len(seen) != n:
            return False
        form = [[Fraction(2 * (i == j)) for j in range(n)] for i in range(n)]
        for s, t in arrows:
            form[s][t] -= 1
            form[t][s] -= 1
        for k in range(n):
            if form[k][k] <= 0:
                return False
            for i in range(k + 1, n):
                c = form[i][k] / form[k][k]
                form[i] = [x - c * y for x, y in zip(form[i], form[k])]
        return True

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


def tuples_up_to(classes, k, remaining):
    """Every k-tuple of classes, in the order of the list `classes` (sorted
    by total dimension), whose total dimensions sum to at most `remaining`.
    A module-level generator, so no closure cycle keeps `classes` alive."""
    if k == 0:
        yield ()
        return
    for cls in classes:
        t = sum(cls.dim)
        if t > remaining:
            break       # classes come in order of total dimension
        for rest in tuples_up_to(classes, k - 1, remaining - t):
            yield (cls,) + rest


class Representation:
    """Dimension vector plus one matrix per arrow, shape (dim[tgt] x dim[src])."""

    __slots__ = ("quiver", "field", "dim", "edge_maps", "_hash", "_flat", "_index")

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
        self._flat = None         # flatten(edge_maps), the class_of key; set on demand
        self._index = None        # its class index, set by class_of

    @classmethod
    def _of(cls, quiver, field, dim, edge_maps):
        """A representation from a dim tuple and edge maps of the right shapes
        that this package has just built, unchecked (cf. Matrix._of)."""
        rep = cls.__new__(cls)
        rep.quiver = quiver
        rep.field = field
        rep.dim = dim
        rep.edge_maps = tuple(edge_maps)
        rep._hash = None
        rep._flat = None
        rep._index = None
        return rep

    def direct_sum(self, other):
        """The chosen direct sum: self's coordinates first at every vertex."""
        if self.quiver != other.quiver or self.field != other.field:
            raise ValueError("direct sum across different quivers/fields")
        return Representation(self.quiver, self.field, dim_add(self.dim, other.dim), [
            Matrix.block(self.field, [[a, None], [None, b]])
            for a, b in zip(self.edge_maps, other.edge_maps)])

    def __eq__(self, other):
        return self is other or (isinstance(other, Representation) and self.quiver == other.quiver
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
    def _of(cls, source, target, vertex_maps):
        """A morphism from vertex maps of the right shapes, unchecked (cf. Representation._of)."""
        mor = cls.__new__(cls)
        mor.source, mor.target, mor.vertex_maps = source, target, tuple(vertex_maps)
        return mor

    def compose(self, other):
        """self after other (other: A -> B, self: B -> C)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition endpoint mismatch")
        return RepMorphism(other.source, self.target,
                           [a * b for a, b in zip(self.vertex_maps, other.vertex_maps)])

    def __eq__(self, other):
        return (isinstance(other, RepMorphism) and self.source == other.source
                and self.target == other.target and self.vertex_maps == other.vertex_maps)

    def __hash__(self):
        return hash(self.vertex_maps)

    def __repr__(self):
        return f"RepMorphism({self.source.dim}->{self.target.dim})"


def block_inclusion(part, whole, offset):
    """part -> whole onto the coordinates offset_v, ..., offset_v + dim_v - 1 of each vertex."""
    return RepMorphism(part, whole, [Matrix.identity(whole.field, w).columns(o, o + d)
                                     for w, o, d in zip(whole.dim, offset, part.dim)])


def block_projection(whole, part, offset):
    """whole -> part reading the coordinates offset_v, ..., offset_v + dim_v - 1."""
    return RepMorphism(whole, part, [Matrix.identity(whole.field, w).columns(o, o + d).transpose()
                                     for w, o, d in zip(whole.dim, offset, part.dim)])


def entry_product(a, b, p):
    """The entry rows of the product a b of two matrices, mod p."""
    cols = tuple(zip(*b.entries)) if b.rows else ((),) * b.cols
    return tuple(tuple(sum(map(mul, row, col)) % p for col in cols) for row in a.entries)


def commutes(mor, p):
    """Whether target_a mor_s = mor_t source_a on every arrow a: s -> t."""
    src, tgt, maps = mor.source, mor.target, mor.vertex_maps
    return all(entry_product(ta, maps[s], p) == entry_product(maps[t], sa, p)
               for (s, t), sa, ta in zip(src.quiver.arrows, src.edge_maps, tgt.edge_maps))


def act_on_level(action, level, p):
    """The images of the flat edge tuples of level (a list or a set), in its
    iteration order, under a _generator_actions action (gather, rows,
    terms): each tuple t extended by one entry per row r, the sum of c t[j]
    over the (j, c, r) in terms mod p, and then gathered.  Each row is one
    pass over the whole level.  Each row has one or two terms, which
    _generator_actions checks when it builds them."""
    gather, rows, terms = action
    if not rows:
        return map(gather, level)
    by_row = [[] for _ in range(rows)]
    for j, c, r in terms:
        by_row[r].append((j, c))
    extra = []
    for row in by_row:
        if len(row) == 1:
            (j, c), = row
            extra.append([c * t[j] % p for t in level])
        else:
            (j, c), (k, d) = row
            extra.append([(c * t[j] + d * t[k]) % p for t in level])
    return map(gather, map(add, level, zip(*extra)))


def _columns(m, picked):
    """The columns picked of a matrix, as entry tuples."""
    return tuple(tuple(row[j] for row in m.entries) for j in picked)


class IsoClass:
    """Canonical representative, stable label and |Aut| of one iso class.
    classify makes one per class per context, so it hashes by identity."""

    __slots__ = ("dim", "index", "rep", "orbit_size", "aut", "label")

    def __init__(self, dim, index, rep, orbit_size, aut):
        self.dim, self.index, self.rep = dim, index, rep
        self.orbit_size, self.aut = orbit_size, aut
        self.label = "d" + ".".join(str(x) for x in dim) + f"#{index}"


class RepCategory:
    """All computations about Rep(Q) over a fixed F_p, with memo tables.

    One instance per (quiver, p) pair; every method is a pure function of
    its arguments given the fixed quiver and field, and the @kept ones keep
    their results in _memo.
    """

    def __init__(self, quiver, p, budget=DEFAULT_BUDGET):
        self.quiver = quiver
        self.field = PrimeField(p)
        self.q = p
        self.budget = budget
        self._classes = {}        # dim -> list[IsoClass]
        self._canon = {}          # dim -> (weights, index_of): see classify
        self._by_label = {}       # label -> IsoClass
        self._memo = {}           # qualified name -> {args: result} of each @kept function
        self._subspace_frames = {}  # (n, k) -> frames of all k-subspaces of F_p^n, in order
        self._arrow_memo = {}     # edge map -> {(source, target frame index): _arrow_blocks}
        self._block_pairs = {}    # each distinct _arrow_blocks pair, to itself
        self._closing = [[(a, s, t) for a, (s, t) in enumerate(quiver.arrows) if max(s, t) == v]
                         for v in range(quiver.n)]   # the arrows a subrep walk tests at v

    # ---- classification by orbit enumeration ------------------------------

    def tuple_space_size(self, dim):
        return self.q ** sum(dim[s] * dim[t] for s, t in self.quiver.arrows)

    def _generator_actions(self, dim, shapes):
        """Each GL_{dim_v} generator g, acting as g M on arrows into v and as
        M g^-1 on arrows out of v, as (action, v, g, g^-1): action is the
        (gather, rows, terms) form of its matrix on flat edge tuples that
        act_on_level reads.  A row of that matrix that is a unit vector e_j
        gathers coordinate j.  The other rows are numbered r = 0, 1, ...,
        rows - 1; each nonzero entry c of row r, in column j, is one (j, c, r)
        of terms, and gather reads the row's value from past the tuple's end.
        Rows are read off the entries of g and g^-1: entry (i, j) of the
        block of an arrow into v is sum_k g_ik M_kj, of an arrow out of v
        sum_k M_ik (g^-1)_kj.  Generators whose matrix is the identity are
        dropped.  A row of more than two terms, which gl_generators never
        gives, raises a ValueError."""
        f, arrows = self.field, self.quiver.arrows
        width = sum(r * c for r, c in shapes)
        actions = []
        for v in range(self.quiver.n):
            for g, ginv in gl_generators(f, dim[v]):
                picks, rows, terms, offset = [], 0, [], 0
                for (s, t), (n_rows, n_cols) in zip(arrows, shapes):
                    for i, j in product(range(n_rows), range(n_cols)):
                        if t == v:
                            row = [(offset + k * n_cols + j, c)
                                   for k, c in enumerate(g.entries[i]) if c]
                        elif s == v:
                            row = [(offset + i * n_cols + k, inv_row[j])
                                   for k, inv_row in enumerate(ginv.entries) if inv_row[j]]
                        else:
                            row = [(offset + i * n_cols + j, 1)]
                        if len(row) > 2:
                            raise ValueError(f"a GL_{dim[v]} generator at vertex {v} gives "
                                             f"an image entry of {len(row)} terms; "
                                             "act_on_level takes one or two")
                        if len(row) == 1 and row[0][1] == 1:
                            picks.append(row[0][0])
                        else:
                            picks.append(width + rows)
                            terms.extend((k, c, rows) for k, c in row)
                            rows += 1
                    offset += n_rows * n_cols
                if picks != list(range(width)):
                    # itemgetter of one index returns the item, of a slice a tuple
                    gather = (itemgetter(*picks) if len(picks) > 1
                              else itemgetter(slice(picks[0], picks[0] + 1)))
                    actions.append(((gather, rows, tuple(terms)), v, g, ginv))
        return actions

    def classify(self, dim):
        """Isomorphism classes of representations with the given dimension vector.

        Edge tuples are walked as flat coordinate vectors (flatten()'s
        layout) in lexicographic order, which is the order of the product of
        the per-arrow matrix enumerations.  Representatives are the least
        tuple of each orbit, so labels are deterministic.  Each orbit is
        closed a level at a time: act_on_level maps the whole last level
        under each of the _generator_actions, and the images not yet in the
        orbit are the next level.  The grade's table _canon[dim] is
        (weights, index_of): the tuple t of lex rank sum_i t_i weights_i =
        sum_i t_i p^(width - 1 - i) has its class index at index_of[rank], an
        array of p^width ints allocated once the tuple space has passed the
        budget (canon_index reads it).  |Aut| is read off by
        orbit-stabilizer inside prod_v GL(dim_v); an orbit size that does
        not divide the group order raises a ValueError.
        """
        dim = tuple(dim)
        if dim in self._classes:
            return self._classes[dim]
        check_budget(f"classify{dim} tuple space", self.tuple_space_size(dim), self.budget)
        f, p = self.field, self.q
        shapes = [(dim[t], dim[s]) for s, t in self.quiver.arrows]
        width = sum(r * c for r, c in shapes)
        actions = [a[0] for a in self._generator_actions(dim, shapes)]
        group = prod(gl_order(d, p) for d in dim)
        weights = tuple(p ** i for i in reversed(range(width)))
        index_of = array("i", [-1]) * p ** width
        classes = []
        for rank, tup in enumerate(enumerate_vectors(f, width)):
            if index_of[rank] >= 0:
                continue
            index = len(classes)
            orbit, level = {tup}, [tup]
            while level:
                new = set()
                for action in actions:
                    new.update(act_on_level(action, level, p))
                level = new - orbit
                orbit |= level
            for t in orbit:
                index_of[sum(map(mul, weights, t))] = index
            size = len(orbit)
            if group % size:
                raise ValueError(f"classify{dim}: orbit of size {size} does not divide "
                                 f"the group order {group}")
            rep = Representation._of(self.quiver, f, dim, unflatten(f, tup, shapes))
            cls = IsoClass(dim, index, rep, size, group // size)
            classes.append(cls)
            self._by_label[cls.label] = cls
        self._classes[dim] = classes
        self._canon[dim] = weights, index_of
        return classes

    def canon_index(self, dim, flat):
        """The class index of the flat edge tuple flat in the classified grade dim."""
        weights, index_of = self._canon[dim]
        return index_of[sum(map(mul, weights, flat))]

    def class_of(self, rep):
        classes = self.classify(rep.dim)
        index = rep._index
        if index is None:
            if rep._flat is None:
                rep._flat = flatten(rep.edge_maps)
            index = rep._index = self.canon_index(rep.dim, rep._flat)
        try:
            return classes[index]
        except IndexError:
            raise ValueError(f"class index {index} of dim {rep.dim} is past the "
                             f"{len(classes)} classes of its table") from None

    def is_isomorphic(self, M, N):
        self._same_quiver(M, N)
        if M.dim != N.dim:
            return False
        return self.class_of(M).index == self.class_of(N).index

    def aut_order(self, M):
        return self.class_of(M).aut

    def classes_up_to(self, bound):
        """All iso classes with total dimension <= bound, in label order."""
        out = []
        for total in range(bound + 1):
            for dim in dim_vectors_with_total(self.quiver.n, total):
                out.extend(self.classify(dim))
        return out

    def class_tuples(self, bound, k):
        """Every k-tuple of classes with total dimension <= bound, in the
        lexicographic order of classes_up_to(bound)."""
        return tuples_up_to(self.classes_up_to(bound), k, bound)

    def class_by_label(self, label):
        if label in self._by_label:
            return self._by_label[label]
        dim, index = parse_label(label)
        return self.classify(dim)[index]

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
        dom_blocks = [(N.dim[v], M.dim[v]) for v in range(self.quiver.n)]
        cod_blocks = self.cocycle_blocks(M, N)
        dom_dim = sum(r * c for r, c in dom_blocks)
        cols = []
        for unit in Matrix.identity(f, dom_dim).entries:
            phi = unflatten(f, unit, dom_blocks)
            cols.append(flatten(phi[t] * ma - na * phi[s] for (s, t), ma, na
                                in zip(self.quiver.arrows, M.edge_maps, N.edge_maps)))
        cod_dim = sum(r * c for r, c in cod_blocks)
        return Matrix(f, cols, dom_dim, cod_dim).transpose(), dom_blocks, cod_blocks

    @kept
    def hom_basis(self, M, N):
        """A basis of Hom(M, N) as RepMorphisms."""
        self._same_quiver(M, N)
        phi, dom_blocks, _ = self._presentation_matrix(M, N)
        return [RepMorphism(M, N, unflatten(self.field, vec, dom_blocks))
                for vec in phi.kernel_basis()]

    def hom_dim(self, M, N):
        return len(self.hom_basis(M, N))

    def euler_form(self, m, n):
        """<m, n> = sum_v m_v n_v - sum_{a: s->t} m_s n_t."""
        if len(m) != self.quiver.n or len(n) != self.quiver.n:
            raise ValueError("dimension vector length mismatch")
        val = sum(a * b for a, b in zip(m, n))
        for s, t in self.quiver.arrows:
            val -= m[s] * n[t]
        return val

    # ---- morphism-set enumeration -----------------------------------------

    def _hom_points(self, M, N):
        """Every morphism M -> N as a flat point: span_points over hom_basis(M, N)."""
        basis = [flatten(b.vertex_maps) for b in self.hom_basis(M, N)]
        return span_points(self.field, basis, sum(m * n for m, n in zip(M.dim, N.dim)),
                           f"Hom-space span enumeration dim {len(basis)}", self.budget)

    @kept
    def _orbit_tree(self, cls):
        """{flat edge tuple: (parent tuple, generator action) or None at the root}
        over the orbit of cls: breadth-first from the representative's flat
        tuple with classify's _generator_actions in their order.  Each level
        is mapped whole by act_on_level under every action, and the images
        are read tuple by tuple, each tuple's under every action in turn, so
        each tuple is its parent's image under the (action, v, g, g^-1)
        stored with it.  Built on first use per class; its
        size must be cls.orbit_size, within the tuple_space_size(cls.dim)
        that classify has budgeted, and a ValueError says when it is not."""
        dim, p = cls.dim, self.q
        shapes = [(dim[t], dim[s]) for s, t in self.quiver.arrows]
        actions = self._generator_actions(dim, shapes)
        root = flatten(cls.rep.edge_maps)
        tree, level = {root: None}, [root]
        while level:
            nxt = []
            images = [act_on_level(act[0], level, p) for act in actions]
            for cur, news in zip(level, zip(*images)):
                for act, new in zip(actions, news):
                    if new not in tree:
                        tree[new] = cur, act
                        nxt.append(new)
            level = nxt
        if len(tree) != cls.orbit_size:
            raise ValueError(f"orbit tree of {cls.label} has {len(tree)} tuples, "
                             f"not its orbit size {cls.orbit_size}")
        return tree

    def _tree_path(self, M):
        """The generator actions on the _orbit_tree path from M's flat tuple up
        to the root, first step first: M = a_0 a_1 ... a_(k-1) rep.  The path
        visits distinct tuples of one orbit, so k is below the orbit size."""
        tree = self._orbit_tree(self.class_of(M))
        path, node = [], tree[M._flat]
        while node is not None:
            path.append(node[1])
            node = tree[node[0]]
        return path

    @kept
    def first_iso(self, M, N):
        """An isomorphism M -> N, or None when M and N are not isomorphic.

        It is h_N h_M^-1 for the transporters h: rep -> M and rep -> N from
        their class representative, products of the generators on their
        _tree_path; h_M^-1 multiplies the closed-form generator inverses in
        reverse order.  No Hom space is walked, so no span budget is
        charged, and each path is shorter than the orbit.  The result is
        checked against every arrow (commutes; ValueError if a square fails)
        and kept per (M, N), by content.
        """
        if not self.is_isomorphic(M, N):
            return None
        maps = [Matrix.identity(self.field, d) for d in M.dim]
        for _, v, _, g_inv in self._tree_path(M):
            maps[v] = g_inv * maps[v]
        for _, v, g, _ in reversed(self._tree_path(N)):
            maps[v] = g * maps[v]
        iso = RepMorphism._of(M, N, maps)
        if not commutes(iso, self.q):
            raise ValueError(f"transported map {M.dim} -> {N.dim} does not commute "
                             "with the arrows")
        return iso

    @kept
    def aut_elements(self, M):
        """Every automorphism of M: the invertible points of the End(M) span,
        in span_points' walk order."""
        shapes = [(d, d) for d in M.dim]
        return [RepMorphism(M, M, unflatten(self.field, point, shapes))
                for point in self._hom_points(M, M) if blocks_invertible(point, M.dim, self.q)]

    # ---- subobjects, quotients, extensions ---------------------------------

    @kept
    def _frame(self, B):
        """linalg.basis_frame(B), kept per basis."""
        return basis_frame(B)

    def _arrow_blocks(self, sub_cols, rest_cols, ft):
        """Y = P_t^-1 E_a P_s for a: s -> t, from the columns of E_a B_s, the columns
        rest_s of E_a (that is, E_a C_s) and the subspace frame at t: None when its
        lower-left block proj_t E_a B_s is nonzero, else its upper-left block (the
        rows pivots_t of E_a B_s, which is U_a) and lower-right block
        (proj_t E_a C_s, which is (E/U)_a), row-major.  Equal block pairs are
        one object, so that the arrow memo holds each once."""
        p, pivots, low = self.q, ft[1], ft[3].entries
        if any(sum(map(mul, row, col)) % p for row in low for col in sub_cols):
            return None
        pair = (tuple(col[i] for i in pivots for col in sub_cols),
                tuple(sum(map(mul, row, col)) % p for row in low for col in rest_cols))
        return self._block_pairs.setdefault(pair, pair)

    def _subrep_walk(self, E, sub_dim=None, free=()):
        """(sub_dim, frames, blocks) for every U <= E of dimension sub_dim, or of
        every dimension when sub_dim is None: a cached subspace frame per vertex
        and the _arrow_blocks of every arrow.  A vertex in free, where every
        arrow of E has a zero edge map, is walked once per dimension k with no
        frame (None), standing for its [e choose k]_q subspaces, which all
        give the same blocks.  The budget is checked on the whole walk at
        call time, before any frame is built.  Vertices are walked in order
        through their subspace lists, by dimension and then in
        subspace_frames order (their product's order); an arrow is tested once
        both its ends are chosen and prunes the subtree when it fails.  Blocks
        are memoized on the context per edge map E_a and pair of frame
        indices, so middle terms that share an edge map share them.  On a
        memo miss, the columns of E_a B_s and E_a C_s come from a table that
        this walk keeps per arrow and source frame index, and is dropped
        with the walk.  An arrow with a zero edge map is never tested and
        adds nothing to the memo: its blocks are the zero pair of the shapes
        that the sub-dimensions of its ends give (empty when an end has
        dimension 0)."""
        q = self.q
        if sub_dim is None:
            what, ks = f"subspace tuples for subreps of every dim <= {E.dim}", [
                range(e + 1) for e in E.dim]
        else:
            what, ks = f"subspace tuples for subreps of dim {sub_dim}", [(k,) for k in sub_dim]
        walked = [len(kv) if v in free else sum(gaussian_binomial(e, k, q) for k in kv)
                  for v, (e, kv) in enumerate(zip(E.dim, ks))]
        check_budget(what, prod(walked), self.budget)
        per_vertex = []     # per vertex: (k, frame index among all of F_p^e, frame)
        for v, (e, kv) in enumerate(zip(E.dim, ks)):
            if v in free:
                per_vertex.append([(k, None, None) for k in kv])
                continue
            entries = []
            for k in kv:
                if (e, k) not in self._subspace_frames:
                    self._subspace_frames[e, k] = list(
                        subspace_frames(self.field, e, k, self.budget))
                offset = sum(gaussian_binomial(e, j, q) for j in range(k))
                entries.extend((k, offset + i, fr)
                               for i, fr in enumerate(self._subspace_frames[e, k]))
            per_vertex.append(entries)
        n, edge_maps, pairs = self.quiver.n, E.edge_maps, self._block_pairs
        zero = [ea.is_zero() for ea in edge_maps]
        closing = [[(a, s, t) for a, s, t in at_v if not zero[a]] for at_v in self._closing]
        # per vertex v: (a, s, t, {(k_s, k_t): zero block pair}) of each zero-map
        # arrow closed at v whose ends both have positive dimension
        zeros = [[] for _ in range(n)]
        for v, at_v in enumerate(self._closing):
            for a, s, t in at_v:
                if zero[a] and E.dim[s] and E.dim[t]:
                    table = {}
                    for ks, kt in product(range(E.dim[s] + 1), range(E.dim[t] + 1)):
                        pair = (0,) * (kt * ks), (0,) * ((E.dim[t] - kt) * (E.dim[s] - ks))
                        table[ks, kt] = pairs.setdefault(pair, pair)
                    zeros[v].append((a, s, t, table))
        memos = [self._arrow_memo.setdefault(ea, {}) for ea in edge_maps]
        sources = [{} for _ in edge_maps]   # per arrow: source frame index -> its columns
        picked, dims, index, frames = [-1] * n, [0] * n, [0] * n, [None] * n
        blocks = [pairs.setdefault(((), ()), ((), ()))] * len(edge_maps)

        def walk():
            v = 0
            while v >= 0:
                if v == n:
                    yield tuple(dims), tuple(frames), tuple(blocks)
                    v -= 1
                    continue
                picked[v] += 1
                if picked[v] == len(per_vertex[v]):
                    picked[v], v = -1, v - 1
                    continue
                dims[v], index[v], frames[v] = per_vertex[v][picked[v]]
                for a, s, t, table in zeros[v]:
                    blocks[a] = table[dims[s], dims[t]]
                for a, s, t in closing[v]:
                    memo, key = memos[a], (index[s], index[t])
                    if key not in memo:
                        cols = sources[a].get(index[s])
                        if cols is None:
                            ea = edge_maps[a]
                            cols = sources[a][index[s]] = (
                                tuple(tuple(sum(map(mul, row, col)) % q for row in ea.entries)
                                      for col in zip(*frames[s][0].entries)),
                                _columns(ea, frames[s][2]))
                        memo[key] = self._arrow_blocks(*cols, frames[t])
                    blocks[a] = memo[key]
                    if blocks[a] is None:
                        break
                else:
                    v += 1
        return walk()

    def _subreps(self, E, walk):
        """The (inclusion U -> E, E/U, projection E -> E/U) triples of a
        _subrep_walk, in its order; triples share the matrices of equal blocks."""
        f, arrows = self.field, self.quiver.arrows
        mats = {}   # (id of a block pair, its shapes) -> (U_a, (E/U)_a)
        out = []
        for sub_dim, frames, blocks in walk:
            qdim = tuple(e - k for e, k in zip(E.dim, sub_dim))
            maps = []
            for (s, t), b in zip(arrows, blocks):
                key = id(b), ((sub_dim[t], sub_dim[s]), (qdim[t], qdim[s]))
                if key not in mats:
                    mats[key] = unflatten(f, b[0] + b[1], key[1])
                maps.append(mats[key])
            U = Representation._of(self.quiver, f, sub_dim, [m[0] for m in maps])
            Q = Representation._of(self.quiver, f, qdim, [m[1] for m in maps])
            out.append((RepMorphism._of(U, E, [fr[0] for fr in frames]), Q,
                        RepMorphism._of(E, Q, [fr[3] for fr in frames])))
        return out

    def class_subreps(self, E, cn, cm):
        """The _subreps triples of the U <= E with U in class cn and E/U in class
        cm, in walk order: the classes are read off the walk's flat blocks, as
        census reads them, and only the matching U are built."""
        canon = self.canon_index
        return self._subreps(E, (w for w in self._subrep_walk(E, cn.dim)
                                 if canon(cn.dim, sum([b[0] for b in w[2]], ())) == cn.index
                                 and canon(cm.dim, sum([b[1] for b in w[2]], ())) == cm.index))

    @kept
    def subrep_frames(self, E, bases):
        """(inclusion U -> E, E/U, projection E -> E/U, frames) for U spanned by
        bases, a tuple of one basis matrix per vertex: a _subreps triple
        followed by the _frame of each basis, kept per (E, bases); U's maps are
        in the given bases (frame_coordinates).  Bases that are not of full
        column rank, or that span no subrepresentation, raise on every call."""
        frames = tuple(self._frame(B) for B in bases)
        blocks = []
        for (s, t), ea in zip(self.quiver.arrows, E.edge_maps):
            eb = ea * frames[s][0]
            b = self._arrow_blocks(eb.transpose().entries, _columns(ea, frames[s][2]), frames[t])
            if b is None:
                raise ValueError("the span of the bases is not a subrepresentation")
            blocks.append((flatten([frame_coordinates(frames[t], eb)]), b[1]))
        return self._subreps(E, [(tuple(B.cols for B in bases), frames, blocks)])[0] + (frames,)

    @kept
    def direct_sum(self, y, z):
        """The chosen direct sum y (+) z (Representation.direct_sum), one object
        per ordered pair, so that tests of endpoints against it are identity tests."""
        return y.direct_sum(z)

    # extensions: cocycles live in the codomain of the presentation matrix

    def cocycle_blocks(self, M, N):
        return [(N.dim[t], M.dim[s]) for s, t in self.quiver.arrows]

    def middle_term(self, M, N, cocycle):
        """Extension of M by N with blocks [[N_a, c_a], [0, M_a]] per arrow.

        cocycle: a flat coordinate vector, the blocks c_a of shape
        N.dim[t] x M.dim[s] in arrow order as flatten() lays them out.  The
        zero cocycle yields N.direct_sum(M) itself.
        """
        f = self.field
        if not all(isinstance(x, int) for x in cocycle):
            raise TypeError("a cocycle is a flat vector of field elements")
        blocks = unflatten(f, cocycle, self.cocycle_blocks(M, N))
        return Representation(self.quiver, f, dim_add(N.dim, M.dim), [
            Matrix.block(f, [[na, c], [None, ma]])
            for na, c, ma in zip(N.edge_maps, blocks, M.edge_maps)])

    @kept
    def middle_term_ses(self, M, N, cocycle):
        """(E, f: N -> E, g: E -> M) for the extension built from the cocycle
        tuple, kept by content."""
        E = self.middle_term(M, N, cocycle)
        return E, block_inclusion(N, E, (0,) * self.quiver.n), block_projection(E, M, N.dim)

    @kept
    def ext_complement(self, M, N):
        """(complement, reduction) in the cocycle space, kept per (M, N).

        The coboundaries are the image of the presentation matrix phi; one
        rref of phi^T gives their canonical basis and its pivot coordinates.
        complement: the coordinates off those pivots, whose standard vectors
        complete the coboundaries.  reduction: the cocycle-space matrix
        sending a cocycle to its representative in the span of those e_j,
        the projection_rows of the coboundaries at the complement rows and
        zero at the pivot rows; the subspace frames use the same rows.
        """
        phi, _, _ = self._presentation_matrix(M, N)
        n = phi.rows
        red, pivots = phi.transpose().rref()
        canon = tuple(zip(*red.entries[:len(pivots)])) or ((),) * n
        comp, proj = projection_rows(n, pivots, canon, self.q)
        rows = [(0,) * n] * n
        for c, row in zip(comp, proj):
            rows[c] = row
        return comp, Matrix._of(self.field, tuple(rows), n, n)

    def ext_class_reps(self, M, N):
        """Canonical coset representatives of Ext^1(M, N) as cocycle vectors.

        The coboundaries are the image of the presentation matrix; the span
        of the standard vectors off their pivot coordinates (ext_complement)
        holds one representative per class.
        """
        comp, reduction = self.ext_complement(M, N)
        units = Matrix.identity(self.field, reduction.rows).entries
        return list(span_points(self.field, [units[j] for j in comp], reduction.rows,
                                f"Ext^1 class enumeration dim {len(comp)}", self.budget))

    @kept
    def extension_class(self, M, N, E, incl, proj):
        """Cocycle coordinates (canonically reduced) of the extension (incl, proj).

        A linear section of proj is chosen per vertex, the defect of the
        section against the edge maps is pulled back through incl, and the
        result is reduced modulo coboundaries to the canonical complement.
        Kept by the content of all five arguments.
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
        pulled = []
        for k, (s, t) in enumerate(self.quiver.arrows):
            defect = E.edge_maps[k] * sections[s] - sections[t] * M.edge_maps[k]
            pulled.append(incl.vertex_maps[t].solve_matrix(defect))
            if pulled[-1] is None:
                raise ValueError("section defect not in the subobject")
        return self.reduce_cocycle(M, N, flatten(pulled))

    def reduce_cocycle(self, M, N, vec):
        """Canonical representative of vec modulo coboundaries."""
        return self.ext_complement(M, N)[1].apply(vec)

    # ---- exact-pair counting ------------------------------------------------

    def count_exact_pairs(self, M, N, E):
        """P^E_{MN}: the number of exact pairs 0 -> N -f-> E -g-> M -> 0."""
        self._same_quiver(M, N, E)
        if dim_add(M.dim, N.dim) != E.dim:
            return 0
        return self.pair_count(self.class_of(M), self.class_of(N), self.class_of(E))

    def pair_count(self, cm, cn, ce):
        """P^E_{MN} for iso classes M, N, E.

        Each exact pair factors through its image subrepresentation, so the
        count is aut(M) * aut(N) * #{invariant U <= E : U ~ N, E/U ~ M},
        read off the census of E at sub-dimension dim N.
        """
        g = 0
        if dim_add(cm.dim, cn.dim) == ce.dim:
            g = self.census(ce, cn.dim).get((cm.index, cn.index), 0)
        return cm.aut * cn.aut * g

    def census(self, ce, sub_dim):
        """{(class index of E/U, class index of U): count} over U <= E of dim sub_dim,
        read off the walk's concatenated flat blocks (flatten()'s layout); builds no object.
        One walk of E over every sub-dimension fills the census of E at each."""
        return self._census_walk(ce)[sub_dim]

    def _free_weights(self, dim, free):
        """{k: prod_{v in free} [dim_v choose k_v]_q} over the sub-dimensions k of
        dim, in product order: the subspace tuples at the free vertices that
        one yield of a walk with those free vertices stands for."""
        return {k: prod(gaussian_binomial(dim[v], k[v], self.q) for v in free)
                for k in product(*(range(e + 1) for e in dim))}

    @kept
    def _census_walk(self, ce):
        """{sub-dimension: census(ce, sub-dimension)} from one walk of E: the
        walk's yields are counted by (sub-dimension, blocks) first, and the
        classes of U and E/U are looked up once per distinct key.  The
        vertices where every arrow of E has a zero edge map (those of
        dimension 0 among them) are walked free, once per sub-dimension, and
        each key's count is multiplied by its sub-dimension's weight in
        _free_weights."""
        E, arrows = ce.rep, self.quiver.arrows
        zero = [ea.is_zero() for ea in E.edge_maps]
        free = tuple(v for v in range(self.quiver.n)
                     if all(zero[a] for a, st in enumerate(arrows) if v in st))
        walk = self._subrep_walk(E, None, free)
        tallies = {}    # sub-dimension -> (quotient dimension, counts, free weight)
        for k, weight in self._free_weights(ce.dim, free).items():
            qdim = tuple(e - x for e, x in zip(ce.dim, k))
            self.classify(k)
            self.classify(qdim)
            tallies[k] = qdim, Counter(), weight
        canon = self.canon_index
        for (k, blocks), n in Counter(map(itemgetter(0, 2), walk)).items():
            qdim, counts, weight = tallies[k]
            counts[canon(qdim, sum([b[1] for b in blocks], ())),
                   canon(k, sum([b[0] for b in blocks], ()))] += n * weight
        return {k: counts for k, (_, counts, _) in tallies.items()}

    # ---- indecomposables ----------------------------------------------------

    def indecomposable_counts(self, max_total):
        """{d: n_d} over the grades 0 < |d| <= max_total, in classes_up_to order:
        n_d is the number of indecomposable classes of dimension d.

        By Krull-Schmidt the class counts c(d) = len(classify(d)) satisfy
        sum_d c(d) x^d = prod_a (1 - x^a)^(-n_a), so n_d is c(d) less the
        coefficient of x^d in the product over the grades before d (a
        plethystic logarithm); no endomorphism is walked.  Counts that are not
        those of a Krull-Schmidt category can give a negative n_d.
        """
        grades = [d for total in range(max_total + 1)
                  for d in dim_vectors_with_total(self.quiver.n, total)]
        series = {d: int(not any(d)) for d in grades}   # [x^d] of the product so far
        counts = {}
        for d in grades[1:]:
            n_d = counts[d] = len(self.classify(d)) - series[d]
            # times (1 - x^d)^(-n_d): |n_d| in-place divisions by 1 - x^d (upward
            # through the grades), or products with it (downward)
            sign, order = (1, grades) if n_d > 0 else (-1, grades[::-1])
            for _ in range(abs(n_d)):
                for g in order:
                    rest = tuple(a - b for a, b in zip(g, d))
                    if min(rest) >= 0:
                        series[g] += sign * series[rest]
        return counts

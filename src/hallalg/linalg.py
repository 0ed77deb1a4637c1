"""Exact dense linear algebra over prime fields.

Everything here is immutable and deterministic: matrices are tuples of
tuples, pivots are always the first nonzero entry, and enumeration runs
in a fixed order: lexicographic where it fixes class labels, modular
Gray-code for the points of a span.  No floating point anywhere.  combine
is the one accumulator of sparse {key: coeff} vectors, for every layer.
"""

from itertools import combinations, product
from operator import add, mul


class BudgetError(Exception):
    """An enumeration would exceed the configured budget.

    `where` is appended to the message; a verify suite sets it to name
    itself and the instance that ran out.
    """

    def __init__(self, what, count, budget):
        self.what = what
        self.count = count
        self.budget = budget
        self.where = ""
        super().__init__(what, count, budget)

    def __str__(self):
        return f"{self.what}: {self.count} items exceeds budget {self.budget}{self.where}"


DEFAULT_BUDGET = 2_000_000


def check_budget(what, count, budget):
    if count > budget:
        raise BudgetError(what, count, budget)
    return count


def combine(terms):
    """sum of c * x over (x, c) in terms, each x a {key: coeff} dict.

    Accumulates into one dict, dropping a key whose sum cancels, so n terms
    cost O(total size) rather than the O(n^2) of repeated vector additions.
    """
    acc = {}
    for coeffs, c in terms:
        for k, v in coeffs.items():
            s = acc.get(k, 0) + v * c
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
    return acc


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The field F_p for a prime p; elements are ints in [0, p)."""

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class Matrix:
    """Dense matrix over a PrimeField; every result is reduced mod p.

    0 x n and n x 0 shapes are legal; they show up whenever a vertex
    carries the zero space.
    """

    __slots__ = ("field", "rows", "cols", "entries", "_hash")

    def __init__(self, field, entries, rows=None, cols=None):
        entries = tuple(tuple(row) for row in entries)
        if rows is None:
            rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if entries else 0
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("ragged matrix data")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._hash = None

    @classmethod
    def _of(cls, field, entries, rows, cols):
        """A matrix from row tuples this module has just built, unchecked.

        A classmethod rather than a function so that perfbench's tracer,
        which times plain methods and module functions, leaves it alone.
        """
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.entries = entries
        m._hash = None
        return m

    @classmethod
    def block(cls, field, grid):
        """The matrix laid out block by block from grid, a list of block rows.

        Blocks in one block row share their row count and blocks in one
        block column their column count.  None stands for a zero block; its
        shape is read off the other blocks of its row and column, so every
        block row and block column needs one block that is not None.
        """
        heights = [next(filter(None, row)).rows for row in grid]
        widths = [next(filter(None, col)).cols for col in zip(*grid)]
        z = (field.zero,)
        rows = []
        for row, h in zip(grid, heights):
            if len(row) != len(widths):
                raise ValueError("ragged block grid")
            joined = None
            for m, w in zip(row, widths):
                if m is None:
                    part = (z * w,) * h
                elif m.rows == h and m.cols == w:
                    part = m.entries
                else:
                    raise ValueError(f"block {m.rows}x{m.cols} does not fit a {h}x{w} slot")
                joined = part if joined is None else map(add, joined, part)
            rows.extend(joined)
        return cls._of(field, tuple(rows), sum(heights), sum(widths))

    def columns(self, lo, hi):
        """Columns lo, ..., hi - 1, as a rows x (hi - lo) matrix."""
        return Matrix._of(self.field, tuple(row[lo:hi] for row in self.entries),
                          self.rows, hi - lo)

    @classmethod
    def identity(cls, field, n):
        z = (field.zero,)
        return cls._of(field, tuple(z * i + (field.one,) + z * (n - 1 - i) for i in range(n)),
                       n, n)

    def __eq__(self, other):
        return self is other or (isinstance(other, Matrix) and self.rows == other.rows
                                 and self.cols == other.cols and self.entries == other.entries
                                 and self.field == other.field)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.entries))
        return self._hash

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.entries})"

    def is_zero(self):
        z = self.field.zero
        return all(e == z for row in self.entries for e in row)

    def transpose(self):
        entries = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return Matrix._of(self.field, entries, self.cols, self.rows)

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in -")
        p = self.field.p
        return Matrix._of(self.field, tuple(
            tuple((a - b) % p for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)), self.rows, self.cols)

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in *: {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        p = self.field.p
        bt = tuple(zip(*other.entries)) if other.rows else ((),) * other.cols
        return Matrix._of(self.field, tuple(
            tuple(sum(map(mul, arow, bcol)) % p for bcol in bt)
            for arow in self.entries), self.rows, other.cols)

    def scale(self, c):
        p = self.field.p
        return Matrix._of(self.field, tuple(tuple(c * a % p for a in row)
                                            for row in self.entries),
                          self.rows, self.cols)

    def rref(self):
        """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
        p = self.field.p
        m = [list(row) for row in self.entries]
        pivots = []
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            sel = None
            for i in range(r, self.rows):
                if m[i][c] != 0:
                    sel = i
                    break
            if sel is None:
                continue
            m[r], m[sel] = m[sel], m[r]
            inv = self.field.inv(m[r][c])
            m[r] = pivot_row = [inv * x % p for x in m[r]]
            for i in range(self.rows):
                factor = m[i][c]
                if i != r and factor != 0:
                    m[i] = [(x - factor * y) % p for x, y in zip(m[i], pivot_row)]
            pivots.append(c)
            r += 1
        return Matrix._of(self.field, tuple(map(tuple, m)), self.rows, self.cols), \
            tuple(pivots)

    def rank(self):
        """The rank, by forward elimination: each pivot row clears its column
        from the rows left, and zero rows drop out (no reduced form is built)."""
        p = self.field.p
        rows = [row for row in self.entries if any(row)]
        rank = 0
        while rows:
            pivot = rows.pop()
            c = next(j for j, x in enumerate(pivot) if x)
            a = pivot[c]
            rows = [r for r in ([(a * x - r[c] * y) % p for x, y in zip(r, pivot)] if r[c] else r
                                for r in rows) if any(r)]
            rank += 1
        return rank

    def kernel_basis(self):
        """Basis of the right kernel, as a list of column vectors (tuples)."""
        f = self.field
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [f.zero] * self.cols
            v[fc] = f.one
            for r, pc in enumerate(pivots):
                v[pc] = -red.entries[r][fc] % f.p
            basis.append(tuple(v))
        return basis

    def solve_matrix(self, rhs):
        """One solution X of self * X = rhs, free variables zero, by one rref of
        [self | rhs]; None if a pivot lies past self's columns."""
        if rhs.rows != self.rows:
            raise ValueError("rhs row count mismatch")
        n, z = self.cols, (self.field.zero,)
        if not rhs.cols:
            return Matrix._of(self.field, ((),) * n, n, 0)
        red, pivots = Matrix._of(self.field, tuple(map(add, self.entries, rhs.entries)),
                                 self.rows, n + rhs.cols).rref()
        if pivots and pivots[-1] >= n:
            return None
        rows = [z * rhs.cols] * n
        for r, pc in enumerate(pivots):
            rows[pc] = red.entries[r][n:]
        return Matrix._of(self.field, tuple(rows), n, rhs.cols)

    def apply(self, vec):
        """Apply to a coordinate vector (tuple), returning a tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        p = self.field.p
        return tuple(sum(map(mul, row, vec)) % p for row in self.entries)


def flatten(mats):
    """The entries of a sequence of matrices, matrix by matrix, row-major.

    This is the one layout of flat coordinates: Hom spaces vertex by
    vertex, cocycles arrow by arrow, endomorphisms vertex by vertex.
    """
    return tuple(x for m in mats for row in m.entries for x in row)


def unflatten(field, flat, shapes):
    """The matrices of the given (rows, cols) shapes whose flatten() is flat."""
    if len(flat) != sum(r * c for r, c in shapes):
        raise ValueError(f"{len(flat)} coordinates do not fill the shapes {list(shapes)}")
    out, pos = [], 0
    for r, c in shapes:
        out.append(Matrix._of(field, tuple(tuple(flat[pos + i * c:pos + i * c + c])
                                           for i in range(r)), r, c))
        pos += r * c
    return tuple(out)


def enumerate_vectors(field, n):
    """All vectors of F_p^n in lexicographic order, as tuples."""
    return product(range(field.p), repeat=n)


def span_points(field, basis, length, what, budget):
    """Every point of the span of basis (flat vectors of the given length), once.

    The p^k points are walked in modular Gray-code order: step t adds the
    basis vector whose index is the number of trailing zeros of t in base
    p, so every step is one vector addition.  p^k is checked against the
    budget under the name `what` before the first point.
    """
    p, k = field.p, len(basis)
    check_budget(what, p ** k, budget)
    point = (0,) * length
    yield point
    for t in range(1, p ** k):
        j = 0
        while t % p == 0:
            t //= p
            j += 1
        point = tuple([(x + y) % p for x, y in zip(point, basis[j])])
        yield point


def blocks_invertible(point, dims, p):
    """Whether every square block of a flat point is invertible mod p.

    point holds one d x d block per d in dims, row-major and in order, as
    flatten() lays out End spaces vertex by vertex.  Each block is reduced
    by elimination; the first singular one ends the test.
    """
    pos = 0
    for d in dims:
        rest = [point[pos + i * d:pos + i * d + d] for i in range(d)]
        pos += d * d
        for c in range(d):
            i = next((i for i, r in enumerate(rest) if r[c]), None)
            if i is None:
                return False
            pivot = rest.pop(i)
            a = pivot[c]
            rest = [[(a * x - r[c] * y) % p for x, y in zip(r, pivot)] if r[c] else r
                    for r in rest]
    return True


def gl_order(d, q):
    """|GL_d(F_q)| = prod_{i<d} (q^d - q^i)."""
    out = 1
    for i in range(d):
        out *= q ** d - q ** i
    return out


def gl_generators(field, d):
    """At most four generators of GL_d(F_p) with their inverses, as (g, g^-1)
    pairs: the transvection I + E_01, inverted by I - E_01; the d-cycle
    permutation e_i -> e_(i+1 mod d), inverted by its transpose; for d >= 3
    the transposition (0 1), its own inverse; and for p > 2 diag(a, 1, ...,
    1) with a primitive root a, inverted by diag(a^(p-2), 1, ..., 1).  The
    permutations conjugate I + E_01 to every I + E_rs, which generate SL_d,
    and the diagonal one reaches every determinant.  The inverses are read
    off in closed form, with no row reduction."""
    p, gens = field.p, []

    def with_entry(r, s, x):
        """The identity with entry (r, s) set to x."""
        return Matrix._of(field, tuple(tuple(x if (i, j) == (r, s) else int(i == j)
                                             for j in range(d)) for i in range(d)), d, d)

    def permutation(images):
        """The matrix sending e_i to e_images[i]."""
        return Matrix._of(field, tuple(tuple(int(images[j] == i) for j in range(d))
                                       for i in range(d)), d, d)
    if d >= 2:
        cycle = permutation([(i + 1) % d for i in range(d)])
        gens += [(with_entry(0, 1, 1), with_entry(0, 1, p - 1)), (cycle, cycle.transpose())]
    if d >= 3:
        swap = permutation([1, 0] + list(range(2, d)))
        gens.append((swap, swap))
    # a generator of F_p^* in the (0, 0) entry covers the non-unit determinants
    if d and p > 2:
        a = primitive_root(p)
        gens.append((with_entry(0, 0, a), with_entry(0, 0, pow(a, p - 2, p))))
    return gens


def primitive_root(p):
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    return 1


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    if num % den:
        raise ValueError(f"Gaussian binomial ({n} choose {k})_{q} is {num}/{den}, not an integer")
    return num // den


def projection_rows(n, pivots, canon, p):
    """(rest, rows) for a subspace of F_p^n with pivot coordinates pivots and
    canonical basis rows canon (its basis B B_pivots^-1, row c = canon[c]):
    rest the coordinates off pivots, and per c in rest the row e_c -
    sum_r canon[c][r] e_{pivots_r}.  These rows read x_c - canon_c x_pivots,
    the coordinates of x along the complement e_rest modulo the subspace: the
    one quotient rule of subspace frames and of Ext^1 reductions."""
    rest = tuple(c for c in range(n) if c not in pivots)
    rows = []
    for c in rest:
        row = [0] * n
        row[c] = 1
        for pc, x in zip(pivots, canon[c]):
            row[pc] = -x % p
        rows.append(tuple(row))
    return rest, tuple(rows)


def _pivot_frame(B, pivots, canon):
    """The frame (B, pivots, rest, proj) of the basis B of a subspace whose
    canonical basis B B_pivots^-1 has the rows canon: the complement is e_rest
    and proj, the rows of [B | e_rest]^-1 past k, is the projection_rows
    matrix, one matrix shared by every object built on B."""
    rest, rows = projection_rows(B.rows, pivots, canon, B.field.p)
    return B, pivots, rest, Matrix._of(B.field, rows, len(rest), B.rows)


def subspace_frames(field, n, k, budget):
    """Every k-dimensional subspace of F_p^n once, as a _pivot_frame with no
    rref: B is the transpose of a reduced row echelon form with pivot columns
    pivots, so B_pivots = I and P = [B | e_rest] has P^-1 x = (x_pivots,
    x_rest - B_rest x_pivots).  Subspaces come in lexicographic order of
    pivots, then of their free entries row by row; their number is checked
    against the budget first."""
    check_budget(f"subspace enumeration ({n} choose {k})_{field.p}",
                 gaussian_binomial(n, k, field.p), budget)
    for pivots in combinations(range(n), k):
        free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, n) if c not in pivots]
        for values in enumerate_vectors(field, len(free)):
            rows = [[0] * k for _ in range(n)]
            for r, pc in enumerate(pivots):
                rows[pc][r] = 1
            for (r, c), x in zip(free, values):
                rows[c][r] = x
            yield _pivot_frame(Matrix._of(field, tuple(map(tuple, rows)), n, k), pivots, rows)


def basis_frame(B):
    """The _pivot_frame of an n x k basis B of full column rank followed by
    B_pivots^-1, pivots the pivot columns of rref(B^T): one rref of
    [B^T | I_k] gives the canonical basis B B_pivots^-1 (the transposed left
    half) and B_pivots^-1 (the transposed right half).  A basis of lower rank
    raises ValueError."""
    n, k, z = B.rows, B.cols, (0,) * B.cols
    red, pivots = Matrix._of(B.field, tuple(col + z[:i] + (1,) + z[i + 1:] for i, col in
                                            enumerate(B.transpose().entries)), k, n + k).rref()
    if k and pivots[-1] >= n:      # [B^T | I_k] has rank k; B^T alone had less
        raise ValueError("quotient by a non-injective morphism")
    canon = tuple(zip(*(row[:n] for row in red.entries))) or ((),) * n
    inv = Matrix._of(B.field, tuple(zip(*(row[n:] for row in red.entries))), k, k)
    return _pivot_frame(B, pivots, canon) + (inv,)


def frame_coordinates(frame, m):
    """X with m = B X, for m landing in the span of the basis B of a
    basis_frame: B_pivots^-1 times the rows pivots of m."""
    pivots, inv = frame[1], frame[4]
    return inv * Matrix._of(m.field, tuple(m.entries[i] for i in pivots), len(pivots), m.cols)

"""Exact dense linear algebra over prime fields.

Everything here is immutable and deterministic: matrices are tuples of
tuples, pivots are always the first nonzero entry, and enumeration runs
in a fixed order: lexicographic where it fixes class labels, modular
Gray-code for the points of a span.  No floating point anywhere.
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


def check_budget(what, count, budget=DEFAULT_BUDGET):
    if count > budget:
        raise BudgetError(what, count, budget)
    return count


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
    def zero(cls, field, rows, cols):
        return cls._of(field, ((field.zero,) * cols,) * rows, rows, cols)

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

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def is_zero(self):
        z = self.field.zero
        return all(e == z for row in self.entries for e in row)

    def transpose(self):
        entries = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return Matrix._of(self.field, entries, self.cols, self.rows)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in +")
        p = self.field.p
        return Matrix._of(self.field, tuple(
            tuple((a + b) % p for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)), self.rows, self.cols)

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

    def solve(self, rhs):
        """One solution x of self * x = rhs, or None if rhs is outside the image.

        rhs may be a tuple/list (length rows) or a rows x 1 Matrix.
        Deterministic: free variables are set to zero.
        """
        f = self.field
        if isinstance(rhs, Matrix):
            rhs = tuple(row[0] for row in rhs.entries)
        if len(rhs) != self.rows:
            raise ValueError("rhs length mismatch")
        aug = Matrix._of(f, tuple(row + (rhs[i],) for i, row in enumerate(self.entries)),
                         self.rows, self.cols + 1)
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [f.zero] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = red.entries[r][self.cols]
        return tuple(x)

    def solve_matrix(self, rhs):
        """One solution X of self * X = rhs, free variables zero as in solve(), by one
        rref of [self | rhs]; None if a pivot lies past self's columns."""
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

    def completion(self):
        """Complete the column span of this n x k matrix B to F_p^n, by one rref.

        Returns (picked, inverse).  picked lists the j whose standard vectors
        e_j complete B greedily in index order: the pivot columns of
        rref([B | I_n]) past k.  inverse is the right n x n half of that
        rref; it equals [B' | C]^-1, where B' is the pivot columns of B and
        C the picked e_j, because the pivot columns of an RREF read
        e_1, ..., e_n in order.  For B of full column rank, B' = B.
        """
        f, z = self.field, (self.field.zero,)
        n, k = self.rows, self.cols
        aug = Matrix._of(f, tuple(row + z * i + (f.one,) + z * (n - 1 - i)
                                  for i, row in enumerate(self.entries)), n, k + n)
        red, pivots = aug.rref()
        return tuple(c - k for c in pivots if c >= k), \
            Matrix._of(f, tuple(row[k:] for row in red.entries), n, n)

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        picked, inv = self.completion()
        if picked:
            raise ValueError("matrix is singular")
        return inv

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


def enumerate_matrices(rows, cols, p, budget=DEFAULT_BUDGET):
    """Yield every rows x cols matrix over F_p exactly once.

    Order is lexicographic on the row-major entry tuple, so the zero
    matrix always comes first and runs are reproducible.
    """
    field = PrimeField(p)
    check_budget(f"matrix enumeration {rows}x{cols} over F_{p}", p ** (rows * cols), budget)
    for flat in enumerate_vectors(field, rows * cols):
        yield unflatten(field, flat, ((rows, cols),))[0]


def enumerate_vectors(field, n):
    """All vectors of F_p^n in lexicographic order, as tuples."""
    return product(range(field.p), repeat=n)


def span_points(field, basis, length, what, budget=DEFAULT_BUDGET):
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
    """A generating set for GL_d(F_p): transvections plus one diagonal unit.

    Inverses are not needed by callers that close orbits under repeated
    application, since every element of a finite group has finite order.
    """
    gens = []
    if d == 0:
        return gens
    p = field.p
    for r in range(d):
        for s in range(d):
            if r == s:
                continue
            m = [[field.one if i == j else field.zero for j in range(d)]
                 for i in range(d)]
            m[r][s] = field.one
            gens.append(Matrix._of(field, tuple(map(tuple, m)), d, d))
    # any generator of F_p^* as the (0,0) entry covers the non-unit determinants
    if p > 2:
        g = primitive_root(p)
        m = [[field.one if i == j else field.zero for j in range(d)]
             for i in range(d)]
        m[0][0] = g
        gens.append(Matrix._of(field, tuple(map(tuple, m)), d, d))
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
    assert num % den == 0
    return num // den


def enumerate_subspaces(field, n, k, budget=DEFAULT_BUDGET):
    """All k-dimensional subspaces of F_p^n, one canonical basis matrix each.

    Subspaces are produced as n x k matrices whose columns are the basis;
    the basis is the transposed RREF row basis, so each subspace appears
    exactly once and the representation is canonical.
    """
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
            yield Matrix._of(field, tuple(map(tuple, rows)), k, n).transpose()

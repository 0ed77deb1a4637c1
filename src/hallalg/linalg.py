"""Exact dense linear algebra over prime fields.

Everything here is immutable and deterministic: matrices are tuples of
tuples, pivots are always the first nonzero entry, and enumeration runs
in lexicographic order so downstream classification is reproducible.
No floating point anywhere.
"""

from operator import mul


class BudgetError(Exception):
    """An enumeration would exceed the configured budget."""

    def __init__(self, what, count, budget):
        self.what = what
        self.count = count
        self.budget = budget
        super().__init__(f"{what}: {count} items exceeds budget {budget}")


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
    def zero(cls, field, rows, cols):
        return cls._of(field, ((field.zero,) * cols,) * rows, rows, cols)

    @classmethod
    def identity(cls, field, n):
        return cls._of(field, tuple(tuple(field.one if i == j else field.zero
                                          for j in range(n)) for i in range(n)), n, n)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

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
        bt = other.transpose().entries
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
        return len(self.rref()[1])

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
        """Solve self * X = rhs columnwise; None if any column is unsolvable."""
        cols = []
        for j in range(rhs.cols):
            col = self.solve(tuple(rhs.entries[i][j] for i in range(rhs.rows)))
            if col is None:
                return None
            cols.append(col)
        return Matrix._of(self.field, tuple(zip(*cols)) if cols else ((),) * self.cols,
                          self.cols, rhs.cols)

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        f = self.field
        n = self.rows
        aug = Matrix._of(f, tuple(row + ident for row, ident in
                                  zip(self.entries, Matrix.identity(f, n).entries)),
                         n, 2 * n)
        red, pivots = aug.rref()
        if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
            raise ValueError("matrix is singular")
        return Matrix._of(f, tuple(row[n:] for row in red.entries), n, n)

    def apply(self, vec):
        """Apply to a coordinate vector (tuple), returning a tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        p = self.field.p
        return tuple(sum(map(mul, row, vec)) % p for row in self.entries)


def hstack(field, mats, rows=None):
    mats = list(mats)
    if rows is None:
        rows = mats[0].rows if mats else 0
    for m in mats:
        if m.rows != rows:
            raise ValueError("hstack row mismatch")
    entries = tuple(sum((m.entries[i] for m in mats), ()) for i in range(rows))
    return Matrix._of(field, entries, rows, sum(m.cols for m in mats))


def enumerate_matrices(rows, cols, p, budget=DEFAULT_BUDGET):
    """Yield every rows x cols matrix over F_p exactly once.

    Order is lexicographic on the row-major entry tuple, so the zero
    matrix always comes first and runs are reproducible.
    """
    field = PrimeField(p)
    n = rows * cols
    total = p ** n
    check_budget(f"matrix enumeration {rows}x{cols} over F_{p}", total, budget)
    for k in range(total):
        rem = k
        flat = [0] * n
        for i in range(n - 1, -1, -1):
            flat[i] = rem % p
            rem //= p
        yield Matrix._of(field, tuple(tuple(flat[i * cols:(i + 1) * cols])
                                      for i in range(rows)), rows, cols)


def enumerate_vectors(field, n):
    """All vectors of F_p^n in lexicographic order, as tuples."""
    p = field.p
    for k in range(p ** n):
        v = [0] * n
        rem = k
        for i in range(n - 1, -1, -1):
            v[i] = rem % p
            rem //= p
        yield tuple(v)


def gl_order(d, q):
    """|GL_d(F_q)| = prod_{i<d} (q^d - q^i)."""
    out = 1
    for i in range(d):
        out *= q ** d - q ** i
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
            yield Matrix._of(field, rows, d, d)
            return
        for v in enumerate_vectors(field, d):
            if v in span:
                continue
            new_span = set()
            for s in span:
                for c in range(p):
                    new_span.add(tuple((a + c * b) % p for a, b in zip(s, v)))
            yield from extend(rows + (v,), new_span)

    zero = tuple([0] * d)
    yield from extend((), {zero})


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
    p = field.p
    check_budget(f"subspace enumeration ({n} choose {k})_{p}",
                 gaussian_binomial(n, k, p), budget)
    if k == 0:
        yield Matrix.zero(field, n, 0)
        return
    if k > n:
        return
    from itertools import combinations
    for pivots in combinations(range(n), k):
        free_positions = []
        for r in range(k):
            for c in range(pivots[r] + 1, n):
                if c not in pivots:
                    free_positions.append((r, c))
        nfree = len(free_positions)
        for assign in range(p ** nfree):
            rows = [[field.zero] * n for _ in range(k)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = field.one
            rem = assign
            for idx in range(nfree - 1, -1, -1):
                r, c = free_positions[idx]
                rows[r][c] = rem % p
                rem //= p
            yield Matrix._of(field, tuple(map(tuple, rows)), k, n).transpose()


def subspace_key(basis_matrix):
    """Canonical hashable key for the column span of an n x k matrix."""
    red, pivots = basis_matrix.transpose().rref()
    return tuple(red.entries[:len(pivots)])

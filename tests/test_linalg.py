import random

import pytest

from hallalg.linalg import (BudgetError, Matrix, PrimeField, basis_frame, blocks_invertible,
                            enumerate_vectors, flatten, frame_coordinates, gaussian_binomial,
                            gl_generators, gl_order, span_points, subspace_frames, unflatten)
from oracles import (enumerate_gl, enumerate_matrices, enumerate_subspaces, frame_matrices,
                     matrix_inverse, pivot_row_complement, zero_matrix)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_rank_and_kernel_identity():
    m = Matrix.identity(F2, 2)
    r, k = m.rank(), m.kernel_basis()
    assert r == 2 and k == []


def test_rank_and_kernel_zero_map():
    m = zero_matrix(F3, 1, 2)
    r, k = m.rank(), m.kernel_basis()
    assert r == 0 and len(k) == 2


def test_rank_and_kernel_rank_one():
    # oracle: multiply every vector of F_2^2 through the matrix
    m = Matrix(F2, [[1, 1], [1, 1]])
    kernel_oracle = [v for v in enumerate_vectors(F2, 2)
                     if all(x == 0 for x in m.apply(v))]
    r, k = m.rank(), m.kernel_basis()
    assert r == 1
    assert set(k) == set(kernel_oracle) - {(0, 0)}
    assert k == [(1, 1)]


def test_degenerate_shapes_legal():
    m = zero_matrix(F2, 0, 3)
    r, k = m.rank(), m.kernel_basis()
    assert r == 0 and len(k) == 3
    m2 = zero_matrix(F2, 3, 0)
    assert (m2.rank(), m2.kernel_basis()) == (0, [])


def column(field, vec):
    return Matrix(field, [[x] for x in vec], len(vec), 1)


def test_solve_identity():
    assert Matrix.identity(F2, 2).solve_matrix(column(F2, (1, 0))) == column(F2, (1, 0))


def test_solve_no_solution():
    assert zero_matrix(F2, 2, 2).solve_matrix(column(F2, (1, 0))) is None


def test_solve_f5_by_substitution():
    m = Matrix(F5, [[1, 2], [0, 1]])
    x = m.solve_matrix(column(F5, (0, 1)))
    assert x == column(F5, (3, 1))
    assert m.apply(x.transpose().entries[0]) == (0, 1)


def test_enumerate_matrices_counts_and_order():
    ms = list(enumerate_matrices(1, 1, 2))
    assert [m.entries for m in ms] == [((0,),), ((1,),)]
    assert len(list(enumerate_matrices(2, 1, 2))) == 4
    ms33 = list(enumerate_matrices(2, 2, 3))
    assert len(ms33) == 81
    assert ms33[0].is_zero()
    # direct odometer oracle for the ordering
    flats = [tuple(x for row in m.entries for x in row) for m in ms33]
    assert flats == sorted(flats)
    assert len(set(flats)) == 81


def test_flatten_unflatten_round_trip():
    shapes = [(2, 3), (0, 2), (3, 0), (1, 1), (0, 0)]
    rng = random.Random(5)
    mats = tuple(Matrix(F3, [[rng.randrange(3) for _ in range(c)] for _ in range(r)], r, c)
                 for r, c in shapes)
    flat = flatten(mats)
    assert len(flat) == 7
    assert flat[:6] == mats[0].entries[0] + mats[0].entries[1]   # row-major, block by block
    back = unflatten(F3, flat, shapes)
    assert back == mats
    assert [(m.rows, m.cols) for m in back] == shapes
    assert flatten(unflatten(F3, flat, shapes)) == flat
    for wrong in (flat[:-1], flat + (0,)):
        with pytest.raises(ValueError):
            unflatten(F3, wrong, shapes)


def test_block_and_columns():
    a = Matrix(F5, [[1, 2], [3, 4]])
    b = Matrix(F5, [[0, 1]])
    c = Matrix(F5, [[2], [3]])
    m = Matrix.block(F5, [[a, c], [b, None]])
    assert m == Matrix(F5, [[1, 2, 2], [3, 4, 3], [0, 1, 0]])
    assert m.columns(0, 2) == Matrix(F5, [[1, 2], [3, 4], [0, 1]])
    assert m.columns(2, 3) == Matrix(F5, [[2], [3], [0]])
    assert m.columns(1, 1) == zero_matrix(F5, 3, 0)
    empty_rows = zero_matrix(F5, 0, 2)
    assert Matrix.block(F5, [[empty_rows, None], [None, a]]) == \
        Matrix(F5, [[0, 0, 1, 2], [0, 0, 3, 4]])
    with pytest.raises(ValueError):
        Matrix.block(F5, [[a, c], [c, a]])
    with pytest.raises(ValueError):
        Matrix.block(F5, [[a, c], [b]])


def test_enumeration_budget_error_names_count():
    with pytest.raises(BudgetError) as err:
        list(enumerate_matrices(4, 4, 5, budget=1000))
    assert err.value.count == 5 ** 16


def test_rank_equals_transpose_rank_and_rank_nullity():
    rng = random.Random(20260808)
    for p in (2, 3, 5):
        f = PrimeField(p)
        for _ in range(200):
            rows = rng.randint(0, 4)
            cols = rng.randint(0, 4)
            m = Matrix(f, [[rng.randrange(p) for _ in range(cols)]
                           for _ in range(rows)], rows, cols)
            r, k = m.rank(), m.kernel_basis()
            assert r == m.transpose().rank()
            assert r + len(k) == cols
            for v in k:
                assert all(x == 0 for x in m.apply(v))


def test_arithmetic_matches_entrywise_oracle():
    # results are reduced mod p and keep their shape, empty shapes included
    rng = random.Random(20261017)
    for p in (2, 3, 5):
        f = PrimeField(p)

        def rand(rows, cols):
            return Matrix(f, [[rng.randrange(p) for _ in range(cols)]
                              for _ in range(rows)], rows, cols)

        for _ in range(100):
            r, k, c = (rng.randint(0, 3) for _ in range(3))
            a, a2, b = rand(r, k), rand(r, k), rand(k, c)
            x, x2, y = a.entries, a2.entries, b.entries
            s = rng.randrange(p)
            v = tuple(rng.randrange(p) for _ in range(k))
            assert a * b == Matrix(f, [[sum(x[i][t] * y[t][j] for t in range(k)) % p
                                        for j in range(c)] for i in range(r)], r, c)
            assert a - a2 == Matrix(f, [[(x[i][j] - x2[i][j]) % p for j in range(k)]
                                        for i in range(r)], r, k)
            assert a.scale(s) == Matrix(f, [[s * x[i][j] % p for j in range(k)]
                                            for i in range(r)], r, k)
            assert a.apply(v) == tuple(sum(x[i][t] * v[t] for t in range(k)) % p
                                       for i in range(r))
            assert a.transpose() == Matrix(f, [[x[i][j] for i in range(r)]
                                               for j in range(k)], k, r)


def test_matrix_inverse_and_product():
    m = Matrix(F5, [[1, 2], [3, 4]])
    inv = matrix_inverse(m)
    assert m * inv == inv * m == Matrix.identity(F5, 2)
    assert matrix_inverse(Matrix(F2, [[1, 1], [1, 1]])) is None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gl_generator_pairs_invert_and_generate(p):
    """Each gl_generators pair (g, h) has g h = h g = I, there are at most
    four, and the g generate GL_d(F_p): the orbit of I under left
    multiplication by them has |GL_d(F_p)| elements, for d <= 4 at p = 2,
    d <= 3 at p = 3 and d <= 2 at p = 5."""
    f = PrimeField(p)
    for d in range({2: 5, 3: 4, 5: 3}[p]):
        ident = Matrix.identity(f, d)
        pairs = gl_generators(f, d)
        assert len(pairs) <= 4
        assert all(g * h == h * g == ident for g, h in pairs)
        orbit, frontier = {ident}, [ident]
        while frontier:
            m = frontier.pop()
            for g, _ in pairs:
                if g * m not in orbit:
                    orbit.add(g * m)
                    frontier.append(g * m)
        assert len(orbit) == gl_order(d, p)


def test_solve_matrix_matches_columnwise_solve():
    """One rref of [A | R] solves every column, setting the free variables
    (the non-pivot columns of A) to zero, or gives None when any column is
    unsolvable, as a search over all of F_p^k column by column finds;
    0-row and 0-column shapes included."""
    rng = random.Random(20261018)
    unsolvable = 0
    for f in (F2, F3):
        p = f.p
        for _ in range(300):
            n, k, m = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 3)
            A = Matrix(f, [[rng.randrange(p) for _ in range(k)] for _ in range(n)], n, k)
            # mostly right-hand sides in the image, some arbitrary
            if rng.random() < 0.7:
                X = Matrix(f, [[rng.randrange(p) for _ in range(m)] for _ in range(k)], k, m)
                R = A * X
            else:
                R = Matrix(f, [[rng.randrange(p) for _ in range(m)] for _ in range(n)], n, m)
            free = [c for c in range(k) if c not in A.rref()[1]]
            cols = [next((x for x in enumerate_vectors(f, k) if not any(x[c] for c in free)
                          and A.apply(x) == rhs), None) for rhs in R.transpose().entries]
            got = A.solve_matrix(R)
            if any(c is None for c in cols):
                unsolvable += 1
                assert got is None
            else:
                assert (got.rows, got.cols) == (k, m)
                assert got.transpose().entries == tuple(cols)
                assert A * got == R
    assert unsolvable > 0
    # one unsolvable column among solvable ones sinks the whole solve
    A = Matrix(F3, [[1, 0], [0, 1], [0, 0]])
    assert A.solve_matrix(Matrix(F3, [[1, 2], [2, 0], [0, 0]])) == Matrix(F3, [[1, 2], [2, 0]])
    assert A.solve_matrix(Matrix(F3, [[1, 2], [2, 0], [0, 1]])) is None
    assert A.solve_matrix(zero_matrix(F3, 3, 0)) == zero_matrix(F3, 2, 0)
    assert zero_matrix(F2, 0, 3).solve_matrix(zero_matrix(F2, 0, 2)) == zero_matrix(F2, 3, 2)
    with pytest.raises(ValueError):
        A.solve_matrix(zero_matrix(F3, 2, 1))


def test_gl_enumeration_matches_order_formula():
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 168
    assert gl_order(2, 3) == 48
    for d, p in ((0, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        mats = list(enumerate_gl(PrimeField(p), d))
        assert len(mats) == gl_order(d, p)
        assert all(m.rank() == d for m in mats)
        assert len(set(mats)) == len(mats)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_span_points_walk_every_point_once(p):
    """The Gray-code walk yields each of the p^k points of a k-dimensional
    span exactly once, zero first, for bases of independent flat vectors."""
    f = PrimeField(p)
    rng = random.Random(p)
    for k in range(5):
        for length in (k, k + 2):
            while True:
                basis = [tuple(rng.randrange(p) for _ in range(length)) for _ in range(k)]
                if Matrix(f, basis, k, length).rank() == k:
                    break
            points = list(span_points(f, basis, length, "span", budget=p ** k))
            assert len(points) == p ** k and points[0] == (0,) * length
            combos = {tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) % p
                            for i in range(length))
                      for coeffs in enumerate_vectors(f, k)}
            assert set(points) == combos


def test_span_points_budget_is_checked_before_the_first_point():
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    walk = span_points(F3, basis, 3, "End(1, 1) test walk", budget=26)
    with pytest.raises(BudgetError) as err:
        next(walk)
    assert (err.value.what, err.value.count, err.value.budget) == \
        ("End(1, 1) test walk", 27, 26)
    assert len(list(span_points(F3, basis, 3, "walk", budget=27))) == 27


def test_blocks_invertible_agrees_with_rank():
    mats = list(enumerate_matrices(2, 2, 3))
    for m in mats:
        assert blocks_invertible(flatten([m]), (2,), 3) == (m.rank() == 2)
    # several blocks: invertible exactly when every block is
    one, ident = Matrix(F3, [[2]]), Matrix.identity(F3, 2)
    for m in mats:
        point = flatten([one, m, ident])
        assert blocks_invertible(point, (1, 2, 2), 3) == (m.rank() == 2)
        assert not blocks_invertible(flatten([zero_matrix(F3, 1, 1), m, ident]),
                                     (1, 2, 2), 3)
    assert blocks_invertible((), (0, 0), 3)


def test_subspace_enumeration_matches_gaussian_binomial():
    assert gaussian_binomial(4, 2, 2) == 35
    for n, k, p in ((3, 1, 2), (4, 2, 2), (3, 2, 3), (2, 0, 5)):
        f = PrimeField(p)
        subs = [fr[0] for fr in subspace_frames(f, n, k)]
        assert len(subs) == gaussian_binomial(n, k, p)
        for b in subs:
            assert b.rows == n and b.cols == k and b.rank() == k


def check_frame(frame):
    """The frame's projection kills B and is the identity on C = e_rest, the
    coordinates of B X are X, and the P and P^-1 rebuilt from the frame are
    inverse to each other."""
    B, pivots, rest, proj = frame[:4]
    f, n, k = B.field, B.rows, B.cols
    assert rest == pivot_row_complement(B)
    P, P_inv = frame_matrices(frame)
    C = Matrix(f, [[int(i == j) for j in rest] for i in range(n)], n, n - k)
    assert (proj.rows, proj.cols) == (n - k, n)
    assert proj * B == zero_matrix(f, n - k, k)
    assert proj * C == Matrix.identity(f, n - k)
    assert P_inv.entries[k:] == proj.entries
    assert P * P_inv == P_inv * P == Matrix.identity(f, n)
    X = Matrix(f, [[(3 * i + j) % f.p for j in range(2)] for i in range(k)], k, 2)
    assert frame_coordinates(frame, B * X) == X


def test_subspace_frames_invert_their_completion():
    """Every k-subspace of F_p^n for p in {2, 3, 5} and n <= 5 (except the
    20,306 each of dimension 2 and 3 in F_5^5, for time): the canonical bases
    of the entry-by-entry RREF walk in its order, the identity on the pivot
    rows, and a frame that checks out (check_frame)."""
    shapes = [(p, n, k) for p in (2, 3, 5) for n in range(6) for k in range(n + 1)
              if (p, n) != (5, 5) or k not in (2, 3)]
    cases = 0
    for p, n, k in shapes:
        f = PrimeField(p)
        frames = list(subspace_frames(f, n, k))
        assert [fr[0] for fr in frames] == list(enumerate_subspaces(f, n, k))
        for fr in frames:
            B, pivots = fr[:2]
            assert pivots == B.transpose().rref()[1]
            assert [B.entries[i] for i in pivots] == list(Matrix.identity(f, k).entries)
            check_frame(fr + (Matrix.identity(f, k),))
            cases += 1
    assert cases == sum(gaussian_binomial(n, k, p) for p, n, k in shapes) > 5000


def test_basis_frames_on_random_bases():
    """basis_frame on random full-rank bases, RREF or not, over F_2, F_3 and
    F_5: the pivots are those of rref(B^T), B_pivots^-1 is an inverse, and
    the frame checks out as the subspace frames do (check_frame); a basis of
    lower rank raises."""
    rng = random.Random(20261019)
    shapes = set()
    for p in (2, 3, 5):
        f = PrimeField(p)
        for _ in range(150):
            n = rng.randint(0, 5)
            k = rng.randint(0, n)
            B = Matrix(f, [[rng.randrange(p) for _ in range(k)] for _ in range(n)], n, k)
            if B.rank() < k:
                with pytest.raises(ValueError, match="non-injective"):
                    basis_frame(B)
                shapes.add("low rank")
                continue
            frame = basis_frame(B)
            pivots, inv = frame[1], frame[4]
            assert pivots == B.transpose().rref()[1]
            Bp = Matrix(f, [B.entries[i] for i in pivots], k, k)
            assert inv * Bp == Matrix.identity(f, k)
            check_frame(frame)
            shapes.add("rref" if Bp == Matrix.identity(f, k) else "other")
    assert shapes == {"low rank", "rref", "other"}

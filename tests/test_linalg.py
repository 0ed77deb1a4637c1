import random

import pytest

from hallalg.linalg import (BudgetError, Matrix, PrimeField, enumerate_gl,
                            enumerate_matrices, enumerate_subspaces,
                            enumerate_vectors, gaussian_binomial, gl_order)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_rank_kernel_identity():
    m = Matrix.identity(F2, 2)
    r, k = m.rank(), m.kernel_basis()
    assert r == 2 and k == []


def test_rank_kernel_zero_map():
    m = Matrix.zero(F3, 1, 2)
    r, k = m.rank(), m.kernel_basis()
    assert r == 0 and len(k) == 2


def test_rank_kernel_rank_one():
    # oracle: multiply every vector of F_2^2 through the matrix
    m = Matrix(F2, [[1, 1], [1, 1]])
    kernel_oracle = [v for v in enumerate_vectors(F2, 2)
                     if all(x == 0 for x in m.apply(v))]
    r, k = m.rank(), m.kernel_basis()
    assert r == 1
    assert set(k) == set(kernel_oracle) - {(0, 0)}
    assert k == [(1, 1)]


def test_degenerate_shapes_legal():
    m = Matrix.zero(F2, 0, 3)
    r, k = m.rank(), m.kernel_basis()
    assert r == 0 and len(k) == 3
    m2 = Matrix.zero(F2, 3, 0)
    assert (m2.rank(), m2.kernel_basis()) == (0, [])


def test_solve_identity():
    assert Matrix.identity(F2, 2).solve((1, 0)) == (1, 0)


def test_solve_no_solution():
    assert Matrix.zero(F2, 2, 2).solve((1, 0)) is None


def test_solve_f5_by_substitution():
    m = Matrix(F5, [[1, 2], [0, 1]])
    x = m.solve((0, 1))
    assert x == (3, 1)
    assert m.apply(x) == (0, 1)


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
            s = rng.randrange(p)
            v = tuple(rng.randrange(p) for _ in range(k))
            assert a * b == Matrix(f, [[sum(a[i, t] * b[t, j] for t in range(k)) % p
                                        for j in range(c)] for i in range(r)], r, c)
            assert a + a2 == Matrix(f, [[(a[i, j] + a2[i, j]) % p for j in range(k)]
                                        for i in range(r)], r, k)
            assert a - a2 == Matrix(f, [[(a[i, j] - a2[i, j]) % p for j in range(k)]
                                        for i in range(r)], r, k)
            assert a.scale(s) == Matrix(f, [[s * a[i, j] % p for j in range(k)]
                                            for i in range(r)], r, k)
            assert a.apply(v) == tuple(sum(a[i, t] * v[t] for t in range(k)) % p
                                       for i in range(r))
            assert a.transpose() == Matrix(f, [[a[i, j] for i in range(r)]
                                               for j in range(k)], k, r)


def test_matrix_inverse_and_product():
    m = Matrix(F5, [[1, 2], [3, 4]])
    inv = m.inverse()
    assert m * inv == Matrix.identity(F5, 2)
    with pytest.raises(ValueError):
        Matrix(F2, [[1, 1], [1, 1]]).inverse()


def test_gl_enumeration_matches_order_formula():
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 168
    assert gl_order(2, 3) == 48
    for d, p in ((0, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        mats = list(enumerate_gl(PrimeField(p), d))
        assert len(mats) == gl_order(d, p)
        assert all(m.is_invertible() for m in mats)
        assert len(set(mats)) == len(mats)


def test_subspace_enumeration_matches_gaussian_binomial():
    assert gaussian_binomial(4, 2, 2) == 35
    for n, k, p in ((3, 1, 2), (4, 2, 2), (3, 2, 3), (2, 0, 5)):
        f = PrimeField(p)
        subs = list(enumerate_subspaces(f, n, k))
        assert len(subs) == gaussian_binomial(n, k, p)
        for b in subs:
            assert b.rows == n and b.cols == k and b.rank() == k


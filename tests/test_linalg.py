"""Exact linear algebra: ranks, kernels, solving, subquotients."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hoch.linalg import (
    QQ,
    Echelon,
    PrimeField,
    SparseMatrix,
    SubquotientSpace,
    kernel_basis,
    rank,
    solve,
)


def random_matrix(rng, m, n, density=0.4, field=QQ):
    M = SparseMatrix(m, n, field)
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                M.set(
                    i,
                    j,
                    field.coerce(
                        Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    ),
                )
    return M


def test_rank_small_cases():
    M = SparseMatrix.from_dense([[1, 2], [2, 4]])
    assert rank(M) == 1
    M = SparseMatrix.from_dense([[1, 0], [0, 1]])
    assert rank(M) == 2
    assert rank(SparseMatrix(5, 3)) == 0


def _reference_rank(mat):
    """Dense Bareiss elimination on Fractions: the former small-block path."""
    rows = [r[:] for r in mat.to_dense()]
    m, n = len(rows), mat.ncols
    rank = 0
    prev = Fraction(1)
    for col in range(n):
        piv = None
        for i in range(rank, m):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for i in range(rank + 1, m):
            x = rows[i][col]
            for j in range(col, n):
                rows[i][j] = (rows[i][j] * pv - x * rows[rank][j]) / prev
        prev = pv
        rank += 1
        if rank == m:
            break
    return rank


def _reference_rank_modp(dense, p):
    """Dense Gaussian elimination mod p on a list of integer rows."""
    rows = [[x % p for x in r] for r in dense]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(rank + 1, len(rows)):
            x = rows[i][col] * inv % p
            rows[i] = [(a - x * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _random_dense(rng, m, n, entries, density):
    return [
        [rng.choice(entries) if rng.random() < density else 0
         for _ in range(n)]
        for _ in range(m)
    ]


def _low_rank_dense(rng, m, n, entries, density):
    """B @ C with an inner dimension k <= min(m, n), so the rank drops."""
    k = rng.randint(0, min(m, n))
    B = _random_dense(rng, m, k, entries, density)
    C = _random_dense(rng, k, n, entries, density)
    return [
        [sum(B[i][t] * C[t][j] for t in range(k)) for j in range(n)]
        for i in range(m)
    ]


def _cols(mat):
    return {c: dict(col) for c, col in mat.cols.items()}


def _check_rank(mat, expected):
    before = _cols(mat)
    assert rank(mat) == expected
    assert _cols(mat) == before


FRACTIONS = [Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)]
NON_UNITS = [2, 3, 6, -2, -3, -6, Fraction(1, 2), Fraction(-3, 2)]
SIGNS = [1, -1]


def test_sparse_vs_dense_rank_agree():
    rng = random.Random(0)
    for entries in (FRACTIONS, NON_UNITS, SIGNS):
        shapes = [(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(150)]
        shapes += [(rng.randint(60, 80), rng.randint(60, 80)) for _ in range(2)]
        for m, n in shapes:
            density = rng.choice((0.1, 0.4, 0.8)) if m <= 10 else 0.05
            make = rng.choice((_random_dense, _low_rank_dense))
            M = SparseMatrix.from_dense(make(rng, m, n, entries, density))
            _check_rank(M, _reference_rank(M))


def test_rank_non_unit_pivots():
    # no ±1 anywhere, so every pivot takes the gcd branch
    assert rank(SparseMatrix.from_dense([[2, 3], [3, 2]])) == 2
    assert rank(SparseMatrix.from_dense([[2, 3], [4, 6]])) == 1
    assert rank(SparseMatrix.from_dense([[6, 10, 15], [10, 15, 6]])) == 2
    M = SparseMatrix.from_dense([[-1, 2], [2, -4]])
    _check_rank(M, 1)


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_rank_modp_against_reference(p):
    rng = random.Random(p)
    F = PrimeField(p)
    drops = 0
    for trial in range(120):
        m, n = rng.randint(1, 10), rng.randint(1, 10)
        if trial % 10 == 0:
            m, n = rng.randint(60, 80), rng.randint(60, 80)
        density = 0.05 if m > 10 else rng.choice((0.2, 0.5, 0.9))
        dense = _random_dense(rng, m, n, range(-4, 5), density)
        if m > 1:
            # row 0 := row 1 + p * (random row): independent over Q,
            # equal mod p
            extra = _random_dense(rng, 1, n, range(-3, 4), 0.5)[0]
            dense[0] = [a + p * b for a, b in zip(dense[1], extra)]
        expected = _reference_rank_modp(dense, p)
        rational = SparseMatrix.from_dense(dense)
        drops += expected < rank(rational)
        _check_rank(SparseMatrix.from_dense(dense, F), expected)
    assert drops >= 10


def test_rank_invariant_under_column_permutation():
    rng = random.Random(1)
    for _ in range(50):
        m, n = rng.randint(2, 9), rng.randint(2, 9)
        M = random_matrix(rng, m, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert rank(M) == rank(M.permute_columns(perm))


def test_kernel_and_rank_nullity():
    rng = random.Random(2)
    for _ in range(80):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        M = random_matrix(rng, m, n)
        K = kernel_basis(M)
        for v in K:
            assert not M.apply(v)
        assert rank(M) + len(K) == n


def test_solve_membership():
    M = SparseMatrix.from_dense([[1, 1], [0, 1], [1, 0]])
    target = M.apply({0: Fraction(2), 1: Fraction(-3)})
    x = solve(M, target)
    assert x is not None
    assert M.apply(x) == target
    assert solve(M, {0: Fraction(0), 1: Fraction(1), 2: Fraction(1)}) is None


def test_prime_field_rank():
    F5 = PrimeField(5)
    M = SparseMatrix.from_dense([[1, 2], [3, 6]], F5)
    assert rank(M) == 1
    M2 = SparseMatrix.from_dense([[1, 2], [3, 5]], F5)
    assert rank(M2) == 2
    with pytest.raises(ValueError):
        PrimeField(6)


def test_prime_field_rejects_denominators_divisible_by_p():
    F3, F5 = PrimeField(3), PrimeField(5)
    assert F5.coerce(Fraction(1, 3)) == 2
    assert F3.coerce(Fraction(3, 2)) == 0
    assert F3.coerce(Fraction(1, 2)) == 2
    for x in (Fraction(1, 3), Fraction(2, 9), Fraction(-5, 6)):
        with pytest.raises(ValueError, match="divisible by 3"):
            F3.coerce(x)
    for a in (0, 3, -6):
        with pytest.raises(ZeroDivisionError):
            F3.inv(a)
    assert F3.inv(2) == 2 and F5.inv(4) == 4


def test_echelon_reduce_and_contains():
    e = Echelon(QQ)
    assert e.add({0: Fraction(1), 1: Fraction(2)})
    assert e.add({1: Fraction(1)})
    assert not e.add({0: Fraction(2), 1: Fraction(1)})
    assert e.contains({0: Fraction(3), 1: Fraction(-1)})
    assert not e.contains({2: Fraction(1)})


def test_subquotient_dims():
    # 0 -> k^2 --[1 0]--> k: homology of middle = ker - im = 1
    d_out = SparseMatrix.from_dense([[1, 0]])
    sub = SubquotientSpace(d_out, None, QQ)
    assert sub.dim == 1
    z = {1: Fraction(1)}
    assert sub.is_cycle(z)
    assert sub.class_residue(z)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 10**6))
def test_rank_transpose_symmetry(m, n, seed):
    rng = random.Random(seed)
    M = random_matrix(rng, m, n)
    assert rank(M) == rank(M.transpose())

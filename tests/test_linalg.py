"""Exact linear algebra: ranks, kernels, subquotients."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hoch.homalg import ChainComplex, Coefficients
from hoch.linalg import (
    QQ,
    PrimeField,
    SparseMatrix,
    SubquotientSpace,
    kernel_basis,
    rank,
)
from tests_support import class_residue


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


def _dense(mat):
    dense = [[mat.field.zero] * mat.ncols for _ in range(mat.nrows)]
    for row, col, v in mat.entries():
        dense[row][col] = v
    return dense


def _permute_columns(mat, perm):
    """New matrix with column j equal to column perm[j] of mat."""
    out = SparseMatrix(mat.nrows, mat.ncols, mat.field)
    for j in range(mat.ncols):
        for row, v in mat.cols.get(perm[j], {}).items():
            out.set(row, j, v)
    return out


def _reference_rank(mat):
    """Dense Bareiss elimination on Fractions: the former small-block path."""
    rows = _dense(mat)
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
        assert rank(M) == rank(_permute_columns(M, perm))


def test_kernel_and_rank_nullity():
    rng = random.Random(2)
    for _ in range(80):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        M = random_matrix(rng, m, n)
        K = kernel_basis(M)
        for v in K:
            assert not M.apply(v)
        assert rank(M) + len(K) == n


def test_image_membership_of_solvable_targets():
    # formerly a test of solve(): the target M·(2, −3) is in the image
    M = SparseMatrix.from_dense([[1, 1], [0, 1], [1, 0]])
    image = SubquotientSpace(None, M)
    target = M.apply({0: Fraction(2), 1: Fraction(-3)})
    assert image.same_class(target, {})
    assert class_residue(image, target) == {}
    outside = {0: Fraction(0), 1: Fraction(1), 2: Fraction(1)}
    assert not image.same_class(outside, {})


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


def test_image_membership_of_spanned_vectors():
    # formerly a test of Echelon: the span of (1, 2) and (0, 1) in k³
    M = SparseMatrix(3, 3)
    for j, col in enumerate(({0: 1, 1: 2}, {1: 1}, {0: 2, 1: 1})):
        for i, v in col.items():
            M.set(i, j, Fraction(v))
    image = SubquotientSpace(None, M)
    assert image.image.rank == 2  # the third column is dependent
    assert image.same_class({0: Fraction(3), 1: Fraction(-1)}, {})
    assert not image.same_class({2: Fraction(1)}, {})


def test_subquotient_dims():
    # 0 -> k^2 --[1 0]--> k: homology of middle = ker - im = 1
    d_out = SparseMatrix.from_dense([[1, 0]])
    sub = SubquotientSpace(d_out, None, QQ)
    assert sub.dim == 1
    z = {1: Fraction(1)}
    assert sub.is_cycle(z)
    assert class_residue(sub, z)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 10**6))
def test_rank_transpose_symmetry(m, n, seed):
    rng = random.Random(seed)
    M = random_matrix(rng, m, n)
    assert rank(M) == rank(M.transpose())


# -- the former Fraction elimination, kept as the reference ----------------


class _ReferenceEchelon:
    """Incremental row-echelon store over a field (the former Echelon)."""

    def __init__(self, field):
        self.field = field
        self.pivots = {}  # pivot index -> row normalized to 1 at its pivot

    def reduce(self, vec):
        f = self.field
        v = {c: x for c, x in vec.items() if not f.is_zero(x)}
        while True:
            todo = [idx for idx in v if idx in self.pivots]
            if not todo:
                return v
            idx = min(todo)
            x = v[idx]
            for c, w in self.pivots[idx].items():
                acc = f.sub(v.get(c, f.zero), f.mul(x, w))
                if f.is_zero(acc):
                    v.pop(c, None)
                else:
                    v[c] = acc

    def add(self, vec):
        f = self.field
        v = self.reduce(vec)
        if not v:
            return False
        piv = min(v)
        inv = f.inv(v[piv])
        self.pivots[piv] = {c: f.mul(x, inv) for c, x in v.items()}
        return True

    def contains(self, vec):
        return not self.reduce(vec)


def _reference_kernel_basis(mat):
    """Kernel by reducing each column augmented with an identity part."""
    field, nr = mat.field, mat.nrows
    aug = _ReferenceEchelon(field)
    basis = []
    for j in range(mat.ncols):
        v = mat.column(j)
        v[nr + j] = field.one
        red = aug.reduce(v)
        if all(r >= nr for r in red):
            basis.append({r - nr: x for r, x in red.items()})
        else:
            aug.add(red)
    return basis


class _ReferenceSubquotient:
    """ker(d_out) / im(d_in) on _ReferenceEchelon (the former class)."""

    def __init__(self, d_out, d_in, field):
        self.field = field
        self.image = _ReferenceEchelon(field)
        for j in range(d_in.ncols):
            self.image.add(d_in.column(j))
        self.classes = _ReferenceEchelon(field)
        for z in _reference_kernel_basis(d_out):
            self.classes.add(self.image.reduce(z))
        self.dim = len(self.classes.pivots)


def _combination(field, vecs, coeffs):
    out = {}
    for vec, a in zip(vecs, coeffs):
        for c, x in vec.items():
            acc = field.add(out.get(c, field.zero), field.mul(a, x))
            if field.is_zero(acc):
                out.pop(c, None)
            else:
                out[c] = acc
    return out


def _random_pair(rng, field, entries):
    """(d_out, d_in) with d_out·d_in = 0: the columns of d_in are random
    combinations of some vectors of the reference kernel of d_out."""
    m, n = rng.randint(1, 9), rng.randint(1, 9)
    density = rng.choice((0.2, 0.5, 0.8))
    make = rng.choice((_random_dense, _low_rank_dense))
    d_out = SparseMatrix(m, n, field)
    for i, row in enumerate(make(rng, m, n, entries, density)):
        for j, v in enumerate(row):
            d_out.set(i, j, field.coerce(v))
    kernel = _reference_kernel_basis(d_out)
    some = rng.sample(kernel, rng.randint(0, len(kernel)))
    d_in = SparseMatrix(n, rng.randint(1, 6), field)
    for j in range(d_in.ncols):
        coeffs = [field.coerce(rng.choice(entries + [0])) for _ in some]
        for i, v in _combination(field, some, coeffs).items():
            d_in.set(i, j, v)
    return d_out, d_in


SUBQUOTIENT_ENTRIES = [2, -2, 3, -3, Fraction(1, 2), Fraction(-3, 2)]


def _random_complex(rng, coefficients, entries, weights):
    """A ChainComplex in degrees ≤ 0 with d∘d = 0 in each weight, built
    top-down: the columns of each differential are random combinations of
    some vectors of the reference kernel of the differential above it."""
    field = coefficients.field
    C = ChainComplex(coefficients)
    blocks = []
    for w in weights:
        dims = [rng.randint(0, 7) for _ in range(rng.randint(2, 6))]
        for degree, n in enumerate(dims):
            for i in range(n):
                C.add_element((w, -degree, i), -degree, w)
        above = None
        for degree in range(1, len(dims)):  # C^{-degree} -> C^{1-degree}
            m, n = dims[degree - 1], dims[degree]
            d = SparseMatrix(m, n, field)
            if above is None:
                density = rng.choice((0.2, 0.5, 0.8))
                make = rng.choice((_random_dense, _low_rank_dense))
                for i, row in enumerate(make(rng, m, n, entries, density)):
                    for j, v in enumerate(row):
                        d.set(i, j, field.coerce(v))
            else:
                kernel = _reference_kernel_basis(above)
                some = rng.sample(kernel, rng.randint(0, len(kernel)))
                for j in range(n):
                    coeffs = [field.coerce(rng.choice(entries + [0]))
                              for _ in some]
                    for i, v in _combination(field, some, coeffs).items():
                        d.set(i, j, v)
            blocks.append((w, -degree, d))
            above = d
    for w, degree, d in blocks:
        for i, j, v in d.entries():
            C.set_differential_entry((w, degree, j), (w, degree + 1, i), v)
    return C.freeze()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([0, 3, 7]))
def test_cleared_homology_matches_per_block_ranks(seed, p):
    # homology_dims drops the rows the block above pivoted on; the table
    # must equal dim − rank(out) − rank(in) with every row kept
    rng = random.Random(seed)
    coefficients = Coefficients("prime-field", p) if p else Coefficients()
    entries = [x for x in range(-4, 5) if x] if p else SUBQUOTIENT_ENTRIES
    C = _random_complex(rng, coefficients, entries, (0, 1))
    assert C.check_differential() == (True, None)

    def reference(mat):
        if p:
            return _reference_rank_modp(_dense(mat), p)
        return _reference_rank(mat)

    window = (-5, 0)
    expected = {}
    for (degree, w), block in C.blocks.items():
        n = len(block) - reference(C.d_matrix(degree, w)) - reference(
            C.d_matrix(degree - 1, w)
        )
        if n:
            expected[(degree, w)] = n
    assert C.homology_dims(window) == expected


@pytest.mark.parametrize("p", [0, 2, 3, 5, 2**31 - 1])
def test_subquotient_against_reference(p):
    rng = random.Random(100 + p)
    field = PrimeField(p) if p else QQ
    entries = [x for x in range(-4, 5) if x] if p else SUBQUOTIENT_ENTRIES
    trivial = nontrivial = 0
    for _ in range(80):
        d_out, d_in = _random_pair(rng, field, entries)
        before = (_cols(d_out), _cols(d_in))
        space = SubquotientSpace(d_out, d_in, field)
        ref = _ReferenceSubquotient(d_out, d_in, field)
        assert (_cols(d_out), _cols(d_in)) == before
        assert space.dim == ref.dim == len(space.reps)
        kernel = kernel_basis(d_out)
        assert (_cols(d_out), _cols(d_in)) == before
        assert len(kernel) == d_out.ncols - rank(d_out)
        for z in kernel + space.reps:
            assert z and not d_out.apply(z)
        reps = _ReferenceEchelon(field)
        assert all(reps.add(ref.image.reduce(z)) for z in space.reps)

        def random_coeffs(k):
            return [field.coerce(rng.choice(entries + [0])) for _ in range(k)]

        for _ in range(6):
            z = _combination(field, kernel, random_coeffs(len(kernel)))
            x = dict(enumerate(random_coeffs(d_in.ncols)))
            boundary = d_in.apply(x)
            moved = _combination(field, (z, boundary), (field.one, field.one))
            residue = class_residue(space, z)
            assert class_residue(space, moved) == residue
            assert class_residue(space, boundary) == {}
            assert (residue == {}) == ref.image.contains(z)
            trivial += residue == {}
            nontrivial += residue != {}
            w = _combination(field, kernel, random_coeffs(len(kernel)))
            diff = _combination(field, (z, w), (field.one, field.coerce(-1)))
            assert space.same_class(z, w) == ref.image.contains(diff)
            assert space.same_class(moved, z)
        noncycle = {j: field.one for j in range(d_out.ncols)}
        if d_out.apply(noncycle):
            assert not space.same_class(noncycle, {})
            with pytest.raises(ValueError):
                class_residue(space, noncycle)
    assert trivial >= 50 and nontrivial >= 50

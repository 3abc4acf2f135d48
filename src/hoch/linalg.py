"""Exact sparse linear algebra over Q and F_p.

Matrices are stored column-major as dicts of dicts of field elements.
``_compose`` is the one sparse apply of a map to a vector {key: value}.
One loop, ``_eliminate``, does all elimination: a sparse row reduction over
Z (rows of a rational matrix scaled to integers) or over F_p, which can
record a transform per row.  ``rank`` counts its pivots and can leave
rows out and hand back its pivot columns, which lets a chain complex
clear the rows that the next differential pivoted on; ``kernel_basis``
takes the transforms of the columns that reach zero; ``SubquotientSpace``
sweeps a vector through the pivots of the image to a canonical residue,
empty iff the vector is a boundary.  No floating point anywhere.
"""

import operator
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd


class RationalField:
    """Arithmetic over Q via fractions.Fraction."""

    name = "Q"
    characteristic = 0

    zero = Fraction(0)
    one = Fraction(1)

    coerce = staticmethod(Fraction)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    @staticmethod
    def inv(a):
        return 1 / a

    @staticmethod
    def is_zero(a):
        return a == 0


class PrimeField:
    """Arithmetic over F_p; elements are ints in [0, p)."""

    characteristic = None

    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, Fraction):
            num = x.numerator % self.p
            den = x.denominator % self.p
            if not den:
                raise ValueError(
                    f"{x} has a denominator divisible by {self.p}, so it is "
                    f"not defined in F{self.p}"
                )
            return num * self.inv(den) % self.p
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in F{self.p}")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0


QQ = RationalField()


class _Table(dict):
    """A dict that makes the entry of a missing key as ``fill(key)``."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def field_values(field):
    """A table from plain numbers (ints, or Fractions over Q) to their
    values in ``field``, None for zero: a builder sums a column's plain
    coefficients and coerces each distinct sum once, here.

    >>> field_values(PrimeField(3))[7], field_values(QQ)[0]
    (1, None)
    """
    return _Table(lambda v: field.coerce(v) or None)


def _acc(store, key, value, field):
    acc = field.add(store.get(key, field.zero), value)
    if field.is_zero(acc):
        store.pop(key, None)
    else:
        store[key] = acc


def _compose(vec, images, field, out=None):
    """Sum of c * images(k) over the terms {k: c} of ``vec``, added into
    ``out`` (a new dict by default), which is returned; zero sums are
    dropped.  Every sparse apply, axiom audit and structure-map fold is
    one of these.

    >>> square = {0: {0: QQ.one}, 1: {2: QQ.one}, 2: {}}  # x^k -> x^2k
    >>> _compose({0: QQ.one, 1: QQ.coerce(3)}, square.get, QQ)
    {0: Fraction(1, 1), 2: Fraction(3, 1)}
    >>> _compose({1: QQ.one}, square.get, QQ, {2: QQ.coerce(-1)})
    {}
    """
    if out is None:
        out = {}
    mul = field.mul
    for k, c in vec.items():
        for t, e in images(k).items():
            _acc(out, t, mul(c, e), field)
    return out


def _signed(vec, parity, field):
    """(-1)^parity * vec, as a new dict."""
    if parity % 2:
        return {k: field.neg(c) for k, c in vec.items()}
    return dict(vec)


class SparseMatrix:
    """Sparse matrix over a field, stored as {col: {row: value}}.

    Columns index the source basis and rows the target basis, so that
    composition of linear maps is ``B.compose(A)`` = B after A.
    """

    __slots__ = ("nrows", "ncols", "cols", "field")

    def __init__(self, nrows, ncols, field=QQ):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = {}
        self.field = field

    def set(self, row, col, value):
        if not (0 <= row < self.nrows and 0 <= col < self.ncols):
            raise IndexError((row, col, self.nrows, self.ncols))
        if self.field.is_zero(value):
            colmap = self.cols.get(col)
            if colmap is not None and row in colmap:
                del colmap[row]
                if not colmap:
                    del self.cols[col]
            return
        self.cols.setdefault(col, {})[row] = value

    def add_to(self, row, col, value):
        cur = self.cols.get(col, {}).get(row, self.field.zero)
        self.set(row, col, self.field.add(cur, value))

    def get(self, row, col):
        return self.cols.get(col, {}).get(row, self.field.zero)

    def column(self, col):
        return dict(self.cols.get(col, {}))

    def entries(self):
        for col, colmap in self.cols.items():
            for row, v in colmap.items():
                yield row, col, v

    def nnz(self):
        return sum(len(c) for c in self.cols.values())

    def is_zero(self):
        return not self.cols

    def apply(self, vec):
        """Apply to a vector given as {col: value}; returns {row: value}."""
        cols = self.cols
        return _compose(vec, lambda col: cols.get(col, {}), self.field)

    def compose(self, other):
        """self @ other (apply other first)."""
        if other.nrows != self.ncols:
            raise ValueError("shape mismatch")
        out = SparseMatrix(self.nrows, other.ncols, self.field)
        for col in other.cols:
            image = self.apply(other.cols[col])
            for row, v in image.items():
                out.set(row, col, v)
        return out

    def transpose(self):
        out = SparseMatrix(self.ncols, self.nrows, self.field)
        for row, col, v in self.entries():
            out.set(col, row, v)
        return out

    @classmethod
    def from_dense(cls, rows, field=QQ):
        m = cls(len(rows), len(rows[0]) if rows else 0, field)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                m.set(i, j, field.coerce(v))
        return m


def _integral(vecs, p):
    """Scale each vector over Q in place by the lcm of its denominators
    (over F_p the residues are integers already); return the scales."""
    if p:
        return [1] * len(vecs)
    scales = []
    for r in vecs:
        lcm = 1
        for v in r.values():
            d = v.denominator
            lcm = lcm // gcd(lcm, d) * d
        for c, v in r.items():
            r[c] = v.numerator * (lcm // v.denominator)
        scales.append(lcm)
    return scales


def _combine(r, pv, x, s, p, holding=None, j=None):
    """r := pv·r − x·s in place (mod p when p).

    With ``holding``, a column that r gains is recorded there under j.
    """
    if pv != 1:
        for c in r:
            r[c] *= pv
    for c, v in s.items():
        acc = r.get(c, 0) - x * v
        if p:
            acc %= p
        if acc:
            if holding is not None and c not in r:
                holding[c].append(j)
            r[c] = acc
        else:
            r.pop(c, None)


def _divide_content(vecs):
    """Divide integer vectors by the gcd of all their entries together."""
    g = 0
    for vec in vecs:
        for v in vec.values():
            g = gcd(g, v)
            if g == 1:
                return
    if g > 1:
        for vec in vecs:
            for c in vec:
                vec[c] //= g


def _eliminate(rows, p, transforms=None):
    """Reduce integer rows {col: int} over Z, or mod p when p.

    The pivot row is the shortest row, the first among equals (found by a
    heap of (length, position)); its pivot a unit (±1 over Z; over F_p
    any entry, scaled to 1) in the smallest column, else the smallest
    |entry| in the smallest column.  Each other row holding the pivot
    column (found by a column index) becomes ``row − x·pivot_row``, or
    without a unit pivot ``pv·row − x·pivot_row`` divided by its content.
    Each row operation is applied to ``transforms[j]`` too, when given, in
    place; the content is then divided out of row and transform together.

    Yields ``(col, pv, rest, transform, index)`` in pivot order: ``rest``
    is zero at every earlier pivot column, ``index`` is the position of
    the pivot row.  A row never yielded reached zero, and its transform
    is the combination that took it there.  ``rows`` are consumed.
    """
    rows = list(rows)
    holding = {}  # column -> positions of the rows that may hold it
    for i, r in enumerate(rows):
        for c in r:
            holding.setdefault(c, []).append(i)
    queue = [(len(r), i) for i, r in enumerate(rows) if r]
    heapify(queue)
    t = None
    while queue:
        n, i = heappop(queue)
        pivot_row = rows[i]
        if pivot_row is None or len(pivot_row) != n:
            continue  # a pivot already, or its length has changed since
        rows[i] = None
        if transforms is not None:
            t = transforms[i]
        if p:
            pc = min(pivot_row)
            k = pow(pivot_row[pc], -1, p)
        else:
            pc = min(pivot_row, key=lambda c: (abs(pivot_row[c]), c))
            k = -1 if pivot_row[pc] == -1 else 1
        if k != 1:  # scale the pivot row so that a unit pivot becomes 1
            for vec in (pivot_row,) if t is None else (pivot_row, t):
                for c in vec:
                    vec[c] = vec[c] * k % p if p else vec[c] * k
        pv = pivot_row.pop(pc)
        for j in holding.pop(pc):
            r = rows[j]
            if r is None or pc not in r:
                continue
            before = len(r)
            x = r.pop(pc)
            _combine(r, pv, x, pivot_row, p, holding, j)
            if t is not None:
                _combine(transforms[j], pv, x, t, p)
            if pv != 1:
                _divide_content((r, transforms[j]) if t is not None else (r,))
            if r and len(r) != before:
                heappush(queue, (len(r), j))
        yield pc, pv, pivot_row, t, i


def rank(mat, skip_rows=(), pivot_cols=None):
    """Exact rank of a SparseMatrix: the pivot count of its rows.

    Over Q each row is scaled to integers and reduced over Z; over F_p
    the residues are reduced mod p.  ``mat`` is left unchanged.  The rows
    in ``skip_rows`` are left out, and ``pivot_cols``, when given, is a
    set that receives the pivot column of each pivot row: the columns of
    ``mat`` there are linearly independent.

    >>> rank(SparseMatrix.from_dense([[1, 1], [1, -1]]))
    2
    >>> rank(SparseMatrix.from_dense([[1, 1], [1, -1]], PrimeField(2)))
    1
    >>> pivots = set()
    >>> rank(SparseMatrix.from_dense([[0, 2], [1, 1]]), {1}, pivots), pivots
    (1, {1})
    """
    p = mat.field.characteristic
    by_row = {}
    for col, colmap in mat.cols.items():
        for row, v in colmap.items():
            by_row.setdefault(row, {})[col] = v
    for row in skip_rows:
        by_row.pop(row, None)
    rows = list(by_row.values())
    _integral(rows, p)
    pivots = [pc for pc, *_ in _eliminate(rows, p)]
    if pivot_cols is not None:
        pivot_cols.update(pivots)
    return len(pivots)


def _kernel(mat):
    """Integer kernel basis: the columns are reduced as rows, column j
    carrying the transform {j: s} where s scales it to integers, and the
    transforms of the columns that reach zero are the basis."""
    p = mat.field.characteristic
    cols = [dict(mat.cols.get(j, ())) for j in range(mat.ncols)]
    transforms = [{j: s} for j, s in enumerate(_integral(cols, p))]
    pivots = {index for *_, index in _eliminate(cols, p, transforms)}
    return [t for i, t in enumerate(transforms) if i not in pivots]


def kernel_basis(mat):
    """Basis of ker(mat): ``ncols − rank`` vectors {col: field element}.

    >>> kernel_basis(SparseMatrix.from_dense([[1, 1]]))
    [{0: Fraction(-1, 1), 1: Fraction(1, 1)}]
    >>> kernel_basis(SparseMatrix.from_dense([[1, 2], [3, 6]], PrimeField(5)))
    [{0: 3, 1: 1}]
    """
    return [_coerced(z, mat.field) for z in _kernel(mat)]


def _coerced(vec, field):
    return {j: field.coerce(vec[j]) for j in sorted(vec)}


class _Pivots(list):
    """The pivot sequence of a span; its length is the rank."""

    @property
    def rank(self):
        return len(self)


class SubquotientSpace:
    """ker(d_out) / im(d_in): dimension, class residues, comparisons.

    ``image`` is the pivot sequence of the columns of ``d_in``.  A residue
    sweeps a vector through it in pivot order; as each pivot row is zero
    at the earlier pivot columns, the residue is zero at every pivot
    column, depends only on the class and is empty iff it is trivial.
    ``reps`` are the kernel vectors of ``d_out`` whose residues became
    pivots when the same loop reduced them: one per basis class.

    >>> d = SparseMatrix.from_dense([[1, 1]])
    >>> space = SubquotientSpace(d, None)
    >>> space.dim, space.image.rank
    (1, 0)
    >>> space.same_class({0: 1, 1: -1}, {0: 2, 1: -2})
    False
    >>> SubquotientSpace(None, d.transpose()).same_class({0: 1}, {1: -1})
    True
    """

    def __init__(self, d_out, d_in, field=QQ):
        self.field = field
        self.d_out = d_out
        p = field.characteristic
        cols = []
        if d_in is not None:
            cols = [dict(d_in.cols[j]) for j in sorted(d_in.cols)]
            _integral(cols, p)
        self.image = _Pivots(_eliminate(cols, p))
        if d_out is not None:
            cycles = _kernel(d_out)  # integral: unit pivots keep residues so
        else:
            dim = d_in.nrows if d_in is not None else 0
            cycles = [{i: 1} for i in range(dim)]
        residues = [self._residue(z) for z in cycles]
        _integral(residues, p)
        classes = sorted(pivot[4] for pivot in _eliminate(residues, p))
        self.reps = [_coerced(cycles[i], field) for i in classes]

    @property
    def dim(self):
        return len(self.reps)

    def _residue(self, vec):
        f = self.field
        p = f.characteristic
        v = {c: x for c, x in vec.items() if not f.is_zero(x)}
        for pc, pv, rest, _t, _i in self.image:
            x = v.pop(pc, None)
            if x is not None:
                _combine(v, 1, x if pv == 1 else Fraction(x, pv), rest, p)
        return v

    def is_cycle(self, vec):
        return self.d_out is None or not self.d_out.apply(vec)

    def same_class(self, u, v):
        diff = dict(u)
        _combine(diff, 1, 1, v, self.field.characteristic)
        return self.is_cycle(diff) and not self._residue(diff)

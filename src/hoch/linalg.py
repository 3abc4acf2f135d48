"""Exact sparse linear algebra over Q and F_p.

Matrices are stored column-major as dicts of dicts of field elements.
``rank`` is the one elimination kernel: a sparse row reduction over Z
(rows of a rational matrix scaled to integers) or over F_p, whatever the
size of the matrix.  It takes the shortest row as pivot row, and in it a
unit pivot when there is one, so that ±1 pivots are removed without any
fraction-free step.  ``Echelon`` keeps incremental canonical residues for
kernels, solving and subquotients.  No floating point anywhere.
"""

from fractions import Fraction
from math import gcd


class RationalField:
    """Arithmetic over Q via fractions.Fraction."""

    name = "Q"
    characteristic = 0

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def coerce(x):
        return Fraction(x)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

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

    def copy(self):
        m = SparseMatrix(self.nrows, self.ncols, self.field)
        m.cols = {c: dict(col) for c, col in self.cols.items()}
        return m

    def apply(self, vec):
        """Apply to a vector given as {col: value}; returns {row: value}."""
        f = self.field
        out = {}
        for col, x in vec.items():
            if f.is_zero(x):
                continue
            for row, v in self.cols.get(col, {}).items():
                acc = f.add(out.get(row, f.zero), f.mul(v, x))
                if f.is_zero(acc):
                    out.pop(row, None)
                else:
                    out[row] = acc
        return out

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

    def permute_columns(self, perm):
        """New matrix with column j equal to old column perm[j] (tests only)."""
        out = SparseMatrix(self.nrows, self.ncols, self.field)
        for j in range(self.ncols):
            for row, v in self.cols.get(perm[j], {}).items():
                out.set(row, j, v)
        return out

    def to_dense(self):
        z = self.field.zero
        dense = [[z] * self.ncols for _ in range(self.nrows)]
        for row, col, v in self.entries():
            dense[row][col] = v
        return dense

    @classmethod
    def from_dense(cls, rows, field=QQ):
        m = cls(len(rows), len(rows[0]) if rows else 0, field)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                m.set(i, j, field.coerce(v))
        return m


def rank(mat):
    """Exact rank of a SparseMatrix, by one sparse row reduction.

    Over Q each row is scaled to integers and reduced over Z; over F_p
    the residues are reduced mod p.  The pivot row is the shortest one;
    within it a unit (±1 over Z, any nonzero entry over F_p) in the
    smallest column, else the smallest |entry| in the smallest column.
    ``mat`` is left unchanged.

    >>> rank(SparseMatrix.from_dense([[1, 1], [1, -1]]))
    2
    >>> rank(SparseMatrix.from_dense([[1, 1], [1, -1]], PrimeField(2)))
    1
    """
    p = mat.field.characteristic
    by_row = {}
    for col, colmap in mat.cols.items():
        for row, v in colmap.items():
            by_row.setdefault(row, {})[col] = v
    rows = list(by_row.values())
    if not p:
        for r in rows:
            lcm = 1
            for v in r.values():
                d = v.denominator
                lcm = lcm // gcd(lcm, d) * d
            for c, v in r.items():
                r[c] = v.numerator * (lcm // v.denominator)
    rank = 0
    while True:
        rows = [r for r in rows if r]
        if not rows:
            return rank
        lengths = list(map(len, rows))
        pivot_row = rows.pop(lengths.index(min(lengths)))
        rank += 1
        # scale the pivot row so that a unit pivot becomes 1
        if p:
            pc = min(pivot_row)
            inv = pow(pivot_row[pc], -1, p)
            pivot_row = {c: v * inv % p for c, v in pivot_row.items()}
        else:
            pc = min(pivot_row, key=lambda c: (abs(pivot_row[c]), c))
            if pivot_row[pc] == -1:
                pivot_row = {c: -v for c, v in pivot_row.items()}
        pv = pivot_row.pop(pc)
        for r in rows:
            if pc not in r:
                continue
            x = r.pop(pc)
            # r -= x * pivot_row; without a unit pivot (over Z only) this
            # is r := pv * r - x * pivot_row, divided by the row gcd
            if pv != 1:
                for c in r:
                    r[c] *= pv
            for c, v in pivot_row.items():
                acc = r.get(c, 0) - x * v
                if p:
                    acc %= p
                if acc:
                    r[c] = acc
                else:
                    r.pop(c, None)
            if pv != 1:
                g = 0
                for v in r.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    for c in r:
                        r[c] //= g


class Echelon:
    """Row-echelon store for membership tests and coordinates over a field.

    Vectors are dicts {index: value}.  ``reduce`` returns the residue of a
    vector modulo the span; ``add`` extends the span.
    """

    def __init__(self, field=QQ):
        self.field = field
        self.pivots = {}  # pivot index -> normalized row dict

    def reduce(self, vec):
        # Stored rows have their pivot at their minimal index, so each
        # elimination introduces only larger indices and one sweep in
        # increasing index order terminates.
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
        """Reduce and, if nonzero, insert into the span. True if rank grew."""
        f = self.field
        v = self.reduce(vec)
        v = {c: x for c, x in v.items() if not f.is_zero(x)}
        if not v:
            return False
        piv = min(v)
        inv = f.inv(v[piv])
        self.pivots[piv] = {c: f.mul(x, inv) for c, x in v.items()}
        return True

    def contains(self, vec):
        f = self.field
        return all(f.is_zero(x) for x in self.reduce(vec).values())

    @property
    def rank(self):
        return len(self.pivots)


def kernel_basis(mat):
    """Basis of ker(mat) as vectors over the column index set."""
    field = mat.field
    n = mat.ncols
    ech = Echelon(field)
    basis = []
    # Incremental: column j either grows the span of previous columns or is
    # dependent; dependency coefficients give a kernel vector.
    cols_aug = []  # (echelon of image columns augmented with bookkeeping)
    aug = Echelon(field)
    for j in range(n):
        # augmented vector: image part on indices (0..nrows-1),
        # bookkeeping part on indices nrows + i
        v = {r: x for r, x in mat.column(j).items()}
        v[mat.nrows + j] = field.one
        red = aug.reduce(v)
        image_part = {r: x for r, x in red.items() if r < mat.nrows}
        if all(field.is_zero(x) for x in image_part.values()):
            vec = {
                r - mat.nrows: x
                for r, x in red.items()
                if r >= mat.nrows and not field.is_zero(x)
            }
            basis.append(vec)
            # do not add to echelon: keep kernel directions out of the span
        else:
            aug.add(red)
    return basis


def solve(mat, target):
    """Solve mat @ x = target; returns {col: value} or None."""
    field = mat.field
    aug = Echelon(field)
    nr = mat.nrows
    reps = {}
    for j in range(mat.ncols):
        v = dict(mat.column(j))
        v[nr + j] = field.one
        aug.add(v)
    red = aug.reduce(dict(target))
    if any(r < nr and not field.is_zero(x) for r, x in red.items()):
        return None
    # residual bookkeeping encodes -x
    return {r - nr: field.neg(x) for r, x in red.items() if r >= nr}


class SubquotientSpace:
    """ker(d_out) / im(d_in): dimensions, class coordinates, comparisons."""

    def __init__(self, d_out, d_in, field=QQ):
        self.field = field
        self.d_out = d_out
        self.image = Echelon(field)
        if d_in is not None:
            for j in range(d_in.ncols):
                self.image.add(d_in.column(j))
        self.classes = Echelon(field)
        self.reps = []
        if d_out is not None:
            cycles = kernel_basis(d_out)
        else:
            dim = d_in.nrows if d_in is not None else 0
            cycles = [{i: field.one} for i in range(dim)]
        for z in cycles:
            red = self.image.reduce(z)
            if self.classes.add(red):
                self.reps.append(z)

    @property
    def dim(self):
        return self.classes.rank

    def is_cycle(self, vec):
        if self.d_out is None:
            return True
        img = self.d_out.apply(vec)
        return all(self.field.is_zero(x) for x in img.values())

    def class_residue(self, vec):
        """Canonical residue of a cycle modulo boundaries (0 iff trivial)."""
        if not self.is_cycle(vec):
            raise ValueError("not a cycle")
        return self.image.reduce(vec)

    def same_class(self, u, v):
        f = self.field
        diff = dict(u)
        for c, x in v.items():
            acc = f.sub(diff.get(c, f.zero), x)
            if f.is_zero(acc):
                diff.pop(c, None)
            else:
                diff[c] = acc
        return self.image.contains(diff) if self.is_cycle(diff) else False

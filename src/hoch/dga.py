"""Differential graded algebras and modules presented by exact bases.

Supported classes (so that every (degree, weight) computation is finite):
  (i)  finite-dimensional with the augmentation ideal in degrees <= -1;
  (ii) weight-graded with the non-unit part in weights >= 1 and finite
       per weight.
Constructors outside these classes are rejected.

All structure constants are exact; an axiom audit runs at construction
and fails fast.  Koszul signs are computed from the sorting permutation
of the odd-degree factors involved (``koszul_sign``), never from ad-hoc
parity formulas; even factors never change a sign.

A map of slot sets acts on monomials through a program compiled once per
setmap (``compile_setmap``); ``apply_setmap`` is its one-shot form.  With
module coefficients the map is pointed: it keeps the module slot in place.
"""

import weakref
from fractions import Fraction
from itertools import product
from operator import itemgetter

from .homalg import NEG_INF, ChainComplex, Coefficients
from .linalg import SparseMatrix, rank


class AlgebraClassError(ValueError):
    """Presentation falls outside the two supported finiteness classes."""


class DGAlgebra:
    """Finite or per-weight-finite presentation of a (graded-commutative)
    differential graded algebra.

    basis: list of (label, degree, weight); mult[(i, j)]: {k: coeff};
    diff[i]: {k: coeff}; unit: basis position; augmentation: {i: scalar}.
    """

    def __init__(
        self,
        name,
        coefficients,
        basis,
        mult,
        unit,
        diff=None,
        commutative=True,
        augmentation=None,
        weight_graded=False,
        max_weight=None,
    ):
        self.name = name
        self.coefficients = coefficients
        self.basis = list(basis)
        self.labels = [b[0] for b in self.basis]
        self.degrees = [b[1] for b in self.basis]
        self.weights = [b[2] for b in self.basis]
        self.position = {lab: i for i, (lab, _, _) in enumerate(self.basis)}
        if len(self.position) != len(self.basis):
            raise ValueError("duplicate basis labels")
        self.mult = mult
        self.unit = unit
        self.diff = diff or {}
        self.commutative = commutative
        self.augmentation = augmentation
        self.weight_graded = weight_graded
        self.max_weight = max_weight
        self._classify()
        self.audit()

    # -- structure ------------------------------------------------------

    @property
    def dim(self):
        return len(self.basis)

    def nonunit(self):
        return [i for i in range(self.dim) if i != self.unit]

    def fits(self, *positions):
        """Whether the product of these basis elements lies within the
        materialized weights."""
        bound = self.max_weight
        return bound is None or sum(
            map(self.weights.__getitem__, positions)
        ) <= bound

    def pairs(self):
        """The (i, j) whose product is materialized, row by row."""
        return [
            (i, j) for i in range(self.dim) for j in range(self.dim)
            if self.fits(i, j)
        ]

    def product(self, i, j):
        """Product of basis elements as {position: coeff}."""
        if (
            self.max_weight is not None
            and self.weights[i] + self.weights[j] > self.max_weight
        ):
            raise AlgebraClassError(
                f"{self.name}: product exceeds materialized weight "
                f"{self.max_weight}"
            )
        return self.mult.get((i, j), {})

    def d(self, i):
        return self.diff.get(i, {})

    def eps(self, i):
        if self.augmentation is None:
            raise ValueError(f"{self.name} is not augmented")
        return self.augmentation.get(i, self.coefficients.field.zero)

    def _classify(self):
        deg_ok = all(
            self.degrees[i] <= -1 for i in range(self.dim) if i != self.unit
        )
        self.class_i = self.max_weight is None and deg_ok
        wt_ok = all(
            self.weights[i] >= 1 for i in range(self.dim) if i != self.unit
        )
        self.class_ii = self.weight_graded and wt_ok
        if not (self.class_i or self.class_ii):
            raise AlgebraClassError(
                f"{self.name}: presentation is neither finite with negative-"
                "degree ideal nor weight-graded with positive-weight ideal"
            )
        if self.degrees[self.unit] != 0 or self.weights[self.unit] != 0:
            raise AlgebraClassError("unit must sit in degree 0, weight 0")
        if any(d > 0 for d in self.degrees):
            raise AlgebraClassError(
                f"{self.name}: positive-degree basis elements break the "
                "level-degree truncation bound"
            )

    # -- audit ------------------------------------------------------------

    def audit(self):
        f = self.coefficients.field
        one, zero = f.one, f.zero
        for (i, j), out in self.mult.items():
            for k in out:
                if self.degrees[k] != self.degrees[i] + self.degrees[j]:
                    raise ValueError(f"{self.name}: product not degree-additive")
                if self.weights[k] != self.weights[i] + self.weights[j]:
                    raise ValueError(f"{self.name}: product not weight-additive")
        for i in range(self.dim):
            if self.product(self.unit, i) != {i: one} or self.product(
                i, self.unit
            ) != {i: one}:
                raise ValueError(f"{self.name}: unit law fails at {i}")
        pairs = self.pairs()
        for i, j in pairs:
            for k in range(self.dim):
                if not self.fits(i, j, k):
                    continue
                left = _compose(
                    self.product(i, j), lambda t: self.product(t, k), f
                )
                right = _compose(
                    self.product(j, k), lambda t: self.product(i, t), f
                )
                if left != right:
                    raise ValueError(
                        f"{self.name}: associativity fails at {(i, j, k)}"
                    )
        if self.commutative:
            for i, j in pairs:
                parity = self.degrees[i] * self.degrees[j]
                if self.product(i, j) != _signed(self.product(j, i), parity, f):
                    raise ValueError(
                        f"{self.name}: graded commutativity fails at {(i, j)}"
                    )
        # Leibniz: d(ab) = d(a) b + (-1)^{|a|} a d(b)
        for i, j in pairs:
            lhs = _compose(self.product(i, j), self.d, f)
            rhs = _compose(self.d(i), lambda t: self.product(t, j), f)
            _compose(
                _signed(self.d(j), self.degrees[i], f),
                lambda t: self.product(i, t), f, rhs,
            )
            if lhs != rhs:
                raise ValueError(f"{self.name}: Leibniz fails at {(i, j)}")
        for i in range(self.dim):
            if _compose(self.d(i), self.d, f):
                raise ValueError(f"{self.name}: d^2 != 0 at {i}")
        if self.augmentation is not None:
            if self.eps(self.unit) != one:
                raise ValueError(f"{self.name}: augmentation misses the unit")
            for i, j in pairs:
                prod_eps = zero
                for k, c in self.product(i, j).items():
                    prod_eps = f.add(prod_eps, f.mul(c, self.eps(k)))
                if prod_eps != f.mul(self.eps(i), self.eps(j)):
                    raise ValueError(
                        f"{self.name}: augmentation not multiplicative"
                    )
        _audit_grading(self)

    def __repr__(self):
        return f"DGAlgebra({self.name}, dim={self.dim})"


def _audit_grading(X):
    """The last audit of an algebra or module: its differential raises the
    degree by 1 and keeps the weight."""
    degrees, weights = X.degrees, X.weights
    for i, out in X.diff.items():
        for k in out:
            if (degrees[k], weights[k]) != (degrees[i] + 1, weights[i]):
                raise ValueError(
                    f"{X.name}: differential must raise the degree by 1 and "
                    f"keep the weight at {i}"
                )


def _acc(store, key, value, field):
    acc = field.add(store.get(key, field.zero), value)
    if field.is_zero(acc):
        store.pop(key, None)
    else:
        store[key] = acc


def _compose(vec, images, field, out=None):
    """Sum of c * images(k) over the terms {k: c} of ``vec``, added into
    ``out`` (a new dict by default), which is returned; zero sums are
    dropped.  Every axiom audit and structure-map fold is one of these.

    >>> from hoch.linalg import QQ
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


class DGModule:
    """Module over a DGAlgebra, presented on a finite basis.

    left[(a, m)] / right[(m, a)] give the actions as {m': coeff}; for a
    symmetric bimodule only ``left`` is stored and m*a is derived by the
    Koszul rule.  A right module has ``left=None``; a left module has no
    ``right`` table and is not symmetric.
    """

    def __init__(
        self,
        name,
        algebra,
        basis,
        left,
        right=None,
        symmetric=True,
        diff=None,
        pointed_element=None,
    ):
        self.name = name
        self.algebra = algebra
        self.coefficients = algebra.coefficients
        self.basis = list(basis)
        self.labels = [b[0] for b in self.basis]
        self.degrees = [b[1] for b in self.basis]
        self.weights = [b[2] for b in self.basis]
        self.left = left
        self._right = right
        self.symmetric = symmetric
        self.diff = diff or {}
        self.pointed_element = pointed_element
        if any(d > 0 for d in self.degrees):
            raise AlgebraClassError(f"{name}: positive-degree module elements")
        self.audit()

    @property
    def dim(self):
        return len(self.basis)

    def act_left(self, a, m):
        if self.left is None:
            raise ValueError(f"{self.name}: no left action")
        return self.left.get((a, m), {})

    def act_right(self, m, a):
        if self._right is not None:
            return self._right.get((m, a), {})
        if not self.symmetric:
            raise ValueError(f"{self.name}: no right action")
        return _signed(
            self.act_left(a, m),
            self.algebra.degrees[a] * self.degrees[m],
            self.coefficients.field,
        )

    def d(self, m):
        return self.diff.get(m, {})

    def audit(self):
        """Unit, associativity and Leibniz for the left action, when there
        is one; unit and associativity for the right action, when there is
        one (a right table, or a symmetric module); compatibility when
        there are both; then the grading of the differential."""
        A = self.algebra
        f = self.coefficients.field
        uA = A.unit
        has_left = self.left is not None
        has_right = self._right is not None or self.symmetric
        for m in range(self.dim):
            if has_left and self.act_left(uA, m) != {m: f.one}:
                raise ValueError(f"{self.name}: unit does not act as identity")
            if has_right and self.act_right(m, uA) != {m: f.one}:
                raise ValueError(f"{self.name}: unit right action fails")
        for a, b in A.pairs():
            for m in range(self.dim):
                if has_left and _compose(
                    A.product(a, b), lambda k: self.act_left(k, m), f
                ) != _compose(
                    self.act_left(b, m), lambda t: self.act_left(a, t), f
                ):
                    raise ValueError(
                        f"{self.name}: left module axiom fails {(a, b, m)}"
                    )
                # (a m) b = a (m b)
                if has_left and has_right and _compose(
                    self.act_left(a, m), lambda t: self.act_right(t, b), f
                ) != _compose(
                    self.act_right(m, b), lambda t: self.act_left(a, t), f
                ):
                    raise ValueError(
                        f"{self.name}: bimodule compatibility fails"
                    )
                # m (a b) = (m a) b
                if has_right and _compose(
                    A.product(a, b), lambda k: self.act_right(m, k), f
                ) != _compose(
                    self.act_right(m, a), lambda t: self.act_right(t, b), f
                ):
                    raise ValueError(
                        f"{self.name}: right module axiom fails {(a, b, m)}"
                    )
        # Leibniz: d(a m) = d(a) m + (-1)^{|a|} a d(m)
        for a in range(A.dim if has_left else 0):
            for m in range(self.dim):
                lhs = _compose(self.act_left(a, m), self.d, f)
                rhs = _compose(A.d(a), lambda t: self.act_left(t, m), f)
                _compose(
                    _signed(self.d(m), A.degrees[a], f),
                    lambda t: self.act_left(a, t), f, rhs,
                )
                if lhs != rhs:
                    raise ValueError(f"{self.name}: module Leibniz fails")
        _audit_grading(self)

    def __repr__(self):
        return f"DGModule({self.name}, dim={self.dim})"


class AlgebraAutomorphism:
    """Degree-0, weight-preserving multiplicative unital chain automorphism."""

    def __init__(self, algebra, images):
        self.algebra = algebra
        self.images = images  # {i: {j: coeff}}
        self.audit()

    def apply(self, i):
        return self.images.get(i, {})

    def audit(self):
        A = self.algebra
        f = A.coefficients.field
        for i, img in self.images.items():
            for j in img:
                if A.degrees[j] != A.degrees[i] or A.weights[j] != A.weights[i]:
                    raise ValueError("automorphism must preserve (degree, weight)")
        if self.apply(A.unit) != {A.unit: f.one}:
            raise ValueError("automorphism must fix the unit")
        for i, j in A.pairs():
            # sigma(i j) = sigma(i) sigma(j)
            if _compose(A.product(i, j), self.apply, f) != _compose(
                self.apply(i),
                lambda t: _compose(
                    self.apply(j), lambda s: A.product(t, s), f
                ),
                f,
            ):
                raise ValueError("automorphism is not multiplicative")
        for i in range(A.dim):
            if _compose(A.d(i), self.apply, f) != _compose(
                self.apply(i), A.d, f
            ):
                raise ValueError("automorphism is not a chain map")
        mat = SparseMatrix(A.dim, A.dim, f)
        for i, img in self.images.items():
            for j, c in img.items():
                mat.set(j, i, c)
        if rank(mat) != A.dim:
            raise ValueError("automorphism is not invertible")


# -- constructors -----------------------------------------------------------


def exterior(coefficients=None, generator_degree=-1, name=None):
    """Lambda(x) with x odd, |x| = generator_degree < 0, weight 1."""
    coefficients = coefficients or Coefficients()
    if generator_degree % 2 == 0 or generator_degree >= 0:
        raise ValueError("exterior generator must have odd negative degree")
    f = coefficients.field
    one = f.one
    basis = [("1", 0, 0), ("x", generator_degree, 1)]
    mult = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}}
    return DGAlgebra(
        name or f"exterior({generator_degree})",
        coefficients,
        basis,
        mult,
        unit=0,
        commutative=True,
        augmentation={0: one},
        weight_graded=True,
    )


def truncated_polynomial(coefficients=None, truncation=2, generator_degree=0,
                         name=None):
    """k[x]/x^N with |x| = generator_degree (even, <= 0), weight(x^k) = k."""
    coefficients = coefficients or Coefficients()
    if generator_degree % 2 or generator_degree > 0:
        raise ValueError("generator degree must be even and non-positive")
    if truncation < 2:
        raise ValueError("truncation must be >= 2")
    f = coefficients.field
    one = f.one
    N = truncation
    basis = [(f"x^{k}" if k else "1", k * generator_degree, k) for k in range(N)]
    mult = {
        (i, j): {i + j: one} for i in range(N) for j in range(N) if i + j < N
    }
    for i in range(N):
        for j in range(N):
            if i + j >= N:
                mult[(i, j)] = {}
    return DGAlgebra(
        name or f"k[x]/x^{N}",
        coefficients,
        basis,
        mult,
        unit=0,
        commutative=True,
        augmentation={0: one},
        weight_graded=True,
    )


def polynomial(coefficients=None, max_weight=8, name=None):
    """k[x] with |x| = 0, weight 1, materialized through max_weight."""
    coefficients = coefficients or Coefficients()
    f = coefficients.field
    one = f.one
    W = max_weight
    basis = [(f"x^{k}" if k else "1", 0, k) for k in range(W + 1)]
    mult = {
        (i, j): {i + j: one}
        for i in range(W + 1)
        for j in range(W + 1)
        if i + j <= W
    }
    return DGAlgebra(
        name or "k[x]",
        coefficients,
        basis,
        mult,
        unit=0,
        commutative=True,
        augmentation={0: one},
        weight_graded=True,
        max_weight=W,
    )


def tensor_algebra(A, B, name=None):
    """A ⊗ B with the Koszul-signed product."""
    if A.coefficients != B.coefficients:
        raise ValueError("coefficient mismatch")
    f = A.coefficients.field
    bound = min(
        (x for x in (A.max_weight, B.max_weight) if x is not None),
        default=None,
    )
    # the pairs within the bound passed on as max_weight, row by row
    pairs = [
        (i, j) for i, j in product(range(A.dim), range(B.dim))
        if bound is None or A.weights[i] + B.weights[j] <= bound
    ]
    basis = [
        (
            (A.labels[i], B.labels[j]),
            A.degrees[i] + B.degrees[j],
            A.weights[i] + B.weights[j],
        )
        for i, j in pairs
    ]
    index = {ij: p for p, ij in enumerate(pairs)}
    pos = lambda i, j: index[i, j]
    mult = {}
    for (i1, j1), (i2, j2) in product(pairs, repeat=2):
        p, q = pos(i1, j1), pos(i2, j2)
        if bound is not None and basis[p][2] + basis[q][2] > bound:
            continue
        mult[(p, q)] = _compose(
            _signed(A.product(i1, i2), B.degrees[j1] * A.degrees[i2], f),
            lambda ka: {
                pos(ka, kb): cb for kb, cb in B.product(j1, j2).items()
            },
            f,
        )
    aug = None
    if A.augmentation is not None and B.augmentation is not None:
        aug = {}
        for i, j in pairs:
            v = f.mul(A.eps(i), B.eps(j))
            if not f.is_zero(v):
                aug[pos(i, j)] = v
    # d(a ⊗ b) = da ⊗ b + (-1)^{|a|} a ⊗ db
    diff = {}
    for i, j in pairs:
        out = _compose(A.d(i), lambda k: {pos(k, j): f.one}, f)
        _compose(
            _signed(B.d(j), A.degrees[i], f),
            lambda k: {pos(i, k): f.one}, f, out,
        )
        if out:
            diff[pos(i, j)] = out
    return DGAlgebra(
        name or f"{A.name}⊗{B.name}",
        A.coefficients,
        basis,
        mult,
        unit=pos(A.unit, B.unit),
        diff=diff,
        commutative=A.commutative and B.commutative,
        augmentation=aug,
        weight_graded=A.weight_graded and B.weight_graded,
        max_weight=bound,
    )


def opposite(A, name=None):
    """A^op: reversed product with the sign (-1)^{|a||b|}."""
    f = A.coefficients.field
    mult = {}
    for (i, j), out in A.mult.items():
        mult[(j, i)] = _signed(out, A.degrees[i] * A.degrees[j], f)
    return DGAlgebra(
        name or f"{A.name}^op",
        A.coefficients,
        list(zip(A.labels, A.degrees, A.weights)),
        mult,
        unit=A.unit,
        diff=dict(A.diff),
        commutative=A.commutative,
        augmentation=dict(A.augmentation) if A.augmentation else None,
        weight_graded=A.weight_graded,
        max_weight=A.max_weight,
    )


def algebra_as_bimodule(A, name=None):
    """A as a symmetric bimodule over itself (requires commutative A)."""
    left = {}
    for (i, j), out in A.mult.items():
        left[(i, j)] = dict(out)
    return DGModule(
        name or f"{A.name} as module",
        A,
        list(zip(A.labels, A.degrees, A.weights)),
        left,
        symmetric=A.commutative,
        right=None if A.commutative else {
            ij: dict(out) for ij, out in A.mult.items()
        },
        diff={i: dict(v) for i, v in A.diff.items()},
        pointed_element=A.unit,
    )


def underlying_complex(X):
    """The chain complex of a DG algebra or module: one element per basis
    label, with the differential of X."""
    c = ChainComplex(X.coefficients)
    for p in range(X.dim):
        c.add_element(X.labels[p], X.degrees[p], X.weights[p])
    for p in range(X.dim):
        for q, v in X.d(p).items():
            c.set_differential_entry(X.labels[p], X.labels[q], v)
    return c.freeze(support=(NEG_INF, 0))


def augmentation_module(A, name=None):
    """k as an A-module through the augmentation."""
    if A.augmentation is None:
        raise ValueError(f"{A.name} is not augmented")
    f = A.coefficients.field
    left = {}
    for a in range(A.dim):
        v = A.eps(a)
        if not f.is_zero(v):
            left[(a, 0)] = {0: v}
    return DGModule(
        name or "k",
        A,
        [("1", 0, 0)],
        left,
        symmetric=True,
        pointed_element=0,
    )


def twisted_bimodule(A, sigma, name=None):
    """A as a bimodule with the right action routed through sigma."""
    f = A.coefficients.field
    left = {}
    right = {}
    for a, m in A.pairs():
        out = A.product(a, m)
        if out:
            left[(a, m)] = dict(out)
        tw = _compose(sigma.apply(a), lambda t: A.product(m, t), f)
        if tw:
            right[(m, a)] = tw
    return DGModule(
        name or f"{A.name}^twisted",
        A,
        list(zip(A.labels, A.degrees, A.weights)),
        left,
        right=right,
        symmetric=False,
        diff={i: dict(v) for i, v in A.diff.items()},
        pointed_element=A.unit,
    )


def outer_bimodule(Ml, Mr):
    """M_l ⊗ M_r as an A-bimodule: A acts on M_l from the left and on M_r
    from the right, d(l ⊗ r) = dl ⊗ r + (-1)^{|l|} l ⊗ dr.  Its Hochschild
    complex is the two-sided Bar complex of (M_r, A, M_l)."""
    A = Ml.algebra
    if Mr.algebra is not A:
        raise ValueError(
            f"{Ml.name} and {Mr.name} are modules over different algebras"
        )
    f = A.coefficients.field
    pos = lambda l, r: l * Mr.dim + r
    left, right, diff, basis = {}, {}, {}, []
    for l, r in product(range(Ml.dim), range(Mr.dim)):
        basis.append(((Ml.labels[l], Mr.labels[r]),
                      Ml.degrees[l] + Mr.degrees[r],
                      Ml.weights[l] + Mr.weights[r]))
        for a in range(A.dim):
            if image := Ml.act_left(a, l):
                left[a, pos(l, r)] = {pos(k, r): c for k, c in image.items()}
            if image := Mr.act_right(r, a):
                right[pos(l, r), a] = {pos(l, k): c for k, c in image.items()}
        out = _compose(Ml.d(l), lambda k: {pos(k, r): f.one}, f)
        _compose(_signed(Mr.d(r), Ml.degrees[l], f),
                 lambda k: {pos(l, k): f.one}, f, out)
        if out:
            diff[pos(l, r)] = out
    return DGModule(f"{Ml.name}⊗{Mr.name}", A, basis, left, right=right,
                    symmetric=False, diff=diff)


# -- monomials and induced maps (Eq.-7 machinery) ---------------------------


def koszul_sign(pairs):
    """Sign of the permutation sorting (key, degree) pairs stably by key,
    counting (-1)^{d_i d_j} for each transposition of odd-degree entries.

    >>> koszul_sign([((1, 0), -1), ((0, 1), -1)])  # two odd factors swap
    -1
    >>> koszul_sign([((1, 0), -2), ((0, 1), -1)])  # an even factor moves
    1
    >>> koszul_sign([((0, 0), -1), ((1, 1), -1)])  # already sorted
    1
    """
    sign = 1
    n = len(pairs)
    for i in range(n):
        for j in range(i + 1, n):
            if pairs[j][0] < pairs[i][0]:
                if pairs[i][1] % 2 and pairs[j][1] % 2:
                    sign = -sign
    return sign


class _Table(dict):
    """A dict that makes the entry of a missing key as ``fill(key)``."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _constants(owner, method):
    """The table on ``owner`` of ``owner.method(i, j)`` ({k: coeff}) as
    (k, coeff) pairs under (i, j), integral rationals as int, filled as
    pairs are met and shared by every program over the owner.  The table
    binds its owner through a weak reference when it fills an entry, so
    the two form no reference cycle; a program keeps its owners alive."""
    name = f"_{method}_constants"
    table = owner.__dict__.get(name)
    if table is None:
        ref = weakref.ref(owner)
        table = owner.__dict__[name] = _Table(lambda key: tuple(
            (k, c.numerator)
            if isinstance(c, Fraction) and c.denominator == 1 else (k, c)
            for k, c in getattr(ref(), method)(*key).items()
        ))
    return table


def _getter(slots):
    """The entries of a tuple at ``slots``, as a tuple (also for one)."""
    if len(slots) > 1:
        return itemgetter(*slots)
    return itemgetter(slice(slots[0], slots[0] + 1) if slots else slice(0))


def _support(monomial, unit, keep=None):
    """The support of a monomial: the (slot, position) pairs of its
    non-unit slots and of slot ``keep`` (a module slot), in slot order.

    >>> _support((0, 2, 0, 1), 0)
    ((1, 2), (3, 1))
    """
    return tuple(
        (s, p) for s, p in enumerate(monomial) if p != unit or s == keep
    )


def _whole(support, card, unit):
    """The monomial on ``card`` slots with this support, units elsewhere."""
    mono = [unit] * card
    for s, p in support:
        mono[s] = p
    return tuple(mono)


def compile_setmap(A, setmap, n_targets=None, module=None, module_slot=None,
                   sign=1):
    """The program ``push`` of a map of slot sets (Eq.-7 style): for a
    monomial (A-basis positions per source slot; with a ``module``, slot
    ``module_slot`` holds a module position and merges through the
    module), ``push`` gives its image {target: coeff} on n_targets slots
    (default 1 + max(setmap)), every coefficient multiplied by ``sign``
    (the face sign of a chain differential, say).

    The map must be pointed: it keeps the module slot in place
    (``setmap[module_slot] == module_slot``), as a face or degeneracy
    keeps the basepoint, or ValueError is raised here.

    Compiled once: each source slot's target and the structure constants
    of its merge there (A's product, or the module's left or right
    action), and whether a Koszul sign can arise (only with an odd factor
    and a setmap that is not order-preserving).

    A fold multiplies the non-unit (and module) factors that reach a
    target into the first of them, in source order, target by target,
    and always runs to its end, so an error (a product past
    ``A.max_weight``, a module action that is missing) wins over a zero.
    Its outcome is zero (None) or the merged values with their plain
    coefficients (several when a constant has several terms; terms and
    sums that vanish in the field dropped).  A run multiplies each by
    ``sign`` and its monomial's Koszul sign and coerces it into the field
    once.

    Over an algebra with no ``max_weight``, ``push`` takes and gives whole
    monomials, and ``push.memo`` keeps one outcome per merge key (the
    factors at the slots of the fibres with two or more), at most dim A
    (or the module's dim) to the power of those slots.  The outcome is
    determined by the key: a run applies the signs after it, a
    coefficient that vanishes mod p vanishes under either sign, distinct
    merged values give distinct images, and a fold that raises leaves no
    outcome, so it raises again on the next run.  A later run on a key
    costs a lookup and the assembly of its image.  On the circle-trunc3
    workload (k[x]/x³ on the circle) 27,648 runs meet 252 keys, 19,203 of
    the runs zero.

    Over an algebra with a ``max_weight``, ``push.memo`` is None and
    ``push`` folds supports (``_support``, the module slot always in it)
    into supports.  A monomial of weight w over a weight-graded algebra
    has at most w non-unit slots, however many slots its level has: on the
    sphere-3 HKR job (k[x] through weight 3) levels 7-9 have 36, 57 and 85
    slots, and every monomial at most 3 non-unit ones.  So a run reads and
    writes those alone, and a support whose factors all reach distinct
    targets folds nothing.  No memo is kept there, for such keys repeat
    little (that job's 12,684 runs meet 7,904 keys).

    >>> A = polynomial(max_weight=3)
    >>> push = compile_setmap(A, (0, 0, 1), 2)
    >>> push(((0, 1), (1, 2)))  # x ⊗ x² ⊗ 1 -> x³ ⊗ 1
    {((0, 3),): Fraction(1, 1)}
    >>> compile_setmap(A, (1, 0), 2, augmentation_module(A), 0)
    Traceback (most recent call last):
    ...
    ValueError: setmap (1, 0) does not keep the module slot 0 in place
    """
    unit, k = A.unit, len(setmap)
    if n_targets is None:
        n_targets = 1 + max(setmap) if setmap else 0
    fibres = [[] for _ in range(n_targets)]
    for s, t in enumerate(setmap):
        fibres[t].append(s)
    msrc = None
    if module is not None:
        if module_slot not in range(k) or setmap[module_slot] != module_slot:
            raise ValueError(
                f"setmap {setmap} does not keep the module slot "
                f"{module_slot} in place"
            )
        msrc = module_slot
    # per source slot, the constants of its merge into the factor folded
    # so far: A's product, or the module's left or right action
    kinds = [_constants(A, "product")]
    degrees = [A.degrees] * k
    if module is not None:
        kinds += [_constants(module, "act_left"),
                  _constants(module, "act_right")]
        degrees[msrc] = module.degrees
    merges = [
        kinds[0 if t != msrc or s < msrc else 1 if s == msrc else 2]
        for s, t in enumerate(setmap)
    ]
    orders = [(t, s) for s, t in enumerate(setmap)]
    signed = any(a > b for a, b in zip(setmap, setmap[1:])) and any(
        d % 2 for degs in degrees for d in degs
    )
    f = A.coefficients.field
    # plain coefficient -> its field value, or None for zero
    coerced = _Table(lambda c: None if f.is_zero(v := f.coerce(c)) else v)

    def fold(cells, freeze):
        """The outcome of the factors ``cells``, (target, slot, position)
        sorted by target then slot: None (zero), or the merged values,
        frozen by ``freeze``, with their plain coefficients.  The first
        factor to reach a target starts its fold."""
        merged, coeff = {}, 1
        # a merge with one term stays in ``merged`` and ``coeff``; the
        # terms of the others (none or several) go to ``spread``
        spread = {}
        for t, s, p in cells:
            table = merges[s]
            terms = spread.get(t)
            if terms is not None:
                terms[:] = [
                    (c * e, q) for c, cur in terms for q, e in table[cur, p]
                ]
                continue
            cur = merged.get(t)
            if cur is None:
                merged[t] = p
                continue
            prod = table[cur, p]
            if len(prod) == 1:
                (merged[t], e), = prod
                coeff *= e
            else:
                spread[t] = [(e, q) for q, e in prod]
        if not spread:
            return None if coerced[coeff] is None else (
                (freeze(merged), coeff),
            )
        # plain sums per merged values; a term or a sum that is zero in
        # the field is dropped, as the field sum would drop it
        out, nonzero = {}, False
        for combo in product(*spread.values()):
            c = coeff
            for t, (e, q) in zip(spread, combo):
                merged[t] = q
                c *= e
            if coerced[c] is None:
                continue
            nonzero = True
            at = freeze(merged)
            c += out.get(at, 0)
            if coerced[c] is None:
                del out[at]
            else:
                out[at] = c
        return tuple(out.items()) if nonzero else None

    def items(merged):
        return tuple(merged.items())

    # no fold and no Koszul sign: the image of a support whose factors
    # all reach distinct targets is coefficient ``sign``
    plain, scaled = not signed, coerced[sign]

    def fold_support(support):
        merged = {}
        for s, p in support:
            t = setmap[s]
            if t in merged:
                # a fibre merges two factors: fold them target by target
                outcome = fold(
                    sorted([(setmap[s], s, p) for s, p in support]), items
                )
                if outcome is None:
                    return {}
                break
            merged[t] = p
        else:
            image = tuple(sorted(merged.items()))
            if plain:
                return {image: scaled}
            outcome = ((image, 1),)
        c = sign * koszul_sign([
            (orders[s], d) for s, p in support if (d := degrees[s][p]) % 2
        ]) if signed else sign
        return {image: coerced[c * e] for image, e in outcome}

    if A.max_weight is not None:
        fold_support.memo, fold_support.owners = None, (A, module)
        return fold_support

    # a merge key is the factors at the slots of the merging fibres; its
    # outcome holds their merged values, then the sentinel unit when a
    # fibre is empty, and a run assembles its image from its monomial and
    # them
    merging = [t for t, fibre in enumerate(fibres) if len(fibre) > 1]
    key_cells = [(t, s) for t in merging for s in fibres[t]]
    merge_key = _getter([s for _, s in key_cells])
    tail = () if all(fibres) else (unit,)
    into = {t: j for j, t in enumerate(merging)}
    assemble = _getter([
        k + into[t] if t in into else fibre[0] if fibre else
        k + len(merging) for t, fibre in enumerate(fibres)
    ])
    memo = _Table(lambda key: fold(
        [(t, s, p) for (t, s), p in zip(key_cells, key)
         if p != unit or s == msrc],
        lambda merged: tuple([merged.get(t, unit) for t in merging]) + tail,
    ))

    def run(monomial):
        outcome = memo[merge_key(monomial)]
        if outcome is None:
            return {}
        c = sign * koszul_sign([
            (order, d) for order, degs, p in zip(orders, degrees, monomial)
            if (d := degs[p]) % 2
        ]) if signed else sign
        out = {}
        for merged, e in outcome:
            out[assemble(monomial + merged)] = coerced[c * e]
        return out

    run.memo, run.owners = memo, (A, module)
    return run


def _on_monomials(push, n_targets, unit, keep=None):
    """A program of ``compile_setmap`` run on whole monomials: a support
    program gets each monomial's support (slot ``keep`` always in it) and
    gives whole images on ``n_targets`` slots."""
    if push.memo is not None:
        return push
    return lambda monomial: {
        _whole(image, n_targets, unit): c
        for image, c in push(_support(monomial, unit, keep)).items()
    }


def apply_setmap(A, setmap, monomial, module=None, module_slot=None,
                 n_targets=None):
    """``compile_setmap`` for a single monomial, whole in and out.

    >>> apply_setmap(exterior(), (1, 0), (1, 1))  # two odd factors swap
    {(1, 1): Fraction(-1, 1)}
    """
    if n_targets is None:
        n_targets = 1 + max(setmap) if setmap else 0
    push = compile_setmap(A, setmap, n_targets, module, module_slot)
    return _on_monomials(push, n_targets, A.unit, module_slot)(monomial)


def multiop(A, setmap, n_source, n_target):
    """Matrix of f_*: A^{⊗S} -> A^{⊗T} on full monomial bases, for small
    slot counts (tests, explicit checks): one ``compile_setmap`` program
    run on every source monomial, as the chain builders run one per face."""
    f = A.coefficients.field
    if len(setmap) != n_source:
        raise ValueError("setmap length mismatch")
    if setmap and max(setmap) >= n_target:
        raise ValueError("setmap range exceeds target")
    src = list(product(range(A.dim), repeat=n_source))
    tgt = list(product(range(A.dim), repeat=n_target))
    tpos = {m: i for i, m in enumerate(tgt)}
    mat = SparseMatrix(len(tgt), len(src), f)
    push = _on_monomials(
        compile_setmap(A, tuple(setmap), n_target), n_target, A.unit
    )
    for col, mono in enumerate(src):
        for m, c in push(mono).items():
            mat.add_to(tpos[m], col, c)
    return mat, src, tgt

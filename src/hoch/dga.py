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
"""

from bisect import insort
from fractions import Fraction
from itertools import compress, product

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

    def degree(self, i):
        return self.degrees[i]

    def weight(self, i):
        return self.weights[i]

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
        f = self.coefficients.field
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
            for k, c in out.items():
                if self.degrees[k] != self.degrees[i] + self.degrees[j]:
                    raise ValueError(f"{self.name}: product not degree-additive")
                if self.weights[k] != self.weights[i] + self.weights[j]:
                    raise ValueError(f"{self.name}: product not weight-additive")
        for i in range(self.dim):
            if self.product(self.unit, i) != {i: one} or self.product(
                i, self.unit
            ) != {i: one}:
                raise ValueError(f"{self.name}: unit law fails at {i}")
        bound = self.max_weight
        for i in range(self.dim):
            for j in range(self.dim):
                if bound is not None and self.weights[i] + self.weights[j] > bound:
                    continue
                for k in range(self.dim):
                    if (
                        bound is not None
                        and self.weights[i] + self.weights[j] + self.weights[k]
                        > bound
                    ):
                        continue
                    left = self._mul_vec(self.product(i, j), k, side="right")
                    right = self._mul_vec(self.product(j, k), i, side="left")
                    if left != right:
                        raise ValueError(
                            f"{self.name}: associativity fails at {(i, j, k)}"
                        )
        if self.commutative:
            for i in range(self.dim):
                for j in range(self.dim):
                    if bound is not None and self.weights[i] + self.weights[j] > bound:
                        continue
                    sign = -1 if (self.degrees[i] * self.degrees[j]) % 2 else 1
                    want = {
                        k: f.mul(f.coerce(sign), c)
                        for k, c in self.product(j, i).items()
                    }
                    if self.product(i, j) != want:
                        raise ValueError(
                            f"{self.name}: graded commutativity fails at {(i, j)}"
                        )
        # Leibniz: d(ab) = d(a) b + (-1)^{|a|} a d(b)
        for i in range(self.dim):
            for j in range(self.dim):
                if bound is not None and self.weights[i] + self.weights[j] > bound:
                    continue
                lhs = {}
                for k, c in self.product(i, j).items():
                    for t, e in self.d(k).items():
                        _acc(lhs, t, f.mul(c, e), f)
                rhs = {}
                for t, e in self.d(i).items():
                    for k, c in self.product(t, j).items():
                        _acc(rhs, k, f.mul(e, c), f)
                sign = f.coerce(-1 if self.degrees[i] % 2 else 1)
                for t, e in self.d(j).items():
                    for k, c in self.product(i, t).items():
                        _acc(rhs, k, f.mul(sign, f.mul(e, c)), f)
                if lhs != rhs:
                    raise ValueError(f"{self.name}: Leibniz fails at {(i, j)}")
        for i in range(self.dim):
            acc = {}
            for k, c in self.d(i).items():
                for t, e in self.d(k).items():
                    _acc(acc, t, f.mul(c, e), f)
            if acc:
                raise ValueError(f"{self.name}: d^2 != 0 at {i}")
        if self.augmentation is not None:
            if self.eps(self.unit) != one:
                raise ValueError(f"{self.name}: augmentation misses the unit")
            for i in range(self.dim):
                for j in range(self.dim):
                    if bound is not None and self.weights[i] + self.weights[j] > bound:
                        continue
                    prod_eps = zero
                    for k, c in self.product(i, j).items():
                        prod_eps = f.add(prod_eps, f.mul(c, self.eps(k)))
                    if prod_eps != f.mul(self.eps(i), self.eps(j)):
                        raise ValueError(
                            f"{self.name}: augmentation not multiplicative"
                        )

    def _mul_vec(self, vec, k, side):
        f = self.coefficients.field
        out = {}
        for t, c in vec.items():
            pair = (t, k) if side == "right" else (k, t)
            for s, e in self.mult.get(pair, {}).items():
                _acc(out, s, f.mul(c, e), f)
        return out

    def __repr__(self):
        return f"DGAlgebra({self.name}, dim={self.dim})"


def _acc(store, key, value, field):
    acc = field.add(store.get(key, field.zero), value)
    if field.is_zero(acc):
        store.pop(key, None)
    else:
        store[key] = acc


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

    def degree(self, i):
        return self.degrees[i]

    def weight(self, i):
        return self.weights[i]

    def act_left(self, a, m):
        if self.left is None:
            raise ValueError(f"{self.name}: no left action")
        return self.left.get((a, m), {})

    def act_right(self, m, a):
        if self._right is not None:
            return self._right.get((m, a), {})
        if not self.symmetric:
            raise ValueError(f"{self.name}: no right action")
        f = self.coefficients.field
        sign = f.coerce(
            -1 if (self.algebra.degrees[a] * self.degrees[m]) % 2 else 1
        )
        return {k: f.mul(sign, c) for k, c in self.act_left(a, m).items()}

    def d(self, m):
        return self.diff.get(m, {})

    def audit(self):
        """Unit, associativity and Leibniz for the left action, when there
        is one; unit and associativity for the right action, when there is
        one (a right table, or a symmetric module); compatibility when
        there are both."""
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
        bound = A.max_weight
        for a in range(A.dim):
            for b in range(A.dim):
                if bound is not None and A.weights[a] + A.weights[b] > bound:
                    continue
                for m in range(self.dim):
                    if has_left:
                        lhs = {}
                        for k, c in A.product(a, b).items():
                            for t, e in self.act_left(k, m).items():
                                _acc(lhs, t, f.mul(c, e), f)
                        rhs = {}
                        for t, c in self.act_left(b, m).items():
                            for s, e in self.act_left(a, t).items():
                                _acc(rhs, s, f.mul(c, e), f)
                        if lhs != rhs:
                            raise ValueError(
                                f"{self.name}: left module axiom fails "
                                f"{(a, b, m)}"
                            )
                    if has_left and has_right:
                        # (a m) b = a (m b)
                        lhs = {}
                        for t, c in self.act_left(a, m).items():
                            for s, e in self.act_right(t, b).items():
                                _acc(lhs, s, f.mul(c, e), f)
                        rhs = {}
                        for t, c in self.act_right(m, b).items():
                            for s, e in self.act_left(a, t).items():
                                _acc(rhs, s, f.mul(c, e), f)
                        if lhs != rhs:
                            raise ValueError(
                                f"{self.name}: bimodule compatibility fails"
                            )
                    if has_right:
                        # m (a b) = (m a) b
                        lhs = {}
                        for k, c in A.product(a, b).items():
                            for t, e in self.act_right(m, k).items():
                                _acc(lhs, t, f.mul(c, e), f)
                        rhs = {}
                        for t, c in self.act_right(m, a).items():
                            for s, e in self.act_right(t, b).items():
                                _acc(rhs, s, f.mul(c, e), f)
                        if lhs != rhs:
                            raise ValueError(
                                f"{self.name}: right module axiom fails "
                                f"{(a, b, m)}"
                            )
        if not has_left:
            return
        # Leibniz: d(a m) = d(a) m + (-1)^{|a|} a d(m)
        for a in range(A.dim):
            for m in range(self.dim):
                lhs = {}
                for t, c in self.act_left(a, m).items():
                    for s, e in self.d(t).items():
                        _acc(lhs, s, f.mul(c, e), f)
                rhs = {}
                for t, c in A.d(a).items():
                    for s, e in self.act_left(t, m).items():
                        _acc(rhs, s, f.mul(c, e), f)
                sign = f.coerce(-1 if A.degrees[a] % 2 else 1)
                for t, c in self.d(m).items():
                    for s, e in self.act_left(a, t).items():
                        _acc(rhs, s, f.mul(sign, f.mul(c, e)), f)
                if lhs != rhs:
                    raise ValueError(f"{self.name}: module Leibniz fails")

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
        bound = A.max_weight
        for i in range(A.dim):
            for j in range(A.dim):
                if bound is not None and A.weights[i] + A.weights[j] > bound:
                    continue
                lhs = {}
                for k, c in A.product(i, j).items():
                    for t, e in self.apply(k).items():
                        _acc(lhs, t, f.mul(c, e), f)
                rhs = {}
                for t, c in self.apply(i).items():
                    for s, e in self.apply(j).items():
                        for k, g in A.product(t, s).items():
                            _acc(rhs, k, f.mul(f.mul(c, e), g), f)
                if lhs != rhs:
                    raise ValueError("automorphism is not multiplicative")
        for i in range(A.dim):
            lhs = {}
            for k, c in A.d(i).items():
                for t, e in self.apply(k).items():
                    _acc(lhs, t, f.mul(c, e), f)
            rhs = {}
            for t, c in self.apply(i).items():
                for s, e in A.d(t).items():
                    _acc(rhs, s, f.mul(c, e), f)
            if lhs != rhs:
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
    basis = []
    for i in range(A.dim):
        for j in range(B.dim):
            basis.append(
                (
                    (A.labels[i], B.labels[j]),
                    A.degrees[i] + B.degrees[j],
                    A.weights[i] + B.weights[j],
                )
            )
    dimB = B.dim
    pos = lambda i, j: i * dimB + j

    def wt(p):
        return basis[p][2]

    bound = None
    if A.max_weight is not None or B.max_weight is not None:
        bound = min(
            x for x in (A.max_weight, B.max_weight) if x is not None
        )
    mult = {}
    for i1 in range(A.dim):
        for j1 in range(B.dim):
            for i2 in range(A.dim):
                for j2 in range(B.dim):
                    p, q = pos(i1, j1), pos(i2, j2)
                    if bound is not None and wt(p) + wt(q) > bound:
                        continue
                    sign = f.coerce(
                        -1 if (B.degrees[j1] * A.degrees[i2]) % 2 else 1
                    )
                    out = {}
                    for ka, ca in A.product(i1, i2).items():
                        for kb, cb in B.product(j1, j2).items():
                            _acc(
                                out,
                                pos(ka, kb),
                                f.mul(sign, f.mul(ca, cb)),
                                f,
                            )
                    mult[(p, q)] = out
    aug = None
    if A.augmentation is not None and B.augmentation is not None:
        aug = {}
        for i in range(A.dim):
            for j in range(B.dim):
                v = f.mul(A.eps(i), B.eps(j))
                if not f.is_zero(v):
                    aug[pos(i, j)] = v
    diff = {}
    for i in range(A.dim):
        for j in range(B.dim):
            out = {}
            for k, c in A.d(i).items():
                _acc(out, pos(k, j), c, f)
            sign = f.coerce(-1 if A.degrees[i] % 2 else 1)
            for k, c in B.d(j).items():
                _acc(out, pos(i, k), f.mul(sign, c), f)
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
        sign = f.coerce(-1 if (A.degrees[i] * A.degrees[j]) % 2 else 1)
        mult[(j, i)] = {k: f.mul(sign, c) for k, c in out.items()}
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
        right=None if A.commutative else _right_from_mult(A),
        diff={i: dict(v) for i, v in A.diff.items()},
        pointed_element=A.unit,
    )


def _right_from_mult(A):
    right = {}
    for (i, j), out in A.mult.items():
        right[(i, j)] = dict(out)
    return right


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
    for a in range(A.dim):
        for m in range(A.dim):
            if (
                A.max_weight is not None
                and A.weights[a] + A.weights[m] > A.max_weight
            ):
                continue
            out = A.product(a, m)
            if out:
                left[(a, m)] = dict(out)
            tw = {}
            for t, c in sigma.apply(a).items():
                for k, e in A.product(m, t).items():
                    _acc(tw, k, f.mul(c, e), f)
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


def _constants(owner, table_name, compute, i, j):
    """``compute(i, j)`` ({k: coeff}) as a tuple of (k, coeff) pairs, with
    integral rationals stored as int.  Kept in a table on ``owner`` that
    is made at first use and holds only the pairs met so far."""
    table = owner.__dict__.get(table_name)
    if table is None:
        table = owner.__dict__[table_name] = {}
    entry = table.get((i, j))
    if entry is None:
        entry = table[i, j] = tuple(
            (k, c.numerator)
            if isinstance(c, Fraction) and c.denominator == 1
            else (k, c)
            for k, c in compute(i, j).items()
        )
    return entry


def apply_setmap(A, setmap, monomial, module=None, module_slot_map=None):
    """Push a monomial through a map of slot sets (Eq.-7 style).

    setmap: tuple, target slot index per source slot.  monomial: tuple of
    A-basis positions per source slot, except that slot positions listed
    in module_slot_map take module basis positions.  module_slot_map is
    {source_slot: target_slot} for the (at most one) module slot; merging
    into the module slot acts through the module structure.

    Returns {target_monomial: coeff}, targets 0..max(setmap).  Only the
    non-unit factors (and the module factor) are walked: they are grouped
    by target slot in source order, and each group is folded left to
    right through the structure constants.  The Koszul sign of the
    regrouping is ``koszul_sign`` over the odd-degree factors alone, since
    even factors never change it.  Coefficients are multiplied as plain
    numbers (integral rationals as int) and coerced into the field once
    per output term; terms that are zero after coercion are dropped.

    >>> apply_setmap(exterior(), (1, 0), (1, 1))  # two odd factors swap
    {(1, 1): Fraction(-1, 1)}
    """
    unit = A.unit
    # positions are ints, so with the unit at 0 the non-unit slots are
    # exactly the truthy entries
    flags = monomial if unit == 0 else map(unit.__ne__, monomial)
    support = list(compress(range(len(setmap)), flags))
    msrc = mtgt = tm = None
    if module_slot_map:
        (msrc, mtgt), = module_slot_map.items()
        if msrc in range(len(setmap)):
            tm = setmap[msrc]
            if monomial[msrc] == unit:
                insort(support, msrc)
    odd = [
        ((setmap[s], s), d) for s in support
        if (d := (module.degrees if s == msrc else A.degrees)[monomial[s]]) % 2
    ]
    coeff = koszul_sign(odd) if len(odd) > 1 else 1
    n_targets = 1 + max(setmap) if setmap else 0
    # fold each target's group (the stable sort keeps source order within
    # a target); a group with a single term lives in ``image`` with its
    # coefficient folded into ``coeff``, the others (zero or several
    # terms) in ``spread``
    support.sort(key=setmap.__getitem__)
    image = [unit] * n_targets
    spread = []  # (target, [(coeff, position), ...]) in target order
    t_prev = None
    for s in support:
        t = setmap[s]
        p = monomial[s]
        if t != t_prev:
            image[t] = p
            t_prev = t
            single = True
            continue
        if t != tm or s < msrc:
            owner, name, compute = A, "_product_constants", A.product
        elif s == msrc:
            owner, name, compute = module, "_left_constants", module.act_left
        else:
            owner, name, compute = module, "_right_constants", module.act_right
        if single:
            prod = _constants(owner, name, compute, image[t], p)
            if len(prod) == 1:
                (image[t], e), = prod
                coeff *= e
            else:
                spread.append((t, [(e, k) for k, e in prod]))
                single = False
        else:
            terms = spread[-1][1]
            terms[:] = [
                (c * e, k)
                for c, cur in terms
                for k, e in _constants(owner, name, compute, cur, p)
            ]
    fault = None
    if module_slot_map and tm != mtgt:
        # the first target, in slot order, where the module factor is
        # missing or misplaced decides: the image is 0, or an error is
        # raised at the first nonzero term
        if 0 <= mtgt < n_targets and (tm is None or mtgt < tm):
            if not any(setmap[s] == mtgt for s in support):
                return {}
            fault = "module slot received algebra factor"
        elif tm is not None:
            fault = "algebra slot received module factor"
    f = A.coefficients.field
    if not spread:
        c = f.coerce(coeff)
        if f.is_zero(c):
            return {}
        if fault:
            raise ValueError(fault)
        return {tuple(image): c}
    out = {}
    for combo in product(*(terms for _, terms in spread)):
        c = coeff
        for (t, _), (e, k) in zip(spread, combo):
            image[t] = k
            c *= e
        c = f.coerce(c)
        if f.is_zero(c):
            continue
        if fault:
            raise ValueError(fault)
        _acc(out, tuple(image), c, f)
    return out


def multiop(A, setmap, n_source, n_target):
    """Matrix of f_*: A^{⊗S} -> A^{⊗T} on full monomial bases.

    Intended for small slot counts (tests, explicit checks); the chain
    builders apply ``apply_setmap`` per monomial instead.
    """
    f = A.coefficients.field
    if len(setmap) != n_source:
        raise ValueError("setmap length mismatch")
    if setmap and max(setmap) >= n_target:
        raise ValueError("setmap range exceeds target")
    src = list(product(range(A.dim), repeat=n_source))
    tgt = list(product(range(A.dim), repeat=n_target))
    tpos = {m: i for i, m in enumerate(tgt)}
    mat = SparseMatrix(len(tgt), len(src), f)
    padded = tuple(setmap)
    for col, mono in enumerate(src):
        image = _pad_apply(A, padded, mono, n_target)
        for m, c in image.items():
            mat.add_to(tpos[m], col, c)
    return mat, src, tgt


def _pad_apply(A, setmap, mono, n_target):
    f = A.coefficients.field
    image = apply_setmap(A, setmap, mono)
    out = {}
    for m, c in image.items():
        full = tuple(list(m) + [A.unit] * (n_target - len(m)))
        _acc(out, full, c, f)
    return out

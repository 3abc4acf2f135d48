"""Differential graded algebras and modules presented by exact bases.

Supported classes (so that every (degree, weight) computation is finite):
  (i)  finite-dimensional with the augmentation ideal in degrees <= -1;
  (ii) weight-graded with the non-unit part in weights >= 1 and finite
       per weight.
Constructors outside these classes are rejected.

All structure constants are exact; an axiom audit runs at construction
and fails fast, each side of an axiom one sparse fold of structure maps
(``linalg._compose``).  Koszul signs are computed from the sorting
permutation of the odd-degree factors involved (``koszul_sign``), never
from ad-hoc parity formulas; even factors never change a sign.

A map of slot sets acts on monomials through a program compiled once per
setmap (``compile_setmap``); ``apply_setmap`` is its one-shot form.  With
module coefficients the module sits in slot 0, the basepoint of every
pointed space (``simp``), and the map must keep slot 0 in place.  Programs
give plain coefficients; a builder coerces each column's sums into the
field once (``linalg.field_values``).
"""

import weakref
from fractions import Fraction
from itertools import product
from operator import itemgetter

from .homalg import Coefficients
from .linalg import _Table, _compose, _signed, field_values


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


def _support(monomial, unit, module=False):
    """The support of a monomial: the (slot, position) pairs of its
    non-unit slots and, with a ``module``, of slot 0, in slot order.

    >>> _support((0, 2, 0, 1), 0), _support((0, 2, 0, 1), 0, module=True)
    (((1, 2), (3, 1)), ((0, 0), (1, 2), (3, 1)))
    """
    return tuple(
        (s, p) for s, p in enumerate(monomial)
        if p != unit or module and not s
    )


def _whole(support, card, unit):
    """The monomial on ``card`` slots with this support, units elsewhere."""
    mono = [unit] * card
    for s, p in support:
        mono[s] = p
    return tuple(mono)


def compile_setmap(A, setmap, n_targets=None, module=None, sign=1):
    """The program ``push`` of a map of slot sets (Eq.-7 style): for a
    monomial (A-basis positions per source slot; with a ``module``, slot 0
    holds a module position and merges through the module), ``push`` gives
    its image {target: coeff} on n_targets slots (default 1 +
    max(setmap)), every coefficient multiplied by ``sign`` (the face sign
    of a chain differential, say).

    With a module the map must be pointed: it keeps slot 0 in place, as a
    face or degeneracy keeps the basepoint, or ValueError is raised here.

    Compiled once: each source slot's target and the structure constants
    of its merge there (A's product, or the module's right action: the
    module factor is first at target 0), and whether a Koszul sign can
    arise (only with an odd factor and a setmap that is not
    order-preserving).

    A fold multiplies the non-unit (and module) factors that reach a
    target into the first of them, in source order, target by target,
    and always runs to its end, so an error (a product past
    ``A.max_weight``, a module action that is missing) wins over a zero.
    Its outcome is zero (None) or the merged values with their plain
    coefficients (several when a constant has several terms; terms and
    sums that vanish in the field dropped).  A run multiplies each by
    ``sign`` and its monomial's Koszul sign and gives it plain, for the
    caller to sum before it coerces.

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
    {((0, 3),): 1}
    >>> compile_setmap(A, (1, 0), 2, algebra_as_bimodule(A))
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
    # per source slot, the constants of its merge into the factor folded
    # so far: A's product, or at target 0 the module's right action
    merges = [_constants(A, "product")] * k
    degrees = [A.degrees] * k
    if module is not None:
        if not k or setmap[0] != 0:
            raise ValueError(
                f"setmap {setmap} does not keep the module slot 0 in place"
            )
        right = _constants(module, "act_right")
        merges = [right if t == 0 else m for t, m in zip(setmap, merges)]
        degrees[0] = module.degrees
    orders = [(t, s) for s, t in enumerate(setmap)]
    signed = any(a > b for a, b in zip(setmap, setmap[1:])) and any(
        d % 2 for degs in degrees for d in degs
    )
    coerced = field_values(A.coefficients.field)  # tells a zero

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
    plain = not signed

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
                return {image: sign}
            outcome = ((image, 1),)
        c = sign * koszul_sign([
            (orders[s], d) for s, p in support if (d := degrees[s][p]) % 2
        ]) if signed else sign
        return {image: c * e for image, e in outcome}

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
         if p != unit or module is not None and not s],
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
            out[assemble(monomial + merged)] = c * e
        return out

    run.memo, run.owners = memo, (A, module)
    return run


def _on_monomials(push, n_targets):
    """A program of ``compile_setmap`` run on whole monomials: a support
    program gets each monomial's support (slot 0 always in it with a
    module) and gives whole images on ``n_targets`` slots."""
    if push.memo is not None:
        return push
    A, module = push.owners
    return lambda monomial: {
        _whole(image, n_targets, A.unit): c
        for image, c in push(
            _support(monomial, A.unit, module is not None)
        ).items()
    }


def apply_setmap(A, setmap, monomial, module=None, n_targets=None):
    """``compile_setmap`` for a single monomial, whole in and out, its
    coefficients coerced into the field.

    >>> apply_setmap(exterior(), (1, 0), (1, 1))  # two odd factors swap
    {(1, 1): Fraction(-1, 1)}
    """
    if n_targets is None:
        n_targets = 1 + max(setmap) if setmap else 0
    push = compile_setmap(A, setmap, n_targets, module)
    coerce = A.coefficients.field.coerce
    return {
        image: coerce(c)
        for image, c in _on_monomials(push, n_targets)(monomial).items()
    }


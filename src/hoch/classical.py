"""The classical complexes, and the DG constructions behind them.

The textbook Hochschild complex M ⊗ Ā^{⊗n} (criterion 3's oracle, and the
builder of the twisted and two-sided Bar complexes), the enveloping-algebra
route A ⊗^L_{A⊗A^op} A and the iterated Bar constructions, with the
constructions that only they, the Čech complexes and the tests read:
tensor and opposite algebras, automorphisms, the twisted, outer and
augmentation modules, and the underlying complex of an algebra or module.
They are deliberately independent of the simplicial machinery of
``hochschild``.  The chain tasks (``homology``, ``hkr-check``, ``bar``)
never import this module; the other tasks import it on first use.
"""

from fractions import Fraction
from itertools import product

from . import simp
from .dga import AlgebraClassError, DGAlgebra, DGModule
from .homalg import NEG_INF, POS_INF, ChainComplex
from .hochschild import check_cap, hochschild_chain_with_coeff, required_level
from .linalg import SparseMatrix, _compose, _signed, rank


# -- algebras, automorphisms and modules ------------------------------------

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


def scaling_automorphism(A, scalar):
    """x ↦ scalar^weight(x) · x on each basis element of A."""
    f = A.coefficients.field
    images = {}
    for p in range(A.dim):
        images[p] = {p: f.coerce(Fraction(scalar) ** A.weights[p])}
    return AlgebraAutomorphism(A, images)


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


# -- the classical Hochschild complex ---------------------------------------


def classical_hochschild(A, module, window=(-6, 0), cap=None):
    """The textbook Hochschild complex M ⊗ Ā^{⊗n}, normalized.

    Faces: d_0 = m·a_1, middle merges, d_n moves a_n to the front with its
    Koszul sign and acts on the left.  Total degree of level n is the
    internal degree minus n; the internal differential carries (-1)^n.
    ``cap`` holds its (degree, weight) blocks before any face is set
    (``classical_basis``).  Over k[x]/x² it agrees with the periodic
    resolution (``hochschild.periodic_resolution_dims``):

    >>> from hoch.dga import algebra_as_bimodule, truncated_polynomial
    >>> A = truncated_polynomial(truncation=2)
    >>> classical_hochschild(A, algebra_as_bimodule(A), (-3, 0)).betti((-3, 0))
    {-3: 1, -2: 1, -1: 1, 0: 2}
    """
    f = A.coefficients.field
    lo = window[0]
    out, levels = classical_basis(A, module, window, cap)
    for n in range(len(levels)):
        sign_n = f.coerce(-1 if n % 2 else 1)
        for src in levels[n]:
            _, m, mono = src
            # internal differential
            run = module.degrees[m]
            for q, c in module.d(m).items():
                _add_if(out, src, (n, q, mono), f.mul(sign_n, c), f)
            for s, p in enumerate(mono):
                sgn = f.coerce(-1 if run % 2 else 1)
                for q, c in A.d(p).items():
                    t = list(mono)
                    t[s] = q
                    if q == A.unit:
                        continue
                    _add_if(
                        out, src, (n, m, tuple(t)),
                        f.mul(sign_n, f.mul(sgn, c)), f,
                    )
                run += A.degrees[p]
            if n == 0:
                continue
            # d_0: m · a_1
            for q, c in module.act_right(m, mono[0]).items():
                _add_if(out, src, (n - 1, q, mono[1:]), c, f)
            # middle faces
            for r in range(1, n):
                sgn = f.coerce(-1 if r % 2 else 1)
                for q, c in A.product(mono[r - 1], mono[r]).items():
                    if q == A.unit:
                        continue
                    t = mono[: r - 1] + (q,) + mono[r + 1 :]
                    _add_if(out, src, (n - 1, m, t), f.mul(sgn, c), f)
            # d_n: a_n moves to the front past the rest, of degree
            # run - |a_n|, and acts on the left
            last = mono[-1]
            crossed = A.degrees[last] * (run - A.degrees[last])
            sgn = f.coerce(-1 if (crossed + n) % 2 else 1)
            for q, c in module.act_left(last, m).items():
                _add_if(out, src, (n - 1, q, mono[:-1]), f.mul(sgn, c), f)
    return out.freeze(window=(lo - 1, POS_INF), support=(NEG_INF, 0))


def classical_basis(A, module, window=(-6, 0), cap=None):
    """The basis of ``classical_hochschild``'s complex, laid out with no
    entry, and its labels per level: InfeasibleError when a (degree,
    weight) block exceeds ``cap``."""
    lo = window[0]
    nonunit = A.nonunit()
    out = ChainComplex(A.coefficients)
    levels = []
    for n in range(max(0, 1 - lo) + 1):
        monos = list(product(nonunit, repeat=n))
        level = []
        for m in range(module.dim):
            for mono in monos:
                deg = module.degrees[m] + sum(A.degrees[p] for p in mono)
                wt = module.weights[m] + sum(A.weights[p] for p in mono)
                if deg - n < lo - 1:
                    continue
                label = (n, m, mono)
                out.add_element(label, deg - n, wt)
                level.append(label)
        levels.append(level)
    check_cap(out.max_block_dim(), cap)
    return out, levels


def _add_if(co, src, tgt, val, f):
    if f.is_zero(val):
        return
    if tgt in co.index:
        co.set_differential_entry(src, tgt, val)


def twisted_hochschild(B, mon, window=(-6, 0), cap=None):
    """HH(B, B twisted by mon) via the classical complex."""
    return classical_hochschild(B, twisted_bimodule(B, mon), window, cap)


# -- Bar constructions -------------------------------------------------------


def two_sided_bar(right_module, A, left_module, window=(-6, 0), cap=None):
    """Bar(M_r, A, M_l) = ⊕ M_r ⊗ Ā^{⊗n} ⊗ M_l, reduced, total degree
    -n + internal, built as the Hochschild complex of the bimodule
    M_l ⊗ M_r: excision glues the ends of the interval carrying
    (M_r, A, M_l) into the marked point of a circle carrying M_l ⊗ M_r, so
    M_r ⊗^L_A M_l ≅ HH(A, M_l ⊗ M_r).  Moving M_l to the front, with its
    Koszul sign, turns the left action on M_l into the classical d_n."""
    return classical_hochschild(
        A, outer_bimodule(left_module, right_module), window, cap
    )


def enveloping_modules(A):
    """(A as right A⊗A^op-module, A⊗A^op, A as left A⊗A^op-module).

    The classical Bar complex has no weight truncation, so an algebra
    materialized per weight only (``max_weight``) is refused."""
    if A.max_weight is not None:
        raise AlgebraClassError(
            f"{A.name}: the enveloping algebra needs every product, but "
            f"{A.name} is materialized per weight only (through weight "
            f"{A.max_weight})"
        )
    f = A.coefficients.field
    E = tensor_algebra(A, opposite(A), name=f"{A.name}^e")
    dimB = A.dim
    pos = lambda i, j: i * dimB + j
    deg = A.degrees
    left = {}
    right = {}
    for i in range(A.dim):
        for j in range(A.dim):
            e = pos(i, j)
            for m in range(A.dim):
                # left action: (a ⊗ b^op) · m = (-1)^{|b||m|} a m b
                image = _compose(
                    _signed(A.product(m, j), deg[j] * deg[m], f),
                    lambda t: A.product(i, t), f,
                )
                if image:
                    left[(e, m)] = image
                # right action: m · (a ⊗ b^op) = (-1)^{|b||m| + |a||b|} b m a
                # (the unique sign making the right-module axiom hold)
                image = _compose(
                    _signed(A.product(m, i), deg[j] * (deg[m] + deg[i]), f),
                    lambda t: A.product(j, t), f,
                )
                if image:
                    right[(m, e)] = image
    basis = list(zip(A.labels, A.degrees, A.weights))
    mod_r = DGModule(
        f"{A.name} (right over envelope)", E, basis, left=None, right=right,
        symmetric=False, diff={i: dict(v) for i, v in A.diff.items()},
        pointed_element=A.unit,
    )
    mod_l = DGModule(
        f"{A.name} (left over envelope)", E, basis, left=left,
        symmetric=False, diff={i: dict(v) for i, v in A.diff.items()},
        pointed_element=A.unit,
    )
    return mod_r, E, mod_l


def hh_via_enveloping(A, window=(-6, 0), cap=None):
    """A ⊗^L_{A⊗A^op} A computed as the two-sided Bar complex."""
    mod_r, E, mod_l = enveloping_modules(A)
    return two_sided_bar(mod_r, E, mod_l, window, cap)


def iterated_bar(A, i, window=(-6, 0), weights=None, cap=None):
    """Bar^{(i)}(A) = CH over the i-sphere with trivial coefficients;
    ``cap`` bounds its (degree, weight) blocks (see ``build_levels``)."""
    if A.augmentation is None:
        raise ValueError("iterated Bar needs an augmented algebra")
    if i == 0:
        C = underlying_complex(A)
        check_cap(C.max_block_dim(), cap)
        return C
    k_mod = augmentation_module(A)
    level = required_level(simp.sphere_small(i, 0), A, window, weights)[0]
    Y = simp.sphere_small(i, level)
    hc = hochschild_chain_with_coeff(Y, A, k_mod, window, weights, cap=cap)
    return hc.complex

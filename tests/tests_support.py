"""Shared helpers for the test-suite (kept out of the package).

Besides the fixtures' builders, the checks that only the tests run live
here, so that no job compiles them: the full matrix of a set map
(``multiop``), the tensor, hom and dual complexes, Euler characteristics
per weight, class residues, and the simplicial identities, normal forms
and JSON dump of a simplicial set.
"""

import json
from itertools import product

from hoch import dga
from hoch.homalg import (
    NEG_INF,
    POS_INF,
    ChainComplex,
    ChainMap,
    SimplicialChainComplex,
    _entries,
)
from hoch.linalg import SparseMatrix

_counter = [0]


def two_term_complex(coefficients, degree):
    """k --1--> k concentrated in (degree, degree + 1)."""
    _counter[0] += 1
    tag = _counter[0]
    c = ChainComplex(coefficients)
    c.add_element(("tt", tag, 0), degree, 0)
    c.add_element(("tt", tag, 1), degree + 1, 0)
    c.set_differential_entry(
        ("tt", tag, 0), ("tt", tag, 1), coefficients.field.one
    )
    return c.freeze(support=(degree, degree + 1))


def constant_simplicial(complex_, top_level):
    """Constant simplicial object on a complex, all faces the identity:
    the alternating face sum of level n is the identity for even n and
    zero for odd n."""
    one = complex_.coefficients.field.one
    faces = {}
    for n in range(1, top_level + 1):
        m = faces[n] = ChainMap(complex_, complex_)
        face_sum = sum((-1) ** r for r in range(n + 1)) * one
        for entry in complex_.index.values():
            m.set_column(entry, [(entry[2], face_sum)])
    return SimplicialChainComplex(
        [complex_] * (top_level + 1), faces, exhausted=False
    )


def internal_key(Y, n, A, module, mono):
    """(internal degree, weight) of a level-n monomial of Y, the module
    (when given) at the basepoint: the sums over its slots."""
    bp = 0 if module is not None else None  # the basepoint's slot
    deg = wt = 0
    for s, p in enumerate(mono):
        X = module if s == bp else A
        deg += X.degrees[p]
        wt += X.weights[p]
    return deg, wt


def koszul_algebra(coefficients):
    """(k[x]/x² ⊗ Λ(e), de = x): acyclic in positive weights, quasi-
    isomorphic to Λ(z) with z = [xe]; exercises the nonzero-differential
    code paths end to end."""
    one = coefficients.field.one
    basis = [("1", 0, 0), ("x", 0, 1), ("e", -1, 1), ("xe", -1, 2)]
    mult = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one},
        (0, 3): {3: one},
        (1, 0): {1: one}, (2, 0): {2: one}, (3, 0): {3: one},
        (1, 1): {}, (1, 2): {3: one}, (2, 1): {3: one},
        (1, 3): {}, (3, 1): {}, (2, 2): {}, (2, 3): {}, (3, 2): {},
        (3, 3): {},
    }
    return dga.DGAlgebra(
        "koszul", coefficients, basis, mult, unit=0, diff={2: {1: one}},
        commutative=True, augmentation={0: one}, weight_graded=True,
    )


def short_words(coefficients):
    """k<x, y> modulo the words of length >= 3, |x| = |y| = 0: a non-
    commutative algebra with weight the word length."""
    words = ["", "x", "y", "xx", "xy", "yx", "yy"]
    one = coefficients.field.one
    mult = {
        (i, j): {words.index(u + v): one} if len(u + v) < 3 else {}
        for i, u in enumerate(words) for j, v in enumerate(words)
    }
    return dga.DGAlgebra(
        "k<x,y>/(len>=3)", coefficients,
        [(w or "1", 0, len(w)) for w in words], mult, unit=0,
        commutative=False, augmentation={0: one}, weight_graded=True,
    )


def count_compiles(monkeypatch, module):
    """The setmaps compiled into programs through ``module``'s binding of
    ``compile_setmap``, a list that grows as they are compiled."""
    compiled = []

    def counting(A, setmap, *args, **kwargs):
        compiled.append(setmap)
        return dga.compile_setmap(A, setmap, *args, **kwargs)

    monkeypatch.setattr(module, "compile_setmap", counting)
    return compiled


def count_runs(monkeypatch, module):
    """The monomials pushed through programs compiled through ``module``'s
    binding of ``compile_setmap``, a list that grows as the programs run."""
    pushed = []

    def compiling(*args, **kwargs):
        push = dga.compile_setmap(*args, **kwargs)

        def counting(monomial):
            pushed.append(monomial)
            return push(monomial)

        counting.memo = push.memo  # whole monomials, or supports when None
        return counting

    monkeypatch.setattr(module, "compile_setmap", compiling)
    return pushed


# -- set maps, complexes, subquotients --------------------------------------


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
    push = dga._on_monomials(
        dga.compile_setmap(A, tuple(setmap), n_target), n_target)
    for col, mono in enumerate(src):
        for m, c in push(mono).items():
            mat.add_to(tpos[m], col, f.coerce(c))
    return mat, src, tgt


def zero_complex(coefficients):
    return ChainComplex(coefficients).freeze()


def field_complex(coefficients, degree=0, label="k"):
    c = ChainComplex(coefficients)
    c.add_element(label, degree, 0)
    return c.freeze(support=(degree, degree))


def _clamp(x):
    return max(NEG_INF, min(POS_INF, x))


def _pair_window(w1, s1, w2, s2):
    """Certified window of a degreewise sum over pairs d1 + d2 = m.

    Degree m is certified when every pair inside the supports lies inside
    both certified windows.
    """
    (lo1, hi1), (s1lo, s1hi) = w1, s1
    (lo2, hi2), (s2lo, s2hi) = w2, s2
    need_lo = []
    if s1lo < lo1:
        need_lo.append(_clamp(lo1 + s2hi))
    if s2lo < lo2:
        need_lo.append(_clamp(lo2 + s1hi))
    need_hi = []
    if s1hi > hi1:
        need_hi.append(_clamp(hi1 + s2lo))
    if s2hi > hi2:
        need_hi.append(_clamp(hi2 + s1lo))
    return (max(need_lo, default=NEG_INF), min(need_hi, default=POS_INF))


def tensor(c1, c2):
    """Tensor product over k with the Koszul sign d⊗1 + (-1)^{|c|} 1⊗d."""
    if c1.coefficients != c2.coefficients:
        raise ValueError("coefficient mismatch")
    f = c1.coefficients.field
    out = ChainComplex(c1.coefficients)
    for (d1, w1), b1 in sorted(c1.blocks.items()):
        for (d2, w2), b2 in sorted(c2.blocks.items()):
            for x in b1:
                for y in b2:
                    out.add_element(("t", x, y), d1 + d2, w1 + w2)
    for x, x2, v in _entries(c1):  # d⊗1
        for y in c2.index:
            out.set_differential_entry(("t", x, y), ("t", x2, y), v)
    for y, y2, v in _entries(c2):  # (-1)^{|x|} 1⊗d
        for x, (d1, _w, _p) in c1.index.items():
            out.set_differential_entry(
                ("t", x, y), ("t", x, y2), f.neg(v) if d1 % 2 else v
            )
    window = _pair_window(c1.window, c1.support, c2.window, c2.support)
    support = (
        _clamp(c1.support[0] + c2.support[0]),
        _clamp(c1.support[1] + c2.support[1]),
    )
    return out.freeze(window=window, support=support)


def hom_complex(c1, c2):
    """Hom(C, D): degree n part is maps C -> D raising degree by n.

    Weights of the output are collapsed to 0 (hom of weight-graded spaces
    is graded by weight differences, which may be negative).
    """
    if c1.coefficients != c2.coefficients:
        raise ValueError("coefficient mismatch")
    f = c1.coefficients.field
    out = ChainComplex(c1.coefficients)
    for (d1, w1), b1 in sorted(c1.blocks.items()):
        for (d2, w2), b2 in sorted(c2.blocks.items()):
            for x in b1:
                for y in b2:
                    out.add_element(("h", x, y), d2 - d1, 0)
    # delta(phi) = d_D ∘ phi - (-1)^{|phi|} phi ∘ d_C
    for y, y2, v in _entries(c2):
        for x in c1.index:
            out.set_differential_entry(("h", x, y), ("h", x, y2), v)
    # phi = (x^ ⊗ y) picks up (x2^ ⊗ y) for each x2 with d(x2) hitting x
    for x2, x, v in _entries(c1):
        d1 = c1.index[x][0]
        for y, (d2, _w, _p) in c2.index.items():
            out.set_differential_entry(
                ("h", x, y), ("h", x2, y), v if (d2 - d1) % 2 else f.neg(v)
            )
    # degree n draws on pairs d2 - d1 = n within the supports: same rule as
    # tensor with the C-side degrees negated.
    refl_window = (_clamp(-c1.window[1]), _clamp(-c1.window[0]))
    refl_support = (_clamp(-c1.support[1]), _clamp(-c1.support[0]))
    window = _pair_window(refl_window, refl_support, c2.window, c2.support)
    support = (
        _clamp(c2.support[0] - c1.support[1]),
        _clamp(c2.support[1] - c1.support[0]),
    )
    return out.freeze(window=window, support=support)


def dual(c):
    """Hom(C, k)."""
    return hom_complex(c, field_complex(c.coefficients))


def euler_per_weight(complex_):
    """Alternating sum of chain dimensions per weight (full support)."""
    out = {}
    for (d, w), block in complex_.blocks.items():
        out[w] = out.get(w, 0) + (-1) ** (d % 2) * len(block)
    return out


def class_residue(space, vec):
    """Canonical residue of a cycle modulo boundaries (0 iff trivial)."""
    if not space.is_cycle(vec):
        raise ValueError("not a cycle")
    return space._residue(vec)


# -- simplicial sets: validators, normal forms, JSON ------------------------


def validate(Y):
    """Exhaustively check all simplicial identities up to the top level.

    Returns (True, None) or (False, witness) with the violated identity.
    """
    N = Y.top_level
    for n in range(2, N + 1):
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                for x in range(Y.card(n)):
                    left = Y.face(n - 1, i, Y.face(n, j, x))
                    right = Y.face(n - 1, j - 1, Y.face(n, i, x))
                    if left != right:
                        return False, ("d_i d_j", n, i, j, x)
    for n in range(0, N - 1):
        for i in range(n + 1):
            for j in range(i, n + 1):
                for x in range(Y.card(n)):
                    left = Y.degeneracy(n + 1, i, Y.degeneracy(n, j, x))
                    right = Y.degeneracy(n + 1, j + 1, Y.degeneracy(n, i, x))
                    if left != right:
                        return False, ("s_i s_j", n, i, j, x)
    for n in range(1, N):
        for x in range(Y.card(n)):
            for j in range(n + 1):
                sx = Y.degeneracy(n, j, x)
                for i in range(n + 2):
                    got = Y.face(n + 1, i, sx)
                    if i == j or i == j + 1:
                        want = x
                    elif i < j:
                        want = Y.degeneracy(n - 1, j - 1, Y.face(n, i, x))
                    else:
                        want = Y.degeneracy(n - 1, j, Y.face(n, i - 1, x))
                    if got != want:
                        return False, ("d_i s_j", n, i, j, x)
    if Y.pointed:
        for n in range(1, N + 1):
            for i in range(n + 1):
                if Y.face(n, i, 0) != 0:
                    return False, ("basepoint face", n, i)
        for n in range(0, N):
            for i in range(n + 1):
                if Y.degeneracy(n, i, 0) != 0:
                    return False, ("basepoint degeneracy", n, i)
    return True, None


def nondegenerate(Y):
    """Eilenberg-Zilber table: per level the nondegenerate elements and,
    for each degenerate one, its unique normal form (level, elt, surj),
    the surjection being the composite degeneracy operator."""
    N = Y.top_level
    nondeg = [set(range(Y.card(0)))]
    normal = [{x: (0, x, (0,)) for x in range(Y.card(0))}]
    for n in range(1, N + 1):
        degenerate = {}
        for i in range(n):
            for y in range(Y.card(n - 1)):
                x = Y.degeneracy(n - 1, i, y)
                ly, ey, surj = normal[n - 1][y]
                comp = tuple(
                    surj[t] if t <= i else surj[t - 1] for t in range(n + 1)
                )
                form = (ly, ey, comp)
                if x in degenerate and degenerate[x] != form:
                    raise ValueError(
                        f"normal form not unique at level {n}, elt {x}"
                    )
                degenerate[x] = form
        nd = set(range(Y.card(n))) - set(degenerate)
        normal.append(
            {
                **{x: (n, x, tuple(range(n + 1))) for x in nd},
                **degenerate,
            }
        )
        nondeg.append(nd)
    return NondegeneracyTable(nondeg, normal)


class NondegeneracyTable:
    def __init__(self, nondeg, normal):
        self.nondeg = nondeg  # list of sets of positions per level
        self.normal = normal  # list of dicts pos -> (level, pos, ops)

    def counts(self):
        return [len(s) for s in self.nondeg]


def to_json(Y):
    return json.dumps(
        {
            "name": Y.name,
            "levels": [list(map(str, lvl)) for lvl in Y.levels],
            "faces": Y.face_tab,
            "degeneracies": Y.deg_tab,
            "pointed": Y.pointed,
        },
        sort_keys=True,
    )

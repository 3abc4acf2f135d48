"""Shared helpers for the test-suite (kept out of the package)."""

from hoch import dga
from hoch.homalg import ChainComplex, ChainMap, SimplicialChainComplex

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

"""Algebra presentations, audits, modules, and the induced-map machinery."""

import gc
from fractions import Fraction
from itertools import compress, product as iproduct
from operator import ne
from random import Random

import pytest

from hoch import classical, cli, dga, simp
from hoch import hochschild as hh
from hoch import products as pr
from hoch.dga import AlgebraClassError
from hoch.homalg import Coefficients
from hoch.linalg import _acc
from tests_support import multiop


def test_exterior_relations(QQ, exterior):
    x = 1
    assert exterior.dim == 2
    assert exterior.product(x, x) == {}
    assert exterior.degrees[x] == -1 and exterior.weights[x] == 1
    with pytest.raises(ValueError):
        dga.exterior(QQ, generator_degree=-2)


def test_truncated_polynomial(QQ, trunc2):
    assert trunc2.dim == 2
    assert trunc2.product(1, 1) == {}
    assert trunc2.eps(0) == QQ.field.one and trunc2.eps(1) == QQ.field.zero
    with pytest.raises(ValueError):
        dga.truncated_polynomial(QQ, 2, generator_degree=-1)


def test_polynomial_per_weight(QQ):
    P = dga.polynomial(QQ, max_weight=5)
    for w in range(6):
        assert sum(1 for i in range(P.dim) if P.weights[i] == w) == 1
    with pytest.raises(AlgebraClassError):
        P.product(3, 4)  # exceeds the materialized weight


def test_unsupported_class_rejected(QQ):
    one = QQ.field.one
    with pytest.raises(AlgebraClassError):
        dga.DGAlgebra(
            "bad", QQ,
            [("1", 0, 0), ("y", 0, 0)],  # degree-0 ideal, not weight-graded
            {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one},
             (1, 1): {}},
            unit=0,
        )


def test_audit_catches_broken_unit_and_commutativity(QQ):
    one = QQ.field.one
    two = QQ.field.coerce(2)
    with pytest.raises(ValueError, match="unit"):
        dga.DGAlgebra(
            "broken-unit", QQ,
            [("1", 0, 0), ("x", 0, 1), ("x2", 0, 2)],
            {
                (0, 0): {0: one}, (0, 1): {1: two}, (0, 2): {2: one},
                (1, 0): {1: one}, (2, 0): {2: one},
                (1, 1): {2: one},
                (1, 2): {}, (2, 1): {}, (2, 2): {},
            },
            unit=0,
            weight_graded=True,
        )
    # a genuinely non-associative table: x2 absorbs differently
    with pytest.raises(ValueError, match="associativity"):
        dga.DGAlgebra(
            "broken-assoc", QQ,
            [("1", 0, 0), ("x", 0, 1), ("x2", 0, 2), ("x3", 0, 3)],
            {
                (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one},
                (0, 3): {3: one},
                (1, 0): {1: one}, (2, 0): {2: one}, (3, 0): {3: one},
                (1, 1): {2: one},
                (1, 2): {3: two}, (2, 1): {3: one},  # x(xx) != (xx)x
                (1, 3): {}, (3, 1): {}, (2, 2): {}, (2, 3): {},
                (3, 2): {}, (3, 3): {},
            },
            unit=0,
            commutative=False,
            weight_graded=True,
        )


def test_opposite_involution_and_commutative_fixed(QQ, exterior, trunc2):
    assert classical.opposite(trunc2).mult == trunc2.mult
    twice = classical.opposite(classical.opposite(exterior))
    assert twice.mult == exterior.mult


def test_tensor_algebra_audited(QQ, trunc2, exterior):
    E = classical.tensor_algebra(trunc2, classical.opposite(trunc2))
    assert E.dim == 4 and E.weight_graded
    EL = classical.tensor_algebra(exterior, classical.opposite(exterior))
    assert EL.dim == 4  # audit ran at construction (Koszul signs included)


def test_tensor_algebra_keeps_the_pairs_within_its_bound(exterior):
    # exterior ⊗ k[x] through weight 4 drops x ⊗ x^4 (weight 5), so its
    # own unit audit never multiplies past the bound it passes on
    E = classical.tensor_algebra(exterior, dga.polynomial(max_weight=4))
    assert E.dim == 9 and E.max_weight == 4
    assert max(E.weights) == 4
    assert E.product(E.position["x", "1"], E.position["1", "x^3"]) == {
        E.position["x", "x^3"]: 1
    }


def test_augmentation_module(QQ, exterior):
    k = classical.augmentation_module(exterior)
    assert k.dim == 1
    assert k.act_left(1, 0) == {}  # x acts by zero
    P = dga.polynomial(QQ, 3)
    assert classical.augmentation_module(P).dim == 1
    no_aug = dga.DGAlgebra(
        "noaug", QQ,
        [("1", 0, 0), ("x", 0, 1)],
        {(0, 0): {0: QQ.field.one}, (0, 1): {1: QQ.field.one},
         (1, 0): {1: QQ.field.one}, (1, 1): {}},
        unit=0,
        weight_graded=True,
    )
    with pytest.raises(ValueError):
        classical.augmentation_module(no_aug)


def test_twisted_bimodule(QQ, trunc2):
    one = QQ.field.one
    sig = classical.AlgebraAutomorphism(
        trunc2, {0: {0: one}, 1: {1: QQ.field.coerce(-1)}}
    )
    tw = classical.twisted_bimodule(trunc2, sig)
    # right action routes through sigma: x^1 . x = -x^2 = 0; 1 . x = -x
    assert tw.act_right(0, 1) == {1: QQ.field.coerce(-1)}
    ident = classical.AlgebraAutomorphism(trunc2, {0: {0: one}, 1: {1: one}})
    tw_id = classical.twisted_bimodule(trunc2, ident)
    plain = dga.algebra_as_bimodule(trunc2)
    for a in range(2):
        for m in range(2):
            assert tw_id.act_left(a, m) == plain.act_left(a, m)
            assert tw_id.act_right(m, a) == plain.act_right(m, a)


def test_non_multiplicative_automorphism_rejected(QQ, trunc3):
    one = QQ.field.one
    images = {0: {0: one}, 1: {1: QQ.field.coerce(-1)}, 2: {2: one}}
    # sigma(x)^2 = x^2 but sigma(x^2) = x^2: fine; corrupt it instead
    images[2] = {2: QQ.field.coerce(-1)}
    with pytest.raises(ValueError, match="multiplicative"):
        classical.AlgebraAutomorphism(trunc3, images)


def test_multiop_identity_and_collapse(QQ, exterior):
    M, src, tgt = multiop(exterior, (0, 1), 2, 2)
    assert M.nnz() == len(src)
    assert all(M.get(i, i) == QQ.field.one for i in range(len(src)))
    M2, src2, _ = multiop(exterior, (0, 0), 2, 1)
    assert M2.column(src2.index((1, 1))) == {}  # x⊗x ↦ x² = 0
    M3, src3, tgt3 = multiop(exterior, (), 0, 1)
    # empty preimage yields the unit
    assert M3.column(0) == {tgt3.index((0,)): QQ.field.one}


def compose_setmaps(f, g):
    return tuple(g[t] for t in f)


def test_multiop_functoriality_exhaustive(QQ, exterior):
    """(g∘f)_* = g_* ∘ f_* over Λ(x), with odd-degree Koszul signs."""
    cases = 0
    shapes = [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2), (1, 2, 2),
              (2, 3, 2), (3, 3, 1), (2, 2, 3), (3, 2, 3), (4, 2, 2),
              (2, 3, 3), (1, 3, 3)]
    for ns, nm, nt in shapes:
        for f in iproduct(range(nm), repeat=ns):
            for g in iproduct(range(nt), repeat=nm):
                Mf, _, _ = multiop(exterior, f, ns, nm)
                Mg, _, _ = multiop(exterior, g, nm, nt)
                Mgf, _, _ = multiop(
                    exterior, compose_setmaps(f, g), ns, nt
                )
                assert Mg.compose(Mf).cols == Mgf.cols, (f, g)
                cases += 1
    assert cases >= 500


def test_apply_setmap_module_slot(QQ, trunc2):
    m = dga.algebra_as_bimodule(trunc2)
    # merge an algebra slot into the module slot: x . x^m
    out = dga.apply_setmap(trunc2, (0, 0), (1, 1), module=m)
    assert out == {}  # x·x = 0 in the module
    out2 = dga.apply_setmap(trunc2, (0, 0), (0, 1), module=m)
    assert out2 == {(1,): QQ.field.one}


@pytest.mark.parametrize("setmap", [
    (1, 0),  # the module slot moves
    (1, 1, 0),  # it merges into another slot
    (1, 0, 0),  # it moves, and other slots merge at target 0
    (),  # a module with no slot to sit in
])
def test_a_map_that_moves_the_module_slot_is_refused(trunc2, setmap):
    """Module coefficients sit at the basepoint, slot 0, and only pointed
    maps act on them: a slot map that does not keep slot 0 in place is
    refused when it is compiled, whatever the monomial."""
    m = dga.algebra_as_bimodule(trunc2)
    with pytest.raises(ValueError, match="keep the module slot 0"):
        dga.compile_setmap(trunc2, setmap, module=m)
    with pytest.raises(ValueError, match="keep the module slot 0"):
        dga.apply_setmap(trunc2, setmap, (0,) * len(setmap), m)


def test_koszul_sign():
    # swapping two odd factors flips the sign
    assert dga.koszul_sign([((1, 0), -1), ((0, 1), -1)]) == -1
    assert dga.koszul_sign([((0, 0), -1), ((1, 1), -1)]) == 1
    assert dga.koszul_sign([((1, 0), -2), ((0, 1), -1)]) == 1


def test_enveloping_modules_axioms(QQ, exterior, trunc2):
    from hoch.classical import enveloping_modules

    for A in (exterior, trunc2):
        mod_r, E, mod_l = enveloping_modules(A)
        assert E.dim == A.dim * A.dim
        # unit of the envelope acts as identity on both sides
        f = QQ.field
        for m in range(A.dim):
            assert mod_r.act_right(m, E.unit) == {m: f.one}
            assert mod_l.act_left(E.unit, m) == {m: f.one}


def test_one_sided_modules_are_audited(QQ, trunc3):
    # a right module has no left table, a left module no right table; the
    # audit checks the action each one has: x acting by 2 and x^2 by 3 is
    # not an action
    A = trunc3
    basis = list(zip(A.labels, A.degrees, A.weights))
    right = dga.DGModule("A right", A, basis, left=None, right=A.mult,
                         symmetric=False)
    assert right.act_right(1, 1) == {2: QQ.field.one}
    with pytest.raises(ValueError, match="no left action"):
        right.act_left(1, 1)
    bad = {
        (m, a): {k: c * (A.weights[a] + 1) for k, c in out.items()}
        for (m, a), out in A.mult.items()
    }
    with pytest.raises(ValueError, match="right module axiom"):
        dga.DGModule("bad right", A, basis, left=None, right=bad,
                     symmetric=False)
    with pytest.raises(ValueError, match="left module axiom"):
        dga.DGModule("bad left", A, basis,
                     left={(a, m): out for (m, a), out in bad.items()},
                     symmetric=False)


from hypothesis import given, settings, strategies as st


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
    st.data(),
)
def test_multiop_functoriality_hypothesis(QQ, ns, nm, nt, data):
    A = dga.exterior(QQ)
    fmap = tuple(
        data.draw(st.integers(0, nm - 1)) for _ in range(ns)
    )
    gmap = tuple(
        data.draw(st.integers(0, nt - 1)) for _ in range(nm)
    )
    Mf, _, _ = multiop(A, fmap, ns, nm)
    Mg, _, _ = multiop(A, gmap, nm, nt)
    comp = tuple(gmap[t] for t in fmap)
    Mgf, _, _ = multiop(A, comp, ns, nt)
    assert Mg.compose(Mf).cols == Mgf.cols


# -- apply_setmap against the generic fold ----------------------------------


def _reference_apply_setmap(A, setmap, monomial, module=None):
    """The generic fold on a pointed map (the module, when given, in slot
    0, which the map keeps in place): every source slot is walked, the
    Koszul sign is taken over all non-unit factors, every fold step is
    multiplied in the field and the output tuple is rebuilt slot by slot."""
    f = A.coefficients.field
    module_src = 0 if module is not None else None
    n_targets = 1 + max(setmap) if setmap else 0
    factors = []  # (source_slot, degree, kind, basis_pos)
    for s, t in enumerate(setmap):
        if s == module_src:
            factors.append((s, module.degrees[monomial[s]], "m", monomial[s]))
        elif monomial[s] != A.unit:
            factors.append((s, A.degrees[monomial[s]], "a", monomial[s]))
    sign = dga.koszul_sign([((setmap[s], s), d) for (s, d, _, _) in factors])
    groups = {}
    for (s, d, kind, p) in factors:
        groups.setdefault(setmap[s], []).append((kind, p))
    results = [(f.coerce(sign), {})]  # (coeff, {target_slot: (kind, pos)})
    for t, group in sorted(groups.items()):
        expanded = [(f.one, None)]
        for kind, p in group:
            new = []
            for c, cur in expanded:
                if cur is None:
                    new.append((c, (kind, p)))
                    continue
                ckind, cpos = cur
                if ckind == "a" and kind == "a":
                    terms, okind = A.product(cpos, p), "a"
                elif ckind == "m" and kind == "a":
                    terms, okind = module.act_right(cpos, p), "m"
                elif ckind == "a" and kind == "m":
                    terms, okind = module.act_left(cpos, p), "m"
                else:
                    raise ValueError("two module factors merged")
                for k, e in terms.items():
                    new.append((f.mul(c, e), (okind, k)))
            expanded = new
        out = []
        for rc, rmono in results:
            for c, cur in expanded:
                mono = dict(rmono)
                mono[t] = cur
                out.append((f.mul(rc, c), mono))
        results = out
    final = {}
    for c, mono in results:
        if not f.is_zero(c):
            tgt = tuple(mono.get(t, ("a", A.unit))[1] for t in range(n_targets))
            _acc(final, tgt, c, f)
    return final


def _outcome(fn, *args):
    """What a call gives, in a form that also compares insertion order and
    value types (Fraction(1) == 1, so equality alone would miss them)."""
    try:
        out = fn(*args)
    except ValueError as exc:  # AlgebraClassError is a ValueError
        return type(exc), str(exc)
    return list(out.items()), [type(v) for v in out.values()]


def _two_term_algebra(coefficients):
    """a in weight 1, c and d in weight 2, e in weight 3, with
    a·a = c + d, a·c = c·a = e and a·d = d·a = -e: folds branch, and
    a·a·a = e - e cancels between two branches."""
    f = coefficients.field
    one = f.one
    basis = [("1", 0, 0), ("a", 0, 1), ("c", 0, 2), ("d", 0, 2), ("e", 0, 3)]
    mult = {(0, i): {i: one} for i in range(5)}
    mult.update({(i, 0): {i: one} for i in range(5)})
    mult[1, 1] = {2: one, 3: one}
    mult[1, 2] = mult[2, 1] = {4: one}
    mult[1, 3] = mult[3, 1] = {4: f.coerce(-1)}
    return dga.DGAlgebra("two-term", coefficients, basis, mult, unit=0,
                         augmentation={0: one}, weight_graded=True)


def _reversed(A):
    """A with its basis listed backwards, so that the unit is not at 0."""
    r = A.dim - 1
    return dga.DGAlgebra(
        f"{A.name} reversed", A.coefficients, A.basis[::-1],
        {(r - i, r - j): {r - k: c for k, c in out.items()}
         for (i, j), out in A.mult.items()},
        unit=r - A.unit,
        augmentation={r - i: c for i, c in A.augmentation.items()},
        weight_graded=True,
    )


def _oracle_algebras(coefficients):
    ext = dga.exterior(coefficients)
    trunc3 = dga.truncated_polynomial(coefficients, 3)
    return [
        ext,
        trunc3,
        dga.polynomial(coefficients, max_weight=3),
        classical.tensor_algebra(ext, dga.truncated_polynomial(coefficients, 2)),
        _two_term_algebra(coefficients),
        _reversed(trunc3),
    ]


def _oracle_modules(A):
    """No module, k through the augmentation, A itself, and A with the
    right action twisted by x -> 2^weight(x) x, so that the right action
    is not the left one read backwards."""
    f = A.coefficients.field
    scale = classical.AlgebraAutomorphism(
        A, {p: {p: f.coerce(2 ** A.weights[p])} for p in range(A.dim)}
    )
    return [
        None,
        classical.augmentation_module(A),
        dga.algebra_as_bimodule(A),
        classical.twisted_bimodule(A, scale),
    ]


ORACLE_FIELDS = {"Q": Coefficients(), "F5": Coefficients("prime-field", 5)}
ORACLE_CASES = {  # field -> [(algebra, modules)]
    name: [(A, _oracle_modules(A)) for A in _oracle_algebras(c)]
    for name, c in ORACLE_FIELDS.items()
}


def _calls(A, module, setmap):
    """Every monomial on the slots of ``setmap``, with the module (when
    given) in slot 0 if the setmap keeps it in place."""
    k = len(setmap)
    if module is None:
        for mono in iproduct(range(A.dim), repeat=k):
            yield A, setmap, mono, None
        return
    if not k or setmap[0] != 0:
        return
    ranges = [range(module.dim)] + [range(A.dim)] * (k - 1)
    for mono in iproduct(*ranges):
        yield A, setmap, mono, module


@pytest.mark.parametrize("field", sorted(ORACLE_FIELDS))
def test_apply_setmap_matches_reference_exhaustive(field):
    """Every setmap {0..k-1} -> {0..m-1} for k, m <= 3, every monomial."""
    seen = set()
    calls = 0
    for A, modules in ORACLE_CASES[field]:
        for module in modules:
            for k in range(4):
                for m in range(1, 4):
                    for setmap in iproduct(range(m), repeat=k):
                        for args in _calls(A, module, setmap):
                            got = _outcome(dga.apply_setmap, *args)
                            want = _outcome(_reference_apply_setmap, *args)
                            assert got == want, args
                            if isinstance(got[1], str):
                                seen.add(got[1])
                            calls += 1
    assert calls > 10000
    # the past-the-weight error was met
    assert "k[x]: product exceeds materialized weight 3" in seen


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_apply_setmap_matches_reference_hypothesis(data):
    field = data.draw(st.sampled_from(sorted(ORACLE_FIELDS)))
    A, modules = data.draw(st.sampled_from(ORACLE_CASES[field]))
    module = data.draw(st.sampled_from(modules))
    k = data.draw(st.integers(0, 6))
    m = data.draw(st.integers(1, 6))
    setmap = tuple(data.draw(st.integers(0, m - 1)) for _ in range(k))
    # the module sits in slot 0, if the setmap keeps it in place
    if not k or setmap[0] != 0:
        module = None
    mono = tuple(
        data.draw(st.integers(
            0, (module if module is not None and not s else A).dim - 1
        ))
        for s in range(k)
    )
    args = (A, setmap, mono, module)
    assert _outcome(dga.apply_setmap, *args) == _outcome(
        _reference_apply_setmap, *args
    )


def test_zero_fold_leaves_a_later_error_standing():
    """Every fold runs to its end, so a zero at one target leaves an error
    at a later one standing: here target 0 is zero (x acts as 0 on k), and
    target 1 then multiplies past the materialized weight.  An error at
    the module's target 0 stands as well when target 1 is zero (x·x = 0):
    a module with no right action cannot take the algebra factor merged
    into slot 0.  That is a memo program, which keeps no outcome for a
    fold that raises, so it raises again on the next run."""
    F5 = Coefficients("prime-field", 5)
    A = dga.polynomial(F5, max_weight=3)
    with pytest.raises(AlgebraClassError,
                       match="product exceeds materialized weight 3"):
        dga.apply_setmap(A, (0, 0, 1, 1), (0, 1, 2, 2),
                         classical.augmentation_module(A))
    T = dga.truncated_polynomial(Coefficients(), 2)
    _right, E, left_only = classical.enveloping_modules(T)
    x = E.labels.index(("1", "x^1"))  # x·x = 0 in the envelope
    # slot 1 acts on the module in slot 0 from the right
    args = (E, (0, 0, 1, 1), (0, x, x, x), left_only)
    error = (ValueError, "k[x]/x^2 (left over envelope): no right action")
    assert _outcome(dga.apply_setmap, *args) == _outcome(
        _reference_apply_setmap, *args
    ) == error
    push = dga.compile_setmap(E, (0, 0, 1, 1), 2, left_only)
    assert push.memo is not None
    for _ in range(2):
        assert _outcome(push, (0, x, x, x)) == error
    assert push.memo == {}


def _unreduced_algebra():
    """Structure constants given unreduced over F_3: x·x = 3z ≡ 0,
    x·y = y·x = 4z ≡ z, y·y = -z ≡ 2z; declared non-commutative, since
    the audit's commutativity check compares them with reduced values."""
    F3 = Coefficients("prime-field", 3)
    basis = [("1", 0, 0), ("x", 0, 1), ("y", 0, 1), ("z", 0, 2)]
    mult = {(0, i): {i: 1} for i in range(4)}
    mult.update({(i, 0): {i: 1} for i in range(4)})
    mult.update({(1, 1): {3: 3}, (1, 2): {3: 4}, (2, 1): {3: 4},
                 (2, 2): {3: -1}})
    return dga.DGAlgebra("unreduced", F3, basis, mult, unit=0,
                         commutative=False, augmentation={0: 1},
                         weight_graded=True)


def test_apply_setmap_fp_drops_terms_zero_after_reduction():
    A = _unreduced_algebra()
    assert dga.apply_setmap(A, (0, 0), (1, 1)) == {}
    assert dga.apply_setmap(A, (0, 1, 0), (1, 2, 1)) == {}
    assert dga.apply_setmap(A, (0, 0), (1, 2)) == {(3,): 1}
    assert dga.apply_setmap(A, (1, 1), (2, 2)) == {(0, 3): 2}
    for k in range(4):
        for m in range(1, 4):
            for setmap in iproduct(range(m), repeat=k):
                for args in _calls(A, None, setmap):
                    out = dga.apply_setmap(*args)
                    assert all(0 < v < 3 for v in out.values()), args
                    assert _outcome(dga.apply_setmap, *args) == _outcome(
                        _reference_apply_setmap, *args
                    )


# -- compiled programs on the faces and degeneracies of real spaces ----------


def _real_setmaps(Y):
    """(setmap, source level, target level) of every face and degeneracy
    of a materialized simplicial set."""
    for n in range(1, Y.top_level + 1):
        for setmap in Y.face_tab[n]:
            yield tuple(setmap), n, n - 1
    for n in range(Y.top_level):
        for setmap in Y.deg_tab[n]:
            yield tuple(setmap), n, n + 1


def _coerced(push, field):
    """A program's plain coefficients coerced into ``field``, as a builder
    coerces the sums of a column."""
    return lambda run: {
        image: field.coerce(c) for image, c in push(run).items()
    }


def test_programs_match_reference_on_real_faces():
    """The full-length image of a compiled face or degeneracy program,
    coerced into the field, is the generic fold padded with units, on
    random monomials, with the module (when given) at the basepoint."""
    spaces = [
        simp.circle(6), simp.torus(3), simp.sphere_small(2, 5),
        simp.sphere_small(3, 6), simp.wedge(simp.circle(4), simp.circle(4)),
        simp.interval(4),
    ]
    rng = Random(11)
    runs = signed = 0
    for field in (Coefficients(), Coefficients("prime-field", 7)):
        ext = dga.exterior(field)
        trunc2 = dga.truncated_polynomial(field, 2)
        for A in (ext, dga.truncated_polynomial(field, 3),
                  classical.tensor_algebra(ext, trunc2)):
            for module in (None, classical.augmentation_module(A),
                           dga.algebra_as_bimodule(A)):
                for Y in spaces:
                    for setmap, n, m in _real_setmaps(Y):
                        push = _coerced(dga.compile_setmap(
                            A, setmap, Y.card(m), module
                        ), field.field)
                        for _ in range(3):
                            mono = tuple(
                                rng.randrange(module.dim)
                                if module is not None and not s
                                else rng.choice((A.unit, rng.randrange(A.dim)))
                                for s in range(Y.card(n))
                            )
                            got = _outcome(push, mono)
                            want = _outcome(
                                lambda mono: {
                                    w + (A.unit,) * (Y.card(m) - len(w)): c
                                    for w, c in _reference_apply_setmap(
                                        A, setmap, mono, module
                                    ).items()
                                },
                                mono,
                            )
                            assert got == want, (Y.name, setmap, mono)
                            values = [c for _, c in got[0]]
                            if field.kind == "rational":
                                assert all(type(c) is Fraction for c in values)
                                signed += any(c < 0 for c in values)
                            else:
                                assert all(
                                    type(c) is int and 0 <= c < 7
                                    for c in values
                                )
                            runs += 1
    assert runs > 5000
    # exterior factors swapped by the circle's wrap face (and the other
    # non-monotone faces) took the Koszul sign
    assert signed


# -- memoized programs against the fold of every run --------------------------


def _reference_compile_setmap(A, setmap, n_targets=None, module=None):
    """The face program of a pointed map (the module, when given, in slot
    0) that folds every run anew: its
    coefficient starts at the Koszul sign, the representatives are
    gathered into a full image and the merging factors folded into it."""
    unit, k = A.unit, len(setmap)
    if n_targets is None:
        n_targets = 1 + max(setmap) if setmap else 0
    fibres = [[] for _ in range(n_targets)]
    for s, t in enumerate(setmap):
        fibres[t].append(s)
    msrc = tm = None
    if module is not None:
        msrc = tm = 0
    kinds = [(dga._constants(A, "product"), True)]
    if tm is not None:
        kinds += [
            (dga._constants(module, "act_left"), True),
            (dga._constants(module, "act_right"), False),
        ]
    plan = [
        (s, t, *kinds[0 if t != tm or s < msrc else 1 if s == msrc else 2])
        for t, fibre in enumerate(fibres) for s in fibre[1:]
    ]
    gather = dga._getter([fibre[0] if fibre else k for fibre in fibres])
    tail = () if all(fibres) else (unit,)
    degrees = [A.degrees] * k
    if tm is not None:
        degrees[msrc] = module.degrees
    keys = [(t, s) for s, t in enumerate(setmap)]
    signed = any(a > b for a, b in zip(setmap, setmap[1:])) and any(
        d % 2 for degs in degrees for d in degs
    )
    f = A.coefficients.field
    coerced = dga._Table(
        lambda c: None if f.is_zero(v := f.coerce(c)) else v
    )

    def run(monomial):
        coeff = dga.koszul_sign([
            (key, d) for key, degs, p in zip(keys, degrees, monomial)
            if (d := degs[p]) % 2
        ]) if signed else 1
        image = list(gather(monomial + tail))
        spread = {}
        for s, t, table, algebra in plan:
            p = monomial[s]
            if p == unit and s != msrc:
                continue
            terms = spread.get(t)
            if terms is not None:
                terms[:] = [
                    (c * e, q) for c, cur in terms for q, e in table[cur, p]
                ]
                continue
            cur = image[t]
            if algebra and cur == unit:
                image[t] = p
                continue
            prod = table[cur, p]
            if len(prod) == 1:
                (image[t], e), = prod
                coeff *= e
            else:
                spread[t] = [(e, q) for q, e in prod]
        if not spread:
            c = coerced[coeff]
            return {} if c is None else {tuple(image): c}
        out = {}
        for combo in iproduct(*spread.values()):
            c = coeff
            for t, (e, q) in zip(spread, combo):
                image[t] = q
                c *= e
            c = coerced[c]
            if c is not None:
                _acc(out, tuple(image), c, f)
        return out

    return run


def _program_cases():
    """(A, setmap, n_targets, module, sign, monomials): every face of
    three spaces over k[x]/x² and k[x]/x³ over Q, F_2 and F_3 with
    alternating face signs, and every setmap {0..k-1} -> {0..m-1}, k, m <=
    3, over Λ(x), the unreduced F_3 algebra, the two-term algebra and,
    with the module in slot 0 where the setmap keeps it in place, k[x]/x³
    and Λ(x) over k, over themselves and over themselves twisted on the
    right; on every monomial of each."""
    spaces = [simp.circle(4), simp.wedge(simp.circle(3), simp.circle(3)),
              simp.sphere_small(2, 4)]
    fields = [Coefficients(), Coefficients("prime-field", 2),
              Coefficients("prime-field", 3)]
    for field in fields:
        for N in (2, 3):
            A = dga.truncated_polynomial(field, N)
            for Y in spaces:
                for n in range(1, Y.top_level + 1):
                    monos = list(iproduct(range(A.dim), repeat=Y.card(n)))
                    for r, setmap in enumerate(Y.face_tab[n]):
                        yield (A, tuple(setmap), Y.card(n - 1), None,
                               -1 if r % 2 else 1, monos)
    trunc3 = dga.truncated_polynomial(Coefficients(), 3)
    ext = dga.exterior(Coefficients())
    small = [(A, None) for A in (
        ext, _unreduced_algebra(),
        _two_term_algebra(Coefficients("prime-field", 5)),
    )] + [(A, module) for A in (trunc3, ext)
          for module in _oracle_modules(A)[1:]]
    for A, module in small:
        for k in range(4):
            for m in range(1, 4):
                for i, setmap in enumerate(iproduct(range(m), repeat=k)):
                    monos = [mono for _, _, mono, _ in
                             _calls(A, module, setmap)]
                    if monos:
                        yield (A, setmap, m, module, -1 if i % 2 else 1,
                               monos)


def test_programs_match_the_reference_fold_on_every_monomial():
    """A program that keeps a memo gives, on every monomial, the image the
    fold of every run gives, with the sign multiplied in: the same terms
    in the same order, the same value types, the same errors."""
    seen, cases, runs, hits = set(), 0, 0, 0
    negative = vanished = False
    for A, setmap, n, module, sign, monos in _program_cases():
        f = A.coefficients.field
        program = dga.compile_setmap(A, setmap, n, module, sign)
        push = _coerced(program, f)
        ref = _reference_compile_setmap(A, setmap, n, module)

        def want(mono):
            return {w: c if sign > 0 else f.neg(c)
                    for w, c in ref(mono).items()}

        for mono in monos:
            got = _outcome(push, mono)
            assert got == _outcome(want, mono), (A.name, setmap, mono)
            if isinstance(got[1], str):
                seen.add(got[1])
            elif A.name == "exterior(-1)" and got[0]:
                negative |= got[0][0][1] * sign < 0
        assert program.memo is not None
        runs += len(monos)
        hits += len(monos) - len(program.memo)
        vanished |= A.name == "unreduced" and None in program.memo.values()
        cases += 1
    assert cases > 500 and runs > 50000 and hits > runs // 2
    assert negative and vanished


def _count_lookups(monkeypatch):
    """The structure-constant lookups of the programs compiled from now
    on, a list that grows as they run."""
    lookups = []
    constants = dga._constants

    class Counting(dga._Table):
        def __getitem__(self, key):
            lookups.append(key)
            return super().__getitem__(key)

    monkeypatch.setattr(
        dga, "_constants",
        lambda owner, method: Counting(constants(owner, method).fill),
    )
    return lookups


def test_a_repeated_merge_key_is_folded_once(monkeypatch, trunc3):
    """Slots 0 and 1 merge into target 0 and slot 2 is lone: the runs that
    share the merging factors (x, x) fold them once, as do the runs that
    share (x², x), whose product is zero."""
    lookups = _count_lookups(monkeypatch)
    push = dga.compile_setmap(trunc3, (0, 0, 1), 2)
    for lone in range(3):
        assert push((1, 1, lone)) == {(2, lone): 1}
        assert push((2, 1, lone)) == {}
    assert lookups == [(1, 1), (2, 1)]
    assert dict(push.memo) == {(1, 1): (((2,), 1),), (2, 1): None}


def test_a_program_over_a_materialized_algebra_keeps_no_memo(monkeypatch):
    """With k[x] materialized through weight 3 the program keeps no memo
    (such merge keys repeat little) and folds supports, so every run folds
    its merging factors: the same pair is looked up on every run, and a
    product past the weight raises each time."""
    lookups = _count_lookups(monkeypatch)
    push = dga.compile_setmap(dga.polynomial(max_weight=3), (0, 0, 1), 2)
    assert push.memo is None
    assert push(((0, 1), (1, 1))) == {((0, 2),): 1}
    for lone in (1, 2):
        assert push(((0, 1), (1, 1), (2, lone))) == {((0, 2), (1, lone)): 1}
    assert lookups == [(1, 1)] * 3
    for _ in range(2):
        with pytest.raises(AlgebraClassError):
            push(((0, 3), (1, 1)))


# -- support programs against the dense fold they replace --------------------


def _reference_dense_program(A, setmap, n_targets=None, module=None, sign=1):
    """The program of a pointed map (the module, when given, in slot 0)
    that folded whole monomials over a materialized algebra, before
    programs folded supports: it reads every merge step of the monomial,
    target by target, and gives images on every target slot."""
    unit, k = A.unit, len(setmap)
    if n_targets is None:
        n_targets = 1 + max(setmap) if setmap else 0
    fibres = [[] for _ in range(n_targets)]
    for s, t in enumerate(setmap):
        fibres[t].append(s)
    msrc = tm = None
    if module is not None:
        msrc = tm = 0
    merging = [t for t, fibre in enumerate(fibres) if len(fibre) > 1]
    steps = [(s, t) for t in merging for s in fibres[t][1:]]
    tail = () if all(fibres) else (unit,)
    first = dga._getter([fibre[0] if fibre else k for fibre in fibres])
    read_values = dga._getter([s for s, _ in steps])
    kinds = [(dga._constants(A, "product"), True)]
    if tm is not None:
        kinds += [
            (dga._constants(module, "act_left"), True),
            (dga._constants(module, "act_right"), False),
        ]
    plan = [
        (s, t, *kinds[0 if t != tm or s < msrc else 1 if s == msrc else 2])
        for s, t in steps
    ]
    units = tuple(None if s == msrc else unit for s, _ in steps)
    degrees = [A.degrees] * k
    if tm is not None:
        degrees[msrc] = module.degrees
    orders = [(t, s) for s, t in enumerate(setmap)]
    signed = any(a > b for a, b in zip(setmap, setmap[1:])) and any(
        d % 2 for degs in degrees for d in degs
    )
    f = A.coefficients.field
    coerced = dga._Table(
        lambda c: None if f.is_zero(v := f.coerce(c)) else v
    )

    def fold(monomial):
        merged = list(first(monomial + tail))
        coeff = 1
        spread = {}
        values = read_values(monomial)
        for s, j, table, algebra in compress(plan, map(ne, values, units)):
            p = monomial[s]
            terms = spread.get(j)
            if terms is not None:
                terms[:] = [
                    (c * e, q) for c, cur in terms for q, e in table[cur, p]
                ]
                continue
            cur = merged[j]
            if algebra and cur == unit:
                merged[j] = p
                continue
            prod = table[cur, p]
            if len(prod) == 1:
                (merged[j], e), = prod
                coeff *= e
            else:
                spread[j] = [(e, q) for q, e in prod]
        if not spread:
            return None if coerced[coeff] is None else (
                (tuple(merged), coeff),
            )
        out, nonzero = {}, False
        for combo in iproduct(*spread.values()):
            c = coeff
            for j, (e, q) in zip(spread, combo):
                merged[j] = q
                c *= e
            if coerced[c] is None:
                continue
            nonzero = True
            at = tuple(merged)
            c += out.get(at, 0)
            if coerced[c] is None:
                del out[at]
            else:
                out[at] = c
        return tuple(out.items()) if nonzero else None

    def run(monomial):
        outcome = fold(monomial)
        if outcome is None:
            return {}
        c = sign * dga.koszul_sign([
            (order, d) for order, degs, p in zip(orders, degrees, monomial)
            if (d := degs[p]) % 2
        ]) if signed else sign
        return {merged: coerced[c * e] for merged, e in outcome}

    return run


def _support_battery_algebras():
    """k[x] through weight 3 and Λ(x) ⊗ k[y] through weight 3 (odd
    factors), over Q and F_3."""
    for field in (Coefficients(), Coefficients("prime-field", 3)):
        yield dga.polynomial(field, max_weight=3)
        yield classical.tensor_algebra(
            dga.exterior(field), dga.polynomial(field, max_weight=3)
        )


def test_support_programs_match_the_dense_fold():
    """Every face and degeneracy of six spaces over a materialized algebra,
    without a module and with one at the basepoint, is a program that
    folds supports; on seeded monomials of up to four non-unit slots, some
    past the materialized weight, it gives the image of the dense fold
    with the same coefficients, signs and value types, term for term, or
    raises the same error."""
    spaces = [
        simp.circle(5), simp.torus(3), simp.sphere_small(2, 5),
        simp.sphere_small(3, 6), simp.sphere_standard(2, 4),
        simp.wedge(simp.circle(4), simp.circle(4)),
    ]
    rng = Random(18)
    seen, runs, negative = set(), 0, False
    for A in _support_battery_algebras():
        nonunit = A.nonunit()
        for module in (None, classical.augmentation_module(A),
                       dga.algebra_as_bimodule(A)):
            for Y in spaces:
                for i, (setmap, n, m) in enumerate(_real_setmaps(Y)):
                    sign = -1 if i % 2 else 1
                    program = dga.compile_setmap(A, setmap, Y.card(m),
                                                 module, sign)
                    push = _coerced(program, A.coefficients.field)
                    ref = _reference_dense_program(A, setmap, Y.card(m),
                                                   module, sign)
                    assert program.memo is None
                    # the module slot 0, kept in place and in the supports
                    keep = module is not None
                    free = range(keep, Y.card(n))
                    for _ in range(4):
                        mono = [A.unit] * Y.card(n)
                        size = min(len(free), rng.randint(0, 4))
                        for s in rng.sample(free, size):
                            mono[s] = rng.choice(nonunit)
                        if module is not None:
                            mono[0] = rng.randrange(module.dim)
                        mono = tuple(mono)
                        got = _outcome(push, dga._support(mono, A.unit, keep))
                        want = _outcome(lambda mono: {
                            dga._support(w, A.unit, keep): c
                            for w, c in ref(mono).items()
                        }, mono)
                        assert got == want, (A.name, Y.name, setmap, mono)
                        if isinstance(got[1], str):
                            seen.add(got[1])
                        else:
                            negative |= any(
                                c == A.coefficients.field.coerce(-sign)
                                for _, c in got[0]
                            ) and A.name.startswith("exterior")
                        runs += 1
    assert runs > 5000
    assert seen == {"k[x]: product exceeds materialized weight 3",
                    "exterior(-1)⊗k[x]: product exceeds materialized "
                    "weight 3"}
    # an odd factor moved past another one took the Koszul sign
    assert negative


def test_one_shot_callers_still_raise_past_the_materialized_weight():
    """``apply_setmap`` and ``shuffle_product`` run support programs over
    k[x] through weight 3 through their whole-monomial boundary, and a
    product past that weight still raises."""
    A = dga.polynomial(max_weight=3)
    assert dga.apply_setmap(A, (0, 0, 1), (1, 2, 0)) == {(3, 0): 1}
    with pytest.raises(AlgebraClassError, match="materialized weight 3"):
        dga.apply_setmap(A, (0, 0, 1), (2, 2, 0))
    H = hh.hochschild_chain(simp.circle(4), A, (-3, 0), weights=[1, 2, 3])
    one = A.coefficients.field.one
    x, x2 = {(0, (1,)): one}, {(0, (2,)): one}
    assert pr.shuffle_product(H, x, x2) == {(0, (3,)): one}
    with pytest.raises(AlgebraClassError, match="materialized weight 3"):
        pr.shuffle_product(H, x2, x2)


def test_a_job_leaves_no_hoch_object_to_the_cyclic_collector():
    """One job of the circle-trunc3 benchmark workload (homology of
    k[x]/x³ on the circle, window [-8, 0]) frees every hoch object it made
    by reference counting: its algebra, the structure-constant tables and
    the memos of its face programs form no reference cycle."""
    spec = cli.load_jobspec({
        "schema": 1, "task": "homology",
        "algebra": {"name": "truncated-polynomial", "truncation": 3},
        "space": {"name": "circle"}, "window": [-8, 0],
    })
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert cli.run_job(spec)["betti"]
        gc.collect()
        # instances of hoch classes and hoch functions alike
        left = [
            o for o in gc.garbage
            if str(getattr(o, "__module__", "")).startswith("hoch")
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []

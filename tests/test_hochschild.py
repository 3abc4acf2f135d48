"""Hochschild complexes, Bar constructions, oracles, HKR predictions."""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from hoch import classical, cli, dga, simp
from hoch import hochschild as hh
from hoch.homalg import NEG_INF, POS_INF, ChainComplex, Coefficients
from hoch.hochschild import TruncationError
from hoch.products import CochainComplexData
from tests_support import (
    count_compiles, count_runs, internal_key, koszul_algebra,
)


def scaling(A, c):
    f = A.coefficients.field
    return classical.AlgebraAutomorphism(
        A, {p: {p: f.coerce(Fraction(c) ** A.weights[p])} for p in range(A.dim)}
    )


# -- chains ------------------------------------------------------------------


def test_point_retract(exterior):
    C = hh.hochschild_chain(simp.point(8), exterior, window=(-6, 0))
    assert C.complex.check_differential()[0]
    assert C.betti((-6, 0)) == {0: 1, -1: 1, -2: 0, -3: 0, -4: 0, -5: 0, -6: 0}


def test_circle_equals_classical_and_periodic(QQ, trunc2):
    C = hh.hochschild_chain(simp.circle(8), trunc2, window=(-6, 0))
    expected = {0: 2, -1: 1, -2: 1, -3: 1, -4: 1, -5: 1, -6: 1}
    assert C.betti((-6, 0)) == expected
    textbook = classical.classical_hochschild(
        trunc2, dga.algebra_as_bimodule(trunc2), window=(-6, 0)
    )
    assert textbook.betti((-6, 0)) == expected
    assert hh.periodic_resolution_dims(2, 1, (-6, 0)) == expected


def test_circle_oracle_equivalence_multi(QQ, exterior, trunc2, trunc3):
    for A in (exterior, trunc2, trunc3):
        C = hh.hochschild_chain(simp.circle(7), A, window=(-5, 0))
        textbook = classical.classical_hochschild(
            A, dga.algebra_as_bimodule(A), window=(-5, 0)
        )
        assert C.betti((-5, 0)) == textbook.betti((-5, 0)), A.name


def test_bar_acyclicity(QQ, trunc3):
    m = dga.algebra_as_bimodule(trunc3)
    C = hh.hochschild_chain_with_coeff(
        simp.interval(8), trunc3, m, window=(-6, 0)
    )
    assert C.complex.check_differential()[0]
    assert C.betti((-6, 0)) == {0: 3, -1: 0, -2: 0, -3: 0, -4: 0, -5: 0, -6: 0}


def test_circle_with_self_coefficients_is_plain(QQ, trunc2):
    m = dga.algebra_as_bimodule(trunc2)
    with_m = hh.hochschild_chain_with_coeff(
        simp.circle(7), trunc2, m, window=(-5, 0)
    )
    plain = hh.hochschild_chain(simp.circle(7), trunc2, window=(-5, 0))
    assert with_m.betti((-5, 0)) == plain.betti((-5, 0))


def test_interval_with_coeff_matches_two_sided_bar(QQ, trunc2):
    m = dga.algebra_as_bimodule(trunc2)
    ch = hh.hochschild_chain_with_coeff(
        simp.interval(7), trunc2, m, window=(-5, 0)
    )
    bar = classical.two_sided_bar(m, trunc2, m, window=(-5, 0))
    assert ch.betti((-5, 0)) == bar.betti((-5, 0))


def test_unpointed_coefficients_rejected(QQ, trunc2):
    m = dga.algebra_as_bimodule(trunc2)
    X = simp.circle(5)
    unpointed = simp.SimplicialSet(
        "np", X.levels, X.face_tab, X.deg_tab, None
    )
    with pytest.raises(ValueError):
        hh.hochschild_chain_with_coeff(unpointed, trunc2, m, window=(-2, 0))


def test_under_materialized_space_rejected(QQ, trunc2):
    with pytest.raises(TruncationError):
        hh.hochschild_chain(simp.circle(3), trunc2, window=(-6, 0))


def test_sphere_hkr_polynomial(QQ):
    P = dga.polynomial(QQ, max_weight=3)
    C = hh.hochschild_chain(
        simp.sphere_small(2, 6), P, window=(-7, 0), weights=[1, 2, 3]
    )
    table = C.homology_dims((-7, 0), weights=[1, 2, 3])
    pred = hh.hkr_prediction("polynomial", ("sphere", 2), (-7, 0), [1, 2, 3])
    assert table == pred
    # the sphere homology table: A at degree 0, Kähler forms at degree -d
    assert table[(0, 1)] == 1 and table[(-2, 1)] == 1
    assert all(d in (0, -2, -4, -6) for (d, _w) in table)


def test_sphere_hkr_exterior_d123(QQ, exterior):
    for d in (1, 2, 3):
        win = (-4, 0)
        C = hh.hochschild_chain(simp.sphere_small(d, 5), exterior, window=win)
        pred = hh.hkr_prediction(
            {"free_generators": [(-1, 1)]}, ("sphere", d), win, None
        )
        agg = {}
        for (deg, _w), v in pred.items():
            if win[0] <= deg <= win[1]:
                agg[deg] = agg.get(deg, 0) + v
        betti = {d_: v for d_, v in C.betti(win).items() if v}
        assert betti == agg, d


def test_sphere_model_independence(exterior):
    std = hh.hochschild_chain(
        simp.sphere_standard(2, 5), exterior, window=(-4, 0)
    )
    small = hh.hochschild_chain(
        simp.sphere_small(2, 5), exterior, window=(-4, 0)
    )
    assert std.betti((-4, 0)) == small.betti((-4, 0))


def test_torus_and_surface_hkr(QQ):
    P = dga.polynomial(QQ, max_weight=2)
    C = hh.hochschild_chain(
        simp.torus(6), P, window=(-4, 0), weights=[0, 1, 2]
    )
    pred = hh.hkr_prediction("polynomial", ("surface", 1), (-4, 0), [0, 1, 2])
    assert C.homology_dims((-4, 0), weights=[0, 1, 2]) == pred
    S = hh.hochschild_chain(
        simp.surface(1, 4), P, window=(-3, 0), weights=[0, 1]
    )
    pred1 = hh.hkr_prediction("polynomial", ("surface", 1), (-3, 0), [0, 1])
    assert S.homology_dims((-3, 0), weights=[0, 1]) == pred1


def test_surface_space_homology(QQ):
    # sanity of the surface model itself: H_*(Σ_g; Q) via the trivial algebra
    for g in (1, 2):
        P = dga.polynomial(QQ, max_weight=1)
        S = hh.hochschild_chain(
            simp.surface(g, 3), P, window=(-2, 0), weights=[1]
        )
        table = S.homology_dims((-2, 0), weights=[1])
        # weight-1 part of CH is the simplicial chains of the space tensor x
        assert table == {
            (0, 1): 1, (-1, 1): 2 * g, (-2, 1): 1,
        }


# -- twisted -----------------------------------------------------------------


def test_twisted_hochschild_sign_flip(QQ, trunc2):
    mon = scaling(trunc2, -1)
    C = classical.twisted_hochschild(trunc2, mon, window=(-6, 0))
    assert C.check_differential()[0]
    oracle = hh.periodic_resolution_dims(2, -1, (-6, 0))
    assert C.betti((-6, 0)) == oracle
    assert oracle == {0: 1, -1: 1, -2: 1, -3: 1, -4: 1, -5: 1, -6: 1}


def test_twisted_identity_is_classical(QQ, trunc2):
    mon = scaling(trunc2, 1)
    C = classical.twisted_hochschild(trunc2, mon, window=(-6, 0))
    assert C.betti((-6, 0)) == hh.periodic_resolution_dims(2, 1, (-6, 0))


def test_twisted_trunc3_against_periodic(QQ, trunc3):
    mon = scaling(trunc3, -1)
    C = classical.twisted_hochschild(trunc3, mon, window=(-4, 0))
    assert C.betti((-4, 0)) == hh.periodic_resolution_dims(3, -1, (-4, 0))


def test_conjugate_automorphisms_equal_dims(QQ, trunc2):
    # x -> -x conjugated by x -> 2x is still x -> -x; more usefully,
    # scaling twists by c and 1/c give equal dims (conjugate via x -> cx)
    for c in (Fraction(2), Fraction(-2)):
        a = classical.twisted_hochschild(trunc2, scaling(trunc2, c), (-4, 0))
        b = classical.twisted_hochschild(trunc2, scaling(trunc2, 1 / c), (-4, 0))
        assert a.betti((-4, 0)) == b.betti((-4, 0))


# -- Bar and enveloping -------------------------------------------------------


def test_two_sided_bar_retract(QQ, trunc3):
    m = dga.algebra_as_bimodule(trunc3)
    B = classical.two_sided_bar(m, trunc3, m, window=(-6, 0))
    assert B.betti((-6, 0)) == {
        0: 3, -1: 0, -2: 0, -3: 0, -4: 0, -5: 0, -6: 0
    }


def test_bar_k_exterior_divided_powers(QQ, exterior):
    k = classical.augmentation_module(exterior)
    B = classical.two_sided_bar(k, exterior, k, window=(-6, 0))
    assert B.betti((-6, 0)) == {
        0: 1, -1: 0, -2: 1, -3: 0, -4: 1, -5: 0, -6: 1
    }


def test_hh_via_enveloping(QQ, exterior, trunc2):
    assert classical.hh_via_enveloping(
        dga.truncated_polynomial(QQ, 2), window=(-5, 0)
    ).betti((-5, 0)) == {0: 2, -1: 1, -2: 1, -3: 1, -4: 1, -5: 1}
    env = classical.hh_via_enveloping(exterior, window=(-5, 0))
    circ = hh.hochschild_chain(simp.circle(7), exterior, window=(-5, 0))
    assert env.betti((-5, 0)) == circ.betti((-5, 0))


def test_enveloping_refuses_a_per_weight_algebra(QQ):
    # the classical Bar path has no weight truncation: refuse up front
    # rather than multiply past the materialized bound
    A = dga.polynomial(QQ, max_weight=2)
    for build in (classical.enveloping_modules, classical.hh_via_enveloping):
        with pytest.raises(dga.AlgebraClassError,
                           match="materialized per weight"):
            build(A)


def test_enveloping_trivial_algebra(QQ):
    one = QQ.field.one
    k_alg = dga.DGAlgebra(
        "k", QQ, [("1", 0, 0)], {(0, 0): {0: one}}, unit=0,
        augmentation={0: one}, weight_graded=True,
    )
    E = classical.hh_via_enveloping(k_alg, window=(-3, 0))
    assert E.betti((-3, 0)) == {0: 1, -1: 0, -2: 0, -3: 0}


# -- the two-sided Bar complex against its hand-written builder ---------------


def _reference_two_sided_bar(right_module, A, left_module, window=(-6, 0)):
    """Bar(M_r, A, M_l) = ⊕ M_r ⊗ Ā^{⊗n} ⊗ M_l built slot by slot: labels
    (n, m_r, word, m_l), the internal differential signed (-1)^n, d_0 the
    right action on M_r, middle merges, d_n the left action on M_l."""
    f = A.coefficients.field
    lo = window[0]
    top = max(0, 1 - lo)
    nonunit = A.nonunit()
    out = ChainComplex(A.coefficients)

    def add_if(src, tgt, val):
        if not f.is_zero(val) and tgt in out.index:
            out.set_differential_entry(src, tgt, val)

    levels = []
    for n in range(top + 1):
        monos = [()]
        for _ in range(n):
            monos = [m + (p,) for m in monos for p in nonunit]
        level = []
        for mr in range(right_module.dim):
            for ml in range(left_module.dim):
                for mono in monos:
                    deg = (
                        right_module.degrees[mr]
                        + left_module.degrees[ml]
                        + sum(A.degrees[p] for p in mono)
                    )
                    if deg - n < lo - 1:
                        continue
                    wt = (
                        right_module.weights[mr]
                        + left_module.weights[ml]
                        + sum(A.weights[p] for p in mono)
                    )
                    label = (n, mr, mono, ml)
                    out.add_element(label, deg - n, wt)
                    level.append(label)
        levels.append(level)
    for n in range(top + 1):
        for (lvl, mr, mono, ml) in levels[n]:
            src = (lvl, mr, mono, ml)
            sign_n = f.coerce(-1 if n % 2 else 1)
            run = right_module.degrees[mr]
            for q, c in right_module.d(mr).items():
                add_if(src, (n, q, mono, ml), f.mul(sign_n, c))
            for s, p in enumerate(mono):
                sgn = f.coerce(-1 if run % 2 else 1)
                for q, c in A.d(p).items():
                    if q == A.unit:
                        continue
                    t = list(mono)
                    t[s] = q
                    add_if(src, (n, mr, tuple(t), ml),
                           f.mul(sign_n, f.mul(sgn, c)))
                run += A.degrees[p]
            sgn = f.coerce(-1 if run % 2 else 1)
            for q, c in left_module.d(ml).items():
                add_if(src, (n, mr, mono, q), f.mul(sign_n, f.mul(sgn, c)))
            if n == 0:
                continue
            # d_0: right action on M_r
            for q, c in right_module.act_right(mr, mono[0]).items():
                add_if(src, (n - 1, q, mono[1:], ml), c)
            for r in range(1, n):
                sgn = f.coerce(-1 if r % 2 else 1)
                for q, c in A.product(mono[r - 1], mono[r]).items():
                    if q == A.unit:
                        continue
                    t = mono[: r - 1] + (q,) + mono[r + 1 :]
                    add_if(src, (n - 1, mr, t, ml), f.mul(sgn, c))
            # d_n: left action on M_l
            sgn = f.coerce(-1 if n % 2 else 1)
            for q, c in left_module.act_left(mono[-1], ml).items():
                add_if(src, (n - 1, mr, mono[:-1], q), f.mul(sgn, c))
    return out.freeze(window=(lo - 1, POS_INF), support=(NEG_INF, 0))


def _short_words(coefficients):
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


BAR_ALGEBRAS = {
    "exterior(-1)": lambda c: dga.exterior(c),
    "exterior(-3)": lambda c: dga.exterior(c, generator_degree=-3),
    "k[x]/x^2": lambda c: dga.truncated_polynomial(c, 2),
    "k[x]/x^3": lambda c: dga.truncated_polynomial(c, 3),
    "k[x]/x^3, |x|=-2": lambda c: dga.truncated_polynomial(
        c, 3, generator_degree=-2
    ),
    "k<x,y>/(len>=3)": _short_words,
    "koszul": koszul_algebra,  # the one with a differential
}

BAR_FIELDS = {
    "Q": Coefficients(),
    **{f"F{p}": Coefficients("prime-field", p) for p in (2, 3, 5, 7)},
}


def _bar_summary(complex_, window):
    return (
        complex_.homology_dims(window),
        {key: len(block) for key, block in complex_.blocks.items()},
    )


@pytest.mark.parametrize("field", sorted(BAR_FIELDS))
@pytest.mark.parametrize("algebra", sorted(BAR_ALGEBRAS))
def test_two_sided_bar_matches_reference(algebra, field):
    # the same Betti table per (degree, weight) and the same block sizes
    # as the slot-by-slot builder, for every pair of k and A as M_r, M_l
    A = BAR_ALGEBRAS[algebra](BAR_FIELDS[field])
    window = (-2, 0) if A.dim > 3 else (-4, 0)
    k, bimodule = classical.augmentation_module(A), dga.algebra_as_bimodule(A)
    for mr, ml in product((k, bimodule), repeat=2):
        got = classical.two_sided_bar(mr, A, ml, window)
        want = _reference_two_sided_bar(mr, A, ml, window)
        assert _bar_summary(got, window) == _bar_summary(want, window), (
            mr.name, ml.name
        )
    if A.commutative and A.dim <= 3:
        window = (-2, 0)
        got = classical.hh_via_enveloping(A, window)
        want = _reference_two_sided_bar(*classical.enveloping_modules(A), window)
        assert _bar_summary(got, window) == _bar_summary(want, window)


def test_outer_bimodule_rejects_factors_over_different_algebras(
    QQ, exterior, trunc2
):
    with pytest.raises(ValueError, match="over different algebras"):
        classical.outer_bimodule(
            classical.augmentation_module(exterior), classical.augmentation_module(trunc2)
        )


def test_iterated_bar(QQ, exterior, trunc2):
    for A in (exterior, trunc2):
        i1 = classical.iterated_bar(A, 1, window=(-5, 0))
        k = classical.augmentation_module(A)
        bar = classical.two_sided_bar(k, A, k, window=(-5, 0))
        assert i1.betti((-5, 0)) == bar.betti((-5, 0)), A.name
    i2 = classical.iterated_bar(exterior, 2, window=(-5, 0))
    assert i2.betti((-5, 0)) == {0: 1, -1: 0, -2: 0, -3: 1, -4: 0, -5: 0}
    i0 = classical.iterated_bar(exterior, 0, window=(-3, 0))
    assert i0.betti((-3, 0)) == {0: 1, -1: 1, -2: 0, -3: 0}
    with pytest.raises(ValueError):
        bad = dga.DGAlgebra(
            "noaug", QQ, [("1", 0, 0), ("x", 0, 1)],
            {(0, 0): {0: QQ.field.one}, (0, 1): {1: QQ.field.one},
             (1, 0): {1: QQ.field.one}, (1, 1): {}},
            unit=0, weight_graded=True,
        )
        classical.iterated_bar(bad, 1, window=(-2, 0))


# -- cochains -----------------------------------------------------------------


def test_cochain_dims_match_classical(QQ, trunc2):
    data = CochainComplexData(
        simp.circle(7), trunc2, dga.algebra_as_bimodule(trunc2), (0, 4)
    ).complex
    assert [data.dim(d) for d in range(5)] == [2, 2, 2, 2, 2]
    assert data.betti((0, 4)) == {0: 2, 1: 1, 2: 1, 3: 1, 4: 1}


def test_cochain_point_retract(QQ, trunc2):
    data = CochainComplexData(
        simp.point(7), trunc2, dga.algebra_as_bimodule(trunc2), (0, 4)
    ).complex
    assert data.betti((0, 4)) == {0: 2, 1: 0, 2: 0, 3: 0, 4: 0}


def test_cochain_chain_duality(QQ, exterior, trunc2):
    for A in (exterior, trunc2):
        k = classical.augmentation_module(A)
        co = CochainComplexData(simp.circle(9), A, k, (0, 5)).complex
        ch = hh.hochschild_chain_with_coeff(
            simp.circle(9), A, k, window=(-5, 0)
        )
        cob = co.betti((0, 5))
        chb = ch.betti((-5, 0))
        assert all(cob[d] == chb[-d] for d in range(6)), A.name


# -- predictions --------------------------------------------------------------


def test_hkr_prediction_tables():
    pred = hh.hkr_prediction("polynomial", ("sphere", 2), (-8, 0), [1, 2, 3])
    for w in (1, 2, 3):
        for j in range(w + 1):
            assert pred[(-2 * j, w)] == 1
    assert sum(v for (_d, w), v in pred.items() if w == 2) == 3
    surf = hh.hkr_prediction("polynomial", ("surface", 1), (-2, 0), [1])
    assert surf == {(0, 1): 1, (-1, 1): 2, (-2, 1): 1}
    lam = hh.hkr_prediction(
        {"free_generators": [(-1, 1)]}, ("sphere", 1), (-4, 0), None
    )
    agg = {}
    for (d, _w), v in lam.items():
        agg[d] = agg.get(d, 0) + v
    assert agg == {0: 1, -1: 1, -2: 1, -3: 1, -4: 1}


def test_hkr_prediction_rejects_unknown():
    with pytest.raises(ValueError):
        hh.hkr_prediction("mystery", ("sphere", 2), (-2, 0), [1])


def test_exponential_law_cross_check(QQ):
    # CH over S^1 x S^1 (the torus) agrees with iterating HKR: the weight-1
    # part of CH_T(k[x]) is x, two degree -1 classes, one degree -2 class.
    P = dga.polynomial(QQ, max_weight=1)
    C = hh.hochschild_chain(simp.torus(4), P, window=(-2, 0), weights=[1])
    assert C.homology_dims((-2, 0), weights=[1]) == {
        (0, 1): 1, (-1, 1): 2, (-2, 1): 1
    }


def test_circle_genuine_bimodule_routes_classically(QQ, trunc2):
    # twisted coefficients over the circle: dims from the periodic oracle
    mon = scaling(trunc2, -1)
    tw = classical.twisted_bimodule(trunc2, mon)
    C = hh.hochschild_chain_with_coeff(simp.circle(8), trunc2, tw,
                                       window=(-6, 0))
    assert C.betti((-6, 0)) == hh.periodic_resolution_dims(2, -1, (-6, 0))
    with pytest.raises(ValueError):
        hh.hochschild_chain_with_coeff(simp.interval(6), trunc2, tw,
                                       window=(-3, 0))


def test_hh0_of_commutative_is_algebra(QQ, exterior, trunc2, trunc3):
    for A in (exterior, trunc2, trunc3):
        C = classical.classical_hochschild(
            A, dga.algebra_as_bimodule(A), window=(-2, 0)
        )
        dims_at_zero = sum(
            v for (d, _w), v in C.homology_dims((-2, 0)).items() if d == 0
        )
        want = sum(1 for p in range(A.dim) if A.degrees[p] == 0)
        assert dims_at_zero == want, A.name


def test_sphere_hkr_d1_is_circle(QQ):
    P = dga.polynomial(QQ, max_weight=3)
    C = hh.hochschild_chain(
        simp.sphere_small(1, 4), P, window=(-4, 0), weights=[1, 2, 3]
    )
    pred = hh.hkr_prediction("polynomial", ("sphere", 1), (-4, 0), [1, 2, 3])
    assert C.homology_dims((-4, 0), weights=[1, 2, 3]) == pred
    circ = hh.hochschild_chain(
        simp.circle(4), P, window=(-4, 0), weights=[1, 2, 3]
    )
    assert (circ.homology_dims((-4, 0), weights=[1, 2, 3])
            == C.homology_dims((-4, 0), weights=[1, 2, 3]))


def test_prime_field_coefficients(QQ):
    from hoch.homalg import Coefficients

    F5 = Coefficients("prime-field", 5)
    A5 = dga.truncated_polynomial(F5, 2)
    C = hh.hochschild_chain(simp.circle(7), A5, window=(-5, 0))
    textbook = classical.classical_hochschild(
        A5, dga.algebra_as_bimodule(A5), window=(-5, 0)
    )
    assert C.betti((-5, 0)) == textbook.betti((-5, 0))
    assert C.betti((-5, 0)) == hh.periodic_resolution_dims(
        2, 1, (-5, 0), F5
    )
    # over F2 the sign twist x -> -x is the identity twist
    F2 = Coefficients("prime-field", 2)
    assert hh.periodic_resolution_dims(2, -1, (-4, 0), F2) == (
        hh.periodic_resolution_dims(2, 1, (-4, 0), F2)
    )


def test_trunc3_untwisted_periodic_crosscheck(QQ, trunc3):
    expected = {0: 3, -1: 2, -2: 2, -3: 2, -4: 2, -5: 2}
    assert hh.periodic_resolution_dims(3, 1, (-5, 0)) == expected
    C = hh.hochschild_chain(simp.circle(7), trunc3, window=(-5, 0))
    assert C.betti((-5, 0)) == expected


def test_two_odd_generators_hkr(QQ, exterior):
    E = classical.tensor_algebra(exterior, exterior, name="two odd gens")
    C = hh.hochschild_chain(simp.circle(6), E, window=(-4, 0))
    assert C.complex.check_differential()[0]
    assert C.betti((-4, 0)) == {0: 1, -1: 2, -2: 3, -3: 4, -4: 5}
    pred = hh.hkr_prediction(
        {"free_generators": [(-1, 1), (-1, 1)]}, ("sphere", 1), (-4, 0), None
    )
    agg = {}
    for (d, _w), v in pred.items():
        agg[d] = agg.get(d, 0) + v
    assert agg == {0: 1, -1: 2, -2: 3, -3: 4, -4: 5}


def test_characteristic_two_changes_the_answer(QQ):
    from hoch.homalg import Coefficients

    F2 = Coefficients("prime-field", 2)
    A2 = dga.truncated_polynomial(F2, 2)
    C = hh.hochschild_chain(simp.circle(6), A2, window=(-4, 0))
    expected = {0: 2, -1: 2, -2: 2, -3: 2, -4: 2}
    assert C.betti((-4, 0)) == expected
    assert hh.periodic_resolution_dims(2, 1, (-4, 0), F2) == expected


def test_wedge_of_circles_chains(QQ, exterior):
    # CH over X ∨ Y is CH_X ⊗_A CH_Y: two Kähler generators over Λ(x)
    W = simp.wedge(simp.circle(7), simp.circle(7))
    C = hh.hochschild_chain(W, exterior, window=(-4, 0))
    assert C.complex.check_differential()[0]
    assert C.betti((-4, 0)) == {0: 1, -1: 1, -2: 2, -3: 2, -4: 3}
    pred = hh.free_graded_commutative_dims(
        [(-1, 1), (-2, 1), (-2, 1)], (-4, 0), None
    )
    agg = {}
    for (d, _w), v in pred.items():
        agg[d] = agg.get(d, 0) + v
    assert C.betti((-4, 0)) == agg


def test_nonzero_differential_quasi_iso_invariance(QQ, koszul_dga, exterior):
    C = hh.hochschild_chain(simp.circle(8), koszul_dga, window=(-5, 0))
    assert C.complex.check_differential()[0]
    ref = hh.hochschild_chain(simp.circle(8), exterior, window=(-5, 0))
    assert C.betti((-5, 0)) == ref.betti((-5, 0))
    cls = classical.classical_hochschild(
        koszul_dga, dga.algebra_as_bimodule(koszul_dga), window=(-5, 0)
    )
    assert cls.betti((-5, 0)) == ref.betti((-5, 0))
    C2 = hh.hochschild_chain(simp.sphere_small(2, 6), koszul_dga,
                             window=(-4, 0))
    ref2 = hh.hochschild_chain(simp.sphere_small(2, 6), exterior,
                               window=(-4, 0))
    assert C2.betti((-4, 0)) == ref2.betti((-4, 0))


def test_window_consistency_under_rematerialization(QQ, exterior, trunc2,
                                                    trunc3):
    """Betti on a certified window must not depend on how far the complex
    was materialized beyond it.  (Spheres only with the exterior algebra:
    for degree-zero coefficients their full complexes grow combinatorially
    with the level.)"""
    cases = [
        (exterior, simp.circle(9)), (exterior, simp.interval(9)),
        (exterior, simp.sphere_small(2, 9)),
        (trunc2, simp.circle(9)), (trunc2, simp.interval(9)),
        (trunc3, simp.circle(9)), (trunc3, simp.interval(9)),
    ]
    for A, Y in cases:
        small = hh.hochschild_chain(Y, A, window=(-2, 0))
        big = hh.hochschild_chain(Y, A, window=(-6, 0))
        assert small.betti((-2, 0)) == {
            d: v for d, v in big.betti((-6, 0)).items() if d >= -2
        }, (A.name, Y.name)


def test_window_consistency_per_weight(QQ):
    P = dga.polynomial(QQ, max_weight=3)
    small = hh.hochschild_chain(simp.circle(9), P, window=(-2, 0),
                                weights=[1, 2])
    big = hh.hochschild_chain(simp.circle(9), P, window=(-6, 0),
                              weights=[1, 2, 3])
    st = small.homology_dims((-2, 0), weights=[1, 2])
    bt = big.homology_dims((-6, 0), weights=[1, 2, 3])
    assert st == {
        k: v for k, v in bt.items() if k[0] >= -2 and k[1] in (1, 2)
    }


# -- enumeration of the level bases ------------------------------------------


def _brute_monomials(Y, n, A, module, weights, min_int, normalized):
    """Every slot assignment of Y_n, kept when its non-unit algebra support
    meets every degeneracy-image complement (if normalized) and its total
    weight and internal degree pass the filters."""
    card = Y.card(n)
    bp = 0 if module is not None else None  # the basepoint's slot
    complements = []
    if normalized:
        complements = [
            set(range(card)) - set(Y.deg_tab[n - 1][i]) for i in range(n)
        ]
    ranges = [
        range(module.dim) if s == bp else range(A.dim) for s in range(card)
    ]
    out = []
    for mono in product(*ranges):
        support = {s for s, p in enumerate(mono) if s != bp and p != A.unit}
        if not all(support & c for c in complements):
            continue
        wt = deg = 0
        for s, p in enumerate(mono):
            space = module if s == bp else A
            wt += space.weights[p]
            deg += space.degrees[p]
        if weights is not None and wt not in weights:
            continue
        if min_int is not None and deg < min_int:
            continue
        out.append(mono)
    return sorted(out)


def _monomials(*args, **kwargs):
    """``hh._level_monomials`` without the (degree, weight) keys and the
    supports."""
    return [mono for mono, _key, _sup in hh._level_monomials(*args, **kwargs)]


ENUMERATION_SPACES = {
    "interval": lambda: simp.interval(6),
    "circle": lambda: simp.circle(6),
    "torus": lambda: simp.torus(3),
    "sphere_small_2": lambda: simp.sphere_small(2, 6),
    "sphere_small_3": lambda: simp.sphere_small(3, 6),
    "wedge_circles": lambda: simp.wedge(simp.circle(4), simp.circle(4)),
}


@pytest.mark.parametrize("space", sorted(ENUMERATION_SPACES))
def test_level_monomials_match_brute_force(QQ, exterior, trunc3, space):
    Y = ENUMERATION_SPACES[space]()
    # (algebra, weights, min_int): the budget bound needs weights with
    # every non-unit weight >= 1; min_int needs nonzero degrees
    variants = [
        (exterior, None, None), (exterior, None, -2), (exterior, [1, 2], None),
        (trunc3, None, None), (trunc3, [2, 3], None), (trunc3, [0, 2], None),
        (dga.polynomial(QQ, max_weight=3), [1, 2, 3], None),
    ]
    checked = 0
    for A, weights, min_int in variants:
        modules = (
            None, classical.augmentation_module(A), dga.algebra_as_bimodule(A)
        )
        for module in modules:
            for normalized in (True, False):
                for n in range(Y.top_level + 1):
                    if A.dim ** Y.card(n) > 3000:
                        break  # the brute force stops at a small top level
                    got = _monomials(
                        Y, n, A, module, weights, min_int, normalized
                    )
                    want = _brute_monomials(
                        Y, n, A, module, weights, min_int, normalized
                    )
                    assert got == want, (A.name, weights, min_int,
                                         module is not None, normalized, n)
                    checked += 1
    assert checked >= 6 * len(variants)


@pytest.mark.parametrize("Y, A, weights", [
    (simp.sphere_small(2, 5), dga.exterior(), None),
    (simp.sphere_small(3, 6), dga.polynomial(max_weight=3), [1, 2, 3]),
    (simp.circle(6), dga.truncated_polynomial(truncation=3), None),
])
def test_enumeration_cap_boundary(Y, A, weights):
    # the cap bounds each (internal degree, weight) block of the level,
    # counted after the module slot is expanded
    n = Y.top_level
    for module in (None, dga.algebra_as_bimodule(A)):
        keyed = hh._level_monomials(Y, n, A, module, weights, None, True)
        monos = [mono for mono, _key, _sup in keyed]
        blocks = Counter(
            internal_key(Y, n, A, module, mono) for mono in monos
        )
        # each monomial comes with its (internal degree, weight) and its
        # support, the module slot always in it
        assert all(
            key == internal_key(Y, n, A, module, mono)
            and sup == dga._support(mono, A.unit, module is not None)
            for mono, key, sup in keyed
        )
        m = max(blocks.values())
        assert 1 < m < len(monos)
        assert _monomials(Y, n, A, module, weights, None, True,
                          cap=m) == monos
        with pytest.raises(hh.InfeasibleError):
            hh._level_monomials(Y, n, A, module, weights, None, True,
                                cap=m - 1)


@pytest.mark.parametrize("Y, A, weights, read", [
    # whole-monomial programs, no face masks: nothing reads a support
    (simp.circle(6), dga.truncated_polynomial(truncation=3), None, "none"),
    # support programs read every level's
    (simp.circle(5), dga.polynomial(max_weight=3), [1, 2, 3], "all"),
    # whole-monomial programs; face masks from level 2 up
    (simp.sphere_small(2, 6), dga.exterior(), None, "some"),
])
def test_build_levels_keeps_supports_only_where_read(Y, A, weights, read):
    levels, _exhausted, _blocks, supports = hh.build_levels(
        Y, A, None, (-5, 0), weights
    )
    reads = [A.max_weight is not None or any(hh._face_gates(Y, n)[0])
             for n in range(len(levels))]
    assert {"none": not any(reads), "all": all(reads),
            "some": any(reads) and not all(reads)}[read]
    for level, sups, kept in zip(levels, supports, reads):
        if kept:
            assert sups == [dga._support(m, A.unit) for m in level.index]
        else:
            assert sups == [None] * len(level.index)
    assert all(sum(len(s) for s, r in zip(supports, reads) if r == kept)
               for kept in set(reads))


def test_build_levels_caps_the_total_blocks(exterior, trunc2):
    # with an odd and an even generator of weight 1, one total block draws
    # on several levels and is larger than every level block; the cap
    # holds it before any face is built
    E = classical.tensor_algebra(exterior, trunc2)
    Y = simp.circle(5)
    levels, _exhausted, blocks, _supports = hh.build_levels(
        Y, E, None, (-3, 0)
    )
    total = hh.hochschild_chain(Y, E, (-3, 0)).complex
    assert blocks == {key: len(b) for key, b in total.blocks.items()}
    largest = max(blocks.values())
    assert largest > max(len(b) for c in levels for b in c.blocks.values())
    hh.build_levels(Y, E, None, (-3, 0), cap=largest)
    with pytest.raises(hh.InfeasibleError, match="of the total complex"):
        hh.build_levels(Y, E, None, (-3, 0), cap=largest - 1)


@pytest.mark.parametrize("space, weights", [
    ("circle", None),
    ("wedge_circles", None),
    ("torus", range(5)),  # unbounded, level 4 of the torus is too large
])
def test_unit_slot_matches_filtered_enumeration(exterior, trunc2, space,
                                                weights):
    # cochain arguments: the basepoint (slot 0) left out of the search and
    # kept unit gives exactly the normalized basis filtered to a unit
    # basepoint
    Y = {
        "circle": lambda: simp.circle(4),
        "wedge_circles": lambda: simp.wedge(simp.circle(4), simp.circle(4)),
        "torus": lambda: simp.torus(4),
    }[space]()
    dropped = 0
    for A in (exterior, trunc2):
        for n in range(5):
            full = _monomials(Y, n, A, None, weights, None, True)
            want = [m for m in full if m[0] == A.unit]
            got = _monomials(
                Y, n, A, None, weights, None, True, unit_base=True
            )
            assert got == want, (A.name, n)
            dropped += len(full) - len(want)
    assert dropped > 0


@pytest.mark.parametrize("normalized", [True, False])
def test_missing_face_target_is_an_error(trunc3, normalized, monkeypatch):
    # x ⊗ x in level 1 of the circle is the face of a level-2 monomial in
    # both bases; a level that lost it leaves that face no target, whether
    # the programs fold whole monomials (k[x]/x³) or supports (k[x]
    # through weight 2)
    real_build_levels = hh.build_levels

    def drop_x_x(*args, **kwargs):
        levels, exhausted, blocks, supports = real_build_levels(
            *args, **kwargs
        )
        at = list(levels[1].index).index((1, 1))
        del levels[1].index[(1, 1)], supports[1][at]
        return levels, exhausted, blocks, supports

    monkeypatch.setattr(hh, "build_levels", drop_x_x)
    for A, weights in ((trunc3, None), (dga.polynomial(max_weight=2), [1, 2])):
        with pytest.raises(AssertionError, match="missing face target"):
            hh.build_simplicial_ch(simp.circle(4), A, None, (-2, 0), weights,
                                   normalized)


def _reference_is_nondegenerate(Y, n, A, module, mono):
    """Reference test: the support built by a set comprehension over
    every slot, the basepoint left out when a module is given."""
    if n == 0:
        return True
    bp = 0 if module is not None else None  # the basepoint's slot
    support = {s for s, p in enumerate(mono) if s != bp and p != A.unit}
    return not any(
        c.isdisjoint(support) for c in Y.nondegenerate_complements(n)
    )


def _exterior_unit_last(QQ):
    """Λ(x) with the unit at basis position 1, not 0."""
    one = QQ.field.one
    return dga.DGAlgebra(
        "exterior(unit last)", QQ, [("x", -1, 1), ("1", 0, 0)],
        {(1, 1): {1: one}, (1, 0): {0: one}, (0, 1): {0: one}}, unit=1,
        augmentation={1: one}, weight_graded=True,
    )


NONDEGENERACY_SPACES = {
    "circle": lambda: simp.circle(4),
    "torus": lambda: simp.torus(4),
    "sphere_small_3": lambda: simp.sphere_small(3, 4),
    "wedge_circles": lambda: simp.wedge(simp.circle(4), simp.circle(4)),
}


@pytest.mark.parametrize("space", sorted(NONDEGENERACY_SPACES))
def test_is_nondegenerate_matches_reference(QQ, trunc3, space):
    Y = NONDEGENERACY_SPACES[space]()
    rng = random.Random(space)
    verdicts = Counter()
    for A in (trunc3, _exterior_unit_last(QQ)):
        nonunit = [p for p in range(A.dim) if p != A.unit]
        modules = (
            None, classical.augmentation_module(A), dga.algebra_as_bimodule(A)
        )
        for module in modules:
            for n in range(5):
                card = Y.card(n)
                for _ in range(150):
                    mono = [A.unit] * card
                    size = rng.randint(0, min(card, n + 1))
                    slots = rng.sample(range(card), size)
                    for s in slots:
                        mono[s] = rng.choice(nonunit)
                    if module is not None:
                        mono[0] = rng.randrange(module.dim)
                    mono = tuple(mono)
                    want = _reference_is_nondegenerate(Y, n, A, module, mono)
                    assert hh._is_nondegenerate(Y, n, A, mono) == want
                    verdicts[want] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100


def test_build_compiles_one_program_per_face(monkeypatch, trunc3):
    compiled = count_compiles(monkeypatch, hh)
    scc = hh.build_simplicial_ch(simp.circle(8), trunc3, window=(-7, 0))
    assert scc.top_level == 8
    assert len(compiled) == sum(n + 1 for n in range(1, 9)) == 44


def test_build_pushes_no_provably_degenerate_face(monkeypatch, trunc3):
    """The golden sphere-3 HKR job pushes 12,684 monomials through its face
    programs: the 10,000 others would land on degenerate images.  Over the
    circle no face image is provably degenerate, so every face is pushed."""
    pushed = count_runs(monkeypatch, hh)
    job = Path(__file__).resolve().parent.parent / "jobs"
    spec = cli.load_jobspec(json.loads(
        (job / "criterion05b_hkr_sphere3.json").read_text()
    ))
    assert cli.run_job(spec)["betti"]
    assert len(pushed) == 12684
    pushed.clear()
    scc = hh.build_simplicial_ch(simp.circle(8), trunc3, window=(-7, 0))
    assert len(pushed) == sum(
        (n + 1) * len(scc.levels[n].index) for n in range(1, 9)
    ) == 12288


def test_build_refuses_a_weight_past_max_weight_before_any_basis(
        monkeypatch):
    """Over sphere_small(4), k[x] materialized through weight 1 with
    weights [2] has one chain in the window, x ⊗ x at level 4: every face
    image of it is provably degenerate, yet each face would fold x·x past
    weight 1.  The level build refuses the job before it enumerates a
    basis, so the face gates never see a fold that could raise."""
    def no_basis(*args, **kwargs):
        raise AssertionError("a basis was enumerated")

    monkeypatch.setattr(hh, "_level_monomials", no_basis)
    Y, A = simp.sphere_small(4, 5), dga.polynomial(max_weight=1)
    for build in (hh.build_levels, hh.build_simplicial_ch):
        with pytest.raises(dga.AlgebraClassError,
                           match="weight 2 exceeds materialized weight 1"):
            build(Y, A, window=(-3, 0), weights=[2])
    # a module element of weight -1 leaves weight 2 to the algebra slots of
    # a weight-1 chain, such as m ⊗ x ⊗ x on the circle
    one = A.coefficients.field.one
    M = dga.DGModule("shifted", A, [("m", 0, -1), ("n", 0, 0)], {
        (0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one},
    })
    with pytest.raises(dga.AlgebraClassError,
                       match="weight 2 exceeds materialized weight 1"):
        hh.build_levels(simp.circle(4), A, M, window=(-3, 0), weights=[1])


def test_face_gates_read_the_unit_wherever_it_sits(QQ, monkeypatch):
    """Λ(x) with the unit at position 1 gives the same sphere complex as
    with the unit at 0: the gates of the faces read the non-unit slots
    through the unit's position, and every pushed image lands."""
    checked = []
    monkeypatch.setattr(hh, "_is_nondegenerate",
                        lambda *args: checked.append(args))
    Y = simp.sphere_small(2, 6)
    assert any(any(Y.face_masks(n)) for n in range(1, 7))
    unit_first, unit_last = dga.exterior(QQ), _exterior_unit_last(QQ)
    window = (-5, 0)
    first = hh.hochschild_chain(Y, unit_first, window)
    last = hh.hochschild_chain(Y, unit_last, window)
    assert checked == []
    assert first.betti(window) == last.betti(window)
    assert [len(l) for l in first.levels] == [len(l) for l in last.levels]
    assert [sum(1 for _ in m.entries()) for m in first.complex.diff.values()
            ] == [sum(1 for _ in m.entries())
                  for m in last.complex.diff.values()]

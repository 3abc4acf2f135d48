"""Acceptance criteria: exact reproduction of the closed-form computations.

Every criterion runs at tolerance zero (exact arithmetic) within its
stated wall-clock budget and prints one pass/fail line.  The golden CLI
jobs for the same scenarios live in jobs/ and are exercised by the CLI
test module.
"""

import random
import time
from fractions import Fraction

from hoch import cech, classical, dga, simp
from hoch import hochschild as hh
from hoch import products as pr
from hoch.cech import cone
from hoch.homalg import ChainMap
from tests_support import multiop, tensor, validate


def report(criterion, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"criterion {criterion}: {status} "
        f"({elapsed:.2f}s of {budget:.0f}s budget)"
    )
    assert ok
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s"


def test_criterion_01_point_retract(QQ, exterior):
    t0 = time.time()
    C = hh.hochschild_chain(simp.point(8), exterior, window=(-6, 0))
    got = C.betti((-6, 0))
    ok = got == {0: 1, -1: 1, -2: 0, -3: 0, -4: 0, -5: 0, -6: 0}
    report("1 (point retract)", ok, time.time() - t0, 1.0)


def test_criterion_02_bar_acyclicity(QQ, trunc3):
    t0 = time.time()
    m = dga.algebra_as_bimodule(trunc3)
    C = hh.hochschild_chain_with_coeff(
        simp.interval(8), trunc3, m, window=(-6, 0)
    )
    got = C.betti((-6, 0))
    ok = got == {0: 3, -1: 0, -2: 0, -3: 0, -4: 0, -5: 0, -6: 0}
    report("2 (Bar acyclicity)", ok, time.time() - t0, 5.0)


def test_criterion_03_circle_against_both_oracles(QQ, trunc2):
    t0 = time.time()
    expected = {0: 2, -1: 1, -2: 1, -3: 1, -4: 1, -5: 1, -6: 1}
    C = hh.hochschild_chain(simp.circle(8), trunc2, window=(-6, 0))
    textbook = classical.classical_hochschild(
        trunc2, dga.algebra_as_bimodule(trunc2), window=(-6, 0)
    )
    periodic = hh.periodic_resolution_dims(2, 1, (-6, 0))
    ok = (
        C.betti((-6, 0)) == expected
        and textbook.betti((-6, 0)) == expected
        and periodic == expected
    )
    report("3 (circle = classical HH)", ok, time.time() - t0, 10.0)


def test_criterion_04_excision_identity(QQ, exterior, trunc2):
    t0 = time.time()
    env2 = classical.hh_via_enveloping(trunc2, window=(-5, 0))
    ok = env2.betti((-5, 0)) == {0: 2, -1: 1, -2: 1, -3: 1, -4: 1, -5: 1}
    envL = classical.hh_via_enveloping(exterior, window=(-5, 0))
    circL = hh.hochschild_chain(simp.circle(7), exterior, window=(-5, 0))
    ok = ok and envL.betti((-5, 0)) == circL.betti((-5, 0))
    report("4 (excision identity)", ok, time.time() - t0, 30.0)


def test_criterion_05_hkr_spheres(QQ):
    t0 = time.time()
    P = dga.polynomial(QQ, max_weight=3)
    ok = True
    for d, win in ((2, (-7, 0)), (3, (-10, 0))):
        C = hh.hochschild_chain(
            simp.sphere_small(d, 3 * d), P, window=win, weights=[1, 2, 3]
        )
        table = C.homology_dims(win, weights=[1, 2, 3])
        pred = hh.hkr_prediction("polynomial", ("sphere", d), win, [1, 2, 3])
        ok = ok and table == pred
        if d == 2:
            # d = 2, weight w: dim 1 at each of 0, -2, ..., -2w
            for w in (1, 2, 3):
                ok = ok and all(
                    table.get((-2 * j, w)) == 1 for j in range(w + 1)
                )
    report("5 (HKR spheres)", ok, time.time() - t0, 60.0)


def test_criterion_06_hkr_surface(QQ):
    t0 = time.time()
    P = dga.polynomial(QQ, max_weight=2)
    C = hh.hochschild_chain(
        simp.torus(6), P, window=(-4, 0), weights=[0, 1, 2]
    )
    table = C.homology_dims((-4, 0), weights=[0, 1, 2])
    pred = hh.hkr_prediction("polynomial", ("surface", 1), (-4, 0), [0, 1, 2])
    ok = table == pred
    report("6 (HKR surface g=1)", ok, time.time() - t0, 120.0)


def test_criterion_07_sphere_model_independence(exterior):
    t0 = time.time()
    std = hh.hochschild_chain(
        simp.sphere_standard(2, 5), exterior, window=(-4, 0)
    )
    small = hh.hochschild_chain(
        simp.sphere_small(2, 5), exterior, window=(-4, 0)
    )
    ok = std.betti((-4, 0)) == small.betti((-4, 0))
    report("7 (sphere model independence)", ok, time.time() - t0, 60.0)


def test_criterion_08_twisted_hochschild(QQ, trunc2):
    t0 = time.time()
    f = QQ.field

    def scaling(c):
        return classical.AlgebraAutomorphism(
            trunc2,
            {p: {p: f.coerce(Fraction(c) ** trunc2.weights[p])}
             for p in range(trunc2.dim)},
        )

    twisted = classical.twisted_hochschild(trunc2, scaling(-1), window=(-6, 0))
    oracle = hh.periodic_resolution_dims(2, -1, (-6, 0))
    ok = twisted.betti((-6, 0)) == oracle
    untwisted = classical.twisted_hochschild(trunc2, scaling(1), window=(-6, 0))
    ok = ok and untwisted.betti((-6, 0)) == {
        0: 2, -1: 1, -2: 1, -3: 1, -4: 1, -5: 1, -6: 1
    }
    report("8 (twisted Hochschild)", ok, time.time() - t0, 60.0)


def test_criterion_09_iterated_bar(QQ, exterior, trunc2):
    t0 = time.time()
    ok = True
    for A in (exterior, trunc2):
        i1 = classical.iterated_bar(A, 1, window=(-5, 0))
        k = classical.augmentation_module(A)
        bar = classical.two_sided_bar(k, A, k, window=(-5, 0))
        ok = ok and i1.betti((-5, 0)) == bar.betti((-5, 0))
    i2 = classical.iterated_bar(exterior, 2, window=(-5, 0))
    ok = ok and i2.betti((-5, 0)) == {
        0: 1, -1: 0, -2: 0, -3: 1, -4: 0, -5: 0
    }
    report("9 (iterated Bar)", ok, time.time() - t0, 60.0)


def test_criterion_10_cosheaf_regime(QQ):
    t0 = time.time()
    arcs = [
        (Fraction(0), Fraction(2, 5)),
        (Fraction(1, 3), Fraction(2, 5)),
        (Fraction(2, 3), Fraction(2, 5)),
    ]
    poset = cech.circle_arc_poset(arcs)
    F = cech.constant_precosheaf(poset, QQ)
    T, _ = cech.cech_complex(F, poset.opens, truncation=2)
    cech_betti = T.betti((-1, 0))
    ok = cech_betti == {0: 1, -1: 1}
    # the cone-excision gluing of two intervals over two points
    ok = ok and cech.cone_gluing_dims(QQ) == cech_betti
    report("10 (cosheaf regime)", ok, time.time() - t0, 60.0)


# -- criterion 11: property suites, >= 500 cases each -------------------------


def test_criterion_11a_d_squared_everywhere(QQ, exterior, trunc2, trunc3):
    t0 = time.time()
    cases = 0
    complexes = []
    P = dga.polynomial(QQ, max_weight=2)
    for A in (exterior, trunc2, trunc3):
        for Y in (simp.point(5), simp.interval(5), simp.circle(5)):
            complexes.append(
                hh.hochschild_chain(Y, A, window=(-3, 0))
            )
    complexes.append(
        hh.hochschild_chain(simp.sphere_small(2, 4), exterior,
                            window=(-3, 0))
    )
    complexes.append(
        hh.hochschild_chain(simp.torus(4), P, window=(-2, 0),
                            weights=[0, 1, 2])
    )
    m3 = dga.algebra_as_bimodule(trunc3)
    complexes.append(classical.two_sided_bar(m3, trunc3, m3, window=(-3, 0)))
    complexes.append(classical.hh_via_enveloping(trunc2, window=(-3, 0)))
    complexes.append(
        classical.classical_hochschild(exterior, dga.algebra_as_bimodule(exterior),
                                window=(-4, 0))
    )
    complexes.append(
        pr.CochainComplexData(simp.circle(6), trunc2,
                              dga.algebra_as_bimodule(trunc2), (0, 3)).complex
    )
    rng = random.Random(0)
    # random tensor products and cones of two-term complexes
    from tests_support import two_term_complex

    for _ in range(60):
        C = two_term_complex(QQ, rng.randint(-3, 0))
        D = two_term_complex(QQ, rng.randint(-3, 0))
        T = tensor(C, D)
        complexes.append(T)
        idm = ChainMap(T, T)
        for block in T.blocks.values():
            for lab in block:
                idm.set_entry(lab, lab, QQ.field.one)
        complexes.append(cone(idm))
    for C in complexes:
        ok, witness = C.check_differential()
        assert ok, witness
        # count each verified block square as one case
        cases += max(1, len([k for k in C.blocks]))
    assert cases >= 500
    print(f"criterion 11 (d^2=0): PASS ({cases} block checks, "
          f"{time.time() - t0:.2f}s)")


def test_criterion_11b_simplicial_identities_level8():
    t0 = time.time()
    builders = [
        simp.point(8), simp.interval(8), simp.circle(8),
        simp.sphere_small(2, 8), simp.sphere_small(3, 8),
        simp.torus(8), simp.sphere_standard(2, 8),
        simp.surface(1, 8),
        simp.wedge(simp.circle(8), simp.circle(8)),
    ]
    checks = 0
    for X in builders:
        ok, witness = validate(X)
        assert ok, (X.name, witness)
        N = X.top_level
        for n in range(2, N + 1):
            checks += X.card(n) * n * (n + 1) // 2
    assert checks >= 500
    print(f"criterion 11 (simplicial identities to level 8): PASS "
          f"({checks} identities, {time.time() - t0:.2f}s)")


def test_criterion_11c_multiop_functoriality(QQ, exterior):
    from itertools import product as iproduct

    t0 = time.time()
    cases = 0
    for ns, nm, nt in [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3),
                       (3, 2, 3), (2, 3, 3), (1, 3, 3), (4, 2, 2)]:
        for fmap in iproduct(range(nm), repeat=ns):
            for gmap in iproduct(range(nt), repeat=nm):
                Mf, _, _ = multiop(exterior, fmap, ns, nm)
                Mg, _, _ = multiop(exterior, gmap, nm, nt)
                comp = tuple(gmap[t] for t in fmap)
                Mgf, _, _ = multiop(exterior, comp, ns, nt)
                assert Mg.compose(Mf).cols == Mgf.cols
                cases += 1
    assert cases >= 500
    print(f"criterion 11 (multiop functoriality): PASS ({cases} cases, "
          f"{time.time() - t0:.2f}s)")


def test_criterion_11d_shuffle_suite(QQ, exterior):
    t0 = time.time()
    f = QQ.field
    Y, A = simp.circle(9), exterior
    C = hh.hochschild_chain(Y, A, window=(-8, 0))
    one = pr.unit_chain(Y, A)
    degs = {}
    for lab in C.index:
        d, _w, _ = C.index[lab]
        if lab[0] <= 2 and d >= -2:
            degs.setdefault(d, []).append(lab)
    rng = random.Random(41)
    cases = 0
    for _ in range(125):
        du, u = _rand(rng, f, degs)
        dv, v = _rand(rng, f, degs)
        assert pr.shuffle_product(Y, A, C, one, u) == u
        uv = pr.shuffle_product(Y, A, C, u, v)
        lhs = C.d_apply(uv)
        rhs = _add(f, pr.shuffle_product(Y, A, C, C.d_apply(u), v),
                   pr.shuffle_product(Y, A, C, u, C.d_apply(v)),
                   sign=(-1) ** (du % 2))
        assert lhs == rhs
        vu = pr.shuffle_product(Y, A, C, v, u)
        sgn = (-1) ** ((du * dv) % 2)
        assert uv == {k: f.mul(f.coerce(sgn), c) for k, c in vu.items()}
        dw, w = _rand(rng, f, degs)
        assert pr.shuffle_product(Y, A, C, uv, w) == pr.shuffle_product(
            Y, A, C, u, pr.shuffle_product(Y, A, C, v, w)
        )
        cases += 4
    assert cases >= 500
    print(f"criterion 11 (shuffle axioms): PASS ({cases} checks, "
          f"{time.time() - t0:.2f}s)")


def test_criterion_11e_cup_exhaustive(QQ, trunc2, trunc3):
    t0 = time.time()
    f = QQ.field
    cases = 0
    for A in (trunc2, trunc3):
        # the classical cochains are the circle's, CH^{S^1}(A, A)
        data = pr.CochainComplexData(
            simp.circle(4), A, dga.algebra_as_bimodule(A), top=3)
        basis = []
        for n in range(4):  # chain-level associativity at degrees <= 3
            for arg in data.args[n]:
                for v in range(A.dim):
                    basis.append({(n, arg, v): f.one})
        one = {(0, (A.unit,), A.unit): f.one}
        for a in basis:
            assert pr.cup(A, one, a) == a and pr.cup(A, a, one) == a
            for b in basis:
                for c in basis:
                    if (next(iter(a))[0] + next(iter(b))[0]
                            + next(iter(c))[0] > 3):
                        continue
                    assert pr.cup(A, pr.cup(A, a, b), c) == pr.cup(
                        A, a, pr.cup(A, b, c)
                    )
                    cases += 1
    assert cases >= 500
    print(f"criterion 11 (cup associativity, degrees <= 3): PASS "
          f"({cases} triples, {time.time() - t0:.2f}s)")


def test_criterion_11f_prefactorization_audits(QQ, trunc2, exterior):
    t0 = time.time()
    arcs = [
        (Fraction(0), Fraction(2, 5)),
        (Fraction(1, 3), Fraction(2, 5)),
        (Fraction(2, 3), Fraction(2, 5)),
    ]
    poset = cech.circle_arc_poset(arcs)
    instances = [
        cech.trivial_prefactorization(poset, QQ),
        cech.constant_precosheaf(poset, QQ),
        cech.circle_arc_algebra(trunc2, poset),
        cech.circle_arc_algebra(exterior, poset),
    ]
    ip = cech.interval_poset(
        [("r", Fraction(2, 5)), ("m", Fraction(1, 4), Fraction(3, 4)),
         ("l", Fraction(3, 5))]
    )
    m = dga.algebra_as_bimodule(trunc2)
    instances.append(cech.interval_stratified(m, trunc2, m, ip))
    for F in instances:
        ok, witness = cech.validate_prefactorization(F)
        assert ok, (F.name, witness)
    # sign-injected mutants must fail
    base = cech.circle_arc_algebra(trunc2, poset)
    orig = base.rho_raw

    def corrupt(family, factors, target):
        out = orig(family, factors, target)
        if len(family) == 2:
            return {k: -v for k, v in out.items()}
        return out

    mutant = cech.PrefactorizationData(
        "mutant", poset, base.values, "tensor", corrupt, base.pointed
    )
    ok, _ = cech.validate_prefactorization(mutant)
    assert not ok
    print(f"criterion 11 (prefactorization audits + mutants): PASS "
          f"({time.time() - t0:.2f}s)")


def _rand(rng, f, degs):
    d = rng.choice(sorted(degs))
    labs = rng.sample(degs[d], min(2, len(degs[d])))
    return d, {lab: f.coerce(rng.choice([-2, -1, 1, 2])) for lab in labs}


def _add(f, a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        acc = f.add(out.get(k, f.zero), f.mul(f.coerce(sign), v))
        if f.is_zero(acc):
            out.pop(k, None)
        else:
            out[k] = acc
    return out

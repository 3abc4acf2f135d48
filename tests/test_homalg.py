"""Chain complexes: constructions, homology, windows, totalization."""

import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from hoch import cech, cli, dga, homalg, simp
from hoch import hochschild as hh
from hoch.homalg import (
    NEG_INF,
    POS_INF,
    ChainComplex,
    ChainMap,
    Coefficients,
    WindowError,
    cone,
    dual,
    field_complex,
    hom_complex,
    tensor,
    total_complex,
    zero_complex,
)
from tests_support import constant_simplicial


def two_term(coefficients, label="a", degree=-1):
    """k in degrees (degree, degree+1) with identity differential."""
    c = ChainComplex(coefficients)
    c.add_element((label, 0), degree, 0)
    c.add_element((label, 1), degree + 1, 0)
    c.set_differential_entry((label, 0), (label, 1), coefficients.field.one)
    return c.freeze(support=(degree, degree + 1))


def test_zero_and_field_complex(QQ):
    assert zero_complex(QQ).homology_dims((-3, 3)) == {}
    k = field_complex(QQ)
    assert k.betti((-2, 2)) == {-2: 0, -1: 0, 0: 1, 1: 0, 2: 0}


def test_homology_requires_window_margin(QQ):
    c = hh.hochschild_chain(simp.circle(8), dga.truncated_polynomial(QQ, 2),
                            window=(-6, 0))
    with pytest.raises(WindowError):
        c.complex.homology_dims((-7, 0))


def test_weights_materialized_guard(QQ):
    P = dga.polynomial(QQ, max_weight=2)
    c = hh.hochschild_chain(simp.circle(4), P, window=(-3, 0), weights=[1, 2])
    with pytest.raises(WindowError):
        c.complex.homology_dims((-2, 0))  # all weights not materialized
    with pytest.raises(WindowError):
        c.complex.homology_dims((-2, 0), weights=[3])
    assert c.complex.homology_dims((-2, 0), weights=[1])


def test_tensor_unit_and_shift(QQ):
    C = two_term(QQ)
    k = field_complex(QQ)
    T = tensor(C, k)
    assert [T.dim(d) for d in (-1, 0)] == [1, 1]
    assert T.betti((-1, 0)) == C.betti((-1, 0))
    s1 = field_complex(QQ, degree=-1)
    s2 = tensor(s1, s1)
    assert s2.dim(-2) == 1 and s2.betti((-2, 0)) == {-2: 1, -1: 0, 0: 0}


def test_tensor_koszul_d_squared(QQ):
    rng = random.Random(3)
    for trial in range(40):
        C = two_term(QQ, "a", rng.randint(-3, 0))
        D = two_term(QQ, "b", rng.randint(-3, 0))
        T = tensor(C, D)
        ok, _ = T.check_differential()
        assert ok
        E = tensor(T, two_term(QQ, "c", rng.randint(-2, 0)))
        assert E.check_differential()[0]


def test_tensor_associative_betti(QQ):
    C = two_term(QQ, "a", -1)
    D = field_complex(QQ, degree=-2)
    E = two_term(QQ, "c", 0)
    left = tensor(tensor(C, D), E)
    right = tensor(C, tensor(D, E))
    assert left.betti((-5, 1)) == right.betti((-5, 1))


def test_hom_complex_cases(QQ):
    C = two_term(QQ, degree=-2)
    k = field_complex(QQ)
    H = hom_complex(k, C)
    assert H.betti((-3, 1)) == C.betti((-3, 1))
    D = dual(C)
    # field duality mirrors chain dimensions
    for d in range(-3, 3):
        assert D.dim(d) == C.dim(-d)
    assert D.check_differential()[0]


def test_hom_matches_classical_cochain_dims(QQ):
    # Hom(CH_{S^1}(A, k), A) has the classical cochain dimensions 2,2,2,2,2
    A = dga.truncated_polynomial(QQ, 2)
    k_mod = dga.augmentation_module(A)
    chains = hh.hochschild_chain_with_coeff(
        simp.circle(8), A, k_mod, window=(-6, 0)
    ).complex
    a_cx = ChainComplex(QQ)
    for p in range(A.dim):
        a_cx.add_element(A.labels[p], A.degrees[p], 0)
    a_cx.freeze(support=(0, 0))
    H = hom_complex(chains, a_cx)
    assert [H.dim(d) for d in range(5)] == [2, 2, 2, 2, 2]
    assert H.check_differential()[0]


def test_cone_identity_zero_and_gluing(QQ):
    f = QQ.field
    C = two_term(QQ, degree=-1)
    idm = ChainMap(C, C)
    for block in C.blocks.values():
        for lab in block:
            idm.set_entry(lab, lab, f.one)
    assert idm.is_chain_map()
    assert cone(idm).betti((-3, 2)) == {d: 0 for d in range(-3, 3)}
    zmap = ChainMap(zero_complex(QQ), C)
    cz = cone(zmap)
    assert cz.betti((-2, 1)) == C.betti((-2, 1))


def test_cone_degree_mismatch_rejected(QQ):
    C = two_term(QQ)
    shifted = ChainMap(C, C, shift=1)
    with pytest.raises(ValueError):
        cone(shifted)


def test_cone_excision_gluing_circle(QQ):
    # two intervals glued over two points: dims (1, 1) at degrees (0, -1)
    f = QQ.field
    Z = ChainComplex(QQ)
    Z.add_element("z1", 0, 0)
    Z.add_element("z2", 0, 0)
    Z.freeze(support=(0, 0))
    XY = ChainComplex(QQ)
    XY.add_element("x", 0, 0)
    XY.add_element("y", 0, 0)
    XY.freeze(support=(0, 0))
    fm = ChainMap(Z, XY)
    for z in ("z1", "z2"):
        fm.set_entry(z, "x", f.one)
        fm.set_entry(z, "y", f.coerce(-1))
    assert cone(fm).betti((-1, 0)) == {0: 1, -1: 1}


def test_check_differential_witness(QQ):
    c = ChainComplex(QQ)
    for lab, d in (("a", -2), ("b", -1), ("c", 0)):
        c.add_element(lab, d, 0)
    one = QQ.field.one
    c.set_differential_entry("a", "b", one)
    c.set_differential_entry("b", "c", one)  # d∘d = 1 != 0
    c.freeze()
    ok, witness = c.check_differential()
    assert not ok and witness == "a"


def test_constant_simplicial_total(QQ):
    V = two_term(QQ, degree=-1)
    scc = constant_simplicial(V, 5)
    tot = total_complex(scc, window=(-4, 1))
    assert tot.check_differential()[0]
    assert tot.betti((-3, 0)) == V.betti((-3, 0))


# -- reference builder and totalization, one face at a time ---------------


def _reference_simplicial_ch(Y, A, module, window, weights, normalized=True):
    """Reference builder: the levels of ``build_levels`` and one ChainMap
    per face (n, r), filled entry by entry."""
    levels, exhausted, _blocks, _supports = hh.build_levels(
        Y, A, module, window, weights, normalized
    )
    faces = {}
    for n in range(1, len(levels)):
        src, tgt = levels[n], levels[n - 1]
        for r in range(n + 1):
            setmap = tuple(Y.face_tab[n][r])
            fmap = ChainMap(src, tgt)
            for mono in src.index:
                image = dga.apply_setmap(
                    A, setmap, mono, module=module,
                    module_slot=Y.basepoint[n] if module else None,
                )
                for timg, v in image.items():
                    full = timg + (A.unit,) * (Y.card(n - 1) - len(timg))
                    if full in tgt.index:
                        fmap.set_entry(mono, full, v)
                    else:
                        assert normalized and not hh._is_nondegenerate(
                            Y, n - 1, A, full
                        ), "missing face target"
            faces[(n, r)] = fmap
    return SimpleNamespace(
        levels=levels, faces=faces, exhausted=exhausted,
        top_level=len(levels) - 1,
    )


def _reference_total_complex(simp_, window=None):
    """Reference totalization: every entry of every face added in by
    ``set_differential_entry`` under its labels."""
    levels = simp_.levels
    coeff = levels[0].coefficients
    f = coeff.field
    out = ChainComplex(coeff)
    for n, lvl in enumerate(levels):
        for (d, w), block in sorted(lvl.blocks.items()):
            for lab in block:
                out.add_element((n, lab), d - n, w)
    for n, lvl in enumerate(levels):
        for (d, w), block in sorted(lvl.blocks.items()):
            int_sign = f.coerce(1) if n % 2 == 0 else f.coerce(-1)
            mat = lvl.diff.get((d, w))
            if mat is not None:
                targets = lvl.blocks.get((d + 1, w), [])
                for col in range(len(block)):
                    for row, v in mat.column(col).items():
                        out.set_differential_entry(
                            (n, block[col]), (n, targets[row]),
                            f.mul(int_sign, v),
                        )
            if n == 0:
                continue
            for r in range(n + 1):
                fm = simp_.faces[(n, r)].blocks.get((d, w))
                if fm is None:
                    continue
                sgn = f.coerce(1) if r % 2 == 0 else f.coerce(-1)
                targets = levels[n - 1].blocks.get((d, w), [])
                for col in range(len(block)):
                    for row, v in fm.column(col).items():
                        out.set_differential_entry(
                            (n, block[col]), (n - 1, targets[row]),
                            f.mul(sgn, v),
                        )
    if simp_.exhausted:
        win = support = (NEG_INF, POS_INF)
    else:
        hi_int = 0
        for lvl in levels:
            for (d, _w) in lvl.blocks:
                hi_int = max(hi_int, d)
        win = (hi_int - simp_.top_level, POS_INF)
        support = (NEG_INF, hi_int)
    if window is not None:
        win = (max(win[0], window[0]), min(win[1], window[1]))
    return out.freeze(window=win, support=support)


def _assert_same_total(got, want):
    """Equal blocks (labels in order), window, support and entries, with
    Fraction entries over Q and ints in [0, p) over F_p."""
    assert got.blocks == want.blocks
    assert got.index == want.index
    assert (got.window, got.support) == (want.window, want.support)
    p = got.coefficients.p
    nnz = 0
    for key in set(got.diff) | set(want.diff):
        g = {(r, c): v for r, c, v in got.d_matrix(*key).entries()}
        assert g == {(r, c): v for r, c, v in want.d_matrix(*key).entries()}
        mat = got.d_matrix(*key)
        assert (mat.nrows, mat.ncols) == (got.dim(key[0] + 1, key[1]),
                                          got.dim(*key))
        for v in g.values():
            if p is None:
                assert type(v) is Fraction and v != 0
            else:
                assert type(v) is int and 0 < v < p
        nnz += len(g)
    assert nnz > 0


F7 = Coefficients("prime-field", 7)

# id -> (space, algebra, module or None, window, weights, normalized)
REFERENCE_CASES = {
    "sphere2-polynomial": lambda: (
        simp.sphere_small(2, 6), dga.polynomial(max_weight=3), None,
        (-4, 0), [1, 2, 3], True),
    "sphere3-polynomial": lambda: (
        simp.sphere_small(3, 6), dga.polynomial(max_weight=2), None,
        (-4, 0), [1, 2], True),
    # the sphere3-hkr benchmark workload (golden job criterion05b)
    "sphere3-hkr": lambda: (
        simp.sphere_small(3, 9), dga.polynomial(max_weight=3), None,
        (-10, 0), [1, 2, 3], True),
    "circle-trunc3": lambda: (
        simp.circle(6), dga.truncated_polynomial(truncation=3), None,
        (-4, 0), None, True),
    "circle-trunc3-unnormalized": lambda: (
        simp.circle(6), dga.truncated_polynomial(truncation=3), None,
        (-3, 0), None, False),
    "torus-F7": lambda: (
        simp.torus(3), dga.truncated_polynomial(F7, 2), None, (-1, 0), None,
        True),
    "torus-F7-unnormalized": lambda: (
        simp.torus(3), dga.exterior(F7), None, (-1, 0), None, False),
    "circle-self": lambda: (
        simp.circle(6), dga.truncated_polynomial(truncation=3),
        dga.algebra_as_bimodule, (-3, 0), None, True),
    "circle-self-F7-unnormalized": lambda: (
        simp.circle(6), dga.truncated_polynomial(F7, 3),
        dga.algebra_as_bimodule, (-2, 0), None, False),
    "sphere2-augmentation": lambda: (
        simp.sphere_small(2, 6), dga.truncated_polynomial(truncation=3),
        dga.augmentation_module, (-3, 0), None, True),
    "sphere2-self-F7": lambda: (
        simp.sphere_small(2, 6), dga.polynomial(F7, max_weight=2),
        dga.algebra_as_bimodule, (-3, 0), [0, 1, 2], True),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_total_complex_matches_reference(case):
    Y, A, module, window, weights, normalized = REFERENCE_CASES[case]()
    if module is not None:
        module = module(A)
    args = (Y, A, module, window, weights, normalized)
    scc = hh.build_simplicial_ch(*args)
    ref = _reference_simplicial_ch(*args)
    assert [l.blocks for l in scc.levels] == [l.blocks for l in ref.levels]
    assert sorted(scc.faces) == list(range(1, len(scc.levels)))
    _assert_same_total(total_complex(scc), _reference_total_complex(ref))
    _assert_same_total(total_complex(scc, window=(-2, 0)),
                       _reference_total_complex(ref, window=(-2, 0)))


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_every_pushed_face_image_lands(case, monkeypatch):
    """In both algebra classes a product of non-units is never a unit
    multiple, so a nonzero face image has its non-units on d_r(support):
    with the provably degenerate faces skipped, every image that is pushed
    lands, and no degeneracy check is made."""
    Y, A, module, window, weights, normalized = REFERENCE_CASES[case]()
    checked = []
    monkeypatch.setattr(hh, "_is_nondegenerate",
                        lambda *args: checked.append(args))
    hh.build_simplicial_ch(Y, A, module and module(A), window, weights,
                           normalized)
    assert checked == []


def test_total_complex_matches_reference_with_a_differential(koszul_dga):
    cases = [(simp.circle(6), True), (simp.circle(6), False),
             (simp.sphere_small(2, 6), True)]
    for Y, normalized in cases:
        args = (Y, koszul_dga, None, (-3, 0), None, normalized)
        scc = hh.build_simplicial_ch(*args)
        assert any(l.diff for l in scc.levels)
        _assert_same_total(
            total_complex(scc),
            _reference_total_complex(_reference_simplicial_ch(*args)),
        )


JOBS = Path(__file__).resolve().parent.parent / "jobs"


# -- reference Čech builder: one branch per regime, one ChainMap per face ---


def _reference_labels(cx):
    return [lab for block in cx.blocks.values() for lab in block]


def _reference_combos(F, alpha):
    out = []
    for combo in product(*alpha):
        inter = F.poset.family_intersection(list(combo))
        if inter is not None:
            out.append((combo, inter))
    return out


def _reference_family_tensor_basis(F, alpha):
    combos = _reference_combos(F, alpha)
    if F.mode == "coproduct":
        out = []
        for combo, inter in combos:
            for lab in _reference_labels(F.value(inter)):
                out.append(("sum", combo, lab))
        return out
    pools = []
    for combo, inter in combos:
        pools.append([(combo, lab) for lab in _reference_labels(F.value(inter))])
    return [("tens",) + tuple(t) for t in product(*pools)]


def _reference_family_label_degree(F, lab):
    if lab[0] == "sum":
        _, combo, l = lab
        inter = F.poset.family_intersection(list(combo))
        d, w, _ = F.value(inter).index[l]
        return d, w
    deg = 0
    wt = 0
    for combo, l in lab[1:]:
        inter = F.poset.family_intersection(list(combo))
        d, w, _ = F.value(inter).index[l]
        deg += d
        wt += w
    return deg, wt


def _reference_family_internal_diff(F, lab):
    f = F.coefficients.field
    out = {}
    if lab[0] == "sum":
        _, combo, l = lab
        inter = F.poset.family_intersection(list(combo))
        for tgt, v in F.value(inter).d_apply({l: f.one}).items():
            out[("sum", combo, tgt)] = v
        return out
    parts = lab[1:]
    run = 0
    for idx, (combo, l) in enumerate(parts):
        inter = F.poset.family_intersection(list(combo))
        cx = F.value(inter)
        d_img = cx.d_apply({l: f.one})
        if d_img:
            sign = f.coerce(-1 if run % 2 else 1)
            for tgt, v in d_img.items():
                new = list(parts)
                new[idx] = (combo, tgt)
                dga._acc(out, ("tens",) + tuple(new), f.mul(sign, v), f)
        run += cx.index[l][0]
    return out


def _reference_face_image(F, alpha, lab, s):
    f = F.coefficients.field
    poset = F.poset
    beta = alpha[:s] + alpha[s + 1 :]
    if F.mode == "coproduct":
        _, combo, l = lab
        tcombo = combo[:s] + combo[s + 1 :]
        src_open = poset.family_intersection(list(combo))
        tgt_open = poset.family_intersection(list(tcombo))
        out = {}
        for k, v in F.ext(src_open, tgt_open, l).items():
            out[("sum", tcombo, k)] = v
        return out
    parts = list(lab[1:])
    groups = {}
    for idx, (combo, l) in enumerate(parts):
        tcombo = combo[:s] + combo[s + 1 :]
        groups.setdefault(tcombo, []).append((idx, combo, l))
    for combo, _inter in _reference_combos(F, beta):
        groups.setdefault(combo, [])
    sign = dga.koszul_sign([
        (combo[:s] + combo[s + 1 :],
         F.value(poset.family_intersection(list(combo))).index[l][0])
        for combo, l in parts
    ])
    results = [(f.coerce(sign), {})]
    for tcombo in sorted(groups):
        members = groups[tcombo]
        tgt_open = poset.family_intersection(list(tcombo))
        family = []
        factors = []
        for (_idx, combo, l) in members:
            family.append(poset.family_intersection(list(combo)))
            factors.append(l)
        image = F.rho(tuple(family), tuple(factors), tgt_open)
        new = []
        for coeff, assign in results:
            for k, v in image.items():
                a2 = dict(assign)
                a2[tcombo] = k
                new.append((f.mul(coeff, v), a2))
        results = new
    out = {}
    for coeff, assign in results:
        if f.is_zero(coeff):
            continue
        new_parts = []
        for combo, inter in _reference_combos(F, beta):
            new_parts.append((combo, assign[combo]))
        dga._acc(out, ("tens",) + tuple(new_parts), coeff, f)
    return out


def _reference_augmentation(F, basis0):
    """{(source label, target label): coeff} of ε on level 0."""
    out = {}
    for (alpha, lab) in basis0:
        if F.mode == "coproduct":
            _, combo, l = lab
            src = F.poset.family_intersection(list(combo))
            image = F.ext(src, F.poset.union_id, l)
        else:
            family = []
            factors = []
            for combo, l in lab[1:]:
                family.append(F.poset.family_intersection(list(combo)))
                factors.append(l)
            image = F.rho(tuple(family), tuple(factors), F.poset.union_id)
        for k, v in image.items():
            out[((alpha, _parts(lab)), k)] = v
    return out


def _parts(lab):
    """The label bijection ("sum", c, l) ↦ ((c, l),), ("tens", *p) ↦ p."""
    return ((lab[1], lab[2]),) if lab[0] == "sum" else lab[1:]


def _reference_cech(F, cover, truncation):
    """The reference levels (labels through ``_parts``) and one ChainMap
    per face (i, s), filled entry by entry."""
    PU = sorted(
        fam for fam in F.poset.disjoint_families(max_size=3)
        if all(u in cover for u in fam)
    )
    levels, bases = [], []
    for i in range(truncation + 1):
        c = ChainComplex(F.coefficients)
        basis = [
            (alpha, lab)
            for alpha in product(PU, repeat=i + 1)
            if all(alpha[j] != alpha[j + 1] for j in range(i))
            for lab in _reference_family_tensor_basis(F, alpha)
        ]
        for (alpha, lab) in basis:
            c.add_element((alpha, _parts(lab)),
                          *_reference_family_label_degree(F, lab))
        for (alpha, lab) in basis:
            for tgt, v in _reference_family_internal_diff(F, lab).items():
                c.set_differential_entry(
                    (alpha, _parts(lab)), (alpha, _parts(tgt)), v
                )
        levels.append(c.freeze(support=(NEG_INF, POS_INF)))
        bases.append(basis)
    faces = {}
    for i in range(1, truncation + 1):
        for s in range(i + 1):
            fmap = faces[(i, s)] = ChainMap(levels[i], levels[i - 1])
            for (alpha, lab) in bases[i]:
                beta = alpha[:s] + alpha[s + 1 :]
                if any(beta[j] == beta[j + 1] for j in range(i - 1)):
                    continue
                for tlab, v in _reference_face_image(F, alpha, lab, s).items():
                    fmap.set_entry((alpha, _parts(lab)), (beta, _parts(tlab)),
                                   v)
    ref = SimpleNamespace(levels=levels, faces=faces, exhausted=False,
                          top_level=truncation)
    return ref, bases[0]


def _assert_same_cech(C, F, truncation):
    ref, basis0 = _reference_cech(F, C.cover, truncation)
    _assert_same_total(C.total, _reference_total_complex(ref))
    if C.augmentation is None:
        return
    got = {}
    src, tgt = C.augmentation.source, C.augmentation.target
    for (d, w), mat in C.augmentation.blocks.items():
        for row, col, v in mat.entries():
            got[(src.blocks[(d, w)][col], tgt.blocks[(d, w)][row])] = v
    assert got == _reference_augmentation(F, basis0)


@pytest.mark.parametrize(
    "job", ["criterion10_cosheaf_cech.json", "extra_tensor_cech.json"]
)
def test_cech_total_matches_reference(job, monkeypatch):
    spec = cli.load_jobspec(json.loads((JOBS / job).read_text()))
    kept = {}
    real_cech_complex = cech.cech_complex

    def keep_precosheaf(F, *args):
        kept["F"] = F
        return real_cech_complex(F, *args)

    def keep_simplicial(scc, window=None):
        kept["scc"] = scc
        return total_complex(scc, window)

    monkeypatch.setattr(cech, "cech_complex", keep_precosheaf)
    monkeypatch.setattr(cech, "total_complex", keep_simplicial)
    C = cli._run_cech(spec, cli.parse_coefficients(spec))
    truncation = spec["cover"]["truncation"]
    ref, _ = _reference_cech(kept["F"], C.cover, truncation)
    levels = kept["scc"].levels
    assert [l.blocks for l in levels] == [l.blocks for l in ref.levels]
    _assert_same_cech(C, kept["F"], truncation)


F3 = Coefficients("prime-field", 3)
AUG_ARCS = [(0, Fraction(9, 20)), (Fraction(1, 20), Fraction(1, 10)),
            (Fraction(1, 10), Fraction(1, 10)), (Fraction(1, 4), Fraction(1, 10))]
STRATA = [("r", Fraction(2, 5)), ("m", Fraction(1, 4), Fraction(3, 4)),
          ("l", Fraction(3, 5))]


# a = [0, 1/10) and b = [1/10, 3/20) are disjoint, so are c = [1/10, 1/5)
# and d = [1/20, 1/10); a < b and c < d as ids, but a meets d and b meets
# c, so the combos (a, d) < (b, c) of ((a, b), (c, d)) land in the other
# order, (c) < (d), under the face that drops (a, b): that face regroups
# two odd parts across each other
CROSSING_ARCS = [(0, Fraction(9, 20)), (0, Fraction(1, 10)),
                 (Fraction(1, 10), Fraction(1, 20)),
                 (Fraction(1, 10), Fraction(1, 10)),
                 (Fraction(1, 20), Fraction(1, 20))]


def _arc_poset(arcs=AUG_ARCS):
    poset = cech.circle_arc_poset(arcs)
    poset.union_id = "arc(0,9/20)"
    return poset


def _stratified_exterior(k):
    E = dga.exterior(k)
    m = dga.algebra_as_bimodule(E)
    return cech.interval_stratified(m, E, m, cech.interval_poset(STRATA))


# name -> coefficients -> prefactorization data
CECH_CASES = {
    "constant-Q": lambda k: cech.constant_precosheaf(_arc_poset(), k),
    "trivial": lambda k: cech.trivial_prefactorization(_arc_poset(), k),
    "arcs-trunc2": lambda k: cech.circle_arc_algebra(
        dga.truncated_polynomial(k, 2), _arc_poset()),
    "arcs-exterior": lambda k: cech.circle_arc_algebra(
        dga.exterior(k), _arc_poset()),
    "arcs-exterior-reversed": lambda k: cech.circle_arc_algebra(
        dga.exterior(k), _arc_poset(), orientation=-1),
    "arcs-exterior-crossing": lambda k: cech.circle_arc_algebra(
        dga.exterior(k), _arc_poset(CROSSING_ARCS)),
    "interval-exterior": _stratified_exterior,
    "interval-constant-Q": lambda k: cech.constant_precosheaf(
        cech.interval_poset(STRATA), k),
}


@pytest.mark.parametrize("truncation", [1, 2])
@pytest.mark.parametrize("k", [Coefficients(), F3, F7], ids=["Q", "F3", "F7"])
@pytest.mark.parametrize("case", sorted(CECH_CASES))
def test_cech_matches_reference(case, k, truncation):
    F = CECH_CASES[case](k)
    C = cech.cech_complex(F, F.poset.opens, truncation)
    assert (C.augmentation is None) == (F.poset.ambient == "interval")
    _assert_same_cech(C, F, truncation)


def test_point_retract_via_total(QQ, exterior):
    C = hh.hochschild_chain(simp.point(8), exterior, window=(-6, 0))
    assert C.betti((-6, 0)) == {0: 1, -1: 1, -2: 0, -3: 0, -4: 0, -5: 0, -6: 0}


def test_normalized_vs_unnormalized_totalizations(QQ, trunc2):
    scc = hh.build_simplicial_ch(
        simp.circle(6), trunc2, None, (-4, 0), None, normalized=False
    )
    tot_raw = total_complex(scc)
    assert tot_raw.check_differential()[0]
    direct = hh.hochschild_chain(simp.circle(6), trunc2, window=(-4, 0))
    assert direct.betti((-4, 0)) == tot_raw.betti((-4, 0))
    assert tot_raw.betti((-4, 0)) == {-4: 1, -3: 1, -2: 1, -1: 1, 0: 2}


def test_euler_characteristic_per_weight(QQ, trunc2):
    # for a per-weight-complete complex the alternating sums agree
    C = hh.hochschild_chain(simp.circle(8), trunc2, window=(-6, 0),
                            weights=[0, 1, 2, 3]).complex
    table = C.homology_dims((-6, 0), weights=[0, 1, 2, 3])
    euler_chain = C.euler_per_weight()
    for w in (0, 1, 2, 3):
        euler_h = sum(
            (-1) ** (d % 2) * v for (d, ww), v in table.items() if ww == w
        )
        assert euler_h == euler_chain.get(w, 0)


@pytest.mark.parametrize("sphere_dim", [1, 2])
def test_homology_ranks_each_block_once(QQ, trunc2, monkeypatch, sphere_dim):
    lo, hi = window = (-4, 0)
    X = simp.sphere_small(sphere_dim, 8)
    C = hh.hochschild_chain(X, trunc2, window=window).complex
    real_rank = homalg.rank
    ranked = []

    def counting_rank(mat):
        ranked.append(mat)
        return real_rank(mat)

    monkeypatch.setattr(homalg, "rank", counting_rank)
    table = C.homology_dims(window)
    monkeypatch.undo()
    # the blocks d: (d, w) -> (d + 1, w) with both sides non-empty that
    # touch the window
    blocks = [
        (d, w) for w in C.weights() for d in range(lo - 1, hi + 1)
        if C.dim(d, w) and C.dim(d + 1, w)
    ]
    assert len(ranked) == len(blocks)
    assert len({id(mat) for mat in ranked}) == len(ranked)
    assert all(mat.nrows and mat.ncols for mat in ranked)
    # the table of ranking each map twice, as outgoing and as incoming
    expected = {}
    for w in C.weights():
        for d in range(lo, hi + 1):
            r_out = real_rank(C.d_matrix(d, w)) if C.dim(d + 1, w) else 0
            r_in = real_rank(C.d_matrix(d - 1, w)) if C.dim(d - 1, w) else 0
            if C.dim(d, w) - r_out - r_in:
                expected[(d, w)] = C.dim(d, w) - r_out - r_in
    assert table == expected


def test_chain_map_validation(QQ):
    C = two_term(QQ, degree=-1)
    bad = ChainMap(C, C)
    bad.set_entry(("a", 0), ("a", 0), QQ.field.one)
    # misses the degree +1 component, so it does not commute with d
    assert not bad.is_chain_map()


def test_dual_mirrors_betti(QQ):
    C = hh.hochschild_chain(simp.circle(7), dga.exterior(QQ),
                            window=(-4, 0)).complex
    D = dual(C)
    cb = C.betti((-4, 0))
    db = D.betti((0, 4))
    assert all(db[-d] == cb[d] for d in range(-4, 1))


def test_tensor_coefficient_mismatch(QQ):
    from hoch.homalg import Coefficients

    F5 = Coefficients("prime-field", 5)
    C = two_term(QQ)
    D = ChainComplex(F5)
    D.add_element("k", 0, 0)
    D.freeze()
    with pytest.raises(ValueError, match="coefficient"):
        tensor(C, D)

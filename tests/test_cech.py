"""Prefactorization data, validators, Čech complexes, excision shadows."""

from fractions import Fraction

import pytest

from hoch import cech, classical, dga
from hoch.cech import CoverError
from hoch.homalg import Coefficients
from hoch.linalg import _acc
from tests_support import short_words

THREE_ARCS = [
    (Fraction(0), Fraction(2, 5)),
    (Fraction(1, 3), Fraction(2, 5)),
    (Fraction(2, 3), Fraction(2, 5)),
]


@pytest.fixture(scope="module")
def arc_poset():
    return cech.circle_arc_poset(THREE_ARCS)


def test_circle_poset_closure(arc_poset):
    assert len(arc_poset.opens) == 6  # three arcs + three overlaps
    for i in arc_poset.opens:
        for j in arc_poset.opens:
            inter = arc_poset.intersection(i, j)
            assert inter is None or inter in arc_poset.opens


def test_arc_length_guard():
    with pytest.raises(CoverError):
        cech.circle_arc_poset([(0, Fraction(3, 5))])


def test_interval_poset_arithmetic():
    ip = cech.interval_poset(
        [("r", Fraction(2, 5)), ("m", Fraction(1, 4), Fraction(3, 4)),
         ("l", Fraction(3, 5))]
    )
    r = "[0,2/5)"
    m = "(1/4,3/4)"
    left = "(3/5,1]"
    assert ip.intersection(r, m) == "(1/4,2/5)"
    assert ip.intersection(r, left) is None
    assert ip.intersection(m, left) == "(3/5,3/4)"
    assert ip.leq("(1/4,2/5)", r)


def test_trivial_prefactorization_validates(arc_poset, QQ):
    F = cech.trivial_prefactorization(arc_poset, QQ)
    ok, wit = cech.validate_prefactorization(F)
    assert ok, wit


def test_arc_algebra_validates(arc_poset, QQ, trunc2, exterior):
    for A in (trunc2, exterior):
        F = cech.circle_arc_algebra(A, arc_poset)
        ok, wit = cech.validate_prefactorization(F)
        assert ok, (A.name, wit)


def test_arc_algebra_structure_map_order(arc_poset, QQ, trunc3):
    # two disjoint arcs inside a bigger arc multiply in arc order
    F = cech.circle_arc_algebra(trunc3, arc_poset)
    poset = arc_poset
    target = None
    pair = None
    for w in poset.opens:
        fams = [fam for fam in poset.disjoint_families(inside=w) if len(fam) == 2]
        if fams:
            target = w
            pair = fams[0]
            break
    assert pair is not None
    x = trunc3.position["x^1"]
    out = F.rho(pair, (x, x), target)
    assert out == {trunc3.position["x^2"]: QQ.field.one}


def test_orientation_reversal_is_opposite(arc_poset, QQ, exterior):
    # reversing the orientation produces the structure maps of A^op
    A = exterior
    rev = cech.circle_arc_algebra(A, arc_poset, orientation=-1)
    opp = cech.circle_arc_algebra(classical.opposite(A), arc_poset, orientation=1)
    ok, wit = cech.validate_prefactorization(rev)
    assert ok, wit
    poset = arc_poset
    for w in poset.opens:
        for fam in poset.disjoint_families(inside=w, max_size=2):
            for factors in cech._factor_tuples(rev, fam):
                assert rev.rho(fam, factors, w) == opp.rho(fam, factors, w)


def test_mutant_sign_fault_detected(arc_poset, QQ, trunc2):
    F = cech.circle_arc_algebra(trunc2, arc_poset)
    orig = F.rho_raw

    def corrupted(family, factors, target):
        out = orig(family, factors, target)
        if len(family) == 2:
            return {k: -v for k, v in out.items()}
        return out

    bad = cech.PrefactorizationData(
        "mutant", arc_poset, F.values, "tensor", corrupted, F.pointed
    )
    ok, wit = cech.validate_prefactorization(bad)
    assert not ok
    assert wit[0] == "associativity"


def test_koszul_dropping_mutant_detected(arc_poset, QQ, exterior):
    # drop the reordering sign: the symmetry audit must catch it on an
    # algebra where odd-degree elements multiply nontrivially
    E = classical.tensor_algebra(exterior, exterior, name="Λ⊗Λ")
    F = cech.circle_arc_algebra(E, arc_poset)
    ok, wit = cech.validate_prefactorization(F)
    assert ok, wit

    def no_koszul(family, factors, target):
        arc = arc_poset.arc_data
        t0 = arc[target][0]
        order = sorted(
            range(len(family)), key=lambda i: (arc[family[i]][0] - t0) % 1
        )
        f = E.coefficients.field
        out = {E.unit: f.one}  # reordering sign dropped
        for i in order:
            new = {}
            for cur, c in out.items():
                for k, v in E.product(cur, factors[i]).items():
                    new[k] = f.mul(c, v)
            out = new
        return out

    bad = cech.PrefactorizationData(
        "nokoszul", arc_poset, F.values, "tensor", no_koszul, F.pointed
    )
    ok, wit = cech.validate_prefactorization(bad)
    assert not ok
    assert wit[0] in ("symmetry", "associativity")


def test_cosheaf_cech_three_arcs(arc_poset, QQ):
    F = cech.constant_precosheaf(arc_poset, QQ)
    ok, _ = cech.validate_prefactorization(F)
    assert ok
    T, _ = cech.cech_complex(F, arc_poset.opens, truncation=2)
    assert T.check_differential()[0]
    assert T.betti((-1, 0)) == {0: 1, -1: 1}


def test_cech_single_open(QQ):
    poset = cech.circle_arc_poset([(0, Fraction(1, 3))])
    F = cech.constant_precosheaf(poset, QQ)
    T, _ = cech.cech_complex(F, poset.opens, truncation=2)
    assert T.betti((-1, 0)) == {0: 1, -1: 0}


def test_cech_two_interval_cover_contractible(QQ):
    ip = cech.interval_poset([("r", Fraction(3, 5)), ("l", Fraction(2, 5))])
    F = cech.constant_precosheaf(ip, QQ)
    T, _ = cech.cech_complex(F, ip.opens, truncation=2)
    assert T.betti((-1, 0)) == {0: 1, -1: 0}


def test_interval_poset_names_normalized_opens(QQ):
    # "6/10" and "3/5" spell one endpoint: one open, one id, one complex
    spellings = [[("r", "6/10"), ("l", "2/5")], [("r", "3/5"), ("l", "2/5")]]
    posets = [cech.interval_poset(opens) for opens in spellings]
    assert posets[0].opens == posets[1].opens == [
        "(2/5,1]", "(2/5,3/5)", "[0,3/5)"
    ]
    totals = [
        cech.cech_complex(cech.constant_precosheaf(ip, QQ), ip.opens, 2)[0]
        for ip in posets
    ]
    assert totals[0].blocks == totals[1].blocks
    assert max(map(len, totals[0].blocks.values())) == 12
    for key in totals[1].diff:
        assert (sorted(totals[0].d_matrix(*key).entries())
                == sorted(totals[1].d_matrix(*key).entries()))


def test_cech_subcover_must_be_closed(arc_poset, QQ):
    F = cech.constant_precosheaf(arc_poset, QQ)
    arcs_only = [u for u in arc_poset.opens
                 if arc_poset.arc_data[u][1] == Fraction(2, 5)]
    with pytest.raises(CoverError):
        cech.cech_complex(F, arcs_only, truncation=1)


def test_cech_tensor_mode_trivial(arc_poset, QQ):
    F = cech.trivial_prefactorization(arc_poset, QQ)
    T, _ = cech.cech_complex(F, arc_poset.opens, truncation=1)
    assert T.check_differential()[0]


def test_cech_augmentation_chain_map(QQ):
    # a two-arc poset whose union is one arc of the poset
    poset = cech.circle_arc_poset(
        [(0, Fraction(2, 5)), (Fraction(1, 5), Fraction(1, 5))]
    )
    poset.union_id = "arc(0,2/5)"
    F = cech.constant_precosheaf(poset, QQ)
    _, eps = cech.cech_complex(F, poset.opens, truncation=2)
    assert eps is not None
    assert eps.is_chain_map()


AUG_ARCS = [(0, Fraction(9, 20)), (Fraction(1, 20), Fraction(1, 10)),
            (Fraction(1, 10), Fraction(1, 10)), (Fraction(1, 4), Fraction(1, 10))]


def _augmented_faces(T, eps):
    """ε∘∂₁ on the level-1 elements, read off the total differential, and
    the number of level-1 elements."""
    f = T.coefficients.field
    eps_of = {}
    for key, mat in eps.blocks.items():
        for row, col, v in mat.entries():
            src, tgt = eps.source.blocks[key][col], eps.target.blocks[key][row]
            eps_of.setdefault(src, {})[tgt] = v
    out = {}
    for (d, w), block in T.blocks.items():
        targets = T.blocks.get((d + 1, w), [])
        for row, col, v in T.d_matrix(d, w).entries():
            (n, src), (m, tgt) = block[col], targets[row]
            if (n, m) == (1, 0):
                for k, e in eps_of.get(tgt, {}).items():
                    _acc(out, (src, k), f.mul(v, e), f)
    level1 = sum(n == 1 for block in T.blocks.values() for n, _ in block)
    return out, level1


@pytest.mark.parametrize("p", [None, 3])
def test_augmentation_kills_the_faces_in_both_regimes(p):
    k = Coefficients() if p is None else Coefficients("prime-field", p)
    poset = cech.circle_arc_poset(AUG_ARCS)
    poset.union_id = "arc(0,9/20)"
    data = [
        cech.constant_precosheaf(poset, k),
        cech.trivial_prefactorization(poset, k),
        cech.circle_arc_algebra(dga.exterior(k), poset),
        cech.circle_arc_algebra(dga.truncated_polynomial(k, 2), poset),
    ]
    for F in data:
        T, eps = cech.cech_complex(F, poset.opens, truncation=1)
        assert eps.is_chain_map()
        assert eps.blocks  # ε is not zero
        composite, level1 = _augmented_faces(T, eps)
        assert composite == {}, F.name
        assert 56 <= level1 <= 130, (F.name, level1)


def test_coproduct_rho_is_the_extension_map(QQ):
    poset = cech.circle_arc_poset(AUG_ARCS)
    F = cech.constant_precosheaf(poset, QQ)
    pairs = [(u, v) for u in poset.opens for v in poset.opens
             if poset.leq(u, v)]
    assert len(pairs) > len(poset.opens)
    for u, v in pairs:
        assert F.rho((u,), (0,), v) == F.ext(u, v, 0) == {0: 1}
    u, v = next(f for f in poset.disjoint_families() if len(f) == 2)
    with pytest.raises(ValueError, match="one open"):
        F.rho((u, v), (0, 0), "arc(0,9/20)")


def test_precosheaf_audit_composes_along_chains(QQ):
    # arc(1/10,1/20) ⊂ arc(1/10,1/10) ⊂ arc(0,9/20): doubling the map
    # straight into the union breaks ext(V, W) ∘ ext(U, V) = ext(U, W)
    poset = cech.circle_arc_poset(AUG_ARCS)
    small, middle, union = "arc(1/10,1/20)", "arc(1/10,1/10)", "arc(0,9/20)"
    assert poset.leq(small, middle) and poset.leq(middle, union)
    F = cech.constant_precosheaf(poset, QQ)
    assert cech.validate_prefactorization(F) == (True, None)

    def doubled(u, v, lab):
        out = F.ext(u, v, lab)
        if (u, v) == (small, union):
            return {k: 2 * c for k, c in out.items()}
        return out

    bad = cech.PrefactorizationData(
        "doubled", poset, F.values, "coproduct", ext=doubled
    )
    ok, wit = cech.validate_prefactorization(bad)
    assert not ok
    assert wit[0] == "functoriality"


def test_interval_stratified(QQ, trunc2):
    ip = cech.interval_poset(
        [("r", Fraction(2, 5)), ("m", Fraction(1, 4), Fraction(3, 4)),
         ("l", Fraction(3, 5))]
    )
    m = dga.algebra_as_bimodule(trunc2)
    F = cech.interval_stratified(m, trunc2, m, ip)
    ok, wit = cech.validate_prefactorization(F)
    assert ok, wit
    interior = "(1/4,3/4)"
    assert F.rho((), (), interior) == {trunc2.unit: QQ.field.one}
    # values by stratum
    assert set(F.value("[0,2/5)").index) == set(range(trunc2.dim))
    G = cech.interval_global_sections(F, window=(-4, 0))
    assert G.betti((-4, 0)) == {0: 2, -1: 0, -2: 0, -3: 0, -4: 0}


def test_interval_stratified_signs_follow_positions(QQ, exterior):
    # three disjoint opens carrying odd factors, whose family order (sorted
    # by id) differs from their order on the interval: the reordering sign
    # takes each factor's degree by its place in the family
    E = classical.tensor_algebra(exterior, exterior, name="Λ⊗Λ")
    ip = cech.interval_poset(
        [("r", Fraction(9, 10)), ("m", Fraction(1, 10), Fraction(2, 10)),
         ("m", Fraction(3, 10), Fraction(4, 10)),
         ("m", Fraction(5, 10), Fraction(6, 10))]
    )
    assert ("(1/10,1/5)", "(1/2,3/5)", "(3/10,2/5)") in ip.disjoint_families(
        inside="[0,9/10)"
    )
    m = dga.algebra_as_bimodule(E)
    F = cech.interval_stratified(m, E, m, ip)
    ok, wit = cech.validate_prefactorization(F)
    assert ok, wit


def test_interval_stratified_multiplies_in_position_order(QQ):
    # k<x, y>/(words of length 3) is not commutative: every structure map
    # multiplies its factors in their order on the interval, into a module
    # end from that end's side, whatever the order of the family
    W = short_words(QQ)
    m = dga.algebra_as_bimodule(W)
    ip = cech.interval_poset(
        [("r", "3/10"), ("m", "2/5", "1/2"), ("m", "11/20", "13/20"),
         ("l", "7/10"), ("r", "3/5"), ("m", "1/3", "2/3"), ("l", "1/3")]
    )
    F = cech.interval_stratified(m, W, m, ip)
    ok, wit = cech.validate_prefactorization(F)
    assert ok, wit
    x, y = W.position["x"], W.position["y"]
    xy = {W.position["xy"]: QQ.field.one}
    for family, target in (
        (("[0,3/10)", "(2/5,1/2)"), "[0,3/5)"),
        (("(2/5,1/2)", "(11/20,13/20)"), "(1/3,2/3)"),
        (("(2/5,1/2)", "(7/10,1]"), "(1/3,1]"),
    ):
        assert F.rho(family, (x, y), target) == xy, target
        assert F.rho(family[::-1], (y, x), target) == xy, target


def test_interval_stratified_reads_the_modules_own_basis(QQ, exterior):
    # the free module on e, |e| = -2, listed as (xe, e): its positions,
    # degrees and distinguished element all differ from those of Λ(x)
    one = QQ.field.one
    M = dga.DGModule(
        "Λ·e", exterior, [("xe", -3, 1), ("e", -2, 0)],
        {(0, 0): {0: one}, (0, 1): {1: one}, (1, 1): {0: one}},
        pointed_element=1,
    )
    ip = cech.interval_poset(
        [("r", Fraction(2, 5)), ("r", Fraction(1, 20)),
         ("m", Fraction(1, 10), Fraction(1, 5)),
         ("m", Fraction(1, 4), Fraction(3, 4)),
         ("l", Fraction(3, 5)), ("l", Fraction(19, 20))]
    )
    F = cech.interval_stratified(M, exterior, M, ip)
    ok, wit = cech.validate_prefactorization(F)
    assert ok, wit
    assert F.rho((), (), "[0,2/5)") == {1: one}
    x = exterior.position["x"]
    assert F.rho(("(1/10,1/5)",), (x,), "[0,2/5)") == {0: one}


def test_interval_stratified_requires_pointing(QQ, trunc2):
    ip = cech.interval_poset([("r", Fraction(1, 2)), ("l", Fraction(1, 2))])
    m = dga.algebra_as_bimodule(trunc2)
    unpointed = dga.DGModule(
        "unpointed", trunc2, list(zip(trunc2.labels, trunc2.degrees,
                                      trunc2.weights)),
        {k: dict(v) for k, v in m.left.items()}, symmetric=True,
    )
    with pytest.raises(ValueError):
        cech.interval_stratified(unpointed, trunc2, m, ip)


def test_excision_report(QQ, exterior, trunc2):
    one = QQ.field.one
    k_alg = dga.DGAlgebra(
        "k", QQ, [("1", 0, 0)], {(0, 0): {0: one}}, unit=0,
        augmentation={0: one}, weight_graded=True,
    )
    rep = cech.excision_report(k_alg, window=(-3, 0))
    assert rep["equal"] and rep["enveloping"][0] == 1
    rep2 = cech.excision_report(trunc2, window=(-5, 0))
    assert rep2["equal"]
    assert rep2["circle"] == {0: 2, -1: 1, -2: 1, -3: 1, -4: 1, -5: 1}
    rep3 = cech.excision_report(exterior, window=(-5, 0))
    assert rep3["equal"]


def test_cosheaf_cech_degreewise_identification(arc_poset, QQ):
    """Coproduct-mode Čech agrees degreewise with the ordinary cosheaf
    Čech complex on the cover PU, counted independently by arc arithmetic."""
    F = cech.constant_precosheaf(arc_poset, QQ)
    T, _ = cech.cech_complex(F, arc_poset.opens, truncation=2)
    PU = arc_poset.disjoint_families()

    def nonempty_combos(alpha):
        count = 0
        for combo in __import__("itertools").product(*alpha):
            if arc_poset.family_intersection(list(combo)) is not None:
                count += 1
        return count

    for i in range(3):
        expected = 0
        for alpha in __import__("itertools").product(PU, repeat=i + 1):
            if any(alpha[j] == alpha[j + 1] for j in range(i)):
                continue  # normalized: degenerate tuples are quotiented
            expected += nonempty_combos(alpha)
        assert T.dim(-i) == expected

"""Chain complexes: constructions, homology, windows, totalization."""

import random

import pytest

from hoch import dga, homalg, simp
from hoch import hochschild as hh
from hoch.homalg import (
    ChainComplex,
    ChainMap,
    WindowError,
    cone,
    constant_simplicial,
    dual,
    field_complex,
    hom_complex,
    tensor,
    total_complex,
    zero_complex,
)


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

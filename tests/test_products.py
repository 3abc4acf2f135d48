"""Chain-level products: shuffle, cup, wedge; exactness of their axioms."""

import gc
import json
import random
import weakref
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from hoch import classical, cli, dga, simp
from hoch import hochschild as hh
from hoch import products as pr
from hoch.homalg import ChainComplex, Coefficients
from hoch.linalg import SubquotientSpace, _acc, kernel_basis
from tests_support import count_compiles, internal_key, koszul_algebra


def add(field, a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        acc = field.add(out.get(k, field.zero), field.mul(field.coerce(sign), v))
        if field.is_zero(acc):
            out.pop(k, None)
        else:
            out[k] = acc
    return out


def chains_by_degree(C, min_deg=-2, max_level=2):
    degs = {}
    for lab in C.index:
        d, _w, _ = C.index[lab]
        if lab[0] <= max_level and d >= min_deg:
            degs.setdefault(d, []).append(lab)
    return degs


# -- shuffle ------------------------------------------------------------------


@pytest.fixture(scope="module", params=["exterior", "trunc3"])
def shuffle_setup(request, QQ):
    if request.param == "exterior":
        A = dga.exterior(QQ)
    else:
        A = dga.truncated_polynomial(QQ, 3)
    H = hh.hochschild_chain(simp.circle(9), A, window=(-8, 0))
    return A, H


def rand_chain(rng, field, degs):
    d = rng.choice(sorted(degs))
    labs = rng.sample(degs[d], min(2, len(degs[d])))
    return d, {lab: field.coerce(rng.choice([-2, -1, 1, 2])) for lab in labs}


def test_shuffle_battery(QQ, shuffle_setup):
    A, H = shuffle_setup
    f = QQ.field
    C = H.complex
    one = pr.unit_chain(H)
    degs = chains_by_degree(C)
    rng = random.Random(17)
    for _ in range(150):
        du, u = rand_chain(rng, f, degs)
        dv, v = rand_chain(rng, f, degs)
        assert pr.shuffle_product(H, one, u) == u
        assert pr.shuffle_product(H, u, one) == u
        uv = pr.shuffle_product(H, u, v)
        # Leibniz
        lhs = C.d_apply(uv)
        rhs = add(
            f,
            pr.shuffle_product(H, C.d_apply(u), v),
            pr.shuffle_product(H, u, C.d_apply(v)),
            sign=(-1) ** (du % 2),
        )
        assert lhs == rhs
        # graded commutativity
        vu = pr.shuffle_product(H, v, u)
        sgn = (-1) ** ((du * dv) % 2)
        assert uv == {k: f.mul(f.coerce(sgn), c) for k, c in vu.items()}
        # associativity
        dw, w = rand_chain(rng, f, degs)
        left = pr.shuffle_product(H, uv, w)
        right = pr.shuffle_product(H, u, pr.shuffle_product(H, v, w))
        assert left == right


def test_shuffle_on_sphere(QQ, exterior):
    H = hh.hochschild_chain(simp.sphere_small(2, 9), exterior, window=(-8, 0))
    f = QQ.field
    C = H.complex
    degs = chains_by_degree(C)
    rng = random.Random(23)
    for _ in range(40):
        du, u = rand_chain(rng, f, degs)
        dv, v = rand_chain(rng, f, degs)
        uv = pr.shuffle_product(H, u, v)
        vu = pr.shuffle_product(H, v, u)
        sgn = (-1) ** ((du * dv) % 2)
        assert uv == {k: f.mul(f.coerce(sgn), c) for k, c in vu.items()}
        lhs = C.d_apply(uv)
        rhs = add(
            f,
            pr.shuffle_product(H, C.d_apply(u), v),
            pr.shuffle_product(H, u, C.d_apply(v)),
            sign=(-1) ** (du % 2),
        )
        assert lhs == rhs


def test_shuffle_requires_commutative(QQ, trunc2):
    nc = dga.DGAlgebra(
        "nc", QQ,
        list(zip(trunc2.labels, trunc2.degrees, trunc2.weights)),
        trunc2.mult, unit=0, commutative=False,
        augmentation=dict(trunc2.augmentation), weight_graded=True,
    )
    H = hh.hochschild_chain(simp.circle(5), nc, window=(-3, 0))
    with pytest.raises(ValueError):
        pr.shuffle_product(H, pr.unit_chain(H), pr.unit_chain(H))


def _reference_shuffles(p, q):
    """(mu, nu, sign), the sign counted by inversions of mu + nu."""
    universe = list(range(p + q))
    for mu in combinations(universe, p):
        nu = tuple(x for x in universe if x not in mu)
        perm = list(mu) + list(nu)
        sign = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        yield mu, nu, sign


def test_shuffle_signs_match_the_inversion_count():
    for p in range(6):
        for q in range(6):
            assert list(pr._shuffles(p, q)) == list(_reference_shuffles(p, q))


def _reference_apply_degeneracies(Y, A, level, mono, indices):
    """s_{i_k} ... s_{i_1} (innermost first) on a monomial, one one-shot
    setmap per degeneracy: ±(single monomial) at level + len(indices)."""
    f = A.coefficients.field
    coeff, cur, n = f.one, mono, level
    for i in indices:
        image = dga.apply_setmap(A, tuple(Y.deg_tab[n][i]), cur,
                                 n_targets=Y.card(n + 1))
        (cur, c), = image.items()
        coeff = f.mul(coeff, c)
        n += 1
    return cur, coeff


def _reference_slotwise_product(A, m1, m2):
    """(a_1⊗..⊗a_k)·(b_1⊗..⊗b_k): the interleave Koszul sign, then the
    slot products; {monomial: coeff}."""
    f = A.coefficients.field
    sign = 1
    for s in range(len(m1)):
        if A.degrees[m2[s]] % 2 == 0:
            continue
        for t in range(s + 1, len(m1)):
            if A.degrees[m1[t]] % 2:
                sign = -sign
    results = [(f.coerce(sign), ())]
    for s in range(len(m1)):
        prods = A.product(m1[s], m2[s])
        results = [(f.mul(c, e), prefix + (k,))
                   for c, prefix in results for k, e in prods.items()]
        if not results:
            break
    out = {}
    for c, mono in results:
        _acc(out, mono, c, f)
    return out


def _reference_shuffle_product(H, u, v):
    """The shuffle product with each degeneracy applied by a one-shot
    setmap and a hand-written slotwise product."""
    A, Y = H.algebra, H.space
    f = A.coefficients.field
    index = H.complex.index
    out = {}
    for (p, monoU), cu in u.items():
        for (q, monoV), cv in v.items():
            if p + q > len(H.levels) - 1:
                raise hh.TruncationError(
                    "shuffle target level exceeds the materialized window"
                )
            base = f.mul(cu, cv)
            int_u = internal_key(Y, p, A, None, monoU)[0]
            if (q * int_u) % 2:
                base = f.neg(base)
            for mu, nu, sgn in _reference_shuffles(p, q):
                m1, c1 = _reference_apply_degeneracies(Y, A, p, monoU, nu)
                m2, c2 = _reference_apply_degeneracies(Y, A, q, monoV, mu)
                coeff = f.mul(base, f.mul(f.coerce(sgn), f.mul(c1, c2)))
                for mono, c in _reference_slotwise_product(A, m1, m2).items():
                    label = (p + q, mono)
                    total = f.mul(coeff, c)
                    if f.is_zero(total):
                        continue
                    if label in index:
                        _acc(out, label, total, f)
                    elif hh._is_nondegenerate(Y, p + q, A, mono):
                        raise hh.TruncationError(
                            "shuffle product leaves the materialized window"
                        )
    return out


def _outcome(product, *args):
    """A product's value, or the type and message of its error."""
    try:
        return product(*args)
    except ValueError as exc:
        return type(exc), str(exc)


SHUFFLE_ALGEBRAS = {
    "exterior": lambda: dga.exterior(Coefficients()),
    "exterior F3": lambda: dga.exterior(Coefficients("prime-field", 3)),
    "exterior |x|=-3": lambda: dga.exterior(Coefficients(), -3),
    "trunc3": lambda: dga.truncated_polynomial(Coefficients(), 3),
    "polynomial": lambda: dga.polynomial(Coefficients(), max_weight=3),
    "exterior⊗trunc2": lambda: classical.tensor_algebra(
        dga.exterior(Coefficients()),
        dga.truncated_polynomial(Coefficients(), 2),
    ),
}
SHUFFLE_SPACES = {
    "circle": (lambda: simp.circle(6), (-5, 0)),
    "torus": (lambda: simp.torus(4), (-3, 0)),
    "sphere_small(2)": (lambda: simp.sphere_small(2, 6), (-5, 0)),
    "sphere_standard(2)": (lambda: simp.sphere_standard(2, 4), (-3, 0)),
}


@pytest.mark.parametrize("space", sorted(SHUFFLE_SPACES))
@pytest.mark.parametrize("algebra", sorted(SHUFFLE_ALGEBRAS))
def test_shuffle_product_matches_reference(algebra, space):
    """17 seeded products per case, 408 in all, equal to the reference
    exactly, errors included: a product past the top level or out of the
    complex raises TruncationError in both, and one past k[x]'s
    materialized weight AlgebraClassError."""
    A = SHUFFLE_ALGEBRAS[algebra]()
    build, window = SHUFFLE_SPACES[space]
    H = hh.hochschild_chain(build(), A, window, weights=[0, 1, 2, 3])
    f = A.coefficients.field
    top = len(H.levels) - 1
    by_class = {}  # (level, weight, degree) -> labels
    for lab, (d, w, _) in sorted(H.complex.index.items()):
        by_class.setdefault((lab[0], w, d), []).append(lab)
    classes = sorted(by_class)
    lowest = min(d for _, _, d in classes)
    rng = random.Random(f"{algebra}/{space}")

    def chain(*picked):
        labels = [lab for c in picked for lab in by_class[c]]
        return {lab: f.coerce(rng.choice([-2, -1, 1, 3]))
                for lab in rng.sample(labels, min(len(labels), 2))}

    pairs = []
    for k in range(16):
        cu = rng.choice(classes)
        # three pairs in four stay in the complex; the fourth may leave it
        fits = [c for c in classes if k % 4 == 0 or (
            cu[0] + c[0] <= top and cu[1] + c[1] <= 3
            and cu[2] + c[2] >= lowest
        )]
        pairs.append((chain(cu), chain(rng.choice(fits), rng.choice(fits))))
    # the square of a heaviest level-0 element: zero, or past k[x]'s
    # materialized weight
    heaviest = chain(max((c for c in classes if c[0] == 0),
                         key=lambda c: c[1]))
    pairs.append((heaviest, heaviest))
    nonzero = 0
    for u, v in pairs:
        got = _outcome(pr.shuffle_product, H, u, v)
        assert got == _outcome(_reference_shuffle_product, H, u, v)
        nonzero += isinstance(got, dict) and bool(got)
    assert nonzero >= 4


def test_shuffle_check_job_makes_no_one_shot_setmap_call(monkeypatch):
    """A shuffle-check job runs its degeneracies and slot products through
    compiled programs alone."""
    def one_shot(*args, **kwargs):
        raise AssertionError("apply_setmap was called")

    for module in (dga, hh, pr):
        monkeypatch.setattr(module, "apply_setmap", one_shot)
    path = Path(__file__).resolve().parent.parent / "jobs"
    spec = cli.load_jobspec(json.loads(
        (path / "criterion11a_shuffle_check.json").read_text()
    ))
    assert cli.run_job(spec)["verdict"] == "pass"


# -- classical cochains and cup ------------------------------------------------


def basis_cochains(data, max_arity):
    f = data.A.coefficients.field
    out = []
    for n in range(max_arity + 1):
        for arg in data.args[n]:
            for v in range(data.A.dim):
                out.append({(n, arg, v): f.one})
    return out


def circle_cochains(A, top):
    """The classical cochains of arity <= top: the higher cochains of the
    circle, CH^{S^1}(A, A), with labels (n, (unit,) + arg, v)."""
    return pr.CochainComplexData(
        simp.circle(top + 1), A, dga.algebra_as_bimodule(A), top=top)


F3 = Coefficients("prime-field", 3)


def test_classical_cochain_complex(QQ, trunc2, exterior):
    for A, dims in ((trunc2, [2, 2, 2, 2, 2]), (exterior, None)):
        data = circle_cochains(A, 6)
        X = data.complex
        assert set(X.index) == {
            (n, (A.unit,) + arg, v) for n in range(7)
            for arg in product(A.nonunit(), repeat=n) for v in range(A.dim)}
        assert X.check_differential()[0], A.name
        if dims:
            assert [X.dim(d) for d in range(5)] == dims
            assert X.betti((0, 4)) == {0: 2, 1: 1, 2: 1, 3: 1, 4: 1}


def test_cup_unital_associative_exhaustive(QQ, trunc2, exterior):
    for A in (trunc2, exterior):
        data = circle_cochains(A, 2)
        f = QQ.field
        basis = basis_cochains(data, 2)
        one = {(0, (A.unit,), A.unit): f.one}
        cases = 0
        for a in basis:
            assert pr.cup(A, one, a) == a and pr.cup(A, a, one) == a
            for b in basis:
                for c in basis:
                    assert pr.cup(A, pr.cup(A, a, b), c) == pr.cup(
                        A, a, pr.cup(A, b, c))
                    cases += 1
        assert cases >= 200


def test_cup_chain_map(QQ):
    rng = random.Random(5)
    algebras = [A for k in (QQ, F3) for A in (
        dga.truncated_polynomial(k, 2), dga.exterior(k),
        dga.truncated_polynomial(k, 3, -2))]
    for A in algebras:
        f = A.coefficients.field
        data = circle_cochains(A, 7)
        index = data.complex.index
        basis = basis_cochains(data, 2)
        for _ in range(150):
            a = rng.choice(basis)
            b = rng.choice(basis)
            (label_a,) = a
            deg_a = index[label_a][0]
            lhs = data.differential(pr.cup(A, a, b))
            rhs = add(
                f, pr.cup(A, data.differential(a), b),
                pr.cup(A, a, data.differential(b)), sign=(-1) ** (deg_a % 2),
            )
            assert lhs == rhs, A.name


def test_cup_hh0_is_center(QQ, trunc2):
    # HH^0 of a commutative algebra is the algebra; the induced product is
    # its multiplication
    f = QQ.field
    unit = (trunc2.unit,)
    for i in range(trunc2.dim):
        for j in range(trunc2.dim):
            a = {(0, unit, i): f.one}
            b = {(0, unit, j): f.one}
            prod = pr.cup(trunc2, a, b)
            want = {
                (0, unit, k): c for k, c in trunc2.product(i, j).items()
            }
            assert prod == want


def test_cup_sign_is_g_crossing_the_arguments_of_f(QQ):
    # (f ∪ g)(a) = (-1)^{|g| |a|} f(a) g(): f = (a -> 1) of arity 1, g the
    # constant x of arity 0; an odd g passing an odd argument gives -1,
    # and no other case does
    for A, sign in ((dga.exterior(QQ), -1), (dga.exterior(QQ, -3), -1),
                    (dga.truncated_polynomial(QQ, 2, -2), 1)):
        unit, (x,) = A.unit, A.nonunit()
        f = {(1, (unit, x), unit): QQ.field.one}
        g = {(0, (unit,), x): QQ.field.one}
        assert pr.cup(A, f, g) == {(1, (unit, x), x): QQ.field.coerce(sign)}
        assert pr.cup(A, g, f) == {(1, (unit, x), x): QQ.field.one}


def test_cup_commutative_in_homology_with_chain_witness(QQ, trunc3):
    for A in (trunc3, dga.truncated_polynomial(F3, 3)):
        _check_cup_commutative_in_homology(A)


def _check_cup_commutative_in_homology(A):
    f = A.coefficients.field
    X = circle_cochains(A, 6).complex

    def all_cocycles(deg):
        ker = kernel_basis(X.d_matrix(deg, 0))
        labels = X.blocks[(deg, 0)]
        return [{labels[i]: c for i, c in v.items()} for v in ker]

    witness = None
    checks = 0
    for p, q in ((1, 1), (1, 2), (2, 2)):
        fs, gs = all_cocycles(p), all_cocycles(q)
        sub = SubquotientSpace(
            X.d_matrix(p + q, 0), X.d_matrix(p + q - 1, 0), f
        )
        pos = {lab: i for i, lab in enumerate(X.blocks[(p + q, 0)])}
        for fc in fs:
            for gc in gs:
                fg = pr.cup(A, fc, gc)
                gf = pr.cup(A, gc, fc)
                sign = (-1) ** ((p * q) % 2)
                gf_s = {k: f.mul(f.coerce(sign), v) for k, v in gf.items()}
                if fg != gf_s and witness is None:
                    witness = (p, q, fc, gc)
                lv = {pos[k]: v for k, v in fg.items()}
                rv = {pos[k]: v for k, v in gf_s.items()}
                checks += 1
                assert sub.same_class(lv, rv)
    assert checks >= 20, A.coefficients
    assert witness is not None, "expected a chain-level noncommuting pair"


# -- higher cochains and wedge --------------------------------------------------


@pytest.fixture(scope="module")
def wedge_setup(QQ, trunc2):
    N = 6
    m = dga.algebra_as_bimodule(trunc2)
    c1, c2 = simp.circle(N), simp.circle(N)
    W = simp.wedge(c1, c2)
    d1 = pr.CochainComplexData(c1, trunc2, m, window=(0, 3), top=N)
    d2 = pr.CochainComplexData(c2, trunc2, m, window=(0, 3), top=N)
    dw = pr.CochainComplexData(W, trunc2, m, window=(0, 3), top=N)
    return d1, d2, dw


def test_higher_cochain_d_squared(QQ, trunc2, exterior, wedge_setup):
    d1, d2, dw = wedge_setup
    assert d1.complex.check_differential()[0]
    assert dw.complex.check_differential()[0]
    mL = dga.algebra_as_bimodule(exterior)
    dL = pr.CochainComplexData(simp.circle(7), exterior, mL, window=(0, 3))
    assert dL.complex.check_differential()[0]


def test_wedge_identity_over_point(QQ, trunc2):
    N = 6
    f = QQ.field
    m = dga.algebra_as_bimodule(trunc2)
    Xp, Yc = simp.point(N), simp.circle(N)
    W = simp.wedge(Xp, Yc)
    dx = pr.CochainComplexData(Xp, trunc2, m, window=(0, 3), top=N)
    dy = pr.CochainComplexData(Yc, trunc2, m, window=(0, 3), top=N)
    dw = pr.CochainComplexData(W, trunc2, m, window=(0, 3), top=N)
    fid = {(0, (trunc2.unit,), trunc2.unit): f.one}
    for lab in list(dy.complex.index):
        g = {lab: f.one}
        got = pr.wedge_product(dx, dy, dw, fid, g)
        assert got == g  # wedge(point, circle) slots coincide with circle's


def test_wedge_chain_map(QQ, trunc2, wedge_setup):
    d1, d2, dw = wedge_setup
    f = QQ.field
    rng = random.Random(11)

    def rand_coch(data, maxlvl=2):
        degs = {}
        for lab in data.complex.index:
            if lab[0] <= maxlvl:
                d, _w, _ = data.complex.index[lab]
                degs.setdefault(d, []).append(lab)
        d = rng.choice(sorted(degs))
        labs = rng.sample(degs[d], min(2, len(degs[d])))
        return d, {l: f.coerce(rng.choice([-2, -1, 1, 2])) for l in labs}

    for _ in range(60):
        df_, fc = rand_coch(d1)
        _dg, gc = rand_coch(d2)
        lhs = dw.differential(pr.wedge_product(d1, d2, dw, fc, gc))
        rhs = add(
            f,
            pr.wedge_product(d1, d2, dw, d1.differential(fc), gc),
            pr.wedge_product(d1, d2, dw, fc, d2.differential(gc)),
            sign=(-1) ** (df_ % 2),
        )
        assert lhs == rhs


def test_wedge_homology_associativity(QQ, trunc2):
    """[μ(μ(f,g),h)] = [μ(f,μ(g,h))] on (S¹∨S¹)∨S¹ vs S¹∨(S¹∨S¹)."""
    N = 6
    f = QQ.field
    m = dga.algebra_as_bimodule(trunc2)
    c = simp.circle(N)
    CC = simp.wedge(c, c, name="cc")
    W3a = simp.wedge(CC, c)
    W3b = simp.wedge(c, CC)
    assert [W3a.card(n) for n in range(5)] == [W3b.card(n) for n in range(5)]
    d1 = pr.CochainComplexData(c, trunc2, m, window=(0, 3), top=5)
    dcc = pr.CochainComplexData(CC, trunc2, m, window=(0, 3), top=5)
    d3a = pr.CochainComplexData(W3a, trunc2, m, window=(0, 3), top=5)
    d3b = pr.CochainComplexData(W3b, trunc2, m, window=(0, 3), top=5)
    assert d3a.complex.check_differential()[0]

    def cocycles(data, deg, count):
        C = data.complex
        d_in = C.d_matrix(deg - 1, 0) if C.dim(deg - 1, 0) else None
        sub = SubquotientSpace(C.d_matrix(deg, 0), d_in, f)
        labels = C.blocks[(deg, 0)]
        return [
            {labels[i]: v for i, v in rep.items()} for rep in sub.reps[:count]
        ]

    compared = 0
    for dfq in (1, 2):
        for fch in cocycles(d1, dfq, 2):
            for gch in cocycles(d1, 1, 1):
                for hch in cocycles(d1, 1, 1):
                    left = pr.wedge_product(
                        dcc, d1, d3a,
                        pr.wedge_product(d1, d1, dcc, fch, gch), hch,
                    )
                    right = pr.wedge_product(
                        d1, dcc, d3b, fch,
                        pr.wedge_product(d1, d1, dcc, gch, hch),
                    )
                    deg = dfq + 2
                    C3 = d3a.complex
                    sub = SubquotientSpace(
                        C3.d_matrix(deg, 0), C3.d_matrix(deg - 1, 0), f
                    )
                    labels = C3.blocks[(deg, 0)]
                    pos = {lab: i for i, lab in enumerate(labels)}
                    lv = {pos[k]: v for k, v in left.items()}
                    rv = {pos[k]: v for k, v in right.items()}
                    assert sub.same_class(lv, rv)
                    compared += 1
    assert compared >= 2


def test_wedge_product_leaves_the_coboundaries_unbuilt(QQ, trunc2):
    """wedge_product reads a data's arguments, never its coboundary, so
    neither the factors nor the targets of two three-fold products build
    one; a built data keeps nothing that only the build used; a refusal
    that needs no face still raises at construction."""
    m = dga.algebra_as_bimodule(trunc2)
    c = simp.circle(3)
    cc = simp.wedge(c, c)
    d1, d2, d3a, d3b = (
        pr.CochainComplexData(Y, trunc2, m, (0, 2), 3)
        for Y in (c, cc, simp.wedge(cc, c), simp.wedge(c, cc))
    )
    one = QQ.field.one
    # values 1 and x on the one level-1 argument
    f, g = ({(1, arg, k): one} for arg in d1.args[1] for k in (0, 1))
    h = f
    fg = pr.wedge_product(d1, d1, d2, f, g)
    gh = pr.wedge_product(d1, d1, d2, g, h)
    left = pr.wedge_product(d2, d1, d3a, fg, h)
    right = pr.wedge_product(d1, d2, d3b, f, gh)
    assert fg and left and right
    assert fg == _reference_wedge_product(d1, d1, d2, f, g, {})
    assert left == _reference_wedge_product(d2, d1, d3a, fg, h, {})
    assert right == _reference_wedge_product(d1, d2, d3b, f, gh, {})
    assert all("complex" not in vars(d) for d in (d1, d2, d3a, d3b))
    before = set(vars(d1))
    assert d1.complex is d1.complex and d1.differential(f)
    assert set(vars(d1)) == before - {"_gated"} | {"complex"}
    with pytest.raises(hh.TruncationError, match="materialized to level 3"):
        pr.CochainComplexData(c, trunc2, m, (0, 3), 4)


def test_wedge_algebra_mismatch_rejected(QQ, trunc2, trunc3, wedge_setup):
    d1, d2, dw = wedge_setup
    f = QQ.field
    other = pr.CochainComplexData(
        simp.circle(6), trunc3, dga.algebra_as_bimodule(trunc3),
        window=(0, 2), top=6,
    )
    fid = {(0, (trunc2.unit,) * 0 + tuple([trunc2.unit]), trunc2.unit): f.one}
    some = {next(iter(d1.complex.index)): f.one}
    with pytest.raises(ValueError, match="share the algebra"):
        pr.wedge_product(other, d2, dw, some, some)


def test_wedge_rejects_module_coefficients(QQ, trunc3):
    """The values of the two factors multiply in the algebra, so the
    coefficients must be the algebra itself, not another module."""
    k = classical.augmentation_module(trunc3)
    c = simp.circle(3)
    dk = pr.CochainComplexData(c, trunc3, k, window=(0, 2), top=3)
    dw = pr.CochainComplexData(simp.wedge(c, c), trunc3, k, (0, 2), top=3)
    some = {next(iter(dk.complex.index)): QQ.field.one}
    with pytest.raises(ValueError, match="algebra itself"):
        pr.wedge_product(dk, dk, dw, some, some)


def test_cochains_refuse_a_genuine_bimodule(QQ, trunc2):
    """The faces act on a cochain's value through the left action alone,
    so a right action that differs from it would be ignored: k[x]/x^2
    twisted by x -> -x has HH^0 spanned by x, not of the untwisted
    dimension 2."""
    f = QQ.field
    flip = classical.AlgebraAutomorphism(trunc2, {0: {0: f.one}, 1: {1: -f.one}})
    twisted = classical.twisted_bimodule(trunc2, flip)
    with pytest.raises(ValueError, match="require a symmetric bimodule"):
        pr.CochainComplexData(simp.circle(7), trunc2, twisted, (0, 4))


def test_cochain_face_target_missing_raises(QQ, trunc2, monkeypatch):
    """A nondegenerate face image missing from the level below is a
    broken basis, not a zero entry."""
    real = pr._level_monomials

    def drop_one(Y, n, *args, **kwargs):
        monos = real(Y, n, *args, **kwargs)
        return monos[1:] if n == 1 else monos

    monkeypatch.setattr(pr, "_level_monomials", drop_one)
    with pytest.raises(AssertionError, match="missing face target"):
        pr.CochainComplexData(
            simp.circle(4), trunc2, dga.algebra_as_bimodule(trunc2),
            window=(0, 2), top=4,
        ).complex  # the faces are pushed on the first read


# -- reference constructions: the cochain coboundary set entry by entry with
# field products, and the wedge product pushing every half anew ------------


def _reference_cochain_complex(Y, A, module, top):
    f = A.coefficients.field
    args = [
        [arg for arg, _key, _sup in hh._level_monomials(
            Y, n, A, None, None, None, True, unit_base=True
        )]
        for n in range(top + 1)
    ]
    out = ChainComplex(A.coefficients)
    for n in range(top + 1):
        for arg in args[n]:
            adeg, _ = internal_key(Y, n, A, None, arg)
            for m in range(module.dim):
                out.add_element((n, arg, m), n + module.degrees[m] - adeg, 0)
    arg_index = [set(a) for a in args]
    for lvl in range(1, top + 1):
        n = lvl - 1
        argset = arg_index[n]
        for i in range(lvl + 1):
            setmap = tuple(Y.face_tab[lvl][i])
            sgn_face = f.coerce(-1 if i % 2 else 1)
            for u in args[lvl]:
                for w, lam in dga.apply_setmap(A, setmap, u).items():
                    full = w + (A.unit,) * (Y.card(n) - len(w))
                    # the basepoint factor, at slot 0, and the argument
                    b, rest = full[0], (A.unit,) + full[1:]
                    if rest not in argset:
                        continue
                    adeg = internal_key(Y, n, A, None, rest)[0]
                    for m in range(module.dim):
                        phid = module.degrees[m] - adeg
                        sgn = 1
                        if A.degrees[b] % 2 and phid % 2:
                            sgn = -sgn
                        for q, c in module.act_left(b, m).items():
                            val = f.mul(
                                sgn_face, f.mul(f.coerce(sgn), f.mul(lam, c))
                            )
                            if not f.is_zero(val):
                                out.set_differential_entry(
                                    (n, rest, m), (lvl, u, q), val
                                )
    for n in range(top + 1):
        sgn_n = f.coerce(-1 if n % 2 else 1)
        for u in args[n]:
            for m in range(module.dim):
                for q, c in module.d(m).items():
                    out.set_differential_entry(
                        (n, u, m), (n, u, q), f.mul(sgn_n, c)
                    )
            if not A.diff:
                continue
            for tgt, c in hh._internal_diff(A, None, u).items():
                if tgt not in arg_index[n]:
                    continue
                adeg = internal_key(Y, n, A, None, tgt)[0]
                for m in range(module.dim):
                    phid = module.degrees[m] - adeg
                    sgn_phi = f.coerce(1 if phid % 2 else -1)
                    val = f.mul(sgn_n, f.mul(sgn_phi, c))
                    if not f.is_zero(val):
                        out.set_differential_entry(
                            (n, tgt, m), (n, u, m), val
                        )
    return out


def _reference_evaluate_pushed(data, fch_level, level_from, count, which,
                               u_mono, programs):
    """The value of a cochain on ``u_mono`` pushed down ``count`` last (or
    first) faces, through the generic program of the composite face,
    compiled once per composite and kept in ``programs``."""
    Y, A, module = data.Y, data.A, data.module
    f = A.coefficients.field
    p = level_from - count
    key = Y, level_from, p, which
    if key not in programs:
        # the composite of ``count`` last (or first) faces from level_from
        setmap = list(range(Y.card(level_from)))
        for lvl in range(level_from, p, -1):
            face = Y.face_tab[lvl][lvl if which == "last" else 0]
            setmap = [face[s] for s in setmap]
        programs[key] = dga._on_monomials(
            dga.compile_setmap(A, tuple(setmap), Y.card(p)), Y.card(p)
        )
    out = {}
    for full, lam in programs[key](u_mono).items():
        # the basepoint factor, at slot 0, and the argument
        b, rest = full[0], (A.unit,) + full[1:]
        for (pp, arg, m), coeff in fch_level.items():
            if arg != rest:
                continue
            adeg = internal_key(Y, pp, A, None, arg)[0]
            phid = module.degrees[m] - adeg
            sgn = 1
            if A.degrees[b] % 2 and phid % 2:
                sgn = -sgn
            for q, c in module.act_left(b, m).items():
                val = f.mul(coeff, f.mul(f.coerce(sgn), f.mul(lam, c)))
                _acc(out, q, val, f)
    return out


def _reference_split_wedge_arg(X, Ysp, n, warg, A):
    xfull = [A.unit] * X.card(n)
    yfull = [A.unit] * Ysp.card(n)
    pos = 1
    for Z, full in ((X, xfull), (Ysp, yfull)):
        for s in range(1, Z.card(n)):  # every slot but the basepoint's
            full[s] = warg[pos]
            pos += 1
    return tuple(xfull), tuple(yfull)


def _reference_wedge_product(data_x, data_y, data_wedge, fch, gch, cache):
    """Every wedge argument split into its halves, f evaluated on the
    x-half and g, one label at a time, on the y-half.  ``cache`` keeps,
    for calls on the same data, the arguments of each level grouped by
    x-half, so that f is evaluated once per x-half, and the programs of
    the composite faces."""
    A = data_x.A
    f = A.coefficients.field
    out, by_level_f = {}, {}
    for (p, arg, m), c in fch.items():
        by_level_f.setdefault(p, {})[(p, arg, m)] = c
    for glabel, gcoeff in gch.items():
        q, garg, gm = glabel
        gdeg = (
            data_y.module.degrees[gm]
            - internal_key(data_y.Y, q, A, None, garg)[0]
        )
        gpart = {glabel: gcoeff}
        for p, fpart in by_level_f.items():
            n = p + q
            if ("halves", n) not in cache:
                groups = cache["halves", n] = {}
                for warg in data_wedge.args[n]:
                    xfull, yfull = _reference_split_wedge_arg(
                        data_x.Y, data_y.Y, n, warg, A
                    )
                    groups.setdefault(xfull, []).append((warg, yfull))
            for xfull, args in cache["halves", n].items():
                valF = _reference_evaluate_pushed(
                    data_x, fpart, n, q, "last", xfull, cache
                )
                if not valF:
                    continue
                xdeg = internal_key(data_x.Y, n, A, None, xfull)[0]
                sgn = f.coerce(-1 if (gdeg * xdeg) % 2 else 1)
                for warg, yfull in args:
                    valG = _reference_evaluate_pushed(
                        data_y, gpart, n, p, "first", yfull, cache
                    )
                    for mX, cf in valF.items():
                        for mY, cg in valG.items():
                            for k, c in A.product(mX, mY).items():
                                _acc(
                                    out, (n, warg, k),
                                    f.mul(f.mul(cf, cg), f.mul(sgn, c)), f,
                                )
    return out


def _entries(complex_):
    return {
        (key, row, col): v
        for key, mat in complex_.diff.items()
        for row, col, v in mat.entries()
    }


FIELDS = {"Q": Coefficients(), "F7": Coefficients("prime-field", 7)}
ALGEBRAS = {
    "trunc2": lambda k: dga.truncated_polynomial(k, 2),
    "trunc3": lambda k: dga.truncated_polynomial(k, 3),
    "exterior": dga.exterior,
    "koszul": koszul_algebra,
    # Λ(x, y): an odd basepoint factor meets odd module values
    "exterior⊗exterior": lambda k: classical.tensor_algebra(
        dga.exterior(k), dga.exterior(k)
    ),
}


def _spaces(N=4):
    c = simp.circle(N)
    cc = simp.wedge(c, c)
    return {
        "circle": c,
        "circle∨circle": cc,
        "(circle∨circle)∨circle": simp.wedge(cc, c),
        "circle∨(circle∨circle)": simp.wedge(c, cc),
        "circle∨point": simp.wedge(c, simp.point(N)),
        "sphere_small(2)": simp.sphere_small(2, N),
    }


# top level per space, lowered where the basis passes a few thousand
TOPS = {
    "circle": 4, "circle∨circle": 3, "(circle∨circle)∨circle": 3,
    "circle∨(circle∨circle)": 3, "circle∨point": 4, "sphere_small(2)": 4,
}
LOWER = {
    ("trunc3", "(circle∨circle)∨circle"): 2,
    ("trunc3", "circle∨(circle∨circle)"): 2,
    ("koszul", "circle∨circle"): 2,
    ("koszul", "(circle∨circle)∨circle"): 1,
    ("koszul", "circle∨(circle∨circle)"): 1,
    ("koszul", "sphere_small(2)"): 3,
    ("exterior⊗exterior", "circle∨circle"): 2,
    ("exterior⊗exterior", "(circle∨circle)∨circle"): 1,
    ("exterior⊗exterior", "circle∨(circle∨circle)"): 1,
    ("exterior⊗exterior", "sphere_small(2)"): 3,
}


# checked at top 4 as well: the size of the wedge-cochains benchmark
BENCH_SIZE = {
    ("trunc2", "(circle∨circle)∨circle"), ("trunc2", "circle∨(circle∨circle)"),
}


@pytest.mark.parametrize("space", sorted(TOPS))
@pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_cochain_complex_matches_reference(field, algebra, space):
    k = FIELDS[field]
    A = ALGEBRAS[algebra](k)
    Y = _spaces()[space]
    tops = [LOWER.get((algebra, space), TOPS[space])]
    if (algebra, space) in BENCH_SIZE:
        tops.append(4)
    for top, module in product(tops, (dga.algebra_as_bimodule(A),
                                      classical.augmentation_module(A))):
        got = pr.CochainComplexData(Y, A, module, (0, top - 1), top)
        C = got.complex
        want = _reference_cochain_complex(Y, A, module, top)
        assert C.blocks == want.blocks and C.index == want.index
        entries = _entries(C)
        assert entries == _entries(want)
        if k.field.characteristic:
            assert all(type(v) is int and 0 < v < 7 for v in entries.values())
        else:
            assert all(type(v) is Fraction for v in entries.values())
        assert C.check_differential()[0]


@pytest.mark.parametrize("algebra,pair", [
    *product(["trunc2", "exterior"], ["circle,circle", "point,circle",
                                      "circle∨circle,circle",
                                      "circle∨circle,circle,top4"]),
    # Λ(x, y): an odd basepoint factor meets odd values of g
    *product(["exterior⊗exterior"], ["circle,circle", "circle,circle,top4",
                                     "circle∨circle,circle"]),
])
def test_wedge_product_matches_reference(QQ, pair, algebra, monkeypatch):
    N = 4
    A = ALGEBRAS[algebra](QQ)
    m = dga.algebra_as_bimodule(A)
    c = simp.circle(N)
    spaces, _, at = pair.partition(",top")
    X, Yc = {
        "circle,circle": (c, c),
        "point,circle": (simp.point(N), c),
        "circle∨circle,circle": (simp.wedge(c, c), c),
    }[spaces]
    lower = pair == "circle∨circle,circle" or pair == "circle,circle" and (
        algebra == "exterior⊗exterior")
    top = int(at) if at else 3 if lower else N
    dx, dy, dw = (
        pr.CochainComplexData(Z, A, m, (0, top - 1), top)
        for Z in (X, Yc, simp.wedge(X, Yc))
    )
    f = QQ.field
    rng = random.Random(31)

    def rand_cochain(data, max_level):
        labels = [lab for lab in data.complex.index if lab[0] <= max_level]
        return {
            lab: f.coerce(rng.choice([-3, -2, -1, 1, 2, 3]))
            for lab in rng.sample(labels, min(len(labels), rng.randint(1, 4)))
        }

    # whether f vanishes on each x-half it is evaluated on: the arguments
    # of a vanishing one are skipped
    vanished, evaluate = [], pr._evaluate_pushed

    def spy(data, *args):
        value = evaluate(data, *args)
        if data is dx:
            vanished.append(not value)
        return value

    monkeypatch.setattr(pr, "_evaluate_pushed", spy)
    levels, parities, cache = set(), set(), {}
    for _ in range(12):
        fch = rand_cochain(dx, top // 2)
        gch = rand_cochain(dy, top - top // 2)
        got = pr.wedge_product(dx, dy, dw, fch, gch)
        assert got == _reference_wedge_product(dx, dy, dw, fch, gch, cache)
        levels |= {lab[0] for lab in fch} | {lab[0] for lab in gch}
        parities |= {dx.complex.index[lab][0] % 2 for lab in fch}
        parities |= {dy.complex.index[lab][0] % 2 for lab in gch}
    assert len(levels) > 1 and parities == {0, 1}
    if pair == "circle∨circle,circle,top4":
        assert any(vanished) and not all(vanished)


def test_cochain_build_compiles_one_program_per_face(monkeypatch, trunc2):
    compiled = count_compiles(monkeypatch, pr)
    circle = simp.circle(3)
    pr.CochainComplexData(
        simp.wedge(circle, circle), trunc2, dga.algebra_as_bimodule(trunc2),
        (0, 2), 3,
    ).complex  # the faces are compiled on the first read
    assert len(compiled) == sum(n + 1 for n in range(1, 4)) == 9


def test_wedge_product_splits_and_compiles_once(monkeypatch, QQ, trunc2):
    """Later calls on the same wedge reuse its argument halves and face
    programs, kept on the wedge's data without a reference cycle, so the
    data is freed as soon as it is dropped; each call leaves the kept
    programs' memos empty."""
    m = dga.algebra_as_bimodule(trunc2)
    c = simp.circle(4)
    dc, dw = (pr.CochainComplexData(Z, trunc2, m, (0, 3), 4)
              for Z in (c, simp.wedge(c, c)))
    fch = {lab: QQ.field.one for lab in list(dc.complex.index)[:6]}
    compiled = count_compiles(monkeypatch, pr)
    first = pr.wedge_product(dc, dc, dw, fch, fch)
    programs = len(compiled)
    halves = pr._wedge_halves(c, c, dw, 2)
    assert programs and first
    assert pr.wedge_product(dc, dc, dw, fch, fch) == first
    assert len(compiled) == programs
    assert pr._wedge_halves(c, c, dw, 2) is halves
    # the arguments indexed by x-half, each with its y-half
    indexed = [warg for args in halves.values() for warg, _ in args]
    assert sorted(indexed) == dw.args[2] and len(indexed) > len(halves)
    assert all(_reference_split_wedge_arg(c, c, 2, warg, trunc2) == (x, y)
               for x, args in halves.items() for warg, y in args)
    kept = [push for key, pair in dw._wedge_memo.items() if len(key) == 4
            for push in pair]
    assert kept and all(push.memo == {} for push in kept)
    gc.disable()
    try:
        alive = weakref.ref(dw)
        del dw
        assert alive() is None
    finally:
        gc.enable()

"""Prefactorization algebras on finite intersection-closed covers and
their Čech complexes, in the tensor and coproduct (cosheaf) regimes.

Finite covers of connected 1-manifolds are never factorizing (no finite
family of arcs separates arbitrarily many points), so descent is only
tested where it provably holds at finite scale: the coproduct regime
(ordinary Čech descent for cosheaves) and the excision identity routed
through Bar complexes.  The tensor-regime machinery (axioms, Čech
assembly) is validated exhaustively on the 1-dimensional instances:
arcs on a circle carrying an algebra, and the stratified interval
carrying a bimodule pair.

A cosheaf is a prefactorization algebra in the coproduct regime, and its
Čech complex is the tensor-regime one with ⊕ for ⊗ over the combos of a
tuple, so both regimes share one builder.  A level-i basis element is
(alpha, parts), parts a tuple of (combo, position) pairs, the position
that of a basis element of the combo's value; degree, internal
differential, faces and augmentation are written once over the parts.
``cech_complex`` returns the total complex and the augmentation.
The regime is read in three places only: the level basis (one part per
combo, or one part), the pointed unit for face targets no part hits
(tensor only), and ``PrefactorizationData`` with its validators (a
coproduct structure map is the extension map of its one open).

The ``cech`` task reads its cover from the job spec here
(``spec_complex``), and compares with the cone-excision gluing
(``cone_gluing_dims``, through the mapping ``cone``).
"""

from fractions import Fraction
from itertools import permutations
from itertools import product as iproduct

from . import dga, simp
from .homalg import (
    NEG_INF,
    POS_INF,
    ChainComplex,
    ChainMap,
    Coefficients,
    SimplicialChainComplex,
    _entries,
    total_complex,
)
from .linalg import _Table, _acc, _compose, _signed
from .classical import (
    classical_basis,
    enveloping_modules,
    hh_via_enveloping,
    outer_bimodule,
    two_sided_bar,
    underlying_complex,
)
from .hochschild import build_levels, check_cap, hochschild_chain


class CoverError(ValueError):
    pass


# -- open posets -------------------------------------------------------------


class OpenPoset:
    """Finite intersection-closed collection of opens.

    opens: list of ids; inter[(i, j)]: id or None (empty); the partial
    order and disjointness derive from the intersection table.
    """

    def __init__(self, ambient, opens, inter, union_id=None):
        self.ambient = ambient
        self.opens = list(opens)
        self.inter = dict(inter)
        self.union_id = union_id
        for i in self.opens:
            self.inter[(i, i)] = i
        for (i, j), v in list(self.inter.items()):
            self.inter[(j, i)] = v
        for i in self.opens:
            for j in self.opens:
                if (i, j) not in self.inter:
                    raise CoverError(f"intersection table misses {(i, j)}")
                v = self.inter[(i, j)]
                if v is not None and v not in self.opens:
                    raise CoverError(f"poset not intersection-closed at {(i, j)}")

    def intersection(self, i, j):
        return self.inter[(i, j)]

    def family_intersection(self, ids):
        cur = ids[0]
        for nxt in ids[1:]:
            if cur is None:
                return None
            cur = self.inter[(cur, nxt)]
        return cur

    def disjoint(self, i, j):
        return i != j and self.inter[(i, j)] is None

    def leq(self, i, j):
        return self.inter[(i, j)] == i

    def disjoint_families(self, inside=None, max_size=None):
        """All nonempty pairwise-disjoint subsets (sorted tuples)."""
        pool = [
            u
            for u in self.opens
            if inside is None or self.leq(u, inside)
        ]
        out = []

        def rec(start, cur):
            if cur:
                out.append(tuple(cur))
            if max_size is not None and len(cur) >= max_size:
                return
            for k in range(start, len(pool)):
                u = pool[k]
                if all(self.disjoint(u, v) for v in cur):
                    cur.append(u)
                    rec(k + 1, cur)
                    cur.pop()

        rec(0, [])
        return out


def circle_arc_poset(arcs):
    """Intersection-closed poset of open arcs on the unit-length circle.

    arcs: list of (start, length) with rational entries, each length
    strictly less than 1/2 (so that intersections are single arcs).
    """
    arcs = [(Fraction(s) % 1, Fraction(l)) for (s, l) in arcs]
    for (_, l) in arcs:
        if not (0 < l < Fraction(1, 2)):
            raise CoverError("arcs must be shorter than a half-circle")
    poset, poset.arc_data = _closed_poset(
        "circle", arcs, _arc_intersection, lambda a: f"arc({a[0]},{a[1]})"
    )
    return poset


def _closed_poset(ambient, descs, meet, name):
    """(poset, {id: description}) of the opens ``descs`` closed under
    ``meet``.  Descriptions are normalized and each open is named by its
    description, so two spellings of one open give one id."""
    named = {name(d): d for d in descs}
    grown = True
    while grown:
        items = list(named.values())
        meets = {name(c): c for a in items for b in items
                 if (c := meet(a, b)) is not None}
        grown = not meets.keys() <= named.keys()
        named.update(meets)
    ids = sorted(named)
    inter = {}
    for i in ids:
        for j in ids:
            c = meet(named[i], named[j])
            inter[(i, j)] = name(c) if c is not None else None
    return OpenPoset(ambient, ids, inter), named


def _arc_intersection(a, b):
    (s1, l1), (s2, l2) = a, b
    e1 = s1 + l1
    best = None
    for shift in (-1, 0, 1):
        lo = max(s1, s2 + shift)
        hi = min(e1, s2 + shift + l2)
        if hi > lo:
            if best is not None:
                raise CoverError("arcs intersect in two components")
            best = (lo % 1, hi - lo)
    return best


def interval_poset(opens):
    """Stratified-interval poset; opens are ('r', s) = [0, s),
    ('m', t, u) = (t, u) or ('l', t) = (t, 1], rational endpoints.

    >>> interval_poset([("r", "6/10"), ("l", "2/5")]).opens
    ['(2/5,1]', '(2/5,3/5)', '[0,3/5)']
    """
    poset, poset.interval_data = _closed_poset(
        "interval", [_inorm(o) for o in opens], _interval_intersection, _iname
    )
    return poset


def _inorm(o):
    return (o[0],) + tuple(map(Fraction, o[1:]))


def _iname(o):
    if o[0] == "r":
        return f"[0,{o[1]})"
    if o[0] == "l":
        return f"({o[1]},1]"
    return f"({o[1]},{o[2]})"


def _interval_span(o):
    if o[0] == "r":
        return (Fraction(0), o[1], True, False)
    if o[0] == "l":
        return (o[1], Fraction(1), False, True)
    return (o[1], o[2], False, False)


def _interval_intersection(a, b):
    lo1, hi1, c01, c11 = _interval_span(a)
    lo2, hi2, c02, c12 = _interval_span(b)
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    closed0 = c01 and c02 and lo == 0
    closed1 = c11 and c12 and hi == 1
    if hi < lo or (hi == lo and not (closed0 or closed1)):
        return None
    if closed0:
        return ("r", hi)
    if closed1:
        return ("l", lo)
    if hi <= lo:
        return None
    return ("m", lo, hi)


# -- prefactorization data ----------------------------------------------------


class PrefactorizationData:
    """Values and structure maps of a prefactorization algebra on a poset.

    A value's elements are labelled by basis position.  tensor mode:
    rho_raw(family_ids, factor_positions, target) gives the image chain
    {position: coeff} of a pure tensor of basis elements, for a
    pairwise-disjoint family in any order; pointed[target] is the image
    of 1 under the empty-family map k -> F(target).

    coproduct mode: structure maps are determined by the precosheaf
    extension maps ext(U, V, position) (Lemma: cosheaves are exactly the
    coproduct-regime prefactorization algebras).
    """

    def __init__(self, name, poset, values, mode, rho_raw=None, pointed=None,
                 ext=None):
        self.name = name
        self.poset = poset
        self.values = values
        self.mode = mode
        self.rho_raw = rho_raw
        self.pointed = pointed or {}
        self.ext = ext
        if mode not in ("tensor", "coproduct"):
            raise ValueError(mode)
        if mode == "tensor" and rho_raw is None:
            raise ValueError("tensor mode needs structure maps")
        if mode == "coproduct" and ext is None:
            raise ValueError("coproduct mode needs precosheaf maps")
        some = next(iter(values.values()))
        self.coefficients = some.coefficients

    def value(self, u):
        return self.values[u]

    def rho(self, family, factors, target):
        """Structure map on a pure tensor, any family order; in coproduct
        mode a family is one open and rho is its extension map."""
        if self.mode == "coproduct":
            if len(family) != 1:
                raise ValueError("a coproduct structure map takes one open")
            return self.ext(family[0], target, factors[0])
        if len(family) == 0:
            return dict(self.pointed[target])
        return self.rho_raw(family, factors, target)


def validate_prefactorization(F):
    """Exhaustive audit: symmetry, identity on U ⊆ U, and the
    associativity square over all admissible nestings (families of up to
    three opens, inner families of up to two); (ok, witness)."""
    poset = F.poset
    f = F.coefficients.field
    # identity: rho_{U,U} = id
    for u in poset.opens:
        for lab in _labels(F.value(u)):
            if F.rho((u,), (lab,), u) != {lab: f.one}:
                return False, ("identity", u, lab)
    if F.mode == "coproduct":
        return _validate_precosheaf(F)
    # symmetry under permutations with Koszul signs
    for w in poset.opens:
        for family in poset.disjoint_families(inside=w, max_size=3):
            if len(family) < 2:
                continue
            perms = list(permutations(range(len(family))))
            for factors in _factor_tuples(F, family):
                base = F.rho(family, factors, w)
                degs = [
                    _label_degree(F.value(u), lab)
                    for u, lab in zip(family, factors)
                ]
                for perm in perms:
                    pf = tuple(family[i] for i in perm)
                    pl = tuple(factors[i] for i in perm)
                    sign = dga.koszul_sign([(i, degs[i]) for i in perm])
                    if F.rho(pf, pl, w) != _signed(base, sign < 0, f):
                        return False, ("symmetry", w, family, perm)
    # associativity square (nested families), inner families possibly empty
    for w in poset.opens:
        for mids in poset.disjoint_families(inside=w, max_size=3):
            inner_choices = []
            for v in mids:
                fams = [()] + poset.disjoint_families(inside=v, max_size=2)
                inner_choices.append(fams)
            for inners in iproduct(*inner_choices):
                flat = tuple(u for fam in inners for u in fam)
                if not _pairwise_disjoint(poset, flat):
                    continue
                for factors in _factor_tuples(F, flat):
                    direct = F.rho(flat, factors, w)
                    # composite: first into the mids, then into w
                    pos = 0
                    mid_values = []
                    for v, fam in zip(mids, inners):
                        part = factors[pos : pos + len(fam)]
                        pos += len(fam)
                        mid_values.append(F.rho(fam, part, v))
                    composite = _compose(
                        _expand(mid_values),
                        lambda labs: F.rho(mids, labs, w), f,
                    )
                    if direct != composite:
                        return False, ("associativity", w, mids, inners)
    return True, None


def _validate_precosheaf(F):
    """Functoriality of the extension maps along U ⊂ V ⊂ W."""
    poset = F.poset
    f = F.coefficients.field
    for u in poset.opens:
        for v in poset.opens:
            if not (poset.leq(u, v) and u != v):
                continue
            for w in poset.opens:
                if not (poset.leq(v, w) and v != w):
                    continue
                for lab in _labels(F.value(u)):
                    once = _compose(
                        F.ext(u, v, lab), lambda k: F.ext(v, w, k), f
                    )
                    if once != F.ext(u, w, lab):
                        return False, ("functoriality", u, v, w, lab)
    return True, None


def _labels(complex_):
    return [lab for block in complex_.blocks.values() for lab in block]


def _label_degree(complex_, lab):
    return complex_.index[lab][0]


def _factor_tuples(F, family):
    pools = [_labels(F.value(u)) for u in family]
    return iproduct(*pools) if family else [()]


def _pairwise_disjoint(poset, ids):
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if not poset.disjoint(ids[i], ids[j]):
                return False
    return True


def _expand(value_dicts):
    """Pure-tensor expansion of a list of chains: {labels: coeff}."""
    prods = {(): 1}
    for vd in value_dicts:
        prods = {
            labs + (k,): v if c == 1 else c * v
            for labs, c in prods.items() for k, v in vd.items()
        }
    return prods


# -- builders -----------------------------------------------------------------


def _k_values(poset, coefficients):
    """U ↦ k (its one element 0 in degree 0) on every open, and the chain
    1 (with the plain coefficient 1, as every field takes it)."""
    c = ChainComplex(coefficients or Coefficients())
    c.add_element(0, 0, 0)
    k = c.freeze(support=(0, 0))
    return {u: k for u in poset.opens}, {0: 1}


def trivial_prefactorization(poset, coefficients=None):
    """U ↦ k with multiplication as structure maps (tensor mode)."""
    values, one = _k_values(poset, coefficients)
    return PrefactorizationData(
        "trivial", poset, values, "tensor", lambda *_: dict(one),
        {u: one for u in poset.opens},
    )


def constant_precosheaf(poset, coefficients=None):
    """U ↦ k with identity extension maps (coproduct/cosheaf mode)."""
    values, one = _k_values(poset, coefficients)
    return PrefactorizationData(
        "constant-Q", poset, values, "coproduct", ext=lambda *_: dict(one)
    )


def circle_arc_algebra(A, poset, orientation=1):
    """Arcs carry A; disjoint arcs multiply in the cyclic order induced
    by the chosen orientation (increasing start angle inside the target
    for orientation +1, decreasing for -1)."""
    if poset.ambient != "circle":
        raise CoverError("circle_arc_algebra needs a circle-arc poset")
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    f = A.coefficients.field
    value = underlying_complex(A)
    arc = poset.arc_data
    # (open, target) -> the start of the open measured from the start of
    # the target arc, in the direction of the orientation
    position = _Table(
        lambda ut: orientation * ((arc[ut[0]][0] - arc[ut[1]][0]) % 1)
    )

    def rho_raw(family, factors, target):
        keyed = [(position[u, target], p) for u, p in zip(family, factors)]
        sign = dga.koszul_sign([(key, A.degrees[p]) for key, p in keyed])
        out = {A.unit: f.coerce(sign)}
        for _key, p in sorted(keyed, key=lambda k: k[0]):
            out = _compose(out, lambda q: A.product(q, p), f)
        return out

    return PrefactorizationData(
        f"arcs({A.name})", poset, {u: value for u in poset.opens}, "tensor",
        rho_raw, {u: {A.unit: f.one} for u in poset.opens},
    )


def interval_stratified(Mr, A, Ml, poset):
    """The stratified-interval data: [0,s) ↦ M^r, (t,1] ↦ M^ℓ, else A;
    structure maps multiply in position order through the module actions;
    the empty family hits the distinguished elements."""
    if poset.ambient != "interval":
        raise CoverError("interval_stratified needs an interval poset")
    if Mr.pointed_element is None or Ml.pointed_element is None:
        raise ValueError("modules must be pointed")
    f = A.coefficients.field
    data = poset.interval_data
    # kind of open -> its value, its distinguished element, and the fold
    # of one more factor of A into the target's running product
    table = {
        "r": (Mr, Mr.pointed_element, Mr.act_right),
        "m": (A, A.unit, A.product),
        "l": (Ml, Ml.pointed_element, lambda m, a: Ml.act_left(a, m)),
    }
    complexes = {k: underlying_complex(X) for k, (X, *_) in table.items()}

    def _pos(u):
        return _interval_span(data[u])[0]

    def rho_raw(family, factors, target):
        sign = dga.koszul_sign([
            (_pos(u), table[data[u][0]][0].degrees[p])
            for u, p in zip(family, factors)
        ])
        kind = data[target][0]
        _, point, act = table[kind]
        # in position order, or from the right for a target containing 1;
        # a factor of the target's kind sits at its end and starts the
        # fold, else the distinguished element does
        keyed = sorted(zip(family, factors), key=lambda up: _pos(up[0]),
                       reverse=kind == "l")
        start = bool(keyed) and data[keyed[0][0]][0] == kind
        out = {keyed[0][1] if start else point: f.coerce(sign)}
        for _u, p in keyed[start:]:
            out = _compose(out, lambda m: act(m, p), f)
        return out

    F = PrefactorizationData(
        "stratified-interval", poset,
        {u: complexes[data[u][0]] for u in poset.opens}, "tensor", rho_raw,
        {u: {table[data[u][0]][1]: f.one} for u in poset.opens},
    )
    F.modules = (Mr, A, Ml)
    return F


def interval_global_sections(F, window=(-6, 0)):
    """F([0,1]) for the stratified interval: M^r ⊗^L_A M^ℓ via Bar."""
    Mr, A, Ml = F.modules
    return two_sided_bar(Mr, A, Ml, window)


# -- Čech complexes -----------------------------------------------------------


def cech_complex(F, cover, truncation=2, cap=None):
    """(total, augmentation): the Čech complex over PU^{i+1} tuples
    (adjacent-distinct, i.e. the normalized total complex), faces
    discarding one collection, and its augmentation into the value of the
    poset's union open (None when the poset has none).

    A level-i basis element is (alpha, parts): parts is a tuple of
    (combo, position) pairs, a combo being a tuple (U_0..U_i) ∈ Πα_j
    with nonempty intersection and the position that of a basis element
    of F(U_0 ∩ … ∩ U_i).  The tensor regime has one part per combo of
    alpha, the coproduct regime exactly one part; everything past the
    basis is written once.  Once every level is laid out, and before any
    face, InfeasibleError is raised when a (degree, weight) block of the
    total complex exceeds ``cap``."""
    poset = F.poset
    for u in cover:
        for v in cover:
            w = poset.intersection(u, v)
            if w is not None and w not in cover:
                raise CoverError("sub-cover is not intersection-closed")
    PU = sorted(
        fam for fam in poset.disjoint_families(max_size=3)
        if all(u in cover for u in fam)
    )
    coeff = F.coefficients
    levels = []
    for i in range(truncation + 1):
        tuples = _adjacent_distinct(PU, i + 1)
        c = ChainComplex(coeff)
        basis = [(alpha, parts) for alpha in tuples
                 for parts in _level_basis(F, alpha)]
        for (alpha, parts) in basis:
            c.add_element((alpha, parts), *_family_label_degree(F, parts))
        for (alpha, parts) in basis:
            for tgt, v in _family_internal_diff(F, parts).items():
                c.set_differential_entry((alpha, parts), (alpha, tgt), v)
        levels.append(c.freeze(support=(NEG_INF, POS_INF)))
    totals = {}  # the level blocks (d, w) add up to the total (d - i, w)
    for i, level in enumerate(levels):
        for (d, w), block in level.blocks.items():
            totals[d - i, w] = totals.get((d - i, w), 0) + len(block)
    check_cap(max(totals.values(), default=0), cap)
    faces = {}  # i -> the alternating face sum, one column per element
    for i in range(1, truncation + 1):
        index = levels[i - 1].index
        fmap = faces[i] = ChainMap(levels[i], levels[i - 1])
        for (alpha, parts), entry in levels[i].index.items():
            terms = []
            for s in range(i + 1):
                beta = alpha[:s] + alpha[s + 1 :]
                if any(beta[j] == beta[j + 1] for j in range(len(beta) - 1)):
                    continue  # degenerate target is zero in the quotient
                for tgt, v in _face_image(F, alpha, parts, s).items():
                    terms.append((index[(beta, tgt)][2], -v if s % 2 else v))
            fmap.set_column(entry, terms)
    tot = total_complex(SimplicialChainComplex(levels, faces, exhausted=False))
    if F.poset.union_id is None or F.poset.union_id not in F.values:
        return tot, None
    return tot, _augmentation_map(F, levels[0])


def _adjacent_distinct(PU, length):
    return [
        t for t in iproduct(PU, repeat=length)
        if all(a != b for a, b in zip(t, t[1:]))
    ]


def _combos(F, alpha):
    """Tuples (U_0..U_i) ∈ Πα_j with nonempty intersection, sorted."""
    out = []
    for combo in iproduct(*alpha):
        inter = F.poset.family_intersection(combo)
        if inter is not None:
            out.append((combo, inter))
    return out


def _level_basis(F, alpha):
    """The parts tuples of F(alpha): ⊗ over the combos of alpha in the
    tensor regime, ⊕ in the coproduct regime."""
    pools = [[(combo, lab) for lab in _labels(F.value(inter))]
             for combo, inter in _combos(F, alpha)]
    if F.mode == "coproduct":
        return [(part,) for pool in pools for part in pool]
    return list(iproduct(*pools))


def _unhit_targets(F, beta):
    """{combo: []} for the target combos of a face that receive the
    pointed element when no part lands there: every combo of beta in the
    tensor regime, none in the coproduct regime."""
    if F.mode == "coproduct":
        return {}
    return {combo: [] for combo, _inter in _combos(F, beta)}


def _part_index(F, part):
    """(degree, weight, position) of a part's label in its value."""
    combo, lab = part
    return F.value(F.poset.family_intersection(combo)).index[lab]


def _rho_parts(F, parts, target):
    """F.rho on the tensor of the parts' labels, from their opens."""
    meet = F.poset.family_intersection
    return F.rho(tuple(meet(c) for c, _ in parts),
                 tuple(lab for _, lab in parts), target)


def _family_label_degree(F, parts):
    degs = [_part_index(F, part) for part in parts]
    return sum(d for d, _, _ in degs), sum(w for _, w, _ in degs)


def _family_internal_diff(F, parts):
    """Leibniz over the parts, with the Koszul sign of the parts passed."""
    f = F.coefficients.field
    out = {}
    run = 0
    for idx, (combo, l) in enumerate(parts):
        cx = F.value(F.poset.family_intersection(combo))
        sign = f.coerce(-1 if run % 2 else 1)
        for tgt, v in cx.d_apply({l: f.one}).items():
            new = parts[:idx] + ((combo, tgt),) + parts[idx + 1 :]
            _acc(out, new, f.mul(sign, v), f)
        run += cx.index[l][0]
    return out


def _face_image(F, alpha, lab, s):
    """∂_s on a basis vector (parts ``lab``) of F(alpha): discard
    collection s, regroup the parts by target combo with the Koszul sign,
    apply F.rho per group.  The coefficients are multiplied and summed as
    plain numbers; ``ChainMap.set_column`` coerces each column's sums."""
    groups = _unhit_targets(F, alpha[:s] + alpha[s + 1 :])
    for combo, l in lab:
        groups.setdefault(combo[:s] + combo[s + 1 :], []).append((combo, l))
    sign = dga.koszul_sign([
        (combo[:s] + combo[s + 1 :], _part_index(F, (combo, l))[0])
        for combo, l in lab
    ])
    results = [(sign, ())]
    for tcombo in sorted(groups):
        image = _rho_parts(
            F, groups[tcombo], F.poset.family_intersection(tcombo)
        )
        results = [
            (coeff * v, parts + ((tcombo, k),))
            for coeff, parts in results for k, v in image.items()
        ]
    out = {}
    for coeff, parts in results:
        out[parts] = out.get(parts, 0) + coeff
    return out


def _augmentation_map(F, level0):
    target = F.values[F.poset.union_id]
    amap = ChainMap(level0, target)
    for (alpha, parts) in level0.index:
        for k, v in _rho_parts(F, parts, F.poset.union_id).items():
            amap.set_entry((alpha, parts), k, v)
    return amap


# -- excision report -----------------------------------------------------------


def excision_layout(A, window=(-5, 0), cap=None):
    """Lay out the bases of both complexes of ``excision_report``, and no
    face: InfeasibleError when a (degree, weight) block of either exceeds
    ``cap``.  Returns the circle that carries CH_{S^1}(A)."""
    mod_r, E, mod_l = enveloping_modules(A)
    classical_basis(E, outer_bimodule(mod_l, mod_r), window, cap)
    Y = simp.circle(max(0, 1 - window[0]) + 1)
    build_levels(Y, A, None, window, cap=cap)
    return Y


def excision_report(A, window=(-5, 0), cap=None):
    """The computable shadow of excision over the circle: Betti of
    A ⊗^L_{A⊗A^op} A versus CH_{S^1}(A), both held to ``cap`` before any
    face (``excision_layout``)."""
    Y = excision_layout(A, window, cap)
    env = hh_via_enveloping(A, window, cap)
    circ = hochschild_chain(Y, A, window, cap=cap)
    left = env.betti(window)
    right = circ.betti(window)
    return {
        "enveloping": left,
        "circle": right,
        "equal": left == right,
    }


# -- the cech task: a job spec's cover, the cone-excision gluing ------------


def spec_complex(spec, coefficients, cap=None):
    """The total Čech complex of a ``cech`` job spec's cover, its
    (degree, weight) blocks held to ``cap`` before any face
    (``cech_complex``)."""
    from .cli import SchemaError, _integer, _lists, _rational, build_algebra

    cover_desc = spec.get("cover")
    if not isinstance(cover_desc, dict):
        raise SchemaError("cech task needs a cover descriptor")
    ambient = cover_desc.get("ambient", "circle")
    mode = cover_desc.get("mode", "coproduct")
    trunc = _integer(cover_desc, "truncation", 2, 0)
    if ambient == "circle":
        arcs = [
            (_rational(a, "an arc start"), _rational(l, "an arc length"))
            for a, l in _lists(cover_desc, "arcs", 2, "[start, length]")
        ]
        poset = circle_arc_poset(arcs)
    elif ambient == "interval":
        opens = cover_desc.get("opens", [])
        if not isinstance(opens, list) or not all(
            isinstance(o, list) and o[:1] in (["r"], ["m"], ["l"])
            and len(o) == 2 + (o[0] == "m") for o in opens
        ):
            raise SchemaError("opens must be a list of ['r', s], ['m', t, u]"
                              " or ['l', t] lists")
        poset = interval_poset([
            (o[0], *(_rational(e, "an interval endpoint") for e in o[1:]))
            for o in opens
        ])
    else:
        raise SchemaError("cech cover ambient must be circle or interval")
    value = cover_desc.get("value", "constant-Q")
    if value == "constant-Q" and mode == "coproduct":
        F = constant_precosheaf(poset, coefficients)
    elif value == "trivial" and mode == "tensor":
        F = trivial_prefactorization(poset, coefficients)
    elif value == "arc-algebra" and mode == "tensor":
        A = build_algebra(spec["algebra"], coefficients)
        F = circle_arc_algebra(A, poset)
    else:
        raise SchemaError(f"unsupported cech value/mode {value}/{mode}")
    ok, wit = validate_prefactorization(F)
    if not ok:
        raise SchemaError(f"prefactorization audit failed: {wit}")
    return cech_complex(F, poset.opens, trunc, cap)[0]


def cone(fmap):
    """Mapping cone of a degree-0 chain map: cone^m = C^{m+1} ⊕ D^m."""
    if fmap.shift != 0:
        raise ValueError("cone requires a degree-0 map")
    c, d = fmap.source, fmap.target
    f = c.coefficients.field
    out = ChainComplex(c.coefficients)
    for (dc, w), block in sorted(c.blocks.items()):
        for x in block:
            out.add_element(("src", x), dc - 1, w)
    for (dd, w), block in sorted(d.blocks.items()):
        for y in block:
            out.add_element(("tgt", y), dd, w)
    for x, x2, v in _entries(c):  # -d_C
        out.set_differential_entry(("src", x), ("src", x2), f.neg(v))
    for x, y, v in _entries(fmap):  # f
        out.set_differential_entry(("src", x), ("tgt", y), v)
    for y, y2, v in _entries(d):  # d_D
        out.set_differential_entry(("tgt", y), ("tgt", y2), v)
    lo = max(
        c.window[0] - 1 if c.window[0] > NEG_INF else NEG_INF, d.window[0]
    )
    hi = min(
        c.window[1] - 1 if c.window[1] < POS_INF else POS_INF, d.window[1]
    )
    slo = min(
        c.support[0] - 1 if c.support[0] > NEG_INF else NEG_INF, d.support[0]
    )
    shi = max(
        c.support[1] - 1 if c.support[1] < POS_INF else POS_INF, d.support[1]
    )
    return out.freeze(window=(lo, hi), support=(slo, shi))


def cone_gluing_dims(coefficients):
    """Betti numbers of the cone of k² → k², z ↦ x − y on both
    generators: the gluing that the ``compare_cone_gluing`` key of a
    cover compares with."""
    f = coefficients.field
    Z = ChainComplex(coefficients)
    Z.add_element("z1", 0, 0)
    Z.add_element("z2", 0, 0)
    Z.freeze(support=(0, 0))
    XY = ChainComplex(coefficients)
    XY.add_element("x", 0, 0)
    XY.add_element("y", 0, 0)
    XY.freeze(support=(0, 0))
    fm = ChainMap(Z, XY)
    for z in ("z1", "z2"):
        fm.set_entry(z, "x", f.one)
        fm.set_entry(z, "y", f.coerce(-1))
    return cone(fm).betti((-1, 0))

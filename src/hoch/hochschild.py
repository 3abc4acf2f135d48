"""Hochschild complexes over simplicial sets, and the oracles of the chain
tasks.

The main builder realizes the level-n space A^{⊗Y_n} (module coefficients
at the basepoint, slot 0, when present), faces induced by the face maps of
Y with Koszul signs, and the normalized total complex, which both builders
return; the Bar construction is its interval case.  The periodic
resolution for truncated polynomial algebras and the HKR prediction tables
are oracles on deliberately separate code paths.  The classical complexes
(the textbook Hochschild complex, twisted, two-sided and iterated Bar, the
enveloping route) are in ``classical``, which only the other tasks import.
"""

from functools import reduce
from itertools import compress
from operator import or_

from . import dga
# apply_setmap stays bound here for perfbench's tracer test (ROADMAP item 8)
from .dga import apply_setmap, compile_setmap  # noqa: F401
from .homalg import (
    NEG_INF,
    ChainComplex,
    ChainMap,
    Coefficients,
    SimplicialChainComplex,
    total_complex,
)
from .linalg import SparseMatrix, _acc, rank


class TruncationError(ValueError):
    """The materialized simplicial set cannot certify the request."""


class InfeasibleError(RuntimeError):
    """A (degree, weight) block of the total complex exceeds the cap."""


def check_cap(size, cap):
    """InfeasibleError when ``size``, the largest (degree, weight) block of
    a complex, exceeds ``cap`` (if given)."""
    if cap is not None and size > cap:
        raise InfeasibleError(
            f"largest (degree, weight) block has dimension {size} > cap {cap}"
        )


# -- monomial enumeration ---------------------------------------------------


def _level_monomials(Y, n, A, module, weights, min_int, normalized, cap=None,
                     unit_base=False, supports=True):
    """Monomials at level n, each as ``(monomial, (internal degree,
    weight), support)``: a monomial is a tuple of basis positions per slot
    of Y_n, and its support the (slot, position) pairs of its non-unit
    slots and its module slot, in slot order (``dga._support``), or None
    without ``supports``.

    The basepoint, slot 0, carries module positions when a module is
    given.
    Normalized: the non-unit algebra support must meet every degeneracy-
    image complement.  Budgets: total weight in ``weights`` (if given),
    total internal degree >= min_int (if given).  Sorted.

    The supports are enumerated by branch-and-bound over the index of the
    next non-unit slot, so unit slots cost nothing; an assignment is
    recorded as soon as it meets every complement, then extended further.
    The running weight (<= max(weights)) and degree (>= min_int) are
    checked after each non-unit slot, in slot order.  Two bounds prune
    without losing an assignment:

    - The next slot may not pass the last slot of any complement that is
      still uncovered: every later slot lies beyond it, so that complement
      would stay uncovered.
    - When weights are given and every non-unit weight is >= 1, at most
      (max(weights) - weight so far) // (least non-unit weight) further
      slots fit.  At 0 the search stops; at 1, with complements still
      uncovered, the single remaining slot must lie in all of them.

    An assignment is expanded over the module slot when it is recorded.
    ``cap`` bounds each (internal degree, weight) block of the level:
    InfeasibleError is raised as soon as one holds more than ``cap``
    monomials.  A level block lies inside one block of the total complex,
    so this never rejects a job whose total blocks all fit.  Without a
    module and with ``unit_base``, slot 0 is left out of the search all
    the same, and kept unit (the basepoint of a cochain argument).
    """
    card = Y.card(n)
    if module is not None and not Y.pointed:
        raise ValueError("module coefficients require a pointed space")
    first = 1 if module is not None or unit_base else 0  # first searched slot
    complements = ()
    if normalized and n >= 1:
        complements = Y.nondegenerate_complements(n)
        if any(not c for c in complements):
            return []
    max_wt = max(weights) if weights is not None else None
    wt_set = set(weights) if weights is not None else None
    nonunit = [
        (p, A.weights[p], A.degrees[p]) for p in range(A.dim) if p != A.unit
    ]

    # the basepoint never helps covering (it is degenerate-stable)
    if first:
        complements = [c - {0} for c in complements]
        if any(not c for c in complements):
            return []
    n_slots = card - first
    # complements as sorted slot indices (slot - first), ordered by their
    # last index, so the lowest uncovered one bounds the next non-unit slot
    comps = sorted(
        (sorted(s - first for s in c) for c in complements),
        key=lambda c: c[-1],
    )
    covers = [0] * n_slots  # slot idx -> bitmask of complements
    for ci, c in enumerate(comps):
        for i in c:
            covers[i] |= 1 << ci
    min_w = None
    if max_wt is not None and nonunit and all(w >= 1 for _, w, _ in nonunit):
        min_w = min(w for _, w, _ in nonunit)
    # per slot index, its (slot, position) pair with the weight and degree
    # of each non-unit position: the supports of the level share the pairs
    choices = [[((s, p), w, d) for p, w, d in nonunit]
               for s in range(first, card)]
    # ((slot, position), weight, degree) of the module element at slot 0
    module_terms = [(None, 0, 0)] if module is None else [
        ((0, m), module.weights[m], module.degrees[m])
        for m in range(module.dim)
    ]
    monos = []
    counts = {}  # (internal degree, weight) -> monomials so far
    picks = []  # (slot, position) of the non-unit slots chosen so far
    mono = [A.unit] * card  # their monomial

    def record(wt, deg):
        sup = picked = tuple(picks) if supports else None
        for mpair, mw, md in module_terms:
            key = (deg + md, wt + mw)
            if wt_set is not None and key[1] not in wt_set:
                continue
            if min_int is not None and key[0] < min_int:
                continue
            if mpair is not None:
                mono[0] = mpair[1]
                # the module pair comes first, as slot 0 does
                sup = (mpair,) + picked if supports else None
            monos.append((tuple(mono), key, sup))
            if cap is not None:
                count = counts[key] = counts.get(key, 0) + 1
                if count > cap:
                    raise InfeasibleError(
                        f"level {n}: (internal degree, weight) block {key}, "
                        f"in total degree {key[0] - n}, has more than cap "
                        f"{cap} elements"
                    )

    def search(start, wt, deg, uncovered):
        if uncovered:
            lowest = comps[(uncovered & -uncovered).bit_length() - 1]
            nxt = range(start, lowest[-1] + 1)
        else:
            record(wt, deg)
            nxt = range(start, n_slots)
        if min_w is not None:
            left = (max_wt - wt) // min_w
            if left == 0:
                return
            if left == 1 and uncovered:
                nxt = [
                    i for i in lowest
                    if i >= start and covers[i] & uncovered == uncovered
                ]
        for i in nxt:
            rest = uncovered & ~covers[i]
            for pair, pw, pd in choices[i]:
                w2 = wt + pw
                d2 = deg + pd
                if max_wt is not None and w2 > max_wt:
                    continue
                if min_int is not None and d2 < min_int:
                    continue
                picks.append(pair)
                mono[pair[0]] = pair[1]
                search(i + 1, w2, d2, rest)
                picks.pop()
            mono[first + i] = A.unit

    search(0, 0, 0, (1 << len(comps)) - 1)
    # ``search`` refers to itself through its closure; breaking that cycle
    # frees the search state on return instead of at the next collection
    del search
    monos.sort()  # monomials are distinct, so their keys are never compared
    return monos


def _is_nondegenerate(Y, n, A, mono):
    if n == 0:
        return True
    # positions are ints, so with the unit at 0 the non-unit slots are
    # exactly the truthy entries (as in a ``dga.compile_setmap`` program).
    # A module slot is the basepoint, slot 0, which lies in no complement
    # (it is degenerate-stable), so whatever it holds never decides.
    flags = mono if A.unit == 0 else map(A.unit.__ne__, mono)
    support = set(compress(range(len(mono)), flags))
    return not any(map(support.isdisjoint, Y.nondegenerate_complements(n)))


def _face_gates(Y, n, skip=True):
    """``(gates, met)``: face r of Y_n is pushed on a level-n monomial only
    when ``met(support)``, for its support, has every bit of ``gates[r]``.

    The masks of ``Y.face_masks(n)`` are numbered across the faces:
    ``gates[r]`` has the bits of face r's masks, and ``met`` gives the bits
    of the masks that the monomial's non-unit slots meet.  The non-unit
    slots of the image under d_r lie in d_r(support), so that image is
    degenerate when the support misses one of r's masks, and the normalized
    complex drops it.  Without ``skip``, at level 0, or when no face of the
    level has a mask, every gate is 0 and no support is looked at.
    """
    per_face = Y.face_masks(n) if skip and n else ()
    gates, k = [], 0
    for masks in per_face:
        gates.append((1 << k + len(masks)) - (1 << k))
        k += len(masks)
    if not k:
        return (0,) * (n + 1), lambda support: 0
    numbered = [m for masks in per_face for m in masks]
    # slot -> the bits of the masks it lies in; a module slot is the
    # basepoint, which lies in no mask
    hits = [sum(1 << i for i, m in enumerate(numbered) if m >> s & 1)
            for s in range(Y.card(n))]
    return gates, lambda support: reduce(
        or_, [hits[s] for s, _ in support], 0
    )


def _internal_diff(A, module, mono):
    """Slotwise differential with Koszul signs, the module (when given) at
    slot 0; {target_mono: coeff}."""
    f = A.coefficients.field
    out = {}
    run = 0  # parity of the total degree left of the current slot
    for s, p in enumerate(mono):
        if module is not None and not s:
            img = module.d(p)
            deg = module.degrees[p]
        else:
            img = A.d(p)
            deg = A.degrees[p]
        if img:
            sign = f.coerce(-1 if run % 2 else 1)
            for q, c in img.items():
                t = list(mono)
                t[s] = q
                _acc(out, tuple(t), f.mul(sign, c), f)
        run += deg
    return out


# -- truncation bounds ------------------------------------------------------


def required_level(Y, A, window, weights):
    """(level, exhausted): materialization needed to certify ``window``.

    Class-(ii) route: per-weight vanishing through the space's hitting
    certificate.  Fallback: degree-level bound (all basis degrees <= 0),
    level 1 - lo certifies chains down to degree lo - 1.
    """
    lo = window[0]
    n_deg = max(0, 1 - lo)
    if weights is not None and A.weight_graded and Y.hitcap_coeff is not None:
        n_wt = Y.hitcap_coeff * (max(weights) if weights else 0)
        if n_wt <= n_deg:
            return n_wt, True
    if A.max_weight is not None and weights is None:
        raise TruncationError(
            f"{A.name}: weights must be specified for a per-weight-"
            "materialized algebra"
        )
    return n_deg, False


# -- the main builders -------------------------------------------------------


def build_levels(Y, A, module=None, window=(-6, 0), weights=None,
                 normalized=True, cap=None):
    """The level complexes of n -> A^{⊗Y_n} (module at the basepoint):
    their bases and internal differentials, and no faces.

    Returns ``(levels, exhausted, blocks, supports)``: ``levels[n]`` is
    the frozen level-n ChainComplex, labelled by monomials in sorted order;
    ``exhausted`` says the complex vanishes above the top level;
    ``blocks`` maps each (degree, weight) block of the total complex to its
    dimension, the sum over n of the level-n blocks at (degree + n,
    weight); and ``supports[n]`` lists the supports of level n's labels
    (see ``_level_monomials``) in the same order, each None unless the
    programs fold supports or a face of level n has masks.

    With a ``cap``, InfeasibleError is raised as soon as one block of the
    total complex is larger: within a level by the enumeration, and after
    each level's basis, before its internal differential.  No face map is
    built here, so an infeasible job stops before the expensive work.
    Weights whose algebra part can pass A's materialized weight raise
    AlgebraClassError before any basis: a face could fold past it.
    """
    if module is not None and not module.symmetric:
        raise ValueError(
            "simplicial module coefficients require a symmetric bimodule"
        )
    low = min(module.weights, default=0) if module is not None else 0
    heaviest = max(weights or [0]) - min(low, 0)
    if A.max_weight is not None and heaviest > A.max_weight:
        raise dga.AlgebraClassError(
            f"{A.name}: weight {heaviest} exceeds materialized weight "
            f"{A.max_weight}"
        )
    top_level, exhausted = required_level(Y, A, window, weights)
    if top_level > Y.top_level:
        raise TruncationError(
            f"{Y.name} materialized to level {Y.top_level}, "
            f"need {top_level}"
        )
    min_int = None if exhausted else window[0] - 1
    # a zero differential (of the algebra and the module) adds no entries
    has_diff = bool(A.diff or (module is not None and module.diff))
    levels, blocks, supports = [], {}, []
    for n in range(top_level + 1):
        lo = None if min_int is None else min_int + n
        c = ChainComplex(A.coefficients)
        keyed = _level_monomials(Y, n, A, module, weights, lo, normalized,
                                 cap=cap, supports=A.max_weight is not None
                                 or any(_face_gates(Y, n, normalized)[0]))
        for mono, (d, w), _ in keyed:
            c.add_element(mono, d, w)
        supports.append([sup for _, _, sup in keyed])
        del keyed
        for (d, w), block in c.blocks.items():
            key = (d - n, w)
            size = blocks[key] = blocks.get(key, 0) + len(block)
            if cap is not None and size > cap:
                raise InfeasibleError(
                    f"(degree, weight) block {key} of the total complex "
                    f"has {size} elements through level {n} > cap {cap}"
                )
        if has_diff:
            for mono in c.index:
                for tgt, v in _internal_diff(A, module, mono).items():
                    if tgt in c.index:
                        c.set_differential_entry(mono, tgt, v)
                    elif _is_nondegenerate(Y, n, A, tgt):
                        # d raises the internal degree (audited), so a
                        # nondegenerate target lies within the budget
                        raise AssertionError("missing internal target")
        levels.append(c.freeze(support=(NEG_INF, 0)))
    return levels, exhausted, blocks, supports


def build_simplicial_ch(Y, A, module=None, window=(-6, 0), weights=None,
                        normalized=True, cap=None):
    """The simplicial chain complex n -> A^{⊗Y_n} (module at basepoint):
    the levels of ``build_levels`` and, per level, the alternating sum of
    the faces induced by Y, set one source column at a time.  A target
    missing from the level below must be degenerate (never, unnormalized).

    Normalized, a face whose image is provably degenerate is not pushed
    (``_face_gates``).  Every image that is pushed lands or is checked to
    be degenerate.  Over an algebra with a ``max_weight`` the programs
    (``dga.compile_setmap``) fold supports: they run on the supports of
    ``build_levels``, and their images are looked up by support.

    Module coefficients must be symmetric bimodules here: the Eq.-7
    source-order merges only exercise one side of the action.  Genuine
    bimodules over the circle go through the classical complex instead.
    """
    levels, exhausted, _blocks, supports = build_levels(
        Y, A, module, window, weights, normalized, cap
    )
    faces = {}
    sparse = A.max_weight is not None
    for n in range(1, len(levels)):
        index = levels[n - 1].index
        gates, met = _face_gates(Y, n, normalized)
        # (gate of face r, the program of (-1)^r d_r onto Y_{n-1}'s slots)
        faces_r = [
            (gate, compile_setmap(A, setmap, Y.card(n - 1), module,
                                  -1 if r % 2 else 1))
            for r, (gate, setmap) in enumerate(
                zip(gates, map(tuple, Y.face_tab[n]))
            )
        ]
        if sparse:
            # level n - 1's support -> its index entry, for this level only
            index = dict(zip(supports[n - 1], index.values()))
        supports[n - 1] = None
        fmap = faces[n] = ChainMap(levels[n], levels[n - 1])
        for (mono, entry), sup in zip(levels[n].index.items(), supports[n]):
            covered = met(sup)
            terms = []
            for gate, push in faces_r:
                if covered & gate != gate:
                    continue
                for timg, v in push(sup if sparse else mono).items():
                    hit = index.get(timg)
                    if hit is not None:
                        terms.append((hit[2], v))
                    elif not normalized or _is_nondegenerate(
                        Y, n - 1, A, dga._whole(timg, Y.card(n - 1), A.unit)
                        if sparse else timg
                    ):
                        raise AssertionError("missing face target")
            fmap.set_column(entry, terms)
    return SimplicialChainComplex(levels, faces, exhausted)


def hochschild_chain(Y, A, window=(-6, 0), weights=None, cap=None):
    """CH_Y(A): the normalized total complex, labelled ``(level,
    monomial)``, with a certified window; ``cap`` bounds its (degree,
    weight) blocks (see ``build_levels``)."""
    return _chain(Y, A, None, window, weights, cap)


def hochschild_chain_with_coeff(Y, A, module, window=(-6, 0), weights=None,
                                cap=None):
    """CH_Y(A, M) as the total complex of ``hochschild_chain``: the
    basepoint, slot 0, carries M.

    M must be a symmetric bimodule for a general pointed space; the circle
    admits genuine bimodules, and returns the classical complex, whose
    blocks are held to ``cap`` before its faces (see
    ``classical.classical_hochschild``).
    """
    if not Y.pointed:
        raise ValueError("module coefficients require a pointed space")
    if not module.symmetric:
        if Y.name != "circle":
            raise ValueError(
                "genuine bimodule coefficients are only supported over the "
                "circle"
            )
        from .classical import classical_hochschild

        return classical_hochschild(A, module, window, cap)
    return _chain(Y, A, module, window, weights, cap)


def _chain(Y, A, module, window, weights, cap):
    scc = build_simplicial_ch(Y, A, module, window, weights, cap=cap)
    tot = total_complex(scc)
    tot.weights_materialized = set(weights) if weights is not None else None
    return tot


# -- the periodic-resolution oracle -----------------------------------------

# (deliberately independent of the simplicial machinery above; the classical
# complexes are in ``classical``)


def periodic_resolution_dims(truncation, twist_scalar, window=(-6, 0),
                             coefficients=None):
    """Betti of HH(k[x]/x^N, twisted by x -> c x) from the 2-periodic
    small free resolution; an oracle independent of every complex builder.

    d_odd(x^e)  = (c - 1)  x^{e+1}
    d_even(x^e) = (sum_{a<N} c^a) x^{e+N-1}

    >>> periodic_resolution_dims(2, 1, (-3, 0))
    {-3: 1, -2: 1, -1: 1, 0: 2}
    >>> periodic_resolution_dims(2, -1, (-3, 0))
    {-3: 1, -2: 1, -1: 1, 0: 1}
    """
    coefficients = coefficients or Coefficients()
    f = coefficients.field
    N = truncation
    c = f.coerce(twist_scalar)
    gamma = f.zero
    power = f.one
    for _ in range(N):
        gamma = f.add(gamma, power)
        power = f.mul(power, c)

    def mat(scalar, shift):
        m = SparseMatrix(N, N, f)
        for e in range(N):
            if e + shift < N and not f.is_zero(scalar):
                m.set(e + shift, e, scalar)
        return m

    d_odd = mat(f.sub(c, f.one), 1)
    d_even = mat(gamma, N - 1)
    lo, hi = window
    out = {}
    for deg in range(lo, min(hi, 0) + 1):
        i = -deg
        d_in = d_odd if i % 2 == 0 else d_even  # map C_{i+1} -> C_i
        d_out = d_even if i % 2 == 0 else d_odd  # map C_i -> C_{i-1}
        r_in = rank(d_in)
        r_out = rank(d_out) if i > 0 else 0
        out[deg] = N - r_in - r_out
    return out


# -- HKR predictions ---------------------------------------------------------


def free_graded_commutative_dims(generators, window, max_weight):
    """Dimension table of the free graded-commutative algebra on
    (degree, weight) generators: polynomial on even, exterior on odd."""
    lo = window[0]
    table = {(0, 0): 1}
    for (d, w) in generators:
        if d > 0:
            raise ValueError("generators must sit in non-positive degrees")
        series = [(0, 0, 1)]
        if d % 2:  # exterior
            series.append((d, w, 1))
        else:
            if d == 0 and w == 0:
                raise ValueError("even (0,0)-generator gives infinite dims")
            k = 1
            while True:
                if d < 0 and k * d < lo:
                    break
                if w > 0 and max_weight is not None and k * w > max_weight:
                    break
                if d == 0 and (w == 0 or max_weight is None):
                    raise ValueError("unbounded generator expansion")
                series.append((k * d, k * w, 1))
                k += 1
        new = {}
        for (deg, wt), m in table.items():
            for (dd, dw, c) in series:
                nd, nw = deg + dd, wt + dw
                if nd < lo:
                    continue
                if max_weight is not None and nw > max_weight:
                    continue
                new[(nd, nw)] = new.get((nd, nw), 0) + m * c
        table = new
    return {k: v for k, v in table.items() if v}


ALGEBRA_GENERATORS = {
    # descriptor -> list of (degree, weight) free generators
    "polynomial": [(0, 1)],
}


def hkr_prediction(algebra_descriptor, space_descriptor, window, weights):
    """Expected Betti table per (degree, weight) from the closed forms:
    for a d-sphere a shifted Kähler generator of degree |x| - d per
    generator x; for a genus-g surface one of degree |x| - 2 and 2g of
    degree |x| - 1."""
    gens = _descriptor_generators(algebra_descriptor)
    kind, param = space_descriptor
    out_gens = list(gens)
    for (d, w) in gens:
        if kind == "sphere":
            out_gens.append((d - param, w))
        elif kind == "surface":
            out_gens.append((d - 2, w))
            out_gens += [(d - 1, w)] * (2 * param)
        else:
            raise ValueError(space_descriptor)
    max_w = max(weights) if weights is not None else None
    table = free_graded_commutative_dims(out_gens, window, max_w)
    if weights is not None:
        table = {k: v for k, v in table.items() if k[1] in set(weights)}
    return {k: v for k, v in sorted(table.items())}


def _descriptor_generators(descriptor):
    if isinstance(descriptor, str):
        if descriptor in ALGEBRA_GENERATORS:
            return ALGEBRA_GENERATORS[descriptor]
        raise ValueError(f"not in the smooth/free catalogue: {descriptor}")
    if isinstance(descriptor, dict) and "free_generators" in descriptor:
        return [tuple(g) for g in descriptor["free_generators"]]
    raise ValueError(descriptor)

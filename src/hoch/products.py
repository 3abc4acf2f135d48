"""Products: shuffle on chains, cup and wedge on higher cochains, and the
cochain complexes they act on.

There is one cochain type and one coboundary, ``CochainComplexData``'s,
built over any pointed simplicial set; the classical cochains are its
circle case, CH^{S^1}(A, A), and the cup product acts on their labels.

Sign policy: the Koszul rule, (-1)^{|x||y|} whenever x passes y.  A
permutation of slots takes its sign from dga.compile_setmap's sorting
permutation; where one factor passes a block whole (g past f's arguments
in the cup, the simplicial degree in the shuffle, the basepoint factor
past the cochain), the sign is the crossing parity (-1)^{|x|·Σ|block|}.
The totalization signs are fixed.  The exactness of
unit/associativity/commutativity/Leibniz at chain level is enforced by
the test battery, and checked by the ``cup-table`` and ``shuffle-check``
tasks (``cup_table``, held to the cap by ``cup_labels``, and
``shuffle_check``).
"""

import random
from functools import cached_property
from itertools import combinations, repeat

from . import dga, simp
# apply_setmap stays bound here for perfbench's tracer test (ROADMAP item 8)
from .dga import _constants, apply_setmap, compile_setmap  # noqa: F401
from .homalg import NEG_INF, POS_INF, ChainComplex
from .linalg import SparseMatrix, _Table, _acc, _signed, field_values
from .hochschild import (
    InfeasibleError,
    TruncationError,
    _internal_diff,
    _is_nondegenerate,
    _face_gates,
    _level_monomials,
)


# -- shuffle product on Hochschild chains ------------------------------------


def _shuffles(p, q):
    """(mu, nu, sign): mu the p rising positions, nu the q rising positions,
    sign of the permutation mu + nu of {0..p+q-1}, whose inversions number
    the sum of mu_i - i.

    >>> list(_shuffles(1, 2))
    [((0,), (1, 2), 1), ((1,), (0, 2), -1), ((2,), (0, 1), 1)]
    """
    universe = range(p + q)
    for mu in combinations(universe, p):
        nu = tuple(x for x in universe if x not in mu)
        yield mu, nu, -1 if (sum(mu) - p * (p - 1) // 2) % 2 else 1


def _composite(tables, card):
    """The slot map of a composite of simplicial maps, each given by its
    table (the position of the image of each slot), applied in order to
    ``card`` slots.

    >>> _composite([(0, 0, 1), (1, 0)], 3)
    (1, 1, 0)
    """
    comp = range(card)
    for tab in tables:
        comp = [tab[s] for s in comp]
    return tuple(comp)


def shuffle_product(H, u, v):
    """Chain-level shuffle product on CH_Y(A); u, v: {(level, mono): coeff}.

    Requires a commutative algebra; the result is reduced into the
    normalized basis of H (degenerate summands vanish).  A shuffle (mu,
    nu) of (p, q) is one program on the slots of u then v, compiled once
    per call: the degeneracies s_nu on u's slots and s_mu on v's, onto
    level p + q, so each target slot folds a factor of u with one of v.
    """
    A = H.algebra
    if not A.commutative:
        raise ValueError("shuffle product requires a commutative algebra")
    if H.module is not None:
        raise ValueError("shuffle product lives on coefficient-free chains")
    Y = H.space
    f = A.coefficients.field
    index = H.complex.index

    def degeneracies(n, indices):  # s_{i_k} ... s_{i_1} on Y_n's slots
        return _composite(
            [Y.deg_tab[n + k][i] for k, i in enumerate(indices)], Y.card(n)
        )

    # (p, q) -> the program of each shuffle (mu, nu) of (p, q), signed by
    # it, on whole monomials
    programs = _Table(lambda pq: [
        dga._on_monomials(compile_setmap(
            A, degeneracies(pq[0], nu) + degeneracies(pq[1], mu),
            Y.card(sum(pq)), sign=sgn,
        ), Y.card(sum(pq)))
        for mu, nu, sgn in _shuffles(*pq)
    ])
    out = {}
    for (p, monoU), cu in u.items():
        for (q, monoV), cv in v.items():
            if p + q > len(H.levels) - 1:
                raise TruncationError(
                    "shuffle target level exceeds the materialized window"
                )
            base = f.mul(cu, cv)
            # bigraded interchange: the simplicial degree of v crosses the
            # internal degree of u, its total degree plus p
            if q * (index[p, monoU][0] + p) % 2:
                base = f.neg(base)
            for push in programs[p, q]:
                for mono, c in push(monoU + monoV).items():
                    label = (p + q, mono)
                    total = f.mul(base, c)
                    if f.is_zero(total):
                        continue
                    if label in index:
                        _acc(out, label, total, f)
                    elif _is_nondegenerate(Y, p + q, A, mono):
                        raise TruncationError(
                            "shuffle product leaves the materialized window"
                        )
    return out


def unit_chain(H):
    """The unit of the shuffle product: the all-units level-0 monomial."""
    mono = tuple([H.algebra.unit] * H.space.card(0))
    return {(0, mono): H.algebra.coefficients.field.one}


# -- the cup product on the circle's cochains -------------------------------


def cup(A, fch, gch):
    """The Gerstenhaber cup product on C^*(A, A) = CH^{S^1}(A, A), whose
    cochains are {(n, (A.unit,) + arg, v): coeff} as ``CochainComplexData``
    over the circle has them; A may be noncommutative:
    (f ∪ g)(a_1..a_{p+q}) = ± f(a_1..a_p) g(a_{p+1}..a_{p+q}), the sign
    (-1)^{|g|_int · Σ|a_i|} of g crossing f's arguments."""
    f, degrees = A.coefficients.field, A.degrees
    out = {}
    for (p, arg1, v1), c1 in fch.items():
        cross = sum(map(degrees.__getitem__, arg1))  # the unit has degree 0
        for (q, arg2, v2), c2 in gch.items():
            gdeg = degrees[v2] - sum(map(degrees.__getitem__, arg2))
            c12 = f.mul(c1, c2)
            if gdeg * cross % 2:
                c12 = f.neg(c12)
            for k, c in A.product(v1, v2).items():
                _acc(out, (p + q, arg1 + arg2[1:], k), f.mul(c12, c), f)
    return out


# -- higher Hochschild cochains ----------------------------------------------


class CochainComplexData:
    """CH^Y(A, M) = Hom_A(CH_Y(A), M) over a pointed simplicial set.

    Level-n basis: (n, arg, m) with arg a normalized monomial on the
    non-basepoint slots (unit at the basepoint, slot 0) and m a module basis
    element; weights are collapsed to 0.  ``arg_degrees[n]`` maps each
    level-n argument, in sorted order, to its internal degree.

    The coboundary, ``complex``, is built by ``_build`` on first read.  The
    labels of each level are laid out in one pass.  The coboundary is
    summed as plain numbers, by position, into one {column: {row: value}}
    dict per block, and each distinct sum is coerced once.  A face whose
    image is provably degenerate is not pushed (``hochschild._face_gates``,
    the rule of the chain builder); a face or internal-differential image
    missing from the level below must be degenerate.
    """

    def __init__(self, Y, A, module, window=(0, 4), top=None):
        if not Y.pointed:
            raise ValueError("cochains require a pointed space")
        # the faces act on the value through the left action alone
        if not module.symmetric:
            raise ValueError(
                "simplicial module coefficients require a symmetric bimodule"
            )
        if A.max_weight is not None:
            raise TruncationError("cochains need a finite-dimensional algebra")
        self.Y, self.A, self.module = Y, A, module
        # wedge_product's iterated-face programs and argument halves, kept
        # per pair of factor spaces (see _wedge_programs, _wedge_halves)
        self._wedge_memo = {}
        if top is None:
            top = window[1] + 1 - min(module.degrees, default=0)
        if top > Y.top_level:
            raise TruncationError(
                f"{Y.name} materialized to level {Y.top_level}, need {top}"
            )
        self.top = top
        # per level: the arguments with their internal degrees; for _build
        # alone, the face gates and each argument's mask bits (_face_gates)
        self.arg_degrees, self._gated = [], []
        for n in range(top + 1):
            gates, met = _face_gates(Y, n)
            keyed = _level_monomials(Y, n, A, None, None, None, True,
                                     unit_base=True, supports=any(gates))
            self.arg_degrees.append({arg: adeg for arg, (adeg, _), _ in keyed})
            self._gated.append((gates, [met(sup) for _, _, sup in keyed]
                                if any(gates) else repeat(0)))
        self.args = [list(table) for table in self.arg_degrees]

    @cached_property
    def complex(self):  # the coboundary, a ChainComplex built on first read
        return self._build()

    def _build(self):
        """Lay out the labels and push every face; drop the face gates."""
        Y, A, module, mdeg = self.Y, self.A, self.module, self.module.degrees
        out = ChainComplex(A.coefficients)
        index, blocks = out.index, out.blocks
        cols = {}  # degree -> {column: {row: plain number}} of its block
        at = []  # per level, per argument the index entries of its labels
        for n, degrees in enumerate(self.arg_degrees):
            # internal degree -> the degree and block of each m
            shapes = _Table(lambda adeg: [
                (d, blocks.setdefault((d, 0), []), cols.setdefault(d, {}))
                for d in [n + dm - adeg for dm in mdeg]
            ])
            at.append(spots := {})
            for arg, adeg in degrees.items():
                here = spots[arg] = []
                for m, (d, block, _) in enumerate(shapes[adeg]):
                    label = n, arg, m
                    here.append(entry := (d, 0, len(block)))
                    index[label] = entry
                    block.append(label)

        def add(source, target, value):  # by the labels' index entries
            column = cols[source[0]].setdefault(source[2], {})
            column[target[2]] = column.get(target[2], 0) + value

        # the faces, dualized: a face image w of a level-lvl argument u
        # splits into its basepoint factor b (slot 0), which acts on the
        # value, and the level-n argument ``rest``
        left = _constants(module, "act_left")
        unit, degrees = A.unit, A.degrees
        for lvl in range(1, self.top + 1):
            n = lvl - 1
            below, below_deg = at[n], self.arg_degrees[n]
            gates, covered = self._gated[lvl]
            for i, (gate, setmap) in enumerate(zip(gates, Y.face_tab[lvl])):
                push = compile_setmap(A, tuple(setmap), Y.card(n))
                for (u, rows), cov in zip(at[lvl].items(), covered):
                    if cov & gate != gate:
                        continue
                    for full, lam in push(u).items():
                        rest = (unit,) + full[1:]
                        spots = below.get(rest)
                        if spots is None:
                            if _is_nondegenerate(Y, n, A, rest):
                                raise AssertionError("missing face target")
                            continue
                        b = full[0]
                        odd = degrees[b] % 2
                        # |b| crosses the value: the argument, then m
                        cross = i + odd * below_deg[rest]
                        for m, (sd, _, col) in enumerate(spots):
                            v = -lam if (cross + odd * mdeg[m]) % 2 else lam
                            columns = cols[sd]
                            for q, c in left[b, m]:
                                td, _, row = rows[q]
                                if td != sd + 1:  # a misgraded action
                                    raise ValueError(
                                        f"coboundary entry {(n, rest, m)!r}"
                                        f" -> {(lvl, u, q)!r} must raise the"
                                        " degree by 1 and preserve the weight")
                                column = columns.setdefault(col, {})
                                column[row] = column.get(row, 0) + c * v
        # the differentials of M and A raise the degree by 1 (audited)
        for n, level in enumerate(at):
            sign_n = -1 if n % 2 else 1
            for u, spots in level.items():
                # d_M after phi
                for m in range(module.dim if module.diff else 0):
                    for q, c in module.d(m).items():
                        add(spots[m], spots[q], sign_n * c)
                # -(-1)^{|phi|_int} phi ∘ d, dualized (nothing when d = 0)
                if not A.diff:
                    continue
                for tgt, c in _internal_diff(A, None, u).items():
                    if tgt not in level:
                        if _is_nondegenerate(Y, n, A, tgt):
                            raise AssertionError("missing internal target")
                        continue
                    adeg = self.arg_degrees[n][tgt]
                    for m in range(module.dim):
                        sign = sign_n if (mdeg[m] - adeg) % 2 else -sign_n
                        add(level[tgt][m], spots[m], sign * c)
        f = A.coefficients.field
        values = field_values(f)
        for d, columns in cols.items():
            if not columns:
                continue
            mat = out.diff[(d, 0)] = SparseMatrix(
                out.dim(d + 1, 0), out.dim(d, 0), f
            )
            for col, column in columns.items():
                column = {row: x for row, v in column.items()
                          if (x := values[v]) is not None}
                if column:
                    mat.cols[col] = column
        del self._gated
        # missing levels n > top only touch total degrees >= n + min(mdeg)
        return out.freeze(
            window=(NEG_INF, self.top + min(mdeg, default=0)),
            support=(NEG_INF, POS_INF),
        )

    def differential(self, element):
        """The total coboundary on a cochain {label: coeff}."""
        return self.complex.d_apply(element)


def _evaluate_pushed(data, by_arg, p, push, u_mono):
    """Value in M, {module_pos: coeff}, of a level-p cochain, given as
    {arg: {m: coeff}}, on the image of ``u_mono`` under the iterated face
    program ``push`` (which gives plain coefficients): push the argument
    down, let the basepoint factor (slot 0) act on the output."""
    A, module = data.A, data.module
    f = A.coefficients.field
    left = _constants(module, "act_left")
    out = {}
    for full, lam in push(u_mono).items():
        rest = (A.unit,) + full[1:]
        values = by_arg.get(rest)
        if values is None:
            continue
        b = full[0]
        odd = A.degrees[b] % 2
        # |b| crosses the value: the argument, then m
        cross = odd * data.arg_degrees[p][rest]
        for m, coeff in values.items():
            v = -lam if (cross + odd * module.degrees[m]) % 2 else lam
            for q, c in left[b, m]:
                _acc(out, q, f.mul(coeff, v * c), f)
    return out


def wedge_product(data_x, data_y, data_wedge, fch, gch):
    """μ_∨: CH^X(A, B) ⊗ CH^Y(A, B) -> CH^{X∨Y}(A, B).

    The module of the data must be the algebra itself (same basis), so
    that values multiply.  The Eilenberg-Zilber step sends f ⊗ g at
    bidegree (p, q) to (δ^last)^q f ⊗ (δ^0)^p g evaluated on the two halves
    of a wedge argument; the basepoint slot collects a_0.  Each half is
    pushed once per level of f and label of g and its value kept for the
    other wedge arguments that share it; only the arguments on whose
    x-half f does not vanish are visited.  The arguments indexed by x-half
    and the face programs are kept on ``data_wedge`` for later calls; the
    programs' memos are emptied when the call ends.
    """
    A = data_x.A
    if data_y.A is not A or data_wedge.A is not A:
        raise ValueError("wedge factors must share the algebra")
    if any(d.module.labels != A.labels for d in (data_x, data_y, data_wedge)):
        raise ValueError("wedge coefficients must be the algebra itself")
    if not (data_x.Y.pointed and data_y.Y.pointed):
        raise ValueError("wedge factors must be pointed")
    f = A.coefficients.field
    times = _constants(A, "product")
    by_level_f = {}  # p -> {arg: {m: coeff}}
    for (p, arg, m), c in fch.items():
        by_level_f.setdefault(p, {}).setdefault(arg, {})[m] = c
    # (p, q) -> per x-half on which f does not vanish: (value of f,
    # internal degree, [(wedge argument, its y-half)])
    live_f = {}
    out = {}
    for (q, garg, gm), gcoeff in gch.items():
        gdeg = data_y.module.degrees[gm] - data_y.arg_degrees[q][garg]
        gpart = {garg: {gm: gcoeff}}
        for p, fpart in by_level_f.items():
            n = p + q
            if n > data_wedge.top:
                raise TruncationError("wedge product exceeds the window")
            last, first = _wedge_programs(data_x.Y, data_y.Y, data_wedge, p, q)
            if (p, q) not in live_f:
                live_f[p, q] = [
                    (valF, sum(A.degrees[x] for x in half), args)
                    for half, args in _wedge_halves(
                        data_x.Y, data_y.Y, data_wedge, n).items()
                    if (valF := _evaluate_pushed(data_x, fpart, p, last, half))
                ]
            halves_g = {}
            for valF, xdeg, args in live_f[p, q]:
                odd = gdeg * xdeg % 2  # g crosses the x-half of the argument
                for warg, y in args:
                    if y not in halves_g:
                        halves_g[y] = _evaluate_pushed(data_y, gpart, q,
                                                       first, y)
                    for mX, cf in valF.items():
                        for mY, cg in halves_g[y].items():
                            cfg = f.mul(cf, cg)
                            for k, c in times[mX, mY]:
                                _acc(out, (n, warg, k),
                                         f.mul(cfg, -c if odd else c), f)
    # the memos of the kept programs hold this call's merge keys only, so
    # that they cost no memory between calls
    for p, q in live_f:
        for push in _wedge_programs(data_x.Y, data_y.Y, data_wedge, p, q):
            push.memo.clear()
    return out


def _wedge_programs(X, Ysp, data_wedge, p, q):
    """The programs of (δ^last)^q onto X_p and (δ^0)^p onto Y_q, from level
    p + q of X ∨ Y: compiled once per factor spaces and (p, q)."""
    key = (X, Ysp, p, q)
    programs = data_wedge._wedge_memo.get(key)
    if programs is None:
        A, n = data_wedge.A, p + q
        programs = data_wedge._wedge_memo[key] = (
            compile_setmap(A, _composite(
                [X.face_tab[lvl][lvl] for lvl in range(n, p, -1)], X.card(n)
            ), X.card(p)),
            compile_setmap(A, _composite(
                [Ysp.face_tab[lvl][0] for lvl in range(n, q, -1)], Ysp.card(n)
            ), Ysp.card(q)),
        )
    return programs


def _wedge_halves(X, Ysp, data_wedge, n):
    """The level-n wedge arguments indexed by x-half, {x-half: [(argument,
    its y-half)]} with the arguments in order: split once per factor spaces
    and level.  After the wedge basepoint come the other slots of X, then
    those of Y (``simp.wedge``); each half gets the unit at its own
    basepoint, slot 0."""
    key = (X, Ysp, n)
    by_x = data_wedge._wedge_memo.get(key)
    if by_x is None:
        by_x = data_wedge._wedge_memo[key] = {}
        cx, unit = X.card(n), (data_wedge.A.unit,)
        for warg in data_wedge.args[n]:
            by_x.setdefault(unit + warg[1:cx], []).append(
                (warg, unit + warg[cx:])
            )
    return by_x


# -- the cup-table and shuffle-check tasks ----------------------------------


def cup_labels(A, cap=None):
    """The labels of the circle's basis cochains of arity <= 2 over A, the
    basis that ``cup_table`` checks: InfeasibleError when the triples of
    its associativity check, their number cubed, exceed ``cap``.  The
    cup-table task's ``run`` and ``explain`` both take this rule."""
    data = CochainComplexData(
        simp.circle(3), A, dga.algebra_as_bimodule(A), top=2)
    labels = [(n, arg, v) for n, args in enumerate(data.args)
              for arg in args for v in range(A.dim)]
    triples = len(labels) ** 3
    if cap is not None and triples > cap:
        raise InfeasibleError(
            f"cup-table checks {triples} triples of basis cochains > cap {cap}"
        )
    return labels


def cup_table(A, cap=None):
    """HH⁰ of a commutative A with d = 0 is A, with A's product; and the
    cup's unit and associativity on the circle's cochains of arity <= 2,
    held to ``cap`` first (``cup_labels``)."""
    f = A.coefficients.field
    basis = [{label: f.one} for label in cup_labels(A, cap)]
    one = {(0, (A.unit,), A.unit): f.one}
    ok = all(cup(A, one, b) == b == cup(A, b, one) for b in basis) and all(
        cup(A, cup(A, a, b), c) == cup(A, a, cup(A, b, c))
        for a in basis for b in basis for c in basis)
    table = [[{A.labels[k]: str(v) for k, v in sorted(A.product(i, j).items())}
              for j in range(A.dim)] for i in range(A.dim)]
    return {"hh0_basis": list(A.labels), "product": table}, ok


def shuffle_check(H, spec):
    """The shuffle-check task: on ``spec["trials"]`` seeded random pairs of
    chains of H in degrees >= -2, the unit, Leibniz and graded
    commutativity of ``shuffle_product``; (all held, trials)."""
    f = H.algebra.coefficients.field
    C = H.complex
    rng = random.Random(spec.get("seed", 0))
    labels = sorted(
        lab for lab in C.index if lab[0] <= 2 and C.index[lab][0] >= -2
    )
    degs = {}
    for lab in labels:
        degs.setdefault(C.index[lab][0], []).append(lab)
    one = unit_chain(H)
    trials = spec.get("trials", 100)
    ok = True

    def rand_chain():
        d = rng.choice(sorted(degs))
        labs = rng.sample(degs[d], min(2, len(degs[d])))
        return d, {lab: f.coerce(rng.choice([-2, -1, 1, 2])) for lab in labs}

    for _ in range(trials):
        du, u = rand_chain()
        dv, v = rand_chain()
        if shuffle_product(H, one, u) != u:
            ok = False
        uv = shuffle_product(H, u, v)
        # Leibniz: d(uv) = d(u) v + (-1)^{|u|} u d(v)
        rhs = shuffle_product(H, C.d_apply(u), v)
        udv = shuffle_product(H, u, C.d_apply(v))
        for k, c in _signed(udv, du, f).items():
            _acc(rhs, k, c, f)
        if C.d_apply(uv) != rhs:
            ok = False
        vu = shuffle_product(H, v, u)
        if uv != _signed(vu, du * dv, f):
            ok = False
    return ok, trials

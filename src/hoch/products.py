"""Products: shuffle on chains, cup on classical cochains, wedge on
higher cochains, and the cochain complexes they act on.

Sign policy: every sign is produced by the explicit sorting permutations
of dga.compile_setmap / dga.koszul_sign plus the fixed totalization signs;
the exactness of unit/associativity/commutativity/Leibniz at chain level
is enforced by the test battery.
"""

from itertools import combinations, product

from . import dga
# apply_setmap stays bound here for perfbench's tracer test (ROADMAP item 8)
from .dga import _constants, apply_setmap, compile_setmap  # noqa: F401
from .homalg import NEG_INF, POS_INF, ChainComplex
from .linalg import SparseMatrix
from .hochschild import (
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
    programs = dga._Table(lambda pq: [
        dga._on_monomials(compile_setmap(
            A, degeneracies(pq[0], nu) + degeneracies(pq[1], mu),
            Y.card(sum(pq)), sign=sgn,
        ), Y.card(sum(pq)), A.unit)
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
                        dga._acc(out, label, total, f)
                    elif _is_nondegenerate(Y, p + q, A, mono):
                        raise TruncationError(
                            "shuffle product leaves the materialized window"
                        )
    return out


def unit_chain(H):
    """The unit of the shuffle product: the all-units level-0 monomial."""
    mono = tuple([H.algebra.unit] * H.space.card(0))
    return {(0, mono): H.algebra.coefficients.field.one}


# -- classical Hochschild cochains and the cup product -----------------------


class ClassicalCochains:
    """The normalized Hochschild cochain complex C^n(A, A) = Hom(Ā^{⊗n}, A)
    with the Gerstenhaber cup product; independent of the simplicial
    machinery.

    A cochain of arity n is {arg_tuple: {a_pos: coeff}} over non-unit
    argument tuples.
    """

    def __init__(self, A, top):
        self.A = A
        self.top = top
        self.nonunit = A.nonunit()
        self.args = [
            list(product(self.nonunit, repeat=n)) for n in range(top + 1)
        ]

    def internal_degree(self, n, value_pos, arg):
        A = self.A
        return A.degrees[value_pos] - sum(A.degrees[p] for p in arg)

    def as_complex(self):
        """ChainComplex with labels (n, arg, value_pos); degree n + int."""
        A = self.A
        out = ChainComplex(A.coefficients)
        for n in range(self.top + 1):
            for arg in self.args[n]:
                for v in range(A.dim):
                    out.add_element(
                        (n, arg, v), n + self.internal_degree(n, v, arg), 0
                    )
        f = A.coefficients.field
        for n in range(self.top):
            for arg in self.args[n]:
                for v in range(A.dim):
                    img = self.coboundary({(n, arg, v): f.one})
                    for tgt, c in img.items():
                        out.set_differential_entry((n, arg, v), tgt, c)
        # missing arities n > top contribute degrees >= n + min A-degree
        hi_cert = self.top + min(A.degrees[p] for p in range(A.dim))
        return out.freeze(window=(NEG_INF, hi_cert), support=(NEG_INF, POS_INF))

    def coboundary(self, cochain):
        """Graded Hochschild coboundary on {(n, arg, v): coeff}."""
        A = self.A
        f = A.coefficients.field
        out = {}
        for (n, arg, v), coeff in cochain.items():
            fdeg = self.internal_degree(n, v, arg)
            # first face: a_1 · f(a_2 ... ), with a_1 crossing f
            for a1 in self.nonunit:
                sgn = f.coerce(-1 if (A.degrees[a1] * fdeg) % 2 else 1)
                for k, c in A.product(a1, v).items():
                    dga._acc(
                        out,
                        (n + 1, (a1,) + arg, k),
                        f.mul(coeff, f.mul(sgn, c)),
                        f,
                    )
            # inner faces: f(..., a_i a_{i+1}, ...)
            for i in range(n):
                sgn = f.coerce(-1 if (i + 1) % 2 else 1)
                for a, b_ in self._insertions(arg, i):
                    dga._acc(out, (n + 1, a, v), f.mul(coeff, f.mul(sgn, b_)), f)
            # last face: f(a_1 ... a_n) · a_{n+1}
            sgn_last = f.coerce(-1 if (n + 1) % 2 else 1)
            for an in self.nonunit:
                for k, c in A.product(v, an).items():
                    dga._acc(
                        out,
                        (n + 1, arg + (an,), k),
                        f.mul(coeff, f.mul(sgn_last, c)),
                        f,
                    )
            # internal differential of the DG algebra
            sgn_int = f.coerce(-1 if n % 2 else 1)
            for k, c in A.d(v).items():
                dga._acc(out, (n, arg, k), f.mul(coeff, f.mul(sgn_int, c)), f)
            sgn_phi = f.coerce(1 if fdeg % 2 else -1)
            for s, p in enumerate(arg):
                # phi ∘ d on slot s: replace a_s by preimages under d
                for src in self.nonunit:
                    for q, c in A.d(src).items():
                        if q != p:
                            continue
                        t = arg[:s] + (src,) + arg[s + 1 :]
                        ksgn = f.coerce(
                            -1
                            if (sum(A.degrees[x] for x in arg[:s])) % 2
                            else 1
                        )
                        dga._acc(
                            out,
                            (n, t, v),
                            f.mul(
                                coeff,
                                f.mul(sgn_int, f.mul(sgn_phi, f.mul(ksgn, c))),
                            ),
                            f,
                        )
        return out

    def _insertions(self, arg, i):
        """Merge slots i, i+1 of the extended argument list: all (new_arg,
        coeff) for (a_1 .. a_i a_{i+1} .. a_{n+1}) hitting the stored arg."""
        # produce arity n+1 arguments whose i-th merge gives ``arg``
        A = self.A
        n = len(arg)
        res = []
        for a in self.nonunit:
            for b_ in self.nonunit:
                prod = A.product(a, b_)
                c = prod.get(arg[i]) if i < n else None
                if c is None:
                    continue
                new_arg = arg[:i] + (a, b_) + arg[i + 1 :]
                res.append((new_arg, c))
        return res

    def cup(self, fch, gch):
        """(f ∪ g)(a_1..a_{p+q}) = ± f(a_1..a_p) g(a_{p+1}..a_{p+q})."""
        A = self.A
        f = A.coefficients.field
        out = {}
        for (p, arg1, v1), c1 in fch.items():
            for (q, arg2, v2), c2 in gch.items():
                gdeg = self.internal_degree(q, v2, arg2)
                cross = sum(A.degrees[x] for x in arg1)
                sgn = f.coerce(-1 if (gdeg * cross) % 2 else 1)
                for k, c in A.product(v1, v2).items():
                    dga._acc(
                        out,
                        (p + q, arg1 + arg2, k),
                        f.mul(f.mul(c1, c2), f.mul(sgn, c)),
                        f,
                    )
        return out


# -- higher Hochschild cochains ----------------------------------------------


class CochainComplexData:
    """CH^Y(A, M) = Hom_A(CH_Y(A), M) over a pointed simplicial set.

    Level-n basis: (n, arg, m) with arg a normalized monomial on the
    non-basepoint slots (unit at the basepoint) and m a module basis
    element; weights are collapsed to 0.  ``arg_degrees[n]`` maps each
    level-n argument, in sorted order, to its internal degree.

    The coboundary is summed as plain numbers into one {column: {row:
    value}} dict per block, keyed by positions, and coerced into the field
    once per entry.  A face whose image is provably degenerate is not
    pushed (``hochschild._face_gates``, the rule of the chain builder);
    a face or internal-differential image missing from the level below
    must be degenerate.
    """

    def __init__(self, Y, A, module, window=(0, 4), top=None):
        if not Y.is_pointed():
            raise ValueError("cochains require a pointed space")
        # the faces act on the value through the left action alone
        if not module.symmetric:
            raise ValueError(
                "simplicial module coefficients require a symmetric bimodule"
            )
        if A.max_weight is not None:
            raise TruncationError(
                "cochains need a finite-dimensional algebra"
            )
        self.Y = Y
        self.A = A
        self.module = module
        # wedge_product's iterated-face programs and argument halves, kept
        # per pair of factor spaces (see _wedge_programs, _wedge_halves)
        self._wedge_memo = {}
        mdeg = module.degrees
        min_deg_m = min(mdeg, default=0)
        if top is None:
            top = window[1] + 1 - min_deg_m
        if top > Y.top_level:
            raise TruncationError(
                f"{Y.name} materialized to level {Y.top_level}, need {top}"
            )
        self.top = top
        # the arguments of each level with their internal degrees, the
        # gates of its faces, and per argument the bits of the face masks
        # its support meets (hochschild._face_gates)
        self.arg_degrees, gated = [], []
        for n in range(top + 1):
            keyed = _level_monomials(Y, n, A, None, None, None, True,
                                     unit_slot=Y.basepoint[n])
            self.arg_degrees.append({arg: adeg for arg, (adeg, _), _ in keyed})
            gates, met = _face_gates(Y, n)
            gated.append((gates, [met(sup) for _, _, sup in keyed]))
        self.args = [list(table) for table in self.arg_degrees]
        out = ChainComplex(A.coefficients)
        for n, table in enumerate(self.arg_degrees):
            for arg, adeg in table.items():
                for m in range(module.dim):
                    out.add_element((n, arg, m), n + mdeg[m] - adeg, 0)
        index = out.index
        blocks = {}  # (degree, weight) -> {column: {row: plain number}}

        def add(source, target, value):
            sd, sw, col = index[source]
            td, tw, row = index[target]
            if td != sd + 1 or tw != sw:
                raise ValueError(
                    f"coboundary entry {source!r} -> {target!r} must raise "
                    "the degree by 1 and preserve the weight"
                )
            column = blocks.setdefault((sd, sw), {}).setdefault(col, {})
            column[row] = column.get(row, 0) + value

        # the faces, dualized: a face image w of a level-lvl argument u
        # splits into its basepoint factor b, which acts on the value, and
        # the level-n argument ``rest``
        left = _constants(module, "act_left")
        for lvl in range(1, top + 1):
            n = lvl - 1
            bp = Y.basepoint[n]
            below = self.arg_degrees[n]
            gates, covered = gated[lvl]
            args = self.args[lvl]
            for i, setmap in enumerate(map(tuple, Y.face_tab[lvl])):
                push = compile_setmap(A, setmap, Y.card(n))
                gate = gates[i]
                for u, cov in zip(args, covered):
                    if cov & gate != gate:
                        continue
                    for full, lam in push(u).items():
                        rest = full[:bp] + (A.unit,) + full[bp + 1:]
                        adeg = below.get(rest)
                        if adeg is None:
                            if _is_nondegenerate(Y, n, A, rest):
                                raise AssertionError("missing face target")
                            continue
                        b = full[bp]
                        # |b| crosses the slots before bp and the value
                        before = sum(A.degrees[p] for p in full[:bp]) - adeg
                        odd = A.degrees[b] % 2
                        if lam.denominator == 1:  # sum integral ones as int
                            lam = lam.numerator
                        for m in range(module.dim):
                            odd_m = i + odd * (before + mdeg[m])
                            sign = -1 if odd_m % 2 else 1
                            for q, c in left[b, m]:
                                add((n, rest, m), (lvl, u, q), sign * c * lam)
        for n, table in enumerate(self.arg_degrees):
            sign_n = -1 if n % 2 else 1
            for u in table:
                # d_M after phi
                for m in range(module.dim):
                    for q, c in module.d(m).items():
                        add((n, u, m), (n, u, q), sign_n * c)
                # -(-1)^{|phi|_int} phi ∘ d, dualized (nothing when d = 0)
                if not A.diff:
                    continue
                for tgt, c in _internal_diff(A, None, None, u).items():
                    adeg = table.get(tgt)
                    if adeg is None:
                        if _is_nondegenerate(Y, n, A, tgt):
                            raise AssertionError("missing internal target")
                        continue
                    for m in range(module.dim):
                        sign = sign_n if (mdeg[m] - adeg) % 2 else -sign_n
                        add((n, tgt, m), (n, u, m), sign * c)
        f = A.coefficients.field
        for (d, w), columns in blocks.items():
            mat = out.diff[(d, w)] = SparseMatrix(
                out.dim(d + 1, w), out.dim(d, w), f
            )
            for col, column in columns.items():
                for row, v in column.items():
                    column[row] = f.coerce(v)
                for row in [row for row, v in column.items() if not v]:
                    del column[row]
                if column:
                    mat.cols[col] = column
        # missing levels n > top only touch total degrees >= n + min_deg_m
        self.complex = out.freeze(
            window=(NEG_INF, top + min_deg_m),
            support=(NEG_INF, POS_INF),
        )

    def differential(self, element):
        """The total coboundary on a cochain {label: coeff}."""
        return self.complex.d_apply(element)


def _evaluate_pushed(data, by_arg, p, push, u_mono):
    """Value in M of a level-p cochain, given as {arg: {m: coeff}}, on
    the image of ``u_mono`` under the iterated face program ``push``: push
    the argument down, let the basepoint factor act on the output.

    Returns {module_pos: coeff}.
    """
    Y, A, module = data.Y, data.A, data.module
    f = A.coefficients.field
    bp = Y.basepoint[p]
    out = {}
    for full, lam in push(u_mono).items():
        rest = full[:bp] + (A.unit,) + full[bp + 1:]
        values = by_arg.get(rest)
        if values is None:
            continue
        b = full[bp]
        # |b| crosses the slots before bp and the value
        before = sum(A.degrees[x] for x in full[:bp])
        before -= data.arg_degrees[p][rest]
        odd = A.degrees[b] % 2
        for m, coeff in values.items():
            sgn = f.coerce(-1 if odd * (before + module.degrees[m]) % 2 else 1)
            for q, c in module.act_left(b, m).items():
                dga._acc(out, q, f.mul(coeff, f.mul(sgn, f.mul(lam, c))), f)
    return out


def wedge_product(data_x, data_y, data_wedge, fch, gch):
    """μ_∨: CH^X(A, B) ⊗ CH^Y(A, B) -> CH^{X∨Y}(A, B).

    The module of the data must be the algebra itself (same basis), so
    that values multiply.  The Eilenberg-Zilber step sends f ⊗ g at
    bidegree (p, q) to (δ^last)^q f ⊗ (δ^0)^p g evaluated on the two halves
    of a wedge argument; the basepoint slot collects a_0.  Each half is
    pushed once per level of f and label of g: its value is kept for the
    other wedge arguments that share it.  The halves of the arguments and
    the face programs are kept on ``data_wedge`` for later calls; the
    programs' memos are emptied when the call ends.
    """
    A = data_x.A
    if data_y.A is not A or data_wedge.A is not A:
        raise ValueError("wedge factors must share the algebra")
    if any(d.module.labels != A.labels for d in (data_x, data_y, data_wedge)):
        raise ValueError("wedge coefficients must be the algebra itself")
    if not (data_x.Y.is_pointed() and data_y.Y.is_pointed()):
        raise ValueError("wedge factors must be pointed")
    f = A.coefficients.field
    by_level_f = {}  # p -> {arg: {m: coeff}}
    for (p, arg, m), c in fch.items():
        by_level_f.setdefault(p, {}).setdefault(arg, {})[m] = c
    # (p, q) -> {position of an x-half: (value of f, internal degree)}
    pushed_f = {}
    out = {}
    for (q, garg, gm), gcoeff in gch.items():
        gdeg = data_y.module.degrees[gm] - data_y.arg_degrees[q][garg]
        gpart = {garg: {gm: gcoeff}}
        for p, fpart in by_level_f.items():
            n = p + q
            if n > data_wedge.top:
                raise TruncationError("wedge product exceeds the window")
            last, first = _wedge_programs(data_x.Y, data_y.Y, data_wedge, p, q)
            xs, ys, xi, yi = _wedge_halves(data_x.Y, data_y.Y, data_wedge, n)
            halves_f = pushed_f.setdefault((p, q), {})
            halves_g = {}
            for warg, i, j in zip(data_wedge.args[n], xi, yi):
                if i not in halves_f:
                    halves_f[i] = (
                        _evaluate_pushed(data_x, fpart, p, last, xs[i]),
                        sum(A.degrees[x] for x in xs[i]),
                    )
                valF, xdeg = halves_f[i]
                if not valF:
                    continue
                if j not in halves_g:
                    halves_g[j] = _evaluate_pushed(
                        data_y, gpart, q, first, ys[j]
                    )
                valG = halves_g[j]
                if not valG:
                    continue
                # g crosses the x-half of the argument
                sgn = f.coerce(-1 if (gdeg * xdeg) % 2 else 1)
                for mX, cf in valF.items():
                    for mY, cg in valG.items():
                        for k, c in A.product(mX, mY).items():
                            dga._acc(
                                out,
                                (n, warg, k),
                                f.mul(f.mul(cf, cg), f.mul(sgn, c)),
                                f,
                            )
    # the memos of the kept programs hold this call's merge keys only, so
    # that they cost no memory between calls
    for p, q in pushed_f:
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
    """The distinct x-halves and y-halves of the level-n wedge arguments,
    and per argument, in order, the positions of its two halves among
    them (two lists): split once per factor spaces and level."""
    key = (X, Ysp, n)
    halves = data_wedge._wedge_memo.get(key)
    if halves is None:
        unit = data_wedge.A.unit
        xs, ys = {}, {}  # half -> its position
        xi, yi = [], []
        for warg in data_wedge.args[n]:
            x, y = _split_wedge_arg(X, Ysp, n, warg, unit)
            xi.append(xs.setdefault(x, len(xs)))
            yi.append(ys.setdefault(y, len(ys)))
        halves = data_wedge._wedge_memo[key] = (list(xs), list(ys), xi, yi)
    return halves


def _split_wedge_arg(X, Ysp, n, warg, unit):
    """Split a wedge argument into monomials over the factor slot sets:
    after the wedge basepoint come the non-basepoint slots of X, then
    those of Y, each in order."""
    cx, bx, by = X.card(n), X.basepoint[n], Ysp.basepoint[n]
    xs, ys = warg[1:cx], warg[cx:]
    return xs[:bx] + (unit,) + xs[bx:], ys[:by] + (unit,) + ys[by:]

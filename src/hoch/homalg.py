"""Chain complexes with exact coefficients, their constructions, homology.

Conventions (fixed once, used everywhere):
  * cohomological grading, differentials have degree +1;
  * complexes built from spaces live in non-positive degrees;
  * a simplicial level n contributes total degree (internal - n), the
    internal differential carries the sign (-1)^n and the simplicial part
    is the alternating face sum.

Every complex records the degree window on which it is certifiably equal
to the untruncated object; homology requests outside it are hard errors.
"""

from .linalg import QQ, PrimeField, SparseMatrix, rank

NEG_INF = -(10**9)
POS_INF = 10**9


class WindowError(ValueError):
    """Homology was requested outside a certified window."""


class Coefficients:
    """Ground field: Q or F_p."""

    def __init__(self, kind="rational", p=None):
        if kind == "rational":
            self.field = QQ
        elif kind == "prime-field":
            self.field = PrimeField(p)
        else:
            raise ValueError(kind)
        self.kind = kind
        self.p = p

    @classmethod
    def parse(cls, text):
        """'Q' or 'Fp:<p>'.

        >>> Coefficients.parse("Q")
        Q
        >>> Coefficients.parse("Fp:7")
        Fp:7
        """
        if text in ("Q", "QQ", "rational"):
            return cls()
        if text.startswith("Fp:"):
            return cls("prime-field", int(text[3:]))
        raise ValueError(f"unknown coefficients {text!r}")

    def __repr__(self):
        return "Q" if self.kind == "rational" else f"Fp:{self.p}"

    def __eq__(self, other):
        return (
            isinstance(other, Coefficients)
            and self.kind == other.kind
            and self.p == other.p
        )


class ChainComplex:
    """Finitely-supported graded space with a degree +1 differential.

    Basis elements are arbitrary hashable labels grouped into
    (degree, weight) blocks; the differential is weight-preserving and
    stored as one sparse matrix per block.

    window = (lo, hi): stored data equals the true complex on [lo, hi].
    support = (slo, shi): the true complex is known to vanish outside.
    """

    def __init__(self, coefficients):
        self.coefficients = coefficients
        self.blocks = {}  # (degree, weight) -> [labels]
        self.index = {}  # label -> (degree, weight, position)
        self.diff = {}  # (degree, weight) -> SparseMatrix to (degree+1, weight)
        self.window = (NEG_INF, POS_INF)
        self.support = (NEG_INF, POS_INF)
        self.weights_materialized = None  # None = all weights present
        self._frozen = False

    # -- construction ---------------------------------------------------

    def add_element(self, label, degree, weight=0):
        if self._frozen:
            raise RuntimeError("complex is frozen")
        if label in self.index:
            raise ValueError(f"duplicate label {label!r}")
        block = self.blocks.setdefault((degree, weight), [])
        self.index[label] = (degree, weight, len(block))
        block.append(label)

    def set_differential_entry(self, source_label, target_label, coeff):
        if self._frozen:
            raise RuntimeError("complex is frozen")
        sd, sw, sp = self.index[source_label]
        td, tw, tp = self.index[target_label]
        if td != sd + 1:
            raise ValueError(f"differential must raise degree by 1 ({sd}->{td})")
        if tw != sw:
            raise ValueError("differential must preserve weight")
        key = (sd, sw)
        mat = self.diff.get(key)
        if mat is None:
            mat = SparseMatrix(
                self.dim(sd + 1, sw), self.dim(sd, sw), self.coefficients.field
            )
            self.diff[key] = mat
        mat.add_to(tp, sp, coeff)

    def freeze(self, window=None, support=None):
        if window is not None:
            self.window = window
        if support is not None:
            self.support = support
        for (d, w), block in self.blocks.items():
            key = (d, w)
            if key in self.diff:
                mat = self.diff[key]
                if mat.ncols != len(block) or mat.nrows != self.dim(d + 1, w):
                    raise ValueError("differential block has stale shape")
        self._frozen = True
        return self

    # -- inspection -----------------------------------------------------

    def dim(self, degree, weight=None):
        if weight is None:
            return sum(
                len(b) for (d, w), b in self.blocks.items() if d == degree
            )
        return len(self.blocks.get((degree, weight), ()))

    def degrees(self):
        return sorted({d for d, _ in self.blocks})

    def weights(self):
        return sorted({w for _, w in self.blocks})

    def d_matrix(self, degree, weight):
        key = (degree, weight)
        mat = self.diff.get(key)
        if mat is None:
            mat = SparseMatrix(
                self.dim(degree + 1, weight),
                self.dim(degree, weight),
                self.coefficients.field,
            )
        return mat

    def d_apply(self, chain):
        """Differential on a chain given as {label: coeff}."""
        f = self.coefficients.field
        out = {}
        for label, x in chain.items():
            d, w, pos = self.index[label]
            mat = self.diff.get((d, w))
            if mat is None:
                continue
            targets = self.blocks.get((d + 1, w), [])
            for row, v in mat.column(pos).items():
                lab = targets[row]
                acc = f.add(out.get(lab, f.zero), f.mul(v, x))
                if f.is_zero(acc):
                    out.pop(lab, None)
                else:
                    out[lab] = acc
        return out

    # -- verification and homology ---------------------------------------

    def check_differential(self):
        """Verify d∘d = 0 on the certified window; (ok, witness)."""
        lo, hi = self.window
        for (d, w) in sorted(self.blocks):
            if not (lo <= d and d + 2 <= hi + 1):
                continue
            m1 = self.diff.get((d, w))
            m2 = self.diff.get((d + 1, w))
            if m1 is None or m2 is None:
                continue
            square = m2.compose(m1)
            if not square.is_zero():
                col = min(c for c in square.cols)
                return False, self.blocks[(d, w)][col]
        return True, None

    def homology_dims(self, window, weights=None):
        """Betti table {(degree, weight): dim} on the requested window.

        Requires one extra certified degree on each side of the window.
        """
        lo, hi = window
        if lo > hi:
            raise ValueError("empty window")
        clo, chi = self.window
        if lo - 1 < clo or hi + 1 > chi:
            raise WindowError(
                f"window [{lo},{hi}] not certified (have [{clo},{chi}], "
                "need one extra degree on each side)"
            )
        if self.weights_materialized is not None:
            requested = (
                set(weights) if weights is not None else None
            )
            if requested is None or not requested <= self.weights_materialized:
                raise WindowError(
                    "complex only materializes weights "
                    f"{sorted(self.weights_materialized)}"
                )
        all_weights = self.weights()
        use_weights = sorted(all_weights if weights is None else weights)
        tasks = []
        for w in use_weights:
            for d in range(lo, hi + 1):
                if self.dim(d, w):
                    tasks.append((d, w))
        # each differential block (d, w) -> (d + 1, w) the window needs,
        # ranked once although it is d's outgoing and d + 1's incoming map
        needed = set()
        for d, w in tasks:
            if self.dim(d + 1, w):
                needed.add((d, w))
            if self.dim(d - 1, w):
                needed.add((d - 1, w))
        ranks = {key: rank(self.d_matrix(*key)) for key in sorted(needed)}
        results = {}
        for d, w in sorted(tasks):
            r_out = ranks.get((d, w), 0)
            r_in = ranks.get((d - 1, w), 0)
            n = self.dim(d, w) - r_out - r_in
            if n:
                results[(d, w)] = n
        return results

    def betti(self, window, weights=None):
        """Betti numbers per degree (weights summed), zeros included."""
        return per_degree(self.homology_dims(window, weights), window)

    def euler_per_weight(self):
        """Alternating sum of chain dimensions per weight (full support)."""
        out = {}
        for (d, w), block in self.blocks.items():
            out[w] = out.get(w, 0) + (-1) ** (d % 2) * len(block)
        return out

    def max_block_dim(self):
        return max((len(b) for b in self.blocks.values()), default=0)


def per_degree(table, window):
    """A {(degree, weight): dim} table summed over weights, per degree of
    the window, zeros included."""
    out = {d: 0 for d in range(window[0], window[1] + 1)}
    for (d, _w), n in table.items():
        out[d] += n
    return out


class ChainMap:
    """Degree-0, weight-preserving map of chain complexes."""

    def __init__(self, source, target, shift=0):
        if source.coefficients != target.coefficients:
            raise ValueError("coefficient mismatch")
        self.source = source
        self.target = target
        self.shift = shift
        self.blocks = {}  # (degree, weight) -> SparseMatrix

    def set_entry(self, source_label, target_label, coeff):
        sd, sw, sp = self.source.index[source_label]
        td, tw, tp = self.target.index[target_label]
        if td != sd + self.shift or tw != sw:
            raise ValueError("map entry violates declared (shift, weight)")
        key = (sd, sw)
        mat = self.blocks.get(key)
        if mat is None:
            mat = SparseMatrix(
                self.target.dim(td, tw),
                self.source.dim(sd, sw),
                self.source.coefficients.field,
            )
            self.blocks[key] = mat
        mat.add_to(tp, sp, coeff)

    def set_column(self, entry, terms):
        """Set the image of a source element, given by its index entry
        (degree, weight, position), at once from ``(row, coeff)`` terms,
        rows in its target block: summed as plain numbers, reduced mod p,
        zeros dropped."""
        sd, sw, sp = entry
        column = {}
        for row, v in terms:
            column[row] = column[row] + v if row in column else v
        field = self.source.coefficients.field
        if field.characteristic:
            column = {r: v % field.characteristic for r, v in column.items()}
        column = {r: v for r, v in column.items() if v}
        if column:
            if (sd, sw) not in self.blocks:
                self.blocks[(sd, sw)] = SparseMatrix(
                    self.target.dim(sd + self.shift, sw),
                    self.source.dim(sd, sw), field,
                )
            self.blocks[(sd, sw)].cols[sp] = column

    def matrix(self, degree, weight):
        mat = self.blocks.get((degree, weight))
        if mat is None:
            mat = SparseMatrix(
                self.target.dim(degree + self.shift, weight),
                self.source.dim(degree, weight),
                self.source.coefficients.field,
            )
        return mat

    def is_chain_map(self):
        """Check commutation with differentials on the window overlap."""
        lo = max(self.source.window[0], self.target.window[0] - self.shift)
        hi = min(self.source.window[1], self.target.window[1] - self.shift)
        for (d, w) in self.source.blocks:
            if not (lo <= d < hi):
                continue
            left = self.target.d_matrix(d + self.shift, w).compose(
                self.matrix(d, w)
            )
            right = self.matrix(d + 1, w).compose(self.source.d_matrix(d, w))
            for row, col, v in left.entries():
                if right.get(row, col) != v:
                    return False
            for row, col, v in right.entries():
                if left.get(row, col) != v:
                    return False
        return True


# -- basic constructors ---------------------------------------------------


def zero_complex(coefficients):
    return ChainComplex(coefficients).freeze()


def field_complex(coefficients, degree=0, label="k"):
    c = ChainComplex(coefficients)
    c.add_element(label, degree, 0)
    return c.freeze(support=(degree, degree))


def _interval_meet(a, b):
    return (max(a[0], b[0]), min(a[1], b[1]))


def _clamp(x):
    return max(NEG_INF, min(POS_INF, x))


def _pair_window(w1, s1, w2, s2):
    """Certified window of a degreewise sum over pairs d1 + d2 = m.

    Degree m is certified when every pair inside the supports lies inside
    both certified windows.
    """
    (lo1, hi1), (s1lo, s1hi) = w1, s1
    (lo2, hi2), (s2lo, s2hi) = w2, s2
    need_lo = []
    if s1lo < lo1:
        need_lo.append(_clamp(lo1 + s2hi))
    if s2lo < lo2:
        need_lo.append(_clamp(lo2 + s1hi))
    need_hi = []
    if s1hi > hi1:
        need_hi.append(_clamp(hi1 + s2lo))
    if s2hi > hi2:
        need_hi.append(_clamp(hi2 + s1lo))
    return (max(need_lo, default=NEG_INF), min(need_hi, default=POS_INF))


def tensor(c1, c2):
    """Tensor product over k with the Koszul sign d⊗1 + (-1)^{|c|} 1⊗d."""
    if c1.coefficients != c2.coefficients:
        raise ValueError("coefficient mismatch")
    f = c1.coefficients.field
    out = ChainComplex(c1.coefficients)
    for (d1, w1), b1 in sorted(c1.blocks.items()):
        for (d2, w2), b2 in sorted(c2.blocks.items()):
            for x in b1:
                for y in b2:
                    out.add_element(("t", x, y), d1 + d2, w1 + w2)
    for (d1, w1), b1 in sorted(c1.blocks.items()):
        mat1 = c1.diff.get((d1, w1))
        for (d2, w2), b2 in sorted(c2.blocks.items()):
            targets1 = c1.blocks.get((d1 + 1, w1), [])
            if mat1 is not None:
                for col in range(len(b1)):
                    for row, v in mat1.column(col).items():
                        for y in b2:
                            out.set_differential_entry(
                                ("t", b1[col], y),
                                ("t", targets1[row], y),
                                v,
                            )
            mat2 = c2.diff.get((d2, w2))
            if mat2 is not None:
                targets2 = c2.blocks.get((d2 + 1, w2), [])
                sign = f.coerce(1) if d1 % 2 == 0 else f.coerce(-1)
                for col in range(len(b2)):
                    for row, v in mat2.column(col).items():
                        for x in b1:
                            out.set_differential_entry(
                                ("t", x, b2[col]),
                                ("t", x, targets2[row]),
                                f.mul(sign, v),
                            )
    window = _pair_window(c1.window, c1.support, c2.window, c2.support)
    support = (
        _clamp(c1.support[0] + c2.support[0]),
        _clamp(c1.support[1] + c2.support[1]),
    )
    return out.freeze(window=window, support=support)


def hom_complex(c1, c2):
    """Hom(C, D): degree n part is maps C -> D raising degree by n.

    Weights of the output are collapsed to 0 (hom of weight-graded spaces
    is graded by weight differences, which may be negative).
    """
    if c1.coefficients != c2.coefficients:
        raise ValueError("coefficient mismatch")
    f = c1.coefficients.field
    out = ChainComplex(c1.coefficients)
    for (d1, w1), b1 in sorted(c1.blocks.items()):
        for (d2, w2), b2 in sorted(c2.blocks.items()):
            for x in b1:
                for y in b2:
                    out.add_element(("h", x, y), d2 - d1, 0)
    # delta(phi) = d_D ∘ phi - (-1)^{|phi|} phi ∘ d_C
    for (d1, w1), b1 in sorted(c1.blocks.items()):
        for (d2, w2), b2 in sorted(c2.blocks.items()):
            n = d2 - d1
            mat2 = c2.diff.get((d2, w2))
            if mat2 is not None:
                targets2 = c2.blocks.get((d2 + 1, w2), [])
                for col in range(len(b2)):
                    for row, v in mat2.column(col).items():
                        for x in b1:
                            out.set_differential_entry(
                                ("h", x, b2[col]),
                                ("h", x, targets2[row]),
                                v,
                            )
            mat1 = c1.diff.get((d1 - 1, w1))
            if mat1 is not None:
                sources1 = c1.blocks.get((d1 - 1, w1), [])
                sign = f.coerce(-1) if n % 2 == 0 else f.coerce(1)
                # phi = (x^ ⊗ y) picks up terms on (x'^ ⊗ y) for x' with
                # d(x') hitting x.
                for col in range(len(sources1)):
                    for row, v in mat1.column(col).items():
                        x = b1[row]
                        for y in b2:
                            out.set_differential_entry(
                                ("h", x, y),
                                ("h", sources1[col], y),
                                f.mul(sign, v),
                            )
    # degree n draws on pairs d2 - d1 = n within the supports: same rule as
    # tensor with the C-side degrees negated.
    refl_window = (_clamp(-c1.window[1]), _clamp(-c1.window[0]))
    refl_support = (_clamp(-c1.support[1]), _clamp(-c1.support[0]))
    window = _pair_window(refl_window, refl_support, c2.window, c2.support)
    support = (
        _clamp(c2.support[0] - c1.support[1]),
        _clamp(c2.support[1] - c1.support[0]),
    )
    return out.freeze(window=window, support=support)


def dual(c):
    """Hom(C, k)."""
    return hom_complex(c, field_complex(c.coefficients))


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
    for (dc, w), block in sorted(c.blocks.items()):
        mat = c.diff.get((dc, w))
        if mat is not None:
            targets = c.blocks.get((dc + 1, w), [])
            for col in range(len(block)):
                for row, v in mat.column(col).items():
                    out.set_differential_entry(
                        ("src", block[col]), ("src", targets[row]), f.neg(v)
                    )
        fm = fmap.blocks.get((dc, w))
        if fm is not None:
            targets = d.blocks.get((dc, w), [])
            for col in range(len(block)):
                for row, v in fm.column(col).items():
                    out.set_differential_entry(
                        ("src", block[col]), ("tgt", targets[row]), v
                    )
    for (dd, w), block in sorted(d.blocks.items()):
        mat = d.diff.get((dd, w))
        if mat is not None:
            targets = d.blocks.get((dd + 1, w), [])
            for col in range(len(block)):
                for row, v in mat.column(col).items():
                    out.set_differential_entry(
                        ("tgt", block[col]), ("tgt", targets[row]), v
                    )
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


class SimplicialChainComplex:
    """A simplicial object in chain complexes, materialized to a level.

    levels[n] is a ChainComplex and faces[n], for n >= 1, the ChainMap from
    level n to level n - 1 of the alternating face sum Σ_r (-1)^r d_r.
    The levels hold whatever basis the builder chose (normalized or not);
    totalization uses them as they are.
    """

    def __init__(self, levels, faces, exhausted=False):
        self.levels = levels
        self.faces = faces  # dict n -> ChainMap
        self.exhausted = exhausted  # complex is zero above the top level

    @property
    def top_level(self):
        return len(self.levels) - 1


def total_complex(simp, window=None):
    """Totalize: level n shifted by -n, D = (-1)^n d_int + Σ (-1)^r d_r.

    A total block (D, w) stacks the level blocks (D + n, w) in level order.
    The column of a level-n element holds its internal column, signed
    (-1)^n, at level n's row offset and its face-sum column at level
    n - 1's: two disjoint row ranges, so no entry is added to another.
    """
    levels = simp.levels
    coeff = levels[0].coefficients
    neg = coeff.field.neg
    out = ChainComplex(coeff)
    offsets = []  # level n -> {total block: row offset of level n in it}
    for n, lvl in enumerate(levels):
        offsets.append({})
        for (d, w), block in sorted(lvl.blocks.items()):
            offsets[n][(d - n, w)] = out.dim(d - n, w)
            for lab in block:
                out.add_element((n, lab), d - n, w)
    for (d, w), block in out.blocks.items():
        out.diff[(d, w)] = SparseMatrix(
            out.dim(d + 1, w), len(block), coeff.field
        )
    for n, lvl in enumerate(levels):
        for (d, w) in sorted(lvl.blocks):
            key, tkey = (d - n, w), (d - n + 1, w)
            start, cols = offsets[n][key], out.diff[key].cols
            internal = lvl.diff.get((d, w))
            if internal is not None:
                row0 = offsets[n][tkey]
                for c, col in internal.cols.items():
                    cols[start + c] = {
                        row0 + r: neg(v) if n % 2 else v
                        for r, v in col.items()
                    }
            fm = simp.faces[n].blocks.get((d, w)) if n else None
            if fm is not None:
                row0 = offsets[n - 1][tkey]
                for c, col in fm.cols.items():
                    cols.setdefault(start + c, {}).update(
                        {row0 + r: v for r, v in col.items()}
                    )
    if simp.exhausted:
        win = (NEG_INF, POS_INF)
        support = (NEG_INF, POS_INF)
    else:
        # Level n contributes total degrees <= hi_int - n, so the missing
        # levels above the truncation only touch degrees < hi_int - top.
        hi_int = 0
        for lvl in levels:
            for (d, _w) in lvl.blocks:
                hi_int = max(hi_int, d)
        win = (hi_int - simp.top_level, POS_INF)
        support = (NEG_INF, hi_int)
    if window is not None:
        win = _interval_meet(win, window)
    return out.freeze(window=win, support=support)

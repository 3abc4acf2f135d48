"""Chain complexes with exact coefficients, their constructions, homology.

Conventions (fixed once, used everywhere):
  * cohomological grading, differentials have degree +1;
  * complexes built from spaces live in non-positive degrees;
  * a simplicial level n contributes total degree (internal - n), the
    internal differential carries the sign (-1)^n and the simplicial part
    is the alternating face sum.

Every complex records the degree window on which it is certifiably equal
to the untruncated object; homology requests outside it are hard errors.

A differential and a ``ChainMap`` are one kind of graded map, filled
(``_add_entry``), fetched (``_block``) and walked (``_entries``) by one
helper each; the mapping cone (``cech.cone``) and the tests' tensor and
hom complexes loop over the walk.
"""

from .linalg import QQ, PrimeField, SparseMatrix, _compose, field_values, rank

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
        _add_entry(self, source_label, target_label, coeff)

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
        return _block(self, degree, weight)

    def d_apply(self, chain):
        """Differential on a chain given as {label: coeff}."""
        def image(label):
            d, w, pos = self.index[label]
            mat = self.diff.get((d, w))
            column = mat.cols.get(pos, {}) if mat else {}
            return {self.blocks[(d + 1, w)][r]: v for r, v in column.items()}

        return _compose(chain, image, self.coefficients.field)

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
        Each weight's blocks are ranked from the top degree down, and the
        block d^D : C^D → C^{D+1} without the rows that are pivot columns
        of d^{D+1}.  Those columns are linearly independent, so ker d^{D+1}
        meets their span only in 0; as im d^D ⊆ ker d^{D+1}, dropping them
        keeps the rank of d^D.  This assumes d∘d = 0 on the degrees
        [lo − 1, hi + 1], which hold every block ranked and must be
        certified anyway.
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
        # top-down per weight, each block without the rows that the block
        # above pivoted on (clearing)
        ranks, pivots = {}, {}
        for d, w in sorted(needed, key=lambda key: (key[1], -key[0])):
            pivots[(d, w)] = set()
            ranks[(d, w)] = rank(
                self.d_matrix(d, w), pivots.get((d + 1, w), ()), pivots[(d, w)]
            )
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
        self._values = field_values(source.coefficients.field)

    def set_entry(self, source_label, target_label, coeff):
        _add_entry(self, source_label, target_label, coeff)

    def set_column(self, entry, terms):
        """Set the image of a source element, given by its index entry
        (degree, weight, position), at once from ``(row, coeff)`` terms,
        rows in its target block: summed as plain numbers, each sum coerced
        into the field (``linalg.field_values``), zeros dropped."""
        sd, sw, sp = entry
        column = {}
        for row, v in terms:
            column[row] = column[row] + v if row in column else v
        values = self._values
        column = {r: x for r, v in column.items()
                  if (x := values[v]) is not None}
        if column:
            if (sd, sw) not in self.blocks:
                self.blocks[(sd, sw)] = _block(self, sd, sw)
            self.blocks[(sd, sw)].cols[sp] = column

    def matrix(self, degree, weight):
        return _block(self, degree, weight)

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
            if left.cols != right.cols:
                return False
        return True


# -- graded maps: a complex's differential (degree +1) or a ChainMap ----------


def _graded(m):
    """(blocks, source, target, degree) of a complex's differential or of
    a ChainMap: SparseMatrix blocks keyed by source (degree, weight)."""
    if isinstance(m, ChainMap):
        return m.blocks, m.source, m.target, m.shift
    return m.diff, m, m, 1


def _block(m, degree, weight):
    """The block of ``m`` at source (degree, weight), or an empty one of
    its shape (not stored)."""
    blocks, source, target, shift = _graded(m)
    if (degree, weight) in blocks:
        return blocks[(degree, weight)]
    return SparseMatrix(target.dim(degree + shift, weight),
                        source.dim(degree, weight), source.coefficients.field)


def _add_entry(m, source_label, target_label, coeff):
    """Add ``coeff`` to the entry of ``m`` between two labels, which must
    differ by its degree and share a weight."""
    blocks, source, target, shift = _graded(m)
    sd, sw, sp = source.index[source_label]
    td, tw, tp = target.index[target_label]
    if td != sd + shift or tw != sw:
        raise ValueError(f"entry {source_label!r} -> {target_label!r} must "
                         f"raise the degree by {shift} and keep the weight")
    blocks.setdefault((sd, sw), _block(m, sd, sw)).add_to(tp, sp, coeff)


def _entries(m):
    """The entries of ``m`` as (source label, target label, value), block
    by block in (degree, weight) order."""
    blocks, source, target, shift = _graded(m)
    for (d, w), mat in sorted(blocks.items()):
        sources = source.blocks[(d, w)]
        targets = target.blocks.get((d + shift, w), ())
        for col, column in sorted(mat.cols.items()):
            for row, v in column.items():
                yield sources[col], targets[row], v


# -- simplicial objects in chain complexes, totalization --------------------


def _interval_meet(a, b):
    return (max(a[0], b[0]), min(a[1], b[1]))


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

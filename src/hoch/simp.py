"""Finite simplicial sets, materialized as explicit tables up to a level.

Standard models: point, interval, circle, spheres (standard and small),
torus, genus-g surfaces; combinators: diagonal products and wedges.
Element ids are stable order-preserving integers per level; all sign
computations downstream reference this canonical order.

A pointed set has its basepoint at slot 0 of every level, and every
consumer reads it there: module coefficients sit in slot 0, a cochain
argument holds the unit there, and the wedge glues at it.
"""

import json
from functools import reduce
from itertools import combinations
from operator import and_, or_


class SimplicialSet:
    """Levelwise finite simplicial set with face/degeneracy tables.

    levels[n]: list of element labels (position = canonical id).
    face_tab[n][i][x]: position of d_i(x) in level n-1 (n >= 1).
    deg_tab[n][i][x]: position of s_i(x) in level n+1 (n <= N-1).
    pointed: whether slot 0 of every level is a basepoint, fixed by every
    face and degeneracy.
    """

    def __init__(self, name, levels, face_tab, deg_tab, pointed=False,
                 hitcap_coeff=None):
        self.name = name
        self.levels = levels
        self.face_tab = face_tab
        self.deg_tab = deg_tab
        self.pointed = pointed
        # hitcap_coeff c certifies: any single element of a level fails to be
        # degenerate in at most c directions, so nondegenerate monomials with
        # k non-unit slots die above level c*k.  None = no certificate.
        self.hitcap_coeff = hitcap_coeff
        self._complements = {}  # level -> nondegenerate_complements, lazily
        self._face_masks = {}  # level -> face_masks, lazily

    @property
    def top_level(self):
        return len(self.levels) - 1

    def card(self, n):
        return len(self.levels[n])

    def face(self, n, i, x):
        return self.face_tab[n][i][x]

    def degeneracy(self, n, i, x):
        return self.deg_tab[n][i][x]

    def nondegenerate_complements(self, n):
        """For level n >= 1: the complements of the degeneracy images
        s_i : Y_{n-1} -> Y_n, one frozenset per i in 0..n-1.  Computed at
        the first request for a level and kept, since the tables are fixed."""
        comps = self._complements.get(n)
        if comps is None:
            full = frozenset(range(self.card(n)))
            comps = tuple(
                full.difference(self.deg_tab[n - 1][i]) for i in range(n)
            )
            self._complements[n] = comps
        return comps

    def face_masks(self, n):
        """For level n >= 1, one tuple per face r of int bitmasks over the
        slots of Y_n: for each level-(n-1) complement c, the slots s with
        d_r(s) in c.  A support S has a nondegenerate image d_r(S) only if
        S meets every mask of r.  A mask that contains a level-n complement
        is left out, since a nondegenerate level-n support meets it
        already; so is a repeated one.  Kept per level, like the
        complements.

        The mask of c under face r holds a level-n complement h exactly
        when d_r(h) lies in c.  So the complements below that hold each
        slot, as bits, are intersected over d_r(h) for every h (one lookup
        for a one-slot h), and only the masks left are pulled back,
        through one preimage table per face."""
        masks = self._face_masks.get(n)
        if masks is None:
            below = self.nondegenerate_complements(n - 1)
            holds = [0] * self.card(n - 1)  # slot -> bits of those holding it
            for j, c in enumerate(below):
                for t in c:
                    holds[t] |= 1 << j
            every = (1 << len(below)) - 1
            here = self.nondegenerate_complements(n)
            ones = [s for h in here if len(h) == 1 for s in h]
            wider = [h for h in here if len(h) != 1]
            masks = []
            for tab in self.face_tab[n]:
                # the complements below that hold some d_r(h)
                inside = reduce(or_, map(holds.__getitem__,
                                         map(tab.__getitem__, ones)), 0)
                for h in wider:
                    inside |= reduce(and_, [holds[tab[s]] for s in h], every)
                if inside == every:
                    masks.append(())
                    continue
                preimage = [0] * self.card(n - 1)
                for s, t in enumerate(tab):
                    preimage[t] |= 1 << s
                masks.append(tuple(dict.fromkeys(
                    sum(preimage[t] for t in c)  # disjoint preimages
                    for j, c in enumerate(below) if not inside >> j & 1
                )))
            masks = self._face_masks[n] = tuple(masks)
        return masks

    def validate(self):
        """Exhaustively check all simplicial identities up to the top level.

        Returns (True, None) or (False, witness) with the violated identity.
        """
        N = self.top_level
        for n in range(2, N + 1):
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    for x in range(self.card(n)):
                        left = self.face(n - 1, i, self.face(n, j, x))
                        right = self.face(n - 1, j - 1, self.face(n, i, x))
                        if left != right:
                            return False, ("d_i d_j", n, i, j, x)
        for n in range(0, N - 1):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    for x in range(self.card(n)):
                        left = self.degeneracy(n + 1, i, self.degeneracy(n, j, x))
                        right = self.degeneracy(n + 1, j + 1, self.degeneracy(n, i, x))
                        if left != right:
                            return False, ("s_i s_j", n, i, j, x)
        for n in range(1, N):
            for x in range(self.card(n)):
                for j in range(n + 1):
                    sx = self.degeneracy(n, j, x)
                    for i in range(n + 2):
                        got = self.face(n + 1, i, sx)
                        if i == j or i == j + 1:
                            want = x
                        elif i < j:
                            want = self.degeneracy(n - 1, j - 1, self.face(n, i, x))
                        else:
                            want = self.degeneracy(n - 1, j, self.face(n, i - 1, x))
                        if got != want:
                            return False, ("d_i s_j", n, i, j, x)
        if self.pointed:
            for n in range(1, N + 1):
                for i in range(n + 1):
                    if self.face(n, i, 0) != 0:
                        return False, ("basepoint face", n, i)
            for n in range(0, N):
                for i in range(n + 1):
                    if self.degeneracy(n, i, 0) != 0:
                        return False, ("basepoint degeneracy", n, i)
        return True, None

    def nondegenerate(self):
        """Eilenberg-Zilber table: per level the nondegenerate elements and,
        for each degenerate one, its unique normal form (level, elt, surj),
        the surjection being the composite degeneracy operator."""
        N = self.top_level
        nondeg = [set(range(self.card(0)))]
        normal = [{x: (0, x, (0,)) for x in range(self.card(0))}]
        for n in range(1, N + 1):
            degenerate = {}
            for i in range(n):
                for y in range(self.card(n - 1)):
                    x = self.degeneracy(n - 1, i, y)
                    ly, ey, surj = normal[n - 1][y]
                    comp = tuple(
                        surj[t] if t <= i else surj[t - 1] for t in range(n + 1)
                    )
                    form = (ly, ey, comp)
                    if x in degenerate and degenerate[x] != form:
                        raise ValueError(
                            f"normal form not unique at level {n}, elt {x}"
                        )
                    degenerate[x] = form
            nd = set(range(self.card(n))) - set(degenerate)
            normal.append(
                {
                    **{x: (n, x, tuple(range(n + 1))) for x in nd},
                    **degenerate,
                }
            )
            nondeg.append(nd)
        return NondegeneracyTable(nondeg, normal)

    def to_json(self):
        return json.dumps(
            {
                "name": self.name,
                "levels": [list(map(str, lvl)) for lvl in self.levels],
                "faces": self.face_tab,
                "degeneracies": self.deg_tab,
                "pointed": self.pointed,
            },
            sort_keys=True,
        )


class NondegeneracyTable:
    def __init__(self, nondeg, normal):
        self.nondeg = nondeg  # list of sets of positions per level
        self.normal = normal  # list of dicts pos -> (level, pos, ops)

    def counts(self):
        return [len(s) for s in self.nondeg]


# -- builders --------------------------------------------------------------


def _build(name, levels, face_fn, deg_fn, pointed=False, hitcap=None):
    N = len(levels) - 1
    face_tab = [None]
    for n in range(1, N + 1):
        face_tab.append(
            [[face_fn(n, i, x) for x in range(len(levels[n]))] for i in range(n + 1)]
        )
    deg_tab = []
    for n in range(0, N):
        deg_tab.append(
            [[deg_fn(n, i, x) for x in range(len(levels[n]))] for i in range(n + 1)]
        )
    deg_tab.append(None)
    return SimplicialSet(name, levels, face_tab, deg_tab, pointed, hitcap)


def point(N):
    levels = [["pt"] for _ in range(N + 1)]
    return _build(
        "point",
        levels,
        lambda n, i, x: 0,
        lambda n, i, x: 0,
        pointed=True,
        hitcap=0,
    )


def interval(N):
    """I_n = {0, 1, ..., n+1}; faces merge i with i+1; pointed at 0."""
    levels = [list(range(n + 2)) for n in range(N + 1)]

    def face(n, i, x):
        return x if x <= i else x - 1

    def deg(n, i, x):
        return x if x <= i else x + 1

    return _build("interval", levels, face, deg, pointed=True, hitcap=1)


def circle(N):
    """S^1_n = {0, ..., n}; the last face wraps n to 0; pointed at 0."""
    levels = [list(range(n + 1)) for n in range(N + 1)]

    def face(n, i, x):
        if i < n:
            return x if x <= i else x - 1
        return x if x <= n - 1 else 0

    def deg(n, i, x):
        return x if x <= i else x + 1

    return _build("circle", levels, face, deg, pointed=True, hitcap=1)


def product(X, Y, name=None):
    """Levelwise cartesian product with diagonal faces and degeneracies:
    (x, y) sits at x * |Y_n| + y, so two basepoints give slot 0."""
    N = min(X.top_level, Y.top_level)
    levels = [
        [(a, b) for a in X.levels[n] for b in Y.levels[n]]
        for n in range(N + 1)
    ]

    def face(n, i, k):
        x, y = divmod(k, Y.card(n))
        return X.face(n, i, x) * Y.card(n - 1) + Y.face(n, i, y)

    def deg(n, i, k):
        x, y = divmod(k, Y.card(n))
        return X.degeneracy(n, i, x) * Y.card(n + 1) + Y.degeneracy(n, i, y)

    hitcap = None
    if X.hitcap_coeff is not None and Y.hitcap_coeff is not None:
        hitcap = X.hitcap_coeff + Y.hitcap_coeff
    return _build(
        name or f"product({X.name},{Y.name})", levels, face, deg,
        X.pointed and Y.pointed, hitcap,
    )


def torus(N):
    return product(circle(N), circle(N), name="torus")


def sphere_standard(d, N):
    """S^d_n = {*} ∪ {1..n}^d, the smash power of the standard circle."""
    if d < 1:
        raise ValueError("d >= 1")
    levels = []
    pos = []
    for n in range(N + 1):
        elts = ["*"] + [t for t in _lattice(n, d)]
        levels.append(elts)
        pos.append({e: k for k, e in enumerate(elts) if e != "*"})

    def face(n, i, k):
        if k == 0:
            return 0
        t = levels[n][k]
        img = []
        for p in t:
            q = circle_face(n, i, p)
            if q == 0:
                return 0
            img.append(q)
        return pos[n - 1][tuple(img)]

    def circle_face(n, i, x):
        if i < n:
            return x if x <= i else x - 1
        return x if x <= n - 1 else 0

    def deg(n, i, k):
        if k == 0:
            return 0
        t = levels[n][k]
        img = tuple(x if x <= i else x + 1 for x in t)
        return pos[n + 1][img]

    return _build(
        f"sphere_standard({d})", levels, face, deg, pointed=True, hitcap=d
    )


def _lattice(n, d):
    if n == 0:
        return
    idx = [1] * d
    while True:
        yield tuple(idx)
        j = d - 1
        while j >= 0 and idx[j] == n:
            idx[j] = 1
            j -= 1
        if j < 0:
            return
        idx[j] += 1


def from_nondegenerate(name, gens, gen_faces, N, basepoint=None, hitcap=None):
    """Simplicial set presented by nondegenerate simplices.

    gens: dict level -> list of generator names.
    gen_faces: dict (level, gen, i) -> (gen', surj) where surj is the
    monotone surjection [level-1] ->> [level'] expressing the face as a
    degeneracy of a generator (identity surjection for nondegenerate faces).
    Simplices at level n are pairs (gen at level m, surjection [n] ->> [m]);
    this is the free degeneracy completion (Eilenberg-Zilber normal form).
    A ``basepoint`` must be the first level-0 generator, whose simplices
    are slot 0 of every level; any other raises ValueError.
    """
    if basepoint is not None and gens.get(0, [None])[0] != basepoint:
        raise ValueError(
            f"basepoint {basepoint!r} is not the first level-0 generator"
        )
    levels = []
    pos = []
    for n in range(N + 1):
        elts = []
        for m in sorted(gens):
            if m > n:
                continue
            for g in gens[m]:
                for surj in _surjections(n, m):
                    elts.append((g, surj))
        levels.append(elts)
        pos.append({e: k for k, e in enumerate(elts)})

    gen_level = {g: m for m, gs in gens.items() for g in gs}

    def face(n, i, k):
        g, surj = levels[n][k]
        tau = tuple(surj[t] for t in range(n + 1) if t != i)
        m = gen_level[g]
        if _is_surjective(tau, m):
            return pos[n - 1][(g, tau)]
        # tau misses exactly the value surj[i]: factor through a face of g
        j = surj[i]
        tau1 = tuple(v if v < j else v - 1 for v in tau)
        g2, rho = gen_faces[(m, g, j)]
        comp = tuple(rho[v] for v in tau1)
        return pos[n - 1][(g2, comp)]

    def deg(n, i, k):
        g, surj = levels[n][k]
        new = tuple(surj[t if t <= i else t - 1] for t in range(n + 2))
        return pos[n + 1][(g, new)]

    return _build(name, levels, face, deg, basepoint is not None, hitcap)


def _surjections(n, m):
    """Monotone surjections [n] ->> [m] as value tuples."""
    if m > n:
        return
    if m == 0:
        yield tuple([0] * (n + 1))
        return
    for ascents in combinations(range(n), m):
        asc = set(ascents)
        vals = []
        v = 0
        for t in range(n + 1):
            vals.append(v)
            if t in asc:
                v += 1
        yield tuple(vals)


def _is_surjective(tau, m):
    if not tau:
        return m < 0
    if tau[0] != 0 or tau[-1] != m:
        return False
    prev = 0
    for v in tau[1:]:
        if v not in (prev, prev + 1):
            return False
        prev = v
    return True


def sphere_small(d, N):
    """The model with exactly two nondegenerate simplices (levels 0 and d)."""
    if d < 1:
        raise ValueError("d >= 1")
    gens = {0: ["*"], d: ["top"]}
    gen_faces = {}
    collapse = tuple([0] * d)  # the unique surjection [d-1] ->> [0]
    for i in range(d + 1):
        gen_faces[(d, "top", i)] = ("*", collapse)
    return from_nondegenerate(
        f"sphere_small({d})", gens, gen_faces, N, basepoint="*", hitcap=d
    )


def surface(g, N):
    """Genus-g surface: cone-subdivided 4g-gon quotient.

    One polygon vertex class v, the cone apex c, 4g spokes c->v, 2g side
    loops at v, and 4g triangles, one per side of the word
    a_1 b_1 a_1^{-1} b_1^{-1} ... a_g b_g a_g^{-1} b_g^{-1}.
    """
    if g < 1:
        raise ValueError("g >= 1")
    sides = []
    for j in range(g):
        a, b = f"a{j + 1}", f"b{j + 1}"
        sides += [(a, 1), (b, 1), (a, -1), (b, -1)]
    n_sides = len(sides)  # 4g
    spokes = [f"spoke{i}" for i in range(n_sides)]
    loops = sorted({x for x, _ in sides})
    gens = {
        0: ["v", "c"],
        1: spokes + loops,
        2: [f"T{i}" for i in range(n_sides)],
    }
    ident = (0,)  # identity surjection [0] ->> [0]
    gen_faces = {}
    for s in spokes:  # oriented c -> v: d_0 = v, d_1 = c
        gen_faces[(1, s, 0)] = ("v", ident)
        gen_faces[(1, s, 1)] = ("c", ident)
    for x in loops:
        gen_faces[(1, x, 0)] = ("v", ident)
        gen_faces[(1, x, 1)] = ("v", ident)
    ident2 = (0, 1)  # identity surjection [1] ->> [1]
    for i, (x, eps) in enumerate(sides):
        t = f"T{i}"
        nxt = (i + 1) % n_sides
        if eps == 1:  # vertices (c, p_i, p_{i+1})
            gen_faces[(2, t, 0)] = (x, ident2)
            gen_faces[(2, t, 1)] = (spokes[nxt], ident2)
            gen_faces[(2, t, 2)] = (spokes[i], ident2)
        else:  # vertices (c, p_{i+1}, p_i)
            gen_faces[(2, t, 0)] = (x, ident2)
            gen_faces[(2, t, 1)] = (spokes[i], ident2)
            gen_faces[(2, t, 2)] = (spokes[nxt], ident2)
    return from_nondegenerate(
        f"surface({g})", gens, gen_faces, N, basepoint="v", hitcap=2
    )


def wedge(X, Y, name=None):
    """Pushout of pointed simplicial sets along the basepoint: level n is
    the basepoint "*", then the other slots of X, then those of Y.

    >>> W = wedge(circle(2), circle(2))
    >>> W.levels[1]
    ['*', ('L', 1), ('R', 1)]
    >>> W.face(1, 1, 2)  # the loop of Y closes at the basepoint
    0
    """
    if not (X.pointed and Y.pointed):
        raise ValueError("wedge requires pointed inputs")
    N = min(X.top_level, Y.top_level)
    levels = [
        ["*"] + [("L", x) for x in X.levels[n][1:]]
        + [("R", y) for y in Y.levels[n][1:]]
        for n in range(N + 1)
    ]

    def on_halves(act, shift):
        """``act`` (a face or degeneracy, onto level n + shift) on each
        half: slot x of X stays x, slot y of Y sits at |X_n| - 1 + y."""
        def image(n, i, k):
            cx = X.card(n)
            if k < cx:
                return act(X, n, i, k)
            y = act(Y, n, i, k - cx + 1)
            return y and X.card(n + shift) - 1 + y
        return image

    hitcap = None
    if X.hitcap_coeff is not None and Y.hitcap_coeff is not None:
        hitcap = X.hitcap_coeff + Y.hitcap_coeff
    return _build(
        name or f"wedge({X.name},{Y.name})",
        levels,
        on_halves(lambda Z, n, i, z: Z.face(n, i, z), -1),
        on_halves(lambda Z, n, i, z: Z.degeneracy(n, i, z), 1),
        True,
        hitcap,
    )

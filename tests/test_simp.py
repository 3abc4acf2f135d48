"""Simplicial sets: builders, identities, cardinalities, normal forms."""

import json
import random
from math import comb

import pytest

from hoch import simp

LEVEL = 8


def all_builders(level=LEVEL):
    return [
        simp.point(level),
        simp.interval(level),
        simp.circle(level),
        simp.torus(min(level, 6)),
        simp.sphere_standard(2, min(level, 6)),
        simp.sphere_standard(3, min(level, 5)),
        simp.sphere_small(2, level),
        simp.sphere_small(3, level),
        simp.surface(1, min(level, 5)),
        simp.surface(2, min(level, 4)),
        simp.wedge(simp.circle(level), simp.circle(level)),
        simp.product(simp.circle(6), simp.sphere_small(2, 6)),
    ]


def test_all_builders_validate():
    for X in all_builders():
        ok, witness = X.validate()
        assert ok, (X.name, witness)


def test_cardinalities():
    S1 = simp.circle(LEVEL)
    assert [S1.card(n) for n in range(LEVEL + 1)] == [
        n + 1 for n in range(LEVEL + 1)
    ]
    T = simp.torus(6)
    assert [T.card(n) for n in range(7)] == [(n + 1) ** 2 for n in range(7)]
    Sd = simp.sphere_standard(2, 6)
    assert [Sd.card(n) for n in range(7)] == [1 + n**2 for n in range(7)]
    Sm = simp.sphere_small(2, LEVEL)
    assert [Sm.card(n) for n in range(LEVEL + 1)] == [
        1 + comb(n, 2) for n in range(LEVEL + 1)
    ]
    assert simp.sphere_small(2, 4).card(4) == 7
    W = simp.wedge(simp.circle(6), simp.circle(6))
    assert [W.card(n) for n in range(7)] == [2 * n + 1 for n in range(7)]


def test_circle_face_values():
    S1 = simp.circle(8)
    assert S1.card(3) == 4
    assert S1.face(3, 3, 3) == 0  # d_3(3) = 0: the wrap-around face
    assert S1.face(3, 1, 3) == 2
    assert S1.face(3, 1, 1) == 1


def test_interval_faces_merge():
    I = simp.interval(6)
    # d_i merges i and i+1
    for n in range(1, 6):
        for i in range(n + 1):
            assert I.face(n, i, i) == I.face(n, i, i + 1) == i


def test_product_point_identity():
    Y = simp.circle(6)
    P = simp.product(simp.point(6), Y)
    assert [P.card(n) for n in range(7)] == [Y.card(n) for n in range(7)]
    for n in range(1, 7):
        for i in range(n + 1):
            for x in range(Y.card(n)):
                assert P.face(n, i, x) == Y.face(n, i, x)


def test_wedge_requires_pointed():
    X = simp.circle(4)
    unpointed = simp.SimplicialSet(
        "np", X.levels, X.face_tab, X.deg_tab, None
    )
    with pytest.raises(ValueError):
        simp.wedge(unpointed, X)


def test_wedge_point_identity():
    Y = simp.circle(6)
    W = simp.wedge(simp.point(6), Y)
    assert [W.card(n) for n in range(7)] == [Y.card(n) for n in range(7)]
    ok, _ = W.validate()
    assert ok


def test_basepoint_fixed():
    for X in all_builders():
        if not X.pointed:
            continue
        for n in range(1, X.top_level + 1):
            for i in range(n + 1):
                assert X.face(n, i, 0) == 0


def test_a_basepoint_past_the_first_vertex_is_refused(monkeypatch):
    # on the surface's generators the cone apex c is the second level-0
    # generator, so its simplices would not sit at slot 0
    real, calls = simp.from_nondegenerate, []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(simp, "from_nondegenerate", spy)
    X = simp.surface(1, 2)
    (args, kwargs), = calls
    assert kwargs["basepoint"] == "v" and X.levels[0][0] == ("v", (0,))
    with pytest.raises(ValueError, match="first level-0 generator"):
        real(*args, **{**kwargs, "basepoint": "c"})


def test_a_face_that_moves_slot_0_fails_validate():
    """Exchanging the two edges of the circle gives an isomorphic
    simplicial set whose slot 0 at level 1 is the loop: every simplicial
    identity holds, but a face of level 2 moves slot 0 off slot 0."""
    X = simp.circle(3)
    swap = (1, 0)  # level-1 positions exchanged (an involution)
    face_tab = [None] + [[list(r) for r in X.face_tab[n]] for n in (1, 2, 3)]
    deg_tab = [[list(r) for r in X.deg_tab[n]] for n in (0, 1, 2)] + [None]
    face_tab[1] = [[row[k] for k in swap] for row in face_tab[1]]
    deg_tab[1] = [[row[k] for k in swap] for row in deg_tab[1]]
    face_tab[2] = [[swap[t] for t in row] for row in face_tab[2]]
    deg_tab[0] = [[swap[t] for t in row] for row in deg_tab[0]]
    unpointed = simp.SimplicialSet("swapped", X.levels, face_tab, deg_tab)
    assert unpointed.validate() == (True, None)
    pointed = simp.SimplicialSet("swapped", X.levels, face_tab, deg_tab,
                                 pointed=True)
    ok, witness = pointed.validate()
    assert not ok and witness[0] == "basepoint face"


def test_corrupted_face_table_fails():
    X = simp.circle(5)
    face_tab = [None] + [
        [list(row) for row in X.face_tab[n]] for n in range(1, 6)
    ]
    face_tab[3][1][2] = (face_tab[3][1][2] + 1) % X.card(2)
    bad = simp.SimplicialSet(
        "bad", X.levels, face_tab, X.deg_tab, X.pointed
    )
    ok, witness = bad.validate()
    assert not ok
    assert witness[0] in ("d_i d_j", "d_i s_j", "basepoint face")


def test_validate_idempotent():
    X = simp.circle(6)
    snapshot = json.loads(X.to_json())
    assert X.validate()[0] and X.validate()[0]
    assert json.loads(X.to_json()) == snapshot


def test_nondegenerate_counts():
    assert simp.sphere_small(2, 8).nondegenerate().counts() == [
        1, 0, 1, 0, 0, 0, 0, 0, 0,
    ]
    assert simp.sphere_small(3, 7).nondegenerate().counts() == [
        1, 0, 0, 1, 0, 0, 0, 0,
    ]
    assert simp.circle(6).nondegenerate().counts() == [1, 1, 0, 0, 0, 0, 0]
    assert simp.point(5).nondegenerate().counts() == [1, 0, 0, 0, 0, 0]
    # surface(g): 2 vertices, 6g edges, 4g triangles
    assert simp.surface(1, 4).nondegenerate().counts() == [2, 6, 4, 0, 0]
    assert simp.surface(2, 3).nondegenerate().counts() == [2, 12, 8, 0]


def test_sphere_standard_faces_collapse():
    S = simp.sphere_standard(2, 4)
    # the last face at level n multiplies the n-th hyperplane into the base
    n = 2
    for k in range(S.card(n)):
        elt = S.levels[n][k]
        if elt == "*":
            continue
        p, q = elt
        img = S.face(n, n, k)
        if p == n or q == n:
            assert img == 0
    ok, _ = S.validate()
    assert ok


def test_json_export_roundtrip():
    X = simp.sphere_small(2, 4)
    doc = json.loads(X.to_json())
    assert doc["name"] == "sphere_small(2)"
    assert [len(lvl) for lvl in doc["levels"]] == [
        X.card(n) for n in range(5)
    ]
    assert doc["faces"][1] is not None
    assert doc["pointed"] is X.pointed is True


def _meets_all(support, complements):
    return all(support & c for c in complements)


def test_face_masks_decide_degenerate_face_images():
    """For a support meeting every level-n complement, d_r(support) meets
    every level-(n-1) complement exactly when the support meets every
    mask of face r: random supports on the builders with masks, and every
    support on the small levels."""
    rng = random.Random(7)
    spaces = [simp.sphere_small(2, 6), simp.sphere_small(3, 7),
              simp.sphere_standard(2, 5), simp.surface(1, 4),
              simp.product(simp.circle(4), simp.sphere_small(2, 4))]
    for X in spaces:
        for n in range(1, X.top_level + 1):
            here = [sum(1 << s for s in c)
                    for c in X.nondegenerate_complements(n)]
            below = [sum(1 << s for s in c)
                     for c in X.nondegenerate_complements(n - 1)]
            card = X.card(n)
            supports = (range(1 << card) if card <= 10 else
                        [rng.getrandbits(card) for _ in range(2000)])
            for support in supports:
                if not _meets_all(support, here):
                    continue
                for r, masks in enumerate(X.face_masks(n)):
                    image = sum(1 << t for t in {
                        X.face(n, r, s) for s in range(card)
                        if support >> s & 1
                    })
                    assert _meets_all(support, masks) == _meets_all(
                        image, below
                    ), (X.name, n, r, support)


def test_face_masks_of_circles_and_their_wedges_are_empty():
    """Every nonzero face image over these spaces is nondegenerate, so no
    support is ever computed for them."""
    c = simp.circle(4)
    two = simp.wedge(c, c)
    for X in (simp.circle(8), simp.torus(3), two, simp.wedge(two, c),
              simp.wedge(c, two)):
        for n in range(1, X.top_level + 1):
            assert X.face_masks(n) == ((),) * (n + 1), (X.name, n)
    masks = simp.sphere_small(3, 9).face_masks
    assert [len(masks(n)[0]) for n in range(1, 10)] == [
        0, 0, 1, 1, 4, 5, 6, 7, 8,
    ]
    assert masks(3) == ((0,),) * 4  # level 2 holds no nondegenerate slot


def _reference_face_masks(X, n):
    """``face_masks`` as first written: every slot scanned for each
    (face, complement below) pair, each mask tested against every level-n
    complement."""
    here = [sum(1 << s for s in c) for c in X.nondegenerate_complements(n)]
    below = X.nondegenerate_complements(n - 1)
    masks = []
    for tab in X.face_tab[n]:
        pulled = (sum(1 << s for s, t in enumerate(tab) if t in c)
                  for c in below)
        masks.append(tuple(dict.fromkeys(
            m for m in pulled if all(h & ~m for h in here)
        )))
    return tuple(masks)


def test_face_masks_match_the_reference():
    c = simp.circle(4)
    two = simp.wedge(c, c)
    spaces = [simp.circle(8), simp.torus(3), two, simp.wedge(two, c),
              simp.wedge(c, two), simp.sphere_small(2, 6),
              simp.sphere_small(3, 9), simp.sphere_standard(2, 5),
              simp.surface(1, 4)]
    for X in spaces:
        for n in range(1, X.top_level + 1):
            assert X.face_masks(n) == _reference_face_masks(X, n), (X.name, n)

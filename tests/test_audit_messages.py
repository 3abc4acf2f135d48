"""Every failure of the algebra, module and automorphism audits, one case
each, with its exact message.  The checks run in a fixed order, so each
presentation below breaks one axiom while keeping the earlier ones."""

import pytest

from hoch import classical, dga
from hoch.homalg import Coefficients
from tests_support import koszul_algebra

QQ = Coefficients()
F = QQ.field
ONE, TWO = F.one, F.coerce(2)

# k[x]/x^2 with |x| = 0: its basis and multiplication table
TRUNC2 = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE}, (1, 1): {}}
BASIS2 = [("1", 0, 0), ("x", 0, 1)]


def algebra(basis=BASIS2, mult=TRUNC2, name="T", **kwargs):
    kwargs.setdefault("unit", 0)
    kwargs.setdefault("weight_graded", True)
    return dga.DGAlgebra(name, QQ, basis, mult, **kwargs)


def trunc(n):
    return dga.truncated_polynomial(QQ, n)


def module(A, left, basis=(("m", 0, 0),), **kwargs):
    kwargs.setdefault("symmetric", False)
    return dga.DGModule("M", A, list(basis), left, **kwargs)


def one_dim_module(actions, side):
    """k over k[x]/x^3 with x^k acting by actions[k] on one side."""
    table = {(a, 0): {0: c} for a, c in enumerate(actions) if c}
    if side == "left":
        return module(trunc(3), table)
    right = {(0, a): v for (a, _), v in table.items()}
    return module(trunc(3), None, right=right)


def two_dim_module(left, right=None, diff=None):
    """span(m0, m1) over k[x]/x^2, with the unit acting as identity."""
    ident = {(0, m): {m: ONE} for m in range(2)}
    return module(
        trunc(2),
        {**ident, **left} if left is not None else None,
        basis=(("m0", 0, 0), ("m1", 0, 0)),
        right={(m, 0): {m: ONE} for m in range(2)} | right if right else None,
        diff=diff,
    )


CASES = {
    # -- DGAlgebra: presentation ------------------------------------------
    "duplicate labels": (
        lambda: algebra(basis=[("1", 0, 0), ("1", 0, 1)]),
        "duplicate basis labels",
    ),
    "neither class": (
        lambda: algebra(basis=[("1", 0, 0), ("y", 0, 0)], weight_graded=False),
        "T: presentation is neither finite with negative-degree ideal nor "
        "weight-graded with positive-weight ideal",
    ),
    "unit placement": (
        lambda: algebra(basis=[("1", 0, 1), ("x", 0, 1)]),
        "unit must sit in degree 0, weight 0",
    ),
    "positive degree": (
        lambda: algebra(basis=[("1", 0, 0), ("x", 2, 1)]),
        "T: positive-degree basis elements break the level-degree "
        "truncation bound",
    ),
    # -- DGAlgebra: audit, in the order the checks run ----------------------
    "degree-additive": (
        lambda: algebra(
            basis=[("1", 0, 0), ("x", -2, 1)], mult={**TRUNC2, (1, 1): {1: ONE}}
        ),
        "T: product not degree-additive",
    ),
    "weight-additive": (
        lambda: algebra(mult={**TRUNC2, (1, 1): {1: ONE}}),
        "T: product not weight-additive",
    ),
    "unit law": (
        lambda: algebra(mult={**TRUNC2, (0, 1): {1: TWO}}),
        "T: unit law fails at 1",
    ),
    "associativity": (
        lambda: algebra(
            basis=[("1", 0, 0), ("x", 0, 1), ("x2", 0, 2), ("x3", 0, 3)],
            mult={
                **{(0, i): {i: ONE} for i in range(4)},
                **{(i, 0): {i: ONE} for i in range(1, 4)},
                (1, 1): {2: ONE}, (1, 2): {3: TWO}, (2, 1): {3: ONE},
                (1, 3): {}, (3, 1): {}, (2, 2): {}, (2, 3): {}, (3, 2): {},
                (3, 3): {},
            },
            commutative=False,
        ),
        "T: associativity fails at (1, 1, 1)",
    ),
    "graded commutativity": (
        lambda: algebra(
            basis=[("1", 0, 0), ("x", 0, 1), ("y", 0, 1), ("xy", 0, 2)],
            mult={
                **{(0, i): {i: ONE} for i in range(4)},
                **{(i, 0): {i: ONE} for i in range(1, 4)},
                (1, 2): {3: ONE},
            },
        ),
        "T: graded commutativity fails at (1, 2)",
    ),
    "Leibniz": (
        lambda: algebra(
            basis=[("1", 0, 0), ("y", -1, 1)], diff={0: {1: ONE}}
        ),
        "T: Leibniz fails at (0, 0)",
    ),
    "d squared": (
        lambda: algebra(diff={1: {1: ONE}}),
        "T: d^2 != 0 at 1",
    ),
    "augmentation unit": (
        lambda: algebra(augmentation={}),
        "T: augmentation misses the unit",
    ),
    "augmentation multiplicative": (
        lambda: algebra(augmentation={0: ONE, 1: ONE}),
        "T: augmentation not multiplicative",
    ),
    # x and y in degree 0, square-zero, d x = y: every axiom holds, but d
    # keeps the degree
    "differential grading": (
        lambda: algebra(
            basis=[("1", 0, 0), ("x", 0, 1), ("y", 0, 1)],
            mult={
                **{(0, i): {i: ONE} for i in range(3)},
                **{(i, 0): {i: ONE} for i in range(1, 3)},
                **{(i, j): {} for i in (1, 2) for j in (1, 2)},
            },
            diff={1: {2: ONE}},
        ),
        "T: differential must raise the degree by 1 and keep the weight "
        "at 1",
    ),
    # -- DGAlgebra: accessors ---------------------------------------------
    "materialized weight": (
        lambda: dga.polynomial(QQ, max_weight=3).product(2, 2),
        "k[x]: product exceeds materialized weight 3",
    ),
    "not augmented": (
        lambda: algebra().eps(1),
        "T is not augmented",
    ),
    # -- DGModule ---------------------------------------------------------
    "module positive degree": (
        lambda: module(trunc(2), {}, basis=[("m", 1, 0)]),
        "M: positive-degree module elements",
    ),
    "module left unit": (
        lambda: one_dim_module([TWO], "left"),
        "M: unit does not act as identity",
    ),
    "module right unit": (
        lambda: one_dim_module([TWO], "right"),
        "M: unit right action fails",
    ),
    "left module axiom": (
        lambda: one_dim_module([ONE, ONE], "left"),
        "M: left module axiom fails (1, 1, 0)",
    ),
    # x acts on the left by m0 -> m1 and on the right by m1 -> m0: each is
    # an action of k[x]/x^2, but they do not commute
    "bimodule compatibility": (
        lambda: two_dim_module({(1, 0): {1: ONE}}, right={(1, 1): {0: ONE}}),
        "M: bimodule compatibility fails",
    ),
    "right module axiom": (
        lambda: one_dim_module([ONE, ONE], "right"),
        "M: right module axiom fails (1, 1, 0)",
    ),
    "module Leibniz": (
        lambda: two_dim_module({(1, 0): {1: ONE}}, diff={0: {0: ONE}}),
        "M: module Leibniz fails",
    ),
    # x m0 = m1 is an action of k[x]/x^2 with |m1| = -2: every axiom
    # holds, but the action does not add degrees
    "left action degree": (
        lambda: module(trunc(2), {(0, 0): {0: ONE}, (0, 1): {1: ONE},
                                  (1, 0): {1: ONE}},
                       basis=(("m0", 0, 0), ("m1", -2, 1))),
        "M: left action not degree-additive",
    ),
    # the same with m1 in degree 0 and weight 0: x has weight 1
    "left action weight": (
        lambda: two_dim_module({(1, 0): {1: ONE}}),
        "M: left action not weight-additive",
    ),
    # m0 x = m1 with |m1| = -1 on a right module
    "right action degree": (
        lambda: module(trunc(2), None, basis=(("m0", 0, 0), ("m1", -1, 1)),
                       right={(0, 0): {0: ONE}, (1, 0): {1: ONE},
                              (0, 1): {1: ONE}}),
        "M: right action not degree-additive",
    ),
    # x acts as 0, so d m0 = m1 satisfies Leibniz, yet keeps the degree
    "module differential grading": (
        lambda: two_dim_module({}, diff={0: {1: ONE}}),
        "M: differential must raise the degree by 1 and keep the weight "
        "at 0",
    ),
    # a right module has no Leibniz check, but its grading is audited
    "right module differential grading": (
        lambda: module(trunc(2), None, basis=(("m0", 0, 0), ("m1", 0, 1)),
                       right={(m, 0): {m: ONE} for m in range(2)},
                       diff={0: {1: ONE}}),
        "M: differential must raise the degree by 1 and keep the weight "
        "at 0",
    ),
    "no left action": (
        lambda: one_dim_module([ONE], "right").act_left(0, 0),
        "M: no left action",
    ),
    "no right action": (
        lambda: one_dim_module([ONE], "left").act_right(0, 0),
        "M: no right action",
    ),
    # -- AlgebraAutomorphism ----------------------------------------------
    "automorphism grading": (
        lambda: classical.AlgebraAutomorphism(trunc(3), {1: {2: ONE}}),
        "automorphism must preserve (degree, weight)",
    ),
    "automorphism unit": (
        lambda: classical.AlgebraAutomorphism(trunc(3), {0: {0: TWO}}),
        "automorphism must fix the unit",
    ),
    "automorphism multiplicative": (
        lambda: classical.AlgebraAutomorphism(
            trunc(3), {0: {0: ONE}, 1: {1: F.coerce(-1)}, 2: {2: F.coerce(-1)}}
        ),
        "automorphism is not multiplicative",
    ),
    # e -> 2e, xe -> 2xe is multiplicative but does not commute with de = x
    "automorphism chain map": (
        lambda: classical.AlgebraAutomorphism(
            koszul_algebra(QQ),
            {0: {0: ONE}, 1: {1: ONE}, 2: {2: TWO}, 3: {3: TWO}},
        ),
        "automorphism is not a chain map",
    ),
    "automorphism invertible": (
        lambda: classical.AlgebraAutomorphism(trunc(3), {0: {0: ONE}}),
        "automorphism is not invertible",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_audit_failure_message(case):
    build, message = CASES[case]
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message

import pytest

from hoch import dga
from hoch.homalg import Coefficients


@pytest.fixture(scope="session")
def QQ():
    return Coefficients()


@pytest.fixture(scope="session")
def exterior(QQ):
    return dga.exterior(QQ)


@pytest.fixture(scope="session")
def trunc2(QQ):
    return dga.truncated_polynomial(QQ, 2)


@pytest.fixture(scope="session")
def trunc3(QQ):
    return dga.truncated_polynomial(QQ, 3)


@pytest.fixture(scope="session")
def koszul_dga(QQ):
    """(k[x]/x² ⊗ Λ(e), de = x): acyclic in positive weights, quasi-
    isomorphic to Λ(z) with z = [xe]; exercises the nonzero-differential
    code paths end to end."""
    one = QQ.field.one
    basis = [("1", 0, 0), ("x", 0, 1), ("e", -1, 1), ("xe", -1, 2)]
    mult = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one},
        (0, 3): {3: one},
        (1, 0): {1: one}, (2, 0): {2: one}, (3, 0): {3: one},
        (1, 1): {}, (1, 2): {3: one}, (2, 1): {3: one},
        (1, 3): {}, (3, 1): {}, (2, 2): {}, (2, 3): {}, (3, 2): {},
        (3, 3): {},
    }
    return dga.DGAlgebra(
        "koszul", QQ, basis, mult, unit=0, diff={2: {1: one}},
        commutative=True, augmentation={0: one}, weight_graded=True,
    )

import pytest

from hoch import dga
from hoch.homalg import Coefficients
from tests_support import koszul_algebra


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
    return koszul_algebra(QQ)

"""Doctests on the pure helpers."""

import doctest

from hoch import cech, dga, homalg, hochschild, linalg, products, simp


def test_doctests():
    for mod in (cech, dga, homalg, hochschild, linalg, products, simp):
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
        assert result.attempted >= 1, mod.__name__

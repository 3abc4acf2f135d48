"""Doctests of every module of the package."""

import doctest
import importlib
import pkgutil

import hoch


def test_doctests():
    names = [info.name for info in pkgutil.iter_modules(hoch.__path__, "hoch.")]
    assert "hoch.cli" in names
    for name in names:
        mod = importlib.import_module(name)
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
        assert result.attempted >= 1, mod.__name__

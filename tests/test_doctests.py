"""The usage examples in the module docstrings run and hold."""

import doctest
import importlib
import pkgutil

import vvmf


def test_module_doctests():
    attempted = 0
    for info in pkgutil.iter_modules(vvmf.__path__):
        module = importlib.import_module(f"vvmf.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted >= 7  # exactfield, scalarforms and qseries carry examples

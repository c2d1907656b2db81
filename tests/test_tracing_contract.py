"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` wraps the functions and methods it names in
``TARGETS`` and reads ``cache_info()`` on the constructors it names in
``CACHED``.  A rename or deletion in ``src/`` that drops one of them breaks
traced benchmark runs, so it fails here.  The tracer module is loaded from
its file and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module_name, attr, span", tracing.TARGETS)
def test_every_target_resolves(module_name, attr, span):
    assert module_name.split(".")[0] == "vvmf"
    module = importlib.import_module(module_name)
    if "." in attr:  # the tracer patches the method in the class's own dict
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(meth)), attr
    else:
        assert callable(getattr(module, attr)), attr


@pytest.mark.parametrize("name", tracing.CACHED)
def test_every_cached_constructor_has_cache_info(name):
    from vvmf import scalarforms

    info = getattr(scalarforms, name).cache_info()
    assert info.hits >= 0 and info.misses >= 0

"""What importing the package and running each subcommand loads.

``import vvmf`` and ``import vvmf.cli`` load no computation module, and each
subcommand loads only the modules it runs, before argparse and json.  Every
check that counts modules runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vvmf
from vvmf import cli
from vvmf.detlab import FormVector, generators_to_record
from vvmf.qseries import QSeries
from vvmf.replib import direct_sum, linear_character
from vvmf.scalarforms import eta_squared

ENV = dict(os.environ, PYTHONPATH=str(Path(vvmf.__file__).parent.parent))

# Runs the CLI as ``python -m vvmf.cli ARGS`` does and writes the names in
# sys.modules, in the order they were loaded, to the file named first.
RUN_CLI = """
import runpy, sys
out, sys.argv = sys.argv[1], ["vvmf", *sys.argv[2:]]
try:
    runpy.run_module("vvmf.cli", run_name="__main__", alter_sys=True)
finally:
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\\n".join(sys.modules))
"""

# The modules each subcommand loads: the one it runs and what that imports.
# So analyze loads no series or suite code, det no weight enumeration, and
# each suite only the modules it runs.
LOADED = {
    "series": {"errors", "exactfield", "qseries", "scalarforms"},
    "analyze": {"errors", "exactfield", "replib", "weightcalc"},
    "verify": {"errors", "exactfield", "replib", "weightcalc", "suites"},  # the kappa suite
    "verify scalar": {"errors", "exactfield", "qseries", "scalarforms", "suites"},
    "det": {"errors", "exactfield", "qseries", "scalarforms", "replib", "detlab"},
}


def _new_modules(code: str) -> list[str]:
    """The modules that ``code`` loads in a fresh interpreter, in order."""
    probe = ("import sys\nbefore = set(sys.modules)\n" + code
             + "\nprint('\\n'.join(m for m in sys.modules if m not in before))")
    done = subprocess.run([sys.executable, "-c", probe], env=ENV, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.split()


def _run_cli(tmp_path, *argv) -> tuple[int, list[str]]:
    out = tmp_path / "modules.txt"
    done = subprocess.run([sys.executable, "-c", RUN_CLI, str(out), *argv], env=ENV,
                          capture_output=True, text=True, timeout=300)
    return done.returncode, out.read_text(encoding="utf-8").split()


def _vvmf(modules) -> set[str]:
    return {m.removeprefix("vvmf.") for m in modules if m.startswith("vvmf.")}


def test_import_vvmf_loads_no_submodule():
    new = _new_modules("import vvmf")
    assert "vvmf" in new and _vvmf(new) == set()


def test_import_cli_loads_no_computation():
    new = _new_modules("import vvmf.cli")
    assert {"vvmf", "vvmf.cli", "vvmf.errors"} == {m for m in new if m.startswith("vvmf")}
    assert not {"argparse", "json", "dataclasses", "fractions"} & set(new)


@pytest.fixture
def inputs(tmp_path):
    rep = direct_sum(linear_character(2), linear_character(4))
    zero = QSeries.zero(12 * 24, 12)
    f1 = FormVector.make(2, [eta_squared(24) ** 2, zero])
    f2 = FormVector.make(4, [zero, eta_squared(24) ** 4])
    rep_path, gens_path = tmp_path / "rep.json", tmp_path / "gens.json"
    rep_path.write_text(json.dumps(rep.to_record()))
    gens_path.write_text(json.dumps(generators_to_record("k2k4", [f1, f2])))
    return {"rep": str(rep_path), "gens": str(gens_path)}


ARGV = {
    "series": ["series", "J"],
    "analyze": ["analyze", "{rep}", "--enumerate", "--format", "json"],
    "verify": ["verify", "kappa"],
    "verify scalar": ["verify", "scalar"],
    "det": ["det", "{gens}", "{rep}"],
}


@pytest.mark.parametrize("case", sorted(LOADED))
def test_each_subcommand_loads_only_what_it_runs(case, inputs, tmp_path):
    argv = [a.format(**inputs) for a in ARGV[case]] + ["--order", "8"]
    command = argv[0]
    code, modules = _run_cli(tmp_path, *argv)
    assert code == 0
    assert _vvmf(modules) == LOADED[case]
    assert "vvmf.cli" not in modules  # no library module imports the front end
    # The value types are plain classes: nothing loads dataclasses, and with
    # it inspect, ast, dis and tokenize.
    assert not {"dataclasses", "inspect"} & set(modules)
    # The command's module is imported before the parser, and before json
    # where json is used at all (files to read, or a JSON report).
    first = modules.index(f"vvmf.{cli.COMMAND_MODULES[command]}")
    assert first < modules.index("argparse")
    assert first < modules.index("json") if "json" in modules else command in ("series", "verify")


def test_help_loads_no_computation(tmp_path):
    code, modules = _run_cli(tmp_path, "--help")
    assert code == 0 and _vvmf(modules) == {"errors"}


def test_every_public_name_is_its_modules_object():
    for name in vvmf.__all__:
        value = getattr(vvmf, name)
        assert value.__module__.startswith("vvmf.")
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert len(set(vvmf.__all__)) == 51 and set(vvmf.__all__) <= set(dir(vvmf))
    # Names without a caller in the package live on in the tests only.
    for name in ("matrices_equal", "split_by_parity", "twist", "verify_gen_product"):
        assert name not in vvmf.__all__
        with pytest.raises(AttributeError):
            getattr(vvmf, name)
    assert vvmf.__version__ == "0.1.0"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from vvmf import *", namespace)
    assert {n: namespace[n] for n in vvmf.__all__} == {n: getattr(vvmf, n) for n in vvmf.__all__}


def test_unknown_attributes_raise_attribute_error():
    with pytest.raises(AttributeError, match="nosuch"):
        vvmf.nosuch  # noqa: B018
    with pytest.raises(ImportError):
        exec("from vvmf import nosuch", {})
    with pytest.raises(AttributeError, match="nosuch"):
        cli.nosuch  # noqa: B018


def test_cli_exterior_product_is_detlabs_at_each_access(monkeypatch):
    from vvmf import detlab, suites

    assert cli.exterior_product is suites.exterior_product is detlab.exterior_product
    monkeypatch.setattr(detlab, "exterior_product", lambda vectors: None)
    assert cli.exterior_product is suites.exterior_product is detlab.exterior_product
    with pytest.raises(AttributeError, match="nosuch"):
        suites.nosuch  # noqa: B018


def test_suite_names_are_one_tuple():
    from vvmf import suites

    assert suites.SUITE_NAMES is vvmf.SUITE_NAMES
    assert set(vvmf.SUITE_NAMES) == set(suites._SUITES)

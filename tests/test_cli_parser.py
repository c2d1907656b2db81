"""The command-line parser's own output, pinned.

The help texts and usage errors below were recorded while ``vvmf.cli``
imported every module at its top and read the suite names from
``vvmf.suites``; the parser is now built after the subcommand's module is
imported, from ``vvmf.SUITE_NAMES``.  argparse lays its help out for the
terminal width and words it differently between Python versions, so the
texts are compared at 80 columns, on the Python version that wrote them.
"""

import sys

import pytest

from vvmf.cli import main

HELP = """\
usage: vvmf [-h] {series,analyze,verify,det} ...

Exact q-expansions and trace constraints for vector-valued modular forms.

positional arguments:
  {series,analyze,verify,det}
    series              emit a named scalar form
    analyze             validate and analyze a representation file
    verify              run a named identity suite
    det                 check a generators file against a representation

options:
  -h, --help            show this help message and exit
"""

VERIFY_USAGE = """\
usage: vvmf verify [-h] [--order ORDER] [--format {json,text}] [--output PATH]
                   [--seed SEED]
                   {scalar,counting,kappa,sums,det}
"""

VERIFY_HELP = VERIFY_USAGE + """
positional arguments:
  {scalar,counting,kappa,sums,det}

options:
  -h, --help            show this help message and exit
  --order ORDER         expansion order (trusted exponent bound), 8 to 8192
  --format {json,text}
  --output PATH         write the report here instead of stdout
  --seed SEED
"""

VERIFY_NOSUCH = VERIFY_USAGE + (
    "vvmf verify: error: argument suite: invalid choice: 'nosuch' "
    "(choose from 'scalar', 'counting', 'kappa', 'sums', 'det')\n")

BARE = """\
usage: vvmf [-h] {series,analyze,verify,det} ...
vvmf: error: the following arguments are required: command
"""

# argv -> (exit code, stdout, stderr)
PINS = {
    ("--help",): (0, HELP, ""),
    ("verify", "--help"): (0, VERIFY_HELP, ""),
    ("verify", "nosuch"): (2, "", VERIFY_NOSUCH),
    (): (2, "", BARE),
}

RECORDED_ON = (3, 11)


@pytest.mark.parametrize("argv", PINS, ids=lambda a: " ".join(a) or "bare")
def test_parser_output(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = PINS[argv]
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    got = capsys.readouterr()
    assert exc.value.code == code
    assert bool(got.out) == bool(out) and bool(got.err) == bool(err)
    if sys.version_info[:2] == RECORDED_ON:
        assert (got.out, got.err) == (out, err)

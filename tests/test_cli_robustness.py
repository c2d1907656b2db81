"""Every subcommand ends in a documented exit code, never a raw traceback.

Each run goes through ``cli.main`` in-process, at the ``--order 8`` floor
and at legal extremes: a negative ``--kmin``, ``f:-0``, a negative
``--seed``, an ``--output`` file, ``det`` reports whose numbers pass
Python's limit on integer-to-string conversion (4,300 digits by default),
the largest poles, absurd declared weights and a closed stdout; and on
inputs that once raised or hung: JSON nested past the recursion limit, an
exponent that would build a 30-million-digit integer, integer fields past
the float range (JSON's 1e400 reads as inf) or with a fractional part, a
boolean coefficient, a string in place of a list of coefficients, a
generator short of a component, a k range past sys.maxsize, generators whose
coefficient orders combine past 360, and valid representations over
Q(zeta_280) and Q(zeta_35), whose traces lie in smaller fields.
An exception escaping ``main`` would be a traceback, so it fails the test.
"""

import json
import os
import sys

import pytest
from test_replib_oracle import DEFINING, EVEN_2, _conjugated

from vvmf.cli import main
from vvmf.detlab import FormVector, generators_to_record
from vvmf.errors import UsageError
from vvmf.exactfield import CycNumber, root_of_unity
from vvmf.qseries import QSeries
from vvmf.replib import direct_sum, linear_character, multiplicities
from vvmf.scalarforms import FORM_NAMES, eta_squared
from vvmf.suites import SUITE_NAMES
from vvmf.weightcalc import enumerate_weight_multisets

# 2,500 digits: each loads, but a product of two has 5,000.
BIG = 10 ** 2499 + 7


def _write(path, record):
    path.write_text(json.dumps(record))
    return str(path)


@pytest.fixture
def files(tmp_path):
    """Input files by name, and ``out`` for report files."""
    trivial2 = direct_sum(linear_character(0), linear_character(0))
    big, zero = QSeries.constant(BIG, 60), QSeries.zero(60)
    build = 60
    d2, d4 = eta_squared(build) ** 2, eta_squared(build) ** 4
    zero12 = QSeries.zero(12 * build, 12)
    z16, z45 = (QSeries.constant(root_of_unity(n, 1), 60) for n in (16, 45))
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    return {
        "rep": _write(tmp_path / "kappa2.json", linear_character(2).to_record()),
        "sum_rep": _write(tmp_path / "k2k4.json",
                          direct_sum(linear_character(2), linear_character(4)).to_record()),
        "gens": _write(tmp_path / "gens.json", generators_to_record("k2k4", [
            FormVector.make(2, [d2, zero12]), FormVector.make(4, [zero12, d4])])),
        "one_rep": _write(tmp_path / "trivial.json", linear_character(0).to_record()),
        "one_big": _write(tmp_path / "one-big.json", generators_to_record(
            "trivial", [FormVector.make(0, [big])])),
        "big_rep": _write(tmp_path / "trivial2.json", trivial2.to_record()),
        "big_gens": _write(tmp_path / "two-big.json", generators_to_record("trivial2", [
            FormVector.make(0, [big, zero]), FormVector.make(0, [zero, big])])),
        "orders720": _write(tmp_path / "z16-z45.json", generators_to_record("trivial2", [
            FormVector.make(0, [z16, zero]), FormVector.make(0, [zero, z45])])),
        "deep": str(tmp_path / "deep.json"),
        "exponent": _write(tmp_path / "exponent.json", {
            "S": [[{"order": 1, "coeffs": ["1e30000000"]}]],
            "T": [[{"order": 1, "coeffs": ["1"]}]]}),
        "even280": _write(tmp_path / "even280.json", _conjugated(EVEN_2, 280).to_record()),
        "odd35": _write(tmp_path / "odd35.json", _conjugated(DEFINING, 35).to_record()),
        "out": str(tmp_path / "report.out"),
    }


SWEEP = [
    *(["series", name] for name in (*FORM_NAMES, "f:-0", "f:1", "f:-8")),
    ["series", "f:-3", "--format", "json", "--output", "{out}"],
    ["analyze", "{rep}"],
    ["analyze", "{sum_rep}", "--enumerate"],
    ["analyze", "{sum_rep}", "--enumerate", "--kmin", "-5", "--format", "json"],
    ["analyze", "{rep}", "--enumerate", "--sum", "4", "--output", "{out}"],
    *(["verify", suite] for suite in SUITE_NAMES),
    *(["verify", suite, "--seed", "-5", "--format", "json"] for suite in SUITE_NAMES),
    ["det", "{gens}", "{sum_rep}"],
    ["det", "{gens}", "{sum_rep}", "--format", "json", "--output", "{out}"],
    ["det", "{one_big}", "{one_rep}"],
    ["det", "{big_gens}", "{big_rep}"],
    ["det", "{big_gens}", "{big_rep}", "--format", "json"],
    ["det", "{orders720}", "{big_rep}"],
    ["analyze", "{deep}"],
    ["det", "{deep}", "{big_rep}"],
    ["det", "{big_gens}", "{deep}"],
    ["analyze", "{exponent}"],
    ["analyze", "{even280}", "--enumerate"],
    ["analyze", "{odd35}", "--enumerate", "--format", "json"],
]


@pytest.mark.parametrize("argv", SWEEP, ids=" ".join)
def test_no_raw_traceback(argv, files, capsys):
    code = main([a.format(**files) for a in argv] + ["--order", "8"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_over_the_digit_limit_is_usage_error(fmt, files, capsys):
    argv = ["det", files["big_gens"], files["big_rep"], "--order", "8", "--format", fmt]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"more than {sys.get_int_max_str_digits()} digits" in err


def test_numbers_under_the_digit_limit_are_written(files, capsys):
    argv = ["det", files["one_big"], files["one_rep"], "--order", "8", "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["leading_coefficient"] == {"order": 1, "coeffs": [str(BIG)]}


def test_text_and_wire_forms_refuse_numbers_over_the_limit():
    huge = 3 ** 13400  # 6,394 digits
    for value in (CycNumber(1, (huge,)), CycNumber(3, (1, 1), huge),
                  QSeries.from_coeffs([1, huge]),
                  QSeries.from_coeffs([1, CycNumber(4, (0, huge))])):
        for form in (str, lambda v: v.to_record()):
            with pytest.raises(UsageError, match="integer-to-string"):
                form(value)


def test_largest_pole_over_the_digit_limit_is_usage_error(capsys):
    # f:-12270 expands to order 4,100; its largest coefficient has 6,390 digits.
    assert main(["series", "f:-12270", "--order", "8"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"more than {sys.get_int_max_str_digits()} digits" in err


@pytest.fixture
def huge_weights(tmp_path):
    """Generators files whose declared weights are far past any order:
    one of weight 10**30, and a pair of weights +-10**30 that sums to 0."""
    one, zero = QSeries.constant(1, 60), QSeries.zero(60)
    trivial2 = direct_sum(linear_character(0), linear_character(0))
    return {
        "one": (_write(tmp_path / "one.json", generators_to_record(
            "trivial", [FormVector.make(10 ** 30, [one])])),
            _write(tmp_path / "trivial.json", linear_character(0).to_record())),
        "pair": (_write(tmp_path / "pair.json", generators_to_record("trivial2", [
            FormVector.make(10 ** 30, [one, zero]), FormVector.make(-10 ** 30, [zero, one])])),
            _write(tmp_path / "trivial2.json", trivial2.to_record())),
    }


@pytest.mark.parametrize("case,message", [("one", "weights sum to more than 98195"),
                                          ("pair", "f:-5" + "0" * 29 + " expands to order")])
def test_det_refuses_weights_past_the_ceiling(case, message, huge_weights, capsys):
    gens, rep = huge_weights[case]
    assert main(["det", gens, rep, "--order", "8"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_closed_stdout_is_usage_error(tmp_path, monkeypatch, capsys):
    class ClosedPipe:
        """A stdout whose reader has gone; its descriptor is a scratch file."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fh.fileno()

    with open(tmp_path / "stdout", "wb") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fh))
        assert main(["series", "J", "--order", "8", "--format", "json"]) == 2
        # The descriptor now points at devnull: a later flush cannot fail.
        os.write(fh.fileno(), b"dropped")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "stdout was closed" in err
    assert (tmp_path / "stdout").read_bytes() == b""


def _usage_error(argv, capsys) -> str:
    assert main(argv + ["--order", "8"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("argv", [["analyze", "{deep}"], ["det", "{deep}", "{big_rep}"],
                                  ["det", "{big_gens}", "{deep}"]], ids=" ".join)
def test_deep_nesting_is_malformed_input(argv, files, capsys):
    err = _usage_error([a.format(**files) for a in argv], capsys)
    assert f"{files['deep']}: malformed input (RecursionError" in err


def test_exponent_past_the_digit_limit_is_malformed_input(files, capsys):
    err = _usage_error(["analyze", files["exponent"]], capsys)
    assert "malformed input (ValueError: the exponent of '1e30000000'" in err


# Each integer field of an input file, as a path from the record: Python's
# json reads a number past the float range as inf or -inf, which int() refuses
# with OverflowError.
INTEGER_FIELDS = {
    "sum_rep": [("dimension",), ("cyclotomic_order",), ("S", 0, 0, "order")],
    "gens": [("dimension",), ("generators", 0, "weight"),
             *(("generators", 0, "components", 1, key) for key in ("grid", "lead", "valid_to")),
             ("generators", 0, "components", 0, "coeffs", 0, "order")],
}


def _set_field(files, key, field, value, tmp_path):
    """The input file ``key`` with the JSON text ``value`` at ``field``, and
    the runs that read it."""
    with open(files[key], encoding="utf-8") as fh:
        record = json.load(fh)
    node = record
    for step in field[:-1]:
        node = node[step]
    node[field[-1]] = "@"
    path = tmp_path / f"{key}-edited.json"
    path.write_text(json.dumps(record).replace('"@"', value))
    runs = [["det", str(path), files["sum_rep"]]] if key == "gens" else \
        [["analyze", str(path)], ["det", files["gens"], str(path)]]
    return path, runs


@pytest.mark.parametrize("value", ["1e400", "-1e400", "2.5", "true"])
@pytest.mark.parametrize("key,field", [
    pytest.param(key, field, id=f"{key}:{'.'.join(map(str, field))}")
    for key, fields in INTEGER_FIELDS.items() for field in fields])
def test_integers_past_the_float_range_are_malformed_input(key, field, value, files, tmp_path,
                                                            capsys):
    path, runs = _set_field(files, key, field, value, tmp_path)
    # An integer field with a fractional part, or a boolean, is no integer:
    # int() alone reads 2.5 as 2 and true as 1.
    want = "OverflowError: cannot convert float infinity" if value.endswith("e400") else \
        f"ValueError: expected an integer, got {json.loads(value)!r}"
    for argv in runs:
        err = _usage_error(argv, capsys)
        assert f"{path}: malformed input ({want}" in err


# A coefficient of each input file, as a path from the record.
COEFFICIENT_FIELDS = {
    "sum_rep": [("S", 0, 0, "coeffs", 0)],
    "gens": [("generators", 0, "components", 0, "coeffs", 0, "coeffs", 0)],
}


@pytest.mark.parametrize("value", ["true", "false"])
@pytest.mark.parametrize("key,field", [
    pytest.param(key, field, id=f"{key}:{'.'.join(map(str, field))}")
    for key, fields in COEFFICIENT_FIELDS.items() for field in fields])
def test_a_boolean_coefficient_is_malformed_input(key, field, value, files, tmp_path, capsys):
    # A JSON boolean is a Python bool, an int: read as a number, true is 1.
    path, runs = _set_field(files, key, field, value, tmp_path)
    for argv in runs:
        err = _usage_error(argv, capsys)
        assert f"{path}: malformed input (ValueError: expected a rational, " \
            f"got {json.loads(value)!r})" in err


def test_a_string_of_coefficients_is_malformed_input(files, tmp_path, capsys):
    # Read character by character, "0010" would be zeta_12^2 and "12" 1 + 2 zeta_3.
    with open(files["sum_rep"], encoding="utf-8") as fh:
        record = json.load(fh)
    record["T"][0][0]["coeffs"] = "".join(record["T"][0][0]["coeffs"])
    assert record["T"][0][0] == {"order": 12, "coeffs": "0010"}
    path = _write(tmp_path / "string.json", record)
    err = _usage_error(["analyze", path], capsys)
    assert f"{path}: malformed input (ValueError: expected a list of coefficients, " \
        "got a string)" in err
    with pytest.raises(ValueError, match="got a string"):
        CycNumber.from_record({"order": 3, "coeffs": "12"})
    assert CycNumber.from_record({"order": 3, "coeffs": ["1", "2"]}) == \
        1 + 2 * root_of_unity(3, 1)


def test_det_refuses_a_generator_with_the_wrong_component_count(files, tmp_path, capsys):
    with open(files["gens"], encoding="utf-8") as fh:
        record = json.load(fh)
    del record["generators"][1]["components"][0]
    path = _write(tmp_path / "short.json", record)
    err = _usage_error(["det", path, files["sum_rep"]], capsys)
    assert err == "error: generator 2 has 1 components but the representation has dimension 2\n"


def test_a_k_range_past_the_word_size_meets_the_cap(files, capsys):
    # len() of a range longer than sys.maxsize raises OverflowError; the
    # count is taken by arithmetic, so the cap refuses it as any other.
    kmax = 10 ** 20
    err = _usage_error(["analyze", files["sum_rep"], "--enumerate", "--kmax", str(kmax)], capsys)
    assert f"for k in [0, {kmax}], above the cap" in err
    mult = multiplicities(direct_sum(linear_character(2), linear_character(4)))
    with pytest.raises(ValueError, match="above the cap"):
        enumerate_weight_multisets(2, 0, mult, 0, kmax)


def test_det_refuses_orders_that_combine_past_the_bound(files, capsys):
    err = _usage_error(["det", files["orders720"], files["big_rep"]], capsys)
    assert "cyclotomic orders [16, 45] combine to order 720, above the supported bound 360" in err


@pytest.mark.parametrize("key,parity,expected", [("even280", 0, [1, 1, 1]),
                                                 ("odd35", 1, [1, 0, 1])])
def test_traces_are_read_in_their_own_field(key, parity, expected, files, capsys):
    assert main(["analyze", files[key], "--order", "8", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    payload = json.loads(out)
    assert payload["parity"] == parity
    m = payload["multiplicities"]
    assert [m["alpha"], m["beta1"], m["beta2"]] == expected

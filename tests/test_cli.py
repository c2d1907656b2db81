"""Command-line behavior: exit codes, formats, determinism, golden report."""

import ast
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import vvmf
from vvmf import cli
from vvmf.cli import MAX_ORDER, main
from vvmf.detlab import FormVector, generators_to_record
from vvmf.qseries import QSeries
from vvmf.replib import RepSpec, direct_sum, linear_character
from vvmf.scalarforms import eta_squared


@pytest.fixture
def rep_file(tmp_path):
    path = tmp_path / "kappa2.json"
    path.write_text(json.dumps(linear_character(2).to_record()))
    return str(path)


@pytest.fixture
def sum_rep_file(tmp_path):
    rep = direct_sum(linear_character(2), linear_character(4))
    path = tmp_path / "k2k4.json"
    path.write_text(json.dumps(rep.to_record()))
    return str(path)


@pytest.fixture
def gens_file(tmp_path):
    build = 60
    f1 = FormVector.make(2, [eta_squared(build) ** 2, QSeries.zero(12 * build, 12)])
    f2 = FormVector.make(4, [QSeries.zero(12 * build, 12), eta_squared(build) ** 4])
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(generators_to_record("k2k4", [f1, f2])))
    return str(path)


def test_series_text(capsys):
    assert main(["series", "J", "--order", "8"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("q^-1 + 196884*q")


def test_series_json_round_trips(capsys):
    assert main(["series", "delta", "--order", "8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    series = QSeries.from_record(payload["series"])
    assert series.agrees_with(eta_squared(8))


def test_series_f_names(capsys):
    assert main(["series", "f:2", "--order", "8", "--format", "json"]) == 0
    f2 = QSeries.from_record(json.loads(capsys.readouterr().out)["series"])
    assert main(["series", "E4", "--order", "8", "--format", "json"]) == 0
    e4 = QSeries.from_record(json.loads(capsys.readouterr().out)["series"])
    assert f2.agrees_with(e4)


def test_series_unknown_name_is_usage_error(capsys):
    assert main(["series", "bogus"]) == 2
    assert "unknown form name" in capsys.readouterr().err


def test_order_floor_enforced(capsys):
    assert main(["series", "J", "--order", "4"]) == 2


@pytest.mark.parametrize("argv", [
    ["series", "E4", "--order", "100000000"],
    ["verify", "scalar", "--order", "8193"],
    ["series", "f:-100000", "--order", "8"],
    ["series", "f:5", "--order", "8191"],
])
def test_order_ceiling_is_usage_error(argv, capsys):
    """Cost is bounded up front: --order, and the order gen_form expands f:<n>
    to (guard terms and pole included), may not pass MAX_ORDER."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(MAX_ORDER) in err


def test_analyze_report(rep_file, capsys):
    assert main(["analyze", rep_file, "--format", "json", "--enumerate",
                 "--kmin", "0", "--kmax", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 1
    assert payload["parity"] == 0
    assert payload["multiplicities"] == {"alpha": 1, "beta1": 1, "beta2": 0}
    assert payload["weight_congruence_counts"] == {
        "k_odd": 1, "k_mod3_1": 1, "k_mod3_2": 0}
    assert payload["candidate_multisets"] == [
        {"epsilon": 0, "ks": [1], "weights": [2]}]
    assert payload["t_semisimple"] is True


def test_analyze_trivial_with_sum(tmp_path, capsys):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(linear_character(0).to_record()))
    assert main(["analyze", str(path), "--format", "json", "--enumerate",
                 "--sum", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["candidate_multisets"] == [
        {"epsilon": 0, "ks": [0], "weights": [0]}]


def test_analyze_invalid_rep(tmp_path, capsys):
    bad = {"name": "bad", "dimension": 1,
           "S": [[{"order": 1, "coeffs": ["1"]}]],
           "T": [[{"order": 1, "coeffs": ["2"]}]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["analyze", str(path)]) == 1
    assert "rho(S) rho(T)^-1" in capsys.readouterr().err


def test_analyze_golden_report(rep_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", rep_file, "--format", "json",
                 "--output", str(out)]) == 0
    golden = {
        "schema_version": 1,
        "name": "kappa^2",
        "dimension": 1,
        "parity": 0,
        "t_semisimple": True,
        "traces": {
            "S": {"order": 1, "coeffs": ["-1"]},
            "U": {"order": 12, "coeffs": ["-1", "0", "1", "0"]},
            "U_inv": {"order": 12, "coeffs": ["0", "0", "-1", "0"]},
        },
        "multiplicities": {"alpha": 1, "beta1": 1, "beta2": 0},
        "weight_congruence_counts": {"k_odd": 1, "k_mod3_1": 1, "k_mod3_2": 0},
        "hilbert_values": {
            "at_minus_i": {"order": 1, "coeffs": ["-1"]},
            "at_zeta": {"order": 12, "coeffs": ["0", "0", "-1", "0"]},
            "at_zeta_inv": {"order": 12, "coeffs": ["-1", "0", "1", "0"]},
        },
    }
    assert json.loads(out.read_text()) == golden


def test_analyze_deterministic_bytes(rep_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["analyze", rep_file, "--format", "json", "--output", str(out1),
          "--enumerate"])
    main(["analyze", rep_file, "--format", "json", "--output", str(out2),
          "--enumerate"])
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_pass_and_summary(capsys):
    assert main(["verify", "kappa", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] == 0
    assert payload["total"] == 14
    assert payload["suite"] == "kappa"


def test_verify_counting_seeded(capsys):
    assert main(["verify", "counting", "--seed", "7", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 500 and payload["failed"] == 0
    assert payload["seed"] == 7


def test_verify_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "counting", "--seed", "3", "--format", "json",
          "--output", str(out1)])
    main(["verify", "counting", "--seed", "3", "--format", "json",
          "--output", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_text_lines(capsys):
    assert main(["verify", "kappa"]) == 0
    out = capsys.readouterr().out
    assert "PASS tower-00" in out
    assert out.strip().endswith("14/14 passed")


def test_det_command(gens_file, sum_rep_file, capsys):
    assert main(["det", gens_file, sum_rep_file, "--order", "24",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["determinant_identity"] is True
    assert payload["weight_sum"] == 6
    assert payload["det_zero_match"] is True
    assert payload["leading_coefficient"] == {"order": 1, "coeffs": ["1"]}


def test_det_singular_exits_3(tmp_path, sum_rep_file, capsys):
    build = 60
    f1 = FormVector.make(2, [eta_squared(build) ** 2, QSeries.zero(12 * build, 12)])
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(generators_to_record("dup", [f1, f1])))
    assert main(["det", str(path), sum_rep_file, "--order", "24"]) == 3


def test_det_short_window_on_a_fine_grid(tmp_path, capsys):
    """1 + O(q^(3/7)) keeps its constant term through the normal form."""
    one = {"order": 1, "coeffs": ["1"]}
    zero = {"order": 1, "coeffs": ["0"]}
    comp = {"grid": 7, "lead": 0, "valid_to": 3, "coeffs": [one, zero, zero]}
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"rep_name": "trivial", "dimension": 1, "generators": [
        {"weight": 0, "components": [comp]}]}))
    rep = tmp_path / "trivial.json"
    rep.write_text(json.dumps(linear_character(0).to_record()))
    assert main(["det", str(gens), str(rep), "--order", "8"]) == 0
    assert "K = 1: ok" in capsys.readouterr().out


def test_det_misdeclared_weights_fail(tmp_path, sum_rep_file, capsys):
    build = 60
    f1 = FormVector.make(4, [eta_squared(build) ** 2, QSeries.zero(12 * build, 12)])
    f2 = FormVector.make(4, [QSeries.zero(12 * build, 12), eta_squared(build) ** 4])
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(generators_to_record("wrong", [f1, f2])))
    assert main(["det", str(path), sum_rep_file, "--order", "24"]) == 1


def test_missing_file_is_usage_error(capsys):
    assert main(["analyze", "/nonexistent/rep.json"]) == 2


@pytest.fixture
def malformed_dir(tmp_path):
    rep = linear_character(2).to_record()
    zero = json.loads(json.dumps(rep))
    zero["S"][0][0]["coeffs"] = ["1/0"]
    no_t = {k: v for k, v in rep.items() if k != "T"}
    files = {"syntax": "{bad", "zero-denominator": json.dumps(zero),
             "missing-T": json.dumps(no_t), "no-generators": "{}"}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
    (tmp_path / "directory.json").mkdir()
    return tmp_path


@pytest.mark.parametrize("command,bad", [
    ("analyze", "syntax"), ("analyze", "zero-denominator"),
    ("analyze", "missing-T"), ("analyze", "directory"),
    ("det-rep", "zero-denominator"), ("det-gens", "syntax"),
    ("det-gens", "no-generators"), ("det-gens", "directory"),
])
def test_malformed_input_is_usage_error(command, bad, malformed_dir, gens_file,
                                        sum_rep_file, capsys):
    path = str(malformed_dir / f"{bad}.json")
    argv = {"analyze": ["analyze", path],
            "det-rep": ["det", gens_file, path],
            "det-gens": ["det", path, sum_rep_file]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and path in err
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_output_is_usage_error(where, tmp_path, capsys):
    path = str(tmp_path if where == "directory" else tmp_path / "absent" / "out.txt")
    assert main(["series", "J", "--order", "8", "--output", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and path in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_enumerate_empty_k_range_is_usage_error(rep_file, capsys):
    assert main(["analyze", rep_file, "--enumerate", "--kmin", "5", "--kmax", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("js, kmax", [((2,), 6 * 500_000 + 1),
                                       ((0, 0, 0, 2, 4, 6, 8, 10), 30)])
def test_enumerate_over_the_cap_is_usage_error(js, kmax, tmp_path, capsys):
    # kappa^2 has one k = 1 mod 6, so [0, 3000001] holds 500,001 candidates;
    # the d = 8 sum has 679,000 with k <= 30.  Both are refused up front.
    rep = linear_character(js[0])
    for j in js[1:]:
        rep = direct_sum(rep, linear_character(j))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep.to_record()))
    assert main(["analyze", str(path), "--enumerate", "--kmax", str(kmax)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "above the cap 500000" in err and "Traceback" not in err


def test_wide_range_costs_memory_by_what_is_printed(rep_file, capsys):
    # kappa^2 over [0, 2900000]: 483,334 candidates, under the cap, and one
    # of them has total weight 2000006.  Nothing held grows with the range.
    tracemalloc.start()
    try:
        code = main(["analyze", rep_file, "--enumerate", "--kmax", "2900000",
                     "--sum", "2000006"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("  k = ")] == \
        ["  k = [1000003]  ->  weights [2000006]"]
    assert peak < 2 << 20


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_negative_kmin(fmt, sum_rep_file, capsys):
    # kappa^2 + kappa^4 needs one k in each of the classes 1, 2 mod 6 or
    # 4, 5 mod 6; over [-7, 4] only two such pairs have total weight >= 0.
    assert main(["analyze", sum_rep_file, "--enumerate", "--kmin", "-7",
                 "--kmax", "4", "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out)["candidate_multisets"] == [
            {"epsilon": 0, "ks": [-1, 4], "weights": [-2, 8]},
            {"epsilon": 0, "ks": [1, 2], "weights": [2, 4]}]
    else:
        assert out.endswith("candidate weight multisets (k in [-7, 4]):\n"
                            "  k = [-1, 4]  ->  weights [-2, 8]\n"
                            "  k = [1, 2]  ->  weights [2, 4]\n")


def test_large_json_report_is_written_whole(rep_file, capsys):
    # 16,667 candidates encode to several blocks of encoder chunks.
    assert main(["analyze", rep_file, "--enumerate", "--kmax", "100000",
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert len(payload["candidate_multisets"]) == 16_667
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("extra, count", [(["--kmax", "40"], 490), (["--kmax", "0"], 0),
                                          (["--kmax", "40", "--sum", "34"], 7)],
                         ids=["candidates", "none", "sum"])
def test_candidate_json_is_the_encoders_layout(tmp_path, monkeypatch, capsys, extra, count):
    # The hand-laid candidate list against the encoder's own text for the
    # payload _emit was given, its candidates as dict rows built from the
    # walk's k tuples; no candidates are the encoder's [].
    rep = direct_sum(direct_sum(linear_character(2), linear_character(4)), linear_character(4))
    path = tmp_path / "k2k4k4.json"
    path.write_text(json.dumps(rep.to_record()))
    payloads, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda args, payload, lines:
                        emit(args, payloads.append(payload) or payload, lines))
    assert main(["analyze", str(path), "--format", "json", "--enumerate", *extra]) == 0
    [payload] = payloads
    rows = payload["candidate_multisets"]
    if count:
        assert isinstance(rows, cli._Candidates) and len(rows.ks) == count
        eps = rows.epsilon
        rows = [{"epsilon": eps, "ks": list(ks), "weights": [2 * k + eps for k in ks]}
                for ks in rows.ks]
    else:
        assert rows == []
    expected = json.JSONEncoder(sort_keys=True, indent=2).encode(
        {**payload, "candidate_multisets": rows}) + "\n"
    assert capsys.readouterr().out == expected


def test_candidate_json_blocks_match_the_encoder():
    # Empty and negative entries, and more rows than one block holds.
    rows = [{"epsilon": i % 2, "ks": list(range(-1, i % 4 - 1)),
             "weights": [2 * k + i % 2 for k in range(-1, i % 4 - 1)]}
            for i in range(cli.TEXT_BLOCK_LINES + 3)]
    payload = {"a": [1, {"b": None}], "candidate_multisets": rows, "name": 'x"y'}
    expected = json.JSONEncoder(sort_keys=True, indent=2).encode(payload)
    assert "".join(cli._json_blocks(payload)) == expected


def test_analyze_computes_the_traces_once(sum_rep_file, monkeypatch, capsys):
    # One traces() call, read by the weight profile, evaluates rho(U) once.
    calls = []
    u = RepSpec.u
    monkeypatch.setattr(RepSpec, "u", lambda self: calls.append(1) or u(self))
    assert main(["analyze", sum_rep_file, "--enumerate"]) == 0
    assert len(calls) == 1


def test_k_range_is_ignored_without_enumerate(rep_file, capsys):
    assert main(["analyze", rep_file, "--kmin", "5", "--kmax", "1"]) == 0
    assert capsys.readouterr().out.startswith("representation kappa^2")


def test_no_assert_statements_in_package():
    """Checks must survive python -O, which strips assert statements."""
    found = []
    for path in sorted(Path(vvmf.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize("suite", ["scalar", "det", "kappa", "sums"])
def test_optimized_run_prints_the_same_report(suite):
    env = dict(os.environ, PYTHONPATH=str(Path(vvmf.__file__).parent.parent))
    argv = ["-m", "vvmf.cli", "verify", suite, "--order", "8"]
    plain = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                           text=True, timeout=300)
    optimized = subprocess.run([sys.executable, "-O", *argv], env=env,
                               capture_output=True, text=True, timeout=300)
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout and optimized.stdout == plain.stdout


@pytest.mark.parametrize("grid", [0, -6])
def test_non_positive_grid_is_usage_error(grid, tmp_path, capsys):
    one = {"order": 1, "coeffs": ["1"]}
    comp = {"grid": grid, "lead": 0, "valid_to": 3, "coeffs": [one, one, one]}
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"rep_name": "trivial", "dimension": 1, "generators": [
        {"weight": 0, "components": [comp]}]}))
    rep = tmp_path / "trivial.json"
    rep.write_text(json.dumps(linear_character(0).to_record()))
    assert main(["det", str(gens), str(rep), "--order", "8"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and str(gens) in err
    assert err.count("\n") == 1 and "grid" in err and "Traceback" not in err


class _CountingWriter:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_text_report_in_blocks_equals_one_string(rep_file, monkeypatch, capsys):
    # 16,667 candidate lines: several blocks of TEXT_BLOCK_LINES lines each.
    argv = ["analyze", rep_file, "--enumerate", "--kmax", "100000"]
    assert main(argv) == 0
    whole = capsys.readouterr().out
    lines = whole.split("\n")[:-1]
    assert len(lines) > 2 * cli.TEXT_BLOCK_LINES and lines[-1].startswith("  k = ")
    for block in (cli.TEXT_BLOCK_LINES, 1000, 7, 1):
        monkeypatch.setattr(cli, "TEXT_BLOCK_LINES", block)
        writer = _CountingWriter()
        monkeypatch.setattr(sys, "stdout", writer)
        assert main(argv) == 0
        monkeypatch.undo()
        assert "".join(writer.writes) == whole == "\n".join(lines) + "\n"
        assert len(writer.writes) == -(-len(lines) // block)

"""Each correctness checker accepts a good report and rejects corrupted ones."""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import inputs
from inputs import CYCLO_MS
from vvmf.cli import main


def test_suite_checker_rejects_corruption():
    check = checks.suite_checker("det-suite")
    good = (checks.REFERENCE_DIR / "det-suite.txt").read_text()
    assert check(0, good) == []
    assert check(1, good)
    assert check(0, good.replace("PASS base-3", "FAIL base-3", 1))
    assert check(0, good.replace("126/126", "125/126"))
    assert check(0, good + " ")
    assert check(0, "")


def _cyclo_report(k="1", verdicts=("ok", "ok", "ok")):
    total = 2 * sum(CYCLO_MS)
    return "\n".join([
        "generators of rep: weights [0, 2, 4, 6, 8]",
        f"exterior product = K * delta^{total} with K = {k}: {verdicts[0]}",
        f"weight sum {total} >= 0: {verdicts[1]}",
        f"weight-0 determinant vs multiplicity formula: {verdicts[2]}",
    ]) + "\n"


def test_cyclo_det_checker_rejects_corruption():
    assert checks.check_cyclo_det(0, _cyclo_report()) == []
    assert checks.check_cyclo_det(1, _cyclo_report())
    assert checks.check_cyclo_det(0, _cyclo_report(k="2"))
    assert checks.check_cyclo_det(0, _cyclo_report(verdicts=("ok", "ok", "MISMATCH")))
    assert checks.check_cyclo_det(0, "\n".join(_cyclo_report().splitlines()[:3]))


@pytest.fixture(scope="module")
def enum_report():
    """The real enumerate report for seed 5 (about ten seconds)."""
    record = inputs.enumerate_input(5)
    with tempfile.TemporaryDirectory() as tmp:
        rep = Path(tmp) / "rep.json"
        rep.write_text(json.dumps(record))
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["analyze", str(rep), "--enumerate", "--kmax", str(checks.ENUM_KMAX)])
    assert code == 0
    return out.getvalue()


def test_enumerate_checker_rejects_corruption(enum_report):
    good = enum_report
    lines = good.splitlines(keepends=True)
    assert checks.check_enumerate(0, good) == []
    assert checks.check_enumerate(2, good)
    assert checks.check_enumerate(0, good.replace("alpha=3", "alpha=4", 1))
    # One candidate dropped, one duplicated, one weight list altered.
    assert checks.check_enumerate(0, "".join(lines[:-1]))
    assert checks.check_enumerate(0, good + lines[-1])
    assert checks.check_enumerate(0, good.replace("weights [36, 36", "weights [36, 38", 1))
    assert checks.check_enumerate(0, "")

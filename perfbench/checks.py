"""Correctness checks for one CLI invocation of each workload.

Each checker takes the exit code and the report text and returns a list of
problems; an empty list means the run is correct.  A run with any problem
counts as failed.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

from inputs import CYCLO_MS

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ENUM_KMAX = 23
# The enumerate report for inputs.ENUM_JS, recorded at the commit that
# introduced the benchmark: multiplicities (alpha, beta1, beta2), the
# number of candidate weight multisets, and the sha256 of every line after
# the first.  Only the first line (the representation's name) depends on
# the seed; traces and candidates follow from the fixed character sum.
ENUM_MULT = (3, 2, 2)
ENUM_CANDIDATES = 87680
ENUM_BODY_SHA256 = "46eecae1309a675a99a64d4317e39759ac58a06e7890c5aa2d6067769d425913"


def suite_checker(name: str):
    """Exit 0, every case PASS, and the report byte-identical to the one
    recorded in ``reference/<name>.txt``."""
    reference = (REFERENCE_DIR / f"{name}.txt").read_text(encoding="utf-8")

    def check(code: int, report: str) -> list[str]:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        lines = report.splitlines()
        cases = lines[:-1]
        if not cases or any(not line.startswith("PASS ") for line in cases):
            problems.append("not every case line reads PASS")
        if not lines or not re.fullmatch(r"suite \S+: (\d+)/\1 passed", lines[-1]):
            problems.append("summary line does not report every case passed")
        if report != reference:
            problems.append(f"report differs from reference/{name}.txt")
        return problems

    return check


def check_cyclo_det(code: int, report: str) -> list[str]:
    """Exit 0, all three checks ok, and K = 1 since det P = 1."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    lines = report.splitlines()
    checks = [line for line in lines[1:] if line.rsplit(": ", 1)[-1] in ("ok", "MISMATCH", "VIOLATED")]
    if len(checks) != 3 or any(not line.endswith(": ok") for line in checks):
        problems.append("expected exactly three checks, all ok")
    total = sum(2 * m for m in CYCLO_MS)
    expected = f"exterior product = K * delta^{total} with K = 1: ok"
    if expected not in lines:
        problems.append(f"missing line {expected!r}")
    return problems


def check_enumerate(code: int, report: str) -> list[str]:
    """Exit 0, the multiplicities of the fixed character sum, the recorded
    candidate count, and every line after the first as recorded."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    lines = report.splitlines()
    if not lines or not re.fullmatch(r"representation \S+: dimension 8, parity 0", lines[0]):
        problems.append("first line does not name a dimension-8 representation")
    alpha, beta1, beta2 = ENUM_MULT
    if f"multiplicities: alpha={alpha} beta1={beta1} beta2={beta2}" not in lines:
        problems.append(f"multiplicities differ from {ENUM_MULT}")
    found = sum(line.startswith("  k = [") for line in lines)
    if found != ENUM_CANDIDATES:
        problems.append(f"{found} candidates, expected {ENUM_CANDIDATES}")
    body = hashlib.sha256("\n".join(lines[1:]).encode("utf-8")).hexdigest()
    if body != ENUM_BODY_SHA256:
        problems.append("report after the first line differs from the recorded one")
    return problems

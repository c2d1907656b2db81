"""The det and sums suites against the bodies they had before they shared
their operands.

``oracle_det_suite`` (with ``oracle_delta_power``) and ``oracle_sums_suite``
below are ``suites._det_suite``, ``suites._delta_power`` and
``suites._sums_suite`` as they were when every case built its own
characters, det_zero right-hand sides, eta_squared powers, delta powers and
character multiplicities.  They are kept verbatim.  ``run_suite`` must give
the same cases, id, verdict and detail, as these at several orders and
seeds; and a run must not depend on what ran before it in the process,
since the shared operands live only for one run.
"""

import random

import pytest

from vvmf.detlab import (FormVector, check_generator_determinant, det_n, det_zero,
                         exterior_product, weak_generating_set)
from vvmf.errors import PrecisionError
from vvmf.qseries import QSeries
from vvmf.replib import Multiplicities, direct_sum, linear_character, multiplicities
from vvmf.scalarforms import eta_squared
from vvmf.suites import CaseResult, _case, run_suite
from vvmf.weightcalc import WeightMultiset, check_hilbert_poly, enumerate_weight_multisets


def oracle_sums_suite(order: int, seed: int) -> list[CaseResult]:
    rng = random.Random(seed)
    cases = []
    for i in range(100):
        d = rng.randint(1, 6)
        eps = rng.randint(0, 1)
        js = sorted(2 * rng.randint(0, 5) + eps for _ in range(d))
        parts = [linear_character(j) for j in js]
        rep = parts[0]
        for part in parts[1:]:
            rep = direct_sum(rep, part)
        ws = WeightMultiset(eps, tuple(j // 2 for j in js))
        check = check_hilbert_poly(ws, rep)
        total = Multiplicities(0, 0, 0)
        for part in parts:
            total = total + multiplicities(part)
        mult = multiplicities(rep)
        additive = mult == total
        found = ws in enumerate_weight_multisets(d, eps, mult, 0, 5, sum_w=ws.weight_sum())
        cases.append(_case(
            f"case-{i:03d}", check.passed and additive and found,
            f"js={js}: hilbert={check.passed}, additive={additive}, "
            f"enumerated={found}"))
    return cases


def oracle_det_suite(order: int, seed: int) -> list[CaseResult]:
    cases = []
    build = order + 2 + 2  # margin for the weight-shifted generators
    for m in range(6):
        rep = linear_character(2 * m)
        gen = FormVector.make(
            2 * m,
            [eta_squared(build + m) ** (2 * m) if m else QSeries.constant(1, build)])
        wg = weak_generating_set([gen], [m], 0, build)
        try:
            ext = exterior_product(wg)
            ok = det_zero(rep, order).agrees_with(ext.normalized)
            cases.append(_case(f"base-{m}", ok,
                               f"multiplicity formula vs generators at m={m}"))
        except PrecisionError as exc:
            cases.append(_case(f"base-{m}", False, str(exc)))
    for j in range(12):
        for n in range(-6, 7):
            if (n - j) % 2 != 0:
                continue
            lhs = det_n(linear_character(j), n, order)
            rhs = eta_squared(order + 2 + abs(n) // 12) ** n if n else \
                QSeries.constant(1, order)
            rhs = rhs * det_zero(linear_character((j - n) % 12), order + 1)
            cases.append(_case(
                f"shift-{j:02d}-{n + 6:02d}", lhs.agrees_with(rhs),
                f"weight-shift identity fails at j={j}, n={n}"))
    for a in range(12):
        for b in range(a, 12):
            if (a - b) % 2 != 0:
                continue
            f1 = FormVector.make(a, [oracle_delta_power(a, build), QSeries.zero(12 * build, 12)])
            f2 = FormVector.make(b, [QSeries.zero(12 * build, 12), oracle_delta_power(b, build)])
            report = check_generator_determinant([f1, f2], [a, b], order)
            ok = report.passed and report.leading_coefficient == 1 \
                and report.weight_sum == a + b
            cases.append(_case(f"genpair-{a:02d}-{b:02d}", ok,
                               f"diagonal generators fail at a={a}, b={b}"))
    return cases


def oracle_delta_power(k: int, order: int) -> QSeries:
    return eta_squared(order) ** k if k else QSeries.constant(1, order)


def oracle_cases(runner, order, seed):
    return sorted(runner(order, seed), key=lambda c: c.case_id)


@pytest.mark.parametrize("order", [8, 16, 32])
def test_det_suite_against_the_unshared_oracle(order):
    got = run_suite("det", order)
    assert list(got.cases) == oracle_cases(oracle_det_suite, order, 0)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_sums_suite_against_the_unshared_oracle(seed):
    got = run_suite("sums", 32, seed)
    assert list(got.cases) == oracle_cases(oracle_sums_suite, 32, seed)


def test_det_suite_keeps_no_state_between_runs():
    first = run_suite("det", 16).to_record()
    assert run_suite("det", 16).to_record() == first
    run_suite("sums", 32, 1)
    assert run_suite("det", 16).to_record() == first

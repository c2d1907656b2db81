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

``oracle_scalar_suite`` is ``suites._scalar_suite`` as it was when every
generator-product pair (n, m) built its own right side f_(n+m) *
(J+744)^s3 * (J-984)^s2 through ``verify_gen_product``, kept verbatim.  The
suite now builds each right side once per total n + m and carries.  The two
must give the same cases, the same exception at orders too low to compare,
and fail the same cases when one generator is corrupted: a shared side may
neither hide a failure nor spread one to another total.  The suite's count
of series products is pinned, so that rebuilding right sides per pair fails.
"""

import random

import pytest

from vvmf import scalarforms
from vvmf.detlab import (FormVector, check_generator_determinant, det_n, det_zero,
                         exterior_product, weak_generating_set)
from vvmf.errors import PrecisionError
from vvmf.qseries import QSeries
from vvmf.replib import Multiplicities, direct_sum, linear_character, multiplicities
from vvmf.scalarforms import (discriminant, eisenstein, eta_squared, gen_form,
                              hauptmodul, remainder_carry, remainders,
                              verify_gen_product)
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


def oracle_scalar_suite(order: int, seed: int) -> list[CaseResult]:
    cases = []
    e4 = eisenstein(4, order)
    e6 = eisenstein(6, order)
    delta_big = discriminant(order)  # construction cross-checks both pipelines
    cases.append(_case("01-discriminant-1728",
                       (e4 ** 3 - e6 ** 2).agrees_with(delta_big * 1728)))
    cases.append(_case("02-discriminant-pipelines",
                       ((e4 ** 3 - e6 ** 2) / 1728).agrees_with(delta_big)))
    cases.append(_case("03-eta-squared-12th-power",
                       (eta_squared(order) ** 12).agrees_with(delta_big)))
    j = hauptmodul(order)
    cases.append(_case(
        "04-hauptmodul-coefficients",
        j.coefficient(-1) == 1 and j.coefficient(0) == 0
        and j.coefficient(1) == 196884,
        f"got {j.coefficient(-1)}, {j.coefficient(0)}, {j.coefficient(1)}"))
    cases.append(_case("05-hauptmodul-plus-744",
                       (e4 ** 3 / delta_big).agrees_with(j + 744)))
    cases.append(_case("06-hauptmodul-minus-984",
                       (e6 ** 2 / delta_big).agrees_with(j - 984)))
    for n in range(-8, 9):
        for m in range(n, 9):
            ok = verify_gen_product(n, m, order)  # symmetric in n and m
            for a, b in {(n, m), (m, n)}:
                cases.append(_case(
                    f"07-genprod-{a + 8:02d}-{b + 8:02d}", ok,
                    f"f_n*f_m/f_(n+m) identity fails at n={a}, m={b}"))
    for k in (2, 3):
        bad = next(
            ((n, m) for n in range(-8, 9) for m in range(-8, 9)
             if ((-n) % k) + ((-m) % k) - ((-(n + m)) % k) != k * remainder_carry(n, m, k)),
            None)
        cases.append(_case(f"08-remainder-carry-mod{k}", bad is None,
                           f"remainder addition fails at (n, m) = {bad}"))
    bad = next((n for n in range(-48, 49)
                if 4 * remainders(n).r3 + 6 * remainders(n).r2
                + 12 * remainders(n).r_inf != 2 * n), None)
    cases.append(_case("09-remainder-weights", bad is None,
                       f"weight bookkeeping fails at n = {bad}"))
    return cases


CACHED = ("eisenstein", "discriminant", "eta_squared", "hauptmodul", "gen_form")


@pytest.fixture
def cleared_caches(monkeypatch):
    """The scalarforms caches, empty before the test and after it."""
    cached = [getattr(scalarforms, name) for name in CACHED]

    def clear():
        for constructor in cached:
            constructor.cache_clear()

    clear()
    monkeypatch.setattr(scalarforms, "_EULER_POWERS", {})
    yield
    clear()


def _suite_outcome(route, order):
    """The sorted cases of a route, or the type and message it raises."""
    try:
        return route(order)
    except Exception as exc:  # the types and messages are compared
        return type(exc), str(exc)


def _grouped(order):
    return list(run_suite("scalar", order).cases)


def _ungrouped(order):
    return oracle_cases(oracle_scalar_suite, order, 0)


@pytest.mark.parametrize("order", [8, 16, 33, 64])
def test_scalar_suite_against_the_per_pair_oracle(order):
    got = _grouped(order)
    assert got == _ungrouped(order)
    assert sum(c.case_id.startswith("07-genprod-") for c in got) == 289


@pytest.mark.parametrize("order", range(1, 8))
def test_scalar_suite_below_the_floor_matches_the_oracle(order):
    got = _suite_outcome(_grouped, order)
    assert got == _suite_outcome(_ungrouped, order)
    assert isinstance(got, list) or got[0] is PrecisionError


@pytest.mark.parametrize("bad, offset", [(-8, 1), (-3, 2), (0, 3), (5, 7), (8, 12)])
def test_scalar_suite_with_a_corrupted_generator_fails_as_the_oracle(
        bad, offset, cleared_caches, monkeypatch):
    """f_bad off by one ``offset`` steps past its lead, inside the order-16
    window: both routes fail the same genprod cases, and only cases whose
    pair or total is bad."""
    order, exact = 16, gen_form

    def corrupted(n, order):
        f = exact(n, order)
        if n != bad:
            return f
        return f + QSeries.from_coeffs([1], lead=f.lead + offset, valid_to=f.valid_to)

    monkeypatch.setattr(scalarforms, "gen_form", corrupted)
    got = _grouped(order)
    assert got == _ungrouped(order)
    failed = {c.case_id for c in got if not c.passed}
    assert failed
    for case_id in failed:
        n, m = (int(x) - 8 for x in case_id.split("-")[2:])
        assert bad in (n, m, n + m), case_id


def test_scalar_suite_multiplies_each_right_side_once(cleared_caches, monkeypatch):
    # 320 products while every pair built its own right side.
    calls = []
    mul = QSeries.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counted)
    run_suite("scalar", 64)
    assert len(calls) == 271

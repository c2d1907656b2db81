"""Named verification suites driven by the command line.

Each suite runs a fixed list of exact identity checks and returns one result
per case.  Case ids are canonical and sorted, so reports are byte-identical
for identical inputs and seed.
"""

from __future__ import annotations

import random

from . import SUITE_NAMES
from .errors import ConsistencyError, PrecisionError
from .exactfield import _Record

# Each suite imports the modules it runs, so that ``verify scalar`` loads no
# representation, weight or determinant code.


class CaseResult(_Record):
    """One case: its id, whether it passed, and what failed if it did not."""

    __slots__ = ("case_id", "passed", "detail")

    def __init__(self, case_id: str, passed: bool, detail: str = ""):
        super().__init__(case_id, passed, detail)


class SuiteResult(_Record):
    """A suite's name, order and seed, and its cases, a tuple of CaseResult."""

    __slots__ = ("suite", "order", "seed", "cases")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def first_failure(self) -> CaseResult | None:
        return next((c for c in self.cases if not c.passed), None)

    def to_record(self) -> dict:
        return {
            "schema_version": 1,
            "suite": self.suite,
            "order": self.order,
            "seed": self.seed,
            "total": len(self.cases),
            "failed": sum(1 for c in self.cases if not c.passed),
            "cases": [
                {"id": c.case_id, "passed": c.passed, "detail": c.detail}
                for c in self.cases
            ],
        }


def run_suite(name: str, order: int = 128, seed: int = 0) -> SuiteResult:
    try:
        runner = _SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    cases = sorted(runner(order, seed), key=lambda c: c.case_id)
    return SuiteResult(name, order, seed, tuple(cases))


def _case(case_id: str, ok: bool, detail: str = "") -> CaseResult:
    return CaseResult(case_id, bool(ok), detail)


def _scalar_suite(order: int, seed: int) -> list[CaseResult]:
    from .scalarforms import (_verify_gen_product, discriminant, eisenstein, eta_squared,
                              hauptmodul, remainder_carry, remainders)

    cases = []
    e4 = eisenstein(4, order)
    e6 = eisenstein(6, order)
    e4_cubed, e6_squared = e4 ** 3, e6 ** 2
    eisenstein_side = e4_cubed - e6_squared
    delta_big = discriminant(order)  # construction cross-checks both pipelines
    cases.append(_case("01-discriminant-1728",
                       eisenstein_side.agrees_with(delta_big * 1728)))
    cases.append(_case("02-discriminant-pipelines",
                       (eisenstein_side / 1728).agrees_with(delta_big)))
    cases.append(_case("03-eta-squared-12th-power",
                       (eta_squared(order) ** 12).agrees_with(delta_big)))
    j = hauptmodul(order)
    cases.append(_case(
        "04-hauptmodul-coefficients",
        j.coefficient(-1) == 1 and j.coefficient(0) == 0
        and j.coefficient(1) == 196884,
        f"got {j.coefficient(-1)}, {j.coefficient(0)}, {j.coefficient(1)}"))
    cases.append(_case("05-hauptmodul-plus-744",
                       (e4_cubed / delta_big).agrees_with(j + 744)))
    cases.append(_case("06-hauptmodul-minus-984",
                       (e6_squared / delta_big).agrees_with(j - 984)))
    # Freed before the generator products: held through them, the three
    # series raised the suite's peak resident memory by about 0.07 MiB.
    del e4_cubed, e6_squared, eisenstein_side
    for t in range(-16, 17):  # the right sides of one total n + m are shared
        sides = {}
        for n in range(max(-8, t - 8), t // 2 + 1):
            m = t - n
            ok = _verify_gen_product(n, m, order, sides)  # symmetric in n and m
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


def _counting_suite(order: int, seed: int) -> list[CaseResult]:
    from .scalarforms import count_congruent

    rng = random.Random(seed)
    cases = []
    for i in range(500):
        size = rng.randint(0, 40)
        xs = rng.sample(range(-50, 51), size)
        k = rng.randint(2, 7)
        p = rng.randint(1, k - 1)
        try:
            count_congruent(xs, k, p)
            cases.append(_case(f"case-{i:03d}", True))
        except ConsistencyError as exc:
            cases.append(_case(f"case-{i:03d}", False,
                               f"{exc} for X={sorted(xs)}"))
    return cases


def _kappa_suite(order: int, seed: int) -> list[CaseResult]:
    from .replib import linear_character
    from .weightcalc import WeightMultiset, check_hilbert_poly, dimension_series

    cases = []
    for j in range(12):
        # The counts of the one weight k = j // 2 are the character's pattern.
        check = check_hilbert_poly(WeightMultiset(j % 2, (j // 2,)), linear_character(j))
        counts_ok = check.count_odd and check.count_mod3_1 and check.count_mod3_2
        cases.append(_case(
            f"tower-{j:02d}", check.passed,
            f"fundamental weight {j}: counts_ok={counts_ok}, "
            f"values=({check.value_at_minus_i}, {check.value_at_zeta}, "
            f"{check.value_at_zeta_inv})"))
    cases.append(_case(
        "dims-even-base",
        dimension_series(WeightMultiset(0, (0,)), 12)
        == [1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2],
        "graded dimensions of the scalar ring are off"))
    cases.append(_case(
        "dims-odd-shift",
        dimension_series(WeightMultiset(1, (0,)), 13)
        == [0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2],
        "weight-shifted graded dimensions are off"))
    return cases


def _sums_suite(order: int, seed: int) -> list[CaseResult]:
    from .replib import Multiplicities, direct_sum, linear_character, multiplicities
    from .weightcalc import (WeightMultiset, _hilbert_check, enumerate_weight_multisets,
                             weight_profile)

    rng = random.Random(seed)
    chars = [linear_character(j) for j in range(12)]
    char_mults = [multiplicities(c) for c in chars]
    cases = []
    for i in range(100):
        d = rng.randint(1, 6)
        eps = rng.randint(0, 1)
        js = sorted(2 * rng.randint(0, 5) + eps for _ in range(d))
        parts = [chars[j] for j in js]
        rep = parts[0]
        for part in parts[1:]:
            rep = direct_sum(rep, part)
        ws = WeightMultiset(eps, tuple(j // 2 for j in js))
        profile = weight_profile(rep)
        check = _hilbert_check(ws, profile)
        mult = Multiplicities(profile.count_k_odd, profile.count_k_mod3_1,
                              profile.count_k_mod3_2)
        additive = mult == sum((char_mults[j] for j in js), Multiplicities(0, 0, 0))
        found = ws in enumerate_weight_multisets(d, eps, mult, 0, 5, sum_w=ws.weight_sum())
        cases.append(_case(
            f"case-{i:03d}", check.passed and additive and found,
            f"js={js}: hilbert={check.passed}, additive={additive}, "
            f"enumerated={found}"))
    return cases


def _det_suite(order: int, seed: int) -> list[CaseResult]:
    from .detlab import (FormVector, check_generator_determinant, det_n, det_zero,
                         exterior_product, shifted_exterior_product)
    from .qseries import QSeries
    from .replib import linear_character
    from .scalarforms import eta_squared

    # Operands that several cases share are built once per run; every case
    # still makes its own comparison.
    cases = []
    build = order + 2 + 2  # margin for the weight-shifted generators
    chars = [linear_character(j) for j in range(12)]
    for m in range(6):
        gen = FormVector.make(2 * m, [_delta_power(2 * m, build + m)])
        try:
            ext = shifted_exterior_product(exterior_product([gen]), [gen], [m], 0, build)
            ok = det_zero(chars[2 * m], order).agrees_with(ext.normalized)
            cases.append(_case(f"base-{m}", ok,
                               f"multiplicity formula vs generators at m={m}"))
        except PrecisionError as exc:
            cases.append(_case(f"base-{m}", False, str(exc)))
    shifts = range(-6, 7)
    eta_powers = {n: eta_squared(order + 2 + abs(n) // 12) ** n if n else
                  QSeries.constant(1, order) for n in shifts}
    det_zeros = {x: det_zero(chars[x], order + 1) for x in range(0, 12, 2)}
    for j in range(12):
        for n in shifts:
            if (n - j) % 2 != 0:
                continue
            lhs = det_n(chars[j], n, order)
            rhs = eta_powers[n] * det_zeros[(j - n) % 12]
            cases.append(_case(
                f"shift-{j:02d}-{n + 6:02d}", lhs.agrees_with(rhs),
                f"weight-shift identity fails at j={j}, n={n}"))
    delta_powers = [_delta_power(a, build) for a in range(12)]
    zero = QSeries.zero(12 * build, 12)
    for a in range(12):
        for b in range(a, 12):
            if (a - b) % 2 != 0:
                continue
            f1 = FormVector.make(a, [delta_powers[a], zero])
            f2 = FormVector.make(b, [zero, delta_powers[b]])
            report = check_generator_determinant([f1, f2], [a, b], order)
            ok = report.passed and report.leading_coefficient == 1 \
                and report.weight_sum == a + b
            cases.append(_case(f"genpair-{a:02d}-{b:02d}", ok,
                               f"diagonal generators fail at a={a}, b={b}"))
    return cases


def _delta_power(k: int, order: int):
    from .qseries import QSeries
    from .scalarforms import eta_squared

    return eta_squared(order) ** k if k else QSeries.constant(1, order)


_SUITES = {
    "scalar": _scalar_suite,
    "counting": _counting_suite,
    "kappa": _kappa_suite,
    "sums": _sums_suite,
    "det": _det_suite,
}


def __getattr__(name: str):
    # perfbench's tracing test reads vvmf.suites.exterior_product, which the
    # det suite imports only when it runs; it is detlab's at each access.
    if name == "exterior_product":
        from .detlab import exterior_product
        return exterior_product
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Acceptance criteria.

One test per criterion, each at its stated order and bound, all with exact
(zero-tolerance) arithmetic.  Every test prints a PASS line on success so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""

import random
import time

from test_scalarforms_oracle import verify_gen_product

from vvmf.detlab import (FormVector, check_generator_determinant, det_n,
                         det_zero, exterior_product, weak_generating_set)
from vvmf.exactfield import root_of_unity
from vvmf.qseries import QSeries
from vvmf.replib import (Multiplicities, direct_sum, linear_character,
                         multiplicities, traces)
from vvmf.scalarforms import (count_congruent, discriminant, eisenstein,
                              eta_squared, hauptmodul, remainder_carry)
from vvmf.weightcalc import (WeightMultiset, check_hilbert_poly,
                             dimension_series, enumerate_weight_multisets)


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_scalar_identities_order_128():
    started = time.perf_counter()
    order = 128
    e4 = eisenstein(4, order)
    e6 = eisenstein(6, order)
    delta_form = discriminant(order)   # cross-checks both pipelines itself
    assert (e4 ** 3 - e6 ** 2).agrees_with(delta_form * 1728)
    product_route = delta_form
    eisenstein_route = (e4 ** 3 - e6 ** 2) / 1728
    assert product_route.agrees_with(eisenstein_route)
    assert (eta_squared(order) ** 12).agrees_with(delta_form)
    j = hauptmodul(order)
    assert j.coefficient(-1) == 1
    assert j.coefficient(0) == 0
    assert j.coefficient(1) == 196884
    assert (e4 ** 3 / delta_form).agrees_with(j + 744)
    assert (e6 ** 2 / delta_form).agrees_with(j - 984)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"scalar identity suite took {elapsed:.1f}s"
    _report(1, f"scalar identities exact at order {order} ({elapsed:.2f}s)")


def test_criterion_2_product_identity_and_remainder_addition():
    order = 96
    for n in range(-8, 9):
        for m in range(-8, 9):
            assert verify_gen_product(n, m, order), (n, m)
    for k in (2, 3):
        for n in range(-8, 9):
            for m in range(-8, 9):
                lhs = ((-n) % k) + ((-m) % k) - ((-(n + m)) % k)
                assert lhs == k * remainder_carry(n, m, k), (n, m, k)
    _report(2, "generator product identity and remainder addition on "
               "[-8, 8]^2 at order 96")


def test_criterion_3_counting_lemma_500_cases():
    started = time.perf_counter()
    rng = random.Random(7)
    for _ in range(500):
        size = rng.randint(0, 40)
        xs = rng.sample(range(-50, 51), size)
        k = rng.randint(2, 7)
        p = rng.randint(1, k - 1)
        formula = count_congruent(xs, k, p)  # asserts against direct count
        assert formula == sum(1 for x in xs if x % k == p % k)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"counting suite took {elapsed:.2f}s"
    _report(3, f"counting lemma on 500 seeded instances ({elapsed:.3f}s)")


def test_criterion_4_character_tower_trace_formulas():
    minus_i = root_of_unity(12, 9)
    zeta = root_of_unity(12, 4)
    for j in range(12):
        rep = linear_character(j)
        data = traces(rep)
        # Fundamental weight is w = j: P(z) = z^j.
        assert minus_i ** j == data.s
        assert zeta ** j == data.u_inv
        assert (zeta ** -1) ** j == data.u
        ws = WeightMultiset(j % 2, (j // 2,))
        check = check_hilbert_poly(ws, rep)
        assert check.passed
        k = j // 2
        expect = Multiplicities(k % 2, 1 if k % 3 == 1 else 0,
                                1 if k % 3 == 2 else 0)
        assert multiplicities(rep) == expect
    _report(4, "trace formulas and congruence counts on the character tower")


def test_criterion_5_direct_sum_corpus():
    rng = random.Random(11)
    for _ in range(100):
        d = rng.randint(1, 6)
        eps = rng.randint(0, 1)
        js = sorted(2 * rng.randint(0, 5) + eps for _ in range(d))
        parts = [linear_character(j) for j in js]
        rep = parts[0]
        for p in parts[1:]:
            rep = direct_sum(rep, p)
        ws = WeightMultiset(eps, tuple(j // 2 for j in js))
        assert check_hilbert_poly(ws, rep).passed, js
        total = Multiplicities(0, 0, 0)
        for p in parts:
            total = total + multiplicities(p)
        assert multiplicities(rep) == total, js
        candidates = enumerate_weight_multisets(
            d, eps, multiplicities(rep), 0, 5, sum_w=ws.weight_sum())
        assert ws in candidates, js
    _report(5, "100 seeded direct sums: Hilbert checks, additivity, "
               "enumerator containment")


def test_criterion_6_determinant_formula_even_tower():
    order = 64
    for m in range(6):
        rep = linear_character(2 * m)
        generator = FormVector.make(
            2 * m,
            [eta_squared(80) ** (2 * m) if m else QSeries.constant(1, 80)])
        weak = weak_generating_set([generator], [m], 0, 72)
        ext = exterior_product(weak)
        assert det_zero(rep, order).agrees_with(ext.normalized), m
    _report(6, "multiplicity determinant equals normalized generator "
               "determinant for even characters, order 64")


def test_criterion_7_weight_shift_determinants():
    order = 48
    for j in range(12):
        for n in range(-6, 7):
            if (n - j) % 2 != 0:
                continue
            lhs = det_n(linear_character(j), n, order)
            shift = eta_squared(order + 4) ** n if n else \
                QSeries.constant(1, order + 4)
            rhs = shift * det_zero(linear_character((j - n) % 12), order + 2)
            assert lhs.agrees_with(rhs), (j, n)
    _report(7, "weight-shift determinant identity for all j in [0,11], "
               "|n| <= 6 of matching parity")


def test_criterion_8_generator_determinant_pairs():
    order = 48
    for a in range(12):
        for b in range(12):
            if (a - b) % 2 != 0:
                continue
            f1 = FormVector.make(a, [_delta_power(a), QSeries.zero(1200, 12)])
            f2 = FormVector.make(b, [QSeries.zero(1200, 12), _delta_power(b)])
            report = check_generator_determinant([f1, f2], [a, b], order)
            assert report.passed, (a, b)
            assert report.leading_coefficient == 1, (a, b)
            assert report.weight_sum == a + b >= 0, (a, b)
    _report(8, "diagonal generator pairs: exterior product is delta^(a+b) "
               "with unit constant")


def test_criterion_9_dimension_series():
    classical = dimension_series(WeightMultiset(0, (0,)), 12)
    assert classical == [1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2]
    shifted = dimension_series(WeightMultiset(1, (0,)), 13)
    assert shifted == [0] + classical
    assert shifted[1] == 1 and shifted[13] == 2
    _report(9, "graded dimension series for the trivial character and its "
               "odd twist")


def _delta_power(k, order=100):
    return eta_squared(order) ** k if k else QSeries.constant(1, order)

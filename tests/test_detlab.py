"""Exterior products and the determinant identities."""

import gc

import pytest

from test_detlab_oracle import verify_det_ratio
from vvmf import detlab
from vvmf.detlab import (FormVector, check_generator_determinant, det_n,
                         det_zero, exterior_product, generators_from_record,
                         generators_to_record, weak_generating_set)
from vvmf.errors import PrecisionError
from vvmf.qseries import QSeries
from vvmf.replib import linear_character
from vvmf.scalarforms import eisenstein, eta_squared, gen_form


def delta_power(k, order=80):
    return eta_squared(order) ** k if k else QSeries.constant(1, order)


def test_det_zero_examples():
    assert det_zero(linear_character(0), 16).agrees_with(QSeries.constant(1, 16))
    k2 = det_zero(linear_character(2), 16)
    expect = eisenstein(4, 24) * eisenstein(6, 24) / eta_squared(24) ** 10
    assert k2.agrees_with(expect)
    k6 = det_zero(linear_character(6), 16)
    assert k6.agrees_with(eisenstein(6, 24) / eta_squared(24) ** 6)


def test_det_zero_rejects_odd():
    with pytest.raises(ValueError, match="even"):
        det_zero(linear_character(1), 16)


def test_det_n_examples():
    assert det_n(linear_character(0), 0, 16).agrees_with(QSeries.constant(1, 16))
    assert det_n(linear_character(1), 1, 16).agrees_with(eta_squared(16))
    assert det_n(linear_character(2), 2, 16).agrees_with(eta_squared(20) ** 2)


def test_det_n_parity_check():
    with pytest.raises(ValueError, match="parity"):
        det_n(linear_character(1), 2, 16)


def test_det_n_negative_weight_class():
    lhs = det_n(linear_character(2), -2, 16)
    rhs = delta_power(-2) * det_zero(linear_character(4), 20)
    assert lhs.agrees_with(rhs)


def test_weak_generating_set_examples():
    one = FormVector.make(0, [QSeries.constant(1, 60)])
    out = weak_generating_set([one], [0], 0, 40)
    assert out[0].weight == 0
    assert out[0].components[0].agrees_with(QSeries.constant(1, 40))
    out = weak_generating_set([one], [0], 1, 40)
    assert out[0].components[0].agrees_with(gen_form(1, 40))
    gen = FormVector.make(2, [delta_power(2)])
    out = weak_generating_set([gen], [1], 0, 40)
    expect = eisenstein(4, 60) * eisenstein(6, 60) / eta_squared(60) ** 10
    assert out[0].components[0].agrees_with(expect)


def test_weak_generating_set_validates_weights():
    gen = FormVector.make(2, [delta_power(2)])
    with pytest.raises(ValueError):
        weak_generating_set([gen], [3], 0, 20)


def test_exterior_product_1x1():
    v = FormVector.make(0, [QSeries.constant(3, 20) + QSeries.from_coeffs([0, 5], valid_to=20)])
    ext = exterior_product([v])
    assert ext.leading_coefficient == 3
    assert ext.normalized.leading_coefficient() == 1


def test_exterior_product_diagonal():
    a, b = 2, 4
    f1 = FormVector.make(a, [delta_power(a), QSeries.zero(960, 12)])
    f2 = FormVector.make(b, [QSeries.zero(960, 12), delta_power(b)])
    ext = exterior_product([f1, f2])
    assert ext.leading_coefficient == 1
    assert ext.determinant.agrees_with(delta_power(a + b))


def test_exterior_product_alternating():
    f1 = FormVector.make(2, [delta_power(2), QSeries.zero(960, 12)])
    f2 = FormVector.make(4, [QSeries.zero(960, 12), delta_power(4)])
    e1 = exterior_product([f1, f2])
    e2 = exterior_product([f2, f1])
    assert e2.leading_coefficient == -e1.leading_coefficient
    assert e1.normalized.agrees_with(e2.normalized)


def test_exterior_product_singular():
    f1 = FormVector.make(2, [delta_power(2), QSeries.zero(960, 12)])
    with pytest.raises(PrecisionError, match="singular|indistinguishable"):
        exterior_product([f1, f1])


def test_exterior_product_shape_checks():
    with pytest.raises(ValueError):
        exterior_product([])
    f = FormVector.make(0, [QSeries.constant(1, 10), QSeries.constant(1, 10)])
    with pytest.raises(ValueError, match="square"):
        exterior_product([f])


def test_exterior_product_three_by_three():
    # Permutation structure: constant matrix with a single nonzero pattern.
    rows = [
        [QSeries.constant(2, 30), QSeries.zero(30), QSeries.zero(30)],
        [QSeries.zero(30), QSeries.zero(30), QSeries.from_coeffs([3], lead=1, valid_to=30)],
        [QSeries.zero(30), QSeries.constant(5, 30), QSeries.zero(30)],
    ]
    vs = [FormVector.make(0, [rows[i][j] for i in range(3)]) for j in range(3)]
    ext = exterior_product(vs)
    # det = -2 * 3 * 5 * q  (odd permutation (1 2 3) -> rows 0,2,1)
    assert ext.determinant.valuation() == 1
    assert ext.leading_coefficient == -30


def test_check_generator_determinant_trivial():
    one = FormVector.make(0, [QSeries.constant(1, 60)])
    report = check_generator_determinant([one], [0], 40)
    assert report and report.leading_coefficient == 1
    assert report.weight_sum == 0


def test_check_generator_determinant():
    for a, b in [(0, 2), (3, 5), (4, 10)]:
        f1 = FormVector.make(a, [delta_power(a), QSeries.zero(960, 12)])
        f2 = FormVector.make(b, [QSeries.zero(960, 12), delta_power(b)])
        report = check_generator_determinant([f1, f2], [a, b], 40)
        assert report
        assert report.leading_coefficient == 1
        assert report.weight_sum == a + b


def test_check_generator_determinant_misdeclared_weights():
    a, b = 3, 5
    f1 = FormVector.make(a, [delta_power(a), QSeries.zero(960, 12)])
    f2 = FormVector.make(b, [QSeries.zero(960, 12), delta_power(b)])
    report = check_generator_determinant([f1, f2], [a, b + 2], 40)
    assert not report
    assert not report.determinant_matches
    assert report.weight_sum_nonneg


def test_base_case_matches_generators():
    for m in range(6):
        rep = linear_character(2 * m)
        gen = FormVector.make(2 * m, [delta_power(2 * m)])
        weak = weak_generating_set([gen], [m], 0, 70)
        ext = exterior_product(weak)
        assert det_zero(rep, 64).agrees_with(ext.normalized)
        assert ext.leading_coefficient == 1


def test_weight_shift_identity_sample():
    for j, n in [(0, 2), (1, 1), (1, -3), (2, -2), (5, 5), (10, -6)]:
        lhs = det_n(linear_character(j), n, 32)
        rhs = delta_power(n, 40) * det_zero(linear_character((j - n) % 12), 36)
        assert lhs.agrees_with(rhs)


def test_verify_det_ratio():
    triv = linear_character(0)
    one = FormVector.make(0, [QSeries.constant(1, 90)])
    for n in (1, 2, 3):
        assert verify_det_ratio(triv, [one], [0], n, 48)
    k2 = linear_character(2)
    gen = FormVector.make(2, [delta_power(2, 90)])
    assert verify_det_ratio(k2, [gen], [1], 0, 48)
    assert verify_det_ratio(k2, [gen], [1], 1, 48)


def test_verify_det_ratio_validates():
    k2 = linear_character(2)
    gen = FormVector.make(2, [delta_power(2, 90)])
    with pytest.raises(ValueError):
        verify_det_ratio(k2, [gen], [2], 1, 48)
    with pytest.raises(ValueError):
        verify_det_ratio(k2, [gen, gen], [1, 1], 1, 48)


def test_generators_wire_round_trip():
    f1 = FormVector.make(2, [delta_power(2), QSeries.zero(960, 12)])
    f2 = FormVector.make(4, [QSeries.zero(960, 12), delta_power(4)])
    rec = generators_to_record("sum", [f1, f2])
    name, back = generators_from_record(rec)
    assert name == "sum"
    assert back[0].weight == 2 and back[1].weight == 4
    assert back[0].components[0].agrees_with(f1.components[0])
    rec["dimension"] = 5
    with pytest.raises(ValueError):
        generators_from_record(rec)


def test_the_cofactor_memo_is_freed_on_return():
    # The memoised minors are held by a closure that refers to itself, so
    # without clearing the memo its series would wait for the cycle collector.
    m = [[QSeries.from_coeffs([i + j, 1, i * j], lead=0, valid_to=3) for j in range(4)]
         for i in range(4)]
    gc.collect()
    gc.disable()
    try:
        det = detlab._determinant(m)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = [o for o in gc.garbage if isinstance(o, QSeries)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == [] and det.valid_to == 3

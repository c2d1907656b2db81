"""Scalar form constructors against independent expansions and the stated
product identities."""

import random
from fractions import Fraction

import pytest
from test_scalarforms_oracle import verify_gen_product

from vvmf.scalarforms import (count_congruent, discriminant,
                              divisor_power_sum, eisenstein, eta_squared,
                              gen_form, hauptmodul, named_form,
                              remainder_carry, remainders)


def brute_eta_power(power, order):
    """Independent oracle: expand prod_{n<order} (1-q^n)^power term by term
    with plain integer dicts, no series machinery and no pentagonal shortcut."""
    poly = {0: 1}
    for n in range(1, order):
        for _ in range(power):
            nxt = dict(poly)
            for e, c in poly.items():
                if e + n < order:
                    nxt[e + n] = nxt.get(e + n, 0) - c
            poly = {e: c for e, c in nxt.items() if e < order and c}
    return poly


def brute_sigma(n, k):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def test_remainder_triples():
    assert remainders(0) == remainders(0).__class__(0, 0, 0)
    r1 = remainders(1)
    assert (r1.r2, r1.r3, r1.r_inf) == (1, 2, -1)
    assert (remainders(2).r2, remainders(2).r3, remainders(2).r_inf) == (0, 1, 0)
    assert (remainders(3).r2, remainders(3).r3, remainders(3).r_inf) == (1, 0, 0)


def test_remainder_weight_bookkeeping():
    for n in range(-30, 31):
        r = remainders(n)
        assert 0 <= r.r2 < 2 and 0 <= r.r3 < 3
        assert 4 * r.r3 + 6 * r.r2 + 12 * r.r_inf == 2 * n


def test_remainder_carry_examples():
    assert remainder_carry(1, 1, 3) == 1
    assert remainder_carry(2, 2, 3) == 0
    assert all(remainder_carry(n, 0, 2) == 0 for n in range(-10, 11))


def test_remainder_addition_relation():
    for k in (2, 3):
        for n in range(-12, 13):
            for m in range(-12, 13):
                lhs = ((-n) % k) + ((-m) % k) - ((-(n + m)) % k)
                assert lhs == k * remainder_carry(n, m, k)


def test_divisor_power_sum():
    assert divisor_power_sum(1, 3) == 1
    assert divisor_power_sum(2, 3) == 9
    assert divisor_power_sum(2, 5) == 33
    assert divisor_power_sum(3, 3) == 28
    for n in range(1, 60):
        for k in (3, 5):
            assert divisor_power_sum(n, k) == brute_sigma(n, k)
    with pytest.raises(ValueError):
        divisor_power_sum(0, 3)


def test_eisenstein_coefficients():
    e4 = eisenstein(4, 20)
    assert e4.coefficient(0) == 1
    assert e4.coefficient(1) == 240
    assert e4.coefficient(2) == 2160
    e6 = eisenstein(6, 20)
    assert e6.coefficient(0) == 1
    assert e6.coefficient(1) == -504
    for n in range(1, 20):
        assert e4.coefficient(n) == 240 * brute_sigma(n, 3)
        assert e6.coefficient(n) == -504 * brute_sigma(n, 5)
    with pytest.raises(ValueError):
        eisenstein(8, 20)


def test_discriminant_against_brute_product():
    order = 24
    d = discriminant(order)
    assert d.valuation() == 1
    assert d.leading_coefficient() == 1
    assert d.coefficient(2) == -24
    oracle = brute_eta_power(24, order - 1)
    for e in range(1, order):
        assert d.coefficient(e) == oracle.get(e - 1, 0)


@pytest.mark.parametrize("order", range(1, 9))
def test_discriminant_at_small_orders(order):
    # The product side starts at q^1 and is trusted below q^(order+1); the
    # Eisenstein side of the cross-check is built to order + 1, so the two
    # share a window even at order 1, where the answer is q.
    d = discriminant(order)
    assert (d.lead, d.valid_to) == (1, order + 1)
    oracle = brute_eta_power(24, order)
    assert [d.coefficient(e) for e in range(1, order + 1)] == \
        [oracle.get(e - 1, 0) for e in range(1, order + 1)]
    e4, e6 = eisenstein(4, order + 1), eisenstein(6, order + 1)
    assert ((e4 ** 3 - e6 ** 2) / 1728).agrees_with(d)


def test_discriminant_pipelines_cross_check():
    d = discriminant(64)
    e4, e6 = eisenstein(4, 64), eisenstein(6, 64)
    assert ((e4 ** 3 - e6 ** 2) / 1728).agrees_with(d)


def test_eta_squared():
    delta = eta_squared(24)
    assert delta.valuation() == Fraction(1, 12)
    assert delta.coefficient(Fraction(13, 12)) == -2
    oracle = brute_eta_power(2, 23)
    for e, c in oracle.items():
        assert delta.coefficient(e + Fraction(1, 12)) == c
    assert (delta ** 12).agrees_with(discriminant(64))


def test_hauptmodul():
    j = hauptmodul(16)
    assert j.valuation() == -1
    assert j.coefficient(-1) == 1
    assert j.coefficient(0) == 0
    assert j.coefficient(1) == 196884
    assert j.coefficient(2) == 21493760


def test_gen_form_examples():
    one = gen_form(0, 16)
    assert (one - 1).is_zero()
    assert gen_form(2, 24).agrees_with(eisenstein(4, 24))
    assert gen_form(3, 24).agrees_with(eisenstein(6, 24))
    f1 = gen_form(1, 24)
    assert f1.valuation() == -1
    expect = eisenstein(4, 30) ** 2 * eisenstein(6, 30) / discriminant(30)
    assert f1.agrees_with(expect)


def test_gen_form_shift_by_discriminant():
    for n in range(-6, 7):
        lhs = gen_form(n + 6, 32)
        rhs = discriminant(40) * gen_form(n, 40)
        assert lhs.agrees_with(rhs)


def test_gen_form_holomorphic_above_one():
    for n in range(2, 12):
        assert gen_form(n, 16).valuation() >= 0


def test_product_identity_examples():
    assert verify_gen_product(1, 1, 48)
    assert verify_gen_product(2, 3, 48)
    assert all(verify_gen_product(0, m, 48) for m in range(-4, 5))


def test_product_identity_catches_wrong_constant():
    # The same ratio against a wrong right side must come back false.
    lhs = gen_form(1, 48) * gen_form(1, 48) / gen_form(2, 48)
    j = hauptmodul(48)
    wrong = (j + 745) * (j - 984)
    assert not lhs.agrees_with(wrong)


def test_valuations():
    assert eisenstein(4, 12).valuation() == 0
    inv = discriminant(20) ** -1
    assert inv.valuation() == -1
    assert inv.leading_coefficient() == 1


def test_hauptmodul_ratio_constants():
    j = hauptmodul(32)
    assert (eisenstein(4, 40) ** 3 / discriminant(40)).agrees_with(j + 744)
    assert (eisenstein(6, 40) ** 2 / discriminant(40)).agrees_with(j - 984)


def test_count_congruent_examples():
    assert count_congruent([1, 2, 3, 4, 5], 3, 1) == 2
    assert count_congruent([], 3, 1) == 0
    assert count_congruent([2], 2, 1) == 0
    with pytest.raises(ValueError):
        count_congruent([1], 1, 0)
    with pytest.raises(ValueError):
        count_congruent([1], 3, 3)


def test_count_congruent_random():
    rng = random.Random(41)
    for _ in range(200):
        xs = [rng.randint(-80, 80) for _ in range(rng.randint(0, 25))]
        k = rng.randint(2, 9)
        p = rng.randint(1, k - 1)
        assert count_congruent(xs, k, p) == sum(1 for x in xs if x % k == p)


def test_named_form_registry():
    assert named_form("E4", 12).agrees_with(eisenstein(4, 12))
    assert named_form("Delta", 12).agrees_with(discriminant(12))
    assert named_form("J", 12).agrees_with(hauptmodul(12))
    assert named_form("delta", 12).agrees_with(eta_squared(12))
    assert named_form("f:-3", 16).agrees_with(gen_form(-3, 16))
    with pytest.raises(KeyError):
        named_form("bogus", 12)
    with pytest.raises(KeyError):
        named_form("f:x", 12)


def test_constructors_reject_bad_order():
    for build in (eisenstein, discriminant, eta_squared, hauptmodul):
        with pytest.raises(ValueError):
            if build is eisenstein:
                build(4, 0)
            else:
                build(0)

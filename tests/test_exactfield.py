"""Field arithmetic: canonical forms, embeddings, random field axioms."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from vvmf.exactfield import (CycNumber, cyclotomic_polynomial, euler_phi,
                             parse_rational, root_of_unity)


def _numeric_cyclotomic(n):
    """Independent oracle: expand prod (x - zeta^k) over primitive k numerically."""
    roots = [cmath.exp(2j * cmath.pi * k / n)
             for k in range(1, n + 1) if math.gcd(k, n) == 1]
    poly = [1.0 + 0j]
    for r in roots:
        nxt = [0j] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] += c
            nxt[i] -= c * r
        poly = nxt
    out = [round(c.real) for c in poly]
    assert all(abs(c.real - r) < 1e-6 and abs(c.imag) < 1e-6
               for c, r in zip(poly, out))
    return tuple(out)


def test_cyclotomic_polynomial_examples():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_against_numeric_oracle():
    for n in range(1, 31):
        got = cyclotomic_polynomial(n)
        assert got == _numeric_cyclotomic(n)
        assert len(got) == euler_phi(n) + 1
        assert got[-1] == 1


def test_root_of_unity_examples():
    i = root_of_unity(4, 1)
    assert i * i == -1
    z3 = root_of_unity(3, 1)
    assert z3 + root_of_unity(3, 2) == -1
    assert root_of_unity(12, 4) == z3


def test_root_of_unity_periodicity():
    for n in (1, 2, 3, 4, 6, 12, 15):
        for k in range(-2 * n, 2 * n + 1):
            assert root_of_unity(n, k) == root_of_unity(n, k % n)


def test_nth_power_is_one():
    for n in (2, 3, 4, 5, 8, 12):
        assert root_of_unity(n, 1) ** n == 1


def test_mul_examples():
    minus_i = -root_of_unity(4, 1)
    assert minus_i * minus_i == -1
    z3 = root_of_unity(3, 1)
    assert z3 * z3 ** 2 == 1
    c = 1 + z3 ** 2
    assert c.coeffs == (Fraction(0), Fraction(-1))
    assert c == -z3


def test_mixed_order_result_lives_in_lcm_field():
    a = root_of_unity(4, 1)
    b = root_of_unity(3, 1)
    assert (a * b).order == 12
    assert (a + b).order == 12
    assert (a / b).order == 12
    assert (a * a).order == 4


def test_division():
    z = root_of_unity(12, 5)
    a = 3 + 2 * z
    assert a / a == 1
    assert (a / z) * z == a
    with pytest.raises(ZeroDivisionError):
        a / CycNumber.zero()


def test_field_axioms_random():
    rng = random.Random(2024)
    orders = [1, 2, 3, 4, 6, 12]

    def rand_cyc():
        n = rng.choice(orders)
        phi = euler_phi(n)
        return CycNumber.make(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                  for _ in range(phi)])

    for _ in range(150):
        a, b, c = rand_cyc(), rand_cyc(), rand_cyc()
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_lift_commutes_with_arithmetic():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.choice([1, 2, 3, 4, 6])
        m = n * rng.choice([2, 3, 4])
        phi = euler_phi(n)
        a = CycNumber.make(n, [rng.randint(-4, 4) for _ in range(phi)])
        b = CycNumber.make(n, [rng.randint(-4, 4) for _ in range(phi)])
        assert (a * b).lift(m) == a.lift(m) * b.lift(m)
        assert (a + b).lift(m) == a.lift(m) + b.lift(m)


def test_lift_then_reduce_is_identity():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.choice([1, 2, 3, 4, 6, 12])
        m = n * rng.choice([2, 3])
        if m > 36:
            continue
        a = CycNumber.make(n, [rng.randint(-9, 9) for _ in range(euler_phi(n))])
        assert a.lift(m).reduce_order_to(n) == a


def test_reduce_rejects_non_members():
    z12 = root_of_unity(12, 1)
    with pytest.raises(ValueError):
        z12.reduce_order_to(3)


def test_equality_across_orders():
    one_a = CycNumber.from_rational(1)
    one_b = root_of_unity(6, 0)
    assert one_a == one_b
    assert root_of_unity(12, 4) == root_of_unity(3, 1)
    assert root_of_unity(12, 4) != root_of_unity(3, 2)


def test_order_bound_enforced():
    with pytest.raises(ValueError):
        root_of_unity(720, 1)
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_power_negative_exponent():
    z = root_of_unity(12, 1)
    assert z ** -1 == z ** 11
    assert z ** -5 == z ** 7


def test_rational_wire_format():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-17") == Fraction(-17)
    assert parse_rational("−5/2") == Fraction(-5, 2)
    c = CycNumber.make(12, ["1/2", -3, 0, "7"])
    assert CycNumber.from_record(c.to_record()) == c


def to_complex(c):
    """Floating approximation of a field element: the body of the display-only
    ``CycNumber.to_complex`` that left the package, which had no caller."""
    z = complex(math.cos(2 * math.pi / c.order), math.sin(2 * math.pi / c.order))
    return sum((float(x) * z ** i for i, x in enumerate(c.coeffs) if x), 0j)


def test_numeric_embedding_spot_checks():
    # The float view agrees with the defining embedding.
    approx = to_complex(root_of_unity(12, 1))
    target = cmath.exp(2j * cmath.pi / 12)
    assert abs(approx - target) < 1e-9
    val = to_complex(1 + 2 * root_of_unity(3, 1))
    target = 1 + 2 * cmath.exp(2j * cmath.pi / 3)
    assert abs(val - target) < 1e-9


def test_demoted():
    c = root_of_unity(12, 0)
    assert c.order == 12
    assert c.demoted().order == 1
    z = root_of_unity(12, 2)
    assert z.demoted() is z

"""Series ring laws, validity windows, grid handling."""

import random
from fractions import Fraction

import pytest

from vvmf.errors import PrecisionError
from vvmf.exactfield import root_of_unity
from vvmf.qseries import QSeries
from vvmf.scalarforms import eta_squared


def poly(coeffs, lead=0, grid=1, valid_to=40):
    return QSeries.from_coeffs(coeffs, lead=lead, grid=grid, valid_to=valid_to)


def pole_order(s):
    """Order of the pole at q=0: -valuation when negative, else 0; the body
    of the ``QSeries.pole_order`` that left the package, which had no caller."""
    return max(-s.valuation(), Fraction(0))


def factored_str(s):
    """Rendering with the lead power pulled out: q^(a/D)*(c0 + c1*q^(1/D) + ...);
    the body of the ``QSeries.factored_str`` that left the package."""
    if s.is_zero():
        return "0"
    head, inner = s._exp_str(s.lead), s.shift(-s.lead, s.grid)
    return f"{head}*({inner})" if head else str(inner)


def test_product_example():
    a = poly([1, 0, 1], lead=-1)          # q^-1 + q
    b = poly([1, 1])                      # 1 + q
    p = a * b
    for e, c in [(-1, 1), (0, 1), (1, 1), (2, 1), (3, 0)]:
        assert p.coefficient(e) == c


def test_difference_with_self_is_zero():
    a = poly([3, -2, 5], lead=2)
    assert (a - a).is_zero()


def test_geometric_series():
    one = QSeries.constant(1, 12)
    geo = one / poly([1, -1], valid_to=12)
    assert all(geo.coefficient(e) == 1 for e in range(12))


def test_divide_by_zero_series():
    with pytest.raises(ZeroDivisionError):
        QSeries.constant(1, 10) / QSeries.zero(10)


def test_pow_zero_is_one():
    a = poly([4, 1], lead=-2)
    p = a ** 0
    assert p.coefficient(0) == 1 and p.is_zero() is False
    assert (p - 1).is_zero()


def test_negative_power_lead():
    d = poly([1, -24, 252, -1472], lead=1, valid_to=20)
    inv = d ** -1
    assert inv.valuation() == -1
    assert inv.leading_coefficient() == 1
    assert (d * inv).agrees_with(QSeries.constant(1, 15))


def test_puiseux_exponent_addition():
    delta_ish = poly([1, -2], lead=1, grid=12, valid_to=30)
    sq = delta_ish * delta_ish
    assert sq.valuation() == Fraction(2, 12)


def test_valuation_examples():
    j_like = poly([1, 0, 196884], lead=-1)
    assert j_like.valuation() == -1
    with pytest.raises(ValueError):
        QSeries.zero(5).valuation()


def test_pole_order():
    assert pole_order(poly([1], lead=-3)) == 3
    assert pole_order(poly([1], lead=2)) == 0
    assert pole_order(poly([1], lead=-5, grid=12, valid_to=10)) == Fraction(5, 12)


def test_monomial():
    m = QSeries.monomial(3, 5, 12, valid_steps=4)
    assert m.valuation() == Fraction(5, 12)
    assert m.coefficient(Fraction(5, 12)) == 3
    assert m.coefficient(Fraction(6, 12)).is_zero()


def test_ring_laws_random():
    rng = random.Random(99)

    def rand_series():
        lead = rng.randint(-3, 3)
        length = rng.randint(1, 8)
        coeffs = [rng.randint(-9, 9) for _ in range(length)]
        return QSeries.from_coeffs(coeffs, lead=lead, valid_to=lead + length + rng.randint(0, 4))

    for _ in range(80):
        a, b, c = rand_series(), rand_series(), rand_series()
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert lhs.agrees_with(rhs, min_steps=0) or lhs.is_zero() == rhs.is_zero()
        assert ((a * b) * c).agrees_with(a * (b * c), min_steps=0)
        assert (a + b).agrees_with(b + a, min_steps=0)


def test_mul_div_round_trip_random():
    rng = random.Random(5)
    for _ in range(60):
        a = QSeries.from_coeffs([rng.randint(-9, 9) for _ in range(6)],
                                lead=rng.randint(-2, 2), valid_to=12)
        b_coeffs = [rng.choice([1, -1])] + [rng.randint(-9, 9) for _ in range(5)]
        b = QSeries.from_coeffs(b_coeffs, lead=rng.randint(-2, 2), valid_to=12)
        if a.is_zero():
            continue
        assert ((a * b) / b).agrees_with(a)


def test_regrid_then_arithmetic_commutes():
    rng = random.Random(17)
    for _ in range(40):
        a = QSeries.from_coeffs([rng.randint(-5, 5) for _ in range(5)],
                                lead=rng.randint(-2, 2), valid_to=10)
        b = QSeries.from_coeffs([rng.randint(-5, 5) for _ in range(5)],
                                lead=rng.randint(-2, 2), valid_to=10)
        assert (a * b).regrid(6).agrees_with(a.regrid(2) * b.regrid(3))
        assert (a + b).regrid(4).agrees_with(a.regrid(4) + b.regrid(2))


def test_all_zero_coefficients_normalize_to_zero():
    s = QSeries.from_coeffs([0, 0, 0], lead=4, valid_to=9)
    assert s.is_zero()
    assert s.agrees_with(QSeries.zero(7))


def test_grid_minimization():
    s = QSeries.from_coeffs([5, 0, 7, 0], lead=2, grid=2, valid_to=6)
    assert s.grid == 1
    assert s.coefficient(1) == 5 and s.coefficient(2) == 7
    t = QSeries.from_coeffs([1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -2],
                            lead=1, grid=12, valid_to=20)
    assert t.grid == 12  # support 1/12 + Z does not simplify


def test_stride_normal_form():
    """A series is stored at the stride of its support, built either way."""
    s = eta_squared(64)
    assert (s.grid, s.lead, s.step, len(s.terms)) == (12, 1, 12, 64)
    coeffs = [1, -2, 0, 5, 0, 0, 7]
    dense = [0] * (12 * len(coeffs))
    dense[::12] = coeffs
    built = QSeries.from_coeffs(dense, lead=1, grid=12)
    moved = QSeries.from_coeffs(coeffs).regrid(12).shift(1, 12)
    form = (built.grid, built.lead, built.valid_to, built.step, built.terms)
    assert form == (moved.grid, moved.lead, moved.valid_to, moved.step, moved.terms)
    assert form[:4] == (12, 1, 85, 12) and len(built.terms) == 7
    assert list(moved.coeffs) == dense
    assert built.to_record() == moved.to_record() and built == moved


def test_normal_form_keeps_trusted_terms():
    """Reducing the grid never floors valid_to: every trusted term survives."""
    s = QSeries.from_coeffs([1], grid=4, valid_to=1)
    assert (s.grid, s.lead, s.valid_to) == (4, 0, 1)
    assert s.valid_exponent() == Fraction(1, 4) and s.coefficient(0) == 1
    t = QSeries.from_coeffs([1, 0, 0, 2], grid=12, valid_to=4)
    assert (t.grid, t.lead, t.valid_to, t.step) == (12, 0, 4, 3)
    assert t.coefficient(Fraction(1, 4)) == 2 and t.valid_exponent() == Fraction(1, 3)
    assert (t + QSeries.zero(12, 12)).to_record() == t.to_record()


def test_conservative_window_on_multiplication():
    a = poly([1, 1], lead=0, valid_to=5)
    b = poly([1], lead=3, valid_to=10)
    p = a * b
    # min(5 + 3, 10 + 0) = 8
    assert p.valid_exponent() == 8
    with pytest.raises(PrecisionError):
        p.coefficient(8)


def test_empty_comparison_window_raises():
    # The nonzero side's lead lies beyond the shared window: vacuous.
    a = QSeries.zero(3)
    b = poly([1], lead=5, valid_to=8)
    with pytest.raises(PrecisionError):
        a.agrees_with(b)
    # Zero against zero agrees on any window.
    assert QSeries.zero(3).agrees_with(QSeries.zero(50))
    # Windows that do reach the leads give an honest verdict instead.
    assert not poly([1], lead=0, valid_to=1).agrees_with(poly([1], lead=5, valid_to=6))


def test_scalar_operations():
    a = poly([2, 4], lead=1, valid_to=9)
    assert (a * Fraction(1, 2)).coefficient(1) == 1
    assert (a + 7).coefficient(0) == 7
    assert (a - 7).coefficient(0) == -7
    assert (7 + a).coefficient(1) == 2
    assert (a / 2).coefficient(2) == 2
    z = root_of_unity(4, 1)
    assert (a * z).coefficient(1) == 2 * z


def test_cyclotomic_coefficient_series():
    z = root_of_unity(12, 1)
    s = QSeries.from_coeffs([z, 1], valid_to=8)
    t = QSeries.from_coeffs([1, z ** 11], valid_to=8)
    p = s * t
    assert p.coefficient(0) == z
    assert p.coefficient(1) == 2
    assert p.coefficient(2) == z ** 11
    assert ((p / t).agrees_with(s))


def test_wire_round_trip():
    s = QSeries.from_coeffs([1, 0, -2], lead=1, grid=12, valid_to=30)
    rec = s.to_record()
    assert rec["grid"] == 12 and rec["lead"] == 1
    back = QSeries.from_record(rec)
    assert back.agrees_with(s)
    assert back == s


def test_text_renderings():
    j_like = poly([1, 0, 196884], lead=-1, valid_to=2)
    assert str(j_like) == "q^-1 + 196884*q"
    assert factored_str(j_like) == "q^-1*(1 + 196884*q^2)"
    assert str(QSeries.zero(4)) == "0"
    d = poly([1, -2], lead=1, grid=12, valid_to=15)
    assert "q^(1/12)" in str(d)


@pytest.mark.parametrize("grid", [0, -1, -12])
def test_non_positive_grid_is_rejected(grid):
    with pytest.raises(ValueError, match="grid"):
        QSeries.from_coeffs([1], grid=grid)
    with pytest.raises(ValueError, match="grid"):
        QSeries.zero(5, grid)
    with pytest.raises(ValueError):
        QSeries.from_coeffs([1, 2]).regrid(grid)

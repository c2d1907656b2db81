"""The series product and quotient against the schoolbook loops they replaced.

``_convolve`` and ``_quotient`` below are the int, Fraction and CycNumber
coefficient loops that ``QSeries`` multiplied and divided with before the
Kronecker product and the Newton inverse.  They are kept here unchanged as
the reference: every seeded case must give the same ``to_record()``.

``oracle_from_record`` is how ``QSeries.from_record`` read a series record
before it read each coefficient's coordinates straight into ``nums``: one
``CycNumber`` per coefficient record, then the values flattened.
"""

import math
import random
from fractions import Fraction

import pytest

from vvmf.errors import PrecisionError
from vvmf.exactfield import CycNumber, _check_order, _coerce, euler_phi, parse_rational
from vvmf.qseries import QSeries

_ZERO = Fraction(0)


def _raw_rationals(coeffs: list[CycNumber]) -> list[Fraction] | None:
    out = []
    for c in coeffs:
        if c.order != 1:
            return None
        out.append(c.coeffs[0])
    return out


def _convolve(a: list[CycNumber], b: list[CycNumber], n_out: int) -> list[CycNumber]:
    """First n_out coefficients of the product of two dense coefficient lists."""
    ra = _raw_rationals(a)
    rb = _raw_rationals(b)
    if ra is not None and rb is not None:
        if all(f.denominator == 1 for f in ra) and all(f.denominator == 1 for f in rb):
            ia = [f.numerator for f in ra]
            ib = [f.numerator for f in rb]
            out = [0] * n_out
            for i, ai in enumerate(ia):
                if ai and i < n_out:
                    stop = min(len(ib), n_out - i)
                    for j in range(stop):
                        bj = ib[j]
                        if bj:
                            out[i + j] += ai * bj
            return [CycNumber(1, (Fraction(v),)) for v in out]
        outf = [_ZERO] * n_out
        for i, ai in enumerate(ra):
            if ai and i < n_out:
                stop = min(len(rb), n_out - i)
                for j in range(stop):
                    bj = rb[j]
                    if bj:
                        outf[i + j] += ai * bj
        return [CycNumber(1, (v,)) for v in outf]
    out = [CycNumber.zero()] * n_out
    for i, ai in enumerate(a):
        if not ai.is_zero() and i < n_out:
            stop = min(len(b), n_out - i)
            for j in range(stop):
                bj = b[j]
                if not bj.is_zero():
                    out[i + j] = out[i + j] + ai * bj
    return out


def _quotient(a: list[CycNumber], b: list[CycNumber], n_out: int) -> list[CycNumber]:
    """First n_out coefficients of a/b for dense lists with b[0] != 0."""
    ra = _raw_rationals(a)
    rb = _raw_rationals(b)
    if ra is not None and rb is not None:
        ints_ok = all(f.denominator == 1 for f in ra) and all(f.denominator == 1 for f in rb)
        if ints_ok and rb[0].numerator in (1, -1):
            ia = [f.numerator for f in ra]
            ib = [f.numerator for f in rb]
            b0 = ib[0]
            out = [0] * n_out
            for k in range(n_out):
                acc = ia[k] if k < len(ia) else 0
                for i in range(1, min(k, len(ib) - 1) + 1):
                    if ib[i]:
                        qv = out[k - i]
                        if qv:
                            acc -= qv * ib[i]
                out[k] = acc * b0
            return [CycNumber(1, (Fraction(v),)) for v in out]
        inv0 = Fraction(1) / rb[0]
        outf = [_ZERO] * n_out
        for k in range(n_out):
            acc = ra[k] if k < len(ra) else _ZERO
            for i in range(1, min(k, len(rb) - 1) + 1):
                if rb[i]:
                    qv = outf[k - i]
                    if qv:
                        acc -= qv * rb[i]
            outf[k] = acc * inv0
        return [CycNumber(1, (v,)) for v in outf]
    inv0 = b[0].inverse()
    out = [CycNumber.zero()] * n_out
    for k in range(n_out):
        acc = a[k] if k < len(a) else CycNumber.zero()
        for i in range(1, min(k, len(b) - 1) + 1):
            qv = out[k - i]
            if not qv.is_zero() and not b[i].is_zero():
                acc = acc - qv * b[i]
        out[k] = acc * inv0
    return out


def oracle_mul(x: QSeries, y: QSeries) -> QSeries:
    a, b = x._common(y)
    valid = min(a.valid_to + b.lead, b.valid_to + a.lead)
    lead = a.lead + b.lead
    n_out = valid - lead
    if n_out <= 0 or a.is_zero() or b.is_zero():
        return QSeries.zero(valid, a.grid)
    out = _convolve(list(a.coeffs), list(b.coeffs), n_out)
    return QSeries._make(a.grid, lead, valid, out)


def oracle_add(x: QSeries, y: QSeries, sign: int) -> QSeries:
    """x + sign*y from the dense coefficient lists."""
    a, b = x._common(y)
    valid = min(a.valid_to, b.valid_to)
    lo = min(a.lead, b.lead, valid)
    out = [CycNumber.zero()] * (valid - lo)
    for s, f in ((a, 1), (b, sign)):
        for i, c in enumerate(s.coeffs[:max(0, valid - s.lead)]):
            out[s.lead + i - lo] += c * f
    return QSeries._make(a.grid, lo, valid, out)


def oracle_inverse(x: QSeries) -> QSeries:
    out = _quotient([CycNumber.one()], list(x.coeffs), len(x.coeffs))
    return QSeries._make(x.grid, -x.lead, x.valid_to - 2 * x.lead, out)


def oracle_div(x: QSeries, y: QSeries) -> QSeries:
    a, b = x._common(y)
    if a.is_zero():
        return QSeries.zero(min(a.valid_to - b.lead,
                                b.valid_to + a.lead - 2 * b.lead), a.grid)
    lead = a.lead - b.lead
    n_out = min(a.valid_to - a.lead, b.valid_to - b.lead)
    out = _quotient(list(a.coeffs), list(b.coeffs), n_out)
    return QSeries._make(a.grid, lead, lead + n_out, out)


# -- seeded inputs -------------------------------------------------------------

KINDS = ["int", "frac", "cyc3", "cyc4", "cyc12", "cyc60", "mixed", "grid12", "stride"]


def rand_coeff(rng, kind, p_zero=0.3):
    if rng.random() < p_zero:
        return 0
    if kind in ("int", "grid12", "stride"):
        return rng.randint(-9, 9)
    if kind == "frac":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    order = int(kind[3:]) if kind.startswith("cyc") else rng.choice((1, 3, 4, 12))
    if rng.random() < 0.2:
        order = 1
    return CycNumber.make(order, [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                                  for _ in range(euler_phi(order))])


def rand_series(rng, kind, nonzero_lead=False):
    """A seeded series with leading and interior zeros and a padded window."""
    length = rng.randint(1, 6 if kind == "cyc60" else 16)
    coeffs = [rand_coeff(rng, kind) for _ in range(length)]
    if nonzero_lead:
        while coeffs[0] == 0:
            coeffs[0] = rand_coeff(rng, kind, p_zero=0)
    lead = rng.randint(-3, 3)
    valid_to = lead + length + rng.randint(0, 5)
    s = QSeries.from_coeffs(coeffs, lead=lead, valid_to=valid_to)
    if kind == "grid12":
        s = s.regrid(12).shift(rng.choice((0, 1, 5)), 12)
    if kind == "stride":
        # Terms at 1 + 12k and 1 + d + 12k: support of stride d on grid 12.
        d = rng.choice((2, 3, 4, 6))
        other = QSeries.from_coeffs([rand_coeff(rng, kind) for _ in range(length)],
                                    lead=lead, valid_to=valid_to)
        s = s.regrid(12).shift(1, 12) + other.regrid(12).shift(1 + d, 12)
    return s


def divisor(rng, kind):
    while True:
        b = rand_series(rng, kind, nonzero_lead=True)
        if not b.is_zero():
            return b


def mixed_orders(*series):
    return len({c.order for s in series for c in s.coeffs} - {1}) > 1


# -- the comparisons -----------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_product_matches_schoolbook(kind):
    rng = random.Random(f"mul-{kind}")
    for _ in range(40):
        a, b = rand_series(rng, kind), rand_series(rng, kind)
        assert (a * b).to_record() == oracle_mul(a, b).to_record(), (a, b)


@pytest.mark.parametrize("kind", KINDS)
def test_squares_match_schoolbook(kind):
    """A series times itself reaches the kernel as one list, packed once."""
    rng = random.Random(f"square-{kind}")
    for _ in range(20):
        a = rand_series(rng, kind)
        assert (a * a).to_record() == oracle_mul(a, a).to_record(), a


@pytest.mark.parametrize("order, length, bits", [(1, 200, 60), (12, 60, 40)])
def test_long_squares_match_schoolbook(order, length, bits):
    """Squares long and wide enough for the kernel's two-point route."""
    rng = random.Random(f"long-square-{order}")
    coeffs = [CycNumber.make(order, [rng.randint(-(1 << bits), 1 << bits)
                                     for _ in range(euler_phi(order))]) for _ in range(length)]
    a = QSeries.from_coeffs(coeffs, lead=-2)
    want = oracle_mul(a, a).to_record()
    assert (a * a).to_record() == want
    assert (a ** 2).to_record() == want


@pytest.mark.parametrize("kind", KINDS)
def test_quotient_matches_schoolbook(kind):
    rng = random.Random(f"div-{kind}")
    for _ in range(20):
        a, b = rand_series(rng, kind), divisor(rng, kind)
        got, want = a / b, oracle_div(a, b)
        inv, inv_want = b.inverse(), oracle_inverse(b)
        if mixed_orders(a, b):
            assert got == want and inv == inv_want, (a, b)
        else:
            assert got.to_record() == want.to_record(), (a, b)
            assert inv.to_record() == inv_want.to_record(), b


@pytest.mark.parametrize("kind", KINDS)
def test_sum_matches_dense(kind):
    rng = random.Random(f"add-{kind}")
    for _ in range(40):
        a, b = rand_series(rng, kind), rand_series(rng, kind)
        assert (a + b).to_record() == oracle_add(a, b, 1).to_record(), (a, b)
        assert (a - b).to_record() == oracle_add(a, b, -1).to_record(), (a, b)
        # A scalar lands on q^0 when that lies in the window, and keeps it.
        c = a + 5
        assert c.valid_exponent() == a.valid_exponent(), a
        for k in range(min(a.lead, 0), a.valid_to):
            e = Fraction(k, a.grid)
            assert c.coefficient(e) == a.coefficient(e) + (5 if k == 0 else 0), (a, e)


def test_stride_kind_has_unequal_strides():
    rng = random.Random("stride-kind")
    steps = {s.step for s in (rand_series(rng, "stride") for _ in range(40)) if s.grid == 12}
    assert {2, 3, 4, 6} <= steps


@pytest.mark.parametrize("kind", ["int", "cyc12", "grid12"])
def test_exact_quotients(kind):
    """Long quotients that terminate leave zero remainders in the halving."""
    rng = random.Random(f"exact-{kind}")
    for _ in range(3):
        b = QSeries.from_coeffs([rand_coeff(rng, kind, 0)]
                                + [rand_coeff(rng, kind) for _ in range(rng.randint(40, 90))])
        c = QSeries.from_coeffs([rand_coeff(rng, kind, 0) for _ in range(rng.randint(1, 4))],
                                valid_to=len(b.coeffs))
        if kind == "grid12":
            b, c = b.regrid(12).shift(1, 12), c.regrid(12)
        a = b * c
        assert (a / b).to_record() == oracle_div(a, b).to_record()
        assert (a / b).agrees_with(c)


def test_truncated_operands():
    rng = random.Random("truncated")
    for kind in ("int", "cyc12"):
        long = QSeries.from_coeffs([rand_coeff(rng, kind, 0) for _ in range(30)])
        short = QSeries.from_coeffs([1, 2, 3], lead=2, valid_to=6)
        for a, b in ((long, short), (short, long)):
            assert (a * b).to_record() == oracle_mul(a, b).to_record()
            assert (a / b).to_record() == oracle_div(a, b).to_record()


def test_mixed_order_products_keep_pair_orders():
    z3, z4 = CycNumber.make(3, [0, 1]), CycNumber.make(4, [0, 1])
    z12 = CycNumber.make(12, [0, 1, 0, 0])
    a = QSeries.from_coeffs([z3, 2, z4, 0, z12, z3], valid_to=9)
    b = QSeries.from_coeffs([1, z4, 0, z3], valid_to=9)
    got = a * b
    assert got.to_record() == oracle_mul(a, b).to_record()
    assert {c.order for c in got.coeffs} == {3, 4, 12}


@pytest.mark.parametrize("lead", [2, -3, Fraction(3, 4), CycNumber.make(3, [1, 1]),
                                  CycNumber.make(12, [1, 0, 2, 0])])
def test_divisor_leads(lead):
    rng = random.Random(f"lead-{lead}")
    kind = "int" if isinstance(lead, int) else "frac" if isinstance(lead, Fraction) \
        else f"cyc{lead.order}"
    for _ in range(6):
        a = rand_series(rng, kind)
        b = QSeries.from_coeffs([lead] + [rand_coeff(rng, kind) for _ in range(9)], lead=1)
        assert (a / b).to_record() == oracle_div(a, b).to_record()
        assert b.inverse().to_record() == oracle_inverse(b).to_record()


def test_zero_numerator_window():
    b = QSeries.from_coeffs([3, 1, 4], lead=-2, grid=12, valid_to=7)
    for a in (QSeries.zero(5), QSeries.zero(40, 12)):
        assert (a / b).to_record() == oracle_div(a, b).to_record()


def test_lcm_order_above_bound_raises():
    a = QSeries.from_coeffs([CycNumber.make(9, [0, 1, 0, 0, 0, 0])])
    b = QSeries.from_coeffs([CycNumber.make(64, [0, 1] + [0] * 30)])
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        oracle_mul(a, b)


def test_division_is_product_with_inverse():
    rng = random.Random("div-inverse")
    for kind in KINDS:
        for _ in range(5):
            a, b = rand_series(rng, kind), divisor(rng, kind)
            got, want = a / b, a * b.inverse()
            assert (got.grid, got.lead, got.valid_to) == (want.grid, want.lead, want.valid_to)
            if mixed_orders(a, b):
                assert got == want, (a, b)
            else:
                assert got.to_record() == want.to_record(), (a, b)


# -- per-term operations against the dense coefficient list --------------------
#
# A series is modelled as (grid, lead, valid_to, coeffs) with one CycNumber per
# grid step, coeffs[i] the coefficient of q^((lead + i)/grid).  ``normal`` is
# the normal form written out independently of QSeries: coefficients demoted,
# leading zeros trimmed, the grid divided by the gcd of the grid, the lead,
# valid_to and the offsets of the nonzero terms; zero is stored on grid 1
# with its window floored.

_CYC_ZERO, _CYC_ONE = CycNumber.zero(), CycNumber.one()


def normal(grid, lead, valid_to, coeffs):
    coeffs = [c.demoted() for c in coeffs]
    nonzero = [i for i, c in enumerate(coeffs) if not c.is_zero()]
    if not nonzero:
        v = valid_to // grid
        return 1, v, v, []
    first = nonzero[0]
    g = math.gcd(grid, lead + first, valid_to, *(i - first for i in nonzero))
    return grid // g, (lead + first) // g, valid_to // g, coeffs[first::g]


def record(t):
    grid, lead, valid_to, coeffs = t
    return {"grid": grid, "lead": lead, "valid_to": valid_to,
            "coeffs": [c.to_record() for c in coeffs]}


def dense(s: QSeries):
    return s.grid, s.lead, s.valid_to, list(s.coeffs)


def d_regrid(t, grid):
    g, lead, valid_to, coeffs = t
    m = grid // g
    out = [_CYC_ZERO] * ((valid_to - lead) * m)
    out[::m] = coeffs
    return grid, lead * m, valid_to * m, out


def d_mul(x, y):
    g = math.lcm(x[0], y[0])
    (_, la, va, ca), (_, lb, vb, cb) = d_regrid(x, g), d_regrid(y, g)
    valid, lead = min(va + lb, vb + la), la + lb
    if valid <= lead or not ca or not cb:
        return normal(g, valid, valid, [])
    return normal(g, lead, valid, _convolve(ca, cb, valid - lead))


def d_inverse(t):
    grid, lead, valid_to, coeffs = t
    if not coeffs:
        raise ZeroDivisionError("zero series")
    return normal(grid, -lead, valid_to - 2 * lead, _quotient([_CYC_ONE], coeffs, len(coeffs)))


def d_pow(t, k):
    """The same chain of products as QSeries.__pow__, on dense lists."""
    if k == 0:
        steps = max(1, t[2] - t[1])
        return normal(1, 0, steps, [_CYC_ONE] + [_CYC_ZERO] * (steps - 1))
    base = d_inverse(t) if k < 0 else t
    k, result = abs(k), None
    while k:
        if k & 1:
            result = base if result is None else d_mul(result, base)
        k >>= 1
        if k:
            base = d_mul(base, base)
    return result


def d_shift(t, num, den):
    g = math.lcm(t[0], den)
    _, lead, valid_to, coeffs = d_regrid(t, g)
    d = num * (g // den)
    return normal(g, lead + d, valid_to + d, coeffs)


def d_str(t):
    """The text form: nonzero terms in order, unit coefficients folded."""
    grid, lead, _, coeffs = t
    parts = []
    for i, c in enumerate(coeffs):
        if c.is_zero():
            continue
        e = Fraction(lead + i, grid)
        q = "" if e == 0 else "q" if e == 1 else f"q^{e}" if e.denominator == 1 else f"q^({e})"
        if not q:
            parts.append(str(c) if c.is_rational() else f"({c})")
        elif c == 1 or c == -1:
            parts.append(q if c == 1 else f"-{q}")
        else:
            parts.append(f"{c.as_rational()}*{q}" if c.is_rational() else f"({c})*{q}")
    if not parts:
        return "0"
    return parts[0] + "".join(f" - {p[1:]}" if p.startswith("-") else f" + {p}"
                              for p in parts[1:])


def same(got: QSeries, want, exact_orders=True):
    """``got`` equals the dense model ``want``: in the wire form, or, when
    several coefficient orders meet in a quotient, in value and window."""
    if exact_orders:
        assert got.to_record() == record(want)
    else:
        assert dense(got)[:3] == want[:3] and list(got.coeffs) == want[3]


def rand_scalar(rng, kind):
    pick = rng.randrange(4)
    if pick == 0:
        return rng.choice((0, Fraction(0), CycNumber.zero(), CycNumber.make(12, [0] * 4)))
    if pick == 1:
        return rng.choice((-3, -1, 1, 2, 7))
    if pick == 2:
        return Fraction(rng.choice((-5, 1, 3)), rng.choice((2, 4, 9)))
    order = rng.choice((1, 3, 4, 6, 12)) if kind == "mixed" else \
        int(kind[3:]) if kind.startswith("cyc") else rng.choice((1, 3, 12))
    while True:
        c = CycNumber.make(order, [Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                                   for _ in range(euler_phi(order))])
        if not c.is_zero():
            return c


@pytest.mark.parametrize("kind", KINDS)
def test_scalar_product_matches_dense(kind):
    rng = random.Random(f"scale-{kind}")
    for _ in range(40):
        s, c = rand_series(rng, kind), rand_scalar(rng, kind)
        grid, lead, valid_to, coeffs = dense(s)
        if c == 0:
            want = normal(grid, valid_to, valid_to, [])
        else:
            want = normal(grid, lead, valid_to, [x * c for x in coeffs])
        same(s * c, want)
        same(c * s, want)


@pytest.mark.parametrize("kind", KINDS)
def test_negation_shift_and_regrid_match_dense(kind):
    rng = random.Random(f"shift-{kind}")
    for _ in range(40):
        s = rand_series(rng, kind)
        grid, lead, valid_to, coeffs = t = dense(s)
        same(-s, normal(grid, lead, valid_to, [-x for x in coeffs]))
        num, den = rng.randint(-7, 7), rng.choice((1, 2, 3, 12))
        same(s.shift(num, den), d_shift(t, num, den))
        m = rng.choice((1, 2, 5, 12))
        # A refined series is kept on the grid it was asked for.
        assert s.regrid(grid * m).to_record() == record(d_regrid(t, grid * m))
        if grid > 1:
            with pytest.raises(ValueError):
                s.regrid(grid * m + 1)


@pytest.mark.parametrize("kind", KINDS)
def test_powers_match_dense(kind):
    rng = random.Random(f"pow-{kind}")
    for _ in range(12):
        s = rand_series(rng, kind)
        if kind in ("cyc60", "mixed") and len(s.coeffs) > 8:
            continue  # keeps the dense schoolbook chain short
        for k in range(-3, 4):
            if k < 0 and s.is_zero():
                with pytest.raises(ZeroDivisionError):
                    s ** k
                continue
            same(s ** k, d_pow(dense(s), k), exact_orders=k >= 0 or not mixed_orders(s))


@pytest.mark.parametrize("kind", KINDS)
def test_coefficients_match_dense(kind):
    rng = random.Random(f"coeff-{kind}")
    for _ in range(40):
        s = rand_series(rng, kind)
        grid, lead, valid_to, coeffs = dense(s)
        for k in range(2 * min(lead, 0) - 4, 2 * valid_to + 3):
            e = Fraction(k, 2 * grid)
            if e >= Fraction(valid_to, grid):
                with pytest.raises(PrecisionError):
                    s.coefficient(e)
                continue
            i = k // 2 - lead if k % 2 == 0 else -1
            want = coeffs[i] if 0 <= i < len(coeffs) else _CYC_ZERO
            assert s.coefficient(e).to_record() == want.demoted().to_record(), (s, e)
        if s.is_zero():
            with pytest.raises(ValueError):
                s.leading_coefficient()
        else:
            assert s.leading_coefficient().to_record() == coeffs[0].to_record()
            assert not coeffs[0].is_zero()


@pytest.mark.parametrize("kind", KINDS)
def test_equality_and_text_match_dense(kind):
    rng = random.Random(f"eq-{kind}")
    one12 = CycNumber.make(12, [1, 0, 0, 0])
    for _ in range(40):
        a, b = rand_series(rng, kind), rand_series(rng, kind)
        assert (a == b) == (dense(a) == dense(b)), (a, b)
        assert str(a) == d_str(dense(a)), a
        # Equal values compare equal across coefficient orders and strides.
        assert a == a * one12 and a == -(-a)
        assert a == a + QSeries.zero(a.valid_to + 5 * a.grid, a.grid)
        assert (a == 5) is False
        if not a.is_zero():
            bumped = a + QSeries.monomial(1, a.lead, a.grid)
            assert (bumped == a) is (dense(bumped) == dense(a)) is False


@pytest.mark.parametrize("kind", KINDS)
def test_record_round_trip_and_construction(kind):
    rng = random.Random(f"record-{kind}")
    for _ in range(40):
        s = rand_series(rng, kind)
        back = QSeries.from_record(s.to_record())
        assert back.to_record() == s.to_record() and back == s
        window = (back.grid, back.lead, back.valid_to, back.step)
        assert window == (s.grid, s.lead, s.valid_to, s.step)
        values = [rand_coeff(rng, kind) for _ in range(rng.randint(1, 12))]
        lead, grid = rng.randint(-4, 4), rng.choice((1, 2, 12))
        valid_to = lead + len(values) + rng.randint(0, 4)
        built = QSeries.from_coeffs(values, lead=lead, grid=grid, valid_to=valid_to)
        padded = [CycNumber.from_rational(v) if not isinstance(v, CycNumber) else v
                  for v in values] + [_CYC_ZERO] * (valid_to - lead - len(values))
        same(built, normal(grid, lead, valid_to, padded))


def assert_stored_form(s: QSeries):
    """Integers over one positive denominator in lowest terms, at order 1
    exactly when every term is rational, per-term orders only where two
    different non-rational orders sit side by side."""
    phi = euler_phi(s.order)
    assert s.den > 0 and len(s.nums) == phi * len(s.terms)
    if s.is_zero():
        assert (s.order, s.den, s.orders) == (1, 1, None)
        return
    assert math.gcd(s.den, *s.nums) == 1 and any(s.nums[:phi])
    kinds = {c.order for c in s.terms} - {1}
    assert (s.order == 1) == (not kinds)
    assert (s.orders is None) == (kinds <= {s.order})


@pytest.mark.parametrize("kind", KINDS)
def test_results_are_stored_in_lowest_terms(kind):
    rng = random.Random(f"stored-{kind}")
    for _ in range(30):
        a, b, c = rand_series(rng, kind), divisor(rng, kind), rand_scalar(rng, kind)
        for s in (a, b, a + b, a - b, a * b, a / b, b.inverse(), a * c, -a, a.shift(1, 12)):
            assert_stored_form(s)


# -- reading a series record -------------------------------------------------
# oracle_make and oracle_flatten are CycNumber.make and qseries._flatten as
# they were when QSeries.from_record built one CycNumber per coefficient.

def oracle_make(order: int, coeffs) -> CycNumber:
    _check_order(order)
    vals = tuple(c if isinstance(c, Fraction) else parse_rational(c) for c in coeffs)
    phi = euler_phi(order)
    if len(vals) != phi:
        raise ValueError(f"order {order} needs {phi} coefficients, got {len(vals)}")
    return CycNumber(order, vals)


def oracle_flatten(values) -> tuple:
    values = list(values)
    if all(type(v) is int for v in values):
        return 1, 1, values, None
    cs = [c and c.demoted() for c in map(_coerce, values)]
    if None in cs:
        raise TypeError(f"cannot use {values[cs.index(None)]!r} as a series coefficient")
    kinds = {c.order for c in cs} - {1}
    order, den = math.lcm(*kinds), math.lcm(*(c.den for c in cs))
    nums = [x * (den // c.den) for c in cs for x in c.lift(order).num]
    return order, den, nums, tuple(c.order for c in cs) if len(kinds) > 1 else None


def oracle_from_record(record: dict) -> QSeries:
    grid, lead, valid_to = int(record["grid"]), int(record["lead"]), int(record["valid_to"])
    values = [oracle_make(int(r["order"]), r["coeffs"]) for r in record["coeffs"]]
    return QSeries._normal(grid, lead, valid_to, 1, *oracle_flatten(values))


# Wire forms of a coordinate: integers, fractions, decimals, exponents, the
# U+2212 minus sign, surrounding whitespace, explicit signs and JSON numbers.
WIRE = ["0", "0", "1", "-2", "17", "3/4", "-5/6", "10/4", "1.25", "-0.5", "2e1", "1E-1",
        "\u22123", "\u22121/2", " 4 ", "+5", "\t-6\n", 3, 0, -1, 0.5]


def rand_record(rng) -> dict:
    kinds = rng.choice([(1,), (3,), (12,), (1, 3), (1, 4), (3, 4), (1, 3, 4, 12), (4, 12)])
    lead, n = rng.randint(-6, 6), rng.randint(0, 14)
    coeffs = []
    for _ in range(n):
        order = rng.choice(kinds)
        phi = euler_phi(order)
        shape = rng.random()
        if shape < 0.2:  # zero
            coords = ["0"] * phi
        elif shape < 0.35:  # rational, at any order
            coords = [rng.choice(WIRE)] + ["0"] * (phi - 1)
        else:
            coords = [rng.choice(WIRE) for _ in range(phi)]
        coeffs.append({"order": order, "coeffs": coords})
    return {"grid": rng.choice([1, 2, 3, 12]), "lead": lead,
            "valid_to": lead + n, "coeffs": coeffs}


def broken(rng, record: dict) -> dict:
    """``record`` with one fault: a malformed coefficient, or a window that
    does not fit the coefficients, or a grid below 1."""
    record = {**record, "coeffs": [dict(c) for c in record["coeffs"]]}
    fault = rng.randrange(11)
    if fault == 0:
        record["valid_to"] = record["lead"] + len(record["coeffs"]) + 1
    elif fault == 1:
        record["grid"] = 0
    elif fault == 2:
        record["coeffs"].append({"order": 360, "coeffs": ["0", "1"] + ["0"] * 94})
        record["coeffs"].append({"order": 7, "coeffs": ["0", "1", "0", "0", "0", "0"]})
    else:
        if not record["coeffs"]:
            record["coeffs"].append({"order": 1, "coeffs": ["1"]})
        c = rng.choice(record["coeffs"])
        if fault == 3:
            c["coeffs"] = c["coeffs"] + ["1"]
        elif fault == 4:
            c["coeffs"] = c["coeffs"][1:]
        elif fault in (5, 6):
            c["order"] = (0, 361)[fault - 5]
        elif fault == 7:
            c["order"] = "twelve"
        elif fault == 8:
            del c["order"]
        elif fault == 9:
            c["coeffs"] = len(c["coeffs"])  # not a list
        else:
            c["coeffs"] = [*c["coeffs"][:-1], ("x", "1/0", None, "1//2")[rng.randrange(4)]]
    return record


def _read_outcome(read, record):
    try:
        return read(record)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def test_record_reader_matches_the_cycnumber_route():
    rng, kinds = random.Random("records"), set()
    for i in range(400):
        record = rand_record(rng)
        if i % 2:
            record = broken(rng, record)
        got, want = _read_outcome(QSeries.from_record, record), _read_outcome(oracle_from_record,
                                                                               record)
        if isinstance(want, QSeries):
            assert isinstance(got, QSeries) and got.to_record() == want.to_record()
            assert (got.grid, got.lead, got.valid_to, got.step, got.order, got.den, got.nums,
                    got.orders) == (want.grid, want.lead, want.valid_to, want.step, want.order,
                                    want.den, tuple(want.nums), want.orders)
            assert_stored_form(got)
            kinds.add(("series", got.order, got.orders is not None, got.den > 1))
        else:
            assert got == want, record
            kinds.add(want[0])
    # Every outcome was reached: mixed orders, denominators, and each error type.
    assert {KeyError, TypeError, ValueError, ZeroDivisionError} <= kinds
    assert ("series", 12, True, True) in kinds and ("series", 1, False, True) in kinds


def test_record_reader_builds_no_field_elements(monkeypatch):
    rng, built = random.Random("no-cyc"), []
    records = [rand_record(rng) for _ in range(20)]
    init = CycNumber.__init__
    monkeypatch.setattr(CycNumber, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    for record in records:
        QSeries.from_record(record)
    assert built == []

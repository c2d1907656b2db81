"""Field arithmetic against the Fraction routines it replaced.

``_mul_mod`` (schoolbook product modulo Phi_N over Fractions) and
``_poly_ext_inverse`` (extended Euclid over Q[x]) below are the routines
``CycNumber`` multiplied and inverted with before it stored integer
coordinates over one denominator.  They are kept here unchanged as the
reference: on seeded random elements every product, sum, difference,
inverse, lift and reduction must give the same ``coeffs`` and
``to_record()``, and every result must be in lowest terms.

The integer kernels ``_kronecker`` and ``_mul`` are compared with schoolbook
truncated products, on seeded operands whose largest entries meet below the
cut, at it, or only past it, where the mask drops them; and the slot width
of ``_slot_width`` with the whole-list bound it refines.

``kronecker_one_point`` is ``_kronecker`` as it was before the two-point
route (Harvey's KS2) took the products from ``_TWO_POINT_BYTES`` of packed
operand up: one product of the two packed operands at every size.
``_kronecker`` must give the same coefficients, and those of ``schoolbook``,
on both sides of that threshold, on odd and even sizes, unequal lengths, an
empty operand and squares of one list; the test checks that both routes
were taken.

``kronecker_field_mul`` is the route ``_mul`` took for two field elements
(n = 1) before it convolved their coordinates directly: both padded into
2*phi - 1 slots, one ``_kronecker`` product, then the reduction.  The direct
route must give the same coordinates at every order from 2 to 60, on zero
and short coordinate lists and on coordinates of 1 to 200 bits of either
sign.

``fraction_cyclotomic_polynomial`` is ``cyclotomic_polynomial`` as it was
before it divided in ints: ``_poly_divmod`` (kept here with ``_poly_trim``,
which ``_poly_ext_inverse`` also uses) over Fractions.  The integer division
must give the same tuple, all ints, for every order from 1 to 360.

``fraction_parse_rational`` is ``parse_rational`` as it was before plain
integer strings skipped ``Fraction``.  On integers, signs, padding, digit
separators, non-ASCII digits (where ``int`` and ``Fraction`` word their
errors differently), decimals, exponents, a zero denominator and integers
past Python's 4,300-digit conversion limit, ``parse_rational`` must give the
same value or raise the same exception type with the same message, and
``CycNumber.make`` the same element.  An exponent past that limit is
refused with a ValueError before ``Fraction`` builds 10^exponent.
"""

import functools
import math
import random
import sys
from fractions import Fraction

import pytest

from vvmf.exactfield import (_PAIRWISE_SLOTS, _TWO_POINT_BYTES, MAX_FIELD_ORDER, CycNumber, _bias,
                             _kronecker, _mul, _pack, _reduction_rows, _slot_width,
                             cyclotomic_polynomial, euler_phi, parse_rational)

_ZERO = Fraction(0)
_ONE = Fraction(1)

ORDERS = [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 60]
MIXED = [(1, 12), (3, 4), (4, 12), (3, 5), (4, 15), (12, 15), (1, 60), (9, 12)]


def _mul_mod(order: int, a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    phi = len(a)
    if phi == 1:
        return (a[0] * b[0],)
    prod = [_ZERO] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    rows = _reduction_rows(order)
    out = list(prod[:phi])
    for k in range(phi, 2 * phi - 1):
        c = prod[k]
        if c:
            row = rows[k]
            for j in range(phi):
                if row[j]:
                    out[j] += c * row[j]
    return tuple(out)


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder of polynomials (constant term first) over Q or
    Q(zeta); den[-1] must be nonzero."""
    num = list(num)
    inv = Fraction(1) / den[-1]
    quot = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = quot[i] = num[i + len(den) - 1] * inv
        if c != 0:
            for j, d in enumerate(den):
                num[i + j] = num[i + j] - c * d
    return _poly_trim(quot), _poly_trim(num[:len(den) - 1])


@functools.lru_cache(maxsize=None)
def fraction_cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the cyclotomic polynomial Phi_order.

    Monic, integer coefficients, degree euler_phi(order).  Computed by
    dividing x^order - 1 by Phi_d for every proper divisor d.
    """
    if order < 1:
        raise ValueError(f"cyclotomic order must be positive, got {order}")
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            poly, rem = _poly_divmod(poly, fraction_cyclotomic_polynomial(d))
            if rem or any(c.denominator != 1 for c in poly):
                raise ArithmeticError("cyclotomic division was not exact")
    return tuple(int(c) for c in poly)


def _poly_ext_inverse(coeffs: tuple[Fraction, ...], modulus: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Inverse of a nonzero polynomial modulo the (irreducible) modulus.

    Extended Euclid over Q[x]; returns coefficients of length phi.
    """
    phi = len(modulus) - 1
    r0 = [Fraction(c) for c in modulus]
    r1 = _poly_trim([Fraction(c) for c in coeffs])
    s0, s1 = [], [_ONE]
    while len(r1) > 1:
        q, r = _poly_divmod(r0, r1)
        # s_next = s0 - q * s1
        s_next = list(s0) + [_ZERO] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    if sj:
                        s_next[i + j] -= qi * sj
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim(s_next)
    if not r1:
        raise ZeroDivisionError("element is zero modulo the cyclotomic polynomial")
    scale = Fraction(1) / r1[0]
    out = [c * scale for c in s1]
    out += [_ZERO] * (phi - len(out))
    return tuple(out[:phi])


def ref_lift(order, coeffs, big):
    """Order-``big`` coordinates of an order-``order`` element, over Fractions."""
    rows = _reduction_rows(big)
    out = [_ZERO] * euler_phi(big)
    for i, c in enumerate(coeffs):
        for j, r in enumerate(rows[(big // order) * i % big]):
            out[j] += c * r
    return tuple(out)


def ref_binary(a, b, op):
    n = math.lcm(a.order, b.order)
    x, y = ref_lift(a.order, a.coeffs, n), ref_lift(b.order, b.coeffs, n)
    if op == "mul":
        return n, _mul_mod(n, x, y)
    sign = 1 if op == "add" else -1
    return n, tuple(u + sign * v for u, v in zip(x, y))


def ref_inverse(a):
    if a.order == 1:
        return (_ONE / a.coeffs[0],)
    return _poly_ext_inverse(a.coeffs, cyclotomic_polynomial(a.order))


def random_element(rng, order, integral=False):
    def coord():
        if rng.random() < 0.25:
            return _ZERO
        return Fraction(rng.randint(-9, 9), 1 if integral else rng.randint(1, 6))
    return CycNumber.make(order, [coord() for _ in range(euler_phi(order))])


def assert_matches(got, order, coeffs):
    assert got.order == order
    assert got.coeffs == tuple(coeffs)
    assert got.to_record() == {"order": order, "coeffs": [str(c) for c in coeffs]}
    assert all(type(x) is int for x in got.num) and type(got.den) is int
    assert got.den > 0 and math.gcd(got.den, *got.num) == 1


def pairs():
    rng = random.Random(4)
    out = [(n, n) for n in ORDERS] + MIXED + [(m, n) for n, m in MIXED]
    for n, m in out:
        for k in range(6):
            yield rng, n, m, k < 2


@pytest.mark.parametrize("op", ["mul", "add", "sub"])
def test_binary_against_fraction_oracle(op):
    for rng, n, m, integral in pairs():
        a, b = random_element(rng, n, integral), random_element(rng, m, integral)
        got = {"mul": a * b, "add": a + b, "sub": a - b}[op]
        assert_matches(got, *ref_binary(a, b, op))


def test_rational_scaling_against_fraction_oracle():
    for rng, n, _, integral in pairs():
        a = random_element(rng, n, integral)
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        assert_matches(a * f, n, [c * f for c in a.coeffs])
        assert_matches(3 * a, n, [3 * c for c in a.coeffs])


def test_inverse_against_extended_euclid():
    rng = random.Random(5)
    for n in ORDERS:
        for k in range(8):
            a = random_element(rng, n, integral=k < 2)
            if a.is_zero():
                continue
            inv = a.inverse()
            assert_matches(inv, n, ref_inverse(a))
            assert a * inv == 1


def test_lift_and_reduce_against_fraction_oracle():
    rng = random.Random(6)
    for n in ORDERS:
        for m in (2, 3, 4):
            if n * m > 60:
                continue
            a = random_element(rng, n)
            lifted = a.lift(n * m)
            assert_matches(lifted, n * m, ref_lift(n, a.coeffs, n * m))
            assert_matches(lifted.reduce_order_to(n), n, a.coeffs)


def test_fraction_coordinates_are_normalised():
    a = CycNumber(4, (Fraction(2, 4), Fraction(-3, 6)))
    b = CycNumber(4, (-6, 6), -12)
    assert (a.num, a.den) == (b.num, b.den) == ((1, -1), 2)
    assert a == b and a.coeffs == (Fraction(1, 2), Fraction(-1, 2))
    assert CycNumber(3, (0, 0), 7).den == 1


def test_dense_inverse_at_the_order_bound():
    """One dense element of Q(zeta_360), the largest supported field."""
    rng = random.Random(360)
    a = CycNumber.make(360, [Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 3))
                             for _ in range(euler_phi(360))])
    assert a * a.inverse() == 1


def schoolbook(xs, ys, size):
    """First ``size`` coefficients of xs * ys, pair by pair."""
    out = [0] * size
    for i, x in enumerate(xs[:size]):
        if x:
            for j, y in enumerate(ys[:size - i]):
                out[i + j] += x * y
    return out


def schoolbook_field(xs, ys, n, order):
    """First n coefficients of the product of two series over Q(zeta_order),
    phi flat coordinates per coefficient: each pair as a polynomial in zeta,
    reduced modulo Phi_order at the end."""
    phi = euler_phi(order)
    terms = [[0] * (2 * phi - 1) for _ in range(n)]
    for a in range(min(n, len(xs) // phi)):
        for b in range(min(n - a, len(ys) // phi)):
            for k, c in enumerate(schoolbook(xs[a * phi:(a + 1) * phi],
                                             ys[b * phi:(b + 1) * phi], 2 * phi - 1)):
                terms[a + b][k] += c
    rows = _reduction_rows(order)
    return [sum(c * rows[k][t] for k, c in enumerate(term)) for term in terms for t in range(phi)]


def whole_list_width(xs, ys):
    """Slot bytes from the bound min(len) * max|x| * max|y| over whole lists."""
    bound = min(len(xs), len(ys)) * max(map(abs, xs), default=0) * max(map(abs, ys), default=0)
    return (bound.bit_length() + 8) // 8 if bound else 0


def kernel_operands(size, seed):
    """Named (xs, ys) pairs of about ``size`` slots each.  ``lo`` and ``hi``
    are the entries below and from ceil(size/2); the pairs of two ``hi``
    entries land at or above ``size``, where the mask drops them, and the
    ``middle-pair`` entries, the last ``lo`` ones, meet at size - 1 when
    size is odd."""
    rng = random.Random(f"kernel:{size}:{seed}")
    h, mid = (size + 1) // 2, (size - 1) // 2

    def halves(lo, hi, length=size):
        return [rng.choice([-1, 0, 1]) * rng.randint(1, lo) if lo else 0 for _ in range(h)] \
            + [rng.choice([-1, 1]) * rng.randint(1, hi) if hi else 0 for _ in range(length - h)]

    small, big, huge = 9, 1 << 90, 1 << 400
    return {
        "random": (halves(small, small), halves(small, small)),
        "both-high-halves-huge": (halves(small, huge), halves(small, huge)),
        "x_lo*y_hi-largest": (halves(big, small), halves(small, big)),
        "x_hi*y_lo-largest": (halves(small, big), halves(big, small)),
        "y_lo-zero": (halves(small, huge), halves(0, small)),
        "both-lows-zero": (halves(0, huge), halves(0, huge)),
        "middle-pair": tuple(halves(small, small)[:mid] + [big] + halves(small, small)[mid + 1:]
                             for _ in range(2)),
        "bound-attained": ([255] * size, [-255] * size),
        "short-and-long": (halves(small, big, size // 3), halves(big, huge, size + 5)),
        "huge-past-size": (halves(small, small) + [huge] * 3, halves(small, small)),
        "one-empty": ([], halves(small, small)),
    }


@pytest.mark.parametrize("size", [1, 2, 57, 127, 128, 129, 300])
def test_kronecker_against_schoolbook(size):
    for seed in range(2):
        for name, (xs, ys) in kernel_operands(size, seed).items():
            assert _kronecker(xs, ys, size) == schoolbook(xs, ys, size), name
            assert _kronecker(ys, xs, size) == schoolbook(ys, xs, size), name


@pytest.mark.parametrize("size", [1, 2, 57, 127, 128, 129, 300])
def test_slot_width_refines_the_whole_list_bound(size):
    for seed in range(2):
        for name, (xs, ys) in kernel_operands(size, seed).items():
            xs, ys = xs[:size], ys[:size]
            got, whole = _slot_width(xs, ys, size), whole_list_width(xs, ys)
            if size < _PAIRWISE_SLOTS:
                assert got == whole, name
            else:
                assert got <= whole, name
    xs, ys = kernel_operands(size, 0)["both-high-halves-huge"]
    assert (_slot_width(xs, ys, size) < whole_list_width(xs, ys)) is (size >= _PAIRWISE_SLOTS)


def kronecker_one_point(xs, ys, size):
    """First ``size`` coefficients of xs * ys by one product of the packed
    operands, as ``_kronecker`` computed them at every size."""
    xs, ys = xs[:size], ys[:size]
    width = _slot_width(xs, ys, size)
    if not width:
        return [0] * size
    half, mask = 1 << (8 * width - 1), (1 << (8 * width * size)) - 1
    packed = (_pack(xs, width) * _pack(ys, width) + _bias(size, width)) & mask
    data = packed.to_bytes(size * width, "little")
    return [int.from_bytes(data[i:i + width], "little") - half
            for i in range(0, size * width, width)]


def at_width(size, width, rng):
    """(xs, ys) of ``size`` entries whose product takes slots of exactly
    ``width`` bytes: entries 0 or +-m, m about sqrt(2^(8*width - 8) / size),
    and both lists start with m."""
    m = math.isqrt((1 << (8 * width - 8)) // size)
    xs, ys = ([m] + [rng.choice([-m, 0, m]) for _ in range(size - 1)] for _ in range(2))
    assert _slot_width(xs, ys, size) == width
    return xs, ys


def two_point_operands(size, seed):
    """``kernel_operands`` and pairs whose packed size lies just below and
    at ``_TWO_POINT_BYTES``, so that every size up to it takes both routes, and
    one coefficient times a list wide enough for the two-point route."""
    rng = random.Random(f"two-point:{size}:{seed}")
    cut = -(-_TWO_POINT_BYTES // size)
    ops = kernel_operands(size, seed)
    if cut > 1:
        ops["just-below"] = at_width(size, cut - 1, rng)
    ops["at-threshold"] = at_width(size, cut, rng)
    # One coefficient times size wide ones: slots of cut + 1 bytes.
    ops["one-by-wide"] = ([rng.choice([-1, 1])], [rng.choice([-1, 1]) << 8 * cut
                                                  for _ in range(size)])
    return ops


@pytest.mark.parametrize("size", [1, 2, 3, 16, 57, 128, 129, 301])
def test_kronecker_routes_against_one_point_and_schoolbook(size):
    routes = set()
    for seed in range(2):
        for name, (xs, ys) in two_point_operands(size, seed).items():
            routes.add(size * _slot_width(xs[:size], ys[:size], size) >= _TWO_POINT_BYTES)
            for a, b in ((xs, ys), (ys, xs), (xs, xs)):
                got = _kronecker(a, b, size)
                assert got == kronecker_one_point(a, b, size), name
                assert got == schoolbook(a, b, size), name
            assert _kronecker(xs, xs, size) == _kronecker(xs, list(xs), size), name
    assert routes == {False, True}


@pytest.mark.parametrize("order, n", [(1, 300), (12, 19), (12, 43), (12, 150)])
def test_mul_squares_against_schoolbook(order, n):
    """One list as both operands packs once: at phi 4 the spaced list is
    shared, and n = 19, 43 and 150 put the kernel at 133, 301 and 1,050 slots."""
    phi = euler_phi(order)
    for name, (xs, _) in kernel_operands(n, 0).items():
        xs = [v * (r == 0) + v % 7 * (r > 0) for v in xs for r in range(phi)]
        want = schoolbook_field(xs, xs, n, order)
        assert _mul(xs, xs, n, order) == want, name
        assert _mul(xs, list(xs), n, order) == want, name


@pytest.mark.parametrize("order, n", [(1, 127), (1, 128), (1, 129), (1, 300),
                                      (12, 18), (12, 19), (12, 43), (12, 127), (12, 300)])
def test_mul_against_schoolbook(order, n):
    """n coefficients, phi = 1 or 4: at phi 4 the kernel runs on 7*n slots,
    so n = 18, 19 and 43 put it at 126, 133 and 301."""
    phi = euler_phi(order)
    for seed in range(2):
        for name, (xs, ys) in kernel_operands(n, seed).items():
            xs, ys = ([v * (r == 0) + v % 7 * (r > 0) for v in zs for r in range(phi)]
                      for zs in (xs, ys))
            assert _mul(xs, ys, n, order) == schoolbook_field(xs, ys, n, order), name


def kronecker_field_mul(xs, ys, order):
    """The product of two field elements through one Kronecker-packed
    product, as ``_mul`` computed it at n = 1."""
    phi = euler_phi(order)
    span = 2 * phi - 1
    pad = [0] * (phi - 1)
    xs, ys = ([v for i in range(0, min(len(zs), phi), phi) for v in [*zs[i:i + phi], *pad]]
              for zs in (xs, ys))
    flat = _kronecker(xs, ys, span)
    coords = flat[:phi]
    for c, row in zip(flat[phi:span], _reduction_rows(order)[phi:span]):
        if c:
            coords = [x + c * r for x, r in zip(coords, row)]
    return coords


def field_operands(order, rng):
    """Named (xs, ys) coordinate lists for one order: dense, sparse, zero,
    short and empty lists, with entries of 1 to 200 bits and either sign,
    and lists longer than phi, of which only the first phi coordinates
    count (n = 1 keeps the first coefficient of a series product)."""
    phi = euler_phi(order)

    def coords(length, bits, density=1.0):
        return [rng.choice([-1, 1]) * rng.randint(1, (1 << rng.randint(1, bits)) - 1)
                if rng.random() < density else 0 for _ in range(length)]

    short = rng.randint(0, max(phi - 1, 0))
    return {
        "dense-small": (coords(phi, 4), coords(phi, 4)),
        "dense-200-bit": (coords(phi, 200), coords(phi, 200)),
        "mixed-widths": (coords(phi, 200), coords(phi, 8)),
        "sparse": (coords(phi, 64, 0.3), coords(phi, 64, 0.3)),
        "zero": ([0] * phi, coords(phi, 200)),
        "both-zero": ([0] * phi, [0] * phi),
        "short": (coords(short, 100), coords(phi, 100)),
        "both-short": (coords(short, 30), coords(rng.randint(0, phi), 30)),
        "empty": ([], coords(phi, 50)),
        "all-ones": ([1] * phi, [-1] * phi),
        "past-phi": (coords(2 * phi, 60), coords(phi + 1, 60)),
    }


@pytest.mark.parametrize("orders", [range(2, 21), range(21, 41), range(41, 61)],
                         ids=["2-20", "21-40", "41-60"])
def test_field_mul_against_the_kronecker_route(orders):
    for order in orders:
        rng = random.Random(f"field-mul:{order}")
        phi = euler_phi(order)
        for seed in range(3):
            for name, (xs, ys) in field_operands(order, rng).items():
                want = kronecker_field_mul(xs, ys, order)
                assert len(want) == phi
                assert _mul(xs, ys, 1, order) == want, (order, seed, name)
                assert _mul(ys, xs, 1, order) == kronecker_field_mul(ys, xs, order), \
                    (order, seed, name)


def fraction_parse_rational(text) -> Fraction:
    """Parse the wire form of a rational: base-10 'p/q' or 'p', optional sign."""
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    return Fraction(str(text).replace("−", "-").strip())


def parse_outcome(parse, text):
    try:
        return "value", parse(text)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


WIRE_STRINGS = ["+5", " 7 ", "−3", "007", "-0", "1_000", "1__0", "١٢", "²", "1.5", "1e3", "3/0",
                "9" * 5000, "-" + "9" * 5000, "1" + "0" * 4299, "", "-", "--5", "- 5",
                "3/4", " −5/2 ", "12345678901234567890", 12, -3, Fraction(2, 6)]


@pytest.mark.parametrize("text", WIRE_STRINGS, ids=lambda t: repr(t)[:16])
def test_parse_rational_against_the_fraction_parse(text):
    got = parse_outcome(parse_rational, text)
    want = parse_outcome(fraction_parse_rational, text)
    assert got == want
    if got[0] == "value":
        assert type(got[1]) in (int, Fraction)
        args = (text, "1/3")
        assert CycNumber.make(3, args) == CycNumber(3, tuple(map(fraction_parse_rational, args)))


def test_cyclotomic_polynomial_against_the_fraction_division():
    # __wrapped__ runs the integer division itself for every order, not the cache.
    for n in range(1, MAX_FIELD_ORDER + 1):
        got = cyclotomic_polynomial.__wrapped__(n)
        assert got == fraction_cyclotomic_polynomial(n), n
        assert all(type(c) is int for c in got)


@pytest.mark.parametrize("text", ["1e30000000", "0e99999999", "1e-30000000", "1E+3_000_000"])
def test_parse_rational_refuses_exponents_past_the_digit_limit(text):
    with pytest.raises(ValueError, match="Python's limit for integer-to-string conversion"):
        parse_rational(text)


def test_parse_rational_exponents_at_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert parse_rational(f"1e{limit}") == 10 ** limit
    assert parse_rational(f"-2.5e-{limit}") == Fraction(-25, 10 ** (limit + 1))
    try:
        # With the limit off, the exponent is not bounded either.
        sys.set_int_max_str_digits(0)
        assert parse_rational(f"1e{limit + 1}") == 10 ** (limit + 1)
    finally:
        sys.set_int_max_str_digits(limit)

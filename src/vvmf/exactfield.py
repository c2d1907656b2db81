"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, zeta_N, ..., zeta_N^(phi(N)-1)
modulo the N-th cyclotomic polynomial, as integer coordinates over one
positive denominator kept in lowest terms, so representations are canonical
and equality is coordinate-wise:

    >>> x = CycNumber.make(4, ["1/2", "3/4"])
    >>> x.num, x.den
    ((2, 3), 4)

A product convolves the integer coordinates directly and reduces modulo
Phi_N, as the Kronecker kernel that multiplies series does per coefficient;
the inverse divides the product of the Galois conjugates by the norm.
Linear algebra over the field eliminates on rows of integer coordinates
(``_gauss_jordan``), as ``reduce_order_to`` and the matrices of
``vvmf.replib`` do.

Mixed-order arithmetic lifts both operands to the field of order
lcm(order_a, order_b) first.  All values are immutable and all operations are
pure, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import add

from .errors import UsageError

# Orders above this are rejected rather than allowed to degrade performance
# silently; everything in this package lives in Q(zeta_12) and subfields.
MAX_FIELD_ORDER = 360


def euler_phi(n: int) -> int:
    """Euler's totient of a positive integer."""
    if n < 1:
        raise ValueError(f"euler_phi needs a positive integer, got {n}")
    result = m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the cyclotomic polynomial Phi_order.

    Monic, integer coefficients, degree euler_phi(order).  Computed by
    dividing x^order - 1 by Phi_d for every proper divisor d, in integers,
    as every Phi_d is monic.

    >>> cyclotomic_polynomial(3)
    (1, 1, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if order < 1:
        raise ValueError(f"cyclotomic order must be positive, got {order}")
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            # In place: poly[k:] ends as the quotient, poly[:k] as the remainder.
            den = cyclotomic_polynomial(d)
            k = len(den) - 1
            for i in range(len(poly) - 1, k - 1, -1):
                for j, x in enumerate(den[:k]):
                    poly[i - k + j] -= poly[i] * x
            if any(poly[:k]):
                raise ArithmeticError("cyclotomic division was not exact")
            poly = poly[k:]
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(order: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_order as dense integer rows.

    Covers k up to max(2*phi - 2, order - 1): products need the first range,
    root_of_unity, lifts and conjugates the second.
    """
    phi = euler_phi(order)
    modulus = cyclotomic_polynomial(order)
    count = max(2 * phi - 1, order)
    rows = [[0] * phi for _ in range(count)]
    for k in range(min(phi, count)):
        rows[k][k] = 1
    for k in range(phi, count):
        # x^k = x * x^(k-1), then substitute x^phi = -(lower part of Phi).
        prev = rows[k - 1]
        shifted = [0] + prev[:-1]
        top = prev[-1]
        if top:
            for j in range(phi):
                shifted[j] -= top * modulus[j]
        rows[k] = shifted
    return tuple(tuple(r) for r in rows)


def _mul(xs: list[int], ys: list[int], n: int, order: int) -> list[int]:
    """First n coefficients of the product of two flat coordinate lists, phi
    per coefficient (n = 1: two field elements), with 2*phi-1 slots per
    coefficient; zeta^k for k >= phi is reduced afterwards."""
    phi = euler_phi(order)
    span = 2 * phi - 1
    if n == 1:
        # Two field elements: a direct convolution, no packing.
        flat = [0] * span
        ys = ys[:phi]
        for i, x in enumerate(xs[:phi]):
            if x:
                for j, y in enumerate(ys, i):
                    flat[j] += x * y
    elif phi == 1:
        return _kronecker(xs, ys, n)
    else:
        pad = [0] * (phi - 1)
        # One list twice stays one list, which _kronecker squares.
        spaced = [[v for i in range(0, min(len(zs), n * phi), phi) for v in [*zs[i:i + phi], *pad]]
                  for zs in ((xs,) if xs is ys else (xs, ys))]
        flat = _kronecker(spaced[0], spaced[-1], n * span)
    rows = _reduction_rows(order)[phi:span]
    out = []
    for base in range(0, n * span, span):
        coords = flat[base:base + phi]
        for c, row in zip(flat[base + phi:base + span], rows):
            if c:
                coords = [x + c * r for x, r in zip(coords, row)]
        out += coords
    return out


# From this many slots up, _slot_width also bounds the products pair by
# pair; below it that costs more than the narrower slots save.
_PAIRWISE_SLOTS = 128


def _slot_width(xs: list[int], ys: list[int], size: int) -> int:
    """Bytes per Kronecker slot for the first ``size`` coefficients of xs*ys
    (neither list longer than ``size``), 0 when they are all zero: room for
    a bound on those coefficients and a sign bit.  The bound is min(len) *
    max|x| * max|y|; from _PAIRWISE_SLOTS slots up, when smaller, it is
    min(len) * 2^t, t the largest bitlen(x_i) + bitlen(y_j) over the pairs i
    + j < size, as the pairs from ``size`` up are masked away; 2^t is at
    least every entry, so each still fits its slot."""
    bound = min(len(xs), len(ys)) * max(map(abs, xs), default=0) * max(map(abs, ys), default=0)
    if not bound:
        return 0
    if size >= _PAIRWISE_SLOTS:
        # by[j] = max bitlen(y_j') over j' <= j, so x_i meets at most by[size-1-i].
        by = list(accumulate(map(int.bit_length, ys), max))
        by += [by[-1]] * (size - len(by))
        top = max(map(add, map(int.bit_length, xs), reversed(by)))
        bound = min(bound, min(len(xs), len(ys)) << top)
    return (bound.bit_length() + 8) // 8


# From this many bytes of packed operand (slots times slot width) up,
# _kronecker takes two half-size products instead of one; below it the
# extra packing and decoding cost more than the smaller multiplies save.
_TWO_POINT_BYTES = 1000


def _kronecker(xs: list[int], ys: list[int], size: int) -> list[int]:
    """First ``size`` coefficients of the product of two integer polynomials
    by big-int multiplies: whole-byte slots of ``_slot_width`` carry a bias
    of half their range, so they never borrow, and the mask drops every slot
    from ``size`` up, whatever it holds.  One list twice (xs is ys) is
    packed once and squared.

    From _TWO_POINT_BYTES up, Harvey's KS2 (arXiv:0712.4046): with W bits a
    slot and E, O the even- and odd-indexed coefficients packed at W bits,
    h+- = (E_x +- 2^(W/2) O_x) * (E_y +- 2^(W/2) O_y) are the product at
    +-2^(W/2), so (h+ + h-)/2 packs its even coefficients and
    (h+ - h-)/2^(W/2 + 1) its odd ones, at W bits a slot again."""
    square = xs is ys
    xs, ys = xs[:size], ys[:size]
    width = _slot_width(xs, ys, size)
    if not width:
        return [0] * size
    if size * width < _TWO_POINT_BYTES:
        x = _pack(xs, width)
        return _unpack(x * (x if square else _pack(ys, width)), size, width)
    # Each stage is dropped once the next is built, to bound the peak memory.
    x_at = _two_points(xs, width)
    y_at = x_at if square else _two_points(ys, width)
    h_plus, h_minus = x_at[0] * y_at[0], x_at[1] * y_at[1]
    del x_at, y_at
    even, odd = h_plus + h_minus, h_plus - h_minus
    del h_plus, h_minus
    out = [0] * size
    out[::2] = _unpack(even >> 1, (size + 1) // 2, width)
    out[1::2] = _unpack(odd >> (4 * width + 1), size // 2, width)
    return out


def _two_points(values: list[int], width: int) -> tuple[int, int]:
    """The polynomial at +2^(W/2) and -2^(W/2), W = 8 * width, from its even
    and odd coefficients packed at W bits."""
    even, odd = _pack(values[::2], width), _pack(values[1::2], width) << 4 * width
    return even + odd, even - odd


def _pack(values: list[int], width: int) -> int:
    half = 1 << (8 * width - 1)
    data = b"".join((v + half).to_bytes(width, "little") for v in values)
    return int.from_bytes(data, "little") - _bias(len(values), width)


def _unpack(packed: int, count: int, width: int) -> list[int]:
    """The first ``count`` slots of ``packed``, each within half a slot of 0."""
    half, mask = 1 << (8 * width - 1), (1 << (8 * width * count)) - 1
    data = ((packed + _bias(count, width)) & mask).to_bytes(count * width, "little")
    return [int.from_bytes(data[i:i + width], "little") - half
            for i in range(0, count * width, width)]


def _bias(count: int, width: int) -> int:
    """Half a slot, in each of ``count`` slots of ``width`` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _check_order(order: int) -> None:
    if order < 1:
        raise ValueError(f"cyclotomic order must be positive, got {order}")
    if order > MAX_FIELD_ORDER:
        raise ValueError(f"cyclotomic order {order} exceeds the supported bound {MAX_FIELD_ORDER}")


def _substitute(num, order: int, k: int) -> tuple[int, ...]:
    """Order-``order`` coordinates of sum_i num[i] * zeta_order^(k*i): the lift
    of num from order/k when k divides order, its conjugate sigma_k when k is a
    unit mod order."""
    rows = _reduction_rows(order)
    out = [0] * euler_phi(order)
    for i, c in enumerate(num):
        if c:
            out = [x + c * r for x, r in zip(out, rows[k * i % order])]
    return tuple(out)


_set = object.__setattr__


class _Record:
    """A value of the fields named in ``__slots__`` (a slot whose name starts
    with an underscore is no field): ``__init__`` sets them once, by position
    or by name, and any later assignment or deletion raises AttributeError.
    A record equals a record of its own class with equal fields, hashes as
    the tuple of its fields, shows as ``Class(field=value, ...)``, and is
    copied and pickled through ``__init__``; a class may define its own of
    each."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:  # the fields after the positional ones, in order; a name
            # given twice, unknown or missing leaves kwargs or the count wrong
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__
                           if name[0] != "_")
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class CycNumber(_Record):
    """An element of Q(zeta_order): num[i]/den is the coefficient of zeta_order^i.

    ``num`` has length euler_phi(order) and is kept in lowest terms with
    ``den`` > 0, so two elements of equal order are equal iff (num, den) are
    equal; mixed orders compare through the common lift.  The constructor
    also accepts Fraction coordinates.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, num: tuple[int, ...], den: int = 1):
        if not all(type(x) is int for x in num):
            scale = math.lcm(*(Fraction(x).denominator for x in num))
            num, den = tuple(int(x * scale) for x in num), den * scale
        g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
        if g != 1:
            num, den = tuple(x // g for x in num), den // g
        _set(self, "order", order)
        _set(self, "num", tuple(num))
        _set(self, "den", den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions, entry i the coefficient of zeta_order^i."""
        return tuple(Fraction(x, self.den) for x in self.num)

    @staticmethod
    def make(order: int, coeffs) -> CycNumber:
        """Validating constructor; accepts ints/Fractions/strings as coefficients."""
        return CycNumber(order, *_read(order, coeffs))

    @staticmethod
    def from_rational(value) -> CycNumber:
        return _coerce(Fraction(value))

    @staticmethod
    def zero() -> CycNumber:
        return _CYC_ZERO

    @staticmethod
    def one() -> CycNumber:
        return _CYC_ONE

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return self.order == 1 or not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def demoted(self) -> CycNumber:
        """Same value at order 1 when the element is rational, else self."""
        if self.order > 1 and self.is_rational():
            return CycNumber(1, self.num[:1], self.den)
        return self

    def lift(self, order: int) -> CycNumber:
        """Embed into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        _check_order(order)
        if order % self.order != 0:
            raise ValueError(f"cannot lift order {self.order} into order {order}")
        return CycNumber(order, _substitute(self.num, order, order // self.order), self.den)

    def reduce_order_to(self, order: int) -> CycNumber:
        """Express the element in Q(zeta_order) for order | self.order.

        Raises ValueError when the element does not lie in the subfield.

        >>> root_of_unity(12, 4).reduce_order_to(3)
        CycNumber(3, z3)
        """
        if order == self.order:
            return self
        if self.order % order != 0:
            raise ValueError(f"order {order} does not divide {self.order}")
        # The integer rows of [lift | num] at order 1, row i for coordinate i of
        # sum_j y_j zeta_order^j = num; the lift is injective, so each y_j has a pivot.
        lift, step, phi = _reduction_rows(self.order), self.order // order, euler_phi(order)
        rows = [[lift[step * j][i] for j in range(phi)] + [x] for i, x in enumerate(self.num)]
        _gauss_jordan(rows, phi, 1)
        if any(row[-1] for row in rows[phi:]):
            raise ValueError(f"{self} does not lie in Q(zeta_{order})")
        den = math.lcm(*(rows[j][j] for j in range(phi)))
        return CycNumber(order, tuple(rows[j][-1] * (den // rows[j][j]) for j in range(phi)),
                         self.den * den)

    # -- arithmetic -------------------------------------------------------

    def _binary(self, other, combine):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.order == other.order:
            return combine(self, other)
        n = math.lcm(self.order, other.order)
        _check_order(n)
        return combine(self.lift(n), other.lift(n))

    def __add__(self, other):
        return self._binary(other, lambda a, b: CycNumber(
            a.order, tuple(x * b.den + y * a.den for x, y in zip(a.num, b.num)), a.den * b.den))

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: CycNumber(
            a.order, tuple(x * b.den - y * a.den for x, y in zip(a.num, b.num)), a.den * b.den))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycNumber(self.order, tuple(-x for x in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycNumber(self.order, tuple(x * other.numerator for x in self.num),
                             self.den * other.denominator)
        return self._binary(other, lambda a, b: CycNumber(
            a.order, tuple(_mul(a.num, b.num, 1, a.order)), a.den * b.den))

    __rmul__ = __mul__

    def inverse(self) -> CycNumber:
        """den * P / (num * P), where P is the product of the conjugates
        sigma_k(num), 1 < k < order prime to order, so that the norm
        num * P is a rational integer."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        n = self.order
        p = [1] + [0] * (len(self.num) - 1)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                p = _mul(p, _substitute(self.num, n, k), 1, n)
        norm = _mul(self.num, p, 1, n)[0]
        return CycNumber(n, tuple(self.den * x for x in p), norm)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int) -> CycNumber:
        if not isinstance(k, int):
            raise TypeError("cyclotomic exponents must be integers")
        if k < 0:
            return self.inverse() ** (-k)
        result = CycNumber.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.order != other.order:
            n = math.lcm(self.order, other.order)
            self, other = self.lift(n), other.lift(n)
        return self.num == other.num and self.den == other.den

    __hash__ = None  # equality spans orders; identity hashing would lie

    # -- display and wire format -----------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                term = format_rational(c)
            else:
                gen = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
                if c == 1:
                    term = gen
                elif c == -1:
                    term = f"-{gen}"
                else:
                    term = f"{format_rational(c)}*{gen}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self) -> str:
        return f"CycNumber({self.order}, {self})"

    def to_record(self) -> dict:
        return {"order": self.order, "coeffs": [format_rational(c) for c in self.coeffs]}

    @staticmethod
    def from_record(record: dict) -> CycNumber:
        return CycNumber.make(_read_int(record["order"]), record["coeffs"])


_CYC_ZERO = CycNumber(1, (0,))
_CYC_ONE = CycNumber(1, (1,))


def _coerce(value) -> CycNumber | None:
    if isinstance(value, CycNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return CycNumber(1, (value.numerator,), value.denominator)
    return None


def root_of_unity(order: int, k: int) -> CycNumber:
    """zeta_order^k in canonical form; depends only on k mod order.

    >>> root_of_unity(4, 1) ** 2 == -1
    True
    """
    _check_order(order)
    return CycNumber(order, _reduction_rows(order)[k % order])


# -- exact elimination on integer rows -----------------------------------------
# A row holds phi(order) integer power-basis coordinates per entry, as the
# slabs of vvmf.replib do; a multiple of a row stands for it, so a pivot is
# scaled to an integer (_integral) and a row is cleared by integer
# combinations (_eliminate): fraction-free, in the style of Bareiss (Math.
# Comp. 22, 1968), but each row is divided by its content.

def _lowest(xs: list[int], den: int = 0):
    """xs and den over their gcd; with den = 0, xs over its content."""
    g = math.gcd(den, *xs)
    return ([x // g for x in xs], den // g) if g > 1 else (xs, den)


def _integral(row: list[int], at: int, order: int) -> list[int]:
    """``row`` over its content after scaling its entry ``at`` to an integer."""
    phi = euler_phi(order)
    inv = CycNumber(order, tuple(row[at * phi:(at + 1) * phi])).inverse()
    return _lowest(_mul(row, inv.num, len(row) // phi, order))[0]


def _eliminate(w: list[int], row: list[int], at: int, order: int) -> list[int]:
    """n * w - w[at] * row over its content, n the integer entry ``at`` of
    ``row`` (see _integral): a multiple of w - (w[at] / n) * row."""
    phi = euler_phi(order)
    scaled = _mul(row, w[at * phi:(at + 1) * phi], len(row) // phi, order)
    return _lowest([row[at * phi] * x - y for x, y in zip(w, scaled)])[0]


def _gauss_jordan(rows: list[list[int]], ncols: int, order: int) -> bool:
    """Gauss-Jordan on the first ``ncols`` entries of integer rows, in place:
    the pivot of column c is the first row from c with a nonzero entry there,
    moved to row c and scaled by _integral, and every other row nonzero there
    is cleared by _eliminate.  Whether each column has a pivot; the rows from
    ``ncols`` up are then zero in all of them."""
    phi = euler_phi(order)
    for c in range(ncols):
        r = next((i for i in range(c, len(rows)) if any(rows[i][c * phi:(c + 1) * phi])), None)
        if r is None:
            return False
        rows[c], rows[r] = rows[r], rows[c]
        rows[c] = _integral(rows[c], c, order)
        for i in range(len(rows)):
            if i != c and any(rows[i][c * phi:(c + 1) * phi]):
                rows[i] = _eliminate(rows[i], rows[c], c, order)
    return True


def _read(order: int, coeffs) -> tuple[tuple[int, ...], int]:
    """The wire form of an element of Q(zeta_order), its phi(order)
    coordinates as ints, Fractions or strings (a string is no list of them),
    as integer coordinates over one positive denominator in lowest terms
    (the least common denominator of the parsed coordinates)."""
    _check_order(order)
    if isinstance(coeffs, str):
        raise ValueError("expected a list of coefficients, got a string")
    vals = list(map(parse_rational, coeffs))
    phi = euler_phi(order)
    if len(vals) != phi:
        raise ValueError(f"order {order} needs {phi} coefficients, got {len(vals)}")
    den = math.lcm(*(x.denominator for x in vals))
    return tuple(x.numerator * (den // x.denominator) for x in vals), den


def _read_int(value) -> int:
    """An integer field of the wire format: an int, an integral float or an
    integer string, read as int() reads it.  A boolean, or a number with a
    fractional part, is a ValueError; an infinite float keeps int()'s
    OverflowError."""
    n = int(value)
    if isinstance(value, bool) or isinstance(value, float) and n != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return n


def parse_rational(text) -> int | Fraction:
    """Parse the wire form of a rational: base-10 'p/q' or 'p', optional sign.

    An int or a plain ASCII integer ('-' at most) comes back as an int, which
    ``CycNumber`` stores as it is; every other form goes through Fraction.
    A boolean is a ValueError.
    """
    if isinstance(text, int):
        if isinstance(text, bool):
            raise ValueError(f"expected a rational, got {text!r}")
        return int(text)
    if not isinstance(text, str):  # str first: isinstance against Fraction, an ABC, is slow
        if isinstance(text, Fraction):
            return text
        text = str(text)
    text = text.replace("−", "-").strip()
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        return int(text)
    # Fraction would build 10^exponent: past the digit limit it is refused.
    limit, (_, e, exponent) = sys.get_int_max_str_digits(), text.lower().rpartition("e")
    magnitude = exponent.lstrip("+-").replace("_", "")
    if e and limit and magnitude.isdecimal() and int(magnitude) > limit:
        raise ValueError(f"the exponent of {text!r} passes {limit} in absolute value, "
                         "Python's limit for integer-to-string conversion")
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    try:
        return str(value)
    except ValueError:  # only from Python's limit on integer-to-string conversion
        raise UsageError(f"cannot write a number of more than {sys.get_int_max_str_digits()} "
                         "digits, Python's limit for integer-to-string conversion") from None

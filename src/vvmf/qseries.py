"""Truncated Puiseux/Laurent series in q with exact cyclotomic coefficients.

A series is stored at the stride of its support: term i is the coefficient
of q^((lead + i*step)/grid), ``step`` divides ``grid``, and every coefficient
off that stride is zero.  It is trusted for exponents below valid_to/grid,
and every operation tracks validity conservatively.  As in FLINT's
``fmpq_poly`` the terms are integers over one denominator: a cyclotomic
``order`` N (1 when every term is rational), one ``den`` > 0 and a flat
tuple ``nums`` of phi(N) power-basis coordinates per term, in lowest terms:

    >>> s = QSeries.from_coeffs([Fraction(1, 2), CycNumber.make(3, [0, 1])])
    >>> s.order, s.den, s.nums, s.step
    (3, 2, (1, 0, 0, 2), 1)

CycNumbers are built only on demand (``terms``, the dense wire view
``coeffs``, ``coefficient``, ``to_record``, ``str``): a term has order 1
when rational, else N, or ``orders[i]`` once two different non-rational
orders have met, as a product keeps each coefficient at the lcm of the
orders of its nonzero pairs.  Products and quotients run on the integer
kernel ``exactfield._mul``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PrecisionError
from .exactfield import (CycNumber, _check_order, _coerce, _kronecker, _mul, _read,
                         _read_int, _Record, _set, _substitute, euler_phi)

_ZERO = CycNumber.zero()


class QSeries(_Record):
    __slots__ = ("grid", "lead", "valid_to", "step", "order", "den", "nums", "orders")

    def __init__(self, grid: int, lead: int, valid_to: int, step: int, order: int, den: int,
                 nums: tuple[int, ...], orders: tuple[int, ...] | None = None):
        _set(self, "grid", grid)
        _set(self, "lead", lead)
        _set(self, "valid_to", valid_to)
        _set(self, "step", step)
        _set(self, "order", order)
        _set(self, "den", den)
        _set(self, "nums", nums)
        _set(self, "orders", orders)

    # -- construction ------------------------------------------------------

    @staticmethod
    def _normal(grid: int, lead: int, valid_to: int, step: int, order: int, den: int,
                nums, orders=None) -> QSeries:
        """The normal form of ``nums`` over ``den`` at lead + i*step (step |
        grid): leading zeros cut, stored at the gcd of the grid and the nonzero
        offsets, the grid reduced by gcd(lead, stride, valid_to)."""
        if grid < 1:
            raise ValueError(f"series grid must be positive, got {grid}")
        phi = euler_phi(order)
        count = -(-(valid_to - lead) // step)
        if len(nums) != phi * count:
            raise ValueError("coefficient count must equal valid_to - lead")
        if not any(nums):  # canonical zero on grid 1, its window floored
            return QSeries(1, valid_to // grid, valid_to // grid, 1, 1, 1, ())
        live = (i for i in range(count) if any(nums[i * phi:(i + 1) * phi]))
        first, stride = next(live), grid
        for i in live if step < grid else ():
            stride = math.gcd(stride, step * (i - first))
            if stride == step:
                break
        m = stride // step
        nums = nums[first::m] if phi == 1 else \
            [x for i in range(first, count, m) for x in nums[i * phi:(i + 1) * phi]]
        lead += first * step
        if phi > 1 and not any(any(nums[r::phi]) for r in range(1, phi)):
            order, nums = 1, nums[::phi]  # every term is rational
        elif orders:
            orders = [o if any(nums[i * phi + 1:(i + 1) * phi]) else 1
                      for i, o in enumerate(orders[first::m])]
        orders = None if order == 1 or not orders or set(orders) <= {1, order} else tuple(orders)
        if den > 1 and (g := math.gcd(den, *nums)) > 1:
            den, nums = den // g, [x // g for x in nums]
        g = math.gcd(lead, stride, valid_to)
        return QSeries(grid // g, lead // g, valid_to // g, stride // g, order, den,
                       tuple(nums), orders)

    @staticmethod
    def _make(grid: int, lead: int, valid_to: int, coeffs) -> QSeries:
        """Normal form of dense coefficient values (int, Fraction, CycNumber) from lead."""
        return QSeries._normal(grid, lead, valid_to, 1, *_flatten(coeffs))

    @staticmethod
    def from_coeffs(coeffs, lead: int = 0, grid: int = 1, valid_to: int | None = None) -> QSeries:
        """Series from explicit coefficients; ``lead`` and ``valid_to`` are
        numerators over ``grid``, and valid_to is by default where they end."""
        coeffs = list(coeffs)
        valid_to = lead + len(coeffs) if valid_to is None else valid_to
        if valid_to < lead + len(coeffs):
            raise ValueError("valid_to cannot cut into the supplied coefficients")
        coeffs += [0] * (valid_to - lead - len(coeffs))
        return QSeries._make(grid, lead, valid_to, coeffs)

    @staticmethod
    def zero(valid_to: int = 0, grid: int = 1) -> QSeries:
        return QSeries._normal(grid, valid_to, valid_to, 1, 1, 1, ())

    @staticmethod
    def constant(value, valid_to: int) -> QSeries:
        return QSeries.from_coeffs([value], lead=0, grid=1, valid_to=valid_to)

    @staticmethod
    def monomial(value, num: int, den: int = 1, valid_steps: int = 1) -> QSeries:
        """value * q^(num/den), trusted for ``valid_steps`` grid steps past it."""
        return QSeries.from_coeffs([value], lead=num, grid=den,
                                   valid_to=num + max(1, valid_steps))

    # -- basic queries ------------------------------------------------------

    def _at(self, step: int, start: int, n: int, order: int) -> list[int]:
        """Coordinates at ``order``, over self.den, of the coefficients of
        q^((start + k*step)/grid), k < n (step | self.step, start <= lead)."""
        return _spread(_lift(self.nums, self.order, order), euler_phi(order),
                       (self.lead - start) // step, self.step // step, n)

    def _term_orders(self, step: int, start: int, n: int) -> list[int]:
        """The order of each coefficient ``_at`` reads, 0 for a zero."""
        nums, phi = self.nums, euler_phi(self.order)
        own = [(self.orders[i] if self.orders else self.order if any(nums[j + 1:j + phi]) else 1)
               if any(nums[j:j + phi]) else 0 for i, j in enumerate(range(0, len(nums), phi))]
        return _spread(own, 1, (self.lead - start) // step, self.step // step, n)

    def _kinds(self) -> set[int]:
        return (set(self.orders or ()) | {self.order}) - {1}

    def _term(self, i: int) -> CycNumber:
        phi = euler_phi(self.order)
        c = CycNumber(self.order, self.nums[i * phi:(i + 1) * phi], self.den).demoted()
        return c.reduce_order_to(self.orders[i]) if self.orders and c.order > 1 else c

    @property
    def terms(self) -> tuple[CycNumber, ...]:
        """The stored coefficients, of q^((lead + i*step)/grid)."""
        return tuple(map(self._term, range(len(self.nums) // euler_phi(self.order))))

    @property
    def coeffs(self) -> tuple[CycNumber, ...]:
        """Dense view: the coefficient of q^((lead + i)/grid) up to valid_to."""
        out = [_ZERO] * (self.valid_to - self.lead)
        out[::self.step] = self.terms
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.nums

    def valuation(self) -> Fraction:
        """Lowest exponent; the pole order at q=0 is max(0, -valuation)."""
        if self.is_zero():
            raise ValueError("valuation of zero is undefined")
        return Fraction(self.lead, self.grid)

    def valid_exponent(self) -> Fraction:
        """The expansion is trusted for exponents strictly below this."""
        return Fraction(self.valid_to, self.grid)

    def coefficient(self, exponent) -> CycNumber:
        """Exact coefficient of q^exponent; refuses exponents past validity."""
        e = Fraction(exponent)
        if e >= self.valid_exponent():
            raise PrecisionError(f"coefficient of q^{e} lies outside the validity window "
                                 f"(< {self.valid_exponent()})")
        num = e * self.grid
        idx, off = divmod(num.numerator - self.lead, self.step)
        count = len(self.nums) // euler_phi(self.order)
        ok = num.denominator == 1 and off == 0 and 0 <= idx < count
        return self._term(idx) if ok else _ZERO

    def leading_coefficient(self) -> CycNumber:
        if self.is_zero():
            raise ValueError("zero series has no leading coefficient")
        return self._term(0)

    # -- grid handling ------------------------------------------------------

    def regrid(self, grid: int) -> QSeries:
        """Refine onto a multiple of the current grid (lossless)."""
        if grid < 1 or grid % self.grid != 0:
            raise ValueError(f"{grid} is not a positive multiple of grid {self.grid}")
        m = grid // self.grid
        # Not re-minimized: the refined form is requested as is.
        return QSeries(grid, self.lead * m, self.valid_to * m, self.step * m,
                       self.order, self.den, self.nums, self.orders)

    def _common(self, other: QSeries) -> tuple[QSeries, QSeries]:
        g = math.lcm(self.grid, other.grid)
        return (self, other) if g == self.grid == other.grid else (self.regrid(g), other.regrid(g))

    def shift(self, num: int, den: int = 1) -> QSeries:
        """Multiply by the exact monomial q^(num/den)."""
        g = math.lcm(self.grid, den)
        s, d = self.regrid(g), num * (g // den)
        return QSeries._normal(g, s.lead + d, s.valid_to + d, s.step, s.order, s.den, s.nums,
                               s.orders)

    # -- ring operations ----------------------------------------------------

    def _sum(self, other, sign: int):
        """self + sign*other."""
        if isinstance(other, (int, Fraction, CycNumber)):
            # A constant trusted at least as far as self.
            other = QSeries.constant(other, max(1, -(-self.valid_to // self.grid)))
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._common(other)
        valid = min(a.valid_to, b.valid_to)
        lo = min(a.lead, b.lead, valid)
        # A zero operand (lead == valid_to) constrains neither stride nor lead.
        live = [s for s in (a, b) if s.nums] or [a]
        step = math.gcd(*(s.step for s in live), *(s.lead - lo for s in live))
        n = -(-(valid - lo) // step)
        order, den = math.lcm(a.order, b.order), math.lcm(a.den, b.den)
        fa, fb = den // a.den, sign * (den // b.den)
        out = [x * fa + y * fb for x, y in zip(a._at(step, lo, n, order),
                                               b._at(step, lo, n, order))]
        orders = [math.lcm(x or 1, y or 1) for x, y in zip(a._term_orders(step, lo, n),
                                                           b._term_orders(step, lo, n))] \
            if len(a._kinds() | b._kinds()) > 1 else None
        return QSeries._normal(a.grid, lo, valid, step, order, den, out, orders)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.grid, self.lead, self.valid_to, self.step, self.order, self.den,
                       tuple(-x for x in self.nums), self.orders)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            c = _coerce(other)
            if c.is_zero():
                return QSeries.zero(self.valid_to, self.grid)
            # A term's order becomes lcm(its order, c.order), as in CycNumber.
            if c.is_rational() and all(k % c.order == 0 for k in self._kinds()):
                return QSeries._normal(self.grid, self.lead, self.valid_to, self.step, self.order,
                                       self.den * c.den, [x * c.num[0] for x in self.nums],
                                       self.orders)
            # Else a product with the constant c, kept at c.order even if rational.
            w = max(1, -(-(self.valid_to - self.lead) // self.grid))
            other = QSeries(1, 0, w, 1, c.order, c.den, c.num + (0,) * (len(c.num) * (w - 1)),
                            (c.order,) * w)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._common(other)
        valid = min(a.valid_to + b.lead, b.valid_to + a.lead)
        lead = a.lead + b.lead
        if valid <= lead or a.is_zero() or b.is_zero():
            return QSeries.zero(valid, a.grid)
        step = math.gcd(a.step, b.step)
        n, order = -(-(valid - lead) // step), math.lcm(a.order, b.order)
        xs = a._at(step, a.lead, n, order)
        nums = _mul(xs, xs if b is a else b._at(step, b.lead, n, order), n, order)
        orders = _pair_orders(a._term_orders(step, a.lead, n), b._term_orders(step, b.lead, n),
                              n) if len(a._kinds() | b._kinds()) > 1 else None
        return QSeries._normal(a.grid, lead, valid, step, order, a.den * b.den, nums, orders)

    __rmul__ = __mul__

    def inverse(self) -> QSeries:
        """Multiplicative inverse of a series with a nonzero lead; 1 / self."""
        width = max(1, -(-(self.valid_to - self.lead) // self.grid))
        return _quotient(QSeries.constant(1, width), self)

    def __truediv__(self, other):
        """Exact quotient, trusted as far as both operands allow (``_quotient``);
        with coefficients of several orders it may sit at a larger order."""
        if isinstance(other, (int, Fraction, CycNumber)):
            return self * _coerce(other).inverse()
        return _quotient(self, other) if isinstance(other, QSeries) else NotImplemented

    def __pow__(self, k: int) -> QSeries:
        if not isinstance(k, int):
            raise TypeError("series exponents must be integers")
        if k == 0:
            return QSeries.constant(1, max(1, self.valid_to - self.lead))
        base, k, result = self.inverse() if k < 0 else self, abs(k), None
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- comparisons ---------------------------------------------------------

    def agrees_with(self, other: QSeries, min_steps: int = 1) -> bool:
        """Exact equality on the intersection of the validity windows.  Raises
        PrecisionError when that window stops short of the lead of a nonzero
        side: a pass that never saw a potentially-nonzero coefficient proves nothing."""
        a, b = self._common(other)
        valid = min(a.valid_to, b.valid_to)
        leads = [s.lead for s in (a, b) if not s.is_zero()]
        if leads and valid - min(leads) < min_steps:
            raise PrecisionError("comparison window is empty at this order; increase the order")
        return (a - b).is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.grid, self.lead, self.valid_to) == (other.grid, other.lead, other.valid_to) \
            and self.coeffs == other.coeffs

    __hash__ = None

    # -- display and wire format ----------------------------------------------

    def _exp_str(self, num: int) -> str:
        e = Fraction(num, self.grid)
        return "" if e == 0 else "q" if e == 1 else f"q^{e}" if e.denominator == 1 else f"q^({e})"

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.terms):
            q = self._exp_str(self.lead + i * self.step)
            if c.is_zero():
                continue
            if not q:
                parts.append(str(c) if c.is_rational() else f"({c})")
            elif c == 1 or c == -1:
                parts.append(q if c == 1 else f"-{q}")
            else:
                parts.append(f"{c}*{q}" if c.is_rational() else f"({c})*{q}")
        return parts[0] + "".join(f" - {t[1:]}" if t.startswith("-") else f" + {t}"
                                  for t in parts[1:]) if parts else "0"

    def __repr__(self) -> str:
        return f"QSeries(grid={self.grid}, lead={self.lead}, valid_to={self.valid_to}, {self})"

    def to_record(self) -> dict:
        return {"grid": self.grid, "lead": self.lead, "valid_to": self.valid_to,
                "coeffs": [c.to_record() for c in self.coeffs]}

    @staticmethod
    def from_record(record: dict) -> QSeries:
        """The series of a wire record; each coefficient record is read, as
        ``CycNumber.from_record`` reads it, straight into its coordinates."""
        grid, lead, valid_to = (_read_int(record[key]) for key in ("grid", "lead", "valid_to"))
        terms = []
        for r in record["coeffs"]:
            order = _read_int(r["order"])
            num, den = _read(order, r["coeffs"])
            terms.append((order, num, den) if any(num[1:]) else (1, num[:1], den))
        return QSeries._normal(grid, lead, valid_to, 1, *_join(terms))


def _flatten(values) -> tuple:
    """(order, den, nums, orders) of a list of coefficient values."""
    values = list(values)
    if all(type(v) is int for v in values):
        return 1, 1, values, None
    cs = [c and c.demoted() for c in map(_coerce, values)]
    if None in cs:
        raise TypeError(f"cannot use {values[cs.index(None)]!r} as a series coefficient")
    return _join([(c.order, c.num, c.den) for c in cs])


def _join(terms: list[tuple[int, tuple[int, ...], int]]) -> tuple:
    """(order, den, nums, orders) of coefficients given as (order, num, den),
    each in lowest terms and at order 1 when rational: every term at the lcm
    of the orders, over the lcm of the denominators."""
    kinds = {o for o, _, _ in terms} - {1}
    order, den = math.lcm(*kinds), math.lcm(*(d for _, _, d in terms))
    _check_order(order)
    pad, nums = [0] * (euler_phi(order) - 1), []
    for o, num, d in terms:
        if o not in (1, order):
            num = _substitute(num, order, order // o)
        f = den // d
        # A rational term lifts to its constant coordinate, with no table.
        nums += [num[0] * f, *pad] if o == 1 else [x * f for x in num]
    return order, den, nums, tuple(o for o, _, _ in terms) if len(kinds) > 1 else None


def _lift(nums, src: int, dst: int):
    """Flat coordinates at order ``src`` as coordinates at ``dst`` (src | dst)."""
    if src == dst:
        return nums
    _check_order(dst)
    phi = euler_phi(src)
    return [x for i in range(0, len(nums), phi)
            for x in _substitute(nums[i:i + phi], dst, dst // src)]


def _spread(flat, phi: int, first: int, m: int, n: int) -> list:
    """n slots of phi entries, zero but for the terms of ``flat`` (phi
    entries each) at slots first, first + m, ..., as far as they reach."""
    count = max(0, min(len(flat) // phi, -(-(n - first) // m)))
    out = [0] * (n * phi)
    for r in range(phi):
        out[first * phi + r:(first + count * m) * phi:m * phi] = flat[r:count * phi:phi]
    return out


# Longest quotient block that _halves takes as one product with a Newton inverse.
_LEAF = 32


def _quotient(a: QSeries, b: QSeries) -> QSeries:
    """a / b, trusted as far as both allow."""
    if b.is_zero():
        raise ZeroDivisionError("division by (truncated) zero series")
    a, b = a._common(b)
    if a.is_zero():  # so a.valid_to == a.lead
        return QSeries.zero(a.lead - b.lead, a.grid)
    lead, width = a.lead - b.lead, min(a.valid_to - a.lead, b.valid_to - b.lead)
    step = math.gcd(a.step, b.step)
    n, order = -(-width // step), math.lcm(a.order, b.order)
    nums, den = _divide(a._at(step, a.lead, n, order), b._at(step, b.lead, n, order), n, order)
    return QSeries._normal(a.grid, lead, lead + width, step, order, den * a.den,
                           [x * b.den for x in nums])


def _divide(xs, ys, n: int, order: int) -> tuple[list[int], int]:
    """First n coefficients of xs/ys, flat coordinates with ys[0] != 0, as
    flat coordinates over one denominator: (nums, den)."""
    phi = euler_phi(order)
    xs = list(xs) + [0] * (n * phi - len(xs))
    # Scale by unit/du = 1/b_0 so that the divisor starts with the integer du,
    # then substitute q -> du*q so that it starts with 1 and stays integral.
    lead = CycNumber(order, tuple(ys[:phi])).inverse()
    unit, du = list(lead.num), lead.den
    if unit != [1] + [0] * (phi - 1):
        xs, ys = _mul(xs, unit, n, order), _mul(ys, unit, n, order)
    powers = [du ** k for k in range(n + 1)]
    xs = [v * powers[i // phi] for i, v in enumerate(xs)]
    ys = [v * powers[i // phi - 1] if i >= phi else int(i == 0) for i, v in enumerate(ys)]
    quotient = _halves(xs, ys, _inverse(ys, min(n, _LEAF), order), n, order)
    # Coefficient k of the quotient is quotient[k] / du^(k+1).
    return [v * powers[n - 1 - i // phi] for i, v in enumerate(quotient)], powers[n]


def _halves(xs: list[int], ys: list[int], inv: list[int], n: int, order: int) -> list[int]:
    """First n coefficients of xs/ys (ys monic): the low half, then the high
    half from the remainder xs - ys*low; a block no longer than ``inv`` (1/ys
    to that many terms) is one product with it.  Never xs * (1/ys) at once:
    1/ys can have far larger coefficients than the quotient (1/E4 grows like
    231^k), and every Kronecker slot is as wide as the largest."""
    phi = euler_phi(order)
    if n * phi <= len(inv):
        return _mul(xs, inv, n, order)
    h = (n + 1) // 2
    low = _halves(xs, ys, inv, h, order)
    prod = _mul(ys, low, n, order)
    rest = [u - v for u, v in zip(xs[h * phi:n * phi], prod[h * phi:])]
    return low + _halves(rest, ys, inv, n - h, order)


def _inverse(ys: list[int], n: int, order: int) -> list[int]:
    """First n coefficients of 1/ys (ys monic) by Newton iteration,
    x <- x + x*(1 - ys*x), which doubles the number of correct coefficients."""
    phi = euler_phi(order)
    x = [1] + [0] * (phi - 1)
    while len(x) < n * phi:
        k, m = len(x) // phi, min(2 * len(x) // phi, n)
        residual = [-v for v in _mul(ys, x, m, order)[k * phi:]]
        x += _mul(x, residual, m - k, order)
    return x


def _pair_orders(a: list[int], b: list[int], size: int) -> list[int]:
    """lcm(a_i, b_j) over the pairs i + j = k < size of coefficient orders (0
    for a zero), from one 0/1 product of the supports per pair of orders."""
    out = [1] * size
    for m in set(a) - {0}:
        for n in set(b) - {0}:
            hits = _kronecker([int(o == m) for o in a], [int(o == n) for o in b], size)
            out = [math.lcm(o, m, n) if hit else o for o, hit in zip(out, hits)]
    return out

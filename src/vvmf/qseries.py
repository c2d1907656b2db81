"""Truncated Puiseux/Laurent series in q with exact cyclotomic coefficients.

A series is stored at the stride of its support: ``terms[i]`` is the
coefficient of q^((lead + i*step)/grid), ``step`` divides ``grid``, and every
coefficient off that stride is zero, so grid-12 eta powers store no zeros.
``coeffs`` is the dense view, one entry per grid step, as in the JSON wire
form.  The expansion is trusted for all exponents strictly below
valid_to/grid.  Every operation tracks validity conservatively, so
truncation can never turn into a silently wrong claim.

    >>> from vvmf.scalarforms import eta_squared
    >>> s = eta_squared(8)
    >>> s.grid, s.lead, s.step, len(s.terms), len(s.coeffs)
    (12, 1, 12, 8, 96)

Products and quotients take the stored terms at the gcd of the two strides
to the integer kernel that also multiplies field elements
(``exactfield._mul``): both operands go to one cyclotomic order N, a common
denominator and phi(N) integer coordinates per coefficient; q and zeta are
packed into one big int (Kronecker substitution, 2*phi-1 byte-wide slots per
term) and multiplied once.  Product coefficient k keeps the order
lcm(ord a_i, ord b_j) over its nonzero pairs i + j = k.  Quotients halve
recursively on that product and finish short blocks with a Newton inverse
of the divisor, never forming all of 1/b, whose coefficients can dwarf
those of a/b.

All values are immutable and operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionError
from .exactfield import CycNumber, _check_order, _coerce, _kronecker, _mul, euler_phi

_ZERO = CycNumber.zero()


def _as_cyc(value) -> CycNumber:
    c = _coerce(value)
    if c is None:
        raise TypeError(f"cannot use {value!r} as a series coefficient")
    return c


@dataclass(frozen=True, eq=False)
class QSeries:
    grid: int
    lead: int
    valid_to: int
    step: int
    terms: tuple[CycNumber, ...]

    # -- construction ------------------------------------------------------

    @staticmethod
    def _make(grid: int, lead: int, valid_to: int, coeffs, step: int = 1) -> QSeries:
        """The normal form of the series with ``coeffs`` at lead + i*step (step
        dividing grid): leading zeros trimmed, stored at the gcd of the grid
        and the nonzero offsets, on the grid reduced by gcd(lead, stride, valid_to)."""
        coeffs = [_as_cyc(c) for c in coeffs]
        if len(coeffs) != -(-(valid_to - lead) // step):
            raise ValueError("coefficient count must equal valid_to - lead")
        nonzero = [i for i, c in enumerate(coeffs) if not c.is_zero()]
        if not nonzero:
            # Canonical zero on grid 1; keep the (floored) validity bound.
            v = valid_to // grid
            return QSeries(1, v, v, 1, ())
        first = nonzero[0]
        lead += first * step
        stride = math.gcd(grid, *(step * (i - first) for i in nonzero))
        terms = coeffs[first::stride // step]
        g = math.gcd(lead, stride, valid_to)
        lead, valid_to, stride = lead // g, valid_to // g, stride // g
        return QSeries(grid // g, lead, valid_to, stride, tuple(c.demoted() for c in terms))

    @staticmethod
    def from_coeffs(coeffs, lead: int = 0, grid: int = 1, valid_to: int | None = None) -> QSeries:
        """Series from explicit coefficients.

        ``lead`` and ``valid_to`` are numerators over ``grid``; by default the
        series is trusted exactly as far as the coefficients reach.
        """
        coeffs = list(coeffs)
        if valid_to is None:
            valid_to = lead + len(coeffs)
        if valid_to < lead + len(coeffs):
            raise ValueError("valid_to cannot cut into the supplied coefficients")
        coeffs += [_ZERO] * (valid_to - lead - len(coeffs))
        return QSeries._make(grid, lead, valid_to, coeffs)

    @staticmethod
    def zero(valid_to: int = 0, grid: int = 1) -> QSeries:
        return QSeries._make(grid, valid_to, valid_to, ())

    @staticmethod
    def constant(value, valid_to: int) -> QSeries:
        return QSeries.from_coeffs([value], lead=0, grid=1, valid_to=valid_to)

    @staticmethod
    def monomial(value, num: int, den: int = 1, valid_steps: int = 1) -> QSeries:
        """value * q^(num/den), trusted for ``valid_steps`` grid steps past it."""
        return QSeries.from_coeffs([value], lead=num, grid=den,
                                   valid_to=num + max(1, valid_steps))

    # -- basic queries ------------------------------------------------------

    def _at(self, step: int, start: int, n: int) -> list[CycNumber]:
        """The coefficients of q^((start + k*step)/grid), k < n, for a ``step``
        dividing the stored step and a ``start`` <= lead congruent to it."""
        first = (self.lead - start) // step
        m = self.step // step
        terms = self.terms[:max(0, -(-(n - first) // m))]
        out = [_ZERO] * n
        out[first:first + len(terms) * m:m] = terms
        return out

    @property
    def coeffs(self) -> tuple[CycNumber, ...]:
        """Dense view: the coefficient of q^((lead + i)/grid) up to valid_to."""
        return tuple(self._at(1, self.lead, self.valid_to - self.lead))

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self) -> Fraction:
        """Lowest exponent; the pole order at q=0 is max(0, -valuation)."""
        if self.is_zero():
            raise ValueError("valuation of zero is undefined")
        return Fraction(self.lead, self.grid)

    def pole_order(self) -> Fraction:
        """Order of the pole at q=0: -valuation when negative, else 0."""
        v = self.valuation()
        return -v if v < 0 else Fraction(0)

    def valid_exponent(self) -> Fraction:
        """The expansion is trusted for exponents strictly below this."""
        return Fraction(self.valid_to, self.grid)

    def coefficient(self, exponent) -> CycNumber:
        """Exact coefficient of q^exponent; refuses exponents past validity."""
        e = Fraction(exponent)
        if e >= self.valid_exponent():
            raise PrecisionError(
                f"coefficient of q^{e} lies outside the validity window "
                f"(< {self.valid_exponent()})"
            )
        num = e * self.grid
        if num.denominator != 1:
            return _ZERO
        idx, off = divmod(int(num) - self.lead, self.step)
        if off == 0 and 0 <= idx < len(self.terms):
            return self.terms[idx]
        return _ZERO

    def leading_coefficient(self) -> CycNumber:
        if self.is_zero():
            raise ValueError("zero series has no leading coefficient")
        return self.terms[0]

    # -- grid handling ------------------------------------------------------

    def regrid(self, grid: int) -> QSeries:
        """Refine onto a multiple of the current grid (lossless)."""
        if grid % self.grid != 0:
            raise ValueError(f"{grid} is not a multiple of grid {self.grid}")
        m = grid // self.grid
        # Not re-minimized by _make: the refined form is requested as is.
        return QSeries(grid, self.lead * m, self.valid_to * m, self.step * m, self.terms)

    def _common(self, other: QSeries) -> tuple[QSeries, QSeries]:
        g = math.lcm(self.grid, other.grid)
        return self.regrid(g), other.regrid(g)

    def shift(self, num: int, den: int = 1) -> QSeries:
        """Multiply by the exact monomial q^(num/den)."""
        g = math.lcm(self.grid, den)
        s = self.regrid(g)
        d = num * (g // den)
        return QSeries._make(g, s.lead + d, s.valid_to + d, s.terms, s.step)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            # A constant trusted at least as far as self.
            other = QSeries.constant(other, max(1, -(-self.valid_to // self.grid)))
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._common(other)
        valid = min(a.valid_to, b.valid_to)
        lo = min(a.lead, b.lead, valid)
        # A zero operand (lead == valid_to) constrains neither stride nor lead.
        live = [s for s in (a, b) if s.terms] or [a]
        step = math.gcd(*(s.step for s in live), *(s.lead - lo for s in live))
        n = -(-(valid - lo) // step)
        out = [x + y for x, y in zip(a._at(step, lo, n), b._at(step, lo, n))]
        return QSeries._make(a.grid, lo, valid, out, step)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.grid, self.lead, self.valid_to, self.step,
                       tuple(-c for c in self.terms))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycNumber, QSeries)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            c = _as_cyc(other)
            if c.is_zero():
                return QSeries.zero(self.valid_to, self.grid)
            return QSeries._make(self.grid, self.lead, self.valid_to,
                                 [v * c for v in self.terms], self.step)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._common(other)
        valid = min(a.valid_to + b.lead, b.valid_to + a.lead)
        lead = a.lead + b.lead
        if valid <= lead or a.is_zero() or b.is_zero():
            return QSeries.zero(valid, a.grid)
        step = math.gcd(a.step, b.step)
        n = -(-(valid - lead) // step)
        return QSeries._make(a.grid, lead, valid,
                             _product(a._at(step, a.lead, n), b._at(step, b.lead, n), n), step)

    __rmul__ = __mul__

    def inverse(self) -> QSeries:
        """Multiplicative inverse of a series with a nonzero lead; 1 / self."""
        if self.is_zero():
            raise ZeroDivisionError("division by (truncated) zero series")
        return QSeries._make(self.grid, -self.lead, self.valid_to - 2 * self.lead,
                             _divide([CycNumber.one()], list(self.terms), len(self.terms)),
                             self.step)

    def __truediv__(self, other):
        """Exact quotient, trusted as far as both operands allow.

        The quotient is computed directly (see ``_halves``), not as
        ``self * other.inverse()``: the inverse can have far larger
        coefficients than the quotient.  Being exact, the result is
        byte-identical to a coefficientwise recursion for integer, rational
        and single-order cyclotomic series; with coefficients of several
        orders it is equal (==) but may sit at a larger order.
        """
        if isinstance(other, (int, Fraction, CycNumber)):
            return self * _as_cyc(other).inverse()
        if not isinstance(other, QSeries):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by (truncated) zero series")
        a, b = self._common(other)
        if a.is_zero():  # so a.valid_to == a.lead
            return QSeries.zero(a.lead - b.lead, a.grid)
        lead = a.lead - b.lead
        width = min(a.valid_to - a.lead, b.valid_to - b.lead)
        step = math.gcd(a.step, b.step)
        n = -(-width // step)
        return QSeries._make(a.grid, lead, lead + width,
                             _divide(a._at(step, a.lead, n), b._at(step, b.lead, n), n), step)

    def __pow__(self, k: int) -> QSeries:
        if not isinstance(k, int):
            raise TypeError("series exponents must be integers")
        if k == 0:
            steps = max(1, self.valid_to - self.lead)
            return QSeries.constant(1, steps)
        base = self.inverse() if k < 0 else self
        k = abs(k)
        result = None
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- comparisons ---------------------------------------------------------

    def agrees_with(self, other: QSeries, min_steps: int = 1) -> bool:
        """Exact equality on the intersection of the validity windows.

        Raises PrecisionError when the shared window stops short of the lead
        of a nonzero side, i.e. when the comparison would be vacuous: a pass
        that never saw a potentially-nonzero coefficient proves nothing.
        """
        a, b = self._common(other)
        valid = min(a.valid_to, b.valid_to)
        leads = [s.lead for s in (a, b) if not s.is_zero()]
        if leads and valid - min(leads) < min_steps:
            raise PrecisionError(
                "comparison window is empty at this order; increase the order"
            )
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
        if e == 0:
            return ""
        if e == 1:
            return "q"
        if e.denominator == 1:
            return f"q^{e.numerator}"
        return f"q^({e})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.terms):
            if c.is_zero():
                continue
            qpart = self._exp_str(self.lead + i * self.step)
            if not qpart:
                parts.append(str(c) if c.is_rational() else f"({c})")
            elif c == 1:
                parts.append(qpart)
            elif c == -1:
                parts.append(f"-{qpart}")
            elif c.is_rational():
                parts.append(f"{c.as_rational()}*{qpart}")
            else:
                parts.append(f"({c})*{qpart}")
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def factored_str(self) -> str:
        """Rendering with the lead power pulled out: q^(a/D)*(c0 + c1*q^(1/D) + ...)."""
        if self.is_zero():
            return "0"
        inner = self.shift(-self.lead, self.grid)
        head = self._exp_str(self.lead)
        return f"{head}*({inner})" if head else str(inner)

    def __repr__(self) -> str:
        return (f"QSeries(grid={self.grid}, lead={self.lead}, "
                f"valid_to={self.valid_to}, {self})")

    def to_record(self) -> dict:
        return {
            "grid": self.grid,
            "lead": self.lead,
            "valid_to": self.valid_to,
            "coeffs": [c.to_record() for c in self.coeffs],
        }

    @staticmethod
    def from_record(record: dict) -> QSeries:
        coeffs = [CycNumber.from_record(r) for r in record["coeffs"]]
        return QSeries._make(int(record["grid"]), int(record["lead"]),
                             int(record["valid_to"]), coeffs)


# Longest quotient block that _halves takes as one product with a Newton inverse.
_LEAF = 32


def _product(a: list[CycNumber], b: list[CycNumber], n: int) -> list[CycNumber]:
    """First n coefficients of a*b, each at its pair order."""
    order, (xs, den_a), (ys, den_b) = _coords(a, b)
    out = _box(_mul(xs, ys, n, order), order, [den_a * den_b] * n)
    if len({c.order for c in a + b} - {1}) > 1:
        out = [v.reduce_order_to(t) if v.order not in (1, t) else v
               for v, t in zip(out, _pair_orders(a, b, n))]
    return out


def _divide(a: list[CycNumber], b: list[CycNumber], n: int) -> list[CycNumber]:
    """First n coefficients of a/b for b[0] != 0."""
    order, (xs, den_a), (ys, den_b) = _coords(a, b)
    phi = euler_phi(order)
    xs += [0] * (n * phi - len(xs))
    # Scale by unit/du = 1/b_0 so that the divisor starts with the integer du,
    # then substitute q -> du*q so that it starts with 1 and stays integral.
    lead = CycNumber(order, tuple(ys[:phi])).inverse()
    unit, du = list(lead.num), lead.den
    if unit != [1] + [0] * (phi - 1):
        xs, ys = _mul(xs, unit, n, order), _mul(ys, unit, n, order)
    xs = [v * du ** (i // phi) for i, v in enumerate(xs)]
    ys = [v * du ** (i // phi - 1) if i >= phi else int(i == 0) for i, v in enumerate(ys)]
    quotient = _halves(xs, ys, _inverse(ys, min(n, _LEAF), order), n, order)
    dens = [den_a * du ** (k + 1) for k in range(n)]
    return _box([v * den_b for v in quotient], order, dens)


def _halves(xs: list[int], ys: list[int], inv: list[int], n: int, order: int) -> list[int]:
    """First n coefficients of xs/ys (ys monic) by divide and conquer: the low
    half, then the high half from the remainder xs - ys*low; a block no
    longer than ``inv`` (1/ys to that many terms) is one product with it.
    Not xs * (1/ys) at once: 1/ys can have far larger coefficients than the
    quotient (1/E4 grows like 231^k), and every slot is as wide as the largest."""
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


def _coords(a: list[CycNumber], b: list[CycNumber]):
    """The common order N of the nonzero coefficients (N <= 360) and both
    lists' integer coordinates at N."""
    order = math.lcm(*(c.order for c in a + b if not c.is_zero()))
    _check_order(order)
    return order, _integer_coords(a, order), _integer_coords(b, order)


def _integer_coords(coeffs: list[CycNumber], order: int) -> tuple[list[int], int]:
    """Order-``order`` coordinates, phi per coefficient, times a common denominator."""
    coeffs = [c.lift(order) for c in coeffs]
    den = math.lcm(*(c.den for c in coeffs))
    return [x * (den // c.den) for c in coeffs for x in c.num], den


def _box(flat: list[int], order: int, dens: list[int]) -> list[CycNumber]:
    """CycNumbers from flat coordinates, phi per coefficient, coefficient k over dens[k]."""
    phi = euler_phi(order)
    out = [_ZERO] * len(dens)
    for k, den in enumerate(dens):
        coords = tuple(flat[k * phi:(k + 1) * phi])
        if any(coords):
            out[k] = CycNumber(order, coords, den).demoted()
    return out


def _pair_orders(a: list[CycNumber], b: list[CycNumber], size: int) -> list[int]:
    """lcm(ord a_i, ord b_j) over the nonzero pairs with i + j = k, k < size,
    from 0/1 products of the supports, one per pair of orders."""
    out = [1] * size
    for m in {c.order for c in a if not c.is_zero()}:
        for n in {c.order for c in b if not c.is_zero()}:
            hits = _kronecker([int(c.order == m and not c.is_zero()) for c in a],
                              [int(c.order == n and not c.is_zero()) for c in b], size)
            out = [math.lcm(o, m, n) if hit else o for o, hit in zip(out, hits)]
    return out

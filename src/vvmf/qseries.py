"""Truncated Puiseux/Laurent series in q with exact cyclotomic coefficients.

A series lives on an exponent grid (1/grid)*Z; ``coeffs[i]`` is the
coefficient of q^((lead+i)/grid) and the expansion is trusted for all
exponents strictly below valid_to/grid.  Every operation tracks validity
conservatively, so truncation can never turn into a silently wrong claim.

Products run on one integer kernel: both operands go to one cyclotomic
order N, a common denominator and phi(N) integer coordinates per
coefficient; q and zeta are packed into one big int (Kronecker substitution,
2*phi-1 byte-wide slots per q step, at stride g when the nonzero offsets
share a gcd g > 1) and multiplied once.  Product coefficient k keeps the
order lcm(ord a_i, ord b_j) over its nonzero pairs i + j = k.  Quotients
halve recursively on that product and finish short blocks with a Newton
inverse of the divisor, never forming all of 1/b, whose coefficients can
dwarf those of a/b.

All values are immutable and operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionError
from .exactfield import CycNumber, _check_order, _coerce, _reduction_rows, euler_phi


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
    coeffs: tuple[CycNumber, ...]

    # -- construction ------------------------------------------------------

    @staticmethod
    def _make(grid: int, lead: int, valid_to: int, coeffs) -> QSeries:
        """Normalize: trim leading zeros, canonicalize zero, minimize grid."""
        coeffs = [_as_cyc(c).demoted() for c in coeffs]
        if len(coeffs) != valid_to - lead:
            raise ValueError("coefficient count must equal valid_to - lead")
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            lead += 1
        if not coeffs:
            # Canonical zero on grid 1; keep the (floored) validity bound.
            v = valid_to // grid
            return QSeries(1, v, v, ())
        g = math.gcd(grid, *(lead + i for i, c in enumerate(coeffs) if not c.is_zero()))
        if g > 1:
            new_grid = grid // g
            new_lead = lead // g
            new_valid = valid_to // g
            out = []
            for pos in range(new_lead, new_valid):
                idx = pos * g - lead
                out.append(coeffs[idx] if 0 <= idx < len(coeffs) else CycNumber.zero())
            return QSeries(new_grid, new_lead, new_valid, tuple(out))
        return QSeries(grid, lead, valid_to, tuple(coeffs))

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
        coeffs += [CycNumber.zero()] * (valid_to - lead - len(coeffs))
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

    def is_zero(self) -> bool:
        return not self.coeffs

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
            return CycNumber.zero()
        idx = int(num) - self.lead
        if 0 <= idx < len(self.coeffs):
            return self.coeffs[idx]
        return CycNumber.zero()

    def leading_coefficient(self) -> CycNumber:
        if self.is_zero():
            raise ValueError("zero series has no leading coefficient")
        return self.coeffs[0]

    # -- grid handling ------------------------------------------------------

    def regrid(self, grid: int) -> QSeries:
        """Refine onto a multiple of the current grid (lossless)."""
        if grid % self.grid != 0:
            raise ValueError(f"{grid} is not a multiple of grid {self.grid}")
        m = grid // self.grid
        if m == 1:
            return self
        out = [CycNumber.zero()] * (len(self.coeffs) * m)
        for i, c in enumerate(self.coeffs):
            out[i * m] = c
        # Dodge _make's re-minimization: the refined form is requested as is.
        return QSeries(grid, self.lead * m, self.valid_to * m, tuple(out))

    def _common(self, other: QSeries) -> tuple[QSeries, QSeries]:
        g = math.lcm(self.grid, other.grid)
        return self.regrid(g), other.regrid(g)

    def shift(self, num: int, den: int = 1) -> QSeries:
        """Multiply by the exact monomial q^(num/den)."""
        g = math.lcm(self.grid, den)
        s = self.regrid(g)
        d = num * (g // den)
        return QSeries._make(g, s.lead + d, s.valid_to + d, list(s.coeffs))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            return self._add_scalar(_as_cyc(other))
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._common(other)
        valid = min(a.valid_to, b.valid_to)
        lo = min(a.lead, b.lead, valid)
        out = [CycNumber.zero()] * (valid - lo)
        for i, c in enumerate(a.coeffs):
            pos = a.lead + i - lo
            if 0 <= pos < len(out):
                out[pos] = out[pos] + c
        for i, c in enumerate(b.coeffs):
            pos = b.lead + i - lo
            if 0 <= pos < len(out):
                out[pos] = out[pos] + c
        return QSeries._make(a.grid, lo, valid, out)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.grid, self.lead, self.valid_to,
                       tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            return self._add_scalar(-_as_cyc(other))
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _add_scalar(self, c: CycNumber) -> QSeries:
        if c.is_zero():
            return self
        if self.valid_to <= 0:
            # The constant sits at exponent 0, outside the trusted window.
            return self
        lo = min(self.lead, 0)
        out = [CycNumber.zero()] * (self.valid_to - lo)
        for i, v in enumerate(self.coeffs):
            out[self.lead + i - lo] = v
        out[-lo] = out[-lo] + c
        return QSeries._make(self.grid, lo, self.valid_to, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            c = _as_cyc(other)
            if c.is_zero():
                return QSeries.zero(self.valid_to, self.grid)
            return QSeries._make(self.grid, self.lead, self.valid_to,
                                 [v * c for v in self.coeffs])
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._common(other)
        valid = min(a.valid_to + b.lead, b.valid_to + a.lead)
        lead = a.lead + b.lead
        n_out = valid - lead
        if n_out <= 0 or a.is_zero() or b.is_zero():
            return QSeries.zero(valid, a.grid)
        out = _product(list(a.coeffs), list(b.coeffs), n_out)
        return QSeries._make(a.grid, lead, valid, out)

    __rmul__ = __mul__

    def inverse(self) -> QSeries:
        """Multiplicative inverse of a series with a nonzero lead; 1 / self."""
        if self.is_zero():
            raise ZeroDivisionError("division by (truncated) zero series")
        return QSeries._make(self.grid, -self.lead, self.valid_to - 2 * self.lead,
                             _divide([CycNumber.one()], list(self.coeffs), len(self.coeffs)))

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
        if a.is_zero():
            return QSeries.zero(min(a.valid_to - b.lead,
                                    b.valid_to + a.lead - 2 * b.lead), a.grid)
        lead = a.lead - b.lead
        n_out = min(a.valid_to - a.lead, b.valid_to - b.lead)
        out = _divide(list(a.coeffs), list(b.coeffs), n_out)
        return QSeries._make(a.grid, lead, lead + n_out, out)

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
            and all(x == y for x, y in zip(self.coeffs, other.coeffs))

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
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            qpart = self._exp_str(self.lead + i)
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


def _product(a: list[CycNumber], b: list[CycNumber], n_out: int) -> list[CycNumber]:
    """First n_out coefficients of a*b (dense lists), each at its pair order."""
    step, a, b, order = _strided(a, b, n_out)
    size = (n_out - 1) // step + 1
    (xs, den_a), (ys, den_b) = _integer_coords(a, order), _integer_coords(b, order)
    out = _box(_mul(xs, ys, size, order), order, [den_a * den_b] * size, step, n_out)
    if len({c.order for c in a + b} - {1}) > 1:
        out[::step] = [v.reduce_order_to(t) if v.order not in (1, t) else v
                       for v, t in zip(out[::step], _pair_orders(a, b, size))]
    return out


def _divide(a: list[CycNumber], b: list[CycNumber], n_out: int) -> list[CycNumber]:
    """First n_out coefficients of a/b for dense lists with b[0] != 0."""
    step, a, b, order = _strided(a, b, n_out)
    size = (n_out - 1) // step + 1
    phi = euler_phi(order)
    (xs, den_a), (ys, den_b) = _integer_coords(a, order), _integer_coords(b, order)
    xs += [0] * (size * phi - len(xs))
    # Scale by unit/du = 1/b_0 so that the divisor starts with the integer du,
    # then substitute q -> du*q so that it starts with 1 and stays integral.
    lead = CycNumber(order, tuple(Fraction(v) for v in ys[:phi])).inverse()
    unit, du = _integer_coords([lead], order)
    if unit != [1] + [0] * (phi - 1):
        xs, ys = _mul(xs, unit, size, order), _mul(ys, unit, size, order)
    xs = [v * du ** (i // phi) for i, v in enumerate(xs)]
    ys = [v * du ** (i // phi - 1) if i >= phi else int(i == 0) for i, v in enumerate(ys)]
    quotient = _halves(xs, ys, _inverse(ys, min(size, _LEAF), order), size, order)
    dens = [den_a * du ** (k + 1) for k in range(size)]
    return _box([v * den_b for v in quotient], order, dens, step, n_out)


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


def _strided(a: list[CycNumber], b: list[CycNumber], n_out: int):
    """The gcd g of the nonzero offsets, both lists at stride g, their common order."""
    a, b = a[:n_out], b[:n_out]
    step = math.gcd(*(i for s in (a, b) for i, c in enumerate(s) if not c.is_zero())) or n_out
    a, b = a[::step], b[::step]
    order = math.lcm(*(c.order for c in a + b if not c.is_zero()))
    _check_order(order)
    return step, a, b, order


def _integer_coords(coeffs: list[CycNumber], order: int) -> tuple[list[int], int]:
    """Order-``order`` coordinates, phi per coefficient, times a common denominator."""
    coords = [c.coeffs if c.order == order else c.lift(order).coeffs for c in coeffs]
    den = math.lcm(*(x.denominator for co in coords for x in co))
    return [x.numerator * (den // x.denominator) for co in coords for x in co], den


def _box(flat: list[int], order: int, dens: list[int], step: int, n_out: int) -> list[CycNumber]:
    """n_out CycNumbers, coefficient k of the flat coordinates over dens[k] at k*step."""
    phi = euler_phi(order)
    out = [CycNumber.zero()] * n_out
    for k, den in enumerate(dens):
        coords = flat[k * phi:(k + 1) * phi]
        if any(coords):
            fracs = tuple(Fraction(x, den) if den != 1 else Fraction(x) for x in coords)
            out[k * step] = CycNumber(order, fracs).demoted()
    return out


def _mul(xs: list[int], ys: list[int], n: int, order: int) -> list[int]:
    """First n coefficients of the product of two flat coordinate lists, with
    2*phi-1 slots per coefficient; zeta^k for k >= phi is reduced afterwards."""
    phi = euler_phi(order)
    if phi == 1:
        return _kronecker(xs[:n], ys[:n], n)
    span = 2 * phi - 1
    pad = [0] * (phi - 1)
    xs, ys = ([v for i in range(0, min(len(zs), n * phi), phi) for v in zs[i:i + phi] + pad]
              for zs in (xs, ys))
    flat = _kronecker(xs, ys, n * span)
    rows = _reduction_rows(order)[phi:span]
    out = []
    for base in range(0, n * span, span):
        coords = flat[base:base + phi]
        for c, row in zip(flat[base + phi:base + span], rows):
            if c:
                coords = [x + c * r for x, r in zip(coords, row)]
        out += coords
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


def _kronecker(xs: list[int], ys: list[int], size: int) -> list[int]:
    """First ``size`` coefficients of the product of two integer polynomials
    by one big-int multiply: whole-byte slots hold the bound min(len) * max|x|
    * max|y| and carry a bias of half their range, so they never borrow."""
    bound = min(len(xs), len(ys)) * max(map(abs, xs), default=0) * max(map(abs, ys), default=0)
    if not bound:
        return [0] * size
    width = (bound.bit_length() + 8) // 8
    half, mask = 1 << (8 * width - 1), (1 << (8 * width * size)) - 1
    packed = (_pack(xs, width) * _pack(ys, width) + _bias(size, width)) & mask
    data = packed.to_bytes(size * width, "little")
    return [int.from_bytes(data[i:i + width], "little") - half
            for i in range(0, size * width, width)]


def _pack(values: list[int], width: int) -> int:
    half = 1 << (8 * width - 1)
    data = b"".join((v + half).to_bytes(width, "little") for v in values)
    return int.from_bytes(data, "little") - _bias(len(values), width)


def _bias(count: int, width: int) -> int:
    """Half a slot, in each of ``count`` slots of ``width`` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")

"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, zeta_N, ..., zeta_N^(phi(N)-1)
modulo the N-th cyclotomic polynomial, so representations are canonical and
equality is coefficient-wise.  Rational coefficients use the stdlib
``fractions.Fraction`` (arbitrary precision, always in lowest terms).

Mixed-order arithmetic lifts both operands to the field of order
lcm(order_a, order_b) first.  All values are immutable and all operations are
pure, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

# Orders above this are rejected rather than allowed to degrade performance
# silently; everything in this package lives in Q(zeta_12) and subfields.
MAX_ORDER = 360

_ZERO = Fraction(0)
_ONE = Fraction(1)


def euler_phi(n: int) -> int:
    """Euler's totient of a positive integer."""
    if n < 1:
        raise ValueError(f"euler_phi needs a positive integer, got {n}")
    result = n
    m = n
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


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder of polynomials (constant term first) over Q or
    Q(zeta); den[-1] must be nonzero."""
    num = list(num)
    inv = _ONE / den[-1]
    quot = [_ZERO] * max(1, len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = quot[i] = num[i + len(den) - 1] * inv
        if c != 0:
            for j, d in enumerate(den):
                num[i + j] = num[i + j] - c * d
    return _poly_trim(quot), _poly_trim(num[:len(den) - 1])


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the cyclotomic polynomial Phi_order.

    Monic, integer coefficients, degree euler_phi(order).  Computed by
    dividing x^order - 1 by Phi_d for every proper divisor d.

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
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            if rem or any(c.denominator != 1 for c in poly):
                raise ArithmeticError("cyclotomic division was not exact")
    return tuple(int(c) for c in poly)


@lru_cache(maxsize=None)
def _reduction_rows(order: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_order as dense integer rows.

    Covers k up to max(2*phi - 2, order - 1): products need the first range,
    root_of_unity the second.
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


def _check_order(order: int) -> None:
    if order < 1:
        raise ValueError(f"cyclotomic order must be positive, got {order}")
    if order > MAX_ORDER:
        raise ValueError(
            f"cyclotomic order {order} exceeds the supported bound {MAX_ORDER}"
        )


@lru_cache(maxsize=None)
def _zeta_power(order: int, k: int) -> tuple[Fraction, ...]:
    """Power-basis coordinates of zeta_order^k (k reduced mod order)."""
    return tuple(Fraction(c) for c in _reduction_rows(order)[k % order])


@dataclass(frozen=True, eq=False)
class CycNumber:
    """An element of Q(zeta_order) in power-basis coordinates.

    ``coeffs`` has length euler_phi(order); entry i is the coefficient of
    zeta_order^i.  Two elements of equal order are equal iff their coefficient
    tuples are equal; mixed orders compare through the common lift.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def make(order: int, coeffs) -> CycNumber:
        """Validating constructor; accepts ints/Fractions/strings as coefficients."""
        _check_order(order)
        vals = tuple(c if isinstance(c, Fraction) else parse_rational(c) for c in coeffs)
        phi = euler_phi(order)
        if len(vals) != phi:
            raise ValueError(
                f"order {order} needs {phi} coefficients, got {len(vals)}"
            )
        return CycNumber(order, vals)

    @staticmethod
    def from_rational(value) -> CycNumber:
        return CycNumber(1, (Fraction(value),))

    @staticmethod
    def zero() -> CycNumber:
        return _CYC_ZERO

    @staticmethod
    def one() -> CycNumber:
        return _CYC_ONE

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return self.order == 1 or not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def demoted(self) -> CycNumber:
        """Same value at order 1 when the element is rational, else self."""
        if self.order > 1 and self.is_rational():
            return CycNumber(1, (self.coeffs[0],))
        return self

    def lift(self, order: int) -> CycNumber:
        """Embed into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        _check_order(order)
        if order % self.order != 0:
            raise ValueError(f"cannot lift order {self.order} into order {order}")
        step = order // self.order
        phi = euler_phi(order)
        out = [_ZERO] * phi
        for i, c in enumerate(self.coeffs):
            if c:
                for j, b in enumerate(_zeta_power(order, step * i)):
                    if b:
                        out[j] += c * b
        return CycNumber(order, tuple(out))

    def reduce_order_to(self, order: int) -> CycNumber:
        """Express the element in Q(zeta_order) for order | self.order.

        Raises ValueError when the element does not lie in the subfield.
        """
        if order == self.order:
            return self
        if self.order % order != 0:
            raise ValueError(f"order {order} does not divide {self.order}")
        basis = [[CycNumber(1, (x,)) for x in col] for col in _lift_basis(self.order, order)]
        sol = _solve_exact(basis, [[CycNumber(1, (x,)) for x in self.coeffs]])
        if sol is None:
            raise ValueError(f"{self} does not lie in Q(zeta_{order})")
        return CycNumber(order, tuple(x.coeffs[0] for x in sol[0]))

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
            a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs))))

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: CycNumber(
            a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs))))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycNumber(self.order, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CycNumber(self.order, tuple(c * f for c in self.coeffs))
        return self._binary(other, lambda a, b: CycNumber(
            a.order, _mul_mod(a.order, a.coeffs, b.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> CycNumber:
        if self.is_zero():
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        if self.order == 1:
            return CycNumber(1, (Fraction(1) / self.coeffs[0],))
        return CycNumber(
            self.order,
            _poly_ext_inverse(self.coeffs, cyclotomic_polynomial(self.order)),
        )

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
        if self.order == other.order:
            return self.coeffs == other.coeffs
        n = math.lcm(self.order, other.order)
        return self.lift(n).coeffs == other.lift(n).coeffs

    __hash__ = None  # equality spans orders; identity hashing would lie

    # -- display and wire format -----------------------------------------

    def to_complex(self) -> complex:
        """Floating approximation, for display only; never used in checks."""
        z = complex(math.cos(2 * math.pi / self.order), math.sin(2 * math.pi / self.order))
        total = 0j
        for i, c in enumerate(self.coeffs):
            if c:
                total += float(c) * z ** i
        return total

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                term = str(c)
            else:
                gen = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
                if c == 1:
                    term = gen
                elif c == -1:
                    term = f"-{gen}"
                else:
                    term = f"{c}*{gen}"
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
        return CycNumber.make(int(record["order"]), record["coeffs"])


_CYC_ZERO = CycNumber(1, (_ZERO,))
_CYC_ONE = CycNumber(1, (_ONE,))


def _coerce(value) -> CycNumber | None:
    if isinstance(value, CycNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return CycNumber(1, (Fraction(value),))
    return None


def root_of_unity(order: int, k: int) -> CycNumber:
    """zeta_order^k in canonical form; depends only on k mod order.

    >>> root_of_unity(4, 1) ** 2 == -1
    True
    """
    _check_order(order)
    return CycNumber(order, _zeta_power(order, k % order))


@lru_cache(maxsize=None)
def _lift_basis(big: int, small: int) -> tuple[tuple[Fraction, ...], ...]:
    """Columns: the order-``big`` coordinates of zeta_small^j, j < phi(small)."""
    cols = []
    for j in range(euler_phi(small)):
        cols.append(root_of_unity(small, j).lift(big).coeffs)
    return tuple(cols)


def _solve_exact(columns, targets) -> list[list[CycNumber]] | None:
    """Solve sum_j x_j * columns[j] = t over the field for every t in targets.

    Gauss-Jordan elimination; free unknowns are set to zero.  Returns one
    solution per target, or None when some target is out of reach.
    """
    rows, ncols = len(targets[0]), len(columns)
    aug = [[col[i] for col in columns] + [t[i] for t in targets] for i in range(rows)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, rows) if not aug[i][c].is_zero()), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][c].inverse()
        aug[r] = [v * inv for v in aug[r]]
        for i in range(rows):
            if i != r and not aug[i][c].is_zero():
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        if len(pivots) == rows:
            break
    # Inconsistent when a zeroed row keeps a nonzero target entry.
    if any(not v.is_zero() for row in aug[len(pivots):] for v in row[ncols:]):
        return None
    rows_of = dict(zip(pivots, aug))
    return [[rows_of[c][ncols + t] if c in rows_of else CycNumber.zero() for c in range(ncols)]
            for t in range(len(targets))]


def parse_rational(text) -> Fraction:
    """Parse the wire form of a rational: base-10 'p/q' or 'p', optional sign."""
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    return Fraction(str(text).replace("−", "-").strip())


def format_rational(value: Fraction) -> str:
    return str(value)

"""Finite-dimensional representations of the modular group, given by exact
matrices for the generators S = [[0,-1],[1,0]] and T = [[1,1],[0,1]].

Validation checks the defining relations with exact matrix arithmetic.  The
second distinguished element is U = S*T^(-1) = [[0,-1],[1,-1]], which has
order 3; its eigenvalue multiplicities (together with those of S) are
recovered from traces alone, with no eigendecomposition.  ``traces`` alone
sums diagonals; every reader of its record (multiplicities, also of twists,
the weight profile, ``detlab.det_n``) reads a trace in the subfield it lies
in, so none is lifted past the order of the representation.

Only pure-parity representations are accepted: rho(S)^2 must be plus or
minus the identity.  Mixed inputs must be split into parity blocks first.
"""

from __future__ import annotations

import math
from operator import mul

from .errors import RepValidationError
from .exactfield import (CycNumber, _check_order, _coerce, _eliminate, _gauss_jordan, _integral,
                         _lowest, _pack, _Record, _reduction_rows, _set, _unpack, euler_phi,
                         root_of_unity)

Matrix = tuple[tuple[CycNumber, ...], ...]

# The order-12 generating linear character: values on S and U.
_CHAR_S = 9   # zeta_12^9 = -i
_CHAR_U = 8   # zeta_12^8 = exp(4*pi*i/3)
_CHAR_T = 1   # zeta_12   (= value(U)^-1 * value(S))


# -- small exact matrix helpers ---------------------------------------------

def _entry(v) -> CycNumber:
    if (c := _coerce(v)) is None:
        raise TypeError(f"matrix entries must be exact numbers, got {v!r}")
    return c


def _mat(rows) -> Matrix:
    return tuple(tuple(map(_entry, row)) for row in rows)


def _identity(d: int) -> Matrix:
    return tuple(tuple(CycNumber.one() if i == j else CycNumber.zero()
                       for j in range(d)) for i in range(d))


def _mat_trace(a: Matrix) -> CycNumber:
    return sum((row[i] for i, row in enumerate(a)), CycNumber.zero())


def _block_diag(a: Matrix, b: Matrix) -> Matrix:
    right, left = (CycNumber.zero(),) * len(b), (CycNumber.zero(),) * len(a)
    return tuple(tuple(row) + right for row in a) + tuple(left + tuple(row) for row in b)


# -- integer coordinate slabs --------------------------------------------------
# make_rep's relation checks, _mat_inv and _min_poly work on slabs: a d x d
# matrix at order N as one flat list of integer power-basis coordinates, phi(N)
# per entry, row-major, over one positive denominator (the layout of
# QSeries.nums).  In lowest terms, equal matrices have equal slabs.

def _order(m: Matrix) -> int:
    return math.lcm(*(c.order for row in m for c in row))


def _slab(m: Matrix, order: int):
    cells = [c.lift(order) for row in m for c in row]  # each in lowest terms, so is the slab
    den = math.lcm(*(c.den for c in cells))
    return [x * (den // c.den) for c in cells for x in c.num], den


def _slab_mul(a, b, order: int):
    """a * b: each entry's coordinates packed into one int, at a slot width
    that bounds every sum, so a dot product is one sum of d int products;
    its slots, zeta^0..zeta^(2phi-2), are folded by _reduction_rows."""
    (xs, xden), (ys, yden), phi = a, b, euler_phi(order)
    d, span = math.isqrt(len(xs) // phi), 2 * phi - 1
    width = (d * phi * (max(map(abs, xs)) or 1) * (max(map(abs, ys)) or 1)).bit_length() // 8 + 1
    xs, ys = ([_pack(zs[k:k + phi], width) for k in range(0, len(zs), phi)] for zs in (xs, ys))
    cols, fold = [ys[j::d] for j in range(d)], list(zip(*_reduction_rows(order)[:span]))
    out = []
    for i in range(0, d * d, d):
        for col in cols:
            slots = _unpack(sum(map(mul, xs[i:i + d], col)), span, width)
            out += [sum(map(mul, slots, r)) for r in fold]
    return _lowest(out, xden * yden)


def _mat_inv(a: Matrix) -> Matrix:
    """Inverse over the cyclotomic field: Gauss-Jordan on the integer rows of
    [a | I], the pivot of column c the first row from c with a nonzero entry
    in column c, each scaled to an integer instead of 1, as in _gauss_jordan.
    Every entry comes back at the order that the same elimination over
    CycNumber entries gives it: the lcm of the orders of the entries
    combined into it."""
    d, order = len(a), _order(a)
    phi = euler_phi(order)
    nums, den = _slab(a, order)
    rows = [nums[i * d * phi:(i + 1) * d * phi] + [0] * (i * phi) + [den]
            + [0] * ((d - i) * phi - 1) for i in range(d)]
    orders = [[c.order for c in row] + [1] * d for row in a]
    for c in range(d):
        r = next((i for i in range(c, d) if any(rows[i][c * phi:(c + 1) * phi])), None)
        if r is None:
            raise RepValidationError("matrix is singular; generator images must be invertible")
        rows[c], rows[r], orders[c], orders[r] = rows[r], rows[c], orders[r], orders[c]
        rows[c] = _integral(rows[c], c, order)
        orders[c] = [math.lcm(o, orders[c][c]) for o in orders[c]]
        for i in range(d):
            if i != c and any(rows[i][c * phi:(c + 1) * phi]):
                orders[i] = [math.lcm(o, orders[i][c], p) for o, p in zip(orders[i], orders[c])]
                rows[i] = _eliminate(rows[i], rows[c], c, order)
    return tuple(tuple(CycNumber(order, tuple(row[(d + j) * phi:(d + j + 1) * phi]), row[i * phi])
                       .reduce_order_to(o) for j, o in enumerate(ords[d:]))
                 for i, (row, ords) in enumerate(zip(rows, orders)))


def _product_orders(a: Matrix, b: Matrix) -> list[list[int]]:
    """The orders of a * b's entries as sums from the order-1 zero of the
    nonzero CycNumber products give them: their lcm, else 1."""
    za, zb = ([[c.order if any(c.num) else 0 for c in row] for row in m] for m in (a, zip(*b)))
    return [[math.lcm(*(math.lcm(x, y) for x, y in zip(row, col) if x and y)) for col in zb]
            for row in za]


# -- representation spec -----------------------------------------------------

class RepSpec(_Record):
    """A validated representation: its name, dimension d, cyclotomic order,
    rho(S), rho(T), parity epsilon and rho(U) = rho(S) rho(T)^-1 (from
    make_rep's one inverse), each matrix a d-tuple of d-tuples of CycNumber.
    It compares and hashes by identity."""

    __slots__ = ("name", "dimension", "order", "s", "t", "epsilon", "rho_u")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def u(self) -> Matrix:
        """The image of [[0,-1],[1,-1]] = S*T^(-1)."""
        return self.rho_u

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "dimension": self.dimension,
            "cyclotomic_order": self.order,
            "S": [[c.to_record() for c in row] for row in self.s],
            "T": [[c.to_record() for c in row] for row in self.t],
        }


def make_rep(name: str, s_rows, t_rows) -> RepSpec:
    """Validate generator matrices and determine the parity.

    Checks, in order: squareness, rho(S)^4 = 1, invertibility of rho(T),
    (rho(S) rho(T)^-1)^3 = 1, rho(S)^2 central, and rho(S)^2 = +-1.
    Each failure is reported by name.
    """
    s, t = _mat(s_rows), _mat(t_rows)
    d = len(s)
    if d == 0 or any(len(r) != d for r in s) or len(t) != d or any(len(r) != d for r in t):
        raise RepValidationError("generator matrices must be square and of equal size")
    order = math.lcm(_order(s), _order(t))
    _check_order(order)
    ss, ts, one = _slab(s, order), _slab(t, order), _slab(_identity(d), order)
    s2 = _slab_mul(ss, ss, order)
    if _slab_mul(s2, s2, order) != one:
        raise RepValidationError("relation rho(S)^4 = 1 fails")
    t_inv = _mat_inv(t)
    u = _slab_mul(ss, _slab(t_inv, order), order)
    if _slab_mul(_slab_mul(u, u, order), u, order) != one:
        raise RepValidationError("relation (rho(S) rho(T)^-1)^3 = 1 fails")
    if _slab_mul(s2, ts, order) != _slab_mul(ts, s2, order):
        raise RepValidationError("rho(S)^2 does not commute with rho(T)")
    if s2 == one:
        epsilon = 0
    elif s2 == ([-x for x in one[0]], 1):
        epsilon = 1
    else:
        raise RepValidationError(
            "rho(S)^2 is not plus or minus the identity: "
            "decompose into even/odd parts first"
        )
    nums, den, phi = *u, euler_phi(order)
    u = tuple(tuple(CycNumber(order, tuple(nums[(i * d + j) * phi:(i * d + j + 1) * phi]), den)
                    .reduce_order_to(o) for j, o in enumerate(row))
              for i, row in enumerate(_product_orders(s, t_inv)))
    return RepSpec(name, d, order, s, t, epsilon, u)


def load_rep(record: dict) -> RepSpec:
    """Parse and validate the wire form of a representation."""
    s = [[CycNumber.from_record(c) for c in row] for row in record["S"]]
    t = [[CycNumber.from_record(c) for c in row] for row in record["T"]]
    rep = make_rep(str(record.get("name", "rep")), s, t)
    declared = record.get("dimension")
    if declared is not None and int(declared) != rep.dimension:
        raise RepValidationError(
            f"declared dimension {declared} does not match matrices ({rep.dimension})"
        )
    declared_order = record.get("cyclotomic_order")
    if declared_order is not None and int(declared_order) % rep.order != 0:
        raise RepValidationError(
            f"declared cyclotomic order {declared_order} cannot hold entries "
            f"of order {rep.order}"
        )
    return rep


def character_value(element: str, j: int) -> CycNumber:
    """Value of the j-th power of the order-12 character on S, T or U."""
    base = {"S": _CHAR_S, "T": _CHAR_T, "U": _CHAR_U}[element]
    return root_of_unity(12, base * j).demoted()


def linear_character(j: int) -> RepSpec:
    """The j-th power of the generating linear character (period 12).

    j = 0 gives the trivial representation; odd j are odd representations.
    """
    j %= 12
    name = "trivial" if j == 0 else f"kappa^{j}"
    return make_rep(name, [[character_value("S", j)]], [[character_value("T", j)]])


def direct_sum(a: RepSpec, b: RepSpec) -> RepSpec:
    if a.epsilon != b.epsilon:
        raise RepValidationError(
            "parity mismatch: direct summands must both be even or both odd"
        )
    _check_order(order := math.lcm(a.order, b.order))
    return RepSpec(f"{a.name}(+){b.name}", a.dimension + b.dimension, order,
                   _block_diag(a.s, b.s), _block_diag(a.t, b.t), a.epsilon,
                   _block_diag(a.rho_u, b.rho_u))


# -- traces and multiplicities ------------------------------------------------

class TraceData(_Record):
    """Tr rho(S), Tr rho(U) and Tr rho(U)^-1.  Given rho(U) in place of the
    last, it sums Tr rho(U)^-1 on the first read of ``u_inv``."""

    __slots__ = ("s", "u", "u_inv", "_rho_u")

    def __init__(self, s: CycNumber, u: CycNumber, u_inv: CycNumber | None = None,
                 rho_u: Matrix | None = None):
        _set(self, "s", s)
        _set(self, "u", u)
        if u_inv is not None:
            _set(self, "u_inv", u_inv)
        _set(self, "_rho_u", rho_u)

    def __getattr__(self, name: str):
        """Reached only by a read of ``u_inv`` before it is set: Tr U^2 sums
        the nonzero products U_ik * U_ki, the diagonal of U*U alone."""
        if name != "u_inv":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        u = self._rho_u
        _set(self, "u_inv", sum((x * u[k][i] for i, row in enumerate(u) for k, x in enumerate(row)
                                 if not x.is_zero() and not u[k][i].is_zero()), CycNumber.zero()))
        return self.u_inv


def traces(rep: RepSpec) -> TraceData:
    """Exact traces of rho(S), rho(U) and rho(U)^-1 = rho(U)^2 with U = S*T^(-1);
    the last is summed only when it is read (``TraceData.u_inv``)."""
    u = rep.u()
    return TraceData(_mat_trace(rep.s), _mat_trace(u), rho_u=u)


class Multiplicities(_Record):
    """Eigenvalue multiplicities of the evenized representation:
    alpha for -1 under S, beta1/beta2 for the primitive cube roots under U."""

    __slots__ = ("alpha", "beta1", "beta2")

    def __add__(self, other: Multiplicities) -> Multiplicities:
        return Multiplicities(self.alpha + other.alpha,
                              self.beta1 + other.beta1,
                              self.beta2 + other.beta2)


def _subfield(value: CycNumber, order: int) -> CycNumber:
    """``value`` at ``order``, read first in Q(zeta_gcd(value.order, order)), so
    that no lift passes either order; ValueError when it does not lie there."""
    return value.reduce_order_to(math.gcd(value.order, order)).lift(order)


def multiplicities(rep: RepSpec) -> Multiplicities:
    """Recover (alpha, beta1, beta2) of the evenized representation from
    traces: Tr S = d - 2*alpha and Tr U = (d - beta1 - 2*beta2) + (beta1 -
    beta2)*zeta_3.  An odd representation is evenized by kappa^-1.
    Non-integral or out-of-range solutions mean the input cannot be a
    pure-parity representation.
    """
    return _counts(traces(rep), rep.dimension, -rep.epsilon)


def _counts(data: TraceData, d: int, j: int) -> Multiplicities:
    """The multiplicities of the twist by kappa^j (j of the parity) of a
    dimension-d representation with traces ``data``: Tr S (in Q(i) when j is
    odd, as kappa^j(S) = (-i)^j) and Tr U (in Q(zeta_3)) times kappa^j's
    values on S and U; no matrix is twisted."""
    bad = RepValidationError(
        "trace data inconsistent with the eigenvalue relations "
        "(is this really a pure-parity representation?)"
    )
    try:
        ts = ((_subfield(data.s, 4) if j % 2 else data.s)
              * character_value("S", j)).as_rational()
        # kappa^j(U) = zeta_12^(8j) = zeta_3^(2j), taken in Q(zeta_3) as well.
        tu = _subfield(data.u, 3) * root_of_unity(3, 2 * j)
    except ValueError:
        raise bad from None
    u, v = tu.coeffs
    if ts.denominator != 1 or u.denominator != 1 or v.denominator != 1:
        raise bad
    if (d - ts) % 2 != 0 or (d - u - v) % 3 != 0:
        raise bad
    alpha = (d - int(ts)) // 2
    beta2 = (d - int(u) - int(v)) // 3
    beta1 = int(v) + beta2
    if not (0 <= alpha <= d and beta1 >= 0 and beta2 >= 0 and beta1 + beta2 <= d):
        raise bad
    return Multiplicities(alpha, beta1, beta2)


# -- diagnostic: semisimplicity of rho(T) --------------------------------------

def t_is_semisimple(rep: RepSpec) -> bool:
    """Whether rho(T) is diagonalizable (minimal polynomial squarefree).

    Representations with a non-semisimple T image pass the relation checks
    but belong to the logarithmic setting, where the weight machinery here
    does not apply; reports flag them instead of rejecting.
    """
    return _squarefree(_min_poly(rep.t))


def _squarefree(p: list[CycNumber]) -> bool:
    """Whether gcd(p, p') = 1 (coefficients constant-first, p[-1] != 0, deg
    p = n >= 1): whether the (2n-1)x(2n-1) Sylvester matrix of p and p', n - 1
    shifted rows of p over n of p', has a pivot in every column."""
    n, order = len(p) - 1, _order((p,))
    phi, size, deriv = euler_phi(order), 2 * n - 1, [c * i for i, c in enumerate(p)][1:]
    # p and p' as integer coordinates at the lcm order, shifted along each
    # row; dropping their denominators does not change the rank.
    rows = [[0] * (i * phi) + xs + [0] * ((size - i) * phi - len(xs))
            for xs, count in ((_slab((p,), order)[0], n - 1), (_slab((deriv,), order)[0], n))
            for i in range(count)]
    return _gauss_jordan(rows, size, order)


def _min_poly(m: Matrix) -> list[CycNumber]:
    """Minimal polynomial via the first linear dependence among the powers of
    m, built one at a time: m^k flattened, then the coordinates of x^k, is
    reduced against the earlier powers (each with its first nonzero entry
    made an integer), and the first to vanish leaves the dependence in its
    tail, a multiple of the monic one."""
    d, order = len(m), _order(m)
    phi, size = euler_phi(order), d * d
    slab, power, basis = _slab(m, order), _slab(_identity(d), order), []
    for k in range(d + 1):
        if k:
            power = _slab_mul(power, slab, order) if k > 1 else slab
        w = power[0] + [0] * (k * phi) + [power[1]] + [0] * ((d + 1 - k) * phi - 1)
        for at, row in basis:
            if any(w[at * phi:(at + 1) * phi]):
                w = _eliminate(w, row, at, order)
        at = next((e for e in range(size) if any(w[e * phi:(e + 1) * phi])), None)
        if at is None:
            tail = w[size * phi:]
            return [CycNumber(order, tuple(tail[i * phi:(i + 1) * phi]), tail[k * phi])
                    for i in range(k)] + [CycNumber.one()]
        basis.append((at, _integral(w, at, order)))
    raise ArithmeticError("Cayley-Hamilton bounds the degree by the dimension")

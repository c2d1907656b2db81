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
minus the identity.  Mixed inputs must be split into parity blocks first
(see split_by_parity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import RepValidationError
from .exactfield import (CycNumber, _check_order, _coerce, _row_reduce, _solve_exact,
                         root_of_unity)

Matrix = tuple[tuple[CycNumber, ...], ...]

# The order-12 generating linear character: values on S and U.
_CHAR_S = 9   # zeta_12^9 = -i
_CHAR_U = 8   # zeta_12^8 = exp(4*pi*i/3)
_CHAR_T = 1   # zeta_12   (= value(U)^-1 * value(S))


# -- small exact matrix helpers ---------------------------------------------

def _mat(rows) -> Matrix:
    out = []
    for row in rows:
        cells = []
        for v in row:
            c = _coerce(v)
            if c is None:
                raise TypeError(f"matrix entries must be exact numbers, got {v!r}")
            cells.append(c)
        out.append(tuple(cells))
    return tuple(out)


def _identity(d: int) -> Matrix:
    return tuple(tuple(CycNumber.one() if i == j else CycNumber.zero()
                       for j in range(d)) for i in range(d))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    d = len(a)
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = CycNumber.zero()
            for k in range(d):
                if not a[i][k].is_zero() and not b[k][j].is_zero():
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _mat_scale(a: Matrix, c: CycNumber) -> Matrix:
    return tuple(tuple(v * c for v in row) for row in a)


def _mat_trace(a: Matrix) -> CycNumber:
    acc = CycNumber.zero()
    for i in range(len(a)):
        acc = acc + a[i][i]
    return acc


def _mat_inv(a: Matrix) -> Matrix:
    """Inverse over the cyclotomic field: solve a * X = I column by column."""
    d = len(a)
    cols = _solve_exact([[row[j] for row in a] for j in range(d)], list(_identity(d)))
    if cols is None:
        raise RepValidationError("matrix is singular; generator images must be invertible")
    return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))


def _block_diag(a: Matrix, b: Matrix) -> Matrix:
    da, db = len(a), len(b)
    zero = CycNumber.zero()
    out = []
    for i in range(da):
        out.append(tuple(a[i]) + tuple(zero for _ in range(db)))
    for i in range(db):
        out.append(tuple(zero for _ in range(da)) + tuple(b[i]))
    return tuple(out)


# -- representation spec -----------------------------------------------------

@dataclass(frozen=True, eq=False)
class RepSpec:
    name: str
    dimension: int
    order: int
    s: Matrix
    t: Matrix
    epsilon: int
    rho_u: Matrix  # rho(S) rho(T)^-1, from make_rep's one inverse

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


def matrices_equal(a: RepSpec, b: RepSpec) -> bool:
    return a.dimension == b.dimension and _mat_eq(a.s, b.s) and _mat_eq(a.t, b.t)


def make_rep(name: str, s_rows, t_rows) -> RepSpec:
    """Validate generator matrices and determine the parity.

    Checks, in order: squareness, rho(S)^4 = 1, invertibility of rho(T),
    (rho(S) rho(T)^-1)^3 = 1, rho(S)^2 central, and rho(S)^2 = +-1.
    Each failure is reported by name.
    """
    s = _mat(s_rows)
    t = _mat(t_rows)
    d = len(s)
    if d == 0 or any(len(r) != d for r in s) or len(t) != d or any(len(r) != d for r in t):
        raise RepValidationError("generator matrices must be square and of equal size")
    order = 1
    for m in (s, t):
        for row in m:
            for c in row:
                order = math.lcm(order, c.order)
    _check_order(order)
    ident = _identity(d)
    s2 = _mat_mul(s, s)
    if not _mat_eq(_mat_mul(s2, s2), ident):
        raise RepValidationError("relation rho(S)^4 = 1 fails")
    u = _mat_mul(s, _mat_inv(t))
    if not _mat_eq(_mat_mul(_mat_mul(u, u), u), ident):
        raise RepValidationError("relation (rho(S) rho(T)^-1)^3 = 1 fails")
    if not _mat_eq(_mat_mul(s2, t), _mat_mul(t, s2)):
        raise RepValidationError("rho(S)^2 does not commute with rho(T)")
    if _mat_eq(s2, ident):
        epsilon = 0
    elif _mat_eq(s2, _mat_scale(ident, CycNumber.from_rational(-1))):
        epsilon = 1
    else:
        raise RepValidationError(
            "rho(S)^2 is not plus or minus the identity: "
            "decompose into even/odd parts first"
        )
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


def twist(rep: RepSpec, j: int) -> RepSpec:
    """Tensor with the j-th character power; parity flips with odd j."""
    _check_order(order := math.lcm(rep.order, 12 if j % 12 else 1))
    s = _mat_scale(rep.s, character_value("S", j))
    t = _mat_scale(rep.t, character_value("T", j))
    u = _mat_scale(rep.rho_u, character_value("U", j))
    name = rep.name if j % 12 == 0 else f"{rep.name}*kappa^{j % 12}"
    return RepSpec(name, rep.dimension, order, s, t, (rep.epsilon + j) % 2, u)


def direct_sum(a: RepSpec, b: RepSpec) -> RepSpec:
    if a.epsilon != b.epsilon:
        raise RepValidationError(
            "parity mismatch: direct summands must both be even or both odd"
        )
    _check_order(order := math.lcm(a.order, b.order))
    return RepSpec(f"{a.name}(+){b.name}", a.dimension + b.dimension, order,
                   _block_diag(a.s, b.s), _block_diag(a.t, b.t), a.epsilon,
                   _block_diag(a.rho_u, b.rho_u))


def split_by_parity(blocks) -> tuple[RepSpec | None, RepSpec | None]:
    """Direct-sum explicitly given pure-parity blocks into (even, odd) parts.

    This is the supported route for mixed inputs; block structure is not
    detected automatically.
    """
    even = odd = None
    for block in blocks:
        if block.epsilon == 0:
            even = block if even is None else direct_sum(even, block)
        else:
            odd = block if odd is None else direct_sum(odd, block)
    return even, odd


# -- traces and multiplicities ------------------------------------------------

@dataclass(frozen=True)
class TraceData:
    s: CycNumber
    u: CycNumber
    u_inv: CycNumber


def traces(rep: RepSpec) -> TraceData:
    """Exact traces of rho(S), rho(U) and rho(U)^-1 = rho(U)^2 with U = S*T^(-1);
    Tr U^2 sums the nonzero products U_ik * U_ki, the diagonal of U*U alone."""
    u = rep.u()
    u_inv = sum((x * u[k][i] for i, row in enumerate(u) for k, x in enumerate(row)
                 if not x.is_zero() and not u[k][i].is_zero()), CycNumber.zero())
    return TraceData(_mat_trace(rep.s), _mat_trace(u), u_inv)


@dataclass(frozen=True)
class Multiplicities:
    """Eigenvalue multiplicities of the evenized representation:
    alpha for -1 under S, beta1/beta2 for the primitive cube roots under U."""

    alpha: int
    beta1: int
    beta2: int

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
    shifted rows of p over n of p', is nonsingular."""
    n, zero = len(p) - 1, CycNumber.zero()
    deriv = [c * i for i, c in enumerate(p)][1:]
    rows = [[zero] * i + q + [zero] * (2 * n - 1 - i - len(q))
            for q, count in ((p, n - 1), (deriv, n)) for i in range(count)]
    return len(_row_reduce(rows, 2 * n - 1)) == 2 * n - 1


def _min_poly(m: Matrix) -> list[CycNumber]:
    """Minimal polynomial via the first linear dependence among powers of m: the
    first column without a pivot in one row reduction of m^0..m^d flattened."""
    d = len(m)
    powers = [_identity(d)]
    for _ in range(d):
        powers.append(_mat_mul(powers[-1], m))
    aug = [[p[i][j] for p in powers] for i in range(d) for j in range(d)]
    pivots = _row_reduce(aug, d + 1)
    deg = next(c for c in range(d + 1) if c == len(pivots) or pivots[c] != c)
    return [-aug[i][deg] for i in range(deg)] + [CycNumber.one()]

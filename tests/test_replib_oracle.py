"""Traces, minimal polynomials and the exact solver against the routes they
replaced.

``make_rep`` inverts rho(T) once and the ``RepSpec`` keeps rho(U) =
rho(S) rho(T)^-1; ``twist`` scales it by the character's value on U and
``direct_sum`` stacks the two blocks.  The oracle ``oracle_u`` is the earlier
``RepSpec.u`` body, which inverted rho(T) on every call, and
``oracle_traces`` took Tr rho(U)^-1 as the trace of the whole product U*U.
For a representation from ``make_rep`` both routes form the same products
and sums, so the traces match by ``to_record()``, cyclotomic order included;
twists and direct sums reach rho(U) another way and match by value.

``make_rep``'s relation checks, ``_mat_inv`` and ``_min_poly`` work on
integer coordinate slabs.  The ``CycNumber`` routes they replaced live here:
``_mat_mul``, ``_mat_inv``, ``reduced_min_poly`` (the ``_min_poly`` that
row-reduced all d + 1 powers at once) and ``oracle_make_rep`` (the relation
checks on them).  They are compared on seeded conjugates over Q(zeta_N), N =
1, 3, 4, 12, 35 and 280, with fraction and mixed-order entries and Jordan
blocks: rho(U) entry by entry and the traces by ``to_record()``, the
minimal polynomials of rho(S), rho(T) and rho(U), semisimplicity, and the
message of every failing relation (a zero row or two equal rows make rho(T)
singular); and on random matrices with zero rows: the inverse by
``to_record()`` (or its message), the minimal polynomial and the square.
On ``pin_record``'s rho(T), of degree 6, ``_min_poly`` takes five products.

``exactfield``'s integer-row elimination (``_integral``, ``_eliminate`` and
their loop ``_gauss_jordan``) is the package's one exact elimination.  The
Gauss-Jordan over ``CycNumber`` entries it replaced, ``_row_reduce`` and
``_solve_exact``, lives here verbatim: ``reduced_min_poly`` row-reduces the
powers of a matrix once, its oracle ``oracle_min_poly`` restarts the solver
for each degree, and ``_solve_exact``'s own oracle is the single loop it was
split from.  ``oracle_reduce_order_to`` is ``CycNumber.reduce_order_to`` as
one ``_solve_exact``; the two must give the same value at the same order, or
the same message, for every divisor m of n = 1, 12, 35, 280 and 360, on
elements inside Q(zeta_m) and outside it.  Neither the subfield read nor the
squarefree test builds a ``CycNumber`` per matrix entry.

``t_is_semisimple`` asks ``_squarefree`` whether the Sylvester matrix of the
minimal polynomial p and p' has full rank, on integer rows at the lcm order
of p; its oracle ``_poly_gcd`` runs Euclid over the field, with
``_poly_divmod`` from ``test_exactfield_oracle``.  They are compared on
Jordan blocks and on random polynomials of degree 1 to 8 over Q(zeta_12),
over its subfields mixed and over Q(zeta_35), with and without repeated
roots.

``twist``, ``split_by_parity`` and ``matrices_equal`` (with ``_mat_scale`` and
``_mat_eq``) had no caller in the package and live here as oracles: ``twist``
scales the matrices by the character's values, as the twisting routes below
did.

``multiplicities`` reads Tr U in Q(zeta_3), and an odd representation's Tr S
in Q(i), before any lift, and scales the traces by the values of kappa^-1
instead of twisting the matrices; ``oracle_multiplicities`` lifted Tr U to
lcm(N, 3) and twisted.  They must agree, result or error, on the seeded
representations, their twists, direct sums and flipped parities; over
Q(zeta_280) and Q(zeta_35), where the oracle passes the order bound, the new
route must give the multiplicities of the unconjugated representation.
``det_n`` reads the multiplicities of the twist by kappa^-n the same way;
``oracle_det_n`` is its earlier body, which twisted the matrices, and the
same comparisons hold for n = -3..3.  ``direct_sum`` and ``twist`` refuse a
combined cyclotomic order above the bound before building any matrix.

Inputs are seeded conjugates P * M * P^-1 built by ``perfbench/inputs.py``
(loaded from its file and only read), whose arithmetic is independent of
vvmf: direct sums of characters, even and odd, and symmetric powers of the
defining representation, where rho(T) is one Jordan block.
"""

import functools
import importlib.util
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from test_exactfield_oracle import _poly_divmod, _poly_trim

from vvmf import replib
from vvmf.cli import main
from vvmf.detlab import det_n
from vvmf.errors import RepValidationError
from vvmf.exactfield import CycNumber, _check_order, _reduction_rows, euler_phi, root_of_unity
from vvmf.replib import (Multiplicities, RepSpec, TraceData, _identity, _mat, _mat_trace,
                         _min_poly, _squarefree, character_value, direct_sum, load_rep, make_rep,
                         multiplicities, t_is_semisimple, traces)
from vvmf.scalarforms import e4_e6_delta

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"


def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _perfbench_inputs()


# -- the replaced routes -------------------------------------------------------

def _row_reduce(aug: list[list[CycNumber]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination of the first ``ncols`` columns of ``aug`` in
    place; returns the pivot columns, pivots[i] that of row i.  A column with
    no pivot keeps its coordinates over the pivot columns before it."""
    rows, pivots = len(aug), []
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
    return pivots


def _solve_exact(columns, targets) -> list[list[CycNumber]] | None:
    """Solve sum_j x_j * columns[j] = t over the field for every t in targets.

    One ``_row_reduce``; free unknowns are set to zero.  Returns one
    solution per target, or None when some target is out of reach.
    """
    rows, ncols = len(targets[0]), len(columns)
    aug = [[col[i] for col in columns] + [t[i] for t in targets] for i in range(rows)]
    pivots = _row_reduce(aug, ncols)
    # Inconsistent when a zeroed row keeps a nonzero target entry.
    if any(not v.is_zero() for row in aug[len(pivots):] for v in row[ncols:]):
        return None
    rows_of = dict(zip(pivots, aug))
    return [[rows_of[c][ncols + t] if c in rows_of else CycNumber.zero() for c in range(ncols)]
            for t in range(len(targets))]


def oracle_reduce_order_to(x, order):
    """``CycNumber.reduce_order_to`` by one ``_solve_exact`` over order-1
    ``CycNumber`` entries."""
    if order == x.order:
        return x
    if x.order % order != 0:
        raise ValueError(f"order {order} does not divide {x.order}")
    rows, step = _reduction_rows(x.order), x.order // order
    basis = [[CycNumber(1, (v,)) for v in rows[step * j]] for j in range(euler_phi(order))]
    sol = _solve_exact(basis, [[CycNumber(1, (v,)) for v in x.num]])
    if sol is None:
        raise ValueError(f"{x} does not lie in Q(zeta_{order})")
    return CycNumber(order, tuple(v.as_rational() for v in sol[0]), x.den)


def _mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _mat_scale(a, c):
    return tuple(tuple(v * c for v in row) for row in a)


def matrices_equal(a: RepSpec, b: RepSpec) -> bool:
    return a.dimension == b.dimension and _mat_eq(a.s, b.s) and _mat_eq(a.t, b.t)


def twist(rep: RepSpec, j: int) -> RepSpec:
    """Tensor with the j-th character power; parity flips with odd j."""
    _check_order(order := math.lcm(rep.order, 12 if j % 12 else 1))
    s = _mat_scale(rep.s, character_value("S", j))
    t = _mat_scale(rep.t, character_value("T", j))
    u = _mat_scale(rep.rho_u, character_value("U", j))
    name = rep.name if j % 12 == 0 else f"{rep.name}*kappa^{j % 12}"
    return RepSpec(name, rep.dimension, order, s, t, (rep.epsilon + j) % 2, u)


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


def _mat_mul(a, b):
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


def _mat_inv(a):
    """Inverse over the cyclotomic field: solve a * X = I column by column."""
    d = len(a)
    cols = _solve_exact([[row[j] for row in a] for j in range(d)], list(_identity(d)))
    if cols is None:
        raise RepValidationError("matrix is singular; generator images must be invertible")
    return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))


def reduced_min_poly(m):
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


def oracle_make_rep(s_rows, t_rows):
    """The relation checks of ``make_rep`` by ``CycNumber`` matrix products:
    (epsilon, rho(U)), or the ``RepValidationError`` message."""
    s = _mat(s_rows)
    t = _mat(t_rows)
    d = len(s)
    if d == 0 or any(len(r) != d for r in s) or len(t) != d or any(len(r) != d for r in t):
        return "generator matrices must be square and of equal size"
    ident = _identity(d)
    s2 = _mat_mul(s, s)
    if not _mat_eq(_mat_mul(s2, s2), ident):
        return "relation rho(S)^4 = 1 fails"
    try:
        u = _mat_mul(s, _mat_inv(t))
    except RepValidationError as exc:
        return str(exc)
    if not _mat_eq(_mat_mul(_mat_mul(u, u), u), ident):
        return "relation (rho(S) rho(T)^-1)^3 = 1 fails"
    if not _mat_eq(_mat_mul(s2, t), _mat_mul(t, s2)):
        return "rho(S)^2 does not commute with rho(T)"
    if _mat_eq(s2, ident):
        return 0, u
    if _mat_eq(s2, _mat_scale(ident, CycNumber.from_rational(-1))):
        return 1, u
    return ("rho(S)^2 is not plus or minus the identity: "
            "decompose into even/odd parts first")


def oracle_u(rep):
    """The image of [[0,-1],[1,-1]] = S*T^(-1)."""
    return _mat_mul(rep.s, _mat_inv(rep.t))


def oracle_traces(rep) -> TraceData:
    """Exact traces of rho(S), rho(U) and rho(U)^-1 with U = S*T^(-1)."""
    u = oracle_u(rep)
    return TraceData(_mat_trace(rep.s), _mat_trace(u),
                     _mat_trace(_mat_mul(u, u)))


def oracle_min_poly(m):
    """Minimal polynomial via the first linear dependence among powers of m."""
    d = len(m)
    powers = [_identity(d)]
    for _ in range(d):
        powers.append(_mat_mul(powers[-1], m))
    vecs = [[p[i][j] for i in range(d) for j in range(d)] for p in powers]
    for deg in range(1, d + 1):
        sol = _solve_exact(vecs[:deg], [vecs[deg]])
        if sol is not None:
            return [-c for c in sol[0]] + [CycNumber.one()]
    raise AssertionError("Cayley-Hamilton guarantees a dependence by degree d")


def _poly_gcd(a: list[CycNumber], b: list[CycNumber]) -> list[CycNumber]:
    """Monic gcd over the cyclotomic field (coefficients constant-first)."""
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


def oracle_semisimple(m) -> bool:
    minpoly = oracle_min_poly(m)
    deriv = [c * i for i, c in enumerate(minpoly)][1:]
    return len(_poly_gcd(minpoly, deriv)) == 1


def _eisenstein_coords(value: CycNumber) -> tuple[Fraction, Fraction]:
    """Write a cyclotomic number as u + v*zeta_3; ValueError if impossible."""
    lifted = value.lift(math.lcm(value.order, 3))
    reduced = lifted.reduce_order_to(3)
    return reduced.coeffs[0], reduced.coeffs[1]


def oracle_multiplicities(rep) -> Multiplicities:
    """Recover (alpha, beta1, beta2) of the evenized representation from
    traces: Tr S = d - 2*alpha and Tr U = (d - beta1 - 2*beta2) + (beta1 -
    beta2)*zeta_3.  Non-integral or out-of-range solutions mean the input
    cannot be a pure-parity representation.
    """
    rdot = rep if rep.epsilon == 0 else twist(rep, -1)
    d = rep.dimension
    data = traces(rdot)
    bad = RepValidationError(
        "trace data inconsistent with the eigenvalue relations "
        "(is this really a pure-parity representation?)"
    )
    try:
        ts = data.s.as_rational()
        u, v = _eisenstein_coords(data.u)
    except ValueError:
        raise bad from None
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


def oracle_det_n(rep, n: int, order: int):
    """Normalized generating-set determinant in weight class n, reduced to
    the even weight-0 case through the weight-shifting twist:
    delta^(n*d) * det_zero(rep twisted by -n).
    """
    if (n - rep.epsilon) % 2 != 0:
        raise ValueError(
            f"weight class {n} does not match the parity {rep.epsilon} "
            "of the representation"
        )
    mult = multiplicities(twist(rep, -n))
    a = mult.beta1 + 2 * mult.beta2
    return e4_e6_delta(a, mult.alpha, n * rep.dimension - 4 * a - 6 * mult.alpha, order)


def oracle_solve_exact(columns, targets):
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


# -- seeded inputs ---------------------------------------------------------------

def _sym_power(g, k: int):
    """Sym^k of an integer 2x2 matrix on the basis x^(k-j) y^j: column j holds
    the coefficients of (a x + c y)^(k-j) (b x + d y)^j, by the power of y."""
    (a, b), (c, d) = g
    cols = []
    for j in range(k + 1):
        poly = [1]
        for lin in [(a, c)] * (k - j) + [(b, d)] * j:
            poly = [(poly[i] if i < len(poly) else 0) * lin[0]
                    + (poly[i - 1] * lin[1] if i else 0) for i in range(len(poly) + 1)]
        cols.append(poly)
    return [[cols[j][i] for j in range(k + 1)] for i in range(k + 1)]


def _conjugate(m, p, p_inv):
    rows = [[(x, 0, 0, 0) for x in row] for row in m]
    return [[inputs.cyc_record(c) for c in row]
            for row in inputs.mat_mul(inputs.mat_mul(p, rows), p_inv)]


def character_sum(d: int, eps: int):
    """P * (+)_i kappa^(j_i) * P^-1 with d seeded characters of parity eps."""
    rng = random.Random(f"replib-oracle:{d}:{eps}")
    js = [2 * rng.randint(0, 5) + eps for _ in range(d)]
    p, p_inv = inputs.conjugator(rng, d)
    return inputs.conjugated_rep(f"sum-{d}-{eps}", js, p, p_inv)


def jordan_rep(k: int):
    """P * Sym^k(defining representation) * P^-1: dimension k + 1, parity
    k mod 2, rho(T) unipotent with one Jordan block."""
    p, p_inv = inputs.conjugator(random.Random(f"replib-oracle:sym:{k}"), k + 1)
    return {"name": f"sym-{k}",
            "S": _conjugate(_sym_power([[0, -1], [1, 0]], k), p, p_inv),
            "T": _conjugate(_sym_power([[1, 1], [0, 1]], k), p, p_inv)}


RECORDS = {**{f"sum-{d}-{eps}": character_sum(d, eps) for d in range(1, 7) for eps in (0, 1)},
           **{f"sym-{k}": jordan_rep(k) for k in range(6)}}


def _rep(key):
    return load_rep(RECORDS[key])


@functools.cache
def _derived():
    """Twists and direct sums of the seeded representations, up to d = 6."""
    reps = {key: _rep(key) for key in sorted(RECORDS)}
    out = []
    for i, key in enumerate(sorted(reps)):
        out.append(twist(reps[key], (5 * i + 1) % 12))
        out.append(twist(reps[key], 6))
    keys = sorted(reps)
    for a in keys:
        for b in keys:
            ra, rb = reps[a], reps[b]
            if a < b and ra.epsilon == rb.epsilon and ra.dimension + rb.dimension <= 6:
                out.append(direct_sum(ra, rb))
    return out


# -- tests ---------------------------------------------------------------------

def _records(data: TraceData):
    return [data.s.to_record(), data.u.to_record(), data.u_inv.to_record()]


@pytest.mark.parametrize("key", sorted(RECORDS))
def test_traces_match_the_inverting_route(key):
    rep = _rep(key)
    assert [[c.to_record() for c in row] for row in rep.u()] == \
        [[c.to_record() for c in row] for row in oracle_u(rep)]
    assert _records(traces(rep)) == _records(oracle_traces(rep))


def test_twists_and_sums_match_the_inverting_route():
    derived = _derived()
    assert len(derived) > 60
    for rep in derived:
        u, expected = rep.u(), oracle_u(rep)
        assert all(x == y for row, other in zip(u, expected) for x, y in zip(row, other)), \
            rep.name
        assert traces(rep) == oracle_traces(rep), rep.name


def _same_poly(a, b) -> bool:
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


@pytest.mark.parametrize("key", sorted(RECORDS))
def test_min_poly_matches_the_restarted_solves(key):
    rep = _rep(key)
    for m in (rep.t, rep.s, rep.u()):
        assert _same_poly(_min_poly(m), oracle_min_poly(m))
    semisimple = t_is_semisimple(rep)
    assert semisimple == oracle_semisimple(rep.t)
    # Conjugated characters are diagonalizable; Sym^k T is one Jordan block.
    assert semisimple is (key.startswith("sum") or key == "sym-0")
    if key.startswith("sym"):
        assert len(_min_poly(rep.t)) == rep.dimension + 1


def test_min_poly_on_twists_and_sums():
    # d = 6 is left to the test above: the restarted solves are slow there.
    for rep in (r for r in _derived() if r.dimension <= 5):
        assert _same_poly(_min_poly(rep.t), oracle_min_poly(rep.t)), rep.name
        assert t_is_semisimple(rep) == oracle_semisimple(rep.t), rep.name


def test_min_poly_of_jordan_blocks_with_eigenvalues():
    # J_2(z) (+) J_1(z) (+) J_1(-1), z = zeta_12^5: minimal polynomial
    # (x - z)^2 (x + 1), of degree 3 in dimension 4.
    z = root_of_unity(12, 5)
    one, zero = CycNumber.one(), CycNumber.zero()
    m = ((z, one, zero, zero), (zero, z, zero, zero),
         (zero, zero, z, zero), (zero, zero, zero, -one))
    got = _min_poly(m)
    assert _same_poly(got, oracle_min_poly(m))
    expected = [z * z, z * z - 2 * z, 1 - 2 * z, one]
    assert _same_poly(got, expected)


def test_solve_exact_matches_the_single_loop():
    rng = random.Random(11)

    def entry():
        if rng.random() < 0.3:
            return CycNumber.zero()
        order = rng.choice([1, 3, 4, 12])
        return CycNumber(order, tuple(rng.randint(-3, 3) for _ in range(euler_phi(order))))

    for _ in range(40):
        rows, ncols, nt = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
        columns = [[entry() for _ in range(rows)] for _ in range(ncols)]
        if rng.random() < 0.3 and ncols > 1:
            columns[-1] = [x + y for x, y in zip(columns[0], columns[1 % ncols])]
        targets = [[entry() for _ in range(rows)] for _ in range(nt)]
        got, expected = _solve_exact(columns, targets), oracle_solve_exact(columns, targets)
        assert (got is None) == (expected is None)
        if got is not None:
            assert [[x.to_record() for x in sol] for sol in got] == \
                [[x.to_record() for x in sol] for sol in expected]


def _reduction_outcome(route, x, order):
    try:
        y = route(x, order)
    except ValueError as exc:
        return str(exc)
    return y.order, y.num, y.den


@pytest.mark.parametrize("n", [1, 12, 35, 280, 360])
def test_reduce_order_to_matches_the_solve_exact_route(n):
    """Every divisor m of n: an element of Q(zeta_m), of Q(zeta_k) for a
    random k between m and n, and of Q(zeta_n) itself, each lifted to n, read
    in Q(zeta_m) by both routes: the same value at the same order, or the
    same message; below m = n the last is almost surely outside the field."""
    rng = random.Random(f"reduce-order:{n}")
    kinds = set()
    for m in (k for k in range(1, n + 1) if n % k == 0):
        between = rng.choice([k for k in range(m, n + 1) if n % k == 0 and k % m == 0])
        xs = [_element(rng, k, zero=0.1, n=k).lift(n) for k in (m, between, n)]
        for x in xs + [CycNumber(n, (0,) * euler_phi(n))]:
            got = _reduction_outcome(CycNumber.reduce_order_to, x, m)
            assert got == _reduction_outcome(oracle_reduce_order_to, x, m), (n, m, x)
            kinds.add(type(got))
    assert kinds == ({tuple} if n == 1 else {tuple, str})
    one = CycNumber(n, (1,) + (0,) * (euler_phi(n) - 1))
    assert _reduction_outcome(CycNumber.reduce_order_to, one, 11) == \
        _reduction_outcome(oracle_reduce_order_to, one, 11) == f"order 11 does not divide {n}"


def test_inversions_run_once_per_validated_representation(monkeypatch, tmp_path, capsys):
    calls = []
    inverse = replib._mat_inv
    monkeypatch.setattr(replib, "_mat_inv", lambda a: calls.append(len(a)) or inverse(a))
    path = tmp_path / "rep.json"
    for key in ("sum-4-0", "sum-3-1", "sym-1"):
        path.write_text(json.dumps(RECORDS[key]), encoding="utf-8")
        calls.clear()
        assert main(["analyze", str(path), "--enumerate"]) == 0
        assert calls == [len(RECORDS[key]["S"])], key
    capsys.readouterr()
    for key in ("sum-4-0", "sum-3-1"):
        calls.clear()
        rep = _rep(key)
        assert calls == [rep.dimension]
        calls.clear()
        bigger = direct_sum(twist(rep, 2), rep)
        traces(bigger)
        multiplicities(twist(bigger, 1))
        det_n(rep, rep.epsilon + 2, 8)
        assert calls == []


# -- squarefree test by Sylvester rank ----------------------------------------

def _poly_mul(a, b):
    out = [CycNumber.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _euclid_squarefree(p) -> bool:
    return len(_poly_gcd(p, [c * i for i, c in enumerate(p)][1:])) == 1


def test_squarefree_against_euclid_on_random_polynomials():
    rng = random.Random(15)

    def element(nonzero=False):
        while True:
            x = CycNumber(12, tuple(rng.randint(-3, 3) for _ in range(4)), rng.randint(1, 3))
            if not (nonzero and x.is_zero()):
                return x

    seen = set()
    for degree in range(1, 9):
        for trial in range(6):
            repeated = trial % 2 == 1 and degree > 1
            if trial < 4:
                # Linear factors, one root taken twice when ``repeated``.
                roots = [element() for _ in range(degree)]
                if repeated:
                    roots[-1] = roots[rng.randrange(degree - 1)]
                p = [element(nonzero=True)]
                for r in roots:
                    p = _poly_mul(p, [-r, CycNumber.one()])
            else:
                # Dense: f * g^2 when ``repeated``, else random coefficients.
                g = [element() for _ in range(degree // 2)] + [element(nonzero=True)]
                f = [element() for _ in range(degree - 2 * (degree // 2))] + [element(nonzero=True)]
                p = _poly_mul(f, _poly_mul(g, g)) if repeated else \
                    [element() for _ in range(degree)] + [element(nonzero=True)]
            assert len(p) == degree + 1
            got = _squarefree(p)
            assert got == _euclid_squarefree(p), (degree, trial)
            if repeated:
                assert not got
            seen.add(got)
    assert seen == {True, False}
    # Mixed orders: coefficients from the subfields of Q(zeta_12) and of
    # Q(zeta_35), and a rational leading coefficient, so that p's entries lie
    # in several fields and the Sylvester rows are read at their lcm order.
    for orders, top in (((1, 3, 4, 12), 8), ((1, 5, 7, 35), 4)):
        seen = set()
        for degree in range(1, top + 1):
            for trial in range(4):
                terms = [_element(rng, 1, zero=0.2, n=rng.choice(orders)) for _ in range(degree)]
                lead = CycNumber.from_rational(rng.choice((1, -2, Fraction(3, 2))))
                repeated = trial % 2 == 1 and degree > 1
                if trial < 2:  # linear factors, one root taken twice when ``repeated``
                    if repeated:
                        terms[-1] = terms[rng.randrange(degree - 1)]
                    p = [lead]
                    for r in terms:
                        p = _poly_mul(p, [-r, CycNumber.one()])
                elif repeated:  # lead * f * g^2, f and g monic
                    g = terms[:degree // 2] + [CycNumber.one()]
                    f = terms[degree // 2:degree - degree // 2] + [CycNumber.one()]
                    p = [lead * c for c in _poly_mul(f, _poly_mul(g, g))]
                else:
                    p = terms + [lead]
                assert len(p) == degree + 1 and p[-1].order == 1
                got = _squarefree(p)
                assert got == _euclid_squarefree(p), (orders, degree, trial)
                if repeated:
                    assert not got
                seen.add(got)
        assert seen == {True, False}, orders


def test_eliminations_build_no_cycnumber_per_matrix_entry(monkeypatch):
    """A subfield read builds two CycNumbers per pivot (``_integral``'s entry
    and its inverse) and its result; the squarefree test one per coefficient of
    p' and per lift of a coefficient of p or p', and two per pivot.  Either
    matrix has many more entries."""
    built, init = [], CycNumber.__init__
    rng = random.Random("no-entry-numbers")

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    for n, m in ((360, 60), (280, 40), (12, 3)):
        x = _element(rng, m, zero=0, n=m).lift(n)
        monkeypatch.setattr(CycNumber, "__init__", counted)
        y = x.reduce_order_to(m)
        monkeypatch.undo()
        assert y.order == m and y.lift(n) == x
        assert len(built) <= 2 * euler_phi(m) + 1 < euler_phi(n) * (euler_phi(m) + 1), (n, m)
        built.clear()
    for orders, degree in (((1, 3, 4, 12), 8), ((1, 5, 7, 35), 4)):
        p = [_element(rng, 1, zero=0, n=rng.choice(orders)) for _ in range(degree + 1)]
        monkeypatch.setattr(CycNumber, "__init__", counted)
        _squarefree(p)
        monkeypatch.undo()
        n = len(p) - 1
        assert len(built) <= (n + 1) + (2 * n + 1) + 2 * (2 * n - 1) < (2 * n - 1) ** 2, orders
        built.clear()


def test_squarefree_on_jordan_blocks():
    one, zero = CycNumber.one(), CycNumber.zero()
    z = root_of_unity(12, 5)

    def blocks(*parts):
        """Block diagonal of Jordan blocks J_k(value), one per (value, k)."""
        d = sum(k for _, k in parts)
        m = [[zero] * d for _ in range(d)]
        at = 0
        for value, k in parts:
            for i in range(at, at + k):
                m[i][i] = value
                if i + 1 < at + k:
                    m[i][i + 1] = one
            at += k
        return tuple(map(tuple, m))

    cases = [((one, 1),), ((one, 2),), ((z, 3),), ((z, 1), (z, 1), (-one, 1)),
             ((z, 2), (z, 1), (-one, 1)), ((z, 1), (-one, 2)), ((z, 1), (z * z, 1), (one, 1)),
             ((root_of_unity(3, 1), 1), (root_of_unity(4, 1), 2), (one, 1))]
    for parts in cases:
        m = blocks(*parts)
        got = _squarefree(_min_poly(m))
        assert got == oracle_semisimple(m), parts
        assert got is all(k == 1 for _, k in parts), parts


# -- multiplicities without twisting the matrices --------------------------------

def _outcome(fn, rep):
    try:
        return fn(rep)
    except RepValidationError as exc:
        return str(exc)


def test_multiplicities_match_the_twisting_route():
    reps = [_rep(key) for key in sorted(RECORDS)] + list(_derived())
    flipped = [RepSpec(rep.name, rep.dimension, rep.order, rep.s, rep.t, 1 - rep.epsilon, rep.rho_u)
               for rep in reps]
    kinds = set()
    for rep in reps + flipped:
        got = _outcome(multiplicities, rep)
        assert got == _outcome(oracle_multiplicities, rep), rep.name
        kinds.add((rep.epsilon, type(got)))
    assert kinds == {(0, Multiplicities), (1, Multiplicities), (0, str), (1, str)}


# rho(S), rho(T) of an even representation, T = U^2 S with U = [[0,-1],[1,-1]],
# and of the defining representation, which is odd.
EVEN_2 = ([[0, 1], [1, 0]], [[1, -1], [0, -1]])
DEFINING = ([[0, -1], [1, 0]], [[1, 1], [0, 1]])


def _conjugated(rows, order):
    """The representation P * rows * P^-1, P = [[1, zeta_order], [0, 1]]."""
    p = _mat([[1, root_of_unity(order, 1)], [0, 1]])
    p_inv = _mat_inv(p)
    return make_rep(f"conj-{order}", *(_mat_mul(_mat_mul(p, _mat(m)), p_inv) for m in rows))


def test_multiplicities_over_fields_past_the_lift():
    # Even, over Q(zeta_280): the lift of Tr U to lcm(280, 3) = 840 passes
    # the order bound.
    even = _conjugated(EVEN_2, 280)
    assert (even.order, even.epsilon) == (280, 0)
    assert multiplicities(even) == multiplicities(make_rep("plain", *EVEN_2)) == \
        oracle_multiplicities(make_rep("plain", *EVEN_2)) == Multiplicities(1, 1, 1)
    with pytest.raises(RepValidationError):
        oracle_multiplicities(even)
    # Odd, over Q(zeta_35): twisting by kappa^-1 would need order
    # lcm(35, 12) = 420.
    odd = _conjugated(DEFINING, 35)
    assert (odd.order, odd.epsilon) == (35, 1)
    assert multiplicities(odd) == multiplicities(make_rep("defining", *DEFINING)) == \
        oracle_multiplicities(make_rep("defining", *DEFINING)) == Multiplicities(1, 0, 1)
    with pytest.raises(ValueError, match="420"):
        oracle_multiplicities(odd)


def test_sums_and_twists_past_the_order_bound_are_refused_up_front(monkeypatch):
    # kappa^2 has order 12, so either combination with the Q(zeta_280)
    # representation needs order 840; no matrix is built before the refusal.
    even, kappa2 = _conjugated(EVEN_2, 280), replib.linear_character(2)
    built = []
    monkeypatch.setattr(replib, "_block_diag", lambda *args: built.append(args))
    monkeypatch.setitem(globals(), "_mat_scale", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="order 840 exceeds the supported bound"):
        direct_sum(even, kappa2)
    with pytest.raises(ValueError, match="order 840 exceeds the supported bound"):
        twist(even, 2)
    assert built == []


def _det_n_outcome(route, rep, n):
    try:
        return route(rep, n, 8).to_record()
    except (ValueError, RepValidationError) as exc:
        return type(exc), str(exc)


def test_det_n_matches_the_twisting_route():
    reps = [_rep(key) for key in sorted(RECORDS)] + list(_derived())
    flipped = [RepSpec(rep.name, rep.dimension, rep.order, rep.s, rep.t, 1 - rep.epsilon, rep.rho_u)
               for rep in reps]
    kinds = set()
    for rep in reps + flipped:
        for n in range(-3, 4):
            got = _det_n_outcome(det_n, rep, n)
            assert got == _det_n_outcome(oracle_det_n, rep, n), (rep.name, n)
            kinds.add(got[0] if isinstance(got, tuple) else dict)
    assert kinds == {dict, ValueError, RepValidationError}


def test_det_n_over_fields_past_the_twist():
    """Over Q(zeta_280) and Q(zeta_35) ``det_n`` equals det_n of the
    unconjugated representation for n = -3..3, and the twisting route
    wherever it stays under the order bound."""
    raised = []
    for rows, order in ((EVEN_2, 280), (DEFINING, 35)):
        conj, plain = _conjugated(rows, order), make_rep("plain", *rows)
        for n in range(-3, 4):
            got = _det_n_outcome(det_n, conj, n)
            assert got == _det_n_outcome(det_n, plain, n) == \
                _det_n_outcome(oracle_det_n, plain, n), (order, n)
            if (n - conj.epsilon) % 2 == 0:
                assert isinstance(got, dict), (order, n)
            twisted = _det_n_outcome(oracle_det_n, conj, n)
            if isinstance(twisted, tuple) and "exceeds the supported bound" in twisted[1]:
                raised.append((order, n))
            else:
                assert got == twisted, (order, n)
    assert raised == [(280, -2), (280, 2), (35, -3), (35, -1), (35, 1), (35, 3)]


# -- integer coordinate slabs against the CycNumber routes ----------------------

def _element(rng, order: int, zero: float = 0.25, n=None) -> CycNumber:
    """A seeded element of Q(zeta_n), n a random divisor of ``order`` unless
    given, with fraction coordinates (at most four nonzero), or a zero of
    such an order."""
    n = n or rng.choice([k for k in range(1, order + 1) if order % k == 0])
    coords = [Fraction(0)] * euler_phi(n)
    if rng.random() >= zero:
        for i in rng.sample(range(len(coords)), min(4, len(coords))):
            coords[i] = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
    return CycNumber(n, tuple(coords))


def _conjugator(rng, d: int, order: int):
    """A seeded P = L * U (unitriangular factors over Q(zeta_order)) and P^-1;
    U's first entry above the diagonal is 1 + zeta_order, so that P needs the
    whole field.  Past phi(order) = 24 that is P's only entry off the
    diagonal: an inverse there multiplies phi - 1 dense conjugates."""
    one, zero = CycNumber.one(), CycNumber.zero()
    dense = euler_phi(order) <= 24
    lower, upper = ([[one if i == j else _element(rng, order) if (j < i) == low and dense
                      else zero for j in range(d)] for i in range(d)] for low in (True, False))
    if d > 1:
        upper[0][1] = one + root_of_unity(order, 1)
    p = _mat_mul(lower, upper)
    return p, _mat_inv(p)


def _diagonal_characters(js, order: int):
    """rho(S), rho(T) of kappa^j1 (+) ... over Q(zeta_order): zeta_12^(9j) and
    zeta_12^j, each written at ``order`` (every j * order / 12 whole)."""
    zero = CycNumber.zero()
    return tuple([[root_of_unity(order, e * js[i] * order // 12) if i == k else zero
                   for k in range(len(js))] for i in range(len(js))] for e in (9, 1))


def _conjugated_pair(rows, order: int, seed):
    """P * rho * P^-1 for both generators, by the CycNumber products."""
    p, p_inv = _conjugator(random.Random(f"replib-slab:{seed}"), len(rows[0]), order)
    return tuple(_mat_mul(_mat_mul(p, _mat(m)), p_inv) for m in rows)


# rho(S) = diag(1, i) has rho(S)^4 = 1, and rho(S)^2 = diag(1, -1) does not
# commute with U = [[0,-1],[1,-1]]: with T = U^-1 S = U^2 S, every check before
# the commutation passes.  With T = S, U = I, and only rho(S)^2 = +-1 fails.
_S_DIAG_1_I = ((1, 0), (0, root_of_unity(4, 1)))
NOT_CENTRAL = (_S_DIAG_1_I, _mat_mul(_mat([[-1, 1], [-1, 0]]), _mat(_S_DIAG_1_I)))
NOT_SIGNED = (_S_DIAG_1_I, _S_DIAG_1_I)

SLAB_CASES = {
    "even-2@1": (EVEN_2, 1), "defining@1": (DEFINING, 1),
    "sym-2@1": (tuple(_sym_power(g, 2) for g in DEFINING), 1),
    "sym-3@12": (tuple(_sym_power(g, 3) for g in DEFINING), 12),
    "chars-0-4-8@3": (_diagonal_characters((0, 4, 8, 4), 3), 3),
    "chars-3-9@4": (_diagonal_characters((3, 9, 3), 4), 4),
    "chars-1-5-7@12": (_diagonal_characters((1, 5, 7, 11, 1), 12), 12),
    "chars-0-2-6@12": (_diagonal_characters((0, 2, 6, 8), 12), 12),
    "even-2@35": (EVEN_2, 35), "defining@35": (DEFINING, 35),
    "even-2@280": (EVEN_2, 280),
    "not-central@12": (NOT_CENTRAL, 12), "not-signed@4": (NOT_SIGNED, 4),
}


def _validated(s, t):
    """make_rep's outcome in the oracle's terms: (epsilon, rho(U)) or the message."""
    try:
        rep = make_rep("slab", s, t)
    except RepValidationError as exc:
        return str(exc)
    return rep.epsilon, rep.u()


def _same_outcome(got, expected) -> bool:
    if isinstance(got, str) or isinstance(expected, str):
        return got == expected
    return got[0] == expected[0] and [[c.to_record() for c in row] for row in got[1]] == \
        [[c.to_record() for c in row] for row in expected[1]]


def _broken(s, t):
    """Variants of a representation that fail each relation in turn."""
    two = CycNumber.from_rational(2)
    zero_row = (tuple(CycNumber.zero() for _ in t[0]),) + tuple(t[1:])
    yield "S^4", [[2 * c for c in row] for row in s], t
    yield "zero row", s, zero_row
    if len(t) > 1:
        yield "equal rows", s, (t[1],) + tuple(t[1:])
    yield "U^3", s, [[two * c for c in row] for row in t]
    yield "square", [list(row) + [CycNumber.zero()] for row in s], t


@pytest.mark.parametrize("key", sorted(SLAB_CASES))
def test_slab_validation_matches_the_cycnumber_route(key):
    rows, order = SLAB_CASES[key]
    s, t = _conjugated_pair(rows, order, key)
    expected = oracle_make_rep(s, t)
    got = _validated(s, t)
    assert _same_outcome(got, expected), key
    if isinstance(expected, str):
        assert key.startswith("not-")
        return
    rep = make_rep(key, s, t)
    assert _records(traces(rep)) == _records(oracle_traces(rep))
    for m in (rep.t, rep.s, rep.u()):
        assert _same_poly(_min_poly(m), reduced_min_poly(m))
    assert t_is_semisimple(rep) == oracle_semisimple(rep.t) == (not key.startswith(("sym", "def")))
    messages = set()
    for what, bad_s, bad_t in _broken(s, t):
        got, expected = _validated(bad_s, bad_t), oracle_make_rep(bad_s, bad_t)
        assert isinstance(got, str) and got == expected, (key, what)
        messages.add(got)
    assert "matrix is singular; generator images must be invertible" in messages


def test_slab_validation_reports_each_relation():
    messages = {_validated(*_conjugated_pair(rows, order, key)) for key, (rows, order)
                in SLAB_CASES.items() if key.startswith("not-")}
    assert messages == {"rho(S)^2 does not commute with rho(T)",
                        "rho(S)^2 is not plus or minus the identity: "
                        "decompose into even/odd parts first"}


def _random_matrix(rng, d: int, order: int):
    m = [[_element(rng, order, zero=0.35) for _ in range(d)] for _ in range(d)]
    if rng.random() < 0.2:  # a zero row, its zeros of orders 1 and ``order``
        m[rng.randrange(d)] = [CycNumber(n, (0,) * euler_phi(n))
                               for n in rng.choices((1, order), k=d)]
    return tuple(map(tuple, m))


@pytest.mark.parametrize("order", [1, 3, 4, 12, 35])
def test_inverse_and_min_poly_match_the_cycnumber_routes(order):
    rng = random.Random(f"replib-slab:random:{order}")
    singular = 0
    for trial in range(24 if order < 35 else 6):
        m = _random_matrix(rng, 1 + trial % (5 if order < 35 else 3), order)
        try:
            expected = _mat_inv(m)
        except RepValidationError as exc:
            singular += 1
            with pytest.raises(RepValidationError, match=str(exc)):
                replib._mat_inv(m)
        else:
            assert [[c.to_record() for c in row] for row in replib._mat_inv(m)] == \
                [[c.to_record() for c in row] for row in expected], (order, trial)
        assert _same_poly(_min_poly(m), reduced_min_poly(m)), (order, trial)
        n = replib._order(m)
        got = replib._slab_mul(replib._slab(m, n), replib._slab(m, n), n)
        assert got == replib._slab(_mat_mul(m, m), n), (order, trial)
    assert singular > 0


def test_min_poly_of_jordan_blocks_over_subfields():
    # J_3(zeta_3) (+) J_1(i) (+) J_2(-1/2): minimal polynomial of degree 6.
    z, i, half = root_of_unity(3, 1), root_of_unity(4, 1), CycNumber.from_rational(Fraction(-1, 2))
    one, zero = CycNumber.one(), CycNumber.zero()
    diag, upper = [z, z, z, i, half, half], {(0, 1), (1, 2), (4, 5)}
    m = tuple(tuple(diag[r] if r == c else one if (r, c) in upper else zero for c in range(6))
              for r in range(6))
    p, p_inv = _conjugator(random.Random("replib-slab:jordan"), 6, 12)
    for matrix in (m, _mat_mul(_mat_mul(p, m), p_inv)):
        got = _min_poly(matrix)
        assert len(got) == 7 and _same_poly(got, reduced_min_poly(matrix))
        assert not _squarefree(got)


def pin_record() -> dict:
    """The record of P * (kappa^0 (+) kappa^2 (+) ... (+) kappa^8) * P^-1 over
    Q(zeta_12), d = 8, with a seeded P of fraction and mixed-order entries;
    rho(T) has the six distinct eigenvalues zeta_12^(0, 2, 4, 6, 8, 10)."""
    s, t = _conjugated_pair(_diagonal_characters((0, 2, 4, 6, 8, 10, 2, 8), 12), 12, "pin-8")
    return {"name": "pin-8", "S": [[c.to_record() for c in row] for row in s],
            "T": [[c.to_record() for c in row] for row in t]}


def test_min_poly_stops_at_the_first_dependence(monkeypatch):
    rep = load_rep(pin_record())
    products = []
    multiply = replib._slab_mul
    monkeypatch.setattr(replib, "_slab_mul", lambda *args: products.append(1) or multiply(*args))
    got = _min_poly(rep.t)
    # m^0 and m^1 need no product; m^2..m^6 take one each, and m^6 is the first
    # power that depends on the earlier ones.
    assert len(got) == 7 and len(products) == 5
    assert _same_poly(got, reduced_min_poly(rep.t))
    assert got == [-1, 0, 0, 0, 0, 0, 1]
    products.clear()
    assert t_is_semisimple(rep) and len(products) == 5


def test_the_inverse_trace_is_summed_only_when_read(monkeypatch):
    rep = load_rep(pin_record())
    products = []
    multiply = CycNumber.__mul__
    monkeypatch.setattr(CycNumber, "__mul__",
                        lambda self, other: products.append(1) or multiply(self, other))
    data = traces(rep)
    assert products == []
    # Only the products that read Tr S and Tr U in their subfields and scale
    # them by kappa^j; none of the d^2 behind Tr U^-1.
    got = multiplicities(rep)
    count = len(products)
    products.clear()
    replib._counts(TraceData(data.s, data.u, CycNumber.zero()), rep.dimension, -rep.epsilon)
    assert len(products) == count and got == oracle_multiplicities(rep)
    want = oracle_traces(rep)
    products.clear()
    assert _records(data) == _records(want) and products
    count = len(products)
    assert data.u_inv.to_record() == want.u_inv.to_record() and len(products) == count
    assert data == want and repr(data) == repr(want)


def test_inverse_orders_follow_the_elimination():
    # Rows whose pivots lie in smaller fields than the entries they clear, so
    # that each cleared row takes the order of its own entry, not the pivot's.
    z12, z3, i = root_of_unity(12, 1), root_of_unity(3, 1), root_of_unity(4, 1)
    one, zero, half = CycNumber.one(), CycNumber.zero(), CycNumber.from_rational(Fraction(1, 2))
    cases = [((one, zero), (z12, one)),
             ((2 * one, one), (half + z3, i)),
             ((zero, one, zero), (i, zero, z3), (one, half, one)),
             ((one, one, one), (one, z3, z3 * z3), (one, i, -one))]
    for m in cases:
        assert [[c.to_record() for c in row] for row in replib._mat_inv(m)] == \
            [[c.to_record() for c in row] for row in _mat_inv(m)], m


@pytest.mark.parametrize("order, coords", [(1, (2 ** 11,)), (12, (2 ** 10, 2 ** 10, 0, 0))])
def test_products_fill_their_slots(order, coords):
    # Eight equal entries to a dot product: at order 1 each product takes 23
    # bits and the sum 26; at order 12, (1 + zeta)^2 = 1 + 2 zeta + zeta^2, so
    # a product's slots take 23 bits and the sum's 25.  A slot sized for one
    # product would overflow.
    entry = CycNumber(order, coords)
    m = tuple(tuple(entry for _ in range(8)) for _ in range(8))
    got = replib._slab_mul(replib._slab(m, order), replib._slab(m, order), order)
    assert got == replib._slab(_mat_mul(m, m), order)

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

``_min_poly`` row-reduces the powers of a matrix once; its oracle restarts
the solver for each degree.  ``_solve_exact`` is now ``_row_reduce`` plus a
read-out; its oracle is the single loop it was split from.

``t_is_semisimple`` asks ``_squarefree`` whether the Sylvester matrix of the
minimal polynomial p and p' is nonsingular, by one ``_row_reduce``; its
oracle ``_poly_gcd`` runs Euclid over the field, with ``_poly_divmod`` from
``test_exactfield_oracle``.  They are compared on Jordan blocks and on random
polynomials over Q(zeta_12) of degree 1 to 8, with and without repeated
roots.

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

import dataclasses
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
from vvmf.exactfield import CycNumber, _solve_exact, euler_phi, root_of_unity
from vvmf.replib import (Multiplicities, TraceData, _mat, _mat_inv, _mat_mul, _mat_trace,
                         _min_poly, _squarefree, direct_sum, load_rep, make_rep,
                         multiplicities, t_is_semisimple, traces, twist)
from vvmf.scalarforms import e4_e6_delta

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"


def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _perfbench_inputs()


# -- the replaced routes -------------------------------------------------------

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
    powers = [replib._identity(d)]
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
    flipped = [dataclasses.replace(rep, epsilon=1 - rep.epsilon) for rep in reps]
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
    for name in ("_block_diag", "_mat_scale"):
        monkeypatch.setattr(replib, name, lambda *args: built.append(args))
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
    flipped = [dataclasses.replace(rep, epsilon=1 - rep.epsilon) for rep in reps]
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

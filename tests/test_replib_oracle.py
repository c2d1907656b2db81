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

Inputs are seeded conjugates P * M * P^-1 built by ``perfbench/inputs.py``
(loaded from its file and only read), whose arithmetic is independent of
vvmf: direct sums of characters, even and odd, and symmetric powers of the
defining representation, where rho(T) is one Jordan block.
"""

import functools
import importlib.util
import json
import random
from pathlib import Path

import pytest

from vvmf import replib
from vvmf.cli import main
from vvmf.detlab import det_n
from vvmf.exactfield import CycNumber, _solve_exact, euler_phi, root_of_unity
from vvmf.replib import (TraceData, _mat_inv, _mat_mul, _mat_trace, _min_poly,
                         _poly_gcd, direct_sum, load_rep, multiplicities,
                         t_is_semisimple, traces, twist)

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


def oracle_semisimple(m) -> bool:
    minpoly = oracle_min_poly(m)
    deriv = [c * i for i, c in enumerate(minpoly)][1:]
    return len(_poly_gcd(minpoly, deriv)) == 1


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

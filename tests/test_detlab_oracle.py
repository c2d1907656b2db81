"""The determinant forms against the constructions they replaced.

``det_zero``, ``det_n`` and the target of ``check_generator_determinant``
are each one E4^a * E6^b * delta^k from ``scalarforms.e4_e6_delta``.  The
oracles below are the earlier constructions, kept verbatim: det_zero as
(E4/delta^4)^(beta1+2*beta2) * (E6/delta^6)^alpha, det_n as det_zero of the
twist times a separately padded delta^(n*d), and the target as a padded
delta^total.  That det_n padded its delta factor for |n*d| alone, ignoring
the pole of det_zero, so on many direct sums its window stopped short of the
requested order and it raised ConsistencyError; the sweep below pins the fix.

``verify_det_ratio`` compares det_n(eps) * prod f_(n-k) with
det_n(2n+eps) * prod f_(-k); its oracle is the quotient route it replaced,
kept verbatim as ``oracle_verify_det_ratio``.  The two must give the same
bool or raise the same exception type, also on a corrupted f_n.  Both live
here, not in ``vvmf.detlab``: the verdict checks an identity between the
scalar generators and ``det_n``, and only counts the forms it is given.

``shifted_exterior_product`` takes the exterior product of generators pushed
to weight class n as det(generators) * prod f_(n-k_i), by multilinearity;
its oracle is the two-step route it replaced in ``det`` and the det suite,
``exterior_product(weak_generating_set(...))``, a second cofactor expansion.
They are compared on seeded random generator sets (d = 1..5, grids 1, 3 and
12, coefficient orders 1, 3, 4 and 12, ragged windows, zero entries, bad
weights), on products P * diag(s_j) with small integer P, whose expansions
meet zero minors, and on the det suite's polar sets and the benchmark's
``cyclo-det`` files (``perfbench/inputs.py``, loaded from its file and only
read).  They must give the same exception type and message, or series that
agree on their common window.  The windows are equal, except where the
two-step expansion formed a zero series (a zero entry or minor): the
canonical zero floors its window to a whole exponent, so that route can end
short of the product's.  There the new window is larger, and it must not overclaim: the
generators extended past their windows by random terms, and the scalar forms
taken at a higher order, give a product that agrees with it through it.
"""

import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from test_replib_oracle import twist

from vvmf import detlab
from vvmf.cli import main
from vvmf.detlab import (FormVector, det_n, det_zero, exterior_product,
                         shifted_exterior_product, weak_generating_set)
from vvmf.errors import ConsistencyError, PrecisionError
from vvmf.exactfield import CycNumber, euler_phi
from vvmf.qseries import QSeries
from vvmf.replib import RepSpec, direct_sum, linear_character, multiplicities
from vvmf.scalarforms import e4_e6_delta, eisenstein, eta_squared, gen_form

ORDERS = (8, 32, 96)

SUMS = [(0, 0), (2, 4), (4, 4), (8, 8), (10, 10), (1, 7), (3, 9), (5, 5), (11, 11),
        (0, 6, 10), (2, 2, 8), (4, 8, 8), (1, 5, 9), (11, 11, 11),
        (4, 6, 8, 10), (10, 10, 10, 10), (1, 3, 5, 7), (7, 9, 11, 1)]


def rep_of(js):
    rep = linear_character(js[0])
    for j in js[1:]:
        rep = direct_sum(rep, linear_character(j))
    return rep


REPS = [linear_character(j) for j in range(12)] + [rep_of(js) for js in SUMS]


def oracle_det_zero(rep, order):
    if rep.epsilon != 0:
        raise ValueError("the determinant base form needs an even representation")
    mult = multiplicities(rep)
    b12 = mult.beta1 + 2 * mult.beta2
    pad = 2 + (4 * b12 + 6 * mult.alpha) // 12
    b = order + pad
    delta = eta_squared(b)
    out = QSeries.constant(1, b)
    if b12:
        out = out * (eisenstein(4, b) / delta ** 4) ** b12
    if mult.alpha:
        out = out * (eisenstein(6, b) / delta ** 6) ** mult.alpha
    if out.valid_exponent() < order:
        raise ConsistencyError(f"det_zero window ends at q^{out.valid_exponent()} < q^{order}")
    return out


def oracle_det_n(rep, n, order):
    if (n - rep.epsilon) % 2 != 0:
        raise ValueError(
            f"weight class {n} does not match the parity {rep.epsilon} "
            "of the representation"
        )
    shift = n * rep.dimension
    pad = 2 + abs(shift) // 12
    base = oracle_det_zero(twist(rep, -n), order + pad)
    out = base * eta_squared(order + pad) ** shift if shift else base
    if out.valid_exponent() < order:
        raise ConsistencyError(f"det_n window ends at q^{out.valid_exponent()} < q^{order}")
    return out


def oracle_target(total, order):
    pad = 2 + abs(total) // 12
    return eta_squared(order + pad) ** total if total else \
        QSeries.constant(1, order + pad)


@pytest.mark.parametrize("order", ORDERS)
def test_det_zero_matches_the_oracle(order):
    even = [rep for rep in REPS if rep.epsilon == 0]
    assert len(even) == 6 + 10
    for rep in even:
        assert det_zero(rep, order).to_record() == oracle_det_zero(rep, order).to_record(), \
            rep.name


@pytest.mark.parametrize("order", ORDERS)
def test_target_matches_the_oracle(order):
    for total in [*range(-30, 31), -145, -97, 100, 131]:
        assert e4_e6_delta(0, 0, total, order).to_record() == \
            oracle_target(total, order).to_record(), total


@pytest.mark.parametrize("order", ORDERS)
def test_det_n_reaches_the_order_and_agrees_with_the_oracle(order):
    compared = short = 0
    for rep in REPS:
        for n in range(-6 + rep.epsilon, 7, 2):
            out = det_n(rep, n, order)
            assert out.valid_exponent() >= order, (rep.name, n)
            try:
                expect = oracle_det_n(rep, n, order)
            except ConsistencyError:
                short += 1
                continue
            assert out.agrees_with(expect), (rep.name, n)
            compared += 1
    assert compared > short


def test_det_n_on_repeated_characters_reaches_the_order():
    """kappa^j (+) ... (+) kappa^j, d in {2, 3, 4, 6}, n in -6..6 of its parity."""
    cases = 0
    for d in (2, 3, 4, 6):
        for j in range(12):
            rep = rep_of([j] * d)
            for n in range(-6 + j % 2, 7, 2):
                assert det_n(rep, n, 8).valid_exponent() >= 8, (rep.name, n)
                cases += 1
    assert cases == 312


@pytest.mark.parametrize("j", [4, 8, 10])
def test_det_ratio_on_doubled_characters(j):
    rep = rep_of([j, j])
    build = 60
    gen = eta_squared(build) ** j
    zero = QSeries.zero(12 * build, 12)
    vectors = [FormVector.make(j, [gen, zero]), FormVector.make(j, [zero, gen])]
    for n in range(-3, 4):
        assert verify_det_ratio(rep, vectors, [j // 2, j // 2], n, 48), n


def verify_det_ratio(rep: RepSpec, vectors, ks, n: int, order: int) -> bool:
    """Check that the scalar-generator ratio prod_i f_(n-k_i)/f_(-k_i)
    equals the determinant ratio det_n(2n+eps) / det_n(eps), without
    dividing: compare det_n(eps) * prod_i f_(n-k_i) with det_n(2n+eps) *
    prod_i f_(-k_i), exactly on their shared validity window.
    """
    vectors = list(vectors)
    ks = [int(k) for k in ks]
    if len(vectors) != rep.dimension or len(ks) != rep.dimension:
        raise ValueError("generator count must equal the dimension")
    for v, k in zip(vectors, ks):
        if v.weight != 2 * k + rep.epsilon:
            raise ValueError(f"generator weight {v.weight} is not 2*{k}+{rep.epsilon}")
    lhs = det_n(rep, rep.epsilon, order)
    rhs = det_n(rep, 2 * n + rep.epsilon, order)
    for k in ks:
        lhs = lhs * gen_form(n - k, order)
        rhs = rhs * gen_form(-k, order)
    return lhs.agrees_with(rhs)


def oracle_verify_det_ratio(rep, vectors, ks, n: int, order: int) -> bool:
    """Check that the scalar-generator ratio prod_i f_(n-k_i)/f_(-k_i)
    equals the determinant ratio det_n(2n+eps) / det_n(eps), exactly on the
    shared validity window.
    """
    vectors = list(vectors)
    ks = [int(k) for k in ks]
    if len(vectors) != rep.dimension or len(ks) != rep.dimension:
        raise ValueError("generator count must equal the dimension")
    for v, k in zip(vectors, ks):
        if v.weight != 2 * k + rep.epsilon:
            raise ValueError(f"generator weight {v.weight} is not 2*{k}+{rep.epsilon}")
    lhs = QSeries.constant(1, order)
    for k in ks:
        lhs = lhs * gen_form(n - k, order) / gen_form(-k, order)
    rhs = det_n(rep, 2 * n + rep.epsilon, order) / det_n(rep, rep.epsilon, order)
    return lhs.agrees_with(rhs)


def _outcome(check, *args):
    """The bool a route returns, or the type of the exception it raises."""
    try:
        return check(*args)
    except Exception as exc:  # the types are compared
        return type(exc)


@pytest.mark.parametrize("order", [8, 16, 48])
def test_det_ratio_matches_the_quotient_route(order):
    """kappa^j (+) ... (+) kappa^j with d = 1..3 diagonal delta^j generators,
    j in 0..11, n in -3..3."""
    cases = 0
    for d in (1, 2, 3):
        for j in range(12):
            rep = rep_of([j] * d)
            gen = eta_squared(order) ** j if j else QSeries.constant(1, order)
            zero = QSeries.zero(12 * order, 12)
            vectors = [FormVector.make(j, [gen if i == c else zero for i in range(d)])
                       for c in range(d)]
            ks = [j // 2] * d
            for n in range(-3, 4):
                got = _outcome(verify_det_ratio, rep, vectors, ks, n, order)
                assert got == _outcome(oracle_verify_det_ratio, rep, vectors, ks, n, order), \
                    (rep.name, n)
                cases += 1
    assert cases == 252


@pytest.mark.parametrize("bad, offset", [(-1, 1), (-4, 2), (2, 3), (-5, 9)])
def test_corrupted_generator_fails_both_routes(bad, offset, monkeypatch):
    """f_bad with its coefficient ``offset`` steps past the lead off by one,
    inside the order-16 window: every case whose ratio uses f_bad fails by
    either route, but for n = 0, where f_(n-k) = f_(-k) cancels."""
    order, exact = 16, gen_form

    def corrupted(n, order):
        f = exact(n, order)
        if n != bad:
            return f
        return f + QSeries.from_coeffs([1], lead=f.lead + offset, valid_to=f.valid_to)

    monkeypatch.setattr(detlab, "gen_form", corrupted)
    monkeypatch.setitem(globals(), "gen_form", corrupted)
    failed = 0
    for d in (1, 2):
        for j in range(12):
            rep, k = rep_of([j] * d), j // 2
            vectors = [FormVector.make(j, [QSeries.constant(1, order)] * d)] * d
            for n in range(-3, 4):
                got = verify_det_ratio(rep, vectors, [k] * d, n, order)
                assert got == oracle_verify_det_ratio(rep, vectors, [k] * d, n, order), \
                    (rep.name, n)
                assert got is (n == 0 or bad not in (n - k, -k)), (rep.name, n)
                failed += not got
    assert failed > 0


# -- the weight-shifted exterior product by multilinearity ----------------------

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"


def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _random_coefficient(rng, order):
    if order == 1:
        return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
    return CycNumber(order, tuple(rng.randint(-2, 2) for _ in range(euler_phi(order))))


def _random_series(rng, zero_share, width):
    """A series on grid 1, 3 or 12 with a window of up to ``width`` whole
    exponents; a zero series (its window floored) with probability
    ``zero_share``."""
    grid = rng.choice([1, 3, 12])
    lead, span = rng.randint(-grid, 2 * grid), rng.randint(1, width * grid)
    if rng.random() < zero_share:
        return QSeries.zero(lead + span, grid)
    order = rng.choice([1, 3, 4, 12])
    coeffs = [_random_coefficient(rng, order) if rng.random() < 0.6 else 0
              for _ in range(span)]
    coeffs[0] = coeffs[0] or 1
    return QSeries.from_coeffs(coeffs, lead=lead, grid=grid)


def _generator_sets(seed, count, structured, width):
    """(vectors, ks, n, order): dense random entries, or with ``structured``
    the columns of P * diag(s_j) for a small integer P = L*U with L and U
    unitriangular, so that det P = 1 and many minors of P vanish."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(2 if structured else 1, 5)
        eps = rng.randint(0, 1)
        ks = [rng.randint(-2, 4) for _ in range(d)]
        if structured:
            lower, upper = ([[1 if i == j else rng.choice([0, 0, 1, -1]) * (j < i if low else j > i)
                              for j in range(d)] for i in range(d)] for low in (True, False))
            p = [[sum(x * y for x, y in zip(row, col)) for col in zip(*upper)] for row in lower]
            cols = [_random_series(rng, 0, width) for _ in range(d)]
            entries = [[cols[j] * p[i][j] for i in range(d)] for j in range(d)]
        else:
            entries = [[_random_series(rng, 0.15, width) for _ in range(d)] for _ in range(d)]
        weights = [2 * k + eps for k in ks]
        if rng.random() < 0.05:  # a weight that is not 2k + epsilon
            weights[rng.randrange(d)] += rng.choice([-1, 2])
        vectors = [FormVector(w, tuple(col)) for w, col in zip(weights, entries)]
        yield vectors, ks, rng.choice([0, 0, 1, -1]), rng.choice([1, 4, 8])


def _route_outcome(route):
    try:
        return route()
    except (PrecisionError, ValueError) as exc:
        return type(exc), str(exc)


def _forms_a_zero_series(vectors) -> bool:
    """Whether the memoised cofactor expansion of the columns ``vectors``
    has a zero series among its entries or proper minors (so among its
    products)."""
    d = len(vectors)
    m = [[v.components[i] for v in vectors] for i in range(d)]
    memo = {}

    def minor(mask):
        if mask not in memo:
            cols = [j for j in range(d) if mask >> j & 1]
            row = len(cols) - 1
            terms = [(-1) ** (row + idx) * (m[row][j] if mask == 1 << j else
                                            m[row][j] * minor(mask ^ 1 << j))
                     for idx, j in enumerate(cols)]
            memo[mask] = sum(terms[1:], terms[0])
        return memo[mask]

    minor((1 << d) - 1)
    del memo[(1 << d) - 1]
    return any(s.is_zero() for row in m for s in row) or \
        any(s.is_zero() for s in memo.values())


def _extended(vectors, rng, steps):
    """The vectors with every entry extended ``steps`` whole exponents past
    its window by random rational terms."""
    def extend(s):
        extra = [Fraction(rng.randint(-3, 3)) for _ in range(steps * s.grid)]
        return QSeries.from_coeffs(list(s.coeffs) + extra, lead=s.lead, grid=s.grid)

    return [FormVector(v.weight, tuple(map(extend, v.components))) for v in vectors]


def _compare_routes(vectors, ks, n, order, rng, tally):
    """One oracle comparison; counts its kind in ``tally``."""
    try:
        ext = exterior_product(vectors)
    except PrecisionError as exc:
        # The generators are singular in their window: so is the weak set,
        # unless its weights are refused first.
        old = _route_outcome(lambda: exterior_product(weak_generating_set(vectors, ks, n, order)))
        refused = _route_outcome(lambda: detlab._common_parity(vectors, ks))
        assert old == (refused if isinstance(refused, tuple) else (PrecisionError, str(exc)))
        tally["singular"] += 1
        return
    old = _route_outcome(lambda: exterior_product(weak_generating_set(vectors, ks, n, order)))
    new = _route_outcome(lambda: shifted_exterior_product(ext, vectors, ks, n, order))
    if isinstance(old, tuple) or isinstance(new, tuple):
        assert new == old
        tally[old[0].__name__] += 1
        return
    assert new.determinant.agrees_with(old.determinant)
    assert new.normalized.agrees_with(old.normalized)
    assert new.leading_coefficient == old.leading_coefficient
    got, expect = new.determinant.valid_exponent(), old.determinant.valid_exponent()
    assert new.normalized.valid_exponent() == got
    if got == expect:
        tally["same window"] += 1
        return
    weak = weak_generating_set(vectors, ks, n, order)
    assert got > expect and _forms_a_zero_series(weak)
    longer = _extended(vectors, rng, 2)
    far = shifted_exterior_product(exterior_product(longer), longer, ks, n, order + 4)
    assert far.determinant.valid_exponent() >= got
    assert far.determinant.agrees_with(new.determinant)
    tally["larger window"] += 1


@pytest.mark.parametrize("structured, width", [(False, 4), (True, 8)])
def test_shifted_exterior_product_matches_the_weak_set_route(structured, width):
    rng, tally = random.Random(16), {"singular": 0, "PrecisionError": 0, "ValueError": 0,
                                     "same window": 0, "larger window": 0}
    for case in _generator_sets(16, 160, structured, width):
        _compare_routes(*case, rng, tally)
    assert tally["same window"] > 100 and tally["ValueError"] > 0 and tally["singular"] > 0
    assert tally["larger window"] == structured


def test_shifted_exterior_product_on_the_det_suite_polar_sets():
    """The det suite's base cases: delta^(2m) pushed to weight 0 by f_(-m),
    which has a pole at q = 0, and the same generators to classes -1 and 1."""
    rng, tally = random.Random(3), {"same window": 0, "ValueError": 0}
    for order in (8, 32):
        build = order + 4
        for m in range(6):
            gen = FormVector.make(2 * m, [eta_squared(build + m) ** (2 * m) if m else
                                          QSeries.constant(1, build + m)])
            for n in (-1, 0, 1):
                _compare_routes([gen], [m], n, build, rng, tally)
            _compare_routes([gen], [m + 1], 0, build, rng, tally)
    assert tally == {"same window": 36, "ValueError": 12}


@pytest.mark.parametrize("seed", [1, 2])
def test_shifted_exterior_product_on_the_cyclo_det_files(seed):
    """Seed 1 keeps the window; on seed 2 the two-step expansion meets a zero
    minor and ends at q^(19/3), short of the product's q^(23/3), at order 8."""
    gens, _ = _perfbench_inputs().cyclo_det_inputs(seed)
    vectors = detlab.generators_from_record(gens)[1]
    ks = [v.weight // 2 for v in vectors]
    tally = {"same window": 0, "larger window": 0}
    for order in (8, 32):
        _compare_routes(vectors, ks, 0, order, random.Random(seed), tally)
    assert tally == ({"same window": 2, "larger window": 0} if seed == 1 else
                     {"same window": 0, "larger window": 2})
    ext = exterior_product(vectors)
    windows = [exterior_product(weak_generating_set(vectors, ks, 0, 8)).determinant,
               shifted_exterior_product(ext, vectors, ks, 0, 8).determinant]
    assert [w.valid_exponent() for w in windows] == \
        ([Fraction(23, 3)] * 2 if seed == 1 else [Fraction(19, 3), Fraction(23, 3)])


def test_det_takes_one_determinant(monkeypatch, tmp_path, capsys):
    """``det`` on an even d = 5 input expands the generators' determinant
    once; the weight-0 check multiplies it by prod f_(-k_i)."""
    gens, rep = _perfbench_inputs().cyclo_det_inputs(1)
    (tmp_path / "gens.json").write_text(json.dumps(gens), encoding="utf-8")
    (tmp_path / "rep.json").write_text(json.dumps(rep), encoding="utf-8")
    calls = []
    expand = detlab._determinant
    monkeypatch.setattr(detlab, "_determinant", lambda m: calls.append(len(m)) or expand(m))
    assert main(["det", str(tmp_path / "gens.json"), str(tmp_path / "rep.json"),
                 "--order", "32"]) == 0
    assert calls == [5]
    assert capsys.readouterr().out.endswith("weight-0 determinant vs multiplicity formula: ok\n")

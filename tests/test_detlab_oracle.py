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
"""

import pytest

from vvmf import detlab
from vvmf.detlab import FormVector, det_n, det_zero
from vvmf.errors import ConsistencyError
from vvmf.qseries import QSeries
from vvmf.replib import RepSpec, direct_sum, linear_character, multiplicities, twist
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

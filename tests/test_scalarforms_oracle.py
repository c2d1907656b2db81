"""Powers of the Euler product by the power recurrence, and the generator
product identity by cross-multiplication, against the routes they replaced.

``_euler_power(s, order)`` builds prod (1-q^n)^s by J. C. P. Miller's
recurrence over the pentagonal terms.  Its oracle is the generic
``QSeries.__pow__`` on ``_euler_product``, the series of the product, kept
here verbatim: repeated squaring, after a series inverse when s < 0.
``e4_e6_delta``, ``gen_form``, ``eta_squared`` and ``discriminant`` build
delta^k, Delta^r_inf, delta and Delta from it; their oracles are the earlier
constructions, kept verbatim: ``eta_squared(pad) ** k``,
``discriminant(pad) ** r_inf`` and the squared and 24th power of
``_euler_product``.  Every comparison is of ``to_record()``, so windows and
grids must match too.

``_euler_power`` keeps one coefficient list per exponent, for the newest
eight exponents, at the largest order asked so far, slicing smaller orders
and resuming the recurrence for larger ones.  ``oracle_euler_power`` is its body before that memo, kept
verbatim: the recurrence run from scratch on every call.  Seeded rising and
falling requests, and four threads extending one exponent at once, must get
the oracle's series, and a series returned earlier must not change when its
exponent's list is extended.

``verify_gen_product``, the body of the public wrapper that
``scalarforms._verify_gen_product`` replaced, kept here as the entry point
of its tests, compares f_n * f_m with f_(n+m) * (J+744)^s3 * (J-984)^s2; its
oracle is the quotient route it replaced, kept verbatim as
``oracle_verify_gen_product``, which divides by f_(n+m).  The two must give
the same bool or raise the same exception type, also on a corrupted f_n.
"""

import random
import threading

import pytest

from vvmf import scalarforms
from vvmf.errors import ConsistencyError
from vvmf.qseries import QSeries
from vvmf.scalarforms import (_euler_power, _pentagonal, _verify_gen_product, discriminant,
                              e4_e6_delta, eisenstein, eta_squared, gen_form,
                              gen_form_order, hauptmodul, remainder_carry,
                              remainders)

EXPONENTS = sorted({0, 1, -1, 2, -2, 24, -24, 400, -400,
                    *random.Random(8).sample(range(-400, 401), 12)})


def _euler_product(order: int) -> QSeries:
    """prod_{n>=1} (1 - q^n) via the pentagonal-number expansion."""
    coeffs = [0] * order
    for e, sign in _pentagonal(order):
        coeffs[e] = sign
    return QSeries.from_coeffs(coeffs, valid_to=order)


def oracle_e4_e6_delta(a, b, k, order):
    pad = order + 2 + abs(k) // 12
    out = eta_squared(pad) ** k * eisenstein(4, pad) ** a * eisenstein(6, pad) ** b
    if out.valid_exponent() < order:
        raise ConsistencyError(f"e4_e6_delta window ends at q^{out.valid_exponent()} < q^{order}")
    return out


def oracle_gen_form(n, order):
    r = remainders(n)
    pad = gen_form_order(n, order)
    out = eisenstein(4, pad) ** r.r3 * eisenstein(6, pad) ** r.r2
    if r.r_inf:
        out = out * discriminant(pad) ** r.r_inf
    if out.valid_exponent() < order:
        raise ConsistencyError(f"gen_form window ends at q^{out.valid_exponent()} < q^{order}")
    return out


def oracle_euler_power(s: int, order: int) -> QSeries:
    if s == 0:
        return QSeries.constant(1, order)
    terms = _pentagonal(order)[1:]
    g = [1] + [0] * (order - 1)
    for n in range(1, order):
        a = b = 0
        for j, sign in terms:
            if j > n:
                break
            x = g[n - j]
            if sign > 0:
                a += j * x
                b += x
            else:
                a -= j * x
                b -= x
        g[n] = ((s + 1) * a - n * b) // n
    return QSeries.from_coeffs(g, valid_to=order)


def test_euler_power_memo_matches_the_recurrence_run_afresh(monkeypatch):
    monkeypatch.setattr(scalarforms, "_EULER_POWERS", {})
    rng = random.Random(19)
    requests = [(rng.choice(EXPONENTS), rng.randint(1, 600)) for _ in range(60)]
    requests += [(s, order) for s in EXPONENTS[:4] for order in (5, 1, 200, 3, 600, 599)]
    returned = []
    for s, order in requests:
        got = _euler_power(s, order)
        want = oracle_euler_power(s, order).to_record()
        assert got.to_record() == want, (s, order)
        returned.append((got, want))
    for got, want in returned:  # later extensions left earlier series alone
        assert got.to_record() == want
    memo = scalarforms._EULER_POWERS
    assert 0 < len(memo) <= 8 and 0 not in memo
    for s, g in memo.items():
        assert QSeries.from_coeffs(g).to_record() == oracle_euler_power(s, len(g)).to_record()


def test_euler_power_memo_keeps_the_newest_eight_exponents(monkeypatch):
    monkeypatch.setattr(scalarforms, "_EULER_POWERS", {})
    for s in range(1, 10):
        _euler_power(s, 30)
    assert list(scalarforms._EULER_POWERS) == list(range(2, 10))
    _euler_power(5, 60)  # an extension keeps the others
    assert sorted(scalarforms._EULER_POWERS) == list(range(2, 10))
    assert _euler_power(1, 40).to_record() == oracle_euler_power(1, 40).to_record()
    assert sorted(scalarforms._EULER_POWERS) == [1, *range(3, 10)]


def test_euler_power_memo_never_mutates_a_published_list(monkeypatch):
    monkeypatch.setattr(scalarforms, "_EULER_POWERS", {})
    _euler_power(-24, 50)
    published = scalarforms._EULER_POWERS[-24]
    kept = list(published)
    _euler_power(-24, 400)
    assert published == kept and len(scalarforms._EULER_POWERS[-24]) == 400
    _euler_power(-24, 10)
    assert len(scalarforms._EULER_POWERS[-24]) == 400


@pytest.mark.parametrize("order", [0, -3])
def test_euler_power_refuses_an_empty_order_as_before(order):
    with pytest.raises(ValueError) as got:
        _euler_power(7, order)
    with pytest.raises(ValueError) as want:
        oracle_euler_power(7, order)
    assert str(got.value) == str(want.value)


def test_euler_power_memo_under_concurrent_extension(monkeypatch):
    monkeypatch.setattr(scalarforms, "_EULER_POWERS", {})
    # Each thread asks for rising orders, offset from the others' orders.
    s, rising = -400, [[order + 7 * i for order in (40, 120, 260, 450)] for i in range(4)]
    want = {order: oracle_euler_power(s, order).to_record() for row in rising for order in row}
    barrier = threading.Barrier(4)
    results, errors = [], []

    def worker(i):
        try:
            barrier.wait()
            for order in rising[i]:
                results.append((order, _euler_power(s, order).to_record()))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors and len(results) == 16
    for order, record in results:
        assert record == want[order], order


@pytest.mark.parametrize("order", [1, 2, 8, 97, 300])
def test_euler_power_matches_repeated_squaring(order):
    for s in EXPONENTS:
        got = _euler_power(s, order)
        assert got.to_record() == (_euler_product(order) ** s).to_record(), s


def test_euler_power_small_cases():
    # prod (1-q^n)^-1 counts partitions; the cube is Jacobi's triangular series.
    assert list(_euler_power(-1, 10).coeffs) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    cube = {0: 1, 1: -3, 3: 5, 6: -7, 10: 9}
    assert list(_euler_power(3, 12).coeffs) == [cube.get(n, 0) for n in range(12)]
    assert _euler_power(5, 1).to_record() == {"grid": 1, "lead": 0, "valid_to": 1,
                                              "coeffs": [{"order": 1, "coeffs": ["1"]}]}


@pytest.mark.parametrize("order", [1, 2, 8, 97, 300, 2050])
def test_eta_squared_and_discriminant_match_series_powers(order):
    assert eta_squared(order).to_record() == \
        (_euler_product(order) ** 2).regrid(12).shift(1, 12).to_record()
    assert discriminant(order).to_record() == \
        (_euler_product(order) ** 24).shift(1).to_record()


@pytest.mark.parametrize("build", [eta_squared, discriminant])
def test_eta_squared_and_discriminant_refuse_order_zero(build):
    with pytest.raises(ValueError):
        build(0)


@pytest.mark.parametrize("order", [8, 96])
@pytest.mark.parametrize("a", range(4))
def test_e4_e6_delta_matches_eta_squared_powers(a, order):
    for b in range(4):
        for k in range(-40, 41):
            got = e4_e6_delta(a, b, k, order)
            assert got.to_record() == oracle_e4_e6_delta(a, b, k, order).to_record(), (b, k)


@pytest.mark.parametrize("order", [8, 64])
def test_gen_form_matches_discriminant_powers(order):
    for n in range(-40, 41):
        assert gen_form(n, order).to_record() == oracle_gen_form(n, order).to_record(), n


def verify_gen_product(n: int, m: int, order: int) -> bool:
    """Check f_n * f_m / f_(n+m) = (J+744)^s3 * (J-984)^s2 exactly, without
    dividing: compare f_n * f_m with f_(n+m) * (J+744)^s3 * (J-984)^s2.
    f_(n+m) has a nonzero lead, so the two agree exactly when the quotient
    identity holds, and their common window holds the quotient's, shifted
    by that lead.

    s3 and s2 are the remainder carries of (n, m) mod 3 and mod 2.  Raises
    PrecisionError when the order leaves no comparison window.  Both sides
    are built by ``_verify_gen_product``, here with no side shared.
    """
    return _verify_gen_product(n, m, order, {})


def oracle_verify_gen_product(n: int, m: int, order: int) -> bool:
    """Check f_n * f_m / f_(n+m) = (J+744)^s3 * (J-984)^s2 exactly.

    s3 and s2 are the remainder carries of (n, m) mod 3 and mod 2.  Raises
    PrecisionError when the order leaves no comparison window.
    """
    lhs = gen_form(n, order) * gen_form(m, order) / gen_form(n + m, order)
    s3 = remainder_carry(n, m, 3)
    s2 = remainder_carry(n, m, 2)
    rhs = QSeries.constant(1, order)
    j = hauptmodul(order)
    if s3:
        rhs = rhs * (j + 744)
    if s2:
        rhs = rhs * (j - 984)
    return lhs.agrees_with(rhs)


PAIRS = [(n, m) for n in range(-12, 13) for m in range(-12, 13)]


def _outcome(check, n, m, order):
    """The bool a route returns, or the type of the exception it raises."""
    try:
        return check(n, m, order)
    except Exception as exc:  # the types are compared
        return type(exc)


@pytest.mark.parametrize("order", [0, 1, 8, 9, 16, 33])
def test_gen_product_matches_the_quotient_route(order):
    for n, m in PAIRS:
        got = _outcome(verify_gen_product, n, m, order)
        assert got == _outcome(oracle_verify_gen_product, n, m, order), (n, m)
        assert got is (ValueError if order < 1 else True), (n, m)


@pytest.mark.parametrize("bad, offset", [(3, 1), (-5, 2), (1, 7), (7, 32)])
def test_corrupted_generator_fails_both_routes(bad, offset, monkeypatch):
    """f_bad with its coefficient ``offset`` steps past the lead off by one,
    inside the order-33 window: every pair that uses f_bad fails by either
    route, but for (bad, 0) and (0, bad), where f_0 = 1 and f_bad cancels."""
    order, exact = 33, gen_form

    def corrupted(n, order):
        f = exact(n, order)
        if n != bad:
            return f
        return f + QSeries.from_coeffs([1], lead=f.lead + offset, valid_to=f.valid_to)

    monkeypatch.setattr(scalarforms, "gen_form", corrupted)
    monkeypatch.setitem(globals(), "gen_form", corrupted)
    for n, m in PAIRS:
        got = verify_gen_product(n, m, order)
        assert got == oracle_verify_gen_product(n, m, order), (n, m)
        uses_bad = bad in (n, m, n + m)
        assert got is (not uses_bad or 0 in (n, m)), (n, m)

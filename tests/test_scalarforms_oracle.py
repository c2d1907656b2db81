"""Powers of the Euler product by the power recurrence, against the
squaring route they replaced.

``_euler_power(s, order)`` builds prod (1-q^n)^s by J. C. P. Miller's
recurrence over the pentagonal terms.  Its oracle is the generic
``QSeries.__pow__`` on ``_euler_product``: repeated squaring, after a series
inverse when s < 0.  ``e4_e6_delta`` and ``gen_form`` build delta^k and
Delta^r_inf from it; their oracles are the earlier constructions, kept
verbatim: ``eta_squared(pad) ** k`` and ``discriminant(pad) ** r_inf``.
Every comparison is of ``to_record()``, so windows and grids must match too.
"""

import random

import pytest

from vvmf.errors import ConsistencyError
from vvmf.scalarforms import (_euler_power, _euler_product, discriminant,
                              e4_e6_delta, eisenstein, eta_squared, gen_form,
                              gen_form_order, remainders)

EXPONENTS = sorted({0, 1, -1, 2, -2, 24, -24, 400, -400,
                    *random.Random(8).sample(range(-400, 401), 12)})


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

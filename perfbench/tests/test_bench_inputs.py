"""The seeded input generator: deterministic, valid, fixed cost shape."""

import json

import pytest

import checks
import inputs
from vvmf.detlab import generators_from_record
from vvmf.exactfield import CycNumber
from vvmf.qseries import QSeries
from vvmf.replib import load_rep, multiplicities
from vvmf.scalarforms import eta_squared


def _bytes(record):
    return json.dumps(record, sort_keys=True).encode()


def test_zeta_arithmetic():
    assert inputs.zeta_power(12) == inputs.ONE
    assert inputs.zeta_power(6) == (-1, 0, 0, 0)
    assert inputs.cyc_mul(inputs.zeta_power(5), inputs.zeta_power(7)) == inputs.ONE


@pytest.mark.parametrize("seed", [0, 7])
def test_conjugator_inverse(seed):
    import random
    p, p_inv = inputs.conjugator(random.Random(seed), 6)
    ident = [[inputs.ONE if i == j else inputs.ZERO for j in range(6)] for i in range(6)]
    assert inputs.mat_mul(p, p_inv) == ident


@pytest.mark.parametrize("m", range(5))
def test_delta_powers_match_vvmf(m):
    valid = 36 + m
    c = (2, -1, 0, 1)
    ref = eta_squared(valid) ** (2 * m) if m else QSeries.constant(1, valid)
    assert inputs.scaled_delta_power(c, m, valid) == (ref * CycNumber.make(12, c)).to_record()
    assert inputs.scaled_delta_power(inputs.ZERO, m, valid) == (ref * 0).to_record()


def test_same_seed_same_bytes_other_seed_other_bytes():
    a = [_bytes(r) for r in inputs.cyclo_det_inputs(3)] + [_bytes(inputs.enumerate_input(3))]
    b = [_bytes(r) for r in inputs.cyclo_det_inputs(3)] + [_bytes(inputs.enumerate_input(3))]
    c = [_bytes(r) for r in inputs.cyclo_det_inputs(4)] + [_bytes(inputs.enumerate_input(4))]
    assert a == b
    assert all(x != y for x, y in zip(a, c))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cyclo_det_inputs_are_valid_with_the_fixed_multiset(seed):
    gens, rep_record = inputs.cyclo_det_inputs(seed)
    rep = load_rep(rep_record)
    ms = [j // 2 for j in (2 * m for m in inputs.CYCLO_MS)]
    expected = (sum(m % 2 for m in ms), sum(m % 3 == 1 for m in ms), sum(m % 3 == 2 for m in ms))
    got = multiplicities(rep)
    assert (rep.dimension, rep.epsilon) == (len(inputs.CYCLO_MS), 0)
    assert (got.alpha, got.beta1, got.beta2) == expected
    _, vectors = generators_from_record(gens)
    assert sorted(v.weight for v in vectors) == [2 * m for m in sorted(inputs.CYCLO_MS)]
    assert any(not c.is_rational() for v in vectors for s in v.components for c in s.coeffs)


@pytest.mark.parametrize("seed", [1, 2])
def test_enumerate_input_is_valid_with_the_fixed_characters(seed):
    rep = load_rep(inputs.enumerate_input(seed))
    got = multiplicities(rep)
    assert (rep.dimension, rep.epsilon) == (len(inputs.ENUM_JS), 0)
    assert (got.alpha, got.beta1, got.beta2) == checks.ENUM_MULT


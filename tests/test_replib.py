"""Representation validation, character arithmetic, traces, multiplicities."""

import random

import pytest
from test_replib_oracle import matrices_equal, split_by_parity, twist

from vvmf.errors import RepValidationError
from vvmf.exactfield import CycNumber, root_of_unity
from vvmf.replib import (Multiplicities, character_value, direct_sum,
                         linear_character, load_rep, make_rep,
                         multiplicities, t_is_semisimple, traces)

I_UNIT = root_of_unity(4, 1)
Z3 = root_of_unity(3, 1)


def test_character_values():
    k = linear_character(1)
    assert k.epsilon == 1
    assert k.s[0][0] == -I_UNIT
    assert k.s[0][0] == -root_of_unity(12, 3)
    assert traces(k).u == root_of_unity(3, 2)
    assert k.t[0][0] == root_of_unity(12, 1)


def test_character_period_twelve():
    assert matrices_equal(linear_character(12), linear_character(0))
    assert matrices_equal(linear_character(-1), linear_character(11))
    assert linear_character(0).name == "trivial"


def test_load_rep_accepts_character():
    k = linear_character(1)
    rep = load_rep(k.to_record())
    assert rep.epsilon == 1 and rep.dimension == 1
    assert matrices_equal(rep, k)


def test_load_rep_rejects_bad_relations():
    with pytest.raises(RepValidationError, match=r"rho\(S\) rho\(T\)"):
        make_rep("bad", [[1]], [[2]])
    with pytest.raises(RepValidationError, match=r"rho\(S\)\^4"):
        make_rep("bad", [[2]], [[1]])


def test_load_rep_rejects_mixed_parity():
    # Diagonal mix of an even and an odd character: S^2 = diag(1, -1).
    k = linear_character(1)
    t = linear_character(0)
    s_mix = [[t.s[0][0], 0], [0, k.s[0][0]]]
    t_mix = [[t.t[0][0], 0], [0, k.t[0][0]]]
    with pytest.raises(RepValidationError, match="decompose into even/odd"):
        make_rep("mixed", s_mix, t_mix)


def test_split_by_parity():
    even, odd = split_by_parity([linear_character(1), linear_character(0),
                                 linear_character(5), linear_character(2)])
    assert even.dimension == 2 and even.epsilon == 0
    assert odd.dimension == 2 and odd.epsilon == 1


def test_load_rep_dimension_mismatch():
    rec = linear_character(2).to_record()
    rec["dimension"] = 3
    with pytest.raises(RepValidationError, match="dimension"):
        load_rep(rec)


def test_twist():
    triv = linear_character(0)
    assert matrices_equal(twist(triv, 1), linear_character(1))
    assert matrices_equal(twist(linear_character(1), -1), triv)
    rep = direct_sum(linear_character(1), linear_character(5))
    tw = twist(rep, -1)
    expect = direct_sum(linear_character(0), linear_character(4))
    assert matrices_equal(tw, expect)
    assert tw.epsilon == 0


def test_twist_round_trip_random():
    rng = random.Random(3)
    for _ in range(25):
        js = [rng.randrange(0, 12, 2) for _ in range(rng.randint(1, 4))]
        rep = linear_character(js[0])
        for j in js[1:]:
            rep = direct_sum(rep, linear_character(j))
        m = rng.randint(-12, 12)
        assert matrices_equal(twist(twist(rep, m), -m), rep)


def test_direct_sum():
    k, k5 = linear_character(1), linear_character(5)
    rep = direct_sum(k, k5)
    assert rep.dimension == 2 and rep.epsilon == 1
    assert traces(rep).s == -2 * I_UNIT
    two = direct_sum(linear_character(0), linear_character(0))
    assert traces(two).s == 2 and traces(two).u == 2
    with pytest.raises(RepValidationError, match="parity"):
        direct_sum(k, linear_character(0))


def test_traces_examples():
    k = linear_character(1)
    data = traces(k)
    assert data.s == -I_UNIT
    assert data.u == root_of_unity(3, 2)
    assert data.u_inv == Z3
    triv = traces(linear_character(0))
    assert triv.s == 1 and triv.u == 1 and triv.u_inv == 1


def test_u_cubed_is_identity():
    for j in range(12):
        rep = linear_character(j)
        u = rep.u()
        assert u[0][0] ** 3 == 1


def test_multiplicities_examples():
    assert multiplicities(linear_character(0)) == Multiplicities(0, 0, 0)
    assert multiplicities(linear_character(2)) == Multiplicities(1, 1, 0)
    rep = direct_sum(linear_character(1), linear_character(5))
    assert multiplicities(rep) == Multiplicities(0, 0, 1)


def test_multiplicities_reconstruct_traces():
    for j in range(12):
        rep = linear_character(j)
        rdot = rep if rep.epsilon == 0 else twist(rep, -1)
        m = multiplicities(rep)
        data = traces(rdot)
        d = rep.dimension
        assert data.s == d - 2 * m.alpha
        assert data.u == (d - m.beta1 - 2 * m.beta2) + (m.beta1 - m.beta2) * Z3
        # Inverting U swaps the two primitive-cube-root eigenvalue classes.
        assert data.u_inv == (d - 2 * m.beta1 - m.beta2) + (m.beta2 - m.beta1) * Z3


def test_additivity_random():
    rng = random.Random(8)
    for _ in range(30):
        eps = rng.randint(0, 1)
        js = [2 * rng.randint(0, 5) + eps for _ in range(rng.randint(2, 5))]
        parts = [linear_character(j) for j in js]
        rep = parts[0]
        total_tr = traces(parts[0])
        total_m = multiplicities(parts[0])
        for p in parts[1:]:
            rep = direct_sum(rep, p)
            t = traces(p)
            total_tr = type(total_tr)(total_tr.s + t.s, total_tr.u + t.u,
                                      total_tr.u_inv + t.u_inv)
            total_m = total_m + multiplicities(p)
        got = traces(rep)
        assert got.s == total_tr.s and got.u == total_tr.u
        assert got.u_inv == total_tr.u_inv
        assert multiplicities(rep) == total_m


def test_character_value_consistency():
    # value(T) = value(U)^-1 * value(S) for every power.
    for j in range(12):
        s = character_value("S", j)
        u = character_value("U", j)
        t = character_value("T", j)
        assert t == u.inverse() * s


def test_t_semisimple_for_characters():
    for j in range(12):
        assert t_is_semisimple(linear_character(j))
    rep = direct_sum(linear_character(2), linear_character(4))
    assert t_is_semisimple(rep)


def test_non_semisimple_t_is_flagged_not_rejected():
    # S = -identity (even parity would need S^2 = I; this has S^2 = I), with
    # T a nontrivial Jordan block scaled to satisfy the relations is not
    # realizable in dimension 2 with U^3 = 1 unless T is semisimple... but a
    # direct construction exists in dimension 3: the symmetric square of the
    # standard logarithmic construction is outside scope, so instead check
    # that the helper sees a genuine Jordan block when handed one directly.
    from test_replib_oracle import _poly_gcd
    from vvmf.replib import _min_poly
    one = CycNumber.one()
    zero = CycNumber.zero()
    jordan = ((one, one), (zero, one))
    mp = _min_poly(jordan)
    assert len(mp) == 3  # (x-1)^2
    deriv = [c * i for i, c in enumerate(mp)][1:]
    assert len(_poly_gcd(mp, deriv)) == 2  # shares the factor (x-1)


def test_rep_wire_round_trip():
    rep = direct_sum(linear_character(3), linear_character(7))
    rec = rep.to_record()
    assert rec["dimension"] == 2
    back = load_rep(rec)
    assert matrices_equal(back, rep)
    assert back.epsilon == rep.epsilon

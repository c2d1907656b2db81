"""Seeded inputs for the ``cyclo-det`` and ``enumerate`` workloads.

Both inputs conjugate a fixed direct sum of even characters kappa^j by a
seeded matrix P = L*U, where L and U are unitriangular with small integer
power-basis entries in Z[zeta_12].  The seed only permutes the characters
and picks P, so every seed has the same eigenvalue multiplicities and the
same cost shape.  Arithmetic here is independent of vvmf: Z[zeta_12] is
worked out by hand modulo the 12th cyclotomic polynomial x^4 - x^2 + 1, so
the inputs do not depend on the code being measured.
"""

from __future__ import annotations

import math
import random

# cyclo-det: m-multiset of the blocks kappa^(2m), generators P*diag(delta^(2m)).
CYCLO_MS = (0, 1, 2, 3, 4)
CYCLO_ORDER = 32
# Validity margin of the generator expansions, in whole exponents past the
# order; matches the margin of the ``det`` suite's generators.
CYCLO_MARGIN = 4

# enumerate: the even characters kappa^j of the d = 8 direct sum.
ENUM_JS = (0, 0, 0, 2, 4, 6, 8, 10)

Cyc = tuple[int, int, int, int]   # power-basis coordinates over 1, z, z^2, z^3
ZERO: Cyc = (0, 0, 0, 0)
ONE: Cyc = (1, 0, 0, 0)


def cyc_add(a: Cyc, b: Cyc) -> Cyc:
    return tuple(x + y for x, y in zip(a, b))


def cyc_neg(a: Cyc) -> Cyc:
    return tuple(-x for x in a)


def cyc_mul(a: Cyc, b: Cyc) -> Cyc:
    prod = [0] * 7
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for k in range(6, 3, -1):  # z^k = z^(k-4) * (z^2 - 1)
        c = prod[k]
        prod[k] = 0
        prod[k - 2] += c
        prod[k - 4] -= c
    return tuple(prod[:4])


def zeta_power(k: int) -> Cyc:
    out = ONE
    for _ in range(k % 12):
        out = cyc_mul(out, (0, 1, 0, 0))
    return out


def cyc_record(c: Cyc) -> dict:
    """Wire form of a cyclotomic number, demoted to order 1 when rational."""
    if not any(c[1:]):
        return {"order": 1, "coeffs": [str(c[0])]}
    return {"order": 12, "coeffs": [str(x) for x in c]}


def mat_mul(a, b):
    n = len(b)
    return [[_dot(row, [b[k][j] for k in range(n)]) for j in range(len(b[0]))]
            for row in a]


def _dot(xs, ys) -> Cyc:
    acc = ZERO
    for x, y in zip(xs, ys):
        if any(x) and any(y):
            acc = cyc_add(acc, cyc_mul(x, y))
    return acc


def unitriangular_inverse(m, lower: bool):
    """Exact inverse of a unitriangular matrix over Z[zeta_12]."""
    d = len(m)
    inv = [[ONE if i == j else ZERO for j in range(d)] for i in range(d)]
    rows = range(d) if lower else range(d - 1, -1, -1)
    for i in rows:
        span = range(i) if lower else range(i + 1, d)
        for j in range(d):
            acc = inv[i][j]
            for k in span:
                acc = cyc_add(acc, cyc_neg(cyc_mul(m[i][k], inv[k][j])))
            inv[i][j] = acc
    return inv


def _small(rng: random.Random) -> Cyc:
    return tuple(rng.randint(-1, 1) for _ in range(4))


def conjugator(rng: random.Random, d: int):
    """P = L*U and its exact inverse; det P = 1."""
    lower = [[ONE if i == j else (_small(rng) if j < i else ZERO)
              for j in range(d)] for i in range(d)]
    upper = [[ONE if i == j else (_small(rng) if j > i else ZERO)
              for j in range(d)] for i in range(d)]
    p = mat_mul(lower, upper)
    p_inv = mat_mul(unitriangular_inverse(upper, lower=False),
                    unitriangular_inverse(lower, lower=True))
    return p, p_inv


def conjugated_rep(name: str, js, p, p_inv) -> dict:
    """Record of P * (direct sum of kappa^j) * P^-1.

    kappa^j sends S to zeta_12^(9j) and T to zeta_12^j.
    """
    d = len(js)

    def conj(diag):
        scaled = [[cyc_mul(p[i][k], diag[k]) for k in range(d)] for i in range(d)]
        return [[cyc_record(c) for c in row] for row in mat_mul(scaled, p_inv)]

    return {
        "name": name,
        "dimension": d,
        "cyclotomic_order": 12,
        "S": conj([zeta_power(9 * j) for j in js]),
        "T": conj([zeta_power(j) for j in js]),
    }


def euler_power(e: int, n: int) -> list[int]:
    """First n coefficients of prod_{k>=1} (1 - q^k)^e."""
    base = [0] * n
    k = 0
    while True:
        hit = False
        for x in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if x < n:
                base[x] = 1 if k % 2 == 0 else -1
                hit = True
        if not hit and k > 0:
            break
        k += 1
    out = [1] + [0] * (n - 1)
    for _ in range(e):
        out = [sum(out[i] * base[j - i] for i in range(j + 1) if base[j - i])
               for j in range(n)]
    return out


def scaled_delta_power(c: Cyc, m: int, valid: int) -> dict:
    """Record of c * delta^(2m), delta = eta^2, trusted below q^valid
    (plus the 2m/12 the power adds), in the normal form vvmf writes."""
    if m == 0:
        if not any(c):
            return {"grid": 1, "lead": valid, "valid_to": valid, "coeffs": []}
        return {"grid": 1, "lead": 0, "valid_to": valid,
                "coeffs": [cyc_record(c)] + [cyc_record(ZERO)] * (valid - 1)}
    # delta^(2m) = q^(2m/12) * prod (1 - q^k)^(4m), on the grid 12/g.
    g = 12 // math.gcd(12, 2 * m)
    lead = 2 * m * g // 12
    valid_to = (12 * valid + 2 * m) * g // 12
    if not any(c):
        v = valid_to // g
        return {"grid": 1, "lead": v, "valid_to": v, "coeffs": []}
    coeffs = [cyc_record(ZERO)] * (valid * g)
    for n, e in enumerate(euler_power(4 * m, valid)):
        coeffs[n * g] = cyc_record(cyc_mul(c, (e, 0, 0, 0)))
    return {"grid": g, "lead": lead, "valid_to": valid_to, "coeffs": coeffs}


def cyclo_det_inputs(seed: int) -> tuple[dict, dict]:
    """Generators file and representation file for ``vvmf det``.

    The representation is P * (+)_i kappa^(2 m_i) * P^-1 and the generators
    are the columns of P * diag(delta^(2 m_i)), so the exterior product is
    det P * delta^(sum 2 m_i) with det P = 1.
    """
    rng = random.Random(f"cyclo-det:{seed}")
    ms = list(CYCLO_MS)
    rng.shuffle(ms)
    d = len(ms)
    p, p_inv = conjugator(rng, d)
    rep = conjugated_rep(f"cyclo-det-{seed}", [2 * m for m in ms], p, p_inv)
    gens = {
        "rep_name": rep["name"],
        "dimension": d,
        "generators": [
            {"weight": 2 * m,
             "components": [scaled_delta_power(p[r][i], m,
                                               CYCLO_ORDER + CYCLO_MARGIN + m)
                            for r in range(d)]}
            for i, m in enumerate(ms)
        ],
    }
    return gens, rep


def enumerate_input(seed: int) -> dict:
    """Representation file for ``vvmf analyze --enumerate``."""
    rng = random.Random(f"enumerate:{seed}")
    js = list(ENUM_JS)
    rng.shuffle(js)
    p, p_inv = conjugator(rng, len(js))
    return conjugated_rep(f"enumerate-{seed}", js, p, p_inv)

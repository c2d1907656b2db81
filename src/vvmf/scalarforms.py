"""Classical scalar modular forms as exact q-expansions.

Constructors return series trusted for all exponents strictly below the
requested ``order``.  The discriminant form is built through two independent
pipelines and cross-checked at construction, since every later identity in
the package leans on it.

Caching is keyed by order and returns immutable series, so it is observably
stateless.  The Euler powers behind every delta^k are kept for the eight
newest exponents, each at the largest order asked so far, and smaller orders
are sliced from them.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .errors import ConsistencyError
from .exactfield import _Record
from .qseries import QSeries


class RemainderTriple(_Record):
    """Non-negative remainders of -n modulo 2 and 3, plus the balancing
    power of the discriminant; 4*r3 + 6*r2 + 12*r_inf = 2n always."""

    __slots__ = ("r2", "r3", "r_inf")


def remainders(n: int) -> RemainderTriple:
    """Exponent triple (r2, r3, r_inf) attached to the weight-2n generator.

    >>> remainders(1)
    RemainderTriple(r2=1, r3=2, r_inf=-1)
    """
    r2 = (-n) % 2
    r3 = (-n) % 3
    r_inf = (n - 3 * r2 - 2 * r3) // 6
    return RemainderTriple(r2, r3, r_inf)


def remainder_carry(n: int, m: int, k: int) -> int:
    """1 when the mod-k remainders of -n and -m overflow past k, else 0."""
    if k < 1:
        raise ValueError("modulus must be positive")
    return 1 if ((-n) % k) + ((-m) % k) >= k else 0


def divisor_power_sum(n: int, k: int) -> int:
    """sigma_k(n), the sum of the k-th powers of the divisors of n."""
    if n < 1:
        raise ValueError(f"divisor sums need n >= 1, got {n}")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            e = n // d
            if e != d:
                total += e ** k
        d += 1
    return total


def _pentagonal(order: int) -> list[tuple[int, int]]:
    """The nonzero terms (n, +-1) of prod_{n>=1} (1 - q^n) below q^order, in
    increasing n: Euler's pentagonal numbers k(3k -+ 1)/2, of sign (-1)^k."""
    out = [(0, 1)] if order > 0 else []
    k = 1
    while (e := k * (3 * k - 1) // 2) < order:
        sign = -1 if k % 2 else 1
        out += [(e, sign)] + ([(e + k, sign)] if e + k < order else [])
        k += 1
    return out


_EULER_POWERS: dict[int, list[int]] = {}


def _euler_power(s: int, order: int) -> QSeries:
    """prod_{n>=1} (1 - q^n)^s below q^order >= 1, for any integer s, by J. C. P.
    Miller's power recurrence over the pentagonal terms p_j of the product:
    n*g_n = sum_j ((s+1)*j - n)*p_j*g_(n-j) = (s+1)*A_n - n*B_n with
    A_n = sum_j j*p_j*g_(n-j) and B_n = sum_j p_j*g_(n-j).  Every p_j is +-1,
    so that is O(order^1.5) small-by-big steps, and the division is exact.
    Its one caller is ``_e4_e6_delta``, the body of ``e4_e6_delta``,
    ``gen_form``, ``eta_squared`` and the product side of ``discriminant``.

    The coefficients of each s are kept at the largest order asked so far:
    a smaller order slices them, and a larger one resumes the recurrence,
    which is prefix-stable, into a new list that replaces the entry in one
    assignment.  A published list is never mutated.  Eight exponents are
    kept; a ninth drops the oldest, so the memo's memory stays bounded."""
    if s == 0:
        return QSeries.constant(1, order)
    g = _EULER_POWERS.get(s, [1])
    if len(g) < order:
        start, g = len(g), g + [0] * (order - len(g))
        terms = _pentagonal(order)[1:]
        for n in range(start, order):
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
        if s not in _EULER_POWERS:  # keep the newest eight exponents
            for old in tuple(_EULER_POWERS)[:-7]:
                _EULER_POWERS.pop(old, None)
        _EULER_POWERS[s] = g
    return QSeries.from_coeffs(g[:max(order, 1)], valid_to=order)


@lru_cache(maxsize=None)
def eisenstein(k: int, order: int) -> QSeries:
    """The normalized Eisenstein series of weight 4 or 6.

    E4 = 1 + 240*sum sigma_3(n) q^n,  E6 = 1 - 504*sum sigma_5(n) q^n.
    """
    if k not in (4, 6):
        raise ValueError(f"only weights 4 and 6 are provided, got {k}")
    if order < 1:
        raise ValueError("order must be at least 1")
    scale, power = (240, 3) if k == 4 else (-504, 5)
    coeffs = [1] + [scale * divisor_power_sum(n, power) for n in range(1, order)]
    return QSeries.from_coeffs(coeffs, valid_to=order)


def _e4_e6_delta(a: int, b: int, k: int, pad: int) -> QSeries:
    """E4^a * E6^b * delta^k, delta^k = q^(k/12) * prod (1-q^n)^(2k), with every
    factor built to ``pad`` and no window check.  The one body of ``e4_e6_delta``,
    ``gen_form`` (Delta = delta^12), ``eta_squared`` and the product side of
    ``discriminant``.

    E4^a * E6^b is multiplied first, while its coefficients are small, and
    delta^k once.  Both Eisenstein leads are 0, so the window ends where
    (delta^k * E4^a) * E6^b would end it."""
    out = _euler_power(2 * k, pad).regrid(12).shift(k, 12)
    eis = [eisenstein(w, pad) ** e for w, e in ((4, a), (6, b)) if e]
    return out * reduce(QSeries.__mul__, eis) if eis else out


@lru_cache(maxsize=None)
def discriminant(order: int) -> QSeries:
    """The discriminant cusp form, built and cross-checked two ways.

    Returns delta^12 = q * prod (1-q^n)^24 from the power recurrence and
    verifies it against (E4^3 - E6^2)/1728 coefficient by coefficient.  That
    side is built a term further, so even at order 1 the two share q^1.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    product = _e4_e6_delta(0, 0, 12, order)
    e4 = eisenstein(4, order + 1)
    e6 = eisenstein(6, order + 1)
    via_eisenstein = (e4 ** 3 - e6 ** 2) / 1728
    if not product.agrees_with(via_eisenstein):
        raise ConsistencyError(
            "discriminant pipelines disagree: product expansion vs "
            "(E4^3 - E6^2)/1728"
        )
    return product


@lru_cache(maxsize=None)
def eta_squared(order: int) -> QSeries:
    """q^(1/12) * prod (1-q^n)^2, the canonical 12th root of the discriminant."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return _e4_e6_delta(0, 0, 1, order)


def e4_e6_delta_order(k: int, order: int) -> int:
    """The order ``e4_e6_delta(a, b, k, order)`` expands each factor to: two
    guard terms, plus one per twelve powers of delta, which covers the pole
    of delta^k."""
    return order + 2 + abs(k) // 12


def e4_e6_delta(a: int, b: int, k: int, order: int) -> QSeries:
    """E4^a * E6^b * delta^k, the form of every determinant the package
    checks; each factor is built to ``e4_e6_delta_order(k, order)``."""
    out = _e4_e6_delta(a, b, k, e4_e6_delta_order(k, order))
    if out.valid_exponent() < order:
        raise ConsistencyError(f"e4_e6_delta window ends at q^{out.valid_exponent()} < q^{order}")
    return out


@lru_cache(maxsize=None)
def hauptmodul(order: int) -> QSeries:
    """J = E4^3/Delta - 744, the weight-0 generator with lead q^-1."""
    if order < 1:
        raise ValueError("order must be at least 1")
    pad = order + 2
    j = eisenstein(4, pad) ** 3 / discriminant(pad) - 744
    if j.valid_exponent() < order:
        raise ConsistencyError(f"hauptmodul window ends at q^{j.valid_exponent()} < q^{order}")
    return j


def gen_form_order(n: int, order: int) -> int:
    """The order ``gen_form(n, order)`` expands to: two guard terms, plus two
    per order of the pole of Delta^r_inf when r_inf < 0."""
    return order + 2 + 2 * max(0, -remainders(n).r_inf)


@lru_cache(maxsize=None)
def gen_form(n: int, order: int) -> QSeries:
    """The weight-2n form E4^r3 * E6^r2 * Delta^r_inf generating the
    weakly holomorphic forms of weight 2n over the weight-0 ring, with
    Delta^r_inf = delta^(12*r_inf) from the power recurrence.

    Holomorphic for n > 1; for n <= 1 the lead exponent is r_inf < 0 and the
    caller is responsible for requesting enough order for its comparison.
    """
    r = remainders(n)
    out = _e4_e6_delta(r.r3, r.r2, 12 * r.r_inf, gen_form_order(n, order))
    if out.valid_exponent() < order:
        raise ConsistencyError(f"gen_form window ends at q^{out.valid_exponent()} < q^{order}")
    return out


def _verify_gen_product(n: int, m: int, order: int, sides: dict) -> bool:
    """Check f_n * f_m / f_(n+m) = (J+744)^s3 * (J-984)^s2 exactly, without
    dividing: compare f_n * f_m with f_(n+m) * (J+744)^s3 * (J-984)^s2.
    f_(n+m) has a nonzero lead, so the two agree exactly when the quotient
    identity holds, and their common window holds the quotient's, shifted
    by that lead.

    s3 and s2 are the remainder carries of (n, m) mod 3 and mod 2.  Raises
    PrecisionError when the order leaves no comparison window.  The right
    sides of the total n + m at ``order`` are kept in ``sides`` by their
    carries (s3, s2): each is built once, and one with s2 = 1 is the (s3, 0)
    side times J - 984."""
    lhs = gen_form(n, order) * gen_form(m, order)
    s3, s2 = remainder_carry(n, m, 3), remainder_carry(n, m, 2)
    if (s3, 0) not in sides:
        rhs, j = gen_form(n + m, order), hauptmodul(order)
        sides[s3, 0] = rhs * (j + 744) if s3 else rhs
    if (s3, s2) not in sides:
        sides[s3, s2] = sides[s3, 0] * (hauptmodul(order) - 984)
    return lhs.agrees_with(sides[s3, s2])


def count_congruent(xs, k: int, p: int) -> int:
    """Number of x in xs with x = p (mod k), via the carry-indicator sums.

    Cross-checked against the direct count; a mismatch is an engine bug.
    """
    if k < 2:
        raise ValueError("modulus must be at least 2")
    if not 0 < p < k:
        raise ValueError("need 0 < p < k")
    xs = list(xs)
    formula = sum(remainder_carry(p, -x, k) for x in xs) \
        - sum(remainder_carry(p + 1, -x, k) for x in xs)
    direct = sum(1 for x in xs if x % k == p % k)
    if formula != direct:
        raise ConsistencyError(
            f"congruence count mismatch for k={k}, p={p}: "
            f"indicator sum {formula} vs direct count {direct}"
        )
    return formula


FORM_NAMES = ("E4", "E6", "Delta", "J", "delta")


def named_form(name: str, order: int) -> QSeries:
    """CLI registry: E4, E6, Delta, J, delta, and f:<n>."""
    if name == "E4":
        return eisenstein(4, order)
    if name == "E6":
        return eisenstein(6, order)
    if name == "Delta":
        return discriminant(order)
    if name == "J":
        return hauptmodul(order)
    if name == "delta":
        return eta_squared(order)
    if name.startswith("f:"):
        try:
            n = int(name[2:])
        except ValueError:
            raise KeyError(name) from None
        return gen_form(n, order)
    raise KeyError(name)

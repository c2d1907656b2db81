"""Weight distribution of free generating sets, as executable constraints.

For a pure-parity representation the generating-weight polynomial
P(z) = sum_i z^(w_i) is pinned down at z = -i and at the primitive cube
roots of unity by traces of representation matrices, and the congruence
classes of the normalized weights k_i = (w_i - epsilon)/2 are counted by the
eigenvalue multiplicities.  This module evaluates those constraints exactly
in Q(zeta_12), enumerates the candidate weight multisets they allow, and
expands the graded dimension series a candidate implies.

The counts alpha (k odd), beta1 (k = 1 mod 3) and beta2 (k = 2 mod 3) fix a
multiset only through its classes of k mod 6: with n_r of the k in class r,
n1 + n3 + n5 = alpha, n1 + n4 = beta1, n2 + n5 = beta2 and the n_r sum to
the size d.  At most (beta1 + 1)(beta2 + 1) distributions (n_0, ..., n_5)
solve this, and the candidates of one distribution are the products over r
of the size-n_r multisets of the k in range that lie in class r.  So the
enumeration does work in proportion to what it returns, and the same
product of binomials counts that work in advance
(``count_weight_multisets``):

>>> m = Multiplicities(alpha=1, beta1=1, beta2=0)
>>> count_weight_multisets(2, m, 0, 6)
3
>>> [w.ks for w in enumerate_weight_multisets(2, 0, m, 0, 6)]
[(0, 1), (1, 6), (3, 4)]
"""

from __future__ import annotations

import math
from itertools import chain, combinations_with_replacement, product

from .exactfield import CycNumber, _Record, root_of_unity
from .replib import Multiplicities, RepSpec, _counts, _subfield, traces

# Evaluation points, all inside Q(zeta_12).
MINUS_I = root_of_unity(12, 9)
ZETA3 = root_of_unity(12, 4)
ZETA3_INV = root_of_unity(12, 8)

# Enumerations that would walk more candidate multisets than this are
# refused before they start (see ``count_weight_multisets``).
MAX_CANDIDATES = 500_000


class WeightMultiset(_Record):
    """Candidate fundamental weights, stored as normalized k_i with
    w_i = 2*k_i + epsilon."""

    __slots__ = ("epsilon", "ks")

    def __init__(self, epsilon: int, ks):
        super().__init__(epsilon, tuple(sorted(ks)))

    @property
    def size(self) -> int:
        return len(self.ks)

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(2 * k + self.epsilon for k in self.ks)

    def weight_sum(self) -> int:
        return sum(self.weights)

    def hilbert_value(self, z: CycNumber) -> CycNumber:
        """P(z) = sum_i z^(w_i), evaluated exactly."""
        acc = CycNumber.zero()
        for w in self.weights:
            acc = acc + z ** w
        return acc


class WeightProfile(_Record):
    """Everything the traces say about the fundamental weights: the counts
    are ints, the values at -i, zeta_3 and zeta_3^-1 CycNumbers."""

    __slots__ = ("count_k_odd", "count_k_mod3_1", "count_k_mod3_2",
                 "at_minus_i", "at_zeta", "at_zeta_inv")


def weight_profile(rep: RepSpec) -> WeightProfile:
    """Trace-side values of the weight constraints, from one ``traces(rep)``:
    the counts are the multiplicities, read as ``multiplicities`` reads them;
    P(-i) = Tr rho(S), and P at a primitive cube root is the trace of the
    inverse power of rho(U), each held as ``traces`` computes it."""
    data = traces(rep)
    mult = _counts(data, rep.dimension, -rep.epsilon)
    return WeightProfile(mult.alpha, mult.beta1, mult.beta2, data.s, data.u_inv, data.u)


class HilbertCheck(_Record):
    """Per-constraint report for a candidate weight multiset: a bool per
    constraint, and the int weight sum; true when every constraint holds."""

    __slots__ = ("value_at_minus_i", "value_at_zeta", "value_at_zeta_inv", "count_odd",
                 "count_mod3_1", "count_mod3_2", "weight_sum", "weight_sum_nonneg")

    @property
    def passed(self) -> bool:
        return (self.value_at_minus_i and self.value_at_zeta
                and self.value_at_zeta_inv and self.count_odd
                and self.count_mod3_1 and self.count_mod3_2
                and self.weight_sum_nonneg)

    def __bool__(self) -> bool:
        return self.passed


def check_hilbert_poly(ws: WeightMultiset, rep: RepSpec) -> HilbertCheck:
    """Test a candidate multiset against every trace constraint, exactly."""
    if ws.size != rep.dimension:
        raise ValueError(
            f"multiset size {ws.size} does not match dimension {rep.dimension}"
        )
    if ws.epsilon != rep.epsilon:
        raise ValueError("parity of the multiset does not match the representation")
    return _hilbert_check(ws, weight_profile(rep))


def _hilbert_check(ws: WeightMultiset, profile: WeightProfile) -> HilbertCheck:
    """``ws`` against every constraint of ``profile``.  Each trace is read in
    Q(zeta_12), where P(z) lies, not P(z) at the order of the representation;
    a trace outside Q(zeta_12) equals no value of P."""
    def matches(z: CycNumber, trace: CycNumber) -> bool:
        try:
            trace = _subfield(trace, 12)
        except ValueError:
            return False
        return ws.hilbert_value(z) == trace

    ks = ws.ks
    return HilbertCheck(
        value_at_minus_i=matches(MINUS_I, profile.at_minus_i),
        value_at_zeta=matches(ZETA3, profile.at_zeta),
        value_at_zeta_inv=matches(ZETA3_INV, profile.at_zeta_inv),
        count_odd=sum(1 for k in ks if k % 2 == 1) == profile.count_k_odd,
        count_mod3_1=sum(1 for k in ks if k % 3 == 1) == profile.count_k_mod3_1,
        count_mod3_2=sum(1 for k in ks if k % 3 == 2) == profile.count_k_mod3_2,
        weight_sum=ws.weight_sum(),
        weight_sum_nonneg=ws.weight_sum() >= 0,
    )


def _class_counts(d: int, mult: Multiplicities):
    """Every (n_0, ..., n_5) of non-negative class sizes, n_r the number of
    k = r mod 6, that sums to d and matches the congruence counts."""
    for n1 in range(mult.beta1 + 1):
        n4 = mult.beta1 - n1
        for n5 in range(mult.beta2 + 1):
            n2 = mult.beta2 - n5
            n3 = mult.alpha - n1 - n5
            n0 = d - n1 - n2 - n3 - n4 - n5
            if n3 >= 0 and n0 >= 0:
                yield n0, n1, n2, n3, n4, n5


def _class_pools(k_min: int, k_max: int) -> list[range]:
    """The k in [k_min, k_max] with k = r mod 6, for r = 0..5 (Python's %,
    so a negative k lies in the class its k % 2 and k % 3 say)."""
    return [range(k_min + (r - k_min) % 6, k_max + 1, 6) for r in range(6)]


def _multichoose(m: int, n: int) -> int:
    """Number of size-n multisets over m elements."""
    return math.comb(m + n - 1, n) if m else int(n == 0)


def count_weight_multisets(d: int, mult: Multiplicities, k_min: int,
                           k_max: int) -> int:
    """Number of size-d multisets over [k_min, k_max] matching the
    congruence counts, before the total-weight filters: the number of
    candidates ``enumerate_weight_multisets`` walks."""
    # The sizes of _class_pools(k_min, k_max), by arithmetic: len() fails on
    # a range longer than sys.maxsize.
    sizes = [max(0, (k_max - k_min - (r - k_min) % 6) // 6 + 1) for r in range(6)]
    return sum(math.prod(_multichoose(m, n) for m, n in zip(sizes, ns))
               for ns in _class_counts(d, mult))


def _candidate_ks(d: int, epsilon: int, mult: Multiplicities, k_min: int,
                  k_max: int, sum_w: int | None) -> list[tuple[int, ...]]:
    """Each candidate of ``enumerate_weight_multisets`` as its sorted tuple
    of k, in lexicographic order, after the same checks with the same errors
    (the cap before any candidate is built)."""
    if k_min > k_max:
        raise ValueError("k_min must not exceed k_max")
    if epsilon not in (0, 1):
        raise ValueError("epsilon must be 0 or 1")
    if d < 0:
        raise ValueError("d must be non-negative")
    count = count_weight_multisets(d, mult, k_min, k_max)
    if count > MAX_CANDIDATES:
        raise ValueError(
            f"{count} candidate weight multisets for k in [{k_min}, {k_max}], "
            f"above the cap {MAX_CANDIDATES}; narrow the k range")
    pools = _class_pools(k_min, k_max)
    out = []
    for ns in _class_counts(d, mult):
        used = [(pool, n) for pool, n in zip(pools, ns) if n]
        if sum_w is not None and used and used[-1][1] == 1:
            # The total fixes the last class's one k: check it, do not walk.
            half, odd = divmod(sum_w - d * epsilon, 2)
            if sum_w >= 0 and not odd:
                for rest in product(*(combinations_with_replacement(p, n) for p, n in used[:-1])):
                    ks = [*chain.from_iterable(rest), half - sum(map(sum, rest))]
                    if ks[-1] in used[-1][0]:
                        out.append(tuple(sorted(ks)))
            continue
        # The classes in use; a class with one k walks its range lazily,
        # so a wide range costs no memory.
        picks = [zip(pool) if n == 1 else combinations_with_replacement(pool, n)
                 for pool, n in used]
        if len(picks) == 1:
            kss = picks[0]  # already sorted
        else:
            kss = map(tuple, map(sorted, map(chain.from_iterable, product(*picks))))
        if sum_w is not None or k_min < 0:  # else every total is >= 0
            kss = (ks for ks in kss if (total := 2 * sum(ks) + d * epsilon) >= 0
                   and (sum_w is None or total == sum_w))
        out += kss
    out.sort()
    return out


def enumerate_weight_multisets(d: int, epsilon: int, mult: Multiplicities,
                               k_min: int = 0, k_max: int = 11,
                               sum_w: int | None = None) -> list[WeightMultiset]:
    """All size-d multisets over [k_min, k_max] matching the congruence
    counts, with non-negative total weight (and the exact total when given),
    in lexicographic order of their sorted k.

    The total weight is not determined by trace data, so it is an optional
    input rather than something pretended to be derived.  Infeasible
    constraints yield an empty list.  A request with more than
    ``MAX_CANDIDATES`` candidates is refused with ValueError before any is
    built.
    """
    return [WeightMultiset(epsilon, ks)
            for ks in _candidate_ks(d, epsilon, mult, k_min, k_max, sum_w)]


def dimension_series(ws: WeightMultiset, n_max: int) -> list[int]:
    """Graded dimensions implied by a weight multiset, for weights 0..n_max.

    Expands P(z)/((1-z^4)(1-z^6)), i.e. counts representations
    n = w_i + 4a + 6b with a, b >= 0.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    dims = [0] * (n_max + 1)
    base = [0] * (n_max + 1)
    for a in range(0, n_max + 1, 4):
        for b in range(a, n_max + 1, 6):
            base[b] += 1
    for w in ws.weights:
        for n in range(max(w, 0), n_max + 1):
            dims[n] += base[n - w]
    if any(v < 0 for v in dims):
        raise ValueError("weights inconsistent with a free module")
    return dims

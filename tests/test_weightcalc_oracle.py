"""Weight-multiset enumeration against the walk it replaced.

``walk_weight_multisets`` below is ``enumerate_weight_multisets`` as it was
before it enumerated by residue class of k mod 6: it walks every size-d
multiset over [k_min, k_max] and tests each one.  It is kept here unchanged
as the reference: on seeded random requests, feasible or not, with negative
k and with or without a total weight, the class enumeration must return the
same list, and ``count_weight_multisets`` must count the multisets the walk
accepts before its total-weight filters.

``text_line`` and ``json_row`` are how ``vvmf analyze --enumerate`` laid out
each candidate while it built a ``WeightMultiset`` per candidate; the CLI's
text lines and JSON entries, laid out from the k tuples, must equal them on
the same requests.

``check_hilbert_poly`` reads one ``weight_profile`` and compares each P(z),
which lies in Q(zeta_12), with the trace read in Q(zeta_12).
``oracle_check_hilbert_poly`` is its earlier body: separate
``multiplicities`` and ``traces`` calls, and comparisons that lift P(z) and
the trace to lcm(N, 12) for a representation of cyclotomic order N.  They
must agree, result or error, on the seeded representations of
``test_replib_oracle``, their twists and direct sums, and the same with the
parity flipped, for every candidate with k in [0, 5] and a few wrong
multisets.  Over Q(zeta_280) and Q(zeta_35), where the lift passes the
order bound, the check must give what it gives on the unconjugated
representation.

With a total weight given, ``_candidate_ks`` computes the one k of the last
class in use from the total and the other picks, and checks it against its
range, instead of walking that range.  ``oracle_candidate_ks`` is its body
before, which walks the range and filters by the total, kept verbatim.  The
two must return the same list or raise the same error on seeded small
requests, with negative k and with totals that are odd, negative or out of
reach.
"""

import json
import random
from itertools import chain, combinations_with_replacement, product

import pytest
from test_replib_oracle import DEFINING, EVEN_2, RECORDS, _conjugated, _derived, _rep

from vvmf import cli, weightcalc
from vvmf.errors import RepValidationError
from vvmf.replib import (Multiplicities, RepSpec, linear_character, make_rep, multiplicities,
                         traces)
from vvmf.weightcalc import (MINUS_I, ZETA3, ZETA3_INV, HilbertCheck, WeightMultiset,
                             check_hilbert_poly, count_weight_multisets,
                             enumerate_weight_multisets)


def walk_weight_multisets(d: int, epsilon: int, mult: Multiplicities,
                          k_min: int = 0, k_max: int = 11,
                          sum_w: int | None = None) -> list[WeightMultiset]:
    """All size-d multisets over [k_min, k_max] matching the congruence
    counts, with non-negative total weight (and the exact total when given).

    The total weight is not determined by trace data, so it is an optional
    input rather than something pretended to be derived.  Infeasible
    constraints yield an empty list.
    """
    if k_min > k_max:
        raise ValueError("k_min must not exceed k_max")
    if epsilon not in (0, 1):
        raise ValueError("epsilon must be 0 or 1")
    out = []
    for ks in combinations_with_replacement(range(k_min, k_max + 1), d):
        if sum(1 for k in ks if k % 2 == 1) != mult.alpha:
            continue
        if sum(1 for k in ks if k % 3 == 1) != mult.beta1:
            continue
        if sum(1 for k in ks if k % 3 == 2) != mult.beta2:
            continue
        total = sum(2 * k + epsilon for k in ks)
        if total < 0:
            continue
        if sum_w is not None and total != sum_w:
            continue
        out.append(WeightMultiset(epsilon, ks))
    out.sort(key=lambda w: w.ks)
    return out


def text_line(ws: WeightMultiset) -> str:
    return f"  k = {list(ws.ks)}  ->  weights {list(ws.weights)}"


def json_row(ws: WeightMultiset) -> dict:
    return {"epsilon": ws.epsilon, "ks": list(ws.ks), "weights": list(ws.weights)}


def json_entry(row: dict) -> str:
    """``row`` as the encoder lays it out inside a report's
    ``candidate_multisets`` list."""
    head, tail = '{\n  "candidate_multisets": [\n', "\n  ]\n}"
    text = json.JSONEncoder(sort_keys=True, indent=2).encode({"candidate_multisets": [row]})
    assert text.startswith(head) and text.endswith(tail)
    return text[len(head):-len(tail)]


def walk_count(d: int, mult: Multiplicities, k_min: int, k_max: int) -> int:
    """The multisets the walk accepts before its total-weight filters."""
    return sum(1 for ks in combinations_with_replacement(range(k_min, k_max + 1), d)
               if sum(k % 2 == 1 for k in ks) == mult.alpha
               and sum(k % 3 == 1 for k in ks) == mult.beta1
               and sum(k % 3 == 2 for k in ks) == mult.beta2)


def random_request(rng: random.Random) -> tuple:
    """(d, epsilon, mult, k_min, k_max, sum_w); about one triple in four
    cannot be met by any multiset of size d, and about half the requests
    ask for a total weight."""
    d = rng.randint(1, 6)
    epsilon = rng.randint(0, 1)
    if rng.random() < 0.25:
        mult = Multiplicities(rng.randint(0, d + 1), rng.randint(0, d + 1),
                              rng.randint(0, d + 1))
    else:
        beta1 = rng.randint(0, d)
        mult = Multiplicities(rng.randint(0, d), beta1, rng.randint(0, d - beta1))
    k_min = rng.randint(-8, 6)
    k_max = k_min + rng.randint(0, 14)
    sum_w = None
    if rng.random() < 0.5:
        # Mostly the total of a candidate, so that the filter keeps some;
        # otherwise the total of any size-d multiset in range.
        found = walk_weight_multisets(d, epsilon, mult, k_min, k_max)
        if found and rng.random() < 0.8:
            sum_w = rng.choice(found).weight_sum()
        else:
            sum_w = sum(2 * rng.randint(k_min, k_max) + epsilon for _ in range(d))
    return d, epsilon, mult, k_min, k_max, sum_w


CASES = [random_request(random.Random(f"weights:{i}")) for i in range(300)]
EXPECTED = [walk_weight_multisets(*r) for r in CASES]


def test_cases_cover_the_request_space():
    assert any(r[3] < 0 for r in CASES) and any(r[4] - r[3] == 0 for r in CASES)
    assert any(r[5] is None for r in CASES) and any(r[5] is not None and r[5] < 0
                                                    for r in CASES)
    assert any(r[2].beta1 + r[2].beta2 > r[0] or r[2].alpha > r[0] for r in CASES)
    assert {r[0] for r in CASES} == set(range(1, 7)) and {r[1] for r in CASES} == {0, 1}
    found = [bool(e) for e in EXPECTED]
    assert sum(found) >= 80
    assert sum(f and r[5] is not None for f, r in zip(found, CASES)) >= 20
    assert sum(f and r[3] < 0 for f, r in zip(found, CASES)) >= 20


@pytest.mark.parametrize("case", range(0, len(CASES), 30))
def test_enumeration_matches_the_walk(case):
    for request, expected in zip(CASES[case:case + 30], EXPECTED[case:case + 30]):
        assert enumerate_weight_multisets(*request) == expected, request


def test_small_requests_near_zero_match_the_walk():
    # Every small request whose range starts at or just below k = 0, where
    # the filter for a negative total weight starts to matter.
    for d in range(1, 4):
        for k_min in range(-3, 1):
            for counts in product(range(d + 1), repeat=3):
                mult = Multiplicities(*counts)
                for epsilon in (0, 1):
                    request = (d, epsilon, mult, k_min, k_min + 5)
                    assert enumerate_weight_multisets(*request) == \
                        walk_weight_multisets(*request), request


def test_count_matches_the_walk_before_filtering():
    for d, epsilon, mult, k_min, k_max, _ in CASES[::2]:
        count = count_weight_multisets(d, mult, k_min, k_max)
        assert count == walk_count(d, mult, k_min, k_max)
        if k_min >= 0:  # no total can be negative, so nothing is filtered
            assert count == len(enumerate_weight_multisets(d, epsilon, mult, k_min, k_max))


def test_benchmark_sized_count():
    # d = 8, k in [0, 23]: the walk visits 7.9M multisets to find these.
    assert count_weight_multisets(8, Multiplicities(3, 2, 2), 0, 23) == 87_680


def test_cap_is_checked_before_enumerating(monkeypatch):
    mult = Multiplicities(2, 1, 1)
    count = count_weight_multisets(3, mult, -4, 9)
    assert count > 0
    monkeypatch.setattr(weightcalc, "MAX_CANDIDATES", count)
    assert enumerate_weight_multisets(3, 1, mult, -4, 9) == walk_weight_multisets(3, 1, mult, -4, 9)
    monkeypatch.setattr(weightcalc, "MAX_CANDIDATES", count - 1)
    with pytest.raises(ValueError, match=f"{count} candidate weight multisets.*cap {count - 1}"):
        enumerate_weight_multisets(3, 1, mult, -4, 9)


def test_cap_refuses_a_huge_range_at_once():
    # k = 1 mod 6 in [0, 6 * MAX_CANDIDATES + 1]: one candidate over the cap.
    cap = weightcalc.MAX_CANDIDATES
    mult = Multiplicities(1, 1, 0)
    assert count_weight_multisets(1, mult, 0, 6 * cap + 1) == cap + 1
    with pytest.raises(ValueError, match="above the cap"):
        enumerate_weight_multisets(1, 0, mult, 0, 6 * cap + 1)


def test_preconditions_match_the_walk():
    for args in [(1, 0, Multiplicities(0, 0, 0), 5, 4),
                 (1, 2, Multiplicities(0, 0, 0), 0, 4),
                 (-1, 0, Multiplicities(0, 0, 0), 0, 4)]:
        with pytest.raises(ValueError):
            walk_weight_multisets(*args)
        with pytest.raises(ValueError):
            enumerate_weight_multisets(*args)


@pytest.mark.parametrize("case", range(0, len(CASES), 30))
def test_report_rows_match_the_multiset_layout(case):
    for request, expected in zip(CASES[case:case + 30], EXPECTED[case:case + 30]):
        rows = cli._Candidates(request[1], weightcalc._candidate_ks(*request))
        assert list(rows.text_lines()) == [text_line(ws) for ws in expected], request
        assert list(rows.json_entries()) == [json_entry(json_row(ws)) for ws in expected], request


# -- the Hilbert check without lifting -------------------------------------------

def oracle_check_hilbert_poly(ws: WeightMultiset, rep) -> HilbertCheck:
    """Test a candidate multiset against every trace constraint, exactly."""
    if ws.size != rep.dimension:
        raise ValueError(
            f"multiset size {ws.size} does not match dimension {rep.dimension}"
        )
    if ws.epsilon != rep.epsilon:
        raise ValueError("parity of the multiset does not match the representation")
    mult, data = multiplicities(rep), traces(rep)
    ks = ws.ks
    return HilbertCheck(
        value_at_minus_i=ws.hilbert_value(MINUS_I) == data.s,
        value_at_zeta=ws.hilbert_value(ZETA3) == data.u_inv,
        value_at_zeta_inv=ws.hilbert_value(ZETA3_INV) == data.u,
        count_odd=sum(1 for k in ks if k % 2 == 1) == mult.alpha,
        count_mod3_1=sum(1 for k in ks if k % 3 == 1) == mult.beta1,
        count_mod3_2=sum(1 for k in ks if k % 3 == 2) == mult.beta2,
        weight_sum=ws.weight_sum(),
        weight_sum_nonneg=ws.weight_sum() >= 0,
    )


def _check_outcome(route, ws, rep):
    try:
        return route(ws, rep)
    except (ValueError, RepValidationError) as exc:
        return type(exc), str(exc)


def _hilbert_multisets(rep) -> list[WeightMultiset]:
    """Every candidate with k in [0, 5] (none when the traces are
    inconsistent), then multisets that break the counts, the values, the
    size and the parity."""
    d, eps = rep.dimension, rep.epsilon
    try:
        found = enumerate_weight_multisets(d, eps, multiplicities(rep), 0, 5)
    except RepValidationError:
        found = []
    return found + [WeightMultiset(eps, (0,) * d), WeightMultiset(eps, tuple(range(d))),
                    WeightMultiset(eps, (6,) * d), WeightMultiset(eps, (0,) * (d + 1)),
                    WeightMultiset(1 - eps, (0,) * d)]


def test_hilbert_check_matches_the_lifting_route():
    reps = [_rep(key) for key in sorted(RECORDS)] + list(_derived())
    flipped = [RepSpec(rep.name, rep.dimension, rep.order, rep.s, rep.t, 1 - rep.epsilon, rep.rho_u)
               for rep in reps]
    kinds, checks = set(), 0
    for rep in reps + flipped:
        for ws in _hilbert_multisets(rep):
            got = _check_outcome(check_hilbert_poly, ws, rep)
            assert got == _check_outcome(oracle_check_hilbert_poly, ws, rep), (rep.name, ws)
            kinds.add(got.passed if isinstance(got, HilbertCheck) else got[0])
            checks += 1
    assert kinds == {True, False, ValueError, RepValidationError}
    assert checks > 1000


def test_hilbert_check_over_fields_past_the_lift():
    # Even over Q(zeta_280) and odd over Q(zeta_35): the lifting route needs
    # order lcm(280, 12) = 840 and lcm(35, 12) = 420.
    # A rational P(z) compares without the lift.
    raised = {}
    for rows, order in ((EVEN_2, 280), (DEFINING, 35)):
        conj, plain = _conjugated(rows, order), make_rep("plain", *rows)
        assert conj.order == order
        results = set()
        for ws in _hilbert_multisets(plain):
            got = _check_outcome(check_hilbert_poly, ws, conj)
            assert got == _check_outcome(check_hilbert_poly, ws, plain) == \
                _check_outcome(oracle_check_hilbert_poly, ws, plain), (order, ws)
            results.add(got.passed if isinstance(got, HilbertCheck) else got[0])
            lifted = _check_outcome(oracle_check_hilbert_poly, ws, conj)
            if isinstance(lifted, tuple) and "exceeds the supported bound" in lifted[1]:
                raised[order] = raised.get(order, 0) + 1
            else:
                assert lifted == got, (order, ws)
        assert results == {True, False, ValueError}, order
    assert raised == {280: 4, 35: 5}


# -- the total weight fixes the last class's k ------------------------------------

def oracle_candidate_ks(d: int, epsilon: int, mult: Multiplicities, k_min: int,
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
    count = weightcalc.count_weight_multisets(d, mult, k_min, k_max)
    if count > weightcalc.MAX_CANDIDATES:
        raise ValueError(
            f"{count} candidate weight multisets for k in [{k_min}, {k_max}], "
            f"above the cap {weightcalc.MAX_CANDIDATES}; narrow the k range")
    pools = weightcalc._class_pools(k_min, k_max)
    out = []
    for ns in weightcalc._class_counts(d, mult):
        # The classes in use; a class with one k walks its range lazily,
        # so a wide range costs no memory.
        picks = [zip(pool) if n == 1 else combinations_with_replacement(pool, n)
                 for pool, n in zip(pools, ns) if n]
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


def total_request(rng: random.Random) -> tuple:
    """(d, epsilon, mult, k_min, k_max, sum_w) with a total weight that is
    mostly a candidate's, else odd for the parity, negative, or past any
    multiset in range."""
    d = rng.randint(0, 5)
    epsilon = rng.randint(0, 1)
    beta1 = rng.randint(0, d)
    mult = Multiplicities(rng.randint(0, d), beta1, rng.randint(0, d - beta1))
    k_min = rng.randint(-10, 6)
    k_max = k_min + rng.randint(0, 16)
    found = oracle_candidate_ks(d, epsilon, mult, k_min, k_max, None)
    kind = rng.choice(["found", "found", "odd", "negative", "unreachable", "any"])
    if kind == "found" and found:
        sum_w = 2 * sum(rng.choice(found)) + d * epsilon
    elif kind == "odd":
        sum_w = 2 * rng.randint(-20, 40) + d * epsilon + 1
    elif kind == "negative":
        sum_w = -rng.randint(1, 30)
    elif kind == "unreachable":
        sum_w = 2 * d * k_max + d * epsilon + 2 * rng.randint(1, 9)
    else:
        sum_w = sum(2 * rng.randint(k_min, k_max) + epsilon for _ in range(d))
    return d, epsilon, mult, k_min, k_max, sum_w


TOTAL_CASES = [total_request(random.Random(f"totals:{i}")) for i in range(400)]


def _ks_outcome(route, request):
    try:
        return route(*request)
    except ValueError as exc:
        return ValueError, str(exc)


def test_fixed_total_matches_the_walk():
    kept = 0
    for request in TOTAL_CASES:
        got = _ks_outcome(weightcalc._candidate_ks, request)
        assert got == _ks_outcome(oracle_candidate_ks, request), request
        kept += bool(got)
    assert kept >= 100
    assert any(r[5] < 0 for r in TOTAL_CASES) and any(r[3] < 0 for r in TOTAL_CASES)
    assert any((r[5] - r[0] * r[1]) % 2 for r in TOTAL_CASES)
    # Most requests have a class distribution whose last class holds one k.
    assert sum(any([n for n in ns if n][-1:] == [1] for ns in weightcalc._class_counts(r[0], r[2]))
               for r in TOTAL_CASES) >= 200


def test_fixed_total_over_a_wide_class():
    # kappa^2: one k = 0 mod 6 in [0, 2900000], 483,334 candidates, one of
    # total weight 2000006; and a pair of classes with a negative k_min.
    mult = multiplicities(linear_character(2))
    for request in [(1, 0, mult, 0, 2_900_000, 2_000_006),
                    (1, 0, mult, 0, 2_900_000, 2_000_004),
                    (2, 1, Multiplicities(1, 1, 1), -300, 400, 101)]:
        assert weightcalc._candidate_ks(*request) == oracle_candidate_ks(*request), request

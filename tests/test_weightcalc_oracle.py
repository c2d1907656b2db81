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
"""

import json
import random
from itertools import combinations_with_replacement, product

import pytest

from vvmf import cli, weightcalc
from vvmf.replib import Multiplicities
from vvmf.weightcalc import (WeightMultiset, count_weight_multisets,
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
        oracle_rows = [json_row(ws) for ws in expected]
        assert list(rows) == oracle_rows, request
        assert list(rows.json_entries()) == [json_entry(r) for r in oracle_rows], request

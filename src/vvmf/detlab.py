"""Determinants of generating sets of vector-valued forms.

The exterior product of d vector-valued forms is the determinant of the
matrix whose columns are their q-expansions.  For a free generating set of
the weight-n weakly holomorphic module its normalization (leading
coefficient 1) is an invariant of the representation; this module computes
that invariant two independent ways and checks the identities relating
determinants across weights.
"""

from __future__ import annotations

from itertools import combinations

from .errors import PrecisionError
from .exactfield import CycNumber, _read_int, _Record
from .qseries import QSeries
from .replib import RepSpec, _counts, traces
from .scalarforms import e4_e6_delta, gen_form


class FormVector(_Record):
    """One vector-valued form: a weight and its d coordinate q-expansions."""

    __slots__ = ("weight", "components")

    @staticmethod
    def make(weight: int, components) -> FormVector:
        return FormVector(int(weight), tuple(components))

    def to_record(self) -> dict:
        return {"weight": self.weight,
                "components": [c.to_record() for c in self.components]}

    @staticmethod
    def from_record(record: dict) -> FormVector:
        # A component may be a QSeries already, read by series_hook.
        return FormVector(_read_int(record["weight"]),
                          tuple(c if isinstance(c, QSeries) else QSeries.from_record(c)
                                for c in record["components"]))


def generators_to_record(rep_name: str, vectors) -> dict:
    vectors = list(vectors)
    return {
        "rep_name": rep_name,
        "dimension": len(vectors),
        "generators": [v.to_record() for v in vectors],
    }


_SERIES_KEYS = frozenset(("grid", "lead", "valid_to", "coeffs"))


def series_hook(obj: dict):
    """A ``json`` object hook: each series record becomes its QSeries as the
    decoder closes it, so at most one series' coefficient records are alive
    at a time.  Any other object is kept as it is."""
    return QSeries.from_record(obj) if obj.keys() >= _SERIES_KEYS else obj


def generators_from_record(record: dict) -> tuple[str, list[FormVector]]:
    vectors = [FormVector.from_record(g) for g in record["generators"]]
    declared = record.get("dimension")
    if declared is not None and _read_int(declared) != len(vectors):
        raise ValueError("declared dimension does not match the generator count")
    return str(record.get("rep_name", "rep")), vectors


class ExteriorProductResult(_Record):
    """A determinant, its leading coefficient and the determinant divided by it."""

    __slots__ = ("determinant", "leading_coefficient", "normalized")


def exterior_product(vectors) -> ExteriorProductResult:
    """Determinant of the square system of form vectors, with its leading
    coefficient split off.

    Raises PrecisionError when the determinant has no nonzero coefficient
    inside its validity window: truncation can mask cancellation, so a
    silent verdict would be untrustworthy there.
    """
    vectors = list(vectors)
    d = len(vectors)
    if d == 0:
        raise ValueError("need at least one form vector")
    if any(len(v.components) != d for v in vectors):
        raise ValueError("system must be square: d vectors with d components each")
    return _split_lead(_determinant([[vectors[j].components[i] for j in range(d)]
                                     for i in range(d)]))


def _split_lead(det: QSeries) -> ExteriorProductResult:
    if det.is_zero():
        raise PrecisionError(
            "determinant indistinguishable from zero through the validity "
            "window; increase the order or the generators are dependent"
        )
    k = det.leading_coefficient()
    return ExteriorProductResult(det, k, det / k)


def _determinant(m: list[list[QSeries]]) -> QSeries:
    """Cofactor expansion, one row at a time: after row r, ``minors`` maps
    each set of r + 1 columns (a bit mask) to the minor on rows 0..r and
    those columns, each expanded along its row r into the minors of row r - 1.

    Zero entries are multiplied through rather than skipped, so the validity
    window of the result stays conservative.
    """
    d = len(m)
    minors = {1 << j: x for j, x in enumerate(m[0])}
    for r in range(1, d):
        below = {}
        for cols in combinations(range(d), r + 1):
            mask = sum(1 << j for j in cols)
            acc = None
            for idx, j in enumerate(cols):
                term = m[r][j] * minors[mask ^ (1 << j)]
                if (r + idx) % 2:
                    term = -term
                acc = term if acc is None else acc + term
            below[mask] = acc
        minors = below
    return minors[(1 << d) - 1]


def det_zero(rep: RepSpec, order: int) -> QSeries:
    """Normalized determinant of a weight-0 weakly holomorphic generating
    set, straight from the eigenvalue multiplicities of an even
    representation: (E4/delta^4)^(beta1+2*beta2) * (E6/delta^6)^alpha.
    """
    if rep.epsilon != 0:
        raise ValueError("the determinant base form needs an even representation")
    return det_n(rep, 0, order)


def det_n(rep: RepSpec, n: int, order: int) -> QSeries:
    """Normalized generating-set determinant in weight class n, reduced to
    the even weight-0 case through the weight-shifting twist:
    delta^(n*d) * det_zero(rep twisted by -n), with the twist's
    multiplicities read off ``traces(rep)``; no matrix is twisted.
    """
    if (n - rep.epsilon) % 2 != 0:
        raise ValueError(
            f"weight class {n} does not match the parity {rep.epsilon} "
            "of the representation"
        )
    mult = _counts(traces(rep), rep.dimension, -n)
    a = mult.beta1 + 2 * mult.beta2
    return e4_e6_delta(a, mult.alpha, n * rep.dimension - 4 * a - 6 * mult.alpha, order)


def weak_generating_set(vectors, ks, n: int, order: int) -> list[FormVector]:
    """Push a free holomorphic generating set to weight class n: multiply
    the i-th generator by the scalar generator of weight 2(n - k_i).

    The result freely generates the weakly holomorphic forms of weight
    2n + epsilon over the weight-0 scalar ring.
    """
    vectors = list(vectors)
    ks = list(ks)
    eps = _common_parity(vectors, ks)
    out = []
    for v, k in zip(vectors, ks):
        f = gen_form(n - k, order)
        out.append(FormVector(2 * n + eps,
                              tuple(f * c for c in v.components)))
    return out


def shifted_exterior_product(ext: ExteriorProductResult, vectors, ks, n: int,
                             order: int) -> ExteriorProductResult:
    """The exterior product of ``weak_generating_set(vectors, ks, n, order)``,
    given ``ext``, the exterior product of ``vectors``.

    Column i of the weak set is column i of the generators times the scalar
    form f_(n-k_i), so by multilinearity its determinant is
    ext.determinant * prod f_(n-k_i): d series products, not a second
    cofactor expansion.  Same checks and errors as the two-step route.
    """
    vectors, ks = list(vectors), list(ks)
    _common_parity(vectors, ks)
    det = ext.determinant
    for k in ks:
        det = det * gen_form(n - k, order)
    return _split_lead(det)


def _common_parity(vectors: list[FormVector], ks: list[int]) -> int:
    """The epsilon with weight = 2*k + epsilon for every generator."""
    if len(vectors) != len(ks):
        raise ValueError("need one normalized weight per generator")
    eps = None
    for v, k in zip(vectors, ks):
        e = v.weight - 2 * k
        if e not in (0, 1) or (eps is not None and e != eps):
            raise ValueError(
                f"weight {v.weight} is not 2*{k} + epsilon for a common parity"
            )
        eps = e
    return eps


class GeneratorDeterminantReport(_Record):
    """Outcome of the generating-set determinant identity check; true when
    it passed."""

    __slots__ = ("determinant_matches", "weight_sum", "weight_sum_nonneg", "exterior")

    @property
    def leading_coefficient(self) -> CycNumber:
        return self.exterior.leading_coefficient

    @property
    def passed(self) -> bool:
        return self.determinant_matches and self.weight_sum_nonneg

    def __bool__(self) -> bool:
        return self.passed


def check_generator_determinant(vectors, weights, order: int) -> GeneratorDeterminantReport:
    """Verify that the exterior product of a free generating set is a
    constant times delta^(sum of the declared weights), and report the
    non-negativity of that sum separately.
    """
    vectors = list(vectors)
    weights = [int(w) for w in weights]
    if len(vectors) != len(weights):
        raise ValueError("need one declared weight per generator")
    ext = exterior_product(vectors)
    total = sum(weights)
    return GeneratorDeterminantReport(
        determinant_matches=ext.normalized.agrees_with(e4_e6_delta(0, 0, total, order)),
        weight_sum=total,
        weight_sum_nonneg=total >= 0,
        exterior=ext,
    )

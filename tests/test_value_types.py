"""How the package's fourteen value types behave as values.

For each type: its ``repr``, ``==`` between equal and unequal values (for
``CycNumber`` also across cyclotomic orders), its hash (that of the tuple of
its fields, its identity, or the ``TypeError`` of an unhashable type), its
truth value, and that assigning to a field, or to any other attribute,
raises ``AttributeError`` and leaves the value as it was.  Copies and
pickles give the same value.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from vvmf.detlab import (ExteriorProductResult, FormVector, GeneratorDeterminantReport,
                         check_generator_determinant, exterior_product)
from vvmf.exactfield import CycNumber, root_of_unity
from vvmf.qseries import QSeries
from vvmf.replib import Multiplicities, RepSpec, TraceData, linear_character, traces
from vvmf.scalarforms import RemainderTriple, eta_squared, remainders
from vvmf.suites import CaseResult, SuiteResult
from vvmf.weightcalc import (HilbertCheck, WeightMultiset, WeightProfile, check_hilbert_poly,
                             weight_profile)

SERIES = "QSeries(grid=12, lead=1, valid_to=3, q^(1/12) - 24*q^(1/6))"
EXTERIOR = (f"ExteriorProductResult(determinant={SERIES}, leading_coefficient=CycNumber(1, 1), "
            f"normalized={SERIES})")


def _series(scale=1):
    return QSeries.from_coeffs([scale, -24 * scale], lead=1, grid=12)


def _vector(weight=2):
    return FormVector.make(weight, [_series()])


# type: (a value, an unequal value, its repr, its hash: "fields" the hash of
# the tuple of its fields, "id" by identity, None unhashable; its truth value)
CASES = {
    CycNumber: (lambda: CycNumber.make(12, [0, 1, 0, "1/2"]),
                lambda: CycNumber.make(12, [0, 1, 0, "1/3"]),
                "CycNumber(12, z12 + 1/2*z12^3)", None, True),
    QSeries: (_series, lambda: _series(2), SERIES, None, True),
    RepSpec: (lambda: linear_character(2), lambda: linear_character(4),
              "RepSpec(name='kappa^2', dimension=1, order=12, s=((CycNumber(1, -1),),), "
              "t=((CycNumber(12, z12^2),),), epsilon=0, rho_u=((CycNumber(12, -1 + z12^2),),))",
              "id", True),
    WeightMultiset: (lambda: WeightMultiset(0, (3, 1)), lambda: WeightMultiset(1, (1, 3)),
                     "WeightMultiset(epsilon=0, ks=(1, 3))", "fields", True),
    RemainderTriple: (lambda: remainders(1), lambda: remainders(2),
                      "RemainderTriple(r2=1, r3=2, r_inf=-1)", "fields", True),
    TraceData: (lambda: traces(linear_character(2)), lambda: traces(linear_character(4)),
                "TraceData(s=CycNumber(1, -1), u=CycNumber(12, -1 + z12^2), "
                "u_inv=CycNumber(12, -z12^2))", None, True),
    Multiplicities: (lambda: Multiplicities(1, 1, 1), lambda: Multiplicities(1, 1, 0),
                     "Multiplicities(alpha=1, beta1=1, beta2=1)", "fields", True),
    FormVector: (_vector, lambda: _vector(4), f"FormVector(weight=2, components=({SERIES},))",
                 None, True),
    ExteriorProductResult: (lambda: exterior_product([_vector()]),
                            lambda: exterior_product([FormVector.make(2, [_series(2)])]),
                            EXTERIOR, None, True),
    GeneratorDeterminantReport: (
        lambda: check_generator_determinant([_vector()], [1], 16),
        lambda: check_generator_determinant([_vector()], [2], 16),
        f"GeneratorDeterminantReport(determinant_matches=False, weight_sum=1, "
        f"weight_sum_nonneg=True, exterior={EXTERIOR})", None, False),
    WeightProfile: (lambda: weight_profile(linear_character(2)),
                    lambda: weight_profile(linear_character(4)),
                    "WeightProfile(count_k_odd=1, count_k_mod3_1=1, count_k_mod3_2=0, "
                    "at_minus_i=CycNumber(1, -1), at_zeta=CycNumber(12, -z12^2), "
                    "at_zeta_inv=CycNumber(12, -1 + z12^2))", None, True),
    HilbertCheck: (lambda: check_hilbert_poly(WeightMultiset(0, (1,)), linear_character(2)),
                   lambda: check_hilbert_poly(WeightMultiset(0, (0,)), linear_character(2)),
                   "HilbertCheck(value_at_minus_i=True, value_at_zeta=True, "
                   "value_at_zeta_inv=True, count_odd=True, count_mod3_1=True, "
                   "count_mod3_2=True, weight_sum=2, weight_sum_nonneg=True)",
                   "fields", True),
    CaseResult: (lambda: CaseResult("a", True), lambda: CaseResult("a", False, "why"),
                 "CaseResult(case_id='a', passed=True, detail='')", "fields", True),
    SuiteResult: (lambda: SuiteResult("kappa", 8, 0, (CaseResult("a", True),)),
                  lambda: SuiteResult("kappa", 8, 1, (CaseResult("a", True),)),
                  "SuiteResult(suite='kappa', order=8, seed=0, "
                  "cases=(CaseResult(case_id='a', passed=True, detail=''),))",
                  "fields", True),
}

TYPES = pytest.mark.parametrize("kind", CASES, ids=lambda kind: kind.__name__)


def test_every_type_is_pinned():
    assert len(CASES) == len(FIELDS) == 14


@TYPES
def test_repr(kind):
    make, _, text, _, _ = CASES[kind]
    assert type(make()) is kind and repr(make()) == text


@TYPES
def test_equality(kind):
    make, other, _, hashed, _ = CASES[kind]
    a, b = make(), make()
    assert a == a and not a != a  # noqa: PLR0124
    # RepSpec compares by identity, so two equal validations are unequal.
    assert (a == b, a != b) == ((False, True) if hashed == "id" else (True, False))
    assert a != other() and not a == other()


def test_cyclotomic_equality_spans_orders():
    assert CycNumber(1, (3,)) == CycNumber(12, (3, 0, 0, 0)) == 3
    assert CycNumber.make(4, [0, 1]) == root_of_unity(12, 3) != root_of_unity(12, 9)
    assert CycNumber.make(3, [0, 1]) != CycNumber.make(4, [0, 1])


@TYPES
def test_hash(kind):
    make, _, _, hashed, _ = CASES[kind]
    value = make()
    if hashed is None:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    elif hashed == "id":
        assert hash(value) == object.__hash__(value)
    else:
        assert hash(value) == hash(tuple(getattr(value, f) for f in FIELDS[kind].split()))


@TYPES
def test_truth_value(kind):
    make, other, _, _, truth = CASES[kind]
    assert bool(make()) is truth
    # Only the two reports are false when a check fails.
    assert bool(other()) is (kind not in (HilbertCheck, GeneratorDeterminantReport))


def test_zero_values_are_true():
    assert bool(CycNumber.zero()) and bool(QSeries.zero(4))
    eta = FormVector.make(1, [eta_squared(16)])
    assert bool(check_generator_determinant([eta], [1], 16))


FIELDS = {
    CycNumber: "order num den", QSeries: "grid lead valid_to step order den nums orders",
    RepSpec: "name dimension order s t epsilon rho_u", WeightMultiset: "epsilon ks",
    RemainderTriple: "r2 r3 r_inf", TraceData: "s u u_inv", Multiplicities: "alpha beta1 beta2",
    FormVector: "weight components",
    ExteriorProductResult: "determinant leading_coefficient normalized",
    GeneratorDeterminantReport: "determinant_matches weight_sum weight_sum_nonneg exterior",
    WeightProfile: "count_k_odd count_k_mod3_1 count_k_mod3_2 at_minus_i at_zeta at_zeta_inv",
    HilbertCheck: "value_at_minus_i value_at_zeta value_at_zeta_inv count_odd count_mod3_1 "
                  "count_mod3_2 weight_sum weight_sum_nonneg",
    CaseResult: "case_id passed detail", SuiteResult: "suite order seed cases",
}


@TYPES
def test_fields_are_read_only(kind):
    make, _, text, _, _ = CASES[kind]
    value = make()
    for name in FIELDS[kind].split():
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    assert repr(value) == text


@TYPES
def test_no_other_attribute_can_be_set(kind):
    # A frozen dataclass with slots raised TypeError here instead (its
    # __setattr__ called super() with the class that slots had replaced).
    value = CASES[kind][0]()
    with pytest.raises(AttributeError):
        value.extra = 0


def test_constructors_normalise():
    assert (CycNumber(4, (2, 4), 2).num, CycNumber(4, (2, 4), 2).den) == ((1, 2), 1)
    x = CycNumber(4, (Fraction(1, 2), Fraction(-1, 3)))
    assert (x.num, x.den) == ((3, -2), 6)
    y = CycNumber(3, (2, 0), -4)
    assert (y.num, y.den) == ((-1, 0), 2)
    assert WeightMultiset(1, [5, 0, 2]).ks == (0, 2, 5)
    assert Multiplicities(1, 0, 2) + Multiplicities(0, 3, 1) == Multiplicities(1, 3, 3)
    assert QSeries(1, 0, 2, 1, 1, 1, (1, 2)).orders is None


def test_coordinates_are_stored_as_a_tuple_whatever_they_are_given_as():
    for num in ([1, 2], (1, 2), [Fraction(1), 2]):
        x = CycNumber(4, num)
        assert type(x.num) is tuple and x == CycNumber(4, (1, 2)) and x.num == (1, 2)
    assert CycNumber(4, [1, 2]) == CycNumber(4, (1, 2)) == CycNumber(4, [2, 4], 2)
    assert CycNumber(4, [1, 2]) - CycNumber(4, (1, 2)) == 0
    coords = (1, 2, 0, 5)
    assert CycNumber(12, coords).num is coords  # a tuple is kept, not copied


@TYPES
def test_copies_and_pickles_are_the_same_value(kind):
    value = CASES[kind][0]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is kind and repr(twin) == repr(value)
        assert twin == value or kind is RepSpec


def test_records_take_each_field_once_by_position_or_name():
    assert Multiplicities(1, beta2=3, beta1=2) == Multiplicities(alpha=1, beta1=2, beta2=3)
    assert CaseResult("a", True) == CaseResult("a", True, "") == CaseResult(passed=True, case_id="a")
    for args, kwargs in [((1, 2), {}), ((1, 2, 3, 4), {}), ((1, 2), {"alpha": 3}),
                         ((), {"alpha": 1, "beta2": 2}), ((1, 2, 3), {"gamma": 4})]:
        with pytest.raises(TypeError):
            Multiplicities(*args, **kwargs)

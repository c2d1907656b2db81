"""Exact-arithmetic toolkit for vector-valued modular forms.

Builds classical scalar forms as exact q-expansions, validates matrix
representations of the modular group, and evaluates the trace constraints
that pin down the weight distribution of free generating sets.
"""

from .errors import ConsistencyError, PrecisionError, RepValidationError, VvmfError
from .exactfield import CycNumber, cyclotomic_polynomial, euler_phi, root_of_unity
from .qseries import QSeries
from .scalarforms import (RemainderTriple, count_congruent, discriminant,
                          divisor_power_sum, eisenstein, eta_squared,
                          gen_form, hauptmodul, named_form, remainder_carry,
                          remainders, verify_gen_product)
from .replib import (Multiplicities, RepSpec, TraceData, direct_sum,
                     linear_character, load_rep, make_rep, matrices_equal,
                     multiplicities, split_by_parity, t_is_semisimple,
                     traces, twist)
from .weightcalc import (HilbertCheck, WeightMultiset, WeightProfile,
                         check_hilbert_poly, dimension_series,
                         enumerate_weight_multisets, weight_profile)
from .detlab import (ExteriorProductResult, FormVector, GeneratorDeterminantReport,
                     check_generator_determinant, det_n, det_zero,
                     exterior_product, generators_from_record,
                     generators_to_record, shifted_exterior_product,
                     weak_generating_set)
from .suites import CaseResult, SuiteResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "CaseResult", "ConsistencyError", "CycNumber", "ExteriorProductResult",
    "FormVector", "GeneratorDeterminantReport", "HilbertCheck",
    "Multiplicities",
    "PrecisionError", "QSeries", "RemainderTriple", "RepSpec",
    "RepValidationError", "SuiteResult", "TraceData", "VvmfError",
    "WeightMultiset", "WeightProfile", "check_generator_determinant",
    "check_hilbert_poly", "count_congruent", "cyclotomic_polynomial",
    "det_n", "det_zero", "dimension_series", "direct_sum", "discriminant",
    "divisor_power_sum", "eisenstein", "enumerate_weight_multisets",
    "eta_squared", "euler_phi", "exterior_product", "gen_form",
    "generators_from_record", "generators_to_record", "hauptmodul",
    "linear_character", "load_rep", "make_rep", "matrices_equal",
    "multiplicities", "named_form", "remainder_carry", "remainders",
    "root_of_unity", "run_suite", "shifted_exterior_product", "split_by_parity",
    "t_is_semisimple",
    "traces", "twist", "verify_gen_product",
    "weak_generating_set", "weight_profile",
]

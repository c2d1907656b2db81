"""Exact-arithmetic toolkit for vector-valued modular forms.

Builds classical scalar forms as exact q-expansions, validates matrix
representations of the modular group, and evaluates the trace constraints
that pin down the weight distribution of free generating sets.

``import vvmf`` loads none of the modules below: each public name is looked
up in its module on first access (PEP 562), so a command-line run compiles
only the modules its subcommand uses.
"""

import importlib

__version__ = "0.1.0"

# The suites of ``vvmf verify``, here so that the command-line parser can
# offer them without loading ``vvmf.suites``.
SUITE_NAMES = ("scalar", "counting", "kappa", "sums", "det")

_EXPORTS = {
    "errors": ("ConsistencyError", "PrecisionError", "RepValidationError", "VvmfError"),
    "exactfield": ("CycNumber", "cyclotomic_polynomial", "euler_phi", "root_of_unity"),
    "qseries": ("QSeries",),
    "scalarforms": ("RemainderTriple", "count_congruent", "discriminant",
                    "divisor_power_sum", "eisenstein", "eta_squared", "gen_form",
                    "hauptmodul", "named_form", "remainder_carry", "remainders"),
    "replib": ("Multiplicities", "RepSpec", "TraceData", "direct_sum", "linear_character",
               "load_rep", "make_rep", "multiplicities", "t_is_semisimple", "traces"),
    "weightcalc": ("HilbertCheck", "WeightMultiset", "WeightProfile", "check_hilbert_poly",
                   "dimension_series", "enumerate_weight_multisets", "weight_profile"),
    "detlab": ("ExteriorProductResult", "FormVector", "GeneratorDeterminantReport",
               "check_generator_determinant", "det_n", "det_zero", "exterior_product",
               "generators_from_record", "generators_to_record",
               "shifted_exterior_product", "weak_generating_set"),
    "suites": ("CaseResult", "SuiteResult", "run_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

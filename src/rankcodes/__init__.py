"""Exact construction and analysis of rank-metric codes over F_{q^m}:
generalized rank weights, MRD certificates, rank equivalences, and coset
coding leakage for secure network coding.

Importing the package loads none of its modules: each public name, and
each module, is imported on first access, so a process loads only the
code it uses.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "errors": ("BudgetError", "CodeFileError", "HypothesisError"),
    "field": ("FieldTower", "check_irreducible", "default_modulus"),
    "linalg": (),
    "rankmetric": ("GaloisClosedSpace", "galois_closure", "matrix_rep", "rank_weight",
                   "vector_trace"),
    "codes": ("LinearCode", "MrdPlan", "Reduction",
              "build_c_opt", "build_mrd_reducible", "cartesian", "dual_reduction",
              "exact_reduction_for_d1", "format_code_file", "gabidulin", "mrd_plan",
              "parse_code_file", "plotkin_variant", "reducible", "transform_reduction",
              "transposed_gabidulin"),
    "grw": ("GrwReport", "grw_bounds_reducible", "grw_estimates_mrd", "grw_report_exact",
            "grw_table_exact", "is_degenerate", "mrd_rank", "mrd_rank_bounds", "singleton_check"),
    "equivalence": ("RankEquivalenceMap", "exact_product_test", "product_characterization",
                    "to_c_opt"),
    "wiretap": ("LeakageReport", "composition_search", "leakage_exact"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_MODULE_OF))

"""Exact construction and analysis of rank-metric codes over F_{q^m}:
generalized rank weights, MRD certificates, rank equivalences, and coset
coding leakage for secure network coding."""

from . import codes, equivalence, errors, field, grw, linalg, rankmetric, wiretap  # noqa: F401
from .errors import BudgetError, CodeFileError, HypothesisError
from .field import FieldTower, check_irreducible, default_modulus
from .rankmetric import (GaloisClosedSpace, galois_closure, matrix_rep,
                         rank_weight, vector_trace)
from .codes import (DualReduction, LinearCode, MrdPlan, Reduction,
                    build_c_opt, build_mrd_reducible, cartesian,
                    dual_reduction, exact_reduction_for_d1, format_code_file,
                    gabidulin, mrd_plan, parse_code_file, plotkin_variant,
                    reducible, transform_reduction, transposed_gabidulin)
from .grw import (GrwReport, decompose_by_blocks, dual_grw_upper,
                  grw_bounds_reducible, grw_estimates_mrd,
                  grw_exact_closed_spaces, grw_exact_subcodes,
                  grw_report_exact, grw_table_exact, is_degenerate,
                  mrd_rank, mrd_rank_bounds, singleton_check)
from .equivalence import (RankEquivalenceMap, exact_product_test,
                          product_characterization,
                          reduction_equivalence_invariants, to_c_opt)
from .wiretap import (LeakageReport, composition_search, leakage_exact,
                      stronger_security_bound)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "CodeFileError", "HypothesisError",
    "FieldTower", "check_irreducible", "default_modulus",
    "GaloisClosedSpace", "galois_closure", "matrix_rep", "rank_weight",
    "vector_trace",
    "DualReduction", "LinearCode", "MrdPlan", "Reduction",
    "build_c_opt", "build_mrd_reducible", "cartesian", "dual_reduction",
    "exact_reduction_for_d1", "format_code_file", "gabidulin", "mrd_plan",
    "parse_code_file", "plotkin_variant", "reducible", "transform_reduction",
    "transposed_gabidulin",
    "GrwReport", "decompose_by_blocks", "dual_grw_upper",
    "grw_bounds_reducible", "grw_estimates_mrd", "grw_exact_closed_spaces",
    "grw_exact_subcodes", "grw_report_exact", "grw_table_exact",
    "is_degenerate", "mrd_rank", "mrd_rank_bounds", "singleton_check",
    "RankEquivalenceMap", "exact_product_test", "product_characterization",
    "reduction_equivalence_invariants", "to_c_opt",
    "LeakageReport", "composition_search", "leakage_exact",
    "stronger_security_bound",
]

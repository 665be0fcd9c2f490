"""Exact integer polynomial arithmetic, trace polynomials and real roots."""

from .poly import (
    CYCLOTOMIC_TAG,
    OTHER_TAG,
    SALEM_TAG,
    FactorList,
    IntPoly,
    classify_product,
    cyclotomic,
    cyclotomic_indices_up_to_degree,
    cyclotomic_trace,
    euler_phi,
    is_unramified,
    newton_power_sum,
    pair_from_trace,
    pair_power,
    palindrome_class,
    palindromic_expand,
    poly_gcd,
    resultant,
    resultant_relation,
    squarefree_decomposition,
    totient_degree,
    trace_poly,
    trace_polynomial_pair,
)
from .roots import (
    AlgebraicReal,
    is_salem_trace,
    isolate_real_roots,
    sturm_root_count,
)
from .atoms import (
    lehmer,
    lehmer_nf,
    lehmer_trace,
    salem_deg22,
    salem_m,
    salem_trace_deg11,
    salem_trace_mt,
    salem_trace_nt,
)
from .parse import ParseError, parse_poly

__all__ = [
    "IntPoly", "FactorList", "AlgebraicReal", "ParseError",
    "CYCLOTOMIC_TAG", "SALEM_TAG", "OTHER_TAG",
    "classify_product", "cyclotomic", "cyclotomic_indices_up_to_degree",
    "cyclotomic_trace", "euler_phi", "is_unramified", "newton_power_sum",
    "pair_from_trace", "pair_power", "palindrome_class", "palindromic_expand",
    "poly_gcd", "resultant", "resultant_relation", "squarefree_decomposition",
    "totient_degree", "trace_poly", "trace_polynomial_pair",
    "is_salem_trace", "isolate_real_roots",
    "sturm_root_count", "lehmer", "lehmer_nf", "lehmer_trace", "salem_deg22",
    "salem_m", "salem_trace_deg11", "salem_trace_mt", "salem_trace_nt",
    "parse_poly",
]

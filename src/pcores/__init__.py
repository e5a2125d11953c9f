"""Exact p-core partition counts, circle-method asymptotics, and
machine verification of the identities connecting them."""

from .arith import (bernoulli_number, bernoulli_poly, dedekind_sum,
                    divisors, is_prime, legendre_symbol, mobius,
                    ramanujan_sum, sawtooth)
from .asympt import (ApproxReport, ConjectureReport, CpReport,
                     DirichletSeriesReport, DivisibilityReport,
                     TransformCase, TransformReport, TrigIdentityReport,
                     approx_divisor_sum, approx_singular_series,
                     bernoulli_char_sum, class_number, cotangent_char_sum,
                     cotangent_char_sum_raw, divisibility_scan, exp_sum,
                     leading_constant, leading_constant_report,
                     quadratic_sawtooth_sum, singular_term,
                     verify_dedekind_parity, verify_dirichlet_series,
                     verify_eta_transform, verify_quadratic_trig_identity,
                     verify_ramanujan_identity)
from .fourier import (DftReport, GridFunction, TableReport,
                      check_bernoulli_row, check_legendre_row,
                      check_zeta_row, dft, grid_function, inner_product,
                      verify_transform_table)
from .precision import (DEFAULT_PRECISION, PrecisionConfig, PrecisionError,
                        SnappedInteger, VerificationError, snap_integer)
from .series import (PowerSeries, euler_series, eta_quotient_value,
                     partition_series, pcore_count, pcore_count_bruteforce,
                     pcore_series)
from .special import (cot_derivative, cot_polynomial, hurwitz_zeta,
                      hurwitz_zeta_neg, periodic_zeta)

__version__ = "0.1.0"

__all__ = [
    "ApproxReport", "ConjectureReport", "CpReport", "DEFAULT_PRECISION",
    "DftReport", "DirichletSeriesReport", "DivisibilityReport",
    "GridFunction", "PowerSeries", "PrecisionConfig", "PrecisionError",
    "SnappedInteger", "TableReport", "TransformCase", "TransformReport",
    "TrigIdentityReport", "VerificationError", "approx_divisor_sum",
    "approx_singular_series", "bernoulli_char_sum", "bernoulli_number",
    "bernoulli_poly", "check_bernoulli_row", "check_legendre_row",
    "check_zeta_row", "class_number", "cot_derivative", "cot_polynomial",
    "cotangent_char_sum", "cotangent_char_sum_raw", "dedekind_sum", "dft",
    "divisibility_scan", "divisors",
    "euler_series", "eta_quotient_value", "exp_sum", "grid_function",
    "hurwitz_zeta", "hurwitz_zeta_neg", "inner_product", "is_prime",
    "leading_constant", "leading_constant_report", "legendre_symbol",
    "mobius", "partition_series", "pcore_count", "pcore_count_bruteforce",
    "pcore_series", "periodic_zeta", "quadratic_sawtooth_sum",
    "ramanujan_sum", "sawtooth", "singular_term", "snap_integer",
    "verify_dedekind_parity", "verify_dirichlet_series",
    "verify_eta_transform", "verify_quadratic_trig_identity",
    "verify_ramanujan_identity", "verify_transform_table",
]

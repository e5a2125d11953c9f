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
                     divisibility_scan, exp_sum, leading_constant,
                     leading_constant_report, singular_term,
                     verify_dedekind_parity, verify_dirichlet_series,
                     verify_eta_transform, verify_quadratic_trig_identity,
                     verify_ramanujan_identity)
from .fourier import (DftReport, GridFunction, TableReport, dft,
                      grid_function, verify_transform_table)
from .precision import (DEFAULT_PRECISION, PrecisionConfig, PrecisionError,
                        SnappedInteger, VerificationError, snap_integer)
from .series import (eta_quotient_value, pcore_count, pcore_count_bruteforce,
                     pcore_series)
from .special import cot_derivative, hurwitz_zeta, periodic_zeta

__version__ = "0.1.0"

__all__ = [
    "ApproxReport", "ConjectureReport", "CpReport", "DEFAULT_PRECISION",
    "DftReport", "DirichletSeriesReport", "DivisibilityReport",
    "GridFunction", "PrecisionConfig", "PrecisionError",
    "SnappedInteger", "TableReport", "TransformCase", "TransformReport",
    "TrigIdentityReport", "VerificationError", "approx_divisor_sum",
    "approx_singular_series", "bernoulli_char_sum", "bernoulli_number",
    "bernoulli_poly", "class_number", "cot_derivative", "cotangent_char_sum",
    "dedekind_sum", "dft", "divisibility_scan", "divisors",
    "eta_quotient_value", "exp_sum", "grid_function", "hurwitz_zeta",
    "is_prime", "leading_constant", "leading_constant_report",
    "legendre_symbol", "mobius", "pcore_count", "pcore_count_bruteforce",
    "pcore_series", "periodic_zeta", "ramanujan_sum", "sawtooth",
    "singular_term", "snap_integer", "verify_dedekind_parity",
    "verify_dirichlet_series", "verify_eta_transform",
    "verify_quadratic_trig_identity", "verify_ramanujan_identity",
    "verify_transform_table",
]

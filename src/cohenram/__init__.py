"""cohenram: Cohen-Ramanujan sums, Jordan totients, and numerical
verification of the expansion identity

    J_k(n)/n^k * zeta(s+k) = sum_q mu(q)/J_{s+k}(q) * c_q^s(n^s)

and of the main-term machinery for the shifted convolution
sum_{n<=N} J_a(n)/n^a * J_b(n+h)/(n+h)^b.
"""

from .arith import (
    InternalAssertionError,
    MemoryBudgetError,
    divisor_sigma,
    divisors,
    factorize,
    generalized_gcd,
    is_prime,
    jordan,
    mobius,
    primes_upto,
    tau_s,
    zeta,
    zeta_upper_bound,
)
from .cohen import (
    CohenSumQuery,
    RoundingAssertionError,
    crs_direct,
    crs_direct_spectrum,
    crs_divisor_sum,
    crs_fast,
    evaluate,
    kvector_sum,
    shift_decompose,
)
from .expansions import (
    ExpansionQuery,
    ExpansionReport,
    expansion_partial_sum,
    local_factor_cases,
    local_factor_exact,
    sivaramakrishnan_check,
)
from .asymptotics import (
    AsymptoticQuery,
    AsymptoticReport,
    EulerProductResult,
    asymptotic_verify,
    expansion_coefficients,
    general_main_term,
    lhs_sum,
    main_term,
    rhs_product,
)

__version__ = "0.1.0"

__all__ = [
    "InternalAssertionError", "MemoryBudgetError",
    "is_prime", "factorize", "divisors", "mobius", "jordan",
    "generalized_gcd", "tau_s", "divisor_sigma", "zeta",
    "zeta_upper_bound", "primes_upto",
    "CohenSumQuery", "RoundingAssertionError",
    "crs_direct", "crs_direct_spectrum", "crs_divisor_sum", "crs_fast",
    "kvector_sum", "shift_decompose", "evaluate",
    "ExpansionQuery", "ExpansionReport", "expansion_partial_sum",
    "local_factor_exact", "local_factor_cases", "sivaramakrishnan_check",
    "AsymptoticQuery", "AsymptoticReport", "EulerProductResult",
    "lhs_sum", "rhs_product", "asymptotic_verify",
    "general_main_term", "expansion_coefficients", "main_term",
    "__version__",
]

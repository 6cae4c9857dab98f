"""Exact power structures over lambda-rings.

Public surface: exact rationals and Laurent polynomials with Adams
operations (:mod:`.rings`), symmetric functions in the power-sum basis
(:mod:`.symfunc`), truncated series calculus (:mod:`.series`), the power
structure itself (:mod:`.power`), the worked generating-function
computations (:mod:`.applications`) and a batch CLI (:mod:`.cli`).
"""

from .rings import GradedAdamsElement, LaurentPoly, Rational, adams
from .series import TruncSeries, binomial_series
from .symfunc import (
    SpecializationMode,
    SymFunc,
    basis_in_p,
    p_to_schur,
    partitions_of,
    plethysm_apply,
    specialize,
    z_value,
)
from .power import (
    IdentityReport,
    binomial_power,
    factorize,
    lambda_t,
    moebius_exponent,
    power,
    recompose,
    verify_identity,
)
from .applications import (
    ConjugacyClassData,
    GroupActionData,
    ModuliStratum,
    GENUS2_STRATA,
    config_space_series,
    config_specialization,
    harer_zagier,
    hyperelliptic_class,
    irreducible_class,
    irreducible_specialize,
    moduli_g2_series,
    poly_space_class,
    poly_space_series,
    quotient_euler_egf,
    quotient_euler_series,
    unordered_config_product,
)
from .errors import (
    AlphabetMismatchError,
    ConstantTermError,
    GeneratorBoundError,
    HomogeneityError,
    InexactDivisionError,
    IntegralityError,
    LimitError,
    ParseError,
    PowerStructError,
    SubstitutionError,
)

__all__ = [
    "GradedAdamsElement",
    "LaurentPoly",
    "Rational",
    "adams",
    "TruncSeries",
    "binomial_series",
    "SpecializationMode",
    "SymFunc",
    "basis_in_p",
    "p_to_schur",
    "partitions_of",
    "plethysm_apply",
    "specialize",
    "z_value",
    "IdentityReport",
    "binomial_power",
    "factorize",
    "lambda_t",
    "moebius_exponent",
    "power",
    "recompose",
    "verify_identity",
    "ConjugacyClassData",
    "GroupActionData",
    "ModuliStratum",
    "GENUS2_STRATA",
    "config_space_series",
    "config_specialization",
    "harer_zagier",
    "hyperelliptic_class",
    "irreducible_class",
    "irreducible_specialize",
    "moduli_g2_series",
    "poly_space_class",
    "poly_space_series",
    "quotient_euler_egf",
    "quotient_euler_series",
    "unordered_config_product",
    "AlphabetMismatchError",
    "ConstantTermError",
    "GeneratorBoundError",
    "HomogeneityError",
    "InexactDivisionError",
    "IntegralityError",
    "LimitError",
    "ParseError",
    "PowerStructError",
    "SubstitutionError",
]

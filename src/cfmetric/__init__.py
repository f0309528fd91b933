"""cfmetric: continued-fraction metric theory at desk scale.

Exact digit arithmetic, Gauss-measure sampling and event oracles, the
series criterion for runs of large partial quotients, and a transfer-operator
pressure engine for the associated Hausdorff dimension numbers.
"""

from .cfcore import (
    Cylinder,
    DigitWord,
    ConvergentPair,
    DomainError,
    FLOAT_RELIABLE_DEPTH,
    convergents,
    cylinder,
    expand_rational,
    expand_real,
    evaluate,
    gauss_digit_law,
    gauss_digit_tail,
    gauss_measure,
    lebesgue_measure,
    ln_gauss_measure,
    remove_digit_ratio,
    word,
)

__all__ = [
    "Cylinder",
    "DigitWord",
    "ConvergentPair",
    "DomainError",
    "FLOAT_RELIABLE_DEPTH",
    "convergents",
    "cylinder",
    "expand_rational",
    "expand_real",
    "evaluate",
    "gauss_digit_law",
    "gauss_digit_tail",
    "gauss_measure",
    "lebesgue_measure",
    "ln_gauss_measure",
    "remove_digit_ratio",
    "word",
]

__version__ = "0.1.0"

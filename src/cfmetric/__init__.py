"""cfmetric: continued-fraction metric theory at desk scale.

Exact digit arithmetic, Gauss-measure sampling, the series criterion for
runs of large partial quotients, and a transfer-operator pressure engine for
the associated Hausdorff dimension numbers.
"""

from .cfcore import (
    Cylinder,
    DigitWord,
    ConvergentPair,
    DomainError,
    convergents,
    cylinder,
    expand_rational,
    evaluate,
    gauss_digit_law,
    gauss_digit_tail,
    gauss_measure,
    ln_gauss_measure,
    word,
)

__all__ = [
    "Cylinder",
    "DigitWord",
    "ConvergentPair",
    "DomainError",
    "convergents",
    "cylinder",
    "expand_rational",
    "evaluate",
    "gauss_digit_law",
    "gauss_digit_tail",
    "gauss_measure",
    "ln_gauss_measure",
    "word",
]

__version__ = "0.1.0"

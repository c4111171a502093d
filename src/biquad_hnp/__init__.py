"""Biquadratic fields of bounded discriminant and the Hasse norm principle.

Library surface:

* :mod:`biquad_hnp.arith` - sieves, Jacobi/Kronecker symbols
* :mod:`biquad_hnp.fields` - field triples, subfield discriminants
* :mod:`biquad_hnp.hnp` - the splitting-criterion norm-principle classifier
* :mod:`biquad_hnp.enumeration` - bounded-discriminant enumeration
* :mod:`biquad_hnp.asymptotics` - Euler products, main terms, exact identities
* :mod:`biquad_hnp.cli` - the ``biquad-hnp`` command
"""

from .arith import FactorSieve, build_sieve, jacobi, kronecker
from .enumeration import CountReport, enumerate_fields
from .fields import (
    FieldTriple,
    InvalidFieldError,
    SubfieldData,
    from_generators,
    quadratic_discriminant,
    subfield_data,
)
from .hnp import HnpStatus, classify_by_splitting

__version__ = "0.1.0"

__all__ = [
    "FactorSieve",
    "FieldTriple",
    "InvalidFieldError",
    "SubfieldData",
    "HnpStatus",
    "CountReport",
    "build_sieve",
    "jacobi",
    "kronecker",
    "quadratic_discriminant",
    "from_generators",
    "subfield_data",
    "classify_by_splitting",
    "enumerate_fields",
    "__version__",
]

"""Biquadratic fields of bounded discriminant and the Hasse norm principle.

Library surface:

* :mod:`biquad_hnp.arith` - sieves, Jacobi/Kronecker symbols
* :mod:`biquad_hnp.fields` - field triples, subfield discriminants
* :mod:`biquad_hnp.hnp` - ``oracle_row``, the splitting-criterion norm-principle oracle
* :mod:`biquad_hnp.enumeration` - bounded-discriminant enumeration
* :mod:`biquad_hnp.asymptotics` - Euler products, main terms, exact identities
* :mod:`biquad_hnp.cli` - the ``biquad-hnp`` command
"""

from .arith import FactorSieve, build_sieve, jacobi, kronecker
from .enumeration import CountReport, enumerate_fields
from .fields import (
    FieldTriple,
    InvalidFieldError,
    field_values,
    from_generators,
    quadratic_discriminant,
)
from .hnp import oracle_row

__version__ = "0.1.0"

__all__ = [
    "FactorSieve",
    "FieldTriple",
    "InvalidFieldError",
    "CountReport",
    "build_sieve",
    "jacobi",
    "kronecker",
    "quadratic_discriminant",
    "from_generators",
    "field_values",
    "oracle_row",
    "enumerate_fields",
    "__version__",
]

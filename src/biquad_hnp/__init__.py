"""Biquadratic fields of bounded discriminant and the Hasse norm principle.

Library surface:

* :mod:`biquad_hnp.arith` - factor sieves, trial division
* :mod:`biquad_hnp.fields` - checks of (m, a1, b1) triples, subfield discriminants
* :mod:`biquad_hnp.hnp` - ``oracle_row``, the splitting-criterion norm-principle oracle
* :mod:`biquad_hnp.enumeration` - bounded-discriminant enumeration
* :mod:`biquad_hnp.asymptotics` - Euler products, main terms, exact identities
* :mod:`biquad_hnp.cli` - the ``biquad-hnp`` command

``import biquad_hnp`` loads no numpy: ``CountReport`` and
``enumerate_fields`` import :mod:`biquad_hnp.enumeration`, and numpy with
it, on first access.
"""

from .arith import FactorSieve, build_sieve
from .fields import InvalidFieldError, field_values, from_generators
from .hnp import oracle_row

__version__ = "0.1.0"

__all__ = [
    "FactorSieve",
    "InvalidFieldError",
    "CountReport",
    "build_sieve",
    "from_generators",
    "field_values",
    "oracle_row",
    "enumerate_fields",
    "__version__",
]


def __getattr__(name: str):
    if name in ("CountReport", "enumerate_fields"):
        from . import enumeration

        return getattr(enumeration, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

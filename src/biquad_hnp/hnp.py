"""Hasse norm principle classification by the splitting criterion.

For a biquadratic field the principle fails exactly when every
decomposition group is cyclic, i.e. when every ramified prime splits in
at least one of the three quadratic subfields.  ``oracle_row`` tests
that directly, one field at a time on plain ints, and is the ground
truth: it factors |m*a1*b1| once, through the count's factor table
``_kernels.odd_lpf_table`` where one is given, and decides each odd
prime by Euler's criterion.  It reads the table with ``.item`` only and
imports no numpy, so neither does ``classify``;
``enumeration.splitting_witnesses`` runs the same test on arrays of
fields for the witnesses of the record stream.

The verdicts of a count come from ``_kernels.enumerate_block`` (class
tables plus residue-symbol bitmasks).  The test suite holds that kernel
against ``oracle_row`` on every ordered tuple with |m*a1*b1| <= 2000.
The oracle reads only the fundamental discriminants, symmetrically, and
the primes of |m*a1*b1| = sqrt|k1*k2*k3|, so the sorted kernels fix its
verdict, witness and any InvalidFieldError, and the six ordered tuples
of a field share them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .arith import prime_factors
from .fields import InvalidFieldError, _name, field_values

if TYPE_CHECKING:
    import numpy as np

FAILS = "fails"
HOLDS = "holds"


def oracle_row(m: int, a1: int, b1: int, table: np.ndarray | None = None) -> tuple[int, ...]:
    """(k1, k2, k3, d1, d2, d3, c, disc, witness) of the triple, as in a
    record-stream row: fields.field_values and the smallest ramified
    prime that splits in no quadratic subfield, 0 where the principle
    fails, i.e. where every ramified prime splits in some subfield.
    Raises InvalidFieldError where field_values does, then for a
    component that is not squarefree.  Pure Python and independent of
    the kernel.

    2 is ramified exactly when c > 1 and splits exactly when some d = 1
    mod 8.  The primes of |m a1 b1| are found once: by prime_factors on
    table, a _kernels.odd_lpf_table, where it covers |m a1 b1|, else by
    prime_factors of each component.  The components are pairwise
    coprime, so a product of the primes short of |m a1 b1| means a
    square factor, and then each component is factored to name it.  An
    odd prime p splits in Q(sqrt(d)) exactly when d^(p>>1) = 1 mod p."""
    k1, k2, k3, d1, d2, d3, c, disc = field_values(m, a1, b1)
    n = abs(k1 * b1)
    primes = prime_factors(n, table) if table is not None and n >> 1 < len(table) else []
    if math.prod(primes) != n:
        primes = []
        for part in (m, a1, b1):
            factors = prime_factors(part, table)
            if math.prod(factors) != abs(part):
                raise InvalidFieldError(f"component {part} of {_name(m, a1, b1)} is not squarefree")
            primes += factors
        primes.sort()
    if c > 1 and d1 & 7 != 1 and d2 & 7 != 1 and d3 & 7 != 1:
        return k1, k2, k3, d1, d2, d3, c, disc, 2
    for p in primes:
        h = p >> 1
        if p > 2 and pow(d1, h, p) != 1 and pow(d2, h, p) != 1 and pow(d3, h, p) != 1:
            return k1, k2, k3, d1, d2, d3, c, disc, p
    return k1, k2, k3, d1, d2, d3, c, disc, 0

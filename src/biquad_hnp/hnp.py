"""Hasse norm principle classification by the splitting criterion.

For a biquadratic field the principle fails exactly when every
decomposition group is cyclic, i.e. when every ramified prime splits in
at least one of the three quadratic subfields.  ``oracle_row`` tests
that directly, one field at a time on plain ints, and is the ground
truth: it factors |m*a1*b1| once and decides each odd prime by Euler's
criterion.  It needs no numpy, so neither does ``classify``;
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

from .arith import FactorSieve, prime_factors
from .fields import InvalidFieldError, _name, field_values

FAILS = "fails"
HOLDS = "holds"


def oracle_row(m: int, a1: int, b1: int, sieve: FactorSieve | None = None) -> tuple[int, ...]:
    """(k1, k2, k3, d1, d2, d3, c, disc, witness) of the triple, as in a
    record-stream row: fields.field_values and the smallest ramified
    prime that splits in no quadratic subfield, 0 where the principle
    fails, i.e. where every ramified prime splits in some subfield.
    Raises InvalidFieldError where field_values does, then for a
    component that is not squarefree.  Pure Python and independent of
    the kernel.

    2 is ramified exactly when c > 1 and splits exactly when some d = 1
    mod 8.  The primes of |m a1 b1| are found once: by the sieve where it
    has mu(|m a1 b1|) != 0 (the components are pairwise coprime), else by
    prime_factors of each component, which shows whether it is squarefree.
    An odd prime p splits in Q(sqrt(d)) exactly when d^(p>>1) = 1 mod p."""
    k1, k2, k3, d1, d2, d3, c, disc = field_values(m, a1, b1)
    n = abs(k1 * b1)
    covered = sieve is not None and n <= sieve.limit and sieve.mobius.item(n)
    primes = []
    if not covered:
        for part in (m, a1, b1):
            factors = prime_factors(part, sieve)
            if math.prod(factors) != abs(part):
                raise InvalidFieldError(f"component {part} of {_name(m, a1, b1)} is not squarefree")
            primes += factors
    if c > 1 and d1 & 7 != 1 and d2 & 7 != 1 and d3 & 7 != 1:
        return k1, k2, k3, d1, d2, d3, c, disc, 2
    for p in sieve.factor(n) if covered else sorted(primes):
        h = p >> 1
        if p > 2 and pow(d1, h, p) != 1 and pow(d2, h, p) != 1 and pow(d3, h, p) != 1:
            return k1, k2, k3, d1, d2, d3, c, disc, p
    return k1, k2, k3, d1, d2, d3, c, disc, 0


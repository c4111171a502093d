"""Hasse norm principle classification by the splitting criterion.

For a biquadratic field the principle fails exactly when every
decomposition group is cyclic, i.e. when every ramified prime splits in
at least one of the three quadratic subfields.  ``oracle_row`` tests
that directly, one field at a time on plain ints, and is the ground
truth: it factors |m*a1*b1| once and decides each odd prime by Euler's
criterion.  ``splitting_witnesses`` runs the test on arrays of fields at
once, with the kernel's Jacobi symbols; the enumeration uses it for the
witnesses of the record stream.

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

import numpy as np

from ._kernels import jacobi_array
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


def splitting_witnesses(
    m: np.ndarray, a1: np.ndarray, b1: np.ndarray, discs: np.ndarray, sieve: FactorSieve
) -> np.ndarray:
    """The witness of oracle_row on arrays of fields: the witness prime of
    each field, or 0 where the principle fails.

    discs holds the three fundamental discriminants of each field as the
    rows of an (n, 3) int64 array; the sieve must cover m * |a1| * |b1|.
    2 is the witness when no d is 1 mod 8, the condition for 2 to split
    in some subfield; the odd primes of m * |a1| * |b1| are then walked in
    ascending order, on the fields still without a witness, until one has
    no subfield with symbol +1.
    """
    core = m * np.abs(a1) * np.abs(b1)
    if len(core) and int(core.max()) > sieve.limit:
        raise ValueError(f"fields beyond the sieve range 1..{sieve.limit}")
    spf = sieve.smallest_prime_factor
    # with 2 unramified the d are the kernels, all 1 mod 4, and
    # d3 = d1 d2 / m^2 = d1 d2 mod 8 (m odd), so one d is 1 mod 8: no
    # separate test that 2 ramifies is needed
    witness = np.where(np.any((discs & 7) == 1, axis=1), 0, 2)
    odd = core >> np.bitwise_count((core & -core) - 1)
    live = np.flatnonzero((witness == 0) & (odd > 1))
    rest = odd[live]
    while len(live):
        p = spf[rest]
        splits = np.any(jacobi_array(discs[live], p[:, None]) == 1, axis=1)
        witness[live[~splits]] = p[~splits]
        rest //= p
        keep = splits & (rest > 1)
        live, rest = live[keep], rest[keep]
    return witness


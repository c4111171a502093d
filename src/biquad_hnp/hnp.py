"""Hasse norm principle classification by the splitting criterion.

For a biquadratic field the principle fails exactly when every
decomposition group is cyclic, i.e. when every ramified prime splits in
at least one of the three quadratic subfields.  ``oracle_row`` tests
that directly, one field at a time on plain ints, and is the ground
truth.  ``splitting_witnesses`` runs it on arrays of fields at once; the
enumeration uses it for the witnesses of the record stream.

The verdicts of a count come from ``_kernels.enumerate_block`` (class
tables plus residue-symbol bitmasks).  The test suite holds that kernel
against ``oracle_row`` on every ordered tuple with |m*a1*b1| <= 2000.
The oracle reads only the fundamental discriminants, symmetrically, and
the primes of |m*a1*b1| = sqrt|k1*k2*k3|, so the sorted kernels fix its
verdict, witness and any InvalidFieldError, and the six ordered tuples
of a field share them.
"""

from __future__ import annotations

import numpy as np

from ._kernels import jacobi_array
from .arith import FactorSieve, jacobi, prime_factors
from .fields import FieldTriple, field_values

FAILS = "fails"
HOLDS = "holds"


def oracle_row(m: int, a1: int, b1: int, sieve: FactorSieve | None = None) -> tuple[int, ...]:
    """(k1, k2, k3, d1, d2, d3, c, disc, witness) of the triple, as in a
    record-stream row: fields.field_values and the smallest ramified
    prime that splits in no quadratic subfield, 0 where the principle
    fails, i.e. where every ramified prime splits in some subfield.
    Raises InvalidFieldError where FieldTriple(m, a1, b1).validate()
    would: field_values's checks, then a component that is not
    squarefree.  Pure Python and independent of the kernel; the sieve,
    where it covers |m a1 b1| or a component, only speeds up the
    squarefree test and the factoring."""
    k1, k2, k3, d1, d2, d3, c, disc = field_values(m, a1, b1)
    n = abs(k1 * b1)
    # the components are pairwise coprime: n is squarefree when each is
    if sieve is None or n > sieve.limit or not sieve.mobius.item(n):
        FieldTriple(m, a1, b1).validate()
    return k1, k2, k3, d1, d2, d3, c, disc, _splitting_witness(m, a1, b1, d1, d2, d3, c, sieve)


def _splitting_witness(
    m: int, a1: int, b1: int, d1: int, d2: int, d3: int, c: int, sieve: FactorSieve | None
) -> int:
    """The smallest ramified prime that splits in none of the subfields
    Q(sqrt(d1)), Q(sqrt(d2)), Q(sqrt(d3)), or 0.  2 is ramified exactly
    when c > 1 and splits exactly when some d = 1 mod 8; the odd primes of
    |m a1 b1| follow in ascending order, by trial division of each
    (pairwise coprime) component where the sieve does not cover them."""
    if c > 1 and d1 & 7 != 1 and d2 & 7 != 1 and d3 & 7 != 1:
        return 2
    n = abs(m * a1 * b1)
    if sieve is not None and n <= sieve.limit:
        primes = sieve.factor(n)
    else:
        primes = sorted({p for part in (m, a1, b1) for p in prime_factors(part, sieve)})
    for p in primes:
        if p > 2 and jacobi(d1, p) != 1 and jacobi(d2, p) != 1 and jacobi(d3, p) != 1:
            return p
    return 0


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


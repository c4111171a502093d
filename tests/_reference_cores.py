"""Per-core reference for the kernel, used only by the tests.

``core_fields`` lists the fields of one odd squarefree core straight
from the scalar oracle ``hnp.oracle_row``: every way to share the primes
of the core, and a factor 2 or none, among (m, |a1|, |b1|), with both
signs of a1 and b1.  It reads no class table and no symbol bitmask of
the kernel, so ``_kernels.enumerate_block`` on a one-core slab can be
held against it core by core.
"""

import itertools

from biquad_hnp.arith import prime_factors
from biquad_hnp.fields import InvalidFieldError
from biquad_hnp.hnp import oracle_row


def core_fields(n: int, X: int) -> tuple[int, int]:
    """(fields, failures) among the fields with disc <= X whose odd core,
    |m a1 b1| with its factor 2 removed, is the odd squarefree n."""
    primes = prime_factors(n)
    verdicts = {}  # sorted fundamental discriminants -> fails
    for two in (None, 0, 1, 2):  # the slot of the factor 2, if any
        for slots in itertools.product(range(3), repeat=len(primes)):
            parts = [1, 1, 1]
            if two is not None:
                parts[two] = 2
            for p, slot in zip(primes, slots):
                parts[slot] *= p
            m, u, v = parts
            for a1, b1 in ((u, v), (u, -v), (-u, v), (-u, -v)):
                try:
                    row = oracle_row(m, a1, b1)
                except InvalidFieldError:
                    continue
                if row[7] <= X:
                    verdicts[tuple(sorted(row[3:6]))] = row[8] == 0
    return len(verdicts), sum(verdicts.values())

"""Exact integer number theory: factor sieves, Mobius values, trial division.

Everything here is pure integer arithmetic.  Only build_sieve needs
numpy, through _kernels, and imports it when called.  The FactorSieve
is the scalar oracles': hnp.oracle_row reads it at the audit bounds of
count --audit-bound and of verify's checks 5 and 6.  A count reads its
cores from _kernels.odd_lpf_table instead.  A built FactorSieve is
immutable: the audits build it before they fork, and the forked child
reads the parent's tables copy-on-write.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# The bytes per n up to the limit that build_sieve may need, against
# physical memory: uint32 spf, int8 mobius and build_mobius's range.  The
# measured peak (peak RSS growth of build_sieve(L) in a fresh process) is
# 10.3 bytes per n at L = 1e6, 6.3 at 4e6, 5.3 at 2e7 and 5.05 at 1e8.
# The oracles sieve to the square root of their audit bound only; a
# count's own table is bounded by enumeration.TABLE_BYTES_PER_N.
SIEVE_BYTES_PER_N = 8
# the primes the Euler products of asymptotics run over by default, and
# the bound of the discriminants a count takes (its records hold disc as
# int64); here, so that the command line has both without importing numpy
DEFAULT_PRIME_LIMIT = 10_000_000
MAX_DISC_EXCLUSIVE = 2**63


@dataclass(frozen=True)
class FactorSieve:
    """Least-prime-factor and Mobius tables for 1..limit.

    Arrays are indexed directly by n; index 0 is unused.
    ``smallest_prime_factor[p] == p`` exactly when p is prime, and
    ``mobius[n] == 0`` exactly when n has a square factor.
    """

    limit: int
    smallest_prime_factor: np.ndarray  # uint32
    mobius: np.ndarray  # int8

    def factor(self, n: int) -> list[int]:
        """Distinct prime factors of n (1 <= n <= limit), ascending."""
        if not 1 <= n <= self.limit:
            raise ValueError(f"{n} outside sieve range 1..{self.limit}")
        spf = self.smallest_prime_factor
        out = []
        while n > 1:
            p = spf.item(n)
            out.append(p)
            while n % p == 0:
                n //= p
        return out


def physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def build_sieve(limit: int) -> FactorSieve:
    """Sieve least prime factors and Mobius values up to limit (inclusive).

    A sieve larger than physical memory raises MemoryError unallocated.
    """
    from . import _kernels  # here, so that arith imports without numpy

    if limit < 1:
        raise ValueError("sieve limit must be >= 1")
    if SIEVE_BYTES_PER_N * (limit + 1) > physical_memory():
        raise MemoryError(f"a sieve to {limit} needs more than the physical memory")
    spf = _kernels.build_spf(limit)
    mob = _kernels.build_mobius(spf)
    spf.setflags(write=False)
    mob.setflags(write=False)
    return FactorSieve(limit=limit, smallest_prime_factor=spf, mobius=mob)


def is_squarefree(n: int) -> bool:
    """Squarefreeness by the trial division of prime_factors; |n| up to
    ~10^12 is practical."""
    n = abs(n)
    return n != 0 and all(n // p % p for p in prime_factors(n))


def prime_factors(n: int, sieve: FactorSieve | None = None) -> list[int]:
    """Distinct prime factors of |n| (n != 0), ascending."""
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    if sieve is not None and n <= sieve.limit:
        return sieve.factor(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out

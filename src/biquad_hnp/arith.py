"""Exact integer number theory: prime factors and the memory bound of tables.

Everything here is pure integer arithmetic and imports no numpy.
prime_factors walks the factor table a count reads its cores from,
_kernels.odd_lpf_table, where one is given and covers the odd part of
n, and trial-divides otherwise.  hnp.oracle_row passes the table at the
audit bounds of count --audit-bound and of verify's checks 5 and 6.  It
is read with ``.item`` only, so the audits build it before they fork and
the forked child reads the parent's table copy-on-write.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# the primes the Euler products of asymptotics run over by default, and
# the bound of the discriminants a count takes (its records hold disc as
# int64); here, so that the command line has both without importing numpy
DEFAULT_PRIME_LIMIT = 10_000_000
MAX_DISC_EXCLUSIVE = 2**63


def physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def refuse_beyond_memory(bytes_per_n: int, limit: int, what: str) -> None:
    """Raise MemoryError, naming what, when bytes_per_n for each n up to
    limit exceed the physical memory; the callers check this before they
    allocate anything."""
    if bytes_per_n * (limit + 1) > physical_memory():
        raise MemoryError(f"{what} to {limit} would exceed the physical memory")


def is_squarefree(n: int) -> bool:
    """Squarefreeness by the trial division of prime_factors; |n| up to
    ~10^12 is practical."""
    n = abs(n)
    return n != 0 and all(n // p % p for p in prime_factors(n))


def prime_factors(n: int, table: np.ndarray | None = None) -> list[int]:
    """Distinct prime factors of |n| (n != 0), ascending.

    The odd part of |n| is walked through table, a _kernels.odd_lpf_table,
    where the table covers it (entry 0 stands for a prime), and is
    trial-divided otherwise.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out = []
    if n & 1 == 0:
        out.append(2)
        n >>= (n & -n).bit_length() - 1
    if table is not None and n >> 1 < len(table):
        while n > 1:
            p = table.item(n >> 1) or n
            out.append(p)
            n //= p
            while n % p == 0:
                n //= p
        return out
    p = 3
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 2
    if n > 1:
        out.append(n)
    return out

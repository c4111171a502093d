"""Brute-force references for the enumeration, used only by the tests.

``count_by_generator_pairs`` counts the fields of bounded discriminant
over generator pairs, with no ordered tuples, and ``iter_valid_triples``
lists every valid triple of bounded |m a1 b1| one by one.  Both are
independent of the kernel, which the tests pin against them.
"""

import math
from typing import Iterator

from biquad_hnp.arith import build_sieve
from biquad_hnp.hnp import oracle_row


def count_by_generator_pairs(X: int) -> tuple[int, int]:
    """Independent brute-force count over generator pairs (a, b).

    Walks all unordered pairs of distinct squarefree generators with
    |a|, |b| <= sqrt(X) (any field with disc <= X has such generators,
    since disc >= max(a, b)^2), dedups by canonical key and classifies
    with the splitting oracle.  Slow but entirely separate from the
    ordered-triple enumeration; used to pin its results.
    """
    if X < 1:
        raise ValueError(f"discriminant bound must be >= 1, got {X}")
    root = math.isqrt(X)
    sieve = build_sieve(max(root, 1))
    squarefree = sieve.mobius != 0
    seen: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    for a in range(-root, root + 1):
        if a in (0, 1) or not squarefree[abs(a)]:
            continue
        for b in range(a + 1, root + 1):
            if b in (0, 1) or not squarefree[b if b > 0 else -b]:
                continue
            m = math.gcd(abs(a), abs(b))
            a1 = a // m
            b1 = b // m
            k3 = a1 * b1
            ones = (a % 4 == 1) + (b % 4 == 1) + (k3 % 4 == 1)
            c = 1 if ones == 3 else (4 if ones == 1 else 8)
            droot = c * m * abs(k3)
            if droot * droot > X:
                continue
            d = sorted(
                (v if v % 4 == 1 else 4 * v) for v in (a, b, k3)
            )
            seen.setdefault((d[0], d[1], d[2]), (m, a1, b1))
    failing = 0
    for m, a1, b1 in seen.values():
        if oracle_row(m, a1, b1, sieve)[8] == 0:
            failing += 1
    return len(seen), failing


def iter_valid_triples(max_abs_product: int) -> Iterator[tuple[int, int, int]]:
    """All valid triples (m, a1, b1) with m * |a1| * |b1| <= bound, every
    sign pattern."""
    if max_abs_product < 1:
        return
    sieve = build_sieve(max_abs_product)
    squarefree = sieve.mobius != 0
    for m in range(1, max_abs_product + 1):
        if not squarefree[m]:
            continue
        for u in range(1, max_abs_product // m + 1):
            if not squarefree[u] or math.gcd(m, u) != 1:
                continue
            mu = m * u
            for v in range(1, max_abs_product // mu + 1):
                if not squarefree[v] or math.gcd(mu, v) != 1:
                    continue
                for a1 in (u, -u):
                    for b1 in (v, -v):
                        if a1 == b1 and u == 1:
                            continue
                        if m == 1 and (a1 == 1 or b1 == 1):
                            continue
                        yield m, a1, b1

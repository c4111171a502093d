"""Stream every biquadratic field of bounded discriminant exactly once.

The enumeration walks ordered triples (v1, v2, v3) with v1 > 0: odd
squarefree pairwise-coprime cores, at most one factor of 2, and signs on
the last two components.  Each field corresponds to exactly six ordered
triples (one per ordered choice of two of its three subfield kernels), so
the unordered count is the ordered count divided by 6; deduplication by
canonical key must, and does, give the same number.

The tuple enumeration lives in ``_kernels.enumerate_block``; this module
partitions the work, merges tallies, reconstructs field objects from the
raw records, and cross-checks the two dedup strategies.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import _kernels
from .arith import FactorSieve, build_sieve
from .fields import FieldTriple, SubfieldData, subfield_data
from .hnp import FAILS, HnpStatus, classify_by_splitting

Sink = Callable[[FieldTriple, SubfieldData, HnpStatus], None]

MAX_DISC_EXCLUSIVE = 2**63  # records hold disc as int64


@dataclass(frozen=True)
class ClassLabel:
    """Sign pattern, factor-of-2 slot and odd residues (mod 8) of a triple.

    even_slot is 0 when all components are odd, otherwise the 1-based
    index of the unique even component.
    """

    sign2: int
    sign3: int
    even_slot: int
    residues: tuple[int, int, int]

    def __post_init__(self) -> None:
        if self.sign2 not in (1, -1) or self.sign3 not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        if self.even_slot not in (0, 1, 2, 3):
            raise ValueError("even_slot must be 0..3")
        if any(r not in (1, 3, 5, 7) for r in self.residues):
            raise ValueError("residues must be odd mod 8")


@dataclass
class CountReport:
    """Counting summary for all fields with disc <= X."""

    X: int
    S: int
    S_tilde: int
    ordered_total: int
    per_class: dict[ClassLabel, int] = field(repr=False)
    per_class_failing: dict[ClassLabel, int] = field(repr=False)

    @property
    def fail_fraction(self) -> float:
        return self.S_tilde / self.S if self.S else 0.0


def _run_blocks(
    root: int, sieve: FactorSieve, collect: bool, threads: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    spf = sieve.smallest_prime_factor
    mob = sieve.mobius
    if threads <= 1 or root < 64:
        return _kernels.enumerate_block(1, root, root, spf, mob, collect)
    # one core range per thread: every range repeats the assignment loops
    # of each omega group, so finer ranges only add overhead
    edges = np.linspace(1, root + 1, threads + 1, dtype=np.int64)
    jobs = [(int(edges[i]), int(edges[i + 1]) - 1) for i in range(threads)]
    jobs = [(lo, hi) for lo, hi in jobs if hi >= lo]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(
            pool.map(
                lambda j: _kernels.enumerate_block(j[0], j[1], root, spf, mob, collect),
                jobs,
            )
        )
    total = sum(p[0] for p in parts)
    fails = sum(p[1] for p in parts)
    records = np.concatenate([p[2] for p in parts], axis=0)
    return total, fails, records


def _per_class_dicts(
    total: np.ndarray, fails: np.ndarray
) -> tuple[dict[ClassLabel, int], dict[ClassLabel, int]]:
    per_class: dict[ClassLabel, int] = {}
    per_fail: dict[ClassLabel, int] = {}
    for cid in np.nonzero(total)[0]:
        sign2, sign3, even_slot, residues = _kernels.decode_class_index(int(cid))
        label = ClassLabel(sign2=sign2, sign3=sign3, even_slot=even_slot, residues=residues)
        per_class[label] = int(total[cid])
        if fails[cid]:
            per_fail[label] = int(fails[cid])
    return per_class, per_fail


def _fundamental(k: np.ndarray) -> np.ndarray:
    return np.where(k % 4 == 1, k, 4 * k)


def unique_field_rows(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One representative record per field, sorted by (disc, key).

    Returns (rows, keys) where keys holds the sorted fundamental
    discriminants.  The representative is the lexicographically smallest
    record of each field, so the result does not depend on how the
    enumeration was partitioned.
    """
    if len(records) == 0:
        return records.reshape(0, 6), np.empty((0, 3), dtype=np.int64)
    v1, v2, v3 = records[:, 0], records[:, 1], records[:, 2]
    keys = np.stack(
        (_fundamental(v1 * v2), _fundamental(v1 * v3), _fundamental(v2 * v3)), axis=1
    )
    keys.sort(axis=1)
    order = np.lexsort((v3, v2, v1, keys[:, 2], keys[:, 1], keys[:, 0], records[:, 3]))
    srec = records[order]
    skey = keys[order]
    first = np.ones(len(srec), dtype=bool)
    first[1:] = np.any(skey[1:] != skey[:-1], axis=1)
    return srec[first], skey[first]


def _sieve_root(X: int) -> int:
    """floor(sqrt(X)) after checking that X is in the supported range."""
    if X < 1:
        raise ValueError(f"discriminant bound must be >= 1, got {X}")
    if X >= MAX_DISC_EXCLUSIVE:
        raise ValueError(f"discriminant bound must be below 2^63, got {X}")
    return math.isqrt(X)


def enumerate_fields(
    X: int,
    sink: Sink | None = None,
    *,
    threads: int = 1,
    audit_bound: int = 0,
) -> CountReport:
    """Count (and optionally stream) all fields with discriminant <= X.

    When a sink is given, each field is delivered exactly once as
    (FieldTriple, SubfieldData, HnpStatus), serialized in ascending
    (disc, canonical key) order; the status of every non-failing field
    carries a witness prime from the splitting oracle.  Fields with
    disc <= audit_bound are additionally re-checked against the splitting
    oracle, and a disagreement raises RuntimeError.

    The report is identical for any thread count.  X must lie in
    [1, 2^63), since the kernel records hold disc as int64.
    """
    root = _sieve_root(X)
    if threads < 1:
        raise ValueError("threads must be >= 1")
    audit_bound = min(audit_bound, X)
    sieve = build_sieve(max(root, 1))
    collect = sink is not None or audit_bound > 0
    total, fails, records = _run_blocks(root, sieve, collect, threads)
    ordered_total = int(total.sum())
    ordered_failing = int(fails.sum())
    if ordered_total % 6 != 0 or ordered_failing % 6 != 0:
        raise AssertionError("ordered tuple counts are not divisible by 6")
    per_class, per_fail = _per_class_dicts(total, fails)
    report = CountReport(
        X=X,
        S=ordered_total // 6,
        S_tilde=ordered_failing // 6,
        ordered_total=ordered_total,
        per_class=per_class,
        per_class_failing=per_fail,
    )
    if collect:
        rows, _ = unique_field_rows(records)
        if len(rows) != report.S:
            raise AssertionError(
                f"dedup mismatch: {len(rows)} unique fields vs ordered/6 = {report.S}"
            )
        for row in rows:
            t = FieldTriple(int(row[0]), int(row[1]), int(row[2]))
            data = subfield_data(t)
            kernel_fails = bool(row[5])
            if not kernel_fails or data.field_disc <= audit_bound:
                oracle = classify_by_splitting(t, sieve)
                if oracle.fails != kernel_fails:
                    raise RuntimeError(f"classifier disagreement on {t}")
                status = oracle
            else:
                status = HnpStatus(FAILS)
            if sink is not None:
                sink(t, data, status)
    return report


def count_by_class(X: int, *, threads: int = 1) -> dict[ClassLabel, int]:
    """Ordered-tuple tallies per class; values sum to 6 * S(X)."""
    return enumerate_fields(X, threads=threads).per_class


def field_records(X: int, *, threads: int = 1) -> np.ndarray:
    """Raw ordered-tuple records (v1, v2, v3, disc, c, fails) for disc <= X."""
    root = _sieve_root(X)
    sieve = build_sieve(max(root, 1))
    _, _, records = _run_blocks(root, sieve, True, threads)
    return records


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
        t = FieldTriple(m, a1, b1)
        if classify_by_splitting(t, sieve).fails:
            failing += 1
    return len(seen), failing


def iter_valid_triples(max_abs_product: int) -> Iterator[FieldTriple]:
    """All valid triples with m * |a1| * |b1| <= bound, every sign pattern."""
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
                        yield FieldTriple(m, a1, b1)

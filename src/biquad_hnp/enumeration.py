"""Stream every biquadratic field of bounded discriminant exactly once.

The enumeration walks ordered triples (v1, v2, v3) with v1 > 0: odd
squarefree pairwise-coprime cores, at most one factor of 2, and signs on
the last two components.  Each field corresponds to exactly six ordered
triples (one per ordered choice of two of its three subfield kernels), so
the unordered count is the ordered count divided by 6; deduplication by
canonical key must, and does, give the same number.

The tuple enumeration lives in ``_kernels.enumerate_block``; this module
turns its tallies into reports, keeps one record per field, checks that
the fields kept number the ordered count over 6, and rebuilds each kept
field's columns from its record.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import _kernels
from .arith import FactorSieve, build_sieve
from .fields import FieldTriple, SubfieldData, subfield_data
from .hnp import FAILS, HOLDS, HnpStatus, classify_by_splitting, splitting_witnesses

# receives the field columns of _field_columns, at most EMIT_CHUNK rows a call
Sink = Callable[[np.ndarray], None]

MAX_DISC_EXCLUSIVE = 2**63  # records hold disc as int64
# int64 rows turned into Python ints at a time: lists of a whole table
# would raise the peak memory of a run
EMIT_CHUNK = 4096
TUPLE_CHUNK = 256  # odd cores per kernel call in tuple_records


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
    """Counting summary for all fields with disc <= X.

    stats holds the seconds spent in the stages sieve_s, kernel_s,
    dedup_s and deliver_s (the witness pass, the audit and the sink);
    dedup and deliver run only with a sink or an audit, and read 0
    otherwise.
    """

    X: int
    S: int
    S_tilde: int
    ordered_total: int
    per_class: dict[ClassLabel, int] = field(repr=False)
    per_class_failing: dict[ClassLabel, int] = field(repr=False)
    stats: dict[str, float] = field(default_factory=dict, repr=False)

    @property
    def fail_fraction(self) -> float:
        return self.S_tilde / self.S if self.S else 0.0


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


def _lex_less(a: tuple, b: tuple) -> np.ndarray:
    """Elementwise a < b in lexicographic order, for triples of arrays."""
    return (a[0] < b[0]) | ((a[0] == b[0]) & ((a[1] < b[1]) | ((a[1] == b[1]) & (a[2] < b[2]))))


def unique_field_rows(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One representative record per field, sorted by (disc, key).

    Returns (rows, keys) where keys holds the sorted fundamental
    discriminants.  The representative is the lexicographically smallest
    record of each field, so the result does not depend on how the
    enumeration was partitioned.

    The kernels v1 v2, v1 v3 and v2 v3 of a record share one component
    pairwise, so its field's other five ordered records follow in closed
    form, with s = sgn v2 and t = sgn v3: (v1, v3, v2), (|v2|, s v1, s v3),
    (|v2|, s v3, s v1), (|v3|, t v1, t v2) and (|v3|, t v2, t v1).  A
    record is kept when none of them is smaller, and only the kept rows
    are sorted.  A field kept twice raises AssertionError.
    """
    if len(records) == 0:
        return records.reshape(0, 6), np.empty((0, 3), dtype=np.int64)
    v1, v2, v3 = records[:, 0], records[:, 1], records[:, 2]
    row = (v1, v2, v3)
    s, t = np.sign(v2), np.sign(v3)
    a2, sv1, sv3 = np.abs(v2), s * v1, s * v3
    a3, tv1, tv2 = np.abs(v3), t * v1, t * v2
    beaten = v3 < v2  # the sibling (v1, v3, v2)
    for sibling in ((a2, sv1, sv3), (a2, sv3, sv1), (a3, tv1, tv2), (a3, tv2, tv1)):
        beaten |= _lex_less(sibling, row)
    kept = records[~beaten]
    u1, u2, u3 = kept[:, 0], kept[:, 1], kept[:, 2]
    keys = np.stack((_fundamental(u1 * u2), _fundamental(u1 * u3), _fundamental(u2 * u3)), axis=1)
    keys.sort(axis=1)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0], kept[:, 3]))
    rows, keys = kept[order], keys[order]
    twice = np.all(keys[1:] == keys[:-1], axis=1)
    if twice.any():
        raise AssertionError(f"field {tuple(keys[np.argmax(twice)].tolist())} kept twice")
    return rows, keys


def _field_columns(rows: np.ndarray, sieve: FactorSieve) -> np.ndarray:
    """Per field (m, a1, b1, three kernels, three fundamental discriminants,
    c, disc, witness) as the columns of one int64 array.

    Each row must name a field, by the tests of FieldTriple: m >= 1,
    nonzero pairwise coprime components, and no kernel equal to 1 or
    repeated.  c and disc = |d1 d2 d3| are recomputed from the kernels and
    checked against the kernel's columns, which hold (c m |a1| |b1|)^2 as
    disc: this is the discriminant identity.  The witness (0 where the
    principle fails) comes from the splitting oracle and is checked
    against the kernel's verdict.  Any failure raises RuntimeError.
    """
    m, a1, b1 = rows[:, 0], rows[:, 1], rows[:, 2]
    bad = (m < 1) | (a1 == 0) | (b1 == 0)
    bad |= (np.gcd(m, a1) != 1) | (np.gcd(m, b1) != 1) | (np.gcd(a1, b1) != 1)
    bad |= ((a1 == b1) & (np.abs(a1) == 1)) | ((m == 1) & ((a1 == 1) | (b1 == 1)))
    if bad.any():
        raise RuntimeError(f"record {tuple(rows[np.argmax(bad), :3].tolist())} names no field")
    kernels = np.stack((m * a1, m * b1, a1 * b1), axis=1)
    discs = _fundamental(kernels)
    # 3, 1 or 0 kernels = 1 mod 4 give c = 1, 4 or 8; two is impossible
    c = np.array([8, 4, 0, 1], dtype=np.int64)[np.count_nonzero((kernels & 3) == 1, axis=1)]
    disc = np.abs(discs[:, 0] * discs[:, 1] * discs[:, 2])
    bad = (c != rows[:, 4]) | (disc != rows[:, 3])
    if bad.any():
        raise RuntimeError(
            f"discriminant identity violated for {tuple(rows[np.argmax(bad), :3].tolist())}"
        )
    witness = splitting_witnesses(m, a1, b1, discs, sieve)
    bad = (witness == 0) != (rows[:, 5] != 0)
    if bad.any():
        raise RuntimeError(
            f"classifier disagreement on {tuple(rows[np.argmax(bad), :3].tolist())}"
        )
    return np.column_stack((rows[:, :3], kernels, discs, c, disc, witness))


def _deliver_fields(
    rows: np.ndarray, sieve: FactorSieve, sink: Sink | None, audit_bound: int
) -> None:
    """Check the fields' columns and hand them to the sink in chunks.

    First, fields with disc <= audit_bound are re-derived with the scalar
    subfield_data and classify_by_splitting; a difference raises
    RuntimeError.
    """
    columns = _field_columns(rows, sieve)
    # rows ascend in disc (column 10), so the audit needs only a prefix
    audited = columns[: int(np.searchsorted(columns[:, 10], audit_bound, side="right"))]
    for lo in range(0, len(audited), EMIT_CHUNK):
        for m, a1, b1, k1, k2, k3, d1, d2, d3, c, disc, w in audited[lo : lo + EMIT_CHUNK].tolist():
            t = FieldTriple(m, a1, b1)
            data = SubfieldData((k1, k2, k3), (d1, d2, d3), c, disc)
            status = HnpStatus(HOLDS, witness=w) if w else HnpStatus(FAILS)
            if subfield_data(t) != data or classify_by_splitting(t, sieve) != status:
                raise RuntimeError(f"vectorized and scalar oracles disagree on {t}")
    if sink is not None:
        for lo in range(0, len(columns), EMIT_CHUNK):
            sink(columns[lo : lo + EMIT_CHUNK])


def _sieve_root(X: int) -> int:
    """floor(sqrt(X)) after checking that X is in the supported range."""
    if X < 1:
        raise ValueError(f"discriminant bound must be >= 1, got {X}")
    if X >= MAX_DISC_EXCLUSIVE:
        raise ValueError(f"discriminant bound must be below 2^63, got {X}")
    return math.isqrt(X)


def enumerate_fields(
    X: int, sink: Sink | None = None, *, audit_bound: int = 0
) -> CountReport:
    """Count (and optionally stream) all fields with discriminant <= X.

    When a sink is given, each field is delivered exactly once as a row
    (m, a1, b1, k1, k2, k3, d1, d2, d3, c, disc, witness) of an int64
    array: kernels, fundamental discriminants, c, disc and, 0 where the
    principle fails, a witness prime from the vectorized splitting
    oracle, which must agree with the kernel's verdict on every field.
    The rows ascend in (disc, canonical key) and reach the sink in
    chunks of at most EMIT_CHUNK.  Fields with disc <= audit_bound are
    first re-checked against the scalar subfield_data and splitting
    oracle (verdict and witness), and a disagreement raises RuntimeError.

    X must lie in [1, 2^63), since the kernel records hold disc as int64.
    """
    root = _sieve_root(X)
    audit_bound = min(audit_bound, X)
    t0 = time.perf_counter()
    sieve = build_sieve(max(root, 1))
    t1 = time.perf_counter()
    collect = sink is not None or audit_bound > 0
    total, fails, records = _kernels.enumerate_block(
        1, root, root, sieve.smallest_prime_factor, sieve.mobius, collect
    )
    t2 = time.perf_counter()
    stats = {"sieve_s": t1 - t0, "kernel_s": t2 - t1, "dedup_s": 0.0, "deliver_s": 0.0}
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
        stats=stats,
    )
    if collect:
        t0 = time.perf_counter()
        rows, _ = unique_field_rows(records)
        del records  # six rows per field; free them before the field columns
        if len(rows) != report.S:
            raise AssertionError(
                f"dedup mismatch: {len(rows)} unique fields vs ordered/6 = {report.S}"
            )
        t1 = time.perf_counter()
        _deliver_fields(rows, sieve, sink, audit_bound)
        stats["dedup_s"], stats["deliver_s"] = t1 - t0, time.perf_counter() - t1
    return report


def count_by_class(X: int) -> dict[ClassLabel, int]:
    """Ordered-tuple tallies per class; values sum to 6 * S(X)."""
    return enumerate_fields(X).per_class


def field_records(X: int) -> np.ndarray:
    """Raw ordered-tuple records (v1, v2, v3, disc, c, fails) for disc <= X."""
    root = _sieve_root(X)
    sieve = build_sieve(max(root, 1))
    _, _, records = _kernels.enumerate_block(
        1, root, root, sieve.smallest_prime_factor, sieve.mobius, True
    )
    return records


def tuple_records(max_core: int) -> Iterator[np.ndarray]:
    """Kernel records (v1, v2, v3, disc, c, fails) of every ordered tuple
    with |v1 v2 v3| <= max_core, in chunks.

    These are the tuples of iter_valid_triples(max_core).  Each chunk
    comes from one kernel call over TUPLE_CHUNK odd squarefree cores, so
    memory stays bounded.  The root 8 * max_core admits all of them: the
    kernel admits a tuple when c * |v1 v2 v3| <= root, and c <= 8.
    """
    if max_core < 1:
        return
    sieve = build_sieve(max_core)
    spf, mob = sieve.smallest_prime_factor, sieve.mobius
    cores = np.flatnonzero(mob[1::2]) * 2 + 1
    for lo in range(0, len(cores), TUPLE_CHUNK):
        chunk = cores[lo : lo + TUPLE_CHUNK]
        _, _, records = _kernels.enumerate_block(
            int(chunk[0]), int(chunk[-1]), 8 * max_core, spf, mob, True
        )
        # rebound, so that the kernel's buffer is freed before the next call
        records = records[np.abs(records[:, 0] * records[:, 1] * records[:, 2]) <= max_core]
        yield records


def split_sum(work: Callable[[int, int], tuple[int, ...]]) -> tuple[int, ...]:
    """Element-wise sum of the counts work(part, parts) over the parts.

    work(part, parts) counts its own share of a job whose counts add,
    for example every parts-th block of rows starting at block part.
    With os.fork and at least two usable CPUs, a forked child runs
    work(1, 2) while this process runs work(0, 2), and the child sends
    its ints back as JSON over a pipe; otherwise work(0, 1) runs here.
    The child inherits everything built before the call copy-on-write.
    A child that fails or sends back the wrong number of ints raises
    RuntimeError.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if not hasattr(os, "fork") or affinity is None or len(affinity(0)) < 2:
        return tuple(work(0, 1))
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return tuple(work(0, 1))
    if pid == 0:
        # The child leaves only through os._exit, also when work raises:
        # returning into the caller would run its exit hooks and finally
        # blocks a second time and flush its stdio buffers twice.
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(json.dumps([int(v) for v in work(1, 2)]).encode())
            code = 0
        except BaseException:
            import traceback

            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        ours = tuple(work(0, 2))
    finally:
        # reaps the child also when this half raised
        with open(read_fd, "rb") as pipe:
            payload = pipe.read()
        _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(
            f"worker process failed with exit code {os.waitstatus_to_exitcode(status)}"
        )
    try:
        theirs = json.loads(payload)
    except ValueError:  # cut short
        theirs = []
    if len(theirs) != len(ours):
        raise RuntimeError(f"worker process sent {payload[:80]!r}, not {len(ours)} ints")
    return tuple(a + b for a, b in zip(ours, theirs))


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

"""Stream every biquadratic field of bounded discriminant exactly once.

Fields are counted over ordered triples (v1, v2, v3) with v1 > 0: odd
squarefree pairwise-coprime cores, at most one factor of 2, and signs on
the last two components.  Each field corresponds to exactly six ordered
triples (one per ordered choice of two of its three subfield kernels), so
the unordered count is the ordered count divided by 6.

The enumeration lives in ``_kernels.enumerate_block``, which enumerates
one ordered triple per field and tallies all six.  This module turns its
tallies into reports, replaces each field's record by the field's least
ordered record, checks that no field is kept twice and that the fields
kept number the ordered count over 6, and rebuilds each kept field's
columns from its record, the witness by ``splitting_witnesses``, the
splitting oracle run on arrays.  ``unfold_records`` writes out the six
ordered records of each field, for ``tuple_records``.  Both move records by the
kernel's own S3 table, ``_kernels._S3``.

A count with more than ``_kernels.SLAB`` odd squarefree cores runs in two
processes when it can (``fork_parts``).  Each process walks its own
stream of the cores' slabs (``_kernels._core_slabs``) over the sieve
built before the fork; a forked child takes every other slab, tallies
those slabs, dedups and checks its own fields, and sends back its
tallies, field table and stage seconds as they are, pickled.  This
works because a field's six ordered triples share their odd core, so
the slabs split the fields too.  This process runs the other slabs,
sums the tallies and inserts the child's field table into its own by
disc.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

from . import _kernels
from .arith import FactorSieve, build_sieve

# receives the field columns of _field_columns, at most EMIT_CHUNK rows a call
Sink = Callable[[np.ndarray], None]

MAX_DISC_EXCLUSIVE = 2**63  # records hold disc as int64
# rows per sink call, and per block turned into Python ints by the
# scalar-oracle sweeps: lists of a whole table would raise peak memory
EMIT_CHUNK = 4096
FIELD_COLUMNS = 12  # columns of _field_columns
T = TypeVar("T")


@dataclass
class CountReport:
    """Counting summary for all fields with disc <= X.

    class_total and class_fail are the kernel's tallies of admitted and
    of failing ordered tuples, summed over the parts: read-only int64
    arrays indexed by class id, whose labels are the rows of
    _kernels.class_labels().  The kernel tallies one tuple per field and
    unfolds it into the classes of the field's six, so they sum to 6 S
    and 6 S~.

    parts is the number of processes that counted: 2 when a forked
    child took half of the slabs, else 1.

    stats holds wall seconds by stage: sieve_s (the sieve, built before
    any fork), kernel_s (a part's kernel call), dedup_s (its dedup) and
    deliver_s (its field columns and witnesses, then this process's
    merge of the field tables and the sink).  Each part times its own
    stages, a forked child included, and each stage reports the larger
    part's seconds.  dedup and deliver run only with a sink, and read 0
    otherwise.
    """

    X: int
    S: int
    S_tilde: int
    ordered_total: int
    class_total: np.ndarray = field(repr=False)
    class_fail: np.ndarray = field(repr=False)
    stats: dict[str, float] = field(default_factory=dict, repr=False)
    parts: int = 1

    @property
    def fail_fraction(self) -> float:
        return self.S_tilde / self.S if self.S else 0.0


def _fundamental(k: np.ndarray) -> np.ndarray:
    return np.where(k % 4 == 1, k, 4 * k)


def unfold_records(records: np.ndarray) -> np.ndarray:
    """The six ordered records of each field, from one record per field.

    Block k holds the records with (v1, v2, v3) moved by _kernels._S3[k],
    and disc, c and fails repeated: row k * len(records) + i is record i
    moved by _S3[k].  _S3[0] is the identity, so block 0 is the records.
    """
    out = np.empty((6, len(records), 6), dtype=np.int64)
    v = records[:, 0], records[:, 1], records[:, 2]
    for k, perm in enumerate(_kernels._S3):
        for j, col in enumerate(_kernels._moved_components(v, perm)):
            out[k, :, j] = col
        out[k, :, 3:] = records[:, 3:]
    return out.reshape(-1, 6)


def unique_field_rows(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least ordered record of each field, sorted by (disc, key),
    from one record per field.

    Returns (rows, keys) where keys holds the sorted fundamental
    discriminants k0 <= k1 <= k2.  Each record is replaced by the
    lexicographically smallest of its field's six ordered records, its
    moves by _kernels._S3, found by comparing columns one move at a time,
    so the result does not depend on which of the six the kernel
    enumerated or on how the enumeration was partitioned.  The sort is on
    (disc, k0, k1): the third subfield is Q(sqrt(d d')) for the other
    two, so k0 and k1 fix k2 and the order is that of the whole key.  A
    field given twice raises AssertionError.
    """
    v = least = records[:, 0], records[:, 1], records[:, 2]
    for perm in _kernels._S3[1:]:
        u1, u2, u3 = moved = _kernels._moved_components(v, perm)
        w1, w2, w3 = least
        less = (u1 < w1) | ((u1 == w1) & ((u2 < w2) | ((u2 == w2) & (u3 < w3))))
        least = tuple(np.where(less, u, w) for u, w in zip(moved, least))
    del moved, w1, w2, w3, less  # free the last move before the sort
    u1, u2, u3 = least
    keys = np.stack((_fundamental(u1 * u2), _fundamental(u1 * u3), _fundamental(u2 * u3)), axis=1)
    keys.sort(axis=1)
    order = np.lexsort((keys[:, 1], keys[:, 0], records[:, 3]))
    rows = np.column_stack((u1, u2, u3, records[:, 3:]))[order]
    keys = keys[order]
    twice = np.all(keys[1:] == keys[:-1], axis=1)
    if twice.any():
        raise AssertionError(f"field {tuple(keys[np.argmax(twice)].tolist())} kept twice")
    return rows, keys


def invalid_rows(m: np.ndarray, a1: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """Boolean mask of the int64 rows (m, a1, b1) that name no field, by
    the tests of fields._check: m >= 1, nonzero pairwise coprime
    components, and no kernel equal to 1 or repeated."""
    bad = (m < 1) | (a1 == 0) | (b1 == 0)
    bad |= (np.gcd(m, a1) != 1) | (np.gcd(m, b1) != 1) | (np.gcd(a1, b1) != 1)
    bad |= ((a1 == b1) & (np.abs(a1) == 1)) | ((m == 1) & ((a1 == 1) | (b1 == 1)))
    return bad


def splitting_witnesses(
    m: np.ndarray, a1: np.ndarray, b1: np.ndarray, discs: np.ndarray, sieve: FactorSieve
) -> np.ndarray:
    """The witness of hnp.oracle_row on arrays of fields, with the kernel's
    Jacobi symbols: the witness prime of each field, or 0 where the
    principle fails.

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
        splits = np.any(_kernels.jacobi_array(discs[live], p[:, None]) == 1, axis=1)
        witness[live[~splits]] = p[~splits]
        rest //= p
        keep = splits & (rest > 1)
        live, rest = live[keep], rest[keep]
    return witness


def _field_columns(rows: np.ndarray, sieve: FactorSieve) -> np.ndarray:
    """Per field (m, a1, b1, three kernels, three fundamental discriminants,
    c, disc, witness) as the columns of one int64 array.

    Each row must name a field (see invalid_rows).  c and disc =
    |d1 d2 d3| are recomputed from the kernels and checked against the
    kernel's columns, which hold (c m |a1| |b1|)^2 as disc: this is the
    discriminant identity.  The witness (0 where the
    principle fails) comes from the splitting oracle and is checked
    against the kernel's verdict.  Any failure raises RuntimeError.
    """
    m, a1, b1 = rows[:, 0], rows[:, 1], rows[:, 2]
    bad = invalid_rows(m, a1, b1)
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


def _merged_fields(tables: list[np.ndarray], ordered: int) -> np.ndarray:
    """The parts' field columns as one table sorted by (disc, key).

    Each table is sorted by (disc, key) already, and none holds a field
    twice.  disc = (2^j n)^2 fixes the odd core n that all of a field's
    ordered triples share, and each core lies in one part, so the fields of one
    disc are all in one table: each further table's rows go in at their
    insertion points by disc, with one np.insert.  A disc of the inserted
    table found at its insertion point (a field kept twice, or a core
    counted in both parts) raises AssertionError, and so do kept fields
    that do not number the ordered count over 6.
    """
    columns, *rest = tables
    for table in rest:
        disc = table[:, 10]
        at = np.searchsorted(columns[:, 10], disc)
        shared = np.searchsorted(columns[:, 10], disc, side="right") > at
        if shared.any():
            raise AssertionError(f"disc {disc[np.argmax(shared)]} kept in two parts")
        columns = np.insert(columns, at, table, axis=0)
    if 6 * len(columns) != ordered:
        raise AssertionError(
            f"dedup mismatch: {len(columns)} unique fields vs ordered/6 = {ordered // 6}"
        )
    return columns


def _sieve_root(X: int) -> int:
    """floor(sqrt(X)) after checking that X is in the supported range."""
    if X < 1:
        raise ValueError(f"discriminant bound must be >= 1, got {X}")
    if X >= MAX_DISC_EXCLUSIVE:
        raise ValueError(f"discriminant bound must be below 2^63, got {X}")
    return math.isqrt(X)


def _lap(stats: dict[str, float], key: str, since: float) -> float:
    """Add the seconds since ``since`` to stats[key]; return the clock."""
    now = time.perf_counter()
    stats[key] += now - since
    return now


def enumerate_fields(X: int, sink: Sink | None = None) -> CountReport:
    """Count (and optionally stream) all fields with discriminant <= X.

    When a sink is given, each field is delivered exactly once as a row
    (m, a1, b1, k1, k2, k3, d1, d2, d3, c, disc, witness) of an int64
    array: kernels, fundamental discriminants, c, disc and, 0 where the
    principle fails, a witness prime from the vectorized splitting
    oracle, which must agree with the kernel's verdict on every field.
    The rows ascend in (disc, canonical key) and reach the sink in
    chunks of at most EMIT_CHUNK.  For B < X, the rows with disc <= B
    come first, and they are the stream of enumerate_fields(B).

    With more than _kernels.SLAB odd squarefree cores up to sqrt(X), the
    count is split with fork_parts; the result is the same either way.
    Each part walks the cores one window at a time from the sieve built
    before the fork, so the two parts add only their own window and work
    arrays to what the sieve holds.

    X must lie in [1, 2^63), since the kernel records hold disc as int64.
    """
    root = _sieve_root(X)
    stats = {"sieve_s": 0.0}
    t = time.perf_counter()
    sieve = build_sieve(root)
    _lap(stats, "sieve_s", t)
    spf = sieve.smallest_prime_factor
    collect = sink is not None

    def work(part: int, parts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, dict]:
        """The class totals and failures of one part's slabs, when
        collect is true the field columns of its fields, deduped and
        sorted (else None), and the seconds of its stages."""
        laps = {"kernel_s": 0.0, "dedup_s": 0.0, "deliver_s": 0.0}
        t = time.perf_counter()
        slabs = _kernels._core_slabs(root, spf, sieve.mobius)
        total, fails, records = _kernels.enumerate_block(slabs, root, spf, collect, part, parts)
        t = _lap(laps, "kernel_s", t)
        if not collect:
            return total, fails, None, laps
        rows, _ = unique_field_rows(records)
        del records  # free them before the field columns
        t = _lap(laps, "dedup_s", t)
        columns = _field_columns(rows, sieve)
        _lap(laps, "deliver_s", t)
        return total, fails, columns, laps

    split = np.count_nonzero(sieve.mobius[1::2]) > _kernels.SLAB
    outs = fork_parts(work) if split else [work(0, 1)]
    totals, failures, tables, laps = zip(*outs)
    del outs
    stats.update({key: max(lap[key] for lap in laps) for key in laps[0]})
    total = np.sum(totals, axis=0)
    fails = np.sum(failures, axis=0)
    ordered_total = int(total.sum())
    if collect:
        t = time.perf_counter()
        columns = _merged_fields(list(tables), ordered_total)
        del tables  # the parts' tables go before the sink's chunks are built
        for lo in range(0, len(columns), EMIT_CHUNK):
            sink(columns[lo : lo + EMIT_CHUNK])
        _lap(stats, "deliver_s", t)
    total.setflags(write=False)
    fails.setflags(write=False)
    return CountReport(
        X=X,
        S=ordered_total // 6,
        S_tilde=int(fails.sum()) // 6,
        ordered_total=ordered_total,
        class_total=total,
        class_fail=fails,
        stats=stats,
        parts=len(totals),
    )


def tuple_records(max_core: int, part: int = 0, parts: int = 1) -> np.ndarray:
    """Records (v1, v2, v3, disc, c, fails) of every ordered tuple with
    |v1 v2 v3| <= max_core, from one kernel call: its record of each
    field, unfolded into the field's six by unfold_records, so the rows
    are six blocks and block 0 is the kernel's records.

    These are the valid triples with |m a1 b1| <= max_core; the kernel's
    part ``part`` of ``parts`` holds a share of them, and the parts
    together hold each once.  The root 8 * max_core admits all of them:
    the kernel admits a tuple when c * |v1 v2 v3| <= root, and c <= 8.
    """
    if max_core < 1:
        return np.empty((0, 6), np.int64)
    sieve = build_sieve(max_core)
    spf = sieve.smallest_prime_factor
    slabs = _kernels._core_slabs(max_core, spf, sieve.mobius)
    _, _, records = _kernels.enumerate_block(slabs, 8 * max_core, spf, True, part, parts)
    return unfold_records(
        records[np.abs(records[:, 0] * records[:, 1] * records[:, 2]) <= max_core]
    )


def _pin(cpus: list[int]) -> None:
    """Run this process on the given CPUs only, where the system allows it."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass  # an unpinned part still counts correctly


def fork_parts(work: Callable[[int, int], T]) -> list[T]:
    """The values work(part, parts) of every part, this process's first.

    work(part, parts) does its own share of a job split into parts.
    With os.fork and at least two usable CPUs, a forked child runs
    work(1, 2) while this process runs work(0, 2), and the child sends
    its value back over a pipe with pickle, so it must be picklable;
    otherwise work(0, 1) runs here alone.  The child inherits everything
    built before the call copy-on-write.  A child that fails, or sends
    back a value that cannot be unpickled, raises RuntimeError, which
    names the child's exception if it raised; a child that raised
    MemoryError raises MemoryError.

    While the parts run, each process is pinned to one of the first two
    usable CPUs, and this process gets its CPU set back afterwards.
    Where the scheduler does not balance load between CPUs (a cpuset
    with sched_load_balance off), it leaves a forked child on its
    parent's CPU, and the two parts would take turns on one core.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if not hasattr(os, "fork") or affinity is None or len(affinity(0)) < 2:
        return [work(0, 1)]
    cpus = sorted(affinity(0))
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return [work(0, 1)]
    if pid == 0:
        # The child leaves only through os._exit, also when work raises:
        # returning into the caller would run its exit hooks and finally
        # blocks a second time and flush its stdio buffers twice.
        code = 2  # 1 when work raised: its error line goes in place of the value
        try:
            os.close(read_fd)
            _pin(cpus[1:2])
            try:
                theirs, done = work(1, 2), 0
            except Exception as exc:
                theirs, done = f"{type(exc).__name__}: {exc}", 1
            with open(write_fd, "wb") as pipe:
                pickle.dump(theirs, pipe, protocol=pickle.HIGHEST_PROTOCOL)
            code = done
        finally:
            os._exit(code)
    os.close(write_fd)
    _pin(cpus[:1])
    try:
        ours = work(0, 2)
    finally:
        _pin(cpus)
        # reaps the child also when this half raised; closing the pipe
        # before the wait ends a child still writing what was not read
        with open(read_fd, "rb") as pipe:
            try:
                theirs, unread = pickle.load(pipe), None
            except Exception as exc:
                theirs, unread = None, exc
        _, status = os.waitpid(pid, 0)
    if status != 0:
        code = os.waitstatus_to_exitcode(status)
        reason = f": {theirs}" if code == 1 and isinstance(theirs, str) else ""
        # a child out of memory is out of memory here too, not a failed check
        error = MemoryError if reason.startswith(": MemoryError:") else RuntimeError
        raise error(f"worker process failed with exit code {code}{reason}")
    if unread is not None:
        raise RuntimeError(f"worker process sent a value that cannot be read: {unread!r}")
    return [ours, theirs]

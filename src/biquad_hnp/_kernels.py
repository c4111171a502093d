"""Hot integer kernels: sieve construction and the ordered-triple enumeration.

Everything here is numpy array algebra; there is no compiled path.

``enumerate_block`` takes the slabs of ``_core_slabs``: ascending odd
squarefree cores with one number of prime factors w = omega(n).  An ordered
tuple is an assignment of the w primes to the three components (3^w of
them) together with one of 16 (slot of the factor 2, sign pair) combos.  Each field has six
ordered tuples, one per permutation of its three components (with all
signs flipped when component 1 turns negative), and this action of S3 on
the (assignment, combo) pairs depends only on w.  So only the least pair
of each orbit is enumerated: the assignments that keep a combo, (3^w +
3) / 6 of them for w >= 1, with their kept combos, class id base, twist
masks and record factors, are tabulated once per omega
(``_assignments``, built on first use).  At the end the class tallies
are unfolded into those of all six ordered tuples through the six
permutations of the class ids (``class_id_maps``), since c, the
admission bound and the verdict are the field's.  Each kept assignment
is two array passes over a (combos, cores) grid, the combos stacked on
the first axis and the cores of a slab on the second: the combos with
all components odd over every core, and those with an even component
over the cores small enough to admit one.  Every test on a tuple is an
elementwise operation on a grid:

* the tuple's class id, its weight factor c and the mod-4/mod-8
  congruence prefilter (with the slot-of-2 condition) depend only on the
  components mod 8, so they are read from the 1024-entry class tables of
  ``_class_tables``, which also hold each class's reciprocity sign u;
* the residue-symbol test needs, for each prime p of a component, the
  symbol (q|p) of the product q of the other two components.  It is a
  product of Legendre symbols (p'|p) over the primes of those components,
  times (-1|p) per negative one and (2|p) when one of them is even.  The
  symbols (p_k|p_i) of each core are computed once, with a vectorized
  Jacobi, and packed into one bitmask per prime, so that a tuple's test
  is a popcount parity per prime and one comparison of bitmasks;
* one bincount per pass adds the admitted tuples to the class tallies,
  one more the failing ones, and one nonzero picks the records, one per
  field.

``_core_slabs`` reads the odd n one window at a time and yields slabs of
at most ``SLAB`` cores, which bounds the working arrays independently of
the number of cores; records go into one growing buffer.  A call can take
every parts-th slab only, so that two processes, each walking the same
slabs, split the cores without running any slab twice.  The enumeration
works in int64, which caps the discriminant bound at X < 2^63 (records
hold disc = (c * 2^[even] * n)^2); the sieve limit sqrt(X) then stays
below 2^32, so every odd composite n up to it has a prime factor below
2^16.  The cores and their primes are read from one table of those
factors, ``odd_lpf_table``: uint16, one entry per odd n, so one byte per
n up to sqrt(X).  It is the one factor table: the scalar oracle
``hnp.oracle_row`` reads it too, through ``arith.prime_factors``.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

# There is no numba path; the flag stays for the benchmark's environment probe.
USING_NUMBA = False

# Ordered-tuple classes: 4 sign pairs x 4 factor-of-2 placements x 4^3 odd
# residues mod 8.  Class ids index the tally arrays returned by
# enumerate_block; see class_labels.
CLASS_SPACE = 4 * 4 * 64

SLAB = 2048  # cores per slab in enumerate_block
CORE_WINDOW = 1 << 16  # odd n per window of _core_slabs


def primes_up_to(limit: int) -> np.ndarray:
    """The primes <= limit, ascending, by the sieve of Eratosthenes."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    # nonzero gives intp, which is int64 on 64-bit platforms: no copy there
    return np.nonzero(flags)[0].astype(np.int64, copy=False)


def odd_lpf_table(limit: int) -> np.ndarray:
    """Least prime factors of the odd n <= limit as uint16, for 1 <= limit
    < 2^32: entry (n - 1) // 2 holds that of each odd composite n, and 0
    stands for 1 and for the primes (see least_factor).

    An odd composite n < 2^32 has a prime factor below 2^16, so uint16
    holds it.  Each odd prime p <= sqrt(limit), the largest first, writes
    p from the entry of p^2 on with stride p (the odd multiples), so the
    last write to a composite is its least prime factor.
    """
    if not 1 <= limit < 2**32:
        raise ValueError(f"sieve limit must lie in [1, 2^32), got {limit}")
    table = np.zeros((limit + 1) // 2, dtype=np.uint16)
    for p in primes_up_to(math.isqrt(limit))[:0:-1].tolist():
        table[p * p // 2 :: p] = p
    return table


def least_factor(table: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The least prime factor of each odd t >= 1 that odd_lpf_table covers,
    and t itself where t is 1 or prime, in the dtype of t."""
    p = table[t >> 1]
    return np.where(p == 0, t, p)


def odd_squarefree_count(y: int) -> int:
    """Q(y): the odd squarefree n <= y, 1 included, for y >= 0.

    Q(y) = sum over odd d <= sqrt(y) of mu(d) ((y // d^2 + 1) // 2), the odd
    multiples of d^2 counted with mu(d).  mu of the odd d comes from one
    pass over the odd primes p <= sqrt(y): each flips the sign at the odd
    multiples of p and zeroes it at those of p^2.
    """
    r = math.isqrt(y)
    mob = np.ones((r + 1) // 2, dtype=np.int64)  # entry (d - 1) // 2 for odd d
    for p in primes_up_to(r)[1:].tolist():
        mob[p >> 1 :: p] *= -1
        mob[p * p >> 1 :: p * p] = 0
    d = np.arange(1, r + 1, 2, dtype=np.int64)
    return int(mob @ ((y // (d * d) + 1) // 2))


def jacobi_array(a, n) -> np.ndarray:
    """Elementwise Jacobi symbols (a|n) as int8; n odd positive, a any int64.

    Binary reduction on all entries at once: strip the factors of 2 of a
    (one sign flip per odd power when n = 3, 5 mod 8), swap with the
    reciprocity sign (both = 3 mod 4), reduce, and retire the entries
    whose a reached 0.  The sign is kept as a 0/1 flip bit.
    """
    a, n = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(n, dtype=np.int64))
    out = np.zeros(a.shape, dtype=np.int8)
    flat = out.reshape(-1)
    aa = (a % n).reshape(-1)
    nn = n.reshape(-1).copy()
    flip = np.zeros(aa.shape, dtype=np.int64)
    pos = np.arange(aa.size)
    while aa.size:
        done = aa == 0
        if done.any():
            flat[pos[done]] = np.where(nn[done] == 1, 1 - 2 * flip[done], 0)
            keep = ~done
            aa, nn, flip, pos = aa[keep], nn[keep], flip[keep], pos[keep]
        twos = np.bitwise_count((aa & -aa) - 1)
        aa >>= twos
        # bit 0 of (n >> 1) ^ (n >> 2) is set exactly when n = 3, 5 mod 8
        flip ^= ((twos & ((nn >> 1) ^ (nn >> 2))) ^ ((aa & nn) >> 1)) & 1
        aa, nn = nn % aa, aa
    return out


@cache
def class_labels() -> np.ndarray:
    """Per class id, (sign2, sign3, even_slot, r1, r2, r3) as the rows of
    a read-only (CLASS_SPACE, 6) int64 array.

    sign2 and sign3 are the signs of the last two components, even_slot
    is 0 when all components are odd and otherwise the 1-based index of
    the even one, and r1, r2, r3 are the odd parts of the components mod
    8.  The id is ((s * 4 + even_slot) << 6) | ecode, with s = 2 [sign2 <
    0] + [sign3 < 0] and ecode holding r_i >> 1 in two bits each, r1
    highest; _assignments, _enumerate_slab and class_id_maps build ids
    this way, and this is the one place that reads an id back.
    """
    cid = np.arange(CLASS_SPACE, dtype=np.int64)
    s = cid >> 8
    residues = [((cid >> shift) & 3) * 2 + 1 for shift in (4, 2, 0)]
    labels = np.column_stack((1 - 2 * (s >> 1), 1 - 2 * (s & 1), (cid >> 6) & 3, *residues))
    labels.setflags(write=False)
    return labels


@cache
def _class_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per class id: the weight factor c, whether the tuple passes the
    mod-4/mod-8 prefilter and the slot-of-2 condition (ok), and the
    reciprocity sign u.

    u = (-1)^(nu1 nu2 + nu2 nu3 + nu3 nu1) (t1|r2 r3)(t2|r3 r1)(t3|r1 r2),
    with nu_i bit 1 of r_i and t_i the sign of component i times the 2 of
    an even one.  The exact class sums in asymptotics read the same cached
    arrays, so all three are read-only.
    """
    sign2, sign3, even_slot, *m = class_labels().T
    sign = [1, sign2, sign3]
    v = [(sign[i] * m[i] * np.where(even_slot == i + 1, 2, 1)) & 7 for i in range(3)]
    r = [vi & 3 for vi in v]
    eq12, eq13, eq23 = r[0] == r[1], r[0] == r[2], r[1] == r[2]
    c = np.where(eq12 & eq13, 1, np.where(eq12 | eq13 | eq23, 4, 8))
    # all components in one class mod 4, or the agreeing pair agree mod 8
    # (a pair agreeing mod 8 agrees mod 4, so otherwise only that pair can).
    # An even component agrees with no odd one mod 4, so its partners must
    # agree mod 8; their product is then 1 mod 8, as the slot-of-2
    # condition asks.
    ok = (eq12 & eq13) | (v[0] == v[1]) | (v[0] == v[2]) | (v[1] == v[2])
    # (-1|q) = -1 when bit 1 of q is set, (2|q) = -1 when bits 1 and 2
    # differ (B4 and B8 of _symbol_bits)
    nu = [(mi >> 1) & 1 for mi in m]
    flip = (nu[0] & nu[1]) ^ (nu[1] & nu[2]) ^ (nu[2] & nu[0])
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        q = m[j] * m[k]
        flip ^= ((sign[i] < 0) & (q >> 1)) ^ ((even_slot == i + 1) & ((q >> 1) ^ (q >> 2)))
    u = 1 - 2 * (flip & 1)
    for table in (c, ok, u):
        table.setflags(write=False)
    return c, ok, u


# The six permutations of the three components: a tuple moved by perm
# has as its component j the component perm[j] of the tuple, negated with
# the others when that makes component 1 negative (_moved_components).
# Moved tuples name the same field, with the same c, admission bound and
# verdict.  The orbit tables of _assignments, class_id_maps and the record
# siblings of enumeration all move tuples by this table.
_S3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def _moved_components(v: tuple[np.ndarray, ...], perm: tuple[int, int, int]) -> tuple:
    """The columns of the tuples with the nonzero component columns v,
    moved by perm: column j is v[perm[j]], negated where v[perm[0]] < 0."""
    sign = np.sign(v[perm[0]])
    return tuple(sign * v[p] for p in perm)


def _moved_slot(slot: np.ndarray, perm: tuple[int, int, int]) -> np.ndarray:
    """The slot of the 2 (0 for none, else 1-based) after moving by perm."""
    return np.append(0, np.argsort(perm) + 1)[slot]


@cache
def class_id_maps() -> np.ndarray:
    """Per permutation of S3, the class id of the moved tuples of each id,
    as the rows of a read-only (6, CLASS_SPACE) int64 array.

    The labels are read with class_labels, their signs and slot of 2 are
    moved with _moved_components and _moved_slot, and the moved ids are
    built the way _assignments and _enumerate_slab build ids.
    """
    sign2, sign3, even_slot, *m = class_labels().T
    sign = (np.ones_like(sign2), sign2, sign3)
    maps = np.empty((len(_S3), CLASS_SPACE), dtype=np.int64)
    for k, perm in enumerate(_S3):
        _, moved2, moved3 = _moved_components(sign, perm)
        s = 2 * (moved2 < 0) + (moved3 < 0)
        ecode = ((m[perm[0]] >> 1) << 4) | ((m[perm[1]] >> 1) << 2) | (m[perm[2]] >> 1)
        maps[k] = ((s * 4 + _moved_slot(even_slot, perm)) << 6) | ecode
    maps.setflags(write=False)
    return maps


@cache
def _assignments(w: int) -> tuple[tuple[tuple, np.ndarray, tuple, tuple], ...]:
    """Per S3 orbit of live (assignment, combo) pairs, the least pair:
    the prime-to-component assignments that keep a combo, in base-3 digit
    order, with the kept (slot of 2, sign pair) combos of each.

    Each entry holds the prime columns of each component, per prime the
    bitmask of the other two components, and two combo tables: the combos
    with every component odd (slot 0), and the combos with an even
    component, which apply only to the cores with 8 n <= root.  A combo
    table is (cid0, n4, n8, factors): per combo its class id base, and the
    masks of the primes twisted by (-1|p) and by (2|p), as (combos, 1)
    columns; and per component the signed factor (+-1 or +-2) of its odd
    part in a record, as a (3, combos) array.  Degenerate combos, which
    name quadratic fields, are not live.  A pair is (assignment, combo)
    with the index 16 assignment + combo; S3 moves it as it moves the
    tuples it names, and of the six pairs that name one field the least
    index is kept.  Raises AssertionError unless each live pair's orbit
    holds six live pairs, of which one is kept.  Built on first use per
    omega.
    """
    # the 16 combos, slot-major: the component holding the 2 (slot[:, d])
    # and the negative components (neg[:, d]); component 1 stays positive
    pl = np.repeat(np.arange(4), 4)
    s = np.tile(np.arange(4), 4)
    neg = np.stack((np.zeros(16, dtype=bool), s >= 2, s % 2 == 1), axis=1)
    slot = pl[:, None] == np.arange(1, 4)
    digits = np.arange(3**w)[:, None] // 3 ** np.arange(w) % 3
    masks = (digits[:, :, None] == np.arange(3)) * (1 << np.arange(w))[:, None]
    masks = masks.sum(axis=1)
    empty = masks == 0
    table = np.empty((3**w, 16, 6), dtype=np.int64)
    table[:, :, 0] = (s * 4 + pl) << 6
    # (-1|p) twists the primes whose other components hold an odd number
    # of negative signs, (2|p) those whose other components hold the 2
    table[:, :, 1] = masks @ ((neg.sum(axis=1)[:, None] - neg) & 1).T
    table[:, :, 2] = masks @ ((pl[:, None] > 0) & ~slot).T
    table[:, :, 3:] = np.where(slot, 2, 1) * np.where(neg, -1, 1)
    # degenerate tuples name quadratic, not biquadratic, fields: two
    # subfield kernels collide or equal 1
    unit2 = empty[:, 1:2] & ~slot[:, 1]
    unit3 = empty[:, 2:3] & ~slot[:, 2]
    dead = unit2 & unit3 & (neg[:, 1] == neg[:, 2])
    dead |= empty[:, 0:1] & ~slot[:, 0] & ((unit2 & ~neg[:, 1]) | (unit3 & ~neg[:, 2]))
    live = ~dead.ravel()
    orbit = np.empty((len(_S3), 3**w, 16), dtype=np.int64)
    for k, perm in enumerate(_S3):
        moved = neg[:, list(perm)]
        moved = moved ^ moved[:, :1]
        combo = _moved_slot(pl, perm) * 4 + 2 * moved[:, 1] + moved[:, 2]
        # component i moves to np.argsort(perm)[i], and its primes with it
        asg = np.argsort(perm)[digits] @ 3 ** np.arange(w)
        orbit[k] = asg[:, None] * 16 + combo
    orbit = orbit.reshape(len(_S3), -1)[:, live]
    kept = np.zeros(live.shape, dtype=bool)
    kept[orbit.min(axis=0)] = True
    members = np.sort(orbit, axis=0)
    if not (
        (members[1:] != members[:-1]).all()
        and live[orbit].all()
        and (kept[orbit].sum(axis=0) == 1).all()
    ):
        raise AssertionError(f"the live pairs of omega {w} are not free S3 orbits")
    kept = kept.reshape(3**w, 16)
    full = (1 << w) - 1
    out = []
    for asg in np.flatnonzero(kept.any(axis=1)).tolist():
        row_digits = digits[asg].tolist()
        cols = tuple([i for i in range(w) if row_digits[i] == d] for d in range(3))
        other_of = full ^ masks[asg, digits[asg]]
        other_of.setflags(write=False)
        tables = []
        for combos in (table[asg, :4][kept[asg, :4]], table[asg, 4:][kept[asg, 4:]]):
            combos.setflags(write=False)
            tables.append((combos[:, 0:1], combos[:, 1:2], combos[:, 2:3], combos[:, 3:].T))
        out.append((cols, other_of, *tables))
    return tuple(out)


class _RecordBuffer:
    """One (cap, 6) int64 buffer that doubles when full."""

    def __init__(self) -> None:
        self.rows = np.empty((1024, 6), dtype=np.int64)
        self.n = 0

    def append(self, block: list[np.ndarray]) -> None:
        k = len(block[0])
        need = self.n + k
        if need > len(self.rows):
            cap = len(self.rows)
            while cap < need:
                cap *= 2
            grown = np.empty((cap, 6), dtype=np.int64)
            grown[: self.n] = self.rows[: self.n]
            self.rows = grown
        for j, col in enumerate(block):
            self.rows[self.n : need, j] = col
        self.n = need


def _core_slabs(limit: int, table: np.ndarray):
    """The odd squarefree n <= limit as slabs (n, w): at most SLAB
    ascending cores, each with w = omega(n) prime factors.

    The odd n are read one window of CORE_WINDOW at a time, and each is
    divided by its least prime factors (least_factor on table, which must
    cover limit) until 1 is left: a prime met twice marks n as not
    squarefree, and the primes met count omega.  Each window's cores are
    sorted by (omega, n).  Per omega, ascending, its full slabs are
    yielded and the rest is held back for the next window; the last
    window yields everything.  So every slab of an omega but its last is
    full, and with one window the slabs are those of each omega in turn.
    """
    count = (limit + 1) // 2  # odd n <= limit
    held = {}  # per omega, fewer than SLAB cores below the window
    for lo in range(0, count, CORE_WINDOW):
        hi = min(lo + CORE_WINDOW, count)
        # the window's own slice of the table gives each n its first
        # prime, so 1 and the primes are done at once
        first = table[lo:hi]
        omega = np.ones(hi - lo, dtype=np.int8)
        if lo == 0:
            omega[0] = 0  # n = 1
        squarefree = np.ones(hi - lo, dtype=bool)
        # per composite n left: its place, n over the primes met so far,
        # and the last of them; it leaves at 1 or at a prime met twice
        pos = np.flatnonzero(first)
        prev = first[pos]
        t = pos.astype(np.uint32)
        t *= 2
        t += 2 * lo + 1
        t //= prev
        while len(pos):
            p = least_factor(table, t)
            omega[pos] += 1
            square = p == prev
            squarefree[pos[square]] = False
            t //= p
            # one index for the three arrays: a mask would be found thrice
            keep = np.flatnonzero((t > 1) & ~square)
            pos, t, prev = pos[keep], t[keep], p[keep]
        n = np.flatnonzero(squarefree)
        omega = omega[n].astype(np.int64)
        n *= 2
        n += 2 * lo + 1
        ends = np.cumsum(np.bincount(omega, minlength=max(held, default=0) + 1)).tolist()
        # sort by (omega, n) in place: n < 2^32, so omega goes above it
        omega <<= 32
        n |= omega
        del omega
        n.sort()
        n &= 0xFFFFFFFF
        last = hi == count
        for w, (a, b) in enumerate(zip([0, *ends], ends)):
            group = n[a:b]
            if w in held:
                group = np.concatenate((held.pop(w), group))
            end = len(group) if last else len(group) - len(group) % SLAB
            for at in range(0, end, SLAB):
                yield group[at : at + SLAB], w
            if end < len(group):
                held[w] = group[end:].copy()


def _symbol_bits(primes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bitmask rows of a slab whose cores have the odd primes ``primes``.

    Returns (B, B4, B8): bit k of B[:, i] is set when (p_k|p_i) = -1, bit
    i of B4 when (-1|p_i) = -1, and bit i of B8 when (2|p_i) = -1.
    """
    w = primes.shape[1]
    weights = np.int64(1) << np.arange(w, dtype=np.int64)
    r8 = primes & 7
    minus4 = (r8 & 3) == 3
    B = np.zeros(primes.shape, dtype=np.int64)
    for i in range(w - 1):
        # (p_k|p_i) for k > i, and (p_i|p_k) from it by reciprocity
        upper = jacobi_array(primes[:, i + 1 :], primes[:, i : i + 1]) == -1
        lower = upper ^ (minus4[:, i : i + 1] & minus4[:, i + 1 :])
        B[:, i] |= (upper * weights[i + 1 :]).sum(axis=1)
        B[:, i + 1 :] |= lower * weights[i]
    B4 = (minus4 * weights).sum(axis=1)
    B8 = (((r8 == 3) | (r8 == 5)) * weights).sum(axis=1)
    return B, B4, B8


def _enumerate_slab(n, primes, root, class_total, class_fail, records) -> None:
    """Tally (and optionally record) the kept tuple of every field of one
    slab.

    n holds ascending cores with the same omega; primes[:, i] is the i-th
    smallest prime of each core.  Per kept assignment, the kept combos are
    stacked on the first axis of two (combos, cores) passes: the odd-slot
    combos over all cores, the even-slot combos over the cores that admit
    an even component.
    """
    class_c, class_ok, _u = _class_tables()
    w = primes.shape[1]
    weights = np.int64(1) << np.arange(w, dtype=np.int64)
    B, B4, B8 = _symbol_bits(primes)
    r8 = primes & 7
    # cores with an even component have c >= 4 and base 2n
    k_even = int(np.searchsorted(n, root // 8, side="right"))
    for cols, other_of, odd_combos, even_combos in _assignments(w):
        res = [np.prod(r8[:, c], axis=1) & 7 for c in cols]
        ecode = ((res[0] >> 1) << 4) | ((res[1] >> 1) << 2) | (res[2] >> 1)
        parity = (np.bitwise_count(B & other_of) & 1) @ weights
        if records is not None:
            m = [np.prod(primes[:, c], axis=1) for c in cols]
        for (cid0, n4, n8, factors), k, mult in (
            (odd_combos, len(n), 1),
            (even_combos, k_even, 2),
        ):
            if k == 0 or len(cid0) == 0:
                continue
            cid = cid0 + ecode[:k]
            c = class_c[cid]
            admitted = n[:k] * (mult * c) <= root
            fails = class_ok[cid] & (parity[:k] == ((B4[:k] & n4) ^ (B8[:k] & n8)))
            fails &= admitted
            class_total += np.bincount(cid[admitted], minlength=CLASS_SPACE)
            class_fail += np.bincount(cid[fails], minlength=CLASS_SPACE)
            if records is not None:
                combo, core = np.nonzero(admitted)
                c = c[combo, core]
                d_root = n[core] * (mult * c)
                records.append(
                    [
                        m[0][core] * factors[0][combo],
                        m[1][core] * factors[1][combo],
                        m[2][core] * factors[2][combo],
                        d_root * d_root,
                        c,
                        fails[combo, core],
                    ]
                )


def enumerate_block(slabs, root, table, collect, part=0, parts=1):
    """Enumerate the fields whose odd squarefree core lies in one of slabs.

    slabs is a stream of (n, w) as _core_slabs yields them: ascending
    cores n, all with w prime factors; table is an odd_lpf_table that
    covers them.  root is floor(sqrt(X)); a tuple with weight factor
    c and 2-placement power pw is admitted when pw * c * core <= root,
    i.e. disc <= X.

    The slabs go to the parts in turn, and only those of part ``part``
    (of ``parts``) are enumerated.  A field's ordered tuples share their
    odd core, so the parts hold disjoint sets of whole fields.

    Only the kept pair of each field's six ordered tuples is enumerated
    (_assignments); its class tallies are unfolded through class_id_maps
    into those of all six.  Returns (class_total, class_fail, records):
    the tallies of the admitted and of the failing ordered tuples, and
    one int64 row (v1, v2, v3, disc, c, fails) per admitted field, the
    components of its kept tuple, empty unless collect is true; the row
    order is unspecified.
    """
    class_total = np.zeros(CLASS_SPACE, dtype=np.int64)
    class_fail = np.zeros(CLASS_SPACE, dtype=np.int64)
    records = _RecordBuffer() if collect else None
    for slab, (n, w) in enumerate(slabs):
        if slab % parts != part:
            continue
        primes = np.empty((len(n), w), dtype=np.int64)
        t = n.copy()
        for i in range(w):
            primes[:, i] = least_factor(table, t)
            t //= primes[:, i]
        _enumerate_slab(n, primes, root, class_total, class_fail, records)
    # the six maps form a group, so gathering each id's moved ids over all
    # of them adds the tallies of every id in its orbit
    maps = class_id_maps()
    rows = records.rows[: records.n] if records is not None else np.empty((0, 6), np.int64)
    return class_total[maps].sum(axis=0), class_fail[maps].sum(axis=0), rows

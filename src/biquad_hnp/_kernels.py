"""Hot integer kernels: sieve construction and the ordered-triple enumeration.

Everything here is numpy array algebra; there is no compiled path.

``enumerate_block`` groups the odd squarefree cores of its range by the
number of prime factors w = omega(n).  An ordered tuple is an assignment
of the w primes to the three components (3^w of them) together with one
of 16 (slot of the factor 2, sign pair) choices, and every test on it is
an array operation over all cores of one group at once:

* the tuple's class id, its weight factor c and the mod-4/mod-8
  congruence prefilter (with the slot-of-2 condition) depend only on the
  components mod 8, so they are read from two 1024-entry class tables;
* the residue-symbol test needs, for each prime p of a component, the
  symbol (q|p) of the product q of the other two components.  It is a
  product of Legendre symbols (p'|p) over the primes of those components,
  times (-1|p) per negative one and (2|p) when one of them is even.  The
  symbols (p_k|p_i) of each core are computed once, with a vectorized
  Jacobi, and packed into one bitmask per prime, so that a tuple's test
  is a popcount parity per prime and one comparison of bitmasks.

Each group is processed in slabs of at most ``SLAB`` cores, which bounds
the working arrays independently of the range; records go into one
growing buffer.  int64 is used throughout, which caps the discriminant
bound at X < 2^63 (records hold disc = (c * 2^[even] * n)^2).
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

# There is no numba path; the flag stays for the benchmark's environment probe.
USING_NUMBA = False

# Ordered-tuple classes: 4 sign pairs x 4 factor-of-2 placements x 4^3 odd
# residues mod 8.  Class ids index the tally arrays returned by
# enumerate_block; see class_index/decode_class_index.
CLASS_SPACE = 4 * 4 * 64

SLAB = 2048  # cores per slab in enumerate_block


def build_spf(limit: int) -> np.ndarray:
    """Least-prime-factor table for 0..limit (entries 0 and 1 are 0 and 1)."""
    if limit < 1:
        raise ValueError("sieve limit must be >= 1")
    spf = np.zeros(limit + 1, dtype=np.int64)
    spf[1] = 1
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            spf[p] = p
            block = spf[p * p :: p]
            block[block == 0] = p
    # remaining zeros past index 1 are primes above sqrt(limit)
    idx = np.nonzero(spf == 0)[0]
    idx = idx[idx >= 2]
    spf[idx] = idx
    return spf


def build_mobius(spf: np.ndarray) -> np.ndarray:
    """Mobius values 0..limit, for the range of a least-prime-factor table."""
    limit = spf.shape[0] - 1
    # multiplicative sieve: flip sign at multiples of each prime, zero at
    # multiples of its square
    mob = np.ones(limit + 1, dtype=np.int8)
    mob[0] = 0
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, limit + 1):
        if is_prime[p]:
            if p * p <= limit:
                is_prime[p * p :: p] = False
            mob[p::p] *= -1
            if p * p <= limit:
                mob[p * p :: p * p] = 0
    if limit >= 1:
        mob[1] = 1
    return mob


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
def _class_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per class id: the weight factor c, and whether the tuple passes the
    mod-4/mod-8 prefilter and the slot-of-2 condition."""
    cid = np.arange(CLASS_SPACE, dtype=np.int64)
    ecode = cid & 63
    even_slot = (cid >> 6) & 3
    s = cid >> 8
    m = [((ecode >> shift) & 3) * 2 + 1 for shift in (4, 2, 0)]
    sign = [1, np.where(s < 2, 1, -1), np.where((s & 1) == 0, 1, -1)]
    v = [(sign[i] * m[i] * np.where(even_slot == i + 1, 2, 1)) & 7 for i in range(3)]
    r = [vi & 3 for vi in v]
    eq12, eq13, eq23 = r[0] == r[1], r[0] == r[2], r[1] == r[2]
    c = np.where(eq12 & eq13, 1, np.where(eq12 | eq13 | eq23, 4, 8))
    # all components in one class mod 4, or the agreeing pair agree mod 8
    # (a pair agreeing mod 8 agrees mod 4, so otherwise only that pair can)
    ok = (eq12 & eq13) | (v[0] == v[1]) | (v[0] == v[2]) | (v[1] == v[2])
    # the even component's partner product must be +-1 mod 8
    q = [(v[1] * v[2]) & 7, (v[0] * v[2]) & 7, (v[0] * v[1]) & 7]
    for i in range(3):
        ok &= (even_slot != i + 1) | (q[i] == 1) | (q[i] == 7)
    c.setflags(write=False)
    ok.setflags(write=False)
    return c, ok


@cache
def _assignments(w: int) -> tuple[tuple[tuple, tuple, np.ndarray], ...]:
    """The 3^w prime-to-component assignments, in base-3 digit order.

    Each entry holds the prime columns of each component, the bitmask of
    each component, and per prime the bitmask of the other two components.
    """
    full = (1 << w) - 1
    out = []
    for asg in range(3**w):
        digits = [asg // 3**i % 3 for i in range(w)]
        cols = tuple([i for i in range(w) if digits[i] == d] for d in range(3))
        masks = tuple(sum(1 << i for i in c) for c in cols)
        other_of = np.array([full ^ masks[d] for d in digits], dtype=np.int64)
        other_of.setflags(write=False)
        out.append((cols, masks, other_of))
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


def _odd_cores(n_lo: int, n_hi: int, spf: np.ndarray, mob: np.ndarray):
    """Odd squarefree n in [n_lo, n_hi], ascending, with omega(n)."""
    start = n_lo if n_lo & 1 else n_lo + 1
    n = np.flatnonzero(mob[start : n_hi + 1 : 2])
    n *= 2
    n += start
    omega = np.zeros(n.shape, dtype=np.int8)
    t = n.copy()
    while True:
        live = t > 1
        if not live.any():
            return n, omega
        omega += live
        t //= spf[t]  # spf[1] = 1 keeps finished entries at 1


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
    """Tally (and optionally record) every ordered tuple of one slab.

    n holds ascending cores with the same omega; primes[:, i] is the i-th
    smallest prime of each core.
    """
    class_c, class_ok = _class_tables()
    w = primes.shape[1]
    weights = np.int64(1) << np.arange(w, dtype=np.int64)
    B, B4, B8 = _symbol_bits(primes)
    r8 = primes & 7
    # cores with an even component have c >= 4 and base 2n
    k_even = int(np.searchsorted(n, root // 8, side="right"))
    for cols, masks, other_of in _assignments(w):
        empty = [mask == 0 for mask in masks]
        res = [np.prod(r8[:, c], axis=1) & 7 for c in cols]
        ecode = ((res[0] >> 1) << 4) | ((res[1] >> 1) << 2) | (res[2] >> 1)
        parity = (np.bitwise_count(B & other_of) & 1) @ weights
        if records is not None:
            m = [np.prod(primes[:, c], axis=1) for c in cols]
        for pl in range(4):
            k = len(n) if pl == 0 else k_even
            if k == 0:
                continue
            mult = 1 if pl == 0 else 2
            # (2|p) twists the primes whose other components hold the 2
            n8 = 0 if pl == 0 else sum(masks[d] for d in range(3) if d != pl - 1)
            for s in range(4):
                neg = (0, s >> 1, s & 1)
                # degenerate tuples name quadratic, not biquadratic, fields:
                # two subfield kernels collide or equal 1
                unit2 = empty[1] and pl != 2
                unit3 = empty[2] and pl != 3
                if unit2 and unit3 and neg[1] == neg[2]:
                    continue
                if empty[0] and pl != 1 and ((unit2 and not neg[1]) or (unit3 and not neg[2])):
                    continue
                # (-1|p) twists the primes whose other components hold an
                # odd number of negative signs
                n4 = sum(masks[d] for d in range(3) if (neg[0] + neg[1] + neg[2] - neg[d]) & 1)
                cid0 = (s * 4 + pl) << 6
                ek = ecode[:k]
                c = class_c[cid0 + ek]
                admitted = n[:k] * (mult * c) <= root
                fails = class_ok[cid0 + ek] & (parity[:k] == ((B4[:k] & n4) ^ (B8[:k] & n8)))
                fails &= admitted
                tally = class_total[cid0 : cid0 + 64]
                tally += np.bincount(ek[admitted], minlength=64)
                tally = class_fail[cid0 : cid0 + 64]
                tally += np.bincount(ek[fails], minlength=64)
                if records is not None:
                    sel = np.nonzero(admitted)[0]
                    d_root = n[sel] * (mult * c[sel])
                    records.append(
                        [
                            m[0][sel] * (2 if pl == 1 else 1),
                            m[1][sel] * ((2 if pl == 2 else 1) * (-1 if neg[1] else 1)),
                            m[2][sel] * ((2 if pl == 3 else 1) * (-1 if neg[2] else 1)),
                            d_root * d_root,
                            c[sel],
                            fails[sel],
                        ]
                    )


def enumerate_block(n_lo, n_hi, root, spf, mob, collect):
    """Enumerate ordered tuples whose odd squarefree core lies in [n_lo, n_hi].

    root is floor(sqrt(X)); a tuple with weight factor c and 2-placement
    power pw is admitted when pw * c * core <= root, i.e. disc <= X.

    Returns (class_total, class_fail, records).  records has one int64 row
    (v1, v2, v3, disc, c, fails) per admitted tuple and is empty unless
    collect is true; its row order is unspecified.
    """
    class_total = np.zeros(CLASS_SPACE, dtype=np.int64)
    class_fail = np.zeros(CLASS_SPACE, dtype=np.int64)
    records = _RecordBuffer() if collect else None
    cores, omega = _odd_cores(n_lo, n_hi, spf, mob)
    for w in np.flatnonzero(np.bincount(omega)):
        group = cores[omega == w]
        for lo in range(0, len(group), SLAB):
            n = group[lo : lo + SLAB]
            primes = np.empty((len(n), int(w)), dtype=np.int64)
            t = n.copy()
            for i in range(int(w)):
                primes[:, i] = spf[t]
                t //= primes[:, i]
            _enumerate_slab(n, primes, root, class_total, class_fail, records)
    rows = records.rows[: records.n] if records is not None else np.empty((0, 6), np.int64)
    return class_total, class_fail, rows


def class_index(sign2: int, sign3: int, even_slot: int, residues) -> int:
    """Flat index of a tuple class in the kernel tally arrays."""
    s = (0 if sign2 > 0 else 2) + (0 if sign3 > 0 else 1)
    ecode = ((residues[0] >> 1) << 4) | ((residues[1] >> 1) << 2) | (residues[2] >> 1)
    return ((s * 4 + even_slot) << 6) | ecode


def decode_class_index(cid: int) -> tuple[int, int, int, tuple[int, int, int]]:
    """Inverse of class_index: (sign2, sign3, even_slot, residues)."""
    ecode = cid & 63
    head = cid >> 6
    even_slot = head & 3
    s = head >> 2
    residues = (((ecode >> 4) & 3) * 2 + 1, ((ecode >> 2) & 3) * 2 + 1, (ecode & 3) * 2 + 1)
    return (1 if s < 2 else -1, 1 if (s & 1) == 0 else -1, even_slot, residues)

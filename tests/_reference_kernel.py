"""Scalar reference for ``_kernels.enumerate_block``: one loop step per tuple.

This is the per-tuple loop the vectorized kernel replaced, kept as plain
Python so the tests can compare the two exactly (class tallies, failing
tallies and the multiset of records).  It walks every odd squarefree core
n, every assignment of its primes to the three components, every
placement of the factor 2 and every sign pair, and decides each admitted
tuple with the congruence-and-symbol failure test.
"""

import numpy as np

from biquad_hnp._kernels import CLASS_SPACE


def jacobi_i64(a, n):
    """Jacobi symbol for n odd positive and a already in [0, n)."""
    result = 1
    while a != 0:
        while a & 1 == 0:
            a >>= 1
            r = n & 7
            if r == 3 or r == 5:
                result = -result
        a, n = n, a
        if (a & 3) == 3 and (n & 3) == 3:
            result = -result
        a = a % n
    if n == 1:
        return result
    return 0


def fails_norm_principle(v1, v2, v3, fp, digs, w, even_slot):
    """Congruence-and-symbol failure test for one ordered tuple.

    v1, v2, v3 are the signed components (v1 > 0); fp[:w] their odd prime
    factors with digs[:w] giving the component each prime divides.
    """
    r1 = v1 & 3
    r2 = v2 & 3
    r3 = v3 & 3
    if r1 == r2 and r2 == r3:
        pass  # all components in one class mod 4: no extra congruence
    elif r1 == r2:
        if (v1 & 7) != (v2 & 7):
            return False
    elif r1 == r3:
        if (v1 & 7) != (v3 & 7):
            return False
    elif r2 == r3:
        if (v2 & 7) != (v3 & 7):
            return False
    else:
        return False  # pairwise distinct mod 4: the principle holds
    q = (v2 * v3, v1 * v3, v1 * v2)
    if even_slot:
        x = q[even_slot - 1] & 7
        if x != 1 and x != 7:
            return False
    for i in range(w):
        p = fp[i]
        if jacobi_i64(q[digs[i]] % p, p) != 1:
            return False
    return True


def enumerate_block(n_lo, n_hi, root, spf, mob, collect):
    """The tallies and records of ``_kernels.enumerate_block`` over the odd
    squarefree cores in [n_lo, n_hi], one tuple at a time."""
    class_total = np.zeros(CLASS_SPACE, dtype=np.int64)
    class_fail = np.zeros(CLASS_SPACE, dtype=np.int64)
    rows = []
    n = n_lo if (n_lo & 1) == 1 else n_lo + 1
    while n <= n_hi:
        if mob[n] != 0:
            fp = []
            t = n
            while t > 1:
                p = int(spf[t])
                fp.append(p)
                t //= p
            w = len(fp)
            for asg in range(3**w):
                a = asg
                m = [1, 1, 1]
                digs = []
                for i in range(w):
                    d = a % 3
                    a //= 3
                    digs.append(d)
                    m[d] *= fp[i]
                m1, m2, m3 = m
                ecode = (((m1 & 7) >> 1) << 4) | (((m2 & 7) >> 1) << 2) | ((m3 & 7) >> 1)
                for pl in range(4):
                    base = n if pl == 0 else 2 * n
                    v1 = 2 * m1 if pl == 1 else m1
                    e2 = 2 * m2 if pl == 2 else m2
                    e3 = 2 * m3 if pl == 3 else m3
                    for s in range(4):
                        v2 = e2 if s < 2 else -e2
                        v3 = e3 if (s & 1) == 0 else -e3
                        r1 = v1 & 3
                        r2 = v2 & 3
                        r3 = v3 & 3
                        eq12 = r1 == r2
                        eq13 = r1 == r3
                        eq23 = r2 == r3
                        if eq12 and eq13:
                            c = 1
                        elif eq12 or eq13 or eq23:
                            c = 4
                        else:
                            c = 8
                        if base * c > root:
                            continue
                        if v2 == v3 and (v2 == 1 or v2 == -1):
                            continue
                        if v1 == 1 and (v2 == 1 or v3 == 1):
                            continue
                        cid = ((s * 4 + pl) << 6) | ecode
                        class_total[cid] += 1
                        fails = fails_norm_principle(v1, v2, v3, fp, digs, w, pl)
                        if fails:
                            class_fail[cid] += 1
                        if collect:
                            d_root = base * c
                            rows.append((v1, v2, v3, d_root * d_root, c, int(fails)))
        n += 2
    records = np.array(rows, dtype=np.int64).reshape(len(rows), 6)
    return class_total, class_fail, records

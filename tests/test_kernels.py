"""The vectorized kernels against scalar references.

``enumerate_block`` is compared exactly with the per-tuple loop kept in
``_reference_kernel``: class tallies, failing tallies and the multiset
of records, over whole and split core ranges.  ``jacobi_array`` is
checked against Euler's criterion and against the scalar symbols.
"""

import math
import random

import numpy as np
import pytest

import _reference_kernel as reference
from biquad_hnp import _kernels
from biquad_hnp.arith import build_sieve, jacobi


def _sorted_rows(records):
    return records[np.lexsort(records.T[::-1])]


def _kernel_args(X):
    root = math.isqrt(X)
    sieve = build_sieve(root)
    return root, sieve.smallest_prime_factor, sieve.mobius


@pytest.mark.parametrize("X", [144, 10**4, 10**6, 10**8])
def test_enumerate_block_matches_reference(X):
    root, spf, mob = _kernel_args(X)
    got = _kernels.enumerate_block(1, root, root, spf, mob, True)
    want = reference.enumerate_block(1, root, root, spf, mob, True)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2].shape == want[2].shape
    assert np.array_equal(_sorted_rows(got[2]), _sorted_rows(want[2]))


@pytest.mark.parametrize("X", [10**6, 10**8])
def test_enumerate_block_split_range_matches_reference(X):
    root, spf, mob = _kernel_args(X)
    want = reference.enumerate_block(1, root, root, spf, mob, True)
    # uneven cut points, one of them even, so every piece starts differently
    cuts = [(1, root // 3), (root // 3 + 1, 2 * root // 3 + 1), (2 * root // 3 + 2, root)]
    parts = [_kernels.enumerate_block(lo, hi, root, spf, mob, True) for lo, hi in cuts]
    assert np.array_equal(sum(p[0] for p in parts), want[0])
    assert np.array_equal(sum(p[1] for p in parts), want[1])
    records = np.concatenate([p[2] for p in parts])
    assert np.array_equal(_sorted_rows(records), _sorted_rows(want[2]))


def test_enumerate_block_without_collect_returns_no_records():
    root, spf, mob = _kernel_args(10**6)
    total, fails, records = _kernels.enumerate_block(1, root, root, spf, mob, False)
    assert records.shape == (0, 6)
    assert total.sum() == 6084 and fails.sum() == 6 * 119


def _euler_table(p):
    """Euler's criterion r^((p-1)/2) mod p for every residue r, as -1/0/1."""
    r = np.arange(p, dtype=np.int64)
    acc = np.ones(p, dtype=np.int64)
    base = r.copy()
    k = (p - 1) // 2
    while k:
        if k & 1:
            acc = acc * base % p
        base = base * base % p
        k >>= 1
    return np.where(acc == 0, 0, np.where(acc == 1, 1, -1))


def test_jacobi_array_euler_criterion_full_range():
    # every odd prime p <= 10^4 against all |a| <= 10^4
    spf = build_sieve(10_000).smallest_prime_factor
    primes = [p for p in range(3, 10_001, 2) if spf[p] == p]
    a = np.arange(-10_000, 10_001, dtype=np.int64)
    for lo in range(0, len(primes), 64):
        chunk = primes[lo : lo + 64]
        got = _kernels.jacobi_array(a[None, :], np.array(chunk, dtype=np.int64)[:, None])
        want = np.stack([_euler_table(p)[a % p] for p in chunk])
        assert np.array_equal(got, want), chunk


def test_jacobi_i64_matches_python_jacobi():
    # the scalar symbol inside the reference kernel
    rng = random.Random(99)
    for _ in range(20_000):
        n = rng.randrange(1, 10_001, 2)
        a = rng.randint(-10_000, 10_000)
        assert reference.jacobi_i64(a % n, n) == jacobi(a, n)


def test_jacobi_array_matches_python_jacobi():
    # composite moduli, n = 1, and operands near the int64 range of the kernel
    rng = random.Random(7)
    n = [rng.randrange(1, 10_001, 2) for _ in range(5_000)]
    n += [rng.randrange(1, 2**32, 2) for _ in range(5_000)]
    a = [rng.randint(-(2**40), 2**40) for _ in range(len(n))]
    got = _kernels.jacobi_array(np.array(a), np.array(n))
    assert got.dtype == np.int8
    assert got.tolist() == [jacobi(x, m) for x, m in zip(a, n)]


def test_class_index_roundtrip():
    for cid in range(_kernels.CLASS_SPACE):
        sign2, sign3, even_slot, residues = _kernels.decode_class_index(cid)
        assert _kernels.class_index(sign2, sign3, even_slot, residues) == cid

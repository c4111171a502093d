"""The vectorized kernels against scalar references.

``enumerate_block`` is compared exactly with the per-tuple loop kept in
``_reference_kernel``: class tallies, failing tallies and the multiset
of records, over all the odd squarefree cores and over disjoint subsets
of them.  The kernel enumerates one tuple per field, so its records are
unfolded into the six ordered records of each field first; the S3
action it relies on is checked on the (assignment, combo) pairs and on
the class ids.  Core by core, one-core slabs are held against
``_reference_cores``, which asks the scalar oracle ``hnp.oracle_row``
about every triple of the core.  ``jacobi_array`` is checked against
Euler's criterion and against the scalar symbols, and the class tables
entry by entry against the scalar class functions kept in
``_reference_classes``.
"""

import itertools
import math
import random

import numpy as np
import pytest

import _reference_classes as reference_classes
import _reference_kernel as reference
from _reference_cores import core_fields
from _reference_fields import jacobi
from biquad_hnp import _kernels
from biquad_hnp.arith import build_sieve, prime_factors
from biquad_hnp.enumeration import unfold_records


def _sorted_rows(records):
    return records[np.lexsort(records.T[::-1])]


def _ordered_rows(records):
    """The six ordered records of each field of the kernel's records, sorted."""
    return _sorted_rows(unfold_records(records))


def _kernel_args(X):
    """(slabs, root, spf): the core slabs and the root of a kernel call
    to disc X, and the sieve table it reads; the slabs are a list, so
    that several calls can read them."""
    root = math.isqrt(X)
    sieve = build_sieve(root)
    spf = sieve.smallest_prime_factor
    return list(_kernels._core_slabs(root, spf, sieve.mobius)), root, spf


def _reference_block(X):
    """The reference kernel's tallies and records to disc X."""
    root = math.isqrt(X)
    sieve = build_sieve(root)
    return reference.enumerate_block(1, root, root, sieve.smallest_prime_factor, sieve.mobius, True)


@pytest.mark.parametrize("X", [144, 10**4, 10**6, 10**8])
def test_enumerate_block_matches_reference(X):
    got = _kernels.enumerate_block(*_kernel_args(X), True)
    want = _reference_block(X)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert 6 * len(got[2]) == len(want[2])
    assert np.array_equal(_ordered_rows(got[2]), _sorted_rows(want[2]))


@pytest.mark.parametrize("X", [10**6, 10**8])
def test_enumerate_block_core_subsets_add_up_to_reference(X):
    slabs, root, spf = _kernel_args(X)
    want = _reference_block(X)
    # two disjoint subsets cut by core value, each still made of ascending
    # slabs of one omega
    low = [(n[n <= root // 3], w) for n, w in slabs]
    high = [(n[n > root // 3], w) for n, w in slabs]
    parts = [_kernels.enumerate_block(side, root, spf, True) for side in (low, high)]
    assert all(len(p[2]) > 0 for p in parts)
    assert np.array_equal(sum(p[0] for p in parts), want[0])
    assert np.array_equal(sum(p[1] for p in parts), want[1])
    records = np.concatenate([p[2] for p in parts])
    assert np.array_equal(_ordered_rows(records), _sorted_rows(want[2]))


@pytest.mark.parametrize("X, parts", [(10**8, 2), (10**8, 3), (10**11, 2)])
def test_enumerate_block_slab_shares_add_up(X, parts):
    # the parts take disjoint slabs whose tallies and records make the whole
    args = _kernel_args(X)
    collect = X <= 10**8
    whole = _kernels.enumerate_block(*args, collect)
    shares = [_kernels.enumerate_block(*args, collect, p, parts) for p in range(parts)]
    assert all(share[0].sum() > 0 for share in shares)
    assert np.array_equal(sum(share[0] for share in shares), whole[0])
    assert np.array_equal(sum(share[1] for share in shares), whole[1])
    records = np.concatenate([share[2] for share in shares])
    assert np.array_equal(_sorted_rows(records), _sorted_rows(whole[2]))


@pytest.mark.parametrize(
    "w, assignments, pairs, live",
    [(0, 1, 1, 6), (1, 1, 6, 36), (2, 2, 22, 132), (3, 5, 70, 420), (4, 14, 214, 1284),
     (5, 41, 646, 3876), (6, 122, 1942, 11652)],
)
def test_one_pair_per_orbit_is_kept(w, assignments, pairs, live):
    # of the 3^w assignments, those holding the least pair of an S3 orbit:
    # (3^w + 3) / 6 for w >= 1, each orbit of six live pairs kept once
    kept = _kernels._assignments(w)
    assert len(kept) == assignments
    assert sum(len(odd[0]) + len(even[0]) for _, _, odd, even in kept) == pairs
    # the live pairs, by the reference's degenerate filter on the first w odd primes
    primes = [3, 5, 7, 11, 13, 17][:w]
    found = 0
    for digits in itertools.product(range(3), repeat=w):
        m = [math.prod(p for p, d in zip(primes, digits) if d == j) for j in range(3)]
        for pl, s in itertools.product(range(4), repeat=2):
            v = [m[j] * (2 if pl == j + 1 else 1) for j in range(3)]
            v[1], v[2] = v[1] * (-1 if s >= 2 else 1), v[2] * (-1 if s & 1 else 1)
            found += not (v[1] == v[2] and abs(v[1]) == 1 or v[0] == 1 and 1 in v[1:])
    assert found == live == 6 * pairs


def test_assignments_refuse_orbits_that_are_not_free(monkeypatch):
    # with the identity in place of every permutation, no orbit has six members
    monkeypatch.setattr(_kernels, "_S3", ((0, 1, 2),) * 6)
    with pytest.raises(AssertionError, match="not free S3 orbits"):
        _kernels._assignments.__wrapped__(2)


def test_class_id_maps_are_s3_and_keep_the_class_tables():
    maps = _kernels.class_id_maps()
    space = np.arange(_kernels.CLASS_SPACE)
    assert maps.shape == (6, _kernels.CLASS_SPACE) and not maps.flags.writeable
    assert all(np.array_equal(np.sort(m), space) for m in maps)
    group = {m.tobytes() for m in maps}
    assert len(group) == 6 and space.tobytes() in group
    assert all(a[b].tobytes() in group for a in maps for b in maps)
    for table in _kernels._class_tables():
        assert all(np.array_equal(table[m], table) for m in maps)


@pytest.mark.parametrize("limit", [1, 4, 100, 7777, 10**4])
def test_odd_cores_are_grouped_by_omega(limit, monkeypatch):
    # the slab contract of _core_slabs, with windows of 64 odd n and slabs
    # of 8 cores, so that the sparser omegas hold cores back over windows
    monkeypatch.setattr(_kernels, "CORE_WINDOW", 64)
    monkeypatch.setattr(_kernels, "SLAB", 8)
    sieve = build_sieve(10**4)
    slabs = list(_kernels._core_slabs(limit, sieve.smallest_prime_factor, sieve.mobius))
    cores = [n for slab, _ in slabs for n in slab.tolist()]
    want = [n for n in range(1, limit + 1, 2) if sieve.mobius[n] != 0]
    assert sorted(cores) == want
    lengths = {}
    for slab, w in slabs:
        assert slab.dtype == np.int64 and 0 < len(slab) <= 8 and np.all(np.diff(slab) > 0)
        assert all(len(sieve.factor(n)) == w for n in slab.tolist())
        lengths.setdefault(w, []).append(len(slab))
    assert all(set(each[:-1]) <= {8} for each in lengths.values())


def test_enumerate_block_without_collect_returns_no_records():
    total, fails, records = _kernels.enumerate_block(*_kernel_args(10**6), False)
    assert records.shape == (0, 6)
    assert total.sum() == 6084 and fails.sum() == 6 * 119


def _core_mismatches(cores, X):
    """The cores whose (fields, failures) to disc X differ between
    enumerate_block on the one-core slab and the scalar oracle."""
    root = math.isqrt(X)
    spf = build_sieve(root).smallest_prime_factor
    bad = []
    for n in cores:
        total, fails, _ = _kernels.enumerate_block(
            [(np.array([n]), len(prime_factors(n)))], root, spf, False
        )
        assert total.sum() % 6 == fails.sum() % 6 == 0
        if (total.sum() // 6, fails.sum() // 6) != core_fields(n, X):
            bad.append(n)
    return bad


def test_core_oracle_counts_to_1e6():
    mobius = build_sieve(1000).mobius
    cores = [n for n in range(1, 1001, 2) if mobius[n] != 0]
    assert tuple(map(sum, zip(*(core_fields(n, 10**6) for n in cores)))) == (1014, 119)
    assert _core_mismatches(cores, 10**6) == []


def _random_cores_1e12():
    """200 seeded odd squarefree cores up to sqrt(1e12)."""
    mobius = build_sieve(10**6).mobius
    cores = (np.flatnonzero(mobius[1::2]) * 2 + 1).tolist()
    return sorted(random.Random(12).sample(cores, 200))


def test_kernel_matches_core_oracle_at_1e12():
    # a core's symbols (p_k|p_i) are computed with the smaller prime as
    # modulus, below 10^3 at this bound; the larger primes reach 10^6
    cores = _random_cores_1e12()
    assert sum(1 for n in cores if prime_factors(n)[-1] > 10**4) == 89
    assert _core_mismatches(cores, 10**12) == []


def test_core_oracle_catches_a_symbol_flip_on_large_primes(monkeypatch):
    # (a|n) negated wherever a > 10^4: the kernel's verdicts change on
    # the cores with such a prime, and the oracle, which decides by Euler's
    # criterion, does not
    true_symbols = _kernels.jacobi_array

    def flipped(a, n):
        out = true_symbols(a, n)
        return np.where(np.broadcast_to(a, out.shape) > 10**4, -out, out).astype(np.int8)

    monkeypatch.setattr(_kernels, "jacobi_array", flipped)
    bad = _core_mismatches(_random_cores_1e12(), 10**12)
    assert len(bad) > 10 and all(prime_factors(n)[-1] > 10**4 for n in bad)


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
    labels = _kernels.class_labels()
    assert labels.shape == (_kernels.CLASS_SPACE, 6) and labels.dtype == np.int64
    for cid, (sign2, sign3, even_slot, *residues) in enumerate(labels.tolist()):
        assert reference_classes.class_index(sign2, sign3, even_slot, residues) == cid


def test_class_tables_match_reference_entry_by_entry():
    # the kernel's tables are the one definition of c, of the failure
    # prefilter and of the reciprocity sign in the package; the scalar
    # functions are the oracle
    class_c, class_ok, u = _kernels._class_tables()
    for cid, (sign2, sign3, even_slot, *residues) in enumerate(_kernels.class_labels().tolist()):
        eps4 = tuple(1 if r % 4 == 1 else -1 for r in residues)
        assert class_c[cid] == reference_classes.class_c(
            sign2, sign3, eps4, even_slot, context="mod4"
        )
        signed = (residues[0], sign2 * residues[1] % 8, sign3 * residues[2] % 8)
        assert class_ok[cid] == reference_classes.in_failure_class(even_slot, signed), cid
        assert u[cid] == reference_classes.u_factor(*residues, even_slot, sign2, sign3), cid


def test_class_tables_are_read_only():
    # the kernel and asymptotics share the cached arrays, so a write by one
    # caller would corrupt the other
    for table in (*_kernels._class_tables(), _kernels.class_labels()):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = table[0]


"""Tests for the factor table, trial division and the reference sieves
and residue symbols.

The Jacobi reference in _reference_fields is checked against Euler's criterion (an
independent oracle) and against its defining properties: periodicity,
multiplicativity and quadratic reciprocity.
"""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _reference_classes import reciprocity_exponent
from _reference_fields import jacobi, kronecker
from _reference_kernel import build_spf, full_sieve
from biquad_hnp import _kernels, arith, enumeration
from biquad_hnp.arith import is_squarefree, prime_factors


def trial_division_spf(limit: int) -> np.ndarray:
    """Least prime factor of 0..limit by trial division: the least d >= 2
    dividing n, or n itself when no d <= sqrt(n) does (entries 0, 1 are 0, 1)."""
    spf = np.arange(limit + 1)
    rest = np.arange(4, limit + 1)
    d = 2
    while len(rest):
        rest = rest[rest >= d * d]
        hit = rest % d == 0
        spf[rest[hit]] = d
        rest = rest[~hit]
        d += 1
    return spf


def legendre_euler(a: int, p: int) -> int:
    """Euler's criterion a^((p-1)/2) mod p; the oracle for odd primes."""
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


class TestSieve:
    """The factor table of src, and the reference full sieve of
    _reference_kernel (build_spf, build_mobius)."""

    def test_mobius_small(self):
        # direct factorization of each n <= 10
        assert list(full_sieve(10)[1][1:]) == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_mobius_limit_one(self):
        assert full_sieve(1)[1][1] == 1

    def test_spf_91(self):
        assert build_spf(100)[91] == 7  # 91 = 7 * 13

    def test_spf_fixes_primes(self):
        spf = build_spf(1000)
        for p in (2, 3, 5, 7, 97, 541, 997):
            assert spf[p] == p

    def test_mobius_squarefree_sign(self):
        _, mob = full_sieve(10_000)
        for n in (30, 105, 2310, 9699):
            assert mob[n] == (-1) ** len(prime_factors(n))
        for n in (4, 12, 9801, 9000):
            assert mob[n] == 0

    def test_mobius_divisor_sums_vanish(self):
        # sum_{d | n} mu(d) = 0 for n >= 2, which with mu(1) = 1 determines mu
        for limit in (10_000, 10**6):
            _, mob = full_sieve(limit)
            acc = np.zeros(limit + 1, dtype=np.int64)
            for d in np.flatnonzero(mob).tolist():
                acc[d::d] += mob[d]
            assert acc[1] == 1
            assert not acc[2:].any()

    def test_spf_is_least_prime_factor(self):
        # spf[n] is a prime dividing n and no prime of n / spf[n] is smaller
        limit = 10**6
        spf = build_spf(limit)
        n = np.arange(2, limit + 1)
        p = spf[2:]
        assert np.array_equal(n[p == n], _kernels.primes_up_to(limit))
        assert np.array_equal(spf[p], p)
        assert not (n % p).any()
        rest = n // p
        assert np.all((rest == 1) | (spf[rest] >= p))

    def test_spf_table_is_trial_division_at_every_small_limit(self):
        # limits 1..1200 include p^2 and p^2 +- 1 for every prime p <= 31
        want = trial_division_spf(1200).tolist()
        for limit in range(1, 1201):
            assert build_spf(limit).tolist() == want[: limit + 1], limit

    def test_spf_table_is_uint32_and_trial_division_at_1e6(self):
        spf = build_spf(10**6)
        assert spf.dtype == np.uint32
        assert np.array_equal(spf, trial_division_spf(10**6))

    def test_odd_table_is_trial_division_at_every_small_limit(self):
        # entry (n - 1) // 2 of the table to limit, for every odd n <= limit:
        # the least prime factor of a composite, 0 at 1 and at the primes
        spf = trial_division_spf(1200)[1::2]
        n = np.arange(1, 1201, 2)
        want = np.where(spf == n, 0, spf).tolist()
        for limit in range(1, 1201):
            assert _kernels.odd_lpf_table(limit).tolist() == want[: (limit + 1) // 2], limit

    def test_odd_table_is_the_spf_table_at_every_odd_n_to_1e6(self):
        limit = 10**6
        table = _kernels.odd_lpf_table(limit)
        spf = trial_division_spf(limit)[1::2]
        n = np.arange(1, limit + 1, 2, dtype=np.int64)
        assert table.dtype == np.uint16 and len(table) == len(n)
        composite = spf != n  # spf[1] = 1
        assert np.array_equal(table[composite], spf[composite])
        # 0 exactly at 1 and at the odd primes, where the lookup gives n
        assert np.array_equal(np.flatnonzero(table == 0), np.flatnonzero(~composite))
        assert np.array_equal(_kernels.least_factor(table, n), spf)

    def test_odd_table_limit_2_to_the_32_is_refused_unallocated(self, monkeypatch):
        monkeypatch.setattr(_kernels, "np", None)
        with pytest.raises(ValueError):
            _kernels.odd_lpf_table(2**32)

    def test_odd_squarefree_count_is_the_sieve_count(self):
        # Q(y), the odd squarefree n <= y, from mu to sqrt(y) only, against
        # the cores that the core stream reads off the factor table to y
        assert _kernels.odd_squarefree_count(0) == 0
        for y in [*range(1, 3001), 10**6, 10**7]:
            slabs = _kernels._core_slabs(y, _kernels.odd_lpf_table(y))
            want = sum(len(n) for n, _ in slabs)
            assert _kernels.odd_squarefree_count(y) == want, y

    def test_odd_squarefree_count_takes_the_reference_mobius_values(self):
        # the same sum with mu from the reference full sieve, to y = 2^32 - 1
        # (every odd d <= 65,535): the pass over the primes gives each mu
        for y in (3 * 10**9, 2**32 - 1, 10**10):
            r = math.isqrt(y)
            mob = full_sieve(r)[1][1::2].astype(np.int64)
            d = np.arange(1, r + 1, 2, dtype=np.int64)
            assert _kernels.odd_squarefree_count(y) == int(mob @ ((y // (d * d) + 1) // 2)), y

    @pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 48, 49, 50, 1200, 10**6])
    def test_primes_are_int64_and_trial_division(self, limit):
        n = np.arange(limit + 1)
        want = n[2:][trial_division_spf(limit)[2:] == n[2:]]
        primes = _kernels.primes_up_to(limit)
        assert primes.dtype == np.int64
        assert np.array_equal(primes, want)

    def test_primes_peak_is_the_flags_and_one_int64_array(self):
        # the sieve's flags (a byte per n) and the primes once as int64;
        # a second int64 copy of the primes would add 8 bytes a prime
        limit = 10**6
        tracemalloc.start()
        try:
            primes = _kernels.primes_up_to(limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit + 12 * len(primes)

    def test_count_sieve_limits_fit_uint32(self):
        # count's factor table reaches isqrt(X) for X < MAX_DISC_EXCLUSIVE,
        # below the 2^32 that odd_lpf_table refuses, so that every odd
        # composite n it covers has its least prime factor below 2^16, in
        # uint16, and t stays in uint32 in _core_slabs
        assert math.isqrt(enumeration.MAX_DISC_EXCLUSIVE - 1) < 2**32

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            _kernels.odd_lpf_table(0)

    @staticmethod
    def _peak_growth(setup: str) -> int:
        """Bytes of peak RSS growth while setup runs in a fresh process.

        The peak is VmHWM, that of the process image: ru_maxrss would
        start at the peak of this test process, which spawned it, and miss
        any growth below that.
        """
        code = (
            "peak = lambda: int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0]); "
            f"import numpy, biquad_hnp._kernels; before = peak(); {setup}; "
            "print(peak() - before)"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            check=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        ).stdout
        return int(out) * 1024

    def test_peak_memory_is_within_the_refusal_bound(self):
        # the bound a count refuses by must cover the real peak of its
        # factor table and of its pass over the core slabs
        limit = 4 * 10**6
        grown = self._peak_growth(
            "from biquad_hnp._kernels import _core_slabs, odd_lpf_table; "
            f"table = odd_lpf_table({limit}); all(_core_slabs({limit}, table))"
        )
        assert grown <= enumeration.TABLE_BYTES_PER_N * (limit + 1)



class TestJacobi:
    def test_examples(self):
        assert jacobi(17, 13) == 1  # 17 = 4 = 2^2 mod 13
        assert jacobi(-3, 13) == 1  # -3 = 10 = 6^2 mod 13
        assert jacobi(2, 15) == 1  # (2|3)(2|5) = (-1)(-1)

    @pytest.mark.parametrize("n", [1, 3, 9, 15, 9999])
    def test_one_is_a_square_everywhere(self, n):
        assert jacobi(1, n) == 1

    @pytest.mark.parametrize("n", [0, -3, 2, 100])
    def test_invalid_modulus(self, n):
        with pytest.raises(ValueError):
            jacobi(5, n)

    def test_euler_criterion_exhaustive_small(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 97, 101, 997):
            for a in range(-2 * p, 2 * p + 1):
                assert jacobi(a, p) == legendre_euler(a, p), (a, p)

    def test_euler_criterion_random_full_range(self):
        rng = random.Random(20260810)
        primes = _kernels.primes_up_to(10_000)[1:].tolist()
        for _ in range(20_000):
            p = rng.choice(primes)
            a = rng.randint(-10_000, 10_000)
            assert jacobi(a, p) == legendre_euler(a, p), (a, p)

    def test_multiplicativity_randomized(self):
        rng = random.Random(1)
        for _ in range(20_000):
            n = rng.randrange(1, 10_001, 2)
            a = rng.randint(-10_000, 10_000)
            b = rng.randint(-10_000, 10_000)
            assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    def test_periodicity_randomized(self):
        rng = random.Random(2)
        for _ in range(20_000):
            n = rng.randrange(1, 10_001, 2)
            a = rng.randint(-10_000, 10_000)
            assert jacobi(a, n) == jacobi(a % n, n)

    def test_quadratic_reciprocity_exhaustive(self):
        # (m|n)(n|m) = (-1)^(nu(m) nu(n)) for odd coprime m, n >= 3
        for m in range(3, 501, 2):
            for n in range(3, 501, 2):
                if math.gcd(m, n) != 1:
                    continue
                sign = -1 if reciprocity_exponent(m) * reciprocity_exponent(n) else 1
                assert jacobi(m, n) * jacobi(n, m) == sign, (m, n)

    def test_zero_iff_common_factor(self):
        for n in range(1, 200, 2):
            for a in range(-50, 50):
                assert (jacobi(a, n) == 0) == (math.gcd(a, n) != 1)


class TestKronecker:
    def test_examples(self):
        assert kronecker(17, 2) == 1  # 17 = 1 mod 8
        assert kronecker(5, 2) == -1  # 5 = 5 mod 8
        assert kronecker(12, 3) == 0  # shared factor 3

    def test_two_part_rule(self):
        for a in range(-40, 41):
            expected = 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
            assert kronecker(a, 2) == expected

    def test_agrees_with_jacobi_on_odd_positive(self):
        rng = random.Random(3)
        for _ in range(5_000):
            n = rng.randrange(1, 2_001, 2)
            a = rng.randint(-2_000, 2_000)
            assert kronecker(a, n) == jacobi(a, n)

    def test_multiplicative_in_modulus(self):
        rng = random.Random(4)
        for _ in range(5_000):
            a = rng.randint(-500, 500)
            n1 = rng.randint(1, 60)
            n2 = rng.randint(1, 60)
            assert kronecker(a, n1 * n2) == kronecker(a, n1) * kronecker(a, n2)

    def test_zero_modulus(self):
        with pytest.raises(ValueError):
            kronecker(3, 0)


class TestReciprocityExponent:
    def test_values(self):
        assert reciprocity_exponent(1) == 0
        assert reciprocity_exponent(3) == 1
        assert reciprocity_exponent(-3) == 0  # -3 = 1 mod 4
        assert reciprocity_exponent(-1) == 1

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            reciprocity_exponent(6)


class TestSquarefree:
    def test_values(self):
        assert is_squarefree(1) and is_squarefree(-1)
        assert is_squarefree(30) and is_squarefree(-30)
        assert not is_squarefree(0)
        assert not is_squarefree(4)
        assert not is_squarefree(-12)
        assert not is_squarefree(49)

    def test_against_sieve(self):
        _, mob = full_sieve(3000)
        for n in range(1, 3001):
            assert is_squarefree(n) == (mob[n] != 0)


class TestPrimeFactors:
    def test_basic(self):
        assert prime_factors(1) == []
        assert prime_factors(-84) == [2, 3, 7]
        assert prime_factors(97) == [97]

    def test_sieve_path_matches(self):
        # a table to 500 covers the odd part of every even n <= 1000 and
        # the odd n <= 499; the odd n above are trial-divided
        table = _kernels.odd_lpf_table(500)
        for n in range(1, 1001):
            assert prime_factors(n, table) == prime_factors(n), n

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            prime_factors(0)


class TestMemoryBound:
    def test_refuses_beyond_physical_memory_only(self, monkeypatch):
        monkeypatch.setattr(arith, "physical_memory", lambda: 2000)
        arith.refuse_beyond_memory(2, 999, "a table")  # exactly the memory
        with pytest.raises(MemoryError, match="a table to 1000 "):
            arith.refuse_beyond_memory(2, 1000, "a table")

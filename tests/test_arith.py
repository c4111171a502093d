"""Tests for sieves, trial division and the reference residue symbols.

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
from biquad_hnp import _kernels, enumeration
from biquad_hnp.arith import (
    SIEVE_BYTES_PER_N,
    build_sieve,
    is_squarefree,
    prime_factors,
)


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
    def test_mobius_small(self):
        # direct factorization of each n <= 10
        assert list(build_sieve(10).mobius[1:]) == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_mobius_limit_one(self):
        assert build_sieve(1).mobius[1] == 1

    def test_spf_91(self):
        assert build_sieve(100).smallest_prime_factor[91] == 7  # 91 = 7 * 13

    def test_spf_fixes_primes(self):
        sieve = build_sieve(1000)
        spf = sieve.smallest_prime_factor
        for p in (2, 3, 5, 7, 97, 541, 997):
            assert spf[p] == p

    def test_mobius_squarefree_sign(self):
        sieve = build_sieve(10_000)
        for n in (30, 105, 2310, 9699):
            assert sieve.mobius[n] == (-1) ** len(prime_factors(n))
        for n in (4, 12, 9801, 9000):
            assert sieve.mobius[n] == 0

    def test_mobius_divisor_sums_vanish(self):
        # sum_{d | n} mu(d) = 0 for n >= 2, which with mu(1) = 1 determines mu
        for limit in (10_000, 10**6):
            mob = build_sieve(limit).mobius
            acc = np.zeros(limit + 1, dtype=np.int64)
            for d in np.flatnonzero(mob).tolist():
                acc[d::d] += mob[d]
            assert acc[1] == 1
            assert not acc[2:].any()

    def test_spf_is_least_prime_factor(self):
        # spf[n] is a prime dividing n and no prime of n / spf[n] is smaller
        limit = 10**6
        spf = build_sieve(limit).smallest_prime_factor
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
            assert _kernels.build_spf(limit).tolist() == want[: limit + 1], limit

    def test_spf_table_is_uint32_and_trial_division_at_1e6(self):
        spf = _kernels.build_spf(10**6)
        assert spf.dtype == np.uint32
        assert np.array_equal(spf, trial_division_spf(10**6))

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

    def test_spf_limit_2_to_the_32_is_refused_unallocated(self, monkeypatch):
        # with numpy out of reach, an allocation would raise AttributeError
        monkeypatch.setattr(_kernels, "np", None)
        with pytest.raises(ValueError):
            _kernels.build_spf(2**32)

    def test_count_sieve_limits_fit_uint32(self):
        # count sieves to isqrt(X) for X < MAX_DISC_EXCLUSIVE; a larger
        # bound must fail here rather than wrap the uint32 table
        assert math.isqrt(enumeration.MAX_DISC_EXCLUSIVE - 1) < 2**32

    def test_factor(self):
        sieve = build_sieve(1000)
        assert sieve.factor(1) == []
        assert sieve.factor(360) == [2, 3, 5]
        with pytest.raises(ValueError):
            sieve.factor(1001)

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            build_sieve(0)

    def test_peak_memory_is_within_the_refusal_bound(self):
        # the bound build_sieve refuses by must cover the real peak of the
        # sieve and of a count's pass over the core slabs, measured as growth
        # of the peak RSS (KiB) in a fresh process.  The peak is VmHWM, that
        # of the process image: ru_maxrss would start at the peak of this
        # test process, which spawned it, and miss any growth below that.
        limit = 4 * 10**6
        code = (
            "from biquad_hnp.arith import build_sieve; "
            "from biquad_hnp._kernels import _core_slabs; "
            "peak = lambda: int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0]); "
            f"before = peak(); s = build_sieve({limit}); "
            f"all(_core_slabs({limit}, s.smallest_prime_factor, s.mobius)); "
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
        assert int(out) * 1024 <= SIEVE_BYTES_PER_N * (limit + 1)


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
        sieve = build_sieve(10_000)
        primes = [
            p
            for p in range(3, 10_001, 2)
            if sieve.smallest_prime_factor[p] == p
        ]
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
        mob = build_sieve(3000).mobius
        for n in range(1, 3001):
            assert is_squarefree(n) == (mob[n] != 0)


class TestPrimeFactors:
    def test_basic(self):
        assert prime_factors(1) == []
        assert prime_factors(-84) == [2, 3, 7]
        assert prime_factors(97) == [97]

    def test_sieve_path_matches(self):
        sieve = build_sieve(500)
        for n in range(1, 501):
            assert prime_factors(n, sieve) == prime_factors(n)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            prime_factors(0)

"""Tests for Euler products, main terms and the exact class-weight identities.

The class sums run over the kernel's class tables; the scalar class
functions they replaced, u_factor among them, are kept as the oracle
``_reference_classes``.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from _reference_classes import class_c, in_failure_class, u_factor
from biquad_hnp import _kernels
from biquad_hnp.asymptotics import (
    EULER_GAMMA,
    SIGN_PAIRS,
    STIELTJES_GAMMA1,
    ConstantCrossCheck,
    _block_sums,
    _f0_polynomial,
    _primes_up_to,
    _scales,
    class_moments,
    degenerate_class_weight,
    euler_product_failing,
    euler_product_total,
    expansion_total,
    expansion_total_coefficients,
    failing_class_weight,
    main_term_constant_crosscheck,
    main_term_failing,
    main_term_total,
    signed_failing_class_weights,
    total_class_weight,
)
from biquad_hnp.enumeration import enumerate_fields


class TestEulerProducts:
    def test_total_two_and_three_factor_arithmetic(self):
        assert euler_product_total(2).value == pytest.approx((1 / 2) ** 3 * (5 / 2), rel=1e-12)
        assert euler_product_total(3).value == pytest.approx(
            (1 / 2) ** 3 * (5 / 2) * (2 / 3) ** 3 * 2, rel=1e-12
        )
        assert euler_product_total(4).value == euler_product_total(3).value

    def test_failing_two_and_three_factor_arithmetic(self):
        assert euler_product_failing(2).value == pytest.approx(
            (1 / 2) ** 1.5 * (7 / 4), rel=1e-12
        )
        # the exact closed form of the 3-truncation is (21/8) / 3^(3/2)
        assert euler_product_failing(3).value == pytest.approx(
            (21 / 8) / 3**1.5, rel=1e-12
        )

    def test_partial_products_strictly_decreasing(self):
        limits = (2, 3, 5, 11, 101, 1009, 10007)
        for builder in (euler_product_total, euler_product_failing):
            values = [builder(p).value for p in limits]
            assert all(a > b > 0 for a, b in zip(values, values[1:]))

    def test_tail_bound_contains_later_truncations(self):
        for builder in (euler_product_total, euler_product_failing):
            for p in (2, 3, 11, 101, 1009):
                ref = builder(p)
                for q in (10007, 100003):
                    assert abs(ref.value - builder(q).value) <= ref.tail_bound
                assert builder(10007).tail_bound < ref.tail_bound

    def test_pinned_high_precision_values(self):
        # regression pins computed at prime_limit 10^7 (tails < 1e-7 relative)
        assert euler_product_total(10**7).value == pytest.approx(0.1148840481, rel=1e-8)
        assert euler_product_failing(10**7).value == pytest.approx(0.4278654408, rel=1e-8)

    def test_rejects_tiny_limit(self):
        with pytest.raises(ValueError):
            euler_product_total(1)


class TestMainTerms:
    def test_zero_at_one(self):
        assert main_term_total(1, constant=0.5) == 0.0
        assert main_term_failing(1, constant=0.5) == 0.0

    def test_total_closed_form_at_e_squared(self):
        x = math.e**2
        assert main_term_total(x, constant=1.0) == pytest.approx(
            (23 / 960) * math.e * 4, rel=1e-12
        )

    def test_failing_closed_form_at_e(self):
        assert main_term_failing(math.e, constant=1.0) == pytest.approx(
            math.sqrt(math.e) / (3 * math.sqrt(2 * math.pi)), rel=1e-12
        )

    def test_default_constant_used(self):
        x = 1e10
        c = euler_product_total().value
        assert main_term_total(x) == pytest.approx(main_term_total(x, c), rel=1e-12)


class TestUFactor:
    def test_trivial_class(self):
        assert u_factor(1, 1, 1, 0, 1, 1) == 1

    def test_two_nonresidues(self):
        # exponent nu(3)nu(3) + nu(3)nu(1) + nu(1)nu(3) = 1
        assert u_factor(3, 3, 1, 0, 1, 1) == -1

    def test_even_slot_symbol(self):
        # (2 | 7*1) = +1 since 7 = 7 mod 8
        assert u_factor(1, 7, 1, 1, 1, 1) == 1
        # (2 | 3*1) = -1 since 3 = 3 mod 8
        assert u_factor(1, 3, 1, 1, 1, 1) == -1

    def test_depends_only_on_residues_mod_8(self):
        rng = random.Random(7)
        for _ in range(10_000):
            ks = [rng.randrange(1, 10_000, 2) for _ in range(3)]
            slot = rng.randrange(4)
            s2 = rng.choice((1, -1))
            s3 = rng.choice((1, -1))
            reduced = [k % 8 for k in ks]
            assert u_factor(*ks, slot, s2, s3) == u_factor(*reduced, slot, s2, s3)

    def test_even_argument_rejected(self):
        with pytest.raises(ValueError):
            u_factor(2, 1, 1, 0, 1, 1)

    def test_values_in_pm_one(self):
        for k1 in (1, 3, 5, 7):
            for k2 in (1, 3, 5, 7):
                for slot in range(4):
                    assert u_factor(k1, k2, 3, slot, -1, 1) in (1, -1)


class TestFailureClassMembership:
    def test_examples(self):
        assert in_failure_class(0, (1, 5, 1))  # all 1 mod 4
        assert in_failure_class(0, (3, 3, 1))  # pair equal mod 8, third opposite
        assert not in_failure_class(1, (1, 3, 5))  # needs e2 == e3 mod 8
        assert in_failure_class(1, (5, 3, 3))
        assert not in_failure_class(0, (1, 5, 3))

    def test_rejects_bad_residues(self):
        with pytest.raises(ValueError):
            in_failure_class(0, (1, 2, 3))
        with pytest.raises(ValueError):
            in_failure_class(5, (1, 1, 1))


class TestClassC:
    def test_mod4_table(self):
        assert class_c(1, 1, (1, 1, 1), 0, context="mod4") == 1
        assert class_c(1, 1, (1, 1, -1), 0, context="mod4") == 4
        assert class_c(1, 1, (1, 1, 1), 1, context="mod4") == 4
        assert class_c(1, -1, (1, 1, -1), 1, context="mod4") == 4  # s3*e3 = +1 = e2
        assert class_c(1, 1, (1, -1, 1), 1, context="mod4") == 8

    def test_mod4_range(self):
        from itertools import product

        seen = set()
        for s2, s3 in SIGN_PAIRS:
            for slot in range(4):
                for eps in product((1, -1), repeat=3):
                    c = class_c(s2, s3, eps, slot, context="mod4")
                    seen.add(c)
                    assert c in (1, 4, 8)
                    if c == 8:
                        e = (eps[0], s2 * eps[1], s3 * eps[2])
                        assert slot != 0 and len(set(e[i] for i in _odd_pair(slot))) == 2
        assert seen == {1, 4, 8}

    def test_mod8_collapse(self):
        assert class_c(1, 1, (1, 5, 1), 0, context="mod8") == 1
        assert class_c(1, 1, (3, 3, 1), 0, context="mod8") == 4
        assert class_c(1, 1, (1, 1, 1), 2, context="mod8") == 4

    def test_unknown_context(self):
        with pytest.raises(ValueError):
            class_c(1, 1, (1, 1, 1), 0, context="mod16")


def _odd_pair(slot):
    return {1: (1, 2), 2: (0, 2), 3: (0, 1)}[slot]


def _signed_weights_by_id():
    """Sum of u/(c 2^k) over the failure-compatible ids of each sign pair,
    one id at a time, in SIGN_PAIRS order."""
    c, ok, u = _kernels._class_tables()
    labels = _kernels.class_labels().tolist()
    sums = dict.fromkeys(SIGN_PAIRS, Fraction(0))
    for w, ci, (sign2, sign3, slot, *_) in zip((ok * u).tolist(), c.tolist(), labels):
        sums[sign2, sign3] += Fraction(w, ci * (1 if slot == 0 else 2))
    return tuple(sums.values())


class TestExactIdentities:
    def test_total_class_weight_is_23(self):
        assert total_class_weight() == 23

    def test_total_weight_splits_14_plus_9(self):
        by_slot = _block_sums(1).sum(axis=0) / 8
        assert by_slot.tolist() == [14, 3, 3, 3]
        assert by_slot[0] == 14 and by_slot[1:].sum() == 9

    def test_failing_class_weight_is_112(self):
        assert failing_class_weight() == 112

    def test_failing_weight_splits_88_plus_24(self):
        by_slot = _block_sums(_kernels._class_tables()[1]).sum(axis=0)
        assert by_slot.tolist() == [88, 8, 8, 8]
        assert by_slot[0] == 88 and by_slot[1:].sum() == 24

    def test_signed_weight_cancels(self):
        values = signed_failing_class_weights()
        assert all(isinstance(v, Fraction) for v in values)
        assert sum(values) == 0

    def test_signed_weight_cancels_per_sign_pair(self):
        assert signed_failing_class_weights() == _signed_weights_by_id() == (0, 0, 0, 0)

    def test_blocks_are_sign_pair_and_slot(self):
        # the (4, 4, 64) reshape of the class ids puts SIGN_PAIRS[s] and the
        # slot on the first two axes
        labels = _kernels.class_labels().reshape(4, 4, 64, 6)
        for s, slot in np.ndindex(4, 4):
            assert (labels[s, slot, :, :2] == SIGN_PAIRS[s]).all()
            assert (labels[s, slot, :, 2] == slot).all()

    def test_non_integer_sums_are_exact(self, monkeypatch):
        # a weight factor that does not divide 16 still gives exact sums
        c, ok, u = _kernels._class_tables()
        perturbed = c.copy()
        perturbed[0] = 3  # the all-positive, all-odd class of residues (1, 1, 1)
        monkeypatch.setattr(_kernels, "_class_tables", lambda: (perturbed, ok, u))
        assert total_class_weight() == Fraction(275, 12)
        assert failing_class_weight() == Fraction(334, 3)
        # id 0 lies in the first sign pair, (1, 1)
        want = (Fraction(-2, 3), 0, 0, 0)
        assert signed_failing_class_weights() == _signed_weights_by_id() == want


class TestConstantCrossCheck:
    def test_factor_identity_exact(self):
        # (1 + 1/p)(1 + 1/(2p+2)) = 1 + 3/(2p)
        for p in (2, 3, 5, 7, 97):
            lhs = Fraction(p + 1, p) * (1 + Fraction(1, 2 * p + 2))
            assert lhs == 1 + Fraction(3, 2 * p)

    def test_agreement_modest_limit(self):
        check = main_term_constant_crosscheck(10**5)
        assert isinstance(check, ConstantCrossCheck)
        assert check.agrees
        assert check.residual < 1e-6

    def test_residual_shrinks(self):
        r1 = main_term_constant_crosscheck(10**4).residual
        r2 = main_term_constant_crosscheck(10**6).residual
        assert r2 < r1


def _f0_direct(y):
    """F_0(y) by a sieve: 3^omega(n) summed over odd squarefree n <= y."""
    values = np.ones(y + 1, dtype=np.int64)
    values[::2] = 0
    for p in _primes_up_to(y)[1:].tolist():
        values[p::p] *= 3
        values[p * p :: p * p] = 0
    return int(values.sum())


class TestExpansionTotal:
    def test_leading_coefficient_is_main_term(self):
        a = expansion_total_coefficients().A
        assert a == pytest.approx((23 / 960) * euler_product_total(10**7).value, rel=1e-12)

    def test_pinned_coefficients(self):
        e = expansion_total_coefficients()
        assert e.B == pytest.approx(0.0513796, rel=1e-6)
        assert e.C == pytest.approx(-0.214858, rel=1e-5)

    def test_rejects_x_below_one(self):
        with pytest.raises(ValueError):
            expansion_total(0.5)

    def test_closed_form(self):
        e = expansion_total_coefficients()
        log_x = math.log(1e10)
        assert expansion_total(1e10) == pytest.approx(
            1e5 * (e.A * log_x**2 + e.B * log_x + e.C), rel=1e-12
        )

    def test_class_moments_exact(self):
        moments = class_moments()
        assert moments == [Fraction(23, 8), Fraction(21, 4), Fraction(63, 4)]
        assert moments[0] == total_class_weight() / 8

    def test_chi4_weights_vanish_within_each_scale(self):
        # identity (A): the weight e_k(eps) of F_k, k = 1, 2, 3, sums to 0
        # over the ids of each scale, so F_0 alone gives S exactly
        scales = _scales().ravel()
        eps = np.where(_kernels.class_labels()[:, 3:] % 4 == 1, 1, -1)
        e1, e2, e3 = eps.sum(axis=1), (eps.sum(axis=1) ** 2 - 3) // 2, eps.prod(axis=1)
        assert sorted(set(scales.tolist())) == [1, 4, 8, 16]
        for scale in (1, 4, 8, 16):
            at = scales == scale
            assert at.any()
            assert [int(e[at].sum()) for e in (e1, e2, e3)] == [0, 0, 0]

    def test_degenerate_class_weight_is_9(self):
        assert degenerate_class_weight() == 9

    def test_f0_main_part_matches_direct_sum(self):
        y = 10**6
        c0, c1, c2 = _f0_polynomial(10**7)
        log_y = math.log(y)
        main = y * (c2 * log_y**2 + c1 * log_y + c0)
        # the remainder is O(y^(1/2+o(1))); a wrong Laurent or Euler-product
        # coefficient shifts it by y / log^j y
        assert abs(_f0_direct(y) - main) <= math.sqrt(y)

    @pytest.mark.parametrize(
        "x, count, tolerance", [(10**8, 16679, 5e-3), (10**10, 242710, 1e-3)]
    )
    def test_tracks_enumerated_count(self, x, count, tolerance):
        s = enumerate_fields(x).S
        assert s == count
        assert abs(s / expansion_total(x) - 1) < tolerance
        assert abs(s / main_term_total(x) - 1) > 0.5  # the main term alone is far off

    def test_constants_agree_with_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            gamma1 = float(mpmath.stieltjes(1))
        assert EULER_GAMMA == pytest.approx(float(mpmath.euler), rel=1e-15)
        assert STIELTJES_GAMMA1 == pytest.approx(gamma1, rel=1e-14)

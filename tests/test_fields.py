"""Tests for field triples, subfield discriminants and canonical keys."""

import math

import pytest

from _reference_enumeration import iter_valid_triples
from _reference_fields import canonical_key, class_label, quadratic_discriminant
from biquad_hnp.fields import InvalidFieldError, field_values, from_generators


class TestQuadraticDiscriminant:
    def test_branches(self):
        assert quadratic_discriminant(5) == 5
        assert quadratic_discriminant(-1) == -4  # -1 = 3 mod 4
        assert quadratic_discriminant(2) == 8
        assert quadratic_discriminant(-3) == -3
        assert quadratic_discriminant(-5) == -20

    @pytest.mark.parametrize("d", [0, 1, 4, 12, -9])
    def test_rejects(self, d):
        with pytest.raises(InvalidFieldError):
            quadratic_discriminant(d)


class TestFromGenerators:
    def test_examples(self):
        assert from_generators(-1, 2) == (1, -1, 2)
        assert from_generators(26, 39) == (13, 2, 3)
        assert type(from_generators(13, 17)) is tuple

    def test_equal_generators_rejected(self):
        with pytest.raises(InvalidFieldError):
            from_generators(13, 13)

    def test_quadratic_degenerations_rejected(self):
        with pytest.raises(InvalidFieldError):
            from_generators(1, 5)
        with pytest.raises(InvalidFieldError):
            from_generators(5, 1)

    def test_non_squarefree_rejected(self):
        with pytest.raises(InvalidFieldError):
            from_generators(4, 5)

    def test_negative_pair(self):
        # Q(sqrt(-2), sqrt(-6)): m = gcd(2, 6) = 2 with signs on the parts
        assert from_generators(-2, -6) == (2, -1, -3)


class TestTripleValidation:
    # field_values runs fields._check before it derives anything
    @pytest.mark.parametrize(
        "m,a1,b1",
        [
            (0, 2, 3),
            (1, 0, 3),
            (2, 2, 3),  # not coprime
            (1, -1, -1),  # kernel a1*b1 = 1
            (1, 1, 5),  # kernel m*a1 = 1
            (3, 1, 1),  # repeated kernel
            (5, -1, -1),
        ],
    )
    def test_rejects(self, m, a1, b1):
        with pytest.raises(InvalidFieldError):
            field_values(m, a1, b1)

    @pytest.mark.parametrize(
        "m,a1,b1,text",
        [
            (0, 2, 3, "m must be positive, got 0"),
            (1, 0, 3, "a1 and b1 must be nonzero"),
            (2, 2, 3, "components of FieldTriple(m=2, a1=2, b1=3) are not pairwise coprime"),
            (1, -1, -1, "FieldTriple(m=1, a1=-1, b1=-1) has a repeated quadratic subfield"),
            (1, 1, 5, "FieldTriple(m=1, a1=1, b1=5) contains the kernel 1 (quadratic field)"),
            (3, 1, 1, "FieldTriple(m=3, a1=1, b1=1) has a repeated quadratic subfield"),
            (5, -1, -1, "FieldTriple(m=5, a1=-1, b1=-1) has a repeated quadratic subfield"),
        ],
    )
    def test_error_texts(self, m, a1, b1, text):
        with pytest.raises(InvalidFieldError) as exc:
            field_values(m, a1, b1)
        assert str(exc.value) == text


class TestFieldValues:
    def test_gaussian_times_sqrt2(self):
        assert field_values(1, -1, 2) == (-1, 2, -2, -4, 8, -8, 8, 256)

    def test_all_one_mod_four(self):
        assert field_values(1, 13, 17) == (13, 17, 221, 13, 17, 221, 1, 221**2)

    def test_exactly_one_kernel_one_mod_four(self):
        assert field_values(1, -1, 3) == (-1, 3, -3, -4, 12, -3, 4, 144)

    def test_disc_identity_and_parity_sweep(self):
        # both sides of disc = (c m |a1 b1|)^2 plus the parity law, for all
        # valid triples with m |a1 b1| <= 300 (disc up to 5.76e6)
        seen_c = set()
        for m, a1, b1 in iter_valid_triples(300):
            # field_values raises if the identity fails
            *kernels, _, _, _, c, disc = field_values(m, a1, b1)
            ones = sum(1 for k in kernels if k % 4 == 1)
            assert ones in (0, 1, 3)
            assert disc == (c * m * abs(a1 * b1)) ** 2
            assert disc > 0
            seen_c.add(c)
        assert seen_c == {1, 4, 8}


class TestCanonicalKey:
    def test_examples(self):
        assert canonical_key((1, -1, 3)) == (-4, -3, 12)
        assert canonical_key((1, 3, -1)) == (-4, -3, 12)
        # sign migration between components, same field
        assert canonical_key((1, -1, -3)) == (-4, -3, 12)

    def test_generator_permutations_agree_exhaustive(self):
        # all 6 ordered choices of two kernels give one key, for every
        # squarefree generator pair with |a|, |b| <= 200
        squarefree = [n for n in range(-200, 201) if n not in (0, 1) and _is_sf(n)]
        for i, a in enumerate(squarefree):
            for b in squarefree[i + 1 :]:
                m = math.gcd(abs(a), abs(b))
                a1, b1 = a // m, b // m
                key = canonical_key((m, a1, b1))
                k1, k2, k3 = a, b, a1 * b1
                for x, y in ((k2, k1), (k1, k3), (k3, k1), (k2, k3), (k3, k2)):
                    g = math.gcd(abs(x), abs(y))
                    assert canonical_key((g, x // g, y // g)) == key

    def test_kernel_roundtrip_idempotent(self):
        for m, a1, b1 in iter_valid_triples(60):
            key = canonical_key((m, a1, b1))
            k1, k2, k3 = m * a1, m * b1, a1 * b1
            assert canonical_key(from_generators(k2, k3)) == key
            assert canonical_key(from_generators(k3, k1)) == key


def _is_sf(n):
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


class TestClassLabel:
    def test_examples(self):
        sign2, sign3, even_slot, residues = class_label((1, -1, 2))
        assert (sign2, sign3, even_slot) == (-1, 1, 3)
        assert residues == (1, 1, 1)

        sign2, sign3, even_slot, residues = class_label((13, 2, 3))
        assert (sign2, sign3, even_slot) == (1, 1, 2)
        assert residues == (5, 1, 3)

        sign2, sign3, even_slot, residues = class_label((1, 13, 17))
        assert (sign2, sign3, even_slot) == (1, 1, 0)
        assert residues == (1, 5, 1)

    def test_at_most_one_even_component(self):
        for t in iter_valid_triples(120):
            _, _, even_slot, residues = class_label(t)
            evens = sum(1 for v in t if v % 2 == 0)
            assert evens <= 1
            assert (even_slot == 0) == (evens == 0)
            assert all(r in (1, 3, 5, 7) for r in residues)

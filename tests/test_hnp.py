"""Tests for the two Hasse-norm-principle classifiers.

classify_by_splitting is the ground truth (it reads off decomposition
groups at ramified primes); classify_by_congruences must agree with it
everywhere.  The exhaustive sweep to the acceptance bound lives in
test_acceptance; here we cover the documented examples, the case
structure, and a medium sweep.
"""

import numpy as np
import pytest

from biquad_hnp.arith import build_sieve, kronecker
from biquad_hnp.enumeration import iter_valid_triples
from biquad_hnp.fields import FieldTriple, subfield_data
from biquad_hnp.hnp import classify_by_congruences, classify_by_splitting, splitting_witnesses


class TestSplittingOracle:
    def test_fails_example(self):
        status = classify_by_splitting(FieldTriple(1, 13, 17))
        assert status.fails
        assert status.witness is None

    def test_holds_with_witness_2(self):
        status = classify_by_splitting(FieldTriple(1, -1, 3))
        assert not status.fails
        assert status.witness == 2

    def test_totally_ramified_2(self):
        # discs (8, 12, 24): 2 divides all three
        status = classify_by_splitting(FieldTriple(1, 2, 3))
        assert status.verdict == "holds"
        assert status.witness == 2

    def test_witness_divides_disc(self):
        for t in iter_valid_triples(200):
            status = classify_by_splitting(t)
            data = subfield_data(t)
            if status.fails:
                assert status.witness is None
            else:
                assert data.field_disc % status.witness == 0

    def test_failure_means_every_ramified_prime_splits_somewhere(self):
        # independent per-prime recheck of the Fails verdict
        from biquad_hnp.arith import prime_factors

        checked = 0
        for t in iter_valid_triples(150):
            if not classify_by_splitting(t).fails:
                continue
            checked += 1
            data = subfield_data(t)
            primes = set(prime_factors(t.m * t.a1 * t.b1))
            if data.c > 1:
                primes.add(2)
            for p in primes:
                assert any(kronecker(d, p) == 1 for d in data.fundamental_discs)
        assert checked > 10


class TestSplittingWitnesses:
    @staticmethod
    def _columns(triples):
        cols = np.array([(t.m, t.a1, t.b1) for t in triples], dtype=np.int64)
        discs = np.array([subfield_data(t).fundamental_discs for t in triples], dtype=np.int64)
        return cols[:, 0], cols[:, 1], cols[:, 2], discs

    def test_matches_scalar_oracle(self):
        # every sign pattern with |m a1 b1| <= 2000, as in the verify sweep
        sieve = build_sieve(2000)
        triples = list(iter_valid_triples(2000))
        assert len(triples) == 64140
        got = splitting_witnesses(*self._columns(triples), sieve)
        want = [classify_by_splitting(t, sieve).witness or 0 for t in triples]
        assert got.tolist() == want
        assert 0 < np.count_nonzero(got == 0) < len(got)

    def test_empty(self):
        m, a1, b1, discs = self._columns([FieldTriple(1, -1, 3)])
        got = splitting_witnesses(m[:0], a1[:0], b1[:0], discs[:0], build_sieve(10))
        assert got.shape == (0,)

    def test_sieve_must_cover_the_fields(self):
        with pytest.raises(ValueError, match="sieve"):
            splitting_witnesses(*self._columns([FieldTriple(1, 13, 17)]), build_sieve(100))


class TestCongruenceClassifier:
    def test_case1_example(self):
        assert classify_by_congruences(FieldTriple(1, 13, 17)).fails

    def test_case2_mod8_condition_fails(self):
        # residues (1, 1, 3); pair (1, 5) not congruent mod 8
        status = classify_by_congruences(FieldTriple(1, 5, -1))
        assert status.verdict == "holds"

    def test_case2_even_component(self):
        # residues (2, 1, 1): even component is the odd one out
        assert classify_by_congruences(FieldTriple(2, 1, 17)).fails

    def test_case3_distinct_residues(self):
        status = classify_by_congruences(FieldTriple(1, 2, 3))
        assert status.verdict == "holds"
        assert status.witness == 2

    def test_unit_components_impose_no_symbol_conditions(self):
        # (1, -1, d): only primes of d are constrained
        fails = classify_by_congruences(FieldTriple(1, -1, -7))
        # residues (1, 3, 1): pair (m, b1) = (1, -7) = (1, 1) mod 8 -> check d's primes
        assert fails.fails == (kronecker(-1, 7) == 1)

    def test_case3_shortcut_matches_oracle(self):
        for t in iter_valid_triples(150):
            r = tuple(v % 4 for v in (t.m, t.a1, t.b1))
            if len(set(r)) == 3:
                oracle = classify_by_splitting(t)
                assert oracle.verdict == "holds"
                assert oracle.witness == 2


class TestEquivalence:
    def test_sweep_medium(self):
        sieve = build_sieve(400)
        count = 0
        for t in iter_valid_triples(400):
            count += 1
            assert (
                classify_by_splitting(t, sieve).verdict
                == classify_by_congruences(t, sieve).verdict
            ), t
        assert count > 5000

"""Tests for the Hasse-norm-principle classifiers.

oracle_row is the ground truth (it reads off decomposition groups at
ramified primes; its ninth value, the witness, is 0 where the principle
fails); splitting_witnesses is the same test on arrays.  The production
kernel classifies by congruences (class tables plus symbol bitmasks).
The exhaustive sweep of the kernel against the oracle, to the acceptance
bound, lives in test_acceptance; here we cover the documented examples
and the structure of the verdicts.
"""

import math
import re
from collections import defaultdict

import numpy as np
import pytest

from _reference_enumeration import iter_valid_triples
from _reference_fields import kronecker, quadratic_discriminant
from biquad_hnp import _kernels, arith, hnp
from biquad_hnp.arith import is_squarefree, prime_factors
from biquad_hnp.enumeration import invalid_rows, splitting_witnesses, tuple_records
from biquad_hnp.fields import InvalidFieldError, _check, field_values
from biquad_hnp.hnp import FAILS, HOLDS, oracle_row


def _witness(m, a1, b1, table=None):
    return oracle_row(m, a1, b1, table)[8]


class TestSplittingOracle:
    def test_fails_example(self):
        assert _witness(1, 13, 17) == 0

    def test_holds_with_witness_2(self):
        assert _witness(1, -1, 3) == 2

    def test_totally_ramified_2(self):
        # discs (8, 12, 24): 2 divides all three
        assert oracle_row(1, 2, 3)[3:6] == (8, 12, 24)
        assert _witness(1, 2, 3) == 2

    @pytest.mark.parametrize(
        "triple, verdict",
        [
            # residues (1, 1, 3) mod 4; the agreeing pair (1, 5) differs mod 8
            ((1, 5, -1), HOLDS),
            # the even component is the odd one out; (1, 17) agree mod 8
            ((2, 1, 17), FAILS),
            # unit components impose no symbol condition, but (-1|7) = -1
            ((1, -1, -7), HOLDS),
        ],
        ids=["mod8_pair_differs", "even_component", "unit_components"],
    )
    def test_congruence_examples(self, triple, verdict):
        assert (HOLDS if _witness(*triple) else FAILS) == verdict

    def test_factorization_paths_agree(self):
        # without a table the components are trial-divided; a table to 300
        # gives the product's ascending list; a table below |m a1 b1| sends
        # the product to the component-wise path, with table lookups for the
        # components it covers
        full, small = _kernels.odd_lpf_table(300), _kernels.odd_lpf_table(17)
        triples = tuple_records(300)[:, :3].tolist()
        beyond = sum(1 for m, a1, b1 in triples if abs(m * a1 * b1) > 17)
        assert beyond > 0.9 * len(triples) > 1000
        for t in triples:
            want = oracle_row(*t)
            assert oracle_row(*t, full) == want, t
            assert oracle_row(*t, small) == want, t

    def test_witness_divides_disc(self):
        holds = 0
        for t in iter_valid_triples(200):
            *_, disc, witness = oracle_row(*t)
            if witness:
                holds += 1
                assert disc % witness == 0
        assert holds > 1000

    def test_verdict_and_witness_are_properties_of_the_kernel_set(self):
        # verify asks the oracle once per sorted kernel set and reuses the
        # verdict on the set's other ordered triples: each set is one field's
        # six triples, and the oracle gives all six one verdict and witness
        table = _kernels.odd_lpf_table(2000)
        groups = defaultdict(list)
        for m, a1, b1 in iter_valid_triples(2000):
            kernels = tuple(sorted((m * a1, m * b1, a1 * b1)))
            groups[kernels].append(_witness(m, a1, b1, table))
        assert len(groups) == 10690
        assert all(len(group) == 6 and len(set(group)) == 1 for group in groups.values())

    def test_failure_means_every_ramified_prime_splits_somewhere(self):
        # independent per-prime recheck of the Fails verdict
        checked = 0
        for t in iter_valid_triples(150):
            _, _, _, d1, d2, d3, c, _, witness = oracle_row(*t)
            if witness:
                continue
            checked += 1
            primes = set(prime_factors(math.prod(t)))
            if c > 1:
                primes.add(2)
            for p in primes:
                assert any(kronecker(d, p) == 1 for d in (d1, d2, d3))
        assert checked > 10


# every (m, a1, b1) with -1 <= m <= 12 and |a1|, |b1| <= 12: zero, negative
# m, non-coprime, non-squarefree and degenerate components among them
ORACLE_BOX = [
    (m, a1, b1) for m in range(-1, 13) for a1 in range(-12, 13) for b1 in range(-12, 13)
]


def _oracle_row_or_none(m, a1, b1, table):
    try:
        return oracle_row(m, a1, b1, table)
    except InvalidFieldError:
        return None


def _named_row(m, a1, b1):
    """The nine values of oracle_row from their definitions, or None where
    the named-tuple checks reject the row: fields._check, then a component
    that is not squarefree.  The discriminant of kernel k is k if k = 1
    mod 4, else 4k, and the witness is the least prime of disc with
    kronecker(d, p) != 1 for all three discriminants."""
    try:
        _check(m, a1, b1)
    except InvalidFieldError:
        return None
    if not all(map(is_squarefree, (m, a1, b1))):
        return None
    kernels = (m * a1, m * b1, a1 * b1)
    discs = tuple(k if k % 4 == 1 else 4 * k for k in kernels)
    disc = abs(math.prod(discs))
    c = math.isqrt(disc) // abs(m * a1 * b1)
    unsplit = [p for p in prime_factors(disc) if all(kronecker(d, p) != 1 for d in discs)]
    return (*kernels, *discs, c, disc, unsplit[0] if unsplit else 0)


class TestOracleRow:
    """hnp.oracle_row, the one scalar oracle."""

    @pytest.mark.parametrize("limit", [None, 1728, 104], ids=["no_sieve", "covering", "below"])
    def test_matches_the_named_tuple_oracle(self, limit):
        # the same nine values and the same rejections as the definitions
        # and checks of _named_row; a table to 104 leaves the field (3, 5, 7),
        # |m a1 b1| = 105, just above it: 105 is the first odd n it misses
        table = None if limit is None else _kernels.odd_lpf_table(limit)
        if limit == 104:
            assert 2 * len(table) + 1 == 105
        rows = [(row, _oracle_row_or_none(*row, table)) for row in ORACLE_BOX]
        assert [got for _, got in rows] == [_named_row(*row) for row, _ in rows]
        rejected = np.array([got is None for _, got in rows])
        square = [not all(map(is_squarefree, row)) for row in ORACLE_BOX]
        assert rejected.tolist() == (invalid_rows(*np.array(ORACLE_BOX).T) | square).tolist()
        assert np.count_nonzero(~rejected) == 810
        assert {got[6] for _, got in rows if got} == {1, 4, 8}
        assert {got[8] == 0 for _, got in rows if got} == {True, False}
        assert _oracle_row_or_none(3, 5, 7, table) is not None

    def test_matches_the_definition(self):
        # independent of the walk: the witness is the least prime of disc
        # with kronecker(d, p) != 1 for all three discriminants; the rows
        # accepted are the box's fields, with squarefree kernels
        table = _kernels.odd_lpf_table(104)
        checked = 0
        for row in ORACLE_BOX:
            got = _oracle_row_or_none(*row, table)
            if got is None:
                continue
            checked += 1
            k1, k2, k3, d1, d2, d3, c, disc, witness = got
            m, a1, b1 = row
            assert (k1, k2, k3) == (m * a1, m * b1, a1 * b1)
            assert (d1, d2, d3) == tuple(map(quadratic_discriminant, (k1, k2, k3))), row
            assert disc == abs(d1 * d2 * d3) == (c * m * a1 * b1) ** 2
            assert c == math.isqrt(disc) // abs(m * a1 * b1)
            unsplit = [
                p for p in prime_factors(disc) if all(kronecker(d, p) != 1 for d in (d1, d2, d3))
            ]
            assert witness == (unsplit[0] if unsplit else 0), row
        assert checked == 810

    @pytest.mark.parametrize("limit", [None, 100, 40], ids=["no_sieve", "covering", "below"])
    def test_non_squarefree_component_raises(self, limit):
        # 9 * 5 = 45: the primes 3, 5 of 45 on a covering table fall short
        # of it, and they, a table below 45 and no table all send each
        # component to prime_factors, which finds 9 not squarefree
        table = None if limit is None else _kernels.odd_lpf_table(limit)
        text = "component 9 of FieldTriple(m=1, a1=9, b1=5) is not squarefree"
        with pytest.raises(InvalidFieldError, match=re.escape(text)):
            oracle_row(1, 9, 5, table)
        with pytest.raises(InvalidFieldError, match="component 4 of"):
            oracle_row(3, 4, -7, table)

    def test_row_beyond_the_sieve_is_trial_divided(self):
        # no IndexError past the factor table: the components of a field
        # above the limit are trial-divided
        table = _kernels.odd_lpf_table(10)
        assert oracle_row(1, 13, 17, table) == oracle_row(1, 13, 17) == (
            13, 17, 221, 13, 17, 221, 1, 48841, 0
        )
        assert oracle_row(1, 11, 13, table) == oracle_row(1, 11, 13)

    def test_each_component_is_factored_once(self, monkeypatch):
        # beyond the table one prime_factors call per component both tests
        # it squarefree and gives its primes (is_squarefree, too, would be
        # counted); a covering table factors |m a1 b1| once, through the
        # table, also where 2 is the witness: the primes show whether the
        # components are squarefree
        calls = []

        def counted(n, table=None):
            calls.append((n, table is not None))
            return prime_factors(n, table)

        monkeypatch.setattr(hnp, "prime_factors", counted)
        monkeypatch.setattr(arith, "prime_factors", counted)
        big = (999999999989, 5, 4999999999945)
        assert oracle_row(1, 999999999989, 5) == (*big, *big, 1, 24999999999450000000003025, 0)
        assert calls == [(1, False), (999999999989, False), (5, False)]
        calls.clear()
        table = _kernels.odd_lpf_table(300)
        assert oracle_row(1, 13, 17, table)[8] == 0
        assert oracle_row(1, -1, 3, table)[8] == 2
        assert calls == [(221, True), (3, True)]


class TestSplittingWitnesses:
    @staticmethod
    def _columns(triples):
        cols = np.array(triples, dtype=np.int64)
        discs = np.array([field_values(*t)[3:6] for t in triples], dtype=np.int64)
        return cols[:, 0], cols[:, 1], cols[:, 2], discs

    def test_matches_scalar_oracle(self):
        # every sign pattern with |m a1 b1| <= 2000, as in the verify sweep
        table = _kernels.odd_lpf_table(2000)
        triples = list(iter_valid_triples(2000))
        assert len(triples) == 64140
        got = splitting_witnesses(*self._columns(triples), table)
        want = [_witness(*t, table) for t in triples]
        assert got.tolist() == want
        assert 0 < np.count_nonzero(got == 0) < len(got)

    def test_empty(self):
        m, a1, b1, discs = self._columns([(1, -1, 3)])
        got = splitting_witnesses(m[:0], a1[:0], b1[:0], discs[:0], _kernels.odd_lpf_table(10))
        assert got.shape == (0,)

    def test_sieve_must_cover_the_fields(self):
        with pytest.raises(ValueError, match="sieve"):
            splitting_witnesses(*self._columns([(1, 13, 17)]), _kernels.odd_lpf_table(100))


def _kernel_fails(m, a1, b1):
    """The production kernel's verdict on the ordered tuple (m, a1, b1)."""
    for v1, v2, v3, _, _, fails in tuple_records(abs(m * a1 * b1)).tolist():
        if (v1, v2, v3) == (m, a1, b1):
            return bool(fails)
    raise AssertionError(f"kernel did not admit {(m, a1, b1)}")


class TestCongruenceClassifier:
    """The production kernel's congruence verdicts on the documented examples."""

    def test_case1_example(self):
        assert _kernel_fails(1, 13, 17)

    def test_case2_mod8_condition_fails(self):
        # residues (1, 1, 3); pair (1, 5) not congruent mod 8
        assert not _kernel_fails(1, 5, -1)

    def test_case2_even_component(self):
        # residues (2, 1, 1): even component is the odd one out
        assert _kernel_fails(2, 1, 17)

    def test_case3_distinct_residues(self):
        assert not _kernel_fails(1, 2, 3)
        assert _witness(1, 2, 3) == 2

    def test_unit_components_impose_no_symbol_conditions(self):
        # (1, -1, d): only primes of d are constrained
        # residues (1, 3, 1): pair (m, b1) = (1, -7) = (1, 1) mod 8 -> check d's primes
        assert _kernel_fails(1, -1, -7) == (kronecker(-1, 7) == 1)

    def test_case3_shortcut_matches_oracle(self):
        # pairwise distinct residues mod 4: 2 is totally ramified
        checked = 0
        for m, a1, b1, _, _, fails in tuple_records(150).tolist():
            if len({v % 4 for v in (m, a1, b1)}) == 3:
                checked += 1
                assert not fails
                assert _witness(m, a1, b1) == 2
        assert checked > 0

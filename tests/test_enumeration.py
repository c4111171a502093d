"""Tests for the bounded-discriminant enumeration.

Counts are pinned against the independent generator-pair brute force and
checked for internal consistency: exact divisibility by 6, agreement
between the two dedup strategies, monotonicity, and independence from
work partitioning.
"""

import hashlib
import json

import numpy as np
import pytest

from biquad_hnp.arith import build_sieve
from biquad_hnp.asymptotics import in_failure_class
from biquad_hnp.enumeration import (
    count_by_class,
    count_by_generator_pairs,
    enumerate_fields,
    field_records,
    unique_field_rows,
)
from biquad_hnp.fields import canonical_key


class TestSmallGroundTruth:
    def test_no_field_below_144(self):
        assert enumerate_fields(143).S == 0
        assert enumerate_fields(1).S == 0

    def test_first_field_is_gaussian_sqrt3(self):
        collected = []
        report = enumerate_fields(144, sink=lambda *args: collected.append(args))
        assert report.S == 1
        assert report.S_tilde == 0
        assert report.ordered_total == 6
        (triple, data, status) = collected[0]
        assert sorted(data.fundamental_discs) == [-4, -3, 12]
        assert status.verdict == "holds"
        assert canonical_key(triple) == (-4, -3, 12)

    def test_first_failing_field(self):
        # (1, 13, 17) has disc 221^2 = 48841 and fails
        assert enumerate_fields(48841).S_tilde >= 1
        assert enumerate_fields(48840).S_tilde == enumerate_fields(48841).S_tilde - 1

    def test_brute_force_pin(self):
        # values pinned from count_by_generator_pairs, itself classified by
        # the splitting oracle
        for x, expected in [(10**3, (8, 0)), (10**4, (47, 5)), (10**5, (243, 30))]:
            report = enumerate_fields(x)
            assert (report.S, report.S_tilde) == expected
            assert count_by_generator_pairs(x) == expected

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            enumerate_fields(0)


class TestConsistency:
    def test_ordered_count_divisible_by_six(self):
        for x in (10**4, 10**5, 10**6):
            report = enumerate_fields(x)
            assert report.ordered_total == 6 * report.S
            assert sum(report.per_class.values()) == report.ordered_total
            assert sum(report.per_class_failing.values()) == 6 * report.S_tilde

    def test_dedup_matches_ordered_division(self):
        for x in (10**4, 10**6):
            records = field_records(x)
            rows, keys = unique_field_rows(records)
            assert len(records) % 6 == 0
            assert 6 * len(rows) == len(records)
            # keys are strictly increasing under (disc, key) order
            discs = rows[:, 3]
            assert np.all(np.diff(discs) >= 0)

    def test_monotone_in_bound(self):
        values = [enumerate_fields(x) for x in (10**3, 10**4, 10**5, 5 * 10**5, 10**6)]
        s = [r.S for r in values]
        st = [r.S_tilde for r in values]
        assert s == sorted(s)
        assert st == sorted(st)

    def test_partition_independence(self):
        one = enumerate_fields(10**6, threads=1)
        four = enumerate_fields(10**6, threads=4)
        assert one.S == four.S
        assert one.S_tilde == four.S_tilde
        assert one.per_class == four.per_class
        assert one.per_class_failing == four.per_class_failing

    def test_bound_must_fit_int64(self):
        for fn in (enumerate_fields, field_records):
            with pytest.raises(ValueError, match="2\\^63"):
                fn(2**63)
            with pytest.raises(ValueError, match=">= 1"):
                fn(0)

    def test_per_class_pin_1e10(self):
        # S, S~ and every per-class (count, failing) pair at X = 10^10, as
        # computed by the scalar per-tuple enumeration
        report = enumerate_fields(10**10)
        assert (report.S, report.S_tilde) == (242710, 22841)
        failing = report.per_class_failing
        rows = sorted(
            [lab.sign2, lab.sign3, lab.even_slot, list(lab.residues), n, failing.get(lab, 0)]
            for lab, n in report.per_class.items()
        )
        assert len(rows) == 1024
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "617d8ab6836302ff8d787bba0790e4de2a4cd666bcb30deca6339fa0111cbaa7"

    def test_generator_cross_check_1e6(self):
        report = enumerate_fields(10**6)
        assert count_by_generator_pairs(10**6) == (report.S, report.S_tilde)
        assert (report.S, report.S_tilde) == (1014, 119)  # regression pin


class TestClassTallies:
    def test_x144_classes(self):
        per_class = count_by_class(144)
        assert sum(per_class.values()) == 6
        # the six ordered triples of the single field land in six classes
        assert len(per_class) == 6
        assert all(v == 1 for v in per_class.values())

    def test_class_structure(self):
        report = enumerate_fields(10**6)
        for label in report.per_class:
            assert label.even_slot in (0, 1, 2, 3)
            assert all(r in (1, 3, 5, 7) for r in label.residues)

    def test_failing_classes_are_failure_compatible(self):
        report = enumerate_fields(10**6)
        for label, count in report.per_class_failing.items():
            assert count > 0
            signed = (
                label.residues[0],
                (label.sign2 * label.residues[1]) % 8,
                (label.sign3 * label.residues[2]) % 8,
            )
            assert in_failure_class(label.even_slot, signed)

    def test_emitted_cores_odd_squarefree(self):
        # mu^2(2 m1' m2' m3') = 1 for every admitted tuple
        records = field_records(10**6)
        mob = build_sieve(1000).mobius
        v = np.abs(records[:, :3])
        evens = (v % 2 == 0).sum(axis=1)
        assert np.all(evens <= 1)
        odd_core = np.where(v % 2 == 0, v // 2, v)
        prod = odd_core[:, 0] * odd_core[:, 1] * odd_core[:, 2]
        assert np.all(prod % 2 == 1)
        assert np.all(mob[prod] != 0)


class TestSinkAndAudit:
    def test_sink_streams_each_field_once(self):
        seen = []
        report = enumerate_fields(10**5, sink=lambda t, d, s: seen.append((t, d, s)))
        assert len(seen) == report.S
        keys = [canonical_key(t) for t, _, _ in seen]
        assert len(set(keys)) == len(keys)
        discs = [d.field_disc for _, d, _ in seen]
        assert discs == sorted(discs)
        for t, d, s in seen:
            if s.verdict == "holds":
                assert s.witness is not None and d.field_disc % s.witness == 0
            else:
                assert s.witness is None

    def test_sink_order_independent_of_threads(self):
        runs = []
        for threads in (1, 3):
            acc = []
            enumerate_fields(
                2 * 10**5,
                sink=lambda t, d, s: acc.append((t.m, t.a1, t.b1, d.field_disc, s.verdict)),
                threads=threads,
            )
            runs.append(acc)
        assert runs[0] == runs[1]

    def test_audit_passes(self):
        # oracle re-check of every field, failing ones included
        report = enumerate_fields(10**5, audit_bound=10**5)
        assert report.S == 243

    def test_field_count_matches_sink(self):
        report = enumerate_fields(3 * 10**4)
        n = [0]
        enumerate_fields(3 * 10**4, sink=lambda *a: n.__setitem__(0, n[0] + 1))
        assert n[0] == report.S

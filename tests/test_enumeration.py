"""Tests for the bounded-discriminant enumeration.

Counts are pinned against the independent generator-pair brute force and
checked for internal consistency: exact divisibility by 6, agreement
of the least-sibling dedup of the kernel's one record per field with
the sort-everything reference run on all six ordered records,
monotonicity, and agreement of the kernel's tuple records with the
triple iterator.  fork_parts, the sum over its parts that the
scalar-oracle sweeps take, and the split count are tested on both of
their paths: a forked child, and one process.  The audit of
``count --audit-bound`` and ``verify``, a scalar-oracle sweep over the
delivered columns, is tested here through the CLI.
"""

import errno
import hashlib
import json
import os
import pickle
import time
import tracemalloc

import numpy as np
import pytest

import _reference_dedup as reference
from _kernel_records import field_records, kernel_rows
from _reference_classes import class_index, in_failure_class
from _reference_enumeration import count_by_generator_pairs, iter_valid_triples
from _reference_fields import canonical_key, class_label
from biquad_hnp import _kernels
from biquad_hnp.arith import build_sieve
from biquad_hnp.cli import EXIT_OK, EXIT_VERIFY_FAILED, _audit, main
from biquad_hnp.enumeration import (
    enumerate_fields,
    fork_parts,
    invalid_rows,
    tuple_records,
    unique_field_rows,
)
from biquad_hnp.fields import InvalidFieldError, _check
from biquad_hnp.hnp import oracle_row


class TestSmallGroundTruth:
    def test_no_field_below_144(self):
        assert enumerate_fields(143).S == 0
        assert enumerate_fields(1).S == 0

    def test_first_field_is_gaussian_sqrt3(self):
        collected = []
        report = enumerate_fields(144, sink=lambda columns: collected.extend(columns.tolist()))
        assert report.S == 1
        assert report.S_tilde == 0
        assert report.ordered_total == 6
        m, a1, b1, _, _, _, d1, d2, d3, _, _, witness = collected[0]
        assert sorted((d1, d2, d3)) == [-4, -3, 12]
        assert witness != 0  # the principle holds
        assert canonical_key((m, a1, b1)) == (-4, -3, 12)

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
            assert report.class_total.sum() == report.ordered_total
            assert report.class_fail.sum() == 6 * report.S_tilde

    def test_dedup_matches_ordered_division(self):
        for x in (10**4, 10**6):
            rows, keys = unique_field_rows(kernel_rows(x))
            assert 6 * len(rows) == enumerate_fields(x).ordered_total
            # keys are strictly increasing under (disc, key) order
            step = np.diff(np.column_stack((rows[:, 3], keys)), axis=0)
            moved = step != 0
            assert moved.any(axis=1).all()
            assert np.all(step[np.arange(len(step)), moved.argmax(axis=1)] > 0)

    def test_monotone_in_bound(self):
        values = [enumerate_fields(x) for x in (10**3, 10**4, 10**5, 5 * 10**5, 10**6)]
        s = [r.S for r in values]
        st = [r.S_tilde for r in values]
        assert s == sorted(s)
        assert st == sorted(st)

    def test_bound_must_fit_int64(self):
        for fn in (enumerate_fields, field_records):
            with pytest.raises(ValueError, match="2\\^63"):
                fn(2**63)
            with pytest.raises(ValueError, match=">= 1"):
                fn(0)

    @pytest.mark.parametrize("bound", [0, 2, 105, 714])
    def test_tuple_records_are_the_valid_triples(self, bound):
        # squarefree bounds, so that tuples sit on the bound
        rows = tuple_records(bound)[:, :3].tolist()
        want = [list(t) for t in iter_valid_triples(bound)]
        assert sorted(rows) == sorted(want)

    def test_tuple_record_parts_hold_every_row_once(self):
        def rows(*part):
            return tuple_records(2000, *part).tolist()

        ours, theirs = rows(0, 2), rows(1, 2)
        assert ours and theirs
        assert sorted(ours + theirs) == sorted(rows())

    @pytest.mark.parametrize("part", [0, 1])
    def test_tuple_records_are_six_blocks_of_the_parts_records(self, part):
        # the layout check 6 of verify reads: block 0 is the kernel's
        # records of the part, and block k their moves by _S3[k], with the
        # signs of all three components flipped when the first is negative
        sieve = build_sieve(2000)
        slabs = _kernels._core_slabs(2000, sieve.smallest_prime_factor, sieve.mobius)
        records = _kernels.enumerate_block(
            slabs, 8 * 2000, sieve.smallest_prime_factor, True, part, 2
        )[2]
        records = records[np.abs(records[:, 0] * records[:, 1] * records[:, 2]) <= 2000]
        rows = tuple_records(2000, part, 2)
        assert len(rows) == 6 * len(records) > 0
        blocks = rows.reshape(6, -1, 6).tolist()
        assert blocks[0] == records.tolist()
        for perm, block in zip(_kernels._S3, blocks):
            moved = []
            for *v, disc, c, fails in blocks[0]:
                sign = -1 if v[perm[0]] < 0 else 1
                moved.append([sign * v[j] for j in perm] + [disc, c, fails])
            assert block == moved

    def test_per_class_pin_1e10(self):
        # S, S~ and every per-class (count, failing) pair at X = 10^10, as
        # computed by the scalar per-tuple enumeration
        report = enumerate_fields(10**10)
        assert (report.S, report.S_tilde) == (242710, 22841)
        rows = sorted(
            [sign2, sign3, even_slot, residues, n, failing]
            for (sign2, sign3, even_slot, *residues), n, failing in zip(
                _kernels.class_labels().tolist(),
                report.class_total.tolist(),
                report.class_fail.tolist(),
            )
            if n
        )
        assert len(rows) == 1024
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "617d8ab6836302ff8d787bba0790e4de2a4cd666bcb30deca6339fa0111cbaa7"

    @pytest.mark.parametrize(
        "x, S, S_tilde, digest",
        [
            (10**12, 3306085, 269657,
             "98d3436719a95919de6956731298651db25c7b32056b309f1ce27800fb0d2512"),
            (10**13, 11982067, 911297,
             "a4c0c334fe39edb74bd7e1c5de7446794e038aea14c62a035b540046a84701a1"),
        ],
        ids=["1e12", "1e13"],
    )
    def test_frontier_pins(self, x, S, S_tilde, digest):
        # S and S~ from ROADMAP's pins table, and a regression pin of the
        # per-class tables: the sha256 of the little-endian int64 bytes of
        # class_total, then of class_fail
        report = enumerate_fields(x)
        assert (report.S, report.S_tilde) == (S, S_tilde)
        tables = [report.class_total, report.class_fail]
        tables = b"".join(table.astype("<i8").tobytes() for table in tables)
        assert hashlib.sha256(tables).hexdigest() == digest

    def test_generator_cross_check_1e6(self):
        report = enumerate_fields(10**6)
        assert count_by_generator_pairs(10**6) == (report.S, report.S_tilde)
        assert (report.S, report.S_tilde) == (1014, 119)  # regression pin


class TestDedup:
    @staticmethod
    def assert_same(got, want):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("x", [10**4, 10**6, 10**8])
    def test_matches_sort_everything_reference(self, x):
        # the kernel's record of each field against the least of its six
        want = reference.unique_field_rows(field_records(x))
        self.assert_same(unique_field_rows(kernel_rows(x)), want)

    def test_independent_of_record_order(self):
        # any one of a field's six ordered records, in any order, stands for it
        records = field_records(10**6)
        rng = np.random.default_rng(7)
        fields = len(records) // 6
        picked = records.reshape(6, fields, 6)[rng.integers(6, size=fields), np.arange(fields)]
        shuffled = picked[rng.permutation(fields)]
        self.assert_same(unique_field_rows(shuffled), reference.unique_field_rows(records))

    def test_empty_records(self):
        rows, keys = unique_field_rows(field_records(143))
        assert rows.shape == (0, 6) and keys.shape == (0, 3)

    def test_peak_is_at_most_200_bytes_a_record(self):
        # the least record's columns, the keys, the sort order and the
        # rows before and after their sort take 152 bytes a record; the
        # columns of all six siblings held at once would pass 200
        records = kernel_rows(10**10)
        tracemalloc.start()
        try:
            unique_field_rows(records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200 * len(records)

    def test_duplicated_representative_raises(self):
        # the clean records dedup; the same records with one field's kept
        # row written twice do not
        records = kernel_rows(10**6)
        rows, _ = unique_field_rows(records)
        assert len(rows) == 1014
        doubled = np.concatenate((records, rows[500:501]))
        with pytest.raises(AssertionError, match="kept twice"):
            unique_field_rows(doubled)

    def test_dropped_representative_is_a_dedup_mismatch(self, monkeypatch):
        # without its one record a field is not kept, so the kept rows
        # fall one short of ordered/6
        from biquad_hnp import _kernels, enumeration

        enumerate_fields(10**6, sink=lambda *a: None)
        true_block = _kernels.enumerate_block

        def dropped(*args, **kwargs):
            total, fails, records = true_block(*args, **kwargs)
            hit = np.flatnonzero(records[:, 3] == 48841)  # one field's record
            assert len(hit) == 1
            return total, fails, np.delete(records, hit, axis=0)

        monkeypatch.setattr(enumeration._kernels, "enumerate_block", dropped)
        with pytest.raises(AssertionError, match="dedup mismatch"):
            enumerate_fields(10**6, sink=lambda *a: None)


class TestClassTallies:
    def test_x144_classes(self):
        class_total = enumerate_fields(144).class_total
        assert class_total.sum() == 6
        # the six ordered triples of the single field land in six classes
        assert np.count_nonzero(class_total) == 6
        assert all(v == 1 for v in class_total[class_total > 0])

    def test_class_structure(self):
        report = enumerate_fields(10**6)
        for table in (report.class_total, report.class_fail):
            assert table.shape == (_kernels.CLASS_SPACE,) and table.dtype == np.int64
            assert not table.flags.writeable
        assert np.all(report.class_fail <= report.class_total)
        labels = _kernels.class_labels()[report.class_total > 0]
        for _, _, even_slot, *residues in labels.tolist():
            assert even_slot in (0, 1, 2, 3)
            assert all(r in (1, 3, 5, 7) for r in residues)

    def test_failing_classes_are_failure_compatible(self):
        report = enumerate_fields(10**6)
        failing = np.flatnonzero(report.class_fail)
        assert len(failing) > 0
        for sign2, sign3, even_slot, r1, r2, r3 in _kernels.class_labels()[failing].tolist():
            signed = (r1, (sign2 * r2) % 8, (sign3 * r3) % 8)
            assert in_failure_class(even_slot, signed)

    @pytest.mark.parametrize("x", [10**6, 10**8, 10**10])
    def test_failures_lie_in_ok_classes_with_u_one(self, x, forked):
        # identity (B): a tuple's verdict is ok(class) times the product over
        # the primes p of its core of (1 + s_p) / 2, and the s_p multiply to
        # the class's reciprocity sign u, so no class with u = -1 fails
        _c, ok, u = _kernels._class_tables()
        class_fail = enumerate_fields(x).class_fail
        assert not class_fail[~ok | (u == -1)].any()
        assert class_fail.sum() > 0

    def test_tallies_match_scalar_class_labels(self):
        # the kernel's class of each ordered record, read with the scalar
        # label and encoder, gives back both tallies
        records = field_records(10**6)
        ids = np.array(
            [class_index(*class_label(row)) for row in records[:, :3].tolist()]
        )
        report = enumerate_fields(10**6)
        total = np.bincount(ids, minlength=_kernels.CLASS_SPACE)
        fails = np.bincount(ids[records[:, 5] != 0], minlength=_kernels.CLASS_SPACE)
        assert np.array_equal(total, report.class_total)
        assert np.array_equal(fails, report.class_fail)

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
        report = enumerate_fields(10**5, sink=lambda columns: seen.extend(columns.tolist()))
        assert len(seen) == report.S
        keys = [canonical_key(row[:3]) for row in seen]
        assert len(set(keys)) == len(keys)
        discs = [row[10] for row in seen]
        assert discs == sorted(discs)
        for row in seen:
            disc, witness = row[10], row[11]
            # 0 where the principle fails, else a prime dividing disc
            assert witness == 0 or disc % witness == 0

    def test_audit_passes(self, capsys):
        # oracle re-check of every field, failing ones included
        argv = ["count", "--max-disc", "1e5", "--audit-bound", "1e5", "--format", "json"]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert json.loads(captured.out)["S"] == 243
        assert captured.err == ""

    def test_invalid_rows_are_the_rows_field_triple_rejects(self):
        # zeros, negative m, non-coprime components and both degenerate
        # forms, (m, u, u) with |u| = 1 and (1, 1, b1) or (1, a1, 1)
        m, a1, b1 = np.meshgrid(
            np.arange(-2, 13), np.arange(-12, 13), np.arange(-12, 13), indexing="ij"
        )
        rows = np.stack((m.ravel(), a1.ravel(), b1.ravel()), axis=1).astype(np.int64)

        def rejected(row):
            try:
                _check(*row)
            except InvalidFieldError:
                return True
            return False

        expected = [rejected(row) for row in rows.tolist()]
        got = invalid_rows(rows[:, 0], rows[:, 1], rows[:, 2])
        assert got.dtype == bool
        assert got.tolist() == expected
        assert 0 < sum(expected) < len(expected)

    def test_sink_data_match_scalar_oracles(self):
        # the columns built in one array pass against the per-field code
        seen = []
        enumerate_fields(10**6, sink=lambda columns: seen.extend(columns.tolist()))
        assert len(seen) == 1014
        for row in seen:
            assert tuple(row[3:]) == oracle_row(*row[:3])

    @pytest.mark.parametrize(
        "disc, column, value",
        [(48841, 3, 48842), (48841, 4, 4), (48841, 5, 0), (144, 5, 1)],
    )
    def test_corrupted_record_column_raises(self, disc, column, value, monkeypatch):
        # a wrong disc, c or verdict in the kernel's records is caught on
        # every field, failing (disc 48841) or not (disc 144), without an
        # audit bound
        from biquad_hnp import _kernels, enumeration

        true_block = _kernels.enumerate_block

        def corrupted(*args, **kwargs):
            total, fails, records = true_block(*args, **kwargs)
            hit = records[:, 3] == disc  # the record of one field
            assert hit.sum() == 1
            records[hit, column] = value
            return total, fails, records

        monkeypatch.setattr(enumeration._kernels, "enumerate_block", corrupted)
        with pytest.raises(RuntimeError):
            enumerate_fields(10**5, sink=lambda *a: None)

    @pytest.mark.parametrize(
        "bad", [(3, 3, 5, 32400, 4, 0), (1, 1, 5, 25, 1, 1)], ids=["not_coprime", "kernel_one"]
    )
    def test_row_naming_no_field_raises(self, bad, monkeypatch):
        # both rows pass the discriminant identity and the verdict check,
        # so only the tests of fields._check, run on the columns, catch them
        from biquad_hnp import enumeration

        true_rows = enumeration.unique_field_rows

        def faulty(records):
            rows, keys = true_rows(records)
            rows[-1] = bad  # keeps the count at ordered/6
            return rows, keys

        monkeypatch.setattr(enumeration, "unique_field_rows", faulty)
        with pytest.raises(RuntimeError, match="names no field"):
            enumerate_fields(10**6, sink=lambda columns: None)

    @staticmethod
    def shift_witnesses(monkeypatch):
        """Witness 2 becomes 3: a wrong witness that keeps the verdict."""
        from biquad_hnp import enumeration

        true_witnesses = enumeration.splitting_witnesses

        def shifted(*args):
            w = true_witnesses(*args)
            return np.where(w == 2, 3, w)

        monkeypatch.setattr(enumeration, "splitting_witnesses", shifted)

    def test_audit_rechecks_witness(self, monkeypatch, tmp_path, capsys):
        # the shifted witness is caught only by the audit
        self.shift_witnesses(monkeypatch)
        argv = ["count", "--max-disc", "1e4", "--records", str(tmp_path / "fields")]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert main([*argv, "--audit-bound", "1e4"]) == EXIT_VERIFY_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        # 23 of the 47 fields have the witness 2
        assert captured.err == (
            "error: the scalar oracles disagree on 23 of the 47 fields with disc <= 10000\n"
        )

    def test_audit_without_sink_rechecks_witness(self, monkeypatch, capsys):
        # the same shifted witness, caught by the audit's own kernel call
        self.shift_witnesses(monkeypatch)
        assert main(["count", "--max-disc", "1e8"]) == EXIT_OK
        assert main(["count", "--max-disc", "1e8", "--audit-bound", "1e4"]) == EXIT_VERIFY_FAILED
        assert "disagree on 23 of the 47 fields" in capsys.readouterr().err

    def test_verify_rechecks_witness(self, monkeypatch, capsys):
        # verify's check 5 is the audit to disc 1e8, so it reads the witness
        self.shift_witnesses(monkeypatch)
        assert main(["verify"]) == EXIT_VERIFY_FAILED
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[4] == (
            "FAIL  scalar oracles on the stream, 16679 fields to disc 1e+08: "
            "expected 0 mismatches, got 6603 mismatches"
        )
        assert all(line.startswith("PASS  ") for line in lines[:4] + lines[5:])

    def test_audit_without_sink_collects_only_the_audited_fields(self, monkeypatch, capsys):
        from biquad_hnp import enumeration

        true_rows = enumeration.unique_field_rows
        collected = []

        def counted(records):
            collected.append(len(records))
            return true_rows(records)

        monkeypatch.setattr(enumeration, "unique_field_rows", counted)
        argv = ["count", "--max-disc", "1e8", "--audit-bound", "1e4", "--format", "json"]
        assert main(argv) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["S"] == 16679
        assert collected == [47]  # one record per field of S(10^4) = 47
        # the stats are the main count's, which collects nothing
        assert payload["stats"]["dedup_s"] == payload["stats"]["deliver_s"] == 0

    def test_audit_without_sink_holds_the_dedup_count(self, monkeypatch, capsys):
        # a field missing its least record in the audit's kernel call
        from biquad_hnp import _kernels, enumeration

        true_block = _kernels.enumerate_block

        def dropped(*args, **kwargs):
            total, fails, records = true_block(*args, **kwargs)
            hit = np.flatnonzero(records[:, 3] == 48841)
            if len(hit):
                least = hit[np.lexsort(records[hit, 2::-1].T)[0]]
                records = np.delete(records, least, axis=0)
            return total, fails, records

        monkeypatch.setattr(enumeration._kernels, "enumerate_block", dropped)
        assert main(["count", "--max-disc", "1e6", "--audit-bound", "48840"]) == EXIT_OK
        capsys.readouterr()
        assert main(["count", "--max-disc", "1e6", "--audit-bound", "1e5"]) == EXIT_VERIFY_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: self-check failed: dedup mismatch")
        assert captured.err.count("\n") == 1

    def test_audit_disagreement_in_the_childs_block_fails(self, monkeypatch, capsys, forked):
        # row 5000 of the 16679 fields to 1e8 lies in block 1 of EMIT_CHUNK
        # rows, which the sweep's forked child checks
        from biquad_hnp import enumeration

        true_enumerate = enumeration.enumerate_fields
        at = 5000
        assert enumeration.EMIT_CHUNK <= at < 2 * enumeration.EMIT_CHUNK

        def corrupted(X, sink=None):
            if sink is None:
                return true_enumerate(X)
            delivered = [0]

            def corrupting(columns):
                lo = delivered[0]
                delivered[0] += len(columns)
                if lo <= at < delivered[0]:
                    columns = columns.copy()
                    columns[at - lo, 11] += 1  # a witness that names no prime
                sink(columns)

            return true_enumerate(X, corrupting)

        monkeypatch.setattr(enumeration, "enumerate_fields", corrupted)
        argv = ["count", "--max-disc", "1e8", "--audit-bound", "1e8"]
        assert main(argv) == EXIT_VERIFY_FAILED
        assert capsys.readouterr().err == (
            "error: the scalar oracles disagree on 1 of the 16679 fields with disc <= 100000000\n"
        )

    def test_audit_counts_a_row_naming_no_field_once(self, monkeypatch):
        # fields._check rejects m = 0: one mismatch, not an error
        from biquad_hnp import enumeration

        true_enumerate = enumeration.enumerate_fields

        def corrupted(X, sink):
            def corrupting(columns):
                columns = columns.copy()
                columns[0, 0] = 0
                sink(columns)

            return true_enumerate(X, corrupting)

        monkeypatch.setattr(enumeration, "enumerate_fields", corrupted)
        # S(10^5) fields lie in one chunk of EMIT_CHUNK
        assert _audit(10**5) == (true_enumerate(10**5).S, 1)

    def test_stream_to_b_is_the_prefix_of_a_longer_stream(self):
        # the audit collects the fields to B from a count to B, not to X
        def stream(x):
            tables = [np.empty((0, 12), dtype=np.int64)]
            enumerate_fields(x, sink=tables.append)
            return np.concatenate(tables)

        short, long = stream(10**5), stream(10**6)
        assert len(short) == 243
        assert short.tobytes() == long[long[:, 10] <= 10**5].tobytes()
        assert np.array_equal(long[: len(short)], short)

    def test_sink_times_dedup_and_delivery(self):
        # without a sink both read 0 (checked on count --format json, also
        # with --audit-bound)
        stats = enumerate_fields(10**4, sink=lambda *a: None).stats
        assert stats["dedup_s"] > 0 and stats["deliver_s"] > 0

    def test_field_count_matches_sink(self):
        report = enumerate_fields(3 * 10**4)
        n = [0]
        enumerate_fields(3 * 10**4, sink=lambda columns: n.__setitem__(0, n[0] + len(columns)))
        assert n[0] == report.S


def _part_counts(part, parts):
    return part, parts, 1


def _rows_of(part, parts):
    # part 1 sends more than a pipe buffer holds, in two dimensions
    return np.arange(3 * 40_000 * part, dtype=np.int64).reshape(3, -1) - part


def _count_part_of(part, parts):
    # a count part's shape: two tallies, then a field table larger than a
    # pipe buffer
    tallies = np.arange(1024, dtype=np.int64) * (part + 1)
    return tallies, tallies % 7, np.arange(12 * 9_000, dtype=np.int64).reshape(-1, 12) - part


class TestSplitSum:
    # cli._audit sums the (fields, mismatches) of fork_parts' parts
    def test_one_cpu_runs_in_process(self, unforked):
        # unforked makes a fork raise: one process checks every field
        assert _audit(10**5) == (enumerate_fields(10**5).S, 0)


class TestForkParts:
    def test_fork_returns_both_parts(self, forked):
        assert fork_parts(_part_counts) == [(0, 2, 1), (1, 2, 1)]

    def test_one_cpu_runs_in_process(self, unforked):
        assert fork_parts(_part_counts) == [(0, 1, 1)]
        [ours] = fork_parts(_rows_of)
        assert ours.shape == (3, 0)

    def test_no_fork_runs_in_process(self, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        assert fork_parts(_part_counts) == [(0, 1, 1)]

    def test_failed_fork_runs_in_process(self, forked, monkeypatch):
        def no_fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        assert fork_parts(_part_counts) == [(0, 1, 1)]

    def test_child_failure_raises_in_the_parent_only(self, forked, tmp_path):
        pids = tmp_path / "pids"

        def work(part, parts):
            if part == 1:
                raise ZeroDivisionError("the child's part fails")
            return (1,)

        try:
            # the child's error comes back in place of its value
            with pytest.raises(
                RuntimeError, match="exit code 1: ZeroDivisionError: the child's part fails$"
            ):
                fork_parts(work)
        finally:
            # a child that returned into this test would add its own pid
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        assert pids.read_text().split() == [str(os.getpid())]

    def test_child_array_keeps_its_shape(self, forked):
        ours, theirs = fork_parts(_rows_of)
        assert ours.shape == (3, 0)
        assert theirs.dtype == np.int64 and theirs.shape == (3, 40_000)
        assert np.array_equal(theirs, _rows_of(1, 2))

    def test_count_part_tuple_round_trips(self, forked):
        outs = fork_parts(_count_part_of)
        assert len(outs) == 2
        for part, (tallies, fails, table) in enumerate(outs):
            want = _count_part_of(part, 2)
            assert table.shape == (9_000, 12)
            for got, expected in zip((tallies, fails, table), want):
                assert got.dtype == np.int64 and got.tobytes() == expected.tobytes()

    def test_unpicklable_value_raises_with_its_exit_code(self, forked):
        def work(part, parts):
            return lambda: part  # a local function does not pickle

        with pytest.raises(RuntimeError, match="worker process failed with exit code 2$"):
            fork_parts(work)

    def test_unreadable_payload_raises(self, forked, monkeypatch):
        # the child exits 0 after writing all but the last byte of its value
        def truncated(obj, file, protocol=None):
            file.write(pickle.dumps(obj, protocol)[:-1])

        monkeypatch.setattr(pickle, "dump", truncated)
        with pytest.raises(RuntimeError, match="sent a value that cannot be read"):
            fork_parts(_rows_of)


class TestSplitCount:
    @staticmethod
    def count(x):
        tables = []
        report = enumerate_fields(x, sink=tables.append)
        return report, np.concatenate(tables)

    @pytest.mark.parametrize("x", [10**8, 10**9, 10**10])
    def test_forked_count_is_the_serial_count(self, request, x):
        request.getfixturevalue("forked")
        forked, forked_table = self.count(x)
        request.getfixturevalue("unforked")  # overrides the forked patches
        serial, serial_table = self.count(x)
        assert (forked.parts, serial.parts) == (2, 1)
        for name in ("S", "S_tilde", "ordered_total"):
            assert getattr(forked, name) == getattr(serial, name)
        for name in ("class_total", "class_fail"):
            assert np.array_equal(getattr(forked, name), getattr(serial, name))
        assert forked_table.tobytes() == serial_table.tobytes()
        assert enumerate_fields(x).S == serial.S

    def test_child_failure_raises_in_the_parent_only(self, forked, monkeypatch, tmp_path):
        from biquad_hnp import enumeration

        pids = tmp_path / "pids"
        parent = os.getpid()
        true_columns = enumeration._field_columns

        def failing(rows, sieve):
            if os.getpid() != parent:
                raise ZeroDivisionError("the child's part fails")
            return true_columns(rows, sieve)

        monkeypatch.setattr(enumeration, "_field_columns", failing)
        try:
            with pytest.raises(RuntimeError, match="exit code 1"):
                enumerate_fields(10**8, sink=lambda columns: None)
        finally:
            # a child that returned into this test would add its own pid
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        assert pids.read_text().split() == [str(parent)]

    def test_small_windows_and_slabs_give_the_same_count(self, forked, monkeypatch):
        # windows of 64 odd n and slabs of 8 cores: cores are held back
        # over windows, which with the default sizes only counts above
        # 1.7e10 reach, and each part walks its own stream
        from biquad_hnp import _kernels

        want, want_table = self.count(10**8)
        monkeypatch.setattr(_kernels, "CORE_WINDOW", 64)
        monkeypatch.setattr(_kernels, "SLAB", 8)
        got, got_table = self.count(10**8)
        for name in ("S", "S_tilde", "parts"):
            assert getattr(got, name) == getattr(want, name)
        for name in ("class_total", "class_fail"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got_table.tobytes() == want_table.tobytes()

    def test_disc_in_both_parts_raises(self):
        from biquad_hnp import enumeration

        tables = []
        enumerate_fields(10**5, sink=tables.append)
        [table] = tables
        # any split by disc keeps each disc's fields in one part
        mod = table[:, 10] % 7 < 3
        halves = [table[mod], table[~mod]]
        merged = enumeration._merged_fields(halves, 6 * len(table))
        assert merged.tobytes() == table.tobytes()
        # an empty table first, last or on both sides leaves the other as it is
        empty = table[:0]
        for tables, want in (
            ([empty, table], table),
            ([table, empty], table),
            ([empty, empty], empty),
        ):
            merged = enumeration._merged_fields(tables, 6 * len(want))
            assert merged.shape == want.shape and merged.dtype == want.dtype
            assert merged.tobytes() == want.tobytes()
        # a shared disc inside the first table, and at its first and last rows
        for row in (100, 0, len(table) - 1):
            with pytest.raises(AssertionError, match="kept in two parts"):
                enumeration._merged_fields(
                    [table, table[row : row + 1]], 6 * (len(table) + 1)
                )

    def test_merge_peak_is_at_most_one_and_a_half_merged_tables(self):
        # the parts' tables are the merge's input; the merged table and
        # the insertion points take 1.14 merged tables, and a concatenated
        # copy reordered into a second one would take 2
        from biquad_hnp import enumeration

        tables = []
        enumerate_fields(10**10, sink=tables.append)
        table = np.concatenate(tables)
        mod = table[:, 10] % 7 < 3
        halves = [table[mod], table[~mod]]
        tracemalloc.start()
        try:
            merged = enumeration._merged_fields(halves, 6 * len(table))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert merged.tobytes() == table.tobytes()
        assert peak <= 1.5 * merged.nbytes

    def test_small_count_does_not_fork(self, forked, monkeypatch):
        # 10^6 has fewer odd squarefree cores below 1000 than one slab
        def no_fork():
            raise AssertionError("forked for a count of one slab")

        monkeypatch.setattr(os, "fork", no_fork)
        report = enumerate_fields(10**6, sink=lambda columns: None)
        assert (report.S, report.parts) == (1014, 1)

    def test_stats_keep_the_childs_stage_seconds(self, forked, monkeypatch):
        # the child's kernel call sleeps 0.3 s: kernel_s is the slower
        # part's kernel seconds, and the parent's wait for the child is
        # booked to no stage
        true_block = _kernels.enumerate_block

        def slow_in_the_child(slabs, root, spf, collect, part=0, parts=1):
            if part == 1:
                time.sleep(0.3)
            return true_block(slabs, root, spf, collect, part, parts)

        monkeypatch.setattr(_kernels, "enumerate_block", slow_in_the_child)
        report = enumerate_fields(10**8, sink=lambda columns: None)
        assert report.parts == 2
        assert report.stats["kernel_s"] >= 0.3
        assert report.stats["deliver_s"] < 0.3

    def test_stats_keep_four_stages_on_both_paths(self, request):
        for path in ("forked", "unforked"):
            request.getfixturevalue(path)
            report = enumerate_fields(10**9, sink=lambda columns: None)
            assert set(report.stats) == {"sieve_s", "kernel_s", "dedup_s", "deliver_s"}
            assert all(v > 0 for v in report.stats.values())

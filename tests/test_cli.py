"""CLI surface tests: subcommands, formats, exit codes, file outputs."""

import contextlib
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from biquad_hnp import cli, enumeration
from biquad_hnp.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, main, parse_bound

CLI_ENTRY = "import sys; from biquad_hnp.cli import main; sys.exit(main())"


def run_cli(argv, timeout=30, **kwargs):
    """The CLI in a fresh process, with this checkout's src on the path."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-c", CLI_ENTRY, *argv],
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(src)},
        **kwargs,
    )


class TestParseBound:
    def test_exact_scientific(self):
        assert parse_bound("1e10") == 10**10
        assert parse_bound("25e2") == 2500
        assert parse_bound("2.5e3") == 2500
        assert parse_bound("144") == 144

    def test_rejects_fractional(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_bound("2.5")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_bound("abc")

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--max-disc", "inf"],
            ["count", "--max-disc", "snan"],
            ["count", "--max-disc", "1e2000000"],
            ["count", "--max-disc", "1e100000"],
            ["count", "--max-disc", "1e4", "--audit-bound", "inf"],
            ["compare", "--checkpoints", "inf"],
            ["constants", "--prime-limit", "inf"],
        ],
    )
    def test_unbounded_literal_exits_2_at_once(self, argv):
        # a fresh process under a timeout: int() of 1e2000000 runs for minutes
        proc = run_cli(argv, capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert f"{argv[-1]!r}" in proc.stderr


def splice_field_row(monkeypatch, at, row):
    """enumerate_fields delivers row, 12 columns, at index at of its stream."""
    true_enumerate = enumeration.enumerate_fields

    def spliced(X, sink=None):
        tables = [np.empty((0, enumeration.FIELD_COLUMNS), np.int64)]
        report = true_enumerate(X, sink=tables.append)
        sink(np.insert(np.concatenate(tables), at, row, axis=0))
        return report

    monkeypatch.setattr(enumeration, "enumerate_fields", spliced)


def flipped_at_48841(oracle):
    """oracle, a function of hnp.oracle_row's signature, with its verdict
    flipped on the field of disc 48841, (1, 13, 17) and its moves, which
    fails: witness 13 in place of 0."""

    def flipped(m, a1, b1, table=None):
        *values, witness = oracle(m, a1, b1, table)
        if values[7] == 48841:
            witness = 0 if witness else 13
        return (*values, witness)

    return flipped


def starve_part_one(monkeypatch):
    """The kernel raises MemoryError for part 1 of 2, the forked child's."""
    from biquad_hnp import _kernels

    true_block = _kernels.enumerate_block

    def starved(cores, root, spf, collect, part=0, parts=1):
        if part == 1:
            raise MemoryError
        return true_block(cores, root, spf, collect, part, parts)

    monkeypatch.setattr(_kernels, "enumerate_block", starved)


class TestCount:
    def test_text(self, capsys):
        assert main(["count", "--max-disc", "144"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "S (all fields)      = 1" in out
        assert "S~ (HNP failures)   = 0" in out

    def test_below_minimum(self, capsys):
        assert main(["count", "--max-disc", "143"]) == EXIT_OK
        assert "= 0" in capsys.readouterr().out

    def test_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--max-disc", "0"])
        assert exc.value.code == EXIT_USAGE

    def test_json(self, capsys):
        assert main(["count", "--max-disc", "1e4", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["S"] == 47
        assert payload["S_tilde"] == 5
        assert payload["ordered_total"] == 282
        assert sum(c["count"] for c in payload["classes"]) == 282
        stats = payload["stats"]
        assert set(stats) == {"sieve_s", "kernel_s", "dedup_s", "deliver_s"}
        assert all(v >= 0 for v in stats.values())
        assert stats["dedup_s"] == stats["deliver_s"] == 0

    def test_csv_classes(self, capsys):
        assert main(["count", "--max-disc", "1e4", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].strip() == "sign2,sign3,even_slot,res1,res2,res3,count,failing"
        total = sum(int(line.split(",")[6]) for line in lines[1:])
        assert total == 282

    # sha256 and line count of the whole class table, taken before the
    # tallies were kept as arrays up to the output
    @pytest.mark.parametrize(
        "bound, lines, digest",
        [
            ("1e8", 977, "303ca6f8457150a81ad033d3da51f2cf81f303addfdd84124e8894f7348f414c"),
            ("1e10", 1025, "84f5135cab2764afd7d17d77dcf7779e9e94c2314164c2258b6b756a2474e107"),
        ],
    )
    def test_csv_classes_pinned(self, bound, lines, digest, capsys):
        assert main(["count", "--max-disc", bound, "--format", "csv"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("\r\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "bound, entries, digest",
        [
            ("1e6", 662, "9959cf99c87bd39220f299d6ac0590db2d924446e6cfe1caebda6fb98344e2ad"),
            ("1e8", 976, "125c3f6aeefb6dc4546f3a38ae904cc9b557ac7dae8d7f79a47f2b6505a4562c"),
            ("1e10", 1024, "36dd685b3c7c18c25c9f2c23e9eabb344c56c53584f63a3679de9c3812a827a7"),
        ],
    )
    def test_json_classes_pinned(self, bound, entries, digest, capsys):
        assert main(["count", "--max-disc", bound, "--format", "json"]) == EXIT_OK
        classes = json.loads(capsys.readouterr().out)["classes"]
        assert len(classes) == entries
        assert hashlib.sha256(json.dumps(classes, indent=2).encode()).hexdigest() == digest

    def test_json_is_the_text_of_json_dumps(self, capsys):
        # the report is written chunk by chunk; its bytes are those of
        # json.dumps(..., indent=2) and a newline
        assert main(["count", "--max-disc", "1e6", "--format", "json"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert (
            main(["count", "--max-disc", "1e4", "--format", "json", "--out", str(path)])
            == EXIT_OK
        )
        assert json.loads(path.read_text())["S"] == 47

    def test_record_lines_are_json_dumps_of_each_row(self):
        # (m, a1, b1, disc, c, witness) of synthetic rows: negative a1 and
        # b1, c = 1, 4 and 8, disc up to 2^63 - 1 and both verdicts
        top = 2**63 - 1
        rows = [
            (1, 13, 17, 48841, 1, 0),
            (1, -1, 3, 144, 4, 2),
            (3, -7, -11, 2**62, 8, 5),
            (top, -(2**62), -top, top, 8, 0),
            (5, 2, -3, top, 1, 2**31),
        ]
        columns = np.zeros((len(rows), enumeration.FIELD_COLUMNS), dtype=np.int64)
        columns[:, (0, 1, 2, 10, 9, 11)] = rows
        want = "".join(
            json.dumps(
                {"m": m, "a1": a1, "b1": b1, "disc": disc, "c": c,
                 "verdict": "holds" if w else "fails"}
            ) + "\n"
            for m, a1, b1, disc, c, w in rows
        )
        assert cli._ndjson_lines(columns) == want
        assert cli._ndjson_lines(columns[:0]) == ""

    def test_records_ndjson(self, tmp_path):
        path = tmp_path / "fields.ndjson"
        assert main(["count", "--max-disc", "1e4", "--records", str(path)]) == EXIT_OK
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 47
        first = json.loads(lines[0])
        assert set(first) == {"m", "a1", "b1", "disc", "c", "verdict"}
        assert first["disc"] == 144
        assert first["verdict"] == "holds"
        discs = [json.loads(line)["disc"] for line in lines]
        assert discs == sorted(discs)
        verdicts = {json.loads(line)["verdict"] for line in lines}
        assert verdicts == {"holds", "fails"}

    # sha256 and line count of the whole stream, taken from the per-field
    # json.dumps writer that the f-string writer replaced
    @pytest.mark.parametrize(
        "bound, lines, digest",
        [
            ("1e6", 1014, "303360f12e3d1b73a2608af5d2ffb7e06cd1cd665b49eabd5a33262e24f6f4bd"),
            ("1e7", 4207, "071f9542df4e407fc265bee315374f8bbc47d52f09eca8c8c85225d331700971"),
        ],
    )
    def test_records_stream_pinned(self, bound, lines, digest, tmp_path):
        path = tmp_path / "fields.ndjson"
        assert main(["count", "--max-disc", bound, "--records", str(path)]) == EXIT_OK
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        rows = data.decode("utf-8").splitlines()
        assert len(rows) == lines
        for row in rows:
            assert list(json.loads(row)) == ["m", "a1", "b1", "disc", "c", "verdict"]

    def test_usage_error_keeps_records_file(self, tmp_path, capsys):
        path = tmp_path / "fields.ndjson"
        path.write_text("keep\n")
        assert main(["count", "--max-disc", "1e19", "--records", str(path)]) == EXIT_USAGE
        assert "2^63" in capsys.readouterr().err
        assert path.read_text() == "keep\n"

    def test_audit_bound_cannot_exceed_max_disc(self, capsys):
        assert (
            main(["count", "--max-disc", "1e3", "--audit-bound", "1e4"]) == EXIT_USAGE
        )
        assert "audit-bound" in capsys.readouterr().err

    def test_negative_audit_bound_is_usage_error(self, capsys, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("the count ran with a negative audit bound")

        monkeypatch.setattr(enumeration, "enumerate_fields", no_count)
        assert main(["count", "--max-disc", "1e4", "--audit-bound=-5"]) == EXIT_USAGE
        assert "audit-bound" in capsys.readouterr().err

    def test_records_and_out_on_one_file_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("the count ran with both outputs on one file")

        monkeypatch.setattr(enumeration, "enumerate_fields", no_count)
        path = tmp_path / "report"
        (tmp_path / "link").symlink_to(path)
        argv = ["count", "--max-disc", "1e4", "--records", str(path), "--out"]
        for out in (path, tmp_path / "link"):
            assert main([*argv, str(out)]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --records and --out name the same file\n"

    def test_records_and_out_on_one_file_keep_its_bytes(self, tmp_path, capsys):
        # both paths are compared before either is opened, and so truncated
        path = tmp_path / "report"
        path.write_text("keep me\n")
        (tmp_path / "link").symlink_to(path)
        argv = ["count", "--max-disc", "1e4", "--records", str(path), "--out"]
        for out in (path, tmp_path / "link"):
            assert main([*argv, str(out)]) == EXIT_USAGE
            assert capsys.readouterr().err == "error: --records and --out name the same file\n"
            assert path.read_text() == "keep me\n"

    @staticmethod
    def corrupt_verdict(monkeypatch, child_only=False):
        """Flip the kernel's verdict on the records of disc 48841, the field
        (1, 13, 17), or, with child_only, on the records of the first disc
        in a forked child's part."""
        from biquad_hnp import _kernels

        true_block = _kernels.enumerate_block
        parent = os.getpid()

        def corrupted(*args, **kwargs):
            total, fails, records = true_block(*args, **kwargs)
            if not child_only:
                records[records[:, 3] == 48841, 5] ^= 1
            elif os.getpid() != parent:
                records[records[:, 3] == records[0, 3], 5] ^= 1
            return total, fails, records

        monkeypatch.setattr(enumeration._kernels, "enumerate_block", corrupted)

    def test_failed_self_check_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        self.corrupt_verdict(monkeypatch)
        argv = ["count", "--max-disc", "1e5", "--records", str(tmp_path / "fields")]
        assert main(argv) == EXIT_VERIFY_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: self-check failed: classifier disagreement on (1, 13, 17)\n"
        )

    def test_failed_dedup_check_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # the kernel sends every record twice: an AssertionError of the dedup
        true_block = enumeration._kernels.enumerate_block

        def doubled(*args, **kwargs):
            total, fails, records = true_block(*args, **kwargs)
            return total, fails, np.vstack([records, records])

        monkeypatch.setattr(enumeration._kernels, "enumerate_block", doubled)
        argv = ["count", "--max-disc", "1e4", "--records", str(tmp_path / "fields")]
        assert main(argv) == EXIT_VERIFY_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: self-check failed: field (")
        assert captured.err.endswith(") kept twice\n") and captured.err.count("\n") == 1

    def test_failed_self_check_in_the_child_is_one_error_line(
        self, tmp_path, capfd, monkeypatch, forked
    ):
        # the child's traceback would go to file descriptor 2
        self.corrupt_verdict(monkeypatch, child_only=True)
        argv = ["count", "--max-disc", "1e8", "--records", str(tmp_path / "fields")]
        assert main(argv) == EXIT_VERIFY_FAILED
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: self-check failed: worker process failed with exit code 1: "
            "RuntimeError: classifier disagreement on ("
        )
        assert captured.err.count("\n") == 1

    def test_audit_in_a_fresh_interpreter(self):
        # the report of an audited count is that of the count alone
        src = Path(__file__).resolve().parents[1] / "src"
        argv = [sys.executable, "-m", "biquad_hnp.cli", "count", "--max-disc", "1e6"]
        argv += ["--format", "json"]
        runs = [
            subprocess.run(
                argv + extra,
                capture_output=True,
                text=True,
                timeout=60,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
            for extra in (["--audit-bound", "1e6"], [])
        ]
        for proc in runs:
            assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        audited, alone = (untimed(proc.stdout) for proc in runs)
        assert audited == alone
        assert json.loads(audited)["S"] == 1014

    @pytest.mark.parametrize("bound", ["1e19", "1e30"])
    def test_bound_beyond_int64_is_usage_error(self, bound, capsys, monkeypatch):
        from biquad_hnp import _kernels

        def no_sieve(limit):
            raise AssertionError(f"a sieve to {limit} was requested")

        # the bound must be refused before any sieve or factor table is
        # allocated: the factor table of the count and of the audit, and
        # the primes of its count of cores (primes_up_to, which every sieve
        # calls)
        monkeypatch.setattr(_kernels, "primes_up_to", no_sieve)
        monkeypatch.setattr(_kernels, "odd_lpf_table", no_sieve)
        assert main(["count", "--max-disc", bound]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "2^63" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "option, path",
        [("--records", "."), ("--records", "missing/x.ndjson"), ("--out", ".")],
    )
    def test_unwritable_path_is_usage_error(self, option, path, tmp_path, capsys):
        # a directory, or a file in a directory that does not exist
        target = str(tmp_path / path)
        assert main(["count", "--max-disc", "1e4", option, target]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and option in captured.err
        assert "Traceback" not in captured.err


    @pytest.mark.parametrize(
        "argv",
        [["count", "--max-disc", "1e12"], ["compare", "--checkpoints", "1e6,1e12"]],
        ids=["count", "compare"],
    )
    def test_unwritable_out_fails_before_counting(self, argv, tmp_path, capsys, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("the count ran before --out was opened")

        monkeypatch.setattr(enumeration, "enumerate_fields", no_count)
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write --out")

    @pytest.mark.parametrize(
        "argv, bound",
        [
            (["count", "--max-disc", "9e18"], "--max-disc 9000000000000000000"),
            (["compare", "--checkpoints", "1e6,9e18"], "--checkpoints 1000000,9000000000000000000"),
        ],
        ids=["count", "compare"],
    )
    def test_sieve_beyond_memory_is_usage_error(self, argv, bound, capsys, monkeypatch):
        from biquad_hnp import _kernels

        # stands in for the allocation: a real sieve to this bound would
        # take tens of GB
        def no_memory(limit):
            raise MemoryError

        monkeypatch.setattr(_kernels, "odd_lpf_table", no_memory)
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and bound in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_sieve_beyond_physical_memory_is_refused_unallocated(self, capsys, monkeypatch):
        from biquad_hnp import _kernels, arith

        # a machine of 1 MiB: the factor table to 10^6 and a pass over its
        # cores would peak near 3.4 MB
        allocations = []
        monkeypatch.setattr(arith, "physical_memory", lambda: 2**20)
        monkeypatch.setattr(_kernels, "odd_lpf_table", lambda limit: allocations.append(limit))
        monkeypatch.setattr(_kernels, "primes_up_to", lambda limit: allocations.append(limit))
        assert main(["count", "--max-disc", "1e12"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert allocations == []
        assert captured.out == ""
        assert captured.err == "error: not enough memory for --max-disc 1000000000000\n"


    def test_memory_error_in_the_child_is_usage_error(self, tmp_path, capfd, monkeypatch, forked):
        # as it is in the parent: not a failed self-check
        starve_part_one(monkeypatch)
        argv = ["count", "--max-disc", "1e8", "--records", str(tmp_path / "fields")]
        assert main(argv) == EXIT_USAGE
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == "error: not enough memory for --max-disc 100000000\n"


class TestClassify:
    def test_gens_failing_field(self, capsys):
        assert main(["classify", "--gens", "13", "17"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "48841" in out
        assert "fails" in out

    def test_gens_holding_field(self, capsys):
        assert main(["classify", "--gens", "2", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "2304" in out
        assert "holds" in out
        assert "witness       2" in out

    def test_triple_json(self, capsys):
        assert main(["classify", "--triple", "1", "13", "17", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "fails"
        assert payload["disc"] == 48841
        assert payload["kernels"] == [13, 17, 221]

    def test_field_data_is_derived_once(self, monkeypatch, capsys):
        # classify asks the oracle once, with no table, and prints its nine
        # values and the verdict they give: c = 1 failing, c = 4 and c = 8
        calls = []
        true_oracle = cli.oracle_row

        def counted(*args):
            calls.append(args)
            return true_oracle(*args)

        monkeypatch.setattr(cli, "oracle_row", counted)
        for triple, c, witness in [((1, 13, 17), 1, 0), ((1, -1, 3), 4, 2), ((1, -1, 2), 8, 2)]:
            calls.clear()
            argv = ["classify", "--triple", *map(str, triple), "--format", "json"]
            assert main(argv) == EXIT_OK
            assert calls == [triple]
            payload = json.loads(capsys.readouterr().out)
            got = (
                *payload["kernels"],
                *payload["fundamental_discs"],
                payload["c"],
                payload["disc"],
                payload["witness"] or 0,
            )
            assert got == true_oracle(*triple)
            assert (payload["c"], payload["witness"]) == (c, witness or None)
            assert payload["verdict"] == ("holds" if witness else "fails")

    def test_non_squarefree_rejected(self, capsys):
        assert main(["classify", "--gens", "4", "5"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: generator 4 is not squarefree\n"

    def test_degenerate_rejected(self, capsys):
        assert main(["classify", "--gens", "13", "13"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: generators 13, 13 span a quadratic field\n"

    def test_generator_one_rejected(self, capsys):
        assert main(["classify", "--gens", "1", "5"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: generator 1 yields a quadratic, not biquadratic, field\n"
        )

    def test_invalid_triple_rejected(self, capsys):
        assert main(["classify", "--triple", "2", "6", "5"]) == EXIT_USAGE

    def test_invalid_triple_error_line(self, capsys):
        assert main(["classify", "--triple", "3", "3", "5"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: components of FieldTriple(m=3, a1=3, b1=5) are not pairwise coprime\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["--gens", "1000000000000000003", "7"],
            ["--gens", "7", "-1000000000001"],
            ["--triple", "1", "2", "1000000000001"],
        ],
    )
    def test_component_beyond_10_12_is_usage_error(self, argv):
        # a fresh process under a timeout: trial division to 10^9 would hang
        started = time.perf_counter()
        proc = run_cli(["classify", *argv], capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("error:") and "10^12" in proc.stderr
        assert time.perf_counter() - started < 5

    def test_components_near_10_12_classify(self, capsys):
        argv = ["classify", "--triple", "999999999989", "-999999999961", "999999999959"]
        assert main([*argv, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "holds"
        assert payload["witness"] == 999999999959


class TestConstants:
    def test_text(self, capsys):
        assert main(["constants", "--prime-limit", "1e5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Euler product" in out
        assert "agreement within tails        True" in out

    def test_json(self, capsys):
        assert main(["constants", "--prime-limit", "1e4", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["crosscheck"]["agrees"] is True
        assert 0.11 < payload["euler_product_total"]["value"] < 0.12


    def test_prime_limit_beyond_memory_is_usage_error(self, capsys, monkeypatch):
        from biquad_hnp import asymptotics

        def no_memory(limit):
            raise MemoryError

        monkeypatch.setattr(asymptotics, "_primes_up_to", no_memory)
        assert main(["constants", "--prime-limit", "1e17"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: not enough memory for --prime-limit 100000000000000000\n"

    @pytest.mark.parametrize(
        "argv, bounds",
        [
            (["constants"], "--prime-limit 100000000"),
            (["compare", "--checkpoints", "1e4"], "--checkpoints 10000, --prime-limit 100000000"),
        ],
        ids=["constants", "compare"],
    )
    def test_prime_limit_beyond_physical_memory_is_refused_unallocated(
        self, argv, bounds, capsys, monkeypatch
    ):
        from biquad_hnp import _kernels, arith

        # a machine of 256 MB: the primes to 10^8 and their products
        # would peak near 230 MB, beyond the 3 bytes per n allowed
        allocations = []
        monkeypatch.setattr(arith, "physical_memory", lambda: 256 * 2**20)
        monkeypatch.setattr(_kernels, "primes_up_to", lambda limit: allocations.append(limit))
        assert main([*argv, "--prime-limit", "1e8"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert allocations == []
        assert captured.out == ""
        assert captured.err == f"error: not enough memory for {bounds}\n"


class TestCompare:
    def test_csv_row_shape(self, capsys):
        assert main(["compare", "--checkpoints", "144,1e4"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert (
            lines[0].strip()
            == "X,S,S_main,S_ratio,Stilde,Stilde_main,Stilde_ratio,fail_fraction"
        )
        first = lines[1].split(",")
        assert first[0] == "144"
        assert first[1] == "1"
        # S_ratio = 1 / S_main for the single field at 144
        assert float(first[3]) == pytest.approx(1.0 / float(first[2]), rel=1e-12)

    def test_empty_checkpoints(self, capsys):
        assert main(["compare", "--checkpoints", ""]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1  # header only

    def test_unsorted_rejected(self, capsys):
        assert main(["compare", "--checkpoints", "1e4,1e3"]) == EXIT_USAGE

    def test_checkpoint_beyond_int64_rejected_before_counting(self, capsys, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("a checkpoint was counted")

        monkeypatch.setattr(enumeration, "enumerate_fields", no_count)
        assert main(["compare", "--checkpoints", "1e4,1e19"]) == EXIT_USAGE
        assert "2^63" in capsys.readouterr().err

    @pytest.mark.parametrize("checkpoints", ["1e4,1e3", "1e4,1e4", "1e3,1e4,1e4"])
    def test_not_strictly_ascending_keeps_out_file(
        self, checkpoints, tmp_path, capsys, monkeypatch
    ):
        def no_count(*args, **kwargs):
            raise AssertionError("a checkpoint was counted")

        monkeypatch.setattr(enumeration, "enumerate_fields", no_count)
        path = tmp_path / "report.csv"
        path.write_text("keep\n")
        argv = ["compare", "--checkpoints", checkpoints, "--out", str(path)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: checkpoints must be strictly ascending\n"
        assert path.read_text() == "keep\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--checkpoints", "1e3", "--prime-limit", "1", "--out", "report"],
            ["constants", "--prime-limit", "1"],
        ],
        ids=["compare", "constants"],
    )
    def test_prime_limit_below_2_is_refused_at_parse_time(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        Path("report").write_text("keep\n")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"biquad-hnp {argv[0]}: error: argument --prime-limit: bound must be at least 2: '1'"
        ]
        assert "Traceback" not in captured.err
        assert Path("report").read_text() == "keep\n"

    def test_json(self, capsys):
        assert main(["compare", "--checkpoints", "1e5", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        row = payload["rows"][0]
        assert row["S"] == 243
        assert row["Stilde"] == 30
        assert row["fail_fraction"] == pytest.approx(30 / 243)


TIMING = re.compile(
    r'("(?:wall_time_s|sieve_s|kernel_s|dedup_s|deliver_s|duration_s)": )[-+0-9.e]+'
)


def untimed(text):
    """A report with each timing value in a JSON object set to 0."""
    return TIMING.sub(r"\g<1>0", text)


CLASSIFY_13_17 = """\
triple        (m, a1, b1) = (1, 13, 17)
kernels       (13, 17, 221)
fundamental   (13, 17, 221)
disc          48841   (c = 1)
splitting     fails
"""


# whole reports, taken before the one report writer replaced the
# per-command format branches; timing values are set to 0 or dropped
class TestOutputPins:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["compare", "--checkpoints", "144,1e4,1e6"],
                "X,S,S_main,S_ratio,Stilde,Stilde_main,Stilde_ratio,fail_fraction\r\n"
                "144,1,0.815788778512603,1.22580749617966,0,1.52211443117455,0,0\r\n"
                "10000,47,23.348968176559,2.01293691629531,5,17.2676747789595,"
                "0.289558383743273,0.106382978723404\r\n"
                "1000000,1014,525.351783972578,1.93013525590869,119,211.484961263886,"
                "0.562687764126712,0.117357001972387\r\n",
            ),
            (
                ["compare", "--checkpoints", "144,1e4,1e6", "--format", "text"],
                "             X          S   S_ratio   Stilde  St_ratio  fail_frac\n"
                "           144          1    1.2258        0    0.0000   0.000000\n"
                "         10000         47    2.0129        5    0.2896   0.106383\n"
                "       1000000       1014    1.9301      119    0.5627   0.117357\n",
            ),
            (
                ["compare", "--checkpoints", ""],
                "X,S,S_main,S_ratio,Stilde,Stilde_main,Stilde_ratio,fail_fraction\r\n",
            ),
            (
                ["compare", "--checkpoints", "", "--format", "text"],
                "             X          S   S_ratio   Stilde  St_ratio  fail_frac\n",
            ),
            (
                ["compare", "--checkpoints", "", "--format", "json"],
                '{\n  "schema_version": 1,\n  "rows": []\n}\n',
            ),
            (["classify", "--gens", "13", "17"], CLASSIFY_13_17),
            (["classify", "--triple", "1", "13", "17"], CLASSIFY_13_17),
            (
                ["classify", "--gens", "2", "3"],
                "triple        (m, a1, b1) = (1, 2, 3)\n"
                "kernels       (2, 3, 6)\n"
                "fundamental   (8, 12, 24)\n"
                "disc          2304   (c = 8)\n"
                "splitting     holds\n"
                "witness       2\n",
            ),
            (
                ["constants", "--prime-limit", "1e5"],
                "prime limit                   100000\n"
                "Euler product (all fields)    0.114884597071403 +- 6.89e-06\n"
                "Euler product (failures)      0.427866079683989 +- 8.56e-06\n"
                "failing main-term coefficient 0.0568979565118506\n"
                "assembled closed form         0.0568979108655395\n"
                "relative residual             8.02e-07\n"
                "agreement within tails        True\n",
            ),
            (
                ["count", "--max-disc", "1", "--format", "csv"],
                "sign2,sign3,even_slot,res1,res2,res3,count,failing\r\n",
            ),
            (
                # beyond any sieve: the components are trial-divided, witness 0
                ["classify", "--triple", "1", "999999999989", "5"],
                "triple        (m, a1, b1) = (1, 999999999989, 5)\n"
                "kernels       (999999999989, 5, 4999999999945)\n"
                "fundamental   (999999999989, 5, 4999999999945)\n"
                "disc          24999999999450000000003025   (c = 1)\n"
                "splitting     fails\n",
            ),
        ],
    )
    def test_literal(self, argv, expected, capsys):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["compare", "--checkpoints", "144,1e4,1e6", "--format", "json"],
                "ce532ad1e7fb5343a1f25c18234ef327b181377a100580e26f7ac964f93bf898",
            ),
            (
                ["classify", "--gens", "13", "17", "--format", "json"],
                "728a04c2ff66dfd42e7cc2c0d2c9abae6df7df809e3384fb9468ea96edba5126",
            ),
            (
                ["classify", "--triple", "1", "13", "17", "--format", "json"],
                "728a04c2ff66dfd42e7cc2c0d2c9abae6df7df809e3384fb9468ea96edba5126",
            ),
            (
                ["classify", "--gens", "2", "3", "--format", "json"],
                "d878c6e6c7239146aec99bf3613f1d9d4d6ac13763ed8382496e4fda81494873",
            ),
            (
                ["constants", "--prime-limit", "1e5", "--format", "json"],
                "9ac643bd22854e5ff457f7af90da4e8925e95911b52291d65a1a5f3ae41a3036",
            ),
            (
                ["verify", "--format", "json"],
                "abf8a9d057672814f9b0e4631da2496da9e309573b7f0c76c47da707dfc3af24",
            ),
            (
                ["count", "--max-disc", "1", "--format", "json"],
                "cef2dc56ba63e16cc367c498e80b9405b996b0d5bc8f905c59d71c574131ebda",
            ),
            (
                # "parts" reads 2 only where the count forks
                ["count", "--max-disc", "1e8", "--format", "json"],
                "29d48186c612bfe817a8fd403ada9e46c63195ea252cee2339538aaf4114f943",
            ),
        ],
    )
    def test_digest(self, argv, digest, capsys, forked):
        assert main(argv) == EXIT_OK
        out = untimed(capsys.readouterr().out)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "bound, expected",
        [
            (
                "1",
                "X = 1\n"
                "S (all fields)      = 0\n"
                "S~ (HNP failures)   = 0\n"
                "ordered tuples      = 0\n"
                "fail fraction       = 0\n"
                "classes represented = 0\n",
            ),
            (
                "1e8",
                "X = 100000000\n"
                "S (all fields)      = 16679\n"
                "S~ (HNP failures)   = 1807\n"
                "ordered tuples      = 100074\n"
                "fail fraction       = 0.10833982852689\n"
                "classes represented = 976\n",
            ),
        ],
    )
    def test_count_text(self, bound, expected, capsys):
        assert main(["count", "--max-disc", bound]) == EXIT_OK
        *lines, wall = capsys.readouterr().out.splitlines(keepends=True)
        assert re.fullmatch(r"wall time           = \d+\.\d{3} s\n", wall)
        assert "".join(lines) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--checkpoints", "144,1e4"],
        ["compare", "--checkpoints", "144,1e4", "--format", "json"],
        ["compare", "--checkpoints", "144,1e4", "--format", "text"],
        ["count", "--max-disc", "1e4", "--format", "json"],
    ],
    ids=["compare-csv", "compare-json", "compare-text", "count-json"],
)
def test_out_file_holds_the_bytes_of_stdout(argv, tmp_path, capsys):
    path = tmp_path / "report"
    assert main([*argv, "--out", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert main(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.endswith("\n")
    assert untimed(path.read_bytes().decode()) == untimed(stdout)


VERIFY_TEXT = """\
PASS  class weight sum (all classes): expected 23, got 23
PASS  class weight sum (failure classes): expected 112, got 112
PASS  signed class weight sum: expected 0, got 0
PASS  signed class weight sum per sign pair: expected 0, 0, 0, 0, got 0, 0, 0, 0
PASS  scalar oracles on the stream, 16679 fields to disc 1e+08: expected 0 mismatches, got 0 mismatches
PASS  classifier equivalence, 64140 triples to |m a1 b1| = 2000: expected 0 disagreements, got 0 disagreements
"""


class TestVerify:
    def test_full_suite_passes(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "expected 23, got 23" in out
        assert "expected 112, got 112" in out

    def test_json_shape(self, capsys):
        assert main(["verify", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 6

    def test_json_durations(self, capsys):
        assert main(["verify", "--format", "json"]) == EXIT_OK
        checks = json.loads(capsys.readouterr().out)["checks"]
        for check in checks:
            assert isinstance(check["duration_s"], float)
            assert check["duration_s"] >= 0.0

    def test_injected_fault_is_caught(self, capsys, monkeypatch):
        # a perturbed c in the kernel's class table must break the 23 identity
        # and exit nonzero
        from biquad_hnp import _kernels

        class_c, class_ok, u = _kernels._class_tables()
        perturbed = np.where(class_c == 8, 4, class_c)
        monkeypatch.setattr(_kernels, "_class_tables", lambda: (perturbed, class_ok, u))
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  class weight sum (all classes): expected 23" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_non_integer_class_sum_is_a_failure(self, fmt, capsys, monkeypatch):
        # c = 3 for id 0 makes the exact sums non-integers; each is reported
        # as it is, and every check still runs
        from biquad_hnp import _kernels

        class_c, class_ok, u = _kernels._class_tables()
        perturbed = class_c.copy()
        perturbed[0] = 3
        monkeypatch.setattr(_kernels, "_class_tables", lambda: (perturbed, class_ok, u))
        assert main(["verify", "--format", fmt]) == 1
        out = capsys.readouterr().out
        got = ["275/12", "334/3", "-2/3", "-2/3, 0, 0, 0"]
        if fmt == "json":
            checks = json.loads(out)["checks"]
            assert len(checks) == 6
            assert [c["actual"] for c in checks[:4]] == got
            assert not any(c["passed"] for c in checks[:4])
        else:
            lines = out.splitlines()
            assert len(lines) == 6
            for line, actual in zip(lines, got):
                assert line.startswith("FAIL  ") and line.endswith(f"got {actual}")

    @pytest.mark.parametrize("bad", [(3, 3, 5), (1, 1, 5)], ids=["not_coprime", "kernel_one"])
    def test_malformed_identity_tuple_is_a_violation(self, capsys, monkeypatch, bad):
        # a delivered row that names no field fails check 5; it is not a
        # usage error
        splice_field_row(monkeypatch, 0, [*bad, *[0] * 9])
        monkeypatch.setattr(
            enumeration,
            "tuple_records",
            lambda max_core, part=0, parts=1: np.empty((0, 6), dtype=np.int64),
        )
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  scalar oracles on the stream, 16680 fields" in out
        assert "got 1 mismatches" in out
        assert "PASS  classifier equivalence, 0 triples" in out

    @pytest.mark.parametrize("bad", [(3, 3, 5), (1, 1, 5)], ids=["not_coprime", "kernel_one"])
    def test_malformed_sweep_tuple_is_a_disagreement(self, capsys, monkeypatch, bad):
        # a row of part 0 replaced by a triple that names no field fails
        # check 6; it is not a usage error.  The last row, a move of a
        # record, is one disagreement; the first, a kernel record, fails
        # the six rows of its field
        true_tuples = enumeration.tuple_records
        monkeypatch.setattr(enumeration, "enumerate_fields", lambda X, sink=None: None)
        for row, disagreements in [(-1, 1), (0, 6)]:

            def faulty(max_core, part=0, parts=1):
                records = true_tuples(max_core, part, parts)
                if part == 0:
                    records[row, :3] = bad
                return records

            with monkeypatch.context() as patch:
                patch.setattr(enumeration, "tuple_records", faulty)
                assert main(["verify"]) == 1
            out = capsys.readouterr().out
            assert "FAIL  classifier equivalence, 64140 triples" in out
            assert f"got {disagreements} disagreements" in out
            assert "PASS  scalar oracles on the stream, 0 fields" in out

    def test_malformed_row_in_the_childs_block_is_a_violation(self, capsys, monkeypatch, forked):
        # block 1 of EMIT_CHUNK rows is checked by the forked child
        splice_field_row(monkeypatch, enumeration.EMIT_CHUNK + 1, [3, 3, 5, *[0] * 9])
        monkeypatch.setattr(
            enumeration,
            "tuple_records",
            lambda max_core, part=0, parts=1: np.empty((0, 6), dtype=np.int64),
        )
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  scalar oracles on the stream, 16680 fields" in out
        assert "got 1 mismatches" in out

    @pytest.mark.parametrize(
        "column, match",
        [(3, "discriminant identity violated"), (5, "classifier disagreement")],
        ids=["disc", "verdict"],
    )
    def test_failed_self_check_is_a_failed_check(self, capsys, monkeypatch, column, match):
        # a kernel record that the field columns contradict stops the
        # audit's count; check 5 fails with its message, and every check runs
        from biquad_hnp import _kernels

        true_block = _kernels.enumerate_block

        def corrupted(*args, **kwargs):
            total, fails, records = true_block(*args, **kwargs)
            if args[1] == 10**4:  # the audit's count, not check 6's sweep
                records[records[:, 3] == 48841, column] ^= 1
            return total, fails, records

        monkeypatch.setattr(_kernels, "enumerate_block", corrupted)
        assert main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[4].startswith(
            "FAIL  scalar oracles on the stream, 0 fields to disc 1e+08: expected 0 mismatches, got "
        )
        assert match in lines[4]
        assert all(line.startswith("PASS  ") for line in lines[:4] + lines[5:])

    @pytest.mark.parametrize("path", ["forked", "unforked"])
    def test_text_output_is_the_same_on_both_paths(self, capsys, request, path):
        request.getfixturevalue(path)
        assert main(["verify"]) == EXIT_OK
        assert capsys.readouterr().out == VERIFY_TEXT

    def test_forked_sweeps_sum_to_one_part(self, monkeypatch, forked):
        # each sweep's forked halves add up to the counts of one part that
        # walks every row
        true_fork = enumeration.fork_parts
        sums = []

        def recorded(work):
            outs = true_fork(work)
            if len(outs[0]) == 2:  # a sweep's (rows, mismatches), not a count's part
                forked_sums = tuple(map(sum, zip(*outs)))
                sums.append((forked_sums, tuple(work(0, 1)), tuple(work(0, 2))))
            return outs

        monkeypatch.setattr(enumeration, "fork_parts", recorded)
        checks = cli._verify_checks()
        assert all(passed for _, _, _, passed, _ in checks)
        assert [forked_sums for forked_sums, _, _ in sums] == [(16679, 0), (64140, 0)]
        for forked_sums, one_part, parent_part in sums:
            assert forked_sums == one_part
            assert 0 < parent_part[0] < one_part[0]

    def test_parent_asks_the_kernel_for_its_part_only(self, monkeypatch, forked):
        # each process builds its own rows: no kernel call for all of them
        # before the fork
        from biquad_hnp import _kernels

        true_block = _kernels.enumerate_block
        parts = []

        def recorded(*args, **kwargs):
            parts.append(args[4:])
            return true_block(*args, **kwargs)

        monkeypatch.setattr(_kernels, "enumerate_block", recorded)
        checks = cli._verify_checks()
        assert all(passed for _, _, _, passed, _ in checks)
        assert parts == [(0, 2), (0, 2)]

    def test_memory_error_in_the_child_is_usage_error(self, capfd, monkeypatch, forked):
        starve_part_one(monkeypatch)
        assert main(["verify"]) == EXIT_USAGE
        captured = capfd.readouterr()
        assert (captured.out, captured.err) == ("", "error: not enough memory for verify\n")

    def test_json_in_a_fresh_interpreter(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "biquad_hnp.cli", "verify", "--format", "json"],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        names = [check["name"] for check in json.loads(proc.stdout)["checks"]]
        assert "16679 fields" in names[4] and "64140 triples" in names[5]

    def test_kernel_fault_is_caught(self, capsys, monkeypatch):
        # a flipped kernel verdict on the record of one field, (1, 13, 17)
        # with disc 48841, in the sweep must fail check 6 on its six tuples
        from biquad_hnp import _kernels

        true_block = _kernels.enumerate_block

        def faulty(*args, **kwargs):
            total, fails, records = true_block(*args, **kwargs)
            records[records[:, 3] == 48841, 5] ^= 1
            return total, fails, records

        monkeypatch.setattr(_kernels, "enumerate_block", faulty)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  classifier equivalence" in out
        assert "got 6 disagreements" in out

    def test_row_of_another_field_is_a_disagreement(self, capsys, monkeypatch):
        # disc 3136 holds two fields with the same |components|: (7, 2, -1)
        # holds and (7, -2, -1) fails.  The last row of the first, replaced
        # by (1, 2, -7) of the second with its verdict column kept, must
        # disagree, although check 6 asks the oracle once per field
        true_tuples = enumeration.tuple_records

        def faulty(max_core, part=0, parts=1):
            records = true_tuples(max_core, part, parts)
            hit = np.flatnonzero((records[:, 3] == 3136) & (records[:, 5] == 0))
            if len(hit):
                assert len(hit) == 6
                records[hit[-1], :3] = (1, 2, -7)
            return records

        monkeypatch.setattr(enumeration, "tuple_records", faulty)
        monkeypatch.setattr(enumeration, "enumerate_fields", lambda X, sink=None: None)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  classifier equivalence, 64140 triples" in out
        assert "got 1 disagreements" in out

    def test_row_relabelled_as_another_fields_row_is_a_disagreement(self, capsys, monkeypatch):
        # the row (1, -2, -7) of the holding field (7, 2, -1) of disc 3136,
        # replaced by (3, 2, -1) of the holding field of disc 576: the
        # oracle's verdict on the field the row now names agrees with the
        # row's, but its kernels are not those of its record
        true_tuples = enumeration.tuple_records

        def faulty(max_core, part=0, parts=1):
            records = true_tuples(max_core, part, parts)
            hit = np.flatnonzero((records[:, :4] == (1, -2, -7, 3136)).all(axis=1))
            if len(hit):
                assert len(hit) == 1 and records[hit[0], 5] == 0
                records[hit[0], :3] = (3, 2, -1)
            return records

        monkeypatch.setattr(enumeration, "tuple_records", faulty)
        monkeypatch.setattr(enumeration, "enumerate_fields", lambda X, sink=None: None)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  classifier equivalence, 64140 triples" in out
        assert "got 1 disagreements" in out

    def test_row_with_a_fields_kernels_that_names_no_field_is_one_disagreement(
        self, capsys, monkeypatch
    ):
        # (-1, -13, -17) has m < 1 but the kernel set [13, 17, 221] of the
        # field of disc 48841; in place of the field's last row, a move of
        # its record, it is one disagreement, and the field's other five
        # rows still agree
        true_tuples = enumeration.tuple_records

        def faulty(max_core, part=0, parts=1):
            records = true_tuples(max_core, part, parts)
            hit = np.flatnonzero(records[:, 3] == 48841)
            if len(hit):
                assert len(hit) == 6
                records[hit[-1], :3] = (-1, -13, -17)
            return records

        monkeypatch.setattr(enumeration, "tuple_records", faulty)
        monkeypatch.setattr(enumeration, "enumerate_fields", lambda X, sink=None: None)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  classifier equivalence, 64140 triples" in out
        assert "got 1 disagreements" in out

    def test_oracle_is_asked_once_per_kernel_set(self, monkeypatch, unforked):
        # check 6 asks the oracle on each kernel record of its 64,140 rows,
        # once for each of the 10,690 kernel sets; check 5 gets no fields,
        # so every call counted is check 6's
        true_oracle = cli.oracle_row
        asked = []

        def counted(m, a1, b1, table=None):
            asked.append(tuple(sorted((m * a1, m * b1, a1 * b1))))
            return true_oracle(m, a1, b1, table)

        monkeypatch.setattr(cli, "oracle_row", counted)
        monkeypatch.setattr(enumeration, "enumerate_fields", lambda X, sink=None: None)
        checks = cli._verify_checks()
        assert checks[5][2:4] == ("0 disagreements", True)
        assert len(asked) == 10690
        assert len(set(asked)) == len(asked)

    @pytest.mark.parametrize("path", ["forked", "unforked"])
    def test_oracle_that_raises_is_a_disagreement(self, capfd, monkeypatch, request, path):
        # an oracle that rejects the kernel set of disc 48841 in check 6's
        # sweep fails check 6 on the set's six tuples, without a traceback;
        # check 5, on another factor table, sees the true oracle
        from biquad_hnp.fields import InvalidFieldError

        request.getfixturevalue(path)
        true_oracle = cli.oracle_row

        def rejecting(m, a1, b1, table=None):
            sweep = len(table) == (cli.EQUIVALENCE_SWEEP_BOUND + 1) // 2
            if sweep and sorted((m * a1, m * b1, a1 * b1)) == [13, 17, 221]:
                raise InvalidFieldError(f"{(m, a1, b1)} rejected")
            return true_oracle(m, a1, b1, table)

        monkeypatch.setattr(cli, "oracle_row", rejecting)
        assert main(["verify"]) == EXIT_VERIFY_FAILED
        captured = capfd.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 6
        assert all(line.startswith("PASS  ") for line in lines[:5])
        assert lines[5].startswith("FAIL  classifier equivalence, 64140 triples")
        assert lines[5].endswith("got 6 disagreements")

    @pytest.mark.parametrize("path", ["forked", "unforked"])
    def test_faults_are_caught_after_a_clean_run(self, monkeypatch, request, path):
        # the oracle's verdicts of one run of the checks do not carry into
        # the next: after a clean run, the kernel flip of
        # test_kernel_fault_is_caught and then the same flip in the oracle
        # each fail the six tuples of disc 48841 (all in part 0, this
        # process's part when the sweep forks)
        from biquad_hnp import _kernels

        request.getfixturevalue(path)
        assert cli._verify_checks()[5][2:4] == ("0 disagreements", True)
        true_block = _kernels.enumerate_block

        def faulty_kernel(*args, **kwargs):
            total, fails, records = true_block(*args, **kwargs)
            records[records[:, 3] == 48841, 5] ^= 1
            return total, fails, records

        for module, name, fault in [
            (_kernels, "enumerate_block", faulty_kernel),
            (cli, "oracle_row", flipped_at_48841(cli.oracle_row)),
        ]:
            with monkeypatch.context() as patch:
                patch.setattr(module, name, fault)
                assert cli._verify_checks()[5][2:4] == ("6 disagreements", False)

    def test_flipped_witness_fails_both_sweeps(self, capsys, monkeypatch):
        # the oracle's verdict flipped on the one field of disc 48841: one
        # mismatch among check 5's fields, and the field's six tuples in
        # check 6
        monkeypatch.setattr(cli, "oracle_row", flipped_at_48841(cli.oracle_row))
        assert main(["verify"]) == EXIT_VERIFY_FAILED
        lines = capsys.readouterr().out.splitlines()
        assert lines[4] == (
            "FAIL  scalar oracles on the stream, 16679 fields to disc 1e+08: "
            "expected 0 mismatches, got 1 mismatches"
        )
        assert lines[5] == (
            "FAIL  classifier equivalence, 64140 triples to |m a1 b1| = 2000: "
            "expected 0 disagreements, got 6 disagreements"
        )


class TestClosedOutput:
    def test_unwritable_stdout_is_exit_2(self, capsys):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        with contextlib.redirect_stdout(Closed()):
            code = main(["count", "--max-disc", "144", "--format", "json"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_closed_pipe_exits_2_without_a_traceback(self):
        # the reader of count's stdout has gone, as in `count ... | head -1`
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            proc = run_cli(
                ["count", "--max-disc", "1e6", "--format", "json"],
                timeout=60,
                stdout=write_fd,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_fd)
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


    @pytest.mark.parametrize(
        "argv, both",
        [
            (["count", "--max-disc", "1e4", "--audit-bound", "-1"], False),
            (["classify", "--gens", "4", "5"], False),
            (["count", "--max-disc", "1e4"], True),
        ],
        ids=["count_usage", "classify_usage", "stdout_and_stderr"],
    )
    def test_closed_stderr_keeps_exit_2(self, argv, both):
        # the error line goes to a stderr whose reader has gone, as in
        # `... 2>&1 | head`; with both, stdout is on that pipe too
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            proc = run_cli(
                argv, stdout=write_fd if both else subprocess.DEVNULL, stderr=write_fd
            )
        finally:
            os.close(write_fd)
        assert proc.returncode == EXIT_USAGE


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
class TestFullDevice:
    # every write to /dev/full fails with ENOSPC
    @pytest.mark.parametrize(
        "options", [["--records", "/dev/full"], ["--format", "json", "--out", "/dev/full"]]
    )
    def test_full_output_file_exits_2(self, options):
        proc = run_cli(["count", "--max-disc", "1e4", *options], capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr == "error: cannot write an output: No space left on device\n"

    def test_full_stdout_exits_2(self):
        with open("/dev/full", "w") as full:
            proc = run_cli(
                ["count", "--max-disc", "1e4"], stdout=full, stderr=subprocess.PIPE, text=True
            )
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: cannot write an output: No space left on device\n"


class TestImport:
    def test_cli_import_loads_no_process_pool(self):
        # the fork helper uses os.fork and a pipe only; either module would
        # add to the import time of every command
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, biquad_hnp.cli; "
             "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    # the commands that compute with no arrays, with their exit codes
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["classify", "--triple", "1", "13", "17"], EXIT_OK),
            (["classify", "--gens", "13", "17", "--format", "json"], EXIT_OK),
            (["classify", "--gens", "4", "5"], EXIT_USAGE),
            (["--help"], EXIT_OK),
            (["count", "--max-disc", "abc"], EXIT_USAGE),
            (["count", "--max-disc", "1e30"], EXIT_USAGE),
            (["compare", "--checkpoints", "1e19"], EXIT_USAGE),
        ],
        ids=[
            "classify-triple", "classify-gens-json", "classify-invalid", "help", "bad-bound",
            "count-beyond-int64", "compare-beyond-int64",
        ],
    )
    def test_scalar_commands_load_no_array_module(self, argv, code):
        # numpy and the modules built on it are imported by the commands
        # that use them; these run without, so they start faster
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from biquad_hnp.cli import main\n"
             "try:\n"
             "    code = main()\n"
             "except SystemExit as exc:\n"
             "    code = exc.code\n"
             "modules = ('numpy', 'biquad_hnp._kernels', 'biquad_hnp.enumeration',"
             " 'biquad_hnp.asymptotics')\n"
             "print('loaded', [m for m in modules if m in sys.modules], file=sys.stderr)\n"
             "sys.exit(code)",
             *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.endswith("loaded []\n"), proc.stderr

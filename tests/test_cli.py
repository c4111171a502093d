"""CLI surface tests: subcommands, formats, exit codes, file outputs."""

import json

import pytest

from biquad_hnp import enumeration
from biquad_hnp.cli import EXIT_OK, EXIT_USAGE, main, parse_bound


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

    def test_csv_classes(self, capsys):
        assert main(["count", "--max-disc", "1e4", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].strip() == "sign2,sign3,even_slot,res1,res2,res3,count,failing"
        total = sum(int(line.split(",")[6]) for line in lines[1:])
        assert total == 282

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert (
            main(["count", "--max-disc", "1e4", "--format", "json", "--out", str(path)])
            == EXIT_OK
        )
        assert json.loads(path.read_text())["S"] == 47

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

    def test_audit_bound_cannot_exceed_max_disc(self, capsys):
        assert (
            main(["count", "--max-disc", "1e3", "--audit-bound", "1e4"]) == EXIT_USAGE
        )
        assert "audit-bound" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["1e19", "1e30"])
    def test_bound_beyond_int64_is_usage_error(self, bound, capsys, monkeypatch):
        def no_sieve(limit):
            raise AssertionError(f"a sieve to {limit} was requested")

        # the bound must be refused before any sieve is allocated
        monkeypatch.setattr(enumeration, "build_sieve", no_sieve)
        assert main(["count", "--max-disc", bound]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "2^63" in captured.err
        assert "Traceback" not in captured.err

    def test_threads_match_serial(self, capsys):
        assert main(["count", "--max-disc", "1e6", "--threads", "3", "--format", "json"]) == EXIT_OK
        with_threads = json.loads(capsys.readouterr().out)
        assert main(["count", "--max-disc", "1e6", "--format", "json"]) == EXIT_OK
        serial = json.loads(capsys.readouterr().out)
        for key in ("S", "S_tilde", "ordered_total", "classes"):
            assert with_threads[key] == serial[key]


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
        assert payload["classifiers_agree"] is True
        assert payload["kernels"] == [13, 17, 221]

    def test_non_squarefree_rejected(self, capsys):
        assert main(["classify", "--gens", "4", "5"]) == EXIT_USAGE
        assert "squarefree" in capsys.readouterr().err

    def test_degenerate_rejected(self, capsys):
        assert main(["classify", "--gens", "13", "13"]) == EXIT_USAGE

    def test_invalid_triple_rejected(self, capsys):
        assert main(["classify", "--triple", "2", "6", "5"]) == EXIT_USAGE


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

    def test_json(self, capsys):
        assert main(["compare", "--checkpoints", "1e5", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        row = payload["rows"][0]
        assert row["S"] == 243
        assert row["Stilde"] == 30
        assert row["fail_fraction"] == pytest.approx(30 / 243)


class TestVerify:
    def test_full_suite_passes(self, capsys):
        assert main(["verify", "--threads", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "expected 23, got 23" in out
        assert "expected 112, got 112" in out

    def test_json_shape(self, capsys):
        assert main(["verify", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 6

    def test_injected_fault_is_caught(self, capsys, monkeypatch):
        # a perturbed c-table must break the 23 identity and exit nonzero
        from biquad_hnp import asymptotics

        true_class_c = asymptotics.class_c

        def perturbed(sign2, sign3, eps, even_slot, context="mod8"):
            c = true_class_c(sign2, sign3, eps, even_slot, context)
            if context == "mod4" and c == 8:
                return 4
            return c

        monkeypatch.setattr(asymptotics, "class_c", perturbed)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "expected 23" in out

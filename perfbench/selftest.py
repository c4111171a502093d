#!/usr/bin/env python3
"""Self-test of the benchmark at X = 1e6 (S = 1014, S~ = 119).

    python3 perfbench/selftest.py

Checks that the gates pass on correct output and fail on a corrupted
expected value, that a traced run accounts for the CLI's time layer by
layer, and that run.py refuses to run where there is no source tree.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SHA_1E6 = "303360f12e3d1b73a2608af5d2ffb7e06cd1cd665b49eabd5a33262e24f6f4bd"
COUNT_ARGS = ["count", "--max-disc", "1e6", "--format", "json"]
RECORDS_ARGS = ["count", "--max-disc", "1e6", "--records", "{records}", "--format", "json"]

failures: list[str] = []


def check(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        failures.append(what)


def main() -> int:
    bench = run.Bench()
    bench.work.mkdir(parents=True, exist_ok=True)

    good = run.Workload("count-1e6", COUNT_ARGS, run.count_gate(1014, 119, 6084), True)
    result = run.measure(bench, good, seed=1, seconds=0, trace=False)
    check(result["failed"] == 0 and result["attempted"] == 1, "count 1e6 passes its gate")
    check(result["end_to_end"]["fields_per_s"] > 0, "count 1e6 reports fields_per_s")
    check(
        set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"},
        "untraced run reports the end-to-end metrics",
    )

    corrupt = run.Workload("count-1e6", COUNT_ARGS, run.count_gate(1015, 119, 6084), True)
    result = run.measure(bench, corrupt, seed=1, seconds=0, trace=False)
    check(
        result["failed"] == result["attempted"] == 1
        and any("S = 1014" in e for e in result["errors"]),
        "count gate fails on a corrupted S",
    )

    records = run.Workload(
        "records-1e6", RECORDS_ARGS, run.records_gate(1014, 119, 10**6, SHA_1E6), True
    )
    result = run.measure(bench, records, seed=2, seconds=0, trace=True)
    check(result["failed"] == 0, "records 1e6 passes its gate, traced and untraced")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    per_layer = set(run.metric_units()) - {"wall_s", "setup_s", "peak_rss_mb"}
    check(set(m) == per_layer, "traced run reports every per-layer metric declared")
    check(m.get("enumeration.fields_emitted") == 1014, "trace counts 1014 fields emitted")
    check(m.get("kernels.tuples_admitted") == 6084, "trace counts 6084 admitted tuples")
    check(m.get("enumeration.dedup_keep_ratio") == 1 / 6, "dedup keeps one row in six")
    check(m.get("kernels.records_bytes") == 6084 * 48, "kernel records are 48 bytes a row")
    check(0 < m.get("hnp.witness_share", 0) <= 1, "witness share lies in (0, 1]")
    check(m.get("cli.records_bytes", 0) > 0 and m.get("cli.sink.s", 0) > 0, "sink is traced")
    check(
        0 < m.get("trace.unaccounted_s", -1) < result["samples"]["traced"][0]["wall_s"],
        "layer self times sum to less than the traced wall time",
    )

    corrupt = run.Workload(
        "records-1e6", RECORDS_ARGS, run.records_gate(1014, 118, 10**6, SHA_1E6), True
    )
    result = run.measure(bench, corrupt, seed=2, seconds=0, trace=False)
    check(result["failed"] == 1, "records gate fails on a corrupted verdict count")

    bad = run.Outcome(0, '{"passed": false, "checks": [{"name": "x", "passed": false}]}', None)
    check(len(run.verify_gate(bad)) == 2, "verify gate fails on a failed check")

    # run.py with only the benchmark's own files present must refuse to run
    bare = bench.work / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    check(
        proc.returncode != 0 and '"correct"' not in proc.stdout,
        "run.py exits nonzero without a source tree",
    )

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

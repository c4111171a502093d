"""Every BENCH_<pr>.json at the repository root keeps the one schema.

A BENCH file records a performance change measured with perfbench/run.py:
per workload and side (parent, change) the medians and quartiles, over
the runs, of each run's median wall_s, setup_s and peak_rss_mb; the pair
count and seeds; the parent commit and the git tree of each side's src/
(the change is measured before it is committed); and the traced
per-layer seconds before and after.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
TRACED = ("enumeration.unique_field_rows.s", "kernels.enumerate_block.s")
SIDES = ("parent", "change")
GIT_HASH = re.compile(r"[0-9a-f]{40}")


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_schema(path):
    bench = json.loads(path.read_text())
    assert bench["schema"] == 1
    assert bench["pr"] == int(path.stem.split("_")[1])
    assert GIT_HASH.fullmatch(bench["commits"]["parent"])
    assert bench["commits"]["change"] is None or GIT_HASH.fullmatch(bench["commits"]["change"])
    for side in SIDES:
        assert GIT_HASH.fullmatch(bench["src_trees"][side])
    assert bench["workloads"]
    for workload in bench["workloads"].values():
        assert workload["pairs"] >= 1
        assert len(workload["seeds"]) == workload["pairs"]
        for side in SIDES:
            for metric in METRICS:
                stat = workload[side][metric]
                assert stat["q1"] <= stat["median"] <= stat["q3"]
                assert len(stat["runs"]) == workload["pairs"]
    traced = bench["traced"]
    assert traced["workload"] in bench["workloads"]
    for side in SIDES:
        for layer in TRACED:
            assert traced[side][layer] >= 0

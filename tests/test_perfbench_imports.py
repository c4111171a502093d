"""The package names that perfbench/run.py and perfbench/tracer.py use.

run.py probes the environment (ENV_PROBE) and times the import of the
CLI (SETUP_ENTRY) in fresh interpreters, and stops the whole benchmark
if either exits nonzero.  Both snippets are read out of run.py's source
as literals, not imported (run.py imports its sibling tracer module),
and each runs here as run.py runs it: ``python -c`` on this checkout's
src/.

A traced run (``run.py --trace 1``) runs the CLI under tracer.py, which
wraps _kernels.enumerate_block, the dedup, the sink argument of
enumerate_fields and the public functions of asymptotics by name, and
reads the kernel's and the dedup's results.  It skips the names that src
does not define: arith.build_sieve is one, so its layer reads 0.  The
smoke tests run tracer.py the same way, unedited, and read its layer
metrics.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"
TRACER = ROOT / "perfbench" / "tracer.py"


def _snippets():
    """run.py's module-level string constants, by name."""
    tree = ast.parse(RUN_PY.read_text())
    return {
        node.targets[0].id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }


@pytest.mark.parametrize("name", ["ENV_PROBE", "SETUP_ENTRY"])
def test_benchmark_snippet_runs_on_src(name):
    code = _snippets()[name]
    if name == "SETUP_ENTRY":
        # setup_s times the CLI's start-up, which loads no numpy
        code += "; import sys; assert 'numpy' not in sys.modules"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr


def test_setup_entry_loads_no_dataclasses():
    # the modules that setup_s times: dataclasses loads with the commands
    # that import enumeration or asymptotics, not with the CLI
    code = _snippets()["SETUP_ENTRY"] + "; import sys; print('dataclasses' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def _tracer():
    """perfbench/tracer.py, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "args, want, timed",
    [
        (
            ["count", "--max-disc", "1e6", "--format", "json"],
            {"kernels.tuples_admitted": 6084},
            "kernels.enumerate_block.s",
        ),
        (
            ["count", "--max-disc", "1e6", "--records", "{records}", "--format", "json"],
            {"kernels.tuples_admitted": 6084, "enumeration.fields_emitted": 1014},
            "cli.sink.s",
        ),
        (["verify", "--format", "json"], {}, "asymptotics.s"),
    ],
    ids=["count", "records", "verify"],
)
def test_traced_run_reads_its_seams(args, want, timed, tmp_path):
    nodes = tmp_path / "nodes.json"
    argv = [a.replace("{records}", str(tmp_path / "records.ndjson")) for a in args]
    result = subprocess.run(
        [sys.executable, str(TRACER), str(nodes), *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    metrics = _tracer().layer_metrics(json.loads(nodes.read_text()))
    assert {key: metrics[key] for key in want} == want
    assert metrics[timed] > 0

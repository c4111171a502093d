"""The package names that perfbench/run.py imports before any workload.

run.py probes the environment (ENV_PROBE) and times the import of the
CLI (SETUP_ENTRY) in fresh interpreters, and stops the whole benchmark
if either exits nonzero.  Both snippets are read out of run.py's source
as literals, not imported (run.py imports its sibling tracer module),
and each runs here as run.py runs it: ``python -c`` on this checkout's
src/.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"


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
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr

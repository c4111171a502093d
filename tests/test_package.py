"""The package surface: the names biquad_hnp exports, and the README's
library example, run as written."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import biquad_hnp
from biquad_hnp import enumeration

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_exported_names():
    # the public surface changes only on purpose
    assert biquad_hnp.__all__ == [
        "InvalidFieldError",
        "CountReport",
        "from_generators",
        "field_values",
        "oracle_row",
        "enumerate_fields",
        "__version__",
    ]
    namespace = {}
    exec("from biquad_hnp import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(biquad_hnp.__all__)


def test_readme_library_example():
    # every line of the example runs; a comment that opens with a tuple
    # is the value of its line: the name it assigns, else its expression
    block = re.search(r"^## Library\n+```python\n(.*?)^```", README.read_text(), re.M | re.S)
    namespace = {}
    checked = 0
    for line in block.group(1).splitlines():
        code, _, comment = line.partition("#")
        exec(code, namespace)
        if not comment.lstrip().startswith("("):
            continue
        (statement,) = ast.parse(code).body
        if isinstance(statement, ast.Assign):
            value = namespace[statement.targets[0].id]
        else:
            value = eval(code, namespace)
        want = ast.literal_eval(re.match(r"\s*(\(.*?\))", comment).group(1))
        assert value == want, line
        checked += 1
    assert checked == 3


def test_package_import_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, biquad_hnp; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_lazy_names_are_the_enumeration_objects():
    assert biquad_hnp.enumerate_fields is enumeration.enumerate_fields
    assert biquad_hnp.CountReport is enumeration.CountReport


def test_dir_lists_every_exported_name():
    assert set(biquad_hnp.__all__) <= set(dir(biquad_hnp))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        biquad_hnp.no_such_name

"""The demos and the benchmark import only names the package still has.

Neither is run by this suite, so a removed or renamed public name would
otherwise break them unnoticed.  The check parses their sources and
imports nothing from them.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def etclab_imports(path):
    """``(module, name)`` for every ``from etclab[.module] import name`` in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module and node.module.split(".")[0] == "etclab"
            for alias in node.names]


def test_callers_are_found():
    found = {p.name: etclab_imports(p) for p in CALLERS}
    assert found["04_threshold_tuning.py"] and found["workloads.py"]


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_caller_imports_exist(path):
    missing = [f"{module}.{name}" for module, name in etclab_imports(path)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []

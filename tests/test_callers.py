"""The demos and the benchmark import only names the package still has.

Neither is run by this suite, so a removed or renamed public name would
otherwise break them unnoticed.  The benchmark's tracer also wraps
functions by ``(module, attribute path)``, and skips a path that no
longer resolves, so its metrics would read as absent.  The checks parse
these sources and import nothing from them.
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


def trace_points(path):
    """``(module, attribute path)`` of every entry in ``path``'s ``BOUNDARIES`` dict."""
    tree = ast.parse(path.read_text(), filename=str(path))
    (table,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["BOUNDARIES"]]
    return [tuple(ast.literal_eval(part) for part in entry.elts[:2]) for entry in table.values]


def test_benchmark_trace_points_resolve():
    points = trace_points(ROOT / "perfbench" / "tracing.py")
    assert ("etclab.driver", "consensus_value") in points
    missing = []
    for module, attribute_path in points:
        owner = importlib.import_module(module)
        for part in attribute_path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}:{attribute_path}")
    assert missing == []

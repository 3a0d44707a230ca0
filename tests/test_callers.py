"""The demos and the benchmark import only names the package still has.

Neither is run by this suite, so a removed or renamed public name would
otherwise break them unnoticed.  The benchmark's tracer also wraps
functions by ``(module, attribute path)``, and skips a path that no
longer resolves, so its metrics would read as absent.  The checks parse
these sources and import nothing from them.  Names the package keeps
only for the benchmark are used nowhere else, so deleting them takes an
edit of the benchmark alone.  Each module's ``__all__`` names only what the
module still has, or ``from etclab.<module> import *`` fails.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import etclab

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


def test_every_exported_name_exists():
    stems = sorted(p.stem for p in (ROOT / "src" / "etclab").glob("*.py"))
    modules = [importlib.import_module(f"etclab.{stem}") for stem in stems if stem != "__init__"]
    assert "triggering" in stems and etclab.triggering.__all__
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
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


def test_trigger_rule_aliases_serve_only_the_benchmark():
    # the package binds each former per-scenario scheme name to a rule on
    # one alias line, and keeps j_tt_broadcast_local, which returns
    # j_tt_broadcast of the global period, in its definition, its exports
    # and test_costs.py's tests of it (and this check); the sources, tests,
    # demos and README use the rules and j_tt_broadcast
    rules = (etclab.Periodic, etclab.Level)
    aliases = {name for name, value in vars(etclab).items()
               if any(value is rule for rule in rules) and name != value.__name__}
    oracle = "j_tt_broadcast_local"
    init = ROOT / "src" / "etclab" / "__init__.py"
    costs = ROOT / "src" / "etclab" / "costs.py"
    kept = {(init, f"{oracle},"), (costs, f'"{oracle}",'), (costs, f"def {oracle}(")}
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "demos").glob("*.py"), ROOT / "README.md"]
    uses = []
    for path in paths:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            alias_line = path == init and line.split("=")[0].strip() in aliases
            oracle_line = (path in (ROOT / "tests" / "test_costs.py", Path(__file__).resolve())
                           or any(path == p and line.strip().startswith(k) for p, k in kept))
            names = set(re.findall(r"\w+", line))
            if (aliases & names and not alias_line) or (oracle in names and not oracle_line):
                uses.append(f"{path.relative_to(ROOT)}:{number}")
    assert uses == []

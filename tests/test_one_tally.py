"""The event protocol tallies events and renewal cycles in one place.

``_Fleet.tally`` counts the events and closes the renewal cycles for
every integrator and for the lanes of renewal cycles alike, so a second
copy of that bookkeeping would be a second event protocol to keep in
step.  The check parses the package's sources and imports nothing.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "etclab").glob("*.py"))


def tallying(path):
    """``(function, what)`` for every ``close_cycle(`` call and every write
    to an attribute ``global_event_count`` in ``path``, with the dotted name
    of the function that makes it."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = [*scope, node.name]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "close_cycle"):
            found.append((".".join(scope), "close_cycle"))
        targets = ([node.target] if isinstance(node, ast.AugAssign)
                   else node.targets if isinstance(node, ast.Assign) else [])
        if any(isinstance(t, ast.Attribute) and t.attr == "global_event_count" for t in targets):
            found.append((".".join(scope), "global_event_count"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return found


def test_only_the_fleet_tallies_events_and_cycles():
    found = {(path.name, *hit) for path in SOURCES for hit in tallying(path)}
    assert found == {("driver.py", "_Fleet.tally", "close_cycle"),
                     ("driver.py", "_Fleet.tally", "global_event_count")}

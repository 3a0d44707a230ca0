"""The event protocol tallies events and renewal cycles in one place,
settles rows in one pass and logs events in three places, coarse rows
form their cost in one place, and one integrator records trajectories.

``_Tally.flush``, the bulk close of a group's pending store, counts the
events and closes the renewal cycles for every integrator and for the
lanes of renewal cycles alike, so a second copy of that bookkeeping
would be a second event protocol to keep in step; it alone sums the
cycles' rewards (``_cycle_sums``).  Likewise
``_row_sums`` is the one cost form of coarse rows, for chunks and lanes
alike, so it alone calls ``_bridge_sums``, and ``run_trial_reference``
alone logs trajectory rows (``_Fleet.log_state``), so the chunked
integrator and the lanes carry no trajectory branch.  ``_settle`` alone
calls ``_subtract_bases``, the one settle of every chunk on rows, logged
or not, which alone calls its case of synchronous deadline rows,
``_zero_fill``; and events are logged (``_Fleet.log_event``) by
``_settle``, by the lanes and by the reference alone, so no second
settle logs them.  The checks parse the package's sources and import
nothing.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "etclab").glob("*.py"))


def one_place_calls(path):
    """``(function, what)`` for every ``close_cycle(``, ``_cycle_sums(``,
    ``_bridge_sums(``, ``log_state(``, ``log_event(``, ``_subtract_bases(``
    and ``_zero_fill(`` call and every write to an attribute
    ``global_event_count`` in ``path``, with the dotted name of the function
    that makes it."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = [*scope, node.name]
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else None)
            if name in ("close_cycle", "_cycle_sums", "_bridge_sums", "log_state", "log_event",
                        "_subtract_bases", "_zero_fill"):
                found.append((".".join(scope), name))
        targets = ([node.target] if isinstance(node, ast.AugAssign)
                   else node.targets if isinstance(node, ast.Assign) else [])
        if any(isinstance(t, ast.Attribute) and t.attr == "global_event_count" for t in targets):
            found.append((".".join(scope), "global_event_count"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return found


def found(*whats):
    return {(path.name, *hit) for path in SOURCES for hit in one_place_calls(path)
            if hit[1] in whats}


def test_only_the_fleet_tallies_events_and_cycles():
    assert found("close_cycle", "global_event_count") == {
        ("driver.py", "_Tally.flush", "close_cycle"),
        ("driver.py", "_Tally.flush", "global_event_count")}


def test_only_the_bulk_close_sums_cycles():
    assert found("_cycle_sums") == {("driver.py", "_Tally.flush", "_cycle_sums")}


def test_only_row_sums_forms_bridge_sums():
    assert found("_bridge_sums") == {("driver.py", "_row_sums", "_bridge_sums")}


def test_only_the_reference_logs_trajectory_rows():
    assert found("log_state") == {("driver.py", "run_trial_reference", "log_state")}


def test_one_pass_settles_rows():
    assert found("_subtract_bases", "_zero_fill") == {
        ("driver.py", "_settle", "_subtract_bases"),
        ("driver.py", "_subtract_bases", "_zero_fill")}


def test_events_are_logged_in_three_places():
    assert found("log_event") == {("driver.py", "_settle", "log_event"),
                                  ("driver.py", "_lane_cycles", "log_event"),
                                  ("driver.py", "run_trial_reference", "log_event")}

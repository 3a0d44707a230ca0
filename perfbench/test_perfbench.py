"""Tests of the benchmark itself, at smoke size (``--seconds 1``).

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7
COUNTS = ("driver.events", "driver.windows", "sde.draws",
          "triggering.fpt_agent_steps", "calibration.samples_used")


@lru_cache(maxsize=None)
def run(workload: str, trace: int, repeat: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _names(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_has_no_failed_ops(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_and_units_match_benchmark_json(workload, trace):
    metrics = run(workload, trace)["metrics"]
    expected = _names("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for name, metric in metrics.items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_at_one_seed(workload):
    first = run(workload, 1)["metrics"]
    second = run(workload, 1, repeat=1)["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert any(first[name]["value"] > 0 for name in COUNTS)


def test_fails_without_the_library():
    # a directory holding only the benchmark must not produce a result
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_missing_boundary_reads_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import run
    import tracing

    monkeypatch.setitem(tracing.BOUNDARIES, "graph.cost_rows",
                        ("etclab.driver", "removed_by_a_refactor", None))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = run.per_layer(tracer.totals(), [], [], [], 0.0)
    for name in ("graph.cost_rows_calls", "graph.cost_rows_s", "driver.windows",
                 "driver.steps_per_window"):
        assert metrics[name][0] is None, name
    assert metrics["sde.normals_calls"][0] == 0


def test_host_speed_scaling_cancels_a_uniform_slowdown(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import hostspeed

    nominal = hostspeed.NOMINAL_S
    assert hostspeed.scale(0.3, nominal, nominal) == pytest.approx(0.3)
    # a host 1.5x slower around the op makes op and kernel 1.5x slower alike
    assert hostspeed.scale(0.45, 1.5 * nominal, 1.5 * nominal) == pytest.approx(0.3)
    assert 0 < hostspeed.measure() < 1.0

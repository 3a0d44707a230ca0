"""etclab benchmark: one workload per run, one caller issuing ops back to back.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-small --seed 1729 --seconds 25 --trace 0

The run builds a fixed op list from the workload, seed and seconds, warms
up, times every op, checks every output, and prints each metric as a
``name value unit`` line followed, as the last line, by one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Timings are scaled to nominal host speed by readings of a fixed
reference kernel taken around them (``hostspeed.py``); the unscaled
figures are printed beside them as ``unscaled <name>`` lines.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` repeats the
same ops with spans around etclab's module boundaries and reports the
per-layer metrics.  Results and spans are also written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

import time

_START = time.perf_counter()  # setup_s counts from here, before etclab is imported

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 2  # fresh processes timed for setup_s besides this one
PROBE_TIMEOUT_S = 60
CELLS = ("tt-b", "tt-async-b", "et-b", "tt-bl", "et-bl")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("fleet-small", "fleet-large", "calibrate"))
    p.add_argument("--seed", type=int, default=1729)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the setup time as JSON and exit")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def import_etclab():
    """Import etclab from this checkout's sources, never from an installed copy."""
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import etclab

    if not Path(etclab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"etclab resolved to {etclab.__file__}, outside {SRC}")
    return etclab


def run_pass(ops, tracer=None):
    """Issue every op in order; an op that raises is kept as its exception.

    A host-speed reading is taken before the first op and after each op.
    Returns the results, the raw op latencies, the latencies scaled to
    nominal host speed by the readings around each op, and the readings.
    """
    import hostspeed

    results, latencies, refs = [], [], [hostspeed.measure()]
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_id
            span = tracer.open(tracer.names.index(op.kind))
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # noqa: BLE001 - the run goes on and counts it
            result = exc
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            work = op.agent_steps if op.kind == "driver.batch" else getattr(
                result, "samples_used", 0)
            tracer.close(span, work)
        results.append(result)
        refs.append(hostspeed.measure())
    scaled = [hostspeed.scale(t, refs[i], refs[i + 1]) for i, t in enumerate(latencies)]
    return results, latencies, scaled, refs


def failures_of(ops, results, label):
    out = []
    for i, (op, result) in enumerate(zip(ops, results)):
        if isinstance(result, Exception):
            out.append((label, f"op {i} ({op.cell})", f"raised {type(result).__name__}: {result}"))
            continue
        reason = op.check(result)
        if reason:
            out.append((label, f"op {i} ({op.cell})", reason))
    return out


def setup_probe_times(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        times.append((probe["setup_s"], probe["setup_raw_s"]))
    return times


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _revision():
    # a checkout nested inside another git repository must read "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def manifest(args, etclab, workloads):
    import hostspeed
    import numpy
    import scipy

    return dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        params=workloads.params(args.workload, args.seconds),
        nproc=len(os.sched_getaffinity(0)), cpu=_cpu_model(),
        python=platform.python_version(), numpy=numpy.__version__,
        scipy=scipy.__version__, etclab=etclab.__version__, revision=_revision(),
        hostspeed_nominal_s=hostspeed.NOMINAL_S,
    )


def _ratio(num, den, scale=1.0):
    """num/den * scale; None if either side is absent, 0 when there was no work."""
    if num is None or den is None:
        return None
    return num / den * scale if den else 0.0


def _events(op, report):
    """Global events of a batch, recovered exactly from the public CostReport."""
    if math.isnan(report.mean_global_interevent):
        return 0
    elapsed = report.trials * op.config.steps * op.config.dt
    return round(elapsed / report.mean_global_interevent)


def end_to_end(ops, latencies, setup_times):
    """The end-to-end metrics from one pass's latencies and the set-up times, all in seconds."""
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(latencies), "s"),
        "agent_steps_per_s": (sum(op.agent_steps for op in ops) / sum(latencies), "1/s"),
        "op_s_p50": (statistics.median(latencies), "s"),
        "op_s_p90": (p90, "s"),
        "rss_peak_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tot, ops, results, latencies, overhead):
    def field(name, key):
        return None if tot[name] is None else tot[name][key]

    batches = [(op, r) for op, r in zip(ops, results)
               if op.kind == "driver.batch" and not isinstance(r, Exception)]
    steps = float(sum(op.config.steps * op.config.trials for op, _ in batches))
    agent_steps = sum(op.agent_steps for op, _ in batches)
    events = sum(_events(op, r) for op, r in batches)
    calibrations = [r for op, r in zip(ops, results)
                    if op.kind == "calibration" and not isinstance(r, Exception)]
    samples = [getattr(r, "samples_used", None) for r in calibrations]
    methods = [getattr(r, "method", None) for r in calibrations]
    self_s = field("driver.batch", "self_s")
    windows = field("graph.cost_rows", "calls")
    metrics = {
        "sde.normals_calls": (field("sde.normals", "calls"), "count"),
        "sde.draws": (field("sde.normals", "work"), "count"),
        "sde.normals_s": (field("sde.normals", "s"), "s"),
        "sde.ns_per_draw": (_ratio(field("sde.normals", "s"), field("sde.normals", "work"), 1e9), "ns"),
        "sde.uniforms_s": (field("sde.uniforms", "s"), "s"),
        "graph.cost_rows_calls": (windows, "count"),
        "graph.cost_rows_s": (field("graph.cost_rows", "s"), "s"),
        "control.consensus_calls": (field("control.consensus", "calls"), "count"),
        "control.consensus_s": (field("control.consensus", "s"), "s"),
        "triggering.fire_step_calls": (field("triggering.fire_step", "calls"), "count"),
        "triggering.fire_step_s": (field("triggering.fire_step", "s"), "s"),
        "triggering.fpt_calls": (field("triggering.fpt", "calls"), "count"),
        "triggering.fpt_s": (field("triggering.fpt", "s"), "s"),
        "triggering.fpt_agent_steps": (tot["fpt_draws"], "count"),
        "triggering.fpt_paths_per_s": (_ratio(field("triggering.fpt", "work"), field("triggering.fpt", "s")), "1/s"),
        "costs.cycles": (field("costs.close_cycle", "calls"), "count"),
        "costs.close_cycle_s": (field("costs.close_cycle", "s"), "s"),
        "costs.finalize_s": (field("costs.finalize", "s"), "s"),
        "driver.batch_s": (field("driver.batch", "s"), "s"),
        "driver.self_s": (self_s, "s"),
        "driver.self_ns_per_agent_step": (_ratio(self_s, agent_steps, 1e9), "ns"),
        "driver.self_us_per_event": (_ratio(self_s, events, 1e6), "us"),
        "driver.events": (events, "count"),
        "driver.windows": (windows, "count"),
        "driver.steps_per_window": (_ratio(steps, windows), "count"),
    }
    for cell in CELLS:
        mine = [i for i, op in enumerate(ops) if op.cell == cell]
        metrics[f"driver.agent_steps_per_s.{cell}"] = (_ratio(
            sum(ops[i].agent_steps for i in mine), sum(latencies[i] for i in mine)), "1/s")
    metrics.update({
        "calibration.calls": (field("calibration", "calls"), "count"),
        "calibration.s": (field("calibration", "s"), "s"),
        "calibration.self_s": (field("calibration", "self_s"), "s"),
        "calibration.samples_used": (None if None in samples else sum(samples), "count"),
        "calibration.fallbacks": (None if None in methods else methods.count("bisection"), "count"),
        "trace.overhead_frac": (overhead, "frac"),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        etclab = import_etclab()
        import workloads
    except ImportError as exc:
        print(f"cannot import etclab from {SRC}: {exc}", file=sys.stderr)
        return 2

    import hostspeed

    ops = workloads.build_ops(args.workload, args.seed, args.seconds)
    warm_ops = workloads.warm_ups(args.workload, args.seed, ops)
    warm = [warm_ops[0][0].run()]
    setup_raw = time.perf_counter() - _START
    ref = hostspeed.measure()
    setup = (hostspeed.scale(setup_raw, ref, ref), setup_raw)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup[0], "setup_raw_s": setup[1]}))
        return 0
    setup_times = [setup] + (setup_probe_times(args) if not args.trace else [])
    warm += [op.run() for op, _ in warm_ops[1:]]

    results, raw, latencies, readings = run_pass(ops)
    failures = failures_of(ops, results, "untraced")
    attempted = len(ops)
    for (op, timed), first in zip(warm_ops, warm):
        if timed is None:  # not part of the timed ops: repeat it now
            attempted += 1
            where, again = op.cell, op.run()
        else:
            where, again = f"op {timed} ({op.cell})", results[timed]
        if again != first:
            failures.append(("untraced", where, "differs from its warm-up run"))

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _, traced_latencies, _ = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        attempted += len(ops)
        failures += failures_of(ops, traced, "traced")
        failures += [("traced", f"op {i} ({ops[i].cell})", "differs from the untraced run")
                     for i, (a, b) in enumerate(zip(traced, results)) if a != b]
        metrics = per_layer(tracer.totals(), ops, traced, latencies,
                            sum(traced_latencies) / sum(latencies) - 1)
    else:
        metrics = end_to_end(ops, latencies, [scaled for scaled, _ in setup_times])
    # the same end-to-end figures in unscaled seconds, reported beside the metrics
    unscaled = end_to_end(ops, raw, [r for _, r in setup_times])
    info = manifest(args, etclab, workloads)
    cells = workloads.cell_outputs(args.workload, ops, results)
    failed = len({(label, where) for label, where, _ in failures})
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.save(stem.with_suffix(".spans.npz"))
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump(dict(manifest=info, metrics=metrics, unscaled=unscaled, cells=cells,
                       latencies=latencies, raw_latencies=raw, readings=readings, setup_times=setup_times,
                       failures=failures), fh, indent=1)

    print(f"manifest {json.dumps(info)}")
    for name, out in cells.items():
        oracle = "none" if out["oracle_err"] is None else f"{out['oracle_err']:+.4f}"
        print(f"cell {name}: ops {out['ops']} j_time_avg {out['j_time_avg']:.6g} "
              f"oracle_err {oracle} rate_err {out['rate_err']:+.4f}")
    for label, where, reason in failures:
        print(f"FAILED {label} {where}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {'absent' if value is None else value} {unit}")
    for name, (value, unit) in unscaled.items():
        if unit in ("s", "1/s"):
            print(f"unscaled {name} {value} {unit}")
    print(f"ops_failed / ops_total: {failed} / {attempted}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

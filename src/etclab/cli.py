"""Command-line front end: canned experiments with CSV + manifest output.

Subcommands
-----------
simulate     one scheme/scenario batch, reporting both cost estimators
calibrate    tune the global level threshold for a target rate
table1       the 4x4 grid of schemes x scenarios at reference rates
sweep-n      ET vs TT under broadcast-plus-local info across n, with the
             ET/TT cost ratios at equal global rates (alias: ratio-curve)
trajectory   one trial over --duration, dumped for plotting
selftest     fast internal consistency checks (exit 4 on failure)

Every command writes a CSV (comma separators, '.' decimals) plus a
``<out>.manifest.txt`` sidecar holding the resolved parameters, seed,
library versions, bit generator and code revision needed to reproduce
it, and the command's wall time.  ``THREADS`` (a positive integer,
default 1) fans the trials of a batch out over processes, at most one
per trial and per usable CPU.  Every batch config is made and
usage-checked in one place, and ``table1`` and ``sweep-n`` calibrate and run their
broadcast-plus-local ET/TT pairs through one loop that builds all of
its configs before the first calibration and calibrates every pair
before the first batch runs.  Exit codes: 0 success, 2 usage error (any
input the library rejects, scheme flags included, caught before work
starts), 3 calibration failure (no CSV is written), 4 selftest failure.
"""

import argparse
import csv
import dataclasses
import datetime
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy import stats

from . import __version__
from .calibration import (
    DEFAULT_DT,
    DEFAULT_SAMPLES,
    DEFAULT_TOLERANCE,
    CalibrationError,
    calibrate_global_threshold,
    check_calibration_args,
)
from .control import Average, Fixed, InfoScenario, Leader
from .costs import (
    expected_occupation_integral,
    j_et_broadcast,
    j_tt_broadcast,
    j_tt_broadcast_local,
    local_to_global_period,
    mean_exit_time,
)
from .driver import ScenarioConfig, run_batch, run_trial, run_trial_reference
from .sde import BIT_GENERATOR, NoiseStream
from .triggering import (
    LevelBroadcast,
    LevelGlobal,
    PeriodicAsync,
    PeriodicSync,
    sample_first_passage_batch,
    staggered_offsets,
)

TABLE1_ROWS = [(3, 0.25), (3, 0.5), (10, 0.5), (50, 0.5)]
SAMPLES_HELP = ("calibration verification budget: a fifth of it, "
                "at least 5000 exit times, is drawn")


def _workers(parser) -> int:
    text = os.environ.get("THREADS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        parser.error(f"THREADS must be a positive integer, got {text!r}")
    return workers


def _seed(text: str) -> int:
    """argparse type of ``--seed``: a non-negative integer."""
    message = f"seed must be a non-negative integer, got {text!r}"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if value < 0:
        raise argparse.ArgumentTypeError(message)
    return value


def _git_revision() -> str:
    """Commit of the checkout this package runs from, or ``unknown``."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
                              capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if np.isnan(value):
            return ""
        return repr(value)
    return str(value)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_manifest(args, command: str) -> None:
    """``<args.out>.manifest.txt``: the command, its wall time so far, the
    versions and revision that ran it and every resolved argument."""
    skip = ("func", "out", "workers", "started")
    params = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    lines = [
        f"command={command}",
        f"created={datetime.datetime.now().isoformat(timespec='seconds')}",
        f"wall_s={time.perf_counter() - args.started:.3f}",
        f"etclab_version={__version__}",
        f"numpy_version={np.__version__}",
        f"scipy_version={scipy.__version__}",
        f"python={sys.version.split()[0]}",
        f"bitgen={BIT_GENERATOR.__name__}",
        f"git_revision={_git_revision()}",
    ]
    for key in sorted(params):
        lines.append(f"arg.{key}={params[key]}")
    with open(args.out + ".manifest.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _add_scheme_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=3, help="agent count")
    p.add_argument("--scenario", choices=["b", "bl"], default="b",
                   help="information scenario: broadcast-only or broadcast+local")
    p.add_argument("--trigger", choices=["periodic-sync", "periodic-async", "level"],
                   default="level")
    p.add_argument("--rule", choices=["average", "leader", "fixed"], default="average")
    p.add_argument("--delta", type=float, default=None, help="level threshold")
    p.add_argument("--period", type=float, default=None, help="periodic inter-event time")
    p.add_argument("--offsets", type=str, default=None,
                   help="comma list of async phases; default evenly staggered")


def _add_batch_flags(p: argparse.ArgumentParser, out: str, samples: bool = False,
                     horizon: bool = True) -> None:
    p.add_argument("--dt", type=float, default=2e-3)
    if horizon:
        p.add_argument("--horizon", type=float, default=2000.0)
        p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=_seed, default=1729)
    if samples:
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help=SAMPLES_HELP)
    p.add_argument("--out", default=out)


def _usage_checked(parser, check, *args, **kwargs):
    """``check(*args, **kwargs)``, with a ``ValueError`` turned into a usage error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _scheme_from(args, parser, scenario):
    if args.trigger == "level":
        if args.delta is None:
            parser.error("--trigger level requires --delta")
        level = LevelBroadcast if scenario is InfoScenario.BROADCAST else LevelGlobal
        return level(args.delta)
    if args.period is None:
        parser.error(f"--trigger {args.trigger} requires --period")
    if args.trigger == "periodic-sync":
        return PeriodicSync(args.period)
    if args.offsets is None:
        return PeriodicAsync(args.period, staggered_offsets(args.n, args.period))
    try:
        offsets = tuple(float(v) for v in args.offsets.split(","))
    except ValueError:
        parser.error(f"--offsets must be a comma list of phases in [0, {args.period}), "
                     f"got {args.offsets!r}")
    return PeriodicAsync(args.period, offsets)


def _config(args, parser, **fields) -> ScenarioConfig:
    """The batch flags, overridden by ``fields``, as a ``ScenarioConfig``.

    Without a ``scheme`` field, the agent count, scenario, rule and scheme
    come from the scheme flags.  Any ``ValueError`` from building the
    scheme or the config is a usage error.
    """
    config = {k: v for k, v in vars(args).items() if k in ("dt", "horizon", "trials", "seed")}
    try:
        if "scheme" not in fields:
            scenario = InfoScenario(args.scenario)
            rule = {"average": Average(), "leader": Leader(), "fixed": Fixed(0.0)}[args.rule]
            config.update(n=args.n, scenario=scenario, rule=rule,
                          scheme=_scheme_from(args, parser, scenario))
        return ScenarioConfig(**{**config, **fields})
    except ValueError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args, parser) -> int:
    config = _config(args, parser)
    report = run_batch(config, workers=args.workers)
    param = args.delta if args.trigger == "level" else args.period
    header = ["n", "scenario", "trigger", "rule", "param", "dt", "horizon", "trials",
              "seed", "j_time_avg", "j_renewal", "ci", "mean_local_T", "mean_global_T"]
    row = [args.n, args.scenario, args.trigger, args.rule, param, args.dt, args.horizon,
           args.trials, args.seed, report.j_time_avg, report.j_renewal,
           report.ci_halfwidth, report.mean_local_interevent,
           report.mean_global_interevent]
    _write_csv(args.out, header, [row])
    _write_manifest(args, "simulate")
    print(f"wrote {args.out}: J = {report.j_time_avg:.6g} +- {report.ci_halfwidth:.2g}")
    return 0


def cmd_calibrate(args, parser) -> int:
    _usage_checked(parser, check_calibration_args, args.n, args.target_t,
                   args.tolerance, args.samples, args.dt)
    result = calibrate_global_threshold(args.n, args.target_t, stream=NoiseStream(args.seed),
                                        dt=args.dt, tolerance=args.tolerance,
                                        samples=args.samples)
    header = ["n", "target_T", "delta", "achieved_T", "ci", "samples"]
    row = [args.n, args.target_t, result.delta_star, result.achieved_period,
           result.ci_halfwidth, result.samples_used]
    _write_csv(args.out, header, [row])
    _write_manifest(args, "calibrate")
    print(f"wrote {args.out}: delta = {result.delta_star:.6g} "
          f"(achieved {result.achieved_period:.6g} s)")
    return 0


def _bl_loop(args, parser, pairs):
    """Calibrate the global level threshold, then run TT-bl and ET-bl, at
    each ``(n, target)`` of ``pairs``.

    Every pair is usage-checked and its TT-bl config built before the
    first calibration starts, and every pair is calibrated before the
    first batch runs; ET-bl is the TT-bl config with the calibrated level
    scheme.  Returns one ``(delta, tt_report, et_report)`` per pair; a
    calibration miss raises ``CalibrationError``, which ``main`` turns
    into exit code 3.
    """
    plan = []
    for n, target in pairs:
        _usage_checked(parser, check_calibration_args, n, target, samples=args.samples)
        tt_config = _config(args, parser, n=n, scenario=InfoScenario.BROADCAST_LOCAL,
                            scheme=PeriodicSync(target))
        plan.append((n, target, tt_config))
    stream = NoiseStream(args.seed)
    deltas = [calibrate_global_threshold(n, target, stream=stream.child(n),
                                         samples=args.samples).delta_star
              for n, target, _ in plan]
    return [(delta, run_batch(tt_config, workers=args.workers),
             run_batch(dataclasses.replace(tt_config, scheme=LevelGlobal(delta)),
                       workers=args.workers))
            for (_, _, tt_config), delta in zip(plan, deltas)]


def cmd_table1(args, parser) -> int:
    b_configs = [
        (_config(args, parser, n=n, scenario=InfoScenario.BROADCAST,
                 scheme=PeriodicSync(n * target)),
         _config(args, parser, n=n, scenario=InfoScenario.BROADCAST,
                 scheme=LevelBroadcast(float(np.sqrt(n * target)))))
        for n, target in TABLE1_ROWS
    ]
    bl_results = _bl_loop(args, parser, TABLE1_ROWS)
    header = ["n", "target_global_T", "scheme", "scenario", "delta", "j_sim",
              "j_analytic", "mean_global_T", "ci"]
    rows = []
    for (n, target), (tt_b, et_b), (delta, tt, et) in zip(TABLE1_ROWS, b_configs, bl_results):
        rep = run_batch(tt_b, workers=args.workers)
        rows.append([n, target, "TT", "b", None, rep.j_time_avg,
                     j_tt_broadcast(n, tt_b.scheme.period),
                     rep.mean_local_interevent / n, rep.ci_halfwidth])
        rep = run_batch(et_b, workers=args.workers)
        rows.append([n, target, "ET", "b", et_b.scheme.delta, rep.j_time_avg,
                     j_et_broadcast(n, et_b.scheme.delta),
                     rep.mean_local_interevent / n, rep.ci_halfwidth])
        rows.append([n, target, "TT", "bl", None, tt.j_time_avg,
                     j_tt_broadcast_local(n, target),
                     tt.mean_global_interevent, tt.ci_halfwidth])
        rows.append([n, target, "ET", "bl", delta, et.j_time_avg,
                     None, et.mean_global_interevent, et.ci_halfwidth])
    _write_csv(args.out, header, rows)
    _write_manifest(args, "table1")
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def _parse_n_list(text, parser):
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        parser.error(f"bad n list: {text!r}")
    if not values:
        parser.error("n list must be nonempty")
    if 1 in values:
        # a lone agent is always at consensus, so both of its bl costs are 0
        # and its cost ratio is undefined; counts below 1 fail the
        # calibration check with the library's message
        parser.error("sweep-n needs at least 2 agents per fleet, got 1")
    return values


def _welch_ci95(a, b) -> float:
    """95% half-width of ``mean(a) - mean(b)``, with the Welch-Satterthwaite
    degrees of freedom for the Student-t quantile; NaN when either side has
    fewer than two values, which give no variance."""
    a, b = np.asarray(a), np.asarray(b)
    if min(a.size, b.size) < 2:
        return float("nan")
    va, vb = a.var(ddof=1) / a.size, b.var(ddof=1) / b.size
    dof = (va + vb) ** 2 / (va**2 / (a.size - 1) + vb**2 / (b.size - 1))
    return float(stats.t.ppf(0.975, dof) * np.sqrt(va + vb))


def cmd_sweep_n(args, parser) -> int:
    n_list = _parse_n_list(args.n_list, parser)
    target = args.target_t
    results = _bl_loop(args, parser, [(n, target) for n in n_list])
    header = ["n", "target_global_T", "delta", "j_tt_bl_sim", "j_et_bl_sim",
              "j_tt_bl_analytic", "diff", "ci_diff", "mean_global_T_et", "consistent",
              "ratio_b_analytic", "ratio_bl_mc"]
    rows = []
    for n, (delta, rep_tt, rep_et) in zip(n_list, results):
        diff = rep_et.j_time_avg - rep_tt.j_time_avg
        rows.append([n, target, delta, rep_tt.j_time_avg, rep_et.j_time_avg,
                     j_tt_broadcast_local(n, target), diff,
                     _welch_ci95(rep_et.j_trials, rep_tt.j_trials),
                     rep_et.mean_global_interevent,
                     "yes" if diff < 0 else "no",
                     n / 3.0, rep_et.j_time_avg / rep_tt.j_time_avg])
    _write_csv(args.out, header, rows)
    _write_manifest(args, args.command)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def cmd_trajectory(args, parser) -> int:
    config = _config(
        args, parser,
        horizon=args.duration,
        trials=1,
        record_trajectory=True,
        trajectory_stride=args.stride,
    )
    result = run_trial(config, 0)
    n = args.n
    delta = args.delta if args.trigger == "level" else None
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"xhat{i + 1}" for i in range(n)] + ["event", "thr_lo", "thr_hi"])
    rows = []
    for t, x, xhat, flag, center in result.trajectory:
        thr_lo = center - delta if delta is not None else None
        thr_hi = center + delta if delta is not None else None
        rows.append([t, *x.tolist(), *xhat.tolist(), flag, thr_lo, thr_hi])
    _write_csv(args.out, header, rows)
    _write_manifest(args, "trajectory")
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def cmd_selftest(args, parser) -> int:
    checks = []

    def check(name, ok, detail=""):
        checks.append(ok)
        print(f"[selftest] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())

    gap = j_tt_broadcast(10, 10 * 0.5) / j_tt_broadcast_local(10, 0.5)
    check("information gap identity", gap == 10, f"(gap={gap})")
    ratio = j_et_broadcast(7, 1.3) / j_tt_broadcast(7, 1.3**2)
    check("consistency ratio identity", abs(ratio - 1 / 3) < 1e-12, f"(ratio={ratio})")
    check("occupation oracle scaling",
          abs(expected_occupation_integral(2.0) - 16 / 6) < 1e-12)
    check("rate conversion", local_to_global_period(4, 2.0) == 0.5)
    m1, m3 = mean_exit_time(1), mean_exit_time(3)
    check("closed-form mean exit time", abs(m1 - 1.0) < 1e-9 and m3 < m1,
          f"(m1={m1:.9f}, m3={m3:.6f})")

    stepwise, chunked = NoiseStream(args.seed), NoiseStream(args.seed)
    same = np.array_equal(np.concatenate([stepwise.normals(3) for _ in range(40)]),
                          chunked.normals((40, 3)).ravel())
    check("chunked draws match stepwise draws", same, f"({BIT_GENERATOR.__name__})")

    times = sample_first_passage_batch(NoiseStream(args.seed), 20_000, 1.0, 1e-3)
    mean = float(times.mean())
    check("first-passage mean (delta=1)", abs(mean - 1.0) < 0.03, f"(mean={mean:.4f})")

    config = ScenarioConfig(
        n=3, scenario=InfoScenario.BROADCAST, scheme=LevelBroadcast(float(np.sqrt(1.5))),
        dt=2e-3, horizon=250.0, trials=2, seed=args.seed)
    rep1 = run_batch(config)
    rep2 = run_batch(config)
    check("batch determinism", rep1 == rep2)
    oracle = j_et_broadcast(3, float(np.sqrt(1.5)))
    check("level-scheme cost vs oracle",
          abs(rep1.j_time_avg / oracle - 1.0) < 0.15,
          f"(sim={rep1.j_time_avg:.4g}, oracle={oracle:.4g})")

    config = ScenarioConfig(
        n=3, scenario=InfoScenario.BROADCAST, scheme=LevelBroadcast(0.2), dt=2e-3,
        horizon=5.0, trials=1, seed=args.seed, record_events=True)
    fast, ref = (run(config, 0).events for run in (run_trial, run_trial_reference))
    same = [(e.time, e.initiators) for e in fast] == [(e.time, e.initiators) for e in ref]
    check("chunked events match the per-step reference", same and len(fast) > 0,
          f"({len(fast)} events)")

    if all(checks):
        print("[selftest] all checks passed")
        return 0
    print("[selftest] FAILURES detected", file=sys.stderr)
    return 4


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etclab",
        description="Time- vs event-triggered consensus experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scheme/scenario batch")
    _add_scheme_flags(p)
    _add_batch_flags(p, "simulate.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="tune the global level threshold")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--target-t", type=float, required=True)
    p.add_argument("--dt", type=float, default=DEFAULT_DT)
    p.add_argument("--seed", type=_seed, default=1729)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help=SAMPLES_HELP)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--out", default="calibrate.csv")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("table1", help="4 schemes x 4 reference scenarios")
    _add_batch_flags(p, "table1.csv", samples=True)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("sweep-n", aliases=["ratio-curve"],
                       help="ET vs TT (broadcast+local) across n, with cost ratios")
    p.add_argument("--n-list", default="3,10,50")
    p.add_argument("--target-t", type=float, default=0.5)
    _add_batch_flags(p, "sweep_n.csv", samples=True)
    p.set_defaults(func=cmd_sweep_n)

    p = sub.add_parser("trajectory", help="dump a short trajectory for plotting")
    _add_scheme_flags(p)
    _add_batch_flags(p, "trajectory.csv", horizon=False)  # one trial of --duration
    p.add_argument("--duration", type=float, default=2.5)
    p.add_argument("--stride", type=int, default=1)
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("selftest", help="fast internal consistency checks")
    p.add_argument("--seed", type=_seed, default=1729)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.workers = _workers(parser)
    args.started = time.perf_counter()
    try:
        return args.func(args, parser)
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: canned experiments with CSV + manifest output.

Subcommands
-----------
simulate     one scheme/scenario batch, reporting both cost estimators
calibrate    tune the global level threshold for a target rate
table1       the 4x4 grid of schemes x scenarios at reference rates
sweep-n      ET vs TT under broadcast-plus-local info across n, with the
             ET/TT cost ratios at equal global rates (alias: ratio-curve)
trajectory   short trajectory dump for plotting
selftest     fast internal consistency checks (exit 4 on failure)

Every command writes a CSV (comma separators, '.' decimals) plus a
``<out>.manifest.txt`` sidecar holding the resolved parameters, seed,
library versions, bit generator and code revision needed to reproduce
it.  ``THREADS`` (a positive integer, default 1) fans the trials of a
batch out over processes.  ``table1`` and ``sweep-n`` calibrate and run
their broadcast-plus-local ET/TT pairs through one loop.  Exit codes: 0
success, 2 usage error (any input the library rejects, caught before
work starts), 3 calibration failure (no CSV is written), 4 selftest
failure.
"""

import argparse
import csv
import datetime
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy

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
    information_gap,
    j_et_broadcast,
    j_tt_broadcast,
    j_tt_broadcast_local,
    local_to_global_period,
    mean_exit_time,
)
from .driver import ScenarioConfig, run_batch, run_trial
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


def _write_manifest(path: str, command: str, params: dict) -> None:
    lines = [
        f"command={command}",
        f"created={datetime.datetime.now().isoformat(timespec='seconds')}",
        f"etclab_version={__version__}",
        f"numpy_version={np.__version__}",
        f"scipy_version={scipy.__version__}",
        f"python={sys.version.split()[0]}",
        f"bitgen={BIT_GENERATOR.__name__}",
        f"git_revision={_git_revision()}",
    ]
    for key in sorted(params):
        lines.append(f"arg.{key}={params[key]}")
    with open(path + ".manifest.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=3, help="agent count")
    p.add_argument("--scenario", choices=["b", "bl"], default="b",
                   help="information scenario: broadcast-only or broadcast+local")
    p.add_argument("--trigger", choices=["periodic-sync", "periodic-async", "level"],
                   default="level")
    p.add_argument("--rule", choices=["average", "leader", "fixed"], default="average")
    p.add_argument("--dt", type=float, default=2e-3)
    p.add_argument("--horizon", type=float, default=2000.0)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=_seed, default=1729)
    p.add_argument("--delta", type=float, default=None, help="level threshold")
    p.add_argument("--period", type=float, default=None, help="periodic inter-event time")
    p.add_argument("--offsets", type=str, default=None,
                   help="comma list of async phases; default evenly staggered")


def _usage_checked(parser, check, *args, **kwargs):
    """``check(*args, **kwargs)``, with a ``ValueError`` turned into a usage error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _rule_from(args):
    return {"average": Average(), "leader": Leader(), "fixed": Fixed(0.0)}[args.rule]


def _config_from(args, parser, **overrides) -> ScenarioConfig:
    scenario = InfoScenario(args.scenario)
    if args.trigger == "level":
        if args.delta is None:
            parser.error("--trigger level requires --delta")
        scheme = (
            LevelBroadcast(args.delta)
            if scenario is InfoScenario.BROADCAST
            else LevelGlobal(args.delta)
        )
    else:
        if args.period is None:
            parser.error(f"--trigger {args.trigger} requires --period")
        if args.trigger == "periodic-sync":
            scheme = PeriodicSync(args.period)
        else:
            if args.offsets is not None:
                offsets = tuple(float(v) for v in args.offsets.split(","))
            else:
                offsets = staggered_offsets(args.n, args.period)
            scheme = PeriodicAsync(args.period, offsets)
    kwargs = dict(
        n=args.n,
        scenario=scenario,
        scheme=scheme,
        rule=_rule_from(args),
        dt=args.dt,
        horizon=args.horizon,
        trials=args.trials,
        seed=args.seed,
    )
    kwargs.update(overrides)
    try:
        return ScenarioConfig(**kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _params_of(args, skip=("func", "out", "workers")) -> dict:
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args, parser) -> int:
    config = _config_from(args, parser)
    report = run_batch(config, workers=args.workers)
    param = args.delta if args.trigger == "level" else args.period
    header = ["n", "scenario", "trigger", "rule", "param", "dt", "horizon", "trials",
              "seed", "j_time_avg", "j_renewal", "ci", "mean_local_T", "mean_global_T"]
    row = [args.n, args.scenario, args.trigger, args.rule, param, args.dt, args.horizon,
           args.trials, args.seed, report.j_time_avg, report.j_renewal,
           report.ci_halfwidth, report.mean_local_interevent,
           report.mean_global_interevent]
    _write_csv(args.out, header, [row])
    _write_manifest(args.out, "simulate", _params_of(args))
    print(f"wrote {args.out}: J = {report.j_time_avg:.6g} +- {report.ci_halfwidth:.2g}")
    return 0


def cmd_calibrate(args, parser) -> int:
    _usage_checked(parser, check_calibration_args, args.n, args.target_t,
                   args.tolerance, args.samples)
    result = calibrate_global_threshold(args.n, args.target_t, stream=NoiseStream(args.seed),
                                        dt=args.dt, tolerance=args.tolerance,
                                        samples=args.samples)
    header = ["n", "target_T", "delta", "achieved_T", "ci", "samples"]
    row = [args.n, args.target_t, result.delta_star, result.achieved_period,
           result.ci_halfwidth, result.samples_used]
    _write_csv(args.out, header, [row])
    _write_manifest(args.out, "calibrate", _params_of(args))
    print(f"wrote {args.out}: delta = {result.delta_star:.6g} "
          f"(achieved {result.achieved_period:.6g} s)")
    return 0


def _batch_config(args, n, scenario, scheme) -> ScenarioConfig:
    return ScenarioConfig(n=n, scenario=scenario, scheme=scheme, rule=Average(),
                          dt=args.dt, horizon=args.horizon, trials=args.trials,
                          seed=args.seed)


def _batch(args, n, scenario, scheme):
    return run_batch(_batch_config(args, n, scenario, scheme), workers=args.workers)


def _check_bl_pairs(args, parser, pairs) -> None:
    """Usage-check every ``(n, target)`` of the bl pairs before any work starts."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the batches warn when they run
        for n, target in pairs:
            _usage_checked(parser, check_calibration_args, n, target, samples=args.samples)
            _usage_checked(parser, _batch_config, args, n, InfoScenario.BROADCAST_LOCAL,
                           PeriodicSync(target))


def _bl_pair(args, n, target, stream):
    """Calibrate the global level threshold, then run TT-bl and ET-bl at ``target``.

    Returns ``(delta, tt_report, et_report)``; a calibration miss raises
    ``CalibrationError``, which ``main`` turns into exit code 3.
    """
    cal = calibrate_global_threshold(n, target, stream=stream.child(n), samples=args.samples)
    tt = _batch(args, n, InfoScenario.BROADCAST_LOCAL, PeriodicSync(target))
    et = _batch(args, n, InfoScenario.BROADCAST_LOCAL, LevelGlobal(cal.delta_star))
    return cal.delta_star, tt, et


def cmd_table1(args, parser) -> int:
    _check_bl_pairs(args, parser, TABLE1_ROWS)
    header = ["n", "target_global_T", "scheme", "scenario", "delta", "j_sim",
              "j_analytic", "mean_global_T", "ci"]
    rows = []
    stream = NoiseStream(args.seed)
    for n, target in TABLE1_ROWS:
        local_period = n * target
        rep = _batch(args, n, InfoScenario.BROADCAST, PeriodicSync(local_period))
        rows.append([n, target, "TT", "b", None, rep.j_time_avg,
                     j_tt_broadcast(n, local_period),
                     rep.mean_local_interevent / n, rep.ci_halfwidth])

        delta_b = float(np.sqrt(local_period))
        rep = _batch(args, n, InfoScenario.BROADCAST, LevelBroadcast(delta_b))
        rows.append([n, target, "ET", "b", delta_b, rep.j_time_avg,
                     j_et_broadcast(n, delta_b),
                     rep.mean_local_interevent / n, rep.ci_halfwidth])

        delta, tt, et = _bl_pair(args, n, target, stream)
        rows.append([n, target, "TT", "bl", None, tt.j_time_avg,
                     j_tt_broadcast_local(n, target),
                     tt.mean_global_interevent, tt.ci_halfwidth])
        rows.append([n, target, "ET", "bl", delta, et.j_time_avg,
                     None, et.mean_global_interevent, et.ci_halfwidth])
    _write_csv(args.out, header, rows)
    _write_manifest(args.out, "table1", _params_of(args))
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def _parse_n_list(text, parser):
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        parser.error(f"bad n list: {text!r}")
    if not values:
        parser.error("n list must be nonempty")
    return values


def cmd_sweep_n(args, parser) -> int:
    n_list = _parse_n_list(args.n_list, parser)
    target = args.target_t
    _check_bl_pairs(args, parser, [(n, target) for n in n_list])
    header = ["n", "target_global_T", "delta", "j_tt_bl_sim", "j_et_bl_sim",
              "j_tt_bl_analytic", "diff", "ci_diff", "mean_global_T_et", "consistent",
              "ratio_b_analytic", "ratio_bl_mc"]
    rows = []
    stream = NoiseStream(args.seed)
    for n in n_list:
        delta, rep_tt, rep_et = _bl_pair(args, n, target, stream)
        diff = rep_et.j_time_avg - rep_tt.j_time_avg
        ci_diff = 1.96 * float(
            np.sqrt(np.var(rep_et.j_trials, ddof=1) / len(rep_et.j_trials)
                    + np.var(rep_tt.j_trials, ddof=1) / len(rep_tt.j_trials))
        )
        rows.append([n, target, delta, rep_tt.j_time_avg, rep_et.j_time_avg,
                     j_tt_broadcast_local(n, target), diff, ci_diff,
                     rep_et.mean_global_interevent,
                     "yes" if diff < 0 else "no",
                     n / 3.0, rep_et.j_time_avg / rep_tt.j_time_avg])
    _write_csv(args.out, header, rows)
    _write_manifest(args.out, args.command, _params_of(args))
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def cmd_trajectory(args, parser) -> int:
    config = _config_from(
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
    _write_manifest(args.out, "trajectory", _params_of(args))
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def cmd_selftest(args, parser) -> int:
    checks = []

    def check(name, ok, detail=""):
        checks.append(ok)
        print(f"[selftest] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())

    gap = j_tt_broadcast(10, 10 * 0.5) / j_tt_broadcast_local(10, 0.5)
    check("information gap identity", gap == information_gap(10), f"(gap={gap})")
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
    _add_common(p)
    p.add_argument("--out", default="simulate.csv")
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
    p.add_argument("--seed", type=_seed, default=1729)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--dt", type=float, default=2e-3)
    p.add_argument("--horizon", type=float, default=2000.0)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help=SAMPLES_HELP)
    p.add_argument("--out", default="table1.csv")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("sweep-n", aliases=["ratio-curve"],
                       help="ET vs TT (broadcast+local) across n, with cost ratios")
    p.add_argument("--n-list", default="3,10,50")
    p.add_argument("--target-t", type=float, default=0.5)
    p.add_argument("--seed", type=_seed, default=1729)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--dt", type=float, default=2e-3)
    p.add_argument("--horizon", type=float, default=2000.0)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help=SAMPLES_HELP)
    p.add_argument("--out", default="sweep_n.csv")
    p.set_defaults(func=cmd_sweep_n)

    p = sub.add_parser("trajectory", help="dump a short trajectory for plotting")
    _add_common(p)
    p.add_argument("--duration", type=float, default=2.5)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out", default="trajectory.csv")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("selftest", help="fast internal consistency checks")
    p.add_argument("--seed", type=_seed, default=1729)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.workers = _workers(parser)
    try:
        return args.func(args, parser)
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: canned experiments with CSV + manifest output.

Subcommands
-----------
simulate     one scheme/scenario batch, reporting both cost estimators
calibrate    the global level threshold for a target rate, verified by
             Monte Carlo
table1       the 4x4 grid of schemes x scenarios at reference rates
sweep-n      ET vs TT under broadcast-plus-local info across n, with the
             ET/TT cost ratios at equal global rates (alias: ratio-curve)
trajectory   one per-step trial over --duration, dumped for plotting
selftest     fast internal consistency checks (exit 4 on failure)

Every command writes a CSV (comma separators, '.' decimals) plus a
``<out>.manifest.txt`` sidecar holding the resolved parameters, seed,
library versions, bit generator and code revision needed to reproduce
it, and the command's wall time; the manifests of the commands that run
fleets also record ``fleet_coarse_steps``, the most grid steps one row
of their trials covers, and those of ``simulate``, ``table1`` and
``sweep-n`` ``fleet_lanes``, ``yes`` where the trials ran as lanes of
renewal cycles and ``no`` where they ran row after row: per CSV row, in
order, for ``table1``, and per row as ``TT/ET`` for ``sweep-n``, so a
reader can tell which rows take their costs as conditional expectations
over coarse steps, and which ran as lanes, of coarse rows or of grid steps
(``fleet_coarse_steps`` 1).  ``THREADS``
(a positive integer, default 1) fans the trials of a batch out over
processes by groups of trials, at most one process per group and per
usable CPU: a group is the consecutive trials that share one chunk loop
on rows, as many as the chunk budget allows but no more than give each
process a group, or, where trials run as lanes of renewal cycles, that
share lane blocks, as many as the config sets.  Every batch config is
made and usage-checked in one
place, and ``table1`` and ``sweep-n`` build every
config before the first batch runs.  Their level thresholds come from
the closed form ``level_threshold``, and both build their
broadcast-plus-local ET/TT pairs with one function.  Exit codes: 0
success, 2 usage error (any input the library rejects, scheme flags
included, caught before work starts), 3 calibration failure of
``calibrate`` (no CSV is written), 4 selftest failure.
"""

import argparse
import contextlib
import csv
import datetime
import os
import subprocess
import sys
import time
import warnings
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
    level_threshold,
)
from .checks import check_count
from .control import Average, Fixed, InfoScenario, Leader
from .costs import (
    GRID_EXIT_SHIFT,
    expected_occupation_integral,
    grid_level_law,
    j_et_broadcast,
    j_tt_broadcast,
    j_tt_broadcast_local,
    local_to_global_period,
    mean_exit_time,
)
from .driver import (
    ScenarioConfig,
    _running_sum,
    _runs_lanes,
    fleet_coarse_steps,
    run_batch,
    run_trial,
    run_trial_reference,
)
from .sde import BIT_GENERATOR, NoiseStream
from .triggering import (
    MAX_COARSE_STEPS,
    Level,
    Periodic,
    sample_first_passage_batch,
    staggered_offsets,
)

TABLE1_ROWS = [(3, 0.25), (3, 0.5), (10, 0.5), (50, 0.5)]


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


def _write_manifest(args, command: str, **facts) -> None:
    """``<args.out>.manifest.txt``: the command, its wall time so far, the
    versions and revision that ran it, any ``facts`` about how it ran and
    every resolved argument."""
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
        *(f"{key}={value}" for key, value in facts.items()),
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


def _add_batch_flags(p: argparse.ArgumentParser, out: str, horizon: bool = True) -> None:
    p.add_argument("--dt", type=float, default=2e-3)
    if horizon:
        p.add_argument("--horizon", type=float, default=2000.0)
        p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=_seed, default=1729)
    p.add_argument("--out", default=out)


def _usage_checked(parser, check, *args, **kwargs):
    """``check(*args, **kwargs)``, with a ``ValueError`` turned into a usage error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _scheme_from(args, parser):
    # a flag the trigger does not use would run a scheme other than the one
    # the command line, and the manifest, describe
    unused = {"level": ("period", "offsets"), "periodic-sync": ("delta", "offsets"),
              "periodic-async": ("delta",)}[args.trigger]
    for flag in unused:
        if getattr(args, flag) is not None:
            parser.error(f"--trigger {args.trigger} does not use --{flag}")
    if args.trigger == "level":
        if args.delta is None:
            parser.error("--trigger level requires --delta")
        return Level(args.delta)
    if args.period is None:
        parser.error(f"--trigger {args.trigger} requires --period")
    if args.trigger == "periodic-sync":
        return Periodic(args.period)
    if args.offsets is None:
        return Periodic(args.period, staggered_offsets(args.n, args.period))
    try:
        offsets = tuple(float(v) for v in args.offsets.split(","))
    except ValueError:
        parser.error(f"--offsets must be a comma list of phases in [0, {args.period}), "
                     f"got {args.offsets!r}")
    return Periodic(args.period, offsets)


def _config(args, parser, **fields) -> ScenarioConfig:
    """The batch flags, overridden by ``fields``, as a ``ScenarioConfig``.

    Without a ``scheme`` field, the agent count, scenario, rule and scheme
    come from the scheme flags.  Any ``ValueError`` from building the
    scheme or the config is a usage error.
    """
    config = {k: v for k, v in vars(args).items() if k in ("dt", "horizon", "trials", "seed")}
    if "scheme" not in fields:
        rule = {"average": Average(), "leader": Leader(), "fixed": Fixed(0.0)}[args.rule]
        config.update(n=args.n, scenario=InfoScenario(args.scenario), rule=rule,
                      scheme=_usage_checked(parser, _scheme_from, args, parser))
    return _usage_checked(parser, ScenarioConfig, **{**config, **fields})


@contextlib.contextmanager
def _short_horizon_expected():
    """A context in which ``ScenarioConfig`` does not warn that its horizon
    holds under 100 expected inter-event times: for configs that report no
    estimate, or that are short on purpose and judged by their own spread."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "horizon .* under 100 expected inter-event times",
                                UserWarning)
        yield


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
    _write_manifest(args, "simulate", fleet_coarse_steps=fleet_coarse_steps(config),
                    fleet_lanes=_lanes([config]))
    print(f"wrote {args.out}: J = {report.j_time_avg:.6g} +- {report.ci_halfwidth:.2g}")
    return 0


def cmd_calibrate(args, parser) -> int:
    result = _usage_checked(parser, calibrate_global_threshold, args.n, args.target_t,
                            stream=NoiseStream(args.seed), dt=args.dt,
                            tolerance=args.tolerance, samples=args.samples)
    header = ["n", "target_T", "delta", "achieved_T", "ci", "samples"]
    row = [args.n, args.target_t, result.delta_star, result.achieved_period,
           result.ci_halfwidth, result.samples_used]
    _write_csv(args.out, header, [row])
    # the first-exit sampler's fine steps per coarse step in the verification run
    _write_manifest(args, "calibrate", fpt_coarse_steps=MAX_COARSE_STEPS)
    print(f"wrote {args.out}: delta = {result.delta_star:.6g} "
          f"(achieved {result.achieved_period:.6g} s)")
    return 0


def _coarse_steps(configs, sep=",") -> str:
    """``fleet_coarse_steps`` of each of ``configs``, in order, joined by
    ``sep``: above 1, the row's costs are expectations given the ends of
    coarse steps and the grid points drawn between them."""
    return sep.join(str(fleet_coarse_steps(config)) for config in configs)


def _lanes(configs, sep=",") -> str:
    """``yes`` or ``no`` for each of ``configs``, in order, joined by
    ``sep``: whether its trials run as lanes of renewal cycles."""
    return sep.join("yes" if _runs_lanes(config) else "no" for config in configs)


def _bl_pair(args, parser, n, target):
    """The TT-bl and ET-bl configs of ``n`` agents at global period
    ``target``: the periodic rule of that period without offsets, and the
    level rule at its closed-form threshold for the first of ``n`` agents."""
    level = _usage_checked(parser, lambda: Level(level_threshold(n, target)))
    return [_config(args, parser, n=n, scenario=InfoScenario.BROADCAST_LOCAL, scheme=scheme)
            for scheme in (Periodic(target), level)]


def cmd_table1(args, parser) -> int:
    plan = []  # (n, target, scheme, scenario, config, j_analytic) per row
    for n, target in TABLE1_ROWS:
        # broadcast-only agents fire on their own: local period n * target
        tt_b, et_b = (_config(args, parser, n=n, scenario=InfoScenario.BROADCAST, scheme=scheme)
                      for scheme in (Periodic(n * target), Level(level_threshold(1, n * target))))
        tt_bl, et_bl = _bl_pair(args, parser, n, target)
        plan += [(n, target, "TT", "b", tt_b, j_tt_broadcast(n, n * target)),
                 (n, target, "ET", "b", et_b, j_et_broadcast(n, et_b.scheme.delta)),
                 (n, target, "TT", "bl", tt_bl, j_tt_broadcast_local(n, target)),
                 (n, target, "ET", "bl", et_bl, None)]
    header = ["n", "target_global_T", "scheme", "scenario", "delta", "j_sim",
              "j_analytic", "mean_global_T", "ci"]
    rows = []
    for n, target, scheme, scenario, config, analytic in plan:
        rep = run_batch(config, workers=args.workers)
        if scenario == "bl":
            mean_global_t = rep.mean_global_interevent
        elif np.isnan(rep.mean_local_interevent):  # the batch saw no local event
            mean_global_t = None
        else:
            mean_global_t = local_to_global_period(n, rep.mean_local_interevent)
        rows.append([n, target, scheme, scenario, getattr(config.scheme, "delta", None),
                     rep.j_time_avg, analytic, mean_global_t, rep.ci_halfwidth])
    _write_csv(args.out, header, rows)
    configs = [row[4] for row in plan]
    _write_manifest(args, "table1", fleet_coarse_steps=_coarse_steps(configs),
                    fleet_lanes=_lanes(configs))
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
        # threshold check with the library's message
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
    pairs = [_bl_pair(args, parser, n, target) for n in n_list]
    header = ["n", "target_global_T", "delta", "j_tt_bl_sim", "j_et_bl_sim",
              "j_tt_bl_analytic", "diff", "ci_diff", "mean_global_T_et", "consistent",
              "ratio_b_analytic", "ratio_bl_mc"]
    rows = []
    for n, (tt, et) in zip(n_list, pairs):
        rep_tt, rep_et = (run_batch(config, workers=args.workers) for config in (tt, et))
        diff = rep_et.j_time_avg - rep_tt.j_time_avg
        rows.append([n, target, et.scheme.delta, rep_tt.j_time_avg, rep_et.j_time_avg,
                     j_tt_broadcast_local(n, target), diff,
                     _welch_ci95(rep_et.j_trials, rep_tt.j_trials),
                     rep_et.mean_global_interevent,
                     "yes" if diff < 0 else "no",
                     # ET-b over TT-bl at one global period T: n(n-1) nT/6 over
                     # n(n-1) T/2; broadcast-only ET over TT is 1/3 at every n
                     n / 3.0, rep_et.j_time_avg / rep_tt.j_time_avg])
    _write_csv(args.out, header, rows)
    _write_manifest(args, args.command,
                    fleet_coarse_steps=",".join(_coarse_steps(pair, "/") for pair in pairs),
                    fleet_lanes=",".join(_lanes(pair, "/") for pair in pairs))
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def cmd_trajectory(args, parser) -> int:
    with _short_horizon_expected():  # a trajectory writes no estimate
        config = _config(args, parser, horizon=args.duration, trials=1)
    _usage_checked(parser, check_count, "stride", args.stride)
    result = run_trial_reference(config, 0, trajectory_stride=args.stride)
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
    # the per-step reference's rows are grid steps
    _write_manifest(args, "trajectory", fleet_coarse_steps=1)
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
    # on a fine grid the level law is the continuous one, with the band
    # widened by GRID_EXIT_SHIFT sqrt(h)
    h = 1e-4
    gaps = [grid_level_law(w, h).mean_exit_steps() * h
            / (mean_exit_time(w) * (1 + GRID_EXIT_SHIFT * np.sqrt(h)) ** 2) - 1
            for w in (1, 3, 10)]
    check("grid level law matches the continuous law", max(map(abs, gaps)) <= 1e-3,
          f"(W=1, 3, 10 at h={h:g}: {', '.join(f'{g:+.1e}' for g in gaps)})")

    stepwise, chunked = NoiseStream(args.seed), NoiseStream(args.seed)
    same = np.array_equal(np.concatenate([stepwise.normals(3) for _ in range(40)]),
                          chunked.normals((40, 3)).ravel())
    check("chunked draws match stepwise draws", same, f"({BIT_GENERATOR.__name__})")
    # even fleets form their running sums as complex pairs of agents, which is
    # exact only if this numpy adds complex numbers componentwise
    block = NoiseStream(args.seed).normals((64, 4))
    paired = block.copy()
    _running_sum(paired)
    check("paired running sum matches cumsum",
          np.array_equal(paired, np.cumsum(block, axis=0)))

    times = sample_first_passage_batch(NoiseStream(args.seed), 20_000, 1.0, 1e-3)
    mean = float(times.mean())
    check("first-passage mean (delta=1)", abs(mean - 1.0) < 0.03, f"(mean={mean:.4f})")
    # bridge refinement over coarse steps must keep the grid sampler's law,
    # whose mean the Nystrom recursion gives exactly; the lane check below
    # reuses this law
    delta, dt, samples = 0.7457, 2e-3, 40_000
    times = sample_first_passage_batch(NoiseStream(args.seed).child(1), samples, delta, dt,
                                       n_agents=3, bridge_correction=False)
    mean = float(times.mean())
    law = grid_level_law(3, dt / delta**2).mean_exit_time(dt)
    z = (mean - law) / (float(times.std(ddof=1)) / np.sqrt(samples))
    check("coarse-refined exits match the grid law", abs(z) <= 4,
          f"(mean={mean:.4f}, law={law:.4f}, {z:+.1f} SE)")

    # coarse periodic rows take the cost as its expectation given their ends,
    # which must keep the grid fleet's mean
    config = ScenarioConfig(n=3, scenario=InfoScenario.BROADCAST_LOCAL, scheme=Periodic(0.25),
                            dt=2e-3, horizon=125.0, trials=16, seed=args.seed)
    rep = run_batch(config)
    oracle = j_tt_broadcast(3, 0.25, config.dt)
    z = (rep.j_time_avg - oracle) / (rep.ci_halfwidth / stats.t.ppf(0.975, config.trials - 1))
    check("coarse periodic cost matches grid oracle", abs(z) <= 4,
          f"(sim={rep.j_time_avg:.4f}, oracle={oracle:.4f}, {z:+.1f} SE)")

    # lanes of renewal cycles (bl, of coarse rows and of grid steps) and
    # broadcast-only coarse level rows (b, 16 grid steps each at threshold 4)
    # take the cost as its expectation given what was drawn, or sum it over
    # lanes of grid steps, which must keep the grid fleet's mean; 16 trials
    # each, of about 110 cycles (bl lanes), 930 cycles (bl grid-step lanes)
    # and 16 cycles per agent (b), judged by their own spread.  Each must run
    # as its label says, which a coarse step of 1 does not tell for lanes of
    # grid steps
    for label, n, scenario, delta, watchers, steps in (
            ("bl lanes", 20, InfoScenario.BROADCAST_LOCAL, 3.5, 20, MAX_COARSE_STEPS),
            ("bl grid-step lanes", 3, InfoScenario.BROADCAST_LOCAL, 0.7457, 3, 1),
            ("b rows", 12, InfoScenario.BROADCAST, 4.0, 1, 2 * MAX_COARSE_STEPS)):
        with _short_horizon_expected():
            config = ScenarioConfig(n=n, scenario=scenario, scheme=Level(delta), dt=2e-3,
                                    horizon=250.0, trials=16, seed=args.seed)
        rep = run_batch(config)
        oracle = grid_level_law(watchers, config.dt / delta**2).cost(n, delta)
        z = (rep.j_time_avg - oracle) / (rep.ci_halfwidth / stats.t.ppf(0.975, config.trials - 1))
        ran = (fleet_coarse_steps(config) == steps
               and _runs_lanes(config) == (scenario is InfoScenario.BROADCAST_LOCAL))
        check(f"coarse level cost matches grid oracle ({label})", ran and abs(z) <= 4,
              f"(sim={rep.j_time_avg:.4f}, oracle={oracle:.4f}, {z:+.1f} SE)")

    config = ScenarioConfig(
        n=3, scenario=InfoScenario.BROADCAST, scheme=Level(float(np.sqrt(1.5))),
        dt=2e-3, horizon=250.0, trials=2, seed=args.seed)
    rep1 = run_batch(config)
    rep2 = run_batch(config)
    check("batch determinism", rep1 == rep2)
    oracle = j_et_broadcast(3, float(np.sqrt(1.5)))
    check("level-scheme cost vs oracle",
          abs(rep1.j_time_avg / oracle - 1.0) < 0.15,
          f"(sim={rep1.j_time_avg:.4g}, oracle={oracle:.4g})")

    config = ScenarioConfig(
        n=3, scenario=InfoScenario.BROADCAST, scheme=Level(0.2), dt=2e-3,
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
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help="verification budget: a fifth of it, at least 5000, is drawn")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--out", default="calibrate.csv")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("table1", help="4 schemes x 4 reference scenarios")
    _add_batch_flags(p, "table1.csv")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("sweep-n", aliases=["ratio-curve"],
                       help="ET vs TT (broadcast+local) across n, with cost ratios")
    p.add_argument("--n-list", default="3,10,50")
    p.add_argument("--target-t", type=float, default=0.5)
    _add_batch_flags(p, "sweep_n.csv")
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

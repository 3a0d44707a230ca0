"""The benchmark's workloads: the ops each one issues and the checks on their outputs.

Every op is one call into etclab's public API, made back to back by a
single caller with ``workers=1``.  The inputs are a pure function of the
workload name, ``--seed`` and ``--seconds``; the library only ever sees
the generated ``ScenarioConfig``s and calibration calls.
"""

import math
import random
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional

from scipy import stats

from etclab import (
    InfoScenario,
    LevelBroadcast,
    LevelGlobal,
    NoiseStream,
    PeriodicAsync,
    PeriodicSync,
    ScenarioConfig,
    calibrate_global_threshold,
    j_et_broadcast,
    j_tt_broadcast,
    j_tt_broadcast_local,
    run_batch,
    staggered_offsets,
)

B = InfoScenario.BROADCAST
BL = InfoScenario.BROADCAST_LOCAL

DT = 2e-3  # reference protocol
TRIALS = 8
# calibrate_global_threshold(3, 0.25, stream=NoiseStream(1729).child(3)) at the
# CLI defaults, fixed here so that fleet-small never runs the calibrator
ET_BL_DELTA_SMALL = 0.7457396748327672
ET_BL_DELTA_LARGE = 1.8839  # criterion 7's threshold for n=50, T=0.5

CAL_TARGET = 0.5
# At the CLI defaults (dt 1e-3, 100k samples) one {3, 10, 50} cycle takes
# about 65 s, longer than a run.  dt 2e-3 (the fleet protocol's step, with
# the default bridge correction) and 30k samples bring a cycle to about
# 14 s, so a run holds two and op_s_p50 averages two n=10 calls.  The 3%
# verification tolerance (the default) still sits 3.4 standard errors away
# at n=3, more at larger n.
CAL_DT = 2e-3
CAL_SAMPLES = 30_000
CAL_N = (3, 10, 50)
CAL_REFERENCE = {3: 1.04, 10: 1.44, 50: 1.90}  # criterion 6
CAL_BAND = 0.10

# A per-op check allows the acceptance band plus K_CI times the batch's own
# 95% half-width.  With 8 trials the studentized error has 7 degrees of
# freedom and heavy tails; six half-widths keep a false alarm near two in a
# million ops before the band adds its own margin.
K_CI = 6.0
T975 = stats.t.ppf(0.975, TRIALS - 1)  # 95% half-width / standard error
# Long-run checks (oracle, renewal agreement) apply when the horizon holds
# at least this many expected renewal intervals; shorter ops are still in
# their start-up transient, so their oracle_err is recorded but not gated.
LONG_RUN_INTERVALS = 10
# j_renewal rests on one reference agent's cycles, so its noise is not in the
# time average's CI.  Its relative standard error is about CV / sqrt(cycles),
# where CV is the coefficient of variation of one cycle's reward; a fixed
# period gives sqrt(1/3) / (1/2) = 1.15, exit-limited cycles less.  The two
# estimates may differ by K_SIGMA combined standard errors.
CYCLE_REWARD_CV = 1.2
K_SIGMA = 6.0


@dataclass(frozen=True)
class Cell:
    """One scheme x scenario combination of a table1 row."""

    name: str
    scenario: InfoScenario
    scheme: object
    target: float  # the row's target global inter-event time
    interval: float  # expected renewal interval, seconds
    oracle: Optional[float] = None
    band: Optional[tuple] = None  # acceptance band on j / oracle

    def achieved(self, n: int, report) -> float:
        """Achieved global-equivalent inter-event time, as table1 reports it."""
        if self.scenario is B:
            return report.mean_local_interevent / n
        return report.mean_global_interevent


def table1_cells(n: int, target: float, et_bl_delta: float, with_async: bool) -> List[Cell]:
    local = n * target
    delta_b = math.sqrt(local)
    cells = [Cell("tt-b", B, PeriodicSync(local), target, local,
                  j_tt_broadcast(n, local), (0.97, 1.03))]
    if with_async:  # criterion 2's staggered schedule
        cells.append(Cell("tt-async-b", B, PeriodicAsync(local, staggered_offsets(n, local)),
                          target, local, j_tt_broadcast(n, local), (0.97, 1.03)))
    cells += [
        Cell("et-b", B, LevelBroadcast(delta_b), target, local,
             j_et_broadcast(n, delta_b), (0.97, 1.07)),  # criterion 3
        Cell("tt-bl", BL, PeriodicSync(target), target, target,
             j_tt_broadcast_local(n, target), (0.95, 1.05)),  # criterion 5
        Cell("et-bl", BL, LevelGlobal(et_bl_delta), target, target),
    ]
    return cells


# op_s is the measured mean op latency at this revision (2-core Xeon); it only
# sizes the fixed op count from --seconds, so it must not change between runs.
FLEETS = {
    # n=3, T=0.25: about 200 events per trial-100 s, Python work per window dominates
    "fleet-small": dict(n=3, horizon=99.0, op_s=0.25,
                        cells=table1_cells(3, 0.25, ET_BL_DELTA_SMALL, True)),
    # n=50, T=0.5: Philox draws and 50-wide row operations dominate
    "fleet-large": dict(n=50, horizon=25.0, op_s=0.25,
                        cells=table1_cells(50, 0.5, ET_BL_DELTA_LARGE, False)),
}
CAL_OP_S = 4.7  # mean latency of one call over a {3, 10, 50} cycle


@dataclass
class Op:
    """One timed call; ``run`` takes no arguments and returns the result."""

    cell: str
    kind: str  # span name of the call: "driver.batch" or "calibration"
    run: Callable
    agent_steps: float
    check: Callable  # result -> failure reason, or None
    config: object = None


def _calibrate(n: int, seed: int, samples: int = CAL_SAMPLES, tolerance: float = 0.03):
    # a fresh stream per call: identical inputs must give identical results
    return calibrate_global_threshold(n, CAL_TARGET, stream=NoiseStream(seed).child(n),
                                      dt=CAL_DT, tolerance=tolerance, samples=samples)


def _finite_nonneg(*values) -> bool:
    return all(math.isfinite(v) and v >= 0 for v in values)


def check_fleet(cell: Cell, config: ScenarioConfig, report) -> Optional[str]:
    long_run = config.horizon >= LONG_RUN_INTERVALS * cell.interval
    values = [report.j_time_avg, report.ci_halfwidth, report.mean_local_interevent,
              report.mean_global_interevent, *report.j_trials]
    # a short batch may close no renewal cycle, for which j_renewal is nan
    if long_run or not math.isnan(report.j_renewal):
        values.append(report.j_renewal)
    if not _finite_nonneg(*values):
        return f"non-finite or negative output in {report}"
    if not long_run:
        return None
    j, ci = report.j_time_avg, report.ci_halfwidth
    if cell.oracle is not None:
        lo, hi = cell.band
        if not lo * cell.oracle - K_CI * ci <= j <= hi * cell.oracle + K_CI * ci:
            return f"j_time_avg {j:.6g} outside oracle {cell.oracle:.6g} band {cell.band} +- {K_CI} x ci {ci:.3g}"
    interval = (report.mean_local_interevent if cell.scenario is B
                else report.mean_global_interevent)
    cycles = config.trials * config.horizon / interval
    sigma = ci / T975 + CYCLE_REWARD_CV * j / math.sqrt(cycles)
    if abs(j - report.j_renewal) > K_SIGMA * sigma:
        return f"j_time_avg {j:.6g} and j_renewal {report.j_renewal:.6g} disagree"
    return None


def check_calibration(n: int, result) -> Optional[str]:
    delta = result.delta_star
    if not _finite_nonneg(delta, result.achieved_period, result.ci_halfwidth):
        return f"non-finite or negative output in {result}"
    if abs(delta / CAL_REFERENCE[n] - 1) > CAL_BAND:
        return f"delta* {delta:.6g} outside 10% of {CAL_REFERENCE[n]} (criterion 6)"
    return None


def op_count(name: str, seconds: int) -> int:
    """Fixed work sized to take about ``seconds`` at this revision; at 25 s
    each fleet workload holds at least 100 ops, so 10 lie beyond op_s_p90."""
    if name == "calibrate":
        return math.ceil(seconds / CAL_OP_S)
    spec = FLEETS[name]
    return max(math.ceil(seconds / spec["op_s"]), len(spec["cells"]))


def build_ops(name: str, seed: int, seconds: int) -> List[Op]:
    """The fixed op list of one run."""
    count = op_count(name, seconds)
    if name == "calibrate":
        nominal = {n: n * CAL_SAMPLES * CAL_TARGET / CAL_DT for n in CAL_N}
        return [
            Op(f"n{n}", "calibration", partial(_calibrate, n, seed), nominal[n],
               partial(check_calibration, n))
            for n in (CAL_N[k % len(CAL_N)] for k in range(count))
        ]
    spec = FLEETS[name]
    n, cells = spec["n"], spec["cells"]
    rng = random.Random(seed)
    ops = []
    with warnings.catch_warnings():
        # fleet-large's short horizon trips the "estimates will be noisy" warning
        warnings.simplefilter("ignore")
        for k in range(count):
            cell = cells[k % len(cells)]
            config = ScenarioConfig(n=n, scenario=cell.scenario, scheme=cell.scheme,
                                    dt=DT, horizon=spec["horizon"], trials=TRIALS,
                                    seed=rng.getrandbits(32))
            ops.append(Op(cell.name, "driver.batch", partial(run_batch, config),
                          float(n * config.steps * TRIALS),
                          partial(check_fleet, cell, config), config))
    return ops


def warm_ups(name: str, seed: int, ops: List[Op]) -> list:
    """Untimed ops run before the timed phase, as ``(op, index of the timed op
    with the same input or None)``.  The first is the fixed warm-up that
    setup_s includes.  Fleets warm the first op of every cell, which is timed
    again later, so the two reports must be equal.  Calibrate warms with one
    small call (a whole-size call per n would cost a timed cycle); it is
    repeated after the timed phase and must give the same result.
    """
    if name == "calibrate":
        small = partial(_calibrate, CAL_N[0], seed, samples=2_000, tolerance=0.2)
        return [(Op("warm-up", "calibration", small, 0.0, partial(check_calibration, CAL_N[0])),
                 None)]
    return [(ops[i], i) for i in range(min(len(ops), len(FLEETS[name]["cells"])))]


def params(name: str, seconds: int) -> dict:
    """Per-workload parameters recorded with every result."""
    common = dict(workers=1, ops=op_count(name, seconds), closed_loop_clients=1)
    if name == "calibrate":
        return dict(common, n=list(CAL_N), target_T=CAL_TARGET, dt=CAL_DT,
                    samples=CAL_SAMPLES, tolerance=0.03, bridge_correction=True)
    spec = FLEETS[name]
    return dict(common, n=spec["n"], dt=DT, trials=TRIALS, horizon=spec["horizon"],
                cells={c.name: repr(c.scheme) for c in spec["cells"]})


def cell_outputs(name: str, ops: List[Op], results: list) -> dict:
    """oracle_err and rate_err per cell: recorded as outputs, never gated."""
    if name == "calibrate":
        return {}
    spec = FLEETS[name]
    out = {}
    for cell in spec["cells"]:
        reports = [r for op, r in zip(ops, results)
                   if op.cell == cell.name and not isinstance(r, Exception)]
        if not reports:
            continue
        j = sum(r.j_time_avg for r in reports) / len(reports)
        rate = sum(cell.achieved(spec["n"], r) for r in reports) / len(reports)
        out[cell.name] = dict(
            ops=len(reports),
            j_time_avg=j,
            oracle=cell.oracle,
            oracle_err=None if cell.oracle is None else j / cell.oracle - 1,
            achieved_T=rate,
            rate_err=rate / cell.target - 1,
        )
    return out

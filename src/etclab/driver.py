"""Closed-loop trial orchestration: stepping, triggering, impulses, cost.

``run_trial`` integrates one trajectory of the impulsively controlled
fleet on a fixed grid.  Within each step the order is: advance the
noise, evaluate the trigger condition on the post-drift state, and on a
trigger apply the impulse at the step boundary; the cost integral uses
left-endpoint rectangles, so an impulse never contributes to the step
in which it fires.

The production path processes steps in vectorized chunks, locating the
first trigger inside each chunk from the cumulative-sum path (level
rules) or from per-agent deadline counters (periodic rules).  It
consumes the noise stream in exactly the same order as the plain
per-step loop, which is kept as ``run_trial_reference`` and checked
against the fast path in the test suite.  Trials are embarrassingly
parallel: each owns a counter-based substream keyed by its index, and
batches merge per-trial results in fixed index order.
"""

import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .control import (
    Average,
    ConsensusRule,
    InfoScenario,
    consensus_point,
    consensus_value,
    impulse_broadcast,
    refresh_estimates,
)
from .costs import CostAccumulator, CostReport, accumulate, finalize
from .graph import CompleteGraph, consensus_cost, consensus_cost_rows
from .sde import NoiseStream, SimState, apply_impulse, drift_step, initial_state, wiener_increments
from .triggering import (
    EPS_REL,
    LevelBroadcast,
    LevelGlobal,
    PeriodicAsync,
    PeriodicSync,
    TriggerEvent,
    TriggerScheme,
    check_level_broadcast,
    check_level_global,
    check_periodic,
    periodic_fire_step,
)

__all__ = [
    "ScenarioConfig",
    "TrialResult",
    "run_trial",
    "run_trial_reference",
    "run_trials",
    "run_batch",
]

CHUNK_STEPS = 2048
# level rules search for crossings in bounded windows so that a hit early
# in a chunk does not force recomputing the whole remainder
LEVEL_LOOKAHEAD = 256


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one experiment.

    ``scheme`` and ``scenario`` must be compatible: the broadcast level
    rule and asynchronous periodic schedules require broadcast-only
    information, the global level rule requires broadcast-plus-local,
    and synchronous periodic schedules work in both.
    """

    n: int
    scenario: InfoScenario
    scheme: TriggerScheme
    rule: ConsensusRule = Average()
    dt: float = 2e-3
    horizon: float = 2000.0
    trials: int = 8
    seed: int = 0
    record_events: bool = False
    record_trajectory: bool = False
    trajectory_stride: int = 50

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"agent count must be >= 1, got {self.n}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.horizon < self.dt:
            raise ValueError("horizon must cover at least one step")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.trajectory_stride < 1:
            raise ValueError("trajectory_stride must be >= 1")
        scheme, scenario = self.scheme, self.scenario
        if isinstance(scheme, LevelBroadcast) and scenario is not InfoScenario.BROADCAST:
            raise ValueError("broadcast level rule requires the broadcast-only scenario")
        if isinstance(scheme, LevelGlobal) and scenario is not InfoScenario.BROADCAST_LOCAL:
            raise ValueError("global level rule requires the broadcast-plus-local scenario")
        if isinstance(scheme, PeriodicAsync):
            if scenario is not InfoScenario.BROADCAST:
                raise ValueError("asynchronous periodic schedule requires the broadcast-only scenario")
            if len(scheme.offsets) != self.n:
                raise ValueError(
                    f"schedule has {len(scheme.offsets)} offsets for {self.n} agents"
                )
        if isinstance(scheme, (PeriodicSync, PeriodicAsync)) and scheme.period < self.dt:
            raise ValueError("period must be at least one step")
        expected = _expected_interevent(self)
        if expected is not None and self.horizon < 100 * expected:
            warnings.warn(
                f"horizon {self.horizon} s is under 100 expected inter-event times "
                f"(~{expected:.3g} s each); estimates will be noisy",
                stacklevel=2,
            )

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))


def _expected_interevent(config: "ScenarioConfig") -> Optional[float]:
    scheme = config.scheme
    if isinstance(scheme, (PeriodicSync, PeriodicAsync)):
        return scheme.period
    if isinstance(scheme, LevelBroadcast):
        return scheme.delta**2
    if isinstance(scheme, LevelGlobal):
        return scheme.delta**2 / config.n  # crude lower-bound scale
    return None


@dataclass
class TrialResult:
    """Outcome of one trial: tallies plus optional event/trajectory logs.

    Trajectory rows are ``(t, x, xhat, event_flag, threshold_center)``;
    event rows carry the post-jump state and flag 1, stride rows the
    current state and flag 0.  The threshold center is the last
    consensus point for level schemes and NaN for periodic ones.
    """

    accumulator: CostAccumulator
    events: Optional[List[TriggerEvent]] = None
    trajectory: Optional[List[tuple]] = None


def run_trial(config: ScenarioConfig, trial_index: int, noise_scale: float = 1.0) -> TrialResult:
    """Simulate one trial, deterministic in ``(config, trial_index)``.

    ``noise_scale`` is a diagnostic multiplier on the driving noise
    (-1 flips its sign, 0 silences it).
    """
    return _run_trial_fast(config, trial_index, noise_scale)


def run_trials(config: ScenarioConfig, workers: int = 1) -> List[TrialResult]:
    """All trials of a batch, in trial-index order."""
    indices = range(config.trials)
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_trial_task, ((config, i) for i in indices)))
    return [run_trial(config, i) for i in indices]


def _trial_task(args) -> TrialResult:
    config, index = args
    return run_trial(config, index)


def run_batch(config: ScenarioConfig, workers: int = 1) -> CostReport:
    """Run every trial and finalize the merged cost report."""
    results = run_trials(config, workers)
    return finalize([r.accumulator for r in results])


# ---------------------------------------------------------------------------
# fast chunked integrator


def _run_trial_fast(config: ScenarioConfig, trial_index: int, noise_scale: float) -> TrialResult:
    n = config.n
    dt = config.dt
    steps_total = config.steps
    scheme = config.scheme
    scenario = config.scenario
    rule = config.rule
    broadcast_only = scenario is InfoScenario.BROADCAST
    level = isinstance(scheme, (LevelBroadcast, LevelGlobal))
    if level:
        delta = scheme.delta
    else:
        period = scheme.period
        if isinstance(scheme, PeriodicSync):
            offsets = np.zeros(n)
        else:
            offsets = np.asarray(scheme.offsets, dtype=float)
        eps = EPS_REL * dt
        fire_counts = np.where(offsets <= eps, 1, 0).astype(np.int64)
        fire_steps = np.array(
            [periodic_fire_step(offsets[i] + fire_counts[i] * period, dt) for i in range(n)],
            dtype=np.int64,
        )

    stream = NoiseStream(config.seed, trial_index, noise_scale)
    sqrt_dt = np.sqrt(dt)

    x = np.zeros(n)
    xhat = np.zeros(n)
    snapshot = np.zeros(n)
    c_prev = 0.0

    acc = CostAccumulator(n)
    cycle_reward = 0.0
    cycle_start_step = 0

    events: Optional[List[TriggerEvent]] = [] if config.record_events else None
    trajectory: Optional[List[tuple]] = [] if config.record_trajectory else None
    stride = config.trajectory_stride
    thr_center = c_prev if level else float("nan")
    if trajectory is not None:
        trajectory.append((0.0, x.copy(), xhat.copy(), 0, thr_center))

    done = 0  # completed steps; state x holds the value at time done*dt
    while done < steps_total:
        span = min(CHUNK_STEPS, steps_total - done)
        dw = stream.normals((span, n)) * sqrt_dt
        used = 0  # rows of this chunk already consumed
        while used < span:
            rem = span - used
            if level:
                look = min(rem, LEVEL_LOOKAHEAD)
                path = x + np.cumsum(dw[used : used + look], axis=0)
                ref = xhat if broadcast_only else snapshot
                hit = np.abs(path - ref) >= delta
                hit_rows = hit.any(axis=1)
                if hit_rows.any():
                    row = int(np.argmax(hit_rows))
                    length = row + 1
                    has_event = True
                    initiators = np.flatnonzero(hit[row])
                    path = path[:length]
                else:
                    length = look
                    has_event = False
            else:
                next_fire = int(fire_steps.min())
                if next_fire <= done + span:
                    length = next_fire - (done + used)
                    has_event = True
                    initiators = np.flatnonzero(fire_steps == next_fire)
                else:
                    length = rem
                    has_event = False
                path = x + np.cumsum(dw[used : used + length], axis=0)

            # left-endpoint rectangles over the accepted rows
            lefts = np.concatenate((x[None, :], path[:-1]), axis=0)
            cost_vals = consensus_cost_rows(n, lefts)
            acc.integral_sum += float(cost_vals.sum()) * dt
            acc.elapsed += length * dt
            ref1 = xhat[0] if broadcast_only else snapshot[0]
            dev1 = lefts[:, 0] - ref1
            cycle_reward += float((dev1 * dev1).sum()) * dt

            if trajectory is not None:
                # the event row carries the event step, so stride rows stop
                # just short of it
                first_step = done + used + 1
                last = length - 1 if has_event else length
                for k in range((-first_step) % stride, last, stride):
                    step_abs = first_step + k
                    trajectory.append(
                        (step_abs * dt, path[k].copy(), xhat.copy(), 0, thr_center)
                    )

            x = path[length - 1]
            step_now = done + used + length

            if has_event:
                t_ev = step_now * dt
                x_pre = x.copy() if events is not None else None
                xhat_pre = xhat.copy() if events is not None else None
                if broadcast_only:
                    xhat = xhat.copy()
                    xhat[initiators] = x[initiators]
                    c = consensus_value(x, c_prev, initiators, rule, scenario)
                    x = x + (c - xhat)
                    x[initiators] = c  # impulse lands initiators exactly on c
                    xhat = np.full(n, c)
                else:
                    c = consensus_value(x, c_prev, initiators, rule, scenario)
                    x = np.full(n, c)
                    xhat = np.full(n, c)
                    snapshot = x.copy()
                c_prev = c
                thr_center = c_prev if level else float("nan")
                acc.local_event_counts[initiators] += 1
                acc.global_event_count += 1
                if not broadcast_only or initiators[0] == 0:
                    acc.close_cycle(cycle_reward, (step_now - cycle_start_step) * dt)
                    cycle_reward = 0.0
                    cycle_start_step = step_now
                if not level:
                    fire_counts[initiators] += 1
                    for i in initiators:
                        fire_steps[i] = periodic_fire_step(
                            offsets[i] + fire_counts[i] * period, dt
                        )
                if events is not None:
                    events.append(
                        TriggerEvent(
                            time=t_ev,
                            initiators=tuple(int(i) for i in initiators),
                            consensus_point=c,
                            is_global=not broadcast_only,
                            x_pre=x_pre,
                            x_post=x.copy(),
                            xhat_pre=xhat_pre,
                            xhat_post=xhat.copy(),
                        )
                    )
                if trajectory is not None:
                    trajectory.append((t_ev, x.copy(), xhat.copy(), 1, thr_center))
            used += length
        done += span

    return TrialResult(accumulator=acc, events=events, trajectory=trajectory)


# ---------------------------------------------------------------------------
# plain per-step reference integrator (validation aid)


def run_trial_reference(
    config: ScenarioConfig, trial_index: int, noise_scale: float = 1.0
) -> TrialResult:
    """Straightforward per-step integrator over the public operations.

    Slow (pure Python loop); produces trigger instants identical to
    ``run_trial`` and cost tallies equal up to summation order.  Meant
    for validation on short horizons.
    """
    n = config.n
    dt = config.dt
    scheme = config.scheme
    scenario = config.scenario
    rule = config.rule
    broadcast_only = scenario is InfoScenario.BROADCAST
    level = isinstance(scheme, (LevelBroadcast, LevelGlobal))
    graph = CompleteGraph(n)
    stream = NoiseStream(config.seed, trial_index, noise_scale)

    state = initial_state(n)
    acc = CostAccumulator(n)
    cycle_reward = 0.0
    cycle_start_step = 0
    events: Optional[List[TriggerEvent]] = [] if config.record_events else None

    for step in range(1, config.steps + 1):
        cost_left = consensus_cost(graph, state.x)
        ref1 = state.xhat[0] if broadcast_only else state.x_at_last_global[0]
        dev1 = state.x[0] - ref1
        dw = wiener_increments(stream, n, dt)
        state = drift_step(state, dw, dt)
        accumulate(acc, cost_left, dt)
        cycle_reward += dev1 * dev1 * dt

        t_now = step * dt
        if isinstance(scheme, LevelBroadcast):
            initiators = check_level_broadcast(state, scheme.delta)
        elif isinstance(scheme, LevelGlobal):
            initiators = check_level_global(state, scheme.delta)
        else:
            initiators = check_periodic(t_now, scheme, dt, n)
        if initiators.size == 0:
            continue

        x_pre = state.x.copy() if events is not None else None
        xhat_pre = state.xhat.copy() if events is not None else None
        if broadcast_only:
            state = refresh_estimates(state, initiators)
            c = consensus_point(state, initiators, rule, scenario)
            jumps = impulse_broadcast(state, c)
            state = apply_impulse(state, jumps)
            new_x = state.x.copy()
            new_x[initiators] = c  # impulse lands initiators exactly on c
            new_snapshot = state.x_at_last_global
        else:
            c = consensus_point(state, initiators, rule, scenario)
            new_x = np.full(n, c)  # exact reset, per the impulse contract
            new_snapshot = new_x.copy()
        last_local = state.last_local_trigger.copy()
        last_local[initiators] = t_now
        state = SimState(
            t=state.t,
            x=new_x,
            xhat=np.full(n, c),
            last_local_trigger=last_local,
            last_global_trigger=t_now,
            last_consensus_point=c,
            x_at_last_global=new_snapshot,
        )
        acc.local_event_counts[initiators] += 1
        acc.global_event_count += 1
        if not broadcast_only or initiators[0] == 0:
            acc.close_cycle(cycle_reward, (step - cycle_start_step) * dt)
            cycle_reward = 0.0
            cycle_start_step = step
        if events is not None:
            events.append(
                TriggerEvent(
                    time=t_now,
                    initiators=tuple(int(i) for i in initiators),
                    consensus_point=c,
                    is_global=not broadcast_only,
                    x_pre=x_pre,
                    x_post=state.x.copy(),
                    xhat_pre=xhat_pre,
                    xhat_post=state.xhat.copy(),
                )
            )

    return TrialResult(accumulator=acc, events=events, trajectory=None)

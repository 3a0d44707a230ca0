"""Closed-loop trial orchestration: stepping, triggering, impulses, cost.

``run_trial`` integrates one trajectory of the impulsively controlled
fleet on a fixed grid.  Within each step the order is: advance the
noise, evaluate the trigger condition on the post-drift state, and on a
trigger apply the impulse at the step boundary; the cost integral uses
left-endpoint rectangles, so an impulse never contributes to the step
in which it fires.

The production path processes steps in vectorized chunks, locating the
first trigger inside each chunk from the cumulative-sum path (level
rules) or from per-agent deadline counters (periodic rules).  Chunks are
sized from a memory budget, so the noise block stays bounded at any
fleet size.  The path consumes the noise stream in exactly the same
order as the plain per-step loop kept as ``run_trial_reference``; both
integrators hand every event to one ``_apply_event``, so they differ
only in stepping, trigger detection and cost summation, which the test
suite compares.  Trials are embarrassingly parallel: each owns a
substream keyed by its index, and batches merge per-trial results in
fixed index order.
"""

import warnings
from dataclasses import dataclass
from functools import partial
from typing import List, Optional

import numpy as np

from .control import Average, ConsensusRule, InfoScenario, consensus_value
from .costs import CostAccumulator, CostReport, finalize
from .graph import consensus_cost_rows
from .sde import NoiseStream
from .triggering import (
    EPS_REL,
    LevelBroadcast,
    LevelGlobal,
    PeriodicAsync,
    PeriodicSync,
    TriggerEvent,
    TriggerScheme,
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
# the noise block of a chunk holds at most this many bytes (8 per draw), so
# fleets beyond CHUNK_BYTES / (8 * CHUNK_STEPS) = 512 agents get fewer rows
CHUNK_BYTES = 8 << 20
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
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
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


def run_trials(config: ScenarioConfig, workers: int = 1) -> List[TrialResult]:
    """All trials of a batch, in trial-index order."""
    indices = range(config.trials)
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(partial(run_trial, config), indices))
    return [run_trial(config, i) for i in indices]


def run_batch(config: ScenarioConfig, workers: int = 1) -> CostReport:
    """Run every trial and finalize the merged cost report."""
    results = run_trials(config, workers)
    return finalize([r.accumulator for r in results])


# ---------------------------------------------------------------------------
# the event protocol, shared by both integrators


@dataclass
class _Fleet:
    """Closed-loop state of one trial; ``_apply_event`` updates it in place.

    ``snapshot`` holds the states at the last global event (read by the
    broadcast-plus-local level rule); ``cycle_reward`` and ``cycle_start``
    describe the open renewal cycle.
    """

    config: ScenarioConfig
    x: np.ndarray
    xhat: np.ndarray
    snapshot: np.ndarray
    acc: CostAccumulator
    events: Optional[List[TriggerEvent]]
    c_prev: float = 0.0
    cycle_reward: float = 0.0
    cycle_start: int = 0

    @classmethod
    def start(cls, config: ScenarioConfig) -> "_Fleet":
        """All agents in consensus at zero; t = 0 counts as a trigger."""
        n = config.n
        events = [] if config.record_events else None
        return cls(config, np.zeros(n), np.zeros(n), np.zeros(n), CostAccumulator(n), events)


def _apply_event(fleet: _Fleet, initiators: np.ndarray, step: int) -> None:
    """Handle the event that ``initiators`` fire at the end of grid ``step``.

    Broadcast-only: the initiators' estimates become their true states,
    the consensus point ``c`` is announced, and every agent jumps by
    ``c - xhat``, which lands the initiators exactly on ``c`` and keeps
    everyone else's estimate error.  Broadcast-plus-local: the fleet
    resets exactly to ``c``, which also becomes the deviation snapshot.
    Then every estimate and the last consensus point become ``c``, the
    event is counted, the renewal cycle closes (on every global event, or
    on agent 0's own events under broadcast-only) and the event is logged.
    """
    config = fleet.config
    n, scenario = config.n, config.scenario
    broadcast_only = scenario is InfoScenario.BROADCAST
    x_pre, xhat_pre = fleet.x, fleet.xhat  # replaced below, never mutated
    c = consensus_value(x_pre, fleet.c_prev, initiators, config.rule, scenario)
    if broadcast_only:
        xhat = xhat_pre.copy()
        xhat[initiators] = x_pre[initiators]
        x = x_pre + (c - xhat)
        x[initiators] = c  # the impulse lands initiators exactly on c
    else:
        x = np.full(n, c)
        fleet.snapshot = x.copy()
    fleet.x = x
    fleet.xhat = np.full(n, c)
    fleet.c_prev = c

    acc = fleet.acc
    acc.local_event_counts[initiators] += 1
    acc.global_event_count += 1
    if not broadcast_only or initiators[0] == 0:
        acc.close_cycle(fleet.cycle_reward, (step - fleet.cycle_start) * config.dt)
        fleet.cycle_reward = 0.0
        fleet.cycle_start = step
    if fleet.events is not None:
        fleet.events.append(
            TriggerEvent(
                time=step * config.dt,
                initiators=tuple(int(i) for i in initiators),
                consensus_point=c,
                is_global=not broadcast_only,
                x_pre=x_pre.copy(),
                x_post=x.copy(),
                xhat_pre=xhat_pre.copy(),
                xhat_post=fleet.xhat.copy(),
            )
        )


def _phase_offsets(scheme: TriggerScheme, n: int) -> np.ndarray:
    if isinstance(scheme, PeriodicSync):
        return np.zeros(n)
    return np.asarray(scheme.offsets, dtype=float)


# ---------------------------------------------------------------------------
# fast chunked integrator


def run_trial(config: ScenarioConfig, trial_index: int, noise_scale: float = 1.0) -> TrialResult:
    """Simulate one trial, deterministic in ``(config, trial_index)``.

    ``noise_scale`` is a diagnostic multiplier on the driving noise
    (-1 flips its sign, 0 silences it).
    """
    n = config.n
    dt = config.dt
    steps_total = config.steps
    scheme = config.scheme
    broadcast_only = config.scenario is InfoScenario.BROADCAST
    level = isinstance(scheme, (LevelBroadcast, LevelGlobal))
    if level:
        delta = scheme.delta
    else:
        period = scheme.period
        offsets = _phase_offsets(scheme, n)
        fire_counts = np.where(offsets <= EPS_REL * dt, 1, 0).astype(np.int64)
        fire_steps = periodic_fire_step(offsets + fire_counts * period, dt)

    stream = NoiseStream(config.seed, trial_index, noise_scale)
    sqrt_dt = np.sqrt(dt)
    chunk = min(CHUNK_STEPS, max(1, CHUNK_BYTES // (8 * n)))
    fleet = _Fleet.start(config)
    acc = fleet.acc

    trajectory: Optional[List[tuple]] = [] if config.record_trajectory else None
    stride = config.trajectory_stride
    no_center = float("nan")
    if trajectory is not None:
        trajectory.append((0.0, fleet.x.copy(), fleet.xhat.copy(), 0, 0.0 if level else no_center))

    done = 0  # completed steps; fleet.x holds the state at time done*dt
    while done < steps_total:
        span = min(chunk, steps_total - done)
        dw = stream.normals((span, n)) * sqrt_dt
        used = 0  # rows of this chunk already consumed
        while used < span:
            rem = span - used
            x = fleet.x
            ref = fleet.xhat if broadcast_only else fleet.snapshot
            if level:
                look = min(rem, LEVEL_LOOKAHEAD)
                path = x + np.cumsum(dw[used : used + look], axis=0)
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
            cost_vals = consensus_cost_rows(lefts)
            acc.integral_sum += float(cost_vals.sum()) * dt
            acc.elapsed += length * dt
            dev1 = lefts[:, 0] - ref[0]
            fleet.cycle_reward += float((dev1 * dev1).sum()) * dt

            if trajectory is not None:
                # the event row carries the event step, so stride rows stop
                # just short of it
                center = fleet.c_prev if level else no_center
                first_step = done + used + 1
                last = length - 1 if has_event else length
                for k in range((-first_step) % stride, last, stride):
                    step_abs = first_step + k
                    trajectory.append(
                        (step_abs * dt, path[k].copy(), fleet.xhat.copy(), 0, center)
                    )

            fleet.x = path[length - 1]
            step_now = done + used + length

            if has_event:
                _apply_event(fleet, initiators, step_now)
                if not level:
                    fire_counts[initiators] += 1
                    fire_steps[initiators] = periodic_fire_step(
                        offsets[initiators] + fire_counts[initiators] * period, dt
                    )
                if trajectory is not None:
                    center = fleet.c_prev if level else no_center
                    trajectory.append(
                        (step_now * dt, fleet.x.copy(), fleet.xhat.copy(), 1, center)
                    )
            used += length
        done += span

    return TrialResult(accumulator=acc, events=fleet.events, trajectory=trajectory)


# ---------------------------------------------------------------------------
# plain per-step reference integrator (validation aid)


def run_trial_reference(
    config: ScenarioConfig, trial_index: int, noise_scale: float = 1.0
) -> TrialResult:
    """Per-step integrator that validates ``run_trial``.

    It shares the event protocol and the cost form with the fast path
    but does its own stepping (one draw per agent per step), trigger
    detection and per-step cost summation, so comparing the two checks
    the chunked stepping, the trigger search and the deadline counters.
    Trigger instants come out identical, cost tallies equal up to
    summation order.  Slow (pure Python loop); meant for short horizons.
    Records no trajectory.
    """
    n = config.n
    dt = config.dt
    scheme = config.scheme
    broadcast_only = config.scenario is InfoScenario.BROADCAST
    level = isinstance(scheme, (LevelBroadcast, LevelGlobal))
    stream = NoiseStream(config.seed, trial_index, noise_scale)
    sqrt_dt = np.sqrt(dt)
    fleet = _Fleet.start(config)
    acc = fleet.acc

    for step in range(1, config.steps + 1):
        ref = fleet.xhat if broadcast_only else fleet.snapshot
        acc.integral_sum += float(consensus_cost_rows(fleet.x)) * dt
        acc.elapsed += dt
        dev1 = fleet.x[0] - ref[0]
        fleet.cycle_reward += dev1 * dev1 * dt
        fleet.x = fleet.x + stream.normals(n) * sqrt_dt
        if level:
            initiators = np.flatnonzero(np.abs(fleet.x - ref) >= scheme.delta)
        else:
            initiators = _periodic_due(step * dt, scheme, dt, n)
        if initiators.size:
            _apply_event(fleet, initiators, step)

    return TrialResult(accumulator=acc, events=fleet.events)


def _periodic_due(t: float, scheme: TriggerScheme, dt: float, n: int) -> np.ndarray:
    """Agents with a deadline in the grid step ending at ``t``, stateless.

    A deadline ``tau`` belongs to the first grid time ``>= tau`` (up to a
    relative tolerance); agents with a zero phase do not fire at t = 0,
    because every agent starts as having just triggered.  The fast path
    counts deadlines per agent instead.
    """
    offsets = _phase_offsets(scheme, n)
    eps = EPS_REL * dt
    k = np.floor((t + eps - offsets) / scheme.period).astype(int)
    k_min = np.where(offsets <= eps, 1, 0)
    tau = offsets + k * scheme.period
    return np.flatnonzero((k >= k_min) & (tau > t - dt + eps))

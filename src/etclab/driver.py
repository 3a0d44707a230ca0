"""Closed-loop trial orchestration: stepping, triggering, impulses, cost.

``run_trial`` integrates one trajectory of the impulsively controlled
fleet on a fixed grid.  Within each step the order is: advance the
noise, evaluate the trigger condition on the post-drift state, and on a
trigger apply the impulse at the step boundary; the cost integral uses
left-endpoint rectangles, so an impulse never contributes to the step
in which it fires.

The optimal impulses keep every estimate, and the broadcast-plus-local
snapshot, at the last consensus point ``c``, so a trial's state is the
scalar ``c`` plus the error vector ``e = x - c``.  The cost is
``x'Lx = e'Le``, agent 0's renewal reward is ``e_0^2``, a level rule
fires when ``|e_i| >= delta``, and an event zeroes the errors it resets
(the initiators' under broadcast-only, everyone's under
broadcast-plus-local).  Costs and triggers read ``e`` alone, so the
consensus point, the true states ``c + e`` and the estimates ``c`` are
formed only in trials that log events or a trajectory.

The production path takes the noise in chunks sized from a memory
budget, so the noise block stays bounded at any fleet size.  Per chunk
it forms one running sum of the errors and finds the events in it: a
level rule searches bounded windows against each agent's running sum
at its last reset, one flat ``argmax`` per window; periodic schedules
get every deadline of the chunk from one ``periodic_fire_step`` call
over the agents' deadline counters.  Per event what is left is one
subtraction that turns the segment before it into errors, agent 0's
reward over that segment and the event protocol's counts; after the
last event one cost pass covers the chunk's left endpoints.  Only chunk
boundaries move its rounding; the search window does not.  The path
consumes the noise stream in exactly the same order as the plain
per-step loop kept as ``run_trial_reference``, which steps, detects
triggers and sums costs on its own; both hand every event to one
``_apply_event``, and the test suite compares them.  Trials are
embarrassingly parallel: each owns a substream keyed by its index, and
batches merge per-trial results in fixed index order.
"""

import os
import warnings
from dataclasses import dataclass
from functools import partial
from typing import List, Optional

import numpy as np

from .control import Average, ConsensusRule, Fixed, InfoScenario, Leader, consensus_value
from .costs import CostAccumulator, CostReport, finalize, mean_exit_time
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
# in a chunk does not scan the whole remainder
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
        if not isinstance(self.rule, (Average, Leader, Fixed)):
            raise ValueError(
                f"unknown consensus rule of type {type(self.rule).__name__}: "
                "expected Average, Leader or Fixed"
            )
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
                stacklevel=3,  # past the generated __init__, to its caller
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
        return scheme.delta**2 * mean_exit_time(config.n)
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
    """All trials of a batch, in trial-index order.

    ``workers > 1`` fans the trials out over a process pool of at most
    ``workers`` processes, and never more than there are trials or CPUs
    this process may run on: a forking pool starts all of its processes
    at once.
    """
    indices = range(config.trials)
    workers = min(workers, config.trials, _usable_cpus())
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(partial(run_trial, config), indices))
    return [run_trial(config, i) for i in indices]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def run_batch(config: ScenarioConfig, workers: int = 1) -> CostReport:
    """Run every trial and finalize the merged cost report."""
    results = run_trials(config, workers)
    return finalize([r.accumulator for r in results])


# ---------------------------------------------------------------------------
# the event protocol, shared by both integrators


@dataclass
class _Fleet:
    """Closed-loop state of one trial; ``_apply_event`` updates it in place.

    After every event each estimate, and under broadcast-plus-local the
    snapshot the level rule measures against, equals the last consensus
    point ``c_prev``, so the state is ``c_prev`` plus the error vector
    ``e = x - c_prev``: the true states are ``c_prev + e`` and every
    estimate is ``c_prev``.  Costs and triggers read ``e`` alone, so
    ``c_prev`` is tracked only when ``logged``: when the trial records
    events or a trajectory.  ``cycle_reward`` and ``cycle_start``
    describe the open renewal cycle.
    """

    config: ScenarioConfig
    e: np.ndarray
    acc: CostAccumulator
    events: Optional[List[TriggerEvent]]
    logged: bool
    c_prev: float = 0.0
    cycle_reward: float = 0.0
    cycle_start: int = 0

    @classmethod
    def start(cls, config: ScenarioConfig) -> "_Fleet":
        """All agents in consensus at zero; t = 0 counts as a trigger."""
        n = config.n
        events = [] if config.record_events else None
        logged = config.record_events or config.record_trajectory
        return cls(config, np.zeros(n), CostAccumulator(n), events, logged)


def _apply_event(fleet: _Fleet, initiators: np.ndarray, step: int):
    """Handle the event that ``initiators`` fire at the end of grid ``step``.

    Broadcast-only: the initiators' estimates become their true states,
    the consensus point ``c`` is announced, and every agent jumps by
    ``c - xhat``, which lands the initiators exactly on ``c`` and keeps
    everyone else's estimate error.  Broadcast-plus-local: the fleet
    resets exactly to ``c``.  In error coordinates both zero, in place in
    ``fleet.e``, the errors of the agents they reset (the initiators, or
    everyone) and, in a logged trial, make ``c`` the new ``c_prev``.  Then
    the event is counted, the renewal cycle closes (on every global event,
    or on agent 0's own events under broadcast-only) and the event is
    logged with ``x = c + e`` and ``xhat = c``.  Returns the index of the
    reset agents.
    """
    config = fleet.config
    broadcast_only = config.scenario is InfoScenario.BROADCAST
    e = fleet.e
    if fleet.logged:
        c_prev = fleet.c_prev
        x_pre = c_prev + e
        c = consensus_value(x_pre, c_prev, initiators, config.rule, config.scenario)
        fleet.c_prev = c
    reset = initiators if broadcast_only else slice(None)
    e[reset] = 0.0

    acc = fleet.acc
    acc.local_event_counts[initiators] += 1
    acc.global_event_count += 1
    if not broadcast_only or initiators[0] == 0:
        acc.close_cycle(fleet.cycle_reward, (step - fleet.cycle_start) * config.dt)
        fleet.cycle_reward = 0.0
        fleet.cycle_start = step
    if fleet.events is not None:
        n = config.n
        fleet.events.append(
            TriggerEvent(
                time=step * config.dt,
                initiators=tuple(int(i) for i in initiators),
                consensus_point=c,
                is_global=not broadcast_only,
                x_pre=x_pre,
                x_post=c + e,
                xhat_pre=np.full(n, c_prev),
                xhat_post=np.full(n, c),
            )
        )
    return reset


def _phase_offsets(scheme: TriggerScheme, n: int) -> np.ndarray:
    if isinstance(scheme, PeriodicSync):
        return np.zeros(n)
    return np.asarray(scheme.offsets, dtype=float)


# ---------------------------------------------------------------------------
# fast chunked integrator


def _first_crossing(rows: np.ndarray, base: np.ndarray, start: int, delta: float):
    """First row ``k >= start`` with some ``|rows[k] - base| >= delta`` and the
    agents that reach it there, or ``(None, None)``.  The rows are searched in
    ``LEVEL_LOOKAHEAD`` slices, so an early hit stops the search early; the
    first hit of a slice is one flat ``argmax`` over its row-major hit mask."""
    n = rows.shape[1]
    while start < len(rows):
        hit = np.abs(rows[start : start + LEVEL_LOOKAHEAD] - base) >= delta
        k, agent = divmod(int(hit.argmax()), n)
        if hit[k, agent]:
            return start + k, np.flatnonzero(hit[k])
        start += LEVEL_LOOKAHEAD
    return None, None


def _chunk_deadlines(fire_counts, offsets, period, dt, done, span):
    """``(row, initiators)`` of every periodic deadline in the chunk of ``span``
    steps after step ``done``, in time order, initiators ascending.

    ``fire_counts[i]`` numbers agent ``i``'s next deadline
    ``offsets[i] + fire_counts[i] * period``.  One ``periodic_fire_step`` call
    maps an ``(n, m)`` grid of counter values to grid steps, with ``m`` one
    more than a chunk can hold; the counters then advance, in place, past
    every deadline the chunk holds.
    """
    m = int(span * dt / period) + 2
    counts = fire_counts[:, None] + np.arange(m)
    fire_steps = periodic_fire_step(offsets[:, None] + counts * period, dt)
    # each agent's steps increase along its row, so its deadlines in the
    # chunk are a prefix of it
    agents, k = np.nonzero(fire_steps <= done + span)
    fire_counts += np.bincount(agents, minlength=len(fire_counts))
    if not agents.size:
        return []
    rows = fire_steps[agents, k] - done
    order = np.argsort(rows, kind="stable")
    rows, agents = rows[order], agents[order]
    cuts = np.flatnonzero(rows[1:] != rows[:-1]) + 1
    return list(zip(rows[np.r_[0, cuts]].tolist(), np.split(agents, cuts)))


def run_trial(config: ScenarioConfig, trial_index: int, noise_scale: float = 1.0) -> TrialResult:
    """Simulate one trial, deterministic in ``(config, trial_index)``.

    ``noise_scale`` is a diagnostic multiplier on the driving noise
    (-1 flips its sign, 0 silences it).
    """
    n = config.n
    dt = config.dt
    steps_total = config.steps
    scheme = config.scheme
    level = isinstance(scheme, (LevelBroadcast, LevelGlobal))
    if level:
        delta = scheme.delta
    else:
        period = scheme.period
        offsets = _phase_offsets(scheme, n)
        # every agent starts as having just fired, so a zero phase's first
        # deadline is one period in
        fire_counts = np.where(offsets <= EPS_REL * dt, 1, 0).astype(np.int64)

    stream = NoiseStream(config.seed, trial_index, noise_scale)
    sqrt_dt = np.sqrt(dt)
    chunk = min(CHUNK_STEPS, max(1, CHUNK_BYTES // (8 * n)))
    fleet = _Fleet.start(config)
    acc = fleet.acc

    trajectory: Optional[List[tuple]] = [] if config.record_trajectory else None
    stride = config.trajectory_stride
    no_center = float("nan")

    def log_state(step, e, flag):
        c = fleet.c_prev
        trajectory.append((step * dt, c + e, np.full(n, c), flag, c if level else no_center))

    if trajectory is not None:
        log_state(0, fleet.e, 0)

    done = 0  # completed steps; fleet.e holds the errors at time done*dt
    while done < steps_total:
        span = min(chunk, steps_total - done)
        # rows[k] follows the errors to the end of step done + k without
        # resets: row 0 holds the current errors, each later row adds a step
        rows = np.empty((span + 1, n))
        rows[0] = fleet.e
        np.multiply(stream.normals((span, n)), sqrt_dt, out=rows[1:])
        np.cumsum(rows, axis=0, out=rows)
        # the rows from ``seg`` on, minus ``base`` (each agent's running sum
        # at its last reset), are the errors; rows before ``seg`` already are
        base = np.zeros(n)
        seg = 1
        if not level:
            deadlines = iter(_chunk_deadlines(fire_counts, offsets, period, dt, done, span))
        while True:
            if level:
                row, initiators = _first_crossing(rows, base, seg, delta)
            else:
                row, initiators = next(deadlines, (None, None))
            # turn the rows up to the event, or to the chunk's end, into errors
            end = span if row is None else row
            running = rows[end].copy()
            rows[seg : end + 1] -= base
            # agent 0's renewal reward over the left endpoints of steps
            # done + seg .. done + end
            dev0 = rows[seg - 1 : end, 0]
            fleet.cycle_reward += float(dev0 @ dev0) * dt
            if trajectory is not None:
                # an event row takes the place of its step's stride row
                stop = end + 1 if row is None else end
                for k in range(seg + (-(done + seg)) % stride, stop, stride):
                    log_state(done + k, rows[k], 0)
            if row is None:
                break
            fleet.e = rows[row]
            reset = _apply_event(fleet, initiators, done + row)
            base[reset] = running[reset]
            if trajectory is not None:
                log_state(done + row, rows[row], 1)
            seg = row + 1

        # left-endpoint rectangles: x'Lx = e'Le, since L annihilates c*1
        acc.integral_sum += float(consensus_cost_rows(rows[:-1]).sum()) * dt
        acc.elapsed += span * dt
        fleet.e = rows[span].copy()
        done += span

    return TrialResult(accumulator=acc, events=fleet.events, trajectory=trajectory)


# ---------------------------------------------------------------------------
# plain per-step reference integrator (validation aid)


def run_trial_reference(
    config: ScenarioConfig, trial_index: int, noise_scale: float = 1.0
) -> TrialResult:
    """Per-step integrator that validates ``run_trial``.

    It shares the event protocol, the error coordinates and the cost form
    with the fast path but does its own stepping (one draw per agent per
    step), trigger detection and per-step cost summation, so comparing
    the two checks the chunked running sums and their resets, the trigger
    search and the deadline counters.  Trigger instants come out
    identical, cost tallies equal up to summation order.  Slow (pure
    Python loop); meant for short horizons.  Records no trajectory.
    """
    n = config.n
    dt = config.dt
    scheme = config.scheme
    level = isinstance(scheme, (LevelBroadcast, LevelGlobal))
    stream = NoiseStream(config.seed, trial_index, noise_scale)
    sqrt_dt = np.sqrt(dt)
    fleet = _Fleet.start(config)
    acc = fleet.acc

    for step in range(1, config.steps + 1):
        e = fleet.e
        acc.integral_sum += float(consensus_cost_rows(e)) * dt
        acc.elapsed += dt
        fleet.cycle_reward += e[0] * e[0] * dt
        fleet.e = e + stream.normals(n) * sqrt_dt
        if level:
            initiators = np.flatnonzero(np.abs(fleet.e) >= scheme.delta)
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

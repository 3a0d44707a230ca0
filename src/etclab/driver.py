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
budget, drawn straight into one chunk buffer that the whole trial
reuses, so memory stays bounded at any fleet size.  Per chunk the
buffer becomes one running sum of the errors.  That is one serial chain
of dependent adds per agent, so an even fleet forms it two agents per
add: viewed as complex numbers, its chunk pairs neighbouring agents, and
a complex addition adds real and imaginary parts separately, so every
agent gets exactly the float64 additions of ``np.cumsum``.  An odd fleet
keeps ``np.cumsum``.  The chunk then runs in two phases.  First its
events are found on the raw running sums: a level rule searches bounded
windows against each agent's running sum at its last reset, one flat
``argmax`` per window; periodic schedules get every deadline of the
chunk from one ``periodic_fire_step`` call over the deadline counters
(one counter for a synchronous schedule), or one call per slice of
phases when short periods of many phases would make that grid outgrow a
fixed share of the chunk budget.  Then ``_settle``, the one event
protocol, settles them in order: one subtraction per segment between
events turns the running sums into errors, agent 0's reward adds up per
segment and the events are counted at once.  One cost pass covers the
chunk's left endpoints.  Only chunk boundaries move its rounding; the
search window and the pairing of agents do not.  The path consumes the
noise stream in exactly the same order as the plain per-step loop kept
as ``run_trial_reference``, which steps, detects triggers and sums
costs on its own and hands ``_settle`` one event at a time; the test
suite compares the two.  Trials are embarrassingly parallel: each owns
a substream keyed by its index, and batches merge per-trial results in
fixed index order.
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
    CHUNK_BYTES,
    EPS_REL,
    LevelBroadcast,
    LevelGlobal,
    PeriodicAsync,
    PeriodicSync,
    TriggerEvent,
    TriggerScheme,
    check_positive,
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
# the noise block of a chunk holds at most CHUNK_BYTES (8 per draw), so
# fleets beyond CHUNK_BYTES / (8 * CHUNK_STEPS) = 512 agents get fewer rows
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
        check_positive("dt", self.dt)
        check_positive("horizon", self.horizon)
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
        if self.horizon < 100 * expected:
            warnings.warn(
                f"horizon {self.horizon} s is under 100 expected inter-event times "
                f"(~{expected:.3g} s each); estimates will be noisy",
                stacklevel=3,  # past the generated __init__, to its caller
            )

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))


def _expected_interevent(config: "ScenarioConfig") -> float:
    """Mean inter-event time, per agent under the broadcast level rule; a
    level rule waits for the first of ``W = 1`` (broadcast) or ``n`` agents."""
    scheme = config.scheme
    if isinstance(scheme, (PeriodicSync, PeriodicAsync)):
        return scheme.period
    width = config.n if isinstance(scheme, LevelGlobal) else 1
    return scheme.delta**2 * mean_exit_time(width)


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
    """Closed-loop state of one trial; ``_settle`` updates it in place.

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
    trajectory: Optional[List[tuple]]
    logged: bool
    c_prev: float = 0.0
    cycle_reward: float = 0.0
    cycle_start: int = 0

    @classmethod
    def start(cls, config: ScenarioConfig, trajectory: bool = False) -> "_Fleet":
        """All agents in consensus at zero; t = 0 counts as a trigger.  The
        trajectory is recorded when ``trajectory`` is set."""
        n = config.n
        events = [] if config.record_events else None
        log = [] if trajectory else None
        logged = config.record_events or trajectory
        return cls(config, np.zeros(n), CostAccumulator(n), events, log, logged)

    def log_state(self, step: int, e: np.ndarray, flag: int) -> None:
        """Trajectory row ``(t, x, xhat, flag, threshold center)`` at ``step``."""
        c = self.c_prev
        level = isinstance(self.config.scheme, (LevelBroadcast, LevelGlobal))
        self.trajectory.append((step * self.config.dt, c + e, np.full(e.size, c), flag,
                                c if level else float("nan")))

    def log_event(self, e_pre: np.ndarray, mask: np.ndarray, step: int) -> None:
        """Form the consensus point of the event that the agents in ``mask``
        fire at the errors ``e_pre``, make it ``c_prev`` and log the event."""
        config = self.config
        broadcast_only = config.scenario is InfoScenario.BROADCAST
        initiators = np.flatnonzero(mask)
        c_prev = self.c_prev
        x_pre = c_prev + e_pre
        c = consensus_value(x_pre, c_prev, initiators, config.rule, config.scenario)
        self.c_prev = c
        if self.events is not None:
            e_post = np.where(mask if broadcast_only else True, 0.0, e_pre)
            self.events.append(
                TriggerEvent(
                    time=step * config.dt,
                    initiators=tuple(initiators.tolist()),
                    consensus_point=c,
                    is_global=not broadcast_only,
                    x_pre=x_pre,
                    x_post=c + e_post,
                    xhat_pre=np.full(config.n, c_prev),
                    xhat_post=np.full(config.n, c),
                )
            )


def _settle(fleet: _Fleet, rows: np.ndarray, stops: List[int], masks, done: int) -> None:
    """Settle, in event order, the events of a block of running sums.

    ``rows[k]`` is the state at the end of step ``done + k`` as a running
    sum from row 0, which holds the errors, with no reset applied; the
    event at row ``stops[j]`` (ascending) has the initiators ``masks[j]``,
    a boolean row per event.

    Broadcast-only: the initiators' estimates become their true states,
    the consensus point ``c`` is announced, and every agent jumps by
    ``c - xhat``, which lands the initiators exactly on ``c`` and keeps
    everyone else's estimate error.  Broadcast-plus-local: the fleet
    resets exactly to ``c``.  In error coordinates both zero the errors of
    the agents they reset (the initiators, or everyone), so the rows from
    one event up to the next are errors once each agent's running sum at
    its last reset is subtracted: one subtraction per segment, in place,
    which also zeroes the reset errors at the event row.  Per segment
    agent 0's renewal reward adds up over its left endpoints (the last
    row's step belongs to the next block); per event the renewal cycle
    closes (on every global event, or on agent 0's own events under
    broadcast-only).  The events are counted at once.  A logged trial
    forms each event's consensus point from ``x = c_prev + e`` and logs
    the event, and the trajectory rows, in order.
    """
    config = fleet.config
    dt = config.dt
    broadcast_only = config.scenario is InfoScenario.BROADCAST
    acc = fleet.acc
    count = len(stops)
    if count:
        masks = np.asarray(masks)
        acc.local_event_counts += masks.sum(axis=0)
        acc.global_event_count += count
        closes = masks[:, 0].tolist() if broadcast_only else [True] * count
    trajectory = fleet.trajectory
    stride = config.trajectory_stride
    span = len(rows) - 1
    base = np.zeros(config.n)  # each agent's running sum at its last reset
    start = 0
    for k, stop in enumerate([*stops, span + 1]):
        if k:
            rows[start:stop] -= base
        dev0 = rows[start : min(stop, span), 0]
        fleet.cycle_reward += float(dev0 @ dev0) * dt
        if trajectory is not None:
            if k:
                fleet.log_state(done + start, rows[start], 1)
            # an event row takes the place of its step's stride row
            for j in range(start + 1 + (-(done + start + 1)) % stride, stop, stride):
                fleet.log_state(done + j, rows[j], 0)
        if k == count:
            return
        step = done + stop
        mask = masks[k]
        if fleet.logged:
            fleet.log_event(rows[stop] - base, mask, step)
        np.copyto(base, rows[stop], where=mask if broadcast_only else True)
        if closes[k]:
            acc.close_cycle(fleet.cycle_reward, (step - fleet.cycle_start) * dt)
            fleet.cycle_reward = 0.0
            fleet.cycle_start = step
        start = stop


def _phase_offsets(scheme: TriggerScheme, n: int) -> np.ndarray:
    if isinstance(scheme, PeriodicSync):
        return np.zeros(n)
    return np.asarray(scheme.offsets, dtype=float)


# ---------------------------------------------------------------------------
# fast chunked integrator


def _running_sum(rows: np.ndarray) -> None:
    """Turn the C-contiguous block ``rows`` into its running sum down the
    rows, in place, bit for bit as ``np.cumsum(rows, axis=0)``.  An even
    number of agents is summed as complex pairs of neighbouring agents, so
    each dependent add advances two of them."""
    if rows.shape[1] % 2:
        np.cumsum(rows, axis=0, out=rows)
    else:
        pairs = rows.view(np.complex128)
        np.cumsum(pairs, axis=0, out=pairs)


def _level_events(rows: np.ndarray, delta: float, local: bool):
    """``(stops, masks)`` of the level rule's events in a block of running
    sums: the rows where some ``|rows[k] - base| >= delta``, ascending, and
    per row the agents that reach it there.  ``base`` holds each agent's
    running sum at its last reset: after an event, the whole event row
    under broadcast-plus-local, the initiators' entries of it under
    broadcast-only.  The rows are searched in ``LEVEL_LOOKAHEAD`` slices,
    so an early hit stops a search early; the first hit of a slice is one
    flat ``argmax`` over its row-major hit mask.
    """
    n = rows.shape[1]
    stops, masks = [], []
    base = np.zeros(n)
    start = 1
    while start < len(rows):
        hit = np.abs(rows[start : start + LEVEL_LOOKAHEAD] - base) >= delta
        k, agent = divmod(int(hit.argmax()), n)
        if not hit[k, agent]:
            start += LEVEL_LOOKAHEAD
            continue
        start += k
        mask = hit[k].copy()  # not a view, which would keep the whole slice alive
        stops.append(start)
        masks.append(mask)
        if local:
            base = rows[start]
        else:
            np.copyto(base, rows[start], where=mask)
        start += 1
    return stops, masks


def _chunk_deadlines(fire_counts, offsets, period, dt, done, span):
    """``(stops, masks)`` of every periodic deadline in the chunk of ``span``
    steps after step ``done``: the rows that hold deadlines, ascending, and
    per row a boolean mask of the phases due there.

    ``fire_counts[i]`` numbers phase ``i``'s next deadline
    ``offsets[i] + fire_counts[i] * period``.  Each ``periodic_fire_step``
    call maps a ``(phases, m)`` grid of counter values to grid steps, with
    ``m`` one more than a chunk can hold; the counters then advance, in
    place, past every deadline the chunk holds.  A grid takes as many
    phases as fit in ``CHUNK_BYTES / 64`` entries, at least one, so short
    periods of many phases are looked up in slices of phases.
    """
    phases = len(fire_counts)
    m = int(span * dt / period) + 2
    width = max(1, CHUNK_BYTES // (64 * m))
    due = np.zeros((span + 2, phases), dtype=bool)
    for lo in range(0, phases, width):
        part = slice(lo, lo + width)
        counts = fire_counts[part, None] + np.arange(m)
        at = periodic_fire_step(offsets[part, None] + counts * period, dt)
        at -= done  # chunk rows
        # each phase's rows increase along its grid row, so its deadlines in
        # the chunk are a prefix of it; later ones go to a sink row past the
        # chunk
        np.minimum(at, span + 1, out=at)
        fire_counts[part] += (at <= span).sum(axis=1)
        due[at, np.arange(lo, lo + len(at))[:, None]] = True
    stops = np.flatnonzero(due[: span + 1].any(axis=1))
    return stops.tolist(), due[stops]


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
        local = config.scenario is InfoScenario.BROADCAST_LOCAL
    else:
        # a synchronous schedule has one phase, which every agent shares
        offsets = _phase_offsets(scheme, 1)
        # every agent starts as having just fired, so a zero phase's first
        # deadline is one period in
        fire_counts = np.where(offsets <= EPS_REL * dt, 1, 0).astype(np.int64)

    stream = NoiseStream(config.seed, trial_index, noise_scale)
    sqrt_dt = np.sqrt(dt)
    chunk = min(CHUNK_STEPS, max(1, CHUNK_BYTES // (8 * n)))
    fleet = _Fleet.start(config, trajectory=config.record_trajectory)
    acc = fleet.acc
    if fleet.trajectory is not None:
        fleet.log_state(0, fleet.e, 0)

    # rows[k] follows the errors to the end of step done + k without resets:
    # row 0 holds the current errors, each later row adds a step
    buffer = np.empty((chunk + 1, n))
    done = 0  # completed steps; fleet.e holds the errors at time done*dt
    while done < steps_total:
        span = min(chunk, steps_total - done)
        rows = buffer[: span + 1]
        rows[0] = fleet.e
        noise = stream.normals((span, n), out=rows[1:])
        noise *= sqrt_dt
        _running_sum(rows)
        if level:
            stops, masks = _level_events(rows, scheme.delta, local)
        else:
            stops, masks = _chunk_deadlines(fire_counts, offsets, scheme.period, dt, done, span)
            masks = np.broadcast_to(masks, (len(stops), n))
        _settle(fleet, rows, stops, masks, done)
        # left-endpoint rectangles: x'Lx = e'Le, since L annihilates c*1
        acc.integral_sum += float(consensus_cost_rows(rows[:-1]).sum()) * dt
        acc.elapsed += span * dt
        fleet.e = rows[span]
        done += span

    return TrialResult(accumulator=acc, events=fleet.events, trajectory=fleet.trajectory)


# ---------------------------------------------------------------------------
# plain per-step reference integrator (validation aid)


def run_trial_reference(
    config: ScenarioConfig, trial_index: int, noise_scale: float = 1.0
) -> TrialResult:
    """Per-step integrator that validates ``run_trial``.

    It shares the event protocol, the error coordinates and the cost form
    with the fast path but does its own stepping (one draw per agent per
    step), trigger detection and per-step cost and reward summation, and
    hands ``_settle`` one event at a time, a block of the one row it fires
    at; so comparing the two checks the chunked running sums and their
    resets, the trigger search and the deadline counters.  Trigger
    instants come out identical, cost tallies equal up to summation order.
    Slow (pure Python loop); meant for short horizons.  Records no
    trajectory.
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
            fired = np.abs(fleet.e) >= scheme.delta
        else:
            fired = np.zeros(n, dtype=bool)
            fired[_periodic_due(step * dt, scheme, dt, n)] = True
        if fired.any():
            # the errors are the running sum of a one-row block: the row
            # settles in place
            _settle(fleet, fleet.e[None], [0], fired[None], step)

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

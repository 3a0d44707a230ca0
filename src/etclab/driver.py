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
``x'Lx = e'Le``, agent 0's renewal reward is ``e_0^2``, the level rule
fires when ``|e_i| >= delta`` in both scenarios, and an event zeroes the
errors it resets (the initiators' under broadcast-only, everyone's under
broadcast-plus-local).  Costs and triggers read ``e`` alone, so the
consensus point, the true states ``c + e`` and the estimates ``c`` are
formed only in trials that log events or a trajectory.

The production path runs a group of consecutive trials, one alone
included, on rows or on lanes.  On rows (``_row_trials``) the group
takes the noise in chunks of rows sized from a memory budget, each trial
drawing its block from its own stream into one buffer that the group
reuses, so memory stays bounded at any fleet size.  Per chunk each block
becomes one running sum of the errors (``_running_sum``, which adds two
agents at once as complex pairs, with ``np.cumsum``'s bits).  The chunk's
events are found on the raw running sums: periodic schedules look up
every deadline of the chunk at once, for every trial (``_chunk_deadlines``),
and a level rule searches each agent's rows against its running sum at
its last reset (``_column_events``).  An unlogged group whose events
reset at their rows settles its blocks in one pass (``_zero_fill`` or
``_subtract_bases``); otherwise ``_settle``, the one event protocol,
settles them in order, one subtraction per segment between events.  ``_settle`` adds up agent 0's
reward per segment and counts the events either way, and one cost pass
covers the chunk's left endpoints.  Only chunk boundaries move its
rounding.  With every row one grid step, the path consumes the noise
stream in exactly the same order as the plain per-step loop kept as
``run_trial_reference``, which steps, detects triggers and sums costs on
its own and hands ``_settle`` one event at a time; the test suite
compares the two.  The reference alone records trajectories, which
``etclab trajectory`` plots.

A periodic schedule has no band to watch, so its deadlines are known
before any noise is drawn, and only the cost needs every grid point.  So
under a periodic rule a chunk's rows end at its deadlines, of any phase,
and the trial's last chunk, or one whose lookup of deadlines holds none,
has one more row to its end, with one draw per agent per row.  Given a
row's ends its grid points form a discrete Brownian bridge, and the cost
over them, and agent 0's reward, are taken as their exact conditional
expectations (``_bridge_sums``): conditional Monte Carlo, with the grid
fleet's mean and no larger a variance.  Event times, counts, cycle
lengths and the elapsed time stay in grid steps, so they are the grid
fleet's, bit for bit; on rows of one grid step (``fleet_coarse_steps`` of
1) the whole trial is.

A broadcast-only level rule on a wide enough band (``fleet_coarse_steps``)
takes coarse steps too, with one draw per agent per step, and draws the
grid points between an agent's coarse points only where the grid-only
first-exit sampler would: where an end lies beyond ``far = delta -
sqrt(20 k dt)`` of the agent's base (``triggering.coarse_far`` without
``crossing``; any other entry reaches the band with probability below
``2 exp(-40)``).  The fleet monitors the grid alone, so it needs no
margin for the bridge-corrected sampler's crossing law, with which
fleet-large's level ops drew 1.46x as many entries under broadcast-only
information and 2.1x as many under broadcast-plus-local
(``BENCH_31.json``).  The search runs in rounds, per chunk, over every
agent of the group at once, each read from its own last reset
(``_coarse_level_events``).  An event inside a row leaves it coarse: its
initiators reset at the points the search drew (``_event_rows``).  The
cost and agent 0's reward take the drawn points as they are, and the
bridge law for the rest, per row in one place for chunks and lanes alike
(``_row_sums``).  A logged trial draws the other agents' points at an
event on a stream of its own (``_event_points``), so its tallies are the
unlogged trial's.

Under broadcast-plus-local information every event resets the whole
fleet to the consensus point, so a level trial is a string of i.i.d.
renewal cycles, each ``n`` walks from 0 up to their first grid exit from
the band: the regenerative method (Asmussen & Glynn, *Stochastic
Simulation*, 2007, ch. IV).  Such a trial runs as lanes (``_lane_cycles``,
``_runs_lanes``), on coarse rows when the band is wide enough for a fleet
large enough (``fleet_coarse_steps``) and on rows of one grid step
otherwise: a block of cycles, one per lane, advances in lockstep
by rounds of rows, coarse ones with the same coarse-to-fine draws, so one
round serves every live cycle, not one event; exited lanes drop out, and a
lane that would start past the horizon stops.  A block holds the cycles
of a group of consecutive trials, as many as the config alone sets
(``_lane_shape``): each round draws each trial's lanes, and their grid
points, from the trial's own stream, and the search and the cost form
run once over the group, so a trial's results are the same alone
(``run_trial``), in any group and in any process.  The cycles hand their
tallies to their trial's fleet in cycle order through ``_Fleet.tally``,
as ``_settle`` does.  The cycle that crosses the horizon counts its own
path's grid points before it, whose number depends only on the cycles
before it, so it is not length-biased.  Coarse rows and lanes, of grid steps
too, are exact in law, not pathwise: their gates are the whole-law test
of their exit steps and the grid level law's cost
(``costs.grid_level_law``).

Broadcast-only level trials on a narrower band keep one row per grid
step.  Each agent triggers on its own error and an event resets the
initiators alone, so each agent of each trial, a column, is a walk of its
own, reset at the band, and one search finds the events of every column
of a group.  Trials are embarrassingly parallel: each owns a substream
keyed by its index, a batch runs them in groups of consecutive indices,
on rows or as lanes, and merges per-trial results in fixed index order;
a trial's results are the same alone (``run_trial``), in any group and in
any process.
"""

import os
import warnings
from dataclasses import dataclass
from functools import partial
from typing import List, Optional

import numpy as np

from .checks import check_count, check_positive
from .control import Average, ConsensusRule, Fixed, InfoScenario, Leader, consensus_value
from .costs import GRID_EXIT_SHIFT, CostAccumulator, CostReport, finalize, mean_exit_time
from .graph import consensus_cost_rows
from .sde import NoiseStream
from .triggering import (
    CHUNK_BYTES,
    EPS_REL,
    MAX_COARSE_STEPS,
    Level,
    Periodic,
    TriggerEvent,
    TriggerScheme,
    bridge_levels,
    bridge_point,
    coarse_far,
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

# the noise block of a chunk holds at most CHUNK_BYTES (8 per draw), so
# fleets beyond CHUNK_BYTES / (8 * CHUNK_STEPS) = 512 agents get fewer rows
CHUNK_STEPS = 2048
# a round of a level search covers about this many expected gaps between an
# agent's events
WINDOW_GAPS = 2.0
# a window of the coarse level search reads at least this many entries over
# its columns (_coarse_crossings)
SCAN_ENTRIES = 4096
# bytes a group of trials on rows holds per entry (row x agent) of its chunk
# (_chunk_bytes): on grid rows of a level rule the running sums, the NaN rows
# after them, the bases that settle them, and the search's hit masks and
# gathered rows (tracemalloc peaks read 15 to 32 from n = 3 to 1024); on
# deadline rows the running sums and increments; on coarse level rows also
# each entry's slot in the bridge store and the drawn grid points, and
# EVENT_BYTES per point of each event's fleet (_event_points).  Rows that
# form coarse cost terms (_row_terms) hold TERM_BYTES more per row
ROW_BYTES = 32
DEADLINE_BYTES = 16
COARSE_BYTES = 38
EVENT_BYTES = 46
TERM_BYTES = 128
# lanes of broadcast-plus-local level cycles (_lane_cycles, _lane_shape): a
# trial's block holds the expected cycles of the horizon left plus
# LANE_SPARE, a group of trials shares rounds of about LANE_ENTRIES entries
# (rows x lanes x agents) and at least 1 / LANE_ROUNDS of a cycle's expected
# coarse rows, or on grid steps 1 / LANE_GROWTH of its grid steps, growing
# to 1 / LANE_GROWTH of the steps a block has run (rounds held at the first
# width took 1.10-1.13x as long, BENCH_28.json lane_widening); fleets of at
# least LANE_AGENTS agents take lanes of coarse rows on a wide enough band
# (fleet_coarse_steps), and every other such trial lanes of grid steps
# (_runs_lanes)
LANE_SPARE = 2
LANE_ENTRIES = 1 << 17
LANE_ROUNDS = 5
LANE_GROWTH = 8
LANE_AGENTS = 20


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one experiment.

    ``scenario`` alone decides what an event resets and how many agents a
    level rule watches.  Phase offsets of a periodic rule, one per agent,
    need broadcast-only information: under broadcast-plus-local every
    event resets the whole fleet.
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

    def __post_init__(self):
        check_count("agent count", self.n)
        check_positive("dt", self.dt)
        check_positive("horizon", self.horizon)
        if self.horizon < self.dt:
            raise ValueError("horizon must cover at least one step")
        check_count("trials", self.trials)
        check_count("seed", self.seed, 0)
        # the trial code branches on these types, so an unknown one would run as a different case
        for name, value, known in (("consensus rule", self.rule, (Average, Leader, Fixed)),
                                   ("scenario", self.scenario, (InfoScenario,)),
                                   ("trigger scheme", self.scheme, (Level, Periodic))):
            if not isinstance(value, known):
                expected = " or ".join(t.__name__ for t in known)
                raise ValueError(f"unknown {name} of type {type(value).__name__}: "
                                 f"expected {expected}")
        scheme = self.scheme
        if isinstance(scheme, Periodic):
            if scheme.offsets and self.scenario is not InfoScenario.BROADCAST:
                raise ValueError("phase offsets require the broadcast-only scenario")
            if len(scheme.offsets) not in (0, self.n):
                raise ValueError(
                    f"schedule has {len(scheme.offsets)} offsets for {self.n} agents"
                )
            if scheme.period < self.dt:
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


def fleet_coarse_steps(config: ScenarioConfig) -> int:
    """The grid steps one row of ``config``'s trials covers.

    A periodic rule's deadlines are known before any noise is drawn, so its
    rows run from one deadline to the next: the value is the period in grid
    steps (``triggering.periodic_fire_step`` of it), and a gap that rounding
    lengthens by a grid step is a row one step longer.  A level rule's rows
    are coarse when its band is wide enough for them to pay, measured by
    ``far = delta - sqrt(20 dt) - sqrt(20 k dt)`` of the row's ``k`` grid
    steps (``triggering.coarse_far`` with ``crossing``).  That is the
    yardstick the edges below were measured with, not the fleet's draw
    test: the fleet draws a coarse step's grid points only beyond ``delta -
    sqrt(20 k dt)``, which lies ``sqrt(20 dt)`` nearer the band (0.2 at
    ``dt = 2e-3``), and the edges were kept when the draw test moved there.
    Under broadcast-only information rows are ``2 *
    MAX_COARSE_STEPS`` (16) grid steps long when ``far`` of 16 steps is at
    least three quarters of the threshold, which at ``dt = 2e-3`` means
    ``delta >= 4.0``, else ``MAX_COARSE_STEPS`` (8) when ``far`` of 8
    steps is, which means ``delta >= 3.06``, and grid steps otherwise: on
    narrower bands the search's work per event outweighs the draws that
    longer rows save (``BENCH_17.json``: ``table1``'s n = 10 cell of
    threshold 2.24 ran 1.03x slower on 8-step rows, its n = 50 cell of
    threshold 5 1.56x faster; ``BENCH_27.json``: at n = 50 16-step rows
    ran 0.62x to 0.76x the time of 8-step ones from threshold 4, but
    0.94x to 1.02x at threshold 3.5, and 32- and 64-step rows gained no
    more).  Under
    broadcast-plus-local information such a trial runs as lanes of renewal
    cycles (``_lane_cycles``), of coarse rows when the fleet has at least
    ``LANE_AGENTS`` agents and ``far`` is at least 0.45 of the threshold,
    which at ``dt = 2e-3`` means ``delta >= 1.393``: a round's work per lane
    outweighs the draws saved in smaller fleets, and on narrower bands nearly
    every coarse step is drawn whole.  Measured per cell when each trial ran
    lane blocks of its own (``BENCH_21.json``, 8 trials of 25 s), lanes ran
    0.26x to 0.90x the time of grid rows from n = 32 at thresholds 1.45 to 5, and
    0.58x to 0.84x at n = 20 from threshold 1.9 (1.13x at 1.45, 0.89x with
    100 s horizons); at n = 3 and 10, and at threshold 0.9 for every n, they
    ran 1.02x to 2.8x slower.  Lane blocks now span a group of trials
    (``_lane_shape``; ``BENCH_26.json``), which these bounds were not
    measured with.  Both rules depend on ``(n, delta, dt)`` alone.  A
    value of 1 does not say that a trial runs no lanes: every
    broadcast-plus-local level trial runs as lanes, of grid steps where the
    value is 1 (``_runs_lanes``).
    """
    scheme = config.scheme
    if isinstance(scheme, Periodic):
        return int(periodic_fire_step(np.float64(scheme.period), config.dt))
    if config.scenario is InfoScenario.BROADCAST_LOCAL:
        far = coarse_far(scheme.delta, config.dt, MAX_COARSE_STEPS, crossing=True)
        lanes = config.n >= LANE_AGENTS and far >= 0.45 * scheme.delta
        return MAX_COARSE_STEPS if lanes else 1
    for k in (2 * MAX_COARSE_STEPS, MAX_COARSE_STEPS):
        if coarse_far(scheme.delta, config.dt, k, crossing=True) >= 0.75 * scheme.delta:
            return k
    return 1


def _expected_interevent(config: "ScenarioConfig") -> float:
    """Mean inter-event time, per agent under broadcast-only information; a
    level rule waits for the first of ``W = 1`` (broadcast-only) or ``n``
    (broadcast-plus-local) agents."""
    scheme = config.scheme
    if isinstance(scheme, Periodic):
        return scheme.period
    width = 1 if config.scenario is InfoScenario.BROADCAST else config.n
    return scheme.delta**2 * mean_exit_time(width)


@dataclass
class TrialResult:
    """Outcome of one trial: tallies plus optional event/trajectory logs.

    Only ``run_trial_reference`` records a trajectory.  Its rows are ``(t,
    x, xhat, event_flag, threshold_center)``; event rows carry the
    post-jump state and flag 1, stride rows the current state and flag 0.
    The threshold center is the last consensus point for level schemes and
    NaN for periodic ones.
    """

    accumulator: CostAccumulator
    events: Optional[List[TriggerEvent]] = None
    trajectory: Optional[List[tuple]] = None


def run_trials(config: ScenarioConfig, workers: int = 1) -> List[TrialResult]:
    """All trials of a batch, in trial-index order.

    The trials run in groups of consecutive indices, each trial drawing
    from its own stream, so a trial's result is ``run_trial``'s, bit for
    bit.  A config that runs as lanes of renewal cycles (``_runs_lanes``)
    groups as many trials as ``_lane_shape`` sets from the config alone,
    and each group shares its lane blocks (``_lane_cycles``).  Every other
    config runs on rows, and groups as many trials as the chunk budget
    allows, but no more than give each worker a group (``_row_group``);
    each group shares its chunk loop (``_row_trials``).  ``workers``, a
    positive integer, is checked at once; ``workers > 1`` fans the groups
    out over a process pool of at most ``workers`` processes, and never
    more than there are groups or CPUs this process may run on: a forking
    pool starts all of its processes at once.
    """
    check_count("workers", workers)
    workers = min(workers, _usable_cpus())
    size = _lane_shape(config)[0] if _runs_lanes(config) else _row_group(config, workers)
    groups = [range(i, min(i + size, config.trials)) for i in range(0, config.trials, size)]
    workers = min(workers, len(groups))
    run = partial(_run_group, config)
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, groups))
    else:
        parts = map(run, groups)
    return [result for part in parts for result in part]


def _run_group(config: ScenarioConfig, indices, noise_scale: float = 1.0) -> List[TrialResult]:
    run = _lane_cycles if _runs_lanes(config) else _row_trials
    return run(config, indices, noise_scale)


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

    def tally(self, steps: List[int], masks, rewards: List[float]) -> None:
        """Count the events at the grid steps ``steps``, ascending, each
        fired by the agents in its row of the boolean array ``masks``, and
        add agent 0's rewards to the renewal cycles: ``rewards[j]`` (times
        ``dt``) ends at ``steps[j]``, where the open cycle closes on every
        global event, or on agent 0's own events under broadcast-only; a
        reward past the last step stays in the open cycle.  The one tally
        of the event protocol, for ``_settle`` and the lanes alike."""
        acc = self.acc
        dt = self.config.dt
        count = len(steps)
        if count:
            acc.local_event_counts += masks.sum(axis=0)
            acc.global_event_count += count
            if self.config.scenario is InfoScenario.BROADCAST:
                closes = masks[:, 0].tolist()
            else:
                closes = [True] * count
        for j, reward in enumerate(rewards):
            self.cycle_reward += reward * dt
            if j < count and closes[j]:
                step = steps[j]
                acc.close_cycle(self.cycle_reward, (step - self.cycle_start) * dt)
                self.cycle_reward = 0.0
                self.cycle_start = step

    def log_state(self, step: int, e: np.ndarray, flag: int) -> None:
        """Trajectory row ``(t, x, xhat, flag, threshold center)`` at ``step``."""
        c = self.c_prev
        level = isinstance(self.config.scheme, Level)
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


def _settle(fleet: _Fleet, rows: np.ndarray, stops: List[int], masks, done: int,
            coarse_rows: Optional["_CoarseRows"] = None, settled: bool = False) -> None:
    """Settle, in event order, the events of a block of running sums.

    ``rows[k]`` is the state at the end of row ``k`` of the block, which
    ends ``k`` grid steps after step ``done`` (``coarse_rows.ends[k]`` of
    them when the rows are coarse steps), as a running sum from row 0,
    which holds the errors, with no reset applied; the event at row
    ``stops[j]`` (ascending) has the initiators ``masks[j]``, a boolean
    row per event.  Coarse rows give each event's grid step and may give
    the running sums it resets to in place of ``rows[stop]``
    (``_CoarseRows``): an event inside a coarse row stops at its end.

    Broadcast-only: the initiators' estimates become their true states, the
    consensus point ``c`` is announced, and every agent jumps by ``c -
    xhat``, which lands the initiators exactly on ``c`` and keeps everyone
    else's estimate error.  Broadcast-plus-local: the fleet resets exactly
    to ``c``.  In error coordinates both zero the errors of the agents they
    reset (the initiators, or everyone), so the rows from one event up to
    the next are errors once each agent's running sum at its last reset is
    subtracted: one subtraction per segment, in place, which also zeroes the
    reset errors at the event row (``_reset_segments``).  A logged trial
    forms each event's consensus point from ``x = c_prev + e`` and logs the
    event, in order.  ``settled`` rows hold errors already, with this
    loop's bits, and the loop is skipped: a group of trials on rows settles
    every block before it takes any block's rewards, since coarse rows form
    the group's cost terms in one pass (``_CoarseRows``).  Once the block
    holds errors, agent 0's renewal reward is formed per segment in one
    pass: over grid rows it adds up over the segment's left endpoints (the
    last row's step belongs to the next block), over coarse rows it adds up
    the rows' ``_row_sums`` (``_CoarseRows.segment_rewards``), and
    ``_Fleet.tally`` counts the events at once and closes the renewal
    cycles.
    """
    if not settled:
        _reset_segments(fleet, rows, stops, masks, done, coarse_rows)
    masks = np.asarray(masks)
    if coarse_rows is None:
        # agent 0's reward per segment, over its left endpoints: the last
        # row's step belongs to the next block
        span = len(rows) - 1
        lead = rows[:span, 0]
        bounds = [0, *stops, span]
        rewards = [float(lead[a:b] @ lead[a:b]) for a, b in zip(bounds, bounds[1:])]
    else:
        rewards = coarse_rows.segment_rewards(stops)
    fleet.tally(_event_steps(stops, done, coarse_rows), masks, rewards)


def _event_steps(stops: List[int], done: int, coarse_rows: Optional["_CoarseRows"]) -> List[int]:
    """The grid steps of the events of a block after step ``done``."""
    if coarse_rows is None:
        return [done + stop for stop in stops]
    return (done + coarse_rows.times).tolist()


def _reset_segments(fleet: _Fleet, rows: np.ndarray, stops: List[int], masks, done: int,
                    coarse_rows: Optional["_CoarseRows"] = None) -> None:
    """``_settle``'s loop: subtract from the rows from each event up to the
    next every agent's running sum at its last reset, and log the events of
    a logged trial in order."""
    broadcast_only = fleet.config.scenario is InfoScenario.BROADCAST
    points = None if coarse_rows is None else coarse_rows.points
    steps = _event_steps(stops, done, coarse_rows) if fleet.logged else None
    base = np.zeros(fleet.config.n)  # each agent's running sum at its last reset
    start = 0
    for k, stop in enumerate(stops):
        if k:  # the rows before the first event hold errors already
            rows[start:stop] -= base
        mask = masks[k]
        point = rows[stop] if points is None else points[k]
        if fleet.logged:
            fleet.log_event(point - base, mask, steps[k])
        np.copyto(base, point, where=mask if broadcast_only else True)
        start = stop
    if stops:
        rows[start:] -= base


def _phase_offsets(scheme: Periodic, n: int) -> np.ndarray:
    if not scheme.offsets:
        return np.zeros(n)
    return np.asarray(scheme.offsets, dtype=float)


def _first_counts(offsets: np.ndarray, dt: float) -> np.ndarray:
    """Each phase's first deadline count.  Every agent starts as having just
    fired, so a deadline that ``periodic_fire_step`` puts on step 0 is that
    firing, and the phase's first deadline is one period in."""
    return (periodic_fire_step(offsets, dt) <= 0).astype(np.int64)


# ---------------------------------------------------------------------------
# fast chunked integrator


def _running_sum(rows: np.ndarray) -> None:
    """Turn the block ``rows``, or each block of a stack of them, into its
    running sum down the rows, in place, bit for bit as ``np.cumsum(rows,
    axis=-2)``; each block's rows must be C-contiguous.  Rows of at least
    1024 entries, as a lane round's are, are added one row to the next:
    ``np.cumsum`` walks such a block column by column (on a 2-vCPU Xeon, 7
    rows of 20,800 entries took 0.35 ms against 0.04 ms).  Otherwise an even
    number of agents is summed as complex pairs of neighbouring agents, so
    each dependent add advances two of them."""
    if rows.shape[-1] >= 1024:
        steps = np.moveaxis(rows, -2, 0)  # a view whose first axis runs down the rows
        for r in range(1, len(steps)):
            np.add(steps[r - 1], steps[r], out=steps[r])
    elif rows.shape[-1] % 2:
        np.cumsum(rows, axis=-2, out=rows)
    else:
        pairs = rows.view(np.complex128)
        np.cumsum(pairs, axis=-2, out=pairs)


def _column_events(rows: np.ndarray, span: int, delta: float, window: int):
    """``(col, at)`` of the broadcast-only level rule's events in a group's
    running sums: per event its column ``g * n + i``, trial ``g``'s agent
    ``i``, and its row, ordered by column and then by row.

    ``rows[g, r]`` holds trial ``g``'s running sums at row ``r`` of its
    block, rows 0 to ``span``, and NaN, which never reaches the band, in the
    ``window - 1`` rows after.  An event resets its initiators alone, so
    each column is on its own: its error is its running sum less its
    running sum at its last event, ``base`` (0 before the first, row 0
    holding the errors), and its next event is the first later row where
    ``|rows - base| >= delta``.  One pass over the block in place gives
    every column its first event.  Then the search runs in rounds: each
    gathers every live column's ``window`` rows from the row after its last
    event as one ``(columns, window)`` block and gives the column its first
    hit there, or resumes it after them; a column whose rows run out drops
    out.
    """
    trials, _, n = rows.shape
    block = rows[:, 1 : span + 1]
    hit = (block >= delta) | (block <= -delta)  # |x| >= delta, from 0
    hit = hit.transpose(0, 2, 1).reshape(trials * n, span)
    j = hit.argmax(axis=1)
    live = np.flatnonzero(hit[np.arange(trials * n), j])
    at = j[live] + 1
    if not live.size:
        return live, at
    cols, ats = [live], [at]
    sg, sr, si = (stride // rows.itemsize for stride in rows.strides)
    # entry e of flat is rows[g, r, i] for e = g sg + r sr + i si, and
    # windows[e] its column's window rows from there
    entries = (trials - 1) * sg + span * sr + (n - 1) * si + 1
    flat = np.lib.stride_tricks.as_strided(rows, (entries,), (rows.itemsize,), writeable=False)
    windows = np.lib.stride_tricks.as_strided(rows, (entries, window),
                                              (rows.itemsize, rows.strides[1]), writeable=False)
    origin = live // n * sg + live % n * si  # each live column's row 0
    base = flat[origin + at * sr]
    start = at + 1
    while True:
        going = np.flatnonzero(start <= span)
        live, origin, start, base = live[going], origin[going], start[going], base[going]
        if not live.size:
            break
        dist = windows[origin + start * sr]
        dist -= base[:, None]
        np.abs(dist, out=dist)
        hit = dist >= delta
        j = hit.argmax(axis=1)
        fired = np.flatnonzero(hit[np.arange(live.size), j])
        at = start[fired] + j[fired]
        cols.append(live[fired])
        ats.append(at)
        base[fired] = flat[origin[fired] + at * sr]
        start += window
        start[fired] = at + 1
    col, at = np.concatenate(cols), np.concatenate(ats)
    order = np.argsort(col, kind="stable")  # each column's events came in row order
    return col[order], at[order]


def _event_masks(col: np.ndarray, at: np.ndarray, length: int, n: int):
    """``(keys, masks)`` of the events ``_column_events`` found in a group's
    blocks of ``length`` rows of ``n`` agents: the rows that hold events as
    ``g * length + row`` for trial ``g``, ascending, and per such row the
    agents that fire there."""
    if not col.size:
        return col, np.zeros((0, n), dtype=bool)
    keys, event = np.unique(col // n * length + at, return_inverse=True)
    masks = np.zeros((keys.size, n), dtype=bool)
    masks[event, col % n] = True
    return keys, masks


def _zero_fill(rows: np.ndarray, first: int, last: int) -> None:
    """Settle in place a group's blocks ``rows`` whose rows ``first`` to
    ``last`` each reset every agent, as synchronous deadline rows do, with
    the bits of ``_settle``'s loop: a segment of one row is zeroed (``x -
    x`` is ``+0.0``), and the rows after ``last`` take its base."""
    rows[:, last + 1 :] -= rows[:, last : last + 1]
    rows[:, first : last + 1] = 0.0


def _subtract_bases(buffer: np.ndarray, length: int, keys: np.ndarray, masks: np.ndarray) -> None:
    """Settle in place a group's running sums, rows 0 to ``length - 1`` of
    each trial's block in ``buffer``, from the events ``(keys, masks)``, as
    ``_event_masks`` gives them: every entry less its agent's running sum
    at its last reset by then, none before the first.  That is the
    subtraction ``_settle``'s loop makes segment by segment, so every bit
    stays.

    Between two of a trial's event rows every agent keeps its base, so the
    segments' bases come from a running maximum of the rows that reset each
    agent, as in ``_settle``, over the events alone, and one ``np.repeat``
    spreads them over the buffer's rows, each trial's first segment from
    zeros and its last over the rows after its block too.  The buffer's
    rows are taken in slices of ``CHUNK_BYTES / (128 n)``, each a segment
    from its first row that carries the base, so that neither the bases
    nor their spread grow with the block."""
    if not keys.size:
        return
    trials, height, n = buffer.shape
    # a view, the buffer being C-contiguous: trial g's row r is row g * height + r
    rows = buffer.reshape(-1, n)
    cuts = np.arange(0, len(rows), max(1, CHUNK_BYTES // (128 * n)))
    trial, row = np.divmod(keys, length)
    starts = np.concatenate((cuts, np.arange(trials) * height, trial * height + row))
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    counts = np.diff(starts, append=len(rows))
    # per segment the event it starts at, -1 at a trial's row 0 and -2 at a cut
    event = np.concatenate((np.full(cuts.size, -2), np.full(trials, -1),
                            np.arange(keys.size)))[order]
    edges = [*np.flatnonzero(event == -2).tolist(), len(event)]
    base = np.zeros(n)
    for a, b in zip(edges, edges[1:]):
        kind = event[a:b]
        # the base carried into the slice, then the rows its segments start at
        values = np.empty((b - a + 1, n))
        values[0] = base
        np.take(rows, starts[a:b], axis=0, out=values[1:])
        values[1:][kind == -1] = 0.0
        reset = masks[np.maximum(kind, 0)]
        reset[kind < 0] = (kind == -1)[kind < 0, None]
        last = np.where(reset, np.arange(1, b - a + 1)[:, None], 0)
        np.maximum.accumulate(last, axis=0, out=last)
        bases = values[last, np.arange(n)]
        del values, reset, last  # before the spread, which is as large
        rows[starts[a] : starts[a] + int(counts[a:b].sum())] -= np.repeat(bases, counts[a:b], axis=0)
        base = bases[-1]


class _Bridges:
    """The grid points inside the coarse steps of one chunk, drawn on demand.

    ``rows`` holds the chunk's running sums at its coarse points; entry
    ``e`` is agent ``e % n``'s step from row ``e // n`` to the next, which
    covers ``k`` grid steps.  ``draw`` fills in the ``k - 1`` grid points of
    each entry not drawn before from the exact discrete Brownian bridge
    between its ends (``triggering.bridge_point``), from one ``normals((k -
    1, m))`` block for the ``m`` fresh entries in ascending order.  Which
    entries get drawn depends on the coarse points and on earlier draws
    alone, never on the entry's own grid points, so every drawn point
    follows the bridge law.

    The entries may belong to several trials, each drawing from its own
    stream: ``stream`` is then a list, and ``stream[g]`` draws trial
    ``g``'s entries, one ``normals((k - 1, m_g))`` block for its ``m_g``
    fresh ones in ascending order, as the trial's own entries alone would
    draw them; ``store`` holds the blocks one after another.  With
    ``cols`` (a lane round) trial ``g`` owns columns ``cols[g]`` to
    ``cols[g + 1]`` of every row; otherwise (a group's chunk) ``rows``
    holds one block of ``height`` rows per trial, one after another, and
    no entry of a block's last row is ever drawn.
    """

    def __init__(self, rows: np.ndarray, stream, k: int, dt: float, cols=None, height=None):
        if cols is not None:
            busy = np.flatnonzero(np.diff(cols))
            if busy.size == 1:  # one stream draws every entry
                stream, cols = stream[busy[0]], None
        elif isinstance(stream, list) and len(stream) == 1:
            stream = stream[0]
        self.rows = rows
        self.n = rows.shape[1]
        self.height = len(rows) if height is None else height
        self.stream = stream
        self.cols = cols
        self.levels = bridge_levels(k, dt)[:-1]  # the end is a coarse point
        self.slot = np.full((len(rows) - 1) * self.n, -1, dtype=np.int32)
        self.store = np.empty((k - 1, 256))  # column per slot: the grid points 1 .. k - 1
        self.owner = np.empty(256, dtype=np.int64)  # entry per slot
        self.count = 0

    def _normals(self, new: np.ndarray):
        """``(new, noise)``: the ascending fresh entries ``new`` in the order
        they are drawn, and their standard normals, a column each."""
        levels = len(self.levels)
        if not isinstance(self.stream, list):
            return new, self.stream.normals((levels, new.size))
        if self.cols is None:
            owner = new // (self.height * self.n)  # ascending, as new is
        else:
            owner = np.searchsorted(self.cols, new % self.n, side="right") - 1
            # a stable sort by stream keeps each stream's entries ascending
            new = new[np.argsort(owner, kind="stable")]
        counts = np.bincount(owner, minlength=len(self.stream))
        parts = [stream.normals((levels, c)) for stream, c in zip(self.stream, counts) if c]
        return new, parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def draw(self, entries: np.ndarray) -> np.ndarray:
        """Draw the grid points of the ``entries`` not drawn yet, which must
        be in ascending order, and look up the others; return the columns of
        ``store`` that hold each entry's points."""
        slots = self.slot[entries]
        fresh = slots < 0
        m = np.count_nonzero(fresh)
        if not m:
            return slots
        count = self.count
        if count + m > self.store.shape[1]:
            # by half at least, but no more than this draw needs: a lane round
            # draws once, and a group's chunk most of its entries in its
            # first round
            size = max(count + count // 2, count + m)
            grown = np.empty((len(self.levels), size))
            grown[:, :count] = self.store[:, :count]
            self.store = grown
            self.owner = np.resize(self.owner, size)
        new, noise = self._normals(entries[fresh])
        flat = self.rows.reshape(-1)
        a, end = flat[new], flat[new + self.n]
        for j, (r, sd) in enumerate(self.levels):
            a = bridge_point(noise[j], a, end.copy(), r, sd)
        self.store[:, count : count + m] = noise
        self.owner[count : count + m] = new
        self.slot[new] = np.arange(count, count + m)
        slots[fresh] = self.slot[entries[fresh]]
        self.count = count + m
        return slots

    def spend(self, increments: np.ndarray):
        """``(entries, deviations)`` of every drawn entry, in ascending
        order: its grid points 1 .. k - 1 minus their bridge means ``a + z j
        / k``, a row each, with ``a`` the entry's start in ``rows`` and
        ``z`` its increment in ``increments``, laid out as the steps of
        ``rows``.  They are formed in place of the store, a grid point at a
        time so that no second array as large is held, and the bridges give
        the store up: they serve no draw or lookup after."""
        count, k = self.count, len(self.levels) + 1
        order = np.argsort(self.owner[:count])
        d = self.store[:, :count]
        entries = self.owner[order]
        a, z = self.rows.reshape(-1)[entries], increments.reshape(-1)[entries]
        for t, point in enumerate(d, 1):
            point[:] = point[order]
            point -= a + z * (t / k)
        self.store = self.slot = None
        return entries, d.T


def _coarse_crossings(flat: np.ndarray, origin: np.ndarray, first: np.ndarray, hi: np.ndarray,
                      base: np.ndarray, delta: float, far: float, n: int, width: int):
    """``(stop, crossed, entries)`` of the columns of a coarse level search
    round: column ``c``'s coarse point ``p`` is ``flat[origin[c] + p n]``,
    and it is read from its point ``first[c]`` on.  ``stop[c]`` is its
    first point after ``first[c]`` that lies ``delta`` or more from
    ``base[c]``, or else ``hi[c]``, and ``crossed[c]`` says which;
    ``entries`` lists, by their index into ``flat``, the column's steps
    from ``first[c]`` up to ``stop[c]`` with an end beyond ``far`` of
    ``base[c]``, column by column.

    Each column reads its points in windows from where the last one ended,
    ``width`` points at first and half as many again each time until it
    stops, so a column reads a point about once; a window holds at least
    ``SCAN_ENTRIES`` and at most ``CHUNK_BYTES / 64`` entries over the
    columns still reading, as far as they reach.  A window is one strided
    view of ``flat`` for every column, so it may run past a column's
    ``hi`` into whatever follows, which is read but never counts; a window
    that would run past ``flat``'s end reads its last entry there.  A lone
    column reads its points up to ``hi`` at once, one slice of ``flat``: a
    window's numpy calls would cost more than its points."""
    if origin.size == 1:
        start, left = int(origin[0] + first[0] * n), int(hi[0] - first[0])
        dist = flat[start : start + left * n + 1 : n] - base[0]
        np.abs(dist, out=dist)
        over = dist[1:] >= delta
        j = over.argmax()
        crossed = over[j : j + 1]
        read = j + 1 if crossed[0] else left
        near = dist[: read + 1] > far
        steps = (near[:-1] | near[1:]).nonzero()[0]
        return first + read, crossed, start + steps * n
    crossed = np.zeros(origin.size, dtype=bool)
    found = []
    todo = np.arange(origin.size)
    at = first.copy()  # each column is read through its point at
    while todo.size:
        p = at[todo]
        left = hi[todo] - p  # the points each column has left to read
        # a few columns read more at once: a window's numpy calls cost the
        # same however few points they read
        width = max(1, min(max(width, SCAN_ENTRIES // todo.size), int(left.max()),
                           CHUNK_BYTES // (64 * todo.size) - 1))
        start = origin[todo] + p * n
        # row e of windows is the width + 1 points of a column from entry e
        windows = np.ndarray((flat.size - width * n, width + 1), flat.dtype, flat,
                             strides=(flat.itemsize, n * flat.itemsize))
        if start.max() < len(windows):
            dist = windows[start]
        else:  # a column near the end of the last block
            dist = flat.take(start[:, None] + np.arange(width + 1) * n, mode="clip")
        dist -= base[todo, None]
        np.abs(dist, out=dist)
        over = dist >= delta
        over[:, 0] = False  # the point p was searched through
        j = over.argmax(axis=1)
        hit = over[np.arange(todo.size), j]
        hit &= j <= left  # no point past hi counts
        read = np.where(hit, j, np.minimum(width, left))  # the points read past p
        near = dist > far
        need = near[:, :-1] | near[:, 1:]
        need &= np.arange(width) < read[:, None]
        r, c = np.divmod(np.flatnonzero(need), width)
        found.append(start[r] + c * n)
        at[todo] = p + read
        crossed[todo[hit]] = True
        todo = todo[~hit & (read < left)]
        width += width // 2 + 1
    return at, crossed, np.concatenate(found)


def _coarse_level_events(bridges: _Bridges, delta: float, far: float, k: int, window: int):
    """``(times, masks, resets)`` of the level rule's events in a chunk of
    coarse running sums of a group of trials, ``bridges.rows``, a block of
    ``bridges.height`` rows per trial: the grid points at which some
    agent's error reaches ``delta``, ascending, as ``g H k + t`` for grid
    point ``t`` of trial ``g``'s block of ``H`` rows, counted from the
    chunk's start; per event the agents that reach it there; and ``(time,
    agent, jump)`` per reset, the jump being the agent's running sum there
    less the one at its last reset.

    Each column, trial ``g``'s agent ``i``, is on its own: its error is its
    running sum minus its running sum at its last reset, ``base``.  The
    search runs in rounds, each over a window of up to ``window`` coarse
    rows per trial from the trial's earliest point not yet searched.  A
    column's first coarse point beyond ``delta`` after the point it was
    last searched through bounds its next event, and a round reads each
    column from that point's row to there, or to the window's end, and no
    further (``_coarse_crossings``, in windows that start an eighth of
    ``window`` wide).  It draws the grid points of every entry of those
    rows with an end beyond ``far`` of its column's base
    (``_Bridges.draw``, one block per trial and round, from the trial's
    stream; any other entry reaches the band with probability below ``2
    exp(-40)``) and takes each column's first grid point in the band's
    complement after the point it was searched through; that hit, or else the bounding crossing, is the
    column's event, which resets it alone: the search serves broadcast-only
    information, where each agent watches its own error.  Each trial's
    rounds, windows and draws are the ones it makes alone.
    """
    rows, n, height = bridges.rows, bridges.n, bridges.height
    flat = rows.reshape(-1)
    width = max(1, window // 16)
    span = height - 1
    last = span * k
    trials = len(rows) // height
    columns = trials * n
    col = np.arange(columns)
    origin = col // n * (height * n) + col % n  # each column's point 0 in flat
    inner = np.arange(1, k)[:, None]  # the grid points inside a row
    base = np.zeros(columns)
    none = np.zeros(0, dtype=np.int64)
    times, cols, jumps = [none], [none], [np.zeros(0)]
    done = np.zeros(columns, dtype=np.int64)  # each column is searched through this point
    while True:
        # nonzero() over flatnonzero(): a round costs about 60 numpy calls, and
        # with a column or two it serves one event
        live = (done < last).nonzero()[0]
        if not live.size:
            break
        first = done[live] // k  # the row each column starts in
        # each trial's window, from its earliest live column
        trial = live // n
        lo = np.full(trials, span)
        np.minimum.at(lo, trial, first)
        hi = np.minimum(lo + window, span)[trial]
        stop, crossed, entries = _coarse_crossings(flat, origin[live], first, hi, base[live],
                                                   delta, far, n, width)
        # a live column's coarse crossing is its event unless a grid point
        # before it is
        ends = np.where(crossed, stop * k, last + 1)
        if entries.size:
            entries.sort()  # each trial's entries row by row
            row, agent = np.divmod(entries, n)
            c = row // height * n + agent
            row %= height
            slots = bridges.draw(entries)
            hit = np.abs(bridges.store[:, slots] - base[c]) >= delta
            # only the row a column starts in holds points it was searched through
            early = (row * k < done[c]).nonzero()[0]
            hit[:, early] &= inner + row[early] * k > done[c[early]]
            h = hit.any(axis=0).nonzero()[0]
            if h.size:
                # a column's entries run row by row, so its first hit comes first
                who, once = np.unique(c[h], return_index=True)
                h = h[once]
                j = hit[:, h].argmax(axis=0)
                ends[np.searchsorted(live, who)] = row[h] * k + j + 1
        done[live] = stop * k
        gone = (ends <= last).nonzero()[0]
        if not gone.size:
            continue
        fired, at = live[gone], ends[gone]
        row, j = np.divmod(at, k)
        point = origin[fired] + row * n
        new = flat[point]
        inside = j.nonzero()[0]
        if inside.size:
            slots = bridges.draw(point[inside])
            new[inside] = bridges.store[j[inside] - 1, slots]
        times.append(fired // n * (height * k) + at)
        cols.append(fired)
        jumps.append(new - base[fired])
        base[fired] = new
        done[fired] = at
    times, cols, jumps = (np.concatenate(part) for part in (times, cols, jumps))
    at, event = np.unique(times, return_inverse=True)
    masks = np.zeros((at.size, n), dtype=bool)
    masks[event, cols % n] = True
    return at, masks, (times, cols % n, jumps)


def _event_points(bridges: _Bridges, entries: np.ndarray, j: np.ndarray,
                  log: Optional[_Bridges] = None) -> np.ndarray:
    """The running sums at grid point ``j`` (0 to ``k``) of the coarse steps
    ``entries`` of ``bridges``: coarse points, drawn points, and NaN for an
    entry not drawn, or with ``log``, a ``_Bridges`` on a stream of the log's
    own, a point of the whole entry drawn there, so that a logged trial's
    stream and tallies stay the unlogged trial's."""
    k = len(bridges.levels) + 1
    j = np.broadcast_to(j, entries.shape)
    points = bridges.rows.reshape(-1)[entries + (j == k) * bridges.n]
    inner = j % k > 0
    entries, t = entries[inner], j[inner] - 1
    slots = bridges.slot[entries]
    fresh = slots < 0
    found = np.where(fresh, np.nan, bridges.store[t, slots])
    if log is not None:
        drawn, back = np.unique(entries[fresh], return_inverse=True)
        slots = log.draw(drawn)[back]  # before reading the store, which it may grow
        found[fresh] = log.store[t[fresh], slots]
    points[inner] = found
    return points


def _event_rows(bridges: _Bridges, increments: np.ndarray, times: np.ndarray, resets,
                step_var: float, log: Optional[_Bridges] = None):
    """``(stops, coarse_rows)`` for ``_settle`` of the level events and
    ``resets`` that ``_coarse_level_events`` found in a chunk of one trial
    or of a group's trials: each event stops at the first coarse point from
    it on, a row of its trial's block, and resets to its ``_event_points``.
    The increments, a row per row of ``bridges.rows`` but each block's last
    (which it may hold too), updated in place, and the drawn entries'
    deviations from their bridge means are the settled rows': a reset at
    grid point ``j`` inside a row by ``J`` lowers the row's end by ``J``, so
    its entry's increment is ``z - J`` and its drawn point ``t`` moves ``J
    (t / k - [t >= j])`` off the bridge mean."""
    n, k, height = bridges.n, len(bridges.levels) + 1, bridges.height
    row, j = np.divmod(times, k)
    points = _event_points(bridges, row[:, None] * n + np.arange(n), j[:, None], log)
    drawn, d = bridges.spend(increments)
    at, agent, jump = resets
    inner = at % k > 0
    reset_row, reset_j = np.divmod(at[inner], k)
    agent, jump = agent[inner], jump[inner]
    np.subtract.at(increments, (reset_row, agent), jump)
    t = np.arange(1, k)
    np.add.at(d, np.searchsorted(drawn, reset_row * n + agent),
              jump[:, None] * (t / k - (t >= reset_j[:, None])))
    trial, row = np.divmod(row, height)
    bounds = np.searchsorted(trial, np.arange(len(bridges.rows) // height + 1))
    return (row + (j > 0)).tolist(), _CoarseRows(
        bridges.rows, np.arange(height) * k, increments, step_var, times - trial * (height * k),
        (*np.divmod(drawn, n), d), points, bounds)


def _chunk_deadlines(fire_counts, offsets, period, dt, done, span, limit):
    """``(stops, masks)`` of the first ``limit`` grid steps that hold
    periodic deadlines in the ``span`` grid steps after step ``done``: those
    steps, counted from ``done``, ascending, and per step a boolean mask of
    the phases due there.

    ``fire_counts[i]`` numbers phase ``i``'s next deadline ``offsets[i] +
    fire_counts[i] * period``; it is advanced past every deadline by the
    last stop, so two that rounding puts on one grid step are one firing.
    Each ``periodic_fire_step`` call maps a ``(phases, m)`` grid of counter
    values to grid steps, with ``m`` one more than ``span`` steps can hold.
    A grid takes as many phases as fit in ``CHUNK_BYTES / 64`` entries, at
    least one, so short periods of many phases are looked up in slices of
    phases, each slice twice when there are several: once for the steps,
    once for the masks.  The stops come from the grid's own entries and the
    masks get one row per kept stop, so neither grows with ``span``: a
    chunk keeps at most ``limit`` stops, one per row.
    """
    phases = len(fire_counts)
    m = int(span * dt / period) + 2
    width = max(1, CHUNK_BYTES // (64 * m))
    parts = [slice(lo, lo + width) for lo in range(0, phases, width)]

    def steps(part):
        counts = fire_counts[part, None] + np.arange(m)
        at = periodic_fire_step(offsets[part, None] + counts * period, dt)
        at -= done  # steps from done
        return at

    stops = np.zeros(0, dtype=np.int64)
    for part in parts:
        at = steps(part)
        stops = np.union1d(stops, at[at <= span])[:limit]
    masks = np.zeros((len(stops) + 1, phases), dtype=bool)
    for part in parts:
        if len(parts) > 1:
            at = steps(part)
        # a deadline by the last kept stop is a kept stop; later ones go to
        # a sink row past them
        row = np.searchsorted(stops, at)
        masks[row, np.arange(part.start, part.start + len(at))[:, None]] = True
        fire_counts[part] += (row < len(stops)).sum(axis=1)
    return stops, masks[:-1]


def _bridge_sums(k, aa, az, zz, var, m=None):
    """Per coarse step of ``k`` grid steps, the expectation of a quadratic
    form ``q`` of the errors summed over the step's first ``m`` left
    endpoints (all ``k`` of them by default), given the step's post-reset
    start ``a`` and its increment ``z``, with ``aa = q(a)``, ``az = q(a,
    z)``, ``zz = q(z)`` and ``var`` the trace of ``q`` times the variance of
    one grid step's increment.

    Given its endpoints, a coarse step's grid points form a discrete
    Brownian bridge (Glasserman, *Monte Carlo Methods in Financial
    Engineering*, 2004, section 3.1): grid point ``j`` has mean ``m_j = a +
    z j / k`` and, per agent and independently, variance ``v_j = j (k - j)
    / k`` grid-step variances.  So the sum of ``q(m_j) + var v_j`` over
    ``j < m`` is ``m aa + (m - 1) m / k az + (m - 1) m (2m - 1) / (6 k^2)
    zz + var (m - 1) m (3k - 2m + 1) / (6k)``.  Over the whole step, ``m =
    k``, that is ``k aa + (k - 1) az + C zz + var (k^2 - 1) / 6`` with ``C =
    (k - 1)(2k - 1) / (6k)``, each coefficient rounded once, as written;
    with the pre-reset end ``b = a + z`` it is ``A q(a) + B q(a, b) + C
    q(b)``, ``A = 1 + C``, ``B = 2 ((k - 1) / 2 - C)``, plus the variance
    term.  At ``k = 1``, and at ``m = 1``, every term but ``aa`` is an exact
    zero, and at ``m = 0`` the sum is.  Replacing the grid points by this
    expectation is conditional Monte Carlo (Asmussen & Glynn, *Stochastic
    Simulation*, 2007, ch. V): the same mean, and no larger a variance.
    """
    if m is None:
        m = k
    sums = m * aa
    sums += (m - 1) * m / k * az
    sums += (m - 1) * m / k * (2 * m - 1) / (6 * k) * zz
    sums += var * ((m - 1) * m / k * (3 * k - 2 * m + 1)) / 6
    return sums


def _row_terms(starts, increments, step_var, row, agent, d):
    """``(terms, at, fixes)`` of the coarse rows that start at ``starts``
    and step by ``increments``, over grid steps of variance ``step_var``.
    ``terms`` holds per row ``q(a)``, ``q(a, z)`` and ``q(z)`` of the
    Laplacian form of its start ``a`` and increment ``z``, then ``a_0^2``,
    ``a_0 z_0`` and ``z_0^2``.  Drawn entry ``e``, in ascending order of
    ``row * n + agent``, is agent ``agent[e]``'s step in row ``row[e]``, of
    ``k`` grid steps, and ``d[e]`` holds its inner grid points minus their
    bridge means ``m``; ``row=None`` means nothing was drawn.  ``at`` lists
    the rows that hold drawn entries and ``fixes[r]``, per inner grid point
    of row ``at[r]``, what they add to the cost and to agent 0's reward.
    Given what was drawn, agents are independent, so ``n sum (m + d)^2 - (S
    + D)^2`` replaces ``n sum (m^2 + v) - S^2 - sum v`` over the row's drawn
    entries, with ``v`` the bridge's variance and ``S`` and ``D`` the row's
    sums of ``m`` over all agents and of ``d`` over the drawn ones.  The row
    sums of ``a`` and ``z`` serve ``S`` and the Laplacian terms, with the
    bits of ``consensus_cost_rows``, which forms ``q(a)`` and ``q(z)`` below
    eight agents."""
    n = starts.shape[1]
    a0, z0 = starts[:, 0], increments[:, 0]
    sa, sz = np.einsum("...i->...", starts), np.einsum("...i->...", increments)
    if n < 8:
        aa, zz = consensus_cost_rows(starts), consensus_cost_rows(increments)
    else:
        aa = np.maximum(n * np.einsum("...i,...i->...", starts, starts) - sa * sa, 0.0)
        zz = np.maximum(n * np.einsum("...i,...i->...", increments, increments) - sz * sz, 0.0)
    az = n * np.einsum("...i,...i->...", starts, increments) - sa * sz
    terms = (aa, az, zz, a0 * a0, a0 * z0, z0 * z0)
    if row is None:
        return terms, np.zeros(0, dtype=np.int64), np.zeros((0, 2, 0))
    k = d.shape[1] + 1
    j = np.arange(1, k)
    jk = (j / k)[:, None]
    flat = row * n + agent
    # a grid point per row and an entry or a row segment per column, so that
    # every operation runs along the entries
    d = d.T
    # d (2 m + d), formed in place on the bridge means m
    own = increments.reshape(-1)[flat] * jk
    own += starts.reshape(-1)[flat]
    own *= 2
    own += d
    own *= d
    v = step_var * j * (k - j) / k
    lead = agent == 0
    lead_fixes = (own[:, lead] - v[:, None]).T
    first = np.flatnonzero(np.diff(row, prepend=-1))
    at = row[first]
    count = np.diff(np.append(first, row.size))
    # each (grid point, row) array is formed in place, and freed once used
    cost = np.add.reduceat(own, first, axis=1)
    del own
    cost *= n
    cost -= (n - 1) * count * v[:, None]
    # (S + D)^2 - S^2 per inner grid point, with S the row's sum of means
    dsum = np.add.reduceat(d, first, axis=1)
    s = sz[at] * jk
    s += sa[at]
    s *= 2
    s += dsum
    s *= dsum
    del dsum
    cost -= s
    del s
    fixes = np.zeros((at.size, 2, k - 1))
    fixes[:, 0] = cost.T
    fixes[np.searchsorted(at, row[lead]), 1] = lead_fixes
    return terms, at, fixes


def _row_sums(k, terms, at, fixes, n, step_var, m=None):
    """``(cost, reward)`` per coarse row of ``k`` grid steps, from its
    ``_row_terms``: the expected ``x'Lx`` of ``n`` agents and ``e_0^2``
    summed over the row's first ``m`` grid points (all ``k`` by default),
    given what was drawn.  The one cost form of coarse rows, for chunks
    (``_CoarseRows``) and lanes (``_lane_block``) alike."""
    aa, az, zz, a0a0, a0z0, z0z0 = terms
    cost = _bridge_sums(k, aa, az, zz, n * (n - 1) * step_var, m)
    reward = _bridge_sums(k, a0a0, a0z0, z0z0, step_var, m)
    if len(at):
        sums = fixes.sum(axis=2)
        if m is not None:
            # only rows cut short of their end change
            cut = np.flatnonzero(m[at] < fixes.shape[2] + 1)
            inner = np.arange(1, fixes.shape[2] + 1) < m[at[cut], None]
            sums[cut] = (fixes[cut] * inner[:, None]).sum(axis=2)
        cost[at] += sums[:, 0]
        reward[at] += sums[:, 1]
    return cost, reward


class _CoarseRows:
    """The coarse rows of a chunk of one trial, or of a group's trials, and
    their events.  ``rows`` holds the running sums at the coarse points, a
    block of ``len(ends)`` rows per trial, one after another: row ``r`` of
    a block ends ``ends[r]`` grid steps after the chunk's start, and the
    step from row ``r`` to row ``r + 1`` is ``k[r]`` grid steps long and has
    the increments in the same row of ``increments``, drawn with variance
    ``k[r] * step_var`` per agent (``increments`` may hold a row for each
    block's last row too, which counts for nothing).  The events of trial
    ``g`` are ``bounds[g]`` to ``bounds[g + 1]`` (all of them by default):
    event ``e`` falls ``times[e]`` grid steps after the chunk's start, on
    its stop's row or inside the step before it; ``points``, if given,
    holds the running sums it resets to.

    ``refined``, if given, is ``(row, agent, d)`` for the entries of coarse
    steps whose grid points were drawn: per entry its row, its agent and its
    ``k - 1`` inner grid points minus their bridge means.  The cost and the
    reward then take those points as they are and the bridge law for the
    rest, per row by ``_row_sums``, in one pass over every block once all
    of them are settled; ``trial`` gives each trial its block's share.
    """

    def __init__(self, rows: np.ndarray, ends: np.ndarray, increments: np.ndarray,
                 step_var: float, times: np.ndarray, refined=(None, None, None), points=None,
                 bounds=None):
        self.rows = rows
        self.ends = ends
        self.increments = increments
        self.k = np.diff(ends).astype(float)
        self.step_var = step_var
        self.refined = refined
        self.times, self.points = times, points
        self.bounds = [0, len(times)] if bounds is None else bounds
        self._group, self._block = None, 0  # None: its own group, with no cycle to collect
        # _row_terms and _row_sums of the group's settled rows, and this
        # trial's share of them
        self._whole = self._terms = self._sums = None

    def trial(self, g: int) -> "_CoarseRows":
        """Trial ``g``'s rows and events, whose sums are its block's share of
        the group's."""
        a, b = self.bounds[g], self.bounds[g + 1]
        part = _CoarseRows(self.rows, self.ends, self.increments, self.step_var, self.times[a:b],
                           points=None if self.points is None else self.points[a:b])
        part._group, part._block = self, g
        return part

    def _settled_sums(self):
        if self._sums is None:
            group = self._group or self
            if group._whole is None:
                # every block's rows at once; a block's last row, if it has
                # increments, counts for nothing
                terms = _row_terms(group.rows[: len(group.increments)], group.increments,
                                   group.step_var, *group.refined)
                k = np.resize(np.append(group.k, 1.0), len(group.increments))
                group._whole = terms, _row_sums(k, *terms, group.rows.shape[1], group.step_var)
            (terms, at, fixes), sums = group._whole
            start = self._block * len(self.ends)
            rows = slice(start, start + len(self.k))
            a, b = np.searchsorted(at, [rows.start, rows.stop])
            self._terms = [t[rows] for t in terms], at[a:b] - start, fixes[a:b]
            self._sums = [s[rows] for s in sums]
        return self._sums

    def cost(self) -> float:
        """Expected ``sum x'Lx`` over the grid points of the chunk's steps,
        from the settled rows, their post-reset errors."""
        return float(self._settled_sums()[0].sum())

    def segment_rewards(self, stops: List[int]) -> List[float]:
        """Expected ``sum e_0^2`` over the grid points from the chunk's start
        and from each event up to the next: the steps from one stop up to
        the next, and an event inside a step moves the step's sum from it on
        (less ``_row_sums`` of the step's first grid points) to the next."""
        reward = self._settled_sums()[1]
        bounds = [0, *stops]
        # a zero past the end is the sum of an empty last segment
        sums = np.add.reduceat(np.append(reward, 0.0), bounds)
        inner = np.flatnonzero(self.times != self.ends[stops])
        if inner.size:
            sums[:-1][np.diff(bounds) == 0] = 0.0  # reduceat sums no empty segment
            row = np.asarray(stops)[inner] - 1
            terms, at, fixes = self._terms
            head = _row_sums(self.k[row], [t[row] for t in terms], np.arange(row.size),
                             fixes[np.searchsorted(at, row)], self.rows.shape[1], self.step_var,
                             self.times[inner] - self.ends[row])[1]
            tail = reward[row] - head
            sums[inner] -= tail
            sums[inner + 1] += tail
        return sums.tolist()


def _per_trial_cumsum(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The running sum of the integers ``values`` within each trial's lanes,
    ``first[g]`` to ``first[g + 1]``, every trial holding at least one."""
    sums = np.cumsum(values)
    return sums - np.repeat(sums[first[:-1]] - values[first[:-1]], np.diff(first))


def _lanes_beyond(entries: np.ndarray, delta: float) -> np.ndarray:
    """Whether some agent of each row and lane of a ``(rows, lanes,
    agents)`` block of distances lies at ``delta`` or beyond.  Below 16
    agents the largest is found one maximum over the agents' strided
    columns at a time, which costs less than a reduction along the short
    last axis: 0.05 against 0.83 ms for a round of 27 rows of 1592 lanes of
    three agents, 7 against 23 ms for 20 rows of 12,500 lanes of eight.
    From 16 agents on the entries are compared first and reduced after,
    which beat the maxima at 20 and 50 agents (80 against 134 us for 6 rows
    of 300 lanes of 20)."""
    n = entries.shape[2]
    if n >= 16:
        return (entries >= delta).any(axis=2)
    peaks = entries[:, :, 0].copy()
    for i in range(1, n):
        np.maximum(peaks, entries[:, :, i], out=peaks)
    return peaks >= delta


def _lane_block(config: ScenarioConfig, streams: List[NoiseStream], lanes: List[int],
                starts: List[int], width: int, step_var: float,
                logs: Optional[List[NoiseStream]] = None):
    """``(lengths, counted, masks, e_pre, costs, rewards)``, per lane, of one
    block of renewal cycles of a group of broadcast-plus-local level trials:
    trial ``g`` holds ``lanes[g]`` lanes, after the lanes of the trials
    before it, and its first lane starts at grid step ``starts[g]``.

    Lane ``i`` of a trial is its cycle ``i``: ``n`` walks from 0 up to the
    first grid point at which some ``|e| >= delta``.  The live lanes advance
    in rounds of ``width`` rows of ``k = fleet_coarse_steps(config)`` grid
    steps, one ``N(0, k dt)`` draw per agent per row; on rows of one grid
    step a round ``t`` steps into the block advances ``t // LANE_GROWTH``
    rows once that is more than ``width``.  On rows of one grid
    step (``k = 1``) a lane's first row whose end lies beyond the band is its
    exit.  On coarse rows (``k = MAX_COARSE_STEPS``) that row bounds its
    exit, and the entries of the rows up to it with an end beyond ``far =
    delta - sqrt(20 k dt)`` are drawn (``_Bridges``; ``triggering.coarse_far``
    without ``crossing``): the first of their points beyond the band, or
    else the bounding row's end, is the lane's exit.  Exited lanes drop
    out.  A trial's lanes start one after another, so a lane starts no
    earlier than its trial's start plus the lengths of the trial's lanes
    before it, or the grid steps they were searched through while they have
    not exited; a lane that would start past the horizon, or whose start
    plus its own searched steps already reaches it, stops.  The initiators
    are the agents beyond the band at the exit (``_event_points`` on coarse
    rows), and ``e_pre``, every agent's error there, is formed only with
    ``logs``.

    Each round draws each trial's live lanes, side by side in its rows,
    from the trial's own stream ``streams[g]``, and on coarse rows their
    grid points too, in the order the trial alone would draw them, as the
    log's points from ``logs[g]``; the search and the cost form run once
    over the whole group.  A lane's results depend on its trial's stream,
    start and lane count alone.

    ``counted`` is the grid points that count per lane: a cycle that ends by
    the horizon counts its length; the one that crosses it counts its own
    path's grid points before the horizon, whose number depends only on the
    cycles before it; later lanes count none.  ``lengths`` holds each exited
    lane's length and, for a lane that stopped, ``config.steps + 1``.  The
    cost and agent 0's reward over a lane's counted grid points are, on rows
    of one grid step, ``x'Lx`` and ``e_0^2`` at their left endpoints, as
    ``run_trial``'s grid rows form them, kept per round as running sums down
    its rows; on coarse rows their expectations given what was drawn:
    ``_row_sums`` over each row's counted grid points, from the
    ``_row_terms`` each round keeps.
    """
    n, dt, k = config.n, config.dt, fleet_coarse_steps(config)
    coarse = k > 1
    delta = config.scheme.delta
    horizon = config.steps
    sd = np.sqrt(k * dt)
    first = np.cumsum([0, *lanes])  # trial g's lanes are first[g] to first[g + 1]
    total = int(first[-1])
    origin = np.repeat(starts, lanes)  # each lane's trial's start
    reach = np.zeros(total, dtype=np.int64)  # the exit, or the grid steps searched through
    exited = np.zeros(total, dtype=bool)
    masks = np.zeros((total, n), dtype=bool)
    e_pre = None if logs is None else np.zeros((total, n))
    # the first round's working arrays, which every later round reuses in
    # part: a fresh array of this size each round would page-fault anew
    buffers = np.empty((3 if coarse else 2, (width + 1) * total * n))
    live = np.arange(total)
    x = np.zeros((total, n))  # the live lanes' errors after t grid steps
    t = 0
    # per round: on coarse rows its rows' terms and its drawn entries'
    # corrections, on grid steps its start, lanes and running sums
    kept = []
    while live.size:
        m = live.size
        # the lanes still live late in a block are few, and each round's
        # fixed work is spent on them: on grid steps later rounds are wider
        w = width if coarse else max(width, t // LANE_GROWTH)
        if (w + 1) * m * n > buffers.shape[1]:
            buffers = np.empty((len(buffers), (w + 1) * m * n))
        # rows[r] holds every live lane's errors after r rows, lanes side by
        # side: entry e is agent e % n of lane e // n % m in row e // (m n)
        rows, dist, *spare = (b[: (w + 1) * m * n].reshape(w + 1, m * n) for b in buffers)
        rows[0] = x.reshape(-1)
        # the increments: coarse rows keep them apart for _row_terms
        z = spare[0] if coarse else rows
        # trial g's live lanes are columns cols[g] to cols[g + 1] of each row;
        # its draws wait in dist, which the search overwrites
        cols = np.searchsorted(live, first) * n
        for g in np.flatnonzero(np.diff(cols)):
            a, b = cols[g], cols[g + 1]
            noise = dist.reshape(-1)[: w * (b - a)].reshape(w, b - a)
            streams[g].normals((w, b - a), out=noise)
            np.multiply(noise, sd, out=z[1:, a:b])
        if coarse:
            rows[1:] = z[1:]
            z = z[1:].reshape(w * m, n)
        _running_sum(rows)
        np.abs(rows, out=dist)
        over = _lanes_beyond(dist[1:].reshape(w, m, n), delta)
        bound = np.where(over.any(axis=0), over.argmax(axis=0), w)
        # each lane's exit in grid steps from t, past the round if none
        at = (bound + 1) * k
        if coarse:
            near = dist > coarse_far(delta, dt, k, crossing=False)
            need = (near[:-1] | near[1:]).reshape(w, m, n)
            need &= (np.arange(w)[:, None] <= bound)[:, :, None]
            entries = np.flatnonzero(need)
            bridges = _Bridges(rows, streams, k, dt, cols)
            if entries.size:
                slots = bridges.draw(entries)
                beyond = np.abs(bridges.store[:, slots]) >= delta
                hit = np.flatnonzero(beyond.any(axis=0))
                np.minimum.at(at, entries[hit] // n % m,
                              entries[hit] // (m * n) * k + beyond[:, hit].argmax(axis=0) + 1)
        out = np.flatnonzero(at <= w * k)
        exit_row = np.full(m, w)
        exit_row[out] = (at[out] - 1) // k
        which = live[out]
        reach[which] = t + at[out]
        exited[which] = True
        if coarse:
            # every agent of each exit row, at the exit
            entries = (exit_row[out] * m + out)[:, None] * n + np.arange(n)
            j = (at[out] - exit_row[out] * k)[:, None]
            masks[which] = np.abs(_event_points(bridges, entries, j)) >= delta
            if logs is not None:
                log = _Bridges(rows, logs, k, dt, cols)
                e_pre[which] = _event_points(bridges, entries, j, log)
            # every row's terms and every drawn entry's corrections, row by
            # row, once the drawn points are freed
            drawn, d = bridges.spend(z)
            del bridges
            terms, row, fixes = _row_terms(rows[:-1].reshape(w * m, n), z, step_var,
                                           *np.divmod(drawn, n), d)
            del d
            kept.append((np.repeat(t + np.arange(w) * k, m), np.tile(live, w),
                         np.stack(terms, axis=1), row, fixes))
        else:
            # x'Lx and e_0^2 at each row's left endpoint, summed down the
            # rows; dist, free once the search is done, takes the squares
            # that consensus_cost_rows forms below eight agents
            left = rows[:-1].reshape(w, m, n)
            sums = np.empty((w, 2, m))
            sums[:, 0] = consensus_cost_rows(left, squares=dist[:-1].reshape(w, m, n))
            np.multiply(left[:, :, 0], left[:, :, 0], out=sums[:, 1])
            _running_sum(sums.reshape(w, 2 * m))
            kept.append((t, live, sums))
            point = rows.reshape(w + 1, m, n)[at[out], out]
            masks[which] = np.abs(point) >= delta
            if logs is not None:
                e_pre[which] = point
        t += w * k
        going = exit_row == w
        reach[live[going]] = t
        earliest = origin + _per_trial_cumsum(reach, first) - reach  # each lane's earliest start
        going &= earliest[live] + t < horizon
        x = rows[-1].reshape(m, n)[going]
        live = live[going]

    lengths = np.where(exited, reach, horizon + 1)
    ends = origin + _per_trial_cumsum(lengths, first)
    counted = np.where(ends <= horizon, lengths, np.clip(horizon - (ends - lengths), 0, None))
    if not coarse:
        # each lane's running sums at its last counted row of each round
        costs, rewards = np.zeros(total), np.zeros(total)
        for begin, ids, sums in kept:
            last = np.minimum(counted[ids] - begin, len(sums)) - 1
            on = np.flatnonzero(last >= 0)
            costs[ids[on]] += sums[last[on], 0, on]
            rewards[ids[on]] += sums[last[on], 1, on]
        return lengths, counted, masks, e_pre, costs, rewards
    # every round's rows at once: each counts its grid points before its
    # lane's count runs out
    offsets = np.cumsum([0, *(len(part[0]) for part in kept[:-1])])
    row_offsets = np.repeat(offsets, [len(part[3]) for part in kept])
    # joined part by part, so that each part's per-round pieces are freed
    # before the next part is joined
    parts = list(zip(*kept))
    del kept
    begin, ids, terms, row, fixes = (np.concatenate(parts.pop(0)) for _ in range(5))
    row += row_offsets
    m = np.clip(counted[ids] - begin, 0, k)
    costs, rewards = (np.bincount(ids, sums, total)
                      for sums in _row_sums(k, terms.T, row, fixes, n, step_var, m))
    return lengths, counted, masks, e_pre, costs, rewards


def _block_lanes(left: int, dt: float, expected: float, most: int) -> int:
    """The lanes of a trial's block that starts ``left`` grid steps of
    ``dt`` before the horizon: the cycles of mean length ``expected`` there
    plus ``LANE_SPARE``, at most ``most``."""
    return min(most, int(left * dt / expected) + LANE_SPARE)


def _lane_shape(config: ScenarioConfig):
    """``(group, width, most, expected)`` of a broadcast-plus-local level
    config that runs as lanes (``_lane_cycles``): the trials a group holds,
    the rows a round advances (a round of grid steps widens later in a
    block, ``_lane_block``), the most lanes a block holds and a cycle's
    expected length in seconds.

    With ``R`` a cycle's expected rows of ``k = fleet_coarse_steps(config)``
    grid steps and ``narrow = R / LANE_ROUNDS``, a block holds at most
    ``most = CHUNK_BYTES / (n (narrow + 1) entry + (R + narrow) row)`` lanes
    over all its trials, with ``entry`` the bytes a round holds per entry
    (rows x lanes x agents) and ``row`` the bytes a block keeps per row of a
    lane.  A trial's first block holds ``F`` lanes (``_block_lanes``), and a
    group holds as many trials as both ``most`` lanes and rounds of about
    ``LANE_ENTRIES`` entries at least ``narrow`` rows wide allow, at least
    one: a round's fixed work is spent on every lane of the group, and a
    narrow round draws few rows past a lane's exit.  A round advances
    ``LANE_ENTRIES / (group F n)`` rows, at least one and at most ``R`` of
    coarse rows or ``R / LANE_GROWTH`` of grid steps, whose rounds widen
    later, and no more than keep the group's block within ``CHUNK_BYTES``.

    On grid steps an entry holds its running sum and its distance from the
    band's centre, which turns into its square (16 bytes), and each row of
    a lane its peak, the two terms of its cost and their sums (48 bytes over
    the lane's ``n`` entries); a kept row holds two running sums (16
    bytes).  On coarse rows an entry holds its running sum, increment and
    distance (24 bytes) and, if drawn, its ``k - 1`` grid points three
    times over (the bridge store, the deviations and ``_row_terms``' own;
    ``_Bridges.spend`` forms the deviations in the store's place, so one
    of the three is spare);
    a kept row holds its six terms, its start and its lane (64 bytes) and,
    if it holds drawn entries, their corrections to the cost and the reward
    at each grid point.  The drawn share of a round's entries is taken as
    ``2.5 (1 - far / delta)^2 / sqrt(n)`` and the share of rows that hold
    drawn entries as ``1.5 (1 - far / delta)``, each at most 1, as measured
    from n = 20 to 1000 and ``far / delta`` from 0.45 to 0.8 (at the rule's
    edge, n = 20 and ``delta`` 1.393, 0.17 and 0.8), with ``far`` the
    bridge-corrected sampler's (``triggering.coarse_far`` with
    ``crossing``), by which the lanes drew then.  They now draw only beyond
    ``delta - sqrt(20 k dt)``, and over the same range (4 trials of 25 s,
    10 s at n = 200 and 2 s at n = 1000) the drawn share read 0.09x to 0.61x
    the model's and the share of rows holding drawn entries 0.46x to 0.81x
    (0.08 and 0.59 at the rule's edge), so the model now overcounts; it is
    kept, since the shape sets every lane trial's bits.

    A cycle of grid steps is taken to last ``m_n (delta + GRID_EXIT_SHIFT
    sqrt(dt))^2``, close to the grid's mean exit, so that a trial's first
    block holds about the cycles its horizon holds; coarse lanes keep the
    continuous ``m_n delta^2``, on which their lane counts, and so their
    bits, rest.  All four depend on ``(n, delta, dt, horizon)`` alone, never
    on the trials a batch runs or on how full its last group is, so a
    trial's results depend on ``(config, trial)`` alone.  At fleet-large's
    cell (n = 50, threshold 1.8839, 25 s) that is 8 trials of 52 lanes in
    rounds of 6 rows; at table1's (2000 s) one trial of 501 lanes in rounds
    of 5; at fleet-small's (n = 3, threshold 0.74574, 99 s) 4 trials of 371
    lanes in rounds from 17 grid steps."""
    n, dt, k = config.n, config.dt, fleet_coarse_steps(config)
    coarse = k > 1
    delta = config.scheme.delta
    expected = _expected_interevent(config)
    if not coarse:
        expected *= (1 + GRID_EXIT_SHIFT * dt**0.5 / delta) ** 2
    cycle_rows = max(1, round(expected / (k * dt)))
    narrow = max(1, round(cycle_rows / LANE_ROUNDS))
    if coarse:
        out = 1 - coarse_far(delta, dt, k, crossing=True) / delta
        drawn, holding = min(1.0, 2.5 * out * out / n**0.5), min(1.0, 1.5 * out)
        entry = 24 + 3 * 8 * (k - 1) * drawn
        row = 64 + 2 * 8 * (k - 1) * holding
    else:
        entry, row = 16 + 48 / n, 16
    most = max(1, int(CHUNK_BYTES // (n * (narrow + 1) * entry + (cycle_rows + narrow) * row)))
    lanes = _block_lanes(config.steps, dt, expected, most)
    group = max(1, min(most // lanes, LANE_ENTRIES // (lanes * n * narrow)))
    block = group * lanes
    fits = int((CHUNK_BYTES / block - n * entry - cycle_rows * row) // (n * entry + row))
    first = cycle_rows if coarse else max(1, round(cycle_rows / LANE_GROWTH))
    width = max(1, min(first, LANE_ENTRIES // (block * n), fits))
    return group, width, most, expected


def _lane_cycles(config: ScenarioConfig, indices, noise_scale: float = 1.0) -> List[TrialResult]:
    """Run the trials ``indices`` of a broadcast-plus-local level config as
    one group of lane blocks (``_lane_block``), each trial drawing from its
    own stream, and hand each trial's fleet the tallies of each of its
    cycles that starts before the horizon, in cycle order: the event's log
    when the trial logs events, the event counts and the cycle's reward
    and length through ``_Fleet.tally``, as ``_settle`` does, and the cost.

    Every trial of the group starts in the first block.  A trial whose
    lanes all end by the horizon joins the group's next block from the end
    of its last cycle, with the lanes its horizon left needs
    (``_block_lanes``).  The group's size, the round width and the lane
    bound come from ``_lane_shape``, and every block holds at most a first
    block's lanes per trial, so each trial's result is the one it gets
    alone, in a group of one."""
    dt = config.dt
    horizon = config.steps
    _, width, most, expected = _lane_shape(config)
    streams = [NoiseStream(config.seed, i, noise_scale) for i in indices]
    fleets = [_Fleet.start(config) for _ in streams]
    elapsed = _grid_time(horizon, _chunk_steps(config.n), dt)
    for fleet in fleets:
        fleet.acc.elapsed = elapsed
    # the log's own points
    logs = [stream.child(0) for stream in streams] if fleets[0].logged else None
    starts = [0] * len(fleets)
    pending = list(range(len(fleets)))
    while pending:
        lanes = [_block_lanes(horizon - starts[g], dt, expected, most) for g in pending]
        lengths, counted, masks, e_pre, costs, rewards = _lane_block(
            config, [streams[g] for g in pending], lanes, [starts[g] for g in pending], width,
            noise_scale**2 * dt, None if logs is None else [logs[g] for g in pending])
        first = np.cumsum([0, *lanes])
        going = []
        for g, a, b in zip(pending, first, first[1:]):
            fleet = fleets[g]
            complete = int(np.count_nonzero(counted[a:b] == lengths[a:b]))
            steps = (starts[g] + np.cumsum(lengths[a : a + complete])).tolist()
            if fleet.logged:
                for i, step in enumerate(steps):
                    fleet.log_event(e_pre[a + i], masks[a + i], step)
            fleet.tally(steps, masks[a : a + complete], rewards[a : a + complete].tolist())
            fleet.acc.integral_sum += float(costs[a:b].sum()) * dt
            if complete == b - a and steps[-1] < horizon:
                starts[g] = steps[-1]
                going.append(g)
        pending = going
    return [TrialResult(accumulator=fleet.acc, events=fleet.events) for fleet in fleets]


def _runs_lanes(config: ScenarioConfig) -> bool:
    """Whether ``config``'s trials run as lanes of renewal cycles
    (``_lane_cycles``): every broadcast-plus-local level trial, at any
    fleet size, threshold and horizon, on coarse rows
    where ``fleet_coarse_steps`` gives them and on rows of one grid step
    everywhere else.  Measured in alternating pairs of 8-trial batches
    against grid rows (``BENCH_28.json``, ``rule_table``; ``BENCH_29.json``,
    ``lanes_vs_grid_rows``), at the thresholds of global periods from 0.05
    to 0.5 s at dt = 2e-3, lanes of grid steps ran 0.24x to 0.97x the time
    of grid rows from one to seven agents at horizons of 25, 99 and 2000 s;
    from eight to nineteen agents they ran 0.69x to 0.93x at 2000 s
    (``table1``'s n = 10 cell 0.85x) and 0.83x to 1.08x at 99 s, and at 25
    s 0.95x to 1.01x at T = 0.25 but 1.07x to 1.15x at T = 0.5: runs of
    about 50 expected cycles, which no ``table1`` cell or benchmark workload
    holds, pay for one integrator per case.  On narrow bands past 20 agents
    they ran 0.78x to 1.02x."""
    return isinstance(config.scheme, Level) and config.scenario is InfoScenario.BROADCAST_LOCAL


def _chunk_rows(config: ScenarioConfig) -> int:
    """The rows a chunk of ``config``'s trials holds (``_row_trials``): a
    level rule's chunk may draw every grid point of coarse rows (on a
    narrow band every entry lies near it), so the budget bounds those, up
    to ``CHUNK_STEPS`` coarse rows; a periodic rule's rows end at its
    deadlines, of any phase, at most ``_chunk_steps`` of them, and this
    estimate sizes its groups, whose buffer grows to the rows it needs."""
    n, k = config.n, fleet_coarse_steps(config)
    if isinstance(config.scheme, Level):
        return max(1, min(CHUNK_STEPS * k, CHUNK_BYTES // (8 * n * k), config.steps // k))
    phases = len(config.scheme.offsets) or 1
    return min(_chunk_steps(n), phases * (config.steps // k + 1))


def _row_group(config: ScenarioConfig, workers: int) -> int:
    """The trials a group on rows holds (``_row_trials``): as many as keep
    their chunks (``_chunk_bytes``) within ``CHUNK_BYTES``, at least one,
    but no more than give each of ``workers`` processes a group.

    Measured with tracemalloc, groups of eight trials peaked at (bytes per
    entry of their chunks): on deadline rows 18.6 at n = 50 (``table1``'s
    TT-bl, 2000 s), 29 at n = 10 and 59 at n = 3.  On coarse level rows a
    trial added to a group (groups of two to eight, past the first expected
    event) at threshold 5 and 16 grid steps 29.8 at fleet-large's ``et-b``
    cell (n = 50, 25 s), 31.6 at 200 s, 36.8 at n = 200, 83.5 at n = 1000
    (where a chunk holds 1.28 points of its events' fleets per entry) and
    66.7 at n = 3 (the per-row terms); 38.5 to 47.1 at threshold 4, the
    16-step rows' edge (n = 50 to 12), and 26.3 at threshold 8; on 8-step
    rows at threshold 3.1 25.3 to 37.3 from n = 12 to 200, 59.5 at n = 3
    and 89.6 at n = 1000 (1.67 points per entry).  ``COARSE_BYTES`` and
    ``EVENT_BYTES`` bound them all, so from n = 1 to 1000 and threshold 3.1
    to 8 the rule's groups peaked at 0.43 to 0.94 ``CHUNK_BYTES``
    (fleet-large's eight trials run as two groups of four, 0.56), but where
    a trial alone holds more: n = 1000 at threshold 3.1 peaked at 1.46."""
    fits = max(1, CHUNK_BYTES // _chunk_bytes(config))
    return min(fits, -(-config.trials // workers))


def _chunk_bytes(config: ScenarioConfig) -> int:
    """The bytes a trial's chunk takes in a group on rows: ``_chunk_rows``
    plus one rows of ``n`` entries, of ``ROW_BYTES`` each on grid rows of a
    level rule, and on coarse rows, which form cost terms per row, of
    ``DEADLINE_BYTES`` (deadline rows) or ``COARSE_BYTES`` (level rows)
    each plus ``TERM_BYTES`` per row; level rows add ``EVENT_BYTES`` per
    point of the fleet at each expected event."""
    rows, n = _chunk_rows(config) + 1, config.n
    if isinstance(config.scheme, Level):
        k = fleet_coarse_steps(config)
        if k == 1:
            return ROW_BYTES * rows * n
        # each agent's events a row, of n points each
        points = n * n * k * config.dt / _expected_interevent(config)
        return int((COARSE_BYTES * n + EVENT_BYTES * points + TERM_BYTES) * rows)
    return (DEADLINE_BYTES * n + TERM_BYTES) * rows


def _column_window(config: ScenarioConfig) -> int:
    """The rows a round of ``_column_events`` gathers per column for
    ``config``'s trials on grid rows: about ``WINDOW_GAPS`` expected gaps
    between an agent's events, but at most a quarter chunk, so that the NaN
    rows after a block add at most a quarter to the group's buffer."""
    expected = WINDOW_GAPS * _expected_interevent(config) / config.dt
    return max(1, min(int(expected), _chunk_steps(config.n) // 4))


def _row_trials(config: ScenarioConfig, indices, noise_scale: float = 1.0) -> List[TrialResult]:
    """Run the trials ``indices`` of a config that runs on rows (every
    config but ``_runs_lanes``'s) as one group, chunk by chunk, at chunk
    boundaries that depend on the config alone.  Each trial draws its
    block from its own stream; the events come from one deadline lookup
    under a periodic rule (``_chunk_deadlines``), or from one search over
    the group's columns, trial ``g``'s agent ``i``, under a level rule: on
    grid rows ``_column_events``, on coarse rows ``_coarse_level_events``,
    whose grid points each trial draws from its own stream into one bridge
    store, and ``_event_rows``, whose resets ``_settle``'s loop makes.  An
    unlogged group whose events reset at their rows settles at once
    (``_zero_fill`` or ``_subtract_bases``), any other through
    ``_settle``'s loop, every block before any takes its rewards: coarse
    rows form the cost terms of every row of the group in one pass
    (``_CoarseRows``).  Rewards, tallies (``_settle``) and the cost stay per
    trial, so a trial's results are the same in any group."""
    n, dt, scheme = config.n, config.dt, config.scheme
    level = isinstance(scheme, Level)
    coarse = fleet_coarse_steps(config)
    chunk = _chunk_steps(n)
    step_var = noise_scale**2 * dt
    streams = [NoiseStream(config.seed, i, noise_scale) for i in indices]
    fleets = [_Fleet.start(config) for _ in streams]
    elapsed = _grid_time(config.steps, chunk, dt)
    for fleet in fleets:
        fleet.acc.elapsed = elapsed
    logged = fleets[0].logged
    group = len(fleets)
    # the rows a round of the column search gathers, the NaN rows after a
    # block one fewer
    window = _column_window(config) if level and coarse == 1 else 1
    if level:
        delta = scheme.delta
        capacity = _chunk_rows(config)
        far = coarse_far(delta, dt, coarse, crossing=False)
        gaps = max(1, int(WINDOW_GAPS * _expected_interevent(config) / (coarse * dt)))
        # the log's own points (_event_points)
        logs = [stream.child(0) for stream in streams] if logged and coarse > 1 else None
    else:
        # without offsets there is one phase, which every agent shares
        offsets = _phase_offsets(scheme, 1)
        fire_counts = _first_counts(offsets, dt)
        # grid steps whose deadlines a chunk looks up: room for a chunk of
        # coarse rows, but at most CHUNK_BYTES / 8 grid steps over all phases
        # once there are many, which bounds the counter values looked up, and
        # at least one coarse step and one grid step more, the longest gap
        # between two deadlines of a phase, so that every lookup holds one
        reach = max(coarse + 1, min(coarse * chunk, max(chunk, CHUNK_BYTES // (8 * len(offsets)))))

    buffer = np.empty(0)  # grown to the rows a chunk needs
    e = np.zeros((group, n))  # each trial's errors at step done
    done = 0  # completed steps
    while done < config.steps:
        left = config.steps - done
        if level:
            # coarse rows up to the horizon's last whole one, grid steps after it
            k = coarse if left >= coarse else 1
            span = min(capacity, left // k)
        else:
            grid = min(reach, left)
            stops, masks = _chunk_deadlines(fire_counts, offsets, scheme.period, dt, done, grid,
                                            chunk)
            span, k = grid, 1
            if coarse > 1:
                # the rows end at the stops, and the trial's last chunk has
                # one more to its end
                ends = np.concatenate(([0], stops))
                if ends[-1] < grid and grid == left and len(stops) < chunk:
                    ends = np.append(ends, grid)
                span = len(ends) - 1
                k = np.diff(ends).astype(float)[:, None]
        # view[g, r] follows trial g's errors to the end of row r without
        # resets: row 0 holds the current errors, each later row adds a
        # step; coarse rows keep their increments z after the buffer's rows,
        # a row per row of the block, its last one zero
        size = group * (span + window) * n
        need = 2 * size if coarse > 1 else size
        if buffer.size < need:
            buffer = np.empty(need)
        view = buffer[:size].reshape(group, span + window, n)
        rows = view[:, : span + 1]
        rows[:, 0] = e
        for block, stream in zip(rows, streams):
            stream.normals((span, n), out=block[1:])
        view[:, span + 1 :] = np.nan
        rows[:, 1:] *= np.sqrt(k * dt)  # a row of k grid steps
        if coarse > 1:
            z = buffer[size:need].reshape(group, span + 1, n)
            np.copyto(z[:, :span], rows[:, 1:])
            z[:, span] = 0.0
        _running_sum(rows)
        # coarse level rows reset at the points the search drew, and the few
        # grid rows after the last whole one settle sooner segment by segment
        settled = not logged and not (level and coarse > 1)
        coarse_rows = None
        if level and k > 1:
            # trial g's block is rows g (span + 1) to g (span + 1) + span
            flat = view.reshape(-1, n)
            bridges = _Bridges(flat, streams, k, dt, height=span + 1)
            times, masks, resets = _coarse_level_events(bridges, delta, far, k, gaps)
            log = None if logs is None else _Bridges(flat, logs, k, dt, height=span + 1)
            stops, coarse_rows = _event_rows(bridges, z.reshape(-1, n), times, resets,
                                             step_var, log)
            del bridges, log
            bounds = coarse_rows.bounds
        elif level:
            keys, masks = _event_masks(*_column_events(view, span, delta, window), span + 1, n)
            if settled:
                _subtract_bases(view, span + 1, keys, masks)
            bounds = np.searchsorted(keys, np.arange(group + 1) * (span + 1)).tolist()
            stops = (keys % (span + 1)).tolist()
        else:
            count = len(stops)
            masks = np.broadcast_to(masks, (count, n))
            if coarse > 1:
                coarse_rows = _CoarseRows(view.reshape(-1, n), ends, z.reshape(-1, n), step_var,
                                          np.tile(stops, group), bounds=np.arange(group + 1) * count)
                stops = np.arange(1, count + 1)
            if settled and count and stops[-1] - stops[0] == count - 1 and masks.all():
                _zero_fill(rows, stops[0], stops[-1])
            elif settled:
                keys = (np.arange(group)[:, None] * (span + 1) + stops).reshape(-1)
                _subtract_bases(view, span + 1, keys, np.tile(masks, (group, 1)))
            stops = stops.tolist()
            bounds = None
        # each trial's stops, coarse rows and masks: under a level rule its
        # share of the group's events, under a periodic one every deadline
        parts = []
        for g in range(group):
            trial_rows = None if coarse_rows is None else coarse_rows.trial(g)
            if bounds is None:
                parts.append((stops, trial_rows, masks))
            else:
                a, b = bounds[g], bounds[g + 1]
                parts.append((stops[a:b], trial_rows, masks[a:b]))
        if not settled:
            # every block settles before any takes its rewards: coarse rows
            # form the group's cost terms in one pass
            for fleet, block, (stops, trial_rows, masks) in zip(fleets, rows, parts):
                _reset_segments(fleet, block, stops, masks, done, trial_rows)
        for fleet, block, (stops, trial_rows, masks) in zip(fleets, rows, parts):
            _settle(fleet, block, stops, masks, done, trial_rows, settled=True)
        if coarse_rows is None:
            # left-endpoint rectangles: x'Lx = e'Le, since L annihilates c*1;
            # each trial's rows are summed on their own
            costs = consensus_cost_rows(rows[:, :-1]).sum(axis=1).tolist()
            done += span
        else:
            costs = [trial_rows.cost() for _, trial_rows, _ in parts]
            done += int(coarse_rows.ends[-1])
        for fleet, cost in zip(fleets, costs):
            fleet.acc.integral_sum += cost * dt
        e[:] = rows[:, -1]
        # the chunk's drawn points and cost terms go before the next chunk's
        parts = coarse_rows = trial_rows = None
    return [TrialResult(accumulator=fleet.acc, events=fleet.events) for fleet in fleets]


def _chunk_steps(n: int) -> int:
    """Grid rows per chunk: ``CHUNK_STEPS``, fewer past the chunk budget."""
    return min(CHUNK_STEPS, max(1, CHUNK_BYTES // (8 * n)))


def _grid_time(steps: int, chunk: int, dt: float) -> float:
    """``steps`` grid steps of ``dt`` as a trial's elapsed time, summed
    ``chunk`` steps at a time, so that its bits do not depend on how long
    the rows that covered them were."""
    whole, rest = divmod(steps, chunk)
    elapsed = 0.0
    for _ in range(whole):
        elapsed += chunk * dt
    return elapsed + rest * dt


def run_trial(config: ScenarioConfig, trial_index: int, noise_scale: float = 1.0) -> TrialResult:
    """Simulate one trial, deterministic in ``(config, trial_index)``: a
    group of one, as lanes of renewal cycles (``_lane_cycles``,
    ``_runs_lanes``) or on rows (``_row_trials``), whose result is the one
    the trial gets in any group.  ``fleet_coarse_steps`` gives the grid
    steps a row covers; on rows of one grid step a trial on rows follows
    the per-step reference (``run_trial_reference``) pathwise.

    ``noise_scale`` is a diagnostic multiplier on the driving noise
    (-1 flips its sign, 0 silences it).
    """
    return _run_group(config, [trial_index], noise_scale)[0]


# ---------------------------------------------------------------------------
# plain per-step reference integrator (validation aid)


def run_trial_reference(
    config: ScenarioConfig, trial_index: int, noise_scale: float = 1.0, *,
    trajectory_stride: Optional[int] = None,
) -> TrialResult:
    """Per-step integrator that validates ``run_trial``.

    It shares the event protocol, the error coordinates and the cost form
    with the fast path but does its own stepping (one draw per agent per
    step), trigger detection and per-step cost and reward summation, and
    hands ``_settle`` one event at a time, a block of the one row it fires
    at; so comparing the two checks the chunked running sums and their
    resets, the trigger search and the deadline counters.  Trigger
    instants come out identical, cost tallies equal up to summation order.
    Slow (pure Python loop); meant for short horizons.

    With ``trajectory_stride`` it records the trajectory
    (``TrialResult``): the row at step 0, a row at every multiple of the
    stride, and a row at every event, which takes its step's stride row.
    The trajectory moves no bit of the tallies or the events.
    """
    if trajectory_stride is not None:
        check_count("trajectory_stride", trajectory_stride)
    n = config.n
    dt = config.dt
    scheme = config.scheme
    level = isinstance(scheme, Level)
    stream = NoiseStream(config.seed, trial_index, noise_scale)
    fleet = _Fleet.start(config, trajectory=trajectory_stride is not None)
    acc = fleet.acc
    if fleet.trajectory is not None:
        fleet.log_state(0, fleet.e, 0)
    due = None if level else _deadline_rule(scheme, dt, n)

    for step in range(1, config.steps + 1):
        e = fleet.e
        acc.integral_sum += float(consensus_cost_rows(e)) * dt
        acc.elapsed += dt
        fleet.cycle_reward += e[0] * e[0] * dt
        fleet.e = e + stream.normals(n) * np.sqrt(dt)
        if level:
            fired = np.abs(fleet.e) >= scheme.delta
        else:
            fired = np.zeros(n, dtype=bool)
            fired[due(step)] = True
        event = bool(fired.any())
        if event:
            # the errors are the running sum of a one-row block: the row
            # settles in place
            _settle(fleet, fleet.e[None], [0], fired[None], step)
        if fleet.trajectory is not None and (event or step % trajectory_stride == 0):
            fleet.log_state(step, fleet.e, int(event))

    return TrialResult(accumulator=acc, events=fleet.events, trajectory=fleet.trajectory)


def _periodic_due(step: int, scheme: Periodic, dt: float, n: int) -> np.ndarray:
    """Agents with a deadline at grid step ``step``, stateless; the fast
    path counts deadlines per agent instead, by the same rules
    (``periodic_fire_step``, ``_first_counts``).  It looks up the last
    deadline due by ``step`` in exact arithmetic and its neighbours, which
    rounding may move onto ``step``."""
    return _deadline_rule(scheme, dt, n)(step)


def _deadline_rule(scheme: Periodic, dt: float, n: int):
    """``_periodic_due`` of one schedule as a function of the grid step,
    with its per-agent constants, the phases and their first deadline
    counts, formed once."""
    offsets = _phase_offsets(scheme, n)
    phases = offsets[:, None]
    first = _first_counts(offsets, dt)[:, None]
    near = np.arange(-1, 2)
    period = scheme.period

    def due(step: int) -> np.ndarray:
        count = np.floor((step * dt + EPS_REL * dt - offsets) / period).astype(np.int64)
        counts = count[:, None] + near
        hit = periodic_fire_step(phases + counts * period, dt) == step
        return np.flatnonzero((hit & (counts >= first)).any(axis=1))

    return due

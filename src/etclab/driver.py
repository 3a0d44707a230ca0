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

The production path takes the noise in chunks of rows sized from a
memory budget, drawn straight into one chunk buffer that the whole trial
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
(one counter when the rule has no phase offsets), or one call per slice of
phases when short periods of many phases would make that grid outgrow a
fixed share of the chunk budget.  Then ``_settle``, the one event
protocol, settles them in order: one subtraction per segment between
events turns the running sums into errors (rows that each hold an event
resetting every agent are zeroed at once), agent 0's reward adds up per
segment and the events are counted at once.  One cost pass covers the
chunk's left endpoints.  Only chunk boundaries move its rounding; the
search window and the pairing of agents do not.  With every row one
grid step, the path consumes the noise stream in exactly the same order
as the plain per-step loop kept as ``run_trial_reference``, which steps,
detects triggers and sums costs on its own and hands ``_settle`` one
event at a time; the test suite compares the two.

A periodic schedule has no band to watch, so its deadlines are known
before any noise is drawn, and only the cost needs every grid point.  So
under a periodic rule a row is a coarse step from one deadline, of any
phase, to the next, or to the horizon, with one draw per agent per step.
Given a step's ends its grid points form a discrete Brownian bridge, and
the cost over them, and agent 0's reward, are taken as their exact
conditional expectations (``_bridge_sums``): conditional Monte Carlo, with
the grid fleet's mean and no larger a variance.  Event times, counts,
cycle lengths and the elapsed time stay in grid steps, so they are the
grid fleet's, bit for bit; on rows of one grid step
(``fleet_coarse_steps`` of 1) the whole trial is.

A level rule on a wide enough band (``fleet_coarse_steps``, a function of
the threshold and the grid step) takes coarse steps too, with one draw
per agent per step, and draws the grid points between an agent's coarse
points only where the first-exit sampler would: where an end lies beyond
``far`` of the agent's base (``triggering.coarse_far``), from the exact
discrete bridge through the sampler's ``triggering.bridge_point``.  Any
other entry reaches the band with probability below ``2 exp(-40)``.  The
search runs in rounds, per chunk, with one body for both information
cases (``_coarse_level_events``): it follows each agent from its own last
reset, and under broadcast-plus-local the fleet's first coarse crossing
bounds every agent's round, the earliest hit is the event and every agent
resets there.  A row that holds an event before its end is drawn whole
and settled grid step by grid step (``_refined_rows``), so resets,
initiators and logged states are exact.  The cost and agent 0's
reward take the drawn points as they are and the bridge law for the rest
(``_CoarseRows``): the conditional expectation given what was drawn.
Such a fleet is exact in law, not pathwise: its gates are the whole-law
test of its exit steps and the grid level law's cost
(``costs.grid_level_law``).  A trial that records a trajectory keeps one
row per grid step under either rule, as does a level rule on a narrower
band.  Trials are embarrassingly parallel: each owns a substream keyed
by its index, and batches merge per-trial results in fixed index order.
"""

import os
import warnings
from dataclasses import dataclass
from functools import partial
from typing import List, Optional

import numpy as np

from .checks import check_count, check_positive
from .control import Average, ConsensusRule, Fixed, InfoScenario, Leader, consensus_value
from .costs import CostAccumulator, CostReport, finalize, mean_exit_time
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

CHUNK_STEPS = 2048
# the noise block of a chunk holds at most CHUNK_BYTES (8 per draw), so
# fleets beyond CHUNK_BYTES / (8 * CHUNK_STEPS) = 512 agents get fewer rows
# the level rule searches for crossings in bounded windows so that a hit early
# in a chunk does not scan the whole remainder
LEVEL_LOOKAHEAD = 256
# a round of the coarse level search covers about this many expected gaps
# between an agent's events (broadcast-only) or the fleet's (broadcast-plus-local)
WINDOW_GAPS = 2.0


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
    record_trajectory: bool = False
    trajectory_stride: int = 50

    def __post_init__(self):
        check_count("agent count", self.n)
        check_positive("dt", self.dt)
        check_positive("horizon", self.horizon)
        if self.horizon < self.dt:
            raise ValueError("horizon must cover at least one step")
        check_count("trials", self.trials)
        check_count("seed", self.seed, 0)
        check_count("trajectory_stride", self.trajectory_stride)
        if not isinstance(self.rule, (Average, Leader, Fixed)):
            raise ValueError(
                f"unknown consensus rule of type {type(self.rule).__name__}: "
                "expected Average, Leader or Fixed"
            )
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
    """The most grid steps one row of ``config``'s trials covers.

    A periodic rule's deadlines are known before any noise is drawn, so its
    rows run from one deadline to the next: the bound is the period in grid
    steps, the grid step of a deadline one period in
    (``triggering.periodic_fire_step``), since no gap between deadlines is
    longer.  A level rule's rows are ``MAX_COARSE_STEPS`` grid steps long
    when its band is wide enough for them to pay: when ``far``
    (``triggering.coarse_far``), the distance from the band's centre
    beyond which a coarse step's grid points are drawn, is at least three
    quarters of the threshold, which at ``dt = 2e-3`` means ``delta >=
    3.06``.  That depends on ``(delta, dt)`` alone.  On narrower bands the
    search's work per event outweighs the draws that coarse rows save, and
    the rows stay one grid step: measured per cell (``BENCH_17.json``),
    ``table1``'s ET cells of thresholds 2.24 (n = 10, broadcast-only) and
    1.89 (n = 50, broadcast-plus-local) ran 1.03x and 1.16x slower on
    coarse rows, its n = 50 broadcast-only cell (threshold 5) 1.56x
    faster.  A trial that
    records a trajectory shows every stride row, so its rows are grid steps
    under either rule.
    """
    scheme = config.scheme
    if config.record_trajectory:
        return 1
    if isinstance(scheme, Periodic):
        return int(periodic_fire_step(np.float64(scheme.period), config.dt))
    if coarse_far(scheme.delta, config.dt, MAX_COARSE_STEPS) < 0.75 * scheme.delta:
        return 1
    return MAX_COARSE_STEPS


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
            coarse_rows: Optional["_CoarseRows"] = None) -> None:
    """Settle, in event order, the events of a block of running sums.

    ``rows[k]`` is the state at the end of row ``k`` of the block, which
    ends ``k`` grid steps after step ``done`` (``coarse_rows.ends[k]`` of
    them when the rows are coarse steps), as a running sum from row 0,
    which holds the errors, with no reset applied; the event at row
    ``stops[j]`` (ascending) has the initiators ``masks[j]``, a boolean
    row per event.

    Broadcast-only: the initiators' estimates become their true states, the
    consensus point ``c`` is announced, and every agent jumps by ``c -
    xhat``, which lands the initiators exactly on ``c`` and keeps everyone
    else's estimate error.  Broadcast-plus-local: the fleet resets exactly
    to ``c``.  In error coordinates both zero the errors of the agents they
    reset (the initiators, or everyone), so the rows from one event up to
    the next are errors once each agent's running sum at its last reset is
    subtracted: one subtraction per segment, in place, which also zeroes the
    reset errors at the event row.  When every event resets every agent and
    nothing is logged, two cases skip the loop, with the same bits.  If
    every row from the first stop to the last holds an event, as every chunk
    of a synchronous schedule's deadline rows does, each of those rows is a
    segment of its own, one row minus itself, so they are written as zeros,
    and one subtraction of the last stop's row covers the rows after it.
    Otherwise, if there is at least one event per 4096 entries of the block
    and at most one per eight rows, the bases are the raw running sums at
    the stops, gathered at once, and one indexed subtraction covers the
    block.  Once the block holds errors, agent 0's renewal reward is formed
    per segment in one pass: over grid rows it adds up over the segment's
    left endpoints (the last row's step belongs to the next block), a slice
    of agent 0's column per segment, over coarse rows it takes the
    expectation of ``_bridge_sums``.  Per event the renewal cycle closes (on
    every global event, or on agent 0's own events under broadcast-only).
    The events are counted at once.  A logged trial forms each event's
    consensus point from ``x = c_prev + e`` and logs the event, and the
    trajectory rows, in order.
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
    if coarse_rows is None:
        steps = [done + stop for stop in stops]
    else:
        steps = (done + coarse_rows.ends[stops]).tolist()
    trajectory = fleet.trajectory
    stride = config.trajectory_stride
    span = len(rows) - 1
    resets_all = (count and not fleet.logged and trajectory is None
                  and (not broadcast_only or masks.all()))
    if resets_all and stops[-1] - stops[0] == count - 1:
        # every row from the first stop to the last is an event that resets
        # every agent, so each is a segment of its own, which its subtraction
        # zeroes (x - x is +0.0); the rows after the last stop take its base
        last = stops[-1]
        rows[last + 1 :] -= rows[last]
        rows[stops[0] : last + 1] = 0.0
    elif resets_all and span * config.n <= 4096 * count <= 512 * span:
        # every event resets every agent, so each segment's base is the raw
        # running sum at the stop that starts it: one gather, one subtraction.
        # That pays once there is an event per 4096 entries of the block, and
        # up to one event per eight rows keeps the gathered bases within an
        # eighth of the block
        bases = rows[stops]
        rows[stops[0] :] -= bases[np.repeat(np.arange(count), np.diff([*stops, span + 1]))]
    else:
        base = np.zeros(config.n)  # each agent's running sum at its last reset
        start = 0
        for k, stop in enumerate([*stops, span + 1]):
            if k:
                rows[start:stop] -= base
            if trajectory is not None:
                if k:
                    fleet.log_state(done + start, rows[start], 1)
                # an event row takes the place of its step's stride row
                for j in range(start + 1 + (-(done + start + 1)) % stride, stop, stride):
                    fleet.log_state(done + j, rows[j], 0)
            if k == count:
                break
            mask = masks[k]
            if fleet.logged:
                fleet.log_event(rows[stop] - base, mask, steps[k])
            np.copyto(base, rows[stop], where=mask if broadcast_only else True)
            start = stop
    if coarse_rows is None:
        # agent 0's reward per segment, over its left endpoints: the last
        # row's step belongs to the next block
        lead = rows[:span, 0]
        bounds = [0, *stops, span]
        rewards = [float(lead[a:b] @ lead[a:b]) for a, b in zip(bounds, bounds[1:])]
    else:
        rewards = coarse_rows.segment_rewards(rows, stops)
    for k, reward in enumerate(rewards):
        fleet.cycle_reward += reward * dt
        if k < count and closes[k]:
            step = steps[k]
            acc.close_cycle(fleet.cycle_reward, (step - fleet.cycle_start) * dt)
            fleet.cycle_reward = 0.0
            fleet.cycle_start = step


def _phase_offsets(scheme: Periodic, n: int) -> np.ndarray:
    if not scheme.offsets:
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


class _Bridges:
    """The grid points inside the coarse steps of one chunk, drawn on demand.

    ``rows`` holds the chunk's running sums at its coarse points; entry
    ``e`` is agent ``e % n``'s step from row ``e // n`` to the next, which
    covers ``k`` grid steps.  ``draw`` fills in the ``k - 1`` grid points of
    each entry not drawn before from the exact discrete Brownian bridge
    between its ends (``triggering.bridge_point``), level by level, from one
    ``normals((k - 1, m))`` block for the ``m`` fresh entries in ascending
    order, and only looks up the entries drawn before.  Which entries get
    drawn depends on the coarse points and on earlier draws alone, never on
    the entry's own grid points, and no entry is drawn twice, so every drawn
    point follows the bridge law.
    """

    def __init__(self, rows: np.ndarray, stream: NoiseStream, k: int, dt: float):
        self.rows = rows
        self.n = rows.shape[1]
        self.stream = stream
        self.levels = bridge_levels(k, dt)[:-1]  # the end is a coarse point
        self.slot = np.full((len(rows) - 1) * self.n, -1, dtype=np.int32)
        self.store = np.empty((k - 1, 256))  # column per slot: the grid points 1 .. k - 1
        self.owner = np.empty(256, dtype=np.int64)  # entry per slot
        self.count = 0

    def draw(self, entries: np.ndarray) -> np.ndarray:
        """Draw the grid points of the ``entries`` not drawn yet, which must
        be in ascending order, and look up the others; return the columns of
        ``store`` that hold each entry's points."""
        slots = self.slot[entries]
        fresh = slots < 0
        new = entries[fresh]
        m = new.size
        if not m:
            return slots
        count = self.count
        if count + m > self.store.shape[1]:
            grown = np.empty((len(self.levels), 2 * (count + m)))
            grown[:, :count] = self.store[:, :count]
            self.store = grown
            self.owner = np.resize(self.owner, 2 * (count + m))
        flat = self.rows.reshape(-1)
        a, end = flat[new], flat[new + self.n]
        noise = self.stream.normals((len(self.levels), m))
        for j, (r, sd) in enumerate(self.levels):
            a = bridge_point(noise[j], a, end.copy(), r, sd)
        self.store[:, count : count + m] = noise
        self.owner[count : count + m] = new
        slots[fresh] = self.slot[new] = np.arange(count, count + m)
        self.count = count + m
        return slots

    def points(self, entries: np.ndarray) -> np.ndarray:
        """The grid points 1 .. k - 1 of drawn ``entries``, a column each."""
        return self.store[:, self.slot[entries]]


def _coarse_level_events(bridges: _Bridges, delta: float, far: float, k: int,
                         local: bool, window: int):
    """``(times, masks)`` of the level rule's events in a chunk of coarse
    running sums: the grid points, counted from the chunk's start, at which
    some agent's error reaches ``delta``, ascending, and per event the
    agents that reach it there.

    Each agent's error is its running sum minus its running sum at its last
    reset, ``base``.  The search runs in rounds over up to ``window`` coarse
    rows from the earliest point not yet searched.  An agent's first coarse
    point beyond ``delta`` after the point it was last searched through
    bounds its next event, and a round searches each agent's rows up to
    there.  It draws the grid points of every entry of those rows with an
    end beyond ``far`` of its agent's base (``_Bridges.draw``; any other
    entry reaches the band with probability below ``2 exp(-40)``) and takes
    each agent's first grid point in the band's complement after the point
    it was searched through; that hit, or else the bounding crossing, is
    the agent's event, which resets it alone under broadcast-only
    information.  Under broadcast-plus-local every event resets every
    agent, so the fleet's first coarse crossing bounds every agent's
    search, the row that ends there, which most often holds the event, is
    drawn whole, only the earliest hit is an event, with the agents that
    reach the band there as its initiators, and every agent resets at it;
    a reset inside a row draws that row whole.  A lone agent's search is
    the same under either information.
    """
    rows = bridges.rows
    span, n = len(rows) - 1, rows.shape[1]
    last = span * k
    inner = np.arange(1, k)[:, None]  # the grid points inside a row
    base = np.zeros(n)
    everyone = np.arange(n)
    times, agents = [], []
    done = np.zeros(n, dtype=np.int64)  # each agent is searched through this point
    while True:
        live = np.flatnonzero(done < last)
        if not live.size:
            break
        whole = live.size == n
        cols = slice(None) if whole else live
        start = done[cols]
        lo = int(start.min()) // k
        hi = min(lo + window, span)
        dist = rows[lo : hi + 1, cols] - base[cols]
        np.abs(dist, out=dist)
        row = np.arange(hi - lo)[:, None]
        first = start // k - lo  # the row each agent starts in
        later = first.any()  # some agent starts past the window's first row
        over = dist[1:] >= delta
        if later:
            over &= row >= first
        crossed = over.any(axis=0)
        stop = np.where(crossed, over.argmax(axis=0) + 1, hi - lo)
        # an agent's coarse crossing is its event unless a grid point before it is
        ends = np.full(n, last + 1)
        ends[live] = np.where(crossed, (lo + stop) * k, last + 1)
        near = dist > far
        need = near[:-1] | near[1:]
        if local and crossed.any():
            stop = int(stop.min())  # the fleet's first crossing bounds every search
            need[stop - 1] = True  # the row that most often holds the event
        need &= row < stop
        if later:
            need &= row >= first
        r, c = np.nonzero(need)
        entries = (r + lo) * n + (c if whole else live[c])
        if entries.size:
            agent = entries % n
            slots = bridges.draw(entries)
            hit = np.abs(bridges.store[:, slots] - base[agent]) >= delta
            hit &= inner + (entries // n * k) > start[c]
            h = np.flatnonzero(hit.any(axis=0))
            if h.size:
                # entries run row by row, so an agent's first hit comes first
                who, once = np.unique(agent[h], return_index=True)
                h = h[once]
                j = hit[:, h].argmax(axis=0)
                ends[who] = entries[h] // n * k + j + 1
        done[live] = (lo + stop) * k
        if local:  # only the earliest hit is an event
            ends[ends > ends.min()] = last + 1
        fired = np.flatnonzero(ends <= last)
        if not fired.size:
            continue
        at = ends[fired]
        times.append(at)
        agents.append(fired)
        if local:  # every agent resets at the event
            fired, at = everyone, np.full(n, at[0])
        row, j = np.divmod(at, k)
        base[fired] = rows[row, fired]
        inside = np.flatnonzero(j)
        if inside.size:
            slots = bridges.draw(row[inside] * n + fired[inside])
            base[fired[inside]] = bridges.store[j[inside] - 1, slots]
        done[fired] = at
    if not times:
        return np.zeros(0, dtype=np.int64), np.zeros((0, n), dtype=bool)
    times, agents = np.concatenate(times), np.concatenate(agents)
    at, event = np.unique(times, return_inverse=True)
    masks = np.zeros((at.size, n), dtype=bool)
    masks[event, agents] = True
    return at, masks


def _refined_rows(bridges: _Bridges, increments: np.ndarray, times: np.ndarray, k: int,
                  step_var: float):
    """``(rows, stops, coarse_rows)`` for ``_settle``: the chunk's coarse
    rows with every row that holds an event before its end drawn whole
    (``_Bridges.draw``) and split into its ``k`` grid steps, the rows of the
    events at ``times`` (grid points from the chunk's start), and their
    ``_CoarseRows``, which carry the grid points drawn in the other rows.
    Without such rows the running sums are used as they are."""
    rows = bridges.rows
    span, n = len(rows) - 1, rows.shape[1]
    split = np.unique(times[times % k != 0] // k)
    shift = np.zeros(span + 1, dtype=np.int64)
    shift[split + 1] = k - 1
    at = np.arange(span + 1) + np.cumsum(shift)  # where each coarse point goes
    size = at[-1] + 1
    ends = np.empty(size, dtype=np.int64)
    ends[at] = np.arange(span + 1) * k
    coarse = np.ones(span, dtype=bool)
    coarse[split] = False
    # exact grid points minus their bridge means, for the coarse rows' drawn entries
    drawn = np.sort(bridges.owner[: bridges.count])
    drawn = drawn[coarse[drawn // n]]
    row, agent = np.divmod(drawn, n)
    d = bridges.points(drawn).T
    d -= (rows.reshape(-1)[drawn, None]
          + increments.reshape(-1)[drawn, None] * (np.arange(1, k) / k))
    if split.size:
        grid = at[split, None] + np.arange(1, k)
        ends[grid] = split[:, None] * k + np.arange(1, k)
        out = np.empty((size, n))
        out[at] = rows
        whole = bridges.draw((split[:, None] * n + np.arange(n)).reshape(-1))
        out[grid] = bridges.store[:, whole].reshape(k - 1, split.size, n).transpose(1, 0, 2)
        # a grid step's increment enters its cost with weight zero (_bridge_sums)
        steps = np.empty((size - 1, n))
        steps[at[:-1]] = increments
        steps[grid] = 0.0
        rows, increments = out, steps
    stops = (at[times // k] + times % k).tolist()
    return rows, stops, _CoarseRows(ends, increments, step_var, (at[row], agent, d))


def _chunk_deadlines(fire_counts, offsets, period, dt, done, span, limit):
    """``(stops, masks)`` of the first ``limit`` grid steps that hold
    periodic deadlines in the ``span`` grid steps after step ``done``: those
    steps, counted from ``done``, ascending, and per step a boolean mask of
    the phases due there.

    ``fire_counts[i]`` numbers phase ``i``'s next deadline
    ``offsets[i] + fire_counts[i] * period``; the caller advances it past
    the deadlines it settles.  Each ``periodic_fire_step`` call maps a
    ``(phases, m)`` grid of counter values to grid steps, with ``m`` one
    more than ``span`` steps can hold.  A grid takes as many phases as fit
    in ``CHUNK_BYTES / 64`` entries, at least one, so short periods of
    many phases are looked up in slices of phases, each slice twice when
    there are several: once for the steps, once for the masks.  The stops
    come from the grid's own entries and the masks get one row per kept
    stop, so neither grows with ``span``: a chunk keeps at most ``limit``
    stops, as many as it has rows.
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
    return stops, masks[:-1]


def _coarse_ends(stops, span, coarse, limit, final):
    """``ends``, the grid steps from the chunk's start at which its coarse
    rows end, with ``ends[0] = 0``: at most ``limit`` rows within ``span``
    steps that hold deadlines at ``stops``.

    A row runs ``coarse`` grid steps, cut short at the next deadline, and
    the next row starts there.  The rows therefore depend on the schedule
    alone, not on where a chunk starts: a row that ``span`` cuts short
    where no deadline is, unless the horizon ends there (``final``), is
    left to the next chunk.  ``span >= coarse`` unless ``final``, so at
    least one row is kept.  With ``coarse`` the period in grid steps
    (``fleet_coarse_steps``) no gap between deadlines is longer, so every
    row runs from one deadline to the next, or to the horizon.  ``stops``
    may hold only the first ``limit`` deadlines of the span: each ends a
    row, so the rows kept end by the last of them.
    """
    lo = np.concatenate(([0], stops))
    hi = np.append(stops, span)
    counts = (hi - lo + coarse - 1) // coarse
    if not final and (span - lo[-1]) % coarse:
        counts[-1] -= 1
    seg = np.repeat(np.arange(lo.size), counts)
    stride = np.arange(1, seg.size + 1) - (np.cumsum(counts) - counts)[seg]
    ends = np.minimum(lo[seg] + coarse * stride, hi[seg])[:limit]
    return np.concatenate(([0], ends))


def _bridge_sums(k, aa, az, zz, var):
    """Per coarse step of ``k`` grid steps, the expectation of a quadratic
    form ``q`` of the errors summed over the step's ``k`` left endpoints,
    given the step's post-reset start ``a`` and its increment ``z``, with
    ``aa = q(a)``, ``az = q(a, z)``, ``zz = q(z)`` and ``var`` the trace of
    ``q`` times the variance of one grid step's increment.

    Given its endpoints, a coarse step's grid points form a discrete
    Brownian bridge (Glasserman, *Monte Carlo Methods in Financial
    Engineering*, 2004, section 3.1): grid point ``j`` has mean ``m_j = a +
    z j / k`` and, per agent and independently, variance ``v_j = j (k - j)
    / k`` grid-step variances.  So the sum of ``q(m_j) + var v_j`` over
    ``j < k`` is ``k aa + (k - 1) az + C zz + var (k^2 - 1) / 6`` with ``C =
    (k - 1)(2k - 1) / (6k)``; with the pre-reset end ``b = a + z`` that is
    ``A q(a) + B q(a, b) + C q(b)``, ``A = 1 + C``, ``B = 2 ((k - 1) / 2 -
    C)``, plus the variance term.  At ``k = 1`` every term but ``aa``
    is an exact zero.  Replacing the grid points by this expectation is
    conditional Monte Carlo (Asmussen & Glynn, *Stochastic Simulation*,
    2007, ch. V): the same mean, and no larger a variance.
    """
    sums = k * aa
    sums += (k - 1) * az
    sums += (k - 1) * (2 * k - 1) / (6 * k) * zz
    sums += var * (k * k - 1) / 6
    return sums


class _CoarseRows:
    """The coarse rows of one chunk: row ``r`` ends ``ends[r]`` grid steps
    after the chunk's start, and the step from row ``r`` to row ``r + 1``
    is ``k[r]`` grid steps long and has the increments ``increments[r]``,
    drawn with variance ``k[r] * step_var`` per agent.

    ``refined``, if given, is ``(row, agent, d)`` for the entries of coarse
    steps whose grid points were drawn: per entry its row, its agent and its
    ``k - 1`` inner grid points minus their bridge means.  The cost and the
    reward then take those points as they are and the bridge law for the
    rest: given what was drawn, agents are independent, so for a quadratic
    form the drawn entries correct the bridge sums by their own terms and by
    their cross terms with the row's summed means.
    """

    def __init__(self, ends: np.ndarray, increments: np.ndarray, step_var: float,
                 refined=None):
        self.ends = ends
        self.increments = increments
        self.k = np.diff(ends).astype(float)
        self.step_var = step_var
        self.refined = refined
        self._terms = None  # _drawn_terms of the settled rows, once formed

    def _drawn_terms(self, rows: np.ndarray):
        """``(cost, rewards)``: what the drawn entries add to the bridge sums
        of the settled ``rows``, to the chunk's ``sum x'Lx`` and per row to
        agent 0's ``sum e_0^2``, formed once.  Given what was drawn, agents are
        independent, so at each inner grid point ``n sum (m + d)^2 - (S +
        D)^2`` replaces ``n sum (m^2 + v) - S^2 - sum v`` over a row's drawn
        entries, with ``m`` their bridge means, ``v`` their variances, and
        ``S`` and ``D`` the row's sums of ``m`` over all agents and of ``d``
        over the drawn ones."""
        if self._terms is not None:
            return self._terms
        row, agent, d = self.refined
        rewards = np.zeros(len(rows) - 1)
        if not len(row):
            self._terms = 0.0, rewards
            return self._terms
        k = d.shape[1] + 1
        j = np.arange(1, k)
        flat = row * rows.shape[1] + agent
        m = rows.reshape(-1)[flat, None] + self.increments.reshape(-1)[flat, None] * (j / k)
        v = self.step_var * j * (k - j) / k
        own = d * (2 * m + d)
        n = rows.shape[1]
        first = np.flatnonzero(np.diff(row, prepend=-1))
        at = row[first]
        s = rows[at].sum(axis=1)[:, None] + self.increments[at].sum(axis=1)[:, None] * (j / k)
        dsum = np.add.reduceat(d, first, axis=0)
        cost = (n * float(own.sum()) - (n - 1) * len(row) * float(v.sum())
                - float((dsum * (2 * s + dsum)).sum()))
        lead = agent == 0
        rewards[row[lead]] = (own[lead] - v).sum(axis=1)
        self._terms = cost, rewards
        return self._terms

    def cost(self, rows: np.ndarray) -> float:
        """Expected ``sum x'Lx`` over the grid points of the chunk's steps,
        from the settled rows ``rows``, its post-reset errors."""
        a, z = rows[:-1], self.increments
        n = rows.shape[1]
        sums = _bridge_sums(self.k, consensus_cost_rows(a), consensus_cost_rows(a, z),
                            consensus_cost_rows(z), n * (n - 1) * self.step_var)
        if self.refined is None:
            return float(sums.sum())
        return float(sums.sum()) + self._drawn_terms(rows)[0]

    def segment_rewards(self, rows: np.ndarray, stops: List[int]) -> List[float]:
        """Expected ``sum e_0^2`` over the grid points of the steps from each
        of row 0 and the rows ``stops`` up to the next of them."""
        a, z = rows[:-1, 0], self.increments[:, 0]
        sums = _bridge_sums(self.k, a * a, a * z, z * z, self.step_var)
        if self.refined is not None:
            sums += self._drawn_terms(rows)[1]
        # a zero past the end is the sum of an empty last segment
        return np.add.reduceat(np.append(sums, 0.0), [0, *stops]).tolist()


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
    """Simulate one trial, deterministic in ``(config, trial_index)``.

    ``noise_scale`` is a diagnostic multiplier on the driving noise
    (-1 flips its sign, 0 silences it).

    Under a periodic rule (``fleet_coarse_steps``) a row is a coarse step
    from one deadline, of any phase, to the next, or to the horizon, with
    one ``N(0, k dt)`` draw per agent for a step of ``k`` grid steps; the
    cost and agent 0's reward over its grid points are their expectations
    given its endpoints (``_bridge_sums``).  Event times, cycle lengths and
    the elapsed time stay in grid steps.  A level rule on a wide enough band
    steps ``MAX_COARSE_STEPS`` grid steps a row up to the horizon's last
    whole coarse step, draws grid points between coarse points only near the
    band and in rows that hold events, and takes the cost and reward as
    their expectations given what was drawn.  Under a level rule on a
    narrower band, and in a trial that records a trajectory, every row is
    one grid step and the cost and reward sum its rows, exactly as
    ``run_trial_reference`` does.
    """
    n = config.n
    dt = config.dt
    steps_total = config.steps
    scheme = config.scheme
    level = isinstance(scheme, Level)
    coarse = fleet_coarse_steps(config)
    chunk = min(CHUNK_STEPS, max(1, CHUNK_BYTES // (8 * n)))
    if level:
        local = config.scenario is InfoScenario.BROADCAST_LOCAL
        far = coarse_far(scheme.delta, dt, coarse)
        window = max(1, int(WINDOW_GAPS * _expected_interevent(config) / (coarse * dt)))
    else:
        # without offsets there is one phase, which every agent shares
        offsets = _phase_offsets(scheme, 1)
        # every agent starts as having just fired, so a zero phase's first
        # deadline is one period in
        fire_counts = np.where(offsets <= EPS_REL * dt, 1, 0).astype(np.int64)
        # grid steps whose deadlines a chunk looks up: room for a chunk of
        # coarse rows, but at most CHUNK_BYTES / 8 grid steps over all phases
        # once there are many, which bounds the counter values looked up, and
        # at least one coarse step
        reach = max(coarse, min(coarse * chunk, max(chunk, CHUNK_BYTES // (8 * len(offsets)))))

    # rows per chunk: a chunk of coarse level rows may draw every grid point
    # of its rows (rows that hold events are drawn whole), so the budget
    # bounds those; small fleets get up to CHUNK_STEPS coarse rows of grid
    # steps each
    capacity = (max(1, min(CHUNK_STEPS * coarse, CHUNK_BYTES // (8 * n * coarse),
                           config.steps // coarse))
                if level and coarse > 1 else chunk)

    stream = NoiseStream(config.seed, trial_index, noise_scale)
    fleet = _Fleet.start(config, trajectory=config.record_trajectory)
    acc = fleet.acc
    if fleet.trajectory is not None:
        fleet.log_state(0, fleet.e, 0)

    # rows[k] follows the errors to the end of row k without resets: row 0
    # holds the current errors, each later row adds a step
    buffer = np.empty((capacity + 1, n))
    increments = np.empty((capacity, n)) if coarse > 1 else None
    coarse_rows = None  # the chunk's coarse steps, unless its rows are grid steps
    done = 0  # completed steps; fleet.e holds the errors at time done*dt
    while done < steps_total:
        left = steps_total - done
        if level:
            # coarse rows up to the horizon's last whole one, grid steps after it
            k = coarse if left >= coarse else 1
            span = min(capacity, left // k)
            coarse_rows = None  # until the chunk's events are known
        else:
            grid = min(reach, left)
            stops, masks = _chunk_deadlines(fire_counts, offsets, scheme.period, dt, done, grid,
                                            chunk)
            if coarse > 1:
                ends = _coarse_ends(stops, grid, coarse, chunk, grid == left)
                kept = np.searchsorted(stops, ends[-1], side="right")
                stops, masks = np.searchsorted(ends, stops[:kept]), masks[:kept]
                span = len(ends) - 1
                coarse_rows = _CoarseRows(ends, increments[:span], noise_scale**2 * dt)
                k = coarse_rows.k[:, None]
            else:
                span = grid
                k = 1
            fire_counts += masks.sum(axis=0)
            stops = stops.tolist()
            masks = np.broadcast_to(masks, (len(stops), n))
        rows = buffer[: span + 1]
        rows[0] = fleet.e
        noise = stream.normals((span, n), out=rows[1:])
        noise *= np.sqrt(k * dt)  # a row of k grid steps
        if increments is not None:
            np.copyto(increments[:span], noise)
        _running_sum(rows)
        if level and k > 1:
            bridges = _Bridges(rows, stream, k, dt)
            times, masks = _coarse_level_events(bridges, scheme.delta, far, k, local, window)
            rows, stops, coarse_rows = _refined_rows(bridges, increments[:span], times, k,
                                                     noise_scale**2 * dt)
            del bridges
        elif level:
            stops, masks = _level_events(rows, scheme.delta, local)
        _settle(fleet, rows, stops, masks, done, coarse_rows)
        if coarse_rows is None:
            # left-endpoint rectangles: x'Lx = e'Le, since L annihilates c*1
            acc.integral_sum += float(consensus_cost_rows(rows[:-1]).sum()) * dt
            done += span
        else:
            acc.integral_sum += coarse_rows.cost(rows) * dt
            done += int(coarse_rows.ends[-1])
        fleet.e = rows[-1]

    acc.elapsed = _grid_time(steps_total, chunk, dt)
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
    level = isinstance(scheme, Level)
    stream = NoiseStream(config.seed, trial_index, noise_scale)
    fleet = _Fleet.start(config)
    acc = fleet.acc

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
            fired[_periodic_due(step * dt, scheme, dt, n)] = True
        if fired.any():
            # the errors are the running sum of a one-row block: the row
            # settles in place
            _settle(fleet, fleet.e[None], [0], fired[None], step)

    return TrialResult(accumulator=acc, events=fleet.events)


def _periodic_due(t: float, scheme: Periodic, dt: float, n: int) -> np.ndarray:
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

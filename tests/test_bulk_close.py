"""The bulk close of renewal cycles keeps every bit of the per-event loop.

``driver._Tally`` holds a group's pending rewards and events and closes
them in one pass (``flush``).  Every integrator pends one reward per
segment: a part's event ``j`` ends at its reward ``j``, and rows and the
reference pend one more reward, the segment after the last event, which
lanes do not.  The oracle is the loop the close replaced, kept here: per
trial and part, each reward times ``dt`` is added to the open cycle in
order, and an event that closes agent 0's cycle (every event under
broadcast-plus-local, agent 0's own under broadcast-only) closes it with
the cycle's reward and its length in grid steps times ``dt``, adding both
to the running sums one at a time.  The two must agree exactly, for any
number of rewards and events, any pattern of closing events, a carried
reward and cycle start, zero rewards, several trials in one store, and a
flush after any pend; and on the shapes of many one-reward cycles, a few
long ones and cycles that hold no reward.  The pending store itself must
stay within its bound on a config with an event on most grid steps.
"""

import tracemalloc
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etclab import InfoScenario, Level, Periodic, ScenarioConfig, driver, staggered_offsets
from etclab.costs import CostAccumulator, TALLIES

B = InfoScenario.BROADCAST
BL = InfoScenario.BROADCAST_LOCAL
DT = 2e-3


def quiet_config(**kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ScenarioConfig(**kw)


def loop_tally(acc, state, scenario, parts):
    """The per-event loop over a trial's ``parts``, each ``(rewards, steps,
    masks)``: add each reward (times ``DT``) to the open cycle one by one,
    and close it at each closing event, a part's event ``j`` ending at its
    reward ``j``.  ``state`` is ``[cycle_reward, cycle_start]``."""
    for rewards, steps, masks in parts:
        if len(steps):
            acc.local_event_counts += masks.sum(axis=0)
            acc.global_event_count += len(steps)
        for j, reward in enumerate(rewards):
            state[0] += reward * DT
            if j < len(steps) and (masks[j, 0] or scenario is BL):
                acc.cycles += 1
                acc.cycle_reward_sum += state[0]
                acc.cycle_length_sum += (int(steps[j]) - state[1]) * DT
                state[0] = 0.0
                state[1] = int(steps[j])


def shaped_trial(rng, n, cuts, trailing, carried=0.0, start=0, zeros=0.0, closing=1.0,
                 flushes=0.0):
    """A trial of events split into parts at ``cuts`` (part ``i`` holds
    events ``cuts[i - 1]`` to ``cuts[i]``, from 0, so ``cuts[-1]`` is the
    event count), each part one reward per event and ``trailing`` more, a
    share ``zeros`` of them exact zeros; agent 0 fires a share ``closing``
    of the events (or the events where the boolean array ``closing`` is
    set), and a flush follows each part with probability ``flushes``."""
    events = cuts[-1]
    steps = start + np.cumsum(rng.integers(1, 400, events))
    masks = rng.random((events, n)) < rng.choice([0.2, 0.5, 1.0])
    if n > 1:
        masks[np.arange(events), rng.integers(1, n, events)] = True  # an initiator each
    masks[:, 0] = rng.random(events) < closing if np.isscalar(closing) else closing
    masks[:, 0] |= ~masks.any(axis=1)
    parts = []
    for lo, hi in zip([0, *cuts[:-1]], cuts):
        count = hi - lo + trailing
        # rewards of any magnitude
        rewards = rng.exponential(size=count) * 10.0 ** rng.uniform(-12, 3, count)
        rewards[rng.random(count) < zeros] = 0.0
        parts.append((rewards, steps[lo:hi], masks[lo:hi]))
    return parts, carried, start, (rng.random(len(parts)) < flushes).tolist()


@st.composite
def trial_segments(draw, n):
    """A trial's parts, carried open cycle and flushes, as ``shaped_trial``
    gives them: up to 500 events in one to four parts, shaped as rows and
    the reference pend them (a reward after each part's last event) or as
    lanes do (none)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    events = draw(st.integers(0, 500))
    cuts = sorted(rng.integers(0, events + 1, draw(st.integers(0, 3))).tolist()) + [events]
    carried = draw(st.sampled_from([0.0, float(rng.exponential())]))
    return shaped_trial(rng, n, cuts, draw(st.sampled_from([1, 0])), carried,
                        draw(st.integers(0, 10**6)), draw(st.sampled_from([0.0, 0.3, 1.0])),
                        draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
                        draw(st.sampled_from([0.0, 0.5, 1.0])))


@st.composite
def groups(draw):
    """``(n, trials)``: one to three trials' ``trial_segments`` of ``n``
    agents."""
    n = draw(st.integers(1, 4))
    return n, draw(st.lists(trial_segments(n), min_size=1, max_size=3))


RNG = np.random.default_rng(5)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scenario=st.sampled_from([B, BL]), group=groups())
# 8192 cycles of one reward each, as lanes close them, in one flush
@example(scenario=BL, group=(2, [shaped_trial(RNG, 2, [8192], 0, carried=0.5, start=7)]))
# three cycles of 500 rewards and an open one of the reward after them
@example(scenario=B, group=(2, [shaped_trial(RNG, 2, [1500], 1,
                                             closing=np.arange(1500) % 500 == 499)]))
# cycles that hold no reward: a trial with no part, a lanes part that
# closes at its last reward and an empty one, beside a trial of rows
@example(scenario=BL, group=(3, [([], 0.75, 40, []),
                                 shaped_trial(RNG, 3, [0, 5, 5], 0, carried=0.25, flushes=1.0),
                                 shaped_trial(RNG, 3, [0, 3], 1, zeros=1.0)]))
def test_bulk_close_matches_the_event_loop(scenario, group):
    n, trials = group
    config = quiet_config(n=n, scenario=scenario, scheme=Level(1.0), dt=DT, trials=1)
    fleets = [driver._Fleet.start(config) for _ in trials]
    tally = driver._Tally(fleets)
    expected = []
    for fleet, (parts, carried, start, _) in zip(fleets, trials):
        fleet.cycle_reward, fleet.cycle_start = carried, start
        acc, state = CostAccumulator(n), [carried, start]
        loop_tally(acc, state, scenario, parts)
        expected.append((acc, state))
    # the trials' parts in turn, each trial's in order, a flush after any
    for i in range(max(len(parts) for parts, *_ in trials)):
        for g, (parts, _, _, flushes) in enumerate(trials):
            if i < len(parts):
                tally.pend(g, *parts[i])
                if flushes[i]:
                    tally.flush()
    tally.flush()
    for fleet, (acc, state) in zip(fleets, expected):
        got = [np.asarray(getattr(fleet.acc, name)).tolist() for name in TALLIES]
        assert got == [np.asarray(getattr(acc, name)).tolist() for name in TALLIES]
        assert [fleet.cycle_reward, fleet.cycle_start] == state
        assert type(fleet.acc.cycle_reward_sum) is float and type(fleet.acc.cycles) is int


def test_pending_store_stays_within_its_bound(monkeypatch, peak_bytes):
    # 200 agents on a band of 0.5 hold an event on about 3 grid steps of 4,
    # so a chunk of 2048 grid rows hands the store about 1500 rewards: it
    # flushes every second chunk, once its rewards at PENDING_BYTES each and
    # twice the mask of an event each fill PENDING_BUDGET, and what it holds
    # and what its bulk close forms stay within that count
    config = quiet_config(n=200, scenario=B, scheme=Level(0.5), dt=DT, horizon=30.0, trials=1,
                          seed=3)
    bound = driver.PENDING_BUDGET
    flush = driver._Tally.flush
    seen = []

    def traced_flush(tally):
        held = tally.held * (driver.PENDING_BYTES + 2 * config.n)
        before, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        flush(tally)
        current, working = tracemalloc.get_traced_memory()
        seen.append((held, before - current, working - before, peak))

    monkeypatch.setattr(driver._Tally, "flush", traced_flush)
    acc, peak = peak_bytes(lambda: driver.run_trial(config, 0).accumulator)
    peak = max(peak, *(s[3] for s in seen))
    assert acc.global_event_count > 10_000
    assert sum(held > 0 for held, *_ in seen) >= 4  # several flushes before the trial's end
    for held, freed, working, _ in filter(lambda flushed: flushed[0], seen):
        assert held < 2 * bound  # one chunk past the bound at most
        assert freed + working <= held
    # the accumulator keeps its fixed size
    assert acc.local_event_counts.shape == (200,)
    assert all(np.ndim(getattr(acc, name)) == 0 for name in TALLIES
               if name != "local_event_counts")
    assert peak <= 3 * driver.CHUNK_BYTES


def test_a_flush_at_every_pend_moves_no_bit(monkeypatch):
    # rows of grid steps and of deadlines, coarse level rows, lanes and the
    # reference, each run with the store flushing at every pend and at its
    # default bound
    cases = [
        (B, Level(0.866), 3, 20.0),
        (B, Periodic(0.75, staggered_offsets(3, 0.75)), 3, 20.0),
        (BL, Periodic(0.25), 3, 20.0),
        (B, Level(4.5), 50, 10.0),
        (BL, Level(0.8), 3, 20.0),
    ]

    def outcomes(config, reference):
        results = [*driver.run_trials(config), driver.run_trial_reference(reference, 0)]
        return [[repr(np.asarray(getattr(r.accumulator, name)).tolist()) for name in TALLIES]
                for r in results]

    for scenario, scheme, n, horizon in cases:
        config, reference = (quiet_config(n=n, scenario=scenario, scheme=scheme, dt=DT,
                                          horizon=h, trials=2, seed=11) for h in (horizon, 4.0))
        default = outcomes(config, reference)
        with monkeypatch.context() as patch:
            patch.setattr(driver, "PENDING_BUDGET", 0)
            assert outcomes(config, reference) == default

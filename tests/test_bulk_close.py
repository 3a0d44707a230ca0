"""The bulk close of renewal cycles keeps every bit of the per-event loop.

``driver._Tally`` holds a group's pending rewards and events and closes
them in one pass (``flush``).  Its oracle is the loop it replaced, kept
here: per trial, each reward times ``dt`` is added to the open cycle in
order, and an event that closes agent 0's cycle (every event under
broadcast-plus-local, agent 0's own under broadcast-only) closes it with
the cycle's reward and its length in grid steps times ``dt``, adding both
to the running sums one at a time.  The two must agree exactly, for any
number of rewards and events, any pattern of closing events, a carried
reward and cycle start, zero rewards, several trials in one store, and a
flush between any two pends.  The pending store itself must stay within
its bound on a config with an event on most grid steps.
"""

import tracemalloc
import warnings

import numpy as np
from hypothesis import given, settings
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


def loop_tally(acc, state, scenario, rewards, steps, masks, ends):
    """The per-event loop: add the rewards ``rewards`` (times ``DT``) to the
    open cycle one by one, and close it at each closing event, event ``j``
    ending at ``rewards[ends[j]]``.  ``state`` is ``[cycle_reward,
    cycle_start]``."""
    if len(steps):
        acc.local_event_counts += masks.sum(axis=0)
        acc.global_event_count += len(steps)
    closing = {int(end): (int(step), bool(mask[0]) or scenario is BL)
               for end, step, mask in zip(ends, steps, masks)}
    for j, reward in enumerate(rewards):
        state[0] += reward * DT
        step, closes = closing.get(j, (None, False))
        if closes:
            acc.cycles += 1
            acc.cycle_reward_sum += state[0]
            acc.cycle_length_sum += (step - state[1]) * DT
            state[0] = 0.0
            state[1] = step


@st.composite
def trial_segments(draw, n):
    """A trial's rewards, events of ``n`` agents and carried open cycle,
    and where its pends split."""
    count = draw(st.integers(0, 500))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # rewards of any magnitude, a share of them exact zeros
    rewards = rng.exponential(size=count) * 10.0 ** rng.uniform(-12, 3, count)
    rewards[rng.random(count) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    # events end at a random subset of the rewards, at rising grid steps
    ends = np.flatnonzero(rng.random(count) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])))
    start = draw(st.integers(0, 10**6))
    steps = start + np.cumsum(rng.integers(1, 400, ends.size))
    masks = rng.random((ends.size, n)) < draw(st.sampled_from([0.2, 0.5, 1.0]))
    masks[np.arange(ends.size), rng.integers(0, n, ends.size)] = True  # an initiator each
    carried = draw(st.sampled_from([0.0, float(rng.exponential())]))
    cut = draw(st.integers(0, count))
    return rewards, steps, masks, ends, carried, start, cut


@st.composite
def groups(draw):
    """``(n, trials)``: one to three trials' ``trial_segments`` of ``n``
    agents."""
    n = draw(st.integers(1, 4))
    return n, draw(st.lists(trial_segments(n), min_size=1, max_size=3))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scenario=st.sampled_from([B, BL]), group=groups(), flush_between=st.booleans())
def test_bulk_close_matches_the_event_loop(scenario, group, flush_between):
    n, trials = group
    config = quiet_config(n=n, scenario=scenario, scheme=Level(1.0), dt=DT, trials=1)
    fleets = [driver._Fleet.start(config) for _ in trials]
    tally = driver._Tally(fleets)
    expected = []
    for fleet, (rewards, steps, masks, ends, carried, start, _) in zip(fleets, trials):
        fleet.cycle_reward, fleet.cycle_start = carried, start
        acc, state = CostAccumulator(n), [carried, start]
        loop_tally(acc, state, scenario, rewards, steps, masks, ends)
        expected.append((acc, state))
    # two pends per trial, its rewards cut at its own point, each event in
    # the pend that holds its reward
    for part in (0, 1):
        for g, (r, s, m, e, _, _, cut) in enumerate(trials):
            lo, hi = (0, cut) if part == 0 else (cut, r.size)
            mine = (e >= lo) & (e < hi)
            tally.pend(g, r[lo:hi], s[mine], m[mine], e[mine] - lo)
        if part == 0 and flush_between:
            tally.flush()
    tally.flush()
    for fleet, (acc, state) in zip(fleets, expected):
        got = [np.asarray(getattr(fleet.acc, name)).tolist() for name in TALLIES]
        assert got == [np.asarray(getattr(acc, name)).tolist() for name in TALLIES]
        assert [fleet.cycle_reward, fleet.cycle_start] == state
        assert type(fleet.acc.cycle_reward_sum) is float and type(fleet.acc.cycles) is int


def test_pending_store_stays_within_its_bound(monkeypatch):
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
    tracemalloc.start()
    try:
        acc = driver.run_trial(config, 0).accumulator
        peak = max(tracemalloc.get_traced_memory()[1], *(s[3] for s in seen))
    finally:
        tracemalloc.stop()
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

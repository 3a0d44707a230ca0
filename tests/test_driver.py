import math
import pickle
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etclab import (
    Average,
    Fixed,
    InfoScenario,
    Leader,
    Level,
    Periodic,
    ScenarioConfig,
    consensus_cost_rows,
    finalize,
    run_batch,
    run_trial,
    run_trials,
    staggered_offsets,
)
from etclab import driver
from etclab.driver import run_trial_reference

B = InfoScenario.BROADCAST
BL = InfoScenario.BROADCAST_LOCAL


def quiet_config(**kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ScenarioConfig(**kw)


# --- configuration validation ----------------------------------------------


def test_scheme_scenario_compatibility_enforced():
    with pytest.raises(ValueError):
        quiet_config(n=2, scenario=BL, scheme=Periodic(0.5, (0.0, 0.25)))
    with pytest.raises(ValueError):
        quiet_config(n=3, scenario=B, scheme=Periodic(0.5, (0.0, 0.25)))
    # the level rule runs under both; the scenario decides what an event resets
    for scenario in (B, BL):
        config = quiet_config(n=2, scenario=scenario, scheme=Level(0.5), horizon=5.0,
                              trials=1, record_events=True)
        events = run_trial(config, 0).events
        assert events and {e.is_global for e in events} == {scenario is BL}


def test_short_horizon_warns():
    cases = [
        (2, B, Level(1.0), 5.0),
        # 60 events: the exact exit law gives 0.5 s at n=50 (delta^2 / n gives 0.07 s)
        (50, BL, Level(1.8869), 30.0),
    ]
    for n, scenario, scheme, horizon in cases:
        with pytest.warns(UserWarning, match="inter-event") as record:
            ScenarioConfig(n=n, scenario=scenario, scheme=scheme, horizon=horizon)
        assert record[0].filename == __file__


def test_period_below_step_rejected():
    with pytest.raises(ValueError):
        quiet_config(n=2, scenario=BL, scheme=Periodic(1e-4), dt=2e-3)


class Median:
    """A consensus rule the library does not know."""


@pytest.mark.parametrize("rule", [Median(), "average", None])
def test_unknown_rule_rejected_at_construction(rule):
    # an unlogged trial never forms a consensus point, so a bad rule must
    # fail before any trial runs
    with pytest.raises(ValueError, match=type(rule).__name__):
        quiet_config(n=2, scenario=B, scheme=Level(1.0), rule=rule)


# --- fast integrator vs per-step reference ----------------------------------


def reference_case(n, scenario, scheme, **kw):
    return quiet_config(n=n, scenario=scenario, scheme=scheme, dt=2e-3, horizon=25.0,
                        trials=1, seed=321, record_events=True, **kw)


# one case per scheme family; each is checked as given and around knobs
# drawn by hypothesis (the leader case runs the level rule under both scenarios)
REFERENCE_CASES = {
    "level-broadcast": reference_case(3, B, Level(math.sqrt(1.5))),
    "level-global": reference_case(3, BL, Level(1.04)),
    "periodic-sync-b": reference_case(3, B, Periodic(0.75)),
    "periodic-async": reference_case(3, B, Periodic(0.75, staggered_offsets(3, 0.75))),
    "periodic-sync-bl": reference_case(3, BL, Periodic(0.5)),
    "leader-level": reference_case(4, B, Level(0.9), rule=Leader()),
}


@st.composite
def knobs(draw):
    """Short trials of up to 12 agents under every rule, with periods on and
    off the grid, async phases within a step of 0 and of the period, and
    level thresholds down to about 2 sqrt(dt)."""
    dt = draw(st.floats(5e-4, 1e-2))
    period = draw(st.one_of(st.integers(1, 150).map(lambda k: k * dt),
                            st.floats(dt, 150 * dt)))
    phase = st.one_of(
        st.floats(0.0, dt),
        st.floats(0.0, dt, exclude_min=True).map(lambda u: period - u),
        st.integers(0, 150).map(lambda k: k * dt),
        st.floats(0.0, period),
    ).filter(lambda o: 0.0 <= o < period)
    return dict(
        n=draw(st.integers(1, 12)),
        dt=dt,
        period=period,
        offsets=draw(st.lists(phase, min_size=12, max_size=12)),
        delta=draw(st.floats(2 * math.sqrt(dt), 1.2)),
        rule=draw(st.sampled_from([Average(), Leader(), Fixed(0.25)])),
        local=draw(st.booleans()),
        steps=draw(st.integers(50, 1500)),
        seed=draw(st.integers(0, 2**32)),
    )


def variant(case, k):
    """The reference case itself (``k`` None) or a trial of its family."""
    config = REFERENCE_CASES[case]
    if k is None:
        return config
    n, scenario, scheme, rule = k["n"], config.scenario, config.scheme, k["rule"]
    if isinstance(scheme, Periodic):
        scheme = Periodic(k["period"], k["offsets"][:n] if scheme.offsets else ())
    else:
        scheme = Level(k["delta"])
    if case == "leader-level":
        scenario, rule = (BL if k["local"] else B), Leader()
    return quiet_config(n=n, scenario=scenario, scheme=scheme, rule=rule, dt=k["dt"],
                        horizon=k["steps"] * k["dt"], trials=1, seed=k["seed"],
                        record_events=True)


def tallies(acc):
    return (acc.integral_sum, acc.elapsed, acc.cycles, acc.cycle_reward_sum,
            acc.cycle_length_sum, acc.local_event_counts.tolist(), acc.global_event_count)


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
@settings(max_examples=7, deadline=None, derandomize=True, database=None)
@given(k=knobs())
@example(k=None)
def test_fast_path_matches_reference(case, k):
    config = variant(case, k)
    fast = run_trial(config, 0)
    ref = run_trial_reference(config, 0)
    # the unlogged path, which batches take, and a trajectory-only run form
    # no event log, and the first forms no consensus point; neither may
    # move a bit of the tallies
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short horizons, as in variant()
        unlogged = run_trial(replace(config, record_events=False), 0)
        traced = run_trial(replace(config, record_events=False, record_trajectory=True), 0)
    assert unlogged.events is None and unlogged.trajectory is None
    assert traced.trajectory
    assert tallies(unlogged.accumulator) == tallies(fast.accumulator)
    assert tallies(traced.accumulator) == tallies(fast.accumulator)
    assert [e.time for e in fast.events] == [e.time for e in ref.events]
    assert [e.initiators for e in fast.events] == [e.initiators for e in ref.events]
    assert [e.consensus_point for e in fast.events] == pytest.approx(
        [e.consensus_point for e in ref.events], rel=1e-12, abs=1e-12
    )
    assert fast.accumulator.integral_sum == pytest.approx(
        ref.accumulator.integral_sum, rel=1e-9
    )
    assert fast.accumulator.cycles == ref.accumulator.cycles
    assert fast.accumulator.cycle_length_sum == ref.accumulator.cycle_length_sum
    assert fast.accumulator.cycle_reward_sum == pytest.approx(
        ref.accumulator.cycle_reward_sum, rel=1e-9, abs=1e-12
    )
    assert np.array_equal(
        fast.accumulator.local_event_counts, ref.accumulator.local_event_counts
    )


# --- periodic schedules at the edges ------------------------------------------

DT = 2e-3
CHUNK_T = driver.CHUNK_STEPS * DT
NEAR = 0.5 * driver.EPS_REL * DT  # inside the deadline tolerance of a grid point


def near_grid_offsets(period):
    """Phases within ``NEAR`` of grid points: at 0, just after and before a
    step, and just below the period."""
    return (NEAR, 7 * DT - NEAR, 11 * DT + NEAR, period - NEAR)


EDGE_SCHEDULES = {
    "sync-every-step-b": (B, Periodic(DT)),
    "sync-every-step-bl": (BL, Periodic(DT)),
    "async-every-step": (B, Periodic(DT, (0.0, NEAR, DT - NEAR, 0.5 * DT))),
    "sync-chunk": (BL, Periodic(CHUNK_T)),
    "sync-chunk-minus-step": (B, Periodic(CHUNK_T - DT)),
    "sync-chunk-plus-step": (BL, Periodic(CHUNK_T + DT)),
    "async-near-grid": (B, Periodic(0.75, near_grid_offsets(0.75))),
    "async-chunk-near-grid": (B, Periodic(CHUNK_T - DT, near_grid_offsets(CHUNK_T - DT))),
}


@pytest.mark.parametrize("rows", [None, 5], ids=["default-chunk", "5-row-chunks"])
@pytest.mark.parametrize("case", list(EDGE_SCHEDULES))
def test_periodic_edges_match_reference(monkeypatch, case, rows):
    # one deadline lookup per chunk must hold many deadlines per agent
    # (a period of one step) or none (a period near a chunk, or 5-row chunks)
    scenario, scheme = EDGE_SCHEDULES[case]
    n = len(scheme.offsets) or 3
    config = quiet_config(n=n, scenario=scenario, scheme=scheme, dt=DT,
                          horizon=2.5 * CHUNK_T, trials=1, seed=23, record_events=True)
    if rows is not None:
        monkeypatch.setattr(driver, "CHUNK_BYTES", rows * 8 * n)
    fast = run_trial(config, 0)
    ref = run_trial_reference(config, 0)
    assert len(ref.events) >= 2
    if scheme.period == DT:
        assert len(ref.events) == config.steps
    assert [(e.time, e.initiators) for e in fast.events] == [
        (e.time, e.initiators) for e in ref.events]
    a, b = fast.accumulator, ref.accumulator
    assert (a.cycles, a.cycle_length_sum) == (b.cycles, b.cycle_length_sum)
    assert np.array_equal(a.local_event_counts, b.local_event_counts)
    assert a.integral_sum == pytest.approx(b.integral_sum, rel=1e-9)
    assert a.cycle_reward_sum == pytest.approx(b.cycle_reward_sum, rel=1e-9, abs=1e-12)


# --- fixed values below eight agents -------------------------------------------

# (repr(integral_sum), (cycles, repr(cycle_reward_sum)), global_event_count)
# for trial 0 of each table1 n = 3, T = 0.25 cell at horizon 20 s and seed
# 1729; the integrals as the integrator produced them before the agent-major
# cost pass, the one-call level search and the per-chunk deadline lookup, the
# reward sums as the left-to-right sums, from 0.0, of the per-cycle rewards
# that the accumulator once listed.  Below eight agents all of these sum in
# the same order, so every bit must stay
GOLDEN_N3 = {
    "tt-b": (B, Periodic(0.75), "48.96162428391842", (26, "8.734712845872789"), 26),
    "tt-async-b": (B, Periodic(0.75, staggered_offsets(3, 0.75)), "50.708645330814065",
                   (26, "8.734712845872787"), 80),
    "et-b": (B, Level(math.sqrt(0.75)), "16.118768618654148",
             (30, "3.11462536574877"), 86),
    "tt-bl": (BL, Periodic(0.25), "16.363961270796985", (80, "2.580125691452508"), 80),
    "et-bl": (BL, Level(0.7457396748327672), "9.65689229814993",
              (81, "1.6440283739249801"), 81),
}


def pinned_values(n, cell, table):
    scenario, scheme, integral, cycles, events = table[cell]
    config = quiet_config(n=n, scenario=scenario, scheme=scheme, horizon=20.0,
                          trials=1, seed=1729)
    acc = run_trial(config, 0).accumulator
    assert (repr(acc.integral_sum), (acc.cycles, repr(acc.cycle_reward_sum)),
            acc.global_event_count) == (integral, cycles, events)


@pytest.mark.parametrize("cell", list(GOLDEN_N3))
def test_small_fleet_values_are_pinned(cell):
    pinned_values(3, cell, GOLDEN_N3)


# the same for n = 12, where the cost pass reduces rows with einsum; the b
# cells keep the n = 3 schedules and the et-bl threshold is
# sqrt(0.25 / mean_exit_time(12))
GOLDEN_N12 = {
    "tt-b": (B, Periodic(0.75), "993.0571318905315", (26, "7.35314529967996"), 26),
    "tt-async-b": (B, Periodic(0.75, staggered_offsets(12, 0.75)), "1029.8204970048632",
                   (26, "7.35314529967996"), 320),
    "et-b": (B, Level(math.sqrt(0.75)), "338.4828365144528",
             (27, "2.60377932282761"), 300),
    "tt-bl": (BL, Periodic(0.25), "330.0384129080214", (80, "2.8911624021260036"), 80),
    "et-bl": (BL, Level(1.0592486854593608), "329.21048995810844",
              (78, "2.5111881431187233"), 78),
}


@pytest.mark.parametrize("cell", list(GOLDEN_N12))
def test_twelve_agent_values_are_pinned(cell):
    pinned_values(12, cell, GOLDEN_N12)


# --- running sums -------------------------------------------------------------


@pytest.mark.parametrize("scale", [1.0, -1.0])
@pytest.mark.parametrize("steps", [2, 3, 2049])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12, 50])
def test_running_sum_matches_cumsum(n, steps, scale):
    # an even fleet sums complex pairs of neighbouring agents, which must give
    # every agent exactly np.cumsum's float64 additions; like run_trial, it
    # sums in place the leading rows of a larger buffer, from nonzero errors
    # in row 0, and leaves the rows past the block alone
    rng = np.random.default_rng([n, steps])
    buffer = np.full((2 * steps + 1, n), np.nan)
    rows = buffer[:steps]
    rows[0] = rng.uniform(-2.0, 2.0, n)
    rows[1:] = scale * math.sqrt(DT) * rng.standard_normal((steps - 1, n))
    expected = np.cumsum(rows.copy(), axis=0)
    driver._running_sum(rows)
    assert np.array_equal(rows, expected)
    assert np.isnan(buffer[steps:]).all()


# --- chunk sizing -------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 20])
def test_chunk_budget_changes_only_rounding(monkeypatch, n):
    # a budget of five noise rows per chunk draws the same noise in smaller
    # blocks; each chunk restarts its running sums from the current errors,
    # so chunk boundaries move rounding only: trigger instants stay
    cases = [(B, Level(1.0)), (BL, Level(1.5)), (BL, Periodic(0.25)),
             (B, Periodic(0.8, staggered_offsets(n, 0.8)))]
    blocks = []

    class RecordingStream(driver.NoiseStream):
        def normals(self, shape, out=None):
            blocks.append(shape)
            return super().normals(shape, out=out)

    monkeypatch.setattr(driver, "NoiseStream", RecordingStream)
    for scenario, scheme in cases:
        config = quiet_config(n=n, scenario=scenario, scheme=scheme, horizon=20.0,
                              trials=1, seed=17, record_events=True)
        default = run_trial(config, 0)
        assert max(rows for rows, _ in blocks) == driver.CHUNK_STEPS
        blocks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(driver, "CHUNK_BYTES", 5 * 8 * n)
            small = run_trial(config, 0)
        assert {rows for rows, _ in blocks} == {5}
        blocks.clear()
        assert [(e.time, e.initiators) for e in small.events] == [
            (e.time, e.initiators) for e in default.events
        ]
        assert [e.consensus_point for e in small.events] == pytest.approx(
            [e.consensus_point for e in default.events], rel=1e-12, abs=1e-12
        )
        a, b = small.accumulator, default.accumulator
        assert a.integral_sum == pytest.approx(b.integral_sum, rel=1e-12)
        assert a.cycle_reward_sum == pytest.approx(b.cycle_reward_sum, rel=1e-9, abs=1e-12)
        assert (a.cycles, a.cycle_length_sum) == (b.cycles, b.cycle_length_sum)
        assert np.array_equal(a.local_event_counts, b.local_event_counts)


@pytest.mark.parametrize("n", [3, 20])
def test_search_window_changes_nothing(monkeypatch, n):
    # the level search only reads the chunk's running sums, so its window
    # length moves no bit of the events or the tallies
    def run(scenario, scheme):
        config = quiet_config(n=n, scenario=scenario, scheme=scheme, horizon=20.0,
                              trials=1, seed=19, record_events=True)
        return run_trial(config, 0)

    for scenario, scheme in ((B, Level(1.0)), (BL, Level(1.5))):
        default = run(scenario, scheme)
        with monkeypatch.context() as patch:
            patch.setattr(driver, "LEVEL_LOOKAHEAD", 7)
            small = run(scenario, scheme)
        assert len(default.events) > 20
        for a, b in zip(small.events, default.events, strict=True):
            assert (a.time, a.initiators, a.consensus_point) == (
                b.time, b.initiators, b.consensus_point)
            assert np.array_equal(a.x_pre, b.x_pre) and np.array_equal(a.x_post, b.x_post)
        a, b = small.accumulator, default.accumulator
        assert (a.integral_sum, a.elapsed, a.global_event_count) == (
            b.integral_sum, b.elapsed, b.global_event_count)
        assert (a.cycles, a.cycle_reward_sum, a.cycle_length_sum) == (
            b.cycles, b.cycle_reward_sum, b.cycle_length_sum)
        assert np.array_equal(a.local_event_counts, b.local_event_counts)


@pytest.mark.parametrize(
    "scenario, scheme",
    [(BL, Level(1.0)), (B, Level(0.2)), (B, Periodic(DT)),
     (B, Periodic(DT, staggered_offsets(1024, DT))),
     (B, Periodic(2 * DT, staggered_offsets(1024, 2 * DT)))],
    ids=["level-global", "level-broadcast", "sync-every-step", "async-every-step",
         "async-every-other-step"],
)
def test_trial_memory_stays_near_the_chunk_budget(scenario, scheme):
    # beyond the chunk buffer a trial holds a level search window and one
    # mask row per event; a period of one or two steps puts an event in every
    # row or every other, which must not cost a grid of deadlines per agent
    # and counter value at once
    n = 1024
    rows = driver.CHUNK_BYTES // (8 * n)
    config = quiet_config(n=n, scenario=scenario, scheme=scheme, dt=DT,
                          horizon=1.5 * rows * DT, trials=1, seed=3)
    tracemalloc.start()
    try:
        events = run_trial(config, 0).accumulator.global_event_count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert events > 10
    assert peak <= 3 * driver.CHUNK_BYTES


def test_renewal_state_does_not_grow_with_cycles():
    # a period of one step closes a cycle at every step under
    # broadcast-plus-local; a trial of 100 cycles and one of 10,000 must hold
    # the same fixed-size tallies
    def accumulator(steps):
        config = quiet_config(n=3, scenario=BL, scheme=Periodic(DT), dt=DT,
                              horizon=steps * DT, trials=1, seed=29)
        return run_trial(config, 0).accumulator

    few, many = accumulator(100), accumulator(10_000)
    # every broadcast-plus-local event closes a cycle
    assert (few.global_event_count, many.global_event_count) == (100, 10_000)
    assert abs(len(pickle.dumps(many)) - len(pickle.dumps(few))) <= 16


# --- contract trivia ---------------------------------------------------------


def test_single_agent_has_zero_cost():
    for scenario, scheme in ((BL, Periodic(0.5)), (BL, Level(1.0))):
        config = quiet_config(n=1, scenario=scenario, scheme=scheme,
                              horizon=50.0, trials=2, seed=3)
        assert run_batch(config).j_time_avg == 0.0


def test_single_trial_batch_equals_run_trial():
    config = quiet_config(n=3, scenario=B, scheme=Level(1.0),
                          horizon=100.0, trials=1, seed=9)
    direct = finalize([run_trial(config, 0).accumulator])
    assert run_batch(config) == direct


def test_batch_is_deterministic():
    config = quiet_config(n=3, scenario=BL, scheme=Level(1.0),
                          horizon=100.0, trials=3, seed=10)
    assert run_batch(config) == run_batch(config)


def test_trial_identical_alone_or_in_batch():
    config = quiet_config(n=2, scenario=B, scheme=Level(1.0),
                          horizon=100.0, trials=3, seed=11)
    alone = run_trial(config, 2).accumulator.integral_sum
    batched = run_trials(config)[2].accumulator.integral_sum
    assert alone == batched


def test_process_pool_matches_serial_trials():
    config = quiet_config(n=3, scenario=BL, scheme=Level(1.0),
                          horizon=50.0, trials=3, seed=13)
    serial = [r.accumulator for r in run_trials(config, workers=1)]
    pooled = [r.accumulator for r in run_trials(config, workers=2)]
    assert len(pooled) == len(serial) == 3
    for a, b in zip(pooled, serial):
        assert a.integral_sum == b.integral_sum
        assert a.elapsed == b.elapsed
        assert (a.cycles, a.cycle_reward_sum, a.cycle_length_sum) == (
            b.cycles, b.cycle_reward_sum, b.cycle_length_sum)
        assert np.array_equal(a.local_event_counts, b.local_event_counts)
        assert a.global_event_count == b.global_event_count
    assert finalize(pooled) == finalize(serial)


class RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records its size, starts nothing."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "workers, trials, cpus, expected",
    [(100_000, 3, 64, 3), (100_000, 8, 4, 4), (2, 8, 4, 2), (100_000, 8, 1, None),
     (1, 8, 4, None), (100_000, 8, None, 3)],
)
def test_process_pool_is_bounded(monkeypatch, workers, trials, cpus, expected):
    # a forking pool starts every process at once, so THREADS=100000 must not
    # ask for 100000 of them; never start a real pool at such a value
    import concurrent.futures
    import os

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    if cpus is None:  # a platform without affinity masks falls back to cpu_count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    config = quiet_config(n=2, scenario=B, scheme=Level(1.0),
                          horizon=1.0, trials=trials, seed=4)
    results = run_trials(config, workers=workers)
    assert RecordingPool.sizes == ([] if expected is None else [expected])
    assert [tallies(r.accumulator) for r in results] == [
        tallies(run_trial(config, i).accumulator) for i in range(trials)]


def test_ci_shrinks_with_more_trials():
    base = dict(n=3, scenario=B, scheme=Level(1.0), horizon=150.0, seed=12)
    ci8 = run_batch(quiet_config(trials=8, **base)).ci_halfwidth
    ci16 = run_batch(quiet_config(trials=16, **base)).ci_halfwidth
    assert ci16 / ci8 == pytest.approx(1 / math.sqrt(2), rel=0.30)


# --- pathwise invariants ----------------------------------------------------


@pytest.fixture(scope="module")
def level_broadcast_run():
    config = quiet_config(n=3, scenario=B, scheme=Level(math.sqrt(1.5)),
                          horizon=150.0, trials=1, seed=5, record_events=True)
    return config, run_trial(config, 0)


def test_rule_choice_changes_nothing_but_the_point(level_broadcast_run):
    config, avg = level_broadcast_run
    leader = run_trial(replace(config, rule=Leader()), 0)
    fixed = run_trial(replace(config, rule=Fixed(0.0)), 0)
    times = [e.time for e in avg.events]
    assert times == [e.time for e in leader.events]
    assert times == [e.time for e in fixed.events]
    ja = avg.accumulator.integral_sum
    assert leader.accumulator.integral_sum == pytest.approx(ja, rel=1e-9)
    assert fixed.accumulator.integral_sum == pytest.approx(ja, rel=1e-9)


def test_sign_flip_leaves_triggers_and_cost(level_broadcast_run):
    config, run = level_broadcast_run
    flipped = run_trial(config, 0, noise_scale=-1.0)
    assert [e.time for e in run.events] == [e.time for e in flipped.events]
    assert flipped.accumulator.integral_sum == pytest.approx(
        run.accumulator.integral_sum, rel=1e-9
    )


def test_sign_flip_periodic_scheme():
    config = quiet_config(n=3, scenario=BL, scheme=Periodic(0.5),
                          horizon=50.0, trials=1, seed=6, record_events=True)
    a = run_trial(config, 0)
    b = run_trial(config, 0, noise_scale=-1.0)
    assert [e.time for e in a.events] == [e.time for e in b.events]
    assert b.accumulator.integral_sum == pytest.approx(
        a.accumulator.integral_sum, rel=1e-9
    )


def test_error_invariance_at_broadcast_events(level_broadcast_run):
    _, run = level_broadcast_run
    assert len(run.events) > 50
    for event in run.events:
        e_pre = event.x_pre - event.xhat_pre
        e_post = event.x_post - event.xhat_post
        for agent in range(3):
            if agent in event.initiators:
                assert e_post[agent] == 0.0
            else:
                assert e_post[agent] == pytest.approx(e_pre[agent], abs=1e-12)


def test_every_global_event_resets_consensus_exactly():
    config = quiet_config(n=3, scenario=BL, scheme=Level(1.0),
                          horizon=150.0, trials=1, seed=7, record_events=True)
    run = run_trial(config, 0)
    assert len(run.events) > 50
    for event in run.events:
        assert np.all(event.x_post == event.x_post[0])
        assert consensus_cost_rows(event.x_post) <= 1e-12
        assert event.is_global


def test_zero_noise_level_rule_never_fires():
    config = quiet_config(n=3, scenario=B, scheme=Level(1.0),
                          horizon=50.0, trials=1, seed=8, record_events=True)
    run = run_trial(config, 0, noise_scale=0.0)
    assert run.events == []
    assert run.accumulator.integral_sum == 0.0


def test_zero_noise_periodic_fires_with_zero_jumps():
    config = quiet_config(n=3, scenario=BL, scheme=Periodic(0.5),
                          horizon=50.0, trials=1, seed=8, record_events=True)
    run = run_trial(config, 0, noise_scale=0.0)
    assert len(run.events) == 100
    for event in run.events:
        assert np.array_equal(event.x_post, event.x_pre)


def test_event_log_times_strictly_increase(level_broadcast_run):
    _, run = level_broadcast_run
    times = [e.time for e in run.events]
    assert all(a < b for a, b in zip(times, times[1:]))


def test_local_rate_is_n_times_global_rate_for_level_broadcast():
    config = quiet_config(n=3, scenario=B, scheme=Level(math.sqrt(1.5)),
                          horizon=2000.0, trials=1, seed=13)
    report = run_batch(config)
    ratio = report.mean_local_interevent / report.mean_global_interevent
    assert ratio == pytest.approx(3.0, rel=0.05)


def test_reference_global_interevent_for_large_fleet():
    # threshold 1.90 for fifty agents yields ~0.516 s between global events
    config = quiet_config(n=50, scenario=BL, scheme=Level(1.90),
                          horizon=600.0, trials=2, seed=14)
    report = run_batch(config)
    assert report.mean_global_interevent == pytest.approx(0.516, rel=0.03)


def test_trajectory_recording_shapes():
    config = quiet_config(n=3, scenario=BL, scheme=Level(1.0),
                          horizon=20.0, trials=1, seed=15,
                          record_trajectory=True, trajectory_stride=10)
    run = run_trial(config, 0)
    assert run.trajectory is not None
    stride_rows = [r for r in run.trajectory if r[3] == 0]
    event_rows = [r for r in run.trajectory if r[3] == 1]
    full_grid = 20.0 / 2e-3 / 10 + 1  # includes t=0
    # stride rows cover the grid except where an event row takes the slot
    assert full_grid - len(event_rows) <= len(stride_rows) <= full_grid
    assert len(event_rows) > 0
    for t, x, xhat, flag, center in event_rows:
        assert np.all(x == x[0])  # exact reset visible in the log
    times = [r[0] for r in run.trajectory]
    assert times == sorted(times)

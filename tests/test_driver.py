import math
import pickle
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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
from etclab.triggering import periodic_fire_step

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


@pytest.mark.parametrize("field, value", [("scenario", "b"), ("scenario", "bl"), ("scenario", 7),
                                          ("scheme", None), ("scheme", 1.0), ("scheme", "level")])
def test_unknown_scenario_or_scheme_rejected_at_construction(field, value):
    # the level search and _settle each branch on the scenario, so a value
    # that is no InfoScenario would run as a different scenario in each, and
    # an unknown scheme failed only inside the first trial
    kw = dict(n=3, scenario=B, scheme=Level(0.866), horizon=200.0, trials=2, seed=1)
    with pytest.raises(ValueError, match=type(value).__name__):
        quiet_config(**{**kw, field: value})


def grid_rows(config):
    """One grid step a row, under either rule."""
    return 1


@pytest.fixture
def unit_rows(monkeypatch):
    """Every row of a trial one grid step, as every row of the per-step
    reference is: the pathwise checks against it, and the values pinned
    below from before periodic trials took coarse steps, hold on grid
    rows."""
    monkeypatch.setattr(driver, "fleet_coarse_steps", grid_rows)


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


def ulps(x, count):
    """``x`` moved by ``count`` units in the last place."""
    for _ in range(abs(count)):
        x = math.nextafter(x, math.copysign(math.inf, count))
    return x


def tolerance_edge(k, dt, count):
    """A time ``count`` ulps from ``k dt + EPS_REL dt``, which
    ``periodic_fire_step`` puts on grid step ``k`` or ``k + 1``."""
    return ulps(k * dt + driver.EPS_REL * dt, count)


@st.composite
def knobs(draw):
    """Short trials of up to 12 agents under every rule, with periods on and
    off the grid, async phases within a step of 0 and of the period and on
    the deadline tolerance's edge, and level thresholds down to about
    2 sqrt(dt)."""
    dt = draw(st.floats(5e-4, 1e-2))
    period = draw(st.one_of(st.integers(1, 150).map(lambda k: k * dt),
                            st.floats(dt, 150 * dt)))
    phase = st.one_of(
        st.floats(0.0, dt),
        st.floats(0.0, dt, exclude_min=True).map(lambda u: period - u),
        st.integers(0, 150).map(lambda k: k * dt),
        st.floats(0.0, period),
        st.tuples(st.integers(0, 150), st.integers(-3, 3)).map(
            lambda a: tolerance_edge(a[0], dt, a[1])),
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


@pytest.mark.usefixtures("unit_rows")
@pytest.mark.parametrize("case", list(REFERENCE_CASES))
@settings(max_examples=7, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # a constant patch
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


# five phases within two ulps of 17 dt + EPS_REL dt, which rounding puts on
# grid steps 17 and 18: one phase's deadlines fall 406 grid steps apart, one
# more than the period's 405
GAP_PAST_PERIOD = Periodic(0.81, tuple(tolerance_edge(17, DT, u) for u in range(-2, 3)))
# phases on the tolerance edge of 0 and a period one ulp above a step, whose
# rounding puts two deadlines of a phase on one grid step now and then
EVERY_STEP_EDGE = Periodic(ulps(DT, 1), tuple(tolerance_edge(0, DT, u) for u in range(-2, 3)))

EDGE_SCHEDULES = {
    "sync-every-step-b": (B, Periodic(DT)),
    "sync-every-step-bl": (BL, Periodic(DT)),
    "async-every-step": (B, Periodic(DT, (0.0, NEAR, DT - NEAR, 0.5 * DT))),
    "sync-chunk": (BL, Periodic(CHUNK_T)),
    "sync-chunk-minus-step": (B, Periodic(CHUNK_T - DT)),
    "sync-chunk-plus-step": (BL, Periodic(CHUNK_T + DT)),
    "async-near-grid": (B, Periodic(0.75, near_grid_offsets(0.75))),
    "async-chunk-near-grid": (B, Periodic(CHUNK_T - DT, near_grid_offsets(CHUNK_T - DT))),
    "async-gap-past-period": (B, GAP_PAST_PERIOD),
    "async-every-step-edge": (B, EVERY_STEP_EDGE),
}


@pytest.mark.usefixtures("unit_rows")
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


def test_deadline_on_step_zero_is_the_start(monkeypatch):
    # a phase one ulp above EPS_REL dt that periodic_fire_step still puts on
    # step 0: every agent starts as having just fired, so both integrators
    # take that phase's first deadline one period in, on grid and deadline rows
    dt = 3e-3
    phase = tolerance_edge(0, dt, 1)
    assert phase > driver.EPS_REL * dt and periodic_fire_step(np.float64(phase), dt) == 0
    config = quiet_config(n=2, scenario=B, scheme=Periodic(10 * dt, (phase, 4 * dt)), dt=dt,
                          horizon=100 * dt, trials=1, seed=3, record_events=True)
    ref = run_trial_reference(config, 0)
    deadline_rows = run_trial(config, 0)
    monkeypatch.setattr(driver, "fleet_coarse_steps", grid_rows)
    for run in (ref, deadline_rows, run_trial(config, 0)):
        assert [(e.time, e.initiators) for e in run.events[:2]] == [(4 * dt, (1,)),
                                                                   (10 * dt, (0,))]
        assert [(e.time, e.initiators) for e in run.events] == [
            (e.time, e.initiators) for e in ref.events]


@st.composite
def schedules(draw):
    """A grid step, a period on the grid, on its tolerance edge or off it,
    and a phase anywhere in the period or on a tolerance edge."""
    dt = draw(st.floats(5e-4, 1e-2))
    k = draw(st.integers(1, 2000))
    period = draw(st.one_of(st.just(k * dt), st.floats(dt, 2000 * dt),
                            st.integers(-3, 3).map(lambda u: tolerance_edge(k, dt, u))))
    phase = draw(st.one_of(
        st.floats(0.0, period),
        st.tuples(st.integers(0, k), st.integers(-3, 3)).map(
            lambda a: tolerance_edge(a[0], dt, a[1])),
    ).filter(lambda o: 0.0 <= o < period))
    return dt, period, phase


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(schedule=schedules())
def test_deadline_gaps_stay_within_a_step_of_the_period(schedule):
    # K = ceil(P / dt - EPS_REL) gives P / dt <= K + EPS_REL, and ceil(a) -
    # ceil(b) <= ceil(a - b), so rounding moves a gap between deadline steps
    # at most one step from K either way; a phase whose deadline at step 0
    # is the start's firing waits a period from there, so its first deadline
    # may be K + 1 too.  A row is at most one step longer than K
    dt, period, phase = schedule
    config = quiet_config(n=1, scenario=B, scheme=Periodic(period, (phase,)), dt=dt)
    K = driver.fleet_coarse_steps(config)
    first = driver._first_counts(np.array([phase]), dt)[0]
    steps = periodic_fire_step(phase + (first + np.arange(200)) * period, dt)
    gaps = np.diff(steps)
    assert 1 <= steps[0] <= K + first
    assert K - 1 <= gaps.min() and gaps.max() <= K + 1


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


def pinned_values(n, cell, table, horizon=20.0):
    scenario, scheme, integral, cycles, events = table[cell]
    config = quiet_config(n=n, scenario=scenario, scheme=scheme, horizon=horizon,
                          trials=1, seed=1729)
    acc = run_trial(config, 0).accumulator
    assert (repr(acc.integral_sum), (acc.cycles, repr(acc.cycle_reward_sum)),
            acc.global_event_count) == (integral, cycles, events)


@pytest.mark.usefixtures("unit_rows")
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


@pytest.mark.usefixtures("unit_rows")
@pytest.mark.parametrize("cell", list(GOLDEN_N12))
def test_twelve_agent_values_are_pinned(cell):
    pinned_values(12, cell, GOLDEN_N12)


# --- coarse periodic rows -------------------------------------------------------

# the pinned n = 3 periodic cells above on their production rows, from one
# deadline to the next: one draw per agent per row, and the cost and reward
# over its grid points taken as their expectations given its endpoints
GOLDEN_N3_DEADLINE = {
    "tt-b": (B, Periodic(0.75), "44.463087179159004", (26, "5.852819937682952"), 26),
    "tt-async-b": (B, Periodic(0.75, staggered_offsets(3, 0.75)), "38.27170837305636",
                   (26, "5.522910922747629"), 80),
    "tt-bl": (BL, Periodic(0.25), "15.106299580181043", (80, "2.4558709907103666"), 80),
}


@pytest.mark.parametrize("cell", list(GOLDEN_N3_DEADLINE))
def test_deadline_row_values_are_pinned(cell):
    scenario, scheme = GOLDEN_N3_DEADLINE[cell][:2]
    config = quiet_config(n=3, scenario=scenario, scheme=scheme)
    assert driver.fleet_coarse_steps(config) == round(scheme.period / config.dt)
    pinned_values(3, cell, GOLDEN_N3_DEADLINE)


@pytest.mark.parametrize("k", [1, 2, 7, 8])
def test_bridge_sums_match_explicit_sums(k):
    # the expected sum over a coarse step's k left endpoints of q(m_j) plus
    # the trace of q times v_j, for q the Laplacian form (trace n (n - 1))
    # and agent 0's square (trace 1); at k = 1 it is q(a), to the bit
    rng = np.random.default_rng(k)
    n, dt, rows = 5, 2e-3, 6
    a = rng.normal(size=(rows, n))
    b = rng.normal(size=(rows, n))
    z = b - a
    steps = np.full(rows, float(k))
    forms = [
        (consensus_cost_rows, n * (n - 1) * dt),
        (lambda x, y=None: x[..., 0] * (x if y is None else y)[..., 0], dt),
    ]
    for q, var in forms:
        closed = driver._bridge_sums(steps, q(a), q(a, z), q(z), var)
        explicit = sum(q(a + z * j / k) + var * j * (k - j) / k for j in range(k))
        if k == 1:
            assert np.array_equal(closed, explicit)
        else:
            assert closed == pytest.approx(explicit, rel=1e-12)


COARSE_CASES = {
    "sync-b": (B, Periodic(0.75)),
    "async-b": (B, Periodic(0.75, staggered_offsets(4, 0.75))),
    "sync-bl": (BL, Periodic(0.25)),
    "off-grid-bl": (BL, Periodic(0.0731)),
    "every-step-b": (B, Periodic(DT)),
    "near-grid-async": (B, Periodic(0.75, near_grid_offsets(0.75))),
    # with five-row chunks a lookup of one period's grid steps may hold no
    # deadline, which must still advance the trial
    "gap-past-period": (B, GAP_PAST_PERIOD),
}


def coarse_case(case, **kw):
    scenario, scheme = COARSE_CASES[case]
    return quiet_config(n=len(scheme.offsets) or 4, scenario=scenario, scheme=scheme,
                        dt=DT, horizon=12.0, trials=1, seed=31, record_events=True, **kw)


@pytest.mark.parametrize("rows", [None, 5], ids=["default-chunk", "5-row-chunks"])
@pytest.mark.parametrize("case", list(COARSE_CASES))
def test_coarse_rows_keep_every_event(monkeypatch, case, rows):
    # the schedule is known before any noise is drawn, so coarse rows move
    # no event, count or cycle, nor the elapsed time, by a bit
    config = coarse_case(case)
    if rows is not None:
        monkeypatch.setattr(driver, "CHUNK_BYTES", rows * 8 * config.n)
    coarse = run_trial(config, 0)
    with monkeypatch.context() as patch:
        patch.setattr(driver, "fleet_coarse_steps", grid_rows)
        unit = run_trial(config, 0)
    assert len(unit.events) >= 10
    assert [(e.time, e.initiators) for e in coarse.events] == [
        (e.time, e.initiators) for e in unit.events]
    a, b = coarse.accumulator, unit.accumulator
    assert (a.cycles, a.cycle_length_sum, a.elapsed, a.global_event_count) == (
        b.cycles, b.cycle_length_sum, b.elapsed, b.global_event_count)
    assert np.array_equal(a.local_event_counts, b.local_event_counts)


@pytest.mark.parametrize("case", list(COARSE_CASES))
def test_coarse_rows_under_sign_flip_and_silence(case):
    config = coarse_case(case)
    base = run_trial(config, 0).accumulator
    flipped = run_trial(config, 0, noise_scale=-1.0).accumulator
    silent = run_trial(config, 0, noise_scale=0.0).accumulator
    assert tallies(flipped) == tallies(base)
    # a period of one step resets every error before it counts
    assert (base.integral_sum > 0.0) == (config.scheme.period > DT)
    assert (silent.integral_sum, silent.cycle_reward_sum) == (0.0, 0.0)


@pytest.mark.parametrize("case", list(COARSE_CASES))
def test_coarse_logged_and_unlogged_tallies_agree(case):
    config = coarse_case(case)
    logged = run_trial(config, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short horizons, as in coarse_case()
        unlogged = run_trial(replace(config, record_events=False), 0)
    assert logged.events and unlogged.events is None
    assert tallies(unlogged.accumulator) == tallies(logged.accumulator)


DENSE_CASES = {
    "sync-b": (B, Periodic(0.75), 12.0),
    "sync-bl": (BL, Periodic(0.25), 12.0),
    "off-grid-bl": (BL, Periodic(0.0731), 12.0),
    "every-step-b": (B, Periodic(DT), 12.0),
    "horizon-between-deadlines": (BL, Periodic(0.25), 12.1),
}


@pytest.mark.parametrize("rows", [None, 5], ids=["default-chunk", "5-row-chunks"])
@pytest.mark.parametrize("case", list(DENSE_CASES))
def test_dense_settle_matches_the_event_loop(monkeypatch, case, rows):
    # in a block whose every row from the first stop to the last resets every
    # agent, _settle writes zeros in place of one subtraction per event; a
    # logged fleet settles event by event, so marking the fleet logged for
    # each call runs the loop on the same blocks, which must settle to the bit
    scenario, scheme, horizon = DENSE_CASES[case]
    config = quiet_config(n=4, scenario=scenario, scheme=scheme, dt=DT, horizon=horizon,
                          trials=1, seed=31)
    if rows is not None:
        monkeypatch.setattr(driver, "CHUNK_BYTES", rows * 8 * config.n)
    settle = driver._settle

    def run(loop):
        settled, dense, tails = [], [], []

        def recording_settle(fleet, block, stops, masks, done, coarse_rows=None):
            if stops:  # a block may end at the horizon before any deadline
                dense.append(stops[-1] - stops[0] == len(stops) - 1 and bool(np.all(masks)))
                tails.append(stops[-1] < len(block) - 1)
            fleet.logged = loop
            settle(fleet, block, stops, masks, done, coarse_rows)
            fleet.logged = False
            settled.append(block.copy())

        with monkeypatch.context() as patch:
            patch.setattr(driver, "_settle", recording_settle)
            acc = run_trial(config, 0).accumulator
        return acc, settled, dense, tails

    fast, fast_rows, dense, tails = run(loop=False)
    slow, slow_rows, _, _ = run(loop=True)
    assert all(dense)
    assert tallies(fast) == tallies(slow)
    assert len(fast_rows) == len(slow_rows)
    for a, b in zip(fast_rows, slow_rows):
        assert a.tobytes() == b.tobytes()
    if case == "horizon-between-deadlines" and rows is None:
        assert tails[-1]  # one chunk, whose rows end at the horizon after its last stop


@pytest.mark.parametrize("n", [3, 20])
def test_coarse_chunk_budget_changes_only_rounding(monkeypatch, n):
    # coarse rows end at deadlines and at the horizon, and every deadline
    # lookup of these schedules holds one, so no row ends at a chunk
    # boundary: a budget of five rows per chunk draws the same noise in
    # smaller blocks and moves rounding only
    draws = []

    class RecordingStream(driver.NoiseStream):
        def normals(self, shape, out=None):
            block = super().normals(shape, out=out)
            draws.append(block.copy())
            return block

    monkeypatch.setattr(driver, "NoiseStream", RecordingStream)
    for scenario, scheme in [(BL, Periodic(0.25)), (B, Periodic(0.8, staggered_offsets(n, 0.8))),
                             (BL, Periodic(0.0731))]:
        config = quiet_config(n=n, scenario=scenario, scheme=scheme, horizon=20.0,
                              trials=1, seed=17, record_events=True)
        default = run_trial(config, 0)
        default_draws = np.concatenate(draws)
        draws.clear()
        with monkeypatch.context() as patch:
            patch.setattr(driver, "CHUNK_BYTES", 5 * 8 * n)
            small = run_trial(config, 0)
        assert max(len(block) for block in draws) <= 5
        assert np.array_equal(np.concatenate(draws), default_draws)
        draws.clear()
        assert [(e.time, e.initiators) for e in small.events] == [
            (e.time, e.initiators) for e in default.events
        ]
        a, b = small.accumulator, default.accumulator
        assert a.integral_sum == pytest.approx(b.integral_sum, rel=1e-12)
        assert a.cycle_reward_sum == pytest.approx(b.cycle_reward_sum, rel=1e-9, abs=1e-12)
        assert (a.cycles, a.cycle_length_sum) == (b.cycles, b.cycle_length_sum)
        assert a.elapsed == pytest.approx(b.elapsed, rel=1e-12)


# --- coarse level rows ----------------------------------------------------------

# a broadcast-only and a broadcast-plus-local level cell of twelve agents whose
# thresholds the rule puts on coarse rows at dt 2e-3 (driver.fleet_coarse_steps),
# trial 0 at horizon 20 s and seed 1729, in the format of GOLDEN_N3
GOLDEN_COARSE_LEVEL = {
    "et-b": (B, Level(4.0), "5750.7644452272725", (2, "26.618040471069293"), 16),
    "et-bl": (BL, Level(3.5), "3816.79733803937", (6, "31.07974224846401"), 6),
}


@pytest.mark.parametrize("cell", list(GOLDEN_COARSE_LEVEL))
def test_coarse_level_values_are_pinned(cell):
    scenario, scheme = GOLDEN_COARSE_LEVEL[cell][:2]
    config = quiet_config(n=12, scenario=scenario, scheme=scheme)
    assert driver.fleet_coarse_steps(config) == driver.MAX_COARSE_STEPS == 8
    pinned_values(12, cell, GOLDEN_COARSE_LEVEL)


def test_coarse_level_rule():
    # coarse rows iff far >= 3 delta / 4, which at dt 2e-3 is delta >= 3.06:
    # fleet-large's broadcast-only level cell, not its broadcast-plus-local
    # one nor fleet-small's, and no trial that records a trajectory
    def steps(delta, **kw):
        return driver.fleet_coarse_steps(quiet_config(n=3, scenario=BL, scheme=Level(delta),
                                                      dt=DT, **kw))
    assert [steps(d) for d in (5.0, 3.1, 3.0, 1.8839, 0.866, 0.7457)] == [8, 8, 1, 1, 1, 1]
    assert steps(5.0, record_trajectory=True) == 1


@pytest.fixture
def coarse_level(monkeypatch):
    """Every level row ``MAX_COARSE_STEPS`` grid steps long, whatever the band."""
    monkeypatch.setattr(driver, "fleet_coarse_steps", lambda config: driver.MAX_COARSE_STEPS)


# two more paths of the coarse level search, trial 0 at seed 1729 in the format
# of GOLDEN_N3: a lone agent, on coarse rows by the rule, at horizon 200 s, and
# five agents under broadcast-plus-local on a band narrow enough that most
# resets fall inside a row, forced onto coarse rows, at horizon 20 s
GOLDEN_COARSE_LEVEL_PATHS = {
    "lone-b": (B, Level(3.5), "0.0", (19, "380.535816256427"), 19),
    "in-row-bl": (BL, Level(1.2), "62.92661458954366", (40, "3.763822644349751"), 40),
}


def test_lone_agent_coarse_level_values_are_pinned():
    config = quiet_config(n=1, scenario=B, scheme=Level(3.5))
    assert driver.fleet_coarse_steps(config) == driver.MAX_COARSE_STEPS == 8
    pinned_values(1, "lone-b", GOLDEN_COARSE_LEVEL_PATHS, horizon=200.0)


@pytest.mark.usefixtures("coarse_level")
def test_in_row_global_reset_values_are_pinned():
    assert driver.MAX_COARSE_STEPS == 8
    pinned_values(5, "in-row-bl", GOLDEN_COARSE_LEVEL_PATHS)


# wide bands the rule puts on coarse rows, and narrow ones where every
# coarse step is drawn and most rows hold events
COARSE_LEVEL_CASES = {
    "wide-b": (4, B, Level(2.0)),
    "wide-bl": (4, BL, Level(1.7)),
    "wide-bl-20": (20, BL, Level(1.6)),
    "narrow-b": (4, B, Level(0.3)),
    "narrow-bl": (4, BL, Level(0.3)),
}


def coarse_level_case(case, **kw):
    n, scenario, scheme = COARSE_LEVEL_CASES[case]
    return quiet_config(n=n, scenario=scenario, scheme=scheme, dt=DT, horizon=30.0, trials=1,
                        seed=37, record_events=True, **kw)


@pytest.mark.usefixtures("coarse_level")
@pytest.mark.parametrize("case", list(COARSE_LEVEL_CASES))
def test_coarse_level_rows_under_sign_flip_and_silence(case):
    config = coarse_level_case(case)
    base = run_trial(config, 0)
    flipped = run_trial(config, 0, noise_scale=-1.0)
    silent = run_trial(config, 0, noise_scale=0.0)
    assert len(base.events) >= 5
    assert tallies(flipped.accumulator) == tallies(base.accumulator)
    assert [(e.time, e.initiators) for e in flipped.events] == [
        (e.time, e.initiators) for e in base.events]
    assert silent.events == []
    assert (silent.accumulator.integral_sum, silent.accumulator.cycle_reward_sum) == (0.0, 0.0)


@pytest.mark.usefixtures("coarse_level")
@pytest.mark.parametrize("case", list(COARSE_LEVEL_CASES))
def test_coarse_level_logged_and_unlogged_tallies_agree(case):
    config = coarse_level_case(case)
    logged = run_trial(config, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short horizons, as in coarse_level_case()
        unlogged = run_trial(replace(config, record_events=False), 0)
    assert logged.events and unlogged.events is None
    assert tallies(unlogged.accumulator) == tallies(logged.accumulator)
    # the log's resets are exact: a broadcast-plus-local event lands every
    # agent on the consensus point, a broadcast-only one its initiators
    for event in logged.events:
        e_post = event.x_post - event.xhat_post
        reset = list(range(config.n)) if event.is_global else list(event.initiators)
        assert np.all(e_post[reset] == 0.0)
        e_pre = np.abs(event.x_pre - event.xhat_pre)
        assert np.all(e_pre[list(event.initiators)] >= config.scheme.delta)


def test_drawn_terms_match_explicit_sums():
    # with some entries' grid points drawn, the chunk's cost and agent 0's
    # reward are sums over every grid point of n sum x^2 - (sum x)^2 (and
    # x_0^2), with x the drawn point where there is one and the bridge mean
    # elsewhere, plus each undrawn entry's bridge variance times n - 1 (and 1)
    rng = np.random.default_rng(5)
    n, k, span, dt = 5, 8, 12, DT
    rows = np.zeros((span + 1, n))
    rows[1:] = rng.normal(scale=math.sqrt(k * dt), size=(span, n))
    increments = rows[1:].copy()
    driver._running_sum(rows)
    bridges = driver._Bridges(rows, driver.NoiseStream(9), k, dt)
    drawn = np.sort(rng.choice(span * n, 25, replace=False))
    drawn = np.union1d(drawn, [0, 3 * n])  # agent 0's entries among them
    bridges.draw(drawn)
    raw = rows.copy()
    out, stops, coarse = driver._refined_rows(bridges, increments, np.zeros(0, np.int64), k, dt)
    assert out is rows and stops == []
    cost = coarse.cost(rows)
    reward = coarse.segment_rewards(rows, [])[0]
    var = dt * np.arange(k) * (k - np.arange(k)) / k
    explicit_cost = explicit_reward = 0.0
    for r in range(span):
        means = raw[r] + np.outer(np.arange(k) / k, increments[r])  # (k, n)
        spread = np.tile(var[:, None], (1, n))
        for i in range(n):
            e = r * n + i
            if e in drawn:
                means[1:, i] = bridges.points(np.array([e]))[:, 0]
                spread[:, i] = 0.0
        explicit_cost += float((consensus_cost_rows(means) + (n - 1) * spread.sum(axis=1)).sum())
        explicit_reward += float((means[:, 0] ** 2 + spread[:, 0]).sum())
    assert cost == pytest.approx(explicit_cost, rel=1e-10)
    assert reward == pytest.approx(explicit_reward, rel=1e-10)


@pytest.mark.usefixtures("coarse_level")
@pytest.mark.parametrize("scenario, delta, bound", [(B, 5.0, 2), (BL, 2.5, 2), (B, 2.0, 6)],
                         ids=["level-broadcast", "level-global", "every-row-an-event"])
def test_coarse_level_memory_stays_near_the_chunk_budget(scenario, delta, bound):
    # a chunk may draw every grid point of its coarse rows, so its rows are
    # sized from the budget as grid steps are (131 coarse rows at n = 1000):
    # a search window, the drawn points and the split event rows each stay
    # within about CHUNK_BYTES; at threshold 2 nearly every row holds an
    # event and is drawn whole
    n = 1000
    config = quiet_config(n=n, scenario=scenario, scheme=Level(delta), dt=DT,
                          horizon=2.5 * driver.CHUNK_BYTES // (8 * n) * DT, trials=1, seed=3)
    assert driver.fleet_coarse_steps(config) == driver.MAX_COARSE_STEPS
    tracemalloc.start()
    try:
        events = run_trial(config, 0).accumulator.global_event_count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert events > 5
    assert peak <= bound * driver.CHUNK_BYTES


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


@pytest.mark.usefixtures("unit_rows")  # it counts noise rows as grid steps
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
    "scenario, scheme, horizon",
    [(BL, Level(1.0), None), (B, Level(0.2), None), (B, Periodic(DT), None),
     (B, Periodic(DT, staggered_offsets(1024, DT)), None),
     (B, Periodic(2 * DT, staggered_offsets(1024, 2 * DT)), None),
     (B, Periodic(40.0, staggered_offsets(1024, 40.0)), 80.0)],
    ids=["level-global", "level-broadcast", "sync-every-step", "async-every-step",
         "async-every-other-step", "async-long-period"],
)
def test_trial_memory_stays_near_the_chunk_budget(scenario, scheme, horizon):
    # beyond the chunk buffer a trial holds a level search window and one
    # mask row per event; a period of one or two steps puts an event in every
    # row or every other, which must not cost a grid of deadlines per agent
    # and counter value at once, and rows a long period apart must not cost
    # a mask per grid step and phase
    n = 1024
    rows = driver.CHUNK_BYTES // (8 * n)
    config = quiet_config(n=n, scenario=scenario, scheme=scheme, dt=DT,
                          horizon=horizon or 1.5 * rows * DT, trials=1, seed=3)
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

import math
import pickle
import warnings
from dataclasses import replace
from functools import partial

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
    consensus_value,
    finalize,
    run_batch,
    run_trial,
    run_trials,
    staggered_offsets,
)
from etclab import driver
from etclab.calibration import level_threshold
from etclab.costs import GRID_EXIT_SHIFT, TALLIES, grid_level_law, mean_exit_time
from etclab.driver import run_trial_reference
from etclab.triggering import coarse_far, periodic_fire_step

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


@pytest.mark.parametrize("field", ["n", "trials", "seed"])
def test_bool_is_not_a_count(field):
    # True is an int to Python, but trials=True must not run one trial
    kw = dict(n=3, scenario=B, scheme=Level(0.866), horizon=200.0, trials=2, seed=1)
    with pytest.raises(ValueError, match=f"{'agent count' if field == 'n' else field} must be"):
        quiet_config(**{**kw, field: True})


@pytest.mark.parametrize("workers", [0, -1, 1.5, True, "2", None])
def test_invalid_workers_rejected_at_once(workers):
    # run_trials sizes its groups from the workers, and a bad value must
    # fail there, before any trial or process pool starts: 0 and -1 ran
    # serially, and 1.5 failed inside ProcessPoolExecutor
    config = quiet_config(n=3, scenario=B, scheme=Level(0.866), horizon=1.0, trials=2, seed=1)
    for run in (run_trials, run_batch):
        with pytest.raises(ValueError, match="workers must be"):
            run(config, workers=workers)


def grid_rows(config):
    """One grid step a row, under either rule."""
    return 1


@pytest.fixture
def unit_rows(monkeypatch):
    """Every row of a trial one grid step, as every row of the per-step
    reference is: the pathwise checks against it, and the values pinned
    below from before periodic trials took coarse steps, hold on grid rows.
    Broadcast-plus-local level trials run as lanes, which draw each cycle
    apart; the grid-step lane replay is their pathwise check."""
    monkeypatch.setattr(driver, "fleet_coarse_steps", grid_rows)


# --- fast integrator vs per-step reference ----------------------------------


def reference_case(n, scenario, scheme, **kw):
    return quiet_config(n=n, scenario=scenario, scheme=scheme, dt=2e-3, horizon=25.0,
                        trials=1, seed=321, record_events=True, **kw)


# one case per scheme family that runs on rows; each is checked as given and
# around knobs drawn by hypothesis.  Broadcast-plus-local level trials run as
# lanes, checked against per-step replays of their own draws
# (test_grid_step_lanes_replay_from_their_draws)
REFERENCE_CASES = {
    "level-broadcast": reference_case(3, B, Level(math.sqrt(1.5))),
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
        rule = Leader()
    return quiet_config(n=n, scenario=scenario, scheme=scheme, rule=rule, dt=k["dt"],
                        horizon=k["steps"] * k["dt"], trials=1, seed=k["seed"],
                        record_events=True)


def tallies(acc):
    """Every tally of ``acc``, the fields that merging adds up."""
    return tuple(np.asarray(getattr(acc, name)).tolist() for name in TALLIES)


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
    # the unlogged path, which batches take, forms no event log and no
    # consensus point, and the reference's trajectory rows read the state
    # alone; neither may move a bit of the tallies or the events
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short horizons, as in variant()
        unlogged = run_trial(replace(config, record_events=False), 0)
    traced = run_trial_reference(config, 0, trajectory_stride=7)
    assert unlogged.events is None and ref.trajectory is None
    assert traced.trajectory
    assert tallies(unlogged.accumulator) == tallies(fast.accumulator)
    assert outcome(traced) == outcome(ref)
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
# the same order, so every bit must stay.  All run on grid rows (unit_rows);
# the et-bl cell runs as lanes of grid steps, pinned in
# GOLDEN_COARSE_LEVEL_PATHS
GOLDEN_N3 = {
    "tt-b": (B, Periodic(0.75), "48.96162428391842", (26, "8.734712845872789"), 26),
    "tt-async-b": (B, Periodic(0.75, staggered_offsets(3, 0.75)), "50.708645330814065",
                   (26, "8.734712845872787"), 80),
    "et-b": (B, Level(math.sqrt(0.75)), "16.118768618654148",
             (30, "3.11462536574877"), 86),
    "tt-bl": (BL, Periodic(0.25), "16.363961270796985", (80, "2.580125691452508"), 80),
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
# cells keep the n = 3 schedules
GOLDEN_N12 = {
    "tt-b": (B, Periodic(0.75), "993.0571318905315", (26, "7.35314529967996"), 26),
    "tt-async-b": (B, Periodic(0.75, staggered_offsets(12, 0.75)), "1029.8204970048632",
                   (26, "7.35314529967996"), 320),
    "et-b": (B, Level(math.sqrt(0.75)), "338.4828365144528",
             (27, "2.60377932282761"), 300),
    "tt-bl": (BL, Periodic(0.25), "330.0384129080214", (80, "2.8911624021260036"), 80),
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

    def laplacian(x, y=None):
        """x'Lx, or the bilinear x'Ly of matching rows."""
        if y is None:
            return consensus_cost_rows(x)
        return n * np.einsum("...i,...i->...", x, y) - x.sum(axis=-1) * y.sum(axis=-1)

    forms = [
        (laplacian, n * (n - 1) * dt),
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
    "sync-b": (4, B, Periodic(0.75), 12.0),
    "sync-bl": (4, BL, Periodic(0.25), 12.0),
    "off-grid-bl": (4, BL, Periodic(0.0731), 12.0),
    "every-step-b": (4, B, Periodic(DT), 12.0),
    "horizon-between-deadlines": (4, BL, Periodic(0.25), 12.1),
    "staggered-b": (4, B, Periodic(0.75, staggered_offsets(4, 0.75)), 12.0),
    # a deadline on every step, each agent's on every other one: runs of
    # 2048 rows of partial resets
    "staggered-every-step-b": (4, B, Periodic(2 * DT, staggered_offsets(4, 2 * DT)), 12.0),
    # more phases than a slice has rows (one row under 5-row chunks), so a
    # slice leaves agents unreset and carries their bases through
    "staggered-many-phases-b": (80, B, Periodic(0.75, staggered_offsets(80, 0.75)), 3.0),
    # events on most rows; short chunks hold runs of them
    "level-b": (4, B, Level(1.5 * math.sqrt(DT)), 12.0),
}


def loop_settle(buffer, length, keys, masks, points=None, logged=False):
    """The per-event loop that ``driver._subtract_bases`` replaces, kept as
    its oracle: per trial, subtract from the rows from each event up to
    the next every agent's running sum at its last reset, then reset the
    agents in the event's row of ``masks`` to its row's running sum, or to
    its row of ``points`` when given; with ``logged``, return each event's
    errors before its reset, its running sum less every agent's base."""
    trials, _, n = buffer.shape
    keys = np.asarray(keys)
    e_pre = np.empty((keys.size, n))
    for g in range(trials):
        base = np.zeros(n)  # each agent's running sum at its last reset
        start = 0
        for j in np.flatnonzero(keys // length == g):
            stop = keys[j] % length
            buffer[g, start:stop] -= base
            point = buffer[g, stop] if points is None else points[j]
            e_pre[j] = point - base
            np.copyto(base, point, where=masks[j])
            start = stop
        buffer[g, start:] -= base
    return e_pre if logged else None


@pytest.mark.parametrize("rows", [None, 5], ids=["default-chunk", "5-row-chunks"])
@pytest.mark.parametrize("case", list(DENSE_CASES))
def test_dense_settle_matches_the_event_loop(monkeypatch, case, rows):
    # a group on rows settles its blocks in one pass: zeros where every row
    # from the first stop to the last holds an event that resets every
    # agent (_zero_fill), and otherwise each agent's base at its last reset
    # (_subtract_bases), in place of one subtraction per event.  Running the
    # trial again with the pass replaced by the per-event loop kept here
    # (loop_settle) settles the same blocks, which must agree to the bit
    n, scenario, scheme, horizon = DENSE_CASES[case]
    config = quiet_config(n=n, scenario=scenario, scheme=scheme, dt=DT, horizon=horizon,
                          trials=1, seed=31)
    if rows is not None:
        monkeypatch.setattr(driver, "CHUNK_BYTES", rows * 8 * config.n)
    settle = driver._settle

    def run(loop):
        blocks, runs, tails = [], [], []

        def recording_settle(tally, buffer, length, keys, masks, done, coarse_rows=None):
            (block,) = buffer[:, :length]  # a group of one
            stops = np.asarray(keys) % length
            if len(stops):  # a block may end at the horizon before any deadline
                runs.append((stops[-1] - stops[0] == len(stops) - 1, not np.all(masks)))
                tails.append(stops[-1] < len(block) - 1)
            settle(tally, buffer, length, keys, masks, done, coarse_rows)
            blocks.append(block.copy())

        with monkeypatch.context() as patch:
            patch.setattr(driver, "_settle", recording_settle)
            if loop:
                patch.setattr(driver, "_subtract_bases", loop_settle)
            acc = run_trial(config, 0).accumulator
        return acc, blocks, runs, tails

    fast, fast_rows, runs, tails = run(loop=False)
    slow, slow_rows, _, _ = run(loop=True)
    partial_runs = any(run and partial for run, partial in runs)
    if isinstance(scheme, Level):
        # a long block has rows without an event
        assert partial_runs == (rows is not None)
    else:
        assert all(run for run, _ in runs)
        assert partial_runs == bool(scheme.offsets)
    assert tallies(fast) == tallies(slow)
    assert len(fast_rows) == len(slow_rows)
    for a, b in zip(fast_rows, slow_rows):
        assert a.tobytes() == b.tobytes()
    if case == "horizon-between-deadlines" and rows is None:
        assert tails[-1]  # one chunk, whose rows end at the horizon after its last stop


def random_group(rng, shared=False):
    """``(n, scenario, rows, span, stops, masks, done)``: a random group of
    one to four blocks of running sums for a group's settle, ``rows[g]``
    block ``g``, rows 0 to ``span``, and up to three NaN rows after it, as on grid rows of a level
    rule, with per block a run of stops or sparse ones, with full or
    partial masks, up to 5000 agents; every block shares one run of stops
    at times, as a deadline lookup's blocks do.  With ``shared``, sparse
    stops may repeat, as events inside one coarse row share its end."""
    n = int(rng.choice([rng.integers(1, 9), rng.integers(9, 200), rng.integers(4000, 5001)]))
    span = int(rng.integers(1, max(2, min(600, 30_000 // n))))
    group = int(rng.integers(1, 5))
    stops, masks = [], []
    for g in range(group):
        if g and rng.random() < 0.3:  # the stops and masks of the block before
            stops.append(stops[-1])
            masks.append(masks[-1])
            continue
        if rng.random() < 0.5:
            first = int(rng.integers(0, span + 1))
            stops.append(list(range(first, int(rng.integers(first, span + 1)) + 1)))
        else:
            count = int(rng.integers(0, span + 2) * rng.random())
            stops.append(np.sort(rng.choice(span + 1, size=count, replace=shared)).tolist())
        count = len(stops[-1])
        if rng.random() < 0.5:
            masks.append(np.ones((count, n), dtype=bool))
        else:
            mask = rng.random((count, n)) < rng.uniform(0.05, 0.95)
            mask[np.arange(count), rng.integers(0, n, count)] = True  # an initiator per event
            masks.append(mask)
    rows = np.full((group, span + 1 + int(rng.integers(0, 4)), n), np.nan)
    rows[:, : span + 1] = np.cumsum(rng.normal(size=(group, span + 1, n)), axis=1)
    return n, rng.choice([B, BL]), rows, span, stops, masks, int(rng.integers(8, 10**6))


def logged_events(fleet):
    """Every field of ``fleet``'s logged events, the arrays as bytes."""
    return [(e.time, e.initiators, e.consensus_point, e.is_global, e.x_pre.tobytes(),
             e.x_post.tobytes(), e.xhat_pre.tobytes(), e.xhat_post.tobytes())
            for e in fleet.events or ()]


def test_settle_matches_its_event_loop_on_random_blocks(monkeypatch):
    # a group settles its blocks in one pass (_subtract_bases): in zeros
    # when every block's rows from its first stop to its last, the same in
    # every block, each reset every agent and nothing is logged
    # (_zero_fill), else from a running maximum over the events, at times
    # in slices of one row.  Coarse rows reset at points of their own,
    # several events sharing a stop row, and a logged group takes each
    # event's errors before its reset.  The per-event loop kept here
    # (loop_settle) is its oracle: every row and every error before a
    # reset, and through _settle every tally, the open cycle's too, and
    # every logged event must agree, and the NaN rows after a block stay NaN
    rng = np.random.default_rng(2024)
    seen = set()
    zero_fill = driver._zero_fill
    zeroed = []
    monkeypatch.setattr(driver, "_zero_fill", lambda *args: zeroed.append(zero_fill(*args)))
    for _ in range(400):
        coarse = rng.random() < 0.25
        n, scenario, rows, span, stops, masks, done = random_group(rng, shared=coarse)
        group = len(stops)
        logged = rng.random() < 0.3
        keys = np.concatenate([g * (span + 1) + np.array(s, dtype=np.int64)
                               for g, s in enumerate(stops)])
        # an event resets its initiators under broadcast-only, everyone else
        resets = np.concatenate([m if scenario is B else np.ones_like(m) for m in masks])
        # the running sums coarse rows reset to, at grid points inside their rows
        points = rows[0, : span + 1].take(keys % (span + 1), axis=0) + rng.normal(
            size=(keys.size, n)) if coarse else None
        run = (not coarse and not logged and all(s == stops[0] for s in stops) and stops[0]
               and stops[0][-1] - stops[0][0] == len(stops[0]) - 1 and resets.all())
        one_row = rng.random() < 0.25
        fast, slow = rows.copy(), rows.copy()
        zeroed.clear()
        with monkeypatch.context() as patch:
            if one_row:
                patch.setattr(driver, "CHUNK_BYTES", 128 * n)
            e_fast = driver._subtract_bases(fast, span + 1, keys, resets, points, logged)
        e_slow = loop_settle(slow, span + 1, keys, resets, points, logged)
        assert len(zeroed) == bool(run)
        assert fast.tobytes() == slow.tobytes()
        assert np.isnan(fast[:, span + 1 :]).all()
        assert (e_fast is None) == (not logged)
        if logged:
            assert e_fast.tobytes() == e_slow.tobytes()
        if not coarse:
            config = quiet_config(n=n, scenario=scenario, scheme=Level(1.0), trials=1,
                                  record_events=logged)
            settled = []
            for loop in (False, True):
                fleets = [driver._Fleet.start(config) for _ in stops]
                for fleet in fleets:
                    fleet.cycle_reward, fleet.cycle_start = 0.25, done - 7
                tally = driver._Tally(fleets)
                block = rows.copy()
                with monkeypatch.context() as patch:
                    if loop:
                        patch.setattr(driver, "_subtract_bases", loop_settle)
                    driver._settle(tally, block, span + 1, keys, np.concatenate(masks), done)
                tally.flush()
                settled.append((block.tobytes(), [
                    (tallies(f.acc), f.cycle_reward, f.cycle_start, logged_events(f))
                    for f in fleets]))
            assert settled[0] == settled[1]
        if run:
            seen.add("zeros")
        elif any(stops):
            partly = any(not r.all() for r in resets)
            runs = any(s and s[-1] - s[0] == len(s) - 1 for s in stops)
            seen.add(("runs" if runs else "sparse") + (" partial" if partly else " full"))
            if one_row and span > 1:
                seen.add("slices of one row")
            if group > 1:
                seen.add("groups")
            if coarse and np.any(np.diff(keys) == 0):
                seen.add("points, shared stops")
            if logged:
                seen.add("logged")
    assert seen == {"zeros", "runs partial", "runs full", "sparse partial", "sparse full",
                    "slices of one row", "groups", "points, shared stops", "logged"}


@pytest.mark.parametrize("n", [3, 20])
def test_coarse_chunk_budget_changes_only_rounding(monkeypatch, n):
    # coarse rows end at deadlines and at the horizon, and a deadline lookup
    # spans at least one grid step more than the longest gap between two
    # deadlines of a phase, so it always holds one and no row ends at a chunk
    # boundary: a budget of five rows per chunk draws the same noise in
    # smaller blocks and moves rounding only.  The 406-step-gap schedule's
    # lookups, five rows of five phases, are the shortest the budget allows
    draws = []

    class RecordingStream(driver.NoiseStream):
        def normals(self, shape, out=None):
            block = super().normals(shape, out=out)
            draws.append(block.copy())
            return block

    monkeypatch.setattr(driver, "NoiseStream", RecordingStream)
    configs = [quiet_config(n=n, scenario=scenario, scheme=scheme, horizon=20.0, trials=1,
                            seed=17, record_events=True)
               for scenario, scheme in [(BL, Periodic(0.25)),
                                        (B, Periodic(0.8, staggered_offsets(n, 0.8))),
                                        (BL, Periodic(0.0731))]]
    for config in [*configs, coarse_case("gap-past-period")]:
        default = run_trial(config, 0)
        default_draws = np.concatenate(draws)
        draws.clear()
        with monkeypatch.context() as patch:
            patch.setattr(driver, "CHUNK_BYTES", 5 * 8 * config.n)
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

# a broadcast-only level cell of twelve agents whose threshold the rule puts on
# coarse rows of 16 grid steps at dt 2e-3, its edge (driver.fleet_coarse_steps),
# and a broadcast-plus-local one forced onto lanes of renewal cycles, which the
# rule keeps for larger fleets, trial 0 at horizon 20 s and seed 1729, in the
# format of GOLDEN_N3
GOLDEN_COARSE_LEVEL = {
    "et-b": (B, Level(4.0), "6863.133076182602", (1, "25.799243343396938"), 13),
    "et-bl": (BL, Level(3.5), "3366.4091469422046", (7, "12.924925334562122"), 7),
}


@pytest.mark.parametrize("cell", list(GOLDEN_COARSE_LEVEL))
def test_coarse_level_values_are_pinned(monkeypatch, cell):
    scenario, scheme = GOLDEN_COARSE_LEVEL[cell][:2]
    config = quiet_config(n=12, scenario=scenario, scheme=scheme)
    if scenario is BL:
        monkeypatch.setattr(driver, "fleet_coarse_steps", lambda config: driver.MAX_COARSE_STEPS)
    assert driver.MAX_COARSE_STEPS == 8
    assert driver.fleet_coarse_steps(config) == (16 if scenario is B else 8)
    pinned_values(12, cell, GOLDEN_COARSE_LEVEL)


def test_coarse_level_rule():
    # broadcast-only: rows of 16 grid steps iff far of 16 steps >= 3 delta / 4,
    # which at dt 2e-3 is delta >= 4.0, else of 8 iff far of 8 steps is, delta
    # >= 3.06: fleet-large's level cell on 16-step rows, not fleet-small's on
    # coarse rows
    def steps(delta):
        return driver.fleet_coarse_steps(quiet_config(n=3, scenario=B, scheme=Level(delta),
                                                      dt=DT))
    # at 4.0 both sides are exactly 3.0 in float64: the rule's edge
    assert coarse_far(4.0, DT, 16, crossing=True) == 0.75 * 4.0 == 3.0
    assert [steps(d) for d in (5.0, 4.0, 3.5, 3.1, 3.0)] == [16, 16, 8, 8, 1]
    assert [steps(d) for d in (1.8839, 0.866, 0.7457)] == [1, 1, 1]


def test_lane_rule():
    # broadcast-plus-local: lanes of coarse rows iff at least LANE_AGENTS
    # agents and far >= 0.45 delta (delta >= 1.393 at dt 2e-3): fleet-large's
    # and table1's n = 50 level cells, not table1's n = 3 and 10 ones nor
    # fleet-small's
    def steps(n, delta):
        return driver.fleet_coarse_steps(quiet_config(n=n, scenario=BL, scheme=Level(delta),
                                                      dt=DT))
    assert [steps(50, 1.8839), steps(50, level_threshold(50, 0.5))] == [8, 8]
    table1 = [steps(n, level_threshold(n, t)) for n, t in ((3, 0.25), (3, 0.5), (10, 0.5))]
    assert [*table1, steps(3, 0.7457396748327672)] == [1, 1, 1, 1]
    assert [steps(20, 1.4), steps(19, 5.0), steps(200, 1.38)] == [8, 1, 1]

    # every broadcast-plus-local level trial runs lanes, at any fleet size,
    # threshold and horizon: of grid steps where the coarse rule gives none,
    # as table1's n = 3 and 10 level cells and fleet-small's; broadcast-only
    # and periodic rules run none
    def lanes(n, delta, scenario=BL, **kw):
        return driver._runs_lanes(quiet_config(n=n, scenario=scenario, scheme=Level(delta),
                                               dt=DT, **kw))
    table1 = [lanes(n, level_threshold(n, t)) for n, t in ((3, 0.25), (3, 0.5), (10, 0.5))]
    assert [*table1, lanes(3, 0.7457396748327672, horizon=99.0)] == [True, True, True, True]
    assert [lanes(1, 0.3), lanes(7, 5.0, horizon=25.0), lanes(8, 0.5), lanes(19, 5.0)] == [
        True, True, True, True]
    assert [lanes(200, 1.38), lanes(20, 1.0), steps(20, 1.0)] == [True, True, 1]
    assert [lanes(20, 1.4), lanes(50, 1.8839), lanes(3, 1.0, B)] == [True, True, False]
    assert not driver._runs_lanes(quiet_config(n=3, scenario=BL, scheme=Periodic(0.25)))
    # fleet-large's cell keeps the shape that LANE_ENTRIES sets: a group of
    # 8 trials of 52 lanes in rounds of 6 rows
    shape = driver._lane_shape(lane_config())
    assert shape[:2] == (8, 6)
    assert driver._block_lanes(lane_config().steps, DT, shape[3], shape[2]) == 52


@pytest.fixture
def coarse_level(monkeypatch):
    """Every level row ``MAX_COARSE_STEPS`` grid steps long, whatever the band
    and the fleet: coarse rows under broadcast-only information, lanes of
    renewal cycles under broadcast-plus-local."""
    monkeypatch.setattr(driver, "fleet_coarse_steps", lambda config: driver.MAX_COARSE_STEPS)


# three more paths, trial 0 at seed 1729 in the format of GOLDEN_N3: a lone
# agent, on coarse rows by the rule, at horizon 200 s, five agents under
# broadcast-plus-local on a band narrow enough that most exits fall inside a
# row, forced onto lanes, at horizon 20 s, and fleet-small's level cell on the
# lanes of grid steps the rule gives it, at horizon 20 s
GOLDEN_COARSE_LEVEL_PATHS = {
    "lone-b": (B, Level(3.5), "0.0", (19, "386.191429909915"), 19),
    "in-row-bl": (BL, Level(1.2), "66.84882021044015", (37, "3.7862107205889055"), 37),
    "grid-step-bl": (BL, Level(0.7457396748327672), "9.703954646588748",
                     (75, "1.6566066121022651"), 75),
}


def test_lone_agent_coarse_level_values_are_pinned():
    config = quiet_config(n=1, scenario=B, scheme=Level(3.5))
    assert driver.fleet_coarse_steps(config) == driver.MAX_COARSE_STEPS == 8
    pinned_values(1, "lone-b", GOLDEN_COARSE_LEVEL_PATHS, horizon=200.0)


@pytest.mark.usefixtures("coarse_level")
def test_in_row_global_reset_values_are_pinned():
    assert driver.MAX_COARSE_STEPS == 8
    pinned_values(5, "in-row-bl", GOLDEN_COARSE_LEVEL_PATHS)


def test_grid_step_lane_values_are_pinned():
    config = quiet_config(n=3, scenario=BL, scheme=Level(0.7457396748327672))
    assert driver._runs_lanes(config) and driver.fleet_coarse_steps(config) == 1
    pinned_values(3, "grid-step-bl", GOLDEN_COARSE_LEVEL_PATHS)


@pytest.mark.parametrize("n", [8, 12])
def test_grid_step_lanes_of_eight_or_more_agents_keep_the_renewal_reward(n):
    # from eight agents on consensus_cost_rows forms no squares, so agent 0's
    # reward, e_0^2 at each grid row's left endpoint, must come from the
    # lane's own rows: a reward that sums |e_0| in its place reads +66% and
    # +58% against the grid law here, while the time average stays right
    delta = level_threshold(n, 0.5)
    config = quiet_config(n=n, scenario=BL, scheme=Level(delta), dt=DT, horizon=200.0,
                          trials=8, seed=2929)
    assert driver._runs_lanes(config) and driver.fleet_coarse_steps(config) == 1
    oracle = grid_level_law(n, DT / delta**2).cost(n, delta)
    assert abs(run_batch(config).j_renewal / oracle - 1) <= 0.10


# wide bands the rule puts on coarse rows, and narrow ones where every
# coarse step is drawn and most rows hold events
COARSE_LEVEL_CASES = {
    "wide-b": (4, B, Level(2.0)),
    "wide-bl": (4, BL, Level(1.7)),
    "wide-bl-20": (20, BL, Level(1.6)),
    "narrow-b": (4, B, Level(0.3)),
    "narrow-bl": (4, BL, Level(0.3)),
    # fleet-small's level cell, which the rule runs as lanes of grid steps
    "grid-step-bl": (3, BL, Level(0.7457396748327672)),
}


# every case on rows of MAX_COARSE_STEPS grid steps, and the broadcast-only
# ones on rows of twice that too, as the rule puts wider bands; the
# grid-step lanes on grid steps
COARSE_LEVEL_RUNS = [(case, 1 if case.startswith("grid-step") else k)
                     for case, (_, scenario, _) in COARSE_LEVEL_CASES.items()
                     for k in ((8, 16) if scenario is B else (8,))]
COARSE_LEVEL_IDS = [case if k in (1, 8) else f"{case}-{k}" for case, k in COARSE_LEVEL_RUNS]


def coarse_level_case(monkeypatch, case, k):
    """The config of ``case``, every level row forced to ``k`` grid steps;
    under broadcast-plus-local information it runs as lanes."""
    monkeypatch.setattr(driver, "fleet_coarse_steps", lambda config: k)
    n, scenario, scheme = COARSE_LEVEL_CASES[case]
    config = quiet_config(n=n, scenario=scenario, scheme=scheme, dt=DT, horizon=30.0, trials=1,
                          seed=37, record_events=True)
    assert driver._runs_lanes(config) == (scenario is BL)
    return config


@pytest.mark.parametrize("case, k", COARSE_LEVEL_RUNS, ids=COARSE_LEVEL_IDS)
def test_coarse_level_rows_under_sign_flip_and_silence(monkeypatch, case, k):
    config = coarse_level_case(monkeypatch, case, k)
    base = run_trial(config, 0)
    flipped = run_trial(config, 0, noise_scale=-1.0)
    silent = run_trial(config, 0, noise_scale=0.0)
    assert len(base.events) >= 5
    assert tallies(flipped.accumulator) == tallies(base.accumulator)
    assert [(e.time, e.initiators) for e in flipped.events] == [
        (e.time, e.initiators) for e in base.events]
    assert silent.events == []
    assert (silent.accumulator.integral_sum, silent.accumulator.cycle_reward_sum) == (0.0, 0.0)


@pytest.mark.parametrize("case, k", COARSE_LEVEL_RUNS, ids=COARSE_LEVEL_IDS)
def test_coarse_level_logged_and_unlogged_tallies_agree(monkeypatch, case, k):
    config = coarse_level_case(monkeypatch, case, k)
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


def test_horizon_cut_keeps_the_time_average(monkeypatch):
    # under broadcast-plus-local a level trial is a string of renewal cycles;
    # on lanes the cycle that crosses the horizon counts its own path's grid
    # points before it, a number that depends only on the cycles before it.
    # With a horizon of about three expected cycles that cycle is a large
    # share of every trial, and the mean of the per-trial time averages must
    # still agree with grid rows' within four combined standard errors.
    # 2000 trials missed a cut cycle costed as a fresh one at z = -3.61;
    # four times as many halve the standard error, doubling such a shift's z
    n, delta, trials, seed = 20, 1.5, 8000, 2026
    horizon = 1.25  # 2.9 grid mean exits of 0.4306 s
    config = quiet_config(n=n, scenario=BL, scheme=Level(delta), dt=DT, horizon=horizon,
                          trials=trials, seed=seed)
    reports = []
    for rows in (lambda config: driver.MAX_COARSE_STEPS, grid_rows):
        monkeypatch.setattr(driver, "fleet_coarse_steps", rows)
        reports.append(np.array(run_batch(config).j_trials))
    lanes, grid = reports
    se = math.sqrt(lanes.var(ddof=1) / trials + grid.var(ddof=1) / trials)
    assert abs(lanes.mean() - grid.mean()) <= 4 * se


def test_drawn_terms_match_explicit_sums():
    # with some entries' grid points drawn, a row's cost and agent 0's reward
    # over its first m grid points (driver._row_sums; lanes count a prefix
    # of each row) are sums over those points of n sum x^2 - (sum x)^2 (and
    # x_0^2), with x the drawn point where there is one and the bridge mean
    # elsewhere, plus each undrawn entry's bridge variance times n - 1 (and
    # 1); the chunk's cost and reward are those sums over every grid point
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
    var = dt * np.arange(k) * (k - np.arange(k)) / k
    points = np.zeros((2, span, k))  # the cost and the reward per row and grid point
    for r in range(span):
        means = raw[r] + np.outer(np.arange(k) / k, increments[r])  # (k, n)
        spread = np.tile(var[:, None], (1, n))
        for i in range(n):
            e = r * n + i
            if e in drawn:
                means[1:, i] = bridges.store[:, bridges.slot[e]]
                spread[:, i] = 0.0
        points[0, r] = consensus_cost_rows(means) + (n - 1) * spread.sum(axis=1)
        points[1, r] = means[:, 0] ** 2 + spread[:, 0]
    # _event_rows spends the bridges' store, so the drawn points are read first
    none = np.zeros(0, dtype=np.int64)
    stops, coarse = driver._event_rows(bridges, increments, none, (none, none, np.zeros(0)), dt)
    assert stops == []
    assert coarse.costs() == pytest.approx([points[0].sum()], rel=1e-10)
    assert coarse.segment_rewards([])[0] == pytest.approx(points[1].sum(), rel=1e-10)
    # per row over its first m grid points: all k, none, and random prefixes
    terms, at, fixes = driver._row_terms(rows[:-1], increments, dt, *coarse.refined)
    for m in (np.full(span, k), np.zeros(span, dtype=np.int64), rng.integers(0, k + 1, span)):
        prefix = np.arange(k) < m[:, None]
        for sums, explicit in zip(driver._row_sums(k, terms, at, fixes, n, dt, m), points):
            assert sums == pytest.approx((explicit * prefix).sum(axis=1), rel=1e-10)


def test_row_sums_with_inner_resets_match_explicit_sums():
    # a level event inside a coarse row resets its initiators at their drawn
    # grid point, and the row stays coarse: once settled, the chunk's cost,
    # agent 0's reward per segment between events and _row_sums over each
    # row's first m grid points must equal explicit sums over the grid
    # points of the reset path, with the bridge mean and variance for the
    # entries not drawn.  Agent 2 resets once inside row 1, agent 0 inside
    # row 2 (which splits its reward and closes its cycle), agent 3 on row
    # 3's end and agent 1 twice inside row 4
    rng = np.random.default_rng(11)
    n, k, span, dt = 5, 8, 6, DT
    rows = np.zeros((span + 1, n))
    rows[1:] = rng.normal(scale=math.sqrt(k * dt), size=(span, n))
    increments = rows[1:].copy()
    driver._running_sum(rows)
    resets = [(k + 3, 2), (2 * k + 5, 0), (4 * k, 3), (4 * k + 2, 1), (4 * k + 6, 1)]
    bridges = driver._Bridges(rows, driver.NoiseStream(4), k, dt)
    bridges.draw(np.union1d(rng.choice(span * n, 8, replace=False),
                            [t // k * n + i for t, i in resets if t % k]))
    # the raw running sums' means and variances at every grid point
    j = np.arange(k)[:, None]
    mean = (rows[:-1, None] + increments[:, None] * (j / k)).reshape(span * k, n)
    var = np.tile(dt * j * (k - j) / k, (span, n))
    for e in np.sort(bridges.owner[: bridges.count]):
        r, i = divmod(e, n)
        mean[r * k + 1 : (r + 1) * k, i] = bridges.store[:, bridges.slot[e]]
        var[r * k + 1 : (r + 1) * k, i] = 0.0
    mean = np.vstack((mean, rows[-1]))
    # each agent's base at every grid point, and the jump of each reset
    base = np.zeros((span * k + 1, n))
    jumps = []
    for t, i in resets:
        jumps.append(mean[t, i] - base[t, i])
        base[t:, i] = mean[t, i]
    errors = mean - base
    cost = n * (errors[:-1] ** 2 + var).sum(axis=1) - errors[:-1].sum(axis=1) ** 2 - var.sum(axis=1)
    reward = errors[:-1, 0] ** 2 + var[:, 0]

    at, agents = (np.array(part) for part in zip(*resets))
    times, event = np.unique(at, return_inverse=True)
    masks = np.zeros((times.size, n), dtype=bool)
    masks[event, agents] = True
    stops, coarse = driver._event_rows(bridges, increments, times, (at, agents, np.array(jumps)),
                                       dt)
    assert stops == [2, 3, 4, 5, 5]
    fleet = driver._Fleet.start(quiet_config(n=n, scenario=B, scheme=Level(1.0), trials=1))
    tally = driver._Tally([fleet])
    driver._settle(tally, rows[None], len(rows), stops, masks, 0, coarse)
    tally.flush()
    assert np.allclose(rows, errors[::k], rtol=0, atol=1e-12)
    assert coarse.costs() == pytest.approx([cost.sum()], rel=1e-10)
    bounds = [0, *times, span * k]
    assert coarse.segment_rewards(stops).tolist() == pytest.approx(
        [reward[a:b].sum() for a, b in zip(bounds, bounds[1:])], rel=1e-10, abs=1e-12)
    assert fleet.acc.cycles == 1
    assert fleet.acc.cycle_reward_sum == pytest.approx(reward[: 2 * k + 5].sum() * dt, rel=1e-10)
    for m in (np.full(span, k), rng.integers(0, k + 1, span)):
        prefix = np.arange(k) < m[:, None]
        for sums, explicit in zip(driver._row_sums(k, *coarse._settled_sums()[0], n, dt, m),
                                  (cost, reward)):
            assert sums == pytest.approx((explicit.reshape(span, k) * prefix).sum(axis=1),
                                         rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("scenario, delta, n, horizon, bound, forced, rows",
                         [(B, 5.0, 1000, None, 2, True, 8), (B, 5.0, 1000, None, 2, False, 16),
                          (BL, 2.5, 1000, None, 2, True, 8), (B, 2.0, 1000, None, 6, True, 8),
                          (BL, 1.5, 20, 1.25, 1.1, True, 8),
                          (BL, 0.7457396748327672, 3, 99.0, 1, False, 1),
                          (BL, 1.2, 1000, None, 1, False, 1)],
                         ids=["level-broadcast", "level-broadcast-16", "level-global",
                              "every-row-an-event", "lane-group", "grid-step-lane-group",
                              "grid-step-lane-group-1000"])
def test_coarse_level_memory_stays_near_the_chunk_budget(monkeypatch, peak_bytes, scenario, delta,
                                                         n, horizon, bound, forced, rows):
    # a chunk may draw every grid point of its coarse rows, so its rows are
    # sized from the budget as grid steps are (131 coarse rows of 8 grid
    # steps at n = 1000, or 65 of the 16 the rule takes at threshold 5):
    # a search window and the drawn points each stay within about
    # CHUNK_BYTES; at threshold 2 nearly every row holds an event, and
    # nearly every entry near the band is drawn.  A lane block holds as many
    # lanes over all of its group's trials, and a round as many entries, as
    # driver._lane_shape's byte budget allows, drawn grid points counted: the
    # lane group runs the full first group of the horizon-cut test's cell,
    # 160 trials of 5 lanes each, on a band where a round draws 12% of its
    # entries, the grid-step lane group the first of fleet-small's level
    # cell, 4 trials of 373 lanes each, and the last a grid-step lane group
    # of 1000 agents on a band too narrow for coarse lanes
    if horizon is None:
        horizon = 2.5 * driver.CHUNK_BYTES // (8 * n) * DT
    if forced:
        monkeypatch.setattr(driver, "fleet_coarse_steps", lambda config: driver.MAX_COARSE_STEPS)
    config = quiet_config(n=n, scenario=scenario, scheme=Level(delta), dt=DT, horizon=horizon,
                          trials=1, seed=3)
    assert driver.fleet_coarse_steps(config) == rows
    assert driver._runs_lanes(config) == (scenario is BL)
    group = driver._lane_shape(config)[0] if scenario is BL else 1
    config = quiet_config(n=n, scenario=scenario, scheme=Level(delta), dt=DT, horizon=horizon,
                          trials=group, seed=3)
    events, peak = peak_bytes(
        lambda: sum(r.accumulator.global_event_count for r in run_trials(config)))
    assert events > 5
    assert peak <= bound * driver.CHUNK_BYTES


# --- running sums -------------------------------------------------------------


@pytest.mark.parametrize("scale", [1.0, -1.0])
@pytest.mark.parametrize("steps", [2, 3, 2049])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12, 50, 1025])
def test_running_sum_matches_cumsum(n, steps, scale):
    # an even fleet sums complex pairs of neighbouring agents, and rows of
    # 1024 entries or more are added row by row, which must give every agent
    # exactly np.cumsum's float64 additions; like run_trial, it
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
    cases = [(B, Level(1.0)), (BL, Periodic(0.25)), (B, Periodic(0.8, staggered_offsets(n, 0.8)))]
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
    # the column search of grid rows only reads the chunk's running sums, and
    # the NaN rows after a block never reach the band, so the rows a round
    # gathers per column move no bit of the events or the tallies, logged or
    # settled in the group's one pass: one row, a few, and past the chunk
    config, unlogged = (quiet_config(n=n, scenario=B, scheme=Level(1.0), horizon=20.0, trials=1,
                                     seed=19, record_events=logged) for logged in (True, False))
    assert driver.fleet_coarse_steps(config) == 1
    default = run_trial(config, 0), run_trial(unlogged, 0)
    assert len(default[0].events) > 20
    assert 1 < driver._column_window(config) < driver.CHUNK_STEPS
    for window in (1, 3, 3 * driver.CHUNK_STEPS):
        monkeypatch.setattr(driver, "_column_window", lambda config: window)
        logged, settled = run_trial(config, 0), run_trial(unlogged, 0)
        for a, b in zip(logged.events, default[0].events, strict=True):
            assert (a.time, a.initiators, a.consensus_point) == (
                b.time, b.initiators, b.consensus_point)
            assert np.array_equal(a.x_pre, b.x_pre) and np.array_equal(a.x_post, b.x_post)
        assert tallies(logged.accumulator) == tallies(default[0].accumulator)
        assert tallies(settled.accumulator) == tallies(default[1].accumulator)
        assert tallies(settled.accumulator) == tallies(logged.accumulator)


@pytest.mark.parametrize(
    "scenario, scheme, horizon",
    [(BL, Level(1.0), None), (B, Level(0.2), None), (B, Periodic(DT), None),
     (B, Periodic(DT, staggered_offsets(1024, DT)), None),
     (B, Periodic(2 * DT, staggered_offsets(1024, 2 * DT)), None),
     (B, Periodic(40.0, staggered_offsets(1024, 40.0)), 80.0)],
    ids=["level-global", "level-broadcast", "sync-every-step", "async-every-step",
         "async-every-other-step", "async-long-period"],
)
def test_trial_memory_stays_near_the_chunk_budget(peak_bytes, scenario, scheme, horizon):
    # beyond the chunk buffer a trial holds a level search window and one
    # mask row per event; a period of one or two steps puts an event in every
    # row or every other, which must not cost a grid of deadlines per agent
    # and counter value at once, and rows a long period apart must not cost
    # a mask per grid step and phase
    n = 1024
    rows = driver.CHUNK_BYTES // (8 * n)
    config = quiet_config(n=n, scenario=scenario, scheme=scheme, dt=DT,
                          horizon=horizon or 1.5 * rows * DT, trials=1, seed=3)
    events, peak = peak_bytes(lambda: run_trial(config, 0).accumulator.global_event_count)
    assert events > 10
    assert peak <= 3 * driver.CHUNK_BYTES


def test_column_group_memory_stays_near_the_chunk_budget(peak_bytes):
    # broadcast-only level trials on grid rows run in groups as large as
    # ROW_BYTES per entry of their chunks allows within the chunk budget:
    # the group's blocks, the bases that settle them and its search rounds
    # must stay within one trial's bound
    n = 20
    rows = driver._chunk_steps(n)
    config = quiet_config(n=n, scenario=B, scheme=Level(0.2), dt=DT, horizon=1.5 * rows * DT,
                          trials=100, seed=3)
    size = driver._row_group(config, 1)
    assert size > 4
    config = quiet_config(n=n, scenario=B, scheme=Level(0.2), dt=DT, horizon=1.5 * rows * DT,
                          trials=size, seed=3)
    results, peak = peak_bytes(lambda: run_trials(config))
    assert len(results) == size
    assert min(r.accumulator.global_event_count for r in results) > 10
    assert peak <= 3 * driver.CHUNK_BYTES


@pytest.mark.parametrize("n, chunks, grouped", [(50, 1.5, True), (1000, 20, False)])
def test_coarse_group_memory_stays_near_the_chunk_budget(peak_bytes, n, chunks, grouped):
    # broadcast-only level trials on coarse rows run in groups as large as
    # their chunks' bytes allow too (driver._chunk_bytes): the group's running
    # sums and increments, its search rounds, the grid points its trials
    # draw, the points of its events and its cost terms must stay within one
    # trial's bound, at fifty agents over a chunk and a half of 1310 coarse
    # rows, and at a thousand over twenty chunks of 65, past the expected
    # time to a first event (25 s), where a chunk holds about one point of
    # its events' fleets per entry, which a trial alone nearly fills the
    # budget with
    cell = partial(quiet_config, n=n, scenario=B, scheme=Level(5.0), dt=DT, seed=3)
    config = cell(horizon=1e4, trials=100)
    assert driver.fleet_coarse_steps(config) == 16
    horizon = chunks * driver._chunk_rows(config) * 16 * DT
    size = driver._row_group(cell(horizon=horizon, trials=100), 1)
    assert (size > 1) == grouped
    config = cell(horizon=horizon, trials=size)
    results, peak = peak_bytes(lambda: run_trials(config))
    assert len(results) == size
    assert min(r.accumulator.global_event_count for r in results) > 5
    assert peak <= 3 * driver.CHUNK_BYTES


def test_periodic_group_memory_stays_near_the_chunk_budget(peak_bytes):
    # periodic trials on rows run in groups as large as their chunks' bytes
    # allow too (driver._chunk_bytes): a staggered schedule of twenty phases
    # puts a deadline on most grid steps, so a chunk holds as many rows as a
    # chunk of grid steps, and the group's blocks, increments and one
    # settle pass over its partial resets must stay within one trial's bound
    n = 20
    rows = driver._chunk_steps(n)
    scheme = Periodic(0.05, staggered_offsets(n, 0.05))
    config = quiet_config(n=n, scenario=B, scheme=scheme, dt=DT, horizon=1.5 * rows * DT,
                          trials=100, seed=3)
    assert driver.fleet_coarse_steps(config) > 1
    size = driver._row_group(config, 1)
    assert size > 4
    config = replace(config, trials=size)
    results, peak = peak_bytes(lambda: run_trials(config))
    assert len(results) == size
    assert min(r.accumulator.global_event_count for r in results) > rows
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


# fleet-large's broadcast-plus-local level cell, which runs as lanes of renewal
# cycles in groups of eight trials (driver._lane_shape), and fleet-small's at a
# short horizon, which runs as lanes of grid steps
LANE_CELL = dict(n=50, scenario=BL, scheme=Level(1.8839), dt=DT, horizon=25.0, seed=1)
GRID_LANE_CELL = dict(n=3, scenario=BL, scheme=Level(0.7457396748327672), dt=DT, horizon=25.0,
                      seed=1)


def lane_config(**kw):
    return quiet_config(**{**LANE_CELL, **kw})


# fleet-small's broadcast-only level cell at a short horizon, which runs on
# grid rows in groups, one column search over the group per chunk
# (driver._row_trials)
GRID_B_CELL = dict(n=3, scenario=B, scheme=Level(math.sqrt(0.75)), dt=DT, horizon=25.0, seed=1)
# broadcast-only level cells on coarse rows of 16 grid steps, whose groups
# share one column search per chunk: twelve agents at threshold 4, as in
# GOLDEN_COARSE_LEVEL, and twenty at 60 s, whose search window of two
# expected gaps (1000 rows) is shorter than its chunk (1875 rows), so that a
# trial's later windows start where its earliest column stands
COARSE_B_CELLS = {
    "coarse-b": dict(n=12, scenario=B, scheme=Level(4.0), dt=DT, horizon=20.0, seed=1729),
    "coarse-b-short-window": dict(n=20, scenario=B, scheme=Level(4.0), dt=DT, horizon=60.0,
                                  seed=5),
}
# periodic cells on rows, whose groups share one deadline lookup per chunk:
# synchronous and staggered under broadcast-only information, and
# synchronous under broadcast-plus-local
PERIODIC_CELLS = {
    "sync-b": dict(n=3, scenario=B, scheme=Periodic(0.75), dt=DT, horizon=25.0, seed=1),
    "staggered-b": dict(n=3, scenario=B, scheme=Periodic(0.75, staggered_offsets(3, 0.75)),
                        dt=DT, horizon=25.0, seed=1),
    "sync-bl": dict(n=3, scenario=BL, scheme=Periodic(0.25), dt=DT, horizon=25.0, seed=1),
}


def grid_b_config(**kw):
    return quiet_config(**{**GRID_B_CELL, **kw})


def grid_lane_config(**kw):
    return quiet_config(**{**GRID_LANE_CELL, **kw})


def lane_group(config):
    """The trials of a lane group of ``config``."""
    return driver._lane_shape(config)[0]


def outcome(result):
    """A trial's tallies and, if it logs them, its events."""
    events = None if result.events is None else [
        (e.time, e.initiators, e.consensus_point, e.x_pre.tolist(), e.x_post.tolist())
        for e in result.events]
    return tallies(result.accumulator), events


@pytest.fixture
def lane_blocks(monkeypatch):
    """With one spare lane instead of two many of the lane cell's trials
    need a second block, some with another trial of their group; the list
    records each lane block's trials as ``(trial, start)``."""
    monkeypatch.setattr(driver, "LANE_SPARE", 1)
    blocks = []
    lane_block = driver._lane_block

    def recording_block(config, streams, lanes, starts, *args):
        blocks.append([(stream.trial_index, start) for stream, start in zip(streams, starts)])
        return lane_block(config, streams, lanes, starts, *args)

    monkeypatch.setattr(driver, "_lane_block", recording_block)
    return blocks


def test_trial_identical_alone_or_in_batch(monkeypatch, lane_blocks):
    config = quiet_config(n=2, scenario=B, scheme=Level(1.0),
                          horizon=100.0, trials=3, seed=11)
    alone = run_trial(config, 2).accumulator.integral_sum
    batched = run_trials(config)[2].accumulator.integral_sum
    assert alone == batched
    # a lane group shares its rounds, but each trial draws from its own
    # stream, so a trial's tallies and events are the same alone, in its
    # group of the batch and in a batch of another size, whose last group
    # is partial; trials 0-7 of the coarse lane cell form a group, 8 and 9
    # another, and so on for the grid-step lane cell's groups of 16.  Which
    # trials need a later block depends on their cycles' lengths: at seed 9
    # trials 0 and 3 of the coarse cell share one, at seed 1 none did
    for cell, size, seed in ((lane_config, 8, 9), (grid_lane_config, 16, 1)):
        trials = size + 2
        for record_events in (False, True):
            lane_blocks.clear()
            config = cell(trials=trials, record_events=record_events, seed=seed)
            assert lane_group(config) == size
            grouped = [outcome(r) for r in run_trials(config)]
            assert all((events is not None) == record_events for _, events in grouped)
            assert lane_blocks[0] == [(i, 0) for i in range(size)]
            # a later block holds two trials that start where their last cycles ended
            assert any(len(block) > 1 and min(start for _, start in block) > 0
                       for block in lane_blocks)
            assert [outcome(run_trial(config, i)) for i in range(trials)] == grouped
            for part in (trials - 1, 3):
                batch = cell(trials=part, record_events=record_events, seed=seed)
                assert [outcome(r) for r in run_trials(batch)] == grouped[:part]
    # every other trial runs on rows in groups, one chunk loop over the
    # group, each trial drawing from its own stream: broadcast-only level
    # trials share one column search per chunk, and one settle pass on grid
    # rows, and periodic ones one deadline lookup and one settle pass, on
    # coarse rows and on grid rows alike.  Each cell gives the same tallies
    # and events alone, in its group, in a batch of groups of two whose last
    # is partial, and in a process pool
    row_trials = driver._row_trials
    groups = []

    def recording_trials(config, indices, *args):
        groups.append(list(indices))
        return row_trials(config, indices, *args)

    monkeypatch.setattr(driver, "_row_trials", recording_trials)
    cells = [(grid_b_config, False)] + [
        (partial(quiet_config, **kw), unit) for kw in PERIODIC_CELLS.values()
        for unit in (False, True)] + [
        (partial(quiet_config, **kw), False) for kw in COARSE_B_CELLS.values()]
    for cell, unit in cells:
        with monkeypatch.context() as rows:
            if unit:
                rows.setattr(driver, "fleet_coarse_steps", grid_rows)
            for record_events in (False, True):
                config = cell(trials=4, record_events=record_events)
                assert driver.fleet_coarse_steps(config) == 1 or not unit
                if isinstance(config.scheme, Level) and config.n > 3:
                    assert driver.fleet_coarse_steps(config) == 16
                groups.clear()
                grouped = [outcome(r) for r in run_trials(config)]
                assert groups == [[0, 1, 2, 3]]
                assert all((events is not None) == record_events for _, events in grouped)
                assert [outcome(run_trial(config, i)) for i in range(4)] == grouped
                with monkeypatch.context() as patch:
                    # a chunk budget for groups of two
                    patch.setattr(driver, "_chunk_bytes", lambda config: driver.CHUNK_BYTES // 2)
                    groups.clear()
                    batch = cell(trials=3, record_events=record_events)
                    assert [outcome(r) for r in run_trials(batch)] == grouped[:3]
                    assert groups == [[0, 1], [2]]
                assert [outcome(r) for r in run_trials(config, workers=2)] == grouped


def test_coarse_search_window_is_the_trials():
    # a round of the coarse search reads each column from its own last reset,
    # but within its trial's window of two expected gaps from the trial's
    # earliest live column, as a trial searched alone always did: which round
    # finds a crossing, and so which call draws an entry, is pinned by the
    # values of the short-window cell, whose window is shorter than its chunk
    # (a window from each column's own start moved trial 0's integral to
    # 61804.93897236726 with the same 69 events)
    config = quiet_config(**COARSE_B_CELLS["coarse-b-short-window"], trials=2)
    results = [r.accumulator for r in run_trials(config)]
    assert [(repr(a.integral_sum), a.global_event_count) for a in results] == [
        ("61474.725084729354", 69), ("68274.18892383092", 77)]


def test_lane_group_identical_under_sign_flip(lane_blocks):
    # with the noise negated every exit and cost stays, in a group as alone,
    # on coarse rows and on grid steps
    for cell in (lane_config, grid_lane_config):
        config = cell(trials=1)
        size = lane_group(config)
        config = cell(trials=size)
        flipped = [outcome(r)
                   for r in driver._lane_cycles(config, range(size), noise_scale=-1.0)]
        assert flipped == [outcome(run_trial(config, i, noise_scale=-1.0)) for i in range(size)]
        assert flipped == [outcome(r) for r in run_trials(config)]


class KeptBridges(driver._Bridges):
    """A ``_Bridges`` that keeps a copy of the rows it was made on, which a
    lane block reuses for its next round, and of the drawn points and their
    slots, which ``spend`` gives up, and lists itself in ``made``."""

    made = []

    def __init__(self, rows, stream, k, dt, cols=None):
        super().__init__(rows, stream, k, dt, cols)
        self.kept = rows.copy()
        streams = stream if isinstance(stream, list) else [stream]
        self.log = streams[0].subkey == (0,)  # the log's points, not the search's
        self.made.append(self)

    def spend(self, increments):
        slot, store = self.slot, self.store.copy()
        spent = super().spend(increments)
        self.slot, self.store = slot, store
        return spent


def replay_coarse_block(config, lanes, starts, width, made, out):
    """Replay one coarse lane block from each round's rows and drawn points
    and check its ``out`` per lane: the exit is the first drawn point beyond
    the band, or else the bounding row's end; the initiators are exactly
    the agents beyond it there; and every entry not drawn up to the exit
    row reaches the band with probability below ``2 exp(-40)``."""
    n, k, delta, horizon = config.n, driver.MAX_COARSE_STEPS, config.scheme.delta, config.steps
    lengths, _, masks, e_pre = out[:4]
    first = np.cumsum([0, *lanes])
    total = int(first[-1])
    reach = np.zeros(total, dtype=np.int64)
    exited = np.zeros(total, dtype=bool)
    live = np.arange(total)
    t = 0
    rounds = [b for b in made if not b.log]
    logs = [b for b in made if b.log]
    assert len(logs) == (len(rounds) if e_pre is not None else 0)
    for index, bridges in enumerate(rounds):
        w, m = width, live.size
        assert bridges.kept.shape == (w + 1, m * n)
        rows = bridges.kept.reshape(w + 1, m, n)
        slot = bridges.slot.reshape(w, m, n)
        # every grid point inside each row, NaN where it was not drawn
        inner = np.full((w, m, n, k - 1), np.nan)
        inner[slot >= 0] = bridges.store[:, slot[slot >= 0]].T
        ends = (np.abs(rows[1:]) >= delta).any(axis=2)
        bound = np.where(ends.any(axis=0), ends.argmax(axis=0), w)
        step = np.arange(w)[:, None, None] * k + np.arange(1, k)
        hits = np.where((np.abs(inner) >= delta).any(axis=2), step, w * k + 1)
        at = np.minimum(hits.min(axis=(0, 2)), (bound + 1) * k)
        gone = at <= w * k
        # the exit row of each exited lane, the round's last row otherwise
        last = np.where(gone, (at - 1) // k, w - 1)
        a, b = rows[:-1], rows[1:]
        reach_band = (np.exp(-2 * (delta - a) * (delta - b) / (k * config.dt))
                      + np.exp(-2 * (delta + a) * (delta + b) / (k * config.dt)))
        undrawn = (slot < 0) & (np.arange(w)[:, None] <= last)[:, :, None]
        assert np.all(reach_band[undrawn] < 2 * math.exp(-40))
        for i in np.flatnonzero(gone):
            lane, r, j = live[i], (at[i] - 1) // k, at[i] - (at[i] - 1) // k * k
            point = rows[r + 1, i] if j == k else inner[r, i, :, j - 1]
            assert lengths[lane] == t + at[i]
            assert np.array_equal(masks[lane], np.abs(point) >= delta)
            if e_pre is not None:
                drawn = ~np.isnan(point)
                assert np.array_equal(e_pre[lane][drawn], point[drawn])
                assert np.array_equal(np.abs(e_pre[lane]) >= delta, masks[lane])
        reach[live[gone]] = t + at[gone]
        exited[live[gone]] = True
        t += w * k
        going = ~gone
        reach[live[going]] = t
        # a lane stops once its earliest start plus its searched steps reach
        # the horizon
        earliest = np.concatenate([start + np.cumsum(reach[lo:hi]) - reach[lo:hi]
                                   for start, lo, hi in zip(starts, first, first[1:])])
        going &= earliest[live] + t < horizon
        if index + 1 < len(rounds):  # the next round starts where the going lanes are
            assert np.array_equal(rounds[index + 1].kept[0], rows[w, going].reshape(-1))
        live = live[going]
    assert not live.size
    assert np.array_equal(lengths[~exited], np.full(np.count_nonzero(~exited), horizon + 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(1, 24), band=st.floats(0.25, 2.5), cycles=st.floats(0.3, 30.0),
       trials=st.integers(1, 3), spare=st.sampled_from([1, 2]), logged=st.booleans(),
       sign=st.sampled_from([1.0, -1.0]), seed=st.integers(0, 2**16))
@example(n=24, band=0.25, cycles=30.0, trials=3, spare=1, logged=True, sign=1.0, seed=1)
@example(n=20, band=1.6, cycles=20.0, trials=2, spare=1, logged=False, sign=-1.0, seed=2)
def test_coarse_lanes_replay_from_their_draws(n, band, cycles, trials, spare, logged, sign, seed):
    # every coarse lane round replayed from its rows and drawn points alone,
    # on bands on both sides of the lane rule's edge (1.393 at dt 2e-3, here
    # forced onto coarse lanes), at horizons of a few cycles that cut one,
    # in groups of trials with later blocks, logged and unlogged, and under
    # a sign flip
    delta = band * 1.393
    horizon = cycles * mean_exit_time(n) * delta**2
    config = quiet_config(n=n, scenario=BL, scheme=Level(delta), dt=DT, horizon=horizon,
                          trials=trials, seed=seed, record_events=logged)
    blocks = []
    lane_block = driver._lane_block

    def recording_block(config, streams, lanes, starts, width, *args):
        KeptBridges.made = []
        out = lane_block(config, streams, lanes, starts, width, *args)
        blocks.append((lanes, starts, width, KeptBridges.made, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "fleet_coarse_steps", lambda config: driver.MAX_COARSE_STEPS)
        patch.setattr(driver, "LANE_SPARE", spare)
        patch.setattr(driver, "_Bridges", KeptBridges)
        patch.setattr(driver, "_lane_block", recording_block)
        driver._lane_cycles(config, range(trials), noise_scale=sign)
    assert blocks
    for block in blocks:
        replay_coarse_block(config, *block)


class KeptStream(driver.NoiseStream):
    """A ``NoiseStream`` that keeps a copy of every block of normals it
    draws, in order."""

    def __post_init__(self):
        super().__post_init__()
        self.kept = []

    def normals(self, shape, out=None):
        draws = super().normals(shape, out=out)
        self.kept.append(draws.copy())
        return draws


def per_trial_cumsum(values, lanes):
    """The running sum of ``values`` within each trial's ``lanes[g]`` lanes."""
    bounds = np.cumsum([0, *lanes])
    return np.concatenate([np.cumsum(values[a:b]) for a, b in zip(bounds, bounds[1:])])


def replay_grid_step_block(config, lanes, starts, width, draws):
    """``(lengths, counted, masks, e_pre, costs, rewards)`` per lane of one
    block of grid-step lanes, replayed one grid step at a time from the
    normals ``draws[g]`` that trial ``g``'s stream gave each round.

    A round ``t`` steps into the block advances ``max(width, t //
    LANE_GROWTH)`` steps and draws each trial's live lanes side by side.  A
    lane exits at its first step at which some ``|e| >= delta``; it stops
    once its earliest start (its trial's start plus the lengths of the
    trial's lanes before it, or the steps they were searched through while
    live) plus its own searched steps reaches the horizon.  A cycle that
    ends by the horizon counts its length, the one that crosses it its grid
    points before the horizon, later ones none, and the cost and reward sum
    ``x'Lx`` and ``e_0^2`` over the counted left endpoints."""
    n, dt, delta, horizon = config.n, config.dt, config.scheme.delta, config.steps
    total = sum(lanes)
    trial = np.repeat(np.arange(len(lanes)), lanes)
    rounds = [iter(kept) for kept in draws]
    paths = [[np.zeros(n)] for _ in range(total)]  # each lane's errors, step by step
    reach = np.zeros(total, dtype=np.int64)  # the exit, or the steps searched through
    exited = np.zeros(total, dtype=bool)
    live, t = np.arange(total), 0
    while live.size:
        w = max(width, t // driver.LANE_GROWTH)
        for g in range(len(lanes)):
            mine = live[trial[live] == g]
            if not mine.size:
                continue
            noise = next(rounds[g])
            assert noise.shape == (w, mine.size * n)
            for j, lane in enumerate(mine):
                path = paths[lane]
                for step in range(w):
                    path.append(path[-1] + noise[step, j * n : (j + 1) * n] * math.sqrt(dt))
                    if np.any(np.abs(path[-1]) >= delta):
                        reach[lane], exited[lane] = t + step + 1, True
                        break
        t += w
        going = live[~exited[live]]
        reach[going] = t
        earliest = np.repeat(starts, lanes) + per_trial_cumsum(reach, lanes) - reach
        live = going[earliest[going] + t < horizon]
    assert all(next(kept, None) is None for kept in rounds)  # every draw was a round's
    lengths = np.where(exited, reach, horizon + 1)
    begin = np.repeat(starts, lanes) + per_trial_cumsum(lengths, lanes) - lengths
    counted = np.where(begin + lengths <= horizon, lengths, np.maximum(horizon - begin, 0))
    masks = np.zeros((total, n), dtype=bool)
    e_pre = np.zeros((total, n))
    costs, rewards = np.zeros(total), np.zeros(total)
    for lane, path in enumerate(paths):
        if exited[lane]:
            e_pre[lane] = path[-1]
            masks[lane] = np.abs(path[-1]) >= delta
        for e in path[: counted[lane]]:
            costs[lane] += ((e[:, None] - e) ** 2).sum() / 2  # x'Lx over ordered pairs
            rewards[lane] += e[0] * e[0]
    return lengths, counted, masks, e_pre, costs, rewards


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(1, 24), delta=st.floats(2 * math.sqrt(DT), 3.5), cycles=st.floats(0.3, 8.0),
       trials=st.integers(1, 3), spare=st.sampled_from([1, 2]), logged=st.booleans(),
       sign=st.sampled_from([1.0, -1.0]), rule=st.sampled_from([Average(), Leader(), Fixed(0.25)]),
       seed=st.integers(0, 2**16))
@example(n=3, delta=0.7457396748327672, cycles=8.0, trials=3, spare=1, logged=True, sign=1.0,
         rule=Average(), seed=1)
@example(n=12, delta=2 * math.sqrt(DT), cycles=0.3, trials=2, spare=2, logged=True, sign=-1.0,
         rule=Leader(), seed=2)
def test_grid_step_lanes_replay_from_their_draws(n, delta, cycles, trials, spare, logged, sign,
                                                 rule, seed):
    # every grid-step lane round replayed one step at a time from the normals
    # its trials' streams drew, on bands from about 2 sqrt(dt) to 3.5 (forced
    # onto grid steps where the rule would take coarse lanes), at horizons
    # that cut a cycle, in groups of trials with later blocks, logged and
    # unlogged, under a sign flip and under every consensus rule; then each
    # trial's tallies and events from its replayed cycles.  A grid cycle
    # lasts about m_n (delta + GRID_EXIT_SHIFT sqrt(dt))^2
    cycle = mean_exit_time(n) * (delta + GRID_EXIT_SHIFT * math.sqrt(DT)) ** 2
    horizon = max(cycles * cycle, 2 * DT)
    config = quiet_config(n=n, scenario=BL, scheme=Level(delta), rule=rule, dt=DT,
                          horizon=horizon, trials=trials, seed=seed, record_events=logged)
    blocks = []
    lane_block = driver._lane_block

    def recording_block(config, streams, lanes, starts, width, *args):
        before = [len(stream.kept) for stream in streams]
        out = lane_block(config, streams, lanes, starts, width, *args)
        blocks.append(([stream.trial_index for stream in streams], lanes, starts, width,
                       [stream.kept[b:] for stream, b in zip(streams, before)], out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "fleet_coarse_steps", grid_rows)
        patch.setattr(driver, "LANE_SPARE", spare)
        patch.setattr(driver, "NoiseStream", KeptStream)
        patch.setattr(driver, "_lane_block", recording_block)
        results = driver._lane_cycles(config, range(trials), noise_scale=sign)
    lanes_of = [[] for _ in range(trials)]  # each trial's replayed lanes, in order
    ends = [0] * trials  # where each trial's last complete cycle ended
    for indices, lanes, starts, width, draws, out in blocks:
        assert list(starts) == [ends[g] for g in indices]
        replay = replay_grid_step_block(config, lanes, starts, width, draws)
        for got, expected in zip(out[:3], replay[:3]):
            assert np.array_equal(got, expected)  # lengths, counted and initiators
        if logged:
            assert np.array_equal(out[3], replay[3])
        else:
            assert out[3] is None
        assert out[4] == pytest.approx(replay[4], rel=1e-12)
        assert out[5] == pytest.approx(replay[5], rel=1e-12)
        bounds = np.cumsum([0, *lanes])
        for g, a, b in zip(indices, bounds, bounds[1:]):
            lanes_of[g] += zip(*(part[a:b] for part in replay))
            complete = replay[0][a:b] == replay[1][a:b]
            ends[g] += int(replay[0][a:b][complete].sum())
    for result, replayed in zip(results, lanes_of):
        acc, dt = result.accumulator, config.dt
        complete = [c for c in replayed if c[0] == c[1]]
        assert (acc.cycles, acc.global_event_count) == (len(complete), len(complete))
        initiators = np.array([c[2] for c in complete], dtype=np.int64).reshape(-1, n)
        assert acc.local_event_counts.tolist() == initiators.sum(axis=0).tolist()
        assert acc.integral_sum == pytest.approx(sum(c[4] for c in replayed) * dt, rel=1e-12)
        assert acc.cycle_reward_sum == pytest.approx(sum(c[5] for c in complete) * dt, rel=1e-12)
        assert acc.cycle_length_sum == pytest.approx(sum(c[0] for c in complete) * dt, rel=1e-12)
        assert acc.elapsed == pytest.approx(config.steps * dt, rel=1e-12)
        if not logged:
            assert result.events is None
            continue
        events, c_prev, step = [], 0.0, 0
        for length, _, mask, e_pre, *_ in complete:
            step += int(length)
            x_pre = c_prev + e_pre
            c = consensus_value(x_pre, c_prev, np.flatnonzero(mask), rule, BL)
            events.append((step * dt, tuple(np.flatnonzero(mask).tolist()), c, x_pre.tolist(),
                           [c] * n))
            c_prev = c
        assert outcome(result)[1] == events


def test_process_pool_matches_serial_trials():
    # trials on rows run in groups of at most ceil(trials / workers), so
    # three trials are groups of two and one, a process each, for
    # broadcast-only level trials on grid rows and staggered periodic ones
    # alike; the coarse lane cell's ten trials are two groups, one per
    # process, and so are the grid-step lane cell's thirty; n = 3 under
    # broadcast-plus-local information would run lanes, so the grid rows are
    # broadcast-only
    for config in (quiet_config(n=3, scenario=B, scheme=Level(1.0), horizon=50.0, trials=3,
                                seed=13),
                   quiet_config(n=3, scenario=B, scheme=Periodic(0.75, staggered_offsets(3, 0.75)),
                                horizon=50.0, trials=3, seed=13),
                   lane_config(trials=10, record_events=True),
                   grid_lane_config(trials=30, record_events=True)):
        serial = run_trials(config, workers=1)
        pooled = run_trials(config, workers=2)
        assert len(pooled) == len(serial) == config.trials
        assert [outcome(r) for r in pooled] == [outcome(r) for r in serial]
        assert (finalize([r.accumulator for r in pooled])
                == finalize([r.accumulator for r in serial]))


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


def recorded_pool_sizes(monkeypatch, cpus):
    """Stand ``RecordingPool`` in for the process pool, which then starts
    nothing, and let this process run on ``cpus`` CPUs (``None``: a platform
    without affinity masks, whose ``cpu_count`` is 3)."""
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
    return RecordingPool.sizes


@pytest.mark.parametrize(
    "workers, trials, cpus, expected",
    [(100_000, 3, 64, 3), (100_000, 8, 4, 4), (2, 8, 4, 2), (100_000, 8, 1, None),
     (1, 8, 4, None), (100_000, 8, None, 3)],
)
def test_process_pool_is_bounded(monkeypatch, workers, trials, cpus, expected):
    # a forking pool starts every process at once, so THREADS=100000 must not
    # ask for 100000 of them; never start a real pool at such a value
    sizes = recorded_pool_sizes(monkeypatch, cpus)
    config = quiet_config(n=2, scenario=B, scheme=Level(1.0),
                          horizon=1.0, trials=trials, seed=4)
    results = run_trials(config, workers=workers)
    assert sizes == ([] if expected is None else [expected])
    assert [tallies(r.accumulator) for r in results] == [
        tallies(run_trial(config, i).accumulator) for i in range(trials)]


@pytest.mark.parametrize("workers, trials, expected", [(100_000, 17, 3), (100_000, 8, None),
                                                       (2, 17, 2)])
def test_process_pool_counts_lane_groups(monkeypatch, workers, trials, expected):
    # the pool runs the lane cell's groups of eight trials, so 17 trials
    # make three groups and 8 trials one, which needs no pool
    sizes = recorded_pool_sizes(monkeypatch, 64)
    config = lane_config(trials=trials)
    results = run_trials(config, workers=workers)
    assert sizes == ([] if expected is None else [expected])
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
                          horizon=20.0, trials=1, seed=15)
    run = run_trial_reference(config, 0, trajectory_stride=10)
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

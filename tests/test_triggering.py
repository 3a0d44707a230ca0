import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from etclab import (
    InfoScenario,
    Level,
    NoiseStream,
    Periodic,
    ScenarioConfig,
    level_threshold,
    run_trial,
    run_trial_reference,
    sample_first_passage_batch,
    staggered_offsets,
)
from etclab import driver, triggering
from etclab.driver import _deadline_rule

B = InfoScenario.BROADCAST
BL = InfoScenario.BROADCAST_LOCAL


class ScriptedStream:
    """Stands in for a trial's noise stream: replays fixed increments."""

    def __init__(self, rows):
        self.flat = rows.ravel()
        self.pos = 0

    def normals(self, shape, out=None):
        size = int(np.prod(shape))
        draws = self.flat[self.pos : self.pos + size].reshape(shape)
        self.pos += size
        if out is None:
            return draws.copy()
        out[...] = draws
        return out

    def child(self, key):
        """The derived stream of a logged trial's own points, which grid
        rows never draw from: it replays nothing."""
        return ScriptedStream(np.zeros(0))


def scripted_events(monkeypatch, scenario, scheme, increments):
    """``(time, initiators)`` of every event when the fleet is driven by
    ``increments`` (one row per step, dt = 1), which the per-step reference
    replays step by step.  Under broadcast-only information the chunked
    integrator's grid rows replay them too, and both integrators agree.
    Under broadcast-plus-local a level fleet runs as lanes of renewal
    cycles, which draw each cycle's steps apart, so the reference runs
    alone; the lanes' pathwise check is
    ``tests/test_driver.py::test_grid_step_lanes_replay_from_their_draws``."""
    rows = np.asarray(increments, dtype=float)
    monkeypatch.setattr(driver, "NoiseStream", lambda *key: ScriptedStream(rows))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = ScenarioConfig(n=rows.shape[1], scenario=scenario, scheme=scheme,
                                dt=1.0, horizon=float(len(rows)), trials=1,
                                record_events=True)
    runs = (run_trial_reference,) if scenario is BL else (run_trial, run_trial_reference)
    logs = [[(e.time, e.initiators) for e in run(config, 0).events] for run in runs]
    assert logs[0] == logs[-1]
    return logs[0]


# --- scheme validation -----------------------------------------------------


def test_scheme_parameter_validation():
    with pytest.raises(ValueError):
        Periodic(0.0)
    with pytest.raises(ValueError):
        Periodic(0.5, (0.0, 0.6))  # offset beyond the period
    with pytest.raises(ValueError):
        Level(-1.0)
    with pytest.raises(ValueError):
        Level(0.0)


def test_staggered_offsets_cover_the_period():
    offs = staggered_offsets(4, 1.0)
    assert offs == (0.0, 0.25, 0.5, 0.75)


# --- level checks ----------------------------------------------------------


def test_level_broadcast_quiet_when_error_zero(monkeypatch):
    assert scripted_events(monkeypatch, B, Level(0.4), np.zeros((5, 3))) == []


def test_level_broadcast_boundary_is_inclusive(monkeypatch):
    # agent 0 sits exactly on the threshold after two steps
    events = scripted_events(monkeypatch, B, Level(1.0), [[0.5, 0.25]] * 3)
    assert events[0] == (2.0, (0,))


def test_level_broadcast_symmetric_simultaneous(monkeypatch):
    events = scripted_events(monkeypatch, B, Level(1.0), [[0.5, -0.5]] * 2)
    assert events == [(2.0, (0, 1))]


def test_level_global_quiet_after_reset(monkeypatch):
    increments = [[0.25, 0.0, 0.0]] * 2 + [[0.0, 0.0, 0.0]] * 4
    events = scripted_events(monkeypatch, BL, Level(0.5), increments)
    assert events == [(2.0, (0,))]


def test_level_global_flags_deviating_agent(monkeypatch):
    events = scripted_events(monkeypatch, BL, Level(0.75),
                             [[0.125, -0.375, -0.25]] * 2)
    assert events == [(2.0, (1,))]


def test_level_global_below_threshold(monkeypatch):
    events = scripted_events(monkeypatch, BL, Level(0.31), [[0.1, -0.1, 0.05]] * 3)
    assert events == []


def test_level_threshold_must_be_positive():
    with pytest.raises(ValueError):
        Level(0.0)
    with pytest.raises(ValueError):
        Level(-0.5)


# --- periodic checks (the reference integrator's stateless rule) ------------


def test_periodic_sync_fires_everyone_on_multiples():
    fired = _deadline_rule(Periodic(0.5), 0.002, 3)(500)
    assert list(fired) == [0, 1, 2]


def test_periodic_async_fires_at_phase():
    scheme = Periodic(0.75, (0.0, 0.25, 0.5))
    assert list(_deadline_rule(scheme, 0.05, 3)(5)) == [1]


def test_periodic_quiet_between_deadlines():
    scheme = Periodic(0.75, (0.0, 0.25, 0.5))
    assert _deadline_rule(scheme, 0.05, 3)(6).size == 0


def test_periodic_no_firing_at_time_zero_phase():
    # agents with offset 0 are initialized as just-triggered
    assert _deadline_rule(Periodic(0.5), 0.002, 2)(1).size == 0


def test_periodic_matches_deadline_accumulator():
    # stateless check agrees with an explicit enumeration of deadlines
    scheme = Periodic(0.311, (0.0, 0.1, 0.27))
    dt = 0.004
    fired_log = {}
    for step in range(1, 501):
        fired = _deadline_rule(scheme, dt, 3)(step)
        for agent in fired:
            fired_log.setdefault(int(agent), []).append(step)
    for agent, offset in enumerate(scheme.offsets):
        k0 = 1 if offset == 0.0 else 0
        expected = []
        k = k0
        while True:
            tau = offset + k * scheme.period
            step = int(np.ceil(tau / dt - 1e-9))
            if step > 500:
                break
            expected.append(step)
            k += 1
        assert fired_log[agent] == expected


# --- first-passage sampling ------------------------------------------------


def test_passage_mean_matches_square_law():
    # classical identity: mean exit time of standard BM from [-d, d] is d^2
    times = sample_first_passage_batch(NoiseStream(7), 40_000, 1.0, 1e-3)
    assert times.mean() == pytest.approx(1.0, rel=0.02)


def test_passage_mean_offgrid_threshold():
    delta = math.sqrt(1.5)
    times = sample_first_passage_batch(NoiseStream(8), 40_000, delta, 1e-3)
    assert times.mean() == pytest.approx(1.5, rel=0.02)


def test_passage_brownian_scaling():
    # T(2)/T(1) -> 4 by diffusive scaling
    m1 = sample_first_passage_batch(NoiseStream(9), 20_000, 1.0, 1e-3).mean()
    m2 = sample_first_passage_batch(NoiseStream(9), 20_000, 2.0, 4e-3).mean()
    assert m2 / m1 == pytest.approx(4.0, rel=0.05)


def test_passage_mean_over_delta_squared_constant():
    means = {}
    for i, delta in enumerate((0.7, 1.0, 1.6)):
        t = sample_first_passage_batch(NoiseStream(40 + i), 20_000, delta, 1e-3)
        means[delta] = t.mean() / delta**2
    values = list(means.values())
    assert max(values) / min(values) == pytest.approx(1.0, rel=0.03)


def test_min_exit_reduces_to_single_for_one_agent():
    a = sample_first_passage_batch(NoiseStream(10), 500, 1.0, 1e-3, n_agents=1)
    b = sample_first_passage_batch(NoiseStream(10), 500, 1.0, 1e-3, n_agents=1)
    assert np.array_equal(a, b)
    single = sample_first_passage_batch(NoiseStream(11), 1, 1.0, 1e-3)
    joint = sample_first_passage_batch(NoiseStream(11), 1, 1.0, 1e-3, n_agents=1)
    assert single == joint


def test_min_exit_three_agents_reference_threshold():
    # threshold 1.04 gives a ~0.5 s mean for three agents
    times = sample_first_passage_batch(NoiseStream(12), 40_000, 1.04, 1e-3, n_agents=3)
    assert times.mean() == pytest.approx(0.5, rel=0.10)


def test_min_exit_fifty_agents():
    # unit threshold, fifty agents: mean exit ~0.139 (scaling from the
    # 1.90 threshold that yields 0.5 s: 0.5 / 1.90^2 = 0.1385)
    times = sample_first_passage_batch(NoiseStream(13), 15_000, 1.0, 1e-3, n_agents=50)
    assert times.mean() == pytest.approx(0.139, rel=0.10)


def test_naive_grid_sampling_overestimates():
    naive = sample_first_passage_batch(
        NoiseStream(14), 40_000, 1.0, 1e-3, bridge_correction=False
    ).mean()
    corrected = sample_first_passage_batch(NoiseStream(14), 40_000, 1.0, 1e-3).mean()
    assert naive > corrected
    assert naive == pytest.approx(1.0, rel=0.05)
    assert corrected == pytest.approx(1.0, rel=0.02)


def test_passage_monotone_in_delta_and_agents():
    means = {}
    for delta in (0.8, 1.0, 1.2):
        means[delta] = sample_first_passage_batch(
            NoiseStream(15), 10_000, delta, 1e-3
        ).mean()
    assert means[0.8] < means[1.0] < means[1.2]
    by_n = {}
    for n in (1, 3, 10):
        by_n[n] = sample_first_passage_batch(
            NoiseStream(16), 10_000, 1.0, 1e-3, n_agents=n
        ).mean()
    assert by_n[1] > by_n[3] > by_n[10]


def test_passage_pathwise_monotonicity_oracle():
    # independent brute-force check on shared increments: larger bands
    # exit later, more agents exit earlier, path by path
    rng = np.random.default_rng(123)
    paths = rng.normal(size=(200, 6000, 4)) * np.sqrt(1e-3)
    walks = np.cumsum(paths, axis=1)

    def exit_step(delta, n):
        hit = (np.abs(walks[:, :, :n]) >= delta).any(axis=2)
        padded = np.concatenate([hit, np.ones((200, 1), dtype=bool)], axis=1)
        return padded.argmax(axis=1)

    assert np.all(exit_step(1.0, 1) <= exit_step(1.5, 1))
    assert np.all(exit_step(1.0, 4) <= exit_step(1.0, 1))


def test_passage_sign_flip_invariance():
    # symmetric stopping rule: negating the noise changes nothing, pathwise
    a = sample_first_passage_batch(NoiseStream(18), 2_000, 1.0, 1e-3)
    b = sample_first_passage_batch(NoiseStream(18, scale=-1.0), 2_000, 1.0, 1e-3)
    assert np.array_equal(a, b)


def test_passage_determinism():
    a = sample_first_passage_batch(NoiseStream(19), 1_000, 1.0, 2e-3)
    b = sample_first_passage_batch(NoiseStream(19), 1_000, 1.0, 2e-3)
    assert np.array_equal(a, b)


def test_passage_invalid_arguments():
    with pytest.raises(ValueError):
        sample_first_passage_batch(NoiseStream(0), 100, -1.0, 1e-3)
    with pytest.raises(ValueError):
        sample_first_passage_batch(NoiseStream(0), 100, 1.0, 0.0)
    with pytest.raises(ValueError):
        sample_first_passage_batch(NoiseStream(0), 0, 1.0, 1e-3)


def test_passage_zero_noise_raises_instead_of_hanging():
    # the guard stops after ceil(60 delta^2 / dt) + 1000 = 2500 steps; the
    # paths stay at 0, beyond sqrt(20 dt) of the band, so no bridge test
    # can end them either
    with pytest.raises(RuntimeError, match="not exited after 2500 steps"):
        sample_first_passage_batch(NoiseStream(0, scale=0.0), 10, 0.5, 1e-2)


def scalar_first_passage(stream, delta, dt, n, bridge):
    """One exit time, stepped one grid step at a time: ``normals(n)`` per
    step, then one ``uniforms(1)`` only when the bridge test runs.  The
    bridge-corrected time is the midpoint of the detecting step."""
    sqrt_dt = math.sqrt(dt)
    lag = 0.5 if bridge else 0.0
    near_band = delta - math.sqrt(20.0 * dt)
    x = np.zeros(n)
    step = 0
    while True:
        step += 1
        x_new = x + stream.normals(n) * sqrt_dt
        peak, peak_new = np.abs(x).max(), np.abs(x_new).max()
        if peak_new >= delta:
            return (step - lag) * dt
        if bridge and (peak > near_band or peak_new > near_band):
            p = np.exp(-2.0 * (delta - x) * (delta - x_new) / dt)
            p += np.exp(-2.0 * (delta + x) * (delta + x_new) / dt)
            survive = np.prod(1.0 - np.clip(p, 0.0, 1.0))
            if stream.uniforms(1)[0] < 1.0 - survive:
                return (step - lag) * dt
        x = x_new


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    delta=st.floats(0.05, 1.2),
    dt=st.floats(5e-4, 1e-2),
    n=st.integers(1, 12),
    sign=st.sampled_from([1.0, -1.0]),
    bridge=st.booleans(),
    seed=st.integers(0, 2**32),
)
@example(delta=1.0, dt=1e-3, n=12, sign=1.0, bridge=True, seed=0)
@example(delta=0.1, dt=1e-2, n=3, sign=-1.0, bridge=True, seed=1)  # every step tested
@example(delta=1.0, dt=1e-3, n=50, sign=1.0, bridge=True, seed=2)
def test_passage_batch_matches_scalar_oracle(delta, dt, n, sign, bridge, seed):
    # exact equality pins the crossing rule and the order of the draws;
    # three exit times in a row also check where each call leaves the stream
    batch, scalar = NoiseStream(seed, scale=sign), NoiseStream(seed, scale=sign)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triggering, "MAX_COARSE_STEPS", 1)  # every step a fine step
        for _ in range(3):
            got = sample_first_passage_batch(batch, 1, delta, dt, n_agents=n,
                                             bridge_correction=bridge)
            assert got[0] == scalar_first_passage(scalar, delta, dt, n, bridge)


def dense_bridge_survival(a, b, delta, dt):
    """Per row, the bridge survival with the crossing law evaluated for
    every agent."""
    p = np.exp(-2.0 * (delta - a) * (delta - b) / dt)
    p += np.exp(-2.0 * (delta + a) * (delta + b) / dt)
    return np.prod(1.0 - np.clip(p, 0.0, 1.0), axis=1)


@pytest.mark.parametrize("n", [1, 3, 50])
def test_bridge_survival_keeps_every_bit(n):
    # endpoints on both sides of sqrt(20 dt) from either boundary; a skipped
    # entry whose factor were not exactly 1.0 would move some product's bits
    rng = np.random.default_rng(n)
    delta, dt = 1.0, 1e-3
    edge = delta - math.sqrt(20.0 * dt)
    sign = rng.choice([-1.0, 1.0], (4000, n))
    a = sign * rng.uniform(edge - 0.1, delta, (4000, n))
    b = np.clip(a + rng.normal(0.0, math.sqrt(dt), a.shape), -0.9999, 0.9999)
    near = (np.abs(a) > edge) | (np.abs(b) > edge)
    rows, survive = triggering._bridge_survival(a.ravel(), b.ravel(), np.arange(4000 * n), n,
                                                near.ravel(), delta, dt)
    got = np.ones(4000)
    got[rows] = survive
    assert np.array_equal(got, dense_bridge_survival(a, b, delta, dt))
    assert np.count_nonzero(got < 1.0) > 100


def dense_first_passage_batch(stream, n_samples, delta, dt, n_agents, bridge):
    """Reference batch sampler: all paths stepped together, and the bridge
    law evaluated for every agent of every tested row.  Returns the exit
    times and the first agent's occupation integrals."""
    max_steps = int(np.ceil(60.0 * delta * delta / dt)) + 1000
    sqrt_dt = np.sqrt(dt)
    lag = 0.5 if bridge else 0.0
    near_band = delta - np.sqrt(20.0 * dt)
    times = np.empty(n_samples)
    occupation = np.zeros(n_samples)
    x = np.zeros((n_samples, n_agents))
    peak = np.zeros(n_samples)
    occ = np.zeros(n_samples)
    pos = np.arange(n_samples)
    step = 0
    while pos.size:
        step += 1
        assert step <= max_steps
        occ += (x[:, 0] ** 2) * dt
        z = stream.normals((pos.size, n_agents))
        z *= sqrt_dt
        z += x
        peak_new = np.abs(z).max(axis=1)
        crossed = peak_new >= delta
        if bridge:
            rows = np.flatnonzero(((peak > near_band) | (peak_new > near_band)) & ~crossed)
            if rows.size:
                survive = dense_bridge_survival(x[rows], z[rows], delta, dt)
                hit = stream.uniforms(rows.size) < 1.0 - survive
                crossed[rows[hit]] = True
        done = pos[crossed]
        times[done] = (step - lag) * dt
        occupation[done] = occ[crossed]
        keep = ~crossed
        pos, x, peak, occ = pos[keep], z[keep], peak_new[keep], occ[keep]
    return times, occupation


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    band=st.floats(0.1, 5.0),
    dt=st.floats(1e-3, 1e-2),
    n=st.integers(1, 64),
    samples=st.integers(1, 2000),
    sign=st.sampled_from([1.0, -1.0]),
    bridge=st.booleans(),
    seed=st.integers(0, 2**32),
)
@example(band=0.1, dt=1e-2, n=2, samples=2000, sign=1.0, bridge=True, seed=5)  # p > 1
@example(band=0.9, dt=1e-2, n=64, samples=2000, sign=1.0, bridge=True, seed=3)
@example(band=4.0, dt=1e-3, n=50, samples=2000, sign=-1.0, bridge=True, seed=4)
def test_passage_batch_matches_dense_reference(band, dt, n, samples, sign, bridge, seed):
    # delta = band * sqrt(20 dt): below one band every agent of a tested row
    # gets the bridge law, above it most agents are skipped
    delta = band * math.sqrt(20.0 * dt)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triggering, "MAX_COARSE_STEPS", 1)  # every step a fine step
        got = sample_first_passage_batch(NoiseStream(seed, scale=sign), samples, delta, dt,
                                         n_agents=n, bridge_correction=bridge,
                                         return_occupation=True)
    want = dense_first_passage_batch(NoiseStream(seed, scale=sign), samples, delta, dt,
                                     n, bridge)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_passage_memory_stays_near_the_chunk_budget(monkeypatch, peak_bytes):
    # paths are stepped in blocks of CHUNK_BYTES // (8 n); a call sixteen
    # blocks long must hold a few blocks' worth (its two outputs take one),
    # not the sixteen of each working array, and draw as the reference
    # does over the same blocks in turn
    n, rows, blocks = 32, 256, 16
    monkeypatch.setattr(triggering, "CHUNK_BYTES", rows * 8 * n)
    monkeypatch.setattr(triggering, "MAX_COARSE_STEPS", 1)  # every step a fine step
    (times, occupation), peak = peak_bytes(lambda: sample_first_passage_batch(
        NoiseStream(5), rows * blocks, 1.0, 1e-2, n_agents=n, return_occupation=True))
    assert peak <= 8 * triggering.CHUNK_BYTES
    stream = NoiseStream(5)
    want = [dense_first_passage_batch(stream, rows, 1.0, 1e-2, n, True) for _ in range(blocks)]
    assert np.array_equal(times, np.concatenate([w[0] for w in want]))
    assert np.array_equal(occupation, np.concatenate([w[1] for w in want]))


@pytest.mark.parametrize("dt, coarse", [(1e-3, None), (3.4e-3, None), (1e-2, 8)])
def test_coarse_passage_memory_stays_near_the_chunk_budget(monkeypatch, peak_bytes, dt, coarse):
    # the bound above with coarse steps of MAX_COARSE_STEPS, unless
    # ``coarse`` sets it: at dt 3.4e-3 nearly every agent is refined, at
    # dt 1e-2 with K = 8 every agent is.  A call sixteen blocks long must
    # draw as sixteen one-block calls do
    n, rows, blocks = 32, 256, 16
    if coarse is not None:
        monkeypatch.setattr(triggering, "MAX_COARSE_STEPS", coarse)
    monkeypatch.setattr(triggering, "CHUNK_BYTES", rows * 8 * n)
    (times, occupation), peak = peak_bytes(lambda: sample_first_passage_batch(
        NoiseStream(5), rows * blocks, 1.0, dt, n_agents=n, return_occupation=True))
    assert peak <= 8 * triggering.CHUNK_BYTES
    stream = NoiseStream(5)
    want = [sample_first_passage_batch(stream, rows, 1.0, dt, n_agents=n, return_occupation=True)
            for _ in range(blocks)]
    assert np.array_equal(times, np.concatenate([w[0] for w in want]))
    assert np.array_equal(occupation, np.concatenate([w[1] for w in want]))


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("occupation", [False, True])
@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("n", [1, 3, 50])
def test_coarse_step_pieces_keep_every_bit(monkeypatch, n, bridge, occupation, blocks):
    # each coarse step is formed in pieces of _PIECE_BYTES, drawn one after
    # another and compacted forward in place: pieces of one row and of seven
    # rows, over one block or over blocks of 32 paths, must give the exit
    # times and occupation integrals of the default piece, which holds a
    # whole block here, bit for bit
    samples, dt = 80, 1e-3
    delta = level_threshold(n, 0.5)  # far lies inside the band: some entries refined, some not
    if blocks > 1:
        monkeypatch.setattr(triggering, "CHUNK_BYTES", 32 * 8 * n)
    assert triggering._PIECE_BYTES // (8 * n) >= samples

    def draw():
        return np.asarray(sample_first_passage_batch(
            NoiseStream(17, subkey=(n,)), samples, delta, dt, n_agents=n,
            bridge_correction=bridge, return_occupation=occupation))

    want = draw()
    for piece_rows in (1, 7):
        monkeypatch.setattr(triggering, "_PIECE_BYTES", piece_rows * 8 * n)
        assert np.array_equal(draw(), want), piece_rows


@pytest.mark.parametrize("n, limit", [(50, 6000 * 50 * 8), (200, triggering.CHUNK_BYTES)])
def test_passage_memory_at_the_calibrate_shape(peak_bytes, n, limit):
    # the calibrator's verification run draws 6000 bridge-corrected exits at
    # dt 2e-3: beyond its block of coarse points the sampler holds one piece
    # and the refined entries, so at fifty agents, one block of 6000 rows,
    # it peaks within two such blocks, and at two hundred, a block of
    # CHUNK_BYTES and a second of the rest, within two CHUNK_BYTES
    times, peak = peak_bytes(lambda: sample_first_passage_batch(
        NoiseStream(1729).child(n), 6000, level_threshold(n, 0.5), 2e-3, n_agents=n))
    assert np.isfinite(times).all()
    assert peak <= 2 * limit


def scalar_coarse_first_passage(stream, delta, dt, n, bridge, coarse, occupation):
    """One exit time and the first agent's occupation integral, stepped
    ``coarse`` fine steps at a time: ``normals(n)`` for the coarse endpoints,
    then per fine step ``normals(m)`` for the interior point of the ``m``
    refined agents (none at the coarse endpoint) and one ``uniforms(1)``
    when the bridge test runs.  An agent is refined where an end lies
    within ``sqrt(20 coarse dt)`` of a boundary, or with the bridge test of
    ``delta - sqrt(20 dt)``."""
    lag = 0.5 if bridge else 0.0
    near_band = delta - math.sqrt(20.0 * dt)
    far = (near_band if bridge else delta) - math.sqrt(20.0 * coarse * dt)
    x = np.zeros(n)
    occ = np.zeros(1)
    step = 0
    while True:
        end = x + stream.normals(n) * math.sqrt(coarse * dt)
        refined = (np.abs(x) > far) | (np.abs(end) > far)
        refined[0] |= occupation
        a, b = x[refined], end[refined]
        for r in range(coarse, 0, -1):
            step += 1
            if occupation:
                occ += a[:1] ** 2 * dt
            if r == 1:
                f = b
            else:
                f = a + (b - a) / r + stream.normals(a.size) * math.sqrt(dt * (r - 1) / r)
            if np.any(np.abs(f) >= delta):
                return (step - lag) * dt, occ[0]
            near = (np.abs(a) > near_band) | (np.abs(f) > near_band)
            if bridge and near.any():
                p = np.exp(-2.0 * (delta - a[near]) * (delta - f[near]) / dt)
                p += np.exp(-2.0 * (delta + a[near]) * (delta + f[near]) / dt)
                if stream.uniforms(1)[0] < 1.0 - np.prod(1.0 - np.minimum(p, 1.0)):
                    return (step - lag) * dt, occ[0]
            a = f
        x = end


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    delta=st.floats(0.05, 1.2),
    dt=st.floats(5e-4, 1e-2),
    n=st.integers(1, 12),
    coarse=st.sampled_from([2, 4, 8]),
    sign=st.sampled_from([1.0, -1.0]),
    bridge=st.booleans(),
    occupation=st.booleans(),
    seed=st.integers(0, 2**32),
)
@example(delta=1.0, dt=1e-3, n=50, coarse=8, sign=1.0, bridge=True, occupation=True, seed=2)
@example(delta=1.0, dt=1e-3, n=12, coarse=4, sign=-1.0, bridge=True, occupation=False, seed=0)
@example(delta=0.1, dt=1e-2, n=3, coarse=2, sign=1.0, bridge=True, occupation=False, seed=1)
def test_coarse_passage_matches_scalar_oracle(delta, dt, n, coarse, sign, bridge, occupation,
                                              seed):
    # exact equality pins the refinement rule, the bridge law and the order
    # of the draws; three exits in a row also check where each call leaves
    # the stream
    batch, scalar = NoiseStream(seed, scale=sign), NoiseStream(seed, scale=sign)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triggering, "MAX_COARSE_STEPS", coarse)
        for _ in range(3):
            got = sample_first_passage_batch(batch, 1, delta, dt, n_agents=n,
                                             bridge_correction=bridge,
                                             return_occupation=occupation)
            want = scalar_coarse_first_passage(scalar, delta, dt, n, bridge, coarse, occupation)
            if occupation:
                assert (got[0][0], got[1][0]) == want
            else:
                assert got[0] == want[0]


@pytest.mark.parametrize("n", [1, 3, 50])
def test_coarse_passage_law_matches_fine_steps(monkeypatch, n):
    # coarse steps with bridge refinement draw exits from the fine sampler's
    # law.  Interior points drawn with variance dt instead of dt (r - 1) / r
    # move the means here by 5 to 15 SE at every K.  Dropping the
    # sqrt(20 K dt) term from `far` misses a crossing with probability up to
    # exp(-40 / K) per agent and coarse step, which only K = 32 makes visible
    samples, delta, dt = 20_000, 1.0, 1e-2

    def exits(k):
        monkeypatch.setattr(triggering, "MAX_COARSE_STEPS", k)
        return sample_first_passage_batch(NoiseStream(61, subkey=(n, k)), samples, delta, dt,
                                          n_agents=n)

    fine = exits(1)
    for k in (2, 4, 8, 32):
        coarse = exits(k)
        se = math.sqrt((fine.var(ddof=1) + coarse.var(ddof=1)) / samples)
        assert abs(coarse.mean() - fine.mean()) <= 4 * se, k
        assert stats.ks_2samp(coarse, fine).pvalue > 1e-3, k

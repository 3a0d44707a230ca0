import warnings

import numpy as np
import pytest

from etclab import (
    InfoScenario,
    Level,
    NoiseStream,
    Periodic,
    ScenarioConfig,
    run_trial_reference,
)
from etclab.driver import _Fleet, _settle, _Tally

B = InfoScenario.BROADCAST
BL = InfoScenario.BROADCAST_LOCAL


def quiet_config(**kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ScenarioConfig(**kw)


def fire(x, initiators, scenario, c_prev):
    """The logged event after ``initiators`` fire with the fleet at ``x`` and
    every estimate at the last consensus point ``c_prev``."""
    config = quiet_config(n=len(x), scenario=scenario, scheme=Periodic(1.0),
                          record_events=True)
    fleet = _Fleet.start(config)
    fleet.c_prev = c_prev
    fleet.e = np.asarray(x, dtype=float) - c_prev
    mask = np.zeros(len(x), dtype=bool)
    mask[initiators] = True
    _settle(_Tally([fleet]), fleet.e[None, None], 1, [0], mask[None], 1)
    return fleet.events[0]


def test_increment_law():
    # zero mean within 3 standard errors, variance within 1%
    draws = NoiseStream(17).normals(1_000_000) * np.sqrt(0.002)
    se = np.sqrt(0.002 / 1e6)
    assert abs(draws.mean()) < 3 * se
    assert draws.var() == pytest.approx(0.002, rel=0.01)


def test_same_key_reproduces_bit_for_bit():
    a = NoiseStream(99, trial_index=4).normals(1000)
    b = NoiseStream(99, trial_index=4).normals(1000)
    assert np.array_equal(a, b)


def test_distinct_trials_are_distinct():
    a = NoiseStream(99, trial_index=0).normals(100)
    b = NoiseStream(99, trial_index=1).normals(100)
    assert not np.array_equal(a, b)


def test_chunked_draws_match_stepwise_draws():
    # the chunked integrator relies on this consumption-order property
    stepwise = NoiseStream(5)
    chunked = NoiseStream(5)
    a = np.concatenate([stepwise.normals(3) for _ in range(40)])
    b = chunked.normals((40, 3)).ravel()
    assert np.array_equal(a, b)


def test_scale_negates_and_silences():
    base = NoiseStream(7).normals(50)
    neg = NoiseStream(7, scale=-1.0).normals(50)
    zero = NoiseStream(7, scale=0.0).normals(50)
    assert np.array_equal(neg, -base)
    assert np.all(zero == 0.0)


@pytest.mark.parametrize("scale", [2.0, -1.5, 1.0000001, float("inf"), float("nan")])
def test_scale_beyond_one_is_rejected(scale):
    # the coarse samplers' draw tests bound a bridge's reach for steps of
    # unit variance; at scale 2 the bound per bridge is about exp(-10)
    with pytest.raises(ValueError, match="noise scale"):
        NoiseStream(7, scale=scale)


def test_child_streams_are_independent():
    s = NoiseStream(12)
    a = s.child(1).normals(64)
    b = s.child(2).normals(64)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, NoiseStream(12).child(1).normals(64))


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        NoiseStream(-1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -5"):
        quiet_config(n=3, scenario=B, scheme=Level(1.0), seed=-5)


def test_nonpositive_dt_rejected():
    for dt in (0.0, -1.0):
        with pytest.raises(ValueError):
            quiet_config(n=3, scenario=B, scheme=Level(1.0), dt=dt)


def test_drift_keeps_state_with_zero_increments():
    config = quiet_config(n=4, scenario=BL, scheme=Level(1.0), dt=0.002,
                          horizon=1.0, trials=1)
    rows = run_trial_reference(config, 0, noise_scale=0.0, trajectory_stride=50).trajectory
    assert [t for t, *_ in rows] == pytest.approx([0.1 * k for k in range(11)])
    for _, x, xhat, flag, _ in rows:
        assert flag == 0
        assert np.all(x == 0.0) and np.all(xhat == 0.0)


def test_drift_telescopes_exactly():
    # with no triggers the state is the running sum of its increments,
    # drawn one step at a time in the order of one block of the stream
    dt, steps = 0.002, 200
    config = quiet_config(n=3, scenario=B, scheme=Level(100.0), dt=dt,
                          horizon=steps * dt, trials=1, seed=21)
    rows = run_trial_reference(config, 0, trajectory_stride=1).trajectory
    dws = NoiseStream(21, 0).normals((steps, 3)) * np.sqrt(dt)
    sequential = np.cumsum(dws, axis=0)
    assert len(rows) == steps + 1
    assert np.array_equal(np.array([x for _, x, *_ in rows[1:]]), sequential)


def test_impulse_zero_is_identity():
    # a fleet already in consensus at an exact reset does not move
    event = fire([0.5, 0.5, 0.5], [1], BL, c_prev=0.0)
    assert np.array_equal(event.x_post, event.x_pre)


def test_impulse_adds_jumps():
    # broadcast-only: every agent moves by c minus its (refreshed) estimate
    event = fire([1.0, 2.0, -0.5], [2], B, c_prev=0.25)
    c = event.consensus_point
    assert event.x_post - event.x_pre == pytest.approx([c - 0.25, c - 0.25, c + 0.5])


def test_impulse_reset_to_mean():
    event = fire([1.0, 0.0, -1.0], [0], BL, c_prev=0.0)
    assert np.array_equal(event.x_post, [0.0, 0.0, 0.0])


def test_initial_state_is_consensus_at_zero():
    for scheme, scenario, center in ((Level(1.0), BL, 0.0),
                                     (Periodic(0.5), B, None)):
        config = quiet_config(n=5, scenario=scenario, scheme=scheme, horizon=1.0,
                              trials=1)
        t, x, xhat, flag, thr = run_trial_reference(config, 0, trajectory_stride=50).trajectory[0]
        assert (t, flag) == (0.0, 0)
        assert np.all(x == 0.0) and np.all(xhat == 0.0)
        assert thr == center if center is not None else np.isnan(thr)

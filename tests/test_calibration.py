import math

import numpy as np
import pytest

from etclab import (
    CalibrationError,
    NoiseStream,
    calibrate_global_threshold,
    mean_exit_time,
    sample_first_passage_batch,
)


def test_broadcast_threshold_closed_form():
    # n = 1 is the broadcast-only rule: m_1 = 1, so delta = sqrt(T / m_1) = sqrt(T)
    assert mean_exit_time(1) == 1.0

    def delta(target):
        return math.sqrt(target / mean_exit_time(1))

    assert delta(1.5) == pytest.approx(math.sqrt(1.5))
    assert delta(0.75) == pytest.approx(0.8660, abs=1e-4)
    assert delta(1.0) == 1.0


def test_broadcast_threshold_verified_mean():
    result = calibrate_global_threshold(1, 1.5, stream=NoiseStream(3), samples=100_000)
    assert result.delta_star == math.sqrt(1.5)
    assert result.achieved_period == pytest.approx(1.5, rel=0.03)
    assert result.samples_used == 20_000
    assert result.method == "scaling-law"


def test_broadcast_threshold_rejects_bad_target():
    with pytest.raises(ValueError):
        calibrate_global_threshold(1, 0.0)


def test_single_agent_global_threshold_is_sqrt_target():
    result = calibrate_global_threshold(
        1, 1.0, stream=NoiseStream(5), samples=20_000
    )
    assert result.delta_star == pytest.approx(1.0, rel=0.02)
    assert result.achieved_period == pytest.approx(1.0, rel=0.03)


@pytest.mark.parametrize(
    "n,expected", [(3, 1.04), (10, 1.44), (50, 1.90)]
)
def test_reference_thresholds_for_half_second_target(n, expected):
    # reduced budget here; the acceptance suite re-checks at full budget
    result = calibrate_global_threshold(
        n, 0.5, stream=NoiseStream(7), samples=20_000
    )
    assert result.delta_star == pytest.approx(expected, rel=0.10)


@pytest.mark.parametrize("n", [1, 3, 10, 50])
def test_mean_exit_time_inside_monte_carlo_ci(n):
    samples, dt = 20_000, 1e-3
    times = sample_first_passage_batch(NoiseStream(29), samples, 1.0, dt, n_agents=n)
    ci = 1.96 * times.std(ddof=1) / math.sqrt(samples)
    # the sampler reports the end of the detecting step, half a step late on
    # average; at n=50 that is about 1.6 standard errors
    assert abs(mean_exit_time(n) - (times.mean() - dt / 2)) <= ci


def test_mean_exit_time_single_agent_is_one():
    assert mean_exit_time(1) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        mean_exit_time(0)


def test_mean_exit_time_strictly_decreases_in_agent_count():
    means = [mean_exit_time(n) for n in (1, 2, 3, 5, 10, 20, 50, 100)]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_unit_mean_for_single_agent_unit_threshold():
    times = sample_first_passage_batch(NoiseStream(13), 20_000, 1.0, 1e-3)
    assert times.mean() == pytest.approx(1.0, rel=0.02)


def test_mean_exit_decreases_with_agent_count():
    means = []
    for n in (1, 2, 5, 10):
        t = sample_first_passage_batch(NoiseStream(17), 10_000, 1.0, 1e-3, n_agents=n)
        means.append(t.mean())
    assert all(a > b for a, b in zip(means, means[1:]))


def test_calibration_reproducible_bit_for_bit():
    a = calibrate_global_threshold(3, 0.5, stream=NoiseStream(19), samples=5_000)
    b = calibrate_global_threshold(3, 0.5, stream=NoiseStream(19), samples=5_000)
    assert a.delta_star == b.delta_star
    assert a.achieved_period == b.achieved_period


def test_unreachable_tolerance_raises_with_diagnostics():
    with pytest.raises(CalibrationError) as info:
        calibrate_global_threshold(
            1, 0.5, stream=NoiseStream(23), samples=400, tolerance=0.0005
        )
    err = info.value
    assert err.target == 0.5
    assert err.samples > 0
    assert err.delta > 0


def test_argument_validation():
    with pytest.raises(ValueError):
        calibrate_global_threshold(0, 0.5)
    with pytest.raises(ValueError):
        calibrate_global_threshold(3, -0.5)
    with pytest.raises(ValueError):
        calibrate_global_threshold(3, 0.5, tolerance=0.5)
    with pytest.raises(ValueError, match="samples"):
        calibrate_global_threshold(3, 0.5, samples=0)

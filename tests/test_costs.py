import math
from functools import partial

import numpy as np
import pytest

from etclab import (
    CostAccumulator,
    InfoScenario,
    Level,
    NoiseStream,
    ScenarioConfig,
    calibrate_global_threshold,
    expected_occupation_integral,
    finalize,
    j_et_broadcast,
    j_tt_broadcast,
    j_tt_broadcast_local,
    level_threshold,
    local_to_global_period,
    mean_exit_time,
    merge_accumulators,
    run_trial,
    sample_first_passage_batch,
)


def constant_cost_acc(n, cost, steps, dt):
    acc = CostAccumulator(n)
    acc.integral_sum = cost * dt * steps
    acc.elapsed = dt * steps
    return acc


# --- accumulator -----------------------------------------------------------


def test_zero_cost_horizon_gives_zero_average():
    acc = constant_cost_acc(3, 0.0, 1000, 0.002)
    report = finalize([acc])
    assert report.j_time_avg == 0.0


def test_constant_cost_average_is_the_constant():
    acc = constant_cost_acc(3, 4.2, 500, 0.01)
    report = finalize([acc])
    assert report.j_time_avg == pytest.approx(4.2)


def test_single_trial_average():
    acc = CostAccumulator(2)
    acc.integral_sum = 10.0
    acc.elapsed = 5.0
    assert finalize([acc]).j_time_avg == pytest.approx(2.0)


def test_merge_equals_concatenated_accumulation():
    rng = np.random.default_rng(1)
    costs = rng.uniform(0, 3, size=400)
    one, first, second = CostAccumulator(3), CostAccumulator(3), CostAccumulator(3)
    for acc, part in ((one, costs), (first, costs[:200]), (second, costs[200:])):
        acc.integral_sum = float(part.sum()) * 0.002
        acc.elapsed = part.size * 0.002
    first.close_cycle(1.0, 0.4)
    second.close_cycle(2.0, 0.5)
    one.close_cycle(1.0, 0.4)
    one.close_cycle(2.0, 0.5)
    merged = merge_accumulators([first, second])
    assert merged.integral_sum == pytest.approx(one.integral_sum)
    assert merged.elapsed == pytest.approx(one.elapsed)
    assert (merged.cycles, merged.cycle_reward_sum, merged.cycle_length_sum) == (
        one.cycles, one.cycle_reward_sum, one.cycle_length_sum)


def test_finalize_requires_elapsed_time():
    with pytest.raises(ValueError):
        finalize([CostAccumulator(2)])


def test_renewal_sums_bounded_by_elapsed():
    acc = constant_cost_acc(2, 1.0, 100, 0.01)
    acc.close_cycle(0.3, 0.5)
    acc.close_cycle(0.2, 0.4)
    assert acc.cycles == 2
    assert acc.cycle_length_sum <= acc.elapsed


# --- closed-form oracles ---------------------------------------------------


def test_periodic_broadcast_cost_values():
    assert j_tt_broadcast(1, 1.0) == 0.0
    assert j_tt_broadcast(3, 0.75) == pytest.approx(2.25)
    assert j_tt_broadcast(10, 5.0) == pytest.approx(225.0)


def test_level_broadcast_cost_values():
    assert j_et_broadcast(3, math.sqrt(1.5)) == pytest.approx(1.5)
    assert j_et_broadcast(3, math.sqrt(0.75)) == pytest.approx(0.75)


def test_level_to_periodic_ratio_is_one_third():
    for n in (2, 3, 10, 50):
        for delta in (0.5, 1.0, 1.7):
            ratio = j_et_broadcast(n, delta) / j_tt_broadcast(n, delta**2)
            assert ratio == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_periodic_local_state_cost_values():
    assert j_tt_broadcast_local(3, 0.5) == pytest.approx(1.5)
    assert j_tt_broadcast_local(50, 0.5) == pytest.approx(612.5)
    assert j_tt_broadcast_local(1, 0.5) == 0.0


def test_rate_conversion():
    assert local_to_global_period(3, 1.5) == pytest.approx(0.5)
    assert local_to_global_period(1, 0.7) == pytest.approx(0.7)
    # composing with the inverse map is the identity
    assert local_to_global_period(5, 5 * 0.31) == pytest.approx(0.31)


def test_information_gap_is_agent_count():
    for n in (2, 3, 10, 50):
        for period in (0.25, 0.5, 2.0):
            # both costs vanish at n=1, so the checked identity needs n >= 2
            quotient = j_tt_broadcast(n, n * period) / j_tt_broadcast_local(n, period)
            assert quotient == pytest.approx(n, rel=1e-12)


def test_occupation_integral_closed_form():
    assert expected_occupation_integral(1.0) == pytest.approx(1.0 / 6.0)
    assert expected_occupation_integral(math.sqrt(1.5)) == pytest.approx(0.375)
    assert expected_occupation_integral(1e-4) == pytest.approx(0.0, abs=1e-12)


def test_occupation_integral_against_monte_carlo():
    # brute-force oracle: average the squared-path rectangle sums over
    # sampled excursions; the closed form is delta^4 / 6
    _, occ = sample_first_passage_batch(
        NoiseStream(31), 30_000, 1.0, 1e-3, return_occupation=True
    )
    assert occ.mean() == pytest.approx(expected_occupation_integral(1.0), rel=0.03)


def test_oracle_argument_validation():
    with pytest.raises(ValueError):
        j_tt_broadcast(0, 1.0)
    with pytest.raises(ValueError):
        j_et_broadcast(3, 0.0)
    with pytest.raises(ValueError):
        j_tt_broadcast_local(3, -1.0)
    with pytest.raises(ValueError):
        local_to_global_period(3, 0.0)
    with pytest.raises(ValueError):
        expected_occupation_integral(0.0)


CONFIG = dict(n=3, scenario=InfoScenario.BROADCAST, scheme=Level(0.5), horizon=100.0)


@pytest.mark.parametrize("call, name", [
    pytest.param(partial(j_tt_broadcast, 3, math.nan), "period", id="j_tt-nan"),
    pytest.param(partial(j_et_broadcast, 3, math.inf), "threshold", id="j_et-inf"),
    pytest.param(partial(expected_occupation_integral, math.nan), "threshold",
                 id="occupation-nan"),
    pytest.param(partial(local_to_global_period, 3, math.inf), "period", id="rate-inf"),
    pytest.param(partial(j_et_broadcast, 1.5, 1.0), "agent count", id="j_et-n-float"),
    pytest.param(partial(mean_exit_time, 2.5), "agent count", id="exit-time-n-float"),
    pytest.param(partial(level_threshold, 2.5, 0.5), "agent count", id="threshold-n-float"),
    pytest.param(partial(calibrate_global_threshold, 3, 0.5, samples=5000.5), "samples",
                 id="calibrate-samples-float"),
    pytest.param(partial(ScenarioConfig, **{**CONFIG, "n": 2.5}), "agent count",
                 id="config-n-float"),
    pytest.param(partial(ScenarioConfig, **CONFIG, trials=1.5), "trials",
                 id="config-trials-float"),
    pytest.param(partial(ScenarioConfig, **CONFIG, seed=1.5), "seed", id="config-seed-float"),
    pytest.param(partial(ScenarioConfig, **CONFIG, trajectory_stride=2.5), "trajectory_stride",
                 id="config-stride-float"),
    pytest.param(partial(sample_first_passage_batch, NoiseStream(0), 10, 1.0, 1e-2,
                         n_agents=2.5), "n_agents", id="sampler-n-agents-float"),
])
def test_invalid_input_fails_at_once(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()


def test_numpy_integers_are_counts():
    n = np.int64(3)
    assert j_tt_broadcast(n, 1.0) == j_tt_broadcast(3, 1.0)
    assert level_threshold(n, 0.5) == level_threshold(3, 0.5)
    numpy_config = ScenarioConfig(**{**CONFIG, "n": n}, trials=np.int32(2), seed=np.uint32(7))
    config = ScenarioConfig(**CONFIG, trials=2, seed=7)
    assert (run_trial(numpy_config, 0).accumulator.integral_sum
            == run_trial(config, 0).accumulator.integral_sum)


# --- report mechanics ------------------------------------------------------


def test_report_confidence_interval_single_trial_is_zero():
    acc = constant_cost_acc(2, 1.0, 100, 0.01)
    assert finalize([acc]).ci_halfwidth == 0.0


def test_report_pools_renewal_cycles_across_trials():
    a = constant_cost_acc(3, 1.0, 100, 0.01)
    b = constant_cost_acc(3, 1.0, 100, 0.01)
    a.close_cycle(0.05, 0.5)
    b.close_cycle(0.15, 0.5)
    report = finalize([a, b])
    # pooled: mean reward 0.1, mean length 0.5, times n(n-1)=6
    assert report.j_renewal == pytest.approx(6 * 0.1 / 0.5)


def test_report_interevent_conventions():
    acc = constant_cost_acc(2, 1.0, 1000, 0.01)  # elapsed 10 s
    acc.local_event_counts[:] = [10, 10]
    acc.global_event_count = 20
    report = finalize([acc])
    # per-transmission convention: 2 * 10 s / 20 events = 1 s
    assert report.mean_local_interevent == pytest.approx(1.0)
    assert report.mean_global_interevent == pytest.approx(0.5)
    assert report.mean_global_interevent <= report.mean_local_interevent

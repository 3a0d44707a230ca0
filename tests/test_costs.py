import math

import numpy as np
import pytest

from etclab import (
    CostAccumulator,
    NoiseStream,
    expected_occupation_integral,
    finalize,
    j_et_broadcast,
    j_tt_broadcast,
    j_tt_broadcast_local,
    local_to_global_period,
    merge_accumulators,
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
    assert merged.per_renewal_costs == one.per_renewal_costs
    assert merged.per_renewal_lengths == one.per_renewal_lengths


def test_finalize_requires_elapsed_time():
    with pytest.raises(ValueError):
        finalize([CostAccumulator(2)])


def test_renewal_sums_bounded_by_elapsed():
    acc = constant_cost_acc(2, 1.0, 100, 0.01)
    acc.close_cycle(0.3, 0.5)
    acc.close_cycle(0.2, 0.4)
    assert sum(acc.per_renewal_lengths) <= acc.elapsed


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

import numpy as np
import pytest

from etclab import (
    Average,
    Fixed,
    InfoScenario,
    Leader,
    PeriodicSync,
    ScenarioConfig,
    consensus_value,
)
from etclab.driver import _apply_event, _Fleet
from etclab.graph import consensus_cost_rows

B = InfoScenario.BROADCAST
BL = InfoScenario.BROADCAST_LOCAL


def point(x, initiators, rule, scenario, c_prev=0.0):
    return consensus_value(np.asarray(x, dtype=float), c_prev, np.array(initiators),
                           rule, scenario)


def fire(x, initiators, scenario, rule=Average(), xhat=None, c_prev=0.0):
    """The logged event after ``initiators`` fire with the fleet at ``x``."""
    n = len(x)
    config = ScenarioConfig(n=n, scenario=scenario, scheme=PeriodicSync(1.0), rule=rule,
                            record_events=True)
    fleet = _Fleet.start(config)
    fleet.x = np.asarray(x, dtype=float)
    fleet.xhat = np.full(n, c_prev) if xhat is None else np.asarray(xhat, dtype=float)
    fleet.c_prev = c_prev
    _apply_event(fleet, np.array(initiators), 1)
    return fleet.events[0]


# --- consensus point ---------------------------------------------------------


def test_true_mean_under_broadcast_local():
    assert point([1.0, 0.0, -1.0], [1], Average(), BL) == 0.0


def test_broadcast_average_recursion_matches_estimate_mean():
    # single initiator: c = ((n-1) c_prev + x_i) / n, which must equal the
    # mean of the estimates (true state for the initiator, c_prev for the
    # rest) computed by brute force
    c = point([0.9, 0.4, -0.2], [0], Average(), B, c_prev=0.0)
    assert c == pytest.approx(0.3)
    estimates = np.array([0.9, 0.0, 0.0])  # initiator true state, others c_prev
    assert c == pytest.approx(estimates.mean())


def test_broadcast_average_recursion_nonzero_previous():
    c = point([0.5, 1.1, -0.3, 0.2], [2], Average(), B, c_prev=0.4)
    brute = np.array([0.4, 0.4, -0.3, 0.4]).mean()
    assert c == pytest.approx(brute)


def test_broadcast_average_all_initiators_is_true_mean():
    c = point([0.5, 1.1, -0.3], [0, 1, 2], Average(), B, c_prev=7.0)
    assert c == pytest.approx(np.mean([0.5, 1.1, -0.3]))


def test_leader_uses_minimum_index_initiator():
    x = [0.0, 0.7, 0.0, 0.0, 0.0, -2.0]
    assert point(x, [1, 5], Leader(), B) == 0.7
    assert point(x, [1, 5], Leader(), BL) == 0.7


def test_fixed_rule_ignores_states():
    assert point([3.0, -1.0], [0], Fixed(0.0), B) == 0.0
    assert point([3.0, -1.0], [1], Fixed(2.5), BL) == 2.5


def test_empty_initiators_rejected():
    with pytest.raises(ValueError):
        point([1.0, 2.0], np.array([], dtype=int), Average(), B)


# --- the event protocol ------------------------------------------------------


def test_broadcast_impulse_zero_when_estimates_match():
    event = fire([0.3, 0.3], [0], B, xhat=[0.3, 0.3], c_prev=0.3)
    assert np.array_equal(event.x_post, event.x_pre)


def test_broadcast_impulse_worked_example():
    # previous consensus point 0, initiator 0 holds 0.9: c = 0.3, the
    # initiator jumps by -0.6, the others by +0.3, and the initiator's
    # error is wiped while the others' errors are untouched
    event = fire([0.9, 0.55, -0.1], [0], B, xhat=[0.0, 0.0, 0.0], c_prev=0.0)
    assert event.consensus_point == pytest.approx(0.3)
    assert event.x_post - event.x_pre == pytest.approx([-0.6, 0.3, 0.3])
    assert np.all(event.xhat_post == event.consensus_point)
    e_pre = event.x_pre - event.xhat_pre
    e_post = event.x_post - event.xhat_post
    assert e_post[0] == 0.0
    assert e_post[1:] == pytest.approx(e_pre[1:])


def test_refresh_estimates_only_touches_initiators():
    # only initiator 1's estimate becomes its true state: the consensus
    # point averages 2.0 with the others' stale 0.5, and the others jump
    # by c minus their stale estimate
    event = fire([1.0, 2.0, 3.0], [1], B, xhat=[0.5, 0.5, 0.5], c_prev=0.5)
    c = event.consensus_point
    assert c == pytest.approx((0.5 + 2.0 + 0.5) / 3)
    assert event.x_post == pytest.approx([1.0 + c - 0.5, c, 3.0 + c - 0.5])


def test_local_impulse_resets_to_consensus_point():
    event = fire([1.0, 0.0, -1.0], [0], BL)
    assert event.consensus_point == 0.0
    assert np.array_equal(event.x_post, [0.0, 0.0, 0.0])
    assert np.array_equal(event.xhat_post, [0.0, 0.0, 0.0])


def test_local_impulse_leader_reset():
    event = fire([2.0, 0.4, -3.0], [0], BL, rule=Leader())
    assert event.consensus_point == 2.0
    assert np.array_equal(event.x_post, [2.0, 2.0, 2.0])


def test_local_impulse_kills_consensus_cost():
    event = fire([0.3, -1.2, 0.8, 0.05], [2], BL)
    assert consensus_cost_rows(event.x_post) == 0.0


def test_renewal_cycles_close_on_agent_zero_or_global_events():
    # broadcast-only cycles are delimited by agent 0's own events, also when
    # it fires together with others; every broadcast-plus-local event is global
    closed = {}
    for scenario, initiators in ((B, [1]), (B, [0, 2]), (BL, [1])):
        config = ScenarioConfig(n=3, scenario=scenario, scheme=PeriodicSync(1.0))
        fleet = _Fleet.start(config)
        fleet.cycle_reward = 0.5
        _apply_event(fleet, np.array(initiators), 7)
        closed[scenario, tuple(initiators)] = (fleet.acc.per_renewal_costs,
                                               fleet.acc.per_renewal_lengths)
    assert closed[B, (1,)] == ([], [])
    assert closed[B, (0, 2)] == ([0.5], [7 * config.dt])
    assert closed[BL, (1,)] == ([0.5], [7 * config.dt])

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etclab import (
    Average,
    Fixed,
    InfoScenario,
    Leader,
    PeriodicSync,
    ScenarioConfig,
    consensus_value,
)
from etclab.driver import _Fleet, _settle
from etclab.graph import consensus_cost_rows

B = InfoScenario.BROADCAST
BL = InfoScenario.BROADCAST_LOCAL


def point(x, initiators, rule, scenario, c_prev=0.0):
    return consensus_value(np.asarray(x, dtype=float), c_prev, np.array(initiators),
                           rule, scenario)


def start(x, scenario, rule=Average(), c_prev=0.0):
    """A fleet at true states ``x`` whose estimates all hold ``c_prev``."""
    config = ScenarioConfig(n=len(x), scenario=scenario, scheme=PeriodicSync(1.0), rule=rule,
                            record_events=True)
    fleet = _Fleet.start(config)
    fleet.c_prev = c_prev
    fleet.e = np.asarray(x, dtype=float) - c_prev
    return fleet


def settle(fleet, initiators, step):
    """Settle the one event that ``initiators`` fire at the end of ``step``, at
    the fleet's current errors, as the reference integrator does; returns the
    index of the agents it resets."""
    mask = np.zeros(fleet.config.n, dtype=bool)
    mask[initiators] = True
    _settle(fleet, fleet.e[None], [0], mask[None], step)
    return initiators if fleet.config.scenario is B else slice(None)


def fire(x, initiators, scenario, rule=Average(), c_prev=0.0):
    """The logged event after ``initiators`` fire with the fleet at ``x``."""
    fleet = start(x, scenario, rule, c_prev)
    settle(fleet, np.array(initiators), 1)
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
    event = fire([0.3, 0.3], [0], B, c_prev=0.3)
    assert np.array_equal(event.x_post, event.x_pre)


def test_broadcast_impulse_worked_example():
    # previous consensus point 0, initiator 0 holds 0.9: c = 0.3, the
    # initiator jumps by -0.6, the others by +0.3, and the initiator's
    # error is wiped while the others' errors are untouched
    event = fire([0.9, 0.55, -0.1], [0], B, c_prev=0.0)
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
    event = fire([1.0, 2.0, 3.0], [1], B, c_prev=0.5)
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
        settle(fleet, np.array(initiators), 7)
        closed[scenario, tuple(initiators)] = (fleet.acc.per_renewal_costs,
                                               fleet.acc.per_renewal_lengths)
    assert closed[B, (1,)] == ([], [])
    assert closed[B, (0, 2)] == ([0.5], [7 * config.dt])
    assert closed[BL, (1,)] == ([0.5], [7 * config.dt])


@st.composite
def protocol_cases(draw):
    n = draw(st.integers(1, 8))
    finite = st.floats(-3.0, 3.0, allow_nan=False)
    initiators = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return dict(
        n=n,
        c_prev=draw(finite),
        e=np.array(draw(st.lists(finite, min_size=n, max_size=n))),
        initiators=np.array(sorted(initiators)),
        rule=draw(st.sampled_from([Average(), Leader(), Fixed(0.0), Fixed(-1.25)])),
        scenario=draw(st.sampled_from([B, BL])),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=protocol_cases())
def test_error_form_matches_state_form_protocol(case):
    # the paper's protocol on the true states: refresh the initiators'
    # estimates, pick c from the information the scenario provides, then
    # jump every agent by c - xhat (broadcast-only) or reset it to c
    n, c_prev, initiators = case["n"], case["c_prev"], case["initiators"]
    rule, scenario = case["rule"], case["scenario"]
    x = c_prev + case["e"]
    xhat = np.full(n, c_prev)
    xhat[initiators] = x[initiators]
    if isinstance(rule, Fixed):
        c = rule.value
    elif isinstance(rule, Leader):
        c = x[initiators.min()]
    else:
        c = (xhat if scenario is B else x).mean()
    if scenario is B:
        x_post = x + (c - xhat)
        x_post[initiators] = c
    else:
        x_post = np.full(n, c)

    fleet = start(x, scenario, rule, c_prev)
    fleet.e = case["e"].copy()  # the drawn errors exactly, not x - c_prev rounded
    reset = settle(fleet, initiators, 1)
    event = fleet.events[0]
    assert event.consensus_point == pytest.approx(c, rel=1e-12, abs=1e-12)
    assert fleet.c_prev == event.consensus_point
    assert event.x_pre == pytest.approx(x, rel=1e-12, abs=1e-12)
    assert np.array_equal(event.xhat_pre, np.full(n, c_prev))
    assert event.x_post == pytest.approx(x_post, rel=1e-12, abs=1e-12)
    assert np.array_equal(event.x_post, fleet.c_prev + fleet.e)
    assert np.array_equal(event.xhat_post, np.full(n, fleet.c_prev))
    assert np.all(fleet.e[reset] == 0.0)

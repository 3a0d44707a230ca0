"""Consensus rules and the two information scenarios of the controllers.

At a triggering instant every agent receives an impulse that moves it
toward a common consensus point ``c``.  What the impulse can subtract
depends on the information available locally:

* broadcast-only: agents know their own state only at their own
  triggering instants, so the impulse is ``c - xhat_i`` where ``xhat_i``
  is the broadcast-based estimate (the true state for initiators, the
  previous consensus point for everyone else);
* broadcast-plus-local: agents additionally know their own state at
  every global trigger, so the impulse is ``c - x_i`` and the fleet
  resets exactly to ``c``.

The scenario, not the trigger rule, decides this: the same periodic and
level rules of ``triggering`` run under both.

The consensus point itself is free within the optimal class; the
average and leader (minimum-index initiator) rules are the two
practical choices, and a fixed-point rule exists for diagnostics only.

Both impulses leave every estimate at ``c``, and an agent's estimate
error ``x_i - xhat_i`` is unchanged unless the event resets it to zero
(the initiators' under broadcast-only, everyone's under
broadcast-plus-local).  So the simulation carries the last consensus
point and the error vector ``e = x - c`` instead of ``x`` and ``xhat``.
The event protocol itself (refresh the initiators' estimates, pick the
consensus point from ``c + e``, zero the reset errors, make ``c`` the
new consensus point) is implemented once, in ``driver._settle``, which
settles a chunk's events in order and serves both integrators.  Costs
and triggers read only ``e``, so
the consensus point is picked only in trials that log events or a
trajectory, and ``driver.ScenarioConfig`` rejects an unknown rule
before any trial runs.
"""

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Average",
    "Leader",
    "Fixed",
    "ConsensusRule",
    "InfoScenario",
    "consensus_value",
]


@dataclass(frozen=True)
class Average:
    """Consensus point is the mean of the available state information."""


@dataclass(frozen=True)
class Leader:
    """Consensus point is the state of the minimum-index initiator."""


@dataclass(frozen=True)
class Fixed:
    """Constant consensus point; diagnostics only, defeats the purpose of
    communicating but keeps the same cost and trigger structure."""

    value: float = 0.0


ConsensusRule = Union[Average, Leader, Fixed]


class InfoScenario(enum.Enum):
    """Information available to the local controllers."""

    BROADCAST = "b"
    BROADCAST_LOCAL = "bl"


def consensus_value(
    x: np.ndarray,
    last_consensus_point: float,
    initiators: np.ndarray,
    rule: ConsensusRule,
    scenario: InfoScenario,
) -> float:
    """Common consensus point announced at an event.

    ``x`` are the true states at the event and ``last_consensus_point``
    the estimate every non-initiator holds.  With a single broadcast-only
    initiator ``i`` the average rule reduces to
    ``((n-1) * c_prev + x_i) / n``; when all agents initiate (a periodic
    rule without phase offsets) both scenarios use the true mean.
    """
    initiators = np.asarray(initiators, dtype=int)
    if initiators.size == 0:
        raise ValueError("initiator set must be nonempty")
    if isinstance(rule, Fixed):
        return float(rule.value)
    if isinstance(rule, Leader):
        return float(x[int(initiators.min())])
    if not isinstance(rule, Average):
        raise TypeError(f"unknown consensus rule: {rule!r}")
    n = x.shape[0]
    if scenario is InfoScenario.BROADCAST_LOCAL:
        return float(x.mean())
    # Broadcast-only: initiators contribute their true state, everyone
    # else the previous consensus point (their current estimate).
    k = initiators.size
    return float(((n - k) * last_consensus_point + x[initiators].sum()) / n)


"""Cost estimation from trajectories and the closed-form cost oracles.

Two estimators of the long-run average consensus-deviation cost are
maintained side by side:

* time average: left-endpoint rectangle integration of ``x' L x``
  divided by elapsed time, averaged across trials;
* renewal-reward: ``n (n - 1)`` times a ratio of two pooled sums, one
  reference agent's per-cycle squared-deviation integrals over the cycle
  lengths.  Cycles are delimited by its own events (broadcast-only) or
  by global events (broadcast-plus-local); the final incomplete cycle is
  discarded.  A trial keeps the cycle count and the two sums only.

The closed-form oracles cover the periodic schemes in both scenarios,
the level scheme in the broadcast-only scenario and the local-to-global
rate conversion; at equal global rates the two periodic oracles differ
by exactly the factor ``n`` that richer local information buys.  The
Brownian exit laws behind the level scheme are closed form too: the
occupation integral up to exit and the mean exit time of the first of
``n`` motions.
"""

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy import integrate, stats

from .triggering import check_count, check_positive

__all__ = [
    "CostAccumulator",
    "CostReport",
    "merge_accumulators",
    "finalize",
    "j_tt_broadcast",
    "j_et_broadcast",
    "j_tt_broadcast_local",
    "local_to_global_period",
    "expected_occupation_integral",
    "mean_exit_time",
]


@dataclass
class CostAccumulator:
    """Single-trial tallies: cost integral, renewal cycle sums, event counts."""

    n: int
    integral_sum: float = 0.0
    elapsed: float = 0.0
    cycles: int = 0
    cycle_reward_sum: float = 0.0
    cycle_length_sum: float = 0.0
    local_event_counts: np.ndarray = None
    global_event_count: int = 0

    def __post_init__(self):
        if self.local_event_counts is None:
            self.local_event_counts = np.zeros(self.n, dtype=np.int64)

    def close_cycle(self, reward: float, length: float) -> None:
        self.cycles += 1
        self.cycle_reward_sum += reward
        self.cycle_length_sum += length

    def renewal_estimate(self) -> float:
        """Renewal-reward cost estimate from these cycles (NaN if none)."""
        if not self.cycles:
            return float("nan")
        return self.n * (self.n - 1) * self.cycle_reward_sum / self.cycle_length_sum


@dataclass(frozen=True)
class CostReport:
    """Merged cost estimates across trials with 95% CI on the time average."""

    j_time_avg: float
    j_renewal: float
    mean_local_interevent: float
    mean_global_interevent: float
    trials: int
    ci_halfwidth: float
    j_trials: Tuple[float, ...] = ()


def merge_accumulators(accs: Sequence[CostAccumulator]) -> CostAccumulator:
    """Combine per-trial accumulators by adding their tallies."""
    if not accs:
        raise ValueError("nothing to merge")
    n = accs[0].n
    merged = CostAccumulator(n)
    for acc in accs:
        if acc.n != n:
            raise ValueError("accumulators disagree on agent count")
        merged.integral_sum += acc.integral_sum
        merged.elapsed += acc.elapsed
        merged.cycles += acc.cycles
        merged.cycle_reward_sum += acc.cycle_reward_sum
        merged.cycle_length_sum += acc.cycle_length_sum
        merged.local_event_counts = merged.local_event_counts + acc.local_event_counts
        merged.global_event_count += acc.global_event_count
    return merged


def finalize(accumulators: Sequence[CostAccumulator]) -> CostReport:
    """Turn per-trial accumulators into a cost report.

    The time average is the across-trial mean of per-trial averages with
    a Student-t 95% half-width; the renewal-reward estimate is a ratio of
    pooled cycle sums.  Mean inter-event times use the per-transmission
    convention for local events and merged instants for global ones.
    """
    if not accumulators:
        raise ValueError("no trials to finalize")
    for acc in accumulators:
        if acc.elapsed <= 0:
            raise ValueError("cannot finalize a trial with zero elapsed time")
    n = accumulators[0].n
    per_trial = np.array([a.integral_sum / a.elapsed for a in accumulators])
    trials = len(accumulators)
    j_time_avg = float(per_trial.mean())
    if trials > 1:
        scale = stats.t.ppf(0.975, trials - 1) / np.sqrt(trials)
        ci = float(per_trial.std(ddof=1) * scale)
    else:
        ci = 0.0

    merged = merge_accumulators(accumulators)
    j_renewal = merged.renewal_estimate()
    total_local = int(merged.local_event_counts.sum())
    mean_local = n * merged.elapsed / total_local if total_local else float("nan")
    events = merged.global_event_count
    mean_global = merged.elapsed / events if events else float("nan")
    return CostReport(
        j_time_avg=j_time_avg,
        j_renewal=j_renewal,
        mean_local_interevent=mean_local,
        mean_global_interevent=mean_global,
        trials=trials,
        ci_halfwidth=ci,
        j_trials=tuple(float(v) for v in per_trial),
    )


def j_tt_broadcast(n: int, local_period: float) -> float:
    """Long-run cost of the periodic scheme under broadcast-only
    information: ``n (n - 1) * T / 2`` with ``T`` the per-agent period."""
    check_count("agent count", n)
    check_positive("period", local_period)
    return n * (n - 1) * local_period / 2.0


def j_et_broadcast(n: int, delta: float) -> float:
    """Long-run cost of the level scheme under broadcast-only
    information: ``n (n - 1) * delta^2 / 6`` (mean exit time is delta^2)."""
    check_count("agent count", n)
    check_positive("threshold", delta)
    return n * (n - 1) * delta * delta / 6.0


def j_tt_broadcast_local(n: int, global_period: float) -> float:
    """Long-run cost of the periodic scheme under broadcast-plus-local
    information: ``n (n - 1) * T / 2`` with ``T`` the global period, the
    same form as :func:`j_tt_broadcast` with the per-agent period."""
    return j_tt_broadcast(n, global_period)


def local_to_global_period(n: int, local_period: float) -> float:
    """Global inter-event time at equal transmission rate: ``T / n``."""
    check_count("agent count", n)
    check_positive("period", local_period)
    return local_period / n


def expected_occupation_integral(delta: float) -> float:
    """``E[int_0^T B(t)^2 dt]`` for Brownian exit from ``[-delta, delta]``,
    in closed form ``delta^4 / 6``."""
    check_positive("threshold", delta)
    return delta**4 / 6.0


# The band survival law has two series: the erfc image series converges
# fast for small t, the eigenfunction series for large t.  Split at t = 0.5,
# where six terms of either are exact to double precision (the seventh
# terms are below 1e-60).
_SERIES_SPLIT = 0.5
_SERIES_TERMS = 6


def _band_survival(t: float) -> float:
    """``P(sup_{s <= t} |B_s| < 1)`` for a standard Brownian motion from 0
    (Borodin & Salminen, *Handbook of Brownian Motion*, 2002)."""
    if t < _SERIES_SPLIT:
        r = 1.0 / math.sqrt(2.0 * t)
        return 1.0 - 2.0 * sum(
            (-1) ** k * math.erfc((2 * k + 1) * r) for k in range(_SERIES_TERMS)
        )
    c = -math.pi**2 * t / 8.0
    return 4.0 / math.pi * sum(
        (-1) ** k / (2 * k + 1) * math.exp(c * (2 * k + 1) ** 2)
        for k in range(_SERIES_TERMS)
    )


@functools.lru_cache(maxsize=None)  # pure in n, and a quadrature costs ~1 ms
def mean_exit_time(n: int) -> float:
    """Mean time for the first of ``n`` independent standard Brownian
    motions to leave ``[-1, 1]``: ``m_n = int_0^inf S(t)^n dt`` with ``S``
    the single-motion survival law.

    ``m_1 = 1``; by Brownian scaling the band ``[-delta, delta]`` gives
    ``delta^2 * m_n``.
    """
    check_count("agent count", n)

    def integrand(t):
        return _band_survival(t) ** n

    quad = dict(epsabs=1e-13, epsrel=1e-12, limit=200)
    head, _ = integrate.quad(integrand, 0.0, _SERIES_SPLIT, **quad)
    tail, _ = integrate.quad(integrand, _SERIES_SPLIT, math.inf, **quad)
    return head + tail

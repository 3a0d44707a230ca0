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
in continuous time and on the fleet's grid, the level scheme in the
broadcast-only scenario in continuous time and in both scenarios on the
grid (``grid_level_law``), and the local-to-global rate conversion; at
equal global rates the two periodic oracles differ by exactly the
factor ``n`` that richer local information buys.  The
Brownian exit laws behind the level scheme are closed form too: the
occupation integral up to exit and the mean exit time of the first of
``n`` motions.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy import integrate, stats

from .checks import check_count, check_positive

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
    "GridLevelLaw",
    "grid_level_law",
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

    def close_cycle(self, reward, length) -> None:
        """Close renewal cycles of rewards ``reward`` and lengths ``length``:
        one of each, or equal-length arrays of them, in cycle order.  Each
        running sum adds them one at a time, as ``np.cumsum`` over
        ``[running sum, *values]`` does, so the sums take the same additions
        in the same order whether the cycles come one by one or in bulk."""
        reward, length = np.atleast_1d(reward), np.atleast_1d(length)
        self.cycles += reward.size
        self.cycle_reward_sum = sequential_sum(self.cycle_reward_sum, reward)
        self.cycle_length_sum = sequential_sum(self.cycle_length_sum, length)

    def renewal_estimate(self) -> float:
        """Renewal-reward cost estimate from these cycles (NaN if none)."""
        if not self.cycles:
            return float("nan")
        return self.n * (self.n - 1) * self.cycle_reward_sum / self.cycle_length_sum


def sequential_sum(start: float, values: np.ndarray) -> float:
    """``start`` plus ``values`` added one at a time, left to right."""
    if not values.size:
        return start
    return float(np.add.accumulate(np.concatenate(([start], values)))[-1])


# every field of CostAccumulator but the agent count: what merging adds up
TALLIES = tuple(f.name for f in dataclasses.fields(CostAccumulator) if f.name != "n")


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
        for name in TALLIES:
            setattr(merged, name, getattr(merged, name) + getattr(acc, name))
    return merged


@functools.lru_cache(maxsize=64)  # pure in the degrees of freedom; a ppf costs ~90 us
def _t_quantile(dof: int) -> float:
    """The Student-t 97.5% quantile with ``dof`` degrees of freedom."""
    return stats.t.ppf(0.975, dof)


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
        scale = _t_quantile(trials - 1) / np.sqrt(trials)
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


def j_tt_broadcast(n: int, period: float, dt: float = 0.0) -> float:
    """Long-run cost of the periodic scheme under broadcast-only
    information: ``n (n - 1) * (T - dt) / 2`` with ``T`` the per-agent
    period.

    ``dt = 0`` gives the continuous-time cost ``n (n - 1) T / 2``.  A
    grid step ``dt > 0`` gives the cost of the fleet monitored on that
    grid: a reset period of ``K = T / dt`` whole steps has cost rows with
    ``E[e_i^2] = k dt`` for ``k = 0 .. K - 1``, whose mean is
    ``(T - dt) / 2``.
    """
    check_count("agent count", n)
    check_positive("period", period)
    if dt:
        check_positive("dt", dt)
        if dt > period:
            raise ValueError(f"dt {dt} exceeds the period {period}")
    return n * (n - 1) * (period - dt) / 2.0


def j_et_broadcast(n: int, delta: float) -> float:
    """Long-run cost of the level scheme under broadcast-only
    information: ``n (n - 1) * delta^2 / 6`` (mean exit time is delta^2)."""
    check_count("agent count", n)
    check_positive("threshold", delta)
    return n * (n - 1) * delta * delta / 6.0


# kept only for perfbench/workloads.py; everything else calls j_tt_broadcast
# with the global period
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


# -zeta(1/2) / sqrt(2 pi): walks checked for leaving [-1, 1] on a grid of
# step h leave it about as late as they leave [-1 - b, 1 + b] in continuous
# time, with b = GRID_EXIT_SHIFT sqrt(h) (Broadie, Glasserman & Kou, Math.
# Finance 7(4), 1997)
GRID_EXIT_SHIFT = 0.5825971579390106


# Gauss-Legendre nodes of the grid level law's Nystrom recursion; 400 and 800
# nodes agree to six or more figures for every h of the acceptance cells
_LAW_NODES = 400
# the survival sequences stop where s_k^W falls below this: the tail they
# leave out is below it times the mean exit in steps
_LAW_TAIL = 1e-20
# steps formed per matrix product, which bounds its memory to a few MiB
_LAW_BLOCK = 1024


@dataclass(frozen=True)
class GridLevelLaw:
    """The first exit of ``W`` independent Gaussian walks with step variance
    ``h`` from the unit band ``(-1, 1)``, checked at every step only.

    ``survival[k]`` is ``s_k``, the chance that one walk is still inside
    after ``k`` steps, and ``second[k]`` is ``q_k = E[x_k^2; still inside]``,
    from ``s_0 = 1`` and ``q_0 = 0`` up to where ``s_k^W`` falls below
    ``1e-20``.  A level rule of threshold ``delta`` on a grid of step ``dt``
    is this law with ``h = dt / delta^2``, with ``W = 1`` watcher under
    broadcast-only information and ``W = n`` under broadcast-plus-local.
    """

    watchers: int
    h: float
    survival: np.ndarray
    second: np.ndarray

    @property
    def exit_pmf(self) -> np.ndarray:
        """``P(exit at step k) = s_(k-1)^W - s_k^W`` for ``k = 1, 2, ...``."""
        alive = self.survival**self.watchers
        return alive[:-1] - alive[1:]

    def mean_exit_steps(self) -> float:
        """``sum_k s_k^W``, the mean number of steps to the first exit."""
        return float((self.survival**self.watchers).sum())

    def mean_exit_time(self, dt: float) -> float:
        """``dt sum_k s_k^W``: the grid mean exit on a grid of step ``dt``."""
        return dt * self.mean_exit_steps()

    def cost(self, n: int, delta: float) -> float:
        """``J_grid = n (n - 1) delta^2 sum q_k s_k^(W-1) / sum s_k^W``: the
        long-run ``x'Lx`` of ``n`` agents under the level rule of threshold
        ``delta`` with left-endpoint rectangles on the grid.  Each agent's
        error is ``delta`` times a walk and every cycle ends at the first
        exit of the ``W`` it waits for; flipping one walk's sign changes no
        exit, so the cross terms of ``x'Lx`` vanish."""
        check_count("agent count", n)
        check_positive("threshold", delta)
        s = self.survival
        occupied = float((self.second * s ** (self.watchers - 1)).sum())
        return n * (n - 1) * delta * delta * occupied / self.mean_exit_steps()


@functools.lru_cache(maxsize=64)
def _killed_walk_modes(h: float):
    """``(lam, s_mode, q_mode)`` with ``s_k = sum s_mode lam^(k-1)`` and
    ``q_k = sum q_mode lam^(k-1)`` for ``k >= 1``.

    The sub-density of a walk still inside after ``k`` steps follows
    ``f_(k+1)(x) = int phi_h(x - y) f_k(y) dy`` over the band from ``f_1 =
    phi_h``.  At Gauss-Legendre nodes ``x_i`` with weights ``w_i`` this is the
    Nystrom recursion ``f_(k+1) = Phi W f_k`` (Atkinson, *The Numerical
    Solution of Integral Equations of the Second Kind*, 1997); one ``eigh``
    of the symmetric ``W^(1/2) Phi W^(1/2)`` gives every power.
    """
    x, w = np.polynomial.legendre.leggauss(_LAW_NODES)
    root = np.sqrt(w)
    kernel = np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * h)) / math.sqrt(2.0 * math.pi * h)
    lam, vec = np.linalg.eigh(root[:, None] * kernel * root[None, :])
    start = vec.T @ (root * np.exp(-x * x / (2.0 * h)) / math.sqrt(2.0 * math.pi * h))
    return lam, (vec.T @ root) * start, (vec.T @ (root * x * x)) * start


@functools.lru_cache(maxsize=64)  # pure in (watchers, h); an eigh costs ~0.5 s
def grid_level_law(watchers: int, h: float) -> GridLevelLaw:
    """The grid level law of ``watchers`` walks of step variance ``h``
    (``GridLevelLaw``), from the Nystrom recursion of ``_killed_walk_modes``
    with 400 nodes.  That many nodes resolve the step kernel for ``h`` down
    to about ``5e-5``; a smaller ``h`` raises ``ValueError``."""
    check_count("watchers", watchers)
    check_positive("h", h)
    if h < 5e-5:
        raise ValueError(f"h {h} is below 5e-05, finer than {_LAW_NODES} nodes resolve")
    lam, s_mode, q_mode = _killed_walk_modes(float(h))
    powers = lam ** np.arange(_LAW_BLOCK)[:, None]
    scale = np.ones_like(lam)  # lam^(k - 1) at a block's first step k
    survival, second = [np.ones(1)], [np.zeros(1)]
    while survival[-1][-1] ** watchers >= _LAW_TAIL:
        survival.append(powers @ (s_mode * scale))
        second.append(powers @ (q_mode * scale))
        scale *= lam**_LAW_BLOCK
    survival, second = np.concatenate(survival), np.concatenate(second)
    end = int(np.argmax(survival**watchers < _LAW_TAIL))
    survival, second = survival[:end], second[:end]
    for cached in (survival, second):  # every caller gets the same arrays
        cached.setflags(write=False)
    return GridLevelLaw(watchers, float(h), survival, second)

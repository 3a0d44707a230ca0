"""Trigger schedules, level rules and first-exit-time samplers.

Two families of triggering schemes are supported:

* periodic (time-triggered): synchronous, or asynchronous with per-agent
  phase offsets; crossing detection uses per-agent deadline counters
  rather than floating-point modulo so no drift accumulates over long
  runs;
* level (event-triggered): an agent fires when the magnitude of its
  deviation reaches a constant threshold.  In the broadcast-only
  scenario the deviation is measured against the agent's estimate, in
  the broadcast-plus-local scenario against its state at the last
  global trigger.

The standalone first-exit samplers draw the exit time of one or several
independent Brownian motions from a symmetric band ``[-delta, delta]``
on a fixed grid, optionally compensating between-step boundary
crossings with the Brownian-bridge crossing probability.
"""

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .sde import NoiseStream

__all__ = [
    "PeriodicSync",
    "PeriodicAsync",
    "LevelBroadcast",
    "LevelGlobal",
    "TriggerScheme",
    "TriggerEvent",
    "staggered_offsets",
    "periodic_fire_step",
    "sample_first_passage_batch",
]

# Relative tolerance for "time crosses a deadline" comparisons.
EPS_REL = 1e-9
# a working array of the fleet's chunk loop or of the first-exit sampler
# holds at most about this many bytes (8 per double)
CHUNK_BYTES = 8 << 20


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is positive and finite (NaN is not)."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class PeriodicSync:
    """All agents fire together every ``period`` seconds."""

    period: float

    def __post_init__(self):
        check_positive("period", self.period)


@dataclass(frozen=True)
class PeriodicAsync:
    """Each agent fires every ``period`` seconds at its own phase offset."""

    period: float
    offsets: Tuple[float, ...]

    def __post_init__(self):
        check_positive("period", self.period)
        offs = tuple(float(o) for o in self.offsets)
        if not all(0 <= o < self.period for o in offs):
            raise ValueError(f"offsets must lie in [0, {self.period}), got {offs}")
        object.__setattr__(self, "offsets", offs)


@dataclass(frozen=True)
class LevelBroadcast:
    """Agent fires when |x_i - xhat_i| reaches ``delta`` (broadcast-only)."""

    delta: float

    def __post_init__(self):
        check_positive("threshold", self.delta)


@dataclass(frozen=True)
class LevelGlobal:
    """Any agent deviating by ``delta`` from its state at the last global
    trigger fires a global event (broadcast-plus-local scenario)."""

    delta: float

    def __post_init__(self):
        check_positive("threshold", self.delta)


TriggerScheme = Union[PeriodicSync, PeriodicAsync, LevelBroadcast, LevelGlobal]


@dataclass(frozen=True)
class TriggerEvent:
    """One triggering instant with the agents that initiated it.

    Only trials that record events make them, so the true states and the
    estimates just before and after are always filled; they support
    pathwise assertions (error invariance, exact resets).
    """

    time: float
    initiators: Tuple[int, ...]
    consensus_point: float
    is_global: bool
    x_pre: np.ndarray
    x_post: np.ndarray
    xhat_pre: np.ndarray
    xhat_post: np.ndarray


def staggered_offsets(n: int, period: float) -> Tuple[float, ...]:
    """Evenly staggered phases ``i * period / n`` for an async schedule."""
    return tuple(period * i / n for i in range(n))


def periodic_fire_step(tau: np.ndarray, dt: float) -> np.ndarray:
    """Grid step indices at which the deadlines ``tau`` are detected."""
    return np.ceil(tau / dt - EPS_REL).astype(np.int64)


def sample_first_passage_batch(
    stream: NoiseStream,
    n_samples: int,
    delta: float,
    dt: float,
    n_agents: int = 1,
    bridge_correction: bool = True,
    return_occupation: bool = False,
):
    """Sample first exit times of ``n_agents`` independent Brownian motions
    from the band ``[-delta, delta]``, started at 0.

    Every path is stepped on the ``dt`` grid until some agent leaves the
    band.  With ``bridge_correction`` the probability that the continuous
    path crossed either boundary between grid points is computed from the
    Brownian-bridge law and resolved with one uniform draw per tested
    path, which removes nearly all of the O(sqrt(dt)) discrete monitoring
    bias, and the reported exit time is the midpoint of the detecting
    step.  Grid-only sampling reports the end of the detecting step.

    A path is tested when it stayed inside the band but has an endpoint
    within ``sqrt(20 dt)`` of a boundary.  Of its agents, only those with
    such an endpoint get the crossing law: for every other agent both
    distances to each boundary are at least ``sqrt(20 dt)``, so its
    crossing probability is below ``2 exp(-40) < 1e-17``, its survival
    factor ``1 - p`` rounds to exactly 1.0, and leaving it out of the
    survival product changes no bit.

    Each step draws ``normals((m, n_agents))`` for the ``m`` live paths,
    then, when some of them get the bridge test, one uniform per tested
    path in path order; one path therefore consumes its stream exactly
    as a scalar loop drawing ``normals(n_agents)`` and, when tested,
    ``uniforms(1)`` per step.  The paths are stepped in consecutive
    blocks of ``max(1, CHUNK_BYTES // (8 * n_agents))``, each run to its
    last exit before the next starts, so the working memory stays a few
    ``CHUNK_BYTES`` whatever ``n_samples``; a call that fits one block
    draws as if all paths were stepped together.

    Parameters
    ----------
    stream : NoiseStream
        Source of increments (and uniforms when correcting).
    n_samples : int
        Number of independent exit times to draw.
    delta, dt : float
        Band half-width and grid step, both positive.
    n_agents : int
        Exit is the minimum over this many independent motions.
    bridge_correction : bool
        Resolve between-step crossings with the Brownian-bridge law.
    return_occupation : bool
        Also return, per sample, the left-endpoint rectangle estimate of
        the squared-path integral of the first agent up to exit.

    Returns
    -------
    times : ndarray, shape (n_samples,)
    occupation : ndarray, shape (n_samples,), only if requested
    """
    check_positive("threshold", delta)
    check_positive("dt", dt)
    if n_samples < 1 or n_agents < 1:
        raise ValueError("n_samples and n_agents must be >= 1")
    times = np.empty(n_samples)
    occupation = np.zeros(n_samples) if return_occupation else None
    block = max(1, CHUNK_BYTES // (8 * n_agents))
    for start in range(0, n_samples, block):
        span = slice(start, min(start + block, n_samples))
        _exit_block(stream, times[span], None if occupation is None else occupation[span],
                    delta, dt, n_agents, bridge_correction)
    if return_occupation:
        return times, occupation
    return times


def _exit_block(stream, times, occupation, delta, dt, n_agents, bridge_correction):
    """Step ``times.size`` paths to their exits, writing each exit time
    (and occupation integral, unless ``occupation`` is None) in place."""
    # P(exit later than ~60 delta^2) is astronomically small
    max_steps = int(np.ceil(60.0 * delta * delta / dt)) + 1000
    sqrt_dt = np.sqrt(dt)
    lag = 0.5 if bridge_correction else 0.0  # exit time = (step - lag) * dt
    # a bridge crossing has probability < 1e-17 unless an endpoint is
    # within sqrt(20 dt) of a boundary, so only those entries get the law
    near_band = delta - np.sqrt(20.0 * dt)

    x = np.zeros((times.size, n_agents))
    peak = np.zeros(times.size)  # max_i |x_i| of each live row
    occ = np.zeros(times.size)
    pos = np.arange(times.size)
    step = 0
    while pos.size:
        step += 1
        if step > max_steps:
            raise RuntimeError(
                f"{pos.size} of {times.size} paths not exited after {max_steps} steps "
                f"(delta={delta}, dt={dt}); check the noise stream"
            )
        if occupation is not None:
            occ += (x[:, 0] ** 2) * dt
        z = stream.normals((pos.size, n_agents))
        z *= sqrt_dt
        z += x  # z is now the post-step state
        # column-major |z| turns the row maximum into n contiguous passes;
        # a C-order reduction over a short row is many times slower
        peak_new = np.maximum.reduce(np.abs(z, order="F"), axis=1)
        crossed = peak_new >= delta
        if bridge_correction:
            rows = (((peak > near_band) | (peak_new > near_band)) & ~crossed).nonzero()[0]
            if rows.size:
                survive = _bridge_survival(x[rows], z[rows], delta, dt, near_band)
                hit = stream.uniforms(rows.size) < 1.0 - survive
                crossed[rows[hit]] = True
        if crossed.any():
            done = pos[crossed]
            times[done] = (step - lag) * dt
            if occupation is not None:
                occupation[done] = occ[crossed]
            keep = ~crossed
            pos = pos[keep]
            x = z[keep]
            peak = peak_new[keep]
            occ = occ[keep]
        else:
            x = z
            peak = peak_new


def _bridge_survival(a, b, delta, dt, near_band):
    """Per row, the probability that a Brownian bridge from ``a`` to ``b``
    (both strictly inside the band) stays inside it, for every agent.

    Only entries with an endpoint beyond ``near_band`` get the crossing
    law; every other factor is exactly 1.0, so the row products have the
    bits of products over the law evaluated for every agent.
    """
    near = ((np.abs(a) > near_band) | (np.abs(b) > near_band)).ravel().nonzero()[0]
    a_near = a.take(near)
    b_near = b.take(near)
    p = np.exp(-2.0 * (delta - a_near) * (delta - b_near) / dt)
    p += np.exp(-2.0 * (delta + a_near) * (delta + b_near) / dt)
    np.minimum(p, 1.0, out=p)  # the two terms can sum past 1 on a narrow band
    factors = np.ones(a.shape)
    factors.ravel()[near] = 1.0 - p
    return np.multiply.reduce(factors, axis=1)

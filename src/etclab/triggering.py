"""Trigger rules and first-exit-time samplers.

Two trigger rules are supported; the information scenario of the
experiment, not the rule, decides what an event resets and how many
agents a level rule watches:

* ``Periodic`` (time-triggered): every agent fires every ``period``
  seconds, all together or each at its own phase offset; crossing
  detection uses per-agent deadline counters rather than floating-point
  modulo so no drift accumulates over long runs;
* ``Level`` (event-triggered): an agent fires when the magnitude of its
  error, its deviation from the last consensus point, reaches a constant
  threshold.  In the broadcast-only scenario each agent watches its own
  error, which only its own events reset; in the broadcast-plus-local
  scenario every event resets the fleet, so the first of ``n`` agents to
  reach the threshold fires a global event.

The standalone first-exit sampler draws the exit time of the first of
one or several independent Brownian motions from a symmetric band
``[-delta, delta]`` on a fixed grid, optionally compensating between-step
boundary crossings with the Brownian-bridge crossing probability.  It
steps ``MAX_COARSE_STEPS`` grid steps at a time and fills in the grid
points between, from the exact discrete Brownian bridge, only for agents
that come near enough to a boundary to be seen leaving it (Glasserman,
*Monte Carlo Methods in Financial Engineering*, 2004, section 3.1);
every other agent's fine points could not change the exit.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .sde import NoiseStream

__all__ = [
    "Periodic",
    "Level",
    "TriggerScheme",
    "TriggerEvent",
    "staggered_offsets",
    "periodic_fire_step",
    "sample_first_passage_batch",
    "coarse_exit_gap",
]

# Relative tolerance for "time crosses a deadline" comparisons.
EPS_REL = 1e-9
# a working array of the fleet's chunk loop or of the first-exit sampler
# holds at most about this many bytes (8 per double)
CHUNK_BYTES = 8 << 20
# the first-exit sampler advances this many fine steps at once
MAX_COARSE_STEPS = 8


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is positive and finite (NaN is not)."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def check_count(name: str, value, minimum: int = 1) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer, Python or NumPy,
    of at least ``minimum``."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        wanted = "a non-negative integer" if minimum == 0 else f">= {minimum}"
        raise ValueError(f"{name} must be {wanted}, got {value}")


@dataclass(frozen=True)
class Periodic:
    """Every agent fires every ``period`` seconds: all together when there
    are no ``offsets``, otherwise agent ``i`` at phase ``offsets[i]`` in
    ``[0, period)``."""

    period: float
    offsets: Tuple[float, ...] = ()

    def __post_init__(self):
        check_positive("period", self.period)
        offs = tuple(float(o) for o in self.offsets)
        if not all(0 <= o < self.period for o in offs):
            raise ValueError(f"offsets must lie in [0, {self.period}), got {offs}")
        object.__setattr__(self, "offsets", offs)


@dataclass(frozen=True)
class Level:
    """An agent fires when its error ``|x_i - c|``, its deviation from the
    last consensus point ``c``, reaches ``delta``."""

    delta: float

    def __post_init__(self):
        check_positive("threshold", self.delta)


TriggerScheme = Union[Periodic, Level]


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

    Paths advance ``k = MAX_COARSE_STEPS`` grid steps at a time.  Each
    coarse step draws ``normals((m, n_agents))``, scaled by
    ``sqrt(k dt)``, for the coarse endpoints of the ``m`` live paths.  An
    agent is refined when either endpoint lies beyond ``far = delta -
    sqrt(20 dt) - sqrt(20 k dt)`` (agent 0 always, with
    ``return_occupation``); for any other agent the bridge between the
    endpoints comes within ``sqrt(20 dt)`` of a boundary with probability
    below ``2 exp(-40)``, so none of its grid points could be seen leaving
    the band or get the crossing law, and they are never drawn.  Then, for
    the grid steps ``j = 1 .. k`` in turn: below ``k`` one normal per
    refined agent of each still-live path (path order, agents ascending)
    gives its grid point from the exact discrete bridge,
    ``N(f + (end - f) / r, dt (r - 1) / r)`` with ``r = k - j + 1`` and
    ``f`` the point before; the grid test and the bridge test run over the
    refined agents; one uniform per tested path follows in path order.  A
    path draws nothing after its exit step.  One path therefore consumes
    its stream exactly as a scalar loop over its own coarse steps would;
    with ``k = 1`` nothing is interior and each step draws
    ``normals(n_agents)`` and, when tested, ``uniforms(1)``, as the plain
    grid sampler does.  The paths are stepped in consecutive
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
    check_count("n_samples", n_samples)
    check_count("n_agents", n_agents)
    times = np.empty(n_samples)
    occupation = np.zeros(n_samples) if return_occupation else None
    _exit_blocks(stream, times, occupation, delta, dt, n_agents, bridge_correction,
                 MAX_COARSE_STEPS)
    if return_occupation:
        return times, occupation
    return times


def coarse_exit_gap(stream: NoiseStream, n_samples: int, delta: float, dt: float,
                    n_agents: int = 1) -> Tuple[float, float]:
    """Mean of ``n_samples`` bridge-corrected exit times drawn
    ``MAX_COARSE_STEPS`` grid steps at a time, minus the mean of as many
    drawn one grid step at a time, and the standard error of that
    difference.  The two runs draw from ``stream.child(MAX_COARSE_STEPS)``
    and ``stream.child(1)``; a gap of a few standard errors or more means
    the bridge refinement changed the sampler's law."""
    check_positive("threshold", delta)
    check_positive("dt", dt)
    check_count("n_samples", n_samples, 2)
    check_count("n_agents", n_agents)
    means, variances = [], []
    for k in (MAX_COARSE_STEPS, 1):
        times = np.empty(n_samples)
        _exit_blocks(stream.child(k), times, None, delta, dt, n_agents, True, k)
        means.append(times.mean())
        variances.append(times.var(ddof=1))
    return float(means[0] - means[1]), math.sqrt(sum(variances) / n_samples)


def _exit_blocks(stream, times, occupation, delta, dt, n_agents, bridge_correction, coarse):
    """Fill ``times`` (and ``occupation``, unless None) block by block with
    :func:`_exit_block`, ``max(1, CHUNK_BYTES // (8 * n_agents))`` paths at
    a time."""
    block = max(1, CHUNK_BYTES // (8 * n_agents))
    for start in range(0, times.size, block):
        span = slice(start, start + block)
        _exit_block(stream, times[span], None if occupation is None else occupation[span],
                    delta, dt, n_agents, bridge_correction, coarse)


def _exit_block(stream, times, occupation, delta, dt, n_agents, bridge_correction, coarse):
    """Step ``times.size`` paths to their exits, ``coarse`` fine steps at a
    time, writing each exit time (and occupation integral, unless
    ``occupation`` is None) in place."""
    # P(exit later than ~60 delta^2) is astronomically small
    max_steps = int(np.ceil(60.0 * delta * delta / dt)) + 1000
    lag = 0.5 if bridge_correction else 0.0  # exit time = (step - lag) * dt
    # a bridge crossing has probability < 1e-17 unless an endpoint is
    # within sqrt(20 dt) of a boundary, so only those entries get the law
    near_band = delta - np.sqrt(20.0 * dt)
    # likewise the bridge of a coarse step whose endpoints both lie within
    # far comes within sqrt(20 dt) of a boundary with probability below
    # 2 exp(-40), so none of its fine points could be detected or tested
    far = near_band - np.sqrt(20.0 * coarse * dt)
    coarse_sd = np.sqrt(coarse * dt)
    # the fine point r steps before the end of a coarse step follows the
    # bridge law N(f + (end - f) / r, dt (r - 1) / r) from the point f before it
    levels = [(r, np.sqrt(dt * (r - 1) / r)) for r in range(coarse, 1, -1)] + [(1, 0.0)]

    x = np.zeros((times.size, n_agents))
    x_far = np.abs(x) > far
    occ = np.zeros(times.size)
    pos = np.arange(times.size)
    step = 0
    while pos.size:
        if step >= max_steps:
            raise RuntimeError(
                f"{pos.size} of {times.size} paths not exited after {max_steps} steps "
                f"(delta={delta}, dt={dt}); check the noise stream"
            )
        end = stream.normals((pos.size, n_agents))
        end *= coarse_sd
        end += x
        end_far = np.abs(end) > far
        refine = x_far | end_far
        if occupation is not None:
            refine[:, 0] = True  # every fine point of agent 0 enters its integral
        # refined entries by their flat index into end: path order, agents
        # ascending within a path
        whole = refine.all()  # then x and end serve as they are, without copies
        if whole:
            idx = np.arange(refine.size)
            a = x.ravel()
        else:
            idx = np.flatnonzero(refine)
            a = x.take(idx)
        del x, x_far, refine
        ends = end.ravel()
        lead = None if occupation is None else idx % n_agents == 0
        a_near = np.abs(a) > near_band
        exited = np.zeros(pos.size, dtype=bool)
        # without refined entries no path can leave the band in this coarse step
        for fine, (r, sd) in enumerate(levels if idx.size else (), step + 1):
            if occupation is not None:
                occ[idx[lead] // n_agents] += (a[lead] ** 2) * dt
            # the refined entries' coarse endpoints are gathered from end where
            # they are needed, not held beside it
            if r > 1:
                f = stream.normals(a.size)
                f *= sd
                mean = ends.take(idx)
                mean -= a
                mean /= r
                mean += a
                f += mean
                del mean
            else:
                f = ends if whole else ends.take(idx)
            dist = np.abs(f)
            f_near = dist > near_band
            out = idx[dist >= delta]
            del dist
            out //= n_agents
            exited[out] = True
            a_near |= f_near
            if bridge_correction and a_near.any():
                tested, survive = _bridge_survival(a, f, idx, n_agents, a_near, delta, dt)
                if out.size:  # a path that left the band on the grid is not tested
                    untouched = ~exited[tested]
                    tested, survive = tested[untouched], survive[untouched]
                if tested.size:
                    hit = tested[stream.uniforms(tested.size) < 1.0 - survive]
                    exited[hit] = True
                    out = np.concatenate((out, hit))
            del a
            if out.size:
                times[pos[out]] = (fine - lag) * dt
                if occupation is not None:
                    occupation[pos[out]] = occ[out]
                keep = ~exited[idx // n_agents]
                # one array at a time, so each old copy goes before the next is made
                f = f[keep]
                f_near = f_near[keep]
                idx = idx[keep]
                if lead is not None:
                    lead = lead[keep]
                whole = False
            a, a_near = f, f_near
        a = f = a_near = f_near = idx = lead = ends = None  # free them before the next draw
        step += coarse
        x_far = end_far
        if exited.any():
            keep = ~exited
            pos = pos[keep]
            x = end[keep]
            x_far = x_far[keep]
            occ = occ[keep]
        else:
            x = end


def _bridge_survival(a, b, idx, width, near, delta, dt):
    """Per row, the probability that Brownian bridges from ``a`` to ``b``
    all stay inside the band, for entries at ascending flat indices ``idx``
    into rows of ``width`` entries.

    Only the ``near`` entries, those with an endpoint within ``sqrt(20 dt)``
    of a boundary, get the crossing law: for every other entry ``1 - p``
    rounds to exactly 1.0.  Returns the rows that have a near entry,
    ascending, and their survival products, each a product over its near
    entries in order, which has the bits of the product over all of them.
    A row with an endpoint outside the band gets a meaningless value, for
    the caller to drop; its exponents stay below ``(b - a)^2 / (2 dt)``.
    """
    near = np.flatnonzero(near)
    a = a.take(near)
    b = b.take(near)
    p = _crossing_term(delta - a, delta - b, dt)
    a += delta
    b += delta
    p += _crossing_term(a, b, dt)
    np.minimum(p, 1.0, out=p)  # the two terms can sum past 1 on a narrow band
    np.subtract(1.0, p, out=p)
    row = idx.take(near)
    del near
    row //= width
    first = np.empty(row.size, dtype=bool)
    first[:1] = True
    np.not_equal(row[1:], row[:-1], out=first[1:])
    first = np.flatnonzero(first)
    return row.take(first), np.multiply.reduceat(p, first)


def _crossing_term(u, v, dt):
    """``exp(-2 u v / dt)``, formed in place in ``u`` and rounded as that
    expression is."""
    u *= -2.0
    u *= v
    u /= dt
    return np.exp(u, out=u)

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
every other agent's fine points could not change the exit.  That
coarse-to-fine core, the ``far`` test (``coarse_far``) and the bridge
point (``bridge_levels``, ``bridge_point``), also serves the fleet's
level rule on coarse rows and lanes.  Where an end must lie to be drawn
depends on what the grid points feed: the bridge-corrected sampler draws
every agent whose grid points could come within ``sqrt(20 dt)`` of a
boundary, where the crossing law starts to move a bit (``coarse_far``
with ``crossing``); the grid-only sampler and the fleet, which monitor the
grid alone, draw only the agents whose grid points could reach the band.
"""

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .checks import check_count, check_positive
from .sde import NoiseStream

__all__ = [
    "Periodic",
    "Level",
    "TriggerScheme",
    "TriggerEvent",
    "staggered_offsets",
    "periodic_fire_step",
    "sample_first_passage_batch",
    "coarse_far",
    "bridge_levels",
    "bridge_point",
]

# Relative tolerance for "time crosses a deadline" comparisons.
EPS_REL = 1e-9
# a working array of the fleet's chunk loop or of the first-exit sampler
# holds at most about this many bytes (8 per double)
CHUNK_BYTES = 8 << 20
# the first-exit sampler, and the fleet's level rule on a wide band, advance
# this many fine steps at once
MAX_COARSE_STEPS = 8
# the first-exit sampler forms each coarse step in pieces of about this many
# bytes of its block, drawn through one scratch of that size
_PIECE_BYTES = CHUNK_BYTES // 32


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


def coarse_far(delta: float, dt: float, coarse: int, *, crossing: bool) -> float:
    """How far from the centre of the band ``[-delta, delta]`` both ends of
    a coarse step of ``coarse`` grid steps may lie before its grid points
    are drawn: ``delta - sqrt(20 coarse dt)``, or with ``crossing``
    ``delta - sqrt(20 dt) - sqrt(20 coarse dt)``.

    The Brownian bridge over ``coarse dt`` between two ends within ``delta
    - sqrt(20 coarse dt) - m`` comes within ``m`` of a boundary with
    probability below ``2 exp(-40)`` (the law of its maximum; Glasserman,
    *Monte Carlo Methods in Financial Engineering*, 2004), for normal steps
    of scale at most 1.  Without ``crossing`` (``m = 0``) none of its grid
    points could reach the band: the draw test of every sampler monitored
    on the grid alone, the fleet's level rule on coarse rows and lanes and
    the grid-only first-exit sampler.  The bridge-corrected sampler gives
    the crossing law to every entry with a grid point within ``sqrt(20
    dt)`` of a boundary, so with ``crossing`` (``m = sqrt(20 dt)``) it
    draws those grid points too.  ``driver.fleet_coarse_steps`` and
    ``driver._lane_shape`` measure a band by ``far`` with ``crossing``, the
    yardstick their edges and drawn shares were measured with, not by
    either draw test."""
    if crossing:
        return delta - math.sqrt(20.0 * dt) - math.sqrt(20.0 * coarse * dt)
    return delta - math.sqrt(20.0 * coarse * dt)


def bridge_levels(coarse: int, dt: float):
    """``(r, sd)`` for the grid points of a coarse step of ``coarse`` grid
    steps, in order: the point ``r`` steps before the step's end follows the
    discrete Brownian bridge law ``N(f + (end - f) / r, dt (r - 1) / r)``
    from the point ``f`` before it, and ``sd`` is that standard deviation.
    The last entry, ``(1, 0.0)``, is the end itself."""
    return [(r, math.sqrt(dt * (r - 1) / r)) for r in range(coarse, 1, -1)] + [(1, 0.0)]


def bridge_point(noise: np.ndarray, a: np.ndarray, end: np.ndarray, r: int,
                 sd: float) -> np.ndarray:
    """The grid points one step after the points ``a`` on discrete Brownian
    bridges that reach ``end`` ``r`` grid steps after ``a``: ``a + (end -
    a) / r`` plus ``sd`` times the standard normals ``noise``, formed in
    place in ``noise``, which is returned; ``end`` is overwritten.  One draw per
    point, in the order of ``a``, so the sampler and the fleet consume
    their streams as a scalar loop over the points would (Glasserman,
    *Monte Carlo Methods in Financial Engineering*, 2004, section 3.1)."""
    noise *= sd
    end -= a
    end /= r
    end += a
    noise += end
    return noise


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
    agent is refined when either endpoint lies beyond ``far`` (agent 0
    always, with ``return_occupation``): ``delta - sqrt(20 dt) - sqrt(20 k
    dt)`` with ``bridge_correction``, where for any other agent the bridge
    between the endpoints comes within ``sqrt(20 dt)`` of a boundary with
    probability below ``2 exp(-40)``, so none of its grid points could be
    seen leaving the band or get the crossing law, and ``delta - sqrt(20 k
    dt)`` without, where the bridge reaches the band with probability below
    ``2 exp(-40)`` (``coarse_far``); the grid points of any other agent are
    never drawn.  Then, for
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
    last exit before the next starts; a call that fits one block draws as
    if all paths were stepped together.  A block keeps its live paths'
    coarse points in one array and forms each coarse step there in place,
    ``CHUNK_BYTES / 32`` bytes of it at a time, so beyond that array it
    holds one such piece and the refined entries: the traced peak of 6000
    bridge-corrected exits at dt 2e-3 and ``delta = level_threshold(n,
    0.5)`` is 1.37 times the ``(6000, 50)`` block at ``n_agents = 50`` and
    1.13 ``CHUNK_BYTES`` at 200, whatever ``n_samples``.

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
    block = max(1, CHUNK_BYTES // (8 * n_agents))
    for start in range(0, n_samples, block):
        span = slice(start, start + block)
        _exit_block(stream, times[span], None if occupation is None else occupation[span],
                    delta, dt, n_agents, bridge_correction)
    if return_occupation:
        return times, occupation
    return times


def _exit_block(stream, times, occupation, delta, dt, n_agents, bridge_correction):
    """Step ``times.size`` paths to their exits, ``MAX_COARSE_STEPS`` fine
    steps at a time, writing each exit time (and occupation integral, unless
    ``occupation`` is None) in place.  The live paths' coarse points stay in
    one array, which ``_coarse_step`` advances in place and from which
    exited rows are compacted forward, ``_PIECE_BYTES`` at a time."""
    coarse = MAX_COARSE_STEPS
    # P(exit later than ~60 delta^2) is astronomically small
    max_steps = int(np.ceil(60.0 * delta * delta / dt)) + 1000
    lag = 0.5 if bridge_correction else 0.0  # exit time = (step - lag) * dt
    # a bridge crossing has probability < 1e-17 unless an endpoint is
    # within sqrt(20 dt) of a boundary, so only those entries get the law
    near_band = delta - np.sqrt(20.0 * dt)
    far = coarse_far(delta, dt, coarse, crossing=bridge_correction)
    coarse_sd = np.sqrt(coarse * dt)
    levels = bridge_levels(coarse, dt)
    piece = max(1, _PIECE_BYTES // (8 * n_agents))

    points = np.zeros((times.size, n_agents))
    occ = np.zeros(times.size)
    pos = np.arange(times.size)
    step = 0
    while pos.size:
        if step >= max_steps:
            raise RuntimeError(
                f"{pos.size} of {times.size} paths not exited after {max_steps} steps "
                f"(delta={delta}, dt={dt}); check the noise stream"
            )
        x = points[:pos.size]
        # the refined entries by their flat index into x, path order and agents
        # ascending within a path, and their old points; every fine point of
        # agent 0 enters its occupation integral
        idx, a = _coarse_step(stream, x, piece, coarse_sd, far, occupation is not None)
        ends = x.ravel()
        lead = None if occupation is None else idx % n_agents == 0
        a_near = np.abs(a) > near_band
        exited = np.zeros(pos.size, dtype=bool)
        # without refined entries no path can leave the band in this coarse step
        for fine, (r, sd) in enumerate(levels if idx.size else (), step + 1):
            if occupation is not None:
                occ[idx[lead] // n_agents] += (a[lead] ** 2) * dt
            # the refined entries' coarse endpoints are gathered from x where
            # they are needed, not held beside it
            if r > 1:
                f = bridge_point(stream.normals(a.size), a, ends.take(idx), r, sd)
            else:
                f = ends.take(idx)
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
            a, a_near = f, f_near
        a = f = a_near = f_near = idx = lead = ends = None  # free them before the next draw
        step += coarse
        if exited.any():
            keep = np.flatnonzero(~exited)
            # row keep[i] >= i, so each piece reads rows no earlier piece wrote
            for start in range(0, keep.size, piece):
                rows = keep[start:start + piece]
                points[start:start + rows.size] = points.take(rows, axis=0)
            pos = pos.take(keep)
            occ = occ.take(keep)


def _coarse_step(stream, x, piece, sd, far, first_column):
    """Add ``sd`` times standard normals to the coarse points ``x`` in
    place, ``piece`` rows at a time, and return the flat indices of the
    refined entries, those with either end beyond ``far`` (and every
    entry of column 0 with ``first_column``), ascending, with their old points.

    ``k`` draws of ``(r, width)`` consume the stream as one draw of ``(k r,
    width)`` does, so the pieces change no bit; beyond ``x`` the step
    holds one piece of normals and the refined entries."""
    width = x.shape[1]
    scratch = np.empty((min(piece, len(x)), width))
    flags = np.empty((2, *scratch.shape), dtype=bool)
    idx, old_points = [], []
    for start in range(0, len(x), piece):
        old = x[start:start + piece]
        end, (refine, beyond) = scratch[:len(old)], flags[:, :len(old)]
        stream.normals(end.shape, out=end)
        end *= sd
        end += old
        # |v| > far as two comparisons, with no |v| temporary
        np.greater(old, far, out=refine)
        refine |= np.less(old, -far, out=beyond)
        refine |= np.greater(end, far, out=beyond)
        refine |= np.less(end, -far, out=beyond)
        if first_column:
            refine[:, 0] = True
        refined = np.flatnonzero(refine)
        old_points.append(old.take(refined))
        refined += start * width
        idx.append(refined)
        old[...] = end
    del scratch, flags, end, refine, beyond, refined
    if len(idx) == 1:  # one piece: no copies
        return idx[0], old_points[0]
    # one join at a time, so each list of parts goes before the next join
    idx = np.concatenate(idx)
    return idx, np.concatenate(old_points)


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

"""Level thresholds that make a level scheme hit a target mean inter-event time.

The threshold is closed form.  The mean exit time of the fastest of
``n`` motions from ``[-delta, delta]`` is ``delta^2 * m_n`` by Brownian
scaling, where ``m_n`` is the closed-form unit-threshold mean of
:func:`etclab.costs.mean_exit_time`, so :func:`level_threshold`, the one
threshold rule, is ``sqrt(T / m_n)``.  With ``n = 1`` (``m_1 = 1``) this
is the broadcast-only threshold ``sqrt(T)`` for a target local period.
:func:`calibrate_global_threshold` adds a Monte-Carlo verification run
with the bridge-corrected sampler on the caller's grid, which measures
the achieved mean and its confidence interval and raises on a miss
beyond tolerance; of the commands, only ``calibrate`` runs it.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .checks import check_count, check_positive
from .costs import mean_exit_time
from .sde import NoiseStream
from .triggering import sample_first_passage_batch

__all__ = [
    "CalibrationResult",
    "CalibrationError",
    "calibrate_global_threshold",
    "level_threshold",
]

DEFAULT_SAMPLES = 100_000
DEFAULT_DT = 1e-3
DEFAULT_TOLERANCE = 0.03


@dataclass(frozen=True)
class CalibrationResult:
    """Tuned threshold with its Monte-Carlo verification."""

    delta_star: float
    target_period: float
    achieved_period: float
    ci_halfwidth: float
    samples_used: int
    # always "scaling-law"; perfbench/run.py counts "bisection" values as
    # calibration.fallbacks, so the field goes when that metric does
    method: str = "scaling-law"


class CalibrationError(RuntimeError):
    """Verification run missed the target beyond tolerance."""

    def __init__(self, message: str, *, delta: float, target: float, achieved: float,
                 tolerance: float, samples: int):
        super().__init__(message)
        self.delta = delta
        self.target = target
        self.achieved = achieved
        self.tolerance = tolerance
        self.samples = samples


def level_threshold(n: int, target_period: float) -> float:
    """Threshold ``sqrt(target_period / m_n)`` at which the first of ``n``
    agents leaves its band every ``target_period`` seconds on average.

    Raises ``ValueError`` unless ``n >= 1`` and ``target_period`` is
    positive and finite.
    """
    check_count("agent count", n)
    check_positive("target period", target_period)
    return float(np.sqrt(target_period / mean_exit_time(n)))


def calibrate_global_threshold(
    n: int,
    target_global_period: float,
    stream: Optional[NoiseStream] = None,
    dt: float = DEFAULT_DT,
    tolerance: float = DEFAULT_TOLERANCE,
    samples: int = DEFAULT_SAMPLES,
) -> CalibrationResult:
    """:func:`level_threshold` for ``n`` agents, verified by Monte Carlo.

    ``n = 1`` gives the broadcast-only threshold ``sqrt(target)``, whose
    target is the local inter-event time of one agent.

    Parameters
    ----------
    n : int
        Agent count (>= 1).
    target_global_period : float
        Desired mean global inter-event time, seconds.
    stream : NoiseStream, optional
        Verification stream; defaults to seed 0.  Identical streams give
        bit-identical results.
    tolerance : float
        Relative acceptance band on the verified mean, in (0, 0.2].
    samples : int
        Verification budget: a fifth of it, at least 5 000 exit times,
        is drawn.

    Raises
    ------
    ValueError
        If an argument is invalid, before the first draw.
    CalibrationError
        If the verification run misses the target beyond tolerance,
        carrying the diagnostics.
    """
    delta = level_threshold(n, target_global_period)
    check_positive("threshold", delta)  # a huge target overflows it
    check_positive("dt", dt)
    if not 0 < tolerance <= 0.2:
        raise ValueError(f"tolerance must be in (0, 0.2], got {tolerance}")
    check_count("samples", samples)
    stream = stream if stream is not None else NoiseStream(0)

    # verification only needs the mean pinned to ~1/10 of the tolerance
    verify_samples = max(samples // 5, 5_000)
    times = sample_first_passage_batch(stream.child(2), verify_samples, delta, dt, n_agents=n)
    achieved = float(times.mean())
    ci = float(1.96 * times.std(ddof=1) / np.sqrt(verify_samples))
    if abs(achieved - target_global_period) > tolerance * target_global_period:
        raise CalibrationError(
            f"calibration missed target {target_global_period} for n={n} "
            f"(achieved {achieved:.6g} at delta={delta:.6g}, tolerance {tolerance:.1%})",
            delta=delta,
            target=target_global_period,
            achieved=achieved,
            tolerance=tolerance,
            samples=verify_samples,
        )
    return CalibrationResult(
        delta_star=delta,
        target_period=target_global_period,
        achieved_period=achieved,
        ci_halfwidth=ci,
        samples_used=verify_samples,
    )

"""Threshold tuning so a level scheme hits a target mean inter-event time.

Both thresholds are closed form.  For the broadcast-only scheme the mean
single-agent exit time is exactly ``delta^2``, so the threshold is
``sqrt(T)``.  For the global level scheme the mean exit time of the
fastest of ``n`` motions is ``delta^2 * m_n`` by Brownian scaling, where
``m_n`` is the closed-form unit-threshold mean of
:func:`etclab.costs.mean_exit_time`, so the threshold is
``sqrt(T / m_n)``.  A Monte-Carlo verification run on the caller's grid
then measures the achieved mean and its confidence interval; for the
global scheme a miss beyond tolerance raises.  Sampling defaults to the
bridge-corrected sampler: accuracy here dominates the bias of every
rate-matched experiment downstream.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costs import mean_exit_time
from .sde import NoiseStream
from .triggering import sample_first_passage_batch

__all__ = [
    "CalibrationResult",
    "CalibrationError",
    "calibrate_broadcast_threshold",
    "calibrate_global_threshold",
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
    method: str


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


def _mean_exit(stream: NoiseStream, n: int, delta: float, dt: float, samples: int,
               bridge_correction: bool = True):
    times = sample_first_passage_batch(
        stream, samples, delta, dt, n_agents=n, bridge_correction=bridge_correction
    )
    mean = float(times.mean())
    ci = float(1.96 * times.std(ddof=1) / np.sqrt(samples))
    return mean, ci


def calibrate_broadcast_threshold(
    target_local_period: float,
    stream: Optional[NoiseStream] = None,
    dt: float = DEFAULT_DT,
    samples: int = 20_000,
    verify: bool = True,
    bridge_correction: bool = True,
) -> CalibrationResult:
    """Threshold for the broadcast-only level rule: ``sqrt(target)``.

    The mean exit law makes this exact; the optional Monte-Carlo run
    only fills in the achieved value and its confidence interval.
    """
    if target_local_period <= 0:
        raise ValueError(f"target period must be positive, got {target_local_period}")
    delta = float(np.sqrt(target_local_period))
    if verify:
        stream = stream if stream is not None else NoiseStream(0)
        achieved, ci = _mean_exit(stream.child(2), 1, delta, dt, samples,
                                  bridge_correction)
    else:
        achieved, ci, samples = float("nan"), float("nan"), 0
    return CalibrationResult(
        delta_star=delta,
        target_period=target_local_period,
        achieved_period=achieved,
        ci_halfwidth=ci,
        samples_used=samples,
        method="scaling-law",
    )


def calibrate_global_threshold(
    n: int,
    target_global_period: float,
    stream: Optional[NoiseStream] = None,
    dt: float = DEFAULT_DT,
    tolerance: float = DEFAULT_TOLERANCE,
    samples: int = DEFAULT_SAMPLES,
    bridge_correction: bool = True,
) -> CalibrationResult:
    """Global level threshold for ``n`` agents: ``sqrt(target / m_n)``.

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
    CalibrationError
        If the verification run misses the target beyond tolerance,
        carrying the diagnostics.
    """
    if n < 1:
        raise ValueError(f"agent count must be >= 1, got {n}")
    if target_global_period <= 0:
        raise ValueError(f"target period must be positive, got {target_global_period}")
    if not 0 < tolerance <= 0.2:
        raise ValueError(f"tolerance must be in (0, 0.2], got {tolerance}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    stream = stream if stream is not None else NoiseStream(0)

    delta = float(np.sqrt(target_global_period / mean_exit_time(n)))
    # verification only needs the mean pinned to ~1/10 of the tolerance
    verify_samples = max(samples // 5, 5_000)
    achieved, ci = _mean_exit(stream.child(2), n, delta, dt, verify_samples,
                              bridge_correction)
    if abs(achieved - target_global_period) > tolerance * target_global_period:
        raise CalibrationError(
            f"calibration missed target {target_global_period} "
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
        method="scaling-law",
    )

"""Seed-reproducible noise streams for the fleet.

Each agent follows ``dx_i = u_i dt + dv_i`` with independent standard
Wiener processes ``v_i`` and impulsive control, so between impulses the
Euler-Maruyama update is exact: ``x <- x + dw`` with ``dw`` drawn from
Normal(0, dt).  Impulses act as instantaneous jumps at step boundaries.

Noise comes from an SFC64 generator seeded through ``SeedSequence``
spawn keys ``(trial_index, *subkey)`` under the experiment seed, so
every trial owns an independent, bit-for-bit reproducible substream
regardless of how many trials run in parallel.  Draws come out in one
sequence: a ``(k, n)`` block equals ``k`` successive draws of ``n``.
"""

from dataclasses import dataclass, field

import numpy as np

from .checks import check_count

__all__ = ["NoiseStream"]

# the bit generator behind every stream; the CLI manifest records its name
BIT_GENERATOR = np.random.SFC64


@dataclass
class NoiseStream:
    """Independent Gaussian increment stream for one trial.

    Parameters
    ----------
    seed : int
        Experiment-level seed, a non-negative integer.
    trial_index : int
        Substream key, a non-negative integer; identical
        ``(seed, trial_index)`` pairs reproduce identical sequences bit for
        bit.
    scale : float
        Diagnostic multiplier applied to every Gaussian draw, at most 1 in
        magnitude.  ``-1.0`` negates the driving noise (sign-flip symmetry
        checks), ``0.0`` silences it.  Uniform draws are never scaled.  The
        coarse samplers skip a Brownian bridge's grid points where it
        reaches the band with probability below ``2 exp(-40)`` for steps of
        unit variance (``triggering.coarse_far``); a scale of 2 would weaken
        that bound to about ``exp(-10)`` per bridge.
    """

    seed: int
    trial_index: int = 0
    scale: float = 1.0
    subkey: tuple = ()
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_count("seed", self.seed, 0)
        check_count("trial_index", self.trial_index, 0)
        if not abs(self.scale) <= 1.0:  # NaN fails too
            raise ValueError(f"noise scale must lie in [-1, 1], got {self.scale}")
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.trial_index, *self.subkey))
        self._gen = np.random.Generator(BIT_GENERATOR(ss))

    def normals(self, shape, out=None) -> np.ndarray:
        """Standard normal draws (times ``scale``), advancing the stream.

        ``out``, a C-contiguous float64 array of ``shape``, receives the
        draws in place of a new array and is returned.
        """
        draws = self._gen.standard_normal(shape, out=out)
        if self.scale != 1.0:
            draws *= self.scale
        return draws

    def uniforms(self, shape) -> np.ndarray:
        """Uniform(0,1) draws, advancing the stream.  Not scaled."""
        return self._gen.random(shape)

    def child(self, key: int) -> "NoiseStream":
        """Independent derived stream (calibration/verification runs)."""
        return NoiseStream(self.seed, self.trial_index, self.scale, (*self.subkey, key))


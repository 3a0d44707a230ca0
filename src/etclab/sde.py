"""Seed-reproducible noise streams and the integrator state for the fleet.

Each agent follows ``dx_i = u_i dt + dv_i`` with independent standard
Wiener processes ``v_i`` and impulsive control, so between impulses the
Euler-Maruyama update is exact: ``x <- x + dw``.  Impulses act as
instantaneous jumps at step boundaries.

Noise comes from a counter-based (Philox) generator keyed by
``(seed, trial_index)``, so every trial owns an independent, bit-for-bit
reproducible substream regardless of how many trials run in parallel.
"""

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "NoiseStream",
    "wiener_increments",
    "SimState",
    "initial_state",
    "drift_step",
    "apply_impulse",
]


@dataclass
class NoiseStream:
    """Independent Gaussian increment stream for one trial.

    Parameters
    ----------
    seed : int
        Experiment-level seed (64-bit).
    trial_index : int
        Substream key; identical ``(seed, trial_index)`` pairs reproduce
        identical sequences bit for bit.
    scale : float
        Diagnostic multiplier applied to every Gaussian draw.  ``-1.0``
        negates the driving noise (sign-flip symmetry checks), ``0.0``
        silences it.  Uniform draws are never scaled.
    """

    seed: int
    trial_index: int = 0
    scale: float = 1.0
    subkey: tuple = ()
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.trial_index, *self.subkey))
        self._gen = np.random.Generator(np.random.Philox(ss))

    def normals(self, shape) -> np.ndarray:
        """Standard normal draws (times ``scale``), advancing the stream."""
        draws = self._gen.standard_normal(shape)
        if self.scale != 1.0:
            draws *= self.scale
        return draws

    def uniforms(self, shape) -> np.ndarray:
        """Uniform(0,1) draws, advancing the stream.  Not scaled."""
        return self._gen.random(shape)

    def child(self, key: int) -> "NoiseStream":
        """Independent derived stream (calibration/verification runs)."""
        return NoiseStream(self.seed, self.trial_index, self.scale, (*self.subkey, key))


def wiener_increments(stream: NoiseStream, n: int, dt: float) -> np.ndarray:
    """``n`` independent draws from Normal(0, dt), one per agent."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return stream.normals(n) * np.sqrt(dt)


@dataclass(frozen=True)
class SimState:
    """Snapshot of the closed loop at one instant.

    ``x`` are the true agent states, ``xhat`` the controller-side
    estimates.  ``x_at_last_global`` stores the states at the latest
    global trigger; it is only consulted in the broadcast-plus-local
    information scenario, where the level rule measures deviations from
    it.  Treated as immutable: the step operations return new states.
    """

    t: float
    x: np.ndarray
    xhat: np.ndarray
    last_local_trigger: np.ndarray
    last_global_trigger: float
    last_consensus_point: float
    x_at_last_global: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0]


def initial_state(n: int) -> SimState:
    """All agents start in consensus at zero; t0 = 0 counts as a trigger."""
    if n < 1:
        raise ValueError(f"agent count must be >= 1, got {n}")
    return SimState(
        t=0.0,
        x=np.zeros(n),
        xhat=np.zeros(n),
        last_local_trigger=np.zeros(n),
        last_global_trigger=0.0,
        last_consensus_point=0.0,
        x_at_last_global=np.zeros(n),
    )


def drift_step(state: SimState, dw: np.ndarray, dt: float) -> SimState:
    """Advance one Euler-Maruyama step: ``x <- x + dw``, ``t <- t + dt``.

    Control between impulses is zero, so the drift is pure noise;
    estimates and trigger bookkeeping are untouched.
    """
    dw = np.asarray(dw, dtype=float)
    if dw.shape != state.x.shape:
        raise ValueError(f"increment vector has shape {dw.shape}, expected {state.x.shape}")
    return replace(state, t=state.t + dt, x=state.x + dw)


def apply_impulse(state: SimState, jumps: np.ndarray) -> SimState:
    """Apply instantaneous jumps ``x <- x + jumps`` at the current time.

    Estimate and trigger bookkeeping updates are the caller's job.
    """
    jumps = np.asarray(jumps, dtype=float)
    if jumps.shape != state.x.shape:
        raise ValueError(f"jump vector has shape {jumps.shape}, expected {state.x.shape}")
    return replace(state, x=state.x + jumps)

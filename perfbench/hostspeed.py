"""Host-speed reference: a fixed kernel timed between ops, to scale timings to a nominal host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 1.7x over seconds to minutes, as other tenants load it (CPU time
grows with wall time, so this is not descheduling).  Every timed interval
is bracketed by readings of the kernel below, which uses no etclab code
and so cannot change with it.  An interval's time is reported scaled by
``NOMINAL_S / kernel time`` around it: seconds on this host at its
nominal speed.  A change to etclab that makes an op 10% faster makes the
scaled time 10% smaller; a stretch of host slowdown moves the kernel and
the op alike and cancels.  The unscaled times are reported beside the
scaled ones.

The kernel is vectorised work (Philox normal draws and a cumulative sum
into preallocated arrays).  Over 2.5-minute probes on the machine of the
baseline in README.md, scaling by it cut the spread of 25-second means
of op latency from 0.118 to 0.035 on fleet-small and from 0.053 to 0.018
on fleet-large.  A kernel of interpreted steps over tiny arrays swung
twice as far as the ops did on fleet-large and calibrate, and was
dropped.
"""

import time

import numpy as np

# median reading on the machine of the baseline in README.md; it only sets
# the scale, and must not change between runs that are compared
NOMINAL_S = 0.0032
PASSES = 3  # draw-and-sum passes in one kernel run
REPEATS = 3  # one reading is the kernel's best of this many adjacent runs
# preallocated, so that the kernel's time does not depend on how much heap
# the process already holds (a fresh 320 KB array costs page faults)
_DRAWS = np.empty(40_000)
_SUMS = np.empty(40_000)


def _kernel() -> float:
    for _ in range(PASSES):
        np.random.Generator(np.random.Philox(7)).standard_normal(out=_DRAWS)
        np.cumsum(_DRAWS, out=_SUMS)
    return float(_SUMS[-1])


def measure() -> float:
    """One reading: the kernel's fastest time over ``REPEATS`` adjacent runs, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between readings ``before`` and ``after``, at nominal speed."""
    return seconds * NOMINAL_S * 2.0 / (before + after)

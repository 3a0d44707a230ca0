"""
Rate-matched scheme comparison and the factor-three advantage
=============================================================

Comparing schemes is only fair at equal average triggering rates.  For
the broadcast-only scenario both long-run costs are closed form:

    periodic:  n (n-1) T / 2          (T the per-agent period)
    level:     n (n-1) delta^2 / 6    (mean inter-event delta^2)

so at T = delta^2 the level rule wins by exactly a factor of three.
This script verifies both oracles in simulation and shows the factor-n
gap between the two periodic schemes at equal global rates.
"""

import math

import numpy as np

from etclab import (
    InfoScenario,
    Level,
    Periodic,
    ScenarioConfig,
    j_et_broadcast,
    j_tt_broadcast,
    local_to_global_period,
    run_batch,
)

B = InfoScenario.BROADCAST
BL = InfoScenario.BROADCAST_LOCAL
HORIZON, TRIALS, SEED = 1000.0, 4, 21

# --- level vs periodic, broadcast-only, equal local rates ---------------------

delta = math.sqrt(1.5)
period = delta**2  # rate matching

tt = run_batch(ScenarioConfig(n=3, scenario=B, scheme=Periodic(period),
                              horizon=HORIZON, trials=TRIALS, seed=SEED))
et = run_batch(ScenarioConfig(n=3, scenario=B, scheme=Level(delta),
                              horizon=HORIZON, trials=TRIALS, seed=SEED))

print("broadcast-only, n=3, equal local rates:")
print(f"  periodic: simulated {tt.j_time_avg:6.3f}   oracle {j_tt_broadcast(3, period):6.3f}")
print(f"  level   : simulated {et.j_time_avg:6.3f}   oracle {j_et_broadcast(3, delta):6.3f}")
print(f"  ratio   : simulated {et.j_time_avg / tt.j_time_avg:.3f}   analytic 1/3")

# --- the information gap between the periodic schemes -------------------------
# at equal global rates the broadcast+local periodic scheme is n times
# cheaper: one reset of the whole fleet beats n staggered estimate fixes

print("\nperiodic schemes at a 0.5 s global inter-event time:")
for n in (3, 10):
    t_local = n * 0.5
    b = run_batch(ScenarioConfig(n=n, scenario=B, scheme=Periodic(t_local),
                                 horizon=HORIZON, trials=TRIALS, seed=SEED))
    bl = run_batch(ScenarioConfig(n=n, scenario=BL, scheme=Periodic(0.5),
                                  horizon=HORIZON, trials=TRIALS, seed=SEED))
    print(f"  n={n:2d}: broadcast-only {b.j_time_avg:8.2f}   broadcast+local {bl.j_time_avg:7.2f}"
          f"   gap {b.j_time_avg / bl.j_time_avg:5.2f} (analytic {n})")

print(f"\n(rate conversion used above: local period {3 * 0.5} s -> "
      f"global {local_to_global_period(3, 3 * 0.5)} s for n=3)")
print(f"analytic oracle for the last row: {j_tt_broadcast(10, 5.0):.1f} vs "
      f"{j_tt_broadcast(10, 0.5):.1f}")

"""
When does the level rule stop paying off?
=========================================

Under broadcast-only information the level rule beats the periodic
baseline by a factor of three at any fleet size.  With richer local
information every event resets the whole fleet, and the comparison
changes character: a global event fires whenever the FIRST of n walkers
leaves the band, so for large fleets the level rule spends its events
almost as regularly as a clock, while the deviation of the other n-1
agents keeps growing between resets.  Past some fleet size the periodic
scheme wins.

This script sweeps n at a matched 0.5 s global rate and brackets the
crossover.  Each threshold is the closed form ``level_threshold(n, 0.5)``,
so no calibration run precedes the batches.  Budgets are trimmed for a
quick run; the acceptance suite pins the n in {3, 10, 50} anchors at
full scale.
"""

from etclab import (
    InfoScenario,
    Level,
    Periodic,
    ScenarioConfig,
    level_threshold,
    run_batch,
)

BL = InfoScenario.BROADCAST_LOCAL
HORIZON, TRIALS, SEED = 800.0, 4, 33

print(" n   delta    J periodic    J level    level/periodic")
ratios = {}
for n in (2, 5, 10, 20, 35, 50):
    delta = level_threshold(n, 0.5)
    tt = run_batch(ScenarioConfig(n=n, scenario=BL, scheme=Periodic(0.5),
                                  horizon=HORIZON, trials=TRIALS, seed=SEED))
    et = run_batch(ScenarioConfig(n=n, scenario=BL, scheme=Level(delta),
                                  horizon=HORIZON, trials=TRIALS, seed=SEED))
    ratio = et.j_time_avg / tt.j_time_avg
    ratios[n] = ratio
    print(f"{n:3d}  {delta:.3f}   {tt.j_time_avg:10.2f}  {et.j_time_avg:9.2f}"
          f"      {ratio:.3f}")

crossed = [n for n, r in ratios.items() if r > 1.0]
if crossed:
    below = max(n for n, r in ratios.items() if r <= 1.0)
    print(f"\nthe level rule loses its edge between n={below} and n={min(crossed)}"
          " at this budget; the exact crossover depends on MC noise.")
else:
    print("\nno crossover inside the swept range at this budget.")

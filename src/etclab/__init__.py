"""Monte-Carlo laboratory for time- vs event-triggered consensus.

A fleet of noisy single integrators keeps consensus through impulsive
control; sampling instants come either from a periodic rule or from a
level-triggering rule, under two local-information scenarios.  The
package simulates the closed loop reproducibly, estimates the long-run
consensus-deviation cost two independent ways, carries the closed-form
cost oracles for the schemes that have them, and tunes level thresholds
to hit target triggering rates.
"""

from .calibration import (
    CalibrationError,
    CalibrationResult,
    calibrate_global_threshold,
    level_threshold,
)
from .control import (
    Average,
    ConsensusRule,
    Fixed,
    InfoScenario,
    Leader,
    consensus_value,
)
from .costs import (
    CostAccumulator,
    CostReport,
    GridLevelLaw,
    expected_occupation_integral,
    finalize,
    grid_level_law,
    j_et_broadcast,
    j_tt_broadcast,
    j_tt_broadcast_local,
    local_to_global_period,
    mean_exit_time,
    merge_accumulators,
)
from .driver import (
    ScenarioConfig,
    TrialResult,
    run_batch,
    run_trial,
    run_trial_reference,
    run_trials,
)
from .graph import consensus_cost_rows, laplacian_dense
from .sde import NoiseStream
from .triggering import (
    Level,
    Periodic,
    TriggerEvent,
    TriggerScheme,
    sample_first_passage_batch,
    staggered_offsets,
)

# the former per-scenario scheme names, kept only for perfbench/workloads.py;
# ROADMAP item 8 deletes them together with j_tt_broadcast_local
PeriodicSync = PeriodicAsync = Periodic
LevelBroadcast = LevelGlobal = Level

__version__ = "0.1.0"

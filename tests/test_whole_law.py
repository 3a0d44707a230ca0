"""Whole-law test: the fleet's and the sampler's exit-step laws against the
exact grid law.

Under broadcast-plus-local information every event resets every agent, so
the global inter-event step counts are i.i.d. first exits of ``W = n``
walks; under broadcast-only information each agent's own inter-event step
counts are i.i.d. first exits of ``W = 1``.  ``costs.grid_level_law`` gives
their pmf ``s_(k-1)^W - s_k^W`` exactly, with ``h = dt / delta^2``.  The
grid-only first-exit sampler reports the end of the detecting step, so its
step counts follow the same pmf.

Every parameter is fixed before any run: ``dt = 2e-3``, ``delta = sqrt(dt /
h)`` for ``h`` in {1e-4, 1e-3, 1e-2, 1e-1}; fleet points n = 1 under
broadcast-only and n in {3, 10} under both scenarios, with every level row
forced to ``MAX_COARSE_STEPS = 8`` grid steps, which puts the
broadcast-plus-local points on lanes of renewal cycles, and then two more
points on the rows the rule itself gives them: n = 3 under broadcast-only
at h = 1e-4 (``delta`` about 4.47), 16 grid steps, and n = 3 under
broadcast-plus-local at h = 1e-3 (``delta`` about 1.41), lanes of grid
steps; 10,000 samples per
point (the first 10,000 global gaps under broadcast-plus-local, the first
``ceil(10,000 / n)`` own gaps of every agent, pooled, under broadcast-only);
seed 1729, one trial whose index is the point's position in the list, and a
horizon 1.3 times the law's expected need, where a shortfall is a failure.
Sampler points draw 10,000 grid-only exits for ``n_agents`` in {1, 3, 10}
at the same ``h``, point ``i`` from ``NoiseStream(1729).child(100 + i)``.
Bins end at the first step counts where the exact cdf reaches ``j / 20``,
duplicates merged, the last bin open; a bin expected to hold fewer than 5
samples is merged into its neighbour.  Pearson's chi-square with ``bins -
1`` degrees of freedom fails a point at ``p < 1e-4``: over the 34 points the
family false-alarm rate is at most 3.4e-3.

The same fleet trials check agent 0's renewal reward, ``sum e_0^2 dt`` over
its cycle, which ``driver._settle`` and the coarse rows' expectations form:
its mean over a cycle is ``delta^2 dt sum_k q_k s_k^(W-1)``.  Agent 0's
first 10,000 cycles under broadcast-plus-local, or its first ``ceil(10,000
/ n)`` own cycles under broadcast-only, as ``CostAccumulator.close_cycle``
records them, give ``z = (mean - law) / (sd / sqrt(m))``, which fails a
point at a two-sided ``p < 1e-4``.  A failure is reported, never re-seeded.
Run with ``-s`` to see every p-value.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from etclab import (
    CostAccumulator,
    InfoScenario,
    Level,
    NoiseStream,
    ScenarioConfig,
    driver,
    grid_level_law,
    run_trial,
    sample_first_passage_batch,
)

B = InfoScenario.BROADCAST
BL = InfoScenario.BROADCAST_LOCAL

DT = 2e-3
H = (1e-4, 1e-3, 1e-2, 1e-1)
SAMPLES = 10_000
SEED = 1729
ALPHA = 1e-4

FORCED_POINTS = [(h, n, scenario) for h in H
                 for n, scenario in ((1, B), (3, B), (3, BL), (10, B), (10, BL))]
# appended, so that every point above keeps its trial index and its draws,
# with the grid steps of a row that the rule gives each: coarse rows (b) and
# lanes of grid steps (bl)
RULE_POINTS = [(1e-4, 3, B), (1e-3, 3, BL)]
RULE_STEPS = [16, 1]
FLEET_POINTS = FORCED_POINTS + RULE_POINTS
FLEET_IDS = ([f"h{h:g}-n{n}-{s.value}" for h, n, s in FORCED_POINTS]
             + [f"h{h:g}-n{n}-{s.value}-rule" for h, n, s in RULE_POINTS])
SAMPLER_POINTS = [(h, n) for h in H for n in (1, 3, 10)]


def chi_square_p(counts: np.ndarray, watchers: int, h: float) -> float:
    """p-value of Pearson's chi-square of the step counts ``counts`` against
    the exact first-exit pmf of ``watchers`` walks, binned as the module
    docstring says."""
    law = grid_level_law(watchers, h)
    pmf = law.exit_pmf
    cdf = np.cumsum(pmf)
    # bin j ends at the first step count where the cdf reaches j / 20
    edges = np.unique([int(np.searchsorted(cdf, j / 20 - 1e-12)) + 1 for j in range(1, 20)])
    expected = np.diff(np.concatenate(([0.0], cdf[edges - 1], [1.0]))) * counts.size
    observed = np.diff(np.concatenate(([0], np.searchsorted(np.sort(counts), edges, side="right"),
                                       [counts.size])))
    # a bin expected below 5 takes in the next one; a small last bin joins the one before
    merged_e, merged_o = [], []
    for e, o in zip(expected, observed):
        if merged_e and merged_e[-1] < 5:
            merged_e[-1] += e
            merged_o[-1] += o
        else:
            merged_e.append(e)
            merged_o.append(o)
    if len(merged_e) > 1 and merged_e[-1] < 5:
        merged_e[-2] += merged_e.pop()
        merged_o[-2] += merged_o.pop()
    expected, observed = np.array(merged_e), np.array(merged_o, dtype=float)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    return float(stats.chi2.sf(chi2, len(expected) - 1))


def fleet_run(index: int):
    """``(gaps, rewards)`` of fleet point ``index``: its pooled step counts
    between events, and agent 0's first cycle rewards, as the module
    docstring says.

    The trial runs unlogged, as batches do, with every level row
    ``MAX_COARSE_STEPS`` grid steps long, or, at the ``RULE_POINTS``, as
    long as ``driver.fleet_coarse_steps`` makes it, which must be its
    ``RULE_STEPS``, and as lanes under broadcast-plus-local information
    (``driver._runs_lanes``).  Under broadcast-only information the event steps and initiators
    are read off the calls to ``driver._settle``, the one event protocol,
    which settles each chunk of the group; under broadcast-plus-local every
    event closes agent 0's cycle, so the gaps are the cycle lengths that
    ``CostAccumulator.close_cycle`` records, in bulk.  The rewards are read
    off the cycles it closes, which must be every cycle the trial counts."""
    h, n, scenario = FLEET_POINTS[index]
    delta = math.sqrt(DT / h)
    watchers = n if scenario is BL else 1
    per_agent = SAMPLES if scenario is BL else math.ceil(SAMPLES / n)
    need = per_agent * grid_level_law(watchers, h).mean_exit_steps() * DT
    steps, masks, rewards, lengths = [], [], [], []
    settle, close_cycle = driver._settle, CostAccumulator.close_cycle

    def recording_settle(tally, buffer, length, keys, chunk_masks, done, coarse_rows=None):
        steps.append(done + (np.asarray(keys, dtype=np.int64) % length if coarse_rows is None
                             else coarse_rows.times))
        masks.append(np.asarray(chunk_masks, dtype=bool).reshape(len(keys), n))
        return settle(tally, buffer, length, keys, chunk_masks, done, coarse_rows)

    def recording_close_cycle(acc, reward, length):
        # the bulk close hands over a trial's pending cycles at once
        rewards.extend(np.atleast_1d(reward).tolist())
        lengths.extend(np.atleast_1d(length).tolist())
        return close_cycle(acc, reward, length)

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = ScenarioConfig(n=n, scenario=scenario, scheme=Level(delta), dt=DT,
                                horizon=1.3 * need, trials=1, seed=SEED)
        if index < len(FORCED_POINTS):
            patch.setattr(driver, "fleet_coarse_steps", lambda config: driver.MAX_COARSE_STEPS)
        else:
            assert driver.fleet_coarse_steps(config) == RULE_STEPS[index - len(FORCED_POINTS)]
            assert driver._runs_lanes(config) == (scenario is BL)
        patch.setattr(driver, "_settle", recording_settle)
        patch.setattr(CostAccumulator, "close_cycle", recording_close_cycle)
        acc = run_trial(config, index).accumulator
    assert len(rewards) == len(lengths) == acc.cycles
    if scenario is BL:
        gaps = [np.rint(np.array(lengths) / DT).astype(np.int64)]
    else:
        steps, masks = np.concatenate(steps), np.concatenate(masks)
        gaps = [np.diff(steps[masks[:, a]], prepend=0) for a in range(n)]
    # agent 0's cycles close at its own events, so there are as many as its gaps
    assert all(g.size >= per_agent for g in gaps), f"horizon too short for point {index}"
    return np.concatenate([g[:per_agent] for g in gaps]), np.array(rewards[:per_agent])


@pytest.fixture(scope="module")
def fleet_runs():
    """``fleet_run`` with its results kept, so that both tests of a fleet
    point read one trial."""
    return functools.lru_cache(maxsize=None)(fleet_run)


@pytest.mark.parametrize("index", range(len(FLEET_POINTS)), ids=FLEET_IDS)
def test_fleet_exit_steps_follow_the_grid_law(index, fleet_runs):
    assert driver.MAX_COARSE_STEPS == 8
    h, n, scenario = FLEET_POINTS[index]
    counts = fleet_runs(index)[0]
    watchers = n if scenario is BL else 1
    p = chi_square_p(counts, watchers, h)
    print(f"[whole law] fleet {scenario.value} n={n} h={h:g}: p = {p:.4g}")
    assert p >= ALPHA


@pytest.mark.parametrize("index", range(len(FLEET_POINTS)), ids=FLEET_IDS)
def test_fleet_cycle_rewards_follow_the_grid_law(index, fleet_runs):
    assert driver.MAX_COARSE_STEPS == 8
    h, n, scenario = FLEET_POINTS[index]
    rewards = fleet_runs(index)[1]
    law = grid_level_law(n if scenario is BL else 1, h)
    # delta^2 dt sum_k q_k s_k^(W - 1), with delta^2 = dt / h
    mean = DT / h * DT * float((law.second * law.survival ** (law.watchers - 1)).sum())
    z = (rewards.mean() - mean) / (rewards.std(ddof=1) / math.sqrt(rewards.size))
    p = 2 * float(stats.norm.sf(abs(z)))
    print(f"[whole law] reward {scenario.value} n={n} h={h:g}: z = {z:+.2f}, p = {p:.4g}")
    assert p >= ALPHA


@pytest.mark.parametrize("index", range(len(SAMPLER_POINTS)),
                         ids=[f"h{h:g}-n{n}" for h, n in SAMPLER_POINTS])
def test_sampler_exit_steps_follow_the_grid_law(index):
    h, n = SAMPLER_POINTS[index]
    times = sample_first_passage_batch(NoiseStream(SEED).child(100 + index), SAMPLES,
                                       math.sqrt(DT / h), DT, n_agents=n,
                                       bridge_correction=False)
    counts = np.rint(times / DT).astype(np.int64)
    p = chi_square_p(counts, n, h)
    print(f"[whole law] sampler n={n} h={h:g}: p = {p:.4g}")
    assert p >= ALPHA

"""Acceptance gate: every criterion at its stated tolerance.

Shared protocol: dt = 2e-3 s, horizon 2000 s, 8 trials, seed 1729.
Full-scale runs and calibrations are memoized so criteria can share
them; the whole module stays within a few minutes on a laptop.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see one printed
pass/fail line per criterion.
"""

import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from scipy import stats

from etclab import (
    Average,
    InfoScenario,
    Leader,
    Level,
    NoiseStream,
    Periodic,
    ScenarioConfig,
    calibrate_global_threshold,
    consensus_cost_rows,
    expected_occupation_integral,
    finalize,
    grid_level_law,
    j_et_broadcast,
    j_tt_broadcast,
    run_trial,
    run_trials,
    sample_first_passage_batch,
)

SEED = 1729
DT = 2e-3
HORIZON = 2000.0
TRIALS = 8

B = InfoScenario.BROADCAST
BL = InfoScenario.BROADCAST_LOCAL


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion}: {detail}"


def quiet_config(**kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ScenarioConfig(**kw)


@lru_cache(maxsize=None)
def fleet(n, scenario, scheme, horizon=HORIZON, trials=TRIALS, rule=Average()):
    config = quiet_config(n=n, scenario=scenario, scheme=scheme, rule=rule,
                          dt=DT, horizon=horizon, trials=trials, seed=SEED)
    results = run_trials(config)
    report = finalize([r.accumulator for r in results])
    return results, report


@lru_cache(maxsize=None)
def calibrated(n, target):
    return calibrate_global_threshold(
        n, target, stream=NoiseStream(SEED).child(1000 + n)
    )


def welch_ci95(a, b):
    a, b = np.asarray(a), np.asarray(b)
    va, vb = a.var(ddof=1) / a.size, b.var(ddof=1) / b.size
    dof = (va + vb) ** 2 / (va**2 / (a.size - 1) + vb**2 / (b.size - 1))
    return float(stats.t.ppf(0.975, dof) * np.sqrt(va + vb))


# --- criterion 1: first-passage identity ------------------------------------


def test_criterion_1_first_passage_identity():
    times = sample_first_passage_batch(
        NoiseStream(SEED).child(1), 100_000, 1.0, 1e-3, bridge_correction=True
    )
    naive = sample_first_passage_batch(
        NoiseStream(SEED).child(2), 100_000, 1.0, 1e-3, bridge_correction=False
    )
    m, mn = times.mean(), naive.mean()
    check(
        "1",
        abs(m - 1.0) <= 0.02 and abs(mn - 1.0) <= 0.05,
        f"exit-time mean {m:.4f} (tol 2%), uncorrected {mn:.4f} (tol 5%)",
    )


# --- criterion 2: periodic broadcast oracle ---------------------------------


def test_criterion_2_periodic_broadcast_oracle():
    _, sync = fleet(3, B, Periodic(0.75))
    offsets = tuple(0.75 * i / 3 for i in range(3))
    _, async_ = fleet(3, B, Periodic(0.75, offsets))
    target = j_tt_broadcast(3, 0.75)  # 2.25
    ok = (
        abs(sync.j_time_avg / target - 1) <= 0.03
        and abs(async_.j_time_avg / target - 1) <= 0.03
        and abs(async_.j_time_avg / sync.j_time_avg - 1) <= 0.03
    )
    check(
        "2",
        ok,
        f"TT-b sync {sync.j_time_avg:.4f}, async {async_.j_time_avg:.4f} "
        f"vs {target} (tol 3%)",
    )


# --- criterion 3: level broadcast oracle ------------------------------------


def test_criterion_3_level_broadcast_oracle():
    _, rep = fleet(3, B, Level(math.sqrt(1.5)))
    target = j_et_broadcast(3, math.sqrt(1.5))  # 1.5
    ratio = rep.j_time_avg / target
    check("3", 0.97 <= ratio <= 1.07,
          f"ET-b cost {rep.j_time_avg:.4f} = {ratio:.3f} x {target} (band 0.97-1.07)")


# --- criterion 4: consistency ratio -----------------------------------------


def test_criterion_4_consistency_ratio():
    details = []
    ok = True
    for n in (3, 10):
        _, et = fleet(n, B, Level(math.sqrt(1.5)))
        _, tt = fleet(n, B, Periodic(1.5))
        ratio = et.j_time_avg / tt.j_time_avg
        details.append(f"n={n}: {ratio:.4f}")
        ok &= 0.31 <= ratio <= 0.37
    check("4", ok, "ET-b/TT-b at equal local rates " + ", ".join(details)
          + " (band 0.31-0.37)")


# --- criterion 5: information gap -------------------------------------------


def test_criterion_5_information_gap():
    exact = all(
        j_tt_broadcast(n, n * t) / j_tt_broadcast(n, t) == n
        for n in (2, 3, 10, 50)
        for t in (0.25, 0.5, 2.0)
    )
    details = []
    ok = exact
    for n in (3, 10, 50):
        _, tt_b = fleet(n, B, Periodic(n * 0.5))
        _, tt_bl = fleet(n, BL, Periodic(0.5))
        quotient = tt_b.j_time_avg / tt_bl.j_time_avg
        details.append(f"n={n}: {quotient:.2f}")
        ok &= abs(quotient / n - 1) <= 0.05
    check("5", ok,
          f"analytic identity exact={exact}; simulated gap " + ", ".join(details)
          + " (tol 5%)")


# --- criterion 10: periodic cells on the grid --------------------------------

# every periodic fleet of criteria 2, 4 and 5 against the grid oracle
# n (n - 1) (P - dt) / 2, within five standard errors of its time average
PERIODIC_CELLS = [
    (3, B, Periodic(0.75)),
    (3, B, Periodic(0.75, tuple(0.75 * i / 3 for i in range(3)))),
    (3, B, Periodic(1.5)),
    (10, B, Periodic(1.5)),
    *((n, B, Periodic(n * 0.5)) for n in (10, 50)),
    *((n, BL, Periodic(0.5)) for n in (3, 10, 50)),
]


def test_criterion_10_periodic_grid_oracle():
    t975 = stats.t.ppf(0.975, TRIALS - 1)
    details = []
    ok = True
    for n, scenario, scheme in PERIODIC_CELLS:
        _, rep = fleet(n, scenario, scheme)
        oracle = j_tt_broadcast(n, scheme.period, DT)
        z = (rep.j_time_avg - oracle) / (rep.ci_halfwidth / t975)
        ok &= abs(z) <= 5
        kind = "async" if scheme.offsets else scenario.value
        details.append(f"n={n} {kind} P={scheme.period}: {rep.j_time_avg:.5g} vs "
                       f"{oracle:.5g} ({z:+.1f} SE)")
    check("10", ok, "; ".join(details) + " (band 5 SE)")


def level_cells():
    """Every level fleet of criteria 3, 4 and 7, and table1's ET-b cells of
    n = 10 and 50 at T = 0.5 (thresholds sqrt(5) and 5)."""
    cells = [(3, B, math.sqrt(1.5)), (10, B, math.sqrt(1.5)),
             *((n, BL, calibrated(n, 0.5).delta_star) for n in (3, 10, 50)),
             (10, B, math.sqrt(5.0)), (50, B, 5.0)]
    return cells


def test_criterion_10_level_grid_oracle():
    # the grid level law's cost n (n - 1) delta^2 sum q_k s_k^(W-1) / sum s_k^W,
    # with W = 1 watcher under broadcast-only and n under broadcast-plus-local,
    # within five standard errors of the time average: the periodic band
    t975 = stats.t.ppf(0.975, TRIALS - 1)
    details = []
    ok = True
    for n, scenario, delta in level_cells():
        _, rep = fleet(n, scenario, Level(delta))
        watchers = 1 if scenario is B else n
        oracle = grid_level_law(watchers, DT / delta**2).cost(n, delta)
        z = (rep.j_time_avg - oracle) / (rep.ci_halfwidth / t975)
        ok &= abs(z) <= 5
        details.append(f"n={n} {scenario.value} delta={delta:.4g}: {rep.j_time_avg:.5g} vs "
                       f"{oracle:.5g} ({z:+.1f} SE)")
    check("10 level", ok, "; ".join(details) + " (band 5 SE)")


# --- criterion 6: calibration cross-check -----------------------------------


def test_criterion_6_calibration_crosscheck():
    reference = {3: 1.04, 10: 1.44, 50: 1.90}
    details = []
    ok = True
    for n, ref in reference.items():
        cal = calibrated(n, 0.5)
        details.append(f"n={n}: {cal.delta_star:.4f} vs {ref}")
        ok &= abs(cal.delta_star / ref - 1) <= 0.10
    check("6", ok, "thresholds " + "; ".join(details) + " (tol 10%)")


# --- criterion 7: crossover -------------------------------------------------


def test_criterion_7_crossover():
    details = []
    ok = True
    for n, et_should_win in ((3, True), (10, True), (50, False)):
        delta = calibrated(n, 0.5).delta_star
        _, et = fleet(n, BL, Level(delta))
        _, tt = fleet(n, BL, Periodic(0.5))
        diff = et.j_time_avg - tt.j_time_avg
        ci = welch_ci95(et.j_trials, tt.j_trials)
        side_ok = (diff < -ci) if et_should_win else (diff > ci)
        ok &= side_ok
        details.append(
            f"n={n}: ET {et.j_time_avg:.4g} vs TT {tt.j_time_avg:.4g} "
            f"(diff {diff:+.3g}, ci {ci:.3g})"
        )
    check("7", ok, "; ".join(details))


# --- criterion 8: property suite --------------------------------------------


def test_criterion_8_rule_independence():
    base = dict(n=3, scenario=B, scheme=Level(math.sqrt(1.5)),
                dt=DT, horizon=200.0, trials=1, seed=SEED, record_events=True)
    avg = run_trial(quiet_config(rule=Average(), **base), 0)
    lead = run_trial(quiet_config(rule=Leader(), **base), 0)
    same_times = [e.time for e in avg.events] == [e.time for e in lead.events]
    ja, jl = avg.accumulator.integral_sum, lead.accumulator.integral_sum
    drift = abs(ja - jl) / ja
    check("8 rule-independence", same_times and drift <= 1e-9,
          f"{len(avg.events)} shared events, cost divergence {drift:.2e}")


def test_criterion_8_error_invariance():
    config = quiet_config(n=3, scenario=B, scheme=Level(math.sqrt(1.5)),
                          dt=DT, horizon=200.0, trials=1, seed=SEED,
                          record_events=True)
    run = run_trial(config, 0)
    worst = 0.0
    for event in run.events:
        e_pre = event.x_pre - event.xhat_pre
        e_post = event.x_post - event.xhat_post
        for agent in range(3):
            if agent in event.initiators:
                worst = max(worst, abs(e_post[agent]))
            else:
                worst = max(worst, abs(e_post[agent] - e_pre[agent]))
    check("8 error-invariance", worst <= 1e-12,
          f"{len(run.events)} events, worst deviation {worst:.2e}")


def test_criterion_8_exact_reset():
    config = quiet_config(n=3, scenario=BL, scheme=Level(1.04),
                          dt=DT, horizon=200.0, trials=1, seed=SEED,
                          record_events=True)
    run = run_trial(config, 0)
    equal = all(np.all(e.x_post == e.x_post[0]) for e in run.events)
    cost0 = max(float(consensus_cost_rows(e.x_post)) for e in run.events)
    check("8 exact-reset", equal and cost0 <= 1e-12,
          f"{len(run.events)} global events, max post-event cost {cost0:.2e}")


def test_criterion_8_sign_flip():
    config = quiet_config(n=3, scenario=B, scheme=Level(math.sqrt(1.5)),
                          dt=DT, horizon=200.0, trials=1, seed=SEED,
                          record_events=True)
    run = run_trial(config, 0)
    flipped = run_trial(config, 0, noise_scale=-1.0)
    same = [e.time for e in run.events] == [e.time for e in flipped.events]
    check("8 sign-flip", same,
          f"{len(run.events)} trigger instants invariant under noise negation")


def test_criterion_8_renewal_vs_time_average():
    ok = True
    details = []
    for n, scenario, scheme in (
        (3, B, Level(math.sqrt(1.5))),
        (3, BL, Level(calibrated(3, 0.5).delta_star)),
    ):
        results, report = fleet(n, scenario, scheme)
        per_trial = np.array([r.accumulator.renewal_estimate() for r in results])
        ren_ci = float(
            stats.t.ppf(0.975, len(per_trial) - 1)
            * per_trial.std(ddof=1) / math.sqrt(len(per_trial))
        )
        gap = abs(report.j_time_avg - per_trial.mean())
        combined = report.ci_halfwidth + ren_ci
        ok &= gap <= combined
        details.append(f"{scenario.value}: gap {gap:.4f} vs CI {combined:.4f}")
    check("8 renewal-agreement", ok, "; ".join(details))


def test_criterion_8_delta_invariance_of_ratio():
    ratios, cis = [], []
    for target in (0.5, 0.25):
        delta = calibrated(3, target).delta_star
        _, et = fleet(3, BL, Level(delta))
        _, tt = fleet(3, BL, Periodic(target))
        r = et.j_time_avg / tt.j_time_avg
        ci = r * math.hypot(et.ci_halfwidth / et.j_time_avg,
                            tt.ci_halfwidth / tt.j_time_avg)
        ratios.append(r)
        cis.append(ci)
    gap = abs(ratios[0] - ratios[1])
    bound = 2.0 * math.hypot(*cis)
    check("8 ratio-delta-invariance", gap <= bound,
          f"ET/TT ratios {ratios[0]:.4f} and {ratios[1]:.4f}, "
          f"gap {gap:.4f} <= {bound:.4f}")


# --- criterion 9: occupation-time oracle ------------------------------------


def test_criterion_9_occupation_oracle():
    _, occupation = sample_first_passage_batch(
        NoiseStream(SEED).child(9), 100_000, 1.0, 1e-3, return_occupation=True
    )
    target = expected_occupation_integral(1.0)  # 1/6
    mc = occupation.mean()
    check("9", abs(mc / target - 1) <= 0.03,
          f"MC squared-path integral {mc:.5f} vs closed form {target:.5f} (tol 3%)")

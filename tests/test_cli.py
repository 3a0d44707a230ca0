import csv
import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats

import etclab.calibration
from etclab import CostReport, Level, Periodic, cli, level_threshold, triggering
from etclab.cli import main
from etclab.triggering import MAX_COARSE_STEPS


def run_cli(args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(args)


def run_cli_without_warnings(args):
    """``main(args)``, failing on any ``UserWarning`` it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        return main(args)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


SIM_ARGS = ["simulate", "--n", "3", "--scenario", "b", "--trigger", "level",
            "--delta", "1.0", "--horizon", "100", "--trials", "2", "--seed", "7"]


def test_simulate_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli(SIM_ARGS + ["--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[0] == "n" and "j_time_avg" in header
    assert len(rows) == 1
    manifest = (tmp_path / "sim.csv.manifest.txt").read_text()
    assert "command=simulate" in manifest
    assert "arg.seed=7" in manifest
    assert "numpy_version=" in manifest
    assert "bitgen=SFC64" in manifest
    assert re.search(r"^git_revision=([0-9a-f]{40}|unknown)$", manifest, re.MULTILINE)
    wall = re.search(r"^wall_s=(\d+\.\d{3})$", manifest, re.MULTILINE)
    assert wall and 0 < float(wall.group(1)) < 600


def test_simulate_repeats_byte_identically(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(SIM_ARGS + ["--out", str(out1)])
    run_cli(SIM_ARGS + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("argv,message", [
    pytest.param(["simulate", "--trigger", "level"], "--trigger level requires --delta",
                 id="simulate-level-without-delta"),
    pytest.param(["simulate", "--trigger", "warp"], "invalid choice", id="simulate-trigger"),
    pytest.param(["simulate", "--trigger", "level", "--delta", "1", "--scenario", "bl",
                  "--rule", "nope"], "invalid choice", id="simulate-rule"),
    pytest.param(["calibrate", "--target-t", "0.5", "--samples", "0"],
                 "samples must be >= 1, got 0", id="calibrate-samples"),
    pytest.param(["calibrate", "--target-t", "0.5", "--tolerance", "0.5"],
                 "tolerance must be in (0, 0.2], got 0.5", id="calibrate-tolerance"),
    pytest.param(["calibrate", "--target-t", "0.5", "--n", "0"],
                 "agent count must be >= 1, got 0", id="calibrate-n"),
    pytest.param(["calibrate", "--target-t", "0.5", "--dt", "0"],
                 "dt must be positive, got 0.0", id="calibrate-dt-zero"),
    pytest.param(["calibrate", "--target-t", "0.5", "--dt", "-1"],
                 "dt must be positive, got -1.0", id="calibrate-dt-negative"),
    pytest.param(["table1", "--trials", "0"], "trials must be >= 1, got 0",
                 id="table1-trials"),
    pytest.param(["table1", "--horizon", "0.001"], "horizon must cover at least one step",
                 id="table1-horizon"),
    # only calibrate runs a verification, so only it takes a budget for one
    pytest.param(["table1", "--samples", "10"], "unrecognized arguments: --samples 10",
                 id="table1-samples"),
    pytest.param(["sweep-n", "--samples", "10"], "unrecognized arguments: --samples 10",
                 id="sweep-n-samples"),
    pytest.param(["sweep-n", "--n-list", "0"], "agent count must be >= 1, got 0",
                 id="sweep-n-n-list"),
    pytest.param(["sweep-n", "--n-list", "3,0"], "agent count must be >= 1, got 0",
                 id="sweep-n-n-list-late"),
    # one agent has zero cost under both bl schemes, so no cost ratio
    pytest.param(["sweep-n", "--n-list", "3,1"],
                 "sweep-n needs at least 2 agents per fleet, got 1", id="sweep-n-one-agent"),
    pytest.param(["sweep-n", "--target-t", "-1"], "target period must be positive, got -1.0",
                 id="sweep-n-target-t"),
    pytest.param(["simulate", "--trigger", "level", "--delta", "-1"],
                 "threshold must be positive, got -1.0", id="simulate-delta"),
    pytest.param(["simulate", "--trigger", "periodic-sync", "--period", "-1"],
                 "period must be positive, got -1.0", id="simulate-period"),
    pytest.param(["simulate", "--trigger", "periodic-async", "--period", "1",
                  "--offsets", "a,b,c"],
                 "--offsets must be a comma list of phases in [0, 1.0), got 'a,b,c'",
                 id="simulate-offsets-not-numbers"),
    pytest.param(["simulate", "--trigger", "periodic-async", "--period", "1",
                  "--offsets", "0,0.5,2"], "offsets must lie in [0, 1.0)",
                 id="simulate-offsets-out-of-period"),
    pytest.param(["trajectory", "--trigger", "level", "--delta", "-1"],
                 "threshold must be positive, got -1.0", id="trajectory-delta"),
    # NaN fails every comparison, so each check rejects it as not finite
    pytest.param(["simulate", "--trigger", "level", "--delta", "nan"],
                 "threshold must be finite, got nan", id="simulate-delta-nan"),
    pytest.param(["simulate", "--trigger", "periodic-sync", "--period", "nan"],
                 "period must be finite, got nan", id="simulate-period-nan"),
    pytest.param(["simulate", "--trigger", "periodic-async", "--period", "nan"],
                 "period must be finite, got nan", id="simulate-async-period-nan"),
    pytest.param(["simulate", "--trigger", "periodic-async", "--period", "1",
                  "--offsets", "0,nan,0.5"], "offsets must lie in [0, 1.0)",
                 id="simulate-offsets-nan"),
    pytest.param(["simulate", "--trigger", "level", "--delta", "1", "--dt", "nan"],
                 "dt must be finite, got nan", id="simulate-dt-nan"),
    pytest.param(["simulate", "--trigger", "level", "--delta", "1", "--horizon", "nan"],
                 "horizon must be finite, got nan", id="simulate-horizon-nan"),
    pytest.param(["simulate", "--trigger", "level", "--delta", "1", "--horizon", "inf"],
                 "horizon must be finite, got inf", id="simulate-horizon-inf"),
    pytest.param(["trajectory", "--trigger", "level", "--delta", "1", "--duration", "nan"],
                 "horizon must be finite, got nan", id="trajectory-duration-nan"),
    pytest.param(["trajectory", "--trigger", "level", "--delta", "1", "--stride", "0"],
                 "stride must be >= 1, got 0", id="trajectory-stride"),
    pytest.param(["calibrate", "--target-t", "nan"], "target period must be finite, got nan",
                 id="calibrate-target-t-nan"),
    pytest.param(["calibrate", "--target-t", "inf"], "target period must be finite, got inf",
                 id="calibrate-target-t-inf"),
    pytest.param(["calibrate", "--target-t", "0.5", "--dt", "nan"], "dt must be finite, got nan",
                 id="calibrate-dt-nan"),
    pytest.param(["calibrate", "--target-t", "1e308"], "threshold must be finite, got inf",
                 id="calibrate-threshold-overflow"),
    pytest.param(["sweep-n", "--target-t", "1e308"], "threshold must be finite, got inf",
                 id="sweep-n-threshold-overflow"),
    pytest.param(["sweep-n", "--target-t", "nan"], "target period must be finite, got nan",
                 id="sweep-n-target-t-nan"),
    pytest.param(["table1", "--dt", "nan"], "dt must be finite, got nan", id="table1-dt-nan"),
    # a scheme flag the trigger does not use would run another scheme than
    # the command line and its manifest describe
    pytest.param(["simulate", "--trigger", "periodic-sync", "--period", "0.75",
                  "--offsets", "0.1,0.2,0.3"], "--trigger periodic-sync does not use --offsets",
                 id="simulate-sync-offsets"),
    pytest.param(["simulate", "--trigger", "periodic-sync", "--period", "0.75", "--delta", "1"],
                 "--trigger periodic-sync does not use --delta", id="simulate-sync-delta"),
    pytest.param(["simulate", "--trigger", "periodic-async", "--period", "0.75", "--delta", "1"],
                 "--trigger periodic-async does not use --delta", id="simulate-async-delta"),
    pytest.param(["simulate", "--trigger", "level", "--delta", "1", "--period", "0.5"],
                 "--trigger level does not use --period", id="simulate-level-period"),
    pytest.param(["simulate", "--trigger", "level", "--delta", "1", "--offsets", "0.1"],
                 "--trigger level does not use --offsets", id="simulate-level-offsets"),
    pytest.param(["trajectory", "--trigger", "level", "--delta", "1", "--period", "0.5"],
                 "--trigger level does not use --period", id="trajectory-level-period"),
    pytest.param(["trajectory", "--trigger", "periodic-sync", "--period", "0.5",
                  "--offsets", "0.1,0.2,0.3"], "--trigger periodic-sync does not use --offsets",
                 id="trajectory-sync-offsets"),
    # trajectory runs one trial over --duration, so it takes neither flag
    pytest.param(["trajectory", "--horizon", "5"], "unrecognized arguments: --horizon 5",
                 id="trajectory-horizon"),
    pytest.param(["trajectory", "--trials", "2"], "unrecognized arguments: --trials 2",
                 id="trajectory-trials"),
])
def test_usage_errors_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the inputs were checked")

    monkeypatch.chdir(tmp_path)  # where a default --out would land
    monkeypatch.setattr(cli, "run_batch", no_work)
    monkeypatch.setattr(cli, "run_trial_reference", no_work)
    # the calibrator checks every input before the sampler's first draw
    monkeypatch.setattr(etclab.calibration, "sample_first_passage_batch", no_work)
    with pytest.raises(SystemExit) as info:
        run_cli(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("threads", ["abc", "0", "-2"])
def test_invalid_threads_is_usage_error(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setenv("THREADS", threads)
    with pytest.raises(SystemExit) as info:
        run_cli(SIM_ARGS + ["--out", str(tmp_path / "x.csv")])
    assert info.value.code == 2
    assert "THREADS" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "command", ["simulate", "calibrate", "table1", "sweep-n", "trajectory", "selftest"]
)
def test_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)  # where a default --out would land
    with pytest.raises(SystemExit) as info:
        run_cli([command, "--seed", "-1"])
    assert info.value.code == 2
    assert "seed must be a non-negative integer, got '-1'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_incompatible_scheme_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        run_cli(["simulate", "--scenario", "bl", "--trigger", "periodic-async",
                 "--period", "0.5", "--out", str(tmp_path / "x.csv")])
    assert info.value.code == 2


def test_calibrate_reference_point(tmp_path):
    out = tmp_path / "cal.csv"
    code = run_cli(["calibrate", "--n", "3", "--target-t", "0.5", "--seed", "3",
                    "--samples", "20000", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    delta = float(rows[0][header.index("delta")])
    assert delta == pytest.approx(1.04, rel=0.10)
    achieved = float(rows[0][header.index("achieved_T")])
    assert achieved == pytest.approx(0.5, rel=0.05)
    # the verification run's coarse step
    manifest = (tmp_path / "cal.csv.manifest.txt").read_text().splitlines()
    assert f"fpt_coarse_steps={MAX_COARSE_STEPS}" in manifest


K = MAX_COARSE_STEPS
# table1 rows in CSV order: TT-b, ET-b, TT-bl, ET-bl for n = 3 (T = 0.25 and
# 0.5), 10 and 50; a periodic row runs from one deadline to the next, so its
# bound is the period in grid steps of 2e-3 s (n T under broadcast-only
# information, T under broadcast-plus-local), and of the level rows only
# n = 50's are coarse: its broadcast-only one, of threshold 5, on coarse rows
# of twice K grid steps, its broadcast-plus-local one on lanes of renewal
# cycles
TABLE1_COARSE = ",".join(map(str, [375, 1, 125, 1, 750, 1, 250, 1, 2500, 1, 250, 1,
                                   12500, 2 * K, 250, K]))
# and whether each ran as lanes of renewal cycles: every ET-bl row, of n = 3
# and 10 on grid steps, of n = 50 on coarse rows
TABLE1_LANES = ",".join(["no,no,no,yes"] * 4)


@pytest.mark.parametrize("argv, coarse, lanes", [
    (["simulate", "--trigger", "periodic-sync", "--period", "0.5"], 250, "no"),
    (["simulate", "--trigger", "level", "--delta", "1.0"], 1, "no"),
    (["simulate", "--trigger", "level", "--delta", "4.0"], 2 * K, "no"),
    (["simulate", "--n", "50", "--scenario", "bl", "--trigger", "level", "--delta", "4.0"], K,
     "yes"),
    (["simulate", "--scenario", "bl", "--trigger", "level", "--delta", "0.7457"], 1, "yes"),
    (["simulate", "--n", "10", "--scenario", "bl", "--trigger", "level", "--delta", "1.0"], 1,
     "yes"),
    (["table1"], TABLE1_COARSE, TABLE1_LANES),
    (["sweep-n", "--n-list", "3,50"], "250/1,250/8", "no/yes,no/yes"),
    (["trajectory", "--trigger", "periodic-sync", "--period", "0.5"], 1, None),
    (["trajectory", "--trigger", "level", "--delta", "4.0"], 1, None),
], ids=["simulate-periodic", "simulate-level", "simulate-coarse-level-b",
        "simulate-coarse-level-bl", "simulate-grid-step-lanes", "simulate-level-bl",
        "table1", "sweep-n", "trajectory", "trajectory-level"])
def test_manifest_records_the_fleet_coarse_step(tmp_path, argv, coarse, lanes):
    # a CSV and its manifest alone say whether each row's costs are
    # expectations over coarse steps: periodic rows, and level rows whose
    # band is wide enough, for a large enough fleet under broadcast-plus-local
    # information (driver.fleet_coarse_steps); a trajectory shows every grid
    # step.  The fleet commands' manifests say too which rows ran as lanes of
    # renewal cycles, which a coarse step of 1 does not tell from grid rows:
    # broadcast-plus-local level fleets that coarse lanes do not take run
    # lanes of grid steps (driver._runs_lanes)
    out = tmp_path / "x.csv"
    length = ["--duration", "2"] if argv[0] == "trajectory" else ["--horizon", "2",
                                                                  "--trials", "1"]
    assert run_cli([*argv, *length, "--out", str(out)]) == 0
    manifest = (tmp_path / "x.csv.manifest.txt").read_text().splitlines()
    assert f"fleet_coarse_steps={coarse}" in manifest
    recorded = [line for line in manifest if line.startswith("fleet_lanes=")]
    assert recorded == ([] if lanes is None else [f"fleet_lanes={lanes}"])


def test_calibrate_failure_exits_3(tmp_path, capsys):
    code = run_cli(["calibrate", "--n", "1", "--target-t", "0.5", "--seed", "3",
                    "--samples", "400", "--tolerance", "0.0005",
                    "--out", str(tmp_path / "cal.csv")])
    assert code == 3
    assert "calibration failed" in capsys.readouterr().err


BL_LOOP_ARGS = ["--horizon", "40", "--trials", "2", "--seed", "5"]


@pytest.fixture(scope="module")
def table1_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("table1") / "t1.csv"
    assert run_cli(["table1", *BL_LOOP_ARGS, "--out", str(out)]) == 0
    return read_csv(out)


def test_table1_without_local_events_leaves_the_rate_empty(tmp_path):
    # 0.5 s holds no deadline of the n = 3 broadcast-only 0.75 s schedule
    out = tmp_path / "short.csv"
    assert run_cli(["table1", "--horizon", "0.5", "--trials", "1", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert rows[0][header.index("mean_global_T")] == ""


def test_table1_structure(table1_csv):
    header, rows = table1_csv
    assert "note" not in header
    assert len(rows) == 16
    i_n = header.index("n")
    i_scheme, i_scen = header.index("scheme"), header.index("scenario")
    i_analytic = header.index("j_analytic")
    i_target = header.index("target_global_T")
    seen = {(r[i_n], r[i_target], r[i_scheme], r[i_scen]) for r in rows}
    assert len(seen) == 16
    for row in rows:
        n, target = int(row[i_n]), float(row[i_target])
        kind = (row[i_scheme], row[i_scen])
        if kind == ("TT", "b"):
            assert float(row[i_analytic]) == n * (n - 1) * n * target / 2
        elif kind == ("ET", "b"):
            assert float(row[i_analytic]) == pytest.approx(
                n * (n - 1) * n * target / 6, rel=1e-12
            )
        elif kind == ("TT", "bl"):
            assert float(row[i_analytic]) == n * (n - 1) * target / 2
        else:
            assert row[i_analytic] == ""  # no closed form for ET bl


def test_table1_and_sweep_n_share_the_bl_loop(table1_csv, tmp_path):
    header, rows = table1_csv
    bl = {row[header.index("scheme")]: row for row in rows
          if (row[header.index("n")], row[header.index("target_global_T")],
              row[header.index("scenario")]) == ("3", "0.5", "bl")}
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep-n", "--n-list", "3", *BL_LOOP_ARGS, "--out", str(out)]) == 0
    sweep_header, (sweep,) = read_csv(out)
    assert sweep[sweep_header.index("target_global_T")] == "0.5"
    assert sweep[sweep_header.index("delta")] == bl["ET"][header.index("delta")]
    assert sweep[sweep_header.index("j_tt_bl_sim")] == bl["TT"][header.index("j_sim")]
    assert sweep[sweep_header.index("j_et_bl_sim")] == bl["ET"][header.index("j_sim")]


@pytest.mark.parametrize("command", ["table1", "sweep-n"])
def test_experiments_take_thresholds_from_the_closed_form(tmp_path, monkeypatch, command):
    def no_verification(*args, **kwargs):
        raise AssertionError("an experiment ran a Monte-Carlo verification")

    for owner in (cli, etclab.calibration):
        monkeypatch.setattr(owner, "calibrate_global_threshold", no_verification)
        monkeypatch.setattr(owner, "sample_first_passage_batch", no_verification)
    out = tmp_path / "x.csv"
    assert run_cli([command, "--horizon", "2", "--trials", "1", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    i_n, i_delta = header.index("n"), header.index("delta")
    i_target = header.index("target_global_T")
    level_rows = [row for row in rows if row[i_delta]]
    assert len(level_rows) == (8 if command == "table1" else 3)
    for row in level_rows:
        n, target = int(row[i_n]), float(row[i_target])
        if command == "table1" and row[header.index("scenario")] == "b":
            # broadcast-only agents fire on their own, each at n times the period
            expected = level_threshold(1, n * target)
        else:
            expected = level_threshold(n, target)
        assert float(row[i_delta]) == expected


def test_sweep_n_ci_diff_is_welch_t(tmp_path, monkeypatch):
    j_trials = {Periodic: (1.0, 1.5, 1.25, 2.0), Level: (0.5, 0.75, 0.5, 0.625)}

    def fixed_batch(config, workers=1):
        j = j_trials[type(config.scheme)]
        return CostReport(j_time_avg=sum(j) / len(j), j_renewal=float("nan"),
                          mean_local_interevent=1.5, mean_global_interevent=0.5,
                          trials=len(j), ci_halfwidth=0.0, j_trials=j)

    monkeypatch.setattr(cli, "run_batch", fixed_batch)
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep-n", "--n-list", "3", "--out", str(out)]) == 0
    header, (row,) = read_csv(out)
    et, tt = np.array(j_trials[Level]), np.array(j_trials[Periodic])
    va, vb = et.var(ddof=1) / et.size, tt.var(ddof=1) / tt.size
    dof = (va + vb) ** 2 / (va**2 / (et.size - 1) + vb**2 / (tt.size - 1))
    expected = stats.t.ppf(0.975, dof) * math.sqrt(va + vb)
    assert float(row[header.index("ci_diff")]) == pytest.approx(expected, rel=1e-12)
    assert float(row[header.index("diff")]) == pytest.approx(et.mean() - tt.mean())


def test_welch_ci_of_a_single_trial_is_nan():
    # one trial gives no variance: NaN at once, which the CSV writes empty,
    # without a numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(cli._welch_ci95([1.0], [2.0, 3.0]))
        assert math.isnan(cli._welch_ci95([1.0, 1.5], [2.0]))
        assert math.isnan(cli._welch_ci95([1.0], [2.0]))


def test_sweep_n_row_per_agent_count(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(["sweep-n", "--n-list", "2,3,4", "--target-t", "0.5",
                    "--horizon", "60", "--trials", "2", "--seed", "5", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert [int(r[header.index("n")]) for r in rows] == [2, 3, 4]
    assert {r[header.index("consistent")] for r in rows} <= {"yes", "no"}


def test_ratio_curve_analytic_column(tmp_path):
    out = tmp_path / "ratio.csv"
    code = run_cli(["ratio-curve", "--n-list", "3", "--target-t", "0.5",
                    "--horizon", "60", "--trials", "2", "--seed", "5", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert float(rows[0][header.index("ratio_b_analytic")]) == 1.0


def test_trajectory_global_resets_visible(tmp_path):
    # a trajectory writes no estimate, so its short duration warns of nothing
    out = tmp_path / "traj.csv"
    code = run_cli_without_warnings(["trajectory", "--n", "3", "--scenario", "bl",
                                     "--trigger", "level", "--delta", "1.04",
                                     "--duration", "2.5", "--seed", "11", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    xi = [header.index(f"x{i+1}") for i in range(3)]
    events = [r for r in rows if r[header.index("event")] == "1"]
    # ~5 events expected in 2.5 s at a 0.5 s global rate
    assert 2 <= len(events) <= 9
    for row in events:
        values = {row[i] for i in xi}
        assert len(values) == 1
    manifest = (tmp_path / "traj.csv.manifest.txt").read_text().splitlines()
    assert "arg.duration=2.5" in manifest
    assert not [line for line in manifest if line.startswith(("arg.horizon", "arg.trials"))]


def test_trajectory_errors_stay_inside_band(tmp_path):
    out = tmp_path / "trajb.csv"
    delta = math.sqrt(1.5)
    code = run_cli(["trajectory", "--n", "2", "--scenario", "b", "--trigger", "level",
                    "--delta", repr(delta), "--duration", "4.0", "--seed", "11",
                    "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    for row in rows:
        if row[header.index("event")] == "1":
            continue  # pre-jump states may sit on/over the threshold
        for i in range(2):
            x = float(row[header.index(f"x{i+1}")])
            xh = float(row[header.index(f"xhat{i+1}")])
            assert abs(x - xh) < delta


def test_trajectory_threshold_columns(tmp_path):
    out = tmp_path / "trajc.csv"
    run_cli(["trajectory", "--n", "2", "--scenario", "b", "--trigger", "level",
             "--delta", "1.0", "--duration", "1.0", "--seed", "2",
             "--out", str(out)])
    header, rows = read_csv(out)
    lo = header.index("thr_lo")
    hi = header.index("thr_hi")
    for row in rows:
        assert float(row[hi]) - float(row[lo]) == pytest.approx(2.0)


def test_selftest_passes(capsys):
    # the selftest's configs are sized for its own checks, so it warns of nothing
    assert run_cli_without_warnings(["selftest", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_selftest_catches_wrong_bridge_variance(capsys, monkeypatch):
    # the sampler's interior bridge points drawn with variance dt instead of
    # dt (r - 1) / r; the driver bound its own bridge_levels at import, so
    # only the sampler is broken
    monkeypatch.setattr(triggering, "bridge_levels",
                        lambda coarse, dt: [(r, math.sqrt(dt)) for r in range(coarse, 1, -1)]
                        + [(1, 0.0)])
    assert run_cli(["selftest", "--seed", "3"]) == 4
    line = next(line for line in capsys.readouterr().out.splitlines()
                if "coarse-refined exits match the grid law" in line)
    assert "FAIL" in line

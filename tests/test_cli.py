import math
import re

import pytest

from nettax import cli
from nettax.scenario import (
    DEFAULT_SCENARIO,
    ScenarioError,
    load_scenario,
    parse_scenario,
)
from nettax.simulator import TaxPolicy


class TestScenarioParsing:
    def test_default_scenario_round_trip(self, tmp_path):
        scn = parse_scenario(DEFAULT_SCENARIO)
        path = tmp_path / "scn.ini"
        path.write_text(DEFAULT_SCENARIO)
        assert load_scenario(path) == scn
        assert scn.sim.net.c1 == 4.0
        assert scn.sim.policy is TaxPolicy.NONE
        assert scn.sim.class_b.throughput == 0.184
        assert scn.sweep is not None
        assert scn.sweep.ratio == pytest.approx(2 / 3)

    def test_unknown_key_rejected_by_name(self):
        bad = DEFAULT_SCENARIO.replace("c1 = 4.0", "c1 = 4.0\nbogus_key = 1")
        with pytest.raises(ScenarioError, match="bogus_key"):
            parse_scenario(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match="mystery"):
            parse_scenario(DEFAULT_SCENARIO + "\n[mystery]\nx = 1\n")

    def test_embedded_invariants_revalidated(self):
        bad = DEFAULT_SCENARIO.replace("c2 = 11.0", "c2 = 2.0")
        with pytest.raises(ScenarioError, match="c2 > c1"):
            parse_scenario(bad)

    def test_sweep_section_optional(self):
        text = DEFAULT_SCENARIO.split("[sweep]")[0]
        assert parse_scenario(text).sweep is None

    def test_bad_policy_name(self):
        bad = DEFAULT_SCENARIO.replace("policy = none", "policy = magic")
        with pytest.raises(ScenarioError, match="magic"):
            parse_scenario(bad)


class TestAnalyzeCommand:
    def test_taxed_point(self, capsys):
        code = cli.main(
            ["analyze", "--c1", "4", "--c2", "11", "--demand", "8",
             "--alphas", "2,1", "--db", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0.0753778361" in out
        assert "alpha_A" in out
        assert "PASS" in out

    def test_below_threshold(self, capsys):
        code = cli.main(
            ["analyze", "--c1", "4", "--c2", "11", "--demand", "4", "--alphas", "2,1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "below threshold 4.36675042" in out

    @pytest.mark.parametrize(
        "demand, db, branch",
        [("8", "1", "alpha_A"), ("8", "7", "alpha_B"), ("3", "1", "none")],
    )
    def test_tau2_branch(self, capsys, demand, db, branch):
        code = cli.main(
            ["analyze", "--c1", "4", "--c2", "11", "--demand", demand,
             "--alphas", "2,1", "--db", db]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(line.split(None, 1) for line in out.splitlines())
        assert lines["tau2_branch"] == branch
        assert (lines["tau2"] == "0") == (branch == "none")

    def test_invalid_capacities_exit_2(self, capsys):
        code = cli.main(
            ["analyze", "--c1", "11", "--c2", "4", "--demand", "8", "--alphas", "2,1"]
        )
        assert code == 2
        assert "c2 > c1" in capsys.readouterr().err

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        code = cli.main(
            ["analyze", "--c1", "4", "--c2", "11", "--demand", "8",
             "--alphas", "2,1", "--csv", str(out)]
        )
        assert code == 0
        rows = dict(
            line.split(",", 1) for line in out.read_text().splitlines()[1:]
        )
        assert float(rows["C_opt"]) == pytest.approx(2.038071, abs=1e-5)

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--demand", "nan", "demand must be >= 0, got nan"),
            ("--c2", "inf", "c2=inf"),
            ("--db", "nan", "got nan, nan"),
        ],
    )
    def test_non_finite_input_exit_2(self, capsys, flag, value, named):
        args = {"--c1": "4", "--c2": "11", "--demand": "8", "--alphas": "2,1"}
        args[flag] = value
        code = cli.main(["analyze", *[x for kv in args.items() for x in kv]])
        assert code == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""

    def test_equilibrium_check_passes_near_saturation(self, capsys):
        # 1e-10 below the combined capacity of 15.
        code = cli.main(
            ["analyze", "--c1", "4", "--c2", "11", "--demand", "14.9999999999",
             "--alphas", "2,1", "--db", "1"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert re.search(r"^equilibrium_check +PASS$", captured.out, re.MULTILINE)


class TestFig2Command:
    def test_curves(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        code = cli.main(
            ["fig2", "--c1", "4", "--c2", "11", "--demand", "8",
             "--alphas", "2,1", "--grid", "101", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "share_A,latency_A,latency_B,latency_no_tax"
        assert len(lines) == 102
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert math.isnan(float(first[1]))  # no class-A users at share 0
        assert math.isnan(float(last[2]))  # no class-B users at share 1
        for line in lines[1:]:
            assert float(line.split(",")[3]) == pytest.approx(0.285714, abs=1e-6)

    def test_curves_near_saturation(self, tmp_path, capsys):
        # 1e-11 below the combined capacity of 15, on the default grid.
        out = tmp_path / "fig2.csv"
        code = cli.main(
            ["fig2", "--c1", "4", "--c2", "11", "--demand", "14.99999999999",
             "--alphas", "2,1", "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().err == ""
        lines = out.read_text().splitlines()
        assert len(lines) == 102
        for line in lines[1:]:
            assert all(not math.isinf(float(v)) for v in line.split(","))


class TestSimulateCommand:
    def test_default_scenario_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert cli.main(["simulate", "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        stdout = capsys.readouterr().out
        assert "tax_threshold 4.36675042" in stdout

    def test_seed_override_changes_trace(self, tmp_path):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert cli.main(["simulate", "--out", str(out1), "--seed", "42"]) == 0
        assert cli.main(["simulate", "--out", str(out2), "--seed", "43"]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_unwritable_output_exit_3(self, capsys):
        code = cli.main(["simulate", "--out", "/no/such/dir/trace.csv"])
        assert code == 3

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("seed = 1", "seed = 1\nmax_handover_rounds = 0",
             "max_handover_rounds must be >= 1, got 0"),
            ("horizon = 200.0", "horizon = inf", "horizon must be finite, got inf"),
            # Each ran at horizon 60 before it was rejected: an infinite
            # rate never leaves the event loop, an infinite duration
            # crashed, and the others ran with handovers off or a nan PoA.
            ("arrival_rate = 3.0", "arrival_rate = inf",
             "arrival_rate must be finite and >= 0, got inf"),
            ("mean_duration = 4.0", "mean_duration = inf",
             "mean_duration must be finite and > 0, got inf"),
            ("throughput = 0.064", "throughput = nan",
             "throughput must be finite and > 0, got nan"),
            ("seed = 1", "seed = 1\nhandover_hysteresis = nan",
             "handover_hysteresis must be finite and >= 0, got nan"),
            ("seed = 1", "seed = 1\nhandover_hysteresis = inf",
             "handover_hysteresis must be finite and >= 0, got inf"),
            ("seed = 1", "seed = 1\nhandover_hysteresis = -1",
             "handover_hysteresis must be finite and >= 0, got -1.0"),
        ],
    )
    def test_non_terminating_scenario_exit_2(self, tmp_path, capsys, old, new, named):
        scn = tmp_path / "scn.ini"
        text = DEFAULT_SCENARIO.replace(old, new, 1)
        scn.write_text(text.replace("horizon = 200.0", "horizon = 60.0"))
        out = tmp_path / "trace.csv"
        assert cli.main(["simulate", "--scenario", str(scn), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_small_sweep(self, tmp_path, capsys):
        scn = tmp_path / "scn.ini"
        text = DEFAULT_SCENARIO.replace("horizon = 200.0", "horizon = 20.0")
        text = text.replace("warmup = 40.0", "warmup = 4.0")
        text = text.replace(
            "loads = 0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", "loads = 0.4"
        )
        text = text.replace("replications = 30", "replications = 2")
        scn.write_text(text)
        out = tmp_path / "summary.csv"
        code = cli.main(
            ["sweep", "--scenario", str(scn), "--out", str(out), "--jobs", "1"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "load,policy,handover,mean_poa,se_poa,blocking_rate,replications"
        assert len(lines) == 7  # 1 load x 2 handover x 3 policies
        assert "blocking 0.01 crossing" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        out = tmp_path / "summary.csv"
        assert cli.main(["sweep", "--out", str(out), "--jobs", jobs]) == 2
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_sweep_section_exit_2(self, tmp_path, capsys):
        scn = tmp_path / "scn.ini"
        scn.write_text(DEFAULT_SCENARIO.split("[sweep]")[0])
        assert cli.main(["sweep", "--scenario", str(scn), "--out", "x.csv"]) == 2


class TestInitCommand:
    def test_written_file_parses_back_identically(self, tmp_path):
        path = tmp_path / "scenario.ini"
        assert cli.main(["init", "--out", str(path)]) == 0
        assert load_scenario(path) == parse_scenario(DEFAULT_SCENARIO)


def test_entry_point_exits_with_the_command_status(tmp_path, monkeypatch):
    # cli.entry is what the installed ``nettax`` console script calls.
    path = tmp_path / "scenario.ini"
    monkeypatch.setattr("sys.argv", ["nettax", "init", "--out", str(path)])
    with pytest.raises(SystemExit) as exit_info:
        cli.entry()
    assert exit_info.value.code == 0
    assert path.read_text() == DEFAULT_SCENARIO
    monkeypatch.setattr("sys.argv", ["nettax", "sweep", "--jobs", "0"])
    with pytest.raises(SystemExit) as exit_info:
        cli.entry()
    assert exit_info.value.code == 2

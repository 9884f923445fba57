"""End-to-end smoke test of the experiment scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_base_experiment_writes_every_output(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_base_experiment.py"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    expected = {"analysis.csv", "latency_curves.csv"}
    for policy in ("none", "approx", "optimal"):
        expected |= {f"scenario_{policy}.ini", f"trace_{policy}.csv"}
    assert {p.name for p in tmp_path.iterdir()} == expected
    analysis = dict(
        line.split(",", 1) for line in (tmp_path / "analysis.csv").read_text().splitlines()
    )
    assert analysis["equilibrium_check"] == "PASS"
    assert (tmp_path / "scenario_optimal.ini").read_text().count("policy = optimal") == 1
    for policy in ("none", "approx", "optimal"):
        assert done.stdout.count(f"trace: {tmp_path / f'trace_{policy}.csv'} (") == 1
    assert len((tmp_path / "latency_curves.csv").read_text().splitlines()) == 202

"""End-to-end smoke tests of the scripts under ``scripts/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_base_experiment_writes_every_output(tmp_path):
    done = run_script("run_base_experiment.py", str(tmp_path))
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


def fingerprint_cells(text: str) -> list[str]:
    """The cell names of fingerprint output, without raise counts."""
    cells = []
    for line in text.splitlines():
        name, digest = line.rsplit(" ", 1)
        assert re.fullmatch(r"[0-9a-f]{64}", digest), line
        cells.append(re.sub(r" raised=\d+$", "", name))
    return cells


def test_fingerprint_small_run_covers_the_committed_cells():
    done = run_script("fingerprint.py", "--small")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    cells = fingerprint_cells(done.stdout)
    # Simulator, solver and class-latency cells.
    assert len(cells) == len(set(cells)) == 3 * 2 * 5 + 5 * 2 + 5
    # The committed full-size fingerprint names the same cells in order.
    assert fingerprint_cells((ROOT / "tests" / "fingerprint.txt").read_text()) == cells

"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                            [--seconds 15]

Runs ``bench/run.py`` once per seed (first-seed, first-seed + 1, ...),
one run at a time, and prints for each metric, and for the wall-clock
item rate that the runs report on their ``info:`` line, the median, the
quartiles and the spread (Q3 - Q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them. Also prints the share
of failed operations per run.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")

    values: dict[str, list[float]] = {}
    fail_shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, check=True,
        )
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: outputs failed the checks", file=sys.stderr)
            return 1
        fail_shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        wall = re.search(r"wall items/s (\S+)", "\n".join(lines[:-1]))
        values.setdefault("wall_items_per_s", []).append(float(wall.group(1)))
        print(f"seed {seed}: " + ", ".join(f"{k} {v[-1]:.6g}" for k, v in values.items()),
              file=sys.stderr)
    report = {name: spread(v) for name, v in values.items()}
    report["failed_share"] = sorted(fail_shares)
    print(json.dumps({"workload": args.workload, "runs": args.runs, **report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

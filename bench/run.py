"""Benchmark of the nettax toolkit.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; ``nettax`` is imported from its
``src`` directory, and the command fails without a result if it is not
there. Workloads are listed in ``BENCHMARK.json`` and described in
``bench/README.md``.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``setup_s``: CPU seconds to import ``nettax`` and build round 0's
  inputs, the median of several fresh interpreters;
- ``items_per_s``: work items per CPU-second of the timed part, counting
  this process and any child process it reaped;
- ``peak_rss_mb``: peak resident memory of this process at the end of
  the timed part.

With ``--trace 1`` it measures untraced for half of ``--seconds`` and
traced for the other half, reports the per-layer metrics and writes the
span table, counters and wall times to ``bench/out/``.

The timed part runs whole rounds until ``--seconds`` of wall time have
been spent in it; each round's outputs are checked between rounds. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_PROBES = 7
MAX_ERRORS_SHOWN = 20


def cpu_seconds() -> float:
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="time the set-up in this interpreter and exit (used by the probes)",
    )
    return p.parse_args(argv)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, so that the import
    of ``nettax`` is not already done."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure(wl, seconds: float):
    """Run whole rounds until ``seconds`` of wall time were spent in the
    timed calls. Returns totals, round 0's (inputs, outputs) and the
    messages of every failed check."""
    tot = dict(rounds=0, items=0, attempted=0, failed=0, cpu_s=0.0, wall_s=0.0)
    first = None
    errors: list[str] = []
    while tot["wall_s"] < seconds:
        inputs = wl.inputs(tot["rounds"])
        c0, w0 = cpu_seconds(), time.perf_counter()
        outputs, items, attempted, failed = wl.run_round(inputs)
        c1, w1 = cpu_seconds(), time.perf_counter()
        tot["cpu_s"] += c1 - c0
        tot["wall_s"] += w1 - w0
        tot["items"] += items
        tot["attempted"] += attempted
        tot["failed"] += failed
        if failed:
            print(f"round {tot['rounds']}: {failed} of {attempted} operations failed",
                  file=sys.stderr)
        errors += wl.check_round(inputs, outputs)
        if first is None:
            first = (inputs, outputs)
        tot["rounds"] += 1
    return tot, first, errors


def layer_metrics(tr, acc, timed_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced measurement."""
    timed_ns = timed_wall_s * 1e9
    events = acc["events"]
    checks = tr.counts["simulator._wants_switch"]

    def share(*names, parent=...):
        return sum(tr.total_ns(n, parent) for n in names) / timed_ns

    def per(num, den):
        return num / den if den else 0.0

    def us_per_call(name):
        return per(tr.total_ns(name) / 1e3, tr.calls(name))

    return {
        "simulator.handover_relaxation.share": share("simulator.handover_relaxation"),
        "simulator.handover.checks_per_event": per(checks, events),
        "simulator.handover.switch_yield": per(acc["switches"], checks),
        "simulator.handover.not_converged": acc["not_converged"],
        "simulator.current_tax.calls_per_event": per(tr.calls("simulator.current_tax"), events),
        "simulator.current_tax.share": share("simulator.current_tax"),
        "simulator.choose_network.share": share("simulator.choose_network"),
        "simulator.metrics.share": share(
            "analytics.total_cost", "analytics.optimal_cost", parent="simulator.run"
        ),
        "simulator.run.self_share": tr.self_ns("simulator.run") / timed_ns,
        "simulator.write_trace_csv.share": share("simulator.write_trace_csv"),
        "simulator.sweep_load.self_share": tr.self_ns("simulator.sweep_load") / timed_ns,
        "scenario.parse_scenario.ms": per(
            tr.total_ns("scenario.parse_scenario") / 1e6, tr.calls("scenario.parse_scenario")
        ),
        "analytics.optimal_tax.us_per_call": us_per_call("analytics.optimal_tax"),
        "analytics.optimal_assignment.us_per_call": us_per_call("analytics.optimal_assignment"),
        "analytics.optimal_cost.us_per_call": us_per_call("analytics.optimal_cost"),
        "equilibrium.taxed_equilibrium.us_per_call": us_per_call("equilibrium.taxed_equilibrium"),
        "equilibrium.candidates_per_solve": per(
            tr.counts["equilibrium._report"], tr.calls("equilibrium.taxed_equilibrium")
        ),
        "equilibrium.fallback_calls": tr.counts["equilibrium._bisect_gap"],
        "equilibrium.class_latencies.us_per_call": us_per_call("equilibrium.class_latencies"),
    }


def traced_run(wl, modules, seconds: float):
    from tracer import Tracer

    plain, first, errors = measure(wl, seconds / 2)
    acc = {"events": 0, "switches": 0, "not_converged": 0}

    def on_run(trace):
        acc["events"] += len(trace.samples)

    def on_relaxation(result):
        switches, converged = result
        acc["switches"] += switches
        acc["not_converged"] += not converged

    tr = Tracer(modules, hooks={"simulator.run": on_run,
                                "simulator.handover_relaxation": on_relaxation})
    tr.install()
    try:
        traced, _, traced_errors = measure(wl, seconds / 2)
    finally:
        tr.uninstall()
    errors += traced_errors

    metrics = layer_metrics(tr, acc, traced["wall_s"])
    metrics["simulator.sweep_load.pool_speedup_2w"] = 0.0
    if hasattr(wl, "pool_speedup"):
        metrics["simulator.sweep_load.pool_speedup_2w"] = wl.pool_speedup(first[0])
    metrics["trace.overhead"] = (plain["items"] / plain["cpu_s"]) / (
        traced["items"] / traced["cpu_s"]
    )
    report = {
        "workload": wl.name,
        "seed": wl.seed,
        "untraced": plain,
        "traced": traced,
        "events": acc,
        "counters": dict(tr.counts),
        "spans": tr.table(),
        "per_layer": metrics,
    }
    path = OUT / f"trace-{wl.name}-seed{wl.seed}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"trace report: {path.relative_to(ROOT)}")
    totals = {k: plain[k] + traced[k] for k in ("attempted", "failed")}
    return metrics, totals, first, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (SRC / "nettax" / "__init__.py").is_file():
        print(f"error: no nettax package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    import workloads

    make = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        t0 = time.process_time()
        make(args.seed, OUT)
        print(json.dumps({"setup_s": time.process_time() - t0}))
        return 0

    setup_s = statistics.median(
        setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)
    )
    wl = make(args.seed, OUT)
    import nettax
    from nettax import analytics, cli, equilibrium, scenario, simulator

    if Path(nettax.__file__).resolve().parent != SRC / "nettax":
        print(f"error: imported nettax from {nettax.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        modules = {"scenario": scenario, "cli": cli, "simulator": simulator,
                   "analytics": analytics, "equilibrium": equilibrium}
        metrics, totals, first, errors = traced_run(wl, modules, args.seconds)
        wanted = spec["per_layer"]
    else:
        tot, first, errors = measure(wl, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        totals = tot
        metrics = {
            "setup_s": setup_s,
            "items_per_s": tot["items"] / tot["cpu_s"],
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
        print(
            f"info: {tot['rounds']} rounds, {tot['items']} items, "
            f"{tot['cpu_s']:.3f} CPU s, {tot['wall_s']:.3f} wall s, "
            f"wall items/s {tot['items'] / tot['wall_s']:.6g}"
        )
    errors += wl.final_check(*first)
    for msg in errors[:MAX_ERRORS_SHOWN]:
        print(f"check failed: {msg}", file=sys.stderr)
    if len(errors) > MAX_ERRORS_SHOWN:
        print(f"... {len(errors) - MAX_ERRORS_SHOWN} more", file=sys.stderr)

    names = [m["name"] for m in wanted]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {names}")
    result = {
        "correct": not errors,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

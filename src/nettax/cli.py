"""Command-line front end.

Subcommands:
    analyze   closed-form equilibrium, optimum and tax for one demand point
    fig2      per-class latency curves vs the class-A demand share (CSV)
    simulate  one discrete-event trajectory, trace CSV + summary line
    sweep     policy x handover x load replication matrix, summary CSV
    init      write the default scenario file

Exit codes: 0 success, 2 invalid parameters, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import analytics, equilibrium, scenario, simulator
from .analytics import Demand, NetworkPair, Sensitivities

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


def _fmt(x: float) -> str:
    return format(x, ".9g")


def _parse_alphas(text: str) -> Sensitivities:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--alphas expects 'alpha_A,alpha_B', got '{text}'")
    return Sensitivities(float(parts[0]), float(parts[1]))


def _cmd_analyze(args) -> int:
    net = NetworkPair(args.c1, args.c2)
    sens = _parse_alphas(args.alphas)
    demand_total = args.demand
    f_we = analytics.wardrop_no_tax(net, demand_total)
    f_opt = analytics.optimal_assignment(net, demand_total)
    c_we = analytics.total_cost(net, f_we)
    c_opt = analytics.optimal_cost(net, demand_total)
    threshold = net.tax_threshold()

    lines = [(key, _fmt(value)) for key, value in (
        ("c1", net.c1), ("c2", net.c2), ("D", demand_total), ("threshold", threshold),
        ("f_WE_1", f_we.f1), ("f_WE_2", f_we.f2), ("f_opt_1", f_opt.f1), ("f_opt_2", f_opt.f2),
        ("C_WE", c_we), ("C_opt", c_opt),
    )]
    lines.append(("PoA_no_tax", _fmt(c_we / c_opt) if c_opt > 0 else "1"))

    if args.db is not None:
        if args.db > demand_total:
            raise ValueError(f"--db {args.db} exceeds total demand {demand_total}")
        dem = Demand(demand_total - args.db, args.db)
        tau2, alpha = analytics._tau2(
            net, dem.total(), dem.d_b, sens.alpha_a, sens.alpha_b
        )
        branch = {None: "none", sens.alpha_a: "alpha_A", sens.alpha_b: "alpha_B"}
        lines.append(("tau2", _fmt(tau2)))
        lines.append(("tau2_branch", branch[alpha]))
        ok, (df1, df2) = equilibrium.verify_proposition1(net, dem, sens, tol=1e-6)
        lines.append(("equilibrium_check", "PASS" if ok else "FAIL"))
        lines.append(("flow_discrepancy_1", _fmt(df1)))
        lines.append(("flow_discrepancy_2", _fmt(df2)))
    elif demand_total <= threshold:
        lines.append(("tau2", "0"))
        lines.append(("note", f"below threshold {_fmt(threshold)}: no tax necessary"))

    width = max(len(k) for k, _ in lines)
    for key, value in lines:
        print(f"{key:<{width}}  {value}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write("key,value\n")
            for key, value in lines:
                fh.write(f"{key},{value}\n")
    return EXIT_OK


def _cmd_fig2(args) -> int:
    net = NetworkPair(args.c1, args.c2)
    sens = _parse_alphas(args.alphas)
    if args.grid < 2:
        raise ValueError(f"--grid must be >= 2, got {args.grid}")
    rows = []
    for k in range(args.grid):
        share_a = k / (args.grid - 1)
        lat_a, lat_b, lat_ref = equilibrium.class_latencies(
            net, args.demand, share_a, sens
        )
        rows.append((share_a, lat_a, lat_b, lat_ref))
    with open(args.out, "w", newline="") as fh:
        fh.write("share_A,latency_A,latency_B,latency_no_tax\n")
        for share_a, lat_a, lat_b, lat_ref in rows:
            fh.write(
                f"{_fmt(share_a)},{_fmt(lat_a)},{_fmt(lat_b)},{_fmt(lat_ref)}\n"
            )
    print(f"wrote {args.grid} rows to {args.out}")
    return EXIT_OK


def _load_scenario(args) -> scenario.Scenario:
    if args.scenario:
        scn = scenario.load_scenario(args.scenario)
    else:
        scn = scenario.parse_scenario(scenario.DEFAULT_SCENARIO)
    if args.seed is not None:
        scn = dataclasses.replace(scn, sim=dataclasses.replace(scn.sim, seed=args.seed))
    return scn


def _cmd_simulate(args) -> int:
    scn = _load_scenario(args)
    # Rows are written as the events happen, so memory does not grow with
    # the horizon.
    with open(args.out, "w", newline="") as fh:
        fh.write(simulator.TRACE_HEADER + "\n")
        write, row = fh.write, simulator.TRACE_ROW
        blocking, s = simulator.simulate(scn.sim, lambda sample: write(row % sample))
    print(f"trace: {args.out} ({s.events} events)")
    print(f"avg_poa {_fmt(s.avg_poa)}")
    print(f"blocking_rate {_fmt(blocking.rate)}")
    print(f"tax_threshold {_fmt(scn.sim.net.tax_threshold())}")
    if s.relaxation_warnings:
        print(f"relaxation_warnings {s.relaxation_warnings}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    scn = _load_scenario(args)
    if scn.sweep is None:
        raise ValueError("scenario has no [sweep] section")
    rows = simulator.sweep_load(
        scn.sim,
        loads=list(scn.sweep.loads),
        ratio=scn.sweep.ratio,
        replications=scn.sweep.replications,
        max_workers=args.jobs,
    )
    simulator.write_summary_csv(rows, args.out)
    print(f"summary: {args.out} ({len(rows)} rows)")
    for handover in (True, False):
        points = simulator.pooled_blocking_by_load(rows, handovers=handover)
        if not points:
            continue
        tag = "handover" if handover else "no-handover"
        for level in (0.001, 0.01, 0.05):
            crossing = simulator.blocking_crossing(points, level)
            shown = _fmt(crossing) if crossing is not None else "not reached"
            print(f"blocking {level:g} crossing ({tag}): {shown}")
    return EXIT_OK


def _cmd_init(args) -> int:
    with open(args.out, "w") as fh:
        fh.write(scenario.DEFAULT_SCENARIO)
    print(f"wrote {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nettax",
        description="Equilibria, optimal flows and incentive taxes for "
        "two-class selfish selection between two parallel networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_closed_form_args(p):
        p.add_argument("--c1", type=float, required=True, help="capacity of network 1")
        p.add_argument("--c2", type=float, required=True, help="capacity of network 2")
        p.add_argument("--demand", type=float, required=True, help="total demand D")
        p.add_argument(
            "--alphas", required=True, help="tax sensitivities 'alpha_A,alpha_B'"
        )

    p = sub.add_parser("analyze", help="closed-form analysis of one demand point")
    add_closed_form_args(p)
    p.add_argument("--db", type=float, default=None, help="class-B demand (enables tax)")
    p.add_argument("--csv", default=None, help="also write the table as CSV")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fig2", help="per-class latency curves vs class-A share (CSV)")
    add_closed_form_args(p)
    p.add_argument("--grid", type=int, default=101, help="number of share_A points")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("simulate", help="run one trajectory, write the trace CSV")
    p.add_argument("--scenario", default=None, help="scenario file (default: built-in)")
    p.add_argument("--out", default="trace.csv", help="trace CSV path")
    p.add_argument("--seed", default=None, help="override the scenario seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run the load sweep, write the summary CSV")
    p.add_argument("--scenario", default=None, help="scenario file (default: built-in)")
    p.add_argument("--out", default="summary.csv", help="summary CSV path")
    p.add_argument("--seed", default=None, help="override the scenario seed")
    p.add_argument("--jobs", type=int, default=None, help="parallel worker processes")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("init", help="write the default scenario file")
    p.add_argument("--out", default="scenario.ini", help="destination path")
    p.set_defaults(func=_cmd_init)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, scenario.ScenarioError, equilibrium.NoEquilibriumFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

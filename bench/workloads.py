"""The benchmark's three workloads.

Each workload builds its inputs from the seed alone, in rounds: round r
draws fresh inputs from ``"{seed}/{r}"`` so that no round repeats another
and a result cache inside the program cannot turn later rounds into
look-ups. A workload offers

- ``inputs(r)``: round r's inputs, built outside the timed part;
- ``run_round(inputs)``: the timed calls into ``nettax``, returning
  (outputs, items, attempted, failed);
- ``check_round(inputs, outputs)``: checks of that round's outputs;
- ``final_check(inputs, outputs)``: costlier checks of round 0, run once
  after the timed part.

``nettax`` is imported when a workload is built, so that the import is
part of the measured set-up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import re
import time
from pathlib import Path

import checks

NET = (4.0, 11.0)
# (arrival rate, mean duration, throughput, alpha) of the base scenario.
CLASS_A = (3.0, 4.0, 0.064, 2.0)
CLASS_B = (4.5, 2.5, 0.184, 1.0)
RATIO = 2 / 3  # the base scenario's own lambda_A / lambda_B
HYSTERESIS = 1e-6


def arrival_rates(load: float) -> tuple[float, float]:
    """(lambda_A, lambda_B) offering ``load`` x (c1 + c2) at RATIO."""
    per_b = RATIO * CLASS_A[1] * CLASS_A[2] + CLASS_B[1] * CLASS_B[2]
    lam_b = load * sum(NET) / per_b
    return RATIO * lam_b, lam_b


class SweepHandover:
    """``simulator.sweep_load`` with one worker, handovers on, all three
    policies, from below the tax threshold (load 0.29) to the onset of
    blocking (about 0.8). One item is one cell-replication."""

    name = "sweep-handover"
    LOADS = (0.25, 0.4, 0.55, 0.7, 0.8)
    REPLICATIONS = 1
    HORIZON = 30.0
    WARMUP = 6.0

    def __init__(self, seed: int, outdir: Path):
        from nettax import analytics, simulator

        self.analytics = analytics
        self.simulator = simulator
        self.seed = seed
        self.inputs(0)

    def inputs(self, r: int):
        sim = self.simulator
        return sim.SimConfig(
            net=self.analytics.NetworkPair(*NET),
            class_a=sim.ClassProfile(*CLASS_A),
            class_b=sim.ClassProfile(*CLASS_B),
            handovers=True,
            policy=sim.TaxPolicy.NONE,
            horizon=self.HORIZON,
            warmup=self.WARMUP,
            seed=f"{self.seed}/{r}",
            handover_hysteresis=HYSTERESIS,
        )

    def run_round(self, base, max_workers: int = 1):
        n = len(self.LOADS) * len(self.simulator.TaxPolicy) * self.REPLICATIONS
        try:
            rows = self.simulator.sweep_load(
                base,
                list(self.LOADS),
                RATIO,
                self.REPLICATIONS,
                handover_settings=(True,),
                max_workers=max_workers,
            )
        except Exception as exc:  # counted as failed operations
            return exc, 0, n, n
        return rows, n, n, 0

    def check_round(self, base, rows) -> list[str]:
        if isinstance(rows, Exception):
            return []
        errs = []
        cells = {(r.load, r.policy.value, r.handovers) for r in rows}
        want = {(x, p, True) for x in self.LOADS for p in ("none", "approx", "optimal")}
        if cells != want or len(rows) != len(want):
            errs.append(f"sweep cells {sorted(cells)} != {sorted(want)}")
        for r in rows:
            poas = r.poa_values
            if r.replications != self.REPLICATIONS or len(poas) != self.REPLICATIONS:
                errs.append(f"cell {r.load}/{r.policy.value}: {len(poas)} replications")
                continue
            if min(poas) < 1 - 1e-9 or not all(map(math.isfinite, poas)):
                errs.append(f"cell {r.load}/{r.policy.value}: PoA values {poas}")
            if not math.isclose(r.mean_poa, sum(poas) / len(poas), rel_tol=1e-12):
                errs.append(f"cell {r.load}/{r.policy.value}: mean_poa {r.mean_poa}")
            if not 0.0 <= r.blocking_rate <= 1.0:
                errs.append(f"cell {r.load}/{r.policy.value}: blocking {r.blocking_rate}")
        return errs

    def pool_speedup(self, base) -> float:
        """Wall time of the same sweep at one worker over two workers,
        summed over two alternating pairs."""
        walls = {1: 0.0, 2: 0.0}
        for workers in (1, 2, 1, 2):
            t0 = time.perf_counter()
            self.run_round(base, max_workers=workers)
            walls[workers] += time.perf_counter() - t0
        return walls[1] / walls[2]

    def final_check(self, base, rows) -> list[str]:
        """Re-run replication 0 of every cell with ``run()``, audit its
        trace, and match its PoA and blocking to the sweep's row."""
        if isinstance(rows, Exception):
            return []
        sim = self.simulator
        errs = []
        for row in rows:
            cfg = sim.replication_config(base, row.load, RATIO, row.policy, True, 0)
            lam_a, lam_b = arrival_rates(row.load)
            if not (math.isclose(cfg.class_a.arrival_rate, lam_a, rel_tol=1e-12)
                    and math.isclose(cfg.class_b.arrival_rate, lam_b, rel_tol=1e-12)):
                errs.append(f"cell {row.load}: arrival rates {cfg.class_a.arrival_rate}, "
                            f"{cfg.class_b.arrival_rate} != {lam_a}, {lam_b}")
            trace = sim.run(cfg)
            errs += audit(trace_auditor(cfg), trace_rows(trace), trace.summary.avg_poa,
                          trace.blocking.rate, f"cell {row.load}/{row.policy.value}")
            if trace.summary.avg_poa != row.poa_values[0]:
                errs.append(f"cell {row.load}/{row.policy.value}: rerun PoA "
                            f"{trace.summary.avg_poa} != sweep {row.poa_values[0]}")
            if self.REPLICATIONS == 1 and trace.blocking.rate != row.blocking_rate:
                errs.append(f"cell {row.load}/{row.policy.value}: rerun blocking "
                            f"{trace.blocking.rate} != sweep {row.blocking_rate}")
        return errs


def trace_auditor(cfg, rtol: float = 1e-9) -> checks.TraceAuditor:
    return checks.TraceAuditor(
        cfg.net.c1,
        cfg.net.c2,
        (cfg.class_a.throughput, cfg.class_b.throughput),
        (cfg.class_a.alpha, cfg.class_b.alpha),
        policy=cfg.policy.value,
        handovers=cfg.handovers,
        hysteresis=cfg.handover_hysteresis,
        warmup=cfg.warmup,
        horizon=cfg.horizon,
        rtol=rtol,
    )


def trace_rows(trace):
    for s in trace.samples:
        yield (s.t, s.load, s.tau2, s.cost, s.cost_opt, s.poa,
               s.n1a, s.n1b, s.n2a, s.n2b, s.event)


def audit(auditor, rows, avg_poa, blocking_rate, where: str) -> list[str]:
    for row in rows:
        auditor.row(*row)
    errs = auditor.finish(avg_poa, blocking_rate)
    return [f"{where}: {e}" for e in errs]


class TraceNoHandover:
    """One long ``nettax simulate`` through ``cli.main``, in process:
    OPTIMAL policy, handovers off, load 0.7 (tax active almost always),
    trace CSV written. One item is one simulated event (one trace row)."""

    name = "trace-no-handover"
    LOAD = 0.7
    HORIZON = 600.0
    WARMUP = 60.0
    HEADER = ["t", "D", "tau2", "C", "C_opt", "PoA", "n1A", "n1B", "n2A", "n2B", "event"]

    def __init__(self, seed: int, outdir: Path):
        from nettax import cli

        self.cli = cli
        self.seed = seed
        self.scenario_path = outdir / f"{self.name}.ini"
        self.csv_path = outdir / f"{self.name}.csv"
        self.inputs(0)

    def inputs(self, r: int) -> int:
        lam_a, lam_b = arrival_rates(self.LOAD)
        scenario_seed = self.seed * 1000 + r
        self.scenario_path.write_text(
            f"""[network]
c1 = {NET[0]!r}
c2 = {NET[1]!r}

[class_a]
arrival_rate = {lam_a!r}
mean_duration = {CLASS_A[1]!r}
throughput = {CLASS_A[2]!r}
alpha = {CLASS_A[3]!r}

[class_b]
arrival_rate = {lam_b!r}
mean_duration = {CLASS_B[1]!r}
throughput = {CLASS_B[2]!r}
alpha = {CLASS_B[3]!r}

[sim]
policy = optimal
handovers = false
horizon = {self.HORIZON!r}
warmup = {self.WARMUP!r}
seed = {scenario_seed}
handover_hysteresis = {HYSTERESIS!r}
"""
        )
        return scenario_seed

    def run_round(self, scenario_seed: int):
        argv = ["simulate", "--scenario", str(self.scenario_path), "--out", str(self.csv_path)]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
        except Exception as exc:  # counted as a failed operation
            return exc, 0, 1, 1
        text = out.getvalue()
        match = re.search(r"\((\d+) events\)", text)
        if code != 0 or match is None:
            return text, 0, 1, 1
        return text, int(match.group(1)), 1, 0

    def check_round(self, scenario_seed: int, text) -> list[str]:
        if not isinstance(text, str):
            return []
        where = f"scenario seed {scenario_seed}"
        summary = dict(
            line.split(" ", 1) for line in text.splitlines() if not line.startswith("trace:")
        )
        events = int(re.search(r"\((\d+) events\)", text).group(1))
        thr = checks.threshold(*NET)
        errs = []
        if not math.isclose(float(summary["tax_threshold"]), thr, rel_tol=1e-8):
            errs.append(f"{where}: tax_threshold {summary['tax_threshold']} != {thr}")
        auditor = checks.TraceAuditor(
            *NET, (CLASS_A[2], CLASS_B[2]), (CLASS_A[3], CLASS_B[3]),
            policy="optimal", handovers=False, hysteresis=HYSTERESIS,
            warmup=self.WARMUP, horizon=self.HORIZON, rtol=1e-7,
        )
        with open(self.csv_path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != self.HEADER:
                return [f"{where}: trace header {header}"]
            rows = (
                (float(t), float(d), float(tau2), float(c), float(c_opt), float(poa),
                 int(n1a), int(n1b), int(n2a), int(n2b), event)
                for t, d, tau2, c, c_opt, poa, n1a, n1b, n2a, n2b, event in reader
            )
            errs += audit(auditor, rows, float(summary["avg_poa"]),
                          float(summary["blocking_rate"]), where)
        if auditor.rows != events:
            errs.append(f"{where}: {auditor.rows} trace rows, simulate reported {events}")
        return errs

    def final_check(self, scenario_seed, text) -> list[str]:
        return []


class ClosedForm:
    """Seeded random instances through the closed forms and the solver.
    One item is one instance taken through optimal_assignment,
    optimal_cost, optimal_tax, taxed_equilibrium (optimal and arbitrary
    tax) and class_latencies."""

    name = "closed-form"
    INSTANCES = 1200
    # Every round holds instances of each kind, in turn.
    KINDS = ("below", "branch-a", "branch-b", "empty-class", "at-threshold", "tiny-dtau")

    def __init__(self, seed: int, outdir: Path):
        from nettax import analytics, equilibrium

        self.analytics = analytics
        self.equilibrium = equilibrium
        self.seed = seed
        self.inputs(0)

    def _instance(self, rng: random.Random, kind: str, k: int):
        c1 = rng.uniform(0.5, 5.0)
        c2 = c1 + rng.uniform(0.1, 8.0)
        thr = checks.threshold(c1, c2)
        top = 0.98 * (c1 + c2)
        if kind == "below":
            demand = rng.uniform(0.0, 1.0) * thr
        elif kind == "at-threshold":
            demand = thr * (1.0 + rng.uniform(-1.0, 1.0) * 1e-12)
        else:
            demand = rng.uniform(thr, top)
        f2_opt = checks.optimum(c1, c2, demand)[1]
        if kind == "branch-a":
            d_b = rng.uniform(0.0, 1.0) * min(f2_opt, demand)
        elif kind == "branch-b":
            d_b = f2_opt + rng.uniform(0.01, 1.0) * (demand - f2_opt)
        elif kind == "empty-class":
            d_b = demand if k % 2 else 0.0
        else:
            d_b = rng.uniform(0.0, 1.0) * demand
        d_a = demand - d_b
        alpha_b = rng.uniform(0.2, 3.0)
        alpha_a = alpha_b * rng.uniform(1.05, 5.0)
        tau1 = rng.choice((0.0, rng.uniform(1e-6, 1.0)))
        if kind == "tiny-dtau":
            dtau = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-13.0, -7.0)
            tau1 = max(tau1, 1e-6)
        else:
            dtau = rng.uniform(-0.5, 2.0) / c1
            tau1 = max(tau1, -dtau)
        tau2 = max(tau1 + dtau, 0.0)
        total = d_a + d_b
        share_a = d_a / total if total > 0 else 0.5
        return (c1, c2, d_a, d_b, alpha_a, alpha_b, tau1, tau2, share_a)

    def inputs(self, r: int):
        a = self.analytics
        rng = random.Random(f"{self.seed}/{r}")
        out = []
        for k in range(self.INSTANCES):
            kind = self.KINDS[k % len(self.KINDS)]
            p = self._instance(rng, kind, k // len(self.KINDS))
            c1, c2, d_a, d_b, alpha_a, alpha_b, tau1, tau2, share_a = p
            out.append((
                a.NetworkPair(c1, c2), a.Demand(d_a, d_b), d_a + d_b,
                a.Sensitivities(alpha_a, alpha_b), a.TaxVector(tau1, tau2), share_a, p,
            ))
        return out

    def run_round(self, instances):
        a, e = self.analytics, self.equilibrium
        out = []
        failed = 0
        for net, dem, demand, sens, arbitrary, share_a, _ in instances:
            try:
                tax = a.optimal_tax(net, dem, sens)
                out.append((
                    a.optimal_assignment(net, demand),
                    a.optimal_cost(net, demand),
                    tax,
                    e.taxed_equilibrium(net, dem, sens, tax),
                    e.taxed_equilibrium(net, dem, sens, arbitrary),
                    e.class_latencies(net, demand, share_a, sens),
                ))
            except Exception as exc:  # counted as a failed operation
                failed += 1
                out.append(exc)
        return out, len(instances) - failed, len(instances), failed

    def check_round(self, instances, outputs) -> list[str]:
        errs = []
        seen = set()
        for k, (inst, res) in enumerate(zip(instances, outputs)):
            c1, c2, d_a, d_b, alpha_a, alpha_b, tau1, tau2, share_a = inst[-1]
            if isinstance(res, Exception):
                continue
            demand = d_a + d_b
            thr = checks.threshold(c1, c2)
            f2_opt = checks.optimum(c1, c2, demand)[1]
            seen.add("below" if demand <= thr else
                     ("branch-a" if d_b <= f2_opt else "branch-b"))
            if d_a == 0 or d_b == 0:
                seen.add("empty-class")
            if abs(demand - thr) <= 1e-9 * thr:
                seen.add("at-threshold")
            if 0 < abs(tau2 - tau1) < 1e-6:
                seen.add("tiny-dtau")
            opt, cost, tax, rep_opt, rep_arb, lats = res
            e = checks.check_optimal_split(c1, c2, demand, opt.f1, opt.f2, cost)
            for (t1, t2), rep in (((tax.tau1, tax.tau2), rep_opt), ((tau1, tau2), rep_arb)):
                s = rep.split
                e += checks.check_latencies(c1, c2, s.f1, s.f2, rep.latencies)
                e += checks.check_equilibrium(
                    c1, c2, alpha_a, alpha_b, t1, t2, d_a, d_b,
                    (s.f1_a, s.f1_b, s.f2_a, s.f2_b),
                )
            e += checks.check_proposition1(
                c1, c2, d_a, d_b, tax.tau1, tax.tau2, rep_opt.split.f1, rep_opt.split.f2
            )
            e += checks.check_class_latencies(c1, c2, demand, share_a, lats)
            errs += [f"instance {k} {inst[-1]}: {msg}" for msg in e]
        missing = set(self.KINDS) - seen
        if missing:
            errs.append(f"round covers no instance of {sorted(missing)}")
        return errs

    def final_check(self, instances, outputs) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (SweepHandover, TraceNoHandover, ClosedForm)}

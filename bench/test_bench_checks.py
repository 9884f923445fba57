"""The benchmark's reference checks accept real output and reject each
kind of corruption: a changed count, tau2, cost, flow split or summary
value.

    python3 -m pytest bench/test_bench_checks.py
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from nettax import analytics, equilibrium, simulator  # noqa: E402

NET = analytics.NetworkPair(4.0, 11.0)
SENS = analytics.Sensitivities(2.0, 1.0)


def sim_config(policy="optimal", handovers=True, load=0.7, seed=5, horizon=40.0):
    lam_a, lam_b = workloads.arrival_rates(load)
    return simulator.SimConfig(
        net=NET,
        class_a=simulator.ClassProfile(lam_a, *workloads.CLASS_A[1:]),
        class_b=simulator.ClassProfile(lam_b, *workloads.CLASS_B[1:]),
        handovers=handovers,
        policy=simulator.TaxPolicy(policy),
        horizon=horizon,
        warmup=8.0,
        seed=seed,
    )


def audit(cfg, rows, avg_poa, blocking_rate):
    auditor = workloads.trace_auditor(cfg)
    return workloads.audit(auditor, rows, avg_poa, blocking_rate, "test")


def any_mentions(errors, word):
    return any(word in e for e in errors)


@pytest.fixture(scope="module", params=[True, False], ids=["handovers", "no-handovers"])
def simulated(request):
    cfg = sim_config(handovers=request.param)
    trace = simulator.run(cfg)
    rows = [list(r) for r in workloads.trace_rows(trace)]
    return cfg, rows, trace.summary.avg_poa, trace.blocking.rate


def first_row(rows, pred):
    return next(k for k, r in enumerate(rows) if k > 0 and pred(r))


def consistent(cfg, row, counts):
    """Row with new counts and load, cost, optimal cost and PoA recomputed
    from them, so only checks that look past the row itself can fail."""
    n1a, n1b, n2a, n2b = counts
    eps_a, eps_b = cfg.class_a.throughput, cfg.class_b.throughput
    f1, f2 = n1a * eps_a + n1b * eps_b, n2a * eps_a + n2b * eps_b
    cost = checks.link_cost(NET.c1, f1) + checks.link_cost(NET.c2, f2)
    opt = checks.optimum_cost(NET.c1, NET.c2, f1 + f2)
    return [row[0], f1 + f2, row[2], cost, opt, cost / opt, n1a, n1b, n2a, n2b, row[10]]


@pytest.mark.parametrize("policy", ["none", "approx", "optimal"])
@pytest.mark.parametrize("handovers", [True, False])
def test_auditor_accepts_real_traces(policy, handovers):
    cfg = sim_config(policy=policy, handovers=handovers, load=0.8)
    trace = simulator.run(cfg)
    auditor = workloads.trace_auditor(cfg)
    errors = workloads.audit(auditor, workloads.trace_rows(trace), trace.summary.avg_poa,
                             trace.blocking.rate, "test")
    assert errors == []
    assert auditor.rows == len(trace.samples) > 100
    if handovers:
        assert auditor.group_checks > 0


def test_auditor_rejects_changed_count(simulated):
    cfg, rows, avg_poa, rate = simulated
    rows = [list(r) for r in rows]
    k = len(rows) // 2
    rows[k][8] += 1
    assert any_mentions(audit(cfg, rows, avg_poa, rate), "counts x throughput")


def test_auditor_rejects_changed_tau2(simulated):
    cfg, rows, avg_poa, rate = simulated
    k = first_row(rows, lambda r: r[2] > 0)
    for factor, word in ((1.5, "marginal class"), (0.0, "threshold")):
        bad = [list(r) for r in rows]
        bad[k][2] *= factor
        assert any_mentions(audit(cfg, bad, avg_poa, rate), word)


def test_auditor_rejects_changed_cost(simulated):
    cfg, rows, avg_poa, rate = simulated
    k = len(rows) // 3
    for col, word in ((3, "cost from counts"), (4, "own optimum"), (5, "cost ratio")):
        bad = [list(r) for r in rows]
        bad[k][col] *= 1.001
        assert any_mentions(audit(cfg, bad, avg_poa, rate), word)


def test_auditor_rejects_changed_summary(simulated):
    cfg, rows, avg_poa, rate = simulated
    assert any_mentions(audit(cfg, rows, avg_poa * (1 + 1e-6), rate), "avg_poa")
    assert any_mentions(audit(cfg, rows, avg_poa, rate + 0.01), "blocking_rate")


def test_auditor_rejects_unprofitable_placement(simulated):
    cfg, rows, avg_poa, rate = simulated
    k = first_row(rows, lambda r: r[10].startswith("arr") and r[2] > 0 and r[6] > 0)
    bad = [list(r) for r in rows]
    n1a, n1b, n2a, n2b = bad[k][6:10]
    # One class-A session from network 1 to the taxed network 2.
    bad[k] = consistent(cfg, bad[k], (n1a - 1, n1b, n2a + 1, n2b))
    word = "gains" if cfg.handovers else "joined network"
    assert any_mentions(audit(cfg, bad[: k + 1], avg_poa, rate), word)


def test_auditor_rejects_block_with_room(simulated):
    cfg, rows, avg_poa, rate = simulated
    k = first_row(rows, lambda r: r[10] == "arrB")
    bad = [list(r) for r in rows[: k + 1]]
    bad[k] = list(bad[k - 1])
    bad[k][0], bad[k][10] = rows[k][0], "blkB"
    assert any_mentions(audit(cfg, bad, avg_poa, rate), "had room")


def test_auditor_rejects_over_capacity():
    cfg = sim_config(handovers=False)
    n2b = int(NET.c2 / cfg.class_b.throughput) + 1
    row = consistent(cfg, [1.0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "arrB"], (0, 0, 0, 1))
    over = [1.0, n2b * cfg.class_b.throughput, 0.0, math.inf, 1.0, math.inf, 0, 0, 0, n2b, "arrB"]
    auditor = workloads.trace_auditor(cfg)
    auditor.row(*row)
    auditor.row(*over)
    assert any_mentions(auditor.errors, "over capacity")


# ---------------------------------------------------------------------------
# Closed forms and the solver


def instance(d_a=5.0, d_b=3.0):
    dem = analytics.Demand(d_a, d_b)
    return dem, dem.total()


def test_optimal_split_check():
    _, demand = instance()
    opt = analytics.optimal_assignment(NET, demand)
    cost = analytics.optimal_cost(NET, demand)
    assert checks.check_optimal_split(NET.c1, NET.c2, demand, opt.f1, opt.f2, cost) == []
    moved = checks.check_optimal_split(NET.c1, NET.c2, demand, opt.f1 + 1e-3, opt.f2 - 1e-3, cost)
    assert any_mentions(moved, "marginal costs differ")
    assert any_mentions(
        checks.check_optimal_split(NET.c1, NET.c2, demand, opt.f1, opt.f2, cost * 1.001),
        "optimal cost",
    )
    # Below the threshold network 1 stays empty; using it breaks optimality.
    low = analytics.optimal_assignment(NET, 3.0)
    assert low.f1 == 0
    assert checks.check_optimal_split(
        NET.c1, NET.c2, 3.0, low.f1, low.f2, analytics.optimal_cost(NET, 3.0)
    ) == []
    assert checks.check_optimal_split(NET.c1, NET.c2, 3.0, 0.5, 2.5, 0.0) != []


@pytest.mark.parametrize("tau2", [0.0, 0.05, 0.4])
def test_equilibrium_check(tau2):
    dem, _ = instance()
    taxes = analytics.TaxVector(0.0, tau2)
    rep = equilibrium.taxed_equilibrium(NET, dem, SENS, taxes)
    s = rep.split
    args = (NET.c1, NET.c2, SENS.alpha_a, SENS.alpha_b, 0.0, tau2, dem.d_a, dem.d_b)
    split = (s.f1_a, s.f1_b, s.f2_a, s.f2_b)
    assert checks.check_equilibrium(*args, split) == []
    assert checks.check_latencies(NET.c1, NET.c2, s.f1, s.f2, rep.latencies) == []
    # Shift class B by 0.2 between the networks, demand still conserved.
    shift = 0.2 if s.f2_b >= 0.2 else -0.2
    bad = (s.f1_a, s.f1_b + shift, s.f2_a, s.f2_b - shift)
    assert any_mentions(checks.check_equilibrium(*args, bad), "pays")
    lost = (s.f1_a, s.f1_b, s.f2_a - 0.1, s.f2_b)
    assert any_mentions(checks.check_equilibrium(*args, lost), "class A places")
    wrong_latency = (rep.latencies[0] * 1.001, rep.latencies[1])
    assert any_mentions(
        checks.check_latencies(NET.c1, NET.c2, s.f1, s.f2, wrong_latency), "M/M/1"
    )


@pytest.mark.parametrize("d_b", [1.0, 7.5])  # class-A and class-B tax branches
def test_proposition1_check(d_b):
    dem, demand = instance(8.0 - d_b, d_b)
    tax = analytics.optimal_tax(NET, dem, SENS)
    assert tax.tau2 > 0
    rep = equilibrium.taxed_equilibrium(NET, dem, SENS, tax)
    ok = checks.check_proposition1(NET.c1, NET.c2, dem.d_a, dem.d_b, 0.0, tax.tau2,
                                   rep.split.f1, rep.split.f2)
    assert ok == []
    assert any_mentions(
        checks.check_proposition1(NET.c1, NET.c2, dem.d_a, dem.d_b, 0.0, 0.0,
                                  rep.split.f1, rep.split.f2),
        "threshold",
    )
    other = equilibrium.taxed_equilibrium(NET, dem, SENS, analytics.TaxVector(0.0, tax.tau2 * 2))
    assert any_mentions(
        checks.check_proposition1(NET.c1, NET.c2, dem.d_a, dem.d_b, 0.0, tax.tau2,
                                  other.split.f1, other.split.f2),
        "not the optimum",
    )
    # Below the threshold any tax is wrong.
    assert checks.check_proposition1(NET.c1, NET.c2, 1.0, 2.0, 0.0, 0.1, 0.0, 3.0) != []


@pytest.mark.parametrize("share_a", [0.0, 0.3, 1.0])
def test_class_latencies_check(share_a):
    lats = equilibrium.class_latencies(NET, 8.0, share_a, SENS)
    assert checks.check_class_latencies(NET.c1, NET.c2, 8.0, share_a, lats) == []
    k = 1 if share_a == 0.0 else 0
    bad = list(lats)
    bad[k] *= 1.01
    assert checks.check_class_latencies(NET.c1, NET.c2, 8.0, share_a, bad) != []
    bad = list(lats)
    bad[2] *= 1.01
    assert any_mentions(checks.check_class_latencies(NET.c1, NET.c2, 8.0, share_a, bad),
                        "no-tax latency")


# ---------------------------------------------------------------------------
# Workload-level checks


class SmallSweep(workloads.SweepHandover):
    LOADS = (0.4, 0.8)
    HORIZON = 12.0
    WARMUP = 3.0


def test_sweep_check_matches_rerun(tmp_path):
    wl = SmallSweep(3, tmp_path)
    base = wl.inputs(0)
    rows, items, attempted, failed = wl.run_round(base)
    assert (items, attempted, failed) == (6, 6, 0)
    assert wl.check_round(base, rows) == []
    assert wl.final_check(base, rows) == []
    bad = [dataclasses.replace(rows[0], poa_values=(rows[0].poa_values[0] * 1.001,))] + rows[1:]
    assert any_mentions(wl.final_check(base, bad), "rerun PoA")
    assert wl.check_round(base, rows[1:]) != []


class ShortTrace(workloads.TraceNoHandover):
    HORIZON = 60.0
    WARMUP = 10.0


def test_trace_workload_check(tmp_path):
    wl = ShortTrace(4, tmp_path)
    seed = wl.inputs(0)
    text, items, attempted, failed = wl.run_round(seed)
    assert (attempted, failed) == (1, 0) and items > 100
    assert wl.check_round(seed, text) == []
    lines = wl.csv_path.read_text().splitlines()
    good = list(lines)

    fields = lines[len(lines) // 2].split(",")
    fields[6] = str(int(fields[6]) + 1)
    lines[len(lines) // 2] = ",".join(fields)
    wl.csv_path.write_text("\n".join(lines) + "\n")
    assert wl.check_round(seed, text) != []

    wl.csv_path.write_text("\n".join(good[:-1]) + "\n")
    assert any_mentions(wl.check_round(seed, text), "simulate reported")

    wl.csv_path.write_text("\n".join(good) + "\n")
    changed = text.replace("avg_poa 1", "avg_poa 2")
    assert any_mentions(wl.check_round(seed, changed), "avg_poa")

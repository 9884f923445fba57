"""Acceptance suite: one test per exit criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s``. The statistical
criteria (7-9) replay the full load sweeps on 2 worker processes and take
the bulk of the runtime (about 1.5 minutes of wall time, 2.5 minutes of
CPU time, on a shared 2-core host with Python 3.11).
"""

import math
import random

import numpy as np
import pytest
from scipy import stats

from nettax.analytics import (
    Demand,
    NetworkPair,
    Sensitivities,
    optimal_assignment,
    optimal_cost,
    total_cost,
    wardrop_no_tax,
)
from nettax.equilibrium import taxed_equilibrium, verify_proposition1
from nettax.simulator import (
    ClassProfile,
    SimConfig,
    TaxPolicy,
    blocking_crossing,
    pooled_blocking_by_load,
    replication_seed,
    run,
    sweep_load,
)

from oracles import grid_min_total_cost, wardrop_grid_oracle
from test_equilibrium import random_instances
import workloads

NET = NetworkPair(4, 11)
SENS = Sensitivities(2, 1)
RATIO = 2 / 3  # base scenario's own lambda_A / lambda_B


def verdict(num: int, ok: bool, desc: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def base_sim(**overrides) -> SimConfig:
    kwargs = dict(
        net=NET,
        class_a=ClassProfile(3.0, 4.0, 0.064, 2.0),
        class_b=ClassProfile(4.5, 2.5, 0.184, 1.0),
        handovers=True,
        policy=TaxPolicy.NONE,
        horizon=150.0,
        warmup=30.0,
        seed=2024,
    )
    kwargs.update(overrides)
    return SimConfig(**kwargs)


def test_criterion_1_closed_form_reference_point():
    f_opt = optimal_assignment(NET, 8)
    share = f_opt.f1 / 8
    avg_latency_we = total_cost(NET, wardrop_no_tax(NET, 8)) / 8
    ok = abs(share - 0.171) <= 0.001 and abs(avg_latency_we - 0.286) <= 0.001
    verdict(
        1,
        ok,
        f"f1_opt/D = {share:.4f} (0.171 +- 0.001), "
        f"C_WE/D = {avg_latency_we:.4f} (0.286 +- 0.001)",
    )


def test_criterion_2_tax_threshold():
    thr = NET.tax_threshold()
    verdict(2, abs(thr - 4.3666) <= 0.01, f"threshold(4,11) = {thr:.4f} (4.3666 +- 0.01)")


def test_criterion_3_proposition1_grid():
    worst = 0.0
    both_branches = set()
    for load in np.linspace(0.3, 0.95, 10):
        demand = load * NET.total
        f2_opt = optimal_assignment(NET, demand).f2
        for b_share in np.linspace(0.0, 1.0, 10):
            d_b = b_share * demand
            for ratio in (1.5, 2, 3, 5, 10):
                dem = Demand(demand - d_b, d_b)
                ok, (df1, df2) = verify_proposition1(
                    NET, dem, Sensitivities(ratio, 1.0), tol=1e-5
                )
                worst = max(worst, abs(df1), abs(df2))
                both_branches.add(d_b <= f2_opt)
                assert ok, (load, b_share, ratio, df1, df2)
    assert both_branches == {True, False}
    verdict(3, worst <= 1e-5, f"500-cell grid, worst flow discrepancy {worst:.2e}")


def test_criterion_4_optimal_assignment_beats_grid_search():
    rng = random.Random(424242)
    worst_gap = -math.inf
    for _ in range(1000):
        c1 = rng.uniform(0.5, 5.0)
        c2 = c1 + rng.uniform(0.1, 8.0)
        demand = rng.uniform(0.0, 0.999) * (c1 + c2)
        grid_best = grid_min_total_cost(c1, c2, demand, step=1e-4)
        worst_gap = max(worst_gap, optimal_cost(NetworkPair(c1, c2), demand) - grid_best)
    verdict(
        4,
        worst_gap <= 1e-6,
        f"1000 instances, max(optimal_cost - grid minimum) = {worst_gap:.2e}",
    )


def test_criterion_5_equilibrium_matches_grid_oracle():
    worst = 0.0
    for net, dem, sens, taxes in random_instances(200, seed=20240817):
        rep = taxed_equilibrium(net, dem, sens, taxes)
        f1_star, _ = wardrop_grid_oracle(
            net.c1, net.c2, dem.d_a, dem.d_b,
            sens.alpha_a, sens.alpha_b, taxes.tau1, taxes.tau2,
        )
        worst = max(worst, abs(rep.split.f1 - f1_star))
    verdict(5, worst <= 2e-3, f"200 taxed instances, max aggregate gap {worst:.2e}")


def integrated_mean_count(cfg, trace, pick):
    total = 0.0
    prev_t, prev_n = 0.0, 0
    lo, hi = cfg.warmup, cfg.horizon
    for s in trace.samples:
        a, b = max(prev_t, lo), min(s.t, hi)
        if b > a:
            total += prev_n * (b - a)
        prev_t, prev_n = s.t, pick(s)
    if hi > max(prev_t, lo):
        total += prev_n * (hi - max(prev_t, lo))
    return total / (hi - lo)


def test_criterion_6_simulator_invariant_suite():
    # 30 seeded runs across the three policies
    for i in range(10):
        for policy in TaxPolicy:
            cfg = base_sim(policy=policy, seed=replication_seed(606, i))
            trace = run(cfg)
            assert workloads.audit(
                workloads.trace_auditor(cfg), workloads.trace_rows(trace),
                trace.summary.avg_poa, trace.blocking.rate, f"{policy.value} run {i}",
            ) == []
            assert run(cfg).samples == trace.samples  # determinism

    # near-zero throughput: no blocking, session counts behave like M/M/inf
    tiny = base_sim(
        class_a=ClassProfile(3.0, 4.0, 1e-4, 2.0),
        class_b=ClassProfile(4.5, 2.5, 1e-4, 1.0),
        horizon=300.0,
        warmup=60.0,
    )
    means_a, means_b = [], []
    for i in range(8):
        cfg = base_sim(
            class_a=tiny.class_a, class_b=tiny.class_b,
            horizon=300.0, warmup=60.0, seed=replication_seed(909, i),
        )
        trace = run(cfg)
        assert trace.blocking.measured_blocked == 0
        means_a.append(integrated_mean_count(cfg, trace, lambda s: s.n1a + s.n2a))
        means_b.append(integrated_mean_count(cfg, trace, lambda s: s.n1b + s.n2b))
    ok = True
    for means, expected in ((means_a, 3.0 * 4.0), (means_b, 4.5 * 2.5)):
        mean = float(np.mean(means))
        se = float(np.std(means, ddof=1) / math.sqrt(len(means)))
        ok = ok and abs(mean - expected) <= 3 * se
    verdict(6, ok, "capacity/conservation/determinism/PoA/tax-activation audits "
                   f"on 30 runs; M/M/inf counts within 3 SE "
                   f"(A {np.mean(means_a):.2f}/12, B {np.mean(means_b):.2f}/11.25)")


# Two workers: test_simulator.py requires the pooled rows to equal the
# serial rows, so the verdicts do not depend on the worker count.
@pytest.fixture(scope="module")
def handover_rows():
    return sweep_load(
        base_sim(),
        loads=[0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85],
        ratio=RATIO,
        replications=30,
        handover_settings=(True,),
        max_workers=2,
    )


@pytest.fixture(scope="module")
def no_handover_rows():
    return sweep_load(
        base_sim(),
        loads=[0.15, 0.2, 0.25, 0.3, 0.35],
        ratio=RATIO,
        replications=30,
        policies=(TaxPolicy.NONE, TaxPolicy.OPTIMAL),
        handover_settings=(False,),
        max_workers=2,
    )


def by_policy(rows, load):
    return {r.policy: r for r in rows if r.load == load}


def ordering_not_rejected(hi, lo, confidence=0.95):
    """True unless the paired data contradict mean(hi - lo) >= 0 at the
    given confidence level."""
    diffs = np.array(hi) - np.array(lo)
    mean = diffs.mean()
    se = diffs.std(ddof=1) / math.sqrt(len(diffs))
    if se == 0:
        return mean >= 0
    return mean >= -stats.t.ppf(confidence, len(diffs) - 1) * se


def test_criterion_7_handover_sweep_poa_bands(handover_rows):
    loads = sorted({r.load for r in handover_rows})
    optimal_ok = approx_ok = order_ok = True
    none_peak = 0.0
    for load in loads:
        cell = by_policy(handover_rows, load)
        if load <= 0.8:
            optimal_ok &= cell[TaxPolicy.OPTIMAL].mean_poa <= 1.02
            approx_ok &= cell[TaxPolicy.APPROX].mean_poa <= 1.05
        if 0.4 <= load <= 0.7:
            none_peak = max(none_peak, cell[TaxPolicy.NONE].mean_poa)
        order_ok &= ordering_not_rejected(
            cell[TaxPolicy.NONE].poa_values, cell[TaxPolicy.APPROX].poa_values
        )
        order_ok &= ordering_not_rejected(
            cell[TaxPolicy.APPROX].poa_values, cell[TaxPolicy.OPTIMAL].poa_values
        )
    ok = optimal_ok and approx_ok and none_peak > 1.05 and order_ok
    verdict(
        7,
        ok,
        f"OPTIMAL<=1.02 {optimal_ok}, APPROX<=1.05 {approx_ok}, "
        f"NONE peak {none_peak:.3f} > 1.05, paired ordering at 95% {order_ok}",
    )


def test_criterion_8_no_handover_inertia_band(no_handover_rows):
    gaps = {}
    for load in sorted({r.load for r in no_handover_rows}):
        cell = by_policy(no_handover_rows, load)
        gaps[load] = (
            cell[TaxPolicy.OPTIMAL].mean_poa - cell[TaxPolicy.NONE].mean_poa
        )
    exists = any(gap > 0 for gap in gaps.values())
    verdict(
        8,
        exists,
        "no-handover band where NONE beats OPTIMAL: "
        + ", ".join(f"{l}:{g:+.4f}" for l, g in gaps.items()),
    )


def test_criterion_9_blocking_crossing(handover_rows):
    points = pooled_blocking_by_load(handover_rows, handovers=True)
    crossing = blocking_crossing(points, 0.01)
    ok = crossing is not None and abs(crossing - 0.80) <= 0.05
    verdict(
        9,
        ok,
        f"pooled blocking crosses 0.01 at load {crossing} (0.80 +- 0.05)",
    )

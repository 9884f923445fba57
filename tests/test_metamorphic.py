"""Exact metamorphic relation: scaling every rate by a power of two.

Multiply both capacities and both class throughputs by k = 2, and the
handover hysteresis by 1/k. Every capacity, load and headroom is then
scaled by k exactly, every latency and tax by 1/k, and every total delay
is unchanged, because multiplying by a power of two commutes with
floating-point rounding. So each admission, handover, blocking and tax
branch decision is the same, and the scaled run must reproduce the
unscaled one bit for bit: same event times, counts and event kinds, and
the same price of anarchy and blocking rate, compared with ``==``.

The simulator stores carried loads and derives them from integer counts;
this relation checks that path independently of the golden hashes.
"""

import dataclasses

import pytest

from nettax.analytics import NetworkPair
from nettax.simulator import ClassProfile, SimConfig, TaxPolicy, run

K = 2.0


def unscaled_config(policy: TaxPolicy, handovers: bool) -> SimConfig:
    # Normalized load about 0.7: the tax is active most of the time,
    # handovers move sessions after most events, and some arrivals block.
    return SimConfig(
        net=NetworkPair(4.0, 11.0),
        class_a=ClassProfile(11.0, 4.0, 0.064, 2.0),
        class_b=ClassProfile(16.5, 2.5, 0.184, 1.0),
        handovers=handovers,
        policy=policy,
        horizon=80.0,
        warmup=16.0,
        seed=7,
    )


def scaled(cfg: SimConfig, k: float) -> SimConfig:
    return dataclasses.replace(
        cfg,
        net=NetworkPair(cfg.net.c1 * k, cfg.net.c2 * k),
        class_a=dataclasses.replace(cfg.class_a, throughput=cfg.class_a.throughput * k),
        class_b=dataclasses.replace(cfg.class_b, throughput=cfg.class_b.throughput * k),
        handover_hysteresis=cfg.handover_hysteresis / k,
    )


@pytest.mark.parametrize("handovers", [True, False], ids=["handovers", "no-handovers"])
@pytest.mark.parametrize("policy", list(TaxPolicy), ids=lambda p: p.value)
def test_power_of_two_scaling_is_exact(policy, handovers):
    cfg = unscaled_config(policy, handovers)
    base, big = run(cfg), run(scaled(cfg, K))

    def decisions(trace):
        return [(s.t, s.n1a, s.n1b, s.n2a, s.n2b, s.event) for s in trace.samples]

    assert decisions(big) == decisions(base)
    assert big.summary.avg_poa == base.summary.avg_poa
    assert big.blocking.rate == base.blocking.rate
    for s, b in zip(base.samples, big.samples):
        assert (b.load, b.tau2, b.cost, b.poa) == (s.load * K, s.tau2 / K, s.cost, s.poa)
    # The relation must not hold vacuously.
    assert base.blocking.measured_blocked > 0
    assert any(s.event.startswith("dep") for s in base.samples)
    if policy is not TaxPolicy.NONE:
        assert any(s.tau2 > 0 for s in base.samples)

import dataclasses
import math

import pytest

from nettax import simulator
from nettax.analytics import NetworkPair, _tau2
from nettax.simulator import (
    CLASS_A,
    CLASS_B,
    ClassProfile,
    SimConfig,
    SystemState,
    TaxPolicy,
    blocking_crossing,
    choose_network,
    handover_relaxation,
    pooled_blocking_by_load,
    replication_config,
    replication_seed,
    run,
    scale_arrival_rates,
    sweep_load,
    write_summary_csv,
    write_trace_csv,
)

import workloads
from oracles import GROUPS, state_from, wants_switch

NET = NetworkPair(4, 11)


def base_config(**overrides) -> SimConfig:
    kwargs = dict(
        net=NET,
        class_a=ClassProfile(3.0, 4.0, 0.064, 2.0),
        class_b=ClassProfile(4.5, 2.5, 0.184, 1.0),
        handovers=True,
        policy=TaxPolicy.NONE,
        horizon=60.0,
        warmup=10.0,
        seed=12345,
    )
    kwargs.update(overrides)
    return SimConfig(**kwargs)


def state_with(cfg: SimConfig, n1a=0, n1b=0, n2a=0, n2b=0) -> SystemState:
    counts = (n1a, n1b, n2a, n2b)
    return state_from(cfg, [place for place, k in zip(GROUPS, counts) for _ in range(k)])


def test_config_validation():
    with pytest.raises(ValueError):
        base_config(class_a=ClassProfile(3, 4, 0.064, 1.0))  # alpha_a <= alpha_b
    with pytest.raises(ValueError):
        base_config(horizon=5.0, warmup=10.0)
    with pytest.raises(ValueError):
        ClassProfile(-1, 4, 0.064, 2)


@pytest.mark.parametrize(
    "overrides, named",
    [
        (dict(max_handover_rounds=0), "max_handover_rounds must be >= 1, got 0"),
        (dict(max_handover_rounds=-2), "max_handover_rounds must be >= 1, got -2"),
        (dict(horizon=math.inf), "horizon must be finite, got inf"),
        (dict(horizon=math.nan), "horizon must be finite, got nan"),
        (dict(warmup=math.inf), "warmup must be finite, got inf"),
    ],
)
def test_config_rejects_non_terminating_values(overrides, named):
    with pytest.raises(ValueError, match=named):
        base_config(**overrides)
    base_config(max_handover_rounds=1)


@pytest.mark.parametrize("field", ["arrival_rate", "mean_duration", "throughput", "alpha"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_class_profile_rejects_non_finite_fields(field, value):
    kwargs = dict(arrival_rate=3.0, mean_duration=4.0, throughput=0.064, alpha=2.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite .*got {value}"):
        ClassProfile(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_hysteresis_must_be_finite_and_non_negative(value):
    with pytest.raises(ValueError, match=f"handover_hysteresis .*got {value}"):
        base_config(handover_hysteresis=value)


def priced_run(policy: TaxPolicy) -> list:
    """Samples of a run at offered load about 0.69 of capacity, which
    starts empty and rises above the tax threshold, 4.37."""
    return run(base_config(
        class_a=ClassProfile(11.0, 4.0, 0.064, 2.0),
        class_b=ClassProfile(16.5, 2.5, 0.184, 1.0),
        policy=policy, horizon=8.0, warmup=0.0,
    )).samples


def tax_of(sample, d_b: float) -> float:
    """The tax of the sample's load when the class-B load is ``d_b``."""
    return _tau2(NET, sample.load, d_b, 2.0, 1.0)[0]


def carried_b(sample) -> float:
    return (sample.n1b + sample.n2b) * 0.184


class TestCurrentTax:
    """The tax in force after each event: every sample carries the price
    of its own state, by the run's rule."""

    def test_none_policy(self):
        samples = priced_run(TaxPolicy.NONE)
        assert max(s.load for s in samples) > NET.tax_threshold()
        assert all(s.tau2 == 0.0 for s in samples)

    def test_optimal_policy_uses_true_class_b_load(self):
        samples = priced_run(TaxPolicy.OPTIMAL)
        assert all(s.tau2 == tax_of(s, carried_b(s)) for s in samples)
        assert sum(s.tau2 > 0 for s in samples) > len(samples) / 2

    def test_below_threshold_no_tax(self):
        for policy in (TaxPolicy.OPTIMAL, TaxPolicy.APPROX):
            below = [s for s in priced_run(policy) if s.load <= NET.tax_threshold()]
            assert len(below) > 10
            assert all(s.tau2 == 0.0 for s in below)

    def test_approx_policy_uses_average_class_b_load(self):
        offered = 16.5 * 2.5 * 0.184
        samples = priced_run(TaxPolicy.APPROX)
        assert all(s.tau2 == tax_of(s, offered) for s in samples)
        # The estimate, not the carried class-B load, picks the branch: in
        # some states the two give different prices.
        assert any(tax_of(s, offered) != tax_of(s, carried_b(s)) for s in samples)


class TestChooseNetwork:
    def test_empty_system_prefers_large_network(self):
        cfg = base_config()
        state = state_with(cfg)
        assert choose_network(state, CLASS_B, 0.0) == 2

    def test_capacity_exclusion(self):
        cfg = base_config(
            class_b=ClassProfile(4.5, 2.5, 0.184, 1.0),
            class_a=ClassProfile(3.0, 4.0, 0.1, 2.0),
        )
        # network 2 carries 10.948 already; +0.184 would hit 11.132 >= 11
        state = state_with(cfg, n2b=59, n2a=1)
        assert state.loads[1] == pytest.approx(10.956)
        assert choose_network(state, CLASS_B, 0.0) == 1

    def test_blocked_when_both_full(self):
        cfg = base_config(
            class_a=ClassProfile(3.0, 4.0, 0.5, 2.0),
            class_b=ClassProfile(4.5, 2.5, 0.9, 1.0),
        )
        state = state_with(cfg, n1a=7, n2b=12)  # carried (3.5, 10.8)
        assert choose_network(state, CLASS_B, 0.0) is None
        # class A (0.5) still fits on network 2: 10.8 + 0.5 < 11 is false,
        # but on network 1: 3.5 + 0.5 >= 4, so A is blocked as well
        assert choose_network(state, CLASS_A, 0.0) is None

    def test_no_admission_fills_a_network_to_capacity(self):
        cfg = base_config()
        # Network 1 has no room for class B: 62 * 0.064 + 0.184 >= 4.
        state = state_with(cfg, n1a=62, n2a=54, n2b=40)
        # One more B (group 3, 2B) passes loads[1] + eps < c2, but the load
        # the state would store, 54 * 0.064 + 41 * 0.184, is exactly c2: a
        # saturated network with infinite delay. The arrival is blocked.
        assert state.loads[1] + 0.184 < NET.c2
        assert 54 * 0.064 + 41 * 0.184 == NET.c2
        assert not state.fits(3)
        assert choose_network(state, CLASS_B, 0.0) is None
        # Class A (group 2, 2A) still fits there, with its own flow included.
        assert state.fits(2)
        assert choose_network(state, CLASS_A, 0.0) == 2

    def test_tax_steers_price_averse_class(self):
        cfg = base_config()
        state = state_with(cfg)
        assert choose_network(state, CLASS_A, 10.0) == 1
        # class B is delay-driven: even a big tax leaves network 2 cheaper
        # only if the tax is small enough; at tau2=10 it also flips
        assert choose_network(state, CLASS_B, 10.0) == 1

    def test_exact_tie_goes_to_network_2(self):
        cfg = base_config(class_b=ClassProfile(4.5, 2.5, 1.0, 1.0))
        state = state_with(cfg, n2b=7)
        # Both delays are 1/3.0: 1/(11 - 8.0) on network 2, 1/(4 - 1.0) on 1.
        assert 1 / (NET.c2 - (state.loads[1] + 1.0)) == 1 / (NET.c1 - 1.0)
        assert choose_network(state, CLASS_B, 0.0) == 2


def count_switching_groups(monkeypatch) -> list:
    """Record each call of ``simulator._switching_groups`` made through
    ``handover_relaxation``; returns the list of calls."""
    calls = []
    original = simulator._switching_groups

    def counted(state, tau2):
        calls.append(tau2)
        return original(state, tau2)

    monkeypatch.setattr(simulator, "_switching_groups", counted)
    return calls


class TestHandoverRelaxation:
    def test_fixed_point_makes_no_switch(self, monkeypatch):
        cfg = base_config()
        state = state_with(cfg, n2a=5, n2b=5)
        calls = count_switching_groups(monkeypatch)
        switches, converged = handover_relaxation(state, 0.0)
        assert switches == 0 and converged
        # A fixed point is found by one question, before any sweep.
        assert len(calls) == 1

    def test_lone_user_drains_to_the_large_network(self, monkeypatch):
        cfg = base_config()
        state = state_with(cfg, n1a=1)
        calls = count_switching_groups(monkeypatch)
        switches, converged = handover_relaxation(state, 0.0)
        assert (switches, converged) == (1, True)
        assert state.n == [0, 0, 1, 0]
        assert state.where == bytearray([2])  # 1A rewritten to 2A
        # One question up front and one after the move, which finds no
        # group that wants to switch: no second sweep asks again.
        assert len(calls) == 2

    def test_capped_sweep_that_reaches_a_fixed_point_converges(self):
        # The one allowed sweep moves the lone user and leaves nobody who
        # wants to switch: the relaxation used up its cap, and converged.
        state = state_with(base_config(max_handover_rounds=1), n1a=1)
        assert handover_relaxation(state, 0.0) == (1, True)

    def test_post_tax_drop_drains_network_1(self):
        # users parked on network 1 while a tax was active migrate back
        # once the tax is gone and total load is below the threshold
        cfg = base_config()
        state = state_with(cfg, n1a=20, n2b=5)  # load 1.28 + 0.92 = 2.2
        assert sum(state.loads) < NET.tax_threshold()
        switches, converged = handover_relaxation(state, 0.0)
        assert converged
        assert state.n[0] == 0
        assert switches == 20

    def test_no_profitable_switch_after_convergence(self):
        cfg = base_config()
        state = state_with(cfg, n1a=30, n1b=10, n2a=10, n2b=30)
        _, converged = handover_relaxation(state, 0.05)
        assert converged
        for g, (p, cls) in enumerate(GROUPS):
            if state.n[g]:
                assert not wants_switch(cfg, state.loads, p, cls, 0.05)


class TestRun:
    def test_empty_arrivals(self):
        cfg = base_config(
            class_a=ClassProfile(0.0, 4.0, 0.064, 2.0),
            class_b=ClassProfile(0.0, 2.5, 0.184, 1.0),
        )
        trace = run(cfg)
        assert trace.samples == []
        assert trace.summary.avg_poa == 1.0
        assert trace.blocking.measured_blocked == 0

    def test_determinism(self):
        cfg = base_config(policy=TaxPolicy.OPTIMAL)
        assert run(cfg).samples == run(cfg).samples

    def test_samples_are_tuples_with_named_fields(self):
        s = run(base_config(horizon=20.0, warmup=2.0)).samples[0]
        fields = ("t", "load", "tau2", "cost", "cost_opt", "poa",
                  "n1a", "n1b", "n2a", "n2b", "event")
        assert tuple(s) == tuple(getattr(s, f) for f in fields)
        assert repr(s) == "Sample(" + ", ".join(
            f"{f}={getattr(s, f)!r}" for f in fields) + ")"

    def test_no_handover_run_near_capacity_keeps_poa_finite(self):
        # Load 0.9 without handovers: this replication of the default
        # scenario used to admit a session that saturated network 2.
        base = base_config(horizon=200.0, warmup=40.0, seed=1)
        cfg = replication_config(base, 0.9, 2 / 3, TaxPolicy.NONE, False, 1)
        trace = run(cfg)
        assert max(s.n2b for s in trace.samples) > 0
        assert all(math.isfinite(s.poa) for s in trace.samples)
        assert math.isfinite(trace.summary.avg_poa)
        assert trace.blocking.measured_blocked > 0

    @pytest.mark.parametrize("policy", list(TaxPolicy))
    @pytest.mark.parametrize("handovers", [True, False])
    def test_invariants(self, policy, handovers):
        cfg = base_config(policy=policy, handovers=handovers, seed=7)
        trace = run(cfg)
        assert workloads.audit(
            workloads.trace_auditor(cfg), workloads.trace_rows(trace),
            trace.summary.avg_poa, trace.blocking.rate, "seed 7",
        ) == []

    def test_average_load_tracks_offered_load(self):
        cfg = base_config(horizon=400.0, warmup=50.0)
        trace = run(cfg)
        total = 0.0
        prev_t, prev_load = 0.0, 0.0
        for s in trace.samples:
            total += prev_load * (s.t - prev_t)
            prev_t, prev_load = s.t, s.load
        total += prev_load * (cfg.horizon - prev_t)
        offered = cfg.class_a.offered_load + cfg.class_b.offered_load
        assert total / cfg.horizon == pytest.approx(offered, rel=0.15)

    def test_taxed_run_beats_untaxed_on_common_randomness(self):
        # paired comparison at a load where taxes matter
        seeds = [replication_seed(3, i) for i in range(10)]
        diffs = []
        for seed in seeds:
            base = base_config(seed=seed, horizon=120.0, warmup=20.0)
            hi = replication_config(base, 0.55, 2 / 3, TaxPolicy.NONE, True, 0)
            hi = dataclasses.replace(hi, seed=seed)
            taxed = dataclasses.replace(hi, policy=TaxPolicy.OPTIMAL)
            diffs.append(run(hi).summary.avg_poa - run(taxed).summary.avg_poa)
        assert sum(diffs) / len(diffs) > 0


class TestSweep:
    def test_scale_arrival_rates_hits_target(self):
        base = base_config()
        lam_a, lam_b = scale_arrival_rates(base, 0.5, 1.5)
        assert lam_a / lam_b == pytest.approx(1.5)
        d_bar = (
            lam_a * base.class_a.mean_duration * base.class_a.throughput
            + lam_b * base.class_b.mean_duration * base.class_b.throughput
        )
        assert d_bar / NET.total == pytest.approx(0.5)

    def test_replication_config_sets_rates_cell_and_seed_only(self):
        base = base_config(handover_hysteresis=0.01, max_handover_rounds=5)
        cfg = replication_config(base, 0.5, 1.5, TaxPolicy.APPROX, False, 3)
        lam_a, lam_b = scale_arrival_rates(base, 0.5, 1.5)
        assert cfg == SimConfig(
            net=NET,
            class_a=ClassProfile(lam_a, 4.0, 0.064, 2.0),
            class_b=ClassProfile(lam_b, 2.5, 0.184, 1.0),
            handovers=False,
            policy=TaxPolicy.APPROX,
            horizon=60.0,
            warmup=10.0,
            seed="12345:3",
            handover_hysteresis=0.01,
            max_handover_rounds=5,
        )

    def test_sweep_rows_and_csv(self, tmp_path):
        base = base_config(horizon=30.0, warmup=5.0)
        rows = sweep_load(
            base, loads=[0.3, 0.6], ratio=2 / 3, replications=2, max_workers=1
        )
        assert len(rows) == 2 * 2 * 3
        for row in rows:
            assert row.mean_poa >= 1 - 1e-9
            assert len(row.poa_values) == 2
        out = tmp_path / "summary.csv"
        write_summary_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "load,policy,handover,mean_poa,se_poa,blocking_rate,replications"
        assert len(lines) == 13

    def test_process_pool_rows_equal_serial_rows(self):
        base = base_config(horizon=30.0, warmup=5.0)
        kwargs = dict(loads=[0.3, 0.6], ratio=2 / 3, replications=2)
        serial = sweep_load(base, max_workers=1, **kwargs)
        pooled = sweep_load(base, max_workers=2, **kwargs)
        # SweepRow equality compares every field, poa_values included.
        assert pooled == serial

    def test_trace_csv_round_trip(self, tmp_path):
        cfg = base_config(policy=TaxPolicy.OPTIMAL, horizon=30.0, warmup=5.0)
        trace = run(cfg)
        out = tmp_path / "trace.csv"
        write_trace_csv(trace, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,D,tau2,C,C_opt,PoA,n1A,n1B,n2A,n2B,event"
        assert len(lines) == len(trace.samples) + 1
        prev_t = 0.0
        for line in lines[1:]:
            parts = line.split(",")
            t, load, poa = float(parts[0]), float(parts[1]), float(parts[5])
            assert t >= prev_t
            prev_t = t
            if load > 0:
                assert poa >= 1 - 1e-9
            assert parts[10] in {"arrA", "arrB", "depA", "depB", "blkA", "blkB"}
        # byte-identical on repeat
        out2 = tmp_path / "trace2.csv"
        write_trace_csv(run(cfg), out2)
        assert out.read_bytes() == out2.read_bytes()

    def test_blocking_crossing_interpolation(self):
        points = [(0.6, 0.0), (0.7, 0.005), (0.8, 0.015)]
        assert blocking_crossing(points, 0.01) == pytest.approx(0.75)
        assert blocking_crossing(points, 0.05) is None
        # A first point already at the level is the crossing, whatever the
        # curve does later.
        dip = [(0.1, 0.02), (0.2, 0.0), (0.3, 0.02)]
        assert blocking_crossing(dip, 0.01) == 0.1

    def test_pooled_blocking_by_load(self):
        base = base_config(horizon=20.0, warmup=2.0)
        rows = sweep_load(
            base, loads=[0.4], ratio=2 / 3, replications=1, max_workers=1
        )
        pooled = pooled_blocking_by_load(rows, handovers=True)
        assert len(pooled) == 1 and pooled[0][0] == 0.4

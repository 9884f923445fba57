import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nettax.analytics import (
    Demand,
    DemandExceedsCapacity,
    FlowAssignment,
    NetworkPair,
    Sensitivities,
    TaxVector,
    _optimal_cost,
    _optimal_split,
    _tau2,
    delay,
    optimal_assignment,
    optimal_cost,
    optimal_tax,
    total_cost,
    wardrop_no_tax,
)

NET = NetworkPair(4, 11)
SENS = Sensitivities(2, 1)


def test_network_pair_ordering_enforced():
    with pytest.raises(ValueError):
        NetworkPair(11, 4)
    with pytest.raises(ValueError):
        NetworkPair(0, 4)
    assert NET.tax_threshold() > 0


def test_type_invariants():
    with pytest.raises(ValueError):
        Sensitivities(1, 2)
    with pytest.raises(ValueError):
        Demand(-1, 0)
    with pytest.raises(ValueError):
        FlowAssignment(-0.1, 1)
    with pytest.raises(ValueError):
        TaxVector(-0.1, 0)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: NetworkPair(4, INF), "c2=inf"),
        (lambda: NetworkPair(NAN, 11), "c1=nan"),
        (lambda: Sensitivities(INF, 1), "got inf, 1"),
        (lambda: Sensitivities(2, NAN), "got 2, nan"),
        (lambda: Demand(NAN, 1), "got nan, 1"),
        (lambda: Demand(1, NAN), "got 1, nan"),
        (lambda: TaxVector(0, NAN), "got 0, nan"),
        # An infinite tax once saturated network 2 with residual 0.
        (lambda: TaxVector(0, INF), "finite and >= 0, got 0, inf"),
        (lambda: TaxVector(INF, 0), "finite and >= 0, got inf, 0"),
        (lambda: optimal_cost(NET, NAN), "demand must be >= 0, got nan"),
        (lambda: optimal_cost(NET, INF), "total demand inf >= combined capacity"),
    ],
)
def test_non_finite_input_rejected_by_name(build, named):
    with pytest.raises(ValueError, match=named):
        build()


class TestDelay:
    def test_direct_evaluation(self):
        assert delay(11, 7.5) == pytest.approx(1 / 3.5)

    def test_empty_network(self):
        assert delay(4, 0) == 0.25

    def test_saturation_returns_infinity(self):
        assert delay(4, 4) == math.inf
        assert delay(4, 5) == math.inf


class TestTotalCost:
    def test_no_tax_equilibrium_point(self):
        assert total_cost(NET, FlowAssignment(0.5, 7.5)) == pytest.approx(8 / 3.5)

    def test_zero_flow(self):
        assert total_cost(NET, FlowAssignment(0, 0)) == 0.0

    def test_saturated_link_with_flow(self):
        assert total_cost(NET, FlowAssignment(4, 4)) == math.inf

    def test_saturated_link_without_flow_contributes_zero(self):
        tight = NetworkPair(4, 11)
        assert total_cost(tight, FlowAssignment(0.0, 5.0)) == pytest.approx(5 / 6)


class TestWardropNoTax:
    def test_single_link_branch(self):
        f = wardrop_no_tax(NET, 5)
        assert (f.f1, f.f2) == (0.0, 5.0)

    def test_shared_branch_equal_latencies(self):
        f = wardrop_no_tax(NET, 8)
        assert (f.f1, f.f2) == (0.5, 7.5)
        assert delay(4, f.f1) == pytest.approx(delay(11, f.f2), abs=1e-9)

    def test_zero_demand(self):
        assert wardrop_no_tax(NET, 0) == FlowAssignment(0, 0)

    def test_demand_at_capacity_rejected(self):
        with pytest.raises(DemandExceedsCapacity):
            wardrop_no_tax(NET, 15)


class TestOptimalAssignment:
    def test_reference_point(self):
        f = optimal_assignment(NET, 8)
        assert f.f1 / 8 == pytest.approx(0.171, abs=0.001)

    def test_below_threshold(self):
        assert optimal_assignment(NET, 4) == FlowAssignment(0, 4)

    def test_cost_agrees_with_closed_form(self):
        f = optimal_assignment(NET, 8)
        expected = (1 + 2 * math.sqrt(44)) / 7
        assert total_cost(NET, f) == pytest.approx(expected, abs=1e-9)
        assert optimal_cost(NET, 8) == pytest.approx(expected, abs=1e-9)

    def test_scipy_minimizer_cross_check(self):
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda f1: total_cost(NET, FlowAssignment(f1, 8 - f1)),
            bounds=(1e-9, 4 - 1e-9),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert optimal_assignment(NET, 8).f1 == pytest.approx(res.x, abs=1e-6)


class TestOptimalCost:
    def test_first_branch(self):
        assert optimal_cost(NET, 4) == pytest.approx(4 / 7)

    def test_zero_demand(self):
        assert optimal_cost(NET, 0) == 0.0

    def test_matches_assignment_cost_across_demands(self):
        for demand in [0.5, 2, 4.3, 4.4, 7, 10, 14.9]:
            f = optimal_assignment(NET, demand)
            assert optimal_cost(NET, demand) == pytest.approx(
                total_cost(NET, f), abs=1e-9
            )


class TestTaxThreshold:
    def test_reference_value(self):
        assert NET.tax_threshold() == pytest.approx(4.3666, abs=0.01)

    def test_perfect_squares(self):
        assert NetworkPair(1, 4).tax_threshold() == pytest.approx(2.0)

    @given(
        c=st.floats(0.5, 20),
        k=st.floats(1.1, 4),
    )
    def test_scaled_square_identity(self, c, k):
        assert NetworkPair(c, c * k * k).tax_threshold() == pytest.approx(
            c * k * (k - 1), rel=1e-9
        )

    @given(c1=st.floats(0.01, 100), gap=st.floats(0.01, 100))
    def test_stored_value_is_the_formula(self, c1, gap):
        net = NetworkPair(c1, c1 + gap)
        assert net.tax_threshold() == net.c2 - math.sqrt(net.c1 * net.c2)

    def test_stored_value_stays_out_of_repr_eq_and_hash(self):
        assert repr(NetworkPair(4.0, 11.0)) == "NetworkPair(c1=4.0, c2=11.0)"
        other = NetworkPair(4.0, 11.0)
        object.__setattr__(other, "_tax_threshold", -1.0)
        assert other == NetworkPair(4.0, 11.0)
        assert hash(other) == hash(NetworkPair(4.0, 11.0))
        assert NetworkPair(4.0, 11.0) != NetworkPair(4.0, 12.0)

    def test_pickle_keeps_the_stored_value(self):
        # Sweeps pickle their configs to worker processes.
        net = pickle.loads(pickle.dumps(NetworkPair(4.0, 11.0)))
        assert net == NetworkPair(4.0, 11.0)
        assert net.tax_threshold() == 11.0 - math.sqrt(44.0)

    def test_replace_recomputes_the_stored_value(self):
        net = dataclasses.replace(NetworkPair(4.0, 11.0), c2=16.0)
        assert net.tax_threshold() == 8.0
        with pytest.raises(ValueError):
            dataclasses.replace(NET, _tax_threshold=0.0)


class TestOptimalTax:
    def test_class_a_branch(self):
        taxes = optimal_tax(NET, Demand(7, 1), SENS)
        assert taxes.tau1 == 0.0
        assert taxes.tau2 == pytest.approx(7 / (2 * math.sqrt(44) * 7), abs=1e-9)

    def test_class_b_branch(self):
        taxes = optimal_tax(NET, Demand(1, 7), SENS)
        assert taxes.tau2 == pytest.approx(1 / math.sqrt(44), abs=1e-12)
        assert taxes.tau2 == pytest.approx(0.150757, abs=2e-6)

    def test_below_threshold_no_tax(self):
        assert optimal_tax(NET, Demand(2, 2), SENS) == TaxVector(0, 0)

    def test_branch_tie_uses_class_a(self):
        f2_opt = optimal_assignment(NET, 8).f2
        taxes = optimal_tax(NET, Demand(8 - f2_opt, f2_opt), SENS)
        a_branch = 7 / (2 * math.sqrt(44) * 7)
        assert taxes.tau2 == pytest.approx(a_branch, abs=1e-12)

    def test_branch_ordering_when_active(self):
        # alpha_A > alpha_B makes the class-A branch strictly cheaper.
        lo = optimal_tax(NET, Demand(7, 1), SENS).tau2
        hi = optimal_tax(NET, Demand(1, 7), SENS).tau2
        assert 0 < lo < hi


nets = st.builds(
    lambda c1, gap: NetworkPair(c1, c1 + gap),
    st.floats(0.5, 8),
    st.floats(0.1, 10),
)


@given(net=nets, frac=st.floats(0.0, 0.999))
@settings(max_examples=200)
def test_equilibrium_cost_dominates_optimal(net, frac):
    demand = frac * net.total
    c_we = total_cost(net, wardrop_no_tax(net, demand))
    c_opt = optimal_cost(net, demand)
    assert c_we >= c_opt - 1e-9 * max(1.0, c_opt)
    if demand <= net.tax_threshold():
        assert c_we == pytest.approx(c_opt, abs=1e-9, rel=1e-9)


@given(net=nets, frac=st.floats(0.0, 0.999))
@settings(max_examples=200)
def test_selfish_overloads_the_large_network(net, frac):
    demand = frac * net.total
    assert (
        optimal_assignment(net, demand).f2
        <= wardrop_no_tax(net, demand).f2 + 1e-12
    )


@given(net=nets, frac=st.floats(0.01, 0.99), scale=st.floats(0.01, 100))
@settings(max_examples=200)
def test_scale_covariance(net, frac, scale):
    demand = frac * net.total
    scaled = NetworkPair(net.c1 * scale, net.c2 * scale)
    f = optimal_assignment(net, demand)
    g = optimal_assignment(scaled, demand * scale)
    assert g.f1 == pytest.approx(f.f1 * scale, rel=1e-9, abs=1e-12)
    assert g.f2 == pytest.approx(f.f2 * scale, rel=1e-9, abs=1e-12)
    l = delay(net.c1, f.f1)
    assert delay(scaled.c1, g.f1) == pytest.approx(l / scale, rel=1e-9)
    we = wardrop_no_tax(net, demand)
    we_s = wardrop_no_tax(scaled, demand * scale)
    assert we_s.f1 == pytest.approx(we.f1 * scale, rel=1e-9, abs=1e-12)


@given(net=nets)
@settings(max_examples=200)
def test_continuity_at_branch_boundaries(net):
    for fn, boundary in (
        (wardrop_no_tax, net.c2 - net.c1),
        (optimal_assignment, net.tax_threshold()),
    ):
        if not 0 < boundary < net.total - 1e-6:
            continue
        lo = fn(net, boundary - 1e-8)
        hi = fn(net, boundary + 1e-8)
        assert abs(hi.f1 - lo.f1) <= 1e-6
        assert abs(hi.f2 - lo.f2) <= 1e-6


@given(net=nets, frac=st.floats(0.01, 0.99))
@settings(max_examples=300)
def test_kkt_equal_marginal_costs(net, frac):
    demand = frac * net.total
    f = optimal_assignment(net, demand)
    if f.f1 <= 0 or f.f2 <= 0:
        return
    m1 = net.c1 / (net.c1 - f.f1) ** 2
    m2 = net.c2 / (net.c2 - f.f2) ** 2
    assert m1 == pytest.approx(m2, rel=1e-6)


@given(net=nets, frac=st.floats(0.01, 0.99))
@settings(max_examples=300)
def test_wardrop_equal_latencies(net, frac):
    demand = frac * net.total
    f = wardrop_no_tax(net, demand)
    if f.f1 <= 0:
        return
    assert delay(net.c1, f.f1) == pytest.approx(
        delay(net.c2, f.f2), abs=1e-9, rel=1e-9
    )


# The kernels as written before ``NetworkPair`` cached its roots: fresh
# ``math.sqrt`` calls and ``max``/``min`` clamps.
def fresh_split(net, demand):
    if demand <= net.c2 - math.sqrt(net.c1 * net.c2):
        return 0.0, demand
    r1, r2 = math.sqrt(net.c1), math.sqrt(net.c2)
    f1 = ((demand - net.c2) * r1 + net.c1 * r2) / (r1 + r2)
    f2 = ((demand - net.c1) * r2 + net.c2 * r1) / (r1 + r2)
    return max(0.0, f1), min(f2, demand)


def fresh_cost(net, demand):
    if demand <= net.c2 - math.sqrt(net.c1 * net.c2):
        if demand == 0:
            return 0.0
        return demand / (net.c2 - demand)
    root = math.sqrt(net.c1 * net.c2)
    return (2.0 * demand - net.c1 - net.c2 + 2.0 * root) / (net.c1 + net.c2 - demand)


def fresh_tau2(net, demand, d_b, alpha_a, alpha_b):
    if demand <= net.c2 - math.sqrt(net.c1 * net.c2):
        return 0.0, None
    alpha = alpha_a if d_b <= fresh_split(net, demand)[1] else alpha_b
    tau2 = (net.c2 - net.c1) / (
        alpha * math.sqrt(net.c1 * net.c2) * (net.c1 + net.c2 - demand)
    )
    return tau2, alpha


any_nets = st.builds(
    lambda c1, gap: NetworkPair(c1, c1 + gap),
    st.floats(1e-3, 1e3),
    st.floats(1e-6, 1e3),
)


@st.composite
def kernel_cases(draw):
    net = draw(any_nets)
    thr = net.tax_threshold()
    side = draw(st.sampled_from(("below", "at", "just below", "just above", "above")))
    if side == "below":
        demand = draw(st.floats(0.0, thr))
    elif side == "at":
        demand = thr
    elif side == "just below":
        demand = math.nextafter(thr, -INF)
    elif side == "just above":
        demand = math.nextafter(thr, INF)
    else:
        demand = draw(st.floats(thr, net.total, exclude_max=True))
    f2 = fresh_split(net, demand)[1]
    d_b = draw(st.just(f2) | st.floats(0.0, 2.0 * demand + 1.0))
    alpha_b = draw(st.floats(0.01, 10.0))
    alpha_a = alpha_b + draw(st.floats(1e-6, 10.0))
    return net, demand, d_b, alpha_a, alpha_b


def same_bits(x, y):
    # repr tells -0.0 from 0.0, and equals itself for nan.
    return repr(x) == repr(y)


@given(case=kernel_cases())
@settings(max_examples=500)
def test_kernels_equal_the_fresh_root_formulas(case):
    net, demand, d_b, alpha_a, alpha_b = case
    assert _optimal_split(net, demand) == fresh_split(net, demand)
    assert same_bits(_optimal_split(net, demand), fresh_split(net, demand))
    assert _optimal_cost(net, demand) == fresh_cost(net, demand)
    assert _tau2(net, demand, d_b, alpha_a, alpha_b) == fresh_tau2(
        net, demand, d_b, alpha_a, alpha_b
    )


@pytest.mark.parametrize("demand", [0.0, -0.0, NAN, INF, 1e308])
def test_split_clamps_keep_max_and_min_results(demand):
    # Outside the checked domain too: the comparisons that replace max and
    # min give their results for signed zeros, nan and inf.
    for net in (NET, NetworkPair(1e-3, 1e3)):
        assert same_bits(_optimal_split(net, demand), fresh_split(net, demand))


@given(net=any_nets)
def test_cached_roots_stay_out_of_repr_eq_hash_and_pickle(net):
    c1, c2 = net.c1, net.c2
    assert net._r1 == math.sqrt(c1)
    assert net._r2 == math.sqrt(c2)
    assert net._r12 == math.sqrt(c1 * c2)
    assert repr(net) == f"NetworkPair(c1={c1!r}, c2={c2!r})"
    assert hash(net) == hash((c1, c2))
    other = NetworkPair(c1, c2)
    for name in ("_r1", "_r2", "_r12"):
        object.__setattr__(other, name, -1.0)
    assert other == net
    assert hash(other) == hash(net)
    loaded = pickle.loads(pickle.dumps(net))
    assert loaded == net
    assert vars(loaded) == vars(net)

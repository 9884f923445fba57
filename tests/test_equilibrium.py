import dataclasses
import math
import random
import sys
from decimal import Decimal

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nettax.analytics import (
    Demand,
    DemandExceedsCapacity,
    NetworkPair,
    Sensitivities,
    TaxVector,
    delay,
    optimal_assignment,
    optimal_tax,
    wardrop_no_tax,
)
from nettax import equilibrium
from nettax.equilibrium import (
    ClassFlowSplit,
    NoEquilibriumFound,
    class_latencies,
    taxed_equilibrium,
    verify_proposition1,
)

from fingerprint import BANDS, TAX_KINDS, solver_instance
from oracles import (
    eager_equilibrium,
    exact_equilibrium,
    latencies_of_report,
    validates,
    wardrop_grid_oracle,
)

NET = NetworkPair(4, 11)
SENS = Sensitivities(2, 1)
# Prices near 1e11 with a tax difference near 1e-10: summed, the four
# prices cancel to about 1e-5, an ulp of 1e11; the gaps take t = 30 and 10.
PRICEY_GAME = (NET, Demand(7, 1), Sensitivities(3e11, 1e11), TaxVector(0.5, 0.5 + 1e-10))


def test_class_flow_split_helpers():
    split = ClassFlowSplit(1, 0.5, 2, 3.5)
    assert split.f1 == 1.5
    assert split.f2 == 5.5
    assert (split.f1_a + split.f2_a, split.f1_b + split.f2_b) == (3.0, 4.0)
    with pytest.raises(ValueError):
        ClassFlowSplit(-1, 0, 0, 0)


class TestTaxedEquilibrium:
    def test_optimal_tax_reaches_optimal_flows(self):
        taxes = optimal_tax(NET, Demand(7, 1), SENS)
        rep = taxed_equilibrium(NET, Demand(7, 1), SENS, taxes)
        opt = optimal_assignment(NET, 8)
        assert rep.split.f1 == pytest.approx(opt.f1, abs=1e-9)
        assert rep.split.f2 == pytest.approx(opt.f2, abs=1e-9)
        # the delay-sensitive class stays entirely on the fast network
        assert rep.split.f1_b == 0.0
        assert rep.split.f2_b == pytest.approx(1.0)
        assert rep.residual <= 1e-9

    def test_zero_tax_collapses_to_no_tax_equilibrium(self):
        rep = taxed_equilibrium(NET, Demand(4, 4), SENS, TaxVector(0, 0))
        assert rep.split.f1 == pytest.approx(0.5, abs=1e-12)
        assert rep.split.f2 == pytest.approx(7.5, abs=1e-12)
        # proportional class decomposition of the aggregates
        assert rep.split.f1_a == pytest.approx(0.25, abs=1e-12)
        assert rep.split.f1_b == pytest.approx(0.25, abs=1e-12)

    def test_single_class_heavy_tax(self):
        # only class B present; a big price on network 2 pushes it to 1
        rep = taxed_equilibrium(NET, Demand(0, 5), SENS, TaxVector(0, 10))
        assert rep.split.f1_a == 0.0 and rep.split.f2_a == 0.0
        l1 = delay(NET.c1, rep.split.f1)
        l2 = delay(NET.c2, rep.split.f2)
        if rep.split.f1_b > 1e-9 and rep.split.f2_b > 1e-9:
            assert l1 == pytest.approx(l2 + 1 * 10, rel=1e-9)
        assert rep.residual <= 1e-9

    def test_zero_demand(self):
        rep = taxed_equilibrium(NET, Demand(0, 0), SENS, TaxVector(0, 1))
        assert rep.split == ClassFlowSplit(0, 0, 0, 0)

    def test_zero_tax_any_split_matches_aggregates(self):
        for d_a in (0.0, 2.0, 8.0):
            dem = Demand(d_a, 8.0 - d_a)
            rep = taxed_equilibrium(NET, dem, SENS, TaxVector(0, 0))
            agg = wardrop_no_tax(NET, 8.0)
            assert rep.split.f1 == pytest.approx(agg.f1, abs=1e-12)
            assert rep.split.f2 == pytest.approx(agg.f2, abs=1e-12)

    def test_network1_taxed_instead(self):
        # tau1 > tau2 pushes everyone toward network 2 first
        rep = taxed_equilibrium(NET, Demand(3, 3), SENS, TaxVector(0.5, 0.0))
        assert rep.split.f1 == pytest.approx(0.0, abs=1e-9)
        assert rep.residual <= 1e-9

    @pytest.mark.parametrize(
        "dem, taxes",
        [
            # u = -6e4: the sum (u + 2) + sqrt(u^2 + 4) would cancel.
            (Demand(12, 0), TaxVector(1e4, 0)),
            # u = -6e-12: the difference (u + 2) - sqrt(u^2 + 4) would.
            (Demand(1, 11), TaxVector(1e-12, 0)),
        ],
    )
    def test_network1_tax_root_needs_no_fallback(self, dem, taxes):
        assert some_candidate_validates(NET, dem, SENS, taxes, 1e-9)

    @pytest.mark.parametrize("tau1", [1e7, 1e8, 1e9])
    @pytest.mark.parametrize("d_a, d_b", [(6, 6), (8, 4), (10, 2), (5, 7)])
    def test_heavy_network1_tax_pushes_class_b_to_network1(self, tau1, d_a, d_b):
        # tau1 > tau2: class B, the less price-averse class, takes network
        # 1, where network 2's overflow of 1 must go (D is 0.8 of capacity).
        # Network 2 is then within 1/(alpha_b * tau1) of its capacity: its
        # slack is the root's smaller one, not c2 - f2 of the flows.
        rep = taxed_equilibrium(NET, Demand(d_a, d_b), SENS, TaxVector(tau1, 0))
        assert rep.split.f1_a == 0
        assert rep.split.f1_b > 0
        assert validates(rep, 1e-9)

    def test_prices_far_above_the_latencies(self):
        rep = taxed_equilibrium(*PRICEY_GAME)
        assert rep.split.f1_a > 0 and rep.split.f2_a > 0
        assert validates(rep, 1e-9)

    def test_near_saturation_validates_at_the_tolerance(self):
        # 1e-7 below capacity, where 1/(c - f) of the rounded flows would
        # miss the 1e-9 tolerance and the carried slacks do not.
        dem = Demand(15 - 1e-7 - 1, 1)
        taxes = optimal_tax(NET, dem, SENS)
        assert validates(taxed_equilibrium(NET, dem, SENS, taxes), 1e-9)
        ok, diffs = verify_proposition1(NET, dem, SENS)
        assert ok, diffs


def some_candidate_validates(net, dem, sens, taxes, tol):
    dtau = taxes.tau2 - taxes.tau1
    t_a, t_b = sens.alpha_a * dtau, sens.alpha_b * dtau
    candidates = equilibrium._candidates(net, dem.total(), dem.d_a, dem.d_b, t_a, t_b)
    return any(equilibrium._report(c, t_a, t_b, tol)[3] for c in candidates)


@st.composite
def solver_instances(draw):
    """A taxed game with demand anywhere below capacity, down to one ulp
    of headroom, with taxes in either order, empty classes, demands within
    1e-12 of c1, c2 and the tax threshold, and tax differences from 1e-13
    to 1e8."""
    c1 = draw(st.floats(0.1, 50))
    net = NetworkPair(c1, c1 + draw(st.floats(0.01, 100)))
    anchor = draw(st.sampled_from([None, net.c1, net.c2, net.tax_threshold(), net.total]))
    if anchor is None:
        demand = draw(st.floats(0, net.total, exclude_max=True))
    elif anchor == net.total:
        demand = net.total * draw(st.floats(1 - 1e-5, 1, exclude_max=True))
    else:
        demand = anchor + draw(st.floats(-1e-12, 1e-12))
    d_b = demand * draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    dem = Demand(max(demand - d_b, 0.0), d_b)
    assume(dem.total() < net.total)
    alpha_b = draw(st.floats(0.01, 10))
    sens = Sensitivities(alpha_b * draw(st.floats(1.001, 10)), alpha_b)
    if draw(st.booleans()):
        taxes = optimal_tax(net, dem, sens)
    else:
        tau1 = draw(st.sampled_from([0.0]) | st.floats(0, 10))
        dtau = draw(st.floats(1e-13, 1e-7) | st.floats(0, 10) | st.floats(10, 1e8))
        taxes = TaxVector(tau1, tau1 + dtau)
        if draw(st.booleans()):
            taxes = TaxVector(taxes.tau2, taxes.tau1)
    return net, dem, sens, taxes


NEAR_C1 = 4 - 1e-9


def corner_root_game(d_a, d_b, slack, alpha):
    """A game on NET whose root for the class with sensitivity ``alpha``
    leaves network 1 the given slack: network 2 alone is taxed."""
    s = NET.total - (d_a + d_b)
    return NET, Demand(d_a, d_b), SENS, TaxVector(0.0, (1 / slack - 1 / (s - slack)) / alpha)


@settings(max_examples=300, deadline=None)
@given(solver_instances())
@example(PRICEY_GAME)
# Roots within half an ulp of a corner, with network 1 loaded to 1e-9
# below c1: the splitting class would carry 1e-16 on its lesser network,
# which rounds to 0, and the corner's own slack misses the root's by 1e-7
# relative. A splits; B splits with A filling network 1; B splits with
# everything on network 1.
@example(corner_root_game(NEAR_C1, 0.0, (4 - NEAR_C1) + 1e-16, SENS.alpha_a))
@example(corner_root_game(NEAR_C1, 1.0, (4 - NEAR_C1) - 1e-16, SENS.alpha_b))
@example(corner_root_game(2.0, NEAR_C1 - 2.0, (4 - NEAR_C1) + 1e-16, SENS.alpha_b))
def test_some_candidate_split_validates(instance):
    # Anywhere below capacity the closed-form supports are complete at
    # 1e-9, with the slacks carried from the root.
    assert some_candidate_validates(*instance, 1e-9)


def solver_outcome(solve, instance):
    """The report, or the message of the NoEquilibriumFound or the
    DemandExceedsCapacity raised."""
    try:
        return solve(*instance)
    except (NoEquilibriumFound, DemandExceedsCapacity) as exc:
        return f"{type(exc).__name__}: {exc}"


def takes_candidate_path(net, dem, sens, taxes) -> bool:
    return dem.total() > 0 and taxes.tau2 != taxes.tau1


@settings(max_examples=300, deadline=None)
@given(solver_instances())
def test_lazy_search_equals_eager_search(instance):
    assume(takes_candidate_path(*instance))
    expected = solver_outcome(eager_equilibrium, instance)
    assert solver_outcome(taxed_equilibrium, instance) == expected


@pytest.mark.parametrize("headroom", [1e-6, 1e-9, 1e-11])
def test_lazy_search_equals_eager_search_near_saturation(headroom):
    # The fingerprint's games (optimal or arbitrary taxes, differences up
    # to 1e8) with demand exactly (1 - headroom) of the combined capacity:
    # the two searches agree, and neither raises.
    rng = random.Random(f"near saturation/{headroom}")
    for k in range(400):
        instance = solver_instance(rng, (headroom, headroom), TAX_KINDS[k % 2])
        if takes_candidate_path(*instance):
            rep = taxed_equilibrium(*instance)
            assert rep == eager_equilibrium(*instance)
            assert validates(rep, 1e-9)


# The relative error of a reported latency, to first order in
# eps = 2**-52, with C = c1 + c2 and s = C - D exact:
# - s is computed as (c1 + c2) - (d_a + d_b), three roundings that move
#   it by at most eps * (C/s + 1/2) relative; t = alpha * (tau2 - tau1)
#   takes two, at most eps.
# - The smaller slack is s * x(t*s) with d ln x / d ln u in [-1, 0], so
#   it moves by at most the larger of the two. The root takes five
#   roundings (2.5 eps) and 1/a one more: eps * C/s + 3.5 eps.
# - The larger slack s - a moves with s by a factor of at most
#   1 + kappa, and with t by at most kappa, where kappa = (sqrt(2) - 1)/2,
#   its largest sensitivity to u (at u = 2). The smaller slack's
#   rounding, the subtraction and 1/a add 3.5 eps: in all
#   (1 + kappa) * eps * C/s + 4.31 eps.
# - A corner's slack c - d is one rounding, as is the slack c - d_a - d_b
#   of a network carrying everything (math.fsum); the zero-tax slack s/2
#   moves as s does.
# Both bounds are within K * eps * (C/s + 1) for K >= max(1 + kappa, 4.31);
# 4.4 leaves room for the second-order terms.
LATENCY_ERROR_K = 4.4


@pytest.mark.parametrize("kind", TAX_KINDS)
@pytest.mark.parametrize("band", BANDS, ids=lambda band: "gap=({:g},{:g}]".format(*band))
def test_latencies_are_within_the_rounding_bound_of_the_exact_answer(band, kind):
    rng = random.Random(f"exact/{band}/{kind}")
    for _ in range(2000):
        net, dem, sens, taxes = instance = solver_instance(rng, band, kind)
        c = Decimal(net.c1) + Decimal(net.c2)
        c_over_s = float(c / (c - Decimal(dem.d_a) - Decimal(dem.d_b)))
        bound = Decimal(LATENCY_ERROR_K * sys.float_info.epsilon * (c_over_s + 1))
        got = taxed_equilibrium(*instance).latencies
        for l, exact in zip(got, exact_equilibrium(*instance)):
            assert abs(Decimal(l) - exact) <= bound * exact, (instance, got)


class TestLazyCandidates:
    """The solver builds a candidate, and computes the second root, only
    when every candidate before it has failed; ``built`` counts the
    candidates built. The objects of the report are built once, at the
    end. Every case here taxes network 2 more: with tau1 > tau2,
    ``_candidates`` calls itself with the classes swapped, and the
    counter would see each candidate twice."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"_solve_gap": 0, "built": 0, "_report": 0, "ClassFlowSplit": 0, "EquilibriumReport": 0}
        for name in ("_solve_gap", "_report", "ClassFlowSplit", "EquilibriumReport"):

            def counted(*args, _name=name, _original=getattr(equilibrium, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(equilibrium, name, counted)

        def candidates(*args, _original=equilibrium._candidates):
            for split in _original(*args):
                calls["built"] += 1
                yield split

        monkeypatch.setattr(equilibrium, "_candidates", candidates)
        return calls

    @pytest.mark.parametrize(
        "dem, taxes, split, roots, builds",
        [
            # A splits, B on network 2: the first candidate.
            (Demand(7, 1), None, (1.3668, 0, 5.6332, 1), 1, 1),
            # A's root lies beyond d_a, so the first candidate is A on
            # network 1 and B on network 2; it validates before B's root.
            (Demand(2, 8), TaxVector(0, 0.12), (2, 0, 0, 8), 1, 1),
            # A on network 1 fails, B splits: "everything on network 2"
            # is never built.
            (Demand(2, 8), None, (2, 0.1191, 0, 7.8809), 2, 2),
        ],
    )
    def test_stops_at_the_first_valid_candidate(self, calls, dem, taxes, split, roots, builds):
        taxes = taxes or optimal_tax(NET, dem, SENS)
        rep = taxed_equilibrium(NET, dem, SENS, taxes)
        assert dataclasses.astuple(rep.split) == pytest.approx(split, abs=1e-4)
        assert calls == {"_solve_gap": roots, "built": builds, "_report": builds,
                         "ClassFlowSplit": 1, "EquilibriumReport": 1}

    def test_class_latencies_builds_no_report(self, calls):
        # The first case above, reached through class_latencies.
        class_latencies(NET, 8, 7 / 8, SENS)
        assert calls == {"_solve_gap": 1, "built": 1, "_report": 1,
                         "ClassFlowSplit": 0, "EquilibriumReport": 0}


class TestProposition1:
    def test_branch_a(self):
        ok, (df1, df2) = verify_proposition1(NET, Demand(7, 1), SENS, tol=1e-6)
        assert ok, (df1, df2)

    def test_branch_b(self):
        ok, _ = verify_proposition1(NET, Demand(1, 7), SENS, tol=1e-6)
        assert ok

    def test_below_threshold_zero_tax(self):
        dem = Demand(2, 2)
        assert optimal_tax(NET, dem, SENS).tau2 == 0.0
        ok, _ = verify_proposition1(NET, dem, SENS, tol=1e-6)
        assert ok


def random_instances(n, seed=20240817, taxed=True):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        c1 = rng.uniform(1.0, 4.0)
        c2 = c1 + rng.uniform(0.5, 5.0)
        net = NetworkPair(c1, c2)
        demand = rng.uniform(0.1, 0.95) * net.total
        # keep demands on the oracle lattice so the grid hits them exactly
        d_a = round(rng.uniform(0, demand), 3)
        d_b = round(demand - d_a, 3)
        if d_a < 0 or d_b < 0 or d_a + d_b >= net.total:
            continue
        alpha_b = rng.uniform(0.2, 3.0)
        alpha_a = alpha_b * rng.uniform(1.1, 4.0)
        sens = Sensitivities(alpha_a, alpha_b)
        if taxed:
            base = optimal_tax(net, Demand(d_a, d_b), sens).tau2
            tau2 = rng.uniform(0, 3 * base) if base > 0 else rng.uniform(0, 0.5)
        else:
            tau2 = 0.0
        out.append((net, Demand(d_a, d_b), sens, TaxVector(0.0, tau2)))
    return out


def test_matches_grid_oracle_sample():
    # smaller sample here; the full 200-instance sweep runs in acceptance
    for net, dem, sens, taxes in random_instances(40, seed=7):
        rep = taxed_equilibrium(net, dem, sens, taxes)
        f1_star, _ = wardrop_grid_oracle(
            net.c1, net.c2, dem.d_a, dem.d_b,
            sens.alpha_a, sens.alpha_b, taxes.tau1, taxes.tau2,
        )
        assert rep.split.f1 == pytest.approx(f1_star, abs=2e-3)


def test_class_separation_under_positive_tax():
    for net, dem, sens, taxes in random_instances(60, seed=99):
        if taxes.tau2 <= 0:
            continue
        rep = taxed_equilibrium(net, dem, sens, taxes)
        if rep.split.f1_b > 1e-9:
            assert rep.split.f2_a <= 1e-9


def test_proposition1_parameter_grid():
    # light version of the acceptance grid
    for load in (0.35, 0.55, 0.75, 0.92):
        demand = load * NET.total
        for b_share in (0.0, 0.3, 0.7, 1.0):
            for ratio in (1.5, 3, 10):
                sens = Sensitivities(ratio, 1.0)
                dem = Demand(demand * (1 - b_share), demand * b_share)
                ok, diffs = verify_proposition1(NET, dem, sens, tol=1e-5)
                assert ok, (load, b_share, ratio, diffs)


@settings(max_examples=300, deadline=None)
@given(solver_instances(), st.sampled_from([0.0, 1.0]) | st.floats(0, 1), st.booleans())
def test_class_latencies_equal_the_report_route(instance, share_a, own_share):
    net, dem, sens, _ = instance
    demand = dem.total()
    if own_share and demand > 0:
        share_a = dem.d_a / demand
    got = solver_outcome(class_latencies, (net, demand, share_a, sens))
    expected = solver_outcome(latencies_of_report, (net, demand, share_a, sens))
    # repr takes NaN as equal to NaN and tells -0.0 from 0.0.
    assert repr(got) == repr(expected)


class TestClassLatencies:
    def test_all_class_a(self):
        lat_a, lat_b, lat_ref = class_latencies(NET, 8, 1.0, SENS)
        assert math.isnan(lat_b)
        assert lat_ref == pytest.approx(0.2857, abs=1e-3)
        opt = optimal_assignment(NET, 8)
        expected = (
            opt.f1 * delay(4, opt.f1) + opt.f2 * delay(11, opt.f2)
        ) / 8
        assert lat_a == pytest.approx(expected, abs=1e-9)

    def test_share_at_optimal_split_point(self):
        opt = optimal_assignment(NET, 8)
        lat_a, lat_b, _ = class_latencies(NET, 8, opt.f1 / 8, SENS)
        assert lat_a == pytest.approx(delay(4, opt.f1), abs=1e-6)
        assert lat_a == pytest.approx(0.380, abs=1e-3)
        assert lat_b == pytest.approx(delay(11, opt.f2), abs=1e-6)

    def test_below_threshold_everyone_shares_one_latency(self):
        for share in (0.0, 0.4, 1.0):
            lat_a, lat_b, lat_ref = class_latencies(NET, 4, share, SENS)
            for v in (lat_a, lat_b, lat_ref):
                if not math.isnan(v):
                    assert v == pytest.approx(1 / 7, abs=1e-9)

    def test_delay_sensitive_class_beats_the_untaxed_latency(self):
        for share in (0.1, 0.3, 0.5, 0.7, 0.9):
            lat_a, lat_b, lat_ref = class_latencies(NET, 8, share, SENS)
            assert lat_b <= lat_ref + 1e-9
            assert lat_b <= lat_a + 1e-9

    def test_price_averse_class_pays_in_latency_when_it_fits_network1(self):
        # while class A fits entirely on the slow network it sits above the
        # untaxed latency; for larger shares its overflow rides network 2
        # and its average improves (total delay is minimized after all)
        f1_share = optimal_assignment(NET, 8).f1 / 8
        for share in (0.05, 0.1, f1_share):
            lat_a, _, lat_ref = class_latencies(NET, 8, share, SENS)
            assert lat_a >= lat_ref - 1e-9

import dataclasses
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nettax.analytics import (
    Demand,
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

from fingerprint import TAX_KINDS, solver_instance
from oracles import eager_equilibrium, latencies_of_report, prices, validates, wardrop_grid_oracle

NET = NetworkPair(4, 11)
SENS = Sensitivities(2, 1)


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
        # Network 2 is then within 1/(alpha_b * tau1) of its capacity, where
        # only the 1e-6 re-check validates.
        rep = taxed_equilibrium(NET, Demand(d_a, d_b), SENS, TaxVector(tau1, 0))
        assert rep.split.f1_a == 0
        assert rep.split.f1_b > 0
        assert validates(rep, 1e-6)


class TestFallback:
    def test_near_saturation_reaches_the_fallback(self):
        # 1e-7 below capacity, rounding in 1/(c - f) exceeds the 1e-9
        # tolerance of every closed-form candidate; the solver re-checks
        # them at 1e-6.
        dem = Demand(15 - 1e-7 - 1, 1)
        taxes = optimal_tax(NET, dem, SENS)
        assert not some_candidate_validates(NET, dem, SENS, taxes, 1e-9)
        assert validates(taxed_equilibrium(NET, dem, SENS, taxes), 1e-6)
        ok, diffs = verify_proposition1(NET, dem, SENS)
        assert ok, diffs


def some_candidate_validates(net, dem, sens, taxes, tol):
    dtau = taxes.tau2 - taxes.tau1
    splits = equilibrium._candidates(
        net, dem.total(), dem.d_a, dem.d_b, sens.alpha_a * dtau, sens.alpha_b * dtau
    )
    pay = prices(sens, taxes)
    return any(equilibrium._report(net, pay, split, tol)[3] for split in splits)


@st.composite
def solver_instances(draw):
    """A taxed game at most (1 - 1e-5) of the way to saturation, with
    taxes in either order, empty classes and demands within 1e-12 of c1,
    c2 and the tax threshold, and tax differences down to 1e-13."""
    c1 = draw(st.floats(0.1, 50))
    net = NetworkPair(c1, c1 + draw(st.floats(0.01, 100)))
    cap = (1 - 1e-5) * net.total
    anchor = draw(st.sampled_from([None, net.c1, net.c2, net.tax_threshold()]))
    if anchor is None:
        demand = draw(st.floats(0, cap))
    else:
        demand = anchor + draw(st.floats(-1e-12, 1e-12))
    d_b = demand * draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    dem = Demand(max(demand - d_b, 0.0), d_b)
    assume(dem.total() <= cap)
    alpha_b = draw(st.floats(0.01, 10))
    sens = Sensitivities(alpha_b * draw(st.floats(1.001, 10)), alpha_b)
    if draw(st.booleans()):
        taxes = optimal_tax(net, dem, sens)
    else:
        tau1 = draw(st.sampled_from([0.0]) | st.floats(0, 10))
        dtau = draw(st.floats(1e-13, 1e-7) | st.floats(0, 10))
        taxes = TaxVector(tau1, tau1 + dtau)
        if draw(st.booleans()):
            taxes = TaxVector(taxes.tau2, taxes.tau1)
    return net, dem, sens, taxes


@settings(max_examples=300, deadline=None)
@given(solver_instances())
def test_some_candidate_split_validates(instance):
    # Away from saturation the closed-form supports are complete at 1e-9:
    # the 1e-6 re-check is never needed.
    assert some_candidate_validates(*instance, 1e-9)


def solver_outcome(solve, instance):
    """The report, or the message of the NoEquilibriumFound raised."""
    try:
        return solve(*instance)
    except NoEquilibriumFound as exc:
        return f"NoEquilibriumFound: {exc}"


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
    # to 1e8) with demand exactly (1 - headroom) of the combined capacity.
    rng = random.Random(f"near saturation/{headroom}")
    paths = {"first pass": 0, "re-check": 0, "raised": 0}
    for k in range(400):
        instance = solver_instance(rng, (headroom, headroom), TAX_KINDS[k % 2])
        if not takes_candidate_path(*instance):
            continue
        got = solver_outcome(taxed_equilibrium, instance)
        assert got == solver_outcome(eager_equilibrium, instance)
        if isinstance(got, str):
            paths["raised"] += 1
        else:
            paths["first pass" if validates(got, 1e-9) else "re-check"] += 1
    # Both passes of the search, and its failure, are compared here.
    assert min(paths.values()) > 0, paths


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

    def test_recheck_builds_each_candidate_once(self, calls):
        # The fallback case above: no candidate validates at 1e-9, and the
        # 1e-6 re-check reuses the splits already built.
        dem = Demand(15 - 1e-7 - 1, 1)
        taxes = optimal_tax(NET, dem, SENS)
        dtau = taxes.tau2 - taxes.tau1
        built = len(list(equilibrium._candidates(
            NET, dem.total(), dem.d_a, dem.d_b, SENS.alpha_a * dtau, SENS.alpha_b * dtau
        )))
        calls.update(dict.fromkeys(calls, 0))  # listing them was counted too
        rep = taxed_equilibrium(NET, dem, SENS, taxes)
        assert not validates(rep, 1e-9)
        assert calls["_solve_gap"] == 2 and calls["built"] == built
        assert built < calls["_report"] <= 2 * built

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

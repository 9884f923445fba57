"""Two-class Wardrop equilibrium under an arbitrary tax vector.

The fluid game: each class i in {A, B} places its demand d_i on the two
links so that every link actually used by class i has minimal perceived
cost latency + alpha_i * tau_p. A class's cost on network 1 less its
cost on network 2 is g - t_i, with t_i = alpha_i * (tau2 - tau1) and the
latency gap

    g(f1) = l1(f1) - l2(D - f1),

which is strictly increasing in the aggregate f1. The costs are a shared
latency plus a class constant, so the equilibrium minimizes a convex
potential, strictly convex in the aggregate flows, and the aggregate is
unique (Beckmann, McGuire & Winsten 1956, Studies in the Economics of
Transportation). The class with the larger t_i fills network 1 first,
so the support is computed, not searched for: it follows from where at
most two closed-form roots of g = t_i fall. The solver carries the
slacks a = c - f of both networks, and the latencies are 1/a: near
saturation c - f of the rounded flows would cancel, and the slacks do
not.

The solver runs on floats in one kernel, ``_solve``. ``taxed_equilibrium``
and ``class_latencies`` wrap it, and only ``taxed_equilibrium`` builds the
dataclasses of a result, once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analytics import (
    INF,
    Demand,
    NetworkPair,
    Sensitivities,
    TaxVector,
    link_cost,
    optimal_assignment,
    optimal_tax,
    _check_demand,
    _tau2,
    _wardrop_split,
)


@dataclass(frozen=True)
class ClassFlowSplit:
    """Per-class, per-network flows (Mbit/s): f<p>_<class>."""

    f1_a: float
    f1_b: float
    f2_a: float
    f2_b: float

    def __post_init__(self):
        for v in (self.f1_a, self.f1_b, self.f2_a, self.f2_b):
            if v < 0:
                raise ValueError(f"class flows must be >= 0, got {self}")

    @property
    def f1(self) -> float:
        return self.f1_a + self.f1_b

    @property
    def f2(self) -> float:
        return self.f2_a + self.f2_b


@dataclass(frozen=True)
class EquilibriumReport:
    """Solver output plus the diagnostics needed to audit it.

    ``residual`` is the largest violation of the equilibrium inequalities
    over all (network, class) pairs carrying more than the tolerance. It
    is reported, not enforced: the solver computes its support. The
    property tests of ``tests/test_equilibrium.py`` show it within the
    tolerance, scaled by the largest finite latency above 1, over all of
    D < C, with latencies within a derived rounding bound of an exact
    answer.

    Only the aggregate flows are contract-bearing at zero tax: the class
    decomposition is not unique there, and the solver reports the split
    proportional to demand.
    """

    split: ClassFlowSplit
    latencies: tuple[float, float]
    cost_a: tuple[float, float]
    cost_b: tuple[float, float]
    residual: float


def _solve_gap(s: float, t: float) -> tuple[float, float]:
    """Slacks (a1, a2) = (c1 - f1, c2 - f2) with 1/a1 - 1/a2 = t and
    a1 + a2 = s = c1 + c2 - D > 0, in closed form.

    The smaller slack is 2s / ((|u| + 2) + sqrt(u^2 + 4)) with u = t*s,
    a root of |t|*a^2 - (|u| + 2)*a + s = 0 written as a sum of positive
    terms, exact at t = 0. It is network 1's when u >= 0 (the tax
    difference pushes flow onto network 1) and network 2's otherwise. The
    larger slack is s minus the smaller, at least s/2, so neither slack
    is a difference of nearly equal numbers.
    """
    u = t * s
    a = 2.0 * s / ((abs(u) + 2.0) + math.sqrt(u * u + 4.0))
    return (a, s - a) if u >= 0.0 else (s - a, a)


def _report(point, t_a, t_b, tol):
    """(l1, l2, residual) of a point (f1_a, f1_b, f2_a, f2_b, a1, a2):
    its class flows and the slacks a = c - f of the two networks, with
    t_i = alpha_i * (tau2 - tau1).

    The latencies are 1/a, +inf at a slack of 0 or less. A class's cost
    on network 1 less its cost on network 2 is l1 - l2 - t_i, so the
    prices themselves, which can dwarf the latencies, never enter. The
    residual is the largest cost advantage of the other network over one
    carrying more than ``tol`` of a class. It only takes a gap above 0.0,
    so its sign of zero does not matter.
    """
    f1_a, f1_b, f2_a, f2_b, a1, a2 = point
    l1 = 1.0 / a1 if a1 > 0.0 else INF
    l2 = 1.0 / a2 if a2 > 0.0 else INF
    gap = l1 - l2
    gap_a = gap - t_a
    gap_b = gap - t_b
    residual = gap_a if f1_a > tol and gap_a > 0.0 else 0.0
    if f2_a > tol and -gap_a > residual:
        residual = -gap_a
    if f1_b > tol and gap_b > residual:
        residual = gap_b
    if f2_b > tol and -gap_b > residual:
        residual = -gap_b
    return l1, l2, residual


def _solve(net, d_a, d_b, alpha_a, alpha_b, tau1, tau2, tol):
    """(split, l1, l2, residual) of the equilibrium, for a demand the
    caller has checked and tol > 0; the split is (f1_a, f1_b, f2_a, f2_b).

    Without demand or tax difference the one split is reported as it is,
    proportional to demand at zero tax difference. Otherwise class X, the
    one with the larger t = alpha * (tau2 - tau1) (A on a tie), fills
    network 1 first. If the root of g = t_X puts less than 0 on network
    1, everything goes on network 2; if at most d_X, X splits. Otherwise
    X fills network 1, and the root of g = t_Y, less d_X, is Y's flow on
    network 1: below 0 gives the corner (X on network 1, Y on network 2),
    at most d_Y a split of Y, and more puts everything on network 1. A
    split keeps its root's slacks, also when the root rounds onto an end:
    the class's flow on its lesser network is then below an ulp of the
    flows, and the corner's slack can miss the root's by far more than
    rounding. A corner's slack is c - d rounded once, and that of a
    network carrying everything c - d_a - d_b rounded once.
    """
    demand_total = d_a + d_b
    dtau = tau2 - tau1
    t_a = alpha_a * dtau
    t_b = alpha_b * dtau
    c1, c2 = net.c1, net.c2
    if demand_total == 0:
        point = (0.0, 0.0, 0.0, 0.0, c1, c2)
    elif dtau == 0:
        f1, f2 = _wardrop_split(net, demand_total)
        a1, a2 = (_solve_gap(net.total - demand_total, 0.0) if f1
                  else (c1, math.fsum((c2, -d_a, -d_b))))
        share_a = d_a / demand_total
        share_b = 1.0 - share_a
        point = (f1 * share_a, f1 * share_b, f2 * share_a, f2 * share_b, a1, a2)
    else:
        x_is_a = t_a >= t_b
        d_x, d_y, t_x, t_y = (d_a, d_b, t_a, t_b) if x_is_a else (d_b, d_a, t_b, t_a)
        s = c1 + c2 - demand_total
        a1, a2 = _solve_gap(s, t_x)
        f1_x = c1 - a1
        f1_y = 0.0
        if f1_x < 0.0:
            f1_x, a1, a2 = 0.0, c1, math.fsum((c2, -d_a, -d_b))
        elif f1_x > d_x:
            a1, a2 = _solve_gap(s, t_y)
            f1_x = d_x
            f1_y = c1 - a1 - d_x
            if f1_y < 0.0:
                f1_y, a1, a2 = 0.0, c1 - d_x, c2 - d_y
            elif f1_y > d_y:
                f1_y, a1, a2 = d_y, math.fsum((c1, -d_a, -d_b)), c2
        f1_a, f1_b = (f1_x, f1_y) if x_is_a else (f1_y, f1_x)
        point = (f1_a, f1_b, d_a - f1_a, d_b - f1_b, a1, a2)
    return point[:4], *_report(point, t_a, t_b, tol)


def taxed_equilibrium(
    net: NetworkPair,
    dem: Demand,
    sens: Sensitivities,
    taxes: TaxVector,
    tol: float = 1e-9,
) -> EquilibriumReport:
    """Equilibrium flows of the two-class game under the given taxes.

    The support is computed from the closed-form roots of the latency
    gap. ``tol`` decides which flows count as carried in the reported
    ``residual``: every (network, class) pair carrying more than ``tol``
    has perceived cost within ``tol`` (scaled by the latency magnitude)
    of the cheapest alternative. At zero tax difference the class
    decomposition is reported proportional to demand; only aggregates are
    unique there.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    _check_demand(net, dem.total())
    a, b, tau1, tau2 = sens.alpha_a, sens.alpha_b, taxes.tau1, taxes.tau2
    split, l1, l2, residual = _solve(net, dem.d_a, dem.d_b, a, b, tau1, tau2, tol)
    return EquilibriumReport(
        ClassFlowSplit(*split), (l1, l2), (l1 + a * tau1, l2 + a * tau2),
        (l1 + b * tau1, l2 + b * tau2), residual
    )


def verify_proposition1(
    net: NetworkPair,
    dem: Demand,
    sens: Sensitivities,
    tol: float = 1e-6,
) -> tuple[bool, tuple[float, float]]:
    """Check that the optimal tax really drives the equilibrium aggregates
    to the optimal split; returns (ok, per-network flow discrepancies)."""
    taxes = optimal_tax(net, dem, sens)
    rep = taxed_equilibrium(net, dem, sens, taxes, tol=min(tol, 1e-9))
    opt = optimal_assignment(net, dem.total())
    df1 = rep.split.f1 - opt.f1
    df2 = rep.split.f2 - opt.f2
    return (max(abs(df1), abs(df2)) <= tol, (df1, df2))


def class_latencies(
    net: NetworkPair,
    demand_total: float,
    share_a: float,
    sens: Sensitivities,
) -> tuple[float, float, float]:
    """Flow-weighted average latency of each class under the optimal tax,
    plus the common latency of the no-tax equilibrium for reference.

    An empty class gets NaN (no user experiences a latency). The class
    demands are checked too: they may sum to one ulp above demand_total.
    """
    if not 0.0 <= share_a <= 1.0:
        raise ValueError(f"share_a must be in [0, 1], got {share_a}")
    _check_demand(net, demand_total)
    d_a = share_a * demand_total
    d_b = demand_total - d_a
    _check_demand(net, d_a + d_b)
    tau2 = _tau2(net, d_a + d_b, d_b, sens.alpha_a, sens.alpha_b)[0]
    (f1_a, f1_b, f2_a, f2_b), l1, l2, _ = _solve(
        net, d_a, d_b, sens.alpha_a, sens.alpha_b, 0.0, tau2, 1e-9
    )

    def weighted(fl1, fl2):
        d = fl1 + fl2
        return math.nan if d <= 0 else (fl1 * l1 + fl2 * l2) / d

    if demand_total > 0:
        f1, f2 = _wardrop_split(net, demand_total)
        lat_no_tax = (link_cost(net.c1, f1) + link_cost(net.c2, f2)) / demand_total
    else:
        lat_no_tax = math.nan
    return (weighted(f1_a, f2_a), weighted(f1_b, f2_b), lat_no_tax)

"""Two-class Wardrop equilibrium under an arbitrary tax vector.

The fluid game: each class i in {A, B} places its demand d_i on the two
links so that every link actually used by class i has minimal perceived
cost latency + alpha_i * tau_p. With two links the equilibrium aggregate
split is pinned down by the latency gap

    g(f1) = l1(f1) - l2(D - f1),

which is strictly increasing in f1, against the per-class indifference
levels t_i = alpha_i * (tau2 - tau1). The candidate support patterns
come in a fixed order (the more price-averse class migrates to the
cheaper-taxed link first); the solver builds them one at a time and stops
at the first that satisfies the equilibrium inequalities at the
tolerance, in one pass. g(f1) = t has a closed-form root, so no iteration
is needed. Each candidate carries the slacks a = c - f of both networks,
and the latencies are 1/a: near saturation c - f of the rounded flows
would cancel, and the slacks do not.

The search runs on floats in one kernel, ``_solve``. ``taxed_equilibrium``
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


class NoEquilibriumFound(RuntimeError):
    """No candidate validated at the tolerance. An equilibrium exists for
    every demand below capacity; this guards against a game on which the
    closed-form candidates all miss it, and none is known."""


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
    found over all (network, class) pairs carrying flow; the solver
    guarantees it does not exceed the tolerance it was called with.

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


def _report(candidate, t_a, t_b, tol):
    """(l1, l2, residual, validates) of one candidate (f1_a, f1_b, f2_a,
    f2_b, a1, a2): its class flows and the slacks a = c - f of the two
    networks, with t_i = alpha_i * (tau2 - tau1).

    The latencies are 1/a, +inf at a slack of 0 or less. A class's cost
    on network 1 less its cost on network 2 is l1 - l2 - t_i, so the
    prices themselves, which can dwarf the latencies, never enter. The
    residual is the largest cost advantage of the other network over one
    carrying more than ``tol`` of a class; the candidate validates if it
    is within ``tol`` scaled by the largest finite latency above 1.
    residual only takes a gap above 0.0, so its sign of zero does not
    matter.
    """
    f1_a, f1_b, f2_a, f2_b, a1, a2 = candidate
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
    scale = l1 if 1.0 < l1 < INF else 1.0
    if scale < l2 < INF:
        scale = l2
    return l1, l2, residual, residual <= tol * scale


def _candidates(net, demand_total, d_a, d_b, t_a, t_b):
    """Yields the candidates (f1_a, f1_b, f2_a, f2_b, a1, a2) in order,
    each built only when asked for, so the solver stops at the first that
    validates. The class with the higher indifference level (the one the
    tax difference pushes toward network 1), X, fills network 1 first:

    1. X splits, Y entirely on network 2;
    2. X entirely on network 1, Y entirely on network 2;
    3. Y splits, X entirely on network 1;
    4. everything on network 2;
    5. everything on network 1.

    The body is written for X = A; for X = B it runs with the classes
    swapped and swaps each candidate back. A split is yielded when the
    root puts the splitting class's flow on network 1 within [0, d], so
    its flows need no clamp; a root beyond either end is the adjacent
    corner, which is tried anyway. A root that rounds onto an end keeps
    its own slacks, which can differ from the corner's by far more than
    the tolerance when the class's flow on its lesser network is below an
    ulp of the flows. Infeasible aggregates are skipped; the slack of one
    network carrying everything is c - d_a - d_b rounded once.
    """
    if t_a < t_b:
        for f1_b, f1_a, f2_b, f2_a, a1, a2 in _candidates(net, demand_total, d_b, d_a, t_b, t_a):
            yield f1_a, f1_b, f2_a, f2_b, a1, a2
        return
    c1, c2 = net.c1, net.c2
    s = c1 + c2 - demand_total
    a1, a2 = _solve_gap(s, t_a)
    f1 = c1 - a1
    if 0.0 <= f1 <= d_a:
        yield f1, 0.0, d_a - f1, d_b, a1, a2
    yield d_a, 0.0, 0.0, d_b, c1 - d_a, c2 - d_b
    a1, a2 = _solve_gap(s, t_b)
    f1 = c1 - a1 - d_a
    if 0.0 <= f1 <= d_b:
        yield d_a, f1, 0.0, d_b - f1, a1, a2
    if demand_total < c2:
        yield 0.0, 0.0, d_a, d_b, c1, math.fsum((c2, -d_a, -d_b))
    if demand_total < c1:
        yield d_a, d_b, 0.0, 0.0, math.fsum((c1, -d_a, -d_b)), c2


def _solve(net, d_a, d_b, alpha_a, alpha_b, tau1, tau2, tol):
    """(split, l1, l2, residual) of the equilibrium, for a demand the
    caller has checked and tol > 0; the split is (f1_a, f1_b, f2_a, f2_b).

    Without demand or tax difference the one split is reported as it is,
    proportional to demand at zero tax difference. Otherwise the result is
    the first candidate that validates at ``tol``, in one pass.
    """
    demand_total = d_a + d_b
    dtau = tau2 - tau1
    t_a = alpha_a * dtau
    t_b = alpha_b * dtau
    if demand_total == 0:
        candidate = (0.0, 0.0, 0.0, 0.0, net.c1, net.c2)
    elif dtau == 0:
        f1, f2 = _wardrop_split(net, demand_total)
        a1, a2 = (_solve_gap(net.total - demand_total, 0.0) if f1
                  else (net.c1, math.fsum((net.c2, -d_a, -d_b))))
        share_a = d_a / demand_total
        share_b = 1.0 - share_a
        candidate = (f1 * share_a, f1 * share_b, f2 * share_a, f2 * share_b, a1, a2)
    else:
        best = INF
        for candidate in _candidates(net, demand_total, d_a, d_b, t_a, t_b):
            l1, l2, residual, ok = _report(candidate, t_a, t_b, tol)
            if ok:
                return candidate[:4], l1, l2, residual
            best = min(best, residual)
        raise NoEquilibriumFound(
            f"no equilibrium validated at demand {demand_total!r} "
            f"(d_a={d_a!r}, d_b={d_b!r}) against combined capacity "
            f"{net.total!r}; best residual {best}"
        )
    return candidate[:4], *_report(candidate, t_a, t_b, tol)[:3]


def taxed_equilibrium(
    net: NetworkPair,
    dem: Demand,
    sens: Sensitivities,
    taxes: TaxVector,
    tol: float = 1e-9,
) -> EquilibriumReport:
    """Equilibrium flows of the two-class game under the given taxes.

    Every (network, class) pair carrying more than ``tol`` flow has
    perceived cost within ``tol`` (scaled by the latency magnitude) of the
    cheapest alternative. At zero tax difference the class decomposition is
    reported proportional to demand; only aggregates are unique there.
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

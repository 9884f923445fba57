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
at the first that satisfies the equilibrium inequalities. g(f1) = t has a
closed-form root, so no iteration is needed. Near saturation the latencies
1/(c - f) are so ill-conditioned that rounding in the closed-form root can
exceed the 1e-9 tolerance; there the solver re-checks the candidates it
built at 1e-6. If none validates even then, it raises NoEquilibriumFound.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .analytics import (
    Demand,
    NetworkPair,
    Sensitivities,
    TaxVector,
    delay,
    optimal_assignment,
    optimal_tax,
    total_cost,
    wardrop_no_tax,
    _check_demand,
)

NAN = float("nan")


class NoEquilibriumFound(RuntimeError):
    """No candidate split validated, not even at the 1e-6 re-check: so near
    saturation that rounding in 1/(c - f) exceeds 1e-6. An equilibrium
    still exists."""


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


def _solve_gap(net: NetworkPair, demand_total: float, t: float) -> float:
    """Aggregate f1 with l1(f1) - l2(D - f1) = t, in closed form.

    With a = c1 - f1 and s = c1 + c2 - D the condition is the quadratic
    t*a^2 - (t*s + 2)*a + s = 0. Its root in (0, s) is
    2s / ((u + 2) + sqrt(u^2 + 4)) with u = t*s, exact at t = 0; below
    u = -2 that sum cancels, so there the same root is written as
    ((u + 2) - sqrt(u^2 + 4)) / (2t), which adds two negative terms.
    """
    s = net.c1 + net.c2 - demand_total
    u = t * s
    if u < -2.0:
        a = ((u + 2.0) - math.sqrt(u * u + 4.0)) / (2.0 * t)
    else:
        a = 2.0 * s / ((u + 2.0) + math.sqrt(u * u + 4.0))
    f1 = net.c1 - a
    return min(max(f1, 0.0), demand_total)


def _report(
    net: NetworkPair,
    sens: Sensitivities,
    taxes: TaxVector,
    split: ClassFlowSplit,
    support_tol: float,
) -> EquilibriumReport:
    l1 = delay(net.c1, split.f1)
    l2 = delay(net.c2, split.f2)
    cost_a = (l1 + sens.alpha_a * taxes.tau1, l2 + sens.alpha_a * taxes.tau2)
    cost_b = (l1 + sens.alpha_b * taxes.tau1, l2 + sens.alpha_b * taxes.tau2)
    residual = 0.0
    for flow1, flow2, (cost1, cost2) in (
        (split.f1_a, split.f2_a, cost_a),
        (split.f1_b, split.f2_b, cost_b),
    ):
        if flow1 > support_tol and cost1 - cost2 > residual:
            residual = cost1 - cost2
        if flow2 > support_tol and cost2 - cost1 > residual:
            residual = cost2 - cost1
    return EquilibriumReport(split, (l1, l2), cost_a, cost_b, residual)


def _validates(rep: EquilibriumReport, tol: float) -> bool:
    """Residual within tol, scaled by the largest finite latency."""
    scale = 1.0
    for latency in rep.latencies:
        if scale < latency < math.inf:
            scale = latency
    return rep.residual <= tol * scale


def _candidate_splits(
    net: NetworkPair,
    dem: Demand,
    t_a: float,
    t_b: float,
) -> Iterator[ClassFlowSplit]:
    """Yields the candidate supports in order, each built only when asked
    for, so the solver stops at the first that validates. The class with
    the higher indifference level (the one the tax difference pushes toward
    network 1) fills network 1 first; infeasible aggregates are skipped."""
    demand_total = dem.total()
    slack = 1e-12 * max(1.0, demand_total)
    if t_a >= t_b:
        d_x, d_y, t_x, t_y = dem.d_a, dem.d_b, t_a, t_b
    else:
        d_x, d_y, t_x, t_y = dem.d_b, dem.d_a, t_b, t_a

    def split(f1_x: float, f1_y: float) -> ClassFlowSplit:
        f1_a, f1_b = (f1_x, f1_y) if t_a >= t_b else (f1_y, f1_x)
        return ClassFlowSplit(f1_a, f1_b, max(dem.d_a - f1_a, 0.0), max(dem.d_b - f1_b, 0.0))

    # X splits, Y entirely on network 2.
    f1 = _solve_gap(net, demand_total, t_x)
    if f1 <= d_x + slack:
        yield split(min(max(f1, 0.0), d_x), 0.0)
    # X entirely on network 1, Y entirely on network 2.
    yield split(d_x, 0.0)
    # Y splits, X entirely on network 1.
    f1 = _solve_gap(net, demand_total, t_y)
    if f1 >= d_x - slack:
        yield split(d_x, min(max(f1 - d_x, 0.0), d_y))
    # Everything on network 2.
    if demand_total < net.c2:
        yield split(0.0, 0.0)
    # Everything on network 1.
    if demand_total < net.c1:
        yield split(d_x, d_y)


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
    demand_total = dem.total()
    _check_demand(net, demand_total)

    if demand_total == 0:
        split = ClassFlowSplit(0.0, 0.0, 0.0, 0.0)
        return _report(net, sens, taxes, split, tol)

    dtau = taxes.tau2 - taxes.tau1
    if dtau == 0:
        agg = wardrop_no_tax(net, demand_total)
        share_a = dem.d_a / demand_total
        share_b = 1.0 - share_a
        f1, f2 = agg.f1, agg.f2
        split = ClassFlowSplit(f1 * share_a, f1 * share_b, f2 * share_a, f2 * share_b)
        return _report(net, sens, taxes, split, tol)

    t_a = sens.alpha_a * dtau
    t_b = sens.alpha_b * dtau
    splits = _candidate_splits(net, dem, t_a, t_b)
    best = math.inf
    # Near saturation rounding in 1/(c - f) can exceed tol; then the
    # candidates, all built and kept by then, are re-checked at 1e-6.
    for check_tol in (tol, max(tol, 1e-6)):
        tried = []
        for split in splits:
            rep = _report(net, sens, taxes, split, check_tol)
            if _validates(rep, check_tol):
                return rep
            best = min(best, rep.residual)
            tried.append(split)
        splits = tried

    raise NoEquilibriumFound(
        f"no equilibrium validated at demand {demand_total!r} "
        f"(d_a={dem.d_a!r}, d_b={dem.d_b!r}) against combined capacity "
        f"{net.total!r}; best residual {best}"
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

    An empty class gets NaN (no user experiences a latency).
    """
    if not 0.0 <= share_a <= 1.0:
        raise ValueError(f"share_a must be in [0, 1], got {share_a}")
    _check_demand(net, demand_total)
    d_a = share_a * demand_total
    dem = Demand(d_a, demand_total - d_a)
    taxes = optimal_tax(net, dem, sens)
    rep = taxed_equilibrium(net, dem, sens, taxes)
    l1, l2 = rep.latencies

    def weighted(fl1: float, fl2: float) -> float:
        d = fl1 + fl2
        if d <= 0:
            return NAN
        return (fl1 * l1 + fl2 * l2) / d

    lat_a = weighted(rep.split.f1_a, rep.split.f2_a)
    lat_b = weighted(rep.split.f1_b, rep.split.f2_b)
    if demand_total > 0:
        lat_no_tax = total_cost(net, wardrop_no_tax(net, demand_total)) / demand_total
    else:
        lat_no_tax = NAN
    return (lat_a, lat_b, lat_no_tax)

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
    The root is clamped to [0, D] by the comparisons that max and min
    make, so that NaN stays NaN.
    """
    s = net.c1 + net.c2 - demand_total
    u = t * s
    if u < -2.0:
        a = ((u + 2.0) - math.sqrt(u * u + 4.0)) / (2.0 * t)
    else:
        a = 2.0 * s / ((u + 2.0) + math.sqrt(u * u + 4.0))
    f1 = net.c1 - a
    return 0.0 if f1 < 0.0 else demand_total if demand_total < f1 else f1


def _report(net, prices, split, tol):
    """(l1, l2, residual, validates) of one candidate split
    (f1_a, f1_b, f2_a, f2_b), with ``prices`` the products alpha_a * tau1,
    alpha_a * tau2, alpha_b * tau1 and alpha_b * tau2.

    The residual is the largest cost advantage of the other network over
    one carrying more than ``tol`` of a class; the split validates if it
    is within ``tol`` scaled by the largest finite latency above 1. The
    latencies are written out as in ``delay``: the flows are >= 0 or NaN.
    A class's cost gap on network 2 is the negated gap on network 1, to
    the bit; residual only takes a gap above 0.0, so its sign of zero and
    NaN do not matter.
    """
    f1_a, f1_b, f2_a, f2_b = split
    pa1, pa2, pb1, pb2 = prices
    f1 = f1_a + f1_b
    f2 = f2_a + f2_b
    l1 = INF if f1 >= net.c1 else 1.0 / (net.c1 - f1)
    l2 = INF if f2 >= net.c2 else 1.0 / (net.c2 - f2)
    gap_a = l1 + pa1 - (l2 + pa2)
    gap_b = l1 + pb1 - (l2 + pb2)
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
    """Yields the candidate splits (f1_a, f1_b, f2_a, f2_b) in order, each
    built only when asked for, so the solver stops at the first that
    validates. The class with the higher indifference level (the one the
    tax difference pushes toward network 1), X, fills network 1 first:

    1. X splits, Y entirely on network 2;
    2. X entirely on network 1, Y entirely on network 2;
    3. Y splits, X entirely on network 1;
    4. everything on network 2;
    5. everything on network 1.

    The body is written for X = A; for X = B it runs with the classes
    swapped and swaps each split back. Infeasible aggregates are skipped.
    Clamps are max and min written as the comparisons they make. The
    first root needs no max, being >= 0. Network 2 needs no clamp: a
    class's flow on network 1 never exceeds its demand d, so d - f1 >= 0,
    and d - d == 0.0 and d - 0.0 == d are written out as such.
    """
    if t_a < t_b:
        for f1_b, f1_a, f2_b, f2_a in _candidates(net, demand_total, d_b, d_a, t_b, t_a):
            yield f1_a, f1_b, f2_a, f2_b
        return
    slack = 1e-12 * max(1.0, demand_total)
    f1 = _solve_gap(net, demand_total, t_a)
    if f1 <= d_a + slack:
        f1 = d_a if d_a < f1 else f1
        yield f1, 0.0, d_a - f1, d_b
    yield d_a, 0.0, 0.0, d_b
    f1 = _solve_gap(net, demand_total, t_b)
    if f1 >= d_a - slack:
        f1 -= d_a
        f1 = 0.0 if f1 < 0.0 else d_b if d_b < f1 else f1
        yield d_a, f1, 0.0, d_b - f1
    if demand_total < net.c2:
        yield 0.0, 0.0, d_a, d_b
    if demand_total < net.c1:
        yield d_a, d_b, 0.0, 0.0


def _solve(net, d_a, d_b, alpha_a, alpha_b, tau1, tau2, tol):
    """(split, l1, l2, residual, prices) of the equilibrium, for a demand
    the caller has checked and tol > 0; the split is (f1_a, f1_b, f2_a,
    f2_b), and ``prices`` is the argument of ``_report``.

    Without demand or tax difference the one split is reported as it is,
    proportional to demand at zero tax difference. Otherwise the result is
    the first candidate that validates at ``tol``, else the first at 1e-6:
    near saturation rounding in 1/(c - f) can exceed ``tol``, and then the
    candidates, all built and kept by then, are checked again.
    """
    prices = (alpha_a * tau1, alpha_a * tau2, alpha_b * tau1, alpha_b * tau2)
    demand_total = d_a + d_b
    dtau = tau2 - tau1
    if demand_total == 0:
        split = (0.0,) * 4
    elif dtau == 0:
        f1, f2 = _wardrop_split(net, demand_total)
        share_a = d_a / demand_total
        share_b = 1.0 - share_a
        split = (f1 * share_a, f1 * share_b, f2 * share_a, f2 * share_b)
    else:
        splits = _candidates(net, demand_total, d_a, d_b, alpha_a * dtau, alpha_b * dtau)
        best = INF
        for check_tol in (tol, 1e-6 if tol < 1e-6 else tol):
            tried = []
            for split in splits:
                l1, l2, residual, ok = _report(net, prices, split, check_tol)
                if ok:
                    return split, l1, l2, residual, prices
                best = min(best, residual)
                tried.append(split)
            splits = tried
        raise NoEquilibriumFound(
            f"no equilibrium validated at demand {demand_total!r} "
            f"(d_a={d_a!r}, d_b={d_b!r}) against combined capacity "
            f"{net.total!r}; best residual {best}"
        )
    return split, *_report(net, prices, split, tol)[:3], prices


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
    split, l1, l2, residual, (pa1, pa2, pb1, pb2) = _solve(
        net, dem.d_a, dem.d_b, sens.alpha_a, sens.alpha_b, taxes.tau1, taxes.tau2, tol
    )
    return EquilibriumReport(
        ClassFlowSplit(*split), (l1, l2), (l1 + pa1, l2 + pa2), (l1 + pb1, l2 + pb2), residual
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
    (f1_a, f1_b, f2_a, f2_b), l1, l2, *_ = _solve(
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

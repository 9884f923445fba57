"""Closed forms for selfish flow placement over two parallel M/M/1 links.

Two access networks with capacities c1 < c2 serve an aggregate throughput
demand D placed by self-interested users. A user of price sensitivity
alpha perceives the cost of network p as latency(p) + alpha * tau_p,
where tau_p is a per-unit tax. This module holds the scalar formulas:
M/M/1 latency, total delay, the no-tax Wardrop equilibrium, the socially
optimal split and its cost, the demand threshold below which no tax is
needed, and the tax on the large network that makes the selfish outcome
optimal for a two-class population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

INF = math.inf


class DemandExceedsCapacity(ValueError):
    """Total demand at or above the combined capacity of both networks."""


@dataclass(frozen=True)
class NetworkPair:
    """Capacities (Mbit/s) of the two access networks, ordered c2 > c1."""

    c1: float
    c2: float
    # Set once here: the simulator asks for the threshold and the roots
    # sqrt(c1), sqrt(c2) and sqrt(c1 * c2) at every event, and every closed
    # form checks its demand against the total.
    total: float = field(init=False, repr=False, compare=False)
    _tax_threshold: float = field(init=False, repr=False, compare=False)
    _r1: float = field(init=False, repr=False, compare=False)
    _r2: float = field(init=False, repr=False, compare=False)
    _r12: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (INF > self.c2 > self.c1 > 0):
            raise ValueError(
                f"requires finite c2 > c1 > 0, got c1={self.c1}, c2={self.c2}"
            )
        r12 = math.sqrt(self.c1 * self.c2)
        object.__setattr__(self, "total", self.c1 + self.c2)
        object.__setattr__(self, "_tax_threshold", self.c2 - r12)
        object.__setattr__(self, "_r1", math.sqrt(self.c1))
        object.__setattr__(self, "_r2", math.sqrt(self.c2))
        object.__setattr__(self, "_r12", r12)

    def tax_threshold(self) -> float:
        """Demand level below which the selfish split is already optimal."""
        return self._tax_threshold


@dataclass(frozen=True)
class Sensitivities:
    """Per-class tax sensitivities; class A is the more price-averse one."""

    alpha_a: float
    alpha_b: float

    def __post_init__(self):
        if not (INF > self.alpha_a > self.alpha_b > 0):
            raise ValueError(
                "requires finite alpha_a > alpha_b > 0, "
                f"got {self.alpha_a}, {self.alpha_b}"
            )


@dataclass(frozen=True)
class Demand:
    """Aggregate per-class throughput demand (Mbit/s).

    Zero class demand is allowed: an empty class reduces the game to the
    homogeneous single-class case (the simulator transiently produces it).
    """

    d_a: float
    d_b: float

    def __post_init__(self):
        if not (self.d_a >= 0 and self.d_b >= 0):
            raise ValueError(f"demands must be >= 0, got {self.d_a}, {self.d_b}")

    def total(self) -> float:
        return self.d_a + self.d_b


@dataclass(frozen=True)
class FlowAssignment:
    """Aggregate flow (Mbit/s) placed on each network."""

    f1: float
    f2: float

    def __post_init__(self):
        if self.f1 < 0 or self.f2 < 0:
            raise ValueError(f"flows must be >= 0, got {self.f1}, {self.f2}")


@dataclass(frozen=True)
class TaxVector:
    """Per-unit prices on the two networks, for the equilibrium solver.

    The policies price network 2 only (``optimal_tax`` returns (0, tau2),
    and the simulator carries tau2 as one float); the type stays general
    so the solver can be exercised with arbitrary price pairs.
    """

    tau1: float = 0.0
    tau2: float = 0.0

    def __post_init__(self):
        if not (0 <= self.tau1 < INF and 0 <= self.tau2 < INF):
            raise ValueError(f"taxes must be finite and >= 0, got {self.tau1}, {self.tau2}")


def delay(c: float, f: float) -> float:
    """M/M/1 sojourn time 1/(c - f); +inf at or beyond capacity.

    Infinity is a legal return value, never an error: it keeps the cost
    functions total on the whole feasible simplex boundary.
    """
    if c <= 0:
        raise ValueError(f"capacity must be > 0, got {c}")
    if f < 0:
        raise ValueError(f"flow must be >= 0, got {f}")
    if f >= c:
        return INF
    return 1.0 / (c - f)


def link_cost(c: float, f: float) -> float:
    """Total delay f * l(f) of one link carrying flow f."""
    # 0 * inf == 0: a saturated link carrying no flow contributes nothing.
    if f == 0:
        return 0.0
    return f * delay(c, f)


def total_cost(net: NetworkPair, f: FlowAssignment) -> float:
    """Total delay f1*l1(f1) + f2*l2(f2) experienced across both links."""
    return link_cost(net.c1, f.f1) + link_cost(net.c2, f.f2)


def _check_demand(net: NetworkPair, demand_total: float) -> None:
    # "not >= 0" also rejects nan; inf fails the capacity test below.
    if not demand_total >= 0:
        raise ValueError(f"demand must be >= 0, got {demand_total}")
    if demand_total >= net.total:
        raise DemandExceedsCapacity(
            f"total demand {demand_total} >= combined capacity {net.total}"
        )


def _wardrop_split(net, demand_total):
    """Selfish (f1, f2) for a demand the caller has already checked."""
    if demand_total <= net.c2 - net.c1:
        return 0.0, demand_total
    return (demand_total + net.c1 - net.c2) / 2.0, (demand_total + net.c2 - net.c1) / 2.0


def wardrop_no_tax(net: NetworkPair, demand_total: float) -> FlowAssignment:
    """Unique selfish (equal-latency) split of the total demand, no taxes."""
    _check_demand(net, demand_total)
    return FlowAssignment(*_wardrop_split(net, demand_total))


def _optimal_split(net: NetworkPair, demand_total: float) -> tuple[float, float]:
    """Optimal (f1, f2) for a demand the caller has already checked."""
    if demand_total <= net._tax_threshold:
        return 0.0, demand_total
    r1, r2 = net._r1, net._r2
    f1 = ((demand_total - net.c2) * r1 + net.c1 * r2) / (r1 + r2)
    f2 = ((demand_total - net.c1) * r2 + net.c2 * r1) / (r1 + r2)
    # Clamp roundoff just above the branch boundary: max(0.0, f1) and
    # min(f2, demand_total), written as the comparisons they make, so that
    # NaN and -0.0 give the same results.
    return f1 if f1 > 0.0 else 0.0, demand_total if demand_total < f2 else f2


def optimal_assignment(net: NetworkPair, demand_total: float) -> FlowAssignment:
    """Unique split minimizing total delay over the feasible simplex."""
    _check_demand(net, demand_total)
    return FlowAssignment(*_optimal_split(net, demand_total))


def _optimal_cost(net: NetworkPair, demand_total: float) -> float:
    """Minimum total delay for a demand the caller has already checked."""
    if demand_total <= net._tax_threshold:
        if demand_total == 0:
            return 0.0
        return demand_total / (net.c2 - demand_total)
    return (2.0 * demand_total - net.c1 - net.c2 + 2.0 * net._r12) / (
        net.c1 + net.c2 - demand_total
    )


def optimal_cost(net: NetworkPair, demand_total: float) -> float:
    """Minimum achievable total delay for the given demand."""
    _check_demand(net, demand_total)
    return _optimal_cost(net, demand_total)


def _tau2(
    net: NetworkPair, demand_total: float, d_b: float, alpha_a: float, alpha_b: float
) -> tuple[float, float | None]:
    """Optimal tax on network 2 and the alpha of the class marginal there
    (None below the threshold), for a demand the caller has checked.

    The magnitude depends only on the total demand. The branch compares
    d_b with the optimal f2; the tie uses class A. d_b may exceed the
    total: APPROX passes the offered class-B load.
    """
    if demand_total <= net._tax_threshold:
        return 0.0, None
    alpha = alpha_a if d_b <= _optimal_split(net, demand_total)[1] else alpha_b
    tau2 = (net.c2 - net.c1) / (alpha * net._r12 * (net.c1 + net.c2 - demand_total))
    return tau2, alpha


def optimal_tax(net: NetworkPair, dem: Demand, sens: Sensitivities) -> TaxVector:
    """Tax vector (0, tau2) driving the two-class equilibrium to the optimum:
    0 at or below the threshold, else the tax that aligns the selfish
    choice of the class marginal on network 2 with the optimal split."""
    demand_total = dem.total()
    _check_demand(net, demand_total)
    tau2, _ = _tau2(net, demand_total, dem.d_b, sens.alpha_a, sens.alpha_b)
    return TaxVector(0.0, tau2)

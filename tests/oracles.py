"""Brute-force oracles, kept independent of the library's solution paths.

``grid_min_total_cost`` minimizes the total delay by scanning the
aggregate split, never touching the closed-form optimum.

``wardrop_grid_oracle`` scans the full (f1_A, f1_B) lattice for the point
with the smallest worst-case equilibrium violation. Because both class
grids share one step, every lattice point's aggregate lies on the same
1-D lattice, so per-point costs collapse to arrays indexed by the
aggregate; the scan below evaluates exactly the minimum the naive double
loop would find (per aggregate, the violation only depends on whether
each class sits at 0, at its full demand, or strictly between).

``eager_equilibrium`` is the taxed equilibrium search with every
candidate support built up front and checked in order in one pass; the
solver must return what it returns.

``exact_equilibrium`` gives the equilibrium latencies in ``decimal``
arithmetic from the exact values of the float inputs, with a root formula
of its own, so that the solver's rounding error can be measured.

``latencies_of_report`` is ``class_latencies`` composed from the public
API: the optimal tax, the report of ``taxed_equilibrium`` under it, and
the flow-weighted latencies of that report.

``state_from`` builds a simulator state from a list of placements, one
(network, class) pair per sid or None for a departed session, and
``placements_of`` reads that list back from a state. ``loads_of`` counts
the placements and applies the load rule to the counts.

``wants_switch`` is the per-group switch predicate written out for one
(network, class) group at a time, and ``reference_relaxation`` is the
plain handover relaxation built on it: every sweep visits every session
in ascending sid and asks it whether to switch. It keeps its own
sid -> (network, class) map and never reads a simulator state.
"""

from __future__ import annotations

import collections
import decimal
import math
from decimal import Decimal

import numpy as np

from nettax.analytics import Demand, optimal_tax, total_cost, wardrop_no_tax
from nettax.equilibrium import (
    ClassFlowSplit,
    EquilibriumReport,
    NoEquilibriumFound,
    _report,
    _solve_gap,
    taxed_equilibrium,
)
from nettax.simulator import _GONE, CLASS_A, CLASS_B, SimConfig, SystemState

# The (network, class) pair of each group of ``SystemState``, by index.
GROUPS = ((1, CLASS_A), (1, CLASS_B), (2, CLASS_A), (2, CLASS_B))


def latency_curve(c: float, flows: np.ndarray) -> np.ndarray:
    out = np.full_like(flows, np.inf)
    mask = flows < c
    out[mask] = 1.0 / (c - flows[mask])
    return out


def grid_min_total_cost(
    c1: float, c2: float, demand_total: float, step: float = 1e-4
) -> float:
    """Smallest total delay found on an aggregate-split grid."""
    lo = max(0.0, demand_total - c2 + 1e-6)
    hi = min(demand_total, c1 - 1e-6)
    if hi < lo:
        f1 = np.array([max(lo, 0.0)])
    else:
        f1 = np.arange(lo, hi + step / 2, step)
    f2 = demand_total - f1
    cost = f1 * latency_curve(c1, f1) + f2 * latency_curve(c2, f2)
    return float(np.min(cost))


def wardrop_grid_oracle(
    c1: float,
    c2: float,
    d_a: float,
    d_b: float,
    alpha_a: float,
    alpha_b: float,
    tau1: float,
    tau2: float,
    step: float = 1e-3,
) -> tuple[float, float]:
    """(aggregate f1, violation) of the lattice point minimizing the
    worst equilibrium-condition violation. Demands must be lattice
    multiples of ``step`` so class grids and aggregate grid align."""
    na = int(round(d_a / step))
    nb = int(round(d_b / step))
    assert abs(na * step - d_a) < 1e-12 and abs(nb * step - d_b) < 1e-12

    ks = np.arange(na + nb + 1)
    f1 = ks * step
    f2 = (d_a + d_b) - f1
    l1 = latency_curve(c1, f1)
    l2 = latency_curve(c2, f2)

    def class_violations(alpha, n_cls):
        cost1 = l1 + alpha * tau1
        cost2 = l2 + alpha * tau2
        diff = cost1 - cost2  # may hold +-inf, never nan (D < c1 + c2)
        v_on2 = np.maximum(0.0, -diff)  # class entirely on network 2
        v_on1 = np.maximum(0.0, diff)  # class entirely on network 1
        v_split = np.abs(diff)
        if n_cls == 0:
            zero = np.zeros_like(diff)
            return zero, zero, zero
        return v_on2, v_on1, v_split

    vA = class_violations(alpha_a, na)
    vB = class_violations(alpha_b, nb)

    def v_for(i: int, k: int) -> float:
        j = k - i
        a = vA[0 if i == 0 else (1 if i == na else 2)][k] if na else 0.0
        b = vB[0 if j == 0 else (1 if j == nb else 2)][k] if nb else 0.0
        return max(a, b)

    best_v = math.inf
    best_k = 0
    for k in range(na + nb + 1):
        lo = max(0, k - nb)
        hi = min(na, k)
        cands = {lo, hi}
        ilo, ihi = max(1, k - nb + 1), min(na - 1, k - 1)
        if ilo <= ihi:
            cands.add((ilo + ihi) // 2)
        v = min(v_for(i, k) for i in cands)
        if v < best_v:
            best_v = v
            best_k = k
    return best_k * step, best_v


def validates(rep, tol: float) -> bool:
    """The solver's acceptance test applied to a report: the residual is
    within ``tol`` scaled by the largest finite latency above 1."""
    return rep.residual <= tol * max([1.0, *(l for l in rep.latencies if l < math.inf)])


def eager_equilibrium(net, dem, sens, taxes, tol: float = 1e-9):
    """``taxed_equilibrium`` for a game with demand and a tax difference,
    searched eagerly: the full list of candidates, each a class split with
    the slacks c - f of both networks, is built first, then the first that
    validates at ``tol`` is returned, else NoEquilibriumFound is raised
    with the solver's message. It shares the closed-form root and the
    residual check with the library, so it pins down which candidates are
    tried and in which order, not the arithmetic of each."""
    demand_total = dem.total()
    dtau = taxes.tau2 - taxes.tau1
    assert demand_total > 0 and dtau != 0
    t_a, t_b = sens.alpha_a * dtau, sens.alpha_b * dtau
    a_first = t_a >= t_b
    d_x, d_y = (dem.d_a, dem.d_b) if a_first else (dem.d_b, dem.d_a)
    t_x, t_y = (t_a, t_b) if a_first else (t_b, t_a)
    c1, c2 = net.c1, net.c2
    s = c1 + c2 - demand_total
    # (f1_x, f1_y, a1, a2); a split is kept if the root leaves the
    # splitting class's flow on network 1 within its demand.
    a1, a2 = _solve_gap(s, t_x)
    pairs = [(c1 - a1, 0.0, a1, a2)] if 0.0 <= c1 - a1 <= d_x else []
    pairs.append((d_x, 0.0, c1 - d_x, c2 - d_y))
    a1, a2 = _solve_gap(s, t_y)
    if 0.0 <= c1 - a1 - d_x <= d_y:
        pairs.append((d_x, c1 - a1 - d_x, a1, a2))
    if demand_total < c2:
        pairs.append((0.0, 0.0, c1, math.fsum((c2, -d_x, -d_y))))
    if demand_total < c1:
        pairs.append((d_x, d_y, math.fsum((c1, -d_x, -d_y)), c2))
    candidates = []
    for f1_x, f1_y, a1, a2 in pairs:
        f1_a, f1_b = (f1_x, f1_y) if a_first else (f1_y, f1_x)
        candidates.append((f1_a, f1_b, dem.d_a - f1_a, dem.d_b - f1_b, a1, a2))

    best = math.inf
    for candidate in candidates:
        l1, l2, residual, ok = _report(candidate, t_a, t_b, tol)
        if ok:
            a, b, tau1, tau2 = sens.alpha_a, sens.alpha_b, taxes.tau1, taxes.tau2
            return EquilibriumReport(
                ClassFlowSplit(*candidate[:4]), (l1, l2), (l1 + a * tau1, l2 + a * tau2),
                (l1 + b * tau1, l2 + b * tau2), residual,
            )
        best = min(best, residual)
    raise NoEquilibriumFound(
        f"no equilibrium validated at demand {demand_total!r} "
        f"(d_a={dem.d_a!r}, d_b={dem.d_b!r}) against combined capacity "
        f"{net.total!r}; best residual {best}"
    )


def exact_equilibrium(net, dem, sens, taxes, digits: int = 80) -> tuple[Decimal, Decimal]:
    """The latencies (l1, l2) of the equilibrium, as Decimals computed at
    ``digits`` significant digits from the exact values of the inputs.

    The supports are the solver's, in its order, each checked on the
    exact signs of the cost gaps l1 - l2 - alpha_i * (tau2 - tau1). A
    class splits where network 1's slack a = c1 - f1 solves
    t*a^2 - (u + 2)*a + s = 0 with s = c1 + c2 - D and u = t*s; the
    root in (0, s) is taken the textbook way, ((u + 2) - sqrt(u^2 + 4))
    / (2t), whose cancellation costs about 30 digits at most, and a gap
    counts as zero within 10^(-digits/2) of l1 + l2. The aggregate
    equilibrium is unique, so its latencies are too.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        c1, c2, d_a, d_b, alpha_a, alpha_b, tau1, tau2 = map(Decimal, (
            net.c1, net.c2, dem.d_a, dem.d_b, sens.alpha_a, sens.alpha_b,
            taxes.tau1, taxes.tau2))
        t_a, t_b = alpha_a * (tau2 - tau1), alpha_b * (tau2 - tau1)
        # X is the class the tax difference pushes toward network 1.
        d_x, d_y, t_x, t_y = (d_a, d_b, t_a, t_b) if t_a >= t_b else (d_b, d_a, t_b, t_a)
        s = c1 + c2 - (d_x + d_y)
        tiny = Decimal(10) ** -(digits // 2)

        def slack1(t):
            if t == 0:
                return s / 2
            u = t * s
            return ((u + 2) - (u * u + 4).sqrt()) / (2 * t)

        def latencies(f1_x, f1_y):
            """(l1, l2) if the split is an equilibrium, else None."""
            a1 = c1 - f1_x - f1_y
            a2 = s - a1
            if a1 <= 0 or a2 <= 0:
                return None
            l1, l2 = 1 / a1, 1 / a2
            for t, on1, on2 in ((t_x, f1_x, d_x - f1_x), (t_y, f1_y, d_y - f1_y)):
                gap = (l1 - l2 - t) / (l1 + l2)
                if on1 < 0 or on2 < 0 or (on1 > 0 and gap > tiny) or (on2 > 0 and gap < -tiny):
                    return None
            return l1, l2

        for f1_x, f1_y in ((c1 - slack1(t_x), 0), (d_x, 0), (d_x, c1 - slack1(t_y) - d_x),
                           (0, 0), (d_x, d_y)):
            found = latencies(f1_x, f1_y)
            if found:
                return found
    raise AssertionError(f"no support is an equilibrium: {net}, {dem}, {sens}, {taxes}")


def latencies_of_report(net, demand_total: float, share_a: float, sens):
    """``class_latencies`` through the public API and the report's objects."""
    if not 0.0 <= share_a <= 1.0:
        raise ValueError(f"share_a must be in [0, 1], got {share_a}")
    d_a = share_a * demand_total
    dem = Demand(d_a, demand_total - d_a)
    rep = taxed_equilibrium(net, dem, sens, optimal_tax(net, dem, sens))
    l1, l2 = rep.latencies

    def weighted(fl1: float, fl2: float) -> float:
        d = fl1 + fl2
        return math.nan if d <= 0 else (fl1 * l1 + fl2 * l2) / d

    if demand_total > 0:
        lat_no_tax = total_cost(net, wardrop_no_tax(net, demand_total)) / demand_total
    else:
        lat_no_tax = math.nan
    return (weighted(rep.split.f1_a, rep.split.f2_a),
            weighted(rep.split.f1_b, rep.split.f2_b), lat_no_tax)


def loads_of(cfg: SimConfig, placements) -> list[float]:
    """[load of network 1, load of network 2]: the sessions of each group
    counted, then n_A * eps_A + n_B * eps_B on each network."""
    n = collections.Counter(placements)
    eps_a, eps_b = cfg.class_a.throughput, cfg.class_b.throughput
    return [n[(p, CLASS_A)] * eps_a + n[(p, CLASS_B)] * eps_b for p in (1, 2)]


def state_from(cfg: SimConfig, placements) -> SystemState:
    """A state holding one session per entry of ``placements``, in
    ascending sid from 0: its (network, class) pair, or None for a
    session that has departed. Its loads follow ``loads_of``."""
    state = SystemState(cfg)
    for place in placements:
        g = _GONE if place is None else GROUPS.index(place)
        state.where.append(g)
        if place is not None:
            state.n[g] += 1
    state.loads[:] = loads_of(cfg, placements)
    return state


def placements_of(state: SystemState) -> list:
    """The placements ``state_from`` would build ``state`` from."""
    return [None if g == _GONE else GROUPS[g] for g in state.where]


def wants_switch(cfg: SimConfig, loads, p: int, cls: str, tau2: float) -> bool:
    """Whether sessions of class ``cls`` on network ``p`` cut their
    perceived cost by more than the hysteresis by moving to the other
    network, which must have room for them. ``loads[p - 1]`` is the load
    of network p. Only network 2 is taxed."""
    net = cfg.net
    profile = cfg.class_a if cls == CLASS_A else cfg.class_b
    eps, alpha = profile.throughput, profile.alpha
    q = 2 if p == 1 else 1
    cap = {1: net.c1, 2: net.c2}
    tau = {1: 0.0, 2: tau2}
    moved = loads[q - 1] + eps
    if moved >= cap[q]:
        return False
    stay = 1.0 / (cap[p] - loads[p - 1]) + alpha * tau[p]
    move = 1.0 / (cap[q] - moved) + alpha * tau[q]
    return move < stay - cfg.handover_hysteresis


def reference_relaxation(cfg: SimConfig, placements, tau2: float):
    """Best-response sweeps over all sessions in ascending sid, with the
    same round cap and result as ``simulator.handover_relaxation``, from
    the state ``state_from(cfg, placements)`` holds. Each round first
    tests whether any occupied group wants to switch at all, and so does
    the exit at the round cap: the result reports convergence whenever
    nobody wants to switch, however many rounds that took. Returns the
    result and the placements after the last move; the loads are counted
    afresh from the sid -> (network, class) map at every question."""
    where = {sid: place for sid, place in enumerate(placements) if place}
    cap = cfg.max_handover_rounds
    if cap is None:
        cap = 100 * max(1, len(where))

    def wants(p: int, cls: str) -> bool:
        return wants_switch(cfg, loads_of(cfg, where.values()), p, cls, tau2)

    def settled() -> bool:
        return not any(wants(*place) for place in set(where.values()))

    def result(switches: int, converged: bool):
        return (switches, converged), [where.get(sid) for sid in range(len(placements))]

    total = 0
    rounds = 0
    while rounds < cap:
        rounds += 1
        if settled():
            return result(total, True)
        switched = 0
        for sid in sorted(where):
            p, cls = where[sid]
            if wants(p, cls):
                where[sid] = (2 if p == 1 else 1, cls)
                switched += 1
        total += switched
        if switched == 0:
            return result(total, True)
    return result(total, settled())
